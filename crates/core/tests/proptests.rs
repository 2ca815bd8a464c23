//! Property-based tests over the protocol layer: the suppression invariant,
//! measurement pinning, wire-format totality, and allocation feasibility —
//! for arbitrary (well-formed) inputs, not just unit-test cases.

use kalstream_core::{
    pin_to_measurement, wire::SyncMessage, BudgetAllocator, Estimator, FrameBatch, FrameDecoder,
    IngestPipeline, ProtocolConfig, SequentialIngest, ServerEndpoint, SessionSpec, SourceEndpoint,
    StreamDemand, StreamSession,
};
use kalstream_filter::{models, KalmanFilter};
use kalstream_linalg::{Matrix, Vector};
use kalstream_sim::Producer;
use proptest::prelude::*;

fn source_with(delta: f64, q: f64, r: f64) -> SourceEndpoint {
    SessionSpec::fixed(
        models::random_walk(q, r),
        Vector::zeros(1),
        1.0,
        ProtocolConfig::new(delta).unwrap(),
    )
    .unwrap()
    .build()
    .split()
    .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shadow_always_within_delta_after_decision(
        delta in 0.05..5.0f64,
        q in 1e-4..0.5f64,
        r in 1e-4..0.5f64,
        zs in prop::collection::vec(-50.0..50.0f64, 1..80),
    ) {
        // The protocol invariant at the source: after every decision, the
        // shadow (= server) prediction is within δ of the observation.
        let mut source = source_with(delta, q, r);
        for &z in &zs {
            let _ = source.decide(&[z]);
            let served = source.shadow_predicted_value();
            prop_assert!(
                (served - z).abs() <= delta * (1.0 + 1e-9) + 1e-12,
                "served {served} vs z {z} at delta {delta}"
            );
        }
    }

    #[test]
    fn sync_iff_prediction_escapes_delta(
        delta in 0.1..2.0f64,
        jump in -20.0..20.0f64,
    ) {
        // Settle on 0, then observe `jump`: a sync must happen exactly when
        // |prediction − jump| > δ, i.e. (for a settled walk) |jump| > δ.
        let mut source = source_with(delta, 0.001, 0.001);
        for _ in 0..100 {
            source.decide(&[0.0]);
        }
        let pred = {
            // Clone to peek at the would-be prediction without mutating.
            let mut probe = source.clone();
            probe.decide(&[0.0]);
            probe.shadow_predicted_value()
        };
        let synced = source.decide(&[jump]).is_some();
        let escape = (pred - jump).abs() > delta;
        prop_assert_eq!(synced, escape, "pred {} jump {} delta {}", pred, jump, delta);
    }

    #[test]
    fn pinning_contract(
        x in prop::collection::vec(-100.0..100.0f64, 2),
        z in -100.0..100.0f64,
    ) {
        let h = Matrix::from_rows(&[&[1.0, 0.0]]);
        let xv = Vector::from_slice(&x);
        let zv = Vector::from_slice(&[z]);
        let pinned = pin_to_measurement(&xv, &h, &zv).unwrap();
        // Exact in the measurement subspace, untouched elsewhere.
        prop_assert!((pinned[0] - z).abs() < 1e-9);
        prop_assert_eq!(pinned[1], x[1]);
    }

    #[test]
    fn wire_decode_never_panics(payload in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = SyncMessage::decode(&payload);
    }

    #[test]
    fn wire_encoded_len_is_exact(
        xs in prop::collection::vec(-1e9..1e9f64, 1..6),
    ) {
        let n = xs.len();
        let msg = SyncMessage::State {
            x: Vector::from_slice(&xs),
            p: Matrix::identity(n),
        };
        prop_assert_eq!(msg.encode().len(), msg.encoded_len());
        let model_msg = SyncMessage::Model {
            model: models::random_walk(0.1, 0.1),
            x: Vector::from_slice(&xs[..1]),
            p: Matrix::identity(1),
        };
        prop_assert_eq!(model_msg.encode().len(), model_msg.encoded_len());
        let meas_msg = SyncMessage::Measurement { z: Vector::from_slice(&xs) };
        prop_assert_eq!(meas_msg.encode().len(), meas_msg.encoded_len());
    }

    #[test]
    fn allocation_respects_budget_and_ordering(
        scales in prop::collection::vec(0.01..10.0f64, 2..8),
        budget in 0.05..3.0f64,
    ) {
        let demands: Vec<StreamDemand> = scales
            .iter()
            .map(|&s| {
                let samples: Vec<f64> = (1..=40).map(|k| s * k as f64 / 40.0).collect();
                StreamDemand::new(samples, 1.0).unwrap()
            })
            .collect();
        let result = BudgetAllocator::allocate(&demands, budget).unwrap();
        prop_assert!(result.predicted_rate <= budget + 1e-9);
        prop_assert_eq!(result.deltas.len(), demands.len());
        prop_assert!(result.deltas.iter().all(|d| d.is_finite() && *d >= 0.0));
        // Uniform comparator is also feasible and never cheaper in weighted
        // imprecision.
        let uniform = BudgetAllocator::allocate_uniform(&demands, budget).unwrap();
        prop_assert!(uniform.predicted_rate <= budget + 1e-9);
        let cost = |r: &kalstream_core::AllocationResult| r.deltas.iter().sum::<f64>();
        prop_assert!(cost(&result) <= cost(&uniform) + 1e-9);
    }

    #[test]
    fn estimator_enum_is_consistent(
        zs in prop::collection::vec(-10.0..10.0f64, 1..40),
    ) {
        let kf = KalmanFilter::new(models::random_walk(0.05, 0.05), Vector::zeros(1), 1.0)
            .unwrap();
        let mut est = Estimator::Fixed(kf);
        for &z in &zs {
            est.step(&Vector::from_slice(&[z])).unwrap();
            prop_assert_eq!(est.measurement_dim(), 1);
            prop_assert!(est.active().state().is_finite());
        }
    }
    #[test]
    fn cloned_source_replays_byte_identical_traffic(
        delta in 0.05..2.0f64,
        zs in prop::collection::vec(-20.0..20.0f64, 20..120),
    ) {
        // The suppression protocol's precision guarantee rests on a cloned
        // filter replaying *bit-identically* — including after the hot path
        // moved onto reusable scratch buffers. Run a source halfway through
        // a trace (dirtying its scratch), clone it (the clone starts with
        // empty scratch), and replay the second half on both: every wire
        // message must encode to exactly the same bytes.
        let mut original = source_with(delta, 0.01, 0.05);
        let half = zs.len() / 2;
        for &z in &zs[..half] {
            let _ = original.decide(&[z]);
        }
        let mut replica = original.clone();
        for &z in &zs[half..] {
            let a = original.decide(&[z]);
            let b = replica.decide(&[z]);
            match (a, b) {
                (None, None) => {}
                (Some(ma), Some(mb)) => {
                    prop_assert_eq!(ma.encode(), mb.encode(), "wire bytes diverged");
                }
                (a, b) => prop_assert!(false, "sync decisions diverged: {a:?} vs {b:?}"),
            }
        }
        prop_assert_eq!(
            original.shadow_predicted_value(),
            replica.shadow_predicted_value()
        );
    }

    #[test]
    fn frame_batch_roundtrips_any_messages(
        msgs in prop::collection::vec(
            (any::<u32>(), prop::collection::vec(-1e6..1e6f64, 1..5)),
            0..20,
        ),
    ) {
        let expect: Vec<(u32, SyncMessage)> = msgs
            .iter()
            .map(|(id, xs)| {
                let msg = SyncMessage::State {
                    x: Vector::from_slice(xs),
                    p: Matrix::identity(xs.len()),
                };
                (*id, msg)
            })
            .collect();
        let mut batch = FrameBatch::new();
        for (id, msg) in &expect {
            batch.push(*id, msg);
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        dec.for_each_message(batch.as_bytes(), |id, m| got.push((id, m)));
        prop_assert_eq!(dec.decode_failures(), 0);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn frame_walk_never_panics_on_garbage(
        wire in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Any byte soup: the walk terminates without panicking, and running
        // it twice is deterministic — same frames, same failure count.
        let mut dec_a = FrameDecoder::new();
        let mut frames_a = 0u64;
        dec_a.for_each_message(&wire, |_, _| frames_a += 1);
        let mut dec_b = FrameDecoder::new();
        let mut frames_b = 0u64;
        dec_b.for_each_message(&wire, |_, _| frames_b += 1);
        prop_assert_eq!(frames_a, frames_b);
        prop_assert_eq!(dec_a.decode_failures(), dec_b.decode_failures());
    }

    #[test]
    fn corrupt_frame_bodies_do_not_desync_the_batch(
        garbage in prop::collection::vec(any::<u8>(), 0..64),
        xs in prop::collection::vec(-100.0..100.0f64, 1..4),
    ) {
        // valid frame / arbitrary-body frame / valid frame: whatever the
        // middle bytes are, the length prefix carries the framing, so the
        // outer frames always survive and a bad body is counted, not fatal.
        let good = SyncMessage::State {
            x: Vector::from_slice(&xs),
            p: Matrix::identity(xs.len()),
        };
        let mut batch = FrameBatch::new();
        batch.push(1, &good);
        batch.push_raw(2, &garbage);
        batch.push(3, &good);

        let mut dec = FrameDecoder::new();
        let mut ids = Vec::new();
        dec.for_each_message(batch.as_bytes(), |id, _| ids.push(id));
        prop_assert!(ids.contains(&1) && ids.contains(&3), "outer frames lost: {ids:?}");
        // The garbage body either happened to parse (rare) or was counted.
        let failures = u64::from(!ids.contains(&2));
        prop_assert_eq!(dec.decode_failures(), failures);

        // Truncating the batch anywhere must not panic either; a cut
        // mid-frame is at most one more counted failure.
        let wire = batch.as_bytes();
        let cut = garbage.len().min(wire.len().saturating_sub(1));
        let mut dec = FrameDecoder::new();
        dec.for_each_message(&wire[..wire.len() - cut], |_, _| {});
    }

    #[test]
    fn sharded_ingest_matches_sequential_for_any_shard_count(
        signals in prop::collection::vec(prop::collection::vec(-10.0..10.0f64, 20), 2..8),
        shards in 1usize..7,
    ) {
        // Record one framed log from real sources, then drain it through the
        // sequential reference and through a sharded pipeline with an
        // arbitrary shard count: message totals and every server filter must
        // be bit-identical.
        let ticks = 20usize;
        let mut sources: Vec<SourceEndpoint> = Vec::new();
        let mut servers: Vec<(u32, ServerEndpoint)> = Vec::new();
        for id in 0..signals.len() as u32 {
            let config = ProtocolConfig::new(0.3).unwrap();
            let StreamSession { source, server } =
                SessionSpec::default_scalar(0.0, config).unwrap().build();
            sources.push(source);
            servers.push((id, server));
        }
        let mut log: Vec<Vec<u8>> = Vec::with_capacity(ticks);
        for t in 0..ticks {
            let mut batch = FrameBatch::new();
            for (id, signal) in signals.iter().enumerate() {
                if let Some(payload) = sources[id].observe(t as u64, &[signal[t]]) {
                    batch.push_raw(id as u32, &payload);
                }
            }
            log.push(batch.as_bytes().to_vec());
        }

        let mut seq = SequentialIngest::new(servers.clone());
        for tick in &log {
            seq.ingest_tick(tick);
        }
        let seq_result = seq.finish();

        let mut pipe = IngestPipeline::start(shards, servers);
        for tick in &log {
            pipe.ingest_tick(tick);
        }
        let result = pipe.finish();

        let bits = |ep: &ServerEndpoint| -> Vec<u64> {
            let f = ep.filter();
            f.state()
                .iter()
                .map(|v| v.to_bits())
                .chain(f.covariance().as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        prop_assert_eq!(result.total_messages(), seq_result.total_messages());
        prop_assert_eq!(result.endpoints.len(), seq_result.endpoints.len());
        for ((id_a, a), (id_b, b)) in result.endpoints.iter().zip(seq_result.endpoints.iter()) {
            prop_assert_eq!(id_a, id_b);
            prop_assert_eq!(bits(a), bits(b), "stream {} diverged at {} shards", id_a, shards);
            prop_assert_eq!(a.syncs_applied(), b.syncs_applied());
        }
    }
}

/// One fuzzed frame: stream id, body kind, sequence number (0 = none),
/// payload selector, mutation, mutation argument, base value.
type FuzzFrame = (u32, u8, u64, u8, u8, u16, f64);

/// A payload value: finite most of the time, NaN, ±∞ or overflow-prone
/// otherwise.
fn fuzz_value(sel: u8, v: f64) -> f64 {
    match sel % 8 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => v * 1e300,
        _ => v,
    }
}

/// Builds a body from a valid message of the drawn kind — state syncs of
/// the right and wrong dimension, measurements, model syncs, and the
/// reverse-channel ack/bound tags — then mutates it: truncated, trailing
/// bytes, one flipped byte, or replaced by arbitrary bytes.
fn fuzz_body(&(_, kind, seq, sel, mutation, arg, v): &FuzzFrame) -> Vec<u8> {
    use kalstream_core::wire::WireMessage;
    let val = fuzz_value(sel, v);
    let cov = if sel % 8 == 7 { val } else { v.abs() + 0.1 };
    let state = |n: usize| SyncMessage::State {
        x: Vector::from_slice(&vec![val; n]),
        p: Matrix::scalar(n, cov),
    };
    let msg = match kind % 8 {
        0 | 1 => state(1),
        2 => state(2),
        3 => state(3),
        4 => SyncMessage::Measurement {
            z: Vector::from_slice(&[val]),
        },
        5 => SyncMessage::Measurement {
            z: Vector::from_slice(&[val, v]),
        },
        _ => SyncMessage::Model {
            model: models::random_walk(0.02, 0.2),
            x: Vector::from_slice(&[val]),
            p: Matrix::scalar(1, cov),
        },
    };
    let wire = match (kind / 8) % 8 {
        0 => WireMessage::Ack { seq },
        1 => WireMessage::Bound { delta: val },
        _ => WireMessage::Sync {
            seq: (seq > 0).then_some(seq),
            msg,
        },
    };
    let mut body = wire.encode().to_vec();
    match mutation % 8 {
        0 => body.truncate(arg as usize % (body.len() + 1)),
        1 => body.extend_from_slice(&arg.to_le_bytes()[..1 + arg as usize % 2]),
        2 => {
            let i = arg as usize % body.len();
            body[i] ^= (arg >> 8) as u8 | 1;
        }
        3 => body = arg.to_le_bytes().repeat(arg as usize % 5),
        _ => {}
    }
    body
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn shard_path_matches_sequential_on_fuzzed_frames(
        ticks in prop::collection::vec(
            prop::collection::vec(
                (0u32..7, any::<u8>(), 0u64..6, any::<u8>(), any::<u8>(), any::<u16>(), -10.0..10.0f64),
                0..24,
            ),
            1..6,
        ),
        garbage in prop::collection::vec(any::<u8>(), 0..24),
        shards in 1usize..4,
    ) {
        // The shard engine parses state syncs straight from the frame bytes
        // onto fleet-batch lanes; everything else takes the general decode
        // path. On any byte soup it must never panic and must leave exactly
        // what the sequential reference leaves. Streams 0–3 are (1, 1)
        // lanes, 4 a (2, 1) lane, 5 a scalar 3-state filter, 6 unknown.
        let config = || ProtocolConfig::new(0.5).unwrap();
        let mut servers: Vec<(u32, ServerEndpoint)> = (0..4)
            .map(|id| (id, SessionSpec::default_scalar(0.0, config()).unwrap().build().split().1))
            .collect();
        for (id, model, n) in [
            (4, models::constant_velocity(1.0, 0.05, 0.1), 2),
            (5, models::constant_acceleration(1.0, 0.02, 0.1), 3),
        ] {
            let spec = SessionSpec::fixed(model, Vector::zeros(n), 1.0, config()).unwrap();
            servers.push((id, spec.build().split().1));
        }
        let mut log: Vec<Vec<u8>> = ticks
            .iter()
            .map(|frames| {
                let mut batch = FrameBatch::new();
                for frame in frames {
                    batch.push_raw(frame.0, &fuzz_body(frame));
                }
                batch.as_bytes().to_vec()
            })
            .collect();
        log.last_mut().unwrap().extend_from_slice(&garbage);

        let mut seq = SequentialIngest::new(servers.clone());
        let mut pipe = IngestPipeline::start(shards, servers);
        prop_assert_eq!(pipe.coverage(), (5, 1));
        for tick in &log {
            seq.ingest_tick(tick);
            pipe.ingest_tick(tick);
        }
        pipe.flush();
        let router_failures = pipe.router_decode_failures();
        let (a, b) = (pipe.finish(), seq.finish());
        let sum = |r: &kalstream_core::IngestResult, f: fn(&kalstream_core::ShardReport) -> u64| {
            r.shards.iter().map(f).sum::<u64>()
        };
        prop_assert_eq!(router_failures + a.total_decode_failures(), b.total_decode_failures());
        prop_assert_eq!(a.total_messages(), b.total_messages());
        prop_assert_eq!(sum(&a, |s| s.stale_drops), sum(&b, |s| s.stale_drops));
        prop_assert_eq!(sum(&a, |s| s.unknown_streams), sum(&b, |s| s.unknown_streams));
        let bits = |ep: &ServerEndpoint| -> Vec<u64> {
            let f = ep.filter();
            f.state()
                .iter()
                .chain(f.covariance().as_slice())
                .map(|v| v.to_bits())
                .collect()
        };
        for ((id, ea), (_, eb)) in a.endpoints.iter().zip(&b.endpoints) {
            prop_assert_eq!(bits(ea), bits(eb), "stream {} bits", id);
            prop_assert_eq!(ea.syncs_applied(), eb.syncs_applied(), "stream {}", id);
            prop_assert_eq!(ea.delivery(), eb.delivery(), "stream {} delivery", id);
            prop_assert_eq!(ea.decode_failures(), eb.decode_failures(), "stream {}", id);
            prop_assert_eq!(ea.predict_failures(), eb.predict_failures(), "stream {}", id);
            prop_assert_eq!(ea.last_seq(), eb.last_seq(), "stream {}", id);
            prop_assert_eq!(ea.staleness(), eb.staleness(), "stream {}", id);
            prop_assert_eq!(ea.filter().model().name(), eb.filter().model().name());
        }
    }
}
