//! Snapshot byte-identity: the records a live pipeline encodes shard by
//! shard, straight from its endpoints and fleet-batch lanes, frame into
//! exactly the file [`encode_snapshot`] writes for its captured states —
//! and the sequential reference's provided `snapshot_records` path writes
//! the same bytes. Fleets mix every route a record can come from: lanes of
//! shapes (1,1), (2,1) and (2,2), scalar-route streams (3-state, `Simple`
//! covariance), a stream flooded past the pending cap that starts with a
//! carried queue, acks and bound directives due, and a lane demoted after
//! a NaN state sync; snapshots are taken before the first tick, mid-run,
//! and after a reassign.

use kalstream_core::frame::FrameBatch;
use kalstream_core::wire::{SyncMessage, WireMessage};
use kalstream_core::{
    EndpointState, IngestPipeline, SequentialIngest, ServerEndpoint, ShardAssignment,
    SnapshotSource,
};
use kalstream_durable::{encode_snapshot, encode_snapshot_records};
use kalstream_filter::{models, CovarianceUpdate, StateModel};
use kalstream_linalg::{Matrix, Vector};
use kalstream_sim::DeliveryStats;
use proptest::prelude::*;

/// Stream kinds, by `id % KINDS`.
const KINDS: u32 = 5;
/// The flooded stream: starts with carried syncs and receives more than
/// the pending cap (256) in one tick.
const FLOODED: u32 = 0;
/// The (2,1) lane stream that receives a NaN state sync.
const POISONED: u32 = 1;

/// A two-state model observed in both components: the (2,2) lane shape.
fn observed_cv() -> StateModel {
    StateModel::new(
        "observed_cv",
        Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]),
        Matrix::from_rows(&[&[0.01, 0.005], &[0.005, 0.01]]),
        Matrix::identity(2),
        Matrix::scalar(2, 0.2),
    )
    .expect("consistent model")
}

/// `(model, covariance form)` for a stream id.
fn kind(id: u32) -> (StateModel, CovarianceUpdate) {
    match id % KINDS {
        0 => (models::random_walk(0.01, 0.25), CovarianceUpdate::Joseph),
        1 => (
            models::constant_velocity(1.0, 0.05, 0.1),
            CovarianceUpdate::Joseph,
        ),
        2 => (observed_cv(), CovarianceUpdate::Joseph),
        3 => (
            models::constant_acceleration(1.0, 0.02, 0.1),
            CovarianceUpdate::Joseph,
        ),
        _ => (models::random_walk(0.02, 0.5), CovarianceUpdate::Simple),
    }
}

fn state_sync(dim: usize, v: f64, p: f64) -> SyncMessage {
    SyncMessage::State {
        x: Vector::from_slice(&vec![v; dim]),
        p: Matrix::scalar(dim, p),
    }
}

/// The fleet, built through `EndpointState` so every field can be set: the
/// flooded stream carries queued syncs, and `due` picks streams that start
/// with an ack or a bound directive due.
fn fleet(streams: u32, due: u64) -> Vec<(u32, ServerEndpoint)> {
    (0..streams)
        .map(|id| {
            let (model, cov_update) = kind(id);
            let n = model.state_dim();
            let pending = if id == FLOODED {
                (0..5).map(|i| state_sync(n, i as f64 * 0.5, 0.4)).collect()
            } else {
                Vec::new()
            };
            let bit = |k: u32| (due >> ((id * 2 + k) % 64)) & 1 == 1;
            let state = EndpointState {
                model,
                x: Vector::from_slice(&vec![id as f64 * 0.1; n]),
                p: Matrix::scalar(n, 1.0),
                steps_since_update: u64::from(id % 3),
                cov_update,
                pending,
                syncs_applied: u64::from(id),
                decode_failures: 0,
                predict_failures: 0,
                last_seq: 0,
                ack_due: bit(0),
                bound_due: bit(1).then_some(0.125 * f64::from(id + 1)),
                bounds_sent: 0,
                delivery: DeliveryStats::default(),
            };
            (
                id,
                ServerEndpoint::from_state(state).expect("consistent state"),
            )
        })
        .collect()
}

/// SplitMix64: the traffic's deterministic draw.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One framed batch per tick: sequenced state syncs and measurements drawn
/// from `seed`, the flood on `flood_tick`, the NaN sync on `nan_tick`.
fn traffic(streams: u32, ticks: u64, seed: u64, flood_tick: u64, nan_tick: u64) -> Vec<Vec<u8>> {
    let mut seqs = vec![0u64; streams as usize];
    let mut push = |batch: &mut FrameBatch, id: u32, msg: SyncMessage| {
        seqs[id as usize] += 1;
        let seq = Some(seqs[id as usize]);
        batch.push_raw(id, &WireMessage::Sync { seq, msg }.encode());
    };
    (0..ticks)
        .map(|tick| {
            let mut batch = FrameBatch::new();
            for id in 0..streams {
                let (model, _) = kind(id);
                let draw = mix(seed ^ (tick << 32) ^ u64::from(id));
                let v = (draw >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                match draw % 4 {
                    0 => push(&mut batch, id, state_sync(model.state_dim(), v, 0.3)),
                    1 => {
                        let z = Vector::from_slice(&vec![v; model.measurement_dim()]);
                        push(&mut batch, id, SyncMessage::Measurement { z });
                    }
                    _ => {}
                }
            }
            if tick == flood_tick {
                for i in 0..300 {
                    push(&mut batch, FLOODED, state_sync(1, i as f64 * 0.01, 0.2));
                }
            }
            if tick == nan_tick {
                push(&mut batch, POISONED, state_sync(2, f64::NAN, 0.3));
            }
            batch.as_bytes().to_vec()
        })
        .collect()
}

/// The snapshot file a source's records frame into.
fn from_records(source: &mut impl SnapshotSource, ticks: u64) -> Vec<u8> {
    let mut records = Vec::new();
    let count = source.snapshot_records(&mut records);
    encode_snapshot_records(ticks, count, &records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shard_records_match_encoded_states(
        streams in 10u32..40,
        (shards, resize_to, salt) in (1usize..=4, 1usize..=4, 0u64..3),
        seed in any::<u64>(),
        due in any::<u64>(),
        ticks in 6u64..14,
        flood_tick in 0u64..6,
        nan_tick in 0u64..6,
    ) {
        let wire = traffic(streams, ticks, seed, flood_tick, nan_tick);
        let mut pipe = IngestPipeline::start(shards, fleet(streams, due));
        let mut seq = SequentialIngest::new(fleet(streams, due));
        let resize_at = ticks / 2;
        for t in 0..=ticks {
            if t == resize_at {
                pipe.reassign(ShardAssignment { shards: resize_to, salt });
            }
            if t == 0 || t == resize_at || t == resize_at + 1 || t == ticks {
                let records = from_records(&mut pipe, t);
                prop_assert_eq!(
                    &records,
                    &encode_snapshot(t, &pipe.snapshot_states()),
                    "pipeline records vs its states at tick {}", t
                );
                prop_assert_eq!(
                    &records,
                    &from_records(&mut seq, t),
                    "pipeline vs sequential at tick {}", t
                );
            }
            if let Some(batch) = wire.get(t as usize) {
                pipe.ingest_tick(batch);
                seq.ingest_tick(batch);
            }
        }
        let (batched, scalar) = pipe.coverage();
        prop_assert!(batched > 0 && scalar > 0, "both routes covered");
    }
}

#[test]
fn fixture_covers_carried_queue_dues_and_demotion() {
    // The proptest's fleet really has what its doc claims: a carried
    // queue and dues at the first barrier, a demoted lane after the NaN.
    let streams = 20;
    let fleet = fleet(streams, u64::MAX);
    assert_eq!(fleet[FLOODED as usize].1.pending_len(), 5);
    let states = SequentialIngest::new(fleet).snapshot_states();
    assert!(states
        .iter()
        .all(|(_, s)| s.ack_due && s.bound_due.is_some()));
    let mut pipe = IngestPipeline::start(2, self::fleet(streams, 0));
    for batch in traffic(streams, 3, 7, 0, 1) {
        pipe.ingest_tick(&batch);
    }
    let result = pipe.finish();
    assert!(result.endpoints[FLOODED as usize].1.delivery().shed > 0);
    let poisoned = &result.endpoints[POISONED as usize].1;
    assert!(poisoned.filter().state()[0].is_nan());
    assert!(
        poisoned.predict_failures() > 0,
        "the NaN lane left the batch and fails its predicts scalar"
    );
}
