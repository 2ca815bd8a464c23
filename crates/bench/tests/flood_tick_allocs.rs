//! Steady-state allocation discipline of a shard tick above the pending
//! cap: one shard receives more than 256 frames per tick, and one of its
//! streams is flooded past the cap every tick, so both the direct lane path
//! and the queued (shedding) path run on every tick. Once pools and queues
//! reach their high-water mark, ticks must not allocate.
//!
//! Kept alone in its own test binary: the counting allocator is global, so
//! a concurrently running test would pollute the count.

use kalstream_bench::alloc_count::{self, CountingAllocator};
use kalstream_core::wire::{SyncMessage, WireMessage};
use kalstream_core::{FrameBatch, IngestPipeline, ProtocolConfig, ServerEndpoint, SessionSpec};
use kalstream_filter::models;
use kalstream_linalg::{Matrix, Vector};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const STREAMS: u32 = 600;
const FLOODED: u32 = 7;
const FLOOD_FRAMES: u64 = 300;
const WARM_TICKS: u64 = 8;
const COUNTED_TICKS: u64 = 8;

/// One tick: a sequenced state sync for every stream, then a run of
/// sequenced measurements for the flooded stream.
fn tick(t: u64) -> Vec<u8> {
    let mut batch = FrameBatch::new();
    for id in 0..STREAMS {
        let v = (t as f64 * 0.1 + id as f64).sin();
        let msg = SyncMessage::State {
            x: Vector::from_slice(&[v]),
            p: Matrix::scalar(1, 0.5),
        };
        let seq = if id == FLOODED {
            t * (FLOOD_FRAMES + 1) + 1
        } else {
            t + 1
        };
        batch.push_raw(
            id,
            &WireMessage::Sync {
                seq: Some(seq),
                msg,
            }
            .encode(),
        );
    }
    for i in 0..FLOOD_FRAMES {
        let z = Vector::from_slice(&[(i as f64 * 0.37 + t as f64).cos()]);
        let seq = t * (FLOOD_FRAMES + 1) + 2 + i;
        let msg = SyncMessage::Measurement { z };
        batch.push_raw(
            FLOODED,
            &WireMessage::Sync {
                seq: Some(seq),
                msg,
            }
            .encode(),
        );
    }
    batch.as_bytes().to_vec()
}

#[test]
fn flooded_shard_ticks_do_not_allocate_in_steady_state() {
    let servers: Vec<(u32, ServerEndpoint)> = (0..STREAMS)
        .map(|id| {
            let config = ProtocolConfig::new(0.25).unwrap();
            let spec = SessionSpec::fixed(
                models::random_walk(0.01, 0.25),
                Vector::zeros(1),
                1.0,
                config,
            );
            (id, spec.unwrap().build().server)
        })
        .collect();
    let ticks: Vec<Vec<u8>> = (0..WARM_TICKS + COUNTED_TICKS).map(tick).collect();
    let (warm, counted) = ticks.split_at(WARM_TICKS as usize);

    let mut pipe = IngestPipeline::start(1, servers);
    assert_eq!(
        pipe.coverage(),
        (STREAMS as usize, 0),
        "every stream on a lane"
    );
    for wire in warm {
        pipe.ingest_tick(wire);
    }
    pipe.flush();
    let (allocs, _) = alloc_count::count_allocs(|| {
        for wire in counted {
            pipe.ingest_tick(wire);
        }
        pipe.flush();
    });
    let result = pipe.finish();
    assert_eq!(allocs, 0, "steady-state ticks allocated");

    let flooded = &result.endpoints[FLOODED as usize].1;
    let shed_per_tick = FLOOD_FRAMES + 1 - 256;
    assert_eq!(
        flooded.delivery().shed,
        shed_per_tick * (WARM_TICKS + COUNTED_TICKS)
    );
    let other = &result.endpoints[FLOODED as usize + 1].1;
    assert_eq!(other.syncs_applied(), WARM_TICKS + COUNTED_TICKS);
}
