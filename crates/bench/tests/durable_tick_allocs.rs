//! Steady-state allocation discipline of a durable tick: once buffers reach
//! their high-water mark, a tick of `DurableIngest<IngestPipeline>` that
//! writes no snapshot — WAL append (record assembled in the writer's reused
//! buffer, checksum streamed), routing and shard apply — must not allocate.
//! Snapshot ticks are exempt; the tick right after one, which appends to
//! the freshly rotated segment, is not.
//!
//! Kept alone in its own test binary: the counting allocator is global, so
//! a concurrently running test would pollute the count.

use kalstream_bench::alloc_count::{self, CountingAllocator};
use kalstream_core::wire::{SyncMessage, WireMessage};
use kalstream_core::{FrameBatch, IngestPipeline, ProtocolConfig, ServerEndpoint, SessionSpec};
use kalstream_durable::{DurableIngest, DurableStore};
use kalstream_filter::models;
use kalstream_linalg::{Matrix, Vector};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const STREAMS: u32 = 96;
const SHARDS: usize = 2;
const SNAPSHOT_EVERY: u64 = 4;
const WARM_TICKS: u64 = 12;
const COUNTED_TICKS: u64 = 16;

/// One tick: a sequenced state sync from every other stream (which half
/// alternates by tick), so every batch has the same size.
fn tick(t: u64) -> Vec<u8> {
    let mut batch = FrameBatch::new();
    for id in (0..STREAMS).filter(|id| (u64::from(*id) + t).is_multiple_of(2)) {
        let v = (t as f64 * 0.1 + f64::from(id)).sin();
        let msg = SyncMessage::State {
            x: Vector::from_slice(&[v]),
            p: Matrix::scalar(1, 0.5),
        };
        let wire = WireMessage::Sync {
            seq: Some(t + 1),
            msg,
        };
        batch.push_raw(id, &wire.encode());
    }
    batch.as_bytes().to_vec()
}

#[test]
fn durable_ticks_without_a_snapshot_do_not_allocate() {
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
    let dir = std::env::temp_dir().join(format!("kalstream-durable-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DurableStore::open(&dir).expect("open store");
    let pipe = IngestPipeline::start(SHARDS, servers);
    let mut durable = DurableIngest::new(pipe, store, SNAPSHOT_EVERY).expect("genesis");

    let apply = |durable: &mut DurableIngest<IngestPipeline>, wire: &[u8]| {
        durable.try_ingest_tick(wire).expect("tick");
        durable.inner_mut().flush();
    };
    for wire in &ticks[..WARM_TICKS as usize] {
        apply(&mut durable, wire);
    }
    let mut counted = 0;
    for wire in &ticks[WARM_TICKS as usize..] {
        let snapshot_tick = (durable.ticks_applied() + 1).is_multiple_of(SNAPSHOT_EVERY);
        let (allocs, ()) = alloc_count::count_allocs(|| apply(&mut durable, wire));
        if !snapshot_tick {
            assert_eq!(
                allocs,
                0,
                "tick {} (no snapshot) allocated",
                durable.ticks_applied()
            );
            counted += 1;
        }
    }
    assert_eq!(counted, COUNTED_TICKS - COUNTED_TICKS / SNAPSHOT_EVERY);
    let (pipe, store) = durable.into_parts();
    assert_eq!(
        store.stats().snapshots_written.get(),
        1 + (WARM_TICKS + COUNTED_TICKS) / SNAPSHOT_EVERY
    );
    assert_eq!(
        pipe.finish().total_messages(),
        (WARM_TICKS + COUNTED_TICKS) * u64::from(STREAMS) / 2
    );
    std::fs::remove_dir_all(&dir).expect("remove store");
}
