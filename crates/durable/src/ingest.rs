//! [`DurableIngest`]: the durability discipline wrapped around any
//! ingester — WAL-append before apply, periodic snapshot barriers.
//!
//! Generic over [`TickIngest`] + [`SnapshotSource`], so the same wrapper
//! drives the sequential reference and the sharded pipeline identically —
//! which is exactly what the crash-recovery
//! proptests exploit: kill a durable *pipeline*, recover, and compare
//! against an uncrashed *sequential* run bit for bit.

use std::io;

use kalstream_core::{
    ResizableIngest, ResizeTransition, ShardAssignment, SnapshotSource, TickIngest,
};

use crate::store::DurableStore;

/// An ingester whose state survives process death. Every tick is appended
/// to the WAL before it is applied; every `snapshot_every` ticks the
/// fleet's state is captured at the barrier and written atomically.
pub struct DurableIngest<I: TickIngest + SnapshotSource> {
    inner: I,
    store: DurableStore,
    snapshot_every: u64,
    ticks_applied: u64,
    /// Snapshot records, reused from one barrier to the next.
    records: Vec<u8>,
}

impl<I: TickIngest + SnapshotSource> DurableIngest<I> {
    /// Wraps a fresh ingester: writes the genesis snapshot (tick 0) so
    /// recovery always has a barrier to start from, even before the first
    /// cadence snapshot.
    ///
    /// # Errors
    /// Propagates store I/O errors.
    pub fn new(inner: I, store: DurableStore, snapshot_every: u64) -> io::Result<Self> {
        DurableIngest::resume(inner, store, snapshot_every, 0)
    }

    /// Wraps an ingester that has already applied `ticks_applied` ticks
    /// (a recovered one, after WAL replay). Writes a compaction snapshot
    /// at the resume barrier — recovery work done once should not be paid
    /// again by the *next* crash.
    ///
    /// # Errors
    /// Propagates store I/O errors.
    pub fn resume(
        inner: I,
        store: DurableStore,
        snapshot_every: u64,
        ticks_applied: u64,
    ) -> io::Result<Self> {
        assert!(snapshot_every >= 1, "snapshot cadence must be at least 1");
        let mut durable = DurableIngest {
            inner,
            store,
            snapshot_every,
            ticks_applied,
            records: Vec::new(),
        };
        durable.checkpoint()?;
        Ok(durable)
    }

    /// Appends the tick to the WAL, applies it, and snapshots when the
    /// cadence comes due.
    ///
    /// # Errors
    /// Propagates store I/O errors (the tick is **not** applied when the
    /// WAL append fails — durability before visibility).
    pub fn try_ingest_tick(&mut self, wire: &[u8]) -> io::Result<()> {
        self.store.append_tick(self.ticks_applied, wire)?;
        self.inner.ingest_tick(wire);
        self.ticks_applied += 1;
        if self.ticks_applied.is_multiple_of(self.snapshot_every) {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Writes a snapshot at the current barrier regardless of cadence — a
    /// clean shutdown checkpoints so the next start replays nothing. The
    /// inner ingester encodes the records
    /// ([`SnapshotSource::snapshot_records`]); the store frames them.
    ///
    /// # Errors
    /// Propagates store I/O errors.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        self.records.clear();
        let count = self.inner.snapshot_records(&mut self.records);
        self.store
            .write_snapshot(self.ticks_applied, count, &self.records)
    }

    /// Ticks applied through this wrapper (including any pre-resume count).
    pub fn ticks_applied(&self) -> u64 {
        self.ticks_applied
    }

    /// Checkpoints at the resize barrier, then moves the inner ingester to
    /// `to` — the *shape-change checkpoint reuse* that makes elastic
    /// resizing safe: snapshots are pipeline-shape-independent (sorted
    /// `(stream_id, state)` pairs), so the checkpoint written here recovers
    /// into **any** shard count. A crash at any point around the resize
    /// replays from this barrier (or an earlier one) into the post-resize
    /// shape with zero extra machinery.
    ///
    /// # Errors
    /// Propagates store I/O errors; on error the resize is not executed.
    pub fn try_reassign(&mut self, to: ShardAssignment) -> io::Result<ResizeTransition>
    where
        I: ResizableIngest,
    {
        self.checkpoint()?;
        Ok(self.inner.reassign(to))
    }

    /// The wrapped store (stats, directory).
    pub fn store(&self) -> &DurableStore {
        &self.store
    }

    /// Unwraps into the inner ingester and the store.
    pub fn into_parts(self) -> (I, DurableStore) {
        (self.inner, self.store)
    }

    /// The inner ingester.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Mutable access to the inner ingester (snapshot hooks, feedback).
    pub fn inner_mut(&mut self) -> &mut I {
        &mut self.inner
    }
}

impl<I: TickIngest + SnapshotSource> TickIngest for DurableIngest<I> {
    /// [`TickIngest`] is infallible by contract; a store I/O error here is
    /// an environment failure (disk gone), not a protocol condition, so it
    /// panics like the pipeline does when a shard worker dies.
    fn ingest_tick(&mut self, wire: &[u8]) {
        self.try_ingest_tick(wire)
            .expect("durable store append failed");
    }
}

impl<I: TickIngest + SnapshotSource> SnapshotSource for DurableIngest<I> {
    fn snapshot_states(&mut self) -> Vec<(u32, kalstream_core::EndpointState)> {
        self.inner.snapshot_states()
    }

    fn snapshot_records(&mut self, out: &mut Vec<u8>) -> u32 {
        self.inner.snapshot_records(out)
    }
}

impl<I: TickIngest + SnapshotSource + ResizableIngest> ResizableIngest for DurableIngest<I> {
    fn assignment(&self) -> ShardAssignment {
        self.inner.assignment()
    }

    /// Like [`TickIngest::ingest_tick`], infallible by contract: a store
    /// I/O error while writing the resize-barrier checkpoint is an
    /// environment failure and panics. Use
    /// [`DurableIngest::try_reassign`] to handle it instead.
    fn reassign(&mut self, to: ShardAssignment) -> ResizeTransition {
        self.try_reassign(to)
            .expect("durable checkpoint failed at resize barrier")
    }

    fn queue_depths(&self) -> Vec<usize> {
        self.inner.queue_depths()
    }
}
