//! Sharded multi-stream ingest: per-shard worker threads draining framed
//! batches into server endpoints.
//!
//! The paper's server answers queries for *millions* of streams; after PR 1
//! made a single filter tick allocation-free, the bottleneck moved to the
//! server's ingest path, which drove one endpoint at a time from one
//! thread. This module multiplexes it:
//!
//! ```text
//!                 ┌── bounded channel ──▶ shard 0: {id % S == 0} endpoints
//!  tick batch ────┤── bounded channel ──▶ shard 1: {id % S == 1} endpoints
//!  (FrameBatch)   └── bounded channel ──▶ …          each owns its map
//!                        ◀──────────── recycled buffers ─────────────
//! ```
//!
//! Each worker **owns** its endpoints — no locks on the hot path, in the
//! spirit of share-nothing per-core stream engines — and steps them through
//! the fleet-batch engine (`crate::batch_ingest`): same-model streams share
//! structure-of-arrays lanes, and state syncs are parsed from the frame
//! bytes straight onto them.
//! Determinism falls out of three facts: the `stream_id % shards` route is
//! stable, each shard's channel is FIFO so a stream's ticks arrive in order,
//! and endpoints are independent so cross-endpoint interleaving cannot
//! change any filter's arithmetic. The sharded pipeline is therefore
//! bit-identical to [`SequentialIngest`] for any shard count — a property
//! the proptests and `bench_ingest` both enforce.
//!
//! Tick semantics match the simulator exactly: one [`IngestPipeline::ingest_tick`]
//! call advances **every** endpoint one predict step and applies that
//! tick's messages in arrival order — for each endpoint the operations of
//! [`ServerEndpoint::advance`] after enqueueing them, just like
//! [`kalstream_sim::Consumer::estimate`]. [`IngestPipeline::flush`] is
//! the barrier that makes "all ticks sent so far are applied" observable.

use std::collections::HashMap;
use std::thread::JoinHandle;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use kalstream_obs::{Histogram, Instrument, Scope, SpanTimer};

use crate::batch_ingest::BatchShardEngine;
use crate::frame::{BufferPool, FrameBatch, FrameDecoder, DEFAULT_POOL_CAP};
use crate::server::{EndpointState, ServerEndpoint};

/// Per-shard job queue depth. Deep enough that the router can run ahead of
/// a momentarily slow shard, small enough to bound memory and exert
/// backpressure.
const QUEUE_DEPTH: usize = 64;

/// The stream→shard routing function, made explicit so a resize can change
/// it atomically at a tick barrier.
///
/// `salt == 0` is exactly the historical `stream_id % shards` route — every
/// pre-elastic pipeline uses it, and it stays byte-for-byte stable. A
/// non-zero salt mixes the id through SplitMix64 first, so a *rebalance*
/// (same shard count, new salt) genuinely reshuffles placement instead of
/// reproducing the old partition.
///
/// Routing never touches filter arithmetic: endpoints are independent and
/// each stream's ticks stay FIFO within whichever shard owns it, so *any*
/// assignment — and any sequence of reassignments at tick barriers — is
/// bit-identical to the sequential reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardAssignment {
    /// Number of shards routed across. Always ≥ 1.
    pub shards: usize,
    /// Hash salt; `0` selects the plain `id % shards` route.
    pub salt: u64,
}

impl ShardAssignment {
    /// The historical modulo route over `shards` shards.
    ///
    /// # Panics
    /// Panics when `shards` is 0.
    pub fn modulo(shards: usize) -> Self {
        assert!(shards > 0, "assignment needs at least one shard");
        ShardAssignment { shards, salt: 0 }
    }

    /// A salted-hash route: same shard count, different placement per salt.
    ///
    /// # Panics
    /// Panics when `shards` is 0.
    pub fn salted(shards: usize, salt: u64) -> Self {
        assert!(shards > 0, "assignment needs at least one shard");
        ShardAssignment { shards, salt }
    }

    /// Shard owning `stream_id` under this assignment.
    pub fn route(&self, stream_id: u32) -> usize {
        if self.salt == 0 {
            stream_id as usize % self.shards
        } else {
            (splitmix64(stream_id as u64 ^ self.salt) % self.shards as u64) as usize
        }
    }
}

/// SplitMix64 finalizer — a cheap, well-mixed 64-bit permutation (public
/// domain constants from Steele et al.), used to spread consecutive stream
/// ids across shards under salted assignments.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What one [`ResizableIngest::reassign`] did: the assignment it moved
/// from/to and how long ingest was stalled at the drain barrier.
#[derive(Debug, Clone, Copy)]
pub struct ResizeTransition {
    /// Assignment before the resize.
    pub from: ShardAssignment,
    /// Assignment after the resize.
    pub to: ShardAssignment,
    /// Wall-clock time the ingest path was quiesced (drain + respawn).
    /// Wall-clock, so reported in artifacts but never in deterministic
    /// experiment tables.
    pub stall: std::time::Duration,
}

enum ShardJob {
    /// One tick's frames for this shard (possibly empty — every endpoint
    /// still takes its predict step).
    Tick(BytesMut),
    /// Barrier: acknowledge once every prior job has been applied.
    Flush,
    /// Capture every endpoint's [`EndpointState`] and send it back. Because
    /// each worker drains its queue in order, the capture lands exactly at
    /// the tick boundary where the job was enqueued — the durability
    /// layer's snapshot barrier, without stopping the other shards.
    Snapshot(Sender<Vec<(u32, EndpointState)>>),
    /// Like `Snapshot`, but the shard encodes its endpoints' snapshot
    /// records (ascending id) and sends the bytes back — the shards encode
    /// in parallel, the router only merges bytes.
    Records(Sender<Vec<u8>>),
}

/// What one shard worker did, reported at [`IngestPipeline::finish`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Report index within the run: the shard index for a fixed-shape run,
    /// or the worker-lifetime index (retired generations first) after
    /// resizes.
    pub shard: usize,
    /// Endpoints owned by this shard.
    pub streams: usize,
    /// Ticks processed.
    pub ticks: u64,
    /// Messages decoded and enqueued to endpoints.
    pub messages: u64,
    /// Wire bytes drained (frame headers + bodies).
    pub bytes_in: u64,
    /// Frames or bodies that failed to decode.
    pub decode_failures: u64,
    /// Frames addressed to a stream this shard has never heard of.
    pub unknown_streams: u64,
    /// Sequenced syncs dropped as stale/duplicate across this shard's
    /// endpoints (the v3 delivery layer's gap/duplicate detection).
    pub stale_drops: u64,
    /// Seconds this shard's worker spent *on CPU* (decoding + advancing
    /// endpoints), excluding time blocked on its queue — per-thread CPU time
    /// from `/proc/thread-self/schedstat` where the kernel exposes it (wall
    /// clock inside jobs otherwise, which over-counts when workers are
    /// preempted). The maximum across shards is the pipeline's critical
    /// path: on a machine with one core per shard, wall time converges to
    /// it, so `total_messages / max(busy_secs)` is the capacity throughput
    /// `bench_ingest` reports next to measured wall-clock throughput.
    pub busy_secs: f64,
    /// Recycled-buffer hand-backs that failed because the router side of
    /// the recycle channel was already gone. Pre-fix this was a silent
    /// `let _ =`; a non-zero count during steady state means pooled buffers
    /// are being dropped (and re-allocated) instead of reused.
    pub recycle_drops: u64,
    /// Feedback payloads (acks, bound directives) polled off this shard's
    /// endpoints onto the feedback channel. Zero unless the pipeline was
    /// started with [`IngestPipeline::start_with_feedback`].
    pub feedback_out: u64,
    /// Feedback payloads dropped because the feedback receiver was already
    /// gone. Like `recycle_drops`, counted rather than swallowed: during a
    /// drain, a non-zero count here is lost acks/bounds, not clean teardown.
    pub feedback_drops: u64,
    /// Deepest this shard's job queue ever got, in jobs, *including* the
    /// one being processed. The aggregated number already existed implicitly
    /// (QUEUE_DEPTH bounds it); exporting it per shard is what lets the
    /// elastic controller — and a dashboard — see the imbalance a rebalance
    /// fixes rather than just "some shard was busy".
    pub queue_high_water: u64,
    /// Per-tick processing span (decode + endpoint advance) in log₂-
    /// bucketed nanoseconds. Wall-clock, so reported in snapshots but never
    /// folded into deterministic experiment tables.
    pub tick_ns: Histogram,
}

impl Instrument for ShardReport {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("streams", self.streams as u64);
        scope.counter("ticks", self.ticks);
        scope.counter("messages", self.messages);
        scope.counter("bytes_in", self.bytes_in);
        scope.counter("decode_failures", self.decode_failures);
        scope.counter("unknown_streams", self.unknown_streams);
        scope.counter("stale_drops", self.stale_drops);
        scope.counter("recycle_drops", self.recycle_drops);
        scope.counter("feedback_out", self.feedback_out);
        scope.counter("feedback_drops", self.feedback_drops);
        scope.gauge("busy_secs", self.busy_secs);
        scope.gauge("queue_high_water", self.queue_high_water as f64);
        scope.histogram("tick_ns", &self.tick_ns);
    }
}

struct ShardResult {
    report: ShardReport,
    endpoints: Vec<(u32, ServerEndpoint)>,
}

struct ShardHandle {
    tx: Sender<ShardJob>,
    ack_rx: Receiver<()>,
    handle: JoinHandle<ShardResult>,
}

/// Aggregate outcome of an ingest run.
#[derive(Debug)]
pub struct IngestResult {
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
    /// Every endpoint, sorted by stream id — the state a caller compares
    /// bit-for-bit against the sequential reference.
    pub endpoints: Vec<(u32, ServerEndpoint)>,
}

impl IngestResult {
    /// Total messages applied across shards.
    pub fn total_messages(&self) -> u64 {
        self.shards.iter().map(|s| s.messages).sum()
    }

    /// Total wire bytes drained across shards.
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes_in).sum()
    }

    /// Total decode failures across shards.
    pub fn total_decode_failures(&self) -> u64 {
        self.shards.iter().map(|s| s.decode_failures).sum()
    }
}

impl Instrument for IngestResult {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("messages", self.total_messages());
        scope.counter("bytes_in", self.total_bytes());
        scope.counter("decode_failures", self.total_decode_failures());
        for shard in &self.shards {
            scope.observe(&format!("shard.{}", shard.shard), shard);
        }
    }
}

/// The sharded ingest pipeline: spawns one worker thread per shard, routes
/// framed tick batches to them, and joins them back into an [`IngestResult`].
pub struct IngestPipeline {
    shards: Vec<ShardHandle>,
    batches: Vec<FrameBatch>,
    pool: BufferPool,
    recycle_rx: Receiver<BytesMut>,
    /// Kept so [`IngestPipeline::reassign`] can hand fresh worker
    /// generations the same recycle channel the buffer pool drains.
    recycle_tx: Sender<BytesMut>,
    /// The live stream→shard route, shared by the router and worker spawn.
    assignment: ShardAssignment,
    /// Feedback channel handed to every worker generation, when enabled.
    feedback: Option<Sender<(u32, Bytes)>>,
    /// Reports from worker generations retired by earlier resizes; folded
    /// into the final [`IngestResult`] so totals stay comparable to the
    /// sequential reference across any resize history.
    retired: Vec<ShardReport>,
    router: FrameDecoder,
    /// Buffers minted so far. Capped at [`IngestPipeline::buffer_cap`]: once
    /// the population covers every queue slot plus in-progress batches, the
    /// router *waits* for a recycled buffer instead of minting a fresh
    /// (zero-capacity) one. That both bounds pipeline memory and lets every
    /// buffer in rotation reach the workload's high-water capacity — the
    /// property that makes steady-state ticks allocation-free.
    outstanding: usize,
    /// Largest batch (wire bytes) sent to any shard so far. A new
    /// high-water tick grows the idle pool at once, and buffers in flight
    /// grow as they return, so every buffer handed out already fits it:
    /// no straggler pays a growth realloc arbitrarily late, however deep
    /// into the pool a busy tick reaches.
    high_water: usize,
    /// `(batched, scalar)` stream counts at the last worker spawn.
    coverage: (usize, usize),
}

impl IngestPipeline {
    /// Spawns `shards` workers and distributes `endpoints` among them by
    /// `stream_id % shards`.
    ///
    /// # Panics
    /// Panics when `shards` is 0.
    pub fn start(shards: usize, endpoints: Vec<(u32, ServerEndpoint)>) -> Self {
        IngestPipeline::start_inner(ShardAssignment::modulo(shards), endpoints, None)
    }

    /// Like [`IngestPipeline::start`], but each shard also polls its
    /// endpoints' feedback (acks, bound directives) after every tick and
    /// ships `(stream_id, payload)` pairs out the returned channel — the
    /// hook a network server uses to route acks back to source connections.
    /// Only streams with feedback due are polled.
    ///
    /// Ordering: within one stream, feedback arrives in poll order (acks
    /// before bounds, per [`ServerEndpoint`]'s contract); across streams of
    /// one shard, ascending stream id per tick; across shards, unordered
    /// (streams never span shards, so no consumer can observe it). The
    /// channel is unbounded so a slow drain can never deadlock the flush
    /// barrier; [`IngestPipeline::flush`] guarantees all feedback for
    /// flushed ticks is in the channel when it returns.
    ///
    /// The third argument is ignored — every shard runs the fleet-batch
    /// engine — and is kept so existing callers compile unchanged.
    ///
    /// # Panics
    /// Panics when `shards` is 0.
    pub fn start_with_feedback(
        shards: usize,
        endpoints: Vec<(u32, ServerEndpoint)>,
        _batched: bool,
    ) -> (Self, Receiver<(u32, Bytes)>) {
        let (tx, rx) = unbounded();
        let pipe =
            IngestPipeline::start_inner(ShardAssignment::modulo(shards), endpoints, Some(tx));
        (pipe, rx)
    }

    /// Spawns a pipeline in an exact [`ShardAssignment`] — shard count *and*
    /// placement salt. This is how a restarted process re-enters the shape
    /// an elastic run resized into: recovery hands it the assignment the
    /// crashed run last held, and routing resumes byte-for-byte.
    ///
    /// # Panics
    /// Panics when `assignment.shards` is 0.
    pub fn start_assigned(
        assignment: ShardAssignment,
        endpoints: Vec<(u32, ServerEndpoint)>,
    ) -> Self {
        IngestPipeline::start_inner(assignment, endpoints, None)
    }

    fn start_inner(
        assignment: ShardAssignment,
        endpoints: Vec<(u32, ServerEndpoint)>,
        feedback: Option<Sender<(u32, Bytes)>>,
    ) -> Self {
        let shards = assignment.shards;
        assert!(shards > 0, "ingest needs at least one shard");
        let (recycle_tx, recycle_rx) = unbounded();
        let (handles, coverage) = spawn_workers(assignment, endpoints, &feedback, &recycle_tx);
        let pipe = IngestPipeline {
            shards: handles,
            batches: (0..shards).map(|_| FrameBatch::new()).collect(),
            pool: BufferPool::new(),
            recycle_rx,
            recycle_tx,
            assignment,
            feedback,
            retired: Vec::new(),
            router: FrameDecoder::new(),
            outstanding: 0,
            high_water: 0,
            coverage,
        };
        pipe.presize_recycle();
        pipe
    }

    /// `(batched, scalar)` stream counts across shards when the workers
    /// were last spawned: how many streams run on fleet-batch lanes, and
    /// how many step their own filter (shapes outside the batch table, the
    /// `Simple` covariance form).
    pub fn coverage(&self) -> (usize, usize) {
        self.coverage
    }

    /// Maximum buffers in circulation. Deliberately small — a few ticks of
    /// run-ahead per shard: a small population circulates every buffer
    /// constantly, so all of them reach the workload's high-water capacity
    /// almost immediately and stay there (a large population leaves
    /// undersized stragglers parked in queues that surface — and pay a
    /// growth realloc — arbitrarily late).
    fn buffer_cap(&self) -> usize {
        self.shards.len() * 4
    }

    /// A cleared buffer for the next batch: pooled if available, freshly
    /// minted while under the population cap, otherwise recycled — blocking
    /// until a worker hands one back (bounded, since workers recycle every
    /// tick buffer once its frames are applied). Returning buffers are
    /// grown to the high-water size on arrival, so the pool never holds an
    /// undersized straggler for a later, busier tick to regrow.
    fn next_buffer(&mut self) -> BytesMut {
        self.drain_recycled();
        let mut buf = if !self.pool.is_empty() {
            self.pool.get()
        } else if self.outstanding < self.buffer_cap() {
            self.outstanding += 1;
            BytesMut::new()
        } else {
            let mut buf = self.recycle_rx.recv().expect("ingest shard worker died");
            buf.clear();
            buf
        };
        buf.reserve(self.high_water);
        buf
    }

    /// Moves every buffer the shards have handed back into the pool, grown
    /// to the high-water size.
    fn drain_recycled(&mut self) {
        while let Ok(mut buf) = self.recycle_rx.try_recv() {
            buf.clear();
            buf.reserve(self.high_water);
            self.pool.put(buf);
        }
    }

    /// Grows the recycle queue's storage, which reallocates whenever the
    /// queue reaches a new depth, to hold every buffer the shards can hand
    /// back between two router drains: a full job queue plus the batch
    /// being applied, per shard, plus one. Without it a rare burst of
    /// returns allocates on the tick path. Call with the queue empty; the
    /// unallocated placeholders sent here are dropped at once.
    fn presize_recycle(&self) {
        let depth = self.shards.len() * (QUEUE_DEPTH + 1) + 1;
        for _ in 0..depth {
            self.recycle_tx
                .send(BytesMut::new())
                .expect("the pipeline holds the recycle receiver");
        }
        for _ in 0..depth {
            drop(self.recycle_rx.try_recv());
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The live stream→shard assignment.
    pub fn assignment(&self) -> ShardAssignment {
        self.assignment
    }

    /// Jobs currently queued per shard (the job being processed excluded) —
    /// the instantaneous imbalance signal the elastic controller's
    /// rebalancer reads. Snapshot semantics: values can be stale by the time
    /// the caller looks at them.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shards.iter().map(|shard| shard.tx.len()).collect()
    }

    /// Changes the shard count, keeping the current salt — the controller's
    /// grow/shrink primitive. See [`IngestPipeline::reassign`].
    ///
    /// # Panics
    /// Panics when `shards` is 0 or a worker panicked.
    pub fn resize(&mut self, shards: usize) -> ResizeTransition {
        assert!(shards > 0, "ingest needs at least one shard");
        self.reassign(ShardAssignment {
            shards,
            salt: self.assignment.salt,
        })
    }

    /// Moves the pipeline to a new stream→shard assignment at a drain
    /// barrier: closes every shard's queue (each worker applies all
    /// in-flight ticks, then hands back its endpoints — the quiesce point),
    /// regroups the endpoints under `to`, and restarts workers. Retired
    /// workers' reports are folded into the final [`IngestResult`], so
    /// totals stay comparable to the sequential reference across any resize
    /// history.
    ///
    /// Bit-identity is preserved by construction: reassignment happens at a
    /// tick boundary, every stream's ticks stay FIFO within whichever shard
    /// owns it, and endpoints are independent — so no filter's arithmetic
    /// can observe the move. A same-assignment call is a no-op.
    ///
    /// # Panics
    /// Panics when a worker panicked.
    pub fn reassign(&mut self, to: ShardAssignment) -> ResizeTransition {
        let from = self.assignment;
        if to == from {
            return ResizeTransition {
                from,
                to,
                stall: std::time::Duration::ZERO,
            };
        }
        let start = std::time::Instant::now();
        let mut endpoints = Vec::new();
        for shard in self.shards.drain(..) {
            drop(shard.tx); // closes the queue; the worker drains, then exits
            let result = shard.handle.join().expect("ingest shard worker panicked");
            self.retired.push(result.report);
            endpoints.extend(result.endpoints);
        }
        endpoints.sort_by_key(|(id, _)| *id);
        self.drain_recycled();
        let (handles, coverage) = spawn_workers(to, endpoints, &self.feedback, &self.recycle_tx);
        self.shards = handles;
        self.coverage = coverage;
        self.assignment = to;
        self.presize_recycle();
        // Match the router-side batch set to the new shard count. Shrinks
        // park the spare buffers in the pool (they keep their high-water
        // capacity); grows start empty like at pipeline start.
        while self.batches.len() > to.shards {
            let batch = self.batches.pop().expect("length checked above");
            self.pool.put(batch.into_buffer());
        }
        while self.batches.len() < to.shards {
            self.batches.push(FrameBatch::new());
        }
        ResizeTransition {
            from,
            to,
            stall: start.elapsed(),
        }
    }

    /// Frames whose *headers* were malformed at the router (body failures
    /// are counted by the shard that owned the frame).
    pub fn router_decode_failures(&self) -> u64 {
        self.router.decode_failures()
    }

    /// Routes one tick's framed traffic to the shards and advances every
    /// endpoint one tick. `wire` is a batch as assembled by
    /// [`FrameBatch`]; it may be empty (a quiet tick still predicts).
    ///
    /// Returns after *enqueueing* — shards apply asynchronously; call
    /// [`IngestPipeline::flush`] when "applied" must be observable.
    pub fn ingest_tick(&mut self, wire: &[u8]) {
        let shards = self.shards.len();
        let batches = &mut self.batches;
        let assignment = self.assignment;
        self.router.for_each_frame(wire, |frame| {
            batches[assignment.route(frame.stream_id)].push_raw(frame.stream_id, frame.body);
        });
        let tick_max = self.batches.iter().map(FrameBatch::wire_len).max();
        if let Some(tick_max) = tick_max.filter(|&len| len > self.high_water) {
            // A new high-water tick: mint the rest of the buffer population
            // and grow every idle buffer now, before any fresh batch is
            // handed out. How many buffers are in flight at once depends on
            // shard speed; this way no later tick, however busy, mints or
            // regrows one.
            self.high_water = tick_max;
            while self.outstanding < self.buffer_cap() && self.pool.len() < DEFAULT_POOL_CAP {
                self.outstanding += 1;
                self.pool.put(BytesMut::new());
            }
            self.pool.reserve_each(tick_max);
        }
        for shard in 0..shards {
            let fresh = FrameBatch::from_buffer(self.next_buffer());
            let batch = std::mem::replace(&mut self.batches[shard], fresh);
            self.shards[shard]
                .tx
                .send(ShardJob::Tick(batch.into_buffer()))
                .expect("ingest shard worker died");
        }
    }

    /// Barrier: blocks until every shard has applied all previously
    /// ingested ticks.
    pub fn flush(&mut self) {
        for shard in &self.shards {
            shard
                .tx
                .send(ShardJob::Flush)
                .expect("ingest shard worker died");
        }
        for shard in &self.shards {
            shard.ack_rx.recv().expect("ingest shard worker died");
        }
    }

    /// Captures every endpoint's [`EndpointState`] at the current tick
    /// boundary, sorted by stream id — the durability layer's snapshot
    /// hook. The snapshot job rides each shard's ordered queue, so the
    /// capture observes exactly the ticks ingested before this call and
    /// none after; the call blocks until every shard has replied (it is a
    /// flush barrier as a side effect). Each shard replies in id order and
    /// the router merges the runs.
    pub fn snapshot_states(&mut self) -> Vec<(u32, EndpointState)> {
        let runs = self.ask_shards(ShardJob::Snapshot);
        let mut states = Vec::new();
        merge_by_id(runs.into_iter().map(Vec::into_iter), |id, state| {
            states.push((id, state))
        });
        states
    }

    /// Appends every endpoint's snapshot record to `out`, ascending by
    /// stream id, and returns how many — the same barrier as
    /// [`IngestPipeline::snapshot_states`] and the same bytes as encoding
    /// its states, but each shard encodes its own records in parallel,
    /// reading lane state directly, and the router k-way merges the shard
    /// buffers.
    pub fn snapshot_records(&mut self, out: &mut Vec<u8>) -> u32 {
        let runs = self.ask_shards(ShardJob::Records);
        let mut count = 0;
        merge_by_id(runs.iter().map(|buf| records(buf)), |_, record| {
            out.extend_from_slice(record);
            count += 1;
        });
        count
    }

    /// Sends `job` to every shard's ordered queue and collects the replies
    /// in shard order — a barrier at the current tick boundary.
    fn ask_shards<T>(&self, job: fn(Sender<T>) -> ShardJob) -> Vec<T> {
        let replies: Vec<Receiver<T>> = self
            .shards
            .iter()
            .map(|shard| {
                let (tx, rx) = bounded(1);
                shard.tx.send(job(tx)).expect("ingest shard worker died");
                rx
            })
            .collect();
        replies
            .iter()
            .map(|rx| rx.recv().expect("ingest shard worker died"))
            .collect()
    }

    /// Flushes, shuts the workers down, and collects their reports and
    /// endpoints (sorted by stream id). After resizes the result carries one
    /// report per worker *lifetime* — retired generations first, then the
    /// final one — renumbered sequentially so scoped metric names stay
    /// unique.
    pub fn finish(mut self) -> IngestResult {
        self.flush();
        let mut reports = std::mem::take(&mut self.retired);
        let mut endpoints = Vec::new();
        for shard in self.shards.drain(..) {
            drop(shard.tx); // closes the channel; the worker's recv loop ends
            let result = shard.handle.join().expect("ingest shard worker panicked");
            reports.push(result.report);
            endpoints.extend(result.endpoints);
        }
        for (i, report) in reports.iter_mut().enumerate() {
            report.shard = i;
        }
        endpoints.sort_by_key(|(id, _)| *id);
        IngestResult {
            shards: reports,
            endpoints,
        }
    }
}

/// Groups `endpoints` under `assignment` and spawns one worker per shard.
/// Shared by pipeline start and [`IngestPipeline::reassign`] so both
/// generations are built by exactly the same code path. Returns the shard
/// handles and the batch-path coverage.
fn spawn_workers(
    assignment: ShardAssignment,
    endpoints: Vec<(u32, ServerEndpoint)>,
    feedback: &Option<Sender<(u32, Bytes)>>,
    recycle_tx: &Sender<BytesMut>,
) -> (Vec<ShardHandle>, (usize, usize)) {
    let mut groups: Vec<Vec<(u32, ServerEndpoint)>> =
        (0..assignment.shards).map(|_| Vec::new()).collect();
    for (id, ep) in endpoints {
        groups[assignment.route(id)].push((id, ep));
    }
    let mut coverage = (0, 0);
    let engines: Vec<BatchShardEngine> = groups
        .into_iter()
        .map(|group| {
            let engine = BatchShardEngine::new(group);
            let (b, s) = engine.coverage();
            coverage = (coverage.0 + b, coverage.1 + s);
            engine
        })
        .collect();
    let handles = engines
        .into_iter()
        .enumerate()
        .map(|(shard, engine)| {
            let (tx, rx) = bounded(QUEUE_DEPTH);
            let (ack_tx, ack_rx) = bounded(1);
            let recycle = recycle_tx.clone();
            let feedback = feedback.clone();
            let handle = std::thread::Builder::new()
                .name(format!("ingest-shard-{shard}"))
                .spawn(move || shard_worker(shard, rx, ack_tx, recycle, feedback, engine))
                .expect("failed to spawn shard worker");
            ShardHandle { tx, ack_rx, handle }
        })
        .collect();
    (handles, coverage)
}

/// K-way merges runs that are each ascending by stream id (shards own
/// disjoint ids), handing every item to `emit` in ascending id order.
fn merge_by_id<T, R: Iterator<Item = (u32, T)>>(
    runs: impl Iterator<Item = R>,
    mut emit: impl FnMut(u32, T),
) {
    let mut runs: Vec<R> = runs.collect();
    let mut heads: Vec<Option<(u32, T)>> = runs.iter_mut().map(Iterator::next).collect();
    while let Some((_, i)) = heads
        .iter()
        .enumerate()
        .filter_map(|(i, head)| Some((head.as_ref()?.0, i)))
        .min()
    {
        let next = runs[i].next();
        let (id, item) = std::mem::replace(&mut heads[i], next).expect("picked a live head");
        emit(id, item);
    }
}

/// Splits a buffer of well-formed snapshot records (`id | len | body`, as
/// a shard encodes them) into `(id, whole record)` pairs.
fn records(mut buf: &[u8]) -> impl Iterator<Item = (u32, &[u8])> {
    std::iter::from_fn(move || {
        let header = buf.get(..8)?;
        let id = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
        let (record, rest) = buf.split_at(8 + len);
        buf = rest;
        Some((id, record))
    })
}

/// On-CPU nanoseconds of the calling thread so far — field 1 of
/// `/proc/thread-self/schedstat` — when the kernel exposes it. Unlike wall
/// clock, this excludes time the thread was preempted or blocked, which is
/// what makes per-shard busy time meaningful on machines with fewer cores
/// than shards.
fn thread_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

fn shard_worker(
    shard: usize,
    rx: Receiver<ShardJob>,
    ack_tx: Sender<()>,
    recycle: Sender<BytesMut>,
    feedback: Option<Sender<(u32, Bytes)>>,
    mut engine: BatchShardEngine,
) -> ShardResult {
    let mut decoder = FrameDecoder::new();
    let streams = engine.len();
    let mut ticks = 0u64;
    let mut messages = 0u64;
    let mut bytes_in = 0u64;
    let mut unknown_streams = 0u64;
    let mut recycle_drops = 0u64;
    let mut feedback_out = 0u64;
    let mut feedback_drops = 0u64;
    let mut tick_ns = Histogram::new();
    let mut queue_high_water = 0u64;
    let cpu_start = thread_cpu_ns();
    let mut busy = std::time::Duration::ZERO;
    while let Ok(job) = rx.recv() {
        // Depth including the job just taken: what the router saw stacked
        // against this shard when it was deepest.
        queue_high_water = queue_high_water.max(rx.len() as u64 + 1);
        match job {
            ShardJob::Tick(buf) => {
                let span = SpanTimer::start();
                bytes_in += buf.len() as u64;
                let counts = engine.ingest_tick(&mut decoder, &buf);
                messages += counts.messages;
                unknown_streams += counts.unknown_streams;
                // Frames borrowed the buffer until here. A failed hand-back
                // (router gone) must be counted, not swallowed: in steady
                // state it means the pool is leaking capacity.
                if recycle.send(buf).is_err() {
                    recycle_drops += 1;
                }
                match &feedback {
                    Some(tx) => engine.poll_feedback(ticks, |id, payload| {
                        // A closed receiver during drain is lost feedback —
                        // count it, never `let _` it away.
                        match tx.send((id, payload)) {
                            Ok(()) => feedback_out += 1,
                            Err(_) => feedback_drops += 1,
                        }
                    }),
                    None => engine.forget_feedback(),
                }
                ticks += 1;
                busy += std::time::Duration::from_nanos(span.stop(&mut tick_ns));
            }
            ShardJob::Flush => {
                ack_tx
                    .send(())
                    .expect("ingest pipeline dropped its ack receiver");
            }
            ShardJob::Snapshot(reply) => {
                reply
                    .send(engine.snapshot_states())
                    .expect("ingest pipeline dropped its snapshot receiver");
            }
            ShardJob::Records(reply) => {
                reply
                    .send(engine.snapshot_records())
                    .expect("ingest pipeline dropped its snapshot receiver");
            }
        }
    }
    let busy_secs = match (cpu_start, thread_cpu_ns()) {
        (Some(start), Some(end)) => (end - start) as f64 / 1e9,
        _ => busy.as_secs_f64(),
    };
    let endpoints = engine.finish();
    let stale_drops = endpoints
        .iter()
        .map(|(_, ep)| ep.delivery().stale_drops)
        .sum();
    ShardResult {
        report: ShardReport {
            shard,
            streams,
            ticks,
            messages,
            bytes_in,
            decode_failures: decoder.decode_failures(),
            unknown_streams,
            stale_drops,
            busy_secs,
            recycle_drops,
            feedback_out,
            feedback_drops,
            queue_high_water,
            tick_ns,
        },
        endpoints,
    }
}

/// The single-threaded reference: identical tick semantics to
/// [`IngestPipeline`], applied inline on the caller's thread. The sharded
/// pipeline must match this bit for bit — `bench_ingest` exits non-zero if
/// it ever doesn't.
pub struct SequentialIngest {
    endpoints: Vec<(u32, ServerEndpoint)>,
    index: HashMap<u32, usize>,
    decoder: FrameDecoder,
    ticks: u64,
    messages: u64,
    bytes_in: u64,
    unknown_streams: u64,
    busy: std::time::Duration,
    tick_ns: Histogram,
}

impl SequentialIngest {
    /// Builds the reference ingester over `endpoints`.
    pub fn new(mut endpoints: Vec<(u32, ServerEndpoint)>) -> Self {
        endpoints.sort_by_key(|(id, _)| *id);
        let index = endpoints
            .iter()
            .enumerate()
            .map(|(i, (id, _))| (*id, i))
            .collect();
        SequentialIngest {
            endpoints,
            index,
            decoder: FrameDecoder::new(),
            ticks: 0,
            messages: 0,
            bytes_in: 0,
            unknown_streams: 0,
            busy: std::time::Duration::ZERO,
            tick_ns: Histogram::new(),
        }
    }

    /// Drains one tick's batch and advances every endpoint, synchronously.
    pub fn ingest_tick(&mut self, wire: &[u8]) {
        let span = SpanTimer::start();
        self.bytes_in += wire.len() as u64;
        let endpoints = &mut self.endpoints;
        let index = &self.index;
        let messages = &mut self.messages;
        let unknown = &mut self.unknown_streams;
        self.decoder
            .for_each_wire_message(wire, |id, msg| match index.get(&id) {
                Some(&i) => {
                    endpoints[i].1.enqueue_wire(msg);
                    *messages += 1;
                }
                None => *unknown += 1,
            });
        for (_, ep) in self.endpoints.iter_mut() {
            ep.advance();
        }
        self.ticks += 1;
        self.busy += std::time::Duration::from_nanos(span.stop(&mut self.tick_ns));
    }

    /// Captures every endpoint's [`EndpointState`], sorted by stream id —
    /// trivially a barrier, since this ingester applies ticks inline.
    pub fn snapshot_states(&self) -> Vec<(u32, EndpointState)> {
        self.endpoints
            .iter()
            .map(|(id, ep)| (*id, ep.state()))
            .collect()
    }

    /// Collects the run into the same shape as the sharded pipeline
    /// (one pseudo-shard).
    pub fn finish(self) -> IngestResult {
        let stale_drops = self
            .endpoints
            .iter()
            .map(|(_, ep)| ep.delivery().stale_drops)
            .sum();
        IngestResult {
            shards: vec![ShardReport {
                shard: 0,
                streams: self.endpoints.len(),
                ticks: self.ticks,
                messages: self.messages,
                bytes_in: self.bytes_in,
                decode_failures: self.decoder.decode_failures(),
                unknown_streams: self.unknown_streams,
                stale_drops,
                busy_secs: self.busy.as_secs_f64(),
                recycle_drops: 0,
                feedback_out: 0,
                feedback_drops: 0,
                queue_high_water: 0,
                tick_ns: self.tick_ns,
            }],
            endpoints: self.endpoints,
        }
    }
}

/// Anything that can drain one tick's framed batch — implemented by both
/// the sharded pipeline and the sequential reference so callers (the sim
/// bridge, `bench_ingest`) can swap them behind one shape.
pub trait TickIngest {
    /// Drains one tick's batch and advances every endpoint one tick.
    fn ingest_tick(&mut self, wire: &[u8]);
}

impl TickIngest for IngestPipeline {
    fn ingest_tick(&mut self, wire: &[u8]) {
        IngestPipeline::ingest_tick(self, wire);
    }
}

impl TickIngest for SequentialIngest {
    fn ingest_tick(&mut self, wire: &[u8]) {
        SequentialIngest::ingest_tick(self, wire);
    }
}

/// Anything whose endpoint fleet can be captured as plain
/// [`EndpointState`] values at a tick boundary — the hook the durability
/// layer snapshots through. Both ingesters implement it with identical
/// semantics: states sorted by stream id, observing exactly the ticks
/// ingested so far.
pub trait SnapshotSource {
    /// Captures every endpoint's state at the current tick boundary,
    /// sorted by stream id. For the sharded pipeline this is also a flush
    /// barrier.
    fn snapshot_states(&mut self) -> Vec<(u32, EndpointState)>;

    /// Appends every endpoint's snapshot record (`id | len | body`, see
    /// [`EndpointState::encode_record`]) to `out` in ascending id order at
    /// the current tick boundary, and returns how many — the body of a
    /// durability snapshot. The provided method encodes
    /// [`SnapshotSource::snapshot_states`]; implementations may encode
    /// straight from live state, but must write the same bytes.
    fn snapshot_records(&mut self, out: &mut Vec<u8>) -> u32 {
        let states = self.snapshot_states();
        for (id, state) in &states {
            state.encode_record(*id, out);
        }
        states.len() as u32
    }
}

impl SnapshotSource for IngestPipeline {
    fn snapshot_states(&mut self) -> Vec<(u32, EndpointState)> {
        IngestPipeline::snapshot_states(self)
    }

    fn snapshot_records(&mut self, out: &mut Vec<u8>) -> u32 {
        IngestPipeline::snapshot_records(self, out)
    }
}

impl SnapshotSource for SequentialIngest {
    fn snapshot_states(&mut self) -> Vec<(u32, EndpointState)> {
        SequentialIngest::snapshot_states(self)
    }
}

/// Anything whose stream→shard assignment can be changed at a tick barrier
/// — the hook the elastic controller resizes through. Implementations must
/// guarantee the move is invisible to filter arithmetic: after any sequence
/// of `reassign` calls, final endpoint state is bit-identical to a run that
/// never resized.
pub trait ResizableIngest: TickIngest {
    /// The live stream→shard assignment.
    fn assignment(&self) -> ShardAssignment;

    /// Quiesces at a tick barrier and moves to `to`. Returns what actually
    /// happened — implementations that cannot resize (the sequential
    /// reference) report an unchanged assignment.
    fn reassign(&mut self, to: ShardAssignment) -> ResizeTransition;

    /// Live per-shard job-queue depths, when the implementation has worker
    /// queues to measure — the controller's timing-dependent pressure
    /// signal. Empty for inline ingesters. Snapshot semantics.
    fn queue_depths(&self) -> Vec<usize> {
        Vec::new()
    }
}

impl ResizableIngest for IngestPipeline {
    fn assignment(&self) -> ShardAssignment {
        IngestPipeline::assignment(self)
    }

    fn reassign(&mut self, to: ShardAssignment) -> ResizeTransition {
        IngestPipeline::reassign(self, to)
    }

    fn queue_depths(&self) -> Vec<usize> {
        IngestPipeline::queue_depths(self)
    }
}

impl ResizableIngest for SequentialIngest {
    fn assignment(&self) -> ShardAssignment {
        ShardAssignment::modulo(1)
    }

    /// The sequential reference has no workers to restart; reassigning it
    /// is a no-op that stays at one pseudo-shard.
    fn reassign(&mut self, _to: ShardAssignment) -> ResizeTransition {
        let unchanged = ShardAssignment::modulo(1);
        ResizeTransition {
            from: unchanged,
            to: unchanged,
            stall: std::time::Duration::ZERO,
        }
    }
}

/// Bridges the simulator's ingest mode ([`kalstream_sim::IngestSink`]) onto
/// a framed ingester: pushes accumulate into a pooled [`FrameBatch`]; the
/// end-of-tick hook drains the batch into the wrapped ingester.
pub struct FramingSink<I: TickIngest> {
    batch: FrameBatch,
    inner: I,
}

impl<I: TickIngest> FramingSink<I> {
    /// Wraps an ingester.
    pub fn new(inner: I) -> Self {
        FramingSink {
            batch: FrameBatch::new(),
            inner,
        }
    }

    /// Unwraps the ingester (to call its `finish`).
    pub fn into_inner(self) -> I {
        self.inner
    }
}

impl<I: TickIngest> kalstream_sim::IngestSink for FramingSink<I> {
    fn push(&mut self, stream_id: u32, payload: &bytes::Bytes) {
        self.batch.push_raw(stream_id, payload);
    }

    fn end_tick(&mut self) {
        self.inner.ingest_tick(self.batch.as_bytes());
        self.batch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBatch;
    use crate::wire::SyncMessage;
    use crate::{ProtocolConfig, SessionSpec, StreamSession};
    use kalstream_sim::Producer;

    /// Builds `n` scalar sessions and a recorded framed log of `ticks`
    /// ticks driven by deterministic per-stream sinusoids.
    fn record_log(n: u32, ticks: usize) -> (Vec<(u32, ServerEndpoint)>, Vec<Vec<u8>>) {
        let mut sources = Vec::new();
        let mut servers = Vec::new();
        for id in 0..n {
            let config = ProtocolConfig::new(0.25).unwrap();
            let StreamSession { source, server } =
                SessionSpec::default_scalar(0.0, config).unwrap().build();
            sources.push((id, source));
            servers.push((id, server));
        }
        let mut log = Vec::with_capacity(ticks);
        for t in 0..ticks {
            let mut batch = FrameBatch::new();
            for (id, source) in sources.iter_mut() {
                let v = (t as f64 * 0.1 + *id as f64).sin() * (1.0 + *id as f64 * 0.01);
                if let Some(payload) = source.observe(t as u64, &[v]) {
                    batch.push_raw(*id, &payload);
                }
            }
            log.push(batch.as_bytes().to_vec());
        }
        (servers, log)
    }

    /// Switches endpoints to the `Simple` covariance form, which has no
    /// batch kernel: the engine keeps them on their own filters. Ingest
    /// equivalence does not depend on the form, so tests use it to cover
    /// the scalar route with the same traffic.
    fn scalar_route(servers: &mut [(u32, ServerEndpoint)]) {
        for (_, ep) in servers.iter_mut() {
            ep.filter_mut()
                .set_covariance_update(kalstream_filter::CovarianceUpdate::Simple);
        }
    }

    fn filter_bits(ep: &ServerEndpoint) -> Vec<u64> {
        let f = ep.filter();
        f.state()
            .iter()
            .map(|v| v.to_bits())
            .chain(f.covariance().as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn failed_recycle_handback_is_counted_not_swallowed() {
        // Pre-fix, a dead recycle channel made `let _ = recycle.send(buf)`
        // silently drop every pooled buffer; the worker must count it.
        let (tx, rx) = bounded(4);
        let (ack_tx, _ack_rx) = unbounded();
        let (recycle_tx, recycle_rx) = unbounded();
        drop(recycle_rx); // router gone: every hand-back fails
        tx.send(ShardJob::Tick(BytesMut::new())).unwrap();
        tx.send(ShardJob::Tick(BytesMut::new())).unwrap();
        drop(tx);
        let result = shard_worker(
            0,
            rx,
            ack_tx,
            recycle_tx,
            None,
            BatchShardEngine::new(Vec::new()),
        );
        assert_eq!(result.report.recycle_drops, 2);
        assert_eq!(result.report.ticks, 2);
        assert_eq!(result.report.tick_ns.count(), 2, "every tick span recorded");
    }

    #[test]
    fn sharded_matches_sequential_bit_for_bit() {
        let (servers, log) = record_log(12, 60);
        let mut seq = SequentialIngest::new(servers.clone());
        for tick in &log {
            seq.ingest_tick(tick);
        }
        let seq_result = seq.finish();
        assert!(seq_result.total_messages() > 0, "log recorded no syncs");

        for shards in [1, 2, 3, 5, 8] {
            let mut pipe = IngestPipeline::start(shards, servers.clone());
            for tick in &log {
                pipe.ingest_tick(tick);
            }
            let result = pipe.finish();
            assert_eq!(result.total_messages(), seq_result.total_messages());
            assert_eq!(result.endpoints.len(), seq_result.endpoints.len());
            for ((id_a, a), (id_b, b)) in result.endpoints.iter().zip(seq_result.endpoints.iter()) {
                assert_eq!(id_a, id_b);
                assert_eq!(
                    filter_bits(a),
                    filter_bits(b),
                    "stream {id_a} diverged at {shards} shards"
                );
                assert_eq!(a.syncs_applied(), b.syncs_applied());
            }
        }
    }

    #[test]
    fn batched_pipeline_matches_sequential_bit_for_bit() {
        // 2-state constant-velocity sessions are batch-eligible; the
        // pipeline must reproduce the sequential reference exactly at every
        // shard count, as it does for the 1-state fleet above.
        use kalstream_filter::models;
        use kalstream_linalg::Vector;
        let mut sources = Vec::new();
        let mut servers = Vec::new();
        for id in 0..12u32 {
            let config = ProtocolConfig::new(0.25).unwrap();
            let StreamSession { source, server } = SessionSpec::fixed(
                models::constant_velocity(1.0, 0.05, 0.1),
                Vector::zeros(2),
                1.0,
                config,
            )
            .unwrap()
            .build();
            sources.push((id, source));
            servers.push((id, server));
        }
        let mut log = Vec::new();
        for t in 0..60 {
            let mut batch = FrameBatch::new();
            for (id, source) in sources.iter_mut() {
                let v = (t as f64 * 0.1 + *id as f64).sin();
                if let Some(payload) = source.observe(t, &[v]) {
                    batch.push_raw(*id, &payload);
                }
            }
            log.push(batch.as_bytes().to_vec());
        }
        let mut seq = SequentialIngest::new(servers.clone());
        for tick in &log {
            seq.ingest_tick(tick);
        }
        let seq_result = seq.finish();
        assert!(seq_result.total_messages() > 0);

        for shards in [1, 2, 3, 5] {
            let mut pipe = IngestPipeline::start(shards, servers.clone());
            assert_eq!(pipe.coverage(), (12, 0));
            for tick in &log {
                pipe.ingest_tick(tick);
            }
            let result = pipe.finish();
            assert_eq!(result.total_messages(), seq_result.total_messages());
            for ((id_a, a), (id_b, b)) in result.endpoints.iter().zip(seq_result.endpoints.iter()) {
                assert_eq!(id_a, id_b);
                assert_eq!(
                    filter_bits(a),
                    filter_bits(b),
                    "stream {id_a} diverged at {shards} batched shards"
                );
                assert_eq!(a.syncs_applied(), b.syncs_applied());
            }
        }
    }

    #[test]
    fn pipeline_reports_batch_coverage() {
        let (mut servers, _) = record_log(3, 0);
        scalar_route(&mut servers[2..]);
        let mut pipe = IngestPipeline::start(2, servers);
        assert_eq!(pipe.coverage(), (2, 1));
        pipe.reassign(ShardAssignment::modulo(3));
        assert_eq!(pipe.coverage(), (2, 1), "recounted after a resize");
        pipe.finish();
    }

    #[test]
    fn salted_route_spreads_and_modulo_route_is_stable() {
        let modulo = ShardAssignment::modulo(4);
        for id in 0..64u32 {
            assert_eq!(modulo.route(id), id as usize % 4);
        }
        let salted = ShardAssignment::salted(4, 7);
        let mut touched = [false; 4];
        for id in 0..64u32 {
            let shard = salted.route(id);
            assert!(shard < 4);
            touched[shard] = true;
        }
        assert!(
            touched.iter().all(|&t| t),
            "salted route left a shard empty"
        );
        // Different salts must produce different placements (that is what
        // makes a same-count rebalance a real reshuffle).
        let other = ShardAssignment::salted(4, 8);
        assert!((0..64u32).any(|id| salted.route(id) != other.route(id)));
    }

    #[test]
    fn resizes_at_tick_barriers_are_bit_identical_to_unresized() {
        for scalar in [false, true] {
            let (mut servers, log) = record_log(12, 60);
            if scalar {
                scalar_route(&mut servers);
            }
            let mut seq = SequentialIngest::new(servers.clone());
            for tick in &log {
                seq.ingest_tick(tick);
            }
            let seq_result = seq.finish();
            assert!(seq_result.total_messages() > 0);
            // Grow, rebalance (same count, new salt), shrink, and shrink to
            // one — mid-run, at tick barriers. None of it may be visible in
            // the final filter state.
            let schedule = [
                (15usize, ShardAssignment::modulo(4)),
                (30, ShardAssignment::salted(4, 3)),
                (40, ShardAssignment::salted(2, 3)),
                (50, ShardAssignment::modulo(1)),
            ];
            let mut pipe = IngestPipeline::start(1, servers.clone());
            assert_eq!(pipe.coverage().1, if scalar { 12 } else { 0 });
            for (t, tick) in log.iter().enumerate() {
                if let Some((_, to)) = schedule.iter().find(|(at, _)| *at == t) {
                    let transition = pipe.reassign(*to);
                    assert_eq!(transition.to, *to);
                    assert_eq!(pipe.assignment(), *to);
                    assert_eq!(pipe.shards(), to.shards);
                }
                pipe.ingest_tick(tick);
            }
            let result = pipe.finish();
            // One report per worker lifetime: 1 + 4 + 4 + 2 + 1.
            assert_eq!(result.shards.len(), 12);
            assert_eq!(result.total_messages(), seq_result.total_messages());
            let ticks: u64 = result.shards.iter().map(|s| s.ticks).sum();
            // Phase ticks × worker count per phase: 15·1 + 15·4 + 10·4 + 10·2 + 10·1.
            let expected_ticks: u64 = 15 + 15 * 4 + 10 * 4 + 10 * 2 + 10;
            assert_eq!(ticks, expected_ticks);
            for ((id_a, a), (id_b, b)) in result.endpoints.iter().zip(seq_result.endpoints.iter()) {
                assert_eq!(id_a, id_b);
                assert_eq!(
                    filter_bits(a),
                    filter_bits(b),
                    "stream {id_a} diverged across resizes (scalar={scalar})"
                );
                assert_eq!(a.syncs_applied(), b.syncs_applied());
            }
        }
    }

    #[test]
    fn same_assignment_reassign_is_a_noop() {
        let (servers, log) = record_log(4, 10);
        let mut pipe = IngestPipeline::start(2, servers);
        for tick in &log {
            pipe.ingest_tick(tick);
        }
        let transition = pipe.reassign(ShardAssignment::modulo(2));
        assert_eq!(transition.from, transition.to);
        assert_eq!(transition.stall, std::time::Duration::ZERO);
        let result = pipe.finish();
        assert_eq!(result.shards.len(), 2, "no retired generation");
    }

    #[test]
    fn queue_depths_and_high_water_are_reported() {
        let (servers, log) = record_log(6, 30);
        let mut pipe = IngestPipeline::start(3, servers);
        assert_eq!(pipe.queue_depths().len(), 3);
        for tick in &log {
            pipe.ingest_tick(tick);
        }
        assert!(pipe.queue_depths().iter().all(|&d| d <= QUEUE_DEPTH));
        let result = pipe.finish();
        for shard in &result.shards {
            assert!(
                shard.queue_high_water >= 1,
                "every worker saw at least one job"
            );
            assert!(shard.queue_high_water <= QUEUE_DEPTH as u64 + 1);
        }
        // The gauge must surface in the obs export path.
        let mut registry = kalstream_obs::Registry::new();
        registry.observe("ingest", &result);
        let snap = registry.snapshot();
        assert!(snap.gauge("ingest.shard.0.queue_high_water").is_some());
    }

    #[test]
    fn flush_makes_applied_work_observable() {
        let (servers, log) = record_log(4, 20);
        let expected: u64 = {
            let mut seq = SequentialIngest::new(servers.clone());
            for tick in &log {
                seq.ingest_tick(tick);
            }
            seq.finish().total_messages()
        };
        let mut pipe = IngestPipeline::start(2, servers);
        for tick in &log {
            pipe.ingest_tick(tick);
        }
        pipe.flush(); // after the barrier, all ticks are applied
        let result = pipe.finish();
        assert_eq!(result.total_messages(), expected);
        let ticks: Vec<u64> = result.shards.iter().map(|s| s.ticks).collect();
        assert!(
            ticks.iter().all(|&t| t == log.len() as u64),
            "ticks {ticks:?}"
        );
    }

    #[test]
    fn unknown_streams_are_counted_not_fatal() {
        let (servers, _) = record_log(2, 1);
        let mut batch = FrameBatch::new();
        batch.push(
            999, // no such stream
            &SyncMessage::Measurement {
                z: kalstream_linalg::Vector::from_slice(&[1.0]),
            },
        );
        let mut pipe = IngestPipeline::start(2, servers);
        pipe.ingest_tick(batch.as_bytes());
        let result = pipe.finish();
        assert_eq!(result.total_messages(), 0);
        let unknown: u64 = result.shards.iter().map(|s| s.unknown_streams).sum();
        assert_eq!(unknown, 1);
    }

    #[test]
    fn ingest_mode_matches_session_mode_bit_for_bit() {
        use kalstream_sim::{run_fleet_ingest, IngestStream, Session, SessionConfig};
        let sampler = |id: u32| {
            let mut t = 0.0f64;
            move |obs: &mut [f64], tru: &mut [f64]| {
                let v = (t * 0.07 + id as f64).sin() + 0.3 * (t * 0.31).cos();
                obs[0] = v;
                tru[0] = v;
                t += 1.0;
            }
        };
        let ticks = 80u64;

        // Session mode: each stream runs through Session::run.
        let mut session_servers = Vec::new();
        for id in 0..6u32 {
            let config = ProtocolConfig::new(0.2).unwrap();
            let StreamSession {
                mut source,
                mut server,
            } = SessionSpec::default_scalar(0.0, config).unwrap().build();
            Session::run(
                &SessionConfig::instant(ticks, 0.2),
                sampler(id),
                &mut source,
                &mut server,
                &mut (),
            );
            session_servers.push((id, server));
        }

        // Ingest mode: the same fleet multiplexed into a sequential ingester.
        let mut servers = Vec::new();
        let mut streams: Vec<IngestStream<'_>> = Vec::new();
        for id in 0..6u32 {
            let config = ProtocolConfig::new(0.2).unwrap();
            let StreamSession { source, server } =
                SessionSpec::default_scalar(0.0, config).unwrap().build();
            servers.push((id, server));
            streams.push(IngestStream {
                stream_id: id,
                producer: Box::new(source),
                sampler: Box::new(sampler(id)),
            });
        }
        let mut sink = FramingSink::new(SequentialIngest::new(servers));
        run_fleet_ingest(&mut streams, ticks, 0, &mut sink);
        let result = sink.into_inner().finish();

        assert!(result.total_messages() > 0);
        for ((id_a, a), (id_b, b)) in result.endpoints.iter().zip(&session_servers) {
            assert_eq!(id_a, id_b);
            assert_eq!(filter_bits(a), filter_bits(b), "stream {id_a} diverged");
            assert_eq!(a.syncs_applied(), b.syncs_applied());
        }
    }

    #[test]
    fn feedback_pipeline_ships_acks_and_stays_bit_identical() {
        use crate::wire::WireMessage;
        let seq_body = |seq: u64, v: f64| {
            WireMessage::Sync {
                seq: Some(seq),
                msg: SyncMessage::State {
                    x: kalstream_linalg::Vector::from_slice(&[v]),
                    p: kalstream_linalg::Matrix::scalar(1, 0.5),
                },
            }
            .encode()
        };
        let mut log = Vec::new();
        for t in 0..4u64 {
            let mut batch = FrameBatch::new();
            for id in 0..6u32 {
                if (id as u64 + t).is_multiple_of(2) {
                    batch.push_raw(id, &seq_body(t + 1, t as f64 + id as f64));
                }
            }
            log.push(batch.as_bytes().to_vec());
        }
        for scalar in [false, true] {
            let (mut servers, _) = record_log(6, 0);
            if scalar {
                scalar_route(&mut servers);
            }
            let mut seq = SequentialIngest::new(servers.clone());
            for tick in &log {
                seq.ingest_tick(tick);
            }
            let seq_result = seq.finish();
            let (mut pipe, fb_rx) = IngestPipeline::start_with_feedback(3, servers, false);
            for tick in &log {
                pipe.ingest_tick(tick);
            }
            pipe.flush();
            // Every sequenced arrival re-arms exactly one ack, polled the
            // tick it arrived; flush guarantees they are all in the channel.
            let mut acks: Vec<(u32, u64)> = Vec::new();
            while let Ok((id, payload)) = fb_rx.try_recv() {
                match WireMessage::decode(&payload).unwrap() {
                    WireMessage::Ack { seq } => acks.push((id, seq)),
                    other => panic!("unexpected feedback {other:?}"),
                }
            }
            let expected: u64 = 3 * 4; // 3 streams sync per tick, 4 ticks
            assert_eq!(acks.len() as u64, expected);
            let result = pipe.finish();
            let out: u64 = result.shards.iter().map(|s| s.feedback_out).sum();
            let drops: u64 = result.shards.iter().map(|s| s.feedback_drops).sum();
            assert_eq!(out, expected);
            assert_eq!(drops, 0);
            // Feedback polling must not perturb filter arithmetic.
            for ((id_a, a), (id_b, b)) in result.endpoints.iter().zip(seq_result.endpoints.iter()) {
                assert_eq!(id_a, id_b);
                assert_eq!(filter_bits(a), filter_bits(b));
            }
        }
    }

    #[test]
    fn dropped_feedback_receiver_is_counted_not_swallowed() {
        use crate::wire::WireMessage;
        let (servers, _) = record_log(2, 0);
        let (mut pipe, fb_rx) = IngestPipeline::start_with_feedback(2, servers, false);
        drop(fb_rx); // consumer gone mid-drain: sheds must still be counted
        let mut batch = FrameBatch::new();
        batch.push_raw(
            0,
            &WireMessage::Sync {
                seq: Some(1),
                msg: SyncMessage::Measurement {
                    z: kalstream_linalg::Vector::from_slice(&[1.0]),
                },
            }
            .encode(),
        );
        pipe.ingest_tick(batch.as_bytes());
        let result = pipe.finish();
        let drops: u64 = result.shards.iter().map(|s| s.feedback_drops).sum();
        let out: u64 = result.shards.iter().map(|s| s.feedback_out).sum();
        assert_eq!(drops, 1, "lost ack must be visible in the report");
        assert_eq!(out, 0);
    }

    #[test]
    fn corrupt_frames_do_not_stall_the_pipeline() {
        let (servers, _) = record_log(2, 1);
        let mut batch = FrameBatch::new();
        batch.push_raw(0, b"\xFF\xFF"); // garbage body for a real stream
        batch.push(
            1,
            &SyncMessage::Measurement {
                z: kalstream_linalg::Vector::from_slice(&[2.0]),
            },
        );
        let mut pipe = IngestPipeline::start(2, servers);
        pipe.ingest_tick(batch.as_bytes());
        let result = pipe.finish();
        assert_eq!(result.total_messages(), 1);
        assert_eq!(result.total_decode_failures(), 1);
    }

    #[test]
    fn sequenced_traffic_with_duplicates_is_deduplicated_by_ingest() {
        use crate::wire::WireMessage;
        let state = |v: f64| SyncMessage::State {
            x: kalstream_linalg::Vector::from_slice(&[v]),
            p: kalstream_linalg::Matrix::scalar(1, 0.5),
        };
        let seq_body = |seq: u64, v: f64| {
            WireMessage::Sync {
                seq: Some(seq),
                msg: state(v),
            }
            .encode()
        };
        let run = |servers: Vec<(u32, ServerEndpoint)>, shards: Option<usize>| {
            let mut batch = FrameBatch::new();
            batch.push_raw(0, &seq_body(1, 1.0));
            batch.push_raw(0, &seq_body(2, 2.0));
            batch.push_raw(0, &seq_body(2, 9.0)); // network duplicate
            batch.push_raw(0, &seq_body(1, 9.0)); // stale re-delivery
            batch.push_raw(1, &seq_body(1, 5.0));
            match shards {
                Some(n) => {
                    let mut pipe = IngestPipeline::start(n, servers);
                    pipe.ingest_tick(batch.as_bytes());
                    pipe.finish()
                }
                None => {
                    let mut seq = SequentialIngest::new(servers);
                    seq.ingest_tick(batch.as_bytes());
                    seq.finish()
                }
            }
        };
        let (servers, _) = record_log(2, 0);
        for result in [run(servers.clone(), None), run(servers, Some(2))] {
            let stale: u64 = result.shards.iter().map(|s| s.stale_drops).sum();
            assert_eq!(stale, 2, "duplicate + stale must both be dropped");
            let (_, ep0) = &result.endpoints[0];
            assert_eq!(ep0.last_seq(), 2);
            assert_eq!(
                ep0.filter().predicted_measurement()[0],
                2.0,
                "stale 9.0 applied"
            );
            assert_eq!(ep0.delivery().stale_drops, 2);
        }
    }
}
