//! The shard engine: same-model stream groups stepped through
//! structure-of-arrays fleet kernels, with each tick's sync frames applied
//! straight from the frame bytes onto their lanes.
//!
//! Every shard worker of [`crate::IngestPipeline`] runs one
//! [`BatchShardEngine`]. At construction it groups endpoints whose filters
//! run the **same model** at a supported `(state_dim, measurement_dim)`
//! shape (see [`DynFleetBatch::supported`]) with the default Joseph
//! covariance form, and moves each group's per-stream state into
//! [`DynFleetBatch`] lanes. Everything else about an endpoint — sequence
//! bookkeeping, counters, feedback — stays on its [`ServerEndpoint`]; only
//! the filter arithmetic moves. Endpoints outside the shape table stay
//! *scalar* and step their own [`KalmanFilter`].
//!
//! ## One tick
//!
//! 1. **Predict** every lane (one `predict_all` per group) and every scalar
//!    filter.
//! 2. **Walk the frames once, in arrival order.** A `[seq] State` body of
//!    the lane's dimension is parsed from the frame bytes directly onto the
//!    lane ([`crate::wire::parse_state`]); the endpoint runs the sequence
//!    bookkeeping and counts the sync. Every other body — `Model`,
//!    `Measurement`, a wrong dimension, malformed bytes — takes the general
//!    path, applied at once: [`WireMessage::decode`], then
//!    [`ServerEndpoint::enqueue_wire`], then a drain onto the lane or
//!    filter.
//! 3. **Demote** lanes left non-finite to scalar.
//!
//! No `SyncMessage` value and no pending queue is involved on the common
//! path.
//!
//! ## Equivalence
//!
//! [`crate::SequentialIngest`] runs each tick as "enqueue every frame, then
//! predict, then drain the queue". Streams are independent, and sequence
//! bookkeeping never reads filter state, so moving each stream's predict in
//! front of its enqueues leaves that stream's order of filter operations
//! unchanged — and the batch kernels replicate the scalar filter's
//! floating-point operation order per lane (see
//! `kalstream_filter::FleetBatch`). The engine therefore leaves
//! **bit-identical endpoints**. Three edge cases need care:
//!
//! * **More than the pending cap in one tick.** A queue sheds its oldest
//!   syncs beyond 256. A stream whose carried-over queue plus its frames
//!   in the tick could pass the cap takes the queued path: each of its
//!   frames is enqueued (shedding as the queue does), and its queue drains
//!   after the walk — the reference order, minus the predict already
//!   done. Every other stream of the tick still takes the direct path.
//! * **Carried-over pending.** An endpoint built with queued syncs (a
//!   recovered mid-tick snapshot) drains them right after the first
//!   predict, before the tick's first frame.
//! * **Feedback due at construction.** Acks and bounds are polled for the
//!   streams that have one due, in ascending id order; an endpoint built
//!   with one due is on that list from the start.
//!
//! ## Demotion
//!
//! Streams leave the batch path (state handed back via
//! [`KalmanFilter::restore`]) when:
//!
//! * a **model sync** arrives — the replacement filter may have any shape,
//!   so the stream finishes the run scalar, and the rest of its tick
//!   applies to the replacement filter;
//! * the lane **ends a tick non-finite** — the scalar path owns the
//!   divergence bookkeeping from there. A later state sync in the same
//!   tick heals a poisoned lane, which then stays batched, exactly as it
//!   would heal a scalar filter.
//!
//! Demotion swaps the group's last lane into the vacated slot
//! ([`DynFleetBatch::swap_remove_lane`]), so lanes stay dense.

use std::collections::HashMap;

use bytes::Bytes;
use kalstream_filter::{CovarianceUpdate, DynFleetBatch, KalmanFilter};
use kalstream_linalg::{Matrix, Vector};

use crate::frame::{Frame, FrameDecoder};
use crate::server::{EndpointState, ServerEndpoint, PENDING_CAP};
use crate::wire::{self, SyncMessage, WireMessage, MAX_VIEW_DIM};

/// One same-model lane group.
struct BatchGroup {
    batch: DynFleetBatch,
    /// `streams[lane]` is the stream id owning that lane.
    streams: Vec<u32>,
}

/// Where a stream's filter arithmetic runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// The endpoint's own [`KalmanFilter`].
    Scalar,
    /// A fleet-batch lane; the endpoint's filter is dormant until demotion.
    Lane { group: usize, lane: usize },
}

/// One stream: its endpoint and where its filter state lives.
struct Slot {
    ep: ServerEndpoint,
    route: Route,
    /// The tick's frames for this stream, counted by
    /// [`BatchShardEngine::mark_floods`] and cleared as the walk reaches
    /// them.
    frames: usize,
    /// Whether the stream's queue could pass the pending cap this tick.
    flood: bool,
}

/// What one tick applied.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TickCounts {
    /// Frames whose body decoded, addressed to a known stream.
    pub messages: u64,
    /// Well-formed frames addressed to a stream this engine does not own.
    pub unknown_streams: u64,
}

/// Applies `body` straight onto `lane` when it is a `[seq] State` sync of
/// the lane's dimension: the endpoint runs the sequence bookkeeping, and an
/// accepted sync overwrites the lane exactly as a decoded one would.
/// Returns `false`, touching nothing, for every other body.
fn apply_state_body(
    ep: &mut ServerEndpoint,
    batch: &mut DynFleetBatch,
    lane: usize,
    body: &[u8],
) -> bool {
    let n = batch.state_dim();
    let mut x = [0.0; MAX_VIEW_DIM];
    let mut p = [0.0; MAX_VIEW_DIM * (MAX_VIEW_DIM + 1) / 2];
    let Some(seq) = wire::parse_state(body, n, &mut x, &mut p) else {
        return false;
    };
    if ep.accept_seq(seq)
        && batch
            .set_lane_sym(lane, &x[..n], &p[..n * (n + 1) / 2])
            .is_ok()
    {
        ep.note_sync_applied();
    }
    true
}

/// A shard's endpoints with fleet-batch dispatch in front of the filter
/// arithmetic. See the module docs for the tick and its equivalence to
/// [`crate::SequentialIngest`].
pub(crate) struct BatchShardEngine {
    slots: HashMap<u32, Slot>,
    /// Every stream id, ascending — the order snapshots are taken in.
    ids: Vec<u32>,
    groups: Vec<BatchGroup>,
    /// Scalar-routed ids in ascending order, maintained across demotions.
    scalar_ids: Vec<u32>,
    /// Ids built with queued syncs, drained after the first tick's predict.
    carried: Vec<u32>,
    /// Ids with an ack or bound directive due, each listed once.
    due: Vec<u32>,
    /// Ids flagged `flood` this tick; reused across ticks.
    floods: Vec<u32>,
}

impl BatchShardEngine {
    /// Builds the engine, grouping every endpoint that qualifies for the
    /// batch path (supported dims, Joseph covariance form, model shared
    /// with the group) and leaving the rest scalar.
    pub(crate) fn new(endpoints: Vec<(u32, ServerEndpoint)>) -> Self {
        let mut engine = BatchShardEngine {
            slots: HashMap::with_capacity(endpoints.len()),
            ids: endpoints.iter().map(|(id, _)| *id).collect(),
            groups: Vec::new(),
            scalar_ids: Vec::new(),
            carried: Vec::new(),
            due: Vec::new(),
            floods: Vec::new(),
        };
        for (id, ep) in endpoints {
            let filter = ep.filter();
            let model = filter.model();
            let route = if filter.covariance_update() == CovarianceUpdate::Joseph
                && DynFleetBatch::supported(model.state_dim(), model.measurement_dim())
            {
                let group = match engine.groups.iter().position(|g| g.batch.model() == model) {
                    Some(g) => g,
                    None => {
                        let batch = DynFleetBatch::for_model(model)
                            .expect("supported dims have a batch kernel");
                        engine.groups.push(BatchGroup {
                            batch,
                            streams: Vec::new(),
                        });
                        engine.groups.len() - 1
                    }
                };
                let g = &mut engine.groups[group];
                let lane = g
                    .batch
                    .push(
                        filter.state(),
                        filter.covariance(),
                        filter.steps_since_update(),
                    )
                    .expect("endpoint filter shape matches its own model");
                g.streams.push(id);
                Route::Lane { group, lane }
            } else {
                engine.scalar_ids.push(id);
                Route::Scalar
            };
            if ep.pending_len() > 0 {
                engine.carried.push(id);
            }
            if ep.feedback_due() {
                engine.due.push(id);
            }
            engine.slots.insert(
                id,
                Slot {
                    ep,
                    route,
                    frames: 0,
                    flood: false,
                },
            );
        }
        engine.ids.sort_unstable();
        engine.scalar_ids.sort_unstable();
        engine.carried.sort_unstable();
        engine
    }

    /// Number of endpoints.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// `(batched, scalar)` stream counts — the dispatcher's coverage, worth
    /// watching next to the `linalg.heap_fallbacks` counter.
    pub(crate) fn coverage(&self) -> (usize, usize) {
        let batched: usize = self.groups.iter().map(|g| g.streams.len()).sum();
        (batched, self.slots.len() - batched)
    }

    /// Runs one tick over `wire` (a frame batch, possibly empty): predict,
    /// apply every frame in arrival order, demote non-finite lanes.
    /// Malformed headers and bodies are counted on `decoder`.
    pub(crate) fn ingest_tick(&mut self, decoder: &mut FrameDecoder, wire: &[u8]) -> TickCounts {
        self.predict();
        self.mark_floods(wire);
        for id in std::mem::take(&mut self.carried) {
            if !self.slots[&id].flood {
                self.drain(id);
            }
        }
        let mut counts = TickCounts::default();
        let mut body_failures = 0;
        decoder.for_each_frame(wire, |frame| {
            if !self.apply_frame(frame, &mut counts) {
                body_failures += 1;
            }
        });
        decoder.note_body_failures(body_failures);
        let mut floods = std::mem::take(&mut self.floods);
        for &id in &floods {
            self.slots
                .get_mut(&id)
                .expect("flagged stream has a slot")
                .flood = false;
            self.drain(id);
        }
        floods.clear();
        self.floods = floods;
        self.demote_nonfinite();
        counts
    }

    /// Phase 1: one `predict_all` per group, one predict per scalar filter.
    /// Lanes that come out non-finite get the scalar path's per-tick
    /// `predict_failures` bookkeeping here; whether they *stay* non-finite
    /// (→ demotion) is decided at the end of the tick, since a state sync
    /// may resynchronise them.
    fn predict(&mut self) {
        for group in self.groups.iter_mut() {
            if group.batch.predict_all() > 0 {
                for (lane, id) in group.streams.iter().enumerate() {
                    if !group.batch.lane_is_finite(lane) {
                        self.slots
                            .get_mut(id)
                            .expect("grouped stream has a slot")
                            .ep
                            .note_predict_failure();
                    }
                }
            }
        }
        for id in &self.scalar_ids {
            self.slots
                .get_mut(id)
                .expect("scalar stream has a slot")
                .ep
                .predict_step();
        }
    }

    /// Flags every stream whose queue could pass the pending cap this
    /// tick — only such a queue can shed, and shedding must happen exactly
    /// as [`ServerEndpoint::enqueue`] does it. A stream's bound is its
    /// frame count plus its carried-over queue. When the whole batch plus
    /// the longest carried queue stays within the cap, no stream can pass
    /// it and the per-stream count is skipped.
    fn mark_floods(&mut self, wire: &[u8]) {
        let carried_max = self
            .carried
            .iter()
            .map(|id| self.slots[id].ep.pending_len())
            .max()
            .unwrap_or(0);
        let mut frames = 0usize;
        FrameDecoder::new().for_each_frame(wire, |_| frames += 1);
        if frames + carried_max <= PENDING_CAP {
            return;
        }
        let (slots, floods) = (&mut self.slots, &mut self.floods);
        FrameDecoder::new().for_each_frame(wire, |frame| {
            if let Some(slot) = slots.get_mut(&frame.stream_id) {
                slot.frames += 1;
                if !slot.flood && slot.frames + slot.ep.pending_len() > PENDING_CAP {
                    slot.flood = true;
                    floods.push(frame.stream_id);
                }
            }
        });
    }

    /// Phase 2 for one frame. A flagged stream's frame is only enqueued;
    /// its queue drains after the walk. Returns `false` when the body
    /// failed to decode.
    fn apply_frame(&mut self, frame: Frame<'_>, counts: &mut TickCounts) -> bool {
        let id = frame.stream_id;
        let Some(slot) = self.slots.get_mut(&id) else {
            let ok = WireMessage::decode(frame.body).is_ok();
            counts.unknown_streams += u64::from(ok);
            return ok;
        };
        slot.frames = 0;
        let queue = slot.flood;
        let was_due = slot.ep.feedback_due();
        let direct = !queue
            && match slot.route {
                Route::Lane { group, lane } => apply_state_body(
                    &mut slot.ep,
                    &mut self.groups[group].batch,
                    lane,
                    frame.body,
                ),
                Route::Scalar => false,
            };
        let ok = direct
            || match WireMessage::decode(frame.body) {
                Ok(msg) => {
                    slot.ep.enqueue_wire(msg);
                    true
                }
                Err(_) => false,
            };
        counts.messages += u64::from(ok);
        if !was_due && slot.ep.feedback_due() {
            self.due.push(id);
        }
        if ok && !direct && !queue {
            self.drain(id);
        }
        ok
    }

    /// Applies one stream's queued syncs to wherever its filter state lives,
    /// in arrival order.
    fn drain(&mut self, id: u32) {
        let slot = self.slots.get_mut(&id).expect("drained stream has a slot");
        match slot.route {
            Route::Scalar => slot.ep.drain_pending(),
            Route::Lane { group, lane } => self.drain_onto_lane(group, lane, id),
        }
    }

    /// Applies one batched stream's queued syncs to its lane (same
    /// operations, same order as [`ServerEndpoint::advance`]'s drain). A
    /// model sync demotes the stream on the spot.
    fn drain_onto_lane(&mut self, group: usize, lane: usize, id: u32) {
        let ep = &mut self.slots.get_mut(&id).expect("lane has a slot").ep;
        let batch = &mut self.groups[group].batch;
        while let Some(msg) = ep.pop_pending() {
            match msg {
                SyncMessage::State { x, p } => {
                    if batch.set_lane(lane, &x, &p).is_ok() {
                        ep.note_sync_applied();
                    }
                }
                SyncMessage::Measurement { z } => {
                    // On `Diverged` the lane keeps the non-finite posterior —
                    // exactly what the scalar filter leaves behind — and the
                    // end-of-tick check demotes it. Other errors leave the
                    // lane untouched; either way the sync is not counted.
                    if batch.update_lane(lane, &z).is_ok() {
                        ep.note_sync_applied();
                    }
                }
                SyncMessage::Model { model, x, p } => {
                    // On rejection the stream simply stays batched.
                    if let Ok(kf) = KalmanFilter::with_covariance(model, x, p) {
                        *ep.filter_mut() = kf;
                        ep.note_sync_applied();
                        // The stream is scalar from here: the rest of its
                        // queue applies to the replacement filter, exactly
                        // as the scalar drain would.
                        ep.drain_pending();
                        self.demote(group, lane, false);
                        return;
                    }
                }
            }
        }
    }

    /// Phase 3: demotes every lane left non-finite. After a demotion the
    /// swapped-in lane is checked at the same index, so none is skipped.
    fn demote_nonfinite(&mut self) {
        for g in 0..self.groups.len() {
            if self.groups[g].batch.nonfinite_lanes() == 0 {
                continue;
            }
            let mut lane = 0;
            while lane < self.groups[g].streams.len() {
                if self.groups[g].batch.lane_is_finite(lane) {
                    lane += 1;
                } else {
                    self.demote(g, lane, true);
                }
            }
        }
    }

    /// Removes a lane and routes its stream scalar. `restore_state` hands
    /// the lane's state back to the endpoint filter (skipped after a model
    /// sync, which already installed a replacement filter).
    fn demote(&mut self, group: usize, lane: usize, restore_state: bool) {
        let g = &mut self.groups[group];
        let id = g.streams[lane];
        let slot = self.slots.get_mut(&id).expect("lane has a slot");
        if restore_state {
            let (x, p, steps) = g.batch.lane_state(lane);
            slot.ep
                .filter_mut()
                .restore(x, p, steps)
                .expect("lane shape matches its endpoint's model");
        }
        slot.route = Route::Scalar;
        g.batch.swap_remove_lane(lane);
        g.streams.swap_remove(lane);
        if let Some(&moved) = g.streams.get(lane) {
            self.slots.get_mut(&moved).expect("lane has a slot").route =
                Route::Lane { group, lane };
        }
        let at = self.scalar_ids.partition_point(|&s| s < id);
        self.scalar_ids.insert(at, id);
    }

    /// Polls every due ack and bound directive into `sink`, in ascending
    /// stream id order — per stream, acks before bounds (see
    /// [`ServerEndpoint`]'s feedback contract).
    pub(crate) fn poll_feedback(&mut self, now: u64, mut sink: impl FnMut(u32, Bytes)) {
        self.due.sort_unstable();
        for id in self.due.drain(..) {
            let ep = &mut self.slots.get_mut(&id).expect("due stream has a slot").ep;
            while let Some(payload) = kalstream_sim::Consumer::poll_feedback(ep, now) {
                sink(id, payload);
            }
        }
    }

    /// Forgets the due list without polling — for pipelines that route no
    /// feedback, whose endpoints keep their acks armed.
    pub(crate) fn forget_feedback(&mut self) {
        self.due.clear();
    }

    /// Captures every endpoint's protocol state in ascending stream id
    /// order, without consuming the engine. A batched stream's live
    /// `x`/`p`/staleness sit on its lane, so its captured state is the
    /// endpoint's bookkeeping overlaid with the lane's triplet — exactly the
    /// bits [`BatchShardEngine::finish`] would restore, copied instead of
    /// moved.
    pub(crate) fn snapshot_states(&self) -> Vec<(u32, EndpointState)> {
        self.ids
            .iter()
            .map(|id| {
                let slot = &self.slots[id];
                let mut state = slot.ep.state();
                if let Some((x, p, steps)) = self.lane_triplet(slot) {
                    state.x = x;
                    state.p = p;
                    state.steps_since_update = steps;
                }
                (*id, state)
            })
            .collect()
    }

    /// Every endpoint's snapshot record in ascending stream id order — the
    /// bytes [`EndpointState::encode_record`] writes for
    /// [`BatchShardEngine::snapshot_states`], encoded straight from the
    /// endpoints and their lanes.
    pub(crate) fn snapshot_records(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for id in &self.ids {
            let slot = &self.slots[id];
            slot.ep
                .encode_record(*id, self.lane_triplet(slot).as_ref(), &mut out);
        }
        out
    }

    /// A batched stream's `(x, p, steps_since_update)`, read off its lane.
    fn lane_triplet(&self, slot: &Slot) -> Option<(Vector, Matrix, u64)> {
        match slot.route {
            Route::Lane { group, lane } => Some(self.groups[group].batch.lane_state(lane)),
            Route::Scalar => None,
        }
    }

    /// Hands every remaining lane's state back to its endpoint filter and
    /// returns the endpoints sorted by stream id — for the same traffic,
    /// the same bits [`crate::SequentialIngest`] produces.
    pub(crate) fn finish(self) -> Vec<(u32, ServerEndpoint)> {
        let groups = self.groups;
        let mut endpoints: Vec<(u32, ServerEndpoint)> = self
            .slots
            .into_iter()
            .map(|(id, mut slot)| {
                if let Route::Lane { group, lane } = slot.route {
                    let (x, p, steps) = groups[group].batch.lane_state(lane);
                    slot.ep
                        .filter_mut()
                        .restore(x, p, steps)
                        .expect("lane shape matches its endpoint's model");
                }
                (id, slot.ep)
            })
            .collect();
        endpoints.sort_by_key(|(id, _)| *id);
        endpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBatch;
    use crate::ingest::{IngestResult, SequentialIngest};
    use crate::{ProtocolConfig, SessionSpec, StreamSession};
    use kalstream_filter::models;
    use kalstream_linalg::{Matrix, Vector};
    use kalstream_sim::{Consumer, Producer};

    /// `n_cv` constant-velocity sessions (batch-eligible: 2-state) followed
    /// by `n_scalar` constant-acceleration sessions (3-state — outside the
    /// batch shape table, stays scalar), plus a recorded framed log of
    /// deterministic per-stream sinusoid traffic.
    fn record_log(
        n_cv: u32,
        n_scalar: u32,
        ticks: usize,
    ) -> (Vec<(u32, ServerEndpoint)>, Vec<Vec<u8>>) {
        let mut sources = Vec::new();
        let mut servers = Vec::new();
        for id in 0..(n_cv + n_scalar) {
            let config = ProtocolConfig::new(0.25).unwrap();
            let (model, dim) = if id < n_cv {
                (models::constant_velocity(1.0, 0.05, 0.1), 2)
            } else {
                (models::constant_acceleration(1.0, 0.02, 0.1), 3)
            };
            let spec = SessionSpec::fixed(model, Vector::zeros(dim), 1.0, config).unwrap();
            let StreamSession { source, server } = spec.build();
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

    /// `n` 1-state random-walk endpoints (the `(1, 1)` lane shape).
    fn walks(n: u32) -> Vec<(u32, ServerEndpoint)> {
        (0..n)
            .map(|id| {
                let kf = KalmanFilter::new(models::random_walk(0.01, 0.25), Vector::zeros(1), 1.0)
                    .unwrap();
                (id, ServerEndpoint::new(kf))
            })
            .collect()
    }

    /// The walks, switched to the `Simple` covariance form (scalar route).
    fn simple_walks(n: u32) -> Vec<(u32, ServerEndpoint)> {
        let mut servers = walks(n);
        for (_, ep) in servers.iter_mut() {
            ep.filter_mut()
                .set_covariance_update(CovarianceUpdate::Simple);
        }
        servers
    }

    /// One engine driven like a single shard worker.
    struct Shard {
        engine: BatchShardEngine,
        decoder: FrameDecoder,
        counts: TickCounts,
    }

    impl Shard {
        fn new(servers: Vec<(u32, ServerEndpoint)>) -> Self {
            Shard {
                engine: BatchShardEngine::new(servers),
                decoder: FrameDecoder::new(),
                counts: TickCounts::default(),
            }
        }

        fn tick(&mut self, wire: &[u8]) {
            let c = self.engine.ingest_tick(&mut self.decoder, wire);
            self.counts.messages += c.messages;
            self.counts.unknown_streams += c.unknown_streams;
        }
    }

    /// Runs `log` through the sequential reference and one engine, and
    /// asserts identical endpoints and shard counters.
    fn assert_matches_sequential(
        servers: Vec<(u32, ServerEndpoint)>,
        log: &[Vec<u8>],
        what: &str,
    ) -> Vec<(u32, ServerEndpoint)> {
        let mut seq = SequentialIngest::new(servers.clone());
        let mut shard = Shard::new(servers);
        for tick in log {
            seq.ingest_tick(tick);
            shard.tick(tick);
        }
        let reference: IngestResult = seq.finish();
        let report = &reference.shards[0];
        assert_eq!(shard.counts.messages, report.messages, "{what}: messages");
        assert_eq!(
            shard.counts.unknown_streams, report.unknown_streams,
            "{what}: unknown"
        );
        assert_eq!(
            shard.decoder.decode_failures(),
            report.decode_failures,
            "{what}: decode failures"
        );
        let endpoints = shard.engine.finish();
        assert_same_endpoints(&endpoints, &reference.endpoints, what);
        endpoints
    }

    fn filter_bits(ep: &ServerEndpoint) -> Vec<u64> {
        let f = ep.filter();
        f.state()
            .iter()
            .map(|v| v.to_bits())
            .chain(f.covariance().as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// Same filter bits and the same bookkeeping: every other field of the
    /// captured [`EndpointState`] (counters, seq/ack tracker, delivery
    /// stats, pending queue, model, staleness).
    fn assert_same_endpoints(a: &[(u32, ServerEndpoint)], b: &[(u32, ServerEndpoint)], what: &str) {
        assert_eq!(a.len(), b.len());
        let bookkeeping = |ep: &ServerEndpoint| {
            let mut state = ep.state();
            state.x = Vector::zeros(1);
            state.p = Matrix::zeros(1, 1);
            state
        };
        for ((id_a, ea), (id_b, eb)) in a.iter().zip(b.iter()) {
            assert_eq!(id_a, id_b);
            assert_eq!(filter_bits(ea), filter_bits(eb), "{what}: stream {id_a}");
            assert_eq!(bookkeeping(ea), bookkeeping(eb), "{what}: stream {id_a}");
        }
    }

    fn state_sync(x: &[f64], p: f64) -> SyncMessage {
        SyncMessage::State {
            x: Vector::from_slice(x),
            p: Matrix::scalar(x.len(), p),
        }
    }

    fn seq_body(seq: u64, msg: SyncMessage) -> Bytes {
        WireMessage::Sync {
            seq: Some(seq),
            msg,
        }
        .encode()
    }

    #[test]
    fn groups_same_model_streams_and_leaves_ineligible_ones_scalar() {
        let mut endpoints = Vec::new();
        // 3-state constant acceleration: outside the shape table, scalar.
        for id in 0..3u32 {
            let kf = KalmanFilter::new(
                models::constant_acceleration(1.0, 0.02, 0.1),
                Vector::zeros(3),
                1.0,
            )
            .unwrap();
            endpoints.push((id, ServerEndpoint::new(kf)));
        }
        // 2-state constant velocity: batched, one shared group.
        for id in 3..8u32 {
            let kf = KalmanFilter::new(
                models::constant_velocity(1.0, 0.05, 0.1),
                Vector::zeros(2),
                1.0,
            )
            .unwrap();
            endpoints.push((id, ServerEndpoint::new(kf)));
        }
        // Simple covariance form: stays scalar even at supported dims.
        let mut kf = KalmanFilter::new(
            models::constant_velocity(1.0, 0.05, 0.1),
            Vector::zeros(2),
            1.0,
        )
        .unwrap();
        kf.set_covariance_update(CovarianceUpdate::Simple);
        endpoints.push((8, ServerEndpoint::new(kf)));
        // 1-state random walks: the (1, 1) lane shape, a second group.
        for (id, ep) in walks(2) {
            endpoints.push((id + 9, ep));
        }
        let engine = BatchShardEngine::new(endpoints);
        assert_eq!(engine.coverage(), (7, 4));
        assert_eq!(engine.groups.len(), 2);
        assert_eq!(engine.scalar_ids, vec![0, 1, 2, 8]);
    }

    #[test]
    fn engine_matches_sequential_bit_for_bit() {
        let (servers, log) = record_log(12, 4, 80);
        assert_eq!(BatchShardEngine::new(servers.clone()).coverage(), (12, 4));
        let endpoints = assert_matches_sequential(servers, &log, "mixed fleet");
        assert!(endpoints.iter().all(|(_, ep)| ep.syncs_applied() > 0));
    }

    #[test]
    fn model_sync_demotes_stream_to_scalar_identically() {
        // Stream 1 (batched) receives a model sync mid-run — trailed by a
        // measurement in the same tick that must land on the replacement
        // filter — then keeps receiving ordinary traffic to the end.
        let (servers, mut log) = record_log(4, 0, 40);
        let mut extra = FrameBatch::new();
        extra.push(
            1,
            &SyncMessage::Model {
                model: models::constant_acceleration(1.0, 0.02, 0.1),
                x: Vector::from_slice(&[0.5, 0.1, 0.0]),
                p: Matrix::scalar(3, 1.0),
            },
        );
        extra.push(
            1,
            &SyncMessage::Measurement {
                z: Vector::from_slice(&[0.6]),
            },
        );
        let mut merged = extra.as_bytes().to_vec();
        merged.extend_from_slice(&log[20]);
        log[20] = merged;

        let mut shard = Shard::new(servers.clone());
        for tick in &log[..21] {
            shard.tick(tick);
        }
        assert_eq!(shard.engine.coverage(), (3, 1), "stream 1 demoted");
        let endpoints = assert_matches_sequential(servers, &log, "model-sync");
        let (_, ep1) = &endpoints[1];
        assert_eq!(ep1.filter().model().name(), "constant_acceleration");
    }

    #[test]
    fn state_sync_heals_a_diverged_lane_without_demotion() {
        // Poison a lane with a non-finite state sync — which set_lane
        // accepts (like set_state, it validates shape only) — and heal it
        // with a later sync *in the same tick*. The demotion check runs at
        // the end of the tick, so the healed lane stays batched, exactly as
        // the scalar filter would simply absorb both syncs.
        let mut tick1 = FrameBatch::new();
        tick1.push(0, &state_sync(&[f64::NAN, 0.0], 1.0));
        tick1.push(0, &state_sync(&[1.0, -0.5], 0.5));
        let quiet = FrameBatch::new();
        let log = [tick1.as_bytes().to_vec(), quiet.as_bytes().to_vec()];
        let (servers, _) = record_log(2, 0, 0);
        let mut shard = Shard::new(servers.clone());
        shard.tick(&log[0]);
        assert_eq!(shard.engine.coverage(), (2, 0), "healed lane stays batched");
        let endpoints = assert_matches_sequential(servers, &log, "heal");
        let (_, ep) = &endpoints[0];
        assert_eq!(ep.predict_failures(), 0);
        assert!(ep.filter().state().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn unhealed_diverged_lane_is_demoted_and_keeps_scalar_bookkeeping() {
        let (servers, _) = record_log(2, 0, 0);
        let mut tick1 = FrameBatch::new();
        tick1.push(0, &state_sync(&[f64::NAN, 0.0], 1.0));
        let quiet = FrameBatch::new();
        let mut log = vec![tick1.as_bytes().to_vec()];
        log.extend((0..3).map(|_| quiet.as_bytes().to_vec()));
        let mut shard = Shard::new(servers.clone());
        shard.tick(&log[0]);
        assert_eq!(shard.engine.coverage(), (1, 1), "poisoned lane demoted");
        let endpoints = assert_matches_sequential(servers, &log, "diverged");
        // The poison sync lands *after* tick 1's predict, so only the three
        // quiet ticks predict on a non-finite state — on the scalar path the
        // demoted stream took over from tick 2 onward.
        let (_, ep) = &endpoints[0];
        assert_eq!(ep.predict_failures(), 3, "every later tick keeps failing");
    }

    #[test]
    fn unknown_streams_and_malformed_bodies_are_counted() {
        let mut batch = FrameBatch::new();
        batch.push(99, &state_sync(&[1.0], 0.5)); // unknown, well-formed
        batch.push_raw(98, b"\xFF"); // unknown, malformed: a decode failure
        batch.push_raw(0, b"\x01\x01\x00\x00"); // truncated state body
        batch.push(1, &state_sync(&[2.0, 0.0], 0.5)); // wrong dimension
        batch.push(0, &state_sync(&[3.0], 0.5));
        let log = [batch.as_bytes().to_vec()];
        let endpoints = assert_matches_sequential(walks(2), &log, "malformed");
        assert_eq!(endpoints[0].1.syncs_applied(), 1);
        assert_eq!(endpoints[1].1.syncs_applied(), 0, "wrong dim never applies");
    }

    #[test]
    fn sequenced_duplicates_are_deduplicated_on_the_batch_path() {
        // The endpoint's seq bookkeeping must keep working in front of the
        // lane: duplicates and stale re-deliveries never reach the batch.
        let mut batch = FrameBatch::new();
        for (seq, v) in [(1, 1.0), (2, 2.0), (2, 9.0), (1, 9.0), (5, 5.0)] {
            batch.push_raw(0, &seq_body(seq, state_sync(&[v, 0.0], 0.5)));
        }
        let log = [batch.as_bytes().to_vec()];
        let (servers, _) = record_log(2, 0, 0);
        let endpoints = assert_matches_sequential(servers, &log, "dedup");
        let (_, ep) = &endpoints[0];
        assert_eq!(ep.delivery().stale_drops, 2);
        assert_eq!(ep.delivery().seq_gaps, 2);
        assert_eq!(ep.last_seq(), 5);
        assert_eq!(ep.filter().state()[0], 5.0, "stale 9.0 never applied");
    }

    #[test]
    fn more_than_the_pending_cap_in_one_tick_sheds_like_the_queue() {
        // Measurement syncs make shedding visible in the bits: every
        // applied one moves the filter. Both routes, sequenced and not,
        // with ordinary traffic for other streams around the flood.
        for servers in [walks(3), simple_walks(3)] {
            for sequenced in [false, true] {
                let mut batch = FrameBatch::new();
                for i in 0..(PENDING_CAP as u64 + 40) {
                    let msg = SyncMessage::Measurement {
                        z: Vector::from_slice(&[(i as f64 * 0.37).sin()]),
                    };
                    if sequenced {
                        batch.push_raw(1, &seq_body(i + 1, msg));
                    } else {
                        batch.push(1, &msg);
                    }
                    if i % 100 == 0 {
                        batch.push(0, &state_sync(&[i as f64], 0.5));
                    }
                }
                batch.push(2, &state_sync(&[7.0], 0.5));
                let quiet = FrameBatch::new();
                let log = [batch.as_bytes().to_vec(), quiet.as_bytes().to_vec()];
                let endpoints = assert_matches_sequential(servers.clone(), &log, "flood");
                assert_eq!(endpoints[1].1.delivery().shed, 40);
                assert_eq!(endpoints[1].1.syncs_applied(), PENDING_CAP as u64);
                assert_eq!(endpoints[0].1.syncs_applied(), 3);
            }
        }
    }

    #[test]
    fn only_streams_past_the_cap_take_the_queued_path() {
        // A shard tick well above the cap in total (600 streams, one sync
        // each) with one stream flooded past it: only that stream is
        // flagged, every flag is cleared by the end of the tick, and the
        // tick stays bit-identical to the reference.
        let n = 600;
        let mut batch = FrameBatch::new();
        for id in 0..n {
            batch.push(id, &state_sync(&[id as f64], 0.5));
        }
        for i in 0..PENDING_CAP {
            let z = Vector::from_slice(&[(i as f64 * 0.3).sin()]);
            batch.push(7, &SyncMessage::Measurement { z });
        }
        let log = [batch.as_bytes().to_vec(), batch.as_bytes().to_vec()];
        let mut shard = Shard::new(walks(n));
        shard.engine.mark_floods(&log[0]);
        assert_eq!(shard.engine.floods, vec![7]);
        shard.engine.floods.clear();
        for slot in shard.engine.slots.values_mut() {
            slot.flood = false;
            slot.frames = 0;
        }
        shard.tick(&log[0]);
        assert!(shard.engine.floods.is_empty());
        assert!(shard
            .engine
            .slots
            .values()
            .all(|slot| !slot.flood && slot.frames == 0));
        let endpoints = assert_matches_sequential(walks(n), &log, "one flood");
        assert_eq!(endpoints[7].1.delivery().shed, 2);
        assert_eq!(endpoints[8].1.syncs_applied(), 2);
    }

    #[test]
    fn ten_pending_caps_for_one_stream_match_the_consumer_path() {
        let n = 10 * PENDING_CAP;
        let syncs: Vec<Bytes> = (0..n)
            .map(|i| {
                SyncMessage::Measurement {
                    z: Vector::from_slice(&[(i as f64 * 0.11).cos()]),
                }
                .encode()
            })
            .collect();
        let (_, mut consumer) = walks(1).pop().unwrap();
        let mut batch = FrameBatch::new();
        for body in &syncs {
            consumer.receive(0, body);
            batch.push_raw(0, body);
        }
        let mut out = [0.0];
        consumer.estimate(0, &mut out);
        let mut shard = Shard::new(walks(1));
        shard.tick(batch.as_bytes());
        let endpoints = shard.engine.finish();
        let (_, ep) = &endpoints[0];
        assert_eq!(filter_bits(ep), filter_bits(&consumer));
        assert_eq!(ep.delivery().shed, (n - PENDING_CAP) as u64);
        assert_eq!(ep.delivery(), consumer.delivery());
        assert_eq!(ep.syncs_applied(), consumer.syncs_applied());
    }

    #[test]
    fn carried_over_pending_drains_before_the_first_frame() {
        // Endpoints built with queued syncs (a recovered mid-tick snapshot):
        // a state sync and a measurement on a lane, a measurement on a
        // scalar filter, then traffic for the same streams in the first
        // tick. With `overflow`, stream 2's carried queue plus its frames
        // also pass the cap, which sends stream 2 down the queued path.
        for overflow in [false, true] {
            let mut servers = walks(3);
            servers.extend(simple_walks(2).into_iter().map(|(id, ep)| (id + 3, ep)));
            let carried = |v: f64| SyncMessage::Measurement {
                z: Vector::from_slice(&[v]),
            };
            servers[0].1.enqueue(state_sync(&[4.0], 0.5));
            servers[0].1.enqueue(carried(4.5));
            servers[3].1.enqueue(carried(-2.0));
            let mut batch = FrameBatch::new();
            batch.push(0, &state_sync(&[5.0], 0.25)); // direct onto the lane
            batch.push(3, &state_sync(&[1.0], 0.25));
            if overflow {
                for i in 0..200 {
                    servers[2].1.enqueue(carried(i as f64 * 0.1));
                }
                for i in 0..100 {
                    batch.push(2, &carried(-(i as f64) * 0.1));
                }
            }
            let quiet = FrameBatch::new();
            let log = [batch.as_bytes().to_vec(), quiet.as_bytes().to_vec()];
            let endpoints = assert_matches_sequential(servers, &log, "carried");
            assert_eq!(endpoints[0].1.syncs_applied(), 3);
            assert_eq!(
                endpoints[2].1.delivery().shed,
                if overflow { 44 } else { 0 }
            );
            assert!(endpoints.iter().all(|(_, ep)| ep.pending_len() == 0));
        }
    }

    #[test]
    fn feedback_due_at_construction_is_polled_first_tick_in_id_order() {
        // Reference: the per-endpoint tick — enqueue, advance, then poll
        // every endpoint in ascending id order.
        let build = || {
            let mut servers = walks(4);
            servers[3].1.push_bound_directive(0.5);
            servers[1].1.enqueue_wire(WireMessage::Sync {
                seq: Some(3),
                msg: state_sync(&[1.0], 0.5),
            });
            servers[1].1.push_bound_directive(0.25);
            servers
        };
        let mut batch = FrameBatch::new();
        batch.push_raw(2, &seq_body(1, state_sync(&[2.0], 0.5)));
        batch.push_raw(0, &seq_body(1, state_sync(&[3.0], 0.5)));
        let ticks = [batch.as_bytes().to_vec(), Vec::new()];

        let mut reference = build();
        let mut want = Vec::new();
        let mut decoder = FrameDecoder::new();
        for (t, wire) in ticks.iter().enumerate() {
            decoder
                .for_each_wire_message(wire, |id, msg| reference[id as usize].1.enqueue_wire(msg));
            for (id, ep) in reference.iter_mut() {
                ep.advance();
                while let Some(payload) = ep.poll_feedback(t as u64) {
                    want.push((*id, t, payload));
                }
            }
        }

        let mut shard = Shard::new(build());
        let mut got = Vec::new();
        for (t, wire) in ticks.iter().enumerate() {
            shard.tick(wire);
            shard
                .engine
                .poll_feedback(t as u64, |id, payload| got.push((id, t, payload)));
        }
        assert_eq!(got, want);
        assert_eq!(
            got.len(),
            5,
            "two acks and a bound for 1 and 3, acks for 0 and 2"
        );
        assert_same_endpoints(&shard.engine.finish(), &reference, "feedback");
    }
}
