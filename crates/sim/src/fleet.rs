//! Parallel execution of many independent sessions (experiment F7's
//! 100-stream fleet and every parameter sweep), plus the multiplexed
//! ingest-mode fleet driver.

use crossbeam::channel;
use kalstream_obs::{Registry, Snapshot};

use crate::{
    metrics::{DeliveryStats, ErrorMetrics, FaultCounters},
    runner::max_norm_diff,
    transport::ACK_SEED_OFFSET,
    Consumer, IngestSink, Link, LinkFaults, Producer, SessionConfig, SessionReport, Tick,
    TrafficMetrics,
};

/// Aggregated result of a fleet run: per-session reports in submission
/// order, plus fleet-wide traffic totals.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-session reports, index-aligned with the submitted jobs.
    pub sessions: Vec<SessionReport>,
    /// Fleet-wide traffic (sum over sessions).
    pub total_traffic: TrafficMetrics,
    /// Fleet-wide link-fault injections (sum over sessions' forward links).
    pub total_faults: FaultCounters,
    /// Fleet-wide server-side delivery accounting (sum over sessions).
    pub total_delivery: DeliveryStats,
}

impl FleetReport {
    /// Total messages across the fleet.
    pub fn total_messages(&self) -> u64 {
        self.total_traffic.messages()
    }

    /// Mean per-session message rate.
    pub fn mean_message_rate(&self) -> f64 {
        if self.sessions.is_empty() {
            return 0.0;
        }
        self.sessions
            .iter()
            .map(SessionReport::message_rate)
            .sum::<f64>()
            / self.sessions.len() as f64
    }

    /// Total precision violations (vs. observed signal) across the fleet.
    pub fn total_violations(&self) -> u64 {
        self.sessions
            .iter()
            .map(|s| s.error_vs_observed.violations())
            .sum()
    }

    /// The fleet-aggregated snapshot (`fleet.*` metrics): traffic, fault,
    /// and delivery totals plus violation and session counts.
    pub fn snapshot(&self) -> Snapshot {
        let mut reg = Registry::new();
        let mut fleet = reg.scope("fleet");
        fleet.counter("sessions", self.sessions.len() as u64);
        fleet.counter("violations", self.total_violations());
        fleet.gauge("mean_message_rate", self.mean_message_rate());
        fleet.observe("traffic", &self.total_traffic);
        fleet.observe("faults", &self.total_faults);
        fleet.observe("delivery", &self.total_delivery);
        reg.snapshot()
    }

    /// The per-stream snapshot (`stream.<index>.*` metrics): every
    /// session's full report, index-aligned with the submitted jobs.
    /// Merging this with [`FleetReport::snapshot`] gives one artifact with
    /// both granularities.
    pub fn stream_snapshots(&self) -> Snapshot {
        let mut reg = Registry::new();
        let mut streams = reg.scope("stream");
        for (i, session) in self.sessions.iter().enumerate() {
            streams.observe(&i.to_string(), session);
        }
        reg.snapshot()
    }
}

/// Runs `jobs` across `threads` worker threads and collects their reports.
///
/// Each job is an independent closed-over session (stream + endpoints);
/// sessions themselves never synchronise — matching the real system, where
/// sources are independent devices. Work is distributed over a crossbeam
/// channel so long sessions don't convoy behind a static partition, and
/// workers send `(index, report)` pairs back over a second channel — no
/// shared lock anywhere, so a slow session never blocks another's result
/// hand-off.
///
/// # Panics
/// Panics if a worker thread panics (propagated by `std::thread::scope`).
pub fn run_fleet<F>(jobs: Vec<F>, threads: usize) -> FleetReport
where
    F: FnOnce() -> SessionReport + Send,
{
    let n = jobs.len();
    let threads = threads.max(1).min(n.max(1));
    let (tx, rx) = channel::unbounded::<(usize, F)>();
    for job in jobs.into_iter().enumerate() {
        tx.send(job).expect("channel open");
    }
    drop(tx);
    let (report_tx, report_rx) = channel::unbounded::<(usize, SessionReport)>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let rx = rx.clone();
            let report_tx = report_tx.clone();
            scope.spawn(move || {
                while let Ok((idx, job)) = rx.recv() {
                    let report = job();
                    report_tx.send((idx, report)).expect("collector alive");
                }
            });
        }
    });
    drop(report_tx);

    // Workers finish in arbitrary order; restore submission order by index.
    let mut slots: Vec<Option<SessionReport>> = (0..n).map(|_| None).collect();
    while let Ok((idx, report)) = report_rx.recv() {
        slots[idx] = Some(report);
    }
    let sessions: Vec<SessionReport> = slots
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect();
    let mut total_traffic = TrafficMetrics::default();
    let mut total_faults = FaultCounters::default();
    let mut total_delivery = DeliveryStats::default();
    for s in &sessions {
        total_traffic.merge(&s.traffic);
        total_faults.merge(&s.faults);
        total_delivery.merge(&s.delivery);
    }
    FleetReport {
        sessions,
        total_traffic,
        total_faults,
        total_delivery,
    }
}

/// A boxed `(observed, truth)` sampler, as carried by [`IngestStream`].
pub type BoxedSampler<'a> = Box<dyn FnMut(&mut [f64], &mut [f64]) + 'a>;

/// One phase of a [`LoadSwing`]: hold `amplitude` for `ticks` ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPhase {
    /// How long the phase lasts.
    pub ticks: u64,
    /// Signal amplitude during the phase. Under a deadband/suppression
    /// producer with threshold δ, amplitudes well above δ make nearly every
    /// tick ship while amplitudes well below δ suppress nearly everything —
    /// so the phase schedule *is* the offered-load schedule.
    pub amplitude: f64,
}

/// A deterministic piecewise-constant load schedule for swing scenarios:
/// the elastic-scaling experiments drive grow/shrink decisions by swinging
/// signal volatility (and therefore suppression failures, and therefore
/// message rate) through these phases.
///
/// The final phase extends indefinitely, so a swing can be shorter than the
/// run that consumes it.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSwing {
    phases: Vec<LoadPhase>,
}

impl LoadSwing {
    /// Builds a swing from its phases.
    ///
    /// # Panics
    /// Panics on an empty schedule or a zero-length phase — both would make
    /// [`LoadSwing::amplitude_at`] ill-defined.
    pub fn new(phases: Vec<LoadPhase>) -> LoadSwing {
        assert!(!phases.is_empty(), "a load swing needs at least one phase");
        assert!(
            phases.iter().all(|p| p.ticks > 0),
            "every phase must last at least one tick"
        );
        LoadSwing { phases }
    }

    /// Sum of the phase lengths (the swing's natural duration; runs may be
    /// longer, in which case the last phase extends).
    pub fn total_ticks(&self) -> u64 {
        self.phases.iter().map(|p| p.ticks).sum()
    }

    /// The amplitude in force at `tick`. Past the end of the schedule the
    /// final phase's amplitude holds.
    pub fn amplitude_at(&self, tick: u64) -> f64 {
        let mut start = 0u64;
        for phase in &self.phases {
            if tick < start + phase.ticks {
                return phase.amplitude;
            }
            start += phase.ticks;
        }
        self.phases
            .last()
            .expect("non-empty by construction")
            .amplitude
    }

    /// The phase schedule.
    pub fn phases(&self) -> &[LoadPhase] {
        &self.phases
    }

    /// A self-clocking sampler for `stream_id`: an amplitude-modulated
    /// sinusoid `A(t) · sin(0.9·t + id)`, with `A(t)` from the schedule and
    /// truth equal to the clean signal. Deterministic — two samplers built
    /// from the same swing and id produce bit-identical sequences — and
    /// self-clocking, so a run may be split across several fleet-driver
    /// calls (e.g. one per phase, to measure per-phase traffic) without
    /// losing its place in the schedule.
    pub fn sampler(&self, stream_id: u32) -> BoxedSampler<'static> {
        let swing = self.clone();
        let mut tick = 0u64;
        Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
            let amplitude = swing.amplitude_at(tick);
            let v = amplitude * (0.9 * tick as f64 + stream_id as f64).sin();
            tick += 1;
            obs[0] = v;
            tru[0] = v;
        })
    }
}

/// One stream in an ingest-mode fleet: its id, source-side producer, and
/// the sampler generating its observations.
pub struct IngestStream<'a> {
    /// The stream's multiplexing key (what the ingest layer shards on).
    pub stream_id: u32,
    /// Source-side policy deciding what goes on the wire.
    pub producer: Box<dyn Producer + 'a>,
    /// Fills `(observed, truth)` each tick.
    pub sampler: BoxedSampler<'a>,
}

/// Traffic outcome of an ingest-mode fleet run (source side; the server
/// side's per-shard story comes from the sink's own reporting).
#[derive(Debug)]
pub struct IngestFleetReport {
    /// Ticks simulated.
    pub ticks: u64,
    /// Fleet-wide traffic (sum over streams).
    pub total_traffic: TrafficMetrics,
    /// Per-stream traffic, index-aligned with the submitted streams.
    pub per_stream: Vec<TrafficMetrics>,
    /// Fault injections summed over every stream's link (all zero for the
    /// reliable [`run_fleet_ingest`] path).
    pub faults: FaultCounters,
}

impl IngestFleetReport {
    /// The fleet-aggregated snapshot (`fleet.*` metrics) of the source
    /// side of an ingest run.
    pub fn snapshot(&self) -> Snapshot {
        let mut reg = Registry::new();
        let mut fleet = reg.scope("fleet");
        fleet.counter("streams", self.per_stream.len() as u64);
        fleet.counter("ticks", self.ticks);
        fleet.observe("traffic", &self.total_traffic);
        fleet.observe("faults", &self.faults);
        reg.snapshot()
    }

    /// The per-stream traffic snapshot (`stream.<index>.traffic.*`).
    pub fn stream_snapshots(&self) -> Snapshot {
        let mut reg = Registry::new();
        let mut streams = reg.scope("stream");
        for (i, traffic) in self.per_stream.iter().enumerate() {
            let mut stream = streams.scope(&i.to_string());
            stream.observe("traffic", traffic);
        }
        reg.snapshot()
    }
}

/// Drives many streams against one multiplexed [`IngestSink`] — the
/// server-side ingest mode, where the fleet's traffic converges on a single
/// batched channel instead of one consumer per session.
///
/// Per tick: every stream samples and may transmit (through its own
/// zero-latency [`Link`], which prices each message with `overhead_bytes`
/// of framing); every delivered message is pushed into the sink tagged with
/// its stream id; then [`IngestSink::end_tick`] closes the tick, advancing
/// all server-side endpoints at once. Zero latency preserves the protocol's
/// correction-visible-same-tick semantics, so an ingest-mode server is
/// bit-identical to the same endpoints run through [`crate::Session::run`].
pub fn run_fleet_ingest<S: IngestSink + ?Sized>(
    streams: &mut [IngestStream<'_>],
    ticks: u64,
    overhead_bytes: usize,
    sink: &mut S,
) -> IngestFleetReport {
    run_fleet_ingest_faulty(streams, ticks, overhead_bytes, LinkFaults::default(), sink)
}

/// [`run_fleet_ingest`] with fault injection on every stream's link.
///
/// Each stream gets its own fault RNG, seeded from `faults.seed` xor'd with
/// the stream's index, so per-stream fault schedules are independent but the
/// whole fleet run stays deterministic for a given profile. A no-op profile
/// (`faults.is_noop()`) degenerates to the reliable path bit-for-bit.
pub fn run_fleet_ingest_faulty<S: IngestSink + ?Sized>(
    streams: &mut [IngestStream<'_>],
    ticks: u64,
    overhead_bytes: usize,
    faults: LinkFaults,
    sink: &mut S,
) -> IngestFleetReport {
    let mut links: Vec<Link> = streams
        .iter()
        .enumerate()
        .map(|(i, _)| {
            Link::with_faults(
                0,
                overhead_bytes,
                LinkFaults {
                    seed: faults.seed ^ i as u64,
                    ..faults
                },
            )
        })
        .collect();
    let mut observed: Vec<Vec<f64>> = streams
        .iter()
        .map(|s| vec![0.0; s.producer.dim()])
        .collect();
    let mut truth: Vec<Vec<f64>> = streams
        .iter()
        .map(|s| vec![0.0; s.producer.dim()])
        .collect();
    for now in 0..ticks {
        for (i, stream) in streams.iter_mut().enumerate() {
            (stream.sampler)(&mut observed[i], &mut truth[i]);
            if let Some(payload) = stream.producer.observe(now, &observed[i]) {
                links[i].send_tagged(now, stream.stream_id, payload);
            }
            for msg in links[i].deliver(now) {
                sink.push(msg.stream_id, &msg.payload);
            }
        }
        sink.end_tick();
    }
    let per_stream: Vec<TrafficMetrics> = links.iter().map(|l| l.traffic().clone()).collect();
    let mut total_traffic = TrafficMetrics::default();
    for t in &per_stream {
        total_traffic.merge(t);
    }
    let mut fault_totals = FaultCounters::default();
    for l in &links {
        fault_totals.merge(&l.fault_counters());
    }
    IngestFleetReport {
        ticks,
        total_traffic,
        per_stream,
        faults: fault_totals,
    }
}

/// One stream in a lockstep fleet: its endpoints plus the sampler
/// generating its observations.
pub struct LockstepStream<'a, P, C> {
    /// Source-side policy deciding what goes on the wire.
    pub producer: P,
    /// Server-side estimator consuming the wire.
    pub consumer: C,
    /// Fills `(observed, truth)` each tick.
    pub sampler: BoxedSampler<'a>,
}

/// Read-only view of one lockstep tick, handed to the per-tick hook:
/// everything sampled and estimated this tick, index-aligned with the
/// streams.
pub struct LockstepTick<'t> {
    /// Per-stream observations of this tick.
    pub observed: &'t [Vec<f64>],
    /// Per-stream ground truth of this tick.
    pub truth: &'t [Vec<f64>],
    /// Per-stream server estimates of this tick.
    pub estimates: &'t [Vec<f64>],
    /// Per-stream predictive variance of the estimate
    /// ([`Consumer::served_variance`]), `None` for consumers that track no
    /// uncertainty. Query layers use this to serve distributional answers.
    pub variances: &'t [Option<f64>],
}

/// Drives many sessions in lockstep — all streams advance through the same
/// tick together — and fires a fleet-level hook after each tick.
///
/// Per stream, each tick follows [`crate::Session::run`]'s order exactly
/// (sample → observe → deliver → estimate → feedback poll → feedback
/// deliver → score), so with a no-op hook a lockstep stream is
/// bit-identical to the same endpoints run through `Session::run` alone.
/// The hook then sees the whole fleet at once — this is where a consumer-side
/// controller (e.g. a query runtime allocating message budget) reads every
/// server's state and pushes per-stream control back into the endpoints;
/// feedback queued by the hook at tick `t` rides the reverse link when it is
/// next polled, at tick `t + 1`.
///
/// Fault determinism matches the other fleet drivers: stream `i`'s forward
/// link seeds from `faults.seed ^ i` and its reverse link from
/// `(faults.seed ^ ACK_SEED_OFFSET) ^ i`, so per-stream schedules are
/// independent but the run is reproducible.
///
/// # Panics
/// Panics when a producer/consumer pair disagrees on dimensionality.
pub fn run_lockstep<'a, P, C, H>(
    config: &SessionConfig,
    streams: &mut [LockstepStream<'a, P, C>],
    hook: H,
) -> FleetReport
where
    P: Producer,
    C: Consumer,
    H: FnMut(Tick, &LockstepTick<'_>, &mut [LockstepStream<'a, P, C>]),
{
    run_lockstep_with_crashes(config, streams, &[], |_, _, _| {}, hook)
}

/// [`run_lockstep`] with consumer-crash injection: at the end of every tick
/// listed in `crash_ticks`, `rebuild(now, i, &mut consumer)` fires for each
/// stream and may replace the consumer's state wholesale — modelling a
/// server process that died and came back (from a durability layer, from
/// scratch, from anything the closure encodes).
///
/// The schedule models **state** loss with the transport intact: producers,
/// links, and in-flight messages carry across the crash untouched. That is
/// the deliberate complement of `TcpTransport::kill_at`, which models
/// *connection* loss with state intact — together the two span the failure
/// plane, and the durability proptests drive this axis: a rebuild closure
/// that restores from snapshot+WAL must keep the fleet bit-identical to an
/// uncrashed run, while one that resets state visibly diverges.
///
/// With an empty schedule (or a no-op closure) this is exactly
/// [`run_lockstep`] — bit for bit, the tick loop is shared.
///
/// # Panics
/// Panics when a producer/consumer pair disagrees on dimensionality.
pub fn run_lockstep_with_crashes<'a, P, C, H, R>(
    config: &SessionConfig,
    streams: &mut [LockstepStream<'a, P, C>],
    crash_ticks: &[Tick],
    mut rebuild: R,
    mut hook: H,
) -> FleetReport
where
    P: Producer,
    C: Consumer,
    H: FnMut(Tick, &LockstepTick<'_>, &mut [LockstepStream<'a, P, C>]),
    R: FnMut(Tick, usize, &mut C),
{
    let n = streams.len();
    let faults = config.faults();
    let mut links = Vec::with_capacity(n);
    let mut ack_links = Vec::with_capacity(n);
    for i in 0..n {
        links.push(Link::with_faults(
            config.latency,
            config.overhead_bytes,
            LinkFaults {
                seed: faults.seed ^ i as u64,
                ..faults
            },
        ));
        ack_links.push(Link::with_faults(
            config.latency,
            config.overhead_bytes,
            LinkFaults {
                seed: (faults.seed ^ ACK_SEED_OFFSET) ^ i as u64,
                ..faults
            },
        ));
    }
    let dims: Vec<usize> = streams
        .iter()
        .map(|s| {
            let dim = s.producer.dim();
            assert_eq!(
                dim,
                s.consumer.dim(),
                "producer/consumer dimension mismatch"
            );
            dim
        })
        .collect();
    let mut observed: Vec<Vec<f64>> = dims.iter().map(|&d| vec![0.0; d]).collect();
    let mut truth: Vec<Vec<f64>> = dims.iter().map(|&d| vec![0.0; d]).collect();
    let mut estimates: Vec<Vec<f64>> = dims.iter().map(|&d| vec![0.0; d]).collect();
    let mut err_obs: Vec<ErrorMetrics> = (0..n).map(|_| ErrorMetrics::new(config.delta)).collect();
    let mut err_truth: Vec<ErrorMetrics> =
        (0..n).map(|_| ErrorMetrics::new(config.delta)).collect();
    let mut variances: Vec<Option<f64>> = vec![None; n];

    for now in 0..config.ticks {
        for (i, stream) in streams.iter_mut().enumerate() {
            (stream.sampler)(&mut observed[i], &mut truth[i]);
            if let Some(payload) = stream.producer.observe(now, &observed[i]) {
                links[i].send(now, payload);
            }
            for msg in links[i].deliver(now) {
                stream.consumer.receive(now, &msg.payload);
            }
            stream.consumer.estimate(now, &mut estimates[i]);
            variances[i] = stream.consumer.served_variance();
            while let Some(fb) = stream.consumer.poll_feedback(now) {
                ack_links[i].send(now, fb);
            }
            for msg in ack_links[i].deliver(now) {
                stream.producer.feedback(now, &msg.payload);
            }
            err_obs[i].record(max_norm_diff(&estimates[i], &observed[i]));
            err_truth[i].record(max_norm_diff(&estimates[i], &truth[i]));
        }
        hook(
            now,
            &LockstepTick {
                observed: &observed,
                truth: &truth,
                estimates: &estimates,
                variances: &variances,
            },
            streams,
        );
        if crash_ticks.contains(&now) {
            for (i, stream) in streams.iter_mut().enumerate() {
                rebuild(now, i, &mut stream.consumer);
            }
        }
    }

    let sessions: Vec<SessionReport> = streams
        .iter()
        .enumerate()
        .map(|(i, s)| SessionReport {
            ticks: config.ticks,
            traffic: links[i].traffic().clone(),
            error_vs_observed: err_obs[i].clone(),
            error_vs_truth: err_truth[i].clone(),
            faults: links[i].fault_counters(),
            delivery: s.consumer.delivery_stats(),
            ack_traffic: ack_links[i].traffic().clone(),
        })
        .collect();
    let mut total_traffic = TrafficMetrics::default();
    let mut total_faults = FaultCounters::default();
    let mut total_delivery = DeliveryStats::default();
    for s in &sessions {
        total_traffic.merge(&s.traffic);
        total_faults.merge(&s.faults);
        total_delivery.merge(&s.delivery);
    }
    FleetReport {
        sessions,
        total_traffic,
        total_faults,
        total_delivery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Consumer, Producer, Session, SessionConfig, Tick};
    use bytes::Bytes;

    struct ShipAll;
    struct Hold(f64);

    impl Producer for ShipAll {
        fn dim(&self) -> usize {
            1
        }
        fn observe(&mut self, _: Tick, observed: &[f64]) -> Option<Bytes> {
            Some(Bytes::copy_from_slice(&observed[0].to_le_bytes()))
        }
    }
    impl Consumer for Hold {
        fn dim(&self) -> usize {
            1
        }
        fn receive(&mut self, _: Tick, payload: &Bytes) {
            let mut b = [0u8; 8];
            b.copy_from_slice(payload);
            self.0 = f64::from_le_bytes(b);
        }
        fn estimate(&mut self, _: Tick, out: &mut [f64]) {
            out[0] = self.0;
        }
    }

    fn job(ticks: u64) -> impl FnOnce() -> SessionReport + Send {
        move || {
            let config = SessionConfig::instant(ticks, 1.0);
            let mut p = ShipAll;
            let mut c = Hold(0.0);
            let mut v = 0.0;
            Session::run(
                &config,
                move |obs, tru| {
                    v += 1.0;
                    obs[0] = v;
                    tru[0] = v;
                },
                &mut p,
                &mut c,
                &mut (),
            )
        }
    }

    #[test]
    fn fleet_preserves_job_order() {
        let jobs: Vec<_> = (1..=8u64).map(|i| job(i * 10)).collect();
        let report = run_fleet(jobs, 4);
        assert_eq!(report.sessions.len(), 8);
        for (i, s) in report.sessions.iter().enumerate() {
            assert_eq!(s.ticks, (i as u64 + 1) * 10);
        }
    }

    #[test]
    fn fleet_totals_add_up() {
        let jobs: Vec<_> = (0..5).map(|_| job(100)).collect();
        let report = run_fleet(jobs, 2);
        assert_eq!(report.total_messages(), 500);
        assert!((report.mean_message_rate() - 1.0).abs() < 1e-12);
        assert_eq!(report.total_violations(), 0);
        // A reliable fleet reports no injected faults and no delivery drops.
        assert_eq!(report.total_faults, FaultCounters::default());
        assert_eq!(report.total_delivery, DeliveryStats::default());
    }

    #[test]
    fn single_thread_and_many_threads_agree() {
        let a = run_fleet((0..6).map(|_| job(50)).collect::<Vec<_>>(), 1);
        let b = run_fleet((0..6).map(|_| job(50)).collect::<Vec<_>>(), 8);
        assert_eq!(a.total_messages(), b.total_messages());
    }

    #[test]
    fn empty_fleet() {
        let report = run_fleet(Vec::<fn() -> SessionReport>::new(), 4);
        assert_eq!(report.sessions.len(), 0);
        assert_eq!(report.mean_message_rate(), 0.0);
    }

    /// Sink that records (stream_id, decoded value) pushes and tick closes.
    #[derive(Default)]
    struct Recorder {
        pushes: Vec<(u32, f64)>,
        ticks_closed: u64,
    }

    impl crate::IngestSink for Recorder {
        fn push(&mut self, stream_id: u32, payload: &Bytes) {
            let mut b = [0u8; 8];
            b.copy_from_slice(payload);
            self.pushes.push((stream_id, f64::from_le_bytes(b)));
        }
        fn end_tick(&mut self) {
            self.ticks_closed += 1;
        }
    }

    #[test]
    fn ingest_fleet_multiplexes_all_streams_into_one_sink() {
        let mut streams: Vec<IngestStream<'_>> = (0..3u32)
            .map(|id| IngestStream {
                stream_id: id * 10,
                producer: Box::new(ShipAll),
                sampler: Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
                    obs[0] = id as f64;
                    tru[0] = id as f64;
                }),
            })
            .collect();
        let mut sink = Recorder::default();
        let report = run_fleet_ingest(&mut streams, 5, 8, &mut sink);
        assert_eq!(report.ticks, 5);
        assert_eq!(sink.ticks_closed, 5);
        // Ship-all: 3 streams × 5 ticks, tagged with their ids, in order.
        assert_eq!(sink.pushes.len(), 15);
        assert_eq!(sink.pushes[0..3], [(0, 0.0), (10, 1.0), (20, 2.0)]);
        assert_eq!(report.total_traffic.messages(), 15);
        // Each payload is 8 bytes (one f64) + 8 bytes declared overhead.
        assert_eq!(report.total_traffic.bytes(), 15 * 16);
        assert_eq!(report.per_stream.len(), 3);
        assert!(report.per_stream.iter().all(|t| t.messages() == 5));
        assert_eq!(report.faults, FaultCounters::default());
    }

    #[test]
    fn faulty_ingest_fleet_drops_and_counts() {
        let make_streams = || -> Vec<IngestStream<'_>> {
            (0..4u32)
                .map(|id| IngestStream {
                    stream_id: id,
                    producer: Box::new(ShipAll),
                    sampler: Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
                        obs[0] = id as f64;
                        tru[0] = id as f64;
                    }),
                })
                .collect()
        };

        let mut sink = Recorder::default();
        let faults = LinkFaults {
            loss: 0.5,
            seed: 7,
            ..LinkFaults::default()
        };
        let report = run_fleet_ingest_faulty(&mut make_streams(), 100, 0, faults, &mut sink);
        assert!(
            report.faults.dropped > 0,
            "50% loss over 400 sends must drop"
        );
        assert_eq!(
            sink.pushes.len() as u64 + report.faults.dropped,
            400,
            "every send is either delivered or counted dropped"
        );
        // The sender is charged for every send, dropped or not.
        assert_eq!(report.total_traffic.messages(), 400);

        // A no-op profile is bit-identical to the reliable entry point.
        let mut sink_a = Recorder::default();
        let mut sink_b = Recorder::default();
        let a = run_fleet_ingest(&mut make_streams(), 50, 8, &mut sink_a);
        let b = run_fleet_ingest_faulty(
            &mut make_streams(),
            50,
            8,
            LinkFaults::default(),
            &mut sink_b,
        );
        assert_eq!(sink_a.pushes, sink_b.pushes);
        assert_eq!(a.total_traffic.bytes(), b.total_traffic.bytes());
        assert_eq!(b.faults, FaultCounters::default());
    }

    /// Ships every k-th sample; `k` is adjustable mid-run (what a lockstep
    /// hook retunes).
    struct EveryKth {
        k: u64,
    }
    impl Producer for EveryKth {
        fn dim(&self) -> usize {
            1
        }
        fn observe(&mut self, now: Tick, observed: &[f64]) -> Option<Bytes> {
            now.is_multiple_of(self.k)
                .then(|| Bytes::copy_from_slice(&observed[0].to_le_bytes()))
        }
    }

    fn counting_sampler(step: f64) -> crate::BoxedSampler<'static> {
        let mut v = 0.0;
        Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
            v += step;
            obs[0] = v;
            tru[0] = v;
        })
    }

    #[test]
    fn lockstep_with_noop_hook_matches_session_run() {
        let config = SessionConfig::instant(80, 5.0);
        let mut streams: Vec<LockstepStream<'_, EveryKth, Hold>> = (1..=3u64)
            .map(|k| LockstepStream {
                producer: EveryKth { k },
                consumer: Hold(0.0),
                sampler: counting_sampler(k as f64),
            })
            .collect();
        let fleet = run_lockstep(&config, &mut streams, |_, _, _| {});
        for (i, k) in (1..=3u64).enumerate() {
            let mut p = EveryKth { k };
            let mut c = Hold(0.0);
            let solo = Session::run(&config, counting_sampler(k as f64), &mut p, &mut c, &mut ());
            assert_eq!(fleet.sessions[i].traffic, solo.traffic, "stream {i}");
            assert_eq!(
                fleet.sessions[i].error_vs_observed.max_abs(),
                solo.error_vs_observed.max_abs(),
                "stream {i}"
            );
        }
    }

    #[test]
    fn lockstep_hook_sees_the_tick_and_can_retune_producers() {
        let config = SessionConfig::instant(100, 100.0);
        let mut streams: Vec<LockstepStream<'_, EveryKth, Hold>> = (0..2)
            .map(|_| LockstepStream {
                producer: EveryKth { k: 1 },
                consumer: Hold(0.0),
                sampler: counting_sampler(1.0),
            })
            .collect();
        let mut observed_ticks = 0u64;
        let fleet = run_lockstep(&config, &mut streams, |now, tick, streams| {
            observed_ticks += 1;
            assert_eq!(tick.observed.len(), 2);
            assert_eq!(tick.observed[0][0], (now + 1) as f64);
            // Halfway through, drop stream 0 to every-10th shipping.
            if now == 49 {
                streams[0].producer.k = 10;
            }
        });
        assert_eq!(observed_ticks, 100);
        // Stream 0: 50 ship-all ticks + 5 every-10th ticks (50, 60, ..., 90).
        assert_eq!(fleet.sessions[0].traffic.messages(), 55);
        assert_eq!(fleet.sessions[1].traffic.messages(), 100);
    }

    fn crash_streams() -> Vec<LockstepStream<'static, EveryKth, Hold>> {
        (0..2)
            .map(|_| LockstepStream {
                producer: EveryKth { k: 10 },
                consumer: Hold(0.0),
                sampler: counting_sampler(1.0),
            })
            .collect()
    }

    #[test]
    fn lockstep_crash_with_noop_rebuild_is_bit_identical_to_plain_run() {
        let config = SessionConfig::instant(100, 1000.0);
        let mut plain = crash_streams();
        let reference = run_lockstep(&config, &mut plain, |_, _, _| {});
        let mut crashed = crash_streams();
        let mut fired = Vec::new();
        let report = run_lockstep_with_crashes(
            &config,
            &mut crashed,
            &[13, 55, 99],
            |now, i, _consumer: &mut Hold| fired.push((now, i)),
            |_, _, _| {},
        );
        assert_eq!(
            fired,
            vec![(13, 0), (13, 1), (55, 0), (55, 1), (99, 0), (99, 1)]
        );
        for (r, p) in report.sessions.iter().zip(&reference.sessions) {
            assert_eq!(r.traffic, p.traffic);
            assert_eq!(
                r.error_vs_observed.max_abs().to_bits(),
                p.error_vs_observed.max_abs().to_bits()
            );
        }
    }

    #[test]
    fn lockstep_crash_that_loses_state_visibly_diverges() {
        // EveryKth{k:10} consumers coast on a held value between ships;
        // zeroing that value mid-coast is unrecovered state loss and must
        // show up in the error metric.
        let config = SessionConfig::instant(100, 1000.0);
        let mut plain = crash_streams();
        let reference = run_lockstep(&config, &mut plain, |_, _, _| {});
        let mut crashed = crash_streams();
        let report = run_lockstep_with_crashes(
            &config,
            &mut crashed,
            &[55],
            |_, _, consumer: &mut Hold| consumer.0 = 0.0,
            |_, _, _| {},
        );
        // Transport untouched: the producers shipped exactly the same bytes.
        assert_eq!(report.sessions[0].traffic, reference.sessions[0].traffic);
        // But the fleet coasted on zero from tick 56 until the tick-60 ship.
        assert!(
            report.sessions[0].error_vs_observed.max_abs()
                > reference.sessions[0].error_vs_observed.max_abs()
        );
    }

    /// Ships only when the observation moved more than δ since the last
    /// ship — the suppression discipline the load swing is built to defeat
    /// (high amplitude) or satisfy (low amplitude).
    struct Deadband {
        delta: f64,
        last: f64,
    }
    impl Producer for Deadband {
        fn dim(&self) -> usize {
            1
        }
        fn observe(&mut self, _: Tick, observed: &[f64]) -> Option<Bytes> {
            if (observed[0] - self.last).abs() > self.delta {
                self.last = observed[0];
                Some(Bytes::copy_from_slice(&observed[0].to_le_bytes()))
            } else {
                None
            }
        }
    }

    #[test]
    fn load_swing_schedule_is_piecewise_with_extending_tail() {
        let swing = LoadSwing::new(vec![
            LoadPhase {
                ticks: 10,
                amplitude: 4.0,
            },
            LoadPhase {
                ticks: 5,
                amplitude: 0.01,
            },
        ]);
        assert_eq!(swing.total_ticks(), 15);
        assert_eq!(swing.phases().len(), 2);
        assert_eq!(swing.amplitude_at(0), 4.0);
        assert_eq!(swing.amplitude_at(9), 4.0);
        assert_eq!(swing.amplitude_at(10), 0.01);
        assert_eq!(swing.amplitude_at(14), 0.01);
        // The final phase extends indefinitely.
        assert_eq!(swing.amplitude_at(10_000), 0.01);
    }

    #[test]
    fn load_swing_samplers_are_deterministic() {
        let swing = LoadSwing::new(vec![
            LoadPhase {
                ticks: 7,
                amplitude: 2.0,
            },
            LoadPhase {
                ticks: 7,
                amplitude: 0.1,
            },
        ]);
        let mut a = swing.sampler(3);
        let mut b = swing.sampler(3);
        let (mut oa, mut ta) = ([0.0], [0.0]);
        let (mut ob, mut tb) = ([0.0], [0.0]);
        for _ in 0..20 {
            a(&mut oa, &mut ta);
            b(&mut ob, &mut tb);
            assert_eq!(oa[0].to_bits(), ob[0].to_bits());
            assert_eq!(oa[0].to_bits(), ta[0].to_bits());
        }
    }

    #[test]
    fn load_swing_drives_a_big_message_rate_swing_through_suppression() {
        let swing = LoadSwing::new(vec![
            LoadPhase {
                ticks: 50,
                amplitude: 4.0,
            },
            LoadPhase {
                ticks: 50,
                amplitude: 0.01,
            },
        ]);
        let mut streams: Vec<IngestStream<'_>> = (0..4u32)
            .map(|id| IngestStream {
                stream_id: id,
                producer: Box::new(Deadband {
                    delta: 0.2,
                    last: 0.0,
                }),
                sampler: swing.sampler(id),
            })
            .collect();
        // Samplers self-clock, so running one fleet call per phase measures
        // per-phase traffic without losing schedule position.
        let mut sink = Recorder::default();
        let high = run_fleet_ingest(&mut streams, 50, 0, &mut sink)
            .total_traffic
            .messages();
        let low = run_fleet_ingest(&mut streams, 50, 0, &mut sink)
            .total_traffic
            .messages();
        assert!(
            high >= 4 * low.max(1),
            "high-amplitude phase must offer ≥4× the load: high={high} low={low}"
        );
    }

    #[test]
    fn fleet_snapshots_expose_totals_and_streams() {
        let jobs: Vec<_> = (0..3).map(|_| job(100)).collect();
        let report = run_fleet(jobs, 2);
        let fleet = report.snapshot();
        assert_eq!(fleet.counter("fleet.sessions"), Some(3));
        assert_eq!(fleet.counter("fleet.traffic.messages"), Some(300));
        assert_eq!(fleet.counter("fleet.violations"), Some(0));

        let streams = report.stream_snapshots();
        assert_eq!(streams.counter("stream.0.traffic.messages"), Some(100));
        assert_eq!(streams.counter("stream.2.ticks"), Some(100));

        // Merging granularities yields one artifact with both.
        let mut merged = fleet.clone();
        merged.merge(&streams);
        assert_eq!(merged.counter("fleet.traffic.messages"), Some(300));
        assert_eq!(merged.counter("stream.1.traffic.messages"), Some(100));

        // Determinism: an identical run snapshots byte-identically.
        let again = run_fleet((0..3).map(|_| job(100)).collect::<Vec<_>>(), 2);
        assert_eq!(again.snapshot().to_json(), fleet.to_json());
        assert_eq!(again.stream_snapshots().to_json(), streams.to_json());
    }

    #[test]
    fn ingest_fleet_snapshots_expose_totals_and_streams() {
        let mut streams: Vec<IngestStream<'_>> = (0..2u32)
            .map(|id| IngestStream {
                stream_id: id,
                producer: Box::new(ShipAll),
                sampler: Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
                    obs[0] = id as f64;
                    tru[0] = id as f64;
                }),
            })
            .collect();
        let mut sink = Recorder::default();
        let report = run_fleet_ingest(&mut streams, 5, 8, &mut sink);
        let fleet = report.snapshot();
        assert_eq!(fleet.counter("fleet.streams"), Some(2));
        assert_eq!(fleet.counter("fleet.ticks"), Some(5));
        assert_eq!(fleet.counter("fleet.traffic.messages"), Some(10));
        let per_stream = report.stream_snapshots();
        assert_eq!(per_stream.counter("stream.0.traffic.messages"), Some(5));
        assert_eq!(per_stream.counter("stream.1.traffic.bytes"), Some(5 * 16));
    }
}
