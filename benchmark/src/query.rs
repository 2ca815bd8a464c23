//! The `query_feedback` workload: the paper's whole loop in one process.
//!
//! Live adaptive sources decide suppression, server endpoints serve
//! estimates, and a Q3-style [`QueryGraph`] scaled to the whole fleet —
//! per group an AVG with a contract, a threshold alert and a tumbling pane
//! over it, plus a fleet-wide AVG over the groups — evaluates every tick
//! with punctuation feedback on. Its per-stream grants go back to the
//! sources as `Bound` directives, floored to a geometric grid so directive
//! traffic stays bounded and a pushed delta never exceeds its grant.
//!
//! The endpoints are wrapped in [`TimedSource`] / [`TimedServer`], which
//! delegate every call to the real endpoint and, in a traced round, time
//! it.

use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use kalstream_core::{ServerEndpoint, SourceEndpoint};
use kalstream_query::{AggKind, QueryGraph, StreamId, StreamView};
use kalstream_sim::{
    run_lockstep, Consumer, DeliveryStats, LockstepStream, Producer, SessionConfig, Tick,
};

use crate::fleet;
use crate::trace::{Tally, Trace};

/// Streams per group (one AVG, alert and pane each).
pub const GROUP: u32 = 16;
const PANE: usize = 64;
const AVG_CONTRACT: f64 = 0.6;
const FLEET_CONTRACT: f64 = 0.8;
const PANE_CONTRACT: f64 = 0.3;
const ALERT_MARGIN: f64 = 0.1;
const LEVEL: f64 = 0.95;
/// Lowest delta a grant is floored to.
const DELTA_FLOOR: f64 = 1e-3;
/// Directive grid ratio: grants are floored to `DELTA_FLOOR · RATIO^n`.
const GRID_RATIO: f64 = 1.25;

/// Fleet and run shape of the query workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Streams in the fleet (a multiple of [`GROUP`]).
    pub streams: u32,
    /// Lockstep ticks per round.
    pub ticks: u64,
}

/// How a round deviates from the faithful loop (self-tests only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub enum Grants {
    /// Push each grant floored to the grid.
    Faithful,
    /// Push four times each grant: served deltas exceed their contracts.
    Inflated,
}

/// Per-layer call tallies of one traced round.
pub struct Probe {
    origin: Instant,
    sample: Tally,
    observe: Tally,
    feedback: Tally,
    receive: Tally,
    estimate: Tally,
}

impl Probe {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Times `f` into `tally` when a probe is present.
fn timed<R>(probe: &Option<Rc<Probe>>, pick: fn(&Probe) -> &Tally, f: impl FnOnce() -> R) -> R {
    match probe {
        None => f(),
        Some(p) => {
            let start = p.now();
            let r = f();
            pick(p).record(start, p.now());
            r
        }
    }
}

/// [`SourceEndpoint`] behind the simulator's [`Producer`] seam, timing
/// `observe` and `feedback` in traced rounds.
pub struct TimedSource {
    inner: SourceEndpoint,
    probe: Option<Rc<Probe>>,
}

impl Producer for TimedSource {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn observe(&mut self, now: Tick, observed: &[f64]) -> Option<Bytes> {
        let inner = &mut self.inner;
        timed(&self.probe, |p| &p.observe, || inner.observe(now, observed))
    }

    fn feedback(&mut self, now: Tick, payload: &Bytes) {
        let inner = &mut self.inner;
        timed(
            &self.probe,
            |p| &p.feedback,
            || inner.feedback(now, payload),
        );
    }
}

/// [`ServerEndpoint`] behind the simulator's [`Consumer`] seam, timing
/// `receive` and `estimate` in traced rounds.
pub struct TimedServer {
    inner: ServerEndpoint,
    probe: Option<Rc<Probe>>,
}

impl Consumer for TimedServer {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn receive(&mut self, now: Tick, payload: &Bytes) {
        let inner = &mut self.inner;
        timed(&self.probe, |p| &p.receive, || inner.receive(now, payload));
    }

    fn estimate(&mut self, now: Tick, out: &mut [f64]) {
        let inner = &mut self.inner;
        timed(&self.probe, |p| &p.estimate, || inner.estimate(now, out));
    }

    fn poll_feedback(&mut self, now: Tick) -> Option<Bytes> {
        self.inner.poll_feedback(now)
    }

    fn delivery_stats(&self) -> DeliveryStats {
        self.inner.delivery_stats()
    }

    fn served_variance(&self) -> Option<f64> {
        Consumer::served_variance(&self.inner)
    }
}

/// Group `g`'s alert threshold: a few natural group-average swings away
/// from zero, alternating sign, so alerts mostly sit far from their
/// threshold (punctuation relaxes them) and sometimes approach it. Part of
/// the query, not of the seeded input.
fn threshold(g: u32) -> f64 {
    if g.is_multiple_of(2) {
        3.0
    } else {
        -3.0
    }
}

/// The value nodes whose answers `verify_tick` checks, and the alerts.
struct Nodes {
    values: Vec<String>,
    alerts: u64,
}

fn build_graph(streams: u32) -> (QueryGraph, Nodes) {
    let mut g = QueryGraph::new();
    let mut values = Vec::new();
    for i in 0..streams {
        let id = format!("s{i}");
        g.add_raw(&id, StreamId(i as usize)).expect("fresh raw id");
        values.push(id);
    }
    let groups = streams / GROUP;
    let mut avgs = Vec::new();
    for grp in 0..groups {
        let members: Vec<String> = (grp * GROUP..(grp + 1) * GROUP)
            .map(|i| format!("s{i}"))
            .collect();
        let members: Vec<&str> = members.iter().map(String::as_str).collect();
        let avg = format!("g{grp}");
        g.add_aggregate(&avg, AggKind::Avg, &members, Some(AVG_CONTRACT))
            .expect("group aggregate");
        g.add_tumbling_avg(&format!("g{grp}_pane"), &avg, PANE, PANE_CONTRACT)
            .expect("group pane");
        g.add_alert(&format!("g{grp}_alert"), &avg, threshold(grp), ALERT_MARGIN)
            .expect("group alert");
        values.push(format!("g{grp}_pane"));
        values.push(avg.clone());
        avgs.push(avg);
    }
    let avgs: Vec<&str> = avgs.iter().map(String::as_str).collect();
    g.add_aggregate("fleet", AggKind::Avg, &avgs, Some(FLEET_CONTRACT))
        .expect("fleet aggregate");
    values.push("fleet".into());
    g.set_level(LEVEL);
    g.set_feedback(true);
    (
        g,
        Nodes {
            values,
            alerts: u64::from(groups),
        },
    )
}

/// Floors a grant to the directive grid (never above the grant).
fn grid_floor(d: f64) -> f64 {
    if d <= DELTA_FLOOR {
        return DELTA_FLOOR;
    }
    let n = ((d / DELTA_FLOOR).ln() / GRID_RATIO.ln()).floor() as i32;
    (DELTA_FLOOR * GRID_RATIO.powi(n)).min(d)
}

/// What one round measured.
pub struct Round {
    /// Fleet, endpoint and graph build.
    pub setup_s: f64,
    /// The lockstep run.
    pub timed_s: f64,
    /// Per tick: sample through answers served and directives pushed.
    pub latency_ns: Vec<u64>,
    /// Forward sync messages.
    pub messages: u64,
    /// Reverse (directive/ack) messages.
    pub feedback_messages: u64,
    /// Framed bytes both ways.
    pub wire_bytes: u64,
    /// Guarantee violations the graph counted.
    pub violations: u64,
    /// Largest served-bound / contract ratio.
    pub max_contract_ratio: f64,
    /// Answers checked: value-node checks plus alert verdicts.
    pub answers: u64,
    /// Empirical coverage of the distributional intervals.
    pub coverage: f64,
    /// Ticks × operators on which punctuation relaxed a grant.
    pub relaxations: u64,
    /// Bound directives pushed to server endpoints.
    pub directives: u64,
    /// Spans, when traced.
    pub trace: Option<Trace>,
}

/// Builds the fleet and graph, then runs `shape.ticks` lockstep ticks.
pub fn round(seed: u64, shape: Shape, grants: Grants, origin: Option<Instant>) -> Round {
    let setup_start = Instant::now();
    let probe = origin.map(|origin| {
        Rc::new(Probe {
            origin,
            sample: Tally::default(),
            observe: Tally::default(),
            feedback: Tally::default(),
            receive: Tally::default(),
            estimate: Tally::default(),
        })
    });
    let (mut g, nodes) = build_graph(shape.streams);
    let n = shape.streams as usize;
    let static_req = build_graph(shape.streams).0.required_deltas();
    let initial: Vec<f64> = (0..n)
        .map(|i| static_req[&StreamId(i)].max(DELTA_FLOOR))
        .collect();
    let mut streams: Vec<LockstepStream<'_, TimedSource, TimedServer>> = (0..n)
        .map(|i| {
            let parts = fleet::build_stream(seed, i as u32, Some(initial[i]));
            let mut gen = parts.gen;
            let mut first = Some(parts.first);
            let sample_probe = probe.clone();
            LockstepStream {
                producer: TimedSource {
                    inner: parts.source,
                    probe: probe.clone(),
                },
                consumer: TimedServer {
                    inner: parts.server,
                    probe: probe.clone(),
                },
                sampler: Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
                    timed(
                        &sample_probe,
                        |p| &p.sample,
                        || match first.take() {
                            Some(f) => {
                                obs[0] = f;
                                tru[0] = f;
                            }
                            None => gen.next_into(obs, tru),
                        },
                    )
                }),
            }
        })
        .collect();
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut trace = origin.map(Trace::new);
    let mut deltas_in_force = initial.clone();
    let mut last_pushed = initial;
    let mut directives = 0u64;
    let mut latency_ns = Vec::with_capacity(shape.ticks as usize);
    let mut views: Vec<StreamView> = Vec::with_capacity(n);
    let mut vars: Vec<f64> = Vec::with_capacity(n);
    let mut truth: Vec<f64> = Vec::with_capacity(n);
    let mut config = SessionConfig::instant(shape.ticks, AVG_CONTRACT);
    config.overhead_bytes = kalstream_core::FRAME_HEADER_BYTES;
    let start = Instant::now();
    let mut tick_start = start;
    let mut tick_start_ns = trace.as_ref().map_or(0, Trace::now);
    let report = run_lockstep(&config, &mut streams, |now, tick, streams| {
        let clock = |trace: &Option<Trace>| trace.as_ref().map_or(0, Trace::now);
        views.clear();
        vars.clear();
        truth.clear();
        for (i, s) in streams.iter().enumerate() {
            views.push(StreamView {
                value: tick.estimates[i][0],
                delta: deltas_in_force[i],
                staleness: s.consumer.inner.staleness(),
            });
            vars.push(tick.variances[i].unwrap_or(0.0));
            truth.push(tick.observed[i][0]);
        }
        let a = clock(&trace);
        g.observe_tick(&views, &vars);
        let b = clock(&trace);
        g.verify_tick(&truth);
        let c = clock(&trace);
        let req = g.required_deltas();
        let d = clock(&trace);
        for (i, s) in streams.iter_mut().enumerate() {
            let Some(&grant) = req.get(&StreamId(i)) else {
                continue;
            };
            let quantized = grid_floor(grant);
            if quantized != last_pushed[i] {
                let pushed = match grants {
                    Grants::Faithful => quantized,
                    Grants::Inflated => 4.0 * quantized,
                };
                s.consumer.inner.push_bound_directive(pushed);
                last_pushed[i] = quantized;
                directives += 1;
            }
        }
        for (slot, s) in deltas_in_force.iter_mut().zip(streams.iter()) {
            *slot = s.producer.inner.delta();
        }
        let end = Instant::now();
        latency_ns.push((end - tick_start).as_nanos() as u64);
        tick_start = end;
        if let (Some(tr), Some(p)) = (trace.as_mut(), probe.as_ref()) {
            let e = tr.now();
            let root = tr.span("query.lockstep.tick", None, now, tick_start_ns, e);
            tr.fold("gen.sample", root, now, &p.sample);
            tr.fold("core.source.observe", root, now, &p.observe);
            tr.fold("core.source.feedback", root, now, &p.feedback);
            tr.fold("core.server.receive", root, now, &p.receive);
            tr.fold("core.server.estimate", root, now, &p.estimate);
            tr.span("query.graph.observe_tick", Some(root), now, a, b);
            tr.span("query.graph.verify_tick", Some(root), now, b, c);
            tr.span("query.graph.required_deltas", Some(root), now, c, d);
            tr.span("query.directives", Some(root), now, d, e);
            tick_start_ns = e;
        }
    });
    let timed_s = start.elapsed().as_secs_f64();

    let feedback_messages: u64 = report
        .sessions
        .iter()
        .map(|s| s.ack_traffic.messages())
        .sum();
    let feedback_bytes: u64 = report.sessions.iter().map(|s| s.ack_traffic.bytes()).sum();
    let checked: u64 = nodes
        .values
        .iter()
        .filter_map(|id| g.node_coverage(id))
        .map(|(_, checked)| checked)
        .sum();
    Round {
        setup_s,
        timed_s,
        latency_ns,
        messages: report.total_traffic.messages(),
        feedback_messages,
        wire_bytes: report.total_traffic.bytes() + feedback_bytes,
        violations: g.violations(),
        max_contract_ratio: g.max_contract_ratio(),
        answers: checked + nodes.alerts * shape.ticks,
        coverage: g.coverage().unwrap_or(0.0),
        relaxations: g.relaxations(),
        directives,
        trace,
    }
}
