//! Workload drivers: set up, run rounds for the requested time, check
//! every round, and turn the rounds into the metrics `main` prints.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use kalstream_core::IngestResult;
use kalstream_net::workload::ingest_identical;

use crate::query::{self, Grants};
use crate::socket::{self, Recording, Replay};
use crate::stats::{latency_us, median};
use crate::trace::{Totals, Trace};
use crate::{heap, host};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Recorded traffic over lockstep sockets into a volatile server.
    SocketLockstep,
    /// The same traffic into a durable server.
    SocketDurable,
    /// Adaptive sources, server endpoints and a feedback query graph.
    QueryFeedback,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "socket_lockstep" => Some(Workload::SocketLockstep),
            "socket_durable" => Some(Workload::SocketDurable),
            "query_feedback" => Some(Workload::QueryFeedback),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SocketLockstep => "socket_lockstep",
            Workload::SocketDurable => "socket_durable",
            Workload::QueryFeedback => "query_feedback",
        }
    }
}

/// Every round runs at least this often, whatever `--seconds` says, so
/// each median has several values behind it.
const MIN_ROUNDS: usize = 4;

/// Socket fleet: one connection (and shard) per CPU up to two, each
/// multiplexing 256 streams.
pub fn socket_shape() -> socket::Shape {
    socket::Shape {
        conns: host::nproc().min(2),
        streams_per_conn: 256,
        ticks: 1500,
    }
}

/// Query fleet: 32 groups of 16 streams.
pub fn query_shape() -> query::Shape {
    query::Shape {
        streams: 512,
        ticks: 500,
    }
}

/// A finished run: the checks' verdict and every measured number.
#[derive(Default)]
pub struct Outcome {
    /// Why the run is not correct (empty when it is).
    pub problems: Vec<String>,
    /// Operations attempted: frames, feedback, hellos and answers.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced rounds).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced rounds and the mirror); layers a
    /// workload bypasses are absent and print as 0.
    pub layer: BTreeMap<&'static str, f64>,
    /// Ledger rows as `(row, µs per tick)`, residual last.
    pub ledger: Vec<(&'static str, f64)>,
    /// The ledger's wall: µs per tick (per connection for sockets).
    pub ledger_wall_us: f64,
    /// Context: sample counts, round counts, timed-phase length.
    pub context: Vec<(&'static str, String)>,
    /// Spans of every traced round.
    pub trace: Option<Trace>,
}

/// Rounds during which the hypervisor ran other guests on this VM's CPUs
/// for more than this share of the round's CPU time are left out of the
/// run's figures, as long as at least half the rounds remain: such a round
/// times the neighbour, not the system. Steal only ever slows a round, so
/// the rounds kept are the least disturbed ones.
const MAX_STEAL: f64 = 0.02;

/// One round's timings.
struct RoundTimes {
    traced: bool,
    setup: f64,
    timed: f64,
    p50: f64,
    p99: f64,
    /// Latency samples behind `p50` and `p99`.
    samples: usize,
    /// Host steal time as a share of the round's CPU capacity.
    steal: f64,
}

/// What every round of a run measured.
struct Tallies {
    rounds: Vec<RoundTimes>,
    worst_failed_frac: f64,
}

impl Tallies {
    fn new() -> Self {
        Tallies {
            rounds: Vec::new(),
            worst_failed_frac: 0.0,
        }
    }

    /// Records one round's failure share. The +1 on both sides keeps a
    /// clean round at its resolution, `1 / (attempted + 1)`, instead of 0,
    /// so a relative bound can compare runs.
    fn failures(&mut self, out: &mut Outcome, failed: u64, attempted: u64) {
        out.failed += failed;
        out.attempted += attempted;
        let frac = (failed + 1) as f64 / (attempted + 1) as f64;
        self.worst_failed_frac = self.worst_failed_frac.max(frac);
    }

    /// Records one round. Its p50 and p99 come from its own latency
    /// samples.
    fn round(&mut self, traced: bool, setup: f64, timed: f64, latency_ns: &mut [u64], steal: f64) {
        let (p50, p99, samples) = latency_us(latency_ns);
        self.rounds.push(RoundTimes {
            traced,
            setup,
            timed,
            p50,
            p99,
            samples,
            steal,
        });
    }

    /// The traced or untraced rounds the figures use (see [`MAX_STEAL`]).
    fn kept(&self, traced: bool) -> Vec<&RoundTimes> {
        let mut rounds: Vec<&RoundTimes> =
            self.rounds.iter().filter(|r| r.traced == traced).collect();
        rounds.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        let quiet = rounds.iter().filter(|r| r.steal <= MAX_STEAL).count();
        rounds.truncate(quiet.max(rounds.len().div_ceil(2)));
        rounds
    }

    /// Stores the e2e metrics and context; returns the mean untraced timed
    /// phase.
    fn finish(self, out: &mut Outcome, streams: u64, ticks: u64, heap_baseline: usize) -> f64 {
        let kept = self.kept(false);
        let of = |f: fn(&RoundTimes) -> f64| kept.iter().map(|r| f(r)).collect::<Vec<_>>();
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        out.e2e.insert("setup_s", median(&of(|r| r.setup)));
        // Means, not medians, over rounds: the host alternates between two
        // speeds about 1.5× apart, and a median over rounds jumps between
        // them with the share of rounds in each, where a mean moves with it.
        let timed = mean(of(|r| r.timed));
        out.e2e
            .insert("stream_ticks_per_s", (streams * ticks) as f64 / timed);
        out.e2e.insert("tick_latency_p50_us", mean(of(|r| r.p50)));
        out.layer
            .insert("tick_latency_p99_us", median(&of(|r| r.p99)));
        out.e2e.insert("failed_frac", self.worst_failed_frac);
        out.e2e.insert(
            "mem_peak_mb",
            heap::peak().saturating_sub(heap_baseline) as f64 / (1024.0 * 1024.0),
        );
        let samples: usize = kept.iter().map(|r| r.samples).sum();
        out.layer.insert("tick_latency_samples", samples as f64);
        let traced: Vec<f64> = self.kept(true).iter().map(|r| r.timed).collect();
        if !traced.is_empty() {
            out.layer
                .insert("trace.overhead_frac", mean(traced) / timed - 1.0);
        }
        let timed_total: f64 = self.rounds.iter().map(|r| r.timed).sum();
        let steal = median(&self.rounds.iter().map(|r| r.steal).collect::<Vec<_>>());
        out.context.push(("rounds", self.rounds.len().to_string()));
        out.context
            .push(("untraced_rounds_kept", kept.len().to_string()));
        out.context.push(("median_round_steal", format!("{steal}")));
        out.context
            .push(("timed_phase_s", format!("{timed_total}")));
        out.context
            .push(("latency_samples_kept", samples.to_string()));
        timed
    }
}

/// Runs `f` and returns its result with the host's steal time over the
/// call, as a share of the CPU capacity the call had.
fn measure_steal<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = host::steal_ticks();
    let start = Instant::now();
    let r = f();
    let capacity = start.elapsed().as_secs_f64() * host::nproc() as f64 * host::CLOCK_TICKS_PER_S;
    let steal = match (before, host::steal_ticks()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / capacity,
        _ => 0.0,
    };
    (r, steal)
}

/// In a traced run every other round is traced, starting with the second:
/// e2e numbers come from the untraced ones, and the two means give the
/// tracing overhead.
fn traced_round(trace: bool, round: usize) -> bool {
    trace && round % 2 == 1
}

fn keep_going(start: Instant, seconds: f64, round: usize, trace: bool) -> bool {
    let min = if trace { 2 * MIN_ROUNDS } else { MIN_ROUNDS };
    round < min || start.elapsed().as_secs_f64() < seconds
}

/// Checks one socket round against the recording and the sequential
/// reference; returns what went wrong.
pub fn check_socket_round(
    round: &socket::Round,
    rec: &Recording,
    reference: &IngestResult,
) -> Vec<String> {
    let mut problems = Vec::new();
    if round.report.ticks != rec.ticks {
        problems.push(format!(
            "server advanced {} ticks, expected {}",
            round.report.ticks, rec.ticks
        ));
    }
    if !ingest_identical(&round.report.ingest, reference) {
        problems.push("server state is not bit-identical to the sequential reference".into());
    }
    let failed = socket_failures(round);
    if failed > 0 {
        problems.push(format!("{failed} frames, feedback or hellos failed"));
    }
    problems
}

/// Frames decode-failed, unknown or stale-dropped, feedback shed, hellos
/// rejected and router messages dropped.
fn socket_failures(round: &socket::Round) -> u64 {
    let r = &round.report;
    let shards: u64 = r
        .ingest
        .shards
        .iter()
        .map(|s| s.decode_failures + s.unknown_streams + s.stale_drops)
        .sum();
    shards + r.total_shed() + r.rejected_hellos + r.dropped_router_msgs
}

/// Runs a socket workload for `seconds`.
pub fn run_socket(seed: u64, seconds: f64, trace: bool, durable: bool) -> io::Result<Outcome> {
    let shape = socket_shape();
    let rec = Recording::record(seed, shape);
    let (reference, seq_wall, seq_ticks) = socket::sequential(seed, &rec);
    let mut out = Outcome::default();
    out.context.push((
        "state_hash",
        format!("\"{:016x}\"", socket::state_hash(&reference)),
    ));
    let origin = Instant::now();
    let mut trace_all = trace.then(|| Trace::new(origin));
    let scratch = socket::scratch_dir(if durable { "durable" } else { "volatile" });
    let heap_baseline = heap::reset_peak();

    let mut t = Tallies::new();
    let mut bytes_per_round = 0u64;
    let mut last_report = None;
    let mut threads_mid = 0u64;
    let mut mirror_trace = Trace::new(origin);
    let mut mirrors: Vec<socket::Mirror> = Vec::new();
    let (mut shed, mut dropped) = (0u64, 0u64);
    let start = Instant::now();
    let mut i = 0;
    while keep_going(start, seconds, i, trace) {
        let traced = traced_round(trace, i);
        let dir = scratch.join(format!("round-{i}"));
        let (r, steal) = measure_steal(|| {
            socket::round(
                seed,
                &rec,
                durable.then_some(dir.as_path()),
                Replay::Full,
                traced.then_some(origin),
            )
        });
        if durable {
            remove_if_present(&dir)?;
        }
        let mut r = r?;
        out.problems
            .extend(check_socket_round(&r, &rec, &reference));
        let feedback: u64 = r.report.conns.iter().map(|c| c.feedback_sent).sum();
        let attempted = rec.frames + feedback + rec.conns.len() as u64;
        t.failures(&mut out, socket_failures(&r), attempted);
        shed += r.report.total_shed();
        dropped += r.report.dropped_router_msgs;
        t.round(traced, r.setup_s, r.timed_s, &mut r.latency_ns, steal);
        bytes_per_round = r.bytes_out + r.bytes_in;
        last_report = Some(r.report);
        if traced {
            threads_mid = threads_mid.max(r.threads_mid);
            if let (Some(all), Some(tr)) = (trace_all.as_mut(), r.trace.take()) {
                all.absorb(tr);
            }
            // A mirror pass right after each traced round, so the two run
            // under the same host conditions.
            let dir = scratch.join(format!("mirror-{i}"));
            let mirror = socket::mirror(
                seed,
                &rec,
                durable.then_some(dir.as_path()),
                &reference,
                &mut mirror_trace,
            );
            remove_if_present(&dir)?;
            mirrors.push(mirror?);
        }
        i += 1;
    }
    let stream_ticks = (u64::from(rec.streams) * rec.ticks) as f64;
    out.e2e
        .insert("msgs_per_stream_tick", rec.frames as f64 / stream_ticks);
    out.e2e.insert(
        "wire_bytes_per_stream_tick",
        bytes_per_round as f64 / stream_ticks,
    );
    let untraced_timed = t.finish(&mut out, u64::from(rec.streams), rec.ticks, heap_baseline);
    let ratio = untraced_timed / seq_wall;
    out.layer.insert("ratio.socket_vs_seq", ratio);
    out.context
        .push(("ratio_socket_vs_seq", format!("{ratio}")));
    out.context
        .push(("sequential_wall_s", format!("{seq_wall}")));
    out.layer.insert(
        "core.ingest.seq_tick_us",
        seq_ticks.iter().sum::<u64>() as f64 / seq_ticks.len() as f64 / 1e3,
    );

    let report = last_report.expect("at least one round ran");
    let busy: Vec<f64> = report.ingest.shards.iter().map(|s| s.busy_secs).collect();
    let busy_sum: f64 = busy.iter().sum();
    let busy_max = busy.iter().copied().fold(0.0, f64::max);
    out.layer.insert(
        "core.ingest.shard_busy_frac",
        busy_sum / (busy.len() as f64 * untraced_timed),
    );
    out.layer.insert(
        "core.ingest.shard_skew",
        busy_max * busy.len() as f64 / busy_sum,
    );
    out.layer.insert(
        "core.ingest.queue_high_water",
        report
            .ingest
            .shards
            .iter()
            .map(|s| s.queue_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    let bytes_in: u64 = report.conns.iter().map(|c| c.bytes_in).sum();
    out.layer
        .insert("net.bytes_in_per_tick", bytes_in as f64 / rec.ticks as f64);
    out.layer.insert("net.shed", shed as f64);
    out.layer.insert("net.dropped_router_msgs", dropped as f64);
    if let Some(stats) = &report.durable {
        out.layer.insert(
            "durable.wal_bytes_per_tick",
            stats.wal_bytes.get() as f64 / rec.ticks as f64,
        );
        let snaps = stats.snapshots_written.get();
        out.layer.insert("durable.snapshots_written", snaps as f64);
        out.layer.insert(
            "durable.snapshot_bytes",
            stats.snapshot_bytes.get() as f64 / snaps.max(1) as f64,
        );
    }

    if let Some(all) = trace_all.as_mut() {
        out.layer.insert("net.threads", threads_mid as f64);
        let mirrored_ticks = rec.ticks * mirrors.len() as u64;
        socket_ledger(
            &mut out,
            &all.totals(),
            &mirror_trace.totals(),
            mirrored_ticks,
        );
        if durable {
            let of =
                |f: fn(&socket::Mirror) -> f64| median(&mirrors.iter().map(f).collect::<Vec<_>>());
            out.layer.insert("durable.append_us", of(|m| m.append_us));
            out.layer
                .insert("durable.checkpoint_ms", of(|m| m.checkpoint_ms));
            out.layer
                .insert("durable.recovery_ms", of(|m| m.recovery_ms));
        }
        all.absorb(mirror_trace);
    }
    remove_if_present(&scratch)?;
    out.trace = trace_all;
    Ok(out)
}

fn get(totals: &BTreeMap<&'static str, Totals>, name: &str) -> Totals {
    totals.get(name).copied().unwrap_or_default()
}

/// The socket ledger, per connection and tick: the client's write, its
/// wait split by the in-process mirror into re-framing, ingest, flush and
/// durability, the wait the mirror does not explain (`net`: transport,
/// reader and router threads, scheduling), and the client loop's own
/// residual. `ticks` counts every mirrored tick.
fn socket_ledger(
    out: &mut Outcome,
    client: &BTreeMap<&'static str, Totals>,
    mirror: &BTreeMap<&'static str, Totals>,
    ticks: u64,
) {
    let tick = get(client, "net.client.tick");
    let per_conn_tick = |t: Totals| t.busy_ns as f64 / tick.spans.max(1) as f64 / 1e3;
    let per_tick = |t: Totals| t.busy_ns as f64 / ticks as f64 / 1e3;
    let wall = per_conn_tick(tick);
    let write = per_conn_tick(get(client, "net.client.write"));
    let wait = per_conn_tick(get(client, "net.client.wait"));
    let decode = per_tick(get(mirror, "core.frame.decode"));
    let ingest = per_tick(get(mirror, "core.ingest.tick"));
    let flush = per_tick(get(mirror, "core.ingest.flush"));
    let durable_self = get(mirror, "durable.try_ingest_tick").self_ns as f64;
    let snapshot = get(mirror, "core.ingest.snapshot_states").busy_ns as f64;
    let durable = (durable_self + snapshot) / ticks as f64 / 1e3;
    let net = wait - decode - ingest - flush - durable;
    out.layer.insert("net.client.write_us", write);
    out.layer.insert("net.client.wait_us", wait);
    out.layer.insert("net.residual_us", net);
    out.layer.insert("core.frame.decode_us", decode);
    out.layer.insert("core.ingest.tick_us", ingest);
    out.layer.insert("core.ingest.flush_us", flush);
    set_ledger(
        out,
        wall,
        vec![
            ("client_write", write),
            ("frame_decode", decode),
            ("ingest_tick", ingest),
            ("ingest_flush", flush),
            ("durable", durable),
            ("net", net),
        ],
    );
}

/// Stores the ledger rows plus the residual that makes them sum to `wall`,
/// and their shares.
fn set_ledger(out: &mut Outcome, wall: f64, mut rows: Vec<(&'static str, f64)>) {
    let residual = wall - rows.iter().map(|(_, v)| v).sum::<f64>();
    rows.push(("residual", residual));
    for (row, us) in &rows {
        out.layer.insert(ledger_share_name(row), us / wall);
    }
    out.ledger = rows;
    out.ledger_wall_us = wall;
}

/// `ledger.<row>_share` for every row any workload's ledger has.
fn ledger_share_name(row: &str) -> &'static str {
    match row {
        "sampler" => "ledger.sampler_share",
        "source" => "ledger.source_share",
        "server" => "ledger.server_share",
        "query" => "ledger.query_share",
        "client_write" => "ledger.client_write_share",
        "frame_decode" => "ledger.frame_decode_share",
        "ingest_tick" => "ledger.ingest_tick_share",
        "ingest_flush" => "ledger.ingest_flush_share",
        "durable" => "ledger.durable_share",
        "net" => "ledger.net_share",
        "residual" => "ledger.residual_share",
        other => panic!("unknown ledger row {other}"),
    }
}

/// Checks one query round: no violated guarantee, every served bound
/// within its contract.
pub fn check_query_round(round: &query::Round) -> Vec<String> {
    let mut problems = Vec::new();
    if round.violations > 0 {
        problems.push(format!("{} answers violated their bound", round.violations));
    }
    if round.max_contract_ratio > 1.0 {
        problems.push(format!(
            "a served bound reached {} × its contract",
            round.max_contract_ratio
        ));
    }
    problems
}

/// Runs `query_feedback` for `seconds`.
pub fn run_query(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let shape = query_shape();
    let mut out = Outcome::default();
    let origin = Instant::now();
    let mut trace_all = trace.then(|| Trace::new(origin));
    let heap_baseline = heap::reset_peak();
    let mut t = Tallies::new();
    let mut first: Option<query::Round> = None;
    let (mut relaxations, mut directives, mut coverage) = (0u64, 0u64, 0.0);
    let mut traced_rounds = 0u64;
    let start = Instant::now();
    let mut i = 0;
    while keep_going(start, seconds, i, trace) {
        let traced = traced_round(trace, i);
        let (mut r, steal) =
            measure_steal(|| query::round(seed, shape, Grants::Faithful, traced.then_some(origin)));
        out.problems.extend(check_query_round(&r));
        let attempted = r.messages + r.feedback_messages + r.answers;
        t.failures(&mut out, r.violations, attempted);
        t.round(traced, r.setup_s, r.timed_s, &mut r.latency_ns, steal);
        if traced {
            traced_rounds += 1;
            relaxations += r.relaxations;
            directives += r.directives;
            coverage += r.coverage;
            if let (Some(all), Some(tr)) = (trace_all.as_mut(), r.trace.take()) {
                all.absorb(tr);
            }
        }
        if first.is_none() {
            first = Some(r);
        }
        i += 1;
    }
    let first = first.expect("at least one round ran");
    let stream_ticks = (u64::from(shape.streams) * shape.ticks) as f64;
    out.e2e
        .insert("msgs_per_stream_tick", first.messages as f64 / stream_ticks);
    out.e2e.insert(
        "wire_bytes_per_stream_tick",
        first.wire_bytes as f64 / stream_ticks,
    );
    out.context
        .push(("messages_per_round", first.messages.to_string()));
    t.finish(
        &mut out,
        u64::from(shape.streams),
        shape.ticks,
        heap_baseline,
    );

    if let Some(all) = &trace_all {
        let totals = all.totals();
        let rounds = traced_rounds.max(1) as f64;
        let observe = get(&totals, "core.source.observe");
        let feedback = get(&totals, "core.source.feedback");
        let receive = get(&totals, "core.server.receive");
        let estimate = get(&totals, "core.server.estimate");
        out.layer
            .insert("core.source.observe_us", observe.us_per_call());
        out.layer
            .insert("core.source.observe_calls", observe.calls as f64 / rounds);
        out.layer.insert("core.source.syncs", first.messages as f64);
        out.layer.insert(
            "core.source.ship_ratio",
            first.messages as f64 / stream_ticks,
        );
        out.layer
            .insert("core.source.feedback_us", feedback.us_per_call());
        out.layer
            .insert("core.server.receive_us", receive.us_per_call());
        out.layer
            .insert("core.server.estimate_us", estimate.us_per_call());
        for (metric, span) in [
            ("query.graph.observe_tick_us", "query.graph.observe_tick"),
            ("query.graph.verify_tick_us", "query.graph.verify_tick"),
            (
                "query.graph.required_deltas_us",
                "query.graph.required_deltas",
            ),
        ] {
            out.layer.insert(metric, get(&totals, span).us_per_call());
        }
        out.layer
            .insert("query.graph.relaxations", relaxations as f64 / rounds);
        out.layer
            .insert("query.directives_pushed", directives as f64 / rounds);
        out.layer.insert("query.coverage", coverage / rounds);

        let tick = get(&totals, "query.lockstep.tick");
        let per_tick = |t: Totals| t.busy_ns as f64 / tick.spans.max(1) as f64 / 1e3;
        let graph: f64 = [
            "query.graph.observe_tick",
            "query.graph.verify_tick",
            "query.graph.required_deltas",
            "query.directives",
        ]
        .iter()
        .map(|n| per_tick(get(&totals, n)))
        .sum();
        set_ledger(
            &mut out,
            per_tick(tick),
            vec![
                ("sampler", per_tick(get(&totals, "gen.sample"))),
                ("source", per_tick(observe) + per_tick(feedback)),
                ("server", per_tick(receive) + per_tick(estimate)),
                ("query", graph),
            ],
        );
    }
    out.trace = trace_all;
    out
}

/// Removes a directory tree if present.
pub fn remove_if_present(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}
