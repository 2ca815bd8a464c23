//! # kalstream benchmark
//!
//! One command runs one named workload from a seed, checks its outputs,
//! and prints every end-to-end metric with its unit; `--trace 1` prints
//! the per-layer metrics and a ledger that splits each tick's wall time
//! across layers instead. Every layer is measured from outside, by timing
//! calls into the public API of the crates under test.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload socket_lockstep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a `context` line before
//! it records the host (`nproc`, CPU model, rustc, commit or source
//! digest, load average at start), the timed-phase length and the sample
//! count behind every percentile. The default seed is 1; seed 9001 is held
//! out for confirming a claimed gain on a seed the change was not tuned on.
//!
//! ## Workloads
//!
//! Everything runs in one process. The socket load generator uses at most
//! `nproc` threads and `nproc` connections (two at most), each connection
//! multiplexing 256 streams, so the host's scheduler is not what is
//! measured; `query_feedback` runs 512 streams in 32 groups. The fleet
//! comes from the seed: random walks, sinusoids and Ornstein–Uhlenbeck
//! processes (by stream id modulo 3) behind adaptive-filter sessions, with
//! noise levels, periods, phases and generator seeds drawn from the seed.
//! On a shared 2-vCPU host, four times larger socket fleets made every
//! timing swing with other tenants' memory traffic, and half the query
//! fleet let the message count vary by 5% between seeds.
//!
//! * `socket_lockstep` — a volatile lockstep [`kalstream_net::NetServer`]
//!   (one shard per connection) receives traffic recorded before timing
//!   starts. Each client is closed-loop: it writes a tick and waits for
//!   that tick's return marker before writing the next. Every tick crosses
//!   codec → socket → reader → router barrier → shard apply → return
//!   marker; no source is simulated while timing, so the time belongs to
//!   the server and the transport. Bypasses `query` and `durable`.
//! * `socket_durable` — the same traffic and shape into a durable server
//!   (WAL append before apply, a snapshot every 48 ticks, in a scratch
//!   directory under `.bench_out/`). The only workload that writes
//!   storage: durability changes show here and nowhere else.
//! * `query_feedback` — the paper's whole loop via `run_lockstep`: adaptive
//!   sources decide suppression, server endpoints serve estimates, and a
//!   fleet-wide Q3-style query graph (per group of 16 an AVG, an alert at
//!   ±3 and a 64-tick tumbling pane; a fleet AVG over the groups) evaluates every
//!   tick and pushes grid-floored `Bound` directives back. Bypasses `net`,
//!   `core.ingest` and `durable`; the only workload where
//!   `msgs_per_stream_tick` can move.
//!
//! A run repeats rounds until `--seconds` have passed (at least four):
//! each round builds the system from scratch, runs a fixed tick count
//! (1 500 socket ticks, 500 query ticks), and is checked. A socket round's
//! final server state must be bit-identical to `SequentialIngest` fed the
//! same recorded batches, with exactly the recorded number of ticks
//! advanced; a query round must have no violated guarantee and no served
//! bound above its contract. A failed check makes the run incorrect, it is
//! not scored.
//!
//! Rounds during which the hypervisor gave more than 2% of this VM's CPU
//! time to other guests (`steal` in `/proc/stat`) are left out of the
//! run's figures while at least half the rounds remain; the context line
//! says how many rounds were kept. Throughput and p50 are means over the
//! kept rounds, not medians: on a shared host the CPU alternates between
//! two speeds about 1.5× apart, and a median over rounds jumps between
//! them with the share of rounds in each, where a mean moves with it.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! * `setup_s` (s) — median over rounds of fleet/endpoint build + server
//!   start (+ store open and genesis snapshot) until the first tick can be
//!   sent; for `query_feedback`, fleet and graph build.
//! * `stream_ticks_per_s` (1/s) — stream-ticks applied ÷ seconds of
//!   timed phase, over the kept rounds. Unlike msgs/s it does not fall
//!   when suppression improves.
//! * `tick_latency_p50_us` (µs) — sockets: from the moment a tick's batch
//!   is ready to write until its return marker is read, per connection;
//!   `query_feedback`: one lockstep tick, from sample to answers served and
//!   directives pushed. Each round's median over its own samples, mean
//!   over rounds; the sample counts are in the context line.
//! * `msgs_per_stream_tick` (msg/stream-tick) — forward sync messages per
//!   stream-tick, the paper's efficiency metric. Fixed by the recording on
//!   the socket workloads, so there it is an exact canary.
//! * `wire_bytes_per_stream_tick` (B/stream-tick) — framed bytes in both
//!   directions, so directive traffic is charged.
//! * `failed_frac` (frac) — worst round's `(failed + 1) / (attempted + 1)`:
//!   failed counts frames decode-failed, unknown or stale-dropped,
//!   feedback shed, hellos rejected, router messages dropped and answers
//!   outside their bound; attempted counts frames, feedback, hellos and
//!   answers. The +1 keeps a clean run at its resolution instead of 0.
//! * `mem_peak_mb` (MiB) — peak growth of live heap bytes from just before
//!   the first system under test is built to the end of the run, counted
//!   by the benchmark's global allocator on every allocation.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! A traced run alternates untraced and traced rounds. Per-layer numbers
//! come from the traced rounds and, for the socket workloads, from an
//! in-process mirror that pushes the same recorded batches through the
//! layers the server stacks. Layers a workload bypasses print 0. Means are
//! per call unless named otherwise; counts are per round.
//!
//! * `core.source.*`, `core.server.*` — `Producer::observe`/`feedback` and
//!   `Consumer::receive`/`estimate` through wrappers around the real
//!   endpoints; `ship_ratio` = syncs ÷ observes.
//! * `query.graph.*_us` — `QueryGraph::observe_tick`, `verify_tick`,
//!   `required_deltas` per tick; `relaxations`, `query.directives_pushed`,
//!   `query.coverage` per round.
//! * `core.frame.decode_us`, `core.ingest.tick_us`, `core.ingest.flush_us` —
//!   mirror, per tick: stream re-framing, `IngestPipeline::ingest_tick`,
//!   and `flush` (the router waiting on its shards).
//! * `core.ingest.seq_tick_us` — `SequentialIngest::ingest_tick` per tick;
//!   `shard_busy_frac`, `shard_skew` (max ÷ mean busy) and
//!   `queue_high_water` from the server's shard reports.
//! * `net.client.write_us`, `net.client.wait_us` — client socket calls per
//!   tick; `net.residual_us` = wait − decode − ingest − flush − durable
//!   work, the time no in-process layer explains; `net.threads` (process
//!   threads half-way through a round), `net.bytes_in_per_tick`,
//!   `net.shed`, `net.dropped_router_msgs`.
//! * `durable.append_us` (mirror `try_ingest_tick` minus the inner apply,
//!   on ticks without a snapshot), `durable.checkpoint_ms` (the same on
//!   snapshot ticks), `durable.wal_bytes_per_tick`, `durable.snapshot_bytes`
//!   (per snapshot), `durable.snapshots_written`, `durable.recovery_ms`
//!   (stop the mirror without a checkpoint, then time store open, recover
//!   and replay into a fresh pipeline; the result is checked too).
//! * `ratio.socket_vs_seq` — mean socket timed phase ÷ sequential wall
//!   over the identical batches, neither side simulating sources.
//! * `tick_latency_p99_us` — the same measure at p99 (each round's p99,
//!   median over rounds), with `tick_latency_samples`, the samples behind
//!   the percentiles. It is a layer metric, not an end-to-end one, because
//!   it did not repeat within the largest allowed bound (25%) across seeds
//!   on a shared host: a round's p99 rests on about ten samples.
//! * `ledger.<row>_share` — each row's share of the tick wall, with
//!   `ledger.residual_share` the part no row accounts for; rows plus
//!   residual sum to 1. Socket rows (per connection and tick):
//!   `client_write`, `frame_decode`, `ingest_tick`, `ingest_flush`,
//!   `durable`, `net`; query rows (per tick): `sampler` (the generator),
//!   `source`, `server`, `query` (graph calls + directive push).
//! * `trace.overhead_frac` — mean traced ÷ mean untraced timed phase,
//!   minus 1.
//!
//! Spans (name, start, end, parent, tick) stay in memory and are written to
//! `.bench_out/trace-<workload>-<seed>.tsv` when a traced run ends.
//!
//! ## Self-tests
//!
//! `cargo test --release --manifest-path benchmark/Cargo.toml` checks that
//! a seed reproduces its counts and final-state hash, that another seed
//! changes the traffic, and that each correctness check fails on doctored
//! input: a flipped byte in one recorded frame, a served delta above its
//! contract, and a short tick count.

mod fleet;
mod heap;
mod host;
mod query;
mod socket;
mod stats;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Outcome, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming a claimed gain.
pub const HELD_OUT_SEED: u64 = 9001;

/// End-to-end metrics with their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("stream_ticks_per_s", "1/s"),
    ("tick_latency_p50_us", "us"),
    ("msgs_per_stream_tick", "msg/stream-tick"),
    ("wire_bytes_per_stream_tick", "B/stream-tick"),
    ("failed_frac", "frac"),
    ("mem_peak_mb", "MiB"),
];

/// Per-layer metrics with their units, as `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.source.observe_us", "us"),
    ("core.source.observe_calls", "count"),
    ("core.source.syncs", "count"),
    ("core.source.ship_ratio", "ratio"),
    ("core.source.feedback_us", "us"),
    ("core.server.receive_us", "us"),
    ("core.server.estimate_us", "us"),
    ("query.graph.observe_tick_us", "us"),
    ("query.graph.verify_tick_us", "us"),
    ("query.graph.required_deltas_us", "us"),
    ("query.graph.relaxations", "count"),
    ("query.directives_pushed", "count"),
    ("query.coverage", "frac"),
    ("core.frame.decode_us", "us"),
    ("core.ingest.tick_us", "us"),
    ("core.ingest.flush_us", "us"),
    ("core.ingest.seq_tick_us", "us"),
    ("core.ingest.shard_busy_frac", "frac"),
    ("core.ingest.shard_skew", "ratio"),
    ("core.ingest.queue_high_water", "count"),
    ("net.client.write_us", "us"),
    ("net.client.wait_us", "us"),
    ("net.residual_us", "us"),
    ("net.threads", "count"),
    ("net.bytes_in_per_tick", "B/tick"),
    ("net.shed", "count"),
    ("net.dropped_router_msgs", "count"),
    ("durable.append_us", "us"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.wal_bytes_per_tick", "B/tick"),
    ("durable.snapshot_bytes", "B"),
    ("durable.snapshots_written", "count"),
    ("durable.recovery_ms", "ms"),
    ("ratio.socket_vs_seq", "ratio"),
    ("tick_latency_p99_us", "us"),
    ("tick_latency_samples", "count"),
    ("ledger.sampler_share", "frac"),
    ("ledger.source_share", "frac"),
    ("ledger.server_share", "frac"),
    ("ledger.query_share", "frac"),
    ("ledger.client_write_share", "frac"),
    ("ledger.frame_decode_share", "frac"),
    ("ledger.ingest_tick_share", "frac"),
    ("ledger.ingest_flush_share", "frac"),
    ("ledger.durable_share", "frac"),
    ("ledger.net_share", "frac"),
    ("ledger.residual_share", "frac"),
    ("trace.overhead_frac", "frac"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {value}, \"unit\": {}}}",
        host::json_str(name),
        host::json_str(unit)
    )
}

/// Prints the context and ledger lines, then the result line.
fn report(args: &Args, mut out: Outcome) -> ExitCode {
    let mut context = host::context();
    context.push(("workload", host::json_str(args.workload.name())));
    context.push(("seed", args.seed.to_string()));
    context.push(("traced", args.trace.to_string()));
    context.append(&mut out.context);
    let fields: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("{}: {v}", host::json_str(k)))
        .collect();
    println!("context {{{}}}", fields.join(", "));
    for problem in &out.problems {
        println!("check failed: {problem}");
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let source = if args.trace { &out.layer } else { &out.e2e };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match source.get(name) {
            Some(v) => *v,
            // A layer this workload bypasses: not called, nothing spent.
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        if !value.is_finite() {
            out.problems.push(format!("{name} is not finite"));
        }
        metrics.push(metric_json(
            name,
            if value.is_finite() { value } else { 0.0 },
            unit,
        ));
    }
    if args.trace {
        println!(
            "ledger {}: {:.3} us per tick{}",
            args.workload.name(),
            out.ledger_wall_us,
            if args.workload == Workload::QueryFeedback {
                ""
            } else {
                " per connection"
            }
        );
        for (row, us) in &out.ledger {
            println!(
                "ledger   {row:<14} {us:>12.3} us  {:>7.2}%",
                100.0 * us / out.ledger_wall_us
            );
        }
        if let Some(trace) = &out.trace {
            let path = PathBuf::from(".bench_out").join(format!(
                "trace-{}-{}.tsv",
                args.workload.name(),
                args.seed
            ));
            match trace.write(&path) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => out.problems.push(format!("writing spans: {e}")),
            }
        }
    }
    let correct = out.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: kalstream-benchmark --workload socket_lockstep|socket_durable|query_feedback \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Workload::SocketLockstep => {
            workloads::run_socket(args.seed, args.seconds, args.trace, false)
        }
        Workload::SocketDurable => workloads::run_socket(args.seed, args.seconds, args.trace, true),
        Workload::QueryFeedback => Ok(workloads::run_query(args.seed, args.seconds, args.trace)),
    };
    match outcome {
        Ok(out) => report(&args, out),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
