//! Network ingest benchmark: the sharded TCP front end ([`NetServer`])
//! versus single-core sequential ingest, at fleet connection counts.
//!
//! Writes `BENCH_net.json`. Usage:
//!
//! ```text
//! cargo run --release -p kalstream-bench --bin bench_net -- \
//!     [--out PATH] [--quick] [--metrics-out PATH]
//! ```
//!
//! Full mode drives **1024 real loopback connections** (one stream each)
//! into a running server; `--quick` shrinks the fleet to 64 connections
//! for the CI smoke lane. Every correctness gate applies in both modes:
//!
//! * the networked fleet's final filter state must be **bit-identical**
//!   to the same workload run through the simulator into the sequential
//!   reference ingester (`tcp_matches_sim`);
//! * zero feedback payloads shed, zero rejected hellos, zero decode
//!   failures — a clean loopback run has no excuse for any of them.
//!
//! Two throughput numbers are reported: wall-clock msgs/sec end to end
//! (clients sampling + sockets + sharded drain), and *capacity* msgs/sec
//! (`total / max shard busy-time`) — the server-side critical-path rate
//! given one core per shard. The headline `speedup_wall ≥ 4×` claim over
//! sequential ingest is only claimable on a multi-core host; the JSON
//! records `available_parallelism` and `check_regression --kind net`
//! gates the speedup only when the host has ≥ 4 cores (logging a notice
//! otherwise), so a single-core recording stays honest.

use std::time::Instant;

use kalstream_bench::MetricsOut;
use kalstream_core::{FramingSink, IngestResult, SequentialIngest};
use kalstream_net::{workload, ClientConfig, NetServer, NetServerConfig};
use kalstream_sim::{run_fleet_ingest_faulty, LinkFaults};

const FULL_CONNS: usize = 1024;
const FULL_TICKS: u64 = 32;
const FULL_SHARDS: usize = 8;
/// `--quick` scale: small enough for a CI lane, large enough that the
/// barrier, routing, and shed accounting all see real concurrency.
const QUICK_CONNS: usize = 64;
const QUICK_TICKS: u64 = 48;
const QUICK_SHARDS: usize = 4;
/// One stream per connection: the benchmark measures connection scale.
const STREAMS_PER_CONN: u32 = 1;
/// Per-message link overhead, matching the net wire framing (8-byte
/// frame headers) so sim-side traffic accounting mirrors the socket.
const OVERHEAD: usize = 8;

/// The single-core reference: the identical workload through per-stream
/// (fault-free) links into the sequential ingester, timed.
fn sequential_reference(streams: u32, ticks: u64) -> (IngestResult, f64) {
    let ids: Vec<u32> = (0..streams).collect();
    let mut fleet = workload::source_streams(&ids);
    let mut sink = FramingSink::new(SequentialIngest::new(workload::server_endpoints(streams)));
    let start = Instant::now();
    run_fleet_ingest_faulty(
        &mut fleet,
        ticks,
        OVERHEAD,
        LinkFaults::default(),
        &mut sink,
    );
    let wall = start.elapsed().as_secs_f64();
    (sink.into_inner().finish(), wall)
}

struct NetRun {
    report: kalstream_net::NetReport,
    wall_secs: f64,
    socket_bytes_out: u64,
}

/// The system under test: `conns` real TCP connections blasting ticks in
/// throughput mode (no lockstep barrier) into the sharded pipeline.
fn over_tcp(conns: usize, ticks: u64, shards: usize) -> NetRun {
    let streams = conns as u32 * STREAMS_PER_CONN;
    let server = NetServer::start(
        "127.0.0.1:0",
        workload::server_endpoints(streams),
        NetServerConfig {
            shards,
            expected_conns: conns,
            lockstep: false,
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr().to_string();

    let start = Instant::now();
    let client_threads: Vec<_> = (0..conns)
        .map(|conn| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let rt = tokio::runtime::Builder::new_current_thread()
                    .enable_all()
                    .build()
                    .expect("client runtime");
                let base = conn as u64 * STREAMS_PER_CONN as u64;
                let ids: Vec<u32> = (0..STREAMS_PER_CONN).map(|k| base as u32 + k).collect();
                let mut fleet = workload::source_streams(&ids);
                let config = ClientConfig {
                    ticks,
                    overhead_bytes: OVERHEAD,
                    faults: LinkFaults::default(),
                    lockstep: false,
                    expect_status: false,
                };
                rt.block_on(kalstream_net::drive_connection(
                    &addr, &mut fleet, base, &config,
                ))
                .expect("connection")
            })
        })
        .collect();
    let mut socket_bytes_out = 0u64;
    for t in client_threads {
        socket_bytes_out += t.join().expect("client thread").socket_bytes_out;
    }
    let report = server.join().expect("server");
    let wall_secs = start.elapsed().as_secs_f64();
    NetRun {
        report,
        wall_secs,
        socket_bytes_out,
    }
}

fn main() {
    let mut out_path = String::from("BENCH_net.json");
    let mut quick = false;
    let mut metrics_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--quick" => quick = true,
            "--metrics-out" => {
                metrics_path = Some(std::path::PathBuf::from(
                    args.next().expect("--metrics-out needs a path"),
                ));
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    let mut metrics = MetricsOut::from_path(metrics_path);
    let (conns, ticks, shards) = if quick {
        (QUICK_CONNS, QUICK_TICKS, QUICK_SHARDS)
    } else {
        (FULL_CONNS, FULL_TICKS, FULL_SHARDS)
    };
    let streams = conns as u32 * STREAMS_PER_CONN;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    // --- single-core sequential reference --------------------------------
    println!("sequential reference: {streams} streams × {ticks} ticks…");
    let (seq_result, seq_wall) = sequential_reference(streams, ticks);
    let seq_rate = seq_result.total_messages() as f64 / seq_wall;
    println!(
        "  {} msgs in {:.1} ms ({:.0} msgs/sec)",
        seq_result.total_messages(),
        seq_wall * 1e3,
        seq_rate
    );

    // --- the networked fleet ----------------------------------------------
    println!("networked fleet: {conns} conns × {STREAMS_PER_CONN} stream(s), {shards} shards…");
    let run = over_tcp(conns, ticks, shards);
    let total_messages = run.report.ingest.total_messages();
    let max_busy_secs = run
        .report
        .ingest
        .shards
        .iter()
        .map(|s| s.busy_secs)
        .fold(0.0_f64, f64::max);
    let net_rate = total_messages as f64 / run.wall_secs;
    let capacity_rate = total_messages as f64 / max_busy_secs;
    let bytes_in: u64 = run.report.conns.iter().map(|c| c.bytes_in).sum();
    println!(
        "  {} msgs in {:.1} ms ({:.0} msgs/sec wall), busy max {:.1} ms \
         ({:.0} msgs/sec capacity), {:.1} MiB on the wire",
        total_messages,
        run.wall_secs * 1e3,
        net_rate,
        max_busy_secs * 1e3,
        capacity_rate,
        bytes_in as f64 / (1024.0 * 1024.0),
    );

    // --- gates ------------------------------------------------------------
    let tcp_matches_sim = workload::ingest_identical(&run.report.ingest, &seq_result);
    let shed = run.report.total_shed();
    let rejected = run.report.rejected_hellos;
    let decode_failures = run.report.ingest.total_decode_failures();
    let speedup_wall = net_rate / seq_rate;
    let speedup_capacity = capacity_rate / seq_rate;
    let wall_gate_applies = parallelism >= 4;
    println!(
        "speedup vs sequential: wall {speedup_wall:.2}x, capacity {speedup_capacity:.2}x \
         (on {parallelism} core(s))"
    );
    if !wall_gate_applies {
        println!(
            "notice: {parallelism} core(s) < 4 — shards serialize on this host, so the \
             ≥4x wall gate is recorded but not applied (capacity shows the headroom)"
        );
    }

    // --- JSON -------------------------------------------------------------
    let doc = format!(
        "{{\n  \"schema\": \"bench_net/v1\",\n  \"regression_tolerance\": 0.25,\n  \
         \"quick\": {quick},\n  \"available_parallelism\": {parallelism},\n  \
         \"conns\": {conns},\n  \"streams\": {streams},\n  \"streams_per_conn\": {STREAMS_PER_CONN},\n  \
         \"ticks\": {ticks},\n  \"shards\": {shards},\n  \
         \"total_messages\": {total_messages},\n  \
         \"tcp_matches_sim\": {tcp_matches_sim},\n  \"shed\": {shed},\n  \
         \"rejected_hellos\": {rejected},\n  \"decode_failures\": {decode_failures},\n  \
         \"sequential\": {{ \"wall_ms\": {:.2}, \"msgs_per_sec\": {:.0} }},\n  \
         \"net\": {{ \"wall_ms\": {:.2}, \"msgs_per_sec\": {:.0}, \
         \"max_shard_busy_ms\": {:.2}, \"msgs_per_sec_capacity\": {:.0}, \
         \"socket_bytes_in\": {bytes_in}, \"socket_bytes_out\": {}, \
         \"feedback_sent\": {} }},\n  \
         \"speedup_wall\": {speedup_wall:.3},\n  \"speedup_capacity\": {speedup_capacity:.3},\n  \
         \"min_wall_speedup\": 4.0,\n  \"wall_gate_applies\": {wall_gate_applies}\n}}\n",
        seq_wall * 1e3,
        seq_rate,
        run.wall_secs * 1e3,
        net_rate,
        max_busy_secs * 1e3,
        capacity_rate,
        run.socket_bytes_out,
        run.report
            .conns
            .iter()
            .map(|c| c.feedback_sent)
            .sum::<u64>(),
    );
    std::fs::write(&out_path, &doc).expect("write output");
    println!("wrote {out_path}");

    // --- metrics artifact (net.* snapshot + bench scalars) ----------------
    metrics.absorb("server", &run.report.snapshot());
    {
        let mut s = metrics.scope("sequential");
        s.gauge("wall_ms", seq_wall * 1e3);
        s.gauge("msgs_per_sec", seq_rate);
        s.counter("total_messages", seq_result.total_messages());
    }
    {
        let mut s = metrics.scope("net");
        s.gauge("wall_ms", run.wall_secs * 1e3);
        s.gauge("msgs_per_sec", net_rate);
        s.gauge("msgs_per_sec_capacity", capacity_rate);
        s.counter("total_messages", total_messages);
        s.counter("socket_bytes_in", bytes_in);
        s.counter("socket_bytes_out", run.socket_bytes_out);
        s.counter("tcp_matches_sim", u64::from(tcp_matches_sim));
    }
    metrics.write();

    // --- verdict ----------------------------------------------------------
    let mut failed = false;
    if !tcp_matches_sim {
        eprintln!("GATE FAILURE: networked fleet state diverged from the sequential reference");
        failed = true;
    }
    if shed > 0 || rejected > 0 || decode_failures > 0 {
        eprintln!(
            "GATE FAILURE: shed {shed}, rejected hellos {rejected}, decode failures \
             {decode_failures} (all must be zero on a clean loopback run)"
        );
        failed = true;
    }
    if run.report.ticks != ticks {
        eprintln!(
            "GATE FAILURE: server advanced {} global ticks, expected {ticks}",
            run.report.ticks
        );
        failed = true;
    }
    if wall_gate_applies && speedup_wall < 4.0 {
        eprintln!(
            "GATE FAILURE: wall speedup {speedup_wall:.2}x < 4x on a \
             {parallelism}-core host"
        );
        failed = true;
    }
    if failed {
        eprintln!("bench-net: FAILED");
        std::process::exit(1);
    }
    println!("bench-net: all gates passed");
}
