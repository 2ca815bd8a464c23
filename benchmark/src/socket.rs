//! The socket workloads: recorded fleet traffic replayed over std-socket
//! lockstep connections into a [`NetServer`], volatile or durable.
//!
//! The traffic is recorded before anything is timed, so a round's time
//! belongs to the server and the transport only. Each round starts a fresh
//! server, replays every recorded tick closed-loop (a connection sends its
//! next tick only after the server's return marker for the previous one),
//! and then checks the server's final filter state bit for bit against
//! [`SequentialIngest`] fed the same batches.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use kalstream_core::{
    IngestPipeline, IngestResult, SequentialIngest, SnapshotSource, StreamDecoder, TickIngest,
};
use kalstream_durable::{DurableConfig, DurableIngest, DurableStore};
use kalstream_net::codec::{
    decode_status, encode_hello, feed_ticks, push_frame, push_marker, STATUS_BYTES,
    TICK_MARKER_STREAM,
};
use kalstream_net::workload::{endpoint_bits, ingest_identical};
use kalstream_net::{HelloStatus, NetReport, NetServer, NetServerConfig};
use kalstream_sim::Producer;

use crate::fleet;
use crate::trace::{Tally, Trace};

/// Fleet and run shape of a socket workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Client connections (and shards): at most the host's CPU count.
    pub conns: usize,
    /// Streams multiplexed on each connection.
    pub streams_per_conn: u32,
    /// Recorded ticks, all replayed in every round.
    pub ticks: u64,
}

impl Shape {
    /// Streams in the fleet.
    pub fn streams(&self) -> u32 {
        self.conns as u32 * self.streams_per_conn
    }
}

/// Snapshot cadence of the durable server, in ticks. Short enough that
/// snapshot ticks are more than 1% of all ticks, so p99 latency covers
/// them; not a multiple of the round length, so recovery replays a WAL
/// suffix.
pub const SNAPSHOT_EVERY: u64 = 48;

/// One connection's recorded wire traffic: per tick, the frames its
/// streams shipped followed by the tick marker.
pub struct ConnTraffic {
    ids: Vec<u32>,
    bytes: Vec<u8>,
    /// `bytes[ends[t-1]..ends[t]]` is tick `t`.
    ends: Vec<usize>,
}

impl ConnTraffic {
    /// Tick `t`'s bytes, marker included.
    pub fn segment(&self, t: u64) -> &[u8] {
        let t = t as usize;
        let start = if t == 0 { 0 } else { self.ends[t - 1] };
        &self.bytes[start..self.ends[t]]
    }
}

/// The fleet's recorded traffic.
pub struct Recording {
    /// Per connection, in connection order.
    pub conns: Vec<ConnTraffic>,
    /// Sync frames recorded (forward messages).
    pub frames: u64,
    /// Recorded ticks.
    pub ticks: u64,
    /// Streams in the fleet.
    pub streams: u32,
}

impl Recording {
    /// Runs every stream's adaptive source over `shape.ticks` ticks — one
    /// thread per connection — and records what it ships.
    pub fn record(seed: u64, shape: Shape) -> Recording {
        let conns: Vec<(ConnTraffic, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shape.conns)
                .map(|c| scope.spawn(move || record_conn(seed, shape, c)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("recording thread panicked"))
                .collect()
        });
        let frames = conns.iter().map(|(_, f)| f).sum();
        Recording {
            conns: conns.into_iter().map(|(c, _)| c).collect(),
            frames,
            ticks: shape.ticks,
            streams: shape.streams(),
        }
    }

    /// Tick `t`'s fleet batch as the server's router assembles it: every
    /// connection's frames, markers stripped, in connection order.
    pub fn batch(&self, t: u64, out: &mut Vec<u8>) {
        out.clear();
        for conn in &self.conns {
            let seg = conn.segment(t);
            out.extend_from_slice(&seg[..seg.len() - kalstream_net::codec::MARKER_BYTES]);
        }
    }

    /// A copy with one byte of one recorded frame body flipped — the
    /// doctored input the bit-identity check must reject.
    #[cfg(test)]
    pub fn with_flipped_byte(&self) -> Recording {
        let mut conns: Vec<ConnTraffic> = self
            .conns
            .iter()
            .map(|c| ConnTraffic {
                ids: c.ids.clone(),
                bytes: c.bytes.clone(),
                ends: c.ends.clone(),
            })
            .collect();
        // Flip a byte in the middle of the last sync frame's body: a later
        // full-state sync of the same stream would overwrite an earlier
        // corruption, and the check compares final states.
        let bytes = &mut conns[0].bytes;
        let header =
            |b: &[u8], i: usize| u32::from_le_bytes(b[i..i + 4].try_into().expect("header"));
        let (mut at, mut last) = (0, None);
        while at < bytes.len() {
            let (id, len) = (header(bytes, at), header(bytes, at + 4) as usize);
            if id != TICK_MARKER_STREAM && len > 0 {
                last = Some(at + 8 + len / 2);
            }
            at += 8 + len;
        }
        bytes[last.expect("the recording holds a sync frame")] ^= 0x5a;
        Recording {
            conns,
            frames: self.frames,
            ticks: self.ticks,
            streams: self.streams,
        }
    }
}

fn record_conn(seed: u64, shape: Shape, c: usize) -> (ConnTraffic, u64) {
    let base = c as u32 * shape.streams_per_conn;
    let ids: Vec<u32> = (base..base + shape.streams_per_conn).collect();
    let mut parts: Vec<fleet::StreamParts> = ids
        .iter()
        .map(|&id| fleet::build_stream(seed, id, None))
        .collect();
    let mut bytes = Vec::new();
    let mut ends = Vec::with_capacity(shape.ticks as usize);
    let mut frames = 0u64;
    let (mut obs, mut tru) = ([0.0f64], [0.0f64]);
    for t in 0..shape.ticks {
        for (id, p) in ids.iter().zip(parts.iter_mut()) {
            if t == 0 {
                obs[0] = p.first;
            } else {
                p.gen.next_into(&mut obs, &mut tru);
            }
            if let Some(payload) = p.source.observe(t, &obs) {
                push_frame(&mut bytes, *id, &payload);
                frames += 1;
            }
        }
        push_marker(&mut bytes);
        ends.push(bytes.len());
    }
    (ConnTraffic { ids, bytes, ends }, frames)
}

/// The sequential reference over the recorded batches, with its wall time
/// and per-tick `ingest_tick` times in ns.
pub fn sequential(seed: u64, rec: &Recording) -> (IngestResult, f64, Vec<u64>) {
    let mut seq = SequentialIngest::new(fleet::server_endpoints(seed, rec.streams));
    let mut batch = Vec::new();
    let mut per_tick = Vec::with_capacity(rec.ticks as usize);
    let mut wall = 0.0;
    for t in 0..rec.ticks {
        rec.batch(t, &mut batch);
        let start = Instant::now();
        seq.ingest_tick(&batch);
        let took = start.elapsed();
        wall += took.as_secs_f64();
        per_tick.push(took.as_nanos() as u64);
    }
    (seq.finish(), wall, per_tick)
}

/// Same streams and the same filter bits, ignoring applied-message counts
/// (a recovered server only counts the ticks it replayed).
pub fn endpoints_identical(a: &IngestResult, b: &IngestResult) -> bool {
    a.endpoints.len() == b.endpoints.len()
        && a.endpoints
            .iter()
            .zip(&b.endpoints)
            .all(|((ia, ea), (ib, eb))| ia == ib && endpoint_bits(ea) == endpoint_bits(eb))
}

/// FNV-1a over every endpoint's id, sync count and filter bits.
pub fn state_hash(result: &IngestResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (id, ep) in &result.endpoints {
        eat(u64::from(*id));
        eat(ep.syncs_applied());
        for bits in endpoint_bits(ep) {
            eat(bits);
        }
    }
    h
}

/// What one round measured.
pub struct Round {
    /// Endpoint build + server start (+ store open and genesis snapshot)
    /// until every connection may send its first tick.
    pub setup_s: f64,
    /// First tick written to last return marker read, across connections.
    pub timed_s: f64,
    /// Per connection and tick: batch ready to write → return marker read.
    pub latency_ns: Vec<u64>,
    /// Bytes the clients wrote (hello + frames + markers).
    pub bytes_out: u64,
    /// Bytes the clients read (status + feedback + markers).
    pub bytes_in: u64,
    /// The server's report.
    pub report: NetReport,
    /// Threads in the process half-way through the timed phase.
    pub threads_mid: u64,
    /// Client spans, when traced.
    pub trace: Option<Trace>,
}

/// How a round deviates from a faithful replay (self-tests only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub enum Replay {
    /// Every recorded tick.
    Full,
    /// One tick short of the recording.
    Short,
}

/// Runs one round: fresh server, every connection replaying `rec`.
pub fn round(
    seed: u64,
    rec: &Recording,
    durable_dir: Option<&Path>,
    replay: Replay,
    origin: Option<Instant>,
) -> io::Result<Round> {
    let conns = rec.conns.len();
    let send_ticks = match replay {
        Replay::Full => rec.ticks,
        Replay::Short => rec.ticks - 1,
    };

    let setup_start = Instant::now();
    let endpoints = fleet::server_endpoints(seed, rec.streams);
    let server = NetServer::start(
        "127.0.0.1:0",
        endpoints,
        NetServerConfig {
            shards: conns,
            expected_conns: conns,
            lockstep: true,
            durable: durable_dir.map(|dir| DurableConfig {
                dir: dir.to_path_buf(),
                snapshot_every: SNAPSHOT_EVERY,
            }),
            ..NetServerConfig::default()
        },
    )?;
    let mut socks = Vec::with_capacity(conns);
    let mut bytes_out = 0u64;
    let mut bytes_in = 0u64;
    for traffic in &rec.conns {
        let mut sock = TcpStream::connect(server.addr())?;
        sock.set_nodelay(true)?;
        let hello = encode_hello(&traffic.ids);
        sock.write_all(&hello)?;
        bytes_out += hello.len() as u64;
        socks.push(sock);
    }
    if durable_dir.is_some() {
        for sock in &mut socks {
            let mut status = [0u8; STATUS_BYTES];
            sock.read_exact(&mut status)?;
            bytes_in += STATUS_BYTES as u64;
            let status = decode_status(&status)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if status != HelloStatus::Ready {
                return Err(io::Error::other(format!("fresh store answered {status:?}")));
            }
        }
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let barrier = Barrier::new(conns);
    let outs: Vec<io::Result<ClientOut>> = std::thread::scope(|scope| {
        let handles: Vec<_> = socks
            .into_iter()
            .zip(&rec.conns)
            .enumerate()
            .map(|(c, (sock, traffic))| {
                let barrier = &barrier;
                let trace = origin.map(Trace::new);
                scope.spawn(move || {
                    drive(
                        sock,
                        traffic,
                        send_ticks,
                        barrier,
                        trace,
                        c == 0 && origin.is_some(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let report = server.join()?;

    let mut latency_ns = Vec::with_capacity(conns * send_ticks as usize);
    let (mut first, mut last) = (None::<Instant>, None::<Instant>);
    let mut threads_mid = 0;
    let mut trace = origin.map(Trace::new);
    for out in outs {
        let out = out?;
        latency_ns.extend(out.latency_ns);
        first = Some(first.map_or(out.start, |f| f.min(out.start)));
        last = Some(last.map_or(out.end, |l| l.max(out.end)));
        bytes_out += out.bytes_out;
        bytes_in += out.bytes_in;
        threads_mid = threads_mid.max(out.threads_mid);
        if let (Some(t), Some(o)) = (trace.as_mut(), out.trace) {
            t.absorb(o);
        }
    }
    let timed_s = match (first, last) {
        (Some(f), Some(l)) => (l - f).as_secs_f64(),
        _ => 0.0,
    };
    Ok(Round {
        setup_s,
        timed_s,
        latency_ns,
        bytes_out,
        bytes_in,
        report,
        threads_mid,
        trace,
    })
}

struct ClientOut {
    start: Instant,
    end: Instant,
    latency_ns: Vec<u64>,
    bytes_out: u64,
    bytes_in: u64,
    threads_mid: u64,
    trace: Option<Trace>,
}

/// One closed-loop client: write tick `t`, read until its return marker,
/// repeat; then half-close and drain until the server closes.
fn drive(
    mut sock: TcpStream,
    traffic: &ConnTraffic,
    ticks: u64,
    barrier: &Barrier,
    mut trace: Option<Trace>,
    sample_threads: bool,
) -> io::Result<ClientOut> {
    let mut decoder = StreamDecoder::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut latency_ns = Vec::with_capacity(ticks as usize);
    let mut marks: Vec<[u64; 3]> =
        Vec::with_capacity(if trace.is_some() { ticks as usize } else { 0 });
    let (mut bytes_out, mut bytes_in) = (0u64, 0u64);
    let mut threads_mid = 0;
    barrier.wait();
    let start = Instant::now();
    for t in 0..ticks {
        let seg = traffic.segment(t);
        let sent = Instant::now();
        let a = trace.as_ref().map_or(0, Trace::now);
        sock.write_all(seg)?;
        let b = trace.as_ref().map_or(0, Trace::now);
        bytes_out += seg.len() as u64;
        loop {
            let n = sock.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("server closed before the marker of tick {t}"),
                ));
            }
            bytes_in += n as u64;
            let mut marker = false;
            decoder
                .feed(&chunk[..n], |id, _| marker |= id == TICK_MARKER_STREAM)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if marker {
                break;
            }
        }
        latency_ns.push(sent.elapsed().as_nanos() as u64);
        if let Some(tr) = &trace {
            marks.push([a, b, tr.now()]);
        }
        if sample_threads && t == ticks / 2 {
            threads_mid = crate::host::threads();
        }
    }
    let end = Instant::now();
    sock.shutdown(Shutdown::Write)?;
    loop {
        let n = sock.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        bytes_in += n as u64;
    }
    if let Some(tr) = trace.as_mut() {
        // A tick's span runs until the next tick starts, so the loop's own
        // bookkeeping lands in the tick's self time.
        for (t, m) in marks.iter().enumerate() {
            let until = marks.get(t + 1).map_or(m[2], |next| next[0]);
            let root = tr.span("net.client.tick", None, t as u64, m[0], until);
            tr.span("net.client.write", Some(root), t as u64, m[0], m[1]);
            tr.span("net.client.wait", Some(root), t as u64, m[1], m[2]);
        }
    }
    Ok(ClientOut {
        start,
        end,
        latency_ns,
        bytes_out,
        bytes_in,
        threads_mid,
        trace,
    })
}

/// A [`TickIngest`] that times every call into the ingester it wraps, so
/// the durable mirror can split `try_ingest_tick` into the inner apply and
/// the durability work around it.
pub struct TimedIngest<I> {
    inner: I,
    origin: Instant,
    ingest: Tally,
    snapshot: Tally,
}

impl<I: TickIngest + SnapshotSource> TickIngest for TimedIngest<I> {
    fn ingest_tick(&mut self, wire: &[u8]) {
        let a = self.origin.elapsed().as_nanos() as u64;
        self.inner.ingest_tick(wire);
        self.ingest
            .record(a, self.origin.elapsed().as_nanos() as u64);
    }
}

impl<I: TickIngest + SnapshotSource> SnapshotSource for TimedIngest<I> {
    fn snapshot_states(&mut self) -> Vec<(u32, kalstream_core::EndpointState)> {
        let a = self.origin.elapsed().as_nanos() as u64;
        let states = self.inner.snapshot_states();
        self.snapshot
            .record(a, self.origin.elapsed().as_nanos() as u64);
        states
    }
}

/// What the in-process mirror measured beyond its spans.
#[derive(Default)]
pub struct Mirror {
    /// Mean WAL append µs on ticks without a snapshot.
    pub append_us: f64,
    /// Mean ms of ticks that wrote a cadence snapshot, inner apply excluded.
    pub checkpoint_ms: f64,
    /// Store open + recover + replay into a fresh pipeline, ms.
    pub recovery_ms: f64,
}

/// Replays the recorded traffic in-process through the layers the server
/// stacks — stream re-framing ([`StreamDecoder`] via the net codec), then
/// [`IngestPipeline::ingest_tick`] and `flush`, wrapped in
/// [`DurableIngest`] when `durable_dir` is set — recording one span per
/// layer and tick. The durable mirror then stops without a checkpoint, as
/// a killed process would, and is recovered and timed. Every final state
/// must match `reference`; a mismatch is returned as an error.
pub fn mirror(
    seed: u64,
    rec: &Recording,
    durable_dir: Option<&Path>,
    reference: &IngestResult,
    trace: &mut Trace,
) -> io::Result<Mirror> {
    let shards = rec.conns.len();
    let (pipeline, feedback) = IngestPipeline::start_with_feedback(
        shards,
        fleet::server_endpoints(seed, rec.streams),
        false,
    );
    let mut decoders: Vec<StreamDecoder> = rec.conns.iter().map(|_| StreamDecoder::new()).collect();
    let mut tick_bufs: Vec<Vec<u8>> = vec![Vec::new(); shards];
    let mut batch = Vec::new();
    let mut out = Mirror::default();
    let mismatch =
        |what: &str| io::Error::other(format!("{what} diverged from the sequential reference"));

    let decode =
        |t: u64, decoders: &mut [StreamDecoder], tick_bufs: &mut [Vec<u8>], batch: &mut Vec<u8>| {
            batch.clear();
            for ((conn, dec), buf) in rec
                .conns
                .iter()
                .zip(decoders.iter_mut())
                .zip(tick_bufs.iter_mut())
            {
                feed_ticks(dec, conn.segment(t), buf, |frames| {
                    batch.extend_from_slice(&frames)
                })
                .expect("recorded frames are within the size limit");
            }
        };

    match durable_dir {
        None => {
            let mut pipeline = pipeline;
            for t in 0..rec.ticks {
                let a = trace.now();
                decode(t, &mut decoders, &mut tick_bufs, &mut batch);
                let b = trace.now();
                pipeline.ingest_tick(&batch);
                let c = trace.now();
                pipeline.flush();
                while feedback.try_recv().is_ok() {}
                let d = trace.now();
                let root = trace.span("mirror.tick", None, t, a, d);
                trace.span("core.frame.decode", Some(root), t, a, b);
                trace.span("core.ingest.tick", Some(root), t, b, c);
                trace.span("core.ingest.flush", Some(root), t, c, d);
            }
            if !ingest_identical(&pipeline.finish(), reference) {
                return Err(mismatch("pipeline mirror"));
            }
        }
        Some(dir) => {
            let timed = TimedIngest {
                inner: pipeline,
                origin: trace.origin(),
                ingest: Tally::default(),
                snapshot: Tally::default(),
            };
            let mut durable = DurableIngest::new(timed, DurableStore::open(dir)?, SNAPSHOT_EVERY)?;
            // The genesis snapshot is set-up, not a tick.
            durable.inner().snapshot.reset();
            let (mut append_ns, mut appends) = (0u64, 0u64);
            let (mut checkpoint_ns, mut checkpoints) = (0u64, 0u64);
            for t in 0..rec.ticks {
                let a = trace.now();
                decode(t, &mut decoders, &mut tick_bufs, &mut batch);
                let b = trace.now();
                let snaps_before = durable.store().stats().snapshots_written.get();
                durable.try_ingest_tick(&batch)?;
                let c = trace.now();
                let inner = durable.inner_mut();
                inner.inner.flush();
                while feedback.try_recv().is_ok() {}
                let d = trace.now();
                let root = trace.span("mirror.tick", None, t, a, d);
                trace.span("core.frame.decode", Some(root), t, a, b);
                let dspan = trace.span("durable.try_ingest_tick", Some(root), t, b, c);
                let apply_ns = inner.ingest.busy();
                let snapshot_ns = inner.snapshot.busy();
                trace.fold("core.ingest.tick", dspan, t, &inner.ingest);
                trace.fold("core.ingest.snapshot_states", dspan, t, &inner.snapshot);
                trace.span("core.ingest.flush", Some(root), t, c, d);
                let own = (c - b).saturating_sub(apply_ns);
                if durable.store().stats().snapshots_written.get() > snaps_before {
                    checkpoint_ns += own;
                    checkpoints += 1;
                } else {
                    append_ns += own.saturating_sub(snapshot_ns);
                    appends += 1;
                }
            }
            out.append_us = append_ns as f64 / appends.max(1) as f64 / 1e3;
            out.checkpoint_ms = checkpoint_ns as f64 / checkpoints.max(1) as f64 / 1e6;
            // Stop without the clean-shutdown checkpoint: what is on disk
            // is what a killed process would leave.
            let (timed, store) = durable.into_parts();
            drop(store);
            if !ingest_identical(&timed.inner.finish(), reference) {
                return Err(mismatch("durable mirror"));
            }

            let start = Instant::now();
            let mut store = DurableStore::open(dir)?;
            let recovery = store
                .recover()?
                .ok_or_else(|| io::Error::other("no snapshot to recover from"))?;
            let endpoints = recovery
                .endpoints()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let mut recovered = IngestPipeline::start(shards, endpoints);
            recovery.replay_into(&mut recovered);
            recovered.flush();
            out.recovery_ms = start.elapsed().as_secs_f64() * 1e3;
            if !endpoints_identical(&recovered.finish(), reference) {
                return Err(mismatch("recovered state"));
            }
        }
    }
    Ok(out)
}

/// A per-run scratch directory for durable stores, inside the working
/// directory.
pub fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("{tag}-{}", std::process::id()))
}
