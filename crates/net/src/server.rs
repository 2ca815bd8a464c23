//! [`NetServer`]: the fleet-scale TCP front end of the sharded
//! [`IngestPipeline`].
//!
//! ```text
//!  conn 0 ──reader task──┐                       ┌─▶ shard 0
//!  conn 1 ──reader task──┼──▶ router ─ ingest ───┼─▶ shard 1
//!  conn N ──reader task──┘      │      pipeline  └─▶ …
//!            ▲                  └─ feedback ──▶ per-conn writer tasks
//!            └──────────── bounded send queues ◀─────────┘
//! ```
//!
//! Every task is a tokio task (one thread each under the thread-per-task
//! runtime): an accept loop admitting connections, one reader and one
//! writer task per connection, and the router on the server's own thread.
//!
//! **Tick discipline.** Clients delimit ticks with marker frames
//! ([`crate::codec::TICK_MARKER_STREAM`]). The router advances the global
//! tick only when every admitted, still-active connection has delivered
//! its tick segment — so a fleet over sockets replays through the pipeline
//! in exactly the per-tick batches the simulator's ingest mode produces,
//! which is what keeps the final endpoint state bit-identical to
//! [`kalstream_core::SequentialIngest`] over the same traffic.
//!
//! **Backpressure & shedding.** Feedback (acks, bound directives) rides
//! per-connection bounded queues. The router never blocks on a slow
//! client: a full or closed queue sheds the payload and *counts it* —
//! including during connection drain, where a `let _` would silently eat
//! acks. Per-connection shed counts and queue high-water marks surface in
//! the [`NetReport`] obs snapshot.
//!
//! **Lifecycle.** A connection drains by shutting down its write side;
//! the reader sees EOF, the router stops requiring its markers, and once
//! its queued ticks are applied the writer flushes and closes. When every
//! expected connection has drained, the router flushes the pipeline,
//! routes the final feedback, and tears down. The accept loop is unblocked
//! by a sentinel connection to the server's own port.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use kalstream_core::{
    IngestPipeline, IngestResult, ResizableIngest, ServerEndpoint, StreamDecoder, TickIngest,
};
use kalstream_durable::{DurableConfig, DurableIngest, DurableStats, DurableStore};
use kalstream_elastic::{ElasticConfig, ElasticIngest, ResizeKind};
use kalstream_obs::{Instrument, Registry, Scope, Snapshot};
use tokio::net::{OwnedWriteHalf, TcpListener, TcpStream};
use tokio::runtime::Builder;
use tokio::sync::mpsc;

use crate::codec::{
    decode_hello_ids, decode_hello_prefix, encode_status, feed_ticks, push_frame, HelloStatus,
    MARKER, MARKER_BYTES, MAX_HELLO_STREAMS,
};

/// Per-connection feedback queue depth. Small enough to bound server
/// memory against a stalled client, deep enough that a reading client
/// never sheds (acks are tiny and drained continuously).
pub const FEEDBACK_QUEUE_DEPTH: usize = 256;

/// How the server ingests and feeds back.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Shard workers for the ingest pipeline.
    pub shards: usize,
    /// Connections to admit before the first tick barrier (and to expect
    /// before finishing). The lockstep tick discipline needs the full
    /// fleet present from tick 0.
    pub expected_conns: usize,
    /// After each global tick, flush the pipeline and route every pending
    /// feedback payload before acknowledging the tick to clients (send a
    /// return marker). Deterministic — the mode the bit-identity tests
    /// and the loss-recovery protocol run in. When `false` the server
    /// never blocks on feedback: it routes whatever the shard workers
    /// have polled so far and clients read acks asynchronously — the
    /// throughput mode `bench_net` measures.
    pub lockstep: bool,
    /// Most stream ids one hello may claim before the connection is
    /// rejected. The peer's claimed count sizes a server-side read buffer,
    /// so this is checked *before* allocation; it is clamped from above by
    /// the global [`MAX_HELLO_STREAMS`] ceiling.
    pub max_hello_streams: usize,
    /// Durability: when set, every tick batch is WAL-appended before it is
    /// applied and the fleet is snapshotted at the configured cadence, so
    /// a restarted server recovers bit-identical filter state. On start
    /// the directory is recovered and replayed *before* any connection is
    /// admitted, and every accepted hello gets a [`HelloStatus`] reply
    /// (clients must set `expect_status`).
    pub durable: Option<DurableConfig>,
    /// Fault injection for the crash-recovery tests: after this many
    /// global ticks have been fully processed, `serve` aborts with
    /// `ConnectionAborted` — no drain, no final snapshot, pipeline dropped
    /// mid-flight. With `durable` set, the next start on the same
    /// directory must recover everything the aborted run applied.
    pub crash_after_ticks: Option<u64>,
    /// Elasticity: when set, the ingest pipeline is wrapped in the
    /// closed-loop [`ElasticIngest`] controller, which grows/shrinks the
    /// shard fleet from observed load. Resizes execute on the router's
    /// thread between global ticks — readers, writers, and their sockets
    /// are untouched, so no connection ever drops across a resize. `shards`
    /// becomes the *initial* count and must lie inside the controller's
    /// `[min_shards, max_shards]` range. Composes with `durable`: each
    /// resize then checkpoints at its barrier first (shape-change
    /// checkpoint reuse).
    pub elastic: Option<ElasticConfig>,
}

impl Default for NetServerConfig {
    /// Single-shard, volatile, one-connection lockstep server — the
    /// configuration the bit-identity tests run; construction sites
    /// override what they vary and inherit new knobs safely.
    fn default() -> Self {
        NetServerConfig {
            shards: 1,
            expected_conns: 1,
            lockstep: true,
            max_hello_streams: MAX_HELLO_STREAMS,
            durable: None,
            crash_after_ticks: None,
            elastic: None,
        }
    }
}

/// What one connection did, reported at server teardown.
#[derive(Debug, Clone)]
pub struct ConnReport {
    /// Admission index (order of hello arrival).
    pub conn: usize,
    /// Streams the hello claimed.
    pub streams: usize,
    /// Tick segments received.
    pub ticks: u64,
    /// Wire bytes received (frames + markers).
    pub bytes_in: u64,
    /// Feedback payloads queued to this connection.
    pub feedback_sent: u64,
    /// Feedback payloads shed (queue full or connection gone) — counted
    /// on every path, including drain.
    pub shed: u64,
    /// High-water mark of the feedback queue depth.
    pub queue_high_water: u64,
}

impl Instrument for ConnReport {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("streams", self.streams as u64);
        scope.counter("ticks", self.ticks);
        scope.counter("bytes_in", self.bytes_in);
        scope.counter("feedback_sent", self.feedback_sent);
        scope.counter("shed", self.shed);
        scope.gauge("queue_high_water", self.queue_high_water as f64);
    }
}

/// Elastic-controller outcome of a served fleet, reported when the server
/// ran with an [`ElasticConfig`].
#[derive(Debug, Clone)]
pub struct ElasticNetStats {
    /// Resizes executed (grows + shrinks + rebalances).
    pub resizes: u64,
    /// Resizes that added shards.
    pub grows: u64,
    /// Resizes that removed shards.
    pub shrinks: u64,
    /// Same-count placement reshuffles.
    pub rebalances: u64,
    /// Shard count at teardown.
    pub final_shards: usize,
    /// Worst ingest stall paid at any resize barrier, in milliseconds
    /// (wall-clock — artifact material, not table material).
    pub max_stall_ms: f64,
}

impl Instrument for ElasticNetStats {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("resizes", self.resizes);
        scope.counter("grows", self.grows);
        scope.counter("shrinks", self.shrinks);
        scope.counter("rebalances", self.rebalances);
        scope.gauge("final_shards", self.final_shards as f64);
        scope.gauge("max_stall_ms", self.max_stall_ms);
    }
}

/// Aggregate outcome of a served fleet.
#[derive(Debug)]
pub struct NetReport {
    /// The ingest pipeline's own result (per-shard reports + endpoints,
    /// bit-comparable against a sequential reference).
    pub ingest: IngestResult,
    /// Per-connection accounting, admission order.
    pub conns: Vec<ConnReport>,
    /// Global ticks the router advanced through.
    pub ticks: u64,
    /// Hellos rejected (bad magic, reserved ids, oversized claims).
    pub rejected_hellos: u64,
    /// Reader/router messages that could not be delivered because the
    /// other side was already gone (either direction). Formerly silent
    /// `let _` drops; now every one is accounted.
    pub dropped_router_msgs: u64,
    /// Socket shutdowns that returned an error in the per-connection
    /// writer tasks (formerly a silent `let _`).
    pub shutdown_errors: u64,
    /// Ticks re-applied from the WAL during startup recovery.
    pub replayed_ticks: u64,
    /// Feedback payloads produced by WAL replay and discarded (their
    /// clients received them before the crash).
    pub replay_feedback_discarded: u64,
    /// Durability counters, when the server ran with a [`DurableConfig`].
    pub durable: Option<DurableStats>,
    /// Elastic-controller counters, when the server ran with an
    /// [`ElasticConfig`].
    pub elastic: Option<ElasticNetStats>,
}

impl NetReport {
    /// Total feedback payloads shed across connections. The CI smoke lane
    /// gates on this being zero.
    pub fn total_shed(&self) -> u64 {
        self.conns.iter().map(|c| c.shed).sum()
    }

    /// Obs snapshot: `net.*` aggregates plus `net.conn.<i>.*` per
    /// connection (shed counters and queue-depth gauges included).
    pub fn snapshot(&self) -> Snapshot {
        let mut reg = Registry::new();
        let mut net = reg.scope("net");
        net.counter("conns", self.conns.len() as u64);
        net.counter("ticks", self.ticks);
        net.counter("rejected_hellos", self.rejected_hellos);
        net.counter("shed", self.total_shed());
        net.counter("dropped_router_msgs", self.dropped_router_msgs);
        net.counter("shutdown_errors", self.shutdown_errors);
        net.counter("replayed_ticks", self.replayed_ticks);
        net.counter("replay_feedback_discarded", self.replay_feedback_discarded);
        if let Some(durable) = &self.durable {
            net.observe("durable", durable);
        }
        if let Some(elastic) = &self.elastic {
            net.observe("elastic", elastic);
        }
        net.counter(
            "feedback_sent",
            self.conns.iter().map(|c| c.feedback_sent).sum::<u64>(),
        );
        net.observe("ingest", &self.ingest);
        let mut conns = net.scope("conn");
        for c in &self.conns {
            conns.observe(&c.conn.to_string(), c);
        }
        reg.snapshot()
    }
}

/// Reader → router messages.
enum RouterMsg {
    Hello {
        streams: Vec<u32>,
        writer: mpsc::Sender<Bytes>,
        /// Resolved by the router with the admission index.
        conn_slot: crossbeam::channel::Sender<usize>,
    },
    HelloRejected,
    Tick {
        conn: usize,
        /// Raw frame bytes (headers + bodies, marker stripped).
        frames: Vec<u8>,
        bytes_in: u64,
    },
    Eof {
        conn: usize,
    },
}

/// Router-side connection state.
struct ConnState {
    writer: Option<mpsc::Sender<Bytes>>,
    streams: usize,
    pending: std::collections::VecDeque<Vec<u8>>,
    eof: bool,
    ticks: u64,
    bytes_in: u64,
    feedback_sent: u64,
    shed: u64,
    queue_high_water: u64,
}

/// A running TCP ingest server. [`NetServer::start`] binds and serves on a
/// background thread; [`NetServer::join`] blocks until the fleet drains
/// and returns the [`NetReport`].
pub struct NetServer {
    addr: SocketAddr,
    handle: std::thread::JoinHandle<io::Result<NetReport>>,
}

impl NetServer {
    /// Binds `127.0.0.1:0` (or `addr`) and starts serving `endpoints`.
    pub fn start(
        addr: &str,
        endpoints: Vec<(u32, ServerEndpoint)>,
        config: NetServerConfig,
    ) -> io::Result<NetServer> {
        let rt = Builder::new_multi_thread().enable_all().build()?;
        let listener = rt.block_on(TcpListener::bind(addr))?;
        let local = listener.local_addr()?;
        let handle = std::thread::Builder::new()
            .name("net-server".into())
            .spawn(move || rt.block_on(serve(listener, endpoints, config)))
            .expect("failed to spawn server thread");
        Ok(NetServer {
            addr: local,
            handle,
        })
    }

    /// The bound address clients dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the fleet to drain and returns the report.
    ///
    /// # Panics
    /// Panics when the server thread panicked.
    pub fn join(self) -> io::Result<NetReport> {
        self.handle.join().expect("net-server thread panicked")
    }
}

/// The router's ingest seam: a plain pipeline, optionally wrapped in the
/// durability discipline (WAL-append before apply, cadence snapshots),
/// optionally with the elastic controller loop closed around either.
enum Ingester {
    Plain(IngestPipeline),
    Durable(DurableIngest<IngestPipeline>),
    Elastic(ElasticIngest<IngestPipeline>),
    ElasticDurable(ElasticIngest<DurableIngest<IngestPipeline>>),
}

/// Snapshots the controller-loop counters before the driver is unwrapped.
fn elastic_stats<I: ResizableIngest>(elastic: &ElasticIngest<I>) -> ElasticNetStats {
    let count =
        |kind: ResizeKind| elastic.events().iter().filter(|e| e.kind == kind).count() as u64;
    ElasticNetStats {
        resizes: elastic.events().len() as u64,
        grows: count(ResizeKind::Grow),
        shrinks: count(ResizeKind::Shrink),
        rebalances: count(ResizeKind::Rebalance),
        final_shards: elastic.inner().assignment().shards,
        max_stall_ms: elastic.max_stall_ms(),
    }
}

impl Ingester {
    /// The elastic variants go through the infallible [`TickIngest`] path:
    /// a store I/O error at a WAL append or a resize-barrier checkpoint
    /// panics the router thread (environment failure), matching the
    /// pipeline's own worker-death behavior.
    fn ingest_tick(&mut self, wire: &[u8]) -> io::Result<()> {
        match self {
            Ingester::Plain(pipeline) => {
                pipeline.ingest_tick(wire);
                Ok(())
            }
            Ingester::Durable(durable) => durable.try_ingest_tick(wire),
            Ingester::Elastic(elastic) => {
                elastic.ingest_tick(wire);
                Ok(())
            }
            Ingester::ElasticDurable(elastic) => {
                elastic.ingest_tick(wire);
                Ok(())
            }
        }
    }

    fn flush(&mut self) {
        match self {
            Ingester::Plain(pipeline) => pipeline.flush(),
            Ingester::Durable(durable) => durable.inner_mut().flush(),
            Ingester::Elastic(elastic) => elastic.inner_mut().flush(),
            Ingester::ElasticDurable(elastic) => elastic.inner_mut().inner_mut().flush(),
        }
    }

    /// Clean teardown: a durable server checkpoints at the final barrier
    /// (so the next start replays nothing), an elastic one reports its
    /// controller counters, then every variant finishes the pipeline.
    fn finish(self) -> io::Result<(IngestResult, Option<DurableStats>, Option<ElasticNetStats>)> {
        match self {
            Ingester::Plain(pipeline) => Ok((pipeline.finish(), None, None)),
            Ingester::Durable(mut durable) => {
                durable.checkpoint()?;
                let (pipeline, store) = durable.into_parts();
                Ok((pipeline.finish(), Some(store.stats().clone()), None))
            }
            Ingester::Elastic(elastic) => {
                let stats = elastic_stats(&elastic);
                Ok((elastic.into_inner().finish(), None, Some(stats)))
            }
            Ingester::ElasticDurable(elastic) => {
                let stats = elastic_stats(&elastic);
                let mut durable = elastic.into_inner();
                durable.checkpoint()?;
                let (pipeline, store) = durable.into_parts();
                Ok((pipeline.finish(), Some(store.stats().clone()), Some(stats)))
            }
        }
    }
}

async fn serve(
    listener: TcpListener,
    endpoints: Vec<(u32, ServerEndpoint)>,
    config: NetServerConfig,
) -> io::Result<NetReport> {
    let addr = listener.local_addr()?;
    let (router_tx, mut router_rx) = mpsc::channel::<RouterMsg>(config.expected_conns.max(16));
    let closing = Arc::new(AtomicBool::new(false));
    let dropped_router_msgs = Arc::new(AtomicU64::new(0));
    let shutdown_errors = Arc::new(AtomicU64::new(0));

    // ---- recovery (before any connection is admitted) -------------------
    // A durable server rebuilds the fleet from its newest valid snapshot
    // and re-applies the intact WAL suffix through the *same* pipeline
    // configuration the crashed run used — bit-identical state, then a
    // compaction snapshot so this recovery is never paid twice.
    let mut replayed_ticks = 0u64;
    let mut replay_feedback_discarded = 0u64;
    let mut status = HelloStatus::Ready;
    let (mut ingester, fb_rx) = match &config.durable {
        Some(durable_config) => {
            let mut store = DurableStore::open(&durable_config.dir)?;
            let recovery = store.recover()?;
            let (initial, resume_at) = match &recovery {
                Some(rec) => {
                    let rebuilt = rec.endpoints().map_err(|err| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("recovered snapshot rejected by filter: {err}"),
                        )
                    })?;
                    (rebuilt, rec.next_tick())
                }
                None => (endpoints, 0),
            };
            let (mut pipeline, fb_rx) =
                IngestPipeline::start_with_feedback(config.shards, initial, true);
            if let Some(rec) = &recovery {
                rec.replay_into(&mut pipeline);
                pipeline.flush();
                // Feedback from replayed ticks already reached its clients
                // before the crash: discard, but never silently.
                while fb_rx.try_recv().is_ok() {
                    replay_feedback_discarded += 1;
                }
                replayed_ticks = rec.wal.len() as u64;
                if resume_at > 0 {
                    status = HelloStatus::Recovering {
                        next_tick: resume_at,
                    };
                }
            }
            let durable =
                DurableIngest::resume(pipeline, store, durable_config.snapshot_every, resume_at)?;
            let ingester = match &config.elastic {
                Some(elastic_config) => {
                    Ingester::ElasticDurable(ElasticIngest::new(durable, elastic_config.clone()))
                }
                None => Ingester::Durable(durable),
            };
            (ingester, fb_rx)
        }
        None => {
            let (pipeline, fb_rx) =
                IngestPipeline::start_with_feedback(config.shards, endpoints, true);
            let ingester = match &config.elastic {
                Some(elastic_config) => {
                    Ingester::Elastic(ElasticIngest::new(pipeline, elastic_config.clone()))
                }
                None => Ingester::Plain(pipeline),
            };
            (ingester, fb_rx)
        }
    };
    // Status reply appended to each admitted connection's (empty) writer
    // queue — only when durability is on; volatile clients don't expect it.
    let status_frame: Option<Bytes> = config
        .durable
        .is_some()
        .then(|| Bytes::copy_from_slice(&encode_status(status)));

    // Accept loop: admit connections until the router signals teardown
    // (checked after each accept; a sentinel dial unblocks the last one).
    let accept_closing = closing.clone();
    let accept_tx = router_tx.clone();
    let accept_dropped = dropped_router_msgs.clone();
    let accept_shutdown_errors = shutdown_errors.clone();
    let max_hello_streams = config.max_hello_streams;
    let accept_task = tokio::spawn(async move {
        loop {
            let (stream, _) = match listener.accept().await {
                Ok(pair) => pair,
                Err(_) => break,
            };
            if accept_closing.load(Ordering::SeqCst) {
                break; // the sentinel itself: drop it and stop accepting
            }
            let tx = accept_tx.clone();
            let dropped = accept_dropped.clone();
            let shutdown_errs = accept_shutdown_errors.clone();
            tokio::spawn(async move {
                reader_task(stream, tx, max_hello_streams, dropped, shutdown_errs).await
            });
        }
    });
    drop(router_tx);

    // ---- router ---------------------------------------------------------
    let mut conns: Vec<ConnState> = Vec::new();
    let mut ticks = 0u64;
    let mut rejected_hellos = 0u64;
    let mut admitted = 0usize;
    let mut tick_wire: Vec<u8> = Vec::new();

    // Drains every feedback payload currently in the channel onto its
    // owning connection's queue. `route` maps stream → conn.
    let route_feedback =
        |conns: &mut [ConnState],
         route: &HashMap<u32, usize>,
         fb_rx: &crossbeam::channel::Receiver<(u32, Bytes)>| {
            while let Ok((stream_id, payload)) = fb_rx.try_recv() {
                let Some(&conn) = route.get(&stream_id) else {
                    continue; // stream not owned by any connection (local fleet)
                };
                let state = &mut conns[conn];
                let mut frame = Vec::with_capacity(payload.len() + MARKER_BYTES);
                push_frame(&mut frame, stream_id, &payload);
                match &state.writer {
                    Some(writer) => match writer.try_send(Bytes::from(frame)) {
                        Ok(()) => {
                            state.feedback_sent += 1;
                            state.queue_high_water =
                                state.queue_high_water.max(writer.queued() as u64);
                        }
                        Err(_) => state.shed += 1, // full or closed: count, don't block
                    },
                    // Writer already torn down (connection drained): the ack
                    // is lost — count it instead of `let _`-dropping it.
                    None => state.shed += 1,
                }
            }
        };

    let mut route: HashMap<u32, usize> = HashMap::new();
    loop {
        // Barrier check: every admitted conn is drained and idle → done.
        let fleet_present = admitted >= config.expected_conns;
        let all_drained = fleet_present && conns.iter().all(|c| c.eof && c.pending.is_empty());
        if all_drained {
            break;
        }

        // Tick-ready: the full fleet is admitted and every live conn has
        // a pending segment (drained conns contribute whatever is queued).
        let tick_ready = fleet_present
            && !conns.is_empty()
            && conns.iter().all(|c| c.eof || !c.pending.is_empty())
            && conns.iter().any(|c| !c.pending.is_empty());
        if tick_ready {
            tick_wire.clear();
            for state in conns.iter_mut() {
                if let Some(frames) = state.pending.pop_front() {
                    tick_wire.extend_from_slice(&frames);
                    state.ticks += 1;
                }
            }
            ingester.ingest_tick(&tick_wire)?;
            if config.lockstep {
                // Applied-before-acknowledged: flush, route *all* feedback
                // for this tick, then send every live conn its marker.
                ingester.flush();
                route_feedback(&mut conns, &route, &fb_rx);
                for state in conns.iter_mut() {
                    let Some(writer) = &state.writer else {
                        continue;
                    };
                    if state.eof {
                        continue;
                    }
                    if writer.try_send(Bytes::from_static(&MARKER)).is_err() {
                        state.shed += 1;
                    }
                }
            } else {
                route_feedback(&mut conns, &route, &fb_rx);
            }
            ticks += 1;
            if config.crash_after_ticks == Some(ticks) {
                // Injected crash: abort with no drain, no checkpoint —
                // `ingester` drops mid-flight exactly as a killed process
                // would lose it. The WAL already holds this tick (appended
                // before apply), which is what recovery tests rely on.
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    format!("injected crash after {ticks} ticks"),
                ));
            }
            continue;
        }

        // Not tick-ready: wait for reader traffic.
        let Some(msg) = router_rx.recv().await else {
            break; // accept loop and all readers gone
        };
        match msg {
            RouterMsg::Hello {
                streams,
                writer,
                conn_slot,
            } => {
                let conn = admitted;
                admitted += 1;
                for &id in &streams {
                    route.insert(id, conn);
                }
                if let Some(frame) = &status_frame {
                    // The queue is empty at admission, so this only fails
                    // if the reader died between hello and here.
                    if writer.try_send(frame.clone()).is_err() {
                        dropped_router_msgs.fetch_add(1, Ordering::Relaxed);
                    }
                }
                conns.push(ConnState {
                    writer: Some(writer),
                    streams: streams.len(),
                    pending: Default::default(),
                    eof: false,
                    ticks: 0,
                    bytes_in: 0,
                    feedback_sent: 0,
                    shed: 0,
                    queue_high_water: 0,
                });
                if conn_slot.send(conn).is_err() {
                    // Reader died before learning its slot: the connection
                    // is gone, but the admission stands (eof arrives never)
                    // — count the dropped reply rather than eat it.
                    dropped_router_msgs.fetch_add(1, Ordering::Relaxed);
                    conns[conn].eof = true;
                    conns[conn].writer = None;
                }
            }
            RouterMsg::HelloRejected => rejected_hellos += 1,
            RouterMsg::Tick {
                conn,
                frames,
                bytes_in,
            } => {
                let state = &mut conns[conn];
                state.bytes_in += bytes_in;
                state.pending.push_back(frames);
            }
            RouterMsg::Eof { conn } => {
                conns[conn].eof = true;
            }
        }
    }

    // ---- drain ----------------------------------------------------------
    ingester.flush();
    route_feedback(&mut conns, &route, &fb_rx);
    // Dropping each writer sender closes its queue; the writer task
    // drains remaining payloads, flushes, and shuts the socket down.
    for state in conns.iter_mut() {
        state.writer = None;
    }
    // Unblock the accept loop with a sentinel dial, then join it.
    closing.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr).await;
    let _ = accept_task.await;
    // Late feedback (none expected after the final flush, but a shard
    // worker could still be mid-poll): count as shed, never drop silently.
    route_feedback(&mut conns, &route, &fb_rx);

    let (ingest, durable, elastic) = ingester.finish()?;
    let conn_reports = conns
        .iter()
        .enumerate()
        .map(|(i, c)| ConnReport {
            conn: i,
            streams: c.streams,
            ticks: c.ticks,
            bytes_in: c.bytes_in,
            feedback_sent: c.feedback_sent,
            shed: c.shed,
            queue_high_water: c.queue_high_water,
        })
        .collect();
    Ok(NetReport {
        ingest,
        conns: conn_reports,
        ticks,
        rejected_hellos,
        dropped_router_msgs: dropped_router_msgs.load(Ordering::Relaxed),
        shutdown_errors: shutdown_errors.load(Ordering::Relaxed),
        replayed_ticks,
        replay_feedback_discarded,
        durable,
        elastic,
    })
}

/// Per-connection reader: hello, then marker-delimited tick segments.
/// Spawns the connection's writer task once the hello is accepted.
async fn reader_task(
    stream: TcpStream,
    router: mpsc::Sender<RouterMsg>,
    max_hello_streams: usize,
    dropped_router_msgs: Arc<AtomicU64>,
    shutdown_errors: Arc<AtomicU64>,
) {
    let _ = stream.set_nodelay(true);
    let (mut read, write) = stream.into_split();

    // A send to a closed router is a real loss of accounting, not noise.
    let report_or_count = |msg: RouterMsg, dropped: Arc<AtomicU64>| {
        let router = router.clone();
        async move {
            if router.send(msg).await.is_err() {
                dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    };

    // Hello.
    let mut prefix = [0u8; 8];
    if read.read_exact(&mut prefix).await.is_err() {
        return; // sentinel or portscan: vanish quietly
    }
    let streams = match decode_hello_prefix(&prefix, max_hello_streams) {
        Ok(count) => {
            let mut body = vec![0u8; count * 4];
            if read.read_exact(&mut body).await.is_err() {
                return;
            }
            match decode_hello_ids(&body) {
                Ok(ids) => ids,
                Err(_) => {
                    report_or_count(RouterMsg::HelloRejected, dropped_router_msgs.clone()).await;
                    return;
                }
            }
        }
        Err(_) => {
            report_or_count(RouterMsg::HelloRejected, dropped_router_msgs.clone()).await;
            return;
        }
    };

    let (writer_tx, writer_rx) = mpsc::channel::<Bytes>(FEEDBACK_QUEUE_DEPTH);
    let (slot_tx, slot_rx) = crossbeam::channel::bounded(1);
    if router
        .send(RouterMsg::Hello {
            streams,
            writer: writer_tx,
            conn_slot: slot_tx,
        })
        .await
        .is_err()
    {
        dropped_router_msgs.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let Ok(conn) = slot_rx.recv() else { return };
    let writer_shutdown_errors = shutdown_errors.clone();
    tokio::spawn(async move { writer_task(write, writer_rx, writer_shutdown_errors).await });

    // Data: accumulate frames, cut at markers.
    let mut decoder = StreamDecoder::new();
    let mut tick_buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = match read.read(&mut chunk).await {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut ticks: Vec<Vec<u8>> = Vec::new();
        match feed_ticks(&mut decoder, &chunk[..n], &mut tick_buf, |t| ticks.push(t)) {
            Ok(_) => {}
            Err(_) => break, // oversized frame: poison-close the connection
        }
        for frames in ticks {
            let bytes_in = frames.len() as u64 + MARKER_BYTES as u64;
            if router
                .send(RouterMsg::Tick {
                    conn,
                    frames,
                    bytes_in,
                })
                .await
                .is_err()
            {
                return;
            }
        }
    }
    // An undeliverable EOF means the router tore down first; its barrier
    // no longer waits on this conn, but the loss is still counted.
    report_or_count(RouterMsg::Eof { conn }, dropped_router_msgs.clone()).await;
}

/// Per-connection writer: drains the bounded feedback queue onto the
/// socket; on queue close, flushes and shuts the write side down.
async fn writer_task(
    mut write: OwnedWriteHalf,
    mut rx: mpsc::Receiver<Bytes>,
    shutdown_errors: Arc<AtomicU64>,
) {
    while let Some(frame) = rx.recv().await {
        if write.write_all(&frame).await.is_err() {
            // Peer gone: keep draining so the router's try_sends see a
            // live (then closed) queue rather than a wedged one.
            continue;
        }
    }
    if write.shutdown().await.is_err() {
        shutdown_errors.fetch_add(1, Ordering::Relaxed);
    }
}
