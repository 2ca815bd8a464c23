//! [`ElasticIngest`]: the loop closure between the controller and a
//! resizable ingester.
//!
//! The driver sits on the tick path. Each tick it counts the offered
//! frames per shard (a pure function of the traffic and the live
//! assignment — no clocks), forwards the tick, and every `sample_every`
//! ticks hands the controller a [`LoadSample`]. Non-hold decisions are
//! executed immediately through [`ResizableIngest::reassign`], which
//! quiesces at the tick barrier — so a resize can only ever land *between*
//! ticks, never inside one, and the run stays bit-identical to an
//! unresized one.

use kalstream_core::{FrameDecoder, ResizableIngest, ShardAssignment, SnapshotSource, TickIngest};
use kalstream_obs::{Instrument, Scope};

use crate::controller::{ControllerConfig, Decision, ElasticController, LoadSample};

/// Tuning for [`ElasticIngest`].
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// The controller policy.
    pub controller: ControllerConfig,
    /// Ticks per observation window. Must be ≥ 1.
    pub sample_every: u64,
    /// Feed live queue depths into the controller. Depths are
    /// timing-dependent, so experiments that gate exact decision counts
    /// turn this off; servers under real load leave it on.
    pub use_queue_signal: bool,
}

impl ElasticConfig {
    /// A config sampling every `sample_every` ticks with the queue signal
    /// enabled.
    pub fn new(controller: ControllerConfig, sample_every: u64) -> Self {
        assert!(
            sample_every >= 1,
            "sample window must cover at least 1 tick"
        );
        ElasticConfig {
            controller,
            sample_every,
            use_queue_signal: true,
        }
    }
}

/// Which way a resize went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeKind {
    /// More shards.
    Grow,
    /// Fewer shards.
    Shrink,
    /// Same count, new placement salt.
    Rebalance,
}

/// One executed resize, for experiment tables and artifacts.
#[derive(Debug, Clone, Copy)]
pub struct ResizeEvent {
    /// Tick at whose barrier the resize executed.
    pub tick: u64,
    /// Grow, shrink, or rebalance.
    pub kind: ResizeKind,
    /// Assignment before.
    pub from: ShardAssignment,
    /// Assignment after.
    pub to: ShardAssignment,
    /// Wall-clock ingest stall paid at the drain barrier. Reported in
    /// artifacts only, never in deterministic tables.
    pub stall: std::time::Duration,
}

/// A resizable ingester with the controller loop closed around it.
pub struct ElasticIngest<I: ResizableIngest> {
    inner: I,
    controller: ElasticController,
    sample_every: u64,
    use_queue_signal: bool,
    decoder: FrameDecoder,
    /// Offered frames per live shard, accumulated over the open window.
    offered: Vec<u64>,
    window_ticks: u64,
    ticks: u64,
    /// Last salt handed out for a rebalance, so each reshuffle is new.
    salt_epoch: u64,
    events: Vec<ResizeEvent>,
}

impl<I: ResizableIngest> ElasticIngest<I> {
    /// Closes the loop around `inner`. The controller starts believing
    /// whatever shape `inner` is actually in.
    ///
    /// # Panics
    /// Panics when `inner`'s shard count lies outside the controller's
    /// `[min_shards, max_shards]` range.
    pub fn new(inner: I, config: ElasticConfig) -> Self {
        assert!(
            config.sample_every >= 1,
            "sample window must cover at least 1 tick"
        );
        let assignment = inner.assignment();
        let controller = ElasticController::new(config.controller, assignment.shards);
        ElasticIngest {
            inner,
            controller,
            sample_every: config.sample_every,
            use_queue_signal: config.use_queue_signal,
            decoder: FrameDecoder::new(),
            offered: vec![0; assignment.shards],
            window_ticks: 0,
            ticks: 0,
            salt_epoch: assignment.salt,
            events: Vec::new(),
        }
    }

    /// Ticks ingested through the driver.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The controller (stats, believed shape).
    pub fn controller(&self) -> &ElasticController {
        &self.controller
    }

    /// Every resize executed so far, in order.
    pub fn events(&self) -> &[ResizeEvent] {
        &self.events
    }

    /// Worst ingest stall paid at any resize barrier so far, in
    /// milliseconds. Wall-clock — artifact material, not table material.
    pub fn max_stall_ms(&self) -> f64 {
        self.events
            .iter()
            .map(|e| e.stall.as_secs_f64() * 1e3)
            .fold(0.0, f64::max)
    }

    /// The wrapped ingester.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Mutable access to the wrapped ingester (flush, snapshot hooks).
    pub fn inner_mut(&mut self) -> &mut I {
        &mut self.inner
    }

    /// Unwraps the ingester (to call its `finish`).
    pub fn into_inner(self) -> I {
        self.inner
    }

    /// Closes the observation window: samples the controller and executes
    /// its decision at the current tick barrier.
    fn sample_and_act(&mut self) {
        let depths = if self.use_queue_signal {
            self.inner.queue_depths()
        } else {
            Vec::new()
        };
        let decision = self.controller.observe(&LoadSample {
            per_shard_offered: &self.offered,
            ticks: self.window_ticks,
            queue_depths: &depths,
            busy_frac: None,
        });
        let from = self.inner.assignment();
        let target = match decision {
            Decision::Hold => None,
            Decision::Grow { to } => Some((
                ResizeKind::Grow,
                ShardAssignment {
                    shards: to,
                    salt: from.salt,
                },
            )),
            Decision::Shrink { to } => Some((
                ResizeKind::Shrink,
                ShardAssignment {
                    shards: to,
                    salt: from.salt,
                },
            )),
            Decision::Rebalance => {
                self.salt_epoch += 1;
                Some((
                    ResizeKind::Rebalance,
                    ShardAssignment {
                        shards: from.shards,
                        salt: self.salt_epoch,
                    },
                ))
            }
        };
        if let Some((kind, to)) = target {
            let transition = self.inner.reassign(to);
            // The executor has the final word (the sequential reference
            // refuses); believe what actually happened.
            let live = self.inner.assignment();
            self.controller.sync_shards(live.shards);
            self.events.push(ResizeEvent {
                tick: self.ticks,
                kind,
                from: transition.from,
                to: transition.to,
                stall: transition.stall,
            });
        }
        let live_shards = self.inner.assignment().shards;
        self.offered.clear();
        self.offered.resize(live_shards, 0);
        self.window_ticks = 0;
    }
}

impl<I: ResizableIngest> TickIngest for ElasticIngest<I> {
    fn ingest_tick(&mut self, wire: &[u8]) {
        let assignment = self.inner.assignment();
        let offered = &mut self.offered;
        self.decoder.for_each_frame(wire, |frame| {
            offered[assignment.route(frame.stream_id)] += 1;
        });
        self.inner.ingest_tick(wire);
        self.ticks += 1;
        self.window_ticks += 1;
        if self.window_ticks >= self.sample_every {
            self.sample_and_act();
        }
    }
}

impl<I: ResizableIngest + SnapshotSource> SnapshotSource for ElasticIngest<I> {
    fn snapshot_states(&mut self) -> Vec<(u32, kalstream_core::EndpointState)> {
        self.inner.snapshot_states()
    }

    fn snapshot_records(&mut self, out: &mut Vec<u8>) -> u32 {
        self.inner.snapshot_records(out)
    }
}

impl<I: ResizableIngest> Instrument for ElasticIngest<I> {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.observe("controller", self.controller.stats());
        scope.counter("resizes", self.events.len() as u64);
        scope.gauge("max_stall_ms", self.max_stall_ms());
        scope.gauge("shards", self.inner.assignment().shards as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalstream_core::{
        FrameBatch, IngestPipeline, ProtocolConfig, SequentialIngest, ServerEndpoint, SessionSpec,
        StreamSession,
    };
    use kalstream_sim::Producer;

    /// `n` scalar sessions and a framed log whose per-tick message volume
    /// follows `active(t)`: only the first `active(t)` sources get a
    /// volatile signal that tick (the rest see a constant and suppress), so
    /// offered load swings with `active` while every stream stays in
    /// lockstep.
    fn record_swing_log(
        n: u32,
        ticks: u64,
        active: impl Fn(u64) -> u32,
    ) -> (Vec<(u32, ServerEndpoint)>, Vec<Vec<u8>>) {
        let mut sources = Vec::new();
        let mut servers = Vec::new();
        for id in 0..n {
            let config = ProtocolConfig::new(0.2).unwrap();
            let StreamSession { source, server } =
                SessionSpec::default_scalar(0.0, config).unwrap().build();
            sources.push((id, source));
            servers.push((id, server));
        }
        let mut log = Vec::new();
        for t in 0..ticks {
            let hot = active(t);
            let mut batch = FrameBatch::new();
            for (id, source) in sources.iter_mut() {
                let v = if *id < hot {
                    ((t as f64) * 1.3 + *id as f64).sin() * 10.0
                } else {
                    0.0
                };
                if let Some(payload) = source.observe(t, &[v]) {
                    batch.push_raw(*id, &payload);
                }
            }
            log.push(batch.as_bytes().to_vec());
        }
        (servers, log)
    }

    fn filter_bits(ep: &ServerEndpoint) -> Vec<u64> {
        let f = ep.filter();
        f.state()
            .iter()
            .map(|v| v.to_bits())
            .chain(f.covariance().as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    fn elastic_config() -> ElasticConfig {
        let mut controller = ControllerConfig::new(1, 4, 3.0);
        controller.grow_after = 2;
        controller.shrink_after = 2;
        controller.cooldown = 1;
        let mut config = ElasticConfig::new(controller, 5);
        config.use_queue_signal = false; // deterministic decisions
        config
    }

    #[test]
    fn controller_tracks_a_load_swing_and_stays_bit_identical() {
        // Step load: quiet → all 12 streams hot → quiet again.
        let active = |t: u64| -> u32 {
            if (40..120).contains(&t) {
                12
            } else {
                1
            }
        };
        let (servers, log) = record_swing_log(12, 160, active);
        let mut seq = SequentialIngest::new(servers.clone());
        for tick in &log {
            seq.ingest_tick(tick);
        }
        let seq_result = seq.finish();
        assert!(seq_result.total_messages() > 0);

        let mut elastic =
            ElasticIngest::new(IngestPipeline::start(1, servers.clone()), elastic_config());
        for tick in &log {
            elastic.ingest_tick(tick);
        }
        let stats = elastic.controller().stats().clone();
        assert!(stats.grows >= 1, "hot phase must grow: {stats:?}");
        assert!(stats.shrinks >= 1, "quiet tail must shrink: {stats:?}");
        let result = elastic.into_inner().finish();
        assert_eq!(result.total_messages(), seq_result.total_messages());
        for ((id_a, a), (id_b, b)) in result.endpoints.iter().zip(seq_result.endpoints.iter()) {
            assert_eq!(id_a, id_b);
            assert_eq!(filter_bits(a), filter_bits(b), "stream {id_a} diverged");
        }
    }

    #[test]
    fn decisions_are_reproducible_run_to_run() {
        let active = |t: u64| -> u32 {
            if t >= 30 {
                12
            } else {
                1
            }
        };
        let run = || {
            let (servers, log) = record_swing_log(12, 90, active);
            let mut elastic =
                ElasticIngest::new(IngestPipeline::start(1, servers), elastic_config());
            for tick in &log {
                elastic.ingest_tick(tick);
            }
            let events: Vec<(u64, usize, usize)> = elastic
                .events()
                .iter()
                .map(|e| (e.tick, e.from.shards, e.to.shards))
                .collect();
            elastic.into_inner().finish();
            events
        };
        let first = run();
        assert!(!first.is_empty());
        assert_eq!(first, run(), "same traffic must produce same decisions");
    }

    #[test]
    fn sequential_reference_refuses_resizes_gracefully() {
        let active = |_t: u64| -> u32 { 6 };
        let (servers, log) = record_swing_log(6, 40, active);
        let mut elastic = ElasticIngest::new(SequentialIngest::new(servers), elastic_config());
        for tick in &log {
            elastic.ingest_tick(tick);
        }
        // Decisions may fire, but the executor stays at one pseudo-shard
        // and the controller's belief follows it.
        assert_eq!(elastic.controller().shards(), 1);
        for event in elastic.events() {
            assert_eq!(event.from.shards, event.to.shards);
        }
    }

    #[test]
    fn obs_export_names_are_stable() {
        let (servers, _) = record_swing_log(2, 0, |_| 0);
        let elastic = ElasticIngest::new(IngestPipeline::start(1, servers), elastic_config());
        let mut registry = kalstream_obs::Registry::new();
        registry.observe("elastic", &elastic);
        let snap = registry.snapshot();
        assert!(snap.counter("elastic.controller.grows").is_some());
        assert!(snap.counter("elastic.resizes").is_some());
        assert!(snap.gauge("elastic.shards").is_some());
        elastic.into_inner().finish();
    }
}
