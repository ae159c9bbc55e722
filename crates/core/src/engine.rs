//! The round engine: the one lifecycle every split-learning driver runs.
//!
//! A round is the paper's four-message exchange with `L1` on each
//! platform and `L2..Lk` on the server. What differs between drivers is
//! only how those messages are delivered — straight over a transport,
//! reliably over a faulty one, or through regional relays. That part is
//! a [`Route`]; everything else lives here, once:
//!
//! - validation, the one table of supported scheduling × `L1` sync
//!   combinations, and building the actors;
//! - pristine snapshots, per-round checkpoints of the survivors and the
//!   crash / recover handling (for the fault-tolerant routes);
//! - the LR schedule, the compute charge for the round's survivors and
//!   the `L1` synchronisation;
//! - evaluation over the live platforms (head → server → tail, if the
//!   platform holds a tail);
//! - the `round` and `evaluate` spans, the [`RoundRecord`]s, the
//!   final-accuracy fallback and the method string of the
//!   [`TrainingHistory`].
//!
//! [`SplitTrainer`](crate::SplitTrainer),
//! [`ResilientTrainer`](crate::ResilientTrainer),
//! [`HierResilientTrainer`](crate::HierResilientTrainer) and
//! [`UShapeTrainer`](crate::UShapeTrainer) are constructors of this
//! engine; [`train_threaded`](crate::threaded::train_threaded) shares
//! its validation, actors, evaluation and history assembly.

use std::collections::BTreeMap;
use std::time::Instant;

use bytes::Bytes;
use medsplit_data::InMemoryDataset;
use medsplit_nn::{accuracy, Architecture, Layer};
use medsplit_simnet::{ChaosEvent, MessageKind, NodeId, StatsSnapshot, Transport};
use medsplit_tensor::Tensor;

use crate::config::{L1Sync, OptimizerKind, Scheduling, SplitConfig};
use crate::error::{Result, SplitError};
use crate::history::{RoundRecord, TrainingHistory};
use crate::messages::{decode_tensor, sender_platform, tensor_envelope};
use crate::platform::Platform;
use crate::server::SplitServer;
use crate::split::resolve_split;

/// What one round's exchange produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Exchange {
    /// Mean training loss of the survivors (0 when the update was
    /// dropped).
    pub mean_loss: f32,
    /// Ids of the platforms that made it into the round, ascending.
    pub survivors: Vec<usize>,
    /// Whether the survivors' update was applied; false when they fell
    /// below quorum.
    pub committed: bool,
}

impl Exchange {
    /// A round whose survivors' update was applied.
    pub fn applied(losses: &[f32], survivors: Vec<usize>) -> Self {
        let mean_loss = losses.iter().sum::<f32>() / losses.len().max(1) as f32;
        Exchange {
            mean_loss,
            survivors,
            committed: true,
        }
    }

    /// A round whose survivors fell below quorum: no update, no loss.
    pub fn dropped(survivors: Vec<usize>) -> Self {
        Exchange {
            mean_loss: 0.0,
            survivors,
            committed: false,
        }
    }
}

/// How one round's messages travel between the platforms and the
/// server. The [`RoundEngine`] runs everything around the exchange.
pub trait Route {
    /// The transport the messages travel over.
    fn transport(&self) -> &dyn Transport;

    /// Applies the faults scheduled for `round`, counts them in the
    /// route's report, and returns them.
    fn begin_round(&mut self, _round: u64) -> Vec<ChaosEvent> {
        Vec::new()
    }

    /// Whether `node` is crashed.
    fn is_down(&self, _node: NodeId) -> bool {
        false
    }

    /// Runs the four-message exchange of `round`, counting a degraded
    /// round in the route's report.
    ///
    /// # Errors
    ///
    /// Returns protocol, tensor and transport errors.
    fn exchange(
        &mut self,
        round: u64,
        config: &SplitConfig,
        platforms: &mut [Platform],
        server: &mut SplitServer,
    ) -> Result<Exchange>;

    /// Called once after the last round.
    fn finish(&mut self) {}
}

/// The drivers, named by their method strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Driver {
    Star,
    UShape,
    ReliableStar,
    RelayTree,
    Threaded,
}

impl Driver {
    /// The method string of the driver's [`TrainingHistory`].
    fn method(self) -> &'static str {
        match self {
            Driver::Star => "split",
            Driver::UShape => "split_ushape",
            Driver::ReliableStar => "split_resilient",
            Driver::RelayTree => "split_hier_resilient",
            Driver::Threaded => "split_threaded",
        }
    }

    /// The rejection table: `(round-robin scheduling, L1 sync)` support.
    /// Every driver runs `Aggregate` scheduling with `CommonInit`. The
    /// fault-tolerant routes commit survivors round by round, which a
    /// per-platform server step or a fleet-wide parameter exchange would
    /// tear; the threaded runtime's node loops run the aggregate round
    /// only; the U-shape's tails are scaled for the aggregate batch.
    fn supports(self) -> (bool, bool) {
        match self {
            Driver::Star => (true, true),
            Driver::UShape => (false, true),
            Driver::ReliableStar | Driver::RelayTree | Driver::Threaded => (false, false),
        }
    }

    fn fault_tolerant(self) -> bool {
        matches!(self, Driver::ReliableStar | Driver::RelayTree)
    }
}

/// The protocol actors of one run.
pub(crate) struct Actors {
    pub platforms: Vec<Platform>,
    pub server: SplitServer,
    pub client_params: usize,
    pub server_params: usize,
}

/// Validates a run for `driver` and builds its actors: one replica of
/// the platform-side layers per shard (a head, plus a tail when
/// `tail_layers` is set) and the server's layers.
///
/// # Errors
///
/// Returns [`SplitError::Config`] for invalid configurations,
/// combinations `driver` does not run, a used transport, unusable
/// shards, cuts that leave the server nothing, or a quorum larger than
/// the fleet.
pub(crate) fn prepare(
    arch: &Architecture,
    config: &SplitConfig,
    shards: Vec<InMemoryDataset>,
    transport: &dyn Transport,
    driver: Driver,
    tail_layers: Option<usize>,
) -> Result<Actors> {
    let config_error = |msg: String| Err(SplitError::Config(msg));
    config.validate().map_err(SplitError::Config)?;
    let (round_robin, l1_sync) = driver.supports();
    if config.scheduling == Scheduling::RoundRobin && !round_robin {
        return config_error(format!("{} does not run RoundRobin scheduling", driver.method()));
    }
    if config.l1_sync != L1Sync::CommonInit && !l1_sync {
        return config_error(format!("{} does not run L1 sync", driver.method()));
    }
    if transport.stats().snapshot().messages > 0 {
        return config_error("transport has already been used; accounting would be polluted".into());
    }
    if shards.is_empty() || shards.iter().any(InMemoryDataset::is_empty) {
        return config_error("at least one platform shard is required, and none may be empty".into());
    }
    if driver.fault_tolerant() && config.round_policy.min_platforms > shards.len() {
        return config_error(format!(
            "quorum of {} exceeds the {} configured platforms",
            config.round_policy.min_platforms,
            shards.len()
        ));
    }
    let head_at = resolve_split(arch, config.split)?;
    // Every replica is carved from a network built from the same seed,
    // so all platforms start from identical weights.
    let carve = || {
        let mut full = arch.build(config.seed);
        let total = full.len();
        let tail_at = match tail_layers {
            None => total,
            Some(t) if head_at + t < total => total - t,
            Some(t) => {
                return Err(SplitError::Config(format!(
                    "head ({head_at}) + tail ({t}) leave no middle layers (model has {total})"
                )))
            }
        };
        let tail = full.split_off(tail_at);
        let middle = full.split_off(head_at);
        Ok((full, middle, tail))
    };
    let sizes: Vec<usize> = shards.iter().map(InMemoryDataset::len).collect();
    let batches = config.minibatch.sizes(&sizes);
    let total_batch: usize = batches.iter().sum();
    let mut client_params = 0;
    let mut platforms = Vec::with_capacity(shards.len());
    for (id, (data, &batch)) in shards.into_iter().zip(&batches).enumerate() {
        let (mut head, _, mut tail) = carve()?;
        client_params = head.param_count() + tail.param_count();
        let mut p = Platform::new(id, head, data, batch, config.momentum, config.seed);
        if tail_layers.is_some() {
            p.set_tail(tail, config.optimizer.build(config.momentum));
        }
        // Under aggregate scheduling the server takes one step on the
        // union batch, so each platform re-weights its locally
        // normalised gradient by its batch share.
        if config.scheduling == Scheduling::Aggregate {
            p.set_grad_scale(batch as f32 / total_batch as f32);
        }
        p.set_codec(config.codec);
        if config.activation_noise > 0.0 {
            p.set_activation_noise(config.activation_noise);
        }
        if config.optimizer != OptimizerKind::Sgd {
            p.set_optimizer(config.optimizer.build(config.momentum));
        }
        platforms.push(p);
    }
    let (_, middle, _) = carve()?;
    let mut server = if tail_layers.is_some() {
        SplitServer::new_u_shaped(middle, config.momentum)
    } else {
        SplitServer::new(middle, config.momentum)
    };
    server.set_codec(config.codec);
    if config.optimizer != OptimizerKind::Sgd {
        server.set_optimizer(config.optimizer.build(config.momentum));
    }
    let server_params = server.param_count();
    Ok(Actors {
        platforms,
        server,
        client_params,
        server_params,
    })
}

/// Mean test accuracy of the deployed models of the platforms `is_down`
/// does not rule out: each platform's head, the server's layers, and the
/// platform's tail if it holds one.
///
/// Evaluation happens out-of-band (no protocol traffic): it measures
/// model quality, not communication.
///
/// # Errors
///
/// Propagates tensor errors.
pub(crate) fn evaluate(
    platforms: &mut [Platform],
    server: &mut SplitServer,
    test: &InMemoryDataset,
    is_down: impl Fn(NodeId) -> bool,
) -> Result<f32> {
    let _span = medsplit_telemetry::span("evaluate");
    const EVAL_BATCH: usize = 64;
    let n = test.len();
    let mut total = 0.0;
    let mut counted = 0usize;
    for platform in platforms.iter_mut().filter(|p| !is_down(p.node())) {
        let mut correct_weighted = 0.0;
        let mut start = 0;
        while start < n {
            let count = EVAL_BATCH.min(n - start);
            let idx: Vec<usize> = (start..start + count).collect();
            let (features, labels) = test.batch(&idx)?;
            let acts = platform.infer_l1(&features)?;
            let out = server.infer(&acts)?;
            let logits = platform.infer_tail(out)?;
            correct_weighted += accuracy(&logits, &labels)? * count as f32;
            start += count;
        }
        total += correct_weighted / n.max(1) as f32;
        counted += 1;
    }
    Ok(total / counted.max(1) as f32)
}

/// Assembles a run's history. If the last round was not an evaluation
/// round, `evaluate` supplies the final accuracy and it is recorded on
/// that round.
///
/// # Errors
///
/// Propagates `evaluate`'s error.
pub(crate) fn history(
    driver: Driver,
    mut records: Vec<RoundRecord>,
    stats: StatsSnapshot,
    evaluate: impl FnOnce() -> Result<f32>,
) -> Result<TrainingHistory> {
    let final_accuracy = match records.last().and_then(|r| r.accuracy) {
        Some(a) => a,
        None => {
            let a = evaluate()?;
            if let Some(last) = records.last_mut() {
                last.accuracy = Some(a);
            }
            a
        }
    };
    Ok(TrainingHistory {
        method: driver.method().into(),
        records,
        final_accuracy,
        stats,
    })
}

/// One split-learning run: the actors, the test set, and the [`Route`]
/// their messages take.
pub struct RoundEngine<R> {
    driver: Driver,
    config: SplitConfig,
    platforms: Vec<Platform>,
    server: SplitServer,
    test: InMemoryDataset,
    client_params: usize,
    server_params: usize,
    /// What a crashed platform is reset to before its checkpoint is
    /// restored (RAM is gone, disk survives). Empty on routes without
    /// faults.
    pristine: Vec<Bytes>,
    /// Last committed checkpoint per platform id.
    checkpoints: BTreeMap<usize, Bytes>,
    pub(crate) route: R,
}

impl<R: Route> RoundEngine<R> {
    pub(crate) fn assemble(
        arch: &Architecture,
        config: SplitConfig,
        shards: Vec<InMemoryDataset>,
        test: InMemoryDataset,
        route: R,
        driver: Driver,
        tail_layers: Option<usize>,
    ) -> Result<Self> {
        let mut actors = prepare(arch, &config, shards, route.transport(), driver, tail_layers)?;
        let pristine = if driver.fault_tolerant() {
            actors.platforms.iter_mut().map(Platform::checkpoint).collect()
        } else {
            Vec::new()
        };
        Ok(RoundEngine {
            driver,
            config,
            platforms: actors.platforms,
            server: actors.server,
            test,
            client_params: actors.client_params,
            server_params: actors.server_params,
            pristine,
            checkpoints: BTreeMap::new(),
            route,
        })
    }

    /// The platform actors (for inspection and privacy probes).
    pub fn platforms_mut(&mut self) -> &mut [Platform] {
        &mut self.platforms
    }

    /// The server actor.
    pub fn server_mut(&mut self) -> &mut SplitServer {
        &mut self.server
    }

    /// Mean test accuracy over the live platforms' deployed models
    /// (crashed hospitals cannot serve).
    ///
    /// # Errors
    ///
    /// Propagates tensor errors.
    pub fn evaluate(&mut self) -> Result<f32> {
        let route = &self.route;
        evaluate(&mut self.platforms, &mut self.server, &self.test, |node| {
            route.is_down(node)
        })
    }

    /// Runs the configured number of rounds and returns the history.
    ///
    /// # Errors
    ///
    /// Propagates protocol, tensor and transport errors; faults the
    /// route tolerates (loss, corruption, crashes within quorum) do not
    /// error.
    pub fn run(&mut self) -> Result<TrainingHistory> {
        let k = self.platforms.len();
        let mut records = Vec::with_capacity(self.config.rounds);
        for round in 0..self.config.rounds {
            let mut round_span = medsplit_telemetry::span_round("round", round as u64);
            let round_start = Instant::now();
            let events = self.route.begin_round(round as u64);
            self.apply_events(&events)?;

            let lr = self.config.lr.lr_at(round);
            for p in &mut self.platforms {
                p.set_lr(lr);
            }
            self.server.set_lr(lr);

            let ex =
                self.route
                    .exchange(round as u64, &self.config, &mut self.platforms, &mut self.server)?;
            if ex.committed {
                if self.driver.fault_tolerant() {
                    // The survivors' post-update state is their rejoin
                    // point.
                    for &pid in &ex.survivors {
                        let blob = self.platforms[pid].checkpoint();
                        self.checkpoints.insert(pid, blob);
                    }
                }
                self.charge_compute(&ex.survivors);
            }
            if self.config.sync_due(round) {
                self.sync_l1(round as u64)?;
            }

            let eval_due = self.config.eval_every > 0 && (round + 1) % self.config.eval_every == 0;
            let accuracy = if eval_due { Some(self.evaluate()?) } else { None };
            let snap = self.route.transport().stats().snapshot();
            round_span.set_sim_s(snap.makespan_s);
            records.push(RoundRecord {
                round,
                lr,
                mean_loss: ex.mean_loss,
                cumulative_bytes: snap.total_bytes,
                simulated_time_s: snap.makespan_s,
                wall_time_s: round_start.elapsed().as_secs_f64(),
                participants: ex.survivors.len(),
                degraded: ex.survivors.len() < k,
                accuracy,
            });
        }
        let stats = self.route.transport().stats().snapshot();
        let history = history(self.driver, records, stats, || self.evaluate())?;
        self.route.finish();
        Ok(history)
    }

    /// Applies a round's chaos events: crashes wipe the platform back to
    /// its pristine state, recoveries restore its last checkpoint.
    fn apply_events(&mut self, events: &[ChaosEvent]) -> Result<()> {
        for event in events {
            let (pid, blob) = match *event {
                ChaosEvent::Crash {
                    node: NodeId::Platform(pid),
                    ..
                } => (pid, self.pristine.get(pid)),
                ChaosEvent::Recover {
                    node: NodeId::Platform(pid),
                    ..
                } => (pid, self.checkpoints.get(&pid)),
                _ => continue,
            };
            if let (Some(p), Some(blob)) = (self.platforms.get_mut(pid), blob) {
                p.restore(blob)?;
            }
        }
        Ok(())
    }

    /// Advances the simulated clocks for the survivors' local compute and
    /// the server's step on their union batch.
    fn charge_compute(&self, survivors: &[usize]) {
        let compute = self.config.compute;
        let stats = self.route.transport().stats();
        let mut total_batch = 0usize;
        for &pid in survivors {
            let p = &self.platforms[pid];
            let s = compute.seconds(compute.platform_s_per_msample, p.batch_size(), self.client_params);
            stats.advance_clock(p.node(), s);
            total_batch += p.batch_size();
        }
        let s = compute.seconds(compute.server_s_per_msample, total_batch, self.server_params);
        stats.advance_clock(NodeId::Server, s);
    }

    /// Runs the configured `L1` synchronisation through the server.
    fn sync_l1(&mut self, round: u64) -> Result<()> {
        let transport = self.route.transport();
        let recv = |node: NodeId| {
            transport
                .try_recv(node)
                .ok_or_else(|| SplitError::Protocol(format!("no message queued for {node}")))
        };
        let k = self.platforms.len();
        for p in &mut self.platforms {
            let params = p.l1_parameters();
            transport.send(tensor_envelope(
                p.node(),
                NodeId::Server,
                round,
                MessageKind::L1Sync,
                &params,
            ))?;
        }
        let mut uploads: Vec<(usize, Tensor)> = Vec::with_capacity(k);
        for _ in 0..k {
            let env = recv(NodeId::Server)?;
            uploads.push((sender_platform(&env)?, decode_tensor(&env, MessageKind::L1Sync)?));
        }
        uploads.sort_by_key(|(pid, _)| *pid);
        let outgoing: Vec<Tensor> = match self.config.l1_sync {
            L1Sync::CommonInit => return Ok(()),
            L1Sync::PeriodicAverage { .. } => {
                // Weighted by shard size, as FedAvg does.
                let weights: Vec<f32> = self.platforms.iter().map(|p| p.shard_size() as f32).collect();
                let total: f32 = weights.iter().sum();
                let mut avg = Tensor::zeros(uploads[0].1.shape().clone());
                for ((_, t), w) in uploads.iter().zip(&weights) {
                    avg.axpy(w / total, t)?;
                }
                vec![avg; k]
            }
            // Platform p adopts the parameters of its ring predecessor.
            L1Sync::CyclicShare { .. } => (0..k).map(|pid| uploads[(pid + k - 1) % k].1.clone()).collect(),
        };
        for (pid, params) in outgoing.iter().enumerate() {
            transport.send(tensor_envelope(
                NodeId::Server,
                NodeId::Platform(pid),
                round,
                MessageKind::L1Sync,
                params,
            ))?;
        }
        for p in &mut self.platforms {
            let env = recv(p.node())?;
            p.set_l1_parameters(&decode_tensor(&env, MessageKind::L1Sync)?)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HierPolicy, HierResilientTrainer, ResilientTrainer, SplitTrainer, UShapeTrainer};
    use medsplit_data::{partition, MinibatchPolicy, Partition, SyntheticTabular};
    use medsplit_nn::MlpConfig;
    use medsplit_simnet::{ChaosTransport, Envelope, FaultPlan, HierTopology, MemoryTransport, StarTopology};

    /// Builds `driver` over fresh (or, if `dirty`, used) transports for
    /// two platforms and reports whether construction succeeded.
    fn builds(driver: Driver, config: SplitConfig, shards: usize, dirty: bool) -> Result<()> {
        let arch = Architecture::Mlp(MlpConfig {
            input_dim: 8,
            hidden: vec![16, 12],
            num_classes: 3,
        });
        let train = SyntheticTabular::new(3, 8, 0).generate(40).unwrap();
        let test = SyntheticTabular::new(3, 8, 1).generate(10).unwrap();
        let shards = if shards == 0 {
            Vec::new()
        } else {
            partition(&train, shards, &Partition::Iid, 1).unwrap()
        };
        let star = MemoryTransport::new(StarTopology::new(2));
        let topo = HierTopology::new(1, 2);
        let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(2)), FaultPlan::new(0));
        let tree = ChaosTransport::new(MemoryTransport::new(topo.clone()), FaultPlan::new(0));
        if dirty {
            for t in [&star as &dyn Transport, &chaos, &tree] {
                t.send(Envelope::control(NodeId::Platform(0), NodeId::Server, 0))?;
            }
        }
        match driver {
            Driver::Star => SplitTrainer::new(&arch, config, shards, test, &star).map(drop),
            Driver::UShape => UShapeTrainer::new(&arch, config, 1, shards, test, &star).map(drop),
            Driver::ReliableStar => ResilientTrainer::new(&arch, config, shards, test, &chaos).map(drop),
            Driver::RelayTree => {
                let hier = HierPolicy::default();
                HierResilientTrainer::new(&arch, config, hier, topo, shards, test, &tree).map(drop)
            }
            Driver::Threaded => crate::threaded::train_threaded(&arch, config, shards, test, &star).map(drop),
        }
    }

    #[test]
    fn one_rejection_table_for_every_driver() {
        use Driver::*;
        let config = || SplitConfig {
            rounds: 1,
            eval_every: 0,
            minibatch: MinibatchPolicy::Fixed(4),
            ..SplitConfig::default()
        };
        let round_robin = || SplitConfig {
            scheduling: Scheduling::RoundRobin,
            ..config()
        };
        let synced = || SplitConfig {
            l1_sync: L1Sync::PeriodicAverage { every: 1 },
            ..config()
        };
        let is_config_error = |r: Result<()>| matches!(r, Err(SplitError::Config(_)));
        for (driver, rr_ok, sync_ok) in [
            (Star, true, true),
            (UShape, false, true),
            (ReliableStar, false, false),
            (RelayTree, false, false),
            (Threaded, false, false),
        ] {
            assert!(builds(driver, config(), 2, false).is_ok(), "{driver:?}");
            assert_eq!(
                builds(driver, round_robin(), 2, false).is_ok(),
                rr_ok,
                "{driver:?}"
            );
            assert_eq!(builds(driver, synced(), 2, false).is_ok(), sync_ok, "{driver:?}");
            // Every driver validates the config, the transport and the shards.
            let zero_rounds = SplitConfig {
                rounds: 0,
                ..config()
            };
            assert!(
                is_config_error(builds(driver, zero_rounds, 2, false)),
                "{driver:?}"
            );
            assert!(is_config_error(builds(driver, config(), 2, true)), "{driver:?}");
            assert!(is_config_error(builds(driver, config(), 0, false)), "{driver:?}");
            // Only the fault-tolerant routes have a quorum to check.
            let mut quorum = config();
            quorum.round_policy.min_platforms = 3;
            assert_eq!(
                is_config_error(builds(driver, quorum, 2, false)),
                driver.fault_tolerant(),
                "{driver:?}"
            );
        }
    }
}
