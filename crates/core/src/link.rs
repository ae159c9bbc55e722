//! What the two fault-tolerant routes share: a [`ChaosTransport`] with
//! the run's fault counters, checksum-checked draining, activation
//! collection with retries and deadlines, reliable delivery, and the
//! survivors' grad-scale re-weighting.
//!
//! The star ([`crate::resilient`]) and the relay tree ([`crate::hier`])
//! differ only in where messages land and how they are batched; both
//! send in their own fixed order, which this module never reorders:
//! the chaos transport draws its RNG once per send, so a different order
//! would drop different messages.

use std::collections::BTreeMap;

use medsplit_simnet::{ChaosEvent, ChaosTransport, Envelope, MessageKind, NodeId, Transport};

use crate::config::RoundPolicy;
use crate::error::{Result, SplitError};
use crate::hier::HierReport;
use crate::platform::Platform;

/// Cap on delivery attempts for the within-round reliable path
/// (committed survivor ↔ server). Link state is round-granular, so a
/// committed survivor's leg can only fail to random loss: at 10 % loss
/// the odds of exhausting this are ~1e-64, and hitting the cap is a
/// protocol error rather than a torn round.
const MAX_DELIVERY_ATTEMPTS: u32 = 64;

/// How much of the sink's inbox one delivery attempt drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Drain {
    /// Stop at the first accepted envelope; later ones stay queued.
    UntilAccepted,
    /// Drain the whole inbox; everything but the accepted envelope is
    /// counted as stray.
    Inbox,
}

/// A chaos transport plus the fault counters of the run driving it.
pub(crate) struct ChaosLink<'t, T> {
    pub chaos: &'t ChaosTransport<T>,
    /// Prefix of the telemetry counters (`resilient` or `hier`).
    prefix: &'static str,
    /// The star uses the shared `base` counters and one region.
    pub report: HierReport,
}

impl<'t, T: Transport> ChaosLink<'t, T> {
    pub fn new(chaos: &'t ChaosTransport<T>, prefix: &'static str, regions: usize) -> Self {
        ChaosLink {
            chaos,
            prefix,
            report: HierReport {
                region_bytes: vec![0; regions],
                ..HierReport::default()
            },
        }
    }

    /// Adds `n` to the telemetry counter `<prefix>.<name>`.
    pub fn count(&self, name: &str, n: u64) {
        if n > 0 && medsplit_telemetry::enabled() {
            medsplit_telemetry::counter_add(&format!("{}.{name}", self.prefix), n);
        }
    }

    /// Applies the faults scheduled for `round` and counts them.
    pub fn begin_round(&mut self, round: u64) -> Vec<ChaosEvent> {
        let events = self.chaos.begin_round(round);
        for event in &events {
            let (node, crash) = match *event {
                ChaosEvent::Crash { node, .. } => (node, true),
                ChaosEvent::Recover { node, .. } => (node, false),
                _ => continue,
            };
            let r = &mut self.report;
            let (field, name) = match (node, crash) {
                (NodeId::Platform(_), true) => (&mut r.base.crashes, "crashes"),
                (NodeId::Platform(_), false) => (&mut r.base.rejoins, "rejoins"),
                (NodeId::Relay(_), true) => (&mut r.relay_crashes, "relay_crashes"),
                (NodeId::Relay(_), false) => (&mut r.relay_rejoins, "relay_rejoins"),
                _ => continue,
            };
            *field += 1;
            self.count(name, 1);
        }
        events
    }

    /// Sends one envelope, attributing its wire bytes to `region`.
    pub fn send(&mut self, env: Envelope, region: usize) -> Result<()> {
        self.report.region_bytes[region] += env.wire_size() as u64;
        self.chaos.send(env)?;
        Ok(())
    }

    fn reject_corrupt(&mut self) {
        self.report.base.checksum_rejections += 1;
        self.count("checksum_rejections", 1);
    }

    fn count_retry(&mut self) {
        self.report.base.retries += 1;
        self.count("retries", 1);
    }

    /// Drains every sink in order, keeping the first checksum-valid
    /// activations of `round` per platform that arrived where `sink_of`
    /// says they should.
    fn drain(
        &mut self,
        round: u64,
        sinks: &[NodeId],
        sink_of: &impl Fn(usize) -> Option<NodeId>,
        received: &mut BTreeMap<usize, Envelope>,
    ) {
        for &sink in sinks {
            while let Some(env) = self.chaos.try_recv(sink) {
                if !env.verify_checksum() {
                    self.reject_corrupt();
                    continue;
                }
                let Some(pid) = env.src.platform_index() else {
                    self.report.base.stray_messages += 1;
                    continue;
                };
                if env.kind != MessageKind::Activations
                    || env.round != round
                    || sink_of(pid) != Some(sink)
                    || received.contains_key(&pid)
                {
                    self.report.base.stray_messages += 1;
                    continue;
                }
                received.insert(pid, env);
            }
        }
    }

    /// Collects this round's activations: sends every `pending`
    /// envelope, then retries the missing ones with backoff and jitter,
    /// giving up on platforms past the deadline or out of retries.
    /// Returns the survivors' envelopes by platform id; counts the
    /// platforms skipped.
    ///
    /// Each envelope is sent as it stands, so a retry never resamples
    /// the platform's minibatch.
    pub fn collect(
        &mut self,
        round: u64,
        policy: &RoundPolicy,
        mut pending: BTreeMap<usize, Envelope>,
        sinks: &[NodeId],
        sink_of: impl Fn(usize) -> Option<NodeId>,
        region_of: impl Fn(usize) -> usize,
    ) -> Result<BTreeMap<usize, Envelope>> {
        let stats = self.chaos.stats();
        let senders: Vec<usize> = pending.keys().copied().collect();
        let start_clocks: Vec<f64> = senders
            .iter()
            .map(|&pid| stats.clock(NodeId::Platform(pid)))
            .collect();
        for (&pid, env) in &pending {
            self.send(env.clone(), region_of(pid))?;
        }
        self.chaos.flush();

        let mut received: BTreeMap<usize, Envelope> = BTreeMap::new();
        let mut expired: Vec<usize> = Vec::new();
        for attempt in 0..=policy.max_retries {
            self.drain(round, sinks, &sink_of, &mut received);
            pending.retain(|pid, _| !received.contains_key(pid));
            // Deadline check on the simulated clock: a platform that has
            // fallen too far behind its own round start is skipped —
            // even if its late message eventually arrived, the round
            // cannot have waited for it.
            for (&pid, &start) in senders.iter().zip(&start_clocks) {
                if !expired.contains(&pid) && stats.clock(NodeId::Platform(pid)) > start + policy.deadline_s {
                    expired.push(pid);
                }
            }
            for pid in &expired {
                pending.remove(pid);
                received.remove(pid);
            }
            if pending.is_empty() || attempt == policy.max_retries {
                break;
            }
            // Retry the missing platforms after backing off: the wait and
            // the re-send both advance the sender's simulated clock.
            for (&pid, env) in &pending {
                let delay = policy.backoff.delay_s(attempt) * self.chaos.backoff_jitter();
                stats.advance_clock(NodeId::Platform(pid), delay);
                self.count_retry();
                self.send(env.clone(), region_of(pid))?;
            }
            self.chaos.flush();
        }
        self.drain(round, sinks, &sink_of, &mut received);
        for pid in &expired {
            received.remove(pid);
        }
        let skipped = senders.len() - received.len();
        self.report.base.skipped_platform_rounds += skipped as u64;
        self.count("skipped_platforms", skipped as u64);
        Ok(received)
    }

    /// Whether `survivors` of the round's `platforms` meet the quorum;
    /// counts a degraded round and a quorum failure.
    pub fn quorum_met(&mut self, survivors: usize, platforms: usize, policy: &RoundPolicy) -> bool {
        if survivors < platforms {
            self.report.base.degraded_rounds += 1;
            self.count("degraded_rounds", 1);
        }
        if survivors >= policy.min_platforms {
            return true;
        }
        self.report.base.quorum_failures += 1;
        self.count("quorum_failures", 1);
        false
    }

    /// Reliable delivery of `env` to its destination: resends until a
    /// checksum-valid envelope satisfying `accept` is drained there.
    /// Only used for committed survivors, whose links stay up for the
    /// rest of the round.
    pub fn deliver(
        &mut self,
        env: Envelope,
        region: usize,
        drain: Drain,
        accept: impl Fn(&Envelope) -> bool,
    ) -> Result<Envelope> {
        let sink = env.dst;
        for _ in 0..MAX_DELIVERY_ATTEMPTS {
            self.send(env.clone(), region)?;
            self.chaos.flush();
            let mut accepted = None;
            while let Some(got) = self.chaos.try_recv(sink) {
                if !got.verify_checksum() {
                    self.reject_corrupt();
                } else if accepted.is_none() && accept(&got) {
                    if drain == Drain::UntilAccepted {
                        return Ok(got);
                    }
                    accepted = Some(got);
                } else {
                    self.report.base.stray_messages += 1;
                }
            }
            if let Some(got) = accepted {
                return Ok(got);
            }
            self.count_retry();
        }
        Err(SplitError::Protocol(format!(
            "reliable delivery of {} to {sink} exhausted {MAX_DELIVERY_ATTEMPTS} attempts",
            env.kind
        )))
    }
}

/// Re-normalises the survivors' minibatch weights: the aggregate update
/// must be the gradient of the mean loss over the union batch that
/// actually arrived.
pub(crate) fn reweight(platforms: &mut [Platform], survivors: &[usize]) {
    let survivor_batch: usize = survivors.iter().map(|&pid| platforms[pid].batch_size()).sum();
    for &pid in survivors {
        let share = platforms[pid].batch_size() as f32 / survivor_batch.max(1) as f32;
        platforms[pid].set_grad_scale(share);
    }
}

#[cfg(test)]
mod tests {
    use medsplit_data::{partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticTabular};
    use medsplit_nn::{Architecture, LrSchedule, MlpConfig};
    use medsplit_simnet::{ChaosTransport, FaultPlan, HierTopology, MemoryTransport, NodeId, StarTopology};

    use crate::{
        HierPolicy, HierReport, HierResilientTrainer, ResilienceReport, ResilientTrainer, SplitConfig,
        SplitError, TrainingHistory,
    };

    fn arch() -> Architecture {
        Architecture::Mlp(MlpConfig {
            input_dim: 8,
            hidden: vec![16],
            num_classes: 3,
        })
    }

    fn setup(platforms: usize) -> (Vec<InMemoryDataset>, InMemoryDataset) {
        let gen = SyntheticTabular::new(3, 8, 0);
        let train = gen.generate(160).unwrap();
        let test = SyntheticTabular::new(3, 8, 1).generate(40).unwrap();
        let shards = partition(&train, platforms, &Partition::Iid, 1).unwrap();
        (shards, test)
    }

    fn config(rounds: usize) -> SplitConfig {
        SplitConfig {
            rounds,
            eval_every: rounds,
            lr: LrSchedule::Constant(0.1),
            minibatch: MinibatchPolicy::Fixed(10),
            ..SplitConfig::default()
        }
    }

    fn run_with(plan: FaultPlan, rounds: usize, platforms: usize) -> (TrainingHistory, ResilienceReport) {
        let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(platforms)), plan);
        let (shards, test) = setup(platforms);
        let mut trainer = ResilientTrainer::new(&arch(), config(rounds), shards, test, &chaos).unwrap();
        let history = trainer.run().unwrap();
        (history, trainer.report())
    }

    #[test]
    fn healthy_run_matches_failure_free_semantics() {
        let (history, report) = run_with(FaultPlan::new(1), 30, 3);
        assert_eq!(history.method, "split_resilient");
        assert_eq!(history.records.len(), 30);
        assert_eq!(history.degraded_rounds(), 0);
        assert_eq!(report, ResilienceReport::default());
        assert!(
            history.final_accuracy > 0.6,
            "accuracy {}",
            history.final_accuracy
        );
        assert!(history.records.iter().all(|r| r.participants == 3));
    }

    #[test]
    fn corruption_is_rejected_and_survived() {
        let (history, report) = run_with(FaultPlan::new(9).with_corrupt(0.1), 20, 3);
        assert!(report.checksum_rejections > 0);
        assert!(
            history.final_accuracy > 0.5,
            "accuracy {}",
            history.final_accuracy
        );
    }

    #[test]
    fn straggler_past_deadline_is_skipped_every_round() {
        let plan = FaultPlan::new(5).straggler(NodeId::Platform(1), 5.0);
        let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(3)), plan);
        let (shards, test) = setup(3);
        let mut cfg = config(8);
        cfg.round_policy.deadline_s = 1.0;
        let mut trainer = ResilientTrainer::new(&arch(), cfg, shards, test, &chaos).unwrap();
        let history = trainer.run().unwrap();
        // The straggler pays 5 simulated seconds per send against a 1 s
        // deadline: it is skipped in every round, but training proceeds.
        assert_eq!(trainer.report().skipped_platform_rounds, 8);
        assert_eq!(history.degraded_rounds(), 8);
        assert!(history.records.iter().all(|r| r.participants == 2));
    }

    fn run_hier(
        plan: FaultPlan,
        rounds: usize,
        regions: usize,
        per_region: usize,
    ) -> (TrainingHistory, HierReport) {
        let topo = HierTopology::new(regions, per_region);
        let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), plan);
        let (shards, test) = setup(regions * per_region);
        let mut trainer = HierResilientTrainer::new(
            &arch(),
            config(rounds),
            HierPolicy::default(),
            topo,
            shards,
            test,
            &chaos,
        )
        .unwrap();
        let history = trainer.run().unwrap();
        let report = trainer.report().clone();
        (history, report)
    }

    #[test]
    fn healthy_hier_run_learns_and_batches() {
        let (history, report) = run_hier(FaultPlan::new(1), 30, 2, 2);
        assert_eq!(history.method, "split_hier_resilient");
        assert_eq!(history.records.len(), 30);
        assert_eq!(history.degraded_rounds(), 0);
        assert!(history.records.iter().all(|r| r.participants == 4));
        // 2 relays × 4 protocol legs × 30 rounds, all batched.
        assert_eq!(report.relay_batches, 2 * 4 * 30);
        assert_eq!(report.rehomes, 0);
        assert_eq!(report.direct_fallbacks, 0);
        assert_eq!(report.base.retries, 0);
        assert!(report.region_bytes.iter().all(|&b| b > 0));
        assert!(
            history.final_accuracy > 0.6,
            "accuracy {}",
            history.final_accuracy
        );
    }

    #[test]
    fn single_region_relay_crash_falls_back_direct() {
        // One region, its only relay down: platforms use the direct
        // server link, never orphaned.
        let plan = FaultPlan::new(6).crash_relay(0, 2).recover_relay(0, 4);
        let (history, report) = run_hier(plan, 6, 1, 3);
        assert_eq!(report.direct_fallbacks, 6, "3 platforms × 2 rounds");
        assert_eq!(report.rehomes, 0);
        assert_eq!(history.degraded_rounds(), 0);
    }

    #[test]
    fn shape_mismatches_rejected() {
        let topo = HierTopology::new(2, 2);
        let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), FaultPlan::new(0));
        let build = |platforms, hier| {
            let (shards, test) = setup(platforms);
            HierResilientTrainer::new(&arch(), config(2), hier, topo.clone(), shards, test, &chaos).map(drop)
        };
        // Three shards for the topology's four platforms.
        assert!(matches!(
            build(3, HierPolicy::default()),
            Err(SplitError::Config(_))
        ));
        // A region quorum larger than a region.
        let bad = HierPolicy {
            region_quorum: 3,
            ..HierPolicy::default()
        };
        assert!(matches!(build(4, bad), Err(SplitError::Config(_))));
    }
}
