//! The fault-tolerant star: quorum rounds, retry with exponential
//! backoff, checksum-verified delivery, and crash–rejoin recovery from
//! checkpoints, driven over a deterministic [`ChaosTransport`].
//!
//! The recovery invariant is round-granular: **a platform participates
//! in a whole round or in none of it.** Activations are collected with
//! bounded retries and a per-platform deadline; whoever makes it into
//! the aggregate is then carried through the remaining three protocol
//! messages with reliable (retried) delivery, so the server's batch
//! layout can never be torn mid-round. Platforms that miss the cut — or
//! are crashed by a scheduled [`ChaosEvent`] — simply sit the round out
//! and rejoin at the next boundary from their last checkpoint (which
//! the [`RoundEngine`] commits and restores).
//!
//! Everything is deterministic: the route is single-threaded, iterates
//! platforms in id order, and all fault randomness comes from the
//! chaos transport's seeded RNG — two runs with equal configs and
//! equal fault plans produce bit-identical weights and histories.

use std::collections::BTreeMap;

use medsplit_data::InMemoryDataset;
use medsplit_nn::Architecture;
use medsplit_simnet::{ChaosEvent, ChaosTransport, Envelope, MessageKind, NodeId, Transport};

use crate::config::SplitConfig;
use crate::engine::{Driver, Exchange, RoundEngine, Route};
use crate::error::{Result, SplitError};
use crate::link::{reweight, ChaosLink, Drain};
use crate::platform::Platform;
use crate::server::SplitServer;

/// Counters describing how much fault handling a run actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Activation re-sends triggered by loss or corruption.
    pub retries: u64,
    /// Envelopes discarded because their payload checksum failed.
    pub checksum_rejections: u64,
    /// Valid-checksum envelopes discarded as duplicates, stale rounds,
    /// or unexpected kinds.
    pub stray_messages: u64,
    /// Platform-rounds skipped (live platform missed the deadline or
    /// ran out of retries). Crashed platforms are not counted here.
    pub skipped_platform_rounds: u64,
    /// Rounds that ran with fewer than the full platform count.
    pub degraded_rounds: u64,
    /// Rounds where the surviving set fell below quorum and the update
    /// was dropped entirely.
    pub quorum_failures: u64,
    /// Scheduled crash events applied.
    pub crashes: u64,
    /// Scheduled recover events applied (checkpoint restores).
    pub rejoins: u64,
}

/// The reliable star route: every platform talks to the server
/// directly over a [`ChaosTransport`], under the configured
/// [`RoundPolicy`](crate::RoundPolicy).
///
/// Send order: activations go out to all live platforms at once; after
/// the aggregate forward, each survivor's logits → grads exchange
/// completes before the next survivor's starts, then the cut gradients
/// go out one survivor at a time.
pub struct ReliableStar<'t, T> {
    link: ChaosLink<'t, T>,
}

/// Fault-tolerant counterpart of [`crate::SplitTrainer`]: the
/// [`RoundEngine`] over a [`ReliableStar`].
pub type ResilientTrainer<'t, T> = RoundEngine<ReliableStar<'t, T>>;

impl<'t, T: Transport> RoundEngine<ReliableStar<'t, T>> {
    /// Builds the trainer over a chaos transport.
    ///
    /// # Errors
    ///
    /// Returns configuration errors for invalid configs, unsupported
    /// scheduling (the resilient driver implements the paper-default
    /// `Aggregate` + `CommonInit` combination), a quorum larger than the
    /// fleet, or a dirty transport.
    pub fn new(
        arch: &Architecture,
        config: SplitConfig,
        shards: Vec<InMemoryDataset>,
        test: InMemoryDataset,
        chaos: &'t ChaosTransport<T>,
    ) -> Result<Self> {
        let route = ReliableStar {
            link: ChaosLink::new(chaos, "resilient", 1),
        };
        Self::assemble(arch, config, shards, test, route, Driver::ReliableStar, None)
    }

    /// The fault-handling counters accumulated so far.
    pub fn report(&self) -> ResilienceReport {
        self.route.link.report.base
    }
}

impl<T: Transport> Route for ReliableStar<'_, T> {
    fn transport(&self) -> &dyn Transport {
        self.link.chaos
    }

    fn begin_round(&mut self, round: u64) -> Vec<ChaosEvent> {
        self.link.begin_round(round)
    }

    fn is_down(&self, node: NodeId) -> bool {
        self.link.chaos.is_down(node)
    }

    fn exchange(
        &mut self,
        round: u64,
        config: &SplitConfig,
        platforms: &mut [Platform],
        server: &mut SplitServer,
    ) -> Result<Exchange> {
        let policy = &config.round_policy;
        let mut pending = BTreeMap::new();
        for p in platforms
            .iter_mut()
            .filter(|p| !self.link.chaos.is_down(p.node()))
        {
            pending.insert(p.id(), p.start_round(round)?);
        }
        let server_sink = |_| Some(NodeId::Server);
        let acts = self
            .link
            .collect(round, policy, pending, &[NodeId::Server], server_sink, |_| 0)?;
        let survivors: Vec<usize> = acts.keys().copied().collect();
        if !self.link.quorum_met(survivors.len(), platforms.len(), policy) {
            return Ok(Exchange::dropped(survivors));
        }
        reweight(platforms, &survivors);

        // Steps 2–5 run over the reliable path: the survivors are now
        // committed to the round, so the aggregate layout must complete.
        let act_envs: Vec<Envelope> = acts.into_values().collect();
        let mut losses = Vec::with_capacity(survivors.len());
        let mut grad_envs = Vec::with_capacity(survivors.len());
        for env in server.aggregate_forward(&act_envs)? {
            let pid = addressee(&env)?;
            let logits = self.deliver_down(env)?;
            let (grads, loss) = platforms[pid].handle_logits(&logits)?;
            losses.push(loss);
            // The server drains its whole inbox per attempt, a platform
            // stops at the first accepted copy: the stray and rejection
            // counts the fault baselines pin depend on both.
            let got = self.link.deliver(grads, 0, Drain::Inbox, |e| {
                e.kind == MessageKind::LogitGrads && e.round == round && e.src == NodeId::Platform(pid)
            })?;
            grad_envs.push(got);
        }
        for env in server.aggregate_backward(&grad_envs)? {
            let pid = addressee(&env)?;
            let cut = self.deliver_down(env)?;
            platforms[pid].handle_cut_grads(&cut)?;
        }
        Ok(Exchange::applied(&losses, survivors))
    }
}

impl<T: Transport> ReliableStar<'_, T> {
    /// Reliable server → platform delivery of one envelope.
    fn deliver_down(&mut self, env: Envelope) -> Result<Envelope> {
        let (kind, round) = (env.kind, env.round);
        self.link.deliver(env, 0, Drain::UntilAccepted, |e| {
            e.kind == kind && e.round == round
        })
    }
}

/// The platform a server envelope is addressed to.
pub(crate) fn addressee(env: &Envelope) -> Result<usize> {
    env.dst
        .platform_index()
        .ok_or_else(|| SplitError::Protocol(format!("{} addressed to {}", env.kind, env.dst)))
}
