//! Hierarchical fault-tolerant split training: platforms → regional
//! relays → central server, with relay failover and partition-tolerant
//! degraded rounds.
//!
//! [`RelayTree`] is the relay-routed counterpart of
//! [`ReliableStar`](crate::ReliableStar): the same whole-round
//! participation, retries with backoff and simulated-clock deadlines
//! under the configured [`RoundPolicy`](crate::RoundPolicy), frozen
//! survivor sets with renormalised minibatch weights, and
//! checkpoint-boundary crash/rejoin — plus the relay layer's failure
//! semantics:
//!
//! - **Routing.** Each round every live platform is routed over its
//!   home relay; if the relay is crashed or unreachable (either hop of
//!   either leg down), the platform *re-homes* to the first viable
//!   backup relay in cyclic order, else falls back to a direct server
//!   link — paying [`HierPolicy::failover_penalty_s`] against the round
//!   deadline. A platform with no viable path at all is orphaned for
//!   the round and rejoins at the next boundary.
//! - **Region quorum.** A region delivering fewer than
//!   [`HierPolicy::region_quorum`] surviving platforms is dropped whole
//!   — a partitioned region degrades the round instead of stalling it
//!   or biasing the aggregate with a sliver of its data.
//! - **Relay batching.** Surviving smashed data crosses the backbone as
//!   one [`MessageKind::RelayBatch`] per relay per direction per
//!   protocol step (see [`crate::relay`]).
//!
//! Everything stays deterministic: one seeded chaos RNG, platforms and
//! relays iterated in id order, bit-identical replay from equal plans.

use std::collections::BTreeMap;

use medsplit_data::InMemoryDataset;
use medsplit_nn::Architecture;
use medsplit_simnet::{ChaosEvent, ChaosTransport, Envelope, HierTopology, MessageKind, NodeId, Transport};

use crate::config::{HierPolicy, SplitConfig};
use crate::engine::{Driver, Exchange, RoundEngine, Route};
use crate::error::{Result, SplitError};
use crate::link::{reweight, ChaosLink, Drain};
use crate::platform::Platform;
use crate::relay;
use crate::resilient::{addressee, ResilienceReport};
use crate::server::SplitServer;

/// Counters specific to the hierarchical failure machinery, alongside
/// the embedded star-level [`ResilienceReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierReport {
    /// The round-machinery counters shared with the star driver.
    pub base: ResilienceReport,
    /// Platform-rounds routed over a backup relay because the home
    /// relay was crashed or unreachable.
    pub rehomes: u64,
    /// Platform-rounds that fell back to the direct server link because
    /// no relay was viable.
    pub direct_fallbacks: u64,
    /// Platform-rounds orphaned entirely (no relay, no direct path).
    pub orphaned_platform_rounds: u64,
    /// Relay batches successfully delivered across the backbone.
    pub relay_batches: u64,
    /// Regions whose surviving platforms were dropped for missing the
    /// per-region quorum.
    pub region_quorum_drops: u64,
    /// Scheduled relay crash events applied.
    pub relay_crashes: u64,
    /// Scheduled relay recover events applied.
    pub relay_rejoins: u64,
    /// Driver-sent wire bytes attributed to each region (activations,
    /// batches, retries and downstream traffic of its platforms).
    pub region_bytes: Vec<u64>,
}

/// Which path a platform uses this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Via relay `r` (home or backup).
    Relay(usize),
    /// Direct platform ↔ server fallback.
    Direct,
}

impl Path {
    /// The inbox a platform's upstream traffic lands in.
    fn sink(self) -> NodeId {
        match self {
            Path::Relay(r) => NodeId::Relay(r),
            Path::Direct => NodeId::Server,
        }
    }
}

/// The relay-tree route over a [`HierTopology`] chaos transport.
///
/// Send order: activations go out to all routed platforms at once and
/// cross the backbone as one batch per relay; the logits come back one
/// batch per relay and fan out platform by platform, direct routes
/// last; every platform's regional grads hop completes before the
/// relay batches go up; the cut gradients come down like the logits.
pub struct RelayTree<'t, T> {
    link: ChaosLink<'t, T>,
    hier: HierPolicy,
    topo: HierTopology,
}

/// Hierarchical counterpart of [`crate::ResilientTrainer`]: the
/// [`RoundEngine`] over a [`RelayTree`].
pub type HierResilientTrainer<'t, T> = RoundEngine<RelayTree<'t, T>>;

impl<'t, T: Transport> RoundEngine<RelayTree<'t, T>> {
    /// Builds the trainer over a chaos transport routing a
    /// [`HierTopology`]. `shards` must hold exactly one dataset per
    /// platform of the topology, in platform-id order.
    ///
    /// # Errors
    ///
    /// Returns configuration errors for invalid configs or policies,
    /// shard/topology shape mismatches, unsupported scheduling, or a
    /// dirty transport.
    pub fn new(
        arch: &Architecture,
        config: SplitConfig,
        hier: HierPolicy,
        topo: HierTopology,
        shards: Vec<InMemoryDataset>,
        test: InMemoryDataset,
        chaos: &'t ChaosTransport<T>,
    ) -> Result<Self> {
        hier.validate(topo.per_region()).map_err(SplitError::Config)?;
        if topo.regions() == 0 || topo.per_region() == 0 {
            return Err(SplitError::Config(
                "hierarchy needs at least one region with at least one platform".into(),
            ));
        }
        if shards.len() != topo.platforms() {
            return Err(SplitError::Config(format!(
                "{} shards for a hierarchy of {} platforms",
                shards.len(),
                topo.platforms()
            )));
        }
        let route = RelayTree {
            link: ChaosLink::new(chaos, "hier", topo.regions()),
            hier,
            topo,
        };
        Self::assemble(arch, config, shards, test, route, Driver::RelayTree, None)
    }

    /// The hierarchical fault-handling counters accumulated so far.
    pub fn report(&self) -> &HierReport {
        &self.route.link.report
    }
}

impl<T: Transport> Route for RelayTree<'_, T> {
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
        let paths = self.assign_paths(platforms.len());
        let mut pending = BTreeMap::new();
        for (&pid, &path) in &paths {
            let mut env = platforms[pid].start_round(round)?;
            env.dst = path.sink();
            pending.insert(pid, env);
        }
        let mut sinks: Vec<NodeId> = (0..self.topo.regions()).map(NodeId::Relay).collect();
        sinks.push(NodeId::Server);
        let topo = &self.topo;
        let mut acts = self.link.collect(
            round,
            policy,
            pending,
            &sinks,
            |pid| paths.get(&pid).map(|p| p.sink()),
            |pid| topo.home_relay(pid),
        )?;
        self.apply_region_quorum(&mut acts);
        let survivors: Vec<usize> = acts.keys().copied().collect();
        if !self.link.quorum_met(survivors.len(), platforms.len(), policy) {
            return Ok(Exchange::dropped(survivors));
        }
        reweight(platforms, &survivors);

        // Steps 2–5 over reliable, path-respecting legs.
        let act_envs = self.upstream(round, &paths, acts)?;
        let logits_out = server.aggregate_forward(&act_envs)?;
        let mut losses = Vec::with_capacity(survivors.len());
        let mut held = BTreeMap::new();
        for (pid, env) in self.downstream(round, &paths, logits_out, MessageKind::Logits)? {
            let (mut grads, loss) = platforms[pid].handle_logits(&env)?;
            losses.push(loss);
            // The grads' regional hop (or direct leg), reliable.
            grads.dst = paths[&pid].sink();
            let from = grads.src;
            let accept =
                |e: &Envelope| e.kind == MessageKind::LogitGrads && e.round == round && e.src == from;
            let region = self.topo.home_relay(pid);
            held.insert(
                pid,
                self.link.deliver(grads, region, Drain::UntilAccepted, accept)?,
            );
        }
        let grad_envs = self.upstream(round, &paths, held)?;
        let cuts_out = server.aggregate_backward(&grad_envs)?;
        for (pid, env) in self.downstream(round, &paths, cuts_out, MessageKind::CutGrads)? {
            platforms[pid].handle_cut_grads(&env)?;
        }
        Ok(Exchange::applied(&losses, survivors))
    }

    /// Publishes the per-region byte attribution as deterministic
    /// counters.
    fn finish(&mut self) {
        if medsplit_telemetry::enabled() {
            for (g, &bytes) in self.link.report.region_bytes.iter().enumerate() {
                if bytes > 0 {
                    medsplit_telemetry::counter_add(&format!("net.bytes.region{g}"), bytes);
                }
            }
        }
    }
}

impl<T: Transport> RelayTree<'_, T> {
    /// Whether routing platform `pid` through relay `r` is viable this
    /// round: the relay is up and both hops of both legs have live
    /// links. Chaos events are round-granular, so checking at the round
    /// boundary is exactly the failure detector a real heartbeat would
    /// implement.
    fn relay_viable(&self, pid: usize, r: usize) -> bool {
        let chaos = self.link.chaos;
        let (p, relay) = (NodeId::Platform(pid), NodeId::Relay(r));
        !chaos.is_down(relay)
            && !chaos.link_down(p, relay)
            && !chaos.link_down(relay, p)
            && !chaos.link_down(relay, NodeId::Server)
            && !chaos.link_down(NodeId::Server, relay)
    }

    /// Picks this round's path for a live platform: home relay, then
    /// backup relays in cyclic order, then the direct server link.
    fn path_for(&self, pid: usize) -> Option<Path> {
        let home = self.topo.home_relay(pid);
        let regions = self.topo.regions();
        if let Some(r) = (0..regions)
            .map(|k| (home + k) % regions)
            .find(|&r| self.relay_viable(pid, r))
        {
            return Some(Path::Relay(r));
        }
        let (p, chaos) = (NodeId::Platform(pid), self.link.chaos);
        (!chaos.link_down(p, NodeId::Server) && !chaos.link_down(NodeId::Server, p)).then_some(Path::Direct)
    }

    /// Assigns paths to every live platform, charging failover
    /// penalties and counting rehomes/fallbacks/orphans.
    fn assign_paths(&mut self, platforms: usize) -> BTreeMap<usize, Path> {
        let mut paths = BTreeMap::new();
        for pid in 0..platforms {
            if self.link.chaos.is_down(NodeId::Platform(pid)) {
                continue;
            }
            let Some(path) = self.path_for(pid) else {
                self.link.report.orphaned_platform_rounds += 1;
                self.link.count("orphaned_platform_rounds", 1);
                continue;
            };
            if path != Path::Relay(self.topo.home_relay(pid)) {
                // Failure detection + reconnection cost, charged against
                // the round deadline.
                let stats = self.link.chaos.stats();
                stats.advance_clock(NodeId::Platform(pid), self.hier.failover_penalty_s);
                if path == Path::Direct {
                    self.link.report.direct_fallbacks += 1;
                    self.link.count("direct_fallbacks", 1);
                } else {
                    self.link.report.rehomes += 1;
                    self.link.count("rehomes", 1);
                }
            }
            paths.insert(pid, path);
        }
        paths
    }

    /// Enforces the per-region quorum on the collected survivors: a
    /// region contributing fewer than `region_quorum` platforms is
    /// dropped whole (its stragglers rejoin next round).
    fn apply_region_quorum(&mut self, acts: &mut BTreeMap<usize, Envelope>) {
        for g in 0..self.topo.regions() {
            let members: Vec<usize> = acts
                .keys()
                .copied()
                .filter(|&pid| self.topo.home_relay(pid) == g)
                .collect();
            if !members.is_empty() && members.len() < self.hier.region_quorum {
                self.link.report.region_quorum_drops += 1;
                self.link.count("region_quorum_drops", 1);
                for pid in members {
                    acts.remove(&pid);
                }
            }
        }
    }

    /// Reliable backbone delivery of one relay batch, in either
    /// direction. Returns the inner envelopes unbatched at the far end.
    fn deliver_batch(&mut self, batch: Envelope, relay: usize) -> Result<Vec<Envelope>> {
        let (round, src) = (batch.round, batch.src);
        let got = self.link.deliver(batch, relay, Drain::UntilAccepted, |e| {
            e.kind == MessageKind::RelayBatch && e.round == round && e.src == src
        })?;
        self.link.report.relay_batches += 1;
        self.link.count("relay_batches", 1);
        relay::unbatch(&got)
    }

    /// Moves platform → server envelopes already held at their path's
    /// sink on to the server: relay paths are batched region-wise across
    /// the backbone, direct paths are already in hand. Returns the
    /// server-side envelopes in ascending platform order.
    fn upstream(
        &mut self,
        round: u64,
        paths: &BTreeMap<usize, Path>,
        held: BTreeMap<usize, Envelope>,
    ) -> Result<Vec<Envelope>> {
        let mut by_relay: BTreeMap<usize, Vec<Envelope>> = BTreeMap::new();
        let mut out: Vec<Envelope> = Vec::with_capacity(held.len());
        for (pid, env) in held {
            match paths[&pid] {
                Path::Relay(r) => by_relay.entry(r).or_default().push(env),
                Path::Direct => out.push(env),
            }
        }
        for (r, inner) in by_relay {
            let batch = relay::batch_upstream(r, round, &inner);
            out.extend(self.deliver_batch(batch, r)?);
        }
        out.sort_by_key(|e| e.src.platform_index());
        Ok(out)
    }

    /// Distributes server → platform envelopes along each platform's
    /// path: relay paths cross the backbone as one batch per relay,
    /// then fan out over the regional links with the relay as source;
    /// direct paths go straight down. Returns `(pid, envelope)` as
    /// received by each platform, in ascending platform order.
    fn downstream(
        &mut self,
        round: u64,
        paths: &BTreeMap<usize, Path>,
        envs: Vec<Envelope>,
        kind: MessageKind,
    ) -> Result<Vec<(usize, Envelope)>> {
        let mut by_relay: BTreeMap<usize, Vec<Envelope>> = BTreeMap::new();
        let mut direct: Vec<Envelope> = Vec::new();
        for env in envs {
            match paths[&addressee(&env)?] {
                Path::Relay(r) => by_relay.entry(r).or_default().push(env),
                Path::Direct => direct.push(env),
            }
        }
        let mut out = Vec::new();
        for (r, inner) in by_relay {
            let batch = relay::batch_downstream(r, round, &inner);
            for unbatched in self.deliver_batch(batch, r)? {
                out.push(self.last_hop(relay::forward_from_relay(r, &unbatched), kind)?);
            }
        }
        for env in direct {
            out.push(self.last_hop(env, kind)?);
        }
        out.sort_by_key(|(pid, _)| *pid);
        Ok(out)
    }

    /// Reliable delivery of a downstream envelope over its platform's
    /// regional or direct link.
    fn last_hop(&mut self, env: Envelope, kind: MessageKind) -> Result<(usize, Envelope)> {
        let (pid, round) = (addressee(&env)?, env.round);
        let got = self
            .link
            .deliver(env, self.topo.home_relay(pid), Drain::UntilAccepted, |e| {
                e.kind == kind && e.round == round
            })?;
        Ok((pid, got))
    }
}
