//! The star: the paper's deterministic (single-threaded) split-learning
//! trainer.
//!
//! Drives the platform and server actors through the paper's four-message
//! round over a [`Transport`], so every tensor the protocol exchanges is
//! serialised, sent, counted and deserialised exactly as it would be
//! across a WAN. See [`crate::threaded`] for the thread-per-node variant
//! running the identical actors.

use medsplit_data::InMemoryDataset;
use medsplit_nn::Architecture;
use medsplit_simnet::{Envelope, NodeId, Transport};

use crate::config::{Scheduling, SplitConfig};
use crate::engine::{Driver, Exchange, RoundEngine, Route};
use crate::error::{Result, SplitError};
use crate::platform::Platform;
use crate::server::SplitServer;

/// The star route: every platform talks to the server directly over any
/// [`Transport`], with no retries.
///
/// Send order under [`Scheduling::Aggregate`] is phase-batched: each
/// protocol step goes out to (or in from) every platform before the next
/// step starts. Under [`Scheduling::RoundRobin`] the server runs the same
/// exchange with one platform at a time, in platform order.
pub struct Star<'t, T> {
    transport: &'t T,
}

/// Orchestrates split-learning training across platform shards: the
/// [`RoundEngine`] over a [`Star`].
pub type SplitTrainer<'t, T> = RoundEngine<Star<'t, T>>;

impl<'t, T: Transport> RoundEngine<Star<'t, T>> {
    /// Builds the trainer: identical `L1` replicas for each shard, the
    /// server suffix, and per-platform minibatch sizes from the
    /// configured policy.
    ///
    /// # Errors
    ///
    /// Returns configuration errors for invalid split points, shard
    /// counts, or empty shards.
    pub fn new(
        arch: &Architecture,
        config: SplitConfig,
        shards: Vec<InMemoryDataset>,
        test: InMemoryDataset,
        transport: &'t T,
    ) -> Result<Self> {
        Self::assemble(arch, config, shards, test, Star { transport }, Driver::Star, None)
    }

    /// The U-shaped variant: each platform also keeps the final
    /// `tail_layers` layers (see [`crate::UShapeTrainer`]).
    pub(crate) fn new_ushape(
        arch: &Architecture,
        config: SplitConfig,
        tail_layers: usize,
        shards: Vec<InMemoryDataset>,
        test: InMemoryDataset,
        transport: &'t T,
    ) -> Result<Self> {
        let route = Star { transport };
        Self::assemble(
            arch,
            config,
            shards,
            test,
            route,
            Driver::UShape,
            Some(tail_layers),
        )
    }
}

impl<T: Transport> Star<'_, T> {
    /// Receives the next queued message for `node`, failing loudly if
    /// the protocol left the queue empty.
    fn expect(&self, node: NodeId) -> Result<Envelope> {
        self.transport
            .try_recv(node)
            .ok_or_else(|| SplitError::Protocol(format!("no message queued for {node}")))
    }
}

impl<T: Transport> Route for Star<'_, T> {
    fn transport(&self) -> &dyn Transport {
        self.transport
    }

    fn exchange(
        &mut self,
        round: u64,
        config: &SplitConfig,
        platforms: &mut [Platform],
        server: &mut SplitServer,
    ) -> Result<Exchange> {
        let k = platforms.len();
        let t = self.transport;
        // Aggregate scheduling runs every platform as one group;
        // round-robin runs one group per platform, in platform order.
        let group = match config.scheduling {
            Scheduling::Aggregate => k,
            Scheduling::RoundRobin => 1,
        };
        let mut losses = Vec::with_capacity(k);
        for group in platforms.chunks_mut(group) {
            // Step 1: every platform forwards L1 and transmits activations.
            for p in group.iter_mut() {
                t.send(p.start_round(round)?)?;
            }
            // Step 2: the server concatenates the group's batches, one
            // forward.
            let acts: Vec<Envelope> = group
                .iter()
                .map(|_| self.expect(NodeId::Server))
                .collect::<Result<_>>()?;
            for env in server.aggregate_forward(&acts)? {
                t.send(env)?;
            }
            // Step 3: platforms compute local losses, transmit gradients.
            for p in group.iter_mut() {
                let (grads, loss) = p.handle_logits(&self.expect(p.node())?)?;
                losses.push(loss);
                t.send(grads)?;
            }
            // Step 4: server backward + update, cut gradients back.
            let grads: Vec<Envelope> = group
                .iter()
                .map(|_| self.expect(NodeId::Server))
                .collect::<Result<_>>()?;
            for env in server.aggregate_backward(&grads)? {
                t.send(env)?;
            }
            // Step 5: platforms backpropagate L1.
            for p in group.iter_mut() {
                p.handle_cut_grads(&self.expect(p.node())?)?;
            }
        }
        Ok(Exchange::applied(&losses, (0..k).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::L1Sync;
    use medsplit_data::{partition, MinibatchPolicy, Partition, SyntheticTabular};
    use medsplit_nn::{LrSchedule, MlpConfig};
    use medsplit_simnet::MessageKind;
    use medsplit_simnet::{MemoryTransport, StarTopology};
    use medsplit_tensor::Tensor;

    fn arch() -> Architecture {
        Architecture::Mlp(MlpConfig {
            input_dim: 8,
            hidden: vec![16],
            num_classes: 3,
        })
    }

    fn setup(platforms: usize) -> (Vec<InMemoryDataset>, InMemoryDataset) {
        let gen = SyntheticTabular::new(3, 8, 0);
        let train = gen.generate(120).unwrap();
        let test = SyntheticTabular::new(3, 8, 0)
            .generate(150)
            .unwrap()
            .subset(&(120..150).collect::<Vec<_>>())
            .unwrap();
        let shards = partition(&train, platforms, &Partition::Iid, 1).unwrap();
        (shards, test)
    }

    fn config(rounds: usize, scheduling: Scheduling) -> SplitConfig {
        SplitConfig {
            scheduling,
            rounds,
            eval_every: rounds, // single eval at the end
            lr: LrSchedule::Constant(0.1),
            minibatch: MinibatchPolicy::Fixed(10),
            ..SplitConfig::default()
        }
    }

    #[test]
    fn both_schedulings_learn() {
        for (scheduling, platforms) in [(Scheduling::Aggregate, 3), (Scheduling::RoundRobin, 2)] {
            let (shards, test) = setup(platforms);
            let transport = MemoryTransport::new(StarTopology::new(platforms));
            let cfg = config(60, scheduling);
            let mut trainer = SplitTrainer::new(&arch(), cfg, shards, test, &transport).unwrap();
            let before = trainer.evaluate().unwrap();
            let history = trainer.run().unwrap();
            let after = history.final_accuracy;
            assert!(
                after > before + 0.2 && after > 0.6,
                "{scheduling:?}: {before} -> {after}"
            );
            assert_eq!(history.records.len(), 60);
        }
    }

    #[test]
    fn a_round_is_four_messages_of_smashed_data() {
        let (shards, test) = setup(2);
        let transport = MemoryTransport::new(StarTopology::new(2));
        let cfg = config(5, Scheduling::Aggregate);
        let history = SplitTrainer::new(&arch(), cfg, shards, test, &transport)
            .unwrap()
            .run()
            .unwrap();
        // 4 messages per platform per round, nothing else.
        assert_eq!(history.stats.messages, 4 * 2 * 5);
        for kind in [
            MessageKind::Activations,
            MessageKind::Logits,
            MessageKind::LogitGrads,
            MessageKind::CutGrads,
        ] {
            assert_eq!(history.stats.messages_of(kind), 2 * 5, "{kind}");
        }
        // Privacy invariant: the uplink carries the L1 output, not the
        // input — 2 platforms × batch 10 × 16 activation floats (+ header
        // and shape) per round.
        let payload = medsplit_tensor::serialized_len(&medsplit_tensor::Shape::from([10usize, 16]));
        let per_round = 2 * (payload + medsplit_simnet::HEADER_BYTES) as u64;
        assert_eq!(history.stats.bytes_of(MessageKind::Activations), 5 * per_round);
    }

    #[test]
    fn l1_sync_strategies_exchange_parameters() {
        let (shards, test) = setup(3);
        let run = |l1_sync: L1Sync| {
            let transport = MemoryTransport::new(StarTopology::new(3));
            let mut cfg = config(4, Scheduling::Aggregate);
            cfg.l1_sync = l1_sync;
            let mut trainer =
                SplitTrainer::new(&arch(), cfg, shards.clone(), test.clone(), &transport).unwrap();
            let history = trainer.run().unwrap();
            let l1: Vec<Tensor> = trainer
                .platforms_mut()
                .iter_mut()
                .map(|p| p.l1_parameters())
                .collect();
            (history, l1)
        };
        let (averaged, l1) = run(L1Sync::PeriodicAverage { every: 2 });
        // Both syncs upload and download every platform's L1.
        assert_eq!(averaged.stats.messages_of(MessageKind::L1Sync), 2 * 2 * 3);
        // After the last sync (round 3) every platform has the same L1.
        assert!(l1.iter().all(|p| p == &l1[0]));
        let (shared, l1) = run(L1Sync::CyclicShare { every: 2 });
        assert_eq!(shared.stats.messages_of(MessageKind::L1Sync), 2 * 2 * 3);
        // Cyclic sharing permutes the replicas instead of merging them.
        assert!(l1.iter().any(|p| p != &l1[0]));
    }

    #[test]
    fn adam_optimizer_also_learns() {
        use crate::config::OptimizerKind;
        let (shards, test) = setup(2);
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut cfg = config(50, Scheduling::Aggregate);
        cfg.optimizer = OptimizerKind::Adam;
        cfg.lr = medsplit_nn::LrSchedule::Constant(0.01);
        let mut trainer = SplitTrainer::new(&arch(), cfg, shards, test, &transport).unwrap();
        let history = trainer.run().unwrap();
        assert!(
            history.final_accuracy > 0.6,
            "Adam accuracy {}",
            history.final_accuracy
        );
    }

    #[test]
    fn compressed_codecs_shrink_tensor_traffic_and_still_learn() {
        use crate::config::WireCodec;
        let (shards, test) = setup(2);
        let run = |codec: WireCodec| {
            let transport = MemoryTransport::new(StarTopology::new(2));
            let mut cfg = config(40, Scheduling::Aggregate);
            cfg.codec = codec;
            let mut trainer =
                SplitTrainer::new(&arch(), cfg, shards.clone(), test.clone(), &transport).unwrap();
            trainer.run().unwrap()
        };
        let exact = run(WireCodec::F32);
        // Payload bytes halve (f16) or quarter (int8); headers (64 +
        // shape, + scale for int8) stay, so the totals land above the
        // asymptotic ratios. Accuracy is essentially unaffected.
        for (codec, below, above, slack) in
            [(WireCodec::F16, 0.6, 0.4, 0.1), (WireCodec::Int8, 0.5, 0.2, 0.15)]
        {
            let lossy = run(codec);
            let ratio = lossy.stats.total_bytes as f64 / exact.stats.total_bytes as f64;
            assert!(ratio < below && ratio > above, "{codec:?} byte ratio {ratio}");
            assert!(
                lossy.final_accuracy > exact.final_accuracy - slack,
                "{codec:?} {} vs f32 {}",
                lossy.final_accuracy,
                exact.final_accuracy
            );
        }
    }

    #[test]
    fn int8_codec_runs_are_bit_identical_on_replay() {
        use crate::config::WireCodec;
        let run = || {
            let (shards, test) = setup(2);
            let transport = MemoryTransport::new(StarTopology::new(2));
            let mut cfg = config(10, Scheduling::Aggregate);
            cfg.codec = WireCodec::Int8;
            let mut trainer = SplitTrainer::new(&arch(), cfg, shards, test, &transport).unwrap();
            trainer.run().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.final_accuracy, b.final_accuracy);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn proportional_minibatch_sizes_applied() {
        let gen = SyntheticTabular::new(3, 8, 0);
        let train = gen.generate(200).unwrap();
        let shards = partition(&train, 2, &Partition::PowerLaw { alpha: 2.0 }, 0).unwrap();
        let test = gen.generate(30).unwrap();
        let sizes: Vec<usize> = shards.iter().map(InMemoryDataset::len).collect();
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut cfg = config(1, Scheduling::Aggregate);
        cfg.minibatch = MinibatchPolicy::Proportional { global: 40 };
        let expected = cfg.minibatch.sizes(&sizes);
        let mut trainer = SplitTrainer::new(&arch(), cfg, shards, test, &transport).unwrap();
        let actual: Vec<usize> = trainer.platforms_mut().iter().map(|p| p.batch_size()).collect();
        assert_eq!(actual, expected);
        assert!(
            actual[0] > actual[1],
            "larger shard gets larger minibatch: {actual:?}"
        );
    }
}
