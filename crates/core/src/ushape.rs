//! The U-shaped split variant (Vepakomma et al., the paper's reference
//! \[1\]): the platform keeps **both** the first layers (`head`) and the
//! final layers (`tail`, including the classifier). The server holds only
//! the middle section and never sees raw data, labels, *or logits* — it
//! cannot even observe the model's predictions for a patient.
//!
//! One round is still four messages per platform:
//!
//! ```text
//! platform k                               server
//! ----------                               ------
//! head fwd on minibatch s_k
//!   -- 1. Activations ----------------->
//!                                          middle fwd (aggregated)
//!   <-- 2. Features ------------------–
//! tail fwd, local loss, tail backward + update
//!   -- 3. FeatureGrads ----------------->
//!                                          middle backward + update
//!   <-- 4. CutGrads -------------------–
//! head backward + update
//! ```
//!
//! That is the star's round with a different platform: the U-shape is a
//! [`SplitTrainer`] whose [`Platform`](crate::Platform)s hold tails and
//! whose server answers with features.

use std::ops::{Deref, DerefMut};

use medsplit_data::InMemoryDataset;
use medsplit_nn::Architecture;
use medsplit_simnet::Transport;

use crate::config::SplitConfig;
use crate::error::Result;
use crate::trainer::SplitTrainer;

/// The U-shaped trainer: a [`SplitTrainer`] with the classifier head
/// kept platform-side. `tail_layers` final layers stay on each platform.
/// Everything but construction is the [`SplitTrainer`]'s, reached
/// through `Deref`.
pub struct UShapeTrainer<'t, T>(SplitTrainer<'t, T>);

impl<'t, T: Transport> UShapeTrainer<'t, T> {
    /// Builds the U-shaped trainer.
    ///
    /// The head cut comes from `config.split`; `tail_layers` is the
    /// number of final layers kept on the platform (≥ 1 for a meaningful
    /// U; 0 degenerates to the standard split with relabelled messages).
    ///
    /// # Errors
    ///
    /// Returns configuration errors for invalid configs, round-robin
    /// scheduling, a used transport, overlapping cuts or unusable shards.
    pub fn new(
        arch: &Architecture,
        config: SplitConfig,
        tail_layers: usize,
        shards: Vec<InMemoryDataset>,
        test: InMemoryDataset,
        transport: &'t T,
    ) -> Result<Self> {
        SplitTrainer::new_ushape(arch, config, tail_layers, shards, test, transport).map(UShapeTrainer)
    }
}

impl<'t, T> Deref for UShapeTrainer<'t, T> {
    type Target = SplitTrainer<'t, T>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<T> DerefMut for UShapeTrainer<'_, T> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitError;
    use medsplit_data::{partition, MinibatchPolicy, Partition, SyntheticTabular};
    use medsplit_nn::{LrSchedule, MlpConfig};
    use medsplit_simnet::MessageKind;
    use medsplit_simnet::{MemoryTransport, StarTopology};

    fn arch() -> Architecture {
        Architecture::Mlp(MlpConfig {
            input_dim: 8,
            hidden: vec![16, 12],
            num_classes: 3,
        })
    }

    fn data() -> (Vec<InMemoryDataset>, InMemoryDataset) {
        let all = SyntheticTabular::new(3, 8, 0).generate(120).unwrap();
        let train = all.subset(&(0..90).collect::<Vec<_>>()).unwrap();
        let test = all.subset(&(90..120).collect::<Vec<_>>()).unwrap();
        (partition(&train, 2, &Partition::Iid, 1).unwrap(), test)
    }

    fn config(rounds: usize) -> SplitConfig {
        SplitConfig {
            rounds,
            eval_every: 0,
            lr: LrSchedule::Constant(0.1),
            minibatch: MinibatchPolicy::Fixed(8),
            ..SplitConfig::default()
        }
    }

    #[test]
    fn ushape_learns() {
        let (shards, test) = data();
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut trainer = UShapeTrainer::new(&arch(), config(60), 1, shards, test, &transport).unwrap();
        let before = trainer.evaluate().unwrap();
        let history = trainer.run().unwrap();
        assert!(
            history.final_accuracy > before + 0.2,
            "{before} -> {}",
            history.final_accuracy
        );
    }

    #[test]
    fn no_logits_ever_reach_the_server() {
        let (shards, test) = data();
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut trainer = UShapeTrainer::new(&arch(), config(5), 1, shards, test, &transport).unwrap();
        let history = trainer.run().unwrap();
        // Message mix: activations/features/feature-grads/cut-grads only.
        assert_eq!(history.stats.bytes_of(MessageKind::Logits), 0);
        assert_eq!(history.stats.bytes_of(MessageKind::LogitGrads), 0);
        assert!(history.stats.bytes_of(MessageKind::Features) > 0);
        assert!(history.stats.bytes_of(MessageKind::FeatureGrads) > 0);
        assert!(history.stats.bytes_of(MessageKind::Activations) > 0);
        assert!(history.stats.bytes_of(MessageKind::CutGrads) > 0);
        assert_eq!(history.stats.messages, 2 * 4 * 5);
    }

    #[test]
    fn overlapping_cuts_rejected() {
        let (shards, test) = data();
        let transport = MemoryTransport::new(StarTopology::new(2));
        // MLP has 5 layers; head split (default 2) + tail 3 >= 5.
        assert!(matches!(
            UShapeTrainer::new(&arch(), config(1), 3, shards.clone(), test.clone(), &transport),
            Err(SplitError::Config(_))
        ));
        assert!(matches!(
            UShapeTrainer::new(&arch(), config(1), 99, shards, test, &transport),
            Err(SplitError::Config(_))
        ));
    }
}
