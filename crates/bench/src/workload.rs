//! Standard workloads for the experiments: dataset + architecture +
//! partitioning bundles, scaled by an experiment size knob.

use medsplit_core::{
    HierPolicy, HierReport, HierResilientTrainer, ResilienceReport, ResilientTrainer, Result, SplitConfig,
    SplitError, TrainingHistory,
};
use medsplit_data::{partition, InMemoryDataset, Partition, SyntheticImages, SyntheticTabular};
use medsplit_nn::{Architecture, MlpConfig, ResNetConfig, VggConfig};
use medsplit_simnet::{ChaosTransport, FaultPlan, HierTopology, MemoryTransport, StarTopology};

/// Which CIFAR stand-in a vision workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// 10 classes (CIFAR-10-like).
    C10,
    /// 100 classes (CIFAR-100-like).
    C100,
}

impl DatasetKind {
    /// Number of classes.
    pub fn classes(&self) -> usize {
        match self {
            DatasetKind::C10 => 10,
            DatasetKind::C100 => 100,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::C10 => "cifar10-like",
            DatasetKind::C100 => "cifar100-like",
        }
    }

    /// Parses `"c10"` / `"c100"`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "c10" | "cifar10" => Some(DatasetKind::C10),
            "c100" | "cifar100" => Some(DatasetKind::C100),
            _ => None,
        }
    }
}

/// Which model family a vision workload trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// VGG family.
    Vgg,
    /// ResNet family.
    ResNet,
}

impl ModelKind {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Vgg => "vgg",
            ModelKind::ResNet => "resnet",
        }
    }

    /// Parses `"vgg"` / `"resnet"`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "vgg" => Some(ModelKind::Vgg),
            "resnet" => Some(ModelKind::ResNet),
            _ => None,
        }
    }

    /// The CPU-trainable (lite) architecture for this family.
    pub fn lite_arch(&self, classes: usize) -> Architecture {
        match self {
            ModelKind::Vgg => Architecture::Vgg(VggConfig::lite(classes)),
            ModelKind::ResNet => Architecture::ResNet(ResNetConfig::lite(classes)),
        }
    }

    /// The paper-size architecture for this family (analytic accounting
    /// only).
    pub fn full_arch(&self, classes: usize) -> Architecture {
        match self {
            ModelKind::Vgg => Architecture::Vgg(VggConfig::vgg16(classes)),
            ModelKind::ResNet => Architecture::ResNet(ResNetConfig::resnet18(classes)),
        }
    }
}

/// A prepared vision workload: architecture, platform shards and test set.
#[derive(Debug)]
pub struct VisionWorkload {
    /// The architecture to train.
    pub arch: Architecture,
    /// Per-platform training shards.
    pub shards: Vec<InMemoryDataset>,
    /// Shared test set.
    pub test: InMemoryDataset,
    /// Dataset kind.
    pub dataset: DatasetKind,
    /// Model kind.
    pub model: ModelKind,
}

/// Builds a vision workload on the lite (trainable) scale.
///
/// # Errors
///
/// Propagates generation/partitioning errors.
pub fn vision_workload(
    model: ModelKind,
    dataset: DatasetKind,
    platforms: usize,
    train_n: usize,
    test_n: usize,
    how: &Partition,
    seed: u64,
) -> Result<VisionWorkload> {
    let classes = dataset.classes();
    let gen = SyntheticImages::lite(classes, seed);
    let (train, test) = gen.generate_split(train_n, test_n).map_err(SplitError::from)?;
    let shards = partition(&train, platforms, how, seed ^ 0xDEAD).map_err(SplitError::from)?;
    Ok(VisionWorkload {
        arch: model.lite_arch(classes),
        shards,
        test,
        dataset,
        model,
    })
}

/// Builds a tabular (MLP) workload, used by the scalability and imbalance
/// experiments.
///
/// # Errors
///
/// Propagates generation/partitioning errors.
pub fn tabular_workload(
    platforms: usize,
    train_n: usize,
    test_n: usize,
    how: &Partition,
    seed: u64,
) -> Result<(Architecture, Vec<InMemoryDataset>, InMemoryDataset)> {
    let classes = 4;
    let dim = 16;
    // Class separation below the noise level keeps the task non-trivial,
    // so accuracy contrasts between policies/methods stay visible.
    let mut gen = SyntheticTabular::new(classes, dim, seed);
    gen.separation = 0.5;
    let all = gen.generate(train_n + test_n).map_err(SplitError::from)?;
    let train = all
        .subset(&(0..train_n).collect::<Vec<_>>())
        .map_err(SplitError::from)?;
    let test = all
        .subset(&(train_n..train_n + test_n).collect::<Vec<_>>())
        .map_err(SplitError::from)?;
    let shards = partition(&train, platforms, how, seed ^ 0xBEEF).map_err(SplitError::from)?;
    let arch = Architecture::Mlp(MlpConfig {
        input_dim: dim,
        hidden: vec![64, 32],
        num_classes: classes,
    });
    Ok((arch, shards, test))
}

/// Where the platforms of a [`chaos_train`] run sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// N platforms directly on the server.
    Star(usize),
    /// `regions` regions of `per_region` platforms, one relay per region.
    Hier {
        /// Regions (relays).
        regions: usize,
        /// Platforms per region.
        per_region: usize,
    },
}

impl Topology {
    /// Total platforms.
    pub fn platforms(self) -> usize {
        match self {
            Topology::Star(n) => n,
            Topology::Hier { regions, per_region } => regions * per_region,
        }
    }

    /// `starN` / `hierR_P`, the spelling of the lab `topology` axis.
    pub fn name(self) -> String {
        match self {
            Topology::Star(n) => format!("star{n}"),
            Topology::Hier { regions, per_region } => format!("hier{regions}_{per_region}"),
        }
    }
}

/// What a [`chaos_train`] run produced.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Per-round history and wire accounting.
    pub history: TrainingHistory,
    /// Retry / checksum / quorum counters (the base report on a hierarchy).
    pub report: ResilienceReport,
    /// The relay-tree counters, `None` on a star.
    pub hier: Option<HierReport>,
}

/// One resilient split-training run of a tabular MLP over the chaos
/// transport: `samples` IID training rows sharded over the topology's
/// platforms, a `(samples / 4).max(8)`-row test set, and `plan`'s faults.
/// The data comes from `data_seed` alone; the training seed is
/// `config.seed`.
///
/// # Errors
///
/// Data generation, trainer construction or training failures, as text.
pub fn chaos_train(
    arch: &Architecture,
    config: SplitConfig,
    topology: Topology,
    plan: FaultPlan,
    samples: usize,
    data_seed: u64,
) -> std::result::Result<ChaosRun, String> {
    let (classes, dim) = (arch.num_classes(), arch.input_dims().iter().product());
    let train = SyntheticTabular::new(classes, dim, data_seed)
        .generate(samples)
        .map_err(|e| format!("train data: {e}"))?;
    let test = SyntheticTabular::new(classes, dim, data_seed + 1)
        .generate((samples / 4).max(8))
        .map_err(|e| format!("test data: {e}"))?;
    let shards = partition(&train, topology.platforms(), &Partition::Iid, data_seed)
        .map_err(|e| format!("shards: {e}"))?;

    match topology {
        Topology::Star(n) => {
            let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(n)), plan);
            let mut trainer = ResilientTrainer::new(arch, config, shards, test, &chaos)
                .map_err(|e| format!("trainer: {e}"))?;
            let history = trainer.run().map_err(|e| format!("training: {e}"))?;
            Ok(ChaosRun {
                history,
                report: trainer.report(),
                hier: None,
            })
        }
        Topology::Hier { regions, per_region } => {
            let hier = HierTopology::new(regions, per_region);
            let chaos = ChaosTransport::new(MemoryTransport::new(hier.clone()), plan);
            let mut trainer =
                HierResilientTrainer::new(arch, config, HierPolicy::default(), hier, shards, test, &chaos)
                    .map_err(|e| format!("trainer: {e}"))?;
            let history = trainer.run().map_err(|e| format!("training: {e}"))?;
            let hier = trainer.report().clone();
            Ok(ChaosRun {
                history,
                report: hier.base,
                hier: Some(hier),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_and_model_parsing() {
        assert_eq!(DatasetKind::parse("c10"), Some(DatasetKind::C10));
        assert_eq!(DatasetKind::parse("cifar100"), Some(DatasetKind::C100));
        assert_eq!(DatasetKind::parse("mnist"), None);
        assert_eq!(ModelKind::parse("vgg"), Some(ModelKind::Vgg));
        assert_eq!(ModelKind::parse("resnet"), Some(ModelKind::ResNet));
        assert_eq!(ModelKind::parse("lstm"), None);
        assert_eq!(DatasetKind::C100.classes(), 100);
    }

    #[test]
    fn vision_workload_is_consistent() {
        let w = vision_workload(ModelKind::Vgg, DatasetKind::C10, 3, 60, 20, &Partition::Iid, 0).unwrap();
        assert_eq!(w.shards.len(), 3);
        assert_eq!(w.shards.iter().map(|s| s.len()).sum::<usize>(), 60);
        assert_eq!(w.test.len(), 20);
        assert_eq!(w.arch.num_classes(), 10);
        assert_eq!(w.arch.input_dims(), vec![3, 16, 16]);
    }

    #[test]
    fn full_arch_is_paper_scale() {
        assert!(ModelKind::Vgg.full_arch(10).param_count() > 10_000_000);
        assert!(ModelKind::ResNet.full_arch(10).param_count() > 10_000_000);
        // Lite arch parameter count dominates its cut activation size
        // (the relationship Fig. 4 depends on).
        let lite = ModelKind::Vgg.lite_arch(10);
        if let Architecture::Vgg(cfg) = &lite {
            assert!(lite.param_count() > 10 * cfg.cut_activation_numel());
        } else {
            panic!("expected vgg");
        }
    }

    #[test]
    fn tabular_workload_builds() {
        let (arch, shards, test) = tabular_workload(4, 80, 20, &Partition::Iid, 1).unwrap();
        assert_eq!(shards.len(), 4);
        assert_eq!(test.len(), 20);
        assert_eq!(arch.family(), "mlp");
    }
}
