//! The benchmark workloads and the inputs each one draws from its seed.
//!
//! Every workload is a *session*: set up the actors, train for a fixed
//! number of rounds through the program's own trainer, then serve a
//! fixed closed-loop request stream through the serving wire path. The
//! workloads differ in which of those parts dominates and which layers
//! it stresses; see `METRICS.md` for why each one was chosen.

use medsplit_core::{ComputeModel, Scheduling, SplitConfig, SplitPoint, WireCodec};
use medsplit_data::{
    partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticImages, SyntheticTabular,
};
use medsplit_nn::{Architecture, LrSchedule, MlpConfig, VggConfig};
use medsplit_simnet::{HierTopology, LinkSpec, StarTopology};

/// Seed of the model initialisation and platform samplers, the one the
/// repository's Fig-4 runs use. Fixed like the training data: the
/// benchmark seed draws only the request stream.
pub const MODEL_SEED: u64 = 42;

/// Logical clients of the serving loop, each with one request in flight.
pub const SERVE_CLIENTS: usize = 8;

/// The serving batcher's flush size.
pub const SERVE_MAX_BATCH: usize = 8;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig-4 split panel: VGG-lite on CIFAR-100-like data, 4 platforms
    /// on a WAN star, f32 codec.
    Fig4VggC100,
    /// 16 platforms behind 4 relays, wide-cut MLP, int8 codec.
    HierWidecutInt8,
}

/// How a workload's platforms reach the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// `platforms` on a WAN star.
    Star { platforms: usize },
    /// `regions × per_region` platforms behind regional relays.
    Hier { regions: usize, per_region: usize },
}

impl Topo {
    pub fn platforms(self) -> usize {
        match self {
            Topo::Star { platforms } => platforms,
            Topo::Hier { regions, per_region } => regions * per_region,
        }
    }

    pub fn star(self) -> StarTopology {
        StarTopology::new(self.platforms())
            .with_uplink(LinkSpec::wan())
            .with_downlink(LinkSpec::wan())
    }

    pub fn hier(self) -> Option<HierTopology> {
        match self {
            Topo::Star { .. } => None,
            Topo::Hier { regions, per_region } => Some(HierTopology::new(regions, per_region)),
        }
    }
}

/// Which synthetic data a workload trains on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataKind {
    /// CIFAR-100-like 3×16×16 images.
    Images100,
    /// 3-class tabular data of the given width; class centres lie within
    /// `separation` of the origin per feature, against unit noise.
    Tabular { dim: usize, separation: f32 },
}

/// Everything that defines one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    /// Short model name used in per-layer metric names.
    pub model: &'static str,
    pub arch: Architecture,
    pub data: DataKind,
    pub topo: Topo,
    pub train_n: usize,
    pub test_n: usize,
    pub config: SplitConfig,
    /// Requests served after training.
    pub serve_requests: usize,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Fig4VggC100, Workload::HierWidecutInt8];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4VggC100 => "fig4_vgg_c100",
            Workload::HierWidecutInt8 => "hier_widecut_int8",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            // The repository's full-scale Fig-4 configuration (the bench
            // crate's `Scale::full`).
            Workload::Fig4VggC100 => Spec {
                workload: self,
                model: "vgg",
                arch: vgg_lite(),
                data: DataKind::Images100,
                topo: Topo::Star { platforms: 4 },
                train_n: 1_600,
                test_n: 400,
                config: SplitConfig {
                    split: SplitPoint::Default,
                    minibatch: MinibatchPolicy::Proportional { global: 32 },
                    scheduling: Scheduling::Aggregate,
                    lr: LrSchedule::Constant(0.05),
                    momentum: 0.9,
                    rounds: 400,
                    eval_every: 20,
                    seed: MODEL_SEED,
                    compute: ComputeModel::hospital_default(),
                    codec: WireCodec::F32,
                    ..SplitConfig::default()
                },
                serve_requests: 9_600,
            },
            Workload::HierWidecutInt8 => Spec {
                workload: self,
                model: "mlp",
                arch: mlp_widecut(),
                // At the generator's default separation (2.0) the final
                // loss falls to about 1e-9, where a relative bound is
                // meaningless; 0.15 keeps the task unsaturated.
                data: DataKind::Tabular {
                    dim: 32,
                    separation: 0.15,
                },
                topo: Topo::Hier {
                    regions: 4,
                    per_region: 4,
                },
                train_n: 16 * 256,
                test_n: 1_024,
                config: SplitConfig {
                    minibatch: MinibatchPolicy::Fixed(64),
                    lr: LrSchedule::Constant(0.1),
                    rounds: 400,
                    eval_every: 20,
                    seed: MODEL_SEED,
                    codec: WireCodec::Int8,
                    ..SplitConfig::default()
                },
                serve_requests: 40_000,
            },
        }
    }
}

/// The codec frontier's wide-cut MLP: 32 → 128 → 3.
pub fn mlp_widecut() -> Architecture {
    Architecture::Mlp(MlpConfig {
        input_dim: 32,
        hidden: vec![128],
        num_classes: 3,
    })
}

/// VGG-lite with 100 classes.
pub fn vgg_lite() -> Architecture {
    Architecture::Vgg(VggConfig::lite(100))
}

/// The inputs one seed produces: platform shards, the shared test set,
/// and the test-sample index of every served request.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub shards: Vec<InMemoryDataset>,
    pub test: InMemoryDataset,
    pub requests: Vec<usize>,
}

/// splitmix64: the request stream's generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the training data and test set, the one the repository's
/// Fig-4 runs use. Training inputs do not vary with the benchmark seed:
/// across data draws Fig-4's test accuracy spans 0.38 to 0.66, wider than
/// any bound a quality metric could carry, while with fixed training
/// inputs every change in arithmetic moves the quality metrics exactly.
const DATA_SEED: u64 = 0;

/// Generates a workload's inputs: the fixed training shards and test
/// set, and the serving request stream drawn from `seed`.
pub fn generate(spec: &Spec, seed: u64) -> Result<Inputs, String> {
    let (train, test) = match spec.data {
        DataKind::Images100 => {
            SyntheticImages::lite(100, DATA_SEED).generate_split(spec.train_n, spec.test_n)
        }
        DataKind::Tabular { dim, separation } => {
            let mut gen = SyntheticTabular::new(3, dim, DATA_SEED);
            gen.separation = separation;
            gen.generate(spec.train_n + spec.test_n).and_then(|all| {
                let n = spec.train_n;
                Ok((
                    all.subset(&(0..n).collect::<Vec<_>>())?,
                    all.subset(&(n..n + spec.test_n).collect::<Vec<_>>())?,
                ))
            })
        }
    }
    .map_err(|e| format!("data generation: {e}"))?;
    let shards = partition(&train, spec.topo.platforms(), &Partition::Iid, DATA_SEED ^ 0xDEAD)
        .map_err(|e| format!("partition: {e}"))?;
    let mut state = seed;
    let requests = (0..spec.serve_requests)
        .map(|_| (splitmix64(&mut state) % test.len() as u64) as usize)
        .collect();
    Ok(Inputs {
        shards,
        test,
        requests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same(a: &Inputs, b: &Inputs) -> bool {
        a.requests == b.requests
            && a.test.features().as_slice() == b.test.features().as_slice()
            && a.test.labels() == b.test.labels()
            && a.shards.len() == b.shards.len()
            && a.shards
                .iter()
                .zip(&b.shards)
                .all(|(x, y)| x.features().as_slice() == y.features().as_slice() && x.labels() == y.labels())
    }

    fn shapes(i: &Inputs) -> (Vec<Vec<usize>>, Vec<usize>, usize) {
        (
            i.shards.iter().map(|s| s.features().dims().to_vec()).collect(),
            i.test.features().dims().to_vec(),
            i.requests.len(),
        )
    }

    #[test]
    fn one_seed_gives_identical_inputs_and_another_seed_differs_in_values_only() {
        for w in Workload::ALL {
            let spec = w.spec();
            let a = generate(&spec, 7).unwrap();
            let b = generate(&spec, 7).unwrap();
            let c = generate(&spec, 8).unwrap();
            assert!(same(&a, &b), "{}: seed 7 is not reproducible", w.name());
            assert!(!same(&a, &c), "{}: seeds 7 and 8 gave identical inputs", w.name());
            assert_ne!(a.requests, c.requests, "{}: request streams coincide", w.name());
            assert_eq!(shapes(&a), shapes(&c), "{}: shapes depend on the seed", w.name());
        }
    }

    #[test]
    fn requests_cover_the_test_set() {
        for w in Workload::ALL {
            let spec = w.spec();
            let inputs = generate(&spec, 3).unwrap();
            assert_eq!(inputs.requests.len(), spec.serve_requests);
            assert!(inputs.requests.iter().all(|&i| i < inputs.test.len()));
            let distinct: std::collections::BTreeSet<_> = inputs.requests.iter().collect();
            assert!(
                distinct.len() > inputs.test.len() / 2,
                "{}: request stream is degenerate",
                w.name()
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
