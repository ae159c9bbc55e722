//! Golden digests of every training driver.
//!
//! Each case runs one small, fully seeded training configuration and
//! folds everything deterministic it produces into one FNV-1a `u64`:
//! every [`RoundRecord`](medsplit::core::RoundRecord) field except
//! `wall_time_s`, the final accuracy, the full
//! [`StatsSnapshot`], the driver's fault report (where it has one), and
//! the `L1` and server weight digests (where the driver exposes them).
//!
//! The table below pins those digests. Any change to a driver's send
//! order, arithmetic, accounting or bookkeeping moves a digest, so the
//! table is the oracle that a refactor of the drivers changed nothing.
//! On a mismatch the test prints the whole recomputed table.

use medsplit::core::threaded::train_threaded;
use medsplit::core::{
    ComputeModel, HierPolicy, HierResilientTrainer, L1Sync, OptimizerKind, ResilientTrainer, Scheduling,
    SplitConfig, SplitTrainer, TrainingHistory, UShapeTrainer, WireCodec,
};
use medsplit::data::{partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit::nn::vectorize::parameter_digest;
use medsplit::nn::{Architecture, LrSchedule, MlpConfig};
use medsplit::simnet::{
    ChaosTransport, FaultPlan, HierTopology, MemoryTransport, NodeId, StarTopology, StatsSnapshot,
};

const ROUNDS: usize = 12;

/// The pinned digests, one per case, all recorded on the five separate
/// drivers before they were folded into one round engine.
const GOLDEN: &[(&str, u64)] = &[
    ("star_aggregate", 0xd81cb65dbb998471),
    ("star_round_robin", 0xae8d889160e25717),
    ("star_periodic_average", 0x489e913c6c2652c6),
    ("star_cyclic_share", 0xa9d38c9bee732314),
    ("star_adam", 0x25d32a74923b9b4b),
    ("star_noise", 0x9437167b7b7dbce1),
    ("star_f16", 0x118ce6c032f2a1ac),
    ("star_int8", 0x8d7d1115903c4828),
    ("star_proportional", 0xa2832ea3b61921a2),
    ("reliable_clean", 0x5c971c2463183a78),
    ("reliable_drop", 0x2ecfa4ed1a3605fc),
    ("reliable_dup_reorder", 0x9fbf4973ca8aaf18),
    ("reliable_corrupt", 0x2d65f6b6ccdcf446),
    ("reliable_dup_reorder_corrupt", 0xf878823b0c96499f),
    ("reliable_crash_recover", 0x51f3a609f544fc8b),
    ("reliable_straggler", 0x7e24e6ec0968a828),
    ("reliable_quorum_failure", 0xc8c92b6cb672b135),
    ("relay_clean", 0x0ead09e9d389d3dc),
    ("relay_crash_rehome", 0x909d8ba5a0b886a8),
    ("relay_direct_fallback", 0xd52a9b8aed88a37d),
    ("relay_partition", 0x8af072dc8d183249),
    ("relay_region_quorum", 0x9295891f5bb6b6f2),
    ("relay_drop_corrupt", 0xa69f820731839abb),
    ("relay_mixed_paths", 0xfacf57879eb68116),
    ("ushape_tail0", 0x94795fe4c806f6f0),
    ("ushape_tail1", 0xd229efd58fdf4614),
    ("threaded", 0x0449d419f8f4b5cf),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn fold_stats(h: &mut Fnv, s: &StatsSnapshot) {
    h.u64(s.total_bytes);
    h.u64(s.logical_bytes);
    h.u64(s.messages);
    for (kind, bytes) in &s.by_kind {
        h.str(kind.as_str());
        h.u64(*bytes);
    }
    for (kind, n) in &s.msgs_by_kind {
        h.str(kind.as_str());
        h.u64(*n);
    }
    h.u64(s.uplink_bytes);
    h.u64(s.downlink_bytes);
    h.u64(s.makespan_s.to_bits());
}

fn fold_history(h: &mut Fnv, history: &TrainingHistory) {
    h.str(&history.method);
    h.u64(history.records.len() as u64);
    for r in &history.records {
        h.u64(r.round as u64);
        h.u64(u64::from(r.lr.to_bits()));
        h.u64(u64::from(r.mean_loss.to_bits()));
        h.u64(r.cumulative_bytes);
        h.u64(r.simulated_time_s.to_bits());
        h.u64(r.participants as u64);
        h.u64(u64::from(r.degraded));
        h.u64(r.accuracy.map_or(u64::MAX, |a| u64::from(a.to_bits())));
    }
    h.u64(u64::from(history.final_accuracy.to_bits()));
    fold_stats(h, &history.stats);
}

fn arch() -> Architecture {
    Architecture::Mlp(MlpConfig {
        input_dim: 8,
        hidden: vec![16, 12],
        num_classes: 3,
    })
}

fn data(platforms: usize, partition_kind: &Partition) -> (Vec<InMemoryDataset>, InMemoryDataset) {
    let train = SyntheticTabular::new(3, 8, 0).generate(320).unwrap();
    let test = SyntheticTabular::new(3, 8, 1).generate(80).unwrap();
    let shards = partition(&train, platforms, partition_kind, 1).unwrap();
    (shards, test)
}

fn config() -> SplitConfig {
    SplitConfig {
        rounds: ROUNDS,
        // 12 rounds at eval_every 5: two evaluation rounds, then the
        // final-accuracy fallback on the last round.
        eval_every: 5,
        lr: LrSchedule::StepDecay {
            base: 0.1,
            step_size: 6,
            gamma: 0.5,
        },
        minibatch: MinibatchPolicy::Fixed(10),
        compute: ComputeModel::hospital_default(),
        ..SplitConfig::default()
    }
}

fn star(cfg: SplitConfig, partition_kind: Partition) -> u64 {
    let (shards, test) = data(4, &partition_kind);
    let transport = MemoryTransport::new(StarTopology::new(4));
    let mut trainer = SplitTrainer::new(&arch(), cfg, shards, test, &transport).unwrap();
    let history = trainer.run().unwrap();
    let mut h = Fnv::new();
    fold_history(&mut h, &history);
    for p in trainer.platforms_mut() {
        h.u64(parameter_digest(p.model_mut()));
    }
    h.u64(parameter_digest(trainer.server_mut().model_mut()));
    h.0
}

fn reliable_star(cfg: SplitConfig, plan: FaultPlan, platforms: usize) -> u64 {
    let (shards, test) = data(platforms, &Partition::Iid);
    let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(platforms)), plan);
    let mut trainer = ResilientTrainer::new(&arch(), cfg, shards, test, &chaos).unwrap();
    let history = trainer.run().unwrap();
    let mut h = Fnv::new();
    fold_history(&mut h, &history);
    h.str(&format!("{:?}", trainer.report()));
    h.str(&format!("{:?}", chaos.chaos_stats()));
    for p in trainer.platforms_mut() {
        h.u64(parameter_digest(p.model_mut()));
    }
    h.0
}

fn relay_tree(
    plan: impl FnOnce(&HierTopology) -> FaultPlan,
    regions: usize,
    per_region: usize,
    hier: HierPolicy,
) -> u64 {
    let topo = HierTopology::new(regions, per_region);
    let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), plan(&topo));
    let (shards, test) = data(topo.platforms(), &Partition::Iid);
    let mut trainer = HierResilientTrainer::new(&arch(), config(), hier, topo, shards, test, &chaos).unwrap();
    let history = trainer.run().unwrap();
    let mut h = Fnv::new();
    fold_history(&mut h, &history);
    h.str(&format!("{:?}", trainer.report()));
    h.str(&format!("{:?}", chaos.chaos_stats()));
    for p in trainer.platforms_mut() {
        h.u64(parameter_digest(p.model_mut()));
    }
    h.0
}

fn ushape(tail_layers: usize) -> u64 {
    let (shards, test) = data(4, &Partition::Iid);
    let transport = MemoryTransport::new(StarTopology::new(4));
    let cfg = SplitConfig {
        compute: ComputeModel::off(),
        ..config()
    };
    let mut trainer = UShapeTrainer::new(&arch(), cfg, tail_layers, shards, test, &transport).unwrap();
    let history = trainer.run().unwrap();
    let mut h = Fnv::new();
    fold_history(&mut h, &history);
    h.0
}

fn threaded() -> u64 {
    let (shards, test) = data(4, &Partition::Iid);
    let transport = MemoryTransport::new(StarTopology::new(4));
    let history = train_threaded(&arch(), config(), shards, test, &transport).unwrap();
    let mut h = Fnv::new();
    for r in &history.records {
        h.u64(u64::from(r.mean_loss.to_bits()));
    }
    fold_stats(&mut h, &history.stats);
    h.0
}

fn cases() -> Vec<(&'static str, u64)> {
    let with = |f: &dyn Fn(&mut SplitConfig)| {
        let mut c = config();
        f(&mut c);
        c
    };
    let deadline = |c: &mut SplitConfig| c.round_policy.deadline_s = 1.0;
    vec![
        ("star_aggregate", star(config(), Partition::Iid)),
        (
            "star_round_robin",
            star(with(&|c| c.scheduling = Scheduling::RoundRobin), Partition::Iid),
        ),
        (
            "star_periodic_average",
            star(
                with(&|c| c.l1_sync = L1Sync::PeriodicAverage { every: 4 }),
                Partition::Iid,
            ),
        ),
        (
            "star_cyclic_share",
            star(
                with(&|c| c.l1_sync = L1Sync::CyclicShare { every: 3 }),
                Partition::Iid,
            ),
        ),
        (
            "star_adam",
            star(
                with(&|c| {
                    c.optimizer = OptimizerKind::Adam;
                    c.lr = LrSchedule::Constant(0.01);
                }),
                Partition::Iid,
            ),
        ),
        (
            "star_noise",
            star(with(&|c| c.activation_noise = 0.1), Partition::Iid),
        ),
        (
            "star_f16",
            star(with(&|c| c.codec = WireCodec::F16), Partition::Iid),
        ),
        (
            "star_int8",
            star(with(&|c| c.codec = WireCodec::Int8), Partition::Iid),
        ),
        (
            "star_proportional",
            star(
                with(&|c| c.minibatch = MinibatchPolicy::Proportional { global: 40 }),
                Partition::PowerLaw { alpha: 1.5 },
            ),
        ),
        ("reliable_clean", reliable_star(config(), FaultPlan::new(1), 4)),
        (
            "reliable_drop",
            reliable_star(config(), FaultPlan::new(7).with_drop(0.1), 4),
        ),
        (
            "reliable_dup_reorder",
            reliable_star(config(), FaultPlan::new(6).with_dup(0.3).with_reorder(0.3), 4),
        ),
        (
            "reliable_corrupt",
            reliable_star(config(), FaultPlan::new(9).with_corrupt(0.1), 4),
        ),
        (
            // Duplicates, held-back copies and corrupt copies left in an
            // inbox: pins how much of it each delivery drains.
            "reliable_dup_reorder_corrupt",
            reliable_star(
                config(),
                FaultPlan::new(3)
                    .with_dup(0.3)
                    .with_reorder(0.3)
                    .with_corrupt(0.1),
                4,
            ),
        ),
        (
            "reliable_crash_recover",
            reliable_star(
                config(),
                FaultPlan::new(3)
                    .crash(NodeId::Platform(1), 3)
                    .recover(NodeId::Platform(1), 7),
                4,
            ),
        ),
        (
            "reliable_straggler",
            reliable_star(
                with(&deadline),
                FaultPlan::new(5).straggler(NodeId::Platform(2), 5.0),
                4,
            ),
        ),
        (
            "reliable_quorum_failure",
            reliable_star(
                with(&|c| c.round_policy.min_platforms = 2),
                FaultPlan::new(4)
                    .crash(NodeId::Platform(0), 2)
                    .crash(NodeId::Platform(1), 2)
                    .recover(NodeId::Platform(0), 5)
                    .recover(NodeId::Platform(1), 5),
                2,
            ),
        ),
        (
            "relay_clean",
            relay_tree(|_| FaultPlan::new(1), 2, 2, HierPolicy::default()),
        ),
        (
            "relay_crash_rehome",
            relay_tree(
                |_| FaultPlan::new(5).crash_relay(0, 3).recover_relay(0, 6),
                2,
                2,
                HierPolicy::default(),
            ),
        ),
        (
            "relay_direct_fallback",
            relay_tree(
                |_| FaultPlan::new(6).crash_relay(0, 2).recover_relay(0, 4),
                1,
                3,
                HierPolicy::default(),
            ),
        ),
        (
            "relay_partition",
            relay_tree(
                |t| FaultPlan::new(7).partition_region(t, 1, 2, 5),
                2,
                2,
                HierPolicy::default(),
            ),
        ),
        (
            "relay_region_quorum",
            relay_tree(
                |_| {
                    FaultPlan::new(8)
                        .crash(NodeId::Platform(3), 2)
                        .recover(NodeId::Platform(3), 4)
                },
                2,
                2,
                HierPolicy {
                    region_quorum: 2,
                    ..HierPolicy::default()
                },
            ),
        ),
        (
            "relay_drop_corrupt",
            relay_tree(
                |_| FaultPlan::new(9).with_drop(0.08).with_corrupt(0.04),
                2,
                2,
                HierPolicy::default(),
            ),
        ),
        (
            // Relay 0 down and platform 0 cut off from relay 1: platform 0
            // falls back direct while platform 1 re-homes, so one round
            // mixes relay and direct paths.
            "relay_mixed_paths",
            relay_tree(
                |_| {
                    FaultPlan::new(12)
                        .with_drop(0.2)
                        .crash_relay(0, 2)
                        .recover_relay(0, 6)
                        .flap(NodeId::Platform(0), NodeId::Relay(1), 2, 6)
                },
                2,
                2,
                HierPolicy::default(),
            ),
        ),
        ("ushape_tail0", ushape(0)),
        ("ushape_tail1", ushape(1)),
        ("threaded", threaded()),
    ]
}

#[test]
fn every_driver_matches_its_golden_digest() {
    let got = cases();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        GOLDEN.len(),
        "case list and golden table differ in length; recomputed table:\n{table}"
    );
    for ((name, digest), (golden_name, golden)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name, "recomputed table:\n{table}");
        assert_eq!(
            digest, golden,
            "case {name} moved: 0x{digest:016x} != 0x{golden:016x}; recomputed table:\n{table}"
        );
    }
}
