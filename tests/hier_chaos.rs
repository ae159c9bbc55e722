//! Hierarchical chaos acceptance, end to end.
//!
//! Pins PR 9's contract: a 4-region hierarchical run where one relay
//! crashes mid-run, one region partitions, and one platform crash
//! triggers the per-region quorum — every round completes, platforms
//! are only ever dropped by a declared mechanism (orphaning or region
//! quorum, never silently), the whole run replays bit-identically from
//! one seed, and final accuracy stays within tolerance of the
//! fault-free hierarchical run.

use medsplit::core::{HierPolicy, HierReport, HierResilientTrainer, SplitConfig, TrainingHistory};
use medsplit::data::{partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit::nn::{Architecture, LrSchedule, MlpConfig};
use medsplit::simnet::{ChaosTransport, FaultPlan, HierTopology, MemoryTransport, NodeId};

const ROUNDS: usize = 12;

fn arch() -> Architecture {
    Architecture::Mlp(MlpConfig {
        input_dim: 8,
        hidden: vec![16],
        num_classes: 3,
    })
}

fn data(platforms: usize) -> (Vec<InMemoryDataset>, InMemoryDataset) {
    let train = SyntheticTabular::new(3, 8, 0).generate(240).unwrap();
    let test = SyntheticTabular::new(3, 8, 1).generate(60).unwrap();
    let shards = partition(&train, platforms, &Partition::Iid, 1).unwrap();
    (shards, test)
}

fn config() -> SplitConfig {
    SplitConfig {
        rounds: ROUNDS,
        eval_every: ROUNDS,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(10),
        ..SplitConfig::default()
    }
}

/// The acceptance fault plan on a 4-region × 2-platform hierarchy:
/// - platform 7 crashes for rounds `[2, 4)` — its region-mate is then
///   dropped by the per-region quorum of 2, so region 3 sits out whole;
/// - relay 1 crashes for rounds `[4, 8)` — its platforms re-home to a
///   backup relay and keep participating;
/// - region 2 partitions for rounds `[6, 9)` — its platforms are
///   orphaned and those rounds degrade; the re-homed region-1 platforms
///   must skip the partitioned relay 2 when picking a backup.
fn acceptance_plan(topo: &HierTopology) -> FaultPlan {
    FaultPlan::new(4242)
        .crash(NodeId::Platform(7), 2)
        .recover(NodeId::Platform(7), 4)
        .crash_relay(1, 4)
        .recover_relay(1, 8)
        .partition_region(topo, 2, 6, 9)
}

fn run(plan: FaultPlan) -> (TrainingHistory, HierReport) {
    let topo = HierTopology::new(4, 2);
    let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), plan);
    let (shards, test) = data(topo.platforms());
    let hier = HierPolicy {
        region_quorum: 2,
        ..HierPolicy::default()
    };
    let mut trainer = HierResilientTrainer::new(&arch(), config(), hier, topo, shards, test, &chaos).unwrap();
    let history = trainer.run().unwrap();
    let report = trainer.report().clone();
    (history, report)
}

#[test]
fn acceptance_four_regions_relay_crash_and_partition() {
    let topo = HierTopology::new(4, 2);
    let (clean, clean_report) = run(FaultPlan::new(4242));
    let (faulty, report) = run(acceptance_plan(&topo));

    assert_eq!(faulty.records.len(), ROUNDS, "every round must complete");
    assert_eq!(faulty.method, "split_hier_resilient");

    // The fault-free hierarchy never drops, re-homes, or degrades.
    assert_eq!(clean_report.rehomes, 0);
    assert_eq!(clean_report.orphaned_platform_rounds, 0);
    assert_eq!(clean.degraded_rounds(), 0);

    // Fault bookkeeping is exact: one relay crash + recovery, one
    // platform crash + rejoin.
    assert_eq!(report.relay_crashes, 1);
    assert_eq!(report.relay_rejoins, 1);
    assert_eq!(report.base.crashes, 1);
    assert_eq!(report.base.rejoins, 1);

    // Region 3 is dropped whole by its quorum in rounds 2 and 3.
    assert_eq!(report.region_quorum_drops, 2);
    // Relay 1's platforms (2, 3) re-home every round of [4, 8): to
    // relay 2 while it is reachable, to relay 3 once region 2
    // partitions at round 6.
    assert_eq!(report.rehomes, 8);
    assert_eq!(report.direct_fallbacks, 0);
    // Region 2's platforms (4, 5) are orphaned for rounds [6, 9).
    assert_eq!(report.orphaned_platform_rounds, 6);

    // Participants per round: drops happen only through a declared
    // mechanism (crash, region quorum, partition orphaning) — never a
    // missed deadline or silent skip.
    assert_eq!(report.base.skipped_platform_rounds, 0);
    assert_eq!(report.base.quorum_failures, 0);
    for r in &faulty.records {
        let expected = match r.round {
            2 | 3 => 6, // region 3 out: platform 7 crashed + quorum drop
            6..=8 => 6, // region 2 orphaned by the partition
            _ => 8,
        };
        assert_eq!(r.participants, expected, "round {}", r.round);
        assert_eq!(r.degraded, expected < 8, "round {}", r.round);
    }
    assert_eq!(faulty.degraded_rounds(), 5);

    // Relay traffic kept flowing around the failures.
    assert!(report.relay_batches > 0);
    assert!(report.region_bytes.iter().all(|&b| b > 0));

    // Accuracy tolerance vs the fault-free hierarchical run.
    assert!(
        faulty.final_accuracy >= clean.final_accuracy - 0.05,
        "faulty accuracy {} must be within 5 points of fault-free {}",
        faulty.final_accuracy,
        clean.final_accuracy
    );

    // Bit-identical replay from the single seed.
    let (replay, replay_report) = run(acceptance_plan(&topo));
    assert_eq!(report, replay_report, "fault counters must replay identically");
    assert_eq!(
        faulty.stats, replay.stats,
        "wire accounting must replay identically"
    );
    assert_eq!(faulty.final_accuracy.to_bits(), replay.final_accuracy.to_bits());
    for (a, b) in faulty.records.iter().zip(&replay.records) {
        assert_eq!(a.participants, b.participants);
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
        assert_eq!(a.cumulative_bytes, b.cumulative_bytes);
    }
}

/// Loss and corruption on the relay paths are absorbed by the same
/// retry/checksum machinery as the star driver, and the damaged run
/// still replays bit-identically.
#[test]
fn lossy_hierarchy_retries_and_replays() {
    let plan = || FaultPlan::new(7).with_drop(0.08).with_corrupt(0.04);
    let (h1, r1) = run(plan());
    assert_eq!(h1.records.len(), ROUNDS);
    assert!(r1.base.retries > 0, "loss must exercise the retry path");
    assert!(r1.base.checksum_rejections > 0, "corruption must be caught");
    let (h2, r2) = run(plan());
    assert_eq!(r1, r2);
    assert_eq!(h1.stats, h2.stats);
    assert_eq!(h1.final_accuracy.to_bits(), h2.final_accuracy.to_bits());
}

/// A fault-free relay tree trains exactly what the star does: the relay
/// batches only move the same envelopes, and the server concatenates
/// them in platform order either way. Per-round losses, every
/// platform's `L1` parameters and the final accuracy match to the bit.
#[test]
fn fault_free_relay_tree_equals_the_star_bit_for_bit() {
    use medsplit::core::SplitTrainer;
    use medsplit::simnet::StarTopology;

    let topo = HierTopology::new(2, 2);
    let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), FaultPlan::new(1));
    let (shards, test) = data(topo.platforms());
    let mut hier = HierResilientTrainer::new(
        &arch(),
        config(),
        HierPolicy::default(),
        topo,
        shards.clone(),
        test.clone(),
        &chaos,
    )
    .unwrap();
    let tree = hier.run().unwrap();

    let transport = MemoryTransport::new(StarTopology::new(4));
    let mut star = SplitTrainer::new(&arch(), config(), shards, test, &transport).unwrap();
    let flat = star.run().unwrap();

    assert_eq!(tree.records.len(), flat.records.len());
    for (a, b) in tree.records.iter().zip(&flat.records) {
        assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits(), "round {}", a.round);
    }
    for (i, (a, b)) in hier
        .platforms_mut()
        .iter_mut()
        .zip(star.platforms_mut().iter_mut())
        .enumerate()
    {
        assert_eq!(a.l1_parameters(), b.l1_parameters(), "platform {i} L1 differs");
    }
    assert_eq!(tree.final_accuracy.to_bits(), flat.final_accuracy.to_bits());
}
