//! Chaos injection and crash-recovery guarantees, end to end.
//!
//! Pins the fault-tolerance contract of PR 4: a seeded [`FaultPlan`]
//! replays bit-identically, corruption is always detected by the payload
//! checksum, duplicate/reordered delivery never changes converged
//! weights (exact equality, in the style of `tests/parallel_kernels.rs`),
//! and the acceptance scenario — 4 platforms under 10 % loss with one
//! mid-training crash+rejoin and one straggler — completes every round
//! within 5 accuracy points of the fault-free run.

use bytes::Bytes;
use medsplit::core::{Platform, ResilientTrainer, SplitConfig};
use medsplit::data::{partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit::nn::{Architecture, LrSchedule, MlpConfig};
use medsplit::simnet::{
    ChaosSnapshot, ChaosTransport, Envelope, FaultPlan, MemoryTransport, MessageKind, NodeId, StarTopology,
    Transport,
};
use proptest::prelude::*;

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

fn config(rounds: usize) -> SplitConfig {
    SplitConfig {
        rounds,
        eval_every: rounds,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(10),
        ..SplitConfig::default()
    }
}

/// Drives a fixed message sequence through a chaos transport and returns
/// every delivery (round, seq, checksum-valid) plus the fault counters.
fn chaos_trace(plan: &FaultPlan, messages: usize) -> (Vec<(u64, u64, bool)>, ChaosSnapshot) {
    let t = ChaosTransport::new(MemoryTransport::new(StarTopology::new(4)), plan.clone());
    for i in 0..messages as u64 {
        let _ = t.begin_round(i / 8);
        let env = Envelope::new(
            NodeId::Platform(i as usize % 4),
            NodeId::Server,
            i / 8,
            MessageKind::Activations,
            Bytes::from(vec![(i % 251) as u8; 32]),
        );
        let _ = t.send(env);
    }
    t.flush();
    let mut delivered = Vec::new();
    while let Some(env) = t.try_recv(NodeId::Server) {
        delivered.push((env.round, env.seq, env.verify_checksum()));
    }
    (delivered, t.chaos_stats())
}

proptest! {
    /// A seeded fault plan is a pure function of its seed: any plan,
    /// driven by the same message sequence, replays bit-identically.
    #[test]
    fn fault_plan_replays_bit_identically(
        seed in 0u64..=u64::MAX,
        drop_p in 0.0f64..0.5,
        dup_p in 0.0f64..0.5,
        reorder_p in 0.0f64..0.5,
        corrupt_p in 0.0f64..0.5,
    ) {
        let plan = FaultPlan::new(seed)
            .with_drop(drop_p)
            .with_dup(dup_p)
            .with_reorder(reorder_p)
            .with_corrupt(corrupt_p)
            .crash(NodeId::Platform(3), 2)
            .recover(NodeId::Platform(3), 4);
        let a = chaos_trace(&plan, 64);
        let b = chaos_trace(&plan, 64);
        prop_assert_eq!(a, b);
    }

    /// Every corrupted delivery fails checksum verification — corruption
    /// is detected, never silently trained on.
    #[test]
    fn corruption_is_always_detected(seed in 0u64..=u64::MAX) {
        let plan = FaultPlan::new(seed).with_corrupt(1.0);
        let (delivered, stats) = chaos_trace(&plan, 32);
        prop_assert!(!delivered.is_empty());
        prop_assert!(delivered.iter().all(|(_, _, valid)| !valid));
        prop_assert_eq!(stats.corrupted, delivered.len() as u64);
    }

    /// Any single corrupted payload byte is caught by the checksum.
    #[test]
    fn checksum_catches_any_single_byte_flip(
        payload in prop::collection::vec(0u8..=255, 1..256),
        at in 0usize..4096,
        bit in 0u8..8,
    ) {
        let mut env = Envelope::new(
            NodeId::Platform(0),
            NodeId::Server,
            0,
            MessageKind::Activations,
            Bytes::from(payload.clone()),
        );
        prop_assert!(env.verify_checksum());
        let i = at % payload.len();
        let mut bytes = payload;
        bytes[i] ^= 1 << bit;
        env.payload = Bytes::from(bytes);
        prop_assert!(!env.verify_checksum());
    }
}

/// Runs resilient training under `plan` and returns the final `L1`
/// weights of every platform plus the bit pattern of the final accuracy.
fn converged_weights(plan: FaultPlan, rounds: usize) -> (Vec<medsplit::tensor::Tensor>, u32) {
    let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(4)), plan);
    let (shards, test) = data(4);
    let mut trainer = ResilientTrainer::new(&arch(), config(rounds), shards, test, &chaos).unwrap();
    let history = trainer.run().unwrap();
    let weights = trainer
        .platforms_mut()
        .iter_mut()
        .map(Platform::l1_parameters)
        .collect();
    (weights, history.final_accuracy.to_bits())
}

#[test]
fn duplicates_and_reordering_never_change_converged_weights() {
    // Exact equality, as in tests/parallel_kernels.rs: dedup and
    // pid-keyed collection make delivery multiplicity and order
    // invisible to the learned parameters.
    let (clean_w, clean_acc) = converged_weights(FaultPlan::new(13), 15);
    let (noisy_w, noisy_acc) = converged_weights(FaultPlan::new(13).with_dup(0.4).with_reorder(0.4), 15);
    assert_eq!(clean_w, noisy_w, "weights must be bit-identical");
    assert_eq!(clean_acc, noisy_acc);
}

/// The PR's acceptance scenario: 4 platforms, 10 % drop, one
/// mid-training crash + rejoin, one straggler. All rounds complete,
/// accuracy lands within 5 points of fault-free, and the run replays
/// bit-identically.
#[test]
fn acceptance_four_platforms_loss_crash_straggler() {
    const ROUNDS: usize = 30;
    let plan = || {
        FaultPlan::new(2024)
            .with_drop(0.10)
            .crash(NodeId::Platform(1), 8)
            .recover(NodeId::Platform(1), 15)
            .straggler(NodeId::Platform(3), 0.5)
    };

    let run = |plan: FaultPlan| {
        let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(4)), plan);
        let (shards, test) = data(4);
        let mut trainer = ResilientTrainer::new(&arch(), config(ROUNDS), shards, test, &chaos).unwrap();
        let history = trainer.run().unwrap();
        (history, trainer.report())
    };

    let (clean, _) = run(FaultPlan::new(2024));
    let (faulty, report) = run(plan());

    assert_eq!(faulty.records.len(), ROUNDS, "all rounds must complete");
    assert_eq!(report.crashes, 1);
    assert_eq!(report.rejoins, 1);
    assert!(report.retries > 0, "10% loss must exercise retries");
    // The crash window (rounds 8..15) is degraded; the rest may degrade
    // only if a platform ran out of retries, which the seed avoids.
    assert!(faulty.degraded_rounds() >= 7);
    assert!(
        faulty.final_accuracy >= clean.final_accuracy - 0.05,
        "faulty accuracy {} must be within 5 points of fault-free {}",
        faulty.final_accuracy,
        clean.final_accuracy
    );
    assert!(
        faulty.final_accuracy > 0.55,
        "the degraded run must still learn, got {}",
        faulty.final_accuracy
    );

    // Bit-identical replay of the full faulty training run.
    let (replay, replay_report) = run(plan());
    assert_eq!(report, replay_report);
    assert_eq!(faulty.stats, replay.stats);
    assert_eq!(faulty.final_accuracy.to_bits(), replay.final_accuracy.to_bits());
    for (a, b) in faulty.records.iter().zip(&replay.records) {
        assert_eq!(a.participants, b.participants);
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
        assert_eq!(a.cumulative_bytes, b.cumulative_bytes);
    }
}

/// Quorum boundary: with `min_platforms == num_platforms`, losing any
/// platform fails the round — the crash window becomes quorum failures
/// with zero participants and no update, and the run still completes.
#[test]
fn full_quorum_makes_any_loss_fail_the_round() {
    let plan = FaultPlan::new(91)
        .crash(NodeId::Platform(0), 3)
        .recover(NodeId::Platform(0), 6);
    let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(4)), plan);
    let (shards, test) = data(4);
    let mut cfg = config(10);
    cfg.round_policy.min_platforms = 4;
    let mut trainer = ResilientTrainer::new(&arch(), cfg, shards, test, &chaos).unwrap();
    let history = trainer.run().unwrap();

    assert_eq!(history.records.len(), 10, "the run must complete every round");
    assert_eq!(
        trainer.report().quorum_failures,
        3,
        "rounds 3..6 miss full quorum"
    );
    for r in &history.records {
        if (3..6).contains(&r.round) {
            // The three survivors answered, but the round failed quorum:
            // their work is discarded and no update is applied.
            assert_eq!(r.participants, 3, "round {}", r.round);
            assert_eq!(r.mean_loss, 0.0, "failed round {} applies no update", r.round);
            assert!(r.degraded, "round {}", r.round);
        } else {
            assert_eq!(r.participants, 4, "round {}", r.round);
            assert!(!r.degraded, "round {}", r.round);
        }
    }
    assert!(history.final_accuracy.is_finite());
}

/// Quorum boundary: total message loss exhausts every platform's
/// retries every round. The whole run degrades gracefully — all rounds
/// are quorum failures, nothing panics, and evaluation still works.
#[test]
fn retries_exhausted_everywhere_degrades_gracefully() {
    let chaos = ChaosTransport::new(
        MemoryTransport::new(StarTopology::new(4)),
        FaultPlan::new(17).with_drop(1.0),
    );
    let (shards, test) = data(4);
    let mut trainer = ResilientTrainer::new(&arch(), config(5), shards, test, &chaos).unwrap();
    let history = trainer.run().unwrap();

    assert_eq!(history.records.len(), 5);
    assert_eq!(
        trainer.report().quorum_failures,
        5,
        "every round must fail quorum"
    );
    assert!(
        trainer.report().retries > 0,
        "the retry path must have been exercised"
    );
    assert!(history.records.iter().all(|r| r.participants == 0 && r.degraded));
    assert!(
        history.records.iter().all(|r| r.mean_loss == 0.0),
        "failed rounds report no loss"
    );
    // Weights never updated: accuracy equals the common-init model's.
    assert!(history.final_accuracy.is_finite());
    // Bytes were still charged for the doomed sends — loss is not free.
    assert!(history.stats.total_bytes > 0);
}

/// Crash–rejoin bookkeeping: the recovered platform resumes from its
/// checkpoint and contributes again; participants trace the crash window
/// exactly when no other faults interfere.
#[test]
fn crash_rejoin_restores_from_checkpoint() {
    let plan = FaultPlan::new(55)
        .crash(NodeId::Platform(2), 4)
        .recover(NodeId::Platform(2), 7);
    let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(4)), plan);
    let (shards, test) = data(4);
    let mut trainer = ResilientTrainer::new(&arch(), config(12), shards, test, &chaos).unwrap();
    let history = trainer.run().unwrap();

    for r in &history.records {
        let expected = if (4..7).contains(&r.round) { 3 } else { 4 };
        assert_eq!(r.participants, expected, "round {}", r.round);
        assert_eq!(r.degraded, (4..7).contains(&r.round), "round {}", r.round);
    }
    assert_eq!(history.degraded_rounds(), 3);
    // The history CSV carries the new columns.
    let csv = history.to_csv();
    assert!(csv.starts_with("method,round,lr,loss,bytes,simulated_s,wall_s,participants,degraded,accuracy"));
    assert!(
        csv.lines().nth(5).unwrap().contains(",3,1,"),
        "crash round row: {csv}"
    );
}

/// On an empty fault plan the reliable star trains exactly what the
/// plain star does — same losses, same `L1`, same bytes and per-kind
/// message counts — but on a longer simulated clock: it finishes each
/// platform's logits → grads exchange before starting the next one,
/// where the plain star sends each protocol step to every platform at
/// once. The makespan assertion keeps the two send orders from being
/// merged without anyone noticing.
#[test]
fn empty_plan_equals_the_plain_star_but_runs_longer() {
    use medsplit::core::SplitTrainer;

    const ROUNDS: usize = 12;
    let (shards, test) = data(4);
    let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(4)), FaultPlan::new(3));
    let mut reliable =
        ResilientTrainer::new(&arch(), config(ROUNDS), shards.clone(), test.clone(), &chaos).unwrap();
    let r = reliable.run().unwrap();

    let transport = MemoryTransport::new(StarTopology::new(4));
    let mut plain = SplitTrainer::new(&arch(), config(ROUNDS), shards, test, &transport).unwrap();
    let p = plain.run().unwrap();

    for (a, b) in r.records.iter().zip(&p.records) {
        assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits(), "round {}", a.round);
    }
    for (i, (a, b)) in reliable
        .platforms_mut()
        .iter_mut()
        .zip(plain.platforms_mut().iter_mut())
        .enumerate()
    {
        assert_eq!(a.l1_parameters(), b.l1_parameters(), "platform {i} L1 differs");
    }
    assert_eq!(r.final_accuracy.to_bits(), p.final_accuracy.to_bits());
    assert_eq!(r.stats.total_bytes, p.stats.total_bytes);
    assert_eq!(r.stats.msgs_by_kind, p.stats.msgs_by_kind);
    assert!(
        r.stats.makespan_s > p.stats.makespan_s,
        "reliable star {} s should run longer than the plain star {} s",
        r.stats.makespan_s,
        p.stats.makespan_s
    );
}
