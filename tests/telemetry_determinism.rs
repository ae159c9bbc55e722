//! The telemetry determinism guard: training results must be
//! bit-identical with tracing on and off.
//!
//! Telemetry only reads clocks and pushes records — it must never touch
//! RNG state, model parameters, or the simulated network. This test runs
//! the same 4-platform split-training configuration twice in one process
//! (tracing force-enabled, then force-disabled) and asserts every
//! deterministic output matches to the bit: per-round losses, accuracy,
//! byte/message accounting, and the learned `L1` parameters.
//!
//! `wall_time_s` is excluded (host timing is never deterministic); the
//! enable flag is process-global, which is why this guard lives in its
//! own integration-test binary and its tests take the `TRACING` lock.
//!
//! Every route also emits the same span skeleton: one `round` span per
//! round carrying the simulated clock, and one `evaluate` span per
//! evaluation.

use std::sync::Mutex;

use medsplit::core::{
    HierPolicy, HierResilientTrainer, ResilientTrainer, SplitConfig, SplitTrainer, TrainingHistory,
    UShapeTrainer,
};
use medsplit::data::{partition, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit::nn::{Architecture, LrSchedule, MlpConfig};
use medsplit::simnet::{ChaosTransport, FaultPlan, HierTopology, MemoryTransport, StarTopology};
use medsplit::tensor::Tensor;

/// Serialises the tests of this binary around the global enable flag.
static TRACING: Mutex<()> = Mutex::new(());

const PLATFORMS: usize = 4;
const ROUNDS: usize = 6;

fn run_once() -> (TrainingHistory, Vec<Tensor>) {
    let arch = Architecture::Mlp(MlpConfig {
        input_dim: 8,
        hidden: vec![16],
        num_classes: 3,
    });
    let all = SyntheticTabular::new(3, 8, 0).generate(160).unwrap();
    let train = all.subset(&(0..128).collect::<Vec<_>>()).unwrap();
    let test = all.subset(&(128..160).collect::<Vec<_>>()).unwrap();
    let shards = partition(&train, PLATFORMS, &Partition::Iid, 1).unwrap();
    let transport = MemoryTransport::new(StarTopology::new(PLATFORMS));
    let config = SplitConfig {
        rounds: ROUNDS,
        eval_every: 3,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(8),
        ..SplitConfig::default()
    };
    let mut trainer = SplitTrainer::new(&arch, config, shards, test, &transport).unwrap();
    let history = trainer.run().unwrap();
    let params: Vec<Tensor> = trainer
        .platforms_mut()
        .iter_mut()
        .map(|p| p.l1_parameters())
        .collect();
    (history, params)
}

#[test]
fn training_is_bit_identical_with_tracing_on_and_off() {
    let _lock = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    medsplit::telemetry::set_enabled(true);
    let (traced, traced_params) = run_once();
    // The traced run actually recorded something — otherwise this guard
    // compares an instrumented run against itself.
    let spans = medsplit::telemetry::drain_spans();
    assert!(
        spans.iter().any(|s| s.name == "round"),
        "tracing was enabled but recorded no round spans"
    );

    medsplit::telemetry::set_enabled(false);
    let (plain, plain_params) = run_once();
    assert!(
        medsplit::telemetry::drain_spans().is_empty(),
        "tracing was disabled but still recorded spans"
    );

    // Bit-exact equality of everything deterministic. f32 comparisons are
    // exact on purpose: telemetry must not perturb a single operation.
    assert_eq!(traced.final_accuracy.to_bits(), plain.final_accuracy.to_bits());
    assert_eq!(traced.stats.total_bytes, plain.stats.total_bytes);
    assert_eq!(traced.stats.messages, plain.stats.messages);
    assert_eq!(traced.stats.by_kind, plain.stats.by_kind);
    assert_eq!(traced.stats.msgs_by_kind, plain.stats.msgs_by_kind);
    assert_eq!(traced.stats.uplink_bytes, plain.stats.uplink_bytes);
    assert_eq!(traced.stats.downlink_bytes, plain.stats.downlink_bytes);
    assert_eq!(
        traced.stats.makespan_s.to_bits(),
        plain.stats.makespan_s.to_bits()
    );

    assert_eq!(traced.records.len(), plain.records.len());
    for (a, b) in traced.records.iter().zip(&plain.records) {
        assert_eq!(a.round, b.round);
        assert_eq!(a.lr.to_bits(), b.lr.to_bits(), "round {}", a.round);
        assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits(), "round {}", a.round);
        assert_eq!(a.cumulative_bytes, b.cumulative_bytes, "round {}", a.round);
        assert_eq!(
            a.simulated_time_s.to_bits(),
            b.simulated_time_s.to_bits(),
            "round {}",
            a.round
        );
        assert_eq!(
            a.accuracy.map(f32::to_bits),
            b.accuracy.map(f32::to_bits),
            "round {}",
            a.round
        );
        // wall_time_s intentionally not compared: host timing.
    }

    assert_eq!(traced_params.len(), plain_params.len());
    for (i, (a, b)) in traced_params.iter().zip(&plain_params).enumerate() {
        assert_eq!(a, b, "platform {i} L1 parameters differ");
    }
}

/// Runs one route and returns what must not depend on tracing: every
/// deterministic history field and the platforms' `L1` parameters.
fn run_route(route: &str) -> (Vec<u64>, Vec<Tensor>) {
    let arch = Architecture::Mlp(MlpConfig {
        input_dim: 8,
        hidden: vec![16, 12],
        num_classes: 3,
    });
    let train = SyntheticTabular::new(3, 8, 0).generate(128).unwrap();
    let test = SyntheticTabular::new(3, 8, 1).generate(32).unwrap();
    let shards = partition(&train, PLATFORMS, &Partition::Iid, 1).unwrap();
    let config = SplitConfig {
        rounds: ROUNDS,
        eval_every: 3,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(8),
        ..SplitConfig::default()
    };
    let plan = FaultPlan::new(11).with_drop(0.1);
    let (history, params) = match route {
        "reliable_star" => {
            let chaos = ChaosTransport::new(MemoryTransport::new(StarTopology::new(PLATFORMS)), plan);
            let mut t = ResilientTrainer::new(&arch, config, shards, test, &chaos).unwrap();
            (t.run().unwrap(), l1(t.platforms_mut()))
        }
        "relay_tree" => {
            let topo = HierTopology::new(2, 2);
            let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), plan);
            let policy = HierPolicy::default();
            let mut t = HierResilientTrainer::new(&arch, config, policy, topo, shards, test, &chaos).unwrap();
            (t.run().unwrap(), l1(t.platforms_mut()))
        }
        "ushape" => {
            let transport = MemoryTransport::new(StarTopology::new(PLATFORMS));
            let mut t = UShapeTrainer::new(&arch, config, 1, shards, test, &transport).unwrap();
            (t.run().unwrap(), l1(t.platforms_mut()))
        }
        _ => unreachable!("unknown route {route}"),
    };
    (fingerprint(&history), params)
}

fn l1(platforms: &mut [medsplit::core::Platform]) -> Vec<Tensor> {
    platforms.iter_mut().map(|p| p.l1_parameters()).collect()
}

fn fingerprint(h: &TrainingHistory) -> Vec<u64> {
    let mut out = vec![
        u64::from(h.final_accuracy.to_bits()),
        h.stats.total_bytes,
        h.stats.messages,
        h.stats.makespan_s.to_bits(),
    ];
    for r in &h.records {
        out.extend([
            u64::from(r.mean_loss.to_bits()),
            r.cumulative_bytes,
            r.simulated_time_s.to_bits(),
            r.participants as u64,
            r.accuracy.map_or(u64::MAX, |a| u64::from(a.to_bits())),
        ]);
    }
    out
}

#[test]
fn every_route_emits_round_and_evaluate_spans() {
    let _lock = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    for route in ["reliable_star", "relay_tree", "ushape"] {
        medsplit::telemetry::set_enabled(true);
        let _ = medsplit::telemetry::drain_spans();
        let traced = run_route(route);
        let spans = medsplit::telemetry::drain_spans();
        let rounds: Vec<_> = spans.iter().filter(|s| s.name == "round").collect();
        assert_eq!(rounds.len(), ROUNDS, "{route}: one round span per round");
        for (i, s) in rounds.iter().enumerate() {
            assert_eq!(s.round, Some(i as u64), "{route}");
            assert!(
                s.sim_s.is_some_and(|t| t > 0.0),
                "{route}: round {i} carries no sim_s"
            );
        }
        let evals = spans.iter().filter(|s| s.name == "evaluate").count();
        assert_eq!(evals, ROUNDS / 3, "{route}: one evaluate span per eval round");

        medsplit::telemetry::set_enabled(false);
        let plain = run_route(route);
        assert!(medsplit::telemetry::drain_spans().is_empty());
        assert_eq!(traced, plain, "{route}: tracing changed the run");
    }
}
