//! Hierarchy benchmark: star vs relay-hierarchy split training under
//! relay crashes and region partitions.
//!
//! Sweeps a fixed 8-platform workload over a flat star and 2-region /
//! 4-region relay hierarchies, each under a fault plan (fault-free,
//! relay crash mid-run, region partition, and both at once), and
//! reports wire bytes, simulated makespan, final accuracy, degraded
//! rounds and the hierarchy's failover counters.
//!
//! Outputs:
//!   - `bench_results/hier.csv` (or `$MEDSPLIT_RESULTS_DIR`).
//!
//! Usage:
//!   hier_bench [--smoke] [--rounds N]
//!
//! `--smoke` runs a reduced sweep and asserts the invariants CI gates
//! on: a relay crash re-homes its platforms without degrading a single
//! round, a region partition degrades exactly its window, faulty
//! hierarchical accuracy stays within tolerance of the fault-free
//! hierarchical run, and a replay from the same seed is bit-identical.

use crate::report::{arg_present, arg_value, ReportWriter, TextTable};
use crate::workload::{chaos_train, ChaosRun, Topology};
use medsplit_core::SplitConfig;
use medsplit_data::MinibatchPolicy;
use medsplit_nn::{Architecture, LrSchedule, MlpConfig};
use medsplit_simnet::{FaultPlan, HierTopology};

const CSV_HEADER: &str = "topology,scenario,rounds,final_accuracy,acc_vs_clean,total_bytes,\
                          bytes_vs_star,makespan_s,degraded_rounds,rehomes,direct_fallbacks,\
                          orphaned_platform_rounds,relay_batches,retries";

const PLATFORMS: usize = 8;
const SEED: u64 = 23;

/// What a `hier_bench` invocation measured, for the lab runner.
#[derive(Debug, Clone, Copy)]
pub struct HierBenchOutcome {
    /// CSV rows produced (topology × scenario points swept).
    pub rows: usize,
    /// Final accuracy of the fault-free 4-region hierarchical run.
    pub hier_clean_accuracy: f32,
    /// Total wire bytes of the fault-free flat-star baseline.
    pub star_clean_bytes: u64,
}

struct Row {
    topology: String,
    scenario: String,
    rounds: usize,
    run: ChaosRun,
}

fn config(rounds: usize) -> SplitConfig {
    let mut cfg = SplitConfig {
        rounds,
        eval_every: rounds,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(10),
        ..SplitConfig::default()
    };
    // Tolerate the injected faults: any quorum completes the round.
    cfg.round_policy.min_platforms = 1;
    cfg
}

fn train(topology: Topology, plan: FaultPlan, rounds: usize) -> ChaosRun {
    let arch = Architecture::Mlp(MlpConfig {
        input_dim: 8,
        hidden: vec![16],
        num_classes: 3,
    });
    chaos_train(&arch, config(rounds), topology, plan, 240, SEED).expect("chaos training run")
}

/// Relay 1 down for `[crash, recover)` — its region re-homes to relay 2.
fn relay_crash_plan(crash: u64, recover: u64) -> FaultPlan {
    FaultPlan::new(SEED)
        .crash_relay(1, crash)
        .recover_relay(1, recover)
}

/// Region 1 cut off from everything outside it for `[down, up)`.
fn partition_plan(topo: &HierTopology, down: u64, up: u64) -> FaultPlan {
    FaultPlan::new(SEED).partition_region(topo, 1, down, up)
}

fn to_report(rows: &[Row], clean_acc: f32, star_bytes: u64) -> ReportWriter {
    let mut report = ReportWriter::csv(CSV_HEADER);
    for r in rows {
        let (history, hier) = (&r.run.history, r.run.hier.clone().unwrap_or_default());
        report.line(&format!(
            "{},{},{},{:.4},{:+.4},{},{:.3},{:.3},{},{},{},{},{},{}",
            r.topology,
            r.scenario,
            r.rounds,
            history.final_accuracy,
            history.final_accuracy - clean_acc,
            history.stats.total_bytes,
            history.stats.total_bytes as f64 / star_bytes.max(1) as f64,
            history.stats.makespan_s,
            history.degraded_rounds(),
            hier.rehomes,
            hier.direct_fallbacks,
            hier.orphaned_platform_rounds,
            hier.relay_batches,
            hier.base.retries,
        ));
    }
    report
}

fn smoke_asserts(rounds: usize) {
    let (crash, recover) = (rounds as u64 / 4, rounds as u64 / 2);
    let topo = HierTopology::new(4, 2);
    let run_hier = |plan: FaultPlan| {
        let tree = Topology::Hier {
            regions: 4,
            per_region: 2,
        };
        let run = train(tree, plan, rounds);
        (
            run.history,
            run.hier.expect("a relay-tree run reports its counters"),
        )
    };

    // Gate 1: a relay crash re-homes its region to a backup relay —
    // zero degraded rounds, zero orphans, and exactly the crash
    // window's worth of re-homed platform-rounds.
    let (crashed, report) = run_hier(relay_crash_plan(crash, recover));
    assert_eq!(crashed.records.len(), rounds, "relay-crash run must complete");
    assert_eq!(
        crashed.degraded_rounds(),
        0,
        "failover must keep every round whole"
    );
    assert_eq!(report.orphaned_platform_rounds, 0);
    assert_eq!(
        report.rehomes,
        (recover - crash) * topo.per_region() as u64,
        "each platform of the crashed relay re-homes every window round"
    );

    // Gate 2: a partitioned region degrades exactly its window and the
    // rest of the fleet keeps training.
    let (parted, parted_report) = run_hier(partition_plan(&topo, crash, recover));
    assert_eq!(
        parted.degraded_rounds(),
        (recover - crash) as usize,
        "partition must degrade exactly its window"
    );
    assert_eq!(
        parted_report.orphaned_platform_rounds,
        (recover - crash) * topo.per_region() as u64
    );
    for r in &parted.records {
        let expected = if (crash..recover).contains(&(r.round as u64)) {
            topo.platforms() - topo.per_region()
        } else {
            topo.platforms()
        };
        assert_eq!(r.participants, expected, "round {} participants", r.round);
    }

    // Gate 3: faulty hierarchical accuracy stays within tolerance of
    // the fault-free hierarchical run.
    let (clean, _) = run_hier(FaultPlan::new(SEED));
    for (name, hist) in [("relay crash", &crashed), ("partition", &parted)] {
        assert!(
            hist.final_accuracy >= clean.final_accuracy - 0.10,
            "{name} accuracy {} must stay within 10 points of clean {}",
            hist.final_accuracy,
            clean.final_accuracy
        );
    }

    // Gate 4: the combined fault replays bit-identically from its seed.
    let plan = relay_crash_plan(crash, recover).partition_region(&topo, 1, crash + 1, recover + 1);
    let (h1, r1) = run_hier(plan.clone());
    let (h2, r2) = run_hier(plan);
    assert_eq!(r1, r2, "failover counters must replay identically");
    assert_eq!(h1.stats, h2.stats, "wire accounting must replay identically");
    assert_eq!(
        h1.final_accuracy.to_bits(),
        h2.final_accuracy.to_bits(),
        "weights must replay bit-identically"
    );
    println!("smoke asserts passed");
}

/// Runs the star-vs-hierarchy sweep and returns the headline figures.
pub fn run(args: &[String]) -> HierBenchOutcome {
    let smoke = arg_present(args, "--smoke");
    let rounds: usize = arg_value(args, "--rounds")
        .map(|v| v.parse().expect("--rounds takes an integer"))
        .unwrap_or(if smoke { 12 } else { 40 });
    let (crash, recover) = (rounds as u64 / 4, rounds as u64 / 2);

    let mut rows = Vec::new();

    // Flat-star baseline: the byte and accuracy yardstick.
    let star = Topology::Star(PLATFORMS);
    let star_clean = train(star, FaultPlan::new(SEED), rounds);
    let star_bytes = star_clean.history.stats.total_bytes;
    let clean_acc = star_clean.history.final_accuracy;
    rows.push(Row {
        topology: star.name(),
        scenario: "clean".into(),
        rounds,
        run: star_clean,
    });
    let star_crash = train(
        star,
        FaultPlan::new(SEED)
            .crash(medsplit_simnet::NodeId::Platform(1), crash)
            .recover(medsplit_simnet::NodeId::Platform(1), recover),
        rounds,
    );
    rows.push(Row {
        topology: star.name(),
        scenario: format!("crash_{crash}_{recover}"),
        rounds,
        run: star_crash,
    });

    // Hierarchies over the same 8 platforms.
    let shapes: &[(usize, usize)] = if smoke { &[(4, 2)] } else { &[(2, 4), (4, 2)] };
    let mut hier_clean_accuracy = 0.0f32;
    for &(regions, per_region) in shapes {
        let topo = HierTopology::new(regions, per_region);
        let tree = Topology::Hier { regions, per_region };
        let scenarios = [
            ("clean".to_string(), FaultPlan::new(SEED)),
            (
                format!("relaycrash_{crash}_{recover}"),
                relay_crash_plan(crash, recover),
            ),
            (
                format!("partition_1_{crash}_{recover}"),
                partition_plan(&topo, crash, recover),
            ),
            (
                "relaycrash+partition".to_string(),
                relay_crash_plan(crash, recover).partition_region(&topo, 1, crash + 1, recover + 1),
            ),
        ];
        for (scenario, plan) in scenarios {
            let run = train(tree, plan, rounds);
            if scenario == "clean" {
                hier_clean_accuracy = run.history.final_accuracy;
            }
            rows.push(Row {
                topology: tree.name(),
                scenario,
                rounds,
                run,
            });
        }
    }

    let report = to_report(&rows, clean_acc, star_bytes);
    let path = report.write("hier.csv").expect("write hier.csv");
    println!("wrote {}", path.display());

    let mut table = TextTable::new(
        "hier",
        &[
            "topology", "scenario", "acc", "d_acc", "MB", "makespan", "degraded", "rehomes", "orphaned",
        ],
    );
    for r in &rows {
        let (history, hier) = (&r.run.history, r.run.hier.clone().unwrap_or_default());
        table.row(vec![
            r.topology.clone(),
            r.scenario.clone(),
            format!("{:.3}", history.final_accuracy),
            format!("{:+.3}", history.final_accuracy - clean_acc),
            format!("{:.2}", history.stats.total_bytes as f64 / 1e6),
            format!("{:.1}", history.stats.makespan_s),
            history.degraded_rounds().to_string(),
            hier.rehomes.to_string(),
            hier.orphaned_platform_rounds.to_string(),
        ]);
    }
    println!("{table}");

    if smoke {
        smoke_asserts(rounds);
    }
    HierBenchOutcome {
        rows: rows.len(),
        hier_clean_accuracy,
        star_clean_bytes: star_bytes,
    }
}
