//! Resilience benchmark: accuracy and wire-byte degradation of the
//! fault-tolerant split trainer under injected faults.
//!
//! Sweeps per-message drop rates × quorum sizes on a fixed-seed 4-platform
//! MLP run, plus a crash–rejoin scenario (one platform down for a window
//! of rounds) and a straggler scenario, and reports final accuracy, total
//! wire bytes, retries, and degraded-round counts against the fault-free
//! baseline.
//!
//! Outputs:
//!   - `bench_results/resilience.csv` (or `$MEDSPLIT_RESULTS_DIR`).
//!
//! Usage:
//!   resilience_bench [--smoke] [--rounds N]
//!
//! `--smoke` runs a tiny sweep with fixed seeds and asserts the chaos
//! invariants CI gates on: training completes under 10 % loss, the
//! crash–rejoin scenario produces exactly its window of degraded rounds,
//! and a replay of the faulty run is bit-identical.

use crate::report::{arg_present, arg_value, ReportWriter, TextTable};
use crate::workload::{chaos_train, Topology};
use medsplit_core::{ResilienceReport, SplitConfig, TrainingHistory};
use medsplit_data::MinibatchPolicy;
use medsplit_nn::{Architecture, LrSchedule, MlpConfig};
use medsplit_simnet::{FaultPlan, NodeId};

const CSV_HEADER: &str = "scenario,drop_p,quorum,rounds,final_accuracy,acc_vs_clean,total_bytes,\
                          bytes_vs_clean,retries,checksum_rejections,skipped_platforms,\
                          degraded_rounds,quorum_failures";

const PLATFORMS: usize = 4;

/// What a `resilience_bench` invocation measured, for the lab runner.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceBenchOutcome {
    /// CSV rows produced (scenarios swept).
    pub rows: usize,
    /// Final accuracy of the fault-free baseline run.
    pub clean_accuracy: f32,
    /// Total wire bytes of the fault-free baseline run.
    pub clean_bytes: u64,
}

struct Row {
    scenario: String,
    drop_p: f64,
    quorum: usize,
    rounds: usize,
    history: TrainingHistory,
    report: ResilienceReport,
}

fn config(rounds: usize, quorum: usize) -> SplitConfig {
    let mut cfg = SplitConfig {
        rounds,
        eval_every: rounds,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(10),
        ..SplitConfig::default()
    };
    cfg.round_policy.min_platforms = quorum;
    cfg
}

fn run_scenario(plan: FaultPlan, rounds: usize, quorum: usize) -> (TrainingHistory, ResilienceReport) {
    let arch = Architecture::Mlp(MlpConfig {
        input_dim: 8,
        hidden: vec![16],
        num_classes: 3,
    });
    let run = chaos_train(
        &arch,
        config(rounds, quorum),
        Topology::Star(PLATFORMS),
        plan,
        240,
        11,
    )
    .expect("resilient training run");
    (run.history, run.report)
}

/// The crash–rejoin scenario the CI gate asserts on: platform 1 is down
/// for rounds `[crash, recover)` and rejoins from its checkpoint.
fn crash_plan(drop_p: f64, crash: u64, recover: u64) -> FaultPlan {
    FaultPlan::new(77)
        .with_drop(drop_p)
        .crash(NodeId::Platform(1), crash)
        .recover(NodeId::Platform(1), recover)
}

fn to_report(rows: &[Row], clean_acc: f32, clean_bytes: u64) -> ReportWriter {
    let mut report = ReportWriter::csv(CSV_HEADER);
    for r in rows {
        report.line(&format!(
            "{},{:.2},{},{},{:.4},{:+.4},{},{:.3},{},{},{},{},{}",
            r.scenario,
            r.drop_p,
            r.quorum,
            r.rounds,
            r.history.final_accuracy,
            r.history.final_accuracy - clean_acc,
            r.history.stats.total_bytes,
            r.history.stats.total_bytes as f64 / clean_bytes.max(1) as f64,
            r.report.retries,
            r.report.checksum_rejections,
            r.report.skipped_platform_rounds,
            r.history.degraded_rounds(),
            r.report.quorum_failures
        ));
    }
    report
}

fn smoke_asserts(rounds: usize) {
    // Gate 1: a quorum round under 10 % loss completes and stays close to
    // the fault-free accuracy.
    let (clean, _) = run_scenario(FaultPlan::new(77), rounds, 1);
    let (lossy, lossy_report) = run_scenario(FaultPlan::new(77).with_drop(0.10), rounds, 3);
    assert_eq!(lossy.records.len(), rounds, "lossy run must complete all rounds");
    assert!(lossy_report.retries > 0, "10% loss must exercise the retry path");
    assert!(
        lossy.final_accuracy >= clean.final_accuracy - 0.05,
        "lossy accuracy {} must be within 5 points of clean {}",
        lossy.final_accuracy,
        clean.final_accuracy
    );

    // Gate 2: the crash–rejoin scenario (no message loss, so the count is
    // exact) degrades precisely its crash window and nothing else.
    let (crash_hist, crash_report) = run_scenario(crash_plan(0.0, 3, 6), rounds, 1);
    assert_eq!(crash_report.crashes, 1);
    assert_eq!(crash_report.rejoins, 1);
    assert_eq!(
        crash_hist.degraded_rounds(),
        3,
        "rounds 3..6 and only those must be degraded"
    );
    for r in &crash_hist.records {
        let expected = if (3..6).contains(&r.round) {
            PLATFORMS - 1
        } else {
            PLATFORMS
        };
        assert_eq!(r.participants, expected, "round {} participants", r.round);
    }

    // Gate 3: a faulty run replays bit-identically from its seed.
    let plan = crash_plan(0.10, 3, 6).straggler(NodeId::Platform(2), 0.5);
    let (h1, r1) = run_scenario(plan.clone(), rounds, 2);
    let (h2, r2) = run_scenario(plan, rounds, 2);
    assert_eq!(r1, r2, "fault counters must replay identically");
    assert_eq!(h1.stats, h2.stats, "wire accounting must replay identically");
    assert_eq!(
        h1.final_accuracy.to_bits(),
        h2.final_accuracy.to_bits(),
        "weights must replay bit-identically"
    );
    println!("smoke asserts passed");
}

/// Runs the resilience sweep and returns the fault-free baseline figures.
pub fn run(args: &[String]) -> ResilienceBenchOutcome {
    let smoke = arg_present(args, "--smoke");
    let rounds: usize = arg_value(args, "--rounds")
        .map(|v| v.parse().expect("--rounds takes an integer"))
        .unwrap_or(if smoke { 12 } else { 40 });

    let mut rows = Vec::new();

    // Fault-free baseline first: every degradation is measured against it.
    let (clean_hist, clean_report) = run_scenario(FaultPlan::new(77), rounds, 1);
    let clean_acc = clean_hist.final_accuracy;
    let clean_bytes = clean_hist.stats.total_bytes;
    rows.push(Row {
        scenario: "clean".into(),
        drop_p: 0.0,
        quorum: 1,
        rounds,
        history: clean_hist,
        report: clean_report,
    });

    // Drop-rate × quorum sweep.
    let drops: &[f64] = if smoke { &[0.1] } else { &[0.05, 0.1, 0.2] };
    let quorums: &[usize] = if smoke { &[3] } else { &[1, 3] };
    for &drop_p in drops {
        for &quorum in quorums {
            let (history, report) = run_scenario(FaultPlan::new(77).with_drop(drop_p), rounds, quorum);
            rows.push(Row {
                scenario: "loss".into(),
                drop_p,
                quorum,
                rounds,
                history,
                report,
            });
        }
    }

    // Crash–rejoin: one platform down for a quarter of the run.
    let (crash, recover) = (rounds as u64 / 4, rounds as u64 / 2);
    let (history, report) = run_scenario(crash_plan(0.0, crash, recover), rounds, 1);
    rows.push(Row {
        scenario: format!("crash_rejoin_{crash}_{recover}"),
        drop_p: 0.0,
        quorum: 1,
        rounds,
        history,
        report,
    });

    // Kitchen sink: loss + crash + straggler, the acceptance scenario.
    let plan = crash_plan(0.10, crash, recover).straggler(NodeId::Platform(2), 0.5);
    let (history, report) = run_scenario(plan, rounds, 2);
    rows.push(Row {
        scenario: "loss_crash_straggler".into(),
        drop_p: 0.10,
        quorum: 2,
        rounds,
        history,
        report,
    });

    let report = to_report(&rows, clean_acc, clean_bytes);
    let path = report.write("resilience.csv").expect("write resilience.csv");
    println!("wrote {}", path.display());

    let mut table = TextTable::new(
        "resilience",
        &[
            "scenario", "drop", "quorum", "acc", "d_acc", "MB", "retries", "degraded",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.scenario.clone(),
            format!("{:.2}", r.drop_p),
            r.quorum.to_string(),
            format!("{:.3}", r.history.final_accuracy),
            format!("{:+.3}", r.history.final_accuracy - clean_acc),
            format!("{:.2}", r.history.stats.total_bytes as f64 / 1e6),
            r.report.retries.to_string(),
            r.history.degraded_rounds().to_string(),
        ]);
    }
    println!("{table}");

    if smoke {
        smoke_asserts(rounds);
    }
    ResilienceBenchOutcome {
        rows: rows.len(),
        clean_accuracy: clean_acc,
        clean_bytes,
    }
}
