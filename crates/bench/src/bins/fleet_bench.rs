//! Fleet goodput hockey-stick: sweeps offered load against replica count
//! and reports p50/p99 end-to-end latency and goodput per point — the
//! capacity curve bends later as replicas are added, while logits stay
//! bit-identical across fleet sizes (asserted whenever a point completes
//! its full offered load).
//!
//! Usage:
//!   fleet_bench [--quick | --smoke]
//!
//! Outputs:
//!   - `fleet_goodput.csv` under the results dir (`MEDSPLIT_RESULTS_DIR`,
//!     default `bench_results/`),
//!   - `BENCH_fleet.json` (results dir with `--quick` / `--smoke`, else
//!     the current directory), wrapped in the shared schema-v2 envelope (host
//!     fingerprint, lab run id) and recording the dispatched kernel ISA.

use std::fmt::Write as _;

use crate::report::{arg_present, bench_json, bench_json_path, write_result, TextTable};
use medsplit_fleet::{run_fleet, FleetConfig, FleetOutcome};
use medsplit_simnet::FaultPlan;
use medsplit_tensor::{pool, simd};

const SEED: u64 = 42;
const TENANTS: usize = 3;

/// What a `fleet_bench` invocation measured, for the lab runner.
#[derive(Debug, Clone, Copy)]
pub struct FleetBenchOutcome {
    /// Sweep points measured.
    pub rows: usize,
    /// Logits digest of the first point that completed its full offered
    /// stream — bit-identical across replica counts by construction.
    pub low_load_digest: Option<u64>,
}

struct Row {
    threads: usize,
    replicas: usize,
    offered_rps: f64,
    completed: usize,
    throttled: usize,
    rejected: usize,
    timed_out: usize,
    p50_ms: Option<f64>,
    p99_ms: Option<f64>,
    goodput_rps: f64,
    digest: u64,
}

fn run_point(replicas: usize, offered_rps: f64, per_tenant: usize) -> FleetOutcome {
    let cfg = FleetConfig {
        replicas,
        tenants: TENANTS,
        sessions_per_tenant: 4,
        tenant_quota: 64,
        weight_versions: 2,
        serve: medsplit_serve::ServeConfig {
            offered_rps,
            ..medsplit_serve::ServeConfig::default()
        },
        ..FleetConfig::default()
    };
    run_fleet(&cfg, per_tenant, SEED, FaultPlan::new(SEED), &[]).expect("fleet run")
}

fn to_json(rows: &[Row], isa: &str) -> String {
    let mut results = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let ms = |v: Option<f64>| v.map_or("null".to_string(), |s| format!("{:.4}", s * 1e3));
        let _ = writeln!(
            results,
            "    {{\"threads\": {}, \"replicas\": {}, \"offered_rps\": {:.0}, \
             \"completed\": {}, \"throttled\": {}, \"rejected\": {}, \"timed_out\": {}, \
             \"p50_ms\": {}, \"p99_ms\": {}, \"goodput_rps\": {:.2}, \"digest\": \"{:#018x}\"}}{}",
            r.threads,
            r.replicas,
            r.offered_rps,
            r.completed,
            r.throttled,
            r.rejected,
            r.timed_out,
            ms(r.p50_ms),
            ms(r.p99_ms),
            r.goodput_rps,
            r.digest,
            comma
        );
    }
    results.push_str("  ]");
    bench_json(
        "fleet_bench",
        &[
            ("isa", format!("\"{isa}\"")),
            ("tenants", TENANTS.to_string()),
            ("results", results),
        ],
    )
}

/// Runs the fleet goodput sweep and returns its digest invariants.
pub fn run(args: &[String]) -> FleetBenchOutcome {
    let smoke = arg_present(args, "--smoke");
    let quick = smoke || arg_present(args, "--quick");
    let per_tenant = if quick { 60 } else { 240 };
    let replica_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let loads: &[f64] = if quick {
        &[100.0, 400.0]
    } else {
        &[50.0, 100.0, 200.0, 400.0, 800.0]
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut thread_counts = if quick { vec![1] } else { vec![1, host_threads] };
    thread_counts.dedup();
    let isa = simd::active_isa().name();

    let mut table = TextTable::new(
        format!("Fleet goodput vs replicas ({TENANTS} tenants, isa {isa})"),
        &[
            "isa",
            "threads",
            "replicas",
            "offered_rps",
            "completed",
            "throttled",
            "rejected",
            "timed_out",
            "p50_ms",
            "p99_ms",
            "goodput_rps",
            "digest",
        ],
    );
    let mut rows = Vec::new();
    let mut first_full_digest: Option<u64> = None;
    for &threads in &thread_counts {
        pool::set_num_threads(threads);
        for &load in loads {
            // Digest invariance across replica counts, checked per load
            // among points that completed their whole offered stream
            // (overloaded points complete different subsets, so their
            // digests legitimately differ).
            let mut full_digest: Option<(usize, u64)> = None;
            for &replicas in replica_counts {
                eprintln!(
                    "[fleet_bench] threads {threads}, {replicas} replica(s), \
                     offered {load} req/s per tenant..."
                );
                let out = run_point(replicas, load, per_tenant);
                let r = &out.report;
                if r.completed == r.offered {
                    match full_digest {
                        None => full_digest = Some((replicas, out.logits_digest)),
                        Some((first, digest)) => assert_eq!(
                            digest, out.logits_digest,
                            "logits diverged between {first} and {replicas} replicas at \
                             {load} req/s"
                        ),
                    }
                    first_full_digest.get_or_insert(out.logits_digest);
                }
                let lat = r.latency.as_ref();
                let ms = |s: Option<f64>| s.map_or_else(|| "-".into(), |v| format!("{:.2}", v * 1e3));
                table.row(vec![
                    isa.to_string(),
                    threads.to_string(),
                    replicas.to_string(),
                    format!("{load:.0}"),
                    r.completed.to_string(),
                    r.throttled.to_string(),
                    r.rejected.to_string(),
                    r.timed_out.to_string(),
                    ms(lat.map(|l| l.p50_s)),
                    ms(lat.map(|l| l.p99_s)),
                    format!("{:.1}", r.goodput_rps()),
                    format!("{:#018x}", out.logits_digest),
                ]);
                rows.push(Row {
                    threads,
                    replicas,
                    offered_rps: load,
                    completed: r.completed,
                    throttled: r.throttled,
                    rejected: r.rejected,
                    timed_out: r.timed_out,
                    p50_ms: lat.map(|l| l.p50_s),
                    p99_ms: lat.map(|l| l.p99_s),
                    goodput_rps: r.goodput_rps(),
                    digest: out.logits_digest,
                });
            }
            if smoke && load <= 100.0 {
                assert!(
                    full_digest.is_some(),
                    "smoke: the low-load point must complete its full offered stream"
                );
            }
        }
    }
    pool::set_num_threads(1);

    println!("{table}");
    let csv_path = write_result("fleet_goodput.csv", &table.to_csv()).expect("write results");
    let json = to_json(&rows, isa);
    let json_path = bench_json_path("BENCH_fleet.json", quick);
    std::fs::write(&json_path, &json).expect("write BENCH_fleet.json");
    eprintln!(
        "[fleet_bench] wrote {} and {}",
        csv_path.display(),
        json_path.display()
    );
    FleetBenchOutcome {
        rows: rows.len(),
        low_load_digest: first_full_digest,
    }
}
