//! # medsplit-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! evaluation (see DESIGN.md §3 for the experiment index):
//!
//! | command | regenerates |
//! |---------|-------------|
//! | `cargo run -p medsplit-bench --release -- fig4` | Fig. 4 panels (accuracy vs transmitted bytes) |
//! | `cargo run -p medsplit-bench --release -- table1` | analytic full-size per-round costs |
//! | `cargo run -p medsplit-bench --release -- table2` | imbalance-mitigation ablation |
//! | `cargo run -p medsplit-bench --release -- fig5` | split-point sweep (bytes vs leakage) |
//! | `cargo run -p medsplit-bench --release -- fig6` | scalability with platform count |
//! | `cargo run -p medsplit-bench --release -- table3` | baseline landscape under non-IID |
//!
//! The one `medsplit-bench` binary dispatches every experiment from the
//! table in [`bins`]; run it without arguments for the list. An unknown
//! experiment or flag exits with code 2 and a usage message. Training
//! experiments accept `--quick` (or `--smoke`) for a reduced scale, whose
//! outputs go to `bench_results/quick/`; full-scale CSVs land under
//! `bench_results/` (either overridden by `MEDSPLIT_RESULTS_DIR`). With
//! `MEDSPLIT_TRACE=1` every experiment leaves a JSONL trace
//! (`MEDSPLIT_TRACE_FILE`, default `trace.jsonl`).
//!
//! The `lab` subcommand (see `crates/lab`) runs experiments in-process
//! and captures structured outcomes; [`labrun`] is the bridge that maps
//! lab manifest points onto these experiment entry points.

#![warn(missing_docs)]

pub mod bins;
pub mod experiments;
pub mod labrun;
pub mod report;
pub mod workload;

#[cfg(test)]
pub(crate) mod testsync {
    use std::sync::Mutex;

    /// Serializes tests that mutate process environment variables
    /// (`MEDSPLIT_RESULTS_DIR`) so they cannot race each other.
    pub static ENV: Mutex<()> = Mutex::new(());
}
