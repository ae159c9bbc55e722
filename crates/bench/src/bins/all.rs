//! Every paper experiment in sequence — the one-command reproduction.
//!
//! Usage:
//!   all [--quick] [--full]
//!
//! Defaults to `--quick` (a few minutes), which each experiment that
//! has a quick scale receives; `--full` reproduces the numbers in
//! EXPERIMENTS.md (tens of minutes on one core). Each experiment writes
//! the same files as when run on its own.

use std::process::ExitCode;

use crate::report::arg_present;

/// The paper's tables and figures, in the order `all` runs them.
pub const PAPER: [&str; 9] = [
    "table1", "fig4", "table2", "fig5", "fig6", "table3", "table4", "fig7", "fig8",
];

/// Runs every paper experiment at quick or full scale.
pub fn run(args: &[String]) -> ExitCode {
    let full = arg_present(args, "--full");
    let quick = vec!["--quick".to_string()];
    eprintln!(
        "[all] running every experiment at {} scale\n",
        if full { "full" } else { "quick" }
    );
    for name in PAPER {
        let exp = super::find(name).expect("every paper experiment is in the table");
        let args: &[String] = if !full && exp.flags.contains(&"--quick") {
            &quick
        } else {
            &[]
        };
        // Paper experiments panic on failure; their exit code is always 0.
        (exp.run)(args);
    }
    eprintln!("[all] done — CSVs in {}", crate::report::results_dir().display());
    ExitCode::SUCCESS
}
