//! `medsplit-bench <experiment> [flags]`: one binary for every table,
//! figure and bench of the evaluation (see [`medsplit_bench::bins`] for
//! the subcommand table).
//!
//! Exit codes: 0 success, 1 a `lab` gate failed, 2 a usage error (an
//! unknown experiment or flag) or an I/O error.

use std::process::ExitCode;

use medsplit_bench::bins;
use medsplit_bench::report::arg_present;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (exp, rest) = match bins::parse(&args) {
        Ok(parsed) => parsed,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    // Reduced-scale runs must not clobber the committed full-scale
    // results; `all` is reduced-scale unless `--full`.
    let reduced = arg_present(rest, "--quick")
        || arg_present(rest, "--smoke")
        || (exp.name == "all" && !arg_present(rest, "--full"));
    if reduced && std::env::var_os("MEDSPLIT_RESULTS_DIR").is_none() {
        std::env::set_var("MEDSPLIT_RESULTS_DIR", "bench_results/quick");
    }

    let code = (exp.run)(rest);
    match medsplit_telemetry::write_configured() {
        Ok(Some(path)) => eprintln!("[medsplit-bench] wrote trace {}", path.display()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("medsplit-bench: cannot write the trace: {e}");
            return ExitCode::from(2);
        }
    }
    code
}
