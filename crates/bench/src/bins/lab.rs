//! `lab` — manifest-driven experiment orchestration.
//!
//! ```text
//! lab run   <manifest>  [--lab-dir DIR]              execute and materialize a run directory
//! lab list  [--dir experiments]                      list manifests, their matrix sizes and run ids
//! lab diff  <manifest>  [--baseline F] [--lab-dir D] compare the materialized run against its baseline
//! lab gate  <manifest>  [--baseline F] [--lab-dir D] fresh run + invariants + baseline; exit 1 on regression
//! lab bless <manifest>  [--lab-dir DIR]              fresh run, then write its metrics as the baseline
//! lab ci    [--smoke] [--dir experiments] [--lab-dir D]
//!           run every `ci = true` manifest twice (bit-identity check),
//!           apply its gates; exit 1 on any failure
//! ```
//!
//! Run directories land under `--lab-dir` (default `lab_runs/`), named
//! `<name>-<run_id>` where the run id is content-addressed from the
//! resolved manifest — identical manifests always rematerialize the same
//! directory, and CI asserts the `metrics.json` digest is bit-identical
//! across invocations.
//!
//! Exit codes: 0 success, 1 gate regression / invariant violation /
//! determinism failure, 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::labrun::MedsplitRunner;
use crate::report::{arg_present, arg_value};
use medsplit_lab::{
    check_invariants, compare, load_baseline, load_run_metrics, run_dir, run_id, save_baseline, DiffReport,
    Manifest,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: lab <run|list|diff|gate|bless|ci> [args]\n\
         \n\
         lab run   <manifest.lab.toml> [--lab-dir DIR]\n\
         lab list  [--dir experiments]\n\
         lab diff  <manifest.lab.toml> [--baseline FILE] [--lab-dir DIR]\n\
         lab gate  <manifest.lab.toml> [--baseline FILE] [--lab-dir DIR]\n\
         lab bless <manifest.lab.toml> [--lab-dir DIR]\n\
         lab ci    [--smoke] [--dir experiments] [--lab-dir DIR]"
    );
    ExitCode::from(2)
}

fn lab_dir(args: &[String]) -> PathBuf {
    arg_value(args, "--lab-dir").map_or_else(|| PathBuf::from("lab_runs"), PathBuf::from)
}

fn manifest_arg(args: &[String]) -> Result<Manifest, String> {
    let path = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .ok_or("expected a manifest path")?;
    Manifest::load(Path::new(path)).map_err(|e| e.to_string())
}

/// Executes a manifest and materializes its run directory.
fn execute(manifest: &Manifest, dir: &Path) -> Result<medsplit_lab::RunOutcome, String> {
    // Stamp every BENCH_*.json the points emit with this run's id.
    std::env::set_var("MEDSPLIT_LAB_RUN_ID", run_id(manifest));
    let mut runner = MedsplitRunner;
    medsplit_lab::execute(manifest, &mut runner, dir)
}

fn print_outcome(out: &medsplit_lab::RunOutcome) {
    println!(
        "run {} — {} point(s) → {}",
        out.run_id,
        out.points.len(),
        out.dir.display()
    );
    let width = out.metrics.keys().map(String::len).max().unwrap_or(0);
    for (key, value) in &out.metrics {
        println!("  {key:<width$}  {}", value.render());
    }
    println!("metrics digest: {}", out.metrics_digest);
}

/// Resolves the baseline path: `--baseline` override, else the
/// manifest's `[gate] baseline`.
fn baseline_path(manifest: &Manifest, args: &[String]) -> Option<PathBuf> {
    arg_value(args, "--baseline")
        .or_else(|| manifest.gate.baseline.clone())
        .map(PathBuf::from)
}

/// Applies every declared gate to a completed run: the cross-point
/// invariants, then the baseline diff. Returns the report (for
/// rendering) and whether the run regressed.
fn apply_gates(
    manifest: &Manifest,
    out: &medsplit_lab::RunOutcome,
    baseline: Option<&Path>,
) -> Result<(DiffReport, bool), String> {
    let mut report = match baseline {
        Some(path) => {
            let base = load_baseline(path)?;
            compare(&base, &out.metrics, &manifest.gate)
        }
        None => compare(&out.metrics, &out.metrics, &manifest.gate),
    };
    report.invariant_violations = check_invariants(&out.points, &out.metrics, &manifest.gate);
    let regressed = report.regressed();
    Ok((report, regressed))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let manifest = manifest_arg(args)?;
    let out = execute(&manifest, &lab_dir(args))?;
    print_outcome(&out);
    Ok(true)
}

fn cmd_list(args: &[String]) -> Result<bool, String> {
    let dir = arg_value(args, "--dir").unwrap_or_else(|| "experiments".into());
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().ends_with(".lab.toml"))
        })
        .collect();
    entries.sort();
    if entries.is_empty() {
        println!("no *.lab.toml manifests under {dir}/");
        return Ok(true);
    }
    for path in entries {
        match Manifest::load(&path) {
            Ok(m) => {
                let points = medsplit_lab::expand(&m.axes).len();
                println!(
                    "{:<32} {:>3} point(s)  ci={:<5} id={}  {}",
                    path.display(),
                    points,
                    m.ci,
                    run_id(&m),
                    m.description
                );
            }
            Err(e) => println!("{:<32} INVALID: {e}", path.display()),
        }
    }
    Ok(true)
}

fn cmd_diff(args: &[String]) -> Result<bool, String> {
    let manifest = manifest_arg(args)?;
    let dir = run_dir(&lab_dir(args), &manifest);
    let (metrics, _) =
        load_run_metrics(&dir).map_err(|e| format!("{e} — has `lab run` materialized this manifest?"))?;
    let Some(base_path) = baseline_path(&manifest, args) else {
        return Err("no baseline: manifest declares no [gate] baseline and no --baseline given".into());
    };
    let base = load_baseline(&base_path)?;
    let mut report = compare(&base, &metrics, &manifest.gate);
    let points = medsplit_lab::expand(&manifest.axes);
    report.invariant_violations = check_invariants(&points, &metrics, &manifest.gate);
    print!("{}", report.render(arg_present(args, "--verbose")));
    Ok(!report.regressed())
}

fn cmd_gate(args: &[String]) -> Result<bool, String> {
    let manifest = manifest_arg(args)?;
    let out = execute(&manifest, &lab_dir(args))?;
    let base = baseline_path(&manifest, args);
    if let Some(path) = &base {
        if !path.exists() {
            return Err(format!(
                "baseline {} does not exist — run `lab bless` to create it",
                path.display()
            ));
        }
    }
    let (report, regressed) = apply_gates(&manifest, &out, base.as_deref())?;
    print!("{}", report.render(arg_present(args, "--verbose")));
    if regressed {
        eprintln!("GATE FAILED: {}", manifest.name);
    } else {
        println!("gate OK: {} ({} metric(s))", manifest.name, out.metrics.len());
    }
    Ok(!regressed)
}

fn cmd_bless(args: &[String]) -> Result<bool, String> {
    let manifest = manifest_arg(args)?;
    let Some(base_path) = baseline_path(&manifest, args) else {
        return Err("manifest declares no [gate] baseline to bless".into());
    };
    let out = execute(&manifest, &lab_dir(args))?;
    // Invariants must hold before a baseline is blessed — a baseline
    // that froze an invariant violation would gate the wrong way forever.
    let violations = check_invariants(&out.points, &out.metrics, &manifest.gate);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("INVARIANT BROKEN: {v}");
        }
        return Ok(false);
    }
    save_baseline(&base_path, &manifest.name, &out.metrics)?;
    println!(
        "blessed {} metric(s) from run {} into {}",
        out.metrics.len(),
        out.run_id,
        base_path.display()
    );
    Ok(true)
}

fn cmd_ci(args: &[String]) -> Result<bool, String> {
    // `--smoke` is accepted for symmetry with the bench bins; the CI
    // suite is smoke-scale by construction (every `ci = true` manifest
    // commits to smoke-sized matrices).
    let dir = arg_value(args, "--dir").unwrap_or_else(|| "experiments".into());
    let lab = lab_dir(args);
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().ends_with(".lab.toml"))
        })
        .collect();
    entries.sort();

    let mut ran = 0usize;
    let mut ok = true;
    for path in entries {
        let manifest = Manifest::load(&path).map_err(|e| e.to_string())?;
        if !manifest.ci {
            continue;
        }
        ran += 1;
        println!("=== lab ci: {} ({}) ===", manifest.name, path.display());

        // Determinism gate: two executions of the same manifest must
        // materialize byte-identical metrics.
        let first = execute(&manifest, &lab)?;
        let second = execute(&manifest, &lab)?;
        if first.run_id != second.run_id || first.metrics_digest != second.metrics_digest {
            eprintln!(
                "DETERMINISM FAILED: {} — digests {} vs {}",
                manifest.name, first.metrics_digest, second.metrics_digest
            );
            ok = false;
            continue;
        }
        println!(
            "determinism OK: run {} digest {} reproduced",
            first.run_id, first.metrics_digest
        );

        let base = baseline_path(&manifest, args);
        if let Some(path) = &base {
            if !path.exists() {
                return Err(format!(
                    "{}: baseline {} missing — run `lab bless` and commit it",
                    manifest.name,
                    path.display()
                ));
            }
        }
        let (report, regressed) = apply_gates(&manifest, &second, base.as_deref())?;
        print!("{}", report.render(false));
        if regressed {
            eprintln!("GATE FAILED: {}", manifest.name);
            ok = false;
        } else {
            println!("gate OK: {}", manifest.name);
        }
    }
    if ran == 0 {
        return Err(format!("no `ci = true` manifests under {dir}/"));
    }
    println!(
        "lab ci: {ran} manifest(s) {}",
        if ok { "passed" } else { "FAILED" }
    );
    Ok(ok)
}

/// Runs one `lab` command (`args` starts with the command name) and
/// maps its result onto the exit codes above.
pub fn run(args: &[String]) -> ExitCode {
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(args),
        "list" => cmd_list(args),
        "diff" => cmd_diff(args),
        "gate" => cmd_gate(args),
        "bless" => cmd_bless(args),
        "ci" => cmd_ci(args),
        _ => return usage(),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lab: {e}");
            ExitCode::from(2)
        }
    }
}
