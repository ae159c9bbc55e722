//! End-to-end checks of the `medsplit-bench` dispatcher binary: usage
//! errors, the trace sink, and where reduced-scale runs write.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one test.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("medsplit-bench-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test working directory");
    dir
}

/// Runs the binary in `dir` with no results-dir or trace settings
/// inherited from the caller's environment.
fn bench(dir: &Path, args: &[&str], env: &[(&str, &Path)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_medsplit-bench"));
    cmd.args(args)
        .current_dir(dir)
        .env_remove("MEDSPLIT_RESULTS_DIR")
        .env_remove("MEDSPLIT_TRACE")
        .env_remove("MEDSPLIT_TRACE_FILE");
    for (key, value) in env {
        cmd.env(key, value);
    }
    cmd.output().expect("spawn medsplit-bench")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn bad_subcommands_and_flags_exit_2_with_usage() {
    let dir = workdir("usage");
    let out = bench(&dir, &["fig9"], &[]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("fig4") && stderr(&out).contains("resilience_bench"));

    let out = bench(&dir, &["fig5", "--quik"], &[]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("fig5 [--quick]"), "{}", stderr(&out));

    // Nothing ran, so nothing was written.
    assert_eq!(std::fs::read_dir(&dir).expect("list workdir").count(), 0);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn traced_run_leaves_a_trace_with_round_spans() {
    let dir = workdir("trace");
    let trace = dir.join("run.jsonl");
    let out = bench(
        &dir,
        &["resilience_bench", "--smoke"],
        &[
            ("MEDSPLIT_TRACE", Path::new("1")),
            ("MEDSPLIT_TRACE_FILE", &trace),
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&trace).expect("the traced run wrote its trace file");
    let trace = medsplit_telemetry::from_jsonl(&text);
    assert!(
        trace.spans.iter().any(|s| s.name == "round"),
        "no `round` span among {} spans",
        trace.spans.len()
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn reduced_scale_runs_write_only_under_bench_results_quick() {
    let dir = workdir("quick");
    for args in [&["fleet_bench", "--quick"][..], &["codec_bench", "--smoke"][..]] {
        let out = bench(&dir, args, &[]);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
    }
    let top: Vec<String> = std::fs::read_dir(&dir)
        .expect("list workdir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(top, ["bench_results"], "reduced-scale runs wrote {top:?}");
    let results: Vec<String> = std::fs::read_dir(dir.join("bench_results"))
        .expect("list bench_results")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(results, ["quick"], "reduced-scale runs wrote {results:?}");
    for file in [
        "BENCH_fleet.json",
        "fleet_goodput.csv",
        "BENCH_codec.json",
        "codec_frontier.csv",
    ] {
        assert!(
            dir.join("bench_results/quick").join(file).exists(),
            "{file} missing"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}
