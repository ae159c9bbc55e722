//! Every experiment of the `medsplit-bench` binary, and the one table
//! it dispatches from.
//!
//! Each module exposes a `run(args)` over the raw argument list *after*
//! the subcommand name, so the `lab` orchestrator can execute any bench
//! in-process — same telemetry registry, same thread pool, same ISA
//! dispatch — and capture its outcome struct instead of scraping stdout.
//! [`parse`] checks the arguments against the entry's [`Experiment`]
//! before any of them runs.

use std::process::ExitCode;

pub mod all;
pub mod codec_bench;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fleet_bench;
pub mod hier_bench;
pub mod kernel_bench;
pub mod lab;
pub mod resilience_bench;
pub mod serve_bench;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod trace_report;

/// One subcommand of `medsplit-bench`.
#[derive(Debug)]
pub struct Experiment {
    /// Subcommand name.
    pub name: &'static str,
    /// Runs the experiment on the arguments after the subcommand name.
    pub run: fn(&[String]) -> ExitCode,
    /// Accepted flags, as in the module's `Usage:` block. A flag that
    /// takes a value is followed by its placeholder (`"--rounds N"`).
    pub flags: &'static [&'static str],
    /// What positional arguments stand for, when any are accepted.
    pub positional: Option<&'static str>,
    /// One-line description.
    pub doc: &'static str,
}

impl Experiment {
    /// `name [flag]... positional`, for usage messages.
    pub fn usage(&self) -> String {
        let mut line = self.name.to_string();
        for flag in self.flags {
            line.push_str(&format!(" [{flag}]"));
        }
        if let Some(positional) = self.positional {
            line.push(' ');
            line.push_str(positional);
        }
        line
    }

    /// Whether `flag` is accepted, and if so whether it takes a value.
    fn flag(&self, flag: &str) -> Option<bool> {
        self.flags.iter().find_map(|spec| match spec.split_once(' ') {
            Some((name, _)) => (name == flag).then_some(true),
            None => (*spec == flag).then_some(false),
        })
    }
}

/// An experiment module's `run` as a table entry: the experiment reports
/// its outcome on stdout and in its result files, and panics when it
/// fails, so reaching the end is success.
macro_rules! reported {
    ($module:ident) => {
        |args| {
            $module::run(args);
            ExitCode::SUCCESS
        }
    };
}

/// Every subcommand, in `usage` order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig4",
        run: reported!(fig4),
        flags: &["--model vgg|resnet", "--dataset c10|c100", "--quick"],
        positional: None,
        doc: "Fig. 4: accuracy vs transmitted bytes, split vs sync-SGD (+FedAvg)",
    },
    Experiment {
        name: "fig5",
        run: reported!(fig5),
        flags: &["--quick"],
        positional: None,
        doc: "Fig. 5: split-point sweep, communication vs privacy leakage",
    },
    Experiment {
        name: "fig6",
        run: reported!(fig6),
        flags: &["--quick"],
        positional: None,
        doc: "Fig. 6: scalability with the number of platforms",
    },
    Experiment {
        name: "fig7",
        run: reported!(fig7),
        flags: &["--quick"],
        positional: None,
        doc: "Fig. 7: activation-noise defence, accuracy vs leakage",
    },
    Experiment {
        name: "fig8",
        run: reported!(fig8),
        flags: &["--model vgg|resnet", "--batch S"],
        positional: None,
        doc: "Fig. 8: analytic round time vs WAN bandwidth, full-size models",
    },
    Experiment {
        name: "table1",
        run: reported!(table1),
        flags: &["--platforms N", "--batch S"],
        positional: None,
        doc: "Table 1: analytic per-round bytes of full-size VGG-16 / ResNet-18",
    },
    Experiment {
        name: "table2",
        run: reported!(table2),
        flags: &["--alpha A", "--quick"],
        positional: None,
        doc: "Table 2: equal vs proportional minibatches under imbalanced shards",
    },
    Experiment {
        name: "table3",
        run: reported!(table3),
        flags: &["--alpha A", "--quick"],
        positional: None,
        doc: "Table 3: baseline landscape under non-IID shards",
    },
    Experiment {
        name: "table4",
        run: reported!(table4),
        flags: &["--quick"],
        positional: None,
        doc: "Table 4: wire-codec ablation, f32 vs f16 payloads",
    },
    Experiment {
        name: "serve_bench",
        run: reported!(serve_bench),
        flags: &["--quick"],
        positional: None,
        doc: "serving latency vs offered load, f32 vs f16",
    },
    Experiment {
        name: "kernel_bench",
        run: reported!(kernel_bench),
        flags: &["--smoke", "--threads 1,2,4", "--reps N"],
        positional: None,
        doc: "GEMM / conv / planned-serving kernels across thread counts",
    },
    Experiment {
        name: "codec_bench",
        run: reported!(codec_bench),
        flags: &["--smoke", "--rounds N"],
        positional: None,
        doc: "codec frontier: bytes transmitted vs accuracy for f32 / f16 / int8",
    },
    Experiment {
        name: "hier_bench",
        run: reported!(hier_bench),
        flags: &["--smoke", "--rounds N"],
        positional: None,
        doc: "star vs relay hierarchy under relay crashes and partitions",
    },
    Experiment {
        name: "resilience_bench",
        run: reported!(resilience_bench),
        flags: &["--smoke", "--rounds N"],
        positional: None,
        doc: "accuracy and bytes under message loss, crashes and stragglers",
    },
    Experiment {
        name: "fleet_bench",
        run: reported!(fleet_bench),
        flags: &["--quick", "--smoke"],
        positional: None,
        doc: "fleet goodput vs offered load and replica count",
    },
    Experiment {
        name: "trace_report",
        run: reported!(trace_report),
        flags: &["--smoke"],
        positional: Some("[<trace.jsonl>]"),
        doc: "per-round phase and kernel breakdown of a JSONL trace",
    },
    Experiment {
        name: "all",
        run: all::run,
        flags: &["--quick", "--full"],
        positional: None,
        doc: "every paper experiment in sequence (quick unless --full)",
    },
    Experiment {
        name: "lab",
        run: lab::run,
        flags: &[
            "--lab-dir DIR",
            "--dir DIR",
            "--baseline FILE",
            "--smoke",
            "--verbose",
        ],
        positional: Some("<run|list|diff|gate|bless|ci> [<manifest.lab.toml>]"),
        doc: "manifest-driven experiment runs, baselines and CI gates",
    },
];

/// The table entry named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

fn usage_all() -> String {
    let width = EXPERIMENTS.iter().map(|e| e.name.len()).max().unwrap_or(0);
    let mut text = String::from("usage: medsplit-bench <experiment> [flags]\n\nexperiments:\n");
    for e in EXPERIMENTS {
        text.push_str(&format!("  {:<width$}  {}\n", e.name, e.doc));
    }
    text
}

/// Splits a command line (without the program name) into its table
/// entry and that entry's arguments.
///
/// # Errors
///
/// A usage message naming the valid choices when the subcommand is
/// missing or unknown, a flag is not in the entry's list, a value flag
/// has no value, or a positional argument reaches an entry that takes
/// none.
pub fn parse(args: &[String]) -> Result<(&'static Experiment, &[String]), String> {
    let Some((name, rest)) = args.split_first() else {
        return Err(usage_all());
    };
    let exp = find(name)
        .ok_or_else(|| format!("medsplit-bench: unknown experiment `{name}`\n\n{}", usage_all()))?;
    let reject = |what: String| Err(format!("{what}\nusage: medsplit-bench {}", exp.usage()));
    let mut i = 0;
    while i < rest.len() {
        let arg = &rest[i];
        if arg.starts_with("--") {
            match exp.flag(arg) {
                None => return reject(format!("medsplit-bench {}: unknown flag `{arg}`", exp.name)),
                Some(true) if i + 1 == rest.len() => {
                    return reject(format!("medsplit-bench {}: flag `{arg}` takes a value", exp.name))
                }
                Some(true) => i += 1,
                Some(false) => {}
            }
        } else if exp.positional.is_none() {
            return reject(format!(
                "medsplit-bench {}: unexpected argument `{arg}`",
                exp.name
            ));
        }
        i += 1;
    }
    Ok((exp, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn table_holds_every_former_binary_once() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        let mut expected = vec![
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "table1",
            "table2",
            "table3",
            "table4",
            "serve_bench",
            "kernel_bench",
            "codec_bench",
            "hier_bench",
            "resilience_bench",
            "fleet_bench",
            "trace_report",
            "all",
            "lab",
        ];
        expected.sort_unstable();
        assert_eq!(names, expected);
        for e in EXPERIMENTS {
            assert!(!e.doc.trim().is_empty(), "{} has no doc line", e.name);
        }
    }

    #[test]
    fn all_runs_the_paper_experiments_in_order() {
        assert_eq!(
            all::PAPER,
            ["table1", "fig4", "table2", "fig5", "fig6", "table3", "table4", "fig7", "fig8"]
        );
        for name in all::PAPER {
            assert!(find(name).is_some(), "{name} is not in the table");
        }
    }

    #[test]
    fn accepts_flags_values_and_positionals_it_declares() {
        let ok = |line: &str| parse(&args(line)).map(|(e, rest)| (e.name, rest.len()));
        assert_eq!(ok("fig4 --model vgg --quick"), Ok(("fig4", 3)));
        assert_eq!(ok("kernel_bench --threads 1,2 --smoke"), Ok(("kernel_bench", 3)));
        // A value is never taken for a flag, even when it looks like one.
        assert_eq!(ok("table2 --alpha --quick"), Ok(("table2", 2)));
        assert_eq!(ok("trace_report run.jsonl"), Ok(("trace_report", 1)));
        assert_eq!(
            ok("lab gate experiments/smoke.lab.toml --baseline b.json"),
            Ok(("lab", 4))
        );
    }

    #[test]
    fn rejects_unknown_subcommands_and_flags_naming_the_valid_ones() {
        let err = |line: &str| parse(&args(line)).unwrap_err();
        let unknown = err("fig9 --quick");
        assert!(unknown.contains("unknown experiment `fig9`"), "{unknown}");
        for e in EXPERIMENTS {
            assert!(unknown.contains(e.name), "usage misses {}: {unknown}", e.name);
        }
        assert!(err("").contains("usage: medsplit-bench <experiment>"));

        let typo = err("fig5 --quik");
        assert!(typo.contains("unknown flag `--quik`"), "{typo}");
        assert!(typo.contains("fig5 [--quick]"), "{typo}");
        // A flag another experiment accepts is still foreign here.
        assert!(err("fig5 --smoke").contains("unknown flag `--smoke`"));
        assert!(err("codec_bench --rounds").contains("takes a value"));
        assert!(err("fig4 vgg").contains("unexpected argument `vgg`"));
    }
}
