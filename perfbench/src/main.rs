//! medsplit benchmark: one command, two workloads, end-to-end metrics
//! with tracing off or per-layer metrics from a traced run.
//!
//! ```text
//! medsplit-perfbench --workload <fig4_vgg_c100|hier_widecut_int8>
//!                    --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `METRICS.md` defines
//! every metric.

mod ledger;
mod report;
mod serve;
mod session;
mod trace;
mod workload;

use std::time::Instant;

use medsplit_tensor::{pool, simd};

use crate::report::{mean, median, peak_rss_mb, percentile, result_line, Metrics, Res};
use crate::serve::SERVE_STAGES;
use crate::session::Session;
use crate::trace::{Label, RoundTrace};
use crate::workload::{mlp_widecut, vgg_lite, Spec, Workload};

/// Rounds at the end of training whose mean loss is `final_loss`.
const FINAL_LOSS_ROUNDS: usize = 20;

/// Kernel pool threads. On a 2-vCPU virtual machine the pool at 2
/// threads made Fig-4 rounds about 40 % slower than at 1 and spread round
/// and request tails by 30-60 % between identical runs. The benchmark
/// therefore runs the pool at one thread and records its effect at
/// `nproc` threads per layer, as `tensor.pool.nproc_speedup`.
const POOL_THREADS: usize = 1;

/// Sessions per run, at least: the repeat is the replay check.
const MIN_SESSIONS: usize = 2;

/// Set-ups timed on their own before the first session and before each
/// session, besides each session's own. Spreading them over the run keeps
/// one slow stretch of the host from setting the median.
const SETUPS_AT_START: usize = 3;
const SETUPS_PER_SESSION: usize = 2;

/// Element-wise minima over sessions of round times, request latencies
/// and gaps between answers. Sessions of one seed replay bit-identical
/// work, so the fastest replay of each round or request is the one the
/// host disturbed least: on a shared virtual machine, CPU time lost to
/// other tenants comes in bursts of seconds and rarely hits every replay.
/// Each session is folded in as it ends, so memory, and `peak_rss_mb`
/// with it, does not grow with the number of sessions a run fits.
#[derive(Default)]
struct ReplayMin {
    round_ms: Vec<f64>,
    latencies_ms: Vec<f64>,
    gaps_s: Vec<f64>,
}

fn fold_min(acc: &mut Vec<f64>, xs: impl ExactSizeIterator<Item = f64>) {
    if acc.is_empty() {
        acc.extend(xs);
        return;
    }
    acc.truncate(xs.len());
    for (a, x) in acc.iter_mut().zip(xs) {
        *a = a.min(x);
    }
}

impl ReplayMin {
    fn add(&mut self, s: &Session) {
        fold_min(
            &mut self.round_ms,
            s.history.records.iter().map(|r| r.wall_time_s * 1e3),
        );
        fold_min(&mut self.latencies_ms, s.serve.latencies_ms.iter().copied());
        fold_min(&mut self.gaps_s, s.serve.gaps_s.iter().copied());
    }

    /// Round times in ms, split into plain rounds and rounds that
    /// evaluate, as the session `like` ran them.
    fn rounds(&self, like: &Session) -> (Vec<f64>, Vec<f64>) {
        let (mut plain, mut eval) = (Vec::new(), Vec::new());
        for (&ms, r) in self.round_ms.iter().zip(&like.history.records) {
            if r.accuracy.is_some() {
                eval.push(ms);
            } else {
                plain.push(ms);
            }
        }
        (plain, eval)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Res<&str> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; expected one of {}", names.join(", "))
    })?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Operations attempted and failed, across sessions and output checks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Counts a session's rounds and requests; degraded rounds and
    /// failed requests are failures.
    fn session(&mut self, s: &Session) {
        self.attempted += (s.history.records.len() + s.serve.requests) as u64;
        self.failed += (s.history.degraded_rounds() + s.serve.failed) as u64;
        if s.serve.failed > 0 {
            self.notes
                .push(format!("{} served requests failed their check", s.serve.failed));
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Res<()> {
    medsplit_telemetry::set_enabled(false);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    pool::set_num_threads(POOL_THREADS);
    pool::warmup(|| {});
    let spec = args.workload.spec();
    println!(
        "{{\"host\": {{\"nproc\": {threads}, \"isa\": \"{}\", \"pool_threads\": {}}}, \"workload\": \"{}\", \"seed\": {}}}",
        simd::active_isa().name(),
        pool::num_threads(),
        args.workload.name(),
        args.seed
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(&spec, args, &mut tally)?
    } else {
        end_to_end(&spec, args, &mut tally)?
    };
    for note in &tally.notes {
        eprintln!("check failed: {note}");
    }
    println!(
        "{}",
        result_line(tally.failed == 0, tally.attempted, tally.failed, &metrics)
    );
    Ok(())
}

fn end_to_end(spec: &Spec, args: &Args, tally: &mut Tally) -> Res<Metrics> {
    let mut setups = (0..SETUPS_AT_START)
        .map(|_| session::setup_only(spec, args.seed))
        .collect::<Res<Vec<f64>>>()?;
    let start = Instant::now();
    let mut first: Option<Session> = None;
    let mut minima = ReplayMin::default();
    let mut sessions = 0usize;
    while sessions < MIN_SESSIONS || start.elapsed().as_secs_f64() < args.seconds {
        for _ in 0..SETUPS_PER_SESSION {
            setups.push(session::setup_only(spec, args.seed)?);
        }
        let s = session::run(spec, args.seed, false)?;
        let walls: Vec<f64> = s.history.records.iter().map(|r| r.wall_time_s * 1e3).collect();
        eprintln!(
            "session {sessions}: run {:.3} s, round p10/p50/p90 {:.3}/{:.3}/{:.3} ms, serve p50 {:.3} ms",
            s.run_s(),
            percentile(&walls, 10.0),
            median(&walls),
            percentile(&walls, 90.0),
            median(&s.serve.latencies_ms)
        );
        tally.session(&s);
        minima.add(&s);
        setups.push(s.setup_s);
        match &first {
            Some(f) => tally.check(s.fingerprint == f.fingerprint, || {
                format!("session {sessions} differs from session 0 on the same seed")
            }),
            None => first = Some(s),
        }
        sessions += 1;
    }
    let first = first.ok_or("no session ran")?;
    tally.check(first.history.final_accuracy.is_finite(), || {
        "accuracy is not finite".into()
    });

    let (plain, eval) = minima.rounds(&first);
    let (latencies, gaps) = (&minima.latencies_ms, &minima.gaps_s);
    let records = &first.history.records;
    let tail = &records[records.len().saturating_sub(FINAL_LOSS_ROUNDS)..];
    let final_loss = tail.iter().map(|r| f64::from(r.mean_loss)).sum::<f64>() / tail.len().max(1) as f64;

    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    // The timed phase rebuilt from the replay minimum of every round and
    // of every gap between answers.
    let run_s = (plain.iter().sum::<f64>() + eval.iter().sum::<f64>()) / 1e3 + gaps.iter().sum::<f64>();
    m.put("run_s", run_s, "s");
    m.put(
        "train_samples_per_s",
        (plain.len() * first.samples_per_round) as f64 / (plain.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    m.put("round_ms_p50", percentile(&plain, 50.0), "ms");
    m.put("eval_round_ms_p50", percentile(&eval, 50.0), "ms");
    m.put("wire_mb", first.wire_bytes() as f64 / 1e6, "MB");
    m.put("final_loss", final_loss, "nats");
    m.put("test_accuracy", f64::from(first.history.final_accuracy), "ratio");
    m.put("serve_rps", gaps.len() as f64 / gaps.iter().sum::<f64>(), "1/s");
    m.put("serve_ms_p50", percentile(latencies, 50.0), "ms");
    m.put(
        "ok_frac",
        1.0 - tally.failed as f64 / tally.attempted as f64,
        "ratio",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    eprintln!(
        "{}: {} sessions, {} plain rounds, {} eval rounds, {} requests",
        spec.workload.name(),
        sessions,
        plain.len(),
        eval.len(),
        latencies.len()
    );
    Ok(m)
}

/// Mean over rounds of one label's busy time, in ms.
fn label_ms(rounds: &[RoundTrace], label: Label) -> f64 {
    let xs: Vec<f64> = rounds
        .iter()
        .filter(|r| label != Label::Evaluate || r.eval)
        .map(|r| r.busy_s[label as usize] * 1e3)
        .collect();
    if xs.is_empty() {
        0.0
    } else {
        mean(&xs)
    }
}

fn traced(spec: &Spec, args: &Args, tally: &mut Tally) -> Res<Metrics> {
    let plain = session::run(spec, args.seed, false)?;
    tally.session(&plain);
    let traced = session::run(spec, args.seed, true)?;
    tally.session(&traced);
    tally.check(traced.fingerprint.weights == plain.fingerprint.weights, || {
        "traced run's weights digest differs from the untraced run's".into()
    });
    tally.check(traced.fingerprint.losses == plain.fingerprint.losses, || {
        "traced run's per-round losses differ from the untraced run's".into()
    });
    tally.check(
        traced.fingerprint.msgs_by_kind == plain.fingerprint.msgs_by_kind,
        || "traced run's per-kind message counts differ from the untraced run's".into(),
    );
    tally.check(traced.fingerprint == plain.fingerprint, || {
        "traced session's fingerprint differs from the untraced session's".into()
    });
    let t = traced.traced.as_ref().ok_or("traced session carries no trace")?;
    let rounds = &t.rounds;
    tally.check(rounds.len() == traced.history.records.len(), || {
        format!(
            "trace split {} rounds, the trainer ran {}",
            rounds.len(),
            traced.history.records.len()
        )
    });
    let n_rounds = rounds.len().max(1) as f64;
    let attributed: Vec<f64> = rounds.iter().map(RoundTrace::attributed).collect();
    let min_attributed = attributed.iter().copied().fold(f64::INFINITY, f64::min);
    let wall_ms = mean(&rounds.iter().map(|r| r.wall_s * 1e3).collect::<Vec<_>>());

    let mut m = Metrics::default();
    for label in Label::ALL {
        m.put(label.metric(), label_ms(rounds, label), "ms");
    }
    // Tails of the untraced session, recorded here rather than gated.
    let plain_rounds: Vec<f64> = plain
        .history
        .records
        .iter()
        .filter(|r| r.accuracy.is_none())
        .map(|r| r.wall_time_s * 1e3)
        .collect();
    m.put("core.round_ms_p95", percentile(&plain_rounds, 95.0), "ms");
    m.put("core.attributed_frac_min", min_attributed, "ratio");
    m.put("core.attributed_frac_p05", percentile(&attributed, 5.0), "ratio");
    m.put("core.relay.replay_ms", t.relay_replay_ms, "ms");

    // Codec cost on the captured cut tensor, in the workload's codec.
    let cut = t.cut.as_ref().ok_or("no cut tensor was captured")?;
    let (enc, dec) = ledger::codec(cut, spec.config.codec)?;
    let stats = &traced.history.stats;
    // Each round every platform's activations go up and its cut
    // gradients come down, each encoded and decoded once; logits are a
    // small fraction of that.
    let cut_mb_per_round = 2.0 * spec.topo.platforms() as f64 * cut.numel() as f64 * 4.0 / 1e6;
    let codec_ms = (enc + dec) * cut_mb_per_round / 1e3;
    let comm_ms = [Label::Send, Label::TryRecv, Label::Relay]
        .iter()
        .map(|&l| label_ms(rounds, l))
        .sum::<f64>()
        + codec_ms;
    m.put("core.comm_share", comm_ms / wall_ms, "ratio");

    m.put("simnet.msgs_per_round", stats.messages as f64 / n_rounds, "count");
    m.put(
        "simnet.wire_bytes_per_round",
        stats.total_bytes as f64 / n_rounds,
        "B",
    );
    m.put(
        "simnet.logical_bytes_per_round",
        stats.logical_bytes as f64 / n_rounds,
        "B",
    );
    m.put("simnet.makespan_s", stats.makespan_s, "s");

    m.put("tensor.encode.us_per_mb", enc, "us/MB");
    m.put("tensor.decode.us_per_mb", dec, "us/MB");
    m.put(
        "tensor.plan.train_repacks_per_step",
        t.plan_packs as f64 / n_rounds,
        "count",
    );
    m.put(
        "tensor.plan.train_hit_ratio",
        t.plan_hits as f64 / t.plan_lookups.max(1) as f64,
        "ratio",
    );
    m.put(
        "tensor.plan.serve_repacks_per_batch",
        traced.serve.plan_packs as f64 / traced.serve.batches.max(1) as f64,
        "count",
    );
    m.put("tensor.ref_gemm.gflops", ledger::ref_gemm_gflops()?, "GFLOP/s");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.put(
        "tensor.pool.nproc_speedup",
        ledger::pool_speedup(&vgg_lite(), &[3, 16, 16], nproc)?,
        "ratio",
    );

    // Layer ledger: both models, each at the batch shapes of the
    // workload that trains it.
    let own_model = spec.model;
    let mut conv_share = 0.0;
    for (model, arch, dims, l1_batch, server_batch, platforms) in [
        ("vgg", vgg_lite(), vec![3, 16, 16], 8, 32, 4),
        ("mlp", mlp_widecut(), vec![32], 64, 1024, 16),
    ] {
        let layers = ledger::layers(&arch, &dims, l1_batch, server_batch)?;
        let split = medsplit_core::resolve_split(&arch, medsplit_core::SplitPoint::Default)
            .map_err(|e| e.to_string())?;
        let (mut conv, mut total) = (0.0, 0.0);
        for (idx, l) in layers.iter().enumerate() {
            m.put(format!("nn.{model}.{}.fwd_us", l.name), l.fwd_us, "us");
            m.put(format!("nn.{model}.{}.bwd_us", l.name), l.bwd_us, "us");
            if let Some(g) = l.gflops {
                m.put(format!("nn.{model}.{}.gflops", l.name), g, "GFLOP/s");
            }
            // Per-round kernel time: every platform runs the L1 layers.
            let weight = if idx < split { platforms as f64 } else { 1.0 };
            let us = weight * (l.fwd_us + l.bwd_us);
            total += us;
            if l.is_conv {
                conv += us;
            }
        }
        if model == own_model {
            conv_share = conv / total;
        }
    }
    m.put("nn.conv_share", conv_share, "ratio");
    let (l1_step, server_step) = ledger::optimizer_steps(&spec.arch, spec.config.momentum)?;
    m.put("nn.optim.l1_step_us", l1_step, "us");
    m.put("nn.optim.server_step_us", server_step, "us");

    m.put("data.generate_s", plain.generate_s.min(traced.generate_s), "s");
    let inputs = workload::generate(spec, args.seed)?;
    m.put("data.batch_us", ledger::data_batch(&inputs.test)?, "us");

    let spans = traced
        .serve
        .spans
        .as_ref()
        .ok_or("serving phase carries no spans")?;
    for (i, stage) in SERVE_STAGES.iter().enumerate() {
        let us = spans.busy[i].as_secs_f64() * 1e6 / spans.calls[i].max(1) as f64;
        m.put(format!("serve.{stage}.us"), us, "us");
    }
    m.put(
        "serve.latency_ms_p99",
        percentile(&plain.serve.latencies_ms, 99.0),
        "ms",
    );
    m.put(
        "serve.batch_size_mean",
        traced.serve.requests as f64 / traced.serve.batches.max(1) as f64,
        "count",
    );

    m.put("host.nproc", nproc as f64, "count");
    m.put("host.pool_threads", pool::num_threads() as f64, "count");
    m.put("host.isa_level", f64::from(simd::active_isa().level()), "count");
    m.put("trace.overhead_s", traced.run_s() - plain.run_s(), "s");
    eprintln!(
        "{}: traced {} rounds, min attributed share {:.3}",
        spec.workload.name(),
        rounds.len(),
        min_attributed
    );
    Ok(m)
}
