//! One session of a workload: generate its inputs, build the trainer,
//! train, then serve. Untraced sessions call the program's public entry
//! points (`SplitTrainer::run`, `HierResilientTrainer::run`); traced
//! sessions go through [`crate::trace`].

use std::time::Instant;

use medsplit_core::{
    messages::decode_tensor, relay, HierPolicy, HierResilientTrainer, SplitTrainer, TrainingHistory,
};
use medsplit_data::InMemoryDataset;
use medsplit_nn::vectorize::parameter_digest;
use medsplit_simnet::{ChaosTransport, FaultPlan, MemoryTransport, MessageKind, Transport};
use medsplit_tensor::Tensor;

use crate::report::{fnv1a, Res, ResultExt, FNV_OFFSET};
use crate::serve::{self, Actors, ServeOutcome};
use crate::trace::{self, RoundTrace, Timed};
use crate::workload::{generate, Inputs, Spec, Topo};

/// What must repeat exactly across sessions of one seed, and between a
/// traced and an untraced session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Digest of the trained weights (for the relay tree, whose server
    /// is not reachable from outside the trainer: the platforms' `L1`).
    pub weights: u64,
    pub losses: Vec<u32>,
    pub accuracy: u32,
    pub msgs_by_kind: Vec<(MessageKind, u64)>,
    pub bytes_by_kind: Vec<(MessageKind, u64)>,
    pub served_logits: u64,
}

/// Layer counters and traces only the traced session collects.
#[derive(Debug, Default)]
pub struct Traced {
    pub rounds: Vec<RoundTrace>,
    /// Relay unbatch + re-batch of the captured relay batches, per round.
    pub relay_replay_ms: f64,
    /// One cut-layer tensor as a platform sent it.
    pub cut: Option<Tensor>,
    pub plan_packs: u64,
    pub plan_hits: u64,
    pub plan_lookups: u64,
}

#[derive(Debug)]
pub struct Session {
    pub generate_s: f64,
    /// Data generation, partitioning, actor construction and the serving
    /// warmup.
    pub setup_s: f64,
    pub train_s: f64,
    pub history: TrainingHistory,
    pub samples_per_round: usize,
    pub fingerprint: Fingerprint,
    pub serve: ServeOutcome,
    pub traced: Option<Traced>,
}

impl Session {
    /// Wall-clock of the timed phase: training plus serving.
    pub fn run_s(&self) -> f64 {
        self.train_s + self.serve.wall_s
    }

    /// Bytes on the wire over the whole session.
    pub fn wire_bytes(&self) -> u64 {
        self.history.stats.total_bytes + self.serve.wire_bytes
    }
}

fn samples_per_round(spec: &Spec, shards: &[InMemoryDataset]) -> usize {
    let sizes: Vec<usize> = shards.iter().map(InMemoryDataset::len).collect();
    spec.config.minibatch.sizes(&sizes).iter().sum()
}

fn weights_digest(actors: &mut Actors) -> u64 {
    let mut d = fnv1a(FNV_OFFSET, &actors.server.weights_digest().to_le_bytes());
    for p in &mut actors.platforms {
        d = fnv1a(d, &parameter_digest(p.model_mut()).to_le_bytes());
    }
    d
}

fn fingerprint(weights: u64, history: &TrainingHistory, serve: &ServeOutcome) -> Fingerprint {
    Fingerprint {
        weights,
        losses: history.records.iter().map(|r| r.mean_loss.to_bits()).collect(),
        accuracy: history.final_accuracy.to_bits(),
        msgs_by_kind: history.stats.msgs_by_kind.clone(),
        bytes_by_kind: history.stats.by_kind.clone(),
        served_logits: serve.logits_digest,
    }
}

/// Plan-cache counters, for deltas around the traced training.
struct Counters {
    packs: u64,
    hits: u64,
    lookups: u64,
}

impl Counters {
    fn read() -> Counters {
        let s = medsplit_tensor::ops::plan::stats();
        Counters {
            packs: s.packs,
            hits: s.hits,
            lookups: s.hits + s.misses + s.invalidations,
        }
    }

    fn since(&self, before: &Counters, into: &mut Traced) {
        into.plan_packs = self.packs - before.packs;
        into.plan_hits = self.hits - before.hits;
        into.plan_lookups = self.lookups - before.lookups;
    }
}

/// Times set-up alone, as a session does it: input generation, trainer
/// and actor construction, and the serving warmup.
pub fn setup_only(spec: &Spec, seed: u64) -> Res<f64> {
    let start = Instant::now();
    let Inputs { shards, test, .. } = generate(spec, seed)?;
    match spec.topo {
        Topo::Star { .. } => {
            let transport = MemoryTransport::new(spec.topo.star());
            let mut trainer =
                SplitTrainer::new(&spec.arch, spec.config.clone(), shards, test.clone(), &transport)
                    .ctx("trainer")?;
            serve::warmup(&mut trainer, &test)?;
        }
        Topo::Hier { .. } => {
            let topo = spec.topo.hier().ok_or("not a hierarchical workload")?;
            let serve_shards = shards[..serve::SERVE_PLATFORMS].to_vec();
            let chaos = ChaosTransport::new(MemoryTransport::new(topo.clone()), FaultPlan::new(seed));
            HierResilientTrainer::new(
                &spec.arch,
                spec.config.clone(),
                HierPolicy::default(),
                topo,
                shards,
                test.clone(),
                &chaos,
            )
            .ctx("hier trainer")?;
            let (mut actors, _, _) = trace::build_actors(spec, serve_shards)?;
            serve::warmup(&mut actors, &test)?;
        }
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Runs one session of `spec` on the inputs of `seed`.
pub fn run(spec: &Spec, seed: u64, traced: bool) -> Res<Session> {
    let start = Instant::now();
    let inputs = generate(spec, seed)?;
    let generate_s = start.elapsed().as_secs_f64();
    let mut session = match spec.topo {
        Topo::Star { .. } if traced => star_traced(spec, inputs, start)?,
        Topo::Star { .. } => star(spec, inputs, start)?,
        Topo::Hier { .. } => hier(spec, seed, inputs, start, traced)?,
    };
    session.generate_s = generate_s;
    Ok(session)
}

fn star(spec: &Spec, inputs: Inputs, start: Instant) -> Res<Session> {
    let Inputs {
        shards,
        test,
        requests,
    } = inputs;
    let samples = samples_per_round(spec, &shards);
    let transport = MemoryTransport::new(spec.topo.star());
    let mut trainer = SplitTrainer::new(&spec.arch, spec.config.clone(), shards, test.clone(), &transport)
        .ctx("trainer")?;
    let setup_s = start.elapsed().as_secs_f64();
    let t = Instant::now();
    let history = trainer.run().ctx("training")?;
    let train_s = t.elapsed().as_secs_f64();
    let mut weights = fnv1a(FNV_OFFSET, &trainer.server_mut().weights_digest().to_le_bytes());
    for p in trainer.platforms_mut() {
        weights = fnv1a(weights, &parameter_digest(p.model_mut()).to_le_bytes());
    }
    let t = Instant::now();
    serve::warmup(&mut trainer, &test)?;
    let setup_s = setup_s + t.elapsed().as_secs_f64();
    let serve = serve::serve(&mut trainer, &test, &requests, spec.config.codec, false)?;
    Ok(Session {
        generate_s: 0.0,
        setup_s,
        train_s,
        fingerprint: fingerprint(weights, &history, &serve),
        history,
        samples_per_round: samples,
        serve,
        traced: None,
    })
}

fn star_traced(spec: &Spec, inputs: Inputs, start: Instant) -> Res<Session> {
    let Inputs {
        shards,
        test,
        requests,
    } = inputs;
    let samples = samples_per_round(spec, &shards);
    let setup_s = start.elapsed().as_secs_f64();
    let before = Counters::read();
    let t = Instant::now();
    let run = trace::star_traced(spec, shards, &test)?;
    let train_s = t.elapsed().as_secs_f64();
    let mut traced = Traced {
        rounds: run.rounds,
        cut: run
            .cut_sample
            .map(|env| decode_tensor(&env, MessageKind::Activations))
            .transpose()
            .ctx("cut tensor")?,
        ..Traced::default()
    };
    Counters::read().since(&before, &mut traced);
    let mut actors = run.actors;
    let weights = weights_digest(&mut actors);
    let t = Instant::now();
    serve::warmup(&mut actors, &test)?;
    let setup_s = setup_s + t.elapsed().as_secs_f64();
    let serve = serve::serve(&mut actors, &test, &requests, spec.config.codec, true)?;
    Ok(Session {
        generate_s: 0.0,
        setup_s,
        train_s,
        fingerprint: fingerprint(weights, &run.history, &serve),
        history: run.history,
        samples_per_round: samples,
        serve,
        traced: Some(traced),
    })
}

/// Trains the relay tree over `chaos`; returns the history, the `L1`
/// digest, the setup time, the instant `run` was entered and the
/// training time.
fn hier_train<T: Transport>(
    spec: &Spec,
    shards: Vec<InMemoryDataset>,
    test: &InMemoryDataset,
    chaos: &ChaosTransport<T>,
    start: Instant,
) -> Res<(TrainingHistory, u64, f64, Instant, f64)> {
    let topo = spec.topo.hier().ok_or("not a hierarchical workload")?;
    let mut trainer = HierResilientTrainer::new(
        &spec.arch,
        spec.config.clone(),
        HierPolicy::default(),
        topo,
        shards,
        test.clone(),
        chaos,
    )
    .ctx("hier trainer")?;
    let setup_s = start.elapsed().as_secs_f64();
    let run_start = Instant::now();
    let history = trainer.run().ctx("hier training")?;
    let train_s = run_start.elapsed().as_secs_f64();
    let mut weights = FNV_OFFSET;
    for p in trainer.platforms_mut() {
        weights = fnv1a(weights, &parameter_digest(p.model_mut()).to_le_bytes());
    }
    Ok((history, weights, setup_s, run_start, train_s))
}

fn hier(spec: &Spec, seed: u64, inputs: Inputs, start: Instant, traced: bool) -> Res<Session> {
    let Inputs {
        shards,
        test,
        requests,
    } = inputs;
    let samples = samples_per_round(spec, &shards);
    let topo = spec.topo.hier().ok_or("not a hierarchical workload")?;
    // The serving model is built from the same architecture: the relay
    // trainer exposes no handle to its server suffix.
    let serve_shards = shards[..serve::SERVE_PLATFORMS].to_vec();
    let plan = FaultPlan::new(seed);
    let (history, weights, setup_s, train_s, traced_out) = if traced {
        let chaos = ChaosTransport::new(Timed::new(MemoryTransport::new(topo)), plan);
        let before = Counters::read();
        let (history, weights, setup_s, run_start, train_s) = hier_train(spec, shards, &test, &chaos, start)?;
        let mut out = Traced::default();
        Counters::read().since(&before, &mut out);
        let timed = chaos.inner();
        out.rounds = timed.attribute(run_start, spec.config.eval_every);
        out.cut = timed
            .cut_sample()
            .map(|env| decode_tensor(&env, MessageKind::Activations))
            .transpose()
            .ctx("cut tensor")?;
        out.relay_replay_ms = relay_replay_ms(&timed.relay_batches())?;
        (history, weights, setup_s, train_s, Some(out))
    } else {
        let chaos = ChaosTransport::new(MemoryTransport::new(topo), plan);
        let (history, weights, setup_s, _, train_s) = hier_train(spec, shards, &test, &chaos, start)?;
        (history, weights, setup_s, train_s, None)
    };
    let t = Instant::now();
    let (mut actors, _, _) = trace::build_actors(spec, serve_shards)?;
    serve::warmup(&mut actors, &test)?;
    let setup_s = setup_s + t.elapsed().as_secs_f64();
    let serve = serve::serve(&mut actors, &test, &requests, spec.config.codec, traced)?;
    Ok(Session {
        generate_s: 0.0,
        setup_s,
        train_s,
        fingerprint: fingerprint(weights, &history, &serve),
        history,
        samples_per_round: samples,
        serve,
        traced: traced_out,
    })
}

/// Replays captured relay batches through `relay::unbatch` and re-batches
/// them with `relay::encode_batch`; returns ms per captured round.
fn relay_replay_ms(batches: &[medsplit_simnet::Envelope]) -> Res<f64> {
    let rounds = batches
        .iter()
        .map(|e| e.round)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    if rounds == 0 {
        return Ok(0.0);
    }
    let t = Instant::now();
    for env in batches {
        let inner = relay::unbatch(env).ctx("relay unbatch")?;
        std::hint::black_box(relay::encode_batch(&inner));
    }
    Ok(t.elapsed().as_secs_f64() * 1e3 / rounds as f64)
}
