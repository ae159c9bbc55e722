//! The traced training runs: spans recorded from the benchmark's own
//! code around calls into the program, never inside it.
//!
//! - Star workloads: [`star_traced`] drives the platform and server
//!   actors itself, in `SplitTrainer::run`'s exact order, timing each
//!   actor and transport call. Its weights, per-round losses and
//!   message counts must equal the untraced trainer's.
//! - Relay tree: the real `HierResilientTrainer` runs over a [`Timed`]
//!   transport that logs every call. [`attribute`] assigns each
//!   interval between calls to the actor call that produced it.

use std::sync::Mutex;
use std::time::Instant;

use medsplit_core::{build_split, Platform, RoundRecord, Scheduling, SplitServer, TrainingHistory};
use medsplit_data::InMemoryDataset;
use medsplit_nn::accuracy;
use medsplit_simnet::{Envelope, MemoryTransport, MessageKind, NetError, NetStats, NodeId, Transport};

use crate::report::{Res, ResultExt};
use crate::serve::Actors;
use crate::workload::Spec;

/// Where a traced round's wall-clock went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    StartRound,
    AggregateForward,
    HandleLogits,
    AggregateBackward,
    HandleCutGrads,
    Evaluate,
    Relay,
    Send,
    TryRecv,
    Other,
}

pub const LABELS: usize = 10;

impl Label {
    pub const ALL: [Label; LABELS] = [
        Label::StartRound,
        Label::AggregateForward,
        Label::HandleLogits,
        Label::AggregateBackward,
        Label::HandleCutGrads,
        Label::Evaluate,
        Label::Relay,
        Label::Send,
        Label::TryRecv,
        Label::Other,
    ];

    /// The metric name of the label's per-round time.
    pub fn metric(self) -> &'static str {
        match self {
            Label::StartRound => "core.start_round.ms",
            Label::AggregateForward => "core.aggregate_forward.ms",
            Label::HandleLogits => "core.handle_logits.ms",
            Label::AggregateBackward => "core.aggregate_backward.ms",
            Label::HandleCutGrads => "core.handle_cut_grads.ms",
            Label::Evaluate => "core.evaluate.ms",
            Label::Relay => "core.relay.ms",
            Label::Send => "simnet.send.ms",
            Label::TryRecv => "simnet.try_recv.ms",
            Label::Other => "core.other.ms",
        }
    }
}

/// One traced round: wall-clock and busy seconds per label. `Other` is
/// whatever no call span covers.
#[derive(Debug, Clone, Copy)]
pub struct RoundTrace {
    pub wall_s: f64,
    pub busy_s: [f64; LABELS],
    pub eval: bool,
}

impl RoundTrace {
    /// A finished round: `Other` becomes the wall time no named label
    /// covers.
    fn close(wall_s: f64, mut busy_s: [f64; LABELS], eval: bool) -> Self {
        let named: f64 = busy_s[..LABELS - 1].iter().sum();
        busy_s[Label::Other as usize] = (wall_s - named).max(0.0);
        RoundTrace { wall_s, busy_s, eval }
    }

    /// Share of the round's wall-clock covered by named call spans.
    pub fn attributed(&self) -> f64 {
        1.0 - self.busy_s[Label::Other as usize] / self.wall_s
    }
}

/// Builds the protocol actors the way `SplitTrainer::new` does: one `L1`
/// replica per shard and the server suffix. Returns the actors and the
/// `(client, server)` parameter counts the compute model charges.
pub fn build_actors(spec: &Spec, shards: Vec<InMemoryDataset>) -> Res<(Actors, usize, usize)> {
    let config = &spec.config;
    let split = build_split(&spec.arch, config.split, config.seed, shards.len()).ctx("split")?;
    let sizes: Vec<usize> = shards.iter().map(InMemoryDataset::len).collect();
    let batches = config.minibatch.sizes(&sizes);
    let total: usize = batches.iter().sum();
    let platforms = split
        .clients
        .into_iter()
        .zip(shards)
        .zip(&batches)
        .enumerate()
        .map(|(id, ((model, data), &batch))| {
            let mut p = Platform::new(id, model, data, batch, config.momentum, config.seed);
            if config.scheduling == Scheduling::Aggregate {
                p.set_grad_scale(batch as f32 / total as f32);
            }
            p.set_codec(config.codec);
            p
        })
        .collect();
    let mut server = SplitServer::new(split.server, config.momentum);
    server.set_codec(config.codec);
    Ok((
        Actors { platforms, server },
        split.client_params,
        split.server_params,
    ))
}

/// `SplitTrainer::evaluate`, reproduced call for call.
pub fn evaluate(actors: &mut Actors, test: &InMemoryDataset) -> Res<f32> {
    const EVAL_BATCH: usize = 64;
    let mut total = 0.0;
    for platform in &mut actors.platforms {
        let mut correct_weighted = 0.0;
        let mut seen = 0usize;
        let n = test.len();
        let mut start = 0;
        while start < n {
            let count = EVAL_BATCH.min(n - start);
            let idx: Vec<usize> = (start..start + count).collect();
            let (features, labels) = test.batch(&idx).ctx("eval batch")?;
            let acts = platform.infer_l1(&features).ctx("eval infer_l1")?;
            let logits = actors.server.infer(&acts).ctx("eval server infer")?;
            correct_weighted += accuracy(&logits, &labels).ctx("accuracy")? * count as f32;
            seen += count;
            start += count;
        }
        total += correct_weighted / seen.max(1) as f32;
    }
    Ok(total / actors.platforms.len() as f32)
}

/// The traced star run's results.
pub struct StarTraced {
    pub history: TrainingHistory,
    pub rounds: Vec<RoundTrace>,
    pub actors: Actors,
    /// The first activations message, for the codec ledger.
    pub cut_sample: Option<Envelope>,
}

fn recv<T: Transport>(transport: &T, node: NodeId) -> Res<Envelope> {
    transport
        .try_recv(node)
        .ok_or_else(|| format!("no message queued for {node}"))
}

/// Drives the star actors through `SplitTrainer::run`'s aggregate round,
/// timing each call.
pub fn star_traced(spec: &Spec, shards: Vec<InMemoryDataset>, test: &InMemoryDataset) -> Res<StarTraced> {
    let config = &spec.config;
    if config.scheduling != Scheduling::Aggregate || config.sync_due(0) {
        return Err("the traced star run implements aggregate rounds without L1 sync".into());
    }
    let (mut actors, client_params, server_params) = build_actors(spec, shards)?;
    let transport = MemoryTransport::new(spec.topo.star());
    let k = actors.platforms.len();
    let mut records = Vec::with_capacity(config.rounds);
    let mut rounds = Vec::with_capacity(config.rounds);
    let mut cut_sample = None;
    for round in 0..config.rounds {
        let round_start = Instant::now();
        let mut busy = [0.0f64; LABELS];
        macro_rules! span {
            ($label:expr, $call:expr) => {{
                let t = Instant::now();
                let r = $call;
                busy[$label as usize] += t.elapsed().as_secs_f64();
                r
            }};
        }
        let lr = config.lr.lr_at(round);
        for p in &mut actors.platforms {
            p.set_lr(lr);
        }
        actors.server.set_lr(lr);
        let r = round as u64;

        let mut losses = Vec::with_capacity(k);
        for p in &mut actors.platforms {
            let env = span!(Label::StartRound, p.start_round(r)).ctx("start_round")?;
            if cut_sample.is_none() {
                cut_sample = Some(env.clone());
            }
            span!(Label::Send, transport.send(env)).ctx("send")?;
        }
        let mut acts = Vec::with_capacity(k);
        for _ in 0..k {
            acts.push(span!(Label::TryRecv, recv(&transport, NodeId::Server))?);
        }
        let out = span!(Label::AggregateForward, actors.server.aggregate_forward(&acts))
            .ctx("aggregate_forward")?;
        for env in out {
            span!(Label::Send, transport.send(env)).ctx("send")?;
        }
        for p in &mut actors.platforms {
            let env = span!(Label::TryRecv, recv(&transport, p.node()))?;
            let (grads, loss) = span!(Label::HandleLogits, p.handle_logits(&env)).ctx("handle_logits")?;
            losses.push(loss);
            span!(Label::Send, transport.send(grads)).ctx("send")?;
        }
        let mut grads = Vec::with_capacity(k);
        for _ in 0..k {
            grads.push(span!(Label::TryRecv, recv(&transport, NodeId::Server))?);
        }
        let out = span!(Label::AggregateBackward, actors.server.aggregate_backward(&grads))
            .ctx("aggregate_backward")?;
        for env in out {
            span!(Label::Send, transport.send(env)).ctx("send")?;
        }
        for p in &mut actors.platforms {
            let env = span!(Label::TryRecv, recv(&transport, p.node()))?;
            span!(Label::HandleCutGrads, p.handle_cut_grads(&env)).ctx("handle_cut_grads")?;
        }
        let mean_loss = losses.iter().sum::<f32>() / losses.len().max(1) as f32;

        // The trainer's compute charge: simulated clocks only.
        let compute = config.compute;
        let stats = transport.stats();
        let mut total_batch = 0usize;
        for p in &actors.platforms {
            let s = compute.seconds(compute.platform_s_per_msample, p.batch_size(), client_params);
            stats.advance_clock(p.node(), s);
            total_batch += p.batch_size();
        }
        let s = compute.seconds(compute.server_s_per_msample, total_batch, server_params);
        stats.advance_clock(NodeId::Server, s);

        let eval = config.eval_every > 0 && (round + 1) % config.eval_every == 0;
        let accuracy = if eval {
            Some(span!(Label::Evaluate, evaluate(&mut actors, test))?)
        } else {
            None
        };
        let snap = transport.stats().snapshot();
        let wall_s = round_start.elapsed().as_secs_f64();
        records.push(RoundRecord {
            round,
            lr,
            mean_loss,
            cumulative_bytes: snap.total_bytes,
            simulated_time_s: snap.makespan_s,
            wall_time_s: wall_s,
            participants: k,
            degraded: false,
            accuracy,
        });
        rounds.push(RoundTrace::close(wall_s, busy, eval));
    }
    let final_accuracy = match records.last().and_then(|r| r.accuracy) {
        Some(a) => a,
        None => evaluate(&mut actors, test)?,
    };
    Ok(StarTraced {
        history: TrainingHistory {
            method: "split".into(),
            records,
            final_accuracy,
            stats: transport.stats().snapshot(),
        },
        rounds,
        actors,
        cut_sample,
    })
}

/// One logged transport call.
#[derive(Debug, Clone, Copy)]
enum Call {
    Send { src: NodeId, kind: MessageKind },
    Recv { kind: Option<MessageKind> },
    Stats,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    start: Instant,
    end: Instant,
    call: Call,
}

/// Relay batches of the first rounds are kept for the relay replay.
const CAPTURE_ROUNDS: u64 = 20;

/// A transport wrapper that logs the start, end and kind of every call
/// and keeps the relay batches of the first rounds.
pub struct Timed<T> {
    inner: T,
    log: Mutex<Vec<Event>>,
    relay_batches: Mutex<Vec<Envelope>>,
    cut_sample: Mutex<Option<Envelope>>,
}

impl<T: Transport> Timed<T> {
    pub fn new(inner: T) -> Self {
        Timed {
            inner,
            log: Mutex::new(Vec::new()),
            relay_batches: Mutex::new(Vec::new()),
            cut_sample: Mutex::new(None),
        }
    }

    fn push(&self, start: Instant, call: Call) {
        let end = Instant::now();
        self.log
            .lock()
            .expect("log lock")
            .push(Event { start, end, call });
    }

    /// The captured relay batches (rounds below [`CAPTURE_ROUNDS`]).
    pub fn relay_batches(&self) -> Vec<Envelope> {
        self.relay_batches.lock().expect("capture lock").clone()
    }

    /// The first activations message sent.
    pub fn cut_sample(&self) -> Option<Envelope> {
        self.cut_sample.lock().expect("capture lock").clone()
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn send(&self, env: Envelope) -> Result<(), NetError> {
        let call = Call::Send {
            src: env.src,
            kind: env.kind,
        };
        if env.kind == MessageKind::RelayBatch && env.round < CAPTURE_ROUNDS {
            self.relay_batches.lock().expect("capture lock").push(env.clone());
        }
        if env.kind == MessageKind::Activations {
            self.cut_sample
                .lock()
                .expect("capture lock")
                .get_or_insert_with(|| env.clone());
        }
        let start = Instant::now();
        let r = self.inner.send(env);
        self.push(start, call);
        r
    }

    fn try_recv(&self, node: NodeId) -> Option<Envelope> {
        let start = Instant::now();
        let got = self.inner.try_recv(node);
        self.push(
            start,
            Call::Recv {
                kind: got.as_ref().map(|e| e.kind),
            },
        );
        got
    }

    fn recv_timeout(&self, node: NodeId, timeout: std::time::Duration) -> Result<Envelope, NetError> {
        self.inner.recv_timeout(node, timeout)
    }

    fn stats(&self) -> &NetStats {
        self.push(Instant::now(), Call::Stats);
        self.inner.stats()
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Inside a round's message exchange.
    Exchange,
    /// A platform just received its cut gradients; the next clock read
    /// is the trainer's compute charge after `handle_cut_grads`.
    AfterCutGrads,
    /// The compute charge was read; the next clock read is the round's
    /// closing snapshot, after any evaluation.
    AfterCharge,
}

impl<T: Transport> Timed<T> {
    /// The logged calls split into rounds; see [`attribute`].
    pub fn attribute(&self, run_start: Instant, eval_every: usize) -> Vec<RoundTrace> {
        attribute(&self.log.lock().expect("log lock"), run_start, eval_every)
    }
}

/// Splits the hierarchical trainer's call log into rounds and assigns
/// every interval between calls to the call that produced it: a send is
/// preceded by its sender's work (platform `start_round` or
/// `handle_logits`; the server's first send after the platforms' is its
/// aggregate pass, later ones and every relay send are relay framing);
/// the clock read after the last cut gradients closes
/// `handle_cut_grads`; the next one closes the evaluation, and the
/// round. Intervals ending in any other clock read stay unattributed.
fn attribute(log: &[Event], run_start: Instant, eval_every: usize) -> Vec<RoundTrace> {
    let mut rounds = Vec::new();
    let mut busy = [0.0f64; LABELS];
    let mut pending = 0.0;
    let mut prev_end = run_start;
    let mut round_start = run_start;
    let mut phase = Phase::Exchange;
    let mut backward = false;
    let mut server_sent = false;
    for e in log {
        let gap = e.start.saturating_duration_since(prev_end).as_secs_f64();
        let dur = e.end.saturating_duration_since(e.start).as_secs_f64();
        prev_end = e.end;
        match e.call {
            Call::Recv { kind } => {
                pending += gap;
                busy[Label::TryRecv as usize] += dur;
                if kind == Some(MessageKind::CutGrads) {
                    phase = Phase::AfterCutGrads;
                }
            }
            Call::Send { src, kind } => {
                let label = match src {
                    NodeId::Platform(_) => {
                        server_sent = false;
                        backward = kind != MessageKind::Activations;
                        if backward {
                            Label::HandleLogits
                        } else {
                            Label::StartRound
                        }
                    }
                    NodeId::Server if !server_sent => {
                        server_sent = true;
                        if backward {
                            Label::AggregateBackward
                        } else {
                            Label::AggregateForward
                        }
                    }
                    _ => Label::Relay,
                };
                busy[label as usize] += gap + pending;
                busy[Label::Send as usize] += dur;
                pending = 0.0;
                phase = Phase::Exchange;
            }
            Call::Stats => {
                let eval = eval_every > 0 && (rounds.len() + 1) % eval_every == 0;
                match phase {
                    Phase::AfterCutGrads => {
                        busy[Label::HandleCutGrads as usize] += gap + pending;
                        phase = Phase::AfterCharge;
                    }
                    Phase::AfterCharge => {
                        if eval {
                            busy[Label::Evaluate as usize] += gap + pending;
                        }
                        let wall = e.end.saturating_duration_since(round_start).as_secs_f64();
                        rounds.push(RoundTrace::close(wall, busy, eval));
                        busy = [0.0; LABELS];
                        round_start = e.end;
                        phase = Phase::Exchange;
                    }
                    Phase::Exchange => {}
                }
                pending = 0.0;
            }
        }
    }
    rounds
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    /// One hierarchical round for one platform behind relay 0, with
    /// evaluation; each call starts 1 ms after the previous one ends and
    /// lasts 0.1 ms.
    #[test]
    fn hierarchical_log_splits_into_labelled_rounds() {
        let (p, r, s) = (NodeId::Platform(0), NodeId::Relay(0), NodeId::Server);
        let send = |src, kind| Call::Send { src, kind };
        let recv = |kind| Call::Recv { kind: Some(kind) };
        let calls = [
            Call::Stats,
            send(p, MessageKind::Activations),
            recv(MessageKind::Activations),
            send(r, MessageKind::RelayBatch),
            recv(MessageKind::RelayBatch),
            send(s, MessageKind::RelayBatch),
            recv(MessageKind::RelayBatch),
            send(r, MessageKind::Logits),
            recv(MessageKind::Logits),
            send(p, MessageKind::LogitGrads),
            recv(MessageKind::LogitGrads),
            send(r, MessageKind::RelayBatch),
            recv(MessageKind::RelayBatch),
            send(s, MessageKind::RelayBatch),
            recv(MessageKind::RelayBatch),
            send(r, MessageKind::CutGrads),
            recv(MessageKind::CutGrads),
            Call::Stats,
            Call::Stats,
        ];
        let t0 = Instant::now();
        let ms = |x: f64| Duration::from_secs_f64(x / 1e3);
        let log: Vec<Event> = calls
            .iter()
            .enumerate()
            .map(|(i, &call)| {
                let start = t0 + ms(1.1 * i as f64 + 1.0);
                Event {
                    start,
                    end: start + ms(0.1),
                    call,
                }
            })
            .collect();
        let rounds = attribute(&log, t0, 1);
        assert_eq!(rounds.len(), 1);
        let round = rounds[0];
        let got = |l: Label| (round.busy_s[l as usize] * 1e3 * 10.0).round() / 10.0;
        // Receives fold their preceding interval into the next sender's.
        assert_eq!(got(Label::StartRound), 1.0);
        assert_eq!(got(Label::Relay), 2.0 + 2.0 + 2.0 + 2.0);
        assert_eq!(got(Label::AggregateForward), 2.0);
        assert_eq!(got(Label::HandleLogits), 2.0);
        assert_eq!(got(Label::AggregateBackward), 2.0);
        assert_eq!(got(Label::HandleCutGrads), 2.0);
        assert_eq!(got(Label::Evaluate), 1.0);
        assert_eq!(got(Label::Send), 0.8);
        assert_eq!(got(Label::TryRecv), 0.8);
        // Unnamed: the interval before the opening clock read and the
        // clock reads themselves.
        assert_eq!(got(Label::Other), 1.3);
        assert!(round.eval);
        assert!((round.wall_s * 1e3 - 20.9).abs() < 1e-6);
    }
}
