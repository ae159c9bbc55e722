//! The closed-loop serving phase: 8 logical clients over 4 platforms,
//! one request in flight each, driven from one thread through the
//! program's serving wire path.
//!
//! A request goes `Platform::infer_l1` → `encode_request` → transport →
//! `decode_request` → `DynamicBatcher` → `SplitServer::infer` →
//! `encode_response` → transport → `decode_response`, and is timed from
//! the `infer_l1` call to its decoded response.

use std::time::{Duration, Instant};

use medsplit_core::{Platform, SplitServer, SplitTrainer, WireCodec};
use medsplit_data::InMemoryDataset;
use medsplit_serve::{decode_request, decode_response, encode_response, DynamicBatcher, InferStatus};
use medsplit_simnet::{MemoryTransport, NodeId, StarTopology, Transport};
use medsplit_tensor::Tensor;

use crate::report::{fnv1a, Res, ResultExt, FNV_OFFSET};
use crate::workload::{SERVE_CLIENTS, SERVE_MAX_BATCH};

/// Platforms the serving clients are spread over.
pub const SERVE_PLATFORMS: usize = 4;

/// A deployed split model: per-platform `L1` plus the server suffix.
pub trait Deployed {
    fn infer_l1(&mut self, platform: usize, x: &Tensor) -> Res<Tensor>;
    fn infer_server(&mut self, acts: &Tensor) -> Res<Tensor>;
}

impl<T: Transport> Deployed for SplitTrainer<'_, T> {
    fn infer_l1(&mut self, platform: usize, x: &Tensor) -> Res<Tensor> {
        self.platforms_mut()[platform].infer_l1(x).ctx("infer_l1")
    }
    fn infer_server(&mut self, acts: &Tensor) -> Res<Tensor> {
        self.server_mut().infer(acts).ctx("server infer")
    }
}

/// Actors held directly (the traced star run, and the relay-tree workload's
/// serving model).
pub struct Actors {
    pub platforms: Vec<Platform>,
    pub server: SplitServer,
}

impl Deployed for Actors {
    fn infer_l1(&mut self, platform: usize, x: &Tensor) -> Res<Tensor> {
        self.platforms[platform].infer_l1(x).ctx("infer_l1")
    }
    fn infer_server(&mut self, acts: &Tensor) -> Res<Tensor> {
        self.server.infer(acts).ctx("server infer")
    }
}

/// The serving-path calls the traced run times, in pipeline order.
pub const SERVE_STAGES: [&str; 7] = [
    "infer_l1",
    "encode_request",
    "decode_request",
    "batcher",
    "server_infer",
    "encode_response",
    "decode_response",
];

/// Busy time and call count of each serving stage.
#[derive(Debug, Default, Clone)]
pub struct ServeSpans {
    pub busy: [Duration; 7],
    pub calls: [u64; 7],
}

/// What one serving phase did.
#[derive(Debug, Default, Clone)]
pub struct ServeOutcome {
    pub latencies_ms: Vec<f64>,
    /// Time from the previous answer (or the phase start) to each
    /// answer, in completion order.
    pub gaps_s: Vec<f64>,
    pub wall_s: f64,
    pub requests: usize,
    /// Requests answered non-Ok or whose argmax differs from the same
    /// request run unbatched.
    pub failed: usize,
    pub wire_bytes: u64,
    pub logits_digest: u64,
    pub batches: usize,
    pub plan_packs: u64,
    pub spans: Option<ServeSpans>,
}

/// `t`'s tensor frame in the wire codec, as the protocol encodes it.
pub fn encode(t: &Tensor, codec: WireCodec) -> bytes::Bytes {
    match codec {
        WireCodec::F32 => t.to_bytes(),
        WireCodec::F16 => t.to_bytes_f16(),
        WireCodec::Int8 => t.to_bytes_i8(),
    }
}

/// `t` after one trip through the wire codec.
fn round_trip(t: &Tensor, codec: WireCodec) -> Res<Tensor> {
    Tensor::from_bytes(encode(t, codec)).ctx("codec round trip")
}

/// The client that issues request `j` and the platform it sits on.
fn client_of(j: usize) -> (usize, usize) {
    let client = j % SERVE_CLIENTS;
    (client, client % SERVE_PLATFORMS)
}

fn features(test: &InMemoryDataset, idx: usize) -> Res<Tensor> {
    Ok(test.batch(&[idx]).ctx("request features")?.0)
}

/// Runs every serving stage once at batch 1 and at the full batch so
/// the plan cache holds current plans before timing.
pub fn warmup<D: Deployed>(model: &mut D, test: &InMemoryDataset) -> Res<()> {
    let mut acts = Vec::new();
    for j in 0..SERVE_MAX_BATCH {
        acts.push(model.infer_l1(client_of(j).1, &features(test, j % test.len())?)?);
    }
    model.infer_server(&acts[0])?;
    model.infer_server(&Tensor::concat0(&acts).ctx("concat")?)?;
    Ok(())
}

/// Times `f` into stage `i` when tracing.
fn stage<R>(spans: &mut Option<ServeSpans>, i: usize, f: impl FnOnce() -> R) -> R {
    match spans {
        None => f(),
        Some(s) => {
            let t = Instant::now();
            let r = f();
            s.busy[i] += t.elapsed();
            s.calls[i] += 1;
            r
        }
    }
}

/// Serves `requests` (test-sample indices) in a closed loop and checks
/// every answer against the same request run unbatched.
pub fn serve<D: Deployed>(
    model: &mut D,
    test: &InMemoryDataset,
    requests: &[usize],
    codec: WireCodec,
    traced: bool,
) -> Res<ServeOutcome> {
    let transport = MemoryTransport::new(StarTopology::new(SERVE_PLATFORMS));
    let mut batcher: DynamicBatcher<(NodeId, u64, Tensor)> =
        DynamicBatcher::new(SERVE_MAX_BATCH, f64::INFINITY, SERVE_CLIENTS);
    let mut spans = traced.then(ServeSpans::default);
    let mut issued_at: Vec<Option<Instant>> = vec![None; requests.len()];
    let mut served_argmax: Vec<usize> = vec![usize::MAX; requests.len()];
    let mut out = ServeOutcome {
        latencies_ms: Vec::with_capacity(requests.len()),
        gaps_s: Vec::with_capacity(requests.len()),
        logits_digest: FNV_OFFSET,
        ..ServeOutcome::default()
    };
    let mut in_flight = [false; SERVE_CLIENTS];
    let mut next = 0usize;
    let mut done = 0usize;
    let packs_before = medsplit_tensor::ops::plan::stats().packs;
    let start = Instant::now();
    let mut last_answer = start;
    while done < requests.len() {
        // Clients with no request in flight issue their next one.
        while next < requests.len() && !in_flight[client_of(next).0] {
            let (client, platform) = client_of(next);
            let x = features(test, requests[next])?;
            let t0 = Instant::now();
            let acts = stage(&mut spans, 0, || model.infer_l1(platform, &x))?;
            let env = stage(&mut spans, 1, || {
                medsplit_serve::encode_request(
                    NodeId::Platform(platform),
                    next as u64,
                    start.elapsed().as_secs_f64(),
                    f64::INFINITY,
                    &acts,
                    codec,
                )
            });
            transport.send(env).ctx("send request")?;
            issued_at[next] = Some(t0);
            in_flight[client] = true;
            next += 1;
        }
        // The server admits what arrived and flushes due batches.
        while let Some(env) = transport.try_recv(NodeId::Server) {
            let req = stage(&mut spans, 2, || decode_request(&env)).ctx("decode request")?;
            let now = start.elapsed().as_secs_f64();
            stage(&mut spans, 3, || {
                batcher.offer((env.src, req.id, req.activations), now, req.deadline_s)
            });
        }
        let outstanding = in_flight.iter().filter(|&&f| f).count();
        loop {
            let now = start.elapsed().as_secs_f64();
            let batch = stage(&mut spans, 3, || match batcher.take_due(now) {
                Some(b) => Some(b),
                // Nothing else can arrive until these are answered.
                None if batcher.len() == outstanding && !batcher.is_empty() => Some(batcher.take_batch()),
                None => None,
            });
            let Some(batch) = batch else { break };
            let acts: Vec<Tensor> = batch.iter().map(|e| e.item.2.clone()).collect();
            let acts = Tensor::concat0(&acts).ctx("batch concat")?;
            let logits = stage(&mut spans, 4, || model.infer_server(&acts))?;
            out.batches += 1;
            for (row, entry) in batch.iter().enumerate() {
                let (src, id, _) = &entry.item;
                let y = logits.slice0(row, 1).ctx("logit row")?;
                let served_s = start.elapsed().as_secs_f64();
                let env = stage(&mut spans, 5, || {
                    encode_response(
                        *src,
                        *id,
                        entry.enqueued_s,
                        served_s,
                        InferStatus::Ok,
                        Some(&y),
                        codec,
                    )
                });
                transport.send(env).ctx("send response")?;
            }
        }
        // Clients read their answers.
        for platform in 0..SERVE_PLATFORMS {
            while let Some(env) = transport.try_recv(NodeId::Platform(platform)) {
                let resp = stage(&mut spans, 6, || decode_response(&env)).ctx("decode response")?;
                let j = resp.id as usize;
                let t0 = issued_at
                    .get_mut(j)
                    .and_then(Option::take)
                    .ok_or_else(|| format!("response for unknown request {j}"))?;
                let now = Instant::now();
                out.latencies_ms.push(now.duration_since(t0).as_secs_f64() * 1e3);
                out.gaps_s.push(now.duration_since(last_answer).as_secs_f64());
                last_answer = now;
                in_flight[client_of(j).0] = false;
                done += 1;
                match (resp.status, resp.logits) {
                    (InferStatus::Ok, Some(y)) => {
                        for v in y.as_slice() {
                            out.logits_digest = fnv1a(out.logits_digest, &v.to_bits().to_le_bytes());
                        }
                        served_argmax[j] = y.argmax_rows().ctx("argmax")?[0];
                    }
                    _ => out.failed += 1,
                }
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.plan_packs = medsplit_tensor::ops::plan::stats().packs - packs_before;
    out.requests = requests.len();
    out.wire_bytes = transport.stats().snapshot().total_bytes;
    out.spans = spans;

    // Output check: each answer's argmax equals that of the same request
    // run alone, through the same codec.
    let mut reference: std::collections::HashMap<(usize, usize), usize> = Default::default();
    for (j, &idx) in requests.iter().enumerate() {
        let platform = client_of(j).1;
        let want = match reference.get(&(platform, idx)) {
            Some(&a) => a,
            None => {
                let acts = round_trip(&model.infer_l1(platform, &features(test, idx)?)?, codec)?;
                let logits = round_trip(&model.infer_server(&acts)?, codec)?;
                let a = logits.argmax_rows().ctx("argmax")?[0];
                reference.insert((platform, idx), a);
                a
            }
        };
        if served_argmax[j] != usize::MAX && served_argmax[j] != want {
            out.failed += 1;
        }
    }
    Ok(out)
}
