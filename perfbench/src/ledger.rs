//! Same-process layer microbenchmarks: each `nn` layer peeled off the
//! model, the optimiser steps, the wire codec on a captured cut tensor,
//! a minibatch gather, and a fixed single-thread reference GEMM that
//! every other rate can be read against.

use std::time::Instant;

use medsplit_core::{resolve_split, SplitPoint, WireCodec};
use medsplit_data::InMemoryDataset;
use medsplit_nn::{Architecture, Layer, Mode, Optimizer, Sequential, Sgd};
use medsplit_tensor::{pool, Tensor};

use crate::report::{median, splitmix_tensor, Res, ResultExt};
use crate::workload::MODEL_SEED;

/// Timing repetitions per layer and per microbenchmark (medians).
const REPS: usize = 7;

/// One layer's forward and backward time at its batch shape.
#[derive(Debug, Clone)]
pub struct LayerTime {
    /// `<idx>_<kind>`, e.g. `00_conv2d`.
    pub name: String,
    pub fwd_us: f64,
    pub bwd_us: f64,
    /// Forward+backward rate for conv and dense layers.
    pub gflops: Option<f64>,
    pub is_conv: bool,
}

fn time_us(f: impl FnMut()) -> f64 {
    let mut f = f;
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Peels the model built from `arch` into single-layer networks.
fn peel(arch: &Architecture) -> Vec<Sequential> {
    let mut rest = arch.build(MODEL_SEED);
    let mut layers = Vec::with_capacity(rest.len());
    while !rest.is_empty() {
        let tail = rest.split_off(1);
        layers.push(rest);
        rest = tail;
    }
    layers
}

/// Times every layer of `arch`: `L1` layers at `l1_batch`, the server
/// suffix at `server_batch`. `sample_dims` is one input sample's shape.
pub fn layers(
    arch: &Architecture,
    sample_dims: &[usize],
    l1_batch: usize,
    server_batch: usize,
) -> Res<Vec<LayerTime>> {
    let split = resolve_split(arch, SplitPoint::Default).ctx("split")?;
    let mut shape: Vec<usize> = std::iter::once(1).chain(sample_dims.iter().copied()).collect();
    let mut out = Vec::new();
    for (idx, mut layer) in peel(arch).into_iter().enumerate() {
        let batch = if idx < split { l1_batch } else { server_batch };
        shape[0] = batch;
        let x = splitmix_tensor(&shape, idx as u64);
        let y = layer.forward(&x, Mode::Train).ctx("layer forward")?;
        let g = Tensor::ones(y.shape().clone());
        layer.backward(&g).ctx("layer backward")?;
        layer.zero_grads();
        let fwd_us = time_us(|| {
            std::hint::black_box(layer.forward(&x, Mode::Train).expect("forward succeeded once"));
        });
        let bwd_us = time_us(|| {
            std::hint::black_box(layer.backward(&g).expect("backward succeeded once"));
        });
        layer.zero_grads();
        let summary = layer.layer_summaries().remove(0);
        let kind: String = summary
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        // Multiply-accumulates of one forward pass; backward costs two
        // passes' worth (input and weight gradients).
        let params = layer.param_count();
        let out_dims = y.dims();
        let macs = match kind.as_str() {
            "dense" => Some(batch * shape[1] * out_dims[1]),
            "conv2d" => {
                let (cin, cout) = (shape[1], out_dims[1]);
                let k2 = (params - cout) / (cout * cin);
                Some(batch * cout * out_dims[2] * out_dims[3] * cin * k2)
            }
            _ => None,
        };
        let gflops = macs.map(|m| 3.0 * 2.0 * m as f64 / ((fwd_us + bwd_us) * 1e3));
        out.push(LayerTime {
            name: format!("{idx:02}_{kind}"),
            fwd_us,
            bwd_us,
            gflops,
            is_conv: kind == "conv2d",
        });
        shape = out_dims.to_vec();
    }
    Ok(out)
}

/// Median SGD-with-momentum step time on the `L1` prefix and on the
/// server suffix of `arch`, in µs.
pub fn optimizer_steps(arch: &Architecture, momentum: f32) -> Res<(f64, f64)> {
    let split = resolve_split(arch, SplitPoint::Default).ctx("split")?;
    let mut l1 = arch.build(MODEL_SEED);
    let mut server = l1.split_off(split);
    let step = |model: &mut Sequential| {
        let mut opt = Sgd::new(0.01).with_momentum(momentum);
        opt.step(model);
        time_us(|| opt.step(model))
    };
    Ok((step(&mut l1), step(&mut server)))
}

/// Encode and decode cost of `cut` in `codec`, in µs per MB of f32
/// tensor data.
pub fn codec(cut: &Tensor, codec: WireCodec) -> Res<(f64, f64)> {
    let bytes = crate::serve::encode(cut, codec);
    Tensor::from_bytes(bytes.clone()).ctx("decode cut tensor")?;
    let mb = cut.numel() as f64 * 4.0 / 1e6;
    let enc = time_us(|| {
        std::hint::black_box(crate::serve::encode(cut, codec));
    });
    let dec = time_us(|| {
        std::hint::black_box(Tensor::from_bytes(bytes.clone()).expect("decoded once"));
    });
    Ok((enc / mb, dec / mb))
}

/// Median `InMemoryDataset::batch` time for one 64-sample evaluation
/// batch, in µs.
pub fn data_batch(test: &InMemoryDataset) -> Res<f64> {
    let idx: Vec<usize> = (0..64.min(test.len())).collect();
    test.batch(&idx).ctx("batch")?;
    Ok(time_us(|| {
        std::hint::black_box(test.batch(&idx).expect("batched once"));
    }))
}

/// Eval-mode VGG-lite forward at the serving batch (8): median time at
/// one pool thread divided by the time at `threads`. Below 1 the pool
/// slows the read path down.
pub fn pool_speedup(arch: &Architecture, sample_dims: &[usize], threads: usize) -> Res<f64> {
    let mut model = arch.build(MODEL_SEED);
    let dims: Vec<usize> = std::iter::once(8).chain(sample_dims.iter().copied()).collect();
    let x = splitmix_tensor(&dims, 3);
    let before = pool::num_threads();
    let mut time_at = |n: usize| -> Res<f64> {
        pool::set_num_threads(n);
        model.forward(&x, Mode::Eval).ctx("forward")?;
        Ok(time_us(|| {
            std::hint::black_box(model.forward(&x, Mode::Eval).expect("forward succeeded once"));
        }))
    };
    let one = time_at(1);
    let many = time_at(threads);
    pool::set_num_threads(before);
    Ok(one? / many?)
}

/// Single-thread 512³ GEMM rate in GFLOP/s: the run's reference kernel.
pub fn ref_gemm_gflops() -> Res<f64> {
    const N: usize = 512;
    let a = splitmix_tensor(&[N, N], 1);
    let b = splitmix_tensor(&[N, N], 2);
    let threads = pool::num_threads();
    pool::set_num_threads(1);
    let r = a.matmul(&b).ctx("reference gemm");
    let us = time_us(|| {
        std::hint::black_box(a.matmul(&b).expect("multiplied once"));
    });
    pool::set_num_threads(threads);
    r?;
    Ok(2.0 * (N * N * N) as f64 / (us * 1e3))
}
