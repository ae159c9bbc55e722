//! The server-side actor: owns the hidden layers `L2..Lk` and the output
//! layer, and trains them on activations from *all* platforms.

use medsplit_nn::{Layer, Mode, Optimizer, Sequential};
use medsplit_simnet::{Envelope, MessageKind, NodeId};
use medsplit_tensor::Tensor;

use crate::config::WireCodec;
use crate::error::{Result, SplitError};
#[cfg(test)]
use crate::messages::tensor_envelope;
use crate::messages::{decode_tensor, sender_platform, tensor_envelope_codec};

/// The central server: layers `L2..Lk`, an optimiser for them, and the
/// per-round bookkeeping needed to route logits and cut gradients back to
/// the right platform.
pub struct SplitServer {
    model: Sequential,
    optimizer: Box<dyn Optimizer>,
    /// Batch layout of the in-flight aggregated round:
    /// `(platform, batch_size)` in concatenation order.
    layout: Vec<(usize, usize)>,
    codec: WireCodec,
    /// Kind of the server's forward output (Logits for the standard
    /// protocol; Features for the U-shaped variant).
    fwd_out_kind: MessageKind,
    /// Kind expected for the platforms' backward input (LogitGrads /
    /// FeatureGrads).
    bwd_in_kind: MessageKind,
}

impl SplitServer {
    /// Creates the server actor from the `L2..Lk` suffix of the network.
    pub fn new(model: Sequential, momentum: f32) -> Self {
        SplitServer {
            model,
            optimizer: crate::config::OptimizerKind::Sgd.build(momentum),
            layout: Vec::new(),
            codec: WireCodec::F32,
            fwd_out_kind: MessageKind::Logits,
            bwd_in_kind: MessageKind::LogitGrads,
        }
    }

    /// Creates a server for the U-shaped variant: its forward output is a
    /// feature map (the platform holds the classifier head), so the
    /// messages are tagged [`MessageKind::Features`] /
    /// [`MessageKind::FeatureGrads`].
    pub fn new_u_shaped(model: Sequential, momentum: f32) -> Self {
        let mut s = Self::new(model, momentum);
        s.fwd_out_kind = MessageKind::Features;
        s.bwd_in_kind = MessageKind::FeatureGrads;
        s
    }

    /// Sets the learning rate for the server-side optimiser.
    pub fn set_lr(&mut self, lr: f32) {
        self.optimizer.set_learning_rate(lr);
    }

    /// Sets the wire codec used for outbound protocol tensors.
    pub fn set_codec(&mut self, codec: WireCodec) {
        self.codec = codec;
    }

    /// Replaces the server-side optimiser (resets its state).
    pub fn set_optimizer(&mut self, optimizer: Box<dyn Optimizer>) {
        self.optimizer = optimizer;
    }

    /// Mutable access to the server model (evaluation, checkpointing).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }

    /// Number of trainable parameters on the server side.
    pub fn param_count(&mut self) -> usize {
        self.model.param_count()
    }

    /// Runs the server layers in inference mode (used to compose the
    /// deployed model during evaluation and by the serving path).
    ///
    /// The forward runs in [`Mode::Eval`] and the model's recorded mode is
    /// restored afterwards, so inference interleaved with training leaves
    /// no trace: no dropout, no running-statistics updates, no cached
    /// backward state, and the mode bookkeeping a caller may rely on is
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors.
    pub fn infer(&mut self, activations: &Tensor) -> Result<Tensor> {
        let prior = self.model.mode();
        let result = self.model.forward(activations, Mode::Eval);
        self.model.set_mode(prior);
        Ok(result?)
    }

    /// Serialises the server model (parameters + batch-norm state) into a
    /// checkpoint blob, so a crashed server can resume without retraining.
    pub fn checkpoint(&mut self) -> bytes::Bytes {
        medsplit_nn::vectorize::snapshot_vector(&mut self.model).to_bytes()
    }

    /// FNV-1a digest of the server model's full snapshot (parameters +
    /// batch-norm state). Fleet replicas use it to verify that a restored
    /// weight version is bit-identical to the bank's copy without moving
    /// the snapshot again.
    pub fn weights_digest(&mut self) -> u64 {
        medsplit_nn::vectorize::parameter_digest(&mut self.model)
    }

    /// Restores a checkpoint produced by [`checkpoint`](Self::checkpoint).
    ///
    /// Optimiser momentum is not part of the checkpoint: after a restore,
    /// training resumes with fresh momentum buffers (the standard
    /// trade-off for parameter-only checkpoints).
    ///
    /// # Errors
    ///
    /// Returns tensor errors for corrupt blobs or mismatched
    /// architectures.
    pub fn restore(&mut self, blob: &bytes::Bytes) -> Result<()> {
        let snapshot = Tensor::from_bytes(blob.clone())?;
        medsplit_nn::vectorize::load_snapshot_vector(&mut self.model, &snapshot)?;
        Ok(())
    }

    /// **Aggregate forward**: concatenates all platforms' activation
    /// batches (sorted by platform id), runs one forward pass, and returns
    /// per-platform logits messages. Under round-robin scheduling the
    /// star calls it with one platform's activations at a time.
    ///
    /// # Errors
    ///
    /// Returns protocol errors for duplicate/foreign senders or decode
    /// failures.
    pub fn aggregate_forward(&mut self, acts: &[Envelope]) -> Result<Vec<Envelope>> {
        if acts.is_empty() {
            return Err(SplitError::Protocol("aggregate round with no activations".into()));
        }
        let round = acts[0].round;
        let _span = medsplit_telemetry::span_round("server_fwd_bwd", round);
        let mut decoded: Vec<(usize, Tensor)> = Vec::with_capacity(acts.len());
        for env in acts {
            let pid = sender_platform(env)?;
            if decoded.iter().any(|(p, _)| *p == pid) {
                return Err(SplitError::Protocol(format!(
                    "duplicate activations from platform {pid}"
                )));
            }
            decoded.push((pid, decode_tensor(env, MessageKind::Activations)?));
        }
        decoded.sort_by_key(|(pid, _)| *pid);
        self.layout = decoded.iter().map(|(pid, t)| (*pid, t.dims()[0])).collect();
        let tensors: Vec<Tensor> = decoded.into_iter().map(|(_, t)| t).collect();
        let batch = Tensor::concat0(&tensors)?;
        let logits = self.model.forward(&batch, Mode::Train)?;
        // Slice logits back out per platform, in layout order.
        let mut out = Vec::with_capacity(self.layout.len());
        let mut offset = 0;
        for &(pid, n) in &self.layout {
            let slice = logits.slice0(offset, n)?;
            offset += n;
            out.push(tensor_envelope_codec(
                NodeId::Server,
                NodeId::Platform(pid),
                round,
                self.fwd_out_kind,
                &slice,
                self.codec,
            ));
        }
        Ok(out)
    }

    /// **Aggregate backward**: concatenates the platforms' logit
    /// gradients (in the layout order of the forward), backpropagates
    /// once, applies the optimiser step, and returns per-platform
    /// cut-gradient messages.
    ///
    /// # Errors
    ///
    /// Returns protocol errors if the senders or batch sizes do not match
    /// the in-flight layout.
    pub fn aggregate_backward(&mut self, grads: &[Envelope]) -> Result<Vec<Envelope>> {
        let _span = match grads.first() {
            Some(g) => medsplit_telemetry::span_round("server_fwd_bwd", g.round),
            None => medsplit_telemetry::span("server_fwd_bwd"),
        };
        if self.layout.is_empty() {
            return Err(SplitError::Protocol(
                "aggregate backward with no forward in flight".into(),
            ));
        }
        if grads.len() != self.layout.len() {
            return Err(SplitError::Protocol(format!(
                "expected {} gradient messages, got {}",
                self.layout.len(),
                grads.len()
            )));
        }
        let round = grads[0].round;
        let mut by_pid: Vec<Option<Tensor>> = vec![None; self.layout.len()];
        for env in grads {
            let pid = sender_platform(env)?;
            let slot = self.layout.iter().position(|(p, _)| *p == pid).ok_or_else(|| {
                SplitError::Protocol(format!("gradients from platform {pid} not in this round"))
            })?;
            if by_pid[slot].is_some() {
                return Err(SplitError::Protocol(format!(
                    "duplicate gradients from platform {pid}"
                )));
            }
            let t = decode_tensor(env, self.bwd_in_kind)?;
            if t.dims()[0] != self.layout[slot].1 {
                return Err(SplitError::Protocol(format!(
                    "platform {pid} sent a gradient batch of {} rows, expected {}",
                    t.dims()[0],
                    self.layout[slot].1
                )));
            }
            by_pid[slot] = Some(t);
        }
        let tensors: Vec<Tensor> = by_pid.into_iter().map(|t| t.expect("all slots filled")).collect();
        let grad = Tensor::concat0(&tensors)?;
        let cut = self.model.backward(&grad)?;
        self.optimizer.step_and_zero(&mut self.model);
        let mut out = Vec::with_capacity(self.layout.len());
        let mut offset = 0;
        for &(pid, n) in &self.layout {
            let slice = cut.slice0(offset, n)?;
            offset += n;
            out.push(tensor_envelope_codec(
                NodeId::Server,
                NodeId::Platform(pid),
                round,
                MessageKind::CutGrads,
                &slice,
                self.codec,
            ));
        }
        self.layout.clear();
        Ok(out)
    }
}

impl std::fmt::Debug for SplitServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplitServer")
            .field("model", &self.model.describe())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsplit_nn::Dense;
    use medsplit_tensor::init::rng_from_seed;

    fn server(seed: u64) -> SplitServer {
        let mut rng = rng_from_seed(seed);
        let mut s = Sequential::new("server");
        s.push(Dense::new(6, 3, &mut rng));
        SplitServer::new(s, 0.0)
    }

    fn acts_env(pid: usize, rows: usize, round: u64) -> Envelope {
        tensor_envelope(
            NodeId::Platform(pid),
            NodeId::Server,
            round,
            MessageKind::Activations,
            &Tensor::ones([rows, 6]),
        )
    }

    fn grads_env(pid: usize, rows: usize, round: u64) -> Envelope {
        tensor_envelope(
            NodeId::Platform(pid),
            NodeId::Server,
            round,
            MessageKind::LogitGrads,
            &Tensor::full([rows, 3], 0.1),
        )
    }

    #[test]
    fn aggregate_roundtrip_slices_per_platform() {
        let mut s = server(0);
        let logits = s
            .aggregate_forward(&[acts_env(1, 2, 0), acts_env(0, 3, 0)])
            .unwrap();
        // Sorted by platform id regardless of arrival order.
        assert_eq!(logits[0].dst, NodeId::Platform(0));
        assert_eq!(
            decode_tensor(&logits[0], MessageKind::Logits).unwrap().dims(),
            &[3, 3]
        );
        assert_eq!(
            decode_tensor(&logits[1], MessageKind::Logits).unwrap().dims(),
            &[2, 3]
        );

        let cuts = s
            .aggregate_backward(&[grads_env(0, 3, 0), grads_env(1, 2, 0)])
            .unwrap();
        assert_eq!(
            decode_tensor(&cuts[0], MessageKind::CutGrads).unwrap().dims(),
            &[3, 6]
        );
        assert_eq!(
            decode_tensor(&cuts[1], MessageKind::CutGrads).unwrap().dims(),
            &[2, 6]
        );
    }

    #[test]
    fn aggregate_protocol_violations() {
        let mut s = server(1);
        assert!(s.aggregate_forward(&[]).is_err());
        assert!(s.aggregate_backward(&[grads_env(0, 2, 0)]).is_err());
        let _ = s.aggregate_forward(&[acts_env(0, 2, 0)]).unwrap();
        // Wrong platform.
        assert!(s.aggregate_backward(&[grads_env(1, 2, 0)]).is_err());
        // Wrong batch size.
        assert!(s.aggregate_backward(&[grads_env(0, 5, 0)]).is_err());
        // Duplicate activations.
        let mut s2 = server(2);
        assert!(s2
            .aggregate_forward(&[acts_env(0, 2, 0), acts_env(0, 2, 0)])
            .is_err());
    }

    #[test]
    fn aggregate_updates_parameters() {
        let mut s = server(3);
        let before = medsplit_nn::vectorize::parameter_vector(s.model_mut());
        let _ = s.aggregate_forward(&[acts_env(0, 4, 0)]).unwrap();
        s.set_lr(0.5);
        let _ = s.aggregate_backward(&[grads_env(0, 4, 0)]).unwrap();
        let after = medsplit_nn::vectorize::parameter_vector(s.model_mut());
        assert_ne!(before, after);
    }

    #[test]
    fn infer_is_deterministic_and_restores_mode() {
        let mut rng = rng_from_seed(5);
        let mut m = Sequential::new("server");
        m.push(Dense::new(6, 8, &mut rng));
        m.push(medsplit_nn::BatchNorm::new(8));
        m.push(medsplit_nn::Dropout::new(0.3, 5));
        m.push(Dense::new(8, 3, &mut rng));
        let mut s = SplitServer::new(m, 0.0);

        // Mid-training inference: a forward is in flight.
        let _ = s.aggregate_forward(&[acts_env(0, 2, 0)]).unwrap();
        assert_eq!(s.model_mut().mode(), Mode::Train);
        let x = Tensor::full([4, 6], 0.5);
        let a = s.infer(&x).unwrap();
        let b = s.infer(&x).unwrap();
        assert_eq!(a.as_slice(), b.as_slice(), "eval inference must be deterministic");
        assert_eq!(s.model_mut().mode(), Mode::Train, "mode must be restored");
        // The in-flight exchange still completes against the training cache.
        assert!(s.aggregate_backward(&[grads_env(0, 2, 0)]).is_ok());
    }

    #[test]
    fn weights_digest_matches_checkpoint_identity() {
        let mut a = server(6);
        let mut b = server(7);
        assert_ne!(a.weights_digest(), b.weights_digest());
        let blob = a.checkpoint();
        b.restore(&blob).unwrap();
        assert_eq!(a.weights_digest(), b.weights_digest());
    }
}
