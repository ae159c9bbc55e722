//! Cross-feature interactions: extensions must compose.

use medsplit::core::{L1Sync, SplitConfig, SplitTrainer, UShapeTrainer, WireCodec};
use medsplit::data::{partition, InMemoryDataset, MinibatchPolicy, Partition, SyntheticTabular};
use medsplit::nn::{Architecture, Layer, LrSchedule, MlpConfig, Mode};
use medsplit::simnet::{LinkSpec, MemoryTransport, MessageKind, NodeId, StarTopology, Transport};

fn arch() -> Architecture {
    Architecture::Mlp(MlpConfig {
        input_dim: 8,
        hidden: vec![16, 12],
        num_classes: 3,
    })
}

fn data() -> (Vec<InMemoryDataset>, InMemoryDataset) {
    let all = SyntheticTabular::new(3, 8, 4).generate(160).unwrap();
    let train = all.subset(&(0..120).collect::<Vec<_>>()).unwrap();
    let test = all.subset(&(120..160).collect::<Vec<_>>()).unwrap();
    (partition(&train, 2, &Partition::Iid, 1).unwrap(), test)
}

fn config(rounds: usize) -> SplitConfig {
    SplitConfig {
        rounds,
        eval_every: 0,
        lr: LrSchedule::Constant(0.1),
        minibatch: MinibatchPolicy::Fixed(8),
        ..SplitConfig::default()
    }
}

#[test]
fn ushape_with_f16_codec_learns_and_halves_traffic() {
    let (shards, test) = data();
    let run = |codec: WireCodec| {
        let transport = MemoryTransport::new(StarTopology::new(2));
        let mut cfg = config(40);
        cfg.codec = codec;
        let mut trainer =
            UShapeTrainer::new(&arch(), cfg, 1, shards.clone(), test.clone(), &transport).unwrap();
        trainer.run().unwrap()
    };
    let exact = run(WireCodec::F32);
    let half = run(WireCodec::F16);
    assert!(half.stats.total_bytes < exact.stats.total_bytes * 3 / 5);
    assert!(
        half.final_accuracy > 0.6,
        "f16 U-shape accuracy {}",
        half.final_accuracy
    );
    assert!(exact.final_accuracy > 0.6);
}

#[test]
fn l1_sync_composes_with_noise_and_codec() {
    let (shards, test) = data();
    let transport = MemoryTransport::new(StarTopology::new(2));
    let mut cfg = config(30);
    cfg.l1_sync = L1Sync::PeriodicAverage { every: 5 };
    cfg.codec = WireCodec::F16;
    cfg.activation_noise = 0.1;
    let mut trainer = SplitTrainer::new(&arch(), cfg, shards, test, &transport).unwrap();
    let history = trainer.run().unwrap();
    assert!(
        history.final_accuracy > 0.6,
        "accuracy {}",
        history.final_accuracy
    );
    // Sync traffic stays exact-precision (parameters must not be rounded),
    // while protocol tensors are half-precision.
    assert!(history.stats.bytes_of(MessageKind::L1Sync) > 0);
    let p0 = trainer.platforms_mut()[0].l1_parameters();
    let p1 = trainer.platforms_mut()[1].l1_parameters();
    assert_eq!(p0, p1, "periodic averaging must leave identical L1s");
}

#[test]
fn dropout_model_trains_through_the_protocol() {
    // A custom architecture with dropout exercises train/eval mode
    // switching across the cut: dropout masks during protocol rounds,
    // identity during evaluation.
    use medsplit::nn::{Activation, Dense, Dropout, Sequential};
    use medsplit_tensor::init::rng_from_seed;

    // Build the same dropout MLP twice (platform prefix and full).
    let build = |seed: u64| {
        let mut rng = rng_from_seed(seed);
        let mut s = Sequential::new("dropout-mlp");
        s.push(Dense::new(8, 24, &mut rng));
        s.push(Activation::relu());
        s.push(Dropout::new(0.2, seed));
        s.push(Dense::new(24, 3, &mut rng));
        s
    };
    // Sanity: dropout changes train-mode outputs but not eval-mode ones.
    let mut m = build(0);
    let x = medsplit::tensor::Tensor::ones([4, 8]);
    let e1 = m.forward(&x, Mode::Eval).unwrap();
    let e2 = m.forward(&x, Mode::Eval).unwrap();
    assert_eq!(e1, e2);
    let t1 = m.forward(&x, Mode::Train).unwrap();
    let t2 = m.forward(&x, Mode::Train).unwrap();
    assert_ne!(t1, t2, "dropout masks must differ between train batches");
}

#[test]
fn asymmetric_links_shape_the_simulated_clock() {
    let (shards, test) = data();
    let run = |uplink: LinkSpec| {
        let topology = StarTopology::new(2)
            .with_uplink(uplink)
            .with_downlink(LinkSpec::lan());
        let transport = MemoryTransport::new(topology);
        let mut cfg = config(10);
        cfg.compute = medsplit::core::ComputeModel::off();
        let mut trainer = SplitTrainer::new(&arch(), cfg, shards.clone(), test.clone(), &transport).unwrap();
        trainer.run().unwrap().stats.makespan_s
    };
    let fast = run(LinkSpec::lan());
    let slow = run(LinkSpec::broadband());
    assert!(
        slow > fast,
        "slower uplink must lengthen the simulated run: {slow} vs {fast}"
    );
}

#[test]
fn per_platform_override_slows_only_that_spoke() {
    let (shards, test) = data();
    let slow_link = LinkSpec {
        bandwidth_bps: 1e6,
        latency_s: 0.2,
    };
    let topology = StarTopology::new(2)
        .with_uplink(LinkSpec::lan())
        .with_downlink(LinkSpec::lan())
        .with_override(NodeId::Platform(1), NodeId::Server, slow_link);
    let transport = MemoryTransport::new(topology);
    let mut cfg = config(5);
    cfg.compute = medsplit::core::ComputeModel::off();
    let mut trainer = SplitTrainer::new(&arch(), cfg, shards, test, &transport).unwrap();
    let _ = trainer.run().unwrap();
    // The slow spoke's messages dominate the server's clock.
    let server_clock = transport.stats().clock(NodeId::Server);
    assert!(server_clock > 1.0, "slow spoke must dominate: {server_clock}");
}

/// The U-shape validates its configuration and transport like every
/// other driver: zero rounds and a transport that already carried
/// traffic are configuration errors, not silent runs.
#[test]
fn ushape_rejects_zero_rounds_and_a_used_transport() {
    use medsplit::core::SplitError;
    use medsplit::simnet::Envelope;

    let (shards, test) = data();
    let transport = MemoryTransport::new(StarTopology::new(2));
    assert!(matches!(
        UShapeTrainer::new(&arch(), config(0), 1, shards.clone(), test.clone(), &transport),
        Err(SplitError::Config(_))
    ));
    transport
        .send(Envelope::control(NodeId::Platform(0), NodeId::Server, 0))
        .unwrap();
    assert!(matches!(
        UShapeTrainer::new(&arch(), config(2), 1, shards, test, &transport),
        Err(SplitError::Config(_))
    ));
}

/// A U-shape with no tail is the star with relabelled messages, compute
/// charge included: losses, accuracy, byte and message totals and the
/// simulated makespan match the star's to the bit.
#[test]
fn ushape_without_a_tail_equals_the_star_with_compute_charged() {
    let (shards, test) = data();
    let cfg = SplitConfig {
        eval_every: 4,
        compute: medsplit::core::ComputeModel::hospital_default(),
        ..config(10)
    };
    let t1 = MemoryTransport::new(StarTopology::new(2));
    let mut u = UShapeTrainer::new(&arch(), cfg.clone(), 0, shards.clone(), test.clone(), &t1).unwrap();
    let hu = u.run().unwrap();
    let t2 = MemoryTransport::new(StarTopology::new(2));
    let mut s = SplitTrainer::new(&arch(), cfg, shards, test, &t2).unwrap();
    let hs = s.run().unwrap();

    assert_eq!(hu.method, "split_ushape");
    for (a, b) in hu.records.iter().zip(&hs.records) {
        assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits(), "round {}", a.round);
        assert_eq!(
            a.accuracy.map(f32::to_bits),
            b.accuracy.map(f32::to_bits),
            "round {}",
            a.round
        );
        assert_eq!(
            a.simulated_time_s.to_bits(),
            b.simulated_time_s.to_bits(),
            "round {}",
            a.round
        );
    }
    assert_eq!(hu.final_accuracy.to_bits(), hs.final_accuracy.to_bits());
    assert_eq!(hu.stats.total_bytes, hs.stats.total_bytes);
    assert_eq!(hu.stats.logical_bytes, hs.stats.logical_bytes);
    assert_eq!(hu.stats.messages, hs.stats.messages);
    assert_eq!(hu.stats.uplink_bytes, hs.stats.uplink_bytes);
    assert_eq!(hu.stats.downlink_bytes, hs.stats.downlink_bytes);
    assert!(hs.stats.makespan_s > 0.0);
    assert_eq!(hu.stats.makespan_s.to_bits(), hs.stats.makespan_s.to_bits());
    // Only the kinds differ: features travel where logits would.
    assert_eq!(
        hu.stats.bytes_of(MessageKind::Features),
        hs.stats.bytes_of(MessageKind::Logits)
    );
}
