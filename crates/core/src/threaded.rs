//! Thread-per-node split training: the same actors as
//! [`crate::trainer::SplitTrainer`], but with every platform and the
//! server running concurrently on its own OS thread, synchronised only
//! through the transport — shaped like a real deployment.

use medsplit_data::InMemoryDataset;
use medsplit_nn::Architecture;
use medsplit_simnet::{recv_timeout_default, threaded::run_per_node, Envelope, NodeId, Transport};

use crate::config::SplitConfig;
use crate::engine::{evaluate, history, prepare, Actors, Driver};
use crate::error::{Result, SplitError};
use crate::history::{RoundRecord, TrainingHistory};
use crate::platform::Platform;
use crate::server::SplitServer;

enum NodeResult {
    Server(Box<SplitServer>),
    Platform(Box<Platform>, Vec<f32>),
}

fn server_loop<T: Transport>(
    mut server: SplitServer,
    config: &SplitConfig,
    platforms: usize,
    transport: &T,
) -> Result<NodeResult> {
    // One blocking receive per platform, with the shared env-overridable
    // timeout.
    let recv_all = || -> Result<Vec<Envelope>> {
        (0..platforms)
            .map(|_| Ok(transport.recv_timeout(NodeId::Server, recv_timeout_default())?))
            .collect()
    };
    for round in 0..config.rounds {
        server.set_lr(config.lr.lr_at(round));
        for env in server.aggregate_forward(&recv_all()?)? {
            transport.send(env)?;
        }
        for env in server.aggregate_backward(&recv_all()?)? {
            transport.send(env)?;
        }
    }
    Ok(NodeResult::Server(Box::new(server)))
}

fn platform_loop<T: Transport>(
    mut platform: Platform,
    config: &SplitConfig,
    transport: &T,
) -> Result<NodeResult> {
    let node = platform.node();
    let mut losses = Vec::with_capacity(config.rounds);
    for round in 0..config.rounds {
        let _span = medsplit_telemetry::span_round("round", round as u64);
        platform.set_lr(config.lr.lr_at(round));
        let acts = platform.start_round(round as u64)?;
        transport.send(acts)?;
        let logits = transport.recv_timeout(node, recv_timeout_default())?;
        let (grads, loss) = platform.handle_logits(&logits)?;
        losses.push(loss);
        transport.send(grads)?;
        let cut = transport.recv_timeout(node, recv_timeout_default())?;
        platform.handle_cut_grads(&cut)?;
    }
    Ok(NodeResult::Platform(Box::new(platform), losses))
}

/// Trains with one OS thread per node and returns the history.
///
/// Validation, the actors, the final evaluation and the history come
/// from the [`RoundEngine`](crate::RoundEngine); only the node loops are
/// this runtime's own. The server's concatenation order is fixed (sorted
/// by platform id), so the learned parameters — and the total byte
/// count — are bit-identical to a sequential run with the same
/// configuration.
///
/// Per-round byte counts are not observable from inside the node threads,
/// so the records carry evenly interpolated cumulative bytes; the final
/// snapshot is exact.
///
/// # Errors
///
/// Returns configuration errors for invalid or unsupported settings
/// (threaded mode implements the paper-default `Aggregate` +
/// `CommonInit` combination) or a used transport, and propagates any
/// node's protocol error.
pub fn train_threaded<T: Transport>(
    arch: &Architecture,
    config: SplitConfig,
    shards: Vec<InMemoryDataset>,
    test: InMemoryDataset,
    transport: &T,
) -> Result<TrainingHistory> {
    let Actors {
        platforms, server, ..
    } = prepare(arch, &config, shards, transport, Driver::Threaded, None)?;
    let k = platforms.len();

    type NodeFn<'a, T> = Box<dyn FnOnce(NodeId, &T) -> Result<NodeResult> + Send + 'a>;
    let mut nodes: Vec<(NodeId, NodeFn<'_, T>)> = Vec::with_capacity(k + 1);
    let cfg_server = config.clone();
    nodes.push((
        NodeId::Server,
        Box::new(move |_, t: &T| server_loop(server, &cfg_server, k, t)),
    ));
    for platform in platforms {
        let cfg = config.clone();
        nodes.push((
            platform.node(),
            Box::new(move |_, t: &T| platform_loop(platform, &cfg, t)),
        ));
    }

    let train_start = std::time::Instant::now();
    let results = run_per_node(transport, nodes);
    let train_wall_s = train_start.elapsed().as_secs_f64();

    let mut server_back: Option<Box<SplitServer>> = None;
    let mut platforms_back: Vec<(Platform, Vec<f32>)> = Vec::new();
    for (_, result) in results {
        match result? {
            NodeResult::Server(s) => server_back = Some(s),
            NodeResult::Platform(p, losses) => platforms_back.push((*p, losses)),
        }
    }
    let mut server =
        *server_back.ok_or_else(|| SplitError::Protocol("server thread produced no result".into()))?;
    platforms_back.sort_by_key(|(p, _)| p.id());
    let (mut platforms, losses): (Vec<Platform>, Vec<Vec<f32>>) = platforms_back.into_iter().unzip();

    let snap = transport.stats().snapshot();
    let rounds = config.rounds;
    let records: Vec<RoundRecord> = (0..rounds)
        .map(|round| RoundRecord {
            round,
            lr: config.lr.lr_at(round),
            mean_loss: losses.iter().map(|l| l[round]).sum::<f32>() / k as f32,
            cumulative_bytes: snap.total_bytes * (round as u64 + 1) / rounds as u64,
            simulated_time_s: snap.makespan_s * (round as f64 + 1.0) / rounds as f64,
            // Rounds are not observable from inside the node threads
            // (see module docs), so wall time is amortised evenly too.
            wall_time_s: train_wall_s / rounds as f64,
            participants: k,
            degraded: false,
            accuracy: None,
        })
        .collect();
    // Only the final accuracy is measured: the engine's fallback
    // evaluates after the last round.
    history(Driver::Threaded, records, snap, || {
        evaluate(&mut platforms, &mut server, &test, |_| false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SplitConfig;
    use medsplit_data::{partition, MinibatchPolicy, Partition, SyntheticTabular};
    use medsplit_nn::{LrSchedule, MlpConfig};
    use medsplit_simnet::{MemoryTransport, StarTopology};

    fn arch() -> Architecture {
        Architecture::Mlp(MlpConfig {
            input_dim: 6,
            hidden: vec![12],
            num_classes: 3,
        })
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

    fn data(platforms: usize) -> (Vec<InMemoryDataset>, InMemoryDataset) {
        let all = SyntheticTabular::new(3, 6, 0).generate(120).unwrap();
        let train = all.subset(&(0..90).collect::<Vec<_>>()).unwrap();
        let test = all.subset(&(90..120).collect::<Vec<_>>()).unwrap();
        (partition(&train, platforms, &Partition::Iid, 2).unwrap(), test)
    }

    #[test]
    fn threaded_run_learns() {
        let (shards, test) = data(3);
        let transport = MemoryTransport::new(StarTopology::new(3));
        let history = train_threaded(&arch(), config(40), shards, test, &transport).unwrap();
        assert!(
            history.final_accuracy > 0.6,
            "accuracy {}",
            history.final_accuracy
        );
        assert_eq!(history.records.len(), 40);
    }
}
