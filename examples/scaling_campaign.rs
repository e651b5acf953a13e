//! Scaling campaign: a small training-throughput sweep across cluster
//! sizes and context lengths, stepping [`FlexSpSystem`] through its
//! solve → execute loop.
//!
//! ```text
//! cargo run --release --example scaling_campaign
//! ```
//!
//! For each (cluster size, context) point, runs a few FlexSP training
//! iterations end to end and reports token throughput per GPU, the mean
//! All-to-All share, the mean wall-clock solve time, communicator-pool
//! behaviour (paper §5: at most log₂N + 1 cached groups per GPU), and
//! the cost model's mean prediction error against the executed time.

use flexsp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const ITERATIONS: usize = 3;
    println!(
        "{:>6} {:>6} {:>12} {:>10} {:>10} {:>12} {:>10}",
        "GPUs", "ctx", "tok/s/GPU", "a2a share", "solve (s)", "groups/GPU", "pred err"
    );
    for nodes in [2u32, 4, 8] {
        for max_ctx in [64 * 1024u64, 128 * 1024] {
            let cluster = ClusterSpec::a100_cluster(nodes);
            let model = ModelConfig::gpt_7b(max_ctx);
            // Escalate checkpointing until the context fits (App. B.2).
            let policy = [
                ActivationPolicy::None,
                ActivationPolicy::MlpOnly,
                ActivationPolicy::Full,
            ]
            .into_iter()
            .find(|&p| {
                let cost = CostModel::fit(&cluster, &model, p);
                cost.min_degree_for(max_ctx).is_some()
            })
            .expect("some policy fits");

            let mut system = FlexSpSystem::fast(cluster, model, policy);
            let loader = GlobalBatchLoader::new(
                LengthDistribution::common_crawl(),
                32 * nodes as usize,
                max_ctx,
                5,
            );
            let stats = evaluate_system(&mut system, loader, ITERATIONS)?;
            let pred_err = stats
                .mean_prediction_error()
                .expect("FlexSP reports its predictions");
            println!(
                "{:>6} {:>5}K {:>12.0} {:>9.1}% {:>10.3} {:>12} {:>9.1}%",
                stats.num_gpus,
                max_ctx / 1024,
                stats.tokens_per_gpu_s(),
                100.0 * stats.mean_comm_ratio(),
                stats.mean_solve_s(),
                system.executor().pool().max_groups_per_gpu(),
                100.0 * pred_err.abs(),
            );
        }
    }
    Ok(())
}
