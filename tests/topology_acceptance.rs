//! The README's topology acceptance scenario, pinned: `topology_sweep`'s
//! mixed batch on 4 nodes × 6 GPUs with the inter-node NIC at a quarter
//! of its bandwidth. The shape-aware planner keeps every group of the
//! long-sequence micro-batch inside a node (`<4x4, 2>`), which is what
//! makes it about 1.4× faster than the degree-only ablation there.
//!
//! It plans with `SolverConfig::fast()` as shipped. Its 400-node budget is
//! the only limit on each MILP search, so the plan does not depend on how
//! fast the host runs.

use flexsp::prelude::*;

/// `examples/topology_sweep.rs`'s workload: a few long sequences and many
/// short ones.
fn mixed_batch(max_ctx: u64) -> Vec<Sequence> {
    let lens: Vec<u64> = [
        max_ctx / 2,
        max_ctx / 3,
        max_ctx / 4,
        max_ctx / 4,
        max_ctx / 8,
        max_ctx / 8,
        max_ctx / 8,
    ]
    .into_iter()
    .chain(std::iter::repeat_n(4096, 24))
    .chain(std::iter::repeat_n(2048, 24))
    .collect();
    lens.into_iter()
        .enumerate()
        .map(|(i, l)| Sequence::new(i as u64, l))
        .collect()
}

#[test]
fn odd_width_nodes_behind_a_weak_nic_keep_groups_intra_node() {
    let mut cluster = ClusterSpec::a100_nodes_of(4, 6);
    cluster.net.nic_bw_per_gpu *= 0.25;
    let max_ctx = 8 * 1024 * cluster.num_gpus() as u64 / 4;
    let model = ModelConfig::gpt_7b(max_ctx);
    let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
    let solved = FlexSpSolver::new(cost, SolverConfig::fast())
        .solve_iteration(&mixed_batch(max_ctx))
        .expect("the batch fits the cluster");
    let long = &solved.plan.micro_batches[1];
    // The plan that loses this scenario's speedup spans two nodes with
    // SP4 groups (`<4/2nx2, 4x4>`, 8.04 s predicted).
    assert_eq!(long.shape_signature(), "<4x4, 2>");
    assert!(
        solved.predicted_s < 6.0,
        "predicted {:.4} s for {}",
        solved.predicted_s,
        solved.plan.shape_signature()
    );
}
