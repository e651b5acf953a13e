//! Pins the exact branch-and-bound trajectory of one planner call.
//!
//! The instance is twelve sequences of `1024·(1 + i % 16)` tokens, GPT-7B
//! at a 384K context on 8×8 A100s, bucketed to 16, planned with the
//! default configuration under a node budget loose enough (100 000 nodes)
//! that it never binds. Every binary-search step therefore drains or
//! closes its gap. The search is a pure function of the model, as every
//! search is: the same node order, LP solves, pivots and incumbents on
//! every host. Any change to the branch-and-bound loop, the LP engine or
//! the warm-start plumbing that alters the search shows up here as a
//! counter mismatch. This file pins counts, not time: the planner's
//! component timings are the `cost.*`, `core.*` and `milp.*` layer
//! metrics of the benchmark's `train_fig6` workload run with `--trace 1`.

use flexsp_core::bucketing::bucket_dp;
use flexsp_core::{plan_micro_batch, PlannerConfig};
use flexsp_cost::CostModel;
use flexsp_data::Sequence;
use flexsp_model::{ActivationPolicy, ModelConfig};
use flexsp_sim::ClusterSpec;

#[test]
fn default_planner_search_trajectory_is_pinned() {
    let cluster = ClusterSpec::a100_cluster(8);
    let model = ModelConfig::gpt_7b(384 << 10);
    let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
    let input: Vec<Sequence> = (0..12)
        .map(|i| Sequence::new(i, 1024 * (1 + (i % 16))))
        .collect();
    let buckets = bucket_dp(&input, 16);
    let ample = PlannerConfig {
        milp_node_limit: 100_000,
        ..PlannerConfig::default()
    };

    let plan = plan_micro_batch(&cost, &buckets, 64, &ample).expect("instance is feasible");
    let s = plan.stats;
    assert_eq!(s.model_builds, 1, "{s:?}");
    assert_eq!(s.search_steps, 7, "{s:?}");
    assert_eq!(s.milp.nodes, 27, "{s:?}");
    assert_eq!(s.milp.lp_solves, 53, "{s:?}");
    assert_eq!(s.milp.primal_pivots, 85, "{s:?}");
    assert_eq!(s.milp.dual_pivots, 314, "{s:?}");
    assert_eq!(s.milp.refactorizations, 1, "{s:?}");
    assert_eq!(s.milp.heuristic_incumbents, 2, "{s:?}");
    assert_eq!(plan.shape_signature(), "<8x8>");
}
