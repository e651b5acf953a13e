//! Cross-crate integration tests: full training loops, system ordering,
//! communicator-pool invariants, and reproducibility.

use flexsp::prelude::*;

fn flexsp(nodes: u32, ctx: u64) -> FlexSpSystem {
    FlexSpSystem::fast(
        ClusterSpec::a100_cluster(nodes),
        ModelConfig::gpt_7b(ctx),
        ActivationPolicy::None,
    )
}

fn loader(batch: usize, ctx: u64, seed: u64) -> GlobalBatchLoader {
    GlobalBatchLoader::new(LengthDistribution::common_crawl(), batch, ctx, seed)
}

#[test]
fn training_loop_runs_and_reports() {
    let stats = evaluate_system(&mut flexsp(2, 64 * 1024), loader(64, 64 * 1024, 1), 3)
        .expect("training runs");
    assert!(stats.mean_iteration_s() > 0.0);
    assert!(stats.tokens_per_gpu_s() > 0.0);
    assert!(
        stats.mean_comm_ratio() > 0.0,
        "FlexSP reports its All-to-All"
    );
    // Solver predictions track execution (the paper's premise that the
    // cost model is accurate enough to optimize against); the model
    // leaves out the optimizer step and exposed ZeRO slivers.
    let pred_err = stats
        .mean_prediction_error()
        .expect("FlexSP reports its predictions");
    assert!(pred_err.abs() < 0.25, "prediction error {pred_err}");
}

#[test]
fn group_pool_respects_log_n_bound() {
    // Across many varied iterations, aligned placement keeps every GPU in
    // at most log2(N) + 1 distinct communicators (paper §5), and later
    // iterations reuse the communicators earlier ones built.
    let mut fx = flexsp(2, 64 * 1024);
    evaluate_system(&mut fx, loader(64, 64 * 1024, 2), 5).expect("training runs");
    let n: u32 = 16;
    let bound = (n.ilog2() + 1) as usize;
    let pool = fx.executor().pool();
    let max_groups = pool.max_groups_per_gpu();
    assert!(
        max_groups <= bound,
        "pool holds {max_groups} groups for one GPU, bound {bound}"
    );
    assert!(
        pool.stats().hits > 0,
        "iterations should reuse cached communicators"
    );
}

#[test]
fn simulated_training_is_deterministic() {
    let run = || {
        let stats = evaluate_system(&mut flexsp(2, 64 * 1024), loader(48, 64 * 1024, 3), 2)
            .expect("training runs");
        stats
            .reports
            .iter()
            .map(|r| (r.tokens, r.total_s.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "same seed must give identical simulations");
}

#[test]
fn systems_rank_as_in_the_paper() {
    // FlexSP <= BatchAda <= max(DeepSpeed, Megatron) on skewed data.
    let cluster = ClusterSpec::a100_cluster(8);
    let model = ModelConfig::gpt_7b(192 * 1024);
    let policy = ActivationPolicy::None;
    let loader = || GlobalBatchLoader::new(LengthDistribution::wikipedia(), 128, 192 * 1024, 4);

    let mut ds = DeepSpeedUlysses::new(cluster.clone(), model.clone(), policy).unwrap();
    let mut mg = MegatronLm::new(cluster.clone(), model.clone(), policy);
    let mut ada = FlexSpBatchAda::new(cluster.clone(), model.clone(), policy);
    let mut fx = FlexSpSystem::fast(cluster, model, policy);

    let t_ds = evaluate_system(&mut ds, loader(), 2)
        .unwrap()
        .mean_iteration_s();
    let t_mg = evaluate_system(&mut mg, loader(), 2)
        .unwrap()
        .mean_iteration_s();
    let t_ada = evaluate_system(&mut ada, loader(), 2)
        .unwrap()
        .mean_iteration_s();
    let t_fx = evaluate_system(&mut fx, loader(), 2)
        .unwrap()
        .mean_iteration_s();

    assert!(t_fx < t_ds, "FlexSP {t_fx:.2} vs DeepSpeed {t_ds:.2}");
    assert!(t_fx < t_mg, "FlexSP {t_fx:.2} vs Megatron {t_mg:.2}");
    assert!(
        t_fx <= t_ada * 1.02,
        "FlexSP {t_fx:.2} vs BatchAda {t_ada:.2}"
    );
    assert!(
        t_ada < t_ds * 1.02,
        "BatchAda {t_ada:.2} vs DeepSpeed {t_ds:.2}"
    );
}

#[test]
fn longer_context_forces_memory_pressure() {
    // Growing the context at fixed data raises the minimum SP degree for
    // the longest sequences, visible through the cost model.
    let cluster = ClusterSpec::a100_cluster(8);
    let policy = ActivationPolicy::None;
    let short = CostModel::fit(&cluster, &ModelConfig::gpt_7b(64 * 1024), policy);
    let long = CostModel::fit(&cluster, &ModelConfig::gpt_7b(384 * 1024), policy);
    let d_short = short.min_degree_for(64 * 1024).unwrap();
    let d_long = long.min_degree_for(384 * 1024).unwrap();
    assert!(d_long > d_short);
    assert_eq!(d_long, 64, "384K requires the full cluster (paper §6.2)");
}

#[test]
fn milp_solver_accepts_planner_scale_problems() {
    // A direct cross-check that the MILP substrate handles the planner's
    // production problem sizes within its budget.
    use flexsp::milp::{LinExpr, MilpSolver, Problem, VarKind};

    let mut p = Problem::minimize();
    let degrees = [1u32, 2, 4, 8, 16, 32, 64];
    let n_vars: Vec<_> = degrees
        .iter()
        .map(|d| p.add_var(format!("n{d}"), VarKind::Integer, 0.0, (64 / d) as f64))
        .collect();
    let mut budget = LinExpr::new();
    for (v, d) in n_vars.iter().zip(degrees) {
        budget.add_term(*v, d as f64);
    }
    p.add_le(budget, 64.0);
    // Require at least 20 group-slots of capacity 1..d each.
    let mut cap = LinExpr::new();
    for (v, d) in n_vars.iter().zip(degrees) {
        cap.add_term(*v, d as f64);
    }
    p.add_ge(cap, 20.0);
    let mut obj = LinExpr::new();
    for (v, d) in n_vars.iter().zip(degrees) {
        obj.add_term(*v, 1.0 + (d as f64).ln());
    }
    p.set_objective(obj);
    let sol = MilpSolver::new().solve(&p).unwrap();
    assert!(sol.status().has_solution());
}
