//! Criterion microbenchmarks of the FlexSP solver components: bucketing
//! DP, blaster DP, heuristic and MILP planners, and the full Algorithm 1 —
//! plus a per-phase solver-trajectory report (build / LP+branch-and-bound
//! / basis-reuse hit rate) emitted as one JSON line so future PRs can
//! track the solver's speed trajectory without parsing bench prose.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use flexsp_telemetry as tel;

use flexsp_core::blaster::blast;
use flexsp_core::bucketing::bucket_dp;
use flexsp_core::{plan_micro_batch, FlexSpSolver, PlannerConfig, SolverConfig};
use flexsp_cost::CostModel;
use flexsp_data::{GlobalBatchLoader, LengthDistribution, Sequence};
use flexsp_model::{ActivationPolicy, ModelConfig};
use flexsp_sim::ClusterSpec;

fn paper_batch(n: usize) -> Vec<Sequence> {
    GlobalBatchLoader::new(LengthDistribution::common_crawl(), n, 384 << 10, 13).next_batch()
}

fn cost64() -> CostModel {
    let cluster = ClusterSpec::a100_cluster(8);
    let model = ModelConfig::gpt_7b(384 << 10);
    CostModel::fit(&cluster, &model, ActivationPolicy::None)
}

fn bench_components(c: &mut Criterion) {
    let batch512 = paper_batch(512);
    let cost = cost64();

    c.bench_function("bucketing_dp_512seq_q16", |b| {
        b.iter(|| bucket_dp(black_box(&batch512), 16))
    });

    c.bench_function("blaster_dp_512seq_m8", |b| {
        b.iter(|| blast(black_box(&batch512), 8, true))
    });

    // The placement engine on a realistic heterogeneous degree mix.
    let topo = flexsp_sim::Topology::new(8, 8);
    c.bench_function("placement_engine_64gpu", |b| {
        b.iter(|| {
            flexsp_core::place_degrees(black_box(&topo), black_box(&[32, 8, 8, 4, 4, 2, 2, 1, 1]))
        })
    });

    let micro = blast(&batch512, 8, true).swap_remove(0);
    let buckets = bucket_dp(&micro, 16);
    c.bench_function("planner_heuristic_microbatch", |b| {
        b.iter(|| {
            plan_micro_batch(
                black_box(&cost),
                black_box(&buckets),
                64,
                &PlannerConfig::heuristic_only(),
            )
        })
    });

    c.bench_function("planner_aggregated_milp_microbatch", |b| {
        b.iter(|| {
            plan_micro_batch(
                black_box(&cost),
                black_box(&buckets),
                64,
                &PlannerConfig::fast(),
            )
        })
    });

    let solver = FlexSpSolver::new(cost.clone(), SolverConfig::fast());
    c.bench_function("solver_full_iteration_512seq", |b| {
        b.iter_batched(
            || batch512.clone(),
            |batch| solver.solve_iteration(black_box(&batch)),
            BatchSize::LargeInput,
        )
    });

    c.bench_function("cost_model_fit", |b| {
        let cluster = ClusterSpec::a100_cluster(8);
        let model = ModelConfig::gpt_7b(384 << 10);
        b.iter(|| {
            CostModel::fit(
                black_box(&cluster),
                black_box(&model),
                ActivationPolicy::None,
            )
        })
    });

    // Formulation ablation (see the `flexsp_core::planner` module doc):
    // the paper-faithful per-group MILP vs the symmetry-reduced
    // aggregated MILP on an 8-GPU instance where both are tractable.
    let small_cluster = ClusterSpec::a100_cluster(1);
    let small_model = ModelConfig::gpt_7b(32 << 10);
    let small_cost = CostModel::fit(&small_cluster, &small_model, ActivationPolicy::None);
    let small_batch: Vec<Sequence> = [
        16u64 << 10,
        8 << 10,
        8 << 10,
        4 << 10,
        2 << 10,
        2 << 10,
        1024,
        1024,
    ]
    .iter()
    .enumerate()
    .map(|(i, &l)| Sequence::new(i as u64, l))
    .collect();
    let small_buckets = bucket_dp(&small_batch, 6);
    for (name, formulation) in [
        (
            "planner_formulation_aggregated_8gpu",
            flexsp_core::Formulation::Aggregated,
        ),
        (
            "planner_formulation_per_group_8gpu",
            flexsp_core::Formulation::PerGroup,
        ),
    ] {
        let cfg = PlannerConfig {
            formulation,
            milp_node_limit: 50_000,
            ..PlannerConfig::default()
        };
        c.bench_function(name, |b| {
            b.iter(|| plan_micro_batch(black_box(&small_cost), black_box(&small_buckets), 8, &cfg))
        });
    }
}

/// Times `reps` runs of `f` and returns mean seconds per run.
fn mean_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let start = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Runs `f` once under the span tracer and returns total span
/// microseconds by name — the *solver's own* phase boundaries, so the
/// trajectory JSON and a `--trace-out` timeline can never disagree.
fn traced_span_us<T>(mut f: impl FnMut() -> T) -> BTreeMap<&'static str, u64> {
    black_box(f()); // warm up untraced
    let _ = tel::drain_events();
    tel::tracing_start();
    black_box(f());
    tel::tracing_stop();
    let mut us: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ev in tel::drain_events() {
        *us.entry(ev.name).or_default() += ev.dur_us;
    }
    us
}

/// Per-phase solver trajectory on a fixed instance that the MILP solves
/// to completion: build (bucketing), candidate portfolio (heuristic), and
/// the MILP search, with the search counters (pivots, nodes, basis-reuse
/// hit rate) attached. `crates/core/tests/search_trajectory.rs` pins the
/// counters of this instance.
fn bench_trajectory(c: &mut Criterion) {
    let _ = c;
    let cost = cost64();
    // Deterministic mixed-length micro-batch (cycled 1K..16K lengths):
    // small enough to solve to optimality under a generous budget, so no
    // limit binds and every run does the same logical work.
    let input: Vec<Sequence> = (0..12)
        .map(|i| Sequence::new(i, 1024 * (1 + (i % 16))))
        .collect();
    let reps = 5;

    // Phase timings come from the solver's telemetry spans (one traced
    // run each), not hand-placed timers around the calls.
    let build_us = traced_span_us(|| bucket_dp(&input, 16));
    let build_s = build_us.get("plan.bucket_dp").copied().unwrap_or(0) as f64 / 1e6;
    let buckets = bucket_dp(&input, 16);
    let portfolio_us =
        traced_span_us(|| plan_micro_batch(&cost, &buckets, 64, &PlannerConfig::heuristic_only()));
    let portfolio_s = portfolio_us.get("plan.heuristic").copied().unwrap_or(0) as f64 / 1e6;

    let ample = PlannerConfig {
        milp_node_limit: 100_000,
        ..PlannerConfig::default()
    };
    let milp_s = mean_secs(reps, || plan_micro_batch(&cost, &buckets, 64, &ample));
    // Span-level MILP breakdown of one solve: the whole MILP
    // improvement phase, model builds, and time inside the LP kernels.
    let milp_us = traced_span_us(|| plan_micro_batch(&cost, &buckets, 64, &ample));
    let milp_span_s = milp_us.get("plan.milp").copied().unwrap_or(0) as f64 / 1e6;
    let model_build_span_s = milp_us.get("milp.build_model").copied().unwrap_or(0) as f64 / 1e6;
    let lp_span_s = ["lp.phase1", "lp.phase2", "lp.warm"]
        .iter()
        .filter_map(|n| milp_us.get(*n))
        .sum::<u64>() as f64
        / 1e6;
    let plan = plan_micro_batch(&cost, &buckets, 64, &ample).expect("trajectory instance feasible");
    let shape_signature = plan.shape_signature();
    let stats = plan.stats;

    println!(
        "{{\"solver_trajectory\":{{\
         \"build_s\":{build_s:.6},\
         \"portfolio_s\":{portfolio_s:.6},\
         \"milp_sparse_s\":{milp_s:.6},\
         \"milp_span_s\":{milp_span_s:.6},\
         \"model_build_span_s\":{model_build_span_s:.6},\
         \"lp_span_s\":{lp_span_s:.6},\
         \"model_builds\":{},\
         \"search_steps\":{},\
         \"bnb_nodes\":{},\
         \"lp_solves\":{},\
         \"primal_pivots\":{},\
         \"dual_pivots\":{},\
         \"refactorizations\":{},\
         \"basis_reuse_hit_rate\":{:.4},\
         \"shape_signature\":\"{shape_signature}\"}}}}",
        stats.model_builds,
        stats.search_steps,
        stats.milp.nodes,
        stats.milp.lp_solves,
        stats.milp.primal_pivots,
        stats.milp.dual_pivots,
        stats.milp.refactorizations,
        stats.milp.basis_reuse_rate(),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_components, bench_trajectory
}
criterion_main!(benches);
