//! `train_fig6`: the paper's Fig. 6 anchor point — GPT-7B on a
//! CommonCrawl-like corpus at 128K context, 512-sequence global batches,
//! 64 simulated A100s (8×8) — planned with `SolverConfig::fast()` and
//! compared with DeepSpeed-Ulysses on the same batches.
//!
//! Closed loop, one driver thread: draw a batch, `solve_iteration`,
//! `Executor::execute`, then DeepSpeed on the same batch. Planning is
//! nearly all of the wall time; the cache and the arbiter do nothing.
//!
//! `solve_iteration` runs its trials on internal threads, which outside
//! timing cannot split, so a traced step additionally re-plans its chosen
//! micro-batch count stage by stage (blast, bucket, heuristic portfolio,
//! aggregated MILP, placement) as a second root span.

use std::time::Duration;

use crate::clock::Timer;

use flexsp_baselines::{DeepSpeedUlysses, TrainingSystem};
use flexsp_bench::common::{DatasetKind, ModelKind, Workload};
use flexsp_core::blaster::blast;
use flexsp_core::bucketing::{bucket_dp, token_error_ratio};
use flexsp_core::{
    plan_micro_batch, Executor, FlexSpSolver, Formulation, IterationPlan, PlannerConfig,
    SolvedIteration, SolverConfig,
};
use flexsp_cost::CostModel;
use flexsp_data::{GlobalBatchLoader, Sequence};

use crate::check::{covers, mix_plan};
use crate::layers::Layers;
use crate::report::{Fnv, Named, Outcome, Threads};
use crate::side::{Side, WINDOW};
use crate::speed::HostSpeed;
use crate::stats::mean;
use crate::{close_windows, Setup};

/// Planning latency tail: with ~100 steps a run, p90 has ≥10 beyond it.
const TAIL_P: f64 = 0.90;
/// Speed-probe samples before each repeated set-up, ≈1 ms in all.
const SETUP_PROBE_SAMPLES: u32 = 4;

/// The Fig. 6 anchor point as the paper-figure harness defines it.
fn workload(seed: u64) -> Workload {
    Workload {
        seed,
        ..Workload::paper(ModelKind::Gpt7b, DatasetKind::CommonCrawl, 128 << 10)
    }
}

struct Rig {
    solver: FlexSpSolver,
    executor: Executor,
    deepspeed: DeepSpeedUlysses,
    loader: GlobalBatchLoader,
    gpus: u32,
    fit: Duration,
}

fn new_rig(seed: u64) -> Rig {
    let w = workload(seed);
    let (cluster, model, policy) = (w.cluster(), w.model_config(), w.policy());
    let t = Timer::start();
    let cost = CostModel::fit(&cluster, &model, policy);
    let fit = t.elapsed();
    Rig {
        solver: FlexSpSolver::new(cost, SolverConfig::fast()),
        gpus: cluster.num_gpus(),
        executor: Executor::new(cluster, model, policy),
        deepspeed: w.deepspeed().expect("a 128K input fits 64 GPUs"),
        loader: w.loader(),
        fit,
    }
}

/// Per-layer facts gathered from traced steps.
#[derive(Default)]
struct Traced {
    micro_batches: Vec<f64>,
    token_error: Vec<f64>,
    trials: Vec<f64>,
    model_builds: Vec<f64>,
    search_steps: Vec<f64>,
    nodes: Vec<f64>,
    lp_solves: Vec<f64>,
    pivots: Vec<f64>,
    refactorizations: Vec<f64>,
    reuse_rate: Vec<f64>,
    milp_wins: u64,
    replanned_mbs: u64,
    alltoall: Vec<f64>,
    idle_share: Vec<f64>,
    prediction_err: Vec<f64>,
}

/// Re-plans `batch` at the micro-batch count `solve_iteration` chose,
/// one stage at a time, inside its own root span.
fn replan(
    solver: &FlexSpSolver,
    batch: &[Sequence],
    m: usize,
    layers: &mut Layers,
    tr: &mut Traced,
) -> Result<(), String> {
    let root = Timer::start();
    let cfg = solver.config();
    let cost = solver.cost();
    let aggregated = cfg.planner.clone();
    let heuristic = PlannerConfig {
        formulation: Formulation::Heuristic,
        ..aggregated.clone()
    };
    let mbs = layers.time("core.blaster", || blast(batch, m, cfg.sort_by_length));
    let mut plans = Vec::with_capacity(mbs.len());
    for mb in &mbs {
        let buckets = layers.time("core.bucketing", || bucket_dp(mb, cfg.num_buckets));
        tr.token_error.push(token_error_ratio(&buckets));
        let t = Timer::start();
        let portfolio = plan_micro_batch(cost, &buckets, cost.num_gpus(), &heuristic);
        let t_portfolio = t.elapsed();
        let t = Timer::start();
        let full = plan_micro_batch(cost, &buckets, cost.num_gpus(), &aggregated);
        let t_full = t.elapsed();
        // The aggregated call re-runs the portfolio before its MILP:
        // charge that part to the planner and the rest to the MILP.
        layers.add("core.planner", t_portfolio);
        layers.add("core.planner", t_full.min(t_portfolio));
        layers.add("milp", t_full.saturating_sub(t_portfolio));
        let (portfolio, full) = match (portfolio, full) {
            (Ok(p), Ok(f)) => (p, f),
            (Err(e), _) | (_, Err(e)) => return Err(format!("re-plan failed: {e}")),
        };
        tr.replanned_mbs += 1;
        if full.predicted_time(cost) < portfolio.predicted_time(cost) * (1.0 - 1e-9) {
            tr.milp_wins += 1;
        }
        plans.push(full);
    }
    let mut plan = IterationPlan::new(plans);
    layers
        .time("core.placement", || plan.place(cost.topology()))
        .map_err(|e| format!("re-placement failed: {e}"))?;
    layers.add_root(root.elapsed());
    covers(&plan, batch).map_err(|e| format!("re-plan: {e}"))
}

fn record_traced(tr: &mut Traced, solved: &SolvedIteration, report: &flexsp_core::IterationReport) {
    let s = &solved.stats;
    tr.micro_batches
        .push(solved.plan.micro_batches.len() as f64);
    tr.trials.push(solved.trials.len() as f64);
    tr.model_builds.push(f64::from(s.model_builds));
    tr.search_steps.push(f64::from(s.search_steps));
    tr.nodes.push(s.milp.nodes as f64);
    tr.lp_solves.push(s.milp.lp_solves as f64);
    tr.pivots.push(s.milp.pivots() as f64);
    tr.refactorizations.push(s.milp.refactorizations as f64);
    tr.reuse_rate.push(s.milp.basis_reuse_rate());
    tr.alltoall.push(report.alltoall_ratio());
    let mb_s: f64 = report.micro_batches.iter().map(|m| m.time_s).sum();
    let idle: f64 = report.micro_batches.iter().map(|m| m.idle_gpu_s).sum();
    let gpus = f64::from(
        solved
            .plan
            .micro_batches
            .first()
            .map_or(0, |m| m.gpus_used())
            .max(1),
    );
    if mb_s > 0.0 {
        tr.idle_share.push(idle / (mb_s * gpus));
        tr.prediction_err
            .push((solved.predicted_s - mb_s).abs() / mb_s);
    }
}

/// Runs the workload for `seconds`; with `trace`, every other step is
/// traced.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome {
        threads: Threads {
            driver: 1,
            ..Threads::default()
        },
        ..Outcome::default()
    };
    let mut setup = Setup::default();
    let mut speed = HostSpeed::new();
    let mut rig = setup.time_scaled(speed.scale(), || new_rig(seed));
    let mut layers = Layers::new();
    let mut sides = [Side::default(), Side::default()];
    let mut tr = Traced::default();
    let mut fp = Fnv::default();
    let budget = Duration::from_secs_f64(seconds);
    let start = Timer::start();
    let mut step = 0u64;
    let mut window = start;
    while start.elapsed() < budget {
        if window.elapsed() >= WINDOW {
            close_windows(&mut sides, TAIL_P);
            window = Timer::start();
        }
        // Outside every timed unit (see `Setup`), scaled to the nominal
        // host by probe samples taken right before it.
        for _ in 0..SETUP_PROBE_SAMPLES {
            speed.sample();
        }
        drop(setup.time_scaled(speed.close(), || new_rig(seed)));
        let traced = trace && step % 2 == 1;
        step += 1;
        layers.set_on(traced);
        let side = &mut sides[usize::from(traced)];
        let unit = Timer::start();
        let batch = layers.time("data", || rig.loader.next_batch());
        out.attempted += 1;
        let t = Timer::start();
        let solved = rig.solver.solve_iteration(&batch);
        let plan_d = t.elapsed();
        layers.add("core.workflow", plan_d);
        let solved = match solved {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("step {step}: solve_iteration failed: {e}"));
                continue;
            }
        };
        side.record(plan_d.as_secs_f64() * 1e6);
        mix_plan(&mut fp, &solved.plan, solved.predicted_s);
        if let Err(e) = covers(&solved.plan, &batch) {
            out.fail(format!("step {step}: {e}"));
            continue;
        }
        let executor = &rig.executor;
        let report = match layers.time("core.executor", || executor.execute(&solved.plan)) {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("step {step}: executor rejected the plan: {e}"));
                continue;
            }
        };
        let deepspeed = &mut rig.deepspeed;
        let ds = match layers.time("baselines", || deepspeed.run_iteration(&batch)) {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("step {step}: DeepSpeed failed: {e}"));
                continue;
            }
        };
        side.quality_num += ds.total_s;
        side.quality_den += report.total_s;
        side.tokens += batch.iter().map(|s| s.len).sum::<u64>();
        side.units += 1;
        let unit_d = unit.elapsed();
        side.busy += unit_d;
        layers.add_root(unit_d);
        if traced {
            record_traced(&mut tr, &solved, &report);
            let m = solved.plan.micro_batches.len();
            if let Err(e) = replan(&rig.solver, &batch, m, &mut layers, &mut tr) {
                out.fail(format!("step {step}: {e}"));
            }
        }
    }
    out.fingerprint = fp.0;
    close_windows(&mut sides, TAIL_P);

    let gpus = f64::from(rig.gpus);
    for (label, side) in [("", &sides[0]), ("traced.", &sides[1])] {
        if side.units == 0 {
            continue;
        }
        let n = side.samples();
        out.named.push(Named::new(
            format!("{label}sim_tokens_per_gpu_s"),
            side.tokens as f64 / side.quality_den / gpus,
            "tokens/s/GPU",
            side.units,
        ));
        out.named.push(Named::new(
            format!("{label}speedup_vs_deepspeed"),
            side.quality(),
            "x",
            side.units,
        ));
        if let Some(p50) = side.p50_us() {
            out.named.push(Named::new(
                format!("{label}plan_p50_ms"),
                p50 / 1e3,
                "ms",
                n,
            ));
        }
        if let Some(t) = side.tail_us(TAIL_P) {
            out.named
                .push(Named::tail(format!("{label}plan_p90_ms"), t, 1e-3, "ms", n));
        }
        out.named.push(Named::new(
            format!("{label}steps_per_s"),
            side.ops_per_s(),
            "1/s",
            side.units,
        ));
    }
    out.named.extend(speed.named());
    crate::finish(&mut out, &setup, &sides, trace, TAIL_P);
    if trace {
        let v = &mut out;
        v.set("cost.fit_ms", rig.fit.as_secs_f64() * 1e3);
        v.set("data.batch_us", layers.mean_us("data"));
        v.set("core.blaster.us", layers.mean_us("core.blaster"));
        v.set("core.blaster.micro_batches", mean(&tr.micro_batches));
        v.set("core.bucketing.us", layers.mean_us("core.bucketing"));
        v.set("core.bucketing.token_error_ratio", mean(&tr.token_error));
        v.set("core.planner.portfolio_us", layers.mean_us("core.planner"));
        v.set("milp.us", layers.mean_us("milp"));
        v.set("milp.model_builds", mean(&tr.model_builds));
        v.set("milp.search_steps", mean(&tr.search_steps));
        v.set("milp.bnb_nodes", mean(&tr.nodes));
        v.set("milp.lp_solves", mean(&tr.lp_solves));
        v.set("milp.pivots", mean(&tr.pivots));
        v.set("milp.refactorizations", mean(&tr.refactorizations));
        v.set("milp.basis_reuse_rate", mean(&tr.reuse_rate));
        v.set(
            "milp.win_ratio",
            tr.milp_wins as f64 / tr.replanned_mbs.max(1) as f64,
        );
        v.set("core.placement.us", layers.mean_us("core.placement"));
        v.set("core.workflow.trials", mean(&tr.trials));
        v.set(
            "core.workflow.solve_ms",
            layers.mean_us("core.workflow") / 1e3,
        );
        v.set("core.executor.us", layers.mean_us("core.executor"));
        v.set("core.executor.alltoall_ratio", mean(&tr.alltoall));
        v.set("core.executor.idle_gpu_share", mean(&tr.idle_share));
        v.set("core.executor.prediction_err", mean(&tr.prediction_err));
        v.set("baselines.deepspeed_ms", layers.mean_us("baselines") / 1e3);
        crate::set_shares(v, &layers);
    }
    out
}
