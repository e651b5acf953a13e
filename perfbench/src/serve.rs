//! `serve_recurring`: plan serving under repeat-heavy traffic.
//!
//! Two `SolverService` tenants, one worker each, share one
//! `SharedPlanCache` at the default 128 entries. Requests are 16-sequence
//! Wikipedia-like batches planned for 2×8 GPUs. The request order comes
//! from a generated job trace: every trace event is one request from the
//! job's tenant for the job's recurring batch shape, and shapes are drawn
//! with skewed (log-uniform) popularity from a pool of [`POOL`] shapes,
//! all solved into the cache during set-up. Every [`FRESH_EVERY`]th
//! request asks for a brand-new shape instead, which solves cold and, once
//! the cache is full, evicts; every [`BURST_EVERY`]th both tenants submit
//! the same brand-new shape at once, which exercises single-flight
//! coalescing. Misses come on a fixed schedule rather than from the
//! popularity tail, so a run is stationary from its first request and its
//! miss rate does not swing with the seed.
//!
//! Closed loop, one client thread. Cache hits and the service hand-off
//! set the median; cold MILP solves set the tail.

use std::collections::HashMap;
use std::time::Duration;

use crate::clock::Timer;

use flexsp_baselines::{DeepSpeedUlysses, TrainingSystem};
use flexsp_core::{
    CacheStats, Executor, FlexSpSolver, IterationPlan, PlanError, SharedPlanCache, SolvedIteration,
    SolverConfig, SolverService,
};
use flexsp_cost::CostModel;
use flexsp_data::{GlobalBatchLoader, LengthDistribution, Sequence};
use flexsp_model::{ActivationPolicy, ModelConfig};
use flexsp_sim::ClusterSpec;
use flexsp_trace::{generate, TraceConfig};

use crate::check::{covers, mix_plan};
use crate::layers::Layers;
use crate::report::{Fnv, Named, Outcome, Threads};
use crate::side::{Side, WINDOW};
use crate::stats::{mean, percentile, sorted};
use crate::{close_windows, Setup};

const NODES: u32 = 2;
const MAX_CTX: u64 = 48 << 10;
const BATCH: usize = 16;
/// Plan-cache capacity: the service default.
const CACHE: usize = 128;
/// Recurring shapes, all warmed into the cache during set-up.
const POOL: usize = 64;
/// Jobs in the generated trace (cycled if a run outlasts it).
const JOBS: usize = 4000;
/// Every this many requests, one tenant asks for a brand-new shape.
const FRESH_EVERY: u64 = 40;
/// Every this many requests, both tenants ask for the same new shape.
const BURST_EVERY: u64 = 200;
/// Set-ups per run, all before the timed loop: each solves the whole
/// pool cold and takes seconds.
const SETUP_REPS: usize = 3;
const POLICY: ActivationPolicy = ActivationPolicy::None;
const TAIL_P: f64 = 0.99;

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The recurring shape job `job` requests: rank `⌊(POOL+1)^u⌋ − 1` for a
/// uniform `u`, so rank `r` is requested with weight `ln((r+2)/(r+1))`.
fn shape_of(job: u64, seed: u64) -> usize {
    let u =
        (mix(seed ^ job.wrapping_mul(0xD6E8_FEB8_6659_FD93)) >> 11) as f64 / (1u64 << 53) as f64;
    (((POOL + 1) as f64).powf(u).floor() as usize).clamp(1, POOL) - 1
}

/// `template`'s lengths under fresh sequence ids: a recurring shape.
fn reshape(template: &[Sequence], next_id: &mut u64) -> Vec<Sequence> {
    template
        .iter()
        .map(|s| {
            *next_id += 1;
            Sequence::new(*next_id, s.len)
        })
        .collect()
}

struct Rig {
    tenants: [SolverService; 2],
    shared: SharedPlanCache,
    pool: Vec<Vec<Sequence>>,
    /// `(tenant, shape)` of each request, in trace order.
    order: Vec<(usize, usize)>,
    fresh: GlobalBatchLoader,
    next_id: u64,
    cost: CostModel,
    fit: Duration,
    generate: Duration,
    warm_failures: Vec<String>,
}

impl Rig {
    fn shutdown(self) {
        let [a, b] = self.tenants;
        a.shutdown();
        b.shutdown();
    }
}

fn rig(seed: u64) -> Rig {
    let cluster = ClusterSpec::a100_cluster(NODES);
    let model = ModelConfig::gpt_7b(MAX_CTX);
    let t = Timer::start();
    let cost = CostModel::fit(&cluster, &model, POLICY);
    let fit = t.elapsed();
    let t = Timer::start();
    let trace = generate(&TraceConfig::new(JOBS, NODES, seed));
    let generate = t.elapsed();
    let order = trace
        .events
        .iter()
        .map(|e| ((e.job % 2) as usize, shape_of(e.job, seed)))
        .collect();
    let mut loader = GlobalBatchLoader::new(LengthDistribution::wikipedia(), BATCH, MAX_CTX, seed);
    let pool = (0..POOL).map(|_| loader.next_batch()).collect::<Vec<_>>();
    let shared = SharedPlanCache::new(CACHE);
    let tenant = || {
        SolverService::spawn_with_shared_cache(
            FlexSpSolver::new(cost.clone(), SolverConfig::fast()),
            1,
            &shared,
        )
    };
    let tenants = [tenant(), tenant()];
    // Warm the cache with the pool, least popular first so the hottest
    // are the most recently used; both workers solve at once.
    let mut next_id = 0;
    for rank in (0..POOL).rev() {
        tenants[rank % 2].submit(reshape(&pool[rank], &mut next_id));
    }
    let mut warm_failures = Vec::new();
    for rank in (0..POOL).rev() {
        if let Err(e) = tenants[rank % 2].recv_plan() {
            warm_failures.push(format!("warm-up of shape {rank} failed: {e}"));
        }
    }
    Rig {
        tenants,
        shared,
        pool,
        order,
        fresh: GlobalBatchLoader::new(LengthDistribution::wikipedia(), BATCH, MAX_CTX, !seed),
        next_id,
        cost,
        fit,
        generate,
        warm_failures,
    }
}

/// One delivered plan per distinct (shape, predicted time), simulated once
/// after the timed loop, with how often each side of the run served it.
struct Served {
    plan: IterationPlan,
    count: [u64; 2],
}

#[derive(Default)]
struct Acc {
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    handoff_us: Vec<f64>,
    solve_ms: Vec<f64>,
    trials: Vec<f64>,
    model_builds: Vec<f64>,
    search_steps: Vec<f64>,
    nodes: Vec<f64>,
    lp_solves: Vec<f64>,
    pivots: Vec<f64>,
    refactorizations: Vec<f64>,
    reuse_rate: Vec<f64>,
}

struct Delivery<'a> {
    result: Result<SolvedIteration, PlanError>,
    batch: &'a [Sequence],
    shape: usize,
    latency: Duration,
}

#[allow(clippy::too_many_arguments)]
fn deliver(
    d: Delivery<'_>,
    side: usize,
    out: &mut Outcome,
    sides: &mut [Side; 2],
    acc: &mut [Acc; 2],
    served: &mut HashMap<(usize, u64), Served>,
    fp: &mut Fnv,
) {
    out.attempted += 1;
    let solved = match d.result {
        Ok(s) => s,
        Err(e) => return out.fail(format!("request for shape {}: {e}", d.shape)),
    };
    if let Err(e) = covers(&solved.plan, d.batch) {
        return out.fail(format!("request for shape {}: {e}", d.shape));
    }
    let lat_us = d.latency.as_secs_f64() * 1e6;
    let (s, a) = (&mut sides[side], &mut acc[side]);
    s.record(lat_us);
    a.handoff_us.push(lat_us - solved.solve_wall_s * 1e6);
    if solved.from_cache {
        a.hit_us.push(lat_us);
    } else {
        let st = &solved.stats;
        a.miss_us.push(lat_us);
        a.solve_ms.push(solved.solve_wall_s * 1e3);
        a.trials.push(solved.trials.len() as f64);
        a.model_builds.push(f64::from(st.model_builds));
        a.search_steps.push(f64::from(st.search_steps));
        a.nodes.push(st.milp.nodes as f64);
        a.lp_solves.push(st.milp.lp_solves as f64);
        a.pivots.push(st.milp.pivots() as f64);
        a.refactorizations.push(st.milp.refactorizations as f64);
        a.reuse_rate.push(st.milp.basis_reuse_rate());
    }
    mix_plan(fp, &solved.plan, solved.predicted_s);
    served
        .entry((d.shape, solved.predicted_s.to_bits()))
        .or_insert_with(|| Served {
            plan: solved.plan,
            count: [0; 2],
        })
        .count[side] += 1;
}

/// Runs the workload for `seconds`; with `trace`, every other block of
/// [`FRESH_EVERY`] requests is traced.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome {
        threads: Threads {
            driver: 1,
            service_workers: 2,
            ..Threads::default()
        },
        ..Outcome::default()
    };
    let mut setup = Setup::default();
    for _ in 1..SETUP_REPS {
        setup.time(|| rig(seed)).shutdown();
    }
    let mut rig = setup.time(|| rig(seed));
    for f in std::mem::take(&mut rig.warm_failures) {
        out.attempted += 1;
        out.fail(f);
    }
    let mut layers = Layers::new();
    let mut sides = [Side::default(), Side::default()];
    let mut acc = [Acc::default(), Acc::default()];
    let mut served: HashMap<(usize, u64), Served> = HashMap::new();
    let mut fp = Fnv::default();
    let before = rig.shared.stats();
    let budget = Duration::from_secs_f64(seconds);
    let start = Timer::start();
    let (mut unit, mut cursor) = (0u64, 0usize);
    let mut window = start;
    while start.elapsed() < budget {
        if window.elapsed() >= WINDOW {
            close_windows(&mut sides, TAIL_P);
            window = Timer::start();
        }
        // Traced runs alternate blocks of FRESH_EVERY requests, so both
        // sides see the same share of cold solves and bursts.
        let traced = trace && (unit / FRESH_EVERY) % 2 == 1;
        let side = usize::from(traced);
        unit += 1;
        layers.set_on(traced);
        let t_unit = Timer::start();
        if unit % BURST_EVERY == 0 {
            let shape = POOL + unit as usize;
            let template = rig.fresh.next_batch();
            let next_id = &mut rig.next_id;
            let batches = layers.time("data", || {
                [reshape(&template, next_id), reshape(&template, next_id)]
            });
            let t = Timer::start();
            for (svc, batch) in rig.tenants.iter().zip(&batches) {
                svc.submit(batch.clone());
            }
            let mut results = Vec::with_capacity(2);
            for svc in &rig.tenants {
                let r = svc.recv_plan();
                results.push((r, t.elapsed()));
            }
            layers.add("core.service", t.elapsed());
            for ((result, latency), batch) in results.into_iter().zip(&batches) {
                let d = Delivery {
                    result,
                    batch,
                    shape,
                    latency,
                };
                deliver(
                    d,
                    side,
                    &mut out,
                    &mut sides,
                    &mut acc,
                    &mut served,
                    &mut fp,
                );
            }
            sides[side].units += 2;
        } else {
            let (tenant, shape, template) = if unit % FRESH_EVERY == 0 {
                (
                    unit as usize / FRESH_EVERY as usize % 2,
                    POOL + unit as usize,
                    rig.fresh.next_batch(),
                )
            } else {
                let (tenant, shape) = rig.order[cursor % rig.order.len()];
                cursor += 1;
                (tenant, shape, rig.pool[shape].clone())
            };
            let next_id = &mut rig.next_id;
            let batch = layers.time("data", || reshape(&template, next_id));
            let svc = &rig.tenants[tenant];
            let submitted = batch.clone();
            let t = Timer::start();
            svc.submit(submitted);
            let result = svc.recv_plan();
            let latency = t.elapsed();
            layers.add("core.service", latency);
            let d = Delivery {
                result,
                batch: &batch,
                shape,
                latency,
            };
            deliver(
                d,
                side,
                &mut out,
                &mut sides,
                &mut acc,
                &mut served,
                &mut fp,
            );
            sides[side].units += 1;
        }
        let d = t_unit.elapsed();
        sides[side].busy += d;
        layers.add_root(d);
    }
    let after = rig.shared.stats();
    out.fingerprint = fp.0;
    close_windows(&mut sides, TAIL_P);

    // Simulate each distinct served plan once, against DeepSpeed-Ulysses
    // on the same sequences, outside the timed loop.
    let cluster = ClusterSpec::a100_cluster(NODES);
    let model = ModelConfig::gpt_7b(MAX_CTX);
    let executor = Executor::new(cluster.clone(), model.clone(), POLICY);
    let mut deepspeed = DeepSpeedUlysses::new(cluster, model, POLICY).expect("48K fits 16 GPUs");
    // DeepSpeed tunes its static degree on the first batch it sees. Tune
    // it on the whole recurring pool: a single 16-sequence probe would
    // pick a degree that differs from seed to seed and swing the ratio.
    let probe: Vec<Sequence> = rig.pool.concat();
    if let Err(e) = deepspeed.run_iteration(&probe) {
        out.fail(format!("DeepSpeed failed on the tuning probe: {e}"));
    }
    let mut sim = Layers::new();
    sim.set_on(true);
    let (mut alltoall, mut idle, mut pred_err) = (Vec::new(), Vec::new(), Vec::new());
    let mut keys: Vec<&(usize, u64)> = served.keys().collect();
    keys.sort_unstable();
    for key in keys {
        let entry = &served[key];
        let report = match sim.time("core.executor", || executor.execute(&entry.plan)) {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("executor rejected a served plan: {e}"));
                continue;
            }
        };
        let seqs: Vec<Sequence> = entry
            .plan
            .micro_batches
            .iter()
            .flat_map(|m| &m.groups)
            .flat_map(|g| g.seqs.clone())
            .collect();
        let ds = match sim.time("baselines", || deepspeed.run_iteration(&seqs)) {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("DeepSpeed failed on a served batch: {e}"));
                continue;
            }
        };
        // Each distinct plan counts once: weighting by traffic would let
        // the few hottest shapes of a seed decide the ratio.
        for (side, &n) in sides.iter_mut().zip(&entry.count) {
            if n > 0 {
                side.quality_num += ds.total_s;
                side.quality_den += report.total_s;
            }
        }
        alltoall.push(report.alltoall_ratio());
        let mb_s: f64 = report.micro_batches.iter().map(|m| m.time_s).sum();
        let idle_s: f64 = report.micro_batches.iter().map(|m| m.idle_gpu_s).sum();
        if mb_s > 0.0 {
            idle.push(idle_s / (mb_s * f64::from(NODES * 8)));
            pred_err.push((entry.plan.predicted_time(&rig.cost) - mb_s).abs() / mb_s);
        }
    }

    for (label, side, a) in [("", &sides[0], &acc[0]), ("traced.", &sides[1], &acc[1])] {
        if side.units == 0 {
            continue;
        }
        let n = side.samples();
        out.named.push(Named::new(
            format!("{label}serve_plans_per_s"),
            side.ops_per_s(),
            "1/s",
            side.units,
        ));
        if let Some(p50) = side.p50_us() {
            out.named
                .push(Named::new(format!("{label}serve_p50_us"), p50, "us", n));
        }
        if let Some(t) = side.tail_us(TAIL_P) {
            out.named.push(Named::tail(
                format!("{label}serve_p99_ms"),
                t,
                1e-3,
                "ms",
                n,
            ));
        }
        out.named.push(Named::new(
            format!("{label}speedup_vs_deepspeed"),
            side.quality(),
            "x",
            side.units,
        ));
        out.named.push(Named::new(
            format!("{label}cold_solves"),
            a.miss_us.len() as f64,
            "count",
            n,
        ));
    }
    crate::finish(&mut out, &setup, &sides, trace, TAIL_P);
    if trace {
        let a = &acc[1];
        let delta = |f: fn(&CacheStats) -> u64| (f(&after) - f(&before)) as f64;
        let hits = delta(|c| c.hits);
        let misses = delta(|c| c.misses);
        let coalesced = delta(|c| c.coalesced);
        let v = &mut out;
        v.set("cost.fit_ms", rig.fit.as_secs_f64() * 1e3);
        v.set("trace.generate_ms", rig.generate.as_secs_f64() * 1e3);
        v.set("data.batch_us", layers.mean_us("data"));
        v.set("milp.model_builds", mean(&a.model_builds));
        v.set("milp.search_steps", mean(&a.search_steps));
        v.set("milp.bnb_nodes", mean(&a.nodes));
        v.set("milp.lp_solves", mean(&a.lp_solves));
        v.set("milp.pivots", mean(&a.pivots));
        v.set("milp.refactorizations", mean(&a.refactorizations));
        v.set("milp.basis_reuse_rate", mean(&a.reuse_rate));
        v.set("core.workflow.trials", mean(&a.trials));
        v.set(
            "core.workflow.solve_ms",
            percentile(&sorted(a.solve_ms.clone()), 0.5),
        );
        v.set("core.executor.us", sim.mean_us("core.executor"));
        v.set("core.executor.alltoall_ratio", mean(&alltoall));
        v.set("core.executor.idle_gpu_share", mean(&idle));
        v.set("core.executor.prediction_err", mean(&pred_err));
        v.set("baselines.deepspeed_ms", sim.mean_us("baselines") / 1e3);
        v.set(
            "core.service.hit_p50_us",
            percentile(&sorted(a.hit_us.clone()), 0.5),
        );
        v.set(
            "core.service.miss_p50_ms",
            percentile(&sorted(a.miss_us.clone()), 0.5) / 1e3,
        );
        v.set(
            "core.service.handoff_us",
            percentile(&sorted(a.handoff_us.clone()), 0.5),
        );
        v.set("core.service.hits", hits);
        v.set("core.service.misses", misses);
        v.set("core.service.coalesced", coalesced);
        v.set("core.service.evictions", delta(|c| c.evictions));
        v.set(
            "core.service.hit_ratio",
            hits / (hits + misses + coalesced).max(1.0),
        );
        crate::set_shares(v, &layers);
    }
    rig.shutdown();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_popularity_is_skewed_and_spans_the_pool() {
        let ranks: Vec<usize> = (1..=20_000).map(|j| shape_of(j, 7)).collect();
        assert!(ranks.iter().all(|&r| r < POOL));
        let share = |lo: usize, hi: usize| {
            ranks.iter().filter(|&&r| (lo..hi).contains(&r)).count() as f64 / ranks.len() as f64
        };
        // Rank 0 takes ln 2 / ln 65 ≈ 0.17 of requests; the colder half of
        // the pool takes 1 − ln 33 / ln 65 ≈ 0.16.
        assert!(
            (0.14..0.19).contains(&share(0, 1)),
            "rank 0 share {}",
            share(0, 1)
        );
        assert!(
            (0.13..0.19).contains(&share(32, POOL)),
            "cold half {}",
            share(32, POOL)
        );
        assert_eq!(shape_of(42, 7), shape_of(42, 7));
    }
}
