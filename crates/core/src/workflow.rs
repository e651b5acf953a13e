//! The FlexSP solver workflow (paper Algorithm 1).
//!
//! For each candidate micro-batch count `M ∈ [M_min, M_min + M′)`, blast
//! the batch into micro-batches, bucket each micro-batch, plan each with
//! the parallelism planner, and keep the plan with the lowest total
//! predicted time.
//!
//! The paper's two-level parallel solving (across counts, and across the
//! micro-batches of each count) runs as one job list on one worker pool:
//! every count is blasted once, each (count, micro-batch) pair becomes a
//! job, and the jobs are sorted largest first by tokens (ties by count,
//! then by micro-batch index). As many workers as the host has CPUs, the
//! calling thread among them, take the next job from a shared cursor, and
//! each result lands in its job's slot. A trial is assembled from its
//! slots in micro-batch order, so no plan depends on which worker ran
//! which job, or when.

use std::cmp::Reverse;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
// lint: allow(clock) wall-clock solve time is part of SolvedIteration's functional output
use std::time::Instant;

use flexsp_cost::CostModel;
use flexsp_data::Sequence;
use flexsp_sim::NodeSlots;

use crate::blaster::{blast, min_micro_batches};
use crate::bucketing::{bucket_dp, bucket_exact, bucket_fixed_interval, Bucket};
use crate::error::PlanError;
use crate::plan::{IterationPlan, MicroBatchPlan, PlanStats};
use crate::planner::{plan_micro_batch_within, PlannerConfig};

/// Sequence-bucketing strategy (§4.1.3 + the Fig. 7 / Table 4 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketingMode {
    /// Dynamic-programming optimal bucketing (default; paper Eq. 15–16).
    Dp,
    /// Naive fixed-width buckets with the given interval in tokens.
    FixedInterval(u64),
    /// No bucketing: one bucket per distinct length (ablation; inflates
    /// the MILP).
    Exact,
}

/// Solver configuration (paper defaults: `Q = 16` buckets, `M′ = 5`
/// trials, length-sorted blasting, DP bucketing).
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Bucket count `Q` handed to the planner.
    pub num_buckets: usize,
    /// Number of micro-batch counts to try (`M′`).
    pub trials: usize,
    /// Sort sequences by length before chunking (takeaway #2).
    pub sort_by_length: bool,
    /// Bucketing strategy.
    pub bucketing: BucketingMode,
    /// Parallelism-planner settings.
    pub planner: PlannerConfig,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            num_buckets: 16,
            trials: 5,
            sort_by_length: true,
            bucketing: BucketingMode::Dp,
            planner: PlannerConfig::default(),
        }
    }
}

impl SolverConfig {
    /// Experiment-throughput settings: fewer trials, faster MILPs.
    pub fn fast() -> Self {
        Self {
            trials: 3,
            planner: PlannerConfig::fast(),
            ..Self::default()
        }
    }
}

/// Result of solving one iteration.
#[derive(Debug, Clone)]
pub struct SolvedIteration {
    /// The chosen plan.
    pub plan: IterationPlan,
    /// Its total predicted time (seconds).
    pub predicted_s: f64,
    /// Wall-clock seconds the solver itself took (Fig. 8's solving time).
    pub solve_wall_s: f64,
    /// Per-trial outcome: `(micro-batch count, predicted seconds)`;
    /// `None` marks an infeasible count.
    pub trials: Vec<(usize, Option<f64>)>,
    /// Solver-effort counters aggregated over the chosen plan's
    /// micro-batches (model builds, search steps, pivots, basis reuse).
    pub stats: PlanStats,
    /// Whether this result was served from a
    /// [`SolverService`](crate::SolverService) plan cache instead of a
    /// fresh solve.
    pub from_cache: bool,
}

/// The FlexSP solver (paper Fig. 3: sequence blaster + parallelism
/// planner). See the crate-level example.
#[derive(Debug, Clone)]
pub struct FlexSpSolver {
    cost: CostModel,
    config: SolverConfig,
    /// Restricted availability this solver plans within (multi-job
    /// sharing): the free-slot ledger plus the fingerprint of the lease
    /// it came from (epoch + free set). `None` = the whole cluster.
    avail: Option<(NodeSlots, u64)>,
}

impl FlexSpSolver {
    /// Creates a solver over a fitted cost model, planning against the
    /// whole cluster.
    pub fn new(cost: CostModel, config: SolverConfig) -> Self {
        Self {
            cost,
            config,
            avail: None,
        }
    }

    /// Binds the solver to a **restricted** availability: every plan is
    /// solved and placed within the free slots of `slots` (a lease's
    /// view), and `fingerprint` — which must change whenever the lease's
    /// free set or the arbiter's ledger epoch does — joins the solver's
    /// cache identity so stale plans are never replayed after the free
    /// set changes.
    ///
    /// # Panics
    ///
    /// Panics if `slots` belongs to a different topology than the cost
    /// model, or has no free GPUs.
    pub fn with_availability(mut self, slots: NodeSlots, fingerprint: u64) -> Self {
        assert_eq!(
            slots.topology(),
            self.cost.topology(),
            "availability and cost model must describe the same cluster"
        );
        assert!(slots.total_free() > 0, "an empty lease cannot plan");
        self.avail = Some((slots, fingerprint));
        self
    }

    /// The restricted availability this solver plans within, if bound.
    pub fn availability(&self) -> Option<&NodeSlots> {
        self.avail.as_ref().map(|(s, _)| s)
    }

    /// The availability fingerprint, if bound (see
    /// [`FlexSpSolver::with_availability`]).
    pub fn availability_fingerprint(&self) -> Option<u64> {
        self.avail.as_ref().map(|(_, fp)| *fp)
    }

    /// The underlying cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Buckets one micro-batch according to the configured mode.
    fn bucket(&self, seqs: &[Sequence]) -> Vec<Bucket> {
        match self.config.bucketing {
            BucketingMode::Dp => bucket_dp(seqs, self.config.num_buckets),
            BucketingMode::FixedInterval(w) => bucket_fixed_interval(seqs, w),
            BucketingMode::Exact => bucket_exact(seqs),
        }
    }

    /// Plans each count in `counts` (one trial per count, in order) as
    /// one job list on one worker pool; see the module docs. A trial's
    /// total sums its micro-batches' predicted times in micro-batch
    /// order, and its error is the first in micro-batch order.
    fn plan_trials(
        &self,
        batch: &[Sequence],
        counts: &[usize],
        slots: &NodeSlots,
    ) -> Vec<Result<(IterationPlan, f64), PlanError>> {
        let blasted: Vec<Vec<Vec<Sequence>>> = counts
            .iter()
            .map(|&m| blast(batch, m, self.config.sort_by_length))
            .collect();
        // Job `j` is the `j`-th micro-batch in (count, index) order.
        let jobs: Vec<&[Sequence]> = blasted.iter().flatten().map(Vec::as_slice).collect();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_cached_key(|&j| (Reverse(jobs[j].iter().map(|s| s.len).sum::<u64>()), j));
        let mut planned = run_jobs(&order, |j| {
            let buckets = self.bucket(jobs[j]);
            plan_micro_batch_within(&self.cost, &buckets, slots, &self.config.planner)
        })
        .into_iter();

        blasted
            .iter()
            .map(|micro_batches| {
                // Take all of this count's results before `?` can return,
                // so the next count starts at its own first result.
                let results: Vec<Result<MicroBatchPlan, PlanError>> =
                    planned.by_ref().take(micro_batches.len()).collect();
                let mut plans = Vec::with_capacity(results.len());
                let mut total = 0.0;
                for r in results {
                    let plan = r?;
                    total += plan.predicted_time(&self.cost);
                    plans.push(plan);
                }
                Ok((IterationPlan::new(plans), total))
            })
            .collect()
    }

    /// Solves one training iteration for `batch` (Algorithm 1).
    ///
    /// # Errors
    ///
    /// * [`PlanError::SequenceTooLong`] if a sequence cannot fit on any
    ///   group — no micro-batch count can fix that.
    /// * [`PlanError::Infeasible`] if every candidate count fails.
    pub fn solve_iteration(&self, batch: &[Sequence]) -> Result<SolvedIteration, PlanError> {
        // lint: allow(clock) reported as SolvedIteration::solve_time, not used for control flow
        let start = Instant::now();
        // The free slots this solver plans within: its bound lease view,
        // or the whole cluster.
        let slots = match &self.avail {
            Some((s, _)) => s.clone(),
            None => NodeSlots::new(self.cost.topology()),
        };
        let n_free = slots.total_free();
        let capacity = self.cost.token_capacity_within(&slots);
        let Some(m_min) = min_micro_batches(batch, capacity) else {
            return Err(PlanError::Infeasible(
                "cluster token capacity is zero".into(),
            ));
        };
        if let Some(s) = batch.iter().max_by_key(|s| s.len) {
            let max_cap = self
                .cost
                .degrees()
                .iter()
                .filter(|&&d| d <= n_free)
                .map(|&d| self.cost.max_group_tokens(d))
                .max()
                .unwrap_or(0);
            if s.len > max_cap {
                return Err(PlanError::SequenceTooLong {
                    len: s.len,
                    max_supported: max_cap,
                });
            }
        }

        let mut counts: Vec<usize> = (m_min..m_min + self.config.trials.max(1)).collect();
        // The candidate portfolio inside each trial contains every
        // homogeneous plan — but only at the counts this loop tries. Each
        // degree's own minimum count (under *its* capacity) can sit
        // outside the default window, which would leave the homogeneous
        // baselines' search space only partially covered; add those
        // counts (and one LPT-imbalance spare) explicitly.
        for &d in &self.cost.degrees() {
            let groups = (n_free / d) as u64;
            let cap_d = self.cost.max_group_tokens(d).saturating_mul(groups);
            let Some(m_d) = min_micro_batches(batch, cap_d) else {
                continue;
            };
            for extra in [m_d, m_d + 1] {
                if !counts.contains(&extra) {
                    counts.push(extra);
                }
            }
        }
        counts.sort_unstable();

        let mut best: Option<(IterationPlan, f64)> = None;
        let mut trials = Vec::with_capacity(counts.len());
        let mut fatal: Option<PlanError> = None;
        for (&m, r) in counts.iter().zip(self.plan_trials(batch, &counts, &slots)) {
            match r {
                Ok((plan, t)) => {
                    trials.push((m, Some(t)));
                    if best.as_ref().is_none_or(|(_, bt)| t < *bt) {
                        best = Some((plan, t));
                    }
                }
                Err(e @ PlanError::SequenceTooLong { .. }) => {
                    fatal = Some(e);
                    trials.push((m, None));
                }
                Err(_) => trials.push((m, None)),
            }
        }
        if let Some(e) = fatal {
            return Err(e);
        }
        // Escape hatch for workloads sitting right at the memory wall:
        // when every count in the window fails, keep increasing M until
        // one succeeds (bounded; each extra micro-batch strictly loosens
        // the per-micro-batch memory constraint).
        if best.is_none() {
            let from = m_min + self.config.trials.max(1);
            for m in from..from + 12 {
                // One count in, one trial out.
                match self.plan_trials(batch, &[m], &slots).swap_remove(0) {
                    Ok((plan, t)) => {
                        trials.push((m, Some(t)));
                        best = Some((plan, t));
                        break;
                    }
                    Err(e @ PlanError::SequenceTooLong { .. }) => return Err(e),
                    Err(_) => trials.push((m, None)),
                }
            }
        }
        match best {
            Some((plan, predicted_s)) => Ok(SolvedIteration {
                stats: plan.solver_stats(),
                plan,
                predicted_s,
                solve_wall_s: start.elapsed().as_secs_f64(),
                trials,
                from_cache: false,
            }),
            None => Err(PlanError::Infeasible(format!(
                "all micro-batch counts {counts:?} (and 12 fallbacks) failed"
            ))),
        }
    }
}

/// Runs `job` once for each index in `order` on
/// `available_parallelism().min(order.len())` workers, the calling thread
/// among them; each worker takes the next index from a shared cursor.
/// Results come back by index (`order` must be a permutation of
/// `0..order.len()`), so they do not depend on which worker ran what.
fn run_jobs<T: Send>(order: &[usize], job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(order.len());
    // `Relaxed` suffices: the cursor only hands out indices (each one
    // once, by the atomic add); results travel back through `join`.
    let cursor = AtomicUsize::new(0);
    let (job, cursor) = (&job, &cursor);
    let work = move || {
        let mut done = Vec::new();
        while let Some(&j) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            done.push((j, job(j)));
        }
        done
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            // lint: allow(unwrap) join fails only on a worker panic; re-raise it, don't swallow it
            done.extend(h.join().expect("planner worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(j, _)| j);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsp_model::{ActivationPolicy, ModelConfig};
    use flexsp_sim::ClusterSpec;

    fn solver(cfg: SolverConfig) -> FlexSpSolver {
        let cluster = ClusterSpec::a100_cluster(8);
        let model = ModelConfig::gpt_7b(384 * 1024);
        FlexSpSolver::new(
            CostModel::fit(&cluster, &model, ActivationPolicy::None),
            cfg,
        )
    }

    fn seqs(lens: &[u64]) -> Vec<Sequence> {
        lens.iter()
            .enumerate()
            .map(|(i, &l)| Sequence::new(i as u64, l))
            .collect()
    }

    #[test]
    fn small_batch_single_micro_batch() {
        let s = solver(SolverConfig::fast());
        let batch = seqs(&[8192, 4096, 4096, 2048]);
        let out = s.solve_iteration(&batch).unwrap();
        assert_eq!(out.plan.micro_batches.len(), 1);
        assert_eq!(out.plan.num_seqs(), 4);
        assert!(out.predicted_s > 0.0);
    }

    #[test]
    fn big_batch_needs_accumulation() {
        // Far more tokens than the cluster holds at once.
        let s = solver(SolverConfig::fast());
        let cap = s.cost().cluster_token_capacity();
        let n = (3 * cap / 16_384) as usize;
        let batch = seqs(&vec![16_384; n]);
        let out = s.solve_iteration(&batch).unwrap();
        assert!(out.plan.micro_batches.len() >= 3);
        assert_eq!(out.plan.num_seqs(), n);
        // Every trial's count was at least M_min.
        let m_min = crate::blaster::min_micro_batches(&batch, cap).unwrap();
        assert!(out.trials.iter().all(|(m, _)| *m >= m_min));
    }

    #[test]
    fn oversized_sequence_is_fatal() {
        let s = solver(SolverConfig::fast());
        let too_long = s.cost().max_group_tokens(64) + 1000;
        let err = s.solve_iteration(&seqs(&[too_long])).unwrap_err();
        assert!(matches!(err, PlanError::SequenceTooLong { .. }));
    }

    #[test]
    fn lease_bound_solver_plans_inside_its_slots() {
        use flexsp_sim::{GpuId, NodeSlots};
        let cluster = ClusterSpec::a100_cluster(8);
        let model = ModelConfig::gpt_7b(384 * 1024);
        let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
        // A 24-GPU lease over nodes 5..8 (one of them half-reserved).
        let owned: Vec<GpuId> = (40..64).map(GpuId).collect();
        let slots = NodeSlots::restricted_to(cost.topology(), &owned);
        let bound = FlexSpSolver::new(cost.clone(), SolverConfig::fast())
            .with_availability(slots.clone(), 0xfeed);
        assert_eq!(bound.availability_fingerprint(), Some(0xfeed));
        let batch = seqs(&[32 * 1024, 16 * 1024, 8192, 8192, 4096, 4096, 2048, 1024]);
        let out = bound.solve_iteration(&batch).unwrap();
        assert_eq!(out.plan.num_seqs(), batch.len());
        for mb in &out.plan.micro_batches {
            assert!(mb.gpus_used() <= 24, "lease budget");
            for g in &mb.groups {
                for gpu in g.placement.as_ref().unwrap().gpus() {
                    assert!(owned.contains(gpu), "GPU {gpu} outside the lease");
                }
            }
        }
        // The lease's capacity, not the cluster's, drives accumulation: a
        // batch that fits the cluster once needs more micro-batches here.
        let cap_full = cost.cluster_token_capacity();
        let cap_lease = cost.token_capacity_within(&slots);
        assert_eq!(cap_lease, cap_full * 24 / 64);
        // An oversized sequence is judged against degrees the lease hosts.
        let too_long = cost.max_group_tokens(32) + 1;
        let err = bound.solve_iteration(&seqs(&[too_long])).unwrap_err();
        assert!(matches!(err, PlanError::SequenceTooLong { .. }));
    }

    #[test]
    #[should_panic(expected = "same cluster")]
    fn availability_must_match_the_cost_model() {
        use flexsp_sim::NodeSlots;
        let cluster = ClusterSpec::a100_cluster(2);
        let model = ModelConfig::gpt_7b(64 * 1024);
        let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
        let other = flexsp_sim::Topology::new(4, 4);
        let _ = FlexSpSolver::new(cost, SolverConfig::fast())
            .with_availability(NodeSlots::new(&other), 1);
    }

    /// Re-plans every trial of `out` serially, micro-batch by micro-batch,
    /// and checks that each trial's total and the chosen plan match
    /// `solve_iteration`'s bit for bit.
    fn assert_serial_replan_matches(s: &FlexSpSolver, batch: &[Sequence], out: &SolvedIteration) {
        let slots = s
            .availability()
            .cloned()
            .unwrap_or_else(|| NodeSlots::new(s.cost().topology()));
        let mut chosen = None;
        for &(m, total) in &out.trials {
            let plans: Result<Vec<_>, _> = blast(batch, m, s.config().sort_by_length)
                .iter()
                .map(|mb| {
                    plan_micro_batch_within(s.cost(), &s.bucket(mb), &slots, &s.config().planner)
                })
                .collect();
            let serial = plans.ok().map(|plans| {
                let mut t = 0.0;
                for p in &plans {
                    t += p.predicted_time(s.cost());
                }
                (IterationPlan::new(plans), t)
            });
            assert_eq!(
                total.map(f64::to_bits),
                serial.as_ref().map(|(_, t)| t.to_bits()),
                "trial M={m}: pooled {total:?}, serial {:?}",
                serial.as_ref().map(|(_, t)| t)
            );
            // The first trial at the lowest total is the chosen one.
            if chosen.is_none() && total.map(f64::to_bits) == Some(out.predicted_s.to_bits()) {
                chosen = serial.map(|(plan, _)| plan);
            }
        }
        let chosen = chosen.expect("the chosen total is one of the trials");
        assert_eq!(chosen, out.plan);
        assert_eq!(chosen.solver_stats(), out.stats);
    }

    #[test]
    fn scheduling_cannot_move_a_plan() {
        use flexsp_data::{GlobalBatchLoader, LengthDistribution};
        use flexsp_sim::{GpuId, NodeSlots};
        // The paper's Fig. 6 point: GPT-7B, CommonCrawl, 128K, 64 GPUs.
        let cluster = ClusterSpec::a100_cluster(8);
        let model = ModelConfig::gpt_7b(128 << 10);
        let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
        let mut loader =
            GlobalBatchLoader::new(LengthDistribution::common_crawl(), 512, 128 << 10, 1);
        let whole = FlexSpSolver::new(cost.clone(), SolverConfig::fast());
        // A 36-GPU lease: nodes 4..8 and half of node 3.
        let owned: Vec<GpuId> = (28..64).map(GpuId).collect();
        let lease = FlexSpSolver::new(cost.clone(), SolverConfig::fast())
            .with_availability(NodeSlots::restricted_to(cost.topology(), &owned), 7);
        for _ in 0..2 {
            let batch = loader.next_batch();
            let out = whole.solve_iteration(&batch).unwrap();
            assert!(out.trials.len() > 1, "several counts race on the pool");
            assert_serial_replan_matches(&whole, &batch, &out);
        }
        let batch = loader.next_batch();
        let out = lease.solve_iteration(&batch).unwrap();
        assert_serial_replan_matches(&lease, &batch, &out);
    }

    #[test]
    fn bucketing_modes_all_solve() {
        for mode in [
            BucketingMode::Dp,
            BucketingMode::FixedInterval(2048),
            BucketingMode::Exact,
        ] {
            let cfg = SolverConfig {
                bucketing: mode,
                ..SolverConfig::fast()
            };
            let s = solver(cfg);
            let batch = seqs(&[16384, 8192, 5000, 3000, 2048, 1024, 900, 800]);
            let out = s.solve_iteration(&batch).unwrap();
            assert_eq!(out.plan.num_seqs(), 8, "mode {mode:?}");
        }
    }
}
