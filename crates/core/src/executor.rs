//! The FlexSP executor (paper §5): hot switching over pooled
//! communicators, plan dispatch, and simulated execution with time and
//! memory accounting.
//!
//! The executor consumes the plan's **own placement**: every group must
//! carry the [`flexsp_sim::DeviceGroup`] the planner's placement engine chose (see
//! [`MicroBatchPlan::place`](crate::MicroBatchPlan::place)). It never
//! re-derives a layout of its own — that was the fidelity gap that let
//! predicted and simulated costs diverge whenever the planner assumed
//! one span and the executor realized another.

use std::error::Error;
use std::fmt;

use flexsp_cost::{sp_step_spec, ulysses_zero_spec};
use flexsp_model::{ActivationPolicy, ModelConfig, ZeroStage};
use flexsp_sim::{
    simulate_sp_step, ClusterSpec, GroupPool, MemoryTracker, OomError, OPTIMIZER_OVERHEAD_S,
};

use crate::plan::IterationPlan;

/// Execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A device ran out of memory executing the plan.
    Oom(OomError),
    /// A group arrived without, or with an invalid, placement.
    Placement(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Oom(e) => write!(f, "execution failed: {e}"),
            ExecError::Placement(why) => write!(f, "invalid plan placement: {why}"),
        }
    }
}

impl Error for ExecError {}

impl From<OomError> for ExecError {
    fn from(e: OomError) -> Self {
        ExecError::Oom(e)
    }
}

/// Per-micro-batch execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroBatchReport {
    /// Wall time of the micro-batch (slowest concurrent group).
    pub time_s: f64,
    /// All-to-All seconds on the critical group.
    pub alltoall_s: f64,
    /// Compute seconds on the critical group.
    pub compute_s: f64,
    /// Exposed ZeRO seconds on the critical group.
    pub zero_s: f64,
    /// GPU-seconds wasted waiting for the critical group.
    pub idle_gpu_s: f64,
    /// Degree signature, e.g. `<32, 8x4>`.
    pub signature: String,
}

/// Execution record of one training iteration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IterationReport {
    /// End-to-end iteration seconds (micro-batches + optimizer step;
    /// excludes one-time communicator setup, reported separately).
    pub total_s: f64,
    /// All-to-All seconds along the critical path.
    pub alltoall_s: f64,
    /// Compute seconds along the critical path.
    pub compute_s: f64,
    /// Exposed ZeRO seconds along the critical path.
    pub zero_s: f64,
    /// One-time communicator creation seconds charged by this iteration.
    pub setup_s: f64,
    /// Optimizer step and miscellaneous per-iteration overhead.
    pub overhead_s: f64,
    /// Per-micro-batch breakdowns.
    pub micro_batches: Vec<MicroBatchReport>,
    /// Peak per-GPU memory across the iteration (bytes).
    pub peak_mem_bytes: u64,
}

impl IterationReport {
    /// Fraction of the iteration spent in All-to-All (paper Fig. 5a).
    pub fn alltoall_ratio(&self) -> f64 {
        if self.total_s == 0.0 {
            0.0
        } else {
            self.alltoall_s / self.total_s
        }
    }
}

/// Executes [`IterationPlan`]s on the simulated cluster.
///
/// Groups run on the exact GPUs their plan placement names; communicators
/// are fetched from a [`GroupPool`], so only the first use of a placement
/// creates one ("hot switching" costs nothing once cached, §5). Memory is
/// tracked per GPU: model states (ZeRO-3 over the whole cluster) plus the
/// activation shard of each assigned group, with OOM surfacing as
/// [`ExecError::Oom`].
#[derive(Debug)]
pub struct Executor {
    cluster: ClusterSpec,
    model: ModelConfig,
    policy: ActivationPolicy,
    pool: GroupPool,
}

impl Executor {
    /// Creates an executor with the default communicator creation cost
    /// (1.5 s, paper: ≈10 s for the six groups of a 64-GPU run). Every
    /// iteration also pays the optimizer step, [`OPTIMIZER_OVERHEAD_S`].
    pub fn new(cluster: ClusterSpec, model: ModelConfig, policy: ActivationPolicy) -> Self {
        Self {
            cluster,
            model,
            policy,
            pool: GroupPool::new(1.5),
        }
    }

    /// The communicator pool (for cache statistics).
    pub fn pool(&self) -> &GroupPool {
        &self.pool
    }

    /// The cluster being simulated.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Executes `plan`, returning the time/memory report.
    ///
    /// # Errors
    ///
    /// [`ExecError::Placement`] if any group lacks a placement, a
    /// placement references GPUs outside the cluster or reuses a GPU
    /// within a micro-batch, or a placement disagrees with its group's
    /// declared shape; [`ExecError::Oom`] if a device exceeds its memory
    /// budget.
    pub fn execute(&self, plan: &IterationPlan) -> Result<IterationReport, ExecError> {
        let n = self.cluster.num_gpus();
        let topo = self.cluster.topology();
        let mut report = IterationReport::default();
        // Heterogeneous clusters mix 40 GB and 80 GB devices: every GPU
        // is tracked against its own budget.
        let mut mem = MemoryTracker::with_capacities(self.cluster.per_gpu_mem_budgets());
        let model_state_bytes = self.model.model_state_bytes(ZeroStage::Three, n as u64);
        let act_per_token = self.model.act_bytes_per_token(self.policy);
        let zero = ulysses_zero_spec(&self.cluster, &self.model);

        for mb in &plan.micro_batches {
            // Validate the micro-batch's placement before touching state:
            // every group placed, inside the cluster, disjoint, and at
            // the class (span *and* SKU) its plan declares — a plan
            // priced for one SKU must not silently execute on another.
            let mut used = std::collections::HashSet::new();
            for g in &mb.groups {
                let Some(p) = g.placement.as_ref() else {
                    return Err(ExecError::Placement(format!(
                        "group {} has no placement; place the plan before executing",
                        g.shape
                    )));
                };
                for gpu in p.gpus() {
                    if gpu.0 >= n {
                        return Err(ExecError::Placement(format!(
                            "{gpu} outside the {n}-GPU cluster"
                        )));
                    }
                    if !used.insert(*gpu) {
                        return Err(ExecError::Placement(format!(
                            "{gpu} assigned to two concurrent groups"
                        )));
                    }
                }
                let realized = flexsp_sim::GroupShape::of(p, topo);
                if realized != g.shape {
                    return Err(ExecError::Placement(format!(
                        "group declared {} but its placement realizes {realized}",
                        g.shape
                    )));
                }
            }

            mem.reset_current();
            // Model states live on every GPU all the time.
            for gpu in 0..n {
                mem.alloc(flexsp_sim::GpuId(gpu), model_state_bytes)?;
            }

            let mut times = Vec::with_capacity(mb.groups.len());
            for g in &mb.groups {
                // lint: allow(unwrap) plan validation above rejects unplaced groups before execution
                let device_group = g.placement.as_ref().expect("validated above");
                let fetch = self.pool.get_or_create(device_group);
                report.setup_s += fetch.setup_cost_s;

                let shard_tokens = g.total_tokens().div_ceil(g.degree() as u64);
                for gpu in device_group.gpus() {
                    mem.alloc(*gpu, shard_tokens * act_per_token)?;
                }

                let spec = sp_step_spec(
                    &self.model,
                    self.policy,
                    g.degree(),
                    &g.lengths(),
                    Some(zero),
                );
                times.push(simulate_sp_step(&self.cluster, device_group, &spec));
            }

            let critical = times
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_s().total_cmp(&b.1.total_s()))
                .map(|(i, _)| i)
                .unwrap_or(0);
            let t_max = times.get(critical).map(|r| r.total_s()).unwrap_or(0.0);
            let idle_gpu_s: f64 = times
                .iter()
                .zip(&mb.groups)
                .map(|(r, g)| (t_max - r.total_s()) * g.degree() as f64)
                .sum();
            let c = times.get(critical).copied().unwrap_or_default();
            report.micro_batches.push(MicroBatchReport {
                time_s: t_max,
                alltoall_s: c.alltoall_s,
                compute_s: c.compute_s,
                zero_s: c.zero_exposed_s,
                idle_gpu_s,
                signature: mb.degree_signature(),
            });
            report.total_s += t_max;
            report.alltoall_s += c.alltoall_s;
            report.compute_s += c.compute_s;
            report.zero_s += c.zero_exposed_s;
        }

        report.overhead_s = OPTIMIZER_OVERHEAD_S;
        report.total_s += OPTIMIZER_OVERHEAD_S;
        report.peak_mem_bytes = mem.max_peak();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsp_cost::CostModel;
    use flexsp_data::Sequence;
    use flexsp_sim::{DeviceGroup, GroupShape};

    use crate::plan::{GroupAssignment, MicroBatchPlan};

    fn setup() -> (Executor, CostModel) {
        let cluster = ClusterSpec::a100_cluster(8);
        let model = ModelConfig::gpt_7b(384 * 1024);
        let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
        (Executor::new(cluster, model, ActivationPolicy::None), cost)
    }

    fn seqs(lens: &[u64]) -> Vec<Sequence> {
        lens.iter()
            .enumerate()
            .map(|(i, &l)| Sequence::new(i as u64, l))
            .collect()
    }

    fn ga(degree: u32, lens: &[u64]) -> GroupAssignment {
        GroupAssignment::new(GroupShape::new(degree, degree.div_ceil(8)), seqs(lens))
    }

    /// A placed iteration plan over the 64-GPU test cluster.
    fn placed(groups: Vec<GroupAssignment>) -> IterationPlan {
        let mut plan = IterationPlan::new(vec![MicroBatchPlan::new(groups)]);
        plan.place(&flexsp_sim::Topology::new(8, 8)).unwrap();
        plan
    }

    #[test]
    fn executes_heterogeneous_plan() {
        let (ex, _) = setup();
        let plan = placed(vec![
            ga(32, &[100 * 1024]),
            ga(8, &[48 * 1024]),
            ga(8, &[48 * 1024]),
            ga(8, &[48 * 1024]),
            ga(8, &[48 * 1024]),
        ]);
        let r = ex.execute(&plan).unwrap();
        assert!(r.total_s > 0.0);
        assert_eq!(r.micro_batches.len(), 1);
        assert!(r.peak_mem_bytes <= ex.cluster().gpu().mem_bytes);
        assert!(r.alltoall_ratio() > 0.0 && r.alltoall_ratio() < 1.0);
    }

    #[test]
    fn unplaced_plan_is_rejected() {
        let (ex, _) = setup();
        let plan = IterationPlan::new(vec![MicroBatchPlan::new(vec![ga(8, &[8192])])]);
        let err = ex.execute(&plan).unwrap_err();
        assert!(matches!(err, ExecError::Placement(_)), "got {err:?}");
    }

    #[test]
    fn overlapping_placements_are_rejected() {
        let (ex, _) = setup();
        let topo = flexsp_sim::Topology::new(8, 8);
        // Two groups hand-placed on the same GPUs.
        let overlapping = DeviceGroup::aligned(0, 8);
        let groups = vec![
            ga(8, &[8192]).with_placement(overlapping.clone(), &topo),
            ga(8, &[4096]).with_placement(overlapping, &topo),
        ];
        let plan = IterationPlan::new(vec![MicroBatchPlan::new(groups)]);
        let err = ex.execute(&plan).unwrap_err();
        assert!(matches!(err, ExecError::Placement(_)), "got {err:?}");
    }

    #[test]
    fn out_of_cluster_placement_is_rejected() {
        let (ex, _) = setup();
        let outside = DeviceGroup::aligned(64, 8); // GPUs 64..72 on a 64-GPU cluster
        let mut ga = ga(8, &[8192]);
        ga.placement = Some(outside);
        let plan = IterationPlan::new(vec![MicroBatchPlan::new(vec![ga])]);
        let err = ex.execute(&plan).unwrap_err();
        assert!(matches!(err, ExecError::Placement(_)), "got {err:?}");
    }

    #[test]
    fn sku_disagreement_is_rejected() {
        // A plan priced for the fast class but placed on slow-class GPUs
        // must be refused, not silently executed at the wrong speed.
        let cluster = ClusterSpec::a100_h100_mix(2, 2, 8);
        let topo = cluster.topology().clone();
        let model = ModelConfig::gpt_7b(64 * 1024);
        let ex = Executor::new(cluster, model, ActivationPolicy::None);
        // GPUs 0..8 are A100s (SkuId 1); claim the H100 class (SkuId 0).
        let fast_claim = GroupAssignment::new(GroupShape::intra(8), seqs(&[8192]));
        let mut g = fast_claim;
        g.placement = Some(DeviceGroup::aligned(0, 8));
        let plan = IterationPlan::new(vec![MicroBatchPlan::new(vec![g])]);
        let err = ex.execute(&plan).unwrap_err();
        assert!(matches!(err, ExecError::Placement(_)), "got {err:?}");
        // The honest declaration executes fine.
        let honest = GroupAssignment::new(GroupShape::intra(8), seqs(&[8192]))
            .with_placement(DeviceGroup::aligned(0, 8), &topo);
        let plan = IterationPlan::new(vec![MicroBatchPlan::new(vec![honest])]);
        assert!(ex.execute(&plan).is_ok());
    }

    #[test]
    fn oom_detected_for_oversized_group() {
        let (ex, cost) = setup();
        let too_many = cost.max_group_tokens(8) + 4096;
        let plan = placed(vec![ga(8, &[too_many / 2, too_many / 2, 4096])]);
        let err = ex.execute(&plan).unwrap_err();
        assert!(matches!(err, ExecError::Oom(_)), "got {err:?}");
    }

    #[test]
    fn gpu_budget_enforced_at_placement() {
        // A 64 + 8 plan cannot be placed on 64 GPUs at all.
        let mut plan = IterationPlan::new(vec![MicroBatchPlan::new(vec![
            ga(64, &[1024]),
            ga(8, &[1024]),
        ])]);
        let err = plan.place(&flexsp_sim::Topology::new(8, 8)).unwrap_err();
        assert!(matches!(
            err,
            crate::placement::PlaceError::OutOfGpus { .. }
        ));
    }

    #[test]
    fn hot_switching_pays_setup_once() {
        let (ex, _) = setup();
        let plan = placed(vec![ga(8, &[8192])]);
        let r1 = ex.execute(&plan).unwrap();
        let r2 = ex.execute(&plan).unwrap();
        assert!(r1.setup_s > 0.0);
        assert_eq!(r2.setup_s, 0.0, "cached communicator must be free");
        assert_eq!(ex.pool().stats().creations, 1);
    }

    #[test]
    fn micro_batches_accumulate_time() {
        let (ex, _) = setup();
        let one = placed(vec![ga(8, &[16384])]);
        let mut two = IterationPlan::new(vec![
            MicroBatchPlan::new(vec![ga(8, &[16384])]),
            MicroBatchPlan::new(vec![ga(8, &[16384])]),
        ]);
        two.place(&flexsp_sim::Topology::new(8, 8)).unwrap();
        let r1 = ex.execute(&one).unwrap();
        let r2 = ex.execute(&two).unwrap();
        assert!(r2.total_s > 1.8 * (r1.total_s - r1.overhead_s));
    }

    #[test]
    fn idle_time_reflects_imbalance() {
        let (ex, _) = setup();
        // One loaded group + one nearly idle group.
        let plan = placed(vec![
            ga(8, &[24 * 1024, 24 * 1024]),
            GroupAssignment::new(GroupShape::intra(8), seqs(&[1024])),
        ]);
        let r = ex.execute(&plan).unwrap();
        assert!(r.micro_batches[0].idle_gpu_s > 0.0);
    }

    #[test]
    fn spanning_placement_simulates_slower_than_intra() {
        // The fidelity the refactor buys: the same degree-8 workload on a
        // node-spanning placement pays NIC All-to-All.
        let (ex, _) = setup();
        let intra = placed(vec![ga(8, &[32 * 1024])]);
        let topo = flexsp_sim::Topology::new(8, 8);
        let spanning_group = DeviceGroup::for_shape_on(GroupShape::new(8, 2), &topo, 0);
        let plan = IterationPlan::new(vec![MicroBatchPlan::new(vec![
            ga(8, &[32 * 1024]).with_placement(spanning_group, &topo)
        ])]);
        let fast = ex.execute(&intra).unwrap();
        let slow = ex.execute(&plan).unwrap();
        assert!(
            slow.alltoall_s > 2.0 * fast.alltoall_s,
            "spanning {} vs intra {}",
            slow.alltoall_s,
            fast.alltoall_s
        );
    }
}
