//! The degree-only FlexSP ablation: the pre-placement-refactor pipeline.
//!
//! This system reproduces what the stack did before plans became
//! placement-aware: the cost model is keyed by bare degree (one
//! flat-aligned profile per degree, [`CostModel::fit_flat_aligned`]), the
//! planner optimizes over those degree-keyed fits, and execution lays
//! groups out with the legacy *flat-aligned* allocator
//! ([`flexsp_sim::allocate_aligned`]) — power-of-two blocks over the flat
//! GPU index, oblivious to node boundaries.
//!
//! On the paper's 8-GPU nodes with power-of-two degrees the flat layout
//! happens to coincide with node-aware packing, so this ablation ties the
//! real system. On anything else — 6- or 12-GPU nodes, partial clusters,
//! degraded NICs that punish accidental node-straddling — the plans it
//! picks and the layouts it executes diverge from what the cluster
//! rewards, which is exactly what the topology-sweep scenarios measure.

use flexsp_core::{Executor, FlexSpSolver, IterationPlan, SolverConfig};
use flexsp_cost::CostModel;
use flexsp_data::Sequence;
use flexsp_model::{ActivationPolicy, ModelConfig};
use flexsp_sim::{allocate_aligned, ClusterSpec, GroupShape, Topology};

use crate::system::{BaselineError, SystemReport, TrainingSystem};

/// FlexSP with a degree-keyed cost model and flat-aligned placement (the
/// pre-refactor behavior), for topology ablations.
#[derive(Debug)]
pub struct DegreeOnlyFlexSp {
    solver: FlexSpSolver,
    executor: Executor,
    num_gpus: u32,
    topo: Topology,
    last_plan: Option<IterationPlan>,
}

impl DegreeOnlyFlexSp {
    /// Creates the ablation with the given solver configuration.
    pub fn new(
        cluster: ClusterSpec,
        model: ModelConfig,
        policy: ActivationPolicy,
        config: SolverConfig,
    ) -> Self {
        let cost = CostModel::fit_flat_aligned(&cluster, &model, policy);
        let num_gpus = cluster.num_gpus();
        let topo = cluster.topology().clone();
        Self {
            solver: FlexSpSolver::new(cost, config),
            executor: Executor::new(cluster, model, policy),
            num_gpus,
            topo,
            last_plan: None,
        }
    }

    /// Creates the ablation with experiment-throughput solver settings.
    pub fn fast(cluster: ClusterSpec, model: ModelConfig, policy: ActivationPolicy) -> Self {
        Self::new(cluster, model, policy, SolverConfig::fast())
    }

    /// The underlying solver (degree-keyed cost model).
    pub fn solver(&self) -> &FlexSpSolver {
        &self.solver
    }

    /// The plan of the last iteration, with the flat-aligned placements
    /// it executed at.
    pub fn last_plan(&self) -> Option<&IterationPlan> {
        self.last_plan.as_ref()
    }

    /// Solves `batch` and re-places the plan with the legacy flat-aligned
    /// allocator, returning the plan ready for execution.
    ///
    /// # Errors
    ///
    /// Planning errors, or an allocation error if a micro-batch's degrees
    /// cannot be laid out flat-aligned.
    pub fn solve_flat_aligned(&self, batch: &[Sequence]) -> Result<IterationPlan, BaselineError> {
        let solved = self.solver.solve_iteration(batch)?;
        let mut plan = solved.plan;
        for mb in &mut plan.micro_batches {
            let degrees: Vec<u32> = mb.groups.iter().map(|g| g.degree()).collect();
            let placements = allocate_aligned(self.num_gpus, &degrees)
                .map_err(|e| BaselineError::Exec(e.to_string()))?;
            for (g, p) in mb.groups.iter_mut().zip(placements) {
                // Record the class the flat layout *actually* realizes, so
                // the executor's validation and the simulation agree.
                g.shape = GroupShape::of(&p, &self.topo);
                g.placement = Some(p);
            }
        }
        Ok(plan)
    }
}

impl TrainingSystem for DegreeOnlyFlexSp {
    fn name(&self) -> String {
        "FlexSP-DegreeOnly".into()
    }

    fn strategy(&self) -> String {
        "degree-keyed planner + flat-aligned placement (pre-refactor)".into()
    }

    fn num_gpus(&self) -> u32 {
        self.num_gpus
    }

    fn run_iteration(&mut self, batch: &[Sequence]) -> Result<SystemReport, BaselineError> {
        // lint: allow(clock) reported as SystemReport::solve_wall_s, not used for control flow
        let start = std::time::Instant::now();
        let plan = self.solve_flat_aligned(batch)?;
        let solve_wall_s = start.elapsed().as_secs_f64();
        let report = self
            .executor
            .execute(&plan)
            .map_err(|e| BaselineError::Exec(e.to_string()))?;
        let tokens = plan.total_tokens();
        self.last_plan = Some(plan);
        Ok(SystemReport {
            total_s: report.total_s,
            comm_s: report.alltoall_s,
            compute_s: report.compute_s,
            tokens,
            solve_wall_s,
            predicted_s: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlexSpSystem;
    use flexsp_data::{GlobalBatchLoader, LengthDistribution};

    fn batch(seed: u64, n: usize, ctx: u64) -> Vec<Sequence> {
        GlobalBatchLoader::new(LengthDistribution::wikipedia(), n, ctx, seed).next_batch()
    }

    #[test]
    fn matches_shape_aware_on_the_paper_testbed() {
        // 8-GPU nodes + power-of-two degrees: flat-aligned placement is
        // already node-aligned, so the ablation must be competitive.
        let cluster = ClusterSpec::a100_cluster(2);
        let model = ModelConfig::gpt_7b(48 * 1024);
        let policy = ActivationPolicy::None;
        let b = batch(11, 48, 48 * 1024);
        let mut blind = DegreeOnlyFlexSp::fast(cluster.clone(), model.clone(), policy);
        let mut aware = FlexSpSystem::fast(cluster, model, policy);
        let rb = blind.run_iteration(&b).unwrap();
        let ra = aware.run_iteration(&b).unwrap();
        assert!(
            ra.total_s <= rb.total_s * 1.05,
            "shape-aware {} vs degree-only {}",
            ra.total_s,
            rb.total_s
        );
    }

    #[test]
    fn flat_layout_straddles_odd_nodes() {
        // On 6-GPU nodes the flat-aligned layout splits groups across
        // node boundaries; the recorded spans must reflect that honestly.
        let cluster = ClusterSpec::a100_nodes_of(4, 6);
        let model = ModelConfig::gpt_7b(32 * 1024);
        let sys = DegreeOnlyFlexSp::fast(cluster, model, ActivationPolicy::None);
        let b = batch(3, 24, 32 * 1024);
        let plan = sys.solve_flat_aligned(&b).unwrap();
        assert!(plan.is_placed());
        let spans: Vec<u32> = plan
            .micro_batches
            .iter()
            .flat_map(|m| m.groups.iter().map(|g| g.shape.nodes_spanned))
            .collect();
        assert!(!spans.is_empty());
    }
}
