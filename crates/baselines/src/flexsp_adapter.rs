//! The full FlexSP system behind the common [`TrainingSystem`] interface.

use flexsp_core::{Executor, FlexSpSolver, SolverConfig};
use flexsp_cost::CostModel;
use flexsp_data::Sequence;
use flexsp_model::{ActivationPolicy, ModelConfig};
use flexsp_sim::ClusterSpec;

use crate::system::{BaselineError, SystemReport, TrainingSystem};

/// FlexSP wrapped for side-by-side evaluation with the baselines.
#[derive(Debug)]
pub struct FlexSpSystem {
    solver: FlexSpSolver,
    executor: Executor,
    num_gpus: u32,
    last_signature: String,
    last_plan: Option<flexsp_core::IterationPlan>,
}

impl FlexSpSystem {
    /// Creates the system with the given solver configuration.
    pub fn new(
        cluster: ClusterSpec,
        model: ModelConfig,
        policy: ActivationPolicy,
        config: SolverConfig,
    ) -> Self {
        let cost = CostModel::fit(&cluster, &model, policy);
        let num_gpus = cluster.num_gpus();
        Self {
            solver: FlexSpSolver::new(cost, config),
            executor: Executor::new(cluster, model, policy),
            num_gpus,
            last_signature: String::new(),
            last_plan: None,
        }
    }

    /// The full plan of the last iteration (for Fig. 5b-style analyses).
    pub fn last_plan(&self) -> Option<&flexsp_core::IterationPlan> {
        self.last_plan.as_ref()
    }

    /// Creates the system with experiment-throughput solver settings.
    pub fn fast(cluster: ClusterSpec, model: ModelConfig, policy: ActivationPolicy) -> Self {
        Self::new(cluster, model, policy, SolverConfig::fast())
    }

    /// The underlying solver.
    pub fn solver(&self) -> &FlexSpSolver {
        &self.solver
    }

    /// The underlying executor (e.g. to inspect communicator-pool
    /// statistics).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The plan signature of the last iteration (Table 3 notation).
    pub fn last_signature(&self) -> &str {
        &self.last_signature
    }
}

impl TrainingSystem for FlexSpSystem {
    fn name(&self) -> String {
        "FlexSP".into()
    }

    fn strategy(&self) -> String {
        if self.last_signature.is_empty() {
            "adaptive heterogeneous SP".into()
        } else {
            format!("adaptive heterogeneous SP (last: {})", self.last_signature)
        }
    }

    fn num_gpus(&self) -> u32 {
        self.num_gpus
    }

    fn run_iteration(&mut self, batch: &[Sequence]) -> Result<SystemReport, BaselineError> {
        let solved = self.solver.solve_iteration(batch)?;
        // Stored before it runs, so `last_plan` holds a plan that failed.
        let plan = self.last_plan.insert(solved.plan);
        self.last_signature = plan.signature().replace('\n', "; ");
        let report = self
            .executor
            .execute(plan)
            .map_err(|e| BaselineError::Exec(e.to_string()))?;
        Ok(SystemReport {
            total_s: report.total_s,
            comm_s: report.alltoall_s,
            compute_s: report.compute_s,
            tokens: plan.total_tokens(),
            solve_wall_s: solved.solve_wall_s,
            predicted_s: Some(plan.predicted_time(self.solver.cost())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_system, DeepSpeedUlysses, FlexSpBatchAda};
    use flexsp_data::{GlobalBatchLoader, LengthDistribution};

    /// The paper's headline ordering on a long-tail corpus with a long
    /// context: FlexSP ≤ FlexSP-BatchAda ≤ DeepSpeed (allowing noise).
    #[test]
    fn headline_ordering_on_long_tail_data() {
        let cluster = ClusterSpec::a100_cluster(8);
        let model = ModelConfig::gpt_7b(192 * 1024);
        let policy = ActivationPolicy::None;
        let loader =
            || GlobalBatchLoader::new(LengthDistribution::wikipedia(), 128, 192 * 1024, 17);

        let mut ds = DeepSpeedUlysses::new(cluster.clone(), model.clone(), policy).unwrap();
        let ds_stats = evaluate_system(&mut ds, loader(), 2).unwrap();

        let mut ada = FlexSpBatchAda::new(cluster.clone(), model.clone(), policy);
        let ada_stats = evaluate_system(&mut ada, loader(), 2).unwrap();

        let mut fx = FlexSpSystem::fast(cluster, model, policy);
        let fx_stats = evaluate_system(&mut fx, loader(), 2).unwrap();

        let (t_fx, t_ada, t_ds) = (
            fx_stats.mean_iteration_s(),
            ada_stats.mean_iteration_s(),
            ds_stats.mean_iteration_s(),
        );
        assert!(
            t_fx < t_ds,
            "FlexSP {t_fx:.2}s must beat DeepSpeed {t_ds:.2}s"
        );
        assert!(
            t_fx <= t_ada * 1.02,
            "FlexSP {t_fx:.2}s must not lose to BatchAda {t_ada:.2}s"
        );
        // And the win comes from communication, as in the paper.
        assert!(fx_stats.mean_comm_ratio() < ds_stats.mean_comm_ratio());
    }
}
