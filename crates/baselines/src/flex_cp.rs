//! Flexible context parallelism (paper Appendix E): fixed TP degree,
//! ZeRO, and FlexSP's solver adaptively sizing the CP groups per batch.
//!
//! The planner stack is reused *unchanged*: [`flexsp_cost::cp::fit_cp`]
//! produces a [`CostModel`] whose "degrees" are TP×CP replica sizes, and
//! `flexsp-core`'s blaster/bucketing/MILP planner optimizes over it. Only
//! execution differs — replicas run Megatron-SP collectives plus the
//! ring-attention exchange instead of Ulysses All-to-All.

// lint: allow(clock) wall solve time is part of SystemReport's functional output
use std::time::Instant;

use flexsp_core::{FlexSpSolver, IterationPlan, SolverConfig};
use flexsp_cost::cp::{cp_zero_spec, fit_cp, simulate_cp_group, simulate_cp_replica};
use flexsp_data::Sequence;
use flexsp_model::{ActivationPolicy, ModelConfig};
use flexsp_sim::{ClusterSpec, SpStepReport, OPTIMIZER_OVERHEAD_S};

use crate::system::{BaselineError, SystemReport, TrainingSystem};

/// Flexible-CP training system (Appendix E), with a fixed TP width.
#[derive(Debug)]
pub struct FlexCpSystem {
    cluster: ClusterSpec,
    model: ModelConfig,
    policy: ActivationPolicy,
    tp: u32,
    solver: FlexSpSolver,
    last_signature: String,
}

impl FlexCpSystem {
    /// Creates the system with TP fixed at `tp` (power of two ≤ node
    /// width, typically 8).
    ///
    /// # Panics
    ///
    /// Panics if `tp` is invalid for the cluster (see
    /// [`flexsp_cost::cp::fit_cp`]).
    pub fn new(
        cluster: ClusterSpec,
        model: ModelConfig,
        policy: ActivationPolicy,
        tp: u32,
        config: SolverConfig,
    ) -> Self {
        let cost = fit_cp(&cluster, &model, policy, tp);
        Self {
            cluster,
            model,
            policy,
            tp,
            solver: FlexSpSolver::new(cost, config),
            last_signature: String::new(),
        }
    }

    /// The fixed TP width.
    pub fn tp(&self) -> u32 {
        self.tp
    }

    /// Plan signature of the last iteration (replica sizes, Table 3
    /// notation).
    pub fn last_signature(&self) -> &str {
        &self.last_signature
    }

    /// Executes a replica-size plan with the CP ground-truth simulator,
    /// on the plan's own placements.
    fn execute(&self, plan: &IterationPlan) -> Result<SystemReport, BaselineError> {
        let zero = cp_zero_spec(&self.cluster, &self.model, self.tp);
        let mut total = 0.0;
        let mut comm = 0.0;
        let mut compute = 0.0;
        for mb in &plan.micro_batches {
            let mut worst = SpStepReport::default();
            for g in &mb.groups {
                if g.degree() % self.tp != 0 {
                    return Err(BaselineError::Exec(format!(
                        "replica of {} GPUs incompatible with TP={}",
                        g.degree(),
                        self.tp
                    )));
                }
                let cp = g.degree() / self.tp;
                let replica = g
                    .placement
                    .as_ref()
                    .ok_or_else(|| BaselineError::Exec("plan arrived without placements".into()))?;
                let r = simulate_cp_group(
                    &self.cluster,
                    &self.model,
                    self.policy,
                    self.tp,
                    cp,
                    replica,
                    &g.lengths(),
                    Some(zero),
                );
                if r.total_s() > worst.total_s() {
                    worst = r;
                }
            }
            total += worst.total_s();
            comm += worst.alltoall_s;
            compute += worst.compute_s;
        }
        Ok(SystemReport {
            total_s: total + OPTIMIZER_OVERHEAD_S,
            comm_s: comm,
            compute_s: compute,
            tokens: plan.total_tokens(),
            solve_wall_s: 0.0,
            predicted_s: None,
        })
    }
}

impl TrainingSystem for FlexCpSystem {
    fn name(&self) -> String {
        format!("FlexCP (TP={})", self.tp)
    }

    fn strategy(&self) -> String {
        if self.last_signature.is_empty() {
            format!("adaptive CP over TP={}", self.tp)
        } else {
            format!(
                "adaptive CP over TP={} (last: {})",
                self.tp, self.last_signature
            )
        }
    }

    fn num_gpus(&self) -> u32 {
        self.cluster.num_gpus()
    }

    fn run_iteration(&mut self, batch: &[Sequence]) -> Result<SystemReport, BaselineError> {
        // lint: allow(clock) reported as SystemReport::solve_wall_s, not used for control flow
        let start = Instant::now();
        let solved = self.solver.solve_iteration(batch)?;
        self.last_signature = solved.plan.signature().replace('\n', "; ");
        let mut report = self.execute(&solved.plan)?;
        report.solve_wall_s = start.elapsed().as_secs_f64();
        Ok(report)
    }
}

/// Static homogeneous CP baseline: one fixed TP×CP replica shape for the
/// whole run (what Megatron-style CP does today), for the Appendix E
/// comparison.
#[derive(Debug)]
pub struct HomogeneousCp {
    cluster: ClusterSpec,
    model: ModelConfig,
    policy: ActivationPolicy,
    tp: u32,
    cp: u32,
}

impl HomogeneousCp {
    /// Creates the baseline with the given fixed replica shape.
    pub fn new(
        cluster: ClusterSpec,
        model: ModelConfig,
        policy: ActivationPolicy,
        tp: u32,
        cp: u32,
    ) -> Self {
        Self {
            cluster,
            model,
            policy,
            tp,
            cp,
        }
    }

    /// The smallest CP degree whose replica holds a max-context input.
    pub fn min_feasible_cp(
        cluster: &ClusterSpec,
        model: &ModelConfig,
        policy: ActivationPolicy,
        tp: u32,
    ) -> Option<u32> {
        let cost = fit_cp(cluster, model, policy, tp);
        cost.min_degree_for(model.max_context).map(|d| d / tp)
    }
}

impl TrainingSystem for HomogeneousCp {
    fn name(&self) -> String {
        "Homogeneous CP".into()
    }

    fn strategy(&self) -> String {
        format!("TP={}, CP={} (static)", self.tp, self.cp)
    }

    fn num_gpus(&self) -> u32 {
        self.cluster.num_gpus()
    }

    fn run_iteration(&mut self, batch: &[Sequence]) -> Result<SystemReport, BaselineError> {
        // lint: allow(clock) reported as SystemReport::solve_wall_s, not used for control flow
        let start = Instant::now();
        let replica = self.tp * self.cp;
        let replicas = (self.cluster.num_gpus() / replica).max(1);
        let zero = cp_zero_spec(&self.cluster, &self.model, self.tp);
        // Pack to the context length (as the CP systems do) and spread
        // packed inputs over replicas, least-loaded first.
        let packed = flexsp_data::pack_best_fit_decreasing(batch, self.model.max_context);
        let mut loads: Vec<SpStepReport> = vec![SpStepReport::default(); replicas as usize];
        let mut order: Vec<_> = packed.iter().collect();
        order.sort_by_key(|p| std::cmp::Reverse(p.total_tokens()));
        for p in order {
            let (idx, _) = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_s().total_cmp(&b.1.total_s()))
                .expect("replicas > 0");
            let r = simulate_cp_replica(
                &self.cluster,
                &self.model,
                self.policy,
                self.tp,
                self.cp,
                idx as u32 * replica,
                &p.segment_lengths(),
                Some(zero),
            );
            loads[idx].accumulate(r);
        }
        let worst = loads
            .iter()
            .max_by(|a, b| a.total_s().total_cmp(&b.total_s()))
            .copied()
            .unwrap_or_default();
        Ok(SystemReport {
            total_s: worst.total_s() + OPTIMIZER_OVERHEAD_S,
            comm_s: worst.alltoall_s,
            compute_s: worst.compute_s,
            tokens: packed.iter().map(|p| p.total_tokens()).sum(),
            solve_wall_s: start.elapsed().as_secs_f64(),
            predicted_s: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsp_data::{GlobalBatchLoader, LengthDistribution};

    #[test]
    fn flexible_cp_beats_static_cp_on_long_tail_data() {
        // Appendix E's thesis, demonstrated: adaptive CP group sizing
        // beats the static shape forced by the context length.
        let cluster = ClusterSpec::a100_cluster(8);
        let model = ModelConfig::gpt_7b(192 << 10);
        let policy = ActivationPolicy::None;
        let tp = 8;
        let loader = || GlobalBatchLoader::new(LengthDistribution::wikipedia(), 128, 192 << 10, 31);

        let cp = HomogeneousCp::min_feasible_cp(&cluster, &model, policy, tp).expect("fits");
        let mut homo = HomogeneousCp::new(cluster.clone(), model.clone(), policy, tp, cp);
        let mut flex = FlexCpSystem::new(cluster, model, policy, tp, SolverConfig::fast());

        let t_homo = crate::evaluate_system(&mut homo, loader(), 2)
            .unwrap()
            .mean_iteration_s();
        let t_flex = crate::evaluate_system(&mut flex, loader(), 2)
            .unwrap()
            .mean_iteration_s();
        assert!(
            t_flex < t_homo,
            "FlexCP {t_flex:.2}s should beat static TP={tp},CP={cp} {t_homo:.2}s"
        );
    }

    #[test]
    fn replica_sizes_are_multiples_of_tp() {
        let cluster = ClusterSpec::a100_cluster(2);
        let model = ModelConfig::gpt_7b(64 << 10);
        let mut flex = FlexCpSystem::new(
            cluster,
            model,
            ActivationPolicy::None,
            8,
            SolverConfig::fast(),
        );
        let batch: Vec<Sequence> = (0..32).map(|i| Sequence::new(i, 4096)).collect();
        let r = flex.run_iteration(&batch).unwrap();
        assert!(r.total_s > 0.0);
        // The signature only contains degrees ≥ tp.
        assert!(
            !flex.last_signature().contains("<1")
                && !flex.last_signature().contains("<2")
                && !flex.last_signature().contains("<4,"),
            "signature {}",
            flex.last_signature()
        );
    }
}
