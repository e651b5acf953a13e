//! DeepSpeed-like baseline: static homogeneous Ulysses SP + ZeRO-3 with
//! Best-Fit packing (paper §6.1).

// lint: allow(clock) wall solve time is part of SystemReport's functional output
use std::time::Instant;

use flexsp_cost::{sp_step_spec, ulysses_zero_spec, CostModel};
use flexsp_data::{pack_best_fit_decreasing, PackedInput, Sequence};
use flexsp_model::{ActivationPolicy, ModelConfig};
use flexsp_sim::{simulate_sp_step, ClusterSpec, DeviceGroup, SpStepReport, OPTIMIZER_OVERHEAD_S};

use crate::system::{BaselineError, SystemReport, TrainingSystem};

/// The DeepSpeed-Ulysses baseline: one static SP degree for the whole run.
///
/// The context length forces the degree: a homogeneous system must be able
/// to process a maximum-length packed input, so the smallest feasible
/// degree is bounded below by memory, and every short sequence pays that
/// group's communication profile — the inefficiency FlexSP removes.
///
/// The degree is *tuned* (all feasible candidates timed on a probe batch,
/// App. B.2 reports SP=64 or SP=32 as the winners) and then held static.
#[derive(Debug)]
pub struct DeepSpeedUlysses {
    cluster: ClusterSpec,
    model: ModelConfig,
    policy: ActivationPolicy,
    cost: CostModel,
    degree: Option<u32>,
    last_signature: String,
}

impl DeepSpeedUlysses {
    /// Creates the baseline; the SP degree is tuned lazily on the first
    /// batch.
    ///
    /// # Errors
    ///
    /// [`BaselineError::NoFeasibleStrategy`] if even the full-cluster
    /// degree cannot hold a maximum-context packed input.
    pub fn new(
        cluster: ClusterSpec,
        model: ModelConfig,
        policy: ActivationPolicy,
    ) -> Result<Self, BaselineError> {
        let cost = CostModel::fit(&cluster, &model, policy);
        if cost.min_degree_for(model.max_context).is_none() {
            return Err(BaselineError::NoFeasibleStrategy(format!(
                "context length {} does not fit on {} GPUs",
                model.max_context,
                cluster.num_gpus()
            )));
        }
        Ok(Self {
            cluster,
            model,
            policy,
            cost,
            degree: None,
            last_signature: String::new(),
        })
    }

    /// Degree signature of the last iteration (Table 3 notation).
    pub fn last_signature(&self) -> &str {
        &self.last_signature
    }

    /// Degrees able to hold one max-context packed input.
    fn feasible_degrees(&self) -> Vec<u32> {
        self.cost
            .degrees()
            .into_iter()
            .filter(|&d| self.cost.max_group_tokens(d) >= self.model.max_context)
            .collect()
    }

    /// Simulates one iteration at `degree`; also used for tuning.
    fn simulate(&self, degree: u32, packed: &[PackedInput]) -> SystemReport {
        let n = self.cluster.num_gpus();
        let replicas = (n / degree).max(1) as usize;
        // Distribute packed inputs across replicas, longest first, onto
        // the least-loaded replica (each replica accumulates gradients
        // over its own micro-batches).
        let mut order: Vec<&PackedInput> = packed.iter().collect();
        order.sort_by_key(|p| std::cmp::Reverse(p.total_tokens()));
        let zero = ulysses_zero_spec(&self.cluster, &self.model);
        let mut loads: Vec<SpStepReport> = vec![SpStepReport::default(); replicas];
        for p in order {
            let (idx, _) = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_s().total_cmp(&b.1.total_s()))
                .expect("replicas > 0");
            let group = DeviceGroup::aligned(idx as u32 * degree, degree);
            let spec = sp_step_spec(
                &self.model,
                self.policy,
                degree,
                &p.segment_lengths(),
                Some(zero),
            );
            loads[idx].accumulate(simulate_sp_step(&self.cluster, &group, &spec));
        }
        let critical = loads
            .iter()
            .max_by(|a, b| a.total_s().total_cmp(&b.total_s()))
            .copied()
            .unwrap_or_default();
        SystemReport {
            total_s: critical.total_s() + OPTIMIZER_OVERHEAD_S,
            comm_s: critical.alltoall_s,
            compute_s: critical.compute_s,
            tokens: packed.iter().map(|p| p.total_tokens()).sum(),
            solve_wall_s: 0.0,
            predicted_s: None,
        }
    }

    /// Tunes the static degree on a probe batch: best simulated iteration
    /// time among all memory-feasible candidates.
    fn tune(&mut self, batch: &[Sequence]) -> Result<u32, BaselineError> {
        if let Some(d) = self.degree {
            return Ok(d);
        }
        let packed = pack_best_fit_decreasing(batch, self.model.max_context);
        let best = self
            .feasible_degrees()
            .into_iter()
            .map(|d| (d, self.simulate(d, &packed).total_s))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(d, _)| d)
            .ok_or_else(|| {
                BaselineError::NoFeasibleStrategy("no SP degree fits the context length".into())
            })?;
        self.degree = Some(best);
        Ok(best)
    }
}

impl TrainingSystem for DeepSpeedUlysses {
    fn name(&self) -> String {
        "DeepSpeed".into()
    }

    fn strategy(&self) -> String {
        match self.degree {
            Some(d) => format!("SP={d}, ZeRO-3, BFD packing"),
            None => "untuned".into(),
        }
    }

    fn num_gpus(&self) -> u32 {
        self.cluster.num_gpus()
    }

    fn run_iteration(&mut self, batch: &[Sequence]) -> Result<SystemReport, BaselineError> {
        // lint: allow(clock) reported as SystemReport::solve_wall_s, not used for control flow
        let start = Instant::now();
        let degree = self.tune(batch)?;
        let packed = pack_best_fit_decreasing(batch, self.model.max_context);
        let replicas = (self.cluster.num_gpus() / degree).max(1) as usize;
        let accum_steps = packed.len().div_ceil(replicas);
        self.last_signature = format!("<{degree}> x{accum_steps}");
        let mut report = self.simulate(degree, &packed);
        report.solve_wall_s = start.elapsed().as_secs_f64();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsp_data::{GlobalBatchLoader, LengthDistribution};

    fn setup(nodes: u32, ctx: u64) -> DeepSpeedUlysses {
        let cluster = ClusterSpec::a100_cluster(nodes);
        let model = ModelConfig::gpt_7b(ctx);
        DeepSpeedUlysses::new(cluster, model, ActivationPolicy::None).unwrap()
    }

    fn batch(ctx: u64, n: usize) -> Vec<Sequence> {
        GlobalBatchLoader::new(LengthDistribution::common_crawl(), n, ctx, 5).next_batch()
    }

    #[test]
    fn long_context_forces_large_degree() {
        // 384K on 64 GPUs leaves only SP=64 (paper §6.2: "DeepSpeed
        // requires SP=64" at 384K).
        let mut ds = setup(8, 384 * 1024);
        let b = batch(384 * 1024, 64);
        ds.run_iteration(&b).unwrap();
        assert_eq!(ds.degree, Some(64), "strategy: {}", ds.strategy());
    }

    #[test]
    fn strategy_is_static_across_batches() {
        let mut ds = setup(8, 192 * 1024);
        let first = {
            ds.run_iteration(&batch(192 * 1024, 64)).unwrap();
            ds.degree
        };
        ds.run_iteration(&batch(192 * 1024, 64)).unwrap();
        assert_eq!(ds.degree, first);
    }

    #[test]
    fn comm_ratio_in_table1_regime() {
        // At 384K (SP=64), the All-to-All share should be substantial
        // (paper Fig. 5a: up to ~40 %).
        let mut ds = setup(8, 384 * 1024);
        let r = ds.run_iteration(&batch(384 * 1024, 128)).unwrap();
        assert!(
            (0.20..=0.60).contains(&r.comm_ratio()),
            "comm ratio {:.3}",
            r.comm_ratio()
        );
    }

    #[test]
    fn context_too_long_for_cluster_is_rejected() {
        let cluster = ClusterSpec::a100_cluster(1);
        let model = ModelConfig::gpt_7b(384 * 1024);
        assert!(matches!(
            DeepSpeedUlysses::new(cluster, model, ActivationPolicy::None),
            Err(BaselineError::NoFeasibleStrategy(_))
        ));
    }

    #[test]
    fn tokens_accounted() {
        let mut ds = setup(2, 32 * 1024);
        let b = batch(32 * 1024, 32);
        let tokens: u64 = b.iter().map(|s| s.len).sum();
        let r = ds.run_iteration(&b).unwrap();
        assert_eq!(r.tokens, tokens);
    }
}
