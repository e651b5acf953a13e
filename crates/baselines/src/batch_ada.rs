//! FlexSP-BatchAda: homogeneous within a batch, adaptive across batches
//! (paper §6.1).

// lint: allow(clock) wall solve time is part of SystemReport's functional output
use std::time::Instant;

use flexsp_core::{blaster, plan_homogeneous, Executor, IterationPlan};
use flexsp_cost::CostModel;
use flexsp_data::Sequence;
use flexsp_model::{ActivationPolicy, ModelConfig};
use flexsp_sim::ClusterSpec;

use crate::system::{BaselineError, SystemReport, TrainingSystem};

/// The FlexSP-BatchAda ablation: for every global batch it picks the best
/// *single* SP degree (e.g. two SP=32 groups for one batch, eight SP=8
/// groups for the next), but never mixes degrees within a batch.
#[derive(Debug)]
pub struct FlexSpBatchAda {
    cost: CostModel,
    executor: Executor,
    num_gpus: u32,
    last_degree: Option<u32>,
    last_signature: String,
}

impl FlexSpBatchAda {
    /// Creates the system (fits its own cost model).
    pub fn new(cluster: ClusterSpec, model: ModelConfig, policy: ActivationPolicy) -> Self {
        let cost = CostModel::fit(&cluster, &model, policy);
        let num_gpus = cluster.num_gpus();
        Self {
            cost,
            executor: Executor::new(cluster, model, policy),
            num_gpus,
            last_degree: None,
            last_signature: String::new(),
        }
    }

    /// Degree signature of the last iteration (Table 3 notation).
    pub fn last_signature(&self) -> &str {
        &self.last_signature
    }

    /// Builds the homogeneous iteration plan for `degree`, splitting into
    /// micro-batches as memory requires.
    fn plan_for_degree(
        &self,
        batch: &[Sequence],
        degree: u32,
    ) -> Result<(IterationPlan, f64), BaselineError> {
        // Capacity under a homogeneous degree: every group holds the same
        // share, so the usable cluster capacity is N/d groups × cap(d).
        let groups = self.num_gpus / degree;
        let capacity = self.cost.max_group_tokens(degree) * groups as u64;
        let m_min = blaster::min_micro_batches(batch, capacity).ok_or_else(|| {
            BaselineError::NoFeasibleStrategy(format!("SP={degree} has zero capacity"))
        })?;
        // Extra micro-batches absorb LPT imbalance; near the memory wall
        // (e.g. GPT-30B at long context) several extra steps can be needed.
        for m in m_min..m_min + 10 {
            let micro = blaster::blast(batch, m, true);
            let mut plans = Vec::with_capacity(micro.len());
            let mut total = 0.0;
            let mut ok = true;
            for mb in &micro {
                match plan_homogeneous(&self.cost, mb, self.num_gpus, degree) {
                    Ok(p) => {
                        total += p.predicted_time(&self.cost);
                        plans.push(p);
                    }
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                return Ok((IterationPlan::new(plans), total));
            }
        }
        Err(BaselineError::NoFeasibleStrategy(format!(
            "SP={degree} cannot host the batch"
        )))
    }
}

impl TrainingSystem for FlexSpBatchAda {
    fn name(&self) -> String {
        "FlexSP-BatchAda".into()
    }

    fn strategy(&self) -> String {
        match self.last_degree {
            Some(d) => format!("per-batch homogeneous SP (last: SP={d})"),
            None => "per-batch homogeneous SP".into(),
        }
    }

    fn num_gpus(&self) -> u32 {
        self.num_gpus
    }

    fn run_iteration(&mut self, batch: &[Sequence]) -> Result<SystemReport, BaselineError> {
        // lint: allow(clock) reported as SystemReport::solve_wall_s, not used for control flow
        let start = Instant::now();
        let longest = batch.iter().map(|s| s.len).max().unwrap_or(0);
        let min_degree = self.cost.min_degree_for(longest).ok_or_else(|| {
            BaselineError::NoFeasibleStrategy(format!("{longest}-token sequence does not fit"))
        })?;
        let mut best: Option<(u32, IterationPlan, f64)> = None;
        for d in self
            .cost
            .degrees()
            .into_iter()
            .filter(|&d| d >= min_degree && d <= self.num_gpus)
        {
            if let Ok((plan, t)) = self.plan_for_degree(batch, d) {
                if best.as_ref().is_none_or(|(_, _, bt)| t < *bt) {
                    best = Some((d, plan, t));
                }
            }
        }
        let (degree, plan, _) = best.ok_or_else(|| {
            BaselineError::NoFeasibleStrategy("no homogeneous degree hosts the batch".into())
        })?;
        let solve_wall_s = start.elapsed().as_secs_f64();
        self.last_degree = Some(degree);
        self.last_signature = plan.signature().replace('\n', "; ");
        let report = self
            .executor
            .execute(&plan)
            .map_err(|e| BaselineError::Exec(e.to_string()))?;
        Ok(SystemReport {
            total_s: report.total_s,
            comm_s: report.alltoall_s,
            compute_s: report.compute_s,
            tokens: plan.total_tokens(),
            solve_wall_s,
            predicted_s: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsp_data::{GlobalBatchLoader, LengthDistribution};

    fn system(nodes: u32, ctx: u64) -> FlexSpBatchAda {
        FlexSpBatchAda::new(
            ClusterSpec::a100_cluster(nodes),
            ModelConfig::gpt_7b(ctx),
            ActivationPolicy::None,
        )
    }

    #[test]
    fn adapts_degree_to_batch_content() {
        let mut sys = system(8, 384 * 1024);
        // Batch of short sequences: small degree.
        let short: Vec<Sequence> = (0..64).map(|i| Sequence::new(i, 4096)).collect();
        sys.run_iteration(&short).unwrap();
        let d_short = sys.last_degree.unwrap();
        // Batch containing a 300K sequence: large degree for everything.
        let mut long = short.clone();
        long.push(Sequence::new(999, 300 * 1024));
        sys.run_iteration(&long).unwrap();
        let d_long = sys.last_degree.unwrap();
        assert!(
            d_long > d_short,
            "short batch SP={d_short}, long batch SP={d_long}"
        );
    }

    #[test]
    fn runs_realistic_batches() {
        let mut sys = system(2, 64 * 1024);
        let mut loader = GlobalBatchLoader::new(LengthDistribution::wikipedia(), 48, 64 * 1024, 2);
        for _ in 0..2 {
            let r = sys.run_iteration(&loader.next_batch()).unwrap();
            assert!(r.total_s > 0.0);
            assert!(r.comm_ratio() < 0.9);
        }
    }
}
