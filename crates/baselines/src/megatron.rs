//! Megatron-LM-like baseline: TP (with Megatron-style SP) × CP × DP with
//! ZeRO-1 (paper §6.1, App. B.2, App. D).

// lint: allow(clock) wall solve time is part of SystemReport's functional output
use std::time::Instant;

use flexsp_data::{pack_best_fit_decreasing, PackedInput, Sequence};
use flexsp_model::{ActivationPolicy, FlopsModel, ModelConfig, ZeroStage, BF16_BYTES};
use flexsp_sim::{
    collective_time, ClusterSpec, Collective, DeviceGroup, GpuId, OPTIMIZER_OVERHEAD_S,
};

use crate::system::{BaselineError, SystemReport, TrainingSystem};

/// One point in Megatron's strategy space: `tp × cp × dp = N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MegatronStrategy {
    /// Tensor-parallel degree (with Megatron-style SP).
    pub tp: u32,
    /// Context-parallel degree (ring attention).
    pub cp: u32,
    /// Data-parallel degree (ZeRO-1).
    pub dp: u32,
}

impl MegatronStrategy {
    /// GPUs per model replica.
    pub fn replica_gpus(&self) -> u32 {
        self.tp * self.cp
    }
}

impl std::fmt::Display for MegatronStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TP={}, CP={}, DP={} (ZeRO-1)", self.tp, self.cp, self.dp)
    }
}

/// The Megatron-LM baseline.
///
/// Cost structure per layer (App. D of the paper): Megatron-SP pays
/// all-gather/reduce-scatter of activation shards on the TP group (fast,
/// intra-node), while CP pays ring KV exchange that only *partially* hides
/// under attention compute — with short sequences and inter-node rings the
/// attention tile is too small to cover the transfer, which is why
/// Megatron trails DeepSpeed on long-tail data.
#[derive(Debug)]
pub struct MegatronLm {
    cluster: ClusterSpec,
    model: ModelConfig,
    policy: ActivationPolicy,
    flops: FlopsModel,
    strategy: Option<MegatronStrategy>,
}

impl MegatronLm {
    /// Creates the baseline; the strategy is tuned on the first batch.
    pub fn new(cluster: ClusterSpec, model: ModelConfig, policy: ActivationPolicy) -> Self {
        let flops = FlopsModel::new(&model);
        Self {
            cluster,
            model,
            policy,
            flops,
            strategy: None,
        }
    }

    /// Memory-feasible strategies in the paper's tuned space
    /// (`tp ≤ 16`, powers of two throughout).
    pub fn feasible_strategies(&self) -> Vec<MegatronStrategy> {
        let n = self.cluster.num_gpus();
        let mut out = Vec::new();
        let mut tp = 1;
        while tp <= 16.min(n) {
            let mut cp = 1;
            while tp * cp <= n {
                if n.is_multiple_of(tp * cp) {
                    let s = MegatronStrategy {
                        tp,
                        cp,
                        dp: n / (tp * cp),
                    };
                    if self.policy_for(&s).is_some() {
                        out.push(s);
                    }
                }
                cp *= 2;
            }
            tp *= 2;
        }
        out
    }

    /// The cheapest checkpointing policy (at least as aggressive as the
    /// workload default) under which a max-context input fits one replica.
    /// ZeRO-1 keeps full bf16 params+grads per TP shard, so Megatron often
    /// needs heavier recomputation than the ZeRO-3 systems — the paper
    /// tunes checkpointing per system (App. B.2).
    pub fn policy_for(&self, s: &MegatronStrategy) -> Option<ActivationPolicy> {
        let candidates = [
            ActivationPolicy::None,
            ActivationPolicy::MlpOnly,
            ActivationPolicy::Full,
        ];
        let at_least = candidates.iter().position(|&p| p == self.policy)?;
        candidates[at_least..]
            .iter()
            .copied()
            .find(|&p| self.fits_memory(s, p))
    }

    /// Whether a max-context packed input fits one replica's devices
    /// under `policy`.
    fn fits_memory(&self, s: &MegatronStrategy, policy: ActivationPolicy) -> bool {
        let shard_tokens = self.model.max_context.div_ceil((s.tp * s.cp) as u64);
        let act = shard_tokens * self.model.act_bytes_per_token(policy);
        // ZeRO-1 over dp, tensor-sharded over tp (CP replicates weights).
        let states = self.model.model_state_bytes(ZeroStage::One, s.dp as u64) / s.tp as u64;
        act + states <= self.cluster.min_mem_bytes()
    }

    /// TP group: contiguous GPUs (innermost placement, intra-node for
    /// tp ≤ 8). CP group: strided by tp.
    fn tp_group(&self, s: &MegatronStrategy) -> DeviceGroup {
        DeviceGroup::aligned(0, s.tp)
    }

    fn cp_group(&self, s: &MegatronStrategy) -> DeviceGroup {
        DeviceGroup::from_gpus((0..s.cp).map(|i| GpuId(i * s.tp)).collect())
    }

    fn dp_group(&self, s: &MegatronStrategy) -> DeviceGroup {
        DeviceGroup::from_gpus((0..s.dp).map(|i| GpuId(i * s.tp * s.cp)).collect())
    }

    /// Simulates one packed input (one micro-batch) on one replica.
    /// Returns `(total_s, comm_s, compute_s)`.
    fn simulate_micro(&self, s: &MegatronStrategy, p: &PackedInput) -> (f64, f64, f64) {
        let tokens = p.total_tokens();
        let segments = p.segment_lengths();
        let shard = s.replica_gpus() as u64;
        let layers = self.model.num_layers;
        let policy = self.policy_for(s).unwrap_or(ActivationPolicy::Full);

        // Compute: full fwd+bwd+recompute FLOPs split over the replica.
        // Megatron's DP world covers the whole cluster, so on mixed-SKU
        // clusters the slowest SKU present gates every synchronous step
        // (the same straggler rule the other simulated systems apply).
        let slowest = self.cluster.topology().slowest_sku();
        let flops = self.flops.train_flops(tokens, &segments, policy) / shard as f64;
        let kernels = layers * (2 * flexsp_cost::KERNELS_PER_LAYER);
        let compute_s = self.cluster.compute_time_on(slowest, flops, kernels);

        // Megatron-SP traffic: 4 all-gathers + 4 reduce-scatters per layer
        // of the per-device activation shard (exposed; the paper treats
        // Megatron-SP collectives as blocking).
        let tp_comm_s = if s.tp > 1 {
            let shard_bytes = tokens.div_ceil(shard) * self.model.hidden_bytes_per_token();
            let g = self.tp_group(s);
            let per = collective_time(&self.cluster, &g, Collective::AllGather { shard_bytes })
                + collective_time(&self.cluster, &g, Collective::ReduceScatter { shard_bytes });
            4.0 * per * layers as f64
        } else {
            0.0
        };

        // CP ring: per layer, (cp−1) KV hops forward and 2(cp−1) backward,
        // overlapped against the layer's attention compute.
        let cp_comm_s = if s.cp > 1 {
            let g = self.cp_group(s);
            let kv_bytes = (tokens.div_ceil(s.cp as u64) / s.tp as u64).max(1)
                * self.model.kv_bytes_per_token_per_layer();
            let hop = collective_time(&self.cluster, &g, Collective::RingStep { bytes: kv_bytes });
            let ring_per_layer = hop * 3.0 * (s.cp - 1) as f64;
            let attn_per_layer = self.cluster.compute_time_on(
                slowest,
                self.flops.attention_flops(&segments) * 3.0 / (shard as f64 * layers as f64),
                s.cp as u64,
            );
            (ring_per_layer - attn_per_layer).max(0.15 * ring_per_layer) * layers as f64
        } else {
            0.0
        };

        let total = compute_s + tp_comm_s + cp_comm_s;
        (total, tp_comm_s + cp_comm_s, compute_s)
    }

    /// Simulates a full iteration at strategy `s`.
    fn simulate(&self, s: &MegatronStrategy, packed: &[PackedInput]) -> SystemReport {
        // Distribute packed inputs over dp replicas (least-loaded first).
        let mut order: Vec<&PackedInput> = packed.iter().collect();
        order.sort_by_key(|p| std::cmp::Reverse(p.total_tokens()));
        let mut loads = vec![(0.0f64, 0.0f64, 0.0f64); s.dp as usize];
        for p in order {
            let idx = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
                .map(|(i, _)| i)
                .expect("dp >= 1");
            let (t, c, k) = self.simulate_micro(s, p);
            loads[idx].0 += t;
            loads[idx].1 += c;
            loads[idx].2 += k;
        }
        let (mut total, mut comm, compute) = loads
            .iter()
            .copied()
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap_or((0.0, 0.0, 0.0));

        // ZeRO-1 gradient synchronization over the DP group (mostly
        // overlapped with the tail of backward).
        if s.dp > 1 {
            let grad_bytes = self.model.param_count() * BF16_BYTES / s.tp as u64;
            let sync = collective_time(
                &self.cluster,
                &self.dp_group(s),
                Collective::AllReduce { bytes: grad_bytes },
            );
            let exposed = 0.3 * sync;
            total += exposed;
            comm += exposed;
        }
        SystemReport {
            total_s: total + OPTIMIZER_OVERHEAD_S,
            comm_s: comm,
            compute_s: compute,
            tokens: packed.iter().map(|p| p.total_tokens()).sum(),
            solve_wall_s: 0.0,
            predicted_s: None,
        }
    }

    fn tune(&mut self, batch: &[Sequence]) -> Result<MegatronStrategy, BaselineError> {
        if let Some(s) = self.strategy {
            return Ok(s);
        }
        let packed = pack_best_fit_decreasing(batch, self.model.max_context);
        let best = self
            .feasible_strategies()
            .into_iter()
            .map(|s| (s, self.simulate(&s, &packed).total_s))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(s, _)| s)
            .ok_or_else(|| {
                BaselineError::NoFeasibleStrategy(
                    "no (TP, CP, DP) combination fits the context length".into(),
                )
            })?;
        self.strategy = Some(best);
        Ok(best)
    }
}

impl TrainingSystem for MegatronLm {
    fn name(&self) -> String {
        "Megatron-LM".into()
    }

    fn strategy(&self) -> String {
        match self.strategy {
            Some(s) => s.to_string(),
            None => "untuned".into(),
        }
    }

    fn num_gpus(&self) -> u32 {
        self.cluster.num_gpus()
    }

    fn run_iteration(&mut self, batch: &[Sequence]) -> Result<SystemReport, BaselineError> {
        // lint: allow(clock) reported as SystemReport::solve_wall_s, not used for control flow
        let start = Instant::now();
        let s = self.tune(batch)?;
        let packed = pack_best_fit_decreasing(batch, self.model.max_context);
        let mut report = self.simulate(&s, &packed);
        report.solve_wall_s = start.elapsed().as_secs_f64();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsp_data::{GlobalBatchLoader, LengthDistribution};

    fn batch(ctx: u64, n: usize) -> Vec<Sequence> {
        GlobalBatchLoader::new(LengthDistribution::common_crawl(), n, ctx, 9).next_batch()
    }

    #[test]
    fn search_space_shape() {
        let m = MegatronLm::new(
            ClusterSpec::a100_cluster(8),
            ModelConfig::gpt_7b(192 * 1024),
            ActivationPolicy::None,
        );
        let space = m.feasible_strategies();
        assert!(!space.is_empty());
        for s in &space {
            assert_eq!(s.tp * s.cp * s.dp, 64);
            assert!(s.tp <= 16);
            assert!(s.tp.is_power_of_two() && s.cp.is_power_of_two());
        }
        // Long context excludes tiny replicas: TP=1, CP=1 (one GPU per
        // replica) cannot hold 192K tokens.
        assert!(!space.iter().any(|s| s.replica_gpus() == 1));
    }

    #[test]
    fn tuned_strategy_uses_model_parallel_replicas() {
        // App. B.2: optima look like TP=8/CP=8, TP=16/CP=4, TP=8/CP=4/DP=2.
        let mut m = MegatronLm::new(
            ClusterSpec::a100_cluster(8),
            ModelConfig::gpt_7b(384 * 1024),
            ActivationPolicy::None,
        );
        m.run_iteration(&batch(384 * 1024, 64)).unwrap();
        let s = m.strategy.unwrap();
        assert!(
            s.replica_gpus() >= 32,
            "384K context needs big replicas, got {s}"
        );
    }

    #[test]
    fn static_after_tuning() {
        let mut m = MegatronLm::new(
            ClusterSpec::a100_cluster(2),
            ModelConfig::gpt_7b(64 * 1024),
            ActivationPolicy::None,
        );
        m.run_iteration(&batch(64 * 1024, 32)).unwrap();
        let first = m.strategy;
        m.run_iteration(&batch(64 * 1024, 32)).unwrap();
        assert_eq!(m.strategy, first);
    }

    #[test]
    fn report_fields_consistent() {
        let mut m = MegatronLm::new(
            ClusterSpec::a100_cluster(2),
            ModelConfig::gpt_7b(64 * 1024),
            ActivationPolicy::None,
        );
        let r = m.run_iteration(&batch(64 * 1024, 32)).unwrap();
        assert!(r.total_s > r.comm_s);
        assert!(r.total_s > r.compute_s);
        assert!(r.comm_ratio() > 0.0 && r.comm_ratio() < 1.0);
    }
}
