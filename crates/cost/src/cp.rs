//! Flexible context parallelism (paper Appendix E).
//!
//! The paper sketches its own extension: *fix* the tensor-parallel degree,
//! keep ZeRO, and let the FlexSP solver size the **context-parallel**
//! groups adaptively per batch. Because a TP×CP replica's cost is still
//! linear in the assigned sequences per "degree" (here: replica GPU
//! count), the entire planner stack is reusable — all that changes is the
//! profile the [`CostModel`] is fitted from.
//!
//! [`fit_cp`] profiles simulated TP×CP replicas (Megatron-SP collectives
//! on the TP subgroup + ring KV exchange overlapped against attention) and
//! returns a `CostModel` whose degrees are replica sizes `tp·cp`.

use flexsp_model::{ActivationPolicy, FlopsModel, ModelConfig, ZeroStage, BF16_BYTES};
use flexsp_sim::{
    simulate_cp_step, ClusterSpec, CpStepSpec, DeviceGroup, GroupShape, SpStepReport,
};

use crate::cost_model::{CostModel, MemoryModel};
use crate::profiler::ProfilePoint;
use crate::workload::KERNELS_PER_LAYER;

/// Builds the TP×CP replica workload for sequences `seqs` on a replica of
/// `tp·cp` GPUs.
///
/// # Panics
///
/// Panics if `tp == 0` or `cp == 0`.
pub fn cp_step_spec(
    model: &ModelConfig,
    policy: ActivationPolicy,
    tp: u32,
    cp: u32,
    seqs: &[u64],
    zero: Option<flexsp_sim::ZeroTrafficSpec>,
) -> CpStepSpec {
    assert!(tp > 0 && cp > 0, "tp and cp must be positive");
    let replica = (tp * cp) as u64;
    let tokens: u64 = seqs.iter().sum();
    let flops = FlopsModel::new(model);
    let train_flops = flops.train_flops(tokens, seqs, policy) / replica as f64;
    let attn_layer = 3.0 * flops.attention_flops(seqs) / (replica as f64 * model.num_layers as f64);
    let recompute_kernels = (KERNELS_PER_LAYER as f64 * policy.recompute_linear_fraction()) as u64;
    CpStepSpec {
        layers: model.num_layers,
        flops_per_gpu: train_flops,
        kernels: model.num_layers * (2 * KERNELS_PER_LAYER + recompute_kernels),
        tp_degree: tp,
        tp_shard_bytes: tokens.div_ceil(replica) * model.hidden_bytes_per_token(),
        tp_rounds_per_layer: 8,
        ring_bytes_per_hop: (tokens.div_ceil(cp as u64) / tp as u64).max(1)
            * model.kv_bytes_per_token_per_layer(),
        ring_hops_per_layer: 3 * (cp.saturating_sub(1)) as u64,
        attn_flops_per_gpu_layer: attn_layer,
        ring_exposed_floor: 0.15,
        zero,
    }
}

/// Simulates one TP×CP replica (ground truth for the flexible-CP
/// executor) on an explicit device group — the planner's own placement.
#[allow(clippy::too_many_arguments)]
pub fn simulate_cp_group(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    policy: ActivationPolicy,
    tp: u32,
    cp: u32,
    replica: &DeviceGroup,
    seqs: &[u64],
    zero: Option<flexsp_sim::ZeroTrafficSpec>,
) -> SpStepReport {
    let spec = cp_step_spec(model, policy, tp, cp, seqs, zero);
    simulate_cp_step(cluster, replica, &spec)
}

/// Simulates one TP×CP replica placed as a contiguous block at GPU
/// `start` (the profiler's canonical layout).
#[allow(clippy::too_many_arguments)]
pub fn simulate_cp_replica(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    policy: ActivationPolicy,
    tp: u32,
    cp: u32,
    start: u32,
    seqs: &[u64],
    zero: Option<flexsp_sim::ZeroTrafficSpec>,
) -> SpStepReport {
    let replica = DeviceGroup::aligned(start, tp * cp);
    simulate_cp_group(cluster, model, policy, tp, cp, &replica, seqs, zero)
}

/// Fits a [`CostModel`] for flexible CP at fixed TP degree `tp`.
///
/// The returned model's "degrees" are replica GPU counts `tp·cp` for
/// `cp ∈ {1, 2, 4, …}` up to the cluster, so it plugs directly into
/// `flexsp-core`'s planner and blaster.
///
/// # Panics
///
/// Panics if `tp` is zero, not a power of two, or exceeds the cluster.
pub fn fit_cp(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    policy: ActivationPolicy,
    tp: u32,
) -> CostModel {
    let n = cluster.num_gpus();
    assert!(
        tp > 0 && tp.is_power_of_two() && tp <= n,
        "invalid TP degree {tp} for {n} GPUs"
    );
    let mut points = Vec::new();
    let token_grid = crate::profiler::TOKEN_GRID;
    let seq_lens = crate::profiler::SEQ_LEN_GRID;
    let mut cp = 1u32;
    while tp * cp <= n {
        let degree = tp * cp;
        let replica = DeviceGroup::aligned(0, degree);
        let shape = GroupShape::of(&replica, cluster.topology());
        for &tokens in &token_grid {
            for &len in &seq_lens {
                if len > tokens {
                    continue;
                }
                let n_seqs = (tokens / len).max(1);
                let seqs = vec![len; n_seqs as usize];
                let r = simulate_cp_group(cluster, model, policy, tp, cp, &replica, &seqs, None);
                let actual: u64 = seqs.iter().sum();
                points.push(ProfilePoint {
                    shape,
                    tokens: actual,
                    sum_sq: seqs.iter().map(|&s| (s as f64).powi(2)).sum(),
                    compute_s: r.compute_s,
                    alltoall_s: r.alltoall_s,
                });
            }
        }
        cp *= 2;
    }
    let memory = MemoryModel {
        act_bytes_per_token: model.act_bytes_per_token(policy) as f64,
        model_state_bytes: model.model_state_bytes(ZeroStage::Three, n as u64) as f64,
        capacity_bytes: cluster.min_mem_bytes() as f64,
    };
    CostModel::fit_from_points(&points, memory, cluster.topology().clone())
}

/// The ZeRO traffic spec shared by CP replicas (whole-cluster sharding,
/// parameters tensor-sharded by TP first).
pub fn cp_zero_spec(
    cluster: &ClusterSpec,
    model: &ModelConfig,
    tp: u32,
) -> flexsp_sim::ZeroTrafficSpec {
    flexsp_sim::ZeroTrafficSpec::priced(
        cluster,
        &DeviceGroup::aligned(0, cluster.num_gpus()),
        model.params_per_layer() * BF16_BYTES / tp.max(1) as u64,
        model.num_layers,
        0.9,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ClusterSpec, ModelConfig) {
        (ClusterSpec::a100_cluster(8), ModelConfig::gpt_7b(384 << 10))
    }

    #[test]
    fn fit_cp_degrees_are_replica_sizes() {
        let (cluster, model) = setup();
        let cm = fit_cp(&cluster, &model, ActivationPolicy::None, 8);
        assert_eq!(cm.degrees(), vec![8, 16, 32, 64]);
        // TP-only replicas still pay Megatron-SP collectives.
        assert!(cm.comm_fit(cm.packed_shape(8)).per_token > 0.0);
    }

    #[test]
    fn short_sequences_prefer_small_cp_groups() {
        // Appendix E's premise: the FlexSP heterogeneity argument carries
        // over to CP — at equal per-GPU load, small intra-node replicas
        // beat the full-cluster ring for short sequences.
        let (cluster, model) = setup();
        let cm = fit_cp(&cluster, &model, ActivationPolicy::None, 8);
        let t8 = cm.group_time(&[8 << 10; 16], cm.packed_shape(8));
        let t64 = cm.group_time(&[8 << 10; 128], cm.packed_shape(64));
        assert!(t8 < t64, "tp8/cp1 {t8} vs tp8/cp8 {t64}");
    }

    #[test]
    fn long_sequences_hide_more_ring_traffic() {
        let (cluster, model) = setup();
        // Same tokens: many short vs few long on a cp=8 replica. The long
        // sequences' attention hides ring traffic better.
        let short = simulate_cp_replica(
            &cluster,
            &model,
            ActivationPolicy::None,
            8,
            8,
            0,
            &[4 << 10; 64],
            None,
        );
        let long = simulate_cp_replica(
            &cluster,
            &model,
            ActivationPolicy::None,
            8,
            8,
            0,
            &[128 << 10; 2],
            None,
        );
        let short_ratio = short.alltoall_s / short.total_s();
        let long_ratio = long.alltoall_s / long.total_s();
        assert!(
            long_ratio < short_ratio,
            "long {long_ratio:.3} vs short {short_ratio:.3}"
        );
    }

    #[test]
    fn planner_accepts_cp_cost_model() {
        // End-to-end: the unchanged FlexSP planner plans flexible-CP
        // groups from the fitted model.
        use flexsp_data::Sequence;
        let (cluster, model) = setup();
        let cm = fit_cp(&cluster, &model, ActivationPolicy::None, 8);
        // A mini "planner": greedy over degrees using the cost model API —
        // the real planner lives in flexsp-core (tested there).
        let seq = Sequence::new(0, 100 << 10);
        let d = cm.min_degree_for(seq.len).expect("fits");
        assert!(d >= 8 && d.is_power_of_two());
    }
}
