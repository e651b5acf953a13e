//! Bridges model configurations to simulator workloads.

use flexsp_model::{ActivationPolicy, FlopsModel, ModelConfig, BF16_BYTES};
use flexsp_sim::{ClusterSpec, DeviceGroup, SpStepSpec, ZeroTrafficSpec};

/// Kernel launches per transformer layer per pass (attention + MLP +
/// norms + elementwise fusions), used by the simulator's launch-overhead
/// accounting.
pub const KERNELS_PER_LAYER: u64 = 22;

/// Prices the ZeRO-3 traffic of `model` sharded over the whole `cluster`.
pub fn ulysses_zero_spec(cluster: &ClusterSpec, model: &ModelConfig) -> ZeroTrafficSpec {
    ZeroTrafficSpec::priced(
        cluster,
        &DeviceGroup::aligned(0, cluster.num_gpus()),
        model.params_per_layer() * BF16_BYTES,
        model.num_layers,
        0.9,
    )
}

/// Builds the simulator workload for one SP group of degree `d` processing
/// `seqs` (constituent sequence lengths) in one micro-batch.
///
/// * FLOPs follow [`FlopsModel::train_flops`] (linear + varlen attention +
///   checkpoint recompute), split evenly over the group.
/// * Each All-to-All round moves the group's token shard
///   (`Σ seqs / d × hidden × 2 B`) per GPU; Ulysses runs 4 rounds per layer
///   forward and 4 backward.
///
/// # Panics
///
/// Panics if `degree == 0`.
pub fn sp_step_spec(
    model: &ModelConfig,
    policy: ActivationPolicy,
    degree: u32,
    seqs: &[u64],
    zero: Option<ZeroTrafficSpec>,
) -> SpStepSpec {
    assert!(degree > 0, "degree must be positive");
    let tokens: u64 = seqs.iter().sum();
    let flops = FlopsModel::new(model).train_flops(tokens, seqs, policy);
    let recompute_kernels = (KERNELS_PER_LAYER as f64 * policy.recompute_linear_fraction()) as u64;
    let kernels = model.num_layers * (2 * KERNELS_PER_LAYER + recompute_kernels);
    let shard_tokens = tokens.div_ceil(degree as u64);
    SpStepSpec {
        layers: model.num_layers,
        flops_per_gpu: flops / degree as f64,
        kernels,
        alltoall_bytes_per_gpu: shard_tokens * model.hidden_bytes_per_token(),
        fwd_rounds_per_layer: 4,
        bwd_rounds_per_layer: 4,
        zero,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsp_sim::simulate_sp_step;

    #[test]
    fn compute_splits_evenly_over_degree() {
        let m = ModelConfig::gpt_7b(192 * 1024);
        let seqs = [32 * 1024u64; 4];
        let s8 = sp_step_spec(&m, ActivationPolicy::None, 8, &seqs, None);
        let s16 = sp_step_spec(&m, ActivationPolicy::None, 16, &seqs, None);
        assert!((s8.flops_per_gpu / s16.flops_per_gpu - 2.0).abs() < 1e-9);
    }

    #[test]
    fn alltoall_shard_shrinks_with_degree() {
        let m = ModelConfig::gpt_7b(192 * 1024);
        let seqs = [64 * 1024u64];
        let s8 = sp_step_spec(&m, ActivationPolicy::None, 8, &seqs, None);
        let s32 = sp_step_spec(&m, ActivationPolicy::None, 32, &seqs, None);
        assert_eq!(s8.alltoall_bytes_per_gpu, 4 * s32.alltoall_bytes_per_gpu);
    }

    #[test]
    fn table1_anchor_sp64_alltoall_ratio() {
        // Paper Table 1, row 4K×1024 (4M tokens), SP=64: iteration 37.2 s
        // with 54.4 % All-to-All. One SP=64 group processing all 4M tokens
        // (accumulated over micro-batches) must land in that regime: the
        // All-to-All share should be 40–65 %.
        let cluster = ClusterSpec::a100_cluster(8);
        let m = ModelConfig::gpt_7b(256 * 1024);
        let seqs = vec![4 * 1024u64; 1024];
        let spec = sp_step_spec(&m, ActivationPolicy::None, 64, &seqs, None);
        let group = DeviceGroup::aligned(0, 64);
        let r = simulate_sp_step(&cluster, &group, &spec);
        let ratio = r.alltoall_ratio();
        assert!(
            (0.40..0.65).contains(&ratio),
            "SP=64 All-to-All ratio {ratio:.3} outside Table-1 regime"
        );
    }

    #[test]
    fn table1_anchor_sp8_alltoall_ratio() {
        // Paper Table 1, same tokens at SP=8 (eight groups, each 512K
        // tokens): All-to-All share ≈ 8 %.
        let cluster = ClusterSpec::a100_cluster(8);
        let m = ModelConfig::gpt_7b(256 * 1024);
        let seqs = vec![4 * 1024u64; 128]; // one-eighth of the batch
        let spec = sp_step_spec(&m, ActivationPolicy::None, 8, &seqs, None);
        let group = DeviceGroup::aligned(0, 8);
        let r = simulate_sp_step(&cluster, &group, &spec);
        let ratio = r.alltoall_ratio();
        assert!(
            (0.03..0.18).contains(&ratio),
            "SP=8 All-to-All ratio {ratio:.3} outside Table-1 regime"
        );
    }

    #[test]
    fn zero_spec_uses_whole_cluster() {
        let cluster = ClusterSpec::a100_cluster(8);
        let m = ModelConfig::gpt_7b(192 * 1024);
        let z = ulysses_zero_spec(&cluster, &m);
        let bytes = m.params_per_layer() * 2;
        let over = |gpus| {
            ZeroTrafficSpec::priced(
                &cluster,
                &DeviceGroup::aligned(0, gpus),
                bytes,
                m.num_layers,
                0.9,
            )
        };
        assert_eq!(z, over(64));
        assert_ne!(z, over(8));
    }
}
