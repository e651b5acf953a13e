//! Context-parallel (ring-attention) replica execution.
//!
//! Context parallelism (paper §2.1.3, Appendix E) shards the *sequence*
//! dimension like SP, but distributes the attention computation itself:
//! each rank walks a ring, exchanging key/value blocks with its neighbours
//! while computing attention on the blocks it holds. The ring transfer can
//! overlap with the attention compute — but only when the attention tile
//! is large enough, which is exactly why CP struggles on short sequences
//! and inter-node rings (paper Appendix D).
//!
//! A replica here is `tp × cp` GPUs: a tensor-parallel subgroup (with
//! Megatron-style SP collectives) inside each ring position.

use crate::collective::{collective_time, Collective};
use crate::group::{DeviceGroup, GpuId};
use crate::spec::ClusterSpec;
use crate::ulysses::{SpStepReport, ZeroTrafficSpec};

/// Workload of one TP×CP replica processing its sequences for one
/// micro-batch (forward + backward).
#[derive(Debug, Clone, PartialEq)]
pub struct CpStepSpec {
    /// Transformer layers.
    pub layers: u64,
    /// Total fwd+bwd+recompute FLOPs per GPU (all layers).
    pub flops_per_gpu: f64,
    /// Kernel launches per GPU.
    pub kernels: u64,
    /// Tensor-parallel width inside the replica (1 = no TP).
    pub tp_degree: u32,
    /// Per-device activation shard for one Megatron-SP collective.
    pub tp_shard_bytes: u64,
    /// Megatron-SP collectives per layer (all-gather + reduce-scatter
    /// pairs, forward and backward; typically 8).
    pub tp_rounds_per_layer: u64,
    /// KV bytes each ring rank ships per hop.
    pub ring_bytes_per_hop: u64,
    /// Ring hops per layer (fwd `cp−1`, bwd `2(cp−1)`).
    pub ring_hops_per_layer: u64,
    /// Attention FLOPs per GPU per layer (the overlap budget).
    pub attn_flops_per_gpu_layer: f64,
    /// Minimum exposed fraction of ring traffic even under perfect
    /// overlap (launch/dependency overheads; ~0.15).
    pub ring_exposed_floor: f64,
    /// Optional ZeRO traffic, priced for the same `layers`.
    pub zero: Option<ZeroTrafficSpec>,
}

/// Simulates one TP×CP replica step; the report reuses
/// [`SpStepReport`] with `alltoall_s` holding *all exposed communication*
/// (TP collectives + non-overlapped ring traffic).
///
/// `replica` must contain `tp × cp` GPUs for some integral `cp ≥ 1`; the
/// TP subgroup is the first `tp` GPUs, ring positions stride by `tp`.
///
/// # Panics
///
/// Panics if the replica size is not a multiple of `tp_degree`.
pub fn simulate_cp_step(
    cluster: &ClusterSpec,
    replica: &DeviceGroup,
    spec: &CpStepSpec,
) -> SpStepReport {
    let size = replica.degree();
    assert_eq!(
        size % spec.tp_degree,
        0,
        "replica of {size} GPUs cannot host TP={}",
        spec.tp_degree
    );
    let cp = size / spec.tp_degree;
    // Even FLOP split: the slowest member SKU gates the replica.
    let compute_s = cluster.group_compute_time(replica, spec.flops_per_gpu, spec.kernels);

    // Megatron-SP collectives on the TP subgroup (exposed).
    let tp_comm_s = if spec.tp_degree > 1 {
        let base = replica.gpus()[0].0;
        let tp_group = DeviceGroup::aligned(base, spec.tp_degree);
        let per = collective_time(
            cluster,
            &tp_group,
            Collective::AllGather {
                shard_bytes: spec.tp_shard_bytes,
            },
        );
        per * (spec.tp_rounds_per_layer * spec.layers) as f64
    } else {
        0.0
    };

    // Ring KV exchange, overlapped against per-layer attention compute.
    let ring_exposed_s = if cp > 1 && spec.ring_hops_per_layer > 0 {
        let base = replica.gpus()[0].0;
        let ring =
            DeviceGroup::from_gpus((0..cp).map(|i| GpuId(base + i * spec.tp_degree)).collect());
        let hop = collective_time(
            cluster,
            &ring,
            Collective::RingStep {
                bytes: spec.ring_bytes_per_hop,
            },
        );
        let ring_per_layer = hop * spec.ring_hops_per_layer as f64;
        let attn_per_layer =
            cluster.group_compute_time(replica, spec.attn_flops_per_gpu_layer, cp as u64);
        let exposed = (ring_per_layer - attn_per_layer)
            .max(spec.ring_exposed_floor.clamp(0.0, 1.0) * ring_per_layer);
        exposed * spec.layers as f64
    } else {
        0.0
    };

    // ZeRO traffic identical to the Ulysses path.
    let zero_exposed_s = spec.zero.map_or(0.0, |z| z.exposed_s(compute_s));

    SpStepReport {
        compute_s,
        alltoall_s: tp_comm_s + ring_exposed_s,
        zero_exposed_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(tp: u32, hops: u64) -> CpStepSpec {
        CpStepSpec {
            layers: 32,
            flops_per_gpu: 1e14,
            kernels: 32 * 24,
            tp_degree: tp,
            tp_shard_bytes: 8 << 20,
            tp_rounds_per_layer: 8,
            ring_bytes_per_hop: 16 << 20,
            ring_hops_per_layer: hops,
            attn_flops_per_gpu_layer: 5e11,
            ring_exposed_floor: 0.15,
            zero: None,
        }
    }

    #[test]
    fn inter_node_ring_is_exposed() {
        let cluster = ClusterSpec::a100_cluster(8);
        // cp=8 within a node vs cp=8 across nodes (tp=1).
        let intra = simulate_cp_step(&cluster, &DeviceGroup::aligned(0, 8), &spec(1, 21));
        let inter = simulate_cp_step(&cluster, &DeviceGroup::aligned(0, 64), &spec(8, 21));
        assert!(inter.alltoall_s > intra.alltoall_s);
    }

    #[test]
    fn big_attention_hides_ring_traffic() {
        let cluster = ClusterSpec::a100_cluster(8);
        let g = DeviceGroup::aligned(0, 16);
        let mut small_attn = spec(8, 3);
        small_attn.attn_flops_per_gpu_layer = 1e9;
        let mut big_attn = spec(8, 3);
        big_attn.attn_flops_per_gpu_layer = 1e13;
        let exposed_small = simulate_cp_step(&cluster, &g, &small_attn).alltoall_s;
        let exposed_big = simulate_cp_step(&cluster, &g, &big_attn).alltoall_s;
        assert!(
            exposed_big < exposed_small,
            "long sequences should hide the ring: {exposed_big} vs {exposed_small}"
        );
    }

    #[test]
    fn tp_only_replica_has_no_ring() {
        let cluster = ClusterSpec::a100_cluster(1);
        let g = DeviceGroup::aligned(0, 8);
        let r = simulate_cp_step(&cluster, &g, &spec(8, 21));
        // cp = 1: all communication is TP collectives.
        assert!(r.alltoall_s > 0.0);
        let no_tp = simulate_cp_step(&cluster, &DeviceGroup::aligned(0, 1), &spec(1, 21));
        assert_eq!(no_tp.alltoall_s, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn rejects_indivisible_replica() {
        let cluster = ClusterSpec::a100_cluster(1);
        simulate_cp_step(&cluster, &DeviceGroup::aligned(0, 4), &spec(8, 3));
    }
}
