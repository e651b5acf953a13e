//! Ulysses-style sequence-parallel step execution.
//!
//! DeepSpeed-Ulysses (§2.1.2 of the paper) runs, per transformer layer,
//! three All-to-Alls to head-scatter Q/K/V before attention and one to
//! token-scatter the output after it; the backward pass mirrors all four.
//! Compute and All-to-All cannot overlap — the attention kernel needs the
//! gathered heads — which is exactly why All-to-All time is exposed in the
//! paper's Table 1 breakdown.
//!
//! ZeRO-3 traffic (parameter all-gathers and gradient reduce-scatters) is
//! priced once over the *whole cluster* ([`ZeroTrafficSpec::priced`]) and
//! overlapped against each group's compute with a configurable
//! efficiency, matching the paper's observation that ZeRO overhead is
//! orthogonal to sequence parallelism.

use crate::collective::{collective_time, Collective};
use crate::group::DeviceGroup;
use crate::spec::ClusterSpec;

/// ZeRO-3 sharding traffic of one micro-batch step, priced once.
///
/// The traffic runs over the whole sharding world, whatever SP group the
/// step runs on, so [`ZeroTrafficSpec::priced`] prices its collectives
/// once and every group step reuses the seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZeroTrafficSpec {
    /// Un-overlapped seconds of the step's ZeRO-3 traffic: per layer, a
    /// forward parameter gather, a backward re-gather and a gradient
    /// reduce-scatter over the sharding world.
    pub raw_s: f64,
    /// Fraction of a group's compute that hides ZeRO communication by
    /// prefetching (0 = fully exposed, 1 = fully hidden).
    pub overlap: f64,
}

impl ZeroTrafficSpec {
    /// Prices `layers` layers of ZeRO-3 traffic for `param_bytes_per_layer`
    /// bf16 parameter bytes sharded over `world` (typically every GPU in
    /// the cluster).
    pub fn priced(
        cluster: &ClusterSpec,
        world: &DeviceGroup,
        param_bytes_per_layer: u64,
        layers: u64,
        overlap: f64,
    ) -> Self {
        let shard = param_bytes_per_layer / (world.degree() as u64).max(1);
        // Forward gather + backward re-gather + gradient reduce-scatter
        // per layer.
        let per_layer = 2.0
            * collective_time(cluster, world, Collective::AllGather { shard_bytes: shard })
            + collective_time(
                cluster,
                world,
                Collective::ReduceScatter { shard_bytes: shard },
            );
        Self {
            raw_s: per_layer * layers as f64,
            overlap,
        }
    }

    /// Seconds of the traffic left exposed by a group whose compute takes
    /// `compute_s`.
    pub fn exposed_s(&self, compute_s: f64) -> f64 {
        (self.raw_s - self.overlap.clamp(0.0, 1.0) * compute_s).max(0.0)
    }
}

/// Workload of one SP group processing its assigned sequences for one
/// micro-batch (forward + backward).
///
/// All quantities are *per GPU* where noted; callers derive them from
/// `flexsp-model` and the token assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct SpStepSpec {
    /// Transformer layers.
    pub layers: u64,
    /// Total forward+backward+recompute FLOPs per GPU (all layers).
    pub flops_per_gpu: f64,
    /// Kernel launches per GPU (≈ a dozen per layer per pass).
    pub kernels: u64,
    /// Bytes held by each GPU entering one All-to-All round (the token
    /// shard of the micro-batch × hidden × 2 B).
    pub alltoall_bytes_per_gpu: u64,
    /// All-to-All rounds per layer in forward (Ulysses: 4).
    pub fwd_rounds_per_layer: u64,
    /// All-to-All rounds per layer in backward (Ulysses: 4).
    pub bwd_rounds_per_layer: u64,
    /// Optional ZeRO-3 traffic, priced for the same `layers`.
    pub zero: Option<ZeroTrafficSpec>,
}

impl SpStepSpec {
    /// Total All-to-All rounds across all layers and both passes.
    pub fn total_rounds(&self) -> u64 {
        self.layers * (self.fwd_rounds_per_layer + self.bwd_rounds_per_layer)
    }
}

/// Time breakdown of one SP-group step, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpStepReport {
    /// Pure compute time.
    pub compute_s: f64,
    /// Exposed All-to-All time.
    pub alltoall_s: f64,
    /// Exposed (non-overlapped) ZeRO traffic time.
    pub zero_exposed_s: f64,
}

impl SpStepReport {
    /// Total step time.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.alltoall_s + self.zero_exposed_s
    }

    /// Fraction of the step spent in All-to-All.
    pub fn alltoall_ratio(&self) -> f64 {
        if self.total_s() == 0.0 {
            0.0
        } else {
            self.alltoall_s / self.total_s()
        }
    }

    /// Component-wise sum (for accumulating micro-batches).
    pub fn accumulate(&mut self, other: SpStepReport) {
        self.compute_s += other.compute_s;
        self.alltoall_s += other.alltoall_s;
        self.zero_exposed_s += other.zero_exposed_s;
    }
}

/// Simulates one sequence-parallel group step and returns its breakdown.
///
/// # Example
///
/// ```
/// use flexsp_sim::{simulate_sp_step, ClusterSpec, DeviceGroup, SpStepSpec};
/// let cluster = ClusterSpec::a100_cluster(8);
/// let spec = SpStepSpec {
///     layers: 32,
///     flops_per_gpu: 5e13,
///     kernels: 32 * 24,
///     alltoall_bytes_per_gpu: 32 << 20,
///     fwd_rounds_per_layer: 4,
///     bwd_rounds_per_layer: 4,
///     zero: None,
/// };
/// let intra = simulate_sp_step(&cluster, &DeviceGroup::aligned(0, 8), &spec);
/// let inter = simulate_sp_step(&cluster, &DeviceGroup::aligned(0, 64), &spec);
/// assert!(inter.alltoall_s > intra.alltoall_s);
/// assert!((inter.compute_s - intra.compute_s).abs() < 1e-9);
/// ```
pub fn simulate_sp_step(
    cluster: &ClusterSpec,
    group: &DeviceGroup,
    spec: &SpStepSpec,
) -> SpStepReport {
    // FLOPs split evenly over the group, so on mixed-SKU clusters the
    // slowest member SKU gates the whole group (straggler rule).
    let compute_s = cluster.group_compute_time(group, spec.flops_per_gpu, spec.kernels);
    let per_round = collective_time(
        cluster,
        group,
        Collective::AllToAll {
            per_gpu_bytes: spec.alltoall_bytes_per_gpu,
        },
    );
    let alltoall_s = per_round * spec.total_rounds() as f64;

    let zero_exposed_s = spec.zero.map_or(0.0, |z| z.exposed_s(compute_s));

    SpStepReport {
        compute_s,
        alltoall_s,
        zero_exposed_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec() -> SpStepSpec {
        SpStepSpec {
            layers: 32,
            flops_per_gpu: 2e14,
            kernels: 32 * 24,
            alltoall_bytes_per_gpu: 64 << 20,
            fwd_rounds_per_layer: 4,
            bwd_rounds_per_layer: 4,
            zero: None,
        }
    }

    #[test]
    fn rounds_count() {
        assert_eq!(base_spec().total_rounds(), 32 * 8);
    }

    #[test]
    fn alltoall_share_grows_with_degree() {
        let cluster = ClusterSpec::a100_cluster(8);
        let spec = base_spec();
        let r8 = simulate_sp_step(&cluster, &DeviceGroup::aligned(0, 8), &spec);
        let r64 = simulate_sp_step(&cluster, &DeviceGroup::aligned(0, 64), &spec);
        assert!(r64.alltoall_ratio() > 2.0 * r8.alltoall_ratio());
    }

    #[test]
    fn zero_traffic_mostly_hides_under_compute() {
        let cluster = ClusterSpec::a100_cluster(8);
        let mut spec = base_spec();
        // 400 MiB: one GPT-7B layer in bf16.
        spec.zero = Some(ZeroTrafficSpec::priced(
            &cluster,
            &DeviceGroup::aligned(0, 64),
            400 << 20,
            spec.layers,
            0.9,
        ));
        let r = simulate_sp_step(&cluster, &DeviceGroup::aligned(0, 64), &spec);
        assert!(
            r.zero_exposed_s < 0.2 * r.compute_s,
            "zero {} vs compute {}",
            r.zero_exposed_s,
            r.compute_s
        );
    }

    #[test]
    fn zero_overlap_bounds() {
        let cluster = ClusterSpec::a100_cluster(8);
        let mut spec = base_spec();
        spec.flops_per_gpu = 1e9; // negligible compute: nothing to hide under
        spec.zero = Some(ZeroTrafficSpec::priced(
            &cluster,
            &DeviceGroup::aligned(0, 64),
            400 << 20,
            spec.layers,
            1.0,
        ));
        let r = simulate_sp_step(&cluster, &DeviceGroup::aligned(0, 64), &spec);
        assert!(r.zero_exposed_s > 0.0, "exposed when compute is tiny");
    }

    #[test]
    fn report_accumulates() {
        let mut a = SpStepReport {
            compute_s: 1.0,
            alltoall_s: 2.0,
            zero_exposed_s: 0.5,
        };
        a.accumulate(SpStepReport {
            compute_s: 1.0,
            alltoall_s: 1.0,
            zero_exposed_s: 0.0,
        });
        assert!((a.total_s() - 5.5).abs() < 1e-12);
    }
}
