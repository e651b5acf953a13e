//! Cluster topology and calibrated performance constants.

use std::fmt;

use crate::group::{DeviceGroup, GpuId};
use crate::shape::{NodeSpec, SkuId, Topology};

/// Rejected [`ClusterSpec`] parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// `num_nodes` was zero (or the node list was empty).
    NoNodes,
    /// A node's GPU count was zero.
    NoGpusPerNode,
    /// A bandwidth constant was zero, negative, or non-finite.
    BadBandwidth(&'static str),
    /// A GPU compute constant was zero, negative, or non-finite.
    BadCompute(&'static str),
    /// More distinct GPU SKUs than [`SkuId`] can index (255).
    TooManySkus,
    /// A per-SKU override named a SKU class the cluster does not have.
    UnknownSku(SkuId),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NoNodes => write!(f, "cluster needs at least one node"),
            SpecError::NoGpusPerNode => write!(f, "nodes need at least one GPU"),
            SpecError::BadBandwidth(which) => {
                write!(f, "bandwidth `{which}` must be positive and finite")
            }
            SpecError::BadCompute(which) => {
                write!(f, "GPU constant `{which}` must be positive and finite")
            }
            SpecError::TooManySkus => write!(f, "at most 255 distinct GPU SKUs supported"),
            SpecError::UnknownSku(sku) => {
                write!(f, "SKU {sku} is not a class of this cluster")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Per-GPU compute/memory characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Peak dense bf16 throughput in FLOP/s (A100: 312 TFLOP/s).
    pub peak_flops: f64,
    /// Best-case achievable fraction of peak (model FLOPs utilization).
    pub max_utilization: f64,
    /// Per-kernel FLOPs at which utilization reaches half of
    /// `max_utilization` — models small-kernel inefficiency.
    pub util_half_flops: f64,
    /// Seconds of overhead per kernel launch.
    pub kernel_launch_s: f64,
    /// Usable device memory in bytes (A100-40GB minus framework reserve).
    pub mem_bytes: u64,
}

/// Interconnect characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectSpec {
    /// Effective peak per-GPU NVLink bandwidth for dense collectives (B/s).
    pub nvlink_bw: f64,
    /// Message bytes at which NVLink reaches half its effective peak.
    pub nvlink_half_msg: f64,
    /// Per-collective NVLink latency (seconds).
    pub nvlink_latency_s: f64,
    /// Per-GPU share of the node NIC at 8-node scale (400 Gbps / 8 GPUs =
    /// 6.25 GB/s on the paper's cluster).
    pub nic_bw_per_gpu: f64,
    /// Message bytes at which the NIC reaches half its effective peak.
    pub nic_half_msg: f64,
    /// Per-collective inter-node latency (seconds).
    pub nic_latency_s: f64,
}

impl InterconnectSpec {
    /// Effective NVLink bandwidth for per-peer messages of `msg` bytes.
    pub fn nvlink_eff(&self, msg: f64) -> f64 {
        ramp(self.nvlink_bw, msg, self.nvlink_half_msg)
    }

    /// Effective per-GPU inter-node bandwidth for messages of `msg`
    /// bytes under a cluster-size `derate` multiplier.
    pub fn nic_eff_per_gpu(&self, msg: f64, derate: f64) -> f64 {
        ramp(self.nic_bw_per_gpu * derate, msg, self.nic_half_msg)
    }

    /// Whole-node NIC bandwidth for a node contributing `width` GPUs.
    pub fn node_nic_eff(&self, width: u32, msg: f64, derate: f64) -> f64 {
        self.nic_eff_per_gpu(msg, derate) * width as f64
    }

    /// The field-wise **worst** of two link specs: minimum bandwidths,
    /// maximum half-saturation messages and latencies. This is the link a
    /// collective spanning both fabrics is gated by — the slowest
    /// participating link dominates (DeepSpeed-Ulysses).
    pub fn worst_of(&self, other: &InterconnectSpec) -> InterconnectSpec {
        InterconnectSpec {
            nvlink_bw: self.nvlink_bw.min(other.nvlink_bw),
            nvlink_half_msg: self.nvlink_half_msg.max(other.nvlink_half_msg),
            nvlink_latency_s: self.nvlink_latency_s.max(other.nvlink_latency_s),
            nic_bw_per_gpu: self.nic_bw_per_gpu.min(other.nic_bw_per_gpu),
            nic_half_msg: self.nic_half_msg.max(other.nic_half_msg),
            nic_latency_s: self.nic_latency_s.max(other.nic_latency_s),
        }
    }
}

/// A GPU cluster: an explicit node list (per-node widths and SKU classes)
/// plus per-SKU compute constants and one shared interconnect fabric.
///
/// Uniform clusters come from [`ClusterSpec::new`] and the presets; mixed
/// A100/H100 or partially reserved clusters from [`ClusterSpec::from_nodes`]
/// (or the [`ClusterSpec::a100_h100_mix`] preset). SKU ids are assigned in
/// **descending capability order** — `SkuId(0)` is the fastest SKU — so
/// the slowest member of any group is the one with the largest id (the
/// straggler convention `flexsp-cost` and the planner rely on).
///
/// The [`ClusterSpec::a100_cluster`] preset reproduces the paper's testbed
/// constants; with them, the simulator re-derives Table 1 (e.g. ≈54 % of a
/// GPT-7B iteration in All-to-All at SP = 64, ≈8 % at SP = 8, and the OOM
/// boundary between 6K and 8K tokens per GPU).
///
/// # Examples
///
/// ```
/// use flexsp_sim::{ClusterSpec, SkuId};
///
/// // The paper's homogeneous testbed: 8 nodes × 8 A100.
/// let uniform = ClusterSpec::a100_cluster(8);
/// assert_eq!(uniform.num_gpus(), 64);
/// assert_eq!(uniform.topology().skus(), vec![SkuId(0)]);
///
/// // A mixed reservation: 2 nodes of 8 A100 plus 2 nodes of 8 H100.
/// // SKU 0 is the faster H100, SKU 1 the A100 (fastest-first ordering).
/// let mixed = ClusterSpec::a100_h100_mix(2, 2, 8);
/// assert_eq!(mixed.num_gpus(), 32);
/// assert_eq!(mixed.topology().skus(), vec![SkuId(0), SkuId(1)]);
/// assert!(mixed.sku_spec(SkuId(0)).peak_flops > mixed.sku_spec(SkuId(1)).peak_flops);
///
/// // A partially reserved cluster: one node only contributes 4 GPUs.
/// let reserved = ClusterSpec::from_nodes(
///     vec![(8, ClusterSpec::a100_gpu()), (4, ClusterSpec::a100_gpu())],
///     ClusterSpec::a100_net(),
/// ).unwrap();
/// assert_eq!(reserved.num_gpus(), 12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    topo: Topology,
    /// Per-SKU compute constants, indexed by [`SkuId`], fastest first.
    skus: Vec<GpuSpec>,
    /// Link characteristics (the default fabric every SKU inherits).
    pub net: InterconnectSpec,
    /// Per-SKU link overrides, sparse: SKUs without an entry use `net`.
    /// Installed via [`ClusterSpec::with_sku_net`]; empty on every
    /// uniform constructor, so homogeneous fits are unchanged.
    sku_nets: Vec<(SkuId, InterconnectSpec)>,
}

impl ClusterSpec {
    /// Validating constructor for a **uniform** cluster: rejects
    /// degenerate topologies (`num_nodes == 0`, `gpus_per_node == 0`) and
    /// non-positive or non-finite bandwidth constants before they can
    /// poison downstream cost fits with NaNs or divide-by-zero.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the first rejected parameter.
    pub fn new(
        num_nodes: u32,
        gpus_per_node: u32,
        gpu: GpuSpec,
        net: InterconnectSpec,
    ) -> Result<Self, SpecError> {
        if num_nodes == 0 {
            return Err(SpecError::NoNodes);
        }
        if gpus_per_node == 0 {
            return Err(SpecError::NoGpusPerNode);
        }
        Self::from_nodes(vec![(gpus_per_node, gpu); num_nodes as usize], net)
    }

    /// Validating constructor from an explicit node list: each entry is
    /// `(width, gpu_spec)`. Distinct GPU specs become SKU classes,
    /// canonicalized **fastest first** (by peak FLOP/s, then utilization,
    /// then memory), so `SkuId(0)` is always the fastest SKU present and
    /// the largest id the slowest.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the first rejected parameter.
    pub fn from_nodes(
        nodes: Vec<(u32, GpuSpec)>,
        net: InterconnectSpec,
    ) -> Result<Self, SpecError> {
        if nodes.is_empty() {
            return Err(SpecError::NoNodes);
        }
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if !positive(net.nvlink_bw) {
            return Err(SpecError::BadBandwidth("nvlink_bw"));
        }
        if !positive(net.nic_bw_per_gpu) {
            return Err(SpecError::BadBandwidth("nic_bw_per_gpu"));
        }
        let mut skus: Vec<GpuSpec> = Vec::new();
        for (width, gpu) in &nodes {
            if *width == 0 {
                return Err(SpecError::NoGpusPerNode);
            }
            if !positive(gpu.peak_flops) {
                return Err(SpecError::BadCompute("peak_flops"));
            }
            if !skus.contains(gpu) {
                skus.push(*gpu);
            }
        }
        if skus.len() > u8::MAX as usize + 1 {
            return Err(SpecError::TooManySkus);
        }
        // Canonical fastest-first SKU ordering.
        skus.sort_by(|a, b| {
            b.peak_flops
                .total_cmp(&a.peak_flops)
                .then(b.max_utilization.total_cmp(&a.max_utilization))
                .then(b.mem_bytes.cmp(&a.mem_bytes))
        });
        let node_specs = nodes
            .iter()
            .map(|(width, gpu)| {
                let id = skus.iter().position(|s| s == gpu).expect("collected above");
                NodeSpec::new(*width, SkuId(id as u8))
            })
            .collect();
        Ok(Self {
            topo: Topology::from_nodes(node_specs),
            skus,
            net,
            sku_nets: Vec::new(),
        })
    }

    /// Installs per-SKU link constants for SKU class `sku`, overriding
    /// the shared `net` for groups placed on that class's nodes (see
    /// [`ClusterSpec::group_net_of`]). SKUs without an override keep the
    /// shared fabric, so a cluster with no overrides is bit-identical to
    /// the pre-override model.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownSku`] if `sku` is not a class of this cluster;
    /// [`SpecError::BadBandwidth`] for non-positive constants.
    pub fn with_sku_net(mut self, sku: SkuId, net: InterconnectSpec) -> Result<Self, SpecError> {
        if sku.0 as usize >= self.skus.len() {
            return Err(SpecError::UnknownSku(sku));
        }
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if !positive(net.nvlink_bw) {
            return Err(SpecError::BadBandwidth("nvlink_bw"));
        }
        if !positive(net.nic_bw_per_gpu) {
            return Err(SpecError::BadBandwidth("nic_bw_per_gpu"));
        }
        self.sku_nets.retain(|(s, _)| *s != sku);
        self.sku_nets.push((sku, net));
        self.sku_nets.sort_by_key(|(s, _)| *s);
        Ok(self)
    }

    /// The link constants of SKU class `sku`: its override when one was
    /// installed, the shared `net` otherwise.
    pub fn net_of(&self, sku: SkuId) -> InterconnectSpec {
        self.sku_nets
            .iter()
            .find(|(s, _)| *s == sku)
            .map(|(_, n)| *n)
            .unwrap_or(self.net)
    }

    /// The link constants gating a collective over `group`: the
    /// field-wise worst across the SKU classes of its participating
    /// nodes — the slowest participating link dominates a collective
    /// (DeepSpeed-Ulysses). With no per-SKU overrides installed this is
    /// exactly the shared `net`.
    pub fn group_net_of(&self, group: &DeviceGroup) -> InterconnectSpec {
        if self.sku_nets.is_empty() {
            return self.net;
        }
        // Hot path (called per collective inside plan pricing): fold the
        // worst spec while scanning, no allocation. Members are grouped
        // by node, so skipping consecutive repeats elides almost every
        // lookup; re-folding a SKU seen earlier is idempotent.
        let mut worst: Option<InterconnectSpec> = None;
        let mut last: Option<SkuId> = None;
        for &g in group.gpus() {
            let sku = self.sku_of_gpu(g);
            if last == Some(sku) {
                continue;
            }
            last = Some(sku);
            let net = self.net_of(sku);
            worst = Some(match worst {
                Some(w) => w.worst_of(&net),
                None => net,
            });
        }
        worst.unwrap_or(self.net)
    }

    /// The calibrated A100-40GB constants of the paper's testbed.
    pub fn a100_gpu() -> GpuSpec {
        GpuSpec {
            peak_flops: 312e12,
            max_utilization: 0.58,
            util_half_flops: 4e10,
            kernel_launch_s: 6e-6,
            // 40 GB minus ~3 GB CUDA/framework reserve.
            mem_bytes: 37 * (1 << 30),
        }
    }

    /// H100-80GB (SXM) constants for heterogeneous studies: ≈3× the A100's
    /// dense bf16 peak, twice the memory, and a larger per-kernel FLOP
    /// count needed to saturate the wider tensor cores.
    pub fn h100_gpu() -> GpuSpec {
        GpuSpec {
            peak_flops: 989e12,
            max_utilization: 0.52,
            util_half_flops: 1.5e11,
            kernel_launch_s: 5e-6,
            // 80 GB minus ~4 GB CUDA/framework reserve.
            mem_bytes: 76 * (1 << 30),
        }
    }

    /// The paper testbed's interconnect constants (NVLink in the node,
    /// 400 Gbps InfiniBand between nodes, per-GPU share at 8-wide nodes).
    pub fn a100_net() -> InterconnectSpec {
        InterconnectSpec {
            nvlink_bw: 70e9,
            nvlink_half_msg: 512e3,
            nvlink_latency_s: 15e-6,
            nic_bw_per_gpu: 6.25e9,
            nic_half_msg: 128e3,
            nic_latency_s: 30e-6,
        }
    }

    /// H100 (SXM, NVLink 4) link constants for per-SKU interconnect
    /// studies: ≈2× the A100's effective per-GPU NVLink bandwidth for
    /// dense collectives, slightly lower latency, and a doubled per-GPU
    /// NIC share (rail-optimized 2×400 Gbps-class fabrics).
    pub fn h100_net() -> InterconnectSpec {
        InterconnectSpec {
            nvlink_bw: 150e9,
            nvlink_half_msg: 512e3,
            nvlink_latency_s: 12e-6,
            nic_bw_per_gpu: 12.5e9,
            nic_half_msg: 128e3,
            nic_latency_s: 25e-6,
        }
    }

    /// The paper's testbed scaled to `num_nodes` nodes of 8× A100-40GB.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0`.
    ///
    /// # Example
    ///
    /// ```
    /// let c = flexsp_sim::ClusterSpec::a100_cluster(8);
    /// assert_eq!(c.num_gpus(), 64);
    /// ```
    pub fn a100_cluster(num_nodes: u32) -> Self {
        Self::a100_nodes_of(num_nodes, 8)
    }

    /// The A100 preset with a custom node width (for topology studies:
    /// partial nodes, fat nodes). Per-GPU NIC share is held at the
    /// preset's 6.25 GB/s regardless of width.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn a100_nodes_of(num_nodes: u32, gpus_per_node: u32) -> Self {
        Self::new(num_nodes, gpus_per_node, Self::a100_gpu(), Self::a100_net())
            .expect("the A100 preset is valid for non-zero dimensions")
    }

    /// An H100 cluster on the same fabric constants as the A100 preset
    /// (the shared InfiniBand is the cluster property; NVLink generation
    /// differences are folded into the compute constants).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn h100_nodes_of(num_nodes: u32, gpus_per_node: u32) -> Self {
        Self::new(num_nodes, gpus_per_node, Self::h100_gpu(), Self::a100_net())
            .expect("the H100 preset is valid for non-zero dimensions")
    }

    /// A mixed cluster: `a100_nodes` nodes of A100s followed by
    /// `h100_nodes` nodes of H100s, all `gpus_per_node` wide, on the
    /// shared fabric. The H100 is the faster SKU, so it canonicalizes to
    /// `SkuId(0)` and the A100 to `SkuId(1)`.
    ///
    /// # Panics
    ///
    /// Panics if both node counts are zero or the width is zero.
    ///
    /// # Example
    ///
    /// ```
    /// use flexsp_sim::{ClusterSpec, SkuId};
    /// let c = ClusterSpec::a100_h100_mix(2, 2, 8);
    /// assert_eq!(c.topology().sku_gpus(SkuId(0)), 16); // H100s
    /// assert_eq!(c.topology().sku_gpus(SkuId(1)), 16); // A100s
    /// ```
    pub fn a100_h100_mix(a100_nodes: u32, h100_nodes: u32, gpus_per_node: u32) -> Self {
        let mut nodes = Vec::new();
        nodes.extend(std::iter::repeat_n(
            (gpus_per_node, Self::a100_gpu()),
            a100_nodes as usize,
        ));
        nodes.extend(std::iter::repeat_n(
            (gpus_per_node, Self::h100_gpu()),
            h100_nodes as usize,
        ));
        Self::from_nodes(nodes, Self::a100_net())
            .expect("the mixed preset is valid for non-zero dimensions")
    }

    /// [`ClusterSpec::a100_h100_mix`] with **per-SKU link constants**
    /// installed: the H100 class gets [`ClusterSpec::h100_net`] instead
    /// of inheriting the A100 fabric, so H100-resident groups see NVLink 4
    /// bandwidth while any group touching an A100 node is gated by the
    /// slower class's links.
    ///
    /// # Panics
    ///
    /// Panics if both node counts are zero or the width is zero.
    ///
    /// # Example
    ///
    /// ```
    /// use flexsp_sim::{ClusterSpec, SkuId};
    /// let c = ClusterSpec::a100_h100_mix_with_links(2, 2, 8);
    /// // SKU 0 (H100) carries its own NVLink constants; SKU 1 (A100)
    /// // keeps the shared fabric.
    /// assert!(c.net_of(SkuId(0)).nvlink_bw > c.net_of(SkuId(1)).nvlink_bw);
    /// ```
    pub fn a100_h100_mix_with_links(a100_nodes: u32, h100_nodes: u32, gpus_per_node: u32) -> Self {
        assert!(h100_nodes > 0, "the links preset needs an H100 class");
        Self::a100_h100_mix(a100_nodes, h100_nodes, gpus_per_node)
            .with_sku_net(SkuId(0), Self::h100_net())
            .expect("SKU 0 exists and the H100 link preset is valid")
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> u32 {
        self.topo.num_nodes()
    }

    /// Total GPU count.
    pub fn num_gpus(&self) -> u32 {
        self.topo.num_gpus()
    }

    /// The node-level geometry (for placement engines and cost models).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The compute constants of the **primary** (fastest, `SkuId(0)`)
    /// SKU — the only SKU on uniform clusters.
    pub fn gpu(&self) -> &GpuSpec {
        &self.skus[0]
    }

    /// The compute constants of SKU class `sku`.
    ///
    /// # Panics
    ///
    /// Panics if `sku` is not a class of this cluster.
    pub fn sku_spec(&self, sku: SkuId) -> &GpuSpec {
        &self.skus[sku.0 as usize]
    }

    /// The per-SKU compute constants, fastest first.
    pub fn sku_specs(&self) -> &[GpuSpec] {
        &self.skus
    }

    /// SKU class of `gpu`.
    pub fn sku_of_gpu(&self, gpu: GpuId) -> SkuId {
        self.topo.node_sku(self.topo.node_of(gpu))
    }

    /// Usable memory of `gpu` in bytes.
    pub fn mem_bytes_of(&self, gpu: GpuId) -> u64 {
        self.sku_spec(self.sku_of_gpu(gpu)).mem_bytes
    }

    /// The smallest per-GPU memory across the SKUs present — the
    /// "straggler memory" planners assume so a plan sized for the tightest
    /// device never OOMs anywhere.
    pub fn min_mem_bytes(&self) -> u64 {
        self.skus
            .iter()
            .map(|s| s.mem_bytes)
            .min()
            .expect("at least one SKU")
    }

    /// Per-GPU memory budgets in GPU-id order (for executors tracking
    /// heterogeneous capacities).
    pub fn per_gpu_mem_budgets(&self) -> Vec<u64> {
        (0..self.num_gpus())
            .map(|g| self.mem_bytes_of(GpuId(g)))
            .collect()
    }

    /// Effective NVLink bandwidth for per-peer messages of `msg` bytes
    /// on the **default** fabric (per-SKU callers go through
    /// [`ClusterSpec::group_net_of`]).
    pub fn nvlink_eff_bw(&self, msg: f64) -> f64 {
        self.net.nvlink_eff(msg)
    }

    /// Effective per-GPU inter-node bandwidth for per-peer messages of
    /// `msg` bytes, including the cluster-size derate: small clusters see
    /// less fabric oversubscription (the paper observes that its 16-GPU
    /// slice enjoys higher inter-node bandwidth than 32/64 GPUs).
    pub fn nic_eff_bw_per_gpu(&self, msg: f64) -> f64 {
        self.net.nic_eff_per_gpu(msg, self.inter_bw_derate())
    }

    /// Cluster-size bandwidth multiplier (≥ 1; larger on small clusters).
    pub fn inter_bw_derate(&self) -> f64 {
        match self.num_nodes() {
            0 | 1 => 1.0, // unused intra-node
            2 => 1.6,
            3 | 4 => 1.25,
            _ => 1.0,
        }
    }

    /// Time to execute `flops` FLOPs split over `kernels` kernel launches
    /// on one GPU of the **primary** SKU, with the utilization ramp for
    /// small kernels. Heterogeneous callers use
    /// [`ClusterSpec::compute_time_on`] / [`ClusterSpec::group_compute_time`].
    ///
    /// The ramp is a *genuinely nonlinear* exponential saturation — a
    /// rational `pk/(pk+h)` ramp would make the time affine in FLOPs and
    /// let the planner's linear cost model fit it exactly, voiding the
    /// paper's Appendix C estimation-error story.
    ///
    /// # Panics
    ///
    /// Panics if `flops` is negative.
    pub fn compute_time(&self, flops: f64, kernels: u64) -> f64 {
        self.compute_time_on(SkuId(0), flops, kernels)
    }

    /// [`ClusterSpec::compute_time`] on one GPU of SKU class `sku`.
    ///
    /// # Panics
    ///
    /// Panics if `flops` is negative or `sku` is not a class of this
    /// cluster.
    pub fn compute_time_on(&self, sku: SkuId, flops: f64, kernels: u64) -> f64 {
        let gpu = self.sku_spec(sku);
        assert!(flops >= 0.0, "negative FLOPs");
        if flops == 0.0 {
            return gpu.kernel_launch_s * kernels as f64;
        }
        let per_kernel = flops / kernels.max(1) as f64;
        let ramp = 1.0 - (-per_kernel / gpu.util_half_flops).exp();
        let util = gpu.max_utilization * ramp.max(1e-3);
        flops / (gpu.peak_flops * util) + gpu.kernel_launch_s * kernels as f64
    }

    /// Time for a group whose members each execute `flops` FLOPs over
    /// `kernels` launches: the **slowest member SKU** gates the group
    /// (work is split evenly, so everyone waits for the straggler).
    pub fn group_compute_time(&self, group: &DeviceGroup, flops: f64, kernels: u64) -> f64 {
        let mut skus: Vec<SkuId> = group.gpus().iter().map(|&g| self.sku_of_gpu(g)).collect();
        skus.sort_unstable();
        skus.dedup();
        skus.into_iter()
            .map(|s| self.compute_time_on(s, flops, kernels))
            .fold(0.0, f64::max)
    }
}

/// Saturating bandwidth ramp with a sub-linear exponent: transfer time is
/// then a *curved* function of the payload, so fitted per-degree linear
/// communication models carry real residual error (paper App. C).
fn ramp(peak: f64, msg: f64, half: f64) -> f64 {
    let m = msg.max(1.0);
    peak * (m / (m + half)).powf(0.92)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_shape() {
        let c = ClusterSpec::a100_cluster(8);
        assert_eq!(c.num_gpus(), 64);
        assert!(c.gpu().mem_bytes > 30 * (1 << 30));
        assert_eq!(c.topology(), &Topology::new(8, 8));
    }

    #[test]
    fn constructor_rejects_degenerate_specs() {
        let ok = ClusterSpec::a100_cluster(2);
        let gpu = *ok.gpu();
        assert_eq!(ClusterSpec::new(0, 8, gpu, ok.net), Err(SpecError::NoNodes));
        assert_eq!(
            ClusterSpec::new(2, 0, gpu, ok.net),
            Err(SpecError::NoGpusPerNode)
        );
        let mut bad_net = ok.net;
        bad_net.nic_bw_per_gpu = 0.0;
        assert_eq!(
            ClusterSpec::new(2, 8, gpu, bad_net),
            Err(SpecError::BadBandwidth("nic_bw_per_gpu"))
        );
        let mut bad_net = ok.net;
        bad_net.nvlink_bw = -1.0;
        assert_eq!(
            ClusterSpec::new(2, 8, gpu, bad_net),
            Err(SpecError::BadBandwidth("nvlink_bw"))
        );
        let mut bad_gpu = gpu;
        bad_gpu.peak_flops = 0.0;
        assert_eq!(
            ClusterSpec::new(2, 8, bad_gpu, ok.net),
            Err(SpecError::BadCompute("peak_flops"))
        );
        assert!(ClusterSpec::new(2, 8, gpu, ok.net).is_ok());
        assert_eq!(
            ClusterSpec::from_nodes(vec![], ClusterSpec::a100_net()),
            Err(SpecError::NoNodes)
        );
        assert_eq!(
            ClusterSpec::from_nodes(vec![(0, gpu)], ClusterSpec::a100_net()),
            Err(SpecError::NoGpusPerNode)
        );
    }

    #[test]
    fn custom_node_width_preset() {
        let c = ClusterSpec::a100_nodes_of(4, 6);
        assert_eq!(c.num_gpus(), 24);
        assert!((0..4).all(|n| c.topology().node_width(n) == 6));
    }

    #[test]
    fn mixed_preset_orders_skus_fastest_first() {
        let c = ClusterSpec::a100_h100_mix(2, 2, 8);
        assert_eq!(c.num_gpus(), 32);
        assert_eq!(c.sku_specs().len(), 2);
        // SkuId(0) = H100 (faster), SkuId(1) = A100.
        assert!(c.sku_spec(SkuId(0)).peak_flops > c.sku_spec(SkuId(1)).peak_flops);
        // Node order is A100s first, so GPU 0 is an A100 (the slow class).
        assert_eq!(c.sku_of_gpu(GpuId(0)), SkuId(1));
        assert_eq!(c.sku_of_gpu(GpuId(16)), SkuId(0));
        assert_eq!(c.min_mem_bytes(), ClusterSpec::a100_gpu().mem_bytes);
        assert_eq!(c.mem_bytes_of(GpuId(16)), ClusterSpec::h100_gpu().mem_bytes);
        // The straggler gates a mixed group's compute.
        let mixed = DeviceGroup::from_gpus((8..24).map(GpuId).collect());
        let t_mixed = c.group_compute_time(&mixed, 1e14, 100);
        let slow = c.compute_time_on(SkuId(1), 1e14, 100);
        assert!((t_mixed - slow).abs() < 1e-15, "straggler rule");
        let fast_only = DeviceGroup::from_gpus((16..32).map(GpuId).collect());
        assert!(c.group_compute_time(&fast_only, 1e14, 100) < slow);
    }

    #[test]
    fn sku_nets_default_to_the_shared_fabric() {
        let c = ClusterSpec::a100_h100_mix(2, 2, 8);
        // No overrides installed: every class resolves to `net`, and any
        // group's gating spec is `net` exactly.
        assert_eq!(c.net_of(SkuId(0)), c.net);
        assert_eq!(c.net_of(SkuId(1)), c.net);
        let g = DeviceGroup::from_gpus((8..24).map(GpuId).collect());
        assert_eq!(c.group_net_of(&g), c.net);
    }

    #[test]
    fn sku_net_overrides_gate_by_slowest_participant() {
        let c = ClusterSpec::a100_h100_mix_with_links(2, 2, 8);
        // H100-only group rides the fast links.
        let h = DeviceGroup::from_gpus((16..32).map(GpuId).collect());
        assert_eq!(c.group_net_of(&h), ClusterSpec::h100_net());
        // A100-only group keeps the shared fabric.
        let a = DeviceGroup::from_gpus((0..16).map(GpuId).collect());
        assert_eq!(c.group_net_of(&a), ClusterSpec::a100_net());
        // A straddling group is gated field-wise by the worst of both.
        let mixed = DeviceGroup::from_gpus((8..24).map(GpuId).collect());
        let gated = c.group_net_of(&mixed);
        assert_eq!(gated.nvlink_bw, ClusterSpec::a100_net().nvlink_bw);
        assert_eq!(gated.nic_bw_per_gpu, ClusterSpec::a100_net().nic_bw_per_gpu);
        assert_eq!(
            gated.nvlink_latency_s,
            ClusterSpec::a100_net().nvlink_latency_s
        );
    }

    #[test]
    fn sku_net_override_is_validated() {
        let c = ClusterSpec::a100_cluster(2);
        assert_eq!(
            c.clone().with_sku_net(SkuId(3), ClusterSpec::h100_net()),
            Err(SpecError::UnknownSku(SkuId(3)))
        );
        let mut bad = ClusterSpec::h100_net();
        bad.nvlink_bw = 0.0;
        assert_eq!(
            c.with_sku_net(SkuId(0), bad),
            Err(SpecError::BadBandwidth("nvlink_bw"))
        );
    }

    #[test]
    fn bandwidth_ramps_saturate() {
        let c = ClusterSpec::a100_cluster(8);
        let small = c.nvlink_eff_bw(1e3);
        let large = c.nvlink_eff_bw(1e9);
        assert!(small < 0.2 * c.net.nvlink_bw);
        assert!(large > 0.95 * c.net.nvlink_bw);
        assert!(c.nic_eff_bw_per_gpu(1e9) <= c.net.nic_bw_per_gpu + 1.0);
    }

    #[test]
    fn small_clusters_get_more_inter_bandwidth() {
        let big = ClusterSpec::a100_cluster(8);
        let small = ClusterSpec::a100_cluster(2);
        assert!(small.nic_eff_bw_per_gpu(1e8) > 1.3 * big.nic_eff_bw_per_gpu(1e8));
    }

    #[test]
    fn compute_time_scales_and_ramps() {
        let c = ClusterSpec::a100_cluster(8);
        // Large workload approaches max utilization.
        let t = c.compute_time(1e15, 100);
        let best = 1e15 / (c.gpu().peak_flops * c.gpu().max_utilization);
        assert!(t > best && t < 1.3 * best, "t={t}, best={best}");
        // Splitting the same FLOPs into many tiny kernels is slower.
        let shredded = c.compute_time(1e12, 100_000);
        let chunky = c.compute_time(1e12, 100);
        assert!(shredded > chunky);
    }

    #[test]
    fn h100_outruns_a100_on_large_kernels() {
        let a = ClusterSpec::a100_cluster(1);
        let h = ClusterSpec::h100_nodes_of(1, 8);
        assert!(h.compute_time(1e15, 100) < 0.5 * a.compute_time(1e15, 100));
    }

    #[test]
    fn zero_flops_costs_only_launches() {
        let c = ClusterSpec::a100_cluster(1);
        let t = c.compute_time(0.0, 10);
        assert!((t - 10.0 * c.gpu().kernel_launch_s).abs() < 1e-15);
    }
}
