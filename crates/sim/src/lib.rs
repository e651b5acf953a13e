//! Deterministic GPU-cluster simulator for the FlexSP reproduction.
//! (Where this crate sits in the solve → place → execute pipeline is
//! described in `docs/ARCHITECTURE.md` at the repository root.)
//!
//! The paper's testbed — 8 nodes × 8 NVIDIA A100-40GB with NVLink inside a
//! node and 400 Gbps InfiniBand between nodes — is unavailable, so this
//! crate rebuilds its *performance physics* from first principles, then
//! generalizes them to the clusters that exist outside the paper: the
//! [`Topology`] is a **node list** (per-node widths and [`SkuId`]
//! classes), so uneven nodes, partial reservations, and mixed A100/H100
//! pools are first-class:
//!
//! * [`ClusterSpec`]: topology and calibrated constants (per-SKU peak
//!   FLOPs with a small-kernel utilization curve, per-message
//!   effective-bandwidth ramps, launch/latency overheads,
//!   cluster-size-dependent inter-node bandwidth). Mixed-SKU groups are
//!   gated by their slowest member ([`ClusterSpec::group_compute_time`],
//!   the Ulysses straggler rule).
//! * [`collective_time`]: cost models for All-to-All, All-Gather,
//!   Reduce-Scatter, All-Reduce, Broadcast and ring Send/Recv. All-to-All
//!   pays full per-GPU inter-node traffic (every byte is distinct), while
//!   the gather/reduce family is node-aware — each byte crosses InfiniBand
//!   once per node — which is why ZeRO's parameter traffic hides under
//!   compute while Ulysses All-to-All does not (paper Table 1).
//! * [`GroupPool`]: the NCCL-communicator analogue with power-of-two
//!   aligned placement, lazy creation, caching and creation-cost accounting
//!   (paper §5 "Hot Switching and Group Management").
//! * [`MemoryTracker`]: per-GPU memory accounting with OOM detection
//!   (drives the OOM cells of Table 1).
//! * [`simulate_sp_step`]: executes one Ulysses-style sequence-parallel
//!   group step (4 All-to-Alls per layer forward, 4 backward, compute,
//!   overlapped ZeRO-3 traffic) and reports a time breakdown.
//!
//! The simulator is intentionally *nonlinear* (bandwidth and utilization
//! ramps), so the α-β cost model fitted on top of it in `flexsp-cost` has a
//! genuine estimation-error story, as in the paper's Appendix C.
//!
//! # Example
//!
//! ```
//! use flexsp_sim::{ClusterSpec, Collective, collective_time, DeviceGroup};
//!
//! let cluster = ClusterSpec::a100_cluster(8); // 64 GPUs
//! let intra = DeviceGroup::aligned(0, 8);     // one node
//! let inter = DeviceGroup::aligned(0, 64);    // whole cluster
//! let bytes = 256 * 1024 * 1024;
//! let t_intra = collective_time(&cluster, &intra, Collective::AllToAll { per_gpu_bytes: bytes });
//! let t_inter = collective_time(&cluster, &inter, Collective::AllToAll { per_gpu_bytes: bytes });
//! assert!(t_inter > 5.0 * t_intra, "inter-node All-to-All is much slower");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collective;
mod context_parallel;
mod group;
mod memory;
mod pool;
mod shape;
mod spec;
mod ulysses;

pub use collective::{collective_time, Collective};
pub use context_parallel::{simulate_cp_step, CpStepSpec};
pub use group::{DeviceGroup, GpuId};
pub use memory::{MemoryTracker, OomError};
pub use pool::{allocate_aligned, AllocError, GroupPool, PoolFetch, PoolStats};
pub use shape::{enumerate_shapes, GroupShape, NodeSlots, NodeSpec, SkuId, Topology};
pub use spec::{ClusterSpec, GpuSpec, InterconnectSpec, SpecError};
pub use ulysses::{simulate_sp_step, SpStepReport, SpStepSpec, ZeroTrafficSpec};

/// Seconds of optimizer step every simulated training iteration adds to
/// its critical path, once per iteration: FlexSP's executor and every
/// baseline charge the same amount.
pub const OPTIMIZER_OVERHEAD_S: f64 = 0.25;
