//! FlexSP: heterogeneity-adaptive flexible sequence parallelism for LLM
//! training — the primary contribution of the ASPLOS 2025 paper, rebuilt in
//! Rust on a simulated cluster.
//!
//! # Architecture: solve → place → execute
//!
//! Every training step flows through one pipeline — each stage hands the
//! next a *fully specified* artifact, and no stage re-derives what an
//! earlier one decided. The full narrative lives in
//! `docs/ARCHITECTURE.md` at the repository root; in brief:
//!
//! 1. **Solve.** The **sequence blaster** ([`blaster`], §4.2 + App. A)
//!    chunks the batch into micro-batches; DP **sequence bucketing**
//!    ([`bucketing`], §4.1.3) compresses each one; the **parallelism
//!    planner** ([`planner`], §4.1) chooses heterogeneous SP groups and
//!    assigns every sequence. The decision unit is the
//!    [`flexsp_sim::GroupShape`] — degree × nodes spanned × SKU class —
//!    so the MILP can trade an intra-node group (NVLink All-to-All)
//!    against a node-spanning one (NIC-bound), and an A100-class group
//!    against an H100-class one, at their *different* fitted costs.
//! 2. **Place.** The **placement engine** ([`placement`]) packs the
//!    chosen shapes onto concrete GPUs: decreasing-degree packing over
//!    per-node free slots, fullest node first, **SKU-affine** (a group
//!    drains its own class before touching another). Realized
//!    [`flexsp_sim::DeviceGroup`]s and classes are written back into the
//!    plan ([`MicroBatchPlan::place`]); predicted times use those
//!    *realized* classes.
//! 3. **Execute.** The **executor** ([`executor`], §5) consumes the
//!    plan's own placement verbatim — validating disjointness, cluster
//!    bounds, and span/SKU agreement, never re-deriving a layout — and
//!    simulates each group on its exact GPUs with hot-switched, pooled
//!    communicators and per-GPU memory budgets. Predicted and simulated
//!    costs therefore price the same layout, on uniform *and*
//!    heterogeneous (mixed-SKU, uneven-node) clusters.
//!
//! The top-level entry points are [`FlexSpSolver`] (Algorithm 1: parallel
//! exploration of micro-batch counts, bucketing, MILP planning, placement)
//! and [`Executor`] (runs a placed plan). [`SolverService`] adds plan
//! caching keyed by batch histogram *and* a full topology fingerprint
//! (per-node widths and SKUs included). The multi-iteration
//! solve → execute loop is `flexsp-baselines`' `FlexSpSystem`, run by
//! `evaluate_system` like every baseline.
//!
//! # Example
//!
//! ```
//! use flexsp_core::{Executor, FlexSpSolver, SolverConfig};
//! use flexsp_cost::CostModel;
//! use flexsp_data::{GlobalBatchLoader, LengthDistribution};
//! use flexsp_model::{ActivationPolicy, ModelConfig};
//! use flexsp_sim::ClusterSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = ClusterSpec::a100_cluster(2); // 16 GPUs for a quick demo
//! let model = ModelConfig::gpt_7b(64 * 1024);
//! let policy = ActivationPolicy::None;
//! let cost = CostModel::fit(&cluster, &model, policy);
//!
//! let mut loader = GlobalBatchLoader::new(
//!     LengthDistribution::wikipedia(), 64, 64 * 1024, 0);
//! let batch = loader.next_batch();
//!
//! let solver = FlexSpSolver::new(cost, SolverConfig::fast());
//! let solved = solver.solve_iteration(&batch)?;
//! let executor = Executor::new(cluster, model, policy);
//! let report = executor.execute(&solved.plan)?;
//! assert!(report.total_s > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blaster;
pub mod bucketing;
pub mod executor;
pub mod placement;
pub mod planner;

mod error;
mod milp_formulations;
mod plan;
mod service;
mod workflow;

pub use error::PlanError;
pub use executor::{ExecError, Executor, IterationReport, MicroBatchReport};
pub use placement::{place_shapes, place_shapes_within, PlaceError};
pub use plan::{GroupAssignment, IterationPlan, MicroBatchPlan, PlanStats};
pub use planner::{
    plan_homogeneous, plan_homogeneous_within, plan_micro_batch, plan_micro_batch_within,
    Formulation, PlannerConfig,
};
pub use service::{CacheStats, SharedPlanCache, SolverService};
pub use workflow::{BucketingMode, FlexSpSolver, SolvedIteration, SolverConfig};

// Solver internals callers commonly need alongside the planner API.
pub use flexsp_milp::SolveStats;
// Placement vocabulary callers need alongside plans (the restricted
// `NodeSlots` ledger is what arbiter leases materialize as).
pub use flexsp_sim::{GroupShape, NodeSlots, NodeSpec, SkuId, Topology};
