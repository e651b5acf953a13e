//! **FlexSP** — heterogeneity-adaptive flexible sequence parallelism for
//! LLM training (Wang et al., ASPLOS 2025), reproduced in Rust on a
//! simulated GPU cluster.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] (`flexsp-core`) | the paper's solver (blaster, bucketing, MILP planner), the node-packing placement engine, the executor, and the caching solver service |
//! | [`milp`] (`flexsp-milp`) | incremental sparse LP/MILP solver (SCIP replacement): sparse revised simplex, [`milp::Basis`] warm re-solves, the `Problem` mutation API, branch and bound |
//! | [`model`] (`flexsp-model`) | GPT configs, FLOPs and memory accounting |
//! | [`data`] (`flexsp-data`) | long-tail corpora, packing, batching |
//! | [`sim`] (`flexsp-sim`) | cluster / collective-communication simulator |
//! | [`cost`] (`flexsp-cost`) | α-β cost models + profiler fitting (incl. ZeRO-3 exposure) |
//! | [`arbiter`] (`flexsp-arbiter`) | multi-job cluster sharing: epoch-counted reservation arbiter, RAII leases (revocable, time-bounded), priority preemption, admission policies |
//! | [`baselines`] (`flexsp-baselines`) | DeepSpeed-, Megatron-like systems, BatchAda, static partitioning |
//!
//! The repository-level docs are the front door: `README.md` (crate map,
//! verify command, results tables), `docs/ARCHITECTURE.md` (the
//! solve → place → execute pipeline narrative, including heterogeneous
//! clusters — mixed GPU SKUs and uneven node widths), and
//! `docs/BASELINES.md` (which baseline answers which question).
//!
//! # Why warm starts matter for the makespan binary search
//!
//! The planner recovers its min-max makespan by binary-searching a scalar
//! `C` over nearly identical feasibility MILPs. The solver stack is built
//! around that access pattern: the aggregated formulation builds its
//! model **once** and only mutates the `C`-dependent numbers between
//! steps (`flexsp-milp`'s `set_rhs` / `set_bounds` / coefficient API),
//! and each step re-solves from the previous step's optimal
//! [`milp::Basis`] with the dual simplex instead of a cold two-phase
//! start — as do all branch-and-bound child nodes from their parents.
//! [`core::PlanStats`] (model builds, search steps, pivots, basis-reuse
//! hit rate) surfaces this through every plan.
//! `crates/core/tests/search_trajectory.rs` pins those counters on one
//! planner call, and the benchmark's `train_fig6` workload with
//! `--trace 1` reports the cost-model, planner and MILP timings per
//! layer.
//!
//! # Quickstart
//!
//! ```
//! use flexsp::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 16-GPU cluster training GPT-7B at 64K context on Wikipedia-like data.
//! let cluster = ClusterSpec::a100_cluster(2);
//! let model = ModelConfig::gpt_7b(64 * 1024);
//! let policy = ActivationPolicy::None;
//!
//! let cost = CostModel::fit(&cluster, &model, policy);
//! let solver = FlexSpSolver::new(cost, SolverConfig::fast());
//! let executor = Executor::new(cluster, model, policy);
//!
//! let mut loader = GlobalBatchLoader::new(
//!     LengthDistribution::wikipedia(), 64, 64 * 1024, 42);
//! let solved = solver.solve_iteration(&loader.next_batch())?;
//! let report = executor.execute(&solved.plan)?;
//! println!("plan {} ran in {:.2}s ({:.1}% All-to-All)",
//!     solved.plan.signature(), report.total_s, 100.0 * report.alltoall_ratio());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use flexsp_arbiter as arbiter;
pub use flexsp_baselines as baselines;
pub use flexsp_core as core;
pub use flexsp_cost as cost;
pub use flexsp_data as data;
pub use flexsp_milp as milp;
pub use flexsp_model as model;
pub use flexsp_sim as sim;
pub use flexsp_telemetry as telemetry;

/// The most common imports in one place.
pub mod prelude {
    pub use flexsp_arbiter::{
        AdmissionPolicy, Clock, ClusterArbiter, JobId, Lease, LeaseEvent, LogicalClock, Priority,
        ShrinkDemand, SlotRequest, TickReport,
    };
    pub use flexsp_baselines::{
        evaluate_system, DeepSpeedUlysses, DegreeOnlyFlexSp, FlexCpSystem, FlexSpBatchAda,
        FlexSpSystem, HomogeneousCp, MegatronLm, StaticPartition, TrainingSystem,
    };
    pub use flexsp_core::{
        Executor, FlexSpSolver, IterationPlan, PlannerConfig, SharedPlanCache, SolverConfig,
        SolverService, Trainer,
    };
    pub use flexsp_cost::CostModel;
    pub use flexsp_data::{Corpus, GlobalBatchLoader, LengthDistribution, Sequence};
    pub use flexsp_model::{ActivationPolicy, ModelConfig, ZeroStage};
    pub use flexsp_sim::{ClusterSpec, DeviceGroup, GroupShape, NodeSpec, SkuId, Topology};
}
