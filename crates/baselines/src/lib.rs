//! Baseline training systems for the FlexSP evaluation (paper §6.1).
//!
//! The paper compares FlexSP against two state-of-the-art homogeneous
//! systems and one ablated variant, all rebuilt here on the same simulated
//! cluster so that every system sees identical physics:
//!
//! * [`DeepSpeedUlysses`] — a single static Ulysses-SP degree + ZeRO-3,
//!   with Best-Fit-Decreasing sequence packing to the context length. The
//!   degree is tuned once per workload (the paper hand-tunes baselines,
//!   App. B.2) and then held fixed, as a homogeneous system must.
//! * [`MegatronLm`] — TP (with Megatron-style SP) × CP (ring attention
//!   with compute overlap) × DP (ZeRO-1), strategy enumerated and tuned
//!   once per workload over the paper's search space.
//! * [`FlexSpBatchAda`] — FlexSP restricted to one homogeneous SP degree
//!   *per batch* (adaptive across batches, homogeneous within, §6.1).
//! * [`FlexSpSystem`] — the full FlexSP stack behind the same
//!   [`TrainingSystem`] interface for apples-to-apples evaluation.
//! * [`DegreeOnlyFlexSp`] — FlexSP with the pre-refactor degree-keyed
//!   cost model and flat-aligned placement, the ablation the
//!   topology-sweep scenarios compare the placement-aware planner
//!   against.
//! * [`StaticPartition`] — the multi-tenant baseline: the cluster carved
//!   into fixed node-aligned slices, one per job, versus the
//!   `flexsp-arbiter` reservation arbiter's demand-matched leases
//!   (`examples/multi_job_sweep.rs`).
//!
//! When each system is the right comparison — the full ablation ladder,
//! including the SKU-blind homogeneous-assumption baseline of
//! `examples/hetero_sweep.rs` — is documented in `docs/BASELINES.md` at
//! the repository root (the pipeline itself in `docs/ARCHITECTURE.md`).
//!
//! # Example
//!
//! ```
//! use flexsp_baselines::{evaluate_system, DeepSpeedUlysses, FlexSpSystem, TrainingSystem};
//! use flexsp_data::{GlobalBatchLoader, LengthDistribution};
//! use flexsp_model::{ActivationPolicy, ModelConfig};
//! use flexsp_sim::ClusterSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = ClusterSpec::a100_cluster(2);
//! let model = ModelConfig::gpt_7b(64 * 1024);
//! let policy = ActivationPolicy::None;
//! let loader = || GlobalBatchLoader::new(
//!     LengthDistribution::wikipedia(), 64, 64 * 1024, 1);
//!
//! let mut ds = DeepSpeedUlysses::new(cluster.clone(), model.clone(), policy)?;
//! let ds_stats = evaluate_system(&mut ds, loader(), 2)?;
//!
//! let mut fx = FlexSpSystem::fast(cluster, model, policy);
//! let fx_stats = evaluate_system(&mut fx, loader(), 2)?;
//! assert!(fx_stats.mean_iteration_s() <= ds_stats.mean_iteration_s() * 1.05,
//!         "FlexSP should not lose to a static homogeneous plan");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch_ada;
mod deepspeed;
mod degree_only;
mod flex_cp;
mod flexsp_adapter;
mod megatron;
mod partitioned;
mod system;

pub use batch_ada::FlexSpBatchAda;
pub use deepspeed::DeepSpeedUlysses;
pub use degree_only::DegreeOnlyFlexSp;
pub use flex_cp::{FlexCpSystem, HomogeneousCp};
pub use flexsp_adapter::FlexSpSystem;
pub use megatron::{MegatronLm, MegatronStrategy};
pub use partitioned::{PartitionError, StaticPartition};
pub use system::{evaluate_system, BaselineError, SystemReport, SystemStats, TrainingSystem};

// Unit tests of FlexSP's training loop: `FlexSpSystem` planning and
// executing one batch per step, alone and through `evaluate_system`.
#[cfg(test)]
mod trainer {
    mod tests {
        use flexsp_data::{GlobalBatchLoader, LengthDistribution};
        use flexsp_model::{ActivationPolicy, ModelConfig};
        use flexsp_sim::ClusterSpec;

        use crate::{evaluate_system, FlexSpSystem};

        const CTX: u64 = 64 * 1024;

        fn flexsp() -> FlexSpSystem {
            FlexSpSystem::fast(
                ClusterSpec::a100_cluster(2),
                ModelConfig::gpt_7b(CTX),
                ActivationPolicy::None,
            )
        }

        fn loader() -> GlobalBatchLoader {
            GlobalBatchLoader::new(LengthDistribution::wikipedia(), 48, CTX, 3)
        }

        #[test]
        fn runs_and_aggregates() {
            let stats = evaluate_system(&mut flexsp(), loader(), 3).unwrap();
            assert_eq!(stats.reports.len(), 3);
            assert!(stats.mean_iteration_s() > 0.0);
            assert!(stats.tokens_per_gpu_s() > 0.0);
            // FlexSP's communication share is its All-to-All.
            assert!(stats.mean_comm_ratio() > 0.0);
            assert!(stats.mean_solve_s() > 0.0, "solver wall time is recorded");
        }

        #[test]
        fn predictions_track_execution() {
            let stats = evaluate_system(&mut flexsp(), loader(), 3).unwrap();
            let pred_err = stats.mean_prediction_error().unwrap();
            // The solver's cost model should predict execution within ~25 %
            // (it ignores the optimizer overhead and exposed ZeRO slivers).
            assert!(pred_err.abs() < 0.25, "prediction error {pred_err}");
        }

        #[test]
        fn communicators_are_reused_across_iterations() {
            let mut fx = flexsp();
            evaluate_system(&mut fx, loader(), 4).unwrap();
            let stats = fx.executor().pool().stats();
            assert!(
                stats.hits > 0,
                "iterations should reuse cached communicators"
            );
        }
    }
}
