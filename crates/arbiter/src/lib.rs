//! Multi-job cluster sharing for FlexSP: a reservation **arbiter** that
//! lets several concurrent solver services pack one (possibly
//! heterogeneous) GPU cluster without ever overlapping placements.
//!
//! FlexSP's solver assumes it owns the whole cluster; a production
//! service shares one pool across many training jobs. This crate owns
//! the canonical free/busy slot state and threads *availability* —
//! instead of raw topology — through the existing planner stack:
//!
//! * [`ClusterArbiter`] — the epoch-counted slot ledger. Every mutation
//!   (grant, release, grow, shrink, renew) bumps the epoch, so any
//!   artifact stamped with an older epoch is recognizably stale.
//! * [`Lease`] — a job's RAII slice of the cluster. Its
//!   [`view`](Lease::view) is a restricted
//!   [`NodeSlots`](flexsp_sim::NodeSlots) the whole planner consumes
//!   (`plan_micro_batch_within`, the heuristic's packed-span pricing,
//!   the aggregated MILP's per-node and per-SKU budget rows), so plans
//!   are placement-valid inside the lease *by construction*; its
//!   [`fingerprint`](Lease::fingerprint) (epoch + per-node slot vector)
//!   keys plan caches so stale plans can never be replayed after the
//!   free set changes.
//! * [`AdmissionPolicy`] — who gets freed slots: strict [FIFO] or
//!   [best-fit by SKU class], both serving higher [`Priority`] classes
//!   first, with per-job [`JobCounters`] making starvation observable.
//! * **Liveness** — leases are revocable and time-bounded. A request may
//!   carry a *term* ([`SlotRequest::with_term`], measured on the
//!   arbiter's [`Clock`]): the lease lapses unless renewed, and the next
//!   maintenance pass reaps it arbiter-side — a crashed or leaked tenant
//!   cannot pin its slots forever. A higher-priority request that
//!   cannot be admitted makes the arbiter issue a
//!   [`ShrinkDemand`] against the lowest-priority holders; tenants
//!   comply gracefully within the grace window
//!   ([`Lease::pending_demand`] + [`Lease::shrink`]) or the arbiter
//!   force-reclaims (victims emptiest-node-first, counted as
//!   `gpus_moved`). Tenants observe forced mutations via
//!   [`Lease::sync`] and replan by re-binding — the availability
//!   fingerprint guarantees no stale plan ever replays.
//! * **Event-driven maintenance** — one path runs maintenance: a
//!   [`MaintenancePump`] keeps a list of each lease's next term or
//!   grace deadline (rebuilt from the published snapshots, without the
//!   queue or a shard lock, whenever a shard publishes) and sweeps the
//!   ledger only when a deadline is actually due. Deployments run it in a
//!   [`ClusterDaemon`] on a [`WallClock`]; the `flexsp-trace`
//!   discrete-event simulator and tests poll it on a [`LogicalClock`].
//!   An arbiter built with [`ClusterArbiter::new`] reads a clock nothing
//!   advances, so its terms never lapse.
//!
//! [FIFO]: AdmissionPolicy::Fifo
//! [best-fit by SKU class]: AdmissionPolicy::BestFitSkuClass
//!
//! See `docs/ARCHITECTURE.md` at the repository root for where the
//! arbiter sits in the solve → place → execute pipeline, and
//! `examples/multi_job_sweep.rs` for shared-versus-partitioned packing
//! numbers.
//!
//! # Example: two jobs share one cluster
//!
//! ```
//! use flexsp_arbiter::{AdmissionPolicy, ClusterArbiter, JobId, SlotRequest};
//! use flexsp_core::{FlexSpSolver, SolverConfig};
//! use flexsp_cost::CostModel;
//! use flexsp_data::Sequence;
//! use flexsp_model::{ActivationPolicy, ModelConfig};
//! use flexsp_sim::ClusterSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = ClusterSpec::a100_cluster(2); // 16 GPUs
//! let model = ModelConfig::gpt_7b(48 * 1024);
//! let cost = CostModel::fit(&cluster, &model, ActivationPolicy::None);
//! let arbiter = ClusterArbiter::for_cluster(&cluster, AdmissionPolicy::Fifo);
//!
//! let lease_a = arbiter.try_lease(SlotRequest::new(JobId(1), 8))?;
//! let lease_b = arbiter.try_lease(SlotRequest::new(JobId(2), 8))?;
//!
//! let solver_a = lease_a.bind(FlexSpSolver::new(cost.clone(), SolverConfig::fast()));
//! let solver_b = lease_b.bind(FlexSpSolver::new(cost, SolverConfig::fast()));
//! let batch: Vec<Sequence> = (0..8).map(|i| Sequence::new(i, 4096)).collect();
//! let plan_a = solver_a.solve_iteration(&batch)?;
//! let plan_b = solver_b.solve_iteration(&batch)?;
//!
//! // Concurrent plans place on disjoint GPUs — guaranteed, not lucky.
//! let gpus = |p: &flexsp_core::SolvedIteration| -> Vec<_> {
//!     p.plan.micro_batches[0]
//!         .groups
//!         .iter()
//!         .flat_map(|g| g.placement.as_ref().unwrap().gpus().to_vec())
//!         .collect()
//! };
//! for g in gpus(&plan_a) {
//!     assert!(!gpus(&plan_b).contains(&g));
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod clock;
mod event;
mod lease;
mod policy;
mod rank;
mod shard;

pub use arbiter::{
    ArbiterStats, ClusterArbiter, LeaseError, ShrinkDemand, TickReport, Ticket, DEFAULT_GRACE_TICKS,
};
pub use clock::{Clock, LogicalClock, WallClock};
pub use event::{ClusterDaemon, MaintenancePump};
pub use lease::{Lease, LeaseEvent};
pub use policy::{AdmissionPolicy, JobCounters, JobId, Priority, SlotRequest};
