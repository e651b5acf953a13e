//! Deterministic discrete-event trace simulation for FlexSP's
//! multi-tenant layer: seeded job traces (Poisson arrivals, a priority
//! mix, grow/shrink/renew/depart churn, crashes) replayed through the
//! **real** [`ClusterArbiter`](flexsp_arbiter::ClusterArbiter) and —
//! sampled — the real [`SolverService`](flexsp_core::SolverService)
//! planning stack, on a [`LogicalClock`](flexsp_arbiter::LogicalClock).
//!
//! This is the trace harness the repo's scale claims are measured
//! against: every replay yields a flat observation log whose FNV-1a
//! hash is the determinism token (same seed ⇒ identical log, always),
//! plus per-job wait/admission/preemption/makespan statistics. The
//! replay engine jumps time between trace events and the deadlines of a
//! [`MaintenancePump`](flexsp_arbiter::MaintenancePump), the same pump a
//! deployed [`ClusterDaemon`](flexsp_arbiter::ClusterDaemon) runs on wall
//! time.
//!
//! # Example
//!
//! ```
//! use flexsp_trace::{generate, replay, ReplayConfig, TraceConfig};
//!
//! let trace = generate(&TraceConfig::quick(42));
//! let a = replay(&trace, &ReplayConfig::new());
//! let b = replay(&trace, &ReplayConfig::new());
//! assert_eq!(a.log_hash, b.log_hash, "same seed, same observations");
//! assert!(a.stats.admitted > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod replay;

pub use gen::{generate, Trace, TraceConfig, TraceEvent, TraceOp};
pub use replay::{log_hash, replay, JobObs, ReplayConfig, ReplayReport, TraceStats};
