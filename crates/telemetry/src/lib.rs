//! Unified observability for FlexSP: a span tracer shared by every
//! crate in the workspace, plus the metric primitives stats structs are
//! built from.
//!
//! Two halves:
//!
//! - **Spans** ([`span!`], [`instant!`]): thread-local lock-free ring
//!   buffers of `{name, category, t_start, t_end, thread, args}`
//!   events, drained on demand into chrome-trace JSON
//!   ([`drain_chrome_trace`]) loadable in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`. Nothing is
//!   recorded until [`tracing_start`] installs the global sink.
//! - **Metrics** ([`Counter`], [`Histogram`], [`MetricsSnapshot`]):
//!   relaxed atomic counters and log-bucketed histograms (interpolated
//!   p50/p90/p99, snapshots mergeable across threads) that stats
//!   structs such as `CacheStats` and `ArbiterStats` embed, and a named
//!   snapshot an exporter fills from those structs and renders as
//!   Prometheus text. There is no global registry: each fact is kept
//!   once, by the thing that owns it.
//!
//! # Feature gating
//!
//! The cargo feature `enabled` gates the tracer. Downstream crates
//! expose their own `telemetry` feature (on by default) forwarding to
//! `flexsp-telemetry/enabled`; building with `--no-default-features`
//! compiles `span!` / `instant!` to empty inlined bodies with **zero
//! atomics**, and behavior (plans, replay logs) is bit-identical
//! because spans only ever *observe*. With the feature on but no sink
//! installed, a span is one relaxed atomic load. The metric primitives
//! are not gated: stats values are part of the functional API.
//!
//! ```
//! use flexsp_telemetry as tel;
//!
//! tel::tracing_start();
//! {
//!     let _span = tel::span!(tel::Category::Solver, "milp.solve", "nodes" => 42u64);
//! }
//! let trace_json = tel::drain_chrome_trace(); // feed to Perfetto
//! let metrics = tel::MetricsSnapshot {
//!     counters: vec![("flexsp.milp.solves", 7)],
//!     ..Default::default()
//! };
//! assert!(metrics.to_prometheus().contains("flexsp_milp_solves 7\n"));
//! # let _ = trace_json;
//! ```

pub mod metrics;
pub mod trace;

pub use metrics::{
    bucket_bounds, bucket_index, Counter, Histogram, HistogramSnapshot, MetricsSnapshot,
};
pub use trace::{
    drain_chrome_trace, drain_events, dropped_events, tracing_active, tracing_start, tracing_stop,
    Category, SpanGuard, SpanRecord, RING_CAP,
};
