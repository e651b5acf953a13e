//! Metric primitives and their export format: atomic counters,
//! log-bucketed histograms, and [`MetricsSnapshot`], a named set of
//! values rendered as Prometheus text.
//!
//! There is no global registry. Each counter lives in the stats struct
//! of the thing that owns the fact (`CacheStats`, `ArbiterStats`,
//! `SolveStats`, `TraceStats`), and an exporter reads those structs at
//! export time and gives the values their metric names
//! (`ReplayReport::metrics` in `flexsp-trace` is the one exporter).
//! These types are always compiled: the `enabled` feature gates only
//! the span tracer ([`crate::trace`]), never a stats value.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic event counter. All operations are `Relaxed`: counters are
/// statistics, not synchronization — exactly the contract the arbiter's
/// `stat_*` atomics and the plan cache's hit/miss atomics already had.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: 4 sub-buckets per power-of-two octave
/// over the full `u64` range (`(63 << 2) | 3 == 255`), so recording any
/// `u64` is branch-light and in-range by construction.
pub const HIST_BUCKETS: usize = 256;

/// Returns the bucket index for `v`.
///
/// Values `0..4` get exact unit buckets; larger values land in
/// `(exponent << 2) | top-2-mantissa-bits`, i.e. 4 log-spaced
/// sub-buckets per octave (≤ 25% relative width). Indices 4–7 are
/// unreachable (exponent 2 starts at index 8); they stay zero and cost
/// nothing.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() as u64; // e >= 2
        ((e << 2) | ((v >> (e - 2)) & 3)) as usize
    }
}

/// Returns the `[lo, hi)` value range covered by bucket `idx`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < 4 {
        (idx as u64, idx as u64 + 1)
    } else {
        let e = (idx >> 2) as u64;
        let m = (idx & 3) as u64;
        let step = 1u64 << (e - 2);
        let lo = (1u64 << e) + m * step;
        (lo, lo.saturating_add(step))
    }
}

/// Log-bucketed histogram of `u64` samples (durations in microseconds,
/// queue depths, …). Recording is one `fetch_add` per sample plus two
/// for sum/count; snapshots are mergeable across threads and interpolate
/// p50/p90/p99 to within one bucket (≤ 25% relative error).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub const fn new() -> Self {
        Histogram {
            // `AtomicU64` is not `Copy`; an inline-const block builds each
            // array element as its own fresh value.
            counts: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the buckets, safe to merge and query.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; HIST_BUCKETS];
        for (dst, src) in counts.iter_mut().zip(self.counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state. Merging snapshots is
/// element-wise addition, so it is associative and commutative —
/// per-thread histograms can be folded in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub counts: [u64; HIST_BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; HIST_BUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Folds `other` into `self` (element-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Interpolated quantile (`q` in `[0, 1]`): finds the bucket holding
    /// the rank-`q` sample and interpolates linearly inside its `[lo,
    /// hi)` range, so the answer is within one bucket (≤ 25% relative)
    /// of the exact order statistic. A bucket one value wide (every value
    /// below 8) holds only `lo`, so there the answer is `lo` itself,
    /// exact. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < seen + c {
                let (lo, hi) = bucket_bounds(idx);
                if hi - lo == 1 {
                    return lo as f64;
                }
                let within = (rank - seen) as f64 / c as f64;
                return lo as f64 + within * (hi - lo) as f64;
            }
            seen += c;
        }
        // Unreachable when counts sum to `count`; fall back to the max
        // populated bucket's upper bound.
        let last = self
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(HIST_BUCKETS - 1);
        bucket_bounds(last).1 as f64
    }
}

/// A named set of counter, gauge and histogram values, renderable as
/// Prometheus text. Exporters build one from stats structs; the names
/// (`flexsp.cache.hits`, …) are spelled only there.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, in render order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` per gauge, in render order.
    pub gauges: Vec<(&'static str, i64)>,
    /// `(name, snapshot)` per histogram, in render order.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

/// `flexsp.cache.hits` → `flexsp_cache_hits` (Prometheus metric names
/// allow `[a-zA-Z0-9_:]` only).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    /// Histograms export as summaries (`{quantile="…"}` series plus
    /// `_sum` / `_count`).
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            s.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            s.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            s.push_str(&format!("# TYPE {n} summary\n"));
            for q in [0.5, 0.9, 0.99] {
                s.push_str(&format!("{n}{{quantile=\"{q}\"}} {:.3}\n", h.quantile(q)));
            }
            s.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_agree() {
        // Every value must fall inside the bounds of its own bucket.
        for v in
            (0..10_000u64).chain([1 << 20, (1 << 20) + 1, u64::MAX / 2, u64::MAX - 1, u64::MAX])
        {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "v={v} idx={idx} bounds=({lo},{hi})"
            );
        }
    }

    #[test]
    fn buckets_are_monotone_in_value() {
        let mut prev = 0;
        for v in 0..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "bucket index regressed at v={v}");
            prev = idx;
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..4 {
            h.record(v);
        }
        let s = h.snapshot();
        for v in 0..4usize {
            assert_eq!(s.counts[v], 1, "unit bucket {v}");
        }
    }
}
