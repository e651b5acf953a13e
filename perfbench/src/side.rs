//! Timed operations of one side of a run, summarised window by window.
//!
//! A run is cut into windows (a few seconds of loop time, or one pass
//! over a trace). Throughput and the median are taken per window and the
//! run reports their median across windows, so a host slowdown that
//! covers part of a run moves the result far less than a pooled figure
//! would. Tails use the same rule when every window has at least
//! [`MIN_BEYOND`](crate::stats::MIN_BEYOND) samples beyond its tail, and
//! the pooled samples otherwise.

use std::time::Duration;

use crate::stats::{percentile, sorted, tail, Reservoir, Tail};

/// Loop time per window for workloads without natural passes.
pub const WINDOW: Duration = Duration::from_secs(3);

#[derive(Debug, Clone, Copy)]
struct WindowStat {
    ops_per_s: f64,
    p50: Option<f64>,
    tail: Option<Tail>,
}

/// All of an untraced run, or the traced or untraced units of a traced
/// run, kept apart so tracing overhead can be read off.
#[derive(Debug, Clone)]
pub struct Side {
    /// Wall time inside units (steps, requests, visits).
    pub busy: Duration,
    /// Units completed.
    pub units: u64,
    /// Operations counted toward throughput; units when left at zero.
    pub ops: u64,
    /// Quality numerator (`quality_ratio = quality_num / quality_den`).
    pub quality_num: f64,
    /// Quality denominator.
    pub quality_den: f64,
    /// Tokens trained or planned.
    pub tokens: u64,
    pooled: Reservoir,
    window: Vec<f64>,
    mark: (u64, Duration),
    windows: Vec<WindowStat>,
}

impl Default for Side {
    fn default() -> Self {
        Self {
            busy: Duration::ZERO,
            units: 0,
            ops: 0,
            quality_num: 0.0,
            quality_den: 0.0,
            tokens: 0,
            pooled: Reservoir::new(1 << 20),
            window: Vec::new(),
            mark: (0, Duration::ZERO),
            windows: Vec::new(),
        }
    }
}

impl Side {
    fn op_count(&self) -> u64 {
        if self.ops > 0 {
            self.ops
        } else {
            self.units
        }
    }

    /// Records one latency of the headline operation, in microseconds.
    pub fn record(&mut self, lat_us: f64) {
        self.pooled.push(lat_us);
        self.window.push(lat_us);
    }

    /// Closes the open window (a no-op when it saw no operations).
    pub fn close_window(&mut self, tail_p: f64) {
        let ops = self.op_count() - self.mark.0;
        let busy = self.busy - self.mark.1;
        if ops == 0 || busy.is_zero() {
            return;
        }
        let lat = sorted(std::mem::take(&mut self.window));
        self.windows.push(WindowStat {
            ops_per_s: ops as f64 / busy.as_secs_f64(),
            p50: (!lat.is_empty()).then(|| percentile(&lat, 0.5)),
            tail: tail(&lat, tail_p).filter(|t| t.p >= tail_p),
        });
        self.mark = (self.op_count(), self.busy);
    }

    /// Median across windows of operations per second of busy time.
    pub fn ops_per_s(&self) -> f64 {
        median(self.windows.iter().map(|w| w.ops_per_s))
    }

    /// Median across windows of the window's median latency.
    pub fn p50_us(&self) -> Option<f64> {
        let p50s: Vec<f64> = self.windows.iter().filter_map(|w| w.p50).collect();
        (!p50s.is_empty()).then(|| median(p50s.into_iter()))
    }

    /// The latency tail: the median of the windows' `tail_p` percentiles
    /// when at least half the windows support one (`beyond` is then the
    /// fewest samples any of them had beyond its tail; a short last window
    /// does not switch the rule), otherwise the pooled tail (see [`tail`]).
    pub fn tail_us(&self, tail_p: f64) -> Option<Tail> {
        let measured = self.windows.iter().filter(|w| w.p50.is_some()).count();
        let tails: Vec<Tail> = self.windows.iter().filter_map(|w| w.tail).collect();
        if tails.is_empty() || 2 * tails.len() < measured {
            return tail(&self.pooled.sorted(), tail_p);
        }
        Some(Tail {
            p: tail_p,
            value: median(tails.iter().map(|t| t.value)),
            beyond: tails.iter().map(|t| t.beyond).min().unwrap_or(0),
        })
    }

    /// Latency samples recorded.
    pub fn samples(&self) -> u64 {
        self.pooled.seen()
    }

    /// `quality_num / quality_den`.
    pub fn quality(&self) -> f64 {
        self.quality_num / self.quality_den
    }

    /// Mean wall time per unit, in seconds.
    pub fn per_unit_s(&self) -> f64 {
        self.busy.as_secs_f64() / self.units.max(1) as f64
    }
}

/// Median of `xs` (`0.0` when empty).
fn median(xs: impl Iterator<Item = f64>) -> f64 {
    percentile(&sorted(xs.collect()), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(side: &mut Side, lat: &[f64], busy_ms: u64) {
        for &l in lat {
            side.record(l);
            side.units += 1;
        }
        side.busy += Duration::from_millis(busy_ms);
        side.close_window(0.5);
    }

    #[test]
    fn one_slow_window_does_not_move_the_medians() {
        let mut s = Side::default();
        let fast: Vec<f64> = (1..=21).map(f64::from).collect();
        let slow: Vec<f64> = fast.iter().map(|x| x * 10.0).collect();
        window(&mut s, &fast, 1_000);
        window(&mut s, &slow, 10_000);
        window(&mut s, &fast, 1_000);
        assert_eq!(s.ops_per_s(), 21.0);
        assert_eq!(s.p50_us(), Some(11.0));
        // Each window has ten samples beyond its median.
        let t = s.tail_us(0.5).expect("every window has a tail");
        assert_eq!((t.p, t.value, t.beyond), (0.5, 11.0, 10));
        assert_eq!(s.samples(), 63);
        // A short last window has no tail of its own but keeps the rule.
        window(&mut s, &[1.0, 2.0, 3.0], 10);
        assert_eq!(s.tail_us(0.5).map(|t| t.value), Some(11.0));
        assert_eq!(s.p50_us(), Some(11.0));
        // An empty window is not a window: a zero-rate one would move
        // the throughput median.
        s.close_window(0.5);
        s.close_window(0.5);
        assert_eq!(s.ops_per_s(), 21.0);
    }

    #[test]
    fn small_windows_fall_back_to_the_pooled_tail() {
        let mut s = Side::default();
        for _ in 0..4 {
            window(&mut s, &[1.0, 2.0, 3.0], 10);
        }
        // Three samples a window never support a tail; twelve pooled do.
        let t = s.tail_us(0.5).expect("pooled tail");
        assert_eq!((t.p, t.value, t.beyond), (2.0 / 12.0, 1.0, 10));
    }
}
