//! Layer spans recorded by the benchmark around each call into a layer.
//!
//! A traced unit of work (a training step, a plan request, an arbiter
//! visit) is a *root* span; each timed call inside it is a *layer* span
//! named after the module it enters. Spans are folded into per-layer
//! totals as they close, so a traced run keeps bounded memory however
//! many calls it makes. A root's self time — its duration minus its
//! layer spans — is the untraced remainder, so the layer shares and the
//! remainder add up to the whole.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::clock::Timer;

use crate::stats::Reservoir;

/// Latency samples kept per layer.
const LAYER_SAMPLES: usize = 1 << 16;

#[derive(Debug, Clone)]
struct Acc {
    total: Duration,
    lat_us: Reservoir,
}

/// Per-layer span totals of one traced run.
#[derive(Debug, Clone)]
pub struct Layers {
    on: bool,
    layers: BTreeMap<&'static str, Acc>,
    root: Duration,
}

impl Layers {
    /// An empty recorder; spans are recorded only while [`Layers::set_on`]
    /// is true.
    pub fn new() -> Self {
        Self {
            on: false,
            layers: BTreeMap::new(),
            root: Duration::ZERO,
        }
    }

    /// Switches recording on or off (traced runs alternate units).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Timer::start();
        let out = f();
        self.add(layer, t.elapsed());
        out
    }

    /// Records one closed span of `layer` lasting `d`.
    pub fn add(&mut self, layer: &'static str, d: Duration) {
        if !self.on {
            return;
        }
        let acc = self.layers.entry(layer).or_insert_with(|| Acc {
            total: Duration::ZERO,
            lat_us: Reservoir::new(LAYER_SAMPLES),
        });
        acc.total += d;
        acc.lat_us.push(d.as_secs_f64() * 1e6);
    }

    /// Records one closed root span lasting `d`.
    pub fn add_root(&mut self, d: Duration) {
        if self.on {
            self.root += d;
        }
    }

    /// Mean span length of `layer` in microseconds (`0.0` if never called).
    pub fn mean_us(&self, layer: &str) -> f64 {
        match self.layers.get(layer) {
            Some(a) if a.lat_us.seen() > 0 => a.total.as_secs_f64() * 1e6 / a.lat_us.seen() as f64,
            _ => 0.0,
        }
    }

    /// Ascending span lengths of `layer` in microseconds (a uniform sample
    /// when the layer was called very often).
    pub fn lat_us(&self, layer: &str) -> Vec<f64> {
        self.layers
            .get(layer)
            .map_or_else(Vec::new, |a| a.lat_us.sorted())
    }

    /// Share of root time spent in the layers whose name starts with
    /// `prefix`, in percent.
    pub fn share_pct(&self, prefix: &str) -> f64 {
        if self.root.is_zero() {
            return 0.0;
        }
        let t: Duration = self
            .layers
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, a)| a.total)
            .sum();
        t.as_secs_f64() / self.root.as_secs_f64() * 100.0
    }

    /// Share of root time covered by no layer span, in percent.
    pub fn untraced_pct(&self) -> f64 {
        100.0 - self.share_pct("")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_remainder_add_up_to_the_root() {
        let mut l = Layers::new();
        l.add("ignored.off", Duration::from_millis(5));
        l.set_on(true);
        l.add_root(Duration::from_millis(100));
        l.add("core.blaster", Duration::from_millis(10));
        l.add("core.bucketing", Duration::from_millis(20));
        l.add("milp", Duration::from_millis(30));
        assert!(l.lat_us("ignored.off").is_empty());
        assert!((l.share_pct("core.") - 30.0).abs() < 1e-9);
        assert!((l.share_pct("milp") - 30.0).abs() < 1e-9);
        assert!((l.untraced_pct() - 40.0).abs() < 1e-9);
        assert!((l.mean_us("milp") - 30_000.0).abs() < 1e-6);
        assert_eq!(l.time("milp", || 7), 7);
        assert_eq!(l.lat_us("milp").len(), 2);
    }
}
