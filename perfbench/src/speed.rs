//! A fixed probe of the host's speed, for workloads that a shared host
//! slows far more than it slows plain arithmetic.
//!
//! On a virtual machine that shares its host, other tenants load the
//! machine for seconds to minutes at a time. In those phases the
//! arbiter's calls ran up to twice as slowly, while a dependent-multiply
//! loop slowed by a tenth: the arbiter's mutations allocate, clone small
//! ordered maps into fresh `Arc` snapshots and hash them, and that kind of
//! work is what the load slows. A 30 s run often sits inside one phase,
//! so medians within a run cannot remove it.
//!
//! The probe does that same kind of work with the standard library alone,
//! never with the crates under test, so no change to them moves it. The
//! workload takes short samples of it between its timed units, so the
//! probe runs under the same load as the work around it, and
//! [`HostSpeed`] scales each stretch of the workload's times to a nominal
//! host: one on which a probe round takes [`NOMINAL_ROUND_S`].

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::clock::Timer;
use crate::report::Named;
use crate::stats::{percentile, sorted};

/// A probe round's time on the nominal host: about its time on an
/// unloaded 2-vCPU Xeon (Sapphire Rapids) virtual machine.
pub const NOMINAL_ROUND_S: f64 = 2.5e-6;

/// Rounds of one sample, ≈0.25 ms on the nominal host.
const SAMPLE_ROUNDS: u32 = 100;

/// Samples of the calibration stretch taken before the first set-up.
const CALIBRATION_SAMPLES: u32 = 200;

/// Entries the probe's map holds before it evicts.
const MAP_LEN: usize = 48;

/// The probe's state, kept across samples so every round does the same
/// steady-state work.
#[derive(Debug)]
struct Probe {
    map: BTreeMap<u64, Vec<u32>>,
    x: u64,
    acc: u64,
}

impl Probe {
    /// Runs `rounds` rounds and returns their wall time in seconds. Each
    /// round updates a small ordered map of short vectors, publishes a
    /// clone of it behind a fresh `Arc`, hashes the snapshot and drops it:
    /// the shape of one arbiter mutation.
    fn run(&mut self, rounds: u32) -> f64 {
        let t = Timer::start();
        for _ in 0..rounds {
            let x = &mut self.x;
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let key = *x % (2 * MAP_LEN as u64);
            if self.map.len() > MAP_LEN {
                if let Some(first) = self.map.keys().next().copied() {
                    self.map.remove(&first);
                }
            }
            self.map
                .insert(key, vec![key as u32; (*x % 8) as usize + 1]);
            let snapshot = Arc::new(self.map.clone());
            let mut h = std::collections::hash_map::DefaultHasher::new();
            snapshot.len().hash(&mut h);
            snapshot.keys().next_back().hash(&mut h);
            self.acc = self.acc.wrapping_add(h.finish());
        }
        std::hint::black_box(self.acc);
        t.elapsed().as_secs_f64()
    }
}

/// Probe samples taken between timed units, grouped into stretches, and
/// the scale that brings a stretch's times to the nominal host.
#[derive(Debug)]
pub struct HostSpeed {
    probe: Probe,
    /// Probe seconds and rounds of the open stretch.
    open: (f64, u64),
    /// Mean round time, in seconds, of each closed stretch.
    closed: Vec<f64>,
}

impl HostSpeed {
    /// Warms the probe up and closes a calibration stretch, whose scale
    /// [`scale`](Self::scale) gives until the next stretch closes.
    pub fn new() -> Self {
        let mut s = Self {
            probe: Probe {
                map: BTreeMap::new(),
                x: 0x9E37_79B9_7F4A_7C15,
                acc: 0,
            },
            open: (0.0, 0),
            closed: Vec::new(),
        };
        s.probe.run(SAMPLE_ROUNDS);
        for _ in 0..CALIBRATION_SAMPLES {
            s.sample();
        }
        s.close();
        s
    }

    /// Takes one short sample into the open stretch.
    pub fn sample(&mut self) {
        self.open.0 += self.probe.run(SAMPLE_ROUNDS);
        self.open.1 += u64::from(SAMPLE_ROUNDS);
    }

    /// Closes the open stretch and returns its scale: the nominal round
    /// time over the stretch's mean round time. A stretch without samples
    /// keeps the previous scale.
    pub fn close(&mut self) -> f64 {
        let (secs, rounds) = std::mem::take(&mut self.open);
        if rounds > 0 && secs > 0.0 {
            self.closed.push(secs / rounds as f64);
        }
        self.scale()
    }

    /// The scale of the latest closed stretch (1 before any).
    pub fn scale(&self) -> f64 {
        self.closed
            .last()
            .map_or(1.0, |&round| NOMINAL_ROUND_S / round)
    }

    /// The median round time of the closed stretches in seconds.
    fn median_round_s(&self) -> f64 {
        percentile(&sorted(self.closed.clone()), 0.5)
    }

    /// Report-line entries: the median probe round time and the scale it
    /// gives, over the closed stretches.
    pub fn named(&self) -> [Named; 2] {
        let (round, n) = (self.median_round_s(), self.closed.len() as u64);
        [
            Named::new("speed_round_ns", round * 1e9, "ns", n),
            Named::new("speed_scale", NOMINAL_ROUND_S / round, "ratio", n),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stretch_is_scaled_by_its_own_samples() {
        let mut s = HostSpeed::new();
        assert!(s.scale() > 0.0);
        assert_eq!(s.named()[0].samples, 1);
        let near = |a: f64, b: f64| (a - b).abs() < 1e-9 * b;
        // Two stretches: 0.5 ms and 0.125 ms of probing over 100 rounds each.
        s.closed.clear();
        s.open = (5e-4, 100);
        assert!(near(s.close(), 0.5));
        s.open = (1.25e-4, 100);
        assert!(near(s.close(), 2.0));
        // A stretch without samples keeps the previous scale.
        assert!(near(s.close(), 2.0));
        // Nearest rank: the lower of two.
        assert!(near(s.median_round_s(), 1.25e-6));
        assert!(near(s.named()[1].value, 2.0));
        s.sample();
        assert_eq!(s.open.1, u64::from(SAMPLE_ROUNDS));
        assert!(s.open.0 > 0.0);
    }
}
