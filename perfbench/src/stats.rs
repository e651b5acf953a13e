//! Sample summaries: nearest-rank percentiles, the tail-percentile rule,
//! and a bounded uniform reservoir for high-rate latency streams.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` (`p` in `[0, 1]`); `0.0`
/// for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = rank_of(sorted.len(), p).max(1);
    sorted[rank - 1]
}

/// `ceil(p * n)`, tolerant of float error just above an integer.
fn rank_of(n: usize, p: f64) -> usize {
    ((p * n as f64) - 1e-9).ceil().max(0.0) as usize
}

/// A tail percentile as reported: which percentile, its value, and how
/// many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in `(0, 1)`.
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it (always at least [`MIN_BEYOND`]).
    pub beyond: usize,
}

/// The tail of ascending `sorted`: percentile `target` when at least
/// [`MIN_BEYOND`] samples lie beyond it, otherwise the highest
/// percentile that still has that many beyond it. `None` when the
/// samples are too few for any tail.
pub fn tail(sorted: &[f64], target: f64) -> Option<Tail> {
    let n = sorted.len();
    let rank = rank_of(n, target).min(n.checked_sub(MIN_BEYOND)?);
    if rank == 0 {
        return None;
    }
    Some(Tail {
        p: rank as f64 / n as f64,
        value: sorted[rank - 1],
        beyond: n - rank,
    })
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Ascending copy of `xs`.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// A uniform sample of at most `cap` values from a stream of any length
/// (Algorithm R), so a reader polling millions of times a second keeps
/// exact, unquantized values in bounded memory. Below `cap` it holds
/// every value.
#[derive(Debug, Clone)]
pub struct Reservoir {
    samples: Vec<f64>,
    seen: u64,
    cap: usize,
    rng: u64,
}

impl Reservoir {
    /// An empty reservoir holding at most `cap` samples.
    pub fn new(cap: usize) -> Self {
        Self {
            samples: Vec::new(),
            seen: 0,
            cap: cap.max(1),
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Offers one value.
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(v);
            return;
        }
        // xorshift64: deterministic, and independent of the benchmark seed.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = self.rng % self.seen;
        if (j as usize) < self.cap {
            self.samples[j as usize] = v;
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept samples, ascending.
    pub fn sorted(&self) -> Vec<f64> {
        sorted(self.samples.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_the_target_when_ten_samples_lie_beyond() {
        // 1000 samples: p99 is rank 990, ten beyond it.
        let t = tail(&ramp(1000), 0.99).expect("enough samples");
        assert_eq!((t.p, t.value, t.beyond), (0.99, 990.0, 10));
        // 130 samples: p90 is rank 117, thirteen beyond it.
        let t = tail(&ramp(130), 0.90).expect("enough samples");
        assert_eq!((t.value, t.beyond), (117.0, 13));
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 500 samples cannot support p99 (5 beyond): p98 has exactly 10.
        let t = tail(&ramp(500), 0.99).expect("enough samples");
        assert_eq!((t.p, t.value, t.beyond), (0.98, 490.0, 10));
        // 95 samples cannot support p90 (9 beyond): rank 85 has 10.
        let t = tail(&ramp(95), 0.90).expect("enough samples");
        assert_eq!((t.value, t.beyond), (85.0, 10));
        assert!(t.p < 0.90);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert!(tail(&ramp(10), 0.5).is_none());
        assert!(tail(&[], 0.99).is_none());
        let t = tail(&ramp(11), 0.99).expect("one rank qualifies");
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn reservoir_keeps_everything_below_capacity_and_bounds_memory_above() {
        let mut r = Reservoir::new(8);
        for i in 0..5 {
            r.push(i as f64);
        }
        assert_eq!(r.sorted(), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        for i in 5..10_000 {
            r.push(i as f64);
        }
        assert_eq!(r.seen(), 10_000);
        assert_eq!(r.sorted().len(), 8);
        // A uniform sample of 0..10000 is not stuck at the first values.
        assert!(r.sorted().last().copied().unwrap_or(0.0) > 1_000.0);
    }
}
