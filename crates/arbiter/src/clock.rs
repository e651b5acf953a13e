//! Logical time for lease terms: a [`Clock`] the arbiter reads expiry
//! deadlines against but never advances, so tests and simulations on a
//! [`LogicalClock`] stay fully deterministic (nothing in the arbiter
//! ever consults wall time).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic logical clock the arbiter reads lease terms against.
///
/// The arbiter only ever reads `now()` — it never advances time itself —
/// so a test (or a training loop that ticks once per step) controls
/// exactly when leases expire and when revocation grace windows lapse.
/// A production deployment backs this with a [`WallClock`]; the arbiter
/// does not care what a tick *means*, only that `now()` never decreases.
pub trait Clock: fmt::Debug + Send + Sync {
    /// The current logical time, in ticks. Must be monotonic.
    fn now(&self) -> u64;
}

/// The default logical clock: a shared atomic counter its owner advances.
///
/// Clones share the same counter, so a handle kept by the driving loop
/// advances the clock an arbiter (or several) reads.
///
/// # Example
///
/// ```
/// use flexsp_arbiter::{Clock, LogicalClock};
/// let clock = LogicalClock::new();
/// assert_eq!(clock.now(), 0);
/// clock.advance(3);
/// assert_eq!(clock.now(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogicalClock(Arc<AtomicU64>);

impl LogicalClock {
    /// A clock starting at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ticks` and returns the new time.
    pub fn advance(&self, ticks: u64) -> u64 {
        self.0.fetch_add(ticks, Ordering::SeqCst) + ticks
    }
}

impl Clock for LogicalClock {
    fn now(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// A wall-time [`Clock`]: ticks are fixed [`Duration`] quanta elapsed
/// since the clock's origin [`Instant`].
///
/// This is the production backing for lease terms: an arbiter built
/// [`with_clock`](crate::ClusterArbiter::with_clock) over a `WallClock`
/// measures terms and grace windows in real time, and a
/// [`ClusterDaemon`](crate::ClusterDaemon) enforces them with no caller
/// driving time at all. Clones share the origin (an `Instant` is
/// `Copy`), so every handle reads the same timeline.
///
/// `Instant` is monotonic, so `now()` never decreases — the one
/// contract [`Clock`] demands.
///
/// # Example
///
/// ```
/// use flexsp_arbiter::{Clock, WallClock};
/// use std::time::Duration;
/// let clock = WallClock::new(Duration::from_millis(10));
/// let t0 = clock.now();
/// std::thread::sleep(Duration::from_millis(25));
/// assert!(clock.now() >= t0 + 2);
/// ```
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
    tick: Duration,
}

impl WallClock {
    /// A clock whose logical tick is `tick` of wall time, starting now
    /// (the current instant is tick 0).
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero.
    pub fn new(tick: Duration) -> Self {
        assert!(!tick.is_zero(), "WallClock tick must be non-zero");
        Self {
            origin: Instant::now(),
            tick,
        }
    }

    /// One tick per second — the natural unit when a term is "renew at
    /// least every `n` seconds".
    pub fn seconds() -> Self {
        Self::new(Duration::from_secs(1))
    }

    /// Wall time remaining until logical time `tick` is reached — zero
    /// if it already passed. This is what a maintenance loop sleeps.
    pub fn until(&self, tick: u64) -> Duration {
        let target = self.tick.as_nanos().saturating_mul(u128::from(tick));
        let remaining = target.saturating_sub(self.origin.elapsed().as_nanos());
        Duration::from_nanos(u64::try_from(remaining).unwrap_or(u64::MAX))
    }
}

impl Clock for WallClock {
    fn now(&self) -> u64 {
        (self.origin.elapsed().as_nanos() / self.tick.as_nanos().max(1)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_ticks_monotonically_and_until_reaches_zero() {
        let clock = WallClock::new(Duration::from_millis(1));
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(3));
        let b = clock.now();
        assert!(b >= a + 2, "expected at least 2 ticks, got {a} -> {b}");
        assert_eq!(
            clock.until(b),
            Duration::ZERO,
            "a reached tick needs no sleep"
        );
        assert!(clock.until(b + 1_000) > Duration::ZERO);
        let shared = clock.clone();
        assert!(shared.now() >= b, "clones share the origin");
    }

    #[test]
    fn clones_share_one_counter() {
        let a = LogicalClock::new();
        let b = a.clone();
        a.advance(2);
        assert_eq!(b.now(), 2);
        assert_eq!(b.advance(1), 3);
        assert_eq!(a.now(), 3);
    }
}
