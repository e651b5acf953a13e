//! The benchmark's one wall-clock source.
//!
//! The workspace lint confines `Instant` to measurement code; keeping it
//! behind [`Timer`] puts this package's exemption in one place.

use std::time::Duration;
// lint: allow(clock) the benchmark measures wall time
use std::time::Instant;

/// A running wall-clock timer.
#[derive(Debug, Clone, Copy)]
// lint: allow(clock) the benchmark measures wall time
pub struct Timer(Instant);

impl Timer {
    /// Starts a timer now.
    pub fn start() -> Self {
        // lint: allow(clock) the benchmark measures wall time
        Self(Instant::now())
    }

    /// Time since the timer started.
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}
