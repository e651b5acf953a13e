//! The common interface every evaluated training system implements.

use std::error::Error;
use std::fmt;

use flexsp_core::PlanError;
use flexsp_data::{GlobalBatchLoader, Sequence};

/// Failure while planning or executing a baseline iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// No strategy in the system's search space fits the workload.
    NoFeasibleStrategy(String),
    /// Planning failed (FlexSP-derived systems).
    Plan(PlanError),
    /// Execution failed.
    Exec(String),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::NoFeasibleStrategy(why) => {
                write!(f, "no feasible strategy: {why}")
            }
            BaselineError::Plan(e) => write!(f, "planning failed: {e}"),
            BaselineError::Exec(why) => write!(f, "execution failed: {why}"),
        }
    }
}

impl Error for BaselineError {}

impl From<PlanError> for BaselineError {
    fn from(e: PlanError) -> Self {
        BaselineError::Plan(e)
    }
}

/// Outcome of one simulated training iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemReport {
    /// End-to-end iteration seconds.
    pub total_s: f64,
    /// Exposed communication seconds on the critical path (All-to-All for
    /// SP systems; TP/CP traffic for Megatron).
    pub comm_s: f64,
    /// Compute seconds on the critical path.
    pub compute_s: f64,
    /// Tokens trained this iteration.
    pub tokens: u64,
    /// Wall-clock seconds the system spent planning (CPU side).
    pub solve_wall_s: f64,
    /// The planner's predicted iteration seconds, for systems that plan
    /// against a cost model and report it ([`FlexSpSystem`](crate::FlexSpSystem)).
    pub predicted_s: Option<f64>,
}

impl SystemReport {
    /// Fraction of the iteration spent communicating.
    pub fn comm_ratio(&self) -> f64 {
        if self.total_s == 0.0 {
            0.0
        } else {
            self.comm_s / self.total_s
        }
    }
}

/// A training system under evaluation: given a global batch, simulate one
/// iteration.
pub trait TrainingSystem {
    /// Display name (figure legends).
    fn name(&self) -> String;

    /// Short description of the currently selected strategy (e.g.
    /// `"SP=32, ZeRO-3"`), for the paper's case-study tables.
    fn strategy(&self) -> String;

    /// GPUs the system runs on.
    fn num_gpus(&self) -> u32;

    /// Simulates one training iteration over `batch`.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError`] if the workload cannot be trained.
    fn run_iteration(&mut self, batch: &[Sequence]) -> Result<SystemReport, BaselineError>;
}

/// Aggregated evaluation of a system over several iterations.
#[derive(Debug, Clone, Default)]
pub struct SystemStats {
    /// System display name.
    pub name: String,
    /// Strategy description after warm-up/tuning.
    pub strategy: String,
    /// Per-iteration reports.
    pub reports: Vec<SystemReport>,
    /// GPUs used (for throughput normalization).
    pub num_gpus: u32,
}

impl SystemStats {
    /// Mean iteration seconds.
    pub fn mean_iteration_s(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports.iter().map(|r| r.total_s).sum::<f64>() / self.reports.len() as f64
    }

    /// Mean communication share.
    pub fn mean_comm_ratio(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports.iter().map(|r| r.comm_ratio()).sum::<f64>() / self.reports.len() as f64
    }

    /// Token throughput per GPU (tokens/s/GPU; paper Fig. 6).
    pub fn tokens_per_gpu_s(&self) -> f64 {
        let tokens: u64 = self.reports.iter().map(|r| r.tokens).sum();
        let time: f64 = self.reports.iter().map(|r| r.total_s).sum();
        if time == 0.0 || self.num_gpus == 0 {
            return 0.0;
        }
        tokens as f64 / time / self.num_gpus as f64
    }

    /// Mean wall-clock solve seconds.
    pub fn mean_solve_s(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports.iter().map(|r| r.solve_wall_s).sum::<f64>() / self.reports.len() as f64
    }

    /// Mean signed prediction error, `(predicted − executed) / executed`,
    /// over the iterations that report a prediction; `None` when none
    /// does.
    pub fn mean_prediction_error(&self) -> Option<f64> {
        let (sum, n) = self
            .reports
            .iter()
            .filter_map(|r| r.predicted_s.map(|p| (p - r.total_s) / r.total_s))
            .fold((0.0, 0usize), |(sum, n), e| (sum + e, n + 1));
        (n > 0).then(|| sum / n as f64)
    }
}

/// Runs `system` for `iterations` batches from `loader` and aggregates.
///
/// # Errors
///
/// Propagates the first [`BaselineError`].
pub fn evaluate_system<S: TrainingSystem + ?Sized>(
    system: &mut S,
    mut loader: GlobalBatchLoader,
    iterations: usize,
) -> Result<SystemStats, BaselineError> {
    let mut stats = SystemStats {
        name: system.name(),
        num_gpus: system.num_gpus(),
        ..SystemStats::default()
    };
    for _ in 0..iterations {
        let batch = loader.next_batch();
        stats.reports.push(system.run_iteration(&batch)?);
    }
    stats.strategy = system.strategy();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_ratio_and_means() {
        let r = SystemReport {
            total_s: 10.0,
            comm_s: 4.0,
            compute_s: 6.0,
            tokens: 1000,
            solve_wall_s: 0.1,
            predicted_s: None,
        };
        assert!((r.comm_ratio() - 0.4).abs() < 1e-12);
        let mut stats = SystemStats {
            name: "x".into(),
            strategy: "s".into(),
            reports: vec![r, r],
            num_gpus: 10,
        };
        assert!((stats.mean_iteration_s() - 10.0).abs() < 1e-12);
        assert!((stats.tokens_per_gpu_s() - 2000.0 / 20.0 / 10.0).abs() < 1e-12);
        assert_eq!(stats.mean_prediction_error(), None);
        // Only the iterations that report a prediction count.
        stats.reports.push(SystemReport {
            predicted_s: Some(9.0),
            ..r
        });
        stats.reports.push(SystemReport {
            predicted_s: Some(12.0),
            ..r
        });
        assert!((stats.mean_prediction_error().unwrap() - 0.05).abs() < 1e-12);
    }
}
