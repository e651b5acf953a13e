//! MILP solution types.

use crate::basis::Basis;
use crate::branch_bound::SolveStats;
use crate::expr::VarId;

/// How the branch-and-bound terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// The incumbent is optimal within the configured gap tolerance.
    Optimal,
    /// A feasible incumbent was found, but the search spent its node
    /// budget before proving (near-)optimality.
    Feasible,
    /// No feasible point was found: the problem has none, or the search
    /// spent its node budget before finding one (then
    /// [`SolveStats::node_limit_stops`] is 1).
    Infeasible,
    /// The relaxation is unbounded in the optimization direction.
    Unbounded,
}

impl MilpStatus {
    /// True if a usable solution is available.
    pub fn has_solution(self) -> bool {
        matches!(self, MilpStatus::Optimal | MilpStatus::Feasible)
    }
}

/// A solution returned by [`MilpSolver`](crate::MilpSolver).
#[derive(Debug, Clone)]
pub struct MilpSolution {
    pub(crate) status: MilpStatus,
    pub(crate) values: Vec<f64>,
    pub(crate) objective: f64,
    pub(crate) best_bound: f64,
    pub(crate) stats: SolveStats,
    pub(crate) root_basis: Option<Basis>,
}

impl MilpSolution {
    /// Termination status.
    pub fn status(&self) -> MilpStatus {
        self.status
    }

    /// Value of `var` in the incumbent.
    ///
    /// # Panics
    ///
    /// Panics if no solution is available (check [`MilpSolution::status`])
    /// or if `var` does not belong to the solved problem.
    pub fn value(&self, var: VarId) -> f64 {
        assert!(
            self.status.has_solution(),
            "no incumbent available (status {:?})",
            self.status
        );
        self.values[var.index()]
    }

    /// All variable values, indexed by [`VarId::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Objective of the incumbent, in the problem's own sense.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Best proven bound on the optimum (lower bound for minimization,
    /// upper bound for maximization).
    pub fn best_bound(&self) -> f64 {
        self.best_bound
    }

    /// Relative optimality gap `|objective − bound| / max(1, |objective|)`.
    pub fn gap(&self) -> f64 {
        (self.objective - self.best_bound).abs() / self.objective.abs().max(1.0)
    }

    /// Detailed search counters.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Optimal basis of the *root* relaxation (`None` when the root was
    /// infeasible or unbounded, or once taken). Feed it to
    /// [`MilpSolver::root_basis`](crate::MilpSolver::root_basis) on the
    /// next solve of the same-shaped (mutated) problem — the pattern the
    /// planner's makespan binary search uses between steps.
    pub fn root_basis(&self) -> Option<&Basis> {
        self.root_basis.as_ref()
    }

    /// Extracts the root-relaxation basis, leaving `None` behind.
    pub fn take_root_basis(&mut self) -> Option<Basis> {
        self.root_basis.take()
    }
}
