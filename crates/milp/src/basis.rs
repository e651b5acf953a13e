//! Simplex basis snapshots for warm re-solves.

/// Rest position of a nonbasic variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NonBasicState {
    /// Sitting at its lower bound.
    AtLower,
    /// Sitting at its upper bound.
    AtUpper,
}

/// A snapshot of a simplex basis, extracted from an optimal
/// [`LpSolution`](crate::LpSolution) and re-installable into a later solve
/// of the *same-shaped* problem (same variable and constraint counts).
///
/// Re-installing a basis after the right-hand side, variable bounds, or a
/// coefficient changed lets the solver resume from the previous optimum
/// with the dual simplex instead of re-running phase 1 from scratch —
/// the warm-start pattern the FlexSP planner leans on for its makespan
/// binary search and for branch-and-bound child nodes. A basis that no
/// longer fits (changed shape, singular after an edit) is rejected and
/// the solver silently falls back to a cold start, so reuse is always
/// safe to attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Basic column (augmented index: structural, then one slack per row,
    /// then one artificial per row) per constraint row.
    pub(crate) basic: Vec<usize>,
    /// Rest state per augmented column (meaningful while nonbasic).
    pub(crate) state: Vec<NonBasicState>,
}

impl Basis {
    /// Whether the basis plausibly fits a problem with `m` kept rows and
    /// `n` augmented columns. (Installation can still fail later if the
    /// basis matrix turned singular after coefficient edits.)
    pub(crate) fn fits(&self, m: usize, n: usize) -> bool {
        self.basic.len() == m && self.state.len() == n && self.basic.iter().all(|&j| j < n)
    }
}
