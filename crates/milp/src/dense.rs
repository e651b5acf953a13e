//! Dense two-phase primal simplex with bounded variables: the test
//! oracle for the sparse revised engine.
//!
//! Compiled for tests only. The unit tests in [`crate::simplex`] solve
//! each hand-built LP with both engines, and a property test checks that
//! they agree on outcome and objective over random bounded LPs.
//!
//! The implementation keeps a full dense tableau `T = B⁻¹·A` over all
//! columns (structural variables, slacks, artificials) together with the
//! *current values* of the basic variables, and supports nonbasic
//! variables resting at either bound (with bound-flip steps). Phase 1
//! minimizes one artificial per row; phase 2 optimizes the true
//! objective with artificials pinned to zero. `O(m·n)` memory and
//! `O(m·n)` per pivot.

use crate::basis::NonBasicState;
use crate::error::SolveError;
use crate::problem::{Cmp, ObjectiveSense, Problem};
use crate::simplex::{LpOutcome, LpSolution};
use crate::FEAS_TOL;

/// Tolerance below which a pivot element is considered zero.
const PIVOT_TOL: f64 = 1e-9;
/// Tolerance on reduced costs for optimality.
const COST_TOL: f64 = 1e-9;
/// Number of consecutive degenerate pivots before switching to Bland's rule.
const DEGENERATE_STREAK: u32 = 64;

struct Tableau {
    m: usize,
    n: usize,
    /// Row-major `m × n` tableau body.
    t: Vec<f64>,
    /// Current values of the basic variables (one per row).
    xb: Vec<f64>,
    /// Basic variable (column index) per row.
    basis: Vec<usize>,
    /// Nonbasic rest state per column (ignored while basic).
    state: Vec<NonBasicState>,
    /// Whether a column is currently basic.
    in_basis: Vec<bool>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Reduced-cost row for the current phase.
    d: Vec<f64>,
    /// Columns barred from entering (artificials in phase 2).
    barred: Vec<bool>,
    degenerate_streak: u32,
    iterations: u64,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.t[r * self.n + c]
    }

    fn value_of(&self, col: usize) -> f64 {
        match self.state[col] {
            NonBasicState::AtLower => self.lower[col],
            NonBasicState::AtUpper => self.upper[col],
        }
    }

    /// Recomputes the reduced-cost row for cost vector `c` (length `n`).
    fn reset_costs(&mut self, c: &[f64]) {
        self.d.copy_from_slice(c);
        for r in 0..self.m {
            let cb = c[self.basis[r]];
            if cb != 0.0 {
                let row = &self.t[r * self.n..(r + 1) * self.n];
                for (dj, &tj) in self.d.iter_mut().zip(row) {
                    *dj -= cb * tj;
                }
            }
        }
    }

    /// Chooses an entering column; `None` means optimal.
    fn price(&self, bland: bool) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..self.n {
            if self.in_basis[j] || self.barred[j] {
                continue;
            }
            // A variable fixed by equal bounds can never improve.
            if self.upper[j] - self.lower[j] <= FEAS_TOL {
                continue;
            }
            let dj = self.d[j];
            let improving = match self.state[j] {
                NonBasicState::AtLower => dj < -COST_TOL,
                NonBasicState::AtUpper => dj > COST_TOL,
            };
            if improving {
                if bland {
                    return Some(j);
                }
                let score = dj.abs();
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((j, score));
                }
            }
        }
        best.map(|(j, _)| j)
    }

    /// One simplex iteration.
    fn step(&mut self) -> StepOutcome {
        let bland = self.degenerate_streak >= DEGENERATE_STREAK;
        let Some(e) = self.price(bland) else {
            return StepOutcome::Optimal;
        };
        // Direction the entering variable moves: +1 when leaving its lower
        // bound, -1 when descending from its upper bound.
        let dir = match self.state[e] {
            NonBasicState::AtLower => 1.0,
            NonBasicState::AtUpper => -1.0,
        };

        // Ratio test: θ is how far the entering variable travels.
        let mut theta = self.upper[e] - self.lower[e]; // bound-flip limit
        let mut leaving: Option<(usize, bool)> = None; // (row, hits_upper)
        for r in 0..self.m {
            let alpha = self.at(r, e);
            if alpha.abs() <= PIVOT_TOL {
                continue;
            }
            // Basic variable rate of change per unit θ.
            let delta = -dir * alpha;
            let b = self.basis[r];
            let limit = if delta < 0.0 {
                (self.xb[r] - self.lower[b]) / -delta
            } else {
                if self.upper[b].is_infinite() {
                    continue;
                }
                (self.upper[b] - self.xb[r]) / delta
            };
            let limit = limit.max(0.0);
            let better = match leaving {
                None => limit < theta - PIVOT_TOL,
                Some((lr, _)) => {
                    limit < theta - PIVOT_TOL
                        || (bland
                            && (limit - theta).abs() <= PIVOT_TOL
                            && self.basis[r] < self.basis[lr])
                }
            };
            if better {
                theta = limit;
                leaving = Some((r, delta > 0.0));
            }
        }

        if theta.is_infinite() {
            return StepOutcome::Unbounded;
        }
        self.iterations += 1;
        if theta <= PIVOT_TOL {
            self.degenerate_streak += 1;
        } else {
            self.degenerate_streak = 0;
        }

        match leaving {
            None => {
                // Pure bound flip of the entering variable.
                let step = dir * theta;
                for r in 0..self.m {
                    let alpha = self.at(r, e);
                    if alpha != 0.0 {
                        self.xb[r] -= alpha * step;
                    }
                }
                self.state[e] = match self.state[e] {
                    NonBasicState::AtLower => NonBasicState::AtUpper,
                    NonBasicState::AtUpper => NonBasicState::AtLower,
                };
                StepOutcome::Continue
            }
            Some((r, hits_upper)) => {
                // Move all basic variables, then swap e into the basis.
                let step = dir * theta;
                for i in 0..self.m {
                    let alpha = self.at(i, e);
                    if alpha != 0.0 {
                        self.xb[i] -= alpha * step;
                    }
                }
                let new_val = self.value_of(e) + step;
                let old = self.basis[r];
                self.state[old] = if hits_upper {
                    NonBasicState::AtUpper
                } else {
                    NonBasicState::AtLower
                };
                self.in_basis[old] = false;
                self.basis[r] = e;
                self.in_basis[e] = true;
                self.xb[r] = new_val;
                self.eliminate(r, e);
                StepOutcome::Continue
            }
        }
    }

    /// Gaussian elimination making column `e` the unit vector of row `r`
    /// (tableau body and reduced-cost row; `xb` is maintained separately).
    fn eliminate(&mut self, r: usize, e: usize) {
        let n = self.n;
        let pivot = self.t[r * n + e];
        debug_assert!(pivot.abs() > PIVOT_TOL, "pivot too small: {pivot}");
        let inv = 1.0 / pivot;
        for j in 0..n {
            self.t[r * n + j] *= inv;
        }
        self.t[r * n + e] = 1.0;
        let (before, rest) = self.t.split_at_mut(r * n);
        let (prow, after) = rest.split_at_mut(n);
        let apply = |row: &mut [f64]| {
            let f = row[e];
            if f != 0.0 {
                for (x, &p) in row.iter_mut().zip(prow.iter()) {
                    *x -= f * p;
                }
                row[e] = 0.0;
            }
        };
        for row in before.chunks_exact_mut(n) {
            apply(row);
        }
        for row in after.chunks_exact_mut(n) {
            apply(row);
        }
        apply(&mut self.d);
    }

    fn run(&mut self, max_iters: u64) -> Result<StepOutcome, SolveError> {
        loop {
            match self.step() {
                StepOutcome::Continue => {
                    if self.iterations > max_iters {
                        return Err(SolveError::IterationLimit(max_iters));
                    }
                }
                other => return Ok(other),
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepOutcome {
    Continue,
    Optimal,
    Unbounded,
}

/// Solves the linear relaxation of `problem` with the dense tableau,
/// optionally overriding variable bounds.
pub(crate) fn solve_dense(
    problem: &Problem,
    bound_overrides: Option<&[(f64, f64)]>,
) -> Result<LpOutcome, SolveError> {
    let nv = problem.num_vars();
    let bound = |j: usize| -> (f64, f64) {
        match bound_overrides {
            Some(b) => b[j],
            None => {
                let d = &problem.vars[j];
                (d.lower, d.upper)
            }
        }
    };

    // Classify constraints from their sparse terms — no dense row is
    // materialized per constraint. A reusable scratch vector detects rows
    // whose merged coefficients are all zero (checked directly), and the
    // kept rows are written straight into the tableau afterwards.
    let mut scratch = vec![0.0; nv];
    let mut touched: Vec<usize> = Vec::new();
    let mut kept: Vec<usize> = Vec::new();
    for (ci, c) in problem.constraints().iter().enumerate() {
        touched.clear();
        for &(v, coef) in c.expr().terms() {
            let idx = v.index();
            assert!(
                idx < nv,
                "expression references variable {v} outside the problem ({nv} vars)"
            );
            if scratch[idx] == 0.0 {
                touched.push(idx);
            }
            scratch[idx] += coef;
        }
        let all_zero = touched.iter().all(|&idx| scratch[idx] == 0.0);
        for &idx in &touched {
            scratch[idx] = 0.0;
        }
        if all_zero {
            let ok = match c.cmp() {
                Cmp::Le => 0.0 <= c.rhs() + FEAS_TOL,
                Cmp::Ge => 0.0 >= c.rhs() - FEAS_TOL,
                Cmp::Eq => c.rhs().abs() <= FEAS_TOL,
            };
            if !ok {
                return Ok(LpOutcome::Infeasible);
            }
            continue;
        }
        kept.push(ci);
    }

    let m = kept.len();
    let n_slack = kept
        .iter()
        .filter(|&&ci| problem.constraints()[ci].cmp() != Cmp::Eq)
        .count();
    let n = nv + n_slack + m; // structural + slacks + one artificial per row

    let mut lower = vec![0.0; n];
    let mut upper = vec![f64::INFINITY; n];
    for j in 0..nv {
        let (l, u) = bound(j);
        lower[j] = l;
        upper[j] = u;
    }

    // Build the m×n matrix with slack columns, then normalize each row so
    // the phase-1 residual is nonnegative and attach the artificial.
    let mut t = vec![0.0; m * n];
    let mut xb = vec![0.0; m];
    let mut basis = vec![0usize; m];
    let mut slack_idx = nv;
    for (r, &ci) in kept.iter().enumerate() {
        let c = &problem.constraints()[ci];
        let row = &mut t[r * n..(r + 1) * n];
        for &(v, coef) in c.expr().terms() {
            row[v.index()] += coef;
        }
        match c.cmp() {
            Cmp::Le => {
                row[slack_idx] = 1.0;
                slack_idx += 1;
            }
            Cmp::Ge => {
                row[slack_idx] = -1.0;
                slack_idx += 1;
            }
            Cmp::Eq => {}
        }
        // Residual with every non-artificial column at its initial value
        // (structural at lower bound, slack at 0).
        let mut residual = c.rhs();
        for j in 0..nv {
            residual -= row[j] * lower[j];
        }
        if residual < 0.0 {
            for v in row.iter_mut() {
                *v = -*v;
            }
            residual = -residual;
        }
        let art = nv + n_slack + r;
        row[art] = 1.0;
        xb[r] = residual;
        basis[r] = art;
    }

    let mut tab = Tableau {
        m,
        n,
        t,
        xb,
        basis,
        state: vec![NonBasicState::AtLower; n],
        in_basis: {
            let mut v = vec![false; n];
            for r in 0..m {
                v[nv + n_slack + r] = true;
            }
            v
        },
        lower,
        upper,
        d: vec![0.0; n],
        barred: vec![false; n],
        degenerate_streak: 0,
        iterations: 0,
    };

    let max_iters = (200 * (m + n) as u64).max(20_000);

    // Phase 1: minimize the sum of artificials.
    if m > 0 {
        let mut c1 = vec![0.0; n];
        for c in c1.iter_mut().skip(nv + n_slack) {
            *c = 1.0;
        }
        tab.reset_costs(&c1);
        match tab.run(max_iters)? {
            StepOutcome::Optimal => {}
            StepOutcome::Unbounded => {
                // Phase 1 objective is bounded below by 0; unboundedness here
                // indicates numerical trouble.
                return Err(SolveError::Numerical("phase-1 unbounded".into()));
            }
            StepOutcome::Continue => unreachable!(),
        }
        let infeas: f64 = (0..m)
            .filter(|&r| tab.basis[r] >= nv + n_slack)
            .map(|r| tab.xb[r])
            .sum();
        if infeas > 1e-6 {
            return Ok(LpOutcome::Infeasible);
        }
        // Pin artificials to zero and bar them from entering.
        for a in nv + n_slack..n {
            tab.lower[a] = 0.0;
            tab.upper[a] = 0.0;
            tab.barred[a] = true;
        }
    }

    // Phase 2: the real objective (internally minimized).
    let sign = match problem.sense() {
        ObjectiveSense::Minimize => 1.0,
        ObjectiveSense::Maximize => -1.0,
    };
    let mut c2 = vec![0.0; n];
    for &(v, coef) in problem.objective.terms() {
        c2[v.index()] += sign * coef;
    }
    tab.reset_costs(&c2);
    match tab.run(max_iters)? {
        StepOutcome::Optimal => {}
        StepOutcome::Unbounded => return Ok(LpOutcome::Unbounded),
        StepOutcome::Continue => unreachable!(),
    }

    let mut values = vec![0.0; nv];
    for (j, val) in values.iter_mut().enumerate() {
        *val = tab.value_of(j);
    }
    for r in 0..m {
        let b = tab.basis[r];
        if b < nv {
            values[b] = tab.xb[r];
        }
    }
    // Clamp tiny bound violations from floating-point drift.
    for (j, val) in values.iter_mut().enumerate() {
        let (l, u) = bound(j);
        *val = val.max(l).min(u);
    }
    let objective = problem.objective_value(&values);
    Ok(LpOutcome::Optimal(LpSolution {
        values,
        objective,
        basis: None,
    }))
}
