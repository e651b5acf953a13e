//! Sparse revised simplex with bounded variables and warm re-solves.
//!
//! Cold solves run the classic two phases (artificial-variable phase 1,
//! then the true objective) but price against an explicit basis inverse
//! instead of a dense tableau: reduced costs come from one BTRAN per
//! iteration, the entering column from one FTRAN, and each pivot updates
//! the [`BasisInverse`] in place, with a periodic rebuild. Memory is
//! `O(nnz + m²)` instead of the dense tableau's `O(m·n)`.
//!
//! Every optimum leaves a [`NodeState`] behind: the optimal basis, its
//! inverse and the reduced costs of the final pricing pass. A warm solve
//! starts from one. Branch and bound hands a node's state to its children
//! as it stands, so a child neither refactors nor re-prices; a [`Basis`]
//! from an earlier solve, possibly of an edited problem, is rebuilt into
//! a state by one inversion and one pricing pass. Either way the warm
//! solve recomputes the basic values under its own bounds, flips boxed
//! columns whose reduced cost points past their bound, and lets the
//! bounded *dual* simplex repair primal feasibility, updating the reduced
//! costs along each pivot row — typically a handful of pivots instead of
//! a full phase 1. A primal pass on fresh multipliers ends every solve,
//! so optimality is always checked on fresh numbers. Any numerical or
//! structural trouble falls back to a cold solve, so warm starts never
//! compromise correctness.

use flexsp_telemetry as tel;

use crate::basis::{Basis, NonBasicState};
use crate::error::SolveError;
use crate::lu::{BasisInverse, REFACTOR_INTERVAL};
use crate::problem::{ObjectiveSense, Problem};
use crate::simplex::{LpOutcome, LpSolution, LpStats};
use crate::sparse::SparseModel;
use crate::FEAS_TOL;

/// Tolerance below which a pivot element is considered zero.
const PIVOT_TOL: f64 = 1e-9;
/// Tolerance on reduced costs for optimality.
const COST_TOL: f64 = 1e-9;
/// Tolerance on basic-variable bound violations (primal feasibility).
const PRIMAL_TOL: f64 = 1e-7;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGENERATE_STREAK: u32 = 64;

/// Warm-start attempt failures that trigger a silent cold-solve fallback.
#[derive(Debug)]
pub(crate) enum WarmFail {
    /// Basis shape does not match the problem, or the basis matrix is
    /// singular under the current coefficients.
    NotInstallable,
    /// Dual feasibility could not be restored by bound flips.
    DualInfeasible,
    /// The dual simplex hit its pivot budget.
    Stalled,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PrimalEnd {
    Optimal,
    Unbounded,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DualEnd {
    /// Primal feasibility restored; finish with a primal phase-2 polish.
    Feasible,
    /// Dual unbounded ⇒ the (bound-edited) problem is primal infeasible.
    Infeasible,
}

/// What an optimal solve leaves for a warm re-solve of the same model: the
/// optimal basis, its inverse and the reduced cost of every nonbasic
/// column that the final pricing pass priced. Columns fixed by their
/// bounds are never priced, so their entries may be stale; bounds only
/// tighten within one branch-and-bound search, so they stay fixed.
#[derive(Debug)]
pub(crate) struct NodeState {
    pub basis: Basis,
    inverse: BasisInverse,
    reduced: Vec<f64>,
}

/// Where a warm solve starts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WarmStart<'s> {
    /// Basis indices from an earlier solve, possibly of an edited problem:
    /// inverted from the current coefficients and priced on install.
    Basis(&'s Basis),
    /// A state left by an earlier solve over the same model, installed as
    /// it stands.
    State(&'s NodeState),
}

/// An LP outcome, the solve's counters, and (for an optimum) the state a
/// warm re-solve can start from.
pub(crate) type Solved = (LpOutcome, LpStats, Option<NodeState>);

pub(crate) struct Engine<'a> {
    model: &'a SparseModel,
    n: usize,
    lower: Vec<f64>,
    upper: Vec<f64>,
    cost: Vec<f64>,
    state: Vec<NonBasicState>,
    in_basis: Vec<bool>,
    basis: Vec<usize>,
    barred: Vec<bool>,
    xb: Vec<f64>,
    inverse: BasisInverse,
    /// Reduced costs `d_j = c_j − yᵀa_j` of the columns that take part in
    /// pricing, as of the last pricing pass or dual pivot.
    reduced: Vec<f64>,
    degenerate_streak: u32,
    iterations: u64,
    max_iters: u64,
    pub stats: LpStats,
}

impl<'a> Engine<'a> {
    /// Shared setup: effective bounds for every augmented column (slack
    /// bounds from the row comparison; artificial bounds are set by the
    /// caller), all columns nonbasic at their lower bound, an empty
    /// placeholder inverse.
    fn scaffold(model: &'a SparseModel, var_bounds: &dyn Fn(usize) -> (f64, f64)) -> Self {
        let (nv, m) = (model.nv, model.m);
        let n = model.n();
        let mut lower = vec![0.0; n];
        let mut upper = vec![f64::INFINITY; n];
        for j in 0..nv {
            let (l, u) = var_bounds(j);
            lower[j] = l;
            upper[j] = u;
        }
        // Slacks: `≤`/`≥` rows get [0, ∞) (the sign lives in the column),
        // `=` rows a slack fixed at zero.
        for r in 0..m {
            if model.row_cmp[r] == crate::problem::Cmp::Eq {
                upper[nv + r] = 0.0;
            }
        }
        let max_iters = (200 * (m + n) as u64).max(20_000);
        Self {
            model,
            n,
            lower,
            upper,
            cost: vec![0.0; n],
            state: vec![NonBasicState::AtLower; n],
            in_basis: vec![false; n],
            basis: Vec::new(),
            barred: vec![false; n],
            xb: Vec::new(),
            inverse: BasisInverse::identity(0),
            reduced: vec![0.0; n],
            degenerate_streak: 0,
            iterations: 0,
            max_iters,
            stats: LpStats::default(),
        }
    }

    fn value_of(&self, j: usize) -> f64 {
        match self.state[j] {
            NonBasicState::AtLower => self.lower[j],
            NonBasicState::AtUpper => self.upper[j],
        }
    }

    /// Rebuilds the inverse from the current basis columns and recomputes
    /// the basic values from scratch.
    fn refactor(&mut self) -> Result<(), SolveError> {
        let m = self.model.m;
        let mut a = vec![0.0; m * m];
        for (i, &j) in self.basis.iter().enumerate() {
            for (r, v) in self.model.col(j) {
                a[i * m + r] = v;
            }
        }
        match BasisInverse::invert(m, a) {
            Some(inverse) => {
                self.inverse = inverse;
                self.stats.refactorizations += 1;
                self.recompute_xb();
                Ok(())
            }
            None => Err(SolveError::Numerical("singular basis".into())),
        }
    }

    /// `x_B = B⁻¹ (b − N·x_N)`.
    fn recompute_xb(&mut self) {
        let mut rhs = self.model.rhs.clone();
        for j in 0..self.n {
            if self.in_basis[j] {
                continue;
            }
            let xv = self.value_of(j);
            if xv != 0.0 {
                for (r, a) in self.model.col(j) {
                    rhs[r] -= a * xv;
                }
            }
        }
        self.inverse.ftran(&mut rhs);
        self.xb = rhs;
    }

    /// Simplex multipliers for the current costs: `y = B⁻ᵀ c_B`.
    fn multipliers(&self) -> Vec<f64> {
        let mut y: Vec<f64> = self.basis.iter().map(|&j| self.cost[j]).collect();
        self.inverse.btran(&mut y);
        y
    }

    /// Whether nonbasic column `j` takes part in pricing: neither barred
    /// nor fixed by its bounds.
    fn priced(&self, j: usize) -> bool {
        !self.in_basis[j] && !self.barred[j] && self.upper[j] - self.lower[j] > FEAS_TOL
    }

    /// Prices every nonbasic column from fresh multipliers.
    fn price(&mut self) {
        let y = self.multipliers();
        for j in 0..self.n {
            if self.priced(j) {
                self.reduced[j] = self.cost[j] - self.model.dot_col(&y, j);
            }
        }
    }

    /// `w = B⁻¹ a_j`.
    fn ftran_col(&self, j: usize) -> Vec<f64> {
        self.inverse.ftran_sparse(self.model.col(j))
    }

    fn record_update(&mut self, r: usize, w: &[f64]) -> Result<(), SolveError> {
        if !self.inverse.push_update(r, w) {
            return Err(SolveError::Numerical("degenerate basis update".into()));
        }
        if self.inverse.updates() >= REFACTOR_INTERVAL {
            self.refactor()?;
        }
        Ok(())
    }

    fn spend_iteration(&mut self) -> Result<(), SolveError> {
        self.iterations += 1;
        if self.iterations > self.max_iters {
            return Err(SolveError::IterationLimit(self.max_iters));
        }
        Ok(())
    }

    /// Bounded-variable primal simplex on the current cost vector.
    fn primal(&mut self) -> Result<PrimalEnd, SolveError> {
        loop {
            let bland = self.degenerate_streak >= DEGENERATE_STREAK;
            let y = self.multipliers();
            // Pricing: Dantzig's rule (largest |d_j|), Bland's (lowest
            // index) once degeneracy persists.
            let mut entering: Option<(usize, f64, f64)> = None; // (col, d, score)
            for j in 0..self.n {
                if !self.priced(j) {
                    continue;
                }
                let d = self.cost[j] - self.model.dot_col(&y, j);
                self.reduced[j] = d;
                let improving = match self.state[j] {
                    NonBasicState::AtLower => d < -COST_TOL,
                    NonBasicState::AtUpper => d > COST_TOL,
                };
                if improving {
                    if bland {
                        entering = Some((j, d, d.abs()));
                        break;
                    }
                    if entering.is_none_or(|(_, _, s)| d.abs() > s) {
                        entering = Some((j, d, d.abs()));
                    }
                }
            }
            let Some((e, _, _)) = entering else {
                return Ok(PrimalEnd::Optimal);
            };
            let w = self.ftran_col(e);
            let dir = match self.state[e] {
                NonBasicState::AtLower => 1.0,
                NonBasicState::AtUpper => -1.0,
            };
            // Ratio test: θ is how far the entering variable travels.
            let mut theta = self.upper[e] - self.lower[e]; // bound-flip limit
            let mut leaving: Option<(usize, bool)> = None; // (row, hits_upper)
            for (r, &alpha) in w.iter().enumerate() {
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                let delta = -dir * alpha;
                let b = self.basis[r];
                let limit = if delta < 0.0 {
                    if self.lower[b].is_infinite() {
                        continue;
                    }
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
                return Ok(PrimalEnd::Unbounded);
            }
            self.spend_iteration()?;
            if theta <= PIVOT_TOL {
                self.degenerate_streak += 1;
            } else {
                self.degenerate_streak = 0;
            }
            let step = dir * theta;
            match leaving {
                None => {
                    // Pure bound flip of the entering variable.
                    for (r, &alpha) in w.iter().enumerate() {
                        if alpha != 0.0 {
                            self.xb[r] -= alpha * step;
                        }
                    }
                    self.state[e] = match self.state[e] {
                        NonBasicState::AtLower => NonBasicState::AtUpper,
                        NonBasicState::AtUpper => NonBasicState::AtLower,
                    };
                    self.stats.bound_flips += 1;
                }
                Some((r, hits_upper)) => {
                    let new_val = self.value_of(e) + step;
                    for (i, &alpha) in w.iter().enumerate() {
                        if alpha != 0.0 {
                            self.xb[i] -= alpha * step;
                        }
                    }
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
                    self.stats.primal_pivots += 1;
                    self.record_update(r, &w)?;
                }
            }
        }
    }

    /// Bounded-variable dual simplex: restores primal feasibility while
    /// keeping reduced costs dual feasible. Requires the caller to have
    /// repaired dual feasibility first. Each pivot updates the reduced
    /// costs along its pivot row instead of re-pricing.
    fn dual(&mut self) -> Result<DualEnd, SolveError> {
        let mut row: Vec<(usize, f64)> = Vec::new(); // (col, α_rj) of priced columns
        loop {
            // Leaving row: largest bound violation among basic variables.
            let mut leave: Option<(usize, f64, f64, bool)> = None; // (row, viol, target, below)
            for (r, &b) in self.basis.iter().enumerate() {
                if self.xb[r] < self.lower[b] - PRIMAL_TOL {
                    let viol = self.lower[b] - self.xb[r];
                    if leave.is_none_or(|(_, v, _, _)| viol > v) {
                        leave = Some((r, viol, self.lower[b], true));
                    }
                } else if self.xb[r] > self.upper[b] + PRIMAL_TOL {
                    let viol = self.xb[r] - self.upper[b];
                    if leave.is_none_or(|(_, v, _, _)| viol > v) {
                        leave = Some((r, viol, self.upper[b], false));
                    }
                }
            }
            let Some((r, _, target, below)) = leave else {
                return Ok(DualEnd::Feasible);
            };
            self.spend_iteration()?;
            let rho = self.inverse.row(r);
            // Dual ratio test: entering column minimizing |d_j| / |α_j|
            // among columns whose pivot restores this row's feasibility.
            let mut entering: Option<(usize, f64, f64)> = None; // (col, ratio, alpha)
            row.clear();
            for j in 0..self.n {
                if !self.priced(j) {
                    continue;
                }
                let alpha = self.model.dot_col(&rho, j);
                if alpha != 0.0 {
                    row.push((j, alpha));
                }
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                let eligible = if below {
                    match self.state[j] {
                        NonBasicState::AtLower => alpha < 0.0,
                        NonBasicState::AtUpper => alpha > 0.0,
                    }
                } else {
                    match self.state[j] {
                        NonBasicState::AtLower => alpha > 0.0,
                        NonBasicState::AtUpper => alpha < 0.0,
                    }
                };
                if !eligible {
                    continue;
                }
                let ratio = self.reduced[j].abs() / alpha.abs();
                let better = match entering {
                    None => true,
                    Some((_, br, ba)) => {
                        ratio < br - 1e-12
                            || ((ratio - br).abs() <= 1e-12 && alpha.abs() > ba.abs())
                    }
                };
                if better {
                    entering = Some((j, ratio, alpha));
                }
            }
            let Some((e, _, alpha_re)) = entering else {
                // Dual unbounded: no column can absorb the violation.
                return Ok(DualEnd::Infeasible);
            };
            // The multipliers move by θ_d·ρ_r, θ_d = d_e/α_re: every
            // reduced cost drops by θ_d·α_rj, which zeroes d_e and leaves
            // the leaving column at −θ_d.
            let theta_d = self.reduced[e] / alpha_re;
            for &(j, alpha) in &row {
                self.reduced[j] -= theta_d * alpha;
            }
            self.reduced[e] = 0.0;
            self.reduced[self.basis[r]] = -theta_d;
            let w = self.ftran_col(e);
            let alpha_e = w[r];
            if alpha_e.abs() <= PIVOT_TOL {
                return Err(SolveError::Numerical(
                    "dual pivot column inconsistent with row".into(),
                ));
            }
            // Δx_B[r] = target − x_B[r]; ∂x_B[r]/∂x_e = −α_e.
            let delta_e = (target - self.xb[r]) / -alpha_e;
            let entering_val = self.value_of(e) + delta_e;
            for (i, &alpha) in w.iter().enumerate() {
                if alpha != 0.0 {
                    self.xb[i] -= alpha * delta_e;
                }
            }
            let leaving = self.basis[r];
            self.state[leaving] = if below {
                NonBasicState::AtLower
            } else {
                NonBasicState::AtUpper
            };
            self.in_basis[leaving] = false;
            self.basis[r] = e;
            self.in_basis[e] = true;
            self.xb[r] = entering_val;
            self.stats.dual_pivots += 1;
            self.record_update(r, &w)?;
        }
    }

    /// Largest bound violation over basic variables.
    fn primal_infeasibility(&self) -> f64 {
        let mut worst = 0.0f64;
        for (r, &b) in self.basis.iter().enumerate() {
            worst = worst
                .max(self.lower[b] - self.xb[r])
                .max(self.xb[r] - self.upper[b]);
        }
        worst
    }

    /// Loads the phase-2 cost vector (problem objective in minimize form).
    fn load_objective(&mut self, problem: &Problem) {
        let sign = match problem.sense() {
            ObjectiveSense::Minimize => 1.0,
            ObjectiveSense::Maximize => -1.0,
        };
        self.cost.iter_mut().for_each(|c| *c = 0.0);
        for &(v, coef) in problem.objective.terms() {
            self.cost[v.index()] += sign * coef;
        }
    }

    /// Pins every artificial column to zero and bars it from entering.
    fn pin_artificials(&mut self) {
        let art0 = self.model.nv + self.model.m;
        for a in art0..self.n {
            self.lower[a] = 0.0;
            self.upper[a] = 0.0;
            self.barred[a] = true;
            if !self.in_basis[a] {
                self.state[a] = NonBasicState::AtLower;
            }
        }
    }

    /// The optimum: the structural values, and the state a warm re-solve
    /// can start from.
    fn extract(
        self,
        problem: &Problem,
        var_bounds: &dyn Fn(usize) -> (f64, f64),
    ) -> (LpSolution, NodeState) {
        let nv = self.model.nv;
        let mut values = vec![0.0; nv];
        for (j, val) in values.iter_mut().enumerate() {
            *val = self.value_of(j);
        }
        for (r, &b) in self.basis.iter().enumerate() {
            if b < nv {
                values[b] = self.xb[r];
            }
        }
        // Clamp tiny bound violations from floating-point drift.
        for (j, val) in values.iter_mut().enumerate() {
            let (l, u) = var_bounds(j);
            *val = val.max(l).min(u);
        }
        let objective = problem.objective_value(&values);
        let solution = LpSolution {
            values,
            objective,
            basis: None,
        };
        let state = NodeState {
            basis: Basis {
                basic: self.basis,
                state: self.state,
            },
            inverse: self.inverse,
            reduced: self.reduced,
        };
        (solution, state)
    }

    /// Packages the end of a solve whose last primal pass returned `end`.
    fn finish(
        self,
        end: PrimalEnd,
        problem: &Problem,
        var_bounds: &dyn Fn(usize) -> (f64, f64),
    ) -> Solved {
        let stats = self.stats;
        match end {
            PrimalEnd::Optimal => {
                let (solution, state) = self.extract(problem, var_bounds);
                (LpOutcome::Optimal(solution), stats, Some(state))
            }
            PrimalEnd::Unbounded => (LpOutcome::Unbounded, stats, None),
        }
    }

    /// Cold two-phase solve.
    pub fn solve_cold(
        problem: &Problem,
        model: &'a SparseModel,
        var_bounds: &dyn Fn(usize) -> (f64, f64),
    ) -> Result<Solved, SolveError> {
        let (nv, m) = (model.nv, model.m);
        let mut eng = Self::scaffold(model, var_bounds);

        // Artificial basis: residual of each row with every non-artificial
        // column at its initial value; the artificial absorbs it from
        // whichever side keeps phase 1 a minimization toward zero.
        let mut residual = model.rhs.clone();
        for j in 0..nv + m {
            let xv = eng.value_of(j);
            if xv != 0.0 {
                for (r, a) in model.col(j) {
                    residual[r] -= a * xv;
                }
            }
        }
        let mut phase1_cost = vec![0.0; eng.n];
        for (r, &res) in residual.iter().enumerate() {
            let art = nv + m + r;
            if res >= 0.0 {
                eng.lower[art] = 0.0;
                eng.upper[art] = f64::INFINITY;
                phase1_cost[art] = 1.0;
            } else {
                eng.lower[art] = f64::NEG_INFINITY;
                eng.upper[art] = 0.0;
                phase1_cost[art] = -1.0;
            }
            eng.basis.push(art);
            eng.in_basis[art] = true;
        }
        eng.xb = residual;
        // B is the identity over the artificial columns.
        eng.inverse = BasisInverse::identity(m);

        if m > 0 {
            let _phase1_span = tel::span!(tel::Category::Solver, "lp.phase1", "rows" => m as u64);
            eng.cost.copy_from_slice(&phase1_cost);
            match eng.primal()? {
                PrimalEnd::Optimal => {}
                PrimalEnd::Unbounded => {
                    // Phase 1 is bounded below by zero by construction.
                    return Err(SolveError::Numerical("phase-1 unbounded".into()));
                }
            }
            let infeas: f64 = eng
                .basis
                .iter()
                .enumerate()
                .filter(|(_, &b)| b >= nv + m)
                .map(|(r, &b)| phase1_cost[b] * eng.xb[r])
                .sum();
            if infeas > 1e-6 {
                return Ok((LpOutcome::Infeasible, eng.stats, None));
            }
            eng.pin_artificials();
        }

        eng.load_objective(problem);
        eng.degenerate_streak = 0;
        let end = {
            let _phase2_span = tel::span!(tel::Category::Solver, "lp.phase2", "rows" => m as u64);
            eng.primal()?
        };
        Ok(eng.finish(end, problem, var_bounds))
    }

    /// Warm solve from `warm`; `Err(WarmFail)` asks the caller to fall back
    /// to a cold solve.
    pub fn solve_warm(
        problem: &Problem,
        model: &'a SparseModel,
        var_bounds: &dyn Fn(usize) -> (f64, f64),
        warm: WarmStart<'_>,
    ) -> Result<Solved, WarmFail> {
        let (m, n) = (model.m, model.n());
        let basis = match warm {
            WarmStart::Basis(basis) => basis,
            WarmStart::State(state) => &state.basis,
        };
        if !basis.fits(m, n) {
            return Err(WarmFail::NotInstallable);
        }
        let _warm_span = tel::span!(tel::Category::Solver, "lp.warm", "rows" => m as u64);
        let mut eng = Self::scaffold(model, var_bounds);
        eng.stats.warm_attempted = true;
        eng.basis = basis.basic.clone();
        for &j in &eng.basis {
            if eng.in_basis[j] {
                return Err(WarmFail::NotInstallable); // duplicate column
            }
            eng.in_basis[j] = true;
        }
        // Artificials stay pinned to zero in every warm solve (phase 1 is
        // never replayed); a basic artificial at value zero is legal.
        eng.pin_artificials();
        // Restore rest states, repairing any that no longer fit the
        // current bounds.
        for j in 0..n {
            if eng.in_basis[j] {
                continue;
            }
            eng.state[j] = match basis.state[j] {
                NonBasicState::AtUpper if eng.upper[j].is_finite() => NonBasicState::AtUpper,
                _ => NonBasicState::AtLower,
            };
        }
        eng.load_objective(problem);
        match warm {
            WarmStart::Basis(_) => {
                // The coefficients may have changed since the basis was
                // optimal: invert and price it afresh.
                if eng.refactor().is_err() {
                    return Err(WarmFail::NotInstallable);
                }
                eng.stats.refactorizations = 0; // installation is not a re-factor
                eng.price();
            }
            WarmStart::State(state) => {
                eng.inverse = state.inverse.clone();
                eng.reduced.copy_from_slice(&state.reduced);
                eng.recompute_xb();
            }
        }

        if eng.primal_infeasibility() > PRIMAL_TOL {
            // Repair dual feasibility by flipping nonbasic variables whose
            // reduced cost points past their current bound, then let the
            // dual simplex chase out the primal violations.
            let mut flipped = false;
            for j in 0..eng.n {
                if !eng.priced(j) {
                    continue;
                }
                let d = eng.reduced[j];
                match eng.state[j] {
                    NonBasicState::AtLower if d < -COST_TOL => {
                        if eng.upper[j].is_finite() {
                            eng.state[j] = NonBasicState::AtUpper;
                            flipped = true;
                        } else {
                            return Err(WarmFail::DualInfeasible);
                        }
                    }
                    NonBasicState::AtUpper if d > COST_TOL => {
                        eng.state[j] = NonBasicState::AtLower;
                        flipped = true;
                    }
                    _ => {}
                }
            }
            if flipped {
                eng.recompute_xb();
            }
            if eng.primal_infeasibility() > PRIMAL_TOL {
                match eng.dual() {
                    Ok(DualEnd::Feasible) => {}
                    Ok(DualEnd::Infeasible) => {
                        eng.stats.warm_used = true;
                        return Ok((LpOutcome::Infeasible, eng.stats, None));
                    }
                    Err(_) => return Err(WarmFail::Stalled),
                }
            }
        }
        // Primal phase-2 polish: verifies optimality on fresh multipliers
        // (or finishes the few remaining pivots when only the objective
        // moved), leaving fresh reduced costs for the next warm start.
        eng.degenerate_streak = 0;
        let end = eng.primal().map_err(|_| WarmFail::Stalled)?;
        eng.stats.warm_used = true;
        Ok(eng.finish(end, problem, var_bounds))
    }
}
