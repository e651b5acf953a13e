//! LP entry points: warm starts and solve statistics.
//!
//! Every relaxation runs on one engine, the sparse revised simplex in
//! [`crate::revised`]: bounded variables, sparse columns, and an explicit
//! basis inverse updated in place at each pivot and rebuilt periodically.
//! A cold solve runs phase 1 then phase 2. A warm solve installs a
//! [`Basis`] from a previous solution, and the bounded dual simplex
//! repairs primal feasibility after RHS, bound, or coefficient edits
//! instead of re-running phase 1. (Unit tests check it against the dense
//! tableau in [`crate::dense`], which is compiled for tests only.)
//!
//! [`solve_lp`] keeps the original cold-start signature; [`solve_lp_opts`]
//! exposes warm starts and per-solve [`LpStats`].

use crate::basis::Basis;
use crate::error::SolveError;
use crate::problem::Problem;
use crate::revised::{Engine, Solved, WarmStart};
use crate::sparse::{BuildOutcome, SparseModel};
use crate::FEAS_TOL;

/// Options for [`solve_lp_opts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LpOptions<'a> {
    /// Per-variable `(lower, upper)` overrides (used by branch and bound).
    pub bound_overrides: Option<&'a [(f64, f64)]>,
    /// Basis from a previous solve of the same-shaped problem to warm
    /// start from. Silently dropped when it no longer fits.
    pub warm_basis: Option<&'a Basis>,
}

/// Counters describing one LP solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Primal simplex basis changes.
    pub primal_pivots: u64,
    /// Dual simplex basis changes (warm re-solves only).
    pub dual_pivots: u64,
    /// Nonbasic bound flips.
    pub bound_flips: u64,
    /// Rebuilds of the basis inverse from the basis columns (beyond the
    /// one that installs a basis).
    pub refactorizations: u64,
    /// A warm basis was supplied and installation was attempted.
    pub warm_attempted: bool,
    /// The warm basis carried the solve to completion (no cold fallback).
    pub warm_used: bool,
}

impl LpStats {
    /// Total basis changes across both simplex variants.
    pub fn pivots(&self) -> u64 {
        self.primal_pivots + self.dual_pivots
    }
}

/// Result of solving a linear program.
#[derive(Debug, Clone)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal(LpSolution),
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

impl LpOutcome {
    /// The solution if the outcome is [`LpOutcome::Optimal`].
    pub fn optimal(&self) -> Option<&LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// An optimal solution to a linear program.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Values of the structural variables, indexed by [`crate::VarId::index`]
    /// position.
    pub values: Vec<f64>,
    /// Objective value in the problem's own sense (including the
    /// objective's constant term).
    pub objective: f64,
    /// The optimal basis, reusable via [`LpOptions::warm_basis`].
    pub(crate) basis: Option<Basis>,
}

impl LpSolution {
    /// The optimal basis (`None` once taken with
    /// [`LpSolution::take_basis`]). Feed it back through
    /// [`LpOptions::warm_basis`] (or
    /// [`MilpSolver::root_basis`](crate::MilpSolver::root_basis)) after
    /// mutating the problem's RHS, bounds, or coefficients to re-solve
    /// incrementally.
    pub fn basis(&self) -> Option<&Basis> {
        self.basis.as_ref()
    }

    /// Extracts the basis, leaving `None` behind.
    pub fn take_basis(&mut self) -> Option<Basis> {
        self.basis.take()
    }
}

/// Solves the linear relaxation of `problem`, optionally overriding
/// variable bounds (used by branch and bound). Always a cold start; see
/// [`solve_lp_opts`] for warm starts.
///
/// Integer/binary kinds are ignored — every variable is relaxed to its
/// (possibly overridden) continuous range.
///
/// # Errors
///
/// Returns [`SolveError::IterationLimit`] if the simplex fails to converge
/// within a generous pivot budget (a symptom of numerical trouble), and
/// [`SolveError::BoundMismatch`] if `bound_overrides` has the wrong length.
///
/// # Example
///
/// ```
/// use flexsp_milp::{solve_lp, LinExpr, LpOutcome, Problem, VarKind};
/// # fn main() -> Result<(), flexsp_milp::SolveError> {
/// let mut p = Problem::maximize();
/// let x = p.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
/// let y = p.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
/// p.add_le(LinExpr::from_terms([(x, 1.0), (y, 2.0)]), 14.0);
/// p.add_ge(LinExpr::from_terms([(x, 3.0), (y, -1.0)]), 0.0);
/// p.add_le(LinExpr::from_terms([(x, 1.0), (y, -1.0)]), 2.0);
/// p.set_objective(LinExpr::from_terms([(x, 3.0), (y, 4.0)]));
/// let out = solve_lp(&p, None)?;
/// let sol = out.optimal().expect("feasible");
/// assert!((sol.objective - 34.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn solve_lp(
    problem: &Problem,
    bound_overrides: Option<&[(f64, f64)]>,
) -> Result<LpOutcome, SolveError> {
    solve_lp_opts(
        problem,
        &LpOptions {
            bound_overrides,
            warm_basis: None,
        },
    )
    .map(|(outcome, _)| outcome)
}

/// Solves the linear relaxation with bound overrides and warm-basis
/// reuse, returning per-solve [`LpStats`].
///
/// A warm basis that cannot be installed (shape mismatch, singular after
/// coefficient edits) or whose dual repair stalls is dropped and the
/// solve silently restarts cold — `stats.warm_attempted` and
/// `stats.warm_used` report what actually happened.
///
/// # Errors
///
/// Same conditions as [`solve_lp`].
pub fn solve_lp_opts(
    problem: &Problem,
    opts: &LpOptions<'_>,
) -> Result<(LpOutcome, LpStats), SolveError> {
    let Some(bound) = checked_bounds(problem, opts.bound_overrides)? else {
        return Ok((LpOutcome::Infeasible, LpStats::default()));
    };
    match SparseModel::build(problem) {
        BuildOutcome::Model(model) => {
            let warm = opts.warm_basis.map(WarmStart::Basis);
            let (mut outcome, stats, state) = run_engine(problem, &model, &bound, warm)?;
            if let (LpOutcome::Optimal(sol), Some(state)) = (&mut outcome, state) {
                sol.basis = Some(state.basis);
            }
            Ok((outcome, stats))
        }
        BuildOutcome::TriviallyInfeasible => Ok((LpOutcome::Infeasible, LpStats::default())),
    }
}

/// Solves the relaxation of `problem` under `bounds` over a `model`
/// already built from it, warm from `warm` when given, and returns the
/// optimum's state for warm re-solves next to the outcome (the
/// solution's own [`LpSolution::basis`] stays empty). Branch and bound
/// builds the model once per MILP solve and shares it across the root and
/// every node relaxation; the problem must not change in between.
pub(crate) fn solve_lp_model(
    problem: &Problem,
    model: &SparseModel,
    bounds: &[(f64, f64)],
    warm: Option<WarmStart<'_>>,
) -> Result<Solved, SolveError> {
    let Some(bound) = checked_bounds(problem, Some(bounds))? else {
        return Ok((LpOutcome::Infeasible, LpStats::default(), None));
    };
    run_engine(problem, model, &bound, warm)
}

/// The effective bound of each variable, or `None` when some range is
/// empty (the LP is infeasible without solving it).
fn checked_bounds<'a>(
    problem: &'a Problem,
    overrides: Option<&'a [(f64, f64)]>,
) -> Result<Option<impl Fn(usize) -> (f64, f64) + 'a>, SolveError> {
    let nv = problem.num_vars();
    if let Some(b) = overrides {
        if b.len() != nv {
            return Err(SolveError::BoundMismatch {
                expected: nv,
                got: b.len(),
            });
        }
    }
    let bound = move |j: usize| -> (f64, f64) {
        match overrides {
            Some(b) => b[j],
            None => {
                let d = &problem.vars[j];
                (d.lower, d.upper)
            }
        }
    };
    let empty = (0..nv).any(|j| {
        let (l, u) = bound(j);
        l > u + FEAS_TOL
    });
    Ok((!empty).then_some(bound))
}

/// Runs the engine warm from `warm` when given, falling back to a cold
/// solve when the warm start cannot carry the solve.
fn run_engine(
    problem: &Problem,
    model: &SparseModel,
    bound: &dyn Fn(usize) -> (f64, f64),
    warm: Option<WarmStart<'_>>,
) -> Result<Solved, SolveError> {
    if let Some(warm) = warm {
        match Engine::solve_warm(problem, model, bound, warm) {
            Ok(result) => return Ok(result),
            Err(_) => {
                // Fall through to a cold solve, remembering the miss.
                let (outcome, mut stats, state) = Engine::solve_cold(problem, model, bound)?;
                stats.warm_attempted = true;
                stats.warm_used = false;
                return Ok((outcome, stats, state));
            }
        }
    }
    Engine::solve_cold(problem, model, bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, VarKind};
    use proptest::prelude::*;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// Solves with the sparse engine and the dense tableau oracle, asserts
    /// they agree, and returns the sparse result.
    fn solve_both(p: &Problem) -> LpOutcome {
        let sparse = solve_lp(p, None).unwrap();
        let dense = crate::dense::solve_dense(p, None).unwrap();
        match (&sparse, &dense) {
            (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) => approx(a.objective, b.objective),
            (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
            (LpOutcome::Unbounded, LpOutcome::Unbounded) => {}
            other => panic!("engines disagree: {other:?}"),
        }
        sparse
    }

    #[test]
    fn textbook_max_lp() {
        // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 → x=3, y=1.5, obj=21.
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        let y = p.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
        p.add_le(LinExpr::from_terms([(x, 6.0), (y, 4.0)]), 24.0);
        p.add_le(LinExpr::from_terms([(x, 1.0), (y, 2.0)]), 6.0);
        p.set_objective(LinExpr::from_terms([(x, 5.0), (y, 4.0)]));
        let sol = solve_both(&p);
        let s = sol.optimal().unwrap();
        approx(s.objective, 21.0);
        approx(s.values[0], 3.0);
        approx(s.values[1], 1.5);
    }

    #[test]
    fn equality_and_ge_rows() {
        // min x + y s.t. x + y = 10, x >= 3, y >= 2 → obj 10.
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        let y = p.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
        p.add_eq(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), 10.0);
        p.add_ge(LinExpr::term(x, 1.0), 3.0);
        p.add_ge(LinExpr::term(y, 1.0), 2.0);
        p.set_objective(LinExpr::from_terms([(x, 1.0), (y, 1.0)]));
        let sol = solve_both(&p);
        approx(sol.optimal().unwrap().objective, 10.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, 1.0);
        p.add_ge(LinExpr::term(x, 1.0), 5.0);
        p.set_objective(LinExpr::term(x, 1.0));
        assert!(matches!(solve_both(&p), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        p.set_objective(LinExpr::term(x, 1.0));
        assert!(matches!(solve_both(&p), LpOutcome::Unbounded));
    }

    #[test]
    fn respects_upper_bounds_without_rows() {
        // max x + y with x,y ∈ [0, 2] and x + y <= 3 → 3.
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, 2.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, 2.0);
        p.add_le(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), 3.0);
        p.set_objective(LinExpr::from_terms([(x, 1.0), (y, 1.0)]));
        let sol = solve_both(&p);
        approx(sol.optimal().unwrap().objective, 3.0);
    }

    #[test]
    fn bound_overrides_take_effect() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, 10.0);
        p.set_objective(LinExpr::term(x, 1.0));
        p.add_le(LinExpr::term(x, 1.0), 8.0);
        let sol = solve_lp(&p, Some(&[(0.0, 4.0)])).unwrap();
        approx(sol.optimal().unwrap().objective, 4.0);
    }

    #[test]
    fn nonzero_lower_bounds() {
        // min x + 2y, x ∈ [2, 5], y ∈ [1, 4], x + y >= 5 → x=4,y=1 → 6.
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 2.0, 5.0);
        let y = p.add_var("y", VarKind::Continuous, 1.0, 4.0);
        p.add_ge(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), 5.0);
        p.set_objective(LinExpr::from_terms([(x, 1.0), (y, 2.0)]));
        let sol = solve_both(&p);
        approx(sol.optimal().unwrap().objective, 6.0);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x with x ∈ [-5, 5], x >= -3 → -3.
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, -5.0, 5.0);
        p.add_ge(LinExpr::term(x, 1.0), -3.0);
        p.set_objective(LinExpr::term(x, 1.0));
        let sol = solve_both(&p);
        approx(sol.optimal().unwrap().objective, -3.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate construction; must not cycle.
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        let y = p.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
        let z = p.add_var("z", VarKind::Continuous, 0.0, f64::INFINITY);
        p.add_le(LinExpr::from_terms([(x, 0.5), (y, -5.5), (z, -2.5)]), 0.0);
        p.add_le(LinExpr::from_terms([(x, 0.5), (y, -1.5), (z, -0.5)]), 0.0);
        p.add_le(LinExpr::term(x, 1.0), 1.0);
        p.set_objective(LinExpr::from_terms([(x, 10.0), (y, -57.0), (z, -9.0)]));
        let sol = solve_both(&p);
        assert!(sol.optimal().is_some());
    }

    #[test]
    fn objective_constant_reported() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 1.0, 3.0);
        p.set_objective(LinExpr::term(x, 2.0) + 7.0);
        let sol = solve_both(&p);
        approx(sol.optimal().unwrap().objective, 9.0);
    }

    #[test]
    fn empty_problem_is_trivially_optimal() {
        let p = Problem::minimize();
        let sol = solve_both(&p);
        approx(sol.optimal().unwrap().objective, 0.0);
    }

    #[test]
    fn constant_constraint_infeasible() {
        let mut p = Problem::minimize();
        let _x = p.add_var("x", VarKind::Continuous, 0.0, 1.0);
        p.add_ge(LinExpr::new(), 1.0); // 0 >= 1
        assert!(matches!(solve_both(&p), LpOutcome::Infeasible));
    }

    #[test]
    fn warm_resolve_after_rhs_tightening() {
        // max 5x + 4y s.t. 6x + 4y <= b, x + 2y <= 6.
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
        let y = p.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY);
        p.add_le(LinExpr::from_terms([(x, 6.0), (y, 4.0)]), 24.0);
        p.add_le(LinExpr::from_terms([(x, 1.0), (y, 2.0)]), 6.0);
        p.set_objective(LinExpr::from_terms([(x, 5.0), (y, 4.0)]));
        let (out, _) = solve_lp_opts(&p, &LpOptions::default()).unwrap();
        let basis = out.optimal().unwrap().basis().unwrap().clone();

        p.set_rhs(0, 18.0); // tighten the first row
        let (warm, stats) = solve_lp_opts(
            &p,
            &LpOptions {
                warm_basis: Some(&basis),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(stats.warm_attempted && stats.warm_used, "{stats:?}");
        let (cold, _) = solve_lp_opts(&p, &LpOptions::default()).unwrap();
        approx(
            warm.optimal().unwrap().objective,
            cold.optimal().unwrap().objective,
        );
    }

    #[test]
    fn warm_resolve_detects_new_infeasibility() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, 1.0);
        p.add_ge(LinExpr::term(x, 1.0), 0.5);
        p.set_objective(LinExpr::term(x, 1.0));
        let (out, _) = solve_lp_opts(&p, &LpOptions::default()).unwrap();
        let basis = out.optimal().unwrap().basis().unwrap().clone();
        p.set_rhs(0, 5.0); // now impossible with x ≤ 1
        let (warm, _) = solve_lp_opts(
            &p,
            &LpOptions {
                warm_basis: Some(&basis),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(matches!(warm, LpOutcome::Infeasible));
    }

    #[test]
    fn mismatched_warm_basis_falls_back_cold() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, 3.0);
        p.add_le(LinExpr::term(x, 1.0), 2.0);
        p.set_objective(LinExpr::term(x, 1.0));
        let (out, _) = solve_lp_opts(&p, &LpOptions::default()).unwrap();
        let basis = out.optimal().unwrap().basis().unwrap().clone();

        // A different-shaped problem rejects the basis but still solves.
        let mut q = Problem::maximize();
        let a = q.add_var("a", VarKind::Continuous, 0.0, 1.0);
        let b = q.add_var("b", VarKind::Continuous, 0.0, 1.0);
        q.add_le(LinExpr::from_terms([(a, 1.0), (b, 1.0)]), 1.5);
        q.set_objective(LinExpr::from_terms([(a, 1.0), (b, 1.0)]));
        let (warm, stats) = solve_lp_opts(
            &q,
            &LpOptions {
                warm_basis: Some(&basis),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(stats.warm_attempted && !stats.warm_used);
        approx(warm.optimal().unwrap().objective, 1.5);
    }

    /// A small random bounded LP over continuous variables.
    #[derive(Debug, Clone)]
    struct RandomLp {
        upper: Vec<i32>,
        obj: Vec<i32>,
        maximize: bool,
        /// Each row: (coefficients, cmp: 0 = Le / 1 = Ge / 2 = Eq, rhs).
        rows: Vec<(Vec<i32>, u8, i32)>,
    }

    fn random_lp() -> impl Strategy<Value = RandomLp> {
        (2usize..=5).prop_flat_map(|n| {
            let upper = prop::collection::vec(1i32..=6, n);
            let obj = prop::collection::vec(-5i32..=5, n);
            let row = (prop::collection::vec(-4i32..=4, n), 0u8..=2, -8i32..=16);
            let rows = prop::collection::vec(row, 1..=4);
            (upper, obj, any::<bool>(), rows).prop_map(|(upper, obj, maximize, rows)| RandomLp {
                upper,
                obj,
                maximize,
                rows,
            })
        })
    }

    impl RandomLp {
        fn build(&self) -> Problem {
            let mut p = if self.maximize {
                Problem::maximize()
            } else {
                Problem::minimize()
            };
            let vars: Vec<_> = (self.upper.iter().enumerate())
                .map(|(i, &u)| p.add_var(format!("x{i}"), VarKind::Continuous, 0.0, u as f64))
                .collect();
            let expr = |coefs: &[i32]| {
                LinExpr::from_terms(vars.iter().copied().zip(coefs.iter().map(|&c| c as f64)))
            };
            for (coefs, cmp, rhs) in &self.rows {
                match cmp {
                    0 => p.add_le(expr(coefs), *rhs as f64),
                    1 => p.add_ge(expr(coefs), *rhs as f64),
                    _ => p.add_eq(expr(coefs), *rhs as f64),
                }
            }
            p.set_objective(expr(&self.obj));
            p
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The sparse revised engine and the dense tableau oracle must
        /// agree on outcome class and (for optimal LPs) on the objective,
        /// and both solutions must be feasible for the original problem.
        #[test]
        fn sparse_and_dense_engines_agree(lp in random_lp()) {
            let p = lp.build();
            let sparse = solve_lp(&p, None).unwrap();
            let dense = crate::dense::solve_dense(&p, None).unwrap();
            match (&sparse, &dense) {
                (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) => {
                    prop_assert!(
                        (a.objective - b.objective).abs() < 1e-5,
                        "sparse {} vs dense {}",
                        a.objective,
                        b.objective
                    );
                    prop_assert!(p.is_feasible(&a.values, 1e-6), "sparse solution infeasible");
                    prop_assert!(p.is_feasible(&b.values, 1e-6), "dense solution infeasible");
                }
                (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                (LpOutcome::Unbounded, LpOutcome::Unbounded) => {}
                other => {
                    return Err(TestCaseError::fail(format!("engines disagree: {other:?}")));
                }
            }
        }
    }
}
