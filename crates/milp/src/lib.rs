//! Linear and mixed-integer linear programming for the FlexSP parallelism
//! planner.
//! (Where this crate sits in the solve → place → execute pipeline is
//! described in `docs/ARCHITECTURE.md` at the repository root.)
//!
//! The FlexSP paper (ASPLOS 2025) formulates heterogeneous sequence-parallel
//! group selection and sequence assignment as a mixed-integer linear program
//! (MILP) and solves it with SCIP. This crate is a from-scratch replacement
//! for that dependency: a sparse revised simplex with bounded variables
//! for linear relaxations ([`solve_lp`]) and a sequential best-first
//! branch-and-bound loop with warm starts, a rounding heuristic and
//! node/gap limits ([`MilpSolver`]).
//!
//! The solver is deliberately engineered for the planner's regime —
//! problems with a few hundred rows and a few hundred to a couple of
//! thousand variables, solved under a node budget (the paper reports
//! 5–15 s per SCIP solve) where a good *feasible* plan matters more than
//! a proven optimum. No limit reads a clock, so a solve is a function of
//! its problem and options on every host.
//!
//! # Incremental solving: `Basis` and the mutation API
//!
//! The planner recovers its min-max makespan by binary-searching a scalar
//! `C` over a sequence of *nearly identical* feasibility MILPs: between
//! steps only `C`-dependent coefficients, bounds, and right-hand sides
//! move. Rather than rebuild the problem and re-run phase 1 at every step,
//! a caller edits the [`Problem`] in place and resumes from the previous
//! optimum:
//!
//! * **Mutation API** — [`Problem::set_rhs`], [`Problem::set_bounds`],
//!   [`Problem::set_objective_coef`], and [`Problem::set_constraint_coef`]
//!   edit numbers without changing the problem's shape.
//! * **[`Basis`]** — every [`LpSolution`] carries its optimal basis
//!   ([`LpSolution::basis`]); re-install it via
//!   [`LpOptions::warm_basis`] or [`MilpSolver::root_basis`] and the
//!   bounded *dual simplex* repairs primal feasibility in a handful of
//!   pivots instead of a cold two-phase solve. Branch and bound re-solves
//!   every child node the same way, but resumes from its parent's basis
//!   inverse and reduced costs as they stand, so a child neither inverts
//!   nor re-prices its basis before the dual simplex runs.
//! * **One model per MILP solve** — [`MilpSolver::solve`] builds the
//!   sparse constraint matrix once; the root and every node relaxation
//!   read it, since branching moves only variable bounds. A standalone
//!   [`solve_lp`] / [`solve_lp_opts`] call builds its own, so a
//!   [`Problem`] edited between calls is always read afresh.
//! * **One engine** — every relaxation runs on the revised simplex over
//!   sparse columns with an explicit dense basis inverse, updated in place
//!   at each pivot and rebuilt every 64 updates. A dense tableau is
//!   compiled into the unit tests only, as the oracle that property tests
//!   check the sparse engine against.
//!
//! Warm starts are best-effort by construction: a basis that no longer
//! fits (shape change, singular after edits, stalled dual) is dropped and
//! the solve silently restarts cold, so reuse never affects correctness —
//! only speed. [`SolveStats`] reports pivots, refactorizations, and
//! basis-reuse hits/misses so callers can verify reuse actually happens.
//!
//! # Branching order
//!
//! Every node branches on a fractional integer variable of the highest
//! [branching priority](Problem::set_branch_priority) present, the most
//! fractional among those, then the lowest index. Priorities default to
//! 0, so an unprioritized problem branches on the most fractional
//! variable. The planner's per-group model raises its group switches,
//! which fix a plan's structure, above the integer assignments that
//! fill it in, so a search settles the structure near the root before
//! it spends nodes on the assignment. (Its default aggregated model
//! needs no priorities: its group counts are its only integers.)
//! Priorities reorder the search only: they never change which points
//! are feasible or what a drained search proves optimal.
//!
//! # Example
//!
//! Maximize `3x + 2y` subject to `x + y <= 4`, `x + 3y <= 6` with integral
//! `x, y ∈ [0, 10]`:
//!
//! ```
//! use flexsp_milp::{LinExpr, MilpSolver, Problem, VarKind};
//!
//! # fn main() -> Result<(), flexsp_milp::SolveError> {
//! let mut p = Problem::maximize();
//! let x = p.add_var("x", VarKind::Integer, 0.0, 10.0);
//! let y = p.add_var("y", VarKind::Integer, 0.0, 10.0);
//! p.add_le(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), 4.0);
//! p.add_le(LinExpr::from_terms([(x, 1.0), (y, 3.0)]), 6.0);
//! p.set_objective(LinExpr::from_terms([(x, 3.0), (y, 2.0)]));
//!
//! let sol = MilpSolver::new().solve(&p)?;
//! assert_eq!(sol.value(x).round() as i64, 4);
//! assert_eq!(sol.value(y).round() as i64, 0);
//! assert!((sol.objective() - 12.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basis;
mod branch_bound;
#[cfg(test)]
mod dense;
mod error;
mod expr;
mod lu;
mod problem;
mod revised;
mod simplex;
mod solution;
mod sparse;

pub use basis::Basis;
pub use branch_bound::{MilpSolver, SolveStats};
pub use error::SolveError;
pub use expr::{LinExpr, VarId};
pub use problem::{Cmp, Constraint, ObjectiveSense, Problem, VarKind};
pub use simplex::{solve_lp, solve_lp_opts, LpOptions, LpOutcome, LpSolution, LpStats};
pub use solution::{MilpSolution, MilpStatus};

/// Feasibility tolerance used throughout the crate.
pub const FEAS_TOL: f64 = 1e-7;
/// Integrality tolerance: a value within this distance of an integer is
/// considered integral.
pub const INT_TOL: f64 = 1e-6;
