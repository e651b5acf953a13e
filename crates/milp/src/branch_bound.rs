//! Best-first branch and bound over the simplex relaxation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use flexsp_telemetry as tel;

use crate::basis::Basis;
use crate::error::SolveError;
use crate::problem::{ObjectiveSense, Problem, VarKind};
use crate::revised::{NodeState, WarmStart};
use crate::simplex::{solve_lp_model, LpOutcome, LpStats};
use crate::solution::{MilpSolution, MilpStatus};
use crate::sparse::{BuildOutcome, SparseModel};
use crate::{FEAS_TOL, INT_TOL};

/// Counters describing a branch-and-bound run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branch-and-bound nodes processed.
    pub nodes: u64,
    /// Linear relaxations solved: the root, one per node, and one per
    /// rounding-heuristic completion. A completion LP runs only when the
    /// problem has continuous variables.
    pub lp_solves: u64,
    /// Incumbents discovered by the fix-and-complete rounding heuristic.
    pub heuristic_incumbents: u64,
    /// Primal simplex pivots across all relaxations.
    pub primal_pivots: u64,
    /// Dual simplex pivots (warm re-solves) across all relaxations.
    pub dual_pivots: u64,
    /// Rebuilds of the basis inverse across all relaxations. A node's
    /// inverse carries its update count to its children, so the pivots of
    /// a whole branch-and-bound path count toward the next rebuild.
    pub refactorizations: u64,
    /// Relaxations completed from a reused (parent or caller) basis.
    pub basis_reuse_hits: u64,
    /// Relaxations where a supplied basis or carried state had to be
    /// dropped for a cold start.
    pub basis_reuse_misses: u64,
    /// Searches the node budget stopped before the gap closed or the heap
    /// drained. Such a search returns [`MilpStatus::Feasible`] with its
    /// best incumbent, or [`MilpStatus::Infeasible`] without proof when it
    /// found none. The budget counts nodes, not time, so this count is the
    /// same on every host.
    pub node_limit_stops: u64,
}

impl SolveStats {
    /// Total simplex pivots across both variants.
    pub fn pivots(&self) -> u64 {
        self.primal_pivots + self.dual_pivots
    }

    /// Fraction of relaxations that ran warm from a reused basis (0 when
    /// none attempted).
    pub fn basis_reuse_rate(&self) -> f64 {
        let attempts = self.basis_reuse_hits + self.basis_reuse_misses;
        if attempts == 0 {
            return 0.0;
        }
        self.basis_reuse_hits as f64 / attempts as f64
    }

    /// Accumulates `other` into `self` (used when aggregating across
    /// binary-search steps or micro-batches).
    pub fn absorb(&mut self, other: &SolveStats) {
        self.nodes += other.nodes;
        self.lp_solves += other.lp_solves;
        self.heuristic_incumbents += other.heuristic_incumbents;
        self.primal_pivots += other.primal_pivots;
        self.dual_pivots += other.dual_pivots;
        self.refactorizations += other.refactorizations;
        self.basis_reuse_hits += other.basis_reuse_hits;
        self.basis_reuse_misses += other.basis_reuse_misses;
        self.node_limit_stops += other.node_limit_stops;
    }

    fn absorb_lp(&mut self, lp: &LpStats) {
        self.primal_pivots += lp.primal_pivots;
        self.dual_pivots += lp.dual_pivots;
        self.refactorizations += lp.refactorizations;
        if lp.warm_attempted {
            if lp.warm_used {
                self.basis_reuse_hits += 1;
            } else {
                self.basis_reuse_misses += 1;
            }
        }
    }
}

/// Configurable branch-and-bound MILP solver.
///
/// The solver is a *good-incumbent-fast* design matching how the FlexSP
/// paper uses SCIP: it accepts a warm-start incumbent, hunts for feasible
/// solutions with a fix-and-complete rounding heuristic, and stops at a
/// node or relative-gap limit, reporting [`MilpStatus::Feasible`] when
/// optimality was not proven. The heuristic rounds the integer variables
/// of each fractional node's LP point and fixes them; if continuous
/// variables remain, one more LP completes them, otherwise the rounded
/// point is the candidate as it stands. [`SolveStats::node_limit_stops`]
/// counts the searches the node budget stopped.
///
/// No limit reads a clock: the node budget bounds the search and the
/// simplex's pivot limit bounds each relaxation, so the result depends on
/// the problem and the options alone, never on how fast the host runs.
///
/// # Example
///
/// ```
/// use flexsp_milp::{LinExpr, MilpSolver, Problem, VarKind};
/// # fn main() -> Result<(), flexsp_milp::SolveError> {
/// // 0/1 knapsack: max 10a + 13b + 7c, 5a + 7b + 4c <= 9.
/// let mut p = Problem::maximize();
/// let a = p.add_binary("a");
/// let b = p.add_binary("b");
/// let c = p.add_binary("c");
/// p.add_le(LinExpr::from_terms([(a, 5.0), (b, 7.0), (c, 4.0)]), 9.0);
/// p.set_objective(LinExpr::from_terms([(a, 10.0), (b, 13.0), (c, 7.0)]));
/// let sol = MilpSolver::new().node_limit(1_000).solve(&p)?;
/// assert!((sol.objective() - 17.0).abs() < 1e-6); // a + c
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MilpSolver {
    node_limit: u64,
    relative_gap: f64,
    warm_start: Option<Vec<f64>>,
    root_basis: Option<Basis>,
}

impl Default for MilpSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl MilpSolver {
    /// Creates a solver with defaults: 200 000 nodes, 10⁻⁶ relative gap.
    pub fn new() -> Self {
        Self {
            node_limit: 200_000,
            relative_gap: 1e-6,
            warm_start: None,
            root_basis: None,
        }
    }

    /// Sets the node budget: the search expands at most this many nodes,
    /// then returns its best incumbent with [`MilpStatus::Feasible`], or
    /// [`MilpStatus::Infeasible`] if it found none.
    pub fn node_limit(mut self, limit: u64) -> Self {
        self.node_limit = limit;
        self
    }

    /// Sets the relative optimality gap at which the search stops and the
    /// incumbent is declared [`MilpStatus::Optimal`].
    pub fn relative_gap(mut self, gap: f64) -> Self {
        self.relative_gap = gap.max(0.0);
        self
    }

    /// Supplies a known feasible assignment (full variable vector) used as
    /// the initial incumbent. Invalid warm starts are silently ignored.
    pub fn warm_start(mut self, values: Vec<f64>) -> Self {
        self.warm_start = Some(values);
        self
    }

    /// Seeds the root relaxation with a basis from a previous solve of
    /// the same-shaped (possibly mutated) problem — the cross-solve warm
    /// start the makespan binary search uses. Unusable bases are dropped
    /// silently.
    pub fn root_basis(mut self, basis: Basis) -> Self {
        self.root_basis = Some(basis);
        self
    }

    /// Solves `problem` to the configured limits.
    ///
    /// After the root relaxation, one best-first loop runs on the calling
    /// thread. Each round drops the open-node heap if its best node cannot
    /// improve the incumbent, then stops if the relative gap is closed, if
    /// the heap is drained, or if the node budget is spent, in that order.
    /// Otherwise it pops the best node and expands it: it re-solves the
    /// node's LP warm from its parent's basis inverse and reduced costs,
    /// prunes against the incumbent, runs the rounding heuristic and
    /// branches on the most fractional variable among those of the highest
    /// [branching priority](Problem::set_branch_priority).
    ///
    /// The same problem and options always give the same incumbent, bound
    /// and [`SolveStats`].
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the underlying simplex (iteration
    /// limits / numerical breakdown).
    pub fn solve(&self, problem: &Problem) -> Result<MilpSolution, SolveError> {
        let _solve_span =
            tel::span!(tel::Category::Solver, "milp.solve", "vars" => problem.num_vars() as u64);
        let mut stats = SolveStats::default();
        let sense_sign = match problem.sense() {
            ObjectiveSense::Minimize => 1.0,
            ObjectiveSense::Maximize => -1.0,
        };
        // Internally we always minimize `score = sense_sign * objective`.
        let int_vars: Vec<usize> = (0..problem.num_vars())
            .filter(|&j| matches!(problem.vars[j].kind, VarKind::Integer | VarKind::Binary))
            .collect();

        let root_bounds: Vec<(f64, f64)> =
            problem.vars.iter().map(|v| (v.lower, v.upper)).collect();

        // A valid warm start is the first incumbent: `(values, score)`.
        let incumbent = self
            .warm_start
            .as_ref()
            .filter(|ws| problem.is_feasible(ws, 1e-6))
            .map(|ws| {
                let vals = round_integers(ws.clone(), &int_vars);
                let score = sense_sign * problem.objective_value(&vals);
                (vals, score)
            });

        // The constraint matrix is the same at every node (branching only
        // moves bounds), so one model serves the root and every node.
        let BuildOutcome::Model(model) = SparseModel::build(problem) else {
            return Ok(finish(
                problem,
                incumbent,
                sense_sign * f64::NEG_INFINITY,
                MilpStatus::Infeasible,
                stats,
                None,
            ));
        };
        let (root_outcome, root_state) = {
            let _root_span = tel::span!(tel::Category::Solver, "milp.root_lp");
            solve_relaxation(
                problem,
                &model,
                &root_bounds,
                self.root_basis.as_ref().map(WarmStart::Basis),
                &mut stats,
            )?
        };
        let root = match root_outcome {
            LpOutcome::Infeasible => {
                return Ok(finish(
                    problem,
                    incumbent,
                    sense_sign * f64::NEG_INFINITY,
                    MilpStatus::Infeasible,
                    stats,
                    None,
                ));
            }
            LpOutcome::Unbounded => {
                // If a warm start exists the problem is feasible but the
                // relaxation is unbounded; report unbounded either way, as
                // the true MILP optimum cannot be bounded.
                return Ok(finish(
                    problem,
                    None,
                    sense_sign * f64::NEG_INFINITY,
                    MilpStatus::Unbounded,
                    stats,
                    None,
                ));
            }
            LpOutcome::Optimal(s) => s,
        };
        // The root relaxation's basis is handed back to the caller (for
        // the next binary-search step), and its whole state down to the
        // root node.
        let root_state = root_state.map(Arc::new);
        let root_basis = root_state.as_ref().map(|s| s.basis.clone());

        let mut search = Search {
            solver: self,
            problem,
            model: &model,
            int_vars: &int_vars,
            sense_sign,
            heap: BinaryHeap::new(),
            next_seq: 0,
            incumbent,
            stats,
        };
        search.push(OpenNode {
            score: sense_sign * root.objective,
            depth: 0,
            seq: 0,
            bounds: root_bounds,
            warm: root_state,
        });
        let status = search.run()?;
        let best_bound = search.open_bound().min(search.best_score());
        Ok(finish(
            problem,
            search.incumbent,
            sense_sign * best_bound,
            status,
            search.stats,
            root_basis,
        ))
    }

    fn gap_closed(&self, incumbent_score: f64, bound: f64) -> bool {
        (incumbent_score - bound) <= self.relative_gap * incumbent_score.abs().max(1.0) + 1e-12
    }
}

/// Packages a finished search. Without an incumbent, every status but
/// [`MilpStatus::Unbounded`] becomes [`MilpStatus::Infeasible`].
fn finish(
    problem: &Problem,
    incumbent: Option<(Vec<f64>, f64)>,
    best_bound: f64,
    status: MilpStatus,
    stats: SolveStats,
    root_basis: Option<Basis>,
) -> MilpSolution {
    let (status, values, objective) = match incumbent {
        Some((vals, _)) => {
            let objective = problem.objective_value(&vals);
            (status, vals, objective)
        }
        None if status == MilpStatus::Unbounded => (status, Vec::new(), f64::NAN),
        None => (MilpStatus::Infeasible, Vec::new(), f64::NAN),
    };
    MilpSolution {
        status,
        values,
        objective,
        best_bound,
        stats,
        root_basis,
    }
}

/// Solves one relaxation of `problem` (prebuilt as `model`) under
/// `bounds`, warm from `warm` when given, and counts it into `stats`.
/// Returns the optimum's state for warm re-solves next to the outcome.
fn solve_relaxation(
    problem: &Problem,
    model: &SparseModel,
    bounds: &[(f64, f64)],
    warm: Option<WarmStart<'_>>,
    stats: &mut SolveStats,
) -> Result<(LpOutcome, Option<NodeState>), SolveError> {
    stats.lp_solves += 1;
    let (outcome, lp_stats, state) = solve_lp_model(problem, model, bounds, warm)?;
    stats.absorb_lp(&lp_stats);
    Ok((outcome, state))
}

/// Rounds every integer variable of `values` to the nearest integer.
fn round_integers(mut values: Vec<f64>, int_vars: &[usize]) -> Vec<f64> {
    for &j in int_vars {
        values[j] = values[j].round();
    }
    values
}

/// The branching variable at a node with LP point `values`: among the
/// fractional integer variables, the highest branching priority, then the
/// fractional part closest to 0.5, then the lowest index. `None` when
/// every integer variable is integral.
fn most_fractional(problem: &Problem, values: &[f64], int_vars: &[usize]) -> Option<(usize, f64)> {
    // (var, value, priority, dist to 0.5)
    let mut best: Option<(usize, f64, u32, f64)> = None;
    for &j in int_vars {
        let v = values[j];
        let frac = v - v.floor();
        if frac <= INT_TOL || frac >= 1.0 - INT_TOL {
            continue;
        }
        let (priority, dist) = (problem.vars[j].priority, (frac - 0.5).abs());
        if best.is_none_or(|(_, _, p, d)| priority > p || (priority == p && dist < d)) {
            best = Some((j, v, priority, dist));
        }
    }
    best.map(|(j, v, _, _)| (j, v))
}

struct OpenNode {
    score: f64,
    depth: u32,
    /// Heap insertion sequence number — the final, always-distinct
    /// tie-break that makes the node order total and deterministic.
    seq: u64,
    bounds: Vec<(f64, f64)>,
    /// The parent relaxation's optimal basis, inverse and reduced costs:
    /// this node's warm start, shared with its sibling and the parent's
    /// completion LP.
    warm: Option<Arc<NodeState>>,
}

/// NaN-safe score comparison: NaN orders *after* every real score (a NaN
/// relaxation bound is "worst", so such a node is expanded last), and two
/// NaNs compare equal. Total over all f64 values.
fn score_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        // lint: allow(unwrap) both NaN cases are handled in the arms above
        (false, false) => a.partial_cmp(&b).expect("both non-NaN"),
    }
}

impl PartialEq for OpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for OpenNode {}
impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// **Documented total order** (`BinaryHeap` is a max-heap, so "greater"
/// means "expanded sooner"):
///
/// 1. *Lower* score first — best-first on the relaxation bound, with NaN
///    scores ordered last via [`score_cmp`].
/// 2. Ties break toward *deeper* nodes, so dives finish and produce
///    incumbents.
/// 3. Remaining ties break toward the *older* node (lower `seq`) — FIFO
///    among full equals, in the order the search pushed them.
///
/// `seq` is unique per search, so the order is total: heap behavior never
/// depends on unspecified tie handling, and the search is deterministic.
impl Ord for OpenNode {
    fn cmp(&self, other: &Self) -> Ordering {
        score_cmp(other.score, self.score)
            .then_with(|| self.depth.cmp(&other.depth))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One branch-and-bound search after the root relaxation: the open-node
/// heap, the incumbent and the effort counters.
struct Search<'a> {
    solver: &'a MilpSolver,
    problem: &'a Problem,
    /// `problem`'s constraint matrix, built once and read by every node.
    model: &'a SparseModel,
    int_vars: &'a [usize],
    sense_sign: f64,
    heap: BinaryHeap<OpenNode>,
    /// Sequence number of the next pushed node.
    next_seq: u64,
    /// Best feasible point: `(values, score)` in minimize-score space.
    incumbent: Option<(Vec<f64>, f64)>,
    stats: SolveStats,
}

impl Search<'_> {
    /// Score of the incumbent (`INFINITY` if none).
    fn best_score(&self) -> f64 {
        self.incumbent.as_ref().map_or(f64::INFINITY, |(_, s)| *s)
    }

    /// Lower bound on every solution still in the heap: the heap top's
    /// score, or `INFINITY` when the heap is empty. NaN scores sort last,
    /// so a NaN top means no open node has a bound, and it also reads as
    /// `INFINITY`.
    fn open_bound(&self) -> f64 {
        match self.heap.peek() {
            Some(node) if !node.score.is_nan() => node.score,
            _ => f64::INFINITY,
        }
    }

    /// Makes `(values, score)` the incumbent if it beats the current one;
    /// returns whether it did.
    fn improve(&mut self, values: Vec<f64>, score: f64) -> bool {
        let better = score < self.best_score();
        if better {
            self.incumbent = Some((values, score));
        }
        better
    }

    /// Pushes `node` with the next sequence number.
    fn push(&mut self, mut node: OpenNode) {
        node.seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(node);
    }

    /// Expands the best open node until the gap closes, the heap drains,
    /// or the node budget stops the search. Returns [`MilpStatus::Optimal`]
    /// for the first two and [`MilpStatus::Feasible`] for a budget stop,
    /// which it counts.
    fn run(&mut self) -> Result<MilpStatus, SolveError> {
        loop {
            if let Some(&(_, inc)) = self.incumbent.as_ref() {
                // The heap top is the minimum open score; if it cannot
                // improve the incumbent nothing in the heap can.
                if self.heap.peek().is_some_and(|n| n.score >= inc - 1e-9) {
                    self.heap.clear();
                }
                if self.solver.gap_closed(inc, self.open_bound()) {
                    return Ok(MilpStatus::Optimal);
                }
            }
            if self.heap.is_empty() {
                return Ok(MilpStatus::Optimal);
            }
            if self.stats.nodes >= self.solver.node_limit {
                self.stats.node_limit_stops += 1;
                return Ok(MilpStatus::Feasible);
            }
            // lint: allow(unwrap) the drained check above saw a non-empty heap
            let node = self.heap.pop().expect("heap checked non-empty");
            let _expand_span = tel::span!(tel::Category::Solver, "bnb.expand");
            self.expand(node)?;
        }
    }

    /// Expands one node: warm LP re-solve from the parent's state, prune
    /// against the incumbent, run the rounding heuristic, and push up to
    /// two children.
    fn expand(&mut self, node: OpenNode) -> Result<(), SolveError> {
        self.stats.nodes += 1;
        let (outcome, state) = solve_relaxation(
            self.problem,
            self.model,
            &node.bounds,
            node.warm.as_deref().map(WarmStart::State),
            &mut self.stats,
        )?;
        let LpOutcome::Optimal(lp) = outcome else {
            // Infeasible subtree, or unbounded (root-only, handled before
            // the search starts).
            return Ok(());
        };
        // Children resume from this node's optimal basis, inverse and
        // reduced costs with the dual simplex instead of cold-starting.
        let child_state = state.map(Arc::new);
        let lp_score = self.sense_sign * lp.objective;
        if lp_score >= self.best_score() - 1e-9 {
            return Ok(());
        }
        let Some((bvar, bval)) = most_fractional(self.problem, &lp.values, self.int_vars) else {
            // Integral: candidate incumbent.
            let vals = round_integers(lp.values, self.int_vars);
            let score = self.sense_sign * self.problem.objective_value(&vals);
            self.improve(vals, score);
            return Ok(());
        };
        if let Some((vals, score)) =
            self.fix_and_complete(&node.bounds, &lp.values, child_state.as_deref())?
        {
            if self.improve(vals, score) {
                self.stats.heuristic_incumbents += 1;
            }
        }
        // Branch on the most fractional variable of the highest priority:
        // down, then up.
        let (lo, hi) = node.bounds[bvar];
        for range in [(lo, bval.floor().min(hi)), (bval.ceil().max(lo), hi)] {
            if range.0 <= range.1 + FEAS_TOL {
                let mut bounds = node.bounds.clone();
                bounds[bvar] = range;
                self.push(OpenNode {
                    score: lp_score,
                    depth: node.depth + 1,
                    seq: 0, // assigned by `push`
                    bounds,
                    warm: child_state.clone(),
                });
            }
        }
        Ok(())
    }

    /// The fix-and-complete rounding heuristic. Rounds each integer
    /// variable of a node's LP solution into the node's bounds and fixes
    /// it there. When every variable is integer, that point is the whole
    /// candidate. Otherwise an LP over the remaining continuous variables
    /// completes it, warm from the node's state. The candidate counts only
    /// if it is feasible for the original problem.
    fn fix_and_complete(
        &mut self,
        bounds: &[(f64, f64)],
        lp_values: &[f64],
        node_state: Option<&NodeState>,
    ) -> Result<Option<(Vec<f64>, f64)>, SolveError> {
        let fixed = fix_integers(bounds, lp_values, self.int_vars);
        let completed = if self.int_vars.len() == self.problem.num_vars() {
            Some(fixed.iter().map(|&(v, _)| v).collect())
        } else {
            complete_by_lp(
                self.problem,
                self.model,
                &fixed,
                self.int_vars,
                node_state,
                &mut self.stats,
            )?
        };
        Ok(completed
            .filter(|vals| self.problem.is_feasible(vals, 1e-6))
            .map(|vals| {
                let score = self.sense_sign * self.problem.objective_value(&vals);
                (vals, score)
            }))
    }
}

/// `bounds` with every integer variable fixed at its `lp_values` entry,
/// rounded into its range.
fn fix_integers(bounds: &[(f64, f64)], lp_values: &[f64], int_vars: &[usize]) -> Vec<(f64, f64)> {
    let mut fixed = bounds.to_vec();
    for &j in int_vars {
        let r = lp_values[j].round().clamp(bounds[j].0, bounds[j].1);
        let r = r.round();
        fixed[j] = (r, r);
    }
    fixed
}

/// Completes the continuous variables of `fixed` by solving the LP under
/// those bounds, warm from `state`; `None` when that LP has no optimum.
fn complete_by_lp(
    problem: &Problem,
    model: &SparseModel,
    fixed: &[(f64, f64)],
    int_vars: &[usize],
    state: Option<&NodeState>,
    stats: &mut SolveStats,
) -> Result<Option<Vec<f64>>, SolveError> {
    let warm = state.map(WarmStart::State);
    match solve_relaxation(problem, model, fixed, warm, stats)?.0 {
        LpOutcome::Optimal(s) => Ok(Some(round_integers(s.values, int_vars))),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, Problem, VarKind};
    use proptest::prelude::*;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn knapsack_exact() {
        // max Σ v x, Σ w x <= 26; optimum 51 with items {1,2,4} (w 25).
        let v = [24.0, 13.0, 23.0, 15.0, 16.0];
        let w = [12.0, 7.0, 11.0, 8.0, 9.0];
        let mut p = Problem::maximize();
        let xs: Vec<_> = (0..5).map(|i| p.add_binary(format!("x{i}"))).collect();
        p.add_le(
            LinExpr::from_terms(xs.iter().copied().zip(w.iter().copied())),
            26.0,
        );
        p.set_objective(LinExpr::from_terms(
            xs.iter().copied().zip(v.iter().copied()),
        ));
        let sol = MilpSolver::new().solve(&p).unwrap();
        assert_eq!(sol.status(), MilpStatus::Optimal);
        // Brute-force optimum for this instance:
        let mut best = 0.0f64;
        for mask in 0u32..32 {
            let (mut tv, mut tw) = (0.0, 0.0);
            for i in 0..5 {
                if mask & (1 << i) != 0 {
                    tv += v[i];
                    tw += w[i];
                }
            }
            if tw <= 26.0 {
                best = best.max(tv);
            }
        }
        approx(sol.objective(), best);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // x[i][j] and x[j][i] in one loop
    fn assignment_problem() {
        // 3×3 assignment, cost matrix; optimum picks one per row/col.
        let cost = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]];
        let mut p = Problem::minimize();
        let mut x = [[None; 3]; 3];
        for (i, row) in x.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = Some(p.add_binary(format!("x{i}{j}")));
            }
        }
        for i in 0..3 {
            p.add_eq(
                LinExpr::from_terms((0..3).map(|j| (x[i][j].unwrap(), 1.0))),
                1.0,
            );
            p.add_eq(
                LinExpr::from_terms((0..3).map(|j| (x[j][i].unwrap(), 1.0))),
                1.0,
            );
        }
        let mut obj = LinExpr::new();
        for i in 0..3 {
            for j in 0..3 {
                obj.add_term(x[i][j].unwrap(), cost[i][j]);
            }
        }
        p.set_objective(obj);
        let sol = MilpSolver::new().solve(&p).unwrap();
        assert_eq!(sol.status(), MilpStatus::Optimal);
        approx(sol.objective(), 5.0); // (0,1)=1 + (1,0)=2 + (2,2)=2
    }

    #[test]
    fn general_integers() {
        // min 3x + 4y s.t. 2x + y >= 7, x + 3y >= 9, x,y ∈ Z≥0.
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Integer, 0.0, 100.0);
        let y = p.add_var("y", VarKind::Integer, 0.0, 100.0);
        p.add_ge(LinExpr::from_terms([(x, 2.0), (y, 1.0)]), 7.0);
        p.add_ge(LinExpr::from_terms([(x, 1.0), (y, 3.0)]), 9.0);
        p.set_objective(LinExpr::from_terms([(x, 3.0), (y, 4.0)]));
        let sol = MilpSolver::new().solve(&p).unwrap();
        // Brute force over a small grid:
        let mut best = f64::INFINITY;
        for xi in 0..20 {
            for yi in 0..20 {
                let (xf, yf) = (xi as f64, yi as f64);
                if 2.0 * xf + yf >= 7.0 && xf + 3.0 * yf >= 9.0 {
                    best = best.min(3.0 * xf + 4.0 * yf);
                }
            }
        }
        approx(sol.objective(), best);
    }

    #[test]
    fn infeasible_milp() {
        let mut p = Problem::minimize();
        let x = p.add_binary("x");
        let y = p.add_binary("y");
        p.add_ge(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), 3.0);
        p.set_objective(LinExpr::term(x, 1.0));
        let sol = MilpSolver::new().solve(&p).unwrap();
        assert_eq!(sol.status(), MilpStatus::Infeasible);
    }

    #[test]
    fn unbounded_milp() {
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Integer, 0.0, f64::INFINITY);
        p.set_objective(LinExpr::term(x, 1.0));
        let sol = MilpSolver::new().solve(&p).unwrap();
        assert_eq!(sol.status(), MilpStatus::Unbounded);
    }

    #[test]
    fn warm_start_is_used_and_improved() {
        // Knapsack where warm start is suboptimal.
        let mut p = Problem::maximize();
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.add_le(LinExpr::from_terms([(a, 1.0), (b, 1.0)]), 1.0);
        p.set_objective(LinExpr::from_terms([(a, 1.0), (b, 2.0)]));
        let sol = MilpSolver::new()
            .warm_start(vec![1.0, 0.0])
            .solve(&p)
            .unwrap();
        approx(sol.objective(), 2.0);
    }

    #[test]
    fn zero_node_budget_returns_warm_start() {
        let mut p = Problem::maximize();
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.add_le(LinExpr::from_terms([(a, 1.0), (b, 1.0)]), 1.0);
        p.set_objective(LinExpr::from_terms([(a, 1.0), (b, 2.0)]));
        let sol = MilpSolver::new()
            .node_limit(0)
            .warm_start(vec![1.0, 0.0])
            .solve(&p)
            .unwrap();
        assert_eq!(sol.status(), MilpStatus::Feasible);
        approx(sol.objective(), 1.0);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max x + y, x integer ≤ 2.5 constraint, y continuous ≤ 1.7.
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Integer, 0.0, 10.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, 10.0);
        p.add_le(LinExpr::term(x, 1.0), 2.5);
        p.add_le(LinExpr::term(y, 1.0), 1.7);
        p.set_objective(LinExpr::from_terms([(x, 1.0), (y, 1.0)]));
        let sol = MilpSolver::new().solve(&p).unwrap();
        approx(sol.objective(), 3.7);
        approx(sol.value(x), 2.0);
    }

    #[test]
    fn minmax_via_auxiliary_variable() {
        // Mirror of the planner's makespan objective: minimize C with
        // C >= load_g for two "groups"; items: 5, 3, 2 assigned binarily.
        let mut p = Problem::minimize();
        let c = p.add_var("C", VarKind::Continuous, 0.0, f64::INFINITY);
        let w = [5.0, 3.0, 2.0];
        let mut assign = Vec::new();
        for (i, _) in w.iter().enumerate() {
            let a = p.add_binary(format!("a{i}")); // 1 = group A, 0 = group B
            assign.push(a);
        }
        let mut load_a = LinExpr::new();
        let mut load_b = LinExpr::constant_expr(w.iter().sum());
        for (i, &a) in assign.iter().enumerate() {
            load_a.add_term(a, w[i]);
            load_b.add_term(a, -w[i]);
        }
        p.add_constraint(load_a.clone() - LinExpr::term(c, 1.0), crate::Cmp::Le, 0.0);
        p.add_constraint(load_b.clone() - LinExpr::term(c, 1.0), crate::Cmp::Le, 0.0);
        p.set_objective(LinExpr::term(c, 1.0));
        let sol = MilpSolver::new().solve(&p).unwrap();
        approx(sol.objective(), 5.0); // {5} vs {3,2}
    }

    fn open(score: f64, depth: u32, seq: u64) -> OpenNode {
        OpenNode {
            score,
            depth,
            seq,
            bounds: Vec::new(),
            warm: None,
        }
    }

    #[test]
    fn open_node_order_is_total_and_nan_safe() {
        // Max-heap: Greater = expanded sooner. Lower score wins...
        assert_eq!(open(1.0, 0, 0).cmp(&open(2.0, 5, 9)), Ordering::Greater);
        // ...NaN scores are expanded last and compare equal to each other
        // (then fall through to the depth/seq tie-breaks)...
        assert_eq!(open(f64::NAN, 0, 0).cmp(&open(2.0, 0, 1)), Ordering::Less);
        assert_eq!(
            open(f64::NAN, 0, 0).cmp(&open(f64::NAN, 0, 1)),
            Ordering::Greater
        );
        // ...equal scores prefer the deeper node (finish dives first)...
        assert_eq!(open(3.0, 2, 0).cmp(&open(3.0, 1, 9)), Ordering::Greater);
        // ...and full ties prefer the older node (FIFO among equals).
        assert_eq!(open(3.0, 1, 2).cmp(&open(3.0, 1, 7)), Ordering::Greater);
        // seq is unique per search, so distinct nodes never compare Equal:
        // the order is total, antisymmetric, and deterministic.
        let a = open(3.0, 1, 7);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert_eq!(
            open(3.0, 1, 7).cmp(&open(3.0, 1, 2)).reverse(),
            open(3.0, 1, 2).cmp(&open(3.0, 1, 7))
        );
    }

    #[test]
    fn heap_pops_in_documented_order() {
        let mut heap = BinaryHeap::new();
        for node in [
            open(2.0, 1, 1),
            open(1.0, 0, 2),
            open(1.0, 3, 3),
            open(1.0, 3, 4),
            open(f64::NAN, 9, 5),
        ] {
            heap.push(node);
        }
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|n| n.seq)).collect();
        // Best score first; among score ties deepest first; among full
        // ties oldest first; NaN dead last.
        assert_eq!(order, vec![3, 4, 2, 1, 5]);
    }

    #[test]
    fn branching_takes_priority_then_fractionality_then_index() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Integer, 0.0, 4.0);
        let y = p.add_var("y", VarKind::Integer, 0.0, 4.0);
        let z = p.add_var("z", VarKind::Integer, 0.0, 4.0);
        let ints = [0, 1, 2];
        // x sits at a half, y barely off an integer, z on one.
        let point = [1.5, 2.1, 3.0];
        assert_eq!(most_fractional(&p, &point, &ints), Some((0, 1.5)));
        p.set_branch_priority(y, 1);
        assert_eq!(most_fractional(&p, &point, &ints), Some((1, 2.1)));
        // An integral variable is never branched on, whatever its priority.
        p.set_branch_priority(z, 2);
        assert_eq!(most_fractional(&p, &point, &ints), Some((1, 2.1)));
        // Equal priorities fall back to the most fractional, and an equal
        // distance from 0.5 to the lowest index.
        p.set_branch_priority(x, 1);
        assert_eq!(most_fractional(&p, &point, &ints), Some((0, 1.5)));
        assert_eq!(
            most_fractional(&p, &[1.75, 2.25, 3.0], &ints),
            Some((0, 1.75))
        );
        assert_eq!(most_fractional(&p, &[1.0, 2.0, 3.0], &ints), None);
    }

    #[test]
    fn a_priority_variable_is_branched_on_before_a_more_fractional_one() {
        // max x + y, 2x ≤ 1, 10y ≤ 1: the root LP point is x = 0.5,
        // y = 0.1, so x is the more fractional.
        let mut p = Problem::maximize();
        let x = p.add_var("x", VarKind::Integer, 0.0, 3.0);
        let y = p.add_var("y", VarKind::Integer, 0.0, 3.0);
        p.add_le(LinExpr::term(x, 2.0), 1.0);
        p.add_le(LinExpr::term(y, 10.0), 1.0);
        p.set_objective(LinExpr::from_terms([(x, 1.0), (y, 1.0)]));
        // The bounds of each variable in the root's two children.
        let children = |p: &Problem| {
            let BuildOutcome::Model(model) = SparseModel::build(p) else {
                unreachable!("every row has variable terms");
            };
            let solver = MilpSolver::new();
            let mut search = Search {
                solver: &solver,
                problem: p,
                model: &model,
                int_vars: &[0, 1],
                sense_sign: -1.0,
                heap: BinaryHeap::new(),
                next_seq: 0,
                incumbent: None,
                stats: SolveStats::default(),
            };
            search.expand(open_at(vec![(0.0, 3.0); 2])).unwrap();
            let mut kids: Vec<_> = search.heap.into_iter().collect();
            kids.sort_by_key(|n| n.seq);
            kids.into_iter().map(|n| n.bounds).collect::<Vec<_>>()
        };
        let down_up = |var: usize| {
            let mut down = vec![(0.0, 3.0); 2];
            let mut up = down.clone();
            (down[var], up[var]) = ((0.0, 0.0), (1.0, 3.0));
            vec![down, up]
        };
        assert_eq!(children(&p), down_up(x.index()));
        p.set_branch_priority(y, 1);
        assert_eq!(children(&p), down_up(y.index()));
    }

    fn open_at(bounds: Vec<(f64, f64)>) -> OpenNode {
        OpenNode {
            bounds,
            ..open(f64::NEG_INFINITY, 0, 0)
        }
    }

    /// A knapsack big enough to grow a real search tree, with a unique
    /// optimum so objective equality is meaningful.
    fn wide_knapsack() -> (Problem, f64) {
        let v = [24.0, 13.0, 23.0, 15.0, 16.0, 9.0, 7.0, 11.0, 5.0, 8.0];
        let w = [12.0, 7.0, 11.0, 8.0, 9.0, 5.0, 4.0, 6.0, 3.0, 5.0];
        let cap = 33.0;
        let mut p = Problem::maximize();
        let xs: Vec<_> = (0..v.len())
            .map(|i| p.add_binary(format!("x{i}")))
            .collect();
        p.add_le(
            LinExpr::from_terms(xs.iter().copied().zip(w.iter().copied())),
            cap,
        );
        p.set_objective(LinExpr::from_terms(
            xs.iter().copied().zip(v.iter().copied()),
        ));
        let mut best = 0.0f64;
        for mask in 0u32..(1 << v.len()) {
            let (mut tv, mut tw) = (0.0, 0.0);
            for i in 0..v.len() {
                if mask & (1 << i) != 0 {
                    tv += v[i];
                    tw += w[i];
                }
            }
            if tw <= cap {
                best = best.max(tv);
            }
        }
        (p, best)
    }

    #[test]
    fn limit_stops_are_counted_by_reason() {
        let (p, _) = wide_knapsack();
        let stops = |solver: MilpSolver| solver.solve(&p).unwrap().stats().node_limit_stops;
        assert_eq!(stops(MilpSolver::new()), 0, "drained");
        assert_eq!(stops(MilpSolver::new().node_limit(1)), 1);
        assert_eq!(stops(MilpSolver::new().node_limit(0)), 1);

        let mut total = SolveStats::default();
        for solver in [MilpSolver::new().node_limit(1), MilpSolver::new()] {
            total.absorb(&solver.solve(&p).unwrap().stats());
        }
        assert_eq!(total.node_limit_stops, 1);
    }

    /// `wide_knapsack` plus the variable-free row `0 ≤ −1`, which no
    /// assignment satisfies.
    fn knapsack_with_violated_constant_row() -> Problem {
        let (mut p, _) = wide_knapsack();
        p.add_le(LinExpr::new(), -1.0);
        p
    }

    #[test]
    fn violated_variable_free_row_is_infeasible() {
        let p = knapsack_with_violated_constant_row();
        let sol = MilpSolver::new().solve(&p).unwrap();
        assert_eq!(sol.status(), MilpStatus::Infeasible);
    }

    #[test]
    fn violated_variable_free_row_rejects_warm_start() {
        // All-zero is feasible for the knapsack rows, but not for `0 ≤ −1`.
        let p = knapsack_with_violated_constant_row();
        let sol = MilpSolver::new()
            .warm_start(vec![0.0; 10])
            .solve(&p)
            .unwrap();
        assert_eq!(sol.status(), MilpStatus::Infeasible);
    }

    #[test]
    fn satisfied_variable_free_rows_change_nothing() {
        let (plain, best) = wide_knapsack();
        let mut padded = plain.clone();
        padded.add_le(LinExpr::new(), 1.0);
        padded.add_ge(LinExpr::new(), -2.0);
        padded.add_eq(LinExpr::new(), 0.0);
        let a = MilpSolver::new().solve(&plain).unwrap();
        let b = MilpSolver::new().solve(&padded).unwrap();
        approx(a.objective(), best);
        assert_eq!(a.status(), b.status());
        assert_eq!(a.values(), b.values());
        assert_eq!(a.objective(), b.objective());
        assert_eq!(a.best_bound(), b.best_bound());
        assert_eq!(a.stats(), b.stats());
    }

    /// A small random MILP whose variables are all integer, plus one
    /// branch-and-bound node inside it.
    #[derive(Debug, Clone)]
    struct RandomNode {
        upper: Vec<i32>,
        obj: Vec<i32>,
        maximize: bool,
        /// Each row: (coefficients, cmp: 0 = Le / 1 = Ge / 2 = Eq, rhs).
        rows: Vec<(Vec<i32>, u8, i32)>,
        /// Per variable: the node range's lower end and width, clamped
        /// into the variable's own range.
        node: Vec<(i32, i32)>,
    }

    fn random_node() -> impl Strategy<Value = RandomNode> {
        (2usize..=5).prop_flat_map(|n| {
            let upper = prop::collection::vec(1i32..=6, n);
            let obj = prop::collection::vec(-5i32..=5, n);
            let row = (prop::collection::vec(-4i32..=4, n), 0u8..=2, -8i32..=16);
            let rows = prop::collection::vec(row, 1..=4);
            let node = prop::collection::vec((0i32..=6, 0i32..=6), n);
            (upper, obj, any::<bool>(), rows, node).prop_map(
                |(upper, obj, maximize, rows, node)| RandomNode {
                    upper,
                    obj,
                    maximize,
                    rows,
                    node,
                },
            )
        })
    }

    impl RandomNode {
        fn problem(&self) -> Problem {
            let mut p = if self.maximize {
                Problem::maximize()
            } else {
                Problem::minimize()
            };
            let vars: Vec<_> = (self.upper.iter().enumerate())
                .map(|(i, &u)| p.add_var(format!("x{i}"), VarKind::Integer, 0.0, u as f64))
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

        fn bounds(&self) -> Vec<(f64, f64)> {
            (self.upper.iter().zip(&self.node))
                .map(|(&u, &(lo, width))| {
                    let lo = lo.min(u);
                    (lo as f64, (lo + width).min(u) as f64)
                })
                .collect()
        }
    }

    /// Whether `values` lies within `bounds` and satisfies every row of
    /// `p`, integrality aside.
    fn relaxation_feasible(p: &Problem, values: &[f64], bounds: &[(f64, f64)]) -> bool {
        let tol = 1e-6;
        let in_box = (values.iter().zip(bounds)).all(|(v, &(l, u))| *v >= l - tol && *v <= u + tol);
        in_box && p.constraints().iter().all(|c| c.is_satisfied(values, tol))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// With every variable integer, `fix_and_complete` accepts the
        /// rounded point without an LP. It must return what the
        /// completion LP returned for that point, warm from the node's
        /// state or cold: the same candidate and score, or none.
        #[test]
        fn direct_completion_matches_completion_lp(case in random_node()) {
            let p = case.problem();
            let BuildOutcome::Model(model) = SparseModel::build(&p) else {
                unreachable!("every row has variable terms");
            };
            let int_vars: Vec<usize> = (0..p.num_vars()).collect();
            let sense_sign = match p.sense() {
                ObjectiveSense::Minimize => 1.0,
                ObjectiveSense::Maximize => -1.0,
            };
            let bounds = case.bounds();
            let mut stats = SolveStats::default();
            let (node, state) = solve_relaxation(&p, &model, &bounds, None, &mut stats).unwrap();
            let LpOutcome::Optimal(lp) = node else {
                // An infeasible node is never expanded; draw another.
                return Err(TestCaseError::Reject);
            };

            let solver = MilpSolver::new();
            let mut search = Search {
                solver: &solver,
                problem: &p,
                model: &model,
                int_vars: &int_vars,
                sense_sign,
                heap: BinaryHeap::new(),
                next_seq: 0,
                incumbent: None,
                stats: SolveStats::default(),
            };
            let direct = search
                .fix_and_complete(&bounds, &lp.values, state.as_ref())
                .unwrap();
            prop_assert_eq!(search.stats.lp_solves, 0, "the direct path solved an LP");

            let fixed = fix_integers(&bounds, &lp.values, &int_vars);
            for warm in [state.as_ref(), None] {
                let by_lp = complete_by_lp(&p, &model, &fixed, &int_vars, warm, &mut stats)
                    .unwrap()
                    .filter(|vals| p.is_feasible(vals, 1e-6))
                    .map(|vals| {
                        let score = sense_sign * p.objective_value(&vals);
                        (vals, score)
                    });
                prop_assert_eq!(&direct, &by_lp, "warm state: {}", warm.is_some());
            }
        }

        /// A relaxation re-solved from its parent's carried state under
        /// tightened bounds ends as a cold solve under those bounds does:
        /// the same status and, at an optimum, the same objective. The
        /// children are the random node's box, then each branch of the
        /// box's most fractional variable, each resuming from its parent.
        #[test]
        fn carried_state_resolves_like_a_cold_solve(case in random_node()) {
            let p = case.problem();
            let BuildOutcome::Model(model) = SparseModel::build(&p) else {
                unreachable!("every row has variable terms");
            };
            let int_vars: Vec<usize> = (0..p.num_vars()).collect();
            let mut stats = SolveStats::default();
            let root_bounds: Vec<(f64, f64)> =
                p.vars.iter().map(|v| (v.lower, v.upper)).collect();
            let (_, root) = solve_relaxation(&p, &model, &root_bounds, None, &mut stats).unwrap();
            let Some(root) = root else {
                // Only an optimum leaves a state to carry; draw another.
                return Err(TestCaseError::Reject);
            };
            // Re-solves `bounds` warm from `parent` and cold; returns the
            // warm optimum's point and state.
            let mut check = |bounds: &[(f64, f64)], parent: &NodeState| {
                let mut warm_stats = SolveStats::default();
                let (warm, state) = solve_relaxation(
                    &p,
                    &model,
                    bounds,
                    Some(WarmStart::State(parent)),
                    &mut warm_stats,
                )
                .unwrap();
                let (cold, _) = solve_relaxation(&p, &model, bounds, None, &mut stats).unwrap();
                let same = match (&warm, &cold) {
                    (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) => {
                        (a.objective - b.objective).abs() <= 1e-6
                            && relaxation_feasible(&p, &a.values, bounds)
                    }
                    (LpOutcome::Infeasible, LpOutcome::Infeasible) => true,
                    _ => false,
                };
                let point = warm.optimal().map(|s| s.values.clone());
                (same, format!("{bounds:?}: warm {warm:?} vs cold {cold:?}"), point.zip(state))
            };

            let child = case.bounds();
            let (same, what, child_opt) = check(&child, &root);
            prop_assert!(same, "child {}", what);
            let Some((values, child_state)) = child_opt else {
                return Ok(());
            };
            if let Some((var, val)) = most_fractional(&p, &values, &int_vars) {
                let (lo, hi) = child[var];
                for range in [(lo, val.floor()), (val.ceil(), hi)] {
                    let mut grandchild = child.clone();
                    grandchild[var] = range;
                    let (same, what, _) = check(&grandchild, &child_state);
                    prop_assert!(same, "grandchild {}", what);
                }
            }
        }
    }
}
