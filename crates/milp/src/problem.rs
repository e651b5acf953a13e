//! Problem construction: variables, constraints, objective.

use crate::expr::{LinExpr, VarId};
use crate::FEAS_TOL;

/// Kind of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Real-valued variable.
    Continuous,
    /// Integer-valued variable.
    Integer,
    /// Integer variable clamped to `{0, 1}` (bounds are intersected with
    /// `[0, 1]`).
    Binary,
}

/// Comparison operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `expr <= rhs`
    Le,
    /// `expr == rhs`
    Eq,
    /// `expr >= rhs`
    Ge,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectiveSense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// A linear constraint `expr cmp rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    pub(crate) expr: LinExpr,
    pub(crate) cmp: Cmp,
    pub(crate) rhs: f64,
    pub(crate) name: String,
}

impl Constraint {
    /// The comparison operator.
    pub fn cmp(&self) -> Cmp {
        self.cmp
    }

    /// The right-hand side (after folding the expression constant).
    pub fn rhs(&self) -> f64 {
        self.rhs
    }

    /// The constraint name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The left-hand-side expression.
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// Whether `values` satisfies this constraint within `tol`.
    pub fn is_satisfied(&self, values: &[f64], tol: f64) -> bool {
        let lhs = self.expr.eval(values) - self.expr.constant();
        match self.cmp {
            Cmp::Le => lhs <= self.rhs + tol,
            Cmp::Ge => lhs >= self.rhs - tol,
            Cmp::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub name: String,
    pub kind: VarKind,
    pub lower: f64,
    pub upper: f64,
    /// Branching priority; see [`Problem::set_branch_priority`].
    pub priority: u32,
}

/// A mixed-integer linear program under construction.
///
/// Variables must have a finite lower bound (the planner's variables are all
/// nonnegative); upper bounds may be `f64::INFINITY`.
///
/// # Example
///
/// ```
/// use flexsp_milp::{LinExpr, Problem, VarKind};
/// let mut p = Problem::minimize();
/// let x = p.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY);
/// p.add_ge(LinExpr::term(x, 1.0), 3.0);
/// p.set_objective(LinExpr::term(x, 1.0));
/// assert_eq!(p.num_vars(), 1);
/// assert_eq!(p.num_constraints(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: LinExpr,
    pub(crate) sense: ObjectiveSense,
}

impl Problem {
    /// Creates a minimization problem.
    pub fn minimize() -> Self {
        Self::new(ObjectiveSense::Minimize)
    }

    /// Creates a maximization problem.
    pub fn maximize() -> Self {
        Self::new(ObjectiveSense::Maximize)
    }

    /// Creates a problem with the given sense.
    pub fn new(sense: ObjectiveSense) -> Self {
        Self {
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: LinExpr::new(),
            sense,
        }
    }

    /// Adds a decision variable and returns its handle.
    ///
    /// For [`VarKind::Binary`], the bounds are intersected with `[0, 1]`.
    /// Integer bounds are tightened to the nearest integers inside the range.
    ///
    /// # Panics
    ///
    /// Panics if `lower` is not finite, if `upper` is NaN, or if
    /// `lower > upper` (after integral tightening).
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lower: f64,
        upper: f64,
    ) -> VarId {
        assert!(lower.is_finite(), "lower bound must be finite");
        assert!(!upper.is_nan(), "upper bound must not be NaN");
        let (mut lower, mut upper) = (lower, upper);
        if kind == VarKind::Binary {
            lower = lower.max(0.0);
            upper = upper.min(1.0);
        }
        if matches!(kind, VarKind::Integer | VarKind::Binary) {
            lower = lower.ceil();
            if upper.is_finite() {
                upper = upper.floor();
            }
        }
        assert!(
            lower <= upper + FEAS_TOL,
            "empty domain for variable {:?}: [{lower}, {upper}]",
            name.into()
        );
        // lint: allow(unwrap) u32 overflow needs 4 billion variables — far past any solvable model
        let id = VarId(u32::try_from(self.vars.len()).expect("too many variables"));
        self.vars.push(VarDef {
            name: name.into(),
            kind,
            lower,
            upper,
            priority: 0,
        });
        id
    }

    /// Convenience: adds a binary variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(name, VarKind::Binary, 0.0, 1.0)
    }

    /// Adds the constraint `expr cmp rhs`. The expression's constant is
    /// folded into the right-hand side.
    pub fn add_constraint(&mut self, expr: LinExpr, cmp: Cmp, rhs: f64) {
        let name = format!("c{}", self.constraints.len());
        self.add_named_constraint(name, expr, cmp, rhs);
    }

    /// Adds a named constraint.
    pub fn add_named_constraint(
        &mut self,
        name: impl Into<String>,
        expr: LinExpr,
        cmp: Cmp,
        rhs: f64,
    ) {
        let folded_rhs = rhs - expr.constant();
        self.constraints.push(Constraint {
            expr,
            cmp,
            rhs: folded_rhs,
            name: name.into(),
        });
    }

    /// Adds `expr <= rhs`.
    pub fn add_le(&mut self, expr: LinExpr, rhs: f64) {
        self.add_constraint(expr, Cmp::Le, rhs);
    }

    /// Adds `expr >= rhs`.
    pub fn add_ge(&mut self, expr: LinExpr, rhs: f64) {
        self.add_constraint(expr, Cmp::Ge, rhs);
    }

    /// Adds `expr == rhs`.
    pub fn add_eq(&mut self, expr: LinExpr, rhs: f64) {
        self.add_constraint(expr, Cmp::Eq, rhs);
    }

    /// Sets the objective expression (constant offsets are preserved in
    /// reported objective values).
    pub fn set_objective(&mut self, expr: LinExpr) {
        self.objective = expr;
    }

    // --- In-place mutation API -------------------------------------------
    //
    // The planner edits one model across the makespan binary search
    // instead of rebuilding it, so a `Basis` extracted from the previous
    // solve can warm start the next one. (Branch and bound never edits
    // the problem: it passes per-node bound overrides to the LP.)
    // Mutations keep the problem *shape* (variable and constraint counts,
    // term sparsity) fixed; only numbers move.

    /// Replaces the right-hand side of constraint `idx`.
    ///
    /// The value is the *effective* RHS, i.e. after the expression
    /// constant was folded at construction time (what
    /// [`Constraint::rhs`] reports).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or `rhs` is not finite.
    pub fn set_rhs(&mut self, idx: usize, rhs: f64) {
        assert!(rhs.is_finite(), "constraint RHS must be finite");
        self.constraints[idx].rhs = rhs;
    }

    /// Replaces the bounds of `var`, applying the same binary clamping and
    /// integral tightening as [`Problem::add_var`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Problem::add_var`].
    pub fn set_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        assert!(lower.is_finite(), "lower bound must be finite");
        assert!(!upper.is_nan(), "upper bound must not be NaN");
        let kind = self.vars[var.index()].kind;
        let (mut lower, mut upper) = (lower, upper);
        if kind == VarKind::Binary {
            lower = lower.max(0.0);
            upper = upper.min(1.0);
        }
        if matches!(kind, VarKind::Integer | VarKind::Binary) {
            lower = lower.ceil();
            if upper.is_finite() {
                upper = upper.floor();
            }
        }
        assert!(
            lower <= upper + FEAS_TOL,
            "empty domain for variable {:?}: [{lower}, {upper}]",
            self.vars[var.index()].name
        );
        let def = &mut self.vars[var.index()];
        def.lower = lower;
        def.upper = upper;
    }

    /// Sets the branching priority of `var` (default 0). At every node,
    /// branch and bound branches on a fractional integer variable of the
    /// highest priority present; among those it takes the one whose
    /// fractional part is closest to 0.5, and then the lowest index. A
    /// problem that sets no priority therefore branches on the most
    /// fractional variable. Priorities steer only the order of the
    /// search, never which points are feasible; continuous variables
    /// ignore them.
    ///
    /// Raising the variables that fix a solution's structure (the
    /// planner's per-group switches `m_p`) above the ones that fill it in
    /// (its per-group assignments) settles the structure near the root of
    /// the search tree.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_branch_priority(&mut self, var: VarId, priority: u32) {
        self.vars[var.index()].priority = priority;
    }

    /// Sets the total objective coefficient of `var`.
    pub fn set_objective_coef(&mut self, var: VarId, coef: f64) {
        self.objective.set_coef(var, coef);
    }

    /// Sets the total coefficient of `var` in constraint `idx`. The term
    /// stays in the constraint even at zero, keeping the sparsity pattern
    /// (and therefore any extracted [`crate::Basis`]) stable.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_constraint_coef(&mut self, idx: usize, var: VarId, coef: f64) {
        self.constraints[idx].expr.set_coef(var, coef);
    }

    /// The optimization sense.
    pub fn sense(&self) -> ObjectiveSense {
        self.sense
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The constraints added so far.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Variable bounds `(lower, upper)`.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        let d = &self.vars[var.index()];
        (d.lower, d.upper)
    }

    /// Variable kind.
    pub fn kind(&self, var: VarId) -> VarKind {
        self.vars[var.index()].kind
    }

    /// Checks a full assignment for feasibility: bounds, integrality and all
    /// constraints, within `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (v, d) in values.iter().zip(&self.vars) {
            if *v < d.lower - tol || *v > d.upper + tol {
                return false;
            }
            if matches!(d.kind, VarKind::Integer | VarKind::Binary)
                && (v - v.round()).abs() > crate::INT_TOL.max(tol)
            {
                return false;
            }
        }
        self.constraints
            .iter()
            .all(|c| c.is_satisfied(values, tol.max(FEAS_TOL)))
    }

    /// Evaluates the objective (including its constant) for `values`.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective.eval(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_bounds_clamped() {
        let mut p = Problem::minimize();
        let b = p.add_var("b", VarKind::Binary, -3.0, 7.0);
        assert_eq!(p.bounds(b), (0.0, 1.0));
    }

    #[test]
    fn integer_bounds_tightened() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Integer, 0.3, 4.7);
        assert_eq!(p.bounds(x), (1.0, 4.0));
    }

    #[test]
    fn constant_folds_into_rhs() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Continuous, 0.0, 10.0);
        p.add_le(LinExpr::term(x, 1.0) + 2.0, 5.0);
        assert_eq!(p.constraints()[0].rhs(), 3.0);
    }

    #[test]
    fn feasibility_checks_everything() {
        let mut p = Problem::minimize();
        let x = p.add_var("x", VarKind::Integer, 0.0, 10.0);
        let y = p.add_var("y", VarKind::Continuous, 0.0, 1.0);
        p.add_le(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), 3.0);
        assert!(p.is_feasible(&[2.0, 0.5], 1e-9));
        assert!(!p.is_feasible(&[2.5, 0.0], 1e-9), "fractional integer");
        assert!(!p.is_feasible(&[3.0, 0.5], 1e-9), "constraint violated");
        assert!(!p.is_feasible(&[11.0, 0.0], 1e-9), "bound violated");
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn rejects_empty_domain() {
        let mut p = Problem::minimize();
        p.add_var("x", VarKind::Integer, 0.6, 0.8);
    }
}
