//! Linear expressions over problem variables.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Opaque handle to a decision variable of a [`Problem`](crate::Problem).
///
/// Handles are only meaningful for the problem that created them; using a
/// handle with a different problem panics in the solver entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Index of the variable within its problem (insertion order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A linear expression `Σ cᵢ·xᵢ + k`.
///
/// Expressions support `+`, `-`, scaling by `f64`, and incremental
/// construction via [`LinExpr::add_term`]. Terms referring to the same
/// variable are merged lazily by the solver, so building expressions by
/// repeated `add_term` is cheap.
///
/// # Example
///
/// ```
/// use flexsp_milp::{LinExpr, Problem, VarKind};
/// let mut p = Problem::minimize();
/// let x = p.add_var("x", VarKind::Continuous, 0.0, 1.0);
/// let y = p.add_var("y", VarKind::Continuous, 0.0, 1.0);
/// let e = LinExpr::term(x, 2.0) + LinExpr::term(y, -1.0) + 3.0;
/// assert_eq!(e.constant(), 3.0);
/// assert_eq!(e.terms().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// A single term `coef · var`.
    pub fn term(var: VarId, coef: f64) -> Self {
        Self {
            terms: vec![(var, coef)],
            constant: 0.0,
        }
    }

    /// A constant expression.
    pub fn constant_expr(k: f64) -> Self {
        Self {
            terms: Vec::new(),
            constant: k,
        }
    }

    /// Builds an expression from `(var, coef)` pairs.
    pub fn from_terms<I: IntoIterator<Item = (VarId, f64)>>(iter: I) -> Self {
        Self {
            terms: iter.into_iter().collect(),
            constant: 0.0,
        }
    }

    /// Appends `coef · var` to the expression.
    pub fn add_term(&mut self, var: VarId, coef: f64) -> &mut Self {
        self.terms.push((var, coef));
        self
    }

    /// The (unmerged) terms of the expression.
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// Sets the *total* coefficient of `var`, merging any duplicate terms
    /// it had. The term is kept even when `coef` is zero so the sparsity
    /// pattern of a mutated problem stays stable — which is what lets a
    /// [`Basis`](crate::Basis) survive coefficient edits.
    pub fn set_coef(&mut self, var: VarId, coef: f64) -> &mut Self {
        self.terms.retain(|&(v, _)| v != var);
        self.terms.push((var, coef));
        self
    }

    /// The constant offset.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Returns the dense coefficient vector over `n_vars` variables,
    /// merging duplicate terms.
    ///
    /// # Panics
    ///
    /// Panics if a term refers to a variable index `>= n_vars`.
    pub fn to_dense(&self, n_vars: usize) -> Vec<f64> {
        let mut out = vec![0.0; n_vars];
        for &(v, c) in &self.terms {
            assert!(
                v.index() < n_vars,
                "expression references variable {v} outside the problem ({n_vars} vars)"
            );
            out[v.index()] += c;
        }
        out
    }

    /// Evaluates the expression under the assignment `values` (indexed by
    /// variable index).
    pub fn eval(&self, values: &[f64]) -> f64 {
        let mut acc = self.constant;
        for &(v, c) in &self.terms {
            acc += c * values[v.index()];
        }
        acc
    }
}

impl From<f64> for LinExpr {
    fn from(k: f64) -> Self {
        LinExpr::constant_expr(k)
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::term(v, 1.0)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self.constant -= rhs.constant;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self.constant -= rhs.constant;
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        for t in &mut self.terms {
            t.1 *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self * -1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn dense_merges_duplicates() {
        let mut e = LinExpr::term(v(0), 1.0);
        e.add_term(v(0), 2.5).add_term(v(1), -1.0);
        let d = e.to_dense(3);
        assert_eq!(d, vec![3.5, -1.0, 0.0]);
    }

    #[test]
    fn arithmetic_composes() {
        let e = (LinExpr::term(v(0), 2.0) + LinExpr::term(v(1), 3.0) + 1.0) * 2.0
            - LinExpr::term(v(0), 1.0);
        let d = e.to_dense(2);
        assert_eq!(d, vec![3.0, 6.0]);
        assert_eq!(e.constant(), 2.0);
    }

    #[test]
    fn eval_matches_dense() {
        let e = LinExpr::from_terms([(v(0), 1.5), (v(2), -2.0)]) + 4.0;
        let vals = [2.0, 9.0, 1.0];
        assert!((e.eval(&vals) - (3.0 - 2.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside the problem")]
    fn dense_panics_on_foreign_var() {
        LinExpr::term(v(5), 1.0).to_dense(2);
    }
}
