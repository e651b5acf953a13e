//! Sparse column storage of the constraint matrix.
//!
//! The matrix is built directly from each constraint's
//! [`LinExpr`](crate::LinExpr) terms — no dense per-constraint row is ever
//! materialized — and stored in compressed-sparse-column (CSC) form over
//! the *structural* variables. Slack and artificial columns are unit
//! vectors and are synthesized on the fly by [`SparseModel::col`].
//!
//! A MILP solve builds one model and shares it read-only with the root
//! and every branch-and-bound relaxation, because branching moves only
//! variable bounds, which the engine takes separately. A standalone LP
//! solve builds its own. Rows without variable terms are checked at build
//! time and never reach the engine.

use crate::problem::{Cmp, Problem};
use crate::FEAS_TOL;

/// Augmented-column entries: `(row, coefficient)` pairs.
pub(crate) enum ColEntries<'a> {
    Structural(std::iter::Zip<std::slice::Iter<'a, u32>, std::slice::Iter<'a, f64>>),
    Unit(std::option::IntoIter<(usize, f64)>),
}

impl Iterator for ColEntries<'_> {
    type Item = (usize, f64);
    fn next(&mut self) -> Option<(usize, f64)> {
        match self {
            ColEntries::Structural(it) => it.next().map(|(&r, &v)| (r as usize, v)),
            ColEntries::Unit(it) => it.next(),
        }
    }
}

/// CSC view of a [`Problem`]'s kept constraint rows plus implicit slack
/// and artificial columns.
///
/// Column layout (`n = nv + 2m` augmented columns):
/// * `0..nv` — structural variables, coefficients from the constraints;
/// * `nv..nv+m` — one slack per row (`+1` for `≤`/`=`, `−1` for `≥`;
///   the `=` slack is fixed to zero by its bounds);
/// * `nv+m..nv+2m` — one artificial per row (`+1`), used by phase 1 and
///   pinned to zero afterwards.
pub(crate) struct SparseModel {
    pub nv: usize,
    pub m: usize,
    col_ptr: Vec<usize>,
    col_rows: Vec<u32>,
    col_vals: Vec<f64>,
    pub row_cmp: Vec<Cmp>,
    pub rhs: Vec<f64>,
}

/// Outcome of extracting the rows of a problem.
pub(crate) enum BuildOutcome {
    Model(SparseModel),
    /// A constraint with no variable terms is violated outright.
    TriviallyInfeasible,
}

impl SparseModel {
    /// Builds the CSC model, checking variable-free constraints directly.
    pub fn build(problem: &Problem) -> BuildOutcome {
        let nv = problem.num_vars();
        let mut row_cmp = Vec::new();
        let mut rhs = Vec::new();
        // Per-column scratch: (row, coefficient) lists, duplicates merged
        // per row as they are appended.
        let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nv];
        for c in problem.constraints() {
            if c.expr().terms().is_empty() {
                let ok = match c.cmp() {
                    Cmp::Le => 0.0 <= c.rhs() + FEAS_TOL,
                    Cmp::Ge => 0.0 >= c.rhs() - FEAS_TOL,
                    Cmp::Eq => c.rhs().abs() <= FEAS_TOL,
                };
                if !ok {
                    return BuildOutcome::TriviallyInfeasible;
                }
                continue;
            }
            let r = row_cmp.len() as u32;
            for &(v, coef) in c.expr().terms() {
                assert!(
                    v.index() < nv,
                    "constraint {} references variable {v} outside the problem ({nv} vars)",
                    c.name()
                );
                let col = &mut cols[v.index()];
                match col.last_mut() {
                    Some((row, val)) if *row == r => *val += coef,
                    _ => col.push((r, coef)),
                }
            }
            row_cmp.push(c.cmp());
            rhs.push(c.rhs());
        }
        let m = row_cmp.len();
        let mut col_ptr = Vec::with_capacity(nv + 1);
        let mut col_rows = Vec::new();
        let mut col_vals = Vec::new();
        col_ptr.push(0);
        for col in &cols {
            for &(r, v) in col {
                col_rows.push(r);
                col_vals.push(v);
            }
            col_ptr.push(col_rows.len());
        }
        BuildOutcome::Model(SparseModel {
            nv,
            m,
            col_ptr,
            col_rows,
            col_vals,
            row_cmp,
            rhs,
        })
    }

    /// Total augmented columns.
    pub fn n(&self) -> usize {
        self.nv + 2 * self.m
    }

    /// The entries of augmented column `j`.
    pub fn col(&self, j: usize) -> ColEntries<'_> {
        if j < self.nv {
            let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
            ColEntries::Structural(self.col_rows[s..e].iter().zip(self.col_vals[s..e].iter()))
        } else if j < self.nv + self.m {
            let r = j - self.nv;
            let v = match self.row_cmp[r] {
                Cmp::Le | Cmp::Eq => 1.0,
                Cmp::Ge => -1.0,
            };
            ColEntries::Unit(Some((r, v)).into_iter())
        } else {
            ColEntries::Unit(Some((j - self.nv - self.m, 1.0)).into_iter())
        }
    }

    /// `y · a_j` for augmented column `j` (used in pricing).
    pub fn dot_col(&self, y: &[f64], j: usize) -> f64 {
        if j < self.nv {
            let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
            self.col_rows[s..e]
                .iter()
                .zip(&self.col_vals[s..e])
                .map(|(&r, &v)| y[r as usize] * v)
                .sum()
        } else if j < self.nv + self.m {
            let r = j - self.nv;
            match self.row_cmp[r] {
                Cmp::Le | Cmp::Eq => y[r],
                Cmp::Ge => -y[r],
            }
        } else {
            y[j - self.nv - self.m]
        }
    }

    /// Scatters column `j` into the dense vector `out` (assumed zeroed on
    /// the column's rows beforehand).
    pub fn scatter_col(&self, j: usize, out: &mut [f64]) {
        for (r, v) in self.col(j) {
            out[r] = v;
        }
    }
}
