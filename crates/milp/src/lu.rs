//! Explicit inverse of the simplex basis matrix.
//!
//! The basis `B` is held as its dense `m × m` inverse, stored column-major.
//! Installing a basis inverts it by Gauss-Jordan elimination with partial
//! pivoting; each pivot then updates the inverse in place with the
//! product-form update, `O(m²)`, and the inverse is rebuilt from the basis
//! columns every [`REFACTOR_INTERVAL`] updates. The planner's bases are
//! small (tens of rows), so a dense inverse is both simpler and faster
//! than factors at this scale: FTRAN of a sparse column combines one
//! inverse column per nonzero, BTRAN is one dot product per inverse
//! column, and the dual simplex's pivot row `e_rᵀB⁻¹` is a row read.
//!
//! An inverse is `Clone`, and its update count travels with it: branch and
//! bound hands a node's inverse to its children, which keep updating it
//! until the count reaches the interval.

/// Updates between rebuilds of the inverse.
pub(crate) const REFACTOR_INTERVAL: usize = 64;

/// Pivot threshold below which the basis is declared singular.
const SINGULAR_TOL: f64 = 1e-10;

/// The dense inverse of a basis matrix.
#[derive(Debug, Clone)]
pub(crate) struct BasisInverse {
    m: usize,
    /// Column-major `m × m`: entry `(i, k)` of `B⁻¹` at `inv[k·m + i]`.
    inv: Vec<f64>,
    /// Product-form updates since the inverse was last rebuilt.
    updates: usize,
}

impl BasisInverse {
    /// The inverse of the `m × m` identity.
    pub fn identity(m: usize) -> Self {
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        Self { m, inv, updates: 0 }
    }

    /// Inverts the dense column-major `m × m` matrix `a` by Gauss-Jordan
    /// elimination with partial pivoting. Returns `None` if the matrix is
    /// numerically singular.
    pub fn invert(m: usize, mut a: Vec<f64>) -> Option<Self> {
        debug_assert_eq!(a.len(), m * m);
        let mut out = Self::identity(m);
        let inv = &mut out.inv;
        for k in 0..m {
            // Partial pivoting: largest |entry| in column k at/below row k.
            let col = &a[k * m..(k + 1) * m];
            let mut best = k;
            for i in k + 1..m {
                if col[i].abs() > col[best].abs() {
                    best = i;
                }
            }
            let pivot = col[best];
            if pivot.abs() <= SINGULAR_TOL {
                return None;
            }
            if best != k {
                for c in 0..m {
                    a.swap(c * m + k, c * m + best);
                    inv.swap(c * m + k, c * m + best);
                }
            }
            // Scale row k to a unit pivot, then clear column k from every
            // other row. Columns of `a` left of k are already unit vectors.
            for c in k..m {
                a[c * m + k] /= pivot;
            }
            for c in 0..m {
                inv[c * m + k] /= pivot;
            }
            for i in 0..m {
                let f = a[k * m + i];
                if i == k || f == 0.0 {
                    continue;
                }
                for c in k..m {
                    a[c * m + i] -= f * a[c * m + k];
                }
                for c in 0..m {
                    inv[c * m + i] -= f * inv[c * m + k];
                }
            }
        }
        Some(out)
    }

    /// Product-form updates since the inverse was last rebuilt.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Replaces basis column `r` by the entering column `a`, given
    /// `w = B⁻¹·a`: row `r` of the inverse is divided by `w_r`, and
    /// `w_i` times the new row `r` is taken off every other row `i`.
    /// Returns `false` (update refused, inverse unchanged) when the pivot
    /// element `w_r` is too small.
    pub fn push_update(&mut self, r: usize, w: &[f64]) -> bool {
        let wr = w[r];
        if wr.abs() <= SINGULAR_TOL {
            return false;
        }
        let m = self.m;
        for k in 0..m {
            let col = &mut self.inv[k * m..(k + 1) * m];
            let t = col[r] / wr;
            if t != 0.0 {
                for (x, &wi) in col.iter_mut().zip(w) {
                    *x -= wi * t;
                }
            }
            col[r] = t;
        }
        self.updates += 1;
        true
    }

    /// `B⁻¹·a` for a sparse column given by its `(row, value)` entries: a
    /// combination of one inverse column per entry.
    pub fn ftran_sparse(&self, entries: impl IntoIterator<Item = (usize, f64)>) -> Vec<f64> {
        let m = self.m;
        let mut x = vec![0.0; m];
        for (k, v) in entries {
            if v != 0.0 {
                let col = &self.inv[k * m..(k + 1) * m];
                for (xi, &bik) in x.iter_mut().zip(col) {
                    *xi += bik * v;
                }
            }
        }
        x
    }

    /// Solves `B·x = v` in place (`v` becomes `x`).
    pub fn ftran(&self, v: &mut [f64]) {
        debug_assert_eq!(v.len(), self.m);
        let x = self.ftran_sparse(v.iter().copied().enumerate());
        v.copy_from_slice(&x);
    }

    /// Solves `Bᵀ·y = c` in place (`c` becomes `y`): `y_k` is column `k`
    /// of the inverse dotted with `c`.
    pub fn btran(&self, c: &mut [f64]) {
        let m = self.m;
        debug_assert_eq!(c.len(), m);
        let y: Vec<f64> = (0..m)
            .map(|k| {
                let col = &self.inv[k * m..(k + 1) * m];
                col.iter().zip(c.iter()).map(|(a, b)| a * b).sum()
            })
            .collect();
        c.copy_from_slice(&y);
    }

    /// Row `r` of the inverse, `e_rᵀ·B⁻¹`: the dual simplex's pivot row.
    pub fn row(&self, r: usize) -> Vec<f64> {
        self.inv.iter().skip(r).step_by(self.m).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `A·x` for the column-major `m × m` matrix `a`.
    fn matvec(a: &[f64], m: usize, x: &[f64]) -> Vec<f64> {
        (0..m)
            .map(|i| (0..m).map(|j| a[j * m + i] * x[j]).sum())
            .collect()
    }

    /// `Aᵀ·y` for the column-major `m × m` matrix `a`.
    fn matvec_t(a: &[f64], m: usize, y: &[f64]) -> Vec<f64> {
        (0..m)
            .map(|j| (0..m).map(|i| a[j * m + i] * y[i]).sum())
            .collect()
    }

    fn approx(a: &[f64], b: &[f64]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-8, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn ftran_btran_invert_small_matrix() {
        let m = 3;
        // Column-major: columns (2, −1, 0.5), (1, 3, 0), (0, 2, 1).
        let a = vec![2.0, -1.0, 0.5, 1.0, 3.0, 0.0, 0.0, 2.0, 1.0];
        let f = BasisInverse::invert(m, a.clone()).unwrap();
        let x_true = vec![1.0, -2.0, 3.0];
        let mut v = matvec(&a, m, &x_true);
        f.ftran(&mut v);
        approx(&v, &x_true);
        let y_true = vec![0.5, 1.5, -1.0];
        let mut c = matvec_t(&a, m, &y_true);
        f.btran(&mut c);
        approx(&c, &y_true);
    }

    #[test]
    fn eta_updates_track_column_replacement() {
        let m = 3;
        let mut a = vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let mut f = BasisInverse::invert(m, a.clone()).unwrap();
        // Replace column 1 with a_new = [2, 4, 1]ᵀ.
        let a_new = [2.0, 4.0, 1.0];
        let w = f.ftran_sparse(a_new.iter().copied().enumerate());
        assert!(f.push_update(1, &w));
        assert_eq!(f.updates(), 1);
        a[m..2 * m].copy_from_slice(&a_new);
        let x_true = vec![2.0, -1.0, 0.5];
        let mut v = matvec(&a, m, &x_true);
        f.ftran(&mut v);
        approx(&v, &x_true);
        let y_true = vec![-1.0, 0.25, 2.0];
        let mut c = matvec_t(&a, m, &y_true);
        f.btran(&mut c);
        approx(&c, &y_true);
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        assert!(BasisInverse::invert(2, a).is_none());
    }

    /// A random basis of size `m` and a sequence of column replacements.
    #[derive(Debug, Clone)]
    struct Replacements {
        m: usize,
        /// Column-major entries, in hundredths.
        basis: Vec<i32>,
        /// Each step: the replaced position, the new column in
        /// hundredths, and the column a zero-pivot replacement copies.
        steps: Vec<(usize, Vec<i32>, usize)>,
        /// Probe vectors for FTRAN and BTRAN, in hundredths.
        probe: Vec<i32>,
    }

    fn replacements() -> impl Strategy<Value = Replacements> {
        (2usize..=8).prop_flat_map(|m| {
            let basis = prop::collection::vec(-300i32..=300, m * m);
            let step = (0..m, prop::collection::vec(-300i32..=300, m), 0..m);
            let steps = prop::collection::vec(step, 1..=12);
            let probe = prop::collection::vec(-300i32..=300, m);
            (basis, steps, probe).prop_map(move |(basis, steps, probe)| Replacements {
                m,
                basis,
                steps,
                probe,
            })
        })
    }

    fn hundredths(v: &[i32]) -> Vec<f64> {
        v.iter().map(|&x| f64::from(x) / 100.0).collect()
    }

    /// `got` matches `want` within `1e-9` relative to the larger of
    /// `want`'s largest entry and 1.
    fn close(got: &[f64], want: &[f64]) -> Result<(), TestCaseError> {
        let scale = want.iter().fold(1.0f64, |s, x| s.max(x.abs()));
        for (g, w) in got.iter().zip(want) {
            prop_assert!((g - w).abs() <= 1e-9 * scale, "{got:?} vs {want:?}");
        }
        Ok(())
    }

    /// Whether every inverse entry is moderate: with matrix entries
    /// within ±3, the basis is then far from singular and inversions
    /// agree to 1e-9.
    fn well_conditioned(inv: &BasisInverse) -> bool {
        inv.inv.iter().all(|x| x.abs() <= 1e3)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After any run of column replacements, the updated inverse
        /// answers FTRAN, BTRAN and row reads as a fresh inversion of the
        /// replaced matrix does. A replacement that makes the basis
        /// singular (a copy of another basis column, zero pivot) is
        /// refused and leaves the inverse as it was.
        #[test]
        fn updated_inverse_matches_a_fresh_inversion(case in replacements()) {
            let m = case.m;
            let mut a = hundredths(&case.basis);
            let mut inv = match BasisInverse::invert(m, a.clone()) {
                Some(inv) if well_conditioned(&inv) => inv,
                _ => return Err(TestCaseError::Reject),
            };
            let probe = hundredths(&case.probe);
            for (r, col, copy) in &case.steps {
                let (r, col) = (*r, hundredths(col));
                if *copy != r {
                    let other = a[copy * m..(copy + 1) * m].to_vec();
                    let w = inv.ftran_sparse(other.into_iter().enumerate());
                    let before = (inv.row(r), inv.updates());
                    prop_assert!(!inv.push_update(r, &w), "zero pivot accepted");
                    prop_assert_eq!((inv.row(r), inv.updates()), before);
                }
                let mut next = a.clone();
                next[r * m..(r + 1) * m].copy_from_slice(&col);
                // Skip replacements that leave the basis near singular,
                // where no inversion is accurate to 1e-9.
                let fresh = match BasisInverse::invert(m, next.clone()) {
                    Some(fresh) if well_conditioned(&fresh) => fresh,
                    _ => continue,
                };
                let w = inv.ftran_sparse(col.iter().copied().enumerate());
                prop_assert!(inv.push_update(r, &w), "nonsingular replacement refused");
                a = next;

                // Each answer matches the fresh inversion's and solves its
                // own system: B·x = v, Bᵀ·y = c and row_i·B = e_iᵀ.
                let (mut x, mut x_fresh) = (probe.clone(), probe.clone());
                inv.ftran(&mut x);
                fresh.ftran(&mut x_fresh);
                close(&x, &x_fresh)?;
                close(&matvec(&a, m, &x), &probe)?;
                let (mut y, mut y_fresh) = (probe.clone(), probe.clone());
                inv.btran(&mut y);
                fresh.btran(&mut y_fresh);
                close(&y, &y_fresh)?;
                close(&matvec_t(&a, m, &y), &probe)?;
                for i in 0..m {
                    let row = inv.row(i);
                    close(&row, &fresh.row(i))?;
                    let unit: Vec<f64> = (0..m).map(|k| f64::from(u8::from(k == i))).collect();
                    close(&matvec_t(&a, m, &row), &unit)?;
                }
            }
        }
    }
}
