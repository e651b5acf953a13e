//! Property-based validation of warm-basis re-solves of a mutated problem
//! against cold rebuilds. (The agreement of the sparse engine with the
//! dense tableau oracle is a unit test, since the oracle is test-only.)

use flexsp_milp::{
    solve_lp, solve_lp_opts, LinExpr, LpOptions, LpOutcome, Problem, VarId, VarKind,
};
use proptest::prelude::*;

/// A small random bounded LP (continuous variables only).
#[derive(Debug, Clone)]
struct RandomLp {
    n_vars: usize,
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
        (upper, obj, any::<bool>(), rows).prop_map(move |(upper, obj, maximize, rows)| RandomLp {
            n_vars: n,
            upper,
            obj,
            maximize,
            rows,
        })
    })
}

fn build(lp: &RandomLp) -> (Problem, Vec<VarId>) {
    let mut p = if lp.maximize {
        Problem::maximize()
    } else {
        Problem::minimize()
    };
    let vars: Vec<_> = (0..lp.n_vars)
        .map(|i| {
            p.add_var(
                format!("x{i}"),
                VarKind::Continuous,
                0.0,
                lp.upper[i] as f64,
            )
        })
        .collect();
    for (coefs, cmp, rhs) in &lp.rows {
        let e = LinExpr::from_terms(vars.iter().copied().zip(coefs.iter().map(|&c| c as f64)));
        match cmp {
            0 => p.add_le(e, *rhs as f64),
            1 => p.add_ge(e, *rhs as f64),
            _ => p.add_eq(e, *rhs as f64),
        }
    }
    p.set_objective(LinExpr::from_terms(
        vars.iter().copied().zip(lp.obj.iter().map(|&c| c as f64)),
    ));
    (p, vars)
}

/// A structured mutation of an existing LP: new RHS and new first-variable
/// coefficient per row (the same edit `AggregatedModel::set_makespan`
/// performs each binary-search step), new upper bound and new objective
/// coefficient per variable.
#[derive(Debug, Clone)]
struct Mutation {
    rhs: Vec<i32>,
    coef0: Vec<i32>,
    upper: Vec<i32>,
    obj: Vec<i32>,
}

fn mutation_for(n_vars: usize, n_rows: usize) -> impl Strategy<Value = Mutation> {
    (
        prop::collection::vec(-8i32..=16, n_rows..=n_rows),
        prop::collection::vec(-4i32..=4, n_rows..=n_rows),
        prop::collection::vec(1i32..=6, n_vars..=n_vars),
        prop::collection::vec(-5i32..=5, n_vars..=n_vars),
    )
        .prop_map(|(rhs, coef0, upper, obj)| Mutation {
            rhs,
            coef0,
            upper,
            obj,
        })
}

/// The same LP data with the mutation already applied, for cold rebuilds.
fn apply_mutation(lp: &RandomLp, m: &Mutation) -> RandomLp {
    let mut out = lp.clone();
    out.upper = m.upper.clone();
    out.obj = m.obj.clone();
    for ((row, &rhs), &c0) in out.rows.iter_mut().zip(&m.rhs).zip(&m.coef0) {
        row.2 = rhs;
        row.0[0] = c0;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Mutating a solved problem in place (RHS, bounds, objective) and
    /// warm re-solving from the previous basis must match a cold solve of
    /// an identically mutated fresh build.
    #[test]
    fn mutated_resolve_matches_cold_rebuild(
        (lp, mutation) in random_lp().prop_flat_map(|lp| {
            let (nv, nr) = (lp.n_vars, lp.rows.len());
            (Just(lp), mutation_for(nv, nr))
        }),
    ) {
        let (mut p, vars) = build(&lp);
        let (first, _) = solve_lp_opts(&p, &LpOptions::default()).unwrap();
        let basis = match &first {
            LpOutcome::Optimal(s) => s.basis().expect("sparse engine returns a basis").clone(),
            // Warm starts only exist after an optimal solve.
            _ => { prop_assume!(false); unreachable!() }
        };

        // Mutate in place.
        for (idx, &rhs) in mutation.rhs.iter().enumerate() {
            p.set_rhs(idx, rhs as f64);
            p.set_constraint_coef(idx, vars[0], mutation.coef0[idx] as f64);
        }
        for (i, &v) in vars.iter().enumerate() {
            p.set_bounds(v, 0.0, mutation.upper[i] as f64);
            p.set_objective_coef(v, mutation.obj[i] as f64);
        }

        let (warm, warm_stats) = solve_lp_opts(
            &p,
            &LpOptions { warm_basis: Some(&basis), ..Default::default() },
        )
        .unwrap();
        prop_assert!(warm_stats.warm_attempted);

        let (cold_build, _) = build(&apply_mutation(&lp, &mutation));
        let cold = solve_lp(&cold_build, None)
            .expect("bounded LPs never hit iteration limits at this size");

        match (&warm, &cold) {
            (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) => {
                prop_assert!(
                    (a.objective - b.objective).abs() < 1e-5,
                    "warm {} vs cold rebuild {}",
                    a.objective,
                    b.objective
                );
                prop_assert!(p.is_feasible(&a.values, 1e-6), "warm solution infeasible");
            }
            (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
            (LpOutcome::Unbounded, LpOutcome::Unbounded) => {}
            other => {
                return Err(TestCaseError::fail(format!(
                    "warm and cold rebuild disagree: {other:?}"
                )));
            }
        }
    }
}
