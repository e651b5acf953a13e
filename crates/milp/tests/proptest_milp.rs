//! Property-based validation of the MILP solver against exhaustive
//! enumeration on small random integer programs.

use flexsp_milp::{LinExpr, MilpSolver, MilpStatus, Problem, VarKind};
use proptest::prelude::*;

/// A small random pure-integer program.
#[derive(Debug, Clone)]
struct RandomIp {
    n_vars: usize,
    upper: Vec<i32>,
    obj: Vec<i32>,
    maximize: bool,
    /// Each row: (coefficients, cmp: 0 = Le / 1 = Ge, rhs)
    rows: Vec<(Vec<i32>, u8, i32)>,
}

fn random_ip() -> impl Strategy<Value = RandomIp> {
    (2usize..=4).prop_flat_map(|n| {
        let upper = prop::collection::vec(1i32..=4, n);
        let obj = prop::collection::vec(-5i32..=5, n);
        let row = (prop::collection::vec(-4i32..=4, n), 0u8..=1, -6i32..=12);
        let rows = prop::collection::vec(row, 1..=3);
        (upper, obj, any::<bool>(), rows).prop_map(move |(upper, obj, maximize, rows)| RandomIp {
            n_vars: n,
            upper,
            obj,
            maximize,
            rows,
        })
    })
}

/// Brute-force the optimum over the full integer grid.
fn brute_force(ip: &RandomIp) -> Option<f64> {
    let mut best: Option<f64> = None;
    let mut point = vec![0i32; ip.n_vars];
    loop {
        let feasible = ip.rows.iter().all(|(coefs, cmp, rhs)| {
            let lhs: i32 = coefs.iter().zip(&point).map(|(c, x)| c * x).sum();
            match cmp {
                0 => lhs <= *rhs,
                _ => lhs >= *rhs,
            }
        });
        if feasible {
            let val: i32 = ip.obj.iter().zip(&point).map(|(c, x)| c * x).sum();
            let val = val as f64;
            best = Some(match best {
                None => val,
                Some(b) => {
                    if ip.maximize {
                        b.max(val)
                    } else {
                        b.min(val)
                    }
                }
            });
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == ip.n_vars {
                return best;
            }
            point[i] += 1;
            if point[i] <= ip.upper[i] {
                break;
            }
            point[i] = 0;
            i += 1;
        }
    }
}

fn build_problem(ip: &RandomIp) -> Problem {
    build_prioritized(ip, &[])
}

/// `ip` as a [`Problem`], with `priorities[i]` (where given) as the
/// branching priority of variable `i`.
fn build_prioritized(ip: &RandomIp, priorities: &[u32]) -> Problem {
    let mut p = if ip.maximize {
        Problem::maximize()
    } else {
        Problem::minimize()
    };
    let vars: Vec<_> = (0..ip.n_vars)
        .map(|i| p.add_var(format!("x{i}"), VarKind::Integer, 0.0, ip.upper[i] as f64))
        .collect();
    for (&v, &priority) in vars.iter().zip(priorities) {
        p.set_branch_priority(v, priority);
    }
    for (coefs, cmp, rhs) in &ip.rows {
        let e = LinExpr::from_terms(vars.iter().copied().zip(coefs.iter().map(|&c| c as f64)));
        match cmp {
            0 => p.add_le(e, *rhs as f64),
            _ => p.add_ge(e, *rhs as f64),
        }
    }
    p.set_objective(LinExpr::from_terms(
        vars.iter().copied().zip(ip.obj.iter().map(|&c| c as f64)),
    ));
    p
}

/// Solves `p`, which is `ip` as a [`Problem`], and checks the result
/// against exhaustive enumeration: the same optimum, or infeasible.
fn assert_solves_to_brute_force(ip: &RandomIp, p: &Problem) -> Result<(), TestCaseError> {
    let sol = MilpSolver::new().solve(p).unwrap();
    match brute_force(ip) {
        None => prop_assert_eq!(sol.status(), MilpStatus::Infeasible),
        Some(best) => {
            prop_assert!(
                sol.status().has_solution(),
                "solver said {:?} but brute force found {best}",
                sol.status()
            );
            prop_assert!(
                (sol.objective() - best).abs() < 1e-6,
                "solver {} vs brute force {best}",
                sol.objective()
            );
            // The incumbent must actually be feasible.
            prop_assert!(p.is_feasible(sol.values(), 1e-6));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_matches_brute_force(ip in random_ip()) {
        assert_solves_to_brute_force(&ip, &build_problem(&ip))?;
    }

    /// Branching priorities reorder the search but never cut a point
    /// off: with any priorities, the solver still reaches the optimum.
    #[test]
    fn priorities_keep_the_brute_force_optimum(
        ip in random_ip(),
        priorities in prop::collection::vec(0u32..=2, 4),
    ) {
        assert_solves_to_brute_force(&ip, &build_prioritized(&ip, &priorities))?;
    }

    #[test]
    fn lp_relaxation_bounds_milp(ip in random_ip()) {
        let p = build_problem(&ip);
        if let (Some(best), flexsp_milp::LpOutcome::Optimal(lp)) =
            (brute_force(&ip), flexsp_milp::solve_lp(&p, None).unwrap())
        {
            if ip.maximize {
                prop_assert!(lp.objective >= best - 1e-6);
            } else {
                prop_assert!(lp.objective <= best + 1e-6);
            }
        }
    }

    #[test]
    fn warm_start_never_hurts(ip in random_ip()) {
        let p = build_problem(&ip);
        if let Some(best) = brute_force(&ip) {
            // Find any feasible point to use as the warm start.
            let mut ws = vec![0.0; ip.n_vars];
            let zero_ok = ip.rows.iter().all(|(coefs, cmp, rhs)| {
                let _ = coefs;
                match cmp { 0 => 0 <= *rhs, _ => 0 >= *rhs }
            });
            if zero_ok {
                let sol = MilpSolver::new().warm_start(ws.clone()).solve(&p).unwrap();
                prop_assert!((sol.objective() - best).abs() < 1e-6);
            } else {
                ws.clear();
            }
        }
    }
}
