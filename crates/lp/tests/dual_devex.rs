//! Differential suites for the warm-start accelerator: the dual-simplex
//! repair loop must change *how fast* the solver gets to an answer,
//! never *which* answer. Warm re-solves are pitted against cold primal
//! solves (`dual_warm: false`) of the same model and must match in
//! verdict and objective. Devex's answers are held to the dense
//! tableau by `cawo_exact`'s `lp_parity` suite.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cawo_lp::{solve, LpStatus, RowCmp, SimplexOptions, SimplexSolver, SparseLp};

/// Same constructed-feasible generator as `random_lp.rs`: bounds are
/// sampled around a witness point and rhs values keep it feasible.
fn random_feasible_lp(rng: &mut StdRng, n: usize, m: usize) -> (SparseLp, Vec<f64>) {
    let mut lp = SparseLp::new();
    let mut witness = Vec::with_capacity(n);
    for _ in 0..n {
        let x = rng.gen_range(-5.0..5.0);
        let lo = if rng.gen_range(0..4) == 0 {
            f64::NEG_INFINITY
        } else {
            x - rng.gen_range(0.0..4.0)
        };
        let hi = if rng.gen_range(0..4) == 0 {
            f64::INFINITY
        } else {
            x + rng.gen_range(0.0..4.0)
        };
        let c = match (lo.is_finite(), hi.is_finite()) {
            (true, true) => rng.gen_range(-3.0..3.0),
            (true, false) => rng.gen_range(0.0..3.0),
            (false, true) => rng.gen_range(-3.0..0.0),
            (false, false) => 0.0,
        };
        lp.add_col(c, lo, hi);
        witness.push(x);
    }
    for _ in 0..m {
        let k = rng.gen_range(1..=3.min(n));
        let mut terms: Vec<(u32, f64)> = Vec::new();
        for _ in 0..k {
            terms.push((rng.gen_range(0..n) as u32, rng.gen_range(-4.0..4.0)));
        }
        let lhs: f64 = terms.iter().map(|&(j, a)| a * witness[j as usize]).sum();
        match rng.gen_range(0..3) {
            0 => lp.add_row(terms, RowCmp::Le, lhs + rng.gen_range(0.0..2.0)),
            1 => lp.add_row(terms, RowCmp::Ge, lhs - rng.gen_range(0.0..2.0)),
            _ => lp.add_row(terms, RowCmp::Eq, lhs),
        }
    }
    (lp, witness)
}

fn opts(dual_warm: bool) -> SimplexOptions {
    SimplexOptions {
        dual_warm,
        ..SimplexOptions::default()
    }
}

#[test]
fn dual_warm_resolve_matches_cold_primal_after_bound_tightening() {
    let mut rng = StdRng::seed_from_u64(0xDA_2026);
    let mut dual_engaged = 0u32;
    let mut repaired = 0u32;
    for trial in 0..200 {
        let n = rng.gen_range(2..12);
        let m = rng.gen_range(1..12);
        let (mut lp, _) = random_feasible_lp(&mut rng, n, m);
        let mut solver = SimplexSolver::new(&lp);
        let first = solver.solve(&opts(true));
        assert_eq!(first.status, LpStatus::Optimal, "trial {trial}");

        // Branch the way B&B does: clamp a bounded column to a
        // sub-range of its domain, preferably cutting off its current
        // optimal value so the warm basis is primal-infeasible.
        let j = rng.gen_range(0..n);
        let (lo, hi) = lp.bounds(j);
        if !lo.is_finite() || !hi.is_finite() || hi - lo < 1e-9 {
            continue;
        }
        let cut = lo + (hi - lo) * rng.gen_range(0.2..0.8);
        let (nlo, nhi) = if first.x[j] > cut {
            (lo, cut) // floor branch: x_j ≤ cut
        } else {
            (cut, hi) // ceil branch: x_j ≥ cut
        };
        solver.set_col_bounds(j, nlo, nhi);
        let warm = solver.solve(&opts(true));
        // A bound change never touches reduced costs, so the warm
        // basis re-solves in zero pivots iff it stayed primal
        // feasible; any pivots at all mean a repair was needed — and
        // that repair is exactly the dual loop's job.
        if warm.iterations > 0 {
            repaired += 1;
            if warm.stats.dual_iters > 0 {
                dual_engaged += 1;
            }
        }

        lp.set_bounds(j, nlo, nhi);
        let cold = solve(&lp, &opts(false));
        assert_eq!(warm.status, cold.status, "trial {trial}");
        if cold.status == LpStatus::Optimal {
            assert!(
                (warm.objective - cold.objective).abs() < 1e-7 * (1.0 + cold.objective.abs()),
                "trial {trial}: warm dual {} vs cold primal {}",
                warm.objective,
                cold.objective
            );
            assert!(lp.max_violation(&warm.x) < 1e-6, "trial {trial}");
        }
    }
    // The accelerator must actually fire on a healthy fraction of the
    // repairs, not silently bail to phase 1 every time.
    assert!(repaired >= 20, "too few infeasible warm starts: {repaired}");
    assert!(
        dual_engaged * 2 >= repaired,
        "dual loop engaged on only {dual_engaged}/{repaired} warm repairs"
    );
}

#[test]
fn timelimit_rows_carry_a_valid_dual_bound() {
    // A capped run must report a bound that is actually a lower bound
    // on the true optimum (minimisation), or honestly report none.
    let mut rng = StdRng::seed_from_u64(0x1b_2026);
    let mut bounded = 0u32;
    for trial in 0..120 {
        let n = rng.gen_range(4..14);
        let m = rng.gen_range(4..14);
        let (lp, _) = random_feasible_lp(&mut rng, n, m);
        let full = solve(&lp, &SimplexOptions::default());
        assert_eq!(full.status, LpStatus::Optimal, "trial {trial}");
        assert_eq!(
            full.dual_bound,
            Some(full.objective),
            "trial {trial}: optimal rows echo the objective as the bound"
        );
        for cap in [0, 1, 2, 5] {
            let capped = solve(
                &lp,
                &SimplexOptions {
                    max_iters: cap,
                    ..SimplexOptions::default()
                },
            );
            if capped.status != LpStatus::IterLimit {
                continue;
            }
            if let Some(b) = capped.dual_bound {
                bounded += 1;
                assert!(
                    b <= full.objective + 1e-6 * (1.0 + full.objective.abs()),
                    "trial {trial} cap {cap}: claimed bound {b} exceeds optimum {}",
                    full.objective
                );
            }
        }
    }
    assert!(
        bounded > 20,
        "Lagrangian bound almost never finite: {bounded}"
    );
}

#[test]
fn stats_account_for_every_iteration() {
    let mut rng = StdRng::seed_from_u64(0x57_475);
    for trial in 0..60 {
        let n = rng.gen_range(2..10);
        let m = rng.gen_range(1..10);
        let (lp, _) = random_feasible_lp(&mut rng, n, m);
        let sol = solve(&lp, &SimplexOptions::default());
        assert_eq!(sol.status, LpStatus::Optimal, "trial {trial}");
        let s = sol.stats;
        assert_eq!(
            s.phase1_iters + s.phase2_iters + s.dual_iters,
            sol.iterations,
            "trial {trial}: stats {s:?} vs iterations {}",
            sol.iterations
        );
    }
}
