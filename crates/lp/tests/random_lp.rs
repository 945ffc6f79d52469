//! Randomised self-checks of the sparse simplex: constructed-feasible
//! LPs must come back optimal with a feasible, no-worse-than-witness
//! solution; warm starts must reproduce cold starts. (The cross-engine
//! parity against the dense tableau lives in
//! `cawo_exact/tests/lp_parity.rs`.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cawo_lp::{solve, LpStatus, RowCmp, SimplexOptions, SimplexSolver, SparseLp};

/// Builds a random LP that is feasible by construction: bounds are
/// sampled around a witness point `x*` and every row's rhs is set so
/// `x*` satisfies it.
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
        // Keep the objective bounded along every recession direction:
        // unbounded-above variables get non-negative cost,
        // unbounded-below non-positive cost, doubly-free zero cost.
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

#[test]
fn random_feasible_lps_solve_to_feasible_optima() {
    let mut rng = StdRng::seed_from_u64(20260730);
    for trial in 0..120 {
        let n = rng.gen_range(1..10);
        let m = rng.gen_range(0..12);
        let (lp, witness) = random_feasible_lp(&mut rng, n, m);
        let sol = solve(&lp, &SimplexOptions::default());
        assert_eq!(
            sol.status,
            LpStatus::Optimal,
            "trial {trial}: witness-feasible LP must solve"
        );
        assert!(
            lp.max_violation(&sol.x) < 1e-6,
            "trial {trial}: optimal point violates the model by {}",
            lp.max_violation(&sol.x)
        );
        let witness_obj = lp.objective_value(&witness);
        assert!(
            sol.objective <= witness_obj + 1e-6,
            "trial {trial}: objective {} worse than witness {witness_obj}",
            sol.objective
        );
    }
}

/// Columns scanned per pricing block (the engine's partial-pricing
/// window).
const PRICING_BLOCK: usize = 16_384;
/// The engine's parallel work gate: nonzeros plus rows.
const PAR_MIN_WORK: usize = 1 << 18;

/// A wide, dense-column LP past both parallel gates: `n` boxed columns
/// with `per_col` positive entries each, in `m` rows that a witness
/// point satisfies. Every sixteenth row is a `≥ 1` row, so the
/// all-slack start is infeasible and a short phase 1 runs before Devex
/// phase 2.
fn wide_lp(rng: &mut StdRng, n: usize, m: usize, per_col: usize) -> SparseLp {
    let mut lp = SparseLp::new();
    let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
    let mut witness_lhs = vec![0.0f64; m];
    for j in 0..n {
        lp.add_col(rng.gen_range(-1.0..1.0), 0.0, 1.0);
        let x = rng.gen_range(0.0..1.0);
        let mut picked: Vec<usize> = Vec::with_capacity(per_col);
        while picked.len() < per_col {
            let r = rng.gen_range(0..m);
            if !picked.contains(&r) {
                picked.push(r);
            }
        }
        for r in picked {
            let a = rng.gen_range(0.1..1.0);
            rows[r].push((j as u32, a));
            witness_lhs[r] += a * x;
        }
    }
    for (r, terms) in rows.into_iter().enumerate() {
        let lhs = witness_lhs[r];
        if r % 16 == 0 {
            lp.add_row(terms, RowCmp::Ge, lhs.min(1.0));
        } else {
            lp.add_row(terms, RowCmp::Le, lhs + rng.gen_range(0.0..1.0));
        }
    }
    lp
}

#[test]
fn parallel_pricing_is_bit_identical() {
    // A model past both parallel gates — nonzeros + rows ≥ the work
    // budget (the Devex update sweep splits) and a work-derived column
    // gate within one pricing block (the phase-1 block scan splits) —
    // must solve to bit-identical results on 1-thread and 4-thread
    // pools: same pivot sequence, counters, objective bits and point.
    // This is the determinism contract of docs/CONCURRENCY.md at the
    // LP layer. The pivot cap keeps the debug-build run short.
    let mut rng = StdRng::seed_from_u64(90_210);
    let (n, m) = (PRICING_BLOCK, 256);
    let lp = wide_lp(&mut rng, n, m, 20);
    let nnz: usize = (0..m).map(|i| lp.row(i).terms.len()).sum();
    assert!(nnz + m >= PAR_MIN_WORK, "work {} below the gate", nnz + m);
    let gate = SimplexSolver::new(&lp).par_gate_cols();
    assert!(
        gate <= PRICING_BLOCK,
        "column gate {gate} exceeds the pricing block: the scan stays sequential"
    );
    let opts = SimplexOptions {
        max_iters: 300,
        ..SimplexOptions::default()
    };
    let solve_on = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| solve(&lp, &opts))
    };
    let one = solve_on(1);
    let four = solve_on(4);
    assert!(one.stats.phase1_iters > 0, "phase 1 never priced");
    assert!(one.stats.phase2_iters > 0, "Devex phase 2 never ran");
    assert_eq!(one.status, four.status);
    assert_eq!(one.iterations, four.iterations);
    assert_eq!(one.stats, four.stats);
    assert_eq!(one.basis, four.basis);
    assert_eq!(one.objective.to_bits(), four.objective.to_bits());
    for (a, b) in one.x.iter().zip(&four.x) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn warm_start_equals_cold_start() {
    let mut rng = StdRng::seed_from_u64(424_242);
    for trial in 0..80 {
        let n = rng.gen_range(2..8);
        let m = rng.gen_range(1..8);
        let (mut lp, _) = random_feasible_lp(&mut rng, n, m);
        let mut solver = SimplexSolver::new(&lp);
        let first = solver.solve(&SimplexOptions::default());
        assert_eq!(first.status, LpStatus::Optimal, "trial {trial}");

        // Re-solving warm from the optimal basis takes zero pivots.
        let resolved = solver.solve(&SimplexOptions::default());
        assert_eq!(resolved.status, LpStatus::Optimal);
        assert_eq!(resolved.iterations, 0, "trial {trial}: basis was optimal");
        assert!((resolved.objective - first.objective).abs() < 1e-9);

        // Tighten a random bounded column the way branching would.
        let j = rng.gen_range(0..n);
        let (lo, hi) = lp.bounds(j);
        if !lo.is_finite() || !hi.is_finite() {
            continue;
        }
        let cut = lo + (hi - lo) * rng.gen_range(0.2..0.8);
        solver.set_col_bounds(j, lo, cut);
        let warm = solver.solve(&SimplexOptions::default());
        lp.set_bounds(j, lo, cut);
        let cold = solve(&lp, &SimplexOptions::default());
        assert_eq!(warm.status, cold.status, "trial {trial}");
        if cold.status == LpStatus::Optimal {
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6 * (1.0 + cold.objective.abs()),
                "trial {trial}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
        }
    }
}
