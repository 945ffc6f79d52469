//! `lp_parity` — the differential suite holding the two LP engines to
//! the same answers:
//!
//! * the dense two-phase tableau (`support::simplex::solve_lp`, the
//!   oracle) and the sparse revised simplex (`cawo_lp`) solve the
//!   *identical* model (via `sparse_from_lp_problem`) on randomized
//!   bounded LPs and on the Appendix A.4 `lp_relaxation` fixtures, and
//!   must report bit-comparable objectives (≤ 1e-6 relative),
//! * warm starts must equal cold starts,
//! * the sparse MILP / LP solvers must agree with the dense MILP cost
//!   and LP bound (and the combinatorial `bnb`) on the MILP fixtures.
//!
//! Run by name in CI: `cargo test -p cawo_exact --test lp_parity`.

#![expect(clippy::unwrap_used, reason = "fixture helpers outside #[test] unwrap")]
mod support;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cawo_core::enhanced::UnitInfo;
use cawo_core::Instance;
use cawo_exact::{Budget, IlpModel, SolveStatus, SolverKind, SparseA4Model};
use cawo_graph::dag::DagBuilder;
use cawo_lp::{LpStatus, SimplexOptions, SimplexSolver};
use cawo_platform::{PowerProfile, Time};
use support::milp::lp_relaxation;
use support::simplex::{solve_lp, LpCmp, LpOutcome, LpProblem};
use support::{dense_lp_bound, dense_milp_cost, sparse_from_lp_problem};

/// Single-unit chain instance (the shape all five registered solvers
/// accept).
fn chain(exec: &[Time], p_idle: u64, p_work: u64) -> Instance {
    let n = exec.len();
    let mut b = DagBuilder::new(n);
    for i in 1..n {
        b.add_edge(i as u32 - 1, i as u32);
    }
    Instance::from_raw(
        b.build().unwrap(),
        exec.to_vec(),
        vec![0; n],
        vec![UnitInfo {
            p_idle,
            p_work,
            is_link: false,
        }],
        0,
    )
}

/// Random bounded LP over `x ≥ 0` with every upper bound and row stated
/// explicitly — both engines receive the exact same model. Feasible by
/// construction (a witness point generates the right-hand sides) and
/// bounded (all variables boxed).
fn random_bounded_lp(rng: &mut StdRng, n: usize, m: usize) -> LpProblem {
    let mut p = LpProblem::new(n);
    let witness: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..4.0)).collect();
    for (j, &wj) in witness.iter().enumerate() {
        p.objective[j] = rng.gen_range(-5.0..5.0);
        p.add_upper_bound(j, wj + rng.gen_range(0.0..4.0));
    }
    for _ in 0..m {
        let k = rng.gen_range(1..=3.min(n));
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for _ in 0..k {
            terms.push((rng.gen_range(0..n), rng.gen_range(-4.0..4.0)));
        }
        let lhs: f64 = terms.iter().map(|&(j, a)| a * witness[j]).sum();
        match rng.gen_range(0..3) {
            0 => p.add_row(terms, LpCmp::Le, lhs + rng.gen_range(0.0..2.0)),
            1 => p.add_row(terms, LpCmp::Ge, lhs - rng.gen_range(0.0..2.0)),
            _ => p.add_row(terms, LpCmp::Eq, lhs),
        }
    }
    p
}

fn dense_objective(p: &LpProblem) -> f64 {
    match solve_lp(p) {
        LpOutcome::Optimal { objective, .. } => objective,
        other => panic!("dense oracle failed on a feasible bounded LP: {other:?}"),
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn engines_agree_on_random_bounded_lps() {
    let mut rng = StdRng::seed_from_u64(0x1f2e3d4c);
    for trial in 0..100 {
        let n = rng.gen_range(1..8);
        let m = rng.gen_range(0..10);
        let p = random_bounded_lp(&mut rng, n, m);
        let dense = dense_objective(&p);
        let sparse_model = sparse_from_lp_problem(&p);
        let sparse = cawo_lp::solve(&sparse_model, &SimplexOptions::default());
        assert_eq!(sparse.status, LpStatus::Optimal, "trial {trial}");
        assert!(
            close(dense, sparse.objective),
            "trial {trial}: dense {dense} vs sparse {}",
            sparse.objective
        );
    }
}

#[test]
fn engines_agree_on_milp_fixture_relaxations() {
    let mut rng = StdRng::seed_from_u64(0xa4a4a4);
    for trial in 0..12 {
        let n = rng.gen_range(1..4);
        let exec: Vec<Time> = (0..n).map(|_| rng.gen_range(1..4)).collect();
        let total: Time = exec.iter().sum();
        let inst = chain(&exec, rng.gen_range(0..3), rng.gen_range(1..6));
        let horizon = total + rng.gen_range(1..4);
        let mid = rng.gen_range(1..horizon);
        let profile = PowerProfile::from_parts(
            vec![0, mid, horizon],
            vec![rng.gen_range(0..8), rng.gen_range(0..8)],
        );
        let model = IlpModel::build(&inst, &profile);
        let (dense_lp, _) = lp_relaxation(&model);
        let dense = dense_objective(&dense_lp);
        let sparse = cawo_lp::solve(
            &sparse_from_lp_problem(&dense_lp),
            &SimplexOptions::default(),
        );
        assert_eq!(sparse.status, LpStatus::Optimal, "trial {trial}");
        assert!(
            close(dense, sparse.objective),
            "trial {trial}: dense {dense} vs sparse {} on the A.4 relaxation",
            sparse.objective
        );
    }
}

#[test]
fn warm_start_equals_cold_start_on_milp_fixtures() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for trial in 0..10 {
        let n = rng.gen_range(2..4);
        let exec: Vec<Time> = (0..n).map(|_| rng.gen_range(1..4)).collect();
        let total: Time = exec.iter().sum();
        let inst = chain(&exec, 1, rng.gen_range(1..6));
        let horizon = total + rng.gen_range(2..5);
        let profile = PowerProfile::from_parts(
            vec![0, horizon / 2, horizon],
            vec![rng.gen_range(0..6), rng.gen_range(0..6)],
        );
        let model = IlpModel::build(&inst, &profile);
        let (dense_lp, ints) = lp_relaxation(&model);
        let sparse_model = sparse_from_lp_problem(&dense_lp);
        let mut solver = SimplexSolver::new(&sparse_model);
        let cold = solver.solve(&SimplexOptions::default());
        assert_eq!(cold.status, LpStatus::Optimal, "trial {trial}");

        // Warm re-solve of the unchanged model: zero pivots.
        let resolved = solver.solve(&SimplexOptions::default());
        assert_eq!(resolved.iterations, 0, "trial {trial}");
        assert!(close(cold.objective, resolved.objective), "trial {trial}");

        // Branch like the MILP does (fix a binary to 0) and compare
        // warm vs cold on the modified model.
        let j = ints[rng.gen_range(0..ints.len())];
        solver.set_col_bounds(j, 0.0, 0.0);
        let warm = solver.solve(&SimplexOptions::default());
        let mut modified = sparse_model.clone();
        modified.set_bounds(j, 0.0, 0.0);
        let cold2 = cawo_lp::solve(&modified, &SimplexOptions::default());
        assert_eq!(warm.status, cold2.status, "trial {trial}");
        if cold2.status == LpStatus::Optimal {
            assert!(
                close(warm.objective, cold2.objective),
                "trial {trial}: warm {} vs cold {}",
                warm.objective,
                cold2.objective
            );
        }
    }
}

#[test]
fn sparse_solvers_agree_with_dense_oracles_and_bnb() {
    let mut rng = StdRng::seed_from_u64(0xbeef);
    for trial in 0..8 {
        let n = rng.gen_range(1..4);
        let exec: Vec<Time> = (0..n).map(|_| rng.gen_range(1..4)).collect();
        let total: Time = exec.iter().sum();
        let inst = chain(&exec, rng.gen_range(0..2), rng.gen_range(1..6));
        let horizon = total + rng.gen_range(1..4);
        let mid = rng.gen_range(1..horizon);
        let profile = PowerProfile::from_parts(
            vec![0, mid, horizon],
            vec![rng.gen_range(0..8), rng.gen_range(0..8)],
        );
        let budget = Budget::default();
        let bnb = cawo_exact::solve_exact(&inst, &profile, Default::default());
        assert!(bnb.optimal, "trial {trial}");

        let sparse_milp = SolverKind::Milp.solve(&inst, &profile, budget).unwrap();
        assert_eq!(sparse_milp.status, SolveStatus::Optimal, "trial {trial}");
        assert_eq!(sparse_milp.cost, bnb.cost, "trial {trial}: sparse milp");

        assert_eq!(
            dense_milp_cost(&inst, &profile),
            bnb.cost,
            "trial {trial}: dense milp"
        );

        // Both LP bounds are valid and the sparse solver reports
        // honestly.
        let lp = SolverKind::Lp.solve(&inst, &profile, budget).unwrap();
        assert!(lp.cost >= bnb.cost, "trial {trial}: lp");
        for (label, lb) in [
            ("lp", lp.lower_bound.unwrap_or(0)),
            ("dense lp", dense_lp_bound(&inst, &profile)),
        ] {
            assert!(
                lb <= bnb.cost,
                "trial {trial}: {label} bound {lb} exceeds optimum {}",
                bnb.cost
            );
        }

        // The sparse model certifies the optimal schedule at the
        // optimal cost (the scaled-up `ilp` certification path).
        let sparse = SparseA4Model::build(&inst, &profile);
        assert_eq!(
            sparse
                .check_schedule(&inst, &profile, &bnb.schedule)
                .unwrap(),
            bnb.cost,
            "trial {trial}"
        );
    }
}
