//! Unit tests of the dense oracles in `tests/support`: the two-phase
//! full-tableau simplex and the dense branch-and-bound over it, plus a
//! first sparse-vs-dense MILP cross-check. The differential suites
//! (`lp_parity`, `milp_cross`, `cuts`) trust these oracles, so the
//! oracles are pinned here on hand-checked problems.
//!
//! Run by name in CI: `cargo test -p cawo_exact --test dense_oracle`.

mod support;

use cawo_core::enhanced::UnitInfo;
use cawo_core::Instance;
use cawo_exact::{Budget, SolveStatus, SolverKind};
use cawo_graph::dag::DagBuilder;
use cawo_platform::{PowerProfile, Time};
use support::milp::{solve_milp, MilpConfig, MilpOutcome};
use support::simplex::{solve_lp, LpCmp, LpOutcome, LpProblem};

fn optimal(o: LpOutcome) -> (f64, Vec<f64>) {
    match o {
        LpOutcome::Optimal {
            objective,
            solution,
        } => (objective, solution),
        other => panic!("expected optimal, got {other:?}"),
    }
}

#[test]
fn maximisation_via_negated_objective() {
    // max x + y s.t. x + y <= 4, x <= 2  ⇒  min -(x+y) = -4.
    let mut p = LpProblem::new(2);
    p.objective = vec![-1.0, -1.0];
    p.add_row(vec![(0, 1.0), (1, 1.0)], LpCmp::Le, 4.0);
    p.add_row(vec![(0, 1.0)], LpCmp::Le, 2.0);
    let (obj, sol) = optimal(solve_lp(&p));
    assert!((obj + 4.0).abs() < 1e-6);
    assert!((sol[0] + sol[1] - 4.0).abs() < 1e-6);
}

#[test]
fn equality_constraints() {
    // min x s.t. x + y = 3 ⇒ x = 0, y = 3.
    let mut p = LpProblem::new(2);
    p.objective = vec![1.0, 0.0];
    p.add_row(vec![(0, 1.0), (1, 1.0)], LpCmp::Eq, 3.0);
    let (obj, sol) = optimal(solve_lp(&p));
    assert!(obj.abs() < 1e-6);
    assert!((sol[1] - 3.0).abs() < 1e-6);
}

#[test]
fn ge_constraints_need_phase1() {
    // min x s.t. x >= 2.5 ⇒ 2.5.
    let mut p = LpProblem::new(1);
    p.objective = vec![1.0];
    p.add_row(vec![(0, 1.0)], LpCmp::Ge, 2.5);
    let (obj, _) = optimal(solve_lp(&p));
    assert!((obj - 2.5).abs() < 1e-6);
}

#[test]
fn detects_infeasibility() {
    let mut p = LpProblem::new(1);
    p.objective = vec![0.0];
    p.add_row(vec![(0, 1.0)], LpCmp::Ge, 2.0);
    p.add_row(vec![(0, 1.0)], LpCmp::Le, 1.0);
    assert_eq!(solve_lp(&p), LpOutcome::Infeasible);
}

#[test]
fn detects_unboundedness() {
    let mut p = LpProblem::new(1);
    p.objective = vec![-1.0];
    assert_eq!(solve_lp(&p), LpOutcome::Unbounded);
}

#[test]
fn negative_rhs_is_normalised() {
    // x - y <= -1 with x,y >= 0: e.g. y >= x + 1. min y ⇒ y = 1.
    let mut p = LpProblem::new(2);
    p.objective = vec![0.0, 1.0];
    p.add_row(vec![(0, 1.0), (1, -1.0)], LpCmp::Le, -1.0);
    let (obj, _) = optimal(solve_lp(&p));
    assert!((obj - 1.0).abs() < 1e-6);
}

#[test]
fn degenerate_problem_terminates() {
    // Classic degeneracy: multiple constraints active at the origin.
    let mut p = LpProblem::new(2);
    p.objective = vec![-1.0, -1.0];
    p.add_row(vec![(0, 1.0)], LpCmp::Le, 0.0);
    p.add_row(vec![(0, 1.0), (1, 1.0)], LpCmp::Le, 1.0);
    p.add_row(vec![(1, 1.0)], LpCmp::Le, 1.0);
    let (obj, sol) = optimal(solve_lp(&p));
    assert!((obj + 1.0).abs() < 1e-6);
    assert!(sol[0].abs() < 1e-6);
}

#[test]
fn upper_bound_helper() {
    let mut p = LpProblem::new(1);
    p.objective = vec![-1.0];
    p.add_upper_bound(0, 0.75);
    let (obj, sol) = optimal(solve_lp(&p));
    assert!((obj + 0.75).abs() < 1e-6);
    assert!((sol[0] - 0.75).abs() < 1e-6);
}

#[test]
fn redundant_equalities_are_handled() {
    // Two identical equalities: phase 1 leaves a zero artificial in
    // the basis for the redundant row.
    let mut p = LpProblem::new(2);
    p.objective = vec![1.0, 2.0];
    p.add_row(vec![(0, 1.0), (1, 1.0)], LpCmp::Eq, 2.0);
    p.add_row(vec![(0, 1.0), (1, 1.0)], LpCmp::Eq, 2.0);
    let (obj, sol) = optimal(solve_lp(&p));
    assert!((sol[0] + sol[1] - 2.0).abs() < 1e-6);
    assert!((obj - 2.0).abs() < 1e-6); // all mass on x0
}

#[test]
fn diet_style_problem() {
    // min 2x + 3y s.t. x + y >= 4, x >= 1, y >= 1.
    let mut p = LpProblem::new(2);
    p.objective = vec![2.0, 3.0];
    p.add_row(vec![(0, 1.0), (1, 1.0)], LpCmp::Ge, 4.0);
    p.add_row(vec![(0, 1.0)], LpCmp::Ge, 1.0);
    p.add_row(vec![(1, 1.0)], LpCmp::Ge, 1.0);
    let (obj, sol) = optimal(solve_lp(&p));
    // Push everything onto the cheaper x: x = 3, y = 1.
    assert!((sol[0] - 3.0).abs() < 1e-6);
    assert!((sol[1] - 1.0).abs() < 1e-6);
    assert!((obj - 9.0).abs() < 1e-6);
}

#[test]
fn pure_lp_passes_through() {
    // No integer vars: MILP = LP.
    let mut p = LpProblem::new(1);
    p.objective = vec![-1.0];
    p.add_upper_bound(0, 1.5);
    match solve_milp(&p, &[], MilpConfig::default()) {
        MilpOutcome::Optimal {
            objective,
            solution,
        } => {
            assert!((objective + 1.5).abs() < 1e-6);
            assert!((solution[0] - 1.5).abs() < 1e-6);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn branching_rounds_down() {
    // min -x, x <= 1.5, x integer ⇒ x = 1.
    let mut p = LpProblem::new(1);
    p.objective = vec![-1.0];
    p.add_upper_bound(0, 1.5);
    match solve_milp(&p, &[0], MilpConfig::default()) {
        MilpOutcome::Optimal {
            objective,
            solution,
        } => {
            assert!((objective + 1.0).abs() < 1e-6);
            assert!((solution[0] - 1.0).abs() < 1e-6);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn binary_knapsack() {
    // max 5a + 4b + 3c s.t. 2a + 3b + c <= 3, binaries.
    // Optimal: a = 1, c = 1 ⇒ 8.
    let mut p = LpProblem::new(3);
    p.objective = vec![-5.0, -4.0, -3.0];
    p.add_row(vec![(0, 2.0), (1, 3.0), (2, 1.0)], LpCmp::Le, 3.0);
    for v in 0..3 {
        p.add_upper_bound(v, 1.0);
    }
    match solve_milp(&p, &[0, 1, 2], MilpConfig::default()) {
        MilpOutcome::Optimal {
            objective,
            solution,
        } => {
            assert!((objective + 8.0).abs() < 1e-6);
            assert_eq!(
                solution
                    .iter()
                    .map(|&x| x.round() as i64)
                    .collect::<Vec<_>>(),
                vec![1, 0, 1]
            );
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn integer_infeasibility() {
    // 0.4 <= x <= 0.6, x integer: LP feasible, MILP infeasible.
    let mut p = LpProblem::new(1);
    p.add_row(vec![(0, 1.0)], LpCmp::Ge, 0.4);
    p.add_upper_bound(0, 0.6);
    assert_eq!(
        solve_milp(&p, &[0], MilpConfig::default()),
        MilpOutcome::Infeasible
    );
}

#[test]
fn node_limit_degrades_gracefully() {
    let mut p = LpProblem::new(2);
    p.objective = vec![-1.0, -1.0];
    p.add_row(vec![(0, 2.0), (1, 2.0)], LpCmp::Le, 3.0);
    for v in 0..2 {
        p.add_upper_bound(v, 1.0);
    }
    let out = solve_milp(
        &p,
        &[0, 1],
        MilpConfig {
            node_limit: 1,
            ..MilpConfig::default()
        },
    );
    assert!(matches!(
        out,
        MilpOutcome::Unknown | MilpOutcome::Feasible { .. }
    ));
}

#[test]
fn general_integers_supported() {
    // min -x s.t. 3x <= 10, x non-negative integer ⇒ x = 3.
    let mut p = LpProblem::new(1);
    p.objective = vec![-1.0];
    p.add_row(vec![(0, 3.0)], LpCmp::Le, 10.0);
    match solve_milp(&p, &[0], MilpConfig::default()) {
        MilpOutcome::Optimal { solution, .. } => {
            assert!((solution[0] - 3.0).abs() < 1e-6);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn unbounded_relaxation_is_reported_not_panicked() {
    // min -x, x integer, no rows at all: relaxation unbounded.
    let mut p = LpProblem::new(1);
    p.objective = vec![-1.0];
    assert_eq!(
        solve_milp(&p, &[0], MilpConfig::default()),
        MilpOutcome::Unbounded
    );
}

#[test]
fn sparse_milp_matches_dense_on_chains() {
    let exec: Vec<Time> = vec![2, 3];
    let mut b = DagBuilder::new(2);
    b.add_edge(0, 1);
    let inst = Instance::from_raw(
        b.build().unwrap(),
        exec,
        vec![0, 0],
        vec![UnitInfo {
            p_idle: 1,
            p_work: 4,
            is_link: false,
        }],
        0,
    );
    let profile = PowerProfile::from_parts(vec![0, 4, 10], vec![3, 6]);
    let sparse = SolverKind::Milp
        .solve(&inst, &profile, Budget::default())
        .unwrap();
    assert_eq!(sparse.status, SolveStatus::Optimal);
    assert_eq!(sparse.cost, support::dense_milp_cost(&inst, &profile));
    assert_eq!(sparse.lower_bound, Some(sparse.cost));
}
