//! Validity and strength checks for the root cutting planes.
//!
//! The only thing a cut is ever allowed to remove is *fractional*
//! points: every integer-feasible schedule must stay feasible in the
//! augmented model (checked by full enumeration on small instances),
//! the augmented root bound must never decrease, and the cut-driven
//! `milp` solver must keep agreeing with the combinatorial
//! branch-and-bound and the dense-tableau oracle.

#![expect(clippy::unwrap_used, reason = "fixture helpers outside #[test] unwrap")]
mod support;

use cawo_core::enhanced::UnitInfo;
use cawo_core::{carbon_cost, Instance, Schedule};
use cawo_exact::{root_cut_loop, Budget, SolveStatus, SolverKind, SparseA4Model};
use cawo_graph::dag::DagBuilder;
use cawo_lp::{LpStatus, SimplexOptions, SimplexSolver};
use cawo_platform::{PowerProfile, Time};
use support::dense_milp_cost;

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

fn two_unit_pair(exec: [Time; 2], p_idle: u64, p_work: u64) -> Instance {
    let dag = DagBuilder::new(2).build().unwrap();
    let unit = UnitInfo {
        p_idle,
        p_work,
        is_link: false,
    };
    Instance::from_raw(dag, exec.to_vec(), vec![0, 1], vec![unit, unit], 0)
}

/// Three independent unit-length tasks on three units with two time
/// slots and a budget that admits two concurrent tasks but not three.
/// Pigeonhole forces every integer schedule to pay for one overlap
/// (optimum 1), yet the LP spreads start mass to `Σ γ_t = budget`
/// exactly and bounds at 0 — the shape the cover cuts exist for.
fn pigeonhole_triple() -> (Instance, PowerProfile) {
    let dag = DagBuilder::new(3).build().unwrap();
    let unit = UnitInfo {
        p_idle: 0,
        p_work: 2,
        is_link: false,
    };
    let inst = Instance::from_raw(dag, vec![1, 1, 1], vec![0, 1, 2], vec![unit, unit, unit], 0);
    let profile = PowerProfile::from_parts(vec![0, 2], vec![3]);
    (inst, profile)
}

/// Every deadline-valid schedule of a small instance, by enumeration
/// over the model's start windows.
fn enumerate_schedules(inst: &Instance, model: &SparseA4Model, horizon: Time) -> Vec<Schedule> {
    let n = inst.node_count();
    let mut out = Vec::new();
    let mut starts = vec![0 as Time; n];
    fn rec(
        inst: &Instance,
        model: &SparseA4Model,
        horizon: Time,
        v: usize,
        starts: &mut Vec<Time>,
        out: &mut Vec<Schedule>,
    ) {
        if v == starts.len() {
            let s = Schedule::new(starts.clone());
            if s.validate(inst, horizon).is_ok() {
                out.push(s);
            }
            return;
        }
        let (lo, hi) = model.window(v as u32);
        for t in lo..=hi {
            starts[v] = t;
            rec(inst, model, horizon, v + 1, starts, out);
        }
    }
    rec(inst, model, horizon, 0, &mut starts, &mut out);
    out
}

/// Runs the root cut loop on an instance and asserts the two core cut
/// contracts: no integer point is cut off, and the bound only rises.
fn check_cut_contracts(inst: &Instance, profile: &PowerProfile) -> (f64, f64, u32) {
    let mut model = SparseA4Model::build(inst, profile);
    let mut simplex = SimplexSolver::new(&model.lp);
    let root = simplex.solve(&SimplexOptions::default());
    assert_eq!(root.status, LpStatus::Optimal);
    let before = root.objective;
    let (after, stats) = root_cut_loop(&mut model, inst, profile, &mut simplex, root, None);
    assert_eq!(after.status, LpStatus::Optimal);
    assert!(
        after.objective >= before - 1e-7,
        "cuts weakened the bound: {} -> {}",
        before,
        after.objective
    );
    // Full enumeration: every valid schedule must still satisfy every
    // row of the augmented model (`check_schedule` verifies all rows,
    // appended cuts included) and the bound must not exceed any cost.
    let schedules = enumerate_schedules(inst, &model, profile.deadline());
    assert!(!schedules.is_empty(), "deadline-feasible instance");
    for sched in &schedules {
        let cost = model
            .check_schedule(inst, profile, sched)
            .expect("integer point cut off by a root cut");
        assert_eq!(cost, carbon_cost(inst, sched, profile));
        assert!(
            after.objective <= cost as f64 + 1e-6,
            "augmented bound {} exceeds integer cost {cost}",
            after.objective
        );
    }
    (before, after.objective, stats.cuts)
}

/// (exec times, idle power, work power, interval bounds, budgets).
type ChainCase = (&'static [Time], u64, u64, Vec<Time>, Vec<u64>);

#[test]
fn cuts_never_remove_integer_points_on_chains() {
    let cases: &[ChainCase] = &[
        (&[2, 3], 1, 4, vec![0, 4, 10], vec![3, 6]),
        (&[2, 2], 0, 5, vec![0, 2, 4, 8], vec![5, 0, 5]),
        (&[3, 2], 0, 5, vec![0, 3, 8, 12], vec![0, 5, 1]),
        (&[1, 2, 1], 1, 3, vec![0, 3, 6, 9], vec![2, 6, 2]),
    ];
    for (exec, p_idle, p_work, bounds, budgets) in cases {
        let inst = chain(exec, *p_idle, *p_work);
        let profile = PowerProfile::from_parts(bounds.clone(), budgets.clone());
        check_cut_contracts(&inst, &profile);
    }
}

#[test]
fn cover_cuts_lift_the_zero_bound_under_contention() {
    let (inst, profile) = pigeonhole_triple();
    let (before, after, cuts) = check_cut_contracts(&inst, &profile);
    assert!(
        before < 0.5,
        "aggregated relaxation should dodge the budget, got {before}"
    );
    assert!(cuts > 0, "contended instance separated no cuts");
    assert!(
        after > before + 1e-6,
        "cover cuts did not lift the bound: {before} -> {after}"
    );
    let milp = SolverKind::Milp
        .solve(&inst, &profile, Budget::default())
        .unwrap();
    assert_eq!(milp.status, SolveStatus::Optimal);
    assert_eq!(milp.cost, 1, "pigeonhole overlap pays exactly 1");
    assert!(after <= milp.cost as f64 + 1e-6);
    assert!(milp.stats.cuts > 0, "milp root pass separated no cuts");
}

#[test]
fn milp_with_cuts_matches_dense_oracle_and_bnb() {
    let cases: &[(Instance, PowerProfile)] = &[
        (
            chain(&[2, 3], 1, 4),
            PowerProfile::from_parts(vec![0, 4, 10], vec![3, 6]),
        ),
        (
            chain(&[2, 2], 0, 5),
            PowerProfile::from_parts(vec![0, 2, 4, 8], vec![5, 0, 5]),
        ),
        (
            two_unit_pair([3, 3], 1, 2),
            PowerProfile::from_parts(vec![0, 4], vec![4]),
        ),
        (
            two_unit_pair([2, 2], 0, 3),
            PowerProfile::from_parts(vec![0, 5], vec![3]),
        ),
        pigeonhole_triple(),
    ];
    for (inst, profile) in cases {
        let milp = SolverKind::Milp
            .solve(inst, profile, Budget::default())
            .unwrap();
        let dense = dense_milp_cost(inst, profile);
        let bnb = SolverKind::Bnb
            .solve(inst, profile, Budget::default())
            .unwrap();
        assert_eq!(milp.status, SolveStatus::Optimal);
        assert_eq!(bnb.status, SolveStatus::Optimal);
        assert_eq!(milp.cost, dense);
        assert_eq!(milp.cost, bnb.cost);
        assert_eq!(milp.lower_bound, Some(milp.cost));
    }
}
