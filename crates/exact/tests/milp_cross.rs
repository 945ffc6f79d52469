//! Cross-validation of the three exact methods on the same instances:
//! the dense MILP oracle (`tests/support`) on the literal Appendix A.4
//! model, the combinatorial branch-and-bound, and (single-unit cases)
//! the uniprocessor DP must all report the same optimal carbon cost.

#![expect(clippy::unwrap_used, reason = "fixture helpers outside #[test] unwrap")]
mod support;

use cawo_core::enhanced::UnitInfo;
use cawo_core::Instance;
use cawo_exact::{dp_polynomial, solve_exact, BnbConfig, IlpModel};
use cawo_graph::dag::DagBuilder;
use cawo_platform::{PowerProfile, Time};
use support::milp::{solve_ilp_model, MilpConfig, MilpOutcome};

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

fn solve_all_ways(inst: &Instance, profile: &PowerProfile) -> (u64, u64) {
    let bnb = solve_exact(inst, profile, BnbConfig::default());
    assert!(
        bnb.optimal,
        "combinatorial search must finish on tiny instances"
    );
    let model = IlpModel::build(inst, profile);
    let milp = solve_ilp_model(
        &model,
        MilpConfig {
            node_limit: 500_000,
            ..MilpConfig::default()
        },
    );
    let milp_obj = match milp {
        MilpOutcome::Optimal { objective, .. } => objective.round() as u64,
        other => panic!("MILP did not prove optimality: {other:?}"),
    };
    (bnb.cost, milp_obj)
}

#[test]
fn milp_matches_bnb_single_task() {
    // One task of length 2, green window in the middle.
    let inst = chain(&[2], 0, 4);
    let profile = PowerProfile::from_parts(vec![0, 2, 4, 6], vec![0, 4, 0]);
    let (bnb, milp) = solve_all_ways(&inst, &profile);
    assert_eq!(bnb, 0, "task fits the green window exactly");
    assert_eq!(milp, bnb);
}

#[test]
fn milp_matches_bnb_chain_two_tasks() {
    let inst = chain(&[2, 1], 1, 3);
    let profile = PowerProfile::from_parts(vec![0, 3, 6], vec![2, 5]);
    let (bnb, milp) = solve_all_ways(&inst, &profile);
    assert_eq!(milp, bnb);
    // And the uniprocessor DP agrees too.
    let dp = dp_polynomial(&inst, &profile);
    assert_eq!(dp.cost, bnb);
}

#[test]
fn milp_matches_bnb_two_units() {
    // Two independent tasks on separate units; budget fits one at a time.
    let dag = DagBuilder::new(2).build().unwrap();
    let inst = Instance::from_raw(
        dag,
        vec![2, 2],
        vec![0, 1],
        vec![
            UnitInfo {
                p_idle: 0,
                p_work: 3,
                is_link: false,
            },
            UnitInfo {
                p_idle: 0,
                p_work: 3,
                is_link: false,
            },
        ],
        0,
    );
    let profile = PowerProfile::from_parts(vec![0, 5], vec![3]);
    let (bnb, milp) = solve_all_ways(&inst, &profile);
    assert_eq!(bnb, 0, "serialising both tasks avoids all brown power");
    assert_eq!(milp, bnb);
}

#[test]
fn milp_matches_bnb_forced_brown() {
    // Tight deadline forces overlap ⇒ positive optimal cost.
    let dag = DagBuilder::new(2).build().unwrap();
    let inst = Instance::from_raw(
        dag,
        vec![3, 3],
        vec![0, 1],
        vec![
            UnitInfo {
                p_idle: 1,
                p_work: 2,
                is_link: false,
            },
            UnitInfo {
                p_idle: 1,
                p_work: 2,
                is_link: false,
            },
        ],
        0,
    );
    // Horizon 4: the two length-3 tasks must overlap >= 2 units.
    let profile = PowerProfile::from_parts(vec![0, 4], vec![4]);
    let (bnb, milp) = solve_all_ways(&inst, &profile);
    assert!(bnb > 0);
    assert_eq!(milp, bnb);
}

#[test]
fn milp_respects_precedence() {
    // Chain with a green window too early for the second task: the ILP's
    // (12) must forbid starting task 1 before task 0 ends.
    let inst = chain(&[2, 2], 0, 5);
    let profile = PowerProfile::from_parts(vec![0, 2, 4, 6], vec![5, 0, 5]);
    let (bnb, milp) = solve_all_ways(&inst, &profile);
    // Optimal: task 0 in [0,2) green, task 1 in [4,6) green ⇒ 0.
    assert_eq!(bnb, 0);
    assert_eq!(milp, bnb);
}
