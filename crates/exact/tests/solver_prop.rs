//! Differential property suite over the solver registry
//! ([`SolverKind`]): every registered solver, on random instances, must
//!
//! * return a schedule that validates against the deadline,
//! * report a `cost` equal to `CostEngine::total_cost` of that schedule
//!   (the dense oracle — i.e. no solver may mis-price its own output),
//! * never claim a lower bound above its own cost,
//! * and all solvers concluding [`SolveStatus::Optimal`] must agree on
//!   one optimal cost, which no heuristic may beat.
//!
//! On chains the two exact-method library functions outside the
//! registry are held to the same optimum: the pseudo-polynomial DP must
//! reach it, and the Lemma 4.2 E-schedule transformation must land
//! between it and the heuristic schedule it starts from.

#![expect(clippy::unwrap_used, reason = "fixture helpers outside #[test] unwrap")]
use proptest::prelude::*;

use cawo_core::enhanced::UnitInfo;
use cawo_core::{CostEngine, DenseGrid, Instance, Schedule, Variant};
use cawo_exact::{
    dp_pseudo_polynomial, is_e_schedule, to_e_schedule, Budget, SolveError, SolveStatus, SolverKind,
};
use cawo_graph::dag::DagBuilder;
use cawo_platform::{PowerProfile, Time};

/// Single-unit chain instance.
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

/// Profile with the given budgets spread over `horizon`.
fn spread_profile(horizon: Time, budgets: &[u64]) -> PowerProfile {
    let j = budgets.len() as u64;
    let mut bounds = vec![0];
    for k in 1..=j {
        let t = horizon * k / j;
        if t > *bounds.last().unwrap() {
            bounds.push(t);
        }
    }
    let m = bounds.len() - 1;
    PowerProfile::from_parts(bounds, budgets[..m].to_vec())
}

/// Runs every registered solver and applies the shared contract checks;
/// returns the optimal cost when at least one solver proved one.
fn check_all_solvers(
    inst: &Instance,
    profile: &PowerProfile,
    budget: Budget,
) -> Result<Option<u64>, TestCaseError> {
    let mut optimal: Option<(SolverKind, u64)> = None;
    let mut feasible_costs: Vec<(SolverKind, u64)> = Vec::new();
    for kind in SolverKind::ALL {
        match kind.solve(inst, profile, budget) {
            Ok(res) => {
                prop_assert!(
                    res.schedule.validate(inst, profile.deadline()).is_ok(),
                    "{kind}: invalid schedule"
                );
                let engine_cost = DenseGrid::build(inst, &res.schedule, profile).total_cost();
                prop_assert_eq!(
                    res.cost,
                    engine_cost,
                    "{} mis-priced its own schedule",
                    kind
                );
                if let Some(lb) = res.lower_bound {
                    prop_assert!(
                        lb <= res.cost,
                        "{kind}: lower bound {lb} > cost {}",
                        res.cost
                    );
                }
                match res.status {
                    SolveStatus::Optimal => match optimal {
                        None => optimal = Some((kind, res.cost)),
                        Some((first, c)) => prop_assert_eq!(
                            c,
                            res.cost,
                            "{} and {} disagree on the optimum",
                            first,
                            kind
                        ),
                    },
                    SolveStatus::Feasible | SolveStatus::TimedOut => {
                        feasible_costs.push((kind, res.cost));
                    }
                }
            }
            // Declining an instance is part of the contract; crashing
            // or mis-reporting is not.
            Err(SolveError::Unsupported(_)) => {}
            Err(SolveError::Infeasible(m)) => {
                prop_assert!(false, "{kind}: spurious infeasibility: {m}")
            }
        }
    }
    if let Some((_, opt)) = optimal {
        // No inexact result may beat a proven optimum.
        for (kind, c) in &feasible_costs {
            prop_assert!(*c >= opt, "{kind} reported {c} below the optimum {opt}");
        }
    }
    Ok(optimal.map(|(_, c)| c))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Uniprocessor chains are the regime where *all five* registered
    // solvers apply (instances are kept tiny so even the
    // simplex-backed MILP terminates).
    #[test]
    fn every_solver_honours_the_contract_on_chains(
        exec in proptest::collection::vec(1u64..3, 1..3),
        p_idle in 0u64..2,
        p_work in 1u64..5,
        slack in 1u64..4,
        budgets in proptest::collection::vec(0u64..8, 1..3),
    ) {
        let inst = chain(&exec, p_idle, p_work);
        let total: Time = exec.iter().sum();
        let profile = spread_profile(total + slack, &budgets);
        let optimal = check_all_solvers(&inst, &profile, Budget::nodes(2_000_000))?;
        // On these tiny chains bnb and dp always finish.
        prop_assert!(optimal.is_some(), "no solver proved optimality");
        // The heuristics never beat the proven optimum.
        let opt = optimal.unwrap();
        for v in [Variant::Asap, Variant::PressWRLs] {
            let s = v.run(&inst, &profile);
            let c = DenseGrid::build(&inst, &s, &profile).total_cost();
            prop_assert!(c >= opt, "{v} beat the optimum");
        }
        // The pseudo-polynomial DP is exact too.
        prop_assert_eq!(dp_pseudo_polynomial(&inst, &profile).cost, opt);
        // Lemma 4.2: normalising the pressWR-LS schedule yields a valid
        // E-schedule, priced honestly, that never regresses and never
        // beats the optimum. On chains this small pressWR-LS is often
        // aligned already, so ASAP delayed by one time unit (valid:
        // slack ≥ 1) is normalised too.
        let delayed = Schedule::new(inst.asap_schedule().starts().iter().map(|s| s + 1).collect());
        for seed in [Variant::PressWRLs.run(&inst, &profile), delayed] {
            let seed_cost = DenseGrid::build(&inst, &seed, &profile).total_cost();
            let (e, e_cost) = to_e_schedule(&inst, &profile, &seed);
            prop_assert!(e.validate(&inst, profile.deadline()).is_ok());
            prop_assert!(is_e_schedule(&inst, &profile, &e));
            prop_assert_eq!(e_cost, DenseGrid::build(&inst, &e, &profile).total_cost());
            prop_assert!(
                opt <= e_cost && e_cost <= seed_cost,
                "E-schedule cost {} outside [{}, {}]",
                e_cost,
                opt,
                seed_cost
            );
        }
    }

    // Random multi-unit DAGs: the uniprocessor method must decline
    // cleanly while the general-purpose solvers stay in agreement.
    #[test]
    fn solvers_honour_the_contract_on_multiunit_dags(
        n in 2usize..5,
        edge_bits in any::<u32>(),
        exec in proptest::collection::vec(1u64..3, 5),
        units in proptest::collection::vec((0u64..2, 1u64..5), 2),
        slack in 1u64..4,
        budgets in proptest::collection::vec(0u64..8, 2..4),
    ) {
        let mut b = DagBuilder::new(n);
        let mut bit = 0;
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                if edge_bits >> (bit % 32) & 1 == 1 {
                    b.add_edge(u, v);
                }
                bit += 1;
            }
        }
        let unit_infos: Vec<UnitInfo> = units
            .iter()
            .map(|&(i, w)| UnitInfo { p_idle: i, p_work: w, is_link: false })
            .collect();
        let unit_of: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let inst = Instance::from_raw(
            b.build().unwrap(),
            exec[..n].to_vec(),
            unit_of,
            unit_infos,
            0,
        );
        let profile = spread_profile(inst.asap_makespan() + slack, &budgets);
        let optimal = check_all_solvers(&inst, &profile, Budget::nodes(2_000_000))?;
        prop_assert!(optimal.is_some(), "bnb should prove these tiny instances");
        // Both tasks sit on two units, so the uniprocessor method must
        // have declined rather than answered.
        prop_assert!(matches!(
            SolverKind::Dp.solve(&inst, &profile, Budget::default()),
            Err(SolveError::Unsupported(_))
        ));
    }

    // A wall-clock budget of zero must degrade every solver to a
    // fast, honest non-optimal answer — never a hang or a panic.
    #[test]
    fn zero_time_budget_degrades_gracefully(
        exec in proptest::collection::vec(1u64..4, 2..4),
        budgets in proptest::collection::vec(0u64..8, 1..3),
        slack in 2u64..6,
    ) {
        let inst = chain(&exec, 1, 3);
        let total: Time = exec.iter().sum();
        let profile = spread_profile(total + slack, &budgets);
        let budget = Budget {
            node_limit: 1,
            time_limit: Some(std::time::Duration::ZERO),
        };
        for kind in SolverKind::ALL {
            match kind.solve(&inst, &profile, budget) {
                Ok(res) => {
                    prop_assert!(res.schedule.validate(&inst, profile.deadline()).is_ok());
                    prop_assert_eq!(
                        res.cost,
                        DenseGrid::build(&inst, &res.schedule, &profile).total_cost()
                    );
                }
                Err(SolveError::Unsupported(_)) => {}
                Err(SolveError::Infeasible(m)) => {
                    prop_assert!(false, "{kind}: spurious infeasibility: {m}")
                }
            }
        }
    }
}
