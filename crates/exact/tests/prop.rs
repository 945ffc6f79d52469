//! Property-based tests tying the exact methods together: the two DPs,
//! the branch-and-bound and the ILP checker must all agree.

#![expect(clippy::unwrap_used, reason = "fixture helpers outside #[test] unwrap")]
use proptest::prelude::*;

use cawo_core::enhanced::UnitInfo;
use cawo_core::{carbon_cost, Instance, Variant};
use cawo_exact::{
    check_schedule_against_ilp, dp_polynomial, dp_pseudo_polynomial, solve_exact, BnbConfig,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dps_and_bnb_agree_on_chains(
        exec in proptest::collection::vec(1u64..5, 1..5),
        p_idle in 0u64..3,
        p_work in 1u64..8,
        slack in 1u64..8,
        budgets in proptest::collection::vec(0u64..12, 1..5),
    ) {
        let inst = chain(&exec, p_idle, p_work);
        let total: Time = exec.iter().sum();
        let profile = spread_profile(total + slack, &budgets);
        let pseudo = dp_pseudo_polynomial(&inst, &profile);
        let poly = dp_polynomial(&inst, &profile);
        let bnb = solve_exact(&inst, &profile, BnbConfig::default());
        prop_assert!(bnb.optimal);
        prop_assert_eq!(pseudo.cost, poly.cost);
        prop_assert_eq!(poly.cost, bnb.cost);
        // Reconstructed schedules actually achieve the claimed costs.
        prop_assert_eq!(carbon_cost(&inst, &pseudo.schedule, &profile), pseudo.cost);
        prop_assert_eq!(carbon_cost(&inst, &poly.schedule, &profile), poly.cost);
        prop_assert!(poly.schedule.validate(&inst, profile.deadline()).is_ok());
        prop_assert!(pseudo.schedule.validate(&inst, profile.deadline()).is_ok());
    }

    #[test]
    fn bnb_lower_bounds_heuristics_on_random_instances(
        n in 2usize..6,
        edge_bits in any::<u32>(),
        exec in proptest::collection::vec(1u64..4, 6),
        units in proptest::collection::vec((0u64..2, 1u64..6), 2),
        unit_bits in any::<u32>(),
        slack in 1u64..6,
        budgets in proptest::collection::vec(0u64..10, 2..4),
    ) {
        // Random forward DAG from bitmask.
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
        let unit_of: Vec<u32> =
            (0..n).map(|i| (unit_bits >> (i % 32)) & 1).collect();
        let inst = Instance::from_raw(
            b.build().unwrap(),
            exec[..n].to_vec(),
            unit_of,
            unit_infos,
            0,
        );
        let profile = spread_profile(inst.asap_makespan() + slack, &budgets);
        let exact = solve_exact(&inst, &profile, BnbConfig::default());
        prop_assert!(exact.optimal);
        for v in [Variant::Asap, Variant::Slack, Variant::PressWRLs] {
            let c = carbon_cost(&inst, &v.run(&inst, &profile), &profile);
            prop_assert!(c >= exact.cost, "{} beat the optimum", v);
        }
        // The exact schedule passes the ILP checker with equal objective.
        let obj = check_schedule_against_ilp(&inst, &profile, &exact.schedule).unwrap();
        prop_assert_eq!(obj, exact.cost);
    }

    #[test]
    fn ilp_checker_matches_cost_function(
        exec in proptest::collection::vec(1u64..4, 1..4),
        p_idle in 0u64..3,
        p_work in 1u64..6,
        slack in 1u64..5,
        budgets in proptest::collection::vec(0u64..10, 1..4),
        pick in any::<u64>(),
    ) {
        let inst = chain(&exec, p_idle, p_work);
        let total: Time = exec.iter().sum();
        let profile = spread_profile(total + slack, &budgets);
        // A deterministic member of the feasible schedule family:
        // delay the whole chain by `pick % (slack+1)`.
        let delay = pick % (slack + 1);
        let asap = inst.asap_schedule();
        let sched = cawo_core::Schedule::new(
            asap.starts().iter().map(|&s| s + delay).collect(),
        );
        let obj = check_schedule_against_ilp(&inst, &profile, &sched).unwrap();
        prop_assert_eq!(obj, carbon_cost(&inst, &sched, &profile));
    }
}
