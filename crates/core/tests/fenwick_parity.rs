//! Differential parity suite for the Fenwick cost engine: on random
//! instances, schedules and move sequences, [`FenwickEngine`] must
//! report *exactly* the same totals, placement deltas and shift deltas
//! as the [`DenseGrid`] oracle and the [`IntervalEngine`] production
//! backend — bit-for-bit, not approximately.

#![expect(clippy::unwrap_used, reason = "fixture helpers outside #[test] unwrap")]
use proptest::prelude::*;

use cawo_core::enhanced::UnitInfo;
use cawo_core::{
    carbon_cost, CostEngine, DenseGrid, FenwickEngine, Instance, IntervalEngine, Schedule,
};
use cawo_graph::dag::DagBuilder;
use cawo_platform::{PowerProfile, Time};

/// Independent tasks with the given execution times and powers, one
/// unit per task.
fn independent_instance(exec: &[Time], powers: &[(u64, u64)]) -> Instance {
    let n = exec.len();
    let dag = DagBuilder::new(n).build().unwrap();
    let units: Vec<UnitInfo> = powers
        .iter()
        .map(|&(p_idle, p_work)| UnitInfo {
            p_idle,
            p_work,
            is_link: false,
        })
        .collect();
    Instance::from_raw(dag, exec.to_vec(), (0..n as u32).collect(), units, 0)
}

/// Profile with `budgets.len()` near-equal intervals over `[0, horizon)`.
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fenwick_matches_both_engines_through_a_move_sequence(
        exec in proptest::collection::vec(1u64..8, 2..6),
        powers in proptest::collection::vec((0u64..4, 0u64..12), 6),
        budgets in proptest::collection::vec(0u64..25, 1..5),
        extra in 4u64..20,
        moves in proptest::collection::vec((0usize..6, 0u64..1000), 1..30),
    ) {
        let n = exec.len();
        let inst = independent_instance(&exec, &powers[..n]);
        let horizon: Time = exec.iter().sum::<u64>() + extra;
        let profile = spread_profile(horizon, &budgets);
        let mut sched = Schedule::new(vec![0; n]);

        let mut dense = DenseGrid::build(&inst, &sched, &profile);
        let mut sparse = IntervalEngine::build(&inst, &sched, &profile);
        let mut fenwick = FenwickEngine::build(&inst, &sched, &profile);
        prop_assert_eq!(fenwick.total_cost(), dense.total_cost());
        prop_assert_eq!(fenwick.total_cost(), carbon_cost(&inst, &sched, &profile));
        prop_assert_eq!(fenwick.horizon(), horizon);

        for (vi, raw_start) in moves {
            let v = (vi % n) as u32;
            let len = inst.exec(v);
            let w = inst.work_power(v) as i64;
            let s = sched.start(v);
            let ns = raw_start % (horizon - len + 1);
            // Deltas agree bit-for-bit across all three backends.
            let dd = dense.shift_delta(s, len, w, ns);
            let ds = sparse.shift_delta(s, len, w, ns);
            let df = fenwick.shift_delta(s, len, w, ns);
            prop_assert_eq!(dd, ds);
            prop_assert_eq!(dd, df);
            // So do raw placement deltas over the same window.
            prop_assert_eq!(
                fenwick.place_delta(ns, len, w),
                dense.place_delta(ns, len, w)
            );
            prop_assert_eq!(
                fenwick.place_delta(ns, len, w),
                sparse.place_delta(ns, len, w)
            );
            dense.apply_shift(s, len, w, ns);
            sparse.apply_shift(s, len, w, ns);
            fenwick.apply_shift(s, len, w, ns);
            sched.set_start(v, ns);
            let oracle = carbon_cost(&inst, &sched, &profile);
            prop_assert_eq!(dense.total_cost(), oracle);
            prop_assert_eq!(sparse.total_cost(), oracle);
            prop_assert_eq!(fenwick.total_cost(), oracle);
        }
    }

    #[test]
    fn fenwick_placement_roundtrip_is_exact(
        exec in proptest::collection::vec(1u64..6, 1..5),
        powers in proptest::collection::vec((0u64..3, 1u64..10), 5),
        budgets in proptest::collection::vec(0u64..15, 1..4),
        extra in 2u64..12,
        window in (0u64..40, 1u64..10),
        delta in -20i64..20,
    ) {
        let n = exec.len();
        let inst = independent_instance(&exec, &powers[..n]);
        let horizon: Time = exec.iter().sum::<u64>() + extra;
        let profile = spread_profile(horizon, &budgets);
        let sched = Schedule::new(vec![0; n]);
        let mut fenwick = FenwickEngine::build(&inst, &sched, &profile);
        let dense = DenseGrid::build(&inst, &sched, &profile);

        let len = window.1.min(horizon);
        let start = window.0 % (horizon - len + 1);
        prop_assert_eq!(
            fenwick.place_delta(start, len, delta),
            dense.place_delta(start, len, delta)
        );
        // Apply + revert returns to the exact same total.
        let before = fenwick.total_cost();
        let d = fenwick.place_delta(start, len, delta);
        fenwick.apply_place(start, len, delta);
        prop_assert_eq!(fenwick.total_cost() as i64, before as i64 + d);
        fenwick.apply_place(start, len, -delta);
        prop_assert_eq!(fenwick.total_cost(), before);
    }
}
