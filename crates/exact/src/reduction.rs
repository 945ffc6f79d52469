//! The 3-Partition reduction of the strong NP-completeness proof
//! (§4.2 / Appendix A.3).
//!
//! Given a 3-Partition instance — a multiset `S = {x_1, …, x_3n}` with
//! `Σ x_i = n·B` and `B/4 < x_i < B/2` — the UCAS gadget consists of:
//!
//! * `3n` power-homogeneous processors (`P_idle = 0`, `P_work = 1`),
//! * `3n` independent tasks, task `v_i` of length `x_i` mapped to
//!   processor `p_i`,
//! * a horizon of `2n - 1` intervals: odd intervals of length `B` with
//!   green budget 1, separated by unit-length intervals with budget 0.
//!
//! A zero-cost schedule exists **iff** the 3-Partition instance is a
//! yes-instance: cost 0 forces exactly one active processor per time
//! unit of the green intervals and none elsewhere, which packs the tasks
//! into `n` triplets of total length `B`. This module builds the gadget
//! so tests can exercise the exact solver on adversarial instances and
//! verify both directions of the equivalence on small inputs.

use cawo_core::enhanced::UnitInfo;
use cawo_core::Instance;
use cawo_graph::dag::DagBuilder;
use cawo_platform::{PowerProfile, Time};

/// Builds the UCAS gadget `(instance, profile)` for multiset `xs` and
/// bound `b`. Requires `xs.len() = 3n` for some `n ≥ 1`; the value
/// conditions of 3-Partition are the caller's business (the gadget is
/// well-defined without them, the iff needs them).
pub fn three_partition_instance(xs: &[Time], b: Time) -> (Instance, PowerProfile) {
    assert!(
        !xs.is_empty() && xs.len().is_multiple_of(3),
        "need 3n elements"
    );
    let n = xs.len() / 3;
    #[expect(
        clippy::expect_used,
        reason = "the builder saw no edges, and an edgeless graph cannot contain a cycle."
    )]
    let dag = DagBuilder::new(xs.len())
        .build()
        .expect("no edges, trivially acyclic");
    let units: Vec<UnitInfo> = (0..xs.len())
        .map(|_| UnitInfo {
            p_idle: 0,
            p_work: 1,
            is_link: false,
        })
        .collect();
    let unit_of: Vec<u32> = (0..xs.len() as u32).collect();
    let inst = Instance::from_raw(dag, xs.to_vec(), unit_of, units, 0);

    // Intervals: B, 1, B, 1, …, B (2n - 1 of them).
    let mut boundaries = vec![0 as Time];
    let mut budgets = Vec::with_capacity(2 * n - 1);
    let mut cur: Time = 0;
    for k in 0..2 * n - 1 {
        let (len, g) = if k % 2 == 0 { (b, 1) } else { (1, 0) };
        cur += len;
        boundaries.push(cur);
        budgets.push(g);
    }
    (inst, PowerProfile::from_parts(boundaries, budgets))
}

/// Total horizon of the gadget: `nB + n - 1`.
pub fn gadget_horizon(n: usize, b: Time) -> Time {
    n as Time * b + n as Time - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::{solve_exact, BnbConfig};

    #[test]
    fn gadget_shape() {
        let xs = vec![3, 3, 3, 3, 3, 3]; // n = 2, B = 9
        let (inst, profile) = three_partition_instance(&xs, 9);
        assert_eq!(inst.node_count(), 6);
        assert_eq!(inst.unit_count(), 6);
        assert_eq!(profile.interval_count(), 3);
        assert_eq!(profile.deadline(), gadget_horizon(2, 9));
        assert_eq!(profile.budget(0), 1);
        assert_eq!(profile.budget(1), 0);
        assert_eq!(inst.total_idle_power(), 0);
    }

    #[test]
    fn yes_instance_has_zero_cost_schedule() {
        // S = {4, 5, 6, 4, 5, 6}, B = 15: triplets (4,5,6) twice.
        // (Values satisfy B/4 < x < B/2? 15/4=3.75 < 4..6 < 7.5 ✓.)
        let xs = vec![4, 5, 6, 4, 5, 6];
        let (inst, profile) = three_partition_instance(&xs, 15);
        let res = solve_exact(&inst, &profile, BnbConfig::default());
        assert!(res.optimal);
        assert_eq!(res.cost, 0, "yes-instance must admit a zero-cost schedule");
        assert!(res.schedule.validate(&inst, profile.deadline()).is_ok());
    }

    #[test]
    fn no_instance_has_positive_cost() {
        // S = {4, 4, 4, 6, 6, 6}, B = 15: 4+4+4=12, 6+6+6=18 — the only
        // 3-partitions are (4,4,4)/(6,6,6) or mixed (4,4,6)=14 /
        // (4,6,6)=16; none hits 15, so no zero-cost schedule exists.
        let xs = vec![4, 4, 4, 6, 6, 6];
        let (inst, profile) = three_partition_instance(&xs, 15);
        let res = solve_exact(&inst, &profile, BnbConfig::default());
        assert!(res.optimal);
        assert!(res.cost > 0, "no-instance cannot reach zero cost");
    }

    #[test]
    fn single_triplet_trivial_yes() {
        let xs = vec![5, 6, 7];
        let (inst, profile) = three_partition_instance(&xs, 18);
        // n=1: a single interval of length 18, budget 1.
        assert_eq!(profile.interval_count(), 1);
        let res = solve_exact(&inst, &profile, BnbConfig::default());
        assert!(res.optimal);
        assert_eq!(res.cost, 0);
    }

    #[test]
    #[should_panic(expected = "3n elements")]
    fn rejects_non_triple_input() {
        let _ = three_partition_instance(&[1, 2], 3);
    }
}
