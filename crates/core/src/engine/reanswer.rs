//! Incremental trace-tail re-answer.
//!
//! The serving scenario behind the `cawod` north star: a workflow was
//! evaluated against a carbon forecast, the forecast's *tail* is then
//! revised (rolling forecasts only ever change after "now"), and the
//! cost of the cached schedule under the new profile is wanted — ideally
//! without re-pricing the whole horizon.
//!
//! [`profile_divergence`] finds the earliest time `t` where two budget
//! functions differ; [`reanswer_cost`] then patches the cached cost with
//! `old_cost − old_suffix(t) + new_suffix(t)` using
//! [`carbon_cost_from`]. The answer is bit-identical to a cold
//! [`carbon_cost`](crate::carbon_cost) of the same schedule under the
//! new profile — that is
//! the contract the warm-path test suite pins across S1–S4 and measured
//! traces.
//!
//! When the new profile *shortens* the deadline below the cached
//! schedule's makespan the cached answer cannot be served;
//! [`repair_for_deadline`] attempts a cheap local repair (ALAP clamp +
//! forward legalisation, `O(V + E)`) so callers can still warm-start a
//! re-solve from a feasible incumbent instead of falling back to a cold
//! heuristic.

use cawo_platform::{PowerProfile, Time};

use crate::cost::{carbon_cost_from, Cost};
use crate::enhanced::Instance;
use crate::schedule::Schedule;

/// Earliest time at which two piecewise-constant budget functions
/// differ, or `None` if they are identical as functions of time
/// (interval *structure* may differ — only values matter).
///
/// Profiles with different deadlines diverge at the shorter deadline at
/// the latest: past its deadline a profile's budget is 0 by convention,
/// and the horizon itself constrains the schedule.
pub fn profile_divergence(old: &PowerProfile, new: &PowerProfile) -> Option<Time> {
    let ob = old.boundaries();
    let nb = new.boundaries();
    let obud = old.budgets();
    let nbud = new.budgets();
    let horizon = old.deadline().min(new.deadline());
    let (mut i, mut j) = (0usize, 0usize);
    let mut t: Time = 0;
    while t < horizon {
        if obud[i] != nbud[j] {
            return Some(t);
        }
        let next = ob[i + 1].min(nb[j + 1]).min(horizon);
        if ob[i + 1] == next {
            i += 1;
        }
        if nb[j + 1] == next {
            j += 1;
        }
        t = next;
    }
    if old.deadline() != new.deadline() {
        return Some(horizon);
    }
    None
}

/// Re-answers the cost of a cached (schedule, cost) pair under a new
/// profile by re-pricing only the changed suffix.
///
/// `old_cost` must be `carbon_cost(inst, sched, old)`. Returns `None`
/// when the schedule no longer fits the new profile's horizon (the
/// caller should repair or re-solve); otherwise the returned cost is
/// bit-identical to `carbon_cost(inst, sched, new)`.
pub fn reanswer_cost(
    inst: &Instance,
    sched: &Schedule,
    old: &PowerProfile,
    old_cost: Cost,
    new: &PowerProfile,
) -> Option<Cost> {
    if sched.makespan(inst) > new.deadline() {
        return None;
    }
    match profile_divergence(old, new) {
        None => Some(old_cost),
        Some(t) => {
            let old_tail = carbon_cost_from(inst, sched, old, t);
            let new_tail = carbon_cost_from(inst, sched, new, t);
            #[expect(
                clippy::expect_used,
                reason = "the split identity `total = head + tail` (see carbon_cost_from docs) bounds the tail by the total; property-tested in this module."
            )]
            let old_head = old_cost
                .checked_sub(old_tail)
                .expect("suffix cost cannot exceed total cost");
            Some(old_head + new_tail)
        }
    }
}

/// Local repair of a schedule for a tighter deadline: clamp every start
/// to its ALAP bound under the new deadline (reverse topological pass),
/// then legalise precedence forward. Starts only ever move *earlier*,
/// so a feasible result stays within the original green-aware placement
/// where the deadline permits. Returns `None` when no precedence-valid
/// schedule fits the deadline (i.e. the critical path is too long).
pub fn repair_for_deadline(inst: &Instance, sched: &Schedule, deadline: Time) -> Option<Schedule> {
    let n = inst.node_count();
    let dag = inst.dag();
    let order = inst.topo_order();

    // Reverse pass: latest feasible start per node.
    let mut latest = vec![0 as Time; n];
    for &v in order.iter().rev() {
        let mut finish_by = deadline;
        for &s in dag.successors(v) {
            finish_by = finish_by.min(latest[s as usize]);
        }
        let exec = inst.exec(v);
        if finish_by < exec {
            return None; // critical path exceeds the deadline
        }
        latest[v as usize] = finish_by - exec;
    }

    // Forward pass: clamp to ALAP, then push below predecessor finishes.
    let mut out = sched.clone();
    for &v in order {
        let mut s = out.start(v).min(latest[v as usize]);
        for &p in dag.predecessors(v) {
            s = s.max(out.finish(p, inst));
        }
        if s > latest[v as usize] {
            return None;
        }
        out.set_start(v, s);
    }
    debug_assert!(out.validate(inst, deadline).is_ok());
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::carbon_cost;
    use crate::enhanced::UnitInfo;
    use cawo_graph::dag::DagBuilder;

    fn chain_instance() -> Instance {
        // 0 → 1 → 2 on one unit.
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let dag = b.build().unwrap();
        let unit = UnitInfo {
            p_idle: 1,
            p_work: 7,
            is_link: false,
        };
        Instance::from_raw(dag, vec![3, 2, 4], vec![0, 0, 0], vec![unit], 0)
    }

    #[test]
    fn divergence_ignores_interval_structure() {
        let a = PowerProfile::from_parts(vec![0, 10], vec![5]);
        let b = PowerProfile::from_parts(vec![0, 4, 10], vec![5, 5]);
        assert_eq!(profile_divergence(&a, &b), None);
    }

    #[test]
    fn divergence_finds_earliest_change() {
        let a = PowerProfile::from_parts(vec![0, 4, 8, 12], vec![5, 6, 7]);
        let b = PowerProfile::from_parts(vec![0, 4, 8, 12], vec![5, 6, 9]);
        assert_eq!(profile_divergence(&a, &b), Some(8));
        let c = PowerProfile::from_parts(vec![0, 4, 8, 12], vec![5, 2, 7]);
        assert_eq!(profile_divergence(&a, &c), Some(4));
        // A mid-interval split with a changed second half diverges at
        // the split point, not the original boundary.
        let d = PowerProfile::from_parts(vec![0, 4, 6, 8, 12], vec![5, 6, 3, 7]);
        assert_eq!(profile_divergence(&a, &d), Some(6));
    }

    #[test]
    fn divergence_on_deadline_only() {
        let a = PowerProfile::from_parts(vec![0, 4, 8], vec![5, 6]);
        let b = PowerProfile::from_parts(vec![0, 4, 8, 12], vec![5, 6, 6]);
        assert_eq!(profile_divergence(&a, &b), Some(8));
        assert_eq!(profile_divergence(&b, &a), Some(8));
    }

    #[test]
    fn reanswer_matches_cold_eval() {
        let inst = chain_instance();
        let old = PowerProfile::from_parts(vec![0, 5, 10, 15], vec![9, 4, 8]);
        let new = PowerProfile::from_parts(vec![0, 5, 10, 15], vec![9, 4, 2]);
        let sched = Schedule::new(vec![0, 3, 5]);
        let old_cost = carbon_cost(&inst, &sched, &old);
        let got = reanswer_cost(&inst, &sched, &old, old_cost, &new).unwrap();
        assert_eq!(got, carbon_cost(&inst, &sched, &new));
    }

    #[test]
    fn reanswer_rejects_too_tight_deadline() {
        let inst = chain_instance();
        let old = PowerProfile::from_parts(vec![0, 15], vec![9]);
        let new = PowerProfile::from_parts(vec![0, 8], vec![9]);
        let sched = Schedule::new(vec![0, 3, 5]); // makespan 9 > 8
        let old_cost = carbon_cost(&inst, &sched, &old);
        assert_eq!(reanswer_cost(&inst, &sched, &old, old_cost, &new), None);
    }

    #[test]
    fn repair_clamps_to_tighter_deadline() {
        let inst = chain_instance();
        // Schedule with slack at the end: starts 0, 4, 8, makespan 12.
        let sched = Schedule::new(vec![0, 4, 8]);
        let repaired = repair_for_deadline(&inst, &sched, 10).unwrap();
        assert!(repaired.validate(&inst, 10).is_ok());
        // Starts only move earlier.
        for v in 0..3 {
            assert!(repaired.start(v) <= sched.start(v));
        }
        // Critical path is 9; deadline 8 is infeasible.
        assert!(repair_for_deadline(&inst, &sched, 8).is_none());
        assert!(repair_for_deadline(&inst, &sched, 9).is_some());
    }
}
