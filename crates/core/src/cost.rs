//! Carbon cost of a schedule.
//!
//! §3 defines the carbon cost at time `t` as
//! `CC_t = max(P_t - G_j, 0)` where `P_t` sums idle power of *all*
//! processors (compute and links) plus working power of the active ones,
//! and `G_j` is the green budget of the interval containing `t`. The
//! total cost is `Σ_t CC_t`.
//!
//! Because total idle power is constant in time, only the *working* power
//! varies with the schedule; we work with
//! `CC_t = max(W(t) - d(t), 0)`, `d(t) = G_j - Σ P_idle` (possibly
//! negative in general instances, although §6.1's generation rule keeps
//! it non-negative).
//!
//! Two stateless evaluators are provided here:
//!
//! * [`carbon_cost`] — the polynomial interval/subinterval sweep of
//!   Appendix A.1 (`O((N + J) log N)`), used for all reported costs,
//! * [`carbon_cost_naive`] — the pseudo-polynomial per-time-unit loop
//!   from §3, kept as a test oracle.
//!
//! The *incremental* evaluators that power the local search live in
//! [`crate::engine`]: the [`crate::engine::CostEngine`] trait with the
//! per-time-unit [`crate::engine::DenseGrid`] oracle and the
//! interval-sparse [`crate::engine::IntervalEngine`] production
//! backend.

use cawo_graph::NodeId;
use cawo_platform::{PowerProfile, Time};

use crate::enhanced::Instance;
use crate::schedule::Schedule;

/// Total carbon cost (green-budget overshoot integrated over time).
pub type Cost = u64;

/// Narrows a `u128` cost accumulator to the public [`Cost`] width.
///
/// Cost sweeps accumulate in `u128` so intermediate sums of
/// `power × duration` products cannot overflow. The final total fits
/// `u64` for every instance the builders accept (bounded horizon and
/// per-unit power); a value past `u64::MAX` means instance validation
/// is broken, which is a bug, not a recoverable solver condition.
#[expect(
    clippy::expect_used,
    reason = "see above: unreachable for any instance that passed build-time validation."
)]
pub(crate) fn narrow_cost(cost: u128) -> Cost {
    Cost::try_from(cost).expect("carbon cost fits in u64")
}

/// Polynomial-time cost evaluation (Appendix A.1).
///
/// Sweeps the merged breakpoints of task starts/ends and interval
/// boundaries; within each produced subinterval both the working power
/// and the budget are constant. Time past the profile's deadline (only
/// possible for invalid schedules) is costed with budget 0.
pub fn carbon_cost(inst: &Instance, sched: &Schedule, profile: &PowerProfile) -> Cost {
    sweep_cost(inst, sched, profile, 0)
}

/// Carbon cost restricted to the suffix `[from, ∞)` of the horizon.
///
/// Identical sweep to [`carbon_cost`], but segments before `from`
/// contribute nothing: the running working power is pre-rolled up to
/// `from` and the sweep starts there. By construction
/// `carbon_cost(..) == carbon_cost_from(.., 0)` and, for any split
/// point `t`, `carbon_cost(..) == (cost over [0,t)) +
/// carbon_cost_from(.., t)` — the identity the incremental trace-tail
/// re-answer in [`crate::engine::reanswer`] relies on.
pub fn carbon_cost_from(
    inst: &Instance,
    sched: &Schedule,
    profile: &PowerProfile,
    from: Time,
) -> Cost {
    sweep_cost(inst, sched, profile, from)
}

fn sweep_cost(inst: &Instance, sched: &Schedule, profile: &PowerProfile, from: Time) -> Cost {
    let n = inst.node_count();
    let mut events: Vec<(Time, i64)> = Vec::with_capacity(2 * n);
    for v in 0..n as NodeId {
        let w = inst.work_power(v) as i64;
        if w == 0 {
            continue;
        }
        let s = sched.start(v);
        events.push((s, w));
        events.push((s + inst.exec(v), -w));
    }
    events.sort_unstable();

    let idle = inst.total_idle_power() as i64;
    let boundaries = profile.boundaries();
    let deadline = profile.deadline();

    let mut cost: u128 = 0;
    let mut work: i64 = 0;
    let mut ei = 0; // next event
    let end = events.last().map_or(deadline, |&(te, _)| te.max(deadline));
    if from >= end {
        return 0;
    }
    // Pre-roll the working power over [0, from): events strictly before
    // the suffix start are applied without costing their segments.
    while ei < events.len() && events[ei].0 < from {
        work += events[ei].1;
        ei += 1;
    }
    let mut t: Time = from;
    let mut bi = boundaries.partition_point(|&b| b <= from); // next boundary > t
    while t < end {
        // Apply all events at time t.
        while ei < events.len() && events[ei].0 == t {
            work += events[ei].1;
            ei += 1;
        }
        // Next breakpoint: next event or next interval boundary.
        let next_event = events.get(ei).map_or(Time::MAX, |&(te, _)| te);
        let next_boundary = if bi < boundaries.len() {
            boundaries[bi]
        } else {
            Time::MAX
        };
        let next = next_event.min(next_boundary).min(end);
        debug_assert!(next > t);
        let budget = if t < deadline {
            profile.budget_at(t) as i64
        } else {
            0
        };
        let over = (idle + work - budget).max(0) as u128;
        cost += over * (next - t) as u128;
        if next == next_boundary {
            bi += 1;
        }
        t = next;
    }
    // Drain end-of-horizon events (zero-length remainder, no cost).
    while ei < events.len() {
        debug_assert_eq!(events[ei].0, t);
        work += events[ei].1;
        ei += 1;
    }
    debug_assert_eq!(work, 0, "every started task must end");
    narrow_cost(cost)
}

/// Pseudo-polynomial oracle: materialises working power per time unit and
/// sums `max(P_t - G_t, 0)` exactly as §3 writes it. Quadratic-ish in the
/// horizon; use only in tests.
pub fn carbon_cost_naive(inst: &Instance, sched: &Schedule, profile: &PowerProfile) -> Cost {
    let deadline = profile.deadline();
    let horizon = (0..inst.node_count() as NodeId)
        .map(|v| sched.finish(v, inst))
        .max()
        .unwrap_or(0)
        .max(deadline) as usize;
    let mut diff = vec![0i64; horizon + 1];
    for v in 0..inst.node_count() as NodeId {
        let w = inst.work_power(v) as i64;
        diff[sched.start(v) as usize] += w;
        diff[sched.finish(v, inst) as usize] -= w;
    }
    let idle = inst.total_idle_power() as i64;
    let mut work = 0i64;
    let mut cost: u128 = 0;
    #[expect(clippy::needless_range_loop, reason = "indices double as time units")]
    for t in 0..horizon {
        work += diff[t];
        let budget = if (t as Time) < deadline {
            profile.budget_at(t as Time) as i64
        } else {
            0
        };
        cost += (idle + work - budget).max(0) as u128;
    }
    narrow_cost(cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enhanced::UnitInfo;
    use cawo_graph::dag::DagBuilder;
    use cawo_platform::PowerProfile;

    /// Two independent tasks on two units: exec 4 & 2, work power 10 & 5.
    fn two_task_instance() -> Instance {
        let dag = DagBuilder::new(2).build().unwrap();
        Instance::from_raw(
            dag,
            vec![4, 2],
            vec![0, 1],
            vec![
                UnitInfo {
                    p_idle: 3,
                    p_work: 10,
                    is_link: false,
                },
                UnitInfo {
                    p_idle: 2,
                    p_work: 5,
                    is_link: false,
                },
            ],
            0,
        )
    }

    #[test]
    fn cost_hand_computed() {
        let inst = two_task_instance();
        // Idle = 5. Profile: [0,4) budget 10, [4,8) budget 6.
        let profile = PowerProfile::from_parts(vec![0, 4, 8], vec![10, 6]);
        // Task 0 at 0..4 (power 10), task 1 at 4..6 (power 5).
        let s = Schedule::new(vec![0, 4]);
        // t in [0,4): P = 5+10 = 15, G = 10 ⇒ 5/unit ⇒ 20.
        // t in [4,6): P = 5+5 = 10, G = 6 ⇒ 4/unit ⇒ 8.
        // t in [6,8): P = 5, G = 6 ⇒ 0.
        assert_eq!(carbon_cost(&inst, &s, &profile), 28);
        assert_eq!(carbon_cost_naive(&inst, &s, &profile), 28);
    }

    #[test]
    fn overlapping_tasks_sum_power() {
        let inst = two_task_instance();
        let profile = PowerProfile::from_parts(vec![0, 8], vec![10]);
        let s = Schedule::new(vec![0, 0]);
        // [0,2): 5+15 − 10 = 10 ⇒ 20; [2,4): 5+10 − 10 = 5 ⇒ 10; rest 0.
        assert_eq!(carbon_cost(&inst, &s, &profile), 30);
        assert_eq!(carbon_cost_naive(&inst, &s, &profile), 30);
    }

    #[test]
    fn zero_cost_when_budget_suffices() {
        let inst = two_task_instance();
        let profile = PowerProfile::uniform(10, 100);
        let s = Schedule::new(vec![0, 5]);
        assert_eq!(carbon_cost(&inst, &s, &profile), 0);
    }

    #[test]
    fn budget_below_idle_is_charged() {
        // General-case handling: G < Σ P_idle ⇒ idle overflow is costed.
        let inst = two_task_instance(); // idle 5
        let profile = PowerProfile::uniform(10, 3);
        let s = Schedule::new(vec![0, 4]);
        // [0,4): 15−3=12 ⇒48. [4,6): 10−3=7 ⇒14. [6,10): 5−3=2 ⇒8.
        assert_eq!(carbon_cost(&inst, &s, &profile), 70);
        assert_eq!(carbon_cost_naive(&inst, &s, &profile), 70);
    }

    #[test]
    fn sweep_matches_naive_on_random_schedules() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            // Random instance: 6 independent tasks, varied powers.
            let dag = DagBuilder::new(6).build().unwrap();
            let units: Vec<UnitInfo> = (0..6)
                .map(|_| UnitInfo {
                    p_idle: rng.gen_range(0..5),
                    p_work: rng.gen_range(1..20),
                    is_link: false,
                })
                .collect();
            let exec: Vec<Time> = (0..6).map(|_| rng.gen_range(1..10)).collect();
            let inst = Instance::from_raw(dag, exec.clone(), (0..6).collect(), units, 0);
            let boundaries = {
                let mut b = vec![0 as Time];
                let mut t = 0;
                for _ in 0..4 {
                    t += rng.gen_range(5..15);
                    b.push(t);
                }
                b
            };
            let deadline = *boundaries.last().unwrap();
            let budgets = (0..4).map(|_| rng.gen_range(0..40)).collect();
            let profile = PowerProfile::from_parts(boundaries, budgets);
            let starts: Vec<Time> = (0..6)
                .map(|v| rng.gen_range(0..=(deadline - exec[v])))
                .collect();
            let s = Schedule::new(starts);
            assert_eq!(
                carbon_cost(&inst, &s, &profile),
                carbon_cost_naive(&inst, &s, &profile)
            );
        }
    }

    #[test]
    fn suffix_cost_splits_total() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let inst = two_task_instance();
        for _ in 0..40 {
            let boundaries = vec![0, 4, 9, 16];
            let budgets = (0..3).map(|_| rng.gen_range(0..20)).collect();
            let profile = PowerProfile::from_parts(boundaries, budgets);
            let s = Schedule::new(vec![rng.gen_range(0..=12), rng.gen_range(0..=14)]);
            let total = carbon_cost(&inst, &s, &profile);
            assert_eq!(carbon_cost_from(&inst, &s, &profile, 0), total);
            for from in 0..=20 {
                let suffix = carbon_cost_from(&inst, &s, &profile, from);
                let prefix = total - suffix; // suffix ≤ total by construction
                                             // Re-derive the prefix independently: total of a profile
                                             // truncated at `from` would change budgets, so instead
                                             // check monotonicity and the exact split at breakpoints.
                assert!(suffix <= total, "from {from}");
                let _ = prefix;
            }
            // Exact split check: suffix(from) + (total − suffix(from))
            // must reconstruct the sweep — verified against the naive
            // per-time-unit oracle restricted to the suffix.
            for from in [0, 3, 4, 5, 9, 13, 16, 40] {
                let suffix = carbon_cost_from(&inst, &s, &profile, from);
                let naive_suffix: u64 = {
                    let deadline = profile.deadline();
                    let horizon = (0..2)
                        .map(|v| s.finish(v, &inst))
                        .max()
                        .unwrap()
                        .max(deadline);
                    let idle = inst.total_idle_power() as i64;
                    (from..horizon)
                        .map(|t| {
                            let mut p = idle;
                            for v in 0..2 {
                                if s.start(v) <= t && t < s.finish(v, &inst) {
                                    p += inst.work_power(v) as i64;
                                }
                            }
                            let g = if t < deadline {
                                profile.budget_at(t) as i64
                            } else {
                                0
                            };
                            (p - g).max(0) as u64
                        })
                        .sum()
                };
                assert_eq!(suffix, naive_suffix, "from {from}");
            }
        }
    }
}
