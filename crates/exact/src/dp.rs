//! Uniprocessor dynamic programs (§4.1, Appendix A.2).
//!
//! With one processor the task order is fixed, so a schedule is just a
//! completion time per task. Two exact algorithms:
//!
//! * [`dp_pseudo_polynomial`] — the table `Opt(i, t)` over every time
//!   unit `t ≤ T` (Eq. (1)), `O(n·T)` after prefix-sum preprocessing,
//! * [`dp_polynomial`] — the same recurrence restricted to the
//!   E-schedule candidate end times of Appendix A.2 (`O(n³J)` many),
//!   which Lemma 4.2 proves lossless.
//!
//! Both include the idle-gap cost term omitted in the paper's Eq. (1):
//! the paper may drop it because its §6.1 profiles guarantee
//! `G_j ≥ Σ P_idle` (making idle time free); these implementations stay
//! exact for arbitrary budgets.
//!
//! Neither DP ever re-prices a candidate schedule: every transition is
//! answered from two [`PrefixCost`] prefix-sum oracles (active and idle
//! platform power) in `O(log J)` — the engine-backed incremental
//! costing of `cawo_core::engine`, specialised to the uniprocessor
//! setting.

use std::time::Instant;

use cawo_core::{Cost, Instance, PrefixCost, Schedule};
use cawo_graph::NodeId;
use cawo_platform::{PowerProfile, Time};

use crate::solver::{
    heuristic_incumbent, Budget, SolveError, SolveResult, SolveStats, SolveStatus,
};

/// Result of an exact uniprocessor optimisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpResult {
    /// Optimal carbon cost.
    pub cost: Cost,
    /// An optimal schedule.
    pub schedule: Schedule,
}

/// Extracts the single chain (task order) of a uniprocessor instance.
/// Panics if more than one unit actually executes nodes.
#[expect(
    clippy::panic,
    reason = "documented panic: the DP entry points require uniprocessor instances; the solver registry validates shape before dispatching here."
)]
fn single_chain(inst: &Instance) -> (Vec<NodeId>, u64) {
    crate::solver::single_chain(inst).unwrap_or_else(|e| panic!("{e}"))
}

/// The pseudo-polynomial DP (Eq. (1) plus idle-gap cost). `O(n·T)` time
/// and memory; only suitable for moderate horizons. Not a registry
/// entry: it is the independent oracle that [`dp_polynomial`] is
/// tested against.
pub fn dp_pseudo_polynomial(inst: &Instance, profile: &PowerProfile) -> DpResult {
    let (chain, p_work) = single_chain(inst);
    let horizon = profile.deadline();
    let idle = inst.total_idle_power();
    let active = PrefixCost::new(profile, idle + p_work);
    let idle_cost = PrefixCost::new(profile, idle);

    let n = chain.len();
    let t_max = horizon as usize;
    const INF: u64 = u64::MAX / 4;

    // opt[t] = best cost for the prefix ending exactly at t (current i).
    let mut opt = vec![INF; t_max + 1];
    let mut parents: Vec<Vec<u32>> = Vec::with_capacity(n);

    let mut prefix_exec: Time = 0;
    for (i, &v) in chain.iter().enumerate() {
        let w = inst.exec(v);
        prefix_exec += w;
        let mut next = vec![INF; t_max + 1];
        let mut parent = vec![u32::MAX; t_max + 1];
        if i == 0 {
            for t in w..=horizon {
                // Idle before the first task is also charged.
                next[t as usize] = idle_cost.window(0, t - w) + active.window(t - w, t);
                parent[t as usize] = 0;
            }
        } else {
            // Eq. (1) with a running prefix minimum: the transition cost
            // decomposes as Opt(i-1, s) + idle(s, x) + active(x, t) with
            // x = t - ω(v_i), so minimising over s ≤ x only needs
            // min_s (Opt(i-1, s) - idle_cum(s)), kept incrementally in
            // i128 (the keyed difference can be negative).
            let mut best_val: i128 = i128::MAX;
            let mut best_at: u32 = u32::MAX;
            let mut s_cursor: Time = prefix_exec - w; // earliest end of task i-1
            for t in prefix_exec..=horizon {
                let x = t - w;
                while s_cursor <= x {
                    if opt[s_cursor as usize] < INF {
                        let key = opt[s_cursor as usize] as i128 - idle_cost.cum(s_cursor) as i128;
                        if key < best_val {
                            best_val = key;
                            best_at = s_cursor as u32;
                        }
                    }
                    s_cursor += 1;
                }
                if best_at != u32::MAX {
                    let total = best_val + idle_cost.cum(x) as i128 + active.window(x, t) as i128;
                    #[expect(
                        clippy::expect_used,
                        reason = "every summand (DP value, idle prefix, window cost) is >= 0."
                    )]
                    let cell_cost = u64::try_from(total).expect("cost is non-negative");
                    next[t as usize] = cell_cost;
                    parent[t as usize] = best_at;
                }
            }
        }
        opt = next;
        parents.push(parent);
    }

    // Trailing idle after the last task until T.
    let mut best_cost = INF;
    let mut best_end: Time = 0;
    for t in prefix_exec..=horizon {
        if opt[t as usize] < INF {
            let total = opt[t as usize] + idle_cost.window(t, horizon);
            if total < best_cost {
                best_cost = total;
                best_end = t;
            }
        }
    }
    assert!(best_cost < INF, "deadline below total execution time");

    // Reconstruct completion times.
    let mut start = vec![0 as Time; inst.node_count()];
    let mut end = best_end;
    for i in (0..n).rev() {
        let v = chain[i];
        start[v as usize] = end - inst.exec(v);
        let p = parents[i][end as usize];
        end = if i == 0 { 0 } else { p as Time };
    }
    DpResult {
        cost: best_cost,
        schedule: Schedule::new(start),
    }
}

/// Candidate end times for each task position per Appendix A.2: for
/// every block `[r, s]` containing position `u` and every boundary
/// `e ∈ E`, the end of `u` when the block starts or ends at `e`.
/// (Also drives the branch-and-bound's boundary-aligned candidate
/// restriction on single-chain instances — see [`crate::bnb`].)
pub(crate) fn candidate_end_times(
    chain: &[NodeId],
    inst: &Instance,
    profile: &PowerProfile,
) -> Vec<Vec<Time>> {
    let n = chain.len();
    let horizon = profile.deadline();
    let exec: Vec<Time> = chain.iter().map(|&v| inst.exec(v)).collect();
    // prefix[i] = Σ_{j<i} exec[j]
    let mut prefix = vec![0 as Time; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + exec[i];
    }
    let boundaries = profile.boundaries();
    let mut cand: Vec<Vec<Time>> = vec![Vec::new(); n];
    for r in 0..n {
        for s in r..n {
            // Block [r, s]: length prefix[s+1] - prefix[r].
            for &e in boundaries {
                for (u, c) in cand.iter_mut().enumerate().take(s + 1).skip(r) {
                    // end(u) relative to block start: prefix[u+1]-prefix[r].
                    let off_start = prefix[u + 1] - prefix[r];
                    // Start-aligned: block starts at e.
                    let t1 = e + off_start;
                    // End-aligned: block ends at e (end of task s at e).
                    let off_end = prefix[s + 1] - prefix[u + 1];
                    // Feasibility window of task u's end time.
                    let lo = prefix[u + 1];
                    let hi = horizon - (prefix[n] - prefix[u + 1]);
                    if t1 >= lo && t1 <= hi {
                        c.push(t1);
                    }
                    if let Some(t2) = e.checked_sub(off_end) {
                        if t2 >= lo && t2 <= hi {
                            c.push(t2);
                        }
                    }
                }
            }
        }
    }
    for c in &mut cand {
        c.sort_unstable();
        c.dedup();
    }
    cand
}

/// The fully polynomial DP: identical recurrence, but task ends range
/// over the `O(n²J)` candidate set per task (Lemma 4.2 guarantees an
/// optimal E-schedule exists within it).
pub fn dp_polynomial(inst: &Instance, profile: &PowerProfile) -> DpResult {
    #[expect(
        clippy::expect_used,
        reason = "with no budget the budgeted DP cannot time out, so it always returns Some."
    )]
    let (res, _) = dp_polynomial_budgeted(inst, profile, None).expect("no deadline given");
    res
}

/// [`dp_polynomial`] with a wall-clock deadline: returns `None`
/// (abandoning the table) when the clock runs out between chain
/// positions. The second tuple element counts evaluated DP cells.
fn dp_polynomial_budgeted(
    inst: &Instance,
    profile: &PowerProfile,
    wall_deadline: Option<Instant>,
) -> Option<(DpResult, u64)> {
    let (chain, p_work) = single_chain(inst);
    let horizon = profile.deadline();
    let idle = inst.total_idle_power();
    let active = PrefixCost::new(profile, idle + p_work);
    let idle_cost = PrefixCost::new(profile, idle);

    let n = chain.len();
    let cand = candidate_end_times(&chain, inst, profile);
    assert!(
        cand.iter().all(|c| !c.is_empty()),
        "deadline below total execution time"
    );

    // DP over candidate lists. opt[i][k] = best cost with task i ending
    // at cand[i][k]; parent[i][k] = index into cand[i-1].
    let mut opt_prev: Vec<i128> = Vec::new();
    let mut parents: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut cells: u64 = 0;
    for i in 0..n {
        #[expect(
            clippy::disallowed_methods,
            reason = "enforcing the opt-in time budget."
        )]
        if wall_deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        cells += cand[i].len() as u64;
        let v = chain[i];
        let w = inst.exec(v);
        let cur = &cand[i];
        let mut opt_cur = vec![i128::MAX; cur.len()];
        let mut parent = vec![u32::MAX; cur.len()];
        if i == 0 {
            for (k, &t) in cur.iter().enumerate() {
                opt_cur[k] = idle_cost.window(0, t - w) as i128 + active.window(t - w, t) as i128;
                parent[k] = 0;
            }
        } else {
            let prev = &cand[i - 1];
            // Prefix minimum over opt_prev[j] - idle_cum(prev[j]).
            let mut j = 0usize;
            let mut best: i128 = i128::MAX;
            let mut best_at: u32 = u32::MAX;
            for (k, &t) in cur.iter().enumerate() {
                let x = t - w;
                while j < prev.len() && prev[j] <= x {
                    if opt_prev[j] < i128::MAX {
                        let key = opt_prev[j] - idle_cost.cum(prev[j]) as i128;
                        if key < best {
                            best = key;
                            best_at = j as u32;
                        }
                    }
                    j += 1;
                }
                if best_at != u32::MAX {
                    opt_cur[k] = best + idle_cost.cum(x) as i128 + active.window(x, t) as i128;
                    parent[k] = best_at;
                }
            }
        }
        opt_prev = opt_cur;
        parents.push(parent);
    }

    let mut best_cost = i128::MAX;
    let mut best_k = usize::MAX;
    for (k, &t) in cand[n - 1].iter().enumerate() {
        if opt_prev[k] < i128::MAX {
            let total = opt_prev[k] + idle_cost.window(t, horizon) as i128;
            if total < best_cost {
                best_cost = total;
                best_k = k;
            }
        }
    }
    assert!(
        best_k != usize::MAX,
        "no feasible completion — deadline too tight"
    );

    let mut start = vec![0 as Time; inst.node_count()];
    let mut k = best_k;
    for i in (0..n).rev() {
        let v = chain[i];
        let t = cand[i][k];
        start[v as usize] = t - inst.exec(v);
        if i > 0 {
            k = parents[i][k] as usize;
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "every summand entering `best_cost` is >= 0."
    )]
    let cost = Cost::try_from(best_cost).expect("cost is non-negative");
    Some((
        DpResult {
            cost,
            schedule: Schedule::new(start),
        },
        cells,
    ))
}

/// The registry's `dp` entry: the polynomial DP, optimal on
/// single-chain instances and [`SolveError::Unsupported`] otherwise.
pub(crate) fn solve(
    inst: &Instance,
    profile: &PowerProfile,
    budget: Budget,
) -> Result<SolveResult, SolveError> {
    crate::solver::single_chain(inst)?;
    let run = dp_polynomial_budgeted(inst, profile, budget.deadline_from_now());
    Ok(match run {
        Some((res, cells)) => SolveResult {
            cost: res.cost,
            lower_bound: Some(res.cost),
            schedule: res.schedule,
            status: SolveStatus::Optimal,
            nodes: cells,
            stats: SolveStats::default(),
            basis: None,
        },
        None => {
            // The table was abandoned mid-build; there is no DP
            // incumbent, so fall back to the heuristic one.
            let (schedule, cost) = heuristic_incumbent(inst, profile);
            SolveResult {
                schedule,
                cost,
                status: SolveStatus::TimedOut,
                nodes: 0,
                lower_bound: None,
                stats: SolveStats::default(),
                basis: None,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cawo_core::carbon_cost;
    use cawo_core::enhanced::UnitInfo;
    use cawo_graph::dag::DagBuilder;

    /// Chain instance on one unit with given exec times and powers.
    fn chain_instance(exec: Vec<Time>, p_idle: u64, p_work: u64) -> Instance {
        let n = exec.len();
        let mut b = DagBuilder::new(n);
        for i in 1..n {
            b.add_edge(i as u32 - 1, i as u32);
        }
        Instance::from_raw(
            b.build().unwrap(),
            exec,
            vec![0; n],
            vec![UnitInfo {
                p_idle,
                p_work,
                is_link: false,
            }],
            0,
        )
    }

    #[test]
    fn registry_entry_reports_cells_and_status() {
        use crate::solver::SolverKind;
        let inst = chain_instance(vec![3, 2], 0, 4);
        let profile = PowerProfile::from_parts(vec![0, 3, 8, 12], vec![0, 4, 1]);
        let res = SolverKind::Dp
            .solve(&inst, &profile, Budget::default())
            .unwrap();
        assert_eq!(res.status, SolveStatus::Optimal);
        assert_eq!(res.cost, carbon_cost(&inst, &res.schedule, &profile));
        assert_eq!(res.lower_bound, Some(res.cost));
        assert!(res.nodes > 0, "DP cells are reported");
        assert_eq!(res.cost, dp_pseudo_polynomial(&inst, &profile).cost);
    }

    #[test]
    fn registry_entry_rejects_multi_unit_and_infeasible_instances() {
        use crate::solver::SolverKind;
        let dag = DagBuilder::new(2).build().unwrap();
        let multi = Instance::from_raw(
            dag,
            vec![1, 1],
            vec![0, 1],
            vec![
                UnitInfo {
                    p_idle: 0,
                    p_work: 1,
                    is_link: false,
                },
                UnitInfo {
                    p_idle: 0,
                    p_work: 1,
                    is_link: false,
                },
            ],
            0,
        );
        let profile = PowerProfile::uniform(5, 1);
        assert!(matches!(
            SolverKind::Dp.solve(&multi, &profile, Budget::default()),
            Err(SolveError::Unsupported(_))
        ));
        let uni = chain_instance(vec![4, 4], 0, 1);
        let tight = PowerProfile::uniform(5, 1); // deadline < total exec
        assert!(matches!(
            SolverKind::Dp.solve(&uni, &tight, Budget::default()),
            Err(SolveError::Infeasible(_))
        ));
    }

    #[test]
    fn single_task_moves_to_green() {
        let inst = chain_instance(vec![4], 0, 10);
        let profile = PowerProfile::from_parts(vec![0, 6, 12], vec![0, 10]);
        for res in [
            dp_pseudo_polynomial(&inst, &profile),
            dp_polynomial(&inst, &profile),
        ] {
            assert_eq!(res.cost, 0, "task should run in the green window");
            assert!(res.schedule.start(0) >= 6);
            assert!(res.schedule.validate(&inst, 12).is_ok());
            assert_eq!(carbon_cost(&inst, &res.schedule, &profile), res.cost);
        }
    }

    #[test]
    fn two_tasks_split_across_green_windows() {
        // Two tasks of length 3; green windows [2,5) and [9,12).
        let inst = chain_instance(vec![3, 3], 0, 5);
        let profile = PowerProfile::from_parts(vec![0, 2, 5, 9, 12], vec![0, 5, 0, 5]);
        for res in [
            dp_pseudo_polynomial(&inst, &profile),
            dp_polynomial(&inst, &profile),
        ] {
            assert_eq!(res.cost, 0);
            assert_eq!(res.schedule.start(0), 2);
            assert_eq!(res.schedule.start(1), 9);
        }
    }

    #[test]
    fn idle_gap_cost_is_counted() {
        // Idle power 4, budget 1 everywhere: every time unit costs at
        // least 3, so the optimum is forced and includes idle periods.
        let inst = chain_instance(vec![2, 2], 4, 6);
        let profile = PowerProfile::from_parts(vec![0, 10], vec![1]);
        let ps = dp_pseudo_polynomial(&inst, &profile);
        let poly = dp_polynomial(&inst, &profile);
        // Any schedule: active 4 units at (4+6-1)=9 each, idle 6 units at
        // 3 each ⇒ 36 + 18 = 54.
        assert_eq!(ps.cost, 54);
        assert_eq!(poly.cost, 54);
        assert_eq!(carbon_cost(&inst, &ps.schedule, &profile), 54);
    }

    #[test]
    fn pseudo_and_polynomial_agree_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(314);
        for trial in 0..40 {
            let n = rng.gen_range(1..6);
            let exec: Vec<Time> = (0..n).map(|_| rng.gen_range(1..5)).collect();
            let total: Time = exec.iter().sum();
            let p_idle = rng.gen_range(0..3);
            let p_work = rng.gen_range(1..8);
            let inst = chain_instance(exec, p_idle, p_work);
            // Random 3-interval profile with slack 1.5–3x.
            let horizon = total + rng.gen_range(total / 2 + 1..=total * 2 + 2);
            let b1 = rng.gen_range(1..horizon);
            let b2 = rng.gen_range(b1 + 1..=horizon);
            let mut bounds = vec![0, b1, b2, horizon];
            bounds.dedup();
            let budgets: Vec<u64> = (0..bounds.len() - 1)
                .map(|_| rng.gen_range(0..10))
                .collect();
            let profile = PowerProfile::from_parts(bounds, budgets);
            let ps = dp_pseudo_polynomial(&inst, &profile);
            let poly = dp_polynomial(&inst, &profile);
            assert_eq!(ps.cost, poly.cost, "trial {trial}");
            assert_eq!(carbon_cost(&inst, &ps.schedule, &profile), ps.cost);
            assert_eq!(carbon_cost(&inst, &poly.schedule, &profile), poly.cost);
            assert!(ps.schedule.validate(&inst, profile.deadline()).is_ok());
            assert!(poly.schedule.validate(&inst, profile.deadline()).is_ok());
        }
    }

    #[test]
    fn dp_beats_or_matches_asap() {
        let inst = chain_instance(vec![3, 2, 4], 1, 7);
        let profile = PowerProfile::from_parts(vec![0, 5, 10, 20], vec![1, 8, 3]);
        let asap_cost = carbon_cost(&inst, &inst.asap_schedule(), &profile);
        let res = dp_polynomial(&inst, &profile);
        assert!(res.cost <= asap_cost);
    }

    #[test]
    fn candidate_end_times_cover_asap_and_alap() {
        let inst = chain_instance(vec![2, 3], 0, 1);
        let profile = PowerProfile::from_parts(vec![0, 10], vec![0]);
        let (chain, _) = single_chain(&inst);
        let cand = candidate_end_times(&chain, &inst, &profile);
        // ASAP ends: 2 and 5 (block start-aligned at 0).
        assert!(cand[0].contains(&2));
        assert!(cand[1].contains(&5));
        // ALAP ends: 7 and 10 (block end-aligned at T).
        assert!(cand[0].contains(&7));
        assert!(cand[1].contains(&10));
    }

    #[test]
    #[should_panic(expected = "one execution unit")]
    fn multi_unit_instance_rejected() {
        let dag = DagBuilder::new(2).build().unwrap();
        let inst = Instance::from_raw(
            dag,
            vec![1, 1],
            vec![0, 1],
            vec![
                UnitInfo {
                    p_idle: 0,
                    p_work: 1,
                    is_link: false,
                },
                UnitInfo {
                    p_idle: 0,
                    p_work: 1,
                    is_link: false,
                },
            ],
            0,
        );
        let profile = PowerProfile::uniform(5, 1);
        let _ = dp_polynomial(&inst, &profile);
    }
}
