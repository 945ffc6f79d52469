//! The greedy placement procedure of §5.2.
//!
//! Tasks are processed in score order; each is started at the beginning
//! of the feasible interval (`EST(v) ≤ b_j ≤ LST(v)`) with the highest
//! remaining budget (earliest wins ties), falling back to `EST(v)` when
//! no interval beginning is feasible. After each placement:
//!
//! * the interval containing the task's start/end is split so the
//!   occupied region is its own (sub)interval,
//! * the budget of every covered interval drops by `P_idle + P_work` of
//!   the task's unit (budgets may go negative — a crowded interval must
//!   rank below an empty one),
//! * EST/LST of the still-unscheduled tasks are re-propagated.

use cawo_platform::{PowerProfile, Time};

use crate::bounds::Bounds;
use crate::engine::CostEngine;
use crate::enhanced::Instance;
use crate::schedule::Schedule;
use crate::scores::{score_order, Score};
use crate::subdivision::refined_boundaries;

/// Configuration of one greedy variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreedyConfig {
    /// Base score (slack or pressure).
    pub score: Score,
    /// Apply the power-heterogeneity weighting factor.
    pub weighted: bool,
    /// Use the refined interval subdivision.
    pub refined: bool,
    /// Block size `k` for the refined subdivision (paper: 3).
    pub block_k: usize,
    /// Upper bound on refined boundaries (see [`refined_boundaries`]).
    pub refine_cap: usize,
}

impl GreedyConfig {
    /// Paper settings: `k = 3`; the cap keeps large instances tractable.
    pub fn new(score: Score, weighted: bool, refined: bool) -> Self {
        GreedyConfig {
            score,
            weighted,
            refined,
            block_k: 3,
            refine_cap: 4096,
        }
    }
}

/// The greedy's mutable view of the horizon: intervals with budgets,
/// split at every placed task's start and end. Interval `i` spans
/// `[begin[i], begin[i + 1])` and the last one ends at `horizon`, so
/// the boundaries are stored once. Splitting inserts one entry into
/// each vector; a placement then subtracts its power from the
/// contiguous budget slice between its two split indices.
struct IntervalSet {
    begin: Vec<Time>,
    budget: Vec<i64>,
    horizon: Time,
}

impl IntervalSet {
    fn from_boundaries(boundaries: &[Time], profile: &PowerProfile) -> Self {
        let m = boundaries.len() - 1;
        let begin = boundaries[..m].to_vec();
        let budget = begin.iter().map(|&b| profile.budget_at(b) as i64).collect();
        IntervalSet {
            begin,
            budget,
            horizon: boundaries[m],
        }
    }

    /// Best feasible start: the beginning `b_j ∈ [est, lst]` of the
    /// interval with the highest budget; earliest wins ties. `None` when
    /// no interval begins inside the window.
    fn best_start(&self, est: Time, lst: Time) -> Option<Time> {
        let lo = self.begin.partition_point(|&b| b < est);
        let hi = self.begin.partition_point(|&b| b <= lst);
        let window = self.budget.get(lo..hi)?;
        let best = *window.iter().max()?;
        let i = window.iter().position(|&g| g == best)?;
        Some(self.begin[lo + i])
    }

    /// Splits the interval containing `t < horizon` at `t` (no-op if
    /// `t` is already a boundary). Returns the index of the interval
    /// that now *starts* at `t`.
    fn split_at(&mut self, t: Time) -> usize {
        debug_assert!(t < self.horizon);
        let i = self.begin.partition_point(|&b| b <= t) - 1;
        if self.begin[i] == t {
            return i;
        }
        self.begin.insert(i + 1, t);
        self.budget.insert(i + 1, self.budget[i]);
        i + 1
    }

    /// Registers a task occupying `[s, e)` with unit power `p`: splits
    /// the boundary intervals and decrements every covered budget.
    fn occupy(&mut self, s: Time, e: Time, p: i64) {
        debug_assert!(s < e && e <= self.horizon);
        let first = self.split_at(s);
        let last = if e < self.horizon {
            self.split_at(e)
        } else {
            self.budget.len()
        };
        for g in &mut self.budget[first..last] {
            *g -= p;
        }
    }
}

/// Runs the greedy variant on an instance and profile, producing a
/// deadline-feasible schedule (the deadline is the profile's horizon).
pub fn greedy_schedule(inst: &Instance, profile: &PowerProfile, cfg: GreedyConfig) -> Schedule {
    let deadline = profile.deadline();
    let mut bounds = Bounds::new(inst, deadline);
    assert!(
        bounds.is_feasible(inst),
        "deadline {deadline} below ASAP makespan — no feasible schedule"
    );

    let boundaries: Vec<Time> = if cfg.refined {
        refined_boundaries(inst, profile, cfg.block_k, cfg.refine_cap)
    } else {
        profile.boundaries().to_vec()
    };
    let mut ivals = IntervalSet::from_boundaries(&boundaries, profile);

    let order = score_order(inst, &bounds, cfg.score, cfg.weighted);
    let mut start = vec![0 as Time; inst.node_count()];
    for &v in &order {
        let est = bounds.est(v);
        let lst = bounds.lst(v);
        let s = ivals.best_start(est, lst).unwrap_or(est);
        start[v as usize] = s;
        bounds.fix(inst, v, s);
        ivals.occupy(s, s + inst.exec(v), inst.unit_total_power(v) as i64);
    }
    cawo_obs::add(cawo_obs::Ctr::GreedyBoundUpdates, bounds.updates());
    Schedule::new(start)
}

/// Runs the greedy variant and hands back a [`CostEngine`] tracking the
/// produced schedule, ready for the local-search phase (the `-LS`
/// variants evaluate thousands of candidate shifts against it; building
/// it here lets [`crate::variant::Variant::run_with`] stay generic over
/// the backend).
pub fn greedy_schedule_with_engine<E: CostEngine>(
    inst: &Instance,
    profile: &PowerProfile,
    cfg: GreedyConfig,
) -> (Schedule, E) {
    let sched = greedy_schedule(inst, profile, cfg);
    let engine = E::build(inst, &sched, profile);
    (sched, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::carbon_cost;
    use crate::enhanced::UnitInfo;
    use cawo_graph::dag::DagBuilder;

    fn single_task(exec: Time, p_work: u64) -> Instance {
        let dag = DagBuilder::new(1).build().unwrap();
        Instance::from_raw(
            dag,
            vec![exec],
            vec![0],
            vec![UnitInfo {
                p_idle: 0,
                p_work,
                is_link: false,
            }],
            0,
        )
    }

    #[test]
    fn interval_set_best_start() {
        let profile = PowerProfile::from_parts(vec![0, 10, 20, 30], vec![5, 9, 2]);
        let iv = IntervalSet::from_boundaries(profile.boundaries(), &profile);
        // Window covering all beginnings: highest budget is interval 1.
        assert_eq!(iv.best_start(0, 29), Some(10));
        // Window excluding interval 1's beginning.
        assert_eq!(iv.best_start(11, 29), Some(20));
        // Empty window.
        assert_eq!(iv.best_start(11, 19), None);
        // Tie prefers earliest: equal budgets.
        let profile2 = PowerProfile::from_parts(vec![0, 10, 20], vec![7, 7]);
        let iv2 = IntervalSet::from_boundaries(profile2.boundaries(), &profile2);
        assert_eq!(iv2.best_start(0, 15), Some(0));
    }

    #[test]
    fn interval_set_split_and_occupy() {
        let profile = PowerProfile::from_parts(vec![0, 10, 20], vec![5, 5]);
        let mut iv = IntervalSet::from_boundaries(profile.boundaries(), &profile);
        iv.occupy(3, 7, 2);
        // Intervals now: [0,3) g5, [3,7) g3, [7,10) g5, [10,20) g5.
        assert_eq!(iv.begin, vec![0, 3, 7, 10]);
        assert_eq!(iv.budget, vec![5, 3, 5, 5]);
        // Occupying across a boundary decrements both sides.
        iv.occupy(8, 12, 4);
        assert_eq!(iv.begin, vec![0, 3, 7, 8, 10, 12]);
        assert_eq!(iv.budget, vec![5, 3, 5, 1, 1, 5]);
    }

    #[test]
    fn occupy_to_horizon_end() {
        let profile = PowerProfile::from_parts(vec![0, 10], vec![5]);
        let mut iv = IntervalSet::from_boundaries(profile.boundaries(), &profile);
        iv.occupy(6, 10, 1);
        assert_eq!(iv.begin, vec![0, 6]);
        assert_eq!(iv.budget, vec![5, 4]);
    }

    #[test]
    fn single_task_moves_to_greenest_interval() {
        let inst = single_task(4, 10);
        // Budgets: interval 2 (of 3) is greenest.
        let profile = PowerProfile::from_parts(vec![0, 10, 20, 30], vec![1, 12, 3]);
        for score in [Score::Slack, Score::Pressure] {
            let sched = greedy_schedule(&inst, &profile, GreedyConfig::new(score, false, false));
            assert_eq!(sched.start(0), 10, "task should start at greenest interval");
            assert!(sched.validate(&inst, 30).is_ok());
        }
    }

    #[test]
    fn tight_deadline_forces_est() {
        let inst = single_task(10, 10);
        let profile = PowerProfile::from_parts(vec![0, 10], vec![1]);
        let sched = greedy_schedule(
            &inst,
            &profile,
            GreedyConfig::new(Score::Pressure, false, false),
        );
        assert_eq!(sched.start(0), 0);
    }

    #[test]
    fn est_fallback_when_no_interval_begins_in_window() {
        // Task with window [5, 8] but boundaries at 0 and 20 only.
        let mut b = DagBuilder::new(2);
        b.add_edge(0, 1);
        let inst = Instance::from_raw(
            b.build().unwrap(),
            vec![5, 7],
            vec![0, 0],
            vec![UnitInfo {
                p_idle: 0,
                p_work: 3,
                is_link: false,
            }],
            0,
        );
        let profile = PowerProfile::from_parts(vec![0, 20], vec![0]);
        let sched = greedy_schedule(
            &inst,
            &profile,
            GreedyConfig::new(Score::Slack, false, false),
        );
        assert!(sched.validate(&inst, 20).is_ok());
        // Task 0 can start at boundary 0; task 1's window [5,13] contains
        // no boundary, so it falls back to its EST (5 if 0 starts at 0).
        assert_eq!(sched.start(0), 0);
        assert_eq!(sched.start(1), 5);
    }

    #[test]
    fn greedy_beats_asap_on_solar_profile() {
        // Chain of two tasks; green power only in the second half.
        let mut b = DagBuilder::new(2);
        b.add_edge(0, 1);
        let inst = Instance::from_raw(
            b.build().unwrap(),
            vec![5, 5],
            vec![0, 0],
            vec![UnitInfo {
                p_idle: 0,
                p_work: 10,
                is_link: false,
            }],
            0,
        );
        let profile = PowerProfile::from_parts(vec![0, 15, 30], vec![0, 10]);
        let asap = inst.asap_schedule();
        let asap_cost = carbon_cost(&inst, &asap, &profile);
        assert_eq!(asap_cost, 100); // both tasks fully brown
        for refined in [false, true] {
            for score in [Score::Slack, Score::Pressure] {
                let cfg = GreedyConfig::new(score, false, refined);
                let sched = greedy_schedule(&inst, &profile, cfg);
                assert!(sched.validate(&inst, 30).is_ok());
                let cost = carbon_cost(&inst, &sched, &profile);
                assert!(cost < asap_cost, "greedy {score:?}/{refined} not better");
            }
        }
    }

    #[test]
    fn refined_subdivision_can_fit_between_boundaries() {
        // One task of length 4; the greenest region is [13, 20) but the
        // normal subdivision only offers beginnings {0, 13}; with a 17-
        // long horizon the end-aligned refined boundary 20-4=16 also
        // appears. Here both succeed; verify refined validity + cost
        // sanity on a case where alignment matters.
        let inst = single_task(4, 10);
        let profile = PowerProfile::from_parts(vec![0, 13, 20], vec![2, 11]);
        let cfg = GreedyConfig::new(Score::Slack, false, true);
        let sched = greedy_schedule(&inst, &profile, cfg);
        assert!(sched.validate(&inst, 20).is_ok());
        assert_eq!(carbon_cost(&inst, &sched, &profile), 0);
    }

    #[test]
    fn all_variants_produce_valid_schedules_on_random_instances() {
        use cawo_graph::generator::{generate, Family, GeneratorConfig};
        use cawo_heft::heft_schedule;
        use cawo_platform::{Cluster, DeadlineFactor, ProfileConfig, Scenario};
        let wf = generate(&GeneratorConfig::new(Family::Atacseq, 80, 21));
        let cluster = Cluster::from_type_counts("mini", &[1, 1, 1, 1, 1, 1], 21);
        let mapping = heft_schedule(&wf, &cluster);
        let inst = Instance::build(&wf, &cluster, &mapping);
        let asap = inst.asap_makespan();
        for scenario in Scenario::ALL {
            let profile =
                ProfileConfig::new(scenario, DeadlineFactor::X20, 21).build(&cluster, asap);
            for score in [Score::Slack, Score::Pressure] {
                for weighted in [false, true] {
                    for refined in [false, true] {
                        let cfg = GreedyConfig::new(score, weighted, refined);
                        let sched = greedy_schedule(&inst, &profile, cfg);
                        sched
                            .validate(&inst, profile.deadline())
                            .unwrap_or_else(|e| panic!("{score:?} w={weighted} r={refined}: {e}"));
                    }
                }
            }
        }
    }

    #[test]
    fn greedy_with_engine_tracks_the_schedule() {
        use crate::engine::{DenseGrid, IntervalEngine};
        let inst = single_task(4, 10);
        let profile = PowerProfile::from_parts(vec![0, 10, 20, 30], vec![1, 12, 3]);
        let cfg = GreedyConfig::new(Score::Pressure, true, true);
        let (sched, engine) = greedy_schedule_with_engine::<IntervalEngine>(&inst, &profile, cfg);
        assert_eq!(engine.total_cost(), carbon_cost(&inst, &sched, &profile));
        let (sched2, oracle) = greedy_schedule_with_engine::<DenseGrid>(&inst, &profile, cfg);
        assert_eq!(sched, sched2, "engine choice must not affect greedy");
        assert_eq!(oracle.total_cost(), engine.total_cost());
    }

    #[test]
    #[should_panic(expected = "no feasible schedule")]
    fn infeasible_deadline_panics() {
        let inst = single_task(10, 1);
        let profile = PowerProfile::from_parts(vec![0, 5], vec![1]);
        let _ = greedy_schedule(
            &inst,
            &profile,
            GreedyConfig::new(Score::Slack, false, false),
        );
    }
}
