//! Local search refinement (§5.3) — the `-LS` suffix of the variants.
//!
//! Processors (execution units, including links) are visited in
//! non-increasing `P_work` order; on each unit, tasks are scanned left to
//! right; each task considers start times up to `µ` time units to the
//! left and right of its current start, from earliest to latest, and the
//! *first* move with positive gain is applied (first-improvement hill
//! climbing — the paper found best-improvement not worth its cost).
//! Rounds repeat until one full round yields no gain, so the result can
//! only be at least as good as the input (the search is a hill climber;
//! Table 2's "cost ratio larger than 1.0 is not possible").
//!
//! Legality of a move only depends on the *current* placements of the
//! task's `Gc` neighbours (which include its unit-order neighbours), so
//! the feasible window is `[max preds finish, min succs start - ω(v)]`
//! clipped to the horizon. Gains are evaluated incrementally through a
//! [`CostEngine`], without cloning or re-costing the schedule: a task
//! visit prices its whole window of candidate starts with one
//! [`CostEngine::shift_scan`] call, and the acceptance policy reads the
//! deltas in start order. On the default interval-sparse
//! [`IntervalEngine`] that is a single sweep over the window; the other
//! backends (the dense oracle, Fenwick) price each candidate with
//! [`CostEngine::shift_delta`]. Every backend returns the same exact
//! deltas, so the moves do not depend on the engine.
//!
//! A visit skips its scan while the task is *clean*: its last scan
//! chose no move, none of its `Gc` neighbours has moved since, and no
//! move since has covered a block of 32 time units (more on horizons of
//! 2^21 units or longer) that overlaps its candidate range
//! `[lo, hi + ω(v))`. Each block keeps the sequence number of the last
//! move whose old or new span covered it, and a move marks the mover's
//! neighbours dirty. The skip is exact: a scan is a pure function of
//! the task's start, its window (set by its neighbours' placements, the
//! deadline and `µ`) and the engine's load on its candidate range, and
//! a move changes the load only inside its old and new spans. A skipped
//! visit would therefore price the same deltas and again choose no
//! move, so moves, rounds, gain and the final schedule are those of
//! scanning every visit, on every engine and under either
//! [`LsPolicy`].

use cawo_graph::NodeId;
use cawo_platform::{PowerProfile, Time};

use crate::engine::{CostEngine, IntervalEngine};
use crate::enhanced::Instance;
use crate::schedule::Schedule;

/// Outcome statistics of a local-search run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LocalSearchStats {
    /// Completed rounds (including the final gain-free round).
    pub rounds: u32,
    /// Number of applied moves.
    pub moves: u64,
    /// Total cost reduction.
    pub gain: u64,
}

/// Move-acceptance policy. The paper uses first-improvement; it notes
/// that checking "all legal moves and applying the best one" did not
/// significantly improve the outcome in preliminary experiments — both
/// are provided so that claim can be re-examined (`figures`' `ext-ls`
/// artifact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LsPolicy {
    /// Apply the earliest candidate with positive gain (paper default).
    #[default]
    FirstImprovement,
    /// Scan all candidates and apply the one with the largest gain
    /// (earliest wins ties).
    BestImprovement,
}

/// Runs the local search in place with the paper's first-improvement
/// policy and the default ([`IntervalEngine`]) cost backend. `mu` is the
/// shift window (paper: 10). Returns statistics; the schedule is only
/// ever improved.
pub fn local_search(
    inst: &Instance,
    profile: &PowerProfile,
    sched: &mut Schedule,
    mu: Time,
) -> LocalSearchStats {
    local_search_with_policy(inst, profile, sched, mu, LsPolicy::FirstImprovement)
}

/// Runs the local search with an explicit move-acceptance policy on the
/// default ([`IntervalEngine`]) cost backend.
pub fn local_search_with_policy(
    inst: &Instance,
    profile: &PowerProfile,
    sched: &mut Schedule,
    mu: Time,
    policy: LsPolicy,
) -> LocalSearchStats {
    local_search_with_engine::<IntervalEngine>(inst, profile, sched, mu, policy)
}

/// Runs the local search on an explicit [`CostEngine`] backend, building
/// the engine from the input schedule.
pub fn local_search_with_engine<E: CostEngine>(
    inst: &Instance,
    profile: &PowerProfile,
    sched: &mut Schedule,
    mu: Time,
    policy: LsPolicy,
) -> LocalSearchStats {
    let mut engine = E::build(inst, sched, profile);
    local_search_on_engine(inst, profile, sched, mu, policy, &mut engine)
}

/// Core hill climber over a pre-built engine (shared with
/// [`crate::variant::Variant::run_with`], which reuses the engine the
/// greedy phase already constructed). The engine must track `sched`.
pub fn local_search_on_engine<E: CostEngine>(
    inst: &Instance,
    profile: &PowerProfile,
    sched: &mut Schedule,
    mu: Time,
    policy: LsPolicy,
    engine: &mut E,
) -> LocalSearchStats {
    let deadline = profile.deadline();
    debug_assert_eq!(engine.horizon(), deadline);

    // Units by non-increasing working power, ties by id.
    let mut units: Vec<u32> = (0..inst.unit_count() as u32).collect();
    units.sort_by_key(|&u| (std::cmp::Reverse(inst.unit(u).p_work), u));

    let mut stats = LocalSearchStats::default();
    let mut visits = Visits::new(inst.node_count(), deadline);
    // Deltas of the current task's candidate starts, reused by every
    // visit.
    let mut deltas = Vec::new();
    loop {
        stats.rounds += 1;
        let mut round_gain = 0i64;
        for &u in &units {
            for &v in inst.unit_order(u) {
                let len = inst.exec(v);
                let w = inst.work_power(v) as i64;
                if w == 0 || visits.is_clean(v) {
                    continue;
                }
                let s = sched.start(v);
                // Feasible window given current neighbour placements.
                let earliest = inst
                    .dag()
                    .predecessors(v)
                    .iter()
                    .map(|&p| sched.finish(p, inst))
                    .max()
                    .unwrap_or(0);
                let latest_by_succ = inst
                    .dag()
                    .successors(v)
                    .iter()
                    .map(|&q| sched.start(q))
                    .min()
                    .unwrap_or(deadline)
                    .saturating_sub(len);
                let latest = latest_by_succ.min(deadline - len);
                let lo = earliest.max(s.saturating_sub(mu));
                let hi = latest.min(s + mu);
                // Earliest-to-latest; acceptance per policy. Staying at
                // `s` prices 0, so it is never chosen.
                engine.shift_scan(s, len, w, lo, hi, &mut deltas);
                let mut chosen: Option<(Time, i64)> = None;
                for (cand, &delta) in (lo..).zip(&deltas) {
                    if delta < 0 {
                        match policy {
                            LsPolicy::FirstImprovement => {
                                chosen = Some((cand, delta));
                                break;
                            }
                            LsPolicy::BestImprovement => {
                                if chosen.is_none_or(|(_, best)| delta < best) {
                                    chosen = Some((cand, delta));
                                }
                            }
                        }
                    }
                }
                match chosen {
                    Some((target, delta)) => {
                        engine.apply_shift(s, len, w, target);
                        sched.set_start(v, target);
                        visits.moved(inst, v, [(s, s + len), (target, target + len)]);
                        stats.moves += 1;
                        round_gain += -delta;
                    }
                    // The scan read the load over `[lo, hi + len)`,
                    // widened to the start in case it lies outside.
                    None => visits.scanned_idle(v, lo.min(s), hi.max(s) + len),
                }
            }
        }
        if round_gain == 0 {
            break;
        }
        stats.gain += round_gain as u64;
    }
    stats
}

/// Time units per move-stamp block, as a power of two: 32. Narrower
/// blocks skip more visits but cost more stamps per move and more
/// reads per check.
const BLOCK_SHIFT: u32 = 5;

/// The stamp array holds at most `2^MAX_BLOCK_BITS` blocks; a horizon
/// too long for that gets wider blocks, so memory stays independent of
/// the horizon length like the interval engine's.
const MAX_BLOCK_BITS: u32 = 16;

/// Which task visits can be skipped (module doc): the clean-visit
/// bookkeeping of one [`local_search_on_engine`] run.
struct Visits {
    /// Moves applied so far; a move's sequence number is the count
    /// after it.
    moves: u64,
    /// Log2 of the time units per block.
    shift: u32,
    /// Per block: the sequence number of the last move whose old or new
    /// span covered it (0: none yet).
    stamp: Vec<u64>,
    /// Per task: `(moves, first, last)` while the task is clean — its
    /// last scan chose no move, when `moves` moves had been applied, and
    /// read the load over blocks `first..=last`, and no `Gc` neighbour
    /// has moved since. `None` when the next visit must scan.
    idle: Vec<Option<(u64, usize, usize)>>,
}

impl Visits {
    fn new(tasks: usize, horizon: Time) -> Self {
        let bits = Time::BITS - horizon.leading_zeros();
        let shift = BLOCK_SHIFT.max(bits.saturating_sub(MAX_BLOCK_BITS));
        Visits {
            moves: 0,
            shift,
            stamp: vec![0; (horizon >> shift) as usize + 1],
            idle: vec![None; tasks],
        }
    }

    /// Blocks overlapping `[a, b)`, at least the one holding `a`.
    fn blocks(&self, a: Time, b: Time) -> (usize, usize) {
        let last = b.saturating_sub(1).max(a);
        ((a >> self.shift) as usize, (last >> self.shift) as usize)
    }

    /// Whether a scan of `v` would again choose no move: it is clean
    /// and no move since its last scan covered a block of its range.
    fn is_clean(&self, v: NodeId) -> bool {
        self.idle[v as usize]
            .is_some_and(|(at, first, last)| self.stamp[first..=last].iter().all(|&k| k <= at))
    }

    /// Records a scan of `v` that chose no move after reading the load
    /// over `[a, b)`.
    fn scanned_idle(&mut self, v: NodeId, a: Time, b: Time) {
        let (first, last) = self.blocks(a, b);
        self.idle[v as usize] = Some((self.moves, first, last));
    }

    /// Records a move of `v` whose old and new spans are `spans`: its
    /// `Gc` neighbours must scan again, and the blocks the spans cover
    /// get the move's sequence number. That makes `v` itself dirty too,
    /// as its range holds its old span.
    fn moved(&mut self, inst: &Instance, v: NodeId, spans: [(Time, Time); 2]) {
        self.moves += 1;
        let dag = inst.dag();
        for &x in dag.predecessors(v).iter().chain(dag.successors(v)) {
            self.idle[x as usize] = None;
        }
        for (a, b) in spans {
            let (first, last) = self.blocks(a, b);
            self.stamp[first..=last].fill(self.moves);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::carbon_cost;
    use crate::enhanced::UnitInfo;
    use crate::greedy::{greedy_schedule, GreedyConfig};
    use crate::scores::Score;
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
    fn slides_task_into_green_window() {
        // Green only in [6, 12); task of length 4 starts at 0.
        let inst = single_task(4, 10);
        let profile = PowerProfile::from_parts(vec![0, 6, 12], vec![0, 10]);
        let mut sched = Schedule::new(vec![0]);
        let before = carbon_cost(&inst, &sched, &profile);
        assert_eq!(before, 40);
        let stats = local_search(&inst, &profile, &mut sched, 10);
        let after = carbon_cost(&inst, &sched, &profile);
        assert_eq!(after, 0, "start: {}", sched.start(0));
        assert!(sched.start(0) >= 6 && sched.start(0) + 4 <= 12);
        assert_eq!(stats.gain, 40);
        assert!(stats.moves >= 1);
    }

    #[test]
    fn never_increases_cost() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..20 {
            let n = rng.gen_range(2..8);
            let mut b = DagBuilder::new(n);
            for i in 0..n as u32 {
                for j in i + 1..n as u32 {
                    if rng.gen_bool(0.3) {
                        b.add_edge(i, j);
                    }
                }
            }
            let dag = b.build().unwrap();
            let units: Vec<UnitInfo> = (0..2)
                .map(|_| UnitInfo {
                    p_idle: rng.gen_range(0..3),
                    p_work: rng.gen_range(1..15),
                    is_link: false,
                })
                .collect();
            let exec: Vec<Time> = (0..n).map(|_| rng.gen_range(1..6)).collect();
            let unit_of: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
            let inst = Instance::from_raw(dag, exec, unit_of, units, 0);
            let asap = inst.asap_schedule();
            let deadline = asap.makespan(&inst) * 2 + 5;
            let budgets: Vec<u64> = (0..4).map(|_| rng.gen_range(0..20)).collect();
            let q = deadline / 4;
            let profile = PowerProfile::from_parts(vec![0, q, 2 * q, 3 * q, deadline], budgets);
            let mut sched = asap.clone();
            let before = carbon_cost(&inst, &sched, &profile);
            local_search(&inst, &profile, &mut sched, 7);
            let after = carbon_cost(&inst, &sched, &profile);
            assert!(after <= before, "trial {trial}: {after} > {before}");
            assert!(sched.validate(&inst, deadline).is_ok(), "trial {trial}");
        }
    }

    #[test]
    fn respects_precedences_while_moving() {
        // Chain 0 -> 1; moving 1 left is illegal below 0's finish.
        let mut b = DagBuilder::new(2);
        b.add_edge(0, 1);
        let inst = Instance::from_raw(
            b.build().unwrap(),
            vec![5, 5],
            vec![0, 1],
            vec![
                UnitInfo {
                    p_idle: 0,
                    p_work: 10,
                    is_link: false,
                },
                UnitInfo {
                    p_idle: 0,
                    p_work: 10,
                    is_link: false,
                },
            ],
            0,
        );
        // Green only at the very start: LS wants everything early, but 1
        // cannot start before 5.
        let profile = PowerProfile::from_parts(vec![0, 10, 30], vec![20, 0]);
        let mut sched = Schedule::new(vec![10, 20]);
        local_search(&inst, &profile, &mut sched, 30);
        assert!(sched.validate(&inst, 30).is_ok());
        assert!(sched.start(1) >= sched.finish(0, &inst));
    }

    #[test]
    fn mu_limits_the_shift_per_step() {
        // Task at 0, green window at [50, 60): µ=10 still gets there
        // eventually (10 per round-step), but µ=0 cannot move at all.
        let inst = single_task(5, 10);
        let profile = PowerProfile::from_parts(vec![0, 50, 60], vec![0, 10]);
        let mut stuck = Schedule::new(vec![0]);
        let stats = local_search(&inst, &profile, &mut stuck, 0);
        assert_eq!(stats.moves, 0);
        assert_eq!(stuck.start(0), 0);
    }

    #[test]
    fn multiple_rounds_travel_far() {
        // Strictly improving gradient lets µ=10 moves chain across
        // rounds: budgets increase to the right.
        let inst = single_task(5, 10);
        let profile = PowerProfile::from_parts(vec![0, 10, 20, 30, 40], vec![0, 4, 8, 10]);
        let mut sched = Schedule::new(vec![0]);
        let stats = local_search(&inst, &profile, &mut sched, 10);
        assert!(stats.rounds > 1);
        assert_eq!(carbon_cost(&inst, &sched, &profile), 0);
        assert!(sched.start(0) >= 30);
    }

    #[test]
    fn improves_or_preserves_greedy_output() {
        use cawo_graph::generator::{generate, Family, GeneratorConfig};
        use cawo_heft::heft_schedule;
        use cawo_platform::{Cluster, DeadlineFactor, ProfileConfig, Scenario};
        let wf = generate(&GeneratorConfig::new(Family::Methylseq, 60, 2));
        let cluster = Cluster::from_type_counts("mini", &[1, 1, 1, 1, 1, 1], 2);
        let mapping = heft_schedule(&wf, &cluster);
        let inst = Instance::build(&wf, &cluster, &mapping);
        let profile = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X30, 2)
            .build(&cluster, inst.asap_makespan());
        let cfg = GreedyConfig::new(Score::Pressure, true, true);
        let mut sched = greedy_schedule(&inst, &profile, cfg);
        let before = carbon_cost(&inst, &sched, &profile);
        let stats = local_search(&inst, &profile, &mut sched, 10);
        let after = carbon_cost(&inst, &sched, &profile);
        assert_eq!(before - after, stats.gain);
        assert!(after <= before);
        assert!(sched.validate(&inst, profile.deadline()).is_ok());
    }

    #[test]
    fn engines_take_identical_move_sequences() {
        // Both engines return *exact* deltas, so the deterministic hill
        // climber must make the same moves on either backend — the
        // resulting schedules are equal, not merely equal-cost.
        use crate::engine::DenseGrid;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..10 {
            let n = rng.gen_range(2..8);
            let mut b = DagBuilder::new(n);
            for i in 0..n as u32 {
                for j in i + 1..n as u32 {
                    if rng.gen_bool(0.25) {
                        b.add_edge(i, j);
                    }
                }
            }
            let units: Vec<UnitInfo> = (0..2)
                .map(|_| UnitInfo {
                    p_idle: rng.gen_range(0..3),
                    p_work: rng.gen_range(1..15),
                    is_link: false,
                })
                .collect();
            let inst = Instance::from_raw(
                b.build().unwrap(),
                (0..n).map(|_| rng.gen_range(1..6)).collect(),
                (0..n).map(|_| rng.gen_range(0..2)).collect(),
                units,
                0,
            );
            let asap = inst.asap_schedule();
            let deadline = asap.makespan(&inst) * 2 + 6;
            let q = deadline / 3;
            let profile = PowerProfile::from_parts(
                vec![0, q, 2 * q, deadline],
                (0..3).map(|_| rng.gen_range(0..20)).collect(),
            );
            for policy in [LsPolicy::FirstImprovement, LsPolicy::BestImprovement] {
                let mut dense = asap.clone();
                let mut sparse = asap.clone();
                let ds =
                    local_search_with_engine::<DenseGrid>(&inst, &profile, &mut dense, 9, policy);
                let is = local_search_with_engine::<IntervalEngine>(
                    &inst,
                    &profile,
                    &mut sparse,
                    9,
                    policy,
                );
                assert_eq!(dense, sparse, "trial {trial} {policy:?}");
                assert_eq!(ds, is, "trial {trial} {policy:?}");
            }
        }
    }

    #[test]
    fn moves_dirty_the_ranges_they_cover_and_their_neighbours() {
        // Tasks 1 -> 2, and 0 and 3 on their own; 32-unit blocks.
        let mut b = DagBuilder::new(4);
        b.add_edge(1, 2);
        let unit = UnitInfo {
            p_idle: 0,
            p_work: 1,
            is_link: false,
        };
        let inst = Instance::from_raw(b.build().unwrap(), vec![4; 4], vec![0; 4], vec![unit], 0);
        let mut visits = Visits::new(4, 256);
        assert!(!visits.is_clean(0), "never scanned");
        // Task 0 read the load over [40, 65): blocks 1 and 2.
        visits.scanned_idle(0, 40, 65);
        assert!(visits.is_clean(0));
        // Spans in block 3 and in block 0 leave it clean.
        visits.moved(&inst, 3, [(96, 100), (97, 101)]);
        visits.moved(&inst, 3, [(28, 32), (27, 31)]);
        assert!(visits.is_clean(0));
        // A span over its last unit, 64, does not.
        visits.moved(&inst, 3, [(27, 31), (64, 68)]);
        assert!(!visits.is_clean(0));
        // A neighbour's move dirties a task whatever the times.
        visits.scanned_idle(1, 0, 10);
        visits.moved(&inst, 2, [(200, 204), (201, 205)]);
        assert!(!visits.is_clean(1));
        // A horizon of 2^21 units or more coarsens the blocks.
        assert_eq!(Visits::new(4, (1 << 21) - 1).shift, 5);
        let long = Visits::new(4, 1 << 30);
        assert_eq!(long.shift, 15);
        assert_eq!(long.stamp.len(), (1 << 15) + 1);
    }

    #[test]
    fn stats_default_is_zero() {
        let s = LocalSearchStats::default();
        assert_eq!((s.rounds, s.moves, s.gain), (0, 0, 0));
    }

    #[test]
    fn best_improvement_is_monotone_and_valid() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..10 {
            let n = rng.gen_range(2..7);
            let mut b = DagBuilder::new(n);
            for i in 0..n as u32 {
                for j in i + 1..n as u32 {
                    if rng.gen_bool(0.3) {
                        b.add_edge(i, j);
                    }
                }
            }
            let inst = Instance::from_raw(
                b.build().unwrap(),
                (0..n).map(|_| rng.gen_range(1..6)).collect(),
                vec![0; n],
                vec![UnitInfo {
                    p_idle: 0,
                    p_work: rng.gen_range(1..10),
                    is_link: false,
                }],
                0,
            );
            let asap = inst.asap_schedule();
            let deadline = asap.makespan(&inst) * 2 + 4;
            let profile = PowerProfile::from_parts(
                vec![0, deadline / 2, deadline],
                vec![rng.gen_range(0..15), rng.gen_range(0..15)],
            );
            let mut first = asap.clone();
            let mut best = asap.clone();
            let base = carbon_cost(&inst, &asap, &profile);
            let fs = local_search_with_policy(
                &inst,
                &profile,
                &mut first,
                8,
                LsPolicy::FirstImprovement,
            );
            let bs =
                local_search_with_policy(&inst, &profile, &mut best, 8, LsPolicy::BestImprovement);
            let fc = carbon_cost(&inst, &first, &profile);
            let bc = carbon_cost(&inst, &best, &profile);
            assert!(fc <= base && bc <= base, "trial {trial}");
            assert_eq!(base - fc, fs.gain);
            assert_eq!(base - bc, bs.gain);
            assert!(best.validate(&inst, deadline).is_ok(), "trial {trial}");
        }
    }

    #[test]
    fn best_improvement_takes_the_larger_gain() {
        // Task at 0 (len 2, power 10); two green windows reachable in
        // one mu-step: [3,5) budget 6 and [8,10) budget 10. First-
        // improvement settles at 3; best-improvement jumps to 8.
        let inst = single_task(2, 10);
        let profile = PowerProfile::from_parts(vec![0, 3, 5, 8, 10], vec![0, 6, 0, 10]);
        let mut first = Schedule::new(vec![0]);
        local_search_with_policy(&inst, &profile, &mut first, 10, LsPolicy::FirstImprovement);
        let mut best = Schedule::new(vec![0]);
        local_search_with_policy(&inst, &profile, &mut best, 10, LsPolicy::BestImprovement);
        assert_eq!(carbon_cost(&inst, &best, &profile), 0);
        assert!(carbon_cost(&inst, &best, &profile) <= carbon_cost(&inst, &first, &profile));
        assert_eq!(best.start(0), 8);
    }
}
