//! Property-based tests for the scheduling core: cost-engine
//! equivalence, bounds consistency, schedule validity of every variant,
//! and local-search monotonicity.

#![expect(clippy::unwrap_used, reason = "fixture helpers outside #[test] unwrap")]
use proptest::prelude::*;

use cawo_core::enhanced::UnitInfo;
use cawo_core::{
    carbon_cost, carbon_cost_naive, greedy_schedule, local_search, local_search_on_engine,
    profile_divergence, reanswer_cost, Bounds, CostEngine, DenseGrid, FenwickEngine, GreedyConfig,
    Instance, IntervalEngine, LocalSearchStats, LsPolicy, Schedule, Score, Variant,
};
use cawo_graph::dag::DagBuilder;
use cawo_graph::NodeId;
use cawo_platform::{PowerProfile, Time};

/// A random small instance: forward-edge DAG, 1–3 units, small exec
/// times and powers.
#[derive(Debug, Clone)]
struct RawInstance {
    n: usize,
    edges: Vec<(u32, u32)>,
    exec: Vec<Time>,
    unit_of: Vec<u32>,
    units: Vec<(u64, u64)>,
}

impl RawInstance {
    fn build(&self) -> Instance {
        let mut b = DagBuilder::new(self.n);
        for &(u, v) in &self.edges {
            b.add_edge(u, v);
        }
        let units: Vec<UnitInfo> = self
            .units
            .iter()
            .map(|&(i, w)| UnitInfo {
                p_idle: i,
                p_work: w,
                is_link: false,
            })
            .collect();
        Instance::from_raw(
            b.build().unwrap(),
            self.exec.clone(),
            self.unit_of.clone(),
            units,
            0,
        )
    }
}

/// `engine.shift_scan` over `[lo, hi]`, and `engine.shift_delta` at
/// each of its candidate starts.
fn scan_and_pointwise<E: CostEngine>(
    engine: &E,
    (start, len, w): (Time, Time, i64),
    (lo, hi): (Time, Time),
) -> (Vec<i64>, Vec<i64>) {
    let mut scan = Vec::new();
    engine.shift_scan(start, len, w, lo, hi, &mut scan);
    let pointwise = (lo..=hi)
        .map(|c| engine.shift_delta(start, len, w, c))
        .collect();
    (scan, pointwise)
}

/// A random DAG of `n` nodes with one join of in-degree ≥ 64 and one
/// fork of out-degree ≥ 64, on a single unit. Node ids are a random
/// permutation of topological positions, so a node's id says nothing
/// about its place in the order; the returned `order` (position →
/// node) is topological by construction.
fn wide_instance(n: usize, next: &mut impl FnMut() -> u64) -> (Instance, Vec<NodeId>) {
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    for i in (1..n).rev() {
        order.swap(i, next() as usize % (i + 1));
    }
    let mut b = DagBuilder::new(n);
    for v in 1..n {
        for _ in 0..next() % 4 {
            b.add_edge(order[next() as usize % v], order[v]);
        }
    }
    let join = 64 + next() as usize % (n - 64);
    for u in sample_at_least_64(join, next) {
        b.add_edge(order[u], order[join]);
    }
    let fork = next() as usize % (n - 64);
    for w in sample_at_least_64(n - fork - 1, next) {
        b.add_edge(order[fork], order[fork + 1 + w]);
    }
    let exec = (0..n).map(|_| 1 + next() % 7).collect();
    let unit = UnitInfo {
        p_idle: 0,
        p_work: 1,
        is_link: false,
    };
    let inst = Instance::from_raw(b.build().unwrap(), exec, vec![0; n], vec![unit], 0);
    (inst, order)
}

/// Between 64 and `m` distinct values of `0..m`, by a partial shuffle.
fn sample_at_least_64(m: usize, next: &mut impl FnMut() -> u64) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..m).collect();
    let k = 64 + next() as usize % (m - 63);
    for i in 0..k {
        pool.swap(i, i + next() as usize % (m - i));
    }
    pool.truncate(k);
    pool
}

/// EST/LST recomputed in full: the two passes of `Bounds::new`
/// over the topological `order`, with every fixed node pinned to its
/// start.
fn bounds_recomputed(
    inst: &Instance,
    order: &[NodeId],
    fixed: &[Option<Time>],
    deadline: Time,
) -> (Vec<Time>, Vec<Time>) {
    let n = inst.node_count();
    let mut est = vec![0; n];
    for &v in order {
        est[v as usize] = fixed[v as usize].unwrap_or_else(|| {
            let preds = inst.dag().predecessors(v).iter();
            preds
                .map(|&u| est[u as usize] + inst.exec(u))
                .max()
                .unwrap_or(0)
        });
    }
    let mut lst = vec![0; n];
    for &v in order.iter().rev() {
        lst[v as usize] = fixed[v as usize].unwrap_or_else(|| {
            let succs = inst.dag().successors(v).iter();
            let latest_finish = succs.map(|&s| lst[s as usize]).fold(deadline, Time::min);
            latest_finish.saturating_sub(inst.exec(v))
        });
    }
    (est, lst)
}

/// `old` before `t` and different from `t` on: every budget after `t`
/// is raised by `bump > 0`, with `t` made a boundary. A cut at or past
/// the deadline extends the horizon to `t + 2` instead, with budget 0
/// over `[deadline, t)` (a profile's budget past its deadline) and
/// `bump` from `t`.
fn revised_after(old: &PowerProfile, t: Time, bump: u64) -> PowerProfile {
    let deadline = old.deadline();
    let mut starts = Vec::new();
    let mut budgets = Vec::new();
    for j in 0..old.interval_count() {
        let (lo, hi) = old.interval_span(j);
        let g = old.budget(j);
        if lo < t {
            starts.push(lo);
            budgets.push(g);
        }
        if t < hi {
            starts.push(lo.max(t));
            budgets.push(g + bump);
        }
    }
    if t > deadline {
        starts.push(deadline);
        budgets.push(0);
    }
    if t >= deadline {
        starts.push(t);
        budgets.push(bump);
    }
    starts.push(deadline.max(t + 2));
    PowerProfile::from_parts(starts, budgets)
}

/// The local search with every task visit priced: the loop
/// `local_search_on_engine` ran before it skipped clean visits, kept
/// as the oracle of that skip.
fn local_search_every_visit<E: CostEngine>(
    inst: &Instance,
    profile: &PowerProfile,
    sched: &mut Schedule,
    mu: Time,
    policy: LsPolicy,
    engine: &mut E,
) -> LocalSearchStats {
    let deadline = profile.deadline();
    let mut units: Vec<u32> = (0..inst.unit_count() as u32).collect();
    units.sort_by_key(|&u| (std::cmp::Reverse(inst.unit(u).p_work), u));
    let mut stats = LocalSearchStats::default();
    let mut deltas = Vec::new();
    loop {
        stats.rounds += 1;
        let mut round_gain = 0i64;
        for &u in &units {
            for &v in inst.unit_order(u) {
                let len = inst.exec(v);
                let w = inst.work_power(v) as i64;
                if w == 0 {
                    continue;
                }
                let s = sched.start(v);
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
                if let Some((target, delta)) = chosen {
                    engine.apply_shift(s, len, w, target);
                    sched.set_start(v, target);
                    stats.moves += 1;
                    round_gain += -delta;
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

/// A valid schedule of `inst` within `horizon`: in reverse topological
/// order, each task starts anywhere between its ASAP start and the
/// latest start its already placed successors leave it.
fn random_valid_schedule(
    inst: &Instance,
    horizon: Time,
    next: &mut impl FnMut() -> u64,
) -> Schedule {
    let asap = inst.asap_schedule();
    let mut starts = asap.starts().to_vec();
    for &v in inst.topo_order().iter().rev() {
        let latest = inst
            .dag()
            .successors(v)
            .iter()
            .map(|&q| starts[q as usize])
            .min()
            .unwrap_or(horizon)
            - inst.exec(v);
        let earliest = asap.start(v);
        starts[v as usize] = earliest + next() % (latest - earliest + 1);
    }
    Schedule::new(starts)
}

/// Runs the local search and its every-visit oracle from `start` on
/// engine `E`; both the schedules and the statistics must agree.
fn skip_matches_every_visit<E: CostEngine>(
    inst: &Instance,
    profile: &PowerProfile,
    start: &Schedule,
    mu: Time,
    policy: LsPolicy,
) -> Result<LocalSearchStats, TestCaseError> {
    let mut skipping = start.clone();
    let mut engine = E::build(inst, &skipping, profile);
    let stats = local_search_on_engine(inst, profile, &mut skipping, mu, policy, &mut engine);
    let mut every = start.clone();
    let mut engine = E::build(inst, &every, profile);
    let oracle = local_search_every_visit(inst, profile, &mut every, mu, policy, &mut engine);
    prop_assert_eq!(&skipping, &every, "{} {:?}", E::NAME, policy);
    prop_assert_eq!(stats, oracle, "{} {:?}", E::NAME, policy);
    Ok(stats)
}

fn raw_instance(max_n: usize) -> impl Strategy<Value = RawInstance> {
    raw_instance_with_exec(max_n, 1..8)
}

/// [`raw_instance`] with execution times drawn from `exec`.
fn raw_instance_with_exec(
    max_n: usize,
    exec: std::ops::Range<Time>,
) -> impl Strategy<Value = RawInstance> {
    (2..max_n).prop_flat_map(move |n| {
        let edges = proptest::collection::vec(
            (0..n as u32 - 1).prop_flat_map(move |u| (Just(u), (u + 1..n as u32))),
            0..n * 2,
        );
        let exec = proptest::collection::vec(exec.clone(), n);
        let units = proptest::collection::vec((0u64..4, 1u64..12), 1..4);
        (Just(n), edges, exec, units).prop_flat_map(|(n, edges, exec, units)| {
            let k = units.len() as u32;
            let unit_of = proptest::collection::vec(0..k, n);
            (Just(n), Just(edges), Just(exec), Just(units), unit_of).prop_map(
                |(n, edges, exec, units, unit_of)| RawInstance {
                    n,
                    edges,
                    exec,
                    unit_of,
                    units,
                },
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cost_engines_agree(raw in raw_instance(10), seed in any::<u64>()) {
        let inst = raw.build();
        let asap = inst.asap_schedule();
        let makespan = asap.makespan(&inst).max(1);
        // Deterministic pseudo-random shifts within double the makespan.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let profile = PowerProfile::from_parts(
            vec![0, makespan, 2 * makespan + 1],
            vec![next() % 20, next() % 20],
        );
        // Random valid-by-construction schedule: ASAP shifted by a
        // uniform amount per topological prefix.
        let starts: Vec<Time> = (0..inst.node_count() as NodeId)
            .map(|v| asap.start(v) + (next() % (makespan + 1)))
            .collect();
        // The shift may violate precedence; instead, just use ASAP and a
        // "fully delayed" variant, both valid.
        let _ = starts;
        for sched in [asap.clone(), {
            let delay = makespan;
            Schedule::new(asap.starts().iter().map(|&s| s + delay).collect())
        }] {
            let a = carbon_cost(&inst, &sched, &profile);
            let b = carbon_cost_naive(&inst, &sched, &profile);
            prop_assert_eq!(a, b);
        }
    }

    // The trace-tail re-answer pre-rolls every start and finish before
    // the divergence point `t` into the working power at `t`, uncosted,
    // and sweeps the events from `t` on. Cut at 0, at every start and
    // finish time (an event exactly at `t` is swept, not pre-rolled),
    // at the deadline and one past it: under a profile equal to the old
    // one before `t` and different after, the re-answer must equal the
    // naive per-time-unit cost.
    #[test]
    fn reanswer_matches_naive_at_event_time_cuts(raw in raw_instance(10), seed in any::<u64>()) {
        let inst = raw.build();
        let asap = inst.asap_schedule();
        let makespan = asap.makespan(&inst).max(1);
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let deadline = 2 * makespan + 1;
        let old = PowerProfile::from_parts(
            vec![0, makespan, deadline],
            vec![next() % 20, next() % 20],
        );
        let delayed = Schedule::new(asap.starts().iter().map(|&s| s + makespan).collect());
        for sched in [asap.clone(), delayed] {
            let old_cost = carbon_cost(&inst, &sched, &old);
            let mut cuts = vec![0, deadline, deadline + 1];
            for v in 0..inst.node_count() as NodeId {
                cuts.push(sched.start(v));
                cuts.push(sched.finish(v, &inst));
            }
            cuts.sort_unstable();
            cuts.dedup();
            for t in cuts {
                let new = revised_after(&old, t, 1 + next() % 20);
                // Past the deadline the re-answer re-prices from the
                // deadline, where the horizons part.
                prop_assert_eq!(profile_divergence(&old, &new), Some(t.min(deadline)));
                prop_assert_eq!(
                    reanswer_cost(&inst, &sched, &old, old_cost, &new),
                    Some(carbon_cost_naive(&inst, &sched, &new)),
                    "cut at {}", t
                );
            }
        }
    }

    #[test]
    fn grid_matches_sweep_and_deltas(raw in raw_instance(8)) {
        let inst = raw.build();
        let asap = inst.asap_schedule();
        let horizon = asap.makespan(&inst) * 2 + 4;
        let profile = PowerProfile::from_parts(
            vec![0, horizon / 2, horizon],
            vec![3, 11],
        );
        let grid = DenseGrid::new(&inst, &asap, &profile);
        prop_assert_eq!(grid.total_cost(), carbon_cost(&inst, &asap, &profile));
        // Shifting the last node anywhere ahead matches a full re-cost.
        let v = (inst.node_count() - 1) as NodeId;
        let len = inst.exec(v);
        let w = inst.work_power(v) as i64;
        let s = asap.start(v);
        for ns in s..=(horizon - len).min(s + 6) {
            let mut moved = asap.clone();
            moved.set_start(v, ns);
            let expect = carbon_cost(&inst, &moved, &profile) as i64
                - carbon_cost(&inst, &asap, &profile) as i64;
            prop_assert_eq!(grid.shift_delta(s, len, w, ns), expect);
        }
    }

    // The differential engine test: `IntervalEngine` and `DenseGrid`
    // must agree on `total_cost` and on every `shift_delta`, across
    // random instances, random (valid) schedules and random multi-
    // interval profiles — and stay in agreement through a random
    // sequence of applied shifts.
    #[test]
    fn interval_engine_matches_dense_grid(
        raw in raw_instance(9),
        budgets in proptest::collection::vec(0u64..25, 2..6),
        seed in any::<u64>(),
    ) {
        let inst = raw.build();
        let asap = inst.asap_schedule();
        let horizon = asap.makespan(&inst) * 2 + budgets.len() as u64 + 1;
        // Random interval boundaries via a deterministic LCG.
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let j = budgets.len() as u64;
        let mut bounds = vec![0 as Time];
        for k in 1..=j {
            let t = horizon * k / j;
            if t > *bounds.last().unwrap() {
                bounds.push(t);
            }
        }
        let m = bounds.len() - 1;
        let profile = PowerProfile::from_parts(bounds, budgets[..m].to_vec());

        // Start from a random valid schedule: ASAP plus a per-node slack
        // shift bounded so precedences cannot break (uniform delay).
        let delay = next() % (horizon - asap.makespan(&inst).max(1) + 1);
        let mut sched = Schedule::new(asap.starts().iter().map(|&s| s + delay).collect());

        let mut dense = DenseGrid::build(&inst, &sched, &profile);
        let mut sparse = IntervalEngine::build(&inst, &sched, &profile);
        prop_assert_eq!(dense.total_cost(), carbon_cost(&inst, &sched, &profile));
        prop_assert_eq!(sparse.total_cost(), dense.total_cost());

        // Random walk of shifts, applied to both engines in lock-step.
        let n = inst.node_count() as NodeId;
        for _ in 0..12 {
            let v = (next() % n as u64) as NodeId;
            let len = inst.exec(v);
            let w = inst.work_power(v) as i64;
            let s = sched.start(v);
            let ns = next() % (horizon - len + 1);
            prop_assert_eq!(
                dense.shift_delta(s, len, w, ns),
                sparse.shift_delta(s, len, w, ns),
                "shift {} -> {} (len {}, w {})", s, ns, len, w
            );
            dense.apply_shift(s, len, w, ns);
            sparse.apply_shift(s, len, w, ns);
            sched.set_start(v, ns);
            let sweep = carbon_cost(&inst, &sched, &profile);
            prop_assert_eq!(dense.total_cost(), sweep);
            prop_assert_eq!(sparse.total_cost(), sweep);
        }
    }

    // The window scan the local search drives: on every engine, along a
    // random walk of applied shifts, `shift_scan` must equal pointwise
    // `shift_delta` at each candidate start (and the dense oracle's) —
    // for windows ending at the horizon, straddling profile boundaries,
    // overlapping the task's own window, not containing the current
    // start, empty, and for zero-power tasks.
    #[test]
    fn shift_scan_matches_pointwise_shift_delta(
        raw in raw_instance(9),
        budgets in proptest::collection::vec(0u64..25, 2..6),
        zero_power in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut raw = raw.clone();
        if zero_power {
            raw.units[0].1 = 0;
        }
        let inst = raw.build();
        let asap = inst.asap_schedule();
        let horizon = asap.makespan(&inst) * 2 + budgets.len() as u64 + 1;
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let j = budgets.len() as u64;
        let mut bounds = vec![0 as Time];
        for k in 1..=j {
            let t = horizon * k / j;
            if t > *bounds.last().unwrap() {
                bounds.push(t);
            }
        }
        let interior = bounds[1..bounds.len() - 1].to_vec();
        let m = bounds.len() - 1;
        let profile = PowerProfile::from_parts(bounds, budgets[..m].to_vec());

        let delay = next() % (horizon - asap.makespan(&inst).max(1) + 1);
        let mut sched = Schedule::new(asap.starts().iter().map(|&s| s + delay).collect());
        let mut dense = DenseGrid::build(&inst, &sched, &profile);
        let mut interval = IntervalEngine::build(&inst, &sched, &profile);
        let mut fenwick = FenwickEngine::build(&inst, &sched, &profile);

        let n = inst.node_count() as u64;
        for _ in 0..12 {
            let v = (next() % n) as NodeId;
            let len = inst.exec(v);
            let w = inst.work_power(v) as i64;
            let s = sched.start(v);
            let last = horizon - len;
            // Half-widths below and above `len`: candidate windows that
            // overlap the current one and windows that clear it.
            let k = next() % (2 * len + 4);
            let around = |c: Time| (c.saturating_sub(k), (c + k).min(last));
            let mut windows = vec![
                (last.saturating_sub(k), last),
                around(s),
                around(next() % (last + 1)),
                (s + 1, s),
            ];
            windows.extend(interior.iter().map(|&b| around(b.min(last))));
            if s < last {
                let lo = s + 1 + next() % (last - s);
                windows.push((lo, (lo + k).min(last)));
            }
            if s > 0 {
                let hi = next() % s;
                windows.push((hi.saturating_sub(k), hi));
            }
            for window in windows {
                let task = (s, len, w);
                let (scan, oracle) = scan_and_pointwise(&dense, task, window);
                prop_assert_eq!(&scan, &oracle, "dense {:?} of {:?}", window, task);
                let (scan, pointwise) = scan_and_pointwise(&interval, task, window);
                prop_assert_eq!(&scan, &pointwise, "interval {:?} of {:?}", window, task);
                prop_assert_eq!(&pointwise, &oracle, "interval {:?} of {:?}", window, task);
                let (scan, pointwise) = scan_and_pointwise(&fenwick, task, window);
                prop_assert_eq!(&scan, &pointwise, "fenwick {:?} of {:?}", window, task);
                prop_assert_eq!(&pointwise, &oracle, "fenwick {:?} of {:?}", window, task);
            }
            let ns = next() % (last + 1);
            dense.apply_shift(s, len, w, ns);
            interval.apply_shift(s, len, w, ns);
            fenwick.apply_shift(s, len, w, ns);
            sched.set_start(v, ns);
        }
        prop_assert_eq!(interval.total_cost(), carbon_cost(&inst, &sched, &profile));
    }

    #[test]
    fn bounds_stay_consistent_under_fixes(raw in raw_instance(10), picks in any::<u64>()) {
        let inst = raw.build();
        let deadline = inst.asap_makespan() * 2 + 3;
        let mut bounds = Bounds::new(&inst, deadline);
        prop_assert!(bounds.is_feasible(&inst));
        // Fix every node at a deterministic point of its window, in a
        // scrambled order.
        let n = inst.node_count();
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        let rot = (picks as usize) % n;
        order.rotate_left(rot);
        for &v in &order {
            prop_assert!(bounds.est(v) <= bounds.lst(v));
            let span = bounds.lst(v) - bounds.est(v);
            let s = bounds.est(v) + (picks % (span + 1));
            bounds.fix(&inst, v, s);
            prop_assert!(bounds.is_feasible(&inst));
        }
        // The fixed starts form a valid schedule.
        let sched = Schedule::new((0..n as NodeId).map(|v| bounds.est(v)).collect());
        prop_assert!(sched.validate(&inst, deadline).is_ok());
    }

    #[test]
    fn bounds_match_a_full_recomputation_after_every_fix(
        n in 65usize..=300,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let (inst, order) = wide_instance(n, &mut next);
        let makespan = inst.asap_makespan();
        let deadline = makespan + next() % (makespan + 1);
        let mut bounds = Bounds::new(&inst, deadline);
        let mut fixed = vec![None; n];
        let current = |b: &Bounds| -> (Vec<Time>, Vec<Time>) {
            (0..n as NodeId).map(|v| (b.est(v), b.lst(v))).unzip()
        };
        prop_assert_eq!(current(&bounds), bounds_recomputed(&inst, &order, &fixed, deadline));
        // Fix every node at a random point of its window, in a
        // scrambled order.
        let mut fix_order: Vec<NodeId> = (0..n as NodeId).collect();
        for i in (1..n).rev() {
            fix_order.swap(i, next() as usize % (i + 1));
        }
        for v in fix_order {
            let (est, lst) = (bounds.est(v), bounds.lst(v));
            prop_assert!(est <= lst, "window of {} empty: [{}, {}]", v, est, lst);
            let start = est + next() % (lst - est + 1);
            bounds.fix(&inst, v, start);
            fixed[v as usize] = Some(start);
            prop_assert_eq!(
                current(&bounds),
                bounds_recomputed(&inst, &order, &fixed, deadline),
                "(EST, LST) after fixing {} at {}", v, start
            );
        }
    }

    #[test]
    fn all_variants_valid_on_random_instances(
        raw in raw_instance(10),
        profile_budgets in proptest::collection::vec(0u64..30, 2..5),
    ) {
        let inst = raw.build();
        let makespan = inst.asap_makespan();
        let horizon = makespan * 2 + profile_budgets.len() as u64;
        let j = profile_budgets.len() as u64;
        let mut bounds_v = vec![0];
        for k in 1..=j {
            let t = horizon * k / j;
            if t > *bounds_v.last().unwrap() {
                bounds_v.push(t);
            }
        }
        let m = bounds_v.len() - 1;
        let profile = PowerProfile::from_parts(bounds_v, profile_budgets[..m].to_vec());
        for v in Variant::ALL {
            let sched = v.run(&inst, &profile);
            prop_assert!(sched.validate(&inst, profile.deadline()).is_ok(), "{}", v);
        }
    }

    #[test]
    fn local_search_monotone_and_valid(
        raw in raw_instance(9),
        mu in 0u64..15,
        b0 in 0u64..20,
        b1 in 0u64..20,
    ) {
        let inst = raw.build();
        let horizon = inst.asap_makespan() * 2 + 2;
        let profile =
            PowerProfile::from_parts(vec![0, horizon / 2, horizon], vec![b0, b1]);
        let mut sched = inst.asap_schedule();
        let before = carbon_cost(&inst, &sched, &profile);
        let stats = local_search(&inst, &profile, &mut sched, mu);
        let after = carbon_cost(&inst, &sched, &profile);
        prop_assert!(after <= before);
        prop_assert_eq!(before - after, stats.gain);
        prop_assert!(sched.validate(&inst, horizon).is_ok());
    }

    #[test]
    fn asap_is_earliest_schedule(raw in raw_instance(12)) {
        let inst = raw.build();
        let asap = inst.asap_schedule();
        for v in 0..inst.node_count() as NodeId {
            let est = inst
                .dag()
                .predecessors(v)
                .iter()
                .map(|&u| asap.start(u) + inst.exec(u))
                .max()
                .unwrap_or(0);
            prop_assert_eq!(asap.start(v), est);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // The local search skips a task visit while no move can have
    // changed what its scan reads. Exec times up to 40 and horizons up
    // to 4× the makespan put windows and moves across several 32-unit
    // blocks. From ASAP, a greedy and a random valid start, on every
    // engine and under both policies, the result must equal that of
    // pricing every visit.
    #[test]
    fn local_search_skip_matches_every_visit_oracle(
        raw in raw_instance_with_exec(16, 1..41),
        mu in 0u64..=15,
        stretch in 1u64..=4,
        budgets in proptest::collection::vec(0u64..40, 3..9),
        seed in any::<u64>(),
    ) {
        let inst = raw.build();
        let makespan = inst.asap_makespan();
        let horizon = makespan * stretch + budgets.len() as u64;
        let j = budgets.len() as u64;
        let mut bounds = vec![0 as Time];
        for k in 1..=j {
            let t = horizon * k / j;
            if t > *bounds.last().unwrap() {
                bounds.push(t);
            }
        }
        let m = bounds.len() - 1;
        let profile = PowerProfile::from_parts(bounds, budgets[..m].to_vec());
        let greedy = greedy_schedule(&inst, &profile, GreedyConfig::new(Score::Pressure, true, true));
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let random = random_valid_schedule(&inst, horizon, &mut next);
        for start in [inst.asap_schedule(), greedy, random] {
            for policy in [LsPolicy::FirstImprovement, LsPolicy::BestImprovement] {
                let stats =
                    skip_matches_every_visit::<IntervalEngine>(&inst, &profile, &start, mu, policy)?;
                prop_assert_eq!(
                    skip_matches_every_visit::<DenseGrid>(&inst, &profile, &start, mu, policy)?,
                    stats
                );
                prop_assert_eq!(
                    skip_matches_every_visit::<FenwickEngine>(&inst, &profile, &start, mu, policy)?,
                    stats
                );
            }
        }
    }
}
