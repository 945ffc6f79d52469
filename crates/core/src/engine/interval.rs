//! The interval-sparse incremental cost engine.

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included, Unbounded};

use cawo_graph::NodeId;
use cawo_platform::{PowerProfile, Time};

use crate::cost::Cost;
use crate::enhanced::Instance;
use crate::schedule::Schedule;

use super::CostEngine;

/// Carbon-cost engine whose state is keyed by breakpoints, not time
/// units.
///
/// The working power of a schedule is piecewise constant with at most
/// `2N` breakpoints (task starts and ends), and the green budget is
/// piecewise constant on the `J` profile intervals. This engine stores
/// the working power as a sorted map from segment start to power level,
/// so every operation costs what the *structure* of the schedule
/// demands rather than what the horizon length does:
///
/// * build: `O(N log N + J)` — one sort of the `2N` start/end events
///   and one sweep that emits the segments in key order,
/// * [`CostEngine::total_cost`]: `O(N + J)`,
/// * [`CostEngine::shift_delta`] / [`CostEngine::apply_shift`]:
///   `O(log N + k)` where `k` is the number of breakpoints and interval
///   boundaries inside the move's symmetric difference,
/// * [`CostEngine::shift_scan`] over `m` candidate starts: one sweep,
///   `O(log N + k + m)` where `k` counts the pieces of the swept range.
///
/// This is the incremental counterpart of Appendix A.1's polynomial
/// sweep and the engine that keeps 100k-unit horizons and
/// thousand-interval carbon traces affordable — the dense oracle pays
/// for every time unit in between.
#[derive(Debug, Clone)]
pub struct IntervalEngine {
    /// Segment start → working power over `[key, next key)`. Always
    /// contains key 0; adjacent segments always have distinct levels
    /// (edges are re-coalesced after every update).
    work: BTreeMap<Time, i64>,
    /// Profile boundaries `0 = b_0 < … < b_J = T`.
    boundaries: Vec<Time>,
    /// Headroom `d_j = G_j − Σ P_idle` per interval (may be negative).
    headroom: Vec<i64>,
    horizon: Time,
}

impl IntervalEngine {
    /// Builds the engine for `sched` over the profile's horizon. The
    /// schedule must respect the deadline.
    pub fn new(inst: &Instance, sched: &Schedule, profile: &PowerProfile) -> Self {
        let horizon = profile.deadline();
        let idle = inst.total_idle_power() as i64;
        // Every task start and end as a level change, in time order.
        let mut events = Vec::with_capacity(2 * inst.node_count());
        for v in 0..inst.node_count() as NodeId {
            let w = inst.work_power(v) as i64;
            let s = sched.start(v);
            let e = sched.finish(v, inst);
            debug_assert!(e <= horizon, "schedule exceeds profile horizon");
            if s < e && w != 0 {
                events.extend([(s, w), (e, -w)]);
            }
        }
        events.sort_unstable_by_key(|&(t, _)| t);
        IntervalEngine {
            work: canonical_segments(&events),
            boundaries: profile.boundaries().to_vec(),
            headroom: (0..profile.interval_count())
                .map(|j| profile.budget(j) as i64 - idle)
                .collect(),
            horizon,
        }
    }

    /// Number of working-power segments currently stored (diagnostics).
    pub fn segment_count(&self) -> usize {
        self.work.len()
    }

    /// Working power at time `t`.
    #[expect(
        clippy::expect_used,
        reason = "the segment map is seeded with key 0 at construction and key 0 is never removed."
    )]
    fn level_at(&self, t: Time) -> i64 {
        *self
            .work
            .range((Unbounded, Included(t)))
            .next_back()
            .expect("key 0 always present")
            .1
    }

    /// Index of the profile interval containing `t < T`.
    fn interval_index(&self, t: Time) -> usize {
        debug_assert!(t < self.horizon);
        self.boundaries.partition_point(|&b| b <= t) - 1
    }

    /// Inserts a breakpoint at `t` (no-op if present), carrying over the
    /// level of the containing segment.
    fn ensure_breakpoint(&mut self, t: Time) {
        if !self.work.contains_key(&t) {
            let level = self.level_at(t);
            self.work.insert(t, level);
        }
    }

    /// Removes the breakpoint at `t` if it no longer changes the level.
    fn coalesce(&mut self, t: Time) {
        if t == 0 {
            return;
        }
        if let Some(&level) = self.work.get(&t) {
            #[expect(
                clippy::expect_used,
                reason = "the segment map is seeded with key 0 at construction and key 0 is never removed."
            )]
            let prev = *self
                .work
                .range((Unbounded, Excluded(t)))
                .next_back()
                .expect("key 0 always present")
                .1;
            if prev == level {
                self.work.remove(&t);
            }
        }
    }

    /// Adds `delta` to the working power over `[a, b)`.
    fn add_range(&mut self, a: Time, b: Time, delta: i64) {
        if a >= b || delta == 0 {
            return;
        }
        self.ensure_breakpoint(a);
        self.ensure_breakpoint(b);
        for (_, level) in self.work.range_mut(a..b) {
            *level += delta;
        }
        // Only the edges can have become redundant: interior neighbours
        // moved by the same delta, so their (in)equality is unchanged.
        self.coalesce(b);
        self.coalesce(a);
    }

    /// Cost change of adding `delta` working power over `[a, b)`:
    /// sweeps the atomic pieces cut by segment breakpoints and interval
    /// boundaries inside the range.
    fn range_cost_delta(&self, a: Time, b: Time, delta: i64) -> i64 {
        if a >= b || delta == 0 {
            return 0;
        }
        debug_assert!(b <= self.horizon);
        let mut acc = 0i64;
        let mut t = a;
        let mut level = self.level_at(a);
        let mut segs = self.work.range((Excluded(a), Excluded(b))).peekable();
        let mut j = self.interval_index(a);
        while t < b {
            let next_seg = segs.peek().map_or(Time::MAX, |(&k, _)| k);
            let next_bound = self.boundaries[j + 1];
            let next = next_seg.min(next_bound).min(b);
            let d = self.headroom[j];
            let before = (level - d).max(0);
            let after = (level + delta - d).max(0);
            acc += (after - before) * (next - t) as i64;
            if next == next_seg {
                #[expect(
                    clippy::expect_used,
                    reason = "`next == next_seg` implies the peeked entry exists."
                )]
                let next_level = *segs.next().expect("peeked").1;
                level = next_level;
            }
            if next == next_bound && j + 1 < self.headroom.len() {
                j += 1;
            }
            t = next;
        }
        acc
    }
}

/// The canonical segment map of the working power whose level changes
/// are `events`, sorted by time: key 0, then one key per time where the
/// summed level differs from the segment before. Equal-time changes
/// fold into one, so a task that starts where another of equal power
/// ends leaves no breakpoint.
fn canonical_segments(events: &[(Time, i64)]) -> BTreeMap<Time, i64> {
    let mut segments: Vec<(Time, i64)> = vec![(0, 0)];
    let mut level = 0i64;
    for run in events.chunk_by(|a, b| a.0 == b.0) {
        let t = run[0].0;
        level += run.iter().map(|&(_, delta)| delta).sum::<i64>();
        match segments.last_mut() {
            Some(last) if last.0 == t => last.1 = level,
            Some(last) if last.1 == level => {}
            _ => segments.push((t, level)),
        }
    }
    // Sorted and unique, so collecting bulk-builds the tree in one pass.
    segments.into_iter().collect()
}

impl CostEngine for IntervalEngine {
    const NAME: &'static str = "interval";

    fn build(inst: &Instance, sched: &Schedule, profile: &PowerProfile) -> Self {
        IntervalEngine::new(inst, sched, profile)
    }

    fn total_cost(&self) -> Cost {
        let mut cost: u128 = 0;
        let mut t: Time = 0;
        #[expect(
            clippy::expect_used,
            reason = "the segment map is seeded with key 0 at construction and key 0 is never removed."
        )]
        let mut level = *self.work.get(&0).expect("key 0 always present");
        let mut segs = self.work.range((Excluded(0), Unbounded)).peekable();
        let mut j = 0usize;
        while t < self.horizon {
            let next_seg = segs.peek().map_or(Time::MAX, |(&k, _)| k);
            let next_bound = self.boundaries[j + 1];
            let next = next_seg.min(next_bound).min(self.horizon);
            let over = (level - self.headroom[j]).max(0) as u128;
            cost += over * (next - t) as u128;
            if next == next_seg {
                #[expect(
                    clippy::expect_used,
                    reason = "`next == next_seg` implies the peeked entry exists."
                )]
                let next_level = *segs.next().expect("peeked").1;
                level = next_level;
            }
            if next == next_bound && j + 1 < self.headroom.len() {
                j += 1;
            }
            t = next;
        }
        crate::cost::narrow_cost(cost)
    }

    fn place_delta(&self, start: Time, len: Time, delta: i64) -> i64 {
        cawo_obs::inc(cawo_obs::Ctr::EnginePriceInterval);
        if len == 0 || delta == 0 {
            return 0;
        }
        assert!(
            start + len <= self.horizon,
            "placement exceeds profile horizon"
        );
        self.range_cost_delta(start, start + len, delta)
    }

    fn apply_place(&mut self, start: Time, len: Time, delta: i64) {
        if len == 0 || delta == 0 {
            return;
        }
        assert!(
            start + len <= self.horizon,
            "placement exceeds profile horizon"
        );
        self.add_range(start, start + len, delta);
    }

    fn horizon(&self) -> Time {
        self.horizon
    }

    /// One sweep over `[min(lo, start), max(hi, start) + len)` instead
    /// of two [`CostEngine::place_delta`] walks per candidate.
    ///
    /// With `L'` the working power without the task itself and `d` the
    /// headroom, placing the task over `[c, c + len)` costs
    /// `Σ f(t)` there, where `f(t) = max(L'(t) + w − d, 0) −
    /// max(L'(t) − d, 0)`. The sweep walks the pieces of `f` once and
    /// reads each delta off the prefix sums `P` of `f` as
    /// `(P(c + len) − P(c)) − (P(start + len) − P(start))`, with one
    /// cursor over the window heads `c` and one over the tails
    /// `c + len`. Every term is an integer, so each entry equals the
    /// pointwise [`CostEngine::shift_delta`] exactly.
    fn shift_scan(&self, start: Time, len: Time, w: i64, lo: Time, hi: Time, out: &mut Vec<i64>) {
        cawo_obs::inc(cawo_obs::Ctr::EnginePriceInterval);
        out.clear();
        if hi < lo {
            return;
        }
        out.resize((hi - lo + 1) as usize, 0);
        if w == 0 || len == 0 {
            return;
        }
        let own_end = start + len;
        let (a, b) = (lo.min(start), hi.max(start) + len);
        assert!(b <= self.horizon, "shift target exceeds profile horizon");
        // `p` is P(t) − P(a); `own` collects P(own_end) − P(start).
        let (mut p, mut own) = (0i64, 0i64);
        let (mut head, mut tail) = (lo, lo);
        let mut t = a;
        let mut level = self.level_at(a);
        let mut segs = self.work.range((Excluded(a), Excluded(b))).peekable();
        let mut j = self.interval_index(a);
        while t < b {
            let next_seg = segs.peek().map_or(Time::MAX, |(&k, _)| k);
            let next_bound = self.boundaries[j + 1];
            let inside = start <= t && t < own_end;
            // The task's own edges cut pieces too, so `inside` holds
            // for the whole piece.
            let next_edge = if t < start {
                start
            } else if inside {
                own_end
            } else {
                Time::MAX
            };
            let next = next_seg.min(next_bound).min(next_edge).min(b);
            let rest = if inside { level - w } else { level };
            let d = self.headroom[j];
            let f = (rest + w - d).max(0) - (rest - d).max(0);
            while head <= hi && head < next {
                out[(head - lo) as usize] -= p + f * (head - t) as i64;
                head += 1;
            }
            while tail <= hi && tail + len < next {
                out[(tail - lo) as usize] += p + f * (tail + len - t) as i64;
                tail += 1;
            }
            let piece = f * (next - t) as i64;
            p += piece;
            if inside {
                own += piece;
            }
            if next == next_seg {
                #[expect(
                    clippy::expect_used,
                    reason = "`next == next_seg` implies the peeked entry exists."
                )]
                let next_level = *segs.next().expect("peeked").1;
                level = next_level;
            }
            if next == next_bound && j + 1 < self.headroom.len() {
                j += 1;
            }
            t = next;
        }
        // Tails that end exactly at `b` read P(b).
        for c in tail..=hi {
            out[(c - lo) as usize] += p;
        }
        for delta in out.iter_mut() {
            *delta -= own;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::carbon_cost;
    use crate::enhanced::UnitInfo;
    use cawo_graph::dag::DagBuilder;

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

    /// The coalescing invariant: key 0 present, no two adjacent segments
    /// with equal levels.
    fn assert_canonical(e: &IntervalEngine) {
        assert!(e.work.contains_key(&0));
        let levels: Vec<i64> = e.work.values().copied().collect();
        for w in levels.windows(2) {
            assert_ne!(w[0], w[1], "uncoalesced segments: {:?}", e.work);
        }
    }

    /// The engine `new` would build, with the segment map built by one
    /// [`IntervalEngine::add_range`] per task instead of the sweep.
    fn built_by_add_range(inst: &Instance, s: &Schedule, profile: &PowerProfile) -> IntervalEngine {
        let mut e = IntervalEngine::new(inst, &Schedule::new(vec![0; inst.node_count()]), profile);
        e.work = BTreeMap::from([(0, 0)]);
        for v in 0..inst.node_count() as NodeId {
            e.add_range(s.start(v), s.finish(v, inst), inst.work_power(v) as i64);
        }
        e
    }

    #[test]
    fn sweep_build_matches_add_range() {
        // Four independent tasks of power 10, 10, 5, 10 (lengths 4, 2,
        // 3, 1) over a horizon of 10. Task 0 starts at 0, task 1 starts
        // where task 0 ends (equal power: the breakpoint at 4 cancels),
        // task 2 overlaps it, task 3 ends at the horizon.
        let dag = DagBuilder::new(4).build().unwrap();
        let unit = |p_work| UnitInfo {
            p_idle: 1,
            p_work,
            is_link: false,
        };
        let inst = Instance::from_raw(
            dag,
            vec![4, 2, 3, 1],
            vec![0, 1, 2, 3],
            vec![unit(10), unit(10), unit(5), unit(10)],
            0,
        );
        let profile = PowerProfile::from_parts(vec![0, 5, 10], vec![12, 3]);
        let sched = Schedule::new(vec![0, 4, 5, 9]);
        let swept = IntervalEngine::new(&inst, &sched, &profile);
        assert_eq!(
            swept.work,
            BTreeMap::from([(0, 10), (5, 15), (6, 5), (8, 0), (9, 10), (10, 0)])
        );
        assert_eq!(swept.work, built_by_add_range(&inst, &sched, &profile).work);
        assert_canonical(&swept);
        assert_eq!(swept.total_cost(), carbon_cost(&inst, &sched, &profile));
    }

    #[test]
    fn sweep_build_matches_add_range_on_random_schedules() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..200 {
            let n = rng.gen_range(1..12);
            let horizon: Time = rng.gen_range(8..40);
            let units: Vec<UnitInfo> = (0..n)
                .map(|_| UnitInfo {
                    p_idle: 0,
                    // Few distinct powers, so equal-power edges meet.
                    p_work: rng.gen_range(0..4),
                    is_link: false,
                })
                .collect();
            let exec: Vec<Time> = (0..n).map(|_| rng.gen_range(1..=horizon / 2)).collect();
            let starts: Vec<Time> = exec
                .iter()
                .map(|&e| rng.gen_range(0..=horizon - e))
                .collect();
            let inst = Instance::from_raw(
                DagBuilder::new(n).build().unwrap(),
                exec,
                (0..n as u32).collect(),
                units,
                0,
            );
            let profile = PowerProfile::uniform(horizon, 2);
            let sched = Schedule::new(starts);
            let swept = IntervalEngine::new(&inst, &sched, &profile);
            let added = built_by_add_range(&inst, &sched, &profile);
            assert_eq!(swept.work, added.work, "trial {trial}");
            assert_canonical(&swept);
        }
    }

    #[test]
    fn total_matches_sweep() {
        let inst = two_task_instance();
        let profile = PowerProfile::from_parts(vec![0, 4, 8], vec![10, 6]);
        let s = Schedule::new(vec![0, 4]);
        let engine = IntervalEngine::new(&inst, &s, &profile);
        assert_eq!(engine.total_cost(), carbon_cost(&inst, &s, &profile));
        assert_eq!(engine.horizon(), 8);
        assert_canonical(&engine);
    }

    #[test]
    fn budget_below_idle_is_charged() {
        // Negative headroom: G < Σ P_idle must still be costed.
        let inst = two_task_instance(); // idle 5
        let profile = PowerProfile::uniform(10, 3);
        let s = Schedule::new(vec![0, 4]);
        let engine = IntervalEngine::new(&inst, &s, &profile);
        assert_eq!(engine.total_cost(), carbon_cost(&inst, &s, &profile));
    }

    #[test]
    fn shift_delta_matches_recost() {
        let inst = two_task_instance();
        let profile = PowerProfile::from_parts(vec![0, 4, 8], vec![12, 18]);
        let s = Schedule::new(vec![0, 0]);
        let engine = IntervalEngine::new(&inst, &s, &profile);
        for ns in 0..=4 as Time {
            let mut s2 = s.clone();
            s2.set_start(0, ns);
            let expected =
                carbon_cost(&inst, &s2, &profile) as i64 - carbon_cost(&inst, &s, &profile) as i64;
            assert_eq!(engine.shift_delta(0, 4, 10, ns), expected, "ns={ns}");
        }
    }

    #[test]
    fn apply_then_total_is_consistent() {
        let inst = two_task_instance();
        let profile = PowerProfile::from_parts(vec![0, 4, 8], vec![12, 18]);
        let mut s = Schedule::new(vec![0, 0]);
        let mut engine = IntervalEngine::new(&inst, &s, &profile);
        let before = engine.total_cost() as i64;
        let delta = engine.shift_delta(0, 4, 10, 3);
        engine.apply_shift(0, 4, 10, 3);
        s.set_start(0, 3);
        assert_eq!(engine.total_cost() as i64, before + delta);
        assert_eq!(engine.total_cost(), carbon_cost(&inst, &s, &profile));
        assert_canonical(&engine);
    }

    #[test]
    fn long_random_walk_stays_canonical_and_exact() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        // 6 independent tasks, varied powers, 3-interval profile.
        let n = 6;
        let dag = DagBuilder::new(n).build().unwrap();
        let units: Vec<UnitInfo> = (0..n)
            .map(|_| UnitInfo {
                p_idle: rng.gen_range(0..4),
                p_work: rng.gen_range(1..15),
                is_link: false,
            })
            .collect();
        let exec: Vec<Time> = (0..n).map(|_| rng.gen_range(1..9)).collect();
        let inst = Instance::from_raw(dag, exec.clone(), (0..n as u32).collect(), units, 0);
        let horizon: Time = 40;
        let profile = PowerProfile::from_parts(vec![0, 11, 27, horizon], vec![6, 19, 2]);
        let mut sched = Schedule::new(vec![0; n]);
        let mut engine = IntervalEngine::new(&inst, &sched, &profile);
        for step in 0..300 {
            let v = rng.gen_range(0..n as NodeId);
            let len = inst.exec(v);
            let w = inst.work_power(v) as i64;
            let s = sched.start(v);
            let ns = rng.gen_range(0..=horizon - len);
            let delta = engine.shift_delta(s, len, w, ns);
            let before = carbon_cost(&inst, &sched, &profile) as i64;
            engine.apply_shift(s, len, w, ns);
            sched.set_start(v, ns);
            let after = carbon_cost(&inst, &sched, &profile) as i64;
            assert_eq!(delta, after - before, "step {step}");
            assert_eq!(engine.total_cost() as i64, after, "step {step}");
            assert_canonical(&engine);
            // Sparse invariant: never more segments than 2 per task + 1.
            assert!(engine.segment_count() <= 2 * n + 1);
        }
    }

    #[test]
    fn segment_count_is_horizon_independent() {
        let inst = two_task_instance();
        for horizon in [100u64, 100_000] {
            let profile = PowerProfile::uniform(horizon, 7);
            let s = Schedule::new(vec![0, 4]);
            let engine = IntervalEngine::new(&inst, &s, &profile);
            assert!(engine.segment_count() <= 5, "horizon {horizon}");
            assert_eq!(engine.total_cost(), carbon_cost(&inst, &s, &profile));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds profile horizon")]
    fn shift_past_horizon_panics() {
        let inst = two_task_instance();
        let profile = PowerProfile::uniform(10, 5);
        let engine = IntervalEngine::new(&inst, &Schedule::new(vec![0, 0]), &profile);
        let _ = engine.shift_delta(0, 4, 10, 8); // window [8, 12) > T=10
    }

    #[test]
    fn zero_power_and_zero_shift_are_free() {
        let inst = two_task_instance();
        let profile = PowerProfile::uniform(10, 0);
        let mut engine = IntervalEngine::new(&inst, &Schedule::new(vec![0, 0]), &profile);
        assert_eq!(engine.shift_delta(0, 4, 0, 6), 0);
        assert_eq!(engine.shift_delta(3, 4, 10, 3), 0);
        let before = engine.total_cost();
        engine.apply_shift(0, 4, 0, 6);
        assert_eq!(engine.total_cost(), before);
    }
}
