//! The Fenwick (binary indexed tree) cost engine and the static
//! prefix-sum cost oracle the exact solvers query.
//!
//! Two related structures live here:
//!
//! * [`PrefixCost`] — a *static* window-cost oracle for a constant
//!   platform power: `Σ_{t<x} max(p − G(t), 0)` in `O(log J)` per
//!   query after `O(J)` prefix-sum preprocessing. This is the
//!   "interval-sum" primitive the uniprocessor dynamic programs of
//!   `cawo_exact::dp` evaluate millions of times, extracted here so the
//!   DP, the E-schedule transformation and future solvers share one
//!   audited implementation.
//! * [`FenwickEngine`] — a [`CostEngine`] backend that stores the
//!   working-power *difference array* in a [`Fenwick`] tree over time
//!   units: the level at any time is a prefix sum, answered in
//!   `O(log T)` without maintaining coalesced segments. Piece sweeps
//!   (cost deltas) walk the task breakpoints and profile boundaries
//!   inside the touched window only, so updates cost
//!   `O(log T + breakpoints touched)` — between the dense oracle
//!   (`O(window length)`) and the interval engine (`O(log N)` lookups,
//!   `O(N)` memory).

use std::collections::BTreeMap;
use std::ops::Bound::Excluded;

use cawo_graph::NodeId;
use cawo_platform::{PowerProfile, Time};

use crate::cost::Cost;
use crate::enhanced::Instance;
use crate::schedule::Schedule;

use super::CostEngine;

/// A classic binary indexed tree over `i64`: point updates and prefix
/// sums in `O(log n)`.
#[derive(Debug, Clone)]
pub struct Fenwick {
    /// 1-based implicit tree.
    tree: Vec<i64>,
}

impl Fenwick {
    /// A tree over `n` slots, all zero.
    pub fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Whether the tree has zero slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `delta` at slot `i`.
    pub fn add(&mut self, i: usize, delta: i64) {
        debug_assert!(i < self.len());
        let mut k = i + 1;
        while k < self.tree.len() {
            self.tree[k] += delta;
            k += k & k.wrapping_neg();
        }
    }

    /// Sum of slots `[0, i)` (so `prefix(0) == 0` and `prefix(len())`
    /// is the total).
    pub fn prefix(&self, i: usize) -> i64 {
        debug_assert!(i <= self.len());
        let mut acc = 0;
        let mut k = i;
        while k > 0 {
            acc += self.tree[k];
            k -= k & k.wrapping_neg();
        }
        acc
    }
}

/// Static piecewise-constant cumulative cost: for a constant platform
/// power `p`, [`PrefixCost::cum`] returns `Σ_{t<x} max(p − G(t), 0)` in
/// `O(log J)`.
///
/// The uniprocessor DPs build two of these (active power, idle power)
/// and answer every `Opt(i, t)` transition from them — no per-candidate
/// re-pricing of the schedule.
#[derive(Debug, Clone)]
pub struct PrefixCost {
    boundaries: Vec<Time>,
    /// Per-unit-time cost within each interval.
    rate: Vec<u64>,
    /// Cumulative cost at each boundary.
    prefix: Vec<u64>,
}

impl PrefixCost {
    /// Precomputes the prefix sums for platform power `p` over the
    /// profile's intervals.
    pub fn new(profile: &PowerProfile, p: u64) -> Self {
        let boundaries = profile.boundaries().to_vec();
        let mut rate = Vec::with_capacity(profile.interval_count());
        let mut prefix = Vec::with_capacity(boundaries.len());
        prefix.push(0);
        for j in 0..profile.interval_count() {
            let r = p.saturating_sub(profile.budget(j));
            let (b, e) = profile.interval_span(j);
            rate.push(r);
            prefix.push(prefix[j] + r * (e - b));
        }
        PrefixCost {
            boundaries,
            rate,
            prefix,
        }
    }

    /// `Σ_{t < x} max(p − G(t), 0)` for `x ≤ T`.
    pub fn cum(&self, x: Time) -> u64 {
        debug_assert!(self.boundaries.last().is_some_and(|&b| x <= b));
        let j = match self.boundaries.binary_search(&x) {
            Ok(j) => return self.prefix[j.min(self.prefix.len() - 1)],
            Err(j) => j - 1,
        };
        self.prefix[j] + self.rate[j] * (x - self.boundaries[j])
    }

    /// Cost of the window `[a, b)`.
    pub fn window(&self, a: Time, b: Time) -> u64 {
        self.cum(b) - self.cum(a)
    }
}

/// Difference-array [`CostEngine`] backed by a [`Fenwick`] tree.
///
/// The working power of a schedule is a step function; this engine
/// stores its *point deltas* (`+w` at each task start, `−w` at each
/// end) in a Fenwick tree indexed by time unit, plus a sorted map of
/// the currently nonzero deltas for piece iteration:
///
/// * build: `O(N log T + J)`,
/// * [`CostEngine::total_cost`]: `O((N + J) log T)`,
/// * [`CostEngine::place_delta`] / [`CostEngine::apply_place`]:
///   `O(log T + k)` where `k` counts the task breakpoints and profile
///   boundaries inside the placed window.
///
/// Memory is `O(T)` like the dense oracle, but — unlike the oracle —
/// update cost scales with the *structure* inside the touched window,
/// not its length, which is what the exact solvers' long-task windows
/// need. The interval-sparse engine stays the production default; this
/// backend exists for the solver inner loops and as a third
/// differential-testing implementation.
#[derive(Debug, Clone)]
pub struct FenwickEngine {
    /// Point deltas of the working-power step function; the level over
    /// `[t, t+1)` is `diff.prefix(t + 1)`.
    diff: Fenwick,
    /// Currently nonzero deltas, sorted by time (piece iteration).
    breaks: BTreeMap<Time, i64>,
    /// Profile boundaries `0 = b_0 < … < b_J = T`.
    boundaries: Vec<Time>,
    /// Headroom `d_j = G_j − Σ P_idle` per interval (may be negative).
    headroom: Vec<i64>,
    horizon: Time,
}

impl FenwickEngine {
    /// Builds the engine for `sched` over the profile's horizon. The
    /// schedule must respect the deadline.
    pub fn new(inst: &Instance, sched: &Schedule, profile: &PowerProfile) -> Self {
        let horizon = profile.deadline();
        let idle = inst.total_idle_power() as i64;
        let mut engine = FenwickEngine {
            diff: Fenwick::new(horizon as usize + 1),
            breaks: BTreeMap::new(),
            boundaries: profile.boundaries().to_vec(),
            headroom: (0..profile.interval_count())
                .map(|j| profile.budget(j) as i64 - idle)
                .collect(),
            horizon,
        };
        for v in 0..inst.node_count() as NodeId {
            let w = inst.work_power(v) as i64;
            let s = sched.start(v);
            let e = sched.finish(v, inst);
            assert!(e <= horizon, "schedule exceeds profile horizon");
            if w != 0 && e > s {
                engine.add_break(s, w);
                engine.add_break(e, -w);
            }
        }
        engine
    }

    /// Number of nonzero point deltas currently stored (diagnostics).
    pub fn breakpoint_count(&self) -> usize {
        self.breaks.len()
    }

    /// Working power over `[t, t+1)`.
    fn level_at(&self, t: Time) -> i64 {
        self.diff.prefix(t as usize + 1)
    }

    /// Index of the profile interval containing `t < T`.
    fn interval_index(&self, t: Time) -> usize {
        debug_assert!(t < self.horizon);
        self.boundaries.partition_point(|&b| b <= t) - 1
    }

    /// Records a point delta at `t` in both structures.
    fn add_break(&mut self, t: Time, delta: i64) {
        if delta == 0 {
            return;
        }
        self.diff.add(t as usize, delta);
        let slot = self.breaks.entry(t).or_insert(0);
        *slot += delta;
        if *slot == 0 {
            self.breaks.remove(&t);
        }
    }

    /// Sweeps the pieces of `[a, b)` cut by breakpoints and profile
    /// boundaries, accumulating the cost change of adding `delta`.
    fn range_cost_delta(&self, a: Time, b: Time, delta: i64) -> i64 {
        debug_assert!(a < b && b <= self.horizon);
        let mut acc = 0i64;
        let mut t = a;
        let mut level = self.level_at(a);
        let mut segs = self.breaks.range((Excluded(a), Excluded(b))).peekable();
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
                let seg_delta = *segs.next().expect("peeked").1;
                level += seg_delta;
            }
            if next == next_bound && j + 1 < self.headroom.len() {
                j += 1;
            }
            t = next;
        }
        acc
    }
}

impl CostEngine for FenwickEngine {
    const NAME: &'static str = "fenwick";

    fn build(inst: &Instance, sched: &Schedule, profile: &PowerProfile) -> Self {
        FenwickEngine::new(inst, sched, profile)
    }

    fn total_cost(&self) -> Cost {
        let mut cost: u128 = 0;
        let mut t: Time = 0;
        let mut level = 0i64;
        let mut segs = self.breaks.range(..).peekable();
        // Deltas at t = 0 take effect before the first piece.
        while let Some(&(&k, &d)) = segs.peek() {
            if k > 0 {
                break;
            }
            level += d;
            segs.next();
        }
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
                let seg_delta = *segs.next().expect("peeked").1;
                level += seg_delta;
            }
            if next == next_bound && j + 1 < self.headroom.len() {
                j += 1;
            }
            t = next;
        }
        crate::cost::narrow_cost(cost)
    }

    fn place_delta(&self, start: Time, len: Time, delta: i64) -> i64 {
        cawo_obs::inc(cawo_obs::Ctr::EnginePriceFenwick);
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
        self.add_break(start, delta);
        self.add_break(start + len, -delta);
    }

    fn horizon(&self) -> Time {
        self.horizon
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

    #[test]
    fn fenwick_prefix_sums() {
        let mut f = Fenwick::new(10);
        assert_eq!(f.len(), 10);
        assert!(!f.is_empty());
        f.add(0, 5);
        f.add(3, -2);
        f.add(9, 7);
        assert_eq!(f.prefix(0), 0);
        assert_eq!(f.prefix(1), 5);
        assert_eq!(f.prefix(3), 5);
        assert_eq!(f.prefix(4), 3);
        assert_eq!(f.prefix(10), 10);
        f.add(3, 2); // cancel
        assert_eq!(f.prefix(4), 5);
    }

    #[test]
    fn prefix_cost_queries() {
        let profile = PowerProfile::from_parts(vec![0, 10, 20], vec![3, 8]);
        let c = PrefixCost::new(&profile, 5);
        // Rates: max(5-3,0)=2 then max(5-8,0)=0.
        assert_eq!(c.cum(0), 0);
        assert_eq!(c.cum(4), 8);
        assert_eq!(c.cum(10), 20);
        assert_eq!(c.cum(15), 20);
        assert_eq!(c.cum(20), 20);
        assert_eq!(c.window(5, 12), 10);
    }

    #[test]
    fn total_matches_sweep() {
        let inst = two_task_instance();
        let profile = PowerProfile::from_parts(vec![0, 4, 8], vec![10, 6]);
        let s = Schedule::new(vec![0, 4]);
        let engine = FenwickEngine::new(&inst, &s, &profile);
        assert_eq!(engine.total_cost(), carbon_cost(&inst, &s, &profile));
        assert_eq!(engine.horizon(), 8);
        assert_eq!(engine.breakpoint_count(), 3, "shared breakpoint at 4");
    }

    #[test]
    fn place_then_total_is_consistent() {
        let inst = two_task_instance();
        let profile = PowerProfile::from_parts(vec![0, 4, 8], vec![12, 18]);
        let s = Schedule::new(vec![0, 0]);
        let mut engine = FenwickEngine::new(&inst, &s, &profile);
        let before = engine.total_cost() as i64;
        // Add a phantom load of 7 over [2, 6).
        let delta = engine.place_delta(2, 4, 7);
        engine.apply_place(2, 4, 7);
        assert_eq!(engine.total_cost() as i64, before + delta);
        // Remove it again.
        let back = engine.place_delta(2, 4, -7);
        engine.apply_place(2, 4, -7);
        assert_eq!(delta + back, 0);
        assert_eq!(engine.total_cost() as i64, before);
    }

    #[test]
    fn shift_delta_matches_recost() {
        let inst = two_task_instance();
        let profile = PowerProfile::from_parts(vec![0, 4, 8], vec![12, 18]);
        let s = Schedule::new(vec![0, 0]);
        let engine = FenwickEngine::new(&inst, &s, &profile);
        for ns in 0..=4 as Time {
            let mut s2 = s.clone();
            s2.set_start(0, ns);
            let expected =
                carbon_cost(&inst, &s2, &profile) as i64 - carbon_cost(&inst, &s, &profile) as i64;
            assert_eq!(engine.shift_delta(0, 4, 10, ns), expected, "ns={ns}");
        }
    }

    #[test]
    fn budget_below_idle_is_charged() {
        let inst = two_task_instance(); // idle 5
        let profile = PowerProfile::uniform(10, 3);
        let s = Schedule::new(vec![0, 4]);
        let engine = FenwickEngine::new(&inst, &s, &profile);
        assert_eq!(engine.total_cost(), carbon_cost(&inst, &s, &profile));
    }

    #[test]
    #[should_panic(expected = "exceeds profile horizon")]
    fn placement_past_horizon_panics() {
        let inst = two_task_instance();
        let profile = PowerProfile::uniform(10, 5);
        let engine = FenwickEngine::new(&inst, &Schedule::new(vec![0, 0]), &profile);
        let _ = engine.place_delta(8, 4, 10); // window [8, 12) > T=10
    }
}
