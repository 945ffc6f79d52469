//! Earliest and latest start times (EST / LST) with dynamic updates.
//!
//! §5.2: `EST` is computed Kahn-style from the sources; `LST(v)` starts
//! at `T - ω(v)` and is relaxed backwards. After the greedy fixes a task
//! at a start time, both bounds of the remaining tasks must be updated —
//! "these updates have to be made possibly for the whole graph, and we
//! use a precomputed topological order for this".
//!
//! After [`Bounds::new`] and after every [`Bounds::fix`], a fixed node's
//! bounds both equal its start, and an unfixed node `w` has
//!
//! * `EST(w) = max EST(u) + ω(u)` over its predecessors `u` (0 for a
//!   source),
//! * `LST(w) = min(T, min LST(s)) - ω(w)` over its successors `s`,
//!   saturating at 0.
//!
//! Bounds only tighten, so `fix` restores this by relaxing one edge at a
//! time: a raised `EST(u)` offers `EST(u) + ω(u)` to each unfixed
//! successor, a lowered `LST(w)` offers `LST(w) - ω(p)` (saturating) to
//! each unfixed predecessor `p`, and only a neighbour whose bound moved
//! is enqueued to pass its change on.
//!
//! The worklist is a bitset over topological positions, sized once in
//! [`Bounds::new`] and empty between calls. Every position enqueued lies
//! past the one being processed — after it in the EST pass, before it in
//! the LST pass — so each pass drains the set with one cursor that only
//! moves forward (EST) or backward (LST) and takes each node once, after
//! all of its neighbours that moved.
//!
//! A `fix` therefore costs the nodes whose bound moves, their incident
//! edges (out-edges in the EST pass, in-edges in the LST pass) and the
//! bitset words between the first and last of them: the paper's
//! `O(n + |Ec|)` in the worst case, while a wide join pays `O(1)` per
//! input that moves instead of a rescan of all its in-edges.

use cawo_graph::NodeId;
use cawo_platform::Time;

use crate::enhanced::Instance;

/// Dynamic EST/LST state over an instance.
#[derive(Debug, Clone)]
pub struct Bounds {
    est: Vec<Time>,
    lst: Vec<Time>,
    scheduled: Vec<bool>,
    /// Topological position of every node.
    topo_pos: Vec<u32>,
    /// Worklist of one propagation pass, by topological position.
    pending: TopoBitset,
    /// EST raises plus LST drops [`Bounds::fix`] applied so far.
    updates: u64,
    deadline: Time,
}

impl Bounds {
    /// Computes initial EST/LST for deadline `T`. Requires
    /// `T >= asap makespan`, otherwise some `LST < EST` (check with
    /// [`Bounds::is_feasible`]).
    pub fn new(inst: &Instance, deadline: Time) -> Self {
        let n = inst.node_count();
        let mut est = vec![0 as Time; n];
        for &u in inst.topo_order() {
            let f = est[u as usize] + inst.exec(u);
            for &v in inst.dag().successors(u) {
                est[v as usize] = est[v as usize].max(f);
            }
        }
        let mut lst: Vec<Time> = (0..n as NodeId)
            .map(|v| deadline.saturating_sub(inst.exec(v)))
            .collect();
        for &v in inst.topo_order().iter().rev() {
            for &u in inst.dag().predecessors(v) {
                let cand = lst[v as usize].saturating_sub(inst.exec(u));
                lst[u as usize] = lst[u as usize].min(cand);
            }
        }
        let mut topo_pos = vec![0u32; n];
        for (i, &v) in inst.topo_order().iter().enumerate() {
            topo_pos[v as usize] = i as u32;
        }
        Bounds {
            est,
            lst,
            scheduled: vec![false; n],
            topo_pos,
            pending: TopoBitset::new(n),
            updates: 0,
            deadline,
        }
    }

    /// Earliest start time of `v` (its fixed start once scheduled).
    pub fn est(&self, v: NodeId) -> Time {
        self.est[v as usize]
    }

    /// Latest start time of `v` (its fixed start once scheduled).
    pub fn lst(&self, v: NodeId) -> Time {
        self.lst[v as usize]
    }

    /// Slack `s(v) = LST(v) - EST(v)` (§5.2).
    pub fn slack(&self, v: NodeId) -> Time {
        self.lst[v as usize].saturating_sub(self.est[v as usize])
    }

    /// Whether `v` has been fixed.
    pub fn is_scheduled(&self, v: NodeId) -> bool {
        self.scheduled[v as usize]
    }

    /// The deadline these bounds were computed for.
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// EST raises plus LST drops that [`Bounds::fix`] has propagated to
    /// unfixed nodes so far: a deterministic measure of its work.
    pub(crate) fn updates(&self) -> u64 {
        self.updates
    }

    /// True iff every node satisfies `EST <= LST` and can still finish by
    /// the deadline — i.e. the deadline is achievable (it is iff
    /// `T >= ASAP makespan`). The explicit finish check guards against
    /// the saturating `T - ω(v)` initialisation masking `ω(v) > T`.
    pub fn is_feasible(&self, inst: &Instance) -> bool {
        (0..self.est.len() as NodeId).all(|v| {
            let e = self.est[v as usize];
            e <= self.lst[v as usize] && e + inst.exec(v) <= self.deadline
        })
    }

    /// Fixes task `v` to start at `start ∈ [EST(v), LST(v)]` and
    /// propagates the tightened bounds through the graph.
    pub fn fix(&mut self, inst: &Instance, v: NodeId, start: Time) {
        debug_assert!(!self.scheduled[v as usize], "task fixed twice");
        debug_assert!(
            start >= self.est[v as usize] && start <= self.lst[v as usize],
            "start {start} outside [{}, {}] for node {v}",
            self.est[v as usize],
            self.lst[v as usize]
        );
        self.scheduled[v as usize] = true;
        let raised = start > self.est[v as usize];
        let lowered = start < self.lst[v as usize];
        self.est[v as usize] = start;
        self.lst[v as usize] = start;
        if raised {
            self.raise_successors(inst, v);
            while let Some(p) = self.pending.pop_first() {
                self.raise_successors(inst, inst.topo_order()[p]);
            }
        }
        if lowered {
            self.lower_predecessors(inst, v);
            while let Some(p) = self.pending.pop_last() {
                self.lower_predecessors(inst, inst.topo_order()[p]);
            }
        }
    }

    /// Offers `EST(u) + ω(u)` to every unfixed successor of `u` and
    /// enqueues each one whose EST it raises.
    fn raise_successors(&mut self, inst: &Instance, u: NodeId) {
        let finish = self.est[u as usize] + inst.exec(u);
        for &s in inst.dag().successors(u) {
            let s = s as usize;
            if !self.scheduled[s] && self.est[s] < finish {
                self.est[s] = finish;
                self.pending.insert(self.topo_pos[s] as usize);
                self.updates += 1;
            }
        }
    }

    /// Offers `LST(w) - ω(p)` to every unfixed predecessor `p` of `w`
    /// and enqueues each one whose LST it lowers.
    fn lower_predecessors(&mut self, inst: &Instance, w: NodeId) {
        let latest_finish = self.lst[w as usize];
        for &p in inst.dag().predecessors(w) {
            let cand = latest_finish.saturating_sub(inst.exec(p));
            let p = p as usize;
            if !self.scheduled[p] && self.lst[p] > cand {
                self.lst[p] = cand;
                self.pending.insert(self.topo_pos[p] as usize);
                self.updates += 1;
            }
        }
    }
}

/// A set of topological positions, one bit each, that remembers the
/// range of words it may hold bits in. A pass only inserts positions
/// past the one it last popped, so the range's near end is a cursor
/// that moves one way, and popping every position costs the words in
/// between.
#[derive(Debug, Clone)]
struct TopoBitset {
    words: Vec<u64>,
    /// Index of the first word that may be non-zero (`usize::MAX` when
    /// empty).
    lo: usize,
    /// Index of the last word that may be non-zero (0 when empty).
    hi: usize,
}

impl TopoBitset {
    fn new(len: usize) -> Self {
        TopoBitset {
            words: vec![0; len.div_ceil(64)],
            lo: usize::MAX,
            hi: 0,
        }
    }

    fn insert(&mut self, p: usize) {
        let w = p / 64;
        self.words[w] |= 1 << (p % 64);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w);
    }

    /// Removes and returns the lowest position, or `None` once empty.
    fn pop_first(&mut self) -> Option<usize> {
        while self.lo <= self.hi {
            let bits = self.words[self.lo];
            if bits != 0 {
                self.words[self.lo] = bits & (bits - 1);
                return Some(self.lo * 64 + bits.trailing_zeros() as usize);
            }
            self.lo += 1;
        }
        (self.lo, self.hi) = (usize::MAX, 0);
        None
    }

    /// Removes and returns the highest position, or `None` once empty.
    fn pop_last(&mut self) -> Option<usize> {
        while self.lo <= self.hi {
            let bits = self.words[self.hi];
            if bits != 0 {
                let b = 63 - bits.leading_zeros() as usize;
                self.words[self.hi] = bits ^ (1 << b);
                return Some(self.hi * 64 + b);
            }
            if self.hi == self.lo {
                break;
            }
            self.hi -= 1;
        }
        (self.lo, self.hi) = (usize::MAX, 0);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enhanced::UnitInfo;
    use cawo_graph::dag::DagBuilder;

    /// Chain 0 -> 1 -> 2 with exec 5, 3, 2 on one unit.
    fn chain() -> Instance {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        Instance::from_raw(
            b.build().unwrap(),
            vec![5, 3, 2],
            vec![0, 0, 0],
            vec![UnitInfo {
                p_idle: 0,
                p_work: 1,
                is_link: false,
            }],
            0,
        )
    }

    /// Diamond with two parallel middle tasks on separate units.
    fn diamond() -> Instance {
        let mut b = DagBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        Instance::from_raw(
            b.build().unwrap(),
            vec![2, 6, 3, 2],
            vec![0, 0, 1, 0],
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
        )
    }

    #[test]
    fn initial_bounds_on_chain() {
        let inst = chain();
        let b = Bounds::new(&inst, 15);
        assert_eq!((b.est(0), b.est(1), b.est(2)), (0, 5, 8));
        assert_eq!((b.lst(0), b.lst(1), b.lst(2)), (5, 10, 13));
        assert_eq!(b.slack(0), 5);
        assert!(b.is_feasible(&inst));
    }

    #[test]
    fn tight_deadline_has_zero_slack() {
        let inst = chain();
        let b = Bounds::new(&inst, 10); // ASAP makespan
        for v in 0..3 {
            assert_eq!(b.slack(v), 0);
            assert_eq!(b.est(v), b.lst(v));
        }
        assert!(b.is_feasible(&inst));
    }

    #[test]
    fn infeasible_deadline_detected() {
        let inst = chain();
        let b = Bounds::new(&inst, 9);
        assert!(!b.is_feasible(&inst));
    }

    #[test]
    fn diamond_bounds() {
        let inst = diamond();
        // ASAP: 0 at 0, 1 at 2, 2 at 2, 3 at 8 ⇒ makespan 10.
        let b = Bounds::new(&inst, 12);
        assert_eq!(b.est(3), 8);
        assert_eq!(b.lst(3), 10);
        // Task 2 (exec 3) must finish before 3 starts: LST = LST(3)-3 = 7.
        assert_eq!(b.lst(2), 7);
        assert_eq!(b.slack(2), 5);
        // Critical path 0->1->3 has slack 2 everywhere.
        assert_eq!(b.slack(0), 2);
        assert_eq!(b.slack(1), 2);
    }

    #[test]
    fn fix_propagates_forward() {
        let inst = chain();
        let mut b = Bounds::new(&inst, 15);
        b.fix(&inst, 0, 3); // push task 0 to its latest-3
        assert!(b.is_scheduled(0));
        assert_eq!(b.est(0), 3);
        assert_eq!(b.lst(0), 3);
        assert_eq!(b.est(1), 8);
        assert_eq!(b.est(2), 11);
        assert!(b.is_feasible(&inst));
    }

    #[test]
    fn fix_propagates_backward() {
        let inst = chain();
        let mut b = Bounds::new(&inst, 15);
        b.fix(&inst, 2, 8); // earliest allowed for task 2
        assert_eq!(b.lst(1), 5);
        assert_eq!(b.lst(0), 0);
        assert!(b.is_feasible(&inst));
    }

    #[test]
    fn fix_middle_tightens_both_sides() {
        let inst = diamond();
        let mut b = Bounds::new(&inst, 12);
        b.fix(&inst, 1, 4);
        assert_eq!(b.lst(0), 2); // 0 must finish by 4
        assert_eq!(b.est(3), 10); // 3 must wait for 1's finish at 10
        assert!(b.is_feasible(&inst));
    }

    #[test]
    fn fixing_all_tasks_yields_valid_schedule() {
        use crate::schedule::Schedule;
        let inst = diamond();
        let mut b = Bounds::new(&inst, 14);
        // Fix in an arbitrary (non-topological) order, always inside
        // [EST, LST]; the result must be a valid schedule.
        for &v in &[3u32, 0, 2, 1] {
            let s = (b.est(v) + b.lst(v)) / 2;
            b.fix(&inst, v, s);
        }
        let starts: Vec<Time> = (0..4).map(|v| b.est(v)).collect();
        let sched = Schedule::new(starts);
        assert!(sched.validate(&inst, 14).is_ok());
    }

    #[test]
    fn fix_counts_only_the_bounds_it_moves() {
        let inst = chain();
        let mut b = Bounds::new(&inst, 15);
        b.fix(&inst, 0, 3); // raises EST(1) 5 -> 8 and EST(2) 8 -> 11
        assert_eq!(b.updates(), 2);
        b.fix(&inst, 2, 13); // no successors, and its LST does not move
        assert_eq!(b.updates(), 2);
        b.fix(&inst, 1, 9); // both bounds move, but both neighbours are fixed
        assert_eq!(b.updates(), 2);
        let mut d = Bounds::new(&inst, 15);
        d.fix(&inst, 2, 8); // lowers LST(1) 10 -> 5 and LST(0) 5 -> 0
        assert_eq!(d.updates(), 2);
    }

    #[test]
    fn scheduled_nodes_do_not_move() {
        let inst = chain();
        let mut b = Bounds::new(&inst, 20);
        b.fix(&inst, 1, 9);
        let est1 = b.est(1);
        b.fix(&inst, 0, 4);
        assert_eq!(b.est(1), est1, "fixed task must not be re-bounded");
    }
}
