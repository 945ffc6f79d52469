//! Exact branch-and-bound solver over task start times.
//!
//! Substitutes the paper's Gurobi runs (docs/ARCHITECTURE.md,
//! "Substitutions").
//! The search assigns start times to `Gc` nodes in topological order.
//! For a node `v` the candidate starts are the integers in
//! `[max placed-preds finish, LST(v)]` (the static LST w.r.t. the
//! deadline is a valid upper bound because all successors must still
//! fit). Soundness of the bound: working power is additive, so the cost
//! of a *partial* schedule is monotone non-decreasing in placements —
//! the cost of the placed prefix is an admissible lower bound on every
//! completion, and branches with `lb >= best` are pruned.
//!
//! Candidate placements are priced through the incremental
//! [`CostEngine`] placement API (`place_delta` / `apply_place`), never
//! by re-evaluating the whole schedule: with the interval-sparse
//! backend one candidate costs `O(log N + breakpoints touched)`
//! regardless of how long the task or the horizon is. The solver can be
//! seeded with a heuristic schedule as the incumbent; candidate starts
//! are explored in increasing order of their immediate cost
//! contribution to reach good incumbents quickly.
//!
//! On single-chain instances the branching factor is cut from `O(T)`
//! integer starts to the `O(n·J)` boundary-aligned candidate set of
//! Appendix A.2 — lossless by Lemma 4.2, so the optimality claim
//! stands. Every other instance branches over every integer start.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rayon::prelude::*;

use cawo_core::{
    Bounds, Cost, CostEngine, DenseGrid, EngineKind, FenwickEngine, Instance, IntervalEngine,
    Schedule,
};
use cawo_graph::NodeId;
use cawo_platform::{PowerProfile, Time};

use crate::solver::{warm_incumbent, Budget, SolveResult, SolveStats, SolveStatus, WarmStart};

/// Solver configuration.
#[derive(Debug, Clone, Default)]
pub struct BnbConfig {
    /// Node/time budget (the incumbent is still returned when the
    /// budget runs out, flagged non-optimal).
    pub budget: Budget,
    /// Warm-start incumbent (e.g. the best heuristic schedule).
    pub incumbent: Option<Schedule>,
    /// Explore the tree on the current `cawo_par` pool (a no-op on a
    /// 1-thread pool). The optimum cost, exhaustion status and proven
    /// bound are unaffected; node counts and equal-cost schedule ties
    /// can vary run-to-run at >1 thread (see docs/CONCURRENCY.md).
    /// Defaults to `false` so plain `solve_exact` calls stay bit-for-bit
    /// reproducible, node counts included.
    pub parallel: bool,
}

impl BnbConfig {
    /// Budget of `node_limit` search nodes, no time limit, no incumbent.
    pub fn with_node_limit(node_limit: u64) -> Self {
        BnbConfig {
            budget: Budget::nodes(node_limit),
            ..BnbConfig::default()
        }
    }
}

/// Solver outcome.
#[derive(Debug, Clone)]
pub struct BnbResult {
    /// Best cost found.
    pub cost: Cost,
    /// Schedule achieving it.
    pub schedule: Schedule,
    /// Whether the result is proven optimal (the search space was
    /// exhausted within the budget).
    pub optimal: bool,
    /// Explored search nodes.
    pub nodes: u64,
}

/// Search-wide state every worker reads and writes: the incumbent
/// bound behind the pruning tests, the node counter, and the budget
/// latch. A single-threaded search goes through the same fields — with
/// one thread the atomics degenerate to plain loads/stores, so the
/// sequential path costs (and counts) exactly what it did before.
struct SharedSearch {
    /// Best completion cost seen so far. Only ever lowered (via
    /// `fetch_min`), so the bound is monotone non-increasing — the
    /// property that keeps pruning admissible under concurrent updates.
    best: AtomicI64,
    nodes: AtomicU64,
    node_limit: u64,
    deadline: Option<Instant>,
    /// Latched once the budget is exhausted so every later poll
    /// short-circuits without reading the clock.
    stop: AtomicBool,
}

impl SharedSearch {
    fn best_bound(&self) -> i64 {
        self.best.load(Ordering::SeqCst)
    }

    /// Entry-time budget poll. Polled every node: a single node
    /// enumerates up to O(T) candidate placements (milliseconds at long
    /// horizons), so any coarser polling would let the wall-clock cap
    /// overshoot by orders of magnitude; against that, one clock read
    /// per node is noise. Runs without a time limit never touch the
    /// clock.
    fn budget_exceeded(&self) -> bool {
        if self.stop.load(Ordering::Relaxed) {
            return true;
        }
        if self.nodes.load(Ordering::Relaxed) >= self.node_limit {
            self.stop.store(true, Ordering::Relaxed);
            return true;
        }
        if let Some(d) = self.deadline {
            #[expect(
                clippy::disallowed_methods,
                reason = "enforcing the opt-in time budget."
            )]
            if Instant::now() >= d {
                self.stop.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Post-child truncation check (cheap: no clock).
    fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.nodes.load(Ordering::Relaxed) >= self.node_limit
    }
}

/// Per-worker search state: the cost engine and prefix are private to
/// the worker; bound/budget live in [`SharedSearch`].
struct SearchState<'a, E: CostEngine> {
    inst: &'a Instance,
    /// Static LST per node (deadline-based).
    lst: &'a [Time],
    /// Per-node sorted candidate starts (None = full enumeration).
    cand_starts: Option<&'a [Vec<Time>]>,
    shared: &'a SharedSearch,
    /// Incremental cost engine tracking the *placed* tasks only.
    engine: E,
    /// Cost of the placed prefix (admissible lower bound).
    prefix_cost: i64,
    /// Start times chosen so far (indexed by node).
    start: Vec<Time>,
    /// Finish time of each placed node (u64::MAX = unplaced).
    finish: Vec<Time>,
    /// Completions that improved the shared bound as they were found;
    /// chronologically last wins within a worker. Workers' records are
    /// merged in deterministic unit order afterwards.
    record: Option<(i64, Vec<Time>)>,
    exhausted: bool,
}

impl<'a, E: CostEngine> SearchState<'a, E> {
    /// Candidates ordered by immediate cost contribution (cheapest
    /// first), ties by earliest start. Pure in the prefix: independent
    /// of the shared bound, so sequential and parallel runs price and
    /// order candidates identically.
    fn candidates(&self, v: NodeId, est: Time, lst: Time, len: Time, w: i64) -> Vec<(i64, Time)> {
        let mut cands: Vec<(i64, Time)> = match self.cand_starts {
            None => (est..=lst)
                .map(|s| (self.engine.place_delta(s, len, w), s))
                .collect(),
            Some(sets) => {
                let set = &sets[v as usize];
                let from = set.partition_point(|&s| s < est);
                let to = set.partition_point(|&s| s <= lst);
                let mut out: Vec<(i64, Time)> = set[from..to]
                    .iter()
                    .map(|&s| (self.engine.place_delta(s, len, w), s))
                    .collect();
                // The pressed-left start is always a candidate: it keeps
                // the restricted tree able to complete any prefix.
                if set[from..to].binary_search(&est).is_err() {
                    out.push((self.engine.place_delta(est, len, w), est));
                }
                out
            }
        };
        cands.sort_unstable();
        cands
    }

    fn place(&mut self, v: NodeId, s: Time, len: Time, w: i64, delta: i64) {
        self.engine.apply_place(s, len, w);
        self.prefix_cost += delta;
        self.start[v as usize] = s;
        self.finish[v as usize] = s + len;
    }

    fn unplace(&mut self, v: NodeId, s: Time, len: Time, w: i64, delta: i64) {
        self.finish[v as usize] = Time::MAX;
        self.prefix_cost -= delta;
        self.engine.apply_place(s, len, -w);
    }

    /// Earliest start permitted by the placed predecessors.
    fn est(&self, v: NodeId) -> Time {
        self.inst
            .dag()
            .predecessors(v)
            .iter()
            .map(|&u| {
                debug_assert_ne!(self.finish[u as usize], Time::MAX, "topological order");
                self.finish[u as usize]
            })
            .max()
            .unwrap_or(0)
    }

    fn dfs(&mut self, order: &[NodeId], depth: usize) {
        self.shared.nodes.fetch_add(1, Ordering::Relaxed);
        if self.shared.budget_exceeded() {
            self.exhausted = false;
            return;
        }
        if depth == order.len() {
            let prev = self
                .shared
                .best
                .fetch_min(self.prefix_cost, Ordering::SeqCst);
            if self.prefix_cost < prev {
                self.record = Some((self.prefix_cost, self.start.clone()));
                cawo_obs::inc(cawo_obs::Ctr::BnbIncumbents);
                cawo_obs::sample("bnb", "incumbent", self.prefix_cost as f64);
            }
            return;
        }
        let v = order[depth];
        let len = self.inst.exec(v);
        let w = self.inst.work_power(v) as i64;
        let est = self.est(v);
        let lst = self.lst[v as usize];
        if est > lst {
            return; // placed predecessors already overflow the deadline
        }
        let cands = self.candidates(v, est, lst, len, w);
        for (i, &(delta, s)) in cands.iter().enumerate() {
            if self.prefix_cost + delta >= self.shared.best_bound() {
                // `delta` is sorted ascending, but later candidates can
                // only match or exceed it — stop this branch.
                cawo_obs::inc(cawo_obs::Ctr::BnbPruned);
                break;
            }
            self.place(v, s, len, w, delta);
            self.dfs(order, depth + 1);
            self.unplace(v, s, len, w, delta);
            if self.shared.should_stop() {
                if i + 1 < cands.len() {
                    // Truncated with candidates still unexplored.
                    self.exhausted = false;
                }
                return;
            }
        }
    }
}

/// A chunk of the search tree executable independently of every other
/// unit: either a contiguous slice of one expanded node's candidate
/// list, or a completed assignment discovered while expanding.
enum Unit<E> {
    Complete {
        cost: i64,
        start: Vec<Time>,
    },
    Slice {
        snap: Arc<Snapshot<E>>,
        cands: Arc<Vec<(i64, Time)>>,
        lo: usize,
        hi: usize,
    },
}

/// Frozen prefix state of one expanded node, shared by its slices.
/// Workers clone the engine out of it — every [`CostEngine`] backend
/// owns its data, which is what makes per-worker clones possible.
struct Snapshot<E> {
    engine: E,
    prefix_cost: i64,
    start: Vec<Time>,
    finish: Vec<Time>,
    depth: usize,
}

impl<'a, E: CostEngine + Clone> SearchState<'a, E> {
    /// Expands the leftmost spine of the tree into independently
    /// executable [`Unit`]s, emitted in exact DFS order.
    ///
    /// This mirrors `dfs` entry semantics step for step — node
    /// counting, budget polling, dead prefixes, candidate pricing — and
    /// prunes only against the *incumbent*: no completion is recorded
    /// during expansion (completions become deferred `Complete` units),
    /// so the shared bound still equals the incumbent everywhere the
    /// spine looks at it, exactly as a sequential DFS would have seen
    /// on its leftmost descent. Executing the units in order on one
    /// thread therefore replays the sequential search bit for bit.
    fn decompose(
        &mut self,
        order: &[NodeId],
        depth: usize,
        target: usize,
        slices: usize,
        units: &mut Vec<Unit<E>>,
    ) {
        self.shared.nodes.fetch_add(1, Ordering::Relaxed);
        if self.shared.budget_exceeded() {
            self.exhausted = false;
            return;
        }
        if depth == order.len() {
            units.push(Unit::Complete {
                cost: self.prefix_cost,
                start: self.start.clone(),
            });
            return;
        }
        let v = order[depth];
        let len = self.inst.exec(v);
        let w = self.inst.work_power(v) as i64;
        let est = self.est(v);
        let lst = self.lst[v as usize];
        if est > lst {
            return;
        }
        let cands = self.candidates(v, est, lst, len, w);
        if self.prefix_cost + cands[0].0 >= self.shared.best_bound() {
            // The cheapest candidate already prices out: the whole
            // candidate loop would break immediately.
            return;
        }
        if cands.len() + units.len() >= target {
            // Wide enough here: slice this node's whole candidate list.
            self.push_slices(cands, 0, slices, depth, units);
        } else {
            // Narrow node: descend into the cheapest candidate (its
            // subtree units come first, preserving DFS order), then
            // emit the remaining candidates as slices.
            let (delta, s) = cands[0];
            self.place(v, s, len, w, delta);
            self.decompose(order, depth + 1, target, slices, units);
            self.unplace(v, s, len, w, delta);
            if self.shared.should_stop() {
                if cands.len() > 1 {
                    self.exhausted = false;
                }
                return;
            }
            if cands.len() > 1 {
                self.push_slices(cands, 1, slices, depth, units);
            }
        }
    }

    /// Splits `cands[from..]` of the node at `depth` into up to
    /// `slices` contiguous [`Unit::Slice`]s over one shared snapshot.
    fn push_slices(
        &self,
        cands: Vec<(i64, Time)>,
        from: usize,
        slices: usize,
        depth: usize,
        units: &mut Vec<Unit<E>>,
    ) {
        let snap = Arc::new(Snapshot {
            engine: self.engine.clone(),
            prefix_cost: self.prefix_cost,
            start: self.start.clone(),
            finish: self.finish.clone(),
            depth,
        });
        let n = cands.len() - from;
        let per = n.div_ceil(slices.min(n).max(1)).max(1);
        let cands = Arc::new(cands);
        let mut lo = from;
        while lo < cands.len() {
            let hi = (lo + per).min(cands.len());
            units.push(Unit::Slice {
                snap: snap.clone(),
                cands: cands.clone(),
                lo,
                hi,
            });
            lo = hi;
        }
    }
}

/// Units each pool thread gets on average (spine cut-off).
const TARGET_UNITS_PER_THREAD: usize = 2;
/// Slices a wide node is cut into, per pool thread (load balancing
/// against skewed subtrees).
const SLICES_PER_THREAD: usize = 4;

/// Runs one unit to completion against the shared bound; returns the
/// unit's best record and whether its subtree was fully explored.
fn execute_unit<E: CostEngine + Clone>(
    unit: Unit<E>,
    inst: &Instance,
    lst: &[Time],
    cand_starts: Option<&[Vec<Time>]>,
    shared: &SharedSearch,
    order: &[NodeId],
) -> (Option<(i64, Vec<Time>)>, bool) {
    match unit {
        Unit::Complete { cost, start } => {
            let prev = shared.best.fetch_min(cost, Ordering::SeqCst);
            if cost < prev {
                cawo_obs::inc(cawo_obs::Ctr::BnbIncumbents);
                cawo_obs::sample("bnb", "incumbent", cost as f64);
            }
            ((cost < prev).then_some((cost, start)), true)
        }
        Unit::Slice {
            snap,
            cands,
            lo,
            hi,
        } => {
            if shared.stop.load(Ordering::Relaxed) {
                return (None, false);
            }
            let mut st = SearchState {
                inst,
                lst,
                cand_starts,
                shared,
                engine: snap.engine.clone(),
                prefix_cost: snap.prefix_cost,
                start: snap.start.clone(),
                finish: snap.finish.clone(),
                record: None,
                exhausted: true,
            };
            let v = order[snap.depth];
            let len = inst.exec(v);
            let w = inst.work_power(v) as i64;
            for i in lo..hi {
                let (delta, s) = cands[i];
                // The sequential `break` becomes a per-candidate skip:
                // deltas ascend and the shared bound is monotone
                // non-increasing, so once one candidate prices out every
                // later one does too — skipping each is equivalent.
                if st.prefix_cost + delta >= shared.best_bound() {
                    continue;
                }
                st.place(v, s, len, w, delta);
                st.dfs(order, snap.depth + 1);
                st.unplace(v, s, len, w, delta);
                if shared.should_stop() {
                    if i + 1 < hi {
                        st.exhausted = false;
                    }
                    break;
                }
            }
            (st.record, st.exhausted)
        }
    }
}

/// Solves an instance to optimality (subject to `config.budget`) on the
/// default (interval-sparse) cost engine.
///
/// Panics if the deadline is below the ASAP makespan.
pub fn solve_exact(inst: &Instance, profile: &PowerProfile, config: BnbConfig) -> BnbResult {
    solve_exact_on::<IntervalEngine>(inst, profile, config)
}

/// Solves an instance to optimality on an explicit cost-engine backend.
/// All backends price placements exactly, so they return the same
/// optimum; they differ only in speed.
///
/// With `config.parallel` set and a multi-thread `cawo_par` pool
/// current, the tree is decomposed along its leftmost spine and the
/// resulting subtree units run on the pool against a shared atomic
/// bound; per-unit best schedules are then merged in deterministic unit
/// order (see docs/CONCURRENCY.md for exactly what that pins down).
///
/// Panics if the deadline is below the ASAP makespan.
pub fn solve_exact_on<E: CostEngine + Clone + Send + Sync>(
    inst: &Instance,
    profile: &PowerProfile,
    config: BnbConfig,
) -> BnbResult {
    let horizon = profile.deadline();
    let bounds = Bounds::new(inst, horizon);
    assert!(bounds.is_feasible(inst), "deadline below ASAP makespan");

    let n = inst.node_count();
    let lst: Vec<Time> = (0..n as NodeId).map(|v| bounds.lst(v)).collect();

    // Candidate-start restriction. On a single chain the Appendix A.2
    // candidate set is provably lossless (Lemma 4.2), so applying it
    // keeps the optimality claim.
    let cand_starts = crate::solver::single_chain(inst).ok().map(|(order, _)| {
        let ends = crate::dp::candidate_end_times(&order, inst, profile);
        let mut sets: Vec<Vec<Time>> = vec![Vec::new(); n];
        for (i, &v) in order.iter().enumerate() {
            sets[v as usize] = ends[i].iter().map(|&e| e - inst.exec(v)).collect();
        }
        sets
    });

    // Incumbent: provided schedule or ASAP, priced through the engine.
    let incumbent = config.incumbent.unwrap_or_else(|| inst.asap_schedule());
    #[expect(
        clippy::expect_used,
        reason = "documented contract on `BnbConfig::incumbent`; accepting an invalid incumbent would silently report a wrong optimum, so it must fail loudly."
    )]
    incumbent
        .validate(inst, horizon)
        .expect("incumbent must be valid for the deadline");
    let incumbent_cost = E::build(inst, &incumbent, profile).total_cost() as i64;

    // The search engine tracks placed tasks only: build it over the
    // ASAP schedule, then vacate every task. What remains is the
    // constant idle-overflow base cost.
    let asap = inst.asap_schedule();
    let mut engine = E::build(inst, &asap, profile);
    for v in 0..n as NodeId {
        let w = inst.work_power(v) as i64;
        engine.apply_place(asap.start(v), inst.exec(v), -w);
    }
    let base_cost = engine.total_cost() as i64;

    let shared = SharedSearch {
        best: AtomicI64::new(incumbent_cost),
        nodes: AtomicU64::new(0),
        node_limit: config.budget.node_limit,
        deadline: config.budget.deadline_from_now(),
        stop: AtomicBool::new(false),
    };
    let order = inst.topo_order().to_vec();
    let mut state = SearchState {
        inst,
        lst: &lst,
        cand_starts: cand_starts.as_deref(),
        shared: &shared,
        engine,
        prefix_cost: base_cost,
        start: vec![0; n],
        finish: vec![Time::MAX; n],
        record: None,
        exhausted: true,
    };

    let threads = rayon::current_num_threads();
    let (records, exhausted) = if config.parallel && threads > 1 {
        let mut units = Vec::new();
        state.decompose(
            &order,
            0,
            threads * TARGET_UNITS_PER_THREAD,
            threads * SLICES_PER_THREAD,
            &mut units,
        );
        let spine_exhausted = state.exhausted;
        // (best record found by the unit, whether it exhausted).
        type UnitOutcome = (Option<(i64, Vec<Time>)>, bool);
        let results: Vec<UnitOutcome> = units
            .into_par_iter()
            .map(|u| execute_unit(u, inst, &lst, cand_starts.as_deref(), &shared, &order))
            .collect();
        let exhausted = spine_exhausted && results.iter().all(|&(_, e)| e);
        let records: Vec<(i64, Vec<Time>)> = results.into_iter().filter_map(|(r, _)| r).collect();
        (records, exhausted)
    } else {
        state.dfs(&order, 0);
        (state.record.into_iter().collect(), state.exhausted)
    };

    // Deterministic reduction: fold the per-unit records in unit order,
    // strict improvement only. On one thread this reproduces the
    // sequential "chronologically last improvement wins" rule exactly;
    // at any thread count the folded cost is the true optimum of the
    // explored space, because the globally best completion always
    // passes its `fetch_min` and is recorded by whichever unit found
    // it.
    let mut best_cost = incumbent_cost;
    let mut best_start = incumbent.starts().to_vec();
    for (c, s) in records {
        if c < best_cost {
            best_cost = c;
            best_start = s;
        }
    }

    let schedule = Schedule::new(best_start);
    debug_assert!(schedule.validate(inst, horizon).is_ok());
    debug_assert_eq!(
        best_cost as Cost,
        cawo_core::carbon_cost(inst, &schedule, profile),
        "engine-priced optimum disagrees with the cost oracle"
    );
    cawo_obs::add(
        cawo_obs::Ctr::BnbNodes,
        shared.nodes.load(Ordering::Relaxed),
    );
    BnbResult {
        cost: best_cost as Cost,
        schedule,
        optimal: exhausted,
        nodes: shared.nodes.load(Ordering::Relaxed),
    }
}

/// The registry's `bnb` entry: optimal on any instance, subject to the
/// budget. Prices on `engine` and explores the tree on the current
/// `cawo_par` pool (see [`BnbConfig::parallel`]; a no-op on a 1-thread
/// pool).
pub(crate) fn solve(
    engine: EngineKind,
    inst: &Instance,
    profile: &PowerProfile,
    budget: Budget,
    warm: &WarmStart,
) -> SolveResult {
    // A warm incumbent (cache hit on a related query) tightens the
    // initial upper bound, which is the main pruning lever of this
    // search; the LP basis hint does not apply to a combinatorial
    // method and is ignored.
    let (incumbent, _) = warm_incumbent(inst, profile, warm);
    let config = BnbConfig {
        budget,
        incumbent: Some(incumbent),
        parallel: true,
    };
    let res = match engine {
        EngineKind::Dense => solve_exact_on::<DenseGrid>(inst, profile, config),
        EngineKind::Interval => solve_exact_on::<IntervalEngine>(inst, profile, config),
        EngineKind::Fenwick => solve_exact_on::<FenwickEngine>(inst, profile, config),
    };
    let lower_bound = res.optimal.then_some(res.cost);
    SolveResult {
        schedule: res.schedule,
        cost: res.cost,
        status: if res.optimal {
            SolveStatus::Optimal
        } else {
            SolveStatus::TimedOut
        },
        nodes: res.nodes,
        lower_bound,
        stats: SolveStats::default(),
        basis: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cawo_core::enhanced::UnitInfo;
    use cawo_core::{carbon_cost, Variant};
    use cawo_graph::dag::DagBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn finds_zero_cost_when_it_exists() {
        let inst = chain_instance(vec![3], 0, 5);
        let profile = PowerProfile::from_parts(vec![0, 4, 8], vec![0, 5]);
        let res = solve_exact(&inst, &profile, BnbConfig::default());
        assert!(res.optimal);
        assert_eq!(res.cost, 0);
        assert!(res.schedule.start(0) >= 4);
    }

    #[test]
    fn matches_uniprocessor_dp() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..25 {
            let n = rng.gen_range(1..5);
            let exec: Vec<Time> = (0..n).map(|_| rng.gen_range(1..4)).collect();
            let total: Time = exec.iter().sum();
            let inst = chain_instance(exec, rng.gen_range(0..3), rng.gen_range(1..6));
            let horizon = total + rng.gen_range(1..=total + 3);
            let mid = rng.gen_range(1..horizon);
            let profile = PowerProfile::from_parts(
                vec![0, mid, horizon],
                vec![rng.gen_range(0..8), rng.gen_range(0..8)],
            );
            let dp = crate::dp::dp_polynomial(&inst, &profile);
            let bnb = solve_exact(&inst, &profile, BnbConfig::default());
            assert!(bnb.optimal, "trial {trial}");
            assert_eq!(bnb.cost, dp.cost, "trial {trial}");
        }
    }

    #[test]
    fn never_worse_than_any_heuristic() {
        use cawo_graph::generator::{generate, Family, GeneratorConfig};
        use cawo_heft::heft_schedule;
        use cawo_platform::{Cluster, DeadlineFactor, ProfileConfig, Scenario};
        let wf = generate(&GeneratorConfig::new(Family::Bacass, 10, 3));
        let cluster = Cluster::tiny(&[4, 5], 3);
        let mapping = heft_schedule(&wf, &cluster);
        let inst = cawo_core::Instance::build(&wf, &cluster, &mapping);
        let profile = ProfileConfig {
            scenario: Scenario::SolarMorning,
            deadline: DeadlineFactor::X15,
            seed: 3,
            intervals: 6,
            perturbation: 0.1,
        }
        .build(&cluster, inst.asap_makespan());
        // Seed with the best heuristic.
        let mut best: Option<Schedule> = None;
        let mut best_cost = Cost::MAX;
        for v in Variant::ALL {
            let s = v.run(&inst, &profile);
            let c = carbon_cost(&inst, &s, &profile);
            if c < best_cost {
                best_cost = c;
                best = Some(s);
            }
        }
        let res = solve_exact(
            &inst,
            &profile,
            BnbConfig {
                budget: Budget::nodes(5_000_000),
                incumbent: best,
                ..BnbConfig::default()
            },
        );
        assert!(res.cost <= best_cost);
        assert!(res.schedule.validate(&inst, profile.deadline()).is_ok());
        // The ILP checker accepts the exact solution and agrees on cost.
        let obj = crate::ilp::check_schedule_against_ilp(&inst, &profile, &res.schedule).unwrap();
        assert_eq!(obj, res.cost);
    }

    #[test]
    fn two_processors_interleave() {
        // Two independent tasks on two units; green budget only fits one
        // at a time. Optimal = serialize into the green window.
        let dag = DagBuilder::new(2).build().unwrap();
        let inst = Instance::from_raw(
            dag,
            vec![3, 3],
            vec![0, 1],
            vec![
                UnitInfo {
                    p_idle: 0,
                    p_work: 4,
                    is_link: false,
                },
                UnitInfo {
                    p_idle: 0,
                    p_work: 4,
                    is_link: false,
                },
            ],
            0,
        );
        let profile = PowerProfile::from_parts(vec![0, 10], vec![4]);
        let res = solve_exact(&inst, &profile, BnbConfig::default());
        assert!(res.optimal);
        assert_eq!(res.cost, 0, "serial execution fits the budget");
        // Check disjointness.
        let (a, b) = (res.schedule.start(0), res.schedule.start(1));
        assert!(a + 3 <= b || b + 3 <= a);
    }

    #[test]
    fn node_limit_returns_incumbent() {
        let inst = chain_instance(vec![2, 2, 2], 0, 3);
        let profile = PowerProfile::from_parts(vec![0, 20], vec![1]);
        let res = solve_exact(&inst, &profile, BnbConfig::with_node_limit(2));
        assert!(!res.optimal);
        // Incumbent (ASAP) cost is returned.
        let asap_cost = carbon_cost(&inst, &inst.asap_schedule(), &profile);
        assert_eq!(res.cost, asap_cost);
    }

    #[test]
    fn respects_deadline_exactly() {
        // Horizon exactly the ASAP makespan: only one schedule exists.
        let inst = chain_instance(vec![2, 3], 1, 2);
        let profile = PowerProfile::uniform(5, 0);
        let res = solve_exact(&inst, &profile, BnbConfig::default());
        assert!(res.optimal);
        assert_eq!(res.schedule.start(0), 0);
        assert_eq!(res.schedule.start(1), 2);
        // Cost: 5 idle units (1 each) + 5 active units (2 each) = 15.
        assert_eq!(res.cost, 15);
    }

    #[test]
    fn all_engines_find_the_same_optimum() {
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..10 {
            let n = rng.gen_range(1..4);
            let exec: Vec<Time> = (0..n).map(|_| rng.gen_range(1..4)).collect();
            let total: Time = exec.iter().sum();
            let inst = chain_instance(exec, rng.gen_range(0..2), rng.gen_range(1..6));
            let horizon = total + rng.gen_range(1..=total + 2);
            let mid = rng.gen_range(1..horizon);
            let profile = PowerProfile::from_parts(
                vec![0, mid, horizon],
                vec![rng.gen_range(0..6), rng.gen_range(0..6)],
            );
            let dense =
                solve_exact_on::<cawo_core::DenseGrid>(&inst, &profile, BnbConfig::default());
            let sparse =
                solve_exact_on::<cawo_core::IntervalEngine>(&inst, &profile, BnbConfig::default());
            let fenwick =
                solve_exact_on::<cawo_core::FenwickEngine>(&inst, &profile, BnbConfig::default());
            assert_eq!(dense.cost, sparse.cost, "trial {trial}");
            assert_eq!(dense.cost, fenwick.cost, "trial {trial}");
            // Identical pruning order ⇒ identical node counts too.
            assert_eq!(dense.nodes, sparse.nodes, "trial {trial}");
            assert_eq!(dense.nodes, fenwick.nodes, "trial {trial}");
        }
    }

    #[test]
    fn registry_entry_reports_status() {
        use crate::solver::{SolveError, SolverKind};
        let inst = chain_instance(vec![2, 2], 0, 3);
        let profile = PowerProfile::from_parts(vec![0, 4, 10], vec![0, 4]);
        let res = SolverKind::Bnb
            .solve(&inst, &profile, Budget::default())
            .unwrap();
        assert_eq!(res.status, SolveStatus::Optimal);
        assert_eq!(res.lower_bound, Some(res.cost));
        assert_eq!(
            res.cost,
            carbon_cost(&inst, &res.schedule, &profile),
            "reported cost must match the returned schedule"
        );
        // An exhausted budget degrades to a timed-out incumbent.
        let tight = SolverKind::Bnb
            .solve(&inst, &profile, Budget::nodes(1))
            .unwrap();
        assert_eq!(tight.status, SolveStatus::TimedOut);
        assert!(tight.cost >= res.cost);
        // An infeasible deadline is reported, not panicked on.
        let short = PowerProfile::uniform(3, 5);
        assert!(matches!(
            SolverKind::Bnb.solve(&inst, &short, Budget::default()),
            Err(SolveError::Infeasible(_))
        ));
    }

    /// Small random multi-unit instance: `n` tasks, random forward
    /// edges, random mapping onto two units. Kept tiny so the full
    /// candidate enumeration exhausts in milliseconds.
    fn random_multiunit(rng: &mut StdRng) -> (Instance, PowerProfile) {
        let n = rng.gen_range(2..5usize);
        let mut b = DagBuilder::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(0.5) {
                    b.add_edge(i as u32, j as u32);
                }
            }
        }
        let exec: Vec<Time> = (0..n).map(|_| rng.gen_range(1..3)).collect();
        let total: Time = exec.iter().sum();
        let mapping: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
        let unit = |p_idle, p_work| UnitInfo {
            p_idle,
            p_work,
            is_link: false,
        };
        let inst = Instance::from_raw(
            b.build().unwrap(),
            exec,
            mapping,
            vec![
                unit(rng.gen_range(0..2), rng.gen_range(1..5)),
                unit(rng.gen_range(0..2), rng.gen_range(1..5)),
            ],
            0,
        );
        let horizon = total + rng.gen_range(1..=4);
        let mid = rng.gen_range(1..horizon);
        let profile = PowerProfile::from_parts(
            vec![0, mid, horizon],
            vec![rng.gen_range(0..6), rng.gen_range(0..6)],
        );
        (inst, profile)
    }

    #[test]
    fn parallel_search_matches_sequential() {
        // The decomposed parallel search must agree with the sequential
        // DFS on cost, exhaustion and optimality — on chains (boundary
        // candidates) and on branching multi-unit instances (full
        // enumeration) alike.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1312);
        for trial in 0..20 {
            let (inst, profile) = if trial % 2 == 0 {
                let n = rng.gen_range(1..5);
                let exec: Vec<Time> = (0..n).map(|_| rng.gen_range(1..4)).collect();
                let total: Time = exec.iter().sum();
                let inst = chain_instance(exec, rng.gen_range(0..3), rng.gen_range(1..6));
                let horizon = total + rng.gen_range(1..=total + 3);
                let mid = rng.gen_range(1..horizon);
                let profile = PowerProfile::from_parts(
                    vec![0, mid, horizon],
                    vec![rng.gen_range(0..8), rng.gen_range(0..8)],
                );
                (inst, profile)
            } else {
                random_multiunit(&mut rng)
            };
            let seq = solve_exact(&inst, &profile, BnbConfig::default());
            let par = pool.install(|| {
                solve_exact(
                    &inst,
                    &profile,
                    BnbConfig {
                        parallel: true,
                        ..BnbConfig::default()
                    },
                )
            });
            assert_eq!(seq.cost, par.cost, "trial {trial}");
            assert_eq!(seq.optimal, par.optimal, "trial {trial}");
            assert!(par.schedule.validate(&inst, profile.deadline()).is_ok());
            assert_eq!(par.cost, carbon_cost(&inst, &par.schedule, &profile));
        }
    }

    #[test]
    fn parallel_flag_on_one_thread_pool_is_bit_identical() {
        // On a 1-thread pool `parallel: true` must replay the
        // sequential search exactly — schedule and node count included.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let inst = chain_instance(vec![2, 3, 1], 1, 4);
        let profile = PowerProfile::from_parts(vec![0, 5, 9, 14], vec![2, 6, 1]);
        let seq = solve_exact(&inst, &profile, BnbConfig::default());
        let par = pool.install(|| {
            solve_exact(
                &inst,
                &profile,
                BnbConfig {
                    parallel: true,
                    ..BnbConfig::default()
                },
            )
        });
        assert_eq!(seq.cost, par.cost);
        assert_eq!(seq.schedule.starts(), par.schedule.starts());
        assert_eq!(seq.nodes, par.nodes);
    }

    #[test]
    fn base_idle_overflow_included() {
        // Budget below idle: even an empty-looking interval costs.
        let inst = chain_instance(vec![1], 5, 1);
        let profile = PowerProfile::uniform(4, 2);
        let res = solve_exact(&inst, &profile, BnbConfig::default());
        // Idle overflow: 4 × (5-2) = 12, plus 1 active unit adds 1.
        assert_eq!(res.cost, 13);
        assert_eq!(res.cost, carbon_cost(&inst, &res.schedule, &profile));
    }
}
