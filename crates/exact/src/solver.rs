//! The exact-solver registry: [`SolverKind`] names every exact method
//! and dispatches straight to it.
//!
//! Each exact algorithm has its own native entry point with its own
//! shape — `dp_polynomial` returning a `DpResult`, `solve_exact` a
//! `BnbResult`. The registry gives them all one contract:
//!
//! ```text
//! SolverKind::solve(self, &Instance, &PowerProfile, Budget)
//!     -> Result<SolveResult { schedule, cost, status, … }, SolveError>
//! ```
//!
//! so experiment grids, CLIs and benches can treat "an exact column" as
//! a value exactly like they treat heuristic [`cawo_core::Variant`]s.
//! [`SolverKind::solve_with`] adds the per-call cost engine and a
//! [`WarmStart`]. Every registered solver:
//!
//! | name   | module                  | method                                    | guarantee |
//! |--------|-------------------------|-------------------------------------------|-----------|
//! | `bnb`  | [`crate::bnb`]          | combinatorial branch-and-bound            | optimal   |
//! | `dp`   | [`crate::dp`]           | E-schedule-restricted polynomial DP       | optimal (uniprocessor) |
//! | `ilp`  | [`crate::ilp`]          | branch-and-bound certified by the ILP checker | optimal |
//! | `milp` | [`crate::milp`]         | compact A.4 model, sparse revised-simplex B&B (warm-started window splits) | optimal / feasible + bound |
//! | `lp`   | [`crate::sparse_model`] | sparse LP-relaxation lower bound + best heuristic | optimal iff bound met |
//!
//! Solvers that cannot handle an instance (multi-unit input to a
//! uniprocessor method, a time-indexed model too large to materialise)
//! return [`SolveError::Unsupported`] instead of panicking, so a grid
//! run records an honest per-row status.

use std::time::{Duration, Instant};

use cawo_core::{Cost, CostEngine, EngineKind, Instance, IntervalEngine, Schedule, Variant};
use cawo_graph::NodeId;
use cawo_platform::PowerProfile;

/// How a [`SolveResult`] was concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// The returned schedule is proven optimal.
    Optimal,
    /// The returned schedule is valid but carries no optimality proof —
    /// either the method is inexact (a polisher, a rounding, a bound
    /// that fell short of the incumbent) or a budgeted search concluded
    /// with an integer incumbent it could not prove optimal.
    Feasible,
    /// The budget ran out; the best incumbent found so far is returned.
    TimedOut,
}

impl SolveStatus {
    /// Stable lowercase label for reports and CSV columns.
    pub fn name(self) -> &'static str {
        match self {
            SolveStatus::Optimal => "optimal",
            SolveStatus::Feasible => "feasible",
            SolveStatus::TimedOut => "timeout",
        }
    }
}

impl std::fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Resource budget for one [`SolverKind::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Cap on explored search nodes (B&B nodes, MILP nodes).
    pub node_limit: u64,
    /// Wall-clock cap; checked periodically, so slightly overshootable.
    pub time_limit: Option<Duration>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            node_limit: 50_000_000,
            time_limit: None,
        }
    }
}

impl Budget {
    /// A node-count budget with no time limit.
    pub fn nodes(node_limit: u64) -> Self {
        Budget {
            node_limit,
            ..Budget::default()
        }
    }

    /// A wall-clock budget with the default node limit.
    pub fn time(limit: Duration) -> Self {
        Budget {
            time_limit: Some(limit),
            ..Budget::default()
        }
    }

    /// Parses a budget spec: a bare integer is a node limit, a value
    /// with an `ms`/`s` suffix is a time limit, and a comma combines
    /// both (`"500000,250ms"`). Negative, non-finite or absurdly large
    /// durations are rejected (`None`), never panicked on.
    pub fn parse(s: &str) -> Option<Budget> {
        let mut budget = Budget::default();
        for part in s.split(',') {
            let part = part.trim();
            if let Some(ms) = part.strip_suffix("ms") {
                budget.time_limit = Some(Duration::from_millis(ms.trim().parse().ok()?));
            } else if let Some(secs) = part.strip_suffix('s') {
                let v: f64 = secs.trim().parse().ok()?;
                budget.time_limit = Some(Duration::try_from_secs_f64(v).ok()?);
            } else {
                budget.node_limit = part.parse().ok()?;
            }
        }
        Some(budget)
    }

    /// The wall-clock deadline implied by the time limit, anchored now.
    /// A limit too large for an [`Instant`] to represent is no deadline.
    #[expect(
        clippy::disallowed_methods,
        reason = "opt-in time budget: `time_limit` is documented as non-reproducible; the default (None) never reads the clock."
    )]
    pub(crate) fn deadline_from_now(&self) -> Option<Instant> {
        self.time_limit.and_then(|d| Instant::now().checked_add(d))
    }
}

/// Method-level work counters accumulated over one
/// [`SolverKind::solve`] call — the "why was it fast/slow" companion to
/// the verdict. All fields are zero/empty for methods where they are
/// meaningless (combinatorial solvers report no LP iterations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Total simplex iterations across every LP solve (all phases).
    pub lp_iterations: u64,
    /// Dual-simplex repair pivots within `lp_iterations` (warm
    /// child-node re-solves).
    pub dual_iterations: u64,
    /// Root cutting-plane rounds executed.
    pub cut_rounds: u32,
    /// Cutting planes appended to the model at the root.
    pub cuts: u32,
    /// Disaggregated precedence cuts within `cuts`.
    pub cuts_prec: u32,
    /// Lifted cover cuts within `cuts`.
    pub cuts_cover: u32,
    /// MIR cuts within `cuts`.
    pub cuts_mir: u32,
}

/// Outcome of a successful [`SolverKind::solve`] call.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The returned (always deadline-valid) schedule.
    pub schedule: Schedule,
    /// Its carbon cost — equals `CostEngine::total_cost` of `schedule`
    /// (enforced by the differential property suite).
    pub cost: Cost,
    /// How the result was concluded.
    pub status: SolveStatus,
    /// Explored search nodes / DP cells (0 where meaningless).
    pub nodes: u64,
    /// A proven lower bound on the optimal cost, when the method
    /// produces one (LP relaxation, exhausted B&B).
    pub lower_bound: Option<Cost>,
    /// Work counters explaining how the verdict was reached.
    pub stats: SolveStats,
    /// Warm-start token for a future re-solve of the same query: the
    /// root LP basis of the compact model (`lp` and `milp` only; `None`
    /// where the method has no LP or the budget ran out before the root
    /// solve began). Captured *before* root cuts so its dimensions
    /// match a freshly built model.
    pub basis: Option<cawo_lp::Basis>,
}

/// Why a solver declined an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The method cannot represent this instance (multi-unit input to a
    /// uniprocessor method; a time-indexed model too large to build).
    Unsupported(String),
    /// No schedule meets the deadline (below the ASAP makespan).
    Infeasible(String),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Unsupported(m) => write!(f, "unsupported: {m}"),
            SolveError::Infeasible(m) => write!(f, "infeasible: {m}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Warm-start state carried from one solve to the next, harvested from
/// a previous [`SolveResult`] (typically by the `cawo_cache` solve
/// cache). Both fields are *hints*: a solver folds them in only when
/// they are still valid for the new instance/profile, so a stale warm
/// state can slow a solve down but never change its verdict.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// A feasible schedule from a previous solve of a related query.
    /// Used as the incumbent when it beats the cold heuristic (and, in
    /// `milp` and `lp`, to crash a primal-feasible starting basis on the
    /// new model when no warm basis fits). Schedules that miss the new
    /// deadline are repaired via [`cawo_core::repair_for_deadline`]
    /// before being discarded.
    pub incumbent: Option<Schedule>,
    /// A root LP basis captured by a previous [`SolveResult::basis`].
    /// Installed only when its dimensions match the new model — the
    /// compact A.4 model's column layout depends on the profile's
    /// budgets, so a shifted trace can change the column count, in
    /// which case the basis is silently dropped in favour of a crash
    /// basis from the incumbent.
    pub basis: Option<cawo_lp::Basis>,
}

impl WarmStart {
    /// True when there is nothing to warm-start from.
    pub fn is_empty(&self) -> bool {
        self.incumbent.is_none() && self.basis.is_none()
    }
}

/// Folds a warm incumbent into the cold heuristic: returns the better
/// of the two under `profile`, repairing the warm schedule first when
/// the new deadline is tighter than the one it was computed for.
pub(crate) fn warm_incumbent(
    inst: &Instance,
    profile: &PowerProfile,
    warm: &WarmStart,
) -> (Schedule, Cost) {
    let (mut best, mut best_cost) = heuristic_incumbent(inst, profile);
    if let Some(cand) = &warm.incumbent {
        let deadline = profile.deadline();
        let repaired;
        let cand = if cand.validate(inst, deadline).is_ok() {
            Some(cand)
        } else {
            repaired = cawo_core::repair_for_deadline(inst, cand, deadline);
            repaired.as_ref()
        };
        if let Some(cand) = cand {
            let cost = IntervalEngine::build(inst, cand, profile).total_cost();
            if cost < best_cost {
                best = cand.clone();
                best_cost = cost;
            }
        }
    }
    (best, best_cost)
}

/// Selects a registered exact method at run time (CLI flag, experiment
/// configs) and runs it — the exact-solver counterpart of
/// [`cawo_core::EngineKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Combinatorial branch-and-bound ([`crate::bnb`]).
    Bnb,
    /// Polynomial E-schedule DP ([`crate::dp`]).
    Dp,
    /// Checker-certified branch-and-bound ([`crate::ilp`]).
    Ilp,
    /// Compact A.4 model via the sparse revised-simplex B&B
    /// ([`crate::milp`]).
    Milp,
    /// Sparse LP-relaxation bound + incumbent ([`crate::sparse_model`]).
    Lp,
}

impl SolverKind {
    /// Every registered solver.
    pub const ALL: [SolverKind; 5] = [
        SolverKind::Bnb,
        SolverKind::Dp,
        SolverKind::Ilp,
        SolverKind::Milp,
        SolverKind::Lp,
    ];

    /// Stable label (inverse of [`SolverKind::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Bnb => "bnb",
            SolverKind::Dp => "dp",
            SolverKind::Ilp => "ilp",
            SolverKind::Milp => "milp",
            SolverKind::Lp => "lp",
        }
    }

    /// Parses a label (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<SolverKind> {
        SolverKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Runs the method cold on the default cost engine under a resource
    /// budget.
    ///
    /// The returned schedule validates against the instance and the
    /// profile deadline, and `cost` equals its carbon cost.
    pub fn solve(
        self,
        inst: &Instance,
        profile: &PowerProfile,
        budget: Budget,
    ) -> Result<SolveResult, SolveError> {
        self.solve_with(
            EngineKind::default(),
            inst,
            profile,
            budget,
            &WarmStart::default(),
        )
    }

    /// Runs the method on an explicit cost-engine backend, seeded with
    /// warm state from a previous solve. A deadline below the ASAP
    /// makespan is [`SolveError::Infeasible`] for every method.
    ///
    /// Only `bnb` prices through `engine`; the other methods ignore it.
    /// `bnb`, `ilp`, `milp` and `lp` fold in the warm incumbent, `milp`
    /// and `lp` also the warm basis; `dp` ignores both. A warm start
    /// must reach the same optimum as a cold solve — the warm-path
    /// property suite enforces this across solvers.
    pub fn solve_with(
        self,
        engine: EngineKind,
        inst: &Instance,
        profile: &PowerProfile,
        budget: Budget,
        warm: &WarmStart,
    ) -> Result<SolveResult, SolveError> {
        require_feasible(inst, profile)?;
        match self {
            SolverKind::Bnb => Ok(crate::bnb::solve(engine, inst, profile, budget, warm)),
            SolverKind::Dp => crate::dp::solve(inst, profile, budget),
            SolverKind::Ilp => crate::ilp::solve(inst, profile, budget, warm),
            SolverKind::Milp => crate::milp::solve(inst, profile, budget, warm),
            SolverKind::Lp => crate::sparse_model::solve_lp(inst, profile, budget, warm),
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Fails with [`SolveError::Infeasible`] when the deadline is below the
/// ASAP makespan (no valid schedule exists at all).
fn require_feasible(inst: &Instance, profile: &PowerProfile) -> Result<(), SolveError> {
    let asap = inst.asap_makespan();
    if profile.deadline() < asap {
        return Err(SolveError::Infeasible(format!(
            "deadline {} below ASAP makespan {asap}",
            profile.deadline()
        )));
    }
    Ok(())
}

/// Extracts the single execution chain of a uniprocessor instance, or
/// explains why the method does not apply.
///
/// Besides "all tasks on one unit" this checks that consecutive tasks
/// of the unit order are linked by precedence edges: the uniprocessor
/// methods (DPs, E-schedule normalisation, the boundary-aligned
/// branch-and-bound candidates) assume *sequential, non-overlapping*
/// execution, and in this model only `Gc` edges forbid co-located
/// overlap (real instances get those chain edges from `E''` during
/// construction — a raw mapping without them is not a chain).
pub(crate) fn single_chain(inst: &Instance) -> Result<(Vec<NodeId>, u64), SolveError> {
    let mut chain: Option<(Vec<NodeId>, u64)> = None;
    for u in 0..inst.unit_count() as u32 {
        let order = inst.unit_order(u);
        if order.is_empty() {
            continue;
        }
        if chain.is_some() {
            return Err(SolveError::Unsupported(
                "uniprocessor method requires all tasks on one execution unit".into(),
            ));
        }
        chain = Some((order.to_vec(), inst.unit(u).p_work));
    }
    let (order, p_work) =
        chain.ok_or_else(|| SolveError::Unsupported("instance has no tasks".into()))?;
    for w in order.windows(2) {
        if !inst.dag().successors(w[0]).contains(&w[1]) {
            return Err(SolveError::Unsupported(
                "uniprocessor method requires the unit order to be a precedence chain".into(),
            ));
        }
    }
    Ok((order, p_work))
}

/// The strongest heuristic incumbent available without a search:
/// `pressWR-LS` against the ASAP baseline, costed through the interval
/// engine (never through `carbon_cost`).
pub(crate) fn heuristic_incumbent(inst: &Instance, profile: &PowerProfile) -> (Schedule, Cost) {
    let asap = inst.asap_schedule();
    let asap_cost = IntervalEngine::build(inst, &asap, profile).total_cost();
    let heur = Variant::PressWRLs.run(inst, profile);
    let heur_cost = IntervalEngine::build(inst, &heur, profile).total_cost();
    if heur_cost <= asap_cost {
        (heur, heur_cost)
    } else {
        (asap, asap_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_parsing() {
        assert_eq!(Budget::parse("12345"), Some(Budget::nodes(12345)));
        assert_eq!(
            Budget::parse("250ms"),
            Some(Budget::time(Duration::from_millis(250)))
        );
        assert_eq!(
            Budget::parse("2s"),
            Some(Budget::time(Duration::from_secs(2)))
        );
        assert_eq!(
            Budget::parse("1000, 50ms"),
            Some(Budget {
                node_limit: 1000,
                time_limit: Some(Duration::from_millis(50)),
            })
        );
        assert_eq!(Budget::parse("fast"), None);
        assert_eq!(Budget::parse("1.5x"), None);
        // Pathological durations are rejected, not panicked on.
        assert_eq!(Budget::parse("-1s"), None);
        assert_eq!(Budget::parse("nans"), None);
        assert_eq!(Budget::parse("infs"), None);
        assert_eq!(Budget::parse("1e300s"), None);
        // A duration no `Instant` can reach parses, and means no
        // deadline rather than an overflow.
        let huge = Budget::parse("10000000000000000000s").unwrap();
        assert!(huge.time_limit.is_some());
        assert_eq!(huge.deadline_from_now(), None);
    }

    #[test]
    fn solver_kind_labels_roundtrip() {
        for k in SolverKind::ALL {
            assert_eq!(SolverKind::parse(k.name()), Some(k));
            assert_eq!(SolverKind::parse(&k.name().to_uppercase()), Some(k));
        }
        assert_eq!(SolverKind::ALL.len(), 5);
        assert_eq!(SolverKind::parse("gurobi"), None);
        // The pseudo-polynomial DP and the E-schedule polisher are
        // library functions, not registry entries.
        assert_eq!(SolverKind::parse("dp-pseudo"), None);
        assert_eq!(SolverKind::parse("eschedule"), None);
        assert_eq!(SolverKind::Bnb.to_string(), "bnb");
    }

    #[test]
    fn status_labels() {
        assert_eq!(SolveStatus::Optimal.name(), "optimal");
        assert_eq!(SolveStatus::Feasible.name(), "feasible");
        assert_eq!(SolveStatus::TimedOut.to_string(), "timeout");
    }
}
