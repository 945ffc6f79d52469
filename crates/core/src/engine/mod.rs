//! Pluggable carbon-cost engines.
//!
//! Every scheduling heuristic in this crate spends most of its time
//! answering the same two questions: *what does the current schedule
//! cost?* and *what would moving one task cost?* The [`CostEngine`]
//! trait abstracts those queries so algorithms can be written once and
//! run against either backend:
//!
//! * [`DenseGrid`] — the original per-time-unit working-power array.
//!   Pseudo-polynomial (state and build time scale with the horizon
//!   `T`), trivially correct, kept as the test oracle.
//! * [`IntervalEngine`] — interval-sparse state keyed by power-profile
//!   boundaries plus task start/end breakpoints. `total_cost` is
//!   `O(N + J)` and `shift_delta`/`apply_shift` are `O(breakpoints
//!   touched)`, independent of the horizon length — the incremental
//!   counterpart of Appendix A.1's polynomial sweep, and the only
//!   backend that stays affordable on thousand-interval real-world
//!   carbon traces (see `cawo_platform`'s `TraceSource`).
//!
//! Both engines evaluate the same objective as [`crate::carbon_cost`]:
//! the green-budget overshoot `Σ_t max(P_t − G_t, 0)` integrated over
//! `[0, T)`, for schedules that respect the profile horizon.

use cawo_platform::{PowerProfile, Time};

use crate::cost::Cost;
use crate::enhanced::Instance;
use crate::schedule::Schedule;

mod dense;
mod fenwick;
mod interval;
pub mod reanswer;

pub use dense::DenseGrid;
pub use fenwick::{Fenwick, FenwickEngine, PrefixCost};
pub use interval::IntervalEngine;
pub use reanswer::{profile_divergence, reanswer_cost, repair_for_deadline};

/// Incremental evaluator of the carbon cost of one schedule.
///
/// An engine is built from a concrete (instance, schedule, profile)
/// triple and then tracks the schedule through task moves. The contract
/// shared by all implementations:
///
/// * the schedule passed to [`CostEngine::build`] — and every state
///   reachable through [`CostEngine::apply_shift`] /
///   [`CostEngine::apply_place`] — must finish within the profile
///   horizon,
/// * [`CostEngine::total_cost`] equals [`crate::carbon_cost`] of the
///   tracked schedule,
/// * [`CostEngine::place_delta`] returns the exact cost change of
///   adding working power over a window (negative `delta` removes
///   power) without mutating state,
/// * [`CostEngine::shift_delta`] returns the exact cost change of
///   moving one task (negative = improvement) without mutating state,
///   and [`CostEngine::shift_scan`] returns it for a whole window of
///   candidate starts,
/// * [`CostEngine::apply_place`] / [`CostEngine::apply_shift`] commit a
///   previously evaluated change.
///
/// Only the *placement* primitives are backend-specific; the shift
/// operations have default implementations over the symmetric
/// difference of the old and new execution windows, and
/// [`IntervalEngine`] overrides the window scan with one sweep. Exact
/// solvers (branch-and-bound placement, E-schedule block shifts) drive
/// the placement API directly; the local search uses the shift API.
pub trait CostEngine {
    /// Engine label used by CLIs, reports and benches.
    const NAME: &'static str;

    /// Builds the engine state for `sched` over the profile's horizon.
    fn build(inst: &Instance, sched: &Schedule, profile: &PowerProfile) -> Self
    where
        Self: Sized;

    /// Total carbon cost of the tracked schedule.
    fn total_cost(&self) -> Cost;

    /// Cost change of adding `delta` working power over
    /// `[start, start + len)`. `delta` may be negative (a task being
    /// removed or vacating a window). Does not mutate state.
    fn place_delta(&self, start: Time, len: Time, delta: i64) -> i64;

    /// Applies the change evaluated by [`CostEngine::place_delta`].
    fn apply_place(&mut self, start: Time, len: Time, delta: i64);

    /// Horizon length `T` the engine covers.
    fn horizon(&self) -> Time;

    /// Cost change if a task of working power `w` and length `len`
    /// currently executing in `[start, start + len)` moved to
    /// `[new_start, new_start + len)`. Negative = improvement.
    fn shift_delta(&self, start: Time, len: Time, w: i64, new_start: Time) -> i64 {
        if start == new_start || w == 0 || len == 0 {
            return 0;
        }
        // Hard assert (not debug): a window past the horizon has no
        // defined budget and every backend would misbehave differently;
        // fail loudly and uniformly instead.
        assert!(
            new_start + len <= self.horizon(),
            "shift target exceeds profile horizon"
        );
        let (s0, e0) = (start, start + len);
        let (s1, e1) = (new_start, new_start + len);
        let mut delta = 0i64;
        // Vacated by the move: in [s0, e0) but not [s1, e1); then the
        // newly occupied part. The runs are disjoint, so the two
        // placement deltas are independent and sum exactly.
        for (a, b) in difference_runs(s0, e0, s1, e1) {
            if a < b {
                delta += self.place_delta(a, b - a, -w);
            }
        }
        for (a, b) in difference_runs(s1, e1, s0, e0) {
            if a < b {
                delta += self.place_delta(a, b - a, w);
            }
        }
        delta
    }

    /// [`CostEngine::shift_delta`] of every candidate start `c` in
    /// `[lo, hi]`, written to `out[c - lo]` (`out` is cleared first and
    /// left empty when `hi < lo`). The current start need not lie in
    /// the window. Does not mutate state.
    ///
    /// This is the local search's pricing call: one per task visit that
    /// is not skipped as clean (see [`mod@crate::local_search`]). The
    /// default prices each candidate on its own; a backend may override
    /// it with a single sweep, but every entry must stay exactly the
    /// pointwise delta.
    fn shift_scan(&self, start: Time, len: Time, w: i64, lo: Time, hi: Time, out: &mut Vec<i64>) {
        out.clear();
        out.extend((lo..=hi).map(|c| self.shift_delta(start, len, w, c)));
    }

    /// Applies the move evaluated by [`CostEngine::shift_delta`].
    fn apply_shift(&mut self, start: Time, len: Time, w: i64, new_start: Time) {
        if start == new_start || w == 0 || len == 0 {
            return;
        }
        assert!(
            new_start + len <= self.horizon(),
            "shift target exceeds profile horizon"
        );
        for (a, b) in difference_runs(start, start + len, new_start, new_start + len) {
            if a < b {
                self.apply_place(a, b - a, -w);
            }
        }
        for (a, b) in difference_runs(new_start, new_start + len, start, start + len) {
            if a < b {
                self.apply_place(a, b - a, w);
            }
        }
    }
}

/// Selects a [`CostEngine`] implementation at run time (CLI flag,
/// [`crate::variant::RunParams`], experiment configs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Per-time-unit [`DenseGrid`] — the pseudo-polynomial oracle.
    Dense,
    /// Interval-sparse [`IntervalEngine`] — the production default.
    #[default]
    Interval,
    /// Difference-array [`FenwickEngine`] — prefix-sum levels in a
    /// binary indexed tree; the exact solvers' alternative backend.
    Fenwick,
}

impl EngineKind {
    /// All engines, oracle first.
    pub const ALL: [EngineKind; 3] = [EngineKind::Dense, EngineKind::Interval, EngineKind::Fenwick];

    /// Stable label (`"dense"` / `"interval"` / `"fenwick"`).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Dense => DenseGrid::NAME,
            EngineKind::Interval => IntervalEngine::NAME,
            EngineKind::Fenwick => FenwickEngine::NAME,
        }
    }

    /// Parses a label (inverse of [`EngineKind::name`], ASCII
    /// case-insensitive).
    pub fn parse(s: &str) -> Option<EngineKind> {
        EngineKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The (at most two) maximal runs of `[a, b) \ [c, d)`, possibly empty
/// (`start >= end`). Both engines evaluate moves over the symmetric
/// difference of the old and new execution windows, expressed through
/// this helper.
pub(crate) fn difference_runs(a: Time, b: Time, c: Time, d: Time) -> [(Time, Time); 2] {
    [(a, b.min(c.max(a))), (a.max(d.min(b)), b)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(a: Time, b: Time, c: Time, d: Time) -> Vec<Time> {
        difference_runs(a, b, c, d)
            .into_iter()
            .flat_map(|(s, e)| s..e)
            .collect()
    }

    #[test]
    fn difference_run_cases() {
        // Disjoint.
        assert_eq!(collect(0, 3, 5, 8), vec![0, 1, 2]);
        // Overlap right.
        assert_eq!(collect(0, 5, 3, 8), vec![0, 1, 2]);
        // Overlap left.
        assert_eq!(collect(3, 8, 0, 5), vec![5, 6, 7]);
        // Contained: nothing left.
        assert_eq!(collect(2, 4, 0, 8), Vec::<Time>::new());
        // Contains: both sides (shift by more than len would hit this).
        assert_eq!(collect(0, 8, 2, 4), vec![0, 1, 4, 5, 6, 7]);
        // Identical.
        assert_eq!(collect(1, 4, 1, 4), Vec::<Time>::new());
    }

    #[test]
    fn engine_kind_labels_roundtrip() {
        for k in EngineKind::ALL {
            assert_eq!(EngineKind::parse(k.name()), Some(k));
            assert_eq!(EngineKind::parse(&k.name().to_uppercase()), Some(k));
        }
        assert_eq!(EngineKind::parse("sparse"), None);
        assert_eq!(EngineKind::default(), EngineKind::Interval);
        assert_eq!(EngineKind::Dense.to_string(), "dense");
        assert_eq!(EngineKind::Interval.to_string(), "interval");
        assert_eq!(EngineKind::Fenwick.to_string(), "fenwick");
    }
}
