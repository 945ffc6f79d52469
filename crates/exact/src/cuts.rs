//! Root cutting planes for the compact sparse A.4 model.
//!
//! The aggregated precedence rows of [`crate::sparse_model`] keep the
//! model small but leave a weak relaxation: under loose deadlines the
//! LP spreads start mass across the windows, pays no brown power, and
//! bounds at 0 — branch-and-bound then cannot prune anything. This
//! module separates two families of valid inequalities at the root and
//! appends the violated ones as new rows:
//!
//! * **Disaggregated precedence cuts.** For an edge `(u, v)` with
//!   `ω(u) = w` and any threshold `θ`:
//!   `Σ_{l ≤ θ−w} s(u,l) − Σ_{l ≤ θ} s(v,l) ≥ 0` — "if `v` has started
//!   by `θ`, `u` must have started by `θ − w`". Exact (eq. (12)-style)
//!   per-threshold strength at one row per *violated* threshold instead
//!   of `T` rows per edge; separation is a prefix-sum sweep.
//! * **Lifted cover cuts over the power rows.** For a time unit `t`
//!   with budget `G_t` and a set `C` of tasks that can run at `t` with
//!   `ΣP_idle + Σ_{v∈C} P_v > G_t`, every integer point has
//!   `bu_t ≥ E_C · (Σ_{v∈C} y_{vt} − |C| + 1)` where
//!   `y_{vt} = Σ_{l: l ≤ t < l+ω(v)} s(v,l)` indicates `v` covering `t`
//!   and `E_C = ΣP_idle + Σ_C P_v − G_t` is the guaranteed excess.
//!   Greedy separation picks the largest fractional coverages first.
//! * **MIR cuts over the power rows.** Mixed-integer rounding of
//!   `Σ_v P_v·y_{vt} ≤ (G_t − ΣP_idle) + bu_t` with a divisor `δ` from
//!   the working powers: with `f = frac((G_t − ΣP_idle)/δ) > 0` every
//!   integer point satisfies
//!   `Σ_v c_v·y_{vt} ≤ ⌊(G_t−ΣP_idle)/δ⌋ + bu_t/(δ(1−f))`,
//!   `c_v = ⌊P_v/δ⌋ + max(0, frac(P_v/δ) − f)/(1−f)`. Where the
//!   budget is not a multiple of the power draws this dominates the
//!   plain row — it is what closes symmetric "k of n tasks overlap"
//!   fractional points that minimal covers cannot touch.
//!
//! Cuts only ever *add* rows: every integer schedule stays feasible, so
//! branch-and-bound over the augmented model remains exact, and the
//! augmented relaxation bound can only improve. New rows enter with
//! their slack basic — the old basis stays structurally valid and dual
//! feasible, which is precisely the warm state the dual simplex repairs
//! in a handful of pivots.

use std::collections::HashSet;
use std::time::Instant;

use cawo_core::Instance;
use cawo_graph::NodeId;
use cawo_lp::{LpSolution, LpStatus, RowCmp, SimplexSolver, VStat};
use cawo_platform::{PowerProfile, Time};

use crate::sparse_model::{simplex_options, SparseA4Model};

/// Minimum violation for a cut to be worth a row.
const CUT_TOL: f64 = 1e-4;
/// Maximum separation rounds at the root.
const MAX_ROUNDS: u32 = 8;
/// Maximum cuts appended per round (most violated first).
const MAX_CUTS_PER_ROUND: usize = 200;
/// Objective gain (absolute) below which a round counts as stalled.
const MIN_GAIN: f64 = 1e-6;
/// Consecutive stalled rounds tolerated before giving up. A zero-gain
/// round often just moves the LP to a *different* fractional vertex
/// that the next separation round then cuts off, so one stall is not
/// yet failure.
const MAX_STALLED_ROUNDS: u32 = 2;

/// Counters of one root cut pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct CutStats {
    /// Separation rounds that appended at least one cut.
    pub rounds: u32,
    /// Total rows appended.
    pub cuts: u32,
    /// Disaggregated precedence cuts within `cuts`.
    pub prec_cuts: u32,
    /// Lifted cover cuts within `cuts`.
    pub cover_cuts: u32,
    /// MIR cuts within `cuts`.
    pub mir_cuts: u32,
    /// Simplex iterations spent re-solving after cuts.
    pub resolve_iters: u64,
    /// Dual-simplex pivots within `resolve_iters`.
    pub resolve_dual_iters: u64,
}

/// Which separator produced a cut — carried on every [`Cut`] so the
/// append loop can account rows per family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CutFamily {
    Precedence,
    Cover,
    Mir,
}

/// One separated inequality `terms · x ≥ rhs`.
struct Cut {
    violation: f64,
    terms: Vec<(u32, f64)>,
    rhs: f64,
    family: CutFamily,
}

/// Separates disaggregated precedence cuts at `x`: per edge, the most
/// violated threshold not yet emitted.
fn separate_precedence(
    model: &SparseA4Model,
    inst: &Instance,
    x: &[f64],
    seen: &mut HashSet<(NodeId, NodeId, Time)>,
    out: &mut Vec<Cut>,
) {
    for (u, v) in inst.dag().edges() {
        let w = inst.exec(u);
        let (est_u, lst_u) = model.window(u);
        let (est_v, lst_v) = model.window(v);
        // Walk θ over v's window keeping both running prefixes:
        // prefix_v(θ) = Σ_{l ≤ θ} x_v and prefix_u(θ − w).
        let mut prefix_v = 0.0f64;
        let mut prefix_u = 0.0f64;
        let mut next_u = est_u; // first u-start not yet in prefix_u
        let mut best: Option<(f64, Time)> = None;
        for theta in est_v..=lst_v {
            prefix_v += x[model.s_col(v, theta) as usize];
            if theta >= w {
                let cap = (theta - w).min(lst_u);
                while next_u <= cap {
                    prefix_u += x[model.s_col(u, next_u) as usize];
                    next_u += 1;
                }
            }
            if next_u > lst_u {
                break; // prefix_u ≡ 1 from here: no violation possible
            }
            let viol = prefix_v - prefix_u;
            if viol > CUT_TOL && best.is_none_or(|(b, _)| viol > b) {
                best = Some((viol, theta));
            }
        }
        let Some((violation, theta)) = best else {
            continue;
        };
        if !seen.insert((u, v, theta)) {
            continue;
        }
        let mut terms: Vec<(u32, f64)> = Vec::new();
        if theta >= w {
            for l in est_u..=(theta - w).min(lst_u) {
                terms.push((model.s_col(u, l), 1.0));
            }
        }
        for l in est_v..=theta {
            terms.push((model.s_col(v, l), -1.0));
        }
        out.push(Cut {
            violation,
            terms,
            rhs: 0.0,
            family: CutFamily::Precedence,
        });
    }
}

/// Separates cover cuts over the materialised power rows at `x`.
fn separate_covers(
    model: &SparseA4Model,
    inst: &Instance,
    profile: &PowerProfile,
    x: &[f64],
    seen: &mut HashSet<(Time, Vec<NodeId>)>,
    out: &mut Vec<Cut>,
) {
    let idle = inst.total_idle_power() as f64;
    let n = model.node_count() as NodeId;
    for &(t, bu) in model.power_rows() {
        let g = profile.budget_at(t) as f64;
        // Fractional coverage ŷ_v of every task that can run at t.
        let mut cand: Vec<(f64, NodeId, f64)> = Vec::new(); // (ŷ, v, P_v)
        for v in 0..n {
            let w = inst.exec(v);
            let p = inst.work_power(v) as f64;
            if w == 0 || p == 0.0 {
                continue;
            }
            let (est, lst) = model.window(v);
            let lo = est.max((t + 1).saturating_sub(w));
            let hi = lst.min(t);
            if lo > hi {
                continue;
            }
            let y: f64 = (lo..=hi)
                .map(|l| x[model.s_col(v, l) as usize])
                .sum::<f64>()
                .min(1.0);
            cand.push((y, v, p));
        }
        // Greedy cover: largest fractional coverage first, until the
        // selected working powers overflow the budget.
        #[expect(
            clippy::expect_used,
            reason = "coverage ratios are finite by construction (denominators are positive work powers)."
        )]
        cand.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));
        let mut power = idle;
        let mut cover: Vec<(NodeId, f64)> = Vec::new();
        let mut y_sum = 0.0f64;
        for &(y, v, p) in &cand {
            power += p;
            y_sum += y;
            cover.push((v, y));
            if power > g {
                break;
            }
        }
        if power <= g || cover.is_empty() {
            continue; // no cover exists (bu can stay 0 regardless)
        }
        let excess = power - g;
        let slack = y_sum - (cover.len() as f64 - 1.0);
        let violation = excess * slack - x[bu as usize];
        if violation <= CUT_TOL {
            continue;
        }
        let mut key: Vec<NodeId> = cover.iter().map(|&(v, _)| v).collect();
        key.sort_unstable();
        if !seen.insert((t, key)) {
            continue;
        }
        // bu_t − E·Σ_C y_vt ≥ E·(1 − |C|).
        let mut terms: Vec<(u32, f64)> = vec![(bu, 1.0)];
        for &(v, _) in &cover {
            let w = inst.exec(v);
            let (est, lst) = model.window(v);
            let lo = est.max((t + 1).saturating_sub(w));
            let hi = lst.min(t);
            for l in lo..=hi {
                terms.push((model.s_col(v, l), -excess));
            }
        }
        out.push(Cut {
            violation,
            terms,
            rhs: excess * (1.0 - cover.len() as f64),
            family: CutFamily::Cover,
        });
    }
}

/// Separates MIR cuts over the materialised power rows at `x`, one
/// divisor (the most violated) per row and round. Cut coefficients
/// depend only on `(t, δ)`, so that pair is the dedup key.
fn separate_mir(
    model: &SparseA4Model,
    inst: &Instance,
    profile: &PowerProfile,
    x: &[f64],
    seen: &mut HashSet<(Time, u64)>,
    out: &mut Vec<Cut>,
) {
    let idle = inst.total_idle_power() as f64;
    let n = model.node_count() as NodeId;
    for &(t, bu) in model.power_rows() {
        let b = profile.budget_at(t) as f64 - idle;
        if b <= 0.0 {
            continue; // bu's lower bound already carries the row
        }
        // Tasks that can cover t: coverage ŷ, power, and the covering
        // start range.
        let mut cand: Vec<(f64, u64, Time, Time, NodeId)> = Vec::new();
        for v in 0..n {
            let w = inst.exec(v);
            let p = inst.work_power(v);
            if w == 0 || p == 0 {
                continue;
            }
            let (est, lst) = model.window(v);
            let lo = est.max((t + 1).saturating_sub(w));
            let hi = lst.min(t);
            if lo > hi {
                continue;
            }
            let y: f64 = (lo..=hi).map(|l| x[model.s_col(v, l) as usize]).sum();
            cand.push((y, p, lo, hi, v));
        }
        if cand.is_empty() {
            continue;
        }
        let mut deltas: Vec<u64> = cand.iter().map(|&(_, p, ..)| p).collect();
        deltas.sort_unstable();
        deltas.dedup();
        let mut best: Option<(f64, u64)> = None;
        for &delta_u in &deltas {
            let delta = delta_u as f64;
            let q = b / delta;
            let fl = q.floor();
            let f = q - fl;
            if !(1e-9..=1.0 - 1e-9).contains(&f) {
                continue; // divisible budget: MIR degenerates to the row
            }
            let scale = delta * (1.0 - f);
            let lhs: f64 = cand
                .iter()
                .map(|&(y, p, ..)| {
                    let pq = p as f64 / delta;
                    let pfl = pq.floor();
                    (pfl + ((pq - pfl) - f).max(0.0) / (1.0 - f)) * y
                })
                .sum();
            let viol = scale * (lhs - fl) - x[bu as usize];
            if viol > CUT_TOL && best.is_none_or(|(bv, _)| viol > bv) {
                best = Some((viol, delta_u));
            }
        }
        let Some((violation, delta_u)) = best else {
            continue;
        };
        if !seen.insert((t, delta_u)) {
            continue;
        }
        let delta = delta_u as f64;
        let q = b / delta;
        let fl = q.floor();
        let f = q - fl;
        let scale = delta * (1.0 - f);
        // bu_t − δ(1−f)·Σ_v c_v·y_vt ≥ −δ(1−f)·⌊b/δ⌋.
        let mut terms: Vec<(u32, f64)> = vec![(bu, 1.0)];
        for &(_, p, lo, hi, v) in &cand {
            let pq = p as f64 / delta;
            let pfl = pq.floor();
            let c = pfl + ((pq - pfl) - f).max(0.0) / (1.0 - f);
            if c <= 0.0 {
                continue;
            }
            for l in lo..=hi {
                terms.push((model.s_col(v, l), -scale * c));
            }
        }
        out.push(Cut {
            violation,
            terms,
            rhs: -scale * fl,
            family: CutFamily::Mir,
        });
    }
}

/// Runs the root cutting-plane loop: separate → append → dual-repair
/// re-solve, until no violated cuts remain, the objective stops moving,
/// the round cap is hit, or the deadline passes.
///
/// `root` must be the Optimal solution of the *current* `model.lp`;
/// returns the Optimal solution of the (possibly augmented) model —
/// on a budget-capped re-solve the previous Optimal solution is
/// returned, whose objective is still a valid relaxation bound of the
/// augmented (hence also the original) integer model.
pub fn root_cut_loop(
    model: &mut SparseA4Model,
    inst: &Instance,
    profile: &PowerProfile,
    simplex: &mut SimplexSolver,
    mut root: LpSolution,
    deadline: Option<Instant>,
) -> (LpSolution, CutStats) {
    let mut stats = CutStats::default();
    let mut seen_prec: HashSet<(NodeId, NodeId, Time)> = HashSet::new();
    let mut seen_cover: HashSet<(Time, Vec<NodeId>)> = HashSet::new();
    let mut seen_mir: HashSet<(Time, u64)> = HashSet::new();
    let mut stalled = 0u32;
    // The root bound is the solver's global dual bound until branching
    // proves more; sampling it per cut round yields the bound-vs-time
    // convergence series (the `obs` bench section, `--obs-out`).
    cawo_obs::sample("milp", "dual_bound", root.objective);
    for _ in 0..MAX_ROUNDS {
        let mut cuts: Vec<Cut> = Vec::new();
        separate_precedence(model, inst, &root.x, &mut seen_prec, &mut cuts);
        separate_covers(model, inst, profile, &root.x, &mut seen_cover, &mut cuts);
        separate_mir(model, inst, profile, &root.x, &mut seen_mir, &mut cuts);
        if cuts.is_empty() {
            break;
        }
        #[expect(
            clippy::expect_used,
            reason = "violations are finite: each is a difference of finite LP activities."
        )]
        cuts.sort_by(|a, b| b.violation.partial_cmp(&a.violation).expect("finite"));
        cuts.truncate(MAX_CUTS_PER_ROUND);

        // Append the rows and re-enter from the old basis extended by
        // the new (basic) slacks: structurally valid, dual feasible,
        // primal infeasible exactly on the violated cuts — the dual
        // loop's home turf.
        let mut basis = root.basis.clone();
        for cut in &cuts {
            model.lp.add_row(cut.terms.clone(), RowCmp::Ge, cut.rhs);
            basis.statuses.push(VStat::Basic);
            stats.cuts += 1;
            let (fam_stat, fam_ctr) = match cut.family {
                CutFamily::Precedence => (&mut stats.prec_cuts, cawo_obs::Ctr::CutsPrecedence),
                CutFamily::Cover => (&mut stats.cover_cuts, cawo_obs::Ctr::CutsCover),
                CutFamily::Mir => (&mut stats.mir_cuts, cawo_obs::Ctr::CutsMir),
            };
            *fam_stat += 1;
            cawo_obs::inc(fam_ctr);
        }
        stats.rounds += 1;
        cawo_obs::inc(cawo_obs::Ctr::CutRounds);
        *simplex = SimplexSolver::new(&model.lp);
        simplex.set_basis(&basis);

        let Some(opts) = simplex_options(deadline) else {
            return (root, stats);
        };
        let sol = simplex.solve(&opts);
        stats.resolve_iters += sol.iterations;
        stats.resolve_dual_iters += sol.stats.dual_iters;
        if sol.status != LpStatus::Optimal {
            // Budget ran out mid-repair (or numerics gave up): keep the
            // last proven root. Its objective bounds the original model
            // from below either way.
            return (root, stats);
        }
        let gain = sol.objective - root.objective;
        root = sol;
        cawo_obs::sample("milp", "dual_bound", root.objective);
        if gain < MIN_GAIN {
            stalled += 1;
            if stalled >= MAX_STALLED_ROUNDS {
                break;
            }
        } else {
            stalled = 0;
        }
    }
    (root, stats)
}
