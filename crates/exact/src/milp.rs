//! The MILP solver for the Appendix A.4 model (registry name `milp`,
//! [`crate::SolverKind::Milp`]).
//!
//! A branch-and-bound on the compact windowed model of
//! [`crate::sparse_model::SparseA4Model`], solved by `cawo_lp`'s
//! revised simplex. Nodes *warm-start* from the incumbent basis
//! (branching only changes column bounds, never the matrix), and
//! branching is an E-schedule-flavoured *window split*: pick the task
//! whose fractional start mass is most dispersed, split its window at
//! the fractional mean. This is what lifts `--solver milp` to the
//! paper's 200-task Fig. 7 regime.
//!
//! The literal dense model and a dense branch-and-bound over it live in
//! the crate's test support as the differential-testing oracle
//! (`tests/support`, exercised by `milp_cross`, `cuts` and
//! `lp_parity`). Degenerate models do not panic: an unbounded
//! relaxation surfaces as a [`crate::solver::SolveError`] so an
//! experiment-grid run records a status instead of crashing.

use cawo_core::Instance;
use cawo_lp::{LpStatus, SimplexOptions};
use cawo_platform::{PowerProfile, Time};

use crate::cuts::root_cut_loop;
use crate::solver::{Budget, SolveError, SolveResult, SolveStatus, WarmStart};
use crate::sparse_model::{
    ceil_bound, engine_cost, simplex_options, solve_root, Root, RootOutcome, SparseA4Model,
};

/// Column cap of the `milp` entry (memory guard).
const MAX_COLS: usize = 2_000_000;
/// Integrality tolerance on the `s` columns.
const INT_TOL: f64 = 1e-6;

/// One pending DFS operation of the sparse branch-and-bound.
enum Op {
    /// Restrict task `v`'s window to `[lo, hi]` (zeroing the start
    /// columns of the inclusive `forbid` range), solve, and possibly
    /// push children.
    Enter {
        v: u32,
        lo: Time,
        hi: Time,
        forbid: (Time, Time),
    },
    /// Undo the restriction on the way back up (restoring the same
    /// range to the model's stored column bounds).
    Leave {
        v: u32,
        lo: Time,
        hi: Time,
        forbid: (Time, Time),
    },
}

/// LP-guided rounding: start every task on the column carrying its
/// largest LP mass, then legalise forward along a topological order
/// (predecessor finish times push starts right; the backward-pass LST
/// windows guarantee the deadline stays reachable). One `O(cols)` pass
/// per call, so it runs at every node. This is what closes
/// loose-deadline instances: the aggregated relaxation's bound is often
/// exactly achievable, but only a rounding step away from the
/// fractional vertex the simplex parks on.
fn round_schedule(
    model: &SparseA4Model,
    inst: &Instance,
    deadline: Time,
    x: &[f64],
) -> Option<cawo_core::Schedule> {
    let order = inst.dag().topological_order()?;
    let n = model.node_count();
    let mut starts = vec![0 as Time; n];
    for &v in &order {
        let (est, lst) = model.window(v);
        let mut best_t = est;
        let mut best_m = f64::NEG_INFINITY;
        for t in est..=lst {
            let m = x[model.s_col(v, t) as usize];
            if m > best_m {
                best_m = m;
                best_t = t;
            }
        }
        // Predecessors run first; their pushes can only move the start
        // up to LST (s_u ≤ lst_u implies s_u + ω(u) ≤ lst_v).
        let floor = inst
            .dag()
            .predecessors(v)
            .iter()
            .map(|&u| starts[u as usize] + inst.exec(u))
            .max()
            .unwrap_or(0);
        starts[v as usize] = best_t.max(floor).clamp(est, lst);
    }
    let sched = cawo_core::Schedule::new(starts);
    sched.validate(inst, deadline).ok()?;
    Some(sched)
}

/// Picks the branching task and split point from a fractional
/// relaxation solution: the task whose start mass is most dispersed,
/// split at its fractional mean (clamped so both children exclude
/// support). Returns `None` when every task is integral.
fn select_branch(
    model: &SparseA4Model,
    windows: &[(Time, Time)],
    x: &[f64],
) -> Option<(u32, Time, f64)> {
    let mut best: Option<(u32, Time, f64, f64)> = None; // (v, t*, mass_left, spread)
    for v in 0..model.node_count() as u32 {
        let (lo, hi) = windows[v as usize];
        if lo == hi {
            continue;
        }
        let mut mean = 0.0f64;
        let mut supp_lo = Time::MAX;
        let mut supp_hi = 0;
        for t in lo..=hi {
            let xv = x[model.s_col(v, t) as usize];
            if xv > INT_TOL {
                mean += xv * t as f64;
                supp_lo = supp_lo.min(t);
                supp_hi = supp_hi.max(t);
            }
        }
        if supp_lo >= supp_hi {
            continue; // integral (all mass on one start)
        }
        let mut spread = 0.0f64;
        let mut mass_left = 0.0f64;
        let split = (mean.floor() as Time).clamp(supp_lo, supp_hi - 1);
        for t in lo..=hi {
            let xv = x[model.s_col(v, t) as usize];
            if xv > INT_TOL {
                spread += xv * (t as f64 - mean).abs();
                if t <= split {
                    mass_left += xv;
                }
            }
        }
        if best.as_ref().is_none_or(|&(_, _, _, s)| spread > s) {
            best = Some((v, split, mass_left, spread));
        }
    }
    best.map(|(v, split, mass_left, _)| (v, split, mass_left))
}

/// The registry's `milp` entry: the compact [`SparseA4Model`] solved by
/// branch-and-bound over `cawo_lp`'s revised simplex with warm-started
/// nodes and window-split branching.
///
/// The search starts from the root relaxation the `lp` entry also
/// answers from ([`solve_root`]), seeded with the strongest heuristic
/// incumbent (or the warm one, when it is better), so even a truncated
/// run returns an integer-feasible schedule; a completed root
/// relaxation attaches a proven lower bound and certifies optimality
/// outright whenever the incumbent meets it.
pub(crate) fn solve(
    inst: &Instance,
    profile: &PowerProfile,
    budget: Budget,
    warm: &WarmStart,
) -> Result<SolveResult, SolveError> {
    let root = solve_root(inst, profile, budget, warm, MAX_COLS)?;
    let mut nodes: u64 = 1;
    cawo_obs::inc(cawo_obs::Ctr::MilpNodes); // the root node
    let Root {
        mut model,
        mut simplex,
        sol: root,
        schedule: mut best_sched,
        cost: mut best_cost,
        deadline,
        mut stats,
    } = match root {
        RootOutcome::Solved(root) => *root,
        RootOutcome::TimedOut(res) => return Ok(SolveResult { nodes, ..res }),
    };
    // Harvest the warm-start token before cut rows change the
    // model's row count: a future solve builds a pristine model, so
    // only the pre-cut basis has matching dimensions.
    let root_basis = root.basis.clone();
    // Root cut pass: disaggregated precedence + cover cuts lift the
    // often-zero aggregated bound before any branching happens. The
    // rows stay in the model for the whole search (valid for every
    // integer point), so node relaxations prune against the
    // strengthened polytope too.
    let (root, cut_stats) = root_cut_loop(&mut model, inst, profile, &mut simplex, root, deadline);
    stats.cut_rounds = cut_stats.rounds;
    stats.cuts = cut_stats.cuts;
    stats.cuts_prec = cut_stats.prec_cuts;
    stats.cuts_cover = cut_stats.cover_cuts;
    stats.cuts_mir = cut_stats.mir_cuts;
    stats.lp_iterations += cut_stats.resolve_iters;
    stats.dual_iterations += cut_stats.resolve_dual_iters;
    let root_bound = ceil_bound(root.objective);

    // DFS over window splits: branching only tightens column
    // bounds, so one persistent simplex re-solves every node from
    // the previous basis (phase 1 repairs the handful of
    // infeasibilities a branch introduces).
    let mut windows: Vec<(Time, Time)> = (0..model.node_count() as u32)
        .map(|v| model.window(v))
        .collect();
    let mut exhausted = true;
    let mut stack: Vec<Op> = Vec::new();
    let mut pending = Some(root); // solution of the node just solved

    loop {
        // Process the freshly solved node (root or Enter result).
        if let Some(sol) = pending.take() {
            let prune = match sol.status {
                LpStatus::Infeasible => true,
                LpStatus::Optimal => ceil_bound(sol.objective) >= best_cost,
                LpStatus::IterLimit | LpStatus::TimeLimit | LpStatus::Unbounded => {
                    exhausted = false;
                    true
                }
            };
            if prune {
                cawo_obs::inc(cawo_obs::Ctr::MilpPruned);
            }
            if !prune {
                // Round the node's fractional solution into an
                // incumbent candidate before branching: an LP-mass
                // rounding that hits the node bound collapses the
                // subtree (and often the whole search) instantly.
                if let Some(sched) = round_schedule(&model, inst, profile.deadline(), &sol.x) {
                    let cost = engine_cost(inst, profile, &sched);
                    if cost < best_cost {
                        best_cost = cost;
                        best_sched = sched;
                        cawo_obs::inc(cawo_obs::Ctr::MilpIncumbents);
                        cawo_obs::sample("milp", "incumbent", best_cost as f64);
                    }
                }
                // A rounded incumbent that meets this node's own
                // bound settles the subtree without branching.
                let settled =
                    sol.status == LpStatus::Optimal && ceil_bound(sol.objective) >= best_cost;
                if settled {
                    // nothing to do: the matching Leave (if any) is
                    // already on the stack.
                } else {
                    match select_branch(&model, &windows, &sol.x) {
                        None => {
                            // Integral (within tolerance): harvest the
                            // rounded schedule.
                            if let Some(sched) = model.extract_schedule(&sol.x) {
                                debug_assert!(sched.validate(inst, profile.deadline()).is_ok());
                                let cost = engine_cost(inst, profile, &sched);
                                if cost < best_cost {
                                    best_cost = cost;
                                    best_sched = sched;
                                    cawo_obs::inc(cawo_obs::Ctr::MilpIncumbents);
                                    cawo_obs::sample("milp", "incumbent", best_cost as f64);
                                }
                                // Rounding sub-tolerance dust must not
                                // have moved the objective: if the true
                                // cost exceeds the node's LP bound the
                                // subtree is not actually settled, so
                                // the optimality claim is dropped (the
                                // incumbent itself stays valid).
                                if sol.status == LpStatus::Optimal
                                    && cost > ceil_bound(sol.objective)
                                {
                                    exhausted = false;
                                }
                            } else {
                                // No column cleared 0.5 for some task —
                                // not a usable integer point; the node
                                // is abandoned without a claim.
                                exhausted = false;
                            }
                        }
                        Some((v, split, mass_left)) => {
                            let (lo, hi) = windows[v as usize];
                            // Left child keeps [lo, split], right keeps
                            // [split+1, hi]; explore the heavier side
                            // first (stack order is reversed).
                            let left = (
                                Op::Enter {
                                    v,
                                    lo,
                                    hi: split,
                                    forbid: (split + 1, hi),
                                },
                                Op::Leave {
                                    v,
                                    lo,
                                    hi,
                                    forbid: (split + 1, hi),
                                },
                            );
                            let right = (
                                Op::Enter {
                                    v,
                                    lo: split + 1,
                                    hi,
                                    forbid: (lo, split),
                                },
                                Op::Leave {
                                    v,
                                    lo,
                                    hi,
                                    forbid: (lo, split),
                                },
                            );
                            if mass_left >= 0.5 {
                                stack.push(right.1);
                                stack.push(right.0);
                                stack.push(left.1);
                                stack.push(left.0);
                            } else {
                                stack.push(left.1);
                                stack.push(left.0);
                                stack.push(right.1);
                                stack.push(right.0);
                            }
                        }
                    }
                }
            }
        }
        let Some(op) = stack.pop() else { break };
        match op {
            Op::Leave { v, lo, hi, forbid } => {
                windows[v as usize] = (lo, hi);
                for t in forbid.0..=forbid.1 {
                    let c = model.s_col(v, t) as usize;
                    // Restore the model's stored bounds, not a
                    // hard-coded [0, 1].
                    let (blo, bhi) = model.lp.bounds(c);
                    simplex.set_col_bounds(c, blo, bhi);
                }
            }
            Op::Enter { v, lo, hi, forbid } => {
                nodes += 1;
                cawo_obs::inc(cawo_obs::Ctr::MilpNodes);
                if nodes > budget.node_limit {
                    exhausted = false;
                    // The matching Leave is on the stack; fall
                    // through without solving.
                    windows[v as usize] = (lo, hi);
                    for t in forbid.0..=forbid.1 {
                        simplex.set_col_bounds(model.s_col(v, t) as usize, 0.0, 0.0);
                    }
                    continue;
                }
                windows[v as usize] = (lo, hi);
                for t in forbid.0..=forbid.1 {
                    simplex.set_col_bounds(model.s_col(v, t) as usize, 0.0, 0.0);
                }
                match simplex_options(deadline) {
                    None => exhausted = false,
                    Some(opts) => {
                        // Cap per-node pivots so one stalled
                        // re-solve cannot consume the whole search
                        // budget; a capped node is pruned honestly
                        // (`exhausted` drops the optimality claim).
                        let opts = SimplexOptions {
                            max_iters: 50_000,
                            ..opts
                        };
                        let sol = simplex.solve(&opts);
                        stats.lp_iterations += sol.iterations;
                        stats.dual_iterations += sol.stats.dual_iters;
                        pending = Some(sol);
                    }
                }
            }
        }
    }

    let (status, lower_bound) = if exhausted {
        (SolveStatus::Optimal, Some(best_cost))
    } else {
        (SolveStatus::Feasible, Some(root_bound))
    };
    Ok(SolveResult {
        schedule: best_sched,
        cost: best_cost,
        status,
        nodes,
        lower_bound,
        stats,
        basis: Some(root_basis),
    })
}
