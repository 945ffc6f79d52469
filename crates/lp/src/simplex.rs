//! The bounded-variable revised primal simplex.
//!
//! Works on the standardised problem `min cᵀx, Ax + s = b,
//! lo ≤ (x, s) ≤ hi` where every row gets one slack whose bounds encode
//! the row sense (`≤` → `s ∈ [0, ∞)`, `≥` → `s ∈ (−∞, 0]`, `=` →
//! `s ∈ [0, 0]`). The solver state is the classic revised triple —
//! basis, variable statuses, basic values — with all linear algebra
//! going through the sparse [`LuFactors`] + [`EtaFile`] kernels.
//!
//! * **Phase 1** is the composite (artificial-free) variant: basic
//!   variables may sit outside their bounds, the cost vector is the
//!   signed indicator of those violations, and the ratio test lets an
//!   infeasible basic *block at the bound it violates* — each pivot
//!   strictly reduces infeasibility or is degenerate. No artificial
//!   columns, so warm starts from any basis repair themselves.
//! * **Phase 2** is textbook bounded-variable simplex with bound flips.
//! * **Phase-2 pricing** is Devex: reference-framework weights over an
//!   incrementally maintained reduced-cost vector, scanned in cyclic
//!   partial blocks — the weights steer the solver through the massive
//!   degeneracy of the windowed scheduling models. Phase 1 prices
//!   through fresh dual prices (a sparse dot product per scanned
//!   column) in the same cyclic blocks. Expensive sweeps are split
//!   across the current `cawo_par` pool behind a deterministic
//!   work-based gate with order-preserving reductions, so results are
//!   bit-identical at any thread count. Degeneracy stalls flip the
//!   solver into Bland's rule (strictly sequential) until progress
//!   resumes.
//! * **Dual simplex**: when a warm-start basis is primal-infeasible
//!   but (near-)dual-feasible — exactly the shape of a
//!   branch-and-bound child after a bound change — the solver first
//!   runs a bounded-variable *dual* repair loop
//!   ([`SimplexOptions::dual_warm`]) that re-solves in a handful of
//!   pivots. The dual loop is purely an accelerator: every terminal
//!   verdict is still issued by the primal phases from a fresh
//!   factorisation, so a numerically confused dual pass can never
//!   fabricate an answer.
//! * **Warm starts**: [`SimplexSolver`] keeps its basis between solves;
//!   bound changes ([`SimplexSolver::set_col_bounds`]) re-enter through
//!   the dual loop or phase 1, which typically needs a handful of
//!   pivots — this is what makes branch-and-bound nodes cheap.

use std::time::Instant;

use rayon::prelude::*;

use crate::csc::CscMatrix;
use crate::lu::{EtaFile, FtranScratch, LuFactors};
use crate::model::{RowCmp, SparseLp};

/// Status of one column (structural or slack) in the simplex state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VStat {
    /// In the basis.
    Basic,
    /// Nonbasic at its (finite) lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
    /// Nonbasic free variable, pinned at zero.
    Free,
}

/// A saved basis: the status of every structural and slack column.
/// Returned by every solve and accepted back by
/// [`SimplexSolver::set_basis`] (warm start).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Per-column statuses, structurals first, then one slack per row.
    pub statuses: Vec<VStat>,
}

/// Solver verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Proven optimal.
    Optimal,
    /// No point satisfies rows and bounds.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// Iteration limit hit before convergence.
    IterLimit,
    /// Wall-clock limit hit before convergence.
    TimeLimit,
}

/// Counters describing how a solve spent its effort — wired through
/// `SolveResult` so benches can report *why* a solve got faster.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LpStats {
    /// Primal phase-1 (feasibility) pivots.
    pub phase1_iters: u64,
    /// Primal phase-2 (optimality) pivots.
    pub phase2_iters: u64,
    /// Dual-simplex pivots (warm-start repair loop).
    pub dual_iters: u64,
    /// Primal bound flips (the entering column crosses its own range).
    pub bound_flips: u64,
    /// Basis refactorisations.
    pub refactors: u64,
    /// Devex reference-framework resets (weights grew past the cap).
    pub devex_resets: u64,
    /// Column count from which fresh-dual pricing blocks are split
    /// across the pool (the deterministic per-column-work gate).
    pub par_gate_cols: usize,
}

/// Maintained Devex pricing state: exact-or-updated reduced costs and
/// reference-framework weights. Built lazily on entering phase 2 and
/// dropped on any event that invalidates the maintained quantities
/// (phase switch, Bland fallback, basis refresh).
#[derive(Debug, Clone)]
struct Devex {
    /// Maintained reduced costs of all columns (basic slots are stale
    /// and never read).
    d: Vec<f64>,
    /// Reference-framework weights γ_j ≥ 1 approximating the steepest
    /// edge norms relative to the framework.
    gamma: Vec<f64>,
    /// Largest weight seen since the last framework reset.
    max_gamma: f64,
    /// True while `d` is freshly rebuilt (no incremental updates yet);
    /// only then may an empty pricing scan certify optimality.
    exact: bool,
}

/// Outcome of one solve.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Verdict; `objective`/`x` are meaningful for
    /// [`LpStatus::Optimal`] and best-effort otherwise.
    pub status: LpStatus,
    /// Objective value of `x`.
    pub objective: f64,
    /// Structural variable values.
    pub x: Vec<f64>,
    /// Simplex iterations spent (all phases, dual included).
    pub iterations: u64,
    /// Final basis (warm-start token for the next solve).
    pub basis: Basis,
    /// Iteration/pivot-rule counters.
    pub stats: LpStats,
    /// A valid lower bound on the optimum: the objective itself when
    /// [`LpStatus::Optimal`], otherwise the Lagrangian bound `L(y)` of
    /// the final dual prices when it is finite — budget-capped runs
    /// report this instead of their (meaningless) primal objective.
    pub dual_bound: Option<f64>,
}

/// Knobs of the simplex driver.
#[derive(Debug, Clone, Copy)]
pub struct SimplexOptions {
    /// Hard iteration cap across all phases.
    pub max_iters: u64,
    /// Optional wall-clock cap (polled every few iterations).
    pub time_limit: Option<std::time::Duration>,
    /// Run the dual-simplex repair loop before the primal phases when
    /// the warm-start basis is primal-infeasible but dual-feasible
    /// (the branch-and-bound child-node shape). Never changes the
    /// answer — only the route to it.
    pub dual_warm: bool,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iters: 2_000_000,
            time_limit: None,
            dual_warm: true,
        }
    }
}

/// Primal feasibility tolerance.
const FEAS_TOL: f64 = 1e-7;
/// Reduced-cost (dual) tolerance.
const DUAL_TOL: f64 = 1e-7;
/// Columns scanned per partial-pricing round.
const PRICING_BLOCK: usize = 16384;
/// Refactorise after this many product-form updates.
const REFACTOR_INTERVAL: usize = 50;
/// Consecutive degenerate steps before switching to Bland's rule.
const STALL_LIMIT: u64 = 300;
/// Pivot magnitude floor in the ratio test — screens FTRAN
/// cancellation noise only; genuinely tiny pivots are handled by the
/// eta-rejection / undo path after the pivot is attempted.
const PIVOT_TOL: f64 = 1e-11;
/// Iterations for which a column stays banned after a failed pivot.
const BAN_SPAN: u64 = 1000;
/// Minimum estimated *work* (scanned columns × average column
/// nonzeros) before a pricing sweep is split across the pool. The old
/// gate was a raw ≥ 4096-column threshold, which parallelised scans
/// whose per-column cost (a 2–6-entry dot product) was far too cheap
/// to amortise the spawn round-trip — the 100-task bench was *slower*
/// at 4 threads than at 1. Expressing the gate in nonzeros makes it
/// deterministic (no timing feedback, so bit-identity across thread
/// counts holds) while tracking the real per-block cost.
const PAR_MIN_WORK: usize = 1 << 18;
/// Devex weights above this trigger a reference-framework reset.
const DEVEX_RESET: f64 = 1e12;
/// Pivot-magnitude floor of the dual ratio test.
const DUAL_PIVOT_TOL: f64 = 1e-9;

/// A persistent simplex instance over one [`SparseLp`]'s matrix.
///
/// The matrix is standardised once; bounds may change between solves
/// ([`SimplexSolver::set_col_bounds`]) and each [`SimplexSolver::solve`]
/// warm-starts from the current basis — branch-and-bound drives this
/// directly.
#[derive(Debug, Clone)]
pub struct SimplexSolver {
    n: usize,
    m: usize,
    /// Structural columns, row-scaled.
    csc: CscMatrix,
    rhs: Vec<f64>,
    /// Objective over all `n + m` columns (slacks cost 0).
    obj: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Static per-row nonzero counts (Markowitz tie-break).
    row_counts: Vec<u32>,
    /// Fresh-dual block pricing goes parallel from this many scanned
    /// columns (PAR_MIN_WORK over the model's average column nonzero
    /// count).
    par_min_cols: usize,
    // --- mutable simplex state ---
    vstat: Vec<VStat>,
    basis: Vec<u32>,
    xb: Vec<f64>,
    lu: Option<LuFactors>,
    etas: EtaFile,
    /// Hypersparse-FTRAN workspace, reused across iterations.
    scratch: FtranScratch,
    /// Best Lagrangian bound observed during the current `solve` call.
    /// Sampled periodically because the final basis of a budget-capped
    /// run often has a wrong-sign reduced cost on an infinite bound
    /// (certifying nothing), while an earlier basis certified plenty.
    best_dual_bound: Option<f64>,
}

impl SimplexSolver {
    /// Standardises `lp` (row scaling, slack columns) and initialises
    /// the all-slack basis.
    pub fn new(lp: &SparseLp) -> Self {
        let n = lp.num_cols();
        let m = lp.num_rows();
        // Row scales: the nearest power of two below the largest
        // coefficient magnitude, so scaling divisions are exact.
        let mut scale = vec![1.0f64; m];
        for (i, row) in lp.rows.iter().enumerate() {
            let amax = row
                .terms
                .iter()
                .map(|&(_, a)| a.abs())
                .fold(0.0f64, f64::max);
            if amax > 0.0 {
                scale[i] = f64::exp2(amax.log2().floor());
            }
        }
        // Column-major structural matrix via counting sort: two flat
        // passes over the rows, no per-column scratch vectors. Rows are
        // visited in ascending order, so every column span comes out
        // row-sorted — exactly what `from_col_major` requires. At the
        // 1000-task scale (2M columns) this is seconds cheaper than
        // 2M `push_col` calls.
        let mut col_ptr = vec![0usize; n + 1];
        for row in &lp.rows {
            for &(j, _) in &row.terms {
                col_ptr[j as usize + 1] += 1;
            }
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let nnz = col_ptr[n];
        let mut cursor = col_ptr.clone();
        let mut row_idx = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut rhs = vec![0.0f64; m];
        for (i, row) in lp.rows.iter().enumerate() {
            rhs[i] = row.rhs / scale[i];
            for &(j, a) in &row.terms {
                let p = cursor[j as usize];
                row_idx[p] = i as u32;
                values[p] = a / scale[i];
                cursor[j as usize] = p + 1;
            }
        }
        let csc = CscMatrix::from_col_major(m, col_ptr, row_idx, values);
        let mut obj = lp.obj.clone();
        obj.resize(n + m, 0.0);
        let mut lo = lp.lo.clone();
        let mut hi = lp.hi.clone();
        for row in &lp.rows {
            // `a·x + s = rhs` ⇒ `s = rhs − a·x`; the slack's bounds
            // carry the row sense.
            let (l, h) = match row.cmp {
                RowCmp::Le => (0.0, f64::INFINITY),
                RowCmp::Ge => (f64::NEG_INFINITY, 0.0),
                RowCmp::Eq => (0.0, 0.0),
            };
            lo.push(l);
            hi.push(h);
        }
        let mut row_counts = csc.row_counts();
        for c in &mut row_counts {
            *c += 1; // the slack
        }
        let avg_col_nnz = ((csc.nnz() + m) / (n + m).max(1)).max(1);
        let mut solver = SimplexSolver {
            n,
            m,
            csc,
            rhs,
            obj,
            lo,
            hi,
            row_counts,
            par_min_cols: PAR_MIN_WORK / avg_col_nnz,
            vstat: Vec::new(),
            basis: Vec::new(),
            xb: Vec::new(),
            lu: None,
            etas: EtaFile::default(),
            scratch: FtranScratch::default(),
            best_dual_bound: None,
        };
        solver.reset_basis();
        solver
    }

    /// Column count from which fresh-dual pricing blocks are scanned
    /// in parallel — the deterministic work gate, derived from the
    /// model's average column density (recorded by the benches).
    pub fn par_gate_cols(&self) -> usize {
        self.par_min_cols
    }

    /// Number of structural columns.
    pub fn num_cols(&self) -> usize {
        self.n
    }

    /// Number of rows (= slack columns).
    pub fn num_rows(&self) -> usize {
        self.m
    }

    /// Resets to the all-slack basis with structurals at their nearest
    /// finite bound (cold start).
    pub fn reset_basis(&mut self) {
        let total = self.n + self.m;
        self.vstat = (0..total)
            .map(|j| {
                if j >= self.n {
                    VStat::Basic
                } else {
                    default_nonbasic(self.lo[j], self.hi[j])
                }
            })
            .collect();
        self.basis = (self.n as u32..total as u32).collect();
        self.lu = None;
        self.etas.clear();
    }

    /// Replaces the bounds of structural column `j`. The basis is kept;
    /// the next [`SimplexSolver::solve`] repairs any resulting
    /// infeasibility through phase 1 (this is the branch-and-bound
    /// warm-start path).
    pub fn set_col_bounds(&mut self, j: usize, lo: f64, hi: f64) {
        debug_assert!(j < self.n, "only structural bounds are mutable");
        debug_assert!(lo <= hi);
        self.lo[j] = lo;
        self.hi[j] = hi;
        if self.vstat[j] != VStat::Basic {
            // Keep the status meaningful for the new domain.
            self.vstat[j] = match self.vstat[j] {
                VStat::AtLower if lo.is_finite() => VStat::AtLower,
                VStat::AtUpper if hi.is_finite() => VStat::AtUpper,
                _ => default_nonbasic(lo, hi),
            };
        }
    }

    /// The current basis as a warm-start token.
    pub fn basis(&self) -> Basis {
        Basis {
            statuses: self.vstat.clone(),
        }
    }

    /// Installs a previously saved basis. Returns `false` (and resets
    /// to the cold-start basis) when the token does not fit the model
    /// or its basis matrix is singular.
    pub fn set_basis(&mut self, basis: &Basis) -> bool {
        let total = self.n + self.m;
        if basis.statuses.len() != total {
            self.reset_basis();
            return false;
        }
        let cols: Vec<u32> = (0..total as u32)
            .filter(|&j| basis.statuses[j as usize] == VStat::Basic)
            .collect();
        if cols.len() != self.m {
            self.reset_basis();
            return false;
        }
        self.vstat = basis.statuses.clone();
        for j in 0..total {
            if self.vstat[j] != VStat::Basic {
                // Statuses must agree with (possibly changed) bounds.
                self.vstat[j] = match self.vstat[j] {
                    VStat::AtLower if self.lo[j].is_finite() => VStat::AtLower,
                    VStat::AtUpper if self.hi[j].is_finite() => VStat::AtUpper,
                    _ => default_nonbasic(self.lo[j], self.hi[j]),
                };
            }
        }
        self.basis = cols;
        self.lu = None;
        self.etas.clear();
        if self.refactor().is_err() {
            self.reset_basis();
            return false;
        }
        true
    }

    /// Runs the simplex from the current state.
    pub fn solve(&mut self, opts: &SimplexOptions) -> LpSolution {
        #[expect(
            clippy::disallowed_methods,
            reason = "opt-in time budget: `time_limit` is documented as non-reproducible; the default (None) never reads the clock."
        )]
        // A limit too large for an `Instant` to represent is no deadline.
        let deadline = opts.time_limit.and_then(|d| Instant::now().checked_add(d));
        // Bounds (or rows) may have changed since the last call, which
        // would invalidate any bound tracked then.
        self.best_dual_bound = None;
        let mut iterations: u64 = 0;
        let mut stats = LpStats {
            par_gate_cols: self.par_min_cols,
            ..LpStats::default()
        };
        let mut degenerate_run: u64 = 0;
        let mut bland = false;
        let mut price_cursor = 0usize;
        // Columns temporarily excluded from pricing after a failed
        // (near-singular) pivot attempt: column -> iteration at which
        // the ban expires.
        let mut banned: Vec<u64> = vec![0; self.n + self.m];
        let mut ban_clears: u32 = 0;

        if self.lu.is_none() && self.refactor().is_err() {
            // A singular saved basis: restart cold (always factors).
            self.reset_basis();
            #[expect(
                clippy::expect_used,
                reason = "the all-slack basis is the identity matrix; its factorisation cannot fail."
            )]
            self.refactor().expect("slack basis is nonsingular");
        }
        self.compute_xb();
        // Whether the basic values are freshly recomputed from an
        // eta-free factorisation. Terminal verdicts (optimal,
        // infeasible, unbounded) are only ever issued from a fresh
        // state: product-form updates drift, and a drifted `x_B` can
        // fabricate phantom (in)feasibility.
        let mut fresh = true;

        // Reusable entering-column buffers.
        let mut w = vec![0.0f64; self.m];
        let mut pattern: Vec<u32> = Vec::new();

        // Dual-simplex repair first when the warm basis qualifies. It
        // never concludes anything — whatever state it leaves behind,
        // the primal phases below re-verify before any verdict.
        if opts.dual_warm {
            let before = (iterations, stats.bound_flips, stats.refactors);
            self.dual_loop(
                opts,
                deadline,
                &mut iterations,
                &mut stats,
                &mut w,
                &mut pattern,
            );
            if (iterations, stats.bound_flips, stats.refactors) != before {
                fresh = false;
            }
        }

        // Devex phase-2 state: maintained reduced costs + reference
        // weights. Built lazily at the first phase-2 pricing call and
        // dropped whenever the incremental invariants cannot be
        // maintained (phase flip, Bland mode, refresh).
        let mut devex: Option<Devex> = None;

        loop {
            if iterations >= opts.max_iters {
                return self.finish(LpStatus::IterLimit, iterations, stats);
            }
            if iterations.is_multiple_of(64) {
                if let Some(d) = deadline {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "enforcing the opt-in time budget."
                    )]
                    if Instant::now() >= d {
                        return self.finish(LpStatus::TimeLimit, iterations, stats);
                    }
                }
                // Sample the Lagrangian bound so a budget-capped run
                // reports the best certificate seen, not whatever the
                // final basis happens to certify. Valid in any phase:
                // `self.obj` always holds the real costs (phase 1
                // composites are computed inline in pricing).
                if iterations.is_multiple_of(512) && iterations > 0 {
                    if let Some(b) = self.lagrangian_bound() {
                        self.best_dual_bound =
                            Some(self.best_dual_bound.map_or(b, |prev| prev.max(b)));
                        cawo_obs::sample("lp", "dual_bound", self.best_dual_bound.unwrap_or(b));
                    }
                }
            }

            // Phase detection + effective cost of the basics.
            let mut infeasible = false;
            let mut cb = vec![0.0f64; self.m];
            for (p, &bj) in self.basis.iter().enumerate() {
                let (l, h) = (self.lo[bj as usize], self.hi[bj as usize]);
                let v = self.xb[p];
                if v < l - FEAS_TOL {
                    cb[p] = -1.0;
                    infeasible = true;
                } else if v > h + FEAS_TOL {
                    cb[p] = 1.0;
                    infeasible = true;
                }
            }
            let phase1 = infeasible;
            if !phase1 {
                for (p, &bj) in self.basis.iter().enumerate() {
                    cb[p] = self.obj[bj as usize];
                }
            }

            // Entering column. Phase 2 under Devex scores maintained reduced
            // costs (no BTRAN, no dot products); phase 1 and Bland
            // recovery price through fresh dual prices.
            let use_devex = !phase1 && !bland;
            if !use_devex {
                devex = None;
            }
            let entering = if use_devex {
                if devex.is_none() {
                    devex = Some(self.devex_build());
                }
                #[expect(
                    clippy::expect_used,
                    reason = "the None arm directly above populated the option."
                )]
                let dv = devex.as_mut().expect("just built");
                if dv.max_gamma > DEVEX_RESET {
                    // Reference-framework reset: the current nonbasic
                    // set becomes the new framework, all weights 1.
                    dv.gamma.iter_mut().for_each(|g| *g = 1.0);
                    dv.max_gamma = 1.0;
                    stats.devex_resets += 1;
                }
                self.devex_price(dv, &mut price_cursor, &banned, iterations)
            } else {
                // Dual prices (keep the basic costs: the entering
                // column's reduced cost is re-derived from them as an
                // accuracy cross-check below).
                let mut y = cb.clone();
                self.etas.btran(&mut y);
                if let Some(lu) = &self.lu {
                    lu.btran(&mut y);
                }
                // Cyclic partial blocks, largest violation inside a
                // block; Bland's rule (first eligible index) when
                // stalled.
                self.price(&y, phase1, &mut price_cursor, bland, &banned, iterations)
            };
            let Some((q, dq)) = entering else {
                if banned.iter().any(|&b| b > iterations) {
                    // Never conclude anything while columns are banned:
                    // lift the bans and re-price. If the same columns
                    // immediately fail their pivots again, give up with
                    // an honest no-proof verdict instead of certifying
                    // a fake optimum.
                    ban_clears += 1;
                    if ban_clears > 2 {
                        return self.finish(LpStatus::IterLimit, iterations, stats);
                    }
                    banned.iter_mut().for_each(|b| *b = 0);
                    continue;
                }
                if !fresh {
                    // Re-derive x_B exactly before concluding anything.
                    self.refresh();
                    stats.refactors += 1;
                    fresh = true;
                    devex = None;
                    continue;
                }
                if devex.as_ref().is_some_and(|dv| !dv.exact) {
                    // Optimality may only be certified from freshly
                    // recomputed reduced costs, never incrementally
                    // maintained (drifted) ones.
                    devex = None;
                    continue;
                }
                if phase1 {
                    return self.finish(LpStatus::Infeasible, iterations, stats);
                }
                return self.finish(LpStatus::Optimal, iterations, stats);
            };
            let sigma = if dq < 0.0 { 1.0 } else { -1.0 };

            // Transformed entering column (hypersparse FTRAN).
            self.transformed_col(q, &mut w, &mut pattern);

            // Accuracy cross-check: `d_q` was priced through the BTRAN
            // chain (or the maintained Devex vector); `c_q − c_B·w`
            // derives it through the FTRAN chain. The two must agree —
            // divergence means the eta file (or the maintained reduced
            // costs) drifted, and pivoting on a drifted `w` is how a
            // basis silently goes singular. Refactorise and retry.
            let cq = if phase1 { 0.0 } else { self.obj[q] };
            let dq_check = cq - cb.iter().zip(&w).map(|(c, v)| c * v).sum::<f64>();
            if (dq - dq_check).abs() > 1e-7 * (1.0 + dq.abs())
                && (!self.etas.is_empty() || devex.as_ref().is_some_and(|dv| !dv.exact))
            {
                // Counted as an iteration so the budget checks can trip
                // even if the recovery itself has to repeat.
                iterations += 1;
                self.refresh();
                stats.refactors += 1;
                fresh = true;
                devex = None;
                continue;
            }

            // Ratio test: exact minimum ratio; ties (within a tight
            // relative window) break towards the largest pivot
            // magnitude for numerical stability, or towards the lowest
            // basis index under Bland's rule. Nearly every nonzero
            // transformed entry may block (`PIVOT_TOL` only screens
            // FTRAN cancellation noise), so no basic is ever carried
            // through its bound by a long step.
            let own_range = self.hi[q] - self.lo[q]; // ∞ for free/one-sided
            let mut t_best = if own_range.is_finite() {
                own_range
            } else {
                f64::INFINITY
            };
            // Leaving position plus the bound status it blocks at.
            let mut leave: Option<(usize, VStat)> = None;
            for p in 0..self.m {
                let wp = w[p];
                if wp.abs() <= PIVOT_TOL {
                    continue;
                }
                let rate = -sigma * wp; // d(x_B[p]) / dt
                let bj = self.basis[p] as usize;
                let (l, h) = (self.lo[bj], self.hi[bj]);
                let v = self.xb[p];
                let (t, at) = if phase1 && v < l - FEAS_TOL {
                    // Below its lower bound: blocks where it becomes
                    // feasible (rate > 0), otherwise drifts further out
                    // (already priced into the phase-1 objective).
                    if rate > 0.0 {
                        ((l - v) / rate, VStat::AtLower)
                    } else {
                        continue;
                    }
                } else if phase1 && v > h + FEAS_TOL {
                    if rate < 0.0 {
                        ((h - v) / rate, VStat::AtUpper)
                    } else {
                        continue;
                    }
                } else if rate > 0.0 {
                    if h.is_finite() {
                        ((h - v) / rate, VStat::AtUpper)
                    } else {
                        continue;
                    }
                } else if l.is_finite() {
                    ((l - v) / rate, VStat::AtLower)
                } else {
                    continue;
                };
                let t = t.max(0.0);
                let window = 1e-10 * (1.0 + t_best.min(t));
                let better = match leave {
                    None => t < t_best,
                    Some((r, _)) => {
                        t < t_best - window
                            || (t <= t_best + window
                                && if bland {
                                    self.basis[p] < self.basis[r]
                                } else {
                                    wp.abs() > w[r].abs()
                                })
                    }
                };
                if better {
                    t_best = t;
                    leave = Some((p, at));
                }
            }

            iterations += 1;
            if phase1 {
                stats.phase1_iters += 1;
            } else {
                stats.phase2_iters += 1;
            }
            if t_best.is_infinite() {
                if !fresh {
                    // Never conclude from eta-drifted basic values.
                    self.refresh();
                    stats.refactors += 1;
                    fresh = true;
                    devex = None;
                    continue;
                }
                if phase1 {
                    // Numerically impossible from a fresh state (the
                    // phase-1 objective is bounded below); give up
                    // honestly.
                    return self.finish(LpStatus::Infeasible, iterations, stats);
                }
                return self.finish(LpStatus::Unbounded, iterations, stats);
            }

            if t_best > 1e-9 {
                degenerate_run = 0;
                bland = false;
            } else {
                degenerate_run += 1;
                if degenerate_run >= STALL_LIMIT {
                    bland = true;
                }
            }

            match leave {
                None => {
                    // Bound flip: the entering variable crosses its own
                    // range; the basis is unchanged, and so are all
                    // reduced costs — the Devex state stays valid.
                    let step = sigma * own_range;
                    for (xb, &wp) in self.xb.iter_mut().zip(&w) {
                        if wp != 0.0 {
                            *xb -= step * wp;
                        }
                    }
                    self.vstat[q] = if sigma > 0.0 {
                        VStat::AtUpper
                    } else {
                        VStat::AtLower
                    };
                    stats.bound_flips += 1;
                    fresh = false;
                }
                Some((r, at)) => {
                    let entering_status = self.vstat[q];
                    let entering_start = self.nonbasic_value(q);
                    let step = sigma * t_best;
                    // The leaving variable settles exactly on the bound
                    // that blocked it (for an infeasible phase-1 basic
                    // that is the bound it violated).
                    let bj = self.basis[r] as usize;
                    // Devex update inputs must come from the *old*
                    // basis: ρ = B⁻ᵀe_r before any factor update. The
                    // update itself is applied only if the pivot
                    // commits.
                    let devex_rho: Option<(Vec<f64>, f64)> = devex.as_ref().map(|dv| {
                        let mut rho = vec![0.0f64; self.m];
                        rho[r] = 1.0;
                        self.etas.btran(&mut rho);
                        if let Some(lu) = &self.lu {
                            lu.btran(&mut rho);
                        }
                        (rho, dv.gamma[q])
                    });
                    self.vstat[bj] = at;
                    self.basis[r] = q as u32;
                    self.vstat[q] = VStat::Basic;
                    if !self.etas.push(r, &w) || self.etas.len() >= REFACTOR_INTERVAL {
                        if self.refactor().is_ok() {
                            stats.refactors += 1;
                            self.compute_xb();
                            fresh = true;
                        } else {
                            // The update left the basis (near-)singular:
                            // undo the swap, refactorise the previous
                            // basis, and ban the offending column for a
                            // while so the same pivot is not retried
                            // immediately. The maintained Devex state
                            // still describes the (restored) basis.
                            self.basis[r] = bj as u32;
                            self.vstat[bj] = VStat::Basic;
                            self.vstat[q] = entering_status;
                            banned[q] = iterations + BAN_SPAN;
                            if self.refactor().is_err() {
                                // The previous basis factored before; if
                                // it will not now, restart cold as the
                                // last resort.
                                self.reset_basis();
                                #[expect(
                                    clippy::expect_used,
                                    reason = "the all-slack basis is the identity matrix; its factorisation cannot fail."
                                )]
                                self.refactor().expect("slack basis is nonsingular");
                            }
                            stats.refactors += 1;
                            self.compute_xb();
                            fresh = true;
                            continue;
                        }
                    } else {
                        for (xb, &wp) in self.xb.iter_mut().zip(&w) {
                            if wp != 0.0 {
                                *xb -= step * wp;
                            }
                        }
                        self.xb[r] = entering_start + step;
                        fresh = false;
                    }
                    // Pivot committed: fused α/d/γ sweep keeps the
                    // maintained reduced costs and Devex weights in
                    // step with the new basis.
                    if let (Some(dv), Some((rho, gamma_q))) = (devex.as_mut(), devex_rho) {
                        let alpha_q = w[r];
                        self.devex_update(dv, &rho, dq / alpha_q, alpha_q, gamma_q, q);
                        dv.exact = false;
                    }
                    ban_clears = 0;
                }
            }
        }
    }

    /// The bounded-variable dual-simplex repair loop.
    ///
    /// Entered when the current basis is primal-infeasible in a few
    /// places but dual-feasible — exactly the state a branch-and-bound
    /// child starts in after a branching bound change. Each pivot
    /// drives one primal violation to its bound while preserving dual
    /// feasibility, so warm re-solves finish in a handful of pivots
    /// instead of a composite phase-1 run.
    ///
    /// This loop never issues a verdict. On *any* exit — violations
    /// repaired, numerical doubt, stall, no eligible entering column
    /// (dual unboundedness = primal infeasibility) — it returns and
    /// the primal phases re-verify from a fresh state; a confused dual
    /// pass can therefore never fabricate an answer, only waste time.
    fn dual_loop(
        &mut self,
        opts: &SimplexOptions,
        deadline: Option<Instant>,
        iterations: &mut u64,
        stats: &mut LpStats,
        w: &mut Vec<f64>,
        pattern: &mut Vec<u32>,
    ) {
        let total = self.n + self.m;
        // Gate on the warm-start shape: the loop pays an O(nnz)
        // feasibility sweep up front and an O(nnz) α sweep per pivot,
        // which only beats phase 1 when few basics are out of bounds.
        // Cold starts and heavily infeasible bases skip straight to
        // the composite primal phase 1.
        let mut violations = 0usize;
        for (p, &bj) in self.basis.iter().enumerate() {
            let v = self.xb[p];
            if v < self.lo[bj as usize] - FEAS_TOL || v > self.hi[bj as usize] + FEAS_TOL {
                violations += 1;
            }
        }
        if violations == 0 || violations > self.m / 8 + 8 {
            return;
        }
        // Exact reduced costs of the warm basis; bail unless they are
        // dual-feasible (within a slack of the pricing tolerance —
        // pivots only ever see exact ratios, so the slack cannot
        // compound). Fixed columns are skipped throughout: their value
        // is forced, so any reduced-cost sign is KKT-compatible.
        let mut y = vec![0.0f64; self.m];
        for (p, &bj) in self.basis.iter().enumerate() {
            y[p] = self.obj[bj as usize];
        }
        self.etas.btran(&mut y);
        if let Some(lu) = &self.lu {
            lu.btran(&mut y);
        }
        let slack_tol = 10.0 * DUAL_TOL;
        let mut d = vec![0.0f64; total];
        for j in 0..total {
            if self.vstat[j] == VStat::Basic || self.lo[j] == self.hi[j] {
                continue;
            }
            let aty = if j < self.n {
                self.csc.col_dot(j, &y)
            } else {
                y[j - self.n]
            };
            let dj = self.obj[j] - aty;
            d[j] = dj;
            let ok = match self.vstat[j] {
                VStat::AtLower => dj >= -slack_tol,
                VStat::AtUpper => dj <= slack_tol,
                VStat::Free => dj.abs() <= slack_tol,
                #[expect(
                    clippy::unreachable,
                    reason = "callers iterate nonbasic columns only; a basic column here is a corrupt basis."
                )]
                VStat::Basic => unreachable!(),
            };
            if !ok {
                return;
            }
        }

        let mut alphas = vec![0.0f64; total];
        let mut stall: u64 = 0;
        loop {
            if *iterations >= opts.max_iters || stall >= STALL_LIMIT {
                return;
            }
            if iterations.is_multiple_of(64) {
                if let Some(dl) = deadline {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "enforcing the opt-in time budget."
                    )]
                    if Instant::now() >= dl {
                        return;
                    }
                }
            }
            // Leaving row: the worst primal bound violation; σ encodes
            // which bound (+1 above upper, −1 below lower).
            let mut leave: Option<(usize, f64)> = None;
            let mut worst = FEAS_TOL;
            for (p, &bj) in self.basis.iter().enumerate() {
                let (l, h) = (self.lo[bj as usize], self.hi[bj as usize]);
                let v = self.xb[p];
                if l - v > worst {
                    worst = l - v;
                    leave = Some((p, -1.0));
                }
                if v - h > worst {
                    worst = v - h;
                    leave = Some((p, 1.0));
                }
            }
            let Some((r, sigma)) = leave else {
                return; // primal-feasible: the repair is done
            };
            let bound_r = {
                let bj = self.basis[r] as usize;
                if sigma > 0.0 {
                    self.hi[bj]
                } else {
                    self.lo[bj]
                }
            };
            // ρ = B⁻ᵀe_r, then one α sweep over the nonbasics with the
            // dual ratio test folded in: the entering column is the
            // one whose reduced cost reaches zero first as the dual
            // prices move (min ratio d_j/â_j over â_j = σ·α_j with the
            // sign that keeps dual feasibility), ties towards the
            // largest |α| for numerical stability.
            let mut rho = vec![0.0f64; self.m];
            rho[r] = 1.0;
            self.etas.btran(&mut rho);
            if let Some(lu) = &self.lu {
                lu.btran(&mut rho);
            }
            let mut best: Option<(f64, usize)> = None;
            for j in 0..total {
                if self.vstat[j] == VStat::Basic || self.lo[j] == self.hi[j] {
                    continue;
                }
                let alpha = if j < self.n {
                    self.csc.col_dot(j, &rho)
                } else {
                    rho[j - self.n]
                };
                alphas[j] = alpha;
                if alpha.abs() <= DUAL_PIVOT_TOL {
                    continue;
                }
                let ahat = sigma * alpha;
                let eligible = match self.vstat[j] {
                    VStat::AtLower => ahat > 0.0,
                    VStat::AtUpper => ahat < 0.0,
                    VStat::Free => true,
                    #[expect(
                        clippy::unreachable,
                        reason = "callers iterate nonbasic columns only; a basic column here is a corrupt basis."
                    )]
                    VStat::Basic => unreachable!(),
                };
                if !eligible {
                    continue;
                }
                let ratio = (d[j] / ahat).max(0.0);
                let better = match best {
                    None => true,
                    Some((br, bj2)) => {
                        let window = 1e-10 * (1.0 + ratio.min(br));
                        ratio < br - window
                            || (ratio <= br + window && alpha.abs() > alphas[bj2].abs())
                    }
                };
                if better {
                    best = Some((ratio, j));
                }
            }
            let Some((_, q)) = best else {
                // No entering candidate: a dual-unbounded direction,
                // i.e. the LP is primal-infeasible — but that verdict
                // belongs to phase 1, which proves it from scratch.
                return;
            };
            // FTRAN the entering column. `w[r]` and `α_q` are the same
            // quantity through the two triangular chains — divergence
            // (or a tiny pivot) means drift: refresh and hand over.
            self.transformed_col(q, w, pattern);
            let wr = w[r];
            if (wr - alphas[q]).abs() > 1e-7 * (1.0 + alphas[q].abs()) || wr.abs() < DUAL_PIVOT_TOL
            {
                self.refresh();
                stats.refactors += 1;
                return;
            }
            let bj = self.basis[r] as usize;
            // Primal step: the leaving basic travels from its violated
            // value exactly onto the bound it violated.
            let delta = self.xb[r] - bound_r;
            let theta = d[q] / wr;
            if theta.abs() <= 1e-12 {
                stall += 1;
            } else {
                stall = 0;
            }
            let entering_status = self.vstat[q];
            let entering_start = self.nonbasic_value(q);
            let step = delta / wr;
            self.vstat[bj] = if sigma > 0.0 {
                VStat::AtUpper
            } else {
                VStat::AtLower
            };
            self.basis[r] = q as u32;
            self.vstat[q] = VStat::Basic;
            *iterations += 1;
            stats.dual_iters += 1;
            if !self.etas.push(r, w) || self.etas.len() >= REFACTOR_INTERVAL {
                if self.refactor().is_ok() {
                    stats.refactors += 1;
                    self.compute_xb();
                } else {
                    // Near-singular update: undo and hand to phase 1.
                    self.basis[r] = bj as u32;
                    self.vstat[bj] = VStat::Basic;
                    self.vstat[q] = entering_status;
                    if self.refactor().is_err() {
                        self.reset_basis();
                        #[expect(
                            clippy::expect_used,
                            reason = "the all-slack basis is the identity matrix; its factorisation cannot fail."
                        )]
                        self.refactor().expect("slack basis is nonsingular");
                    }
                    stats.refactors += 1;
                    self.compute_xb();
                    return;
                }
            } else {
                for (xb, &wp) in self.xb.iter_mut().zip(w.iter()) {
                    if wp != 0.0 {
                        *xb -= step * wp;
                    }
                }
                self.xb[r] = entering_start + step;
            }
            // Maintain the dual prices: d_j ← d_j − θ·α_j over the
            // nonbasics. The leaving column's α is 1 by definition
            // (ρᵀa_B[r] = (B⁻¹a_B[r])_r = 1), which lands it at −θ —
            // the dual-feasible side of the bound it settled on.
            alphas[bj] = 1.0;
            for j in 0..total {
                if self.vstat[j] == VStat::Basic || self.lo[j] == self.hi[j] {
                    continue;
                }
                let a = alphas[j];
                if a != 0.0 {
                    d[j] -= theta * a;
                }
            }
            d[q] = 0.0;
        }
    }

    /// Builds the Devex state from scratch: exact reduced costs via
    /// one BTRAN + full sweep, all weights 1 (the current nonbasic set
    /// is the reference framework).
    fn devex_build(&mut self) -> Devex {
        let total = self.n + self.m;
        let mut y = vec![0.0f64; self.m];
        for (p, &bj) in self.basis.iter().enumerate() {
            y[p] = self.obj[bj as usize];
        }
        self.etas.btran(&mut y);
        if let Some(lu) = &self.lu {
            lu.btran(&mut y);
        }
        let mut d = vec![0.0f64; total];
        for (j, dj) in d.iter_mut().enumerate() {
            if self.vstat[j] == VStat::Basic {
                continue;
            }
            let aty = if j < self.n {
                self.csc.col_dot(j, &y)
            } else {
                y[j - self.n]
            };
            *dj = self.obj[j] - aty;
        }
        Devex {
            d,
            gamma: vec![1.0; total],
            max_gamma: 1.0,
            exact: true,
        }
    }

    /// Devex pricing over the maintained reduced costs: cyclic partial
    /// blocks like the fresh-dual scan, but each scanned column costs a
    /// score comparison (`d_j² / γ_j`) instead of a sparse dot
    /// product, so the scan is cheap enough to stay sequential.
    fn devex_price(
        &self,
        dv: &Devex,
        cursor: &mut usize,
        banned: &[u64],
        iteration: u64,
    ) -> Option<(usize, f64)> {
        let total = self.n + self.m;
        let mut scanned = 0usize;
        while scanned < total {
            let block = PRICING_BLOCK.min(total - scanned);
            let start = *cursor;
            let mut best: Option<(f64, usize, f64)> = None; // (score, j, d)
            for k in 0..block {
                let j = (start + k) % total;
                let st = self.vstat[j];
                if st == VStat::Basic || banned[j] > iteration || self.lo[j] == self.hi[j] {
                    continue;
                }
                let dj = dv.d[j];
                let viol = match st {
                    VStat::AtLower => -dj,
                    VStat::AtUpper => dj,
                    VStat::Free => dj.abs(),
                    #[expect(
                        clippy::unreachable,
                        reason = "callers iterate nonbasic columns only; a basic column here is a corrupt basis."
                    )]
                    VStat::Basic => unreachable!(),
                };
                if viol > DUAL_TOL {
                    let score = dj * dj / dv.gamma[j];
                    if best.is_none_or(|(s, _, _)| score > s) {
                        best = Some((score, j, dj));
                    }
                }
            }
            *cursor = (start + block) % total;
            scanned += block;
            if let Some((_, j, dj)) = best {
                return Some((j, dj));
            }
        }
        None
    }

    /// The fused post-pivot Devex sweep: one BTRAN-derived ρ yields
    /// every α_j = a_jᵀρ, which updates the maintained reduced costs
    /// (`d_j −= θ·α_j`) and reference weights
    /// (`γ_j = max(γ_j, (α_j/α_q)²·γ_q)`) in a single pass. Split
    /// across the pool behind the deterministic work gate — each
    /// column writes only its own `d[j]`/`γ[j]` slot and the max-γ
    /// reduction is exact, so results are bit-identical at any thread
    /// count.
    fn devex_update(
        &self,
        dv: &mut Devex,
        rho: &[f64],
        theta: f64,
        alpha_q: f64,
        gamma_q: f64,
        q: usize,
    ) {
        let total = self.n + self.m;
        let work = self.csc.nnz() + self.m;
        let threads = rayon::current_num_threads();
        let chunk = if threads > 1 && work >= PAR_MIN_WORK {
            total.div_ceil(threads * 4).max(1024)
        } else {
            total
        };
        let maxg = self.devex_sweep(
            0,
            &mut dv.d,
            &mut dv.gamma,
            rho,
            theta,
            alpha_q,
            gamma_q,
            chunk,
        );
        dv.d[q] = 0.0;
        dv.max_gamma = dv.max_gamma.max(maxg);
    }

    /// Recursive splitter of [`SimplexSolver::devex_update`]'s sweep
    /// over disjoint column sub-slices. Returns the largest weight
    /// seen (an exact max-reduction).
    #[expect(clippy::too_many_arguments, reason = "recursion over disjoint slices")]
    fn devex_sweep(
        &self,
        base: usize,
        d: &mut [f64],
        gamma: &mut [f64],
        rho: &[f64],
        theta: f64,
        alpha_q: f64,
        gamma_q: f64,
        chunk: usize,
    ) -> f64 {
        if d.len() > chunk {
            let mid = d.len() / 2;
            let (d1, d2) = d.split_at_mut(mid);
            let (g1, g2) = gamma.split_at_mut(mid);
            let (a, b) = rayon::join(
                || self.devex_sweep(base, d1, g1, rho, theta, alpha_q, gamma_q, chunk),
                || self.devex_sweep(base + mid, d2, g2, rho, theta, alpha_q, gamma_q, chunk),
            );
            return a.max(b);
        }
        let mut maxg = 0.0f64;
        for (off, (dj, gj)) in d.iter_mut().zip(gamma.iter_mut()).enumerate() {
            let j = base + off;
            if self.vstat[j] == VStat::Basic || self.lo[j] == self.hi[j] {
                continue;
            }
            let alpha = if j < self.n {
                self.csc.col_dot(j, rho)
            } else {
                rho[j - self.n]
            };
            if alpha != 0.0 {
                *dj -= theta * alpha;
                let ref_ratio = alpha / alpha_q;
                let cand = ref_ratio * ref_ratio * gamma_q;
                if cand > *gj {
                    *gj = cand;
                }
            }
            if *gj > maxg {
                maxg = *gj;
            }
        }
        maxg
    }

    /// FTRAN of column `q` through the hypersparse kernel:
    /// `w ← B⁻¹ a_q`, using `pattern` as scratch for the column's
    /// nonzero rows.
    fn transformed_col(&mut self, q: usize, w: &mut Vec<f64>, pattern: &mut Vec<u32>) {
        w.clear();
        w.resize(self.m, 0.0);
        pattern.clear();
        if q < self.n {
            self.csc.scatter_col(q, 1.0, w);
            pattern.extend(self.csc.col(q).map(|(r, _)| r));
        } else {
            w[q - self.n] = 1.0;
            pattern.push((q - self.n) as u32);
        }
        if let Some(lu) = self.lu.as_ref() {
            lu.ftran_sparse(w, pattern, &mut self.scratch);
        }
        self.etas.ftran(w);
    }

    /// Assembles the solution for a terminal (or budget-capped) state.
    fn finish(&self, status: LpStatus, iterations: u64, stats: LpStats) -> LpSolution {
        // Mirror the per-solve counters into the process-wide registry
        // once per solve — the pivot loops themselves stay untouched.
        if cawo_obs::enabled() {
            use cawo_obs::Ctr;
            cawo_obs::inc(Ctr::LpSolves);
            cawo_obs::add(Ctr::LpPivotsPhase1, stats.phase1_iters);
            cawo_obs::add(Ctr::LpPivotsPhase2, stats.phase2_iters);
            cawo_obs::add(Ctr::LpPivotsDual, stats.dual_iters);
            cawo_obs::add(Ctr::LpBoundFlips, stats.bound_flips);
            cawo_obs::add(Ctr::LpRefactors, stats.refactors);
            cawo_obs::add(Ctr::LpDevexResets, stats.devex_resets);
        }
        let x = self.structural_solution();
        let objective: f64 = self.obj[..self.n].iter().zip(&x).map(|(c, v)| c * v).sum();
        let dual_bound = match status {
            LpStatus::Optimal => Some(objective),
            LpStatus::IterLimit | LpStatus::TimeLimit => {
                // Best of the periodically tracked bound and whatever
                // the final basis certifies.
                match (self.best_dual_bound, self.lagrangian_bound()) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                }
            }
            LpStatus::Infeasible | LpStatus::Unbounded => None,
        };
        LpSolution {
            status,
            objective,
            x,
            iterations,
            basis: self.basis(),
            stats,
            dual_bound,
        }
    }

    /// The Lagrangian bound `L(y) = yᵀb + Σ_j min(d_j·lo_j, d_j·hi_j)`
    /// of the current basic dual prices, over structural and slack
    /// columns alike (`d_B ≡ 0` by construction of `y`). Valid for
    /// *any* `y`, so budget-capped runs can report it honestly instead
    /// of their meaningless last primal objective. `None` when a
    /// wrong-sign reduced cost sits on an infinite bound — the inner
    /// minimum is −∞ and this `y` certifies nothing.
    fn lagrangian_bound(&self) -> Option<f64> {
        self.lu.as_ref()?;
        let mut y = vec![0.0f64; self.m];
        for (p, &bj) in self.basis.iter().enumerate() {
            y[p] = self.obj[bj as usize];
        }
        self.etas.btran(&mut y);
        if let Some(lu) = &self.lu {
            lu.btran(&mut y);
        }
        let mut bound: f64 = y.iter().zip(&self.rhs).map(|(yi, bi)| yi * bi).sum();
        for j in 0..self.n + self.m {
            if self.vstat[j] == VStat::Basic {
                continue;
            }
            let aty = if j < self.n {
                self.csc.col_dot(j, &y)
            } else {
                y[j - self.n]
            };
            let dj = self.obj[j] - aty;
            if dj > 0.0 {
                if !self.lo[j].is_finite() {
                    return None;
                }
                bound += dj * self.lo[j];
            } else if dj < 0.0 {
                if !self.hi[j].is_finite() {
                    return None;
                }
                bound += dj * self.hi[j];
            }
        }
        Some(bound)
    }

    /// Partial-pricing scan. Returns the entering column and its
    /// reduced cost, or `None` when no column prices out (optimal for
    /// the current phase). In Bland mode the scan starts at column 0
    /// and returns the *lowest-index* eligible column — that exactness
    /// is what makes Bland's rule an anti-cycling guarantee.
    ///
    /// Outside Bland mode each pricing block is scanned in parallel on
    /// the current `cawo_par` pool when the block is large enough. The
    /// result is bit-identical to the sequential scan: per-column
    /// reduced costs are computed with the same arithmetic, and the
    /// reduction keeps the *first-encountered* maximum violation
    /// (smallest scan offset wins ties), exactly like the serial loop.
    fn price(
        &self,
        y: &[f64],
        phase1: bool,
        cursor: &mut usize,
        bland: bool,
        banned: &[u64],
        iteration: u64,
    ) -> Option<(usize, f64)> {
        let total = self.n + self.m;
        if bland {
            // Bland's rule stays strictly sequential: it must return
            // the lowest-index eligible column, and it early-returns
            // mid-block (leaving the cursor just past that column).
            *cursor = 0;
            let mut scanned = 0usize;
            while scanned < total {
                let j = *cursor;
                *cursor = (*cursor + 1) % total;
                scanned += 1;
                if let Some((_, d, _)) = self.price_col(j, y, phase1, banned, iteration) {
                    return Some((j, d));
                }
            }
            return None;
        }
        let mut scanned = 0usize;
        while scanned < total {
            let block = PRICING_BLOCK.min(total - scanned);
            let start = *cursor;
            let found = self.price_block(y, phase1, start, block, banned, iteration);
            *cursor = (start + block) % total;
            scanned += block;
            if let Some((_, j, d)) = found {
                return Some((j, d));
            }
        }
        None
    }

    /// Reduced-cost test for one column: `Some((viol, d, j))` when the
    /// column prices out. Pure in the solver state — safe to evaluate
    /// from any thread.
    #[inline]
    fn price_col(
        &self,
        j: usize,
        y: &[f64],
        phase1: bool,
        banned: &[u64],
        iteration: u64,
    ) -> Option<(f64, f64, usize)> {
        let st = self.vstat[j];
        // Fixed (lo == hi) columns are skipped: their value is forced,
        // so any reduced-cost sign is KKT-compatible and entering one
        // is always a zero-length step.
        if st == VStat::Basic || banned[j] > iteration || self.lo[j] == self.hi[j] {
            return None;
        }
        let cj = if phase1 { 0.0 } else { self.obj[j] };
        let aty = if j < self.n {
            self.csc.col_dot(j, y)
        } else {
            y[j - self.n]
        };
        let d = cj - aty;
        let viol = match st {
            VStat::AtLower => -d,
            VStat::AtUpper => d,
            VStat::Free => d.abs(),
            #[expect(
                clippy::unreachable,
                reason = "callers iterate nonbasic columns only; a basic column here is a corrupt basis."
            )]
            VStat::Basic => unreachable!(),
        };
        (viol > DUAL_TOL).then_some((viol, d, j))
    }

    /// Scans one pricing block of `len` scan offsets starting at
    /// wrap-around position `start`, returning the best violation as
    /// `(scan offset, column, reduced cost)` — maximum violation,
    /// smallest offset on ties. Splits the block across the current
    /// pool when it is large enough to amortise the spawn cost.
    fn price_block(
        &self,
        y: &[f64],
        phase1: bool,
        start: usize,
        len: usize,
        banned: &[u64],
        iteration: u64,
    ) -> Option<(usize, usize, f64)> {
        let total = self.n + self.m;
        // Sequential scan of a contiguous offset range, first max wins.
        let scan_range = |lo: usize, hi: usize| -> Option<(f64, usize, usize, f64)> {
            let mut best: Option<(f64, usize, usize, f64)> = None; // (viol, k, j, d)
            for k in lo..hi {
                let j = (start + k) % total;
                if let Some((viol, d, _)) = self.price_col(j, y, phase1, banned, iteration) {
                    if best.is_none_or(|(s, _, _, _)| viol > s) {
                        best = Some((viol, k, j, d));
                    }
                }
            }
            best
        };
        let threads = rayon::current_num_threads();
        let best = if threads > 1 && len >= self.par_min_cols {
            // Fixed-size chunks in ascending offset order; the in-order
            // fold below makes the cross-chunk tie-break (smallest
            // offset) identical to the sequential scan.
            let chunks = (threads * 4).min(len);
            let per = len.div_ceil(chunks);
            let bests: Vec<_> = (0..chunks)
                .map(|c| (c * per, ((c + 1) * per).min(len)))
                .filter(|&(lo, hi)| lo < hi)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|(lo, hi)| scan_range(lo, hi))
                .collect();
            let mut best: Option<(f64, usize, usize, f64)> = None;
            for b in bests.into_iter().flatten() {
                if best.is_none_or(|(s, _, _, _)| b.0 > s) {
                    best = Some(b);
                }
            }
            best
        } else {
            scan_range(0, len)
        };
        best.map(|(_, k, j, d)| (k, j, d))
    }

    /// Value of a nonbasic column implied by its status.
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.vstat[j] {
            VStat::AtLower => self.lo[j],
            VStat::AtUpper => self.hi[j],
            VStat::Free => 0.0,
            #[expect(
                clippy::unreachable,
                reason = "callers iterate nonbasic columns only; a basic column here is a corrupt basis."
            )]
            VStat::Basic => unreachable!("nonbasic_value of a basic column"),
        }
    }

    /// Recomputes the basic values from scratch:
    /// `x_B = B⁻¹ (b − A_N x_N)`.
    fn compute_xb(&mut self) {
        let mut r = self.rhs.clone();
        for j in 0..self.n + self.m {
            if self.vstat[j] == VStat::Basic {
                continue;
            }
            let v = self.nonbasic_value(j);
            if v != 0.0 {
                if j < self.n {
                    self.csc.scatter_col(j, -v, &mut r);
                } else {
                    r[j - self.n] -= v;
                }
            }
        }
        if let Some(lu) = &self.lu {
            lu.ftran(&mut r);
        }
        self.etas.ftran(&mut r);
        self.xb = r;
    }

    /// Refactorises (or, if the basis went numerically singular,
    /// cold-resets) and recomputes the basic values — the safe way to
    /// re-derive exact state from any point in the iteration.
    fn refresh(&mut self) {
        if self.refactor().is_err() {
            self.reset_basis();
            #[expect(
                clippy::expect_used,
                reason = "the all-slack basis is the identity matrix; its factorisation cannot fail."
            )]
            self.refactor().expect("slack basis is nonsingular");
        }
        self.compute_xb();
    }

    /// Refactorises the current basis, collapsing the eta file.
    fn refactor(&mut self) -> Result<(), ()> {
        let cols: Vec<Vec<(u32, f64)>> = self
            .basis
            .iter()
            .map(|&bj| {
                let bj = bj as usize;
                if bj < self.n {
                    self.csc.col(bj).collect()
                } else {
                    vec![((bj - self.n) as u32, 1.0)]
                }
            })
            .collect();
        match LuFactors::factor(self.m, &cols, &self.row_counts) {
            Ok(lu) => {
                self.lu = Some(lu);
                self.etas.clear();
                Ok(())
            }
            Err(_) => Err(()),
        }
    }

    /// Structural variable values implied by the current state.
    fn structural_solution(&self) -> Vec<f64> {
        let mut x = vec![0.0f64; self.n];
        for (j, item) in x.iter_mut().enumerate() {
            if self.vstat[j] != VStat::Basic {
                *item = self.nonbasic_value(j);
            }
        }
        for (p, &bj) in self.basis.iter().enumerate() {
            if (bj as usize) < self.n {
                x[bj as usize] = self.xb[p];
            }
        }
        x
    }
}

/// The status a nonbasic column defaults to under the given bounds.
fn default_nonbasic(lo: f64, hi: f64) -> VStat {
    if lo.is_finite() {
        VStat::AtLower
    } else if hi.is_finite() {
        VStat::AtUpper
    } else {
        VStat::Free
    }
}

/// One-shot convenience: standardise, cold-start, solve.
pub fn solve(lp: &SparseLp, opts: &SimplexOptions) -> LpSolution {
    SimplexSolver::new(lp).solve(opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RowCmp;

    const INF: f64 = f64::INFINITY;

    fn optimal(sol: &LpSolution) -> (f64, &[f64]) {
        assert_eq!(sol.status, LpStatus::Optimal, "{sol:?}");
        (sol.objective, &sol.x)
    }

    #[test]
    fn maximisation_via_negated_objective() {
        // max x + y s.t. x + y ≤ 4, x ≤ 2 ⇒ min −(x+y) = −4.
        let mut lp = SparseLp::new();
        lp.add_col(-1.0, 0.0, 2.0); // x ≤ 2 as a native bound
        lp.add_col(-1.0, 0.0, INF);
        lp.add_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Le, 4.0);
        let sol = solve(&lp, &SimplexOptions::default());
        let (obj, x) = optimal(&sol);
        assert!((obj + 4.0).abs() < 1e-9);
        assert!((x[0] + x[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn equality_rows_enter_via_phase1() {
        // min x s.t. x + y = 3 ⇒ x = 0, y = 3.
        let mut lp = SparseLp::new();
        lp.add_col(1.0, 0.0, INF);
        lp.add_col(0.0, 0.0, INF);
        lp.add_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Eq, 3.0);
        let sol = solve(&lp, &SimplexOptions::default());
        let (obj, x) = optimal(&sol);
        assert!(obj.abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ge_rows_enter_via_phase1() {
        let mut lp = SparseLp::new();
        lp.add_col(1.0, 0.0, INF);
        lp.add_row(vec![(0, 1.0)], RowCmp::Ge, 2.5);
        let sol = solve(&lp, &SimplexOptions::default());
        assert!((optimal(&sol).0 - 2.5).abs() < 1e-9);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = SparseLp::new();
        lp.add_col(0.0, 0.0, INF);
        lp.add_row(vec![(0, 1.0)], RowCmp::Ge, 2.0);
        lp.add_row(vec![(0, 1.0)], RowCmp::Le, 1.0);
        assert_eq!(
            solve(&lp, &SimplexOptions::default()).status,
            LpStatus::Infeasible
        );
        // Conflicting bounds caught too.
        let mut lp = SparseLp::new();
        lp.add_col(0.0, 2.0, 3.0);
        lp.add_row(vec![(0, 1.0)], RowCmp::Le, 1.0);
        assert_eq!(
            solve(&lp, &SimplexOptions::default()).status,
            LpStatus::Infeasible
        );
    }

    #[test]
    fn detects_unboundedness() {
        let mut lp = SparseLp::new();
        lp.add_col(-1.0, 0.0, INF);
        assert_eq!(
            solve(&lp, &SimplexOptions::default()).status,
            LpStatus::Unbounded
        );
        // A free variable with nonzero cost and no rows.
        let mut lp = SparseLp::new();
        lp.add_col(1.0, -INF, INF);
        assert_eq!(
            solve(&lp, &SimplexOptions::default()).status,
            LpStatus::Unbounded
        );
    }

    #[test]
    fn negative_rhs_rows() {
        // x − y ≤ −1, min y ⇒ y = 1 (x = 0).
        let mut lp = SparseLp::new();
        lp.add_col(0.0, 0.0, INF);
        lp.add_col(1.0, 0.0, INF);
        lp.add_row(vec![(0, 1.0), (1, -1.0)], RowCmp::Le, -1.0);
        let sol = solve(&lp, &SimplexOptions::default());
        assert!((optimal(&sol).0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_vertex_terminates() {
        let mut lp = SparseLp::new();
        lp.add_col(-1.0, 0.0, INF);
        lp.add_col(-1.0, 0.0, INF);
        lp.add_row(vec![(0, 1.0)], RowCmp::Le, 0.0);
        lp.add_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Le, 1.0);
        lp.add_row(vec![(1, 1.0)], RowCmp::Le, 1.0);
        let sol = solve(&lp, &SimplexOptions::default());
        let (obj, x) = optimal(&sol);
        assert!((obj + 1.0).abs() < 1e-9);
        assert!(x[0].abs() < 1e-9);
    }

    #[test]
    fn native_bounds_and_bound_flips() {
        // min −x − 2y with x ∈ [1, 3], y ∈ [0, 2], x + y ≤ 4.
        let mut lp = SparseLp::new();
        lp.add_col(-1.0, 1.0, 3.0);
        lp.add_col(-2.0, 0.0, 2.0);
        lp.add_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Le, 4.0);
        let sol = solve(&lp, &SimplexOptions::default());
        let (obj, x) = optimal(&sol);
        assert!((x[1] - 2.0).abs() < 1e-9, "y at its upper bound");
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((obj + 6.0).abs() < 1e-9);
    }

    #[test]
    fn free_variables_supported() {
        // min x² surrogate: min x + y, y free, y ≥ x − 2, y ≥ −x.
        // Optimum at x = 0 (lower bound), y = 0... actually min x + y
        // with y ≥ max(x − 2, −x), x ≥ 0: substituting y = −x gives
        // objective 0 for x ≤ 1; rows: y − x ≥ −2, y + x ≥ 0.
        let mut lp = SparseLp::new();
        lp.add_col(1.0, 0.0, INF);
        lp.add_col(1.0, -INF, INF);
        lp.add_row(vec![(1, 1.0), (0, -1.0)], RowCmp::Ge, -2.0);
        lp.add_row(vec![(1, 1.0), (0, 1.0)], RowCmp::Ge, 0.0);
        let sol = solve(&lp, &SimplexOptions::default());
        let (obj, _) = optimal(&sol);
        assert!(obj.abs() < 1e-9);
    }

    #[test]
    fn fixed_variables_respected() {
        let mut lp = SparseLp::new();
        lp.add_col(1.0, 2.0, 2.0);
        lp.add_col(1.0, 0.0, INF);
        lp.add_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Ge, 5.0);
        let sol = solve(&lp, &SimplexOptions::default());
        let (obj, x) = optimal(&sol);
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        assert!((obj - 5.0).abs() < 1e-9);
    }

    #[test]
    fn warm_start_after_bound_change() {
        // Knapsack-ish LP; tighten a bound and re-solve warm.
        let mut lp = SparseLp::new();
        for c in [-5.0f64, -4.0, -3.0] {
            lp.add_col(c, 0.0, 1.0);
        }
        lp.add_row(vec![(0, 2.0), (1, 3.0), (2, 1.0)], RowCmp::Le, 3.0);
        let mut solver = SimplexSolver::new(&lp);
        let first = solver.solve(&SimplexOptions::default());
        assert_eq!(first.status, LpStatus::Optimal);
        // Branch: forbid column 0.
        solver.set_col_bounds(0, 0.0, 0.0);
        let warm = solver.solve(&SimplexOptions::default());
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!(warm.x[0].abs() < 1e-9);
        // Cold reference on the modified model.
        lp.set_bounds(0, 0.0, 0.0);
        let cold = solve(&lp, &SimplexOptions::default());
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        // Re-install the warm basis explicitly (round-trips).
        let mut fresh = SimplexSolver::new(&lp);
        assert!(fresh.set_basis(&warm.basis));
        let again = fresh.solve(&SimplexOptions::default());
        assert_eq!(again.status, LpStatus::Optimal);
        assert!((again.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn iteration_budget_reports_honestly() {
        let mut lp = SparseLp::new();
        for _ in 0..4 {
            lp.add_col(-1.0, 0.0, 1.0);
        }
        lp.add_row(
            vec![(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            RowCmp::Le,
            2.0,
        );
        let sol = solve(
            &lp,
            &SimplexOptions {
                max_iters: 1,
                ..SimplexOptions::default()
            },
        );
        assert_eq!(sol.status, LpStatus::IterLimit);
        let sol = solve(
            &lp,
            &SimplexOptions {
                time_limit: Some(std::time::Duration::ZERO),
                ..SimplexOptions::default()
            },
        );
        assert_eq!(sol.status, LpStatus::TimeLimit);
    }
}
