//! The Appendix A.4 model in *compact sparse* form for [`cawo_lp`].
//!
//! The literal formulation in [`crate::ilp`] materialises `3·N·T`
//! binaries and `Θ(Σ_v ω(v)·T + |E|·T²)` constraint nonzeros — fine for
//! documentation and tiny certificates, hopeless at the paper's
//! 200-task Fig. 7 regime (N ≈ 450, T ≈ 500 ⇒ millions of rows). This
//! module builds an *equivalent* integer program sized for the sparse
//! revised simplex:
//!
//! * **start variables only.** One binary `s(v, t)` per task and per
//!   `t ∈ [EST(v), LST(v)]` — the EST/LST window w.r.t. the deadline
//!   ([`cawo_core::Bounds`]) contains every deadline-feasible start, so
//!   restricting to it preserves all integer solutions while deleting
//!   the vast majority of columns. `e`/`r` binaries are implied and
//!   never built.
//! * **aggregated precedence.** Per edge `(u, v)` one row
//!   `Σ t·s(v,t) − Σ t·s(u,t) ≥ ω(u)` (exact on integer points; the
//!   relaxation is slightly weaker than the disaggregated eq. (12) but
//!   `T` rows-per-edge cheaper). Rows already implied by the windows
//!   are skipped.
//! * **implied brown power.** `bu_t` is continuous with
//!   `bu_t ≥ γ_t − G_t` and `bu_t ≥ max(0, ΣP_idle − G_t)`; since the
//!   objective minimises `Σ bu_t`, any optimum has
//!   `bu_t = max(0, γ_t − G_t)` — the Big-M machinery of eqs. (17)–(20)
//!   exists to pin auxiliary variables the compact model never
//!   creates. Time units whose worst-case draw fits the budget get
//!   neither a variable nor a row.
//!
//! Integer optima coincide with the A.4 optimum (same schedule space,
//! same objective), so the LP relaxation is a valid lower bound and
//! branch-and-bound over the `s` columns is exact. Both LP entries of
//! the registry start from one root relaxation (`solve_root` here):
//! `lp` (`solve_lp`) reports its bound alone, and `milp`
//! ([`crate::milp`]) cuts and branches on from it.

use std::time::Instant;

use cawo_core::{Bounds, Cost, CostEngine, Instance, IntervalEngine, Schedule};
use cawo_graph::NodeId;
use cawo_lp::{LpSolution, LpStatus, RowCmp, SimplexOptions, SimplexSolver, SparseLp};
use cawo_platform::{PowerProfile, Time};

use crate::solver::{
    warm_incumbent, Budget, SolveError, SolveResult, SolveStats, SolveStatus, WarmStart,
};

/// The compact sparse A.4 model plus its column layout.
#[derive(Debug, Clone)]
pub struct SparseA4Model {
    /// The assembled LP (relax) / ILP (with `s` columns integral).
    pub lp: SparseLp,
    n: usize,
    horizon: Time,
    /// Per node: inclusive `[EST, LST]` start window.
    win: Vec<(Time, Time)>,
    /// Per node: first `s` column index (columns are contiguous per
    /// window).
    col_base: Vec<u32>,
    /// Total number of `s` columns (they occupy `0..num_s_cols`).
    num_s_cols: usize,
    /// Power rows actually materialised, in row order: `(t, bu column)`.
    power_rows: Vec<(Time, u32)>,
}

/// `γ_t` of a concrete schedule: idle power plus the working power of
/// every task running at `t` (difference-array sweep over the horizon).
fn gamma_of_schedule(inst: &Instance, horizon: Time, sched: &Schedule) -> Vec<f64> {
    let t_usize = horizon as usize;
    let mut delta = vec![0.0f64; t_usize + 1];
    for v in 0..inst.node_count() as NodeId {
        let w = inst.exec(v);
        if w == 0 {
            continue;
        }
        let s = sched.start(v) as usize;
        let p = inst.work_power(v) as f64;
        delta[s] += p;
        delta[(s + w as usize).min(t_usize)] -= p;
    }
    let idle = inst.total_idle_power() as f64;
    let mut gamma = vec![idle; t_usize];
    let mut active = 0.0;
    for (t, g) in gamma.iter_mut().enumerate() {
        active += delta[t];
        *g = idle + active;
    }
    gamma
}

/// Per-time-unit upper bound on `γ_t` given the start windows: idle
/// power plus `P_work` of every task whose possible execution covers
/// `t`. This is *the* column-layout predicate — `bu_t` exists exactly
/// where this exceeds the budget — so the builder, the crash basis and
/// the certificate all share this one implementation.
fn gamma_upper_bound(inst: &Instance, horizon: Time, win: &[(Time, Time)]) -> Vec<f64> {
    let idle = inst.total_idle_power() as f64;
    let mut gamma_ub = vec![idle; horizon as usize];
    for v in 0..inst.node_count() as NodeId {
        let w = inst.exec(v);
        let p = inst.work_power(v) as f64;
        if w == 0 || p == 0.0 {
            continue;
        }
        let (est, lst) = win[v as usize];
        for t in est..(lst + w).min(horizon) {
            gamma_ub[t as usize] += p;
        }
    }
    gamma_ub
}

impl SparseA4Model {
    /// Upper estimate of the compact model's column count *without
    /// building it*: every window position plus one `bu` per time unit
    /// (trimming only removes columns, so the estimate bounds the real
    /// count from above). The solvers' memory guards run on this before
    /// any allocation happens.
    pub fn column_count_for(inst: &Instance, profile: &PowerProfile) -> usize {
        let horizon = profile.deadline();
        let bounds = Bounds::new(inst, horizon);
        (0..inst.node_count() as NodeId)
            // Saturating: an infeasible deadline yields LST < EST, and
            // this estimate must not underflow before the caller's
            // feasibility guard reports it properly.
            .map(|v| (bounds.lst(v) + 1).saturating_sub(bounds.est(v)) as usize)
            .sum::<usize>()
            + horizon as usize
    }

    /// Builds the model. The instance must be deadline-feasible.
    pub fn build(inst: &Instance, profile: &PowerProfile) -> SparseA4Model {
        let n = inst.node_count();
        let horizon = profile.deadline();
        let bounds = Bounds::new(inst, horizon);
        debug_assert!(bounds.is_feasible(inst), "caller checks feasibility");

        let mut lp = SparseLp::new();
        let mut win = Vec::with_capacity(n);
        let mut col_base = Vec::with_capacity(n);
        for v in 0..n as NodeId {
            let (est, lst) = (bounds.est(v), bounds.lst(v));
            debug_assert!(est <= lst);
            col_base.push(lp.num_cols() as u32);
            win.push((est, lst));
            for _t in est..=lst {
                lp.add_col(0.0, 0.0, 1.0);
            }
        }
        let num_s_cols = lp.num_cols();

        // Coverage terms per time unit: s(v, l) contributes P_work(v)
        // to γ_t for t ∈ [l, l + ω(v)), and the per-task worst case
        // bounds γ_t from above.
        let t_usize = horizon as usize;
        let mut cover: Vec<Vec<(u32, f64)>> = vec![Vec::new(); t_usize];
        let idle = inst.total_idle_power() as f64;
        let gamma_ub = gamma_upper_bound(inst, horizon, &win);
        for v in 0..n as NodeId {
            let w = inst.exec(v);
            let p = inst.work_power(v) as f64;
            if w == 0 || p == 0.0 {
                continue;
            }
            let (est, lst) = win[v as usize];
            for l in est..=lst {
                let col = col_base[v as usize] + (l - est) as u32;
                for t in l..(l + w).min(horizon) {
                    cover[t as usize].push((col, -p));
                }
            }
        }

        // Brown-power columns and rows, only where the budget can be
        // exceeded at all.
        let mut power_rows = Vec::new();
        for t in 0..t_usize {
            let g = profile.budget_at(t as Time) as f64;
            if gamma_ub[t] <= g {
                continue; // bu_t ≡ 0: no column, no row
            }
            let bu = lp.add_col(1.0, (idle - g).max(0.0), f64::INFINITY) as u32;
            if !cover[t].is_empty() {
                // bu_t − Σ P_v · coverage ≥ ΣP_idle − G_t.
                let mut terms = std::mem::take(&mut cover[t]);
                terms.push((bu, 1.0));
                power_rows.push((t as Time, bu));
                lp.add_row(terms, RowCmp::Ge, idle - g);
            }
        }

        // Exactly one start per task.
        for v in 0..n as NodeId {
            let (est, lst) = win[v as usize];
            let terms: Vec<(u32, f64)> = (0..=(lst - est) as u32)
                .map(|k| (col_base[v as usize] + k, 1.0))
                .collect();
            lp.add_row(terms, RowCmp::Eq, 1.0);
        }

        // Aggregated precedence per Gc edge, skipping rows the windows
        // already imply.
        for (u, v) in inst.dag().edges() {
            let w_u = inst.exec(u);
            let (est_u, lst_u) = win[u as usize];
            let (est_v, lst_v) = win[v as usize];
            if est_v >= lst_u + w_u {
                continue; // start(v) ≥ EST(v) ≥ LST(u) + ω(u) always holds
            }
            let mut terms: Vec<(u32, f64)> = Vec::new();
            for (k, t) in (est_v..=lst_v).enumerate() {
                terms.push((col_base[v as usize] + k as u32, t as f64));
            }
            for (k, t) in (est_u..=lst_u).enumerate() {
                terms.push((col_base[u as usize] + k as u32, -(t as f64)));
            }
            lp.add_row(terms, RowCmp::Ge, w_u as f64);
        }

        SparseA4Model {
            lp,
            n,
            horizon,
            win,
            col_base,
            num_s_cols,
            power_rows,
        }
    }

    /// Builds a *primal-feasible crash basis* from a valid schedule
    /// (typically the heuristic incumbent): selected starts at their
    /// upper bound, `bu` basic exactly where the schedule exceeds the
    /// budget, slacks basic elsewhere. Installing it via
    /// [`cawo_lp::SimplexSolver::set_basis`] skips phase 1 entirely and
    /// starts phase 2 *at the incumbent's objective* — the cold-start
    /// slack basis instead pays thousands of phase-1 pivots on models
    /// this degenerate.
    pub fn crash_basis(&self, inst: &Instance, sched: &Schedule) -> cawo_lp::Basis {
        use cawo_lp::VStat;
        let total = self.lp.num_cols() + self.lp.num_rows();
        let mut statuses = vec![VStat::AtLower; total];
        for v in 0..self.n as NodeId {
            let s = sched.start(v);
            let (est, lst) = self.win[v as usize];
            debug_assert!(s >= est && s <= lst, "schedule outside its window");
            statuses[self.s_col(v, s) as usize] = VStat::AtUpper;
        }
        // γ per time unit of the crash schedule.
        let gamma = gamma_of_schedule(inst, self.horizon, sched);
        let idle = inst.total_idle_power() as f64;
        // Power rows come first in row order: where the schedule pays
        // brown power, `bu` carries the row (basic) and the slack sits
        // at zero; elsewhere the slack is basic.
        let slack0 = self.lp.num_cols();
        for (ri, &(t, bu)) in self.power_rows.iter().enumerate() {
            // Row ri: bu basic iff γ_t exceeds the budget G_t (the row
            // rhs is idle − G_t).
            let g_t = idle - self.lp.row(ri).rhs;
            if gamma[t as usize] > g_t {
                statuses[bu as usize] = VStat::Basic;
                statuses[slack0 + ri] = VStat::AtUpper;
            } else {
                statuses[slack0 + ri] = VStat::Basic;
            }
        }
        // Assignment and precedence slacks are basic (feasible for any
        // valid schedule).
        for ri in self.power_rows.len()..self.lp.num_rows() {
            statuses[slack0 + ri] = VStat::Basic;
        }
        cawo_lp::Basis { statuses }
    }

    /// Number of Gc nodes the model covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The inclusive start window of node `v`.
    pub fn window(&self, v: NodeId) -> (Time, Time) {
        self.win[v as usize]
    }

    /// Column of the binary `s(v, t)`; `t` must be inside the window.
    pub fn s_col(&self, v: NodeId, t: Time) -> u32 {
        let (est, lst) = self.win[v as usize];
        debug_assert!(t >= est && t <= lst);
        self.col_base[v as usize] + (t - est) as u32
    }

    /// Total count of `s` columns (they are columns `0..count`).
    pub fn num_s_cols(&self) -> usize {
        self.num_s_cols
    }

    /// The materialised power rows in row order: `(time unit, bu
    /// column)` — the separation substrate for the root cover cuts.
    pub fn power_rows(&self) -> &[(Time, u32)] {
        &self.power_rows
    }

    /// Reads the start times out of a (near-)integral solution; `None`
    /// when some task has no selected start.
    pub fn extract_schedule(&self, x: &[f64]) -> Option<Schedule> {
        let mut starts = Vec::with_capacity(self.n);
        for v in 0..self.n as NodeId {
            let (est, lst) = self.win[v as usize];
            let t = (est..=lst).find(|&t| x[self.s_col(v, t) as usize] > 0.5)?;
            starts.push(t);
        }
        Some(Schedule::new(starts))
    }

    /// Certifies a schedule against the compact model: validates it,
    /// maps it to the canonical assignment, checks every row and bound,
    /// and returns the objective (= carbon cost). The sparse
    /// counterpart of [`crate::ilp::check_schedule_against_ilp`] for
    /// instances whose dense model cannot be materialised.
    pub fn check_schedule(
        &self,
        inst: &Instance,
        profile: &PowerProfile,
        sched: &Schedule,
    ) -> Result<Cost, String> {
        sched
            .validate(inst, self.horizon)
            .map_err(|e| format!("schedule invalid: {e}"))?;
        let mut x = vec![0.0f64; self.lp.num_cols()];
        for v in 0..self.n as NodeId {
            let s = sched.start(v);
            let (est, lst) = self.win[v as usize];
            if s < est || s > lst {
                return Err(format!(
                    "start {s} of node {v} outside its [{est}, {lst}] window"
                ));
            }
            x[self.s_col(v, s) as usize] = 1.0;
        }
        // γ per time unit, then the implied bu. The bu columns were
        // appended in ascending `t` for exactly the time units where γ
        // can exceed the budget; recompute that predicate (same shared
        // implementation the builder used) to walk them in step while
        // totalling the cost.
        let t_usize = self.horizon as usize;
        let gamma = gamma_of_schedule(inst, self.horizon, sched);
        let gamma_ub = gamma_upper_bound(inst, self.horizon, &self.win);
        let mut cost = 0.0f64;
        let mut bu_cursor = self.num_s_cols;
        for t in 0..t_usize {
            let g = profile.budget_at(t as Time) as f64;
            let bu = (gamma[t] - g).max(0.0);
            cost += bu;
            if gamma_ub[t] > g {
                x[bu_cursor] = bu;
                bu_cursor += 1;
            } else {
                debug_assert_eq!(bu, 0.0, "trimmed time units never pay");
            }
        }
        debug_assert_eq!(bu_cursor, self.lp.num_cols(), "bu layout walked fully");
        let viol = self.lp.max_violation(&x);
        if viol > 1e-6 {
            return Err(format!(
                "canonical assignment violates the sparse model by {viol}"
            ));
        }
        let obj = self.lp.objective_value(&x);
        debug_assert!((obj - cost).abs() < 1e-6);
        Ok(obj.round() as Cost)
    }
}

/// Rounds a relaxation objective up to the integral cost it bounds.
pub(crate) fn ceil_bound(objective: f64) -> Cost {
    (objective - 1e-6).ceil().max(0.0) as Cost
}

/// Column cap of the `lp` entry (memory guard; the compact model stays
/// far below it throughout the paper grid).
const LP_MAX_COLS: usize = 4_000_000;

/// The remaining wall-clock budget as simplex options; `None` once the
/// deadline has passed.
pub(crate) fn simplex_options(deadline: Option<Instant>) -> Option<SimplexOptions> {
    let Some(d) = deadline else {
        return Some(SimplexOptions::default());
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "rescaling the opt-in time budget."
    )]
    let now = Instant::now();
    (now < d).then(|| SimplexOptions {
        time_limit: Some(d - now),
        ..SimplexOptions::default()
    })
}

/// An optimal root relaxation of the compact model, with everything a
/// caller needs to turn it into an answer or to search on from it.
pub(crate) struct Root {
    /// The model the relaxation was solved over.
    pub model: SparseA4Model,
    /// The simplex that solved it, left at the optimal basis.
    pub simplex: SimplexSolver,
    /// The optimal root solution; its basis is the warm-start token.
    pub sol: LpSolution,
    /// The incumbent: the better of the heuristic and the warm one.
    pub schedule: Schedule,
    /// The incumbent's cost.
    pub cost: Cost,
    /// The wall-clock deadline, anchored before the heuristic ran.
    pub deadline: Option<Instant>,
    /// The root solve's LP iterations.
    pub stats: SolveStats,
}

/// Where [`solve_root`] left a solve.
pub(crate) enum RootOutcome {
    /// The root relaxation is optimal.
    Solved(Box<Root>),
    /// The budget ran out at or before the root: the incumbent, the
    /// Lagrangian bound of the last basis when finite, and the root
    /// basis as warm-start token. `nodes` counts the root's LP
    /// iterations.
    TimedOut(SolveResult),
}

/// The root relaxation the `lp` and `milp` entries both start from.
///
/// Refuses models estimated above `max_cols` columns before building
/// anything, seeds the incumbent from the heuristic and the warm start,
/// and installs the warm basis when its dimensions fit the model, else
/// the incumbent's crash basis, so the root starts in phase 2 at the
/// incumbent's objective. The deadline is anchored before the heuristic
/// runs, so the whole call honours the budget.
pub(crate) fn solve_root(
    inst: &Instance,
    profile: &PowerProfile,
    budget: Budget,
    warm: &WarmStart,
    max_cols: usize,
) -> Result<RootOutcome, SolveError> {
    // Guard before building: the estimate bounds the real column
    // count from above, so nothing oversized is ever allocated.
    let est_cols = SparseA4Model::column_count_for(inst, profile);
    if est_cols > max_cols {
        return Err(SolveError::Unsupported(format!(
            "sparse model needs ≈{est_cols} columns (cap {max_cols})"
        )));
    }
    let model = SparseA4Model::build(inst, profile);
    let deadline = budget.deadline_from_now();
    let (schedule, cost) = warm_incumbent(inst, profile, warm);
    let mut simplex = SimplexSolver::new(&model.lp);
    // `set_basis` rejects a dimension mismatch: the column layout
    // depends on the profile's budgets, so a shifted trace can
    // invalidate a warm token.
    let warmed = warm.basis.as_ref().is_some_and(|b| simplex.set_basis(b));
    if !warmed {
        simplex.set_basis(&model.crash_basis(inst, &schedule));
    }
    let Some(opts) = simplex_options(deadline) else {
        return Ok(RootOutcome::TimedOut(SolveResult {
            schedule,
            cost,
            status: SolveStatus::TimedOut,
            nodes: 0,
            lower_bound: None,
            stats: SolveStats::default(),
            basis: None,
        }));
    };
    let sol = simplex.solve(&opts);
    let stats = SolveStats {
        lp_iterations: sol.iterations,
        dual_iterations: sol.stats.dual_iters,
        ..SolveStats::default()
    };
    match sol.status {
        LpStatus::Optimal => {
            debug_assert!(
                model.lp.max_violation(&sol.x) < 1e-5,
                "optimal relaxation point violates the model"
            );
            Ok(RootOutcome::Solved(Box::new(Root {
                model,
                simplex,
                sol,
                schedule,
                cost,
                deadline,
                stats,
            })))
        }
        // A budget-capped run still carries the Lagrangian dual
        // bound of its last basis when one is finite — an honest
        // "best proven so far" instead of a stale primal objective.
        LpStatus::IterLimit | LpStatus::TimeLimit => Ok(RootOutcome::TimedOut(SolveResult {
            schedule,
            cost,
            status: SolveStatus::TimedOut,
            nodes: sol.iterations,
            lower_bound: sol.dual_bound.map(ceil_bound),
            stats,
            basis: Some(sol.basis),
        })),
        LpStatus::Infeasible => Err(SolveError::Infeasible(
            "sparse relaxation infeasible — model/instance mismatch".into(),
        )),
        LpStatus::Unbounded => Err(SolveError::Unsupported(
            "sparse relaxation unbounded — model must be bounded below".into(),
        )),
    }
}

/// The registry's `lp` entry: the root relaxation alone, yielding a
/// *proven lower bound* that certifies (or brackets) the incumbent —
/// the status is `optimal` exactly when the incumbent meets the bound.
/// `nodes` counts the simplex iterations.
pub(crate) fn solve_lp(
    inst: &Instance,
    profile: &PowerProfile,
    budget: Budget,
    warm: &WarmStart,
) -> Result<SolveResult, SolveError> {
    let root = match solve_root(inst, profile, budget, warm, LP_MAX_COLS)? {
        RootOutcome::Solved(root) => root,
        RootOutcome::TimedOut(res) => return Ok(res),
    };
    let lower_bound = ceil_bound(root.sol.objective);
    Ok(SolveResult {
        schedule: root.schedule,
        cost: root.cost,
        status: if root.cost <= lower_bound {
            SolveStatus::Optimal
        } else {
            SolveStatus::Feasible
        },
        nodes: root.sol.iterations,
        lower_bound: Some(lower_bound),
        stats: root.stats,
        basis: Some(root.sol.basis),
    })
}

/// Engine-certified cost of a schedule (used by the sparse solvers to
/// report costs consistent with every other solver).
pub(crate) fn engine_cost(inst: &Instance, profile: &PowerProfile, sched: &Schedule) -> Cost {
    IntervalEngine::build(inst, sched, profile).total_cost()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cawo_core::carbon_cost;
    use cawo_core::enhanced::UnitInfo;
    use cawo_graph::dag::DagBuilder;

    fn chain(exec: &[Time], p_idle: u64, p_work: u64) -> Instance {
        let n = exec.len();
        let mut b = DagBuilder::new(n);
        for i in 1..n {
            b.add_edge(i as u32 - 1, i as u32);
        }
        Instance::from_raw(
            b.build().unwrap(),
            exec.to_vec(),
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
    fn model_is_window_sized() {
        let inst = chain(&[2, 3], 0, 4);
        let profile = PowerProfile::from_parts(vec![0, 4, 8], vec![3, 6]);
        let model = SparseA4Model::build(&inst, &profile);
        // Slack 3 ⇒ window length 4 per task; far below 3·n·T + 4·T.
        assert_eq!(model.num_s_cols(), 8);
        assert!(model.lp.num_cols() < crate::ilp::IlpModel::var_count_for(2, 8));
        assert_eq!(model.window(0), (0, 3));
        assert_eq!(model.window(1), (2, 5));
    }

    #[test]
    fn check_schedule_matches_carbon_cost() {
        let inst = chain(&[2, 3], 1, 4);
        let profile = PowerProfile::from_parts(vec![0, 4, 10], vec![3, 6]);
        let model = SparseA4Model::build(&inst, &profile);
        for starts in [vec![0, 2], vec![0, 5], vec![1, 3], vec![3, 7]] {
            let sched = Schedule::new(starts);
            let cost = model.check_schedule(&inst, &profile, &sched).unwrap();
            assert_eq!(cost, carbon_cost(&inst, &sched, &profile));
        }
        // Precedence violations are rejected.
        assert!(model
            .check_schedule(&inst, &profile, &Schedule::new(vec![0, 1]))
            .is_err());
    }

    #[test]
    fn lp_bound_certifies_uniprocessor_optimum() {
        let inst = chain(&[3, 2], 0, 5);
        let profile = PowerProfile::from_parts(vec![0, 3, 8, 12], vec![0, 5, 1]);
        let res = crate::SolverKind::Lp
            .solve(&inst, &profile, Budget::default())
            .unwrap();
        let dp = crate::dp::dp_polynomial(&inst, &profile);
        let lb = res.lower_bound.expect("root LP solved");
        assert!(lb <= dp.cost, "bound {lb} exceeds the optimum {}", dp.cost);
        assert!(res.cost >= dp.cost);
        if res.status == SolveStatus::Optimal {
            assert_eq!(res.cost, dp.cost);
        }
    }
}
