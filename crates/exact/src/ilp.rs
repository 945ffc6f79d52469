//! The time-indexed ILP of §4.3 / Appendix A.4 as an explicit model.
//!
//! Variables, per task `v` and time unit `t < T`: binaries `s(v,t)`,
//! `e(v,t)`, `r(v,t)` (start / end / running), plus per time unit the
//! integers `gu_t, bu_t, γ_t ≥ 0` and the binary `α_t`. Objective:
//! `min Σ_t bu_t`. Constraints (5)–(23) enforce exactly-once contiguous
//! execution, precedences over `Gc`, and the Big-M linearisation of
//! `bu_t = max(0, γ_t - G_t)`.
//!
//! The model is pseudo-polynomial (Θ(N·T) variables), which is why the
//! paper only solves it on small instances. Here it serves two roles:
//!
//! * documentation-grade formulation (every constraint of the appendix
//!   is materialised),
//! * an independent *checker*: [`check_schedule_against_ilp`] maps a
//!   schedule to the canonical ILP assignment and verifies every
//!   constraint plus that the objective equals the carbon cost — which
//!   ties the branch-and-bound optimum to the ILP optimum.

use cawo_core::{Cost, EngineKind, Instance, Schedule};
use cawo_graph::NodeId;
use cawo_platform::{PowerProfile, Time};

use crate::solver::{Budget, SolveError, SolveResult, WarmStart};
use crate::sparse_model::SparseA4Model;

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `Σ a_i x_i ≤ rhs`
    Le,
    /// `Σ a_i x_i = rhs`
    Eq,
    /// `Σ a_i x_i ≥ rhs`
    Ge,
}

/// Variable domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Binary `{0, 1}`.
    Binary,
    /// Non-negative integer.
    NonNegInt,
}

/// One linear constraint `Σ coeff·var (≤ | = | ≥) rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs.
    pub terms: Vec<(u32, i64)>,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: i64,
    /// Which appendix equation produced it (e.g. `"eq9"`).
    pub tag: &'static str,
}

/// The assembled model.
#[derive(Debug, Clone)]
pub struct IlpModel {
    /// Domain of every variable.
    pub domains: Vec<Domain>,
    /// Human-readable variable names (aligned with `domains`).
    pub names: Vec<String>,
    /// Objective coefficients (sparse; minimisation).
    pub objective: Vec<(u32, i64)>,
    /// All constraints.
    pub constraints: Vec<Constraint>,
    horizon: Time,
    n: usize,
}

/// Variable layout: blocks of `n·T` for s, e, r; then `T` each for
/// gu, bu, γ, α.
impl IlpModel {
    fn s_var(&self, v: NodeId, t: Time) -> u32 {
        (v as usize * self.horizon as usize + t as usize) as u32
    }
    fn e_var(&self, v: NodeId, t: Time) -> u32 {
        ((self.n + v as usize) * self.horizon as usize + t as usize) as u32
    }
    fn r_var(&self, v: NodeId, t: Time) -> u32 {
        ((2 * self.n + v as usize) * self.horizon as usize + t as usize) as u32
    }
    fn gu_var(&self, t: Time) -> u32 {
        (3 * self.n * self.horizon as usize + t as usize) as u32
    }
    fn bu_var(&self, t: Time) -> u32 {
        (3 * self.n * self.horizon as usize + self.horizon as usize + t as usize) as u32
    }
    fn gamma_var(&self, t: Time) -> u32 {
        (3 * self.n * self.horizon as usize + 2 * self.horizon as usize + t as usize) as u32
    }
    fn alpha_var(&self, t: Time) -> u32 {
        (3 * self.n * self.horizon as usize + 3 * self.horizon as usize + t as usize) as u32
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.domains.len()
    }

    /// Variable count the model *would* have for `n` tasks over a
    /// horizon of `t` time units, without building it — the layout is
    /// three `n·t` binary blocks (s, e, r) plus four per-time-unit
    /// columns (gu, bu, γ, α). The solvers' model-size guards use this
    /// so the formula lives in exactly one place.
    pub fn var_count_for(n: usize, t: usize) -> usize {
        3 * n * t + 4 * t
    }

    /// Builds the full model for an instance and profile.
    pub fn build(inst: &Instance, profile: &PowerProfile) -> IlpModel {
        let n = inst.node_count();
        let horizon = profile.deadline();
        let t_usize = horizon as usize;
        let var_count = IlpModel::var_count_for(n, t_usize);
        let mut model = IlpModel {
            domains: Vec::with_capacity(var_count),
            names: Vec::with_capacity(var_count),
            objective: Vec::new(),
            constraints: Vec::new(),
            horizon,
            n,
        };
        for name in ["s", "e", "r"] {
            for v in 0..n {
                for t in 0..t_usize {
                    model.domains.push(Domain::Binary);
                    model.names.push(format!("{name}_{v}_{t}"));
                }
            }
        }
        for (name, d) in [
            ("gu", Domain::NonNegInt),
            ("bu", Domain::NonNegInt),
            ("gamma", Domain::NonNegInt),
            ("alpha", Domain::Binary),
        ] {
            for t in 0..t_usize {
                model.domains.push(d);
                model.names.push(format!("{name}_{t}"));
            }
        }
        debug_assert_eq!(model.domains.len(), var_count);

        // Objective: min Σ bu_t.
        for t in 0..horizon {
            model.objective.push((model.bu_var(t), 1));
        }

        // Big-M: γ_t is bounded by idle power plus the working power of
        // *every task* running simultaneously (constraint (23) sums per
        // task, and the model itself does not forbid co-located overlap —
        // the chain edges of Gc do).
        let m_big: i64 = inst.total_idle_power() as i64
            + (0..n as NodeId)
                .map(|v| inst.work_power(v) as i64)
                .sum::<i64>()
            + profile
                .budgets()
                .iter()
                .map(|&g| g as i64)
                .max()
                .unwrap_or(0);

        for v in 0..n as NodeId {
            let w = inst.exec(v);
            // (5)+(6): exactly one start, early enough to finish by T.
            let mut terms = Vec::new();
            for t in 0..=horizon.saturating_sub(w) {
                terms.push((model.s_var(v, t), 1));
            }
            model.constraints.push(Constraint {
                terms,
                cmp: Cmp::Eq,
                rhs: 1,
                tag: "eq5",
            });
            let late: Vec<(u32, i64)> = (horizon.saturating_sub(w) + 1..horizon)
                .map(|t| (model.s_var(v, t), 1))
                .collect();
            if !late.is_empty() {
                model.constraints.push(Constraint {
                    terms: late,
                    cmp: Cmp::Eq,
                    rhs: 0,
                    tag: "eq6",
                });
            }
            // (7)+(8): exactly one end, not before ω(v)-1.
            let early: Vec<(u32, i64)> = (0..w.saturating_sub(1).min(horizon))
                .map(|t| (model.e_var(v, t), 1))
                .collect();
            if !early.is_empty() {
                model.constraints.push(Constraint {
                    terms: early,
                    cmp: Cmp::Eq,
                    rhs: 0,
                    tag: "eq7",
                });
            }
            let terms: Vec<(u32, i64)> = (w - 1..horizon).map(|t| (model.e_var(v, t), 1)).collect();
            model.constraints.push(Constraint {
                terms,
                cmp: Cmp::Eq,
                rhs: 1,
                tag: "eq8",
            });
            // (9): start and end aligned: s(v,t) = e(v, t+ω-1).
            for t in 0..=horizon - w {
                model.constraints.push(Constraint {
                    terms: vec![(model.s_var(v, t), 1), (model.e_var(v, t + w - 1), -1)],
                    cmp: Cmp::Eq,
                    rhs: 0,
                    tag: "eq9",
                });
            }
            // (10): total running time is ω(v).
            let terms: Vec<(u32, i64)> = (0..horizon).map(|t| (model.r_var(v, t), 1)).collect();
            model.constraints.push(Constraint {
                terms,
                cmp: Cmp::Eq,
                rhs: w as i64,
                tag: "eq10",
            });
            // (11): running covers the started window.
            for t in 0..=horizon - w {
                for k in t..t + w {
                    model.constraints.push(Constraint {
                        terms: vec![(model.r_var(v, k), 1), (model.s_var(v, t), -1)],
                        cmp: Cmp::Ge,
                        rhs: 0,
                        tag: "eq11",
                    });
                }
            }
        }

        // (12): precedence over every Gc edge.
        for (u, v) in inst.dag().edges() {
            for t in 0..horizon {
                let mut terms = vec![(model.s_var(v, t), 1)];
                for l in 0..t {
                    terms.push((model.e_var(u, l), -1));
                }
                model.constraints.push(Constraint {
                    terms,
                    cmp: Cmp::Le,
                    rhs: 0,
                    tag: "eq12",
                });
            }
        }

        // (15)–(23): power accounting per time unit.
        let idle_sum = inst.total_idle_power() as i64;
        for t in 0..horizon {
            let g_t = profile.budget_at(t) as i64;
            let (gu, bu, gamma, alpha) = (
                model.gu_var(t),
                model.bu_var(t),
                model.gamma_var(t),
                model.alpha_var(t),
            );
            // (16) bu >= γ - G  ⇔ bu - γ >= -G.
            model.constraints.push(Constraint {
                terms: vec![(bu, 1), (gamma, -1)],
                cmp: Cmp::Ge,
                rhs: -g_t,
                tag: "eq16",
            });
            // (17) bu <= γ - G + M(1-α) ⇔ bu - γ + Mα <= M - G.
            model.constraints.push(Constraint {
                terms: vec![(bu, 1), (gamma, -1), (alpha, m_big)],
                cmp: Cmp::Le,
                rhs: m_big - g_t,
                tag: "eq17",
            });
            // (18) bu <= M·α.
            model.constraints.push(Constraint {
                terms: vec![(bu, 1), (alpha, -m_big)],
                cmp: Cmp::Le,
                rhs: 0,
                tag: "eq18",
            });
            // (19) γ - G <= M·α.
            model.constraints.push(Constraint {
                terms: vec![(gamma, 1), (alpha, -m_big)],
                cmp: Cmp::Le,
                rhs: g_t,
                tag: "eq19",
            });
            // (20) γ - G >= ε - M(1-α) with ε = 1 (integer data).
            model.constraints.push(Constraint {
                terms: vec![(gamma, 1), (alpha, -m_big)],
                cmp: Cmp::Ge,
                rhs: g_t + 1 - m_big,
                tag: "eq20",
            });
            // (22) gu + bu = γ.
            model.constraints.push(Constraint {
                terms: vec![(gu, 1), (bu, 1), (gamma, -1)],
                cmp: Cmp::Eq,
                rhs: 0,
                tag: "eq22",
            });
            // (21b) gu <= G (green usage cannot exceed the budget).
            model.constraints.push(Constraint {
                terms: vec![(gu, 1)],
                cmp: Cmp::Le,
                rhs: g_t,
                tag: "eq13",
            });
            // (23) γ = Σ P_idle + Σ_v r(v,t)·P_work(v).
            let mut terms = vec![(gamma, 1)];
            for v in 0..n as NodeId {
                terms.push((model.r_var(v, t), -(inst.work_power(v) as i64)));
            }
            model.constraints.push(Constraint {
                terms,
                cmp: Cmp::Eq,
                rhs: idle_sum,
                tag: "eq23",
            });
        }
        model
    }

    /// The canonical assignment induced by a schedule.
    pub fn assignment_of(
        &self,
        inst: &Instance,
        profile: &PowerProfile,
        sched: &Schedule,
    ) -> Vec<i64> {
        let mut x = vec![0i64; self.var_count()];
        let horizon = self.horizon;
        for v in 0..self.n as NodeId {
            let s = sched.start(v);
            let e = s + inst.exec(v) - 1; // inclusive end slot
            x[self.s_var(v, s) as usize] = 1;
            x[self.e_var(v, e) as usize] = 1;
            for t in s..=e {
                x[self.r_var(v, t) as usize] = 1;
            }
        }
        let idle = inst.total_idle_power() as i64;
        for t in 0..horizon {
            let gamma: i64 = idle
                + (0..self.n as NodeId)
                    .filter(|&v| x[self.r_var(v, t) as usize] == 1)
                    .map(|v| inst.work_power(v) as i64)
                    .sum::<i64>();
            let g = profile.budget_at(t) as i64;
            x[self.gamma_var(t) as usize] = gamma;
            x[self.gu_var(t) as usize] = gamma.min(g);
            x[self.bu_var(t) as usize] = (gamma - g).max(0);
            x[self.alpha_var(t) as usize] = i64::from(gamma > g);
        }
        x
    }

    /// Inverse of [`IlpModel::assignment_of`]: reads the start time of
    /// every task out of the `s(v,t)` binaries of a (possibly
    /// fractional) solver solution. Returns `None` when some task has
    /// no set start variable — an incomplete or tampered assignment.
    pub fn extract_schedule(&self, x: &[f64]) -> Option<Schedule> {
        let mut starts = Vec::with_capacity(self.n);
        for v in 0..self.n as NodeId {
            let t = (0..self.horizon).find(|&t| x[self.s_var(v, t) as usize] > 0.5)?;
            starts.push(t);
        }
        Some(Schedule::new(starts))
    }

    /// Objective value of an assignment.
    pub fn objective_value(&self, x: &[i64]) -> i64 {
        self.objective.iter().map(|&(v, c)| c * x[v as usize]).sum()
    }

    /// Verifies domains and every constraint; returns the first violated
    /// constraint's tag on failure.
    pub fn check_assignment(&self, x: &[i64]) -> Result<(), String> {
        if x.len() != self.var_count() {
            return Err(format!(
                "assignment has {} vars, expected {}",
                x.len(),
                self.var_count()
            ));
        }
        for (i, (&v, &d)) in x.iter().zip(&self.domains).enumerate() {
            let ok = match d {
                Domain::Binary => v == 0 || v == 1,
                Domain::NonNegInt => v >= 0,
            };
            if !ok {
                return Err(format!(
                    "variable {} = {v} violates its domain",
                    self.names[i]
                ));
            }
        }
        for (ci, c) in self.constraints.iter().enumerate() {
            let lhs: i64 = c.terms.iter().map(|&(v, a)| a * x[v as usize]).sum();
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs,
                Cmp::Eq => lhs == c.rhs,
                Cmp::Ge => lhs >= c.rhs,
            };
            if !ok {
                return Err(format!(
                    "constraint #{ci} [{}] violated: lhs {lhs} vs rhs {}",
                    c.tag, c.rhs
                ));
            }
        }
        Ok(())
    }
}

/// Convenience wrapper: builds the model, derives the canonical
/// assignment of `sched`, checks every constraint, and returns the ILP
/// objective (= carbon cost).
pub fn check_schedule_against_ilp(
    inst: &Instance,
    profile: &PowerProfile,
    sched: &Schedule,
) -> Result<Cost, String> {
    sched
        .validate(inst, profile.deadline())
        .map_err(|e| format!("schedule invalid: {e}"))?;
    let model = IlpModel::build(inst, profile);
    let x = model.assignment_of(inst, profile, sched);
    model.check_assignment(&x)?;
    Ok(model.objective_value(&x) as Cost)
}

/// Largest dense model certified directly, in variables.
const MAX_DENSE_VARS: usize = 200_000;
/// Largest compact model certified instead, in columns.
const MAX_SPARSE_COLS: usize = 4_000_000;

/// The registry's `ilp` entry: runs `bnb` on the default cost engine,
/// then verifies that the returned schedule satisfies the Appendix A.4
/// formulation with an objective equal to the reported cost — the
/// executable link between the combinatorial optimum and the paper's
/// ILP formulation.
///
/// Small instances are certified against the *literal* dense model
/// ([`check_schedule_against_ilp`]); instances whose dense model would
/// exceed `MAX_DENSE_VARS` are certified against the equivalent compact
/// sparse formulation ([`SparseA4Model`]) instead of being declined,
/// which carries the certificate into the 200-task regime. Only models
/// beyond `MAX_SPARSE_COLS` return [`SolveError::Unsupported`].
pub(crate) fn solve(
    inst: &Instance,
    profile: &PowerProfile,
    budget: Budget,
    warm: &WarmStart,
) -> Result<SolveResult, SolveError> {
    let n = inst.node_count();
    let t = profile.deadline() as usize;
    let var_count = IlpModel::var_count_for(n, t);
    let use_dense = var_count <= MAX_DENSE_VARS;
    if !use_dense {
        // Decline oversized instances *before* spending the search
        // budget: both size estimates are cheap.
        let est_cols = SparseA4Model::column_count_for(inst, profile);
        if est_cols > MAX_SPARSE_COLS {
            return Err(SolveError::Unsupported(format!(
                "certification model needs {var_count} dense variables and ≈{est_cols} \
                 sparse columns (caps {MAX_DENSE_VARS} / {MAX_SPARSE_COLS})"
            )));
        }
    }
    let res = crate::bnb::solve(EngineKind::default(), inst, profile, budget, warm);
    let certified = if use_dense {
        check_schedule_against_ilp(inst, profile, &res.schedule).map_err(SolveError::Infeasible)?
    } else {
        SparseA4Model::build(inst, profile)
            .check_schedule(inst, profile, &res.schedule)
            .map_err(SolveError::Infeasible)?
    };
    assert_eq!(
        certified, res.cost,
        "ILP certificate disagrees with the search optimum"
    );
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cawo_core::carbon_cost;
    use cawo_core::enhanced::UnitInfo;
    use cawo_graph::dag::DagBuilder;

    fn chain2() -> Instance {
        let mut b = DagBuilder::new(2);
        b.add_edge(0, 1);
        Instance::from_raw(
            b.build().unwrap(),
            vec![2, 3],
            vec![0, 0],
            vec![UnitInfo {
                p_idle: 1,
                p_work: 4,
                is_link: false,
            }],
            0,
        )
    }

    #[test]
    fn model_sizes() {
        let inst = chain2();
        let profile = PowerProfile::uniform(8, 3);
        let model = IlpModel::build(&inst, &profile);
        // 3 blocks × 2 tasks × 8 slots + 4 × 8.
        assert_eq!(model.var_count(), 3 * 2 * 8 + 4 * 8);
        assert!(!model.constraints.is_empty());
    }

    #[test]
    fn valid_schedule_passes_and_objective_matches_cost() {
        let inst = chain2();
        let profile = PowerProfile::from_parts(vec![0, 4, 10], vec![3, 6]);
        for starts in [vec![0, 2], vec![0, 5], vec![1, 3], vec![2, 7]] {
            let sched = Schedule::new(starts);
            let obj = check_schedule_against_ilp(&inst, &profile, &sched).unwrap();
            assert_eq!(obj, carbon_cost(&inst, &sched, &profile));
        }
    }

    #[test]
    fn invalid_schedule_rejected() {
        let inst = chain2();
        let profile = PowerProfile::uniform(10, 3);
        // Precedence violation.
        let sched = Schedule::new(vec![0, 1]);
        assert!(check_schedule_against_ilp(&inst, &profile, &sched).is_err());
        // Deadline violation.
        let sched = Schedule::new(vec![0, 8]);
        assert!(check_schedule_against_ilp(&inst, &profile, &sched).is_err());
    }

    #[test]
    fn tampered_assignment_detected() {
        let inst = chain2();
        let profile = PowerProfile::uniform(8, 3);
        let model = IlpModel::build(&inst, &profile);
        let sched = Schedule::new(vec![0, 2]);
        let mut x = model.assignment_of(&inst, &profile, &sched);
        assert!(model.check_assignment(&x).is_ok());
        // Lie about brown power at t=0.
        let bu0 = model.bu_var(0) as usize;
        x[bu0] += 1;
        assert!(model.check_assignment(&x).is_err());
        // Binary domain violation.
        let mut y = model.assignment_of(&inst, &profile, &sched);
        y[model.alpha_var(0) as usize] = 2;
        assert!(model.check_assignment(&y).is_err());
    }

    #[test]
    fn alpha_consistency_enforced() {
        let inst = chain2();
        let profile = PowerProfile::uniform(8, 3);
        let model = IlpModel::build(&inst, &profile);
        let sched = Schedule::new(vec![0, 2]);
        let mut x = model.assignment_of(&inst, &profile, &sched);
        // At t=0 the platform draws 1+4=5 > 3 ⇒ α must be 1; flip it.
        assert_eq!(x[model.alpha_var(0) as usize], 1);
        x[model.alpha_var(0) as usize] = 0;
        let err = model.check_assignment(&x).unwrap_err();
        assert!(err.contains("eq1"), "expected a Big-M constraint: {err}");
    }

    #[test]
    fn objective_counts_only_brown_power() {
        let inst = chain2();
        // Budget 100 dwarfs platform power: zero cost.
        let profile = PowerProfile::uniform(8, 100);
        let sched = Schedule::new(vec![0, 2]);
        assert_eq!(
            check_schedule_against_ilp(&inst, &profile, &sched).unwrap(),
            0
        );
    }

    #[test]
    fn registry_entry_reports_infeasible_deadlines() {
        use crate::solver::SolverKind;
        let inst = chain2();
        let short = PowerProfile::uniform(3, 5); // deadline < ASAP makespan
        assert!(matches!(
            SolverKind::Ilp.solve(&inst, &short, Budget::default()),
            Err(SolveError::Infeasible(_))
        ));
    }

    #[test]
    fn ilp_agrees_with_cost_on_random_schedules() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..10 {
            let inst = chain2();
            let horizon = rng.gen_range(6..12);
            let budgets: Vec<u64> = vec![rng.gen_range(0..8), rng.gen_range(0..8)];
            let mid = rng.gen_range(1..horizon);
            let profile = PowerProfile::from_parts(vec![0, mid, horizon], budgets);
            // Random valid schedule of the chain.
            let s0 = rng.gen_range(0..=horizon - 5);
            let s1 = rng.gen_range(s0 + 2..=horizon - 3);
            let sched = Schedule::new(vec![s0, s1]);
            let obj = check_schedule_against_ilp(&inst, &profile, &sched).unwrap();
            assert_eq!(obj, carbon_cost(&inst, &sched, &profile));
        }
    }
}
