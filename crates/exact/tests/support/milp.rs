//! The dense branch-and-bound over [`solve_lp`] — the test-only MILP
//! oracle for the literal Appendix A.4 model: most-fractional variable
//! dichotomy on the full-tableau simplex. Quadratic tableau memory caps
//! it at toy sizes, which is all an oracle needs.

use cawo_exact::ilp::{Cmp, Domain, IlpModel};

use super::simplex::{solve_lp, LpCmp, LpOutcome, LpProblem};

/// Configuration of the dense MILP search.
#[derive(Debug, Clone, Copy)]
pub struct MilpConfig {
    /// Maximum explored branch-and-bound nodes.
    pub node_limit: u64,
    /// Integrality tolerance.
    pub int_tol: f64,
}

impl Default for MilpConfig {
    fn default() -> Self {
        MilpConfig {
            node_limit: 200_000,
            int_tol: 1e-6,
        }
    }
}

/// MILP outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum MilpOutcome {
    /// Proven optimal integer solution.
    Optimal {
        /// Objective value.
        objective: f64,
        /// Integer assignment.
        solution: Vec<f64>,
    },
    /// Best found within the node limit (not proven optimal).
    Feasible {
        /// Objective value of the incumbent.
        objective: f64,
        /// Incumbent assignment.
        solution: Vec<f64>,
    },
    /// No integer-feasible point.
    Infeasible,
    /// Node limit hit without any incumbent.
    Unknown,
    /// Some relaxation was unbounded — the model itself is degenerate
    /// (a bounded MILP's relaxations are bounded).
    Unbounded,
}

/// Solves a MILP: the base problem plus a set of integer variables.
pub fn solve_milp(base: &LpProblem, integer_vars: &[usize], config: MilpConfig) -> MilpOutcome {
    struct State<'a> {
        base: &'a LpProblem,
        integer_vars: &'a [usize],
        config: MilpConfig,
        nodes: u64,
        best: Option<(f64, Vec<f64>)>,
        exhausted: bool,
        unbounded: bool,
    }

    impl State<'_> {
        /// `bounds`: extra (var, lo, hi) rows accumulated by branching.
        fn dfs(&mut self, bounds: &mut Vec<(usize, f64, f64)>) {
            if self.unbounded {
                return;
            }
            self.nodes += 1;
            if self.nodes > self.config.node_limit {
                self.exhausted = false;
                return;
            }
            let mut lp = self.base.clone();
            for &(v, lo, hi) in bounds.iter() {
                if lo > 0.0 {
                    lp.add_row(vec![(v, 1.0)], LpCmp::Ge, lo);
                }
                if hi.is_finite() {
                    lp.add_row(vec![(v, 1.0)], LpCmp::Le, hi);
                }
            }
            let (objective, solution) = match solve_lp(&lp) {
                LpOutcome::Infeasible => return,
                LpOutcome::Unbounded => {
                    // An unbounded relaxation of a bounded MILP can only
                    // happen with unbounded integer vars.
                    self.unbounded = true;
                    self.exhausted = false;
                    return;
                }
                LpOutcome::Optimal {
                    objective,
                    solution,
                } => (objective, solution),
            };
            // Prune on the incumbent (minimisation; integer objectives
            // would allow a +1 cut, but objectives here can be fractional
            // mid-branch, so prune conservatively).
            if let Some((best, _)) = &self.best {
                if objective >= *best - 1e-9 {
                    return;
                }
            }
            // Most fractional integer variable.
            let mut branch: Option<(usize, f64)> = None;
            let mut best_frac = self.config.int_tol;
            for &v in self.integer_vars {
                let x = solution[v];
                let frac = (x - x.round()).abs();
                if frac > best_frac {
                    best_frac = frac;
                    branch = Some((v, x));
                }
            }
            match branch {
                None => {
                    // Integer feasible.
                    let rounded: Vec<f64> = solution
                        .iter()
                        .enumerate()
                        .map(|(v, &x)| {
                            if self.integer_vars.contains(&v) {
                                x.round()
                            } else {
                                x
                            }
                        })
                        .collect();
                    if self
                        .best
                        .as_ref()
                        .is_none_or(|(b, _)| objective < *b - 1e-9)
                    {
                        self.best = Some((objective, rounded));
                    }
                }
                Some((v, x)) => {
                    // Branch down first (schedules favour small values).
                    bounds.push((v, 0.0, x.floor()));
                    self.dfs(bounds);
                    bounds.pop();
                    bounds.push((v, x.ceil(), f64::INFINITY));
                    self.dfs(bounds);
                    bounds.pop();
                }
            }
        }
    }

    let mut state = State {
        base,
        integer_vars,
        config,
        nodes: 0,
        best: None,
        exhausted: true,
        unbounded: false,
    };
    state.dfs(&mut Vec::new());
    match (state.unbounded, state.best, state.exhausted) {
        (true, _, _) => MilpOutcome::Unbounded,
        (false, Some((objective, solution)), true) => MilpOutcome::Optimal {
            objective,
            solution,
        },
        (false, Some((objective, solution)), false) => MilpOutcome::Feasible {
            objective,
            solution,
        },
        (false, None, true) => MilpOutcome::Infeasible,
        (false, None, false) => MilpOutcome::Unknown,
    }
}

/// Converts an [`IlpModel`] into an [`LpProblem`] plus its integer-
/// variable list (binaries get `≤ 1` rows; all variables are `≥ 0`).
pub fn lp_relaxation(model: &IlpModel) -> (LpProblem, Vec<usize>) {
    let mut lp = LpProblem::new(model.var_count());
    for &(v, c) in &model.objective {
        lp.objective[v as usize] += c as f64;
    }
    for con in &model.constraints {
        let terms: Vec<(usize, f64)> = con
            .terms
            .iter()
            .map(|&(v, a)| (v as usize, a as f64))
            .collect();
        let cmp = match con.cmp {
            Cmp::Le => LpCmp::Le,
            Cmp::Eq => LpCmp::Eq,
            Cmp::Ge => LpCmp::Ge,
        };
        lp.add_row(terms, cmp, con.rhs as f64);
    }
    let mut integer_vars = Vec::new();
    for (v, d) in model.domains.iter().enumerate() {
        match d {
            Domain::Binary => {
                lp.add_upper_bound(v, 1.0);
                integer_vars.push(v);
            }
            Domain::NonNegInt => integer_vars.push(v),
        }
    }
    (lp, integer_vars)
}

/// Solves the full Appendix A.4 model with the dense engine.
pub fn solve_ilp_model(model: &IlpModel, config: MilpConfig) -> MilpOutcome {
    let (lp, ints) = lp_relaxation(model);
    solve_milp(&lp, &ints, config)
}
