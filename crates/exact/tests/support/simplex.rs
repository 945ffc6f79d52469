//! A dense two-phase primal simplex solver — the test-only oracle.
//!
//! A textbook full-tableau method, small enough to audit by eye:
//!
//! * constraints `≤ / = / ≥` are normalised to equalities with slack,
//!   surplus and artificial variables,
//! * phase 1 minimises the artificial sum to find a basic feasible
//!   solution, phase 2 optimises the real objective,
//! * Bland's rule guarantees termination on degenerate problems.
//!
//! Dense tableaus are quadratic in memory, which caps this solver at
//! hundreds of variables. The production `lp`/`milp` solvers run on the
//! sparse revised simplex of `cawo_lp`; this module stays as their
//! *differential-testing oracle* (`lp_parity` holds the two engines to
//! bit-comparable objectives, `dense_oracle` holds its unit tests).

/// Comparison operator of an LP constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpCmp {
    /// `Σ a_i x_i ≤ rhs`
    Le,
    /// `Σ a_i x_i = rhs`
    Eq,
    /// `Σ a_i x_i ≥ rhs`
    Ge,
}

/// Sparse linear expression: `(variable index, coefficient)` terms.
pub type LpTerms = Vec<(usize, f64)>;

/// One constraint row: sparse terms, comparison, right-hand side.
pub type LpRow = (LpTerms, LpCmp, f64);

/// A linear program: minimise `c·x` subject to rows, `x ≥ 0`.
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    /// Number of decision variables.
    pub num_vars: usize,
    /// Objective coefficients (minimisation), indexed by variable.
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub rows: Vec<LpRow>,
}

impl LpProblem {
    /// Creates a problem with `num_vars` variables and a zero objective.
    pub fn new(num_vars: usize) -> Self {
        LpProblem {
            num_vars,
            objective: vec![0.0; num_vars],
            rows: Vec::new(),
        }
    }

    /// Adds a constraint row.
    pub fn add_row(&mut self, terms: Vec<(usize, f64)>, cmp: LpCmp, rhs: f64) {
        debug_assert!(terms.iter().all(|&(v, _)| v < self.num_vars));
        self.rows.push((terms, cmp, rhs));
    }

    /// Adds the bound `x_v ≤ ub` as a row.
    pub fn add_upper_bound(&mut self, v: usize, ub: f64) {
        self.add_row(vec![(v, 1.0)], LpCmp::Le, ub);
    }
}

/// Solver outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// Optimal solution found: objective value and variable assignment.
    Optimal {
        /// Minimised objective value.
        objective: f64,
        /// Assignment of the decision variables.
        solution: Vec<f64>,
    },
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

const EPS: f64 = 1e-9;

/// Solves the LP with the two-phase full-tableau simplex.
pub fn solve_lp(problem: &LpProblem) -> LpOutcome {
    let n = problem.num_vars;
    let m = problem.rows.len();

    // Normalise rows to `terms = rhs` with rhs >= 0, recording which
    // auxiliary columns each row needs.
    #[derive(Clone, Copy)]
    enum Aux {
        Slack,
        SurplusArtificial,
        Artificial,
    }
    let mut norm: Vec<(LpTerms, f64, Aux)> = Vec::with_capacity(m);
    for (terms, cmp, rhs) in &problem.rows {
        let mut t = terms.clone();
        let mut r = *rhs;
        let mut c = *cmp;
        if r < 0.0 {
            for (_, a) in &mut t {
                *a = -*a;
            }
            r = -r;
            c = match c {
                LpCmp::Le => LpCmp::Ge,
                LpCmp::Eq => LpCmp::Eq,
                LpCmp::Ge => LpCmp::Le,
            };
        }
        let aux = match c {
            LpCmp::Le => Aux::Slack,
            LpCmp::Ge => Aux::SurplusArtificial,
            LpCmp::Eq => Aux::Artificial,
        };
        norm.push((t, r, aux));
    }

    // Column layout: decision vars | slacks/surpluses | artificials.
    let mut num_slack = 0;
    let mut num_art = 0;
    for (_, _, aux) in &norm {
        match aux {
            Aux::Slack => num_slack += 1,
            Aux::SurplusArtificial => {
                num_slack += 1;
                num_art += 1;
            }
            Aux::Artificial => num_art += 1,
        }
    }
    let total = n + num_slack + num_art;
    let art_base = n + num_slack;

    // Tableau: m rows × (total + 1) columns, last column = RHS.
    let mut tab = vec![vec![0.0f64; total + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut slack_cursor = n;
    let mut art_cursor = art_base;
    for (i, (terms, rhs, aux)) in norm.iter().enumerate() {
        for &(v, a) in terms {
            tab[i][v] += a;
        }
        tab[i][total] = *rhs;
        match aux {
            Aux::Slack => {
                tab[i][slack_cursor] = 1.0;
                basis[i] = slack_cursor;
                slack_cursor += 1;
            }
            Aux::SurplusArtificial => {
                tab[i][slack_cursor] = -1.0;
                slack_cursor += 1;
                tab[i][art_cursor] = 1.0;
                basis[i] = art_cursor;
                art_cursor += 1;
            }
            Aux::Artificial => {
                tab[i][art_cursor] = 1.0;
                basis[i] = art_cursor;
                art_cursor += 1;
            }
        }
    }

    // Phase 1: minimise the sum of artificial variables.
    if num_art > 0 {
        let mut obj1 = vec![0.0f64; total + 1];
        for col in &mut obj1[art_base..total] {
            *col = 1.0;
        }
        // Price out the artificial basis.
        let obj1_snapshot = obj1.clone();
        for (i, &b) in basis.iter().enumerate() {
            if obj1_snapshot[b] != 0.0 {
                let f = obj1_snapshot[b];
                for c in 0..=total {
                    obj1[c] -= f * tab[i][c];
                }
            }
        }
        if !run_simplex(&mut tab, &mut obj1, &mut basis, total) {
            // Phase 1 is bounded by construction; unbounded = bug.
            unreachable!("phase 1 objective is bounded below by 0");
        }
        if -obj1[total] > 1e-7 {
            return LpOutcome::Infeasible;
        }
        // Drive remaining artificials out of the basis where possible.
        for i in 0..m {
            if basis[i] >= art_base {
                if let Some(col) = (0..art_base).find(|&c| tab[i][c].abs() > EPS) {
                    pivot(&mut tab, &mut obj1, &mut basis, i, col, total);
                } // else: redundant row, keep the zero artificial basic.
            }
        }
    }

    // Phase 2: the real objective, artificials pinned at zero.
    let mut obj = vec![0.0f64; total + 1];
    obj[..n].copy_from_slice(&problem.objective[..n]);
    let obj_snapshot = obj.clone();
    for (i, &b) in basis.iter().enumerate() {
        if obj_snapshot[b] != 0.0 {
            let f = obj_snapshot[b];
            for c in 0..=total {
                obj[c] -= f * tab[i][c];
            }
        }
    }
    // Forbid artificial columns from re-entering.
    let limit = if num_art > 0 { art_base } else { total };
    if !run_simplex_limited(&mut tab, &mut obj, &mut basis, total, limit) {
        return LpOutcome::Unbounded;
    }

    let mut solution = vec![0.0f64; n];
    for (i, &b) in basis.iter().enumerate() {
        if b < n {
            solution[b] = tab[i][total];
        }
    }
    LpOutcome::Optimal {
        objective: -obj[total],
        solution,
    }
}

/// Runs simplex iterations until optimal (true) or unbounded (false).
fn run_simplex(tab: &mut [Vec<f64>], obj: &mut [f64], basis: &mut [usize], total: usize) -> bool {
    run_simplex_limited(tab, obj, basis, total, total)
}

fn run_simplex_limited(
    tab: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    total: usize,
    col_limit: usize,
) -> bool {
    loop {
        // Bland's rule: smallest column with negative reduced cost.
        let Some(enter) = (0..col_limit).find(|&c| obj[c] < -EPS) else {
            return true;
        };
        // Ratio test, ties by smallest basis index (Bland).
        let mut leave: Option<usize> = None;
        let mut best = f64::INFINITY;
        for (i, row) in tab.iter().enumerate() {
            if row[enter] > EPS {
                let ratio = row[total] / row[enter];
                let better = match leave {
                    None => true,
                    Some(l) => ratio < best - EPS || (ratio < best + EPS && basis[i] < basis[l]),
                };
                if better {
                    best = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(leave) = leave else {
            return false; // unbounded
        };
        pivot(tab, obj, basis, leave, enter, total);
    }
}

/// Gauss-Jordan pivot on (row, col).
fn pivot(
    tab: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    row: usize,
    col: usize,
    total: usize,
) {
    let p = tab[row][col];
    debug_assert!(p.abs() > EPS);
    for cell in tab[row].iter_mut().take(total + 1) {
        *cell /= p;
    }
    // Split the tableau around the pivot row so the other rows can be
    // updated against it without cloning it each pivot.
    let (before, rest) = tab.split_at_mut(row);
    // `row < tab.len()`, so the split tail is non-empty.
    let (pivot_row, after) = rest.split_first_mut().expect("pivot row in range");
    for r in before.iter_mut().chain(after.iter_mut()) {
        if r[col].abs() > EPS {
            let f = r[col];
            for (cell, &pv) in r.iter_mut().zip(pivot_row.iter()).take(total + 1) {
                *cell -= f * pv;
            }
        }
    }
    if obj[col].abs() > EPS {
        let f = obj[col];
        for (cell, &pv) in obj.iter_mut().zip(pivot_row.iter()).take(total + 1) {
            *cell -= f * pv;
        }
    }
    basis[row] = col;
}
