//! The user-facing LP model: columns with bounds, sparse rows.
//!
//! A [`SparseLp`] is a *minimisation* problem
//!
//! ```text
//! min cᵀx   s.t.   Σ a_ij x_j  (≤ | = | ≥)  b_i,    lo_j ≤ x_j ≤ hi_j
//! ```
//!
//! with native variable bounds (including free and fixed variables) —
//! unlike a dense tableau over `x ≥ 0`, a binary's
//! `x ≤ 1` costs no constraint row here, which alone removes `n·T` rows
//! from the time-indexed scheduling models. Bounds are mutable after
//! construction ([`SparseLp::set_bounds`]) so branch-and-bound nodes
//! can branch without rebuilding the matrix.

/// Comparison operator of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowCmp {
    /// `Σ a_j x_j ≤ rhs`
    Le,
    /// `Σ a_j x_j = rhs`
    Eq,
    /// `Σ a_j x_j ≥ rhs`
    Ge,
}

/// One sparse constraint row.
#[derive(Debug, Clone)]
pub struct Row {
    /// `(column, coefficient)` terms.
    pub terms: Vec<(u32, f64)>,
    /// Comparison operator.
    pub cmp: RowCmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A sparse linear program with bounded variables (minimisation).
#[derive(Debug, Clone, Default)]
pub struct SparseLp {
    pub(crate) obj: Vec<f64>,
    pub(crate) lo: Vec<f64>,
    pub(crate) hi: Vec<f64>,
    pub(crate) rows: Vec<Row>,
}

impl SparseLp {
    /// An empty problem.
    pub fn new() -> Self {
        SparseLp::default()
    }

    /// Adds a variable with objective coefficient `obj` and bounds
    /// `[lo, hi]` (use `f64::NEG_INFINITY` / `f64::INFINITY` for free
    /// sides). Returns its column index.
    pub fn add_col(&mut self, obj: f64, lo: f64, hi: f64) -> usize {
        debug_assert!(lo <= hi, "empty domain [{lo}, {hi}]");
        self.obj.push(obj);
        self.lo.push(lo);
        self.hi.push(hi);
        self.obj.len() - 1
    }

    /// Adds a constraint row.
    pub fn add_row(&mut self, terms: Vec<(u32, f64)>, cmp: RowCmp, rhs: f64) {
        debug_assert!(terms.iter().all(|&(j, _)| (j as usize) < self.obj.len()));
        self.rows.push(Row { terms, cmp, rhs });
    }

    /// Replaces the bounds of column `j` (branching).
    pub fn set_bounds(&mut self, j: usize, lo: f64, hi: f64) {
        debug_assert!(lo <= hi, "empty domain [{lo}, {hi}] for column {j}");
        self.lo[j] = lo;
        self.hi[j] = hi;
    }

    /// Current bounds of column `j`.
    pub fn bounds(&self, j: usize) -> (f64, f64) {
        (self.lo[j], self.hi[j])
    }

    /// Objective coefficient of column `j`.
    pub fn objective(&self, j: usize) -> f64 {
        self.obj[j]
    }

    /// Number of variables.
    pub fn num_cols(&self) -> usize {
        self.obj.len()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The `i`-th row (insertion order).
    pub fn row(&self, i: usize) -> &Row {
        &self.rows[i]
    }

    /// Number of structural nonzeros across all rows.
    pub fn num_nonzeros(&self) -> usize {
        self.rows.iter().map(|r| r.terms.len()).sum()
    }

    /// Objective value of an assignment.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.obj.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Maximum violation of any row or bound by `x` (0 = feasible).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for (j, &v) in x.iter().enumerate() {
            worst = worst.max(self.lo[j] - v).max(v - self.hi[j]);
        }
        for row in &self.rows {
            let lhs: f64 = row.terms.iter().map(|&(j, a)| a * x[j as usize]).sum();
            let viol = match row.cmp {
                RowCmp::Le => lhs - row.rhs,
                RowCmp::Ge => row.rhs - lhs,
                RowCmp::Eq => (lhs - row.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_accounting() {
        let mut lp = SparseLp::new();
        let x = lp.add_col(1.0, 0.0, 2.0);
        let y = lp.add_col(-1.0, f64::NEG_INFINITY, f64::INFINITY);
        lp.add_row(vec![(x as u32, 1.0), (y as u32, 2.0)], RowCmp::Le, 4.0);
        assert_eq!(lp.num_cols(), 2);
        assert_eq!(lp.num_rows(), 1);
        assert_eq!(lp.num_nonzeros(), 2);
        assert_eq!(lp.objective_value(&[2.0, 3.0]), -1.0);
        assert!(lp.max_violation(&[0.0, 2.0]) == 0.0);
        assert!(lp.max_violation(&[0.0, 3.0]) > 0.0);
        lp.set_bounds(x, 1.0, 1.0);
        assert_eq!(lp.bounds(x), (1.0, 1.0));
        assert!(lp.max_violation(&[0.0, 0.0]) == 1.0);
    }
}
