//! Presolve: problem reductions applied before the simplex.
//!
//! Three classic passes run to a fixpoint:
//!
//! * **fixed variables** (`lo == hi`) are substituted into rows and the
//!   objective,
//! * **row singletons** (one-term rows) become variable bounds and the
//!   row is dropped — this is what turns the time-indexed models'
//!   "no task can run at `t`" rows into plain `bu_t` bounds,
//! * **free column singletons on equality rows** are eliminated with
//!   their row (the variable can always absorb the residual; its cost
//!   is pushed onto the row's other columns),
//!
//! plus empty-row consistency checks. Every elimination is recorded so
//! [`Presolved::postsolve`] can reconstruct a full-length solution from
//! the reduced one. Infeasibility discovered here (empty domains,
//! violated empty rows) is reported without ever running the simplex.

use crate::model::{RowCmp, SparseLp};

/// A row under reduction: `(terms, sense, rhs)` with original column
/// indices.
type WorkRow = (Vec<(usize, f64)>, RowCmp, f64);

/// Presolve proved the problem infeasible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PresolveInfeasible {
    /// Human-readable reason.
    pub reason: String,
}

/// One recorded elimination (replayed in reverse by postsolve).
#[derive(Debug, Clone)]
enum Elim {
    /// Column fixed at a value.
    Fix { col: usize, value: f64 },
    /// Free column singleton `coef · x_col + Σ terms = rhs` eliminated
    /// with its equality row.
    FreeSingleton {
        col: usize,
        coef: f64,
        rhs: f64,
        terms: Vec<(usize, f64)>,
    },
}

/// A reduced problem plus the recipe to undo the reduction.
#[derive(Debug, Clone)]
pub struct Presolved {
    /// The reduced problem (column indices renumbered).
    pub lp: SparseLp,
    /// Original column → reduced column (None = eliminated).
    map: Vec<Option<u32>>,
    /// Original row → reduced row (None = eliminated).
    row_map: Vec<Option<u32>>,
    elims: Vec<Elim>,
    offset: f64,
    orig_cols: usize,
}

impl Presolved {
    /// Constant added to the reduced objective by eliminated columns.
    pub fn objective_offset(&self) -> f64 {
        self.offset
    }

    /// Reduced column index of an original column, if it survived.
    pub fn reduced_col(&self, original: usize) -> Option<usize> {
        self.map[original].map(|c| c as usize)
    }

    /// Projects a basis of the *original* problem onto the reduced one
    /// (statuses of surviving columns and row slacks carry over).
    /// Returns `None` when the shape does not fit; the result may still
    /// be rejected by [`crate::SimplexSolver::set_basis`] if the
    /// eliminations unbalanced the basic count — callers fall back to a
    /// cold start in that case.
    pub fn map_basis(&self, full: &crate::simplex::Basis) -> Option<crate::simplex::Basis> {
        use crate::simplex::VStat;
        let orig_rows = self.row_map.len();
        if full.statuses.len() != self.orig_cols + orig_rows {
            return None;
        }
        let mut statuses = vec![VStat::AtLower; self.lp.num_cols() + self.lp.num_rows()];
        for (orig, red) in self.map.iter().enumerate() {
            if let Some(r) = red {
                statuses[*r as usize] = full.statuses[orig];
            }
        }
        for (orig_ri, red) in self.row_map.iter().enumerate() {
            if let Some(ri) = red {
                statuses[self.lp.num_cols() + *ri as usize] =
                    full.statuses[self.orig_cols + orig_ri];
            }
        }
        Some(crate::simplex::Basis { statuses })
    }

    /// Lifts a reduced solution back to the original column space.
    pub fn postsolve(&self, x_reduced: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0f64; self.orig_cols];
        for (orig, red) in self.map.iter().enumerate() {
            if let Some(r) = red {
                x[orig] = x_reduced[*r as usize];
            }
        }
        for elim in self.elims.iter().rev() {
            match elim {
                Elim::Fix { col, value } => x[*col] = *value,
                Elim::FreeSingleton {
                    col,
                    coef,
                    rhs,
                    terms,
                } => {
                    let rest: f64 = terms.iter().map(|&(k, a)| a * x[k]).sum();
                    x[*col] = (rhs - rest) / coef;
                }
            }
        }
        x
    }
}

/// Runs the presolve passes on `lp`.
pub fn presolve(lp: &SparseLp) -> Result<Presolved, PresolveInfeasible> {
    let orig_cols = lp.num_cols();
    let mut obj = lp.obj.clone();
    let mut lo = lp.lo.clone();
    let mut hi = lp.hi.clone();
    // Rows as mutable term lists (original column indices).
    // Zero-coefficient terms are dropped on ingestion: the singleton
    // pass divides by the row coefficient, and a structurally-zero term
    // (time-indexed models emit them, e.g. a `t = 0` start coefficient
    // in a precedence row) must reduce like the empty row it really is
    // rather than fabricate an infinite bound.
    let mut rows: Vec<WorkRow> = lp
        .rows
        .iter()
        .map(|r| {
            (
                r.terms
                    .iter()
                    .filter(|&&(_, a)| a != 0.0)
                    .map(|&(j, a)| (j as usize, a))
                    .collect(),
                r.cmp,
                r.rhs,
            )
        })
        .collect();
    let mut row_alive = vec![true; rows.len()];
    let mut col_alive = vec![true; orig_cols];
    let mut elims: Vec<Elim> = Vec::new();
    let mut offset = 0.0f64;
    const TOL: f64 = 1e-9;

    let mut changed = true;
    while changed {
        changed = false;

        // Fixed variables.
        for j in 0..orig_cols {
            if col_alive[j] && hi[j] - lo[j] <= TOL && lo[j].is_finite() {
                let v = lo[j];
                offset += obj[j] * v;
                for (ri, (terms, _, rhs)) in rows.iter_mut().enumerate() {
                    if !row_alive[ri] {
                        continue;
                    }
                    terms.retain(|&(k, a)| {
                        if k == j {
                            *rhs -= a * v;
                            false
                        } else {
                            true
                        }
                    });
                }
                col_alive[j] = false;
                elims.push(Elim::Fix { col: j, value: v });
                changed = true;
            }
        }

        // Empty rows and row singletons.
        for ri in 0..rows.len() {
            if !row_alive[ri] {
                continue;
            }
            let (terms, cmp, rhs) = &rows[ri];
            match terms.len() {
                0 => {
                    let ok = match cmp {
                        RowCmp::Le => 0.0 <= *rhs + TOL,
                        RowCmp::Ge => 0.0 >= *rhs - TOL,
                        RowCmp::Eq => rhs.abs() <= TOL,
                    };
                    if !ok {
                        return Err(PresolveInfeasible {
                            reason: format!("empty row #{ri} requires 0 {cmp:?} {rhs}"),
                        });
                    }
                    row_alive[ri] = false;
                    changed = true;
                }
                1 => {
                    let (j, a) = terms[0];
                    let bound = rhs / a;
                    let (cmp, a) = (*cmp, a);
                    // `a·x (cmp) rhs` ⇒ a one-sided (or two-sided for
                    // Eq) bound on x, with the sense flipped when a < 0.
                    let (new_lo, new_hi) = match (cmp, a > 0.0) {
                        (RowCmp::Eq, _) => (bound, bound),
                        (RowCmp::Le, true) | (RowCmp::Ge, false) => (f64::NEG_INFINITY, bound),
                        (RowCmp::Ge, true) | (RowCmp::Le, false) => (bound, f64::INFINITY),
                    };
                    lo[j] = lo[j].max(new_lo);
                    hi[j] = hi[j].min(new_hi);
                    if lo[j] > hi[j] + TOL {
                        return Err(PresolveInfeasible {
                            reason: format!("singleton row #{ri} empties column {j}'s domain"),
                        });
                    }
                    // Guard against `max(lo, hi)` float inversion.
                    if lo[j] > hi[j] {
                        lo[j] = hi[j];
                    }
                    row_alive[ri] = false;
                    changed = true;
                }
                _ => {}
            }
        }

        // Free column singletons on equality rows.
        let mut occurrence: Vec<(u32, usize)> = vec![(0, usize::MAX); orig_cols];
        for (ri, (terms, _, _)) in rows.iter().enumerate() {
            if !row_alive[ri] {
                continue;
            }
            for &(j, _) in terms {
                occurrence[j].0 += 1;
                occurrence[j].1 = ri;
            }
        }
        for j in 0..orig_cols {
            if !col_alive[j] || occurrence[j].0 != 1 || lo[j].is_finite() || hi[j].is_finite() {
                continue;
            }
            let ri = occurrence[j].1;
            if rows[ri].1 != RowCmp::Eq {
                continue;
            }
            let (terms, _, rhs) = rows[ri].clone();
            #[expect(
                clippy::expect_used,
                reason = "col_count[j] counted an occurrence of j in exactly this row's term list."
            )]
            let coef = terms
                .iter()
                .find(|&&(k, _)| k == j)
                .expect("occurrence counted")
                .1;
            let others: Vec<(usize, f64)> =
                terms.iter().copied().filter(|&(k, _)| k != j).collect();
            // Push the eliminated column's cost onto the row's others:
            // c_j x_j = (c_j / coef)(rhs − Σ a_k x_k).
            let ratio = obj[j] / coef;
            offset += ratio * rhs;
            for &(k, a) in &others {
                obj[k] -= ratio * a;
            }
            elims.push(Elim::FreeSingleton {
                col: j,
                coef,
                rhs,
                terms: others,
            });
            col_alive[j] = false;
            row_alive[ri] = false;
            // Occurrence counts are stale now; restart the fixpoint loop.
            changed = true;
            break;
        }
    }

    // Assemble the reduced problem.
    let mut map: Vec<Option<u32>> = vec![None; orig_cols];
    let mut lp_out = SparseLp::new();
    for j in 0..orig_cols {
        if col_alive[j] {
            map[j] = Some(lp_out.add_col(obj[j], lo[j], hi[j]) as u32);
        }
    }
    let mut row_map: Vec<Option<u32>> = vec![None; rows.len()];
    for (ri, (terms, cmp, rhs)) in rows.into_iter().enumerate() {
        if !row_alive[ri] {
            continue;
        }
        #[expect(
            clippy::expect_used,
            reason = "presolve only drops a column after eliminating it from every surviving row."
        )]
        let terms: Vec<(u32, f64)> = terms
            .into_iter()
            .map(|(j, a)| (map[j].expect("live rows reference live columns"), a))
            .collect();
        row_map[ri] = Some(lp_out.num_rows() as u32);
        lp_out.add_row(terms, cmp, rhs);
    }
    Ok(Presolved {
        lp: lp_out,
        map,
        row_map,
        elims,
        offset,
        orig_cols,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{solve, SimplexOptions};

    const INF: f64 = f64::INFINITY;

    #[test]
    fn fixed_variable_substituted() {
        let mut lp = SparseLp::new();
        lp.add_col(3.0, 2.0, 2.0);
        lp.add_col(1.0, 0.0, INF);
        lp.add_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Ge, 5.0);
        let pre = presolve(&lp).unwrap();
        assert_eq!(pre.lp.num_cols(), 1);
        assert_eq!(pre.objective_offset(), 6.0);
        assert_eq!(pre.reduced_col(0), None);
        assert_eq!(pre.reduced_col(1), Some(0));
        let sol = solve(&pre.lp, &SimplexOptions::default());
        let x = pre.postsolve(&sol.x);
        assert_eq!(x[0], 2.0);
        assert!((x[1] - 3.0).abs() < 1e-9);
        assert!((sol.objective + pre.objective_offset() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn row_singletons_become_bounds() {
        let mut lp = SparseLp::new();
        lp.add_col(-1.0, 0.0, INF);
        lp.add_row(vec![(0, 2.0)], RowCmp::Le, 3.0);
        let pre = presolve(&lp).unwrap();
        assert_eq!(pre.lp.num_rows(), 0);
        assert_eq!(pre.lp.bounds(0), (0.0, 1.5));
        // Negative coefficient flips the sense.
        let mut lp = SparseLp::new();
        lp.add_col(1.0, 0.0, INF);
        lp.add_row(vec![(0, -1.0)], RowCmp::Le, -2.0);
        let pre = presolve(&lp).unwrap();
        assert_eq!(pre.lp.bounds(0), (2.0, INF));
    }

    #[test]
    fn singleton_chain_reaches_fixpoint() {
        // Singleton fixes x, substitution empties the second row.
        let mut lp = SparseLp::new();
        lp.add_col(1.0, 0.0, INF);
        lp.add_col(1.0, 0.0, INF);
        lp.add_row(vec![(0, 1.0)], RowCmp::Eq, 4.0);
        lp.add_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Ge, 3.0);
        let pre = presolve(&lp).unwrap();
        // x fixed at 4; second row becomes y ≥ −1, i.e. a bound.
        assert_eq!(pre.lp.num_rows(), 0);
        let x = pre.postsolve(&solve(&pre.lp, &SimplexOptions::default()).x);
        assert_eq!(x[0], 4.0);
        assert_eq!(x[1], 0.0);
    }

    #[test]
    fn zero_coefficient_rows_reduce_as_empty() {
        // `0·x ≥ 1` is infeasible, not an infinite bound on x.
        let mut lp = SparseLp::new();
        lp.add_col(0.0, 0.0, INF);
        lp.add_row(vec![(0, 0.0)], RowCmp::Ge, 1.0);
        assert!(presolve(&lp).is_err());
        // `0·x ≤ 1` is vacuous and simply disappears.
        let mut lp = SparseLp::new();
        lp.add_col(1.0, 0.0, INF);
        lp.add_row(vec![(0, 0.0)], RowCmp::Le, 1.0);
        let pre = presolve(&lp).unwrap();
        assert_eq!(pre.lp.num_rows(), 0);
        assert_eq!(pre.lp.bounds(0), (0.0, INF));
    }

    #[test]
    fn contradictory_singletons_detected() {
        let mut lp = SparseLp::new();
        lp.add_col(0.0, 0.0, INF);
        lp.add_row(vec![(0, 1.0)], RowCmp::Ge, 2.0);
        lp.add_row(vec![(0, 1.0)], RowCmp::Le, 1.0);
        assert!(presolve(&lp).is_err());
    }

    #[test]
    fn violated_empty_row_detected() {
        let mut lp = SparseLp::new();
        lp.add_col(0.0, 1.0, 1.0);
        lp.add_row(vec![(0, 1.0)], RowCmp::Ge, 3.0);
        // Fixing x = 1 empties the row into 0 ≥ 2: infeasible.
        assert!(presolve(&lp).is_err());
    }

    #[test]
    fn free_singleton_eliminated_with_equality_row() {
        // min y + z s.t. y + 2x = 6 (x free, only here), z ≥ 1.
        let mut lp = SparseLp::new();
        let x = lp.add_col(0.5, -INF, INF);
        let y = lp.add_col(1.0, 0.0, INF);
        let z = lp.add_col(1.0, 1.0, INF);
        lp.add_row(vec![(y as u32, 1.0), (x as u32, 2.0)], RowCmp::Eq, 6.0);
        let _ = z;
        let pre = presolve(&lp).unwrap();
        assert_eq!(pre.reduced_col(x), None);
        let sol = solve(&pre.lp, &SimplexOptions::default());
        let full = pre.postsolve(&sol.x);
        // x reconstructed to satisfy the eliminated row exactly.
        assert!((full[y] + 2.0 * full[x] - 6.0).abs() < 1e-9);
        // Objective identical to solving the original model directly.
        let direct = solve(&lp, &SimplexOptions::default());
        assert!(
            (sol.objective + pre.objective_offset() - direct.objective).abs() < 1e-9,
            "presolved {} vs direct {}",
            sol.objective + pre.objective_offset(),
            direct.objective
        );
    }
}
