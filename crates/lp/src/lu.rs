//! Sparse LU factorisation of the simplex basis.
//!
//! Left-looking (Gilbert–Peierls-style) LU with *Markowitz-style*
//! threshold pivoting: columns are processed in ascending-nonzero-count
//! order, and within a column the pivot row is chosen among entries
//! within a magnitude threshold of the largest by the smallest static
//! row count — trading a little numerical headroom for a lot less fill,
//! which is the Markowitz bargain. Slack-heavy simplex bases factor to
//! near-identity cost under this ordering.
//!
//! The factorisation answers the two simplex kernels:
//!
//! * FTRAN — `B x = b` (entering-column transformation),
//! * BTRAN — `Bᵀ y = c` (dual pricing).
//!
//! Between refactorisations the basis is updated in *product form*
//! ([`EtaFile`]): each pivot appends one eta vector, FTRAN applies etas
//! chronologically after the LU solve, BTRAN applies their transposes
//! in reverse before it. The eta file is periodically collapsed by a
//! fresh factorisation (see `REFACTOR_INTERVAL` in the simplex driver).

/// Failure modes of a factorisation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularBasis {
    /// Elimination step at which no usable pivot remained.
    pub step: usize,
}

/// LU factors of one basis matrix `B` (column order internally permuted
/// for sparsity; solves are in the caller's logical coordinates).
#[derive(Debug, Clone)]
pub struct LuFactors {
    m: usize,
    /// Step → entries of the unit-lower column, `(original row, value)`,
    /// strictly below the pivot.
    lcols: Vec<Vec<(u32, f64)>>,
    /// Step → entries of the upper column, `(earlier step, value)`.
    ucols: Vec<Vec<(u32, f64)>>,
    /// Step → pivot value.
    udiag: Vec<f64>,
    /// Step → original row pivoted at that step.
    prow: Vec<u32>,
    /// Step → logical basis position the step's column came from.
    cperm: Vec<u32>,
    /// Original row → step it was pivoted at (inverse of `prow`).
    /// Drives the hypersparse FTRAN: an input nonzero in row `r` can
    /// only start influencing the solve at step `row_step[r]`.
    row_step: Vec<u32>,
}

/// Unrolled scatter `b[r] -= v * alpha` over a sparse column. The rows
/// of one column are distinct, so the four lanes never alias and the
/// result is bit-identical to the sequential loop (each `b[r]` receives
/// exactly one update). Gather loops (BTRAN dot products) are *not*
/// unrolled with multiple accumulators — that would change the
/// floating-point accumulation order.
#[inline]
fn axpy_scatter(entries: &[(u32, f64)], alpha: f64, b: &mut [f64]) {
    let mut chunks = entries.chunks_exact(4);
    for ch in chunks.by_ref() {
        let (r0, v0) = ch[0];
        let (r1, v1) = ch[1];
        let (r2, v2) = ch[2];
        let (r3, v3) = ch[3];
        b[r0 as usize] -= v0 * alpha;
        b[r1 as usize] -= v1 * alpha;
        b[r2 as usize] -= v2 * alpha;
        b[r3 as usize] -= v3 * alpha;
    }
    for &(r, v) in chunks.remainder() {
        b[r as usize] -= v * alpha;
    }
}

/// Reusable workspace for [`LuFactors::ftran_sparse`]. Holding it in
/// the caller amortises the heap and stamp allocations across the
/// thousands of FTRANs of one simplex run.
#[derive(Debug, Clone, Default)]
pub struct FtranScratch {
    /// Ascending step frontier of the L-pass.
    lheap: std::collections::BinaryHeap<std::cmp::Reverse<u32>>,
    /// Descending step frontier of the U-pass.
    uheap: std::collections::BinaryHeap<u32>,
    /// Per-step visited stamp (shared by both passes via `stamp`).
    lseen: Vec<u32>,
    useen: Vec<u32>,
    /// Per-row touched stamp (rows of `b` written and needing zeroing).
    rseen: Vec<u32>,
    stamp: u32,
    /// Steps reached by the L-pass, ascending (the U-pass seeds).
    lsteps: Vec<u32>,
    /// Steps solved by the U-pass (positions of `z` to scatter/zero).
    usteps: Vec<u32>,
    /// Rows of `b` written by either pass.
    rows: Vec<u32>,
    /// Dense solution accumulator in step coordinates, kept zeroed
    /// outside `usteps` between calls.
    z: Vec<f64>,
}

impl FtranScratch {
    fn prepare(&mut self, m: usize) {
        if self.lseen.len() != m {
            self.lseen = vec![0; m];
            self.useen = vec![0; m];
            self.rseen = vec![0; m];
            self.z = vec![0.0; m];
            self.stamp = 0;
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.lseen.iter_mut().for_each(|s| *s = 0);
            self.useen.iter_mut().for_each(|s| *s = 0);
            self.rseen.iter_mut().for_each(|s| *s = 0);
            self.stamp = 1;
        }
        self.lheap.clear();
        self.uheap.clear();
        self.lsteps.clear();
        self.usteps.clear();
        self.rows.clear();
    }
}

/// Magnitude threshold for pivot eligibility relative to the column max.
const PIVOT_THRESHOLD: f64 = 0.1;
/// Absolute floor below which a pivot is treated as zero.
const PIVOT_ZERO: f64 = 1e-11;

impl LuFactors {
    /// Factorises the `m × m` basis whose logical column `p` has the
    /// sparse entries `cols[p]`. `row_counts` is a static per-row
    /// nonzero estimate used as the Markowitz tie-break.
    pub fn factor(
        m: usize,
        cols: &[Vec<(u32, f64)>],
        row_counts: &[u32],
    ) -> Result<LuFactors, SingularBasis> {
        debug_assert_eq!(cols.len(), m);
        // Process sparsest columns first (slack singletons pivot for free).
        let mut order: Vec<u32> = (0..m as u32).collect();
        order.sort_by_key(|&p| (cols[p as usize].len(), p));

        let mut lu = LuFactors {
            m,
            lcols: Vec::with_capacity(m),
            ucols: Vec::with_capacity(m),
            udiag: Vec::with_capacity(m),
            prow: Vec::with_capacity(m),
            cperm: Vec::with_capacity(m),
            row_step: Vec::new(),
        };
        // Original row → step (u32::MAX = not yet pivoted).
        let mut row_step = vec![u32::MAX; m];
        // Dense accumulator + touched-row list for one column. Rows are
        // tracked with an explicit per-column stamp: testing
        // `work[r] == 0.0` instead would double-list a row whose value
        // cancelled to exactly zero and was later revisited, silently
        // duplicating L/U entries (with the small integral data of the
        // scheduling models, exact cancellation is routine).
        let mut work = vec![0.0f64; m];
        let mut touched: Vec<u32> = Vec::with_capacity(64);
        let mut mark = vec![0u32; m];

        for (k, &p) in order.iter().enumerate() {
            let stamp = k as u32 + 1;
            // Load the column.
            for &(r, v) in &cols[p as usize] {
                if mark[r as usize] != stamp {
                    mark[r as usize] = stamp;
                    touched.push(r);
                }
                work[r as usize] += v;
            }
            // Apply the previous elimination steps in order. (Steps whose
            // pivot row holds a zero are skipped — that test is what keeps
            // near-triangular bases cheap.)
            for kk in 0..k {
                let alpha = work[lu.prow[kk] as usize];
                if alpha != 0.0 {
                    for &(r, lv) in &lu.lcols[kk] {
                        if mark[r as usize] != stamp {
                            mark[r as usize] = stamp;
                            touched.push(r);
                        }
                        work[r as usize] -= lv * alpha;
                    }
                }
            }
            // Split into the U part (pivoted rows) and pivot candidates.
            let mut ucol: Vec<(u32, f64)> = Vec::new();
            let mut cands: Vec<u32> = Vec::new();
            let mut amax = 0.0f64;
            for &r in &touched {
                let v = work[r as usize];
                if v == 0.0 {
                    continue;
                }
                let step = row_step[r as usize];
                if step != u32::MAX {
                    ucol.push((step, v));
                } else {
                    cands.push(r);
                    amax = amax.max(v.abs());
                }
            }
            if amax <= PIVOT_ZERO {
                for &r in &touched {
                    work[r as usize] = 0.0;
                }
                return Err(SingularBasis { step: k });
            }
            // Threshold + Markowitz-style tie-break: among rows within
            // `PIVOT_THRESHOLD` of the largest magnitude, prefer the
            // sparsest row.
            #[expect(
                clippy::expect_used,
                reason = "the row attaining amax passes the threshold filter, so the set is non-empty."
            )]
            let pivot_row = cands
                .iter()
                .copied()
                .filter(|&r| work[r as usize].abs() >= PIVOT_THRESHOLD * amax)
                .min_by_key(|&r| (row_counts.get(r as usize).copied().unwrap_or(0), r))
                .expect("amax > 0 implies an eligible candidate");
            let d = work[pivot_row as usize];
            let mut lcol: Vec<(u32, f64)> = Vec::new();
            for &r in &cands {
                if r != pivot_row {
                    let v = work[r as usize];
                    if v != 0.0 {
                        lcol.push((r, v / d));
                    }
                }
            }
            ucol.sort_unstable_by_key(|&(s, _)| s);
            lu.lcols.push(lcol);
            lu.ucols.push(ucol);
            lu.udiag.push(d);
            lu.prow.push(pivot_row);
            lu.cperm.push(p);
            row_step[pivot_row as usize] = k as u32;
            for &r in &touched {
                work[r as usize] = 0.0;
            }
            touched.clear();
        }
        lu.row_step = row_step;
        Ok(lu)
    }

    /// Basis dimension.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Total nonzeros stored in `L` and `U` (fill diagnostics).
    pub fn fill_nnz(&self) -> usize {
        self.lcols.iter().map(Vec::len).sum::<usize>()
            + self.ucols.iter().map(Vec::len).sum::<usize>()
            + self.m
    }

    /// Solves `B x = b` in place: `b` enters in row coordinates and
    /// leaves as `x` in logical basis-position coordinates.
    pub fn ftran(&self, b: &mut [f64]) {
        debug_assert_eq!(b.len(), self.m);
        // Forward: apply the elementary lower-triangular columns.
        for k in 0..self.m {
            let alpha = b[self.prow[k] as usize];
            if alpha != 0.0 {
                axpy_scatter(&self.lcols[k], alpha, b);
            }
        }
        // Backward: column-oriented upper solve over steps.
        let mut z = vec![0.0f64; self.m];
        for k in (0..self.m).rev() {
            let zk = b[self.prow[k] as usize] / self.udiag[k];
            z[k] = zk;
            if zk != 0.0 {
                for &(kk, uv) in &self.ucols[k] {
                    b[self.prow[kk as usize] as usize] -= uv * zk;
                }
            }
        }
        // Un-permute into logical basis positions.
        for k in 0..self.m {
            b[self.cperm[k] as usize] = z[k];
        }
    }

    /// Hypersparse FTRAN: solves `B x = b` like [`LuFactors::ftran`]
    /// but visits only the elimination steps *reachable* from the
    /// nonzero `pattern` of `b` (the rows where `b` may be nonzero —
    /// `b` must be exactly zero everywhere else). Child-node re-solves
    /// and entering-column transforms have a handful of nonzeros, so
    /// the sparse traversal skips almost the whole step range.
    ///
    /// Values are **numerically identical** to the dense kernel (same
    /// steps applied, in the same ascending/descending order, with the
    /// same arithmetic): a step outside the reachable set holds an
    /// exact zero, which the dense loops skip too. (Untouched entries
    /// may differ in zero sign — `+0.0` where the dense divide would
    /// produce `-0.0` — which compares equal and is inert downstream.)
    pub fn ftran_sparse(&self, b: &mut [f64], pattern: &[u32], scratch: &mut FtranScratch) {
        use std::cmp::Reverse;
        debug_assert_eq!(b.len(), self.m);
        scratch.prepare(self.m);
        let stamp = scratch.stamp;
        // Seed the L frontier with the step of every pattern row.
        for &r in pattern {
            if scratch.rseen[r as usize] != stamp {
                scratch.rseen[r as usize] = stamp;
                scratch.rows.push(r);
            }
            let k = self.row_step[r as usize];
            if scratch.lseen[k as usize] != stamp {
                scratch.lseen[k as usize] = stamp;
                scratch.lheap.push(Reverse(k));
            }
        }
        // Forward pass, ascending steps. Fill-in from step `k` lands in
        // rows of `lcols[k]`, all pivoted at *later* steps (they were
        // unpivoted candidates when step `k` ran), so pushing them
        // keeps the frontier ahead of the cursor.
        while let Some(Reverse(k)) = scratch.lheap.pop() {
            scratch.lsteps.push(k);
            let alpha = b[self.prow[k as usize] as usize];
            if alpha != 0.0 {
                axpy_scatter(&self.lcols[k as usize], alpha, b);
                for &(r, _) in &self.lcols[k as usize] {
                    if scratch.rseen[r as usize] != stamp {
                        scratch.rseen[r as usize] = stamp;
                        scratch.rows.push(r);
                    }
                    let kk = self.row_step[r as usize];
                    debug_assert!(kk > k);
                    if scratch.lseen[kk as usize] != stamp {
                        scratch.lseen[kk as usize] = stamp;
                        scratch.lheap.push(Reverse(kk));
                    }
                }
            }
        }
        // Backward pass, descending steps; `ucols[k]` references
        // strictly earlier steps, so the max-heap frontier stays behind
        // the cursor.
        for &k in &scratch.lsteps {
            if scratch.useen[k as usize] != stamp {
                scratch.useen[k as usize] = stamp;
                scratch.uheap.push(k);
            }
        }
        while let Some(k) = scratch.uheap.pop() {
            scratch.usteps.push(k);
            let zk = b[self.prow[k as usize] as usize] / self.udiag[k as usize];
            scratch.z[k as usize] = zk;
            if zk != 0.0 {
                for &(kk, uv) in &self.ucols[k as usize] {
                    let rr = self.prow[kk as usize];
                    b[rr as usize] -= uv * zk;
                    if scratch.rseen[rr as usize] != stamp {
                        scratch.rseen[rr as usize] = stamp;
                        scratch.rows.push(rr);
                    }
                    if scratch.useen[kk as usize] != stamp {
                        scratch.useen[kk as usize] = stamp;
                        scratch.uheap.push(kk);
                    }
                }
            }
        }
        // Clear the residual row values, then scatter the solution into
        // logical basis positions (zeroing `z` again for the next call).
        for &r in &scratch.rows {
            b[r as usize] = 0.0;
        }
        for &k in &scratch.usteps {
            b[self.cperm[k as usize] as usize] = scratch.z[k as usize];
            scratch.z[k as usize] = 0.0;
        }
    }

    /// Solves `Bᵀ y = c` in place: `c` enters in logical basis-position
    /// coordinates and leaves as `y` in row coordinates.
    pub fn btran(&self, c: &mut [f64]) {
        debug_assert_eq!(c.len(), self.m);
        // Permute into step order and solve Uᵀ v = w forward.
        let mut v = vec![0.0f64; self.m];
        for k in 0..self.m {
            let mut s = c[self.cperm[k] as usize];
            for &(kk, uv) in &self.ucols[k] {
                s -= uv * v[kk as usize];
            }
            v[k] = s / self.udiag[k];
        }
        // Scatter to row space and apply Lᵀ inverses in reverse order.
        for k in 0..self.m {
            c[self.prow[k] as usize] = v[k];
        }
        for k in (0..self.m).rev() {
            let mut s = 0.0;
            for &(r, lv) in &self.lcols[k] {
                s += lv * c[r as usize];
            }
            c[self.prow[k] as usize] -= s;
        }
    }
}

/// One product-form update: basis position `p` was replaced by a column
/// whose FTRAN image is `w` (sparse, in basis-position coordinates).
#[derive(Debug, Clone)]
struct Eta {
    p: u32,
    wp: f64,
    /// Entries of `w` excluding position `p`.
    rest: Vec<(u32, f64)>,
}

/// The eta file: product-form updates layered over [`LuFactors`].
#[derive(Debug, Clone, Default)]
pub struct EtaFile {
    etas: Vec<Eta>,
}

impl EtaFile {
    /// Number of updates since the last refactorisation.
    pub fn len(&self) -> usize {
        self.etas.len()
    }

    /// Whether no updates are pending.
    pub fn is_empty(&self) -> bool {
        self.etas.is_empty()
    }

    /// Discards all updates (after a refactorisation).
    pub fn clear(&mut self) {
        self.etas.clear();
    }

    /// Records the replacement of basis position `p` by a column with
    /// FTRAN image `w` (dense). Returns `false` when the pivot element
    /// is numerically too small to absorb — absolutely or relative to
    /// the column's largest entry, since `x_p / w_p` amplifies error by
    /// `‖w‖/|w_p|` on every later application (caller must
    /// refactorise instead).
    pub fn push(&mut self, p: usize, w: &[f64]) -> bool {
        let wp = w[p];
        let wmax = w.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        if wp.abs() < 1e-9 || wp.abs() < 1e-6 * wmax {
            return false;
        }
        let rest: Vec<(u32, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != p && v != 0.0)
            .map(|(i, &v)| (i as u32, v))
            .collect();
        self.etas.push(Eta {
            p: p as u32,
            wp,
            rest,
        });
        true
    }

    /// Applies the updates to an FTRAN result (chronological order).
    /// Etas whose pivot position holds an exact zero are skipped whole
    /// (`0 / wp = ±0` and the scatter would be a no-op) — on hypersparse
    /// child-node FTRANs most of the file short-circuits this way.
    pub fn ftran(&self, x: &mut [f64]) {
        for eta in &self.etas {
            let p = eta.p as usize;
            if x[p] == 0.0 {
                continue;
            }
            let xp = x[p] / eta.wp;
            x[p] = xp;
            if xp != 0.0 {
                axpy_scatter(&eta.rest, xp, x);
            }
        }
    }

    /// Applies the transposed updates to a BTRAN input (reverse order).
    pub fn btran(&self, c: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let p = eta.p as usize;
            let mut s = 0.0;
            for &(i, wi) in &eta.rest {
                s += wi * c[i as usize];
            }
            c[p] = (c[p] - s) / eta.wp;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_cols(a: &[&[f64]]) -> Vec<Vec<(u32, f64)>> {
        let m = a.len();
        (0..m)
            .map(|j| {
                (0..m)
                    .filter(|&i| a[i][j] != 0.0)
                    .map(|i| (i as u32, a[i][j]))
                    .collect()
            })
            .collect()
    }

    fn mat_vec(a: &[&[f64]], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(r, v)| r * v).sum())
            .collect()
    }

    #[test]
    fn ftran_btran_roundtrip() {
        let a: Vec<&[f64]> = vec![&[2.0, 1.0, 0.0], &[0.0, 0.0, 3.0], &[4.0, 0.0, 1.0]];
        let cols = dense_cols(&a);
        let lu = LuFactors::factor(3, &cols, &[2, 1, 2]).unwrap();
        // FTRAN: pick x, compute b = A x, solve, compare.
        let x = vec![1.0, -2.0, 0.5];
        let mut b = mat_vec(&a, &x);
        lu.ftran(&mut b);
        for (got, want) in b.iter().zip(&x) {
            assert!((got - want).abs() < 1e-12, "{b:?} vs {x:?}");
        }
        // BTRAN: y with Aᵀ y = c ⇔ c = Aᵀ y.
        let y = vec![0.3, 2.0, -1.0];
        let mut c = vec![0.0; 3];
        for i in 0..3 {
            for j in 0..3 {
                c[j] += a[i][j] * y[i];
            }
        }
        lu.btran(&mut c);
        for (got, want) in c.iter().zip(&y) {
            assert!((got - want).abs() < 1e-12, "{c:?} vs {y:?}");
        }
    }

    #[test]
    fn sparse_ftran_matches_dense() {
        // A 5×5 basis with genuine fill, solved for every single-entry
        // RHS and a couple of multi-entry ones; the hypersparse kernel
        // must agree with the dense kernel entry-for-entry.
        let a: Vec<&[f64]> = vec![
            &[2.0, 1.0, 0.0, 0.0, 0.0],
            &[0.0, 3.0, 1.0, 0.0, 0.0],
            &[4.0, 0.0, 1.0, 0.5, 0.0],
            &[0.0, 2.0, 0.0, 1.0, 1.0],
            &[1.0, 0.0, 0.0, 0.0, 2.0],
        ];
        let cols = dense_cols(&a);
        let lu = LuFactors::factor(5, &cols, &[2, 2, 3, 2, 2]).unwrap();
        let mut scratch = FtranScratch::default();
        let mut cases: Vec<Vec<(usize, f64)>> = (0..5).map(|r| vec![(r, 1.0 + r as f64)]).collect();
        cases.push(vec![(0, 1.5), (3, -2.0)]);
        cases.push(vec![(1, -1.0), (2, 4.0), (4, 0.25)]);
        for case in cases {
            let mut dense = vec![0.0f64; 5];
            let mut sparse = vec![0.0f64; 5];
            let mut pattern = Vec::new();
            for &(r, v) in &case {
                dense[r] = v;
                sparse[r] = v;
                pattern.push(r as u32);
            }
            lu.ftran(&mut dense);
            lu.ftran_sparse(&mut sparse, &pattern, &mut scratch);
            for (d, s) in dense.iter().zip(&sparse) {
                assert!(d == s, "dense {dense:?} vs sparse {sparse:?}");
            }
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let a: Vec<&[f64]> = vec![&[1.0, 2.0], &[2.0, 4.0]];
        let cols = dense_cols(&a);
        assert!(LuFactors::factor(2, &cols, &[2, 2]).is_err());
    }

    #[test]
    fn eta_updates_track_column_replacement() {
        // B = I, replace column 1 with a = (1, 2, 1)ᵀ.
        let a: Vec<&[f64]> = vec![&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]];
        let lu = LuFactors::factor(3, &dense_cols(&a), &[1, 1, 1]).unwrap();
        let mut etas = EtaFile::default();
        let mut w = vec![1.0, 2.0, 1.0]; // B⁻¹ a for B = I
        lu.ftran(&mut w);
        etas.ftran(&mut w); // no-op, file empty
        assert!(etas.push(1, &w));
        // New basis B' = [e0, a, e2]. Check FTRAN against a direct solve:
        // B' x = b with b = (3, 4, 5)ᵀ ⇒ x = (3 − 4/2·1, 2, 5 − 2) = (1, 2, 3).
        let mut b = vec![3.0, 4.0, 5.0];
        lu.ftran(&mut b);
        etas.ftran(&mut b);
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
        assert!((b[2] - 3.0).abs() < 1e-12);
        // BTRAN: B'ᵀ y = c with c = (1, 1, 1)ᵀ. Row 2 of B'ᵀ is aᵀ:
        // y0 = 1, y2 = 1, y0 + 2 y1 + y2 = 1 ⇒ y1 = −1/2.
        let mut c = vec![1.0, 1.0, 1.0];
        etas.btran(&mut c);
        lu.btran(&mut c);
        assert!((c[0] - 1.0).abs() < 1e-12);
        assert!((c[1] + 0.5).abs() < 1e-12);
        assert!((c[2] - 1.0).abs() < 1e-12);
        etas.clear();
        assert!(etas.is_empty());
    }
}
