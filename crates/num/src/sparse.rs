//! Sparse matrices in triplet and compressed-sparse-column form, with a
//! left-looking LU factorization (Gilbert–Peierls style), partial pivoting,
//! and a symbolic/numeric split for pattern-reusing refactorization.
//!
//! MNA matrices of circuits are extremely sparse (a handful of entries per
//! row) and — crucially — their sparsity pattern is *fixed for a given
//! circuit*: every timestep and every Newton iteration stamps the same
//! coordinates with different values. The factorization is therefore split
//! KLU-style:
//!
//! - the first [`Csc::lu`] performs the full pivot search and records the
//!   elimination order as a [`SparseSymbolic`];
//! - subsequent same-pattern factorizations go through
//!   [`SparseLu::refactor`] or [`Csc::lu_with`], which replay the stored
//!   pivot order without searching and reuse all factor allocations.
//!
//! Replaying the same pivot order over the same values performs the exact
//! same floating-point operations in the same order, so a refactorization of
//! an unchanged matrix reproduces the from-scratch factors bit-for-bit — a
//! property the engine's tests rely on. A stale pivot order that turns
//! numerically unacceptable on new values is reported as
//! [`NumError::Singular`] so callers can fall back to a fresh pivot search.
//!
//! Every solve runs one triangular-solve kernel, the `N`-lane
//! [`SparseLu::solve_arr`]: the allocating [`SparseLu::solve`] and the
//! zero-allocation [`SparseLu::solve_into`] are its width-1 case, and
//! [`SparseLu::solve_multi_lanes`] dispatches RHS-interleaved blocks onto
//! it, walking each factor column once per *block* instead of once per
//! right-hand side — where the transient-sensitivity and LPTV layers get
//! their throughput.

use crate::error::NumError;
use crate::lanes::as_lane_blocks_mut;

/// Relative pivot-acceptability threshold for fixed-order refactorization:
/// a replayed pivot smaller than this fraction of its column's magnitude is
/// rejected (the caller should re-run the pivot search).
const REFACTOR_PIVOT_RTOL: f64 = 1e-10;

/// Default Markowitz threshold-pivoting parameter: a candidate pivot must be
/// at least this fraction of its column's largest active magnitude. Large
/// enough to keep replayed orders well clear of the
/// `REFACTOR_PIVOT_RTOL` stale-pivot guard, small enough to let the
/// fill-minimizing choice win.
pub const DEFAULT_MARKOWITZ_TAU: f64 = 0.1;

/// A sparse-matrix builder accumulating `(row, col, value)` triplets.
///
/// Duplicate coordinates are summed when compressed, matching the way MNA
/// stamps accumulate conductances.
///
/// # Examples
///
/// ```
/// use tranvar_num::sparse::Triplets;
/// let mut t = Triplets::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 2.0); // duplicates sum
/// let csc = t.to_csc();
/// assert_eq!(csc.get(0, 0), 3.0);
/// ```
#[derive(Clone, Debug)]
pub struct Triplets {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Triplets {
    /// Creates an empty builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Triplets {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Appends a triplet.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "triplet out of range");
        self.entries.push((row, col, value));
    }

    /// Overwrites the value of the `k`-th pushed triplet, which must sit at
    /// `(row, col)` (checked in debug builds): the in-place refresh of a
    /// builder whose pattern is fixed.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    #[inline]
    pub fn set(&mut self, k: usize, row: usize, col: usize, value: f64) {
        let e = &mut self.entries[k];
        debug_assert!(
            (e.0, e.1) == (row, col),
            "triplet {k} sits at {:?}, not {:?}",
            (e.0, e.1),
            (row, col)
        );
        e.2 = value;
    }

    /// Number of accumulated (pre-compression) triplets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Removes all triplets, retaining the allocation (hot-loop reuse).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterates over the raw (row, col, value) triplets.
    pub fn iter(&self) -> impl Iterator<Item = &(usize, usize, f64)> {
        self.entries.iter()
    }

    /// Returns `true` if no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Copies another builder's shape and entries into this one, retaining
    /// this builder's allocation (hot-loop assembly reuse).
    pub fn copy_from(&mut self, other: &Triplets) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.entries.clear();
        self.entries.extend_from_slice(&other.entries);
    }

    /// Compresses to CSC, summing duplicates.
    pub fn to_csc(&self) -> Csc {
        // Count entries per column.
        let mut counts = vec![0usize; self.cols];
        for &(_, c, _) in &self.entries {
            counts[c] += 1;
        }
        let mut col_ptr = vec![0usize; self.cols + 1];
        for c in 0..self.cols {
            col_ptr[c + 1] = col_ptr[c] + counts[c];
        }
        let nnz = col_ptr[self.cols];
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        let mut next = col_ptr.clone();
        for &(r, c, v) in &self.entries {
            let slot = next[c];
            row_idx[slot] = r;
            values[slot] = v;
            next[c] += 1;
        }
        // Sort each column by row and merge duplicates.
        let mut out_ptr = vec![0usize; self.cols + 1];
        let mut out_rows = Vec::with_capacity(nnz);
        let mut out_vals = Vec::with_capacity(nnz);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for c in 0..self.cols {
            scratch.clear();
            for k in col_ptr[c]..col_ptr[c + 1] {
                scratch.push((row_idx[k], values[k]));
            }
            scratch.sort_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < scratch.len() {
                let r = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == r {
                    v += scratch[j].1;
                    j += 1;
                }
                out_rows.push(r);
                out_vals.push(v);
                i = j;
            }
            out_ptr[c + 1] = out_rows.len();
        }
        Csc {
            rows: self.rows,
            cols: self.cols,
            col_ptr: out_ptr,
            row_idx: out_rows,
            values: out_vals,
        }
    }
}

/// A compressed-sparse-column matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Csc {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl Csc {
    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Borrows the stored values in column-major pattern order (pairs with
    /// the fixed pattern for cheap change detection between refills).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Returns the entry at `(row, col)`, or zero if not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.slot(row, col).map_or(0.0, |k| self.values[k])
    }

    /// Mutably borrows the stored values in column-major pattern order
    /// (numeric-only refills: the pattern stays fixed, so a caller that
    /// knows each entry's [`Csc::slot`] rewrites values without a search).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The index into [`Csc::values`] of the stored entry at `(row, col)`,
    /// or `None` if that coordinate is not stored.
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let lo = self.col_ptr[col];
        let hi = self.col_ptr[col + 1];
        self.row_idx[lo..hi]
            .binary_search(&row)
            .ok()
            .map(|k| lo + k)
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mat_vec_into(x, &mut y);
        y
    }

    /// Matrix–vector product `A·x` into a caller-provided buffer
    /// (zero-allocation hot path).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn mat_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mat_vec dimension mismatch");
        assert_eq!(y.len(), self.rows, "mat_vec output dimension mismatch");
        y.iter_mut().for_each(|v| *v = 0.0);
        for c in 0..self.cols {
            let xc = x[c];
            if xc == 0.0 {
                continue;
            }
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                y[self.row_idx[k]] += self.values[k] * xc;
            }
        }
    }

    /// Matrix product against an *interleaved* block: `x` holds `width`
    /// right-hand sides row-major (`x[c·width + k]` is row `c` of RHS `k`),
    /// and `y` receives `A·X` in the same layout. The interleaved layout
    /// makes the inner update a contiguous `width`-wide axpy, which
    /// vectorizes — the preferred layout for wide sensitivity batches.
    ///
    /// Per-RHS results are bit-for-bit identical to [`Csc::mat_vec`].
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn mat_vec_interleaved(&self, x: &[f64], y: &mut [f64], width: usize) {
        assert_eq!(x.len(), self.cols * width, "interleaved x length mismatch");
        assert_eq!(y.len(), self.rows * width, "interleaved y length mismatch");
        y.iter_mut().for_each(|v| *v = 0.0);
        for c in 0..self.cols {
            let xc = &x[c * width..(c + 1) * width];
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                let v = self.values[k];
                let yr = &mut y[self.row_idx[k] * width..(self.row_idx[k] + 1) * width];
                for (yi, xi) in yr.iter_mut().zip(xc.iter()) {
                    *yi += v * *xi;
                }
            }
        }
    }

    /// Converts to dense form (small systems, tests, monodromy assembly).
    pub fn to_dense(&self) -> crate::dense::DMat {
        let mut m = crate::dense::DMat::zeros(self.rows, self.cols);
        for c in 0..self.cols {
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                m[(self.row_idx[k], c)] = self.values[k];
            }
        }
        m
    }

    /// Factorizes `A = P⁻¹·L·U` with partial pivoting (left-looking,
    /// Gilbert–Peierls with a dense working column; adequate for the
    /// moderate dimensions of circuit Jacobians). This is the *analyzing*
    /// factorization: it performs the pivot search and records the
    /// elimination order for later [`SparseLu::refactor`] /
    /// [`Csc::lu_with`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::NotSquare`] or [`NumError::Singular`].
    pub fn lu(&self) -> Result<SparseLu, NumError> {
        let mut f = SparseLu::empty(self.rows);
        f.factor_core(self, None)?;
        Ok(f)
    }

    /// Numeric factorization replaying a previously recorded pivot order
    /// (see [`SparseLu::symbolic`]). Skips the pivot search entirely; on the
    /// same values this reproduces [`Csc::lu`] bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Singular`] if a replayed pivot is numerically
    /// unacceptable on the new values — re-run [`Csc::lu`] to re-pivot.
    pub fn lu_with(&self, symbolic: &SparseSymbolic) -> Result<SparseLu, NumError> {
        if symbolic.perm.len() != self.rows {
            return Err(NumError::DimensionMismatch {
                expected: self.rows,
                actual: symbolic.perm.len(),
            });
        }
        let mut f = SparseLu::empty(self.rows);
        // Borrow the recorded orders directly — no per-call clone on the
        // per-timestep refactorization path.
        f.factor_core(self, Some((&symbolic.perm, &symbolic.col_order)))?;
        Ok(f)
    }

    /// Computes a Markowitz fill-reducing pivot ordering with threshold
    /// pivoting (`tau` per [`DEFAULT_MARKOWITZ_TAU`]): each elimination step
    /// picks the candidate `(row, col)` minimizing
    /// `(row_nnz − 1)·(col_nnz − 1)` among entries with magnitude at least
    /// `tau` times the column's largest active magnitude. Runs a
    /// right-looking elimination on a dense working copy — O(n³) worst case,
    /// paid once per sparsity pattern, amortized over every replayed
    /// refactorization.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::NotSquare`], [`NumError::Singular`] when no
    /// admissible pivot exists at some step, or [`NumError::NonFinite`].
    pub fn analyze_markowitz(&self, tau: f64) -> Result<SparseSymbolic, NumError> {
        if self.rows != self.cols {
            return Err(NumError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let n = self.rows;
        let mut w = vec![0.0; n * n];
        for c in 0..n {
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                w[self.row_idx[k] * n + c] = self.values[k];
            }
        }
        let mut row_active = vec![true; n];
        let mut col_active = vec![true; n];
        let mut row_cnt = vec![0usize; n];
        let mut col_cnt = vec![0usize; n];
        let mut perm = Vec::with_capacity(n);
        let mut col_order = Vec::with_capacity(n);
        for _step in 0..n {
            // Active nonzero counts per row and column.
            row_cnt.iter_mut().for_each(|v| *v = 0);
            col_cnt.iter_mut().for_each(|v| *v = 0);
            for r in 0..n {
                if !row_active[r] {
                    continue;
                }
                for c in 0..n {
                    if col_active[c] && w[r * n + c] != 0.0 {
                        row_cnt[r] += 1;
                        col_cnt[c] += 1;
                    }
                }
            }
            // Best admissible pivot: minimal Markowitz score, ties broken by
            // larger magnitude, then lower (row, col) for determinism.
            let mut best: Option<(usize, usize, usize, f64)> = None;
            for c in 0..n {
                if !col_active[c] {
                    continue;
                }
                let mut colmax = 0.0f64;
                for r in 0..n {
                    if !row_active[r] {
                        continue;
                    }
                    let m = w[r * n + c].abs();
                    if !m.is_finite() {
                        return Err(NumError::NonFinite { col: c });
                    }
                    colmax = colmax.max(m);
                }
                if colmax == 0.0 {
                    continue;
                }
                let thresh = tau * colmax;
                for r in 0..n {
                    if !row_active[r] {
                        continue;
                    }
                    let m = w[r * n + c].abs();
                    if m == 0.0 || m < thresh {
                        continue;
                    }
                    let score = (row_cnt[r] - 1) * (col_cnt[c] - 1);
                    let better = match best {
                        None => true,
                        Some((bs, _, _, bm)) => score < bs || (score == bs && m > bm),
                    };
                    if better {
                        best = Some((score, r, c, m));
                    }
                }
            }
            let (_, pr, pc, _) = best.ok_or(NumError::Singular { col: perm.len() })?;
            perm.push(pr);
            col_order.push(pc);
            row_active[pr] = false;
            col_active[pc] = false;
            // Right-looking update of the active submatrix.
            let pivot = w[pr * n + pc];
            for r in 0..n {
                if !row_active[r] || w[r * n + pc] == 0.0 {
                    continue;
                }
                let f = w[r * n + pc] / pivot;
                for c in 0..n {
                    if col_active[c] {
                        let u = w[pr * n + c];
                        if u != 0.0 {
                            w[r * n + c] -= f * u;
                        }
                    }
                }
            }
        }
        Ok(SparseSymbolic { perm, col_order })
    }

    /// Analyzes with [`Csc::analyze_markowitz`] at the default threshold and
    /// factors with the resulting fill-reducing order.
    ///
    /// # Errors
    ///
    /// Propagates analysis and factorization errors.
    pub fn lu_markowitz(&self) -> Result<SparseLu, NumError> {
        let sym = self.analyze_markowitz(DEFAULT_MARKOWITZ_TAU)?;
        self.lu_with(&sym)
    }
}

/// The reusable symbolic part of a sparse LU: the pivot (elimination) order
/// discovered by an analyzing factorization. For a fixed MNA pattern this is
/// computed once per circuit and replayed every timestep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseSymbolic {
    perm: Vec<usize>,
    /// Column elimination order: `col_order[step]` is the original column
    /// eliminated at `step`. Empty means natural order (step == column),
    /// the bit-compat replay path.
    col_order: Vec<usize>,
}

impl SparseSymbolic {
    /// Dimension of the analyzed system.
    pub fn n(&self) -> usize {
        self.perm.len()
    }

    /// The recorded pivot order: `order()[j]` is the original row eliminated
    /// at step `j`.
    pub fn order(&self) -> &[usize] {
        &self.perm
    }

    /// The recorded column elimination order; empty for natural order.
    pub fn col_order(&self) -> &[usize] {
        &self.col_order
    }

    /// `true` when this analysis carries a fill-reducing column order (from
    /// [`Csc::analyze_markowitz`]) rather than the natural one.
    pub fn is_ordered(&self) -> bool {
        !self.col_order.is_empty()
    }
}

/// A sparse LU factorization produced by [`Csc::lu`].
///
/// Factor storage is flattened CSC/CSR-style: each factor is one contiguous
/// index array plus one contiguous value array addressed through an offset
/// table, so numeric refactorizations and triangular solves stream through
/// two flat arrays instead of chasing one heap allocation per column.
#[derive(Clone, Debug)]
pub struct SparseLu {
    n: usize,
    /// perm[step] = original row chosen as pivot for elimination step `step`.
    perm: Vec<usize>,
    /// col_order[step] = original column eliminated at `step`; empty means
    /// natural order (step == column).
    col_order: Vec<usize>,
    /// Flattened L (strictly below-diagonal, unit diagonal implicit): step
    /// `j`'s column occupies `l_idx/l_val[l_ptr[j]..l_ptr[j+1]]` as
    /// (original row, multiplier) pairs sorted by row.
    l_ptr: Vec<usize>,
    l_idx: Vec<usize>,
    l_val: Vec<f64>,
    /// Flattened U in pivot-step coordinates: row `j` occupies
    /// `u_idx/u_val[u_ptr[j]..u_ptr[j+1]]` as (step, value) pairs sorted
    /// ascending, diagonal at step == j.
    u_ptr: Vec<usize>,
    u_idx: Vec<usize>,
    u_val: Vec<f64>,
    /// Per-step build staging, retained across refactorizations. U rows
    /// receive entries out of row order during the left-looking sweep, so
    /// they are staged here and flattened once per factorization.
    l_build: Vec<Vec<(usize, f64)>>,
    u_build: Vec<Vec<(usize, f64)>>,
}

impl SparseLu {
    fn empty(n: usize) -> Self {
        SparseLu {
            n,
            perm: Vec::new(),
            col_order: Vec::new(),
            l_ptr: Vec::new(),
            l_idx: Vec::new(),
            l_val: Vec::new(),
            u_ptr: Vec::new(),
            u_idx: Vec::new(),
            u_val: Vec::new(),
            l_build: Vec::new(),
            u_build: Vec::new(),
        }
    }

    /// Dimension of the factored system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored factor entries (L strictly-lower + U including the
    /// diagonal) — the fill-in metric the ordering benchmarks report.
    pub fn factor_nnz(&self) -> usize {
        self.l_val.len() + self.u_val.len()
    }

    /// Extracts the reusable symbolic analysis (pivot and column order) so
    /// future same-pattern factorizations can skip the pivot search.
    pub fn symbolic(&self) -> SparseSymbolic {
        SparseSymbolic {
            perm: self.perm.clone(),
            col_order: self.col_order.clone(),
        }
    }

    /// Numeric-only refactorization in place: replays this factorization's
    /// pivot order on the new values of `a` (which must have the same shape;
    /// the usual caller passes the same-pattern matrix of the next timestep)
    /// and reuses every factor allocation. On unchanged values the result is
    /// bit-for-bit identical to a from-scratch [`Csc::lu`].
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Singular`] if a replayed pivot is numerically
    /// unacceptable; the factorization contents are unspecified afterwards
    /// and the caller should fall back to a fresh [`Csc::lu`].
    pub fn refactor(&mut self, a: &Csc) -> Result<(), NumError> {
        if a.rows != self.n || a.cols != self.n {
            return Err(NumError::DimensionMismatch {
                expected: self.n,
                actual: a.rows,
            });
        }
        let perm = std::mem::take(&mut self.perm);
        let cord = std::mem::take(&mut self.col_order);
        let result = self.factor_core(a, Some((&perm, &cord)));
        if result.is_err() {
            // Leave well-formed (if useless) orders behind.
            self.perm = perm;
            self.col_order = cord;
        }
        result
    }

    /// The shared factorization kernel. With `fixed: None` it searches for
    /// pivots in natural column order (analyzing factorization); with
    /// `fixed: Some((perm, col_order))` it replays the given pivot order —
    /// and, when `col_order` is non-empty, the given column elimination
    /// order (numeric refactorization). Existing factor storage is cleared
    /// and reused.
    fn factor_core(
        &mut self,
        a: &Csc,
        fixed: Option<(&[usize], &[usize])>,
    ) -> Result<(), NumError> {
        if a.rows != a.cols {
            return Err(NumError::NotSquare {
                rows: a.rows,
                cols: a.cols,
            });
        }
        let n = a.rows;
        self.n = n;
        // pinv maps original row -> pivot step (usize::MAX while unassigned).
        let mut pinv = vec![usize::MAX; n];
        self.perm.clear();
        self.perm.resize(n, usize::MAX);
        self.col_order.clear();
        let fixed_cols: &[usize] = match fixed {
            Some((_, cord)) if !cord.is_empty() => {
                if cord.len() != n {
                    return Err(NumError::DimensionMismatch {
                        expected: n,
                        actual: cord.len(),
                    });
                }
                self.col_order.extend_from_slice(cord);
                cord
            }
            _ => &[],
        };

        // Clear the build staging, retaining inner allocations.
        for c in self.l_build.iter_mut() {
            c.clear();
        }
        for c in self.u_build.iter_mut() {
            c.clear();
        }
        self.l_build.resize_with(n, Vec::new);
        self.u_build.resize_with(n, Vec::new);
        self.l_build.truncate(n);
        self.u_build.truncate(n);

        // Dense scatter workspace indexed by *original* row.
        let mut work = vec![0.0; n];
        let mut touched: Vec<usize> = Vec::with_capacity(n);

        for step in 0..n {
            // Original column eliminated at this step.
            let col = if fixed_cols.is_empty() {
                step
            } else {
                fixed_cols[step]
            };
            // Scatter column `col` of A into the workspace.
            touched.clear();
            for k in a.col_ptr[col]..a.col_ptr[col + 1] {
                let r = a.row_idx[k];
                work[r] = a.values[k];
                touched.push(r);
            }
            // Left-looking update: for each prior step j (in order), if the
            // workspace has a value at the pivot row of j, eliminate with
            // column j of L. Processing j in increasing order is a correct
            // topological order for the dense-workspace variant.
            for j in 0..step {
                let pr = self.perm[j]; // original row holding pivot j
                let ujc = work[pr];
                if ujc == 0.0 {
                    continue;
                }
                // Record U entry (pivot row j, pivot-step coordinate `step`).
                self.u_build[j].push((step, ujc));
                // work -= ujc * L[:, j]
                for &(orig_row, lv) in &self.l_build[j] {
                    if work[orig_row] == 0.0 {
                        touched.push(orig_row);
                    }
                    work[orig_row] -= lv * ujc;
                }
                work[pr] = 0.0;
            }
            // Pivot selection: replay a fixed order, or search for the
            // largest magnitude among unassigned original rows.
            let prow = match fixed {
                Some((order, _)) => {
                    let prow = order[step];
                    let pmag = work[prow].abs();
                    if !pmag.is_finite() {
                        return Err(NumError::NonFinite { col });
                    }
                    if pmag == 0.0 {
                        return Err(NumError::Singular { col });
                    }
                    // Guard against a stale pivot order that has become
                    // numerically poor on the new values. A non-finite
                    // value anywhere among the candidate rows is reported
                    // as such, not folded into "singular".
                    let mut colmax = 0.0f64;
                    for &r in touched.iter() {
                        if pinv[r] == usize::MAX {
                            let m = work[r].abs();
                            if !m.is_finite() {
                                return Err(NumError::NonFinite { col });
                            }
                            colmax = colmax.max(m);
                        }
                    }
                    if pmag < REFACTOR_PIVOT_RTOL * colmax {
                        return Err(NumError::Singular { col });
                    }
                    prow
                }
                None => {
                    let mut prow = usize::MAX;
                    let mut pmag = 0.0;
                    for &r in touched.iter() {
                        if pinv[r] != usize::MAX {
                            continue;
                        }
                        let m = work[r].abs();
                        if !m.is_finite() {
                            return Err(NumError::NonFinite { col });
                        }
                        if m > pmag {
                            pmag = m;
                            prow = r;
                        }
                    }
                    // `touched` can contain duplicates/stale zero entries;
                    // also scan all unassigned rows if nothing usable was
                    // touched.
                    if prow == usize::MAX || pmag == 0.0 {
                        for r in 0..n {
                            if pinv[r] == usize::MAX {
                                let m = work[r].abs();
                                if !m.is_finite() {
                                    return Err(NumError::NonFinite { col });
                                }
                                if m > pmag {
                                    pmag = m;
                                    prow = r;
                                }
                            }
                        }
                    }
                    if prow == usize::MAX || pmag == 0.0 {
                        return Err(NumError::Singular { col });
                    }
                    prow
                }
            };
            let pivot = work[prow];
            self.perm[step] = prow;
            pinv[prow] = step;

            // Stage L column (unit diagonal implicit) and clear workspace.
            let lcol = &mut self.l_build[step];
            for &r in touched.iter() {
                let v = work[r];
                if v == 0.0 {
                    continue;
                }
                if r == prow {
                    continue;
                }
                if pinv[r] == usize::MAX {
                    // below-diagonal: belongs to L (scaled)
                    lcol.push((r, v / pivot));
                } else {
                    // This row was already pivotal: belongs to U.
                    self.u_build[pinv[r]].push((step, v));
                }
                work[r] = 0.0;
            }
            work[prow] = 0.0;
            // Deduplicate L entries (duplicate `touched` rows leave zeros
            // behind, which we already skipped; dedupe defensively).
            lcol.sort_by_key(|&(r, _)| r);
            lcol.dedup_by(|a, b| {
                if a.0 == b.0 {
                    b.1 += a.1;
                    true
                } else {
                    false
                }
            });
            self.u_build[step].push((step, pivot));
        }
        // Sort U rows by pivot-step position for deterministic solves, then
        // flatten both factors into the contiguous offset-table storage.
        for urow in self.u_build.iter_mut() {
            urow.sort_by_key(|&(s, _)| s);
            urow.dedup_by(|a, b| {
                if a.0 == b.0 {
                    b.1 += a.1;
                    true
                } else {
                    false
                }
            });
        }
        self.l_ptr.clear();
        self.l_idx.clear();
        self.l_val.clear();
        self.l_ptr.push(0);
        for lcol in self.l_build.iter() {
            for &(r, v) in lcol.iter() {
                self.l_idx.push(r);
                self.l_val.push(v);
            }
            self.l_ptr.push(self.l_idx.len());
        }
        self.u_ptr.clear();
        self.u_idx.clear();
        self.u_val.clear();
        self.u_ptr.push(0);
        for urow in self.u_build.iter() {
            for &(s, v) in urow.iter() {
                self.u_idx.push(s);
                self.u_val.push(v);
            }
            self.u_ptr.push(self.u_idx.len());
        }
        Ok(())
    }

    /// The recorded pivot order: `perm()[j]` is the original row eliminated
    /// at step `j`.
    #[inline]
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// The column elimination order: `col_order()[j]` is the original
    /// column eliminated at step `j`; empty for natural order.
    #[inline]
    pub fn col_order(&self) -> &[usize] {
        &self.col_order
    }

    /// Step `j`'s column of the unit-lower factor `L` (diagonal implicit):
    /// original row indices and multipliers, sorted by row.
    #[inline]
    pub fn l_col(&self, j: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.l_ptr[j], self.l_ptr[j + 1]);
        (&self.l_idx[lo..hi], &self.l_val[lo..hi])
    }

    /// Pivot row `j` of the upper factor `U` in pivot-step coordinates:
    /// step indices and values sorted ascending, diagonal at step `j`.
    #[inline]
    pub fn u_row(&self, j: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.u_ptr[j], self.u_ptr[j + 1]);
        (&self.u_idx[lo..hi], &self.u_val[lo..hi])
    }

    /// Solves `A·x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.n()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.solve_into(b, &mut out, &mut vec![0.0; self.n]);
        out
    }

    /// Solves `A·x = b` into `out`, using `scratch` as workspace — the
    /// zero-allocation hot path for per-timestep solves. This is the
    /// width-1 lane solve [`SparseLu::solve_arr`]`::<1>`, so its bits are
    /// exactly those of every lane of a multi-RHS solve.
    ///
    /// # Panics
    ///
    /// Panics if any slice length differs from `self.n()`.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        out.copy_from_slice(b);
        self.solve_arr::<1>(as_lane_blocks_mut(out), as_lane_blocks_mut(scratch));
    }

    /// Solves `A·X = B` for an `N`-lane RHS block in place: `block[i]` holds
    /// row `i` of all `N` right-hand sides. `scratch` must also hold
    /// `self.n()` lane blocks.
    ///
    /// This is the one triangular-solve kernel of the sparse factorization:
    /// every factor entry becomes a fixed-`N` axpy the compiler unrolls into
    /// straight-line SIMD, and each lane sees the same operation sequence
    /// whatever `N` is.
    ///
    /// # Panics
    ///
    /// Panics if `block.len()` or `scratch.len()` differ from `self.n()`.
    pub fn solve_arr<const N: usize>(&self, block: &mut [[f64; N]], scratch: &mut [[f64; N]]) {
        let n = self.n;
        assert_eq!(block.len(), n, "lane block length mismatch");
        assert_eq!(scratch.len(), n, "lane scratch length mismatch");
        // Forward: `block` itself is the working RHS (original-row indexed)
        // — no staging copy — and `scratch` receives y (pivot-step indexed).
        // Row `perm[j]` is final by the time column j reads it: L entries
        // only ever update rows that are not yet pivotal.
        for j in 0..n {
            let yrow = block[self.perm[j]];
            scratch[j] = yrow;
            let (rows, vals) = self.l_col(j);
            for (&orig_row, &lv) in rows.iter().zip(vals) {
                let wrow = &mut block[orig_row];
                for (w, y) in wrow.iter_mut().zip(yrow.iter()) {
                    *w -= lv * *y;
                }
            }
        }
        // Back substitution on U (pivot-step coordinates): y is read from
        // `scratch` and each solution row is written straight to its final
        // original-column position in `block` (every input row has been
        // consumed by the forward pass), so no post-scatter pass is needed.
        // The accumulator row lives in a local `[f64; N]` so all `N` lanes
        // stay in registers across the row's update sweep.
        let ordered = !self.col_order.is_empty();
        for j in (0..n).rev() {
            let mut diag = 0.0;
            let mut acc = scratch[j];
            let (steps, vals) = self.u_row(j);
            for (&c, &v) in steps.iter().zip(vals) {
                if c == j {
                    diag = v;
                    continue;
                }
                let xc = &block[if ordered { self.col_order[c] } else { c }];
                for (a, b) in acc.iter_mut().zip(xc.iter()) {
                    *a -= v * *b;
                }
            }
            for a in acc.iter_mut() {
                *a /= diag;
            }
            block[if ordered { self.col_order[j] } else { j }] = acc;
        }
    }

    /// Solves an RHS-interleaved block (`block[i·n_rhs + k]` is row `i` of
    /// RHS `k`) through the lane kernel [`SparseLu::solve_arr`],
    /// decomposing `n_rhs` into supported lane widths.
    ///
    /// `scratch` must hold at least
    /// [`crate::lanes::lanes_scratch_len`]`(self.n(), n_rhs)` elements.
    /// Per-RHS results are bit-for-bit identical to [`SparseLu::solve_into`].
    pub fn solve_multi_lanes(&self, block: &mut [f64], n_rhs: usize, scratch: &mut [f64]) {
        crate::lanes::solve_lanes_dispatch(self, self.n, block, n_rhs, scratch);
    }
}

impl crate::lanes::LaneSolver for SparseLu {
    fn solve_lane<const N: usize>(&self, block: &mut [[f64; N]], scratch: &mut [[f64; N]]) {
        self.solve_arr(block, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{vecops, DMat};

    fn dense_random(n: usize, seed: &mut u64, density: f64) -> (Csc, DMat) {
        let rnd = move |seed: &mut u64| {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((*seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut t = Triplets::new(n, n);
        let mut d = DMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let r = rnd(seed);
                if i == j {
                    let v = 4.0 + r;
                    t.push(i, j, v);
                    d[(i, j)] = v;
                } else if r.abs() < density {
                    t.push(i, j, r);
                    d[(i, j)] = r;
                }
            }
        }
        (t.to_csc(), d)
    }

    #[test]
    fn triplets_sum_duplicates() {
        let mut t = Triplets::new(3, 3);
        t.push(1, 1, 2.0);
        t.push(1, 1, 3.0);
        t.push(0, 2, -1.0);
        let m = t.to_csc();
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.get(0, 2), -1.0);
        assert_eq!(m.get(2, 2), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn mat_vec_matches_dense() {
        let mut seed = 42u64;
        let (s, d) = dense_random(12, &mut seed, 0.4);
        let x: Vec<f64> = (0..12).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let ys = s.mat_vec(&x);
        let yd = d.mat_vec(&x);
        for (a, b) in ys.iter().zip(yd.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_lu_matches_dense_lu() {
        for trial in 0..6 {
            let mut seed = 1000 + trial;
            let n = 20;
            let (s, d) = dense_random(n, &mut seed, 0.3);
            let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
            let xs = s.lu().unwrap().solve(&b);
            let xd = d.solve(&b).unwrap();
            for (a, bb) in xs.iter().zip(xd.iter()) {
                assert!((a - bb).abs() < 1e-9, "trial {trial}: {a} vs {bb}");
            }
        }
    }

    #[test]
    fn sparse_lu_residual_small() {
        let mut seed = 7u64;
        let n = 40;
        let (s, _) = dense_random(n, &mut seed, 0.15);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = s.lu().unwrap().solve(&b);
        let r = vecops::sub(&s.mat_vec(&x), &b);
        assert!(vecops::norm_inf(&r) < 1e-9);
    }

    #[test]
    fn pivoting_zero_diagonal() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        let x = t.to_csc().lu().unwrap().solve(&[3.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    /// `set` rewrites one pushed value in place and keeps the pattern; a
    /// debug build rejects a stamp at the wrong coordinate.
    #[test]
    fn set_overwrites_in_push_order() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 2.0);
        t.push(0, 0, 3.0);
        t.set(2, 0, 0, 5.0);
        t.set(1, 1, 0, -2.0);
        let got: Vec<_> = t.iter().copied().collect();
        assert_eq!(got, [(0, 0, 1.0), (1, 0, -2.0), (0, 0, 5.0)]);
        assert_eq!(t.to_csc().get(0, 0), 6.0);
        if cfg!(debug_assertions) {
            let wrong = std::panic::catch_unwind(move || t.set(0, 1, 1, 0.0));
            assert!(wrong.is_err());
        }
    }

    #[test]
    fn singular_detected() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        // column 1 empty -> singular
        assert!(matches!(t.to_csc().lu(), Err(NumError::Singular { .. })));
    }

    #[test]
    fn nan_value_detected_as_non_finite() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, f64::NAN);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 1.0);
        assert!(matches!(
            t.to_csc().lu(),
            Err(NumError::NonFinite { col: 0 })
        ));
    }

    #[test]
    fn refactor_with_nan_reports_non_finite() {
        // Factor a healthy matrix, then refactor (fixed pivot replay) with a
        // NaN in the same sparsity pattern: the replay branch must report
        // NonFinite, not Singular.
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 4.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 3.0);
        let mut lu = t.to_csc().lu().unwrap();
        let mut t2 = Triplets::new(2, 2);
        t2.push(0, 0, f64::NAN);
        t2.push(0, 1, 1.0);
        t2.push(1, 0, 1.0);
        t2.push(1, 1, 3.0);
        assert!(matches!(
            lu.refactor(&t2.to_csc()),
            Err(NumError::NonFinite { .. })
        ));
    }

    #[test]
    fn structurally_dense_column_ok() {
        // Arrow matrix: dense last row/col, diagonal elsewhere.
        let n = 15;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 3.0);
            if i + 1 < n {
                t.push(i, n - 1, 1.0);
                t.push(n - 1, i, 1.0);
            }
        }
        let m = t.to_csc();
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let x = m.lu().unwrap().solve(&b);
        let r = vecops::sub(&m.mat_vec(&x), &b);
        assert!(vecops::norm_inf(&r) < 1e-10);
    }

    #[test]
    fn to_dense_roundtrip() {
        let mut t = Triplets::new(2, 3);
        t.push(0, 0, 1.0);
        t.push(1, 2, 5.0);
        let d = t.to_csc().to_dense();
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(1, 2)], 5.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    /// Replaying the symbolic pivot order on the same values must reproduce
    /// the from-scratch factorization bit-for-bit.
    #[test]
    fn refactor_same_values_is_bit_identical() {
        for trial in 0..5 {
            let mut seed = 300 + trial;
            let n = 25;
            let (s, _) = dense_random(n, &mut seed, 0.25);
            let fresh = s.lu().unwrap();
            // Route 1: lu_with on the recorded symbolic.
            let replayed = s.lu_with(&fresh.symbolic()).unwrap();
            // Route 2: in-place refactor.
            let mut inplace = fresh.clone();
            inplace.refactor(&s).unwrap();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
            let x0 = fresh.solve(&b);
            let x1 = replayed.solve(&b);
            let x2 = inplace.solve(&b);
            for i in 0..n {
                assert!(
                    x0[i].to_bits() == x1[i].to_bits(),
                    "trial {trial} lu_with row {i}"
                );
                assert!(
                    x0[i].to_bits() == x2[i].to_bits(),
                    "trial {trial} refactor row {i}"
                );
            }
        }
    }

    /// Refactoring with *different* values (same pattern) must still solve
    /// the new system accurately.
    #[test]
    fn refactor_new_values_solves_new_system() {
        let n = 30;
        let mut seed = 77u64;
        let (s1, _) = dense_random(n, &mut seed, 0.2);
        let mut lu = s1.lu().unwrap();
        // Same pattern, different values: scale + perturb diagonal stamps.
        let mut t = Triplets::new(n, n);
        for c in 0..n {
            for r in 0..n {
                let v = s1.get(r, c);
                if v != 0.0 {
                    t.push(r, c, if r == c { 2.0 * v + 0.5 } else { 0.7 * v });
                }
            }
        }
        let s2 = t.to_csc();
        lu.refactor(&s2).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 0.1).collect();
        let mut x = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        lu.solve_into(&b, &mut x, &mut scratch);
        let r = vecops::sub(&s2.mat_vec(&x), &b);
        assert!(
            vecops::norm_inf(&r) < 1e-9,
            "residual {}",
            vecops::norm_inf(&r)
        );
    }

    /// A stale pivot order that hits a zero pivot reports Singular instead
    /// of producing garbage.
    #[test]
    fn refactor_rejects_stale_pivots() {
        // First matrix pivots on the diagonal; second zeroes that entry.
        let mut t1 = Triplets::new(2, 2);
        t1.push(0, 0, 5.0);
        t1.push(0, 1, 1.0);
        t1.push(1, 0, 1.0);
        t1.push(1, 1, 5.0);
        let mut lu = t1.to_csc().lu().unwrap();
        let mut t2 = Triplets::new(2, 2);
        t2.push(0, 0, 0.0);
        t2.push(0, 1, 1.0);
        t2.push(1, 0, 1.0);
        t2.push(1, 1, 0.0);
        let s2 = t2.to_csc();
        assert!(matches!(lu.refactor(&s2), Err(NumError::Singular { .. })));
        // A fresh analyzing factorization handles it fine (off-diag pivots).
        let x = s2.lu().unwrap().solve(&[3.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    /// A multi-RHS block solve returns, per right-hand side, the bits of
    /// solving that column alone — for an exact lane width and for a width
    /// the dispatcher splits into lane groups.
    #[test]
    fn solve_multi_matches_column_solves() {
        for (mut seed, n, density, n_rhs) in [(11u64, 24, 0.25, 8), (19, 18, 0.3, 5)] {
            let (s, _) = dense_random(n, &mut seed, density);
            let lu = s.lu().unwrap();
            let columns: Vec<Vec<f64>> = (0..n_rhs)
                .map(|k| {
                    (0..n)
                        .map(|r| ((r * 13 + k * 31) % 29) as f64 * 0.3 - 2.0)
                        .collect()
                })
                .collect();
            // RHS-interleaved layout: block[r * n_rhs + k].
            let mut block: Vec<f64> = (0..n * n_rhs)
                .map(|i| columns[i % n_rhs][i / n_rhs])
                .collect();
            let mut scratch = vec![0.0; crate::lanes::lanes_scratch_len(n, n_rhs)];
            lu.solve_multi_lanes(&mut block, n_rhs, &mut scratch);
            for (k, col) in columns.iter().enumerate() {
                let reference = lu.solve(col);
                for r in 0..n {
                    assert!(
                        block[r * n_rhs + k].to_bits() == reference[r].to_bits(),
                        "n_rhs {n_rhs} rhs {k} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn mat_vec_interleaved_matches_mat_vec() {
        let mut seed = 23u64;
        let (s, _) = dense_random(10, &mut seed, 0.4);
        let width = 3;
        let x: Vec<f64> = (0..10 * width).map(|i| (i as f64) * 0.1 - 1.0).collect();
        let mut y = vec![0.0; 10 * width];
        s.mat_vec_interleaved(&x, &mut y, width);
        for k in 0..width {
            let xk: Vec<f64> = (0..10).map(|r| x[r * width + k]).collect();
            let yk = s.mat_vec(&xk);
            for r in 0..10 {
                assert!((y[r * width + k] - yk[r]).abs() < 1e-15, "rhs {k} row {r}");
            }
        }
    }

    /// Reference solve replicating the pre-flatten `Vec<Vec<(usize, f64)>>`
    /// factor walk (same arithmetic order): the flattened storage must be a
    /// pure layout change, bit-for-bit.
    fn reference_solve_preflatten(lu: &SparseLu, b: &[f64]) -> Vec<f64> {
        let n = lu.n();
        // Rebuild nested factor storage from the flat arrays.
        let nested = |(idx, val): (&[usize], &[f64])| -> Vec<(usize, f64)> {
            idx.iter().copied().zip(val.iter().copied()).collect()
        };
        let l_cols: Vec<Vec<(usize, f64)>> = (0..n).map(|j| nested(lu.l_col(j))).collect();
        let u_rows: Vec<Vec<(usize, f64)>> = (0..n).map(|j| nested(lu.u_row(j))).collect();
        let mut scratch = b.to_vec();
        let mut out = vec![0.0; n];
        for j in 0..n {
            let pr = lu.perm[j];
            let yj = scratch[pr];
            out[j] = yj;
            for &(orig_row, lv) in &l_cols[j] {
                scratch[orig_row] -= lv * yj;
            }
        }
        for j in (0..n).rev() {
            let mut acc = out[j];
            let mut diag = 0.0;
            for &(c, v) in u_rows[j].iter() {
                if c == j {
                    diag = v;
                } else {
                    acc -= v * out[c];
                }
            }
            out[j] = acc / diag;
        }
        if !lu.col_order.is_empty() {
            let z = out.clone();
            for (step, &c) in lu.col_order.iter().enumerate() {
                out[c] = z[step];
            }
        }
        out
    }

    #[test]
    fn flattened_solve_bit_identical_to_nested_reference() {
        for trial in 0..4 {
            let mut seed = 900 + trial;
            let n = 22;
            let (s, _) = dense_random(n, &mut seed, 0.25);
            let lu = s.lu().unwrap();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).sin()).collect();
            let x = lu.solve(&b);
            let xref = reference_solve_preflatten(&lu, &b);
            for i in 0..n {
                assert!(x[i].to_bits() == xref[i].to_bits(), "trial {trial} row {i}");
            }
        }
    }

    #[test]
    fn markowitz_solves_accurately() {
        for trial in 0..5 {
            let mut seed = 500 + trial;
            let n = 30;
            let (s, _) = dense_random(n, &mut seed, 0.2);
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos()).collect();
            let lu = s.lu_markowitz().unwrap();
            let x = lu.solve(&b);
            let r = vecops::sub(&s.mat_vec(&x), &b);
            assert!(
                vecops::norm_inf(&r) < 1e-9,
                "trial {trial} residual {}",
                vecops::norm_inf(&r)
            );
            // Within machine precision of the natural-order solution.
            let xn = s.lu().unwrap().solve(&b);
            let scale = vecops::norm_inf(&xn).max(1.0);
            for i in 0..n {
                assert!(
                    (x[i] - xn[i]).abs() < 1e-9 * scale,
                    "trial {trial} row {i}: {} vs {}",
                    x[i],
                    xn[i]
                );
            }
        }
    }

    #[test]
    fn markowitz_replay_is_bit_identical() {
        let mut seed = 606u64;
        let n = 28;
        let (s, _) = dense_random(n, &mut seed, 0.25);
        let fresh = s.lu_markowitz().unwrap();
        assert!(fresh.symbolic().is_ordered());
        let replayed = s.lu_with(&fresh.symbolic()).unwrap();
        let mut inplace = fresh.clone();
        inplace.refactor(&s).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let x0 = fresh.solve(&b);
        let x1 = replayed.solve(&b);
        let x2 = inplace.solve(&b);
        for i in 0..n {
            assert!(x0[i].to_bits() == x1[i].to_bits(), "lu_with row {i}");
            assert!(x0[i].to_bits() == x2[i].to_bits(), "refactor row {i}");
        }
    }

    #[test]
    fn markowitz_reduces_fill_on_reverse_arrow() {
        // Reverse arrow: dense FIRST row and column. Natural order must
        // eliminate the dense column first, filling in the whole matrix;
        // Markowitz defers it and keeps the factors O(n).
        let n = 40;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
            if i > 0 {
                t.push(0, i, 1.0);
                t.push(i, 0, 1.0);
            }
        }
        let m = t.to_csc();
        let natural = m.lu().unwrap();
        let ordered = m.lu_markowitz().unwrap();
        assert!(
            ordered.factor_nnz() < natural.factor_nnz() / 4,
            "ordered fill {} vs natural {}",
            ordered.factor_nnz(),
            natural.factor_nnz()
        );
        // And it still solves the system.
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let x = ordered.solve(&b);
        let r = vecops::sub(&m.mat_vec(&x), &b);
        assert!(vecops::norm_inf(&r) < 1e-10);
    }

    #[test]
    fn sparse_solve_arr_matches_solve_into() {
        let mut seed = 808u64;
        let n = 20;
        let (s, _) = dense_random(n, &mut seed, 0.3);
        for lu in [s.lu().unwrap(), s.lu_markowitz().unwrap()] {
            const W: usize = 4;
            let mut block = [[0.0f64; W]; 20];
            for (i, row) in block.iter_mut().enumerate() {
                for (k, v) in row.iter_mut().enumerate() {
                    *v = ((i * 7 + k * 3) % 11) as f64 * 0.4 - 2.0;
                }
            }
            let mut reference = vec![[0.0f64; W]; n];
            for k in 0..W {
                let b: Vec<f64> = (0..n).map(|r| block[r][k]).collect();
                let mut out = vec![0.0; n];
                let mut scr = vec![0.0; n];
                lu.solve_into(&b, &mut out, &mut scr);
                for r in 0..n {
                    reference[r][k] = out[r];
                }
            }
            let mut scratch = [[0.0f64; W]; 20];
            lu.solve_arr(&mut block, &mut scratch);
            for r in 0..n {
                for k in 0..W {
                    assert!(
                        block[r][k].to_bits() == reference[r][k].to_bits(),
                        "row {r} rhs {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn slots_address_stored_values() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 2.0);
        t.push(2, 0, 3.0);
        let mut m = t.to_csc();
        assert_eq!(m.nnz(), 3);
        // Column-major order: (0,0), (2,0), (1,1).
        assert_eq!(m.slot(0, 0), Some(0));
        assert_eq!(m.slot(2, 0), Some(1));
        assert_eq!(m.slot(1, 1), Some(2));
        assert_eq!(m.slot(2, 2), None);
        assert_eq!(m.slot(1, 0), None);
        // A value rewrite through a slot keeps the pattern.
        let k = m.slot(2, 0).unwrap();
        m.values_mut()[k] = -4.5;
        assert_eq!(m.get(2, 0), -4.5);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.nnz(), 3);
    }
}
