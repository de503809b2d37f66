//! Dense matrices and LU factorization with partial pivoting.
//!
//! Circuit MNA systems in this workspace are small-to-medium (tens to a few
//! hundred unknowns), so a cache-friendly row-major dense kernel is the
//! workhorse for monodromy matrices and shooting-Newton updates. Larger
//! per-timestep Jacobians can use the sparse kernels in [`crate::sparse`].

use crate::error::NumError;
use crate::lanes::as_lane_blocks_mut;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `f64` matrix.
///
/// # Examples
///
/// ```
/// use tranvar_num::DMat;
/// let mut m = DMat::zeros(2, 2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 3.0;
/// let y = m.mat_vec(&[1.0, 1.0]);
/// assert_eq!(y, vec![2.0, 3.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct DMat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMat {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "dense matrix data length mismatch");
        DMat { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DMat { rows, cols, data }
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

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows one row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows one row as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Sets every entry to zero, retaining the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mat_vec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += *a * *b;
            }
            y[i] = acc;
        }
        y
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != b.rows()`.
    pub fn mat_mul(&self, b: &DMat) -> DMat {
        assert_eq!(self.cols, b.rows, "mat_mul dimension mismatch");
        let mut c = DMat::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.row(i)[k];
                if aik == 0.0 {
                    continue;
                }
                let brow = b.row(k);
                let crow = c.row_mut(i);
                for j in 0..b.cols {
                    crow[j] += aik * brow[j];
                }
            }
        }
        c
    }

    /// Transpose.
    pub fn transpose(&self) -> DMat {
        DMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Adds `k·B` to `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, k: f64, b: &DMat) {
        assert_eq!(self.rows, b.rows);
        assert_eq!(self.cols, b.cols);
        for (d, s) in self.data.iter_mut().zip(b.data.iter()) {
            *d += k * *s;
        }
    }

    /// Maximum entry magnitude (∞-like norm over all entries).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    /// Factorizes the matrix as `P·A = L·U` with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Singular`] when a pivot column is numerically zero,
    /// and [`NumError::NotSquare`] for non-square inputs.
    pub fn lu(&self) -> Result<Lu, NumError> {
        Lu::factor(self.clone())
    }

    /// Solves `A·x = b` via a fresh LU factorization.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors; see [`DMat::lu`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumError> {
        Ok(self.lu()?.solve(b))
    }
}

impl Index<(usize, usize)> for DMat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for DMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for DMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", &self.data[i * self.cols..(i + 1) * self.cols])?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// An LU factorization `P·A = L·U` with partial pivoting.
///
/// Produced by [`DMat::lu`]; solves many right-hand sides cheaply, which the
/// LPTV analysis exploits heavily (one factorization per timestep, one pair of
/// triangular solves per noise source).
#[derive(Clone, Debug)]
pub struct Lu {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: DMat,
    /// Row permutation: `perm[i]` is the original row in position `i`.
    perm: Vec<usize>,
}

impl Lu {
    /// Factorizes `a` in place (consumes the matrix).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::NotSquare`] if `a` is not square and
    /// [`NumError::Singular`] if a zero pivot is encountered.
    pub fn factor(a: DMat) -> Result<Self, NumError> {
        let mut lu = Lu {
            lu: a,
            perm: Vec::new(),
        };
        lu.factor_in_place()?;
        Ok(lu)
    }

    /// Refactors `a` in place, reusing this factorization's storage (the
    /// per-timestep hot path: no matrix clone, no fresh allocation beyond
    /// growing to a larger dimension).
    ///
    /// # Errors
    ///
    /// Same as [`Lu::factor`]. On error the contents are unspecified.
    pub fn refactor(&mut self, a: &DMat) -> Result<(), NumError> {
        if self.lu.rows == a.rows && self.lu.cols == a.cols {
            self.lu.data.copy_from_slice(&a.data);
        } else {
            self.lu = a.clone();
        }
        self.factor_in_place()
    }

    fn factor_in_place(&mut self) -> Result<(), NumError> {
        let a = &mut self.lu;
        if !a.is_square() {
            return Err(NumError::NotSquare {
                rows: a.rows,
                cols: a.cols,
            });
        }
        let n = a.rows;
        self.perm.clear();
        self.perm.extend(0..n);
        let perm = &mut self.perm;
        for k in 0..n {
            // Pivot: largest magnitude in column k at or below the diagonal.
            // A NaN would lose every `>` comparison and hide behind a finite
            // pivot, so finiteness is checked per candidate, not just on the
            // winner.
            let mut p = k;
            let mut pmag = a[(k, k)].abs();
            if !pmag.is_finite() {
                return Err(NumError::NonFinite { col: k });
            }
            for i in (k + 1)..n {
                let m = a[(i, k)].abs();
                if !m.is_finite() {
                    return Err(NumError::NonFinite { col: k });
                }
                if m > pmag {
                    p = i;
                    pmag = m;
                }
            }
            if pmag == 0.0 {
                return Err(NumError::Singular { col: k });
            }
            if p != k {
                perm.swap(k, p);
                for j in 0..n {
                    let tmp = a[(k, j)];
                    a[(k, j)] = a[(p, j)];
                    a[(p, j)] = tmp;
                }
            }
            let pivot = a[(k, k)];
            for i in (k + 1)..n {
                let m = a[(i, k)] / pivot;
                a[(i, k)] = m;
                if m == 0.0 {
                    continue;
                }
                // Row update uses split_at_mut to satisfy the borrow checker
                // while staying on the fast slice path.
                let (top, bottom) = a.data.split_at_mut(i * n);
                let krow = &top[k * n..k * n + n];
                let irow = &mut bottom[..n];
                for j in (k + 1)..n {
                    let d = m * krow[j];
                    irow[j] -= d;
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored system.
    #[inline]
    pub fn n(&self) -> usize {
        self.lu.rows
    }

    /// Row permutation of the factorization: `perm()[i]` is the original
    /// row in pivot position `i`.
    #[inline]
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// The combined factors in row-major storage: the unit-lower `L`
    /// strictly below the diagonal (its unit diagonal implicit), `U` on and
    /// above it.
    #[inline]
    pub fn factors(&self) -> &DMat {
        &self.lu
    }

    /// Solves `A·x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.n()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n()];
        self.solve_into(b, &mut out, &mut vec![0.0; self.n()]);
        out
    }

    /// Solves `A·x = b` into `out`, using `scratch` as workspace, with zero
    /// heap allocation — the per-timestep hot path. This is the width-1
    /// lane solve [`Lu::solve_arr`]`::<1>`, so its bits are exactly those of
    /// every lane of a multi-RHS solve.
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
    /// This is the one triangular-solve kernel of the dense factorization:
    /// [`Lu::solve_into`] is its width-1 case and [`Lu::solve_multi_lanes`]
    /// dispatches wider blocks onto it. Every inner axpy is a fixed-`N` loop
    /// the compiler unrolls into straight-line SIMD, and each lane sees the
    /// same operation sequence whatever `N` is.
    ///
    /// # Panics
    ///
    /// Panics if `block.len()` or `scratch.len()` differ from `self.n()`.
    pub fn solve_arr<const N: usize>(&self, block: &mut [[f64; N]], scratch: &mut [[f64; N]]) {
        let n = self.n();
        assert_eq!(block.len(), n, "lane block length mismatch");
        assert_eq!(scratch.len(), n, "lane scratch length mismatch");
        // Ping-pong between the two buffers instead of staging the row
        // permutation with a full-block copy: the forward sweep gathers input
        // row `perm[i]` straight from `block` and writes `y` into `scratch`;
        // the back sweep reads `y` from `scratch` and writes solutions into
        // `block` (every input row has been consumed by then). Factor
        // entries that are exactly zero are skipped, and the accumulator row
        // lives in a local `[f64; N]` so all `N` lanes stay in registers across
        // the whole dot-product sweep.
        for i in 0..n {
            let row = self.lu.row(i);
            let mut acc = block[self.perm[i]];
            for (&lij, yj) in row[..i].iter().zip(&scratch[..i]) {
                if lij == 0.0 {
                    continue;
                }
                for (a, b) in acc.iter_mut().zip(yj.iter()) {
                    *a -= lij * *b;
                }
            }
            scratch[i] = acc;
        }
        // Back substitution with upper factor, same register-resident
        // accumulator shape; solutions land back in `block`.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut acc = scratch[i];
            for (&uij, xj) in row[i + 1..].iter().zip(&block[i + 1..]) {
                if uij == 0.0 {
                    continue;
                }
                for (a, b) in acc.iter_mut().zip(xj.iter()) {
                    *a -= uij * *b;
                }
            }
            let diag = row[i];
            for a in acc.iter_mut() {
                *a /= diag;
            }
            block[i] = acc;
        }
    }

    /// Solves an RHS-interleaved block (`block[i·n_rhs + k]` is row `i` of
    /// RHS `k`) through the lane kernel [`Lu::solve_arr`], decomposing
    /// `n_rhs` into supported lane widths.
    ///
    /// `scratch` must hold at least
    /// [`crate::lanes::lanes_scratch_len`]`(self.n(), n_rhs)` elements.
    /// Per-RHS results are bit-for-bit identical to [`Lu::solve_into`].
    pub fn solve_multi_lanes(&self, block: &mut [f64], n_rhs: usize, scratch: &mut [f64]) {
        crate::lanes::solve_lanes_dispatch(self, self.n(), block, n_rhs, scratch);
    }
}

impl crate::lanes::LaneSolver for Lu {
    fn solve_lane<const N: usize>(&self, block: &mut [[f64; N]], scratch: &mut [[f64; N]]) {
        self.solve_arr(block, scratch);
    }
}

/// Dense vector helpers used across the workspace.
pub mod vecops {

    /// `y += k·x`.
    pub fn axpy(y: &mut [f64], k: f64, x: &[f64]) {
        debug_assert_eq!(y.len(), x.len());
        for (yi, xi) in y.iter_mut().zip(x.iter()) {
            *yi += k * *xi;
        }
    }

    /// Dot product `Σ xᵢ·yᵢ`.
    pub fn dot(x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        let mut acc = 0.0;
        for (a, b) in x.iter().zip(y.iter()) {
            acc += *a * *b;
        }
        acc
    }

    /// Infinity norm `max |xᵢ|`.
    pub fn norm_inf(x: &[f64]) -> f64 {
        x.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    /// Elementwise difference `a - b`.
    pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b.iter()).map(|(x, y)| *x - *y).collect()
    }

    /// Scales a vector in place.
    pub fn scale(x: &mut [f64], k: f64) {
        for v in x.iter_mut() {
            *v *= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_is_identity() {
        let i = DMat::identity(4);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        let x = i.solve(&b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solves_known_3x3() {
        // A = [[2,1,1],[1,3,2],[1,0,0]], b = [4,5,6] -> x = [6,15,-23]
        let a = DMat::from_vec(3, 3, vec![2.0, 1.0, 1.0, 1.0, 3.0, 2.0, 1.0, 0.0, 0.0]);
        let x = a.solve(&[4.0, 5.0, 6.0]).unwrap();
        assert!((x[0] - 6.0).abs() < 1e-12);
        assert!((x[1] - 15.0).abs() < 1e-12);
        assert!((x[2] + 23.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = DMat::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn singular_matrix_reports_error() {
        let a = DMat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        match a.lu() {
            Err(NumError::Singular { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn nan_entry_reports_non_finite_not_singular() {
        // The NaN hides below a finite diagonal: a max-magnitude pivot scan
        // that only inspects the winner would miss it.
        let a = DMat::from_vec(2, 2, vec![1.0, 0.0, f64::NAN, 1.0]);
        match a.lu() {
            Err(NumError::NonFinite { col: 0 }) => {}
            other => panic!("expected non-finite error, got {other:?}"),
        }
    }

    #[test]
    fn inf_entry_reports_non_finite() {
        let a = DMat::from_vec(2, 2, vec![f64::INFINITY, 0.0, 0.0, 1.0]);
        assert!(matches!(a.lu(), Err(NumError::NonFinite { col: 0 })));
    }

    #[test]
    fn non_square_reports_error() {
        let a = DMat::zeros(2, 3);
        assert!(matches!(a.lu(), Err(NumError::NotSquare { .. })));
    }

    #[test]
    fn residual_is_small_for_random_system() {
        // Deterministic pseudo-random fill.
        let n = 24;
        let mut seed = 1u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a = DMat::from_fn(n, n, |i, j| rnd() + if i == j { 4.0 } else { 0.0 });
        let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let x = a.solve(&b).unwrap();
        let r = vecops::sub(&a.mat_vec(&x), &b);
        assert!(vecops::norm_inf(&r) < 1e-10, "residual too large");
    }

    #[test]
    fn mat_mul_matches_mat_vec() {
        let a = DMat::from_fn(3, 3, |i, j| (i * 3 + j) as f64 + 1.0);
        let b = DMat::identity(3);
        assert_eq!(a.mat_mul(&b), a);
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = DMat::from_vec(3, 3, vec![2.0, 1.0, 1.0, 1.0, 3.0, 2.0, 1.0, 0.0, 0.5]);
        let lu = a.lu().unwrap();
        let b = [4.0, 5.0, 6.0];
        let reference = lu.solve(&b);
        let mut out = [0.0; 3];
        lu.solve_into(&b, &mut out, &mut [0.0; 3]);
        for i in 0..3 {
            assert!(out[i].to_bits() == reference[i].to_bits());
        }
    }

    /// A multi-RHS block solve returns, per right-hand side, the bits of
    /// solving that column alone — for an exact lane width and for a width
    /// the dispatcher splits into lane groups.
    #[test]
    fn solve_multi_matches_column_solves() {
        for (mut seed, n, n_rhs) in [(3u64, 9, 4), (9, 11, 7)] {
            let mut rnd = || {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            };
            let a = DMat::from_fn(n, n, |i, j| rnd() + if i == j { 5.0 } else { 0.0 });
            let lu = a.lu().unwrap();
            // RHS-interleaved layout: block[r * n_rhs + k].
            let mut block: Vec<f64> = (0..n * n_rhs).map(|_| rnd()).collect();
            let columns: Vec<Vec<f64>> = (0..n_rhs)
                .map(|k| (0..n).map(|r| block[r * n_rhs + k]).collect())
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
    fn refactor_matches_fresh_factorization() {
        let a = DMat::from_vec(3, 3, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0]);
        let b = DMat::from_vec(3, 3, vec![4.0, 1.0, 0.0, 2.0, 5.0, 1.0, 0.5, 1.0, 3.0]);
        let mut lu = a.lu().unwrap();
        lu.refactor(&b).unwrap();
        let fresh = b.lu().unwrap();
        let rhs = [1.0, -2.0, 0.5];
        let x1 = lu.solve(&rhs);
        let x2 = fresh.solve(&rhs);
        for i in 0..3 {
            assert!(x1[i].to_bits() == x2[i].to_bits());
        }
    }
}
