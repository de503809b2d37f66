//! Runtime-width multi-RHS triangular solves, kept here as the reference
//! for the lane kernels of `tranvar-num`.
//!
//! The shipping crates solve every block through `solve_arr::<N>`, whose
//! lane width is a compile-time constant. The functions below solve the
//! same RHS-interleaved block (`block[i·n_rhs + k]` is row `i` of RHS `k`)
//! with a width known only at run time, so every factor entry becomes an
//! `n_rhs`-wide axpy loop with prologue/remainder handling. They perform the
//! same per-RHS operations in the same order as the lane kernels, which
//! makes them both the timing baseline of the `lu_kernels` bench and a
//! bitwise oracle for the lane property tests. They read the factors only
//! through the read-only views of [`Lu`] and [`SparseLu`].

use tranvar_num::{Lu, SparseLu};

/// Solves `A·X = B` for an RHS-interleaved block of `n_rhs` right-hand
/// sides in place with the dense factors of `lu`. `scratch` is a full
/// shadow of the block, used to stage the row permutation.
///
/// # Panics
///
/// Panics if `block.len()` or `scratch.len()` differ from `lu.n() * n_rhs`.
pub fn dense_solve_interleaved(lu: &Lu, block: &mut [f64], n_rhs: usize, scratch: &mut [f64]) {
    let n = lu.n();
    assert_eq!(block.len(), n * n_rhs, "block length mismatch");
    assert_eq!(scratch.len(), n * n_rhs, "scratch length mismatch");
    if n_rhs == 0 {
        return;
    }
    // Row permutation.
    scratch.copy_from_slice(block);
    for (i, &p) in lu.perm().iter().enumerate() {
        block[i * n_rhs..(i + 1) * n_rhs].copy_from_slice(&scratch[p * n_rhs..(p + 1) * n_rhs]);
    }
    let factors = lu.factors();
    // Forward substitution with the unit lower factor: row i accumulates
    // -L[i][j]·x_j for j < i, each a contiguous axpy.
    for i in 1..n {
        let row = factors.row(i);
        let (lo, hi) = block.split_at_mut(i * n_rhs);
        let xi = &mut hi[..n_rhs];
        for (j, &lij) in row.iter().enumerate().take(i) {
            if lij == 0.0 {
                continue;
            }
            let xj = &lo[j * n_rhs..(j + 1) * n_rhs];
            for (a, b) in xi.iter_mut().zip(xj.iter()) {
                *a -= lij * *b;
            }
        }
    }
    // Back substitution with the upper factor.
    for i in (0..n).rev() {
        let row = factors.row(i);
        let (lo, hi) = block.split_at_mut((i + 1) * n_rhs);
        let xi = &mut lo[i * n_rhs..];
        for (j, &uij) in row.iter().enumerate().skip(i + 1) {
            if uij == 0.0 {
                continue;
            }
            let xj = &hi[(j - i - 1) * n_rhs..(j - i) * n_rhs];
            for (a, b) in xi.iter_mut().zip(xj.iter()) {
                *a -= uij * *b;
            }
        }
        let diag = row[i];
        for a in xi.iter_mut() {
            *a /= diag;
        }
    }
}

/// Solves `A·X = B` for an RHS-interleaved block of `n_rhs` right-hand
/// sides in place with the sparse factors of `lu` (natural or
/// fill-reducing column order). `scratch` is a full shadow of the block,
/// holding the working RHS rows during the forward sweep.
///
/// # Panics
///
/// Panics if `block.len()` or `scratch.len()` differ from `lu.n() * n_rhs`.
pub fn sparse_solve_interleaved(
    lu: &SparseLu,
    block: &mut [f64],
    n_rhs: usize,
    scratch: &mut [f64],
) {
    let n = lu.n();
    assert_eq!(block.len(), n * n_rhs, "block length mismatch");
    assert_eq!(scratch.len(), n * n_rhs, "scratch length mismatch");
    if n_rhs == 0 {
        return;
    }
    // Forward: scratch is the working RHS (original-row indexed), block
    // accumulates y (pivot-step indexed).
    scratch.copy_from_slice(block);
    for (j, &pr) in lu.perm().iter().enumerate() {
        block[j * n_rhs..(j + 1) * n_rhs].copy_from_slice(&scratch[pr * n_rhs..(pr + 1) * n_rhs]);
        let yrow = &block[j * n_rhs..(j + 1) * n_rhs];
        let (rows, vals) = lu.l_col(j);
        for (&orig_row, &lv) in rows.iter().zip(vals) {
            let wrow = &mut scratch[orig_row * n_rhs..(orig_row + 1) * n_rhs];
            for (w, y) in wrow.iter_mut().zip(yrow.iter()) {
                *w -= lv * *y;
            }
        }
    }
    // Back substitution on U (pivot-step coordinates).
    for j in (0..n).rev() {
        let mut diag = 0.0;
        let (steps, vals) = lu.u_row(j);
        for (&c, &v) in steps.iter().zip(vals) {
            if c == j {
                diag = v;
                continue;
            }
            let (lo, hi) = block.split_at_mut(c * n_rhs);
            let xc = &hi[..n_rhs];
            let xj = &mut lo[j * n_rhs..(j + 1) * n_rhs];
            for (a, b) in xj.iter_mut().zip(xc.iter()) {
                *a -= v * *b;
            }
        }
        for a in block[j * n_rhs..(j + 1) * n_rhs].iter_mut() {
            *a /= diag;
        }
    }
    // Scatter rows from pivot-step to original-column coordinates.
    if !lu.col_order().is_empty() {
        scratch.copy_from_slice(block);
        for (step, &c) in lu.col_order().iter().enumerate() {
            block[c * n_rhs..(c + 1) * n_rhs]
                .copy_from_slice(&scratch[step * n_rhs..(step + 1) * n_rhs]);
        }
    }
}
