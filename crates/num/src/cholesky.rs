//! Cholesky factorization of symmetric positive (semi-)definite matrices.
//!
//! Used to realize correlated mismatch: the paper (Section III-C) constructs
//! correlated noise sources `Y = A·X` from independent unit-variance sources
//! `X`, with covariance `C = A·Aᵀ` (eq. 6). `A` is obtained here as the
//! Cholesky factor of the requested covariance.

use crate::dense::DMat;
use crate::error::NumError;

/// Computes the lower-triangular Cholesky factor `L` with `C = L·Lᵀ`.
///
/// A small non-negative `ridge` can be supplied to tolerate semi-definite
/// covariances arising from rank-deficient correlation structures.
///
/// # Errors
///
/// Returns [`NumError::NotSquare`] for non-square input and
/// [`NumError::NotPositiveDefinite`] when a diagonal pivot falls below
/// `-1e-12·max|C|` (true indefiniteness rather than roundoff).
///
/// # Examples
///
/// ```
/// use tranvar_num::{cholesky::cholesky, DMat};
/// let c = DMat::from_vec(2, 2, vec![4.0, 2.0, 2.0, 5.0]);
/// let l = cholesky(&c, 0.0)?;
/// let back = l.mat_mul(&l.transpose());
/// assert!((back[(0, 1)] - 2.0).abs() < 1e-12);
/// # Ok::<(), tranvar_num::NumError>(())
/// ```
pub fn cholesky(c: &DMat, ridge: f64) -> Result<DMat, NumError> {
    if !c.is_square() {
        return Err(NumError::NotSquare {
            rows: c.rows(),
            cols: c.cols(),
        });
    }
    let n = c.rows();
    let scale = c.max_abs().max(1.0);
    let tol = -1e-12 * scale;
    let mut l = DMat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = c[(i, j)] + if i == j { ridge } else { 0.0 };
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum < tol {
                    return Err(NumError::NotPositiveDefinite { index: i });
                }
                l[(i, i)] = sum.max(0.0).sqrt();
            } else {
                let d = l[(j, j)];
                l[(i, j)] = if d > 0.0 { sum / d } else { 0.0 };
            }
        }
    }
    Ok(l)
}

/// Builds a covariance matrix from per-variable standard deviations and a
/// correlation matrix: `C[i][j] = ρ[i][j]·σ[i]·σ[j]`.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn covariance_from_correlation(sigmas: &[f64], rho: &DMat) -> DMat {
    assert_eq!(rho.rows(), sigmas.len());
    assert_eq!(rho.cols(), sigmas.len());
    DMat::from_fn(sigmas.len(), sigmas.len(), |i, j| {
        rho[(i, j)] * sigmas[i] * sigmas[j]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_reconstructs() {
        let c = DMat::from_vec(3, 3, vec![4.0, 2.0, 0.6, 2.0, 5.0, 1.0, 0.6, 1.0, 3.0]);
        let l = cholesky(&c, 0.0).unwrap();
        let back = l.mat_mul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((back[(i, j)] - c[(i, j)]).abs() < 1e-12);
            }
        }
        // Lower triangular.
        assert_eq!(l[(0, 1)], 0.0);
        assert_eq!(l[(0, 2)], 0.0);
        assert_eq!(l[(1, 2)], 0.0);
    }

    #[test]
    fn rejects_indefinite() {
        let c = DMat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(matches!(
            cholesky(&c, 0.0),
            Err(NumError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn tolerates_semidefinite() {
        // Rank-1 covariance: perfectly correlated pair.
        let c = DMat::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let l = cholesky(&c, 0.0).unwrap();
        let back = l.mat_mul(&l.transpose());
        for i in 0..2 {
            for j in 0..2 {
                assert!((back[(i, j)] - c[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn covariance_from_correlation_diag() {
        let rho = DMat::identity(2);
        let c = covariance_from_correlation(&[2.0, 3.0], &rho);
        assert_eq!(c[(0, 0)], 4.0);
        assert_eq!(c[(1, 1)], 9.0);
        assert_eq!(c[(0, 1)], 0.0);
    }
}
