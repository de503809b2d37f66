//! Error types for the numerical kernels.

use std::error::Error;
use std::fmt;

/// Coarse classification of a failure for wire boundaries (HTTP statuses,
/// exit codes, alerting severities).
///
/// Every error enum in the workspace maps itself onto a [`WireFault`] via an
/// exhaustive `match` in its own crate (`wire_fault()`), so adding a variant
/// without classifying it is a compile error there — the serving layer never
/// has to stringify or guess. The facade's `TranvarError::wire_status`
/// turns the class into an HTTP status:
///
/// - [`FailureClass::BadInput`] → 400 (bad request envelope, bad
///   configuration),
/// - [`FailureClass::Unprocessable`] → 422 (the request envelope was valid
///   but the document it carried — e.g. a submitted SPICE deck — could not
///   be parsed or elaborated),
/// - [`FailureClass::Unstable`] → 422 (the deck parsed but the solve failed:
///   non-convergence, singular/non-finite systems, missing crossings),
/// - [`FailureClass::Exhausted`] → 504 (a cooperative budget/deadline
///   tripped; retrying with the same budget would trip it again),
/// - [`FailureClass::Internal`] → 500 (violated invariants, caught panics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// The request/configuration itself is invalid.
    BadInput,
    /// The request envelope was valid but the enclosed document (a netlist
    /// deck) could not be parsed or elaborated.
    Unprocessable,
    /// The input was well-formed but the numerics failed on it.
    Unstable,
    /// A cooperative work bound (budget, deadline) was exhausted.
    Exhausted,
    /// An internal invariant was violated (bug, caught panic).
    Internal,
}

/// A machine-readable failure identity: a stable dotted code (stable across
/// releases; safe to match on in clients) plus its [`FailureClass`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireFault {
    /// Stable machine-readable code, `"<crate>.<variant>"` in kebab-case.
    pub code: &'static str,
    /// Coarse class deciding the wire status.
    pub class: FailureClass,
}

impl WireFault {
    /// Convenience constructor used by the per-crate `wire_fault()` impls.
    pub const fn new(code: &'static str, class: FailureClass) -> Self {
        WireFault { code, class }
    }
}

/// Errors produced by the linear-algebra and transform kernels.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum NumError {
    /// A factorization encountered a numerically zero pivot.
    Singular {
        /// Column at which elimination broke down.
        col: usize,
    },
    /// A factorization encountered a NaN or infinite value.
    ///
    /// Distinct from [`NumError::Singular`]: a zero pivot means the matrix
    /// (at its current values) has no usable pivot in that column, while a
    /// non-finite entry means garbage — typically an overflowed or
    /// ill-posed model evaluation — entered the kernel. Retry policies
    /// treat the two differently: a singular system may be rescued by
    /// regularization (gmin), whereas non-finite input needs the operands
    /// themselves repaired.
    NonFinite {
        /// Column at which the first non-finite value was detected.
        col: usize,
    },
    /// A square-matrix operation was invoked on a non-square matrix.
    NotSquare {
        /// Row count of the offending matrix.
        rows: usize,
        /// Column count of the offending matrix.
        cols: usize,
    },
    /// A Cholesky factorization was attempted on a matrix that is not
    /// positive semi-definite (within tolerance).
    NotPositiveDefinite {
        /// Row/column at which a negative pivot appeared.
        index: usize,
    },
    /// Generic dimension mismatch between operands.
    DimensionMismatch {
        /// Expected size.
        expected: usize,
        /// Actual size.
        actual: usize,
    },
    /// An internal workspace invariant was violated (e.g. staged storage or
    /// a cached factorization missing where one must exist). Indicates a
    /// kernel bug, surfaced as a typed error instead of a panic so solve
    /// pipelines can isolate and report it.
    Internal {
        /// The violated invariant.
        what: &'static str,
    },
}

impl fmt::Display for NumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumError::Singular { col } => {
                write!(f, "matrix is singular (zero pivot at column {col})")
            }
            NumError::NonFinite { col } => {
                write!(f, "matrix contains a non-finite value (column {col})")
            }
            NumError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square ({rows}x{cols})")
            }
            NumError::NotPositiveDefinite { index } => {
                write!(f, "matrix is not positive definite (row {index})")
            }
            NumError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            NumError::Internal { what } => {
                write!(f, "internal invariant violated: {what}")
            }
        }
    }
}

impl NumError {
    /// The stable wire identity of this failure (see [`WireFault`]).
    ///
    /// The match is exhaustive on purpose: adding a `NumError` variant
    /// without classifying it for the wire boundary must not compile.
    pub fn wire_fault(&self) -> WireFault {
        use FailureClass::*;
        match self {
            NumError::Singular { .. } => WireFault::new("num.singular", Unstable),
            NumError::NonFinite { .. } => WireFault::new("num.non-finite", Unstable),
            NumError::NotPositiveDefinite { .. } => {
                WireFault::new("num.not-positive-definite", Unstable)
            }
            // Shape/usage violations are caller bugs, not data-dependent
            // solve failures: surface them as internal.
            NumError::NotSquare { .. } => WireFault::new("num.not-square", Internal),
            NumError::DimensionMismatch { .. } => {
                WireFault::new("num.dimension-mismatch", Internal)
            }
            NumError::Internal { .. } => WireFault::new("num.internal", Internal),
        }
    }
}

impl Error for NumError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            NumError::Singular { col: 3 },
            NumError::NonFinite { col: 3 },
            NumError::NotSquare { rows: 2, cols: 3 },
            NumError::NotPositiveDefinite { index: 1 },
            NumError::DimensionMismatch {
                expected: 4,
                actual: 5,
            },
            NumError::Internal { what: "test" },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumError>();
    }
}
