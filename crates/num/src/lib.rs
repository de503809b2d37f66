//! # tranvar-num
//!
//! Self-contained numerical kernels for the `tranvar` workspace — the
//! reproduction of Kim, Jones & Horowitz, *"Fast, Non-Monte-Carlo Estimation
//! of Transient Performance Variation Due to Device Mismatch"* (DAC 2007 /
//! TCAS-I 2010).
//!
//! The workspace deliberately avoids external linear-algebra and
//! distribution crates (the available sparse-solver ecosystem is thin and the
//! kernels needed by a circuit simulator are small), so everything numerical
//! lives here:
//!
//! - real (`f64`) dense LU ([`DMat`], [`Lu`]) for monodromy/shooting systems,
//! - sparse CSC LU ([`sparse`]) for per-timestep MNA Jacobians,
//! - const-generic lane kernels ([`lanes`]) for wide multi-RHS solves,
//! - [`cholesky`] for correlated-mismatch construction (paper eq. 6),
//! - [`rng`] normal / correlated-normal sampling for Monte-Carlo,
//! - [`stats`] running moments, histograms, skewness and MC confidence
//!   intervals (paper Figs. 9/11/12 and the ±4.5%/±1.4% CI claims),
//! - [`interp`] threshold-crossing measurement shared by all delay paths.
//!
//! # Examples
//!
//! ```
//! use tranvar_num::DMat;
//!
//! // [[2, 1], [1, 3]]·x = [3, 5] → x = [0.8, 1.4].
//! let a = DMat::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
//! let x = a.solve(&[3.0, 5.0])?;
//! assert!((x[0] - 0.8).abs() < 1e-15 && (x[1] - 1.4).abs() < 1e-15);
//! # Ok::<(), tranvar_num::NumError>(())
//! ```

#![warn(missing_docs)]

pub mod cholesky;
pub mod dense;
pub mod error;
pub mod interp;
pub mod lanes;
pub mod rng;
pub mod sparse;
pub mod stats;

pub use dense::{DMat, Lu};
pub use error::{FailureClass, NumError, WireFault};
pub use lanes::{lanes_scratch_len, LaneSolver};
pub use sparse::{Csc, SparseLu, SparseSymbolic, Triplets};
