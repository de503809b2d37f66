//! # tranvar-lptv
//!
//! Linear periodically time-varying (LPTV) small-signal analysis — the
//! machinery the paper borrows from RF simulators' PNOISE (refs.
//! \[12\]–\[17\]) and the computational heart of the pseudo-noise mismatch
//! method.
//!
//! - [`periodic`]: the periodic linear BVP solver. Each mismatch parameter's
//!   quasi-DC pseudo-noise response costs `2N` triangular sweeps on
//!   factorizations already paid for by the PSS solve, plus one shared
//!   boundary factorization — the whole speedup story of the paper in one
//!   module. Autonomous orbits are bordered with the phase condition and
//!   yield the period sensitivity `δT` directly. The propagation can stop
//!   at the nodes and samples a metric reads ([`NodeResponse`]). The whole
//!   responses give the Fig. 8 statistical waveform
//!   ([`statistical_waveform`]).

#![warn(missing_docs)]

pub mod error;
pub mod periodic;

pub use error::LptvError;
pub use periodic::{statistical_waveform, NodeResponse, PeriodicResponse, PeriodicSolver};
