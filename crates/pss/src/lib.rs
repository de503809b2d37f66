//! # tranvar-pss
//!
//! Periodic steady-state (PSS) analysis via shooting Newton — the substrate
//! the paper borrows from RF simulators (SpectreRF/ADS, refs. \[12\],\[15\],\[16\]).
//!
//! - [`shooting`]: driven PSS — finds the fixed point of the one-period flow
//!   map without integrating through settling transients; converges to
//!   unstable/metastable orbits (needed by the comparator testbench of paper
//!   Fig. 6),
//! - [`autonomous`]: oscillator PSS with the period as an unknown and a
//!   phase-condition-bordered Newton system (paper Section IV-C),
//!
//! Both store per-step factorizations and the monodromy matrix in
//! [`PssSolution`]; the LPTV noise/mismatch analysis in `tranvar-lptv`
//! re-uses them so every additional noise source costs only a pair of
//! triangular sweeps — the source of the paper's speedup.

#![warn(missing_docs)]

pub mod autonomous;
pub mod error;
pub mod shooting;

pub use autonomous::{autonomous_pss, autonomous_pss_in, OscOptions};
pub use error::PssError;
pub use shooting::{
    monodromy_seq, monodromy_threaded, shooting_pss, shooting_pss_in, PssOptions, PssSolution,
};
