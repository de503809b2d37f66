//! The repository benchmark: seeded workloads over the library's public
//! API, an outside-in layer trace, and the oracles that check every op.
//!
//! See `perfbench/README.md` for the workloads, the metrics and which
//! layer each per-layer metric should move.

pub mod gen;
pub mod paper;
pub mod run;
pub mod serve_mix;
pub mod stats;
pub mod sweep;
pub mod table2;
pub mod trace;
