//! # tranvar
//!
//! **Fast, non-Monte-Carlo estimation of transient performance variation due
//! to device mismatch** — a from-scratch Rust reproduction of Kim, Jones &
//! Horowitz (DAC 2007; extended in IEEE TCAS-I 57(7), 2010,
//! doi:10.1109/TCSI.2009.2035418), including the entire simulator substrate
//! the paper assumes: MNA circuit simulation, periodic steady-state shooting,
//! time-domain LPTV analysis, and a parallel Monte-Carlo reference.
//!
//! ## The method in one paragraph
//!
//! DC device mismatch and sufficiently low-frequency noise are
//! indistinguishable over a bounded observation window, so mismatch with
//! variance σ² is modeled as 1/f pseudo-noise with PSD σ² at 1 Hz. One
//! periodic-steady-state (PSS) solve linearizes the circuit; the LPTV
//! periodic solver then propagates every pseudo-noise source to the output
//! by reusing the PSS factorizations (two triangular sweeps per source).
//! Reading the response at the right sideband turns it into the variance of
//! a *transient* metric: comparator input offset (baseband), logic-path
//! delay (first sideband / crossing shift), oscillator frequency (period
//! sensitivity). Correlations between metrics and ∂σ²/∂W yield-optimization
//! gradients fall out of the per-source breakdown at no extra cost —
//! 100–1000× faster than 1000-point Monte-Carlo at matching σ.
//!
//! ## Crate map
//!
//! | crate | role |
//! |-------|------|
//! | [`num`] | f64 dense/sparse LU and lane solves, Cholesky, normal RNG, statistics |
//! | [`circuit`] | netlist, MNA stamps, MOSFET model, Pelgrom mismatch, numeric-only scenario overrides |
//! | [`engine`] | DC/transient, DC & transient sensitivity, Monte-Carlo driver, analysis sessions |
//! | [`pss`] | shooting-Newton PSS (driven + autonomous) |
//! | [`lptv`] | periodic BVP solver (per-parameter mismatch responses), statistical waveforms |
//! | [`core`] | the paper's flow: metrics, reports, correlations, yield sensitivities, mixtures, scenario campaigns |
//! | [`circuits`] | StrongARM comparator, logic path, ring oscillator, DAC, technology |
//! | [`netlist`] | SPICE deck frontend: parse + elaborate text netlists into circuits and campaigns |
//!
//! ## Quickstart
//!
//! ```
//! use tranvar::circuit::{Circuit, NodeId, Waveform};
//! use tranvar::core::prelude::*;
//! use tranvar::pss::PssOptions;
//!
//! // A mismatched divider — the smallest possible mismatch analysis.
//! let mut ckt = Circuit::new();
//! let a = ckt.node("a");
//! let b = ckt.node("b");
//! ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
//! let r1 = ckt.add_resistor("R1", a, b, 1e3);
//! ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
//! ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-12);
//! ckt.annotate_resistor_mismatch(r1, 10.0);
//!
//! let mut opts = PssOptions::default();
//! opts.n_steps = 16;
//! let res = analyze(
//!     &ckt,
//!     &PssConfig::Driven { period: 1e-6, opts },
//!     &[MetricSpec::new("vout", Metric::DcAverage { node: b })],
//! )?;
//! println!("sigma(vout) = {:.3} mV", res.reports[0].sigma() * 1e3);
//! # Ok::<(), tranvar::core::CoreError>(())
//! ```
//!
//! Run the paper's experiments with the binaries in `tranvar-bench`
//! (`cargo run -p tranvar-bench --bin table2`, `--bin fig9`, ...); see
//! EXPERIMENTS.md for the full index.
//!
//! ## Performance architecture
//!
//! The hot path exploits the fact that a circuit's MNA sparsity pattern is
//! fixed: the sparse LU splits into one symbolic pivot analysis per circuit
//! plus numeric-only refactorizations per timestep
//! ([`num::SparseSymbolic`], [`num::SparseLu::refactor`]), each
//! factorization has one triangular-solve kernel — the compile-time lane
//! solve `solve_arr::<N>`, whose width-1 case is the zero-allocation single
//! solve `solve_into` and which `solve_multi_lanes` drives for multi-RHS
//! blocks, bit-for-bit identical per RHS — and the transient sensitivity
//! engine propagates all mismatch
//! parameters as one batched block, on the calling thread unless the
//! session asks for more workers ([`engine::SessionOptions::threads`]; the
//! parallel traffic is many independent solves). See ROADMAP.md's
//! "Performance" section and `BENCH_transens.json` for the measured
//! trajectory.
//!
//! ## Sessions & campaigns
//!
//! One analysis call is the paper's unit of work; a variation-analysis
//! *service* runs that call across corners, supplies, sizings and mismatch
//! levels. Two layers turn the per-call library into that serving shape:
//!
//! - An [`engine::Session`] owns the solver choice, the symbolic-analysis
//!   cache keyed by MNA sparsity pattern, the reusable integration
//!   workspaces and the thread policy. Every analysis
//!   ([`engine::Session::dc_operating_point`], [`engine::Session::transient`],
//!   [`engine::Session::transient_with_sensitivities`],
//!   [`pss::shooting_pss_in`], [`pss::autonomous_pss_in`],
//!   [`core::analyze_in`]) borrows from it instead of allocating per call;
//!   the free functions are one-line conveniences over a fresh session,
//!   bit-identical to a warm one on the dense backend (the sparse
//!   backend's pivot-order replay is machine-precision identical — see
//!   [`engine::session`]).
//! - A [`core::Campaign`] evaluates named [`core::Scenario`]s — lists of
//!   numeric-only [`circuit::CircuitOverride`]s applied via
//!   [`circuit::Circuit::revalue`], which preserves the sparsity pattern —
//!   against one base circuit on worker sessions, sharing one PSS+LPTV
//!   solve across scenarios that differ only in mismatch σ. Results are
//!   byte-identical for any worker-thread count (dense backend) and to a
//!   sequential loop of per-call [`core::analyze`] calls; `BENCH_campaign.json`
//!   records the measured cached-vs-per-call speedup.
//!
//! Errors stay typed end-to-end: [`TranvarError`] unions every layer's
//! error with `From` impls, so campaign outcomes can be matched on rather
//! than stringified.
//!
//! ## Fault tolerance
//!
//! A long-running service cannot let one pathological circuit spin, blow
//! up, or take a worker down. The solve pipeline is guarded at four levels:
//!
//! - **Budgets** — [`engine::SolveBudget`] (from [`engine::BudgetLimits`]:
//!   max Newton iterations, max factorizations, wall-clock deadline) is a
//!   cooperative meter shared by every nested stage of a solve — DC
//!   homotopy, transient steps, PSS shooting rounds, LPTV passes.
//!   Exhaustion returns [`engine::EngineError::BudgetExceeded`] with the
//!   tripped limit and progress so far. The default is unlimited and
//!   costs a few atomic reads per Newton iteration.
//! - **Non-finite guards** — NaN/Inf in residuals, updates, or LU pivots
//!   fail fast as [`engine::EngineError::NonFinite`] /
//!   [`num::NumError::NonFinite`], deliberately distinct from
//!   [`num::NumError::Singular`]: a zero pivot may be rescued by gmin
//!   regularization, garbage operands need the model repaired.
//! - **Retry escalation** — a campaign or daemon solve re-attempts
//!   retryable failures ([`engine::is_retryable`]) up one bounded
//!   periodic ladder: halved timestep, then the other
//!   [`engine::SolverKind`], through one loop
//!   ([`engine::retry::run_ladder`]), at most
//!   [`engine::RetryPolicy::max_attempts`] attempts. Every attempt is
//!   recorded in [`engine::SolveDiagnostics`], so callers see exactly
//!   which rung rescued a solve. [`core::Campaign`] does not retry unless
//!   you opt in with [`core::Campaign::with_retry`] — results stay
//!   bit-identical otherwise.
//! - **Panic isolation** — [`core::Campaign`] catches worker panics,
//!   reports them as typed [`core::CoreError::Panic`] outcomes for the
//!   affected scenarios, retires the poisoned session, and keeps the
//!   rest of the campaign running; aggregates over zero successes are
//!   well-defined rather than NaN.
//!
//! All of it is testable deterministically: the `fault-inject` cargo
//! feature enables `engine::fault`, which forces singular/non-finite
//! factorizations at call *k*, poisons residuals, fails chosen homotopy
//! stages or retry rungs, panics at scenario *i*, and mocks the deadline
//! clock. With the feature off (the default) the hooks compile to inlined
//! no-ops.

#![warn(missing_docs)]

pub mod error;

pub use tranvar_circuit as circuit;
pub use tranvar_circuits as circuits;
pub use tranvar_core as core;
pub use tranvar_engine as engine;
pub use tranvar_lptv as lptv;
pub use tranvar_netlist as netlist;
pub use tranvar_num as num;
pub use tranvar_pss as pss;

pub use error::{http_status_of, TranvarError, WireStatus};
pub use tranvar_core::prelude;
