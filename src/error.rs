//! The workspace-wide error type.
//!
//! Every crate in the workspace carries its own typed error
//! ([`CircuitError`], [`NumError`], [`EngineError`], [`PssError`],
//! [`LptvError`], [`CoreError`]); [`TranvarError`] is the facade's union of
//! all of them, with `From` impls in both the per-crate and transitive
//! directions that matter for `?`-propagation. Campaign outcomes and
//! application code can therefore keep errors fully typed end-to-end —
//! matching on a `NoConvergence` at one corner of a scenario grid instead
//! of grepping a stringified message.
//!
//! ## Failure taxonomy for fault-tolerant callers
//!
//! The variants a resilient caller (a retry loop, a serving layer, a
//! campaign consumer) should distinguish — each with its wire identity
//! (stable code + HTTP status) from [`TranvarError::wire_status`]:
//!
//! - [`EngineError::BudgetExceeded`] (`engine.budget-exceeded`, 504) — a
//!   cooperative [`tranvar_engine::SolveBudget`] limit (Newton
//!   iterations, factorizations, or deadline) tripped mid-solve, with
//!   progress diagnostics attached. *Not retryable*: retrying re-spends
//!   a budget that is already gone; raise the budget or reject the
//!   request.
//! - [`EngineError::NonFinite`] / [`NumError::NonFinite`]
//!   (`engine.non-finite` / `num.non-finite`, 422) — NaN or Inf entered
//!   a residual, update, or factorization. Distinct from
//!   [`NumError::Singular`] (`num.singular`, 422 — a
//!   structurally/numerically zero pivot): singularity can often be
//!   rescued by gmin regularization or a different homotopy path,
//!   non-finite operands mean the model evaluation itself produced
//!   garbage.
//! - [`CoreError::Panic`] (`core.panic`, 500) — a campaign worker
//!   panicked; the panic was caught, the worker session retired, and the
//!   message preserved. The affected scenarios fail typed, the rest of
//!   the campaign completes.
//! - [`NumError::Internal`] (`num.internal`, 500) — a kernel workspace
//!   invariant was violated (a bug surfaced as a typed error rather than
//!   a panic in library code).
//!
//! Bad input (`circuit.*`, `*.bad-config`) answers 400. A SPICE deck
//! that fails to parse or elaborate (`netlist.*`, 422) is
//! *unprocessable*: the request was syntactically a valid submission but
//! its content cannot be turned into a circuit — every such error
//! carries the offending line and column. The serving layer
//! (`tranvar-serve`) adds its own request-level codes on top —
//! `serve.shed` (429, queue full, with `Retry-After`),
//! `serve.bad-request` / `serve.unknown-deck` (400), `serve.draining`
//! (503) — see the README's failure-taxonomy table for the full wire
//! contract.
//!
//! [`tranvar_engine::is_retryable`] encodes which engine errors the
//! periodic retry ladder (bounded by [`tranvar_engine::RetryPolicy`],
//! enabled with [`tranvar_core::Campaign::with_retry`]) will re-attempt,
//! and [`tranvar_engine::SolveDiagnostics`] records the attempt trail of
//! every rescued (or abandoned) solve.

use std::error::Error;
use std::fmt;
use tranvar_circuit::CircuitError;
use tranvar_core::CoreError;
use tranvar_engine::EngineError;
use tranvar_lptv::LptvError;
use tranvar_netlist::NetlistError;
use tranvar_num::{FailureClass, NumError, WireFault};
use tranvar_pss::PssError;

/// The wire identity of a [`TranvarError`]: a stable machine-readable code
/// plus the HTTP status a serving layer should answer with.
///
/// Produced by [`TranvarError::wire_status`]. The codes are a public
/// contract — clients branch on them — so they only ever *gain* entries;
/// renaming or removing one is a breaking change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireStatus {
    /// Stable dot-separated error code, e.g. `"engine.budget-exceeded"`.
    pub code: &'static str,
    /// HTTP status for a serving layer: `400` bad input, `422` unstable
    /// solve, `504` exhausted budget/deadline, `500` internal fault.
    pub http: u16,
}

/// The HTTP status a [`FailureClass`] maps to. One place, exhaustive, so a
/// new class cannot ship without choosing its status.
pub fn http_status_of(class: FailureClass) -> u16 {
    match class {
        FailureClass::BadInput => 400,
        FailureClass::Unprocessable => 422,
        FailureClass::Unstable => 422,
        FailureClass::Exhausted => 504,
        FailureClass::Internal => 500,
    }
}

impl TranvarError {
    /// Map this error to its stable wire code and HTTP status.
    ///
    /// The match is exhaustive over [`TranvarError`]'s own variants and each
    /// arm delegates to that layer's own exhaustive `wire_fault()`
    /// classification, so adding a variant anywhere in the workspace is a
    /// compile error in the defining crate until it is classified. Queue
    /// shedding (HTTP 429) is not represented here: a shed request never
    /// produced a `TranvarError`, so the serving layer answers it directly.
    pub fn wire_status(&self) -> WireStatus {
        let fault: WireFault = match self {
            TranvarError::Circuit(e) => e.wire_fault(),
            TranvarError::Num(e) => e.wire_fault(),
            TranvarError::Engine(e) => e.wire_fault(),
            TranvarError::Pss(e) => e.wire_fault(),
            TranvarError::Lptv(e) => e.wire_fault(),
            TranvarError::Core(e) => e.wire_fault(),
            TranvarError::Netlist(e) => e.wire_fault(),
        };
        WireStatus {
            code: fault.code,
            http: http_status_of(fault.class),
        }
    }
}

/// Any error the `tranvar` workspace can produce, preserved with full type
/// information.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum TranvarError {
    /// Circuit construction/lookup failure.
    Circuit(CircuitError),
    /// Numerical-kernel failure (singular matrix, ...).
    Num(NumError),
    /// Engine-analysis failure (DC/transient/sensitivity/Monte-Carlo).
    Engine(EngineError),
    /// Periodic steady-state failure.
    Pss(PssError),
    /// LPTV/periodic-solver failure.
    Lptv(LptvError),
    /// Analysis-flow failure (metrics, campaign configuration).
    Core(CoreError),
    /// SPICE deck parse/elaboration failure (spanned).
    Netlist(NetlistError),
}

impl fmt::Display for TranvarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranvarError::Circuit(e) => write!(f, "circuit error: {e}"),
            TranvarError::Num(e) => write!(f, "numerical error: {e}"),
            TranvarError::Engine(e) => write!(f, "engine error: {e}"),
            TranvarError::Pss(e) => write!(f, "pss error: {e}"),
            TranvarError::Lptv(e) => write!(f, "lptv error: {e}"),
            TranvarError::Core(e) => write!(f, "analysis error: {e}"),
            TranvarError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl Error for TranvarError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TranvarError::Circuit(e) => Some(e),
            TranvarError::Num(e) => Some(e),
            TranvarError::Engine(e) => Some(e),
            TranvarError::Pss(e) => Some(e),
            TranvarError::Lptv(e) => Some(e),
            TranvarError::Core(e) => Some(e),
            TranvarError::Netlist(e) => Some(e),
        }
    }
}

impl From<CircuitError> for TranvarError {
    fn from(e: CircuitError) -> Self {
        TranvarError::Circuit(e)
    }
}
impl From<NumError> for TranvarError {
    fn from(e: NumError) -> Self {
        TranvarError::Num(e)
    }
}
impl From<EngineError> for TranvarError {
    fn from(e: EngineError) -> Self {
        TranvarError::Engine(e)
    }
}
impl From<PssError> for TranvarError {
    fn from(e: PssError) -> Self {
        TranvarError::Pss(e)
    }
}
impl From<LptvError> for TranvarError {
    fn from(e: LptvError) -> Self {
        TranvarError::Lptv(e)
    }
}
impl From<CoreError> for TranvarError {
    fn from(e: CoreError) -> Self {
        TranvarError::Core(e)
    }
}
impl From<NetlistError> for TranvarError {
    fn from(e: NetlistError) -> Self {
        TranvarError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_every_layer_with_source_and_display() {
        let cases: Vec<TranvarError> = vec![
            CircuitError::UnknownNode { name: "x".into() }.into(),
            NumError::Singular { col: 1 }.into(),
            EngineError::BadConfig("dt".into()).into(),
            PssError::BadConfig("period".into()).into(),
            LptvError::MissingRecords.into(),
            CoreError::Metric("no crossing".into()).into(),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
            assert!(e.source().is_some(), "{e:?}");
        }
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TranvarError>();
    }

    #[test]
    fn question_mark_propagation_compiles_across_layers() {
        fn engine_stage() -> Result<(), EngineError> {
            Err(EngineError::BadConfig("synthetic".into()))
        }
        fn pipeline() -> Result<(), TranvarError> {
            engine_stage()?;
            Ok(())
        }
        assert!(matches!(pipeline(), Err(TranvarError::Engine(_))));
    }

    #[test]
    fn wire_status_covers_every_failure_shape() {
        use std::time::Duration;
        use tranvar_engine::{BudgetKind, BudgetProgress};

        let budget_exceeded: TranvarError = EngineError::BudgetExceeded {
            analysis: "tran".into(),
            progress: BudgetProgress {
                newton_iters: 10,
                factorizations: 4,
                elapsed: Duration::from_millis(5),
                exhausted: BudgetKind::Deadline,
            },
        }
        .into();

        let cases: Vec<(TranvarError, &str, u16)> = vec![
            // Bad decks and configs are the client's fault: 400.
            (
                CircuitError::UnknownNode { name: "x".into() }.into(),
                "circuit.unknown-node",
                400,
            ),
            (
                CircuitError::InvalidParameter {
                    device: "R1".into(),
                    reason: "negative".into(),
                }
                .into(),
                "circuit.invalid-parameter",
                400,
            ),
            (
                EngineError::BadConfig("dt".into()).into(),
                "engine.bad-config",
                400,
            ),
            (
                PssError::BadConfig("period".into()).into(),
                "pss.bad-config",
                400,
            ),
            (
                PssError::TimeVaryingSource {
                    device: "VCLK".into(),
                }
                .into(),
                "pss.time-varying-source",
                400,
            ),
            (
                LptvError::MissingRecords.into(),
                "lptv.missing-records",
                400,
            ),
            (
                CoreError::BadConfig("workers".into()).into(),
                "core.bad-config",
                400,
            ),
            // Unprocessable decks: 422, with the offending span preserved.
            (
                NetlistError::Syntax {
                    span: tranvar_netlist::Span::new(3, 7),
                    what: "expected a node".into(),
                }
                .into(),
                "netlist.syntax",
                422,
            ),
            (
                NetlistError::DanglingNode {
                    span: tranvar_netlist::Span::new(4, 1),
                    node: "x".into(),
                }
                .into(),
                "netlist.dangling-node",
                422,
            ),
            // Numerically unstable solves on a well-formed request: 422.
            (NumError::Singular { col: 1 }.into(), "num.singular", 422),
            (
                EngineError::NoConvergence {
                    analysis: "dc".into(),
                    detail: "stalled".into(),
                }
                .into(),
                "engine.no-convergence",
                422,
            ),
            (
                PssError::NoOscillation {
                    detail: "flat".into(),
                }
                .into(),
                "pss.no-oscillation",
                422,
            ),
            (
                CoreError::Metric("no crossing".into()).into(),
                "core.metric",
                422,
            ),
            // Exhausted budget/deadline: 504.
            (budget_exceeded, "engine.budget-exceeded", 504),
            // Panics and invariant violations are our fault: 500.
            (
                CoreError::Panic {
                    context: "scenario 3".into(),
                    message: "boom".into(),
                }
                .into(),
                "core.panic",
                500,
            ),
            (
                NumError::Internal {
                    what: "workspace size",
                }
                .into(),
                "num.internal",
                500,
            ),
        ];
        for (err, code, http) in cases {
            let ws = err.wire_status();
            assert_eq!(ws.code, code, "{err:?}");
            assert_eq!(ws.http, http, "{err:?}");
        }

        // Delegation through wrapper layers preserves the inner identity.
        let nested: TranvarError =
            CoreError::Engine(EngineError::Num(NumError::Singular { col: 0 })).into();
        assert_eq!(nested.wire_status().code, "num.singular");
        assert_eq!(nested.wire_status().http, 422);
    }
}
