//! # tranvar-engine
//!
//! Circuit analyses for the `tranvar` workspace: the SPICE-class machinery
//! the paper assumes as its substrate.
//!
//! - [`dc`]: operating point via damped Newton with gmin/source stepping,
//! - [`tran`]: BE/trapezoidal transient on a fixed or LTE-controlled
//!   adaptive grid ([`tran::StepControl`]), plus the one-period integrator
//!   with per-step factorization records reused by PSS and LPTV,
//! - [`sens`]: DC sensitivities (`.SENS`, paper refs. \[20\],\[26\]), the
//!   θ-method parameter RHS, and [`sens::RecordSweep`], the one kernel that
//!   propagates blocks through recorded steps (monodromy, LPTV responses,
//!   transient sensitivities),
//! - [`transens`]: transient forward sensitivity — the expensive baseline
//!   of paper ref. \[23\] (cost ∝ #parameters, integrates through settling),
//! - [`mc`]: deterministic parallel Monte-Carlo driver (the paper's
//!   reference method, Table II),
//! - [`measure`]: delay/period/settled-value measurements shared by the
//!   Monte-Carlo and LPTV paths,
//! - [`session`]: shared solver state (pattern-keyed symbolic cache,
//!   workspace pools, thread policy) and the one implementation of DC,
//!   transient and transient-sensitivity analysis (the free functions are
//!   one-line conveniences over it) — the substrate of the scenario
//!   campaigns in `tranvar-core`,
//! - [`par`]: the worker-thread policy and scoped chunking shared by every
//!   batched analysis,
//! - [`budget`]: cooperative solve budgets (Newton iterations,
//!   factorizations, wall-clock deadline) checked once per Newton iteration,
//! - [`retry`]: the bounded retry/fallback ladder of a periodic solve
//!   (halved timestep → the other solver backend) with a recorded attempt
//!   trail, run by the one loop [`retry::run_ladder`],
//! - [`fault`]: the deterministic fault-injection harness (behind the
//!   `fault-inject` feature) that makes every recovery path testable.

#![warn(missing_docs)]

pub mod budget;
pub mod dc;
pub mod error;
pub mod fault;
pub mod mc;
pub mod measure;
pub mod par;
pub mod pool;
pub mod retry;
pub mod sens;
pub mod session;
pub mod solver;
pub mod tran;
pub mod transens;

pub use budget::{BudgetKind, BudgetLimits, BudgetProgress, SolveBudget};
pub use dc::{dc_operating_point, DcOptions, NewtonOptions};
pub use error::EngineError;
pub use mc::{monte_carlo, monte_carlo_multi, McOptions, McResult};
pub use par::{chunk_ranges, effective_threads, map_scoped};
pub use pool::SessionPool;
pub use retry::{is_retryable, Attempt, Escalation, RetryPolicy, SolveDiagnostics};
pub use session::{Session, SessionOptions, SessionStats};
pub use solver::{FactoredJacobian, SolverKind, SolverStats};
pub use tran::{
    integrate_cycle, transient, AdaptiveOptions, CycleResult, CycleWorkspace, Integrator,
    StepControl, StepRecord, TranOptions, TranResult,
};
