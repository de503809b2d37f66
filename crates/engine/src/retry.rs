//! Bounded retry/fallback escalation for failed periodic solves.
//!
//! The one solve a variation analysis cannot do without is the PSS orbit
//! (every LPTV pass reuses its factorizations), and yield-style campaigns
//! push circuits into exactly the corners where that solve is most likely
//! to fail. A [`RetryPolicy`] gives those failures a second (and third)
//! chance without unbounded work. On a retryable failure —
//! [`EngineError::NoConvergence`], [`EngineError::NonFinite`], a
//! singular/non-finite factorization — the solve escalates through one
//! fixed ladder of progressively more conservative configurations:
//!
//! 1. **halved timestep** — the shooting step count doubles; under
//!    [`StepControl::Adaptive`](crate::tran::StepControl) the LTE
//!    `reltol`/`abstol` also tighten 10×, since the LTE controller, not the
//!    seed step, owns the accepted step sizes there,
//! 2. **the other [`SolverKind`] backend** — a pivot order that breaks down
//!    in one elimination scheme may survive the other.
//!
//! Escalations are cumulative (the doubled step count stays in force on
//! the other backend). A tripped [`EngineError::BudgetExceeded`] is *not*
//! retried: the budget is a global bound and every further attempt would
//! re-trip it.
//!
//! [`run_ladder`] is the one escalation loop. `tranvar_core`'s
//! `Campaign::solve_key` runs it per unique solve, which is how
//! `Campaign::with_retry` and the serving daemon's `retry` option rescue a
//! failing corner. Every attempt is recorded in a [`SolveDiagnostics`]
//! trail, so a campaign report can say not just *that* a corner needed
//! rescue but *which* rung rescued it.
//!
//! # Worked example
//!
//! ```
//! use tranvar_engine::retry::{is_retryable, ladder, run_ladder, Escalation, RetryPolicy};
//! use tranvar_engine::{EngineError, SolveBudget, SolveDiagnostics};
//!
//! let rungs = ladder(&RetryPolicy::default());
//! let labels: Vec<&str> = rungs.iter().map(|esc| esc.label()).collect();
//! assert_eq!(labels, ["initial", "halve-dt", "switch-backend"]);
//! assert_eq!(ladder(&RetryPolicy::none()), [Escalation::Initial]);
//!
//! // A solve that only converges once its timestep is halved.
//! let mut diag = SolveDiagnostics::new();
//! let res = run_ladder(
//!     rungs,
//!     &SolveBudget::unlimited(),
//!     "example",
//!     &mut diag,
//!     is_retryable,
//!     EngineError::clone,
//!     |esc| match esc {
//!         Escalation::Initial => Err(EngineError::NoConvergence {
//!             analysis: "example".into(),
//!             detail: "stalled".into(),
//!         }),
//!         _ => Ok(42),
//!     },
//! );
//! assert_eq!(res.unwrap(), 42);
//! assert_eq!(diag.stages(), ["retry[0]:initial", "retry[1]:halve-dt"]);
//! assert_eq!(diag.succeeded_stage(), Some("retry[1]:halve-dt"));
//! ```
//!
//! Forcing a real solve up the ladder requires a failure on attempt 0 —
//! see [`crate::fault`] for the deterministic way to inject one.

use crate::budget::SolveBudget;
use crate::error::EngineError;
use crate::fault;
use crate::solver::SolverKind;

/// Bounds the escalation ladder. The default runs every rung.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum total attempts, including the initial one.
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: LADDER.len(),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1 }
    }
}

/// One rung of the escalation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Escalation {
    /// The unmodified first attempt.
    Initial,
    /// Doubled shooting step count. Under adaptive step control the LTE
    /// tolerances also tighten 10×, so the rung still forces a genuinely
    /// more conservative integration.
    HalveTimestep,
    /// The other linear-solver backend.
    SwitchBackend,
}

impl Escalation {
    /// Stable label used in [`Attempt::stage`] strings.
    pub fn label(self) -> &'static str {
        match self {
            Escalation::Initial => "initial",
            Escalation::HalveTimestep => "halve-dt",
            Escalation::SwitchBackend => "switch-backend",
        }
    }
}

/// Every rung, in climbing order.
const LADDER: [Escalation; 3] = [
    Escalation::Initial,
    Escalation::HalveTimestep,
    Escalation::SwitchBackend,
];

/// One recorded solve attempt: an escalation-ladder rung.
#[derive(Clone, Debug, PartialEq)]
pub struct Attempt {
    /// What ran: `"retry[0]:initial"`, `"retry[1]:halve-dt"`, ...
    pub stage: String,
    /// `None` if the attempt succeeded, otherwise the failure.
    pub error: Option<EngineError>,
}

/// The recorded attempt trail of one fault-tolerant solve.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SolveDiagnostics {
    /// Every attempt, in execution order.
    pub attempts: Vec<Attempt>,
}

impl SolveDiagnostics {
    /// An empty trail.
    pub fn new() -> Self {
        SolveDiagnostics::default()
    }

    /// Appends one attempt record.
    pub fn record(&mut self, stage: String, error: Option<EngineError>) {
        self.attempts.push(Attempt { stage, error });
    }

    /// The stage labels in execution order.
    pub fn stages(&self) -> Vec<&str> {
        self.attempts.iter().map(|a| a.stage.as_str()).collect()
    }

    /// The label of the last successful attempt, if any.
    pub fn succeeded_stage(&self) -> Option<&str> {
        self.attempts
            .iter()
            .rev()
            .find(|a| a.error.is_none())
            .map(|a| a.stage.as_str())
    }

    /// How many retry-ladder records (`retry[i]:…`) the trail holds, a
    /// deadline short-circuit included.
    pub fn retry_attempts(&self) -> usize {
        self.attempts
            .iter()
            .filter(|a| a.stage.starts_with("retry["))
            .count()
    }
}

/// True when the retry ladder is allowed to re-attempt after `e`.
pub fn is_retryable(e: &EngineError) -> bool {
    use tranvar_num::NumError;
    matches!(
        e,
        EngineError::NoConvergence { .. }
            | EngineError::NonFinite { .. }
            | EngineError::Num(NumError::Singular { .. })
            | EngineError::Num(NumError::NonFinite { .. })
    )
}

/// The backend the switch-backend rung moves to.
pub fn flip_backend(kind: SolverKind) -> SolverKind {
    match kind {
        SolverKind::Dense => SolverKind::Sparse,
        // Both sparse variants fall back to the dense kernel, whose fresh
        // full pivot search is the most robust escape from a bad pivot order.
        SolverKind::Sparse | SolverKind::SparseOrdered => SolverKind::Dense,
    }
}

/// The rungs `policy` allows: the first `policy.max_attempts` of the
/// ladder (at least the initial attempt).
pub fn ladder(policy: &RetryPolicy) -> &'static [Escalation] {
    &LADDER[..policy.max_attempts.clamp(1, LADDER.len())]
}

/// Runs the escalation loop: the periodic ladder `tranvar-core`'s
/// `Campaign::solve_key` climbs for every campaign and daemon solve.
///
/// `solve_one(esc)` performs one attempt at rung `esc`, applying the rung
/// to the caller's cumulative configuration first. The fault-injection
/// site [`fault::sites::RETRY_ATTEMPT`] can fail any attempt by index
/// *before* `solve_one` is called, so the rung of a faulted attempt is
/// never applied and does not carry into later attempts. Each attempt is
/// recorded as `retry[i]:<label>` with `view(err)` as its error; the
/// ladder climbs only while `retryable(err)` holds, so any other error
/// (budget exhaustion, a caught panic) ends it immediately.
///
/// The ladder is deadline-aware: before every rung (including the first) it
/// checks whether `budget`'s wall-clock deadline has already expired, and if
/// so stops without spending the attempt. An escalation rung is the most
/// expensive work a solve can re-spend (a whole PSS solve, at twice the
/// steps from the second rung on), so burning one against an already-dead
/// deadline only delays the typed [`EngineError::BudgetExceeded`] the
/// caller is owed (its analysis string is `context`). The short-circuit is
/// recorded as `retry[i]:deadline-short-circuit` in the trail so
/// diagnostics distinguish "rung i never ran" from "rung i failed".
pub fn run_ladder<T, E: From<EngineError>>(
    ladder: &[Escalation],
    budget: &SolveBudget,
    context: &str,
    diag: &mut SolveDiagnostics,
    retryable: impl Fn(&E) -> bool,
    view: impl Fn(&E) -> EngineError,
    mut solve_one: impl FnMut(Escalation) -> Result<T, E>,
) -> Result<T, E> {
    let mut last_err = None;
    for (i, &esc) in ladder.iter().enumerate() {
        if budget.deadline_expired() {
            let e = budget.deadline_exceeded(context);
            diag.record(
                format!("retry[{i}]:deadline-short-circuit"),
                Some(e.clone()),
            );
            return Err(e.into());
        }
        let res = match fault::attempt_fault(fault::sites::RETRY_ATTEMPT, i) {
            Some(e) => Err(e.into()),
            None => solve_one(esc),
        };
        diag.record(
            format!("retry[{i}]:{}", esc.label()),
            res.as_ref().err().map(&view),
        );
        match res {
            Ok(x) => return Ok(x),
            Err(e) if retryable(&e) => last_err = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last_err
        .unwrap_or_else(|| EngineError::BadConfig("retry ladder ran no attempts".into()).into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_respect_policy_switches() {
        use Escalation::*;
        assert_eq!(
            ladder(&RetryPolicy::default()),
            [Initial, HalveTimestep, SwitchBackend]
        );
        assert_eq!(ladder(&RetryPolicy::none()), [Initial]);
        assert_eq!(ladder(&RetryPolicy { max_attempts: 0 }), [Initial]);
        assert_eq!(
            ladder(&RetryPolicy { max_attempts: 2 }),
            [Initial, HalveTimestep]
        );
        assert_eq!(ladder(&RetryPolicy { max_attempts: 9 }).len(), 3);
    }

    #[test]
    fn budget_errors_are_not_retryable() {
        use crate::budget::{BudgetKind, BudgetProgress};
        use std::time::Duration;
        let e = EngineError::BudgetExceeded {
            analysis: "dc".into(),
            progress: BudgetProgress {
                newton_iters: 1,
                factorizations: 1,
                elapsed: Duration::ZERO,
                exhausted: BudgetKind::NewtonIters,
            },
        };
        assert!(!is_retryable(&e));
        assert!(is_retryable(&EngineError::NoConvergence {
            analysis: "dc".into(),
            detail: String::new(),
        }));
        assert!(is_retryable(&EngineError::Num(
            tranvar_num::NumError::NonFinite { col: 0 }
        )));
        assert!(!is_retryable(&EngineError::BadConfig("x".into())));
    }

    /// Runs `ladder` with attempts that each do `work`, then fail to converge.
    fn fail_every_rung(
        ladder: &[Escalation],
        budget: &SolveBudget,
        diag: &mut SolveDiagnostics,
        mut work: impl FnMut(),
    ) -> Result<(), EngineError> {
        let fail = |_| {
            work();
            Err(EngineError::NoConvergence {
                analysis: "test".into(),
                detail: "injected".into(),
            })
        };
        run_ladder(
            ladder,
            budget,
            "retry ladder",
            diag,
            is_retryable,
            EngineError::clone,
            fail,
        )
    }

    #[test]
    fn ladder_short_circuits_when_deadline_expires_mid_ladder() {
        use crate::budget::{BudgetKind, BudgetLimits};
        use std::time::Duration;
        // The deadline outlives attempt 0 but not the work attempt 0 does:
        // the ladder must refuse to start rung 1 and record why.
        let budget = SolveBudget::new(BudgetLimits::default().deadline(Duration::from_millis(20)));
        let ladder = [
            Escalation::Initial,
            Escalation::HalveTimestep,
            Escalation::SwitchBackend,
        ];
        let mut diag = SolveDiagnostics::new();
        let mut attempts_run = 0usize;
        let res = fail_every_rung(&ladder, &budget, &mut diag, || {
            attempts_run += 1;
            std::thread::sleep(Duration::from_millis(30));
        });
        assert_eq!(attempts_run, 1, "escalation must stop at the dead deadline");
        match res {
            Err(EngineError::BudgetExceeded { progress, .. }) => {
                assert_eq!(progress.exhausted, BudgetKind::Deadline);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        assert_eq!(
            diag.stages(),
            vec!["retry[0]:initial", "retry[1]:deadline-short-circuit"]
        );
        // The short-circuit record carries the typed error, not a blank.
        assert!(matches!(
            diag.attempts[1].error,
            Some(EngineError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn ladder_without_deadline_never_short_circuits() {
        let budget = SolveBudget::unlimited();
        let ladder = [Escalation::Initial, Escalation::SwitchBackend];
        let mut diag = SolveDiagnostics::new();
        let res = fail_every_rung(&ladder, &budget, &mut diag, || {});
        assert!(matches!(res, Err(EngineError::NoConvergence { .. })));
        assert_eq!(diag.retry_attempts(), 2);
    }
}
