//! Bounded retry/fallback escalation for failed solves.
//!
//! Yield-style campaigns push circuits into exactly the corners where a
//! solve is most likely to fail; a [`RetryPolicy`] gives those failures a
//! second (and third, ...) chance without unbounded work. On a retryable
//! failure — [`EngineError::NoConvergence`], [`EngineError::NonFinite`], a
//! singular/non-finite factorization — the solve escalates through a fixed
//! ladder of progressively more conservative configurations:
//!
//! 1. **denser gmin schedule** — geometric midpoints inserted between the
//!    configured gmin steps (DC),
//! 2. **more source steps** — 4× the source-stepping resolution (DC),
//! 3. **halved timestep** (transient) — under
//!    [`StepControl::Adaptive`](crate::tran::StepControl) this rung also
//!    tightens `reltol`/`abstol` 10×, since the LTE controller, not `dt`,
//!    owns the accepted step sizes there,
//! 4. **the other [`SolverKind`] backend** — a pivot order that breaks down
//!    in one elimination scheme may survive the other.
//!
//! Rungs that do not apply to an analysis are skipped; escalations are
//! cumulative (the denser gmin schedule stays in force while source steps
//! increase). A tripped [`EngineError::BudgetExceeded`] is *not* retried:
//! the budget is a global bound and every further attempt would re-trip it.
//!
//! Every attempt — including the homotopy stages inside a DC attempt — is
//! recorded in a [`SolveDiagnostics`] trail, so a campaign report can say
//! not just *that* a corner needed rescue but *which* rung rescued it.
//!
//! # Worked example
//!
//! ```
//! use tranvar_circuit::{Circuit, NodeId, Waveform};
//! use tranvar_engine::dc::DcOptions;
//! use tranvar_engine::retry::RetryPolicy;
//! use tranvar_engine::session::Session;
//!
//! let mut ckt = Circuit::new();
//! let a = ckt.node("a");
//! let b = ckt.node("b");
//! ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
//! ckt.add_resistor("R1", a, b, 1e3);
//! ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
//!
//! let (res, diag) = Session::default()
//!     .dc_operating_point_resilient(&ckt, &DcOptions::default(), &RetryPolicy::default());
//! let x = res.unwrap();
//! assert!((ckt.voltage(&x, b) - 1.0).abs() < 1e-6);
//! // A healthy solve needs no escalation; the trail still records the
//! // homotopy stage and the rung that succeeded.
//! assert_eq!(diag.stages(), vec!["dc:direct", "retry[0]:initial"]);
//! assert_eq!(diag.succeeded_stage(), Some("retry[0]:initial"));
//! assert_eq!(diag.retry_attempts(), 1);
//! ```
//!
//! Forcing the ladder to actually climb requires a failure on attempt 0 —
//! see [`crate::fault`] for the deterministic way to inject one.

use crate::budget::SolveBudget;
use crate::dc::DcOptions;
use crate::error::EngineError;
use crate::fault;
use crate::solver::SolverKind;
use crate::tran::TranOptions;

/// Bounds and enables the escalation ladder. The default enables every
/// rung with at most 5 total attempts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum total attempts, including the initial one.
    pub max_attempts: usize,
    /// Enable the denser-gmin-schedule rung (DC).
    pub denser_gmin: bool,
    /// Enable the more-source-steps rung (DC).
    pub more_source_steps: bool,
    /// Enable the halved-timestep rung (transient / periodic).
    pub halve_timestep: bool,
    /// Enable the other-backend rung.
    pub switch_backend: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            denser_gmin: true,
            more_source_steps: true,
            halve_timestep: true,
            switch_backend: true,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            denser_gmin: false,
            more_source_steps: false,
            halve_timestep: false,
            switch_backend: false,
        }
    }
}

/// One rung of the escalation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Escalation {
    /// The unmodified first attempt.
    Initial,
    /// Geometric midpoints inserted into the gmin schedule.
    DenserGmin,
    /// 4× source-stepping resolution.
    MoreSourceSteps,
    /// Halved integration timestep (doubled step count for periodic
    /// solves). On an adaptive-step transient the initial `dt` is halved
    /// *and* the LTE tolerances are tightened 10×, so the rung still forces
    /// a genuinely more conservative integration.
    HalveTimestep,
    /// The other linear-solver backend.
    SwitchBackend,
}

impl Escalation {
    /// Stable label used in [`Attempt::stage`] strings.
    pub fn label(self) -> &'static str {
        match self {
            Escalation::Initial => "initial",
            Escalation::DenserGmin => "denser-gmin",
            Escalation::MoreSourceSteps => "more-source-steps",
            Escalation::HalveTimestep => "halve-dt",
            Escalation::SwitchBackend => "switch-backend",
        }
    }
}

/// One recorded solve attempt: a homotopy stage or an escalation-ladder
/// rung.
#[derive(Clone, Debug, PartialEq)]
pub struct Attempt {
    /// What ran: `"dc:direct"`, `"dc:gmin[1.0e-5]"`, `"dc:source[3/20]"`,
    /// `"retry[1]:denser-gmin"`, ...
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

    /// How many retry-ladder attempts were recorded (homotopy stages within
    /// an attempt are not counted).
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

/// Inserts a geometric midpoint between consecutive schedule entries.
fn densify_gmin(schedule: &[f64]) -> Vec<f64> {
    if schedule.is_empty() {
        return vec![1e-3, 1e-6, 1e-9, 1e-12];
    }
    let mut out = Vec::with_capacity(schedule.len() * 2);
    for w in schedule.windows(2) {
        out.push(w[0]);
        let mid = (w[0] * w[1]).sqrt();
        if mid.is_finite() && mid > 0.0 {
            out.push(mid);
        }
    }
    out.push(schedule[schedule.len() - 1]);
    out
}

/// The enabled `rungs` under `policy`, at most `policy.max_attempts` long.
fn ladder(policy: &RetryPolicy, rungs: &[Escalation]) -> Vec<Escalation> {
    let enabled = |esc: &Escalation| match esc {
        Escalation::Initial => true,
        Escalation::DenserGmin => policy.denser_gmin,
        Escalation::MoreSourceSteps => policy.more_source_steps,
        Escalation::HalveTimestep => policy.halve_timestep,
        Escalation::SwitchBackend => policy.switch_backend,
    };
    let n = policy.max_attempts.max(1);
    rungs.iter().copied().filter(enabled).take(n).collect()
}

/// The ladder for DC solves under `policy` (timestep rung skipped).
pub(crate) fn dc_ladder(policy: &RetryPolicy) -> Vec<Escalation> {
    use Escalation::*;
    ladder(
        policy,
        &[Initial, DenserGmin, MoreSourceSteps, SwitchBackend],
    )
}

/// The ladder for transient and periodic solves under `policy` (gmin/source
/// rungs are DC-seed concerns and skipped here).
pub fn tran_ladder(policy: &RetryPolicy) -> Vec<Escalation> {
    use Escalation::*;
    ladder(policy, &[Initial, HalveTimestep, SwitchBackend])
}

/// Applies one rung (cumulatively) to DC options. The switch-backend rung
/// changes no option: it runs on a session of the other backend.
pub(crate) fn apply_dc(opts: &mut DcOptions, esc: Escalation) {
    match esc {
        Escalation::DenserGmin => opts.gmin_schedule = densify_gmin(&opts.gmin_schedule),
        Escalation::MoreSourceSteps => opts.source_steps = (opts.source_steps * 4).max(4),
        _ => {}
    }
}

/// Applies one rung (cumulatively) to transient options; like
/// [`apply_dc`], the switch-backend rung changes no option.
pub(crate) fn apply_tran(opts: &mut TranOptions, esc: Escalation) {
    use crate::tran::StepControl;
    if esc == Escalation::HalveTimestep {
        opts.dt /= 2.0;
        // In adaptive mode dt only seeds the first step — the retry must
        // reach the LTE controller to change the accepted grid.
        if let StepControl::Adaptive(a) = &mut opts.step_control {
            a.reltol /= 10.0;
            a.abstol /= 10.0;
        }
    }
}

/// Runs the escalation loop shared by every resilient solve: the
/// [`Session`](crate::session::Session) DC and transient methods and the
/// periodic campaign ladder of `tranvar-core`.
///
/// `solve_one(esc, diag)` performs one attempt at rung `esc`, applying the
/// rung to the caller's cumulative configuration first. The
/// fault-injection site [`fault::sites::RETRY_ATTEMPT`] can fail any
/// attempt by index *before* `solve_one` is called, so the rung of a
/// faulted attempt is never applied and does not carry into later
/// attempts. Each attempt is recorded as `retry[i]:<label>` with
/// `view(err)` as its error; the ladder climbs only while `retryable(err)`
/// holds, so any other error (budget exhaustion, a caught panic) ends it
/// immediately.
///
/// The ladder is deadline-aware: before every rung (including the first) it
/// checks whether `budget`'s wall-clock deadline has already expired, and if
/// so stops without spending the attempt. An escalation rung is the most
/// expensive work a solve can re-spend (denser homotopy, 4× source steps,
/// halved timestep), so burning one against an already-dead deadline only
/// delays the typed [`EngineError::BudgetExceeded`] the caller is owed
/// (its analysis string is `context`). The short-circuit is recorded as
/// `retry[i]:deadline-short-circuit` in the trail so diagnostics
/// distinguish "rung i never ran" from "rung i failed".
pub fn run_ladder<T, E: From<EngineError>>(
    ladder: &[Escalation],
    budget: &SolveBudget,
    context: &str,
    diag: &mut SolveDiagnostics,
    retryable: impl Fn(&E) -> bool,
    view: impl Fn(&E) -> EngineError,
    mut solve_one: impl FnMut(Escalation, &mut SolveDiagnostics) -> Result<T, E>,
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
            None => solve_one(esc, diag),
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
    fn densify_inserts_geometric_midpoints() {
        let d = densify_gmin(&[1e-3, 1e-5, 1e-7]);
        assert_eq!(d.len(), 5);
        assert!((d[1] - 1e-4).abs() < 1e-12);
        assert!((d[3] - 1e-6).abs() < 1e-14);
        assert_eq!(d[4], 1e-7);
    }

    #[test]
    fn ladders_respect_policy_switches() {
        let all = RetryPolicy::default();
        assert_eq!(dc_ladder(&all).len(), 4);
        assert_eq!(tran_ladder(&all).len(), 3);
        let none = RetryPolicy::none();
        assert_eq!(dc_ladder(&none), vec![Escalation::Initial]);
        assert_eq!(tran_ladder(&none), vec![Escalation::Initial]);
        let two = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        assert_eq!(
            dc_ladder(&two),
            vec![Escalation::Initial, Escalation::DenserGmin]
        );
        assert_eq!(
            tran_ladder(&two),
            vec![Escalation::Initial, Escalation::HalveTimestep]
        );
    }

    #[test]
    fn halve_dt_rung_tightens_adaptive_tolerances() {
        use crate::tran::{AdaptiveOptions, StepControl, TranOptions};
        // Fixed mode: only dt halves.
        let mut fixed = TranOptions::new(1e-6, 1e-9);
        apply_tran(&mut fixed, Escalation::HalveTimestep);
        assert_eq!(fixed.dt, 0.5e-9);
        assert_eq!(fixed.step_control, StepControl::Fixed);
        // Adaptive mode: dt halves and both LTE tolerances tighten 10×.
        let a = AdaptiveOptions {
            reltol: 1e-3,
            abstol: 1e-6,
            ..AdaptiveOptions::default()
        };
        let mut adaptive = TranOptions::adaptive(1e-6, 1e-9, a);
        apply_tran(&mut adaptive, Escalation::HalveTimestep);
        assert_eq!(adaptive.dt, 0.5e-9);
        match adaptive.step_control {
            StepControl::Adaptive(a) => {
                assert_eq!(a.reltol, 1e-4);
                assert_eq!(a.abstol, 1e-7);
            }
            StepControl::Fixed => panic!("mode must be preserved"),
        }
        // The rung label is unchanged — diagnostics stay comparable across
        // fixed and adaptive campaigns.
        assert_eq!(Escalation::HalveTimestep.label(), "halve-dt");
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
        let fail = |_, _: &mut SolveDiagnostics| {
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
            Escalation::DenserGmin,
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
