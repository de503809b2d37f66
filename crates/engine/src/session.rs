//! Analysis sessions: shared solver state for many analyses on one circuit.
//!
//! Every analysis in this workspace bottoms out in the same two MNA
//! sparsity patterns — the *static* pattern `G + gmin·I` (operating points)
//! and the *dynamic* pattern `θ·G + C/h + gmin·I` (time stepping) — and
//! before this module every entry point (`dc_operating_point`, `transient`,
//! `transient_with_sensitivities`, the PSS shooting loops) rebuilt its own
//! staging buffers and re-ran the symbolic analysis per call. A [`Session`]
//! owns that state instead:
//!
//! - the **solver choice** ([`SolverKind`]), applied to every analysis run
//!   through the session (per-call `NewtonOptions::solver` is overridden),
//! - the **symbolic-analysis cache keyed by sparsity pattern**: one
//!   [`JacobianWorkspace`] per pattern class (static solves, dynamic
//!   integration), each retaining its staged structure, factor storage and
//!   — for the sparse backend — the replayed pivot analysis across calls,
//! - the **thread policy**: a default worker count inherited by analyses
//!   whose per-call options leave `threads` in automatic (`0`) mode,
//! - [`SessionStats`] counters proving the reuse (a warm session performs
//!   zero additional pattern builds or symbolic analyses per call).
//!
//! The existing free functions remain available as thin wrappers over a
//! fresh session and are bit-identical to their pre-session behavior on
//! the dense backend (the default, and the recommended choice for every
//! shipped circuit). The sparse backend replays a pivot order once found
//! for as long as it stays numerically acceptable, so wherever the session
//! introduces sharing that did not exist before — DC homotopy stages
//! within one call, an oscillator warm-up feeding the shooting loop, and
//! any *reused* session — sparse results may differ from a fresh pivot
//! analysis by a (equally valid) pivot order: identical to machine
//! precision, not necessarily to the last bit.
//!
//! Sessions are the unit of worker-thread state in the scenario-campaign
//! layer (`tranvar-core`): one session per worker, scenarios revalued onto
//! the same sparsity pattern, every solve after the first a pure replay.

use crate::dc::{dc_operating_point_traced, dc_operating_point_with, DcOptions};
use crate::error::EngineError;
use crate::retry::{self, Escalation, RetryPolicy, SolveDiagnostics};
use crate::solver::{JacobianWorkspace, SolverKind, SolverStats};
use crate::tran::{transient_with, CycleWorkspace, TranOptions, TranResult};
use crate::transens::{transient_with_sensitivities_with, SensInit, TranSensResult};
use tranvar_circuit::Circuit;

/// Construction options for a [`Session`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionOptions {
    /// Linear-solver backend used by every analysis in the session
    /// (default [`SolverKind::Dense`]); the fill-reducing
    /// [`SolverKind::SparseOrdered`] backend is worthwhile for large sparse
    /// substrates.
    pub solver: SolverKind,
    /// Default worker-thread count for batched analyses run through the
    /// session, in the [`TranOptions::threads`] convention (`0` = all
    /// cores); applied whenever the per-call options leave `threads` at the
    /// automatic `0`. Explicit per-call values win. Within one session the
    /// batched analyses are bit-identical for any count; across *sessions*
    /// the dense backend is bit-identical too, while the sparse backend
    /// carries the pivot-replay caveat of the [module docs](self).
    pub threads: usize,
}

/// Aggregated structural-work counters of a session (see
/// [`SolverStats`]): summed over the session's per-pattern workspaces.
pub type SessionStats = SolverStats;

/// Shared solver state for repeated analyses: the solver choice, one
/// factorization workspace per MNA pattern class, and the thread policy.
///
/// See the [module docs](self) for the caching and determinism contract.
///
/// # Examples
///
/// Two transients on one circuit sharing all solver state:
///
/// ```
/// use tranvar_circuit::{Circuit, NodeId, Waveform};
/// use tranvar_engine::session::Session;
/// use tranvar_engine::tran::TranOptions;
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let b = ckt.node("b");
/// ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
/// ckt.add_resistor("R1", a, b, 1e3);
/// ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-6);
/// let mut session = Session::default();
/// let opts = TranOptions::new(1e-4, 1e-6);
/// let first = session.transient(&ckt, &opts)?;
/// let again = session.transient(&ckt, &opts)?; // replays, no re-analysis
/// assert_eq!(first.states, again.states);
/// # Ok::<(), tranvar_engine::EngineError>(())
/// ```
#[derive(Debug, Default)]
pub struct Session {
    solver: SolverKind,
    threads: usize,
    /// Workspace for the static pattern `G + gmin·I` (DC solves).
    static_ws: Option<JacobianWorkspace>,
    /// Workspace chain for the dynamic pattern `θ·G + C/h + gmin·I`
    /// (transient steps, cycle integrations, sensitivity windows).
    cycle: CycleWorkspace,
    /// Retry-escalation attempts beyond the first, summed over every
    /// resilient solve run through the session.
    retries: u64,
}

impl Session {
    /// Creates a session with the given options.
    pub fn new(opts: SessionOptions) -> Self {
        Session {
            solver: opts.solver,
            threads: opts.threads,
            static_ws: None,
            cycle: CycleWorkspace::new(),
            retries: 0,
        }
    }

    /// Creates a session with the given backend and automatic threading.
    pub fn with_solver(solver: SolverKind) -> Self {
        Session::new(SessionOptions { solver, threads: 0 })
    }

    /// The session's linear-solver backend.
    pub fn solver(&self) -> SolverKind {
        self.solver
    }

    /// The session's default worker-thread count (`0` = all cores).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Resolves a per-call `threads` request against the session policy:
    /// explicit nonzero requests win, automatic (`0`) requests inherit the
    /// session default.
    pub fn effective_threads(&self, requested: usize) -> usize {
        if requested != 0 {
            requested
        } else {
            self.threads
        }
    }

    /// The reusable cycle-integration workspace (dynamic MNA pattern), for
    /// analyses layered on top of the engine (PSS shooting loops).
    pub fn cycle_workspace(&mut self) -> &mut CycleWorkspace {
        &mut self.cycle
    }

    /// Structural-work counters summed over the session's workspaces. A
    /// warm session's counters stay constant across additional same-pattern
    /// solves — the observable behind the "one symbolic analysis per
    /// sparsity pattern" contract.
    pub fn stats(&self) -> SessionStats {
        let stat = self
            .static_ws
            .as_ref()
            .map(|w| w.stats())
            .unwrap_or_default();
        stat.merged(self.cycle.stats().unwrap_or_default())
    }

    fn static_workspace(&mut self) -> &mut JacobianWorkspace {
        let solver = self.solver;
        self.static_ws
            .get_or_insert_with(|| JacobianWorkspace::new(solver))
    }

    /// Rewrites per-call Newton options so the session's solver choice wins.
    fn newton_for(&self, opts: &crate::dc::NewtonOptions) -> crate::dc::NewtonOptions {
        crate::dc::NewtonOptions {
            solver: self.solver,
            ..opts.clone()
        }
    }

    /// DC operating point through the session's static-pattern workspace.
    ///
    /// # Errors
    ///
    /// See [`crate::dc::dc_operating_point`].
    pub fn dc_operating_point(
        &mut self,
        ckt: &Circuit,
        opts: &DcOptions,
    ) -> Result<Vec<f64>, EngineError> {
        let eff = DcOptions {
            newton: self.newton_for(&opts.newton),
            ..opts.clone()
        };
        let jws = self.static_workspace();
        dc_operating_point_with(ckt, &eff, jws)
    }

    /// Retry-escalation attempts beyond the first, summed over every
    /// resilient solve run through this session — the campaign-level
    /// companion counter to the per-solve [`SolveDiagnostics`] trail.
    pub fn retry_attempts(&self) -> u64 {
        self.retries
    }

    /// [`Session::dc_operating_point`] with retry/fallback escalation (see
    /// [`crate::retry`]); returns the result together with the full attempt
    /// trail.
    ///
    /// Non-backend-switching attempts run through the session's cached
    /// static workspace; the switch-backend rung uses a throwaway workspace
    /// of the other [`SolverKind`] so the session's replayed pivot state is
    /// never polluted by a rescue attempt.
    pub fn dc_operating_point_resilient(
        &mut self,
        ckt: &Circuit,
        opts: &DcOptions,
        policy: &RetryPolicy,
    ) -> (Result<Vec<f64>, EngineError>, SolveDiagnostics) {
        let mut diag = SolveDiagnostics::new();
        let mut cur = DcOptions {
            newton: self.newton_for(&opts.newton),
            ..opts.clone()
        };
        let ladder = retry::dc_ladder(policy);
        let budget = cur.newton.budget.clone();
        let res = retry::run_ladder(
            &ladder,
            policy.max_attempts,
            &budget,
            &mut diag,
            |esc, diag| {
                if !matches!(esc, Escalation::Initial) {
                    self.retries += 1;
                }
                retry::apply_dc(&mut cur, esc);
                if matches!(esc, Escalation::SwitchBackend) {
                    let mut ws = JacobianWorkspace::new(cur.newton.solver);
                    dc_operating_point_traced(ckt, &cur, Some(&mut ws), diag)
                } else {
                    dc_operating_point_traced(ckt, &cur, Some(self.static_workspace()), diag)
                }
            },
        );
        (res, diag)
    }

    /// [`Session::transient`] with retry/fallback escalation; returns the
    /// result together with the attempt trail. The switch-backend rung runs
    /// on a throwaway workspace chain, like
    /// [`Session::dc_operating_point_resilient`].
    pub fn transient_resilient(
        &mut self,
        ckt: &Circuit,
        opts: &TranOptions,
        policy: &RetryPolicy,
    ) -> (Result<TranResult, EngineError>, SolveDiagnostics) {
        let mut diag = SolveDiagnostics::new();
        let mut cur = opts.clone();
        let ladder = retry::tran_ladder(policy);
        let budget = cur.newton.budget.clone();
        let res = retry::run_ladder(
            &ladder,
            policy.max_attempts,
            &budget,
            &mut diag,
            |esc, _diag| {
                if !matches!(esc, Escalation::Initial) {
                    self.retries += 1;
                }
                retry::apply_tran(&mut cur, esc);
                if matches!(esc, Escalation::SwitchBackend) {
                    let mut fresh = Session::new(SessionOptions {
                        solver: cur.newton.solver,
                        threads: self.threads,
                    });
                    fresh.transient(ckt, &cur)
                } else {
                    self.transient(ckt, &cur)
                }
            },
        );
        (res, diag)
    }

    /// Transient analysis through the session's dynamic-pattern workspace.
    ///
    /// # Errors
    ///
    /// See [`crate::tran::transient`].
    pub fn transient(
        &mut self,
        ckt: &Circuit,
        opts: &TranOptions,
    ) -> Result<TranResult, EngineError> {
        let eff = self.tran_opts_with_x0(ckt, opts)?;
        transient_with(ckt, &mut self.cycle, &eff)
    }

    /// Transient forward-sensitivity analysis through the session.
    ///
    /// # Errors
    ///
    /// See [`crate::transens::transient_with_sensitivities`].
    pub fn transient_with_sensitivities(
        &mut self,
        ckt: &Circuit,
        opts: &TranOptions,
        init: SensInit,
    ) -> Result<TranSensResult, EngineError> {
        let eff = self.tran_opts_with_x0(ckt, opts)?;
        transient_with_sensitivities_with(ckt, &mut self.cycle, &eff, init)
    }

    fn tran_opts_for(&self, opts: &TranOptions) -> TranOptions {
        TranOptions {
            newton: self.newton_for(&opts.newton),
            threads: self.effective_threads(opts.threads),
            ..opts.clone()
        }
    }

    /// Per-call options with the session policy applied and the initial
    /// state resolved through the session's static workspace (mirroring the
    /// per-call DC fallback of [`crate::tran::transient`] exactly).
    fn tran_opts_with_x0(
        &mut self,
        ckt: &Circuit,
        opts: &TranOptions,
    ) -> Result<TranOptions, EngineError> {
        // Reject invalid step configs before spending a DC solve, with the
        // same error the per-call path raises.
        crate::tran::validate_step_config(opts)?;
        let mut eff = self.tran_opts_for(opts);
        if eff.x0.is_none() {
            let dc_opts = DcOptions {
                newton: eff.newton.clone(),
                ..DcOptions::default()
            };
            eff.x0 = Some(self.dc_operating_point(ckt, &dc_opts)?);
        }
        Ok(eff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::dc_operating_point;
    use crate::tran::transient;
    use crate::transens::transient_with_sensitivities;
    use tranvar_circuit::{NodeId, Pulse, Waveform};

    fn pulsed_rc(level: f64) -> Circuit {
        pulsed_rc_sized(level, 1e3)
    }

    fn pulsed_rc_sized(level: f64, r: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Pulse(Pulse {
                v0: 0.0,
                v1: level,
                delay: 1e-6,
                rise: 1e-8,
                fall: 1e-8,
                width: 4e-6,
                period: 10e-6,
            }),
        );
        let r1 = ckt.add_resistor("R1", a, b, r);
        let c1 = ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
        ckt.annotate_resistor_mismatch(r1, 10.0);
        ckt.annotate_capacitor_mismatch(c1, 1e-11);
        ckt
    }

    /// A warm session reproduces fresh per-call results bitwise (dense
    /// backend) across DC, transient and sensitivity analyses on varying
    /// circuit values.
    #[test]
    fn warm_session_matches_fresh_calls_bitwise() {
        let mut session = Session::default();
        for level in [1.0, 0.8, 1.2] {
            let ckt = pulsed_rc(level);
            let dc_fresh = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
            let dc_sess = session
                .dc_operating_point(&ckt, &DcOptions::default())
                .unwrap();
            assert_eq!(
                dc_fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                dc_sess.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            let opts = TranOptions::new(5e-6, 5e-8);
            let tr_fresh = transient(&ckt, &opts).unwrap();
            let tr_sess = session.transient(&ckt, &opts).unwrap();
            for (a, b) in tr_fresh.states.iter().zip(tr_sess.states.iter()) {
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "level {level}");
                }
            }
            let ts_fresh = transient_with_sensitivities(&ckt, &opts, SensInit::FromDc).unwrap();
            let ts_sess = session
                .transient_with_sensitivities(&ckt, &opts, SensInit::FromDc)
                .unwrap();
            for (sa, sb) in ts_fresh.sens.iter().zip(ts_sess.sens.iter()) {
                for (a, b) in sa.iter().zip(sb.iter()) {
                    for (x, y) in a.iter().zip(b.iter()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "level {level}");
                    }
                }
            }
        }
    }

    /// The session performs its structural work exactly once per pattern:
    /// further same-pattern analyses add numeric factorizations but no
    /// pattern builds or symbolic analyses.
    #[test]
    fn session_analyzes_each_pattern_once() {
        let mut session = Session::default();
        let opts = TranOptions::new(5e-6, 5e-8);
        session.transient(&pulsed_rc(1.0), &opts).unwrap();
        let warm = session.stats();
        // Static (DC) + dynamic (transient) pattern: one build+analysis each.
        assert_eq!(warm.pattern_builds, 2, "{warm:?}");
        assert_eq!(warm.symbolic_analyses, 2, "{warm:?}");
        // Value-only revaluations (same pattern, different R): the session
        // refactors numerically but never rebuilds or re-analyzes.
        for r in [0.9e3, 1.1e3, 1.3e3] {
            session.transient(&pulsed_rc_sized(1.0, r), &opts).unwrap();
        }
        let after = session.stats();
        assert_eq!(after.pattern_builds, warm.pattern_builds);
        assert_eq!(after.symbolic_analyses, warm.symbolic_analyses);
        assert!(after.numeric_factorizations > warm.numeric_factorizations);
    }

    /// Thread policy: explicit per-call requests win, automatic inherits.
    #[test]
    fn thread_policy_resolution() {
        let s = Session::new(SessionOptions {
            solver: SolverKind::Dense,
            threads: 3,
        });
        assert_eq!(s.effective_threads(0), 3);
        assert_eq!(s.effective_threads(2), 2);
        assert_eq!(Session::default().effective_threads(0), 0);
    }
}
