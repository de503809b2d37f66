//! Analysis sessions: shared solver state for many analyses on one circuit.
//!
//! Every analysis in this workspace bottoms out in the same two MNA
//! sparsity patterns — the *static* pattern `G + gmin·I` (operating points)
//! and the *dynamic* pattern `θ·G + C/h + gmin·I` (time stepping) — and
//! before this module every entry point (`dc_operating_point`, `transient`,
//! `transient_with_sensitivities`, the PSS shooting loops) rebuilt its own
//! staging buffers and re-ran the symbolic analysis per call. A [`Session`]
//! owns that state instead, and is the one implementation of the DC,
//! transient and transient-sensitivity analyses:
//!
//! - the **solver choice** ([`SolverKind`]), applied to every analysis run
//!   through the session (per-call `NewtonOptions::solver` is overridden),
//! - the **symbolic-analysis cache keyed by sparsity pattern**: one
//!   [`JacobianWorkspace`] per pattern class (static solves, dynamic
//!   integration), each retaining its staged structure, factor storage and
//!   — for the sparse backend — the replayed pivot analysis across calls,
//! - the **thread rule**: the one worker count of every record sweep run
//!   on the session — the transient-sensitivity propagation, the PSS
//!   monodromy accumulation and the LPTV parameter responses; no per-call
//!   option overrides it. The default is one worker, so a solve runs on
//!   its caller's thread; parallel traffic is many independent solves
//!   (campaign workers, the daemon's session pool), and a caller that
//!   wants one solve split asks for a count (`0` = all cores),
//! - [`SessionStats`] counters proving the reuse (a warm session performs
//!   zero additional pattern builds or symbolic analyses per call).
//!
//! The free functions [`crate::dc::dc_operating_point`],
//! [`crate::tran::transient`] and
//! [`crate::transens::transient_with_sensitivities`] are one-line
//! conveniences over a fresh session on the per-call solver, so they carry
//! the same contract. On the dense backend (the default, and the
//! recommended choice for every shipped circuit) a warm session is
//! bit-identical to a fresh one. The sparse backend replays a pivot order
//! once found for as long as it stays numerically acceptable, so wherever
//! a session shares a workspace — DC homotopy stages within one call, an
//! oscillator warm-up feeding the shooting loop, and any *reused* session
//! — sparse results may differ from a fresh pivot analysis by a (equally
//! valid) pivot order: identical to machine precision, not necessarily to
//! the last bit.
//!
//! Sessions are the unit of worker-thread state in the scenario-campaign
//! layer (`tranvar-core`): one session per worker, scenarios revalued onto
//! the same sparsity pattern, every solve after the first a pure replay.

use crate::dc::{homotopy, DcOptions, NewtonOptions};
use crate::error::EngineError;
use crate::solver::{JacobianWorkspace, SolverKind, SolverStats};
use crate::tran::{CycleWorkspace, TranOptions, TranResult};
use crate::transens::{SensInit, TranSensResult};
use tranvar_circuit::Circuit;

/// Construction options for a [`Session`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionOptions {
    /// Linear-solver backend used by every analysis in the session
    /// (default [`SolverKind::Dense`]); the fill-reducing
    /// [`SolverKind::SparseOrdered`] backend is worthwhile for large sparse
    /// substrates.
    pub solver: SolverKind,
    /// Worker-thread count of every batched analysis run through the
    /// session (`1` = the calling thread, the default; `0` = all cores; see
    /// [`crate::par::effective_threads`]). Within one session the batched
    /// analyses are bit-identical for any count; across *sessions* the
    /// dense backend is bit-identical too, while the sparse backend carries
    /// the pivot-replay caveat of the [module docs](self).
    pub threads: usize,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            solver: SolverKind::default(),
            threads: 1,
        }
    }
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
#[derive(Debug)]
pub struct Session {
    solver: SolverKind,
    threads: usize,
    /// Workspace for the static pattern `G + gmin·I` (DC solves).
    static_ws: Option<JacobianWorkspace>,
    /// Workspace chain for the dynamic pattern `θ·G + C/h + gmin·I`
    /// (transient steps, cycle integrations, sensitivity windows).
    cycle: CycleWorkspace,
}

impl Default for Session {
    fn default() -> Self {
        Session::new(SessionOptions::default())
    }
}

impl Session {
    /// Creates a session with the given options.
    pub fn new(opts: SessionOptions) -> Self {
        Session {
            solver: opts.solver,
            threads: opts.threads,
            static_ws: None,
            cycle: CycleWorkspace::new(),
        }
    }

    /// Creates a session with the given backend on one worker (the
    /// calling thread).
    pub fn with_solver(solver: SolverKind) -> Self {
        Session::new(SessionOptions {
            solver,
            ..SessionOptions::default()
        })
    }

    /// The session's linear-solver backend.
    pub fn solver(&self) -> SolverKind {
        self.solver
    }

    /// The session's worker-thread count (`1` = the calling thread, `0` =
    /// all cores).
    pub fn threads(&self) -> usize {
        self.threads
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

    /// DC operating point through the session's static-pattern workspace,
    /// shared by every homotopy stage.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoConvergence`] if all homotopies fail.
    pub fn dc_operating_point(
        &mut self,
        ckt: &Circuit,
        opts: &DcOptions,
    ) -> Result<Vec<f64>, EngineError> {
        homotopy(ckt, opts, self.static_workspace())
    }

    /// Transient analysis through the session's dynamic-pattern workspace.
    /// Without an explicit `opts.x0` the initial state is the session's DC
    /// operating point.
    ///
    /// # Errors
    ///
    /// Propagates DC and per-step Newton failures.
    pub fn transient(
        &mut self,
        ckt: &Circuit,
        opts: &TranOptions,
    ) -> Result<TranResult, EngineError> {
        let (eff, x0) = self.resolve_x0(ckt, opts)?;
        crate::tran::run(ckt, &mut self.cycle, &eff, x0, |_, _| {})
    }

    /// Transient forward-sensitivity analysis through the session (see
    /// [`crate::transens`]). Without an explicit `opts.x0` the initial
    /// state is the session's DC operating point.
    ///
    /// # Errors
    ///
    /// Propagates DC and per-step Newton failures.
    pub fn transient_with_sensitivities(
        &mut self,
        ckt: &Circuit,
        opts: &TranOptions,
        init: SensInit,
    ) -> Result<TranSensResult, EngineError> {
        let (eff, x0) = self.resolve_x0(ckt, opts)?;
        crate::transens::run(ckt, &mut self.cycle, &eff, init, x0, self.threads)
    }

    /// Validates per-call transient options, applies the session's solver
    /// and resolves the initial state: `opts.x0` when given, otherwise the
    /// DC operating point through the session's static workspace. The one
    /// place a transient-style run finds its starting point.
    pub(crate) fn resolve_x0(
        &mut self,
        ckt: &Circuit,
        opts: &TranOptions,
    ) -> Result<(TranOptions, Vec<f64>), EngineError> {
        // Reject invalid step configs before spending a DC solve.
        crate::tran::validate_grid(opts.t_start, opts.t_stop, opts.dt, &opts.step_control)?;
        let eff = TranOptions {
            newton: NewtonOptions {
                solver: self.solver,
                ..opts.newton.clone()
            },
            ..opts.clone()
        };
        let x0 = match &eff.x0 {
            Some(x) => x.clone(),
            None => {
                let dc_opts = DcOptions {
                    newton: eff.newton.clone(),
                    ..DcOptions::default()
                };
                self.dc_operating_point(ckt, &dc_opts)?
            }
        };
        Ok((eff, x0))
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

    /// One thread rule: every default session runs its record sweeps on
    /// the calling thread; only an explicit count splits them.
    #[test]
    fn sessions_default_to_one_worker() {
        assert_eq!(SessionOptions::default().threads, 1);
        assert_eq!(Session::default().threads(), 1);
        assert_eq!(Session::with_solver(SolverKind::SparseOrdered).threads(), 1);
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
}
