//! Transient analysis: backward-Euler / trapezoidal integration with
//! per-step Newton solves, on either a fixed uniform grid or an
//! LTE-controlled adaptive grid.
//!
//! # Step control
//!
//! [`TranOptions::step_control`] selects between two modes:
//!
//! * [`StepControl::Fixed`] (the default) integrates on the uniform grid
//!   `t_k = t_start + k·dt`. This is the bit-identical reference path: its
//!   arithmetic is untouched by the adaptive machinery.
//! * [`StepControl::Adaptive`] estimates the local truncation error (LTE)
//!   of every step with a predictor/corrector device (Milne's device on the
//!   non-uniform history) and accepts, shrinks or grows the step to hold
//!   the weighted error at 1:
//!
//!   - after each converged step, the corrector result `x₁` is compared
//!     against a polynomial predictor extrapolated through the accepted
//!     history; the gap `d = x₁ − x_pred` is mapped to the LTE by the
//!     method's error constant (backward Euler with a linear predictor:
//!     `|τ| = |d|·h/(2h+h₁)`; trapezoidal with a quadratic predictor:
//!     `|τ| = |d|·(h³/12)/(h³/12 + h(h+h₁)(h+h₁+h₂)/6)`, where `h₁`, `h₂`
//!     are the previous accepted step sizes),
//!   - the error norm is a weighted RMS with per-component weight
//!     `abstol + reltol·max(|x₁ᵢ|, |x₀ᵢ|)` ([`AdaptiveOptions`]); a step
//!     is accepted iff the norm is finite and ≤ 1,
//!   - the next step is `h·clamp(safety·err^(−1/(order+1)), min_shrink,
//!     max_growth)`, clamped into `[h_min, h_max]`; a rejected step is
//!     additionally capped at half its size, re-anchors the integrator at
//!     the last accepted state, and is retried with backward Euler,
//!   - the run starts with backward Euler at `dt` until two steps of
//!     history exist (the quadratic predictor needs three points), then
//!     switches to the configured method; the first step has no history
//!     and is always accepted, while the second is already tested against
//!     the linear predictor through the first two points,
//!   - every rejected step is charged against the step's
//!     [`crate::budget::SolveBudget`] (one extra iteration tick on top of
//!     the Newton iterations the attempt consumed), so a rejection storm
//!     trips [`crate::error::EngineError::BudgetExceeded`] instead of
//!     spinning; at `h = h_min` a finite over-tolerance step is accepted
//!     (the controller can do no better) and a non-finite one fails with
//!     [`crate::error::EngineError::NonFinite`].
//!
//!   The accepted grid is monotone with every interior step in
//!   `[h_min, 1.05·h_max]` (a step that would leave a sliver shorter than
//!   5 % of itself is stretched to land exactly on `t_stop`; the final
//!   step may be shorter than `h_min` when only a sliver remains).
//!
//!   Steps additionally land *exactly* on every source-waveform corner
//!   ([`tranvar_circuit::Circuit::source_breakpoints`]): a step straddling
//!   a pulse edge has an `O(1)` local error however small it is, so
//!   without breakpoints the controller would Zeno-shrink toward `h_min`
//!   in front of every edge instead of stepping onto it. Each breakpoint
//!   behaves like a mini-`t_stop` (same 5 % stretch rule, same possible
//!   sub-`h_min` sliver just before it); corners closer than `2·h_min` to
//!   each other or to the run endpoints are merged.
//!
//! # One stepper
//!
//! Every run — [`transient`] (also behind Monte-Carlo re-simulation), the
//! sensitivities of [`crate::transens`] and [`integrate_cycle`] — advances
//! through one crate-private stepper, the only caller of the Newton step,
//! which asks its grid policy (uniform, or the LTE controller above) for
//! each next step. [`integrate_cycle`] integrates exactly one period and
//! optionally records, per accepted step, the factored Jacobian `J_k` and
//! the coupling matrix `B_k` with `∂x_k/∂x_{k−1} = J_k⁻¹·B_k`: the raw
//! material of both the shooting-Newton monodromy matrix and the LPTV
//! periodic solver, whose reuse across all noise sources is where the
//! paper's 100–1000× speedup over Monte-Carlo comes from. Each record
//! carries its own step size and θ ([`StepRecord::h`],
//! [`StepRecord::theta`]), so every consumer follows the accepted grid
//! whether it is uniform or adaptive.
//!
//! # Warm start and the Newton loop
//!
//! A run assembles the circuit in full only when it starts (and when the
//! LTE controller rolls back to an accepted state): it builds both buffers
//! of its assembly double-buffer there. Every later assembly of the run
//! refreshes a buffer in place ([`Circuit::refresh_into`]), rewriting `f`,
//! `q`, the MOSFET operating points and the `G` values. `C` and the stamp
//! pattern depend only on the circuit, which the run borrows immutably, so
//! they stay as built.
//!
//! Each step warm-starts from the previous accepted assembly without
//! copying it. Its device stamps are valid at the accepted state and only
//! the independent sources move with time, so just `f` (retimed to the
//! step's end) and `q` are carried into the current buffer. The first
//! Newton iteration factors the previous assembly's `G` and `C` where they
//! lie. After a recorded step that factorization is already cached: the
//! record factors its accepted-point Jacobian, and when the next step's
//! weights `(θ, 1/h, θ·gmin)` equal that factorization's bitwise, the first
//! iteration takes it as is, with no dense refill and no value compare.
//! Every later iteration refreshes the current buffer at the new iterate
//! and factors it. The solve budget is charged one factorization per
//! iteration either way.
//!
//! A backward-Euler record's coupling matrix `B = C₀/h` has no `G` term,
//! so it is the same matrix at every such step of a run with the same `h`:
//! those records share one allocation ([`StepRecord::b`]).
//!
//! # Newton tests
//!
//! Each step's Newton iteration stops on one of three tests, picked by the
//! run, never by an option:
//!
//! * **`vtol`** — every [`transient`] and transient-sensitivity run stops
//!   once the last applied update is `|δx|∞ < vtol`.
//! * **warm-up** — an *unrecorded* cycle is a warm-up cycle: only its
//!   endpoint is read, to seed a later cycle that is itself checked against
//!   the shooting tolerance. Its steps stop on a per-unknown abs+rel update
//!   test, `|δxᵢ| ≤ 1e-6 + 1e-3·|xᵢ|`.
//! * **rate** — a *recorded* cycle (whose `J_k`/`B_k` LPTV replays) stops
//!   on `|δ_k|∞ < vtol` too, and from the second iteration also once the
//!   contraction rate `θ_k = |δ_k|∞/|δ_{k−1}|∞ < 1` bounds the remaining
//!   distance to the Newton limit below `vtol`:
//!   `θ_k/(1−θ_k)·|δ_k|∞ < vtol` (the Hairer–Wanner stopping criterion,
//!   *Solving ODEs II* §IV.8; `δ` is the applied update, after the
//!   `step_limit` clamp). The bound assumes only linear convergence, so it
//!   is conservative for full Newton: the state is still within `vtol` of
//!   the Newton limit, and the iteration the `vtol` test would spend past
//!   that point is saved.

use crate::dc::NewtonOptions;
use crate::error::EngineError;
use crate::solver::{CombineStage, FactoredJacobian, JacobianWorkspace, SolverKind};
use std::sync::Arc;
use tranvar_circuit::{Assembly, Circuit, NodeId};
use tranvar_num::dense::vecops;
use tranvar_num::Csc;

/// Absolute part of the warm-up Newton update test (see the
/// [module docs](self)).
const WARM_UP_ABSTOL: f64 = 1e-6;

/// Relative part of the warm-up Newton update test.
const WARM_UP_RELTOL: f64 = 1e-3;

/// The warm-up Newton update test: every `|δxᵢ| ≤ abstol + reltol·|xᵢ|` at
/// the updated iterate `x`.
fn warm_up_converged(delta: &[f64], x: &[f64]) -> bool {
    delta
        .iter()
        .zip(x)
        .all(|(d, x)| d.abs() <= WARM_UP_ABSTOL + WARM_UP_RELTOL * x.abs())
}

/// The Newton test every step of a [`Stepper`] stops on (see the
/// [module docs](self)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NewtonTest {
    /// `|δ_k|∞ < vtol`: transients and transient sensitivities.
    Vtol,
    /// [`warm_up_converged`]: unrecorded cycles.
    WarmUp,
    /// `|δ_k|∞ < vtol`, or the rate-estimated distance to the Newton limit
    /// `θ_k/(1−θ_k)·|δ_k|∞ < vtol` with `θ_k = |δ_k|∞/|δ_{k−1}|∞ < 1`:
    /// recorded cycles.
    Rate,
}

impl NewtonTest {
    /// Does the applied update `delta` at the updated iterate `x` end the
    /// iteration? `prev` carries `|δ|∞` from one iteration to the next
    /// (`None` before the first).
    fn stops(self, delta: &[f64], x: &[f64], prev: &mut Option<f64>, vtol: f64) -> bool {
        if self == NewtonTest::WarmUp {
            return warm_up_converged(delta, x);
        }
        let d = vecops::norm_inf(delta);
        let rate = self == NewtonTest::Rate
            && prev.is_some_and(|p| {
                let theta = d / p;
                theta < 1.0 && theta / (1.0 - theta) * d < vtol
            });
        *prev = Some(d);
        d < vtol || rate
    }
}

/// Time-integration scheme.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Integrator {
    /// Backward Euler (L-stable; damps switching artifacts — default for
    /// strongly clocked circuits).
    #[default]
    BackwardEuler,
    /// Trapezoidal rule (A-stable, second order, no numerical damping —
    /// preferred for oscillators where period accuracy matters).
    Trapezoidal,
}

impl Integrator {
    /// The implicitness weight θ (1 for BE, ½ for trapezoidal).
    pub fn theta(self) -> f64 {
        match self {
            Integrator::BackwardEuler => 1.0,
            Integrator::Trapezoidal => 0.5,
        }
    }
}

/// Tolerances and step bounds for LTE-controlled adaptive stepping
/// ([`StepControl::Adaptive`]).
///
/// The per-component error weight is `abstol + reltol·max(|x₁ᵢ|, |x₀ᵢ|)`;
/// a step is accepted when the weighted RMS of the LTE estimate is ≤ 1.
/// See the [module docs](self) for the full controller contract.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveOptions {
    /// Relative tolerance on the per-step local truncation error.
    pub reltol: f64,
    /// Absolute tolerance floor (same units as the unknowns; keeps the
    /// weight positive when a component passes through zero).
    pub abstol: f64,
    /// Smallest allowed step (s); `0.0` resolves to `span × 1e-12`. At
    /// `h_min` a finite over-tolerance step is accepted rather than
    /// retried forever.
    pub h_min: f64,
    /// Largest allowed step (s); `0.0` resolves to `span / 8`.
    pub h_max: f64,
    /// Upper clamp on the per-step growth factor.
    pub max_growth: f64,
    /// Lower clamp on the per-step shrink factor.
    pub min_shrink: f64,
    /// Safety factor applied to the optimal-step estimate (< 1 biases the
    /// controller toward acceptance on the next attempt).
    pub safety: f64,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            reltol: 1e-3,
            abstol: 1e-6,
            h_min: 0.0,
            h_max: 0.0,
            max_growth: 2.0,
            min_shrink: 0.25,
            safety: 0.9,
        }
    }
}

impl AdaptiveOptions {
    /// Resolves the `0.0 = auto` step bounds against the run span,
    /// returning the effective `(h_min, h_max)` the controller will clamp
    /// to (`span × 1e-12` and `span / 8` by default).
    pub fn resolve_bounds(&self, span: f64) -> (f64, f64) {
        let h_min = if self.h_min > 0.0 {
            self.h_min
        } else {
            span * 1e-12
        };
        let h_max = if self.h_max > 0.0 {
            self.h_max
        } else {
            span / 8.0
        };
        (h_min, h_max.max(h_min))
    }

    fn is_valid(&self) -> bool {
        self.reltol > 0.0
            && self.reltol.is_finite()
            && self.abstol > 0.0
            && self.abstol.is_finite()
            && self.h_min >= 0.0
            && self.h_max >= 0.0
            && (self.h_min == 0.0 || self.h_max == 0.0 || self.h_min <= self.h_max)
            && self.max_growth >= 1.0
            && self.min_shrink > 0.0
            && self.min_shrink < 1.0
            && self.safety > 0.0
            && self.safety <= 1.0
    }
}

/// Time-grid selection for transient-style runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum StepControl {
    /// Uniform grid `t_k = t_start + k·dt` — the bit-identical reference
    /// path (results are unchanged from before adaptive stepping existed).
    #[default]
    Fixed,
    /// LTE-controlled accept/shrink/grow stepping starting from `dt`; see
    /// the [module docs](self).
    Adaptive(AdaptiveOptions),
}

/// Transient analysis controls.
#[derive(Clone, Debug, PartialEq)]
pub struct TranOptions {
    /// Stop time (s).
    pub t_stop: f64,
    /// Step size (s): the fixed step in [`StepControl::Fixed`] mode, the
    /// initial step in [`StepControl::Adaptive`] mode.
    pub dt: f64,
    /// Start time (s).
    pub t_start: f64,
    /// Integration scheme.
    pub method: Integrator,
    /// Newton controls for each step.
    pub newton: NewtonOptions,
    /// Shunt gmin on node rows (kept consistently in residual and Jacobian).
    pub gmin: f64,
    /// Initial state; `None` computes the DC operating point at `t_start`.
    pub x0: Option<Vec<f64>>,
    /// Fixed-grid vs LTE-controlled adaptive stepping.
    pub step_control: StepControl,
}

impl TranOptions {
    /// Reasonable defaults for a run to `t_stop` with step `dt`.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        TranOptions {
            t_stop,
            dt,
            t_start: 0.0,
            method: Integrator::BackwardEuler,
            newton: NewtonOptions::default(),
            gmin: 1e-12,
            x0: None,
            step_control: StepControl::Fixed,
        }
    }

    /// [`TranOptions::new`] with LTE-controlled adaptive stepping enabled:
    /// `dt` becomes the initial step and `adaptive` sets the tolerances.
    pub fn adaptive(t_stop: f64, dt: f64, adaptive: AdaptiveOptions) -> Self {
        TranOptions {
            step_control: StepControl::Adaptive(adaptive),
            ..TranOptions::new(t_stop, dt)
        }
    }
}

/// Result of a transient run: states on the sample grid (uniform in
/// [`StepControl::Fixed`] mode, the accepted non-uniform grid in
/// [`StepControl::Adaptive`] mode — consult [`TranResult::times`], and see
/// [`tranvar_num::interp::is_uniform_grid`] for a cheap uniformity check).
#[derive(Clone, Debug, Default)]
pub struct TranResult {
    /// Sample times.
    pub times: Vec<f64>,
    /// State vectors per sample.
    pub states: Vec<Vec<f64>>,
}

impl TranResult {
    /// Extracts one node's voltage waveform.
    pub fn node_waveform(&self, ckt: &Circuit, node: NodeId) -> Vec<f64> {
        self.states.iter().map(|x| ckt.voltage(x, node)).collect()
    }

    /// The final state.
    ///
    /// # Panics
    ///
    /// Panics if the run is empty.
    pub fn last(&self) -> &[f64] {
        self.states.last().expect("empty transient result")
    }
}

/// The one validation of every integration grid, run by the stepper (and
/// early by the session, so a bad transient config never spends a DC
/// solve): finite `t_start < t_stop` and a finite `dt > 0` — a cycle runs to
/// `t0 + period` with `dt = period / n_steps`, so a non-finite period and
/// `n_steps = 0` fail too — and, on the uniform grid, a rounded step count
/// `((t_stop − t_start)/dt).round() ≥ 1` (a `dt` over twice the span used
/// to *silently* run zero steps, returning only the initial state).
pub(crate) fn validate_grid(
    t_start: f64,
    t_stop: f64,
    dt: f64,
    control: &StepControl,
) -> Result<(), EngineError> {
    let finite = t_start.is_finite() && t_stop.is_finite() && dt.is_finite();
    let msg = match control {
        _ if !(finite && dt > 0.0 && t_stop > t_start) => format!(
            "time integration needs finite t_start < t_stop and a finite dt > 0 \
             (a cycle runs to t0 + period with dt = period/n_steps); got t_start = \
             {t_start:.3e}, t_stop = {t_stop:.3e}, dt = {dt:.3e}"
        ),
        StepControl::Fixed if ((t_stop - t_start) / dt).round() < 1.0 => format!(
            "fixed-step transient rounds to zero steps: dt = {dt:.3e} exceeds the span \
             t_stop - t_start = {:.3e} (need ((t_stop - t_start)/dt).round() >= 1)",
            t_stop - t_start
        ),
        StepControl::Adaptive(a) if !a.is_valid() => "adaptive stepping needs reltol > 0, \
            abstol > 0, 0 <= h_min <= h_max, max_growth >= 1, 0 < min_shrink < 1 and \
            0 < safety <= 1"
            .into(),
        _ => return Ok(()),
    };
    Err(EngineError::BadConfig(msg))
}

/// Record of one accepted timestep for PSS/LPTV reuse.
#[derive(Clone, Debug)]
pub struct StepRecord {
    /// End time of the step.
    pub t1: f64,
    /// Step size.
    pub h: f64,
    /// Implicitness weight θ actually used for this step, as the stepper
    /// reported it: the configured method's θ, except backward Euler (θ = 1)
    /// on the first step of every cycle ([`integrate_cycle`]) and, on an
    /// adaptive grid, during the two-step startup and on retries after a
    /// rejection.
    pub theta: f64,
    /// Factored step Jacobian `J = C₁/h + θ·G₁`.
    pub lu: FactoredJacobian,
    /// Coupling to the previous state: `B = C₀/h − (1−θ)·(G₀ + gmin)`, so
    /// that `∂x₁/∂x₀ = J⁻¹·B`. Its pattern holds only the terms present:
    /// a backward-Euler step (θ = 1) stores `C₀`'s pattern alone. The
    /// stepper stages it from recorded value slots, one layout per
    /// combination of terms ([`crate::solver::CombineStage`]).
    ///
    /// Shared: a backward-Euler `B = C₀/h` depends only on the run's
    /// constant `C` and on `h`, so every backward-Euler record of a run
    /// with the same `h` (bitwise) holds one allocation. Trapezoidal
    /// records and adaptive steps of another `h` get their own.
    pub b: Arc<Csc>,
    /// MOSFET operating points at the accepted state (device-indexed),
    /// captured from the final assembly so sensitivity sources can be built
    /// without re-evaluating any device model
    /// ([`tranvar_circuit::Circuit::d_residual_dparams_with_ops`]).
    pub mos_ops: Vec<tranvar_circuit::mosfet::MosOp>,
}

/// Result of a one-period integration with step records.
#[derive(Clone, Debug)]
pub struct CycleResult {
    /// One sample time per accepted step plus the start (`n_steps + 1` on
    /// the uniform grid), including both endpoints.
    pub times: Vec<f64>,
    /// One state per sample time; `states[0]` is the initial state.
    pub states: Vec<Vec<f64>>,
    /// Per-step records (empty unless requested).
    pub records: Vec<StepRecord>,
}

/// Reusable per-run buffers for the transient step loop: the assembly
/// double-buffer, the Newton vectors, the factorization workspace and the
/// coupling-matrix stage. One instance lives for a whole run, so the inner
/// loop performs no repeated allocation.
pub(crate) struct StepState {
    pub(crate) jws: JacobianWorkspace,
    bstage: CombineStage,
    /// Assembly at the previous accepted state `(x0, t0)`.
    pub(crate) asm_prev: Assembly,
    /// Assembly buffer for the current step (swapped with `asm_prev`).
    /// Both buffers are built when the run starts and only refreshed
    /// ([`Circuit::refresh_into`]) after that, so they share one pattern
    /// and the run's constant `C`.
    asm_cur: Assembly,
    /// `(θ, 1/h, θ·gmin)` bits of the accepted-point factorization that
    /// the last recorded step left cached in `jws`, whose values are those
    /// of `asm_prev`; `None` once anything else may have been factored.
    accepted: Option<[u64; 3]>,
    /// The shared `G`-free coupling matrix `B = C₀/h` of the last
    /// backward-Euler record, with the bits of its `h`.
    be_b: Option<(u64, Arc<Csc>)>,
    r: Vec<f64>,
    delta: Vec<f64>,
    scratch: Vec<f64>,
}

impl StepState {
    /// Initializes the step state at `(x0, t0)`: builds both assembly
    /// buffers.
    pub(crate) fn new(ckt: &Circuit, kind: SolverKind, x0: &[f64], t0: f64) -> Self {
        let n = ckt.n_unknowns();
        let asm_prev = ckt.assemble(x0, t0);
        StepState {
            jws: JacobianWorkspace::new(kind),
            bstage: CombineStage::new(),
            asm_cur: asm_prev.clone(),
            asm_prev,
            accepted: None,
            be_b: None,
            r: vec![0.0; n],
            delta: vec![0.0; n],
            scratch: vec![0.0; n],
        }
    }

    /// Re-anchors the state at a new `(x0, t0)`, starting a new run of
    /// `ckt` without releasing any buffer. It fully assembles `asm_prev`
    /// and copies it into `asm_cur`, so both buffers hold `ckt`'s current
    /// `C` and stamp pattern even after a [`Circuit::revalue`] between
    /// runs; every later assembly of the run refreshes them in place. It
    /// also forgets the cached accepted-point factorization and the shared
    /// backward-Euler `B`, both built from the previous anchor. The
    /// factorization and staging workspaces carry over.
    pub(crate) fn reset(&mut self, ckt: &Circuit, x0: &[f64], t0: f64) {
        ckt.assemble_into(x0, t0, &mut self.asm_prev);
        self.asm_cur.copy_from(&self.asm_prev);
        self.accepted = None;
        self.be_b = None;
    }
}

/// Reusable buffers for repeated [`integrate_cycle`] calls on one
/// circuit: the assembly double-buffer, Newton vectors, factorization
/// workspace (staged CSC/dense storage plus the sparse symbolic pivot
/// analysis) and coupling-matrix stage all survive between cycles.
///
/// A shooting-Newton loop integrates the same one-period problem dozens of
/// times; with a shared workspace every round after the first performs no
/// allocation and no symbolic re-analysis in the step loop.
#[derive(Default)]
pub struct CycleWorkspace {
    st: Option<StepState>,
    /// Counters of step states this workspace has already retired (a
    /// backend or system-size change rebuilds the state), so
    /// [`CycleWorkspace::stats`] never undercounts structural work.
    retired: crate::solver::SolverStats,
}

impl CycleWorkspace {
    /// Creates an empty workspace; buffers are built lazily on first use.
    pub fn new() -> Self {
        CycleWorkspace::default()
    }

    /// Structural-work counters accumulated over the workspace's lifetime
    /// (including retired step states), or `None` if it was never used.
    pub fn stats(&self) -> Option<crate::solver::SolverStats> {
        self.st
            .as_ref()
            .map(|st| self.retired.merged(st.jws.stats()))
    }

    /// Returns the step state re-anchored at `(x0, t0)`, reusing every
    /// retained buffer when the backend and system size still match, and
    /// rebuilding from scratch otherwise.
    pub(crate) fn state_for(
        &mut self,
        ckt: &Circuit,
        kind: SolverKind,
        x0: &[f64],
        t0: f64,
    ) -> &mut StepState {
        let st = match self.st.take() {
            Some(mut st) if st.jws.kind() == kind && st.r.len() == ckt.n_unknowns() => {
                st.reset(ckt, x0, t0);
                st
            }
            old => {
                if let Some(old) = old {
                    self.retired = self.retired.merged(old.jws.stats());
                }
                StepState::new(ckt, kind, x0, t0)
            }
        };
        self.st.insert(st)
    }
}

impl std::fmt::Debug for CycleWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleWorkspace")
            .field("initialized", &self.st.is_some())
            .finish()
    }
}

/// One Newton-corrected implicit step of `plan`, from `(p.x, t0)` to `t1`,
/// advancing `p.x`, `p.f_aug` and `p.q` in place (on entry they hold the
/// previous accepted state; on success they hold the new one). `p.t` is
/// left to the stepper, which commits it on acceptance.
///
/// The Newton iteration warm-starts from the previous accepted assembly
/// without copying it (see the [module docs](self)), refreshes `st.asm_cur`
/// at every iterate, and stops on the Newton test `test` ([`NewtonTest`]).
/// On request the step record is returned; the accepted assembly is left
/// in `st.asm_prev` for the next step.
fn step(
    ckt: &Circuit,
    st: &mut StepState,
    p: &mut Point,
    plan: &Plan,
    newton: &NewtonOptions,
    gmin: f64,
    test: NewtonTest,
    want_record: bool,
) -> Result<Option<StepRecord>, EngineError> {
    let &Plan {
        t0, t1, h, method, ..
    } = plan;
    let Point { x, f_aug, q, .. } = p;
    let n = ckt.n_unknowns();
    let n_node = ckt.n_nodes() - 1;
    let theta = method.theta();
    // Warm start: device stamps of the previous accepted assembly are valid
    // at (x, t1); only the independent sources move with time. So only `f`
    // (retimed) and `q` are carried into `asm_cur`; the first iteration
    // factors `asm_prev`'s G and C where they are.
    st.asm_cur.f.copy_from_slice(&st.asm_prev.f);
    st.asm_cur.q.copy_from_slice(&st.asm_prev.q);
    ckt.retime_sources(&mut st.asm_cur, t0, t1);
    let key = [theta, 1.0 / h, theta * gmin].map(f64::to_bits);
    let reuse = st.accepted.take() == Some(key);
    let mut converged = false;
    let mut prev = None;
    for iter in 0..newton.max_iter {
        newton.budget.begin_iteration("transient step")?;
        let asm1 = &st.asm_cur;
        // Residual r = (q1 − q0)/h + θ f1_aug + (1−θ) f0_aug.
        for i in 0..n {
            let f1_aug = asm1.f[i] + if i < n_node { gmin * x[i] } else { 0.0 };
            st.r[i] = (asm1.q[i] - q[i]) / h + theta * f1_aug + (1.0 - theta) * f_aug[i];
        }
        // The MNA pattern is fixed across iterations and steps, so the
        // workspace replays its symbolic analysis and refactors in place —
        // and skips the numeric work entirely when the values are unchanged.
        // A recorded step leaves its accepted-point factorization cached;
        // when this step's weights match it bitwise, the first iteration
        // (whose Jacobian is exactly that one) takes it without a refill.
        newton.budget.count_factorization();
        let lu = match iter {
            0 if reuse => st.jws.reuse_cached()?,
            0 => st
                .jws
                .factor(&st.asm_prev, theta, 1.0 / h, theta * gmin, n_node)?,
            _ => st.jws.factor(asm1, theta, 1.0 / h, theta * gmin, n_node)?,
        };
        lu.solve_into(&st.r, &mut st.delta, &mut st.scratch);
        vecops::scale(&mut st.delta, -1.0);
        let mut dmax = vecops::norm_inf(&st.delta);
        if crate::fault::poison_nan(crate::fault::sites::TRAN_UPDATE) {
            dmax = f64::NAN;
        }
        // Non-finite guard, once per Newton iteration: a NaN/Inf update can
        // never satisfy either convergence test, so without this the loop would
        // burn `max_iter` iterations and report a misleading NoConvergence.
        if !dmax.is_finite() {
            return Err(EngineError::NonFinite {
                analysis: "transient step".into(),
                detail: format!("update |dx|={dmax:.3e} at t={t1:.3e} (h={h:.3e})"),
            });
        }
        if dmax > newton.step_limit {
            let k = newton.step_limit / dmax;
            vecops::scale(&mut st.delta, k);
        }
        for (xi, di) in x.iter_mut().zip(st.delta.iter()) {
            *xi += di;
        }
        ckt.refresh_into(x, t1, &mut st.asm_cur);
        converged = test.stops(&st.delta, x, &mut prev, newton.vtol);
        if converged {
            break;
        }
    }
    if !converged {
        return Err(EngineError::NoConvergence {
            analysis: "transient step".into(),
            detail: format!("at t={t1:.3e} with h={h:.3e}"),
        });
    }
    let record = if want_record {
        // Factor at the accepted point so the record matches x1 exactly;
        // the workspace keeps this factorization cached, so the next step's
        // warm-started first iteration (same G/C) reuses it for free.
        let lu = st
            .jws
            .factor(&st.asm_cur, theta, 1.0 / h, theta * gmin, n_node)?
            .clone();
        st.accepted = Some(key);
        // B = C0/h − (1−θ)·(G0 + gmin). With θ = 1 it is G-free, C0/h, and
        // C0 is the run's constant C: one matrix per step size.
        let b = match &st.be_b {
            Some((hb, b)) if theta == 1.0 && *hb == h.to_bits() => Arc::clone(b),
            _ => {
                let b = Arc::new(
                    st.bstage
                        .combine(
                            &st.asm_prev,
                            -(1.0 - theta),
                            1.0 / h,
                            -(1.0 - theta) * gmin,
                            n_node,
                        )
                        .clone(),
                );
                if theta == 1.0 {
                    st.be_b = Some((h.to_bits(), Arc::clone(&b)));
                }
                b
            }
        };
        Some(StepRecord {
            t1,
            h,
            theta,
            lu,
            b,
            mos_ops: st.asm_cur.mos_ops.clone(),
        })
    } else {
        None
    };
    // New f_aug and q for the next step.
    f_aug.copy_from_slice(&st.asm_cur.f);
    for (i, fi) in f_aug.iter_mut().enumerate().take(n_node) {
        *fi += gmin * x[i];
    }
    q.copy_from_slice(&st.asm_cur.q);
    // The accepted assembly becomes the previous assembly of the next step.
    std::mem::swap(&mut st.asm_prev, &mut st.asm_cur);
    Ok(record)
}

/// One accepted step, as reported by [`Stepper::advance`]: its plan
/// (`t1`, `h` and the method whose θ it used) and, when requested, its
/// record.
pub(crate) struct Accepted {
    pub(crate) plan: Plan,
    pub(crate) record: Option<StepRecord>,
}

/// The integration state at the last accepted time point: the state vector
/// and the `f_aug`/`q` the next step's residual reads.
struct Point {
    t: f64,
    x: Vec<f64>,
    f_aug: Vec<f64>,
    q: Vec<f64>,
}

/// The one loop that advances a sequence of implicit steps ([`step`]) for
/// every caller — plain transients, transient sensitivities and one-period
/// cycles — under either [`StepControl`]. It owns the integration state,
/// borrows the workspace's [`StepState`], and reports each accepted step
/// from [`Stepper::advance`] as `{t1, h, θ, record}`.
pub(crate) struct Stepper<'a> {
    st: &'a mut StepState,
    p: Point,
    method: Integrator,
    gmin: f64,
    grid: Grid,
    /// The Newton test every step stops on.
    test: NewtonTest,
}

/// The grid policy of a [`Stepper`].
enum Grid {
    Uniform(Uniform),
    Adaptive(Box<Lte>),
}

/// The uniform grid: `n` steps of size `h`, with no predictor or LTE
/// bookkeeping. Transients and cycles keep separate time formulas because
/// both are pinned bitwise: a transient samples `t_k = t0 + k·h` with the
/// configured method on every step; a cycle (`period` set) samples
/// `t_k = t0 + period·k/n` and takes its first step with backward Euler.
/// `t_stop` is where the LTE controller stops when it replaces this grid.
struct Uniform {
    t0: f64,
    t_stop: f64,
    h: f64,
    n: usize,
    /// Steps taken so far.
    k: usize,
    period: Option<f64>,
}

impl Uniform {
    fn time(&self, k: usize) -> f64 {
        match self.period {
            Some(period) => self.t0 + period * k as f64 / self.n as f64,
            None => self.t0 + k as f64 * self.h,
        }
    }

    /// The next step, or `None` after the `n`-th.
    fn propose(&mut self, method: Integrator) -> Option<Plan> {
        if self.k == self.n {
            return None;
        }
        self.k += 1;
        // The first step of every cycle uses backward Euler: the trapezoidal
        // rule carries algebraic (non-dynamic) perturbations with eigenvalue
        // −1, which would make the cycle monodromy have unit eigenvalues on
        // V-source branch rows and render the shooting system singular. One
        // L-stable step annihilates those modes at O(h²) cost to the orbit.
        let method = if self.period.is_some() && self.k == 1 {
            Integrator::BackwardEuler
        } else {
            method
        };
        Some(Plan {
            t0: self.time(self.k - 1),
            t1: self.time(self.k),
            h: self.h,
            method,
            at_h_min: false,
        })
    }
}

/// One step a grid policy proposes: from `t0` to `t1` with `method` and
/// step size `h` (on the uniform grid its own `h`, which may differ from
/// `t1 − t0` in the last bit).
#[derive(Clone, Copy)]
pub(crate) struct Plan {
    t0: f64,
    pub(crate) t1: f64,
    pub(crate) h: f64,
    pub(crate) method: Integrator,
    /// The LTE controller cannot shrink this step any further.
    at_h_min: bool,
}

impl<'a> Stepper<'a> {
    /// A transient run on `ws` from `x0` at `opts.t_start` under
    /// `opts.step_control`: the uniform `t_k = t_start + k·dt` grid, or the
    /// LTE controller seeded at `dt`; every step stops on `test`
    /// ([`NewtonTest::Vtol`] for every shipped transient).
    pub(crate) fn transient(
        ckt: &Circuit,
        ws: &'a mut CycleWorkspace,
        opts: &TranOptions,
        x0: Vec<f64>,
        test: NewtonTest,
    ) -> Result<Self, EngineError> {
        let grid = Uniform {
            t0: opts.t_start,
            t_stop: opts.t_stop,
            h: opts.dt,
            n: ((opts.t_stop - opts.t_start) / opts.dt).round() as usize,
            k: 0,
            period: None,
        };
        let (control, solver) = (&opts.step_control, opts.newton.solver);
        Self::new(
            ckt,
            ws,
            x0,
            grid,
            control,
            opts.method,
            solver,
            opts.gmin,
            test,
        )
    }

    /// One period of length `period` from `x0` at `t0`: the uniform grid
    /// `t_k = t0 + period·k/n_steps` with a backward-Euler first step, or
    /// the LTE controller seeded at `period / n_steps` and landing on
    /// `t0 + period` ([`integrate_cycle`]); every step stops on `test`.
    pub(crate) fn cycle(
        ckt: &Circuit,
        ws: &'a mut CycleWorkspace,
        x0: &[f64],
        t0: f64,
        period: f64,
        n_steps: usize,
        control: &StepControl,
        method: Integrator,
        newton: &NewtonOptions,
        gmin: f64,
        test: NewtonTest,
    ) -> Result<Self, EngineError> {
        let grid = Uniform {
            t0,
            t_stop: t0 + period,
            h: period / n_steps as f64,
            n: n_steps,
            k: 0,
            period: Some(period),
        };
        let solver = newton.solver;
        Self::new(
            ckt,
            ws,
            x0.to_vec(),
            grid,
            control,
            method,
            solver,
            gmin,
            test,
        )
    }

    /// Validates the grid, anchors the workspace at `(x0, grid.t0)` and
    /// seeds `f_aug`/`q` from its assembly. Under
    /// [`StepControl::Adaptive`] the LTE controller replaces `grid`,
    /// seeded at `grid.h` and stopping at `grid.t_stop`. Every step stops
    /// on the Newton test `test`.
    fn new(
        ckt: &Circuit,
        ws: &'a mut CycleWorkspace,
        x0: Vec<f64>,
        grid: Uniform,
        control: &StepControl,
        method: Integrator,
        solver: SolverKind,
        gmin: f64,
        test: NewtonTest,
    ) -> Result<Self, EngineError> {
        validate_grid(grid.t0, grid.t_stop, grid.h, control)?;
        let st = ws.state_for(ckt, solver, &x0, grid.t0);
        let mut f_aug = st.asm_prev.f.clone();
        for (i, fi) in f_aug.iter_mut().enumerate().take(ckt.n_nodes() - 1) {
            *fi += gmin * x0[i];
        }
        let q = st.asm_prev.q.clone();
        let p = Point {
            t: grid.t0,
            x: x0,
            f_aug,
            q,
        };
        let grid = match control {
            StepControl::Fixed => Grid::Uniform(grid),
            StepControl::Adaptive(a) => Grid::Adaptive(Box::new(Lte::new(ckt, a, &p, &grid))),
        };
        Ok(Stepper {
            st,
            p,
            method,
            gmin,
            grid,
            test,
        })
    }

    /// The state at the last accepted step.
    pub(crate) fn x(&self) -> &[f64] {
        &self.p.x
    }

    /// Takes the next accepted step (with its record when `rec`), or
    /// `Ok(None)` at the end of the grid: the grid policy proposes each
    /// attempt and, on the LTE grid, judges it.
    pub(crate) fn advance(
        &mut self,
        ckt: &Circuit,
        newton: &NewtonOptions,
        rec: bool,
    ) -> Result<Option<Accepted>, EngineError> {
        let (st, p, gmin) = (&mut *self.st, &mut self.p, self.gmin);
        loop {
            let plan = match &mut self.grid {
                Grid::Uniform(u) => u.propose(self.method),
                Grid::Adaptive(c) => c.propose(p.t, self.method),
            };
            let Some(plan) = plan else {
                return Ok(None);
            };
            let attempt = step(ckt, st, p, &plan, newton, gmin, self.test, rec);
            let record = match &mut self.grid {
                Grid::Uniform(_) => attempt?,
                Grid::Adaptive(c) => match c.judge(ckt, st, p, attempt, &plan, newton)? {
                    Some(record) => record,
                    None => continue,
                },
            };
            p.t = plan.t1;
            return Ok(Some(Accepted { plan, record }));
        }
    }

    /// Advances to the end of the grid, collecting every accepted sample
    /// (and each step record, when `record`); `on_step` sees every accepted
    /// step's `(h, θ)`.
    pub(crate) fn run(
        mut self,
        ckt: &Circuit,
        newton: &NewtonOptions,
        record: bool,
        mut on_step: impl FnMut(f64, f64),
    ) -> Result<CycleResult, EngineError> {
        let n = match &self.grid {
            Grid::Uniform(u) => u.n,
            Grid::Adaptive(_) => 0,
        };
        let mut times = Vec::with_capacity(n + 1);
        let mut states = Vec::with_capacity(n + 1);
        let mut records = Vec::with_capacity(if record { n } else { 0 });
        times.push(self.p.t);
        states.push(self.p.x.clone());
        while let Some(s) = self.advance(ckt, newton, record)? {
            on_step(s.plan.h, s.plan.method.theta());
            records.extend(s.record);
            times.push(s.plan.t1);
            states.push(self.p.x.clone());
        }
        Ok(CycleResult {
            times,
            states,
            records,
        })
    }
}

/// Does shrinking the step plausibly cure this step failure? Newton
/// divergence and numerical blow-ups usually mean the step was too big;
/// budget exhaustion and config errors never get better with a smaller `h`.
fn shrink_can_help(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::NoConvergence { .. } | EngineError::NonFinite { .. } | EngineError::Num(_)
    )
}

/// The LTE-controlled grid policy of a [`Stepper`] (see the
/// [module docs](self)): the accepted-state snapshots used to roll back
/// rejected steps, the predictor history and the next step proposal.
struct Lte {
    t_stop: f64,
    /// The controller settings, with `h_min`/`h_max` resolved against the
    /// run span ([`AdaptiveOptions::resolve_bounds`]).
    a: AdaptiveOptions,
    // Accepted-state snapshots: `step()` commits f_aug/q and swaps the
    // assembly double-buffer before the LTE verdict exists, so a rejection
    // restores from these and re-anchors the assembly with `StepState::reset`.
    x_acc: Vec<f64>,
    f_acc: Vec<f64>,
    q_acc: Vec<f64>,
    x_pred: Vec<f64>,
    /// Previous accepted step sizes (`h1` most recent) and states, the
    /// predictor history.
    h1: f64,
    h2: f64,
    x_prev1: Vec<f64>,
    x_prev2: Vec<f64>,
    n_accepted: usize,
    /// Proposed size of the next step.
    h_next: f64,
    /// Retry a rejected step with backward Euler (L-stable damping beats
    /// second-order accuracy right after the controller found trouble).
    retry_be: bool,
    /// Source-waveform derivative discontinuities inside the run, sorted;
    /// steps land on these exactly. A step that *straddles* a corner has an
    /// `O(1)` local error however small it is, so without these the
    /// controller Zeno-shrinks toward `h_min` before every pulse edge.
    breakpoints: Vec<f64>,
    /// First entry of `breakpoints` not yet passed.
    next_bp: usize,
}

impl Lte {
    /// A controller anchored at the accepted point `p`, running to
    /// `grid.t_stop` with first proposal `grid.h`.
    fn new(ckt: &Circuit, a: &AdaptiveOptions, p: &Point, grid: &Uniform) -> Self {
        let t_stop = grid.t_stop;
        let (h_min, h_max) = a.resolve_bounds(t_stop - p.t);
        // Merge corners closer than 2·h_min to each other (or to the run
        // endpoints): landing on both would force sub-h_min steps.
        let mut breakpoints = Vec::new();
        for bp in ckt.source_breakpoints(p.t, t_stop) {
            let prev = *breakpoints.last().unwrap_or(&p.t);
            if bp - prev >= 2.0 * h_min && t_stop - bp >= 2.0 * h_min {
                breakpoints.push(bp);
            }
        }
        let n = p.x.len();
        Lte {
            t_stop,
            a: AdaptiveOptions { h_min, h_max, ..*a },
            x_acc: p.x.clone(),
            f_acc: p.f_aug.clone(),
            q_acc: p.q.clone(),
            x_pred: vec![0.0; n],
            h1: 0.0,
            h2: 0.0,
            x_prev1: vec![0.0; n],
            x_prev2: vec![0.0; n],
            n_accepted: 0,
            h_next: grid.h.min(h_max).max(h_min),
            retry_be: false,
            breakpoints,
            next_bp: 0,
        }
    }

    /// Weighted-RMS LTE norm of the corrector−predictor gap of `x`: `coeff`
    /// is the method's error constant, the weight is
    /// `abstol + reltol·max(|x₁ᵢ|, |x₀ᵢ|)`. Accept iff finite and ≤ 1.
    fn lte_norm(&self, x: &[f64], coeff: f64) -> f64 {
        let n = x.len();
        let mut sum = 0.0;
        for i in 0..n {
            let d = x[i] - self.x_pred[i];
            let w = self.a.abstol + self.a.reltol * x[i].abs().max(self.x_acc[i].abs());
            let e = d / w;
            sum += e * e;
        }
        let mut err = coeff * (sum / n.max(1) as f64).sqrt();
        if crate::fault::poison_nan(crate::fault::sites::TRAN_LTE) {
            err = f64::NAN;
        }
        err
    }

    /// The next step from the accepted time `t`, or `None` once `t_stop`
    /// is reached: the clamped proposal, landing exactly on the next
    /// breakpoint or `t_stop`, with backward Euler during the two-step
    /// startup and after a rejection.
    fn propose(&mut self, t: f64, method: Integrator) -> Option<Plan> {
        if t >= self.t_stop {
            return None;
        }
        while self.next_bp < self.breakpoints.len() && self.breakpoints[self.next_bp] <= t {
            self.next_bp += 1;
        }
        let h_prop = self.h_next.clamp(self.a.h_min, self.a.h_max);
        // The local stop is the next source breakpoint (or t_stop): steps
        // land on waveform corners exactly, never straddle them.
        let stop = self
            .breakpoints
            .get(self.next_bp)
            .copied()
            .unwrap_or(self.t_stop);
        // Stretch to the stop: a step that would leave a sliver shorter
        // than 5 % of itself lands exactly on it instead.
        let t1 = if t + 1.05 * h_prop >= stop {
            stop
        } else {
            t + h_prop
        };
        let method = if self.n_accepted < 2 || self.retry_be {
            Integrator::BackwardEuler
        } else {
            method
        };
        Some(Plan {
            t0: t,
            t1,
            // Derive h from the time difference so the step size and the
            // sample grid are bitwise consistent (downstream consumers
            // reconstruct h as times[k] − times[k−1]).
            h: t1 - t,
            method,
            // "Cannot shrink further" is judged on the *proposal*: the
            // realized h carries the rounding of (t + h_prop) − t, which
            // can exceed any fixed relative margin when h_prop ≪ t.
            at_h_min: h_prop <= self.a.h_min * (1.0 + 1e-12),
        })
    }

    /// Judges the attempt at `plan` from the accepted point `p`:
    /// `Ok(Some(record))` accepts it, `Ok(None)` rejects it (shrinking the
    /// next proposal and rolling `p` and `st` back to the accepted state).
    ///
    /// Termination: every rejection multiplies the step by at most
    /// `max(min_shrink, ½)` down to `h_min`, where a finite over-tolerance
    /// step is accepted and a non-finite one errors out — and each
    /// rejection charges one budget iteration, so a budgeted run trips
    /// [`EngineError::BudgetExceeded`] long before `h_min` on a genuine
    /// rejection storm.
    fn judge(
        &mut self,
        ckt: &Circuit,
        st: &mut StepState,
        p: &mut Point,
        attempt: Result<Option<StepRecord>, EngineError>,
        plan: &Plan,
        newton: &NewtonOptions,
    ) -> Result<Option<Option<StepRecord>>, EngineError> {
        let (t1, h, method, at_h_min) = (plan.t1, plan.h, plan.method, plan.at_h_min);
        let record = match attempt {
            Ok(record) => record,
            Err(e) if shrink_can_help(&e) && !at_h_min => {
                // Newton failed: x may be half-updated, but nothing was
                // committed (f_aug/q and the assembly double-buffer are
                // only touched on success), so restoring x suffices.
                newton.budget.begin_iteration("transient step control")?;
                p.x.copy_from_slice(&self.x_acc);
                self.h_next = (h * self.a.min_shrink).max(self.a.h_min);
                self.retry_be = true;
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        // LTE verdict. The first accepted step has no predictor history and
        // is always accepted at the initial dt; the controller engages from
        // the second step on.
        let mut growth = self.a.max_growth;
        let accept = if self.n_accepted == 0 {
            true
        } else {
            let n = p.x.len();
            let second_order = method == Integrator::Trapezoidal && self.n_accepted >= 2;
            if second_order {
                // Quadratic predictor through (t−h1−h2, t−h1, t) by Newton
                // divided differences, extrapolated to t+h.
                let d2 = 1.0 / self.h1;
                let d1 = 1.0 / self.h2;
                let dd = 1.0 / (self.h1 + self.h2);
                for i in 0..n {
                    let s2 = (self.x_acc[i] - self.x_prev1[i]) * d2;
                    let s1 = (self.x_prev1[i] - self.x_prev2[i]) * d1;
                    let curv = (s2 - s1) * dd;
                    self.x_pred[i] = self.x_acc[i] + h * (s2 + curv * (h + self.h1));
                }
            } else {
                // Linear predictor through (t−h1, t).
                let slope = h / self.h1;
                for i in 0..n {
                    self.x_pred[i] = self.x_acc[i] + slope * (self.x_acc[i] - self.x_prev1[i]);
                }
            }
            let coeff = if second_order {
                let b = h * h * h / 12.0;
                let a = h * (h + self.h1) * (h + self.h1 + self.h2) / 6.0;
                b / (a + b)
            } else {
                h / (2.0 * h + self.h1)
            };
            let err = self.lte_norm(&p.x, coeff);
            if err.is_finite() {
                let order = if second_order { 2.0 } else { 1.0 };
                growth = (self.a.safety * err.powf(-1.0 / (order + 1.0)))
                    .clamp(self.a.min_shrink, self.a.max_growth);
                err <= 1.0 || at_h_min
            } else if at_h_min {
                return Err(EngineError::NonFinite {
                    analysis: "transient step control".into(),
                    detail: format!("LTE estimate non-finite at t={t1:.3e} with h={h:.3e} = h_min"),
                });
            } else {
                growth = self.a.min_shrink;
                false
            }
        };
        if accept {
            self.h2 = self.h1;
            self.h1 = h;
            std::mem::swap(&mut self.x_prev2, &mut self.x_prev1);
            self.x_prev1.copy_from_slice(&self.x_acc);
            self.x_acc.copy_from_slice(&p.x);
            self.f_acc.copy_from_slice(&p.f_aug);
            self.q_acc.copy_from_slice(&p.q);
            self.n_accepted += 1;
            self.retry_be = false;
            self.h_next = (h * growth).clamp(self.a.h_min, self.a.h_max);
            return Ok(Some(record));
        }
        // Rejected on LTE: the step already committed (f_aug/q were
        // overwritten and the assembly double-buffer swapped), so roll
        // everything back to the accepted state, charge the budget, and
        // retry smaller with backward Euler.
        newton.budget.begin_iteration("transient step control")?;
        p.x.copy_from_slice(&self.x_acc);
        p.f_aug.copy_from_slice(&self.f_acc);
        p.q.copy_from_slice(&self.q_acc);
        st.reset(ckt, &self.x_acc, p.t);
        self.h_next = (h * growth.min(0.5)).max(self.a.h_min);
        self.retry_be = true;
        Ok(None)
    }
}

/// Runs a transient analysis (fixed-grid by default; see
/// [`TranOptions::step_control`]). A one-line convenience over a fresh
/// [`Session`](crate::session::Session) on `opts.newton.solver`; see
/// [`Session::transient`](crate::session::Session::transient).
///
/// # Errors
///
/// Propagates DC and per-step Newton failures.
///
/// # Examples
///
/// RC charging curve:
///
/// ```
/// use tranvar_circuit::{Circuit, NodeId, Waveform, Pulse};
/// use tranvar_engine::tran::{transient, TranOptions};
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let b = ckt.node("b");
/// ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
/// ckt.add_resistor("R1", a, b, 1e3);
/// ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-6);
/// // Start the capacitor discharged and watch it charge toward 1 V.
/// let mut opts = TranOptions::new(5e-3, 1e-5);
/// opts.x0 = Some(vec![1.0, 0.0, -1e-3]);
/// let res = transient(&ckt, &opts)?;
/// let v_end = ckt.voltage(res.last(), b);
/// assert!((v_end - 1.0).abs() < 1e-2);
/// # Ok::<(), tranvar_engine::EngineError>(())
/// ```
pub fn transient(ckt: &Circuit, opts: &TranOptions) -> Result<TranResult, EngineError> {
    crate::session::Session::with_solver(opts.newton.solver).transient(ckt, opts)
}

/// The transient body behind [`Session::transient`](crate::session::Session::transient):
/// integrates from the resolved initial state `x0` through the reusable
/// workspace `ws`; `on_step` sees every accepted step's `(h, θ)`.
pub(crate) fn run(
    ckt: &Circuit,
    ws: &mut CycleWorkspace,
    opts: &TranOptions,
    x0: Vec<f64>,
    on_step: impl FnMut(f64, f64),
) -> Result<TranResult, EngineError> {
    let cyc = Stepper::transient(ckt, ws, opts, x0, NewtonTest::Vtol)?.run(
        ckt,
        &opts.newton,
        false,
        on_step,
    )?;
    Ok(TranResult {
        times: cyc.times,
        states: cyc.states,
    })
}

/// Integrates exactly one period of length `period` from `x0` at `t0`,
/// optionally recording per-step factorizations for PSS/LPTV reuse.
///
/// `record` also picks the Newton test of every step (see the
/// [module docs](self)). A recorded cycle stops each step on
/// `|δx|∞ < newton.vtol` or, from the second iteration, once the
/// contraction rate `θ = |δ_k|∞/|δ_{k−1}|∞ < 1` bounds the remaining
/// distance to the Newton limit, `θ/(1−θ)·|δ_k|∞`, below `newton.vtol`:
/// its states stay within `vtol` of that limit, one iteration earlier than
/// [`transient`]'s plain `vtol` test would stop. An unrecorded cycle is a
/// warm-up cycle, whose endpoint only seeds a later recorded one: its steps
/// stop on the looser per-unknown update test `|δxᵢ| ≤ 1e-6 + 1e-3·|xᵢ|`.
///
/// `control` picks the grid: [`StepControl::Fixed`] takes `n_steps`
/// uniform steps `t_k = t0 + period·k/n_steps`;
/// [`StepControl::Adaptive`] lets the LTE controller accept, shrink and
/// grow steps from a first proposal of `period / n_steps`, landing exactly
/// on `t0 + period`. On both grids the first step is backward Euler (the
/// trapezoidal rule would leave unit algebraic eigenvalues in the
/// monodromy), and each [`StepRecord`] carries its own `h` and `θ`, so
/// monodromy accumulation and the LPTV solver consume either grid
/// unchanged.
///
/// Repeated cycles (shooting-Newton rounds, warm-up cycles) share one
/// [`CycleWorkspace`] `ws`. On the dense backend a reused workspace is
/// bit-identical to a fresh one; the sparse backend replays the first
/// cycle's pivot order (identical to machine precision, see
/// [`crate::session`]). Each call rebuilds the workspace's assemblies from
/// `ckt`, so one workspace may serve a circuit across
/// [`Circuit::revalue`] calls.
///
/// # Errors
///
/// [`EngineError::BadConfig`] for `n_steps = 0`, a non-finite or
/// non-positive `period`, a non-finite `t0` or invalid adaptive
/// tolerances; otherwise propagates per-step Newton failures and budget
/// exhaustion.
pub fn integrate_cycle(
    ckt: &Circuit,
    ws: &mut CycleWorkspace,
    x0: &[f64],
    t0: f64,
    period: f64,
    n_steps: usize,
    control: &StepControl,
    method: Integrator,
    newton: &NewtonOptions,
    gmin: f64,
    record: bool,
) -> Result<CycleResult, EngineError> {
    let test = if record {
        NewtonTest::Rate
    } else {
        NewtonTest::WarmUp
    };
    Stepper::cycle(
        ckt, ws, x0, t0, period, n_steps, control, method, newton, gmin, test,
    )?
    .run(ckt, newton, record, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranvar_circuit::{Pulse, Waveform};

    fn rc_circuit(tau_r: f64, tau_c: f64) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        ckt.add_resistor("R1", a, b, tau_r);
        ckt.add_capacitor("C1", b, NodeId::GROUND, tau_c);
        (ckt, b)
    }

    /// A CMOS inverter driven by a 1 ns clock into a load capacitor: a
    /// nonlinear, periodically switching circuit.
    fn pulsed_inverter() -> Circuit {
        use tranvar_circuit::{MosModel, MosType};
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("VDD", vdd, NodeId::GROUND, Waveform::Dc(1.2));
        let clock = Pulse {
            v0: 0.0,
            v1: 1.2,
            delay: 0.1e-9,
            rise: 50e-12,
            fall: 50e-12,
            width: 0.45e-9,
            period: 1e-9,
        };
        ckt.add_vsource("VIN", inp, NodeId::GROUND, Waveform::Pulse(clock));
        ckt.add_mosfet(
            "MP",
            out,
            inp,
            vdd,
            MosType::Pmos,
            MosModel::pmos_013(),
            2e-6,
            0.13e-6,
        );
        ckt.add_mosfet(
            "MN",
            out,
            inp,
            NodeId::GROUND,
            MosType::Nmos,
            MosModel::nmos_013(),
            1e-6,
            0.13e-6,
        );
        ckt.add_capacitor("CL", out, NodeId::GROUND, 20e-15);
        ckt
    }

    /// Newton options charging a budget that only counts.
    fn counting_newton() -> NewtonOptions {
        use crate::budget::{BudgetLimits, SolveBudget};
        NewtonOptions {
            budget: SolveBudget::new(BudgetLimits::default().max_newton_iters(u64::MAX)),
            ..NewtonOptions::default()
        }
    }

    /// The largest `|a − b|` over two runs' states.
    fn max_gap(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
        assert_eq!(a.len(), b.len());
        let pairs = a.iter().zip(b).flat_map(|(u, v)| u.iter().zip(v));
        pairs.map(|(u, v)| (u - v).abs()).fold(0.0, f64::max)
    }

    /// The rate-estimated stop of a recorded cycle keeps every state within
    /// `vtol/10` of the plain `vtol` test's, for fewer Newton iterations,
    /// on both integrators (measured: gaps 9.0e-13 and 5.0e-13, 374/429 and
    /// 351/401 iterations).
    #[test]
    fn rate_stop_lands_within_vtol_for_fewer_iterations() {
        let ckt = pulsed_inverter();
        let x0 = crate::dc::dc_operating_point(&ckt, &crate::dc::DcOptions::default()).unwrap();
        let (period, n_steps, gmin) = (1e-9, 200, 1e-12);
        for method in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
            let cycle = |test: NewtonTest| {
                let newton = counting_newton();
                let mut ws = CycleWorkspace::new();
                let control = StepControl::Fixed;
                let cyc = Stepper::cycle(
                    &ckt, &mut ws, &x0, 0.0, period, n_steps, &control, method, &newton, gmin, test,
                )
                .unwrap()
                .run(&ckt, &newton, true, |_, _| {})
                .unwrap();
                (cyc, newton.budget.newton_iters())
            };
            let (rate, rate_iters) = cycle(NewtonTest::Rate);
            let (vtol, vtol_iters) = cycle(NewtonTest::Vtol);
            assert_eq!(rate.records.len(), n_steps);
            let gap = max_gap(&rate.states, &vtol.states);
            assert!(
                gap <= NewtonOptions::default().vtol / 10.0,
                "{method:?}: state gap {gap:e}"
            );
            assert!(
                rate_iters < vtol_iters,
                "{method:?}: {rate_iters} vs {vtol_iters} iterations"
            );
        }
    }

    /// `transient` runs its stepper on the plain `vtol` test: bitwise the
    /// `NewtonTest::Vtol` run, while the rate stop would have moved it.
    #[test]
    fn transient_keeps_the_vtol_test() {
        let ckt = pulsed_inverter();
        let mut opts = TranOptions::new(2e-9, 5e-12);
        opts.method = Integrator::Trapezoidal;
        let shipped = transient(&ckt, &opts).unwrap();
        let x0 = shipped.states[0].clone();
        let run = |test: NewtonTest| {
            let mut ws = CycleWorkspace::new();
            Stepper::transient(&ckt, &mut ws, &opts, x0.clone(), test)
                .unwrap()
                .run(&ckt, &opts.newton, false, |_, _| {})
                .unwrap()
        };
        let (vtol, rate) = (run(NewtonTest::Vtol), run(NewtonTest::Rate));
        assert_eq!(shipped.times, vtol.times);
        for (a, b) in shipped.states.iter().zip(&vtol.states) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
        let gap = max_gap(&vtol.states, &rate.states);
        let vtol_bound = opts.newton.vtol / 10.0;
        assert!(gap > 0.0 && gap <= vtol_bound, "rate vs vtol gap {gap:e}");
    }

    /// Bit patterns of a vector, for bitwise comparisons.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts two cycles equal bitwise: states, and per record `t1`, `h`,
    /// θ, a probe solve through `J`, `B` and the operating points.
    fn assert_cycles_bitwise(a: &CycleResult, b: &CycleResult, what: &str) {
        assert_eq!(bits(&a.times), bits(&b.times), "{what}: times");
        for (k, (sa, sb)) in a.states.iter().zip(&b.states).enumerate() {
            assert_eq!(bits(sa), bits(sb), "{what}: state {k}");
        }
        assert_eq!(a.states.len(), b.states.len(), "{what}: states");
        assert_eq!(a.records.len(), b.records.len(), "{what}: records");
        for (k, (ra, rb)) in a.records.iter().zip(&b.records).enumerate() {
            let probe: Vec<f64> = (0..ra.lu.n()).map(|i| 1.0 - 0.3 * i as f64).collect();
            assert_eq!(
                bits(&[ra.t1, ra.h, ra.theta]),
                bits(&[rb.t1, rb.h, rb.theta]),
                "{what}: record {k} grid"
            );
            assert_eq!(
                bits(&ra.lu.solve(&probe)),
                bits(&rb.lu.solve(&probe)),
                "{what}: record {k} J"
            );
            assert_eq!(*ra.b, *rb.b, "{what}: record {k} B pattern");
            assert_eq!(
                bits(ra.b.values()),
                bits(rb.b.values()),
                "{what}: record {k} B"
            );
            assert_eq!(ra.mos_ops, rb.mos_ops, "{what}: record {k} mos_ops");
        }
    }

    /// A workspace reused across a `Circuit::revalue` of a capacitor and a
    /// resistor rebuilds its assemblies from the revalued circuit: its
    /// recorded cycles and transients equal a fresh workspace's bitwise,
    /// and none repeats the pre-revalue run.
    #[test]
    fn workspace_reuse_across_revalue_matches_fresh() {
        use tranvar_circuit::CircuitOverride;
        let mut ckt = pulsed_inverter();
        let out = ckt.find_node("out").unwrap();
        let rl = ckt.add_resistor("RL", out, NodeId::GROUND, 50e3);
        let cl = ckt.find_device("CL").unwrap();
        let x0 = crate::dc::dc_operating_point(&ckt, &crate::dc::DcOptions::default()).unwrap();
        let newton = NewtonOptions::default();
        let (period, n_steps, gmin) = (1e-9, 100, 1e-12);
        let mut opts = TranOptions::new(2e-9, 1e-11);
        opts.x0 = Some(x0.clone());
        for method in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
            opts.method = method;
            let cycle = |ckt: &Circuit, ws: &mut CycleWorkspace| {
                let control = StepControl::Fixed;
                integrate_cycle(
                    ckt, ws, &x0, 0.0, period, n_steps, &control, method, &newton, gmin, true,
                )
                .unwrap()
            };
            let tran = |ckt: &Circuit, ws: &mut CycleWorkspace| {
                run(ckt, ws, &opts, x0.clone(), |_, _| {}).unwrap()
            };
            let mut ws = CycleWorkspace::new();
            let before = cycle(&ckt, &mut ws);
            let tran_before = tran(&ckt, &mut ws);
            let mut revalued = ckt.clone();
            revalued
                .revalue(&[
                    CircuitOverride::Capacitance {
                        device: cl,
                        farads: 35e-15,
                    },
                    CircuitOverride::Resistance {
                        device: rl,
                        ohms: 20e3,
                    },
                ])
                .unwrap();
            let reused = cycle(&revalued, &mut ws);
            let fresh = cycle(&revalued, &mut CycleWorkspace::new());
            assert_cycles_bitwise(&reused, &fresh, &format!("{method:?} cycle"));
            assert!(max_gap(&reused.states, &before.states) > 1e-3);
            let reused = tran(&revalued, &mut ws);
            let fresh = tran(&revalued, &mut CycleWorkspace::new());
            assert_eq!(reused.times, fresh.times);
            for (k, (a, b)) in reused.states.iter().zip(&fresh.states).enumerate() {
                assert_eq!(bits(a), bits(b), "{method:?} transient state {k}");
            }
            assert!(max_gap(&reused.states, &tran_before.states) > 1e-3);
        }
    }

    /// Every record's `B` equals a fresh `combine` at the previous accepted
    /// state bitwise. The G-free backward-Euler records of a fixed-grid
    /// cycle share one allocation; trapezoidal records share none, and on
    /// an adaptive grid only steps of the same `h` share.
    #[test]
    fn backward_euler_records_share_one_coupling_matrix() {
        let ckt = pulsed_inverter();
        let x0 = crate::dc::dc_operating_point(&ckt, &crate::dc::DcOptions::default()).unwrap();
        let (n_node, gmin) = (ckt.n_nodes() - 1, 1e-12);
        let adaptive = StepControl::Adaptive(AdaptiveOptions::default());
        for (method, control) in [
            (Integrator::BackwardEuler, StepControl::Fixed),
            (Integrator::Trapezoidal, StepControl::Fixed),
            (Integrator::BackwardEuler, adaptive),
        ] {
            let cyc = integrate_cycle(
                &ckt,
                &mut CycleWorkspace::new(),
                &x0,
                0.0,
                1e-9,
                100,
                &control,
                method,
                &NewtonOptions::default(),
                gmin,
                true,
            )
            .unwrap();
            let what = format!("{method:?} {control:?}");
            for (k, rec) in cyc.records.iter().enumerate() {
                let prev = ckt.assemble(&cyc.states[k], cyc.times[k]);
                let (ag, gm) = (-(1.0 - rec.theta), -(1.0 - rec.theta) * gmin);
                let fresh = crate::solver::combine(&prev, ag, 1.0 / rec.h, gm, n_node);
                assert_eq!(*rec.b, fresh, "{what}: record {k}");
                assert_eq!(bits(rec.b.values()), bits(fresh.values()), "{what}: {k}");
            }
            let fixed = control == StepControl::Fixed;
            for (k, a) in cyc.records.iter().enumerate() {
                for b in &cyc.records[..k] {
                    let shared = Arc::ptr_eq(&a.b, &b.b);
                    let g_free = a.theta == 1.0 && b.theta == 1.0;
                    assert!(!shared || (g_free && a.h == b.h), "{what}: record {k}");
                    assert!(!fixed || shared == g_free, "{what}: record {k}");
                }
            }
        }
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let (ckt, b) = rc_circuit(1e3, 1e-6); // tau = 1 ms
        let mut opts = TranOptions::new(2e-3, 2e-6);
        opts.x0 = Some(vec![1.0, 0.0, -1e-3]);
        opts.method = Integrator::Trapezoidal;
        let res = transient(&ckt, &opts).unwrap();
        for (t, x) in res.times.iter().zip(res.states.iter()) {
            let expect = 1.0 - (-t / 1e-3).exp();
            let got = ckt.voltage(x, b);
            assert!((got - expect).abs() < 2e-3, "t={t:.2e}: {got} vs {expect}");
        }
    }

    #[test]
    fn be_is_more_damped_than_trap() {
        // LC-ish tank via R-L-C: BE loses amplitude, trapezoidal conserves.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_capacitor("C1", a, NodeId::GROUND, 1e-9);
        ckt.add_inductor("L1", a, NodeId::GROUND, 1e-3);
        // start with 1 V on the cap: x = [v_a, i_L]
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-3_f64 * 1e-9).sqrt());
        let t_end = 3.0 / f0;
        let dt = 1.0 / (200.0 * f0);
        let run = |method| {
            let mut opts = TranOptions::new(t_end, dt);
            opts.method = method;
            opts.x0 = Some(vec![1.0, 0.0]);
            let res = transient(&ckt, &opts).unwrap();
            res.node_waveform(&ckt, a)
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()))
        };
        let be_peak_late = {
            let mut opts = TranOptions::new(t_end, dt);
            opts.method = Integrator::BackwardEuler;
            opts.x0 = Some(vec![1.0, 0.0]);
            let res = transient(&ckt, &opts).unwrap();
            let w = res.node_waveform(&ckt, a);
            w[w.len() - w.len() / 3..]
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()))
        };
        let trap_peak = run(Integrator::Trapezoidal);
        assert!(
            trap_peak > 0.95,
            "trapezoidal conserves amplitude: {trap_peak}"
        );
        assert!(be_peak_late < 0.9, "BE damps the tank: {be_peak_late}");
    }

    #[test]
    fn pulse_drives_rc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Pulse(Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 1e-6,
                rise: 1e-8,
                fall: 1e-8,
                width: 4e-6,
                period: 10e-6,
            }),
        );
        ckt.add_resistor("R1", a, b, 100.0);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9); // tau = 100 ns
        let res = transient(&ckt, &TranOptions::new(10e-6, 1e-8)).unwrap();
        let w = res.node_waveform(&ckt, b);
        let t = &res.times;
        // By 3 us (20 tau after the edge) the output is ~1.
        let i3 = tranvar_num::interp::nearest_index(t, 3e-6);
        assert!((w[i3] - 1.0).abs() < 1e-3);
        // After the falling edge it returns to ~0 by 8 us.
        let i8 = tranvar_num::interp::nearest_index(t, 8e-6);
        assert!(w[i8].abs() < 1e-2);
    }

    #[test]
    fn cycle_records_propagate_sensitivity() {
        // Check J⁻¹B against finite differences of the flow map for a linear
        // RC: dx1/dx0 computed both ways.
        let (ckt, _) = rc_circuit(1e3, 1e-6);
        let x0 = vec![1.0, 0.2, -0.8e-3];
        let n = 3;
        let period = 1e-4;
        let cyc = integrate_cycle(
            &ckt,
            &mut CycleWorkspace::new(),
            &x0,
            0.0,
            period,
            8,
            &StepControl::Fixed,
            Integrator::BackwardEuler,
            &NewtonOptions::default(),
            1e-12,
            true,
        )
        .unwrap();
        assert_eq!(cyc.records.len(), 8);
        // Monodromy via records.
        let mut m = tranvar_num::DMat::identity(n);
        for rec in &cyc.records {
            let bm = rec.b.to_dense();
            let mut cols = Vec::new();
            for j in 0..n {
                let col: Vec<f64> = (0..n).map(|i| bm[(i, j)]).collect();
                cols.push(rec.lu.solve(&col));
            }
            let mut a = tranvar_num::DMat::zeros(n, n);
            for (j, col) in cols.iter().enumerate() {
                for i in 0..n {
                    a[(i, j)] = col[i];
                }
            }
            m = a.mat_mul(&m);
        }
        // FD of the flow.
        let flow = |x0: &[f64]| {
            integrate_cycle(
                &ckt,
                &mut CycleWorkspace::new(),
                x0,
                0.0,
                period,
                8,
                &StepControl::Fixed,
                Integrator::BackwardEuler,
                &NewtonOptions::default(),
                1e-12,
                false,
            )
            .unwrap()
            .states
            .last()
            .unwrap()
            .clone()
        };
        let h = 1e-6;
        for j in 0..n {
            let mut xp = x0.clone();
            xp[j] += h;
            let mut xm = x0.clone();
            xm[j] -= h;
            let fp = flow(&xp);
            let fm = flow(&xm);
            for i in 0..n {
                let fd = (fp[i] - fm[i]) / (2.0 * h);
                assert!(
                    (m[(i, j)] - fd).abs() < 1e-5 * fd.abs().max(1e-3),
                    "M[{i}][{j}] = {} vs fd {fd}",
                    m[(i, j)]
                );
            }
        }
    }

    /// Reusing one `CycleWorkspace` across cycles must reproduce the fresh
    /// per-call path exactly (dense backend: refactorization recomputes its
    /// pivots, so the workspace carries storage, not state).
    #[test]
    fn cycle_workspace_reuse_is_bit_identical() {
        let (ckt, _) = rc_circuit(1e3, 1e-6);
        let period = 1e-4;
        let newton = NewtonOptions::default();
        let mut ws = CycleWorkspace::new();
        let starts = [
            vec![1.0, 0.2, -0.8e-3],
            vec![1.0, 0.7, -0.3e-3],
            vec![1.0, 0.2, -0.8e-3], // repeat the first start after other work
        ];
        for (round, x0) in starts.iter().enumerate() {
            let fresh = integrate_cycle(
                &ckt,
                &mut CycleWorkspace::new(),
                x0,
                0.0,
                period,
                8,
                &StepControl::Fixed,
                Integrator::Trapezoidal,
                &newton,
                1e-12,
                true,
            )
            .unwrap();
            let reused = integrate_cycle(
                &ckt,
                &mut ws,
                x0,
                0.0,
                period,
                8,
                &StepControl::Fixed,
                Integrator::Trapezoidal,
                &newton,
                1e-12,
                true,
            )
            .unwrap();
            assert_eq!(fresh.states.len(), reused.states.len());
            for (sf, sr) in fresh.states.iter().zip(reused.states.iter()) {
                for (a, b) in sf.iter().zip(sr.iter()) {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "round {round}: fresh {a} vs reused {b}"
                    );
                }
            }
            assert_eq!(fresh.records.len(), reused.records.len());
            for (rf, rr) in fresh.records.iter().zip(reused.records.iter()) {
                let probe = vec![1.0, -0.5, 0.25];
                let xf = rf.lu.solve(&probe);
                let xr = rr.lu.solve(&probe);
                for (a, b) in xf.iter().zip(xr.iter()) {
                    assert!(a.to_bits() == b.to_bits(), "round {round}: record solve");
                }
            }
        }
    }

    /// Sparse-backend workspace reuse replays the first cycle's pivot order,
    /// so results match a fresh workspace to machine precision (the pivot
    /// order, not the arithmetic, is the only state that carries over).
    #[test]
    fn sparse_cycle_workspace_reuse_matches_fresh() {
        let (ckt, _) = rc_circuit(1e3, 1e-6);
        let period = 1e-4;
        let mut newton = NewtonOptions::default();
        newton.solver = SolverKind::Sparse;
        let mut ws = CycleWorkspace::new();
        let starts = [
            vec![1.0, 0.2, -0.8e-3],
            vec![1.0, 0.7, -0.3e-3],
            vec![1.0, 0.4, -0.6e-3],
        ];
        for (round, x0) in starts.iter().enumerate() {
            // Alternate the period like autonomous shooting does.
            let per = period * (1.0 + 1e-6 * round as f64);
            let fresh = integrate_cycle(
                &ckt,
                &mut CycleWorkspace::new(),
                x0,
                0.0,
                per,
                8,
                &StepControl::Fixed,
                Integrator::Trapezoidal,
                &newton,
                1e-12,
                false,
            )
            .unwrap();
            let reused = integrate_cycle(
                &ckt,
                &mut ws,
                x0,
                0.0,
                per,
                8,
                &StepControl::Fixed,
                Integrator::Trapezoidal,
                &newton,
                1e-12,
                false,
            )
            .unwrap();
            for (sf, sr) in fresh.states.iter().zip(reused.states.iter()) {
                for (a, b) in sf.iter().zip(sr.iter()) {
                    assert!(
                        (a - b).abs() < 1e-12 * a.abs().max(1.0),
                        "round {round}: fresh {a} vs reused {b}"
                    );
                }
            }
        }
    }

    /// The controller's accepted grid covers `[t_start, t_stop]` monotonically
    /// with every interior step inside `[h_min, 1.05·h_max]` (the final step
    /// may be a shorter sliver) — property (b) of the adaptive contract.
    fn assert_grid_contract(times: &[f64], t_start: f64, t_stop: f64, a: &AdaptiveOptions) {
        let (h_min, h_max) = a.resolve_bounds(t_stop - t_start);
        assert_eq!(times[0], t_start);
        assert_eq!(*times.last().unwrap(), t_stop);
        for (k, w) in times.windows(2).enumerate() {
            let h = w[1] - w[0];
            assert!(
                h > 0.0,
                "step {k}: non-monotone grid ({} -> {})",
                w[0],
                w[1]
            );
            assert!(
                h <= 1.05 * h_max * (1.0 + 1e-9),
                "step {k}: h={h:.3e} exceeds 1.05*h_max={:.3e}",
                1.05 * h_max
            );
            if k + 2 < times.len() {
                assert!(
                    h >= h_min * (1.0 - 1e-9),
                    "interior step {k}: h={h:.3e} below h_min={h_min:.3e}"
                );
            }
        }
    }

    /// Adaptive stepping on a smooth RC charging curve needs far fewer steps
    /// than the fine fixed grid while staying inside the 10×reltol band.
    #[test]
    fn adaptive_rc_matches_fixed_with_fewer_steps() {
        let (ckt, b) = rc_circuit(1e3, 1e-6); // tau = 1 ms
        let x0 = Some(vec![1.0, 0.0, -1e-3]);
        let mut fixed = TranOptions::new(5e-3, 1e-6);
        fixed.x0 = x0.clone();
        fixed.method = Integrator::Trapezoidal;
        let rf = transient(&ckt, &fixed).unwrap();

        let a = AdaptiveOptions::default();
        let mut adpt = TranOptions::adaptive(5e-3, 1e-6, a);
        adpt.x0 = x0;
        adpt.method = Integrator::Trapezoidal;
        let ra = transient(&ckt, &adpt).unwrap();

        let fixed_steps = rf.states.len() - 1;
        let adaptive_steps = ra.states.len() - 1;
        assert!(
            adaptive_steps * 5 <= fixed_steps,
            "adaptive took {adaptive_steps} steps vs {fixed_steps} fixed"
        );
        assert_grid_contract(&ra.times, 0.0, 5e-3, &a);
        let vf = ckt.voltage(rf.last(), b);
        let va = ckt.voltage(ra.last(), b);
        assert!(
            (va - vf).abs() <= 10.0 * (a.abstol + a.reltol * vf.abs()),
            "adaptive end {va} vs fixed end {vf}"
        );
        // And against the analytic solution everywhere on the accepted grid.
        for (t, x) in ra.times.iter().zip(ra.states.iter()) {
            let expect = 1.0 - (-t / 1e-3).exp();
            let got = ckt.voltage(x, b);
            assert!(
                (got - expect).abs() <= 10.0 * (a.abstol + a.reltol * expect.abs().max(0.1)),
                "t={t:.3e}: {got} vs {expect}"
            );
        }
    }

    /// The adaptive controller reacts to a mid-run transient: steps shrink
    /// at the pulse edges of a driven RC and grow back on the flats.
    #[test]
    fn adaptive_shrinks_at_pulse_edges() {
        let mut ckt = Circuit::new();
        let a_node = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(
            "V1",
            a_node,
            NodeId::GROUND,
            Waveform::Pulse(Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 1e-6,
                rise: 1e-8,
                fall: 1e-8,
                width: 4e-6,
                period: 10e-6,
            }),
        );
        ckt.add_resistor("R1", a_node, b, 100.0);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9); // tau = 100 ns
        let a = AdaptiveOptions::default();
        let opts = TranOptions::adaptive(10e-6, 1e-8, a);
        let res = transient(&ckt, &opts).unwrap();
        assert_grid_contract(&res.times, 0.0, 10e-6, &a);
        // Accuracy at the sampled plateaus, like the fixed-grid test.
        let w = res.node_waveform(&ckt, b);
        let t = &res.times;
        let i3 = tranvar_num::interp::nearest_index(t, 3e-6);
        assert!((w[i3] - 1.0).abs() < 2e-2, "plateau: {}", w[i3]);
        let i8 = tranvar_num::interp::nearest_index(t, 8e-6);
        assert!(w[i8].abs() < 3e-2, "tail: {}", w[i8]);
        // The grid is genuinely non-uniform: the largest accepted step is
        // much bigger than the smallest.
        let mut hs: Vec<f64> = t.windows(2).map(|w| w[1] - w[0]).collect();
        hs.pop(); // final sliver is exempt from the bounds
        let h_lo = hs.iter().cloned().fold(f64::INFINITY, f64::min);
        let h_hi = hs.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            h_hi > 4.0 * h_lo,
            "grid stayed uniform: {h_lo:.3e}..{h_hi:.3e}"
        );
    }

    /// Adaptive cycle integration lands exactly on `t0 + period`, starts
    /// with a backward-Euler step, and records every accepted step.
    #[test]
    fn adaptive_cycle_lands_on_period() {
        let (ckt, _) = rc_circuit(1e3, 1e-6);
        let x0 = vec![1.0, 0.2, -0.8e-3];
        let period = 1e-4;
        let a = AdaptiveOptions::default();
        let mut ws = CycleWorkspace::new();
        let cyc = integrate_cycle(
            &ckt,
            &mut ws,
            &x0,
            0.0,
            period,
            32,
            &StepControl::Adaptive(a),
            Integrator::Trapezoidal,
            &NewtonOptions::default(),
            1e-12,
            true,
        )
        .unwrap();
        assert_eq!(*cyc.times.last().unwrap(), period);
        assert_eq!(cyc.records.len(), cyc.states.len() - 1);
        assert_eq!(cyc.records[0].theta, 1.0, "first cycle step must be BE");
        for (rec, w) in cyc.records.iter().zip(cyc.times.windows(2)) {
            assert_eq!(rec.t1, w[1]);
            assert_eq!(rec.h, w[1] - w[0], "record h must match the grid");
        }
    }

    /// Enabling adaptive mode must not perturb the fixed path: the fixed
    /// result is byte-for-byte the same whether or not the adaptive code is
    /// compiled in, so here we only pin the invariant that `StepControl::Fixed`
    /// (the default) reproduces the documented uniform grid exactly.
    #[test]
    fn fixed_mode_grid_is_uniform() {
        let (ckt, _) = rc_circuit(1e3, 1e-6);
        let mut opts = TranOptions::new(1e-3, 1e-5);
        opts.x0 = Some(vec![1.0, 0.0, -1e-3]);
        assert_eq!(opts.step_control, StepControl::Fixed);
        let res = transient(&ckt, &opts).unwrap();
        assert_eq!(res.times.len(), 101);
        for (k, t) in res.times.iter().enumerate() {
            assert_eq!(*t, k as f64 * 1e-5);
        }
    }

    /// Regression for the silent zero-step run: `dt` rounding the step count
    /// to zero is now a configuration error, while spans that round up to
    /// one step keep working.
    #[test]
    fn fixed_rejects_dt_larger_than_span() {
        let (ckt, _) = rc_circuit(1e3, 1e-6);
        // round(1e-3 / 3e-3) == 0: used to return just the initial state.
        assert!(matches!(
            transient(&ckt, &TranOptions::new(1e-3, 3e-3)),
            Err(EngineError::BadConfig(_))
        ));
        // round(1e-3 / 1.5e-3) == 1: one step covering the span.
        let mut opts = TranOptions::new(1e-3, 1.5e-3);
        opts.x0 = Some(vec![1.0, 0.0, -1e-3]);
        let res = transient(&ckt, &opts).unwrap();
        assert_eq!(res.states.len(), 2);
    }

    #[test]
    fn rejects_bad_adaptive_config() {
        let (ckt, _) = rc_circuit(1e3, 1e-6);
        for bad in [
            AdaptiveOptions {
                reltol: 0.0,
                ..AdaptiveOptions::default()
            },
            AdaptiveOptions {
                abstol: -1.0,
                ..AdaptiveOptions::default()
            },
            AdaptiveOptions {
                h_min: 1e-3,
                h_max: 1e-6,
                ..AdaptiveOptions::default()
            },
            AdaptiveOptions {
                min_shrink: 1.5,
                ..AdaptiveOptions::default()
            },
            AdaptiveOptions {
                safety: 0.0,
                ..AdaptiveOptions::default()
            },
        ] {
            assert!(
                matches!(
                    transient(&ckt, &TranOptions::adaptive(1e-3, 1e-6, bad)),
                    Err(EngineError::BadConfig(_))
                ),
                "accepted bad adaptive config {bad:?}"
            );
        }
    }

    /// Property (d): a fault-injected rejection storm (every LTE estimate
    /// poisoned to NaN) must trip the solve budget instead of spinning, and
    /// without a budget must fail fast with `NonFinite` once the controller
    /// bottoms out at `h_min`.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn lte_rejection_storm_trips_budget() {
        use crate::budget::{BudgetLimits, SolveBudget};
        use crate::fault::{sites, FaultAction, FaultPlan};

        let (ckt, _) = rc_circuit(1e3, 1e-6);
        let mut opts = TranOptions::adaptive(1e-3, 1e-6, AdaptiveOptions::default());
        opts.x0 = Some(vec![1.0, 0.0, -1e-3]);
        // Tight enough to trip inside the storm: the controller only gets
        // ~15 rejections (h: 1e-6 → h_min at ×0.25 each) before bottoming
        // out, and each rejection costs a couple of Newton iterations plus
        // the rejection charge itself.
        opts.newton.budget = SolveBudget::new(BudgetLimits::default().max_newton_iters(20));
        {
            let _guard = FaultPlan::new()
                .fail_range(sites::TRAN_LTE, 0, 1_000_000, FaultAction::PoisonNan)
                .install();
            match transient(&ckt, &opts) {
                Err(EngineError::BudgetExceeded { .. }) => {}
                other => panic!("expected BudgetExceeded, got {other:?}"),
            }
        }
        // Without a budget the storm still terminates: the step bottoms out
        // at h_min and the non-finite LTE becomes a hard error.
        opts.newton.budget = SolveBudget::unlimited();
        {
            let _guard = FaultPlan::new()
                .fail_range(sites::TRAN_LTE, 0, 1_000_000, FaultAction::PoisonNan)
                .install();
            match transient(&ckt, &opts) {
                Err(EngineError::NonFinite { .. }) => {}
                other => panic!("expected NonFinite at h_min, got {other:?}"),
            }
        }
        // The same storm through one adaptive cycle takes the same stepper,
        // so it ends on the same budget path.
        let cycle = |budget: SolveBudget| {
            let _guard = FaultPlan::new()
                .fail_range(sites::TRAN_LTE, 0, 1_000_000, FaultAction::PoisonNan)
                .install();
            integrate_cycle(
                &ckt,
                &mut CycleWorkspace::new(),
                &[1.0, 0.0, -1e-3],
                0.0,
                1e-3,
                1000,
                &StepControl::Adaptive(AdaptiveOptions::default()),
                Integrator::BackwardEuler,
                &NewtonOptions {
                    budget,
                    ..NewtonOptions::default()
                },
                1e-12,
                true,
            )
        };
        match cycle(SolveBudget::new(
            BudgetLimits::default().max_newton_iters(20),
        )) {
            Err(EngineError::BudgetExceeded { .. }) => {}
            other => panic!("cycle: expected BudgetExceeded, got {other:?}"),
        }
        match cycle(SolveBudget::unlimited()) {
            Err(EngineError::NonFinite { .. }) => {}
            other => panic!("cycle: expected NonFinite at h_min, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_config() {
        let (ckt, _) = rc_circuit(1e3, 1e-6);
        assert!(transient(&ckt, &TranOptions::new(-1.0, 1e-6)).is_err());
        let adaptive = StepControl::Adaptive(AdaptiveOptions::default());
        // Non-finite time inputs, on both grids: a NaN `dt` or `t_stop`
        // fails every comparison, so only an explicit finiteness check
        // keeps it from rounding to a zero-step run.
        let x0 = Some(vec![1.0, 0.0, -1e-3]);
        for (t_start, t_stop, dt) in [
            (0.0, 1e-3, f64::NAN),
            (0.0, f64::NAN, 1e-6),
            (f64::NAN, 1e-3, 1e-6),
            (0.0, f64::INFINITY, 1e-6),
            (f64::NEG_INFINITY, 1e-3, 1e-6),
            (0.0, 1e-3, f64::INFINITY),
        ] {
            for control in [StepControl::Fixed, adaptive] {
                let opts = TranOptions {
                    t_start,
                    x0: x0.clone(),
                    step_control: control,
                    ..TranOptions::new(t_stop, dt)
                };
                assert!(
                    matches!(transient(&ckt, &opts), Err(EngineError::BadConfig(_))),
                    "accepted t_start = {t_start}, t_stop = {t_stop}, dt = {dt} ({control:?})"
                );
            }
        }
        for (period, n_steps) in [(1.0, 0), (f64::NAN, 8), (f64::INFINITY, 8), (-1.0, 8)] {
            for control in [StepControl::Fixed, adaptive] {
                assert!(
                    matches!(
                        integrate_cycle(
                            &ckt,
                            &mut CycleWorkspace::new(),
                            &[0.0; 3],
                            0.0,
                            period,
                            n_steps,
                            &control,
                            Integrator::BackwardEuler,
                            &NewtonOptions::default(),
                            0.0,
                            false
                        ),
                        Err(EngineError::BadConfig(_))
                    ),
                    "accepted period = {period}, n_steps = {n_steps} ({control:?})"
                );
            }
        }
    }
}
