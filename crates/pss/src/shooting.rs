//! Shooting-Newton periodic steady-state (PSS) analysis.
//!
//! Instead of integrating through the whole settling transient, shooting
//! finds the fixed point of the one-period flow map `Φ_T`: solve
//! `Φ_T(x₀) − x₀ = 0` with Newton, whose Jacobian is the monodromy matrix
//! `M = ∂Φ_T/∂x₀` assembled from the per-step records of
//! [`tranvar_engine::integrate_cycle`] (paper Section IV, refs. \[12\],\[16\]).
//!
//! Because shooting is a root-finder rather than a forward simulation it
//! converges to *unstable or marginally stable* periodic orbits as well —
//! which is exactly what the clocked-comparator metastability testbench of
//! paper Fig. 6 requires.
//!
//! [`monodromy_threaded`] runs the engine's record sweep and only scatters
//! its blocks into `M`; [`monodromy_seq`] stays a per-column oracle.

use crate::error::PssError;
use tranvar_circuit::{Circuit, NodeId};
use tranvar_engine::dc::{DcOptions, NewtonOptions};
use tranvar_engine::sens::RecordSweep;
use tranvar_engine::tran::{
    integrate_cycle, CycleResult, CycleWorkspace, Integrator, StepControl, StepRecord,
};
use tranvar_engine::Session;
use tranvar_num::dense::vecops;
use tranvar_num::{DMat, NumError};

/// Last state of an integrated cycle, as a typed error instead of a panic
/// when the cycle is empty (`n_steps == 0` should be rejected upstream, but
/// a kernel bug must not take down a whole campaign worker).
pub(crate) fn last_state(cyc: &CycleResult) -> Result<&Vec<f64>, PssError> {
    cyc.states.last().ok_or(PssError::Num(NumError::Internal {
        what: "cycle integration produced no states",
    }))
}

/// Cap on shooting-Newton rounds after the warm-up cycles.
pub(crate) const MAX_ITER: usize = 40;

/// Clamp on the ∞-norm of one shooting-Newton state update.
pub(crate) const UPDATE_LIMIT: f64 = 0.6;

/// PSS analysis controls.
#[derive(Clone, Debug, PartialEq)]
pub struct PssOptions {
    /// Time steps per period.
    pub n_steps: usize,
    /// Convergence tolerance on `|Φ(x₀) − x₀|_∞`.
    pub tol: f64,
    /// Integration scheme (trapezoidal recommended for oscillators).
    pub method: Integrator,
    /// Inner Newton controls per timestep.
    pub newton: NewtonOptions,
    /// Node-row gmin.
    pub gmin: f64,
    /// Cap on forward warm-up cycles (`x ← Φ(x)`) before shooting-Newton
    /// takes over. Every cycle after the one leaving the DC seed checks its
    /// residual, and the solve returns the first cycle within [`tol`], so a
    /// well-damped circuit may integrate fewer cycles than this. The cycle
    /// leaving the DC seed is unrecorded, so its steps converge on the
    /// loose warm-up Newton test (see [`integrate_cycle`]); only its
    /// endpoint is read, as the start of the first checked cycle.
    ///
    /// [`tol`]: PssOptions::tol
    pub warmup_cycles: usize,
    /// Cycle-grid policy, passed unchanged to
    /// [`integrate_cycle`]: [`StepControl::Fixed`] integrates every cycle on
    /// the uniform `period / n_steps` grid (the bit-identical reference
    /// path); [`StepControl::Adaptive`] lets the LTE controller pick the
    /// accepted grid per cycle, seeding each cycle at `period / n_steps`.
    /// The per-step records carry their own `h`/`θ`, so the monodromy and
    /// every LPTV consumer follow whichever grid was accepted.
    ///
    /// Because the adaptive grid moves with the shooting iterate `x₀`, the
    /// cycle map is only reproducible to the LTE tolerance: set [`tol`]
    /// at or above `reltol` when using the adaptive mode (the 1e-9 default
    /// is tuned for the fixed grid and will report `NoConvergence`).
    ///
    /// [`tol`]: PssOptions::tol
    pub step_control: StepControl,
}

impl Default for PssOptions {
    fn default() -> Self {
        PssOptions {
            n_steps: 256,
            tol: 1e-9,
            method: Integrator::BackwardEuler,
            newton: NewtonOptions::default(),
            gmin: 1e-12,
            warmup_cycles: 2,
            step_control: StepControl::Fixed,
        }
    }
}

/// Integrates one period under the shooting options: `opts.n_steps` steps
/// of the grid [`PssOptions::step_control`] picks (see
/// [`integrate_cycle`]). Shared by the driven and autonomous shooting
/// drivers so every cycle of one solve uses the same grid policy.
pub(crate) fn integrate_pss_cycle(
    ckt: &Circuit,
    ws: &mut CycleWorkspace,
    x0: &[f64],
    t0: f64,
    period: f64,
    opts: &PssOptions,
    newton: &NewtonOptions,
    record: bool,
) -> Result<CycleResult, tranvar_engine::EngineError> {
    integrate_cycle(
        ckt,
        ws,
        x0,
        t0,
        period,
        opts.n_steps,
        &opts.step_control,
        opts.method,
        newton,
        opts.gmin,
        record,
    )
}

/// A converged periodic steady state with everything the LPTV layer needs.
#[derive(Clone, Debug)]
pub struct PssSolution {
    /// Period (s); for autonomous circuits this is the *solved* period.
    pub period: f64,
    /// Sample times spanning one period (uniform with
    /// [`PssOptions::n_steps`] steps in fixed mode, the accepted
    /// non-uniform grid in adaptive mode).
    pub times: Vec<f64>,
    /// One state per sample time; `states[0] ≈ states.last()`.
    pub states: Vec<Vec<f64>>,
    /// Per-step factorization records (one per accepted step, each with
    /// its own `h`/`θ`).
    pub records: Vec<StepRecord>,
    /// Monodromy matrix `∂Φ_T/∂x₀`.
    pub monodromy: DMat,
    /// Integration scheme used (θ needed by the LPTV source terms).
    pub method: Integrator,
    /// `∂Φ/∂T` — only present for autonomous solutions.
    pub dphi_dt: Option<Vec<f64>>,
    /// Unknown index pinned by the oscillator phase condition.
    pub phase_unknown: Option<usize>,
    /// Final shooting residual ∞-norm.
    pub residual: f64,
}

impl PssSolution {
    /// Fundamental frequency `1/T`.
    pub fn fundamental(&self) -> f64 {
        1.0 / self.period
    }

    /// Extracts one node's periodic waveform (`n_steps + 1` samples).
    pub fn node_waveform(&self, ckt: &Circuit, node: NodeId) -> Vec<f64> {
        self.states.iter().map(|x| ckt.voltage(x, node)).collect()
    }

    /// Time-derivative of a node waveform by centered differences on the
    /// periodic grid (used for delay-sensitivity extraction).
    ///
    /// On a uniform grid this is the historical fixed-step arithmetic
    /// (bit-identical to pre-adaptive results); on a non-uniform accepted
    /// grid the differences are weighted by the actual periodic sample
    /// spacings.
    pub fn node_slope(&self, ckt: &Circuit, node: NodeId) -> Vec<f64> {
        let w = self.node_waveform(ckt, node);
        let n = w.len() - 1; // w[0] == w[n]
        let mut out = vec![0.0; n + 1];
        if tranvar_num::interp::is_uniform_grid(&self.times, 1e-9) {
            let h = self.period / n as f64;
            for (i, o) in out.iter_mut().enumerate().take(n) {
                let prev = w[(i + n - 1) % n];
                let next = w[(i + 1) % n];
                *o = (next - prev) / (2.0 * h);
            }
        } else {
            for (i, o) in out.iter_mut().enumerate().take(n) {
                // i runs over 0..n, so the "next" sample is always i+1 (at
                // i = n−1 that is the period endpoint, which duplicates
                // sample 0); only the "previous" sample of i = 0 wraps,
                // through t = 0 ≡ period.
                let (prev, t_prev) = if i == 0 {
                    (w[n - 1], self.times[n - 1] - self.period)
                } else {
                    (w[i - 1], self.times[i - 1])
                };
                *o = (w[i + 1] - prev) / (self.times[i + 1] - t_prev);
            }
        }
        out[n] = out[0];
        out
    }
}

/// Propagates the monodromy matrix `M = ∏ J_k⁻¹ B_k` from cycle records:
/// batched, threaded accumulation.
///
/// The `n` columns of `M` propagate independently through the record
/// product, so they run through the engine's record sweep
/// ([`tranvar_engine::sens::RecordSweep`], with no source term) from
/// identity columns: contiguous column chunks, one std scoped worker per
/// chunk (`threads` as in [`tranvar_engine::effective_threads`]: `1` = the
/// calling thread, `0` = all cores; the shooting drivers pass their
/// session's [`Session::threads`]), one RHS-interleaved lane sweep per
/// record.
///
/// Per-column arithmetic is independent of the chunking, so the result is
/// bit-for-bit identical for any thread count and to the per-column
/// sequential reference [`monodromy_seq`].
pub fn monodromy_threaded(records: &[StepRecord], n: usize, threads: usize) -> DMat {
    let chunks = RecordSweep::chunks(n, n, threads);
    // `M` column-major, one slot per column.
    let mut cols = vec![0.0; n * n];
    let mut slots: Vec<&mut [f64]> = cols.chunks_mut(n.max(1)).collect();
    RecordSweep::run(chunks, &mut slots, |mut sw, cols| {
        let p = cols.len();
        for (j, c) in sw.jobs.clone().enumerate() {
            sw.state[c * p + j] = 1.0;
        }
        sw.sweep(records, |_| {});
        for (j, col) in cols.iter_mut().enumerate() {
            for (i, v) in col.iter_mut().enumerate() {
                *v = sw.state[i * p + j];
            }
        }
    });
    DMat::from_vec(n, n, cols).transpose()
}

/// Sequential per-column monodromy reference: one coupling product and one
/// allocating solve per column per record — the pre-batching behavior,
/// retained for validation and as the benchmark baseline
/// (`BENCH_pss.json`).
pub fn monodromy_seq(records: &[StepRecord], n: usize) -> DMat {
    let mut m = DMat::identity(n);
    let mut col = vec![0.0; n];
    for rec in records {
        let mut next = DMat::zeros(n, n);
        for j in 0..n {
            for (i, c) in col.iter_mut().enumerate() {
                *c = m[(i, j)];
            }
            let bx = rec.b.mat_vec(&col);
            let sx = rec.lu.solve(&bx);
            for (i, v) in sx.iter().enumerate() {
                next[(i, j)] = *v;
            }
        }
        m = next;
    }
    m
}

/// Solves the driven PSS problem for a circuit whose stimuli are periodic in
/// `period` (paper Section IV-B: every source must be DC or divide the
/// period).
///
/// Starting from the DC operating point, up to
/// [`PssOptions::warmup_cycles`] forward cycles are followed by
/// shooting-Newton rounds; the first cycle whose residual is within
/// [`PssOptions::tol`] is returned, forward or Newton alike.
///
/// # Errors
///
/// - [`PssError::NotPeriodic`] if a source is incompatible with `period`,
/// - [`PssError::NoConvergence`] if shooting stalls,
/// - engine errors from the inner integrations.
///
/// A one-line convenience over a fresh [`Session`] on
/// `opts.newton.solver`; see [`shooting_pss_in`].
pub fn shooting_pss(
    ckt: &Circuit,
    period: f64,
    opts: &PssOptions,
) -> Result<PssSolution, PssError> {
    shooting_pss_in(
        &mut Session::with_solver(opts.newton.solver),
        ckt,
        period,
        opts,
    )
}

/// [`shooting_pss`] borrowing an analysis [`Session`]: the DC seed, every
/// warm-up cycle and every shooting round run through the session's
/// workspaces, so repeated solves on one circuit (scenario campaigns,
/// corner sweeps) perform no per-call allocation or symbolic re-analysis.
/// The session's solver choice overrides [`NewtonOptions::solver`], and its
/// [`Session::threads`] sets the workers of the monodromy accumulation
/// ([`monodromy_threaded`]).
///
/// A fresh session reproduces [`shooting_pss`] bit-for-bit; a reused one
/// is bit-identical on the dense backend. On the sparse backend the
/// session's pivot-order replay (across DC homotopy stages and reused
/// workspaces) is identical to machine precision only — see
/// [`tranvar_engine::session`].
///
/// # Errors
///
/// See [`shooting_pss`].
pub fn shooting_pss_in(
    session: &mut Session,
    ckt: &Circuit,
    period: f64,
    opts: &PssOptions,
) -> Result<PssSolution, PssError> {
    check_periodicity(ckt, period)?;
    let n = ckt.n_unknowns();
    let newton = NewtonOptions {
        solver: session.solver(),
        ..opts.newton.clone()
    };
    let threads = session.threads();

    // Initial guess: the DC operating point.
    let mut x0 = session.dc_operating_point(
        ckt,
        &DcOptions {
            newton: newton.clone(),
            ..DcOptions::default()
        },
    )?;
    // The session's cycle workspace serves every cycle this solve
    // integrates: forward cycles and shooting rounds share the assembly
    // buffers, Newton vectors and factorization staging instead of
    // re-allocating them per round — and a warm session extends that reuse
    // across solves.
    let ws = session.cycle_workspace();

    // One loop for warm-up and Newton. The first `warmup_cycles` cycles
    // advance by forward substitution `x ← Φ(x)`, later ones by a Newton
    // step on `Φ(x) − x`; every cycle checks its residual and the first
    // one within `tol` is the returned orbit. The cycle leaving the DC
    // seed is a forward cycle only: the DC point is not on a driven orbit,
    // so it runs unrecorded (on the loose warm-up Newton test) and is
    // never checked.
    let mut last_residual = f64::INFINITY;
    for k in 0..opts.warmup_cycles + MAX_ITER {
        let forward = k < opts.warmup_cycles;
        let from_dc = k == 0 && forward;
        if !forward {
            // A shooting round is itself a Newton iteration on the cycle
            // map; charge it to the same budget its inner integrations draw
            // from.
            newton.budget.begin_iteration("pss shooting")?;
        }
        let cyc = integrate_pss_cycle(ckt, ws, &x0, 0.0, period, opts, &newton, !from_dc)?;
        let x_end = last_state(&cyc)?.clone();
        let r = vecops::sub(&x_end, &x0);
        last_residual = vecops::norm_inf(&r);
        if last_residual < opts.tol && !from_dc {
            let m = monodromy_threaded(&cyc.records, n, threads);
            return Ok(finish(
                cyc,
                period,
                m,
                opts.method,
                None,
                None,
                last_residual,
            ));
        }
        if forward {
            x0 = x_end;
            continue;
        }
        // Newton: (M − I)·Δ = −r.
        let mut a = monodromy_threaded(&cyc.records, n, threads);
        for i in 0..n {
            a[(i, i)] -= 1.0;
        }
        let mut delta = a.lu()?.solve(&r);
        vecops::scale(&mut delta, -1.0);
        let dmax = vecops::norm_inf(&delta);
        if dmax > UPDATE_LIMIT {
            let k = UPDATE_LIMIT / dmax;
            vecops::scale(&mut delta, k);
        }
        for (xi, di) in x0.iter_mut().zip(delta.iter()) {
            *xi += di;
        }
    }
    Err(PssError::NoConvergence {
        analysis: "shooting".into(),
        detail: format!(
            "residual {last_residual:.3e} after {MAX_ITER} iterations (tol {:.1e})",
            opts.tol
        ),
    })
}

pub(crate) fn finish(
    cyc: CycleResult,
    period: f64,
    monodromy: DMat,
    method: Integrator,
    dphi_dt: Option<Vec<f64>>,
    phase_unknown: Option<usize>,
    residual: f64,
) -> PssSolution {
    PssSolution {
        period,
        times: cyc.times,
        states: cyc.states,
        records: cyc.records,
        monodromy,
        method,
        dphi_dt,
        phase_unknown,
        residual,
    }
}

pub(crate) fn check_periodicity(ckt: &Circuit, period: f64) -> Result<(), PssError> {
    if !(period.is_finite() && period > 0.0) {
        return Err(PssError::BadConfig(
            "period must be positive and finite".into(),
        ));
    }
    match first_source_where(ckt, |w| !w.is_periodic_in(period)) {
        Some(device) => Err(PssError::NotPeriodic { device, period }),
        None => Ok(()),
    }
}

/// Label of the first independent source whose waveform satisfies `pred`.
pub(crate) fn first_source_where(
    ckt: &Circuit,
    pred: impl Fn(&tranvar_circuit::Waveform) -> bool,
) -> Option<String> {
    ckt.devices().iter().enumerate().find_map(|(i, dev)| {
        let wave = match dev {
            tranvar_circuit::Device::Vsource { wave, .. } => wave,
            tranvar_circuit::Device::Isource { wave, .. } => wave,
            _ => return None,
        };
        pred(wave).then(|| ckt.label(tranvar_circuit::DeviceId::from_index(i)).into())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranvar_circuit::{Pulse, Waveform};

    /// Driven RC: the PSS of a sine-driven RC matches the AC phasor.
    #[test]
    fn sine_driven_rc_matches_ac() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let freq = 1.0e5;
        ckt.add_vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Sin {
                offset: 0.0,
                ampl: 1.0,
                freq,
                delay: 0.0,
            },
        );
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1.59155e-9); // fc = 1e5 Hz
        let mut opts = PssOptions::default();
        opts.method = Integrator::Trapezoidal;
        opts.n_steps = 512;
        let sol = shooting_pss(&ckt, 1.0 / freq, &opts).unwrap();
        assert!(sol.residual < 1e-9);
        // |H| at the corner = 1/√2; amplitude of b's waveform should match.
        // Fundamental amplitude A = 2·|c₁|, c₁ by a direct DFT of one period.
        let w = sol.node_waveform(&ckt, b);
        let n = w.len() - 1;
        let (mut re, mut im) = (0.0, 0.0);
        for (i, v) in w[..n].iter().enumerate() {
            let phi = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            re += v * phi.cos();
            im -= v * phi.sin();
        }
        let amp = 2.0 * re.hypot(im) / n as f64;
        assert!((amp - 1.0 / 2.0_f64.sqrt()).abs() < 2e-3, "amplitude {amp}");
    }

    /// Pulse-driven RC: check `x(T) = x(0)` and periodic repeatability.
    #[test]
    fn pulse_driven_rc_is_periodic() {
        let (ckt, period) = pulse_rc(1e-9); // tau = 10 us = period
        let b = ckt.find_node("b").unwrap();
        let sol = shooting_pss(&ckt, period, &PssOptions::default()).unwrap();
        let first = &sol.states[0];
        let last = sol.states.last().unwrap();
        for (u, v) in first.iter().zip(last.iter()) {
            assert!((u - v).abs() < 1e-8);
        }
        // The slow RC reaches a ripple steady state straddling the duty-cycle
        // average (~0.4): forward simulation from DC would need many cycles.
        let w = sol.node_waveform(&ckt, b);
        let mean = w[..w.len() - 1].iter().sum::<f64>() / (w.len() - 1) as f64;
        assert!((mean - 0.4).abs() < 0.02, "ripple mean {mean}");
    }

    /// The pulse-driven RC of `pulse_driven_rc_is_periodic` with load
    /// capacitance `c` (τ = 10 kΩ · c against a 10 µs period).
    fn pulse_rc(c: f64) -> (Circuit, f64) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let period = 10e-6;
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
                period,
            }),
        );
        ckt.add_resistor("R1", a, b, 10e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, c);
        (ckt, period)
    }

    fn dc_seed(ckt: &Circuit, opts: &PssOptions) -> Vec<f64> {
        tranvar_engine::dc::dc_operating_point(
            ckt,
            &DcOptions {
                newton: opts.newton.clone(),
                ..DcOptions::default()
            },
        )
        .unwrap()
    }

    fn cycle(
        ckt: &Circuit,
        ws: &mut CycleWorkspace,
        x0: &[f64],
        period: f64,
        opts: &PssOptions,
        record: bool,
    ) -> CycleResult {
        integrate_cycle(
            ckt,
            ws,
            x0,
            0.0,
            period,
            opts.n_steps,
            &opts.step_control,
            opts.method,
            &opts.newton,
            opts.gmin,
            record,
        )
        .unwrap()
    }

    /// A strongly damped RC (τ = period / 20) nearly forgets the DC seed
    /// within one cycle, so the first recorded cycle already closes: the
    /// solve returns it instead of running out the warm-up cap.
    #[test]
    fn damped_rc_returns_first_recorded_cycle() {
        let (ckt, period) = pulse_rc(5e-11);
        let mut opts = PssOptions::default();
        opts.warmup_cycles = 4;
        let sol = shooting_pss(&ckt, period, &opts).unwrap();
        assert!(sol.residual < opts.tol, "residual {:e}", sol.residual);
        let seed = dc_seed(&ckt, &opts);
        let mut ws = CycleWorkspace::new();
        let first = cycle(&ckt, &mut ws, &seed, period, &opts, false);
        let x1 = first.states.last().unwrap();
        assert_eq!(sol.states[0].len(), x1.len());
        for (u, v) in sol.states[0].iter().zip(x1) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        // The orbit is closed only to within tol, not to the bit: a later
        // cycle would have started from a different state.
        assert!(sol.residual > 0.0);
    }

    /// When no forward cycle closes, the merged loop reproduces the bits of
    /// a separate loop of `w` unrecorded forward cycles followed by Newton
    /// rounds — which also shows recording a cycle leaves its trajectory
    /// unchanged.
    #[test]
    fn unclosed_forward_cycles_keep_separate_loop_bits() {
        let (ckt, period) = pulse_rc(1e-9); // τ = period
        for w in [0usize, 1, 2, 4] {
            let mut opts = PssOptions::default();
            opts.warmup_cycles = w;
            let sol = shooting_pss(&ckt, period, &opts).unwrap();

            let n = ckt.n_unknowns();
            let mut ws = CycleWorkspace::new();
            let mut x0 = dc_seed(&ckt, &opts);
            for _ in 0..w {
                let cyc = cycle(&ckt, &mut ws, &x0, period, &opts, false);
                x0 = cyc.states.last().unwrap().clone();
            }
            let (states, m, residual) = loop {
                let cyc = cycle(&ckt, &mut ws, &x0, period, &opts, true);
                let r = vecops::sub(cyc.states.last().unwrap(), &x0);
                let residual = vecops::norm_inf(&r);
                let m = monodromy_threaded(&cyc.records, n, 1);
                if residual < opts.tol {
                    break (cyc.states, m, residual);
                }
                let mut a = m;
                for i in 0..n {
                    a[(i, i)] -= 1.0;
                }
                let mut delta = a.lu().unwrap().solve(&r);
                vecops::scale(&mut delta, -1.0);
                let dmax = vecops::norm_inf(&delta);
                if dmax > UPDATE_LIMIT {
                    vecops::scale(&mut delta, UPDATE_LIMIT / dmax);
                }
                for (xi, di) in x0.iter_mut().zip(delta.iter()) {
                    *xi += di;
                }
            };

            assert_eq!(sol.residual.to_bits(), residual.to_bits(), "w = {w}");
            assert_eq!(sol.states.len(), states.len());
            for (s, t) in sol.states.iter().zip(&states) {
                for (u, v) in s.iter().zip(t) {
                    assert_eq!(u.to_bits(), v.to_bits(), "w = {w}: state");
                }
            }
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        sol.monodromy[(i, j)].to_bits(),
                        m[(i, j)].to_bits(),
                        "w = {w}: M[{i}][{j}]"
                    );
                }
            }
        }
    }

    /// Adaptive cycle integration inside shooting: same pulse-driven RC as
    /// above, solved on an LTE-controlled grid. The orbit must still close,
    /// the stored grid must be non-uniform with matching per-step records,
    /// and the ripple mean (now time-weighted) must agree with the fixed-grid
    /// reference.
    #[test]
    fn adaptive_shooting_matches_fixed_reference() {
        let (ckt, period) = pulse_rc(1e-9);
        let b = ckt.find_node("b").unwrap();
        let mut opts = PssOptions::default();
        opts.step_control = StepControl::Adaptive(tranvar_engine::AdaptiveOptions {
            reltol: 1e-4,
            abstol: 1e-7,
            ..tranvar_engine::AdaptiveOptions::default()
        });
        // The adaptive grid moves with x0, so the cycle map is only accurate
        // to the LTE tolerance: the shooting tolerance must sit at or above
        // it (see the `step_control` field docs).
        opts.tol = 1e-4;
        let sol = shooting_pss(&ckt, period, &opts).unwrap();
        assert!(sol.residual < opts.tol);
        // Orbit closes to within the shooting tolerance.
        let first = &sol.states[0];
        let last = sol.states.last().unwrap();
        for (u, v) in first.iter().zip(last.iter()) {
            assert!((u - v).abs() < 2.0 * opts.tol);
        }
        assert_eq!(sol.times[0], 0.0);
        assert_eq!(*sol.times.last().unwrap(), period);
        assert_eq!(sol.records.len(), sol.states.len() - 1);
        for (k, rec) in sol.records.iter().enumerate() {
            assert_eq!(rec.t1, sol.times[k + 1]);
            assert_eq!(rec.h, sol.times[k + 1] - sol.times[k]);
        }
        // The pulse edges force a genuinely non-uniform grid.
        assert!(!tranvar_num::interp::is_uniform_grid(&sol.times, 1e-9));
        // Time-weighted ripple mean matches the fixed-grid duty-cycle value.
        let w = sol.node_waveform(&ckt, b);
        let mean = tranvar_num::interp::time_weighted_mean(&sol.times, &w);
        assert!((mean - 0.4).abs() < 0.02, "ripple mean {mean}");
    }

    /// An adaptive ring-oscillator PSS (autonomous path) is exercised in
    /// `autonomous.rs`; here we check the driven dispatch helper directly.
    #[test]
    fn integrate_pss_cycle_dispatches_by_mode() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
        let period = 1e-5;
        let newton = NewtonOptions::default();
        let x0 = vec![0.0; ckt.n_unknowns()];
        let mut ws = CycleWorkspace::new();
        let fixed = PssOptions::default();
        let cyc =
            integrate_pss_cycle(&ckt, &mut ws, &x0, 0.0, period, &fixed, &newton, false).unwrap();
        assert_eq!(cyc.states.len(), fixed.n_steps + 1);
        let mut adap = PssOptions::default();
        adap.step_control = StepControl::Adaptive(tranvar_engine::AdaptiveOptions::default());
        let cyc =
            integrate_pss_cycle(&ckt, &mut ws, &x0, 0.0, period, &adap, &newton, false).unwrap();
        // The LTE controller needs far fewer steps on this mild RC.
        assert!(cyc.states.len() < fixed.n_steps / 2, "{}", cyc.states.len());
        assert_eq!(*cyc.times.last().unwrap(), period);
    }

    #[test]
    fn monodromy_of_rc_decays() {
        // For a linear RC with tau, the monodromy eigenvalue along the cap
        // state is exp(-T/tau).
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let period = 1e-3;
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-6); // tau = 1 ms
        let mut opts = PssOptions::default();
        opts.method = Integrator::Trapezoidal;
        opts.n_steps = 1024;
        let sol = shooting_pss(&ckt, period, &opts).unwrap();
        // The (b,b) monodromy entry is the decay of a cap-voltage kick.
        let ib = ckt.unknown_of_node(b).unwrap();
        let expect = (-1.0f64).exp();
        assert!(
            (sol.monodromy[(ib, ib)] - expect).abs() < 1e-3,
            "M_bb = {} vs {expect}",
            sol.monodromy[(ib, ib)]
        );
    }

    /// The interleaved/threaded accumulation must reproduce the per-column
    /// sequential reference exactly, for every thread count.
    #[test]
    fn threaded_monodromy_matches_sequential_reference() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        ckt.add_vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Sin {
                offset: 0.5,
                ampl: 0.5,
                freq: 1.0e5,
                delay: 0.0,
            },
        );
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
        ckt.add_resistor("R2", b, c, 2e3);
        ckt.add_capacitor("C2", c, NodeId::GROUND, 0.5e-9);
        let mut opts = PssOptions::default();
        opts.n_steps = 64;
        opts.method = Integrator::Trapezoidal;
        let sol = shooting_pss(&ckt, 1.0e-5, &opts).unwrap();
        let n = ckt.n_unknowns();
        let reference = monodromy_seq(&sol.records, n);
        for threads in [1usize, 2, 3, 8] {
            let m = monodromy_threaded(&sol.records, n, threads);
            for i in 0..n {
                for j in 0..n {
                    assert!(
                        m[(i, j)].to_bits() == reference[(i, j)].to_bits(),
                        "threads {threads}: M[{i}][{j}] = {} vs seq {}",
                        m[(i, j)],
                        reference[(i, j)]
                    );
                }
            }
        }
    }

    /// Non-finite driven periods are configuration errors on both grids,
    /// caught before any integration (a NaN period would reach the
    /// adaptive controller's step clamp, which panics on NaN bounds).
    #[test]
    fn rejects_non_finite_periods_on_both_grids() {
        // DC sources only, so every period passes the source-periodicity
        // check and only the period validation itself can reject it.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
        let adaptive = StepControl::Adaptive(tranvar_engine::AdaptiveOptions::default());
        for step_control in [StepControl::Fixed, adaptive] {
            let opts = PssOptions {
                step_control,
                ..PssOptions::default()
            };
            for period in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    shooting_pss(&ckt, period, &opts)
                }));
                match run {
                    Ok(Err(PssError::BadConfig(_))) => {}
                    Ok(other) => panic!("period {period} ({step_control:?}): got {other:?}"),
                    Err(_) => panic!("period {period} ({step_control:?}) panicked"),
                }
            }
        }
    }

    #[test]
    fn rejects_incommensurate_source() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Sin {
                offset: 0.0,
                ampl: 1.0,
                freq: 3.0e5,
                delay: 0.0,
            },
        );
        ckt.add_resistor("R1", a, NodeId::GROUND, 1e3);
        let err = shooting_pss(&ckt, 1.0 / 2.0e5, &PssOptions::default());
        assert!(matches!(err, Err(PssError::NotPeriodic { .. })));
    }
}
