//! Autonomous (oscillator) PSS: shooting with the period as an extra unknown.
//!
//! Oscillators have no external clock — the fundamental frequency is itself
//! an output and shifts under mismatch (paper Section IV-C). The shooting
//! system is bordered with a phase condition that pins one state component at
//! `t = 0`, removing the time-translation null space of `I − M`:
//!
//! ```text
//! [ I − M   −∂Φ/∂T ] [δx₀]   [ Φ(x₀,T) − x₀ ]
//! [ e_φᵀ       0   ] [δT ] = [ x₀[φ] − v_φ  ]
//! ```
//!
//! `∂Φ/∂T` is the exact derivative of the discrete cycle map, propagated
//! through the recorded cycle alongside the monodromy. Every step satisfies
//! `(q₁−q₀)/h + θf₁ + (1−θ)f₀ = 0` and every `h` scales with `T`, so
//! differentiating gives `J·d₁ = B·d₀ + (q₁−q₀)/(h·T)` from `d = 0` at
//! `t = 0`: the step records' `J`/`B` carry the state coupling and
//! `(q₁−q₀)/(h·T)` is the source term. No period-perturbed cycle is
//! integrated. (An adaptive grid is treated as scaling with `T` too; its
//! step choice is only reproducible to the LTE tolerance anyway.)
//!
//! The same bordered operator later gives the *frequency sensitivity* of the
//! oscillator to each mismatch parameter at negligible cost (the LPTV layer
//! reuses the records and `∂Φ/∂T` stored here).

use crate::error::PssError;
use crate::shooting::{
    finish, first_source_where, integrate_pss_cycle, last_state, monodromy_threaded, PssOptions,
    PssSolution, MAX_ITER, UPDATE_LIMIT,
};
use tranvar_circuit::{Assembly, Circuit, NodeId, Waveform};
use tranvar_engine::dc::DcOptions;
use tranvar_engine::tran::CycleResult;
use tranvar_engine::{integrate_cycle, NewtonOptions, Session, StepControl};
use tranvar_num::dense::vecops;
use tranvar_num::interp::{crossings, Edge};
use tranvar_num::DMat;

/// Oscillator PSS controls on top of [`PssOptions`].
#[derive(Clone, Debug, PartialEq)]
pub struct OscOptions {
    /// Shared shooting controls.
    pub pss: PssOptions,
    /// Cap on the warm-up length, in units of the period hint. The warm-up
    /// integrates chained hint-length cycles from the kicked DC point and
    /// stops at the first one after which it has seen the two rising
    /// phase-level crossings the period estimate needs, so a fast-starting
    /// oscillator integrates fewer than `⌈settle_periods⌉` hint-periods.
    /// Too short a cap to see two crossings is
    /// [`PssError::NoOscillation`].
    pub settle_periods: f64,
}

impl Default for OscOptions {
    fn default() -> Self {
        let mut pss = PssOptions::default();
        // Trapezoidal preserves oscillation amplitude/period.
        pss.method = tranvar_engine::Integrator::Trapezoidal;
        pss.tol = 1e-8;
        OscOptions {
            pss,
            settle_periods: 12.0,
        }
    }
}

/// Initial-condition kick (V) applied to the phase node to break the
/// symmetric latch-up equilibrium.
const KICK: f64 = 0.1;

/// Relative clamp on the period update of one bordered-Newton round.
const PERIOD_UPDATE_LIMIT: f64 = 0.1;

/// Rising crossings of the phase level the warm-up needs: the interval
/// between the last two seeds the period.
const WARMUP_CROSSINGS: usize = 2;

/// The warm-up grid is this many times coarser than the shooting grid.
const WARMUP_COARSENING: usize = 4;

/// Result of the warm-up: a period estimate and a state near the orbit at a
/// rising crossing of the phase level.
struct Warmup {
    period_est: f64,
    x_start: Vec<f64>,
}

/// Integrates unrecorded hint-length cycles from the kicked DC point, on the
/// session's cycle workspace, on a uniform grid [`WARMUP_COARSENING`] times
/// coarser than the shooting grid, until it has seen two rising crossings
/// of the phase level (at most `⌈settle_periods⌉` cycles). Returns the last
/// crossing interval as the period estimate and the state linearly
/// interpolated at the last crossing, whose phase node sits at
/// `phase_value`.
fn warm_up(
    session: &mut Session,
    ckt: &Circuit,
    period_hint: f64,
    phase_node: NodeId,
    phase_value: f64,
    opts: &OscOptions,
    newton: &NewtonOptions,
) -> Result<Warmup, PssError> {
    let mut x = session.dc_operating_point(
        ckt,
        &DcOptions {
            newton: newton.clone(),
            ..DcOptions::default()
        },
    )?;
    if let Some(i) = ckt.unknown_of_node(phase_node) {
        x[i] += KICK;
    }
    let ws = session.cycle_workspace();
    let max_chunks = opts.settle_periods.ceil() as usize;
    let n_steps = (opts.pss.n_steps / WARMUP_COARSENING).max(1);
    // Absolute times of every rising crossing so far.
    let mut rises = Vec::new();
    for chunk in 0..max_chunks {
        let cyc = integrate_cycle(
            ckt,
            ws,
            &x,
            0.0,
            period_hint,
            n_steps,
            &StepControl::Fixed,
            opts.pss.method,
            newton,
            opts.pss.gmin,
            false,
        )?;
        // A chunk's first sample is the previous chunk's last, so scanning
        // each chunk's samples counts every crossing exactly once.
        let w: Vec<f64> = cyc
            .states
            .iter()
            .map(|s| ckt.voltage(s, phase_node))
            .collect();
        let new = crossings(&cyc.times, &w, phase_value, Edge::Rising);
        let t0 = chunk as f64 * period_hint;
        rises.extend(new.iter().map(|t| t0 + t));
        // Only this chunk's crossings can have completed the count.
        if let Some(&t_cross) = new.last().filter(|_| rises.len() >= WARMUP_CROSSINGS) {
            let last = rises.len() - 1;
            return Ok(Warmup {
                period_est: rises[last] - rises[last - 1],
                x_start: state_at(&cyc, t_cross),
            });
        }
        x = last_state(&cyc)?.clone();
    }
    Err(PssError::NoOscillation {
        detail: format!(
            "warm-up saw {} rising crossings of the phase level in {max_chunks} hint-periods, \
             needs {WARMUP_CROSSINGS}",
            rises.len(),
        ),
    })
}

/// The state of `cyc` linearly interpolated at time `t` within its span.
fn state_at(cyc: &CycleResult, t: f64) -> Vec<f64> {
    let k = cyc
        .times
        .partition_point(|&s| s < t)
        .clamp(1, cyc.times.len() - 1);
    let (t0, t1) = (cyc.times[k - 1], cyc.times[k]);
    let a = (t - t0) / (t1 - t0);
    let (x0, x1) = (&cyc.states[k - 1], &cyc.states[k]);
    x0.iter().zip(x1).map(|(u, v)| u + a * (v - u)).collect()
}

/// `∂Φ/∂T` of the recorded cycle: `d ← J⁻¹(B·d + (q₁−q₀)/(h·T))` per step
/// from `d = 0` (see the module docs). `asm` is a reusable assembly buffer
/// the charges `q` of every sampled state are read from.
fn period_derivative(
    ckt: &Circuit,
    cyc: &CycleResult,
    period: f64,
    asm: &mut Assembly,
) -> Vec<f64> {
    let n = ckt.n_unknowns();
    let mut d = vec![0.0; n];
    let mut rhs = vec![0.0; n];
    let mut scratch = vec![0.0; n];
    ckt.assemble_into(&cyc.states[0], cyc.times[0], asm);
    let mut q0 = asm.q.clone();
    for (rec, x1) in cyc.records.iter().zip(&cyc.states[1..]) {
        ckt.assemble_into(x1, rec.t1, asm);
        rec.b.mat_vec_into(&d, &mut rhs);
        let scale = 1.0 / (rec.h * period);
        for ((r, q1), q0) in rhs.iter_mut().zip(&asm.q).zip(&q0) {
            *r += (q1 - q0) * scale;
        }
        rec.lu.solve_into(&rhs, &mut d, &mut scratch);
        q0.copy_from_slice(&asm.q);
    }
    d
}

/// Solves the autonomous PSS problem of an oscillator.
///
/// `period_hint` sets the length of the warm-up cycles (an
/// order-of-magnitude guess is enough); `phase_node`/`phase_value` define
/// the phase condition — the node is pinned to `phase_value` at a rising
/// crossing, which fixes the time origin of the orbit. The warm-up runs on
/// a grid 4× coarser than the shooting grid and only seeds bordered Newton
/// (at its last rising crossing, with the last crossing interval as the
/// period), so the solved orbit depends on neither the warm-up grid nor
/// the hint beyond the shooting tolerance. Every source must be DC: the
/// bordered cycle map treats the circuit as time-invariant.
///
/// # Errors
///
/// - [`PssError::TimeVaryingSource`] if a source is not DC,
/// - [`PssError::NoOscillation`] if the warm-up never oscillates,
/// - [`PssError::NoConvergence`] if bordered shooting stalls,
/// - engine/numerical errors from the inner solves.
///
/// A one-line convenience over a fresh [`Session`] on
/// `opts.pss.newton.solver`; see [`autonomous_pss_in`].
pub fn autonomous_pss(
    ckt: &Circuit,
    period_hint: f64,
    phase_node: NodeId,
    phase_value: f64,
    opts: &OscOptions,
) -> Result<PssSolution, PssError> {
    autonomous_pss_in(
        &mut Session::with_solver(opts.pss.newton.solver),
        ckt,
        period_hint,
        phase_node,
        phase_value,
        opts,
    )
}

/// [`autonomous_pss`] borrowing an analysis [`Session`]: the DC seed, the
/// unrecorded warm-up cycles (coarse grid, loose step Newton test; see
/// [`integrate_cycle`]) and every bordered-Newton cycle run through the
/// session's workspaces (see [`crate::shooting::shooting_pss_in`] for the
/// reuse and determinism contract).
///
/// # Errors
///
/// See [`autonomous_pss`].
pub fn autonomous_pss_in(
    session: &mut Session,
    ckt: &Circuit,
    period_hint: f64,
    phase_node: NodeId,
    phase_value: f64,
    opts: &OscOptions,
) -> Result<PssSolution, PssError> {
    if !(period_hint.is_finite() && period_hint > 0.0) {
        return Err(PssError::BadConfig(
            "period hint must be positive and finite".into(),
        ));
    }
    if let Some(device) = first_source_where(ckt, |w| !matches!(w, Waveform::Dc(_))) {
        return Err(PssError::TimeVaryingSource { device });
    }
    let n = ckt.n_unknowns();
    let pi = ckt
        .unknown_of_node(phase_node)
        .ok_or_else(|| PssError::BadConfig("phase node cannot be ground".into()))?;
    let newton = NewtonOptions {
        solver: session.solver(),
        ..opts.pss.newton.clone()
    };
    let threads = session.threads();

    let warm = warm_up(
        session,
        ckt,
        period_hint,
        phase_node,
        phase_value,
        opts,
        &newton,
    )?;
    let mut x0 = warm.x_start;
    let mut period = warm.period_est;
    // Pin the phase to the crossing itself: the interpolated start already
    // sits on it, so the initial phase residual is rounding-level and the
    // pinned orbit does not depend on where the warm-up grid sampled.
    let v_pin = phase_value;

    // The session's cycle workspace serves the one cycle integration of
    // every bordered-Newton round and carries over to later solves.
    let ws = session.cycle_workspace();
    let mut asm = ckt.assemble(&x0, 0.0);
    let mut last_residual = f64::INFINITY;
    for _iter in 0..MAX_ITER {
        // One bordered-Newton round per iteration, charged to the shared
        // budget alongside its inner cycle integration.
        newton.budget.begin_iteration("autonomous shooting")?;
        let cyc = integrate_pss_cycle(ckt, ws, &x0, 0.0, period, &opts.pss, &newton, true)?;
        let r = vecops::sub(last_state(&cyc)?, &x0);
        let phase_res = x0[pi] - v_pin;
        last_residual = vecops::norm_inf(&r).max(phase_res.abs());
        let m = monodromy_threaded(&cyc.records, n, threads);
        let dphi_dt = period_derivative(ckt, &cyc, period, &mut asm);
        if last_residual < opts.pss.tol {
            return Ok(finish(
                cyc,
                period,
                m,
                opts.pss.method,
                Some(dphi_dt),
                Some(pi),
                last_residual,
            ));
        }

        // Bordered Newton system.
        let mut a = DMat::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = -m[(i, j)];
            }
            a[(i, i)] += 1.0;
            a[(i, n)] = -dphi_dt[i];
        }
        a[(n, pi)] = 1.0;
        let mut rhs = vec![0.0; n + 1];
        rhs[..n].copy_from_slice(&r);
        rhs[n] = -phase_res;
        let sol = a.lu()?.solve(&rhs);
        // Newton solves A·[δx; δT] = rhs with the sign convention
        // x ← x + δx where A ≈ −∂(residual)/∂x, hence the layout above.
        let mut dx = sol[..n].to_vec();
        let mut dt = sol[n];
        // Limiting.
        let dmax = vecops::norm_inf(&dx);
        if dmax > UPDATE_LIMIT {
            let k = UPDATE_LIMIT / dmax;
            vecops::scale(&mut dx, k);
            dt *= k;
        }
        let dt_cap = PERIOD_UPDATE_LIMIT * period;
        if dt.abs() > dt_cap {
            let k = dt_cap / dt.abs();
            dt *= k;
            vecops::scale(&mut dx, k);
        }
        for (xi, di) in x0.iter_mut().zip(dx.iter()) {
            *xi += di;
        }
        period += dt;
        if period <= 0.0 {
            return Err(PssError::NoConvergence {
                analysis: "autonomous shooting".into(),
                detail: "period iterate became non-positive".into(),
            });
        }
    }
    Err(PssError::NoConvergence {
        analysis: "autonomous shooting".into(),
        detail: format!("residual {last_residual:.3e} after {MAX_ITER} iterations"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranvar_circuit::{MosModel, MosType, Pulse};
    use tranvar_engine::dc::dc_operating_point;
    use tranvar_engine::measure::average_period;
    use tranvar_engine::tran::{transient, CycleWorkspace, TranOptions};

    /// Builds an N-stage MOSFET inverter ring oscillator with explicit load
    /// capacitors (mirrors the paper's Section IV-C example at small scale).
    fn ring(n_stages: usize, cload: f64) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.add_vsource("VDD", vdd, NodeId::GROUND, Waveform::Dc(1.2));
        let nodes: Vec<NodeId> = (0..n_stages).map(|i| ckt.node(&format!("s{i}"))).collect();
        for i in 0..n_stages {
            let inp = nodes[i];
            let out = nodes[(i + 1) % n_stages];
            ckt.add_mosfet(
                &format!("MP{i}"),
                out,
                inp,
                vdd,
                MosType::Pmos,
                MosModel::pmos_013(),
                2e-6,
                0.13e-6,
            );
            ckt.add_mosfet(
                &format!("MN{i}"),
                out,
                inp,
                NodeId::GROUND,
                MosType::Nmos,
                MosModel::nmos_013(),
                1e-6,
                0.13e-6,
            );
            ckt.add_capacitor(&format!("CL{i}"), out, NodeId::GROUND, cload);
        }
        (ckt, nodes[0])
    }

    #[test]
    fn three_stage_ring_locks() {
        let (ckt, s0) = ring(3, 10e-15);
        let mut opts = OscOptions::default();
        opts.pss.n_steps = 128;
        let sol = autonomous_pss(&ckt, 200e-12, s0, 0.6, &opts).unwrap();
        assert!(sol.residual < opts.pss.tol);
        // Frequency in a plausible GHz range for these sizes.
        let f0 = sol.fundamental();
        assert!(f0 > 5e8 && f0 < 2e10, "f0 = {f0:.3e}");
        // Orbit is closed.
        let first = &sol.states[0];
        let last = sol.states.last().unwrap();
        for (u, v) in first.iter().zip(last.iter()) {
            assert!((u - v).abs() < 1e-7);
        }
        // Waveform swings across the supply.
        let w = sol.node_waveform(&ckt, s0);
        let (lo, hi) = w
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
                (l.min(v), h.max(v))
            });
        assert!(lo < 0.2 && hi > 1.0, "swing {lo}..{hi}");
    }

    #[test]
    fn solved_period_matches_transient_measurement() {
        let (ckt, s0) = ring(3, 10e-15);
        let mut opts = OscOptions::default();
        opts.pss.n_steps = 128;
        let sol = autonomous_pss(&ckt, 200e-12, s0, 0.6, &opts).unwrap();
        // Long transient measurement of the same period.
        let mut x0 = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        x0[ckt.unknown_of_node(s0).unwrap()] += 0.1;
        let mut topts = TranOptions::new(30.0 * sol.period, sol.period / 128.0);
        topts.method = tranvar_engine::Integrator::Trapezoidal;
        topts.x0 = Some(x0);
        let res = transient(&ckt, &topts).unwrap();
        let t_meas = average_period(&ckt, &res, s0, 0.6, 5).unwrap();
        assert!(
            (t_meas - sol.period).abs() < 5e-3 * sol.period,
            "transient {t_meas:.4e} vs pss {:.4e}",
            sol.period
        );
    }

    /// The propagated `∂Φ/∂T` is the derivative of the discrete cycle map:
    /// it matches a central difference of the period-perturbed cycle from
    /// the converged `x₀`, which pins both its sign and its `1/(h·T)` scale.
    #[test]
    fn dphi_dt_matches_period_perturbed_cycles() {
        let (ckt, s0) = ring(3, 10e-15);
        let mut opts = OscOptions::default();
        opts.pss.n_steps = 128;
        let sol = autonomous_pss(&ckt, 200e-12, s0, 0.6, &opts).unwrap();
        let dphi = sol.dphi_dt.as_ref().unwrap();
        let eps = 1e-4;
        let mut ws = CycleWorkspace::new();
        // Recorded cycles, so every step stops on the same `vtol` test as
        // the cycle `∂Φ/∂T` was propagated through.
        let mut end = |period: f64| {
            let cyc = integrate_pss_cycle(
                &ckt,
                &mut ws,
                &sol.states[0],
                0.0,
                period,
                &opts.pss,
                &opts.pss.newton,
                true,
            )
            .unwrap();
            cyc.states.last().unwrap().clone()
        };
        let hi = end(sol.period * (1.0 + eps));
        let lo = end(sol.period * (1.0 - eps));
        let scale = vecops::norm_inf(dphi);
        assert!(scale > 0.0);
        for (i, ((h, l), d)) in hi.iter().zip(&lo).zip(dphi).enumerate() {
            let fd = (h - l) / (2.0 * eps * sol.period);
            assert!(
                (fd - d).abs() <= 1e-5 * scale,
                "unknown {i}: propagated {d:.6e} vs central difference {fd:.6e}"
            );
        }
    }

    /// `settle_periods` only caps the warm-up: a looser cap stops at the same
    /// crossing and returns the same bits, and a cap too short to see two
    /// rising crossings is a typed error (here one hint-period sees one).
    #[test]
    fn settle_cap_does_not_change_the_answer() {
        let (ckt, s0) = ring(3, 10e-15);
        let solve = |settle: f64| {
            let mut opts = OscOptions::default();
            opts.pss.n_steps = 128;
            opts.settle_periods = settle;
            autonomous_pss(&ckt, 200e-12, s0, 0.6, &opts)
        };
        let a = solve(12.0).unwrap();
        let b = solve(40.0).unwrap();
        assert_eq!(a.period.to_bits(), b.period.to_bits());
        assert_eq!(a.states.len(), b.states.len());
        for (u, v) in a.states.iter().flatten().zip(b.states.iter().flatten()) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        let (da, db) = (a.dphi_dt.unwrap(), b.dphi_dt.unwrap());
        for (u, v) in da.iter().zip(&db) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        assert!(matches!(solve(1.0), Err(PssError::NoOscillation { .. })));
    }

    /// The phase is pinned at the interpolated crossing, not at a warm-up
    /// sample, so the hint only changes where bordered Newton starts: every
    /// hint converges to the same orbit within the shooting tolerance.
    #[test]
    fn solved_orbit_does_not_depend_on_the_period_hint() {
        let (ckt, s0) = ring(3, 10e-15);
        let mut opts = OscOptions::default();
        opts.pss.n_steps = 128;
        let period = |scale: f64| {
            autonomous_pss(&ckt, scale * 200e-12, s0, 0.6, &opts)
                .unwrap()
                .period
        };
        let reference = period(1.0);
        for scale in [0.8, 1.25, 2.0] {
            let p = period(scale);
            assert!(
                (p - reference).abs() <= 1e-8 * reference,
                "hint x{scale}: period {p:.12e} vs {reference:.12e}"
            );
        }
    }

    /// An even ring latches instead of oscillating: the warm-up never sees
    /// two rising crossings within the default cap.
    #[test]
    fn non_oscillating_ring_is_no_oscillation() {
        let (ckt, s0) = ring(4, 10e-15);
        let err = autonomous_pss(&ckt, 200e-12, s0, 0.6, &OscOptions::default()).unwrap_err();
        assert!(matches!(err, PssError::NoOscillation { .. }), "{err:?}");
    }

    /// A pulse whose period equals the hint used to pass the driven
    /// periodicity check; an oscillator with any non-DC source is rejected
    /// by name before any integration.
    #[test]
    fn time_varying_source_is_rejected() {
        let (mut ckt, s0) = ring(3, 10e-15);
        let hint = 200e-12;
        let s1 = ckt.find_node("s1").unwrap();
        ckt.add_isource(
            "IKICK",
            NodeId::GROUND,
            s1,
            Waveform::Pulse(Pulse {
                v0: 0.0,
                v1: 1e-6,
                delay: 0.0,
                rise: 1e-12,
                fall: 1e-12,
                width: 10e-12,
                period: hint,
            }),
        );
        let err = autonomous_pss(&ckt, hint, s0, 0.6, &OscOptions::default()).unwrap_err();
        assert_eq!(
            err,
            PssError::TimeVaryingSource {
                device: "IKICK".into()
            }
        );
        assert_eq!(err.wire_fault().code, "pss.time-varying-source");
    }

    #[test]
    fn phase_node_cannot_be_ground() {
        let (ckt, _) = ring(3, 10e-15);
        let err = autonomous_pss(&ckt, 1e-10, NodeId::GROUND, 0.0, &OscOptions::default());
        assert!(matches!(err, Err(PssError::BadConfig(_))));
    }
}
