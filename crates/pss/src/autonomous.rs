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
//! The same bordered operator later gives the *frequency sensitivity* of the
//! oscillator to each mismatch parameter at negligible cost (the LPTV layer
//! reuses the records and `∂Φ/∂T` stored here).

use crate::error::PssError;
use crate::shooting::last_state;
use crate::shooting::{
    check_periodicity, finish, integrate_pss_cycle, monodromy_threaded, PssOptions, PssSolution,
};
use tranvar_circuit::{Circuit, NodeId};
use tranvar_engine::dc::DcOptions;
use tranvar_engine::measure::average_period;
use tranvar_engine::tran::TranOptions;
use tranvar_engine::{NewtonOptions, Session, SessionOptions};
use tranvar_num::dense::vecops;
use tranvar_num::interp::{crossings, Edge};
use tranvar_num::DMat;

/// Oscillator PSS controls on top of [`PssOptions`].
#[derive(Clone, Debug, PartialEq)]
pub struct OscOptions {
    /// Shared shooting controls.
    pub pss: PssOptions,
    /// Warm-up length in units of the period hint.
    pub settle_periods: f64,
    /// Initial-condition kick (V) applied to the phase node to break the
    /// symmetric latch-up equilibrium.
    pub kick: f64,
    /// Relative clamp on period updates per Newton iteration.
    pub period_update_limit: f64,
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
            kick: 0.1,
            period_update_limit: 0.1,
        }
    }
}

/// Result of the warm-up transient: a refined period estimate and a state on
/// the orbit at a rising crossing of the phase level.
struct Warmup {
    period_est: f64,
    x_start: Vec<f64>,
    phase_value: f64,
}

fn warm_up(
    session: &mut Session,
    ckt: &Circuit,
    period_hint: f64,
    phase_node: NodeId,
    phase_value: f64,
    opts: &OscOptions,
) -> Result<Warmup, PssError> {
    let newton = NewtonOptions {
        solver: session.solver(),
        ..opts.pss.newton.clone()
    };
    let mut x0 = session.dc_operating_point(
        ckt,
        &DcOptions {
            newton: newton.clone(),
            ..DcOptions::default()
        },
    )?;
    if let Some(i) = ckt.unknown_of_node(phase_node) {
        x0[i] += opts.kick;
    }
    let t_stop = opts.settle_periods * period_hint;
    let dt = period_hint / opts.pss.n_steps as f64;
    let mut tran_opts = TranOptions::new(t_stop, dt);
    tran_opts.step_control = opts.pss.step_control;
    tran_opts.method = opts.pss.method;
    tran_opts.newton = newton;
    tran_opts.gmin = opts.pss.gmin;
    tran_opts.x0 = Some(x0);
    let res = session.transient(ckt, &tran_opts)?;
    let period_est = average_period(ckt, &res, phase_node, phase_value, 3).map_err(|e| {
        PssError::NoOscillation {
            detail: format!("warm-up transient shows no periodicity: {e}"),
        }
    })?;
    // State at the last rising crossing of the phase level.
    let w = res.node_waveform(ckt, phase_node);
    let rises = crossings(&res.times, &w, phase_value, Edge::Rising);
    let t_cross = *rises.last().ok_or_else(|| PssError::NoOscillation {
        detail: "warm-up transient has no rising crossing of the phase level".into(),
    })?;
    let idx = tranvar_num::interp::nearest_index(&res.times, t_cross);
    Ok(Warmup {
        period_est,
        x_start: res.states[idx].clone(),
        phase_value: w[idx],
    })
}

/// Solves the autonomous PSS problem of an oscillator.
///
/// `period_hint` seeds the warm-up transient (an order-of-magnitude guess is
/// enough); `phase_node`/`phase_value` define the phase condition — the node
/// is pinned to the value it has at the chosen crossing, which fixes the time
/// origin of the orbit.
///
/// # Errors
///
/// - [`PssError::NoOscillation`] if the warm-up never oscillates,
/// - [`PssError::NoConvergence`] if bordered shooting stalls,
/// - engine/numerical errors from the inner solves.
pub fn autonomous_pss(
    ckt: &Circuit,
    period_hint: f64,
    phase_node: NodeId,
    phase_value: f64,
    opts: &OscOptions,
) -> Result<PssSolution, PssError> {
    autonomous_pss_in(
        &mut Session::new(SessionOptions {
            solver: opts.pss.newton.solver,
            threads: opts.pss.threads,
        }),
        ckt,
        period_hint,
        phase_node,
        phase_value,
        opts,
    )
}

/// [`autonomous_pss`] borrowing an analysis [`Session`]: the DC seed, the
/// warm-up transient and every bordered-Newton cycle run through the
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
    check_periodicity(ckt, period_hint)?; // only DC sources are allowed anyway
    let n = ckt.n_unknowns();
    let pi = ckt
        .unknown_of_node(phase_node)
        .ok_or_else(|| PssError::BadConfig("phase node cannot be ground".into()))?;
    let newton = NewtonOptions {
        solver: session.solver(),
        ..opts.pss.newton.clone()
    };
    let threads = session.effective_threads(opts.pss.threads);

    let warm = warm_up(session, ckt, period_hint, phase_node, phase_value, opts)?;
    let mut x0 = warm.x_start;
    let mut period = warm.period_est;
    // Pin the phase to the state actually sampled (closest grid point to the
    // crossing) — this keeps the initial phase residual tiny.
    let v_pin = warm.phase_value;

    // The session's cycle workspace serves every cycle of the bordered
    // Newton loop (two integrations per round: nominal and
    // period-perturbed) and carries over to later solves.
    let ws = session.cycle_workspace();
    let mut last_residual = f64::INFINITY;
    for _iter in 0..opts.pss.max_iter {
        // One bordered-Newton round per iteration, charged to the shared
        // budget alongside its two inner cycle integrations.
        newton.budget.begin_iteration("autonomous shooting")?;
        let cyc = integrate_pss_cycle(ckt, ws, &x0, 0.0, period, &opts.pss, &newton, true)?;
        let x_end = last_state(&cyc)?.clone();
        let r = vecops::sub(&x_end, &x0);
        let phase_res = x0[pi] - v_pin;
        last_residual = vecops::norm_inf(&r).max(phase_res.abs());
        let m = monodromy_threaded(&cyc.records, n, threads);

        // ∂Φ/∂T by forward difference on the period.
        let dt_rel = 1e-6;
        let cyc2 = integrate_pss_cycle(
            ckt,
            ws,
            &x0,
            0.0,
            period * (1.0 + dt_rel),
            &opts.pss,
            &newton,
            false,
        )?;
        let x_end2 = last_state(&cyc2)?;
        let dphi_dt: Vec<f64> = x_end2
            .iter()
            .zip(x_end.iter())
            .map(|(a, b)| (a - b) / (period * dt_rel))
            .collect();

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
        let mut a = DMat::<f64>::zeros(n + 1, n + 1);
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
        if dmax > opts.pss.update_limit {
            let k = opts.pss.update_limit / dmax;
            vecops::scale(&mut dx, k);
            dt *= k;
        }
        let dt_cap = opts.period_update_limit * period;
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
        detail: format!(
            "residual {last_residual:.3e} after {} iterations",
            opts.pss.max_iter
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranvar_circuit::{MosModel, MosType, Waveform};
    use tranvar_engine::dc::dc_operating_point;
    use tranvar_engine::tran::transient;

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

    #[test]
    fn phase_node_cannot_be_ground() {
        let (ckt, _) = ring(3, 10e-15);
        let err = autonomous_pss(&ckt, 1e-10, NodeId::GROUND, 0.0, &OscOptions::default());
        assert!(matches!(err, Err(PssError::BadConfig(_))));
    }
}
