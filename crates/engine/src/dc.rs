//! DC operating-point analysis: damped Newton–Raphson with gmin stepping and
//! a source-stepping homotopy fallback.
//!
//! This is the `.OP` every other analysis starts from — the transient needs
//! an initial state, the DC-match baseline linearizes here, and the PSS
//! shooting iteration seeds from a settled transient that itself starts here.

use crate::budget::SolveBudget;
use crate::error::EngineError;
use crate::fault;
use crate::solver::{JacobianWorkspace, SolverKind};
use tranvar_circuit::Circuit;
use tranvar_num::dense::vecops;

/// Newton iteration controls shared by DC and transient solves.
#[derive(Clone, Debug, PartialEq)]
pub struct NewtonOptions {
    /// Maximum Newton iterations per solve.
    pub max_iter: usize,
    /// Convergence tolerance on the update ∞-norm (V). DC solves and
    /// transient steps stop once the last applied update is below it. The
    /// steps of a recorded cycle ([`crate::tran::integrate_cycle`]) also
    /// stop once the contraction rate of successive updates bounds the
    /// remaining distance to the Newton limit below it; the steps of an
    /// unrecorded (warm-up) cycle stop on a looser per-unknown abs+rel test
    /// instead (see [`crate::tran`]).
    pub vtol: f64,
    /// Convergence tolerance on the residual ∞-norm (A).
    pub itol: f64,
    /// Per-iteration clamp on the update ∞-norm (V); the whole update vector
    /// is scaled down to preserve the Newton direction.
    pub step_limit: f64,
    /// Linear-solver backend.
    pub solver: SolverKind,
    /// Cooperative work bound, checked once per Newton iteration. The
    /// default is unlimited; see [`crate::budget`].
    pub budget: SolveBudget,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iter: 100,
            vtol: 1e-9,
            itol: 1e-10,
            step_limit: 0.4,
            solver: SolverKind::Dense,
            budget: SolveBudget::default(),
        }
    }
}

/// DC analysis controls.
#[derive(Clone, Debug, PartialEq)]
pub struct DcOptions {
    /// Newton controls.
    pub newton: NewtonOptions,
    /// gmin-stepping schedule (S); the final entry is the residual gmin kept
    /// in place for the converged solve.
    pub gmin_schedule: Vec<f64>,
    /// Number of source-stepping points used if gmin stepping fails.
    pub source_steps: usize,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            newton: NewtonOptions::default(),
            gmin_schedule: vec![1e-3, 1e-5, 1e-7, 1e-9, 1e-12],
            source_steps: 20,
        }
    }
}

/// One static Newton solve at time `t` with a fixed `gmin`, factoring
/// through `jws` so repeated static solves (gmin stepping, source stepping,
/// one-session scenario sweeps) reuse the staged pattern and — for the
/// sparse backend — the symbolic pivot analysis.
///
/// Fails with [`EngineError::NoConvergence`] if the iteration stalls, or a
/// numerical error for a singular Jacobian.
fn solve_static(
    ckt: &Circuit,
    t: f64,
    gmin: f64,
    x0: &[f64],
    opts: &NewtonOptions,
    jws: &mut JacobianWorkspace,
) -> Result<Vec<f64>, EngineError> {
    let n = ckt.n_unknowns();
    let n_node = ckt.n_nodes() - 1;
    let mut x = x0.to_vec();
    let mut asm = ckt.assemble(&x, t);
    let mut r = vec![0.0; n];
    let mut delta = vec![0.0; n];
    let mut scratch = vec![0.0; n];
    for _iter in 0..opts.max_iter {
        opts.budget.begin_iteration("dc newton")?;
        opts.budget.count_factorization();
        let lu = jws.factor(&asm, 1.0, 0.0, gmin, n_node)?;
        // Residual includes the gmin bleed so the Jacobian is consistent.
        r.copy_from_slice(&asm.f);
        for (i, ri) in r.iter_mut().enumerate().take(n_node) {
            *ri += gmin * x[i];
        }
        lu.solve_into(&r, &mut delta, &mut scratch);
        vecops::scale(&mut delta, -1.0);
        // Voltage limiting: scale the whole step.
        let dmax = vecops::norm_inf(&delta[..n_node.max(1).min(n)]);
        if dmax > opts.step_limit {
            let k = opts.step_limit / dmax;
            vecops::scale(&mut delta, k);
        }
        for (xi, di) in x.iter_mut().zip(delta.iter()) {
            *xi += di;
        }
        ckt.assemble_into(&x, t, &mut asm);
        // Converge on the *augmented* residual f + gmin·v — the system the
        // Jacobian corresponds to.
        let mut rnorm = 0.0f64;
        for (i, fi) in asm.f.iter().enumerate() {
            let aug = fi + if i < n_node { gmin * x[i] } else { 0.0 };
            rnorm = rnorm.max(aug.abs());
        }
        let mut dnorm = vecops::norm_inf(&delta);
        if fault::poison_nan(fault::sites::DC_RESIDUAL) {
            dnorm = f64::NAN;
        }
        // Fail fast on garbage: iterating further on a NaN/Inf residual or
        // update can never converge, it only burns the iteration budget.
        if !dnorm.is_finite() || !rnorm.is_finite() {
            return Err(EngineError::NonFinite {
                analysis: "dc newton".into(),
                detail: format!(
                    "residual |f|={rnorm:.3e}, update |dx|={dnorm:.3e} (gmin={gmin:.1e})"
                ),
            });
        }
        if dnorm < opts.vtol && rnorm < opts.itol {
            return Ok(x);
        }
    }
    Err(EngineError::NoConvergence {
        analysis: "newton".into(),
        detail: format!(
            "no convergence in {} iterations (gmin={gmin:.1e}, |f|={:.3e})",
            opts.max_iter,
            vecops::norm_inf(&asm.f)
        ),
    })
}

/// Computes the DC operating point (sources evaluated at `t = 0`).
///
/// Tries plain Newton first, then walks the gmin schedule, then falls back to
/// source stepping. A one-line convenience over a fresh
/// [`Session`](crate::session::Session) on `opts.newton.solver`; see
/// [`Session::dc_operating_point`](crate::session::Session::dc_operating_point).
///
/// # Errors
///
/// Returns [`EngineError::NoConvergence`] if all homotopies fail.
///
/// # Examples
///
/// ```
/// use tranvar_circuit::{Circuit, NodeId, Waveform};
/// use tranvar_engine::dc::{dc_operating_point, DcOptions};
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let b = ckt.node("b");
/// ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
/// ckt.add_resistor("R1", a, b, 1e3);
/// ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
/// let x = dc_operating_point(&ckt, &DcOptions::default())?;
/// assert!((ckt.voltage(&x, b) - 1.0).abs() < 1e-6);
/// # Ok::<(), tranvar_engine::EngineError>(())
/// ```
pub fn dc_operating_point(ckt: &Circuit, opts: &DcOptions) -> Result<Vec<f64>, EngineError> {
    crate::session::Session::with_solver(opts.newton.solver).dc_operating_point(ckt, opts)
}

/// The DC homotopy behind every operating point: direct Newton, the gmin
/// walk, then source stepping, all factoring through one workspace `jws`
/// (the static MNA pattern `G + gmin·I` is staged once and every later
/// solve refactors in place). The backend is the workspace's;
/// `opts.newton.solver` is not read. Each stage solve (direct, each
/// gmin-schedule entry, each source step) is one ordinal of the
/// [`fault::sites::DC_STAGE`] fault site, in the order they run.
pub(crate) fn homotopy(
    ckt: &Circuit,
    opts: &DcOptions,
    jws: &mut JacobianWorkspace,
) -> Result<Vec<f64>, EngineError> {
    // Every homotopy stage funnels through here: the fault harness can fail
    // any stage by its attempt ordinal.
    let mut attempt_no = 0usize;
    let mut solve = |ckt: &Circuit, gmin: f64, x0: &[f64]| {
        let idx = attempt_no;
        attempt_no += 1;
        match fault::attempt_fault(fault::sites::DC_STAGE, idx) {
            Some(e) => Err(e),
            None => solve_static(ckt, 0.0, gmin, x0, &opts.newton, jws),
        }
    };
    let n = ckt.n_unknowns();
    let x0 = vec![0.0; n];
    let final_gmin = *opts.gmin_schedule.last().unwrap_or(&1e-12);

    // 1. Direct attempt at the target gmin.
    match solve(ckt, final_gmin, &x0) {
        Ok(x) => return Ok(x),
        // A tripped budget is a global bound: further homotopy stages would
        // only re-trip it, so it propagates instead of escalating.
        Err(e @ EngineError::BudgetExceeded { .. }) => return Err(e),
        Err(_) => {}
    }
    // 2. gmin stepping.
    let mut x = x0.clone();
    let mut ok = true;
    for &g in &opts.gmin_schedule {
        match solve(ckt, g, &x) {
            Ok(xs) => x = xs,
            Err(e @ EngineError::BudgetExceeded { .. }) => return Err(e),
            Err(_) => {
                ok = false;
                break;
            }
        }
    }
    if ok {
        return Ok(x);
    }
    // 3. Source stepping at the target gmin.
    let mut x = x0;
    for k in 1..=opts.source_steps {
        let alpha = k as f64 / opts.source_steps as f64;
        let scaled = ckt.scaled_sources(alpha);
        x = solve(&scaled, final_gmin, &x).map_err(|e| match e {
            e @ EngineError::BudgetExceeded { .. } => e,
            e => EngineError::NoConvergence {
                analysis: "dc".into(),
                detail: format!("source stepping failed at alpha={alpha:.2}: {e}"),
            },
        })?;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranvar_circuit::{Circuit, MosModel, MosType, NodeId, Waveform};

    #[test]
    fn divider_op() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_resistor("R2", b, NodeId::GROUND, 3e3);
        let x = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        assert!((ckt.voltage(&x, b) - 1.5).abs() < 1e-6);
        assert!((ckt.voltage(&x, a) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn nmos_common_source_op() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let d = ckt.node("d");
        ckt.add_vsource("VDD", vdd, NodeId::GROUND, Waveform::Dc(1.2));
        ckt.add_vsource("VG", g, NodeId::GROUND, Waveform::Dc(0.7));
        ckt.add_resistor("RD", vdd, d, 10e3);
        ckt.add_mosfet(
            "M1",
            d,
            g,
            NodeId::GROUND,
            MosType::Nmos,
            MosModel::nmos_013(),
            1e-6,
            0.13e-6,
        );
        let x = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let vd = ckt.voltage(&x, d);
        // The device conducts: the drain must sit well below VDD but above 0.
        assert!(vd > 0.01 && vd < 1.19, "vd = {vd}");
        // KCL: resistor current equals drain current.
        let asm = ckt.assemble(&x, 0.0);
        assert!(tranvar_num::dense::vecops::norm_inf(&asm.f) < 1e-9);
    }

    #[test]
    fn cmos_inverter_transfer_points() {
        // Inverter with input low -> output at VDD; input high -> output ~0.
        for (vin, lo, hi) in [(0.0, 1.15, 1.2001), (1.2, -0.0001, 0.05)] {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let vin_n = ckt.node("in");
            let out = ckt.node("out");
            ckt.add_vsource("VDD", vdd, NodeId::GROUND, Waveform::Dc(1.2));
            ckt.add_vsource("VIN", vin_n, NodeId::GROUND, Waveform::Dc(vin));
            ckt.add_mosfet(
                "MP",
                out,
                vin_n,
                vdd,
                MosType::Pmos,
                MosModel::pmos_013(),
                2e-6,
                0.13e-6,
            );
            ckt.add_mosfet(
                "MN",
                out,
                vin_n,
                NodeId::GROUND,
                MosType::Nmos,
                MosModel::nmos_013(),
                1e-6,
                0.13e-6,
            );
            let x = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
            let vout = ckt.voltage(&x, out);
            assert!(vout > lo && vout < hi, "vin={vin} -> vout={vout}");
        }
    }

    #[test]
    fn floating_node_is_held_by_gmin() {
        // A capacitor-only node has no DC path; gmin must keep the system
        // solvable and pull the node to ground.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_capacitor("C1", a, NodeId::GROUND, 1e-12);
        let x = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        assert!(ckt.voltage(&x, a).abs() < 1e-6);
    }
}

#[cfg(all(test, feature = "fault-inject"))]
mod fault_injected {
    use super::*;
    use crate::fault::{sites, FaultAction, FaultPlan};
    use tranvar_circuit::{NodeId, Waveform};
    use tranvar_num::NumError;

    #[test]
    fn poisoned_dc_update_bails_on_first_iteration() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
        ckt.add_resistor("R1", a, NodeId::GROUND, 1e3);
        let guard = FaultPlan::new()
            .fail(sites::DC_RESIDUAL, 0, FaultAction::PoisonNan)
            .install();
        let (opts, x0) = (NewtonOptions::default(), vec![0.0; ckt.n_unknowns()]);
        let mut jws = JacobianWorkspace::new(opts.solver);
        let res = solve_static(&ckt, 0.0, 1e-12, &x0, &opts, &mut jws);
        assert!(matches!(res, Err(EngineError::NonFinite { .. })), "{res:?}");
        // Exactly one iteration ran: the guard fired once, not max_iter times.
        assert_eq!(guard.hits(sites::DC_RESIDUAL), 1);
    }

    /// An injected factorization failure surfaces as its own typed error:
    /// a singular pivot stays distinct from non-finite operands.
    #[test]
    fn injected_factor_faults_are_typed() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
        ckt.add_resistor("R1", a, NodeId::GROUND, 1e3);
        let (opts, x0) = (NewtonOptions::default(), vec![0.0; ckt.n_unknowns()]);
        for (action, want) in [
            (FaultAction::Singular, NumError::Singular { col: 0 }),
            (FaultAction::NonFinite, NumError::NonFinite { col: 0 }),
        ] {
            let _guard = FaultPlan::new().fail(sites::FACTOR, 0, action).install();
            let mut jws = JacobianWorkspace::new(opts.solver);
            match solve_static(&ckt, 0.0, 1e-12, &x0, &opts, &mut jws) {
                Err(EngineError::Num(got)) => assert_eq!(got, want),
                other => panic!("{action:?}: expected {want:?}, got {other:?}"),
            }
        }
    }
}
