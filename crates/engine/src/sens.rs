//! DC sensitivity analysis (`.SENS`) — the classic linear-perturbation
//! computation the paper's references \[8\],\[9\],\[20\],\[26\] build on, and the
//! shared right-hand-side helper used by both the transient-sensitivity
//! baseline and the LPTV periodic solver.

use crate::error::EngineError;
use crate::solver::{FactoredJacobian, SolverKind};
use tranvar_circuit::{Circuit, ParamDeriv};
use tranvar_num::lanes_scratch_len;

/// DC sensitivities `dx/dp_k` of the operating point with respect to every
/// registered mismatch parameter.
///
/// Implements the adjoint-free direct method: `G·(dx/dp) = −∂f/∂p`, factoring
/// `G` once and back-substituting per parameter — the DC special case of the
/// reuse that makes the paper's method cheap.
///
/// # Errors
///
/// Returns a numerical error if `G` is singular at the operating point.
pub fn dc_sensitivities(
    ckt: &Circuit,
    x_op: &[f64],
    solver: SolverKind,
) -> Result<Vec<Vec<f64>>, EngineError> {
    let n_params = ckt.mismatch_params().len();
    if n_params == 0 {
        return Ok(Vec::new());
    }
    let asm = ckt.assemble(x_op, 0.0);
    let n_node = ckt.n_nodes() - 1;
    let lu = FactoredJacobian::factor(solver, &asm, 1.0, 0.0, 1e-12, n_node)?;
    let n = asm.n;
    // Stage every parameter's RHS in one RHS-interleaved block
    // (`block[i·n_params + k]`) and solve them with a single lane sweep —
    // the factor is traversed once per block rather than once per parameter.
    let mut block = vec![0.0; n * n_params];
    let mut pd = ParamDeriv::default();
    for k in 0..n_params {
        ckt.d_residual_dparam_into(k, x_op, &mut pd)?;
        for &(i, v) in &pd.df {
            block[i * n_params + k] -= v;
        }
        // ∂q/∂p does not influence the DC solution.
    }
    let mut scratch = vec![0.0; lanes_scratch_len(n, n_params)];
    lu.solve_multi_lanes(&mut block, n_params, &mut scratch);
    Ok((0..n_params)
        .map(|k| (0..n).map(|i| block[i * n_params + k]).collect())
        .collect())
}

/// The θ-method step right-hand side for parameter `k`:
/// `w_k = θ·∂f/∂p(x₁) + (1−θ)·∂f/∂p(x₀) + (∂q/∂p(x₁) − ∂q/∂p(x₀))/h`.
///
/// With the step Jacobian `J` and coupling `B` from
/// [`crate::tran::StepRecord`], the parameter sensitivity propagates as
/// `J·S₁ = B·S₀ − w`. The same `w` is the periodic-BVP source term in the
/// LPTV mismatch analysis (pseudo-noise injection integrated over a step).
///
/// # Errors
///
/// Propagates unknown-parameter errors.
pub fn param_step_rhs(
    ckt: &Circuit,
    k: usize,
    x1: &[f64],
    x0: &[f64],
    h: f64,
    theta: f64,
) -> Result<Vec<f64>, EngineError> {
    let mut w = vec![0.0; ckt.n_unknowns()];
    let mut scratch = ParamDerivPair::default();
    param_step_rhs_into(ckt, k, x1, x0, h, theta, &mut w, &mut scratch)?;
    Ok(w)
}

/// Reusable derivative buffers for [`param_step_rhs_into`] — one pair per
/// worker thread keeps the per-step parameter loop allocation-free.
#[derive(Clone, Debug, Default)]
pub struct ParamDerivPair {
    pd1: ParamDeriv,
    pd0: ParamDeriv,
}

/// Allocation-free variant of [`param_step_rhs`]: writes `w_k` into `out`
/// (which must have length `n_unknowns`), reusing `scratch`'s buffers.
///
/// # Errors
///
/// Propagates unknown-parameter errors.
pub fn param_step_rhs_into(
    ckt: &Circuit,
    k: usize,
    x1: &[f64],
    x0: &[f64],
    h: f64,
    theta: f64,
    out: &mut [f64],
    scratch: &mut ParamDerivPair,
) -> Result<(), EngineError> {
    ckt.d_residual_dparam_into(k, x1, &mut scratch.pd1)?;
    ckt.d_residual_dparam_into(k, x0, &mut scratch.pd0)?;
    out.iter_mut().for_each(|v| *v = 0.0);
    for &(i, v) in &scratch.pd1.df {
        out[i] += theta * v;
    }
    for &(i, v) in &scratch.pd0.df {
        out[i] += (1.0 - theta) * v;
    }
    for &(i, v) in &scratch.pd1.dq {
        out[i] += v / h;
    }
    for &(i, v) in &scratch.pd0.dq {
        out[i] -= v / h;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};
    use tranvar_circuit::{Circuit, NodeId, Waveform};

    /// Divider sensitivity has a closed form: vout = V·R2/(R1+R2),
    /// ∂vout/∂R1 = −V·R2/(R1+R2)², ∂vout/∂R2 = V·R1/(R1+R2)².
    #[test]
    fn divider_sensitivities_match_analytic() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
        let r1 = ckt.add_resistor("R1", a, b, 1e3);
        let r2 = ckt.add_resistor("R2", b, NodeId::GROUND, 3e3);
        ckt.annotate_resistor_mismatch(r1, 10.0);
        ckt.annotate_resistor_mismatch(r2, 10.0);
        let x = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let sens = dc_sensitivities(&ckt, &x, SolverKind::Dense).unwrap();
        let ib = ckt.unknown_of_node(b).unwrap();
        let s1 = sens[0][ib];
        let s2 = sens[1][ib];
        let expect1 = -2.0 * 3e3 / (4e3_f64.powi(2));
        let expect2 = 2.0 * 1e3 / (4e3_f64.powi(2));
        assert!(
            (s1 - expect1).abs() < 1e-6 * expect1.abs(),
            "{s1} vs {expect1}"
        );
        assert!(
            (s2 - expect2).abs() < 1e-6 * expect2.abs(),
            "{s2} vs {expect2}"
        );
    }

    #[test]
    fn sensitivities_match_finite_difference_mos() {
        use tranvar_circuit::{MosModel, MosType};
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let d = ckt.node("d");
        ckt.add_vsource("VDD", vdd, NodeId::GROUND, Waveform::Dc(1.2));
        ckt.add_vsource("VG", g, NodeId::GROUND, Waveform::Dc(0.8));
        ckt.add_resistor("RD", vdd, d, 5e3);
        let m1 = ckt.add_mosfet(
            "M1",
            d,
            g,
            NodeId::GROUND,
            MosType::Nmos,
            MosModel::nmos_013(),
            2e-6,
            0.13e-6,
        );
        ckt.annotate_pelgrom(m1, 6.5e-9, 3.25e-8);
        let x = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let sens = dc_sensitivities(&ckt, &x, SolverKind::Dense).unwrap();
        let id = ckt.unknown_of_node(d).unwrap();
        // FD re-solve.
        for (k, h) in [(0usize, 1e-6), (1usize, 1e-6)] {
            let mut deltas = vec![0.0; 2];
            deltas[k] = h;
            let mut cp = ckt.clone();
            cp.apply_mismatch(&deltas);
            let xp = dc_operating_point(&cp, &DcOptions::default()).unwrap();
            deltas[k] = -h;
            let mut cm = ckt.clone();
            cm.apply_mismatch(&deltas);
            let xm = dc_operating_point(&cm, &DcOptions::default()).unwrap();
            let fd = (cp.voltage(&xp, d) - cm.voltage(&xm, d)) / (2.0 * h);
            let got = sens[k][id];
            assert!(
                (got - fd).abs() < 2e-3 * fd.abs().max(1e-3),
                "param {k}: {got} vs fd {fd}"
            );
        }
    }
}
