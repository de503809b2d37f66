//! Smoothed square-law MOSFET model with analytic derivatives.
//!
//! The paper's flow only needs a transistor model whose drain current has the
//! canonical first-order mismatch structure (∂I_D/∂V_T = −g_m and
//! ∂I_D/∂(δβ/β) = I_D, the Pelgrom pair of Fig. 4), is C¹-smooth for Newton
//! robustness in strongly switching circuits (StrongARM latch, logic gates),
//! and exhibits a realistic g_m/I_D so that the quoted operating point
//! (8.32 µm/0.13 µm nMOS at V_GS = 1.0 V ⇒ 3σ(I_DS) ≈ 14%) can be
//! calibrated. A Level-1 square law with a softplus sub-threshold blend and
//! an exponential triode→saturation transition satisfies all three; this is
//! our substitute for the authors' foundry BSIM models (see DESIGN.md).

/// Thermal voltage kT/q at room temperature (V).
pub const VT_THERMAL: f64 = 0.02585;

/// MOSFET polarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MosType {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// Model card shared by a device (copied per instance so Monte-Carlo can
/// perturb devices independently).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MosModel {
    /// Zero-bias threshold magnitude (V, positive for both polarities).
    pub vt0: f64,
    /// Transconductance parameter µ·C_ox (A/V²).
    pub kp: f64,
    /// Channel-length modulation (1/V).
    pub lambda: f64,
    /// Sub-threshold ideality factor (softplus sharpness = n·kT/q).
    pub n_sub: f64,
    /// Gate-oxide capacitance per area (F/m²).
    pub cox: f64,
    /// Gate overlap capacitance per width (F/m).
    pub cov: f64,
    /// Junction capacitance per width (F/m).
    pub cj: f64,
}

impl MosModel {
    /// A representative 0.13 µm-class NMOS card.
    pub fn nmos_013() -> Self {
        MosModel {
            vt0: 0.38,
            kp: 4.2e-4,
            lambda: 0.15,
            n_sub: 1.8,
            cox: 1.2e-2,
            cov: 3.0e-10,
            cj: 8.0e-10,
        }
    }

    /// A representative 0.13 µm-class PMOS card.
    pub fn pmos_013() -> Self {
        MosModel {
            vt0: 0.36,
            kp: 1.7e-4,
            lambda: 0.18,
            n_sub: 1.8,
            cox: 1.2e-2,
            cov: 3.0e-10,
            cj: 8.0e-10,
        }
    }
}

/// Operating-point result of one model evaluation, expressed in *physical*
/// terminal quantities: `ids` is the current leaving the drain terminal, and
/// the `di_*` entries are its partial derivatives.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MosOp {
    /// Current leaving the physical drain (A).
    pub ids: f64,
    /// ∂ids/∂v_drain.
    pub di_dvd: f64,
    /// ∂ids/∂v_gate.
    pub di_dvg: f64,
    /// ∂ids/∂v_source.
    pub di_dvs: f64,
    /// ∂ids/∂(δV_T) — derivative w.r.t. a shift of this device's stored
    /// threshold parameter (the Pelgrom V_T mismatch variable).
    pub di_dvt: f64,
    /// ∂ids/∂(δβ/β) — derivative w.r.t. relative current-factor mismatch.
    /// Always equals `ids` for a current ∝ β.
    pub di_dbeta_rel: f64,
}

/// Local-frame square-law evaluation: `vgs`, `vds ≥ 0` with positive
/// parameters; returns `(id, gm, gds, did_dvt)` where `id` flows drain→source.
fn eval_local(
    vgs: f64,
    vds: f64,
    vt_eff: f64,
    beta: f64,
    lambda: f64,
    n_sub: f64,
) -> (f64, f64, f64, f64) {
    debug_assert!(vds >= 0.0);
    let a = n_sub * VT_THERMAL;
    let arg = (vgs - vt_eff) / a;
    // Softplus overdrive and its vgs-derivative (logistic).
    let (vov, dvov) = if arg > 40.0 {
        (vgs - vt_eff, 1.0)
    } else if arg < -40.0 {
        let e = arg.exp();
        (a * e, e)
    } else {
        let e = arg.exp();
        (a * (1.0 + e).ln(), e / (1.0 + e))
    };
    if vov <= 0.0 {
        return (0.0, 0.0, 0.0, 0.0);
    }
    // Smooth triode/saturation blend: ve = vov·(1 − e^{−vds/vov}).
    let u = vds / vov;
    let eu = (-u).exp();
    let ve = vov * (1.0 - eu);
    let dve_dvds = eu;
    let dve_dvov = 1.0 - eu * (1.0 + u);
    let gfun = vov * ve - 0.5 * ve * ve;
    let clm = 1.0 + lambda * vds;
    let id = beta * gfun * clm;
    let dg_dvov_total = ve + (vov - ve) * dve_dvov;
    let gm = beta * clm * dg_dvov_total * dvov;
    let gds = beta * clm * (vov - ve) * dve_dvds + beta * gfun * lambda;
    let did_dvt = -beta * clm * dg_dvov_total * dvov;
    (id, gm, gds, did_dvt)
}

/// Evaluates the model at physical terminal voltages `(vd, vg, vs)`.
///
/// Handles drain/source swap for reverse bias and polarity mirroring for
/// PMOS, so callers can stamp the returned derivatives directly:
/// KCL(drain) += ids, KCL(source) −= ids, with the Jacobian entries
/// `di_dvd/di_dvg/di_dvs` on the corresponding columns.
pub fn eval_mosfet(
    ty: MosType,
    model: &MosModel,
    w: f64,
    l: f64,
    vt_shift: f64,
    beta_scale: f64,
    vd: f64,
    vg: f64,
    vs: f64,
) -> MosOp {
    // Mirror all node voltages for PMOS; the final current/derivative mapping
    // is handled below.
    let (mvd, mvg, mvs) = match ty {
        MosType::Nmos => (vd, vg, vs),
        MosType::Pmos => (-vd, -vg, -vs),
    };
    let beta = model.kp * (w / l) * beta_scale;
    let vt_eff = model.vt0 + vt_shift;
    // Drain/source swap in the mirrored frame.
    let swapped = mvd < mvs;
    let (vdl, vsl) = if swapped { (mvs, mvd) } else { (mvd, mvs) };
    let vgs_l = mvg - vsl;
    let vds_l = vdl - vsl;
    let (id_l, gm_l, gds_l, divt_l) =
        eval_local(vgs_l, vds_l, vt_eff, beta, model.lambda, model.n_sub);

    // Current leaving the mirrored drain and its derivatives w.r.t. the
    // mirrored node voltages.
    let (m_ids, m_dvd, m_dvg, m_dvs, m_dvt) = if swapped {
        (
            -id_l,
            gm_l + gds_l, // ∂(−id_l(vg−vd, vs−vd))/∂vd
            -gm_l,
            -gds_l,
            -divt_l,
        )
    } else {
        (id_l, gds_l, gm_l, -(gm_l + gds_l), divt_l)
    };

    // Map back to physical frame. For PMOS: ids = −m_ids and
    // ∂ids/∂v = +∂m_ids/∂v_m (two sign flips cancel).
    let (ids, di_dvd, di_dvg, di_dvs, di_dvt) = match ty {
        MosType::Nmos => (m_ids, m_dvd, m_dvg, m_dvs, m_dvt),
        MosType::Pmos => (-m_ids, m_dvd, m_dvg, m_dvs, -m_dvt),
    };
    MosOp {
        ids,
        di_dvd,
        di_dvg,
        di_dvs,
        di_dvt,
        di_dbeta_rel: ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd_check(ty: MosType, vd: f64, vg: f64, vs: f64) {
        let m = match ty {
            MosType::Nmos => MosModel::nmos_013(),
            MosType::Pmos => MosModel::pmos_013(),
        };
        let (w, l) = (2.0e-6, 0.13e-6);
        let op = eval_mosfet(ty, &m, w, l, 0.0, 1.0, vd, vg, vs);
        let h = 1e-7;
        let f = |vd: f64, vg: f64, vs: f64, dvt: f64, brel: f64| {
            eval_mosfet(ty, &m, w, l, dvt, 1.0 + brel, vd, vg, vs).ids
        };
        let num_dvd = (f(vd + h, vg, vs, 0.0, 0.0) - f(vd - h, vg, vs, 0.0, 0.0)) / (2.0 * h);
        let num_dvg = (f(vd, vg + h, vs, 0.0, 0.0) - f(vd, vg - h, vs, 0.0, 0.0)) / (2.0 * h);
        let num_dvs = (f(vd, vg, vs + h, 0.0, 0.0) - f(vd, vg, vs - h, 0.0, 0.0)) / (2.0 * h);
        let num_dvt = (f(vd, vg, vs, h, 0.0) - f(vd, vg, vs, -h, 0.0)) / (2.0 * h);
        let num_dbr = (f(vd, vg, vs, 0.0, h) - f(vd, vg, vs, 0.0, -h)) / (2.0 * h);
        let scale = op.di_dvd.abs().max(op.di_dvg.abs()).max(1e-9);
        let tol = 1e-4 * scale.max(1e-6);
        assert!(
            (op.di_dvd - num_dvd).abs() < tol,
            "{ty:?} dvd: {} vs {num_dvd}",
            op.di_dvd
        );
        assert!(
            (op.di_dvg - num_dvg).abs() < tol,
            "{ty:?} dvg: {} vs {num_dvg}",
            op.di_dvg
        );
        assert!(
            (op.di_dvs - num_dvs).abs() < tol,
            "{ty:?} dvs: {} vs {num_dvs}",
            op.di_dvs
        );
        assert!(
            (op.di_dvt - num_dvt).abs() < tol,
            "{ty:?} dvt: {} vs {num_dvt}",
            op.di_dvt
        );
        assert!(
            (op.di_dbeta_rel - num_dbr).abs() < 1e-4 * op.ids.abs().max(1e-9),
            "{ty:?} dbeta: {} vs {num_dbr}",
            op.di_dbeta_rel
        );
    }

    #[test]
    fn derivatives_match_finite_difference_nmos() {
        // saturation, triode, near-zero vds, reverse, subthreshold
        fd_check(MosType::Nmos, 1.2, 1.0, 0.0);
        fd_check(MosType::Nmos, 0.1, 1.0, 0.0);
        fd_check(MosType::Nmos, 0.001, 1.0, 0.0);
        fd_check(MosType::Nmos, 0.0, 1.0, 1.2); // swapped
        fd_check(MosType::Nmos, 1.2, 0.2, 0.0); // subthreshold
    }

    #[test]
    fn derivatives_match_finite_difference_pmos() {
        fd_check(MosType::Pmos, 0.0, 0.2, 1.2); // on, |vds| large
        fd_check(MosType::Pmos, 1.1, 0.2, 1.2); // triode
        fd_check(MosType::Pmos, 1.2, 0.2, 0.0); // swapped
        fd_check(MosType::Pmos, 0.0, 1.0, 1.2); // subthreshold
    }

    #[test]
    fn nmos_current_direction_and_magnitude() {
        let m = MosModel::nmos_013();
        let op = eval_mosfet(MosType::Nmos, &m, 2.0e-6, 0.13e-6, 0.0, 1.0, 1.2, 1.0, 0.0);
        assert!(op.ids > 0.0, "forward NMOS conducts d->s");
        // Square-law ballpark: β/2·vov² with vov ≈ 0.57 (softplus pulls it
        // slightly below vgs − vt0).
        let beta = m.kp * 2.0e-6 / 0.13e-6;
        let approx = 0.5 * beta * 0.57_f64.powi(2) * (1.0 + m.lambda * 1.2);
        assert!(
            op.ids > 0.5 * approx && op.ids < 1.5 * approx,
            "ids = {}",
            op.ids
        );
    }

    #[test]
    fn pmos_current_direction() {
        let m = MosModel::pmos_013();
        // Source at 1.2, gate low -> PMOS on; current flows source->drain,
        // so current *leaving* the drain is negative.
        let op = eval_mosfet(MosType::Pmos, &m, 2.0e-6, 0.13e-6, 0.0, 1.0, 0.0, 0.0, 1.2);
        assert!(op.ids < 0.0);
    }

    #[test]
    fn off_device_conducts_nothing() {
        let m = MosModel::nmos_013();
        let op = eval_mosfet(MosType::Nmos, &m, 1e-6, 0.13e-6, 0.0, 1.0, 1.2, 0.0, 0.0);
        assert!(op.ids < 1e-9, "off current {}", op.ids);
        assert!(op.ids > 0.0, "softplus leaves a smooth floor");
    }

    #[test]
    fn symmetry_at_vds_zero() {
        let m = MosModel::nmos_013();
        let op = eval_mosfet(MosType::Nmos, &m, 1e-6, 0.13e-6, 0.0, 1.0, 0.5, 1.0, 0.5);
        assert!(op.ids.abs() < 1e-12, "no current at vds=0");
        assert!(op.di_dvd > 0.0, "positive channel conductance");
    }

    #[test]
    fn vt_shift_reduces_nmos_current() {
        let m = MosModel::nmos_013();
        let base = eval_mosfet(MosType::Nmos, &m, 1e-6, 0.13e-6, 0.0, 1.0, 1.2, 1.0, 0.0);
        let shifted = eval_mosfet(MosType::Nmos, &m, 1e-6, 0.13e-6, 0.05, 1.0, 1.2, 1.0, 0.0);
        assert!(shifted.ids < base.ids);
        assert!(base.di_dvt < 0.0);
    }

    #[test]
    fn beta_scale_is_multiplicative() {
        let m = MosModel::nmos_013();
        let base = eval_mosfet(MosType::Nmos, &m, 1e-6, 0.13e-6, 0.0, 1.0, 1.2, 1.0, 0.0);
        let scaled = eval_mosfet(MosType::Nmos, &m, 1e-6, 0.13e-6, 0.0, 1.1, 1.2, 1.0, 0.0);
        assert!((scaled.ids / base.ids - 1.1).abs() < 1e-12);
    }

    #[test]
    fn gm_over_id_is_physical() {
        // In strong inversion gm/ID ≈ 2/vov; our smooth model should stay in
        // [2, 10] /V for vov ≈ 0.5 V.
        let m = MosModel::nmos_013();
        let op = eval_mosfet(MosType::Nmos, &m, 8.32e-6, 0.13e-6, 0.0, 1.0, 1.2, 1.0, 0.0);
        let gm_over_id = op.di_dvg / op.ids;
        assert!(
            gm_over_id > 2.0 && gm_over_id < 10.0,
            "gm/ID = {gm_over_id}"
        );
    }
}
