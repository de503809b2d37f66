//! Cross-crate validation of the pseudo-noise mismatch method against its
//! independent baselines: DC-match analysis, transient forward sensitivity,
//! and Monte-Carlo.

use tranvar::circuit::{Circuit, NodeId, Pulse, Waveform};
use tranvar::circuits::{RingOsc, StrongArm, Tech};
use tranvar::engine::dc::{dc_operating_point, DcOptions};
use tranvar::engine::mc::{monte_carlo, McOptions};
use tranvar::engine::transens::{transient_with_sensitivities, SensInit};
use tranvar::engine::TranOptions;
use tranvar::num::interp::Edge;
use tranvar::prelude::*;
use tranvar::pss::PssOptions;

fn mismatched_divider() -> (Circuit, NodeId) {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
    let r1 = ckt.add_resistor("R1", a, b, 1e3);
    let r2 = ckt.add_resistor("R2", b, NodeId::GROUND, 2e3);
    ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-12);
    ckt.annotate_resistor_mismatch(r1, 15.0);
    ckt.annotate_resistor_mismatch(r2, 10.0);
    (ckt, b)
}

/// For a circuit whose PSS is constant, the full LPTV flow must reproduce DC
/// match analysis exactly (the paper presents the method as the transient
/// generalization of refs. [8],[9]).
#[test]
fn lptv_reduces_to_dc_match() {
    let (ckt, b) = mismatched_divider();
    let mut opts = PssOptions::default();
    opts.n_steps = 32;
    let res = analyze(
        &ckt,
        &PssConfig::Driven { period: 1e-6, opts },
        &[MetricSpec::new("vout", Metric::DcAverage { node: b })],
    )
    .unwrap();
    let dcm = dc_match(&ckt, b).unwrap();
    let rep = &res.reports[0];
    assert!((rep.sigma() - dcm.sigma()).abs() < 1e-6 * dcm.sigma());
    for (a, b) in rep.contributions.iter().zip(dcm.contributions.iter()) {
        assert!(
            (a.sensitivity - b.sensitivity).abs() < 1e-6 * b.sensitivity.abs(),
            "{}: {} vs {}",
            a.label,
            a.sensitivity,
            b.sensitivity
        );
    }
}

/// Monte-Carlo ground truth matches the linear prediction for small
/// mismatch (divider case, where the response is almost exactly linear).
#[test]
fn lptv_matches_monte_carlo_on_divider() {
    let (ckt, b) = mismatched_divider();
    let mut opts = PssOptions::default();
    opts.n_steps = 32;
    let res = analyze(
        &ckt,
        &PssConfig::Driven { period: 1e-6, opts },
        &[MetricSpec::new("vout", Metric::DcAverage { node: b })],
    )
    .unwrap();
    let mc = monte_carlo(&ckt, &McOptions::new(3000, 7), |c| {
        let x = dc_operating_point(c, &DcOptions::default())?;
        Ok(c.voltage(&x, c.find_node("b")?))
    });
    let rel = (res.reports[0].sigma() - mc.stats.std_dev()) / mc.stats.std_dev();
    assert!(rel.abs() < 0.05, "lptv vs mc: {rel:+.3}");
}

/// The LPTV delay sensitivity agrees with transient forward sensitivity
/// (paper ref. [23]) — same linearization, different propagation route.
#[test]
fn lptv_delay_matches_transient_sensitivity() {
    let period = 10e-6;
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
            period,
        }),
    );
    let r1 = ckt.add_resistor("R1", a, b, 1e3);
    ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
    ckt.annotate_resistor_mismatch(r1, 10.0);

    // LPTV route.
    let mut opts = PssOptions::default();
    opts.n_steps = 2000;
    let res = analyze(
        &ckt,
        &PssConfig::Driven { period, opts },
        &[MetricSpec::new(
            "delay",
            Metric::CrossingShift {
                node: b,
                threshold: 0.5,
                edge: Edge::Rising,
                t_after: 1e-6,
                t_ref: 1e-6,
            },
        )],
    )
    .unwrap();
    let s_lptv = res.reports[0].contributions[0].sensitivity;

    // Transient-sensitivity route: crossing-shift from δv/v̇ at the crossing
    // of a plain transient (single-shot, so expect agreement only to the
    // start-up-residue level — the PSS initial condition differs slightly).
    let topts = TranOptions::new(period, period / 2000.0);
    let ts = transient_with_sensitivities(&ckt, &topts, SensInit::FromDc).unwrap();
    let w = ts.tran.node_waveform(&ckt, b);
    let tc =
        tranvar::num::interp::first_crossing_after(&ts.tran.times, &w, 0.5, Edge::Rising, 1e-6)
            .unwrap();
    let idx = tranvar::num::interp::nearest_index(&ts.tran.times, tc);
    let slope = tranvar::num::interp::slope_at(&ts.tran.times, &w, idx);
    let ib = ckt.unknown_of_node(b).unwrap();
    let s_ts = -ts.sens[0][idx][ib] / slope;
    assert!(
        (s_lptv - s_ts).abs() < 0.05 * s_ts.abs(),
        "lptv {s_lptv:.4e} vs transient-sens {s_ts:.4e}"
    );
}

/// Finite-difference oracle for one metric: the LPTV sensitivity of the
/// dominant (largest-variance) mismatch parameter matches a central
/// difference of the nominal metric re-solved at ±0.1σ, within 2%.
fn dominant_sensitivity_matches_fd(circuit: &Circuit, config: &PssConfig, spec: &MetricSpec) {
    let specs = std::slice::from_ref(spec);
    let res = analyze(circuit, config, specs).unwrap();
    let top = res.reports[0]
        .contributions
        .iter()
        .max_by(|a, b| a.variance().total_cmp(&b.variance()))
        .unwrap();
    let h = 0.1 * top.sigma;
    let nominal = |delta: f64| {
        let mut ckt = circuit.clone();
        let mut deltas = vec![0.0; ckt.mismatch_params().len()];
        deltas[top.param_index] = delta;
        ckt.apply_mismatch(&deltas);
        analyze(&ckt, config, specs).unwrap().reports[0].nominal
    };
    let fd = (nominal(h) - nominal(-h)) / (2.0 * h);
    assert!(
        (fd - top.sensitivity).abs() < 0.02 * top.sensitivity.abs(),
        "{} {}: lptv {:.4e} vs fd {fd:.4e}",
        spec.name,
        top.label,
        top.sensitivity
    );
}

/// `Metric::Frequency` oracle on a ring oscillator: the re-solve is
/// bordered shooting through its exact `∂Φ/∂T`, at a fraction of the cost
/// of the MC σ checks.
#[test]
fn ring_frequency_sensitivity_matches_fd() {
    let ring = RingOsc::new(&Tech::t013(), 3, 10e-15);
    let config = PssConfig::Autonomous {
        period_hint: ring.period_hint,
        phase_node: ring.stages[0],
        phase_value: ring.phase_value,
        opts: ring.osc_options(),
    };
    let spec = MetricSpec::new("f0", Metric::Frequency);
    dominant_sensitivity_matches_fd(&ring.circuit, &config, &spec);
}

/// `Metric::DcAverage` oracle on a switching circuit: the StrongARM offset,
/// re-solved as the metastable orbit of the Fig. 6 feedback testbench.
#[test]
fn strongarm_offset_sensitivity_matches_fd() {
    let sa = StrongArm::paper(&Tech::t013());
    let config = PssConfig::Driven {
        period: sa.period,
        opts: sa.pss_options(),
    };
    dominant_sensitivity_matches_fd(&sa.circuit, &config, &sa.offset_metric());
}

/// Correlated mismatch: sampling through a mixing matrix A (paper eq. 6)
/// produces the covariance A·Aᵀ in the measured outputs.
#[test]
fn correlated_sampling_matches_eq6() {
    let (ckt, _) = mismatched_divider();
    // Fully correlated R1/R2 deltas: common 1-sigma source.
    let a = tranvar::num::DMat::from_vec(2, 1, vec![15.0, 10.0]);
    let mut opts = McOptions::new(4000, 3);
    opts.correlation = Some(tranvar::num::rng::CorrelatedNormal::from_mixing(a));
    let mc = monte_carlo(&ckt, &opts, |c| {
        let x = dc_operating_point(c, &DcOptions::default())?;
        Ok(c.voltage(&x, c.find_node("b")?))
    });
    // vout = 2·R2/(R1+R2); with dR2/dR1 = 10/15 fully correlated the two
    // sensitivities partially cancel: sigma is much smaller than the
    // independent RSS.
    let s1: f64 = 2.0 * 2e3 / 9e6; // |dv/dR1| at R1=1k, R2=2k
    let s2: f64 = 2.0 * 1e3 / 9e6;
    let expected = (-s1 * 15.0 + s2 * 10.0).abs();
    let independent_rss = ((s1 * 15.0).powi(2) + (s2 * 10.0).powi(2)).sqrt();
    assert!(mc.stats.std_dev() < 0.75 * independent_rss);
    assert!(
        (mc.stats.std_dev() - expected).abs() < 0.1 * expected,
        "mc {:.4e} vs analytic {expected:.4e}",
        mc.stats.std_dev()
    );
}
