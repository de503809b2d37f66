//! Property-based tests of the method's structural invariants, on randomized
//! circuits and randomized contribution sets.
//!
//! The workspace has no external property-testing dependency, so randomized
//! cases are generated with the seeded [`Rng64`] generator: each property is
//! checked over many deterministic pseudo-random draws, and failures report
//! the case index so the exact draw can be replayed.

use tranvar::circuit::{Circuit, NodeId, Waveform};
use tranvar::core::{Contribution, VariationReport};
use tranvar::engine::dc::{dc_operating_point, DcOptions};
use tranvar::num::rng::Rng64;
use tranvar::prelude::*;
use tranvar::pss::PssOptions;

fn report_from(sens: Vec<f64>, sigmas: Vec<f64>) -> VariationReport {
    VariationReport {
        metric: "p".into(),
        nominal: 0.0,
        contributions: sens
            .into_iter()
            .zip(sigmas)
            .enumerate()
            .map(|(i, (s, sg))| Contribution {
                label: format!("p{i}"),
                param_index: i,
                sensitivity: s,
                sigma: sg,
            })
            .collect(),
    }
}

fn uniform_in(rng: &mut Rng64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.uniform()
}

fn vec_in(rng: &mut Rng64, lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n).map(|_| uniform_in(rng, lo, hi)).collect()
}

/// |rho| <= 1 for any pair of reports over the same parameter set.
#[test]
fn correlation_is_bounded() {
    let mut rng = Rng64::seed_from(0xC0FFEE);
    for case in 0..64 {
        let n = 1 + (rng.next_u64() % 11) as usize;
        let sa = vec_in(&mut rng, -1e3, 1e3, n);
        let sb = vec_in(&mut rng, -1e3, 1e3, n);
        let sg = vec_in(&mut rng, 1e-6, 10.0, n);
        let a = report_from(sa, sg.clone());
        let b = report_from(sb, sg);
        let rho = a.correlation(&b);
        assert!(
            (-1.0 - 1e-9..=1.0 + 1e-9).contains(&rho),
            "case {case}: rho = {rho}"
        );
        // Cauchy-Schwarz on the covariance itself.
        assert!(
            a.covariance(&b).abs() <= a.sigma() * b.sigma() + 1e-12,
            "case {case}"
        );
    }
}

/// Variance of a difference is non-negative and consistent with eq. 13.
#[test]
fn difference_variance_nonnegative() {
    let mut rng = Rng64::seed_from(0xD1FF);
    for case in 0..64 {
        let n = 1 + (rng.next_u64() % 9) as usize;
        let sa = vec_in(&mut rng, -10.0, 10.0, n);
        let sb = vec_in(&mut rng, -10.0, 10.0, n);
        let sg = vec_in(&mut rng, 0.01, 2.0, n);
        let a = report_from(sa.clone(), sg.clone());
        let b = report_from(sb.clone(), sg.clone());
        let d = tranvar::core::difference_sigma(&a, &b);
        assert!(d.is_finite() && d >= 0.0, "case {case}: d = {d}");
        let direct = report_from(sa.iter().zip(sb.iter()).map(|(x, y)| y - x).collect(), sg);
        assert!(
            (d - direct.sigma()).abs() < 1e-9 * direct.sigma().max(1e-12),
            "case {case}: {d} vs {}",
            direct.sigma()
        );
    }
}

/// Scaling every sigma by k scales the metric sigma by k (linearity of the
/// perturbation model, paper eq. 1).
#[test]
fn sigma_scales_linearly() {
    let mut rng = Rng64::seed_from(0x5CA1E);
    for case in 0..64 {
        let n = 1 + (rng.next_u64() % 9) as usize;
        let sens = vec_in(&mut rng, -10.0, 10.0, n);
        let sg = vec_in(&mut rng, 0.01, 2.0, n);
        let k = uniform_in(&mut rng, 0.1, 10.0);
        let a = report_from(sens.clone(), sg.clone());
        let b = report_from(sens, sg.iter().map(|s| s * k).collect());
        assert!(
            (b.sigma() - k * a.sigma()).abs() < 1e-9 * b.sigma().max(1e-12),
            "case {case}"
        );
    }
}

/// Contribution variances always sum to the total variance.
#[test]
fn contributions_sum_to_total() {
    let mut rng = Rng64::seed_from(0x707A1);
    for case in 0..64 {
        let n = 1 + (rng.next_u64() % 9) as usize;
        let sens = vec_in(&mut rng, -10.0, 10.0, n);
        let sg = vec_in(&mut rng, 0.01, 2.0, n);
        let rep = report_from(sens, sg);
        let sum: f64 = rep.contributions.iter().map(|c| c.variance()).sum();
        assert!(
            (sum - rep.variance()).abs() < 1e-12 * rep.variance().max(1e-12),
            "case {case}"
        );
    }
}

/// On random resistor ladders, the LPTV DC-average flow equals DC-match
/// analysis, and the nominal matches the DC operating point.
#[test]
fn random_ladder_lptv_equals_dcmatch() {
    let mut rng = Rng64::seed_from(0x1ADDE);
    for case in 0..12 {
        let n = 2 + (rng.next_u64() % 4) as usize;
        let rs = vec_in(&mut rng, 500.0, 5e3, n);
        let sigmas = vec_in(&mut rng, 1.0, 30.0, n);
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        ckt.add_vsource("V1", top, NodeId::GROUND, Waveform::Dc(1.5));
        let mut prev = top;
        let mut mid = NodeId::GROUND;
        for (i, r) in rs.iter().enumerate() {
            let next = if i == n - 1 {
                NodeId::GROUND
            } else {
                ckt.node(&format!("n{i}"))
            };
            let id = ckt.add_resistor(&format!("R{i}"), prev, next, *r);
            ckt.annotate_resistor_mismatch(id, sigmas[i]);
            if i == 0 {
                mid = next;
            }
            prev = next;
        }
        assert!(!mid.is_ground());
        ckt.add_capacitor("CL", mid, NodeId::GROUND, 1e-12);

        let mut opts = PssOptions::default();
        opts.n_steps = 16;
        let res = analyze(
            &ckt,
            &PssConfig::Driven { period: 1e-6, opts },
            &[MetricSpec::new("v", Metric::DcAverage { node: mid })],
        )
        .unwrap();
        let dcm = dc_match(&ckt, mid).unwrap();
        assert!(
            (res.reports[0].sigma() - dcm.sigma()).abs() <= 1e-6 * dcm.sigma().max(1e-15),
            "case {case}: lptv {} vs dcmatch {}",
            res.reports[0].sigma(),
            dcm.sigma()
        );
        // Sanity: the DC op exists and nominal matches it.
        let x = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        assert!((res.reports[0].nominal - ckt.voltage(&x, mid)).abs() < 1e-7);
    }
}

/// Builds a randomized pulse-driven RC ladder with mismatch annotations on
/// every element — the workload for the thread-count invariance properties.
fn random_mismatched_ladder(rng: &mut Rng64, stages: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let top = ckt.node("in");
    ckt.add_vsource(
        "V1",
        top,
        NodeId::GROUND,
        Waveform::Pulse(tranvar::circuit::Pulse {
            v0: 0.0,
            v1: uniform_in(rng, 0.5, 1.5),
            delay: 1e-7,
            rise: 1e-8,
            fall: 1e-8,
            width: 4e-7,
            period: 1e-6,
        }),
    );
    let mut prev = top;
    for i in 0..stages {
        let next = ckt.node(&format!("n{i}"));
        let r = uniform_in(rng, 0.5e3, 5e3);
        let c = uniform_in(rng, 0.2e-9, 2e-9);
        let rid = ckt.add_resistor(&format!("R{i}"), prev, next, r);
        let cid = ckt.add_capacitor(&format!("C{i}"), next, NodeId::GROUND, c);
        ckt.annotate_resistor_mismatch(rid, 0.01 * r);
        ckt.annotate_capacitor_mismatch(cid, 0.01 * c);
        prev = next;
    }
    ckt
}

/// Session-cached re-solves are bit-identical to fresh per-call solves
/// (dense backend): one warm `Session` run over a sequence of randomized
/// circuits reproduces the free-function results byte-for-byte, PSS states
/// and reports alike.
#[test]
fn session_cached_resolves_are_bit_identical_to_fresh() {
    use tranvar::engine::Session;
    let mut rng = Rng64::seed_from(0x5E55_1081);
    let mut session = Session::default();
    for case in 0..6 {
        let stages = 2 + (rng.next_u64() % 3) as usize;
        let ckt = random_mismatched_ladder(&mut rng, stages);
        let mid = ckt.find_node("n0").unwrap();
        let mut opts = PssOptions::default();
        opts.n_steps = 24;
        let config = PssConfig::Driven { period: 1e-6, opts };
        let metrics = [MetricSpec::new("v", Metric::DcAverage { node: mid })];
        let fresh = analyze(&ckt, &config, &metrics).unwrap();
        let cached = tranvar::core::analyze_in(&mut session, &ckt, &config, &metrics).unwrap();
        assert_eq!(fresh.pss.states.len(), cached.pss.states.len());
        for (a, b) in fresh.pss.states.iter().zip(cached.pss.states.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "case {case}: pss state");
            }
        }
        for (ra, rb) in fresh.reports.iter().zip(cached.reports.iter()) {
            assert_eq!(ra.nominal.to_bits(), rb.nominal.to_bits(), "case {case}");
            for (ca, cb) in ra.contributions.iter().zip(rb.contributions.iter()) {
                assert_eq!(
                    ca.sensitivity.to_bits(),
                    cb.sensitivity.to_bits(),
                    "case {case}: {}",
                    ca.label
                );
            }
        }
    }
}

/// `Campaign::run` produces identical bytes per scenario for 1, 2 and N
/// worker threads, and identical bytes to the per-call reference loop; the
/// whole grid performs one symbolic analysis per sparsity pattern.
#[test]
fn campaign_is_bit_identical_for_any_thread_count() {
    use tranvar::circuit::CircuitOverride;
    use tranvar::core::run_scenarios_per_call;
    let mut rng = Rng64::seed_from(0xCA4A16);
    let ckt = random_mismatched_ladder(&mut rng, 3);
    let mid = ckt.find_node("n1").unwrap();
    let v1 = ckt.find_device("V1").unwrap();
    let r0 = ckt.find_device("R0").unwrap();
    let mut scenarios = Vec::new();
    for (vi, vs) in [0.9, 1.0, 1.1].iter().enumerate() {
        for (si, sf) in [1.0, 1.8, 2.4].iter().enumerate() {
            scenarios.push(tranvar::core::Scenario::new(
                format!("v{vi}s{si}"),
                vec![
                    CircuitOverride::SourceScale {
                        device: v1,
                        factor: *vs,
                    },
                    CircuitOverride::Resistance {
                        device: r0,
                        ohms: 1e3 * (1.0 + 0.1 * vi as f64),
                    },
                    CircuitOverride::SigmaScale { factor: *sf },
                ],
            ));
        }
    }
    assert!(scenarios.len() >= 8);
    let mut opts = PssOptions::default();
    opts.n_steps = 24;
    let config = PssConfig::Driven { period: 1e-6, opts };
    let metrics = vec![MetricSpec::new("v", Metric::DcAverage { node: mid })];
    let campaign = Campaign::new(config.clone(), metrics.clone());
    let runs: Vec<CampaignResult> = [1usize, 2, 8]
        .iter()
        .map(|&t| {
            campaign
                .clone()
                .with_threads(t)
                .run(&ckt, &scenarios)
                .unwrap()
        })
        .collect();
    let reference = run_scenarios_per_call(&ckt, &scenarios, &config, &metrics).unwrap();
    for run in &runs {
        // The σ sweep shares solves: 3 unique supply/sizing corners.
        assert_eq!(run.n_unique_solves, 3);
        assert_eq!(run.outcomes.len(), scenarios.len());
        for (oc, rf) in run.outcomes.iter().zip(reference.iter()) {
            let (a, b) = (oc.result.as_ref().unwrap(), rf.result.as_ref().unwrap());
            for (sa, sb) in a.pss.states.iter().zip(b.pss.states.iter()) {
                for (x, y) in sa.iter().zip(sb.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{}", oc.scenario);
                }
            }
            for (ra, rb) in a.reports.iter().zip(b.reports.iter()) {
                assert_eq!(ra.nominal.to_bits(), rb.nominal.to_bits());
                for (cx, cy) in ra.contributions.iter().zip(rb.contributions.iter()) {
                    assert_eq!(cx.sensitivity.to_bits(), cy.sensitivity.to_bits());
                    assert_eq!(cx.sigma.to_bits(), cy.sigma.to_bits());
                }
            }
        }
    }
    // One symbolic analysis per sparsity pattern per worker: the
    // single-worker run sees exactly two patterns (static DC, dynamic
    // integration) across all 9 scenarios / 3 solves.
    assert_eq!(runs[0].stats.pattern_builds, 2, "{:?}", runs[0].stats);
    assert_eq!(runs[0].stats.symbolic_analyses, 2, "{:?}", runs[0].stats);
}

/// The interleaved+threaded monodromy accumulation is bit-identical to the
/// retained per-column sequential reference for 1, 2 and N threads, on
/// randomized PSS orbits.
#[test]
fn monodromy_is_bit_identical_for_any_thread_count() {
    use tranvar::pss::{monodromy_seq, monodromy_threaded, shooting_pss};
    let mut rng = Rng64::seed_from(0x5EED_0A0B);
    for case in 0..6 {
        let stages = 2 + (rng.next_u64() % 3) as usize;
        let ckt = random_mismatched_ladder(&mut rng, stages);
        let mut opts = PssOptions::default();
        opts.n_steps = 32;
        if case % 2 == 0 {
            opts.method = tranvar::engine::Integrator::Trapezoidal;
        }
        let sol = shooting_pss(&ckt, 1e-6, &opts).unwrap();
        let n = ckt.n_unknowns();
        let reference = monodromy_seq(&sol.records, n);
        for threads in [1usize, 2, 8] {
            let m = monodromy_threaded(&sol.records, n, threads);
            for i in 0..n {
                for j in 0..n {
                    assert!(
                        m[(i, j)].to_bits() == reference[(i, j)].to_bits(),
                        "case {case} threads {threads}: M[{i}][{j}] = {} vs {}",
                        m[(i, j)],
                        reference[(i, j)]
                    );
                }
            }
        }
    }
}

/// The interleaved+threaded all-parameter LPTV propagation is bit-identical
/// to the retained per-parameter sequential reference for 1, 2 and N
/// threads, on randomized PSS orbits.
#[test]
fn lptv_param_responses_are_bit_identical_for_any_thread_count() {
    use tranvar::engine::{Session, SessionOptions, SolverKind};
    use tranvar::lptv::PeriodicSolver;
    use tranvar::pss::shooting_pss;
    let mut rng = Rng64::seed_from(0x5EED_1111);
    for case in 0..4 {
        let stages = 2 + (rng.next_u64() % 3) as usize;
        let ckt = random_mismatched_ladder(&mut rng, stages);
        let mut opts = PssOptions::default();
        opts.n_steps = 24;
        let sol = shooting_pss(&ckt, 1e-6, &opts).unwrap();
        let n_params = ckt.mismatch_params().len();
        assert!(n_params >= 4);
        let seq = PeriodicSolver::with_session(&ckt, &sol, &Session::default())
            .unwrap()
            .all_param_responses_seq()
            .unwrap();
        for threads in [1usize, 2, 8] {
            let session = Session::new(SessionOptions {
                solver: SolverKind::Dense,
                threads,
            });
            let solver = PeriodicSolver::with_session(&ckt, &sol, &session).unwrap();
            let batched = solver.all_param_responses().unwrap();
            assert_eq!(batched.len(), seq.len());
            for (k, (b, s)) in batched.iter().zip(seq.iter()).enumerate() {
                assert_eq!(b.dperiod.to_bits(), s.dperiod.to_bits());
                assert_eq!(b.dx.len(), s.dx.len());
                for (step, (bs, ss)) in b.dx.iter().zip(s.dx.iter()).enumerate() {
                    for (i, (x, y)) in bs.iter().zip(ss.iter()).enumerate() {
                        assert!(
                            x.to_bits() == y.to_bits(),
                            "case {case} threads {threads} param {k} step {step} row {i}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }
}

/// On the StrongARM deck (22 Pelgrom parameters, V_T/β pairs per device),
/// sessions with 1, 3 and 8 workers cut the parameters into chunks of 22,
/// 8 and 3, so the 8-worker run splits same-device pairs across workers.
/// Every record sweep stays bit-identical to its sequential oracle: the
/// LPTV responses (whole and narrowed), the monodromy and — on a short
/// MOSFET transient crossing a window boundary — the transient
/// sensitivities (bitwise across thread counts, machine precision against
/// the sequential reference).
#[test]
fn mosfet_deck_sweeps_are_bit_identical_for_any_thread_count() {
    use tranvar::circuits::{StrongArm, Tech};
    use tranvar::engine::transens::{transient_with_sensitivities_seq, SensInit};
    use tranvar::engine::{Session, SessionOptions, SolverKind, TranOptions};
    use tranvar::lptv::PeriodicSolver;
    use tranvar::pss::{monodromy_seq, monodromy_threaded, shooting_pss};
    let sa = StrongArm::paper(&Tech::t013());
    let ckt = &sa.circuit;
    assert_eq!(ckt.mismatch_params().len(), 22);
    let mut opts = sa.pss_options();
    opts.n_steps = 96;
    let sol = shooting_pss(ckt, sa.period, &opts).unwrap();
    let n = ckt.n_unknowns();
    let session = |threads| {
        Session::new(SessionOptions {
            solver: SolverKind::Dense,
            threads,
        })
    };
    let same = |a: &[f64], b: &[f64], what: &str| {
        assert_eq!(a.len(), b.len(), "{what}");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(x.to_bits() == y.to_bits(), "{what} row {i}: {x} vs {y}");
        }
    };

    let seq = PeriodicSolver::with_session(ckt, &sol, &session(1))
        .unwrap()
        .all_param_responses_seq()
        .unwrap();
    let m_seq = monodromy_seq(&sol.records, n);
    let nodes = [sa.vos, sa.outp];
    let topts = TranOptions::new(sa.period / 4.0, sa.period / 384.0);
    let tran_seq = transient_with_sensitivities_seq(ckt, &topts, SensInit::FromDc).unwrap();
    let mut tran_one = None;
    for threads in [1usize, 3, 8] {
        let mut s = session(threads);
        let solver = PeriodicSolver::with_session(ckt, &sol, &s).unwrap();
        let batched = solver.all_param_responses().unwrap();
        assert_eq!(batched.len(), seq.len());
        for (k, (b, r)) in batched.iter().zip(&seq).enumerate() {
            assert_eq!(b.dperiod.to_bits(), r.dperiod.to_bits());
            for (step, (bs, rs)) in b.dx.iter().zip(&r.dx).enumerate() {
                same(bs, rs, &format!("threads {threads} param {k} step {step}"));
            }
        }
        let narrow = solver.node_responses(&nodes, 40).unwrap();
        for (k, (nr, r)) in narrow.iter().zip(&seq).enumerate() {
            for (wave, &node) in nr.waves.iter().zip(&nodes) {
                let want = r.node_waveform(ckt, node);
                same(
                    wave,
                    &want[..=40],
                    &format!("threads {threads} param {k} node"),
                );
            }
        }
        let m = monodromy_threaded(&sol.records, n, threads);
        for j in 0..n {
            let (col, col_seq): (Vec<f64>, Vec<f64>) =
                (0..n).map(|i| (m[(i, j)], m_seq[(i, j)])).unzip();
            same(
                &col,
                &col_seq,
                &format!("threads {threads} monodromy column {j}"),
            );
        }

        let tran = s
            .transient_with_sensitivities(ckt, &topts, SensInit::FromDc)
            .unwrap();
        assert!(tran.tran.states.len() > 65, "must cross a window boundary");
        let mut max_diff = 0.0f64;
        for (pk, sk) in tran.sens.iter().zip(&tran_seq.sens) {
            assert_eq!(pk.len(), sk.len());
            for (ps, ss) in pk.iter().zip(sk) {
                for (a, b) in ps.iter().zip(ss) {
                    max_diff = max_diff.max((a - b).abs());
                }
            }
        }
        assert!(
            max_diff < 1e-12,
            "threads {threads}: max |batched - seq| = {max_diff:e}"
        );
        match &tran_one {
            None => tran_one = Some(tran),
            Some(one) => {
                for (k, (pk, ok)) in tran.sens.iter().zip(&one.sens).enumerate() {
                    for (step, (ps, os)) in pk.iter().zip(ok).enumerate() {
                        same(ps, os, &format!("threads {threads} param {k} step {step}"));
                    }
                }
            }
        }
    }
}

/// Adaptive step control reproduces the fixed-grid trajectory on every demo
/// circuit: final states agree to within `10 × reltol` (scaled by the state
/// magnitude, plus the matching absolute floor) while the accepted grid
/// stays monotone inside the configured step bounds.
#[test]
fn adaptive_matches_fixed_on_all_demo_circuits() {
    use tranvar::circuits::{ArrivalOrder, LogicPath, RStringDac, RingOsc, StrongArm, Tech};
    use tranvar::engine::dc::{dc_operating_point, DcOptions};
    use tranvar::engine::tran::{transient, AdaptiveOptions, Integrator, TranOptions};

    let tech = Tech::t013();
    let reltol = 1e-5;
    let abstol = 1e-8;

    // (name, circuit, t_stop, dt, method, explicit x0, adaptive reltol)
    #[allow(clippy::type_complexity)]
    let mut cases: Vec<(
        &str,
        tranvar::circuit::Circuit,
        f64,
        f64,
        Integrator,
        Option<Vec<f64>>,
        f64,
    )> = Vec::new();

    let sa = StrongArm::paper(&tech);
    cases.push((
        "strongarm",
        sa.circuit.clone(),
        sa.t_read,
        sa.period / 2048.0,
        Integrator::BackwardEuler,
        None,
        reltol,
    ));

    // The logic path integrates under backward Euler: trapezoidal leaves a
    // slowly-decaying grid-phase-dependent ringing on its stiff internal
    // nodes that puts the *fixed* reference itself outside the accuracy
    // band (refining the grid flips the residual's sign instead of
    // shrinking it).
    let lp = LogicPath::new(&tech, ArrivalOrder::XFirst);
    cases.push((
        "logic-path",
        lp.circuit.clone(),
        lp.period,
        lp.period / 32768.0,
        Integrator::BackwardEuler,
        None,
        reltol,
    ));

    // The ring oscillator starts from its *unstable* DC equilibrium (plus a
    // kick), so any numerical difference between two trajectories grows
    // exponentially until the orbit saturates. A quarter-period horizon
    // keeps that amplification small enough for a meaningful comparison;
    // over a full period no per-step tolerance makes the final states
    // agree, because the growth factor dominates.
    let ring = RingOsc::paper(&tech);
    let mut kick = dc_operating_point(&ring.circuit, &DcOptions::default()).unwrap();
    kick[ring.circuit.unknown_of_node(ring.stages[0]).unwrap()] += 0.1;
    cases.push((
        "ring-osc",
        ring.circuit.clone(),
        ring.period_hint / 4.0,
        ring.period_hint / 16384.0,
        Integrator::Trapezoidal,
        Some(kick),
        reltol / 10.0,
    ));

    // The R-string DAC is purely resistive; loading the mid tap makes the
    // transient a genuine RC settling problem. Backward Euler, because the
    // all-zeros start is inconsistent with the VREF constraint row and
    // trapezoidal would ring that algebraic inconsistency undamped forever
    // (v_vref alternating between 0 and 2·vref on the fixed grid). The
    // controller runs 10× tighter than the band's `reltol`: BE truncation
    // error lags the settling ramp with one sign, so per-step errors add up
    // over the transient instead of cancelling.
    let dac = RStringDac::new(4, 1e3, 0.01, 1.2);
    let mut dac_ckt = dac.circuit.clone();
    let mid = dac.taps[dac.taps.len() / 2];
    dac_ckt.add_capacitor("CT", mid, tranvar::circuit::NodeId::GROUND, 1e-12);
    let n = dac_ckt.n_unknowns();
    cases.push((
        "r-string-dac",
        dac_ckt,
        20e-9,
        20e-9 / 16384.0,
        Integrator::BackwardEuler,
        Some(vec![0.0; n]),
        reltol / 10.0,
    ));

    for (name, ckt, t_stop, dt, method, x0, rtol) in cases {
        let mut fixed = TranOptions::new(t_stop, dt);
        fixed.method = method;
        fixed.x0 = x0.clone();
        let fref = transient(&ckt, &fixed).unwrap();

        let a = AdaptiveOptions {
            reltol: rtol,
            abstol: abstol * rtol / reltol,
            ..AdaptiveOptions::default()
        };
        let mut adap = TranOptions::adaptive(t_stop, dt, a);
        adap.method = method;
        adap.x0 = x0;
        let ares = transient(&ckt, &adap).unwrap();

        // Grid contract: strictly monotone, endpoints exact, interior steps
        // within the resolved bounds. A sliver shorter than h_min is only
        // permitted just before `t_stop` or a source breakpoint, where the
        // driver lands exactly regardless of the proposed step.
        let (h_min, h_max) = a.resolve_bounds(t_stop);
        let bps = ckt.source_breakpoints(0.0, t_stop);
        assert_eq!(ares.times[0], 0.0, "{name}");
        assert_eq!(*ares.times.last().unwrap(), t_stop, "{name}");
        for (k, w) in ares.times.windows(2).enumerate() {
            let h = w[1] - w[0];
            assert!(h > 0.0, "{name}: step {k} not monotone");
            assert!(
                h <= 1.05 * h_max * (1.0 + 1e-9),
                "{name}: step {k} h={h:.3e} > h_max"
            );
            let lands_on_stop = k + 2 >= ares.times.len();
            let lands_on_bp = bps.iter().any(|&b| (w[1] - b).abs() <= 1e-12 * t_stop);
            if !lands_on_stop && !lands_on_bp {
                assert!(
                    h >= h_min * (1.0 - 1e-9),
                    "{name}: step {k} h={h:.3e} < h_min"
                );
            }
        }

        // Final states agree within the 10×reltol accuracy band.
        let xf = fref.last();
        let xa = ares.last();
        let scale = xf.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let band = 10.0 * (reltol * scale + abstol);
        for (i, (u, v)) in xf.iter().zip(xa.iter()).enumerate() {
            assert!(
                (u - v).abs() <= band,
                "{name}: unknown {i} fixed {u:.6e} vs adaptive {v:.6e} (band {band:.3e})"
            );
        }
        // And the adaptive run must actually have been adaptive.
        assert!(
            ares.times.len() < fref.times.len(),
            "{name}: adaptive used {} samples vs fixed {}",
            ares.times.len(),
            fref.times.len()
        );
    }
}

/// Markowitz-ordered factorization agrees with the natural-order one to
/// machine precision on all four demo-circuit Jacobians, and its replayed
/// refactorizations are bit-identical to the fresh ordered factorization.
#[test]
fn markowitz_matches_natural_on_demo_circuits() {
    use tranvar::circuits::{ArrivalOrder, LogicPath, RStringDac, RingOsc, StrongArm, Tech};
    use tranvar::engine::solver::combine;

    let tech = Tech::t013();
    let cases: Vec<(&str, Circuit)> = vec![
        ("ring-osc", RingOsc::paper(&tech).circuit),
        ("strongarm", StrongArm::paper(&tech).circuit),
        (
            "logic-path",
            LogicPath::new(&tech, ArrivalOrder::XFirst).circuit,
        ),
        ("r-string-dac", RStringDac::new(4, 1e3, 0.01, 1.2).circuit),
    ];
    for (name, ckt) in cases {
        let n = ckt.n_unknowns();
        let x = vec![0.0; n];
        let asm = ckt.assemble(&x, 0.0);
        let nn = ckt.n_nodes() - 1;
        let csc = combine(&asm, 1.0, 1e9, 1e-12, nn);
        let natural = csc.lu().unwrap();
        let ordered = csc.lu_markowitz().unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.73).sin() + 0.2).collect();
        let xn = natural.solve(&b);
        let xo = ordered.solve(&b);
        let scale = xn.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            assert!(
                (xn[i] - xo[i]).abs() <= 1e-9 * scale,
                "{name} row {i}: natural {} vs ordered {}",
                xn[i],
                xo[i]
            );
        }
        // Replay of the ordered analysis is bit-identical.
        let replay = csc.lu_with(&ordered.symbolic()).unwrap();
        let xr = replay.solve(&b);
        for i in 0..n {
            assert!(xr[i].to_bits() == xo[i].to_bits(), "{name} replay row {i}");
        }
    }
}
