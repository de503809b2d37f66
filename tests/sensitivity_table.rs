//! `analyze` and `Campaign::run` build their reports from a propagation
//! narrowed to what the metrics read (their nodes, through their last read
//! sample, nothing past the boundary solve for a frequency). These tests
//! pin both, bit for bit, to the whole-trajectory oracle:
//! `all_param_responses` → `reports_from_responses` (for `analyze`) and
//! `solve_unique` → `scenario_reports` (for a campaign).

use tranvar::circuit::{Circuit, CircuitOverride, NodeId, Pulse, Waveform};
use tranvar::circuits::{ArrivalOrder, LogicPath, RingOsc, StrongArm, Tech};
use tranvar::core::metric::Metric;
use tranvar::core::{
    analyze, reports_from_responses, scenario_reports, solve_groups, solve_pss, solve_unique,
    Campaign, MetricSpec, PssConfig, Scenario, VariationReport,
};
use tranvar::engine::{AdaptiveOptions, RetryPolicy, Session, SessionStats, StepControl};
use tranvar::lptv::PeriodicSolver;
use tranvar::num::interp::{is_uniform_grid, Edge};
use tranvar::pss::PssOptions;

/// Nominal values, sensitivities and σ of two report sets agree bit for bit.
fn assert_bits_eq(got: &[VariationReport], want: &[VariationReport], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.metric, w.metric, "{ctx}");
        assert_eq!(
            g.nominal.to_bits(),
            w.nominal.to_bits(),
            "{ctx} {}",
            g.metric
        );
        assert_eq!(g.contributions.len(), w.contributions.len(), "{ctx}");
        for (cg, cw) in g.contributions.iter().zip(&w.contributions) {
            assert_eq!(cg.label, cw.label, "{ctx}");
            assert_eq!(
                cg.sensitivity.to_bits(),
                cw.sensitivity.to_bits(),
                "{ctx} {} {}",
                g.metric,
                cg.label
            );
            assert_eq!(cg.sigma.to_bits(), cw.sigma.to_bits(), "{ctx}");
        }
        assert_eq!(g.sigma().to_bits(), w.sigma().to_bits(), "{ctx}");
    }
}

/// `analyze` against the whole-trajectory oracle on the same circuit.
fn assert_analyze_matches_oracle(ckt: &Circuit, config: &PssConfig, metrics: &[MetricSpec]) {
    let res = analyze(ckt, config, metrics).unwrap();
    let pss = solve_pss(ckt, config).unwrap();
    let responses = PeriodicSolver::with_session(ckt, &pss, &Session::default())
        .unwrap()
        .all_param_responses()
        .unwrap();
    let oracle = reports_from_responses(ckt, &pss, &responses, metrics).unwrap();
    let ctx = format!("{:?}", metrics.iter().map(|m| &m.name).collect::<Vec<_>>());
    assert_bits_eq(&res.reports, &oracle, &ctx);
    assert!(!res.reports.is_empty() && !res.reports[0].contributions.is_empty());
}

#[test]
fn analyze_matches_full_responses_on_strongarm() {
    let sa = StrongArm::paper(&Tech::t013());
    let config = PssConfig::Driven {
        period: sa.period,
        opts: sa.pss_options(),
    };
    assert_analyze_matches_oracle(&sa.circuit, &config, &[sa.offset_metric()]);
}

#[test]
fn analyze_matches_full_responses_on_logic_path() {
    let lp = LogicPath::new(&Tech::t013(), ArrivalOrder::XFirst);
    let config = PssConfig::Driven {
        period: lp.period,
        opts: lp.pss_options(),
    };
    assert_analyze_matches_oracle(&lp.circuit, &config, &lp.delay_metrics());
}

#[test]
fn analyze_matches_full_responses_on_ring_oscillator() {
    let ring = RingOsc::paper(&Tech::t013());
    let config = PssConfig::Autonomous {
        period_hint: ring.period_hint,
        phase_node: ring.stages[0],
        phase_value: ring.phase_value,
        opts: ring.osc_options(),
    };
    assert_analyze_matches_oracle(
        &ring.circuit,
        &config,
        &[MetricSpec::new("f0", Metric::Frequency)],
    );
}

/// The DAC golden deck (a DC circuit) under a driven PSS, one cycle-mean
/// per tap.
#[test]
fn analyze_matches_full_responses_on_dac_deck() {
    let deck =
        tranvar::netlist::parse_and_elaborate(include_str!("../crates/netlist/tests/decks/dac.sp"))
            .unwrap();
    let ckt = deck.circuit;
    let metrics: Vec<MetricSpec> = (1..8)
        .map(|k| {
            let name = format!("tap{k}");
            let node = ckt.find_node(&name).unwrap();
            MetricSpec::new(&name, Metric::DcAverage { node })
        })
        .collect();
    let mut opts = PssOptions::default();
    opts.n_steps = 16;
    let config = PssConfig::Driven { period: 1e-6, opts };
    assert_analyze_matches_oracle(&ckt, &config, &metrics);
}

/// An adaptive (non-uniform) grid takes the time-weighted mean and the
/// spacing-weighted slope; the metrics share a node (mean and crossing on
/// `c`) and read different depths.
#[test]
fn analyze_matches_full_responses_on_adaptive_grid() {
    let period = 10e-6;
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    let c = ckt.node("c");
    ckt.add_vsource(
        "V1",
        a,
        NodeId::GROUND,
        Waveform::Pulse(Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 1e-6,
            rise: 1e-7,
            fall: 1e-7,
            width: 4e-6,
            period,
        }),
    );
    let r1 = ckt.add_resistor("R1", a, b, 1e3);
    let r2 = ckt.add_resistor("R2", b, c, 2e3);
    let c1 = ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
    let c2 = ckt.add_capacitor("C2", c, NodeId::GROUND, 1e-9);
    ckt.annotate_resistor_mismatch(r1, 10.0);
    ckt.annotate_resistor_mismatch(r2, 20.0);
    ckt.annotate_capacitor_mismatch(c1, 1e-11);
    ckt.annotate_capacitor_mismatch(c2, 1e-11);
    let mut opts = PssOptions::default();
    opts.n_steps = 64;
    opts.step_control = StepControl::Adaptive(AdaptiveOptions::default());
    let config = PssConfig::Driven { period, opts };
    assert!(!is_uniform_grid(
        &solve_pss(&ckt, &config).unwrap().times,
        1e-9
    ));
    let rising = |node, threshold| Metric::CrossingShift {
        node,
        threshold,
        edge: Edge::Rising,
        t_after: 1e-6,
        t_ref: 1e-6,
    };
    let metrics = [
        MetricSpec::new("dly_c", rising(c, 0.3)),
        MetricSpec::new("avg_c", Metric::DcAverage { node: c }),
        MetricSpec::new("dly_b", rising(b, 0.5)),
    ];
    assert_analyze_matches_oracle(&ckt, &config, &metrics);
}

/// A logic-path VDD × σ grid: every scenario of `Campaign::run` (one and
/// two workers, with and without the retry ladder) equals
/// `scenario_reports` on the `solve_unique` product of its key.
#[test]
fn campaign_matches_scenario_reports_on_logic_path() {
    let lp = LogicPath::new(&Tech::t013(), ArrivalOrder::XFirst);
    let config = PssConfig::Driven {
        period: lp.period,
        opts: lp.pss_options(),
    };
    let metrics = lp.delay_metrics();
    let vdd = lp.circuit.find_device("VDD").unwrap();
    let mut scenarios = Vec::new();
    for v in [1.1, 1.2] {
        for factor in [1.0, 2.0] {
            scenarios.push(Scenario::new(
                format!("vdd={v} sigma×{factor}"),
                vec![
                    CircuitOverride::SourceDc {
                        device: vdd,
                        value: v,
                    },
                    CircuitOverride::SigmaScale { factor },
                ],
            ));
        }
    }
    let (keys, key_of) = solve_groups(&scenarios);
    assert_eq!(keys.len(), 2);
    let solves: Vec<_> = keys
        .iter()
        .map(|key| {
            let mut session = Session::default();
            let mut stats = SessionStats::default();
            solve_unique(
                &mut session,
                &lp.circuit,
                key,
                &config,
                &RetryPolicy::none(),
                0,
                &mut stats,
            )
            .outcome
            .unwrap()
        })
        .collect();
    let oracle: Vec<Vec<VariationReport>> = scenarios
        .iter()
        .zip(&key_of)
        .map(|(sc, &k)| {
            let (pss, responses) = &solves[k];
            scenario_reports(&lp.circuit, sc, pss, responses, &metrics).unwrap()
        })
        .collect();
    for (threads, retry) in [(1, false), (2, false), (2, true)] {
        let mut campaign = Campaign::new(config.clone(), metrics.clone()).with_threads(threads);
        if retry {
            campaign = campaign.with_retry(RetryPolicy::default());
        }
        let res = campaign.run(&lp.circuit, &scenarios).unwrap();
        assert_eq!(res.n_unique_solves, 2);
        for ((oc, want), &k) in res.outcomes.iter().zip(&oracle).zip(&key_of) {
            let got = oc.result.as_ref().unwrap();
            let ctx = format!("threads {threads} retry {retry} {}", oc.scenario);
            assert_bits_eq(&got.reports, want, &ctx);
            // Scenarios sharing a solve share its orbit, equal to the oracle's.
            let first = key_of.iter().position(|&j| j == k).unwrap();
            let shared = res.outcomes[first].result.as_ref().unwrap();
            assert!(std::sync::Arc::ptr_eq(&got.pss, &shared.pss), "{ctx}");
            assert_eq!(got.pss.states, solves[k].0.states, "{ctx}");
        }
    }
}
