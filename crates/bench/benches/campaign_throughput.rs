//! Campaign-throughput bench: the scenario-campaign layer (per-worker
//! sessions + solve sharing across σ-only scenario variants) against the
//! honest per-call baseline — a sequential loop of free-function `analyze`
//! calls (`run_scenarios_per_call`), one fresh workspace set per scenario.
//!
//! The gated `speedup` figure is measured with **one campaign worker**, so
//! it captures the cached-vs-uncached reuse (session workspaces + shared
//! solves) rather than core count, and stays stable across CI machines —
//! the same convention the other benches use for their gated ratios. The
//! multi-worker wall time is recorded alongside (`parallel_median_s`,
//! ungated) for machines with cores to spare.
//!
//! Emits `BENCH_campaign.json` (scenarios/sec, cached-vs-per-call speedup,
//! and the max absolute report difference — required to be exactly 0) at
//! the workspace root, wired into the `compare_bench` CI regression gate
//! like `BENCH_transens.json` and `BENCH_pss.json`.

use std::io::Write;
use tranvar_bench::{bench_times, fmt_time, median};
use tranvar_circuit::{Circuit, CircuitOverride, NodeId, Pulse, Waveform};
use tranvar_core::{
    run_scenarios_per_call, Campaign, Metric, MetricSpec, PssConfig, Scenario, ScenarioOutcome,
};
use tranvar_num::interp::Edge;
use tranvar_pss::PssOptions;

/// A pulse-driven mismatched RC ladder: linear (fast, exactly reproducible)
/// but with a real per-scenario PSS+LPTV cost and a dozen mismatch sources.
fn ladder(stages: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let top = ckt.node("in");
    ckt.add_vsource(
        "V1",
        top,
        NodeId::GROUND,
        Waveform::Pulse(Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 1e-7,
            rise: 1e-8,
            fall: 1e-8,
            width: 4e-7,
            period: 1e-6,
        }),
    );
    // Stage time constants sized so the whole ladder settles well within
    // each pulse phase: every corner's waveform swings rail-to-rail and
    // crosses the delay threshold.
    let mut prev = top;
    for i in 0..stages {
        let next = ckt.node(&format!("n{i}"));
        let r = 1e3 * (1.0 + 0.2 * i as f64);
        let c = 0.01e-9 * (1.0 + 0.1 * i as f64);
        let rid = ckt.add_resistor(&format!("R{i}"), prev, next, r);
        let cid = ckt.add_capacitor(&format!("C{i}"), next, NodeId::GROUND, c);
        ckt.annotate_resistor_mismatch(rid, 0.01 * r);
        ckt.annotate_capacitor_mismatch(cid, 0.01 * c);
        prev = next;
    }
    ckt
}

/// The corner grid: 4 solve-affecting corners (supply scale × first-stage
/// sizing) × 3 mismatch levels = 12 scenarios, 4 unique solves.
fn grid(ckt: &Circuit) -> Vec<Scenario> {
    let v1 = ckt.find_device("V1").unwrap();
    let r0 = ckt.find_device("R0").unwrap();
    let mut scenarios = Vec::new();
    for (ci, (vs, rs)) in [(0.9, 1.0e3), (0.9, 1.2e3), (1.1, 1.0e3), (1.1, 1.2e3)]
        .iter()
        .enumerate()
    {
        for (si, sf) in [1.0, 1.5, 2.0].iter().enumerate() {
            scenarios.push(Scenario::new(
                format!("c{ci}m{si}"),
                vec![
                    CircuitOverride::SourceScale {
                        device: v1,
                        factor: *vs,
                    },
                    CircuitOverride::Resistance {
                        device: r0,
                        ohms: *rs,
                    },
                    CircuitOverride::SigmaScale { factor: *sf },
                ],
            ));
        }
    }
    scenarios
}

fn max_abs_diff_reports(a: &[ScenarioOutcome], b: &[ScenarioOutcome]) -> f64 {
    let mut d = 0.0f64;
    for (oa, ob) in a.iter().zip(b.iter()) {
        let (ra, rb) = (
            oa.result.as_ref().expect("campaign scenario failed"),
            ob.result.as_ref().expect("per-call scenario failed"),
        );
        for (x, y) in ra.reports.iter().zip(rb.reports.iter()) {
            d = d.max((x.nominal - y.nominal).abs());
            d = d.max((x.sigma() - y.sigma()).abs());
            for (cx, cy) in x.contributions.iter().zip(y.contributions.iter()) {
                d = d.max((cx.sensitivity - cy.sensitivity).abs());
                d = d.max((cx.sigma - cy.sigma).abs());
            }
        }
        for (sa, sb) in ra.pss.states.iter().zip(rb.pss.states.iter()) {
            for (x, y) in sa.iter().zip(sb.iter()) {
                d = d.max((x - y).abs());
            }
        }
    }
    d
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (min_iters, min_time) = if quick { (3, 0.5) } else { (5, 2.0) };
    // The worker count `with_threads(0)` resolves to (all cores).
    let threads = tranvar_engine::effective_threads(0, usize::MAX);

    let ckt = ladder(6);
    let scenarios = grid(&ckt);
    let out = ckt.find_node("n5").unwrap();
    let mid = ckt.find_node("n3").unwrap();
    let mut opts = PssOptions::default();
    opts.n_steps = 48;
    let config = PssConfig::Driven { period: 1e-6, opts };
    let metrics = vec![
        MetricSpec::new("vout", Metric::DcAverage { node: out }),
        MetricSpec::new(
            "rise_delay",
            Metric::CrossingShift {
                node: mid,
                threshold: 0.2,
                edge: Edge::Rising,
                t_after: 1e-7,
                t_ref: 1e-7,
            },
        ),
    ];
    let campaign = Campaign::new(config.clone(), metrics.clone()).with_threads(1);

    // Correctness gate: campaign results must equal the per-call reference
    // exactly, for the single- and the all-cores worker count.
    let reference = run_scenarios_per_call(&ckt, &scenarios, &config, &metrics).unwrap();
    let cached = campaign.run(&ckt, &scenarios).unwrap();
    let parallel = Campaign::new(config.clone(), metrics.clone())
        .with_threads(0)
        .run(&ckt, &scenarios)
        .unwrap();
    let max_abs_diff = max_abs_diff_reports(&cached.outcomes, &reference)
        .max(max_abs_diff_reports(&parallel.outcomes, &reference));
    assert!(
        max_abs_diff == 0.0,
        "campaign and per-call paths disagree: {max_abs_diff:e}"
    );
    assert_eq!(cached.n_unique_solves, 4);

    let fresh_times = bench_times(min_iters, min_time, || {
        run_scenarios_per_call(&ckt, &scenarios, &config, &metrics).unwrap();
    });
    let cached_times = bench_times(min_iters, min_time, || {
        campaign.run(&ckt, &scenarios).unwrap();
    });
    let par_campaign = Campaign::new(config.clone(), metrics.clone()).with_threads(0);
    let par_times = bench_times(min_iters, min_time, || {
        par_campaign.run(&ckt, &scenarios).unwrap();
    });

    let fresh_median = median(&fresh_times);
    let cached_median = median(&cached_times);
    let par_median = median(&par_times);
    let speedup = fresh_median / cached_median;
    let scenarios_per_s = scenarios.len() as f64 / cached_median;
    println!(
        "campaign/per-call  {:>12}   ({} iters)",
        fmt_time(fresh_median),
        fresh_times.len()
    );
    println!(
        "campaign/cached    {:>12}   ({} iters, 1 worker)",
        fmt_time(cached_median),
        cached_times.len()
    );
    println!(
        "campaign/parallel  {:>12}   ({} iters, auto workers)",
        fmt_time(par_median),
        par_times.len()
    );
    println!("campaign/speedup   {speedup:>11.2}x   ({scenarios_per_s:.1} scenarios/s)");
    assert!(
        speedup >= 1.5,
        "cached-session campaign speedup {speedup:.2}x below the 1.5x floor"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"campaign_throughput\",\n",
            "  \"threads\": {},\n",
            "  \"campaign\": {{\n",
            "    \"circuit\": \"rc_ladder_6stage\",\n",
            "    \"n_scenarios\": {},\n",
            "    \"n_unique_solves\": {},\n",
            "    \"n_metrics\": {},\n",
            "    \"fresh_per_call_median_s\": {:.6e},\n",
            "    \"cached_median_s\": {:.6e},\n",
            "    \"parallel_median_s\": {:.6e},\n",
            "    \"scenarios_per_s\": {:.3},\n",
            "    \"speedup\": {:.3},\n",
            "    \"max_abs_diff\": {:.3e}\n",
            "  }}\n",
            "}}\n"
        ),
        threads,
        scenarios.len(),
        cached.n_unique_solves,
        metrics.len(),
        fresh_median,
        cached_median,
        par_median,
        scenarios_per_s,
        speedup,
        max_abs_diff
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    std::fs::File::create(out_path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_campaign.json");
    println!("wrote {out_path}");
}
