//! Benches of the pseudo-noise flow per benchmark circuit, split into the
//! PSS stage and the LPTV+metrics stage (the paper's cost model: the LPTV
//! stage is nearly free next to the PSS solve), plus the batched-vs-
//! sequential transient-sensitivity comparison.
//!
//! The transient-sensitivity section emits `BENCH_transens.json` (median
//! wall time of the ≥10-parameter logic-path run, batched on the default
//! one-worker session vs sequential, and the max absolute result
//! difference) so later performance PRs have a
//! machine-readable trajectory to compare against.

use std::io::Write;
use tranvar_bench::{bench_report, bench_times, fmt_time, median};
use tranvar_circuits::{ArrivalOrder, LogicPath, RingOsc, StrongArm, Tech};
use tranvar_core::prelude::*;
use tranvar_core::{reports_from_responses, solve_pss};
use tranvar_engine::transens::{
    transient_with_sensitivities, transient_with_sensitivities_seq, SensInit,
};
use tranvar_engine::{Session, TranOptions};
use tranvar_lptv::PeriodicSolver;

fn bench_comparator() {
    let tech = Tech::t013();
    let sa = StrongArm::paper(&tech);
    let config = PssConfig::Driven {
        period: sa.period,
        opts: sa.pss_options(),
    };
    bench_report("comparator_offset/pss", || {
        solve_pss(&sa.circuit, &config).unwrap();
    });
    let pss = solve_pss(&sa.circuit, &config).unwrap();
    let session = Session::default();
    bench_report("comparator_offset/lptv+metrics", || {
        let responses = PeriodicSolver::with_session(&sa.circuit, &pss, &session)
            .unwrap()
            .all_param_responses()
            .unwrap();
        reports_from_responses(&sa.circuit, &pss, &responses, &[sa.offset_metric()]).unwrap();
    });
    bench_report("comparator_offset/full", || {
        analyze(&sa.circuit, &config, &[sa.offset_metric()]).unwrap();
    });
}

fn bench_logic_path() {
    let tech = Tech::t013();
    let path = LogicPath::new(&tech, ArrivalOrder::XFirst);
    let config = PssConfig::Driven {
        period: path.period,
        opts: path.pss_options(),
    };
    bench_report("logic_path_delay/full", || {
        analyze(&path.circuit, &config, &path.delay_metrics()).unwrap();
    });
}

fn bench_ring() {
    let tech = Tech::t013();
    let ring = RingOsc::paper(&tech);
    let config = PssConfig::Autonomous {
        period_hint: ring.period_hint,
        phase_node: ring.stages[0],
        phase_value: ring.phase_value,
        opts: ring.osc_options(),
    };
    let metrics = [MetricSpec::new("f0", Metric::Frequency)];
    bench_report("ring_osc_frequency/full", || {
        analyze(&ring.circuit, &config, &metrics).unwrap();
    });
}

/// Batched-parallel vs sequential transient forward sensitivity on the
/// logic-path circuit (≥10 mismatch parameters), with machine-readable
/// output for the performance trajectory.
fn bench_transens() {
    let tech = Tech::t013();
    let path = LogicPath::new(&tech, ArrivalOrder::XFirst);
    let n_params = path.circuit.mismatch_params().len();
    assert!(
        n_params >= 10,
        "logic path must expose >= 10 mismatch parameters, has {n_params}"
    );
    // The batched side is the free function: a fresh default session, on
    // one worker, the configuration the committed baseline was measured in.
    let opts = TranOptions::new(path.period, path.period / 400.0);
    let threads = Session::default().threads();
    let batched_run =
        || transient_with_sensitivities(&path.circuit, &opts, SensInit::FromDc).unwrap();

    // Correctness gate first: the two paths must agree to machine precision.
    let batched = batched_run();
    let seq = transient_with_sensitivities_seq(&path.circuit, &opts, SensInit::FromDc).unwrap();
    let mut max_abs_diff = 0.0f64;
    for (bk, sk) in batched.sens.iter().zip(seq.sens.iter()) {
        for (bs, ss) in bk.iter().zip(sk.iter()) {
            for (a, b) in bs.iter().zip(ss.iter()) {
                max_abs_diff = max_abs_diff.max((a - b).abs());
            }
        }
    }
    assert!(
        max_abs_diff < 1e-12,
        "batched and sequential paths disagree: {max_abs_diff:e}"
    );

    let seq_times = bench_times(5, 2.0, || {
        transient_with_sensitivities_seq(&path.circuit, &opts, SensInit::FromDc).unwrap();
    });
    let bat_times = bench_times(5, 2.0, || {
        batched_run();
    });
    let seq_median = median(&seq_times);
    let bat_median = median(&bat_times);
    let speedup = seq_median / bat_median;
    println!(
        "transens_logic_path/sequential          {:>12}   ({} iters)",
        fmt_time(seq_median),
        seq_times.len()
    );
    println!(
        "transens_logic_path/batched             {:>12}   ({} iters)",
        fmt_time(bat_median),
        bat_times.len()
    );
    println!("transens_logic_path/speedup             {speedup:>11.2}x");

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"transens_logic_path\",\n",
            "  \"circuit\": \"logic_path\",\n",
            "  \"n_params\": {},\n",
            "  \"n_steps\": {},\n",
            "  \"threads\": {},\n",
            "  \"sequential_median_s\": {:.6e},\n",
            "  \"batched_median_s\": {:.6e},\n",
            "  \"speedup\": {:.3},\n",
            "  \"max_abs_diff\": {:.3e}\n",
            "}}\n"
        ),
        n_params,
        batched.tran.states.len() - 1,
        threads,
        seq_median,
        bat_median,
        speedup,
        max_abs_diff
    );
    // Emit at the workspace root regardless of the bench's working dir.
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_transens.json");
    std::fs::File::create(out_path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_transens.json");
    println!("wrote {out_path}");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    bench_transens();
    if !quick {
        bench_comparator();
        bench_logic_path();
        bench_ring();
    }
}
