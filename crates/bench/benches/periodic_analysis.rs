//! Periodic-engine benches: the batched/threaded monodromy accumulation and
//! LPTV parameter propagation against their retained sequential references,
//! on the paper's two periodic workloads (ring-oscillator PSS, StrongARM
//! comparator mismatch). The gated `speedup` figures are measured against
//! the per-column/per-parameter *sequential* references.
//!
//! Emits `BENCH_pss.json` (median wall times, speedups, and the max absolute
//! result difference — required to be exactly 0) at the workspace root,
//! mirroring `BENCH_transens.json`: the machine-readable performance
//! trajectory the CI bench-regression gate (`compare_bench`) checks against
//! the committed baseline. The batched side runs on the default session's
//! worker count (the `"threads"` figure: one, the calling thread), the
//! configuration the committed baselines were measured in. Its
//! `shooting_counts` row records the Newton
//! iterations and factorizations of one `analyze` per paper deck, and the
//! Newton iterations of one recorded cycle from the solved orbit start;
//! these are counts, not times, and the gate holds each at or below its
//! committed value. Its `assembly_refresh` row times the transient step's
//! in-place assembly refresh against a full assembly over the logic path's
//! orbit states, with a `max_abs_diff` that must be 0.

use std::io::Write;
use tranvar_bench::{bench_times, fmt_time, median};
use tranvar_circuit::{Assembly, Circuit};
use tranvar_circuits::{ArrivalOrder, LogicPath, RingOsc, StrongArm, Tech};
use tranvar_core::prelude::*;
use tranvar_core::solve_pss;
use tranvar_engine::tran::{integrate_cycle, CycleWorkspace};
use tranvar_engine::{BudgetLimits, NewtonOptions, Session, SolveBudget};
use tranvar_lptv::PeriodicSolver;
use tranvar_pss::{autonomous_pss, monodromy_seq, monodromy_threaded, shooting_pss};

struct Comparison {
    sequential_median_s: f64,
    /// The batched side on the default session (gated).
    batched_median_s: f64,
    max_abs_diff: f64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.sequential_median_s / self.batched_median_s
    }

    fn print(&self, name: &str, seq_iters: usize, bat_iters: usize) {
        println!(
            "{name}/sequential {:>12}   ({seq_iters} iters)",
            fmt_time(self.sequential_median_s)
        );
        println!(
            "{name}/batched    {:>12}   ({bat_iters} iters)",
            fmt_time(self.batched_median_s)
        );
        println!("{name}/speedup    {:>11.2}x", self.speedup());
    }
}

fn bench_budget(quick: bool) -> (usize, f64) {
    if quick {
        (5, 1.0)
    } else {
        (10, 3.0)
    }
}

/// Monodromy accumulation on the paper's 5-stage ring oscillator: the
/// interleaved+threaded column propagation vs the per-column allocating
/// reference, over the records of one converged autonomous PSS solve.
fn bench_ring_monodromy(quick: bool) -> (Comparison, String) {
    let tech = Tech::t013();
    let ring = RingOsc::paper(&tech);
    let sol = autonomous_pss(
        &ring.circuit,
        ring.period_hint,
        ring.stages[0],
        ring.phase_value,
        &ring.osc_options(),
    )
    .expect("ring oscillator PSS");
    let n = ring.circuit.n_unknowns();

    // Correctness gate: both paths must agree exactly.
    let m_seq = monodromy_seq(&sol.records, n);
    let threads = Session::default().threads();
    let m_bat = monodromy_threaded(&sol.records, n, threads);
    let mut max_abs_diff = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            max_abs_diff = max_abs_diff.max((m_bat[(i, j)] - m_seq[(i, j)]).abs());
        }
    }
    assert!(
        max_abs_diff == 0.0,
        "monodromy paths disagree: {max_abs_diff:e}"
    );

    let (min_iters, min_time) = bench_budget(quick);
    let seq_times = bench_times(min_iters, min_time, || {
        monodromy_seq(&sol.records, n);
    });
    let bat_times = bench_times(min_iters, min_time, || {
        monodromy_threaded(&sol.records, n, threads);
    });
    let cmp = Comparison {
        sequential_median_s: median(&seq_times),
        batched_median_s: median(&bat_times),
        max_abs_diff,
    };
    cmp.print("pss_ring_monodromy", seq_times.len(), bat_times.len());
    let json = format!(
        concat!(
            "  \"ring_monodromy\": {{\n",
            "    \"circuit\": \"ring_osc_5stage\",\n",
            "    \"n_unknowns\": {},\n",
            "    \"n_records\": {},\n",
            "    \"sequential_median_s\": {:.6e},\n",
            "    \"batched_median_s\": {:.6e},\n",
            "    \"speedup\": {:.3},\n",
            "    \"max_abs_diff\": {:.3e}\n",
            "  }}"
        ),
        n,
        sol.records.len(),
        cmp.sequential_median_s,
        cmp.batched_median_s,
        cmp.speedup(),
        cmp.max_abs_diff
    );
    (cmp, json)
}

/// LPTV mismatch propagation on the StrongARM comparator: the
/// interleaved+threaded all-parameter pass vs the per-parameter sequential
/// reference, over the records of one driven PSS solve.
fn bench_strongarm_lptv(quick: bool) -> (Comparison, String) {
    let tech = Tech::t013();
    let sa = StrongArm::paper(&tech);
    let n_params = sa.circuit.mismatch_params().len();
    assert!(
        n_params >= 10,
        "StrongARM must expose >= 10 mismatch parameters, has {n_params}"
    );
    let sol = shooting_pss(&sa.circuit, sa.period, &sa.pss_options()).expect("StrongARM PSS");
    let solver = PeriodicSolver::with_session(&sa.circuit, &sol, &Session::default()).unwrap();

    // Correctness gate: batched/threaded vs sequential reference.
    let batched = solver.all_param_responses().unwrap();
    let seq = solver.all_param_responses_seq().unwrap();
    let mut max_abs_diff = 0.0f64;
    for (b, s) in batched.iter().zip(seq.iter()) {
        max_abs_diff = max_abs_diff.max((b.dperiod - s.dperiod).abs());
        for (bs, ss) in b.dx.iter().zip(s.dx.iter()) {
            for (x, y) in bs.iter().zip(ss.iter()) {
                max_abs_diff = max_abs_diff.max((x - y).abs());
            }
        }
    }
    assert!(
        max_abs_diff == 0.0,
        "LPTV batched and sequential paths disagree: {max_abs_diff:e}"
    );

    let (min_iters, min_time) = bench_budget(quick);
    let seq_times = bench_times(min_iters, min_time, || {
        solver.all_param_responses_seq().unwrap();
    });
    let bat_times = bench_times(min_iters, min_time, || {
        solver.all_param_responses().unwrap();
    });
    let cmp = Comparison {
        sequential_median_s: median(&seq_times),
        batched_median_s: median(&bat_times),
        max_abs_diff,
    };
    cmp.print("lptv_strongarm_params", seq_times.len(), bat_times.len());
    let json = format!(
        concat!(
            "  \"strongarm_lptv\": {{\n",
            "    \"circuit\": \"strongarm\",\n",
            "    \"n_params\": {},\n",
            "    \"n_records\": {},\n",
            "    \"sequential_median_s\": {:.6e},\n",
            "    \"batched_median_s\": {:.6e},\n",
            "    \"speedup\": {:.3},\n",
            "    \"max_abs_diff\": {:.3e}\n",
            "  }}"
        ),
        n_params,
        sol.records.len(),
        cmp.sequential_median_s,
        cmp.batched_median_s,
        cmp.speedup(),
        cmp.max_abs_diff
    );
    (cmp, json)
}

/// The largest `|a − b|` between two assemblies of one circuit over `f`,
/// `q`, the `G` and `C` values and every MOSFET operating point. Values
/// that differ only in their bits (a NaN, or `−0.0` against `+0.0`) count
/// as the smallest positive gap; different stamp patterns as an infinite
/// one.
fn assembly_gap(a: &Assembly, b: &Assembly) -> f64 {
    let coords = |asm: &Assembly| -> Vec<(usize, usize)> {
        let stamps = asm.g.iter().chain(asm.c.iter());
        stamps.map(|&(r, c, _)| (r, c)).collect()
    };
    let values = |asm: &Assembly| -> Vec<f64> {
        let ops = asm.mos_ops.iter().flat_map(|o| {
            [
                o.ids,
                o.di_dvd,
                o.di_dvg,
                o.di_dvs,
                o.di_dvt,
                o.di_dbeta_rel,
            ]
        });
        let stamps = asm.g.iter().chain(asm.c.iter()).map(|&(_, _, v)| v);
        let fq = asm.f.iter().chain(&asm.q).copied();
        fq.chain(stamps).chain(ops).collect()
    };
    let (va, vb) = (values(a), values(b));
    if coords(a) != coords(b) || va.len() != vb.len() {
        return f64::INFINITY;
    }
    let gap = |(x, y): (&f64, &f64)| {
        if x.to_bits() == y.to_bits() {
            0.0
        } else {
            (x - y).abs().max(f64::MIN_POSITIVE)
        }
    };
    va.iter().zip(&vb).map(gap).fold(0.0, f64::max)
}

/// The transient step's assembly refresh ([`Circuit::refresh_into`],
/// which rewrites only the state-dependent stamps of a built buffer)
/// against a full [`Circuit::assemble_into`], both over every state of the
/// logic path's solved orbit.
fn bench_assembly_refresh(quick: bool) -> String {
    let tech = Tech::t013();
    let path = LogicPath::new(&tech, ArrivalOrder::XFirst);
    let ckt = &path.circuit;
    let sol = shooting_pss(ckt, path.period, &path.pss_options()).expect("logic-path PSS");
    let points: Vec<(&[f64], f64)> = sol
        .states
        .iter()
        .zip(&sol.times)
        .map(|(x, &t)| (x.as_slice(), t))
        .collect();
    let mut full = ckt.assemble(points[0].0, points[0].1);
    let mut refreshed = full.clone();

    // Correctness gate: every refresh equals a fresh assembly exactly.
    let mut max_abs_diff = 0.0f64;
    for &(x, t) in &points {
        ckt.assemble_into(x, t, &mut full);
        ckt.refresh_into(x, t, &mut refreshed);
        max_abs_diff = max_abs_diff.max(assembly_gap(&full, &refreshed));
    }
    assert!(
        max_abs_diff == 0.0,
        "assembly refresh disagrees with a full assembly: {max_abs_diff:e}"
    );

    let (min_iters, min_time) = bench_budget(quick);
    let full_times = bench_times(min_iters, min_time, || {
        for &(x, t) in &points {
            ckt.assemble_into(x, t, &mut full);
        }
    });
    let refresh_times = bench_times(min_iters, min_time, || {
        for &(x, t) in &points {
            ckt.refresh_into(x, t, &mut refreshed);
        }
    });
    let (full_s, refresh_s) = (median(&full_times), median(&refresh_times));
    let speedup = full_s / refresh_s;
    println!(
        "assembly_refresh/full    {:>12}   ({} states)",
        fmt_time(full_s),
        points.len()
    );
    println!("assembly_refresh/refresh {:>12}", fmt_time(refresh_s));
    println!("assembly_refresh/speedup {speedup:>11.2}x");
    format!(
        concat!(
            "  \"assembly_refresh\": {{\n",
            "    \"circuit\": \"logic_path\",\n",
            "    \"n_states\": {},\n",
            "    \"full_median_s\": {:.6e},\n",
            "    \"refresh_median_s\": {:.6e},\n",
            "    \"speedup\": {:.3},\n",
            "    \"max_abs_diff\": {:.3e}\n",
            "  }}"
        ),
        points.len(),
        full_s,
        refresh_s,
        speedup,
        max_abs_diff
    )
}

/// Newton iterations and factorizations of one `analyze` of `config` on a
/// fresh session, read through a counting budget.
fn analyze_counts(ckt: &Circuit, mut config: PssConfig, metrics: &[MetricSpec]) -> (u64, u64) {
    let budget = SolveBudget::new(BudgetLimits::default().max_newton_iters(u64::MAX));
    match &mut config {
        PssConfig::Driven { opts, .. } => opts.newton.budget = budget.clone(),
        PssConfig::Autonomous { opts, .. } => opts.pss.newton.budget = budget.clone(),
    }
    analyze(ckt, &config, metrics).expect("paper deck analysis");
    (budget.newton_iters(), budget.factorizations())
}

/// Newton iterations of one recorded `integrate_cycle` of `config` from
/// the start of its solved orbit, read through a counting budget: the
/// price of the steps whose `J_k`/`B_k` LPTV replays.
fn recorded_cycle_iters(ckt: &Circuit, config: &PssConfig) -> u64 {
    let sol = solve_pss(ckt, config).expect("paper deck PSS");
    let opts = match config {
        PssConfig::Driven { opts, .. } => opts,
        PssConfig::Autonomous { opts, .. } => &opts.pss,
    };
    let newton = NewtonOptions {
        budget: SolveBudget::new(BudgetLimits::default().max_newton_iters(u64::MAX)),
        ..opts.newton.clone()
    };
    integrate_cycle(
        ckt,
        &mut CycleWorkspace::new(),
        &sol.states[0],
        sol.times[0],
        sol.period,
        opts.n_steps,
        &opts.step_control,
        opts.method,
        &newton,
        opts.gmin,
        true,
    )
    .expect("recorded cycle from the orbit start");
    newton.budget.newton_iters()
}

/// The `shooting_counts` row: [`analyze_counts`] of each paper deck
/// (StrongARM offset, logic-path delays, ring-oscillator f0) and its
/// [`recorded_cycle_iters`].
fn shooting_counts() -> String {
    let tech = Tech::t013();
    let sa = StrongArm::paper(&tech);
    let path = LogicPath::new(&tech, ArrivalOrder::XFirst);
    let ring = RingOsc::paper(&tech);
    let decks = [
        (
            "strongarm",
            &sa.circuit,
            PssConfig::Driven {
                period: sa.period,
                opts: sa.pss_options(),
            },
            vec![sa.offset_metric()],
        ),
        (
            "logic_path",
            &path.circuit,
            PssConfig::Driven {
                period: path.period,
                opts: path.pss_options(),
            },
            path.delay_metrics(),
        ),
        (
            "ring_osc",
            &ring.circuit,
            PssConfig::Autonomous {
                period_hint: ring.period_hint,
                phase_node: ring.stages[0],
                phase_value: ring.phase_value,
                opts: ring.osc_options(),
            },
            vec![MetricSpec::new("f0", Metric::Frequency)],
        ),
    ];
    let rows: Vec<String> = decks
        .into_iter()
        .map(|(name, ckt, config, metrics)| {
            let cycle_iters = recorded_cycle_iters(ckt, &config);
            let (iters, factors) = analyze_counts(ckt, config, &metrics);
            println!(
                "shooting_counts/{name}: {iters} newton iterations, {factors} factorizations, \
                 {cycle_iters} per recorded cycle"
            );
            format!(
                "    \"{name}\": {{ \"newton_iters\": {iters}, \"factorizations\": {factors}, \
                 \"recorded_cycle_iters\": {cycle_iters} }}"
            )
        })
        .collect();
    format!("  \"shooting_counts\": {{\n{}\n  }}", rows.join(",\n"))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (ring, ring_json) = bench_ring_monodromy(quick);
    let (lptv, lptv_json) = bench_strongarm_lptv(quick);
    let refresh_json = bench_assembly_refresh(quick);
    let counts_json = shooting_counts();
    assert!(
        ring.speedup() >= 2.0,
        "ring monodromy batched/threaded speedup {:.2}x below the 2x floor",
        ring.speedup()
    );
    assert!(
        lptv.speedup() >= 1.0,
        "LPTV batched path slower than the per-parameter reference: {:.2}x",
        lptv.speedup()
    );
    let json = format!(
        "{{\n  \"bench\": \"periodic_analysis\",\n  \"threads\": {},\n{ring_json},\n{lptv_json},\n{refresh_json},\n{counts_json}\n}}\n",
        Session::default().threads(),
    );
    // Emit at the workspace root regardless of the bench's working dir.
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pss.json");
    std::fs::File::create(out_path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .expect("write BENCH_pss.json");
    println!("wrote {out_path}");
}
