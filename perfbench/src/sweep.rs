//! `sigma-sweep`: closed loop; each op is one `core::Campaign::run` of the
//! logic path with workers = nproc over a fresh seeded grid of supply
//! corners × σ-scale levels — 12 scenarios sharing one unique solve per
//! corner. The grid shapes (2×6, 1×12, 4×3) are the op classes.

use crate::gen::{SweepGrid, SweepGrids, SWEEP_SHAPES, SWEEP_SHAPE_NAMES};
use crate::paper::{self, PaperCircuit};
use crate::run::{self, Args, Report};
use crate::stats;
use crate::trace::{self, Tracer};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tranvar::circuit::{CircuitOverride, DeviceId};
use tranvar::core::{
    scenario_reports, solve_groups, solve_pss_in, Campaign, CampaignResult, Scenario,
};
use tranvar::engine::{DcOptions, Session, SessionOptions};
use tranvar::lptv::PeriodicSolver;
use tranvar::pss::monodromy_threaded;

/// Scenarios per campaign run.
pub const SCENARIOS: usize = 12;

/// Highest percentile the gated tails are taken at: a 30-second run makes
/// fifty to seventy campaign runs per grid shape, above the forty p75
/// needs.
const TAIL_PCT: f64 = 75.0;

/// Set-up state.
pub struct Sweep {
    base: PaperCircuit,
    vdd: DeviceId,
    campaign: Campaign,
    workers: usize,
}

/// Elaborates the logic path and runs one warm-up campaign per grid shape.
///
/// # Errors
///
/// A deck or warm-up failure.
pub fn setup() -> Result<Sweep, String> {
    let base = paper::elaborate("logic_path", paper::DECKS[1])?;
    let vdd = base.circuit.find_device("VDD").map_err(|e| e.to_string())?;
    let workers = run::nproc();
    let campaign = Campaign::new(base.config.clone(), base.metrics.clone()).with_threads(workers);
    let s = Sweep {
        base,
        vdd,
        campaign,
        workers,
    };
    for warm in SweepGrids::new(0).take(SWEEP_SHAPES.len()) {
        let res = s
            .run_grid(&warm)
            .map_err(|e| format!("warm-up campaign: {e}"))?;
        if !s.check(&warm, &res) {
            return Err("warm-up campaign failed its oracle".into());
        }
    }
    Ok(s)
}

impl Sweep {
    fn scenarios(&self, g: &SweepGrid) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(SCENARIOS);
        for (ci, &v) in g.vdd.iter().enumerate() {
            for (si, &f) in g.sigma.iter().enumerate() {
                out.push(Scenario::new(
                    format!("vdd{ci}-s{si}"),
                    vec![
                        CircuitOverride::SourceDc {
                            device: self.vdd,
                            value: v,
                        },
                        CircuitOverride::SigmaScale { factor: f },
                    ],
                ));
            }
        }
        out
    }

    fn run_grid(&self, g: &SweepGrid) -> Result<CampaignResult, tranvar::core::CoreError> {
        self.campaign.run(&self.base.circuit, &self.scenarios(g))
    }

    /// The oracle: one unique solve per corner, every scenario succeeded,
    /// and within a corner σ/scale is the same for every σ-scale level (σ
    /// is linear in the mismatch scale) while the nominal is bit-identical.
    fn check(&self, g: &SweepGrid, res: &CampaignResult) -> bool {
        if res.n_unique_solves != g.vdd.len() || res.outcomes.len() != SCENARIOS {
            return false;
        }
        let mut ok = true;
        for row in res.outcomes.chunks(g.sigma.len()) {
            let Ok(first) = &row[0].result else {
                return false;
            };
            for (si, oc) in row.iter().enumerate() {
                let Ok(r) = &oc.result else {
                    return false;
                };
                for (m, rep) in r.reports.iter().enumerate() {
                    let unit = first.reports[m].sigma() / g.sigma[0];
                    let s = rep.sigma();
                    ok &= s.is_finite()
                        && s > 0.0
                        && ((s / g.sigma[si]) - unit).abs() <= 1e-12 * unit
                        && rep.nominal.to_bits() == first.reports[m].nominal.to_bits();
                }
            }
        }
        ok
    }
}

/// End-to-end run.
pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let (sw, setup_s) = run::repeated_setup(setup)?;
    let mut lat = vec![Vec::new(); SWEEP_SHAPES.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    for g in SweepGrids::new(args.seed) {
        if Instant::now() >= deadline {
            break;
        }
        let t = Instant::now();
        let res = sw.run_grid(&g);
        lat[g.shape].push(t.elapsed().as_secs_f64() * 1e3);
        rep.op(res.map(|r| sw.check(&g, &r)).unwrap_or(false));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let scenarios_per_s = (rep.attempted as usize * SCENARIOS) as f64 / elapsed;
    println!("campaign runs on {} workers", sw.workers);
    println!("metric scenarios_per_s = {scenarios_per_s} 1/s (observed)");
    rep.print_failed_share();
    rep.metric("setup_s", setup_s, "s");
    let per = rep.classes("campaign_ms", SWEEP_SHAPE_NAMES, &lat, TAIL_PCT);
    // As on `table2`, the gated rate is the one a client can count on: a
    // round of the three grid shapes with every run at its tail latency.
    let round_ms: f64 = per.iter().map(|l| l.tail).sum();
    rep.metric(
        "throughput_per_s",
        1e3 * (SWEEP_SHAPES.len() * SCENARIOS) as f64 / round_ms,
        "1/s",
    );
    rep.metric("peak_rss_mb", run::peak_rss_mb(), "MB");
    Ok(())
}

/// Replays one campaign outside-in: the solve phase (each unique solve as
/// `solve_pss_in` → `PeriodicSolver::with_session` →
/// `all_param_responses` on worker sessions like the campaign's), then
/// `scenario_reports` per scenario. Returns the replayed σ bits per
/// scenario, and the solve-phase and summed assembly wall times (ms).
fn replay(
    sw: &Sweep,
    tr: &Tracer,
    op: u64,
    scenarios: &[Scenario],
    counters: &Mutex<BTreeMap<&'static str, f64>>,
) -> Result<(Vec<Vec<u64>>, f64, f64), String> {
    let (keys, key_of) = solve_groups(scenarios);
    let inner = if sw.workers > 1 { 1 } else { 0 };
    let solver = run::newton_of(&sw.base.config).solver;
    let root = tr.begin("core.campaign_replay", None, op);
    let phase = tr.begin("core.solve_phase", Some(root), op);
    let t_phase = Instant::now();
    let chunk = keys.len().div_ceil(sw.workers).max(1);
    let solves: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|ks| {
                s.spawn(move || {
                    let mut session = Session::new(SessionOptions {
                        solver,
                        threads: inner,
                    });
                    ks.iter()
                        .map(|key| {
                            let u = tr.begin("core.unique_solve", Some(phase), op);
                            let mut ckt = sw.base.circuit.clone();
                            ckt.revalue(key).map_err(|e| e.to_string())?;
                            let (config, budget) = run::counting(&sw.base.config);
                            let pss = tr
                                .span("pss.solve", Some(u), op, || {
                                    solve_pss_in(&mut session, &ckt, &config)
                                })
                                .map_err(|e| e.to_string())?;
                            let lptv = tr
                                .span("lptv.boundary", Some(u), op, || {
                                    PeriodicSolver::with_session(&ckt, &pss, &session)
                                })
                                .map_err(|e| e.to_string())?;
                            let responses = tr
                                .span("lptv.responses", Some(u), op, || lptv.all_param_responses())
                                .map_err(|e| e.to_string())?;
                            drop(lptv);
                            tr.end(u);
                            let mut c = counters.lock().expect("counter lock");
                            *c.entry("pss.newton_iters").or_default() +=
                                budget.newton_iters() as f64;
                            *c.entry("pss.factorizations").or_default() +=
                                budget.factorizations() as f64;
                            Ok((ckt, pss, responses))
                        })
                        .collect::<Vec<Result<_, String>>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let solve_ms = t_phase.elapsed().as_secs_f64() * 1e3;
    tr.end(phase);
    let solves = solves.into_iter().collect::<Result<Vec<_>, String>>()?;
    let mut bits = Vec::with_capacity(scenarios.len());
    let mut assembly_ms = 0.0;
    for (sc, &k) in scenarios.iter().zip(&key_of) {
        let (_, pss, responses) = &solves[k];
        let t = Instant::now();
        let reports = tr
            .span("core.scenario_reports", Some(root), op, || {
                scenario_reports(&sw.base.circuit, sc, pss, responses, &sw.base.metrics)
            })
            .map_err(|e| e.to_string())?;
        assembly_ms += t.elapsed().as_secs_f64() * 1e3;
        bits.push(run::sigma_bits(&reports));
    }
    tr.end(root);
    // Probes outside the replay, per unique solve: the DC seed on a fresh
    // session and one monodromy round over the converged records.
    for (ckt, pss, _) in &solves {
        tr.span("engine.dc", None, op, || {
            Session::with_solver(solver).dc_operating_point(
                ckt,
                &DcOptions {
                    newton: run::newton_of(&sw.base.config).clone(),
                    ..DcOptions::default()
                },
            )
        })
        .map_err(|e| e.to_string())?;
        tr.span("pss.monodromy", None, op, || {
            monodromy_threaded(&pss.records, ckt.n_unknowns(), inner)
        });
    }
    Ok((bits, solve_ms, assembly_ms))
}

/// Traced run: an untraced campaign, then the same grid traced — the
/// `Campaign::run` call in a span, followed by its outside-in replay.
pub fn run_traced(args: &Args, rep: &mut Report) -> Result<(), String> {
    let (sw, _) = run::repeated_setup(setup)?;
    let tr = Tracer::default();
    let counters = Mutex::new(BTreeMap::new());
    let (mut plain, mut traced, mut other, mut solve_phase, mut assembly) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut unique_solves = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    for (op, g) in SweepGrids::new(args.seed).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let op = op as u64;
        let t = Instant::now();
        let res = sw.run_grid(&g);
        let plain_ms = t.elapsed().as_secs_f64() * 1e3;
        rep.op(res.map(|r| sw.check(&g, &r)).unwrap_or(false));

        let scenarios = sw.scenarios(&g);
        unique_solves += g.vdd.len();
        if tr
            .span("netlist.parse_elaborate", None, op, || {
                paper::elaborate("logic_path", paper::DECKS[1])
            })
            .is_err()
        {
            rep.op(false);
            continue;
        }
        let t = Instant::now();
        let res = tr.span("core.campaign_run", None, op, || {
            sw.campaign.run(&sw.base.circuit, &scenarios)
        });
        let run_ms = t.elapsed().as_secs_f64() * 1e3;
        plain.push(plain_ms);
        traced.push(run_ms);
        let Ok(res) = res else {
            rep.op(false);
            continue;
        };
        {
            let mut c = counters.lock().expect("counter lock");
            *c.entry("engine.symbolic_analyses").or_default() += res.stats.symbolic_analyses as f64;
            *c.entry("engine.numeric_factorizations").or_default() +=
                res.stats.numeric_factorizations as f64;
        }
        let ok = match replay(&sw, &tr, op, &scenarios, &counters) {
            Ok((bits, s_ms, a_ms)) => {
                solve_phase.push(s_ms);
                assembly.push(a_ms);
                other.push(run_ms - s_ms - a_ms);
                let run_bits: Vec<Vec<u64>> = res
                    .outcomes
                    .iter()
                    .map(|o| {
                        o.result
                            .as_ref()
                            .map(|r| run::sigma_bits(&r.reports))
                            .unwrap_or_default()
                    })
                    .collect();
                sw.check(&g, &res) && bits == run_bits
            }
            Err(_) => false,
        };
        rep.op(ok);
    }
    let spans = tr.spans();
    let path = args
        .trace_dir
        .join(format!("sigma-sweep-seed{}.jsonl", args.seed));
    trace::write_jsonl(&spans, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "trace written to {} ({} spans)",
        path.display(),
        spans.len()
    );

    let n_ops = traced.len().max(1) as f64;
    let totals = trace::totals(&spans);
    let tot = |n: &str| totals.get(n).map_or(0.0, |t| t.total_ms) / n_ops;
    let counters = counters.into_inner().expect("counter lock");
    let cnt = |n: &str| counters.get(n).copied().unwrap_or(0.0) / n_ops;
    let run_ms = stats::mean(&traced);
    let other_ms = stats::mean(&other);
    let overhead = stats::paired_overhead(&traced, &plain);
    println!(
        "layers: Campaign::run {:.3} ms; replay solve phase {:.3} ms (pss.solve {:.3} + lptv.boundary {:.3} + lptv.responses {:.3}, summed over {} workers), core.scenario_reports {:.3} ms, core.campaign_other_ms {:.3} ms (coverage {:.2}%)",
        run_ms,
        stats::mean(&solve_phase),
        tot("pss.solve"),
        tot("lptv.boundary"),
        tot("lptv.responses"),
        sw.workers,
        stats::mean(&assembly),
        other_ms,
        100.0 * (1.0 - other_ms / run_ms)
    );
    println!(
        "metric core.scenario_reports_ms = {} ms\nmetric core.campaign_other_ms = {other_ms} ms\ntracing overhead {overhead:.3} ms",
        stats::mean(&assembly)
    );
    let dc = tot("engine.dc");
    let solve = tot("pss.solve");
    rep.metric(
        "netlist.parse_elaborate_ms",
        tot("netlist.parse_elaborate"),
        "ms",
    );
    rep.metric("engine.dc_ms", dc, "ms");
    rep.metric("pss.solve_ms", solve, "ms");
    rep.metric("pss.shooting_ms", solve - dc, "ms");
    rep.metric("pss.monodromy_ms", tot("pss.monodromy"), "ms");
    rep.metric("pss.newton_iters", cnt("pss.newton_iters"), "count");
    rep.metric("pss.factorizations", cnt("pss.factorizations"), "count");
    rep.metric("lptv.boundary_ms", tot("lptv.boundary"), "ms");
    rep.metric("lptv.responses_ms", tot("lptv.responses"), "ms");
    rep.metric("core.report_ms", tot("core.scenario_reports"), "ms");
    rep.metric(
        "engine.symbolic_analyses",
        cnt("engine.symbolic_analyses"),
        "count",
    );
    rep.metric(
        "engine.numeric_factorizations",
        cnt("engine.numeric_factorizations"),
        "count",
    );
    rep.metric(
        "core.share_ratio",
        (traced.len() * SCENARIOS) as f64 / unique_solves.max(1) as f64,
        "ratio",
    );
    rep.metric("op.self_ms", other_ms, "ms");
    rep.metric("op.coverage", 1.0 - other_ms / run_ms, "ratio");
    rep.metric("trace.overhead_ms", overhead, "ms");
    Ok(())
}
