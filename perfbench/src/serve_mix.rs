//! `serve-mix`: an in-process `serve::Server` with workers = nproc, driven
//! over loopback by at most nproc client threads, one connection each.
//!
//! Three phases: open loops at the fixed `light` and `heavy` seeded-Poisson
//! rates (each request timed from when it was due), then a closed loop.
//! Bodies are `text/x-spice` StrongARM and logic-path golden decks — a
//! share repeated verbatim (solve-cache hits), the rest with a small value
//! edit and a unique request tag (misses, full solves), some with a
//! `.sweep sigma` card — plus a minority of JSON `divider` requests.
//!
//! The op classes are the closed-loop phase's cache hits on plain decks,
//! StrongARM-deck misses and logic-path-deck misses (told apart by the
//! daemon's `x-tranvar-cache-*` headers), so a change that speeds misses
//! and slows hits moves a gated metric whatever the mix's shares are.

use crate::gen::{self, Body, BodyKind, ServePlan};
use crate::paper;
use crate::run::{self, Args, Report};
use crate::stats::{self, Latency};
use crate::trace::{self, SpanId, Tracer};
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tranvar::core::{
    scenario_reports, solve_groups, solve_pss_in, solve_unique, Campaign, PssConfig,
};
use tranvar::engine::{DcOptions, RetryPolicy, Session, SessionOptions, SessionStats};
use tranvar::lptv::PeriodicSolver;
use tranvar::pss::{monodromy_threaded, PssOptions};
use tranvar_serve::json::{self, Json};
use tranvar_serve::{
    body_from_campaign, body_ok, deck, wire, AnalyzeRequest, Server, ServerConfig,
};

/// Open-loop arrival rate of the `light` phase (requests/s).
pub const LIGHT_RPS: f64 = 10.0;
/// Open-loop arrival rate of the `heavy` phase (requests/s); below the
/// two-worker miss capacity.
pub const HEAVY_RPS: f64 = 20.0;
/// Latency limit a closed-loop response must meet to count as goodput.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// Share of the measured seconds each phase runs: light, heavy, closed.
/// The closed loop gets most of the time because the gated per-class
/// latencies come from it, and each class needs a few hundred samples.
const PHASE_SHARE: [f64; 3] = [0.25, 0.15, 0.6];
/// Names of the op classes: the closed loop's cache hits on decks without
/// a `.sweep` card, StrongARM-deck misses and logic-path-deck misses.
const CLASS_NAMES: [&str; 3] = ["hit", "miss_strongarm", "miss_logic_path"];
/// Highest percentile the gated tails are taken at. A hit takes about a
/// millisecond of work, so above p75 its latency is set by how the two
/// processors happened to be shared with a concurrent miss: a plain hit's
/// p90 moved by more than half between two runs of the mix.
const TAIL_PCT: f64 = 75.0;
/// Phase names, in run order.
const PHASES: [&str; 3] = ["light", "heavy", "closed"];
/// Closed-loop plan length per second of the phase: above any reachable
/// rate, so the loop never runs out of generated requests.
const CLOSED_PLAN_RPS: f64 = 300.0;
/// Solve-cache capacity of the daemon (entries). Small enough that set-up
/// fills it, so resident memory is at steady state before timing starts.
const CACHE_ENTRIES: usize = 16;
/// Distinct missing bodies set-up posts to fill the cache.
const WARMUP_BODIES: u64 = CACHE_ENTRIES as u64 + 4;
/// Requests per phase the traced run replays outside-in.
const REPLAY_PER_PHASE: usize = 40;

/// The analysis configuration the daemon derives from a request.
fn campaign_config(req: &AnalyzeRequest) -> PssConfig {
    let mut opts = PssOptions {
        n_steps: req.n_steps,
        ..PssOptions::default()
    };
    if let Some(w) = req.warmup_cycles {
        opts.warmup_cycles = w;
    }
    if let Some(t) = req.tol {
        opts.tol = t;
    }
    if let Some(s) = req.step_limit {
        opts.newton.step_limit = s;
    }
    PssConfig::Driven {
        period: req.period,
        opts,
    }
}

/// Parses a body the way the daemon's acceptor does.
fn parse(body: &Body) -> Result<AnalyzeRequest, String> {
    match body.kind {
        BodyKind::Spice { .. } => deck::from_spice(&body.text),
        BodyKind::Divider { .. } => wire::parse_request(&body.text),
    }
    .map_err(|e| format!("{}: {}", e.code, e.message))
}

fn goldens() -> [&'static str; 2] {
    [paper::DECKS[0], paper::DECKS[1]]
}

/// Set-up state: a running daemon, the plan and its oracle bodies.
pub struct Mix {
    server: Option<Server>,
    plan: ServePlan,
    /// Expected 200 body per distinct plan body.
    expected: Vec<String>,
    warmups: u64,
    durations: [f64; 3],
}

/// A representative body of a kind (the tag does not change the physics).
fn body_of(kind: BodyKind, tag: u64) -> Body {
    let text = match kind {
        BodyKind::Spice {
            deck,
            variant,
            sweep,
        } => gen::spice_text(goldens()[deck], deck, variant, sweep, tag),
        BodyKind::Divider { variant, sweep } => gen::divider_text(variant, sweep),
    };
    Body { kind, text }
}

/// The deck name the daemon renders a body under.
fn deck_name(body: &Body) -> String {
    match body.kind {
        BodyKind::Spice { .. } => deck::spice_name(&body.text),
        BodyKind::Divider { .. } => "divider".into(),
    }
}

/// The expected 200 body of every body: one in-process `Campaign::run` per
/// body kind, rendered under each body's deck name and dropped before the
/// next kind runs, so the oracle never holds more than one result.
fn expected_bodies(bodies: &[Body]) -> Result<Vec<String>, String> {
    let mut out = vec![String::new(); bodies.len()];
    let mut seen = HashSet::new();
    for kind in bodies.iter().map(|b| b.kind) {
        if !seen.insert(kind) {
            continue;
        }
        let req = parse(&body_of(kind, 0))?;
        let res = Campaign::new(campaign_config(&req), req.metrics.clone())
            .run(&req.circuit, &req.scenarios)
            .map_err(|e| e.to_string())?;
        for (b, slot) in bodies.iter().zip(out.iter_mut()) {
            if b.kind == kind {
                *slot = body_from_campaign(&deck_name(b), &res).1;
            }
        }
    }
    Ok(out)
}

/// Boots the daemon, prepares the oracle body of every distinct plan body,
/// and warms the daemon's sessions with one checked request per kind of
/// deck.
///
/// # Errors
///
/// A bind, oracle or warm-up failure.
pub fn setup(seed: u64, seconds: f64) -> Result<Mix, String> {
    let workers = run::nproc();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_depth: 32,
        cache_entries: CACHE_ENTRIES,
        session_floor: workers,
    })
    .map_err(|e| format!("daemon bind: {e}"))?;
    let durations = PHASE_SHARE.map(|s| s * seconds);
    let plan = ServePlan::new(
        seed,
        &goldens(),
        &[LIGHT_RPS, HEAVY_RPS],
        &durations[..2],
        (CLOSED_PLAN_RPS * durations[2]).ceil() as usize + 16,
    );
    // Warm-up: fresh (missing) bodies of both served decks, tagged from a
    // range no plan uses, until the solve cache is full; then one divider.
    let mut warm: Vec<Body> = (0..WARMUP_BODIES)
        .map(|k| {
            let kind = BodyKind::Spice {
                deck: (k % 2) as usize,
                variant: 0,
                sweep: false,
            };
            body_of(kind, u64::MAX - k)
        })
        .collect();
    warm.push(body_of(
        BodyKind::Divider {
            variant: 0,
            sweep: false,
        },
        0,
    ));
    let mut expected = expected_bodies(&[plan.bodies.as_slice(), warm.as_slice()].concat())?;
    let warm_expected = expected.split_off(plan.bodies.len());
    // Owned by the mix from here, so an early return still drains it.
    let mix = Mix {
        server: Some(server),
        plan,
        expected,
        warmups: warm.len() as u64,
        durations,
    };
    for (b, want) in warm.iter().zip(&warm_expected) {
        let r = post(mix.addr(), b).map_err(|e| format!("warm-up: {e}"))?;
        if r.status != 200 || &r.body != want {
            return Err(format!("warm-up response diverged ({})", r.status));
        }
    }
    Ok(mix)
}

impl Mix {
    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("daemon runs until drop").addr()
    }
}

impl Drop for Mix {
    /// Drains the daemon and joins every one of its threads.
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

/// One response as the client saw it.
#[derive(Clone, Debug)]
struct Reply {
    status: u16,
    hits: u64,
    misses: u64,
    body: String,
}

/// Client-side timestamps of one request.
#[derive(Clone, Copy, Debug)]
struct Times {
    due: Instant,
    sent: Instant,
    connected: Instant,
    first_byte: Instant,
    done: Instant,
}

/// One request's record.
#[derive(Clone, Debug)]
struct Rec {
    body: usize,
    times: Times,
    reply: Option<Reply>,
}

impl Rec {
    fn latency_ms(&self) -> f64 {
        ms(self.times.due, self.times.done)
    }
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

fn header(head: &str, name: &str) -> Option<u64> {
    head.lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case(name))
        .and_then(|(_, v)| v.trim().parse().ok())
}

/// Sends one request on a fresh connection and reads the whole response
/// (the daemon answers `Connection: close`).
fn send(addr: SocketAddr, body: &Body, due: Instant) -> (Times, std::io::Result<Reply>) {
    let sent = Instant::now();
    let mut t = Times {
        due,
        sent,
        connected: sent,
        first_byte: sent,
        done: sent,
    };
    let res = (|| {
        let mut s = TcpStream::connect(addr)?;
        t.connected = Instant::now();
        let head = format!(
            "POST /analyze HTTP/1.1\r\nhost: perfbench\r\ncontent-type: {}\r\ncontent-length: {}\r\n\r\n",
            body.content_type(),
            body.text.len()
        );
        s.write_all(head.as_bytes())?;
        s.write_all(body.text.as_bytes())?;
        let mut raw = Vec::with_capacity(4096);
        let mut buf = [0u8; 4096];
        let n = s.read(&mut buf)?;
        t.first_byte = Instant::now();
        raw.extend_from_slice(&buf[..n]);
        s.read_to_end(&mut raw)?;
        t.done = Instant::now();
        let raw = String::from_utf8(raw)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "unframed response")
        })?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        Ok(Reply {
            status,
            hits: header(head, "x-tranvar-cache-hits").unwrap_or(0),
            misses: header(head, "x-tranvar-cache-misses").unwrap_or(0),
            body: body.to_string(),
        })
    })();
    if res.is_err() {
        t.done = Instant::now();
    }
    (t, res)
}

fn post(addr: SocketAddr, body: &Body) -> std::io::Result<Reply> {
    send(addr, body, Instant::now()).1
}

fn get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.write_all(format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\n\r\n").as_bytes())?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    Ok(raw
        .split_once("\r\n\r\n")
        .map_or(raw.clone(), |(_, b)| b.to_string()))
}

/// Runs one phase with `nproc` client threads. Open loop when `due` is
/// non-empty (request `i` is due at `start + due[i]`); otherwise a closed
/// loop that stops sending at `start + duration`.
fn phase(mix: &Mix, reqs: &[usize], due: &[f64], duration: f64) -> Vec<Rec> {
    let addr = mix.addr();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(duration);
    let open = !due.is_empty();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..run::nproc())
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= reqs.len() {
                            break;
                        }
                        let due_at = if open {
                            let d = start + Duration::from_secs_f64(due[i]);
                            if let Some(wait) = d.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            d
                        } else {
                            let now = Instant::now();
                            if now >= stop {
                                break;
                            }
                            now
                        };
                        let body = reqs[i];
                        let (times, reply) = send(addr, &mix.plan.bodies[body], due_at);
                        out.push((
                            i,
                            Rec {
                                body,
                                times,
                                reply: reply.ok(),
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        let mut all: Vec<(usize, Rec)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, r)| r).collect()
    })
}

/// The op class of a closed-loop record (index into [`CLASS_NAMES`]):
/// a cache hit on a deck without a `.sweep` card, or a miss on a
/// StrongARM or logic-path deck. `None` for the rest: divider requests,
/// `.sweep` hits (whose three scenarios take twice a plain hit's time, so
/// their seed-dependent share would move the hit tail) and requests
/// without a reply.
fn class_of(mix: &Mix, r: &Rec) -> Option<usize> {
    let reply = r.reply.as_ref()?;
    match mix.plan.bodies[r.body].kind {
        BodyKind::Spice { sweep: false, .. } if reply.hits > 0 && reply.misses == 0 => Some(0),
        BodyKind::Spice { deck, .. } if reply.misses > 0 => Some(1 + deck),
        _ => None,
    }
}

/// Whether a record is a byte-correct 200.
fn correct(mix: &Mix, r: &Rec) -> bool {
    r.reply
        .as_ref()
        .is_some_and(|x| x.status == 200 && x.body == mix.expected[r.body])
}

/// Runs the three phases and reports the accounting shared by the
/// untraced and traced runs.
fn drive(mix: &Mix, rep: &mut Report) -> Result<Vec<Vec<Rec>>, String> {
    println!("inputs_digest serve-mix {}", mix.plan.digest().hex());
    let mut phases = Vec::new();
    for (p, name) in PHASES.iter().enumerate() {
        let recs = phase(
            mix,
            &mix.plan.phases[p],
            &mix.plan.arrivals[p],
            mix.durations[p],
        );
        let ok = recs.iter().filter(|r| correct(mix, r)).count();
        for r in &recs {
            rep.op(correct(mix, r));
        }
        println!(
            "phase {name}: sent {}, succeeded {ok}, failed {}",
            recs.len(),
            recs.len() - ok
        );
        phases.push(recs);
    }
    let readyz = get(mix.addr(), "/readyz").map_err(|e| format!("readyz: {e}"))?;
    let readyz = json::parse(&readyz).map_err(|e| format!("readyz: {e}"))?;
    let sent: u64 = phases.iter().map(|p| p.len() as u64).sum::<u64>() + mix.warmups;
    let c = |k: &str| {
        readyz
            .get(k)
            .and_then(Json::as_usize)
            .map_or(u64::MAX, |v| v as u64)
    };
    println!(
        "readyz: accepted {}, completed {}, shed {}, panics {}, write_errors {}, cache_hits {}, cache_misses {} (client sent {sent})",
        c("accepted"),
        c("completed"),
        c("shed"),
        c("panics"),
        c("write_errors"),
        c("cache_hits"),
        c("cache_misses")
    );
    if c("accepted") + c("shed") != sent || c("completed") != sent || c("panics") != 0 {
        println!("ACCOUNTING MISMATCH: client and /readyz counts disagree");
        rep.failed += 1;
    }
    let (hits, misses) = phases
        .iter()
        .flatten()
        .filter_map(|r| r.reply.as_ref())
        .fold((0, 0), |(h, m), x| (h + x.hits, m + x.misses));
    println!(
        "metric serve.cache_hit_ratio = {} ratio (headers: {hits} hits, {misses} misses)",
        hits as f64 / (hits + misses).max(1) as f64
    );
    let late: Vec<f64> = phases[..2]
        .iter()
        .flatten()
        .map(|r| ms(r.times.due, r.times.sent))
        .collect();
    println!(
        "metric serve.gen_late_ms = {} ms (p50; max {:.3} ms)",
        stats::median(&late),
        late.iter().copied().fold(0.0, f64::max)
    );
    Ok(phases)
}

/// End-to-end run.
pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let (mix, setup_s) = run::repeated_setup(|| setup(args.seed, args.seconds))?;
    let phases = drive(&mix, rep)?;
    let lat: Vec<Vec<f64>> = phases
        .iter()
        .map(|p| p.iter().map(Rec::latency_ms).collect())
        .collect();
    for (p, name) in PHASES[..2].iter().enumerate() {
        let l = Latency::of(&lat[p], 100.0);
        println!(
            "serve {name} ({} rps): {}",
            [LIGHT_RPS, HEAVY_RPS][p],
            l.describe()
        );
        println!("metric serve_ms_p50.{name} = {} ms", l.p50);
        println!(
            "metric serve_ms_tail.{name} = {} ms (p{})",
            l.tail, l.tail_pct
        );
    }
    // Backlog check: a heavy rate above capacity shows as latency that
    // keeps growing through the phase.
    let heavy = &lat[1];
    let tenth = (heavy.len() / 10).max(1);
    let first = stats::median(&heavy[..tenth.min(heavy.len())]);
    let last = stats::median(&heavy[heavy.len().saturating_sub(tenth)..]);
    let growing = last > 3.0 * first && last - first > LATENCY_LIMIT_MS;
    println!(
        "heavy backlog: first tenth p50 {first:.3} ms, last tenth p50 {last:.3} ms{}",
        if growing { " — GROWING BACKLOG" } else { "" }
    );
    let good = phases[2]
        .iter()
        .filter(|r| correct(&mix, r) && r.latency_ms() <= LATENCY_LIMIT_MS)
        .count();
    let goodput = good as f64 / mix.durations[2];
    println!(
        "metric serve_goodput_rps = {goodput} 1/s ({good} of {} closed-loop responses within {LATENCY_LIMIT_MS} ms)",
        phases[2].len()
    );
    rep.print_failed_share();
    // The gated latencies are the closed loop's, per class: with at most
    // nproc requests in flight they are a request's own cost (parse, solve
    // or cache hit, assembly, serialize) plus sharing the processors, and
    // the phase yields a few hundred samples per class. The open-loop
    // phases have too few requests per class for a steady low end or tail.
    let mut by_class = vec![Vec::new(); CLASS_NAMES.len()];
    for r in &phases[2] {
        if let Some(k) = class_of(&mix, r) {
            by_class[k].push(r.latency_ms());
        }
    }
    rep.metric("setup_s", setup_s, "s");
    rep.classes("serve_ms", CLASS_NAMES, &by_class, TAIL_PCT);
    rep.metric("throughput_per_s", goodput, "1/s");
    rep.metric("peak_rss_mb", run::peak_rss_mb(), "MB");
    drop(mix);
    Ok(())
}

/// Solved data of one unique key, as the daemon caches it.
type Solved = (
    tranvar::pss::PssSolution,
    Vec<tranvar::lptv::PeriodicResponse>,
);

/// Runs one layer call in a span under `root` and adds its wall time to
/// `total`.
fn layer(
    tr: &Tracer,
    root: SpanId,
    op: u64,
    name: &'static str,
    total: &mut f64,
    f: impl FnOnce(),
) {
    let t = Instant::now();
    tr.span(name, Some(root), op, f);
    *total += t.elapsed().as_secs_f64() * 1e3;
}

/// Replays one served request outside-in on the benchmark side: parse
/// (netlist or wire), the solve of a missed key (`core::solve_unique` on a
/// `threads: 1` session, like the daemon pool), per-scenario assembly and
/// serialization. A miss is also decomposed into the PSS/LPTV probes.
/// Returns the replay's layer time (ms) to subtract from the latency.
#[allow(clippy::too_many_arguments)]
fn replay(
    mix: &Mix,
    tr: &Tracer,
    op: u64,
    rec: &Rec,
    session: &mut Session,
    solved: &mut HashMap<usize, Solved>,
    counters: &mut HashMap<&'static str, f64>,
) -> Result<f64, String> {
    let body = &mix.plan.bodies[rec.body];
    let miss = rec.reply.as_ref().is_some_and(|r| r.misses > 0);
    let root = tr.begin("serve.replay", None, op);
    let mut layer_ms = 0.0;
    let parse_span = match body.kind {
        BodyKind::Spice { .. } => "netlist.parse_elaborate",
        BodyKind::Divider { .. } => "serve.wire_parse",
    };
    let mut req = Err(String::new());
    layer(tr, root, op, parse_span, &mut layer_ms, || {
        req = parse(body)
    });
    let req = req?;
    let config = campaign_config(&req);
    let (keys, _) = solve_groups(&req.scenarios);
    if keys.len() != 1 {
        return Err("served bodies share one solve key".into());
    }
    if miss || !solved.contains_key(&rec.body) {
        let before = session.stats();
        let mut stats = SessionStats::default();
        let mut outcome = None;
        let mut solve = || {
            let u = solve_unique(
                session,
                &req.circuit,
                &keys[0],
                &config,
                &RetryPolicy::none(),
                0,
                &mut stats,
            );
            outcome = Some(u.outcome);
        };
        if miss {
            layer(tr, root, op, "serve.solve", &mut layer_ms, &mut solve);
            let after = session.stats();
            *counters.entry("engine.symbolic_analyses").or_default() +=
                (after.symbolic_analyses - before.symbolic_analyses) as f64;
            *counters.entry("engine.numeric_factorizations").or_default() +=
                (after.numeric_factorizations - before.numeric_factorizations) as f64;
        } else {
            // A hit on a body solved before the replayed window: fill the
            // replay's cache untimed.
            solve();
        }
        let data = outcome
            .ok_or("solve did not run")?
            .map_err(|e| e.to_string())?;
        solved.insert(rec.body, data);
    }
    let (pss, responses) = &solved[&rec.body];
    let mut results = Vec::with_capacity(req.scenarios.len());
    for sc in &req.scenarios {
        let mut reports = Ok(Vec::new());
        layer(tr, root, op, "core.scenario_reports", &mut layer_ms, || {
            reports = scenario_reports(&req.circuit, sc, pss, responses, &req.metrics);
        });
        results.push((sc.name.clone(), reports));
    }
    let mut rendered = (0, String::new());
    layer(tr, root, op, "serve.serialize", &mut layer_ms, || {
        rendered = body_ok(&req.deck, keys.len(), &results);
    });
    tr.end(root);
    if rendered.1 != mix.expected[rec.body] {
        return Err("replayed body differs from the oracle".into());
    }
    if miss {
        // Outside-in PSS/LPTV decomposition of the missed solve.
        let mut ckt = req.circuit.clone();
        ckt.revalue(&keys[0]).map_err(|e| e.to_string())?;
        let (counted, budget) = run::counting(&config);
        let solver = run::newton_of(&config).solver;
        let mut fresh = Session::new(SessionOptions { solver, threads: 1 });
        tr.span("engine.dc", None, op, || {
            Session::new(SessionOptions { solver, threads: 1 }).dc_operating_point(
                &ckt,
                &DcOptions {
                    newton: run::newton_of(&config).clone(),
                    ..DcOptions::default()
                },
            )
        })
        .map_err(|e| e.to_string())?;
        let pss = tr
            .span("pss.solve", None, op, || {
                solve_pss_in(&mut fresh, &ckt, &counted)
            })
            .map_err(|e| e.to_string())?;
        let lptv = tr
            .span("lptv.boundary", None, op, || {
                PeriodicSolver::with_session(&ckt, &pss, &fresh)
            })
            .map_err(|e| e.to_string())?;
        tr.span("lptv.responses", None, op, || lptv.all_param_responses())
            .map_err(|e| e.to_string())?;
        drop(lptv);
        tr.span("pss.monodromy", None, op, || {
            monodromy_threaded(&pss.records, ckt.n_unknowns(), 1)
        });
        *counters.entry("pss.newton_iters").or_default() += budget.newton_iters() as f64;
        *counters.entry("pss.factorizations").or_default() += budget.factorizations() as f64;
    }
    *counters.entry("core.scenarios").or_default() += req.scenarios.len() as f64;
    *counters.entry("core.unique_solves").or_default() += keys.len() as f64;
    Ok(layer_ms)
}

/// Traced run: the same phases with client spans per request, then the
/// first requests of each phase replayed outside-in, each once untraced
/// and once traced (the difference is the tracing overhead).
pub fn run_traced(args: &Args, rep: &mut Report) -> Result<(), String> {
    let (mix, _) = run::repeated_setup(|| setup(args.seed, args.seconds))?;
    let phases = drive(&mix, rep)?;
    let tr = Tracer::default();
    let mut op = 0u64;
    let mut client = [0.0; 3];
    let mut n_client = 0.0;
    for recs in &phases {
        for r in recs {
            let x = r.times;
            let root = tr.record("serve.request", None, op, x.due, x.done);
            tr.record("client.connect", Some(root), op, x.sent, x.connected);
            tr.record("client.ttfb", Some(root), op, x.connected, x.first_byte);
            tr.record("client.read", Some(root), op, x.first_byte, x.done);
            client[0] += ms(x.sent, x.connected);
            client[1] += ms(x.connected, x.first_byte);
            client[2] += ms(x.first_byte, x.done);
            n_client += 1.0;
            op += 1;
        }
    }
    println!(
        "client: connect {:.3} ms, time-to-first-byte {:.3} ms, read {:.3} ms (means over {n_client} requests)",
        client[0] / n_client,
        client[1] / n_client,
        client[2] / n_client
    );
    let solver = tranvar::engine::SolverKind::Dense;
    let mut session = Session::new(SessionOptions { solver, threads: 1 });
    let mut solved = HashMap::new();
    let mut counters: HashMap<&'static str, f64> = HashMap::new();
    let off = Tracer::off();
    let mut untraced_counters = HashMap::new();
    let (mut waits, mut lats) = (Vec::new(), Vec::new());
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut first_op = 0u64;
    let mut replayed = 0usize;
    for recs in &phases {
        for (k, r) in recs.iter().enumerate().take(REPLAY_PER_PHASE) {
            // A hit on a body no replay has solved yet solves it, untimed,
            // in the first pass only; such a pair is not compared.
            let comparable =
                solved.contains_key(&r.body) || r.reply.as_ref().is_some_and(|x| x.misses > 0);
            let t = Instant::now();
            let untraced = replay(
                &mix,
                &off,
                first_op + k as u64,
                r,
                &mut session,
                &mut solved,
                &mut untraced_counters,
            );
            let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let traced = replay(
                &mix,
                &tr,
                first_op + k as u64,
                r,
                &mut session,
                &mut solved,
                &mut counters,
            );
            if comparable {
                plain_ms.push(untraced_ms);
                traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let ok = match untraced.and(traced) {
                Ok(layer_ms) => {
                    // Closed-loop requests are due when sent.
                    let lat = r.latency_ms();
                    waits.push(lat - layer_ms);
                    lats.push(lat);
                    true
                }
                Err(e) => {
                    println!("replay failed: {e}");
                    false
                }
            };
            rep.op(ok);
            replayed += 1;
        }
        first_op += recs.len() as u64;
    }
    let spans = tr.spans();
    let path = args
        .trace_dir
        .join(format!("serve-mix-seed{}.jsonl", args.seed));
    trace::write_jsonl(&spans, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "trace written to {} ({} spans)",
        path.display(),
        spans.len()
    );

    let n = replayed.max(1) as f64;
    let totals = trace::totals(&spans);
    let tot = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ms) / n;
    let cnt = |name: &str| counters.get(name).copied().unwrap_or(0.0) / n;
    let overhead = stats::paired_overhead(&traced_ms, &plain_ms);
    for name in [
        "netlist.parse_elaborate",
        "serve.wire_parse",
        "serve.solve",
        "core.scenario_reports",
        "serve.serialize",
    ] {
        let t = totals.get(name).cloned().unwrap_or_default();
        println!(
            "metric {name}_ms = {} ms (mean over {} calls; {:.3} ms per replayed request)",
            t.total_ms / t.count.max(1) as f64,
            t.count,
            t.total_ms / n
        );
    }
    let wait = stats::mean(&waits);
    println!("metric serve.wait_ms = {wait} ms (queue wait + acceptor serialization, mean over {} replayed requests)", waits.len());
    let dc = tot("engine.dc");
    let solve = tot("pss.solve");
    let parse = totals
        .get("netlist.parse_elaborate")
        .cloned()
        .unwrap_or_default();
    rep.metric(
        "netlist.parse_elaborate_ms",
        parse.total_ms / parse.count.max(1) as f64,
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
        cnt("core.scenarios") / cnt("core.unique_solves").max(f64::MIN_POSITIVE),
        "ratio",
    );
    rep.metric("op.self_ms", wait, "ms");
    rep.metric("op.coverage", 1.0 - wait / stats::mean(&lats), "ratio");
    rep.metric("trace.overhead_ms", overhead, "ms");
    drop(mix);
    Ok(())
}
