//! The daemon: acceptor thread + worker pool around the solve pipeline.
//!
//! Request lifecycle:
//!
//! 1. The **acceptor** parses one HTTP request per connection, answers the
//!    health routes inline, and *admits* `/analyze` jobs: the request is
//!    validated, its wall-clock deadline becomes a live
//!    [`tranvar::engine::SolveBudget`] at admission time (so
//!    queue wait charges the deadline), and the job enters the bounded
//!    [`Queue`]. A full queue sheds with a typed 429 whose `Retry-After`
//!    grows with queue depth.
//! 2. A **worker** pops the job, re-checks the deadline (a request that
//!    aged out in the queue 504s without touching a session), and runs
//!    the request as a cached [`Campaign`]: for every cache-miss key, the
//!    campaign's own per-key solve ([`Campaign::solve_key`]) on a
//!    checked-out [`SessionPool`] session, whose sensitivity table is
//!    cached; for every scenario, the campaign's own assembly
//!    ([`Campaign::assemble`]) from its key's table. A body thus
//!    equals [`Campaign::run`]'s because it is made by the same code.
//!    Worker panics are caught at the job boundary and answered as typed
//!    500s; sessions that were mid-solve when a panic fired are retired,
//!    never reused.
//! 3. **Shutdown** (`POST /shutdown` or [`Server::shutdown`]) stops
//!    admission, lets workers drain the queue (each job still subject to
//!    its own deadline), and joins every thread — a clean exit.
//!
//! Under `--features fault-inject` the three serve sites
//! (`serve::request`, `serve::solve`, `serve::worker`) let the chaos suite
//! inject panics, deadline expiry and worker stalls deterministically; the
//! fault plan active on the constructing thread is adopted by every worker.

use crate::cache::{solve_digest, ServeCache};
use crate::http::{read_request, write_response, Parsed, Request, Response};
use crate::queue::Queue;
use crate::wire::{self, AnalyzeRequest, WireError};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tranvar::core::{solve_groups, Campaign, CoreError, SensitivityTable};
use tranvar::engine::fault::{self, sites};
use tranvar::engine::{
    BudgetLimits, RetryPolicy, SessionOptions, SessionPool, SessionStats, SolveBudget,
};
use tranvar::pss::PssOptions;
use tranvar::TranvarError;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads solving admitted jobs.
    pub workers: usize,
    /// Bounded admission-queue capacity; beyond it requests shed (429).
    pub queue_depth: usize,
    /// Bounded solve-cache capacity (entries; 0 disables caching).
    pub cache_entries: usize,
    /// Session-pool floor (pool never shrinks below this many live
    /// sessions even under panic storms).
    pub session_floor: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 32,
            cache_entries: 64,
            session_floor: 2,
        }
    }
}

/// An admitted job travelling from acceptor to worker.
struct Job {
    stream: TcpStream,
    req: AnalyzeRequest,
    /// Deadline clock started at admission.
    budget: SolveBudget,
    /// Admission ordinal (the `serve::request` fault index).
    request_index: usize,
}

struct State {
    queue: Queue<Job>,
    cache: ServeCache,
    pool: SessionPool,
    draining: AtomicBool,
    accepted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    panics: AtomicU64,
    write_errors: AtomicU64,
    workers_alive: AtomicUsize,
    workers_busy: AtomicUsize,
    request_counter: AtomicUsize,
    solve_counter: AtomicUsize,
    #[cfg(feature = "fault-inject")]
    plan: Option<fault::ActivePlan>,
}

/// A running daemon; dropping it without [`Server::join`] detaches the
/// threads (tests and the binary always join).
pub struct Server {
    addr: SocketAddr,
    state: Arc<State>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and `config.workers` workers, and
    /// returns immediately.
    ///
    /// Under `fault-inject`, the fault plan installed on the calling
    /// thread (if any) is captured here and adopted by every worker.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(State {
            queue: Queue::new(config.queue_depth),
            cache: ServeCache::new(config.cache_entries),
            pool: SessionPool::new(SessionOptions::default(), config.session_floor),
            draining: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            workers_alive: AtomicUsize::new(config.workers),
            workers_busy: AtomicUsize::new(0),
            request_counter: AtomicUsize::new(0),
            solve_counter: AtomicUsize::new(0),
            #[cfg(feature = "fault-inject")]
            plan: fault::current(),
        });

        let workers = (0..config.workers)
            .map(|worker_index| {
                let state = state.clone();
                std::thread::Builder::new()
                    .name(format!("tranvar-serve-worker-{worker_index}"))
                    .spawn(move || worker_loop(&state, worker_index))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let acceptor = {
            let state = state.clone();
            std::thread::Builder::new()
                .name("tranvar-serve-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &state))?
        };

        Ok(Server {
            addr,
            state,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves `:0` bindings).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a drain exactly like `POST /shutdown`: stop accepting,
    /// finish (or deadline-out) queued work, then every thread exits.
    pub fn shutdown(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        // Wake the acceptor with a throwaway connection so it observes the
        // flag even if no client ever connects again.
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until the daemon has fully drained (acceptor and every
    /// worker exited). Returns the total number of completed responses.
    pub fn join(mut self) -> u64 {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.state.completed.load(Ordering::SeqCst)
    }
}

// ── Acceptor ──

fn acceptor_loop(listener: &TcpListener, state: &Arc<State>) {
    for conn in listener.incoming() {
        if let Ok(mut stream) = conn {
            serve_connection(&mut stream, state);
        }
        if state.draining.load(Ordering::SeqCst) {
            break;
        }
    }
    // Stop admission and let workers drain what's queued.
    state.queue.close();
}

fn respond(state: &State, stream: &mut TcpStream, resp: &Response) {
    match write_response(stream, resp) {
        Ok(()) => {
            state.completed.fetch_add(1, Ordering::SeqCst);
        }
        Err(_) => {
            state.write_errors.fetch_add(1, Ordering::SeqCst);
        }
    }
}

fn serve_connection(stream: &mut TcpStream, state: &Arc<State>) {
    let req = match read_request(stream) {
        Ok(Parsed::Ok(req)) => req,
        Ok(Parsed::Eof) | Err(_) => return,
        Ok(Parsed::Bad(status, why)) => {
            let resp = Response::json(status, wire::error_body("serve.bad-request", status, why));
            respond(state, stream, &resp);
            return;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let resp = Response::json(200, "{\"status\":\"ok\"}".into());
            respond(state, stream, &resp);
        }
        ("GET", "/readyz") => {
            let resp = readyz(state);
            respond(state, stream, &resp);
        }
        ("POST", "/shutdown") => {
            state.draining.store(true, Ordering::SeqCst);
            let resp = Response::json(200, "{\"status\":\"draining\"}".into());
            respond(state, stream, &resp);
        }
        ("POST", "/analyze") => admit(stream, &req, state),
        (_, "/healthz" | "/readyz" | "/shutdown" | "/analyze") => {
            let resp = Response::json(
                405,
                wire::error_body("serve.method-not-allowed", 405, "method not allowed"),
            );
            respond(state, stream, &resp);
        }
        _ => {
            let resp = Response::json(
                404,
                wire::error_body("serve.not-found", 404, "unknown route"),
            );
            respond(state, stream, &resp);
        }
    }
}

fn admit(stream: &mut TcpStream, req: &Request, state: &Arc<State>) {
    if state.draining.load(Ordering::SeqCst) {
        let resp = Response::json(
            503,
            wire::error_body("serve.draining", 503, "server is draining"),
        );
        respond(state, stream, &resp);
        return;
    }
    // `Content-Type: text/x-spice` selects the raw-deck body parser; the
    // default stays the JSON wire format.
    let parsed = if is_spice(req) {
        crate::deck::from_spice(&req.body)
    } else {
        wire::parse_request(&req.body)
    };
    let parsed = match parsed {
        Ok(p) => p,
        Err(WireError {
            code,
            http,
            message,
        }) => {
            let resp = Response::json(http, wire::error_body(&code, http, &message));
            respond(state, stream, &resp);
            return;
        }
    };
    // The deadline clock starts *now*: time spent queued is time spent.
    let budget = match parsed.deadline_ms {
        Some(ms) => SolveBudget::new(BudgetLimits::default().deadline(Duration::from_millis(ms))),
        None => SolveBudget::unlimited(),
    };
    // The job carries its own handle to the socket; a clone failure means
    // the peer is already gone, so there is nobody to answer.
    let Ok(job_stream) = stream.try_clone() else {
        state.write_errors.fetch_add(1, Ordering::SeqCst);
        return;
    };
    let request_index = state.request_counter.fetch_add(1, Ordering::SeqCst);
    let job = Job {
        stream: job_stream,
        req: parsed,
        budget,
        request_index,
    };
    match state.queue.try_push(job) {
        Ok(()) => {
            state.accepted.fetch_add(1, Ordering::SeqCst);
        }
        Err(mut job) => {
            state.shed.fetch_add(1, Ordering::SeqCst);
            let depth = state.queue.depth();
            let retry_after = retry_after_secs(depth);
            let resp = Response::json(
                429,
                wire::error_body(
                    "serve.shed",
                    429,
                    &format!("admission queue full ({depth} pending); retry in {retry_after}s"),
                ),
            )
            .with_header("retry-after", retry_after.to_string());
            respond(state, &mut job.stream, &resp);
        }
    }
}

/// Whether the request body is a raw SPICE deck (by media type, ignoring
/// any `;charset=` parameter).
fn is_spice(req: &Request) -> bool {
    req.header("content-type")
        .and_then(|v| v.split(';').next())
        .is_some_and(|v| v.trim().eq_ignore_ascii_case("text/x-spice"))
}

/// `Retry-After` grows with queue depth: an empty-but-closed or barely
/// full queue asks for 1 s; each ~4 pending jobs add a second, capped at
/// 30 s.
pub fn retry_after_secs(depth: usize) -> u64 {
    (1 + depth as u64 / 4).min(30)
}

fn readyz(state: &State) -> Response {
    let draining = state.draining.load(Ordering::SeqCst);
    let status = if draining { "draining" } else { "ready" };
    let body = crate::json::Json::Obj(vec![
        ("status".into(), crate::json::Json::Str(status.into())),
        num(
            "workers_alive",
            state.workers_alive.load(Ordering::SeqCst) as f64,
        ),
        num(
            "workers_busy",
            state.workers_busy.load(Ordering::SeqCst) as f64,
        ),
        num("queue_depth", state.queue.depth() as f64),
        num("queue_capacity", state.queue.capacity() as f64),
        num("accepted", state.accepted.load(Ordering::SeqCst) as f64),
        num("completed", state.completed.load(Ordering::SeqCst) as f64),
        num("shed", state.shed.load(Ordering::SeqCst) as f64),
        num("panics", state.panics.load(Ordering::SeqCst) as f64),
        num(
            "write_errors",
            state.write_errors.load(Ordering::SeqCst) as f64,
        ),
        num("cache_entries", state.cache.len() as f64),
        num("cache_hits", state.cache.hits() as f64),
        num("cache_misses", state.cache.misses() as f64),
        num("sessions_live", state.pool.live() as f64),
        num("sessions_retired", state.pool.retired() as f64),
    ])
    .to_string();
    Response::json(if draining { 503 } else { 200 }, body)
}

fn num(key: &str, v: f64) -> (String, crate::json::Json) {
    (key.into(), crate::json::Json::Num(v))
}

// ── Workers ──

fn worker_loop(state: &Arc<State>, worker_index: usize) {
    // Workers adopt the fault plan that was active when the server was
    // constructed, so a chaos test arms sites once and every thread sees
    // them.
    #[cfg(feature = "fault-inject")]
    let _fault_guard = fault::adopt(state.plan.clone());

    while let Some(mut job) = state.queue.pop() {
        state.workers_busy.fetch_add(1, Ordering::SeqCst);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // The worker-keyed site: `Stall` parks this worker here (its
            // job waits with it); `Panic` exercises the isolation below.
            let _ = fault::request_fault(sites::SERVE_WORKER, worker_index);
            handle(state, &job)
        }));
        let resp = outcome.unwrap_or_else(|payload| {
            state.panics.fetch_add(1, Ordering::SeqCst);
            let err = TranvarError::from(CoreError::Panic {
                context: format!("serve request {}", job.request_index),
                message: panic_message(payload.as_ref()),
            });
            let ws = err.wire_status();
            Response::json(
                ws.http,
                wire::error_body(ws.code, ws.http, &err.to_string()),
            )
        });
        respond(state, &mut job.stream, &resp);
        state.workers_busy.fetch_sub(1, Ordering::SeqCst);
    }
    state.workers_alive.fetch_sub(1, Ordering::SeqCst);
}

fn typed_error_response(err: &TranvarError) -> Response {
    let ws = err.wire_status();
    Response::json(
        ws.http,
        wire::error_body(ws.code, ws.http, &err.to_string()),
    )
}

fn handle(state: &State, job: &Job) -> Response {
    let req = &job.req;
    // Request-level injection: panic at request i / synthetic typed errors.
    if let Some(e) = fault::request_fault(sites::SERVE_REQUEST, job.request_index) {
        return typed_error_response(&TranvarError::from(e));
    }
    // A request whose deadline was spent waiting in the queue 504s here
    // without ever touching a session.
    if job.budget.deadline_expired() {
        return typed_error_response(&TranvarError::from(
            job.budget.deadline_exceeded("serve admission queue"),
        ));
    }

    let policy = if req.retry {
        RetryPolicy::default()
    } else {
        RetryPolicy::none()
    };
    let campaign =
        Campaign::new(pss_config(req, &job.budget), req.metrics.clone()).with_retry(policy);

    // ── Solve each unique variant to its table (cache first). ──
    let (solve_keys, key_of_scenario) = solve_groups(&req.scenarios);
    let mut request_hits = 0u64;
    let mut tables: Vec<Result<Arc<SensitivityTable>, CoreError>> =
        Vec::with_capacity(solve_keys.len());
    for key in &solve_keys {
        let digest = solve_digest(
            &req.deck,
            req.period,
            req.n_steps,
            req.retry,
            &req.metrics,
            key,
        );
        if let Some(table) = state.cache.get(digest) {
            request_hits += 1;
            tables.push(Ok(table));
            continue;
        }
        let solve_index = state.solve_counter.fetch_add(1, Ordering::SeqCst);
        if let Some(e) = fault::request_fault(sites::SERVE_SOLVE, solve_index) {
            tables.push(Err(CoreError::from(e)));
            continue;
        }
        let mut session = state.pool.checkout();
        let mut stats = SessionStats::default();
        let unique = campaign.solve_key(&mut session, &req.circuit, key, solve_index, &mut stats);
        if unique.poisoned {
            // A caught panic may have left half-updated session caches.
            state.pool.retire(session);
        } else {
            state.pool.give_back(session);
        }
        // The orbit is dropped here: no body reads it.
        tables.push(unique.outcome.map(|(_, table)| {
            let table = Arc::new(table);
            state.cache.insert(digest, Arc::clone(&table));
            table
        }));
    }

    // ── Assemble per-scenario reports against their own σ. ──
    let scenario_results: Vec<_> = req
        .scenarios
        .iter()
        .zip(&key_of_scenario)
        .map(|(sc, &key)| {
            let reports = match &tables[key] {
                Err(e) => Err(e.clone()),
                Ok(table) => campaign.assemble(&req.circuit, sc, table),
            };
            (sc.name.clone(), reports)
        })
        .collect();

    let (status, body) = wire::body_ok(&req.deck, solve_keys.len(), &scenario_results);
    Response::json(status, body)
        .with_header("x-tranvar-cache-hits", request_hits.to_string())
        .with_header(
            "x-tranvar-cache-misses",
            (solve_keys.len() as u64 - request_hits).to_string(),
        )
}

fn pss_config(req: &AnalyzeRequest, budget: &SolveBudget) -> tranvar::core::PssConfig {
    let mut opts = PssOptions::default();
    opts.n_steps = req.n_steps;
    // Deck-supplied tuning (`.pss warmup= tol= step_limit=`); the deck
    // name is a content hash of the text, so these are in the cache key.
    if let Some(w) = req.warmup_cycles {
        opts.warmup_cycles = w;
    }
    if let Some(t) = req.tol {
        opts.tol = t;
    }
    if let Some(s) = req.step_limit {
        opts.newton.step_limit = s;
    }
    opts.newton.budget = budget.clone();
    tranvar::core::PssConfig::Driven {
        period: req.period,
        opts,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_tracks_queue_depth() {
        assert_eq!(retry_after_secs(0), 1);
        assert_eq!(retry_after_secs(3), 1);
        assert_eq!(retry_after_secs(4), 2);
        assert_eq!(retry_after_secs(40), 11);
        assert_eq!(retry_after_secs(100_000), 30);
    }
}
