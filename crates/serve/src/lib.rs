//! # tranvar-serve
//!
//! A std-only JSON-over-HTTP daemon serving tranvar variation analyses —
//! no async runtime, no serde, no registry dependencies. `TcpListener`
//! plus a worker-thread pool wrap the workspace's fault-tolerant solve
//! pipeline behind four routes:
//!
//! | Route | Purpose |
//! |---|---|
//! | `POST /analyze` | Run scenarios of a built-in deck ([`deck`]) — or, with `Content-Type: text/x-spice`, a raw SPICE deck in the body — through PSS → LPTV → variation reports |
//! | `GET /healthz` | Liveness (always `200` while the process runs) |
//! | `GET /readyz` | Readiness + counters (queue depth, worker liveness, shed/panic/cache stats) |
//! | `POST /shutdown` | Graceful drain: stop accepting, finish queued work, exit |
//!
//! Robustness properties (the reason this crate exists):
//!
//! - **Bounded admission** ([`queue`]): a full queue sheds with a typed
//!   `429` + `Retry-After` derived from depth, never unbounded buffering.
//! - **Deadlines** : a request's `deadline_ms` becomes a wall-clock
//!   [`SolveBudget`](tranvar::engine::SolveBudget) started at *admission*,
//!   so queue wait counts; expiry surfaces as the typed
//!   `engine.budget-exceeded` → `504`, and the deadline-aware retry ladder
//!   ([`tranvar::engine::retry`]) stops escalating the moment it expires.
//! - **Panic isolation** ([`server`]): worker panics are caught at the job
//!   boundary, answered as typed `500`s, and any session that was mid-solve
//!   is retired from the [`SessionPool`](tranvar::engine::SessionPool) —
//!   which never drops below its floor.
//! - **Solve caching** ([`cache`]): a request runs as a
//!   [`Campaign`](tranvar::core::Campaign) whose per-key solves are
//!   cached as circuit-hash-keyed sensitivity tables, so σ-only request
//!   variants share one solve across requests (the paper's "no additional
//!   simulation cost" sharing, extended service-side) with bounded LRU
//!   eviction.
//! - **Byte-determinism** ([`wire`], [`json`]): the same request renders
//!   the same bytes for any worker count, equal to an in-process
//!   [`Campaign`](tranvar::core::Campaign) rendering.
//!
//! The chaos suite (`tests/chaos.rs`, `--features fault-inject`) drives
//! all of it through the deterministic server-side fault sites of
//! [`tranvar::engine::fault`].
//!
//! ## Quickstart
//!
//! ```no_run
//! use tranvar_serve::{Server, ServerConfig};
//! let server = Server::start(ServerConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! server.join(); // returns after POST /shutdown has drained the queue
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod deck;
pub mod http;
pub mod json;
pub mod queue;
pub mod server;
pub mod wire;

pub use cache::{solve_digest, ServeCache, SolveCache};
pub use json::Json;
pub use queue::Queue;
pub use server::{retry_after_secs, Server, ServerConfig};
pub use wire::{body_from_campaign, body_ok, error_body, AnalyzeRequest, WireError};
