//! End-to-end tests of the daemon over real sockets: routing, typed
//! failure statuses, shedding, caching, graceful drain, and byte-identity
//! of responses with an in-process [`Campaign`].

mod common;

use common::{counter, get, post, post_spice};
use std::net::TcpStream;
use tranvar::circuit::CircuitOverride;
use tranvar::core::{Campaign, CampaignResult, CoreError, Metric, MetricSpec, PssConfig, Scenario};
use tranvar::pss::PssOptions;
use tranvar_serve::{body_from_campaign, deck, wire, Server, ServerConfig};

fn start(workers: usize, queue_depth: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_depth,
        cache_entries: 16,
        session_floor: 1,
    })
    .expect("server must bind")
}

const ANALYZE: &str = r#"{
    "deck": "divider",
    "period": 1e-6,
    "n_steps": 16,
    "metrics": [{"name": "vout", "kind": "dc-average", "node": "b"}],
    "scenarios": [
        {"name": "nominal"},
        {"name": "sigma2", "overrides": [{"kind": "sigma-scale", "factor": 2.0}]},
        {"name": "hot", "overrides": [{"kind": "resistance", "device": "R1", "ohms": 1100.0}]}
    ]
}"#;

#[test]
fn health_routes_and_unknown_paths() {
    let server = start(1, 8);
    let addr = server.addr();

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "{\"status\":\"ok\"}");

    let ready = get(addr, "/readyz");
    assert_eq!(ready.status, 200);
    assert!(ready.body.contains("\"status\":\"ready\""));
    assert_eq!(counter(&ready, "workers_alive"), 1);
    assert_eq!(counter(&ready, "queue_capacity"), 8);

    assert_eq!(get(addr, "/nope").status, 404);
    assert_eq!(get(addr, "/analyze").status, 405);

    server.shutdown();
    server.join();
}

#[test]
fn analyze_is_byte_identical_to_in_process_campaign_for_any_worker_count() {
    // The in-process oracle: the same deck, config, metrics and scenarios
    // through Campaign::run, rendered by the same serializer.
    let ckt = deck::build("divider").unwrap();
    let r1 = ckt.find_device("R1").unwrap();
    let b = ckt.find_node("b").unwrap();
    let mut opts = PssOptions::default();
    opts.n_steps = 16;
    let campaign = Campaign::new(
        PssConfig::Driven { period: 1e-6, opts },
        vec![MetricSpec::new("vout", Metric::DcAverage { node: b })],
    );
    let scenarios = [
        Scenario {
            name: "nominal".into(),
            overrides: vec![],
        },
        Scenario {
            name: "sigma2".into(),
            overrides: vec![CircuitOverride::SigmaScale { factor: 2.0 }],
        },
        Scenario {
            name: "hot".into(),
            overrides: vec![CircuitOverride::Resistance {
                device: r1,
                ohms: 1100.0,
            }],
        },
    ];
    let oracle = campaign.run(&ckt, &scenarios).unwrap();
    assert_eq!(oracle.n_unique_solves, 2); // sigma2 shares nominal's solve
    let (oracle_status, oracle_body) = body_from_campaign("divider", &oracle);
    assert_eq!(oracle_status, 200);

    for workers in [1, 4] {
        let server = start(workers, 16);
        let addr = server.addr();

        // Cold: every unique solve is a cache miss.
        let cold = post(addr, "/analyze", ANALYZE);
        assert_eq!(cold.status, 200, "body: {}", cold.body);
        assert_eq!(cold.body, oracle_body, "workers={workers}");
        assert_eq!(cold.header("x-tranvar-cache-hits"), Some("0"));
        assert_eq!(cold.header("x-tranvar-cache-misses"), Some("2"));

        // Warm: the σ-only variant and the re-poll hit the cache; the body
        // must not change by a byte.
        let warm = post(addr, "/analyze", ANALYZE);
        assert_eq!(warm.body, oracle_body);
        assert_eq!(warm.header("x-tranvar-cache-hits"), Some("2"));
        assert_eq!(warm.header("x-tranvar-cache-misses"), Some("0"));

        server.shutdown();
        server.join();
    }
}

/// A raw SPICE deck equivalent to the built-in divider testbench, with a
/// σ-doubling sweep so the response carries two scenarios off one solve.
const SPICE: &str = "served divider\n\
    V1 a 0 2.0\n\
    R1 a b 1e3\n\
    R2 b 0 1e3\n\
    C1 b 0 1p\n\
    .sigma r R* sigma=10.0\n\
    .sweep sigma 1.0 2.0\n\
    .pss 1u steps=16\n\
    .measure vout avg b\n\
    .end\n";

#[test]
fn raw_spice_decks_are_served_end_to_end() {
    // The in-process oracle: elaborate the same text, run the campaign,
    // render through the shared serializer. The daemon must match it
    // byte-for-byte under the deck's content-addressed name.
    let e = tranvar::netlist::parse_and_elaborate(SPICE).unwrap();
    let config = e.analysis.as_ref().unwrap().pss_config().unwrap();
    let oracle = Campaign::new(config, e.metrics.clone())
        .run(&e.circuit, &e.scenarios)
        .unwrap();
    assert_eq!(oracle.n_unique_solves, 1); // the σ sweep shares one solve
    let name = tranvar_serve::deck::spice_name(SPICE);
    let (oracle_status, oracle_body) = body_from_campaign(&name, &oracle);
    assert_eq!(oracle_status, 200);

    let server = start(2, 8);
    let addr = server.addr();

    let cold = post_spice(addr, "/analyze", SPICE);
    assert_eq!(cold.status, 200, "body: {}", cold.body);
    assert_eq!(cold.body, oracle_body);
    assert_eq!(cold.header("x-tranvar-cache-misses"), Some("1"));

    // Re-posting the identical text hits the content-addressed cache.
    let warm = post_spice(addr, "/analyze", SPICE);
    assert_eq!(warm.body, oracle_body);
    assert_eq!(warm.header("x-tranvar-cache-hits"), Some("1"));

    server.shutdown();
    server.join();
}

#[test]
fn malformed_spice_decks_get_spanned_422s() {
    let server = start(1, 8);
    let addr = server.addr();

    // An elaboration failure: the typed netlist code, 422, and the line.
    let r = post_spice(addr, "/analyze", &SPICE.replace("1e3", "'r0'"));
    assert_eq!(r.status, 422, "body: {}", r.body);
    assert!(
        r.body.contains("\"code\":\"netlist.undefined-param\""),
        "{}",
        r.body
    );
    assert!(r.body.contains("line 3"), "{}", r.body);

    // A lex failure: still typed, still 422.
    let r = post_spice(addr, "/analyze", "t\nR1 a b 'oops\n.end\n");
    assert_eq!(r.status, 422);
    assert!(r.body.contains("\"code\":\"netlist.syntax\""), "{}", r.body);

    // A deck with nothing to serve.
    let r = post_spice(addr, "/analyze", &SPICE.replace(".pss 1u steps=16\n", ""));
    assert_eq!(r.status, 422);
    assert!(
        r.body.contains("\"code\":\"serve.unservable-deck\""),
        "{}",
        r.body
    );

    // Without the content type, the same bytes are JSON — and rejected
    // as such, proving the dispatch is header-driven.
    let r = post(addr, "/analyze", SPICE);
    assert_eq!(r.status, 400);
    assert!(
        r.body.contains("\"code\":\"serve.bad-request\""),
        "{}",
        r.body
    );

    server.shutdown();
    server.join();
}

#[test]
fn bad_requests_get_typed_400s() {
    let server = start(1, 8);
    let addr = server.addr();

    let r = post(addr, "/analyze", "{not json");
    assert_eq!(r.status, 400);
    assert!(
        r.body.contains("\"code\":\"serve.bad-request\""),
        "{}",
        r.body
    );

    let r = post(addr, "/analyze", &ANALYZE.replace("divider", "mystery"));
    assert_eq!(r.status, 400);
    assert!(
        r.body.contains("\"code\":\"serve.unknown-deck\""),
        "{}",
        r.body
    );

    let r = post(
        addr,
        "/analyze",
        &ANALYZE.replace("\"node\": \"b\"", "\"node\": \"zz\""),
    );
    assert_eq!(r.status, 400);
    assert!(
        r.body.contains("\"code\":\"circuit.unknown-node\""),
        "{}",
        r.body
    );

    // The JSON parser reads `1e999` as +inf: an infinite σ scale or
    // element value is an invalid parameter, not a 200 with a null σ or a
    // zero nominal.
    for (from, to) in [
        ("\"factor\": 2.0", "\"factor\": 1e999"),
        ("\"ohms\": 1100.0", "\"ohms\": 1e999"),
    ] {
        let r = post(addr, "/analyze", &ANALYZE.replace(from, to));
        assert_eq!(r.status, 400, "{to}: {}", r.body);
        assert!(
            r.body.contains("\"code\":\"circuit.invalid-parameter\""),
            "{}",
            r.body
        );
        assert!(!r.body.contains("null"), "{}", r.body);
    }

    server.shutdown();
    server.join();
}

#[test]
fn scenario_failures_carry_typed_codes_and_drive_overall_status() {
    let server = start(2, 8);
    let addr = server.addr();

    // A negative resistance passes request validation (it names a real
    // device) but fails the solve-time revalue — a per-scenario typed 400
    // alongside a healthy scenario.
    let body = ANALYZE.replace("1100.0", "-5.0");
    let r = post(addr, "/analyze", &body);
    assert_eq!(r.status, 400, "body: {}", r.body);
    assert!(
        r.body.contains("\"name\":\"nominal\",\"status\":\"ok\""),
        "{}",
        r.body
    );
    assert!(
        r.body.contains("\"code\":\"circuit.invalid-parameter\""),
        "{}",
        r.body
    );

    server.shutdown();
    server.join();
}

/// The in-process oracle of a JSON request: its deck, metrics and
/// scenarios through `Campaign::run` at the request's period and step
/// count, rendered by the daemon's serializer.
fn in_process(body: &str) -> (u16, String, CampaignResult) {
    let req = wire::parse_request(body).unwrap();
    let mut opts = PssOptions::default();
    opts.n_steps = req.n_steps;
    let config = PssConfig::Driven {
        period: req.period,
        opts,
    };
    let res = Campaign::new(config, req.metrics)
        .run(&req.circuit, &req.scenarios)
        .unwrap();
    let (status, body) = body_from_campaign(&req.deck, &res);
    (status, body, res)
}

#[test]
fn the_metric_list_is_part_of_the_cache_key() {
    let server = start(1, 8);
    let addr = server.addr();

    let first = post(addr, "/analyze", ANALYZE);
    assert_eq!(first.status, 200, "body: {}", first.body);
    assert_eq!(first.header("x-tranvar-cache-misses"), Some("2"));

    // The same deck, overrides and solve settings reading another node:
    // the tables of the first request hold the wrong sensitivities.
    let vin = ANALYZE.replace(
        r#"{"name": "vout", "kind": "dc-average", "node": "b"}"#,
        r#"{"name": "vin", "kind": "dc-average", "node": "a"}"#,
    );
    let second = post(addr, "/analyze", &vin);
    assert_eq!(second.status, 200, "body: {}", second.body);
    assert_eq!(second.header("x-tranvar-cache-hits"), Some("0"));
    assert_eq!(second.header("x-tranvar-cache-misses"), Some("2"));
    let (_, oracle, _) = in_process(&vin);
    assert_eq!(second.body, oracle);

    server.shutdown();
    server.join();
}

#[test]
fn a_metric_error_is_cached_with_its_table() {
    // A frequency needs an autonomous orbit; the divider is driven.
    let body = ANALYZE.replace(
        r#""kind": "dc-average", "node": "b""#,
        r#""kind": "frequency""#,
    );
    let (status, oracle, _) = in_process(&body);
    assert_eq!(status, 422);
    assert!(oracle.contains("\"code\":\"core.metric\""), "{oracle}");

    let server = start(2, 8);
    let addr = server.addr();
    let cold = post(addr, "/analyze", &body);
    assert_eq!(cold.status, 422, "body: {}", cold.body);
    assert_eq!(cold.header("x-tranvar-cache-misses"), Some("2"));
    assert_eq!(cold.body, oracle);

    let warm = post(addr, "/analyze", &body);
    assert_eq!(warm.status, 422);
    assert_eq!(warm.header("x-tranvar-cache-hits"), Some("2"));
    assert_eq!(warm.body, cold.body);

    server.shutdown();
    server.join();
}

#[test]
fn an_overflowing_sigma_is_a_typed_422() {
    // Every input is finite, but σ(vout)² = (5e-4 · 1e301)² overflows.
    let body = ANALYZE.replace(r#""factor": 2.0"#, r#""factor": 1e300"#);
    let (status, oracle, res) = in_process(&body);
    assert_eq!(status, 422);
    assert!(matches!(
        res.outcome("sigma2").unwrap().result,
        Err(CoreError::Metric(_))
    ));
    assert!(res.outcome("nominal").unwrap().result.is_ok());

    let server = start(1, 8);
    let addr = server.addr();
    let r = post(addr, "/analyze", &body);
    assert_eq!(r.status, 422, "body: {}", r.body);
    assert!(r.body.contains("\"code\":\"core.metric\""), "{}", r.body);
    assert!(!r.body.contains("null"), "{}", r.body);
    assert_eq!(r.body, oracle);

    server.shutdown();
    server.join();
}

#[test]
fn full_queue_sheds_with_retry_after() {
    // Capacity 0 makes every admission shed deterministically.
    let server = start(1, 0);
    let addr = server.addr();

    let r = post(addr, "/analyze", ANALYZE);
    assert_eq!(r.status, 429);
    assert!(r.body.contains("\"code\":\"serve.shed\""), "{}", r.body);
    let retry_after: u64 = r
        .header("retry-after")
        .expect("shed must carry Retry-After")
        .parse()
        .unwrap();
    assert!(retry_after >= 1);

    let ready = get(addr, "/readyz");
    assert_eq!(counter(&ready, "shed"), 1);
    assert_eq!(counter(&ready, "accepted"), 0);

    server.shutdown();
    server.join();
}

#[test]
fn graceful_drain_finishes_queued_work_and_exits() {
    let server = start(2, 16);
    let addr = server.addr();

    // Some real work first, so the drain has completed responses behind it.
    assert_eq!(post(addr, "/analyze", ANALYZE).status, 200);

    let bye = post(addr, "/shutdown", "");
    assert_eq!(bye.status, 200);
    assert!(bye.body.contains("draining"));

    let completed = server.join();
    assert!(
        completed >= 2,
        "analyze + shutdown responses, got {completed}"
    );

    // The listener is gone: new connections are refused (or reset).
    assert!(
        TcpStream::connect(addr).is_err() || get_safely(addr).is_none(),
        "daemon still serving after drain"
    );
}

/// A connect that tolerates the post-drain race: returns None when the
/// socket is dead.
fn get_safely(addr: std::net::SocketAddr) -> Option<u16> {
    use std::io::{Read, Write};
    let mut s = TcpStream::connect(addr).ok()?;
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
        .ok()?;
    let mut buf = String::new();
    s.read_to_string(&mut buf).ok()?;
    buf.split_whitespace().nth(1)?.parse().ok()
}
