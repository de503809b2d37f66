//! The daemon's wire format: request parsing and response rendering.
//!
//! Every failure carries the workspace's stable machine-readable code from
//! [`TranvarError::wire_status`] plus the mapped HTTP status; serve-level
//! conditions that never pass through a `TranvarError` (admission shed,
//! malformed JSON, drain) use `serve.*` codes. Success bodies are rendered
//! through [`crate::json`]'s deterministic serializer, and
//! [`body_from_campaign`] renders an in-process
//! [`Campaign`](tranvar::core::Campaign) result through the *same* code so
//! the two are comparable byte-for-byte.

use crate::json::{self, Json};
use tranvar::circuit::{Circuit, CircuitOverride};
use tranvar::core::{CampaignResult, CoreError, Metric, MetricSpec, Scenario, VariationReport};
use tranvar::TranvarError;

/// A fully validated analyze request.
#[derive(Debug)]
pub struct AnalyzeRequest {
    /// Built-in deck name (see [`crate::deck`]).
    pub deck: String,
    /// The deck circuit the request resolved against.
    pub circuit: Circuit,
    /// Drive period for the PSS solve (seconds).
    pub period: f64,
    /// Shooting steps per period.
    pub n_steps: usize,
    /// Cap on forward warm-up cycles before shooting-Newton (deck `.pss
    /// warmup=`; JSON requests leave this `None` and take the solver
    /// default). Shooting returns the first recorded cycle within `tol`.
    pub warmup_cycles: Option<usize>,
    /// Shooting convergence tolerance (deck `.pss tol=`).
    pub tol: Option<f64>,
    /// Inner-Newton update clamp (deck `.pss step_limit=`).
    pub step_limit: Option<f64>,
    /// Escalate failing solves through the periodic retry ladder.
    pub retry: bool,
    /// Wall-clock deadline for the whole request, queue wait included.
    pub deadline_ms: Option<u64>,
    /// Metrics to evaluate.
    pub metrics: Vec<MetricSpec>,
    /// Named scenarios (override lists).
    pub scenarios: Vec<Scenario>,
}

/// A request-level failure: stable code, HTTP status, human message.
#[derive(Debug)]
pub struct WireError {
    /// Machine-readable code (`serve.*` or a `TranvarError` code).
    pub code: String,
    /// Mapped HTTP status.
    pub http: u16,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    fn bad(message: impl Into<String>) -> Self {
        WireError {
            code: "serve.bad-request".into(),
            http: 400,
            message: message.into(),
        }
    }
}

impl From<TranvarError> for WireError {
    fn from(e: TranvarError) -> Self {
        let ws = e.wire_status();
        WireError {
            code: ws.code.into(),
            http: ws.http,
            message: e.to_string(),
        }
    }
}

fn field<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a Json, WireError> {
    obj.get(key)
        .ok_or_else(|| WireError::bad(format!("{what}: missing field '{key}'")))
}

fn str_field(obj: &Json, key: &str, what: &str) -> Result<String, WireError> {
    field(obj, key, what)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| WireError::bad(format!("{what}: field '{key}' must be a string")))
}

fn num_field(obj: &Json, key: &str, what: &str) -> Result<f64, WireError> {
    field(obj, key, what)?
        .as_f64()
        .ok_or_else(|| WireError::bad(format!("{what}: field '{key}' must be a number")))
}

/// Parses and validates an analyze request body against its named deck.
///
/// # Errors
///
/// Structural problems map to `serve.bad-request` (400); unknown decks to
/// `serve.unknown-deck` (400); unknown node/device labels surface the
/// typed circuit error codes (400).
pub fn parse_request(body: &str) -> Result<AnalyzeRequest, WireError> {
    let root = json::parse(body)
        .map_err(|e| WireError::bad(format!("request body is not valid JSON: {e}")))?;

    let deck = str_field(&root, "deck", "request")?;
    let circuit = crate::deck::build(&deck).ok_or_else(|| WireError {
        code: "serve.unknown-deck".into(),
        http: 400,
        message: format!(
            "unknown deck '{deck}' (available: {})",
            crate::deck::DECKS.join(", ")
        ),
    })?;

    let period = num_field(&root, "period", "request")?;
    if !(period.is_finite() && period > 0.0) {
        return Err(WireError::bad(
            "request: 'period' must be finite and positive",
        ));
    }
    let n_steps = field(&root, "n_steps", "request")?
        .as_usize()
        .filter(|n| *n > 0)
        .ok_or_else(|| WireError::bad("request: 'n_steps' must be a positive integer"))?;
    let retry = match root.get("retry") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| WireError::bad("request: 'retry' must be a boolean"))?,
    };
    let deadline_ms =
        match root.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_usize().filter(|ms| *ms > 0).ok_or_else(|| {
                WireError::bad("request: 'deadline_ms' must be a positive integer")
            })? as u64),
        };

    let metrics = field(&root, "metrics", "request")?
        .as_arr()
        .ok_or_else(|| WireError::bad("request: 'metrics' must be an array"))?
        .iter()
        .map(|m| parse_metric(m, &circuit))
        .collect::<Result<Vec<_>, _>>()?;
    if metrics.is_empty() {
        return Err(WireError::bad("request: 'metrics' must not be empty"));
    }

    let scenarios = field(&root, "scenarios", "request")?
        .as_arr()
        .ok_or_else(|| WireError::bad("request: 'scenarios' must be an array"))?
        .iter()
        .map(|s| parse_scenario(s, &circuit))
        .collect::<Result<Vec<_>, _>>()?;
    if scenarios.is_empty() {
        return Err(WireError::bad("request: 'scenarios' must not be empty"));
    }

    Ok(AnalyzeRequest {
        deck,
        circuit,
        period,
        n_steps,
        warmup_cycles: None,
        tol: None,
        step_limit: None,
        retry,
        deadline_ms,
        metrics,
        scenarios,
    })
}

fn parse_metric(m: &Json, ckt: &Circuit) -> Result<MetricSpec, WireError> {
    let name = str_field(m, "name", "metric")?;
    let kind = str_field(m, "kind", "metric")?;
    let metric = match kind.as_str() {
        "dc-average" => {
            let node = str_field(m, "node", "metric")?;
            let node = ckt
                .find_node(&node)
                .map_err(|e| WireError::from(TranvarError::from(e)))?;
            Metric::DcAverage { node }
        }
        "frequency" => Metric::Frequency,
        other => {
            return Err(WireError::bad(format!(
                "metric '{name}': unsupported kind '{other}' (use dc-average or frequency)"
            )))
        }
    };
    Ok(MetricSpec::new(&name, metric))
}

fn parse_scenario(s: &Json, ckt: &Circuit) -> Result<Scenario, WireError> {
    let name = str_field(s, "name", "scenario")?;
    let overrides = match s.get("overrides") {
        None => Vec::new(),
        Some(o) => o
            .as_arr()
            .ok_or_else(|| {
                WireError::bad(format!("scenario '{name}': 'overrides' must be an array"))
            })?
            .iter()
            .map(|ov| parse_override(ov, ckt))
            .collect::<Result<Vec<_>, _>>()?,
    };
    Ok(Scenario { name, overrides })
}

fn parse_override(ov: &Json, ckt: &Circuit) -> Result<CircuitOverride, WireError> {
    let kind = str_field(ov, "kind", "override")?;
    let device = |ov: &Json| -> Result<_, WireError> {
        let label = str_field(ov, "device", "override")?;
        ckt.find_device(&label)
            .map_err(|e| WireError::from(TranvarError::from(e)))
    };
    match kind.as_str() {
        "resistance" => Ok(CircuitOverride::Resistance {
            device: device(ov)?,
            ohms: num_field(ov, "ohms", "override")?,
        }),
        "capacitance" => Ok(CircuitOverride::Capacitance {
            device: device(ov)?,
            farads: num_field(ov, "farads", "override")?,
        }),
        "inductance" => Ok(CircuitOverride::Inductance {
            device: device(ov)?,
            henries: num_field(ov, "henries", "override")?,
        }),
        "source-dc" => Ok(CircuitOverride::SourceDc {
            device: device(ov)?,
            value: num_field(ov, "value", "override")?,
        }),
        "source-scale" => Ok(CircuitOverride::SourceScale {
            device: device(ov)?,
            factor: num_field(ov, "factor", "override")?,
        }),
        "sigma-scale" => Ok(CircuitOverride::SigmaScale {
            factor: num_field(ov, "factor", "override")?,
        }),
        other => Err(WireError::bad(format!(
            "override: unsupported kind '{other}'"
        ))),
    }
}

// ── Response rendering ──

/// Renders a request-level error body (shed, parse failure, drain, queue
/// deadline): `{"status":"error","code":...,"http":...,"message":...}`.
pub fn error_body(code: &str, http: u16, message: &str) -> String {
    Json::Obj(vec![
        ("status".into(), Json::Str("error".into())),
        ("code".into(), Json::Str(code.into())),
        ("http".into(), Json::Num(f64::from(http))),
        ("message".into(), Json::Str(message.into())),
    ])
    .to_string()
}

fn report_json(r: &VariationReport) -> Json {
    Json::Obj(vec![
        ("metric".into(), Json::Str(r.metric.clone())),
        ("nominal".into(), Json::Num(r.nominal)),
        ("sigma".into(), Json::Num(r.sigma())),
        (
            "contributions".into(),
            Json::Arr(
                r.contributions
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("label".into(), Json::Str(c.label.clone())),
                            ("param_index".into(), Json::Num(c.param_index as f64)),
                            ("sensitivity".into(), Json::Num(c.sensitivity)),
                            ("sigma".into(), Json::Num(c.sigma)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn scenario_json(name: &str, result: &Result<Vec<VariationReport>, CoreError>) -> (u16, Json) {
    match result {
        Ok(reports) => (
            200,
            Json::Obj(vec![
                ("name".into(), Json::Str(name.into())),
                ("status".into(), Json::Str("ok".into())),
                (
                    "reports".into(),
                    Json::Arr(reports.iter().map(report_json).collect()),
                ),
            ]),
        ),
        Err(e) => {
            let err = TranvarError::from(e.clone());
            let ws = err.wire_status();
            (
                ws.http,
                Json::Obj(vec![
                    ("name".into(), Json::Str(name.into())),
                    ("status".into(), Json::Str("error".into())),
                    ("code".into(), Json::Str(ws.code.into())),
                    ("http".into(), Json::Num(f64::from(ws.http))),
                    ("message".into(), Json::Str(err.to_string())),
                ]),
            )
        }
    }
}

/// Renders the analyze response body from per-scenario report results.
///
/// Returns `(overall_status, body)`; the overall HTTP status is 200 when
/// every scenario succeeded, otherwise the numerically largest scenario
/// status (500 ≻ 504 ≻ 422 ≻ 400 severity order on this wire).
pub fn body_ok(
    deck: &str,
    n_unique_solves: usize,
    scenarios: &[(String, Result<Vec<VariationReport>, CoreError>)],
) -> (u16, String) {
    let mut status = 200u16;
    let mut rendered = Vec::with_capacity(scenarios.len());
    for (name, result) in scenarios {
        let (st, js) = scenario_json(name, result);
        status = status.max(st);
        rendered.push(js);
    }
    let body = Json::Obj(vec![
        ("deck".into(), Json::Str(deck.into())),
        ("n_unique_solves".into(), Json::Num(n_unique_solves as f64)),
        ("scenarios".into(), Json::Arr(rendered)),
    ])
    .to_string();
    (status, body)
}

/// Renders an in-process [`CampaignResult`] exactly as the daemon renders
/// the equivalent request — the byte-identity oracle for the serve tests
/// and the `serve_throughput` bench.
pub fn body_from_campaign(deck: &str, result: &CampaignResult) -> (u16, String) {
    let scenarios: Vec<_> = result
        .outcomes
        .iter()
        .map(|o| {
            let reports = o
                .result
                .as_ref()
                .map(|a| a.reports.clone())
                .map_err(|e| e.clone());
            (o.scenario.clone(), reports)
        })
        .collect();
    body_ok(deck, result.n_unique_solves, &scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_body() -> String {
        r#"{
            "deck": "divider",
            "period": 1e-6,
            "n_steps": 16,
            "metrics": [{"name": "vout", "kind": "dc-average", "node": "b"}],
            "scenarios": [
                {"name": "nominal"},
                {"name": "sigma2", "overrides": [{"kind": "sigma-scale", "factor": 2.0}]}
            ]
        }"#
        .into()
    }

    #[test]
    fn parses_a_full_request() {
        let req = parse_request(&valid_body()).unwrap();
        assert_eq!(req.deck, "divider");
        assert_eq!(req.n_steps, 16);
        assert_eq!(req.metrics.len(), 1);
        assert_eq!(req.scenarios.len(), 2);
        assert_eq!(req.scenarios[1].overrides.len(), 1);
        assert!(req.deadline_ms.is_none());
        assert!(!req.retry);
    }

    #[test]
    fn unknown_labels_surface_typed_circuit_codes() {
        let body = valid_body().replace("\"node\": \"b\"", "\"node\": \"zz\"");
        let err = parse_request(&body).unwrap_err();
        assert_eq!(err.http, 400);
        assert_eq!(err.code, "circuit.unknown-node");

        let body = valid_body().replace(
            r#"{"kind": "sigma-scale", "factor": 2.0}"#,
            r#"{"kind": "resistance", "device": "R9", "ohms": 1.0}"#,
        );
        let err = parse_request(&body).unwrap_err();
        assert_eq!(err.http, 400);
        assert_eq!(err.code, "circuit.unknown-device");
    }

    #[test]
    fn structural_problems_are_serve_bad_request() {
        for body in [
            "not json",
            r#"{"deck": "divider"}"#,
            &valid_body().replace("divider", "mystery"),
            &valid_body().replace("16", "0"),
            &valid_body().replace("1e-6", "-1.0"),
        ] {
            let err = parse_request(body).unwrap_err();
            assert_eq!(err.http, 400, "body: {body}");
        }
        assert_eq!(
            parse_request(&valid_body().replace("divider", "mystery"))
                .unwrap_err()
                .code,
            "serve.unknown-deck"
        );
    }

    #[test]
    fn overall_status_is_the_worst_scenario_status() {
        let ok: Result<Vec<VariationReport>, CoreError> = Ok(Vec::new());
        let bad: Result<Vec<VariationReport>, CoreError> = Err(CoreError::BadConfig("x".into()));
        let (st, _) = body_ok("divider", 1, &[("a".into(), ok), ("b".into(), bad)]);
        assert_eq!(st, 400);
        let (st, body) = body_ok("divider", 1, &[]);
        assert_eq!(st, 200);
        assert!(body.contains("\"n_unique_solves\":1"));
    }
}
