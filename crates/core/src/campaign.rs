//! Scenario campaigns: many circuit variants × many metrics, one serving
//! layer.
//!
//! A real variation-analysis service rarely runs the paper's flow once: it
//! sweeps the same testbench over supply corners, device sizings, mismatch
//! levels and bias points. A [`Campaign`] evaluates a grid of named
//! [`Scenario`]s — each a list of numeric-only
//! [`CircuitOverride`]s against one base circuit — through per-worker
//! analysis [`Session`]s, and returns per-scenario [`AnalysisResult`]s plus
//! an aggregate per-metric summary.
//!
//! Two levels of reuse make the campaign faster than a loop of per-call
//! [`analyze`] invocations:
//!
//! 1. **Session reuse.** Overrides preserve the MNA sparsity pattern
//!    ([`Circuit::revalue`]), so each worker's session stages the pattern
//!    and runs the symbolic analysis once; every further scenario is a pure
//!    numeric replay with zero workspace allocation.
//! 2. **Solve sharing.** The LPTV responses are solved at *unit* parameter
//!    value — mismatch σ enters only the report assembly. Scenarios whose
//!    solve-affecting overrides agree (differing only in
//!    [statistical-only](CircuitOverride::is_statistical_only) overrides,
//!    e.g. a σ-level sweep) share one PSS+LPTV solve, the campaign-layer
//!    version of the paper's "no additional simulation cost" claim. What
//!    they share is the solve's [`SensitivityTable`] (each metric's
//!    nominal value and per-parameter sensitivities, propagated only as
//!    far as the metrics read) and, beside it, the orbit: one
//!    `Arc<PssSolution>` that every sharing scenario's
//!    [`AnalysisResult::pss`] points at. A scenario copies neither the
//!    orbit nor any response; it only pairs the table with its own
//!    revalued circuit's σ.
//!
//! Both steps are [`Campaign`] methods, [`Campaign::solve_key`] and
//! [`Campaign::assemble`], so a caller that keeps its own cache of
//! solves across calls (the serving daemon keeps the tables) runs exactly
//! the code [`Campaign::run`] runs.
//!
//! Determinism: scenarios are keyed and chunked position-wise, each unique
//! solve is an isolated function of (base circuit, solve overrides), and —
//! for the dense backend — warm-session solves are bit-identical to fresh
//! ones, so `Campaign::run` produces byte-identical results for **any**
//! worker-thread count, and byte-identical to a sequential loop of
//! per-call `analyze` invocations. (The sparse backend replays pivot
//! orders across a worker's scenarios; see [`tranvar_engine::session`] for
//! its machine-precision caveat.)

use crate::analysis::{
    analyze, budget_of, reports_from_responses, solve_responses, solve_table, AnalysisResult,
    MetricSpec, PssConfig, SensitivityTable,
};
use crate::error::CoreError;
use crate::report::VariationReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use tranvar_circuit::{Circuit, CircuitOverride};
use tranvar_engine::retry::{flip_backend, ladder, run_ladder};
use tranvar_engine::{
    chunk_ranges, effective_threads, fault, is_retryable, map_scoped, Escalation, RetryPolicy,
    Session, SessionOptions, SessionStats, SolveDiagnostics, StepControl,
};
use tranvar_lptv::{LptvError, PeriodicResponse};
use tranvar_num::NumError;
use tranvar_pss::{PssError, PssSolution};

/// A named circuit variant: numeric-only overrides against a base circuit.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Report name (e.g. `"vdd=1.26 w=10u"`).
    pub name: String,
    /// Overrides applied (in order) to the base circuit.
    pub overrides: Vec<CircuitOverride>,
}

impl Scenario {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, overrides: Vec<CircuitOverride>) -> Self {
        Scenario {
            name: name.into(),
            overrides,
        }
    }

    /// The solve-affecting prefix of this scenario's overrides: everything
    /// that is not [statistical-only](CircuitOverride::is_statistical_only),
    /// in application order. Two scenarios with equal solve overrides share
    /// one PSS+LPTV solve.
    pub fn solve_overrides(&self) -> Vec<CircuitOverride> {
        self.overrides
            .iter()
            .filter(|ov| !ov.is_statistical_only())
            .cloned()
            .collect()
    }
}

/// Groups scenarios by their solve-affecting overrides: the deduplication
/// step behind the campaign's "one PSS+LPTV solve per unique key" sharing.
///
/// Returns `(keys, key_of_scenario)`: `keys` holds each unique
/// solve-override list in first-appearance order, and `key_of_scenario[i]`
/// indexes the key scenario `i` shares. σ-only variants of one operating
/// point therefore map to the same key — both [`Campaign::run`] and a
/// cache of solves keyed on them (e.g. a serving layer sharing solves
/// across requests) rely on exactly this grouping.
pub fn solve_groups(scenarios: &[Scenario]) -> (Vec<Vec<CircuitOverride>>, Vec<usize>) {
    let mut keys: Vec<Vec<CircuitOverride>> = Vec::new();
    let mut key_of_scenario = Vec::with_capacity(scenarios.len());
    for sc in scenarios {
        let key = sc.solve_overrides();
        let idx = match keys.iter().position(|k| *k == key) {
            Some(i) => i,
            None => {
                keys.push(key);
                keys.len() - 1
            }
        };
        key_of_scenario.push(idx);
    }
    (keys, key_of_scenario)
}

/// A scenario grid bound to one analysis configuration and metric set.
#[derive(Clone, Debug)]
pub struct Campaign {
    config: PssConfig,
    metrics: Vec<MetricSpec>,
    threads: usize,
    retry: RetryPolicy,
}

impl Campaign {
    /// Creates a campaign whose workers use all cores (`0`, capped at the
    /// number of unique solves; each worker solves on its own thread) and
    /// no retry escalation (a failing corner is reported after its first
    /// attempt; see [`Campaign::with_retry`]).
    pub fn new(config: PssConfig, metrics: Vec<MetricSpec>) -> Self {
        Campaign {
            config,
            metrics,
            threads: 0,
            retry: RetryPolicy::none(),
        }
    }

    /// Enables retry/fallback escalation for failing unique solves. On a
    /// retryable failure (non-convergence, a singular or non-finite
    /// factorization) the solve escalates through the periodic ladder —
    /// doubled shooting steps ([`Escalation::HalveTimestep`], which also
    /// tightens the LTE tolerances of an adaptive grid 10×), then the
    /// other solver backend ([`Escalation::SwitchBackend`]) — bounded by
    /// `policy.max_attempts`. Every attempt lands in the scenario's
    /// [`ScenarioOutcome::diagnostics`] trail. Budget exhaustion and panics
    /// are never retried.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Sets the worker-thread count (`0` = all cores, resolved by
    /// [`tranvar_engine::effective_threads`]); every worker runs a default
    /// one-worker session, so one solve never splits. On the dense solver
    /// backend (the default) the worker count never affects results, only
    /// scheduling; the sparse backend carries the pivot-replay caveat of
    /// [`tranvar_engine::session`] (worker assignment decides which solve
    /// seeds a session's pivot order — machine-precision identical, not
    /// byte-identical).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The campaign's analysis configuration.
    pub fn config(&self) -> &PssConfig {
        &self.config
    }

    /// The campaign's metric specs.
    pub fn metrics(&self) -> &[MetricSpec] {
        &self.metrics
    }

    /// Evaluates every scenario against `base` and aggregates the reports.
    ///
    /// Scenario failures (bad override, non-convergence at a corner) are
    /// captured per scenario in [`ScenarioOutcome::result`] as typed
    /// [`CoreError`]s — one failing corner does not poison the campaign.
    /// A worker panic is caught at the solve boundary
    /// ([`CoreError::Panic`]) and the worker continues with a fresh
    /// session, so even a buggy device model cannot take the campaign
    /// down. With [`Campaign::with_retry`], failing solves escalate
    /// through the periodic retry ladder first; each scenario's
    /// [`ScenarioOutcome::diagnostics`] records the attempt trail.
    ///
    /// # Errors
    ///
    /// Currently infallible at the campaign level (all failures are
    /// per-scenario); the `Result` reserves room for campaign-level
    /// validation.
    pub fn run(&self, base: &Circuit, scenarios: &[Scenario]) -> Result<CampaignResult, CoreError> {
        // ── Group scenarios by their solve-affecting overrides. ──
        let (solve_keys, key_of_scenario) = solve_groups(scenarios);
        let n_unique = solve_keys.len();

        // ── Solve each unique variant on worker sessions: the parallelism
        // is across solves, and each solve runs on its worker's thread. ──
        let workers = effective_threads(self.threads, n_unique);
        let chunk = n_unique.div_ceil(workers.max(1)).max(1);
        let worker_session = SessionOptions {
            solver: crate::analysis::solver_of(&self.config),
            ..SessionOptions::default()
        };
        type KeyOutcome = Result<(Arc<PssSolution>, SensitivityTable), CoreError>;
        let solve_chunk =
            |range: (usize, usize)| -> (Vec<(KeyOutcome, SolveDiagnostics)>, SessionStats) {
                let (start, len) = range;
                let mut stats = SessionStats::default();
                let mut session = Session::new(worker_session);
                let mut outcomes = Vec::with_capacity(len);
                for (j, key) in solve_keys[start..start + len].iter().enumerate() {
                    let vs = self.solve_key(&mut session, base, key, start + j, &mut stats);
                    if vs.poisoned {
                        // A caught panic may have left the session's cached
                        // workspaces mid-update; retire it so the chunk's
                        // remaining solves see clean state.
                        stats = stats.merged(session.stats());
                        session = Session::new(worker_session);
                    }
                    outcomes.push((vs.outcome, vs.diagnostics));
                }
                (outcomes, stats.merged(session.stats()))
            };
        let chunks = map_scoped(chunk_ranges(n_unique, chunk), solve_chunk);
        let mut solves = Vec::with_capacity(n_unique);
        let mut diags = Vec::with_capacity(n_unique);
        let mut stats = SessionStats::default();
        for (outcomes, worker_stats) in chunks {
            for (outcome, diag) in outcomes {
                solves.push(outcome);
                diags.push(diag);
            }
            stats = stats.merged(worker_stats);
        }

        // ── Assemble per-scenario reports against their own σ. ──
        // Every scenario of a solve reads the same table and shares its
        // orbit; nothing heavy is copied per scenario.
        let outcomes: Vec<ScenarioOutcome> = scenarios
            .iter()
            .zip(&key_of_scenario)
            .map(|(sc, &key)| {
                let result = match &solves[key] {
                    Err(e) => Err(e.clone()),
                    Ok((pss, table)) => {
                        self.assemble(base, sc, table)
                            .map(|reports| AnalysisResult {
                                pss: Arc::clone(pss),
                                reports,
                            })
                    }
                };
                ScenarioOutcome {
                    scenario: sc.name.clone(),
                    result,
                    diagnostics: diags[key].clone(),
                }
            })
            .collect();
        let summaries = summarize(&self.metrics, &outcomes);
        let retry_attempts = diags
            .iter()
            .map(|d| d.retry_attempts().saturating_sub(1))
            .sum();
        Ok(CampaignResult {
            outcomes,
            summaries,
            n_unique_solves: n_unique,
            retry_attempts,
            stats,
        })
    }

    /// Runs the unique solve of one [`solve_groups`] key: the base circuit
    /// revalued by `solve_overrides`, solved to the campaign's
    /// [`SensitivityTable`], with the orbit returned beside it. The solve
    /// is panic-isolated and climbs the campaign's retry ladder (see
    /// [`Campaign::with_retry`]); `solve_index` is its fault-injection
    /// index. This is the per-key step of [`Campaign::run`], and of a
    /// caller that caches tables across calls.
    pub fn solve_key(
        &self,
        session: &mut Session,
        base: &Circuit,
        solve_overrides: &[CircuitOverride],
        solve_index: usize,
        stats: &mut SessionStats,
    ) -> UniqueSolve<(Arc<PssSolution>, SensitivityTable)> {
        solve_unique_with(
            session,
            base,
            solve_overrides,
            &self.config,
            &self.retry,
            solve_index,
            stats,
            |session, ckt, config| solve_table(session, ckt, config, &self.metrics),
        )
    }

    /// Assembles one scenario's reports from the table of its key (a
    /// [`Campaign::solve_key`] product): the scenario's fully revalued
    /// circuit supplies the σ. This is the per-scenario step of
    /// [`Campaign::run`].
    ///
    /// # Errors
    ///
    /// Override failures; the table's metric-extraction error for the
    /// first metric that has one; [`CoreError::Metric`] for a non-finite
    /// report (e.g. a σ whose variance sum overflows).
    pub fn assemble(
        &self,
        base: &Circuit,
        sc: &Scenario,
        table: &SensitivityTable,
    ) -> Result<Vec<VariationReport>, CoreError> {
        table.reports(&scenario_circuit(base, sc)?, &self.metrics)
    }
}

/// The result of one unique solve through the campaign's panic-isolated,
/// retry-escalated solve path. `T` is what the solve produces:
/// [`Campaign::solve_key`] (hence [`Campaign::run`] and the serving
/// daemon) produces the orbit and a [`SensitivityTable`] for its metric
/// set; the default, the PSS orbit plus every unit-parameter response, is
/// the whole-trajectory oracle form that [`solve_unique`] returns.
pub struct UniqueSolve<T = (PssSolution, Vec<PeriodicResponse>)> {
    /// The solve's product, or the typed failure.
    pub outcome: Result<T, CoreError>,
    /// The recorded attempt trail.
    pub diagnostics: SolveDiagnostics,
    /// A panic was caught; the session may hold half-updated caches and
    /// must be retired (e.g. [`tranvar_engine::SessionPool::retire`]), not
    /// reused.
    pub poisoned: bool,
}

/// Runs one unique solve (PSS orbit + every unit-parameter response) with
/// the campaign's panic isolation and retry ladder.
///
/// This is the whole-trajectory oracle form of [`Campaign::solve_key`] —
/// same escalation ladder, same fault-injection sites — with whole
/// responses as its product, so [`scenario_reports`] on it is
/// bit-identical to the campaign's reports on the dense backend. No
/// shipping path calls it: `tests/sensitivity_table.rs`, the campaign's
/// retry tests and the perfbench replays do. Every attempt
/// runs through the engine's retry ladder ([`run_ladder`]) and lands in
/// the trail. `SwitchBackend` attempts run on a throwaway session of the
/// other backend than `session`'s (sessions pin their solver); its
/// structural work is merged into `stats`.
pub fn solve_unique(
    session: &mut Session,
    base: &Circuit,
    solve_overrides: &[CircuitOverride],
    config: &PssConfig,
    policy: &RetryPolicy,
    solve_index: usize,
    stats: &mut SessionStats,
) -> UniqueSolve {
    solve_unique_with(
        session,
        base,
        solve_overrides,
        config,
        policy,
        solve_index,
        stats,
        solve_responses,
    )
}

/// [`solve_unique`] with its product chosen by `product`, which runs on
/// the attempt's session, the revalued circuit and the attempt's
/// (escalated) configuration.
fn solve_unique_with<T>(
    session: &mut Session,
    base: &Circuit,
    solve_overrides: &[CircuitOverride],
    config: &PssConfig,
    policy: &RetryPolicy,
    solve_index: usize,
    stats: &mut SessionStats,
    product: impl Fn(&mut Session, &Circuit, &PssConfig) -> Result<T, CoreError>,
) -> UniqueSolve<T> {
    // The switch-backend rung moves off the session's own backend.
    let rescue = SessionOptions {
        solver: flip_backend(session.solver()),
        threads: session.threads(),
    };
    let solve_variant = |session: &mut Session, config: &PssConfig| {
        fault::panic_at(fault::sites::SCENARIO, solve_index);
        let mut ckt = base.clone();
        ckt.revalue(solve_overrides)?;
        product(session, &ckt, config)
    };
    let mut diag = SolveDiagnostics::new();
    let mut cur = config.clone();
    let mut poisoned = false;
    let outcome = run_ladder(
        ladder(policy),
        &budget_of(config),
        "campaign retry ladder",
        &mut diag,
        retryable_core,
        engine_view,
        |esc| {
            escalate_config(&mut cur, esc);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                if esc == Escalation::SwitchBackend {
                    let mut fresh = Session::new(rescue);
                    let r = solve_variant(&mut fresh, &cur);
                    *stats = stats.merged(fresh.stats());
                    r
                } else {
                    solve_variant(session, &cur)
                }
            }));
            // A caught panic is final: `retryable_core` never retries
            // `CoreError::Panic`, so the ladder ends on it.
            caught.unwrap_or_else(|payload| {
                poisoned = true;
                Err(CoreError::Panic {
                    context: format!("campaign unique solve {solve_index}"),
                    message: panic_message(payload.as_ref()),
                })
            })
        },
    );
    UniqueSolve {
        outcome,
        diagnostics: diag,
        poisoned,
    }
}

/// Applies one rung of the periodic ladder ([`ladder`]) cumulatively to
/// the PSS configuration: `HalveTimestep` doubles the shooting step count
/// and, under adaptive step control, tightens the LTE `reltol`/`abstol`
/// 10×. `SwitchBackend` needs no config change: it runs on a session of
/// the other backend.
fn escalate_config(config: &mut PssConfig, esc: Escalation) {
    if esc == Escalation::HalveTimestep {
        let opts = match config {
            PssConfig::Driven { opts, .. } => opts,
            PssConfig::Autonomous { opts, .. } => &mut opts.pss,
        };
        opts.n_steps *= 2;
        // In adaptive mode `n_steps` only seeds each cycle's first step —
        // the retry must reach the LTE controller to change the accepted
        // grid.
        if let StepControl::Adaptive(a) = &mut opts.step_control {
            a.reltol /= 10.0;
            a.abstol /= 10.0;
        }
    }
}

/// Stringifies a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// True when the campaign retry ladder may re-attempt after `e`
/// (non-convergence or a singular/non-finite factorization anywhere in the
/// PSS/LPTV stack; budget exhaustion, config errors and panics are final).
fn retryable_core(e: &CoreError) -> bool {
    fn num(n: &NumError) -> bool {
        matches!(n, NumError::Singular { .. } | NumError::NonFinite { .. })
    }
    match e {
        CoreError::Engine(e) => is_retryable(e),
        CoreError::Num(n) => num(n),
        CoreError::Pss(PssError::NoConvergence { .. })
        | CoreError::Pss(PssError::NoOscillation { .. }) => true,
        CoreError::Pss(PssError::Engine(e)) | CoreError::Lptv(LptvError::Engine(e)) => {
            is_retryable(e)
        }
        CoreError::Pss(PssError::Num(n)) | CoreError::Lptv(LptvError::Num(n)) => num(n),
        _ => false,
    }
}

/// The engine-level view of a core failure, for the [`SolveDiagnostics`]
/// attempt records (which are typed on [`tranvar_engine::EngineError`]).
fn engine_view(e: &CoreError) -> tranvar_engine::EngineError {
    use tranvar_engine::EngineError;
    match e {
        CoreError::Engine(e)
        | CoreError::Pss(PssError::Engine(e))
        | CoreError::Lptv(LptvError::Engine(e)) => e.clone(),
        CoreError::Num(n)
        | CoreError::Pss(PssError::Num(n))
        | CoreError::Lptv(LptvError::Num(n)) => EngineError::Num(n.clone()),
        other => EngineError::BadConfig(other.to_string()),
    }
}

/// Assembles one scenario's variation reports from a [`solve_unique`]
/// product: the whole-trajectory oracle form of
/// [`Campaign::assemble`], bit-identical to it on the dense
/// backend. `tests/sensitivity_table.rs` and the perfbench replays call
/// it.
///
/// # Errors
///
/// Override failures, then those of [`reports_from_responses`].
pub fn scenario_reports(
    base: &Circuit,
    sc: &Scenario,
    pss: &PssSolution,
    responses: &[PeriodicResponse],
    metrics: &[MetricSpec],
) -> Result<Vec<VariationReport>, CoreError> {
    reports_from_responses(&scenario_circuit(base, sc)?, pss, responses, metrics)
}

/// The fully revalued circuit of a scenario: it carries the scenario's σ
/// annotations and equals its solve circuit in everything the solve reads.
fn scenario_circuit(base: &Circuit, sc: &Scenario) -> Result<Circuit, CoreError> {
    let mut ckt = base.clone();
    ckt.revalue(&sc.overrides)?;
    Ok(ckt)
}

fn summarize(metrics: &[MetricSpec], outcomes: &[ScenarioOutcome]) -> Vec<MetricSummary> {
    metrics
        .iter()
        .enumerate()
        .map(|(mi, spec)| {
            let mut s = MetricSummary {
                metric: spec.name.clone(),
                n_ok: 0,
                n_failed: 0,
                min_sigma: f64::INFINITY,
                max_sigma: f64::NEG_INFINITY,
                mean_sigma: 0.0,
                worst_scenario: String::new(),
            };
            for oc in outcomes {
                match &oc.result {
                    Err(_) => s.n_failed += 1,
                    Ok(res) => {
                        let sigma = res.reports[mi].sigma();
                        s.n_ok += 1;
                        s.mean_sigma += sigma;
                        s.min_sigma = s.min_sigma.min(sigma);
                        if sigma > s.max_sigma {
                            s.max_sigma = sigma;
                            s.worst_scenario = oc.scenario.clone();
                        }
                    }
                }
            }
            if s.n_ok > 0 {
                s.mean_sigma /= s.n_ok as f64;
            } else {
                s.min_sigma = f64::NAN;
                s.max_sigma = f64::NAN;
                s.mean_sigma = f64::NAN;
            }
            s
        })
        .collect()
}

/// One scenario's outcome: the full analysis result, or the typed error
/// that failed it.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// The analysis result, or the per-scenario failure.
    pub result: Result<AnalysisResult, CoreError>,
    /// The attempt trail of the scenario's unique solve (shared between
    /// scenarios that share the solve). Empty for entry points that do not
    /// run the fault-tolerant path.
    pub diagnostics: SolveDiagnostics,
}

/// Aggregate statistics of one metric across a campaign's scenarios.
#[derive(Clone, Debug)]
pub struct MetricSummary {
    /// Metric name (from the [`MetricSpec`]).
    pub metric: String,
    /// Scenarios that evaluated successfully.
    pub n_ok: usize,
    /// Scenarios that failed.
    pub n_failed: usize,
    /// Smallest metric σ across successful scenarios (NaN if none).
    pub min_sigma: f64,
    /// Largest metric σ across successful scenarios (NaN if none).
    pub max_sigma: f64,
    /// Mean metric σ across successful scenarios (NaN if none).
    pub mean_sigma: f64,
    /// Name of the scenario with the largest σ (empty if none succeeded).
    pub worst_scenario: String,
}

/// Everything a [`Campaign::run`] produced.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// Per-scenario outcomes, in scenario order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Per-metric aggregates across scenarios, in metric order.
    pub summaries: Vec<MetricSummary>,
    /// Number of distinct PSS+LPTV solves performed (scenarios differing
    /// only in statistical overrides share one).
    pub n_unique_solves: usize,
    /// Total escalation attempts beyond each unique solve's first try
    /// (0 without [`Campaign::with_retry`] or when every corner converges
    /// first time).
    pub retry_attempts: usize,
    /// Structural-work counters summed over all worker sessions: with a
    /// pattern-preserving scenario grid, `pattern_builds` and
    /// `symbolic_analyses` stay at one per sparsity pattern per worker
    /// regardless of the scenario count.
    pub stats: SessionStats,
}

impl CampaignResult {
    /// Finds a scenario outcome by name.
    pub fn outcome(&self, name: &str) -> Option<&ScenarioOutcome> {
        self.outcomes.iter().find(|o| o.scenario == name)
    }

    /// Finds a metric summary by name.
    pub fn summary(&self, metric: &str) -> Option<&MetricSummary> {
        self.summaries.iter().find(|s| s.metric == metric)
    }
}

/// Runs each scenario as an isolated per-call [`analyze`] — no session
/// reuse, no solve sharing. This is the reference the campaign is measured
/// against (bench `campaign_throughput`) and validated against (bit-identity
/// property tests); it exists so the comparison is an honest public API
/// rather than a bench-local reimplementation.
///
/// # Errors
///
/// Propagates override failures; analysis failures (including caught
/// panics) are per-scenario.
pub fn run_scenarios_per_call(
    base: &Circuit,
    scenarios: &[Scenario],
    config: &PssConfig,
    metrics: &[MetricSpec],
) -> Result<Vec<ScenarioOutcome>, CoreError> {
    scenarios
        .iter()
        .enumerate()
        .map(|(i, sc)| {
            let mut ckt = base.clone();
            ckt.revalue(&sc.overrides)?;
            let result = match catch_unwind(AssertUnwindSafe(|| {
                fault::panic_at(fault::sites::SCENARIO, i);
                analyze(&ckt, config, metrics)
            })) {
                Ok(r) => r,
                Err(payload) => Err(CoreError::Panic {
                    context: format!("scenario `{}`", sc.name),
                    message: panic_message(payload.as_ref()),
                }),
            };
            Ok(ScenarioOutcome {
                scenario: sc.name.clone(),
                result,
                diagnostics: SolveDiagnostics::new(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Metric;
    use tranvar_circuit::{NodeId, Waveform};
    use tranvar_pss::PssOptions;

    fn divider() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
        let r1 = ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-12);
        ckt.annotate_resistor_mismatch(r1, 10.0);
        ckt
    }

    #[test]
    fn solve_groups_shares_sigma_only_variants() {
        let ckt = divider();
        let v1 = ckt.find_device("V1").unwrap();
        let scenarios = vec![
            Scenario::new("nominal", vec![]),
            Scenario::new("sigma2", vec![CircuitOverride::SigmaScale { factor: 2.0 }]),
            Scenario::new(
                "hot",
                vec![CircuitOverride::SourceDc {
                    device: v1,
                    value: 2.2,
                }],
            ),
            Scenario::new(
                "hot-sigma2",
                vec![
                    CircuitOverride::SourceDc {
                        device: v1,
                        value: 2.2,
                    },
                    CircuitOverride::SigmaScale { factor: 2.0 },
                ],
            ),
        ];
        let (keys, key_of) = solve_groups(&scenarios);
        assert_eq!(keys.len(), 2, "σ-only variants must share a solve");
        assert_eq!(key_of, vec![0, 0, 1, 1]);
        assert!(keys[0].is_empty());
    }

    fn campaign(ckt: &Circuit) -> Campaign {
        let mut opts = PssOptions::default();
        opts.n_steps = 16;
        let b = ckt.find_node("b").unwrap();
        Campaign::new(
            PssConfig::Driven { period: 1e-6, opts },
            vec![MetricSpec::new("vout", Metric::DcAverage { node: b })],
        )
    }

    fn grid(ckt: &Circuit) -> Vec<Scenario> {
        let v1 = ckt.find_device("V1").unwrap();
        let mut scenarios = Vec::new();
        for (vi, vdd) in [1.8, 2.0, 2.2].iter().enumerate() {
            for (si, sf) in [1.0, 2.0].iter().enumerate() {
                scenarios.push(Scenario::new(
                    format!("v{vi}s{si}"),
                    vec![
                        CircuitOverride::SourceDc {
                            device: v1,
                            value: *vdd,
                        },
                        CircuitOverride::SigmaScale { factor: *sf },
                    ],
                ));
            }
        }
        scenarios
    }

    /// Analytic check: σ(vout) = V/4/1000·σ_R scales with both the supply
    /// and the σ override; solves are shared across the σ dimension.
    #[test]
    fn campaign_matches_analytic_divider() {
        let ckt = divider();
        let scenarios = grid(&ckt);
        let res = campaign(&ckt)
            .with_threads(1)
            .run(&ckt, &scenarios)
            .unwrap();
        assert_eq!(res.outcomes.len(), 6);
        assert_eq!(res.n_unique_solves, 3, "σ sweep must share solves");
        for oc in &res.outcomes {
            let rep = &oc.result.as_ref().unwrap().reports[0];
            let (vdd, sf) = match oc.scenario.as_str() {
                "v0s0" => (1.8, 1.0),
                "v0s1" => (1.8, 2.0),
                "v1s0" => (2.0, 1.0),
                "v1s1" => (2.0, 2.0),
                "v2s0" => (2.2, 1.0),
                "v2s1" => (2.2, 2.0),
                other => panic!("unexpected scenario {other}"),
            };
            let expect = vdd / 4.0 / 1e3 * 10.0 * sf;
            assert!(
                (rep.sigma() - expect).abs() < 1e-6 * expect,
                "{}: {} vs {expect}",
                oc.scenario,
                rep.sigma()
            );
            assert!((rep.nominal - vdd / 2.0).abs() < 1e-9);
        }
        let sum = res.summary("vout").unwrap();
        assert_eq!(sum.n_ok, 6);
        assert_eq!(sum.n_failed, 0);
        assert_eq!(sum.worst_scenario, "v2s1");
        assert!(sum.max_sigma >= sum.mean_sigma && sum.mean_sigma >= sum.min_sigma);
    }

    /// A failing corner is reported as a typed per-scenario error without
    /// failing the campaign.
    #[test]
    fn failing_scenario_is_isolated_and_typed() {
        let ckt = divider();
        let r1 = ckt.find_device("R1").unwrap();
        let scenarios = vec![
            Scenario::new("ok", vec![]),
            Scenario::new(
                "bad-override",
                vec![CircuitOverride::Capacitance {
                    device: r1,
                    farads: 1e-9,
                }],
            ),
        ];
        let res = campaign(&ckt).run(&ckt, &scenarios).unwrap();
        assert!(res.outcome("ok").unwrap().result.is_ok());
        let err = res.outcome("bad-override").unwrap().result.as_ref();
        assert!(matches!(err, Err(CoreError::Circuit(_))), "{err:?}");
        let sum = res.summary("vout").unwrap();
        assert_eq!((sum.n_ok, sum.n_failed), (1, 1));
    }

    /// Aggregation over zero successful scenarios: the summary must not
    /// panic, and the NaN sentinels must be accompanied by explicit
    /// failure counts (never NaN with `n_ok > 0`).
    #[test]
    fn all_scenarios_failing_summarizes_without_panicking() {
        let ckt = divider();
        let r1 = ckt.find_device("R1").unwrap();
        let bad = |name: &str| {
            Scenario::new(
                name,
                vec![CircuitOverride::Capacitance {
                    device: r1,
                    farads: 1e-9,
                }],
            )
        };
        let res = campaign(&ckt).run(&ckt, &[bad("a"), bad("b")]).unwrap();
        assert_eq!(res.outcomes.len(), 2);
        assert!(res.outcomes.iter().all(|o| o.result.is_err()));
        let sum = res.summary("vout").unwrap();
        assert_eq!((sum.n_ok, sum.n_failed), (0, 2));
        assert!(sum.min_sigma.is_nan());
        assert!(sum.max_sigma.is_nan());
        assert!(sum.mean_sigma.is_nan());
        assert!(sum.worst_scenario.is_empty());
    }

    /// The per-call reference produces the same reports as the campaign.
    #[test]
    fn campaign_matches_per_call_reference() {
        let ckt = divider();
        let scenarios = grid(&ckt);
        let camp = campaign(&ckt);
        let res = camp.run(&ckt, &scenarios).unwrap();
        let reference =
            run_scenarios_per_call(&ckt, &scenarios, camp.config(), camp.metrics()).unwrap();
        for (a, b) in res.outcomes.iter().zip(reference.iter()) {
            let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            for (x, y) in ra.reports.iter().zip(rb.reports.iter()) {
                assert_eq!(x.nominal.to_bits(), y.nominal.to_bits());
                for (cx, cy) in x.contributions.iter().zip(y.contributions.iter()) {
                    assert_eq!(cx.sensitivity.to_bits(), cy.sensitivity.to_bits());
                    assert_eq!(cx.sigma.to_bits(), cy.sigma.to_bits());
                }
            }
        }
    }

    /// The halved-timestep rung doubles the shooting steps of both config
    /// kinds and, on an adaptive grid, also tightens the LTE tolerances:
    /// there `n_steps` only seeds each cycle's first step.
    #[test]
    fn halve_dt_rung_tightens_adaptive_tolerances() {
        use tranvar_engine::AdaptiveOptions;
        use tranvar_pss::OscOptions;
        let pss_of = |c: &PssConfig| match c {
            PssConfig::Driven { opts, .. } => opts.clone(),
            PssConfig::Autonomous { opts, .. } => opts.pss.clone(),
        };
        // Fixed grid: only the step count changes.
        let mut fixed = campaign(&divider()).config;
        escalate_config(&mut fixed, Escalation::HalveTimestep);
        assert_eq!(pss_of(&fixed).n_steps, 32);
        assert_eq!(pss_of(&fixed).step_control, StepControl::Fixed);
        // Adaptive grid, driven and autonomous: doubled seed steps and both
        // LTE tolerances 10× tighter.
        let adaptive = StepControl::Adaptive(AdaptiveOptions {
            reltol: 1e-3,
            abstol: 1e-6,
            ..AdaptiveOptions::default()
        });
        let mut driven = PssOptions::default();
        driven.step_control = adaptive;
        let mut osc = OscOptions::default();
        osc.pss.step_control = adaptive;
        let configs = [
            PssConfig::Driven {
                period: 1e-6,
                opts: driven,
            },
            PssConfig::Autonomous {
                period_hint: 1e-9,
                phase_node: NodeId::GROUND,
                phase_value: 0.0,
                opts: osc,
            },
        ];
        for mut config in configs {
            let before = pss_of(&config).n_steps;
            escalate_config(&mut config, Escalation::HalveTimestep);
            let opts = pss_of(&config);
            assert_eq!(opts.n_steps, 2 * before);
            match opts.step_control {
                StepControl::Adaptive(a) => {
                    assert_eq!(a.reltol, 1e-4);
                    assert_eq!(a.abstol, 1e-7);
                }
                StepControl::Fixed => panic!("mode must be preserved"),
            }
        }
        // The switch-backend rung changes no option.
        let mut switched = campaign(&divider()).config;
        escalate_config(&mut switched, Escalation::SwitchBackend);
        assert_eq!(pss_of(&switched), pss_of(&campaign(&divider()).config));
    }

    #[cfg(feature = "fault-inject")]
    mod fault_injected {
        use super::*;
        use tranvar_engine::fault::{sites, FaultAction, FaultPlan};
        use tranvar_engine::{EngineError, RetryPolicy};

        fn vdd_grid(ckt: &Circuit) -> Vec<Scenario> {
            let v1 = ckt.find_device("V1").unwrap();
            [1.8, 2.0, 2.2]
                .iter()
                .enumerate()
                .map(|(i, vdd)| {
                    Scenario::new(
                        format!("v{i}"),
                        vec![CircuitOverride::SourceDc {
                            device: v1,
                            value: *vdd,
                        }],
                    )
                })
                .collect()
        }

        /// A worker panicking mid-chunk becomes a typed per-scenario
        /// error; the chunk's remaining solves run on a fresh session and
        /// the campaign completes with a sane summary.
        #[test]
        fn worker_panic_mid_chunk_is_isolated() {
            let ckt = divider();
            let scenarios = vdd_grid(&ckt);
            let _guard = FaultPlan::new()
                .fail(sites::SCENARIO, 1, FaultAction::Panic)
                .install();
            let res = campaign(&ckt)
                .with_threads(1)
                .run(&ckt, &scenarios)
                .unwrap();
            assert!(res.outcome("v0").unwrap().result.is_ok());
            assert!(res.outcome("v2").unwrap().result.is_ok());
            let failed = res.outcome("v1").unwrap();
            match &failed.result {
                Err(CoreError::Panic { context, message }) => {
                    assert!(context.contains("unique solve 1"), "{context}");
                    assert!(message.contains("injected panic"), "{message}");
                }
                other => panic!("expected Panic outcome, got {other:?}"),
            }
            assert_eq!(failed.diagnostics.stages(), vec!["retry[0]:initial"]);
            assert!(failed.diagnostics.attempts[0].error.is_some());
            let sum = res.summary("vout").unwrap();
            assert_eq!((sum.n_ok, sum.n_failed), (2, 1));
            assert!(sum.mean_sigma.is_finite());
        }

        /// The per-call reference isolates panics the same way.
        #[test]
        fn per_call_reference_isolates_panics() {
            let ckt = divider();
            let scenarios = vdd_grid(&ckt);
            let camp = campaign(&ckt);
            let _guard = FaultPlan::new()
                .fail(sites::SCENARIO, 0, FaultAction::Panic)
                .install();
            let outcomes =
                run_scenarios_per_call(&ckt, &scenarios, camp.config(), camp.metrics()).unwrap();
            assert!(matches!(outcomes[0].result, Err(CoreError::Panic { .. })));
            assert!(outcomes[1].result.is_ok());
            assert!(outcomes[2].result.is_ok());
        }

        /// An injected first-attempt failure is rescued by the periodic
        /// retry ladder, and the rescue is visible in the attempt trail.
        #[test]
        fn retry_ladder_rescues_injected_nonconvergence() {
            let ckt = divider();
            let scenarios = vec![Scenario::new("only", vec![])];
            let _guard = FaultPlan::new()
                .fail(sites::RETRY_ATTEMPT, 0, FaultAction::NoConverge)
                .install();
            let res = campaign(&ckt)
                .with_retry(RetryPolicy::default())
                .with_threads(1)
                .run(&ckt, &scenarios)
                .unwrap();
            let oc = res.outcome("only").unwrap();
            assert!(oc.result.is_ok(), "{:?}", oc.result.as_ref().err());
            assert_eq!(
                oc.diagnostics.stages(),
                vec!["retry[0]:initial", "retry[1]:halve-dt"]
            );
            assert_eq!(oc.diagnostics.succeeded_stage(), Some("retry[1]:halve-dt"));
            assert_eq!(res.retry_attempts, 1);
        }

        /// An already-expired shared deadline stops the campaign ladder
        /// before any attempt runs, for every scenario, with the typed
        /// deadline error.
        #[test]
        fn expired_deadline_short_circuits_the_campaign_ladder() {
            use std::time::Duration;
            use tranvar_engine::{BudgetKind, BudgetLimits, EngineError, SolveBudget};
            let ckt = divider();
            let scenarios = vdd_grid(&ckt);
            let _guard = FaultPlan::new()
                .mock_elapsed(Duration::from_secs(2))
                .install();
            let mut camp = campaign(&ckt);
            if let PssConfig::Driven { opts, .. } = &mut camp.config {
                opts.newton.budget =
                    SolveBudget::new(BudgetLimits::default().deadline(Duration::from_secs(1)));
            }
            let res = camp
                .with_retry(RetryPolicy::default())
                .with_threads(1)
                .run(&ckt, &scenarios)
                .unwrap();
            for oc in &res.outcomes {
                assert_eq!(
                    oc.diagnostics.stages(),
                    vec!["retry[0]:deadline-short-circuit"]
                );
                match &oc.result {
                    Err(CoreError::Engine(EngineError::BudgetExceeded { analysis, progress })) => {
                        assert_eq!(analysis, "campaign retry ladder");
                        assert_eq!(progress.exhausted, BudgetKind::Deadline);
                    }
                    other => panic!("expected a deadline error, got {other:?}"),
                }
            }
            assert_eq!(res.retry_attempts, 0);
        }

        /// Without retry enabled the injected failure is final — the
        /// escalation never runs behind the user's back.
        #[test]
        fn no_retry_by_default() {
            let ckt = divider();
            let scenarios = vec![Scenario::new("only", vec![])];
            let _guard = FaultPlan::new()
                .fail(sites::RETRY_ATTEMPT, 0, FaultAction::NoConverge)
                .install();
            let res = campaign(&ckt)
                .with_threads(1)
                .run(&ckt, &scenarios)
                .unwrap();
            let oc = res.outcome("only").unwrap();
            assert!(matches!(
                oc.result,
                Err(CoreError::Engine(
                    tranvar_engine::EngineError::NoConvergence { .. }
                ))
            ));
            assert_eq!(oc.diagnostics.stages(), vec!["retry[0]:initial"]);
            assert_eq!(res.retry_attempts, 0);
        }

        /// Two injected failures climb the whole periodic ladder: the
        /// switch-backend rung rescues the solve.
        #[test]
        fn retry_ladder_reaches_switch_backend() {
            let ckt = divider();
            let scenarios = vec![Scenario::new("only", vec![])];
            let _guard = FaultPlan::new()
                .fail_range(sites::RETRY_ATTEMPT, 0, 2, FaultAction::NoConverge)
                .install();
            let res = campaign(&ckt)
                .with_retry(RetryPolicy::default())
                .with_threads(1)
                .run(&ckt, &scenarios)
                .unwrap();
            let oc = res.outcome("only").unwrap();
            assert!(oc.result.is_ok(), "{:?}", oc.result.as_ref().err());
            assert_eq!(
                oc.diagnostics.stages(),
                vec![
                    "retry[0]:initial",
                    "retry[1]:halve-dt",
                    "retry[2]:switch-backend",
                ]
            );
            assert_eq!(
                oc.diagnostics.succeeded_stage(),
                Some("retry[2]:switch-backend")
            );
            assert_eq!(res.retry_attempts, 2);
        }

        /// `max_attempts` bounds the ladder: two allowed attempts against
        /// four injected failures end in the typed failure.
        #[test]
        fn max_attempts_bounds_the_ladder() {
            let ckt = divider();
            let scenarios = vec![Scenario::new("only", vec![])];
            let _guard = FaultPlan::new()
                .fail_range(sites::RETRY_ATTEMPT, 0, 4, FaultAction::NoConverge)
                .install();
            let res = campaign(&ckt)
                .with_retry(RetryPolicy { max_attempts: 2 })
                .with_threads(1)
                .run(&ckt, &scenarios)
                .unwrap();
            let oc = res.outcome("only").unwrap();
            assert!(matches!(
                oc.result,
                Err(CoreError::Engine(EngineError::NoConvergence { .. }))
            ));
            assert_eq!(
                oc.diagnostics.stages(),
                vec!["retry[0]:initial", "retry[1]:halve-dt"]
            );
            assert_eq!(oc.diagnostics.retry_attempts(), 2);
        }

        /// A tripped budget is a global bound: the ladder ends on it.
        #[test]
        fn budget_exhaustion_is_never_retried() {
            use tranvar_engine::{BudgetLimits, SolveBudget};
            let ckt = divider();
            let scenarios = vec![Scenario::new("only", vec![])];
            let mut camp = campaign(&ckt);
            if let PssConfig::Driven { opts, .. } = &mut camp.config {
                opts.newton.budget = SolveBudget::new(BudgetLimits::default().max_newton_iters(1));
            }
            let res = camp
                .with_retry(RetryPolicy::default())
                .with_threads(1)
                .run(&ckt, &scenarios)
                .unwrap();
            let oc = res.outcome("only").unwrap();
            assert!(oc.result.is_err());
            assert_eq!(oc.diagnostics.stages(), vec!["retry[0]:initial"]);
            assert!(matches!(
                oc.diagnostics.attempts[0].error,
                Some(EngineError::BudgetExceeded { .. })
            ));
        }

        /// A 3-stage CMOS inverter chain with 5 fF loads, driven by a
        /// pulse: its dense and sparse PSS orbits differ in the last bits.
        fn inverter_chain() -> Circuit {
            use tranvar_circuit::{MosModel, MosType, Pulse};
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let mut input = ckt.node("in");
            ckt.add_vsource("VDD", vdd, NodeId::GROUND, Waveform::Dc(1.2));
            let pulse = Pulse {
                v0: 0.0,
                v1: 1.2,
                delay: 2e-10,
                rise: 5e-11,
                fall: 5e-11,
                width: 5e-10,
                period: 2e-9,
            };
            ckt.add_vsource("VIN", input, NodeId::GROUND, Waveform::Pulse(pulse));
            for stage in 0..3 {
                let out = ckt.node(&format!("out{stage}"));
                for (ty, model, w, rail) in [
                    (MosType::Pmos, MosModel::pmos_013(), 2e-6, vdd),
                    (MosType::Nmos, MosModel::nmos_013(), 1e-6, NodeId::GROUND),
                ] {
                    let label = format!("M{ty:?}{stage}");
                    ckt.add_mosfet(&label, out, input, rail, ty, model, w, 0.13e-6);
                }
                ckt.add_capacitor(&format!("C{stage}"), out, NodeId::GROUND, 5e-15);
                input = out;
            }
            ckt
        }

        /// On a sparse session the switch-backend rung solves on the dense
        /// backend, and the rungs are cumulative: after a genuinely failed
        /// halve-dt attempt, the rescued orbit is bit-equal to a plain dense
        /// solve at twice the steps.
        #[test]
        fn switch_backend_rung_leaves_the_session_backend() {
            use tranvar_engine::SolverKind;
            let ckt = inverter_chain();
            let config = |n_steps| {
                let mut opts = PssOptions::default();
                opts.n_steps = n_steps;
                PssConfig::Driven { period: 2e-9, opts }
            };
            let solve = |kind, config: &PssConfig, policy: &RetryPolicy| {
                let mut stats = SessionStats::default();
                let mut session = Session::with_solver(kind);
                let u = solve_unique(&mut session, &ckt, &[], config, policy, 0, &mut stats);
                let (pss, _) = u.outcome.unwrap();
                let bits: Vec<u64> = pss.states.iter().flatten().map(|v| v.to_bits()).collect();
                (bits, u.diagnostics)
            };
            let none = RetryPolicy::none();
            let (dense, _) = solve(SolverKind::Dense, &config(16), &none);
            let (sparse, _) = solve(SolverKind::Sparse, &config(16), &none);
            assert!(dense != sparse, "the backends must be distinguishable here");
            // Attempt 0 is failed before it runs, so the halve-dt rung is the
            // first to solve; a singular factorization inside its shooting
            // loop (past the few DC factorizations) fails it for real.
            let _guard = FaultPlan::new()
                .fail(sites::RETRY_ATTEMPT, 0, FaultAction::NoConverge)
                .fail(sites::FACTOR, 50, FaultAction::Singular)
                .install();
            let (rescued, diag) = solve(SolverKind::Sparse, &config(8), &RetryPolicy::default());
            assert_eq!(
                diag.stages(),
                vec![
                    "retry[0]:initial",
                    "retry[1]:halve-dt",
                    "retry[2]:switch-backend",
                ]
            );
            assert_eq!(
                diag.attempts[1].error,
                Some(EngineError::Num(NumError::Singular { col: 0 }))
            );
            assert!(
                rescued == dense,
                "the switch-backend rung did not run on the dense backend at 2x steps"
            );
        }
    }
}
