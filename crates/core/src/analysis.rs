//! The end-to-end pseudo-noise mismatch analysis flow (paper Fig. 2):
//!
//! 1. mismatch parameters → pseudo-noise sources (already annotated on the
//!    circuit via Pelgrom/passive descriptors),
//! 2. **one** PSS solve (driven shooting or autonomous bordered shooting),
//! 3. **one** LPTV periodic solve per mismatch parameter, reusing every
//!    factorization from step 2 and propagating only what the metrics read
//!    (their nodes, up to their last sample; nothing past the boundary
//!    solve for a frequency),
//! 4. metric extraction per Section V → a [`VariationReport`] with the full
//!    per-source breakdown.
//!
//! The returned reports carry everything eqs. 10–16 need — correlations
//! between metrics, difference metrics (DNL), and design-parameter
//! sensitivities — with *no further simulation*.

use crate::error::CoreError;
use crate::metric::{Metric, Readout};
use crate::report::{Contribution, VariationReport};
use std::sync::Arc;
use tranvar_circuit::{Circuit, MismatchParam, NodeId};
use tranvar_engine::{Session, SolveBudget};
use tranvar_lptv::{PeriodicResponse, PeriodicSolver};
use tranvar_pss::{autonomous_pss_in, shooting_pss_in, OscOptions, PssOptions, PssSolution};

/// How the periodic steady state is obtained.
#[derive(Clone, Debug)]
pub enum PssConfig {
    /// Driven circuit with known period.
    Driven {
        /// Analysis period (every source must be DC or divide it).
        period: f64,
        /// Shooting controls.
        opts: PssOptions,
    },
    /// Autonomous oscillator.
    Autonomous {
        /// Order-of-magnitude period guess (s). The warm-up integrates
        /// hint-length cycles from the kicked DC point, on a grid 4×
        /// coarser than the shooting grid, and stops at the first one
        /// after which it has seen two rising crossings of `phase_value`
        /// on `phase_node` (at most [`OscOptions::settle_periods`] cycles,
        /// rounded up). The last crossing interval seeds the period
        /// unknown, and the state interpolated at the last crossing seeds
        /// the orbit, so the solved orbit does not depend on the hint
        /// beyond the shooting tolerance.
        period_hint: f64,
        /// Node carrying the phase condition.
        phase_node: NodeId,
        /// Level pinned by the phase condition.
        phase_value: f64,
        /// Oscillator shooting controls.
        opts: OscOptions,
    },
}

/// A named metric to extract.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    /// Report name.
    pub name: String,
    /// The metric.
    pub metric: Metric,
}

impl MetricSpec {
    /// Convenience constructor.
    pub fn new(name: &str, metric: Metric) -> Self {
        MetricSpec {
            name: name.into(),
            metric,
        }
    }
}

/// Result of the full flow: the PSS orbit and one variation report per
/// requested metric.
///
/// The orbit is shared, not copied: the scenarios of a [`Campaign`] that
/// share one solve hold the same `Arc`. The per-parameter periodic
/// responses are not kept; the reports carry the sensitivities the metrics
/// read from them (use [`PeriodicSolver::all_param_responses`] for whole
/// trajectories).
///
/// [`Campaign`]: crate::campaign::Campaign
#[derive(Clone, Debug)]
pub struct AnalysisResult {
    /// The converged periodic steady state.
    pub pss: Arc<PssSolution>,
    /// One report per metric, in request order.
    pub reports: Vec<VariationReport>,
}

impl AnalysisResult {
    /// Finds a report by name.
    pub fn report(&self, name: &str) -> Option<&VariationReport> {
        self.reports.iter().find(|r| r.metric == name)
    }
}

/// Runs the complete sensitivity-based mismatch analysis.
///
/// # Errors
///
/// Propagates PSS, LPTV and metric-extraction failures.
///
/// # Examples
///
/// A resistor divider's output-voltage variation (the DC special case):
///
/// ```
/// use tranvar_circuit::{Circuit, NodeId, Waveform};
/// use tranvar_core::analysis::{analyze, MetricSpec, PssConfig};
/// use tranvar_core::metric::Metric;
/// use tranvar_pss::PssOptions;
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let b = ckt.node("b");
/// ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
/// let r1 = ckt.add_resistor("R1", a, b, 1e3);
/// ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
/// ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-12);
/// ckt.annotate_resistor_mismatch(r1, 10.0);
///
/// let mut opts = PssOptions::default();
/// opts.n_steps = 16;
/// let res = analyze(
///     &ckt,
///     &PssConfig::Driven { period: 1e-6, opts },
///     &[MetricSpec::new("vout", Metric::DcAverage { node: b })],
/// )?;
/// // |∂vout/∂R1|·σ = 0.5 mV/Ω · 10 Ω = 5 mV.
/// assert!((res.reports[0].sigma() - 5e-3).abs() < 1e-6);
/// # Ok::<(), tranvar_core::CoreError>(())
/// ```
pub fn analyze(
    ckt: &Circuit,
    config: &PssConfig,
    metrics: &[MetricSpec],
) -> Result<AnalysisResult, CoreError> {
    analyze_in(&mut session_for(config), ckt, config, metrics)
}

/// [`analyze`] borrowing an analysis [`Session`]: every stage (DC seed,
/// PSS shooting, LPTV propagation) runs through the session's cached
/// workspaces, so repeated analyses on one circuit — the scenario-campaign
/// regime — perform no per-call allocation or symbolic re-analysis. A
/// fresh session reproduces [`analyze`] bit-for-bit; a reused one is
/// bit-identical for the dense backend (see [`tranvar_engine::session`]).
///
/// # Errors
///
/// See [`analyze`].
pub fn analyze_in(
    session: &mut Session,
    ckt: &Circuit,
    config: &PssConfig,
    metrics: &[MetricSpec],
) -> Result<AnalysisResult, CoreError> {
    let (pss, table) = solve_table(session, ckt, config, metrics)?;
    let reports = table.reports(ckt, metrics)?;
    Ok(AnalysisResult { pss, reports })
}

/// The solve half of the flow on `session`: the PSS orbit, then every
/// unit-parameter periodic response. The configuration's budget is checked
/// at the boundary between the two stages, so the LPTV stage never starts
/// on an exhausted budget. This is the whole-trajectory product of
/// [`crate::campaign::solve_unique`], the oracle that [`solve_table`]'s
/// narrowed propagation is tested against; no shipping path calls it.
pub(crate) fn solve_responses(
    session: &mut Session,
    ckt: &Circuit,
    config: &PssConfig,
) -> Result<(PssSolution, Vec<PeriodicResponse>), CoreError> {
    let pss = solve_pss_in(session, ckt, config)?;
    budget_of(config).checkpoint("lptv")?;
    let responses = PeriodicSolver::with_session(ckt, &pss, session)?.all_param_responses()?;
    Ok((pss, responses))
}

/// The product of one solve for a fixed metric set: per metric, its
/// nominal value and one unit-parameter sensitivity per mismatch
/// parameter, or the typed error that stopped its extraction on this
/// orbit. Like the responses it is built from, it does not depend on the
/// mismatch σ, so every scenario sharing the solve reads its reports off
/// the same table ([`Campaign::assemble`]); it holds neither the
/// orbit nor any response, so it is what a cache of solves keeps.
///
/// The table is opaque: only a solve builds it ([`analyze_in`],
/// [`Campaign::solve_key`]) and only report assembly reads it.
///
/// [`Campaign::assemble`]: crate::campaign::Campaign::assemble
/// [`Campaign::solve_key`]: crate::campaign::Campaign::solve_key
#[derive(Debug)]
pub struct SensitivityTable {
    /// Per metric (request order): nominal value and per-parameter
    /// sensitivities, or the metric's extraction error.
    metrics: Vec<Result<(f64, Vec<f64>), CoreError>>,
}

impl SensitivityTable {
    /// One report per metric against `ckt`'s current σ annotations: the
    /// first metric that failed extraction fails the whole set, as in
    /// [`reports_from_responses`].
    ///
    /// # Errors
    ///
    /// The first metric's extraction error; [`CoreError::BadConfig`] if
    /// `ckt` has a different number of mismatch parameters than the solve;
    /// [`CoreError::Metric`] for a non-finite report (see [`report`]).
    pub(crate) fn reports(
        &self,
        ckt: &Circuit,
        metrics: &[MetricSpec],
    ) -> Result<Vec<VariationReport>, CoreError> {
        let params = ckt.mismatch_params();
        metrics
            .iter()
            .zip(&self.metrics)
            .map(|(spec, m)| {
                let (nominal, sensitivities) = m.as_ref().map_err(Clone::clone)?;
                report(spec, *nominal, sensitivities, params)
            })
            .collect()
    }
}

/// [`solve_responses`] narrowed to what `metrics` read: the PSS orbit, then
/// one propagation of every parameter restricted to the metrics' nodes
/// through their last read sample ([`PeriodicSolver::node_responses`]),
/// turned into a [`SensitivityTable`] by the metrics' [`Readout`]s. The
/// orbit is returned beside the table, shared. The budget is checked at
/// the PSS → LPTV boundary, as in [`solve_responses`]. A metric that
/// cannot be extracted on this orbit is recorded in the table, not
/// returned: it fails the reports, not the solve.
pub(crate) fn solve_table(
    session: &mut Session,
    ckt: &Circuit,
    config: &PssConfig,
    metrics: &[MetricSpec],
) -> Result<(Arc<PssSolution>, SensitivityTable), CoreError> {
    let pss = Arc::new(solve_pss_in(session, ckt, config)?);
    budget_of(config).checkpoint("lptv")?;
    let solver = PeriodicSolver::with_session(ckt, &pss, session)?;
    let readouts: Vec<Result<Readout, CoreError>> = metrics
        .iter()
        .map(|spec| spec.metric.readout(ckt, &pss))
        .collect();
    // The distinct nodes the metrics read (each metric's column among
    // them) and the last sample any of them reads.
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut through = 0;
    let columns: Vec<Option<usize>> = readouts
        .iter()
        .map(|r| {
            let (node, last) = r.as_ref().ok()?.reads()?;
            through = through.max(last);
            Some(match nodes.iter().position(|&n| n == node) {
                Some(col) => col,
                None => {
                    nodes.push(node);
                    nodes.len() - 1
                }
            })
        })
        .collect();
    let responses = solver.node_responses(&nodes, through)?;
    let metrics = readouts
        .into_iter()
        .zip(columns)
        .map(|(readout, col)| {
            let readout = readout?;
            let sensitivities = responses
                .iter()
                .map(|resp| {
                    let wave = col.map_or(&[][..], |c| &resp.waves[c]);
                    readout.sensitivity(ckt, &pss.times, wave, resp.dperiod)
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((readout.nominal, sensitivities))
        })
        .collect();
    drop(solver);
    Ok((pss, SensitivityTable { metrics }))
}

/// One metric's [`VariationReport`]: its sensitivities paired with the
/// mismatch parameters (labels and σ) of the circuit being reported on.
/// Every report of `analyze`, a campaign and the daemon is made here.
///
/// # Errors
///
/// [`CoreError::BadConfig`] for a count mismatch: zipping would silently
/// drop contributions and under-report σ. [`CoreError::Metric`] when the
/// nominal value, a sensitivity or the resulting σ is not finite (e.g. a
/// σ so large that the variance sum overflows): the linear model has no
/// answer to give.
fn report(
    spec: &MetricSpec,
    nominal: f64,
    sensitivities: &[f64],
    params: &[MismatchParam],
) -> Result<VariationReport, CoreError> {
    if sensitivities.len() != params.len() {
        return Err(CoreError::BadConfig(format!(
            "{} parameter responses for {} mismatch parameters",
            sensitivities.len(),
            params.len()
        )));
    }
    let rep = VariationReport {
        metric: spec.name.clone(),
        nominal,
        contributions: params
            .iter()
            .zip(sensitivities)
            .enumerate()
            .map(|(k, (param, &sensitivity))| Contribution {
                label: param.label.clone(),
                param_index: k,
                sensitivity,
                sigma: param.sigma,
            })
            .collect(),
    };
    // A non-finite sensitivity makes σ non-finite too (∞·0 is NaN).
    let sigma = rep.sigma();
    if nominal.is_finite() && sigma.is_finite() {
        Ok(rep)
    } else {
        Err(CoreError::Metric(format!(
            "`{}` is not finite: nominal {nominal:e}, sigma {sigma:e}",
            spec.name
        )))
    }
}

/// The linear-solver backend a configuration asks for.
pub(crate) fn solver_of(config: &PssConfig) -> tranvar_engine::SolverKind {
    match config {
        PssConfig::Driven { opts, .. } => opts.newton.solver,
        PssConfig::Autonomous { opts, .. } => opts.pss.newton.solver,
    }
}

/// The solve budget the configuration's Newton options carry (shared by
/// every stage of the periodic solve).
pub(crate) fn budget_of(config: &PssConfig) -> SolveBudget {
    match config {
        PssConfig::Driven { opts, .. } => opts.newton.budget.clone(),
        PssConfig::Autonomous { opts, .. } => opts.pss.newton.budget.clone(),
    }
}

/// The session a fresh per-call entry point runs on: solver backend taken
/// from the config's Newton options, one worker (the calling thread).
pub(crate) fn session_for(config: &PssConfig) -> Session {
    Session::with_solver(solver_of(config))
}

/// Solves only the PSS part of the flow (exposed for benchmarking the cost
/// breakdown the paper reports in Table II).
///
/// # Errors
///
/// Propagates PSS failures.
pub fn solve_pss(ckt: &Circuit, config: &PssConfig) -> Result<PssSolution, CoreError> {
    solve_pss_in(&mut session_for(config), ckt, config)
}

/// [`solve_pss`] borrowing an analysis [`Session`].
///
/// # Errors
///
/// Propagates PSS failures.
pub fn solve_pss_in(
    session: &mut Session,
    ckt: &Circuit,
    config: &PssConfig,
) -> Result<PssSolution, CoreError> {
    Ok(match config {
        PssConfig::Driven { period, opts } => shooting_pss_in(session, ckt, *period, opts)?,
        PssConfig::Autonomous {
            period_hint,
            phase_node,
            phase_value,
            opts,
        } => autonomous_pss_in(session, ckt, *period_hint, *phase_node, *phase_value, opts)?,
    })
}

/// Builds one [`VariationReport`] per metric from solved unit-parameter
/// responses (one per mismatch parameter, in order, as
/// [`PeriodicSolver::all_param_responses`] returns them).
///
/// The responses are independent of the mismatch σ (they are solved at unit
/// parameter value); σ enters only here, read from `ckt`'s current
/// annotations. Each metric is bound to the orbit once and applied to
/// every response by the same per-metric readout code [`analyze`] runs on its
/// narrowed propagation, so the two produce bit-identical reports.
///
/// This is the whole-trajectory oracle form: no shipping path calls it.
/// The integration tests (`tests/sensitivity_table.rs`), the
/// `mismatch_analysis` bench and the perfbench replays compare the
/// shipping paths against it.
///
/// # Errors
///
/// Metric-extraction failures (a non-finite report included), and
/// [`CoreError::BadConfig`] if `responses` does not hold exactly one
/// response per mismatch parameter of `ckt`.
pub fn reports_from_responses(
    ckt: &Circuit,
    pss: &PssSolution,
    responses: &[PeriodicResponse],
    metrics: &[MetricSpec],
) -> Result<Vec<VariationReport>, CoreError> {
    let params = ckt.mismatch_params();
    let mut wave = Vec::new();
    metrics
        .iter()
        .map(|spec| {
            let readout = spec.metric.readout(ckt, pss)?;
            let reads = readout.reads();
            let sensitivities = responses
                .iter()
                .map(|resp| {
                    wave.clear();
                    if let Some((node, last)) = reads {
                        wave.extend(resp.dx[..=last].iter().map(|x| ckt.voltage(x, node)));
                    }
                    readout.sensitivity(ckt, &pss.times, &wave, resp.dperiod)
                })
                .collect::<Result<Vec<_>, _>>()?;
            report(spec, readout.nominal, &sensitivities, params)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranvar_circuit::{Pulse, Waveform};
    use tranvar_num::interp::Edge;

    /// RC delay variation: compare the LPTV delay sensitivity against
    /// finite-difference re-measurement — the golden test for the delay
    /// metric path.
    #[test]
    fn rc_delay_sensitivity_matches_fd() {
        let period = 10e-6;
        let build = || {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            ckt.add_vsource(
                "V1",
                a,
                NodeId::GROUND,
                Waveform::Pulse(Pulse {
                    v0: 0.0,
                    v1: 1.0,
                    delay: 1e-6,
                    rise: 1e-8,
                    fall: 1e-8,
                    width: 4e-6,
                    period,
                }),
            );
            let r1 = ckt.add_resistor("R1", a, b, 1e3);
            ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
            ckt.annotate_resistor_mismatch(r1, 10.0);
            ckt
        };
        let ckt = build();
        let mut opts = PssOptions::default();
        opts.n_steps = 2000;
        opts.method = tranvar_engine::Integrator::Trapezoidal;
        let spec = MetricSpec::new(
            "delay",
            Metric::CrossingShift {
                node: ckt.find_node("b").unwrap(),
                threshold: 0.5,
                edge: Edge::Rising,
                t_after: 1e-6,
                t_ref: 1e-6,
            },
        );
        let res = analyze(
            &ckt,
            &PssConfig::Driven {
                period,
                opts: opts.clone(),
            },
            std::slice::from_ref(&spec),
        )
        .unwrap();
        let rep = &res.reports[0];
        // Nominal delay = ln2·τ = 0.693 µs.
        assert!((rep.nominal - 0.693e-6).abs() < 5e-9, "{}", rep.nominal);
        // FD: bump R1 ±1 Ω, re-measure the PSS delay.
        let h = 1.0;
        let fd = {
            let mut cp = build();
            cp.apply_mismatch(&[h]);
            let sp = analyze(
                &cp,
                &PssConfig::Driven {
                    period,
                    opts: opts.clone(),
                },
                std::slice::from_ref(&spec),
            )
            .unwrap();
            let mut cm = build();
            cm.apply_mismatch(&[-h]);
            let sm = analyze(
                &cm,
                &PssConfig::Driven {
                    period,
                    opts: opts.clone(),
                },
                std::slice::from_ref(&spec),
            )
            .unwrap();
            (sp.reports[0].nominal - sm.reports[0].nominal) / (2.0 * h)
        };
        let got = rep.contributions[0].sensitivity;
        // Full periodic analytic: unlike the single-shot step response
        // (∂delay/∂R = ln2·C), the PSS start-of-cycle voltage v_start also
        // depends on R, advancing the crossing. Closed form:
        //   v_peak = (1−e^{−T_hi/τ})/(1−e^{−(T_hi+T_lo)/τ}),
        //   v_start = v_peak·e^{−T_lo/τ},  t_c = τ·ln(2(1−v_start)).
        let tc_of_r = |r: f64| {
            let tau = r * 1e-9;
            let (t_hi, t_lo) = (4.01e-6, 5.99e-6);
            let v_peak = (1.0 - (-t_hi / tau).exp()) / (1.0 - (-(t_hi + t_lo) / tau).exp());
            let v_start = v_peak * (-t_lo / tau).exp();
            tau * (2.0 * (1.0 - v_start)).ln()
        };
        let analytic = (tc_of_r(1e3 + 0.01) - tc_of_r(1e3 - 0.01)) / 0.02;
        assert!((got - fd).abs() < 2e-2 * fd.abs(), "lptv {got} vs fd {fd}");
        assert!(
            (got - analytic).abs() < 1e-2 * analytic,
            "lptv {got} vs analytic {analytic}"
        );
    }

    /// A pulse-driven RC divider on 64 steps per period whose solve
    /// charges a budget of at most `max_factorizations`.
    fn budgeted_divider(max_factorizations: u64) -> (Circuit, PssConfig, MetricSpec) {
        let period = 10e-6;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Pulse(Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 1e-6,
                rise: 1e-8,
                fall: 1e-8,
                width: 4e-6,
                period,
            }),
        );
        let r1 = ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
        ckt.annotate_resistor_mismatch(r1, 10.0);
        let mut opts = PssOptions::default();
        opts.n_steps = 64;
        opts.newton.budget = SolveBudget::new(
            tranvar_engine::BudgetLimits::default().max_factorizations(max_factorizations),
        );
        let spec = MetricSpec::new("vout", Metric::DcAverage { node: b });
        (ckt, PssConfig::Driven { period, opts }, spec)
    }

    /// The LPTV stage starts only inside the budget. The last factorization
    /// of the PSS stage lands after its last Newton-iteration check, so a
    /// limit one short of what the PSS stage spends is caught only at the
    /// stage boundary — in `analyze` and in a campaign scenario alike.
    #[test]
    fn lptv_stage_checks_the_budget() {
        use crate::campaign::{Campaign, Scenario};
        use tranvar_engine::{BudgetKind, EngineError};
        let (ckt, config, spec) = budgeted_divider(u64::MAX);
        analyze(&ckt, &config, std::slice::from_ref(&spec)).unwrap();
        let spent = budget_of(&config).factorizations();
        let expect_trip = |res: Result<AnalysisResult, CoreError>| match res {
            Err(CoreError::Engine(EngineError::BudgetExceeded { analysis, progress })) => {
                assert_eq!(analysis, "lptv");
                assert_eq!(progress.exhausted, BudgetKind::Factorizations);
                assert_eq!(progress.factorizations, spent);
            }
            other => panic!("expected an lptv budget trip, got {other:?}"),
        };

        let (ckt, config, spec) = budgeted_divider(spent - 1);
        expect_trip(analyze(&ckt, &config, std::slice::from_ref(&spec)));

        let (ckt, config, spec) = budgeted_divider(spent - 1);
        let res = Campaign::new(config, vec![spec])
            .run(&ckt, &[Scenario::new("nominal", vec![])])
            .unwrap();
        let outcome = res.outcomes.into_iter().next().unwrap();
        expect_trip(outcome.result);
    }

    /// One response short of the circuit's mismatch parameters is a typed
    /// error, not a report that silently drops the last contribution.
    #[test]
    fn reports_reject_a_short_response_list() {
        let (ckt, config, spec) = budgeted_divider(u64::MAX);
        let r2 = ckt.find_device("R2").unwrap();
        let mut ckt = ckt;
        ckt.annotate_resistor_mismatch(r2, 10.0);
        let pss = solve_pss(&ckt, &config).unwrap();
        let mut responses = PeriodicSolver::with_session(&ckt, &pss, &Session::default())
            .unwrap()
            .all_param_responses()
            .unwrap();
        let metrics = std::slice::from_ref(&spec);
        let full = reports_from_responses(&ckt, &pss, &responses, metrics).unwrap();
        assert_eq!(full[0].contributions.len(), 2);
        responses.pop();
        assert!(matches!(
            reports_from_responses(&ckt, &pss, &responses, metrics),
            Err(CoreError::BadConfig(_))
        ));
    }

    /// A σ so large that the variance sum overflows is a typed metric
    /// error on both report paths, not an infinite σ.
    #[test]
    fn an_overflowing_sigma_is_a_metric_error() {
        let (mut ckt, config, spec) = budgeted_divider(u64::MAX);
        let r1 = ckt.find_device("R1").unwrap();
        ckt.annotate_resistor_mismatch(r1, 1e300);
        let metrics = std::slice::from_ref(&spec);
        assert!(matches!(
            analyze(&ckt, &config, metrics),
            Err(CoreError::Metric(_))
        ));
        let pss = solve_pss(&ckt, &config).unwrap();
        let responses = PeriodicSolver::with_session(&ckt, &pss, &Session::default())
            .unwrap()
            .all_param_responses()
            .unwrap();
        assert!(matches!(
            reports_from_responses(&ckt, &pss, &responses, metrics),
            Err(CoreError::Metric(_))
        ));
    }

    #[test]
    fn report_lookup_by_name() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        let r1 = ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-12);
        ckt.annotate_resistor_mismatch(r1, 10.0);
        let mut opts = PssOptions::default();
        opts.n_steps = 16;
        let res = analyze(
            &ckt,
            &PssConfig::Driven { period: 1e-6, opts },
            &[MetricSpec::new("vout", Metric::DcAverage { node: b })],
        )
        .unwrap();
        assert!(res.report("vout").is_some());
        assert!(res.report("nope").is_none());
    }
}
