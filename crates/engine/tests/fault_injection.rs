//! Deterministic recovery-path coverage via the fault-injection harness.
//!
//! Every recovery path in the engine — each DC homotopy stage, each retry
//! escalation rung, budget exhaustion (including the mocked deadline), and
//! the non-finite fail-fast guards — is driven on demand here and asserted
//! through the recorded [`SolveDiagnostics`] attempt trail. Runs only with
//! `--features fault-inject`.
#![cfg(feature = "fault-inject")]

use std::time::Duration;
use tranvar_circuit::{Circuit, MosModel, MosType, NodeId, Pulse, Waveform};
use tranvar_engine::dc::{dc_operating_point, DcOptions};
use tranvar_engine::fault::{sites, FaultAction, FaultPlan};
use tranvar_engine::tran::transient;
use tranvar_engine::{
    BudgetKind, BudgetLimits, EngineError, RetryPolicy, Session, SolveBudget, SolveDiagnostics,
    SolverKind, TranOptions,
};
use tranvar_num::NumError;

fn divider() -> Circuit {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
    ckt.add_resistor("R1", a, b, 1e3);
    ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
    ckt
}

fn rc_lowpass() -> Circuit {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
    ckt.add_resistor("R1", a, b, 1e3);
    ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
    ckt
}

fn common_source() -> Circuit {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let g = ckt.node("g");
    let d = ckt.node("d");
    ckt.add_vsource("VDD", vdd, NodeId::GROUND, Waveform::Dc(1.2));
    ckt.add_vsource("VG", g, NodeId::GROUND, Waveform::Dc(0.7));
    ckt.add_resistor("RD", vdd, d, 10e3);
    ckt.add_mosfet(
        "M1",
        d,
        g,
        NodeId::GROUND,
        MosType::Nmos,
        MosModel::nmos_013(),
        1e-6,
        0.13e-6,
    );
    ckt
}

/// A 3-stage CMOS inverter chain with 5 fF loads, driven by a pulse: dense
/// and sparse transients of it differ in the last bits.
fn inverter_chain() -> Circuit {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let mut input = ckt.node("in");
    ckt.add_vsource("VDD", vdd, NodeId::GROUND, Waveform::Dc(1.2));
    ckt.add_vsource(
        "VIN",
        input,
        NodeId::GROUND,
        Waveform::Pulse(Pulse {
            v0: 0.0,
            v1: 1.2,
            delay: 2e-10,
            rise: 5e-11,
            fall: 5e-11,
            width: 5e-10,
            period: 2e-9,
        }),
    );
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

/// One successful DC solve on a fresh session with no escalation,
/// returning the homotopy-stage trail (the single `retry[0]:initial` ladder
/// record is checked and stripped).
fn traced_dc(ckt: &Circuit, opts: &DcOptions) -> (Vec<f64>, SolveDiagnostics) {
    let (res, mut diag) =
        Session::default().dc_operating_point_resilient(ckt, opts, &RetryPolicy::none());
    let ladder = diag.attempts.pop().map(|a| a.stage);
    assert_eq!(ladder.as_deref(), Some("retry[0]:initial"));
    (res.unwrap(), diag)
}

fn dc_resilient(
    ckt: &Circuit,
    opts: &DcOptions,
    policy: &RetryPolicy,
) -> (Result<Vec<f64>, EngineError>, SolveDiagnostics) {
    Session::default().dc_operating_point_resilient(ckt, opts, policy)
}

// ── Homotopy-stage coverage: force each stage to be the one that converges ──

#[test]
fn direct_stage_converges_with_single_attempt_trail() {
    let ckt = divider();
    let (x, diag) = traced_dc(&ckt, &DcOptions::default());
    let b = ckt.find_node("b").unwrap();
    assert!((ckt.voltage(&x, b) - 1.0).abs() < 1e-6);
    assert_eq!(diag.stages(), vec!["dc:direct"]);
    assert_eq!(diag.succeeded_stage(), Some("dc:direct"));
}

#[test]
fn gmin_stepping_rescues_failed_direct_stage() {
    let ckt = divider();
    let _guard = FaultPlan::new()
        .fail(sites::DC_STAGE, 0, FaultAction::NoConverge)
        .install();
    let opts = DcOptions::default();
    let (x, diag) = traced_dc(&ckt, &opts);
    let b = ckt.find_node("b").unwrap();
    assert!((ckt.voltage(&x, b) - 1.0).abs() < 1e-6);
    let stages = diag.stages();
    assert_eq!(stages[0], "dc:direct");
    assert!(diag.attempts[0].error.is_some());
    // The full gmin walk ran and converged; source stepping never started.
    assert_eq!(stages.len(), 1 + opts.gmin_schedule.len());
    assert!(stages[1..].iter().all(|s| s.starts_with("dc:gmin[")));
    assert!(diag.succeeded_stage().unwrap().starts_with("dc:gmin["));
}

#[test]
fn source_stepping_rescues_failed_gmin_walk() {
    let ckt = divider();
    // Index 0 = direct attempt, index 1 = first gmin-schedule entry; failing
    // both aborts the gmin walk and hands over to source stepping.
    let _guard = FaultPlan::new()
        .fail_range(sites::DC_STAGE, 0, 2, FaultAction::NoConverge)
        .install();
    let opts = DcOptions::default();
    let (x, diag) = traced_dc(&ckt, &opts);
    let b = ckt.find_node("b").unwrap();
    assert!((ckt.voltage(&x, b) - 1.0).abs() < 1e-6);
    let stages = diag.stages();
    assert_eq!(stages[0], "dc:direct");
    assert!(stages[1].starts_with("dc:gmin["));
    assert!(diag.attempts[1].error.is_some());
    // All 20 source steps ran to full bias.
    assert_eq!(stages.len(), 2 + opts.source_steps);
    assert_eq!(diag.succeeded_stage(), Some("dc:source[20/20]"));
}

// ── Injected factorization failures propagate as the right typed error ──

#[test]
fn injected_singular_factor_is_rescued_by_homotopy() {
    let ckt = divider();
    let _guard = FaultPlan::new()
        .fail(sites::FACTOR, 0, FaultAction::Singular)
        .install();
    let (x, diag) = traced_dc(&ckt, &DcOptions::default());
    let b = ckt.find_node("b").unwrap();
    assert!((ckt.voltage(&x, b) - 1.0).abs() < 1e-6);
    assert!(matches!(
        diag.attempts[0].error,
        Some(EngineError::Num(NumError::Singular { .. }))
    ));
}

#[test]
fn injected_non_finite_factor_is_distinct_from_singular() {
    let ckt = divider();
    let _guard = FaultPlan::new()
        .fail(sites::FACTOR, 0, FaultAction::NonFinite)
        .install();
    let (_, diag) = traced_dc(&ckt, &DcOptions::default());
    assert!(matches!(
        diag.attempts[0].error,
        Some(EngineError::Num(NumError::NonFinite { .. }))
    ));
}

// ── Non-finite guards fail fast instead of burning the iteration budget ──

#[test]
fn poisoned_direct_stage_is_rescued_by_gmin_walk() {
    let ckt = divider();
    // Only the very first Newton iteration is poisoned: the direct stage
    // dies NonFinite and the gmin walk (fresh, unpoisoned calls) rescues.
    let _guard = FaultPlan::new()
        .fail(sites::DC_RESIDUAL, 0, FaultAction::PoisonNan)
        .install();
    let (x, diag) = traced_dc(&ckt, &DcOptions::default());
    let b = ckt.find_node("b").unwrap();
    assert!((ckt.voltage(&x, b) - 1.0).abs() < 1e-6);
    assert!(matches!(
        diag.attempts[0].error,
        Some(EngineError::NonFinite { .. })
    ));
}

#[test]
fn poisoned_transient_update_fails_fast_and_typed() {
    let ckt = rc_lowpass();
    let guard = FaultPlan::new()
        .fail(sites::TRAN_UPDATE, 0, FaultAction::PoisonNan)
        .install();
    let res = transient(&ckt, &TranOptions::new(1e-6, 1e-8));
    match res {
        Err(EngineError::NonFinite { analysis, .. }) => {
            assert_eq!(analysis, "transient step");
        }
        other => panic!("expected NonFinite, got {other:?}"),
    }
    assert_eq!(guard.hits(sites::TRAN_UPDATE), 1);
}

// ── Budget exhaustion: iteration, factorization, and mocked deadline ──

#[test]
fn newton_budget_trips_with_progress_counts() {
    let ckt = common_source();
    let mut opts = DcOptions::default();
    opts.newton.budget = SolveBudget::new(BudgetLimits::default().max_newton_iters(3));
    let err = dc_operating_point(&ckt, &opts).unwrap_err();
    match err {
        EngineError::BudgetExceeded { analysis, progress } => {
            assert_eq!(analysis, "dc newton");
            assert_eq!(progress.exhausted, BudgetKind::NewtonIters);
            assert_eq!(progress.newton_iters, 4);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn factorization_budget_trips_at_next_checkpoint() {
    let ckt = common_source();
    let mut opts = DcOptions::default();
    opts.newton.budget = SolveBudget::new(BudgetLimits::default().max_factorizations(2));
    let err = dc_operating_point(&ckt, &opts).unwrap_err();
    assert!(
        matches!(
            &err,
            EngineError::BudgetExceeded { progress, .. }
                if progress.exhausted == BudgetKind::Factorizations
        ),
        "{err:?}"
    );
}

#[test]
fn deadline_budget_trips_via_mock_clock_without_sleeping() {
    let ckt = divider();
    let guard = FaultPlan::new()
        .mock_elapsed(Duration::from_millis(10))
        .install();
    let mut opts = DcOptions::default();
    opts.newton.budget = SolveBudget::new(BudgetLimits::default().deadline(Duration::from_secs(1)));
    // Mocked clock below the deadline: the solve completes.
    dc_operating_point(&ckt, &opts).unwrap();
    // Advance the mock past the deadline: the very next iteration trips.
    guard.set_mock_elapsed(Duration::from_secs(2));
    opts.newton.budget = SolveBudget::new(BudgetLimits::default().deadline(Duration::from_secs(1)));
    let err = dc_operating_point(&ckt, &opts).unwrap_err();
    match err {
        EngineError::BudgetExceeded { progress, .. } => {
            assert_eq!(progress.exhausted, BudgetKind::Deadline);
            assert_eq!(progress.elapsed, Duration::from_secs(2));
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

// ── Retry-ladder coverage: every rung deterministically reachable ──

#[test]
fn dc_retry_reaches_every_rung_in_order() {
    let ckt = divider();
    // Fail the first three ladder attempts; only switch-backend may solve.
    let _guard = FaultPlan::new()
        .fail_range(sites::RETRY_ATTEMPT, 0, 3, FaultAction::NoConverge)
        .install();
    let (res, diag) = dc_resilient(&ckt, &DcOptions::default(), &RetryPolicy::default());
    let x = res.unwrap();
    let b = ckt.find_node("b").unwrap();
    assert!((ckt.voltage(&x, b) - 1.0).abs() < 1e-6);
    let retry_stages: Vec<&str> = diag
        .stages()
        .into_iter()
        .filter(|s| s.starts_with("retry["))
        .collect();
    assert_eq!(
        retry_stages,
        vec![
            "retry[0]:initial",
            "retry[1]:denser-gmin",
            "retry[2]:more-source-steps",
            "retry[3]:switch-backend",
        ]
    );
    assert_eq!(diag.succeeded_stage(), Some("retry[3]:switch-backend"));
    assert_eq!(diag.retry_attempts(), 4);
}

#[test]
fn tran_retry_reaches_switch_backend() {
    let ckt = rc_lowpass();
    let _guard = FaultPlan::new()
        .fail_range(sites::RETRY_ATTEMPT, 0, 2, FaultAction::NoConverge)
        .install();
    let (res, diag) = Session::default().transient_resilient(
        &ckt,
        &TranOptions::new(1e-7, 1e-9),
        &RetryPolicy::default(),
    );
    assert!(res.is_ok(), "{:?}", res.err());
    assert_eq!(
        diag.stages(),
        vec![
            "retry[0]:initial",
            "retry[1]:halve-dt",
            "retry[2]:switch-backend",
        ]
    );
}

#[test]
fn tran_switch_backend_rung_leaves_the_session_backend() {
    let ckt = inverter_chain();
    let opts = TranOptions::new(2e-9, 1e-11);
    let bits = |r: tranvar_engine::TranResult| -> Vec<u64> {
        r.states.iter().flatten().map(|v| v.to_bits()).collect()
    };
    let plain = |kind| bits(Session::with_solver(kind).transient(&ckt, &opts).unwrap());
    let (dense, sparse) = (plain(SolverKind::Dense), plain(SolverKind::Sparse));
    assert!(dense != sparse, "the backends must be distinguishable here");
    let _guard = FaultPlan::new()
        .fail(sites::RETRY_ATTEMPT, 0, FaultAction::NoConverge)
        .install();
    let policy = RetryPolicy {
        max_attempts: 2,
        halve_timestep: false,
        ..RetryPolicy::default()
    };
    let (res, diag) =
        Session::with_solver(SolverKind::Sparse).transient_resilient(&ckt, &opts, &policy);
    assert_eq!(diag.succeeded_stage(), Some("retry[1]:switch-backend"));
    // The rescue ran on the other backend than the session's (Sparse).
    assert!(
        bits(res.unwrap()) == dense,
        "the switch-backend rung did not run on the dense backend"
    );
}

#[test]
fn max_attempts_bounds_the_ladder() {
    let ckt = divider();
    let _guard = FaultPlan::new()
        .fail_range(sites::RETRY_ATTEMPT, 0, 4, FaultAction::NoConverge)
        .install();
    let policy = RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    };
    let (res, diag) = dc_resilient(&ckt, &DcOptions::default(), &policy);
    assert!(matches!(res, Err(EngineError::NoConvergence { .. })));
    assert_eq!(diag.retry_attempts(), 2);
}

#[test]
fn expired_deadline_short_circuits_the_ladder_before_any_attempt() {
    let ckt = divider();
    // The mocked clock is already past the deadline when the resilient
    // entry point is called (a request that sat in a queue too long): the
    // ladder spends zero attempts and surfaces the typed deadline error.
    let _guard = FaultPlan::new()
        .mock_elapsed(Duration::from_secs(2))
        .install();
    let mut opts = DcOptions::default();
    opts.newton.budget = SolveBudget::new(BudgetLimits::default().deadline(Duration::from_secs(1)));
    let (res, diag) = dc_resilient(&ckt, &opts, &RetryPolicy::default());
    match res {
        Err(EngineError::BudgetExceeded { progress, .. }) => {
            assert_eq!(progress.exhausted, BudgetKind::Deadline);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert_eq!(diag.stages(), vec!["retry[0]:deadline-short-circuit"]);
}

#[test]
fn budget_exhaustion_is_never_retried() {
    let ckt = common_source();
    let mut opts = DcOptions::default();
    opts.newton.budget = SolveBudget::new(BudgetLimits::default().max_newton_iters(1));
    let (res, diag) = dc_resilient(&ckt, &opts, &RetryPolicy::default());
    assert!(matches!(res, Err(EngineError::BudgetExceeded { .. })));
    // One homotopy stage record plus one ladder record — no escalation ran.
    assert_eq!(diag.stages(), vec!["dc:direct", "retry[0]:initial"]);
}
