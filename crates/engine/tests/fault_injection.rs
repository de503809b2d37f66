//! Deterministic recovery-path coverage via the fault-injection harness.
//!
//! Every engine recovery path — each DC homotopy stage, budget exhaustion
//! (including the mocked deadline), and the non-finite fail-fast guards —
//! is driven on demand here; homotopy stages are counted through the
//! [`sites::DC_STAGE`] hits. The retry ladder these solves escalate
//! through is covered where it runs, in `tranvar-core`'s campaign suite.
//! Runs only with `--features fault-inject`.
#![cfg(feature = "fault-inject")]

use std::time::Duration;
use tranvar_circuit::{Circuit, MosModel, MosType, NodeId, Waveform};
use tranvar_engine::dc::{dc_operating_point, DcOptions};
use tranvar_engine::fault::{sites, FaultAction, FaultGuard, FaultPlan};
use tranvar_engine::tran::transient;
use tranvar_engine::{BudgetKind, BudgetLimits, EngineError, Session, SolveBudget, TranOptions};

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

/// One DC solve of the divider on a fresh session under `guard`'s plan:
/// checks the solution and returns how many homotopy stages ran.
fn divider_dc_stages(guard: &FaultGuard) -> usize {
    let ckt = divider();
    let x = Session::default()
        .dc_operating_point(&ckt, &DcOptions::default())
        .unwrap();
    let b = ckt.find_node("b").unwrap();
    assert!((ckt.voltage(&x, b) - 1.0).abs() < 1e-6);
    guard.hits(sites::DC_STAGE)
}

// ── Homotopy-stage coverage: force each stage to be the one that converges ──

#[test]
fn direct_stage_converges_in_one_stage() {
    let guard = FaultPlan::new().install();
    assert_eq!(divider_dc_stages(&guard), 1);
}

#[test]
fn gmin_stepping_rescues_failed_direct_stage() {
    let guard = FaultPlan::new()
        .fail(sites::DC_STAGE, 0, FaultAction::NoConverge)
        .install();
    // The full gmin walk ran and converged; source stepping never started.
    let gmin_steps = DcOptions::default().gmin_schedule.len();
    assert_eq!(divider_dc_stages(&guard), 1 + gmin_steps);
}

#[test]
fn source_stepping_rescues_failed_gmin_walk() {
    // Index 0 = direct attempt, index 1 = first gmin-schedule entry; failing
    // both aborts the gmin walk and hands over to source stepping.
    let guard = FaultPlan::new()
        .fail_range(sites::DC_STAGE, 0, 2, FaultAction::NoConverge)
        .install();
    // All source steps ran to full bias.
    let source_steps = DcOptions::default().source_steps;
    assert_eq!(divider_dc_stages(&guard), 2 + source_steps);
}

// ── Injected factorization failures are rescued by the homotopy ──

#[test]
fn injected_factor_failures_are_rescued_by_homotopy() {
    // The direct stage's first factorization fails; the gmin walk rescues.
    let gmin_steps = DcOptions::default().gmin_schedule.len();
    for action in [FaultAction::Singular, FaultAction::NonFinite] {
        let guard = FaultPlan::new().fail(sites::FACTOR, 0, action).install();
        assert_eq!(divider_dc_stages(&guard), 1 + gmin_steps, "{action:?}");
    }
}

// ── Non-finite guards fail fast instead of burning the iteration budget ──

#[test]
fn poisoned_direct_stage_is_rescued_by_gmin_walk() {
    // Only the very first Newton iteration is poisoned: the direct stage
    // dies NonFinite and the gmin walk (fresh, unpoisoned calls) rescues.
    let guard = FaultPlan::new()
        .fail(sites::DC_RESIDUAL, 0, FaultAction::PoisonNan)
        .install();
    let gmin_steps = DcOptions::default().gmin_schedule.len();
    assert_eq!(divider_dc_stages(&guard), 1 + gmin_steps);
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
