//! Transient forward sensitivity analysis — the expensive baseline the paper
//! contrasts against (reference \[23\], Hocevar et al.).
//!
//! Propagates `S_k(t) = ∂x(t)/∂p_k` for every mismatch parameter alongside a
//! nonlinear transient. Each timestep costs one factorization plus one
//! back-substitution *per parameter*; unlike the LPTV route it also has to
//! integrate through the entire settling transient (paper Fig. 5a), which is
//! exactly the waste the PSS+LPTV flow avoids (Fig. 5b).
//!
//! # Hot-path structure
//!
//! Even the "expensive baseline" should be as fast as the hardware allows.
//! The propagation is organized as a **windowed two-phase pipeline**:
//!
//! 1. *Integrate-and-factor phase* (serial): a window of nominal timesteps
//!    is advanced with the shared integrator, which already assembles and
//!    factors the step Jacobian at every accepted state — the factored
//!    `J_k` and coupling matrix `B_k` are recorded as a byproduct
//!    ([`crate::tran::StepRecord`]), so the sensitivity pass re-assembles
//!    and re-factors *nothing*. The symbolic pivot analysis is replayed
//!    across all steps ([`crate::solver::JacobianWorkspace`]) because the
//!    MNA pattern never changes.
//! 2. *Propagate phase* (parallel): the window goes through the record
//!    sweep [`crate::sens::RecordSweep`] (shared with the PSS monodromy and
//!    the LPTV responses; this module keeps only the windowing): parameter
//!    chunks on the session's [`Session::threads`] workers (one by default,
//!    the calling thread), one multi-RHS lane solve per step. Each state's parameter derivatives are
//!    evaluated once (a chunk carries the last state's across windows),
//!    from the records' MOSFET operating points, and same-device parameter
//!    pairs (Pelgrom V_T/β) share one model evaluation
//!    ([`tranvar_circuit::Circuit::d_residual_dparams_into`]).
//!
//! Because every parameter's arithmetic is independent of the partitioning,
//! the result is bit-for-bit independent of the thread count, and matches
//! the sequential reference implementation
//! ([`transient_with_sensitivities_seq`]) to machine precision (the two
//! paths may pick different pivot orders, nothing more).
//!
//! Both paths integrate on the one stepper behind [`crate::tran::transient`]
//! and never ask which grid it runs: the batched path fills each window
//! with whatever steps it accepts (uniform, or chosen by the LTE controller
//! under [`crate::tran::StepControl::Adaptive`]) and grows its storage
//! window by window, and each [`crate::tran::StepRecord`] carries its own
//! step size and θ; the sequential reference reads each step's reported
//! `(h, θ)`.

use crate::error::EngineError;
use crate::sens::{dc_sensitivities, param_step_rhs, RecordSweep};
use crate::session::Session;
use crate::solver::{combine, FactoredJacobian};
use crate::tran::{CycleWorkspace, NewtonTest, StepRecord, Stepper, TranOptions, TranResult};
use tranvar_circuit::Circuit;
use tranvar_num::dense::vecops;

/// Steps per factor/propagate window: bounds the number of simultaneously
/// stored per-step factorizations (memory ∝ `WINDOW·n²` for the dense
/// backend) while amortizing the per-window thread spawn.
const WINDOW: usize = 64;

/// Result of a transient run with parameter sensitivities.
#[derive(Clone, Debug)]
pub struct TranSensResult {
    /// The nominal transient.
    pub tran: TranResult,
    /// `sens[k][step][unknown] = ∂x/∂p_k` at each recorded time.
    pub sens: Vec<Vec<Vec<f64>>>,
}

/// How the sensitivity state is initialized at `t_start`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SensInit {
    /// `S(0) = ∂x_op/∂p` — the parameter also shifts the initial DC point
    /// (the physically complete choice).
    #[default]
    FromDc,
    /// `S(0) = 0` — the initial state is frozen (useful when the initial
    /// condition is enforced externally).
    Zero,
}

/// The sensitivity state at `t_start` from the resolved initial state `x0`.
fn initial_sens(
    ckt: &Circuit,
    x0: &[f64],
    opts: &TranOptions,
    init: SensInit,
) -> Result<Vec<Vec<f64>>, EngineError> {
    Ok(match init {
        SensInit::FromDc => dc_sensitivities(ckt, x0, opts.newton.solver)?,
        SensInit::Zero => vec![vec![0.0; ckt.n_unknowns()]; ckt.mismatch_params().len()],
    })
}

/// Runs a transient with forward parameter sensitivities for every mismatch
/// parameter of the circuit.
///
/// This is the batched, parallel path (see the module docs). For the
/// per-parameter reference implementation see
/// [`transient_with_sensitivities_seq`].
///
/// A one-line convenience over a fresh [`Session`] on
/// `opts.newton.solver`, so it runs on the calling thread; to split the
/// parameters across workers, run [`Session::transient_with_sensitivities`]
/// on a session built with a worker count.
///
/// # Errors
///
/// Propagates DC and per-step Newton failures.
pub fn transient_with_sensitivities(
    ckt: &Circuit,
    opts: &TranOptions,
    init: SensInit,
) -> Result<TranSensResult, EngineError> {
    Session::with_solver(opts.newton.solver).transient_with_sensitivities(ckt, opts, init)
}

/// The batched sensitivity body behind
/// [`Session::transient_with_sensitivities`]: integrates from the resolved
/// initial state `x0` through the reusable workspace `ws`, propagating on
/// `threads` workers (`1` = the calling thread, `0` = all cores).
pub(crate) fn run(
    ckt: &Circuit,
    ws: &mut CycleWorkspace,
    opts: &TranOptions,
    init: SensInit,
    x0: Vec<f64>,
    threads: usize,
) -> Result<TranSensResult, EngineError> {
    let s0 = initial_sens(ckt, &x0, opts, init)?;
    let n = ckt.n_unknowns();
    let n_params = ckt.mismatch_params().len();
    // The exact step count on the uniform grid; on an adaptive grid only an
    // initial-dt estimate that sizes the preallocation.
    let n_steps = ((opts.t_stop - opts.t_start) / opts.dt).round() as usize;
    let want_records = n_params > 0;

    // The sensitivity storage grows with the accepted grid, window by
    // window; the propagation loops themselves never allocate.
    let mut sens: Vec<Vec<Vec<f64>>> = s0.iter().map(|s| vec![s.clone()]).collect();

    let mut chunks = RecordSweep::chunks(n, n_params, threads);

    // Nominal integration on the shared stepper (the same loop behind
    // `tran::transient`, so the nominal trajectory is bitwise identical),
    // recording the accepted per-step factorization J and coupling B so the
    // sensitivity pass never has to re-assemble or re-factor anything.
    let mut stepper = Stepper::transient(ckt, ws, opts, x0, NewtonTest::Vtol)?;
    let mut times = Vec::with_capacity(n_steps + 1);
    let mut states = Vec::with_capacity(n_steps + 1);
    times.push(opts.t_start);
    states.push(stepper.x().to_vec());
    let mut records: Vec<StepRecord> = Vec::with_capacity(WINDOW.min(n_steps.max(1)));
    loop {
        // ── Integrate-and-factor phase: the Newton solve of each step
        // already assembles and (re)factors at the accepted state, so the
        // record captures J and B for free.
        records.clear();
        let window_start = states.len();
        while states.len() - window_start < WINDOW {
            let Some(s) = stepper.advance(ckt, &opts.newton, want_records)? else {
                break;
            };
            records.extend(s.record);
            times.push(s.plan.t1);
            states.push(stepper.x().to_vec());
        }
        let new_steps = states.len() - window_start;
        if new_steps == 0 {
            break;
        }
        if !want_records {
            continue;
        }
        for hist in sens.iter_mut() {
            hist.resize_with(hist.len() + new_steps, || vec![0.0; n]);
        }
        // ── Propagate phase: parameter chunks in parallel through the
        // record sweep; `window[0]` is the state the window leaves, and
        // the first window seeds each chunk with its `S(0)`.
        let (recs, window) = (&records, &states[window_start - 1..]);
        let swept = RecordSweep::run(std::mem::take(&mut chunks), &mut sens, |mut sw, hists| {
            let p = hists.len();
            if window_start == 1 {
                for (kk, hist) in hists.iter().enumerate() {
                    for (i, v) in hist[0].iter().enumerate() {
                        sw.state[i * p + kk] = *v;
                    }
                }
            }
            sw.stage_sources(ckt, recs, window)?;
            let mut step = window_start;
            sw.sweep(recs, |block| {
                for (kk, hist) in hists.iter_mut().enumerate() {
                    for (i, v) in hist[step].iter_mut().enumerate() {
                        *v = block[i * p + kk];
                    }
                }
                step += 1;
            });
            Ok::<_, tranvar_circuit::CircuitError>(sw)
        });
        for sw in swept {
            chunks.push(sw?);
        }
    }
    Ok(TranSensResult {
        tran: TranResult { times, states },
        sens,
    })
}

/// Sequential per-parameter reference implementation: one factorization per
/// step (fresh pivot search), one allocating solve per parameter — the
/// pre-batching behavior, kept for validation and as the benchmark baseline.
///
/// # Errors
///
/// Propagates DC and per-step Newton failures.
pub fn transient_with_sensitivities_seq(
    ckt: &Circuit,
    opts: &TranOptions,
    init: SensInit,
) -> Result<TranSensResult, EngineError> {
    let (eff, x0) = Session::with_solver(opts.newton.solver).resolve_x0(ckt, opts)?;
    let opts = &eff;
    let s0 = initial_sens(ckt, &x0, opts, init)?;
    // Re-run the nominal transient on the batched path's stepper (so the
    // grids match bitwise), keeping each accepted step's (h, θ): BE startup
    // and post-rejection BE retries make θ state-dependent on an adaptive
    // grid.
    let (mut steps, ws) = (Vec::new(), &mut CycleWorkspace::new());
    let res = crate::tran::run(ckt, ws, opts, x0, |h, theta| steps.push((h, theta)))?;
    let n_node = ckt.n_nodes() - 1;
    let n_params = ckt.mismatch_params().len();

    let mut sens: Vec<Vec<Vec<f64>>> = vec![Vec::with_capacity(res.states.len()); n_params];
    for (k, s) in s0.iter().enumerate() {
        sens[k].push(s.clone());
    }
    // Propagate: J·S₁ = B·S₀ − w.
    for (step, &(h, theta)) in (1..res.states.len()).zip(&steps) {
        let x_prev = &res.states[step - 1];
        let x_cur = &res.states[step];
        let asm0 = ckt.assemble(x_prev, res.times[step - 1]);
        let asm1 = ckt.assemble(x_cur, res.times[step]);
        let j = FactoredJacobian::factor(
            opts.newton.solver,
            &asm1,
            theta,
            1.0 / h,
            theta * opts.gmin,
            n_node,
        )?;
        let b = combine(
            &asm0,
            -(1.0 - theta),
            1.0 / h,
            -(1.0 - theta) * opts.gmin,
            n_node,
        );
        for k in 0..n_params {
            let w = param_step_rhs(ckt, k, x_cur, x_prev, h, theta)?;
            let prev = sens[k].last().ok_or(tranvar_num::NumError::Internal {
                what: "sensitivity history empty mid-propagation",
            })?;
            let mut rhs = b.mat_vec(prev);
            vecops::axpy(&mut rhs, -1.0, &w);
            sens[k].push(j.solve(&rhs));
        }
    }
    Ok(TranSensResult { tran: res, sens })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionOptions;
    use crate::solver::SolverKind;
    use tranvar_circuit::{NodeId, Waveform};

    /// The batched path on a session with `threads` workers.
    fn batched_on(
        ckt: &Circuit,
        opts: &TranOptions,
        init: SensInit,
        threads: usize,
    ) -> TranSensResult {
        Session::new(SessionOptions {
            solver: SolverKind::Dense,
            threads,
        })
        .transient_with_sensitivities(ckt, opts, init)
        .unwrap()
    }

    fn rc_with_mismatch() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        let r1 = ckt.add_resistor("R1", a, b, 1e3);
        let c1 = ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-6);
        ckt.annotate_resistor_mismatch(r1, 10.0);
        ckt.annotate_capacitor_mismatch(c1, 1e-8);
        ckt
    }

    /// RC charging with a resistor-mismatch parameter: compare the
    /// propagated sensitivity against finite-difference re-simulation.
    #[test]
    fn rc_sensitivity_matches_finite_difference() {
        let ckt = rc_with_mismatch();
        let b = ckt.find_node("b").unwrap();

        let mut opts = TranOptions::new(1.5e-3, 5e-6);
        opts.x0 = Some(vec![1.0, 0.0, -1e-3]);
        let res = transient_with_sensitivities(&ckt, &opts, SensInit::Zero).unwrap();

        let ib = ckt.unknown_of_node(b).unwrap();
        // FD: rerun with perturbed R and C.
        for (k, h) in [(0usize, 1e-2), (1usize, 1e-10)] {
            let mut deltas = vec![0.0, 0.0];
            deltas[k] = h;
            let mut cp = ckt.clone();
            cp.apply_mismatch(&deltas);
            let rp = crate::tran::transient(&cp, &opts).unwrap();
            deltas[k] = -h;
            let mut cm = ckt.clone();
            cm.apply_mismatch(&deltas);
            let rm = crate::tran::transient(&cm, &opts).unwrap();
            // Compare at a few sample points.
            for step in [50usize, 150, 299] {
                let fd =
                    (cp.voltage(&rp.states[step], b) - cm.voltage(&rm.states[step], b)) / (2.0 * h);
                let got = res.sens[k][step][ib];
                assert!(
                    (got - fd).abs() < 5e-3 * fd.abs().max(1e-8),
                    "param {k} step {step}: {got} vs {fd}"
                );
            }
        }
    }

    /// The DC-initialized sensitivity of a static circuit stays at the DC
    /// sensitivity for all time.
    #[test]
    fn static_circuit_sensitivity_is_constant() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
        let r1 = ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
        ckt.annotate_resistor_mismatch(r1, 5.0);
        let opts = TranOptions::new(1e-6, 1e-8);
        let res = transient_with_sensitivities(&ckt, &opts, SensInit::FromDc).unwrap();
        let ib = ckt.unknown_of_node(b).unwrap();
        let s_first = res.sens[0][0][ib];
        let s_last = res.sens[0].last().unwrap()[ib];
        assert!(
            (s_first - s_last).abs() < 1e-6 * s_first.abs(),
            "{s_first} vs {s_last}"
        );
        // Analytic: ∂(V·R2/(R1+R2))/∂R1 = −V·R2/(R1+R2)² = −0.5 mV/Ω.
        assert!((s_first + 2.0 * 1e3 / 4e6).abs() < 1e-9);
    }

    /// The batched-parallel path and the sequential reference agree to
    /// machine precision, for every thread count.
    #[test]
    fn batched_matches_sequential_all_thread_counts() {
        let ckt = rc_with_mismatch();
        let mut base = TranOptions::new(4e-4, 2e-6);
        base.x0 = Some(vec![1.0, 0.0, -1e-3]);
        let seq = transient_with_sensitivities_seq(&ckt, &base, SensInit::FromDc).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let par = batched_on(&ckt, &base, SensInit::FromDc, threads);
            assert_eq!(par.sens.len(), seq.sens.len());
            let mut max_diff = 0.0f64;
            for (pk, sk) in par.sens.iter().zip(seq.sens.iter()) {
                assert_eq!(pk.len(), sk.len());
                for (ps, ss) in pk.iter().zip(sk.iter()) {
                    for (a, b) in ps.iter().zip(ss.iter()) {
                        max_diff = max_diff.max((a - b).abs());
                    }
                }
            }
            assert!(
                max_diff < 1e-12,
                "threads {threads}: max |batched - seq| = {max_diff:e}"
            );
        }
    }

    /// Property (c): on the adaptive non-uniform grid, the batched path
    /// matches the sequential reference for every thread count — and the
    /// dense backend makes the thread-count comparison exactly bitwise
    /// (chunk partitioning never touches any parameter's arithmetic).
    #[test]
    fn adaptive_batched_matches_sequential_all_thread_counts() {
        use crate::tran::AdaptiveOptions;
        let ckt = rc_with_mismatch();
        let mut base = TranOptions::adaptive(4e-4, 2e-6, AdaptiveOptions::default());
        base.x0 = Some(vec![1.0, 0.0, -1e-3]);
        base.method = crate::tran::Integrator::Trapezoidal;
        let seq = transient_with_sensitivities_seq(&ckt, &base, SensInit::FromDc).unwrap();
        let mut reference: Option<TranSensResult> = None;
        for threads in [1usize, 2, 3, 8] {
            let par = batched_on(&ckt, &base, SensInit::FromDc, threads);
            // The nominal grids must agree bitwise: all paths drive the
            // same LTE controller.
            assert_eq!(par.tran.times.len(), seq.tran.times.len());
            for (a, b) in par.tran.times.iter().zip(seq.tran.times.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "grid mismatch");
            }
            // Batched vs sequential: machine precision (different pivot
            // handling), same contract as the fixed-grid test.
            let mut max_diff = 0.0f64;
            for (pk, sk) in par.sens.iter().zip(seq.sens.iter()) {
                assert_eq!(pk.len(), sk.len());
                for (ps, ss) in pk.iter().zip(sk.iter()) {
                    for (a, b) in ps.iter().zip(ss.iter()) {
                        max_diff = max_diff.max((a - b).abs());
                    }
                }
            }
            assert!(
                max_diff < 1e-12,
                "threads {threads}: max |batched - seq| = {max_diff:e}"
            );
            // Across thread counts: exactly bitwise.
            match &reference {
                None => reference = Some(par),
                Some(r) => {
                    for (pk, rk) in par.sens.iter().zip(r.sens.iter()) {
                        for (ps, rs) in pk.iter().zip(rk.iter()) {
                            for (a, b) in ps.iter().zip(rs.iter()) {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "threads {threads} not bitwise vs 1"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Adaptive-grid sensitivities are still *correct*, not just
    /// self-consistent: compare against finite-difference re-simulation on
    /// the same accepted grid.
    #[test]
    fn adaptive_sensitivity_matches_finite_difference() {
        use crate::tran::AdaptiveOptions;
        let ckt = rc_with_mismatch();
        let b = ckt.find_node("b").unwrap();
        let mut a = AdaptiveOptions::default();
        a.reltol = 1e-4; // tight grid so FD of the perturbed runs stays fair
        let mut opts = TranOptions::adaptive(1.5e-3, 5e-6, a);
        opts.x0 = Some(vec![1.0, 0.0, -1e-3]);
        let res = transient_with_sensitivities(&ckt, &opts, SensInit::Zero).unwrap();
        let ib = ckt.unknown_of_node(b).unwrap();
        let last = res.sens[0].len() - 1;
        for (k, h) in [(0usize, 1e-2), (1usize, 1e-10)] {
            let mut deltas = vec![0.0, 0.0];
            deltas[k] = h;
            let mut cp = ckt.clone();
            cp.apply_mismatch(&deltas);
            let rp = crate::tran::transient(&cp, &opts).unwrap();
            deltas[k] = -h;
            let mut cm = ckt.clone();
            cm.apply_mismatch(&deltas);
            let rm = crate::tran::transient(&cm, &opts).unwrap();
            // Compare at the end point via interpolation (the perturbed
            // runs accept their own grids).
            let wp = rp.node_waveform(&cp, b);
            let wm = rm.node_waveform(&cm, b);
            let fd = (wp.last().unwrap() - wm.last().unwrap()) / (2.0 * h);
            let got = res.sens[k][last][ib];
            assert!(
                (got - fd).abs() < 2e-2 * fd.abs().max(1e-8),
                "param {k}: {got} vs {fd}"
            );
        }
    }

    /// A circuit with no mismatch annotations must run cleanly (empty
    /// sensitivity set, nominal transient intact) — regression check for
    /// the zero-RHS batched-solve path.
    #[test]
    fn zero_parameters_is_clean() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-6);
        let opts = TranOptions::new(1e-4, 1e-6);
        for init in [SensInit::FromDc, SensInit::Zero] {
            let res = transient_with_sensitivities(&ckt, &opts, init).unwrap();
            assert!(res.sens.is_empty());
            assert_eq!(res.tran.states.len(), 101);
        }
    }

    /// Windowing must be seamless: a run longer than one window gives the
    /// same trajectory as the sequential path across the window boundary.
    #[test]
    fn window_boundaries_are_seamless() {
        let ckt = rc_with_mismatch();
        // 200 steps: crosses the 64-step window boundary three times.
        let mut opts = TranOptions::new(4e-4, 2e-6);
        opts.x0 = Some(vec![1.0, 0.0, -1e-3]);
        let par = batched_on(&ckt, &opts, SensInit::Zero, 2);
        let seq = transient_with_sensitivities_seq(&ckt, &opts, SensInit::Zero).unwrap();
        assert_eq!(par.sens[0].len(), 201);
        for step in [63usize, 64, 65, 127, 128, 129, 200] {
            for i in 0..3 {
                let a = par.sens[0][step][i];
                let b = seq.sens[0][step][i];
                assert!((a - b).abs() < 1e-12, "step {step} row {i}: {a} vs {b}");
            }
        }
    }
}
