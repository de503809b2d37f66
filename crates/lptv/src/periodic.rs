//! Periodic linear boundary-value solver around a PSS orbit.
//!
//! A mismatch parameter is quasi-DC pseudo-noise (paper Section III): over
//! one period its value is effectively constant, so the linearized response
//! of the circuit is the *periodic* solution of
//!
//! ```text
//! C(t)·δẋ + G(t)·δx = −∂F/∂p(t),   δx(0) = δx(T)
//! ```
//!
//! which, discretized on the PSS grid, is
//! `J_k·δx_k = B_k·δx_{k−1} − w_k` with periodic boundary conditions.
//! All `J_k` are already factored (stored in the PSS records) and the
//! monodromy `M` is known, so the boundary condition costs one dense solve of
//! `(I − M)` — factored *once* and shared across every noise source. Each
//! source then costs `N` sweeps for the particular solution plus one per
//! re-propagated sample: `2N` for a whole trajectory
//! ([`PeriodicSolver::all_param_responses`]), `N + s` when a metric reads
//! only samples `0..=s` ([`PeriodicSolver::node_responses`]; a delay reads
//! up to its crossing), and `N` when it reads only `δT`. This is the entire
//! cost model behind the paper's 100–1000× speedup claim. Both entry
//! points run one kernel (`propagate`), so a narrowed response is
//! bit-identical to the matching samples of a whole one.
//!
//! The sweeps (worker chunks, source staging, block steps) are the
//! engine's [`RecordSweep`]; this module keeps the boundary solve between
//! them and the closures that record what a caller reads.
//! [`PeriodicSolver::param_response`] stays a per-parameter oracle.
//!
//! For autonomous (oscillator) orbits, `I − M` is singular along the phase
//! mode; the system is bordered with the stored phase condition and period
//! derivative, and the extra unknown `δT` *is* the period sensitivity that
//! Section V-C turns into frequency variance.
//!
//! The solver is *grid-agnostic*: every recurrence coefficient comes from
//! the per-step [`StepRecord`]s (`h`, `θ`, the factored `J_k`), so a PSS
//! orbit integrated under [`StepControl::Adaptive`] — whose records sit on a
//! non-uniform LTE-controlled grid — propagates exactly like a fixed-grid
//! one. Metric extraction downstream (`tranvar-core`) detects the grid kind
//! and time-weights its averages accordingly.
//!
//! [`StepRecord`]: tranvar_engine::StepRecord
//! [`StepControl::Adaptive`]: tranvar_engine::tran::StepControl::Adaptive

use crate::error::LptvError;
use tranvar_circuit::{Circuit, NodeId};
use tranvar_engine::sens::{param_step_rhs, RecordSweep};
use tranvar_engine::Session;
use tranvar_num::dense::vecops;
use tranvar_num::{DMat, Lu};
use tranvar_pss::PssSolution;

/// The periodic response of the circuit to a unit value of one quasi-DC
/// parameter (or σ-scaled pseudo-noise source).
#[derive(Clone, Debug)]
pub struct PeriodicResponse {
    /// `n_steps + 1` perturbation states sampled on the PSS grid.
    pub dx: Vec<Vec<f64>>,
    /// Period sensitivity `δT` (0 for driven circuits).
    pub dperiod: f64,
}

impl PeriodicResponse {
    /// Extracts one node's perturbation waveform.
    pub fn node_waveform(&self, ckt: &Circuit, node: NodeId) -> Vec<f64> {
        self.dx.iter().map(|x| ckt.voltage(x, node)).collect()
    }
}

/// Shared factorizations for solving many periodic BVPs around one PSS orbit.
#[derive(Debug)]
pub struct PeriodicSolver<'a> {
    ckt: &'a Circuit,
    sol: &'a PssSolution,
    /// Factored `(I − M)` for driven, or the bordered `(n+1)` system for
    /// autonomous orbits.
    boundary: Lu,
    autonomous: bool,
    /// Worker threads of the batched parameter responses, taken from the
    /// session (`1` = the calling thread, the default; `0` = all cores).
    threads: usize,
}

impl<'a> PeriodicSolver<'a> {
    /// Prepares the boundary factorization for a PSS solution. The batched
    /// parameter propagation runs on the analysis [`Session`]'s worker
    /// count ([`Session::threads`]; one by default, so it runs on the
    /// calling thread). The boundary factorization is
    /// per-orbit state and is always computed here; the per-step
    /// factorizations come from the PSS records, which the session-run PSS
    /// solve already reused.
    ///
    /// # Errors
    ///
    /// - [`LptvError::MissingRecords`] if the solution has no step records,
    /// - [`LptvError::MissingAutonomousData`] if an oscillator solution lacks
    ///   the phase/period data,
    /// - numerical errors if the boundary matrix is singular (e.g. a driven
    ///   circuit with an undamped mode).
    pub fn with_session(
        ckt: &'a Circuit,
        sol: &'a PssSolution,
        session: &Session,
    ) -> Result<Self, LptvError> {
        if sol.records.is_empty() {
            return Err(LptvError::MissingRecords);
        }
        let n = ckt.n_unknowns();
        let autonomous = sol.dphi_dt.is_some();
        let boundary = if autonomous {
            let dphi = sol
                .dphi_dt
                .as_ref()
                .ok_or(LptvError::MissingAutonomousData)?;
            let pi = sol.phase_unknown.ok_or(LptvError::MissingAutonomousData)?;
            let mut a = DMat::zeros(n + 1, n + 1);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = -sol.monodromy[(i, j)];
                }
                a[(i, i)] += 1.0;
                a[(i, n)] = -dphi[i];
            }
            a[(n, pi)] = 1.0;
            a.lu()?
        } else {
            let mut a = DMat::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = -sol.monodromy[(i, j)];
                }
                a[(i, i)] += 1.0;
            }
            a.lu()?
        };
        Ok(PeriodicSolver {
            ckt,
            sol,
            boundary,
            autonomous,
            threads: session.threads(),
        })
    }

    /// The underlying PSS solution.
    pub fn pss(&self) -> &PssSolution {
        self.sol
    }

    /// Builds the per-step source terms `w_k` for mismatch parameter `k`.
    fn param_rhs(&self, k: usize) -> Result<Vec<Vec<f64>>, LptvError> {
        let recs = &self.sol.records;
        let mut out = Vec::with_capacity(recs.len());
        for (s, rec) in recs.iter().enumerate() {
            let x1 = &self.sol.states[s + 1];
            let x0 = &self.sol.states[s];
            out.push(param_step_rhs(self.ckt, k, x1, x0, rec.h, rec.theta)?);
        }
        Ok(out)
    }

    /// Solves the periodic BVP for the per-step sources `w` (one per
    /// record, each of length `n_unknowns`).
    fn solve_rhs(&self, w: &[Vec<f64>]) -> PeriodicResponse {
        let recs = &self.sol.records;
        let n = self.ckt.n_unknowns();
        // Particular solution from zero initial state; all buffers are
        // preallocated and every per-step solve is allocation-free.
        let mut d = vec![0.0; n];
        let mut rhs = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        for (rec, wk) in recs.iter().zip(w.iter()) {
            rec.b.mat_vec_into(&d, &mut rhs);
            vecops::axpy(&mut rhs, -1.0, wk);
            rec.lu.solve_into(&rhs, &mut d, &mut scratch);
        }
        // Boundary solve.
        let (d0, dperiod) = if self.autonomous {
            let mut brhs = vec![0.0; n + 1];
            brhs[..n].copy_from_slice(&d);
            let sol = self.boundary.solve(&brhs);
            (sol[..n].to_vec(), sol[n])
        } else {
            (self.boundary.solve(&d), 0.0)
        };
        // Re-propagate from the periodic initial condition.
        let mut dx = Vec::with_capacity(recs.len() + 1);
        dx.push(d0.clone());
        let mut cur = d0;
        for (rec, wk) in recs.iter().zip(w.iter()) {
            rec.b.mat_vec_into(&cur, &mut rhs);
            vecops::axpy(&mut rhs, -1.0, wk);
            rec.lu.solve_into(&rhs, &mut cur, &mut scratch);
            dx.push(cur.clone());
        }
        PeriodicResponse { dx, dperiod }
    }

    /// Periodic response to a *unit* value of mismatch parameter `k`
    /// (multiply by σ_k for the 1-σ response).
    ///
    /// # Errors
    ///
    /// Propagates parameter-lookup failures.
    pub fn param_response(&self, k: usize) -> Result<PeriodicResponse, LptvError> {
        let w = self.param_rhs(k)?;
        Ok(self.solve_rhs(&w))
    }

    /// Responses for every registered mismatch parameter, reusing all
    /// factorizations (the paper's "no additional simulation cost" claim):
    /// the all-rows, whole-period case of the propagation kernel behind
    /// [`PeriodicSolver::node_responses`].
    ///
    /// All parameters are propagated *together and in parallel*: the
    /// parameter set is split into contiguous chunks, one std scoped worker
    /// per chunk (up to the session's [`Session::threads`]). Each worker stages its
    /// chunk's per-step source terms as RHS-interleaved blocks and runs the
    /// particular pass, the boundary solve and the periodic re-propagation
    /// as single lane sweeps of the engine's [`RecordSweep`]
    /// per step — every factor entry becomes a chunk-wide contiguous axpy,
    /// with zero allocation inside the per-step loops. Each state's
    /// parameter derivatives are evaluated exactly once per chunk, and the
    /// MOSFET operating points come straight from the step records, so no
    /// device model is re-evaluated at all.
    ///
    /// Per-parameter results are bit-for-bit identical to
    /// [`PeriodicSolver::param_response`] and
    /// [`PeriodicSolver::all_param_responses_seq`], for any thread count.
    ///
    /// # Errors
    ///
    /// See [`PeriodicSolver::param_response`].
    pub fn all_param_responses(&self) -> Result<Vec<PeriodicResponse>, LptvError> {
        let n = self.ckt.n_unknowns();
        let n_steps = self.sol.records.len();
        let mut dx: Vec<Vec<Vec<f64>>> = (0..self.ckt.mismatch_params().len())
            .map(|_| Vec::with_capacity(n_steps + 1))
            .collect();
        let dperiods = self.propagate(&mut dx, Some(n_steps), |dx, block, p, kk| {
            dx.push((0..n).map(|i| block[i * p + kk]).collect());
        })?;
        Ok(dx
            .into_iter()
            .zip(dperiods)
            .map(|(dx, dperiod)| PeriodicResponse { dx, dperiod })
            .collect())
    }

    /// Every mismatch parameter's response restricted to what a metric
    /// reads: the waveforms of `nodes` over samples `0..=through` (clamped
    /// to the period), plus `δT`. The re-propagation stops at `through`
    /// and records only the requested rows; with no nodes it does not run
    /// at all (a period-only readout needs just the boundary solve).
    ///
    /// Every sample is bit-identical to the matching
    /// `all_param_responses()[k].node_waveform(ckt, node)` entry, for any
    /// thread count: both are the same propagation kernel.
    ///
    /// # Errors
    ///
    /// See [`PeriodicSolver::param_response`].
    pub fn node_responses(
        &self,
        nodes: &[NodeId],
        through: usize,
    ) -> Result<Vec<NodeResponse>, LptvError> {
        let rows: Vec<Option<usize>> = nodes
            .iter()
            .map(|&node| self.ckt.unknown_of_node(node))
            .collect();
        let through = (!nodes.is_empty()).then(|| through.min(self.sol.records.len()));
        let samples = through.map_or(0, |t| t + 1);
        let mut waves: Vec<Vec<Vec<f64>>> = (0..self.ckt.mismatch_params().len())
            .map(|_| rows.iter().map(|_| Vec::with_capacity(samples)).collect())
            .collect();
        let dperiods = self.propagate(&mut waves, through, |waves, block, p, kk| {
            for (wave, row) in waves.iter_mut().zip(&rows) {
                // `Circuit::voltage`: the ground node reads 0.
                wave.push(row.map_or(0.0, |i| block[i * p + kk]));
            }
        })?;
        Ok(waves
            .into_iter()
            .zip(dperiods)
            .map(|(waves, dperiod)| NodeResponse { waves, dperiod })
            .collect())
    }

    /// Sequential per-parameter reference: one [`PeriodicSolver::param_response`]
    /// call per parameter (per-column allocating solves, fresh source-term
    /// evaluation per parameter) — the pre-batching behavior, retained for
    /// validation and as the benchmark baseline (`BENCH_pss.json`).
    ///
    /// # Errors
    ///
    /// See [`PeriodicSolver::param_response`].
    pub fn all_param_responses_seq(&self) -> Result<Vec<PeriodicResponse>, LptvError> {
        (0..self.ckt.mismatch_params().len())
            .map(|k| self.param_response(k))
            .collect()
    }

    /// The propagation kernel: solves every parameter's periodic BVP on
    /// parameter-chunk workers and returns the period sensitivities. When
    /// `through` is set, the periodic re-propagation runs through sample
    /// `through` and hands each sample's RHS-interleaved `n × p` block to
    /// `record(&mut out[k], block, p, kk)` for every chunk parameter `kk`
    /// (global parameter `k`), in sample order; `None` skips it.
    fn propagate<R, F>(
        &self,
        out: &mut [R],
        through: Option<usize>,
        record: F,
    ) -> Result<Vec<f64>, LptvError>
    where
        R: Send,
        F: Fn(&mut R, &[f64], usize, usize) + Sync,
    {
        let recs = &self.sol.records;
        let n = self.ckt.n_unknowns();
        let chunks = RecordSweep::chunks(n, out.len(), self.threads);
        let mut slots: Vec<(&mut R, f64)> = out.iter_mut().map(|r| (r, 0.0)).collect();
        let results = RecordSweep::run(chunks, &mut slots, |mut sw, out| {
            let p = out.len();
            let np = n * p;
            // Particular pass from zero initial state.
            sw.stage_sources(self.ckt, recs, &self.sol.states)?;
            sw.sweep(recs, |_| {});
            // Batched boundary solve; for autonomous orbits the bordered
            // row appends one interleaved row of zeros and returns the
            // period sensitivities in it.
            let nb = n + usize::from(self.autonomous);
            let mut d0 = vec![0.0; nb * p];
            d0[..np].copy_from_slice(&sw.state);
            let mut bscratch = vec![0.0; tranvar_num::lanes_scratch_len(nb, p)];
            self.boundary.solve_multi_lanes(&mut d0, p, &mut bscratch);
            if self.autonomous {
                for (slot, d) in out.iter_mut().zip(&d0[np..]) {
                    slot.1 = *d;
                }
                d0.truncate(np);
            }
            // Re-propagate from the periodic initial conditions, only as
            // far as the caller reads.
            if let Some(through) = through {
                let mut record_all = |block: &[f64]| {
                    for (kk, slot) in out.iter_mut().enumerate() {
                        record(slot.0, block, p, kk);
                    }
                };
                record_all(&d0);
                sw.state = d0;
                sw.sweep(&recs[..through], record_all);
            }
            Ok::<_, LptvError>(())
        });
        for r in results {
            r?;
        }
        Ok(slots.into_iter().map(|s| s.1).collect())
    }
}

/// One mismatch parameter's response restricted to the node rows and
/// samples a metric reads ([`PeriodicSolver::node_responses`]).
#[derive(Clone, Debug)]
pub struct NodeResponse {
    /// Per requested node, in request order: the perturbation waveform
    /// over samples `0..=through` of the PSS grid (empty when no re-propagation ran).
    pub waves: Vec<Vec<f64>>,
    /// Period sensitivity `δT` (0 for driven circuits).
    pub dperiod: f64,
}

/// The paper's Fig. 8 "statistical waveform": the nominal PSS waveform of a
/// node together with the 1-σ mismatch envelope
/// `σ(t)² = Σ_src (σ_src·δv_src(t))²`, computed from the periodic responses
/// of every mismatch parameter (quasi-DC pseudo-noise → the mismatch acts as
/// a random constant, so the per-time standard deviation is the RSS of the
/// per-source periodic responses).
///
/// Returns `(times, nominal, sigma)` sampled on the PSS grid.
///
/// # Errors
///
/// Propagates periodic-solver failures.
pub fn statistical_waveform(
    ckt: &Circuit,
    solver: &PeriodicSolver<'_>,
    node: NodeId,
) -> Result<(Vec<f64>, Vec<f64>, Vec<f64>), LptvError> {
    let sol = solver.pss();
    let nominal = sol.node_waveform(ckt, node);
    let sigmas = ckt.mismatch_sigmas();
    let mut var = vec![0.0; nominal.len()];
    // One batched propagation for every parameter (multi-RHS over the
    // shared PSS factorizations) instead of a per-source solve loop.
    let responses = solver.all_param_responses()?;
    for (sigma, resp) in sigmas.iter().zip(responses.iter()) {
        let w = resp.node_waveform(ckt, node);
        for (v, dv) in var.iter_mut().zip(w.iter()) {
            *v += (sigma * dv) * (sigma * dv);
        }
    }
    let sigma_t = var.iter().map(|v| v.sqrt()).collect();
    Ok((sol.times.clone(), nominal, sigma_t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranvar_circuit::Waveform;
    use tranvar_engine::{SessionOptions, SolverKind};
    use tranvar_pss::{shooting_pss, PssOptions};

    /// A solver on a default (one-worker) session.
    fn solver_for<'a>(
        ckt: &'a Circuit,
        sol: &'a PssSolution,
    ) -> Result<PeriodicSolver<'a>, LptvError> {
        PeriodicSolver::with_session(ckt, sol, &Session::default())
    }

    /// Driven divider + cap with resistor mismatch: at DC drive, the periodic
    /// response must equal the DC sensitivity.
    #[test]
    fn reduces_to_dc_sensitivity_for_static_circuit() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
        let r1 = ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
        ckt.annotate_resistor_mismatch(r1, 10.0);
        let mut opts = PssOptions::default();
        opts.n_steps = 32;
        let sol = shooting_pss(&ckt, 1e-6, &opts).unwrap();
        let solver = solver_for(&ckt, &sol).unwrap();
        let resp = solver.param_response(0).unwrap();
        let ib = ckt.unknown_of_node(b).unwrap();
        // Analytic ∂vb/∂R1 = −V·R2/(R1+R2)² = −0.5 mV/Ω.
        for state in &resp.dx {
            assert!(
                (state[ib] + 0.5e-3).abs() < 1e-9,
                "dvb = {} vs -0.5e-3",
                state[ib]
            );
        }
        assert_eq!(resp.dperiod, 0.0);
        assert!(solver.pss().dphi_dt.is_none());
    }

    /// The periodic response to a parameter must match finite-difference
    /// re-solution of the PSS (the golden test of the whole method).
    #[test]
    fn matches_finite_difference_of_pss() {
        use tranvar_circuit::Pulse;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let period = 10e-6;
        ckt.add_vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Pulse(Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 1e-6,
                rise: 1e-7,
                fall: 1e-7,
                width: 4e-6,
                period,
            }),
        );
        let r1 = ckt.add_resistor("R1", a, b, 10e3);
        let c1 = ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
        ckt.annotate_resistor_mismatch(r1, 100.0);
        ckt.annotate_capacitor_mismatch(c1, 1e-11);
        let mut opts = PssOptions::default();
        opts.n_steps = 200;
        let sol = shooting_pss(&ckt, period, &opts).unwrap();
        let solver = solver_for(&ckt, &sol).unwrap();
        let ib = ckt.unknown_of_node(b).unwrap();

        for (k, h) in [(0usize, 1.0), (1usize, 1e-13)] {
            let resp = solver.param_response(k).unwrap();
            // FD: re-run the PSS with the parameter bumped both ways.
            let mut deltas = vec![0.0, 0.0];
            deltas[k] = h;
            let mut cp = ckt.clone();
            cp.apply_mismatch(&deltas);
            let sp = shooting_pss(&cp, period, &opts).unwrap();
            deltas[k] = -h;
            let mut cm = ckt.clone();
            cm.apply_mismatch(&deltas);
            let sm = shooting_pss(&cm, period, &opts).unwrap();
            for step in [0usize, 50, 120, 199] {
                let fd =
                    (cp.voltage(&sp.states[step], b) - cm.voltage(&sm.states[step], b)) / (2.0 * h);
                let got = resp.dx[step][ib];
                assert!(
                    (got - fd).abs() < 2e-3 * fd.abs().max(1e-10),
                    "param {k} step {step}: {got} vs fd {fd}"
                );
            }
        }
    }

    /// The batched all-parameter propagation must reproduce the per-parameter
    /// path exactly (same factorizations, same arithmetic per column).
    #[test]
    fn batched_responses_match_per_param() {
        use tranvar_circuit::Pulse;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let period = 10e-6;
        ckt.add_vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Pulse(Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 1e-6,
                rise: 1e-7,
                fall: 1e-7,
                width: 4e-6,
                period,
            }),
        );
        let r1 = ckt.add_resistor("R1", a, b, 10e3);
        let r2 = ckt.add_resistor("R2", b, NodeId::GROUND, 20e3);
        let c1 = ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
        ckt.annotate_resistor_mismatch(r1, 100.0);
        ckt.annotate_resistor_mismatch(r2, 150.0);
        ckt.annotate_capacitor_mismatch(c1, 1e-11);
        let mut opts = PssOptions::default();
        opts.n_steps = 64;
        let sol = shooting_pss(&ckt, period, &opts).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let session = Session::new(SessionOptions {
                solver: SolverKind::Dense,
                threads,
            });
            let solver = PeriodicSolver::with_session(&ckt, &sol, &session).unwrap();
            let batched = solver.all_param_responses().unwrap();
            let seq = solver.all_param_responses_seq().unwrap();
            assert_eq!(batched.len(), 3);
            assert_eq!(seq.len(), 3);
            for (k, resp) in batched.iter().enumerate() {
                let single = solver.param_response(k).unwrap();
                assert_eq!(resp.dx.len(), single.dx.len());
                assert_eq!(resp.dperiod.to_bits(), single.dperiod.to_bits());
                assert_eq!(resp.dperiod.to_bits(), seq[k].dperiod.to_bits());
                for (s, (ba, sa)) in resp.dx.iter().zip(single.dx.iter()).enumerate() {
                    for (i, (x, y)) in ba.iter().zip(sa.iter()).enumerate() {
                        assert!(
                            x.to_bits() == y.to_bits(),
                            "threads {threads} param {k} step {s} row {i}: batched {x} vs single {y}"
                        );
                        assert!(
                            x.to_bits() == seq[k].dx[s][i].to_bits(),
                            "threads {threads} param {k} step {s} row {i}: batched vs seq"
                        );
                    }
                }
            }
        }
    }

    /// The narrowed propagation records exactly the matching samples of
    /// the whole-trajectory one: requested rows (the ground node reads 0),
    /// samples `0..=through`, the same `δT`, for any thread count; no
    /// nodes means no re-propagation at all.
    #[test]
    fn node_responses_match_all_param_responses() {
        use tranvar_circuit::Pulse;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        let period = 10e-6;
        ckt.add_vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Pulse(Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 1e-6,
                rise: 1e-7,
                fall: 1e-7,
                width: 4e-6,
                period,
            }),
        );
        let r1 = ckt.add_resistor("R1", a, b, 10e3);
        let r2 = ckt.add_resistor("R2", b, c, 20e3);
        let c1 = ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
        let c2 = ckt.add_capacitor("C2", c, NodeId::GROUND, 2e-9);
        ckt.annotate_resistor_mismatch(r1, 100.0);
        ckt.annotate_resistor_mismatch(r2, 150.0);
        ckt.annotate_capacitor_mismatch(c1, 1e-11);
        ckt.annotate_capacitor_mismatch(c2, 2e-11);
        let mut opts = PssOptions::default();
        opts.n_steps = 64;
        let sol = shooting_pss(&ckt, period, &opts).unwrap();
        let nodes = [c, NodeId::GROUND, b];
        for threads in [1usize, 2] {
            let session = Session::new(SessionOptions {
                solver: SolverKind::Dense,
                threads,
            });
            let solver = PeriodicSolver::with_session(&ckt, &sol, &session).unwrap();
            let full = solver.all_param_responses().unwrap();
            for through in [64usize, 17, 0, 1000] {
                let narrow = solver.node_responses(&nodes, through).unwrap();
                assert_eq!(narrow.len(), full.len());
                for (k, (nr, fr)) in narrow.iter().zip(&full).enumerate() {
                    assert_eq!(nr.dperiod.to_bits(), fr.dperiod.to_bits());
                    assert_eq!(nr.waves.len(), nodes.len());
                    for (wave, &node) in nr.waves.iter().zip(&nodes) {
                        let want = fr.node_waveform(&ckt, node);
                        assert_eq!(wave.len(), through.min(64) + 1);
                        for (s, (x, y)) in wave.iter().zip(&want).enumerate() {
                            assert!(
                                x.to_bits() == y.to_bits(),
                                "threads {threads} param {k} node {node:?} sample {s}: {x} vs {y}"
                            );
                        }
                    }
                }
            }
            let none = solver.node_responses(&[], 64).unwrap();
            assert_eq!(none.len(), full.len());
            for (nr, fr) in none.iter().zip(&full) {
                assert!(nr.waves.is_empty());
                assert_eq!(nr.dperiod.to_bits(), fr.dperiod.to_bits());
            }
        }
    }

    #[test]
    fn rejects_missing_records() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        ckt.add_resistor("R1", a, NodeId::GROUND, 1e3);
        let mut opts = PssOptions::default();
        opts.n_steps = 8;
        let mut sol = shooting_pss(&ckt, 1e-6, &opts).unwrap();
        sol.records.clear();
        assert!(matches!(
            solver_for(&ckt, &sol),
            Err(LptvError::MissingRecords)
        ));
    }

    #[test]
    fn statistical_waveform_rss() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
        let r1 = ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-12);
        ckt.annotate_resistor_mismatch(r1, 10.0);
        let mut opts = PssOptions::default();
        opts.n_steps = 32;
        let sol = shooting_pss(&ckt, 1e-6, &opts).unwrap();
        let solver = solver_for(&ckt, &sol).unwrap();
        let bnode = ckt.find_node("b").unwrap();
        let (times, nominal, sigma) = statistical_waveform(&ckt, &solver, bnode).unwrap();
        assert_eq!(times.len(), nominal.len());
        assert_eq!(times.len(), sigma.len());
        // Static circuit: nominal 1.0 V, σ = |∂vb/∂R1|·10 = 5 mV everywhere.
        for (v, s) in nominal.iter().zip(sigma.iter()) {
            assert!((v - 1.0).abs() < 1e-6);
            assert!((s - 5e-3).abs() < 1e-6, "sigma(t) = {s}");
        }
    }
}
