//! DC sensitivity analysis (`.SENS`) — the classic linear-perturbation
//! computation the paper's references \[8\],\[9\],\[20\],\[26\] build on —
//! and [`RecordSweep`], the one kernel that propagates blocks through
//! recorded steps: the PSS monodromy, the LPTV parameter responses and
//! [`crate::Session::transient_with_sensitivities`] all run it. The
//! sequential references (`monodromy_seq`, `PeriodicSolver::param_response`,
//! [`crate::transens::transient_with_sensitivities_seq`] and
//! [`param_step_rhs`]) stay separate, as independent oracles.

use crate::error::EngineError;
use crate::par::{chunk_ranges, effective_threads, map_scoped};
use crate::solver::{FactoredJacobian, SolverKind};
use crate::tran::StepRecord;
use std::ops::Range;
use tranvar_circuit::{Circuit, CircuitError, ParamDeriv};
use tranvar_num::lanes_scratch_len;

/// DC sensitivities `dx/dp_k` of the operating point with respect to every
/// registered mismatch parameter.
///
/// Implements the adjoint-free direct method: `G·(dx/dp) = −∂f/∂p`, factoring
/// `G` once and back-substituting per parameter — the DC special case of the
/// reuse that makes the paper's method cheap.
///
/// # Errors
///
/// Returns a numerical error if `G` is singular at the operating point.
pub fn dc_sensitivities(
    ckt: &Circuit,
    x_op: &[f64],
    solver: SolverKind,
) -> Result<Vec<Vec<f64>>, EngineError> {
    let n_params = ckt.mismatch_params().len();
    if n_params == 0 {
        return Ok(Vec::new());
    }
    let asm = ckt.assemble(x_op, 0.0);
    let n_node = ckt.n_nodes() - 1;
    let lu = FactoredJacobian::factor(solver, &asm, 1.0, 0.0, 1e-12, n_node)?;
    let n = asm.n;
    // Stage every parameter's RHS in one RHS-interleaved block
    // (`block[i·n_params + k]`) and solve them with a single lane sweep —
    // the factor is traversed once per block rather than once per parameter.
    let mut block = vec![0.0; n * n_params];
    let mut pd = ParamDeriv::default();
    for k in 0..n_params {
        ckt.d_residual_dparam_into(k, x_op, &mut pd)?;
        for &(i, v) in &pd.df {
            block[i * n_params + k] -= v;
        }
        // ∂q/∂p does not influence the DC solution.
    }
    let mut scratch = vec![0.0; lanes_scratch_len(n, n_params)];
    lu.solve_multi_lanes(&mut block, n_params, &mut scratch);
    Ok((0..n_params)
        .map(|k| (0..n).map(|i| block[i * n_params + k]).collect())
        .collect())
}

/// The θ-method step right-hand side for parameter `k`:
/// `w_k = θ·∂f/∂p(x₁) + (1−θ)·∂f/∂p(x₀) + (∂q/∂p(x₁) − ∂q/∂p(x₀))/h`.
///
/// With the step Jacobian `J` and coupling `B` from
/// [`crate::tran::StepRecord`], the parameter sensitivity propagates as
/// `J·S₁ = B·S₀ − w`. The same `w` is the periodic-BVP source term in the
/// LPTV mismatch analysis (pseudo-noise injection integrated over a step).
/// The per-parameter oracle of [`RecordSweep::stage_sources`].
///
/// # Errors
///
/// Propagates unknown-parameter errors.
pub fn param_step_rhs(
    ckt: &Circuit,
    k: usize,
    x1: &[f64],
    x0: &[f64],
    h: f64,
    theta: f64,
) -> Result<Vec<f64>, EngineError> {
    let (pd1, pd0) = (ckt.d_residual_dparam(k, x1)?, ckt.d_residual_dparam(k, x0)?);
    let mut w = vec![0.0; ckt.n_unknowns()];
    for &(i, v) in &pd1.df {
        w[i] += theta * v;
    }
    for &(i, v) in &pd0.df {
        w[i] += (1.0 - theta) * v;
    }
    for &(i, v) in &pd1.dq {
        w[i] += v / h;
    }
    for &(i, v) in &pd0.dq {
        w[i] -= v / h;
    }
    Ok(w)
}

/// One worker chunk of a record sweep: `J_k·d_k = B_k·d_{k−1} − w_k`
/// through [`StepRecord`]s for `p` right-hand sides (columns or mismatch
/// parameters) in one RHS-interleaved block, allocation-free per step.
/// Each job's arithmetic is the sequential references' (a lane solve is
/// `solve_into` bit for bit; an entry minus a zero source is the entry),
/// so results are bit-identical for any thread count.
#[derive(Debug, Default)]
pub struct RecordSweep {
    /// The chunk's jobs, `k0..k0 + p`.
    pub jobs: Range<usize>,
    /// The block, `state[i·p + kk]` = row `i` of job `k0 + kk`; zero when
    /// the chunk first runs.
    pub state: Vec<f64>,
    n: usize,
    rhs: Vec<f64>,
    scratch: Vec<f64>,
    /// Staged sources, `sources[s·n·p + i·p + kk]` for record `s`.
    sources: Vec<f64>,
    /// Parameter derivatives at the last staged state, and the next one's.
    pd_prev: Vec<ParamDeriv>,
    pd_cur: Vec<ParamDeriv>,
}

impl RecordSweep {
    /// Splits `n_jobs` jobs of an `n`-unknown system into contiguous
    /// chunks, one per worker: `threads` (`0` = all cores), at most
    /// `n_jobs` (see [`effective_threads`]).
    pub fn chunks(n: usize, n_jobs: usize, threads: usize) -> Vec<RecordSweep> {
        let threads = effective_threads(threads, n_jobs);
        let chunk = n_jobs.div_ceil(threads).max(1);
        let chunk_of = |(k0, p)| RecordSweep {
            jobs: k0..k0 + p,
            n,
            ..RecordSweep::default()
        };
        chunk_ranges(n_jobs, chunk)
            .into_iter()
            .map(chunk_of)
            .collect()
    }

    /// Runs `f` on every chunk, one scoped worker each (see [`map_scoped`]),
    /// with the chunk's slots of `out` (one per job, or `&mut []`). A chunk
    /// moves onto its worker, which allocates its buffers on the first run
    /// and drops it (one-shot) or returns it (windowed); results belong in
    /// the caller's `out`, since memory one thread allocates and another
    /// frees after the first exits can stay resident in the allocator.
    pub fn run<R: Send, T: Send>(
        chunks: Vec<Self>,
        out: &mut [R],
        f: impl Fn(Self, &mut [R]) -> T + Sync,
    ) -> Vec<T> {
        let mut rest = out;
        let jobs: Vec<_> = chunks
            .into_iter()
            .map(|sw| {
                let k = sw.jobs.len().min(rest.len());
                let (slots, tail) = std::mem::take(&mut rest).split_at_mut(k);
                rest = tail;
                (sw, slots)
            })
            .collect();
        map_scoped(jobs, |(mut sw, slots)| {
            if sw.rhs.is_empty() {
                let (n, p) = (sw.n, sw.jobs.len());
                sw.state = vec![0.0; n * p];
                sw.rhs = vec![0.0; n * p];
                sw.scratch = vec![0.0; lanes_scratch_len(n, p)];
            }
            f(sw, slots)
        })
    }

    /// Stages the sources `w` of `records` for the chunk's parameters, in
    /// [`param_step_rhs`] order, with the records' MOSFET operating points:
    /// `states[s + 1]` is the state `records[s]` reached. The first staging
    /// evaluates `states[0]`; later ones (further windows of one run)
    /// continue from the last staged state.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownMismatchParam`] for jobs that are not
    /// parameters of `ckt`.
    pub fn stage_sources(
        &mut self,
        ckt: &Circuit,
        records: &[StepRecord],
        states: &[Vec<f64>],
    ) -> Result<(), CircuitError> {
        let (k0, p, np) = (self.jobs.start, self.jobs.len(), self.state.len());
        if self.pd_prev.is_empty() {
            self.pd_prev = vec![ParamDeriv::default(); p];
            self.pd_cur = vec![ParamDeriv::default(); p];
            ckt.d_residual_dparams_into(k0, &states[0], &mut self.pd_prev)?;
        }
        self.sources.clear();
        self.sources.resize(records.len() * np, 0.0);
        let steps = records.iter().zip(&states[1..]);
        for ((rec, x1), ws) in steps.zip(self.sources.chunks_exact_mut(np)) {
            ckt.d_residual_dparams_with_ops(k0, x1, &rec.mos_ops, &mut self.pd_cur)?;
            for (kk, (cur, prev)) in self.pd_cur.iter().zip(&self.pd_prev).enumerate() {
                for &(i, v) in &cur.df {
                    ws[i * p + kk] += rec.theta * v;
                }
                for &(i, v) in &prev.df {
                    ws[i * p + kk] += (1.0 - rec.theta) * v;
                }
                for &(i, v) in &cur.dq {
                    ws[i * p + kk] += v / rec.h;
                }
                for &(i, v) in &prev.dq {
                    ws[i * p + kk] -= v / rec.h;
                }
            }
            std::mem::swap(&mut self.pd_prev, &mut self.pd_cur);
        }
        Ok(())
    }

    /// Advances [`RecordSweep::state`] through `records` — `B_k·d`, minus
    /// record `k`'s staged source if any are staged, then one lane solve
    /// with `J_k` — and hands the block to `after` after each record.
    pub fn sweep(&mut self, records: &[StepRecord], mut after: impl FnMut(&[f64])) {
        let (p, np) = (self.jobs.len(), self.state.len());
        for (s, rec) in records.iter().enumerate() {
            rec.b.mat_vec_interleaved(&self.state, &mut self.rhs, p);
            if !self.sources.is_empty() {
                let w = &self.sources[s * np..(s + 1) * np];
                self.rhs.iter_mut().zip(w).for_each(|(r, w)| *r -= *w);
            }
            rec.lu
                .solve_multi_lanes(&mut self.rhs, p, &mut self.scratch);
            std::mem::swap(&mut self.state, &mut self.rhs);
            after(&self.state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};
    use tranvar_circuit::{Circuit, NodeId, Waveform};

    /// The chunk split is the worker-count rule alone: one chunk on one
    /// worker, `ceil(jobs / threads)` jobs per chunk otherwise, `0` = all
    /// cores. `tests/properties.rs` relies on the 3- and 8-thread splits.
    #[test]
    fn chunks_split_by_the_requested_worker_count() {
        let split = |t| -> Vec<Range<usize>> {
            RecordSweep::chunks(4, 22, t)
                .into_iter()
                .map(|c| c.jobs)
                .collect()
        };
        assert_eq!(split(1), vec![0..22]);
        assert_eq!(split(3), vec![0..8, 8..16, 16..22]);
        assert_eq!(split(8).iter().map(|r| r.len()).max(), Some(3));
        assert_eq!(split(8).len(), 8);
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let all = split(0);
        assert_eq!(all[0], 0..22usize.div_ceil(cores));
        assert_eq!(all.last().map(|r| r.end), Some(22));
    }

    /// Divider sensitivity has a closed form: vout = V·R2/(R1+R2),
    /// ∂vout/∂R1 = −V·R2/(R1+R2)², ∂vout/∂R2 = V·R1/(R1+R2)².
    #[test]
    fn divider_sensitivities_match_analytic() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
        let r1 = ckt.add_resistor("R1", a, b, 1e3);
        let r2 = ckt.add_resistor("R2", b, NodeId::GROUND, 3e3);
        ckt.annotate_resistor_mismatch(r1, 10.0);
        ckt.annotate_resistor_mismatch(r2, 10.0);
        let x = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let sens = dc_sensitivities(&ckt, &x, SolverKind::Dense).unwrap();
        let ib = ckt.unknown_of_node(b).unwrap();
        let s1 = sens[0][ib];
        let s2 = sens[1][ib];
        let expect1 = -2.0 * 3e3 / (4e3_f64.powi(2));
        let expect2 = 2.0 * 1e3 / (4e3_f64.powi(2));
        assert!(
            (s1 - expect1).abs() < 1e-6 * expect1.abs(),
            "{s1} vs {expect1}"
        );
        assert!(
            (s2 - expect2).abs() < 1e-6 * expect2.abs(),
            "{s2} vs {expect2}"
        );
    }

    #[test]
    fn sensitivities_match_finite_difference_mos() {
        use tranvar_circuit::{MosModel, MosType};
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let d = ckt.node("d");
        ckt.add_vsource("VDD", vdd, NodeId::GROUND, Waveform::Dc(1.2));
        ckt.add_vsource("VG", g, NodeId::GROUND, Waveform::Dc(0.8));
        ckt.add_resistor("RD", vdd, d, 5e3);
        let m1 = ckt.add_mosfet(
            "M1",
            d,
            g,
            NodeId::GROUND,
            MosType::Nmos,
            MosModel::nmos_013(),
            2e-6,
            0.13e-6,
        );
        ckt.annotate_pelgrom(m1, 6.5e-9, 3.25e-8);
        let x = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let sens = dc_sensitivities(&ckt, &x, SolverKind::Dense).unwrap();
        let id = ckt.unknown_of_node(d).unwrap();
        // FD re-solve.
        for (k, h) in [(0usize, 1e-6), (1usize, 1e-6)] {
            let mut deltas = vec![0.0; 2];
            deltas[k] = h;
            let mut cp = ckt.clone();
            cp.apply_mismatch(&deltas);
            let xp = dc_operating_point(&cp, &DcOptions::default()).unwrap();
            deltas[k] = -h;
            let mut cm = ckt.clone();
            cm.apply_mismatch(&deltas);
            let xm = dc_operating_point(&cm, &DcOptions::default()).unwrap();
            let fd = (cp.voltage(&xp, d) - cm.voltage(&xm, d)) / (2.0 * h);
            let got = sens[k][id];
            assert!(
                (got - fd).abs() < 2e-3 * fd.abs().max(1e-3),
                "param {k}: {got} vs fd {fd}"
            );
        }
    }
}
