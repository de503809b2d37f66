//! Linear-solver selection and Jacobian construction shared by all analyses.
//!
//! Circuit Jacobians are assembled as sparse triplets; depending on
//! [`SolverKind`] they are factored densely (fast and simple for the
//! paper-scale benchmarks, tens of unknowns) or with the sparse
//! Gilbert–Peierls kernel (larger substrates such as long RC ladders and wide
//! ring oscillators). Both paths share one interface so the PSS/LPTV layers
//! can cache per-timestep factorizations regardless of backend.
//!
//! # Choosing a backend
//!
//! The MNA pattern of a circuit is *fixed*: every timestep restamps the same
//! coordinates. [`JacobianWorkspace`] exploits that by caching the sparsity
//! structure, the symbolic elimination order, and every staging allocation
//! across factorizations, so per-timestep factors cost only the numeric
//! work. The backends of [`SolverKind`]:
//!
//! - **Dense** (default): best for small systems — the dense kernel has no
//!   indexing overhead and vectorizes. All paper benchmark circuits are in
//!   this regime.
//! - **Sparse**: the natural-column-order sparse backend; keeps bit-compat
//!   replay semantics and wins when the Jacobian is large *and* sparse —
//!   factor cost scales with fill-in rather than n³, and the symbolic split
//!   means the pivot search is paid once per circuit rather than once per
//!   timestep.
//! - **SparseOrdered**: sparse with a Markowitz fill-reducing pivot order;
//!   the least fill-in and the fastest replayed factorizations on ladder/
//!   mesh-like substrates.
//!
//! Either backend solves through one lane kernel: the single solve
//! [`FactoredJacobian::solve_into`] is its width-1 case, and wide multi-RHS
//! solves (DC sensitivities and the record sweep
//! [`crate::sens::RecordSweep`]) go through the crate's
//! `solve_multi_lanes` with bit-for-bit the same per-RHS results.

use tranvar_circuit::Assembly;
use tranvar_num::{lanes_scratch_len, Csc, DMat, Lu, NumError, SparseLu, Triplets};

/// Which linear-algebra backend factors the MNA Jacobians.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Dense LU with partial pivoting (default; ideal for the paper-scale
    /// benchmark circuits, all below 32 unknowns).
    #[default]
    Dense,
    /// Sparse left-looking LU in natural column order (bit-compat replay
    /// path for larger circuits).
    Sparse,
    /// Sparse LU with a Markowitz fill-reducing pivot ordering (threshold
    /// pivoting). Lowest fill-in and fastest replays on large sparse
    /// substrates; solutions agree with [`SolverKind::Sparse`] to machine
    /// precision but not bit-for-bit.
    SparseOrdered,
}

/// A factored Jacobian, solvable for many right-hand sides.
#[derive(Clone, Debug)]
pub enum FactoredJacobian {
    /// Dense factorization.
    Dense(Lu),
    /// Sparse factorization.
    Sparse(SparseLu),
}

impl FactoredJacobian {
    /// Factors `alpha_g·G + alpha_c·C (+ gmin on node diagonals)`.
    ///
    /// `n_node_unknowns` bounds the rows that receive the `gmin` diagonal
    /// (branch-current rows must not be regularized).
    ///
    /// For repeated factorizations of the same circuit prefer
    /// [`JacobianWorkspace`], which reuses the pattern analysis and staging
    /// buffers.
    ///
    /// # Errors
    ///
    /// Propagates singular-matrix errors from the factorization.
    pub fn factor(
        kind: SolverKind,
        asm: &Assembly,
        alpha_g: f64,
        alpha_c: f64,
        gmin: f64,
        n_node_unknowns: usize,
    ) -> Result<Self, NumError> {
        let csc = combine(asm, alpha_g, alpha_c, gmin, n_node_unknowns);
        match kind {
            SolverKind::Dense => Ok(FactoredJacobian::Dense(csc.to_dense().lu()?)),
            SolverKind::Sparse => Ok(FactoredJacobian::Sparse(csc.lu()?)),
            SolverKind::SparseOrdered => Ok(FactoredJacobian::Sparse(csc.lu_markowitz()?)),
        }
    }

    /// Solves `J·x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        match self {
            FactoredJacobian::Dense(lu) => lu.solve(b),
            FactoredJacobian::Sparse(lu) => lu.solve(b),
        }
    }

    /// Solves `J·x = b` into `out` with zero heap allocation; `scratch`
    /// must have length `self.n()`. Bit-for-bit identical to every lane of
    /// a multi-RHS lane solve.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        match self {
            FactoredJacobian::Dense(lu) => lu.solve_into(b, out, scratch),
            FactoredJacobian::Sparse(lu) => lu.solve_into(b, out, scratch),
        }
    }

    /// Solves `J·X = B` for an RHS-interleaved block in place
    /// (`block[r·n_rhs + k]` is row `r` of RHS `k`) through the
    /// compile-time lane kernels, decomposing `n_rhs` into supported lane
    /// widths.
    ///
    /// `scratch` must hold at least
    /// [`tranvar_num::lanes_scratch_len`]`(self.n(), n_rhs)` elements — size
    /// caller buffers with that helper. Per-RHS results are bit-for-bit
    /// identical to [`FactoredJacobian::solve`].
    pub(crate) fn solve_multi_lanes(&self, block: &mut [f64], n_rhs: usize, scratch: &mut [f64]) {
        debug_assert!(
            scratch.len() >= lanes_scratch_len(self.n(), n_rhs),
            "lane scratch shorter than lanes_scratch_len"
        );
        match self {
            FactoredJacobian::Dense(lu) => lu.solve_multi_lanes(block, n_rhs, scratch),
            FactoredJacobian::Sparse(lu) => lu.solve_multi_lanes(block, n_rhs, scratch),
        }
    }

    /// System dimension.
    pub fn n(&self) -> usize {
        match self {
            FactoredJacobian::Dense(lu) => lu.n(),
            FactoredJacobian::Sparse(lu) => lu.n(),
        }
    }
}

/// Reusable staging for repeated [`combine`] builds of one circuit (the
/// per-step coupling matrix `B` and the sparse [`JacobianWorkspace`]
/// path): one *layout* per combination of present terms (`alpha_g ≠ 0`,
/// `alpha_c ≠ 0`, `gmin ≠ 0`), each holding the CSC matrix of its pattern
/// and the `(row, col)` sequence of the combined stamps (`G`, then `C`,
/// then the gmin diagonal) with each stamp's value slot.
///
/// A call whose stamps repeat the layout's `(row, col)` sequence refills
/// the values in place: every slot restarts at the additive identity and
/// takes `α·v` of its stamps in push order, the same left-to-right sums
/// [`combine`] forms, so the result equals a fresh [`combine`] bitwise with
/// no search and no allocation. A sequence mismatch rebuilds that layout.
/// Alternating combinations (a cycle's backward-Euler first step has no
/// `G` term in `B`, its trapezoidal steps do) each keep their own layout,
/// so neither rebuilds nor refills into the other's pattern.
#[derive(Debug, Default)]
pub struct CombineStage {
    layouts: Vec<Layout>,
    /// Index into `layouts` of the last staged combination.
    active: usize,
}

/// One combination's pattern: see [`CombineStage`].
#[derive(Debug)]
struct Layout {
    /// Present terms: bit 0 `G`, bit 1 `C`, bit 2 the gmin diagonal.
    terms: u8,
    /// `(row, col, value slot)` of every combined stamp, in push order.
    stamps: Vec<(usize, usize, usize)>,
    csc: Csc,
}

/// What [`CombineStage::stage`] did to produce the staged matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Staged {
    /// Refilled the values of the previous call's layout.
    Refilled,
    /// Refilled the values of another existing layout, whose pattern may
    /// differ from the previous call's.
    Switched,
    /// Built a layout (first use of the combination, or its stamp sequence
    /// changed).
    Built,
}

/// Calls `f(row, col, value)` for every stamp of
/// `alpha_g·G + alpha_c·C (+ gmin·I on node rows)` in push order: `G`,
/// then `C`, then the gmin diagonal, each only when its weight is nonzero.
fn for_each_stamp(
    asm: &Assembly,
    alpha_g: f64,
    alpha_c: f64,
    gmin: f64,
    n_node_unknowns: usize,
    mut f: impl FnMut(usize, usize, f64),
) {
    if alpha_g != 0.0 {
        for &(r, c, v) in asm.g.iter() {
            f(r, c, alpha_g * v);
        }
    }
    if alpha_c != 0.0 {
        for &(r, c, v) in asm.c.iter() {
            f(r, c, alpha_c * v);
        }
    }
    if gmin != 0.0 {
        for i in 0..n_node_unknowns.min(asm.n) {
            f(i, i, gmin);
        }
    }
}

/// The stamps of [`for_each_stamp`] as triplets.
fn combined_triplets(
    asm: &Assembly,
    alpha_g: f64,
    alpha_c: f64,
    gmin: f64,
    n_node_unknowns: usize,
) -> Triplets {
    let mut tr = Triplets::new(asm.n, asm.n);
    for_each_stamp(asm, alpha_g, alpha_c, gmin, n_node_unknowns, |r, c, v| {
        tr.push(r, c, v)
    });
    tr
}

impl Layout {
    /// Compresses the combination and records each stamp's value slot.
    fn build(
        asm: &Assembly,
        alpha_g: f64,
        alpha_c: f64,
        gmin: f64,
        n_node_unknowns: usize,
    ) -> Layout {
        let tr = combined_triplets(asm, alpha_g, alpha_c, gmin, n_node_unknowns);
        let csc = tr.to_csc();
        // Every compressed stamp is stored; were one missing, the empty
        // sequence would only make every later call rebuild.
        let stamps = tr
            .iter()
            .map(|&(r, c, _)| csc.slot(r, c).map(|k| (r, c, k)))
            .collect::<Option<Vec<_>>>()
            .unwrap_or_default();
        Layout {
            terms: terms(alpha_g, alpha_c, gmin),
            stamps,
            csc,
        }
    }

    /// Refills the values in place; `false` (values unspecified) when the
    /// stamps do not repeat the recorded `(row, col)` sequence.
    fn refill(
        &mut self,
        asm: &Assembly,
        alpha_g: f64,
        alpha_c: f64,
        gmin: f64,
        n_node_unknowns: usize,
    ) -> bool {
        let mut same = self.csc.rows() == asm.n;
        let (stamps, vals) = (&self.stamps, self.csc.values_mut());
        // −0.0 is the additive identity bitwise (`−0.0 + v` is `v`, also
        // for v = ±0.0), so each slot ends as exactly the sum `v₁ + v₂ + …`
        // that `Triplets::to_csc` forms for duplicates.
        vals.fill(-0.0);
        let mut k = 0;
        for_each_stamp(asm, alpha_g, alpha_c, gmin, n_node_unknowns, |r, c, v| {
            match stamps.get(k) {
                Some(&(sr, sc, slot)) if sr == r && sc == c => vals[slot] += v,
                _ => same = false,
            }
            k += 1;
        });
        same && k == stamps.len()
    }
}

/// The [`Layout::terms`] key of a combination.
fn terms(alpha_g: f64, alpha_c: f64, gmin: f64) -> u8 {
    u8::from(alpha_g != 0.0) | u8::from(alpha_c != 0.0) << 1 | u8::from(gmin != 0.0) << 2
}

impl CombineStage {
    /// Creates an empty stage.
    pub fn new() -> Self {
        CombineStage::default()
    }

    /// Builds `alpha_g·G + alpha_c·C (+ gmin·I on node rows)` into the
    /// staged storage and returns a borrow of it. Bitwise equal to
    /// [`combine`], but allocation-free after the first call of each
    /// combination.
    pub fn combine(
        &mut self,
        asm: &Assembly,
        alpha_g: f64,
        alpha_c: f64,
        gmin: f64,
        n_node_unknowns: usize,
    ) -> &Csc {
        self.stage(asm, alpha_g, alpha_c, gmin, n_node_unknowns);
        &self.layouts[self.active].csc
    }

    /// Stages the combination into its layout (refilled in place, or built
    /// on first use or a stamp-sequence change) and makes it the active
    /// one; [`CombineStage::staged`] borrows the result.
    pub(crate) fn stage(
        &mut self,
        asm: &Assembly,
        alpha_g: f64,
        alpha_c: f64,
        gmin: f64,
        n_node_unknowns: usize,
    ) -> Staged {
        let key = terms(alpha_g, alpha_c, gmin);
        let previous = self.active;
        let found = self.layouts.iter().position(|l| l.terms == key);
        match found {
            Some(k) if self.layouts[k].refill(asm, alpha_g, alpha_c, gmin, n_node_unknowns) => {
                self.active = k;
                if k == previous {
                    Staged::Refilled
                } else {
                    Staged::Switched
                }
            }
            _ => {
                let layout = Layout::build(asm, alpha_g, alpha_c, gmin, n_node_unknowns);
                self.active = match found {
                    Some(k) => {
                        self.layouts[k] = layout;
                        k
                    }
                    None => {
                        self.layouts.push(layout);
                        self.layouts.len() - 1
                    }
                };
                Staged::Built
            }
        }
    }

    /// The last staged matrix, or `None` before the first call.
    pub(crate) fn staged(&self) -> Option<&Csc> {
        self.layouts.get(self.active).map(|l| &l.csc)
    }
}

/// Counters describing how much structural work a [`JacobianWorkspace`] has
/// actually performed — the observable behind the session layer's claim that
/// repeated solves replay one cached analysis instead of re-running it.
///
/// The counters distinguish the three cost tiers of a factorization:
///
/// - `pattern_builds`: the sparsity structure had to be (re)built — staging
///   a fresh CSC pattern (sparse) or (re)allocating the dense storage. Paid
///   once per distinct MNA pattern the workspace ever sees.
/// - `symbolic_analyses`: a full *analyzing* factorization ran — the sparse
///   pivot search, or the first dense factorization into fresh storage.
///   A warm workspace replays this analysis instead of repeating it.
/// - `numeric_factorizations`: value-level factorizations, including
///   replays; value-identical repeats are deduplicated and not counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Sparsity-pattern (re)builds (once per distinct MNA pattern).
    pub pattern_builds: usize,
    /// Fresh analyzing factorizations (pivot search / storage build).
    pub symbolic_analyses: usize,
    /// Numeric factorizations actually performed (replays included,
    /// value-identical repeats deduplicated).
    pub numeric_factorizations: usize,
}

impl SolverStats {
    /// Component-wise sum of two counter sets.
    pub fn merged(self, other: SolverStats) -> SolverStats {
        SolverStats {
            pattern_builds: self.pattern_builds + other.pattern_builds,
            symbolic_analyses: self.symbolic_analyses + other.symbolic_analyses,
            numeric_factorizations: self.numeric_factorizations + other.numeric_factorizations,
        }
    }
}

/// Reusable factorization state for the per-timestep hot loops.
///
/// A circuit's MNA sparsity pattern never changes between timesteps or
/// Newton iterations, so this workspace:
///
/// - stages the sparse backends' [`Csc`] in a [`CombineStage`], which
///   refills its *values* in place through recorded value slots,
/// - for the sparse backend, performs the symbolic pivot analysis once and
///   replays it on every subsequent factorization
///   ([`SparseLu::refactor`] / [`Csc::lu_with`]), falling back to a fresh
///   pivot search only if a replayed pivot goes numerically bad,
/// - for the dense backend, refactors into the same storage
///   ([`Lu::refactor`]) without cloning the matrix.
///
/// [`JacobianWorkspace::factor`] returns a borrow of the cached factor;
/// callers that must store it (PSS/LPTV step records, sensitivity windows)
/// clone it.
#[derive(Debug)]
pub struct JacobianWorkspace {
    kind: SolverKind,
    /// Staged CSC storage (sparse backends).
    stage: CombineStage,
    dense: Option<DMat>,
    cached: Option<FactoredJacobian>,
    /// Snapshot of the values the cached factorization was computed from.
    /// A step's accepted-point Jacobian and the next step's warm-started
    /// first Newton Jacobian share the same `G`/`C`, so the comparison
    /// routinely deduplicates one numeric factorization per timestep.
    snapshot: Vec<f64>,
    stats: SolverStats,
}

impl JacobianWorkspace {
    /// Creates an empty workspace for the given backend.
    pub fn new(kind: SolverKind) -> Self {
        JacobianWorkspace {
            kind,
            stage: CombineStage::new(),
            dense: None,
            cached: None,
            snapshot: Vec::new(),
            stats: SolverStats::default(),
        }
    }

    /// The backend this workspace factors with.
    pub fn kind(&self) -> SolverKind {
        self.kind
    }

    /// Structural-work counters accumulated since creation.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Factors the combined Jacobian, reusing the cached structure and
    /// storage; returns a borrow of the cached factorization.
    ///
    /// # Errors
    ///
    /// Propagates singular-matrix errors.
    pub fn factor(
        &mut self,
        asm: &Assembly,
        alpha_g: f64,
        alpha_c: f64,
        gmin: f64,
        n_node_unknowns: usize,
    ) -> Result<&FactoredJacobian, NumError> {
        // Deterministic fault injection (no-op without the `fault-inject`
        // feature): lets tests force a singular/non-finite factorization at
        // an exact call ordinal.
        if let Some(e) = crate::fault::numeric_fault(crate::fault::sites::FACTOR) {
            return Err(e);
        }
        match self.kind {
            SolverKind::Dense => {
                if self.dense.as_ref().map(|d| d.rows()) != Some(asm.n) {
                    self.dense = None;
                    self.stats.pattern_builds += 1;
                }
                let dense = self.dense.get_or_insert_with(|| DMat::zeros(asm.n, asm.n));
                fill_combined_dense(dense, asm, alpha_g, alpha_c, gmin, n_node_unknowns);
                // When the values are unchanged the cached factorization is
                // exact (the warm-started first Newton iteration of a step
                // repeats the previous accepted-point Jacobian).
                let unchanged = self.cached.is_some() && self.snapshot == dense.as_slice();
                if !unchanged {
                    self.snapshot.clear();
                    self.snapshot.extend_from_slice(dense.as_slice());
                    self.stats.numeric_factorizations += 1;
                    match self.cached.as_mut() {
                        Some(FactoredJacobian::Dense(lu)) if lu.n() == asm.n => {
                            lu.refactor(dense)?
                        }
                        _ => {
                            self.stats.symbolic_analyses += 1;
                            self.cached = Some(FactoredJacobian::Dense(dense.clone().lu()?));
                        }
                    }
                }
            }
            SolverKind::Sparse | SolverKind::SparseOrdered => {
                let staged = self
                    .stage
                    .stage(asm, alpha_g, alpha_c, gmin, n_node_unknowns);
                if staged == Staged::Built {
                    self.stats.pattern_builds += 1;
                }
                // The cached factorization belongs to the previous call's
                // pattern; only a refill of that same layout can replay it.
                let rebuilt = staged != Staged::Refilled;
                let Some(csc) = self.stage.staged() else {
                    return Err(NumError::Internal {
                        what: "csc staging missing after staging",
                    });
                };
                let unchanged = !rebuilt && self.cached.is_some() && self.snapshot == csc.values();
                if !unchanged {
                    self.snapshot.clear();
                    self.snapshot.extend_from_slice(csc.values());
                    self.stats.numeric_factorizations += 1;
                    let refactored = match self.cached.as_mut() {
                        Some(FactoredJacobian::Sparse(lu)) if !rebuilt => lu.refactor(csc).is_ok(),
                        _ => false,
                    };
                    if !refactored {
                        // First factorization, pattern change, or stale
                        // pivots: run the analyzing factorization. The
                        // ordered backend analyzes with the Markowitz
                        // fill-reducing order; subsequent refactorizations
                        // replay it.
                        self.stats.symbolic_analyses += 1;
                        let lu = if self.kind == SolverKind::SparseOrdered {
                            csc.lu_markowitz()?
                        } else {
                            csc.lu()?
                        };
                        self.cached = Some(FactoredJacobian::Sparse(lu));
                    }
                }
            }
        }
        self.cached.as_ref().ok_or(NumError::Internal {
            what: "factorization cache empty after factoring",
        })
    }

    /// The cached factorization, for a caller that knows a
    /// [`JacobianWorkspace::factor`] call would see exactly the values it
    /// was computed from (the next transient step's first Newton Jacobian
    /// after a recorded step). It returns what `factor` would, through the
    /// same fault hook, without the refill and the value compare.
    ///
    /// # Errors
    ///
    /// [`NumError::Internal`] before the first factorization.
    pub(crate) fn reuse_cached(&mut self) -> Result<&FactoredJacobian, NumError> {
        if let Some(e) = crate::fault::numeric_fault(crate::fault::sites::FACTOR) {
            return Err(e);
        }
        self.cached.as_ref().ok_or(NumError::Internal {
            what: "no cached factorization to reuse",
        })
    }
}

/// Fills a dense matrix with the same combination, retaining its allocation.
fn fill_combined_dense(
    m: &mut DMat,
    asm: &Assembly,
    alpha_g: f64,
    alpha_c: f64,
    gmin: f64,
    n_node_unknowns: usize,
) {
    m.fill_zero();
    for_each_stamp(asm, alpha_g, alpha_c, gmin, n_node_unknowns, |r, c, v| {
        m[(r, c)] += v
    });
}

/// Builds `alpha_g·G + alpha_c·C (+ gmin·I on node rows)` as CSC.
pub fn combine(
    asm: &Assembly,
    alpha_g: f64,
    alpha_c: f64,
    gmin: f64,
    n_node_unknowns: usize,
) -> Csc {
    combined_triplets(asm, alpha_g, alpha_c, gmin, n_node_unknowns).to_csc()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranvar_circuit::{
        Circuit, CircuitOverride, DeviceId, MosModel, MosType, NodeId, Waveform,
    };

    fn rc() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
        ckt
    }

    #[test]
    fn dense_and_sparse_agree() {
        let ckt = rc();
        let x = vec![1.0, 0.3, -7e-4];
        let asm = ckt.assemble(&x, 0.0);
        let nn = ckt.n_nodes() - 1;
        let b = vec![1.0, -2.0, 0.5];
        let xd = FactoredJacobian::factor(SolverKind::Dense, &asm, 1.0, 1e9, 1e-12, nn)
            .unwrap()
            .solve(&b);
        let xs = FactoredJacobian::factor(SolverKind::Sparse, &asm, 1.0, 1e9, 1e-12, nn)
            .unwrap()
            .solve(&b);
        for (u, v) in xd.iter().zip(xs.iter()) {
            assert!((u - v).abs() < 1e-9 * u.abs().max(1.0));
        }
    }

    #[test]
    fn gmin_applies_to_node_rows_only() {
        let ckt = rc();
        let x = vec![0.0; 3];
        let asm = ckt.assemble(&x, 0.0);
        let nn = ckt.n_nodes() - 1;
        let m = combine(&asm, 0.0, 0.0, 1e-3, nn).to_dense();
        assert_eq!(m[(0, 0)], 1e-3);
        assert_eq!(m[(1, 1)], 1e-3);
        assert_eq!(m[(2, 2)], 0.0); // branch row untouched
    }

    /// The workspace's cached/refactored solves must match one-shot
    /// factorization bit-for-bit, for both backends and across changing
    /// states (pattern fixed, values varying).
    #[test]
    fn workspace_matches_one_shot_factorization() {
        let ckt = rc();
        let nn = ckt.n_nodes() - 1;
        let b = vec![0.25, -1.5, 3.0];
        for kind in [SolverKind::Dense, SolverKind::Sparse] {
            let mut ws = JacobianWorkspace::new(kind);
            for trial in 0..4 {
                let x = vec![1.0 + trial as f64, 0.3 * trial as f64, -1e-4];
                let asm = ckt.assemble(&x, 0.0);
                let one_shot = FactoredJacobian::factor(kind, &asm, 1.0, 1e9, 1e-12, nn)
                    .unwrap()
                    .solve(&b);
                let cached = ws.factor(&asm, 1.0, 1e9, 1e-12, nn).unwrap().solve(&b);
                for i in 0..b.len() {
                    assert!(
                        cached[i].to_bits() == one_shot[i].to_bits(),
                        "{kind:?} trial {trial} cached row {i}: {} vs {}",
                        cached[i],
                        one_shot[i]
                    );
                }
            }
        }
    }

    #[test]
    fn combine_into_refills_in_place() {
        let ckt = rc();
        let nn = ckt.n_nodes() - 1;
        let mut stage = CombineStage::new();
        for trial in 0..3 {
            let x = vec![0.1 * trial as f64, 0.2, -1e-3];
            let asm = ckt.assemble(&x, 0.0);
            let staged = stage.combine(&asm, 1.0, 1e9, 1e-12, nn);
            let expect = combine(&asm, 1.0, 1e9, 1e-12, nn);
            assert_eq!(staged, &expect, "trial {trial}");
        }
    }

    /// A CMOS inverter driving a load capacitor: its MOSFET stamps make
    /// both `G` and `C` depend on the state.
    fn inverter() -> (Circuit, DeviceId) {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("VDD", vdd, NodeId::GROUND, Waveform::Dc(1.2));
        ckt.add_vsource("VIN", inp, NodeId::GROUND, Waveform::Dc(0.6));
        let mp = ckt.add_mosfet(
            "MP",
            out,
            inp,
            vdd,
            MosType::Pmos,
            MosModel::pmos_013(),
            2e-6,
            0.13e-6,
        );
        ckt.add_mosfet(
            "MN",
            out,
            inp,
            NodeId::GROUND,
            MosType::Nmos,
            MosModel::nmos_013(),
            1e-6,
            0.13e-6,
        );
        ckt.add_capacitor("CL", out, NodeId::GROUND, 10e-15);
        (ckt, mp)
    }

    /// Sets to 0.0 the `G` stamps of one off-diagonal coordinate that `C`
    /// does not stamp, and returns that coordinate.
    fn zero_a_g_only_slot(asm: &mut Assembly) -> (usize, usize) {
        let in_c = |rc| asm.c.iter().any(|&(r, c, _)| (r, c) == rc);
        let at = asm
            .g
            .iter()
            .map(|&(r, c, _)| (r, c))
            .find(|&(r, c)| r != c && !in_c((r, c)))
            .unwrap();
        let mut g = Triplets::new(asm.n, asm.n);
        for &(r, c, v) in asm.g.iter() {
            g.push(r, c, if (r, c) == at { 0.0 } else { v });
        }
        asm.g = g;
        at
    }

    /// Dense images of two matrices, compared bitwise.
    fn assert_dense_bits_eq(got: &Csc, want: &Csc, what: &str) {
        let (g, w) = (got.to_dense(), want.to_dense());
        for (k, (a, b)) in g.as_slice().iter().zip(w.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: entry {k}: {a:e} vs {b:e}"
            );
        }
    }

    /// The stage alternates a `G`-free combination (a backward-Euler `B`)
    /// with a `G`-bearing one (a trapezoidal `B`) over the assemblies of a
    /// nonlinear circuit. Every staged matrix equals a fresh `combine`
    /// bitwise and densely, and each combination builds its layout once.
    #[test]
    fn slot_refill_matches_fresh_combine_without_rebuilds() {
        let (ckt, _) = inverter();
        let nn = ckt.n_nodes() - 1;
        let (h, gmin) = (1e-11, 1e-12);
        let mut stage = CombineStage::new();
        let mut built = [0usize; 2];
        for trial in 0..6 {
            let vout = 0.2 * trial as f64;
            let x = vec![1.2, 0.55 + 0.02 * trial as f64, vout, -1e-4, 1e-5];
            let mut asm = ckt.assemble(&x, 0.0);
            // On odd trials a slot stamped by G alone holds only zeros: under
            // the trapezoidal weight −½ it sums to −0.0, a sign the refill
            // must keep as a fresh build does.
            let zeroed = (trial % 2 == 1).then(|| zero_a_g_only_slot(&mut asm));
            for (combo, theta) in [1.0, 0.5].into_iter().enumerate() {
                let (ag, ac, gm) = (-(1.0 - theta), 1.0 / h, -(1.0 - theta) * gmin);
                if stage.stage(&asm, ag, ac, gm, nn) == Staged::Built {
                    built[combo] += 1;
                }
                let fresh = combine(&asm, ag, ac, gm, nn);
                if let (Some((r, c)), 0.5) = (zeroed, theta) {
                    assert_eq!(fresh.get(r, c).to_bits(), (-0.0f64).to_bits());
                }
                let staged = stage.staged().unwrap();
                assert_dense_bits_eq(staged, &fresh, &format!("trial {trial} θ={theta}"));
                // The BE layout holds C's pattern alone: no stale G zeros.
                assert_eq!(staged.nnz(), fresh.nnz(), "trial {trial} θ={theta}");
                assert_eq!(stage.combine(&asm, ag, ac, gm, nn), &fresh);
            }
        }
        assert_eq!(built, [1, 1], "one layout build per combination");
    }

    /// A value-only revaluation keeps the stamp sequence, so a stage built
    /// on the original circuit refills from the revalued one without a
    /// rebuild, and the refill equals a fresh build.
    #[test]
    fn revalued_circuit_refills_the_staged_layout() {
        let (mut ckt, mp) = inverter();
        let nn = ckt.n_nodes() - 1;
        let x = vec![1.2, 0.6, 0.5, -1e-4, 1e-5];
        let mut stage = CombineStage::new();
        let asm = ckt.assemble(&x, 0.0);
        assert_eq!(stage.stage(&asm, 0.5, 1e11, 1e-12, nn), Staged::Built);
        ckt.revalue(&[CircuitOverride::MosWidth {
            device: mp,
            width: 3e-6,
        }])
        .unwrap();
        let asm = ckt.assemble(&x, 0.0);
        assert_eq!(stage.stage(&asm, 0.5, 1e11, 1e-12, nn), Staged::Refilled);
        let fresh = combine(&asm, 0.5, 1e11, 1e-12, nn);
        assert_dense_bits_eq(stage.staged().unwrap(), &fresh, "revalued");
    }

    #[test]
    fn solve_multi_matches_per_column_for_both_backends() {
        let ckt = rc();
        let nn = ckt.n_nodes() - 1;
        let x = vec![1.0, 0.5, -2e-4];
        let asm = ckt.assemble(&x, 0.0);
        let n = asm.n;
        let n_rhs = 5;
        for kind in [SolverKind::Dense, SolverKind::Sparse] {
            let fac = FactoredJacobian::factor(kind, &asm, 1.0, 1e9, 1e-12, nn).unwrap();
            // RHS-interleaved layout: block[i * n_rhs + k].
            let mut block: Vec<f64> = (0..n * n_rhs)
                .map(|i| ((i * 7 % 11) as f64) * 0.4 - 1.0)
                .collect();
            let per_col: Vec<Vec<f64>> = (0..n_rhs)
                .map(|k| {
                    let b: Vec<f64> = (0..n).map(|i| block[i * n_rhs + k]).collect();
                    fac.solve(&b)
                })
                .collect();
            let mut scratch = vec![0.0; lanes_scratch_len(n, n_rhs)];
            fac.solve_multi_lanes(&mut block, n_rhs, &mut scratch);
            for k in 0..n_rhs {
                for i in 0..n {
                    assert!(
                        block[i * n_rhs + k].to_bits() == per_col[k][i].to_bits(),
                        "{kind:?} rhs {k} row {i}"
                    );
                }
            }
        }
    }
}
