//! Compile-time lane blocks: the one triangular-solve shape of the
//! workspace.
//!
//! Each factorization ([`crate::dense::Lu`], [`crate::sparse::SparseLu`])
//! has exactly one triangular-solve kernel, `solve_arr::<N>`: a block of
//! `N` right-hand sides is a `[[f64; N]]` slice, and every factor entry
//! becomes a fixed-`N` axpy the compiler fully unrolls into straight-line
//! SIMD. The single solve `solve_into` is the width-1 case, and
//! [`solve_lanes_dispatch`] decomposes an arbitrary `n_rhs` into lane groups
//! of the supported widths ([`LANE_WIDTHS`]).
//!
//! A lane's operation sequence does not depend on `N` or on which lanes
//! share its group, so multi-RHS solves are **bit-for-bit identical per
//! RHS** to `solve_into` — signed zeros included — the property every
//! `max_abs_diff == 0` bench gate relies on.

/// Lane widths with a dedicated monomorphized kernel, widest first. The
/// powers of two map onto whole SIMD registers and let the dispatcher
/// greedily decompose any width; 40 additionally gets an exact kernel
/// because it is the logic-path sweep width — the repo's canonical
/// wide-batch workload — and an exact-width match solves the block in a
/// single pass with no staging copies.
pub const LANE_WIDTHS: [usize; 7] = [40, 32, 16, 8, 4, 2, 1];

/// Reinterprets a flat scalar slice as a slice of `N`-wide lane blocks.
///
/// `[f64; N]` has the same alignment as `f64` and size `N · size_of::<f64>()`, so
/// a slice of `len / N` arrays covers exactly the same memory as the flat
/// slice — the cast is purely a type-level regrouping.
///
/// # Panics
///
/// Panics if `s.len()` is not a multiple of `N`, or if `N == 0`.
#[inline]
pub fn as_lane_blocks_mut<const N: usize>(s: &mut [f64]) -> &mut [[f64; N]] {
    assert!(N > 0, "lane width must be nonzero");
    assert_eq!(s.len() % N, 0, "slice length not a multiple of lane width");
    let blocks = s.len() / N;
    // SAFETY: `[f64; N]` is layout-identical to `N` consecutive `f64`s with the
    // alignment of `f64`, the element count is exact (checked above), and the
    // returned borrow has the same lifetime and mutability as the input, so
    // no aliasing or out-of-bounds access is possible.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<[f64; N]>(), blocks) }
}

/// A factorization that can solve an `N`-lane RHS block in place.
///
/// Implemented by [`crate::dense::Lu`] and [`crate::sparse::SparseLu`]; the
/// shared dispatcher [`solve_lanes_dispatch`] drives it so the lane-group
/// decomposition logic exists once.
pub trait LaneSolver {
    /// Solves `A·X = B` for an `N`-lane block in place: `block[i]` holds row
    /// `i` of all `N` right-hand sides and is overwritten with the
    /// solutions; `scratch` is an equally sized workspace.
    fn solve_lane<const N: usize>(&self, block: &mut [[f64; N]], scratch: &mut [[f64; N]]);
}

/// Scratch length required by [`solve_lanes_dispatch`] for an `n × n_rhs`
/// interleaved block.
///
/// When `n_rhs` is itself a supported lane width the block is solved in
/// place and one `n·n_rhs` workspace suffices; otherwise the dispatcher
/// additionally stages each lane group contiguously, which needs a second
/// `n·n_rhs` region.
#[inline]
pub fn lanes_scratch_len(n: usize, n_rhs: usize) -> usize {
    if LANE_WIDTHS.contains(&n_rhs) {
        n * n_rhs
    } else {
        2 * n * n_rhs
    }
}

/// Solves an RHS-interleaved block (`block[i·n_rhs + k]` is row `i` of RHS
/// `k`) by decomposing it into compile-time lane groups and calling the
/// solver's [`LaneSolver::solve_lane`] kernels, widest group first.
///
/// Per-RHS results are bit-for-bit identical to solving each RHS alone: a
/// lane group runs the same kernel as the width-1 `solve_into`, and the
/// gather/scatter staging only moves values.
///
/// # Panics
///
/// Panics if `block.len() != n * n_rhs` or
/// `scratch.len() < lanes_scratch_len(n, n_rhs)`.
pub fn solve_lanes_dispatch<S: LaneSolver>(
    solver: &S,
    n: usize,
    block: &mut [f64],
    n_rhs: usize,
    scratch: &mut [f64],
) {
    assert_eq!(block.len(), n * n_rhs, "block length mismatch");
    assert!(
        scratch.len() >= lanes_scratch_len(n, n_rhs),
        "lane scratch too short: {} < {}",
        scratch.len(),
        lanes_scratch_len(n, n_rhs)
    );
    if n_rhs == 0 {
        return;
    }
    // Exact-width fast path: reinterpret the interleaved block in place, no
    // staging copies at all.
    match n_rhs {
        1 => return solve_exact::<S, 1>(solver, block, scratch),
        2 => return solve_exact::<S, 2>(solver, block, scratch),
        4 => return solve_exact::<S, 4>(solver, block, scratch),
        8 => return solve_exact::<S, 8>(solver, block, scratch),
        16 => return solve_exact::<S, 16>(solver, block, scratch),
        32 => return solve_exact::<S, 32>(solver, block, scratch),
        40 => return solve_exact::<S, 40>(solver, block, scratch),
        _ => {}
    }
    // General path: greedy lane groups, each gathered into contiguous
    // storage, solved, and scattered back. The gather/scatter is O(n·N) next
    // to the O(factor-nnz·N) solve.
    let (gather, work) = scratch.split_at_mut(n * n_rhs);
    let mut k0 = 0;
    while k0 < n_rhs {
        let rem = n_rhs - k0;
        let width = LANE_WIDTHS.iter().copied().find(|&w| w <= rem).unwrap_or(1);
        match width {
            40 => solve_group::<S, 40>(solver, n, block, n_rhs, k0, gather, work),
            32 => solve_group::<S, 32>(solver, n, block, n_rhs, k0, gather, work),
            16 => solve_group::<S, 16>(solver, n, block, n_rhs, k0, gather, work),
            8 => solve_group::<S, 8>(solver, n, block, n_rhs, k0, gather, work),
            4 => solve_group::<S, 4>(solver, n, block, n_rhs, k0, gather, work),
            2 => solve_group::<S, 2>(solver, n, block, n_rhs, k0, gather, work),
            _ => solve_group::<S, 1>(solver, n, block, n_rhs, k0, gather, work),
        }
        k0 += width;
    }
}

#[inline]
fn solve_exact<S: LaneSolver, const N: usize>(solver: &S, block: &mut [f64], scratch: &mut [f64]) {
    let blocks = block.len();
    solver.solve_lane::<N>(
        as_lane_blocks_mut(block),
        as_lane_blocks_mut(&mut scratch[..blocks]),
    );
}

#[inline]
fn solve_group<S: LaneSolver, const N: usize>(
    solver: &S,
    n: usize,
    block: &mut [f64],
    n_rhs: usize,
    k0: usize,
    gather: &mut [f64],
    work: &mut [f64],
) {
    let g = as_lane_blocks_mut::<N>(&mut gather[..n * N]);
    let w = as_lane_blocks_mut::<N>(&mut work[..n * N]);
    for (i, gi) in g.iter_mut().enumerate() {
        gi.copy_from_slice(&block[i * n_rhs + k0..i * n_rhs + k0 + N]);
    }
    solver.solve_lane::<N>(g, w);
    for (i, gi) in g.iter().enumerate() {
        block[i * n_rhs + k0..i * n_rhs + k0 + N].copy_from_slice(gi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_blocks_roundtrip() {
        let mut v: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let blocks = as_lane_blocks_mut::<4>(&mut v);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[1], [4.0, 5.0, 6.0, 7.0]);
        blocks[2][3] = -1.0;
        assert_eq!(v[11], -1.0);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn lane_blocks_reject_ragged() {
        let mut v = vec![0.0f64; 10];
        let _ = as_lane_blocks_mut::<4>(&mut v);
    }

    /// Bits of `solve`, `solve_into` and every lane of `solve_multi_lanes`
    /// (widths 1 and 3) for one right-hand side.
    fn all_solve_bits(
        n: usize,
        b: &[f64],
        solve: &dyn Fn(&[f64]) -> Vec<f64>,
        solve_into: &dyn Fn(&[f64], &mut [f64], &mut [f64]),
        lanes: &dyn Fn(&mut [f64], usize, &mut [f64]),
    ) -> Vec<Vec<u64>> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut out = vec![bits(&solve(b))];
        let mut x = vec![0.0; n];
        solve_into(b, &mut x, &mut vec![0.0; n]);
        out.push(bits(&x));
        for width in [1usize, 3] {
            let mut block: Vec<f64> = b.iter().flat_map(|&v| vec![v; width]).collect();
            lanes(
                &mut block,
                width,
                &mut vec![0.0; lanes_scratch_len(n, width)],
            );
            for k in 0..width {
                let lane: Vec<f64> = (0..n).map(|i| block[i * width + k]).collect();
                out.push(bits(&lane));
            }
        }
        out
    }

    /// Zero skips and signed zeros: every solve path of a factorization
    /// returns the same bits, because they all run the one lane kernel.
    #[test]
    fn single_and_lane_solves_agree_on_signed_zeros() {
        use crate::dense::DMat;
        use crate::sparse::Triplets;

        // Sparse [[2,0],[-1,1]] with b = [0, -0].
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 2.0);
        t.push(1, 0, -1.0);
        t.push(1, 1, 1.0);
        let sparse = t.to_csc().lu().unwrap();
        let got = all_solve_bits(
            2,
            &[0.0, -0.0],
            &|b| sparse.solve(b),
            &|b, o, s| sparse.solve_into(b, o, s),
            &|blk, w, s| sparse.solve_multi_lanes(blk, w, s),
        );
        for (path, bits) in got.iter().enumerate() {
            assert_eq!(bits, &got[0], "sparse solve path {path}");
        }

        // Dense I₂ with b = [-1, -0].
        let dense = DMat::identity(2).lu().unwrap();
        let got = all_solve_bits(
            2,
            &[-1.0, -0.0],
            &|b| dense.solve(b),
            &|b, o, s| dense.solve_into(b, o, s),
            &|blk, w, s| dense.solve_multi_lanes(blk, w, s),
        );
        for (path, bits) in got.iter().enumerate() {
            assert_eq!(bits, &got[0], "dense solve path {path}");
        }
        // The identity reproduces its right-hand side exactly, -0 included.
        assert_eq!(got[0], vec![(-1.0f64).to_bits(), (-0.0f64).to_bits()]);
    }

    #[test]
    fn scratch_len_contract() {
        assert_eq!(lanes_scratch_len(10, 8), 80);
        assert_eq!(lanes_scratch_len(10, 2), 20);
        assert_eq!(lanes_scratch_len(10, 5), 100);
        // 40 is an exact lane width, so it takes the in-place path.
        assert_eq!(lanes_scratch_len(10, 40), 400);
        assert_eq!(lanes_scratch_len(10, 17), 340);
    }
}
