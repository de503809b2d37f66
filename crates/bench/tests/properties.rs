//! Property test of the lane triangular-solve kernels against the
//! runtime-width reference solves in [`tranvar_bench::reference`], on seeded
//! random systems (the workspace has no external property-testing
//! dependency; failures report the case index so the draw can be replayed).

use tranvar_bench::reference::{dense_solve_interleaved, sparse_solve_interleaved};
use tranvar_num::rng::Rng64;
use tranvar_num::{lanes_scratch_len, Csc, Triplets};

/// Deterministic random sparse-ish test matrix with a dominant diagonal.
fn random_system(rng: &mut Rng64, n: usize, density: f64) -> Csc {
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        for j in 0..n {
            let r = 2.0 * rng.uniform() - 1.0;
            if i == j {
                t.push(i, j, 4.0 + r);
            } else if r.abs() < density {
                t.push(i, j, r);
            }
        }
    }
    t.to_csc()
}

/// Asserts two interleaved blocks are bitwise equal.
fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(g.to_bits() == w.to_bits(), "{what} idx {i}: {g:e} vs {w:e}");
    }
}

/// Solves each RHS of an interleaved block on its own through a single
/// `solve_into`, returning the interleaved solutions.
fn per_rhs(
    n: usize,
    n_rhs: usize,
    block: &[f64],
    solve_into: impl Fn(&[f64], &mut [f64], &mut [f64]),
) -> Vec<f64> {
    let mut solved = vec![0.0; n * n_rhs];
    let (mut b, mut x, mut scratch) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    for k in 0..n_rhs {
        for r in 0..n {
            b[r] = block[r * n_rhs + k];
        }
        solve_into(&b, &mut x, &mut scratch);
        for r in 0..n {
            solved[r * n_rhs + k] = x[r];
        }
    }
    solved
}

/// Lane-kernel dispatch is bit-for-bit identical to per-RHS `solve_into` and
/// to the runtime-width reference solve, across exact lane widths,
/// remainder mixes, and both factor backends (natural and Markowitz order).
#[test]
fn lane_solves_bitwise_match_solve_into() {
    let mut rng = Rng64::seed_from(0x1A5E5);
    for case in 0..8 {
        let n = 6 + (rng.next_u64() % 30) as usize;
        let csc = random_system(&mut rng, n, 0.3);
        let dense_lu = csc.to_dense().lu().unwrap();
        let sparse_lu = csc.lu().unwrap();
        let ordered_lu = csc.lu_markowitz().unwrap();
        for n_rhs in [1usize, 2, 3, 4, 5, 8, 17] {
            let block0: Vec<f64> = (0..n * n_rhs).map(|_| 2.0 * rng.uniform() - 1.0).collect();
            let dref = per_rhs(n, n_rhs, &block0, |b, o, s| dense_lu.solve_into(b, o, s));
            let sref = per_rhs(n, n_rhs, &block0, |b, o, s| sparse_lu.solve_into(b, o, s));
            let oref = per_rhs(n, n_rhs, &block0, |b, o, s| ordered_lu.solve_into(b, o, s));
            let mut scratch = vec![0.0; lanes_scratch_len(n, n_rhs)];
            let mut iscr = vec![0.0; n * n_rhs];
            let what = |backend: &str, oracle: &str| {
                format!("case {case} {backend} lanes vs {oracle} n_rhs={n_rhs}")
            };

            let mut blk = block0.clone();
            dense_lu.solve_multi_lanes(&mut blk, n_rhs, &mut scratch);
            let mut ilv = block0.clone();
            dense_solve_interleaved(&dense_lu, &mut ilv, n_rhs, &mut iscr);
            assert_bits(&blk, &dref, &what("dense", "solve_into"));
            assert_bits(&blk, &ilv, &what("dense", "reference"));

            for (name, lu, lu_ref) in [
                ("sparse", &sparse_lu, &sref),
                ("ordered", &ordered_lu, &oref),
            ] {
                let mut blk = block0.clone();
                lu.solve_multi_lanes(&mut blk, n_rhs, &mut scratch);
                let mut ilv = block0.clone();
                sparse_solve_interleaved(lu, &mut ilv, n_rhs, &mut iscr);
                assert_bits(&blk, lu_ref, &what(name, "solve_into"));
                assert_bits(&blk, &ilv, &what(name, "reference"));
            }
        }
    }
}
