//! Self-contained pseudo-random number generation: a seedable xoshiro256++
//! uniform generator plus normal (Gaussian) and correlated-normal sampling.
//!
//! Monte-Carlo mismatch analysis draws device-parameter offsets from
//! `N(0, σ²)`; correlated draws use a Cholesky factor per eq. (6) of the
//! paper. The workspace avoids external crates, so the generator (xoshiro256++
//! seeded through SplitMix64) and the Box–Muller transform both live here.

use crate::cholesky::cholesky;
use crate::dense::DMat;
use crate::error::NumError;

/// A small, fast, seedable uniform generator (xoshiro256++).
///
/// Deterministic for a fixed seed on every platform, which is what makes the
/// Monte-Carlo driver reproducible regardless of thread count.
///
/// # Examples
///
/// ```
/// use tranvar_num::rng::Rng64;
/// let mut a = Rng64::seed_from(42);
/// let mut b = Rng64::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed (SplitMix64 state expansion).
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        Rng64 {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform sample in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Draws one standard-normal sample via the Box–Muller transform.
///
/// # Examples
///
/// ```
/// use tranvar_num::rng::Rng64;
/// let mut rng = Rng64::seed_from(7);
/// let x = tranvar_num::rng::standard_normal(&mut rng);
/// assert!(x.is_finite());
/// ```
pub fn standard_normal(rng: &mut Rng64) -> f64 {
    // Box–Muller: u1 in (0,1], u2 in [0,1).
    let u1: f64 = 1.0 - rng.uniform();
    let u2: f64 = rng.uniform();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Fills a vector with independent `N(0,1)` samples.
pub fn standard_normal_vec(rng: &mut Rng64, n: usize) -> Vec<f64> {
    (0..n).map(|_| standard_normal(rng)).collect()
}

/// A sampler for correlated zero-mean Gaussian vectors with a fixed
/// covariance matrix, realized as `y = L·x` with `C = L·Lᵀ` (paper eq. 6).
#[derive(Clone, Debug)]
pub struct CorrelatedNormal {
    factor: DMat,
}

impl CorrelatedNormal {
    /// Builds the sampler from a covariance matrix.
    ///
    /// # Errors
    ///
    /// Returns an error if the covariance is not positive semi-definite.
    pub fn from_covariance(cov: &DMat) -> Result<Self, NumError> {
        Ok(CorrelatedNormal {
            factor: cholesky(cov, 0.0)?,
        })
    }

    /// Builds the sampler directly from a mixing matrix `A` (so samples are
    /// `A·x`, covariance `A·Aᵀ`), matching the paper's construction of
    /// correlated pseudo-noise sources.
    pub fn from_mixing(a: DMat) -> Self {
        CorrelatedNormal { factor: a }
    }

    /// Number of output variables per draw.
    pub fn dim(&self) -> usize {
        self.factor.rows()
    }

    /// Draws one correlated sample vector.
    pub fn sample(&self, rng: &mut Rng64) -> Vec<f64> {
        let x = standard_normal_vec(rng, self.factor.cols());
        self.factor.mat_vec(&x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_stream_is_reproducible() {
        let mut a = Rng64::seed_from(123);
        let mut b = Rng64::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::seed_from(124);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng64::seed_from(5);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_moments_are_right() {
        let mut rng = Rng64::seed_from(12345);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = standard_normal(&mut rng);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_tail_fraction() {
        let mut rng = Rng64::seed_from(99);
        let n = 100_000;
        let beyond_2sigma = (0..n)
            .filter(|_| standard_normal(&mut rng).abs() > 2.0)
            .count() as f64
            / n as f64;
        // True value 4.55%.
        assert!((beyond_2sigma - 0.0455).abs() < 0.005);
    }

    #[test]
    fn correlated_sampler_matches_requested_covariance() {
        let cov = DMat::from_vec(2, 2, vec![4.0, 2.4, 2.4, 9.0]); // rho = 0.4
        let sampler = CorrelatedNormal::from_covariance(&cov).unwrap();
        let mut rng = Rng64::seed_from(3);
        let n = 100_000;
        let (mut s00, mut s01, mut s11) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            let y = sampler.sample(&mut rng);
            s00 += y[0] * y[0];
            s01 += y[0] * y[1];
            s11 += y[1] * y[1];
        }
        assert!((s00 / n as f64 - 4.0).abs() < 0.15);
        assert!((s01 / n as f64 - 2.4).abs() < 0.15);
        assert!((s11 / n as f64 - 9.0).abs() < 0.3);
    }

    #[test]
    fn mixing_matrix_covariance_is_aat() {
        // A = [[1,0],[1,1]] -> C = [[1,1],[1,2]]
        let a = DMat::from_vec(2, 2, vec![1.0, 0.0, 1.0, 1.0]);
        let sampler = CorrelatedNormal::from_mixing(a);
        let mut rng = Rng64::seed_from(8);
        let n = 100_000;
        let (mut s00, mut s01, mut s11) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            let y = sampler.sample(&mut rng);
            s00 += y[0] * y[0];
            s01 += y[0] * y[1];
            s11 += y[1] * y[1];
        }
        assert!((s00 / n as f64 - 1.0).abs() < 0.05);
        assert!((s01 / n as f64 - 1.0).abs() < 0.05);
        assert!((s11 / n as f64 - 2.0).abs() < 0.08);
    }
}
