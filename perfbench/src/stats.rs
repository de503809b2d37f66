//! Order statistics over latency samples.

/// Sorted copy of a sample set.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a sorted, non-empty set.
fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median (NaN for an empty set).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    quantile_sorted(&sorted(samples), 0.5)
}

/// Mean (NaN for an empty set).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Median of the pairwise differences `traced[i] − plain[i]`: the cost of
/// tracing, with each traced op compared to the untraced op run next to it
/// on the same input.
pub fn paired_overhead(traced: &[f64], plain: &[f64]) -> f64 {
    let d: Vec<f64> = traced.iter().zip(plain).map(|(t, p)| t - p).collect();
    median(&d)
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The tail of a sample set: the highest of [`TAIL_PERCENTILES`], up to
/// `max_pct`, that leaves at least ten samples above it. Returns
/// `(percentile, value)`; fewer than forty samples fall back to the median.
///
/// A workload caps the percentile well below what its usual sample count
/// allows, so the percentile does not change between runs whose counts
/// differ because the host ran faster or slower.
pub fn tail(samples: &[f64], max_pct: f64) -> (f64, f64) {
    if samples.is_empty() {
        return (50.0, f64::NAN);
    }
    let s = sorted(samples);
    let n = s.len() as f64;
    let p = TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|&p| p <= max_pct && n * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0);
    (p, quantile_sorted(&s, p / 100.0))
}

/// Summary of one latency stream, in milliseconds.
#[derive(Clone, Debug)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Tail percentile (see [`tail`]).
    pub tail_pct: f64,
    /// Value at the tail percentile.
    pub tail: f64,
}

impl Latency {
    /// Summarizes a stream of millisecond samples, with the tail taken at
    /// most at `max_pct`.
    pub fn of(ms: &[f64], max_pct: f64) -> Self {
        let (tail_pct, tail) = tail(ms, max_pct);
        Latency {
            n: ms.len(),
            p50: median(ms),
            tail_pct,
            tail,
        }
    }

    /// `"p50 1.234 ms, p95 2.345 ms (n=300)"`.
    pub fn describe(&self) -> String {
        format!(
            "p50 {:.3} ms, p{} {:.3} ms (n={})",
            self.p50, self.tail_pct, self.tail, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: p95 leaves 10 above, p99 only 2.
        assert_eq!(tail(&xs, 100.0).0, 95.0);
        assert_eq!(tail(&xs, 90.0).0, 90.0);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs, 100.0).0, 75.0);
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&xs, 100.0).0, 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
