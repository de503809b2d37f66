//! # tranvar-bench
//!
//! Reproduction harness for every table and figure in the paper's
//! evaluation, plus shared helpers (timing, table printing, CLI knobs).
//!
//! Binaries (each prints the paper-style rows to stdout):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table I — delay-correlation of shared vs disjoint paths |
//! | `table2` | Table II — σ accuracy + runtime vs Monte-Carlo |
//! | `fig8`  | Fig. 8 — statistical waveform (PSS ± σ(t)) |
//! | `fig9`  | Fig. 9 — comparator offset histogram vs predicted PDF |
//! | `fig10` | Fig. 10 — per-transistor width sensitivity of offset σ² |
//! | `fig11` | Fig. 11 — σ_f error & skewness vs mismatch amount |
//! | `fig12` | Fig. 12 — ring-osc frequency histogram at large mismatch |
//! | `fig13` | Fig. 13 — non-Gaussian mismatch via Gaussian mixture |
//!
//! Pass `--full` for paper-scale Monte-Carlo sample counts (slow); the
//! default sizes finish in seconds-to-minutes and carry proportionally wider
//! confidence intervals (reported alongside).
//!
//! The [`reference`](mod@reference) module keeps the runtime-width multi-RHS triangular
//! solves that the lane kernels of `tranvar-num` are timed and checked
//! against.

use std::time::Instant;

pub mod reference;

/// Wall-clock timing of a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Minimal self-contained benchmark runner (the workspace carries no
/// external bench harness): warms up once, then repeats the closure until
/// both `min_iters` iterations and `min_time_s` of measurement have
/// accumulated, and returns the per-iteration wall times.
pub fn bench_times(min_iters: usize, min_time_s: f64, mut f: impl FnMut()) -> Vec<f64> {
    f(); // warm-up (first-touch allocation, caches, symbolic analysis)
    let mut times = Vec::new();
    let mut total = 0.0;
    while times.len() < min_iters || total < min_time_s {
        let (_, t) = timed(&mut f);
        times.push(t);
        total += t;
    }
    times
}

/// Median of a sample set (empty input returns NaN).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// Runs a named benchmark with the default budget and prints
/// `name  median  (n iters)`; returns the median seconds.
pub fn bench_report(name: &str, f: impl FnMut()) -> f64 {
    let times = bench_times(5, 1.0, f);
    let med = median(&times);
    println!("{name:<40} {:>12}   ({} iters)", fmt_time(med), times.len());
    med
}

/// `true` if `--full` was passed (paper-scale sample counts).
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Picks a sample count: `quick` by default, `full` with `--full`.
pub fn samples(quick: usize, full: usize) -> usize {
    if full_mode() {
        full
    } else {
        quick
    }
}

/// Prints a histogram against a Gaussian PDF as aligned text columns
/// (`center  density  gaussian`), the data behind Figs. 9 and 12.
pub fn print_histogram_vs_pdf(
    hist: &tranvar_num::stats::Histogram,
    mean: f64,
    sigma: f64,
    unit_scale: f64,
    unit: &str,
) {
    println!(
        "{:>12} {:>12} {:>12}",
        format!("center[{unit}]"),
        "mc-density",
        "pn-pdf"
    );
    for (center, density) in hist.densities() {
        let pdf = tranvar_num::stats::gaussian_pdf(center, mean, sigma);
        println!(
            "{:>12.4} {:>12.5} {:>12.5}",
            center * unit_scale,
            density / unit_scale,
            pdf / unit_scale
        );
    }
}

/// Formats seconds in engineering style.
pub fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_something() {
        let (v, t) = timed(|| (0..10_000).sum::<u64>());
        assert_eq!(v, 49995000);
        assert!(t >= 0.0);
    }

    #[test]
    fn fmt_time_ranges() {
        assert!(fmt_time(2.5).ends_with(" s"));
        assert!(fmt_time(2.5e-3).ends_with(" ms"));
        assert!(fmt_time(2.5e-6).ends_with(" us"));
    }
}
