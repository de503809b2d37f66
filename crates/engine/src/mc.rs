//! Parallel Monte-Carlo mismatch analysis — the reference method the paper
//! benchmarks against (Table II, Figs. 9/11/12).
//!
//! Each sample draws an independent Gaussian value for every registered
//! mismatch parameter (optionally through a correlation structure per paper
//! eq. 6), perturbs a clone of the circuit, and reruns the caller-provided
//! *nonlinear* measurement. The driver is deterministic for a fixed seed
//! regardless of thread count.

use crate::error::EngineError;
use crate::par::{effective_threads, map_scoped};
use std::sync::atomic::{AtomicUsize, Ordering};
use tranvar_circuit::Circuit;
use tranvar_num::rng::{standard_normal, CorrelatedNormal, Rng64};
use tranvar_num::stats::RunningStats;

/// Monte-Carlo controls.
#[derive(Clone, Debug)]
pub struct McOptions {
    /// Number of samples (the paper uses 1 000 and 10 000).
    pub n_samples: usize,
    /// RNG seed; fixed seed ⇒ fully reproducible sample set.
    pub seed: u64,
    /// Worker threads (0 = all available cores; at most one per sample, see
    /// [`crate::par::effective_threads`]).
    pub threads: usize,
    /// Optional mixing matrix realizing correlated mismatch `Y = A·X`
    /// (paper eq. 6). `None` draws independent parameters.
    pub correlation: Option<CorrelatedNormal>,
}

impl McOptions {
    /// Independent-mismatch run with `n_samples` samples and a fixed seed.
    pub fn new(n_samples: usize, seed: u64) -> Self {
        McOptions {
            n_samples,
            seed,
            threads: 0,
            correlation: None,
        }
    }
}

/// Result of a scalar Monte-Carlo run.
#[derive(Clone, Debug)]
pub struct McResult {
    /// Per-sample measurements, in sample order (failed samples omitted).
    pub samples: Vec<f64>,
    /// Accumulated moments.
    pub stats: RunningStats,
    /// Number of samples whose measurement failed (non-convergence etc.).
    pub n_failed: usize,
}

/// Result of a vector-valued Monte-Carlo run (e.g. simultaneous delays at
/// two outputs for correlation extraction, Table I).
#[derive(Clone, Debug)]
pub struct McMultiResult {
    /// Per-sample measurement vectors, in sample order (failures omitted).
    pub samples: Vec<Vec<f64>>,
    /// Per-output accumulated moments.
    pub stats: Vec<RunningStats>,
    /// Number of failed samples.
    pub n_failed: usize,
}

/// Draws the full matrix of mismatch samples up front so results do not
/// depend on the thread count: `samples[i][k]` is parameter `k` of sample
/// `i`, already scaled by σ_k.
pub fn draw_samples(ckt: &Circuit, opts: &McOptions) -> Vec<Vec<f64>> {
    let sigmas = ckt.mismatch_sigmas();
    let mut rng = Rng64::seed_from(opts.seed);
    let mut out = Vec::with_capacity(opts.n_samples);
    for _ in 0..opts.n_samples {
        let deltas: Vec<f64> = match &opts.correlation {
            None => sigmas
                .iter()
                .map(|s| s * standard_normal(&mut rng))
                .collect(),
            Some(corr) => corr.sample(&mut rng),
        };
        out.push(deltas);
    }
    out
}

/// Runs a scalar-valued Monte-Carlo analysis.
///
/// `measure` receives a perturbed clone of the circuit and must return the
/// performance metric (it typically runs a DC/transient analysis internally).
///
/// # Examples
///
/// ```
/// use tranvar_circuit::{Circuit, NodeId, Waveform};
/// use tranvar_engine::mc::{monte_carlo, McOptions};
/// use tranvar_engine::dc::{dc_operating_point, DcOptions};
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let b = ckt.node("b");
/// ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
/// let r1 = ckt.add_resistor("R1", a, b, 1e3);
/// ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
/// ckt.annotate_resistor_mismatch(r1, 10.0);
/// let res = monte_carlo(&ckt, &McOptions::new(200, 42), |c| {
///     let x = dc_operating_point(c, &DcOptions::default())?;
///     Ok(c.voltage(&x, c.find_node("b")?))
/// });
/// assert_eq!(res.samples.len(), 200);
/// assert!((res.stats.mean() - 0.5).abs() < 2e-3);
/// ```
pub fn monte_carlo<F>(ckt: &Circuit, opts: &McOptions, measure: F) -> McResult
where
    F: Fn(&Circuit) -> Result<f64, EngineError> + Sync,
{
    let multi = monte_carlo_multi(ckt, opts, |c| measure(c).map(|v| vec![v]));
    let mut stats = RunningStats::new();
    let samples: Vec<f64> = multi.samples.iter().map(|v| v[0]).collect();
    for &s in &samples {
        stats.push(s);
    }
    McResult {
        samples,
        stats,
        n_failed: multi.n_failed,
    }
}

/// Runs a vector-valued Monte-Carlo analysis (see [`monte_carlo`]).
pub fn monte_carlo_multi<F>(ckt: &Circuit, opts: &McOptions, measure: F) -> McMultiResult
where
    F: Fn(&Circuit) -> Result<Vec<f64>, EngineError> + Sync,
{
    let deltas = draw_samples(ckt, opts);
    let n = deltas.len();
    // Workers steal samples through one shared counter; `map_scoped` runs a
    // lone worker inline and re-raises a worker's panic with its payload.
    let next = AtomicUsize::new(0);
    let workers = vec![(); effective_threads(opts.threads, n)];
    let per_thread = map_scoped(workers, |()| {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let mut c = ckt.clone();
            c.apply_mismatch(&deltas[i]);
            local.push((i, measure(&c).ok()));
        }
        local
    });

    let mut slots: Vec<Option<Vec<f64>>> = vec![None; n];
    for local in per_thread {
        for (i, r) in local {
            slots[i] = r;
        }
    }
    let mut samples = Vec::with_capacity(n);
    let mut n_failed = 0;
    for slot in slots {
        match slot {
            Some(v) => samples.push(v),
            None => n_failed += 1,
        }
    }
    let n_outputs = samples.first().map(|v| v.len()).unwrap_or(0);
    let mut stats = vec![RunningStats::new(); n_outputs];
    for s in &samples {
        for (j, v) in s.iter().enumerate() {
            stats[j].push(*v);
        }
    }
    McMultiResult {
        samples,
        stats,
        n_failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};
    use tranvar_circuit::{NodeId, Waveform};

    fn divider_with_mismatch() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        let r1 = ckt.add_resistor("R1", a, b, 1e3);
        let r2 = ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
        ckt.annotate_resistor_mismatch(r1, 10.0);
        ckt.annotate_resistor_mismatch(r2, 10.0);
        ckt
    }

    fn measure_b(c: &Circuit) -> Result<f64, EngineError> {
        let x = dc_operating_point(c, &DcOptions::default())?;
        Ok(c.voltage(&x, c.find_node("b")?))
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let ckt = divider_with_mismatch();
        let mut o1 = McOptions::new(64, 7);
        o1.threads = 1;
        let mut o4 = McOptions::new(64, 7);
        o4.threads = 4;
        let r1 = monte_carlo(&ckt, &o1, measure_b);
        let r4 = monte_carlo(&ckt, &o4, measure_b);
        assert_eq!(r1.samples, r4.samples);
    }

    #[test]
    fn worker_panic_keeps_its_message() {
        let ckt = divider_with_mismatch();
        let mut opts = McOptions::new(3, 5);
        opts.threads = 8;
        // Exactly one sample (the first one measured) panics.
        let calls = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            monte_carlo(&ckt, &opts, |c| {
                if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                    std::panic::panic_any(String::from("measure failed on purpose"));
                }
                measure_b(c)
            })
        });
        let payload = caught.expect_err("the panicking sample must propagate");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("measure failed on purpose")
        );
    }

    #[test]
    fn divider_sigma_matches_linear_prediction() {
        let ckt = divider_with_mismatch();
        let res = monte_carlo(&ckt, &McOptions::new(4000, 11), measure_b);
        assert_eq!(res.n_failed, 0);
        // Linear: σ² = (|∂v/∂R1|·10)² + (|∂v/∂R2|·10)², |∂v/∂R| = 0.25 mV/Ω
        let s_lin = (2.0f64).sqrt() * 0.25e-3 * 10.0;
        let rel = (res.stats.std_dev() - s_lin) / s_lin;
        assert!(
            rel.abs() < 0.06,
            "sigma {} vs {}",
            res.stats.std_dev(),
            s_lin
        );
        assert!((res.stats.mean() - 0.5).abs() < 1e-3);
    }

    #[test]
    fn multi_measurement_correlation() {
        // Measure (vb, -vb): perfectly anticorrelated.
        let ckt = divider_with_mismatch();
        let res = monte_carlo_multi(&ckt, &McOptions::new(500, 3), |c| {
            let v = measure_b(c)?;
            Ok(vec![v, -v])
        });
        let a: Vec<f64> = res.samples.iter().map(|s| s[0]).collect();
        let b: Vec<f64> = res.samples.iter().map(|s| s[1]).collect();
        let rho = tranvar_num::stats::pearson_correlation(&a, &b);
        assert!((rho + 1.0).abs() < 1e-12);
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let ckt = divider_with_mismatch();
        let res = monte_carlo(&ckt, &McOptions::new(10, 5), |c| {
            let v = measure_b(c)?;
            if v > 0.5 {
                Err(EngineError::Measurement("synthetic".into()))
            } else {
                Ok(v)
            }
        });
        assert_eq!(res.samples.len() + res.n_failed, 10);
        assert!(res.n_failed > 0);
    }
}
