//! What every workload shares: its arguments, its report and the
//! process-level measurements.

use crate::stats::Latency;
use std::path::PathBuf;
use std::time::Instant;
use tranvar::core::PssConfig;
use tranvar::engine::dc::NewtonOptions;
use tranvar::engine::{BudgetLimits, SolveBudget};

/// Times a workload repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// The op classes every workload reports a gated tail latency for, as
/// `op_<class>_ms_tail`. Each workload names what
/// its classes are (`perfbench/README.md`), so a change that speeds one
/// kind of op and slows another moves a gated metric instead of cancelling
/// out in a pooled figure.
pub const CLASSES: [&str; 3] = ["a", "b", "c"];

/// Command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_dir: PathBuf,
}

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports: the op accounting and the metrics of the final JSON
/// line (end-to-end or per-layer).
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed (error, non-200, wrong output).
    pub failed: u64,
    /// Metrics for the final JSON line.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric and prints it by name with its unit.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("metric {name} = {value} {unit}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// Reports each op class's latency, with the tail taken at most at
    /// `max_pct`: printed under the workload's own names as
    /// `<prefix>_{p50,tail}.<name>`, and the tail as the gated
    /// `op_<class>_ms_tail`. Returns the summaries.
    pub fn classes(
        &mut self,
        prefix: &str,
        names: [&str; 3],
        lat: &[Vec<f64>],
        max_pct: f64,
    ) -> Vec<Latency> {
        let mut out = Vec::new();
        for ((class, name), ms) in CLASSES.iter().zip(names).zip(lat) {
            let l = Latency::of(ms, max_pct);
            println!("op {class} = {name}: {}", l.describe());
            println!("metric {prefix}_p50.{name} = {} ms", l.p50);
            println!(
                "metric {prefix}_tail.{name} = {} ms (p{})",
                l.tail, l.tail_pct
            );
            self.metric(format!("op_{class}_ms_tail"), l.tail, "ms");
            out.push(l);
        }
        out
    }

    /// Prints `failed_share`: failed ops over attempted ops.
    pub fn print_failed_share(&self) {
        println!(
            "failed_share = {} ({} of {})",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
    }

    /// Counts one op and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.attempted > 0 && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number (non-finite values become `null`, which the consumer
/// rejects, rather than invalid JSON).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// Worker/thread budget: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last result with
/// the median set-up time (s).
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let last = last.ok_or("set-up never ran")?;
    Ok((last, crate::stats::median(&times)))
}

/// The Newton options a periodic analysis runs with.
pub fn newton_of(config: &PssConfig) -> &NewtonOptions {
    match config {
        PssConfig::Driven { opts, .. } => &opts.newton,
        PssConfig::Autonomous { opts, .. } => &opts.pss.newton,
    }
}

/// A copy of `config` whose solve charges a fresh counting budget with
/// limits out of reach: the solve does the same arithmetic, and the
/// budget reports the Newton iterations and factorizations it spent.
pub fn counting(config: &PssConfig) -> (PssConfig, SolveBudget) {
    let budget = SolveBudget::new(
        BudgetLimits::default()
            .max_newton_iters(u64::MAX)
            .max_factorizations(u64::MAX),
    );
    let mut c = config.clone();
    match &mut c {
        PssConfig::Driven { opts, .. } => opts.newton.budget = budget.clone(),
        PssConfig::Autonomous { opts, .. } => opts.pss.newton.budget = budget.clone(),
    }
    (c, budget)
}

/// The σ of every report, as exact bits (the bit-identity oracle).
pub fn sigma_bits(reports: &[tranvar::core::VariationReport]) -> Vec<u64> {
    reports.iter().map(|r| r.sigma().to_bits()).collect()
}
