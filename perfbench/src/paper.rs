//! The paper circuits, elaborated from their golden decks, and the
//! stored Monte-Carlo reference σ every `table2` op is checked against.

use tranvar::circuit::Circuit;
use tranvar::circuits::{ArrivalOrder, LogicPath, RingOsc, StrongArm, Tech};
use tranvar::core::{MetricSpec, PssConfig};
use tranvar::engine::mc::{monte_carlo_multi, McMultiResult, McOptions};
use tranvar::netlist;
use tranvar_serve::json::{self, Json};

/// Golden deck texts (byte copies of the netlist crate's golden decks),
/// indexed like [`crate::gen::PAPER_CIRCUITS`].
pub const DECKS: [&str; 3] = [
    include_str!("../decks/strongarm.sp"),
    include_str!("../decks/logic_path.sp"),
    include_str!("../decks/ring_osc.sp"),
];

/// The stored Monte-Carlo reference (see `src/bin/mc_reference.rs`).
pub const REFERENCE_JSON: &str = include_str!("../reference.json");

/// One paper circuit ready for `core::analyze`.
#[derive(Clone, Debug)]
pub struct PaperCircuit {
    /// Short name (`strongarm`, `logic_path`, `ring_osc`).
    pub name: &'static str,
    /// The elaborated circuit.
    pub circuit: Circuit,
    /// The deck's periodic analysis.
    pub config: PssConfig,
    /// The deck's `.measure` metrics.
    pub metrics: Vec<MetricSpec>,
}

/// Elaborates one golden deck.
///
/// # Errors
///
/// A deck that fails to elaborate or has no periodic analysis.
pub fn elaborate(name: &'static str, deck: &str) -> Result<PaperCircuit, String> {
    let e = netlist::parse_and_elaborate(deck).map_err(|e| format!("{name}: {e}"))?;
    let config = e
        .analysis
        .as_ref()
        .and_then(|a| a.pss_config())
        .ok_or_else(|| format!("{name}: deck has no periodic analysis"))?;
    Ok(PaperCircuit {
        name,
        circuit: e.circuit,
        config,
        metrics: e.metrics,
    })
}

/// Elaborates all three paper circuits.
///
/// # Errors
///
/// See [`elaborate`].
pub fn circuits() -> Result<Vec<PaperCircuit>, String> {
    crate::gen::PAPER_CIRCUITS
        .iter()
        .zip(DECKS)
        .map(|(name, deck)| elaborate(name, deck))
        .collect()
}

/// A seeded Monte-Carlo run on paper circuit `c` (indexed like
/// [`crate::gen::PAPER_CIRCUITS`]). Each sample is the library's own
/// nonlinear transient measurement of the deck's metrics, in `.measure`
/// order, on a mismatch draw of the programmatic builder the golden deck
/// reproduces. Returns the builder's circuit with the result, so a caller
/// can check that the deck still matches it.
pub fn monte_carlo_paper(c: usize, opts: &McOptions) -> (Circuit, McMultiResult) {
    let tech = Tech::t013();
    match c {
        0 => {
            let sa = StrongArm::paper(&tech);
            let mc = monte_carlo_multi(&sa.circuit, opts, |x| {
                Ok(vec![sa.measure_offset_bisect(x)?])
            });
            (sa.circuit, mc)
        }
        1 => {
            let lp = LogicPath::new(&tech, ArrivalOrder::XFirst);
            let mc = monte_carlo_multi(&lp.circuit, opts, |x| lp.measure_delays_transient(x));
            (lp.circuit, mc)
        }
        _ => {
            let ring = RingOsc::paper(&tech);
            let mc = monte_carlo_multi(&ring.circuit, opts, |x| {
                Ok(vec![ring.measure_frequency_transient(x)?])
            });
            (ring.circuit, mc)
        }
    }
}

/// One stored Monte-Carlo reference row.
#[derive(Clone, Debug)]
pub struct RefRow {
    /// Circuit short name.
    pub circuit: String,
    /// Metric name (the deck's `.measure` name).
    pub metric: String,
    /// Monte-Carlo σ.
    pub sigma_mc: f64,
    /// Successful samples behind `sigma_mc`.
    pub n: usize,
    /// Relative half-width of the 95% CI on `sigma_mc`.
    pub ci95_rel: f64,
}

impl RefRow {
    /// Whether `sigma` lies inside the reference's 95% CI.
    pub fn accepts(&self, sigma: f64) -> bool {
        sigma.is_finite() && ((sigma - self.sigma_mc) / self.sigma_mc).abs() <= self.ci95_rel
    }
}

/// Parses the stored reference.
///
/// # Errors
///
/// A malformed reference file.
pub fn reference() -> Result<Vec<RefRow>, String> {
    let root = json::parse(REFERENCE_JSON)?;
    let rows = root
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("reference.json: missing `rows`")?;
    let parse_row = |r: &Json| -> Option<RefRow> {
        let s = |k: &str| r.get(k).and_then(Json::as_str).map(str::to_string);
        let f = |k: &str| r.get(k).and_then(Json::as_f64);
        Some(RefRow {
            circuit: s("circuit")?,
            metric: s("metric")?,
            sigma_mc: f("sigma_mc")?,
            n: r.get("n").and_then(Json::as_usize)?,
            ci95_rel: f("ci95_rel")?,
        })
    };
    rows.iter()
        .map(|r| parse_row(r).ok_or_else(|| "reference.json: malformed row".to_string()))
        .collect()
}

/// The reference row for a circuit's metric.
pub fn reference_for<'a>(rows: &'a [RefRow], circuit: &str, metric: &str) -> Option<&'a RefRow> {
    rows.iter()
        .find(|r| r.circuit == circuit && r.metric == metric)
}
