//! # tranvar-core
//!
//! The paper's contribution: **fast, non-Monte-Carlo estimation of transient
//! performance variation due to device mismatch** (Kim, Jones & Horowitz,
//! DAC 2007 / IEEE TCAS-I 57(7), 2010).
//!
//! Device mismatch (Pelgrom V_T/β, passive R/C/L) is modeled as quasi-DC
//! pseudo-noise; a single periodic-steady-state solve plus one cheap LPTV
//! periodic solve per parameter yields:
//!
//! - the **variance of transient metrics** — comparator input offset
//!   (baseband readout), logic-path delay (crossing shift ≈ first-sideband
//!   phase), oscillator frequency (period sensitivity) — see [`metric`] and
//!   [`analysis`],
//! - **correlations between metrics** from the shared contribution
//!   breakdown, eqs. 10–13 — see [`report`],
//! - **design-parameter sensitivities** `∂σ²/∂W` for yield optimization,
//!   eqs. 14–16 — see [`sensitivity`],
//! - the DC-match baseline it generalizes (refs. \[8\],\[9\]) — see [`dcmatch`],
//! - the Gaussian-mixture extension for non-Gaussian mismatch (Fig. 13) —
//!   see [`mixture`].
//!
//! # Examples
//!
//! ```
//! use tranvar_circuit::{Circuit, NodeId, Waveform};
//! use tranvar_core::prelude::*;
//! use tranvar_pss::PssOptions;
//!
//! // Mismatched divider: σ(vout) = |∂vout/∂R|·σ_R.
//! let mut ckt = Circuit::new();
//! let a = ckt.node("a");
//! let b = ckt.node("b");
//! ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
//! let r1 = ckt.add_resistor("R1", a, b, 1e3);
//! ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
//! ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-12);
//! ckt.annotate_resistor_mismatch(r1, 10.0);
//!
//! let mut opts = PssOptions::default();
//! opts.n_steps = 16;
//! let res = analyze(
//!     &ckt,
//!     &PssConfig::Driven { period: 1e-6, opts },
//!     &[MetricSpec::new("vout", Metric::DcAverage { node: b })],
//! )?;
//! assert!((res.reports[0].sigma() - 5e-3).abs() < 1e-6);
//! # Ok::<(), tranvar_core::CoreError>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod campaign;
pub mod dcmatch;
pub mod error;
pub mod metric;
pub mod mixture;
pub mod report;
pub mod sensitivity;

pub use analysis::{
    analyze, analyze_in, reports_from_responses, solve_pss, solve_pss_in, AnalysisResult,
    MetricSpec, PssConfig, SensitivityTable,
};
pub use campaign::{
    run_scenarios_per_call, scenario_reports, solve_groups, solve_unique, Campaign, CampaignResult,
    MetricSummary, Scenario, ScenarioOutcome, UniqueSolve,
};
pub use error::CoreError;
pub use metric::Metric;
pub use report::{difference_sigma, Contribution, VariationReport};
pub use sensitivity::{resize_most_sensitive, width_sensitivities, WidthSensitivity};

/// Convenient glob-import surface for downstream code.
pub mod prelude {
    pub use crate::analysis::{analyze, analyze_in, AnalysisResult, MetricSpec, PssConfig};
    pub use crate::campaign::{Campaign, CampaignResult, Scenario};
    pub use crate::dcmatch::dc_match;
    pub use crate::metric::Metric;
    pub use crate::report::{difference_sigma, Contribution, VariationReport};
    pub use crate::sensitivity::width_sensitivities;
    pub use crate::CoreError;
}
