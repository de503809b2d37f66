//! Error types for periodic steady-state analysis.

use std::error::Error;
use std::fmt;
use tranvar_engine::EngineError;
use tranvar_num::{FailureClass, NumError, WireFault};

/// Errors produced by the PSS solvers.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum PssError {
    /// A stimulus is not periodic in the requested analysis period
    /// (paper Section IV-B requires all inputs periodic or constant).
    NotPeriodic {
        /// Offending device label.
        device: String,
        /// Requested analysis period.
        period: f64,
    },
    /// An oscillator contains a time-varying source: autonomous shooting
    /// treats the circuit as time-invariant, so every source must be DC.
    TimeVaryingSource {
        /// Offending device label.
        device: String,
    },
    /// The shooting iteration failed to converge.
    NoConvergence {
        /// Which stage failed.
        analysis: String,
        /// Diagnostics.
        detail: String,
    },
    /// Oscillator start-up failed (no oscillation detected in the warm-up
    /// transient).
    NoOscillation {
        /// Diagnostics.
        detail: String,
    },
    /// Invalid configuration.
    BadConfig(String),
    /// Underlying engine failure.
    Engine(EngineError),
    /// Underlying numerical failure.
    Num(NumError),
}

impl fmt::Display for PssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PssError::NotPeriodic { device, period } => {
                write!(
                    f,
                    "source `{device}` is not periodic in the analysis period {period:.3e} s"
                )
            }
            PssError::TimeVaryingSource { device } => write!(
                f,
                "source `{device}` is time-varying; an oscillator's sources must all be DC"
            ),
            PssError::NoConvergence { analysis, detail } => {
                write!(f, "{analysis} failed to converge: {detail}")
            }
            PssError::NoOscillation { detail } => write!(f, "no oscillation detected: {detail}"),
            PssError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PssError::Engine(e) => write!(f, "engine failure: {e}"),
            PssError::Num(e) => write!(f, "numerical failure: {e}"),
        }
    }
}

impl PssError {
    /// The stable wire identity of this failure (see
    /// [`tranvar_num::WireFault`]); exhaustive so new variants must be
    /// classified. Wrapped layers delegate to their own classification.
    pub fn wire_fault(&self) -> WireFault {
        use FailureClass::*;
        match self {
            PssError::NotPeriodic { .. } => WireFault::new("pss.not-periodic", BadInput),
            PssError::TimeVaryingSource { .. } => {
                WireFault::new("pss.time-varying-source", BadInput)
            }
            PssError::NoConvergence { .. } => WireFault::new("pss.no-convergence", Unstable),
            PssError::NoOscillation { .. } => WireFault::new("pss.no-oscillation", Unstable),
            PssError::BadConfig(_) => WireFault::new("pss.bad-config", BadInput),
            PssError::Engine(e) => e.wire_fault(),
            PssError::Num(e) => e.wire_fault(),
        }
    }
}

impl Error for PssError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PssError::Engine(e) => Some(e),
            PssError::Num(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for PssError {
    fn from(e: EngineError) -> Self {
        PssError::Engine(e)
    }
}

impl From<NumError> for PssError {
    fn from(e: NumError) -> Self {
        PssError::Num(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_traits() {
        let e = PssError::NotPeriodic {
            device: "V1".into(),
            period: 1e-9,
        };
        assert!(e.to_string().contains("V1"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PssError>();
    }
}
