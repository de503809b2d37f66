//! Error types for the LPTV analyses.

use std::error::Error;
use std::fmt;
use tranvar_circuit::CircuitError;
use tranvar_engine::EngineError;
use tranvar_num::{FailureClass, NumError, WireFault};

/// Errors produced by the LPTV periodic solver.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum LptvError {
    /// The PSS solution lacks step records (was solved without recording).
    MissingRecords,
    /// An autonomous solution lacks `∂Φ/∂T`/phase data.
    MissingAutonomousData,
    /// Underlying numerical failure.
    Num(NumError),
    /// Underlying engine failure.
    Engine(EngineError),
    /// Underlying circuit failure.
    Circuit(CircuitError),
}

impl fmt::Display for LptvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LptvError::MissingRecords => {
                write!(f, "pss solution carries no step records")
            }
            LptvError::MissingAutonomousData => {
                write!(f, "autonomous analysis needs dΦ/dT and a phase condition")
            }
            LptvError::Num(e) => write!(f, "numerical failure: {e}"),
            LptvError::Engine(e) => write!(f, "engine failure: {e}"),
            LptvError::Circuit(e) => write!(f, "circuit failure: {e}"),
        }
    }
}

impl LptvError {
    /// The stable wire identity of this failure (see
    /// [`tranvar_num::WireFault`]); exhaustive so new variants must be
    /// classified. The missing-data variants are API misuse (a PSS solution
    /// solved without the records this analysis needs), i.e. bad input.
    pub fn wire_fault(&self) -> WireFault {
        use FailureClass::BadInput;
        match self {
            LptvError::MissingRecords => WireFault::new("lptv.missing-records", BadInput),
            LptvError::MissingAutonomousData => {
                WireFault::new("lptv.missing-autonomous-data", BadInput)
            }
            LptvError::Num(e) => e.wire_fault(),
            LptvError::Engine(e) => e.wire_fault(),
            LptvError::Circuit(e) => e.wire_fault(),
        }
    }
}

impl Error for LptvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LptvError::Num(e) => Some(e),
            LptvError::Engine(e) => Some(e),
            LptvError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumError> for LptvError {
    fn from(e: NumError) -> Self {
        LptvError::Num(e)
    }
}

impl From<EngineError> for LptvError {
    fn from(e: EngineError) -> Self {
        LptvError::Engine(e)
    }
}

impl From<CircuitError> for LptvError {
    fn from(e: CircuitError) -> Self {
        LptvError::Circuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_traits() {
        assert!(!LptvError::MissingRecords.to_string().is_empty());
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LptvError>();
    }
}
