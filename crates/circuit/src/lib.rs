//! # tranvar-circuit
//!
//! Netlist representation, MNA device stamps, and mismatch descriptors for
//! the `tranvar` workspace (reproduction of Kim/Jones/Horowitz,
//! *"Fast, Non-Monte-Carlo Estimation of Transient Performance Variation Due
//! to Device Mismatch"*).
//!
//! The crate models the substrate that the paper assumes from a SPICE-class
//! simulator plus Verilog-A:
//!
//! - [`Circuit`]: netlist builder and MNA assembly (`f`, `q`, `G`, `C`),
//! - [`mosfet`]: a smoothed square-law MOSFET with analytic derivatives,
//!   including the Pelgrom mismatch derivatives ∂I_D/∂V_T = −g_m and
//!   ∂I_D/∂(δβ/β) = I_D (paper Fig. 4),
//! - [`mismatch`]: Pelgrom descriptors (σ ∝ 1/√(WL), paper eqs. 4–5),
//! - [`waveform`]: periodic/DC stimuli compatible with PSS analysis.
//!
//! # Examples
//!
//! Build a resistive divider with a mismatch annotation:
//!
//! ```
//! use tranvar_circuit::{Circuit, NodeId, Waveform};
//!
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.add_vsource("V1", vin, NodeId::GROUND, Waveform::Dc(1.0));
//! let r1 = ckt.add_resistor("R1", vin, out, 10_000.0);
//! ckt.add_resistor("R2", out, NodeId::GROUND, 10_000.0);
//! ckt.annotate_resistor_mismatch(r1, 100.0); // σ_R = 100 Ω
//! assert_eq!(ckt.mismatch_params().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod circuit;
pub mod error;
pub mod mismatch;
pub mod mosfet;
pub mod waveform;

pub use circuit::{
    Assembly, Circuit, CircuitOverride, Device, DeviceId, Mosfet, NodeId, ParamDeriv,
};
pub use error::CircuitError;
pub use mismatch::{MismatchKind, MismatchParam, Pelgrom};
pub use mosfet::{MosModel, MosOp, MosType};
pub use waveform::{Pulse, Waveform};
