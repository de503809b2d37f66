//! Netlist representation and MNA assembly.
//!
//! The unknown vector is the classic MNA layout: all non-ground node voltages
//! followed by branch currents (voltage sources, inductors, VCVS). Devices
//! stamp four objects at a given state `x` and time `t`:
//!
//! - `f(x,t)`: resistive/static KCL+branch residual contributions,
//! - `q(x)`: charges and fluxes (the dynamic part; residual is
//!   `f + dq/dt = 0`),
//! - `G = ∂f/∂x` and `C = ∂q/∂x` (Jacobians as sparse triplets).
//!
//! Every mismatch parameter additionally exposes `∂f/∂p` and `∂q/∂p`
//! ([`Circuit::d_residual_dparam`]) — this *is* the pseudo-noise injection
//! vector of the paper (Figs. 3–4): bias-dependent, evaluated along the
//! periodic steady state by the LPTV analysis.

use crate::error::CircuitError;
use crate::mismatch::{MismatchKind, MismatchParam};
use crate::mosfet::{eval_mosfet, MosModel, MosType};
use crate::waveform::Waveform;
use tranvar_num::Triplets;

/// Handle to a circuit node. `NodeId::GROUND` is the reference node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground/reference node.
    pub const GROUND: NodeId = NodeId(0);

    /// Returns `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// Handle to a device instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub(crate) usize);

impl DeviceId {
    /// Raw index into the device list.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs a handle from a raw index (no validation; indices come
    /// from enumerating [`Circuit::devices`]).
    pub fn from_index(index: usize) -> Self {
        DeviceId(index)
    }
}

/// A MOSFET instance (model card copied per instance so Monte-Carlo samples
/// can perturb devices independently).
#[derive(Clone, Debug, PartialEq)]
pub struct Mosfet {
    /// Drain node.
    pub d: NodeId,
    /// Gate node.
    pub g: NodeId,
    /// Source node.
    pub s: NodeId,
    /// Polarity.
    pub ty: MosType,
    /// Model card (owned copy).
    pub model: MosModel,
    /// Drawn width (m).
    pub w: f64,
    /// Drawn length (m).
    pub l: f64,
    /// Additive threshold perturbation (V) — Monte-Carlo mismatch state.
    pub vt_shift: f64,
    /// Multiplicative current-factor perturbation — Monte-Carlo state.
    pub beta_scale: f64,
}

impl Mosfet {
    /// Total gate-source capacitance (intrinsic share + overlap).
    pub fn cgs(&self) -> f64 {
        0.5 * self.model.cox * self.w * self.l + self.model.cov * self.w
    }

    /// Total gate-drain capacitance (intrinsic share + overlap).
    pub fn cgd(&self) -> f64 {
        0.5 * self.model.cox * self.w * self.l + self.model.cov * self.w
    }

    /// Drain (or source) junction capacitance to the bulk rail.
    pub fn cj_term(&self) -> f64 {
        self.model.cj * self.w
    }
}

/// A circuit device.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Device {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance (Ω), must be positive.
        r: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance (F), must be positive.
        c: f64,
    },
    /// Linear inductor between `a` and `b` with its own current unknown.
    Inductor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Inductance (H), must be positive.
        l: f64,
        /// Branch-current unknown index.
        branch: usize,
    },
    /// Independent voltage source from `p` to `n`.
    Vsource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Source waveform.
        wave: Waveform,
        /// Branch-current unknown index.
        branch: usize,
    },
    /// Independent current source pushing current out of `p` into `n`
    /// through the external circuit (i.e. KCL sees `+I` leaving `p`).
    Isource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Source waveform.
        wave: Waveform,
    },
    /// Voltage-controlled current source: `gm·(v_cp − v_cn)` flows p→n.
    Vccs {
        /// Output positive terminal.
        p: NodeId,
        /// Output negative terminal.
        n: NodeId,
        /// Controlling positive node.
        cp: NodeId,
        /// Controlling negative node.
        cn: NodeId,
        /// Transconductance (S).
        gm: f64,
    },
    /// Voltage-controlled voltage source: `v_p − v_n = gain·(v_cp − v_cn)`.
    Vcvs {
        /// Output positive terminal.
        p: NodeId,
        /// Output negative terminal.
        n: NodeId,
        /// Controlling positive node.
        cp: NodeId,
        /// Controlling negative node.
        cn: NodeId,
        /// Voltage gain.
        gain: f64,
        /// Branch-current unknown index.
        branch: usize,
    },
    /// MOSFET.
    Mosfet(Mosfet),
}

/// One numeric-only circuit modification, applied via [`Circuit::revalue`].
///
/// Overrides change device values, source levels, sizing or mismatch σ
/// **without touching the netlist topology**, so the MNA sparsity pattern
/// is preserved and any symbolic analysis cached for the base circuit
/// remains valid. They are the vocabulary of the scenario/campaign layer:
/// a corner is a list of overrides against a base circuit.
///
/// [`CircuitOverride::is_statistical_only`] distinguishes overrides that
/// affect only the mismatch statistics (σ) from those that change the
/// solved equations — campaigns share one PSS+LPTV solve across scenarios
/// whose solve-affecting overrides agree, because the unit-parameter
/// responses are independent of σ.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum CircuitOverride {
    /// Sets a resistor's resistance (Ω, must be finite and positive).
    Resistance {
        /// Target resistor.
        device: DeviceId,
        /// New resistance (Ω).
        ohms: f64,
    },
    /// Sets a capacitor's capacitance (F, must be finite and positive).
    Capacitance {
        /// Target capacitor.
        device: DeviceId,
        /// New capacitance (F).
        farads: f64,
    },
    /// Sets an inductor's inductance (H, must be finite and positive).
    Inductance {
        /// Target inductor.
        device: DeviceId,
        /// New inductance (H).
        henries: f64,
    },
    /// Replaces the level of a DC V/I source (supply or bias corner).
    SourceDc {
        /// Target source.
        device: DeviceId,
        /// New DC level (V or A).
        value: f64,
    },
    /// Scales a V/I source waveform by a factor (works for any waveform —
    /// DC, pulse, sine, PWL — scaling every level, like the
    /// source-stepping homotopy does).
    SourceScale {
        /// Target source.
        device: DeviceId,
        /// Multiplicative level factor.
        factor: f64,
    },
    /// Resizes a MOSFET's drawn width (m, must be finite and positive).
    /// Pelgrom mismatch parameters attached to the device are re-scaled by
    /// `√(W_old/W_new)` (σ ∝ 1/√(W·L)).
    MosWidth {
        /// Target MOSFET.
        device: DeviceId,
        /// New drawn width (m).
        width: f64,
    },
    /// Scales every registered mismatch σ (the Fig. 11-style mismatch-level
    /// sweep). Statistical-only: does not change the solved equations.
    SigmaScale {
        /// Multiplicative σ factor (finite, non-negative).
        factor: f64,
    },
    /// Sets one mismatch parameter's σ. Statistical-only.
    SigmaSet {
        /// Mismatch-parameter index.
        param: usize,
        /// New standard deviation in the parameter's natural unit.
        sigma: f64,
    },
}

impl CircuitOverride {
    /// `true` if the override affects only the mismatch statistics (σ) and
    /// not the solved circuit equations: the nominal orbit and the
    /// unit-parameter responses of circuits differing only in such
    /// overrides are identical, so their solves can be shared.
    pub fn is_statistical_only(&self) -> bool {
        matches!(
            self,
            CircuitOverride::SigmaScale { .. } | CircuitOverride::SigmaSet { .. }
        )
    }
}

/// Sparse derivative of the MNA residual with respect to one scalar
/// parameter: the pseudo-noise injection vector of the paper.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParamDeriv {
    /// `∂f/∂p` entries as `(row, value)`.
    pub df: Vec<(usize, f64)>,
    /// `∂q/∂p` entries as `(row, value)`.
    pub dq: Vec<(usize, f64)>,
}

/// Assembled MNA system at one `(x, t)` point.
#[derive(Clone, Debug)]
pub struct Assembly {
    /// Number of unknowns.
    pub n: usize,
    /// Static residual `f(x, t)` (includes independent sources).
    pub f: Vec<f64>,
    /// Charge/flux vector `q(x)`.
    pub q: Vec<f64>,
    /// Jacobian `∂f/∂x` triplets.
    pub g: Triplets,
    /// Jacobian `∂q/∂x` triplets.
    pub c: Triplets,
    /// Operating point of each MOSFET, indexed by *device* index (entries
    /// for non-MOSFET devices are defaulted). Captured during assembly so
    /// sensitivity paths can reuse the expensive model evaluations instead
    /// of repeating them — see [`Circuit::d_residual_dparams_with_ops`].
    pub mos_ops: Vec<crate::mosfet::MosOp>,
}

impl Assembly {
    /// Copies another assembly's contents into this one, retaining this
    /// buffer's allocations (per-timestep warm-start reuse).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions disagree.
    pub fn copy_from(&mut self, other: &Assembly) {
        assert_eq!(self.n, other.n, "assembly dimension mismatch");
        self.f.copy_from_slice(&other.f);
        self.q.copy_from_slice(&other.q);
        self.g.copy_from(&other.g);
        self.c.copy_from(&other.c);
        self.mos_ops.clear();
        self.mos_ops.extend_from_slice(&other.mos_ops);
    }
}

/// A circuit under construction and its mismatch annotations.
///
/// # Examples
///
/// ```
/// use tranvar_circuit::{Circuit, Waveform};
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let vout = ckt.node("out");
/// ckt.add_vsource("V1", vin, tranvar_circuit::NodeId::GROUND, Waveform::Dc(1.0));
/// ckt.add_resistor("R1", vin, vout, 1e3);
/// ckt.add_resistor("R2", vout, tranvar_circuit::NodeId::GROUND, 1e3);
/// assert_eq!(ckt.n_unknowns(), 3); // two nodes + one branch current
/// ```
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    devices: Vec<Device>,
    labels: Vec<String>,
    n_branches: usize,
    mismatch: Vec<MismatchParam>,
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Circuit {
            node_names: vec!["0".to_string()],
            devices: Vec::new(),
            labels: Vec::new(),
            n_branches: 0,
            mismatch: Vec::new(),
        }
    }

    /// Returns (creating if needed) the node with the given name.
    ///
    /// The names `"0"` and `"gnd"` alias the ground node.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return NodeId::GROUND;
        }
        if let Some(i) = self.node_names.iter().position(|n| n == name) {
            NodeId(i)
        } else {
            self.node_names.push(name.to_string());
            NodeId(self.node_names.len() - 1)
        }
    }

    /// Looks up an existing node by name.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] if no node has that name.
    pub fn find_node(&self, name: &str) -> Result<NodeId, CircuitError> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Ok(NodeId::GROUND);
        }
        self.node_names
            .iter()
            .position(|n| n == name)
            .map(NodeId)
            .ok_or_else(|| CircuitError::UnknownNode { name: name.into() })
    }

    /// Node name for diagnostics.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// Number of nodes including ground.
    pub fn n_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of branch-current unknowns.
    pub fn n_branches(&self) -> usize {
        self.n_branches
    }

    /// Total number of MNA unknowns.
    pub fn n_unknowns(&self) -> usize {
        (self.node_names.len() - 1) + self.n_branches
    }

    /// Unknown index of a node voltage (`None` for ground).
    pub fn unknown_of_node(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.0 - 1)
        }
    }

    /// Unknown index of branch `b`.
    pub fn unknown_of_branch(&self, b: usize) -> usize {
        (self.node_names.len() - 1) + b
    }

    /// Voltage of `node` in a solution vector.
    pub fn voltage(&self, x: &[f64], node: NodeId) -> f64 {
        match self.unknown_of_node(node) {
            None => 0.0,
            Some(i) => x[i],
        }
    }

    /// Devices in insertion order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Sorted, deduplicated derivative discontinuities of every independent
    /// source waveform inside the open interval `(t0, t1)` — the times an
    /// adaptive transient integrator must land a step on exactly (see
    /// [`Waveform::breakpoints_in`]).
    pub fn source_breakpoints(&self, t0: f64, t1: f64) -> Vec<f64> {
        let mut out = Vec::new();
        for d in &self.devices {
            match d {
                Device::Vsource { wave, .. } | Device::Isource { wave, .. } => {
                    wave.breakpoints_in(t0, t1, &mut out);
                }
                _ => {}
            }
        }
        out.sort_by(|a, b| a.partial_cmp(b).unwrap());
        out.dedup();
        out
    }

    /// Device by id.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.0]
    }

    /// Label of a device.
    pub fn label(&self, id: DeviceId) -> &str {
        &self.labels[id.0]
    }

    /// Finds a device by label.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownDevice`] if no device has that label.
    pub fn find_device(&self, label: &str) -> Result<DeviceId, CircuitError> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(DeviceId)
            .ok_or(CircuitError::UnknownDevice { index: usize::MAX })
    }

    fn push_device(&mut self, label: &str, dev: Device) -> DeviceId {
        self.devices.push(dev);
        self.labels.push(label.to_string());
        DeviceId(self.devices.len() - 1)
    }

    fn new_branch(&mut self) -> usize {
        self.n_branches += 1;
        self.n_branches - 1
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `r <= 0`.
    pub fn add_resistor(&mut self, label: &str, a: NodeId, b: NodeId, r: f64) -> DeviceId {
        assert!(r > 0.0, "resistor `{label}` must have positive resistance");
        self.push_device(label, Device::Resistor { a, b, r })
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0`.
    pub fn add_capacitor(&mut self, label: &str, a: NodeId, b: NodeId, c: f64) -> DeviceId {
        assert!(
            c > 0.0,
            "capacitor `{label}` must have positive capacitance"
        );
        self.push_device(label, Device::Capacitor { a, b, c })
    }

    /// Adds an inductor (introduces one branch-current unknown).
    ///
    /// # Panics
    ///
    /// Panics if `l <= 0`.
    pub fn add_inductor(&mut self, label: &str, a: NodeId, b: NodeId, l: f64) -> DeviceId {
        assert!(l > 0.0, "inductor `{label}` must have positive inductance");
        let branch = self.new_branch();
        self.push_device(label, Device::Inductor { a, b, l, branch })
    }

    /// Adds an independent voltage source (one branch-current unknown).
    pub fn add_vsource(&mut self, label: &str, p: NodeId, n: NodeId, wave: Waveform) -> DeviceId {
        let branch = self.new_branch();
        self.push_device(label, Device::Vsource { p, n, wave, branch })
    }

    /// Adds an independent current source (current flows out of `p`, into `n`
    /// through the external circuit).
    pub fn add_isource(&mut self, label: &str, p: NodeId, n: NodeId, wave: Waveform) -> DeviceId {
        self.push_device(label, Device::Isource { p, n, wave })
    }

    /// Adds a voltage-controlled current source.
    pub fn add_vccs(
        &mut self,
        label: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    ) -> DeviceId {
        self.push_device(label, Device::Vccs { p, n, cp, cn, gm })
    }

    /// Adds a voltage-controlled voltage source (one branch unknown).
    pub fn add_vcvs(
        &mut self,
        label: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gain: f64,
    ) -> DeviceId {
        let branch = self.new_branch();
        self.push_device(
            label,
            Device::Vcvs {
                p,
                n,
                cp,
                cn,
                gain,
                branch,
            },
        )
    }

    /// Adds a MOSFET.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `l` is non-positive.
    pub fn add_mosfet(
        &mut self,
        label: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        ty: MosType,
        model: MosModel,
        w: f64,
        l: f64,
    ) -> DeviceId {
        assert!(
            w > 0.0 && l > 0.0,
            "mosfet `{label}` needs positive W and L"
        );
        self.push_device(
            label,
            Device::Mosfet(Mosfet {
                d,
                g,
                s,
                ty,
                model,
                w,
                l,
                vt_shift: 0.0,
                beta_scale: 1.0,
            }),
        )
    }

    // ---------------------------------------------------------------------
    // Mismatch annotations
    // ---------------------------------------------------------------------

    /// Registers a mismatch parameter; returns its index.
    pub fn add_mismatch(&mut self, param: MismatchParam) -> usize {
        self.mismatch.push(param);
        self.mismatch.len() - 1
    }

    /// Registered mismatch parameters.
    pub fn mismatch_params(&self) -> &[MismatchParam] {
        &self.mismatch
    }

    /// Annotates a MOSFET with Pelgrom V_T and β mismatch:
    /// `σ_VT = A_VT/√(W·L)`, `σ_{δβ/β} = A_β/√(W·L)` (paper eqs. 4–5).
    ///
    /// `avt` is in V·m, `abeta` dimensionless·m (e.g. 6.5 mV·µm = 6.5e-9 V·m).
    ///
    /// # Panics
    ///
    /// Panics if the device is not a MOSFET.
    pub fn annotate_pelgrom(&mut self, dev: DeviceId, avt: f64, abeta: f64) -> (usize, usize) {
        let (w, l) = match &self.devices[dev.0] {
            Device::Mosfet(m) => (m.w, m.l),
            other => panic!("pelgrom annotation on non-MOSFET {other:?}"),
        };
        let area_sqrt = (w * l).sqrt();
        let label = self.labels[dev.0].clone();
        let ivt = self.add_mismatch(MismatchParam {
            label: format!("{label}.dVT"),
            device: dev,
            kind: MismatchKind::MosVt,
            sigma: avt / area_sqrt,
        });
        let ibeta = self.add_mismatch(MismatchParam {
            label: format!("{label}.dBeta"),
            device: dev,
            kind: MismatchKind::MosBetaRel,
            sigma: abeta / area_sqrt,
        });
        (ivt, ibeta)
    }

    /// Annotates a resistor with absolute-σ resistance mismatch (Fig. 3).
    pub fn annotate_resistor_mismatch(&mut self, dev: DeviceId, sigma_ohms: f64) -> usize {
        let label = self.labels[dev.0].clone();
        self.add_mismatch(MismatchParam {
            label: format!("{label}.dR"),
            device: dev,
            kind: MismatchKind::ResAbs,
            sigma: sigma_ohms,
        })
    }

    /// Annotates a capacitor with absolute-σ capacitance mismatch (Fig. 3).
    pub fn annotate_capacitor_mismatch(&mut self, dev: DeviceId, sigma_farads: f64) -> usize {
        let label = self.labels[dev.0].clone();
        self.add_mismatch(MismatchParam {
            label: format!("{label}.dC"),
            device: dev,
            kind: MismatchKind::CapAbs,
            sigma: sigma_farads,
        })
    }

    /// Annotates an inductor with absolute-σ inductance mismatch (Fig. 3).
    pub fn annotate_inductor_mismatch(&mut self, dev: DeviceId, sigma_henries: f64) -> usize {
        let label = self.labels[dev.0].clone();
        self.add_mismatch(MismatchParam {
            label: format!("{label}.dL"),
            device: dev,
            kind: MismatchKind::IndAbs,
            sigma: sigma_henries,
        })
    }

    /// Applies one Monte-Carlo mismatch sample: `deltas[k]` is the value of
    /// mismatch parameter `k` in its natural unit (V for δV_T, relative for
    /// δβ/β, Ω/F/H for passives).
    ///
    /// # Panics
    ///
    /// Panics if `deltas.len()` differs from the number of parameters.
    pub fn apply_mismatch(&mut self, deltas: &[f64]) {
        assert_eq!(
            deltas.len(),
            self.mismatch.len(),
            "mismatch sample length mismatch"
        );
        for (param, &delta) in self.mismatch.iter().zip(deltas.iter()) {
            let dev = &mut self.devices[param.device.0];
            match (param.kind, dev) {
                (MismatchKind::MosVt, Device::Mosfet(m)) => m.vt_shift += delta,
                (MismatchKind::MosBetaRel, Device::Mosfet(m)) => m.beta_scale *= 1.0 + delta,
                (MismatchKind::ResAbs, Device::Resistor { r, .. }) => *r += delta,
                (MismatchKind::CapAbs, Device::Capacitor { c, .. }) => *c += delta,
                (MismatchKind::IndAbs, Device::Inductor { l, .. }) => *l += delta,
                (kind, dev) => panic!("mismatch kind {kind:?} incompatible with {dev:?}"),
            }
        }
    }

    /// Resets all Monte-Carlo mismatch state to nominal.
    pub fn reset_mismatch(&mut self) {
        for dev in &mut self.devices {
            if let Device::Mosfet(m) = dev {
                m.vt_shift = 0.0;
                m.beta_scale = 1.0;
            }
        }
        // Passive deltas are not tracked separately; callers that perturb
        // passives should clone the nominal circuit instead (the Monte-Carlo
        // driver does).
    }

    // ---------------------------------------------------------------------
    // Assembly
    // ---------------------------------------------------------------------

    /// Assembles the full MNA system at state `x` and time `t`.
    pub fn assemble(&self, x: &[f64], t: f64) -> Assembly {
        let n = self.n_unknowns();
        let mut out = Assembly {
            n,
            f: vec![0.0; n],
            q: vec![0.0; n],
            g: Triplets::new(n, n),
            c: Triplets::new(n, n),
            mos_ops: Vec::new(),
        };
        self.assemble_into(x, t, &mut out);
        out
    }

    /// Assembles into a caller-provided buffer: clears it, then builds every
    /// stamp. The `G` and `C` triplets come out in a fixed push order that
    /// depends on the circuit's topology alone, never on `(x, t)`, so a
    /// buffer built here can later be brought to another point with
    /// [`Circuit::refresh_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n_unknowns()` or the buffer size disagrees.
    pub fn assemble_into(&self, x: &[f64], t: f64, out: &mut Assembly) {
        self.check_buffer(x, out);
        out.g.clear();
        out.c.clear();
        out.mos_ops.clear();
        out.mos_ops
            .resize(self.devices.len(), crate::mosfet::MosOp::default());
        let mut sink = Build {
            g: &mut out.g,
            c: &mut out.c,
        };
        self.stamp_devices(x, t, &mut out.f, &mut out.q, &mut out.mos_ops, &mut sink);
    }

    /// Brings a buffer that [`Circuit::assemble_into`] built to the point
    /// `(x, t)`, rewriting only what depends on it: `f`, `q`, the MOSFET
    /// operating points and the `G` values, in push order. `C` and the
    /// triplet pattern stay as built. The result equals a fresh
    /// [`Circuit::assemble_into`] bitwise.
    ///
    /// Contract: `out` was built from this circuit, with its current device
    /// values. `C` and the linear `G` stamps are only valid under that
    /// contract, so a buffer must be rebuilt after any edit of the circuit,
    /// such as [`Circuit::revalue`]. The transient stepper builds once per
    /// run, while it borrows the circuit immutably, and refreshes every
    /// later assembly of the run. Debug builds check every stamp's
    /// `(row, col)` against the pattern.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n_unknowns()`, the buffer size
    /// disagrees, or the buffer was never built.
    pub fn refresh_into(&self, x: &[f64], t: f64, out: &mut Assembly) {
        self.check_buffer(x, out);
        assert_eq!(
            out.mos_ops.len(),
            self.devices.len(),
            "refresh of an assembly this circuit never built"
        );
        let mut sink = Refresh {
            g: &mut out.g,
            k: 0,
        };
        self.stamp_devices(x, t, &mut out.f, &mut out.q, &mut out.mos_ops, &mut sink);
        debug_assert_eq!(sink.k, out.g.len(), "refresh left G stamps unwritten");
    }

    fn check_buffer(&self, x: &[f64], out: &Assembly) {
        let n = self.n_unknowns();
        assert_eq!(x.len(), n, "state vector length mismatch");
        assert_eq!(out.n, n, "assembly buffer dimension mismatch");
    }

    /// The one device loop behind [`Circuit::assemble_into`] and
    /// [`Circuit::refresh_into`]: zeroes and stamps `f` and `q`, records
    /// each MOSFET's operating point, and hands every Jacobian stamp to
    /// `s` in push order.
    fn stamp_devices<S: StampSink>(
        &self,
        x: &[f64],
        t: f64,
        f: &mut [f64],
        q: &mut [f64],
        mos_ops: &mut [crate::mosfet::MosOp],
        s: &mut S,
    ) {
        f.fill(0.0);
        q.fill(0.0);
        let v = |node: NodeId| self.voltage(x, node);
        for (dev_idx, dev) in self.devices.iter().enumerate() {
            match dev {
                Device::Resistor { a, b, r } => {
                    let g = 1.0 / r;
                    let i = (v(*a) - v(*b)) * g;
                    stamp_row(self, f, *a, i);
                    stamp_row(self, f, *b, -i);
                    stamp2(self, *a, *b, g, |i, j, w| s.g(i, j, w));
                }
                Device::Capacitor { a, b, c } => {
                    let qc = (v(*a) - v(*b)) * c;
                    stamp_row(self, q, *a, qc);
                    stamp_row(self, q, *b, -qc);
                    stamp2(self, *a, *b, *c, |i, j, w| s.c(i, j, w));
                }
                Device::Inductor { a, b, l, branch } => {
                    let bi = self.unknown_of_branch(*branch);
                    let il = x[bi];
                    stamp_row(self, f, *a, il);
                    stamp_row(self, f, *b, -il);
                    stamp_branch(self, s, *a, *b, bi);
                    // Branch residual: v_a - v_b - L·di/dt = 0.
                    f[bi] += v(*a) - v(*b);
                    q[bi] += -l * il;
                    s.c(bi, bi, -l);
                }
                Device::Vsource { p, n, wave, branch } => {
                    let bi = self.unknown_of_branch(*branch);
                    let ib = x[bi];
                    stamp_row(self, f, *p, ib);
                    stamp_row(self, f, *n, -ib);
                    stamp_branch(self, s, *p, *n, bi);
                    f[bi] += v(*p) - v(*n) - wave.value(t);
                }
                Device::Isource { p, n, wave } => {
                    let i = wave.value(t);
                    stamp_row(self, f, *p, i);
                    stamp_row(self, f, *n, -i);
                }
                Device::Vccs { p, n, cp, cn, gm } => {
                    let i = gm * (v(*cp) - v(*cn));
                    stamp_row(self, f, *p, i);
                    stamp_row(self, f, *n, -i);
                    stamp_g_cross(self, s, *p, *n, *cp, *cn, *gm);
                }
                Device::Vcvs {
                    p,
                    n,
                    cp,
                    cn,
                    gain,
                    branch,
                } => {
                    let bi = self.unknown_of_branch(*branch);
                    let ib = x[bi];
                    stamp_row(self, f, *p, ib);
                    stamp_row(self, f, *n, -ib);
                    stamp_branch(self, s, *p, *n, bi);
                    f[bi] += v(*p) - v(*n) - gain * (v(*cp) - v(*cn));
                    if let Some(icp) = self.unknown_of_node(*cp) {
                        s.g(bi, icp, -gain);
                    }
                    if let Some(icn) = self.unknown_of_node(*cn) {
                        s.g(bi, icn, *gain);
                    }
                }
                Device::Mosfet(m) => {
                    let op = eval_mosfet(
                        m.ty,
                        &m.model,
                        m.w,
                        m.l,
                        m.vt_shift,
                        m.beta_scale,
                        v(m.d),
                        v(m.g),
                        v(m.s),
                    );
                    mos_ops[dev_idx] = op;
                    stamp_row(self, f, m.d, op.ids);
                    stamp_row(self, f, m.s, -op.ids);
                    // Jacobian rows for drain and source KCL.
                    for (node, sign) in [(m.d, 1.0), (m.s, -1.0)] {
                        if let Some(row) = self.unknown_of_node(node) {
                            if let Some(cd) = self.unknown_of_node(m.d) {
                                s.g(row, cd, sign * op.di_dvd);
                            }
                            if let Some(cg) = self.unknown_of_node(m.g) {
                                s.g(row, cg, sign * op.di_dvg);
                            }
                            if let Some(cs) = self.unknown_of_node(m.s) {
                                s.g(row, cs, sign * op.di_dvs);
                            }
                        }
                    }
                    // Linear gate/junction capacitances.
                    let cgs = m.cgs();
                    let cgd = m.cgd();
                    let cj = m.cj_term();
                    let qgs = (v(m.g) - v(m.s)) * cgs;
                    stamp_row(self, q, m.g, qgs);
                    stamp_row(self, q, m.s, -qgs);
                    stamp2(self, m.g, m.s, cgs, |i, j, w| s.c(i, j, w));
                    let qgd = (v(m.g) - v(m.d)) * cgd;
                    stamp_row(self, q, m.g, qgd);
                    stamp_row(self, q, m.d, -qgd);
                    stamp2(self, m.g, m.d, cgd, |i, j, w| s.c(i, j, w));
                    // Junction caps to ground rail.
                    for term in [m.d, m.s] {
                        if let Some(it) = self.unknown_of_node(term) {
                            q[it] += v(term) * cj;
                            s.c(it, it, cj);
                        }
                    }
                }
            }
        }
    }

    /// Derivative of the residual with respect to mismatch parameter `k`,
    /// evaluated at state `x`: the pseudo-noise injection vector.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownMismatchParam`] for an invalid index.
    pub fn d_residual_dparam(&self, k: usize, x: &[f64]) -> Result<ParamDeriv, CircuitError> {
        let mut out = ParamDeriv::default();
        self.d_residual_dparam_into(k, x, &mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`Circuit::d_residual_dparam`]: clears and
    /// refills `out`, retaining its buffers (per-timestep sensitivity hot
    /// path).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownMismatchParam`] for an invalid index.
    pub fn d_residual_dparam_into(
        &self,
        k: usize,
        x: &[f64],
        out: &mut ParamDeriv,
    ) -> Result<(), CircuitError> {
        self.d_residual_dparams_into(k, x, std::slice::from_mut(out))
    }

    /// Derivatives for the contiguous parameter range `k0 .. k0 + out.len()`
    /// at state `x`, refilling `out` in place.
    ///
    /// Parameters that live on the same device share one model evaluation:
    /// a Pelgrom-annotated MOSFET contributes both a V_T and a β parameter,
    /// and the expensive smoothed-square-law evaluation is identical for the
    /// pair — the batched sensitivity propagation calls this once per state
    /// and halves its device-evaluation bill relative to per-parameter
    /// calls. The computed values are bit-for-bit the same either way.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownMismatchParam`] if the range exceeds
    /// the registered parameters.
    pub fn d_residual_dparams_into(
        &self,
        k0: usize,
        x: &[f64],
        out: &mut [ParamDeriv],
    ) -> Result<(), CircuitError> {
        self.d_residual_dparams_impl(k0, x, None, out)
    }

    /// Like [`Circuit::d_residual_dparams_into`], but reuses the MOSFET
    /// operating points captured by a previous assembly at the *same state*
    /// ([`Assembly::mos_ops`]) instead of re-evaluating the device models —
    /// the transient-sensitivity propagation gets every MOS derivative for
    /// free this way. Values are bit-for-bit those of the evaluating path.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownMismatchParam`] if the range exceeds
    /// the registered parameters.
    pub fn d_residual_dparams_with_ops(
        &self,
        k0: usize,
        x: &[f64],
        mos_ops: &[crate::mosfet::MosOp],
        out: &mut [ParamDeriv],
    ) -> Result<(), CircuitError> {
        self.d_residual_dparams_impl(k0, x, Some(mos_ops), out)
    }

    fn d_residual_dparams_impl(
        &self,
        k0: usize,
        x: &[f64],
        mos_ops: Option<&[crate::mosfet::MosOp]>,
        out: &mut [ParamDeriv],
    ) -> Result<(), CircuitError> {
        let v = |node: NodeId| self.voltage(x, node);
        // One-entry memo: consecutive parameters of one device (the Pelgrom
        // V_T/β pair) reuse the same operating-point evaluation.
        let mut memo: Option<(usize, crate::mosfet::MosOp)> = None;
        for (i, slot) in out.iter_mut().enumerate() {
            let k = k0 + i;
            slot.df.clear();
            slot.dq.clear();
            let param = self
                .mismatch
                .get(k)
                .ok_or(CircuitError::UnknownMismatchParam { index: k })?;
            let dev_idx = param.device.0;
            let dev = &self.devices[dev_idx];
            match (param.kind, dev) {
                (MismatchKind::MosVt | MismatchKind::MosBetaRel, Device::Mosfet(m)) => {
                    let op = match (mos_ops, memo) {
                        (Some(ops), _) => ops[dev_idx],
                        (None, Some((d, op))) if d == dev_idx => op,
                        _ => {
                            let op = eval_mosfet(
                                m.ty,
                                &m.model,
                                m.w,
                                m.l,
                                m.vt_shift,
                                m.beta_scale,
                                v(m.d),
                                v(m.g),
                                v(m.s),
                            );
                            memo = Some((dev_idx, op));
                            op
                        }
                    };
                    let di = if param.kind == MismatchKind::MosVt {
                        op.di_dvt
                    } else {
                        op.di_dbeta_rel
                    };
                    push_pair(self, &mut slot.df, m.d, m.s, di);
                }
                (MismatchKind::ResAbs, Device::Resistor { a, b, r }) => {
                    // i = (va−vb)/R ⇒ ∂i/∂R = −(va−vb)/R² = −I_R/R  (Fig. 3).
                    let didr = -(v(*a) - v(*b)) / (r * r);
                    push_pair(self, &mut slot.df, *a, *b, didr);
                }
                (MismatchKind::CapAbs, Device::Capacitor { a, b, .. }) => {
                    // q = C·(va−vb) ⇒ ∂q/∂C = va−vb (Fig. 3).
                    let dqdc = v(*a) - v(*b);
                    push_pair(self, &mut slot.dq, *a, *b, dqdc);
                }
                (MismatchKind::IndAbs, Device::Inductor { branch, .. }) => {
                    // Branch flux q = −L·i ⇒ ∂q/∂L = −i (Fig. 3).
                    let bi = self.unknown_of_branch(*branch);
                    slot.dq.push((bi, -x[bi]));
                }
                (kind, dev) => panic!("mismatch kind {kind:?} incompatible with {dev:?}"),
            }
        }
        Ok(())
    }

    /// Moves an assembled system from time `t_old` to `t_new` by updating
    /// only the independent-source contributions to `f` — the device stamps
    /// depend solely on the state, so an assembly at `(x, t_old)` becomes a
    /// valid assembly at `(x, t_new)` with a handful of waveform
    /// evaluations. This is the per-timestep warm start of the transient
    /// integrator: the accepted assembly of step `k` seeds the Newton
    /// iteration of step `k+1` without re-evaluating every device.
    pub fn retime_sources(&self, asm: &mut Assembly, t_old: f64, t_new: f64) {
        if t_old == t_new {
            return;
        }
        for dev in &self.devices {
            match dev {
                Device::Vsource { wave, branch, .. } => {
                    // Branch residual carries −wave(t).
                    let bi = self.unknown_of_branch(*branch);
                    asm.f[bi] += wave.value(t_old) - wave.value(t_new);
                }
                Device::Isource { p, n, wave } => {
                    let delta = wave.value(t_new) - wave.value(t_old);
                    if let Some(ip) = self.unknown_of_node(*p) {
                        asm.f[ip] += delta;
                    }
                    if let Some(inn) = self.unknown_of_node(*n) {
                        asm.f[inn] -= delta;
                    }
                }
                _ => {}
            }
        }
    }

    /// Vector of σ for each mismatch parameter, in parameter order.
    pub fn mismatch_sigmas(&self) -> Vec<f64> {
        self.mismatch.iter().map(|p| p.sigma).collect()
    }

    /// Mutable access to a device for design-space exploration (e.g. the
    /// width-resizing yield optimizer). Invariants such as Pelgrom σ are the
    /// caller's responsibility — see [`Circuit::rescale_mismatch_sigmas`].
    pub fn device_mut(&mut self, id: DeviceId) -> &mut Device {
        &mut self.devices[id.0]
    }

    /// Rescales each mismatch parameter's σ by `factor(param)` (used after
    /// geometry changes: Pelgrom σ ∝ 1/√(W·L)).
    pub fn rescale_mismatch_sigmas(&mut self, mut factor: impl FnMut(&MismatchParam) -> f64) {
        for i in 0..self.mismatch.len() {
            let k = factor(&self.mismatch[i]);
            self.mismatch[i].sigma *= k;
        }
    }

    /// Applies a set of numeric-only overrides in place.
    ///
    /// Every override rewrites device *values* (or mismatch σ) without
    /// adding, removing or rewiring anything, so the MNA sparsity pattern —
    /// and with it any cached symbolic analysis keyed on that pattern — is
    /// preserved exactly. This is the scenario-application primitive of the
    /// campaign layer in `tranvar-core`: a worker session revalues one
    /// clone of the base circuit per scenario and every solve after the
    /// first is a pure numeric replay.
    ///
    /// Overrides are applied in order; later overrides see the effects of
    /// earlier ones (relevant for [`CircuitOverride::SourceScale`] after
    /// [`CircuitOverride::SourceDc`], or stacked sigma scalings).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] for a kind mismatch
    /// (e.g. a resistance override on a capacitor), a non-finite or
    /// non-positive element value, a non-finite source level or scale, a
    /// non-finite or negative σ (scale), and [`CircuitError::UnknownMismatchParam`] /
    /// [`CircuitError::UnknownDevice`] for out-of-range indices. The
    /// circuit is modified up to the failing override.
    pub fn revalue(&mut self, overrides: &[CircuitOverride]) -> Result<(), CircuitError> {
        for ov in overrides {
            self.apply_override(ov)?;
        }
        Ok(())
    }

    fn apply_override(&mut self, ov: &CircuitOverride) -> Result<(), CircuitError> {
        let device_of = |this: &Circuit, id: DeviceId| -> Result<(), CircuitError> {
            if id.0 >= this.devices.len() {
                return Err(CircuitError::UnknownDevice { index: id.0 });
            }
            Ok(())
        };
        let positive = |this: &Circuit, id: DeviceId, what: &str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(CircuitError::InvalidParameter {
                    device: this.labels[id.0].clone(),
                    reason: format!("{what} must be finite and positive, got {v:e}"),
                })
            }
        };
        let mismatch_err =
            |this: &Circuit, id: DeviceId, what: &str| CircuitError::InvalidParameter {
                device: this.labels[id.0].clone(),
                reason: format!("{what} override does not match the device kind"),
            };
        match *ov {
            CircuitOverride::Resistance { device, ohms } => {
                device_of(self, device)?;
                positive(self, device, "resistance", ohms)?;
                match &mut self.devices[device.0] {
                    Device::Resistor { r, .. } => *r = ohms,
                    _ => return Err(mismatch_err(self, device, "resistance")),
                }
            }
            CircuitOverride::Capacitance { device, farads } => {
                device_of(self, device)?;
                positive(self, device, "capacitance", farads)?;
                match &mut self.devices[device.0] {
                    Device::Capacitor { c, .. } => *c = farads,
                    _ => return Err(mismatch_err(self, device, "capacitance")),
                }
            }
            CircuitOverride::Inductance { device, henries } => {
                device_of(self, device)?;
                positive(self, device, "inductance", henries)?;
                match &mut self.devices[device.0] {
                    Device::Inductor { l, .. } => *l = henries,
                    _ => return Err(mismatch_err(self, device, "inductance")),
                }
            }
            CircuitOverride::SourceDc { device, value } => {
                device_of(self, device)?;
                if !value.is_finite() {
                    return Err(CircuitError::InvalidParameter {
                        device: self.labels[device.0].clone(),
                        reason: format!("source level must be finite, got {value:e}"),
                    });
                }
                match &mut self.devices[device.0] {
                    Device::Vsource { wave, .. } | Device::Isource { wave, .. } => match wave {
                        Waveform::Dc(v) => *v = value,
                        _ => {
                            return Err(CircuitError::InvalidParameter {
                                device: self.labels[device.0].clone(),
                                reason: "SourceDc override needs a DC waveform (use SourceScale \
                                         for time-varying stimuli)"
                                    .into(),
                            })
                        }
                    },
                    _ => return Err(mismatch_err(self, device, "source-level")),
                }
            }
            CircuitOverride::SourceScale { device, factor } => {
                device_of(self, device)?;
                if !factor.is_finite() {
                    return Err(CircuitError::InvalidParameter {
                        device: self.labels[device.0].clone(),
                        reason: format!("source scale must be finite, got {factor:e}"),
                    });
                }
                match &mut self.devices[device.0] {
                    Device::Vsource { wave, .. } | Device::Isource { wave, .. } => {
                        *wave = scale_waveform(wave, factor);
                    }
                    _ => return Err(mismatch_err(self, device, "source-scale")),
                }
            }
            CircuitOverride::MosWidth { device, width } => {
                device_of(self, device)?;
                positive(self, device, "width", width)?;
                let w_old = match &mut self.devices[device.0] {
                    Device::Mosfet(m) => {
                        let w_old = m.w;
                        m.w = width;
                        w_old
                    }
                    _ => return Err(mismatch_err(self, device, "width")),
                };
                // Pelgrom σ ∝ 1/√(W·L): geometry changes re-scale every
                // matching parameter attached to this device.
                let factor = (w_old / width).sqrt();
                for p in &mut self.mismatch {
                    if p.device == device
                        && matches!(p.kind, MismatchKind::MosVt | MismatchKind::MosBetaRel)
                    {
                        p.sigma *= factor;
                    }
                }
            }
            CircuitOverride::SigmaScale { factor } => {
                if !factor.is_finite() || factor < 0.0 {
                    return Err(CircuitError::InvalidParameter {
                        device: "<all mismatch>".into(),
                        reason: format!(
                            "sigma scale must be finite and non-negative, got {factor:e}"
                        ),
                    });
                }
                for p in &mut self.mismatch {
                    p.sigma *= factor;
                }
            }
            CircuitOverride::SigmaSet { param, sigma } => {
                if !sigma.is_finite() || sigma < 0.0 {
                    return Err(CircuitError::InvalidParameter {
                        device: format!("<mismatch param {param}>"),
                        reason: format!("sigma must be finite and non-negative, got {sigma:e}"),
                    });
                }
                let p = self
                    .mismatch
                    .get_mut(param)
                    .ok_or(CircuitError::UnknownMismatchParam { index: param })?;
                p.sigma = sigma;
            }
        }
        Ok(())
    }

    /// Returns a copy of the circuit with every independent source scaled by
    /// `alpha` (source-stepping homotopy for hard DC problems).
    pub fn scaled_sources(&self, alpha: f64) -> Circuit {
        let mut out = self.clone();
        for dev in &mut out.devices {
            match dev {
                Device::Vsource { wave, .. } | Device::Isource { wave, .. } => {
                    *wave = scale_waveform(wave, alpha);
                }
                _ => {}
            }
        }
        out
    }
}

fn scale_waveform(w: &Waveform, alpha: f64) -> Waveform {
    match w {
        Waveform::Dc(v) => Waveform::Dc(v * alpha),
        Waveform::Pulse(p) => {
            let mut p = *p;
            p.v0 *= alpha;
            p.v1 *= alpha;
            Waveform::Pulse(p)
        }
        Waveform::Sin {
            offset,
            ampl,
            freq,
            delay,
        } => Waveform::Sin {
            offset: offset * alpha,
            ampl: ampl * alpha,
            freq: *freq,
            delay: *delay,
        },
        Waveform::Pwl(points) => {
            Waveform::Pwl(points.iter().map(|&(t, v)| (t, v * alpha)).collect())
        }
    }
}

/// Where the device loop of [`Circuit::assemble_into`] and
/// [`Circuit::refresh_into`] sends its Jacobian stamps, in push order.
trait StampSink {
    /// A `∂f/∂x` stamp.
    fn g(&mut self, row: usize, col: usize, v: f64);
    /// A `∂q/∂x` stamp.
    fn c(&mut self, row: usize, col: usize, v: f64);
}

/// Builds the pattern: appends every stamp.
struct Build<'a> {
    g: &'a mut Triplets,
    c: &'a mut Triplets,
}

impl StampSink for Build<'_> {
    #[inline]
    fn g(&mut self, row: usize, col: usize, v: f64) {
        self.g.push(row, col, v);
    }

    #[inline]
    fn c(&mut self, row: usize, col: usize, v: f64) {
        self.c.push(row, col, v);
    }
}

/// Refreshes a built pattern: overwrites the `G` value at a cursor and
/// skips `C`, whose stamps are constant for a given circuit.
struct Refresh<'a> {
    g: &'a mut Triplets,
    /// Index of the next `G` stamp.
    k: usize,
}

impl StampSink for Refresh<'_> {
    #[inline]
    fn g(&mut self, row: usize, col: usize, v: f64) {
        self.g.set(self.k, row, col, v);
        self.k += 1;
    }

    #[inline]
    fn c(&mut self, _row: usize, _col: usize, _v: f64) {}
}

/// Adds `val` to node `node`'s row of `vec` (`f` or `q`); ground has none.
fn stamp_row(ckt: &Circuit, vec: &mut [f64], node: NodeId, val: f64) {
    if let Some(i) = ckt.unknown_of_node(node) {
        vec[i] += val;
    }
}

/// Two-terminal stamp of `val` between nodes `a` and `b` (a conductance
/// or a capacitance, by `push`).
fn stamp2(ckt: &Circuit, a: NodeId, b: NodeId, val: f64, mut push: impl FnMut(usize, usize, f64)) {
    let (ia, ib) = (ckt.unknown_of_node(a), ckt.unknown_of_node(b));
    if let Some(ia) = ia {
        push(ia, ia, val);
        if let Some(ib) = ib {
            push(ia, ib, -val);
            push(ib, ia, -val);
        }
    }
    if let Some(ib) = ib {
        push(ib, ib, val);
    }
}

/// The `±1` coupling between branch current `bi` and the KCL rows of its
/// terminals `p` (+) and `n` (−): inductors and voltage sources.
fn stamp_branch(ckt: &Circuit, s: &mut impl StampSink, p: NodeId, n: NodeId, bi: usize) {
    if let Some(ip) = ckt.unknown_of_node(p) {
        s.g(ip, bi, 1.0);
        s.g(bi, ip, 1.0);
    }
    if let Some(inn) = ckt.unknown_of_node(n) {
        s.g(inn, bi, -1.0);
        s.g(bi, inn, -1.0);
    }
}

/// Transconductance stamp: current `gm·(v_cp − v_cn)` from p to n.
fn stamp_g_cross(
    ckt: &Circuit,
    s: &mut impl StampSink,
    p: NodeId,
    n: NodeId,
    cp: NodeId,
    cn: NodeId,
    gm: f64,
) {
    for (node, sign) in [(p, 1.0), (n, -1.0)] {
        if let Some(row) = ckt.unknown_of_node(node) {
            if let Some(icp) = ckt.unknown_of_node(cp) {
                s.g(row, icp, sign * gm);
            }
            if let Some(icn) = ckt.unknown_of_node(cn) {
                s.g(row, icn, -sign * gm);
            }
        }
    }
}

/// Pushes `+val` at node `a`'s row and `−val` at node `b`'s row.
fn push_pair(ckt: &Circuit, list: &mut Vec<(usize, f64)>, a: NodeId, b: NodeId, val: f64) {
    if let Some(ia) = ckt.unknown_of_node(a) {
        list.push((ia, val));
    }
    if let Some(ib) = ckt.unknown_of_node(b) {
        list.push((ib, -val));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mismatch::MismatchKind;

    /// Revalued circuits must assemble exactly like circuits built with the
    /// target values directly, and the stamp pattern must be unchanged.
    #[test]
    fn revalue_matches_direct_construction_and_preserves_pattern() {
        let build = |r: f64, c: f64, v: f64| {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(v));
            let r1 = ckt.add_resistor("R1", a, b, r);
            let c1 = ckt.add_capacitor("C1", b, NodeId::GROUND, c);
            ckt.annotate_resistor_mismatch(r1, 10.0);
            ckt.annotate_capacitor_mismatch(c1, 1e-11);
            (ckt, r1, c1)
        };
        let (mut ckt, r1, c1) = build(1e3, 1e-9, 1.0);
        let v1 = ckt.find_device("V1").unwrap();
        ckt.revalue(&[
            CircuitOverride::Resistance {
                device: r1,
                ohms: 2.2e3,
            },
            CircuitOverride::Capacitance {
                device: c1,
                farads: 0.5e-9,
            },
            CircuitOverride::SourceDc {
                device: v1,
                value: 1.4,
            },
            CircuitOverride::SigmaScale { factor: 2.0 },
        ])
        .unwrap();
        let (direct, _, _) = build(2.2e3, 0.5e-9, 1.4);
        let x = vec![0.7, 0.3, -1e-3];
        let (base, fresh) = (ckt.assemble(&x, 0.0), direct.assemble(&x, 0.0));
        assert_eq!(base.f, fresh.f);
        assert_eq!(base.q, fresh.q);
        assert_eq!(base.g.to_csc(), fresh.g.to_csc());
        assert_eq!(base.c.to_csc(), fresh.c.to_csc());
        // σ: scaled by 2 relative to the direct build.
        assert_eq!(ckt.mismatch_sigmas(), vec![20.0, 2e-11]);
        // Pattern identical to the pre-revalue circuit: the stamps repeat
        // the original `(row, col)` sequence, which is what lets a staged
        // pattern refill in place (the engine's `CombineStage`).
        let (orig, _, _) = build(1e3, 1e-9, 1.0);
        let coords = |asm: &crate::Assembly| {
            let g = asm.g.iter().map(|&(r, c, _)| (r, c));
            g.chain(asm.c.iter().map(|&(r, c, _)| (r, c)))
                .collect::<Vec<_>>()
        };
        assert_eq!(coords(&orig.assemble(&x, 0.0)), coords(&base));
    }

    #[test]
    fn revalue_mos_width_rescales_pelgrom_sigma() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let m = ckt.add_mosfet(
            "M1",
            d,
            d,
            NodeId::GROUND,
            MosType::Nmos,
            MosModel::nmos_013(),
            2e-6,
            0.13e-6,
        );
        ckt.annotate_pelgrom(m, 6.5e-9, 3.25e-8);
        let before = ckt.mismatch_sigmas();
        assert!(ckt
            .revalue(&[CircuitOverride::MosWidth {
                device: m,
                width: f64::INFINITY,
            }])
            .is_err());
        assert_eq!(ckt.mismatch_sigmas(), before);
        ckt.revalue(&[CircuitOverride::MosWidth {
            device: m,
            width: 8e-6,
        }])
        .unwrap();
        match ckt.device(m) {
            Device::Mosfet(mm) => assert_eq!(mm.w, 8e-6),
            _ => unreachable!(),
        }
        let after = ckt.mismatch_sigmas();
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((a - b * 0.5).abs() < 1e-15 * b, "{a} vs {}", b * 0.5);
        }
    }

    #[test]
    fn revalue_rejects_kind_mismatch_and_bad_values() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        let r1 = ckt.add_resistor("R1", a, NodeId::GROUND, 1e3);
        assert!(ckt
            .revalue(&[CircuitOverride::Capacitance {
                device: r1,
                farads: 1e-9
            }])
            .is_err());
        for ohms in [-5.0, f64::INFINITY, f64::NAN] {
            assert!(ckt
                .revalue(&[CircuitOverride::Resistance { device: r1, ohms }])
                .is_err());
        }
        assert!(ckt
            .revalue(&[CircuitOverride::SigmaSet {
                param: 3,
                sigma: 1.0
            }])
            .is_err());
        ckt.annotate_resistor_mismatch(r1, 10.0);
        assert!(ckt
            .revalue(&[CircuitOverride::SigmaSet {
                param: 0,
                sigma: -1.0
            }])
            .is_err());
        assert!(ckt
            .revalue(&[CircuitOverride::SigmaSet {
                param: 0,
                sigma: f64::NAN
            }])
            .is_err());
        for factor in [-2.0, f64::INFINITY, f64::NAN] {
            assert!(ckt
                .revalue(&[CircuitOverride::SigmaScale { factor }])
                .is_err());
        }
        let v1 = ckt.find_device("V1").unwrap();
        assert!(ckt
            .revalue(&[CircuitOverride::SourceDc {
                device: v1,
                value: 2.5
            }])
            .is_ok());
        assert!(matches!(
            ckt.device(v1),
            Device::Vsource {
                wave: Waveform::Dc(v),
                ..
            } if *v == 2.5
        ));
    }

    #[test]
    fn statistical_only_classification() {
        assert!(CircuitOverride::SigmaScale { factor: 2.0 }.is_statistical_only());
        assert!(CircuitOverride::SigmaSet {
            param: 0,
            sigma: 1.0
        }
        .is_statistical_only());
        assert!(!CircuitOverride::Resistance {
            device: DeviceId(0),
            ohms: 1.0
        }
        .is_statistical_only());
    }

    #[test]
    fn retime_sources_matches_fresh_assembly() {
        use crate::waveform::Pulse;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource(
            "V1",
            a,
            NodeId::GROUND,
            Waveform::Pulse(Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 1e-6,
                rise: 1e-7,
                fall: 1e-7,
                width: 4e-6,
                period: 10e-6,
            }),
        );
        ckt.add_isource(
            "I1",
            b,
            NodeId::GROUND,
            Waveform::Sin {
                offset: 1e-3,
                ampl: 2e-3,
                freq: 1e5,
                delay: 0.0,
            },
        );
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
        let x = vec![0.3, 0.1, -2e-4];
        let (t0, t1) = (0.8e-6, 1.35e-6); // crosses the pulse edge
        let mut asm = ckt.assemble(&x, t0);
        ckt.retime_sources(&mut asm, t0, t1);
        let fresh = ckt.assemble(&x, t1);
        for (i, (a, b)) in asm.f.iter().zip(fresh.f.iter()).enumerate() {
            assert!((a - b).abs() < 1e-12, "f[{i}]: {a} vs {b}");
        }
        assert_eq!(asm.q, fresh.q);
    }

    /// Every device kind (R, C, L, V, I, VCCS, VCVS, NMOS, PMOS), with
    /// grounded terminals on each two-terminal kind, a controlled source
    /// sensing ground and a MOSFET with its source on ground.
    fn every_device_kind() -> Circuit {
        use crate::waveform::Pulse;
        let mut ckt = Circuit::new();
        let [a, b, c, d, e] = ["a", "b", "c", "d", "e"].map(|n| ckt.node(n));
        let gnd = NodeId::GROUND;
        let pulse = Pulse {
            v0: 0.0,
            v1: 1.2,
            delay: 1e-10,
            rise: 5e-11,
            fall: 5e-11,
            width: 4e-10,
            period: 1e-9,
        };
        ckt.add_vsource("V1", a, gnd, Waveform::Pulse(pulse));
        let sin = Waveform::Sin {
            offset: 1e-5,
            ampl: 2e-5,
            freq: 1e9,
            delay: 0.0,
        };
        ckt.add_isource("I1", b, c, sin);
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_resistor("R2", c, gnd, 2e3);
        ckt.add_capacitor("C1", b, gnd, 1e-12);
        ckt.add_capacitor("C2", c, d, 2e-13);
        ckt.add_inductor("L1", d, gnd, 1e-9);
        ckt.add_vccs("G1", e, gnd, b, c, 1e-4);
        ckt.add_vcvs("E1", e, d, c, gnd, 2.0);
        let (nmos, pmos) = (MosModel::nmos_013(), MosModel::pmos_013());
        ckt.add_mosfet("MN", c, b, gnd, MosType::Nmos, nmos, 1e-6, 0.13e-6);
        ckt.add_mosfet("MP", d, b, a, MosType::Pmos, pmos, 2e-6, 0.13e-6);
        ckt
    }

    /// A buffer built once and refreshed at 50 seeded `(x, t)` points
    /// equals a fresh `assemble_into` bitwise in `f`, `q`, `G`, `C` and the
    /// operating points, also when a MOSFET's drain and source swap roles.
    #[test]
    fn refresh_matches_a_fresh_assembly_bitwise() {
        let ckt = every_device_kind();
        let n = ckt.n_unknowns();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let stamps = |t: &Triplets| {
            let entries = t.iter().map(|&(r, c, v)| (r, c, v.to_bits()));
            entries.collect::<Vec<_>>()
        };
        let mut rng = tranvar_num::rng::Rng64::seed_from(25);
        let mut refreshed = ckt.assemble(&vec![0.0; n], 0.0);
        let mut fresh = ckt.assemble(&vec![0.0; n], 0.0);
        let mut swapped = [0usize; 2];
        for point in 0..50 {
            let x: Vec<f64> = (0..n).map(|_| 2.4 * rng.uniform() - 0.6).collect();
            let t = 2e-9 * rng.uniform();
            ckt.refresh_into(&x, t, &mut refreshed);
            ckt.assemble_into(&x, t, &mut fresh);
            let at = format!("point {point}");
            assert_eq!(bits(&refreshed.f), bits(&fresh.f), "{at}: f");
            assert_eq!(bits(&refreshed.q), bits(&fresh.q), "{at}: q");
            assert_eq!(stamps(&refreshed.g), stamps(&fresh.g), "{at}: G");
            assert_eq!(stamps(&refreshed.c), stamps(&fresh.c), "{at}: C");
            let ops = |a: &Assembly| {
                let each = a.mos_ops.iter().map(|o| {
                    bits(&[
                        o.ids,
                        o.di_dvd,
                        o.di_dvg,
                        o.di_dvs,
                        o.di_dvt,
                        o.di_dbeta_rel,
                    ])
                });
                each.collect::<Vec<_>>()
            };
            assert_eq!(ops(&refreshed), ops(&fresh), "{at}: mos_ops");
            // MN (drain c, source ground) and MP (drain d, source a) in
            // their reverse orientations.
            let v = |node: &str| ckt.voltage(&x, ckt.find_node(node).unwrap());
            swapped[0] += usize::from(v("c") < 0.0);
            swapped[1] += usize::from(v("d") > v("a"));
        }
        assert!(
            swapped.iter().all(|&k| k > 0 && k < 50),
            "both orientations of each MOSFET: {swapped:?}"
        );
    }

    #[test]
    fn assembly_copy_from_reuses_buffers() {
        let (ckt, _, _) = divider();
        let x = vec![0.5; ckt.n_unknowns()];
        let asm1 = ckt.assemble(&x, 0.0);
        let mut asm2 = ckt.assemble(&vec![0.0; ckt.n_unknowns()], 0.0);
        asm2.copy_from(&asm1);
        assert_eq!(asm2.f, asm1.f);
        assert_eq!(asm2.q, asm1.q);
        assert_eq!(asm2.g.len(), asm1.g.len());
    }

    fn divider() -> (Circuit, NodeId, NodeId) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.add_vsource("V1", vin, NodeId::GROUND, Waveform::Dc(2.0));
        ckt.add_resistor("R1", vin, vout, 1000.0);
        ckt.add_resistor("R2", vout, NodeId::GROUND, 1000.0);
        (ckt, vin, vout)
    }

    #[test]
    fn node_dedup_and_ground_aliases() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let a2 = ckt.node("a");
        assert_eq!(a, a2);
        assert!(ckt.node("0").is_ground());
        assert!(ckt.node("gnd").is_ground());
        assert_eq!(ckt.n_nodes(), 2);
    }

    #[test]
    fn unknown_layout() {
        let (ckt, vin, vout) = divider();
        assert_eq!(ckt.n_unknowns(), 3);
        assert_eq!(ckt.unknown_of_node(vin), Some(0));
        assert_eq!(ckt.unknown_of_node(vout), Some(1));
        assert_eq!(ckt.unknown_of_branch(0), 2);
        assert_eq!(ckt.unknown_of_node(NodeId::GROUND), None);
    }

    #[test]
    fn divider_residual_zero_at_solution() {
        let (ckt, _, _) = divider();
        // Exact solution: vin=2, vout=1, branch current = -(2-1)/1000 ...
        // current through V1 from p to n inside source: KCL at vin:
        // i_R1 + i_br = 0 -> i_br = -(2-1)/1000 = -1 mA.
        let x = vec![2.0, 1.0, -1.0e-3];
        let asm = ckt.assemble(&x, 0.0);
        for (i, f) in asm.f.iter().enumerate() {
            assert!(f.abs() < 1e-12, "row {i}: {f}");
        }
    }

    #[test]
    fn jacobian_matches_finite_difference_linear() {
        let (ckt, _, _) = divider();
        jac_fd_check(&ckt, &[1.7, 0.4, 2.0e-3]);
    }

    #[test]
    fn jacobian_matches_finite_difference_mosfet() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let d = ckt.node("d");
        ckt.add_vsource("VDD", vdd, NodeId::GROUND, Waveform::Dc(1.2));
        ckt.add_vsource("VG", g, NodeId::GROUND, Waveform::Dc(0.8));
        ckt.add_resistor("RD", vdd, d, 5e3);
        ckt.add_mosfet(
            "M1",
            d,
            g,
            NodeId::GROUND,
            MosType::Nmos,
            MosModel::nmos_013(),
            2e-6,
            0.13e-6,
        );
        jac_fd_check(&ckt, &[1.2, 0.8, 0.63, -1e-4, 2e-5]);
    }

    fn jac_fd_check(ckt: &Circuit, x0: &[f64]) {
        let n = ckt.n_unknowns();
        assert_eq!(x0.len(), n);
        let asm0 = ckt.assemble(x0, 0.0);
        let gd = asm0.g.to_csc().to_dense();
        let cd = asm0.c.to_csc().to_dense();
        let h = 1e-7;
        for j in 0..n {
            let mut xp = x0.to_vec();
            xp[j] += h;
            let mut xm = x0.to_vec();
            xm[j] -= h;
            let ap = ckt.assemble(&xp, 0.0);
            let am = ckt.assemble(&xm, 0.0);
            for i in 0..n {
                let dfd = (ap.f[i] - am.f[i]) / (2.0 * h);
                let dqd = (ap.q[i] - am.q[i]) / (2.0 * h);
                let tolg = 1e-4 * gd[(i, j)].abs().max(1e-6);
                assert!(
                    (gd[(i, j)] - dfd).abs() < tolg,
                    "G[{i}][{j}] {} vs fd {dfd}",
                    gd[(i, j)]
                );
                let tolc = 1e-4 * cd[(i, j)].abs().max(1e-12);
                assert!(
                    (cd[(i, j)] - dqd).abs() < tolc,
                    "C[{i}][{j}] {} vs fd {dqd}",
                    cd[(i, j)]
                );
            }
        }
    }

    #[test]
    fn param_deriv_matches_finite_difference() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let d = ckt.node("d");
        ckt.add_vsource("VDD", vdd, NodeId::GROUND, Waveform::Dc(1.2));
        ckt.add_vsource("VG", g, NodeId::GROUND, Waveform::Dc(0.9));
        let rd = ckt.add_resistor("RD", vdd, d, 3e3);
        let m1 = ckt.add_mosfet(
            "M1",
            d,
            g,
            NodeId::GROUND,
            MosType::Nmos,
            MosModel::nmos_013(),
            4e-6,
            0.13e-6,
        );
        ckt.annotate_pelgrom(m1, 6.5e-9, 3.25e-8);
        ckt.annotate_resistor_mismatch(rd, 30.0);
        let x = vec![1.2, 0.9, 0.5, -1e-4, 1e-5];

        for k in 0..ckt.mismatch_params().len() {
            let pd = ckt.d_residual_dparam(k, &x).unwrap();
            // Finite difference by perturbing the circuit.
            let h_for = |kind: MismatchKind| match kind {
                MismatchKind::MosVt => 1e-6,
                MismatchKind::MosBetaRel => 1e-6,
                MismatchKind::ResAbs => 1e-3,
                _ => 1e-9,
            };
            let kind = ckt.mismatch_params()[k].kind;
            let h = h_for(kind);
            let mut deltas = vec![0.0; ckt.mismatch_params().len()];
            deltas[k] = h;
            let mut cp = ckt.clone();
            cp.apply_mismatch(&deltas);
            let ap = cp.assemble(&x, 0.0);
            deltas[k] = -h;
            let mut cm = ckt.clone();
            cm.apply_mismatch(&deltas);
            let am = cm.assemble(&x, 0.0);
            let mut df_fd = vec![0.0; ckt.n_unknowns()];
            let mut dq_fd = vec![0.0; ckt.n_unknowns()];
            for i in 0..ckt.n_unknowns() {
                df_fd[i] = (ap.f[i] - am.f[i]) / (2.0 * h);
                dq_fd[i] = (ap.q[i] - am.q[i]) / (2.0 * h);
            }
            let mut df = vec![0.0; ckt.n_unknowns()];
            for (i, val) in &pd.df {
                df[*i] += val;
            }
            let mut dq = vec![0.0; ckt.n_unknowns()];
            for (i, val) in &pd.dq {
                dq[*i] += val;
            }
            for i in 0..ckt.n_unknowns() {
                assert!(
                    (df[i] - df_fd[i]).abs() < 1e-4 * df_fd[i].abs().max(1e-7),
                    "param {k} df[{i}]: {} vs {}",
                    df[i],
                    df_fd[i]
                );
                assert!(
                    (dq[i] - dq_fd[i]).abs() < 1e-4 * dq_fd[i].abs().max(1e-12),
                    "param {k} dq[{i}]: {} vs {}",
                    dq[i],
                    dq_fd[i]
                );
            }
        }
    }

    #[test]
    fn pelgrom_sigma_scaling() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let m = ckt.add_mosfet(
            "M1",
            d,
            d,
            NodeId::GROUND,
            MosType::Nmos,
            MosModel::nmos_013(),
            8.32e-6,
            0.13e-6,
        );
        // AVT = 6.5 mV·µm = 6.5e-9 V·m
        let (ivt, ibeta) = ckt.annotate_pelgrom(m, 6.5e-9, 3.25e-8);
        let area_sqrt = (8.32e-6_f64 * 0.13e-6).sqrt();
        let svt = ckt.mismatch_params()[ivt].sigma;
        let sbeta = ckt.mismatch_params()[ibeta].sigma;
        assert!((svt - 6.5e-9 / area_sqrt).abs() < 1e-12);
        assert!((sbeta - 3.25e-8 / area_sqrt).abs() < 1e-12);
        // For the paper's device this is about 6.25 mV and 3.1%.
        assert!((svt - 6.25e-3).abs() < 0.2e-3, "sigma_vt = {svt}");
        assert!((sbeta - 0.0312).abs() < 0.002, "sigma_beta = {sbeta}");
    }

    #[test]
    fn apply_and_reset_mismatch() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let m = ckt.add_mosfet(
            "M1",
            d,
            d,
            NodeId::GROUND,
            MosType::Nmos,
            MosModel::nmos_013(),
            1e-6,
            0.13e-6,
        );
        ckt.annotate_pelgrom(m, 6.5e-9, 3.25e-8);
        ckt.apply_mismatch(&[0.01, 0.05]);
        match ckt.device(m) {
            Device::Mosfet(mm) => {
                assert!((mm.vt_shift - 0.01).abs() < 1e-15);
                assert!((mm.beta_scale - 1.05).abs() < 1e-15);
            }
            _ => unreachable!(),
        }
        ckt.reset_mismatch();
        match ckt.device(m) {
            Device::Mosfet(mm) => {
                assert_eq!(mm.vt_shift, 0.0);
                assert_eq!(mm.beta_scale, 1.0);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn vccs_stamps_correctly() {
        // VCCS from a controlled by itself: i = gm*v flows a->gnd.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_isource("I1", NodeId::GROUND, a, Waveform::Dc(1e-3));
        ckt.add_vccs("G1", a, NodeId::GROUND, a, NodeId::GROUND, 1e-3);
        // KCL: -1mA (injected) + gm*v = 0 -> v = 1.0
        let x = vec![1.0];
        let asm = ckt.assemble(&x, 0.0);
        assert!(asm.f[0].abs() < 1e-15);
    }

    #[test]
    fn inductor_dc_steady_state() {
        // V -- L -- R to ground: at DC steady state i = V/R, q_branch = -L*i.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        ckt.add_inductor("L1", a, b, 1e-6);
        ckt.add_resistor("R1", b, NodeId::GROUND, 100.0);
        // unknowns: va, vb, i_V (branch 0, added first), i_L (branch 1).
        // At steady state: va=1, vb=1, i_L = 10 mA (a->b), i_V = -10 mA.
        let x = vec![1.0, 1.0, -0.01, 0.01];
        let asm = ckt.assemble(&x, 0.0);
        for (i, f) in asm.f.iter().enumerate() {
            assert!(f.abs() < 1e-12, "row {i}: {f}");
        }
        // Inductor flux on its branch row.
        let bi = ckt.unknown_of_branch(ckt_branch(&ckt, "L1"));
        assert!((asm.q[bi] + 1e-6 * 0.01).abs() < 1e-18);
    }

    fn ckt_branch(ckt: &Circuit, label: &str) -> usize {
        let id = ckt.find_device(label).unwrap();
        match ckt.device(id) {
            Device::Inductor { branch, .. } => *branch,
            Device::Vsource { branch, .. } => *branch,
            Device::Vcvs { branch, .. } => *branch,
            _ => panic!("no branch"),
        }
    }
}
