//! Elaboration: a parsed [`Deck`] → a [`Circuit`] plus campaign inputs.
//!
//! Elaboration walks the cards in deck order. Definition cards (`.param`,
//! `.model`, `.subckt`) are define-before-use; element and `X` cards add
//! devices to the circuit *in card order*, which fixes both the MNA node
//! numbering (nodes are created at first mention; `.node` pre-declares a
//! creation order) and the device stamp order. Both orders affect
//! floating-point accumulation, so a deck that lists its cards in the same
//! order as a programmatic builder reproduces that builder's results
//! bit-for-bit — the property the golden-deck conformance suite asserts.
//!
//! Campaign cards (`.sigma`, `.sweep`, `.measure`, `.tran`/`.pss`,
//! `.option`) are collected during the walk and applied *after* all
//! elements exist: `.sigma` annotations are applied over matching devices
//! in insertion order (mirroring builders that annotate each device right
//! after adding it), and `.sweep` grids lower onto [`CircuitOverride`]
//! axes whose cross product becomes the scenario list (later cards vary
//! fastest).
//!
//! Every failure — including value-domain violations that the `Circuit`
//! builder methods would assert on — is caught *before* touching the
//! circuit and returned as a spanned [`NetlistError`]; elaboration never
//! panics on any input.

use std::collections::HashMap;

use tranvar_circuit::{
    Circuit, CircuitOverride, DeviceId, MosModel, MosType, NodeId, Pulse, Waveform,
};
use tranvar_core::{Metric, MetricSpec, PssConfig, Scenario};
use tranvar_num::interp::Edge;
use tranvar_pss::{OscOptions, PssOptions};

use crate::ast::{
    Card, CardKind, Deck, Element, Instance, MeasureCard, ModelCard, Name, PssCard, SigmaCard,
    SubcktDef, SweepCard, Value, WaveSpec,
};
use crate::error::{NetlistError, Span};

/// The analysis a deck requests (`.tran` or `.pss`).
#[derive(Clone, Debug, PartialEq)]
pub enum Analysis {
    /// `.tran tstep tstop`: plain transient (not a campaign analysis; the
    /// serving layer rejects it, but programmatic callers can run it).
    Tran {
        /// Time step (s).
        tstep: f64,
        /// Stop time (s).
        tstop: f64,
    },
    /// `.pss <period> [steps= warmup= tol= step_limit=]`: driven
    /// periodic steady state.
    PssDriven {
        /// Forcing period (s).
        period: f64,
        /// `steps=`: shooting steps per period.
        n_steps: Option<usize>,
        /// `warmup=`: cap on forward warm-up cycles; shooting returns the
        /// first recorded cycle within `tol`, so it may integrate fewer.
        warmup_cycles: Option<usize>,
        /// `tol=`: shooting convergence tolerance.
        tol: Option<f64>,
        /// `step_limit=`: inner-Newton update clamp.
        step_limit: Option<f64>,
    },
    /// `.pss osc hint= node= value= [steps= tol=]`: autonomous
    /// (oscillator) periodic steady state.
    PssAutonomous {
        /// `hint=`: order-of-magnitude period estimate (s), the length of
        /// each warm-up cycle.
        period_hint: f64,
        /// `node=`: phase-condition node.
        phase_node: NodeId,
        /// `value=`: phase-condition level (V).
        phase_value: f64,
        /// `steps=`: shooting steps per period.
        n_steps: Option<usize>,
        /// `tol=`: shooting convergence tolerance.
        tol: Option<f64>,
    },
}

impl Analysis {
    /// The campaign [`PssConfig`] this analysis maps to (`None` for
    /// `.tran`, which is not a periodic analysis).
    pub fn pss_config(&self) -> Option<PssConfig> {
        match self {
            Analysis::Tran { .. } => None,
            Analysis::PssDriven {
                period,
                n_steps,
                warmup_cycles,
                tol,
                step_limit,
            } => {
                let mut opts = PssOptions::default();
                if let Some(n) = n_steps {
                    opts.n_steps = *n;
                }
                if let Some(w) = warmup_cycles {
                    opts.warmup_cycles = *w;
                }
                if let Some(t) = tol {
                    opts.tol = *t;
                }
                if let Some(s) = step_limit {
                    opts.newton.step_limit = *s;
                }
                Some(PssConfig::Driven {
                    period: *period,
                    opts,
                })
            }
            Analysis::PssAutonomous {
                period_hint,
                phase_node,
                phase_value,
                n_steps,
                tol,
            } => {
                let mut opts = OscOptions::default();
                if let Some(n) = n_steps {
                    opts.pss.n_steps = *n;
                }
                if let Some(t) = tol {
                    opts.pss.tol = *t;
                }
                Some(PssConfig::Autonomous {
                    period_hint: *period_hint,
                    phase_node: *phase_node,
                    phase_value: *phase_value,
                    opts,
                })
            }
        }
    }
}

/// Everything a deck defines: the circuit plus its campaign inputs.
#[derive(Clone, Debug)]
pub struct Elaboration {
    /// The deck title (line 1).
    pub title: String,
    /// The elaborated circuit with all mismatch annotations applied.
    pub circuit: Circuit,
    /// The requested analysis, if the deck has a `.tran`/`.pss` card.
    pub analysis: Option<Analysis>,
    /// Metrics from `.measure` cards, in card order.
    pub metrics: Vec<MetricSpec>,
    /// Scenario grid from the `.sweep` cross product (a single `"nominal"`
    /// scenario when the deck has no `.sweep` cards).
    pub scenarios: Vec<Scenario>,
    /// `.option retry=`: enable the campaign retry ladder.
    pub retry: bool,
    /// `.option deadline_ms=`: cooperative solve deadline.
    pub deadline_ms: Option<u64>,
}

/// What kind of device a label names (for `.sigma`/`.sweep` targeting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DevKind {
    Resistor,
    Capacitor,
    Inductor,
    Vsource,
    Isource,
    Vcvs,
    Vccs,
    Mosfet,
}

/// One added device, tracked by the elaborator for label-based targeting
/// (the `Circuit` itself does not expose labels).
struct Added {
    label: String,
    kind: DevKind,
    id: DeviceId,
}

/// Simple `*` glob match (any character run), case-sensitive.
fn glob_match(pattern: &str, text: &str) -> bool {
    fn rec(p: &[u8], t: &[u8]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some(b'*') => (0..=t.len()).any(|k| rec(&p[1..], &t[k..])),
            Some(c) => t.first() == Some(c) && rec(&p[1..], &t[1..]),
        }
    }
    rec(pattern.as_bytes(), text.as_bytes())
}

struct Elaborator {
    circuit: Circuit,
    params: HashMap<String, f64>,
    models: HashMap<String, (MosType, MosModel)>,
    model_spans: HashMap<String, Span>,
    subckts: HashMap<String, SubcktDef>,
    added: Vec<Added>,
    labels: HashMap<String, Span>,
    /// Non-ground node name → (first-mention span, terminal-connection
    /// count). `.node` declarations start at zero connections.
    node_refs: Vec<(String, Span, usize)>,
}

impl Elaborator {
    fn new() -> Self {
        Elaborator {
            circuit: Circuit::new(),
            params: HashMap::new(),
            models: HashMap::new(),
            model_spans: HashMap::new(),
            subckts: HashMap::new(),
            added: Vec::new(),
            labels: HashMap::new(),
            node_refs: Vec::new(),
        }
    }

    /// Evaluates a value in the global parameter environment.
    fn eval(&self, v: &Value) -> Result<f64, NetlistError> {
        v.expr.eval(&self.params)
    }

    /// Evaluates a value and requires it positive and finite.
    fn eval_positive(&self, v: &Value, what: &str) -> Result<f64, NetlistError> {
        eval_positive_in(&self.params, v, what)
    }

    fn is_ground(name: &str) -> bool {
        name == "0" || name.eq_ignore_ascii_case("gnd")
    }

    /// Resolves a node name, creating it on first use and counting the
    /// terminal connection.
    fn node(&mut self, name: &Name) -> NodeId {
        let id = self.circuit.node(&name.text);
        if !Self::is_ground(&name.text) {
            match self.node_refs.iter_mut().find(|(n, _, _)| *n == name.text) {
                Some((_, _, count)) => *count += 1,
                None => self.node_refs.push((name.text.clone(), name.span, 1)),
            }
        }
        id
    }

    /// Pre-declares nodes in `.node` card order (zero connections so far).
    fn declare_nodes(&mut self, nodes: &[Name]) {
        for n in nodes {
            self.circuit.node(&n.text);
            if !Self::is_ground(&n.text)
                && !self.node_refs.iter().any(|(name, _, _)| *name == n.text)
            {
                self.node_refs.push((n.text.clone(), n.span, 0));
            }
        }
    }

    /// Claims a device label, rejecting duplicates.
    fn claim_label(&mut self, label: &Name) -> Result<(), NetlistError> {
        if self.labels.contains_key(&label.text) {
            return Err(NetlistError::DuplicateDevice {
                span: label.span,
                name: label.text.clone(),
            });
        }
        self.labels.insert(label.text.clone(), label.span);
        Ok(())
    }

    fn define_param(&mut self, name: &Name, value: &Value) -> Result<(), NetlistError> {
        let v = self.eval(value)?;
        self.params.insert(name.text.clone(), v);
        Ok(())
    }

    fn define_model(&mut self, m: &ModelCard) -> Result<(), NetlistError> {
        if self.model_spans.contains_key(&m.name.text) {
            return Err(NetlistError::DuplicateModel {
                span: m.name.span,
                name: m.name.text.clone(),
            });
        }
        let (ty, mut model) = if m.kind.text == "nmos" {
            (MosType::Nmos, MosModel::nmos_013())
        } else {
            (MosType::Pmos, MosModel::pmos_013())
        };
        for (key, value) in &m.params {
            let v = self.eval(value)?;
            if !v.is_finite() {
                return Err(NetlistError::InvalidValue {
                    span: value.span,
                    what: format!("model parameter `{}`", key.text),
                    reason: "must be finite".to_string(),
                });
            }
            match key.text.as_str() {
                "vt0" => model.vt0 = v,
                "kp" => model.kp = v,
                "lambda" => model.lambda = v,
                "n_sub" => model.n_sub = v,
                "cox" => model.cox = v,
                "cov" => model.cov = v,
                "cj" => model.cj = v,
                _ => {
                    return Err(NetlistError::Syntax {
                        span: key.span,
                        what: format!("unknown model parameter `{}`", key.text),
                    })
                }
            }
        }
        self.model_spans.insert(m.name.text.clone(), m.name.span);
        self.models.insert(m.name.text.clone(), (ty, model));
        Ok(())
    }

    /// Adds one element card to the circuit. `env` is the parameter
    /// environment values are evaluated in (the global one at top level; a
    /// merged one inside a subcircuit instance).
    fn add_element(
        &mut self,
        e: &Element,
        env: &HashMap<String, f64>,
        rename: &dyn Fn(&Name) -> Name,
    ) -> Result<(), NetlistError> {
        match e {
            Element::Passive {
                kind,
                label,
                p,
                n,
                value,
            } => {
                let label = rename(label);
                self.claim_label(&label)?;
                let what = match kind {
                    'R' => "resistance",
                    'C' => "capacitance",
                    _ => "inductance",
                };
                let v = eval_positive_in(env, value, what)?;
                let (p, n) = (rename(p), rename(n));
                let (a, b) = (self.node(&p), self.node(&n));
                let id = match kind {
                    'R' => self.circuit.add_resistor(&label.text, a, b, v),
                    'C' => self.circuit.add_capacitor(&label.text, a, b, v),
                    _ => self.circuit.add_inductor(&label.text, a, b, v),
                };
                self.added.push(Added {
                    label: label.text,
                    kind: match kind {
                        'R' => DevKind::Resistor,
                        'C' => DevKind::Capacitor,
                        _ => DevKind::Inductor,
                    },
                    id,
                });
            }
            Element::Source {
                kind,
                label,
                p,
                n,
                wave,
            } => {
                let label = rename(label);
                self.claim_label(&label)?;
                let wave = self.build_wave(wave, env)?;
                let (p, n) = (rename(p), rename(n));
                let (a, b) = (self.node(&p), self.node(&n));
                let (id, kind_tag) = if *kind == 'V' {
                    (
                        self.circuit.add_vsource(&label.text, a, b, wave),
                        DevKind::Vsource,
                    )
                } else {
                    (
                        self.circuit.add_isource(&label.text, a, b, wave),
                        DevKind::Isource,
                    )
                };
                self.added.push(Added {
                    label: label.text,
                    kind: kind_tag,
                    id,
                });
            }
            Element::Controlled {
                kind,
                label,
                p,
                n,
                cp,
                cn,
                gain,
            } => {
                let label = rename(label);
                self.claim_label(&label)?;
                let g = env_eval_finite(env, gain, "gain")?;
                let (p, n, cp, cn) = (rename(p), rename(n), rename(cp), rename(cn));
                let (a, b) = (self.node(&p), self.node(&n));
                let (c, d) = (self.node(&cp), self.node(&cn));
                let (id, kind_tag) = if *kind == 'E' {
                    (
                        self.circuit.add_vcvs(&label.text, a, b, c, d, g),
                        DevKind::Vcvs,
                    )
                } else {
                    (
                        self.circuit.add_vccs(&label.text, a, b, c, d, g),
                        DevKind::Vccs,
                    )
                };
                self.added.push(Added {
                    label: label.text,
                    kind: kind_tag,
                    id,
                });
            }
            Element::Mosfet {
                label,
                d,
                g,
                s,
                model,
                w,
                l,
            } => {
                let label = rename(label);
                self.claim_label(&label)?;
                let (ty, card) =
                    *self
                        .models
                        .get(&model.text)
                        .ok_or_else(|| NetlistError::UnknownModel {
                            span: model.span,
                            name: model.text.clone(),
                        })?;
                let wv = eval_positive_in(env, w, "channel width")?;
                let lv = eval_positive_in(env, l, "channel length")?;
                let (d, g, s) = (rename(d), rename(g), rename(s));
                let (dn, gn, sn) = (self.node(&d), self.node(&g), self.node(&s));
                let id = self
                    .circuit
                    .add_mosfet(&label.text, dn, gn, sn, ty, card, wv, lv);
                self.added.push(Added {
                    label: label.text,
                    kind: DevKind::Mosfet,
                    id,
                });
            }
        }
        Ok(())
    }

    fn build_wave(
        &self,
        wave: &WaveSpec,
        env: &HashMap<String, f64>,
    ) -> Result<Waveform, NetlistError> {
        let f = |v: &Value, what: &str| env_eval_finite(env, v, what);
        Ok(match wave {
            WaveSpec::Dc(v) => Waveform::Dc(f(v, "dc level")?),
            WaveSpec::Pulse(v) => Waveform::Pulse(Pulse {
                v0: f(&v[0], "pulse v0")?,
                v1: f(&v[1], "pulse v1")?,
                delay: f(&v[2], "pulse delay")?,
                rise: f(&v[3], "pulse rise")?,
                fall: f(&v[4], "pulse fall")?,
                width: f(&v[5], "pulse width")?,
                period: f(&v[6], "pulse period")?,
            }),
            WaveSpec::Sin(v) => Waveform::Sin {
                offset: f(&v[0], "sin offset")?,
                ampl: f(&v[1], "sin ampl")?,
                freq: f(&v[2], "sin freq")?,
                delay: f(&v[3], "sin delay")?,
            },
            WaveSpec::Pwl(pts) => {
                let mut out = Vec::with_capacity(pts.len());
                for (t, v) in pts {
                    out.push((f(t, "pwl time")?, f(v, "pwl value")?));
                }
                Waveform::Pwl(out)
            }
        })
    }

    /// Flattens an `X` instance: body elements are added with
    /// `{prefix}.{name}` labels, inner nodes become `{prefix}.{node}`, and
    /// port references map to the instance's outer nodes.
    fn add_instance(&mut self, x: &Instance) -> Result<(), NetlistError> {
        let def = self
            .subckts
            .get(&x.subckt.text)
            .ok_or_else(|| NetlistError::UnknownSubckt {
                span: x.subckt.span,
                name: x.subckt.text.clone(),
            })?
            .clone();
        if x.nodes.len() != def.ports.len() {
            return Err(NetlistError::PortMismatch {
                span: x.label.span,
                name: def.name.text.clone(),
                expected: def.ports.len(),
                got: x.nodes.len(),
            });
        }
        // `Xinv0` → prefix `inv0`, matching the programmatic builders'
        // `{label}.MP` / `{label}.out` convention.
        let prefix = x.label.text[1..].to_string();
        if prefix.is_empty() {
            return Err(NetlistError::Syntax {
                span: x.label.span,
                what: "instance label needs a name after the `X`".to_string(),
            });
        }
        // Instance environment: global params, then subckt defaults, then
        // instance overrides (defaults and overrides evaluate in the global
        // environment).
        let mut env = self.params.clone();
        for (key, value) in &def.params {
            let v = self.eval(value)?;
            env.insert(key.text.clone(), v);
        }
        for (key, value) in &x.params {
            if !def.params.iter().any(|(k, _)| k.text == key.text) {
                return Err(NetlistError::Syntax {
                    span: key.span,
                    what: format!(
                        "subcircuit `{}` has no parameter `{}`",
                        def.name.text, key.text
                    ),
                });
            }
            let v = self.eval(value)?;
            env.insert(key.text.clone(), v);
        }
        let port_map: HashMap<&str, &Name> = def
            .ports
            .iter()
            .zip(x.nodes.iter())
            .map(|(port, outer)| (port.text.as_str(), outer))
            .collect();
        let rename = |name: &Name| -> Name {
            if let Some(outer) = port_map.get(name.text.as_str()) {
                Name {
                    text: outer.text.clone(),
                    span: name.span,
                }
            } else if Self::is_ground(&name.text) {
                name.clone()
            } else {
                Name {
                    text: format!("{prefix}.{}", name.text),
                    span: name.span,
                }
            }
        };
        for e in &def.body {
            self.add_element(e, &env, &rename)?;
        }
        Ok(())
    }

    /// Applies one `.sigma` card over the matching devices in insertion
    /// order.
    fn apply_sigma(&mut self, card: &SigmaCard) -> Result<(), NetlistError> {
        let kv = sigma_kv(card, &self.params)?;
        let want_kind = match card.kind.text.as_str() {
            "pelgrom" => DevKind::Mosfet,
            "r" => DevKind::Resistor,
            "c" => DevKind::Capacitor,
            _ => DevKind::Inductor,
        };
        let targets: Vec<DeviceId> = self
            .added
            .iter()
            .filter(|a| a.kind == want_kind && glob_match(&card.pattern.text, &a.label))
            .map(|a| a.id)
            .collect();
        if targets.is_empty() {
            return Err(NetlistError::UnknownLabel {
                span: card.pattern.span,
                name: card.pattern.text.clone(),
            });
        }
        match kv {
            SigmaKv::Pelgrom { avt, abeta } => {
                for id in targets {
                    self.circuit.annotate_pelgrom(id, avt, abeta);
                }
            }
            SigmaKv::Passive { sigma } => {
                for id in targets {
                    match want_kind {
                        DevKind::Resistor => {
                            self.circuit.annotate_resistor_mismatch(id, sigma);
                        }
                        DevKind::Capacitor => {
                            self.circuit.annotate_capacitor_mismatch(id, sigma);
                        }
                        _ => {
                            self.circuit.annotate_inductor_mismatch(id, sigma);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Finds a device by exact label and kind for `.sweep` targeting.
    fn find_target(&self, name: &Name, kinds: &[DevKind]) -> Result<DeviceId, NetlistError> {
        self.added
            .iter()
            .find(|a| a.label == name.text && kinds.contains(&a.kind))
            .map(|a| a.id)
            .ok_or_else(|| NetlistError::UnknownLabel {
                span: name.span,
                name: name.text.clone(),
            })
    }

    /// Lowers one `.sweep` card to a labeled override axis.
    fn sweep_axis(&self, card: &SweepCard) -> Result<SweepAxis, NetlistError> {
        let mut points = Vec::with_capacity(card.values.len());
        match card.kind.text.as_str() {
            "sigma" => {
                for v in &card.values {
                    let factor = env_eval_finite(&self.params, v, "sigma factor")?;
                    if factor < 0.0 {
                        return Err(NetlistError::InvalidValue {
                            span: v.span,
                            what: "sigma factor".to_string(),
                            reason: "must be non-negative".to_string(),
                        });
                    }
                    points.push((
                        format!("sigma={}", v.expr),
                        CircuitOverride::SigmaScale { factor },
                    ));
                }
            }
            kind => {
                let target = card.target.as_ref().expect("parser ensures a target");
                let (kinds, what): (&[DevKind], &str) = match kind {
                    "source" | "scale" => (&[DevKind::Vsource, DevKind::Isource], "source level"),
                    "r" => (&[DevKind::Resistor], "resistance"),
                    "c" => (&[DevKind::Capacitor], "capacitance"),
                    "l" => (&[DevKind::Inductor], "inductance"),
                    _ => (&[DevKind::Mosfet], "channel width"),
                };
                let device = self.find_target(target, kinds)?;
                for v in &card.values {
                    let ov = match kind {
                        "source" => CircuitOverride::SourceDc {
                            device,
                            value: env_eval_finite(&self.params, v, what)?,
                        },
                        "scale" => CircuitOverride::SourceScale {
                            device,
                            factor: env_eval_finite(&self.params, v, what)?,
                        },
                        "r" => CircuitOverride::Resistance {
                            device,
                            ohms: eval_positive_in(&self.params, v, what)?,
                        },
                        "c" => CircuitOverride::Capacitance {
                            device,
                            farads: eval_positive_in(&self.params, v, what)?,
                        },
                        "l" => CircuitOverride::Inductance {
                            device,
                            henries: eval_positive_in(&self.params, v, what)?,
                        },
                        _ => CircuitOverride::MosWidth {
                            device,
                            width: eval_positive_in(&self.params, v, what)?,
                        },
                    };
                    points.push((format!("{}={}", target.text, v.expr), ov));
                }
            }
        }
        Ok(SweepAxis { points })
    }

    /// Lowers one `.measure` card to a metric spec.
    fn measure(&self, card: &MeasureCard) -> Result<MetricSpec, NetlistError> {
        let find_node = |name: &Name| -> Result<NodeId, NetlistError> {
            self.circuit
                .find_node(&name.text)
                .map_err(|_| NetlistError::UnknownLabel {
                    span: name.span,
                    name: name.text.clone(),
                })
        };
        let metric = match card.kind.text.as_str() {
            "avg" => Metric::DcAverage {
                node: find_node(card.node.as_ref().expect("parser ensures a node"))?,
            },
            "freq" => Metric::Frequency,
            _ => {
                let node = find_node(card.node.as_ref().expect("parser ensures a node"))?;
                let mut threshold = None;
                let mut t_after = 0.0;
                let mut t_ref = 0.0;
                for (key, value) in &card.kv {
                    let v = env_eval_finite(&self.params, value, &key.text)?;
                    match key.text.as_str() {
                        "threshold" => threshold = Some(v),
                        "after" => t_after = v,
                        "ref" => t_ref = v,
                        _ => {
                            return Err(NetlistError::Syntax {
                                span: key.span,
                                what: format!("unknown `.measure delay` key `{}`", key.text),
                            })
                        }
                    }
                }
                let threshold = threshold.ok_or_else(|| NetlistError::Syntax {
                    span: card.name.span,
                    what: "`.measure delay` needs `threshold=`".to_string(),
                })?;
                let edge = card.edge.as_ref().ok_or_else(|| NetlistError::Syntax {
                    span: card.name.span,
                    what: "`.measure delay` needs `edge=rise` or `edge=fall`".to_string(),
                })?;
                let edge = match edge.text.as_str() {
                    "rise" => Edge::Rising,
                    "fall" => Edge::Falling,
                    other => {
                        return Err(NetlistError::Syntax {
                            span: card.edge.as_ref().unwrap().span,
                            what: format!("edge must be `rise` or `fall`, not `{other}`"),
                        })
                    }
                };
                Metric::CrossingShift {
                    node,
                    threshold,
                    edge,
                    t_after,
                    t_ref,
                }
            }
        };
        Ok(MetricSpec::new(&card.name.text, metric))
    }

    /// Lowers one `.pss` card (nodes must already exist).
    fn analysis_pss(&self, span: Span, card: &PssCard) -> Result<Analysis, NetlistError> {
        let mut n_steps = None;
        let mut warmup = None;
        let mut tol = None;
        let mut step_limit = None;
        let mut hint = None;
        let mut phase_value = None;
        for (key, value) in &card.kv {
            match key.text.as_str() {
                "steps" => n_steps = Some(eval_count(&self.params, value, "steps")?),
                "warmup" if !card.osc => warmup = Some(eval_count(&self.params, value, "warmup")?),
                "tol" => tol = Some(eval_positive_in(&self.params, value, "tol")?),
                "step_limit" if !card.osc => {
                    step_limit = Some(eval_positive_in(&self.params, value, "step_limit")?)
                }
                "hint" if card.osc => {
                    hint = Some(eval_positive_in(&self.params, value, "period hint")?)
                }
                "value" if card.osc => {
                    phase_value = Some(env_eval_finite(&self.params, value, "phase value")?)
                }
                _ => {
                    return Err(NetlistError::Syntax {
                        span: key.span,
                        what: format!("unknown `.pss` key `{}`", key.text),
                    })
                }
            }
        }
        if card.osc {
            let period_hint = hint.ok_or_else(|| NetlistError::Syntax {
                span,
                what: "`.pss osc` needs `hint=`".to_string(),
            })?;
            let node = card.node.as_ref().ok_or_else(|| NetlistError::Syntax {
                span,
                what: "`.pss osc` needs `node=`".to_string(),
            })?;
            let phase_node =
                self.circuit
                    .find_node(&node.text)
                    .map_err(|_| NetlistError::UnknownLabel {
                        span: node.span,
                        name: node.text.clone(),
                    })?;
            let phase_value = phase_value.ok_or_else(|| NetlistError::Syntax {
                span,
                what: "`.pss osc` needs `value=`".to_string(),
            })?;
            Ok(Analysis::PssAutonomous {
                period_hint,
                phase_node,
                phase_value,
                n_steps,
                tol,
            })
        } else {
            let period = card.period.as_ref().expect("parser ensures a period");
            let period = eval_positive_in(&self.params, period, "period")?;
            if card.node.is_some() {
                return Err(NetlistError::Syntax {
                    span,
                    what: "`node=` is only valid on `.pss osc`".to_string(),
                });
            }
            Ok(Analysis::PssDriven {
                period,
                n_steps,
                warmup_cycles: warmup,
                tol,
                step_limit,
            })
        }
    }
}

/// The evaluated payload of a `.sigma` card.
enum SigmaKv {
    Pelgrom { avt: f64, abeta: f64 },
    Passive { sigma: f64 },
}

fn sigma_kv(card: &SigmaCard, params: &HashMap<String, f64>) -> Result<SigmaKv, NetlistError> {
    let mut avt = None;
    let mut abeta = None;
    let mut sigma = None;
    for (key, value) in &card.kv {
        let expect_pelgrom = card.kind.text == "pelgrom";
        match key.text.as_str() {
            "avt" if expect_pelgrom => {
                avt = Some(eval_positive_in(params, value, "avt")?);
            }
            "abeta" if expect_pelgrom => {
                abeta = Some(eval_positive_in(params, value, "abeta")?);
            }
            "sigma" if !expect_pelgrom => {
                sigma = Some(eval_positive_in(params, value, "sigma")?);
            }
            _ => {
                return Err(NetlistError::Syntax {
                    span: key.span,
                    what: format!("unknown `.sigma {}` key `{}`", card.kind.text, key.text),
                })
            }
        }
    }
    if card.kind.text == "pelgrom" {
        let avt = avt.ok_or_else(|| NetlistError::Syntax {
            span: card.kind.span,
            what: "`.sigma pelgrom` needs `avt=`".to_string(),
        })?;
        let abeta = abeta.ok_or_else(|| NetlistError::Syntax {
            span: card.kind.span,
            what: "`.sigma pelgrom` needs `abeta=`".to_string(),
        })?;
        Ok(SigmaKv::Pelgrom { avt, abeta })
    } else {
        let sigma = sigma.ok_or_else(|| NetlistError::Syntax {
            span: card.kind.span,
            what: format!("`.sigma {}` needs `sigma=`", card.kind.text),
        })?;
        Ok(SigmaKv::Passive { sigma })
    }
}

/// One sweep axis: labeled override points.
struct SweepAxis {
    points: Vec<(String, CircuitOverride)>,
}

fn env_eval_finite(env: &HashMap<String, f64>, v: &Value, what: &str) -> Result<f64, NetlistError> {
    let x = v.expr.eval(env)?;
    if !x.is_finite() {
        return Err(NetlistError::InvalidValue {
            span: v.span,
            what: what.to_string(),
            reason: "must be finite".to_string(),
        });
    }
    Ok(x)
}

fn eval_positive_in(
    env: &HashMap<String, f64>,
    v: &Value,
    what: &str,
) -> Result<f64, NetlistError> {
    let x = env_eval_finite(env, v, what)?;
    if x <= 0.0 {
        return Err(NetlistError::InvalidValue {
            span: v.span,
            what: what.to_string(),
            reason: "must be positive".to_string(),
        });
    }
    Ok(x)
}

fn eval_count(env: &HashMap<String, f64>, v: &Value, what: &str) -> Result<usize, NetlistError> {
    let x = env_eval_finite(env, v, what)?;
    if x < 0.0 || x.fract() != 0.0 || x > 1e9 {
        return Err(NetlistError::InvalidValue {
            span: v.span,
            what: what.to_string(),
            reason: "must be a non-negative integer".to_string(),
        });
    }
    Ok(x as usize)
}

/// Elaborates a parsed deck into a circuit plus campaign inputs.
///
/// See the module docs for ordering semantics. All failures are spanned
/// [`NetlistError`]s; this function never panics on any input.
pub fn elaborate(deck: &Deck) -> Result<Elaboration, NetlistError> {
    let mut el = Elaborator::new();
    let top_rename = |name: &Name| name.clone();

    // Pass 1, in card order: definitions and elements.
    let mut sigma_cards = Vec::new();
    let mut sweep_cards = Vec::new();
    let mut measure_cards = Vec::new();
    let mut option_cards = Vec::new();
    let mut analysis_card: Option<&Card> = None;
    for card in &deck.cards {
        match &card.kind {
            CardKind::Node(nodes) => el.declare_nodes(nodes),
            CardKind::Param(name, value) => el.define_param(name, value)?,
            CardKind::Model(m) => el.define_model(m)?,
            CardKind::Subckt(def) => {
                if el.subckts.contains_key(&def.name.text) {
                    return Err(NetlistError::Syntax {
                        span: def.name.span,
                        what: format!("subcircuit `{}` is defined twice", def.name.text),
                    });
                }
                el.subckts.insert(def.name.text.clone(), def.clone());
            }
            CardKind::Element(e) => {
                let env = el.params.clone();
                el.add_element(e, &env, &top_rename)?;
            }
            CardKind::Instance(x) => el.add_instance(x)?,
            CardKind::Sigma(s) => sigma_cards.push(s),
            CardKind::Sweep(s) => sweep_cards.push(s),
            CardKind::Measure(m) => measure_cards.push(m),
            CardKind::Option(kv) => option_cards.push(kv),
            CardKind::Tran(..) | CardKind::Pss(_) => {
                if analysis_card.is_some() {
                    return Err(NetlistError::Syntax {
                        span: card.span,
                        what: "deck has more than one analysis card".to_string(),
                    });
                }
                analysis_card = Some(card);
            }
            CardKind::End => {}
        }
    }

    // Dangling-node lint: every non-ground node needs >= 2 terminal
    // connections (a `.node`-declared-but-unused node has 0).
    for (name, span, count) in &el.node_refs {
        if *count < 2 {
            return Err(NetlistError::DanglingNode {
                span: *span,
                node: name.clone(),
            });
        }
    }

    // Pass 2: campaign cards against the complete circuit.
    for s in &sigma_cards {
        el.apply_sigma(s)?;
    }
    let mut axes = Vec::with_capacity(sweep_cards.len());
    for s in &sweep_cards {
        axes.push(el.sweep_axis(s)?);
    }
    let scenarios = cross_product(&axes);
    let mut metrics = Vec::with_capacity(measure_cards.len());
    for m in &measure_cards {
        metrics.push(el.measure(m)?);
    }
    let mut retry = false;
    let mut deadline_ms = None;
    for kv in &option_cards {
        for (key, value) in kv.iter() {
            match key.text.as_str() {
                "retry" => retry = env_eval_finite(&el.params, value, "retry")? != 0.0,
                "deadline_ms" => {
                    let v = env_eval_finite(&el.params, value, "deadline_ms")?;
                    if v < 0.0 || v.fract() != 0.0 {
                        return Err(NetlistError::InvalidValue {
                            span: value.span,
                            what: "deadline_ms".to_string(),
                            reason: "must be a non-negative integer".to_string(),
                        });
                    }
                    deadline_ms = Some(v as u64);
                }
                _ => {
                    return Err(NetlistError::Syntax {
                        span: key.span,
                        what: format!("unknown `.option` key `{}`", key.text),
                    })
                }
            }
        }
    }
    let analysis = match analysis_card {
        None => None,
        Some(card) => Some(match &card.kind {
            CardKind::Tran(tstep, tstop) => {
                let dt = el.eval_positive(tstep, "tran step")?;
                let stop = el.eval_positive(tstop, "tran stop time")?;
                Analysis::Tran {
                    tstep: dt,
                    tstop: stop,
                }
            }
            CardKind::Pss(p) => el.analysis_pss(card.span, p)?,
            _ => unreachable!("analysis_card holds only Tran/Pss"),
        }),
    };

    Ok(Elaboration {
        title: deck.title.clone(),
        circuit: el.circuit,
        analysis,
        metrics,
        scenarios,
        retry,
        deadline_ms,
    })
}

/// Cross product of sweep axes, later axes varying fastest. With no axes,
/// a single `"nominal"` scenario with no overrides.
fn cross_product(axes: &[SweepAxis]) -> Vec<Scenario> {
    if axes.is_empty() {
        return vec![Scenario::new("nominal", vec![])];
    }
    let mut scenarios = vec![Scenario::new(String::new(), vec![])];
    for axis in axes {
        let mut next = Vec::with_capacity(scenarios.len() * axis.points.len());
        for sc in &scenarios {
            for (label, ov) in &axis.points {
                let name = if sc.name.is_empty() {
                    label.clone()
                } else {
                    format!("{} {label}", sc.name)
                };
                let mut overrides = sc.overrides.clone();
                overrides.push(ov.clone());
                next.push(Scenario::new(name, overrides));
            }
        }
        scenarios = next;
    }
    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn elab(src: &str) -> Result<Elaboration, NetlistError> {
        elaborate(&parse(src)?)
    }

    #[test]
    fn divider_matches_handbuilt() {
        let e = elab(
            "divider\n\
             V1 a 0 2.0\n\
             R1 a b 1e3\n\
             R2 b 0 1e3\n\
             C1 b 0 1e-12\n\
             .sigma r R1 sigma=10\n\
             .pss 1e-6 steps=16\n\
             .measure vout avg b\n",
        )
        .unwrap();
        let mut want = Circuit::new();
        let a = want.node("a");
        let b = want.node("b");
        want.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
        let r1 = want.add_resistor("R1", a, b, 1e3);
        want.add_resistor("R2", b, NodeId::GROUND, 1e3);
        want.add_capacitor("C1", b, NodeId::GROUND, 1e-12);
        want.annotate_resistor_mismatch(r1, 10.0);
        assert_eq!(format!("{:?}", e.circuit), format!("{want:?}"));
        assert_eq!(e.metrics.len(), 1);
        assert_eq!(e.scenarios, vec![Scenario::new("nominal", vec![])]);
        assert!(matches!(
            e.analysis,
            Some(Analysis::PssDriven {
                n_steps: Some(16),
                ..
            })
        ));
    }

    #[test]
    fn params_subckts_and_instances_flatten() {
        let e = elab(
            "flat\n\
             .param u=1.0e-6\n\
             .model nch nmos\n\
             .model pch pmos\n\
             .subckt inv vdd in out strength=1.0\n\
             MP out in vdd pch w='2.0*u*strength' l=0.13e-6\n\
             MN out in 0 nch w='u*strength' l=0.13e-6\n\
             .ends\n\
             V1 vdd 0 1.2\n\
             V2 a 0 0.6\n\
             Xi0 vdd a b inv strength=0.75\n\
             C1 b 0 1e-15\n",
        )
        .unwrap();
        // Flattened names follow the builders' `{label}.{name}` scheme.
        assert!(e.circuit.find_device("i0.MP").is_ok());
        assert!(e.circuit.find_device("i0.MN").is_ok());
        assert!(e.circuit.find_node("i0.out").is_err(), "out is a port");
        let id = e.circuit.find_device("i0.MP").unwrap();
        match &e.circuit.devices()[id.index()] {
            tranvar_circuit::Device::Mosfet(m) => {
                assert_eq!(m.w.to_bits(), (2.0 * 1.0e-6 * 0.75f64).to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sweeps_cross_product_later_fastest() {
        let e = elab(
            "sweeps\n\
             V1 a 0 2.0\n\
             R1 a 0 1e3\n\
             .sweep source V1 1.8 2.2\n\
             .sweep sigma 1.0 2.0\n",
        )
        .unwrap();
        let names: Vec<&str> = e.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "V1=1.8 sigma=1.0",
                "V1=1.8 sigma=2.0",
                "V1=2.2 sigma=1.0",
                "V1=2.2 sigma=2.0",
            ]
        );
        assert_eq!(e.scenarios[0].overrides.len(), 2);
    }

    #[test]
    fn elaboration_errors_are_typed() {
        // dangling node: `c` has a single connection
        assert!(matches!(
            elab("t\nV1 a 0 1.0\nR1 a c 1e3\n"),
            Err(NetlistError::DanglingNode { .. })
        ));
        // undefined param
        assert!(matches!(
            elab("t\nV1 a 0 1.0\nR1 a 0 'r0'\n"),
            Err(NetlistError::UndefinedParam { .. })
        ));
        // duplicate model
        assert!(matches!(
            elab("t\n.model m nmos\n.model m pmos\nV1 a 0 1.0\nR1 a 0 1e3\n"),
            Err(NetlistError::DuplicateModel { .. })
        ));
        // unknown model
        assert!(matches!(
            elab("t\nV1 a 0 1.0\nM1 a a 0 nope w=1e-6 l=1e-7\n"),
            Err(NetlistError::UnknownModel { .. })
        ));
        // duplicate device
        assert!(matches!(
            elab("t\nV1 a 0 1.0\nR1 a 0 1e3\nR1 a 0 2e3\n"),
            Err(NetlistError::DuplicateDevice { .. })
        ));
        // non-positive value caught before the builder assert
        assert!(matches!(
            elab("t\nV1 a 0 1.0\nR1 a 0 '0.0-5.0'\n"),
            Err(NetlistError::InvalidValue { .. })
        ));
        // unknown subckt / port mismatch
        assert!(matches!(
            elab("t\nV1 a 0 1.0\nX1 a nope\nR1 a 0 1e3\n"),
            Err(NetlistError::UnknownSubckt { .. })
        ));
        // sigma with no matching device
        assert!(matches!(
            elab("t\nV1 a 0 1.0\nR1 a 0 1e3\n.sigma r Q* sigma=1\n"),
            Err(NetlistError::UnknownLabel { .. })
        ));
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("*", "anything"));
        assert!(glob_match("M*", "M2"));
        assert!(glob_match("*.MP", "inv0.MP"));
        assert!(!glob_match("M*", "R1"));
        assert!(glob_match("R1", "R1"));
        assert!(!glob_match("R1", "R12"));
    }
}
