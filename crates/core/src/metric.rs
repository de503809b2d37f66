//! Performance metrics extracted from the PSS orbit and its per-parameter
//! periodic perturbations (paper Sections IV–V).
//!
//! Each metric maps the PSS solution to a nominal value and, through a
//! readout bound to that orbit, each parameter's periodic response to a
//! linear sensitivity:
//!
//! - [`Metric::DcAverage`]: the cycle-mean of a node (the comparator's
//!   input-referred offset in the Fig. 6 testbench) — the baseband (N=0)
//!   readout of Section V-A,
//! - [`Metric::CrossingShift`]: a threshold-crossing time (logic-path delay,
//!   Section IV-B) — the time-domain equivalent of the first-sideband phase
//!   readout of Section V-B (`Δt_c = −δv(t_c)/v̇(t_c)`),
//! - [`Metric::Frequency`]: oscillator frequency from the period sensitivity
//!   `δf = −δT/T²` (Section V-C).

use crate::error::CoreError;
use tranvar_circuit::{Circuit, NodeId};
use tranvar_num::interp::{
    first_crossing_after, is_uniform_grid, lerp_at, nearest_index, time_weighted_mean, Edge,
};
use tranvar_pss::PssSolution;

/// Cycle-mean of a periodic waveform sampled on `times` (with the period
/// endpoint duplicating sample 0). Uniform grids (`uniform`, from
/// [`is_uniform_grid`]) keep the historical arithmetic mean over the first
/// `n` samples bit-identical; adaptive grids use the trapezoidal
/// time-weighted mean, which the duplicated endpoint makes exact for the
/// closed orbit.
fn cycle_mean(uniform: bool, times: &[f64], w: &[f64]) -> f64 {
    if uniform {
        w[..w.len() - 1].iter().sum::<f64>() / (w.len() - 1) as f64
    } else {
        time_weighted_mean(times, w)
    }
}

/// A transient performance metric.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Metric {
    /// Cycle-average (DC component) of a node voltage.
    DcAverage {
        /// Observed node.
        node: NodeId,
    },
    /// Time of the first `edge` crossing of `threshold` on `node` at or
    /// after `t_after`, reported relative to `t_ref` (e.g. the known input
    /// edge time), i.e. a delay.
    CrossingShift {
        /// Observed node.
        node: NodeId,
        /// Crossing threshold (V).
        threshold: f64,
        /// Crossing direction.
        edge: Edge,
        /// Earliest time considered within the period.
        t_after: f64,
        /// Reference time subtracted from the crossing (0 for absolute).
        t_ref: f64,
    },
    /// Oscillation frequency `1/T` of an autonomous orbit.
    Frequency,
}

impl Metric {
    /// Short human-readable kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Metric::DcAverage { .. } => "dc-average",
            Metric::CrossingShift { .. } => "delay",
            Metric::Frequency => "frequency",
        }
    }

    /// Nominal value of the metric on the PSS orbit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Metric`] if the metric cannot be measured
    /// (missing crossing, frequency of a driven circuit, ...).
    pub fn nominal(&self, ckt: &Circuit, sol: &PssSolution) -> Result<f64, CoreError> {
        Ok(self.readout(ckt, sol)?.nominal)
    }

    /// Binds the metric to a PSS orbit: the nominal value plus everything
    /// the per-parameter sensitivity reads from the orbit (the crossing
    /// time, the slope there, the grid kind), computed once.
    ///
    /// # Errors
    ///
    /// See [`Metric::nominal`].
    pub(crate) fn readout(&self, ckt: &Circuit, sol: &PssSolution) -> Result<Readout, CoreError> {
        match self {
            Metric::DcAverage { node } => {
                let uniform = is_uniform_grid(&sol.times, 1e-9);
                let w = sol.node_waveform(ckt, *node);
                Ok(Readout {
                    nominal: cycle_mean(uniform, &sol.times, &w),
                    read: Read::Mean {
                        node: *node,
                        uniform,
                        last: sol.times.len() - 1,
                    },
                })
            }
            Metric::CrossingShift {
                node,
                threshold,
                edge,
                t_after,
                t_ref,
            } => {
                let w = sol.node_waveform(ckt, *node);
                let tc = first_crossing_after(&sol.times, &w, *threshold, *edge, *t_after)
                    .ok_or_else(|| {
                        CoreError::Metric(format!(
                            "no {edge:?} crossing of {threshold} on `{}` after {t_after:.3e}",
                            ckt.node_name(*node)
                        ))
                    })?;
                // Slope of the nominal waveform at the crossing.
                let slope = sol.node_slope(ckt, *node)[nearest_index(&sol.times, tc)];
                // `lerp_at` on `times[..=last]` brackets `tc` exactly as on
                // the whole grid: `last` is the first sample at or after it.
                let last = sol.times.partition_point(|&t| t < tc);
                Ok(Readout {
                    nominal: tc - t_ref,
                    read: Read::Crossing {
                        node: *node,
                        tc,
                        slope,
                        last: last.min(sol.times.len() - 1),
                    },
                })
            }
            Metric::Frequency => {
                if sol.dphi_dt.is_none() {
                    return Err(CoreError::Metric(
                        "frequency metric requires an autonomous pss solution".into(),
                    ));
                }
                Ok(Readout {
                    nominal: sol.fundamental(),
                    read: Read::Period { period: sol.period },
                })
            }
        }
    }
}

/// A [`Metric`] bound to one PSS orbit ([`Metric::readout`]): its nominal
/// value and the rule that turns one parameter's periodic response into a
/// linear sensitivity. Every sensitivity in the workspace is formed by
/// [`Readout::sensitivity`], whether the response was propagated for the
/// read node only or materialized in full.
#[derive(Debug)]
pub(crate) struct Readout {
    /// Nominal value of the metric on the orbit.
    pub(crate) nominal: f64,
    read: Read,
}

/// What a [`Readout`] reads of a response, and how.
#[derive(Debug)]
enum Read {
    /// Cycle mean of the node's perturbation over samples `0..=last`, the
    /// whole period.
    Mean {
        node: NodeId,
        uniform: bool,
        last: usize,
    },
    /// `Δt_c = −δv(t_c)/v̇(t_c)`, with `δv` interpolated on samples
    /// `0..=last`.
    Crossing {
        node: NodeId,
        tc: f64,
        slope: f64,
        last: usize,
    },
    /// `δf = −δT/T²`.
    Period { period: f64 },
}

impl Readout {
    /// The node this readout reads and the last sample index it reads;
    /// `None` when it reads only the period sensitivity `δT`.
    pub(crate) fn reads(&self) -> Option<(NodeId, usize)> {
        match self.read {
            Read::Mean { node, last, .. } | Read::Crossing { node, last, .. } => Some((node, last)),
            Read::Period { .. } => None,
        }
    }

    /// Linear sensitivity of the metric to a unit parameter change, from
    /// that parameter's response: `wave` holds the read node's perturbation
    /// on the PSS grid `times` through at least the last sample
    /// [`Readout::reads`] names (ignored when it names none), `dperiod`
    /// the period sensitivity `δT`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Metric`] for a crossing where the nominal waveform has
    /// zero slope.
    pub(crate) fn sensitivity(
        &self,
        ckt: &Circuit,
        times: &[f64],
        wave: &[f64],
        dperiod: f64,
    ) -> Result<f64, CoreError> {
        match self.read {
            // The periodic response is sampled on the same (possibly
            // adaptive) grid as the orbit it perturbs.
            Read::Mean { uniform, last, .. } => {
                Ok(cycle_mean(uniform, &times[..=last], &wave[..=last]))
            }
            Read::Crossing {
                node,
                tc,
                slope,
                last,
            } => {
                if slope == 0.0 {
                    return Err(CoreError::Metric(format!(
                        "zero slope at crossing on `{}`",
                        ckt.node_name(node)
                    )));
                }
                let dv = lerp_at(&times[..=last], &wave[..=last], tc);
                Ok(-dv / slope)
            }
            Read::Period { period } => Ok(-dperiod / (period * period)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tranvar_circuit::Waveform;
    use tranvar_pss::{shooting_pss, PssOptions};

    #[test]
    fn dc_average_of_static_circuit() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(2.0));
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_resistor("R2", b, NodeId::GROUND, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-12);
        let mut opts = PssOptions::default();
        opts.n_steps = 16;
        let sol = shooting_pss(&ckt, 1e-6, &opts).unwrap();
        let m = Metric::DcAverage { node: b };
        assert!((m.nominal(&ckt, &sol).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(m.kind(), "dc-average");
    }

    /// What each readout reads: a cycle mean every sample, a crossing
    /// only through the first sample at or after it.
    #[test]
    fn readouts_read_only_what_they_need() {
        use tranvar_circuit::Pulse;
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
                rise: 1e-8,
                fall: 1e-8,
                width: 4e-6,
                period: 10e-6,
            }),
        );
        ckt.add_resistor("R1", a, b, 1e3);
        ckt.add_capacitor("C1", b, NodeId::GROUND, 1e-9);
        let mut opts = PssOptions::default();
        opts.n_steps = 100;
        let sol = shooting_pss(&ckt, 10e-6, &opts).unwrap();
        let mean = Metric::DcAverage { node: b }.readout(&ckt, &sol).unwrap();
        assert_eq!(mean.reads(), Some((b, 100)));
        let crossing = Metric::CrossingShift {
            node: b,
            threshold: 0.5,
            edge: Edge::Rising,
            t_after: 1e-6,
            t_ref: 1e-6,
        };
        let readout = crossing.readout(&ckt, &sol).unwrap();
        let tc = readout.nominal + 1e-6;
        let (node, last) = readout.reads().unwrap();
        assert_eq!(node, b);
        assert!(sol.times[last] >= tc && sol.times[last - 1] < tc, "{last}");
        assert!(
            last < 20,
            "the crossing is ~1.7 µs into a 10 µs period: {last}"
        );
    }

    #[test]
    fn frequency_requires_autonomous() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        ckt.add_resistor("R1", a, NodeId::GROUND, 1e3);
        let mut opts = PssOptions::default();
        opts.n_steps = 8;
        let sol = shooting_pss(&ckt, 1e-6, &opts).unwrap();
        assert!(matches!(
            Metric::Frequency.nominal(&ckt, &sol),
            Err(CoreError::Metric(_))
        ));
    }

    #[test]
    fn missing_crossing_is_metric_error() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, NodeId::GROUND, Waveform::Dc(1.0));
        ckt.add_resistor("R1", a, NodeId::GROUND, 1e3);
        let mut opts = PssOptions::default();
        opts.n_steps = 8;
        let sol = shooting_pss(&ckt, 1e-6, &opts).unwrap();
        let m = Metric::CrossingShift {
            node: a,
            threshold: 5.0,
            edge: Edge::Rising,
            t_after: 0.0,
            t_ref: 0.0,
        };
        assert!(matches!(m.nominal(&ckt, &sol), Err(CoreError::Metric(_))));
    }
}
