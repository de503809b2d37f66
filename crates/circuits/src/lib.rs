//! # tranvar-circuits
//!
//! The benchmark circuits of the paper's evaluation (Section VI), built on a
//! calibrated 0.13 µm-class technology:
//!
//! - [`tech`]: model cards + Pelgrom coefficients (AVT = 6.5 mV·µm,
//!   Aβ = 3.25 %·µm), calibrated near the paper's quoted 3σ(I_DS) ≈ 14%
//!   operating point,
//! - [`gates`]: CMOS inverter/NAND builders with mismatch annotations,
//! - [`strongarm`]: the StrongARM clocked comparator (Fig. 10a) with the
//!   metastability feedback testbench (Fig. 6) and two Monte-Carlo offset
//!   measurement kernels,
//! - [`logic_path`]: the Fig. 7 shared/disjoint critical-path pair behind
//!   Table I,
//! - [`ring_osc`]: the 5-stage ring oscillator of Figs. 11–12,
//! - [`dac`]: the R-string DAC DNL example of eq. (13).

#![warn(missing_docs)]

pub mod dac;
pub mod gates;
pub mod logic_path;
pub mod ring_osc;
pub mod strongarm;
pub mod tech;

pub use dac::RStringDac;
pub use logic_path::{ArrivalOrder, LogicPath};
pub use ring_osc::RingOsc;
pub use strongarm::StrongArm;
pub use tech::Tech;

#[cfg(test)]
mod tests {
    use super::*;
    use tranvar_engine::{
        dc_operating_point, integrate_cycle, BudgetLimits, CycleWorkspace, DcOptions, SolveBudget,
    };
    use tranvar_pss::shooting_pss;

    /// An unrecorded (warm-up) cycle stops each step on the loose abs+rel
    /// Newton test, a recorded one on `vtol`. On both driven paper decks,
    /// from the DC point and from the solved orbit's start, the unrecorded
    /// endpoint lands within a tenth of the shooting tolerance of the
    /// recorded one, for fewer Newton iterations.
    #[test]
    fn unrecorded_cycle_lands_within_tol() {
        let tech = Tech::t013();
        let sa = StrongArm::paper(&tech);
        let path = LogicPath::new(&tech, ArrivalOrder::XFirst);
        let decks = [
            ("StrongARM", &sa.circuit, sa.period, sa.pss_options()),
            ("logic path", &path.circuit, path.period, path.pss_options()),
        ];
        for (name, ckt, period, opts) in decks {
            let dc_opts = DcOptions {
                newton: opts.newton.clone(),
                ..DcOptions::default()
            };
            let dc = dc_operating_point(ckt, &dc_opts).unwrap();
            let orbit = shooting_pss(ckt, period, &opts)
                .unwrap()
                .states
                .swap_remove(0);
            for (start, x0) in [("DC", &dc), ("orbit", &orbit)] {
                // The endpoint of one cycle and the Newton iterations it
                // charged to a counting budget.
                let end = |record: bool| {
                    let mut newton = opts.newton.clone();
                    newton.budget =
                        SolveBudget::new(BudgetLimits::default().max_newton_iters(u64::MAX));
                    let cyc = integrate_cycle(
                        ckt,
                        &mut CycleWorkspace::new(),
                        x0,
                        0.0,
                        period,
                        opts.n_steps,
                        &opts.step_control,
                        opts.method,
                        &newton,
                        opts.gmin,
                        record,
                    )
                    .unwrap();
                    (
                        cyc.states.last().unwrap().clone(),
                        newton.budget.newton_iters(),
                    )
                };
                let (loose, loose_iters) = end(false);
                let (strict, strict_iters) = end(true);
                let gap = loose
                    .iter()
                    .zip(&strict)
                    .map(|(u, v)| (u - v).abs())
                    .fold(0.0, f64::max);
                assert!(
                    gap <= opts.tol / 10.0,
                    "{name} from {start}: endpoint gap {gap:e}, tol {:e}",
                    opts.tol
                );
                assert!(
                    loose_iters < strict_iters,
                    "{name} from {start}: {loose_iters} vs {strict_iters} iterations"
                );
            }
        }
    }
}
