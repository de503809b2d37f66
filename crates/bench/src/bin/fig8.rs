//! Fig. 8 — statistical waveform: the PSS orbit of a node overlaid with its
//! 1-sigma mismatch envelope from the time-domain pseudo-noise analysis.

use tranvar_circuits::{ArrivalOrder, LogicPath, Tech};
use tranvar_core::solve_pss;
use tranvar_core::PssConfig;
use tranvar_engine::Session;
use tranvar_lptv::{statistical_waveform, PeriodicSolver};

fn main() {
    let tech = Tech::t013();
    let path = LogicPath::new(&tech, ArrivalOrder::XFirst);
    let pss = solve_pss(
        &path.circuit,
        &PssConfig::Driven {
            period: path.period,
            opts: path.pss_options(),
        },
    )
    .expect("pss");
    let solver =
        PeriodicSolver::with_session(&path.circuit, &pss, &Session::default()).expect("lptv");
    let (times, nominal, sigma) =
        statistical_waveform(&path.circuit, &solver, path.out_a).expect("waveform");
    println!("Fig. 8: statistical waveform of logic-path output A");
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>12}",
        "t[ns]", "v[V]", "sigma[mV]", "v-3s[V]", "v+3s[V]"
    );
    // Print every 8th point to keep the table readable.
    for i in (0..times.len()).step_by(8) {
        println!(
            "{:>12.4} {:>12.5} {:>12.4} {:>12.5} {:>12.5}",
            times[i] * 1e9,
            nominal[i],
            sigma[i] * 1e3,
            nominal[i] - 3.0 * sigma[i],
            nominal[i] + 3.0 * sigma[i]
        );
    }
    let peak = sigma.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\npeak sigma(t) = {:.3} mV (largest mismatch sensitivity at the switching edges)",
        peak * 1e3
    );
}
