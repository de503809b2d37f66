//! Ablation benches for DESIGN.md's design choices:
//! - transient forward sensitivity (paper ref. [23]) vs the LPTV route,
//! - dense vs sparse Jacobian factorization,
//! - per-noise-source marginal cost of the LPTV stage (the "free breakdown"
//!   claim).

use tranvar_bench::bench_report;
use tranvar_circuits::{ArrivalOrder, LogicPath, Tech};
use tranvar_core::prelude::*;
use tranvar_core::solve_pss;
use tranvar_engine::transens::{transient_with_sensitivities, SensInit};
use tranvar_engine::{Session, SolverKind, TranOptions};
use tranvar_lptv::PeriodicSolver;

fn main() {
    let tech = Tech::t013();
    let path = LogicPath::new(&tech, ArrivalOrder::XFirst);
    let config = PssConfig::Driven {
        period: path.period,
        opts: path.pss_options(),
    };

    bench_report("sensitivity_route/lptv_full_flow", || {
        analyze(&path.circuit, &config, &path.delay_metrics()).unwrap();
    });
    bench_report("sensitivity_route/transient_forward_sens", || {
        let opts = TranOptions::new(path.period, path.period / 800.0);
        transient_with_sensitivities(&path.circuit, &opts, SensInit::FromDc).unwrap();
    });

    let pss = solve_pss(&path.circuit, &config).unwrap();
    let solver = PeriodicSolver::with_session(&path.circuit, &pss, &Session::default()).unwrap();
    bench_report("lptv_marginal/one_source_response", || {
        solver.param_response(0).unwrap();
    });
    bench_report("lptv_marginal/all_source_responses_batched", || {
        solver.all_param_responses().unwrap();
    });

    for (kind, name) in [
        (SolverKind::Dense, "jacobian_backend/dense"),
        (SolverKind::Sparse, "jacobian_backend/sparse"),
    ] {
        bench_report(name, || {
            let mut opts = TranOptions::new(path.period / 4.0, path.period / 800.0);
            opts.newton.solver = kind;
            tranvar_engine::transient(&path.circuit, &opts).unwrap();
        });
    }
}
