//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <table2|sigma-sweep|serve-mix> --seed <n> \
//!     --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! Prints human-readable lines, then — as the last line of stdout — one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.

use std::path::PathBuf;
use tranvar_perfbench::gen::{table2_order, Digest, SweepGrids};
use tranvar_perfbench::run::{Args, Report};
use tranvar_perfbench::{serve_mix, sweep, table2};

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?.to_string();
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let trace_dir = PathBuf::from(get("--trace-dir").unwrap_or("perfbench-traces"));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_dir,
    })
}

/// Fingerprint of the op stream a closed-loop workload draws from (its
/// first 4096 ops; the serving mix prints its own plan digest).
fn inputs_digest(args: &Args) -> Option<String> {
    let mut d = Digest::default();
    match args.workload.as_str() {
        "table2" => table2_order(args.seed)
            .take(4096)
            .for_each(|c| d.bytes(&[c as u8])),
        "sigma-sweep" => SweepGrids::new(args.seed).take(4096).for_each(|g| {
            d.bytes(&[g.shape as u8]);
            g.vdd.iter().chain(&g.sigma).for_each(|x| d.num(*x));
        }),
        _ => return None,
    }
    Some(d.hex())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tranvar_perfbench::run::nproc()
    );
    if let Some(d) = inputs_digest(&args) {
        println!("inputs_digest {} {d}", args.workload);
    }
    let mut rep = Report::default();
    let res = match (args.workload.as_str(), args.trace) {
        ("table2", false) => table2::run(&args, &mut rep),
        ("table2", true) => table2::run_traced(&args, &mut rep),
        ("sigma-sweep", false) => sweep::run(&args, &mut rep),
        ("sigma-sweep", true) => sweep::run_traced(&args, &mut rep),
        ("serve-mix", false) => serve_mix::run(&args, &mut rep),
        ("serve-mix", true) => serve_mix::run_traced(&args, &mut rep),
        (other, _) => Err(format!("unknown workload `{other}`")),
    };
    if let Err(e) = res {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    println!("{}", rep.json());
}
