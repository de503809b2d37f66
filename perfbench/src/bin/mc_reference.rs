//! Regenerates `perfbench/reference.json`: a seeded 1000-sample
//! Monte-Carlo σ for each paper metric, the oracle every `table2` op is
//! checked against.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin mc_reference \
//!     > perfbench/reference.json
//! ```
//!
//! Each sample is the library's own nonlinear transient measurement on a
//! mismatch draw of the programmatic builder circuit, which the golden
//! decks reproduce bit for bit (checked here before the reference is
//! written).

use tranvar::engine::mc::McOptions;
use tranvar::num::stats::sigma_rel_ci95;
use tranvar_perfbench::gen::PAPER_CIRCUITS;
use tranvar_perfbench::paper;

/// Samples per circuit: the paper's Table II Monte-Carlo size.
const N: usize = 1000;
/// Seed of the first circuit; circuit `c` uses `SEED + c`.
const SEED: u64 = 20070604;
/// Unit of each circuit's metrics.
const UNITS: [&str; 3] = ["V", "s", "Hz"];

fn main() {
    let decks = paper::circuits().expect("golden decks elaborate");
    let mut rows = Vec::new();
    for (c, deck) in decks.iter().enumerate() {
        let (built, mc) = paper::monte_carlo_paper(c, &McOptions::new(N, SEED + c as u64));
        assert_eq!(
            format!("{:?}", deck.circuit),
            format!("{built:?}"),
            "deck {} no longer matches its builder",
            deck.name
        );
        let ok = mc.samples.len();
        for (k, metric) in deck.metrics.iter().enumerate() {
            rows.push(format!(
                r#"    {{"circuit": "{}", "metric": "{}", "unit": "{}", "sigma_mc": {:e}, "n": {ok}, "n_failed": {}, "seed": {}, "ci95_rel": {:.6}}}"#,
                PAPER_CIRCUITS[c],
                metric.name,
                UNITS[c],
                mc.stats[k].std_dev(),
                mc.n_failed,
                SEED + c as u64,
                sigma_rel_ci95(ok)
            ));
        }
        eprintln!("{} done", deck.name);
    }
    println!("{{");
    println!(
        r#"  "command": "cargo run --release --manifest-path perfbench/Cargo.toml --bin mc_reference > perfbench/reference.json","#
    );
    println!(r#"  "rows": ["#);
    println!("{}", rows.join(",\n"));
    println!("  ]");
    println!("}}");
}
