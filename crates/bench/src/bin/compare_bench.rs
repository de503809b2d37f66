//! CI bench-regression gate: compares the `"speedup"` figures of a freshly
//! measured bench JSON (`BENCH_transens.json` / `BENCH_pss.json`) against
//! the committed baseline and fails if any drops below a floor fraction of
//! its baseline value (default 0.8×), if a baseline figure is missing from
//! the fresh run, or if any `"max_abs_diff"` in the fresh run is nonzero —
//! a correctness regression masquerading as a perf number. Every figure
//! under a `"shooting_counts"` row (Newton iterations and factorizations
//! per solve and Newton iterations per recorded cycle, `BENCH_pss.json`)
//! is a ceiling instead: the fresh count may not exceed its committed
//! value, and a missing one fails.
//!
//! Usage: `compare_bench <baseline.json> <current.json> [--min-ratio 0.8]`
//!
//! Figures are matched by their dotted key path (`strongarm_lptv.speedup`,
//! or plain `speedup` at the top level), so reordering or adding rows moves
//! no gate. The documents are read with the serving layer's JSON parser.

use std::collections::HashMap;
use std::process::ExitCode;
use tranvar_serve::json::{self, Json};

/// Every number in a JSON document, keyed by its dotted path (`a.b`,
/// `sweep[2].n`), in document order. Strings, booleans and nulls are
/// skipped; a duplicate key yields two entries with the same path.
fn numbers(text: &str) -> Result<Vec<(String, f64)>, String> {
    fn walk(v: &Json, path: String, out: &mut Vec<(String, f64)>) {
        match v {
            Json::Num(x) => out.push((path, *x)),
            Json::Obj(fields) => {
                for (key, v) in fields {
                    let child = if path.is_empty() {
                        key.clone()
                    } else {
                        format!("{path}.{key}")
                    };
                    walk(v, child, out);
                }
            }
            Json::Arr(items) => {
                for (k, v) in items.iter().enumerate() {
                    walk(v, format!("{path}[{k}]"), out);
                }
            }
            Json::Null | Json::Bool(_) | Json::Str(_) => {}
        }
    }
    let mut out = Vec::new();
    walk(&json::parse(text)?, String::new(), &mut out);
    Ok(out)
}

/// The path of the figure named `key` next to `path`'s leaf.
fn sibling(path: &str, key: &str) -> String {
    match path.rfind('.') {
        Some(dot) => format!("{}.{key}", &path[..dot]),
        None => key.to_string(),
    }
}

fn is_leaf(path: &str, key: &str) -> bool {
    path == key || path.ends_with(&format!(".{key}"))
}

/// The top-level row whose figures are ceilings: work counts that no
/// change may raise.
const COUNTS: &str = "shooting_counts.";

fn run(baseline_path: &str, current_path: &str, min_ratio: f64) -> Result<(), String> {
    let read = |p: &str| -> Result<Vec<(String, f64)>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        numbers(&text).map_err(|e| format!("{p}: {e}"))
    };
    let baseline = read(baseline_path)?;
    let current = read(current_path)?;
    let base_speedups: Vec<_> = baseline
        .iter()
        .filter(|(p, _)| is_leaf(p, "speedup"))
        .collect();
    if base_speedups.is_empty() {
        return Err(format!(
            "baseline {baseline_path} carries no speedup figures"
        ));
    }
    let cur: HashMap<&str, f64> = current.iter().map(|(p, v)| (p.as_str(), *v)).collect();
    println!("{baseline_path} vs {current_path} (floor {min_ratio:.2}x of baseline):");
    let mut failed = false;
    for (path, b) in &base_speedups {
        let floor = min_ratio * b;
        match cur.get(path.as_str()) {
            Some(c) => {
                let ok = *c >= floor;
                println!(
                    "  {path}: baseline {b:.3}x, current {c:.3}x, floor {floor:.3}x  {}",
                    if ok { "ok" } else { "REGRESSION" }
                );
                failed |= !ok;
            }
            None => {
                println!("  {path}: baseline {b:.3}x, missing from current  MISSING");
                failed = true;
            }
        }
    }
    // Every speedup is paired with a correctness figure by the emitters; a
    // missing one means the gate would be vacuous, so treat it as failure.
    for (path, _) in current.iter().filter(|(p, _)| is_leaf(p, "speedup")) {
        let diff = sibling(path, "max_abs_diff");
        if !cur.contains_key(diff.as_str()) {
            return Err(format!("current {current_path} has no {diff} for {path}"));
        }
    }
    for (path, d) in current.iter().filter(|(p, _)| is_leaf(p, "max_abs_diff")) {
        let ok = *d == 0.0;
        println!("  {path}: {d:e}  {}", if ok { "ok" } else { "NONZERO" });
        failed |= !ok;
    }
    for (path, b) in baseline.iter().filter(|(p, _)| p.starts_with(COUNTS)) {
        let verdict = match cur.get(path.as_str()) {
            Some(c) if c <= b => "ok",
            Some(_) => "RAISED",
            None => "MISSING",
        };
        let c = cur.get(path.as_str()).map_or("-".into(), |c| c.to_string());
        println!("  {path}: ceiling {b}, current {c}  {verdict}");
        failed |= verdict != "ok";
    }
    if failed {
        Err("bench regression gate failed".into())
    } else {
        Ok(())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut min_ratio = 0.8;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--min-ratio" {
            min_ratio = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--min-ratio needs a number");
        } else {
            paths.push(a.clone());
        }
    }
    if paths.len() != 2 {
        eprintln!("usage: compare_bench <baseline.json> <current.json> [--min-ratio 0.8]");
        return ExitCode::from(2);
    }
    match run(&paths[0], &paths[1], min_ratio) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "periodic_analysis",
  "threads": 1,
  "a": { "circuit": "x", "speedup": 2.480, "max_abs_diff": 0.000e0 },
  "b": { "speedup": 4.270, "max_abs_diff": 0.000e0, "ok": true, "x": null },
  "sweep": [ { "n": 16 }, { "n": 32 } ]
}"#;

    /// Writes `base` and `cur` into a per-test temp dir and runs the gate.
    fn gate(name: &str, base: &str, cur: &str) -> Result<(), String> {
        let dir = std::env::temp_dir().join(format!("compare_bench_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        let (b, c) = (dir.join("base.json"), dir.join("cur.json"));
        std::fs::write(&b, base).unwrap();
        std::fs::write(&c, cur).unwrap();
        run(b.to_str().unwrap(), c.to_str().unwrap(), 0.8)
    }

    #[test]
    fn numbers_are_keyed_by_path() {
        let got = numbers(SAMPLE).unwrap();
        let want = [
            ("threads", 1.0),
            ("a.speedup", 2.48),
            ("a.max_abs_diff", 0.0),
            ("b.speedup", 4.27),
            ("b.max_abs_diff", 0.0),
            ("sweep[0].n", 16.0),
            ("sweep[1].n", 32.0),
        ];
        assert_eq!(got.len(), want.len());
        for ((p, v), (wp, wv)) in got.iter().zip(want) {
            assert_eq!((p.as_str(), *v), (wp, wv));
        }
        assert_eq!(
            numbers(r#"{ "speedup": 3.9, "max_abs_diff": 0e0 }"#).unwrap()[0].0,
            "speedup"
        );
        assert!(numbers(r#"{ "a": 1 "#).is_err());
        assert!(numbers(r#"{ "a": 1x }"#).is_err());
    }

    #[test]
    fn gate_passes_and_fails_on_ratio() {
        // 2.1/2.48 = 0.85 and 3.6/4.27 = 0.84: above the 0.8 floor.
        let good = r#"{ "a": { "speedup": 2.1, "max_abs_diff": 0e0 },
                        "b": { "speedup": 3.6, "max_abs_diff": 0e0 } }"#;
        // a collapses to 0.5x of baseline.
        let bad = r#"{ "a": { "speedup": 1.2, "max_abs_diff": 0e0 },
                       "b": { "speedup": 4.3, "max_abs_diff": 0e0 } }"#;
        assert!(gate("ratio_good", SAMPLE, good).is_ok());
        assert!(gate("ratio_bad", SAMPLE, bad).is_err());
    }

    #[test]
    fn gate_matches_reordered_rows_by_key() {
        // Same figures as SAMPLE with the rows swapped and a new row in
        // front: matched by key, the gate passes.
        let reordered = r#"{ "new": { "speedup": 1.0, "max_abs_diff": 0e0 },
                             "b": { "speedup": 4.27, "max_abs_diff": 0e0 },
                             "a": { "speedup": 2.48, "max_abs_diff": 0e0 } }"#;
        assert!(gate("reordered", SAMPLE, reordered).is_ok());
        // Swapping the values between the keys is caught: b falls to
        // 2.48/4.27 = 0.58x, although the positional sequence still holds
        // a 4.27 and a 2.48.
        let swapped = r#"{ "b": { "speedup": 2.48, "max_abs_diff": 0e0 },
                           "a": { "speedup": 4.27, "max_abs_diff": 0e0 } }"#;
        assert!(gate("swapped", SAMPLE, swapped).is_err());
    }

    #[test]
    fn gate_fails_on_nonzero_diff() {
        let cur = r#"{ "a": { "speedup": 2.5, "max_abs_diff": 1.2e-9 },
                       "b": { "speedup": 4.3, "max_abs_diff": 0e0 } }"#;
        assert!(gate("diff", SAMPLE, cur).is_err());
    }

    #[test]
    fn gate_fails_on_missing_diff_figures() {
        // Every speedup is there, but the correctness figures are gone:
        // the gate must not silently pass vacuously.
        let cur = r#"{ "a": { "speedup": 2.5 }, "b": { "speedup": 4.3 } }"#;
        assert!(gate("missing_diff", SAMPLE, cur).is_err());
    }

    #[test]
    fn gate_holds_shooting_counts_at_their_ceilings() {
        let base = r#"{ "a": { "speedup": 2.0, "max_abs_diff": 0e0 },
                        "shooting_counts": { "ring": { "newton_iters": 2345, "factorizations": 2342 } } }"#;
        let counts = |iters: u32, factors: u32| {
            format!(
                r#"{{ "a": {{ "speedup": 2.0, "max_abs_diff": 0e0 }},
                      "shooting_counts": {{ "ring": {{ "newton_iters": {iters}, "factorizations": {factors} }} }} }}"#
            )
        };
        assert!(gate("counts_equal", base, &counts(2345, 2342)).is_ok());
        assert!(gate("counts_lower", base, &counts(2000, 1999)).is_ok());
        assert!(gate("counts_raised", base, &counts(2346, 2342)).is_err());
        assert!(gate("factors_raised", base, &counts(2345, 2343)).is_err());
        let missing = r#"{ "a": { "speedup": 2.0, "max_abs_diff": 0e0 },
                           "shooting_counts": { "ring": { "newton_iters": 2345 } } }"#;
        assert!(gate("counts_missing", base, missing).is_err());
    }

    #[test]
    fn gate_fails_on_a_missing_recorded_cycle_count() {
        let row = |cycle: &str| {
            format!(
                r#"{{ "a": {{ "speedup": 2.0, "max_abs_diff": 0e0 }},
                      "shooting_counts": {{ "strongarm": {{ "newton_iters": 2322{cycle} }} }} }}"#
            )
        };
        let base = row(r#", "recorded_cycle_iters": 878"#);
        assert!(gate("cycle_equal", &base, &base).is_ok());
        let raised = row(r#", "recorded_cycle_iters": 879"#);
        assert!(gate("cycle_raised", &base, &raised).is_err());
        assert!(gate("cycle_missing", &base, &row("")).is_err());
    }

    /// The `assembly_refresh` row of `BENCH_pss.json` needs no rule of its
    /// own: its `speedup` takes the ratio floor, its `max_abs_diff` must be
    /// 0, and a fresh run without the row fails.
    #[test]
    fn gate_covers_the_assembly_refresh_row() {
        let row = |speedup: f64, diff: &str| {
            format!(
                r#"{{ "assembly_refresh": {{ "circuit": "logic_path", "n_states": 801,
                      "full_median_s": 1.96e-3, "refresh_median_s": 1.44e-3,
                      "speedup": {speedup}, "max_abs_diff": {diff} }} }}"#
            )
        };
        let base = row(1.359, "0.000e0");
        assert!(gate("refresh_equal", &base, &base).is_ok());
        assert!(gate("refresh_noise", &base, &row(1.1, "0e0")).is_ok());
        assert!(gate("refresh_slower", &base, &row(1.0, "0e0")).is_err());
        assert!(gate("refresh_inexact", &base, &row(1.4, "5.0e-16")).is_err());
        let other = r#"{ "a": { "speedup": 2.0, "max_abs_diff": 0e0 } }"#;
        assert!(gate("refresh_missing", &base, other).is_err());
    }

    #[test]
    fn gate_fails_on_missing_baseline_key() {
        let cur = r#"{ "a": { "speedup": 2.5, "max_abs_diff": 0e0 } }"#;
        assert!(gate("missing_key", SAMPLE, cur).is_err());
    }
}
