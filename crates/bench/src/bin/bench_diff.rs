//! Regression gate over the criterion stub's `BENCH_*.json` reports:
//! compares a freshly generated report against the committed baseline,
//! row by row, and exits nonzero when a row regressed past its tolerance.
//!
//! Usage: `bench-diff <baseline.json> <fresh.json> [<baseline> <fresh>]...`
//!
//! Each row is keyed by `(group, id)`. Rows with a throughput annotation
//! compare `per_sec_median` (higher is better); rows without compare
//! `median_s` (lower is better). Tolerances are per-row-kind, because the
//! rows mix deterministic modeled-clock measurements with noisy
//! wall-clock ones:
//!
//! * `wall_*` ids and every row of the timed (non-`serve`) reports are
//!   wall-clock on a shared CI runner — only order-of-magnitude
//!   regressions are actionable (tolerance 2.0, i.e. 3× worse fails);
//! * `open_loop_*` rows come from seeded modeled-clock sweeps whose knee
//!   detection quantizes to the swept factors (tolerance 0.4);
//! * remaining `serve` rows are modeled-clock (tolerance 0.2; they are
//!   exact run to run, but a deliberate modeled move has no way yet to
//!   declare itself to this gate).
//!
//! New rows in the fresh report pass (they have no baseline yet); rows
//! *missing* from the fresh report fail — a silently vanished benchmark
//! is how regressions hide.
//!
//! The parser is deliberately line-based: the stub writes one benchmark
//! object per line, and this gate must not grow a JSON dependency.

use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, Clone)]
struct Row {
    group: String,
    id: String,
    median_s: f64,
    per_sec_median: f64,
    has_throughput: bool,
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn parse_report(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut rows = Vec::new();
    for line in text.lines() {
        if !line.contains("\"group\":") {
            continue;
        }
        let (Some(group), Some(id)) = (field_str(line, "group"), field_str(line, "id")) else {
            return Err(format!("{path}: malformed row: {line}"));
        };
        let median_s = field_num(line, "median_s")
            .ok_or_else(|| format!("{path}: row {group}/{id} lacks median_s"))?;
        let per_sec_median = field_num(line, "per_sec_median").unwrap_or(0.0);
        let has_throughput = !line.contains("\"throughput_kind\": null");
        rows.push(Row {
            group,
            id,
            median_s,
            per_sec_median,
            has_throughput,
        });
    }
    if rows.is_empty() {
        return Err(format!("{path}: no benchmark rows found"));
    }
    Ok(rows)
}

/// Allowed relative degradation for a row (0.2 = 20% worse still passes).
fn tolerance(row: &Row) -> f64 {
    if row.id.starts_with("open_loop") {
        0.4
    } else if row.id.starts_with("wall_") || row.group != "serve" {
        2.0
    } else {
        0.2
    }
}

fn diff(baseline_path: &str, fresh_path: &str) -> Result<Vec<String>, String> {
    let baseline = parse_report(baseline_path)?;
    let fresh: BTreeMap<(String, String), Row> = parse_report(fresh_path)?
        .into_iter()
        .map(|r| ((r.group.clone(), r.id.clone()), r))
        .collect();
    let mut failures = Vec::new();
    for base in &baseline {
        let key = (base.group.clone(), base.id.clone());
        let Some(new) = fresh.get(&key) else {
            failures.push(format!(
                "{}/{}: present in {baseline_path} but missing from {fresh_path}",
                base.group, base.id
            ));
            continue;
        };
        let tol = tolerance(base);
        // Throughput rows: higher per_sec_median is better. Time rows:
        // lower median_s is better. Either way `ratio < 1 / (1 + tol)`
        // marks a regression past tolerance.
        let (kind, ratio) = if base.has_throughput && base.per_sec_median > 0.0 {
            ("per_sec_median", new.per_sec_median / base.per_sec_median)
        } else if base.median_s > 0.0 {
            (
                "median_s",
                base.median_s / new.median_s.max(f64::MIN_POSITIVE),
            )
        } else {
            continue; // degenerate zero baseline: nothing to hold to
        };
        if ratio < 1.0 / (1.0 + tol) {
            failures.push(format!(
                "{}/{}: {kind} regressed to {:.1}% of baseline (tolerance {:.0}%)",
                base.group,
                base.id,
                ratio * 100.0,
                100.0 / (1.0 + tol),
            ));
        }
    }
    let new_rows = fresh
        .values()
        .filter(|r| !baseline.iter().any(|b| b.group == r.group && b.id == r.id))
        .count();
    println!(
        "{baseline_path} vs {fresh_path}: {} baseline rows checked, {} new rows, {} regressions",
        baseline.len(),
        new_rows,
        failures.len()
    );
    Ok(failures)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!("usage: bench-diff <baseline.json> <fresh.json> [<baseline> <fresh>]...");
        return ExitCode::from(2);
    }
    let mut failures = Vec::new();
    for pair in args.chunks(2) {
        match diff(&pair[0], &pair[1]) {
            Ok(mut f) => failures.append(&mut f),
            Err(e) => {
                eprintln!("bench-diff: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failures.is_empty() {
        println!("bench-diff: OK");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("REGRESSION {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "benchmarks": [
    {"group": "serve", "id": "gateway/4-sessions", "min_s": 1e-3, "median_s": 1e-3, "mean_s": 1e-3, "p50_s": 1e-3, "p99_s": 1e-3, "p999_s": 1e-3, "iters": 8, "throughput_kind": "elements", "throughput_per_iter": 8, "per_sec_median": 8e3},
    {"group": "serve", "id": "latency_p99/4-sessions", "min_s": 2e-3, "median_s": 2e-3, "mean_s": 2e-3, "p50_s": 2e-3, "p99_s": 2e-3, "p999_s": 2e-3, "iters": 8, "throughput_kind": null, "throughput_per_iter": 0, "per_sec_median": 0e0}
  ]
}
"#;

    #[test]
    fn parses_both_row_kinds() {
        let dir = std::env::temp_dir().join("bench_diff_parse_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("b.json");
        std::fs::write(&p, SAMPLE).unwrap();
        let rows = parse_report(p.to_str().unwrap()).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].has_throughput);
        assert_eq!(rows[0].per_sec_median, 8e3);
        assert!(!rows[1].has_throughput);
        assert_eq!(rows[1].median_s, 2e-3);
    }

    #[test]
    fn flags_regressions_and_accepts_new_rows() {
        let dir = std::env::temp_dir().join("bench_diff_diff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let fresh = dir.join("fresh.json");
        std::fs::write(&base, SAMPLE).unwrap();
        // Throughput halved (beyond 20% tolerance), latency unchanged, one
        // new row.
        std::fs::write(
            &fresh,
            SAMPLE.replace("\"per_sec_median\": 8e3", "\"per_sec_median\": 4e3")
                + "{\"group\": \"serve\", \"id\": \"open_loop_knee\", \"median_s\": 1e0, \"throughput_kind\": \"elements\", \"per_sec_median\": 5e2},\n",
        )
        .unwrap();
        let failures = diff(base.to_str().unwrap(), fresh.to_str().unwrap()).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("gateway/4-sessions"), "{failures:?}");

        // Identical reports pass.
        let failures = diff(base.to_str().unwrap(), base.to_str().unwrap()).unwrap();
        assert!(failures.is_empty(), "{failures:?}");

        // A vanished row fails.
        let failures = diff(fresh.to_str().unwrap(), base.to_str().unwrap()).unwrap();
        assert!(
            failures.iter().any(|f| f.contains("open_loop_knee")),
            "{failures:?}"
        );
    }
}
