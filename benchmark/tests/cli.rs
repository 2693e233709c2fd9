//! End-to-end checks of the `pimbench` binary: `--quick` is quick, every
//! name `run` prints is in `BENCHMARK.json` and the other way round, and
//! the driver line keeps to the contract.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::collections::BTreeSet;
use std::process::Command;
use std::time::{Duration, Instant};

const PIMBENCH: &str = env!("CARGO_BIN_EXE_pimbench");

/// `pimbench` pins itself to one CPU, so two of these tests running at
/// once would share it; the timed one must have it to itself.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> BTreeSet<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn scratch(file: &str) -> String {
    format!("{}/{file}", env!("CARGO_TARGET_TMPDIR"))
}

#[test]
fn quick_run_is_quick_and_correct() {
    let _cpu = exclusive();
    let out = scratch("quick.json");
    let begun = Instant::now();
    let run = Command::new(PIMBENCH)
        .args(["run", "--quick", "--seed", "11", "--out", &out])
        .output()
        .expect("pimbench runs");
    let took = begun.elapsed();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(took < Duration::from_secs(20), "--quick took {took:?}");

    let file = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let workloads = file.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(
        names_of_workloads(workloads),
        names(manifest().get("workloads").unwrap())
    );
    for w in workloads {
        assert_eq!(w.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(w.get("failed").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            w.get("reps").and_then(Json::as_f64),
            Some(1.0),
            "one repetition"
        );
    }
}

fn names_of_workloads(workloads: &[Json]) -> BTreeSet<String> {
    workloads
        .iter()
        .map(|w| {
            w.get("workload")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn every_printed_name_is_in_the_manifest_and_vice_versa() {
    let _cpu = exclusive();
    let out = scratch("quick_traced.json");
    let run = Command::new(PIMBENCH)
        .args(["run", "--quick", "--trace", "--seed", "12", "--out", &out])
        .output()
        .expect("pimbench runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);

    let manifest = manifest();
    let mut listed = names(manifest.get("end_to_end").unwrap());
    listed.extend(names(manifest.get("per_layer").unwrap()));

    let file = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    for w in file.get("workloads").unwrap().as_arr().unwrap() {
        let workload = w.get("workload").and_then(Json::as_str).unwrap();
        let mut reported = names(w.get("end_to_end").unwrap());
        reported.extend(names(w.get("per_layer").unwrap()));
        assert_eq!(reported, listed, "{workload}");
        assert!(
            std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
                .join(format!("{workload}.trace.json"))
                .exists(),
            "{workload} wrote no trace"
        );
    }
    for name in &listed {
        assert!(
            name.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
            "{name}"
        );
        assert!(stdout.contains(name.as_str()), "{name} is never printed");
    }

    // What the issue's acceptance criteria read off the traced run.
    let value = |workload: &str, metric: &str| -> Option<f64> {
        file.get("workloads")?
            .as_arr()?
            .iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(workload))?
            .get("per_layer")?
            .as_arr()?
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?
            .get("value")?
            .as_f64()
    };
    assert_eq!(
        value("serve_fused", "cluster.cross_words_per_op"),
        Some(0.0)
    );
    assert!(value("serve_crossing", "cluster.cross_words_per_op").unwrap() > 0.0);
    assert!(value("fleet_failover", "fleet.failovers").unwrap() >= 1.0);
    assert!(value("fleet_failover", "fleet.reissued").unwrap() >= 1.0);
    assert_eq!(value("open_loop", "fleet.failovers"), None);
    assert!(value("serve_fused", "unattributed.share_of_op").is_some());
    assert!(value("serve_fused", "telemetry.overhead_ratio").unwrap() > 0.0);
    // `null`, not a derived number, where a workload has no measurement:
    // pim-loadgen arms telemetry itself and owns the per-op clock.
    for workload in ["open_loop", "fleet_failover"] {
        assert_eq!(value(workload, "telemetry.overhead_ratio"), None);
        assert_eq!(value(workload, "host_op_p50_s"), None);
        assert!(value(workload, "modeled_goodput_rps").unwrap() > 0.0);
    }
    assert_eq!(value("serve_fused", "modeled_goodput_rps"), None);
    assert_eq!(value("serve_crossing", "core.upload_ns_per_word"), None);
    assert!(value("serve_crossing", "cluster.scatter_ns_per_word").unwrap() > 0.0);
}

#[test]
fn driver_line_keeps_to_the_contract() {
    let _cpu = exclusive();
    let manifest = manifest();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let run = Command::new(PIMBENCH)
            .args([
                "--workload",
                "serve_crossing",
                "--seed",
                "5",
                "--seconds",
                "1",
            ])
            .args(["--trace", trace, "--quick"])
            .output()
            .expect("pimbench runs");
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8_lossy(&run.stdout);
        let last = json::parse(stdout.trim_end().lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = last
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
        assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let metrics = last.get("metrics").unwrap().as_obj().unwrap();
        let reported: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            reported,
            names(manifest.get(key).unwrap()),
            "--trace {trace}"
        );
        for (name, m) in metrics {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
            if key == "end_to_end" {
                assert!(
                    m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                    "{name} is 0"
                );
            }
        }
    }
}

#[test]
fn unknown_input_is_refused_with_a_message() {
    for args in [
        &["--workload", "nope"][..],
        &["frobnicate"],
        &["compare", "only-one.json"],
    ] {
        let run = Command::new(PIMBENCH)
            .args(args)
            .output()
            .expect("pimbench runs");
        assert!(!run.status.success());
        assert!(run.stdout.is_empty(), "no result is printed");
        assert!(!run.stderr.is_empty());
    }
}
