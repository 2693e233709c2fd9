//! `pimbench` — the repository's benchmark: one command that measures the
//! PyPIM stack end to end and layer by layer, on both clocks.
//!
//! ```text
//! pimbench run [--seed N] [--quick] [--trace] [--out FILE]
//! pimbench compare <a.json> <b.json>
//! pimbench manifest                       # prints BENCHMARK.json
//! pimbench --workload W --seed N --seconds S --trace 0|1   # BENCHMARK.json driver
//! ```
//!
//! See `benchmark/README.md` for the metric catalogue and the workloads.

mod catalog;
mod compare;
mod json;
mod pin;
mod report;
mod runner;
mod stats;
mod trace;
mod workload;

use report::{fmt_value, HostInfo, RunFile, WorkloadResult};
use runner::{Options, Reps};
use std::process::ExitCode;
use workload::Scale;

/// Seed of `pimbench run` when none is given.
const DEFAULT_SEED: u64 = 2024;
/// Prefix of the line a workload process hands its full result back on.
const RESULT_PREFIX: &str = "PIMBENCH_RESULT ";

const PAPER_CLAIMS: &str = include_str!("../reference/paper_vi_b.json");

type Res<T> = Result<T, Box<dyn std::error::Error>>;

fn main() -> ExitCode {
    // Before any thread exists, so every thread inherits the mask.
    let pinned = pin::pin_to_one_cpu();
    if pinned.is_none() {
        eprintln!("pimbench: could not pin to one CPU; thread placement will add noise");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], pinned),
        Some("compare") => cmd_compare(&args[1..]),
        Some("manifest") => {
            print!("{}", catalog::manifest_text());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => cmd_workload(&args),
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pimbench: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  pimbench run [--seed N] [--quick] [--trace] [--out FILE]
  pimbench compare <a.json> <b.json>
  pimbench manifest
  pimbench --workload W --seed N --seconds S --trace 0|1";

/// Flag parser: `--name value` pairs and bare switches.
struct Flags<'a> {
    args: &'a [String],
    at: usize,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args, at: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let flag = self.args.get(self.at)?;
        self.at += 1;
        Some(flag)
    }

    fn value(&mut self, flag: &str) -> Res<&'a str> {
        let v = self
            .args
            .get(self.at)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        self.at += 1;
        Ok(v)
    }

    fn number<T: std::str::FromStr>(&mut self, flag: &str) -> Res<T> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| format!("{flag}: {v:?} is not a valid number").into())
    }
}

fn known_workload(name: &str) -> Res<&'static str> {
    catalog::WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .ok_or_else(|| {
            let names: Vec<_> = catalog::WORKLOADS.iter().map(|(n, _)| *n).collect();
            format!("unknown workload {name:?}; the workloads are {names:?}").into()
        })
}

/// One workload in this process: what the `BENCHMARK.json` driver runs,
/// and what `pimbench run` spawns per workload.
fn cmd_workload(args: &[String]) -> Res<bool> {
    let mut flags = Flags::new(args);
    let mut name = None;
    let mut opts = Options {
        seed: DEFAULT_SEED,
        scale: Scale { quick: false },
        reps: Reps::Default,
        trace: false,
    };
    while let Some(flag) = flags.next() {
        match flag {
            "--workload" => name = Some(known_workload(flags.value(flag)?)?),
            "--seed" => opts.seed = flags.number(flag)?,
            "--seconds" => {
                let s: f64 = flags.number(flag)?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                opts.reps = Reps::Seconds(s);
            }
            "--trace" => {
                opts.trace = match flags.value(flag)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
                }
            }
            "--quick" => opts.scale = Scale { quick: true },
            other => return Err(format!("unknown flag {other:?}\n{USAGE}").into()),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let result = runner::run(name, opts)?;
    print!("{}", report::render_workload(&result));
    println!("{RESULT_PREFIX}{}", result.to_json().to_line());
    println!("{}", result.driver_line()?);
    Ok(result.correct)
}

/// Runs `name` in a child process of this executable and reads its
/// result back. The child's report goes to this process's stdout.
fn spawn_workload(name: &str, seed: u64, quick: bool, trace: bool) -> Res<WorkloadResult> {
    let mut cmd = std::process::Command::new(std::env::current_exe()?);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child and reaps it.
    let output = cmd.stderr(std::process::Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(RESULT_PREFIX))
        .ok_or_else(|| {
            format!(
                "workload {name} exited with {} and no result",
                output.status
            )
        })?;
    Ok(WorkloadResult::from_json(&json::parse(line)?)?)
}

fn cmd_run(args: &[String], pinned: Option<pin::Pinned>) -> Res<bool> {
    let mut flags = Flags::new(args);
    let (mut seed, mut quick, mut trace) = (DEFAULT_SEED, false, false);
    let mut out = None;
    while let Some(flag) = flags.next() {
        match flag {
            "--seed" => seed = flags.number(flag)?,
            "--quick" => quick = true,
            "--trace" => trace = true,
            "--out" => out = Some(flags.value(flag)?.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}").into()),
        }
    }
    let host = HostInfo::detect(pinned);
    println!(
        "pimbench: seed {seed}{} — host: nproc {} ({}), {}, {}, commit {}",
        if quick { ", quick" } else { "" },
        host.nproc,
        host.pinned,
        host.cpu_model,
        host.rustc,
        host.git_commit
    );
    println!(
        "two clocks: MODELED = what the simulated PIM hardware would take (cycles; 1 cycle = 1 us \
         where a rate is quoted), held exact; HOST = what this program takes, median over \
         repetitions, held to its bound"
    );

    let mut file = RunFile {
        host,
        seed,
        quick,
        workloads: Vec::new(),
    };
    for (name, _) in catalog::WORKLOADS {
        let mut result = spawn_workload(name, seed, quick, false)?;
        if trace {
            let traced = spawn_workload(name, seed, quick, true)?;
            result.traced = true;
            result.per_layer = traced.per_layer;
            result.notes.extend(
                traced
                    .notes
                    .into_iter()
                    .filter(|n| n.starts_with("traced:")),
            );
            result.problems.extend(
                traced
                    .problems
                    .into_iter()
                    .map(|p| format!("traced run: {p}")),
            );
            result.correct &= traced.correct;
        }
        print!("{}", report::render_workload(&result));
        print!("{}", reference_lines(&result)?);
        file.workloads.push(result);
    }

    let path = match out {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            std::fs::create_dir_all(runner::out_dir())?;
            runner::out_dir().join(format!("run-seed{seed}.json"))
        }
    };
    std::fs::write(&path, file.to_json().to_line() + "\n")?;
    println!("\nresults written to {}", path.display());
    if trace {
        println!(
            "traces written to {}/<workload>.trace.json",
            runner::out_dir().display()
        );
    }
    Ok(file.correct())
}

/// The paper's §VI-B claims beside what this run measured — the only
/// reference error the repository can state.
fn reference_lines(w: &WorkloadResult) -> Res<String> {
    if !matches!(
        w.workload.as_str(),
        catalog::TENSOR_SIM | catalog::TENSOR_FUNC
    ) {
        return Ok(String::new());
    }
    let doc = json::parse(PAPER_CLAIMS)?;
    let claims = doc.get("claims").ok_or("reference file without claims")?;
    let mut out =
        String::from("  reference (paper §VI-B summary claims; difference = measured − claim):\n");
    for (name, claim) in claims.as_obj().unwrap_or_default() {
        let claimed = claim.get("value").and_then(json::Json::as_f64);
        let measured = w.metric(name).and_then(|m| m.value);
        let diff = claimed.zip(measured).map(|(c, m)| m - c);
        out.push_str(&format!(
            "    {:<24} paper {:>8}  measured {:>10}  difference {:>10}\n",
            name,
            fmt_value(claimed),
            measured.map_or("(traced run only)".into(), |m| fmt_value(Some(m))),
            fmt_value(diff)
        ));
    }
    out.push_str(
        "    these summary claims are the only reference the repository holds; per-program \
         cycle counts are otherwise unvalidated\n",
    );
    Ok(out)
}

fn cmd_compare(args: &[String]) -> Res<bool> {
    let [a_path, b_path] = args else {
        return Err(USAGE.into());
    };
    let (a, b) = (RunFile::load(a_path)?, RunFile::load(b_path)?);
    let rows = compare::compare(&a, &b);
    print!("{}", compare::render(a_path, b_path, &a, &b, &rows));
    Ok(!rows.iter().any(|r| {
        matches!(
            r.verdict,
            compare::Verdict::Regressed | compare::Verdict::Unresolved
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_claims_parse_and_name_catalogued_metrics() {
        let doc = json::parse(PAPER_CLAIMS).unwrap();
        let claims = doc.get("claims").unwrap().as_obj().unwrap();
        assert_eq!(claims.len(), 4);
        for (name, claim) in claims {
            let known = catalog::end_to_end(name).is_some()
                || catalog::PER_LAYER.iter().any(|m| m.name == name);
            assert!(known, "{name} is not a catalogued metric");
            assert!(claim.get("value").unwrap().as_f64().unwrap() > 0.0);
        }
    }

    #[test]
    fn flags_parse_values_and_report_what_is_missing() {
        let args: Vec<String> = ["--seed", "7", "--quick", "--seconds"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut f = Flags::new(&args);
        assert_eq!(f.next(), Some("--seed"));
        assert_eq!(f.number::<u64>("--seed").unwrap(), 7);
        assert_eq!(f.next(), Some("--quick"));
        assert_eq!(f.next(), Some("--seconds"));
        assert!(f.number::<f64>("--seconds").is_err());
        assert!(known_workload("serve_fused").is_ok());
        assert!(known_workload("nope").is_err());
    }
}
