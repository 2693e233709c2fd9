//! Runs one workload in this process and turns its repetitions into the
//! catalogue's metrics. (`pimbench run` gives every workload a child
//! process of its own, so peak RSS and allocator state do not leak from
//! one workload into the next.)

use crate::catalog::{self, END_TO_END, PER_LAYER};
use crate::report::{Metric, WorkloadResult};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{self, Rep, Res, Scale, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// How many repetitions to measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reps {
    /// The workload's own count (`pimbench run`): identical work on any
    /// commit.
    Default,
    /// As many fixed-count repetitions as fit (`--seconds`, the
    /// `BENCHMARK.json` driver): at least [`MIN_TIMED_REPS`], then until
    /// the measured regions add up to the seconds.
    Seconds(f64),
}

pub const MIN_TIMED_REPS: usize = 3;

/// A run whose set-ups add up to less than this keeps setting up (a 3 ms
/// set-up timed five times says little; timed a few dozen times its
/// median holds), up to [`MAX_SETUPS`].
const SETUP_BUDGET_S: f64 = 0.5;
const MAX_SETUPS: usize = 40;
/// Untraced/traced repetition pairs of a traced run, alternating, so the
/// overhead ratio compares medians rather than two single repetitions.
const TRACE_PAIRS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub scale: Scale,
    pub reps: Reps,
    pub trace: bool,
}

/// Repetitions `pimbench run` measures per workload — some ten seconds
/// of measured work each, like a driver run (`--quick`: one).
fn default_reps(workload: &str) -> usize {
    match workload {
        catalog::TENSOR_SIM | catalog::SERVE_CROSSING => 20,
        catalog::SERVE_FUSED | catalog::OPEN_LOOP => 8,
        _ => 12,
    }
}

/// `VmHWM` of this process, in bytes.
fn peak_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0)
}

/// Directory traces and result files go to: `benchmark/out/`.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Compares every repetition's exact values with the first's, name by
/// name; a name only one of the two has a value for is a difference too.
fn check_exact<'a>(
    reps: impl IntoIterator<Item = &'a Rep>,
    tolerance: f64,
    problems: &mut Vec<String>,
) {
    let mut reps = reps.into_iter();
    let Some(first) = reps.next() else {
        return;
    };
    let value = |rep: &Rep, name: &str| {
        let found = rep.exact.iter().find(|(k, _)| k == name);
        found.map(|(_, v)| *v)
    };
    for (i, rep) in reps.enumerate() {
        let n = i + 2;
        for (name, a) in &first.exact {
            let Some(b) = value(rep, name) else {
                problems.push(format!(
                    "{name} is held exact but repetition {n} has no value for it"
                ));
                continue;
            };
            let differs = if tolerance == 0.0 {
                *a != b
            } else {
                (a - b).abs() > tolerance * a.abs().max(b.abs())
            };
            if differs {
                problems.push(format!(
                    "{name} is held exact but read {a} on repetition 1 and {b} on repetition {n}"
                ));
            }
        }
        for (name, _) in &rep.exact {
            if value(first, name).is_none() {
                problems.push(format!(
                    "{name} is held exact but only repetition {n} has a value for it"
                ));
            }
        }
    }
}

fn ops_per_s(r: &Rep) -> f64 {
    r.ops as f64 / r.host_s
}

/// Only for the workloads that report `host_op_p50_s`: they time each op.
fn op_p50_s(r: &Rep) -> f64 {
    median(&r.op_s)
}

const NOT_PRODUCED: &str = "not produced by this workload";

fn ns_per_microop(r: &Rep) -> f64 {
    r.host_s * 1e9 / r.microops.max(1) as f64
}

/// A freshly set-up workload and how long the set-up took.
fn set_up(name: &str, opts: Options) -> Res<(Box<dyn Workload>, f64)> {
    let begun = Instant::now();
    let w = workload::build(name, opts.seed, opts.scale)?;
    Ok((w, begun.elapsed().as_secs_f64()))
}

/// Runs `name` under `opts`.
pub fn run(name: &str, opts: Options) -> Res<WorkloadResult> {
    let mut result = WorkloadResult {
        workload: name.to_string(),
        seed: opts.seed,
        quick: opts.scale.quick,
        traced: opts.trace,
        correct: true,
        ..Default::default()
    };
    let w = if opts.trace {
        let (mut w, _) = set_up(name, opts)?;
        w.verify()?;
        traced(name, w.as_mut(), &mut result)?;
        w
    } else {
        untraced(name, opts, &mut result)?
    };
    result.exact_tolerance = w.exact_tolerance();
    result.notes = w.notes();
    if result.failed > 0 {
        result.problems.push(format!(
            "{} of {} ops failed",
            result.failed, result.attempted
        ));
    }
    result.correct = result.problems.is_empty();
    Ok(result)
}

/// Measures the end-to-end metrics. The repetitions run on a succession
/// of freshly set-up instances of the workload — a new one as soon as the
/// current one has been measured for twice as long as it took to set up,
/// which for all but `tensor_sim` means every repetition. On this host
/// the same work runs tens of percent faster or slower from one set of
/// devices to the next (where their buffers happen to land in physical
/// memory); a median over repetitions of one instance cannot see through
/// that, a median over instances can. Each set-up is a `setup_s` sample.
fn untraced(name: &str, opts: Options, result: &mut WorkloadResult) -> Res<Box<dyn Workload>> {
    let tracer = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut current: Option<Box<dyn Workload>> = None;
    // Seconds measured on `current`.
    let mut on_current = 0.0;
    loop {
        let measured: f64 = reps.iter().map(|r| r.host_s).sum();
        let enough = match opts.reps {
            Reps::Default if opts.scale.quick => !reps.is_empty(),
            Reps::Default => reps.len() >= default_reps(name),
            Reps::Seconds(s) => {
                let longest = reps.iter().map(|r| r.host_s).fold(0.0, f64::max);
                reps.len() >= MIN_TIMED_REPS && measured + longest > s
            }
        };
        if enough {
            break;
        }
        let spent = current.is_some() && on_current >= 2.0 * setup_s[setup_s.len() - 1];
        if current.is_none() || spent {
            // The previous instance's devices and worker threads go first.
            drop(current.take());
            let (w, seconds) = set_up(name, opts)?;
            setup_s.push(seconds);
            if reps.is_empty() {
                w.verify()?;
            }
            current = Some(w);
            on_current = 0.0;
        }
        let rep = current
            .as_mut()
            .expect("an instance is set up")
            .rep(&tracer)?;
        on_current += rep.host_s;
        reps.push(rep);
    }
    // A set-up of a few milliseconds is timed a few dozen times.
    while !opts.scale.quick
        && setup_s.len() < MAX_SETUPS
        && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S
    {
        drop(current.take());
        let (w, seconds) = set_up(name, opts)?;
        setup_s.push(seconds);
        current = Some(w);
    }
    let w = current.expect("at least one instance");
    check_exact(&reps, w.exact_tolerance(), &mut result.problems);

    result.reps = reps.len();
    result.attempted = reps.iter().map(|r| r.ops).sum();
    result.failed = reps.iter().map(|r| r.failed).sum();
    let per_rep = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let first = &reps[0];
    let exact: BTreeMap<&str, f64> = first.exact.iter().map(|(k, v)| (k.as_str(), *v)).collect();

    for def in &END_TO_END {
        if !def.reported_by.contains(&name) {
            result
                .end_to_end
                .push(Metric::single(def.name, None, NOT_PRODUCED));
            continue;
        }
        let metric = match def.name {
            "setup_s" => Metric::of_samples(def.name, setup_s.clone(), false),
            "host_ops_per_s" => Metric::of_samples(def.name, per_rep(ops_per_s), true),
            "host_op_p50_s" => Metric::of_samples(def.name, per_rep(op_p50_s), false),
            "host_ns_per_microop" => Metric::of_samples(def.name, per_rep(ns_per_microop), false),
            "peak_rss_bytes" => Metric::single(def.name, peak_rss_bytes(), "VmHWM at exit"),
            "failed_ratio" => Metric::single(
                def.name,
                Some(result.failed as f64 / result.attempted.max(1) as f64),
                "",
            ),
            modeled => {
                let absent = first.absent.iter().find(|(k, _)| k == modeled);
                Metric::single(
                    modeled,
                    exact.get(modeled).copied(),
                    absent.map_or("", |(_, why)| why.as_str()),
                )
            }
        };
        // `null` from a workload that reports the metric needs its reason.
        if metric.value.is_none() && !first.absent.iter().any(|(k, _)| k == def.name) {
            result
                .problems
                .push(format!("{} produced no {}", name, def.name));
        }
        result.end_to_end.push(metric);
    }
    Ok(w)
}

/// [`TRACE_PAIRS`] alternating pairs of an untraced repetition (the
/// overhead baseline) and one with `pim-telemetry` on and the benchmark's
/// spans recorded; per-layer metrics come from the traced ones.
fn traced(name: &str, w: &mut dyn Workload, result: &mut WorkloadResult) -> Res<()> {
    let tracer = Tracer::new(true);
    let off = Tracer::new(false);
    let (mut baseline, mut traced) = (Vec::new(), Vec::new());
    let pairs = if result.quick { 1 } else { TRACE_PAIRS };
    let mut switchable = true;
    for _ in 0..pairs {
        switchable = w.set_telemetry(false);
        baseline.push(w.rep(&off)?);
        w.set_telemetry(true);
        traced.push(w.rep(&tracer)?);
    }
    let events = w.telemetry_events();
    check_exact(
        baseline.iter().chain(&traced),
        w.exact_tolerance(),
        &mut result.problems,
    );
    result.attempted = baseline.iter().chain(&traced).map(|r| r.ops).sum();
    result.failed = baseline.iter().chain(&traced).map(|r| r.failed).sum();
    result.reps = pairs;
    let rep = traced.last().expect("at least one pair").clone();

    // Later sources override earlier ones: counts of the repetition, then
    // the timed rollups and ladder rungs.
    let mut values: BTreeMap<String, (Option<f64>, String)> = BTreeMap::new();
    for (k, v) in rep.exact.iter().chain(&rep.layer) {
        values.insert(k.clone(), (Some(*v), String::new()));
    }
    for (k, why) in &rep.absent {
        values.insert(k.clone(), (None, why.clone()));
    }
    values.insert(
        "failed_ratio".into(),
        (
            Some(result.failed as f64 / result.attempted.max(1) as f64),
            String::new(),
        ),
    );
    let over = |reps: &[Rep], f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let rate = |reps: &[Rep]| over(reps, ops_per_s);
    // The two host views `BENCHMARK.json` lists per layer: read off the
    // untraced repetitions of this run.
    for (metric, f) in [
        ("host_op_p50_s", op_p50_s as fn(&Rep) -> f64),
        ("host_ns_per_microop", ns_per_microop),
    ] {
        if catalog::end_to_end(metric).is_some_and(|m| m.reported_by.contains(&name)) {
            values.insert(
                metric.into(),
                (
                    Some(over(&baseline, f)),
                    format!("median of the {pairs} untraced repetitions of the traced run"),
                ),
            );
        }
    }
    values.insert(
        "telemetry.overhead_ratio".into(),
        if switchable {
            (
                Some(rate(&traced) / rate(&baseline)),
                format!(
                    "traced ÷ untraced host_ops_per_s, medians of {pairs} alternating repetitions"
                ),
            )
        } else {
            (
                None,
                "the program arms pim-telemetry itself on every run of this workload, so there \
                 is no untraced side to divide by"
                    .into(),
            )
        },
    );
    values.insert(
        "telemetry.spans_recorded".into(),
        (
            Some(events as f64),
            format!(
                "pim-telemetry events; the benchmark's own trace holds {} spans",
                tracer.len()
            ),
        ),
    );
    for lv in w.layer_metrics(&tracer, &rep)? {
        values.insert(lv.name, (lv.value, lv.note));
    }

    for (metric_name, _, _) in catalog::driver_per_layer() {
        let (value, note) = values
            .remove(metric_name)
            .unwrap_or((None, NOT_PRODUCED.into()));
        result
            .per_layer
            .push(Metric::single(metric_name, value, note));
    }
    debug_assert_eq!(
        result.per_layer.len(),
        PER_LAYER.len()
            + END_TO_END
                .iter()
                .filter(|m| m.driver_bound.is_none())
                .count()
    );

    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("{name}.trace.json")),
        tracer.chrome_trace(name),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(exact: &[(&str, f64)]) -> Rep {
        Rep {
            exact: exact.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn exact_values_must_repeat() {
        let mut problems = Vec::new();
        check_exact(
            &[rep(&[("a", 1.0)]), rep(&[("a", 1.0)])],
            0.0,
            &mut problems,
        );
        assert!(problems.is_empty());
        check_exact(
            &[rep(&[("a", 1.0)]), rep(&[("a", 1.0000001)])],
            0.0,
            &mut problems,
        );
        assert_eq!(problems.len(), 1, "{problems:?}");
        problems.clear();
        check_exact(
            &[rep(&[("a", 100.0)]), rep(&[("a", 100.5)])],
            0.01,
            &mut problems,
        );
        assert!(problems.is_empty(), "within the stated tolerance");
        check_exact(
            &[rep(&[("a", 100.0)]), rep(&[("a", 102.0)])],
            0.01,
            &mut problems,
        );
        assert_eq!(problems.len(), 1);
    }

    #[test]
    fn exact_values_are_matched_by_name_not_by_position() {
        let mut problems = Vec::new();
        check_exact(
            &[
                rep(&[("a", 1.0), ("b", 2.0)]),
                rep(&[("b", 2.0), ("a", 1.0)]),
            ],
            0.0,
            &mut problems,
        );
        assert!(problems.is_empty(), "{problems:?}");
        // A conditional entry missing from either side is a difference.
        check_exact(
            &[
                rep(&[("a", 1.0), ("w", 5.0), ("b", 2.0)]),
                rep(&[("a", 1.0), ("b", 2.0)]),
            ],
            0.0,
            &mut problems,
        );
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("w "), "{problems:?}");
        problems.clear();
        check_exact(
            &[rep(&[("a", 1.0)]), rep(&[("a", 1.0), ("w", 5.0)])],
            0.0,
            &mut problems,
        );
        assert_eq!(problems.len(), 1, "{problems:?}");
    }

    #[test]
    fn peak_rss_is_readable_here() {
        assert!(peak_rss_bytes().is_some_and(|b| b > 0.0));
    }
}
