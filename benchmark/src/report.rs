//! Result documents: what one workload run measured, the file a whole
//! `pimbench run` writes, the one-line object the `BENCHMARK.json` driver
//! reads, and the human-readable tables.

use crate::catalog::{self, Hold, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::stats;

/// One reported number. Host timings carry every repetition's sample
/// (the value is the median of their fastest quarter, see
/// [`stats::fastest_quarter_median`]); modeled values and counts carry
/// none.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metric {
    pub name: String,
    /// `None` prints as `null`: the workload cannot produce it.
    pub value: Option<f64>,
    pub samples: Vec<f64>,
    pub note: String,
}

impl Metric {
    pub fn single(name: &str, value: Option<f64>, note: impl Into<String>) -> Self {
        Metric {
            name: name.to_string(),
            value,
            samples: Vec::new(),
            note: note.into(),
        }
    }

    /// A host timing over repetitions; `higher` says which way is better.
    pub fn of_samples(name: &str, samples: Vec<f64>, higher: bool) -> Self {
        Metric {
            name: name.to_string(),
            value: (!samples.is_empty()).then(|| stats::fastest_quarter_median(&samples, higher)),
            samples,
            note: String::new(),
        }
    }

    /// `(q1, q3)` of the samples, when there are any.
    pub fn quartiles(&self) -> Option<(f64, f64)> {
        (!self.samples.is_empty()).then(|| {
            let (q1, _, q3) = stats::quartiles(&self.samples);
            (q1, q3)
        })
    }

    fn to_json(&self) -> Json {
        let mut members = vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("value".to_string(), Json::opt(self.value)),
        ];
        if let Some((q1, q3)) = self.quartiles() {
            members.push(("q1".into(), Json::Num(q1)));
            members.push(("q3".into(), Json::Num(q3)));
            members.push((
                "samples".into(),
                Json::Arr(self.samples.iter().map(|&s| Json::Num(s)).collect()),
            ));
        }
        if !self.note.is_empty() {
            members.push(("note".into(), Json::Str(self.note.clone())));
        }
        Json::Obj(members)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Metric {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?
                .to_string(),
            value: v.get("value").and_then(Json::as_f64),
            samples: v
                .get("samples")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default(),
            note: v
                .get("note")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        })
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    pub traced: bool,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Every output matched its reference and every exact metric repeated.
    pub correct: bool,
    /// Relative tolerance the workload's exact values are held to.
    pub exact_tolerance: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub notes: Vec<String>,
    /// What made `correct` false.
    pub problems: Vec<String>,
}

impl WorkloadResult {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    pub fn to_json(&self) -> Json {
        let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        let metrics = |v: &[Metric]| Json::Arr(v.iter().map(Metric::to_json).collect());
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("quick".into(), Json::Bool(self.quick)),
            ("traced".into(), Json::Bool(self.traced)),
            ("reps".into(), Json::Num(self.reps as f64)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("correct".into(), Json::Bool(self.correct)),
            ("exact_tolerance".into(), Json::Num(self.exact_tolerance)),
            ("end_to_end".into(), metrics(&self.end_to_end)),
            ("per_layer".into(), metrics(&self.per_layer)),
            ("notes".into(), strs(&self.notes)),
            ("problems".into(), strs(&self.problems)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Self, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result without {key:?}"))
        };
        let flag = |key: &str| v.get(key).and_then(Json::as_bool).unwrap_or(false);
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            v.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(Metric::from_json)
                .collect()
        };
        let strs = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect()
        };
        Ok(WorkloadResult {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("result without a workload")?
                .to_string(),
            seed: num("seed")? as u64,
            quick: flag("quick"),
            traced: flag("traced"),
            reps: num("reps")? as usize,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            correct: flag("correct"),
            exact_tolerance: num("exact_tolerance").unwrap_or(0.0),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            notes: strs("notes"),
            problems: strs("problems"),
        })
    }

    /// The last line of a `BENCHMARK.json`-driven run: exactly `correct`,
    /// `attempted`, `failed` and `metrics` — every `end_to_end` metric of
    /// the manifest untraced, every `per_layer` metric traced. That list
    /// has a number for every name, so a per-layer metric this workload
    /// cannot produce reads 0 there (and `null` everywhere else).
    ///
    /// # Errors
    ///
    /// An end-to-end metric of the manifest without a value is a bug in
    /// the workload, not something to paper over.
    pub fn driver_line(&self) -> Result<String, String> {
        let entry = |name: &str, unit: &str, value: f64| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        };
        let metrics = if self.traced {
            catalog::driver_per_layer()
                .map(|(name, unit, _)| {
                    let value = self.metric(name).and_then(|m| m.value).unwrap_or(0.0);
                    entry(name, unit, value)
                })
                .collect()
        } else {
            catalog::driver_end_to_end()
                .map(|m| {
                    let value = self
                        .metric(m.name)
                        .and_then(|x| x.value)
                        .filter(|v| v.is_finite() && *v != 0.0)
                        .ok_or_else(|| format!("{}: no value for {}", self.workload, m.name))?;
                    Ok(entry(m.name, m.unit, value))
                })
                .collect::<Result<Vec<_>, String>>()?
        };
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_line())
    }
}

/// Where and on what a run was measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostInfo {
    /// CPUs the process may use (before `pimbench` pinned itself).
    pub nproc: usize,
    /// Where the process is pinned, in words.
    pub pinned: String,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
}

impl HostInfo {
    /// Reads the descriptor; anything unavailable reads `"unknown"` (the
    /// driver's checkout, for one, is not a git repository).
    pub fn detect(pinned: Option<crate::pin::Pinned>) -> Self {
        let command = |program: &str, args: &[&str]| -> String {
            std::process::Command::new(program)
                .args(args)
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".into())
        };
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostInfo {
            nproc: pinned.map_or_else(
                || std::thread::available_parallelism().map_or(1, usize::from),
                |p| p.allowed,
            ),
            pinned: pinned.map_or("not pinned".into(), |p| format!("pinned to CPU {}", p.cpu)),
            cpu_model,
            rustc: command("rustc", &["--version"]),
            git_commit: command("git", &["rev-parse", "HEAD"]),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("pinned".into(), Json::Str(self.pinned.clone())),
            ("cpu_model".into(), Json::Str(self.cpu_model.clone())),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("git_commit".into(), Json::Str(self.git_commit.clone())),
        ])
    }

    fn from_json(v: &Json) -> Self {
        let s = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string()
        };
        HostInfo {
            nproc: v.get("nproc").and_then(Json::as_f64).unwrap_or(0.0) as usize,
            pinned: s("pinned"),
            cpu_model: s("cpu_model"),
            rustc: s("rustc"),
            git_commit: s("git_commit"),
        }
    }
}

/// The file one `pimbench run` writes and `pimbench compare` reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunFile {
    pub host: HostInfo,
    pub seed: u64,
    pub quick: bool,
    pub workloads: Vec<WorkloadResult>,
}

impl RunFile {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("host".into(), self.host.to_json()),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("quick".into(), Json::Bool(self.quick)),
            (
                "workloads".into(),
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(RunFile {
            host: v.get("host").map(HostInfo::from_json).unwrap_or_default(),
            seed: v.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            quick: v.get("quick").and_then(Json::as_bool).unwrap_or(false),
            workloads: v
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("run file without workloads")?
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::from_json(&crate::json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    }

    pub fn correct(&self) -> bool {
        self.workloads.iter().all(|w| w.correct)
    }
}

/// Formats a value compactly with enough digits to compare by eye.
pub fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "null".into(),
        Some(0.0) => "0".into(),
        Some(x) if x.abs() >= 1e6 || x.abs() < 1e-3 => format!("{x:.4e}"),
        Some(x) if x.fract() == 0.0 => format!("{x:.0}"),
        Some(x) => format!("{x:.5}"),
    }
}

/// `exact`, or the bound as a percentage.
pub fn bound_label(hold: Hold) -> String {
    match hold {
        Hold::Exact => "exact".into(),
        Hold::Within(b) => format!("{:.0}%", b * 100.0),
    }
}

/// The human-readable report of one workload: every end-to-end metric by
/// name with its clock and unit, then (when traced) the per-layer table.
pub fn render_workload(w: &WorkloadResult) -> String {
    let mut out = format!(
        "\n== {} (seed {}, {} repetitions{}) — {}/{} ops failed — {}\n",
        w.workload,
        w.seed,
        w.reps,
        if w.quick { ", quick" } else { "" },
        w.failed,
        w.attempted,
        if w.correct { "correct" } else { "INCORRECT" }
    );
    for p in &w.problems {
        out.push_str(&format!("  PROBLEM: {p}\n"));
    }
    for n in &w.notes {
        out.push_str(&format!("  {n}\n"));
    }
    if !w.end_to_end.is_empty() {
        out.push_str(&format!(
            "  {:<24} {:<8} {:<7} {:>14}  {:<30} {:>6}\n",
            "end-to-end metric", "clock", "unit", "value", "quartiles [q1, q3] (n)", "bound"
        ));
        for def in &END_TO_END {
            let Some(m) = w.metric(def.name) else {
                continue;
            };
            let quartiles = m.quartiles().map_or(String::new(), |(q1, q3)| {
                format!(
                    "[{}, {}] ({})",
                    fmt_value(Some(q1)),
                    fmt_value(Some(q3)),
                    m.samples.len()
                )
            });
            out.push_str(&format!(
                "  {:<24} {:<8} {:<7} {:>14}  {:<30} {:>6}  {}\n",
                def.name,
                def.clock.label(),
                def.unit,
                fmt_value(m.value),
                quartiles,
                bound_label(def.hold),
                m.note
            ));
        }
    }
    if w.traced {
        out.push_str(&format!(
            "  {:<38} {:<14} {:<7} {:>14}  should move -> on workload | note\n",
            "per-layer metric", "layer", "unit", "value"
        ));
        for def in &PER_LAYER {
            let Some(m) = w.metric(def.name) else {
                continue;
            };
            out.push_str(&format!(
                "  {:<38} {:<14} {:<7} {:>14}  {}{}{}\n",
                def.name,
                def.layer,
                def.unit,
                fmt_value(m.value),
                def.moves,
                if m.note.is_empty() { "" } else { " | " },
                m.note
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(traced: bool) -> WorkloadResult {
        let mut w = WorkloadResult {
            workload: "tensor_func".into(),
            seed: 7,
            traced,
            reps: 3,
            attempted: 24,
            correct: true,
            ..Default::default()
        };
        for m in catalog::driver_end_to_end() {
            w.end_to_end
                .push(Metric::of_samples(m.name, vec![1.0, 2.0, 4.0], false));
        }
        w.per_layer
            .push(Metric::single("sim.cycles_per_op", Some(12.5), "a note"));
        w
    }

    #[test]
    fn results_roundtrip_through_json() {
        let w = sample_result(true);
        let back = WorkloadResult::from_json(&crate::json::parse(&w.to_json().to_line()).unwrap())
            .unwrap();
        assert_eq!(back, w);
        let file = RunFile {
            host: HostInfo {
                nproc: 2,
                pinned: "pinned to CPU 0".into(),
                cpu_model: "cpu".into(),
                rustc: "rustc 1".into(),
                git_commit: "abc".into(),
            },
            seed: 7,
            quick: true,
            workloads: vec![w],
        };
        let back = RunFile::from_json(&crate::json::parse(&file.to_json().to_line()).unwrap());
        assert_eq!(back.unwrap(), file);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = sample_result(false).driver_line().unwrap();
        let v = crate::json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), catalog::driver_end_to_end().count());
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.0));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));

        let traced = sample_result(true).driver_line().unwrap();
        let v = crate::json::parse(&traced).unwrap();
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), catalog::driver_per_layer().count());
        let unproduced = v.get("metrics").unwrap().get("fleet.tick_ns").unwrap();
        assert_eq!(unproduced.get("value").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn an_end_to_end_metric_without_a_value_is_refused() {
        let mut w = sample_result(false);
        w.end_to_end[0].value = None;
        assert!(w.driver_line().is_err());
    }
}
