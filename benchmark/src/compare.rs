//! `pimbench compare <a.json> <b.json>`: one row per (end-to-end metric,
//! workload) with both values and the quartiles of their repetitions, the
//! ratio with its base, the bound and a verdict.

use crate::catalog::{Better, Hold, END_TO_END};
use crate::report::{bound_label, fmt_value, Metric, RunFile};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The repetitions of one side scatter (IQR ÷ median) wider than the
    /// bound and the two sides' samples overlap: the data cannot say.
    Unresolved,
    /// Neither side's workload produces the metric.
    Absent,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Absent => "-",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Metric,
    pub b: Metric,
    /// `b ÷ a` (base: `a`).
    pub ratio: Option<f64>,
    pub hold: Hold,
    pub verdict: Verdict,
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's bad
/// direction (negative when better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let change = (b - a) / a.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

fn range(m: &Metric) -> Option<(f64, f64)> {
    let lo = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (!m.samples.is_empty()).then_some((lo, hi))
}

/// The verdict for one pairing. `tolerance` is the workload's stated
/// tolerance on exact values (0 for bit-identical).
pub fn verdict(a: &Metric, b: &Metric, better: Better, hold: Hold, tolerance: f64) -> Verdict {
    let (Some(x), Some(y)) = (a.value, b.value) else {
        return if a.value.is_none() && b.value.is_none() {
            Verdict::Absent
        } else {
            // One side stopped (or started) producing the metric.
            Verdict::Regressed
        };
    };
    match hold {
        Hold::Exact => {
            let same = x == y || (x - y).abs() <= tolerance * x.abs().max(y.abs());
            if same {
                Verdict::Unchanged
            } else if x == 0.0 || worse_by(x, y, better) > 0.0 {
                Verdict::Regressed
            } else {
                Verdict::Improved
            }
        }
        Hold::Within(bound) => {
            // The raw scatter of the repetitions, not scaled down by √n:
            // this host drifts more slowly than a run lasts, so its
            // repetitions are not independent draws (README, "Bounds").
            let spread = |m: &Metric| {
                if m.samples.len() > 1 {
                    stats::spread(&m.samples)
                } else {
                    0.0
                }
            };
            let overlap = match (range(a), range(b)) {
                (Some((alo, ahi)), Some((blo, bhi))) => alo <= bhi && blo <= ahi,
                _ => false,
            };
            let worse = worse_by(x, y, better);
            if spread(a).max(spread(b)) > bound && overlap {
                Verdict::Unresolved
            } else if worse > bound {
                Verdict::Regressed
            } else if -worse > bound {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            }
        }
    }
}

pub fn compare(a: &RunFile, b: &RunFile) -> Vec<Row> {
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.workload == wa.workload) else {
            continue;
        };
        let tolerance = wa.exact_tolerance.max(wb.exact_tolerance);
        for def in &END_TO_END {
            let absent = || Metric::single(def.name, None, "");
            let ma = wa.metric(def.name).cloned().unwrap_or_else(absent);
            let mb = wb.metric(def.name).cloned().unwrap_or_else(absent);
            let ratio = match (ma.value, mb.value) {
                (Some(x), Some(y)) if x != 0.0 => Some(y / x),
                _ => None,
            };
            rows.push(Row {
                workload: wa.workload.clone(),
                metric: def.name,
                verdict: verdict(&ma, &mb, def.better, def.hold, tolerance),
                a: ma,
                b: mb,
                ratio,
                hold: def.hold,
            });
        }
    }
    rows
}

fn side(m: &Metric) -> String {
    match m.quartiles() {
        Some((q1, q3)) => format!(
            "{} [{}, {}]",
            fmt_value(m.value),
            fmt_value(Some(q1)),
            fmt_value(Some(q3))
        ),
        None => fmt_value(m.value),
    }
}

pub fn render(a_path: &str, b_path: &str, a: &RunFile, b: &RunFile, rows: &[Row]) -> String {
    let mut out = format!(
        "a = {a_path} (seed {}, commit {})\nb = {b_path} (seed {}, commit {})\n",
        a.seed, a.host.git_commit, b.seed, b.host.git_commit
    );
    if a.seed != b.seed {
        out.push_str(
            "WARNING: the seeds differ, so modeled (exact) metrics are expected to differ too\n",
        );
    }
    out.push_str(&format!(
        "{:<15} {:<22} {:<36} {:<36} {:>16} {:>6}  verdict\n",
        "workload", "metric", "a: value [q1, q3]", "b: value [q1, q3]", "b/a (base a)", "bound"
    ));
    for r in rows {
        if r.verdict == Verdict::Absent {
            continue;
        }
        out.push_str(&format!(
            "{:<15} {:<22} {:<36} {:<36} {:>16} {:>6}  {}\n",
            r.workload,
            r.metric,
            side(&r.a),
            side(&r.b),
            r.ratio.map_or("-".into(), |x| format!("{x:.4}")),
            bound_label(r.hold),
            r.verdict.label()
        ));
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    out.push_str(&format!(
        "{} improved, {} unchanged, {} regressed, {} unresolved\n",
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A host metric valued at the plain median of `samples` (the verdict
    /// logic does not care how the value was picked from them).
    fn host(samples: &[f64]) -> Metric {
        Metric {
            name: "m".into(),
            value: Some(stats::median(samples)),
            samples: samples.to_vec(),
            note: String::new(),
        }
    }

    #[test]
    fn host_metrics_follow_the_bound_and_the_direction() {
        let w = Hold::Within(0.10);
        let a = host(&[100.0, 101.0, 99.0]);
        assert_eq!(
            verdict(&a, &host(&[104.0, 105.0, 103.0]), Better::Lower, w, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&a, &host(&[120.0, 121.0, 119.0]), Better::Lower, w, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &host(&[120.0, 121.0, 119.0]), Better::Higher, w, 0.0),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&a, &host(&[80.0, 81.0, 79.0]), Better::Higher, w, 0.0),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let w = Hold::Within(0.10);
        let a = host(&[60.0, 100.0, 145.0, 80.0, 120.0]);
        let b = host(&[65.0, 105.0, 140.0, 85.0, 122.0]);
        assert_eq!(verdict(&a, &b, Better::Lower, w, 0.0), Verdict::Unresolved);
        // Every run of b better than every run of a: resolved despite the spread.
        let b = host(&[30.0, 40.0, 55.0, 35.0, 45.0]);
        assert_eq!(verdict(&a, &b, Better::Lower, w, 0.0), Verdict::Improved);
    }

    /// Scatter as this host produces it: twelve repetitions, a third of
    /// them slowed, IQR ÷ median ≈ 20 % against a 10 % bound. The values
    /// agree to 1 %, and still the data cannot vouch for 10 %.
    #[test]
    fn realistic_scatter_wider_than_the_bound_is_unresolved() {
        let w = Hold::Within(0.10);
        let a = host(&[
            55.3, 62.1, 60.6, 61.6, 51.1, 55.7, 63.6, 52.8, 48.7, 49.1, 61.8, 51.0,
        ]);
        let b = host(&[
            57.9, 60.8, 61.4, 61.1, 61.9, 56.3, 55.9, 63.6, 60.5, 62.7, 62.2, 61.3,
        ]);
        let s = stats::spread(&a.samples);
        assert!((0.15..0.25).contains(&s), "{s}");
        assert!(stats::spread(&b.samples) < 0.10);
        assert_eq!(verdict(&a, &b, Better::Higher, w, 0.0), Verdict::Unresolved);
        assert_eq!(verdict(&b, &a, Better::Higher, w, 0.0), Verdict::Unresolved);
        // The same samples against a bound wider than their scatter.
        assert_eq!(
            verdict(&a, &b, Better::Higher, Hold::Within(0.25), 0.0),
            Verdict::Unchanged
        );
    }

    #[test]
    fn exact_metrics_compare_for_equality() {
        let m = |v: f64| Metric::single("m", Some(v), "");
        let e = Hold::Exact;
        assert_eq!(
            verdict(&m(5.0), &m(5.0), Better::Lower, e, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&m(5.0), &m(5.000001), Better::Lower, e, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&m(5.0), &m(4.9), Better::Lower, e, 0.0),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&m(5.0), &m(5.01), Better::Lower, e, 0.01),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&m(0.0), &m(0.0), Better::Lower, e, 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&m(0.0), &m(0.5), Better::Lower, e, 0.0),
            Verdict::Regressed
        );
        let none = Metric::single("m", None, "");
        assert_eq!(
            verdict(&none, &none, Better::Lower, e, 0.0),
            Verdict::Absent
        );
        assert_eq!(
            verdict(&m(1.0), &none, Better::Lower, e, 0.0),
            Verdict::Regressed
        );
    }
}
