//! SLO accounting over open-loop runs: per-window error-budget burn
//! against a latency target, and the latency-vs-load sweep that locates
//! the service's knee and collapse points.
//!
//! Reports serialize to JSON by hand (one stable field order, no
//! dependencies) so CI can validate them and bake them into dashboards;
//! with a single-chip device the JSON is bit-identical across runs of the
//! same seed.

use crate::driver::{run, LoadgenConfig, RunReport};
use pim_serve::Gateway;
use pypim_core::Result;

/// The SLO to hold a run against.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Latency target in modeled cycles: the p99 objective.
    pub target_p99_cycles: u64,
    /// Fraction of requests allowed above the target (e.g. `0.01` — the
    /// error budget a burn rate of 1.0 consumes exactly).
    pub error_budget: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            target_p99_cycles: 50_000,
            error_budget: 0.01,
        }
    }
}

/// One window of SLO accounting.
#[derive(Debug, Clone, Copy)]
pub struct WindowSlo {
    /// Window index in the run's series.
    pub index: u64,
    /// First modeled cycle of the window.
    pub start: u64,
    /// Last modeled cycle of the window (exclusive).
    pub end: u64,
    /// Requests completed in the window.
    pub completed: u64,
    /// Completions above the latency target in the window.
    pub over_target: u64,
    /// Windowed latency median (modeled cycles).
    pub p50_cycles: u64,
    /// Windowed latency p99 (modeled cycles).
    pub p99_cycles: u64,
    /// Windowed latency p999 (modeled cycles).
    pub p999_cycles: u64,
    /// Windowed gateway queue-wait p99 (modeled cycles) — the collapse
    /// signal.
    pub queue_wait_p99_cycles: u64,
    /// Error-budget burn rate: `(over_target / completed) / error_budget`.
    /// 1.0 burns the budget exactly; sustained values above 1.0 violate
    /// the SLO.
    pub burn_rate: f64,
}

/// Machine-readable SLO verdict for one open-loop run.
#[derive(Debug, Clone)]
pub struct SloReport {
    /// Seed the run's schedule came from.
    pub seed: u64,
    /// The SLO held against.
    pub slo: SloConfig,
    /// Offered load, requests per modeled second.
    pub offered_rps: f64,
    /// Achieved goodput, requests per modeled second.
    pub achieved_rps: f64,
    /// Total completions.
    pub completed: u64,
    /// Total failures.
    pub failed: u64,
    /// Total completions over target.
    pub over_target: u64,
    /// Whole-run latency p50 (modeled cycles).
    pub p50_cycles: u64,
    /// Whole-run latency p99 (modeled cycles).
    pub p99_cycles: u64,
    /// Whole-run latency p999 (modeled cycles).
    pub p999_cycles: u64,
    /// Whether the whole-run p99 met the target.
    pub met: bool,
    /// Per-window accounting.
    pub windows: Vec<WindowSlo>,
}

impl SloReport {
    fn from_run(report: &RunReport, slo: SloConfig) -> SloReport {
        let windows = report
            .windows
            .iter()
            .map(|w| {
                let completed = w.counter("loadgen.completed");
                let over = w.counter("loadgen.over_target");
                let lat = w.histogram("loadgen.latency_cycles");
                let qw = w.histogram("serve.queue_wait_cycles");
                WindowSlo {
                    index: w.index,
                    start: w.start,
                    end: w.end,
                    completed,
                    over_target: over,
                    p50_cycles: lat.map_or(0, |h| h.p50),
                    p99_cycles: lat.map_or(0, |h| h.p99),
                    p999_cycles: lat.map_or(0, |h| h.p999),
                    queue_wait_p99_cycles: qw.map_or(0, |h| h.p99),
                    burn_rate: if completed == 0 || slo.error_budget <= 0.0 {
                        0.0
                    } else {
                        (over as f64 / completed as f64) / slo.error_budget
                    },
                }
            })
            .collect();
        SloReport {
            seed: report.seed,
            slo,
            offered_rps: report.offered_rps,
            achieved_rps: report.achieved_rps,
            completed: report.completed,
            failed: report.failed,
            over_target: report.over_target,
            p50_cycles: report.latency.p50,
            p99_cycles: report.latency.p99,
            p999_cycles: report.latency.p999,
            met: report.latency.p99 <= slo.target_p99_cycles,
            windows,
        }
    }

    /// The report as one stable-field-order JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + 160 * self.windows.len());
        out.push_str(&format!(
            "{{\"seed\":{},\"target_p99_cycles\":{},\"error_budget\":{:.6},\
             \"offered_rps\":{:.3},\"achieved_rps\":{:.3},\"completed\":{},\
             \"failed\":{},\"over_target\":{},\"p50_cycles\":{},\
             \"p99_cycles\":{},\"p999_cycles\":{},\"met\":{},\"windows\":[",
            self.seed,
            self.slo.target_p99_cycles,
            self.slo.error_budget,
            self.offered_rps,
            self.achieved_rps,
            self.completed,
            self.failed,
            self.over_target,
            self.p50_cycles,
            self.p99_cycles,
            self.p999_cycles,
            self.met,
        ));
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"start\":{},\"end\":{},\"completed\":{},\
                 \"over_target\":{},\"p50_cycles\":{},\"p99_cycles\":{},\
                 \"p999_cycles\":{},\"queue_wait_p99_cycles\":{},\
                 \"burn_rate\":{:.4}}}",
                w.index,
                w.start,
                w.end,
                w.completed,
                w.over_target,
                w.p50_cycles,
                w.p99_cycles,
                w.p999_cycles,
                w.queue_wait_p99_cycles,
                w.burn_rate,
            ));
        }
        out.push_str("]}");
        out
    }

    /// A human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "SLO p99 ≤ {} cycles (budget {:.2}%): {} — offered {:.0} rps, \
             achieved {:.0} rps, p99 {} cycles, {}/{} over target\n",
            self.slo.target_p99_cycles,
            self.slo.error_budget * 100.0,
            if self.met { "MET" } else { "VIOLATED" },
            self.offered_rps,
            self.achieved_rps,
            self.p99_cycles,
            self.over_target,
            self.completed,
        );
        for w in &self.windows {
            out.push_str(&format!(
                "  win {:>3} [{:>9}..{:>9})  done {:>6}  p99 {:>8}  \
                 qwait p99 {:>8}  burn {:>6.2}\n",
                w.index,
                w.start,
                w.end,
                w.completed,
                w.p99_cycles,
                w.queue_wait_p99_cycles,
                w.burn_rate,
            ));
        }
        out
    }
}

/// Runs `cfg` against `gateway` with `slo`'s target as the over-target
/// threshold and returns both the raw run and its SLO verdict.
///
/// # Errors
///
/// As [`run`].
pub fn run_slo(
    gateway: &Gateway,
    cfg: &LoadgenConfig,
    slo: SloConfig,
) -> Result<(RunReport, SloReport)> {
    let mut cfg = cfg.clone();
    cfg.latency_target_cycles = slo.target_p99_cycles;
    let report = run(gateway, &cfg)?;
    let slo_report = SloReport::from_run(&report, slo);
    Ok((report, slo_report))
}

/// One operating point of a latency-vs-load sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Rate multiplier this point ran at.
    pub factor: f64,
    /// Offered load actually injected, requests per modeled second.
    pub offered_rps: f64,
    /// Achieved goodput, requests per modeled second.
    pub achieved_rps: f64,
    /// Whole-run latency p99 (modeled cycles).
    pub p99_cycles: u64,
    /// Request failures at this point.
    pub failed: u64,
    /// Whether this point showed queueing collapse: the windowed gateway
    /// queue-wait p99 diverged across the run (last ≥ 4× the first
    /// nonzero, over ≥ 3 active windows), or goodput fell below 80% of
    /// offered.
    pub collapsed: bool,
    /// The point's full SLO verdict.
    pub slo: SloReport,
}

/// Result of [`latency_vs_load`]: the sweep's points plus the derived
/// knee/collapse summary the serving benches publish.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Operating points, in the order swept (ascending offered load).
    pub points: Vec<SweepPoint>,
    /// Highest offered load still achieving ≥ 95% goodput — the knee.
    pub knee_rps: f64,
    /// Lowest offered load that collapsed (`None` if no point did).
    pub collapse_rps: Option<f64>,
    /// Latency p99 at ~70% of peak achieved load (modeled cycles) — the
    /// "healthy operating point" latency.
    pub p99_at_70pct_cycles: u64,
}

impl SweepReport {
    /// The sweep as one stable-field-order JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"points\":[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"factor\":{:.3},\"offered_rps\":{:.3},\"achieved_rps\":{:.3},\
                 \"p99_cycles\":{},\"failed\":{},\"collapsed\":{}}}",
                p.factor, p.offered_rps, p.achieved_rps, p.p99_cycles, p.failed, p.collapsed,
            ));
        }
        out.push_str(&format!(
            "],\"knee_rps\":{:.3},\"collapse_rps\":{},\"p99_at_70pct_cycles\":{}}}",
            self.knee_rps,
            self.collapse_rps
                .map_or("null".to_string(), |v| format!("{v:.3}")),
            self.p99_at_70pct_cycles,
        ));
        out
    }
}

/// Whether a run's windowed queue-wait p99 series diverges — the
/// signature of a queue that grows without bound under sustained
/// overload.
fn queue_wait_diverges(report: &RunReport) -> bool {
    let p99s: Vec<u64> = report
        .windows
        .iter()
        .filter_map(|w| w.histogram("serve.queue_wait_cycles"))
        .filter(|h| h.count > 0)
        .map(|h| h.p99)
        .collect();
    let (Some(&first), Some(&last)) = (p99s.iter().find(|&&p| p > 0), p99s.last()) else {
        return false;
    };
    p99s.len() >= 3 && last >= first.saturating_mul(4)
}

/// Sweeps offered load across `factors` (each point is `base` with every
/// arrival rate scaled by the factor, against a **fresh** gateway from
/// `make_gateway` so points don't share queues), and derives the knee and
/// collapse summary.
///
/// Pass factors in ascending order and wide enough to straddle the knee —
/// the collapse detection needs at least one overloaded point to find
/// anything.
///
/// # Errors
///
/// As [`run`]; the first failing point aborts the sweep.
pub fn latency_vs_load(
    mut make_gateway: impl FnMut() -> Result<Gateway>,
    base: &LoadgenConfig,
    factors: &[f64],
    slo: SloConfig,
) -> Result<SweepReport> {
    let mut points = Vec::with_capacity(factors.len());
    for &factor in factors {
        let gateway = make_gateway()?;
        let cfg = base.scaled(factor);
        let (report, slo_report) = run_slo(&gateway, &cfg, slo)?;
        let goodput = if report.offered_rps > 0.0 {
            report.achieved_rps / report.offered_rps
        } else {
            1.0
        };
        points.push(SweepPoint {
            factor,
            offered_rps: report.offered_rps,
            achieved_rps: report.achieved_rps,
            p99_cycles: report.latency.p99,
            failed: report.failed,
            collapsed: queue_wait_diverges(&report) || goodput < 0.8,
            slo: slo_report,
        });
    }

    let knee_rps = points
        .iter()
        .filter(|p| p.offered_rps > 0.0 && p.achieved_rps / p.offered_rps >= 0.95)
        .map(|p| p.offered_rps)
        .fold(0.0_f64, f64::max);
    let knee_rps = if knee_rps > 0.0 {
        knee_rps
    } else {
        points
            .iter()
            .map(|p| p.achieved_rps)
            .fold(0.0_f64, f64::max)
    };
    let collapse_rps = points
        .iter()
        .filter(|p| p.collapsed)
        .map(|p| p.offered_rps)
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.min(v)))
        });
    let peak = points
        .iter()
        .map(|p| p.achieved_rps)
        .fold(0.0_f64, f64::max);
    let p99_at_70pct_cycles = points
        .iter()
        .min_by(|a, b| {
            let da = (a.achieved_rps - 0.7 * peak).abs();
            let db = (b.achieved_rps - 0.7 * peak).abs();
            da.total_cmp(&db)
        })
        .map_or(0, |p| p.p99_cycles);

    Ok(SweepReport {
        points,
        knee_rps,
        collapse_rps,
        p99_at_70pct_cycles,
    })
}
