//! The six workloads. Each is built once per set-up (device construction,
//! sessions, schedules and one warm pass — the harness times that as
//! `setup_s`), then asked for fixed-count repetitions.

pub mod ladder;
pub mod loadgen;
pub mod serve;
pub mod tensor;

use crate::catalog;
use crate::trace::Tracer;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Modeled cycles per modeled second where a rate is quoted (the trace
/// export's 1 cycle = 1 µs convention, shared with `pim-loadgen`).
pub const CYCLES_PER_SEC: f64 = pypim::loadgen::MODELED_CYCLES_PER_SEC;

/// Work sizes: the full counts, or a tenth of them for `--quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    /// `full` scaled to this run (never below 1).
    pub fn count(self, full: u64) -> u64 {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Default, Clone)]
pub struct Rep {
    /// Host seconds of the measured region.
    pub host_s: f64,
    /// Ops attempted (tensor-program invocations, requests, arrivals).
    pub ops: u64,
    /// Ops that failed, were refused, or returned a wrong value.
    pub failed: u64,
    /// Host seconds of each op the benchmark issued itself (none for the
    /// `pim-loadgen` workloads: the generator owns the per-op clock).
    pub op_s: Vec<f64>,
    /// Micro-operations the backends executed (`Profiler::ops.total()`).
    pub microops: u64,
    /// Deterministic values (modeled end-to-end metrics and per-op
    /// counts), asserted equal on every repetition of a run.
    pub exact: Vec<(String, f64)>,
    /// Per-layer counts that may legitimately differ between repetitions
    /// (anything that depends on thread interleaving).
    pub layer: Vec<(String, f64)>,
    /// Metrics this workload reports that this repetition has no value
    /// for, each with the reason; they print as `null`.
    pub absent: Vec<(String, String)>,
}

impl Rep {
    pub fn exact(&mut self, name: &str, value: f64) {
        self.exact.push((name.to_string(), value));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.push((name.to_string(), value));
    }

    pub fn absent(&mut self, name: &str, why: &str) {
        self.absent.push((name.to_string(), why.to_string()));
    }
}

/// A per-layer value from the traced run; `None` prints as `null` with
/// the note saying why.
#[derive(Debug, Clone)]
pub struct LayerValue {
    pub name: String,
    pub value: Option<f64>,
    pub note: String,
}

impl LayerValue {
    pub fn some(name: &str, value: f64) -> Self {
        LayerValue {
            name: name.to_string(),
            value: Some(value),
            note: String::new(),
        }
    }

    pub fn noted(name: &str, value: Option<f64>, note: impl Into<String>) -> Self {
        LayerValue {
            name: name.to_string(),
            value,
            note: note.into(),
        }
    }
}

pub trait Workload {
    /// Runs one fixed-count repetition, recording op spans into `tracer`
    /// when it is enabled.
    fn rep(&mut self, tracer: &Tracer) -> Res<Rep>;

    /// Checks done once per run, outside the timed set-up (e.g.
    /// `tensor_func` against a `pim-sim` run at its geometry).
    fn verify(&self) -> Res<()> {
        Ok(())
    }

    /// Switches `pim-telemetry` recording on the devices this workload
    /// drives (end-to-end runs keep it off). `false`: the program arms
    /// telemetry itself on every run, so there is no switch and no
    /// untraced side to compare a traced one with.
    fn set_telemetry(&mut self, on: bool) -> bool;

    /// Events `pim-telemetry` has recorded on those devices.
    fn telemetry_events(&self) -> u64;

    /// Timed per-layer metrics of the traced run: op-span rollups and the
    /// layer ladder. `traced` is the repetition the spans in `tracer`
    /// belong to.
    fn layer_metrics(&mut self, tracer: &Tracer, traced: &Rep) -> Res<Vec<LayerValue>>;

    /// Relative tolerance of this workload's `exact` values between
    /// repetitions (0 unless the README says why not).
    fn exact_tolerance(&self) -> f64 {
        0.0
    }

    /// Lines for the human report (reference values beside measured ones).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Builds `name` from `seed`: the timed set-up, warm pass included.
pub fn build(name: &str, seed: u64, scale: Scale) -> Res<Box<dyn Workload>> {
    Ok(match name {
        catalog::TENSOR_SIM => Box::new(tensor::Tensor::sim(seed, scale)?),
        catalog::TENSOR_FUNC => Box::new(tensor::Tensor::func(seed, scale)?),
        catalog::SERVE_FUSED => Box::new(serve::Fused::new(seed, scale)?),
        catalog::SERVE_CROSSING => Box::new(serve::Crossing::new(seed, scale)?),
        catalog::OPEN_LOOP => Box::new(loadgen::OpenLoop::new(seed, scale)?),
        catalog::FLEET_FAILOVER => Box::new(loadgen::FleetFailover::new(seed, scale)?),
        other => return Err(format!("unknown workload {other:?}").into()),
    })
}

/// SplitMix64: the benchmark's own input generator, so the program under
/// test receives only generated inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, purpose)`; distinct purposes are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.unit() as f32
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        lo + (self.unit() * (hi - lo) as f64) as u64
    }
}

/// Sum of recorded events across a telemetry handle's tracks.
pub fn recorded_events(telemetry: &pypim::telemetry::Telemetry) -> u64 {
    telemetry
        .recorder()
        .tracks()
        .iter()
        .map(|(_, events, dropped)| events.len() as u64 + dropped)
        .sum()
}

/// Median of `samples`, or `None` when there are none.
pub fn median_opt(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| crate::stats::median(samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 1);
        for _ in 0..1000 {
            let x = r.range_f32(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
            let k = r.range_u64(5, 9);
            assert!((5..9).contains(&k));
        }
    }

    #[test]
    fn quick_scale_is_a_tenth_and_never_zero() {
        assert_eq!(Scale { quick: true }.count(100), 10);
        assert_eq!(Scale { quick: true }.count(5), 1);
        assert_eq!(Scale { quick: false }.count(100), 100);
    }
}
