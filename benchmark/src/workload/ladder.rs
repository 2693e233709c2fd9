//! The layer ladder: one instruction stream (and the micro-op stream it
//! emits, captured by a benchmark-owned `Backend`) pushed through
//! successively deeper public entry points of the stack. A layer's self
//! time is its rung minus the rung below.

use super::Res;
use pypim::arch::{ArchError, Backend, MicroOp};
use pypim::cluster::{ClusterOptions, RecoveryConfig, ShardBackends};
use pypim::driver::Driver;
use pypim::fleet::{Fleet, FleetConfig, GatewayHost};
use pypim::isa::Instruction;
use pypim::{
    BackendKind, Device, DeviceServeExt, Gateway, ParallelismMode, PimConfig, ServeConfig,
};
use std::time::{Duration, Instant};

/// Iterations every rung of the serve ladders runs.
pub const MIN_ITERS: usize = 200;
/// Wall-clock cap of one [`time_iters`] measurement.
const RUNG_CAP: Duration = Duration::from_secs(3);

/// Median host nanoseconds of one call of `f`, over `min_iters` timed
/// calls after one untimed warm-up (stopping early — never below five —
/// once [`RUNG_CAP`] is spent).
pub fn time_iters(min_iters: usize, f: &mut dyn FnMut() -> Res<()>) -> Res<f64> {
    f()?;
    let begun = Instant::now();
    let mut samples = Vec::with_capacity(min_iters);
    while samples.len() < min_iters && (samples.len() < 5 || begun.elapsed() < RUNG_CAP) {
        let t = Instant::now();
        f()?;
        samples.push(t.elapsed().as_nanos() as f64);
    }
    Ok(crate::stats::median(&samples))
}

/// One backend call as the driver made it: a single `execute` or one
/// `execute_batch` of a pooled batch. Replays keep these boundaries,
/// because backends do per-batch work (the functional backend's
/// dead-store elimination, the simulator's thread fan-out).
#[derive(Debug, Clone)]
pub enum Call {
    One(MicroOp),
    /// Index into [`Captured::pool`].
    Batch(usize),
}

/// The micro-op stream a driver emitted, call by call. A batch the driver
/// hands over repeatedly (a cached routine) is stored once and replayed
/// from that one copy, as the driver replays it from its routine cache —
/// a flattened copy would stream megabytes the real path keeps hot.
#[derive(Debug, Clone, Default)]
pub struct Captured {
    pub pool: Vec<Vec<MicroOp>>,
    pub calls: Vec<Call>,
}

impl Captured {
    fn push_batch(&mut self, ops: &[MicroOp]) {
        let index = match self.pool.iter().position(|b| b.as_slice() == ops) {
            Some(i) => i,
            None => {
                self.pool.push(ops.to_vec());
                self.pool.len() - 1
            }
        };
        self.calls.push(Call::Batch(index));
    }

    /// Every micro-operation, in order.
    pub fn ops(&self) -> Vec<MicroOp> {
        self.calls
            .iter()
            .flat_map(|c| match c {
                Call::One(op) => std::slice::from_ref(op),
                Call::Batch(i) => self.pool[*i].as_slice(),
            })
            .cloned()
            .collect()
    }

    pub fn len(&self) -> usize {
        self.calls
            .iter()
            .map(|c| match c {
                Call::One(_) => 1,
                Call::Batch(i) => self.pool[*i].len(),
            })
            .sum()
    }

    /// Replays the calls on `backend`.
    pub fn replay(&self, backend: &mut impl Backend) -> Result<(), ArchError> {
        for call in &self.calls {
            match call {
                Call::One(op) => {
                    std::hint::black_box(backend.execute(op)?);
                }
                Call::Batch(i) => backend.execute_batch(&self.pool[*i])?,
            }
        }
        Ok(())
    }
}

/// Backend that keeps every call it is handed: how the benchmark sees the
/// stream a driver emits without touching the driver.
struct CaptureBackend {
    cfg: PimConfig,
    captured: Captured,
}

impl Backend for CaptureBackend {
    fn config(&self) -> &PimConfig {
        &self.cfg
    }

    fn execute(&mut self, op: &MicroOp) -> Result<Option<u32>, ArchError> {
        self.captured.calls.push(Call::One(op.clone()));
        Ok(matches!(op, MicroOp::Read { .. }).then_some(0))
    }

    fn execute_batch(&mut self, ops: &[MicroOp]) -> Result<(), ArchError> {
        self.captured.push_batch(ops);
        Ok(())
    }
}

struct CountBackend {
    cfg: PimConfig,
    count: u64,
}

impl Backend for CountBackend {
    fn config(&self) -> &PimConfig {
        &self.cfg
    }

    fn execute(&mut self, op: &MicroOp) -> Result<Option<u32>, ArchError> {
        self.count += 1;
        Ok(matches!(op, MicroOp::Read { .. }).then_some(0))
    }

    fn execute_batch(&mut self, ops: &[MicroOp]) -> Result<(), ArchError> {
        self.count += ops.len() as u64;
        Ok(())
    }
}

/// The micro-operations `Driver<capture>` emits for `instrs` on a warm
/// driver (second pass: masks and routine cache in steady state).
pub fn capture(cfg: &PimConfig, mode: ParallelismMode, instrs: &[Instruction]) -> Res<Captured> {
    let backend = CaptureBackend {
        cfg: cfg.clone(),
        captured: Captured::default(),
    };
    let mut driver = Driver::with_mode(backend, mode);
    driver.execute_all(instrs)?;
    driver.backend_mut().captured.calls.clear();
    driver.execute_all(instrs)?;
    Ok(driver.into_backend().captured)
}

/// One entry point of a ladder: a name and the call that is timed.
pub struct Rung<'a> {
    pub name: &'static str,
    run: Box<dyn FnMut() -> Res<()> + 'a>,
}

impl<'a> Rung<'a> {
    pub fn new(name: &'static str, run: impl FnMut() -> Res<()> + 'a) -> Self {
        Rung {
            name,
            run: Box::new(run),
        }
    }
}

/// Per-iteration nanoseconds of every rung of one ladder run.
pub struct Samples {
    names: Vec<&'static str>,
    ns: Vec<Vec<f64>>,
}

impl Samples {
    pub fn of(&self, name: &str) -> &[f64] {
        let i = self
            .names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("no rung named {name}"));
        &self.ns[i]
    }

    pub fn iters(&self) -> usize {
        self.ns.first().map_or(0, Vec::len)
    }

    pub fn median(&self, name: &str) -> f64 {
        crate::stats::median(self.of(name))
    }

    /// A layer's self time: the median over iterations of `upper − lower`
    /// (paired, so a slow stretch of the host hits both sides), clamped at
    /// zero; the flag says whether it was clamped.
    pub fn self_ns(&self, upper: &str, lower: &str) -> (f64, bool) {
        let diffs: Vec<f64> = self
            .of(upper)
            .iter()
            .zip(self.of(lower))
            .map(|(u, l)| u - l)
            .collect();
        crate::stats::self_time(crate::stats::median(&diffs), 0.0)
    }

    /// Median over iterations of `part ÷ whole`.
    pub fn share(&self, part: &str, whole: &str) -> f64 {
        let ratios: Vec<f64> = self
            .of(part)
            .iter()
            .zip(self.of(whole))
            .map(|(p, w)| p / w.max(1.0))
            .collect();
        crate::stats::median(&ratios)
    }
}

/// Wall-clock cap of one whole ladder.
const LADDER_CAP: Duration = Duration::from_secs(40);

/// Runs the rungs round-robin — iteration `i` of every rung before
/// iteration `i + 1` of any — for `min_iters` iterations after one
/// untimed warm-up round, stopping early (never below five) once
/// [`LADDER_CAP`] is spent. This host's speed drifts by tens of percent
/// over seconds; interleaving puts every rung through the same drift, so
/// differences between rungs mean something.
pub fn run_interleaved(rungs: &mut [Rung<'_>], min_iters: usize) -> Res<Samples> {
    for rung in rungs.iter_mut() {
        (rung.run)()?;
    }
    let begun = Instant::now();
    let mut ns = vec![Vec::with_capacity(min_iters); rungs.len()];
    let mut done = 0;
    while done < min_iters && (done < 5 || begun.elapsed() < LADDER_CAP) {
        for (rung, samples) in rungs.iter_mut().zip(&mut ns) {
            let t = Instant::now();
            (rung.run)()?;
            samples.push(t.elapsed().as_nanos() as f64);
        }
        done += 1;
    }
    Ok(Samples {
        names: rungs.iter().map(|r| r.name).collect(),
        ns,
    })
}

/// A backend that only counts: the driver's emission cost with no
/// execution behind it.
pub fn count_backend(cfg: &PimConfig) -> impl Backend {
    CountBackend {
        cfg: cfg.clone(),
        count: 0,
    }
}

/// Options of a ladder cluster: functional shards, recovery on or off.
pub fn cluster_options(mode: ParallelismMode, recovery: bool) -> ClusterOptions {
    ClusterOptions {
        mode,
        recovery: RecoveryConfig {
            enabled: recovery,
            ..RecoveryConfig::default()
        },
        backends: ShardBackends::Uniform(BackendKind::Functional),
        ..ClusterOptions::default()
    }
}

/// A gateway over a functional cluster with default recovery, whose one
/// session window spans the whole warp space.
pub fn ladder_gateway(cfg: &PimConfig, shards: usize, mode: ParallelismMode) -> Res<Gateway> {
    let dev = Device::cluster_with_options(cfg.clone(), shards, cluster_options(mode, true))?;
    let session_warps = dev.config().crossbars as u32;
    Ok(dev.serve(ServeConfig {
        session_warps,
        ..ServeConfig::default()
    }))
}

/// Waits until every shard worker of `dev` is past the completion wake of
/// its last job (a stats request is a round trip through each worker's
/// job queue). A worker that drops the last gateway handle from inside
/// that wake would join itself and panic, so ladder rungs quiesce before
/// they let go of a cluster-backed gateway.
pub fn quiesce(dev: &Device) -> Res<()> {
    dev.cluster_stats()?;
    Ok(())
}

/// A fault-free one-host fleet whose host is `gateway`.
pub fn one_host_fleet(cfg: &PimConfig, gateway: Gateway) -> Res<Fleet> {
    let host: Box<dyn GatewayHost + Send + Sync> = Box::new(gateway);
    Ok(Fleet::with_hosts(
        FleetConfig {
            hosts: 1,
            chip: cfg.clone(),
            ..FleetConfig::default()
        },
        vec![host],
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pypim::func::FuncBackend;
    use pypim::isa::{DType, RegOp, ThreadRange};

    fn add_instr(cfg: &PimConfig) -> Instruction {
        Instruction::RType {
            op: RegOp::Add,
            dtype: DType::Int32,
            dst: 2,
            srcs: [0, 1, 0],
            target: ThreadRange::all(cfg),
        }
    }

    #[test]
    fn captured_stream_replays_with_the_profiled_op_count() {
        let cfg = PimConfig::small().with_crossbars(2).with_rows(16);
        let instrs = [add_instr(&cfg)];
        let stream = capture(&cfg, ParallelismMode::BitSerial, &instrs).unwrap();
        assert!(stream.len() > 0);
        assert_eq!(stream.ops().len(), stream.len());
        let mut func = FuncBackend::new(cfg.clone()).unwrap();
        stream.replay(&mut func).unwrap();
        assert_eq!(func.profiler().ops.total(), stream.len() as u64);
    }

    #[test]
    fn interleaved_self_times_are_paired_and_clamped() {
        let spin = |n: u64| {
            move || -> Res<()> {
                let mut x = 0u64;
                for i in 0..n {
                    x = std::hint::black_box(x.wrapping_add(i));
                }
                Ok(())
            }
        };
        let mut rungs = [
            Rung::new("small", spin(1_000)),
            Rung::new("large", spin(200_000)),
        ];
        let samples = run_interleaved(&mut rungs, 15).unwrap();
        assert_eq!(samples.iters(), 15);
        assert_eq!(samples.of("small").len(), 15);
        let (up, clamped) = samples.self_ns("large", "small");
        assert!(up > 0.0 && !clamped);
        let (down, clamped) = samples.self_ns("small", "large");
        assert_eq!(down, 0.0);
        assert!(clamped, "a negative difference is clamped and flagged");
        assert!(samples.share("small", "large") < 1.0);
    }

    #[test]
    fn time_iters_reports_a_positive_median() {
        let mut n = 0u64;
        let t = time_iters(10, &mut || {
            n += 1;
            std::hint::black_box(n);
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 11, "one untimed warm-up, then the timed iterations");
        assert!(t >= 0.0);
    }
}
