//! Benchmark harness reproducing the PyPIM evaluation (§VI, Figure 13):
//! workload generators, cycle measurement against the theoretical-PIM
//! baseline, and the host-driver throughput methodology of Artifact
//! Appendix E.
//!
//! Binaries:
//!
//! * `figure13` — regenerates both panels of Figure 13 (throughput of the
//!   fundamental/comparison operations and of the library-level benchmarks,
//!   for PyPIM vs theoretical PIM vs the host driver) plus the §VI-B
//!   summary statistics.
//! * `table2` — regenerates Table II as a coverage/cost matrix, including
//!   the serial-vs-partition-parallel addition ablation (§III-D).

use pim_arch::PimConfig;
use pim_driver::{Driver, ParallelismMode, SinkBackend};
use pim_isa::{DType, Instruction, RegOp, ThreadRange};
use pypim_core::{Device, Result, Tensor};
use rand::{Rng, SeedableRng};

/// One measured benchmark: everything needed for a Figure 13 bar group.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark label (Figure 13 x-axis).
    pub name: String,
    /// Element operations performed per invocation (the parallelism term).
    pub elements: u64,
    /// PIM cycles measured by the simulator profiler.
    pub measured_cycles: u64,
    /// Pure-logic cycles issued by the driver (theoretical-PIM latency).
    pub theoretical_cycles: u64,
    /// Host-driver micro-operation streaming rate (ops/second), measured
    /// with the rerouted-buffer methodology; `None` if not measured.
    pub driver_rate: Option<f64>,
    /// PIM clock (Hz) of the measured configuration.
    pub clock_hz: f64,
}

impl BenchResult {
    /// PyPIM throughput (element ops/second): Eq. (1) with the measured
    /// latency.
    pub fn pypim_tput(&self) -> f64 {
        self.elements as f64 * self.clock_hz / self.measured_cycles as f64
    }

    /// Theoretical PIM throughput: Eq. (1) with the pure-logic latency.
    pub fn theoretical_tput(&self) -> f64 {
        self.elements as f64 * self.clock_hz / self.theoretical_cycles as f64
    }

    /// Maximal throughput the host driver can sustain: the chip consumes
    /// one micro-operation per cycle, so a driver streaming `R` ops/s
    /// supports `elements × R / measured_cycles`.
    pub fn driver_tput(&self) -> Option<f64> {
        self.driver_rate
            .map(|r| self.elements as f64 * r / self.measured_cycles as f64)
    }

    /// Distance from theoretical PIM (`measured/theoretical − 1`).
    pub fn distance_from_theory(&self) -> f64 {
        self.measured_cycles as f64 / self.theoretical_cycles as f64 - 1.0
    }

    /// Driver headroom: `driver_rate / clock` (the paper's "the host driver
    /// is N× faster than PyPIM" metric).
    pub fn driver_headroom(&self) -> Option<f64> {
        self.driver_rate.map(|r| r / self.clock_hz)
    }
}

/// The benchmark suite of §VI-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fundamental arithmetic / comparison on random tensors.
    RType(RegOp, DType),
    /// CORDIC sine on random angles in `[-π/2, π/2]`.
    CordicSine,
    /// Logarithmic summation reduction (float).
    SumReduce,
    /// Logarithmic multiplication reduction (float).
    MulReduce,
    /// Bitonic sort of `n` random floats.
    Sort(usize),
}

impl Workload {
    /// The Figure 13 label.
    pub fn name(&self) -> String {
        match self {
            Workload::RType(op, DType::Int32) => match op {
                RegOp::Lt => "Int <".into(),
                _ => format!("Int {op}"),
            },
            Workload::RType(op, DType::Float32) => format!("FP {op}"),
            Workload::CordicSine => "CORDIC Sine".into(),
            Workload::SumReduce => "FP Sum Reduce".into(),
            Workload::MulReduce => "FP Mult Reduce".into(),
            Workload::Sort(n) => format!("FP Sort {}", human(*n)),
        }
    }
}

/// The two panels of Figure 13 — the fundamental operations and the
/// library-level benchmarks. `full` sorts 64k elements beside 1k, the quick
/// suite 4k.
pub fn figure13_suite(full: bool) -> ([Workload; 5], [Workload; 5]) {
    let top = [
        Workload::RType(RegOp::Add, DType::Int32),
        Workload::RType(RegOp::Mul, DType::Int32),
        Workload::RType(RegOp::Lt, DType::Int32),
        Workload::RType(RegOp::Add, DType::Float32),
        Workload::RType(RegOp::Mul, DType::Float32),
    ];
    let bottom = [
        Workload::CordicSine,
        Workload::SumReduce,
        Workload::MulReduce,
        Workload::Sort(1024),
        Workload::Sort(if full { 65536 } else { 4096 }),
    ];
    (top, bottom)
}

/// The §VI-B summary of a suite: `(average, worst)` distance from
/// theoretical PIM. The paper claims 5 % and 16 %.
pub fn distance_summary<'a>(results: impl IntoIterator<Item = &'a BenchResult>) -> (f64, f64) {
    let (mut sum, mut worst, mut count) = (0.0, f64::MIN, 0);
    for d in results.into_iter().map(BenchResult::distance_from_theory) {
        (sum, worst, count) = (sum + d, worst.max(d), count + 1);
    }
    (sum / count as f64, worst)
}

fn human(n: usize) -> String {
    if n.is_multiple_of(1024) {
        format!("{}k", n / 1024)
    } else {
        n.to_string()
    }
}

/// Random finite floats with moderate magnitudes.
pub fn random_floats(n: usize, seed: u64) -> Vec<f32> {
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| r.gen_range(-1000.0f32..1000.0)).collect()
}

/// Random ints.
pub fn random_ints(n: usize, seed: u64) -> Vec<i32> {
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n).map(|_| r.gen()).collect()
}

/// A strict-safe horizontal-logic batch: `pairs` repetitions of
/// whole-register INIT1 followed by a partition-parallel NOR — the
/// micro-operation mix dominating every compiled routine. Shared by the
/// `simulator` and `cluster` benches so their `hlogic` groups stay
/// comparable.
pub fn hlogic_ops(cfg: &PimConfig, pairs: usize) -> Vec<pim_arch::MicroOp> {
    use pim_arch::{GateKind, HLogic, MicroOp};
    let mut ops = Vec::with_capacity(2 * pairs);
    for _ in 0..pairs {
        ops.push(MicroOp::LogicH(HLogic::init_reg(true, 2, cfg).unwrap()));
        ops.push(MicroOp::LogicH(
            HLogic::parallel(GateKind::Nor, 0, 1, 2, cfg).unwrap(),
        ));
    }
    ops
}

fn input_tensors(dev: &Device, w: &Workload, n: usize) -> Result<(Tensor, Option<Tensor>)> {
    match w {
        Workload::RType(_, DType::Int32) => Ok((
            dev.from_slice_i32(&random_ints(n, 11))?,
            Some(dev.from_slice_i32(&random_ints(n, 22))?),
        )),
        Workload::RType(_, DType::Float32) => Ok((
            dev.from_slice_f32(&random_floats(n, 33))?,
            Some(dev.from_slice_f32(&random_floats(n, 44))?),
        )),
        Workload::CordicSine => {
            let mut r = rand::rngs::StdRng::seed_from_u64(55);
            let half_pi = std::f32::consts::FRAC_PI_2;
            let angles: Vec<f32> = (0..n).map(|_| r.gen_range(-half_pi..half_pi)).collect();
            Ok((dev.from_slice_f32(&angles)?, None))
        }
        Workload::SumReduce | Workload::MulReduce => {
            // Values near 1 so the running product stays finite.
            let mut r = rand::rngs::StdRng::seed_from_u64(66);
            let vals: Vec<f32> = (0..n).map(|_| r.gen_range(0.5f32..1.5)).collect();
            Ok((dev.from_slice_f32(&vals)?, None))
        }
        Workload::Sort(sn) => Ok((dev.from_slice_f32(&random_floats(*sn, 77))?, None)),
    }
}

/// Runs one workload on `dev` over `n` elements (ignored for `Sort`, which
/// carries its own size) and returns the measured result. Inputs are
/// loaded *before* the measurement region, as in the paper's tests.
///
/// # Errors
///
/// Propagates library errors.
pub fn run_workload(dev: &Device, w: Workload, n: usize) -> Result<BenchResult> {
    let (a, b) = input_tensors(dev, &w, n)?;
    dev.reset_counters()?;
    let elements = match w {
        Workload::RType(op, _) => {
            let _out = a.binary(op, b.as_ref().expect("binary workload"))?;
            a.len() as u64
        }
        Workload::CordicSine => {
            let _s = a.sin()?;
            a.len() as u64
        }
        Workload::SumReduce => {
            let _v = a.sum_f32()?;
            a.len() as u64
        }
        Workload::MulReduce => {
            let _v = a.prod_f32()?;
            a.len() as u64
        }
        Workload::Sort(_) => {
            let _s = a.sorted()?;
            a.len() as u64
        }
    };
    let measured = dev.profiler()?.cycles;
    let issued = dev.issued()?;
    Ok(BenchResult {
        name: w.name(),
        elements,
        measured_cycles: measured.max(1),
        theoretical_cycles: issued.logic.max(1),
        driver_rate: None,
        clock_hz: dev.config().clock_hz,
    })
}

/// Measures the host driver's micro-operation streaming rate for one
/// R-type operation — the paper's Appendix E methodology: micro-operations
/// are rerouted to a memory buffer ([`SinkBackend`]) instead of the chip,
/// timing only the CPU-side translation work.
pub fn measure_driver_rate(cfg: &PimConfig, op: RegOp, dtype: DType, iters: u64) -> f64 {
    let sink = SinkBackend::new(cfg.clone()).expect("valid config");
    let mut driver = Driver::new(sink);
    let instr = Instruction::RType {
        op,
        dtype,
        dst: 2,
        srcs: [0, 1, 0],
        target: ThreadRange::all(cfg),
    };
    // Warm the routine cache (compilation excluded: the paper's driver has
    // its translation fixed in code).
    driver.execute_streamed(&instr).expect("warmup");
    let before = driver.backend().total_ops();
    let start = std::time::Instant::now();
    let mut done = 0u64;
    // Run at least `iters` iterations and at least 20 ms for a stable rate.
    while done < iters || start.elapsed().as_secs_f64() < 0.02 {
        driver.execute_streamed(&instr).expect("sink never fails");
        done += 1;
    }
    let dt = start.elapsed().as_secs_f64().max(1e-9);
    let ops = driver.backend().total_ops() - before;
    std::hint::black_box(driver.backend().digest());
    ops as f64 / dt
}

/// The quick benchmark geometry: 16 crossbars × 256 rows (4k threads).
/// Latency in cycles is geometry-independent for element-parallel
/// operations, so Figure 13's *shape* is preserved; throughput is reported
/// at the measured scale and additionally rescaled to Table III.
pub fn quick_config() -> PimConfig {
    PimConfig::small().with_crossbars(16).with_rows(256)
}

/// The full benchmark geometry (64 × 1024 = 64k threads); slow under the
/// bit-accurate simulator.
pub fn full_config() -> PimConfig {
    PimConfig::small().with_crossbars(64).with_rows(1024)
}

/// Cycle counts for the serial-vs-partition-parallel addition ablation
/// (total cycles including initialization overhead).
///
/// # Errors
///
/// Propagates compilation errors.
pub fn ablation_add_cycles(cfg: &PimConfig) -> Result<(u64, u64)> {
    let serial =
        pim_driver::theory::rtype_stats(cfg, ParallelismMode::BitSerial, RegOp::Add, DType::Int32)
            .map_err(pypim_core::CoreError::from)?;
    let parallel = pim_driver::theory::rtype_stats(
        cfg,
        ParallelismMode::BitParallel,
        RegOp::Add,
        DType::Int32,
    )
    .map_err(pypim_core::CoreError::from)?;
    Ok((serial.total_cycles(), parallel.total_cycles()))
}

/// Formats a throughput in engineering notation.
pub fn eng(x: f64) -> String {
    format!("{x:10.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtype_workload_measures_cycles() {
        // Bit-serial mode: the AritPIM-style logic-cycle bound is tight
        // (the partition-parallel adder trades extra INIT cycles for fewer
        // logic cycles, so its distance metric is larger by construction).
        let dev = Device::with_mode(PimConfig::small(), ParallelismMode::BitSerial).unwrap();
        let r = run_workload(&dev, Workload::RType(RegOp::Add, DType::Int32), 64).unwrap();
        assert!(r.measured_cycles >= r.theoretical_cycles);
        assert!(
            r.distance_from_theory() < 0.25,
            "distance {}",
            r.distance_from_theory()
        );
        assert!(r.pypim_tput() <= r.theoretical_tput());
    }

    #[test]
    fn library_workloads_run() {
        let dev = Device::new(PimConfig::small()).unwrap();
        for w in [Workload::SumReduce, Workload::MulReduce, Workload::Sort(32)] {
            let r = run_workload(&dev, w, 48).unwrap();
            assert!(r.measured_cycles > 0, "{}", r.name);
            assert!(r.theoretical_cycles > 0);
        }
    }

    #[test]
    fn driver_rate_is_positive() {
        let rate = measure_driver_rate(&PimConfig::small(), RegOp::Add, DType::Int32, 50);
        assert!(rate > 1e5, "rate {rate}");
    }

    #[test]
    fn ablation_shows_partition_benefit() {
        let (serial, parallel) = ablation_add_cycles(&PimConfig::small()).unwrap();
        assert!(parallel < serial, "parallel {parallel} vs serial {serial}");
    }

    #[test]
    fn workload_names_match_figure13() {
        assert_eq!(Workload::RType(RegOp::Add, DType::Int32).name(), "Int add");
        assert_eq!(Workload::RType(RegOp::Lt, DType::Int32).name(), "Int <");
        assert_eq!(Workload::Sort(1024).name(), "FP Sort 1k");
        assert_eq!(Workload::Sort(65536).name(), "FP Sort 64k");
    }
}
