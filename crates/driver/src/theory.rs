//! Theoretical PIM latency baselines — the "Theoretical PIM" series of
//! Figure 13.
//!
//! The theoretical latency of a routine is its pure-logic cycle count: the
//! number of `NOT`/`NOR` micro-operations on the emission path, excluding
//! the `INIT` overhead the stateful-logic discipline requires (AritPIM-style
//! lower bounds count gate cycles the same way). The paper's "PyPIM is on
//! average 5% away from theoretical PIM" is exactly the measured overhead
//! fraction.
//!
//! Closed forms for the classic routines are also provided and regression-
//! tested against the compiled gate counts.

use crate::builder::RoutineStats;
use crate::{routines, DriverError, ParallelismMode};
use pim_arch::PimConfig;
use pim_isa::{DType, RegOp};

/// Bit-serial ripple-carry addition: the `9N` NOR gates quoted in §II-B.
pub fn ripple_add_gates(n: u64) -> u64 {
    9 * n
}

/// Bit-serial subtraction: ripple addition plus one complement per bit.
pub fn ripple_sub_gates(n: u64) -> u64 {
    10 * n
}

/// Compiles the routine for `(op, dtype)` and returns its cost statistics —
/// `logic_cycles` is the theoretical latency, `total_cycles()` the measured
/// one.
///
/// # Errors
///
/// Propagates compilation errors.
pub fn rtype_stats(
    cfg: &PimConfig,
    mode: ParallelismMode,
    op: RegOp,
    dtype: DType,
) -> Result<RoutineStats, DriverError> {
    let srcs: [u8; 3] = [0, 1, 2];
    let routine = routines::compile_rtype(cfg, mode, op, dtype, 3, &srcs[..op.arity()])?;
    Ok(routine.stats)
}

/// Theoretical latency in PIM cycles of one R-type operation.
///
/// # Errors
///
/// Propagates compilation errors.
pub fn rtype_cycles(
    cfg: &PimConfig,
    mode: ParallelismMode,
    op: RegOp,
    dtype: DType,
) -> Result<u64, DriverError> {
    Ok(rtype_stats(cfg, mode, op, dtype)?.logic_cycles)
}

/// Theoretical throughput (elements/s) of one R-type operation at full
/// parallelism — Eq. (1) with the theoretical latency.
///
/// # Errors
///
/// Propagates compilation errors.
pub fn rtype_throughput(
    cfg: &PimConfig,
    mode: ParallelismMode,
    op: RegOp,
    dtype: DType,
) -> Result<f64, DriverError> {
    Ok(cfg.throughput_ops_per_sec(rtype_cycles(cfg, mode, op, dtype)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_add_matches_9n() {
        let cfg = PimConfig::small();
        let stats =
            rtype_stats(&cfg, ParallelismMode::BitSerial, RegOp::Add, DType::Int32).unwrap();
        assert_eq!(stats.logic_cycles, ripple_add_gates(32));
        // Measured within 5% of theoretical (the §VI-B claim's origin):
        // 11 INITs on 288 gates.
        assert!(
            stats.overhead_fraction() < 0.05,
            "overhead {}",
            stats.overhead_fraction()
        );
    }

    #[test]
    fn serial_sub_matches_10n() {
        let cfg = PimConfig::small();
        let stats =
            rtype_stats(&cfg, ParallelismMode::BitSerial, RegOp::Sub, DType::Int32).unwrap();
        assert_eq!(stats.logic_cycles, ripple_sub_gates(32));
    }

    #[test]
    fn parallel_add_beats_serial() {
        let cfg = PimConfig::small();
        let serial =
            rtype_cycles(&cfg, ParallelismMode::BitSerial, RegOp::Add, DType::Int32).unwrap();
        let parallel =
            rtype_cycles(&cfg, ParallelismMode::BitParallel, RegOp::Add, DType::Int32).unwrap();
        assert!(
            parallel * 2 <= serial,
            "partition-parallel add ({parallel}) should be at least 2x faster than serial \
             ({serial})"
        );
    }

    #[test]
    fn relative_costs_are_sane() {
        let cfg = PimConfig::small();
        let m = ParallelismMode::BitSerial;
        let add = rtype_cycles(&cfg, m, RegOp::Add, DType::Int32).unwrap();
        let mul = rtype_cycles(&cfg, m, RegOp::Mul, DType::Int32).unwrap();
        let div = rtype_cycles(&cfg, m, RegOp::Div, DType::Int32).unwrap();
        let xor = rtype_cycles(&cfg, m, RegOp::Xor, DType::Int32).unwrap();
        assert!(xor < add && add < mul && mul < div);
        let fadd = rtype_cycles(&cfg, m, RegOp::Add, DType::Float32).unwrap();
        let fmul = rtype_cycles(&cfg, m, RegOp::Mul, DType::Float32).unwrap();
        assert!(
            fadd < fmul,
            "fadd {fadd} should be cheaper than fmul {fmul}"
        );
    }

    #[test]
    fn throughput_uses_eq1() {
        let cfg = PimConfig::paper();
        let t =
            rtype_throughput(&cfg, ParallelismMode::BitSerial, RegOp::Add, DType::Int32).unwrap();
        let cycles =
            rtype_cycles(&cfg, ParallelismMode::BitSerial, RegOp::Add, DType::Int32).unwrap();
        let manual = cfg.total_threads() as f64 / cycles as f64 * cfg.clock_hz;
        assert!((t - manual).abs() < 1.0);
        // Paper scale: int add around 7e13 ops/s on the Table III geometry.
        assert!(t > 1e13 && t < 1e15, "throughput {t:.3e}");
    }
}
