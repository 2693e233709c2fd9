//! Test harness shared by the routine unit tests: compiles a routine and
//! evaluates it on the bit-accurate simulator (strict mode), one value per
//! row so a whole batch of test vectors runs element-parallel — exactly the
//! paper's correctness methodology (§VI-A).

use crate::routines::compile_rtype;
use crate::{CircuitBuilder, DriverError, ParallelismMode, Routine};
use pim_arch::{Backend, MicroOp, PimConfig, RangeMask};
use pim_isa::{DType, RegOp};
use pim_sim::PimSimulator;

/// Geometry used by routine tests: one crossbar, `rows` threads, the top
/// `scratch` registers reserved for the driver.
fn test_cfg(rows: usize, scratch: usize) -> PimConfig {
    let cfg = PimConfig::small().with_crossbars(1).with_rows(rows.max(1));
    let user_regs = cfg.regs - scratch;
    cfg.with_user_regs(user_regs)
}

/// Compiles `build` through the production entry point; returns the routine
/// and what `build` returned in the emitting run.
pub fn compile<T>(
    cfg: &PimConfig,
    mut build: impl FnMut(&mut CircuitBuilder) -> T,
) -> (Routine, T) {
    let mut out = None;
    let routine = CircuitBuilder::compile(cfg, |b| {
        out = Some(build(b));
        Ok(())
    })
    .expect("compile");
    (routine, out.expect("the body ran"))
}

/// Evaluates `op` element-parallel over input columns (one source register
/// per input vector), returning the destination values. Scratch starts
/// dirty; the simulator runs in strict mode, so missing initializations
/// fail loudly.
pub fn eval_vec(
    op: RegOp,
    dtype: DType,
    mode: ParallelismMode,
    inputs: &[&[u32]],
    dst: u8,
    srcs: &[u8],
) -> Vec<u32> {
    let scratch = PimConfig::small().scratch_regs();
    try_eval_vec(scratch, op, dtype, mode, inputs, dst, srcs).expect("compile")
}

/// [`eval_vec`] with a scratch pool of `scratch` registers.
///
/// # Errors
///
/// Returns the compilation error when the pool is too small for the routine.
pub fn try_eval_vec(
    scratch: usize,
    op: RegOp,
    dtype: DType,
    mode: ParallelismMode,
    inputs: &[&[u32]],
    dst: u8,
    srcs: &[u8],
) -> Result<Vec<u32>, DriverError> {
    let n = inputs[0].len();
    assert!(inputs.iter().all(|v| v.len() == n));
    let cfg = test_cfg(n, scratch);
    let routine = compile_rtype(&cfg, mode, op, dtype, dst, srcs)?
        .prepare(&cfg)
        .expect("prepare");
    let mut sim = PimSimulator::new(cfg.clone()).expect("sim");
    for reg in cfg.user_regs..cfg.regs {
        for row in 0..cfg.rows {
            sim.poke(0, row, reg, 0xBAD_C0DE);
        }
    }
    for (slot, vals) in inputs.iter().enumerate() {
        for (row, v) in vals.iter().enumerate() {
            sim.poke(0, row, srcs[slot] as usize, *v);
        }
    }
    sim.execute(&MicroOp::XbMask(RangeMask::single(0))).unwrap();
    sim.execute(&MicroOp::RowMask(RangeMask::dense(0, n as u32).unwrap()))
        .unwrap();
    sim.execute_prepared(&routine.batch).unwrap();
    Ok((0..n).map(|row| sim.peek(0, row, dst as usize)).collect())
}

/// The host's result of one R-type operation on raw words, with the
/// semantics [`RegOp`] documents (`a`, `x`, `y` are the sources in order;
/// unary operations read `a`, [`RegOp::Mux`] selects on `a`).
pub fn host_reference(op: RegOp, dtype: DType, a: u32, x: u32, y: u32) -> u32 {
    let (ai, xi) = (a as i32, x as i32);
    let (af, xf) = (f32::from_bits(a), f32::from_bits(x));
    let float = dtype == DType::Float32;
    let pick = |f: f32, i: i32| if float { f.to_bits() } else { i as u32 };
    let test = |f: bool, i: bool| (if float { f } else { i }) as u32;
    match op {
        RegOp::Add => pick(af + xf, ai.wrapping_add(xi)),
        RegOp::Sub => pick(af - xf, ai.wrapping_sub(xi)),
        RegOp::Mul => pick(af * xf, ai.wrapping_mul(xi)),
        RegOp::Div => pick(af / xf, if xi == 0 { 0 } else { ai.wrapping_div(xi) }),
        RegOp::Mod => (if xi == 0 { ai } else { ai.wrapping_rem(xi) }) as u32,
        RegOp::Neg if float => a ^ 0x8000_0000,
        RegOp::Neg => ai.wrapping_neg() as u32,
        RegOp::Abs if float => a & 0x7FFF_FFFF,
        RegOp::Abs => ai.wrapping_abs() as u32,
        RegOp::Lt => test(af < xf, ai < xi),
        RegOp::Le => test(af <= xf, ai <= xi),
        RegOp::Gt => test(af > xf, ai > xi),
        RegOp::Ge => test(af >= xf, ai >= xi),
        RegOp::Eq => test(af == xf, ai == xi),
        RegOp::Ne => test(af != xf, ai != xi),
        RegOp::Not => !a,
        RegOp::And => a & x,
        RegOp::Or => a | x,
        RegOp::Xor => a ^ x,
        // ±0 keeps its sign; the sign of NaN is NaN.
        RegOp::Sign if float && (af == 0.0 || af.is_nan()) => a,
        RegOp::Sign => pick(af.signum(), ai.signum()),
        RegOp::Zero => pick((af == 0.0) as u8 as f32, (ai == 0) as i32),
        RegOp::Mux => {
            if a != 0 {
                x
            } else {
                y
            }
        }
    }
}

/// Asserts that `got` is the host's result: bit-exact, except that any NaN
/// stands for any other where the result is a float value.
pub fn assert_matches_host(op: RegOp, dtype: DType, got: u32, expect: u32, ctx: &str) {
    let float_valued = matches!(
        op,
        RegOp::Add | RegOp::Sub | RegOp::Mul | RegOp::Div | RegOp::Sign
    );
    if dtype == DType::Float32 && float_valued {
        assert_float_bits_eq(got, expect, ctx);
    } else {
        assert_eq!(
            got, expect,
            "{ctx}: got {got:#010x}, expected {expect:#010x}"
        );
    }
}

/// Binary operation on a single pair.
pub fn eval_binop(op: RegOp, dtype: DType, mode: ParallelismMode, a: u32, x: u32) -> u32 {
    eval_vec(op, dtype, mode, &[&[a], &[x]], 2, &[0, 1])[0]
}

/// Binary operation over vectors (element-parallel).
pub fn eval_binop_vec(op: RegOp, dtype: DType, a: &[u32], x: &[u32]) -> Vec<u32> {
    eval_vec(op, dtype, ParallelismMode::BitSerial, &[a, x], 2, &[0, 1])
}

/// Binary operation with `dst == src0` (aliased destination).
pub fn eval_binop_aliased(op: RegOp, dtype: DType, a: u32, x: u32) -> u32 {
    eval_vec(
        op,
        dtype,
        ParallelismMode::BitSerial,
        &[&[a], &[x]],
        0,
        &[0, 1],
    )[0]
}

/// Unary operation on a single value.
pub fn eval_unop(op: RegOp, dtype: DType, a: u32) -> u32 {
    eval_vec(op, dtype, ParallelismMode::BitSerial, &[&[a]], 2, &[0])[0]
}

/// Unary operation over a vector.
pub fn eval_unop_vec(op: RegOp, dtype: DType, a: &[u32]) -> Vec<u32> {
    eval_vec(op, dtype, ParallelismMode::BitSerial, &[a], 2, &[0])
}

/// Unary operation with `dst == src` (aliased destination).
pub fn eval_unop_aliased(op: RegOp, dtype: DType, a: u32) -> u32 {
    eval_vec(op, dtype, ParallelismMode::BitSerial, &[&[a]], 0, &[0])[0]
}

/// Three-operand multiplexer.
pub fn eval_mux(cond: u32, a: u32, x: u32) -> u32 {
    eval_vec(
        RegOp::Mux,
        DType::Int32,
        ParallelismMode::BitSerial,
        &[&[cond], &[a], &[x]],
        3,
        &[0, 1, 2],
    )[0]
}

/// Deterministic pseudo-random pairs plus hand-picked integer edge cases.
pub fn int_pairs(n: usize) -> Vec<(u32, u32)> {
    use rand::{Rng, SeedableRng};
    let mut r = rand::rngs::StdRng::seed_from_u64(0x5EED);
    let mut v: Vec<(u32, u32)> = (0..n).map(|_| (r.gen(), r.gen())).collect();
    v.extend([
        (0, 0),
        (1, u32::MAX),
        (u32::MAX, u32::MAX),
        (0x8000_0000, 0x7FFF_FFFF),
        (0x8000_0000, 0xFFFF_FFFF),
        (12345, 678),
    ]);
    v
}

/// Integer edge values for unary tests.
pub fn int_edge_values() -> Vec<u32> {
    vec![
        0,
        1,
        2,
        0xFFFF_FFFF,
        0x8000_0000,
        0x7FFF_FFFF,
        42,
        (-42i32) as u32,
        0x0000_FFFF,
    ]
}

/// Float edge values (as bit patterns) for float tests.
pub fn float_edge_values() -> Vec<u32> {
    [
        0.0f32,
        -0.0,
        1.0,
        -1.0,
        1.5,
        0.5,
        2.0,
        -2.5,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::EPSILON,
        1e-40,  // subnormal
        -1e-42, // subnormal
        3.4028235e38,
        1.1754942e-38, // largest subnormal
        std::f32::consts::PI,
        -std::f32::consts::E,
    ]
    .iter()
    .map(|f| f.to_bits())
    .collect()
}

/// Deterministic random float bit patterns spanning all classes.
pub fn float_random(n: usize, seed: u64) -> Vec<u32> {
    use rand::{Rng, SeedableRng};
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| match i % 5 {
            // Fully random bit patterns (includes NaNs/infs/subnormals).
            0 => r.gen::<u32>(),
            // Moderate-magnitude normals (exercise alignment paths).
            1 => {
                let exp = r.gen_range(110u32..145) << 23;
                exp | (r.gen::<u32>() & 0x807F_FFFF)
            }
            // Near-equal exponents (cancellation paths).
            2 => {
                let exp = 127u32 << 23;
                exp | (r.gen::<u32>() & 0x807F_FFFF)
            }
            // Subnormals.
            3 => r.gen::<u32>() & 0x807F_FFFF,
            // Extreme exponents (overflow/underflow paths).
            _ => {
                let exp = if r.gen() {
                    r.gen_range(245u32..255)
                } else {
                    r.gen_range(1u32..12)
                } << 23;
                exp | (r.gen::<u32>() & 0x807F_FFFF)
            }
        })
        .collect()
}

/// Asserts two float bit patterns represent the same IEEE result (all NaNs
/// are considered equal; zeros keep their sign).
pub fn assert_float_bits_eq(got: u32, expect: u32, ctx: &str) {
    let (g, e) = (f32::from_bits(got), f32::from_bits(expect));
    if e.is_nan() {
        assert!(g.is_nan(), "{ctx}: expected NaN, got {g} ({got:#010x})");
    } else {
        assert_eq!(
            got, expect,
            "{ctx}: got {g} ({got:#010x}), expected {e} ({expect:#010x})"
        );
    }
}
