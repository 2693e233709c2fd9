//! Gate-level routine library: translates each Table II R-type operation
//! into a micro-operation sequence via the [`CircuitBuilder`].
//!
//! The integer and floating-point arithmetic follows the bit-serial
//! element-parallel AritPIM approach (§II-B): every routine is a branch-free
//! circuit executed identically by all active threads, so one compiled
//! sequence serves the whole memory. The partition-parallel
//! (bit-parallel element-parallel) adder exploits semi-parallel half-gate
//! operations instead ([`ParallelismMode::BitParallel`]).
//!
//! Aliasing: routines either stream results bit-by-bit after consuming the
//! corresponding input bits, or buffer results in scratch and write the
//! destination at the very end — so `dst` may equal any source register.
//!
//! Every routine body is a function of `&mut CircuitBuilder` and is walked
//! twice by [`CircuitBuilder::compile`] — once to measure how long each
//! scratch cell lives, once to emit with every cell placed by its lifetime
//! (see the builder's docs). A body must therefore be a pure function of its
//! arguments: it may compare cells for identity, but what it allocates,
//! emits and releases must not depend on *which* cells it was handed.

pub mod common;

mod bitwise;
mod float;
mod intarith;
mod intcmp;
mod misc;

use crate::builder::{Bits, CircuitBuilder, Routine};
use crate::{DriverError, ParallelismMode};
use pim_arch::{ColAddr, PimConfig, RegId};
use pim_isa::{DType, RegOp};

/// Compiles one R-type operation into a routine (a mask-independent
/// micro-operation sequence).
///
/// # Errors
///
/// Returns [`DriverError::Unsupported`] for combinations outside Table II
/// and [`DriverError::ScratchExhausted`] if the configuration reserves too
/// few scratch registers for the requested routine.
pub fn compile_rtype(
    cfg: &PimConfig,
    mode: ParallelismMode,
    op: RegOp,
    dtype: DType,
    dst: RegId,
    srcs: &[RegId],
) -> Result<Routine, DriverError> {
    if !op.supports(dtype) {
        return Err(DriverError::Unsupported {
            what: format!("{op} on {dtype}"),
        });
    }
    assert!(
        srcs.len() >= op.arity(),
        "missing source registers for {op}"
    );
    let aliased = srcs[..op.arity()].contains(&dst);
    let (s0, s1, s2) = (
        srcs.first().copied().unwrap_or(0),
        srcs.get(1).copied().unwrap_or(0),
        srcs.get(2).copied().unwrap_or(0),
    );
    CircuitBuilder::compile(cfg, |b| match (op, dtype) {
        (RegOp::Add, DType::Int32) => match mode {
            ParallelismMode::BitSerial => intarith::add_serial(b, s0, s1, dst, aliased),
            ParallelismMode::BitParallel => intarith::add_parallel(b, s0, s1, dst),
        },
        (RegOp::Sub, DType::Int32) => intarith::sub_serial(b, s0, s1, dst, aliased),
        (RegOp::Mul, DType::Int32) => intarith::mul(b, s0, s1, dst),
        (RegOp::Div, DType::Int32) => intarith::divmod(b, s0, s1, dst, false),
        (RegOp::Mod, DType::Int32) => intarith::divmod(b, s0, s1, dst, true),
        (RegOp::Neg, DType::Int32) => intarith::neg(b, s0, dst, aliased),
        (RegOp::Lt | RegOp::Le | RegOp::Gt | RegOp::Ge, DType::Int32) => {
            intcmp::ordered(b, op, s0, s1, dst)
        }
        (RegOp::Eq | RegOp::Ne, DType::Int32) => intcmp::equality(b, op, s0, s1, dst),
        (RegOp::Not | RegOp::And | RegOp::Or | RegOp::Xor, _) => {
            bitwise::compile(b, op, s0, s1, dst, aliased)
        }
        (RegOp::Sign, DType::Int32) => misc::sign(b, s0, dst),
        (RegOp::Zero, DType::Int32) => misc::zero_int(b, s0, dst),
        (RegOp::Abs, DType::Int32) => misc::abs(b, s0, dst),
        (RegOp::Mux, _) => misc::mux(b, s0, s1, s2, dst, aliased),
        (RegOp::Add, DType::Float32) => float::add(b, s0, s1, dst, false),
        (RegOp::Sub, DType::Float32) => float::add(b, s0, s1, dst, true),
        (RegOp::Mul, DType::Float32) => float::mul(b, s0, s1, dst),
        (RegOp::Div, DType::Float32) => float::div(b, s0, s1, dst),
        (RegOp::Neg, DType::Float32) => float::neg(b, s0, dst),
        (RegOp::Abs, DType::Float32) => float::abs(b, s0, dst),
        (RegOp::Sign, DType::Float32) => float::sign(b, s0, dst),
        (RegOp::Zero, DType::Float32) => misc::zero_float(b, s0, dst),
        (RegOp::Lt | RegOp::Le | RegOp::Gt | RegOp::Ge | RegOp::Eq | RegOp::Ne, DType::Float32) => {
            float::compare(b, op, s0, s1, dst)
        }
        (RegOp::Mod, DType::Float32) => Err(DriverError::Unsupported {
            what: format!("{op} on {dtype}"),
        }),
    })
}

/// Streaming destination: hands out pre-initialized destination cells bit
/// by bit. When `dst` aliases a source register the initialization happens
/// lazily per bit (after the routine consumed that input bit); otherwise a
/// single whole-register `INIT1` covers all 32 cells.
pub(crate) struct StreamOut {
    reg: RegId,
    lazy: bool,
}

impl StreamOut {
    pub(crate) fn new(b: &mut CircuitBuilder, dst: RegId, aliased: bool) -> Self {
        if !aliased {
            b.init_reg(dst, true);
        }
        StreamOut {
            reg: dst,
            lazy: aliased,
        }
    }

    /// The destination cell for bit `i`, initialized to 1.
    pub(crate) fn target(&self, b: &mut CircuitBuilder, i: usize) -> ColAddr {
        let c = ColAddr::new(i as u8, self.reg);
        if self.lazy {
            b.init_cell(c, true);
        }
        c
    }
}

/// Writes buffered result bits into the destination register at the end of
/// a routine (safe under aliasing because every source read already
/// happened). Costs 1 INIT + 2 gates per bit.
pub(crate) fn write_word(
    b: &mut CircuitBuilder,
    dst: RegId,
    bits: &[ColAddr],
) -> Result<(), DriverError> {
    assert_eq!(bits.len(), b.config().partitions);
    b.init_reg(dst, true);
    for (i, &c) in bits.iter().enumerate() {
        b.copy_into(c, ColAddr::new(i as u8, dst))?;
    }
    Ok(())
}

/// Writes a Boolean result as the integer 0/1 into the destination.
pub(crate) fn write_bool(
    b: &mut CircuitBuilder,
    dst: RegId,
    cell: ColAddr,
) -> Result<(), DriverError> {
    b.init_reg(dst, false);
    let bit0 = ColAddr::new(0, dst);
    b.init_cell(bit0, true);
    b.copy_into(cell, bit0)
}

/// The 32 bits of a source register.
pub(crate) fn src_bits(b: &CircuitBuilder, reg: RegId) -> Bits {
    b.reg_bits(reg)
}

#[cfg(test)]
mod tests;
#[cfg(test)]
pub(crate) mod testutil;
