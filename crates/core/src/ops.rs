//! Element-parallel tensor operations: operator overloading (the Rust
//! equivalent of the library's Python `__add__`/`__mul__` bindings), the
//! comparison/miscellaneous methods. Each op is a one-step
//! [`Plan`](crate::Plan), which owns the lowering — including the automatic
//! alignment fallback that copies a misaligned operand next to the other
//! one (§V-A "Dynamic Memory Management").

use crate::tensor::Tensor;
use crate::Result;
use pim_isa::{DType, Instruction, RegOp};
use std::ops::{Add, Div, Mul, Neg, Rem, Sub};

impl Tensor {
    /// Allocates an *uninitialized* tensor thread-aligned with `self` (same
    /// warp window, offset, and stride, fresh register) — where every
    /// element-parallel result lands.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`](crate::CoreError::OutOfMemory) when
    /// every register of the window is occupied.
    pub fn empty_aligned(&self, dtype: DType) -> Result<Tensor> {
        let t = self
            .device()
            .empty_like_window(self.alloc.stripe, dtype, self.len())?;
        Ok(Tensor {
            offset: self.offset,
            stride: self.stride,
            len: self.len(),
            ..t
        })
    }

    /// The R-type instructions applying `op` over this view's thread
    /// ranges.
    pub(crate) fn rtype_instrs(
        &self,
        op: RegOp,
        dtype: DType,
        dst: u8,
        srcs: [u8; 3],
    ) -> Vec<Instruction> {
        self.thread_ranges()
            .into_iter()
            .map(|target| Instruction::RType {
                op,
                dtype,
                dst,
                srcs,
                target,
            })
            .collect()
    }

    /// Element-parallel binary operation: a one-step
    /// [`Plan::binary`](crate::Plan::binary), so a misaligned right-hand
    /// side is moved next to `self` first (through the host where no move
    /// plan exists).
    ///
    /// # Errors
    ///
    /// Fails on shape/dtype/device mismatches or unsupported operations.
    pub fn binary(&self, op: RegOp, rhs: &Tensor) -> Result<Tensor> {
        self.device().step(|p| p.binary(op, self, rhs))
    }

    /// Element-parallel binary operation against a broadcast scalar (raw
    /// word value).
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn binary_scalar(&self, op: RegOp, bits: u32) -> Result<Tensor> {
        self.device().step(|p| p.binary_scalar(op, self, bits))
    }

    /// Element-parallel unary operation.
    ///
    /// # Errors
    ///
    /// Fails on unsupported operations.
    pub fn unary(&self, op: RegOp) -> Result<Tensor> {
        self.device().step(|p| p.unary(op, self))
    }

    /// `self < rhs` as an int32 0/1 tensor.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn lt(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Lt, rhs)
    }

    /// `self <= rhs` as an int32 0/1 tensor.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn le(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Le, rhs)
    }

    /// `self > rhs` as an int32 0/1 tensor.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn gt(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Gt, rhs)
    }

    /// `self >= rhs` as an int32 0/1 tensor.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn ge(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Ge, rhs)
    }

    /// `self == rhs` as an int32 0/1 tensor.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn eq_elem(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Eq, rhs)
    }

    /// `self != rhs` as an int32 0/1 tensor.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn ne_elem(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Ne, rhs)
    }

    /// Element-wise absolute value.
    ///
    /// # Errors
    ///
    /// See [`unary`](Tensor::unary).
    pub fn abs(&self) -> Result<Tensor> {
        self.unary(RegOp::Abs)
    }

    /// Element-wise sign (−1/0/+1, or ±1.0/±0.0/NaN for floats).
    ///
    /// # Errors
    ///
    /// See [`unary`](Tensor::unary).
    pub fn sign(&self) -> Result<Tensor> {
        self.unary(RegOp::Sign)
    }

    /// Element-wise zero test (1 where zero).
    ///
    /// # Errors
    ///
    /// See [`unary`](Tensor::unary).
    pub fn zero_mask(&self) -> Result<Tensor> {
        self.unary(RegOp::Zero)
    }

    /// Bitwise complement of the raw words.
    ///
    /// # Errors
    ///
    /// See [`unary`](Tensor::unary).
    pub fn bit_not(&self) -> Result<Tensor> {
        self.unary(RegOp::Not)
    }

    /// Bitwise AND of the raw words.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn bit_and(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::And, rhs)
    }

    /// Bitwise OR of the raw words.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn bit_or(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Or, rhs)
    }

    /// Bitwise XOR of the raw words.
    ///
    /// # Errors
    ///
    /// See [`binary`](Tensor::binary).
    pub fn bit_xor(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Xor, rhs)
    }

    /// Element-wise select: `where self != 0, a, else b`. The condition is
    /// typically a comparison result.
    ///
    /// # Errors
    ///
    /// Fails on shape/dtype/device mismatches.
    pub fn select(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.device().step(|p| p.select(self, a, b))
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl $trait for &Tensor {
            type Output = Result<Tensor>;

            fn $method(self, rhs: &Tensor) -> Result<Tensor> {
                self.binary($op, rhs)
            }
        }

        impl $trait<&Tensor> for Result<Tensor> {
            type Output = Result<Tensor>;

            fn $method(self, rhs: &Tensor) -> Result<Tensor> {
                self?.binary($op, rhs)
            }
        }

        impl $trait<Result<Tensor>> for &Tensor {
            type Output = Result<Tensor>;

            fn $method(self, rhs: Result<Tensor>) -> Result<Tensor> {
                self.binary($op, &rhs?)
            }
        }
    };
}

impl_binop!(Add, add, RegOp::Add);
impl_binop!(Sub, sub, RegOp::Sub);
impl_binop!(Mul, mul, RegOp::Mul);
impl_binop!(Div, div, RegOp::Div);
impl_binop!(Rem, rem, RegOp::Mod);

impl Neg for &Tensor {
    type Output = Result<Tensor>;

    fn neg(self) -> Result<Tensor> {
        self.unary(RegOp::Neg)
    }
}

/// Scalar right-hand sides: `&x * 2.0f32`, `&x + 1i32`.
macro_rules! impl_scalar_op {
    ($trait:ident, $method:ident, $op:expr, $ty:ty, $dtype:expr, $bits:expr) => {
        impl $trait<$ty> for &Tensor {
            type Output = Result<Tensor>;

            fn $method(self, rhs: $ty) -> Result<Tensor> {
                self.expect_dtype($dtype)?;
                self.binary_scalar($op, $bits(rhs))
            }
        }
    };
}

impl_scalar_op!(Mul, mul, RegOp::Mul, f32, DType::Float32, f32::to_bits);
impl_scalar_op!(Add, add, RegOp::Add, f32, DType::Float32, f32::to_bits);
impl_scalar_op!(Sub, sub, RegOp::Sub, f32, DType::Float32, f32::to_bits);
impl_scalar_op!(Mul, mul, RegOp::Mul, i32, DType::Int32, i32::cast_unsigned);
impl_scalar_op!(Add, add, RegOp::Add, i32, DType::Int32, i32::cast_unsigned);
impl_scalar_op!(Sub, sub, RegOp::Sub, i32, DType::Int32, i32::cast_unsigned);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Device;
    use pim_arch::PimConfig;

    fn dev() -> Device {
        Device::new(PimConfig::small().with_crossbars(2).with_rows(8)).unwrap()
    }

    #[test]
    fn comparison_output_is_int32() {
        let d = dev();
        let a = d.from_slice_f32(&[1.0, 5.0]).unwrap();
        let b = d.from_slice_f32(&[2.0, 2.0]).unwrap();
        let r = a.lt(&b).unwrap();
        assert_eq!(r.dtype(), DType::Int32);
        assert_eq!(r.to_vec_i32().unwrap(), vec![1, 0]);
    }

    #[test]
    fn binary_result_is_thread_aligned_with_lhs() {
        let d = dev();
        let a = d.from_slice_i32(&[1, 2, 3, 4]).unwrap();
        let view = a.slice_step(1, 4, 2).unwrap(); // elements 2, 4
        let out = (&view + &view).unwrap();
        assert!(out.aligned_with(&view));
        assert_eq!(out.to_vec_i32().unwrap(), vec![4, 8]);
    }

    #[test]
    fn aligned_operand_reuses_rhs_without_copy() {
        let d = dev();
        let a = d.from_slice_i32(&[1, 2]).unwrap();
        let b = d.from_slice_i32(&[3, 4]).unwrap();
        // Already on the same threads: no copy, one R-type over one range.
        let mut plan = crate::Plan::new(&d);
        plan.add(&a, &b).unwrap();
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn same_tensor_both_operands() {
        let d = dev();
        let a = d.from_slice_i32(&[3, -4, 7]).unwrap();
        assert_eq!((&a * &a).unwrap().to_vec_i32().unwrap(), vec![9, 16, 49]);
        assert_eq!(a.bit_xor(&a).unwrap().to_vec_i32().unwrap(), vec![0, 0, 0]);
        assert_eq!(a.eq_elem(&a).unwrap().to_vec_i32().unwrap(), vec![1, 1, 1]);
    }

    #[test]
    fn result_chaining_through_operators() {
        let d = dev();
        let a = d.from_slice_i32(&[10, 20]).unwrap();
        let b = d.from_slice_i32(&[1, 2]).unwrap();
        // Result<Tensor> op &Tensor chaining.
        let out = ((&a + &b) - &b).unwrap();
        assert_eq!(out.to_vec_i32().unwrap(), vec![10, 20]);
    }

    #[test]
    fn select_requires_matching_data_dtypes() {
        let d = dev();
        let c = d.from_slice_i32(&[1, 0]).unwrap();
        let a = d.from_slice_f32(&[1.0, 2.0]).unwrap();
        let b = d.from_slice_i32(&[3, 4]).unwrap();
        assert!(c.select(&a, &b).is_err());
    }
}
