//! Logarithmic-time reduction (§V-A / §VI-A "Reduction"): the tensor is
//! compacted to a power-of-two dense layout padded with the identity
//! element, then repeatedly halved — the upper half moves next to the lower
//! half (intra-warp `MoveRows` or distributed inter-warp `MoveWarps`,
//! parallel across pairs) and one element-parallel operation combines them.

use crate::tensor::Tensor;
use crate::Result;
use pim_isa::{DType, RegOp};

impl Tensor {
    /// Reduces the tensor with `op` (`Add` or `Mul`) in `O(log n)` parallel
    /// steps, returning the raw result word: one
    /// [`Plan::reduce`](crate::Plan::reduce).
    ///
    /// # Errors
    ///
    /// Fails on allocation or movement errors.
    pub fn reduce_raw(&self, op: RegOp) -> Result<u32> {
        self.device().step(|p| p.reduce(self, op))?.get_raw(0)
    }

    /// Sum of all elements (float32) via logarithmic reduction — Figure 12's
    /// `.sum()`.
    ///
    /// # Errors
    ///
    /// Fails for non-float tensors or on movement errors.
    pub fn sum_f32(&self) -> Result<f32> {
        self.expect_dtype(DType::Float32)?;
        Ok(f32::from_bits(self.reduce_raw(RegOp::Add)?))
    }

    /// Sum of all elements (int32, wrapping).
    ///
    /// # Errors
    ///
    /// Fails for non-int tensors or on movement errors.
    pub fn sum_i32(&self) -> Result<i32> {
        self.expect_dtype(DType::Int32)?;
        Ok(self.reduce_raw(RegOp::Add)? as i32)
    }

    /// Product of all elements (float32) via logarithmic reduction.
    ///
    /// # Errors
    ///
    /// Fails for non-float tensors or on movement errors.
    pub fn prod_f32(&self) -> Result<f32> {
        self.expect_dtype(DType::Float32)?;
        Ok(f32::from_bits(self.reduce_raw(RegOp::Mul)?))
    }

    /// Product of all elements (int32, wrapping).
    ///
    /// # Errors
    ///
    /// Fails for non-int tensors or on movement errors.
    pub fn prod_i32(&self) -> Result<i32> {
        self.expect_dtype(DType::Int32)?;
        Ok(self.reduce_raw(RegOp::Mul)? as i32)
    }
}

#[cfg(test)]
mod tests {
    use crate::Device;
    use pim_arch::PimConfig;

    fn dev() -> Device {
        Device::new(PimConfig::small().with_crossbars(2).with_rows(8)).unwrap()
    }

    #[test]
    fn singleton_reduction_is_the_element() {
        let d = dev();
        let t = d.from_slice_f32(&[4.25]).unwrap();
        assert_eq!(t.sum_f32().unwrap(), 4.25);
        assert_eq!(t.prod_f32().unwrap(), 4.25);
    }

    #[test]
    fn padding_uses_the_identity() {
        // Non-power-of-two product: the pad must be 1, not 0.
        let d = dev();
        let t = d.from_slice_f32(&[2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.prod_f32().unwrap(), 24.0);
        assert_eq!(t.sum_f32().unwrap(), 9.0);
    }

    #[test]
    fn dtype_checked_accessors() {
        let d = dev();
        let t = d.from_slice_i32(&[1, 2, 3]).unwrap();
        assert!(t.sum_f32().is_err());
        assert_eq!(t.sum_i32().unwrap(), 6);
        assert_eq!(t.prod_i32().unwrap(), 6);
    }

    #[test]
    fn wrapping_int_sum() {
        let d = dev();
        let t = d.from_slice_i32(&[i32::MAX, 1]).unwrap();
        assert_eq!(t.sum_i32().unwrap(), i32::MIN);
    }
}
