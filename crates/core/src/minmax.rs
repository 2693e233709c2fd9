//! Element-wise minimum/maximum and their logarithmic reductions —
//! general-purpose routines in the spirit of §V-A, composed from the ISA's
//! comparison and multiplexer operations (a compare-and-select is exactly
//! one half of the bitonic network's compare-and-swap).

use crate::tensor::Tensor;
use crate::Result;
use pim_isa::DType;

/// The pad a maximum (`want_max`) or minimum reduction ignores: the word
/// every value beats.
pub(crate) fn neutral_bits(want_max: bool, dtype: DType) -> u32 {
    match (want_max, dtype) {
        (true, DType::Int32) => i32::MIN as u32,
        (true, DType::Float32) => f32::NEG_INFINITY.to_bits(),
        (false, DType::Int32) => i32::MAX as u32,
        (false, DType::Float32) => f32::INFINITY.to_bits(),
    }
}

impl Tensor {
    /// Element-wise maximum of two tensors (`NaN` handling follows the
    /// comparison: a `NaN` element loses every comparison, so the other
    /// operand is selected).
    ///
    /// # Errors
    ///
    /// Fails on shape/dtype/device mismatches.
    pub fn max_elem(&self, rhs: &Tensor) -> Result<Tensor> {
        self.device().step(|p| p.extreme(true, self, rhs))
    }

    /// Element-wise minimum of two tensors.
    ///
    /// # Errors
    ///
    /// Fails on shape/dtype/device mismatches.
    pub fn min_elem(&self, rhs: &Tensor) -> Result<Tensor> {
        self.device().step(|p| p.extreme(false, self, rhs))
    }

    fn reduce_extreme(&self, want_max: bool) -> Result<u32> {
        let pad = neutral_bits(want_max, self.dtype);
        let n2 = self.len().next_power_of_two();
        let out = self.device().step(|p| {
            let t = p.compact(self, n2, pad)?;
            p.halve(t, |p, lo, hi| p.extreme(want_max, lo, hi))
        })?;
        out.get_raw(0)
    }

    /// Maximum element (float32) via logarithmic reduction.
    ///
    /// # Errors
    ///
    /// Fails for non-float tensors or on movement errors.
    pub fn max_f32(&self) -> Result<f32> {
        self.expect_dtype(DType::Float32)?;
        Ok(f32::from_bits(self.reduce_extreme(true)?))
    }

    /// Minimum element (float32) via logarithmic reduction.
    ///
    /// # Errors
    ///
    /// Fails for non-float tensors or on movement errors.
    pub fn min_f32(&self) -> Result<f32> {
        self.expect_dtype(DType::Float32)?;
        Ok(f32::from_bits(self.reduce_extreme(false)?))
    }

    /// Maximum element (int32) via logarithmic reduction.
    ///
    /// # Errors
    ///
    /// Fails for non-int tensors or on movement errors.
    pub fn max_i32(&self) -> Result<i32> {
        self.expect_dtype(DType::Int32)?;
        Ok(self.reduce_extreme(true)? as i32)
    }

    /// Minimum element (int32) via logarithmic reduction.
    ///
    /// # Errors
    ///
    /// Fails for non-int tensors or on movement errors.
    pub fn min_i32(&self) -> Result<i32> {
        self.expect_dtype(DType::Int32)?;
        Ok(self.reduce_extreme(false)? as i32)
    }
}
