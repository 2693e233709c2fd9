//! In-memory bitonic sorting (§VI-A "Sorting"): a Batcher bitonic network
//! expressed entirely as element-parallel tensor operations plus uniform
//! shift moves, so the instruction count of a compare-and-swap stage depends
//! on the crossbar height, never on the tensor length.
//!
//! A stage at pair distance `j` on a device with `R` rows per crossbar is
//! about ten element-parallel instructions per thread range (masks, compare,
//! selects) plus two [`shifted`](crate::shifted) calls, by `+j` and `-j`.
//! A shift by `j < R` plans one range `MoveRows` (the `R - j` rows that stay
//! in their warp, two vertical gates per row) and `j` `MoveWarps` (the rows
//! that cross into the neighbouring warp), each split into at most four
//! H-tree phases; a shift by a multiple of `R` plans `R` `MoveWarps` per
//! phase. The moves, not the arithmetic, are what separates the sort from
//! theoretical PIM (Figure 13).
//!
//! The classic network conditionally swaps pairs `(i, i ^ j)` with a
//! direction given by bit `k` of the index. Both conditions are *data*
//! here: an index tensor (iota) is materialized once, and the per-stage
//! masks derive from it with bitwise ops — keeping every PIM instruction
//! uniform across threads (no irregular masks needed).

use crate::movement;
use crate::tensor::Tensor;
use crate::Result;
use pim_isa::DType;

fn pad_max_bits(dtype: DType) -> u32 {
    match dtype {
        DType::Int32 => i32::MAX as u32,
        DType::Float32 => f32::INFINITY.to_bits(),
    }
}

impl Tensor {
    /// Returns an ascending-sorted copy of the tensor (bitonic network,
    /// `O(log² n)` parallel stages).
    ///
    /// Float tensors sort by IEEE order; the position of NaNs is
    /// unspecified.
    ///
    /// # Errors
    ///
    /// Fails on allocation or movement errors.
    pub fn sorted(&self) -> Result<Tensor> {
        let n = self.len();
        let n2 = n.next_power_of_two();
        let mut t = movement::compact_with_padding(self, n2, pad_max_bits(self.dtype()))?;
        if n2 == 1 {
            return Ok(t);
        }
        // Index tensor, thread-aligned with t, stored as one bulk scatter.
        let iota = self
            .device()
            .empty(n2, DType::Int32, Some(t.alloc.stripe))?;
        iota.store_raw((0..n2).map(|i| i as u32))?;
        let mut k = 2usize;
        while k <= n2 {
            // 1 where bit k of the index is clear (ascending block).
            let zk = iota
                .binary_scalar(pim_isa::RegOp::And, k as u32)?
                .zero_mask()?;
            let mut j = k / 2;
            while j >= 1 {
                let zj = iota
                    .binary_scalar(pim_isa::RegOp::And, j as u32)?
                    .zero_mask()?;
                // Partner values: above for the lower pair element, below
                // for the upper one. Out-of-range lanes are never selected.
                let up = movement::shifted(&t, j as i64)?;
                let dn = movement::shifted(&t, -(j as i64))?;
                let partner = zj.select(&up, &dn)?;
                // Keep the minimum where the pair-direction and block
                // direction agree.
                let keep_min = zk.eq_elem(&zj)?;
                let lt = t.lt(&partner)?;
                let minv = lt.select(&t, &partner)?;
                let maxv = lt.select(&partner, &t)?;
                t = keep_min.select(&minv, &maxv)?;
                j /= 2;
            }
            k *= 2;
        }
        t.slice(0, n)
    }

    /// Sorts the tensor (or view) in place, ascending.
    ///
    /// # Errors
    ///
    /// Fails on allocation or movement errors.
    pub fn sort(&mut self) -> Result<()> {
        let sorted = self.sorted()?;
        movement::copy(&sorted, self)
    }
}
