//! In-memory bitonic sorting (§VI-A "Sorting"): a Batcher bitonic network
//! expressed entirely as element-parallel tensor operations plus row and
//! warp moves, so the instruction count of a compare-and-swap stage depends
//! on the crossbar height, never on the tensor length.
//!
//! The classic network conditionally swaps pairs `(i, i ^ j)` with a
//! direction given by bit `k` of the index. Both conditions are *data*
//! here: an index tensor (iota) is materialized once, and the per-stage
//! masks derive from it with bitwise ops — keeping every PIM instruction
//! uniform across threads (no irregular masks needed).
//!
//! A stage at pair distance `j` inside a `k`-block is, per thread range:
//!
//! 1. the lane mask `zj` (1 where bit `j` of the index is clear): a scalar
//!    fill, `And`, `Zero` (`zk`, the block-direction mask, is built the
//!    same way once per `k`; hoisting all `log n` masks out of the loops
//!    would hold 11 registers at `n = 1k` and exhaust the 16 a thread has);
//! 2. the partner `p[i] = t[i ^ j]`: one [`exchange`](crate::exchange);
//! 3. `lt = t < p`: one `Lt`;
//! 4. `take = lt ^ zk ^ zj`: two `Xor` — `t` stays iff `lt == keep_min`, and
//!    the pair keeps its minimum in the lower lane iff the block ascends,
//!    `keep_min = !(zk ^ zj)`;
//! 5. `t = take ? t : p`: one `Mux`.
//!
//! The exchange is where the sort leaves theoretical PIM (Figure 13). With
//! `R` rows per crossbar and `L = min(n, R)` lanes per warp, every stage
//! with `j < R` and `L` a multiple of `2j` — all of them when `R` is a power
//! of two — moves only the lanes it keeps: `2 · min(j, L / 2j)` range
//! `MoveRows` between disjoint row sets, `L` vertical gates, no `MoveWarps`.
//! The stages with `j >= R` (and every stage `2j` does not divide `R` for,
//! e.g. `j = 32` at `R = 96`) shift the whole tensor by `+j` and `-j` —
//! `R` `MoveWarps` per H-tree phase for a whole-warp distance — and select
//! the half of each that `zj` names.

use crate::minmax::neutral_bits;
use crate::movement;
use crate::tensor::Tensor;
use crate::Result;
use pim_isa::DType;

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
        let mut t = movement::compact_with_padding(self, n2, neutral_bits(false, self.dtype()))?;
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
                let partner = movement::exchange(&t, j, &zj)?;
                // `t` stays where it is the pair's minimum and the lane
                // keeps minima (lower lane of an ascending block, upper of
                // a descending one), or neither.
                let lt = t.lt(&partner)?;
                let take = lt.bit_xor(&zk)?.bit_xor(&zj)?;
                t = take.select(&t, &partner)?;
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
