use crate::alloc::Stripe;
use crate::{CoreError, Device, Result};
use pim_arch::RangeMask;
use pim_isa::{DType, Instruction, ThreadRange};
use std::sync::Arc;

/// RAII ownership of a register stripe; dropping it returns the stripe to
/// the device's memory manager.
pub(crate) struct AllocGuard {
    pub(crate) stripe: Stripe,
    pub(crate) device: Device,
}

impl Drop for AllocGuard {
    fn drop(&mut self) {
        self.device.inner.mem.lock().free(self.stripe);
    }
}

/// A one-dimensional PIM tensor (or a *view* of one, §V-A): element `i`
/// lives in register `reg` of thread `warp_start·rows + offset + i·stride`.
///
/// Slicing ([`slice_step`](Tensor::slice_step)) returns a view sharing the
/// same underlying memory — operations on the view automatically translate
/// into the range-based row/warp masks of the microarchitecture, and
/// operations between differently-laid-out views trigger the library's
/// move-based alignment fallback.
///
/// `Clone` is shallow (another view of the same stripe).
#[derive(Clone)]
pub struct Tensor {
    pub(crate) alloc: Arc<AllocGuard>,
    pub(crate) dtype: DType,
    /// Thread offset of element 0 relative to the stripe's first thread.
    pub(crate) offset: usize,
    /// Thread distance between consecutive elements.
    pub(crate) stride: usize,
    /// Number of elements.
    pub(crate) len: usize,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tensor")
            .field("dtype", &self.dtype)
            .field("len", &self.len)
            .field("reg", &self.alloc.stripe.reg)
            .field("warp_start", &self.alloc.stripe.warp_start)
            .field("offset", &self.offset)
            .field("stride", &self.stride)
            .finish()
    }
}

impl Tensor {
    pub(crate) fn from_stripe(alloc: Arc<AllocGuard>, dtype: DType, len: usize) -> Tensor {
        Tensor {
            alloc,
            dtype,
            offset: 0,
            stride: 1,
            len,
        }
    }

    /// Number of elements in this tensor/view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false`: tensors have at least one element.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Element datatype.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// The device this tensor lives on.
    pub fn device(&self) -> &Device {
        &self.alloc.device
    }

    /// The ISA register this tensor's elements occupy.
    pub fn reg(&self) -> u8 {
        self.alloc.stripe.reg
    }

    /// Absolute thread index (across the whole memory) of element `i`.
    pub(crate) fn thread(&self, i: usize) -> usize {
        let rows = self.device().config().rows;
        self.alloc.stripe.warp_start as usize * rows + self.offset + i * self.stride
    }

    /// `(warp, row)` of element `i`.
    pub(crate) fn warp_row(&self, i: usize) -> (u32, u32) {
        let rows = self.device().config().rows;
        let t = self.thread(i);
        ((t / rows) as u32, (t % rows) as u32)
    }

    /// `(warp, row)` of every element, in order: [`warp_row`](Self::warp_row)
    /// stepped by the stride, so a whole-tensor walk divides once.
    fn cells(&self) -> impl Iterator<Item = (u32, u32)> {
        let rows = self.device().config().rows;
        let (step_warps, step_rows) = (self.stride / rows, self.stride % rows);
        let (mut warp, mut row) = (self.thread(0) / rows, self.thread(0) % rows);
        (0..self.len).map(move |_| {
            let cell = (warp as u32, row as u32);
            (warp, row) = (warp + step_warps, row + step_rows);
            if row >= rows {
                (warp, row) = (warp + 1, row - rows);
            }
            cell
        })
    }

    /// Whether `self` and `other` occupy exactly the same threads
    /// (element-for-element), which is the condition for direct parallel
    /// operation.
    pub(crate) fn aligned_with(&self, other: &Tensor) -> bool {
        self.device().same_device(other.device())
            && self.len == other.len
            && self.stride == other.stride
            && self.thread(0) == other.thread(0)
    }

    /// Python-style slice `[start:stop:step]` (positive step), returning a
    /// view over the same memory.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSlice`] for empty or out-of-range
    /// slices.
    pub fn slice_step(&self, start: usize, stop: usize, step: usize) -> Result<Tensor> {
        if step == 0 {
            return Err(CoreError::InvalidSlice {
                what: "step must be nonzero".into(),
            });
        }
        let stop = stop.min(self.len);
        if start >= stop {
            return Err(CoreError::InvalidSlice {
                what: format!("range {start}..{stop} is empty"),
            });
        }
        let len = (stop - start).div_ceil(step);
        Ok(Tensor {
            alloc: Arc::clone(&self.alloc),
            dtype: self.dtype,
            offset: self.offset + start * self.stride,
            stride: self.stride * step,
            len,
        })
    }

    /// Dense sub-range view `[start:stop]`.
    ///
    /// # Errors
    ///
    /// See [`slice_step`](Tensor::slice_step).
    pub fn slice(&self, start: usize, stop: usize) -> Result<Tensor> {
        self.slice_step(start, stop, 1)
    }

    /// The even-index view `x[::2]` of Figure 12.
    ///
    /// # Errors
    ///
    /// See [`slice_step`](Tensor::slice_step).
    pub fn even(&self) -> Result<Tensor> {
        self.slice_step(0, self.len, 2)
    }

    /// The odd-index view `x[1::2]`.
    ///
    /// # Errors
    ///
    /// See [`slice_step`](Tensor::slice_step).
    pub fn odd(&self) -> Result<Tensor> {
        self.slice_step(1, self.len, 2)
    }

    /// Decomposes this view's thread set into ISA [`ThreadRange`]s (the
    /// range-based warp/row masks of §III-B). Dense and uniformly strided
    /// views need at most three ranges (partial head warp, full body
    /// warps, partial tail warp); pathological strides fall back to
    /// per-element ranges.
    pub(crate) fn thread_ranges(&self) -> Vec<ThreadRange> {
        let rows = self.device().config().rows;
        let (t0, s, n) = (self.thread(0), self.stride, self.len);
        let single = |i: usize| {
            let t = t0 + i * s;
            ThreadRange::single((t / rows) as u32, (t % rows) as u32)
        };
        if n == 1 {
            return vec![single(0)];
        }
        let t_last = t0 + (n - 1) * s;
        // Case A: everything within one warp.
        if t0 / rows == t_last / rows {
            return vec![ThreadRange::new(
                RangeMask::single((t0 / rows) as u32),
                RangeMask::strided((t0 % rows) as u32, n as u32, s as u32)
                    .expect("validated stride"),
            )];
        }
        // Case B: stride is a multiple of the row count — one row per warp.
        if s % rows == 0 {
            let warp_step = (s / rows) as u32;
            return vec![ThreadRange::new(
                RangeMask::strided((t0 / rows) as u32, n as u32, warp_step)
                    .expect("validated stride"),
                RangeMask::single((t0 % rows) as u32),
            )];
        }
        // Case C: stride divides the row count — per-warp periodic pattern
        // with optional partial head/tail warps.
        if rows.is_multiple_of(s) {
            let per = rows / s; // elements per full warp
            let phase = t0 % s;
            let mut ranges = Vec::new();
            let mut i = 0usize;
            // Head: elements left in the first warp.
            let head_warp = t0 / rows;
            let in_head = ((head_warp + 1) * rows - t0).div_ceil(s).min(n);
            if (t0 % rows) != phase || in_head < per {
                ranges.push(ThreadRange::new(
                    RangeMask::single(head_warp as u32),
                    RangeMask::strided((t0 % rows) as u32, in_head as u32, s as u32)
                        .expect("validated stride"),
                ));
                i = in_head;
            }
            // Body: full warps.
            if i < n {
                let body_start_warp = (t0 + i * s) / rows;
                let full_warps = (n - i) / per;
                if full_warps > 0 {
                    ranges.push(ThreadRange::new(
                        RangeMask::strided(body_start_warp as u32, full_warps as u32, 1)
                            .expect("validated"),
                        RangeMask::strided(phase as u32, per as u32, s as u32)
                            .expect("validated stride"),
                    ));
                    i += full_warps * per;
                }
            }
            // Tail: remainder in the last warp.
            if i < n {
                let t_tail = t0 + i * s;
                ranges.push(ThreadRange::new(
                    RangeMask::single((t_tail / rows) as u32),
                    RangeMask::strided((t_tail % rows) as u32, (n - i) as u32, s as u32)
                        .expect("validated stride"),
                ));
            }
            return ranges;
        }
        // Fallback: per-element ranges.
        (0..n).map(single).collect()
    }

    /// Raw word of element `i` (the IEEE-754 bit pattern for floats).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IndexOutOfBounds`] when `i >= len`.
    pub fn get_raw(&self, i: usize) -> Result<u32> {
        if i >= self.len {
            return Err(CoreError::IndexOutOfBounds {
                index: i,
                len: self.len,
            });
        }
        let (warp, row) = self.warp_row(i);
        let word = self.device().exec(&Instruction::Read {
            reg: self.reg(),
            warp,
            row,
        })?;
        word.ok_or_else(|| CoreError::Protocol {
            reason: "a read returned no word".into(),
        })
    }

    /// Writes the raw word of element `i`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IndexOutOfBounds`] when `i >= len`.
    pub fn set_raw(&self, i: usize, bits: u32) -> Result<()> {
        if i >= self.len {
            return Err(CoreError::IndexOutOfBounds {
                index: i,
                len: self.len,
            });
        }
        let (warp, row) = self.warp_row(i);
        self.device().exec(&Instruction::Write {
            reg: self.reg(),
            value: bits,
            target: ThreadRange::single(warp, row),
        })?;
        Ok(())
    }

    /// Broadcast-writes a float to every element of this view.
    ///
    /// # Errors
    ///
    /// Fails for non-float tensors.
    pub fn fill_f32(&self, v: f32) -> Result<()> {
        self.expect_dtype(DType::Float32)?;
        self.fill_raw(v.to_bits())
    }

    /// Broadcast-writes an int to every element of this view.
    ///
    /// # Errors
    ///
    /// Fails for non-int tensors.
    pub fn fill_i32(&self, v: i32) -> Result<()> {
        self.expect_dtype(DType::Int32)?;
        self.fill_raw(v as u32)
    }

    /// The write instructions that store one raw word per element, in
    /// order — the plannable counterpart of a bulk upload.
    ///
    /// # Panics
    ///
    /// Panics unless `values` yields exactly one word per element.
    pub fn plan_store(&self, values: impl IntoIterator<Item = u32>) -> Vec<Instruction> {
        let reg = self.reg();
        self.zip_cells(values, |(warp, row), value| Instruction::Write {
            reg,
            value,
            target: ThreadRange::single(warp, row),
        })
    }

    /// The `(warp, row, register)` location of every element, in order —
    /// the read side of the planning API (feed to
    /// [`Device::submit_reads`](crate::Device::submit_reads)).
    pub fn element_locs(&self) -> Vec<(u32, u32, u8)> {
        let reg = self.reg();
        self.cells().map(|(warp, row)| (warp, row, reg)).collect()
    }

    /// Broadcast-writes `bits` to every element. The ranges go out as one
    /// batch so sharded devices fill all chips concurrently.
    fn fill_raw(&self, bits: u32) -> Result<()> {
        self.device().step(|p| {
            p.fill(self, bits);
            Ok(())
        })
    }

    /// Writes the whole view from an iterator of raw words (exactly one
    /// value per element, in order) as a single bulk scatter.
    pub(crate) fn store_raw(&self, values: impl IntoIterator<Item = u32>) -> Result<()> {
        let reg = self.reg();
        let write = |(warp, row), bits| pim_cluster::GlobalWrite::new(warp, row, reg, bits);
        self.device().write_many(&self.zip_cells(values, write))
    }

    /// One `T` per element from its cell and its word; panics unless
    /// `values` yields exactly one word per element (`zip` stops at the
    /// last cell, so a word left over is one too many).
    fn zip_cells<T>(
        &self,
        values: impl IntoIterator<Item = u32>,
        f: impl Fn((u32, u32), u32) -> T,
    ) -> Vec<T> {
        let mut values = values.into_iter();
        let cells = self.cells().zip(values.by_ref());
        let out: Vec<T> = cells.map(|(cell, word)| f(cell, word)).collect();
        assert!(
            out.len() == self.len && values.next().is_none(),
            "a store requires exactly one value per element"
        );
        out
    }

    /// Float element access (`x[4]`).
    ///
    /// # Errors
    ///
    /// Fails on out-of-bounds indices or non-float tensors.
    pub fn get_f32(&self, i: usize) -> Result<f32> {
        self.expect_dtype(DType::Float32)?;
        Ok(f32::from_bits(self.get_raw(i)?))
    }

    /// Float element write (`x[4] = 8.0`).
    ///
    /// # Errors
    ///
    /// Fails on out-of-bounds indices or non-float tensors.
    pub fn set_f32(&mut self, i: usize, v: f32) -> Result<()> {
        self.expect_dtype(DType::Float32)?;
        self.set_raw(i, v.to_bits())
    }

    /// Int element access.
    ///
    /// # Errors
    ///
    /// Fails on out-of-bounds indices or non-int tensors.
    pub fn get_i32(&self, i: usize) -> Result<i32> {
        self.expect_dtype(DType::Int32)?;
        Ok(self.get_raw(i)? as i32)
    }

    /// Int element write.
    ///
    /// # Errors
    ///
    /// Fails on out-of-bounds indices or non-int tensors.
    pub fn set_i32(&mut self, i: usize, v: i32) -> Result<()> {
        self.expect_dtype(DType::Int32)?;
        self.set_raw(i, v as u32)
    }

    /// Reads the whole tensor back as raw words — a single bulk gather, so
    /// sharded devices read all chips concurrently.
    ///
    /// # Errors
    ///
    /// Propagates read failures.
    pub fn to_raw_vec(&self) -> Result<Vec<u32>> {
        self.device().read_many(&self.element_locs())
    }

    /// Reads the whole tensor back as floats.
    ///
    /// # Errors
    ///
    /// Fails for non-float tensors.
    pub fn to_vec_f32(&self) -> Result<Vec<f32>> {
        self.expect_dtype(DType::Float32)?;
        Ok(self.to_raw_vec()?.into_iter().map(f32::from_bits).collect())
    }

    /// Reads the whole tensor back as ints.
    ///
    /// # Errors
    ///
    /// Fails for non-int tensors.
    pub fn to_vec_i32(&self) -> Result<Vec<i32>> {
        self.expect_dtype(DType::Int32)?;
        Ok(self.to_raw_vec()?.into_iter().map(|v| v as i32).collect())
    }

    /// Checks that the tensor holds `dtype`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DTypeMismatch`] otherwise.
    pub fn expect_dtype(&self, dtype: DType) -> Result<()> {
        if self.dtype == dtype {
            Ok(())
        } else {
            Err(CoreError::DTypeMismatch {
                what: format!("expected {dtype}, tensor holds {}", self.dtype),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dev(crossbars: usize, rows: usize) -> Device {
        Device::new(
            pim_arch::PimConfig::small()
                .with_crossbars(crossbars)
                .with_rows(rows),
        )
        .unwrap()
    }

    /// Collects the exact thread set selected by a list of ranges.
    fn enumerate(ranges: &[ThreadRange], rows: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for tr in ranges {
            for w in tr.warps.iter() {
                for r in tr.rows.iter() {
                    out.push(w as usize * rows + r as usize);
                }
            }
        }
        out
    }

    /// The stepped walk is `warp_row(i)` for every view shape: dense across
    /// warps, strides below, equal to and above the row count — and a store
    /// takes exactly one value per cell, neither fewer nor more.
    #[test]
    fn cells_step_like_warp_row_and_stores_count_their_values() {
        let d = dev(8, 16);
        let t = d.zeros_i32(100).unwrap();
        for (start, step) in [(0, 1), (3, 1), (5, 3), (1, 16), (2, 23), (7, 40)] {
            let v = t.slice_step(start, 100, step).unwrap();
            let walked: Vec<_> = v.cells().collect();
            let indexed: Vec<_> = (0..v.len()).map(|i| v.warp_row(i)).collect();
            assert_eq!(walked, indexed, "[{start}::{step}]");
            let locs = v.element_locs();
            assert!(locs.iter().map(|&(w, r, _)| (w, r)).eq(walked));
            for wrong in [v.len() - 1, v.len() + 1] {
                let planned = std::panic::catch_unwind(|| v.plan_store(0..wrong as u32));
                let stored = std::panic::catch_unwind(|| v.store_raw(0..wrong as u32));
                assert!(planned.is_err() && stored.is_err(), "{wrong} values");
            }
            v.store_raw(0..v.len() as u32).unwrap();
            assert_eq!(
                v.to_raw_vec().unwrap(),
                (0..v.len() as u32).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn thread_ranges_cover_dense_multi_warp() {
        let d = dev(4, 16);
        let t = d.zeros_i32(50).unwrap(); // 3.125 warps
        let ranges = t.thread_ranges();
        assert!(ranges.len() <= 3, "dense tensors need at most 3 ranges");
        let base = t.thread(0);
        let mut got = enumerate(&ranges, 16);
        got.sort_unstable();
        assert_eq!(got, (base..base + 50).collect::<Vec<_>>());
    }

    #[test]
    fn thread_ranges_strided_within_warp() {
        let d = dev(4, 16);
        let t = d.zeros_i32(16).unwrap();
        let v = t.slice_step(1, 16, 3).unwrap(); // rows 1, 4, 7, 10, 13
        let ranges = v.thread_ranges();
        assert_eq!(ranges.len(), 1);
        let got = enumerate(&ranges, 16);
        assert_eq!(
            got,
            vec![
                v.thread(0),
                v.thread(1),
                v.thread(2),
                v.thread(3),
                v.thread(4)
            ]
        );
    }

    #[test]
    fn thread_ranges_row_per_warp() {
        // Stride equal to the row count: one row in every warp.
        let d = dev(4, 16);
        let t = d.zeros_i32(64).unwrap();
        let v = t.slice_step(3, 64, 16).unwrap();
        let ranges = v.thread_ranges();
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].rows.len(), 1);
        assert_eq!(ranges[0].warps.len(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The decomposition selects exactly the view's thread set —
        /// nothing missing, nothing extra, nothing doubled — for arbitrary
        /// (even pathological) slice stacks.
        #[test]
        fn thread_ranges_exact_cover(
            n in 1usize..60,
            s1 in (0usize..8, 1usize..6),
            s2 in (0usize..5, 1usize..4),
        ) {
            let d = dev(4, 16);
            let t = d.zeros_i32(n).unwrap();
            let mut v = t.clone();
            for (start, step) in [s1, s2] {
                if let Ok(sl) = v.slice_step(start, v.len(), step) {
                    v = sl;
                }
            }
            let expect: Vec<usize> = (0..v.len()).map(|i| v.thread(i)).collect();
            let mut got = enumerate(&v.thread_ranges(), 16);
            got.sort_unstable();
            let mut sorted_expect = expect.clone();
            sorted_expect.sort_unstable();
            prop_assert_eq!(got, sorted_expect);
        }

        /// Slice composition matches host-side index arithmetic.
        #[test]
        fn slice_of_slice_threads(
            n in 4usize..40,
            a in 0usize..6, sa in 1usize..5,
            b in 0usize..4, sb in 1usize..4,
        ) {
            let d = dev(4, 16);
            let t = d.zeros_i32(n).unwrap();
            let host: Vec<usize> = (0..n).collect();
            let h1: Vec<usize> = host.iter().copied().skip(a).step_by(sa).collect();
            let v1 = t.slice_step(a, n, sa);
            match (&v1, h1.is_empty()) {
                (Err(_), true) => return Ok(()),
                (Ok(v), false) => {
                    let h2: Vec<usize> = h1.iter().copied().skip(b).step_by(sb).collect();
                    match (v.slice_step(b, v.len(), sb), h2.is_empty()) {
                        (Err(_), true) => {}
                        (Ok(v2), false) => {
                            prop_assert_eq!(v2.len(), h2.len());
                            for (i, &orig) in h2.iter().enumerate() {
                                prop_assert_eq!(v2.thread(i), t.thread(orig));
                            }
                        }
                        (r, e) => prop_assert!(false, "mismatch: ok={} empty={}", r.is_ok(), e),
                    }
                }
                (r, e) => prop_assert!(false, "mismatch: ok={} empty={}", r.is_ok(), e),
            }
        }
    }
}
