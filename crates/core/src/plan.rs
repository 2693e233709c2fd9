//! Instruction plans: the one lowering of the tensor vocabulary onto ISA
//! instructions (§V-A). A [`Plan`] accumulates the instruction stream of a
//! sequence of ops — fills, stores, element-parallel ops with their
//! alignment moves, every level of a reduction — without executing it.
//!
//! Every blocking op of the library is a one-step plan run as one device
//! batch: it must execute-and-wait, since each result might be read next.
//! The serving layer's `RequestPlan` is a plan bound to a gateway session
//! that submits a whole request as **one** gateway batch, collapsing its
//! ~2·log n admission round trips into one submission plus one read. Both
//! run the instructions built here, in the same order, on the same
//! allocations, so results are bit-identical at identical modeled cost.
//! Every data dependency in a session window is same-warp or same-shard,
//! and scheduler order keeps it: each shard job runs on the submitting
//! thread under the shard's lock, and a chip-crossing move is staged on
//! that thread too.
//!
//! A move no instruction plan expresses (a strided view spanning partial
//! warps) is where the two part: a blocking op runs what it has planned,
//! reads the source back and plans the stores of its values; any other
//! plan refuses with [`CoreError::Misaligned`].
//!
//! Planned tensors allocate at *plan* time, and stripes freed during
//! planning may be reused by later instructions of the same plan: planning
//! order is execution order, and hard window reservations keep every other
//! client out of a session's window. A plan therefore needs memory for only
//! the simultaneously-live stripes, like stepwise execution.

use crate::movement::plan_copy;
use crate::tensor::Tensor;
use crate::{CoreError, Device, Result};
use pim_isa::{DType, Instruction, RegOp};

/// The identity element of an associative reduction (`Add` or `Mul`), as
/// the raw word reductions and scans pad with.
///
/// # Panics
///
/// Panics for non-reduction operations.
pub fn identity_bits(op: RegOp, dtype: DType) -> u32 {
    match (op, dtype) {
        (RegOp::Add, DType::Int32) => 0,
        (RegOp::Add, DType::Float32) => 0.0f32.to_bits(),
        (RegOp::Mul, DType::Int32) => 1,
        (RegOp::Mul, DType::Float32) => 1.0f32.to_bits(),
        _ => panic!("reduction requires an associative ALU operation"),
    }
}

fn check_operand(lhs: &Tensor, rhs: &Tensor) -> Result<()> {
    if !lhs.device().same_device(rhs.device()) {
        return Err(CoreError::DeviceMismatch);
    }
    if lhs.len() != rhs.len() {
        return Err(CoreError::ShapeMismatch {
            lhs: lhs.len(),
            rhs: rhs.len(),
        });
    }
    Ok(())
}

/// An unexecuted instruction stream on one device (see the module docs).
///
/// Plans on one device must execute in the order they were built: a later
/// plan's allocations may recycle stripes an earlier unexecuted plan still
/// references.
pub struct Plan {
    dev: Device,
    instrs: Vec<Instruction>,
    /// Set on the plans blocking ops run: a move with no instruction plan
    /// executes the plan so far and copies through the host.
    blocking: bool,
}

impl Device {
    /// Runs one op as a one-step plan: `build` plans it and the plan
    /// executes as one batch — the blocking twin of the serving layer's
    /// `ClusterClient::step`.
    pub(crate) fn step<T>(&self, build: impl FnOnce(&mut Plan) -> Result<T>) -> Result<T> {
        let mut plan = Plan {
            blocking: true,
            ..Plan::new(self)
        };
        let out = build(&mut plan)?;
        plan.flush()?;
        Ok(out)
    }
}

impl Plan {
    /// An empty plan allocating on `dev` (and inside its placement window).
    pub fn new(dev: &Device) -> Plan {
        Plan {
            dev: dev.clone(),
            instrs: Vec::new(),
            blocking: false,
        }
    }

    /// Instructions planned so far.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether nothing has been planned yet.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The planned instruction stream, in execution order.
    pub fn into_instrs(self) -> Vec<Instruction> {
        self.instrs
    }

    fn flush(&mut self) -> Result<()> {
        if self.instrs.is_empty() {
            return Ok(());
        }
        self.dev.exec_batch(&std::mem::take(&mut self.instrs))
    }

    /// Plans broadcasting the raw word `bits` to every element of `t`: one
    /// write per thread range, the ISA's range-repeated write for constants.
    pub fn fill(&mut self, t: &Tensor, bits: u32) {
        let reg = t.reg();
        let writes = t
            .thread_ranges()
            .into_iter()
            .map(|target| Instruction::Write {
                reg,
                value: bits,
                target,
            });
        self.instrs.extend(writes);
    }

    /// Plans a fresh tensor of `n` copies of the raw word `bits`.
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub(crate) fn full(&mut self, n: usize, dtype: DType, bits: u32) -> Result<Tensor> {
        let t = self.dev.uninit(n, dtype)?;
        self.fill(&t, bits);
        Ok(t)
    }

    /// Plans a fresh tensor of `n` copies of `value` (float32).
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn full_f32(&mut self, n: usize, value: f32) -> Result<Tensor> {
        self.full(n, DType::Float32, value.to_bits())
    }

    /// Plans a fresh tensor of `n` copies of `value` (int32).
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn full_i32(&mut self, n: usize, value: i32) -> Result<Tensor> {
        self.full(n, DType::Int32, value as u32)
    }

    /// Plans a fresh tensor thread-aligned with `like` holding `bits`
    /// everywhere.
    pub(crate) fn full_like(&mut self, like: &Tensor, dtype: DType, bits: u32) -> Result<Tensor> {
        let t = like.empty_aligned(dtype)?;
        self.fill(&t, bits);
        Ok(t)
    }

    /// Plans uploading a float slice into a fresh tensor.
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn upload_f32(&mut self, data: &[f32]) -> Result<Tensor> {
        let t = self.dev.uninit(data.len(), DType::Float32)?;
        self.instrs
            .extend(t.plan_store(data.iter().map(|v| v.to_bits())));
        Ok(t)
    }

    /// Plans uploading an int slice into a fresh tensor.
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn upload_i32(&mut self, data: &[i32]) -> Result<Tensor> {
        let t = self.dev.uninit(data.len(), DType::Int32)?;
        self.instrs
            .extend(t.plan_store(data.iter().map(|v| *v as u32)));
        Ok(t)
    }

    /// Plans copying `src` into `dst` when a move plan exists; `false`
    /// (nothing planned) otherwise.
    ///
    /// # Errors
    ///
    /// Fails on shape or device mismatches.
    pub fn copy(&mut self, src: &Tensor, dst: &Tensor) -> Result<bool> {
        let planned = plan_copy(src, dst)?;
        let found = planned.is_some();
        self.instrs.extend(planned.into_iter().flatten());
        Ok(found)
    }

    /// Copies `src` into `dst`: planned when a move plan exists, else, on
    /// a blocking plan, through the host (what is planned so far runs,
    /// `src` is read back, and the stores of its values are planned), else
    /// refused.
    pub(crate) fn copy_into(&mut self, src: &Tensor, dst: &Tensor) -> Result<()> {
        if self.copy(src, dst)? {
            return Ok(());
        }
        if !self.blocking {
            return Err(CoreError::Misaligned {
                what: "no move plan aligns this layout; copy it into an aligned \
                       tensor first (`Tensor::empty_aligned`)"
                    .into(),
            });
        }
        self.flush()?;
        let values = src.to_raw_vec()?;
        self.instrs.extend(dst.plan_store(values));
        Ok(())
    }

    /// Plans a fresh tensor thread-aligned with `like` holding `src`'s
    /// values.
    pub(crate) fn moved(&mut self, src: &Tensor, like: &Tensor) -> Result<Tensor> {
        let out = like.empty_aligned(src.dtype())?;
        self.copy_into(src, &out)?;
        Ok(out)
    }

    /// `t` itself when it occupies `like`'s threads, else a planned
    /// aligned copy — the library's alignment fallback (§V-A).
    fn aligned(&mut self, like: &Tensor, t: &Tensor) -> Result<Tensor> {
        if like.aligned_with(t) {
            Ok(t.clone())
        } else {
            self.moved(t, like)
        }
    }

    /// Plans `op` over `at`'s thread ranges into a fresh `out`-typed tensor
    /// aligned with `at`.
    fn rtype(
        &mut self,
        op: RegOp,
        at: &Tensor,
        dtype: DType,
        out: DType,
        srcs: [u8; 3],
    ) -> Result<Tensor> {
        let out = at.empty_aligned(out)?;
        self.instrs
            .extend(at.rtype_instrs(op, dtype, out.reg(), srcs));
        Ok(out)
    }

    /// Plans an element-parallel binary operation. A misaligned right-hand
    /// side is first moved next to the left one; a comparison yields int32
    /// 0/1.
    ///
    /// # Errors
    ///
    /// Fails on shape/dtype/device mismatches or allocation errors;
    /// [`CoreError::Misaligned`] when the alignment move has no
    /// instruction plan (copy into [`Tensor::empty_aligned`] first).
    pub fn binary(&mut self, op: RegOp, lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
        check_operand(lhs, rhs)?;
        rhs.expect_dtype(lhs.dtype())?;
        let rhs = self.aligned(lhs, rhs)?;
        let out = match op.is_comparison() {
            true => DType::Int32,
            false => lhs.dtype(),
        };
        self.rtype(op, lhs, lhs.dtype(), out, [lhs.reg(), rhs.reg(), 0])
    }

    /// Plans `lhs op bits`, the raw word broadcast over `lhs`'s threads.
    ///
    /// # Errors
    ///
    /// See [`binary`](Plan::binary).
    pub(crate) fn binary_scalar(&mut self, op: RegOp, lhs: &Tensor, bits: u32) -> Result<Tensor> {
        let scalar = self.full_like(lhs, lhs.dtype(), bits)?;
        self.binary(op, lhs, &scalar)
    }

    /// `lhs + rhs`.
    ///
    /// # Errors
    ///
    /// See [`binary`](Plan::binary).
    pub fn add(&mut self, lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Add, lhs, rhs)
    }

    /// `lhs * rhs`.
    ///
    /// # Errors
    ///
    /// See [`binary`](Plan::binary).
    pub fn mul(&mut self, lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Mul, lhs, rhs)
    }

    /// Plans an element-parallel unary operation.
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn unary(&mut self, op: RegOp, t: &Tensor) -> Result<Tensor> {
        self.rtype(op, t, t.dtype(), t.dtype(), [t.reg(), 0, 0])
    }

    /// Plans the element-wise select `where cond != 0, a, else b`, both
    /// data operands aligned with `cond`.
    ///
    /// # Errors
    ///
    /// See [`binary`](Plan::binary).
    pub(crate) fn select(&mut self, cond: &Tensor, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        check_operand(cond, a)?;
        check_operand(cond, b)?;
        b.expect_dtype(a.dtype())?;
        let a = self.aligned(cond, a)?;
        let b = self.aligned(cond, b)?;
        let srcs = [cond.reg(), a.reg(), b.reg()];
        self.rtype(RegOp::Mux, cond, a.dtype(), a.dtype(), srcs)
    }

    /// Plans the element-wise maximum (`want_max`) or minimum: a
    /// comparison, then a select under it.
    pub(crate) fn extreme(&mut self, want_max: bool, lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
        let op = if want_max { RegOp::Gt } else { RegOp::Lt };
        let pick = self.binary(op, lhs, rhs)?;
        self.select(&pick, lhs, rhs)
    }

    /// Plans a fresh dense tensor of `capacity >= src.len()` elements
    /// (offset 0, stride 1, own warp window) holding `src`'s values
    /// followed by `pad_bits`: the pad fills everything, then the data
    /// prefix is copied over it.
    ///
    /// # Errors
    ///
    /// Fails on allocation or movement errors.
    pub(crate) fn compact(
        &mut self,
        src: &Tensor,
        capacity: usize,
        pad_bits: u32,
    ) -> Result<Tensor> {
        assert!(capacity >= src.len());
        let out = self.full(capacity, src.dtype(), pad_bits)?;
        self.copy_into(src, &out.slice(0, src.len())?)?;
        Ok(out)
    }

    /// Plans the fresh power-of-two tensor a reduction of `t` with `op`
    /// (`Add` or `Mul`) compacts into, filled with `op`'s identity.
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn padded(&mut self, t: &Tensor, op: RegOp) -> Result<Tensor> {
        let bits = identity_bits(op, t.dtype());
        self.full(t.len().next_power_of_two(), t.dtype(), bits)
    }

    /// Plans halving the compacted power-of-two `cur` down to one element:
    /// each level moves the upper half next to the lower and `combine`s
    /// them (§V-A "Reduction").
    ///
    /// # Errors
    ///
    /// Fails on allocation or movement errors and with `combine`'s errors.
    pub fn halve(
        &mut self,
        mut cur: Tensor,
        mut combine: impl FnMut(&mut Plan, &Tensor, &Tensor) -> Result<Tensor>,
    ) -> Result<Tensor> {
        while cur.len() > 1 {
            let half = cur.len() / 2;
            let lo = cur.slice(0, half)?;
            let hi = cur.slice(half, cur.len())?;
            let hi = self.moved(&hi, &lo)?;
            // Dropping the previous level's stripes here lets later
            // allocations recycle them — safe because planning order is
            // execution order.
            cur = combine(self, &lo, &hi)?;
        }
        Ok(cur)
    }

    /// Plans the whole logarithmic reduction of `t` with `op` (`Add` or
    /// `Mul`), returning the one-element result tensor.
    ///
    /// # Errors
    ///
    /// [`CoreError::Misaligned`] for layouts whose compaction has no move
    /// plan (outside the blocking ops), plus allocation errors.
    pub fn reduce(&mut self, t: &Tensor, op: RegOp) -> Result<Tensor> {
        let c = self.padded(t, op)?;
        self.copy_into(t, &c.slice(0, t.len())?)?;
        self.halve(c, |p, lo, hi| p.binary(op, lo, hi))
    }
}
