//! Request pipelines: a [`RequestPlan`] accumulates the instruction stream
//! of a request — uploads, element-parallel ops, every level of a
//! reduction — and submits it as **one** gateway batch, collapsing a
//! request's ~2·log n admission round trips into a single submission plus
//! one read. It is the serving layer's one op vocabulary: a stepwise
//! program runs each op as a one-step plan
//! ([`ClusterClient::step`]).
//!
//! This is the structural advantage the planning API buys the gateway over
//! the blocking tensor library: the blocking API must execute-and-wait per
//! op (each result might be read next), while a session that declares its
//! whole request up front lets dependent instructions ride one shard-FIFO
//! stream. Fusing preserves bit-identical semantics: the instructions and
//! their order are exactly the synchronous library's, and every data
//! dependency in a session window is same-warp (element-wise ops) or
//! same-shard (intra-window moves), which the per-shard FIFO job channels
//! order correctly. A plan that needs a chip-crossing move still works:
//! its submission stages the transfer on the submitting client thread.
//!
//! Memory discipline: planned tensors allocate at *plan* time, and
//! intermediate stripes freed during planning may be reused by *later*
//! instructions of the same plan (safe: planning order equals execution
//! order, and the allocator's hard window reservations keep every other
//! client out of the session's window, so nobody else can claim a
//! recycled stripe while its instructions are in flight). The plan
//! therefore needs its session window to hold only the simultaneously-live
//! stripes, just like stepwise execution.

use crate::ClusterClient;
use pim_isa::{DType, Instruction, RegOp};
use pypim_core::{identity_bits, plan_copy, CoreError, Result, Tensor};

/// An unsubmitted request pipeline on one session (see the module docs).
/// Build it with [`ClusterClient::plan`], chain ops, then
/// [`run`](RequestPlan::run) once — or let [`ClusterClient::step`] do all
/// three for one op.
///
/// Plans on one session must be run in the order they were built: a later
/// plan's allocations may recycle stripes an earlier unsubmitted plan
/// still references, which is only correct if the earlier plan's
/// instructions reach the shards first (sessions that `await` each plan
/// before building the next — the normal pattern — get this for free).
pub struct RequestPlan<'c> {
    client: &'c ClusterClient,
    pub(crate) instrs: Vec<Instruction>,
}

/// The error of a move no instruction plan expresses.
fn no_plan() -> CoreError {
    CoreError::Misaligned {
        what: "this layout's moves cannot be planned; use the stepwise \
               `ClusterClient::copy` / `reduce_raw`"
            .into(),
    }
}

impl<'c> RequestPlan<'c> {
    pub(crate) fn new(client: &'c ClusterClient) -> Self {
        RequestPlan {
            client,
            instrs: Vec::new(),
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

    /// Plans uploading a float slice into a fresh session tensor.
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn upload_f32(&mut self, data: &[f32]) -> Result<Tensor> {
        let t = self.client.device().uninit(data.len(), DType::Float32)?;
        self.instrs
            .extend(t.plan_store(data.iter().map(|v| v.to_bits())));
        Ok(t)
    }

    /// Plans uploading an int slice into a fresh session tensor.
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn upload_i32(&mut self, data: &[i32]) -> Result<Tensor> {
        let t = self.client.device().uninit(data.len(), DType::Int32)?;
        self.instrs
            .extend(t.plan_store(data.iter().map(|v| *v as u32)));
        Ok(t)
    }

    /// Plans a tensor of `n` copies of `value` (float32).
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn full_f32(&mut self, n: usize, value: f32) -> Result<Tensor> {
        let t = self.client.device().uninit(n, DType::Float32)?;
        self.instrs.extend(t.plan_fill(value.to_bits()));
        Ok(t)
    }

    /// Plans a tensor of `n` copies of `value` (int32).
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn full_i32(&mut self, n: usize, value: i32) -> Result<Tensor> {
        let t = self.client.device().uninit(n, DType::Int32)?;
        self.instrs.extend(t.plan_fill(value as u32));
        Ok(t)
    }

    /// Plans copying `src` into `dst` when a move plan exists; `false`
    /// (nothing planned) otherwise.
    pub(crate) fn try_copy(&mut self, src: &Tensor, dst: &Tensor) -> Result<bool> {
        let planned = plan_copy(src, dst)?;
        let found = planned.is_some();
        self.instrs.extend(planned.into_iter().flatten());
        Ok(found)
    }

    /// Plans an element-parallel binary operation. A misaligned right-hand
    /// side is first moved next to the left one (the library's alignment
    /// fallback, planned).
    ///
    /// # Errors
    ///
    /// Fails on shape/dtype/device mismatches or allocation errors;
    /// [`CoreError::Misaligned`] when the alignment move has no
    /// instruction plan (use the stepwise [`ClusterClient::copy`] into
    /// [`Tensor::empty_aligned`] there).
    pub fn binary(&mut self, op: RegOp, lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
        let (out, instrs) = match lhs.plan_binary(op, rhs) {
            Err(CoreError::Misaligned { .. }) => {
                let aligned = lhs.empty_aligned(rhs.dtype())?;
                if !self.try_copy(rhs, &aligned)? {
                    return Err(no_plan());
                }
                lhs.plan_binary(op, &aligned)?
            }
            planned => planned?,
        };
        self.instrs.extend(instrs);
        Ok(out)
    }

    /// Plans an element-parallel unary operation.
    ///
    /// # Errors
    ///
    /// Fails on allocation errors.
    pub fn unary(&mut self, op: RegOp, t: &Tensor) -> Result<Tensor> {
        let (out, instrs) = t.plan_unary(op)?;
        self.instrs.extend(instrs);
        Ok(out)
    }

    /// `lhs + rhs`.
    ///
    /// # Errors
    ///
    /// See [`binary`](RequestPlan::binary).
    pub fn add(&mut self, lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Add, lhs, rhs)
    }

    /// `lhs * rhs`.
    ///
    /// # Errors
    ///
    /// See [`binary`](RequestPlan::binary).
    pub fn mul(&mut self, lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
        self.binary(RegOp::Mul, lhs, rhs)
    }

    /// Plans the whole logarithmic reduction of `t` with `op` (`Add` or
    /// `Mul`), returning the one-element result tensor to read after
    /// [`run`](RequestPlan::run). Same compact-then-halve loop as the
    /// synchronous reduction — identical instructions, identical float
    /// combine order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Misaligned`] for layouts whose compaction has
    /// no instruction plan (use [`ClusterClient::reduce_raw`] there), plus
    /// allocation errors.
    pub fn reduce(&mut self, t: &Tensor, op: RegOp) -> Result<Tensor> {
        let c = self.padded(t, op)?;
        if !self.try_copy(t, &c.slice(0, t.len())?)? {
            return Err(no_plan());
        }
        self.halve(c, op)
    }

    /// Plans the fresh power-of-two tensor a reduction of `t` compacts
    /// into, filled with `op`'s identity (the synchronous
    /// `compact_with_padding` fills first, then copies the data prefix).
    pub(crate) fn padded(&mut self, t: &Tensor, op: RegOp) -> Result<Tensor> {
        assert!(
            matches!(op, RegOp::Add | RegOp::Mul),
            "reduction requires an associative ALU operation"
        );
        let c = self
            .client
            .device()
            .uninit(t.len().next_power_of_two(), t.dtype())?;
        self.instrs
            .extend(c.plan_fill(identity_bits(op, t.dtype())));
        Ok(c)
    }

    /// Plans halving the compacted `cur` down to one element: each level
    /// moves the upper half next to the lower and combines them.
    pub(crate) fn halve(&mut self, mut cur: Tensor, op: RegOp) -> Result<Tensor> {
        while cur.len() > 1 {
            let half = cur.len() / 2;
            let lo = cur.slice(0, half)?;
            let hi = cur.slice(half, cur.len())?;
            let hi_aligned = lo.empty_aligned(hi.dtype())?;
            if !self.try_copy(&hi, &hi_aligned)? {
                return Err(no_plan());
            }
            let (combined, bin) = lo.plan_binary(op, &hi_aligned)?;
            self.instrs.extend(bin);
            // Dropping the previous level's stripes here lets later plan
            // allocations recycle them — safe because planning order is
            // execution order within the session's shard streams.
            cur = combined;
        }
        Ok(cur)
    }

    /// Submits the whole plan as one gateway batch and resolves when it
    /// has executed. Read results afterwards with
    /// [`ClusterClient::to_vec_f32`] / [`read_locs`](ClusterClient::read_locs).
    ///
    /// # Errors
    ///
    /// Surfaces validation and shard errors.
    pub async fn run(self) -> Result<()> {
        self.client.exec(self.instrs).await
    }

    /// Finishes the plan *without* submitting, returning the fused
    /// instruction batch. Load generators build a plan once per request
    /// shape and replay clones of the batch through
    /// [`ClusterClient::submit`]; the tensors planned into it must outlive
    /// every replay (replays write the same stripes, in admission order).
    pub fn into_instrs(self) -> Vec<Instruction> {
        self.instrs
    }
}

impl ClusterClient {
    /// Starts a fused request pipeline (see [`RequestPlan`]).
    pub fn plan(&self) -> RequestPlan<'_> {
        RequestPlan::new(self)
    }

    /// Runs one op as a one-step plan: `build` plans it, the plan runs,
    /// and what `build` returned comes back —
    /// `client.step(|p| p.add(&x, &y)).await?` is `x + y`, executed.
    ///
    /// Unlike the synchronous `&x + &y`, an element-wise step never reads
    /// through the host: a right-hand side no move plan can align with
    /// `x` (a strided view spanning partial warps) is refused with
    /// [`CoreError::Misaligned`]. Align it first with
    /// `let y2 = x.empty_aligned(y.dtype())?; client.copy(&y, &y2).await?;`
    /// and step on `y2`.
    ///
    /// # Errors
    ///
    /// Fails with `build`'s planning error (nothing runs then) or the
    /// run's validation and shard errors.
    pub async fn step<T>(
        &self,
        build: impl FnOnce(&mut RequestPlan<'_>) -> Result<T>,
    ) -> Result<T> {
        let mut plan = self.plan();
        let out = build(&mut plan)?;
        plan.run().await?;
        Ok(out)
    }
}
