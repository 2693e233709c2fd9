//! Client sessions: a [`ClusterClient`] is one caller's handle onto the
//! gateway, owning a private placement window in the device's warp space.
//! Every op that only emits instructions lives on
//! [`RequestPlan`](crate::RequestPlan); the client keeps what needs the
//! host to wait or read — running a batch or a plan, reads, the copy
//! fallback, and reductions.
//!
//! The plans are [`pypim_core::Plan`]s, the lowering the blocking tensor
//! ops run too, so a request served through the gateway produces
//! **bit-identical** results to the same program run synchronously —
//! `tests/serve_contract.rs` holds the stack to that.

use crate::gateway::GatewayInner;
use pim_isa::{DType, Instruction, RegOp};
use pypim_core::{plan_copy, Device, PlacementHint, Result, Tensor};
use std::sync::Arc;

/// One client's session on the serving gateway.
///
/// Tensors created through the session allocate inside its private
/// placement window (including operation results and temporaries), so
/// concurrent sessions never contend for the same warp window's registers
/// — the failure mode that used to force serving front ends to bound
/// in-flight requests. Dropping the session releases the window's headroom
/// reservation; tensors created through it stay valid.
pub struct ClusterClient {
    gw: Arc<GatewayInner>,
    id: usize,
    window: PlacementHint,
    dev: Device,
}

impl std::fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClient")
            .field("id", &self.id)
            .field("window", &self.window)
            .finish()
    }
}

impl Drop for ClusterClient {
    fn drop(&mut self) {
        // The gateway holds the window reservation (so eviction can
        // release it early) and releases it inside `remove_session`.
        self.gw.remove_session(self.id);
    }
}

impl ClusterClient {
    pub(crate) fn new(
        gw: Arc<GatewayInner>,
        id: usize,
        window: PlacementHint,
        dev: Device,
    ) -> Self {
        ClusterClient {
            gw,
            id,
            window,
            dev,
        }
    }

    /// This session's placement window.
    pub fn window(&self) -> PlacementHint {
        self.window
    }

    /// This session's id on its gateway — the handle
    /// [`Gateway::evict_session`](crate::Gateway::evict_session) takes,
    /// and the `session` field of the typed admission errors.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The session's device handle (allocations through it land in the
    /// session window).
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Submits one non-read instruction batch through the gateway's
    /// admission controller and resolves when it has executed.
    ///
    /// # Errors
    ///
    /// Surfaces validation and shard errors (a coalescing peer's failure in
    /// the same group also surfaces here — groups share fate).
    pub async fn exec(&self, instrs: Vec<Instruction>) -> Result<()> {
        self.gw.enqueue(self.id, instrs).await
    }

    /// Like [`exec`](ClusterClient::exec), but returns the gateway's
    /// [`ExecFuture`](crate::ExecFuture) directly: an owned future with no
    /// borrow of this handle. Admission happens *now* (the batch is queued
    /// before this returns); only polling pumps it through the device.
    /// This is the handle open-loop load generators keep in their
    /// in-flight tables — many may be outstanding per session, executing
    /// in admission (FIFO) order.
    pub fn submit(&self, instrs: Vec<Instruction>) -> crate::ExecFuture {
        self.gw.enqueue(self.id, instrs)
    }

    /// Reads raw words at `(warp, row, register)` locations, in order.
    /// Reads bypass coalescing (they end a request's pipeline) and run at
    /// once.
    ///
    /// # Errors
    ///
    /// Surfaces addressing and shard errors.
    pub async fn read_locs(&self, locs: &[(u32, u32, u8)]) -> Result<Vec<u32>> {
        self.gw.dev.read_many(locs)
    }

    /// Copies `src` into `dst` (same length, any layouts): the planned move
    /// when one exists, else a read-back and the stores of its values — the
    /// instructions of the blocking [`pypim_core::copy`], in its order.
    ///
    /// # Errors
    ///
    /// Fails on shape/device mismatches or execution errors.
    pub async fn copy(&self, src: &Tensor, dst: &Tensor) -> Result<()> {
        match plan_copy(src, dst)? {
            Some(plan) => self.exec(plan).await,
            None => {
                let values = self.read_locs(&src.element_locs()).await?;
                self.exec(dst.plan_store(values)).await
            }
        }
    }

    /// Logarithmic-time reduction with `op` (`Add` or `Mul`): one run of
    /// [`Plan::reduce`](pypim_core::Plan::reduce), except that a layout
    /// whose compaction has no move plan (`t.even()`) is compacted through
    /// [`copy`](ClusterClient::copy) once the pad fill has run — as the
    /// blocking `Tensor::reduce_raw` does.
    ///
    /// # Errors
    ///
    /// Fails on allocation, movement, or execution errors.
    pub async fn reduce_raw(&self, t: &Tensor, op: RegOp) -> Result<u32> {
        let mut plan = self.plan();
        let c = plan.padded(t, op)?;
        let prefix = c.slice(0, t.len())?;
        if !plan.copy(t, &prefix)? {
            plan.run().await?;
            self.copy(t, &prefix).await?;
            plan = self.plan();
        }
        let out = plan.halve(c, |p, lo, hi| p.binary(op, lo, hi))?;
        plan.run().await?;
        Ok(self.read_locs(&out.element_locs()).await?[0])
    }

    /// Sum of all elements (float32).
    ///
    /// # Errors
    ///
    /// Fails for non-float tensors or on reduction errors.
    pub async fn sum_f32(&self, t: &Tensor) -> Result<f32> {
        t.expect_dtype(DType::Float32)?;
        Ok(f32::from_bits(self.reduce_raw(t, RegOp::Add).await?))
    }

    /// Sum of all elements (int32, wrapping).
    ///
    /// # Errors
    ///
    /// Fails for non-int tensors or on reduction errors.
    pub async fn sum_i32(&self, t: &Tensor) -> Result<i32> {
        t.expect_dtype(DType::Int32)?;
        Ok(self.reduce_raw(t, RegOp::Add).await? as i32)
    }

    /// Reads a whole tensor back as floats.
    ///
    /// # Errors
    ///
    /// Fails for non-float tensors or on read errors.
    pub async fn to_vec_f32(&self, t: &Tensor) -> Result<Vec<f32>> {
        t.expect_dtype(DType::Float32)?;
        let bits = self.read_locs(&t.element_locs()).await?;
        Ok(bits.into_iter().map(f32::from_bits).collect())
    }

    /// Reads a whole tensor back as ints.
    ///
    /// # Errors
    ///
    /// Fails for non-int tensors or on read errors.
    pub async fn to_vec_i32(&self, t: &Tensor) -> Result<Vec<i32>> {
        t.expect_dtype(DType::Int32)?;
        let bits = self.read_locs(&t.element_locs()).await?;
        Ok(bits.into_iter().map(|b| b as i32).collect())
    }
}
