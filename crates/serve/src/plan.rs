//! Request pipelines: a [`RequestPlan`] is the session-bound form of the
//! tensor library's [`Plan`] — the one lowering of the tensor vocabulary,
//! whose module docs say why a fused plan is bit-identical to the blocking
//! ops and what it may recycle. It adds [`run`](RequestPlan::run): the
//! whole request goes through the gateway as **one** batch.

use crate::ClusterClient;
use pim_isa::Instruction;
use pypim_core::{Plan, Result};
use std::ops::{Deref, DerefMut};

/// An unsubmitted request pipeline on one session. Build it with
/// [`ClusterClient::plan`], chain [`Plan`] ops on it, then
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
    plan: Plan,
}

impl Deref for RequestPlan<'_> {
    type Target = Plan;

    fn deref(&self) -> &Plan {
        &self.plan
    }
}

impl DerefMut for RequestPlan<'_> {
    fn deref_mut(&mut self) -> &mut Plan {
        &mut self.plan
    }
}

impl RequestPlan<'_> {
    /// Submits the whole plan as one gateway batch and resolves when it
    /// has executed. Read results afterwards with
    /// [`ClusterClient::to_vec_f32`] / [`read_locs`](ClusterClient::read_locs).
    ///
    /// # Errors
    ///
    /// Surfaces validation and shard errors.
    pub async fn run(self) -> Result<()> {
        self.client.exec(self.plan.into_instrs()).await
    }

    /// Finishes the plan *without* submitting, returning the fused
    /// instruction batch. Load generators build a plan once per request
    /// shape and replay clones of the batch through
    /// [`ClusterClient::submit`]; the tensors planned into it must outlive
    /// every replay (replays write the same stripes, in admission order).
    pub fn into_instrs(self) -> Vec<Instruction> {
        self.plan.into_instrs()
    }
}

impl ClusterClient {
    /// Starts a fused request pipeline (see [`RequestPlan`]).
    pub fn plan(&self) -> RequestPlan<'_> {
        RequestPlan {
            client: self,
            plan: Plan::new(self.device()),
        }
    }

    /// Runs one op as a one-step plan: `build` plans it, the plan runs,
    /// and what `build` returned comes back —
    /// `client.step(|p| p.add(&x, &y)).await?` is `x + y`, executed.
    ///
    /// Unlike the synchronous `&x + &y`, an element-wise step never reads
    /// through the host: a right-hand side no move plan can align with
    /// `x` (a strided view spanning partial warps) is refused with
    /// [`CoreError::Misaligned`](pypim_core::CoreError::Misaligned). Align it first with
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
