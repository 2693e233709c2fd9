//! Dependency-aware shard scheduling for the cluster's one batch path
//! ([`PimCluster::submit_batch`]): per-shard dependency tracking instead of
//! a global barrier at every crossing `MoveWarps`.
//!
//! * Shard-local instructions accumulate in per-shard *pending* queues, one
//!   segment per request.
//! * A crossing move *drains* only the shards it touches — the owners of
//!   its crossing source and destination warps, as reported by
//!   [`ShardPlan::route_move_warps`](crate::ShardPlan::route_move_warps) —
//!   i.e. their pending queues are submitted and every one of their
//!   in-flight jobs is awaited before the host stages the transfer.
//! * Untouched shards are *launched* instead: their pending queues are
//!   submitted without waiting, so those chips keep streaming queued work
//!   concurrently with the cross-chip transfer.
//! * With no crossing move nothing is launched until the end, and what is
//!   then in flight — one job per involved shard — is the submission's
//!   [`JobSet`].
//!
//! This is safe because the H-tree move rule guarantees a `MoveWarps`'
//! source and destination warp sets are disjoint, and every shard's job
//! channel is FIFO: work racing with the transfer lives entirely on shards
//! whose warps the transfer does not read or write.

use crate::{ClusterError, JobSet, JobTicket, PimCluster};
use pim_isa::Instruction;
use pim_telemetry::RequestId;

/// Per-shard dependency tracker driving one submission: pending (not yet
/// submitted) instruction segments, each carrying the [`RequestId`] its
/// modeled cycles attribute to, plus the in-flight (submitted, not yet
/// awaited) job tickets of all shards in launch order — each knows its
/// shard.
pub(crate) struct BatchScheduler<'c> {
    cluster: &'c PimCluster,
    pending: Vec<Vec<(RequestId, Vec<Instruction>)>>,
    inflight: Vec<JobTicket>,
}

impl<'c> BatchScheduler<'c> {
    pub(crate) fn new(cluster: &'c PimCluster) -> Self {
        BatchScheduler {
            cluster,
            pending: vec![Vec::new(); cluster.shards()],
            inflight: Vec::new(),
        }
    }

    /// Queues one shard-local instruction of `request`, extending the
    /// shard's last segment or opening one; nothing is submitted yet.
    /// Inlined: a scatter calls it once per word from another module.
    #[inline]
    pub(crate) fn enqueue(&mut self, shard: usize, request: RequestId, instr: Instruction) {
        match self.pending[shard].last_mut() {
            Some((r, segment)) if *r == request => segment.push(instr),
            _ => self.pending[shard].push((request, vec![instr])),
        }
    }

    /// Submits a shard's pending segments as one job without waiting, so
    /// the shard streams it concurrently with whatever the host does next.
    fn launch(&mut self, shard: usize) -> Result<(), ClusterError> {
        if self.pending[shard].is_empty() {
            return Ok(());
        }
        let segments = std::mem::take(&mut self.pending[shard]);
        self.inflight
            .push(self.cluster.submit_segments(shard, segments)?);
        Ok(())
    }

    /// Blocks until everything submitted to `shard` so far has executed.
    fn wait(&mut self, shard: usize) -> Result<(), ClusterError> {
        let (done, rest) = std::mem::take(&mut self.inflight)
            .into_iter()
            .partition(|t| t.shard() == shard);
        self.inflight = rest;
        Vec::into_iter(done).try_for_each(|t| t.wait().map(drop))
    }

    /// The drain rule. `touched[s]` marks shards the upcoming cross-chip
    /// transfer reads from or writes to: their queues are submitted and
    /// awaited (the transfer must observe their effects, and FIFO job
    /// channels alone cannot order the *gather* against pending work on
    /// destination-only shards). Every untouched shard is merely launched
    /// and keeps streaming during the transfer.
    pub(crate) fn barrier(&mut self, touched: &[bool]) -> Result<(), ClusterError> {
        debug_assert_eq!(touched.len(), self.pending.len());
        // Launch untouched shards first: their work overlaps the drain.
        for (shard, &t) in touched.iter().enumerate() {
            if !t {
                self.launch(shard)?;
            }
        }
        for (shard, &t) in touched.iter().enumerate() {
            if t {
                self.launch(shard)?;
            }
        }
        for (shard, &t) in touched.iter().enumerate() {
            if t {
                self.wait(shard)?;
            }
        }
        Ok(())
    }

    /// Number of shards with pending or in-flight work among `touched` —
    /// the queues a [`barrier`](BatchScheduler::barrier) on that set would
    /// actually drain (telemetry).
    pub(crate) fn busy(&self, touched: &[bool]) -> u64 {
        touched
            .iter()
            .enumerate()
            .filter(|&(s, &t)| {
                t && !(self.pending[s].is_empty() && self.inflight.iter().all(|j| j.shard() != s))
            })
            .count() as u64
    }

    /// A barrier over every shard: what was queued so far is complete
    /// before anything else is routed.
    pub(crate) fn drain(&mut self) -> Result<(), ClusterError> {
        self.barrier(&vec![true; self.pending.len()])
    }

    /// Submits every pending queue and hands back everything still in
    /// flight — the end of the submission.
    pub(crate) fn finish(mut self) -> Result<JobSet, ClusterError> {
        for shard in 0..self.pending.len() {
            self.launch(shard)?;
        }
        Ok(JobSet::new(self.inflight))
    }
}
