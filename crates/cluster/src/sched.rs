//! Dependency-aware shard scheduling for the cluster's one batch path
//! ([`PimCluster::submit_batch`]): per-shard dependency tracking instead of
//! a global barrier at every crossing `MoveWarps`. It decides where each
//! shard's jobs begin and end.
//!
//! * Shard-local instructions accumulate in per-shard *pending* queues, one
//!   segment per request.
//! * A crossing move *drains* only the shards it touches — the owners of
//!   its crossing source and destination warps, as reported by
//!   [`ShardPlan::route_move_warps`](crate::ShardPlan::route_move_warps) —
//!   i.e. their pending queues run as jobs and every one of their job
//!   results is checked before the host stages the transfer.
//! * Untouched shards are *launched* instead: their pending queues run as
//!   jobs too, but their results are checked only at the end, as a
//!   barrier-free submission's are.
//! * With no crossing move nothing is launched until the end, and the
//!   first error among the jobs then launched — one per involved shard —
//!   is the submission's [`JobSet`].
//!
//! Launching an untouched shard at a barrier is sound because the H-tree
//! move rule guarantees a `MoveWarps`' source and destination warp sets
//! are disjoint: its queued work touches no cell the transfer reads or
//! writes.

use crate::{ClusterError, JobSet, PimCluster};
use pim_isa::Instruction;
use pim_telemetry::RequestId;

/// Per-shard dependency tracker driving one submission: pending (not yet
/// run) instruction segments, each carrying the [`RequestId`] its modeled
/// cycles attribute to, plus the outcomes of launched jobs not yet
/// checked, in launch order, each with its shard.
pub(crate) struct BatchScheduler<'c> {
    cluster: &'c PimCluster,
    pending: Vec<Vec<(RequestId, Vec<Instruction>)>>,
    launched: Vec<(usize, Result<(), ClusterError>)>,
}

impl<'c> BatchScheduler<'c> {
    pub(crate) fn new(cluster: &'c PimCluster) -> Self {
        BatchScheduler {
            cluster,
            pending: vec![Vec::new(); cluster.shards()],
            launched: Vec::new(),
        }
    }

    /// Queues one shard-local instruction of `request`, extending the
    /// shard's last segment or opening one; nothing runs yet.
    /// Inlined: a scatter calls it once per word from another module.
    #[inline]
    pub(crate) fn enqueue(&mut self, shard: usize, request: RequestId, instr: Instruction) {
        match self.pending[shard].last_mut() {
            Some((r, segment)) if *r == request => segment.push(instr),
            _ => self.pending[shard].push((request, vec![instr])),
        }
    }

    /// Runs a shard's pending segments as one job, keeping its outcome
    /// for later (a batch job's values are all `None`).
    fn launch(&mut self, shard: usize) -> Result<(), ClusterError> {
        if self.pending[shard].is_empty() {
            return Ok(());
        }
        let segments = std::mem::take(&mut self.pending[shard]);
        let reply = self.cluster.run_segments(shard, segments)?;
        self.launched.push((shard, reply.map(drop)));
        Ok(())
    }

    /// Checks every result `shard` has produced so far, in launch order.
    fn wait(&mut self, shard: usize) -> Result<(), ClusterError> {
        let (done, rest) = std::mem::take(&mut self.launched)
            .into_iter()
            .partition(|(s, _)| *s == shard);
        self.launched = rest;
        Vec::into_iter(done).try_for_each(|(_, outcome)| outcome)
    }

    /// The drain rule. `touched[s]` marks shards the upcoming cross-chip
    /// transfer reads from or writes to: their queues run and their
    /// results are checked (the transfer must observe their effects).
    /// Every untouched shard's queue runs as a job of its own, checked
    /// only when the submission finishes.
    pub(crate) fn barrier(&mut self, touched: &[bool]) -> Result<(), ClusterError> {
        debug_assert_eq!(touched.len(), self.pending.len());
        // Untouched shards launch first: the job order every recorded
        // fault schedule and modeled clock was taken in.
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

    /// Number of shards with pending work or unchecked results among
    /// `touched` — the queues a [`barrier`](BatchScheduler::barrier) on that
    /// set would actually drain (telemetry).
    pub(crate) fn busy(&self, touched: &[bool]) -> u64 {
        touched
            .iter()
            .enumerate()
            .filter(|&(s, &t)| {
                t && !(self.pending[s].is_empty() && self.launched.iter().all(|(j, _)| *j != s))
            })
            .count() as u64
    }

    /// A barrier over every shard: what was queued so far is complete
    /// before anything else is routed.
    pub(crate) fn drain(&mut self) -> Result<(), ClusterError> {
        self.barrier(&vec![true; self.pending.len()])
    }

    /// Runs every pending queue and hands back the first error among the
    /// unchecked results — the end of the submission.
    pub(crate) fn finish(mut self) -> Result<JobSet, ClusterError> {
        for shard in 0..self.pending.len() {
            self.launch(shard)?;
        }
        let first_error = self.launched.into_iter().try_for_each(|(_, r)| r);
        Ok(JobSet(first_error))
    }
}
