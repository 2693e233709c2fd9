//! One shard: its slot (the chip's driver while the shard is up, and the
//! recovery journal that outlives a crash), [`PimCluster::run_on`] — the
//! one point every job is delivered through — and the jobs that execute
//! instructions. A job runs on the thread that submits it, under the
//! slot's lock; journal, fault consultation and panic isolation are
//! applied there once for every kind of job.

use super::journal::{JournalEntry, ShardJournal};
use super::PimCluster;
use crate::ClusterError;
use pim_driver::{Driver, DriverError};
use pim_fault::WorkerFault;
use pim_isa::Instruction;
use pim_sim::PimSimulator;
use pim_telemetry::{RequestId, RequestStats, TrackHandle};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a macro job returns: one result per instruction (the read value
/// for [`Instruction::Read`], `None` otherwise).
pub(super) type ShardReply = Result<Vec<Option<u32>>, ClusterError>;

/// Everything one shard owns. Behind a `Mutex` in
/// [`PimCluster`], so any client thread can run a job on it or revive it.
pub(super) struct ShardSlot {
    /// The shard's chip; `None` while the shard is down (a crash dropped
    /// it) until the next job revives it from `journal`.
    pub(super) driver: Option<Driver<PimSimulator>>,
    /// Checkpoint + replay log; `None` when recovery is disabled.
    pub(super) journal: Option<ShardJournal>,
}

/// Executes one request's instruction segment on `driver`, appending one
/// result per instruction to `out` — the unit of attribution on every
/// device, one chip or many (`track` = `shard-{i}`). When telemetry is
/// recording, the chip's own profiler cycle counter is the track's
/// timeline: the segment becomes an `exec` span covering exactly the
/// cycles its instructions consumed, the global clock advances past it,
/// and the cycles attribute to `request`. Gated on one relaxed load when
/// telemetry is disabled.
///
/// # Errors
///
/// Fails on the first erroring instruction ([`Driver::execute_many`]);
/// nothing is recorded for a failed segment.
fn execute_segment(
    driver: &mut Driver<PimSimulator>,
    track: &TrackHandle,
    request: RequestId,
    instrs: &[Instruction],
    out: &mut Vec<Option<u32>>,
) -> Result<(), DriverError> {
    let recording = track.is_enabled();
    let before = if recording {
        driver.backend().profiler().cycles
    } else {
        0
    };
    driver.execute_many(instrs, out)?;
    if recording {
        let cycles = driver.backend().profiler().cycles.saturating_sub(before);
        let telemetry = track.telemetry();
        // Anchor at the later of the global clock and the chip's profiler
        // total: identical to charging absolute profiler cycles while the
        // clock only ever moved through execution, but when a driver has
        // jumped the clock ahead (open-loop load generation, retry backoff)
        // the segment occupies `[now, now + cycles)` instead of charging
        // nothing.
        let start = telemetry.now().max(before);
        let instructions = instrs.len() as u64;
        track.record_complete(
            "exec",
            start,
            cycles,
            request,
            Some(("instructions", instructions)),
        );
        telemetry.advance_clock(start + cycles);
        telemetry.attribute(
            request,
            RequestStats {
                cycles,
                instructions,
                ..RequestStats::default()
            },
        );
    }
    Ok(())
}

impl PimCluster {
    /// Runs `job` on shard `shard`, here and now, under the shard's slot
    /// lock — reviving the shard first if it is down. The fault schedule
    /// is consulted before an `executable` job: a stall charges modeled
    /// cycles ahead of it; a crash takes the shard down without running
    /// it. A job that panics takes the shard down the same way: the
    /// unwind stops here, so no lock is poisoned and no half-applied
    /// driver state survives.
    ///
    /// # Errors
    ///
    /// The outer error means the job never ran:
    /// [`ShardIndex`](ClusterError::ShardIndex), or the shard is down and
    /// cannot be revived. The inner result is the job's own;
    /// [`WorkerCrashed`](ClusterError::WorkerCrashed) when it crashed the
    /// shard (the next job revives it from the journal).
    pub(super) fn run_on<R>(
        &self,
        shard: usize,
        executable: bool,
        job: impl FnOnce(
            &mut Driver<PimSimulator>,
            Option<&mut ShardJournal>,
        ) -> Result<R, ClusterError>,
    ) -> Result<Result<R, ClusterError>, ClusterError> {
        let slot = self.slots.get(shard).ok_or(ClusterError::ShardIndex {
            shard,
            shards: self.slots.len(),
        })?;
        let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
        let ShardSlot { driver, journal } = &mut *slot;
        let up = match &mut *driver {
            Some(up) => up,
            down => down.insert(self.revive(journal.as_mut(), shard)?),
        };
        let fault = match &self.fault {
            Some(f) if executable => f.worker_fault(shard),
            _ => None,
        };
        if let Some(WorkerFault::Stall { cycles }) = fault {
            up.backend_mut().stall(cycles);
        }
        let reply = match fault {
            Some(WorkerFault::Crash) => None,
            _ => catch_unwind(AssertUnwindSafe(|| job(up, journal.as_mut()))).ok(),
        };
        Ok(reply.unwrap_or_else(|| {
            *driver = None;
            Err(ClusterError::WorkerCrashed { shard })
        }))
    }

    /// Runs one shard job of per-request instruction segments, in order,
    /// collecting per-instruction results across all of them (a coalesced
    /// gateway group carries several requests in one job). Segment
    /// boundaries exist only for attribution: each segment's execution
    /// span and modeled cycles record against its request when telemetry
    /// is enabled, and a failed segment ends the job.
    ///
    /// # Errors
    ///
    /// See [`run_on`](PimCluster::run_on).
    pub(crate) fn run_segments(
        &self,
        shard: usize,
        segments: Vec<(RequestId, Vec<Instruction>)>,
    ) -> Result<ShardReply, ClusterError> {
        self.run_on(shard, true, |driver, journal| {
            let track = &self.shard_tracks[shard];
            let mut out = Vec::with_capacity(segments.iter().map(|(_, i)| i.len()).sum());
            let executed = segments
                .iter()
                .try_for_each(|(request, instrs)| {
                    execute_segment(driver, track, *request, instrs, &mut out)
                })
                .map_err(|source| ClusterError::Shard { shard, source });
            // Journal before returning: once the caller sees success, the
            // state that produced it must be recoverable.
            if let Some(j) = journal {
                if executed.is_ok() {
                    for (_, instrs) in segments {
                        if !instrs.is_empty() {
                            let weight = instrs.len();
                            j.record(JournalEntry::Instrs(instrs), weight);
                        }
                    }
                    j.maybe_checkpoint(driver);
                } else {
                    // The job died partway; a fresh snapshot absorbs
                    // whatever state exists instead of trying to journal
                    // a partial effect.
                    j.checkpoint(driver);
                }
            }
            executed.map(|()| out)
        })
    }
}
