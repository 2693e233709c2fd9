//! The shard worker: the job protocol, the state one shard owns
//! ([`ShardState`]), and [`run_job`], the one executor of that protocol.
//! A job reaches `run_job` over a channel drained by the shard's own
//! thread ([`spawn_worker`]), or by a direct call on the submitting
//! thread, under the shard's slot lock
//! ([`PimCluster::inline`](super::PimCluster::inline)). Journal, fault
//! consultation and drop-guard completion are the same code either way.

use super::journal::{Control, JournalEntry, RecoveryConfig, ShardJournal};
use super::stats::ShardStats;
use super::tickets::Completion;
use crate::ClusterError;
use pim_arch::{Backend, MicroOp};
use pim_driver::{Driver, DriverError};
use pim_fault::{FaultInjector, WorkerFault};
use pim_isa::Instruction;
use pim_sim::PimSimulator;
use pim_telemetry::{RequestId, RequestStats, TrackHandle};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

pub(super) enum Job {
    /// Execute macro-instruction segments in order, collecting
    /// per-instruction results (values for reads, `None` otherwise) across
    /// all segments. Segment boundaries exist only for telemetry — each
    /// segment's modeled cycles are attributed to its [`RequestId`];
    /// execution is one FIFO stream either way.
    Macro {
        segments: Vec<(RequestId, Vec<Instruction>)>,
        reply: Completion,
    },
    /// Execute a batch of raw micro-operations through the shard backend's
    /// [`pim_arch::Backend::execute_batch`] (subject to its no-read
    /// protocol).
    Micro {
        ops: Vec<MicroOp>,
        reply: Sender<Result<(), ClusterError>>,
    },
    Stats {
        reply: Sender<ShardStats>,
    },
    Control {
        op: Control,
        reply: Sender<()>,
    },
}

/// Everything one shard owns: its chip's driver, its `shard-{i}` trace
/// track, and its handles on the recovery journal and the fault schedule
/// ([`PimCluster::boot`](super::PimCluster) builds it, at construction and
/// on revival). Lives on the worker thread, or in the shard's slot on the
/// caller-thread transport.
pub(super) struct ShardState {
    pub(super) shard: usize,
    pub(super) driver: Driver<PimSimulator>,
    pub(super) track: TrackHandle,
    pub(super) journal: Option<Arc<Mutex<ShardJournal>>>,
    pub(super) fault: Option<Arc<FaultInjector>>,
    pub(super) recovery: RecoveryConfig,
}

/// Spawns one shard worker thread over `state`, returning its job channel
/// and join handle.
///
/// # Errors
///
/// [`RecoveryFailed`](ClusterError::RecoveryFailed) when the OS refuses a
/// thread.
pub(super) fn spawn_worker(
    mut state: ShardState,
) -> Result<(Sender<Job>, JoinHandle<()>), ClusterError> {
    let shard = state.shard;
    let (tx, rx) = channel();
    let handle = std::thread::Builder::new()
        .name(format!("pim-shard-{shard}"))
        .spawn(move || {
            while let Ok(job) = rx.recv() {
                if let Err(crashed) = run_job(&mut state, job) {
                    // The channel closes (taking every queued job with
                    // it) *before* the crashed job's reply guard delivers
                    // the error, so a client that retries the instant it
                    // sees `WorkerCrashed` hits the send-failure (revive)
                    // path deterministically instead of racing a
                    // half-dead queue.
                    drop(rx);
                    drop(crashed);
                    return;
                }
            }
        })
        .map_err(|e| ClusterError::RecoveryFailed {
            shard,
            reason: format!("cannot spawn the shard worker thread: {e}"),
        })?;
    Ok((tx, handle))
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

/// Runs one job on its shard, replying through the job's own handle.
///
/// # Errors
///
/// Hands an executable job back, untouched, when the fault schedule
/// crashes the shard on it — behaviorally identical to the worker
/// panicking there. The caller must take the shard down (close its
/// channel, or drop its state) *before* dropping the job, whose reply
/// guard then delivers [`ClusterError::WorkerCrashed`].
pub(super) fn run_job(state: &mut ShardState, job: Job) -> Result<(), Job> {
    // The fault hook, before an executable job: a stall charges modeled
    // cycles ahead of execution; a crash takes the shard down without
    // executing, exactly as a real worker death would.
    if matches!(job, Job::Macro { .. } | Job::Micro { .. }) {
        let fault = state.fault.as_ref();
        match fault.and_then(|f| f.worker_fault(state.shard)) {
            Some(WorkerFault::Crash) => return Err(job),
            Some(WorkerFault::Stall { cycles }) => state.driver.backend_mut().stall(cycles),
            None => {}
        }
    }
    let ShardState {
        shard,
        driver,
        track,
        journal,
        recovery,
        ..
    } = state;
    let shard = *shard;
    match job {
        Job::Macro { segments, reply } => {
            let mut out = Vec::with_capacity(segments.iter().map(|(_, i)| i.len()).sum());
            // Segment boundaries exist only for attribution; a failed
            // segment ends the job.
            let executed = segments
                .iter()
                .try_for_each(|(request, instrs)| {
                    execute_segment(driver, track, *request, instrs, &mut out)
                })
                .map_err(|source| ClusterError::Shard { shard, source });
            // Journal before replying: once the caller sees success,
            // the state that produced it must be recoverable.
            if let Some(journal) = journal {
                let mut j = journal.lock().unwrap_or_else(|e| e.into_inner());
                if executed.is_ok() {
                    for (_, instrs) in segments {
                        if !instrs.is_empty() {
                            let weight = instrs.len();
                            j.record(JournalEntry::Instrs(instrs), weight);
                        }
                    }
                    j.maybe_checkpoint(driver, recovery);
                } else {
                    // The job died partway; a fresh snapshot absorbs
                    // whatever state exists instead of trying to
                    // journal a partial effect.
                    j.checkpoint(driver);
                }
            }
            reply.complete(executed.map(|()| out));
        }
        Job::Micro { ops, reply } => {
            let result =
                driver
                    .backend_mut()
                    .execute_batch(&ops)
                    .map_err(|e| ClusterError::Shard {
                        shard,
                        source: DriverError::from(e),
                    });
            // Raw micro-operations may have changed the stored masks
            // behind the driver's mask-elision cache.
            driver.invalidate_masks();
            if let Some(journal) = journal {
                let mut j = journal.lock().unwrap_or_else(|e| e.into_inner());
                if result.is_ok() {
                    let weight = ops.len();
                    j.record(JournalEntry::Micro(ops), weight);
                    j.maybe_checkpoint(driver, recovery);
                } else {
                    // Refused at validation, the batch changed nothing; one
                    // that broke the strict discipline stopped at the
                    // offending gate, charged whole. As for a macro job, a
                    // fresh snapshot absorbs whichever state exists.
                    j.checkpoint(driver);
                }
            }
            let _ = reply.send(result);
        }
        Job::Stats { reply } => {
            let (cache_hits, cache_misses) = driver.cache_stats();
            let _ = reply.send(ShardStats {
                shard,
                profiler: driver.backend().profiler().clone(),
                issued: driver.issued(),
                cache_hits,
                cache_misses,
            });
        }
        Job::Control { op, reply } => {
            op.apply(driver);
            if let Some(journal) = journal {
                let mut j = journal.lock().unwrap_or_else(|e| e.into_inner());
                j.record(JournalEntry::Control(op), 0);
            }
            let _ = reply.send(());
        }
    }
    Ok(())
}
