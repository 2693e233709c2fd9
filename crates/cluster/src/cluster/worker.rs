//! The shard worker: the job protocol, the thread that owns one chip's
//! driver, and the tagged-segment executor it shares with the single-chip
//! device.

use super::journal::{Control, JournalEntry, RecoveryConfig, ShardJournal};
use super::stats::ShardStats;
use super::tickets::Completion;
use crate::ClusterError;
use pim_arch::{Backend, MicroOp};
use pim_driver::{Driver, DriverError};
use pim_fault::{FaultInjector, WorkerFault};
use pim_func::AnyBackend;
use pim_isa::Instruction;
use pim_telemetry::{RequestId, RequestStats, Telemetry, TrackHandle};
use std::sync::mpsc::{channel, Receiver, Sender};
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

/// Spawns one shard worker thread over `driver`, returning its job
/// channel and join handle. Used both at construction and by the
/// supervisor when it respawns a crashed worker.
///
/// # Errors
///
/// [`RecoveryFailed`](ClusterError::RecoveryFailed) when the OS refuses a
/// thread.
pub(super) fn spawn_worker(
    shard: usize,
    driver: Driver<AnyBackend>,
    telemetry: &Telemetry,
    journal: Option<Arc<Mutex<ShardJournal>>>,
    fault: Option<Arc<FaultInjector>>,
    recovery: RecoveryConfig,
) -> Result<(Sender<Job>, JoinHandle<()>), ClusterError> {
    let track = telemetry.track(&format!("shard-{shard}"));
    let (tx, rx) = channel();
    let handle = std::thread::Builder::new()
        .name(format!("pim-shard-{shard}"))
        .spawn(move || run_worker(shard, driver, rx, track, journal, fault, recovery))
        .map_err(|e| ClusterError::RecoveryFailed {
            shard,
            reason: format!("cannot spawn the shard worker thread: {e}"),
        })?;
    Ok((tx, handle))
}

/// Executes one request's instruction segment on `driver`, appending one
/// result per instruction to `out` — the unit of attribution shared by the
/// shard workers (`track` = `shard-{i}`) and the single-chip device
/// (`chip-0`). When telemetry is recording, the chip's own profiler cycle
/// counter is the track's timeline: the segment becomes an `exec` span
/// covering exactly the cycles its instructions consumed, the global clock
/// advances past it, and the cycles attribute to `request`. Gated on one
/// relaxed load when telemetry is disabled.
///
/// # Errors
///
/// Fails on the first erroring instruction ([`Driver::execute_many`]);
/// nothing is recorded for a failed segment.
// Inlined so the worker loop keeps `execute_many` in one body, as it had
// before this function was shared (out of line: ~2 % on `serve_crossing`).
#[inline]
pub fn execute_segment<O: Extend<Option<u32>>>(
    driver: &mut Driver<AnyBackend>,
    track: &TrackHandle,
    request: RequestId,
    instrs: &[Instruction],
    out: &mut O,
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

/// Consults the fault injector before an executable job. An injected
/// crash makes the worker exit without executing (the job's completion
/// drop guard delivers [`ClusterError::WorkerCrashed`], exactly as a real
/// worker death would); a stall charges modeled cycles before execution.
/// Returns `true` when the worker must die.
fn injected_crash(
    fault: &Option<Arc<FaultInjector>>,
    shard: usize,
    driver: &mut Driver<AnyBackend>,
) -> bool {
    match fault.as_ref().and_then(|f| f.worker_fault(shard)) {
        Some(WorkerFault::Crash) => true,
        Some(WorkerFault::Stall { cycles }) => {
            driver.backend_mut().stall(cycles);
            false
        }
        None => false,
    }
}

#[allow(clippy::needless_pass_by_value)]
fn run_worker(
    shard: usize,
    mut driver: Driver<AnyBackend>,
    rx: Receiver<Job>,
    track: TrackHandle,
    journal: Option<Arc<Mutex<ShardJournal>>>,
    fault: Option<Arc<FaultInjector>>,
    recovery: RecoveryConfig,
) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Macro { segments, reply } => {
                // Fault hook: an injected crash drops `reply` (and every
                // queued job behind it) on the floor — behaviorally
                // identical to the worker thread panicking here. The
                // channel closes *before* the reply guard delivers the
                // error, so a client that retries the instant it sees
                // `WorkerCrashed` hits the send-failure (revive) path
                // deterministically instead of racing a half-dead queue.
                if injected_crash(&fault, shard, &mut driver) {
                    drop(rx);
                    return;
                }
                let mut out = Vec::with_capacity(segments.iter().map(|(_, i)| i.len()).sum());
                // Segment boundaries exist only for attribution; a failed
                // segment ends the job.
                let executed = segments
                    .iter()
                    .try_for_each(|(request, instrs)| {
                        execute_segment(&mut driver, &track, *request, instrs, &mut out)
                    })
                    .map_err(|source| ClusterError::Shard { shard, source });
                // Journal before replying: once the caller sees success,
                // the state that produced it must be recoverable.
                if let Some(journal) = &journal {
                    let mut j = journal.lock().unwrap_or_else(|e| e.into_inner());
                    if executed.is_ok() {
                        for (_, instrs) in segments {
                            if !instrs.is_empty() {
                                let weight = instrs.len();
                                j.record(JournalEntry::Instrs(instrs), weight);
                            }
                        }
                        j.maybe_checkpoint(&driver, &recovery);
                    } else {
                        // The job died partway; a fresh snapshot absorbs
                        // whatever state exists instead of trying to
                        // journal a partial effect.
                        j.checkpoint(&driver);
                    }
                }
                reply.complete(executed.map(|()| out));
            }
            Job::Micro { ops, reply } => {
                if injected_crash(&fault, shard, &mut driver) {
                    drop(rx);
                    return;
                }
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
                if let Some(journal) = &journal {
                    // A failed micro batch rolled back completely
                    // (`execute_batch` is transactional), so only
                    // successes are journaled.
                    if result.is_ok() {
                        let mut j = journal.lock().unwrap_or_else(|e| e.into_inner());
                        let weight = ops.len();
                        j.record(JournalEntry::Micro(ops), weight);
                        j.maybe_checkpoint(&driver, &recovery);
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
                op.apply(&mut driver);
                if let Some(journal) = &journal {
                    let mut j = journal.lock().unwrap_or_else(|e| e.into_inner());
                    j.record(JournalEntry::Control(op), 0);
                }
                let _ = reply.send(());
            }
        }
    }
}
