//! Crash recovery: each shard's checkpoint + bounded replay journal, and
//! the revival that copies the checkpoint and replays the journal on it.

use super::shard::Step;
use super::PimCluster;
use crate::ClusterError;
use pim_driver::Driver;
use pim_sim::PimSimulator;
use std::sync::atomic::Ordering;

/// Take a fresh checkpoint once a shard has modeled at least this many
/// cycles since the last one.
pub const CHECKPOINT_INTERVAL_CYCLES: u64 = 1_000_000;

/// Take a fresh checkpoint once a shard's journal holds this many
/// instructions, whatever the cycle budget says — this bounds both journal
/// memory and worst-case replay latency. 1 024 instructions (~40 KiB) is
/// about a 4 x 64 chip's memory image.
pub const CHECKPOINT_MAX_INSTRUCTIONS: usize = 1024;

/// Shard crash-recovery policy: whether a crashed shard is revived.
///
/// Each shard's checkpoint is a copy of its whole driver: the chip, the
/// issued cycles and the masks the driver believes the chip holds.
/// Between checkpoints the shard keeps a bounded journal of executed jobs
/// ([`CHECKPOINT_INTERVAL_CYCLES`], [`CHECKPOINT_MAX_INSTRUCTIONS`]);
/// recovery copies the last checkpoint and replays the journal on it, so
/// a crash costs bounded replay latency instead of a dead cluster, and the
/// revived shard equals a shard that never crashed except for the replay,
/// which its cycles carry as a stall. Checkpointing is host-side only — it
/// never touches modeled state, so modeled cycle counts are bit-identical
/// with recovery on or off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Revive a crashed shard on its next job (on by default). When off,
    /// a crash leaves the shard permanently
    /// [`Disconnected`](ClusterError::Disconnected).
    pub enabled: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { enabled: true }
    }
}

/// One recoverable unit of shard work, recorded after it executed
/// successfully. Replaying the journal (in order, on a copy of the
/// checkpoint) reproduces the shard state at crash time.
pub(super) enum JournalEntry {
    /// One executed step of a job, run again as it ran (read words are
    /// recomputed and discarded on replay).
    Step(Step),
    /// A counter reset ([`reset_counters`]).
    Reset,
}

/// Starts a measurement region on one shard's driver: zeroes the chip's
/// profiler, the routine-cache hit/miss telemetry (compiled routines are
/// kept) and the issued-cycle counters. The live shard and journal replay
/// both call it, so a recovered shard cannot drift from one that never
/// crashed.
pub(super) fn reset_counters(driver: &mut Driver<PimSimulator>) {
    driver.backend_mut().reset_counters();
    driver.reset_counters();
}

/// A shard's checkpoint + bounded replay log: its jobs append and
/// periodically re-checkpoint, and revival replays the log on a copy of
/// the checkpoint.
pub(super) struct ShardJournal {
    /// The shard's driver as it was at the last checkpoint.
    checkpoint: Driver<PimSimulator>,
    log: Vec<JournalEntry>,
    /// Instructions and cells in `log` (checkpoint-size bound).
    logged_instrs: usize,
}

impl ShardJournal {
    /// A journal whose checkpoint is the driver's current state.
    pub(super) fn new(driver: &Driver<PimSimulator>) -> Self {
        ShardJournal {
            checkpoint: driver.clone(),
            log: Vec::new(),
            logged_instrs: 0,
        }
    }

    /// Appends one executed entry; a step weighs its instructions and
    /// cells ([`Step::weight`]).
    pub(super) fn record(&mut self, entry: JournalEntry) {
        if let JournalEntry::Step(step) = &entry {
            self.logged_instrs += step.weight();
        }
        self.log.push(entry);
    }

    /// Re-checkpoints: copies the driver's current state as the new
    /// checkpoint and clears the log.
    pub(super) fn checkpoint(&mut self, driver: &Driver<PimSimulator>) {
        *self = ShardJournal::new(driver);
    }

    /// Re-checkpoints if the journal outgrew its bounds.
    pub(super) fn maybe_checkpoint(&mut self, driver: &Driver<PimSimulator>) {
        let cycles = driver.backend().profiler().cycles;
        let baseline = self.checkpoint.backend().profiler().cycles;
        if self.logged_instrs >= CHECKPOINT_MAX_INSTRUCTIONS
            || cycles.saturating_sub(baseline) >= CHECKPOINT_INTERVAL_CYCLES
        {
            self.checkpoint(driver);
        }
    }

    /// Rebuilds the shard state at crash time: copies the checkpoint,
    /// replays the log in order, and charges the replayed span a second
    /// time as a stall. Returns the driver and the number of instructions
    /// and cells replayed.
    fn replay(&self) -> Result<(Driver<PimSimulator>, u64), String> {
        let mut driver = self.checkpoint.clone();
        let checkpoint_cycles = driver.backend().profiler().cycles;
        let mut replayed = 0u64;
        let failed = |e| format!("replay failed: {e}");
        for entry in &self.log {
            match entry {
                JournalEntry::Step(step) => {
                    step.run(&mut driver, &mut Vec::new()).map_err(failed)?;
                    replayed += step.weight() as u64;
                }
                JournalEntry::Reset => reset_counters(&mut driver),
            }
        }
        // Replay brings the profiler back to its pre-crash value, but on
        // the wall timeline the replayed span executed twice — once before
        // the crash (already counted, then rolled back with the checkpoint,
        // then re-counted by the replay) and once during recovery. Charge
        // the recovery pass as a stall so degraded runs model the real
        // throughput cost of a crash.
        let replay_span = driver
            .backend()
            .profiler()
            .cycles
            .saturating_sub(checkpoint_cycles);
        driver.backend_mut().stall(replay_span);
        Ok((driver, replayed))
    }
}

impl PimCluster {
    /// Brings a dead shard back: replays the journal on a copy of its
    /// checkpoint, re-checkpoints, and returns the driver for the shard's
    /// slot. The driver keeps the masks the replay left, as the shard that
    /// crashed had them. Called with the shard's slot lock held.
    ///
    /// # Errors
    ///
    /// [`Disconnected`](ClusterError::Disconnected) when recovery is
    /// disabled (no journal); [`RecoveryFailed`](ClusterError::RecoveryFailed)
    /// when replay fails (the shard stays down).
    pub(super) fn revive(
        &self,
        journal: Option<&mut ShardJournal>,
        shard: usize,
    ) -> Result<Driver<PimSimulator>, ClusterError> {
        let journal = journal.ok_or(ClusterError::Disconnected { shard })?;
        let (driver, replayed) = journal
            .replay()
            .map_err(|reason| ClusterError::RecoveryFailed { shard, reason })?;
        self.replayed.fetch_add(replayed, Ordering::Relaxed);
        // Fold the replayed suffix into a fresh checkpoint so a second
        // crash never replays the same work twice.
        journal.checkpoint(&driver);
        self.restarts.fetch_add(1, Ordering::Relaxed);
        Ok(driver)
    }
}
