//! Crash recovery: each shard's checkpoint + bounded replay journal, and
//! the revival that rebuilds a dead shard from them.

use super::shard::Step;
use super::PimCluster;
use crate::ClusterError;
use pim_driver::{Driver, IssuedCycles, ParallelismMode, RoutineCache};
use pim_sim::{PimSimulator, SimSnapshot};
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
/// Between checkpoints each shard keeps a bounded journal of executed
/// jobs ([`CHECKPOINT_INTERVAL_CYCLES`], [`CHECKPOINT_MAX_INSTRUCTIONS`]);
/// recovery restores the last backend snapshot ([`SimSnapshot`]) and
/// replays the journal suffix, so a crash costs bounded replay latency
/// instead of a dead cluster. Checkpointing is host-side only — it never
/// touches modeled state, so modeled cycle counts are bit-identical with
/// recovery on or off.
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
/// successfully. Replaying the journal (in order, on top of the
/// checkpoint snapshot) reproduces the shard state at crash time.
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
/// periodically re-checkpoint, and revival restores from it.
pub(super) struct ShardJournal {
    snapshot: SimSnapshot,
    issued: IssuedCycles,
    /// Profiler cycles at snapshot time (checkpoint-interval baseline).
    snapshot_cycles: u64,
    log: Vec<JournalEntry>,
    /// Instructions and cells in `log` (checkpoint-size bound).
    logged_instrs: usize,
}

impl ShardJournal {
    /// A journal whose checkpoint is the driver's current state.
    pub(super) fn new(driver: &Driver<PimSimulator>) -> Self {
        ShardJournal {
            snapshot: driver.backend().snapshot(),
            issued: driver.issued(),
            snapshot_cycles: driver.backend().profiler().cycles,
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

    /// Re-checkpoints: captures the driver's current state as the new
    /// snapshot and clears the log.
    pub(super) fn checkpoint(&mut self, driver: &Driver<PimSimulator>) {
        *self = ShardJournal::new(driver);
    }

    /// Re-checkpoints if the journal outgrew its bounds.
    pub(super) fn maybe_checkpoint(&mut self, driver: &Driver<PimSimulator>) {
        let cycles = driver.backend().profiler().cycles;
        if self.logged_instrs >= CHECKPOINT_MAX_INSTRUCTIONS
            || cycles.saturating_sub(self.snapshot_cycles) >= CHECKPOINT_INTERVAL_CYCLES
        {
            self.checkpoint(driver);
        }
    }

    /// Rebuilds the shard state at crash time on `backend`: restores the
    /// checkpoint, replays the log in order, and charges the replayed span
    /// a second time as a stall. Returns the driver and the number of
    /// instructions and cells replayed.
    fn replay(
        &self,
        mut backend: PimSimulator,
        mode: ParallelismMode,
        cache: RoutineCache,
    ) -> Result<(Driver<PimSimulator>, u64), String> {
        backend.restore(&self.snapshot);
        let mut driver = Driver::with_cache(backend, mode, cache);
        driver.restore_issued(self.issued);
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
        // the crash (already counted, then rolled back by the restore, then
        // re-counted by the replay) and once during recovery. Charge the
        // recovery pass as a stall so degraded runs model the real
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
    /// Brings a dead shard back: rebuilds its simulator from the journal's
    /// checkpoint, replays the journal suffix, re-checkpoints, and returns
    /// the rebuilt driver for the shard's slot. Called with the shard's
    /// slot lock held.
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
        let failed = |reason: String| ClusterError::RecoveryFailed { shard, reason };
        let backend =
            PimSimulator::new(self.shard_cfg.clone()).map_err(|e| failed(e.to_string()))?;
        let (mut driver, replayed) = journal
            .replay(backend, self.mode, self.shared_cache.share())
            .map_err(failed)?;
        self.replayed.fetch_add(replayed, Ordering::Relaxed);
        // Fold the replayed suffix into a fresh checkpoint so a second
        // crash never replays the same work twice.
        journal.checkpoint(&driver);
        driver.invalidate_masks();
        self.restarts.fetch_add(1, Ordering::Relaxed);
        Ok(driver)
    }
}
