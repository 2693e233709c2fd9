//! One shard: its slot (the chip's driver while the shard is up, and the
//! recovery journal that outlives a crash), [`PimCluster::run_on`] — the
//! one point every job is delivered through — and the one shape of job
//! that executes: per-request segments of steps, each step a run of
//! instructions or of cells. A job runs on the thread that submits it,
//! under the slot's lock; journal, fault consultation and panic isolation
//! are applied there once for every job.

use super::journal::{JournalEntry, ShardJournal};
use super::PimCluster;
use crate::ClusterError;
use pim_arch::{CellRun, RegId, RowId, XbId};
use pim_driver::{Driver, DriverError};
use pim_fault::WorkerFault;
use pim_isa::Instruction;
use pim_sim::PimSimulator;
use pim_telemetry::{RequestId, RequestStats, TrackHandle};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Everything one shard owns. Behind a `Mutex` in
/// [`PimCluster`], so any client thread can run a job on it or revive it.
pub(super) struct ShardSlot {
    /// The shard's chip; `None` while the shard is down (a crash dropped
    /// it) until the next job revives it from `journal`.
    pub(super) driver: Option<Driver<PimSimulator>>,
    /// Checkpoint + replay log; `None` when recovery is disabled.
    pub(super) journal: Option<ShardJournal>,
}

/// Cells for one shard, all written or all read, in order: its part of a
/// scatter or a gather, or a request's run of single-thread writes. They
/// are cut into runs of one local warp and register each and handed to
/// the driver run by run ([`Driver::issue_run`]) rather than as one
/// instruction per cell.
#[derive(Debug)]
pub(crate) struct CellJob {
    /// `(warp, register, cells)` of each run, in order.
    runs: Vec<(XbId, RegId, usize)>,
    /// The row of every cell.
    rows: Vec<RowId>,
    /// The word of every cell of a scatter; `None` for a gather.
    values: Option<Vec<u32>>,
}

impl CellJob {
    /// An empty job with room for `cells` cells, writing or (`!write`)
    /// reading.
    pub(crate) fn with_capacity(cells: usize, write: bool) -> Self {
        CellJob {
            runs: Vec::new(),
            rows: Vec::with_capacity(cells),
            values: write.then(|| Vec::with_capacity(cells)),
        }
    }

    /// Appends one cell; `value` is `Some` exactly for a scatter's.
    pub(crate) fn push(&mut self, warp: XbId, reg: RegId, row: RowId, value: Option<u32>) {
        match self.runs.last_mut() {
            Some((w, r, cells)) if (*w, *r) == (warp, reg) => *cells += 1,
            _ => self.runs.push((warp, reg, 1)),
        }
        self.rows.push(row);
        if let (Some(values), Some(value)) = (&mut self.values, value) {
            values.push(value);
        }
    }

    /// The cells in the job.
    pub(super) fn cells(&self) -> usize {
        self.rows.len()
    }

    /// Executes the job on `driver`, appending the word of each read to
    /// `words`.
    ///
    /// # Errors
    ///
    /// Fails on the first run the driver refuses, with the runs before it
    /// executed.
    fn run(
        &self,
        driver: &mut Driver<PimSimulator>,
        words: &mut Vec<u32>,
    ) -> Result<(), DriverError> {
        let mut at = 0;
        for &(warp, reg, cells) in &self.runs {
            let rows = &self.rows[at..at + cells];
            let values = self.values.as_ref().map(|v| &v[at..at + cells]);
            driver.issue_run(warp, &CellRun { reg, rows, values }, words)?;
            at += cells;
        }
        Ok(())
    }
}

/// One step of a shard job, and of the shard's journal, which replays the
/// steps it holds exactly as they ran.
#[derive(Debug)]
pub(crate) enum Step {
    /// Shard-local instructions, through [`Driver::execute_many`].
    Instrs(Vec<Instruction>),
    /// Cells, through [`Driver::issue_run`] run by run.
    Cells(CellJob),
}

/// One request's part of a shard job: its steps, in program order.
pub(crate) type Segment = (RequestId, Vec<Step>);

impl Step {
    /// The step's instructions, or its cells: what it weighs in an `exec`
    /// span and in the journal (a cell weighs one, as the instruction it
    /// stands for).
    pub(super) fn weight(&self) -> usize {
        match self {
            Step::Instrs(instrs) => instrs.len(),
            Step::Cells(job) => job.cells(),
        }
    }

    /// The words the step reads.
    fn reads(&self) -> usize {
        match self {
            Step::Cells(job) if job.values.is_none() => job.cells(),
            _ => 0,
        }
    }

    /// Executes the step on `driver`, appending the word of each read to
    /// `words`.
    ///
    /// # Errors
    ///
    /// Fails on the first instruction or run the driver refuses, with the
    /// ones before it executed.
    pub(super) fn run(
        &self,
        driver: &mut Driver<PimSimulator>,
        words: &mut Vec<u32>,
    ) -> Result<(), DriverError> {
        match self {
            Step::Instrs(instrs) => driver.execute_many(instrs, words),
            Step::Cells(job) => job.run(driver, words),
        }
    }
}

/// Executes one unit of `request`'s work on `driver` — `instructions`
/// instructions and cells — the unit of attribution on every device, one
/// chip or many (`track` = `shard-{i}`). When telemetry is recording, the
/// chip's own profiler cycle counter is the track's timeline: the unit
/// becomes an `exec` span covering exactly the cycles it consumed, the
/// global clock advances past it, and the cycles attribute to `request`.
/// Gated on one relaxed load when telemetry is disabled.
///
/// # Errors
///
/// Returns `exec`'s error; nothing is recorded for a failed unit.
fn execute_recorded(
    driver: &mut Driver<PimSimulator>,
    track: &TrackHandle,
    request: RequestId,
    instructions: usize,
    exec: impl FnOnce(&mut Driver<PimSimulator>) -> Result<(), DriverError>,
) -> Result<(), DriverError> {
    let recording = track.is_enabled();
    let before = if recording {
        driver.backend().profiler().cycles
    } else {
        0
    };
    exec(driver)?;
    if recording {
        let cycles = driver.backend().profiler().cycles.saturating_sub(before);
        let telemetry = track.telemetry();
        // Anchor at the later of the global clock and the chip's profiler
        // total: identical to charging absolute profiler cycles while the
        // clock only ever moved through execution, but when a driver has
        // jumped the clock ahead (open-loop load generation, retry backoff)
        // the unit occupies `[now, now + cycles)` instead of charging
        // nothing.
        let start = telemetry.now().max(before);
        let instructions = instructions as u64;
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

/// Journals a job once it has run: the steps it executed, when it
/// succeeded (once the caller sees success, the state that produced it
/// must be recoverable), or a fresh checkpoint that absorbs whatever state
/// a job that died partway left, instead of journaling a partial effect.
fn settle(
    journal: Option<&mut ShardJournal>,
    driver: &Driver<PimSimulator>,
    executed: bool,
    steps: impl IntoIterator<Item = Step>,
) {
    let Some(j) = journal else {
        return;
    };
    if !executed {
        j.checkpoint(driver);
        return;
    }
    for step in steps {
        j.record(JournalEntry::Step(step));
    }
    j.maybe_checkpoint(driver);
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
    /// The job's own error; [`WorkerCrashed`](ClusterError::WorkerCrashed)
    /// when it crashed the shard (the next job revives it from the
    /// journal); [`ShardIndex`](ClusterError::ShardIndex), or
    /// [`Disconnected`](ClusterError::Disconnected) /
    /// [`RecoveryFailed`](ClusterError::RecoveryFailed) for a shard that is
    /// down and cannot be revived. Each is this one job's error: a caller
    /// running several jobs treats them all alike.
    pub(super) fn run_on<R>(
        &self,
        shard: usize,
        executable: bool,
        job: impl FnOnce(
            &mut Driver<PimSimulator>,
            Option<&mut ShardJournal>,
        ) -> Result<R, ClusterError>,
    ) -> Result<R, ClusterError> {
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
        reply.unwrap_or_else(|| {
            *driver = None;
            Err(ClusterError::WorkerCrashed { shard })
        })
    }

    /// Runs one shard job — per-request segments of steps, in order — and
    /// returns the word of every read it made (none for a batch). Segment
    /// boundaries exist only for attribution: each segment's execution
    /// span and modeled cycles record against its request when telemetry
    /// is enabled (a scatter's or a gather's cells are one untagged
    /// segment), and a failed segment ends the job.
    ///
    /// # Errors
    ///
    /// See [`run_on`](PimCluster::run_on).
    pub(crate) fn run_job(
        &self,
        shard: usize,
        job: Vec<Segment>,
    ) -> Result<Vec<u32>, ClusterError> {
        self.run_on(shard, true, |driver, journal| {
            let track = &self.shard_tracks[shard];
            let reads = job.iter().flat_map(|(_, steps)| steps).map(Step::reads);
            let mut words = Vec::with_capacity(reads.sum());
            let executed = job
                .iter()
                .try_for_each(|(request, steps)| {
                    let weight = steps.iter().map(Step::weight).sum();
                    execute_recorded(driver, track, *request, weight, |driver| {
                        steps
                            .iter()
                            .try_for_each(|step| step.run(driver, &mut words))
                    })
                })
                .map_err(|source| ClusterError::Shard { shard, source });
            let steps = job.into_iter().flat_map(|(_, steps)| steps);
            settle(journal, driver, executed.is_ok(), steps);
            executed.map(|()| words)
        })
    }
}
