//! The sharded execution engine: one host-driver + simulated-chip pair per
//! shard, fed batched jobs — over a channel to the shard's own worker
//! thread, or run on the submitting thread ([`PimCluster::inline`]). This
//! file holds the cluster itself — options, construction, the job
//! transports and their supervision hook; the submodules hold the tickets
//! clients wait on, the recovery journal, the shard state and its one job
//! executor, the one routing-and-submission path, and the statistics.

mod journal;
mod stats;
mod submit;
mod tickets;
mod worker;

pub use journal::RecoveryConfig;
pub use stats::{ClusterStats, ShardStats};
pub use submit::{GlobalLoc, GlobalWrite, TaggedBatch};
pub use tickets::{GatherTicket, JobSet, JobTicket};

use crate::{ClusterError, Interconnect, InterconnectConfig, ShardPlan};
use journal::{Control, ShardJournal};
use pim_arch::{MicroOp, PimConfig};
use pim_driver::{Driver, DriverError, ParallelismMode, RoutineCache};
use pim_fault::FaultInjector;
use pim_func::BackendKind;
use pim_sim::PimSimulator;
use pim_telemetry::{Gauge, Telemetry, TrackHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use worker::{run_job, spawn_worker, Job, ShardState};

/// Read by nothing: every shard runs [`PimSimulator`]. The name and its
/// one variant stay for `benchmark/src/workload/ladder.rs`, which still
/// fills [`ClusterOptions::backends`] with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardBackends {
    /// The only value.
    Uniform(BackendKind),
}

impl Default for ShardBackends {
    fn default() -> Self {
        ShardBackends::Uniform(BackendKind::BitAccurate)
    }
}

/// Everything configurable about a cluster, bundled so call sites name
/// only what they change ([`PimCluster::with_options`]).
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Driver parallelism mode for every shard.
    pub mode: ParallelismMode,
    /// Chip-to-chip interconnect model: the link width/latency set the
    /// modeled cycle cost of cross-chip transfers
    /// ([`TrafficStats`](crate::TrafficStats)).
    pub interconnect: InterconnectConfig,
    /// Telemetry handle the cluster records into: each shard worker gets
    /// its own `shard-{i}` trace track (spans on the shard's modeled cycle
    /// timeline, attributed per request), and host-staged interconnect
    /// bursts record onto `cluster/interconnect`. The handle may be shared
    /// with (and flipped on/off by) the layers above; recording never
    /// affects execution.
    pub telemetry: Telemetry,
    /// Crash-recovery policy.
    pub recovery: RecoveryConfig,
    /// Deterministic fault injection schedule. `None` (the default) means
    /// the injector hooks are never consulted — zero cost, bit-identical
    /// to a build without the fault machinery.
    pub fault: Option<Arc<FaultInjector>>,
    /// Never read; see [`ShardBackends`].
    pub backends: ShardBackends,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            mode: ParallelismMode::default(),
            interconnect: InterconnectConfig::default(),
            telemetry: Telemetry::disabled(),
            recovery: RecoveryConfig::default(),
            fault: None,
            backends: ShardBackends::default(),
        }
    }
}

/// One shard's supervision state: how jobs reach the shard right now —
/// the worker's channel and thread, or, on the caller-thread transport,
/// the [`ShardState`] itself (a job then runs under this slot's lock).
/// Neither a channel nor a state: the shard is down. Behind a `Mutex` so
/// the supervisor can swap in a rebuilt shard from any client thread
/// ([`PimCluster::send`] detects death and revives in place).
#[derive(Default)]
struct WorkerSlot {
    tx: Option<Sender<Job>>,
    handle: Option<JoinHandle<()>>,
    state: Option<ShardState>,
}

impl WorkerSlot {
    /// Hands `job` to the shard over whichever transport is up, giving it
    /// back when the shard is down.
    fn deliver(&mut self, job: Job) -> Result<(), Job> {
        if let Some(state) = &mut self.state {
            if let Err(crashed) = run_job(state, job) {
                // The shard goes down before the crashed job's reply
                // guard reports it, as on the threaded transport.
                self.state = None;
                drop(crashed);
            }
            return Ok(());
        }
        match &self.tx {
            // `SendError` hands the unsent job back.
            Some(tx) => tx.send(job).map_err(|failed| failed.0),
            None => Err(job),
        }
    }

    /// Joins the worker thread, if there is one and it is not the calling
    /// thread. A worker's completion wake (or a crashing worker's
    /// completion guards) runs a client's waker on the worker itself — the
    /// serving gateway finishes a group there, which may drop the last
    /// handle onto the cluster — and joining oneself deadlocks. Such a
    /// thread is past its last touch of shard state and exits once the
    /// caller returns, so detaching it is safe.
    fn reap(&mut self) {
        if let Some(h) = self.handle.take() {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}

/// A sharded multi-chip PIM execution engine.
///
/// `N` shards, each a [`Driver`] over its own chip ([`PimSimulator`],
/// strict checking on), present one flat address space of
/// `N × crossbars` warps. A shard runs its jobs on a dedicated worker
/// thread ([`new`](PimCluster::new),
/// [`with_options`](PimCluster::with_options)) or on whichever thread
/// submits them ([`inline`](PimCluster::inline)); routing, journaling,
/// fault injection and recovery are the same code on both. Logical
/// instructions addressed to global warps are split along shard boundaries (see [`ShardPlan`]) and stream to all
/// affected shards concurrently; inter-warp moves that cross a chip
/// boundary go over a modeled chip-to-chip [`Interconnect`]: crossing word
/// pairs are batched into one message per `(source, destination)` shard
/// pair, charged a configurable per-link cycle cost, and only the shards a
/// transfer touches are drained — untouched shards keep streaming (the
/// drain rule; see the crate-level docs).
///
/// All methods take `&self`; the cluster may be driven from many client
/// threads at once (each shard serializes its own jobs: a FIFO channel, or
/// its slot lock).
///
/// # Example
///
/// ```
/// use pim_arch::PimConfig;
/// use pim_cluster::PimCluster;
/// use pim_isa::{Instruction, ThreadRange};
///
/// # fn main() -> Result<(), pim_cluster::ClusterError> {
/// let cluster = PimCluster::new(PimConfig::small().with_crossbars(4), 4)?;
/// assert_eq!(cluster.logical_config().crossbars, 16);
///
/// // Write to a warp on shard 2 through the flat address space.
/// cluster.execute(&Instruction::Write {
///     reg: 0,
///     value: 42,
///     target: ThreadRange::single(9, 5),
/// })?;
/// let got = cluster.execute(&Instruction::Read { reg: 0, warp: 9, row: 5 })?;
/// assert_eq!(got, Some(42));
/// # Ok(())
/// # }
/// ```
pub struct PimCluster {
    plan: ShardPlan,
    shard_cfg: PimConfig,
    logical_cfg: PimConfig,
    interconnect: Interconnect,
    workers: Vec<Mutex<WorkerSlot>>,
    /// Caller-thread transport: a shard's state lives in its slot and jobs
    /// run at [`send`](PimCluster::send) instead of on a worker thread.
    inline: bool,
    /// Per-shard checkpoint + replay journals; `None` when recovery is
    /// disabled (no snapshot memory, no journaling work).
    journals: Vec<Option<Arc<Mutex<ShardJournal>>>>,
    telemetry: Telemetry,
    /// Each shard's `shard-{i}` trace track (a revived shard keeps its own).
    shard_tracks: Vec<TrackHandle>,
    /// Trace track of host-staged interconnect bursts.
    ic_track: TrackHandle,
    /// `cluster.jobs_inflight` — macro jobs queued to or executing on
    /// shard workers (the source-level queue/in-flight gauge).
    jobs_inflight: Gauge,
    mode: ParallelismMode,
    shared_cache: RoutineCache,
    recovery: RecoveryConfig,
    fault: Option<Arc<FaultInjector>>,
    /// Workers respawned after a crash.
    restarts: AtomicU64,
    /// Instructions replayed from journals during recovery.
    replayed: AtomicU64,
}

impl std::fmt::Debug for PimCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PimCluster")
            .field("shards", &self.plan.shards())
            .field("shard_config", &self.shard_cfg)
            .finish()
    }
}

impl PimCluster {
    /// Spawns a cluster of `shards` chips of geometry `cfg` with the default
    /// (partition-parallel) driver mode.
    ///
    /// # Errors
    ///
    /// Returns an error for a zero shard count or an invalid configuration,
    /// or when the OS refuses a worker thread.
    pub fn new(cfg: PimConfig, shards: usize) -> Result<Self, ClusterError> {
        PimCluster::with_options(cfg, shards, ClusterOptions::default())
    }

    /// Spawns a cluster from a full [`ClusterOptions`] bundle. This is
    /// where the interconnect model, crash recovery ([`RecoveryConfig`])
    /// and deterministic fault injection ([`FaultInjector`]) are
    /// configured.
    ///
    /// Each shard backend executes on its worker's thread alone —
    /// parallelism comes from the shard workers themselves.
    ///
    /// Every shard driver receives a [`RoutineCache::share`] of one
    /// cluster-wide compilation map: a routine compiles once per cluster
    /// (the first shard to need it misses; the rest hit), while hit/miss
    /// telemetry stays per shard in [`ShardStats`].
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidInterconnect`] for an unusable link
    /// model, plus everything [`new`](PimCluster::new) returns.
    pub fn with_options(
        cfg: PimConfig,
        shards: usize,
        options: ClusterOptions,
    ) -> Result<Self, ClusterError> {
        PimCluster::build(cfg, shards, options, false)
    }

    /// [`with_options`](PimCluster::with_options) without the threads: a
    /// job runs on the thread that submits it, before the submission
    /// returns, so every ticket is born complete and shards execute in the
    /// order the scheduler launches them. One client thread therefore
    /// replays to the same counters and memory image every time, seeded
    /// faults included; shards no longer overlap on the wall clock, and
    /// modeled cycles are the threaded cluster's.
    ///
    /// # Errors
    ///
    /// See [`with_options`](PimCluster::with_options).
    pub fn inline(
        cfg: PimConfig,
        shards: usize,
        options: ClusterOptions,
    ) -> Result<Self, ClusterError> {
        PimCluster::build(cfg, shards, options, true)
    }

    fn build(
        cfg: PimConfig,
        shards: usize,
        options: ClusterOptions,
        inline: bool,
    ) -> Result<Self, ClusterError> {
        let (icfg, telemetry) = (options.interconnect, options.telemetry);
        icfg.validate()
            .map_err(|reason| ClusterError::InvalidInterconnect { reason })?;
        let mut cluster = PimCluster {
            plan: ShardPlan::new(&cfg, shards)?,
            logical_cfg: cfg.clone().with_crossbars(cfg.crossbars * shards),
            shard_cfg: cfg,
            interconnect: Interconnect::new(icfg),
            workers: Vec::with_capacity(shards),
            inline,
            journals: Vec::with_capacity(shards),
            shard_tracks: (0..shards)
                .map(|shard| telemetry.track(&format!("shard-{shard}")))
                .collect(),
            ic_track: telemetry.track("cluster/interconnect"),
            jobs_inflight: telemetry.metrics().gauge("cluster.jobs_inflight"),
            telemetry,
            mode: options.mode,
            shared_cache: RoutineCache::new(),
            recovery: options.recovery,
            fault: options.fault,
            restarts: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
        };
        for shard in 0..shards {
            let backend =
                PimSimulator::new(cluster.shard_cfg.clone()).map_err(|e| ClusterError::Shard {
                    shard,
                    source: DriverError::from(e),
                })?;
            let driver = Driver::with_cache(backend, cluster.mode, cluster.shared_cache.share());
            let journal = (cluster.recovery.enabled)
                .then(|| Arc::new(Mutex::new(ShardJournal::new(&driver))));
            cluster.journals.push(journal);
            let slot = cluster.boot(shard, driver)?;
            cluster.workers.push(Mutex::new(slot));
        }
        Ok(cluster)
    }

    /// Puts `driver` to work as shard `shard` on this cluster's transport:
    /// its [`ShardState`] goes into the returned slot, or to a freshly
    /// spawned worker thread. Construction and revival both end here.
    fn boot(&self, shard: usize, driver: Driver<PimSimulator>) -> Result<WorkerSlot, ClusterError> {
        let state = ShardState {
            shard,
            driver,
            track: self.shard_tracks[shard].clone(),
            journal: self.journals[shard].clone(),
            fault: self.fault.clone(),
            recovery: self.recovery.clone(),
        };
        let mut slot = WorkerSlot::default();
        if self.inline {
            slot.state = Some(state);
        } else {
            let (tx, handle) = spawn_worker(state)?;
            (slot.tx, slot.handle) = (Some(tx), Some(handle));
        }
        Ok(slot)
    }

    /// The telemetry handle this cluster records into (disabled by default;
    /// see [`ClusterOptions::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The modeled chip-to-chip interconnect (configuration and live
    /// traffic counters).
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// Number of shards (chips).
    pub fn shards(&self) -> usize {
        self.plan.shards()
    }

    /// The partition plan mapping global warps/elements to shards.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Geometry of each individual chip.
    pub fn shard_config(&self) -> &PimConfig {
        &self.shard_cfg
    }

    /// The aggregate geometry the cluster presents: the per-chip
    /// configuration with `shards × crossbars` warps.
    pub fn logical_config(&self) -> &PimConfig {
        &self.logical_cfg
    }

    /// Hands one job to a shard — queued to its worker thread, or run here
    /// and now on the caller-thread transport — reviving the shard first if
    /// it is down (crashed, or fault-injected to crash). The fast path is
    /// one uncontended lock and a channel send, or the job itself.
    fn send(&self, shard: usize, job: Job) -> Result<(), ClusterError> {
        let slot = self.workers.get(shard).ok_or(ClusterError::ShardIndex {
            shard,
            shards: self.workers.len(),
        })?;
        let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
        let Err(job) = slot.deliver(job) else {
            return Ok(());
        };
        self.revive(&mut slot, shard)?;
        slot.deliver(job)
            .map_err(|_| ClusterError::WorkerCrashed { shard })
    }

    /// The fault injector this cluster consults, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.as_ref()
    }

    /// Shard workers respawned after a crash so far.
    pub fn worker_restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Instructions/micro-operations replayed from journals during
    /// recovery so far.
    pub fn replayed_instructions(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Executes a batch of raw micro-operations on one shard through the
    /// backend's [`pim_arch::Backend::execute_batch`] — the multi-chip
    /// equivalent of direct micro-operation access. Subject to the same
    /// protocol: batches must not contain reads.
    ///
    /// # Errors
    ///
    /// Returns shard and protocol errors.
    pub fn execute_micro_batch(&self, shard: usize, ops: Vec<MicroOp>) -> Result<(), ClusterError> {
        let (reply, rx) = channel();
        self.send(shard, Job::Micro { ops, reply })?;
        // A dropped reply sender means the worker died with the job queued
        // or in flight — typed and transient, never a panic.
        rx.recv()
            .unwrap_or(Err(ClusterError::WorkerCrashed { shard }))
    }

    /// Sends one job per shard and collects the replies, in shard order.
    fn broadcast<R: Send + 'static>(
        &self,
        make: impl Fn(Sender<R>) -> Job,
    ) -> Result<Vec<R>, ClusterError> {
        let mut rxs = Vec::with_capacity(self.shards());
        for shard in 0..self.shards() {
            let (reply, rx) = channel();
            self.send(shard, make(reply))?;
            rxs.push((shard, rx));
        }
        rxs.into_iter()
            .map(|(shard, rx)| rx.recv().map_err(|_| ClusterError::WorkerCrashed { shard }))
            .collect()
    }

    /// Snapshots per-shard telemetry (profiler, issued cycles, routine-cache
    /// hit/miss counters).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Disconnected`] if a worker died.
    pub fn stats(&self) -> Result<ClusterStats, ClusterError> {
        Ok(ClusterStats {
            shards: self.broadcast(|reply| Job::Stats { reply })?,
            traffic: self.interconnect.traffic(),
            worker_restarts: self.worker_restarts(),
            replayed_instructions: self.replayed_instructions(),
        })
    }

    /// Resets every shard simulator's profiling counters, along with the
    /// interconnect's traffic counters and every shard driver's
    /// routine-cache hit/miss telemetry (chip cycles, link cycles, and
    /// cache hit rates bound the same measurement region; compiled
    /// routines themselves are kept).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Disconnected`] if a worker died.
    pub fn reset_profilers(&self) -> Result<(), ClusterError> {
        self.interconnect.reset();
        self.control(Control::ResetProfiler)
    }

    /// Resets every shard driver's issued-cycle counters.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Disconnected`] if a worker died.
    pub fn reset_issued(&self) -> Result<(), ClusterError> {
        self.control(Control::ResetIssued)
    }

    /// Enables/disables strict stateful-logic checking on every shard.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Disconnected`] if a worker died.
    pub fn set_strict(&self, strict: bool) -> Result<(), ClusterError> {
        self.control(Control::SetStrict(strict))
    }

    /// Applies `op` on every shard (journaled, so a revived shard has it).
    fn control(&self, op: Control) -> Result<(), ClusterError> {
        self.broadcast(|reply| Job::Control { op, reply })?;
        Ok(())
    }
}

impl Drop for PimCluster {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops; then reap the threads.
        for w in &mut self.workers {
            w.get_mut().unwrap_or_else(|e| e.into_inner()).tx = None;
        }
        for w in &mut self.workers {
            w.get_mut().unwrap_or_else(|e| e.into_inner()).reap();
        }
    }
}

#[cfg(test)]
mod tests;
