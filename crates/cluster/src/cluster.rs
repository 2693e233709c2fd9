//! The sharded execution engine: one host-driver + simulated-chip pair per
//! shard, fed batched jobs that run on the submitting thread. This file
//! holds the cluster itself — options, construction and the shard-wide
//! jobs; the submodules hold the recovery journal, the shard slot with its
//! one delivery point and its jobs, the one routing-and-submission path,
//! and the statistics.

mod journal;
mod shard;
mod stats;
mod submit;

pub use journal::{RecoveryConfig, CHECKPOINT_INTERVAL_CYCLES, CHECKPOINT_MAX_INSTRUCTIONS};
pub use stats::{ClusterStats, ShardStats};
pub use submit::{GlobalLoc, GlobalWrite, JobSet, TaggedBatch};

use crate::{ClusterError, Interconnect, InterconnectConfig, ShardPlan};
use journal::{JournalEntry, ShardJournal};
use pim_arch::PimConfig;
use pim_driver::{Driver, DriverError, ParallelismMode, RoutineCache};
use pim_fault::FaultInjector;
use pim_func::BackendKind;
use pim_sim::PimSimulator;
use pim_telemetry::{Telemetry, TrackHandle};
use shard::ShardSlot;
pub(crate) use shard::{CellJob, Segment, Step};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
/// only what they change ([`PimCluster::with_options`]). Nothing here
/// picks a transport: every job runs on the thread that submits it.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Driver parallelism mode for every shard.
    pub mode: ParallelismMode,
    /// Chip-to-chip interconnect model: the link width/latency set the
    /// modeled cycle cost of cross-chip transfers
    /// ([`TrafficStats`](crate::TrafficStats)).
    pub interconnect: InterconnectConfig,
    /// Telemetry handle the cluster records into: each shard gets its own
    /// `shard-{i}` trace track (spans on the shard's modeled cycle
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

/// A sharded multi-chip PIM execution engine.
///
/// `N` shards, each a [`Driver`] over its own chip ([`PimSimulator`],
/// strict checking on), present one flat address space of
/// `N × crossbars` warps. A shard's job runs on whichever thread submits
/// it, under the shard's lock, and has finished when the submission
/// returns; shards run in the order the scheduler launches them, so one
/// client thread replays to the same counters and memory image every time,
/// seeded faults included. The chips' parallelism lives on the modeled
/// clock ([`ClusterStats::critical_path_cycles`]), as the paper's lives
/// inside one memory.
///
/// Logical instructions addressed to global warps are split along shard
/// boundaries (see [`ShardPlan`]) into one job per affected shard;
/// inter-warp moves that cross a chip boundary go over a modeled
/// chip-to-chip [`Interconnect`]: crossing word pairs are batched into one
/// message per `(source, destination)` shard pair, charged a configurable
/// per-link cycle cost, and only the shards a transfer touches are drained
/// (the drain rule, which sets where jobs begin and end; see the
/// crate-level docs).
///
/// All methods take `&self`; the cluster may be driven from many client
/// threads at once (each shard serializes its own jobs on its lock).
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
    /// One slot per shard: its driver while it is up, and its journal.
    slots: Vec<Mutex<ShardSlot>>,
    telemetry: Telemetry,
    /// Each shard's `shard-{i}` trace track (a revived shard keeps its own).
    shard_tracks: Vec<TrackHandle>,
    /// Trace track of host-staged interconnect bursts.
    ic_track: TrackHandle,
    fault: Option<Arc<FaultInjector>>,
    /// Shards revived after a crash.
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
    /// Builds a cluster of `shards` chips of geometry `cfg` with the default
    /// (partition-parallel) driver mode.
    ///
    /// # Errors
    ///
    /// Returns an error for a zero shard count or an invalid configuration.
    pub fn new(cfg: PimConfig, shards: usize) -> Result<Self, ClusterError> {
        PimCluster::with_options(cfg, shards, ClusterOptions::default())
    }

    /// Builds a cluster from a full [`ClusterOptions`] bundle. This is
    /// where the interconnect model, crash recovery ([`RecoveryConfig`])
    /// and deterministic fault injection ([`FaultInjector`]) are
    /// configured.
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
        let (icfg, telemetry) = (options.interconnect, options.telemetry);
        icfg.validate()
            .map_err(|reason| ClusterError::InvalidInterconnect { reason })?;
        let plan = ShardPlan::new(&cfg, shards)?;
        let shared_cache = RoutineCache::new();
        let mut slots = Vec::with_capacity(shards);
        for shard in 0..shards {
            let backend = PimSimulator::new(cfg.clone()).map_err(|e| ClusterError::Shard {
                shard,
                source: DriverError::from(e),
            })?;
            let driver = Driver::with_cache(backend, options.mode, shared_cache.share());
            let journal = options.recovery.enabled.then(|| ShardJournal::new(&driver));
            slots.push(Mutex::new(ShardSlot {
                driver: Some(driver),
                journal,
            }));
        }
        Ok(PimCluster {
            plan,
            logical_cfg: cfg.clone().with_crossbars(cfg.crossbars * shards),
            shard_cfg: cfg,
            interconnect: Interconnect::new(icfg),
            slots,
            shard_tracks: (0..shards)
                .map(|shard| telemetry.track(&format!("shard-{shard}")))
                .collect(),
            ic_track: telemetry.track("cluster/interconnect"),
            telemetry,
            fault: options.fault,
            restarts: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
        })
    }

    /// The telemetry handle this cluster records into (disabled by default;
    /// see [`ClusterOptions::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
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

    /// The fault injector this cluster consults, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.as_ref()
    }

    /// Shards revived after a crash so far.
    pub fn worker_restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Instructions replayed from journals during recovery so far (a cell
    /// counts as the write or read it stands for).
    pub fn replayed_instructions(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Snapshots per-shard telemetry (profiler, issued cycles, routine-cache
    /// hit/miss counters).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Disconnected`] if a shard is down and
    /// recovery is off.
    pub fn stats(&self) -> Result<ClusterStats, ClusterError> {
        Ok(ClusterStats {
            shards: self.broadcast(|shard, driver, _| {
                let (cache_hits, cache_misses) = driver.cache_stats();
                Ok(ShardStats {
                    shard,
                    profiler: driver.backend().profiler().clone(),
                    issued: driver.issued(),
                    cache_hits,
                    cache_misses,
                })
            })?,
            traffic: self.interconnect.traffic(),
            worker_restarts: self.worker_restarts(),
            replayed_instructions: self.replayed_instructions(),
        })
    }

    /// Starts a measurement region: resets every shard's counters — the
    /// chip's profiler, the driver's routine-cache hit/miss telemetry and
    /// issued cycles — and the interconnect's traffic counters (chip
    /// cycles, link cycles and cache hit rates bound the same region;
    /// compiled routines are kept). Journaled, so a revived shard has it.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Disconnected`] if a shard is down and
    /// recovery is off.
    pub fn reset_counters(&self) -> Result<(), ClusterError> {
        self.interconnect.reset();
        self.broadcast(|_, driver, journal| {
            journal::reset_counters(driver);
            if let Some(j) = journal {
                j.record(JournalEntry::Reset);
            }
            Ok(())
        })?;
        Ok(())
    }

    /// Runs one non-executable job on every shard, in shard order, and
    /// returns the replies; the first shard error ends the round.
    fn broadcast<R>(
        &self,
        job: impl Fn(
            usize,
            &mut Driver<PimSimulator>,
            Option<&mut ShardJournal>,
        ) -> Result<R, ClusterError>,
    ) -> Result<Vec<R>, ClusterError> {
        (0..self.shards())
            .map(|shard| self.run_on(shard, false, |driver, j| job(shard, driver, j)))
            .collect()
    }
}

#[cfg(test)]
mod tests;
