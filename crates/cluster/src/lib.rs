//! # pim-cluster
//!
//! A sharded multi-chip execution engine for the PyPIM stack: `N` simulated
//! PIM chips — each a [`pim_driver::Driver`] over its own
//! [`pim_sim::PimSimulator`], strict checking on — take batched jobs and
//! present one flat address space of `N × crossbars` warps. There is one
//! transport: a job runs on the thread that submits it, under its shard's
//! lock, and has finished when the submission returns. Shards run in
//! launch order, so one client thread replays to the same counters and
//! memory every time, seeded faults included (a single-chip `Device` is a
//! one-shard cluster). As in the paper's host driver, all parallelism is
//! the memory's own and lives on the modeled clock: the chips of one
//! submission execute concurrently in the model
//! ([`ClusterStats::critical_path_cycles`]), not on host threads.
//!
//! The paper (conf_micro_LeitersdorfRK24) models a *single* memory chip
//! behind the micro-operation interface; this crate composes many of them
//! the way a production deployment would rack chips behind one host:
//!
//! * [`ShardPlan`] — partitions the flat warp/element range across shards.
//!   Every ISA mask is an arithmetic progression, so a logical thread range
//!   splits into at most one local range per shard.
//! * [`PimCluster::submit_batch`] — the one routing path for logical
//!   instructions ([`execute`](PimCluster::execute),
//!   [`execute_batch`](PimCluster::execute_batch) and
//!   [`submit_batch_tagged`](PimCluster::submit_batch_tagged) are thin calls
//!   into it): validate, split per shard, coalesce crossing moves, barrier,
//!   transfer, launch. Moves within a chip stay native; moves crossing a
//!   chip boundary go over the modeled [`Interconnect`]. The first error
//!   of the jobs it ran is its [`JobSet`].
//! * [`Interconnect`]/[`InterconnectConfig`] — the chip-to-chip link model:
//!   crossing word pairs travel as one message per
//!   `(source, destination)` shard pair (one gathered read burst + one
//!   scattered write burst), each charged
//!   `latency + ceil(words × 32 / link_bits)` link cycles into
//!   [`TrafficStats`].
//! * Dependency-aware scheduling — **the drain rule**, which sets where
//!   each shard's jobs begin and end: a crossing move drains only the
//!   shards owning its crossing source/destination warps (their queued
//!   work runs, and its results are checked, before the transfer); every
//!   untouched shard's queue is launched as a job of its own just before
//!   the transfer, its results checked only when the submission ends.
//!   This is sound because the H-tree move rule keeps a move's source and
//!   destination warp sets disjoint — a launched shard holds no cell the
//!   transfer reads or writes.
//! * [`MoveCoalescer`] — cross-chip move coalescing, the last stage of the
//!   **movement → coalescer → interconnect pipeline**. The movement layer
//!   (`pypim-core`'s `movement` module) lowers a tensor shift onto one
//!   `MoveWarps` per row class — phase-split further when the H-tree's
//!   disjointness rule forbids the direct move — and plans the whole
//!   decomposition as *one* batch grouped by warp distance. While that
//!   batch is routed the coalescer accumulates the current *run* of
//!   consecutive crossing moves that share a distance and are independent
//!   at the cell level; when the run breaks (other instruction, other
//!   distance, hazard, end of the batch) it flushes as a single transfer:
//!   one barrier over the union of touched shards, one gathered read burst
//!   and one scattered write burst per `(source, destination)` shard pair —
//!   `O(shard pairs)` messages and barriers for a whole-memory shift
//!   instead of `O(warps)`. [`TrafficStats`] reports
//!   `runs_merged`/`moves_merged`/`bursts_saved`.
//! * [`PimCluster::stats`] — per-shard telemetry (simulator profiler,
//!   driver issued cycles, routine-cache hit/miss counters), aggregated by
//!   [`ClusterStats`] — the observability behind the §V-B "driver is not
//!   the bottleneck" claim at cluster scale.
//!
//! The development library (`pypim-core`) builds on this crate alone:
//! `Device::new(cfg)` is one shard with recovery off,
//! `Device::cluster(cfg, shards)` is `shards` of them with recovery on, and
//! every tensor program runs unchanged on 1 or N chips with bit-identical
//! results.
//!
//! # Example
//!
//! ```
//! use pim_arch::PimConfig;
//! use pim_cluster::PimCluster;
//! use pim_isa::{DType, Instruction, RegOp, ThreadRange};
//!
//! # fn main() -> Result<(), pim_cluster::ClusterError> {
//! // Four chips of 4 crossbars each: one flat space of 16 warps.
//! let cluster = PimCluster::new(PimConfig::small().with_crossbars(4), 4)?;
//! let all = ThreadRange::all(cluster.logical_config());
//!
//! // One logical instruction fans out to all four chips.
//! cluster.execute_batch(&[
//!     Instruction::Write { reg: 0, value: 30, target: all },
//!     Instruction::Write { reg: 1, value: 12, target: all },
//!     Instruction::RType {
//!         op: RegOp::Add,
//!         dtype: DType::Int32,
//!         dst: 2,
//!         srcs: [0, 1, 0],
//!         target: all,
//!     },
//! ])?;
//!
//! // Warp 13 lives on shard 3; the flat address space hides that.
//! let got = cluster.execute(&Instruction::Read { reg: 2, warp: 13, row: 7 })?;
//! assert_eq!(got, Some(42));
//! # Ok(())
//! # }
//! ```

mod cluster;
mod coalesce;
mod error;
mod interconnect;
mod plan;
pub(crate) mod sched;

pub use cluster::{
    ClusterOptions, ClusterStats, GlobalLoc, GlobalWrite, JobSet, PimCluster, RecoveryConfig,
    ShardBackends, ShardStats, TaggedBatch, CHECKPOINT_INTERVAL_CYCLES,
    CHECKPOINT_MAX_INSTRUCTIONS,
};
pub use coalesce::{CrossingMove, MoveCoalescer};
pub use error::{ClusterError, ErrorClass, LinkFaultKind};
pub use interconnect::{Interconnect, InterconnectConfig, MessageGroup, TrafficStats, WORD_BITS};
pub use pim_fault::{
    FaultInjector, FaultPlan, FaultProfile, FaultStats, HostFault, HostFaultPlan, HostFaultProfile,
    LinkFault, LinkWindow, WorkerFault,
};
pub use pim_func::BackendKind;
pub use pim_telemetry::{RequestId, RequestStats, Telemetry};
pub use plan::{MoveRoute, ShardPlan};
