//! What the cluster reports about itself: per-shard and aggregated
//! telemetry, and the host-side folds of a cross-shard reduction.

use crate::TrafficStats;
use pim_driver::IssuedCycles;
use pim_sim::Profiler;
use pim_telemetry::{MetricsSnapshot, MetricsSource};

/// Telemetry snapshot of one shard.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// The shard simulator's profiling counters (chip-side cycles).
    pub profiler: Profiler,
    /// Driver-issued cycle counters (logic vs total) of this shard.
    pub issued: IssuedCycles,
    /// Routine-cache hits of this shard's driver.
    pub cache_hits: u64,
    /// Routine-cache misses of this shard's driver.
    pub cache_misses: u64,
}

/// Aggregated telemetry across every shard — the production observability
/// for the §V-B "driver is not the bottleneck" claim at cluster scale.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Per-shard snapshots, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Interconnect/scheduler traffic: cross-chip messages and words moved,
    /// modeled link cycles, barriers hit and shard queues drained by them.
    pub traffic: TrafficStats,
    /// Shard workers the supervisor respawned after a crash.
    pub worker_restarts: u64,
    /// Instructions replayed from journals during recovery (the work
    /// between the last checkpoint and the crash).
    pub replayed_instructions: u64,
}

impl ClusterStats {
    /// Driver-issued cycles summed over shards.
    pub fn issued(&self) -> IssuedCycles {
        self.shards.iter().map(|s| s.issued).sum()
    }

    /// Routine-cache `(hits, misses)` summed over shards.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.shards
            .iter()
            .fold((0, 0), |(h, m), s| (h + s.cache_hits, m + s.cache_misses))
    }

    /// Chip cycles summed over shards (total simulated work).
    pub fn total_cycles(&self) -> u64 {
        self.shards.iter().map(|s| s.profiler.cycles).sum()
    }

    /// Chip cycles of the busiest shard — the wall-clock latency of the
    /// cluster under the chips-run-in-parallel model.
    pub fn critical_path_cycles(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.profiler.cycles)
            .max()
            .unwrap_or(0)
    }

    /// Modeled end-to-end latency: the busiest chip plus the interconnect's
    /// link cycles (an upper bound — transfers that overlapped untouched
    /// shards' streaming are charged serially here).
    pub fn modeled_latency_cycles(&self) -> u64 {
        self.critical_path_cycles() + self.traffic.link_cycles
    }

    /// A merged profiler: operation/gate/move counters are summed across
    /// shards ([`Profiler::absorb`]), while `cycles` holds the critical
    /// path (chips execute concurrently, so wall-clock latency is the
    /// busiest shard's).
    pub fn merged_profiler(&self) -> Profiler {
        let mut out = Profiler::new();
        for s in &self.shards {
            out.absorb(&s.profiler);
        }
        out.cycles = self.critical_path_cycles();
        out
    }
}

impl MetricsSource for ClusterStats {
    fn fill_metrics(&self, snap: &mut MetricsSnapshot) {
        // The merged profiler carries the chip-side sim.* metrics; cycles
        // there is the critical path, so report the summed total separately.
        self.merged_profiler().fill_metrics(snap);
        snap.set_counter("cluster.total_cycles", self.total_cycles());
        snap.set_counter("cluster.critical_path_cycles", self.critical_path_cycles());
        snap.set_counter(
            "cluster.modeled_latency_cycles",
            self.modeled_latency_cycles(),
        );
        let issued = self.issued();
        snap.set_counter("cluster.issued_cycles", issued.total);
        snap.set_counter("cluster.issued_logic_cycles", issued.logic);
        let (hits, misses) = self.cache_stats();
        snap.set_counter("cluster.cache_hits", hits);
        snap.set_counter("cluster.cache_misses", misses);
        snap.set_gauge("cluster.shards", self.shards.len() as i64);
        snap.set_counter("cluster.worker_restarts", self.worker_restarts);
        snap.set_counter("cluster.replayed_instructions", self.replayed_instructions);
        self.traffic.fill_metrics(snap);
    }
}
