//! Modeled chip-to-chip interconnect.
//!
//! This module models the links a real multi-chip deployment would have:
//! crossing word pairs are grouped into one *message* per
//! `(source shard, destination shard)` pair — one gathered read burst on
//! the source chip and one scattered write burst on the destination chip —
//! and every burst is charged a modeled cycle cost
//!
//! ```text
//! cost(n words) = latency + ceil(n · WORD_BITS / link_bits)
//! ```
//!
//! accumulated into [`TrafficStats::link_cycles`].

use crate::ShardPlan;
use std::sync::{Mutex, MutexGuard};

/// Bits per transferred word (`u32` cells).
pub const WORD_BITS: u64 = 32;

/// Geometry of the modeled chip-to-chip interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterconnectConfig {
    /// Link width: bits moved per link cycle (default 128).
    pub link_bits: u32,
    /// Fixed per-message latency in link cycles (default 8).
    pub latency: u64,
}

impl Default for InterconnectConfig {
    fn default() -> Self {
        InterconnectConfig {
            link_bits: 128,
            latency: 8,
        }
    }
}

impl InterconnectConfig {
    /// Checks the configuration is usable.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a parameter is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.link_bits == 0 {
            return Err("interconnect link width must be at least 1 bit".into());
        }
        Ok(())
    }

    /// Modeled cycle cost of one burst of `words` words over a link.
    pub fn burst_cycles(&self, words: u64) -> u64 {
        self.latency + (words * WORD_BITS).div_ceil(u64::from(self.link_bits))
    }
}

/// One burst over a directed chip-to-chip link: every crossing word pair a
/// `MoveWarps` exchanges between one source and one destination shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageGroup {
    /// Shard the words are gathered from.
    pub src_shard: usize,
    /// Shard the words are scattered to.
    pub dst_shard: usize,
    /// Global `(source, destination)` warp pairs carried by this burst.
    pub pairs: Vec<(u32, u32)>,
}

/// Interconnect and scheduler traffic counters, aggregated cluster-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Bursts sent over the links.
    pub messages: u64,
    /// Cross-chip words moved.
    pub cross_words: u64,
    /// Modeled link cycles spent on those messages
    /// ([`InterconnectConfig::burst_cycles`] summed over bursts).
    pub link_cycles: u64,
    /// Crossing moves that forced shard queues to drain.
    pub barriers: u64,
    /// Shard queues those barriers actually drained: shards inside the
    /// barrier's scope (the crossing pairs' owners) that had pending work
    /// or unchecked job results. A barrier hitting only idle shards drains
    /// zero queues.
    pub drained_queues: u64,
    /// Coalesced runs flushed with at least two crossing moves — each one
    /// a group of per-move barriers/transfers collapsed into a single
    /// barrier + bulk transfer.
    pub runs_merged: u64,
    /// Crossing moves carried by those merged runs (routed one by one,
    /// every one of them would have paid its own barrier and messages).
    pub moves_merged: u64,
    /// Interconnect messages the merged runs avoided: per-move burst
    /// counts summed, minus the bursts the merged transfers actually sent.
    pub bursts_saved: u64,
}

impl pim_telemetry::MetricsSource for TrafficStats {
    fn fill_metrics(&self, snap: &mut pim_telemetry::MetricsSnapshot) {
        snap.set_counter("cluster.messages", self.messages);
        snap.set_counter("cluster.cross_words", self.cross_words);
        snap.set_counter("cluster.link_cycles", self.link_cycles);
        snap.set_counter("cluster.barriers", self.barriers);
        snap.set_counter("cluster.drained_queues", self.drained_queues);
        snap.set_counter("cluster.runs_merged", self.runs_merged);
        snap.set_counter("cluster.moves_merged", self.moves_merged);
        snap.set_counter("cluster.bursts_saved", self.bursts_saved);
    }
}

/// The modeled interconnect: configuration plus live traffic accounting.
///
/// The counters sit behind one host-side lock, so the cluster's `&self`
/// execution paths record from any client thread and a snapshot is never
/// torn.
#[derive(Debug, Default)]
pub struct Interconnect {
    cfg: InterconnectConfig,
    traffic: Mutex<TrafficStats>,
}

impl Interconnect {
    /// Builds an interconnect with the given geometry.
    pub fn new(cfg: InterconnectConfig) -> Self {
        Interconnect {
            cfg,
            traffic: Mutex::default(),
        }
    }

    /// The interconnect's configuration.
    pub fn config(&self) -> &InterconnectConfig {
        &self.cfg
    }

    /// Groups crossing `(source, destination)` global warp pairs into one
    /// [`MessageGroup`] per `(source shard, destination shard)` pair, in
    /// first-appearance order (deterministic for a deterministic input).
    pub fn group(&self, plan: &ShardPlan, pairs: &[(u32, u32)]) -> Vec<MessageGroup> {
        let mut groups: Vec<MessageGroup> = Vec::new();
        for &(src, dst) in pairs {
            let key = (plan.shard_of_warp(src), plan.shard_of_warp(dst));
            match groups
                .iter_mut()
                .find(|g| (g.src_shard, g.dst_shard) == key)
            {
                Some(g) => g.pairs.push((src, dst)),
                None => groups.push(MessageGroup {
                    src_shard: key.0,
                    dst_shard: key.1,
                    pairs: vec![(src, dst)],
                }),
            }
        }
        groups
    }

    /// The live counters. Every update is a handful of additions that
    /// leave them valid at each step, so a poisoned lock is still usable.
    fn counters(&self) -> MutexGuard<'_, TrafficStats> {
        self.traffic.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Accounts one burst of `words` words; returns its modeled cycle cost.
    /// A transfer records one burst per [`MessageGroup`]
    /// (`Interconnect::group`), sized by that group's word count — see
    /// `PimCluster`'s cross-transfer path.
    pub fn record_burst(&self, words: u64) -> u64 {
        let cycles = self.cfg.burst_cycles(words);
        let mut t = self.counters();
        t.messages += 1;
        t.cross_words += words;
        t.link_cycles += cycles;
        cycles
    }

    /// Accounts one crossing-move barrier that drained `drained` shard
    /// queues.
    pub fn record_barrier(&self, drained: u64) {
        let mut t = self.counters();
        t.barriers += 1;
        t.drained_queues += drained;
    }

    /// Accounts one flushed coalesced run of `moves` (≥ 2) crossing moves
    /// that avoided `bursts_saved` interconnect messages.
    pub fn record_coalesced(&self, moves: u64, bursts_saved: u64) {
        let mut t = self.counters();
        t.runs_merged += 1;
        t.moves_merged += moves;
        t.bursts_saved += bursts_saved;
    }

    /// Snapshot of the traffic counters.
    pub fn traffic(&self) -> TrafficStats {
        *self.counters()
    }

    /// Zeroes the traffic counters (the start of a measurement region).
    pub fn reset(&self) {
        *self.counters() = TrafficStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::PimConfig;

    #[test]
    fn burst_cost_model() {
        let cfg = InterconnectConfig::default();
        // 128-bit link moves 4 words per cycle on top of the fixed latency.
        assert_eq!(cfg.burst_cycles(1), 8 + 1);
        assert_eq!(cfg.burst_cycles(4), 8 + 1);
        assert_eq!(cfg.burst_cycles(5), 8 + 2);
        let narrow = InterconnectConfig {
            link_bits: 8,
            latency: 2,
        };
        assert_eq!(narrow.burst_cycles(3), 2 + 12);
    }

    #[test]
    fn validate_rejects_zero_width_link() {
        let cfg = InterconnectConfig {
            link_bits: 0,
            ..InterconnectConfig::default()
        };
        assert!(cfg.validate().is_err());
        assert!(InterconnectConfig::default().validate().is_ok());
    }

    #[test]
    fn groups_by_shard_pair_in_first_appearance_order() {
        let plan = ShardPlan::new(&PimConfig::small().with_crossbars(4), 4).unwrap();
        let ic = Interconnect::default();
        // Shard pairs (0,1), (0,1), (1,2), (0,1), (3,0): three groups.
        let pairs = [(0, 5), (1, 6), (4, 9), (2, 7), (15, 0)];
        let groups = ic.group(&plan, &pairs);
        assert_eq!(groups.len(), 3);
        assert_eq!((groups[0].src_shard, groups[0].dst_shard), (0, 1));
        assert_eq!(groups[0].pairs, vec![(0, 5), (1, 6), (2, 7)]);
        assert_eq!((groups[1].src_shard, groups[1].dst_shard), (1, 2));
        assert_eq!(groups[1].pairs, vec![(4, 9)]);
        assert_eq!((groups[2].src_shard, groups[2].dst_shard), (3, 0));
        assert_eq!(groups[2].pairs, vec![(15, 0)]);
        // Grouping is pure planning: no traffic recorded yet.
        assert_eq!(ic.traffic(), TrafficStats::default());
    }

    #[test]
    fn per_group_burst_accounting() {
        // The transfer recording rule: one burst per message
        // group, sized by the group's pair count — messages equal the
        // distinct shard pairs, words equal the crossing pairs.
        let plan = ShardPlan::new(&PimConfig::small().with_crossbars(4), 4).unwrap();
        let pairs = [(0, 5), (1, 6), (4, 9), (2, 7), (15, 0)];
        let ic = Interconnect::default();
        for g in ic.group(&plan, &pairs) {
            ic.record_burst(g.pairs.len() as u64);
        }
        let t = ic.traffic();
        assert_eq!(t.messages, 3);
        assert_eq!(t.cross_words, 5);
        // Two 1-word groups and one 3-word group on the default link.
        assert_eq!(t.link_cycles, 3 * (8 + 1));
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let ic = Interconnect::new(InterconnectConfig {
            link_bits: 32,
            latency: 4,
        });
        assert_eq!(ic.record_burst(8), 4 + 8);
        assert_eq!(ic.record_burst(1), 4 + 1);
        ic.record_barrier(2);
        ic.record_coalesced(5, 3);
        let t = ic.traffic();
        assert_eq!(t.messages, 2);
        assert_eq!(t.cross_words, 9);
        assert_eq!(t.link_cycles, 17);
        assert_eq!(t.barriers, 1);
        assert_eq!(t.drained_queues, 2);
        assert_eq!(t.runs_merged, 1);
        assert_eq!(t.moves_merged, 5);
        assert_eq!(t.bursts_saved, 3);
        ic.reset();
        assert_eq!(ic.traffic(), TrafficStats::default());
    }
}
