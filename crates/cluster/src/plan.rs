//! Shard partitioning: how the cluster's flat logical address space (warps,
//! threads, tensor elements) maps onto per-chip local addresses.
//!
//! The cluster presents `shards × crossbars` warps as one contiguous warp
//! space; shard `s` owns global warps `s·crossbars .. (s+1)·crossbars`.
//! Because every ISA mask is an arithmetic progression
//! (`{start, start+step, …, stop}`, §III-B), its intersection with a shard's
//! warp interval is again an arithmetic progression with the same step — so
//! any logical thread range splits into at most one local range per shard.

use crate::ClusterError;
use pim_arch::{PimConfig, RangeMask};
use std::ops::Range;

/// A routed `MoveWarps`: the shard-local native sub-moves plus the global
/// warp pairs that cross a chip boundary, as produced by
/// [`ShardPlan::route_move_warps`]. Together they cover every
/// `(source, destination)` pair of the logical move exactly once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MoveRoute {
    /// Shard-local sub-moves `(shard, local warp mask)` whose destinations
    /// stay on the same chip: these keep native single-cycle movement.
    pub local: Vec<(usize, RangeMask)>,
    /// Cross-shard `(source, destination)` global warp pairs: these go over
    /// the interconnect.
    pub cross: Vec<(u32, u32)>,
}

/// Partition of the cluster's flat element/warp range across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
    /// Crossbars (warps) per shard.
    crossbars: usize,
    /// Rows (threads) per warp.
    rows: usize,
}

impl ShardPlan {
    /// Creates the plan for `shards` chips of geometry `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidShardCount`] for zero shards and
    /// [`ClusterError::Invalid`] if `cfg` fails validation.
    pub fn new(cfg: &PimConfig, shards: usize) -> Result<Self, ClusterError> {
        if shards == 0 {
            return Err(ClusterError::InvalidShardCount { shards });
        }
        cfg.validate()?;
        Ok(ShardPlan {
            shards,
            crossbars: cfg.crossbars,
            rows: cfg.rows,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Warps owned by each shard.
    pub fn warps_per_shard(&self) -> usize {
        self.crossbars
    }

    /// Threads (elements at stride 1) owned by each shard.
    pub fn threads_per_shard(&self) -> usize {
        self.crossbars * self.rows
    }

    /// Total warps across the cluster.
    pub fn total_warps(&self) -> usize {
        self.shards * self.crossbars
    }

    /// Total threads across the cluster.
    pub fn total_threads(&self) -> usize {
        self.shards * self.crossbars * self.rows
    }

    /// Shard owning global warp `warp`.
    pub fn shard_of_warp(&self, warp: u32) -> usize {
        warp as usize / self.crossbars
    }

    /// Local (per-chip) index of global warp `warp`.
    pub fn local_warp(&self, warp: u32) -> u32 {
        (warp as usize % self.crossbars) as u32
    }

    /// Splits a flat element range `[0, n)` (thread-dense, stride 1 from
    /// thread 0) into per-shard sub-ranges — the unit of data-parallel batch
    /// placement. Shards past the data hold empty ranges.
    pub fn partition_elements(&self, n: usize) -> Vec<Range<usize>> {
        let per = self.threads_per_shard();
        (0..self.shards)
            .map(|s| {
                let lo = (s * per).min(n);
                let hi = ((s + 1) * per).min(n);
                lo..hi
            })
            .collect()
    }

    /// Splits a global warp mask into `(shard, local mask)` pairs in shard
    /// order, covering exactly the same warp set. Shards the mask does not
    /// touch are absent.
    pub fn split_warps(&self, mask: &RangeMask) -> impl Iterator<Item = (usize, RangeMask)> {
        let (c, mask) = (self.crossbars as u32, *mask);
        let first = (mask.start() / c) as usize;
        let last = ((mask.stop() / c) as usize).min(self.shards - 1);
        (first..=last).filter_map(move |shard| {
            let lo = shard as u32 * c;
            intersect_rebase(&mask, lo, lo + c).map(|local| (shard, local))
        })
    }

    /// Partitions a logical `MoveWarps` (global warp mask + uniform
    /// distance) into shard-local native sub-moves and cross-shard warp
    /// pairs: [`route_into`](ShardPlan::route_into), collected.
    pub fn route_move_warps(&self, warps: &RangeMask, dist: i32) -> MoveRoute {
        let mut route = MoveRoute::default();
        self.route_into(warps, dist, &mut route.cross, |part| route.local.push(part));
        route
    }

    /// Routes a logical `MoveWarps` without allocating: each shard-local
    /// native sub-move `(shard, local warp mask)` goes to `native`, in
    /// shard order, and the crossing `(source, destination)` global warp
    /// pairs are appended to `cross`.
    ///
    /// A shard's sub-move that only partially crosses its shard boundary is
    /// split there. Warps whose destination `w + dist` stays inside
    /// `[0, warps_per_shard)` keep native single-micro-op movement; because
    /// the in-shard condition is an interval in `w`, they form one
    /// sub-progression of the shard's mask (same step), so the native part
    /// is again a single [`RangeMask`] — and a same-step subset of a valid
    /// H-tree move pattern is itself valid. The remaining warps cross the
    /// chip boundary and go over the interconnect.
    pub fn route_into(
        &self,
        warps: &RangeMask,
        dist: i32,
        cross: &mut Vec<(u32, u32)>,
        mut native: impl FnMut((usize, RangeMask)),
    ) {
        let (c, dist) = (self.crossbars as i64, i64::from(dist));
        // In-shard destinations: max(0, -dist) <= w <= min(c-1, c-1-dist).
        let (lo, hi) = (0i64.max(-dist), (c - 1).min(c - 1 - dist));
        for (shard, local) in self.split_warps(warps) {
            let base = (shard * self.crossbars) as i64;
            let step = i64::from(local.step());
            let (start, stop) = (i64::from(local.start()), i64::from(local.stop()));
            // First/last mask elements inside [lo, hi] (operands of the
            // round-up divisions are nonnegative in their branches).
            let round_up = |x: i64| (x + step - 1) / step;
            let first = if lo > start {
                start + round_up(lo - start) * step
            } else {
                start
            };
            let last = if hi < stop {
                stop - round_up(stop - hi) * step
            } else {
                stop
            };
            // `first` and `last` are elements of `local`, so `new` cannot
            // refuse them; were it to, every warp would take the (correct)
            // crossing path.
            let kept = (first <= last && first <= stop && last >= start)
                .then(|| RangeMask::new(first as u32, last as u32, local.step()).ok())
                .flatten();
            if let Some(mask) = kept {
                native((shard, mask));
            }
            for w in local.iter().map(i64::from) {
                if kept.is_none() || w < first || w > last {
                    cross.push(((base + w) as u32, (base + w + dist) as u32));
                }
            }
        }
    }

    /// Marks the shards owning the source and destination warps of
    /// `pairs` — exactly the set a dependency-aware scheduler must drain
    /// before staging their transfer; every other shard may keep streaming.
    ///
    /// Warps outside the plan's geometry are ignored: routing an
    /// *unvalidated* move whose destinations fall off the cluster yields
    /// pairs no shard owns (the cluster's execute paths validate against
    /// the logical geometry before routing, so they never see such pairs).
    pub fn touched_shards(&self, pairs: &[(u32, u32)]) -> Vec<bool> {
        let mut touched = vec![false; self.shards];
        for &(src, dst) in pairs {
            for warp in [src, dst] {
                if let Some(t) = touched.get_mut(self.shard_of_warp(warp)) {
                    *t = true;
                }
            }
        }
        touched
    }
}

/// Intersects an arithmetic progression with `[lo, hi)` and rebases it to
/// `lo`; `None` when the intersection is empty.
fn intersect_rebase(mask: &RangeMask, lo: u32, hi: u32) -> Option<RangeMask> {
    let (start, stop, step) = (mask.start(), mask.stop(), mask.step());
    let first = if lo > start {
        start + (lo - start).div_ceil(step) * step
    } else {
        start
    };
    if first > stop || first >= hi {
        return None;
    }
    let last = stop.min(hi - 1);
    let count = (last - first) / step + 1;
    // `strided` refuses only a zero count or step: neither occurs here.
    RangeMask::strided(first - lo, count, step).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn plan4() -> ShardPlan {
        ShardPlan::new(&PimConfig::small().with_crossbars(4), 4).unwrap()
    }

    #[test]
    fn geometry_accessors() {
        let p = plan4();
        assert_eq!(p.shards(), 4);
        assert_eq!(p.warps_per_shard(), 4);
        assert_eq!(p.total_warps(), 16);
        assert_eq!(p.threads_per_shard(), 4 * 64);
        assert_eq!(p.total_threads(), 16 * 64);
        assert_eq!(p.shard_of_warp(0), 0);
        assert_eq!(p.shard_of_warp(7), 1);
        assert_eq!(p.local_warp(7), 3);
    }

    #[test]
    fn rejects_zero_shards() {
        assert!(matches!(
            ShardPlan::new(&PimConfig::small(), 0),
            Err(ClusterError::InvalidShardCount { .. })
        ));
    }

    #[test]
    fn dense_mask_splits_per_shard() {
        let p = plan4();
        let m = RangeMask::dense(0, 16).unwrap();
        let parts: Vec<_> = p.split_warps(&m).collect();
        assert_eq!(parts.len(), 4);
        for (s, local) in parts {
            assert_eq!(local.start(), 0);
            assert_eq!(local.len(), 4, "shard {s}");
        }
    }

    #[test]
    fn strided_mask_keeps_step() {
        let p = plan4();
        // Warps {1, 4, 7, 10, 13}: shards 0..=3.
        let m = RangeMask::strided(1, 5, 3).unwrap();
        let parts: Vec<_> = p.split_warps(&m).collect();
        let mut covered = Vec::new();
        for (s, local) in &parts {
            assert_eq!(local.step(), 3);
            for w in local.iter() {
                covered.push(*s as u32 * 4 + w);
            }
        }
        assert_eq!(covered, vec![1, 4, 7, 10, 13]);
    }

    #[test]
    fn split_move_keeps_in_shard_prefix_native() {
        // 4 shards x 4 warps. Warps {1, 2}, dist +2: warp 1 -> 3 stays on
        // shard 0; warp 2 -> 4 crosses into shard 1.
        let p = plan4();
        let route = p.route_move_warps(&RangeMask::new(1, 2, 1).unwrap(), 2);
        assert_eq!(route.local, vec![(0, RangeMask::single(1))]);
        assert_eq!(route.cross, vec![(2, 4)]);
        // Same shape on shard 2: local masks, global pair warp ids.
        let route = p.route_move_warps(&RangeMask::new(9, 10, 1).unwrap(), 2);
        assert_eq!(route.local, vec![(2, RangeMask::single(1))]);
        assert_eq!(route.cross, vec![(10, 12)]);
    }

    #[test]
    fn split_move_negative_dist_keeps_suffix_native() {
        let p = plan4();
        // Shard 1's warps {4..7}, dist -2: warps {6, 7} land in-shard,
        // {4, 5} cross down into shard 0.
        let route = p.route_move_warps(&RangeMask::new(4, 7, 1).unwrap(), -2);
        assert_eq!(route.local, vec![(1, RangeMask::new(2, 3, 1).unwrap())]);
        assert_eq!(route.cross, vec![(4, 2), (5, 3)]);
    }

    #[test]
    fn split_move_all_native_and_all_cross() {
        let p = plan4();
        let route = p.route_move_warps(&RangeMask::new(0, 1, 1).unwrap(), 2);
        assert_eq!(route.local, vec![(0, RangeMask::new(0, 1, 1).unwrap())]);
        assert!(route.cross.is_empty());
        // |dist| >= warps_per_shard: nothing can stay native.
        let route = p.route_move_warps(&RangeMask::new(0, 3, 1).unwrap(), 4);
        assert!(route.local.is_empty());
        assert_eq!(route.cross, vec![(0, 4), (1, 5), (2, 6), (3, 7)]);
    }

    #[test]
    fn split_move_preserves_step() {
        // 8 warps per shard so a strided local mask fits.
        let p = ShardPlan::new(&PimConfig::small().with_crossbars(8), 2).unwrap();
        // Warps {1, 5, 9, 13} (step 4), dist +3: 1 -> 4 and 9 -> 12 stay
        // native; 5 -> 8 and 13 -> 16 cross. Each shard's native sub-mask
        // keeps the step-4 pattern.
        let route = p.route_move_warps(&RangeMask::new(1, 13, 4).unwrap(), 3);
        let kept = RangeMask::new(1, 1, 4).unwrap();
        assert_eq!(route.local, vec![(0, kept), (1, kept)]);
        assert_eq!(route.cross, vec![(5, 8), (13, 16)]);
    }

    #[test]
    fn touched_shards_ignores_out_of_range_destinations() {
        // An unvalidated move off the end of the cluster must not panic
        // the planning helper: warp 15 + 4 has no owner and is skipped.
        let p = plan4();
        let route = p.route_move_warps(&RangeMask::single(15), 4);
        assert_eq!(
            p.touched_shards(&route.cross),
            vec![false, false, false, true]
        );
        // Negative overflow (warp 0 - 1 wraps in u32 space) likewise.
        let route = p.route_move_warps(&RangeMask::single(0), -1);
        assert_eq!(
            p.touched_shards(&route.cross),
            vec![true, false, false, false]
        );
    }

    #[test]
    fn partition_elements_covers_range() {
        let p = plan4();
        let parts = p.partition_elements(700);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], 0..256);
        assert_eq!(parts[1], 256..512);
        assert_eq!(parts[2], 512..700);
        assert_eq!(parts[3], 700..700);
    }

    proptest! {
        /// Splitting never loses, duplicates, or invents warps. Mask
        /// parameters are derived to always fit the geometry, so every
        /// generated case is exercised (no rejection).
        #[test]
        fn split_is_exact_cover(
            start_raw in 0u32..1024, count_raw in 0u32..1024, step in 1u32..9,
            crossbars in 1usize..9, shards in 1usize..6,
        ) {
            let total = (crossbars * shards) as u32;
            let start = start_raw % total;
            // Largest count keeping start + (count-1)*step < total.
            let max_count = (total - 1 - start) / step + 1;
            let count = 1 + count_raw % max_count;
            let mask = RangeMask::strided(start, count, step).unwrap();
            prop_assert!(mask.stop() < total);
            let cfg = PimConfig::small().with_crossbars(crossbars);
            let p = ShardPlan::new(&cfg, shards).unwrap();
            let mut covered: Vec<u32> = Vec::new();
            for (s, local) in p.split_warps(&mask) {
                prop_assert!(s < shards);
                prop_assert!(local.stop() < crossbars as u32);
                for w in local.iter() {
                    covered.push(s as u32 * crossbars as u32 + w);
                }
            }
            let expect: Vec<u32> = mask.iter().collect();
            prop_assert_eq!(covered, expect);
        }

        /// For an arbitrary warp mask and distance, the local + cross
        /// partition of [`ShardPlan::route_move_warps`] covers every
        /// `(source, destination)` pair of the logical move exactly once,
        /// and no native sub-move straddles a shard boundary (every local
        /// destination stays inside `[0, warps_per_shard)`).
        #[test]
        fn route_move_is_exact_pair_cover(
            start_raw in 0u32..1024, count_raw in 0u32..1024, step in 1u32..9,
            crossbars in 1usize..9, shards in 1usize..6, dist_raw in 0i64..2048,
        ) {
            let total = (crossbars * shards) as u32;
            let start = start_raw % total;
            let max_count = (total - 1 - start) / step + 1;
            let count = 1 + count_raw % max_count;
            let mask = RangeMask::strided(start, count, step).unwrap();
            // Distances keeping every destination inside [0, total).
            let lo = -(mask.start() as i64);
            let hi = (total - 1 - mask.stop()) as i64;
            let dist = (lo + dist_raw % (hi - lo + 1)) as i32;
            let cfg = PimConfig::small().with_crossbars(crossbars);
            let p = ShardPlan::new(&cfg, shards).unwrap();
            let route = p.route_move_warps(&mask, dist);
            let mut pairs: Vec<(u32, u32)> = route.cross.clone();
            for &(s, d) in &route.cross {
                // Crossing pairs are the ones that change chips (unless the
                // move is degenerate, dist 0, which can never cross).
                prop_assert!(p.shard_of_warp(s) != p.shard_of_warp(d) || dist == 0);
            }
            for (shard, local) in &route.local {
                let base = (*shard * crossbars) as u32;
                prop_assert_eq!(local.step(), mask.step());
                for w in local.iter() {
                    let ld = w as i64 + dist as i64;
                    prop_assert!(
                        (0..crossbars as i64).contains(&ld),
                        "native sub-move straddles the shard boundary"
                    );
                    pairs.push((base + w, base + ld as u32));
                }
            }
            pairs.sort_unstable();
            let mut expect: Vec<(u32, u32)> = mask
                .iter()
                .map(|w| (w, (w as i64 + dist as i64) as u32))
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(pairs, expect);
            // The touched-shard set is exactly the crossing pairs' owners.
            let touched = p.touched_shards(&route.cross);
            for (s, t) in touched.iter().enumerate() {
                let expect_touched = route.cross.iter().any(|&(src, dst)| {
                    p.shard_of_warp(src) == s || p.shard_of_warp(dst) == s
                });
                prop_assert_eq!(*t, expect_touched, "shard {}", s);
            }
        }
    }
}
