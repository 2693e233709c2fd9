//! Cross-chip move coalescing: the host-side peephole that collapses runs
//! of consecutive crossing `MoveWarps` into one bulk interconnect transfer.
//!
//! The movement layer decomposes an overlapping H-tree shift into many
//! small `MoveWarps` — one per row class, phase-split further when source
//! and destination warp sets overlap — all sharing one warp distance. Routed
//! individually, every one of those that crosses a chip boundary pays a
//! scheduler barrier and its own interconnect message, so a whole-memory
//! shift reaches the links as thousands of single-pair transfers
//! (`O(warps)`). The [`MoveCoalescer`] restores the structure the
//! decomposition erased: consecutive crossing moves with the *same
//! distance* and *no data hazard between them* merge into one run, staged
//! as a single transfer — one gathered read burst and one scattered write
//! burst per `(source, destination)` shard pair for the whole run, behind a
//! single barrier (`O(shard pairs)`).
//!
//! # Safety argument
//!
//! Merging move `B` into a run holding move `A` reorders two things
//! relative to per-move execution: `A`'s deferred transfer now happens
//! *after* `B`'s shard-local sub-moves are enqueued, and `B`'s gather
//! happens *before* `A`'s scatter. Both are sound exactly when the moves
//! are independent at the cell level, which [`MoveCoalescer::accepts`]
//! checks over the *whole* logical moves (local and crossing parts alike):
//!
//! * `writes(A) ∩ reads(B) = ∅` — `B` never reads a cell `A` has not yet
//!   written (the transfer is still pending at `B`'s turn);
//! * `reads(A) ∩ writes(B) = ∅` — `B` never clobbers a cell `A`'s deferred
//!   gather still needs to read;
//! * `writes(A) ∩ writes(B) = ∅` — no write-order ambiguity.
//!
//! A cell is a `(register, row, warp)` triple; a `MoveWarps` reads
//! `(src, row_src, warps)` and writes `(dst, row_dst, warps + dist)`, so
//! each side of every check reduces to register/row equality plus an
//! arithmetic-progression overlap test on the warp masks. Note the
//! H-tree's *warp-set* disjointness rule (which forces the phase split in
//! the first place) constrains single native micro-ops only — the merged
//! transfer is host-staged gather/scatter, so two phases whose warp sets
//! chain (`dst` of one = `src` warp of the next) coalesce whenever their
//! registers or rows differ, i.e. whenever their cells don't actually
//! collide.
//!
//! Anything that is not a crossing `MoveWarps` with the run's distance —
//! another instruction kind, a different distance, a hazard — flushes the
//! run first, so instruction-stream order is preserved around every merge.

use crate::{ClusterError, MoveRoute};
use pim_arch::{ArchError, RangeMask};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// The cells one side of a `MoveWarps` touches: one register/row across a
/// warp mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellRange {
    pub(crate) reg: u8,
    pub(crate) row: u32,
    warps: RangeMask,
}

/// One routed chip-crossing `MoveWarps`: its crossing `(source,
/// destination)` global warp pairs, its distance, and the cell ranges the
/// *whole* logical move reads and writes (the hazard footprint the
/// coalescer checks).
#[derive(Debug, Clone)]
pub struct CrossingMove {
    pairs: Vec<(u32, u32)>,
    dist: i32,
    pub(crate) reads: CellRange,
    pub(crate) writes: CellRange,
}

impl CrossingMove {
    /// Builds the crossing description of a validated logical `MoveWarps`
    /// (`warps`/`dist` addressed in global warp space) from its route.
    /// `None` when the move does not cross a chip boundary.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Invalid`] if the destination warps leave the warp
    /// space — which validation rules out for every move that reaches here.
    pub fn new(
        route: MoveRoute,
        warps: &RangeMask,
        dist: i32,
        src: u8,
        dst: u8,
        row_src: u32,
        row_dst: u32,
    ) -> Result<Option<CrossingMove>, ClusterError> {
        if route.cross.is_empty() {
            return Ok(None);
        }
        let dst_start = i64::from(warps.start()) + i64::from(dist);
        let dst_start = u32::try_from(dst_start).map_err(|_| ArchError::InvalidMove {
            reason: format!("destination warp {dst_start} is outside the warp space"),
        })?;
        let dst_warps = RangeMask::strided(dst_start, warps.len() as u32, warps.step())?;
        let cells = |reg, row, warps| CellRange { reg, row, warps };
        Ok(Some(CrossingMove {
            pairs: route.cross,
            dist,
            reads: cells(src, row_src, *warps),
            writes: cells(dst, row_dst, dst_warps),
        }))
    }
}

/// FxHash-style hasher for the validated `(register, row)` bucket keys:
/// SipHash cost more than the hazard check it guards.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The run's warp masks on each `(register, row)`: the first inline, so
/// only a second, different mask on the same key allocates.
type Buckets = HashMap<(u8, u32), (RangeMask, Vec<RangeMask>), BuildHasherDefault<KeyHasher>>;

fn bucket_insert(buckets: &mut Buckets, cell: &CellRange) {
    let (first, more) = buckets
        .entry((cell.reg, cell.row))
        .or_insert((cell.warps, Vec::new()));
    // A second copy of a mask would change no answer.
    if *first != cell.warps {
        more.push(cell.warps);
    }
}

fn bucket_intersects(buckets: &Buckets, cell: &CellRange) -> bool {
    let Some((first, more)) = buckets.get(&(cell.reg, cell.row)) else {
        return false;
    };
    std::iter::once(first)
        .chain(more)
        .any(|m| m.intersects(&cell.warps))
}

/// The peephole itself: accumulates the current run of mergeable crossing
/// moves while [`PimCluster::submit_batch`](crate::PimCluster::submit_batch)
/// routes a batch; the cluster stages the whole run as one bulk transfer
/// when it breaks, then [`clear`](MoveCoalescer::clear)s it.
///
/// Every member's crossing pairs are appended to one buffer and the move's
/// own buffer goes back to the router, so a run allocates nothing per move
/// once its buffers have grown. Hazard lookups are bucketed in a map keyed
/// by `(register, row)` (a cheap hash; a bucket keeps its first warp mask
/// inline), so accepting a move into a large run checks only the masks
/// sharing its register and row — a whole-memory shift (distinct rows per
/// member) coalesces its thousands of phase moves in linear time.
#[derive(Debug, Default)]
pub struct MoveCoalescer {
    /// The run's members, each with the range of its pairs in `pairs`.
    members: Vec<(CrossingMove, Range<usize>)>,
    /// Every member's crossing pairs, in stream order.
    pairs: Vec<(u32, u32)>,
    /// Read cell ranges of the run's members, keyed by `(reg, row)`.
    reads: Buckets,
    /// Write cell ranges of the run's members, keyed by `(reg, row)`.
    writes: Buckets,
}

impl MoveCoalescer {
    /// A fresh coalescer with an empty run.
    pub fn new() -> Self {
        MoveCoalescer::default()
    }

    /// Whether the current run is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Crossing moves accumulated in the current run.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether `mv` may join the current run: any move starts an empty
    /// run; a non-empty run accepts moves with the run's distance that are
    /// cell-independent of every member (see the module docs).
    pub fn accepts(&self, mv: &CrossingMove) -> bool {
        self.members.first().is_none_or(|(first, _)| {
            mv.dist == first.dist
                && !bucket_intersects(&self.reads, &mv.writes)
                && !bucket_intersects(&self.writes, &mv.reads)
                && !bucket_intersects(&self.writes, &mv.writes)
        })
    }

    /// Appends `mv` to the current run and returns its pair buffer,
    /// emptied, for the next move to be routed into.
    ///
    /// # Panics
    ///
    /// Panics if [`accepts`](MoveCoalescer::accepts) is false for `mv` —
    /// merging a hazardous move would corrupt memory.
    pub fn push(&mut self, mut mv: CrossingMove) -> Vec<(u32, u32)> {
        assert!(self.accepts(&mv), "pushed a move the coalescer rejects");
        bucket_insert(&mut self.reads, &mv.reads);
        bucket_insert(&mut self.writes, &mv.writes);
        let start = self.pairs.len();
        self.pairs.append(&mut mv.pairs);
        let pairs = std::mem::take(&mut mv.pairs);
        self.members.push((mv, start..self.pairs.len()));
        pairs
    }

    /// The crossing pairs of every member of the run, in stream order.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// The run's members in stream order, each with its crossing pairs.
    pub(crate) fn members(&self) -> impl Iterator<Item = (&CrossingMove, &[(u32, u32)])> {
        self.members
            .iter()
            .map(|(mv, range)| (mv, &self.pairs[range.clone()]))
    }

    /// Empties the run, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.members.clear();
        self.pairs.clear();
        self.reads.clear();
        self.writes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardPlan;
    use pim_arch::PimConfig;

    fn plan4() -> ShardPlan {
        ShardPlan::new(&PimConfig::small().with_crossbars(4), 4).unwrap()
    }

    /// A crossing move over `warps`+`dist` with explicit registers/rows.
    fn mv(
        plan: &ShardPlan,
        warps: RangeMask,
        dist: i32,
        src: u8,
        dst: u8,
        row_src: u32,
        row_dst: u32,
    ) -> CrossingMove {
        let route = plan.route_move_warps(&warps, dist);
        CrossingMove::new(route, &warps, dist, src, dst, row_src, row_dst)
            .unwrap()
            .expect("test move must cross")
    }

    #[test]
    fn non_crossing_move_yields_none() {
        let p = plan4();
        let warps = RangeMask::new(0, 1, 1).unwrap();
        let route = p.route_move_warps(&warps, 1); // stays on shard 0
        let built = CrossingMove::new(route, &warps, 1, 0, 1, 0, 0);
        assert!(built.unwrap().is_none());
    }

    #[test]
    fn a_move_off_the_warp_space_is_a_typed_error() {
        // Unvalidated: warp 0 - 1 has no destination.
        let (p, warps) = (plan4(), RangeMask::single(0));
        let route = p.route_move_warps(&warps, -1);
        let err = CrossingMove::new(route, &warps, -1, 0, 1, 0, 0).unwrap_err();
        assert!(
            matches!(err, ClusterError::Invalid(ArchError::InvalidMove { .. })),
            "{err}"
        );
    }

    #[test]
    fn merges_same_distance_disjoint_rows() {
        // The shifted() decomposition: same registers, same dist, one move
        // per row class — all mergeable into one run.
        let p = plan4();
        let mut c = MoveCoalescer::new();
        for row in 0..8 {
            let m = mv(&p, RangeMask::new(8, 15, 1).unwrap(), -8, 0, 1, row, row);
            assert!(c.accepts(&m), "row {row} must merge");
            c.push(m);
        }
        assert_eq!(c.len(), 8);
        // Every member's eight pairs, in stream order.
        assert_eq!(c.pairs().len(), 8 * 8);
        assert_eq!(c.pairs()[..2], [(8, 0), (9, 1)]);
        // One barrier scope: shards 0..=3 all touched (src 2,3 / dst 0,1).
        assert_eq!(p.touched_shards(c.pairs()), vec![true; 4]);
        let members: Vec<usize> = c.members().map(|(_, pairs)| pairs.len()).collect();
        assert_eq!(members, vec![8; 8]);
        c.clear();
        assert!(c.is_empty());
        assert!(c.pairs().is_empty());
    }

    #[test]
    fn rejects_different_distance() {
        let p = plan4();
        let mut c = MoveCoalescer::new();
        c.push(mv(&p, RangeMask::new(8, 11, 1).unwrap(), -8, 0, 1, 0, 0));
        let other = mv(&p, RangeMask::new(12, 15, 1).unwrap(), -12, 0, 1, 1, 1);
        assert!(!c.accepts(&other), "different distances must not merge");
    }

    #[test]
    fn rejects_write_write_overlap() {
        let p = plan4();
        let mut c = MoveCoalescer::new();
        // Both write (reg 1, row 0, warps 0..=3).
        c.push(mv(&p, RangeMask::new(8, 11, 1).unwrap(), -8, 0, 1, 0, 0));
        let clash = mv(&p, RangeMask::new(8, 11, 1).unwrap(), -8, 0, 1, 1, 0);
        assert!(!c.accepts(&clash), "overlapping destination cells");
        // The same shape landing on a different destination row (and warp
        // window) is independent.
        let ok = mv(&p, RangeMask::new(12, 15, 1).unwrap(), -8, 0, 1, 1, 1);
        assert!(c.accepts(&ok));
    }

    #[test]
    fn rejects_read_write_hazards_both_directions() {
        let p = plan4();
        let mut c = MoveCoalescer::new();
        // The run reads (reg 0, row 0, warps 8..=11) and writes
        // (reg 1, row 0, warps 0..=3).
        c.push(mv(&p, RangeMask::new(8, 11, 1).unwrap(), -8, 0, 1, 0, 0));
        // Writes cells the run's deferred gather still reads.
        let clobbers_read = mv(&p, RangeMask::new(0, 3, 1).unwrap(), 8, 2, 0, 5, 0);
        assert!(!c.accepts(&clobbers_read));
        // Reads cells the run's deferred scatter has not written yet.
        let reads_pending = mv(&p, RangeMask::new(0, 3, 1).unwrap(), 8, 1, 3, 0, 0);
        assert!(!c.accepts(&reads_pending));
        // A same-distance move touching rows the run never uses is
        // independent.
        let disjoint = mv(&p, RangeMask::new(12, 15, 1).unwrap(), -8, 1, 3, 7, 7);
        assert!(c.accepts(&disjoint));
    }

    #[test]
    fn a_second_range_on_a_key_is_checked() {
        // 4 shards x 8 warps: a distance of 8 always crosses a chip.
        let p = ShardPlan::new(&PimConfig::small().with_crossbars(8), 4).unwrap();
        let mut c = MoveCoalescer::new();
        // Two members on the same (register, row) keys with disjoint warp
        // masks: both read (reg 0, row 0) and write (reg 1, row 0), so the
        // second member's ranges sit behind the first's in their buckets.
        c.push(mv(&p, RangeMask::new(8, 9, 1).unwrap(), 8, 0, 1, 0, 0));
        let second = mv(&p, RangeMask::new(10, 11, 1).unwrap(), 8, 0, 1, 0, 0);
        assert!(c.accepts(&second));
        c.push(second);
        // Each third move overlaps the second member alone (warp 10 is
        // read by it, warp 18 written by it).
        // Writes (1, 0, {18}): the second member's write range.
        let write_write = mv(&p, RangeMask::single(10), 8, 2, 1, 5, 0);
        assert!(
            !c.accepts(&write_write),
            "write-write with the second member"
        );
        // Reads (1, 0, {18}): what the second member's scatter still owes.
        let reads_pending = mv(&p, RangeMask::single(18), 8, 1, 3, 0, 7);
        assert!(
            !c.accepts(&reads_pending),
            "read-after-write on the second member"
        );
        // Writes (0, 0, {10}): what the second member's gather still reads.
        let clobbers_read = mv(&p, RangeMask::single(2), 8, 2, 0, 5, 0);
        assert!(
            !c.accepts(&clobbers_read),
            "write-after-read on the second member"
        );
        // The same shapes one warp past the run are independent.
        let clear = mv(&p, RangeMask::single(12), 8, 2, 1, 5, 0);
        assert!(c.accepts(&clear));
    }

    #[test]
    fn phase_chains_merge_when_registers_differ() {
        // Phase-split moves chain warp sets (destination warps of one
        // phase are source warps of the next — the overlap that forced
        // the split) but read reg 0 and write reg 1: cells never collide,
        // so the run must absorb the whole chain. One-crossbar shards make
        // every phase a crossing move.
        let p = ShardPlan::new(&PimConfig::small().with_crossbars(1), 8).unwrap();
        let mut c = MoveCoalescer::new();
        // Phase 1 of a dist-1 overlapping shift: src {0, 4} -> dst {1, 5}.
        c.push(mv(&p, RangeMask::strided(0, 2, 4).unwrap(), 1, 0, 1, 0, 0));
        // Phase 2: src {1, 5} (the previous phase's destinations) ->
        // dst {2, 6}.
        let b = mv(&p, RangeMask::strided(1, 2, 4).unwrap(), 1, 0, 1, 0, 0);
        assert!(c.accepts(&b), "register-disjoint phase chain must merge");
    }

    #[test]
    #[should_panic(expected = "coalescer rejects")]
    fn push_panics_on_rejected_move() {
        let p = plan4();
        let mut c = MoveCoalescer::new();
        c.push(mv(&p, RangeMask::new(8, 11, 1).unwrap(), -8, 0, 1, 0, 0));
        c.push(mv(&p, RangeMask::new(12, 15, 1).unwrap(), -12, 0, 1, 1, 1));
    }
}
