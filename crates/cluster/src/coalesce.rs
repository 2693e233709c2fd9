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

use crate::{ClusterError, MoveRoute, ShardPlan};
use pim_arch::{ArchError, RangeMask};
use std::collections::HashMap;

/// The cells one side of a `MoveWarps` touches: one register/row across a
/// warp mask.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CellRange {
    reg: u8,
    row: u32,
    warps: RangeMask,
}

/// Whether two warp masks (arithmetic progressions) share an element.
/// Probes the coarser progression inside the masks' interval overlap and
/// membership-tests the other — at most `(hi - lo) / max_step + 1` checks,
/// and the all-dense case short-circuits on the first probe.
fn masks_overlap(a: &RangeMask, b: &RangeMask) -> bool {
    let lo = a.start().max(b.start());
    let hi = a.stop().min(b.stop());
    if lo > hi {
        return false;
    }
    let (probe, other) = if a.step() >= b.step() { (a, b) } else { (b, a) };
    // First probe element >= lo (lo >= probe.start() since lo is the max).
    let mut w = probe.start() + (lo - probe.start()).div_ceil(probe.step()) * probe.step();
    while w <= hi {
        if other.contains(w) {
            return true;
        }
        w += probe.step();
    }
    false
}

/// One routed chip-crossing `MoveWarps`: the route (crossing pairs +
/// shard-local remainder), the move's register/row parameters, and the
/// cell ranges the *whole* logical move reads and writes (the hazard
/// footprint the coalescer checks).
#[derive(Debug, Clone)]
pub struct CrossingMove {
    route: MoveRoute,
    dist: i32,
    reads: CellRange,
    writes: CellRange,
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
        Ok(Some(CrossingMove {
            route,
            dist,
            reads: CellRange {
                reg: src,
                row: row_src,
                warps: *warps,
            },
            writes: CellRange {
                reg: dst,
                row: row_dst,
                warps: dst_warps,
            },
        }))
    }

    /// The crossing `(source, destination)` global warp pairs.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.route.cross
    }

    /// Source register of the move.
    pub fn src(&self) -> u8 {
        self.reads.reg
    }

    /// Destination register of the move.
    pub fn dst(&self) -> u8 {
        self.writes.reg
    }

    /// Source row of the move.
    pub fn row_src(&self) -> u32 {
        self.reads.row
    }

    /// Destination row of the move.
    pub fn row_dst(&self) -> u32 {
        self.writes.row
    }
}

/// The peephole itself: accumulates the current run of mergeable crossing
/// moves while [`PimCluster::submit_batch`](crate::PimCluster::submit_batch)
/// routes a batch, handing the whole run back for one bulk transfer when
/// it breaks.
///
/// Hazard lookups are bucketed in a map keyed by `(register, row)`, so
/// accepting a move into a large run checks only the masks sharing its
/// register and row — a whole-memory shift (distinct rows per member)
/// coalesces its thousands of phase moves in linear time.
#[derive(Debug, Default)]
pub struct MoveCoalescer {
    run: Vec<CrossingMove>,
    dist: i32,
    /// Read cell ranges of the run's members, keyed by `(reg, row)`.
    reads: HashMap<(u8, u32), Vec<RangeMask>>,
    /// Write cell ranges of the run's members, keyed by `(reg, row)`.
    writes: HashMap<(u8, u32), Vec<RangeMask>>,
}

fn bucket_insert(buckets: &mut HashMap<(u8, u32), Vec<RangeMask>>, cell: &CellRange) {
    buckets
        .entry((cell.reg, cell.row))
        .or_default()
        .push(cell.warps);
}

fn bucket_intersects(buckets: &HashMap<(u8, u32), Vec<RangeMask>>, cell: &CellRange) -> bool {
    buckets
        .get(&(cell.reg, cell.row))
        .is_some_and(|masks| masks.iter().any(|m| masks_overlap(m, &cell.warps)))
}

impl MoveCoalescer {
    /// A fresh coalescer with an empty run.
    pub fn new() -> Self {
        MoveCoalescer::default()
    }

    /// Whether the current run is empty.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// Crossing moves accumulated in the current run.
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// Whether `mv` may join the current run: any move starts an empty
    /// run; a non-empty run accepts moves with the run's distance that are
    /// cell-independent of every member (see the module docs).
    pub fn accepts(&self, mv: &CrossingMove) -> bool {
        if self.run.is_empty() {
            return true;
        }
        mv.dist == self.dist
            && !bucket_intersects(&self.reads, &mv.writes)
            && !bucket_intersects(&self.writes, &mv.reads)
            && !bucket_intersects(&self.writes, &mv.writes)
    }

    /// Appends `mv` to the current run.
    ///
    /// # Panics
    ///
    /// Panics if [`accepts`](MoveCoalescer::accepts) is false for `mv` —
    /// merging a hazardous move would corrupt memory.
    pub fn push(&mut self, mv: CrossingMove) {
        assert!(self.accepts(&mv), "pushed a move the coalescer rejects");
        if self.run.is_empty() {
            self.dist = mv.dist;
        }
        bucket_insert(&mut self.reads, &mv.reads);
        bucket_insert(&mut self.writes, &mv.writes);
        self.run.push(mv);
    }

    /// Takes the current run (stream order), leaving the coalescer empty.
    pub fn take(&mut self) -> Vec<CrossingMove> {
        self.reads.clear();
        self.writes.clear();
        std::mem::take(&mut self.run)
    }

    /// Union of the shards the run's crossing pairs touch — the scope of
    /// the single barrier a merged run pays.
    pub fn touched_shards(run: &[CrossingMove], plan: &ShardPlan) -> Vec<bool> {
        let mut touched = vec![false; plan.shards()];
        for mv in run {
            for (shard, t) in mv.route.touched_shards(plan).into_iter().enumerate() {
                touched[shard] = touched[shard] || t;
            }
        }
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn masks_overlap_cases() {
        let m = |s, l, t| RangeMask::strided(s, l, t).unwrap();
        assert!(masks_overlap(&m(0, 4, 1), &m(3, 4, 1)));
        assert!(!masks_overlap(&m(0, 4, 1), &m(4, 4, 1)));
        // Same step, incongruent phases.
        assert!(!masks_overlap(&m(0, 8, 2), &m(1, 8, 2)));
        assert!(masks_overlap(&m(0, 8, 2), &m(2, 8, 2)));
        // Different steps: {0,3,6,9} vs {4,6,8}.
        assert!(masks_overlap(&m(0, 4, 3), &m(4, 3, 2)));
        // {0,3,9} vs {4,8}: no common element.
        assert!(!masks_overlap(&m(0, 4, 3), &m(4, 2, 4)));
        // Singles.
        assert!(masks_overlap(&RangeMask::single(5), &m(1, 5, 2)));
        assert!(!masks_overlap(&RangeMask::single(6), &m(1, 5, 2)));
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
        let run = c.take();
        assert!(c.is_empty());
        assert_eq!(run.len(), 8);
        // One barrier scope: shards 0..=3 all touched (src 2,3 / dst 0,1).
        assert_eq!(
            MoveCoalescer::touched_shards(&run, &p),
            vec![true, true, true, true]
        );
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
