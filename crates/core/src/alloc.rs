//! PIM-optimized dynamic memory management (§V-A).
//!
//! A tensor occupies a *stripe*: one ISA register index across all rows of
//! a contiguous range of warps. Parallel operations require operands in the
//! same threads, so the allocator works to co-locate tensors: requests can
//! name a *reference stripe* (the paper's reference-tensor option), and the
//! fallback copy in the ops layer handles the misaligned remainder.

use crate::{CoreError, Result};
use pim_arch::PimConfig;
use pim_cluster::ShardPlan;
use std::collections::BTreeMap;

/// A register stripe: register `reg` across every row of warps
/// `warp_start .. warp_start + warps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stripe {
    /// ISA register index.
    pub reg: u8,
    /// First warp of the stripe.
    pub warp_start: u32,
    /// Number of consecutive warps.
    pub warps: u32,
}

/// A preferred warp window for allocations — the per-client placement of
/// the serving gateway (§V-A dynamic memory management under concurrent
/// clients).
///
/// Allocations carrying a hint are confined to the window first (any
/// register), so one client's tensors co-locate with each other instead of
/// with every other client's. Windows reserved through
/// [`MemoryManager::reserve_window`] are *hard*: no other allocation —
/// hinted elsewhere or unhinted — ever lands inside one, which both keeps
/// concurrent sessions from exhausting each other's registers and
/// guarantees that stripes an in-flight instruction plan references cannot
/// be claimed by a different client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementHint {
    /// First warp of the window.
    pub warp_start: u32,
    /// Number of consecutive warps.
    pub warps: u32,
}

impl PlacementHint {
    /// Whether two windows share any warp.
    pub fn overlaps(&self, other: &PlacementHint) -> bool {
        self.warp_start < other.warp_start + other.warps
            && other.warp_start < self.warp_start + self.warps
    }

    /// Whether the warp range `[start, start + len)` lies inside the
    /// window.
    pub fn contains(&self, start: u32, len: u32) -> bool {
        start >= self.warp_start && start + len <= self.warp_start + self.warps
    }
}

/// Free-interval bookkeeping for one register index.
#[derive(Debug, Default, Clone)]
struct Intervals {
    /// `start -> len` of free warp ranges, non-overlapping, non-adjacent.
    free: BTreeMap<u32, u32>,
}

impl Intervals {
    fn new(total: u32) -> Self {
        let mut free = BTreeMap::new();
        free.insert(0, total);
        Intervals { free }
    }

    /// Claims `[start, start+len)` exactly; `false` if not fully free.
    fn claim_exact(&mut self, start: u32, len: u32) -> bool {
        let (&fs, &fl) = match self.free.range(..=start).next_back() {
            Some(kv) => kv,
            None => return false,
        };
        if start < fs || start + len > fs + fl {
            return false;
        }
        self.free.remove(&fs);
        if start > fs {
            self.free.insert(fs, start - fs);
        }
        if fs + fl > start + len {
            self.free.insert(start + len, fs + fl - (start + len));
        }
        true
    }

    /// Claims the first free range of `len` warps.
    fn claim_first(&mut self, len: u32) -> Option<u32> {
        let start = self.free.iter().find(|(_, &l)| l >= len).map(|(&s, _)| s)?;
        self.claim_exact(start, len).then_some(start)
    }

    /// Claims the first free range of `len` warps lying entirely within
    /// `[lo, hi)`.
    fn claim_first_within(&mut self, lo: u32, hi: u32, len: u32) -> Option<u32> {
        let start = self.free.iter().find_map(|(&s, &l)| {
            let cand = s.max(lo);
            (cand + len <= (s + l).min(hi)).then_some(cand)
        })?;
        self.claim_exact(start, len).then_some(start)
    }

    /// Claims the first free range of `len` warps that lies inside one
    /// `chunk`-aligned block (never straddling a block boundary) and
    /// avoids every reserved window — the shard-local placement rule:
    /// with `chunk = warps_per_shard`, the claimed stripe stays on a
    /// single chip.
    fn claim_first_chunk_local(
        &mut self,
        len: u32,
        chunk: u32,
        reserved: &[PlacementHint],
    ) -> Option<u32> {
        debug_assert!(len <= chunk);
        let start = self.free.iter().find_map(|(&s, &l)| {
            let end = s + l;
            let mut pos = s;
            while pos + len <= end {
                // Bump past a block boundary the candidate would straddle.
                let block_end = (pos / chunk + 1) * chunk;
                if pos + len > block_end {
                    pos = block_end;
                    continue;
                }
                match reserved
                    .iter()
                    .filter(|r| r.warp_start < pos + len && pos < r.warp_start + r.warps)
                    .map(|r| r.warp_start + r.warps)
                    .max()
                {
                    None => return Some(pos),
                    Some(next) => pos = next,
                }
            }
            None
        })?;
        self.claim_exact(start, len).then_some(start)
    }

    /// Claims the first free range of `len` warps that avoids every
    /// reserved window — the headroom rule for unhinted allocations. The
    /// chunk-local search with an unstraddleable block: one shared
    /// reservation-skip loop for both claim paths.
    fn claim_first_avoiding(&mut self, len: u32, reserved: &[PlacementHint]) -> Option<u32> {
        self.claim_first_chunk_local(len, u32::MAX, reserved)
    }

    /// Returns `[start, start+len)` to the free set, merging neighbors.
    fn release(&mut self, start: u32, len: u32) {
        let mut start = start;
        let mut len = len;
        if let Some((&ps, &pl)) = self.free.range(..start).next_back() {
            assert!(ps + pl <= start, "double free of warp range");
            if ps + pl == start {
                self.free.remove(&ps);
                start = ps;
                len += pl;
            }
        }
        if let Some((&ns, &nl)) = self.free.range(start + len..).next() {
            if start + len == ns {
                self.free.remove(&ns);
                len += nl;
            }
        }
        assert!(
            self.free.range(start..start + len).next().is_none(),
            "double free of warp range"
        );
        self.free.insert(start, len);
    }
}

/// The stripe allocator over all ISA registers.
#[derive(Debug)]
pub struct MemoryManager {
    per_reg: Vec<Intervals>,
    total_warps: u32,
    /// Rotating hint so consecutive allocations land in the same warp
    /// window on different registers (maximizing alignment).
    last_window: Option<(u32, u32)>,
    /// Active per-client placement windows ([`reserve_window`]).
    ///
    /// [`reserve_window`]: MemoryManager::reserve_window
    reserved: Vec<PlacementHint>,
    /// Per-placement-window co-location hints: the most recent allocation
    /// window *inside* each client window, so a session's consecutive
    /// equal-sized allocations stack across registers (thread-aligned)
    /// exactly like unhinted ones do globally.
    hint_last: Vec<(PlacementHint, (u32, u32))>,
    /// Rotating cursor spreading successive reservations across the warp
    /// space — on a sharded device that naturally lands different clients
    /// on different chips.
    next_window: u32,
    /// The cluster's shard geometry, when the device is sharded: stripes
    /// whose elements the data-parallel partition places on one chip
    /// ([`ShardPlan::partition_elements`]) prefer a warp range that never
    /// straddles a chip boundary, so operations on small tensors stay
    /// chip-local (zero interconnect traffic).
    shard_plan: Option<ShardPlan>,
}

impl MemoryManager {
    /// Creates a manager for `cfg` (one interval set per ISA register).
    pub fn new(cfg: &PimConfig) -> Self {
        MemoryManager {
            per_reg: (0..cfg.user_regs)
                .map(|_| Intervals::new(cfg.crossbars as u32))
                .collect(),
            total_warps: cfg.crossbars as u32,
            last_window: None,
            reserved: Vec::new(),
            hint_last: Vec::new(),
            next_window: 0,
            shard_plan: None,
        }
    }

    /// Threads the cluster's shard geometry into placement decisions (see
    /// the [`shard_plan`](MemoryManager) field docs). Single-chip devices
    /// leave it unset; [`alloc`](MemoryManager::alloc) then behaves
    /// exactly as before.
    pub fn set_shard_plan(&mut self, plan: Option<ShardPlan>) {
        self.shard_plan = plan;
    }

    /// Reserves a `warps`-warp window for one client session: the window is
    /// window-aligned (its start is a multiple of `warps`), disjoint from
    /// every other active reservation, and — while it stays reserved —
    /// off-limits to every other allocation (see [`alloc`]'s hard-window
    /// rule). Successive reservations rotate through the warp space.
    /// Stripes that were already allocated inside the window stay valid;
    /// only future foreign allocations are excluded.
    ///
    /// [`alloc`]: MemoryManager::alloc
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no disjoint window is left.
    pub fn reserve_window(&mut self, warps: u32) -> Result<PlacementHint> {
        assert!(warps > 0);
        if warps > self.total_warps {
            return Err(CoreError::OutOfMemory {
                elements: warps as usize,
            });
        }
        let slots = self.total_warps / warps;
        let first_slot = (self.next_window / warps).min(slots - 1);
        for i in 0..slots {
            let start = ((first_slot + i) % slots) * warps;
            let cand = PlacementHint {
                warp_start: start,
                warps,
            };
            if self.reserved.iter().all(|r| !r.overlaps(&cand)) {
                self.reserved.push(cand);
                self.next_window = (start + warps) % self.total_warps;
                return Ok(cand);
            }
        }
        Err(CoreError::OutOfMemory {
            elements: warps as usize,
        })
    }

    /// Drops a window reservation (allocations inside it stay valid and
    /// free normally; only the headroom claim ends).
    pub fn release_window(&mut self, window: PlacementHint) {
        if let Some(i) = self.reserved.iter().position(|r| *r == window) {
            self.reserved.swap_remove(i);
        }
        if let Some(i) = self.hint_last.iter().position(|(h, _)| *h == window) {
            self.hint_last.swap_remove(i);
        }
    }

    /// Allocates a stripe of `warps` warps.
    ///
    /// Preference order without a placement hint: the exact window of
    /// `near` (so the new tensor is thread-aligned with the reference
    /// tensor), then the most recent allocation window, then — on a
    /// sharded device, for stripes that fit one chip — the first
    /// chip-local range (never straddling a shard boundary), then first
    /// fit.
    ///
    /// With a placement hint the search is: the `near` window, then the
    /// session's own most recent window (so its tensors stack across
    /// registers), then inside the hinted window (any register), then
    /// outside it — and the global last-window hint is neither consulted
    /// nor updated, so concurrent clients stop funneling into one shared
    /// window.
    ///
    /// Reserved windows are **hard**: no allocation — hinted to a
    /// different window, or unhinted — ever lands inside another client's
    /// reservation; the request fails with `OutOfMemory` instead. (A
    /// serving client clobbering a concurrent session's stripes — possibly
    /// ones an in-flight instruction plan still references — would corrupt
    /// both, so failing fast is the only safe answer.)
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no register has a
    /// sufficiently large free range outside other clients' reservations.
    pub fn alloc(
        &mut self,
        warps: u32,
        near: Option<Stripe>,
        hint: Option<PlacementHint>,
    ) -> Result<Stripe> {
        assert!(warps > 0);
        if warps > self.total_warps {
            return Err(CoreError::OutOfMemory {
                elements: warps as usize,
            });
        }
        // Windows of *other* clients: out of bounds for this allocation.
        let foreign: Vec<PlacementHint> = self
            .reserved
            .iter()
            .copied()
            .filter(|r| hint != Some(*r))
            .collect();
        let permitted = |start: u32| {
            foreign
                .iter()
                .all(|r| !(r.warp_start < start + warps && start < r.warp_start + r.warps))
        };
        // 1. Exact window of the reference stripe and of the most recent
        //    allocation (global for unhinted callers, per client window
        //    for hinted ones), any register.
        let recent = match hint {
            None => self.last_window,
            Some(h) => self
                .hint_last
                .iter()
                .find(|(hw, _)| *hw == h)
                .map(|&(_, w)| w),
        };
        let windows: Vec<(u32, u32)> = [near.map(|s| (s.warp_start, s.warps)), recent]
            .into_iter()
            .flatten()
            .filter(|&(start, w)| w == warps && permitted(start))
            .collect();
        for (start, _) in windows {
            for (reg, iv) in self.per_reg.iter_mut().enumerate() {
                if iv.claim_exact(start, warps) {
                    return Ok(self.note(reg, start, warps, hint));
                }
            }
        }
        // 2. Hinted: first fit inside the client's window (reservations
        //    are disjoint, so the window cannot overlap a foreign one).
        if let Some(h) = hint {
            let (lo, hi) = (h.warp_start, h.warp_start + h.warps);
            for (reg, iv) in self.per_reg.iter_mut().enumerate() {
                if let Some(start) = iv.claim_first_within(lo, hi, warps) {
                    return Ok(self.note(reg, start, warps, hint));
                }
            }
        }
        // 3. Shard-local placement: when the data-parallel partition
        //    ([`ShardPlan::partition_elements`]) puts every thread of a
        //    stripe this size on a single chip, claim a warp range that
        //    does not straddle a shard boundary, so the tensor's
        //    operations never touch the interconnect. Falls through to
        //    the spanning search when fragmentation leaves no chip-local
        //    range.
        let chunk = self.shard_plan.as_ref().and_then(|p| {
            let rows = p.threads_per_shard() / p.warps_per_shard();
            let shards_spanned = p
                .partition_elements(warps as usize * rows)
                .into_iter()
                .filter(|r| !r.is_empty())
                .count();
            (shards_spanned <= 1).then(|| p.warps_per_shard() as u32)
        });
        if let Some(chunk) = chunk {
            for (reg, iv) in self.per_reg.iter_mut().enumerate() {
                if let Some(start) = iv.claim_first_chunk_local(warps, chunk, &foreign) {
                    return Ok(self.note(reg, start, warps, hint));
                }
            }
        }
        // 4. First fit across registers, never inside a foreign window.
        if foreign.is_empty() {
            for (reg, iv) in self.per_reg.iter_mut().enumerate() {
                if let Some(start) = iv.claim_first(warps) {
                    return Ok(self.note(reg, start, warps, hint));
                }
            }
        } else {
            for (reg, iv) in self.per_reg.iter_mut().enumerate() {
                if let Some(start) = iv.claim_first_avoiding(warps, &foreign) {
                    return Ok(self.note(reg, start, warps, hint));
                }
            }
        }
        Err(CoreError::OutOfMemory {
            elements: warps as usize,
        })
    }

    /// Records the appropriate co-location hint (global or per client
    /// window) and builds the stripe.
    fn note(&mut self, reg: usize, start: u32, warps: u32, hint: Option<PlacementHint>) -> Stripe {
        match hint {
            None => self.last_window = Some((start, warps)),
            Some(h) => {
                if let Some(entry) = self.hint_last.iter_mut().find(|(hw, _)| *hw == h) {
                    entry.1 = (start, warps);
                } else {
                    self.hint_last.push((h, (start, warps)));
                }
            }
        }
        Stripe {
            reg: reg as u8,
            warp_start: start,
            warps,
        }
    }

    /// Allocates a stripe covering exactly the window of `like` (any free
    /// register) — used by the fallback-copy path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when every register is occupied
    /// in that window.
    pub fn alloc_like(&mut self, like: Stripe) -> Result<Stripe> {
        for (reg, iv) in self.per_reg.iter_mut().enumerate() {
            if iv.claim_exact(like.warp_start, like.warps) {
                return Ok(Stripe {
                    reg: reg as u8,
                    warp_start: like.warp_start,
                    warps: like.warps,
                });
            }
        }
        Err(CoreError::OutOfMemory {
            elements: like.warps as usize,
        })
    }

    /// Returns a stripe to the free pool.
    pub fn free(&mut self, stripe: Stripe) {
        self.per_reg[stripe.reg as usize].release(stripe.warp_start, stripe.warps);
    }

    /// Total free warp-stripes summed over registers (for tests).
    pub fn free_capacity(&self) -> u64 {
        self.per_reg
            .iter()
            .map(|iv| iv.free.values().map(|&l| l as u64).sum::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> MemoryManager {
        MemoryManager::new(&PimConfig::small()) // 16 warps, 16 user regs
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut m = mgr();
        let total = m.free_capacity();
        let a = m.alloc(4, None, None).unwrap();
        let b = m.alloc(4, None, None).unwrap();
        assert_eq!(m.free_capacity(), total - 8);
        m.free(a);
        m.free(b);
        assert_eq!(m.free_capacity(), total);
    }

    #[test]
    fn consecutive_allocations_align() {
        let mut m = mgr();
        let a = m.alloc(4, None, None).unwrap();
        let b = m.alloc(4, None, None).unwrap();
        // Same warp window, different registers (the malloc behavior §V-A
        // describes for enabling parallelism).
        assert_eq!(a.warp_start, b.warp_start);
        assert_ne!(a.reg, b.reg);
    }

    #[test]
    fn reference_tensor_alignment() {
        let mut m = mgr();
        let a = m.alloc(2, None, None).unwrap();
        let _filler = m.alloc(8, None, None).unwrap();
        let c = m.alloc(2, Some(a), None).unwrap();
        assert_eq!(c.warp_start, a.warp_start);
    }

    #[test]
    fn alloc_like_claims_exact_window() {
        let mut m = mgr();
        let a = m.alloc(3, None, None).unwrap();
        let b = m.alloc_like(a).unwrap();
        assert_eq!((b.warp_start, b.warps), (a.warp_start, a.warps));
        assert_ne!(b.reg, a.reg);
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut m = mgr();
        // 16 regs x 16 warps; take everything.
        let mut stripes = Vec::new();
        for _ in 0..16 {
            stripes.push(m.alloc(16, None, None).unwrap());
        }
        assert!(matches!(
            m.alloc(1, None, None),
            Err(CoreError::OutOfMemory { .. })
        ));
        m.free(stripes.pop().unwrap());
        assert!(m.alloc(16, None, None).is_ok());
    }

    #[test]
    fn interval_merging() {
        let mut m = mgr();
        let a = m.alloc(5, None, None).unwrap();
        let b = m.alloc(5, None, None).unwrap();
        let c = m.alloc(6, None, None).unwrap();
        // a, b, c may be on different regs; force same-reg fragmentation:
        let on_same_reg: Vec<Stripe> = [a, b, c].into_iter().filter(|s| s.reg == a.reg).collect();
        for s in on_same_reg {
            m.free(s);
        }
        // After freeing, a 16-warp alloc on reg 0 must succeed again if all
        // three were on reg 0; otherwise at least the capacity accounting
        // holds.
        let cap = m.free_capacity();
        let big = m.alloc(16, None, None).unwrap();
        m.free(big);
        assert_eq!(m.free_capacity(), cap);
    }

    #[test]
    fn rejects_oversized() {
        let mut m = mgr();
        assert!(m.alloc(17, None, None).is_err());
    }

    #[test]
    fn reservations_rotate_and_stay_disjoint() {
        let mut m = mgr(); // 16 warps
        let a = m.reserve_window(4).unwrap();
        let b = m.reserve_window(4).unwrap();
        let c = m.reserve_window(4).unwrap();
        let d = m.reserve_window(4).unwrap();
        for (i, w) in [a, b, c, d].iter().enumerate() {
            assert_eq!(w.warp_start % 4, 0, "window {i} must be aligned");
            for (j, o) in [a, b, c, d].iter().enumerate() {
                if i != j {
                    assert!(!w.overlaps(o), "windows {i} and {j} alias");
                }
            }
        }
        // The space is fully tiled: a fifth same-size session fails...
        assert!(m.reserve_window(4).is_err());
        // ...until one releases its window.
        m.release_window(b);
        let e = m.reserve_window(4).unwrap();
        assert_eq!(e, b);
    }

    /// 4 chips x 4 crossbars: the 16-warp geometry of `mgr()` with shard
    /// boundaries at warps 4, 8, 12.
    fn plan4x4() -> ShardPlan {
        ShardPlan::new(&PimConfig::small().with_crossbars(4), 4).unwrap()
    }

    #[test]
    fn shard_local_placement_avoids_straddling() {
        let mut m = mgr();
        m.set_shard_plan(Some(plan4x4()));
        let a = m.alloc(3, None, None).unwrap();
        assert_eq!((a.warp_start, a.reg), (0, 0));
        // Plain first fit would land at warp 3, straddling the chip
        // boundary at warp 4; shard-aware placement skips to chip 1.
        let b = m.alloc(2, None, None).unwrap();
        assert_eq!(b.warp_start, 4, "stripe must not straddle a shard");
        // Consecutive equal-sized allocations still co-locate (stacking
        // across registers), staying chip-local too.
        let b2 = m.alloc(2, None, None).unwrap();
        assert_eq!(b2.warp_start, 4);
        assert_ne!(b2.reg, b.reg);
        // A stripe bigger than one chip spans shards as before.
        let big = m.alloc(6, None, None).unwrap();
        assert_eq!(big.warp_start, 6, "multi-shard stripes first-fit");
    }

    #[test]
    fn shard_local_placement_falls_back_when_fragmented() {
        // One register, 16 warps: carve the free set down to [2, 6) — a
        // range holding no chip-local 3-warp stripe (blocks end at 4).
        let mut m = MemoryManager::new(&{
            let mut cfg = PimConfig::small();
            cfg.user_regs = 1;
            cfg
        });
        m.set_shard_plan(Some(plan4x4()));
        let _a = m.alloc(2, None, None).unwrap(); // [0, 2)
        let b = m.alloc(2, None, None).unwrap(); // [2, 4)
        let c = m.alloc(2, None, None).unwrap(); // [4, 6)
        let _d = m.alloc(10, None, None).unwrap(); // [6, 16) (spans shards)
        m.free(b);
        m.free(c);
        // No chip-local fit for 3 warps in [2, 6): rather than fail, the
        // allocator falls back to the straddling range.
        let s = m.alloc(3, None, None).unwrap();
        assert_eq!(s.warp_start, 2, "fallback must reuse the fragment");
    }

    #[test]
    fn shard_local_placement_respects_reservations() {
        let mut m = mgr();
        m.set_shard_plan(Some(plan4x4()));
        // A session reserves chip 0's window; unhinted allocations must
        // stay out of it *and* chip-local.
        let w = m.reserve_window(4).unwrap();
        assert_eq!(w.warp_start, 0);
        let s = m.alloc(2, None, None).unwrap();
        assert_eq!(s.warp_start, 4, "skips the reservation, stays local");
        // Reservations still never alias each other with a plan set.
        let w2 = m.reserve_window(4).unwrap();
        let w3 = m.reserve_window(4).unwrap();
        assert!(!w.overlaps(&w2) && !w.overlaps(&w3) && !w2.overlaps(&w3));
    }

    #[test]
    fn hinted_allocations_confine_to_window() {
        let mut m = mgr();
        let w = m.reserve_window(4).unwrap();
        // Smaller-than-window allocations still land inside it.
        for _ in 0..8 {
            let s = m.alloc(2, None, Some(w)).unwrap();
            assert!(
                w.contains(s.warp_start, s.warps),
                "stripe {s:?} escaped window {w:?}"
            );
        }
    }

    #[test]
    fn hinted_allocations_stack_within_their_window() {
        // Consecutive equal-sized session allocations must share a warp
        // window on different registers (thread alignment), mirroring the
        // global co-location rule — but tracked per client window.
        let mut m = mgr();
        let w1 = m.reserve_window(4).unwrap();
        let w2 = m.reserve_window(4).unwrap();
        let a1 = m.alloc(2, None, Some(w1)).unwrap();
        let b1 = m.alloc(2, None, Some(w2)).unwrap();
        let a2 = m.alloc(2, None, Some(w1)).unwrap();
        let b2 = m.alloc(2, None, Some(w2)).unwrap();
        assert_eq!(a1.warp_start, a2.warp_start, "session 1 stacks");
        assert_ne!(a1.reg, a2.reg);
        assert_eq!(b1.warp_start, b2.warp_start, "session 2 stacks");
        assert_ne!(b1.reg, b2.reg);
    }

    #[test]
    fn hinted_allocation_spills_when_window_full() {
        let mut m = mgr();
        let w = m.reserve_window(4).unwrap();
        // Fill the window on every register, then one more must spill
        // outside rather than fail.
        for _ in 0..16 {
            m.alloc(4, None, Some(w)).unwrap();
        }
        let s = m.alloc(4, None, Some(w)).unwrap();
        assert!(!w.overlaps(&PlacementHint {
            warp_start: s.warp_start,
            warps: s.warps,
        }));
    }

    #[test]
    fn reserved_windows_are_hard_for_foreign_allocations() {
        let mut m = mgr();
        let w = m.reserve_window(8).unwrap();
        // Plain allocations steer clear of the session's window.
        let mut outside = Vec::new();
        for _ in 0..16 {
            let s = m.alloc(8, None, None).unwrap();
            assert!(
                !w.overlaps(&PlacementHint {
                    warp_start: s.warp_start,
                    warps: s.warps,
                }),
                "unhinted stripe {s:?} invaded reserved window {w:?}"
            );
            outside.push(s);
        }
        // Everything outside is taken: the reservation is a hard boundary,
        // so the next unhinted allocation fails instead of invading window
        // stripes an in-flight plan might still reference...
        assert!(matches!(
            m.alloc(8, None, None),
            Err(CoreError::OutOfMemory { .. })
        ));
        // ...until the session releases its window.
        m.release_window(w);
        let spill = m.alloc(8, None, None).unwrap();
        assert!(w.contains(spill.warp_start, spill.warps));
    }

    #[test]
    fn hinted_allocations_skip_the_global_window_hint() {
        let mut m = mgr();
        let w = m.reserve_window(4).unwrap();
        // An unhinted allocation avoids the reservation and seeds the
        // global co-location hint with its own window...
        let plain = m.alloc(4, None, None).unwrap();
        assert_ne!(plain.warp_start, w.warp_start);
        // ...but a hinted allocation must ignore that hint and stay in its
        // own window (the funneling bug the serving gateway fixes)...
        let s = m.alloc(4, None, Some(w)).unwrap();
        assert_eq!(s.warp_start, w.warp_start);
        // ...without redirecting the next unhinted allocation either.
        let plain2 = m.alloc(4, None, None).unwrap();
        assert_eq!(plain2.warp_start, plain.warp_start);
    }
}
