use crate::ArchError;
use serde::{Deserialize, Serialize};

/// The flexible range-based activation pattern used by crossbar-mask and
/// row-mask operations (§III-B).
///
/// A mask selects the set `{start, start + step, start + 2·step, …, stop}`,
/// where `step` must divide `stop - start`. This is the pattern the paper
/// identified as sufficient for previous algorithmic PIM works while needing
/// only a small representation (three fields of the 64-bit operation).
///
/// # Example
///
/// ```
/// use pim_arch::RangeMask;
///
/// // All even rows of a 1024-row crossbar — the mask behind `x[::2]`.
/// let m = RangeMask::new(0, 1022, 2)?;
/// assert_eq!(m.len(), 512);
/// assert!(m.contains(8));
/// assert!(!m.contains(9));
/// # Ok::<(), pim_arch::ArchError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RangeMask {
    start: u32,
    stop: u32,
    step: u32,
}

impl RangeMask {
    /// Creates a mask selecting `{start, start+step, …, stop}` (inclusive).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidRange`] if `step == 0`, `stop < start`,
    /// or `step` does not divide `stop - start`.
    pub fn new(start: u32, stop: u32, step: u32) -> Result<Self, ArchError> {
        if step == 0 {
            return Err(ArchError::InvalidRange {
                reason: "step must be nonzero".into(),
            });
        }
        if stop < start {
            return Err(ArchError::InvalidRange {
                reason: format!("stop ({stop}) must be >= start ({start})"),
            });
        }
        if !(stop - start).is_multiple_of(step) {
            return Err(ArchError::InvalidRange {
                reason: format!("step ({step}) must divide stop - start ({})", stop - start),
            });
        }
        Ok(RangeMask { start, stop, step })
    }

    /// Mask selecting a single element.
    pub fn single(index: u32) -> Self {
        RangeMask {
            start: index,
            stop: index,
            step: 1,
        }
    }

    /// Mask selecting the dense range `start..stop` (exclusive stop, step 1).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidRange`] if the range is empty.
    pub fn dense(start: u32, stop_exclusive: u32) -> Result<Self, ArchError> {
        if stop_exclusive <= start {
            return Err(ArchError::InvalidRange {
                reason: format!("dense range {start}..{stop_exclusive} is empty"),
            });
        }
        RangeMask::new(start, stop_exclusive - 1, 1)
    }

    /// Mask selecting `count` elements starting at `start` with stride
    /// `step`: `{start, start+step, …, start+(count-1)·step}`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidRange`] if `count == 0` or `step == 0`.
    pub fn strided(start: u32, count: u32, step: u32) -> Result<Self, ArchError> {
        if count == 0 {
            return Err(ArchError::InvalidRange {
                reason: "count must be nonzero".into(),
            });
        }
        if step == 0 {
            return Err(ArchError::InvalidRange {
                reason: "step must be nonzero".into(),
            });
        }
        RangeMask::new(start, start + (count - 1) * step, step)
    }

    /// First selected index.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Last selected index (inclusive).
    pub fn stop(&self) -> u32 {
        self.stop
    }

    /// Stride between selected indices.
    pub fn step(&self) -> u32 {
        self.step
    }

    /// Number of selected indices.
    pub fn len(&self) -> usize {
        ((self.stop - self.start) / self.step) as usize + 1
    }

    /// `true` when the mask selects exactly one index.
    pub fn is_single(&self) -> bool {
        self.start == self.stop
    }

    /// `true` when the mask selects a contiguous run of indices (step 1).
    ///
    /// Dense masks are the common case on hot paths (whole-memory and
    /// whole-tensor operations), and consumers exploit them: the simulator
    /// applies horizontal gates to contiguous word slices instead of
    /// iterating rows.
    pub fn is_dense(&self) -> bool {
        self.step == 1
    }

    /// The selected indices as a contiguous `usize` range when the mask is
    /// dense (step 1); `None` otherwise.
    pub fn as_dense_range(&self) -> Option<std::ops::Range<usize>> {
        (self.step == 1).then(|| self.start as usize..self.stop as usize + 1)
    }

    /// Always `false`: a valid mask selects at least one index. Provided for
    /// API completeness alongside [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `index` is selected by this mask.
    pub fn contains(&self, index: u32) -> bool {
        index >= self.start && index <= self.stop && (index - self.start).is_multiple_of(self.step)
    }

    /// Whether this mask and `other` select a common index. Only the
    /// window both masks span is searched: two masks of one step share an
    /// index there exactly when their starts differ by a multiple of it;
    /// otherwise the coarser mask's indices there are tested in the finer.
    /// Inlined: the cluster's move coalescer calls it per hazard check.
    #[inline]
    pub fn intersects(&self, other: &RangeMask) -> bool {
        let (lo, hi) = (self.start.max(other.start), self.stop.min(other.stop));
        if lo > hi {
            return false;
        }
        if self.step == other.step {
            return self.start.abs_diff(other.start).is_multiple_of(self.step);
        }
        let coarse = std::cmp::max_by_key(self, other, |m| m.step);
        let fine = std::cmp::min_by_key(self, other, |m| m.step);
        let skip = (coarse.step - (lo - coarse.start) % coarse.step) % coarse.step;
        lo.checked_add(skip).is_some_and(|first| {
            (first..=hi)
                .step_by(coarse.step as usize)
                .any(|index| fine.contains(index))
        })
    }

    /// Iterates over the selected indices in ascending order.
    pub fn iter(&self) -> Iter {
        Iter {
            next: Some(self.start),
            stop: self.stop,
            step: self.step,
        }
    }

    /// Checks that every selected index is below `bound`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::AddressOutOfBounds`] naming `what` if
    /// `stop >= bound`.
    pub fn check_bound(&self, what: &'static str, bound: u64) -> Result<(), ArchError> {
        if (self.stop as u64) < bound {
            Ok(())
        } else {
            Err(ArchError::AddressOutOfBounds {
                what,
                value: self.stop as u64,
                bound,
            })
        }
    }
}

/// Iterator over the indices selected by a [`RangeMask`].
#[derive(Debug, Clone)]
pub struct Iter {
    next: Option<u32>,
    stop: u32,
    step: u32,
}

impl Iterator for Iter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let cur = self.next?;
        self.next = cur.checked_add(self.step).filter(|&n| n <= self.stop);
        Some(cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self.next {
            Some(next) => ((self.stop - next) / self.step) as usize + 1,
            None => 0,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

impl IntoIterator for &RangeMask {
    type Item = u32;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_range() {
        let m = RangeMask::new(4, 16, 4).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![4, 8, 12, 16]);
        assert_eq!(m.len(), 4);
        assert!(!m.is_single());
        assert!(!m.is_empty());
    }

    #[test]
    fn single_element() {
        let m = RangeMask::single(7);
        assert_eq!(m.len(), 1);
        assert!(m.is_single());
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![7]);
        assert!(m.contains(7));
        assert!(!m.contains(8));
    }

    #[test]
    fn dense_range() {
        let m = RangeMask::dense(0, 5).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert!(RangeMask::dense(3, 3).is_err());
        assert!(RangeMask::dense(4, 3).is_err());
    }

    #[test]
    fn strided_range() {
        let m = RangeMask::strided(1, 4, 2).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![1, 3, 5, 7]);
        assert!(RangeMask::strided(0, 0, 1).is_err());
        assert!(RangeMask::strided(0, 3, 0).is_err());
    }

    #[test]
    fn dense_accessors() {
        let d = RangeMask::dense(3, 9).unwrap();
        assert!(d.is_dense());
        assert_eq!(d.as_dense_range(), Some(3..9));
        let s = RangeMask::new(0, 8, 2).unwrap();
        assert!(!s.is_dense());
        assert_eq!(s.as_dense_range(), None);
        let single = RangeMask::single(7);
        assert!(single.is_dense());
        assert_eq!(single.as_dense_range(), Some(7..8));
    }

    #[test]
    fn rejects_malformed() {
        assert!(RangeMask::new(0, 10, 0).is_err());
        assert!(RangeMask::new(10, 0, 1).is_err());
        assert!(RangeMask::new(0, 10, 3).is_err()); // 3 does not divide 10
    }

    #[test]
    fn contains_respects_step() {
        let m = RangeMask::new(2, 14, 3).unwrap();
        for i in 0..20 {
            assert_eq!(m.contains(i), [2, 5, 8, 11, 14].contains(&i), "index {i}");
        }
        // Interleaved sets share no index; a shifted copy does once the
        // shift is a multiple of the step.
        assert!(!m.intersects(&RangeMask::new(3, 15, 3).unwrap()));
        assert!(m.intersects(&RangeMask::new(8, 20, 3).unwrap()));
        assert!(!m.intersects(&RangeMask::dense(15, 20).unwrap()));
        let s = |start, count, step| RangeMask::strided(start, count, step).unwrap();
        // Dense runs that touch and that only abut.
        assert!(s(0, 4, 1).intersects(&s(3, 4, 1)));
        assert!(!s(0, 4, 1).intersects(&s(4, 4, 1)));
        // One step, incongruent and congruent phases.
        assert!(!s(0, 8, 2).intersects(&s(1, 8, 2)));
        assert!(s(0, 8, 2).intersects(&s(2, 8, 2)));
        // Unequal steps: {0,3,6,9} and {4,6,8} share 6; {0,3,6,9} and
        // {4,8} share nothing.
        assert!(s(0, 4, 3).intersects(&s(4, 3, 2)));
        assert!(!s(0, 4, 3).intersects(&s(4, 2, 4)));
        // Singles.
        assert!(RangeMask::single(5).intersects(&s(1, 5, 2)));
        assert!(!RangeMask::single(6).intersects(&s(1, 5, 2)));
    }

    #[test]
    fn bound_check() {
        let m = RangeMask::new(0, 62, 2).unwrap();
        m.check_bound("row", 63).unwrap();
        m.check_bound("row", 64).unwrap();
        let err = m.check_bound("row", 62).unwrap_err();
        assert!(matches!(
            err,
            ArchError::AddressOutOfBounds { what: "row", .. }
        ));
    }

    #[test]
    fn iterator_does_not_overflow_at_u32_max() {
        let m = RangeMask::new(u32::MAX - 2, u32::MAX, 2).unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![u32::MAX - 2, u32::MAX]);
    }

    proptest! {
        #[test]
        fn len_matches_iter_count(start in 0u32..1000, n in 1u32..100, step in 1u32..50) {
            let m = RangeMask::strided(start, n, step).unwrap();
            prop_assert_eq!(m.len(), m.iter().count());
            prop_assert_eq!(m.len(), n as usize);
            prop_assert_eq!(m.iter().size_hint().0, n as usize);
        }

        #[test]
        fn iter_elements_all_contained(start in 0u32..1000, n in 1u32..100, step in 1u32..50) {
            let m = RangeMask::strided(start, n, step).unwrap();
            for i in m.iter() {
                prop_assert!(m.contains(i));
            }
        }

        #[test]
        fn intersects_means_a_common_index(
            (a, b) in (0u32..100, 0u32..100),
            (n, m) in (1u32..40, 1u32..40),
            (p, q) in (1u32..10, 1u32..10),
        ) {
            let (x, y) = (RangeMask::strided(a, n, p).unwrap(), RangeMask::strided(b, m, q).unwrap());
            let common = x.iter().any(|i| y.contains(i));
            prop_assert_eq!(x.intersects(&y), common);
            prop_assert_eq!(y.intersects(&x), common);
        }

        #[test]
        fn contains_implies_in_iter(start in 0u32..100, n in 1u32..40, step in 1u32..10, probe in 0u32..1200) {
            let m = RangeMask::strided(start, n, step).unwrap();
            let in_iter = m.iter().any(|i| i == probe);
            prop_assert_eq!(m.contains(probe), in_iter);
        }
    }
}
