//! Per-dimension inclusive bounds.

use crate::{IndexError, Result};
use std::fmt;

/// An inclusive, Fortran-style range of indices `lower:upper` for one array
/// dimension.
///
/// A range with `upper == lower - 1` is the canonical *empty* range; ranges
/// with `upper < lower - 1` are rejected by [`DimRange::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimRange {
    lower: i64,
    upper: i64,
}

impl DimRange {
    /// Creates a new inclusive range `lower:upper`.
    ///
    /// # Errors
    /// Returns [`IndexError::InvalidBounds`] if `upper < lower - 1`.
    pub fn new(lower: i64, upper: i64) -> Result<Self> {
        if upper < lower - 1 {
            return Err(IndexError::InvalidBounds { lower, upper });
        }
        Ok(Self { lower, upper })
    }

    /// Creates the Fortran default range `1:extent`.
    pub fn of_extent(extent: usize) -> Self {
        Self {
            lower: 1,
            upper: extent as i64,
        }
    }

    /// Creates an explicitly empty range anchored at `lower`.
    pub fn empty_at(lower: i64) -> Self {
        Self {
            lower,
            upper: lower - 1,
        }
    }

    /// Lower bound (inclusive).
    #[inline]
    pub fn lower(&self) -> i64 {
        self.lower
    }

    /// Upper bound (inclusive).
    #[inline]
    pub fn upper(&self) -> i64 {
        self.upper
    }

    /// Number of indices in the range.
    #[inline]
    pub fn len(&self) -> usize {
        (self.upper - self.lower + 1).max(0) as usize
    }

    /// Whether the range contains no indices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.upper < self.lower
    }

    /// Whether `index` lies within the range.
    #[inline]
    pub fn contains(&self, index: i64) -> bool {
        index >= self.lower && index <= self.upper
    }

    /// The zero-based offset of `index` within the range.
    ///
    /// # Errors
    /// Returns [`IndexError::OutOfBounds`] (with `dim` set to 0; callers that
    /// know the dimension re-tag it) if `index` is not contained.
    #[inline]
    pub fn offset_of(&self, index: i64) -> Result<usize> {
        if !self.contains(index) {
            return Err(IndexError::OutOfBounds {
                dim: 0,
                index,
                lower: self.lower,
                upper: self.upper,
            });
        }
        Ok((index - self.lower) as usize)
    }

    /// The index at zero-based `offset` within the range.
    #[inline]
    pub fn index_at(&self, offset: usize) -> Result<i64> {
        if offset >= self.len() {
            return Err(IndexError::LinearOutOfBounds {
                offset,
                size: self.len(),
            });
        }
        Ok(self.lower + offset as i64)
    }

    /// Intersection of two ranges, or an empty range anchored at
    /// `self.lower` when they do not overlap.
    pub fn intersect(&self, other: &DimRange) -> DimRange {
        let lower = self.lower.max(other.lower);
        let upper = self.upper.min(other.upper);
        if upper < lower {
            DimRange::empty_at(self.lower)
        } else {
            DimRange { lower, upper }
        }
    }

    /// Iterator over the indices of the range in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        self.lower..=self.upper
    }
}

impl fmt::Display for DimRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.lower, self.upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn extent_range_is_one_based() {
        let r = DimRange::of_extent(10);
        assert_eq!(r.lower(), 1);
        assert_eq!(r.upper(), 10);
        assert_eq!(r.len(), 10);
        assert!(!r.is_empty());
    }

    #[test]
    fn empty_range() {
        let r = DimRange::empty_at(5);
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
        assert!(!r.contains(5));
    }

    #[test]
    fn invalid_bounds_rejected() {
        assert!(DimRange::new(5, 2).is_err());
        assert!(DimRange::new(5, 4).is_ok()); // canonical empty
        assert!(DimRange::new(-3, 3).is_ok());
    }

    #[test]
    fn offsets_round_trip() {
        let r = DimRange::new(-2, 4).unwrap();
        assert_eq!(r.len(), 7);
        for (off, idx) in r.iter().enumerate() {
            assert_eq!(r.offset_of(idx).unwrap(), off);
            assert_eq!(r.index_at(off).unwrap(), idx);
        }
        assert!(r.offset_of(5).is_err());
        assert!(r.index_at(7).is_err());
    }

    #[test]
    fn intersection() {
        let a = DimRange::new(1, 10).unwrap();
        let b = DimRange::new(6, 15).unwrap();
        let c = a.intersect(&b);
        assert_eq!((c.lower(), c.upper()), (6, 10));
        let d = DimRange::new(11, 15).unwrap();
        assert!(a.intersect(&d).is_empty());
    }

    #[test]
    fn display() {
        assert_eq!(DimRange::new(1, 8).unwrap().to_string(), "1:8");
    }

    proptest! {
        #[test]
        fn prop_offset_round_trip(lower in -100i64..100, len in 0usize..200, probe in 0usize..200) {
            let r = DimRange::new(lower, lower + len as i64 - 1).unwrap();
            prop_assert_eq!(r.len(), len);
            if probe < len {
                let idx = r.index_at(probe).unwrap();
                prop_assert_eq!(r.offset_of(idx).unwrap(), probe);
            } else {
                prop_assert!(r.index_at(probe).is_err());
            }
        }

        #[test]
        fn prop_intersection_is_subset(a_lo in -50i64..50, a_len in 0usize..100,
                                       b_lo in -50i64..50, b_len in 0usize..100) {
            let a = DimRange::new(a_lo, a_lo + a_len as i64 - 1).unwrap();
            let b = DimRange::new(b_lo, b_lo + b_len as i64 - 1).unwrap();
            let c = a.intersect(&b);
            for i in c.iter() {
                prop_assert!(a.contains(i) && b.contains(i));
            }
            // Every element of both is in the intersection.
            for i in a.iter() {
                if b.contains(i) {
                    prop_assert!(c.contains(i));
                }
            }
        }
    }
}
