//! Rectangular index domains.

use crate::{DimRange, IndexError, Point, Result, MAX_RANK};
use std::fmt;

/// A rectangular index domain `I^A` of an array `A` (paper, Section 2.1):
/// the Cartesian product of per-dimension inclusive ranges.
///
/// The default linearisation is **column-major** (Fortran order, first index
/// varies fastest); a row-major linearisation is also provided for callers
/// that interoperate with C-ordered buffers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexDomain {
    dims: Vec<DimRange>,
}

impl IndexDomain {
    /// Creates a domain from explicit per-dimension ranges.
    ///
    /// # Errors
    /// Returns [`IndexError::RankTooLarge`] for more than [`MAX_RANK`] dims,
    /// and [`IndexError::InvalidBounds`] for a rank of zero.
    pub fn new(dims: Vec<DimRange>) -> Result<Self> {
        if dims.len() > MAX_RANK {
            return Err(IndexError::RankTooLarge {
                requested: dims.len(),
            });
        }
        if dims.is_empty() {
            return Err(IndexError::InvalidBounds {
                lower: 0,
                upper: -1,
            });
        }
        Ok(Self { dims })
    }

    /// Creates a Fortran-style domain `1:e1 × 1:e2 × …` from extents.
    pub fn of_extents(extents: &[usize]) -> Result<Self> {
        Self::new(extents.iter().map(|&e| DimRange::of_extent(e)).collect())
    }

    /// Creates a domain from `(lower, upper)` bound pairs.
    pub fn of_bounds(bounds: &[(i64, i64)]) -> Result<Self> {
        let dims = bounds
            .iter()
            .map(|&(lo, hi)| DimRange::new(lo, hi))
            .collect::<Result<Vec<_>>>()?;
        Self::new(dims)
    }

    /// Convenience: a 1-D domain `1:n`.
    pub fn d1(n: usize) -> Self {
        Self::of_extents(&[n]).expect("rank 1 is valid")
    }

    /// Convenience: a 2-D domain `1:n × 1:m`.
    pub fn d2(n: usize, m: usize) -> Self {
        Self::of_extents(&[n, m]).expect("rank 2 is valid")
    }

    /// Convenience: a 3-D domain `1:n × 1:m × 1:k`.
    pub fn d3(n: usize, m: usize, k: usize) -> Self {
        Self::of_extents(&[n, m, k]).expect("rank 3 is valid")
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The range of dimension `dim` (0-based).
    ///
    /// # Panics
    /// Panics if `dim >= rank()`.
    #[inline]
    pub fn dim(&self, dim: usize) -> DimRange {
        self.dims[dim]
    }

    /// All per-dimension ranges.
    #[inline]
    pub fn dims(&self) -> &[DimRange] {
        &self.dims
    }

    /// Extent (number of indices) of dimension `dim`.
    #[inline]
    pub fn extent(&self, dim: usize) -> usize {
        self.dims[dim].len()
    }

    /// Extents of all dimensions.
    pub fn extents(&self) -> Vec<usize> {
        self.dims.iter().map(|d| d.len()).collect()
    }

    /// Total number of index tuples in the domain.
    pub fn size(&self) -> usize {
        self.dims.iter().map(|d| d.len()).product()
    }

    /// Whether the domain contains zero index tuples.
    pub fn is_empty(&self) -> bool {
        self.dims.iter().any(|d| d.is_empty())
    }

    /// Whether `point` lies within the domain (and has the right rank).
    pub fn contains(&self, point: &Point) -> bool {
        point.rank() == self.rank()
            && self
                .dims
                .iter()
                .enumerate()
                .all(|(d, r)| r.contains(point.coord(d)))
    }

    /// Checks that `point` lies within the domain, reporting the offending
    /// dimension otherwise.
    pub fn check(&self, point: &Point) -> Result<()> {
        if point.rank() != self.rank() {
            return Err(IndexError::RankMismatch {
                expected: self.rank(),
                found: point.rank(),
            });
        }
        for (d, r) in self.dims.iter().enumerate() {
            if !r.contains(point.coord(d)) {
                return Err(IndexError::OutOfBounds {
                    dim: d,
                    index: point.coord(d),
                    lower: r.lower(),
                    upper: r.upper(),
                });
            }
        }
        Ok(())
    }

    /// Column-major (Fortran) linear offset of `point`: the first index
    /// varies fastest.
    pub fn linearize(&self, point: &Point) -> Result<usize> {
        self.check(point)?;
        let mut offset = 0usize;
        let mut stride = 1usize;
        for (d, r) in self.dims.iter().enumerate() {
            let o = (point.coord(d) - r.lower()) as usize;
            offset += o * stride;
            stride *= r.len();
        }
        Ok(offset)
    }

    /// Row-major (C) linear offset of `point`: the last index varies fastest.
    pub fn linearize_row_major(&self, point: &Point) -> Result<usize> {
        self.check(point)?;
        let mut offset = 0usize;
        let mut stride = 1usize;
        for (d, r) in self.dims.iter().enumerate().rev() {
            let o = (point.coord(d) - r.lower()) as usize;
            offset += o * stride;
            stride *= r.len();
        }
        Ok(offset)
    }

    /// Inverse of [`IndexDomain::linearize`].
    pub fn delinearize(&self, offset: usize) -> Result<Point> {
        if offset >= self.size() {
            return Err(IndexError::LinearOutOfBounds {
                offset,
                size: self.size(),
            });
        }
        let mut rem = offset;
        let mut coords = [0i64; MAX_RANK];
        for (d, r) in self.dims.iter().enumerate() {
            let len = r.len();
            coords[d] = r.lower() + (rem % len) as i64;
            rem /= len;
        }
        Point::new(&coords[..self.rank()])
    }

    /// The intersection of two domains of equal rank; `None` if the ranks
    /// differ or the intersection is empty.
    pub fn intersect(&self, other: &IndexDomain) -> Option<IndexDomain> {
        if self.rank() != other.rank() {
            return None;
        }
        let dims: Vec<DimRange> = self
            .dims
            .iter()
            .zip(other.dims.iter())
            .map(|(a, b)| a.intersect(b))
            .collect();
        if dims.iter().any(|d| d.is_empty()) {
            None
        } else {
            Some(IndexDomain { dims })
        }
    }

    /// Iterator over all index tuples in column-major order.
    pub fn iter(&self) -> DomainIter<'_> {
        DomainIter {
            domain: self,
            next: if self.is_empty() {
                None
            } else {
                Some(Point::new(&self.dims.iter().map(|d| d.lower()).collect::<Vec<_>>()).unwrap())
            },
        }
    }
}

impl fmt::Display for IndexDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Column-major iterator over the points of an [`IndexDomain`].
pub struct DomainIter<'a> {
    domain: &'a IndexDomain,
    next: Option<Point>,
}

impl Iterator for DomainIter<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        let current = self.next?;
        // Advance column-major: increment dimension 0 first.
        let mut p = current;
        let mut advanced = false;
        for d in 0..self.domain.rank() {
            let r = self.domain.dim(d);
            if p.coord(d) < r.upper() {
                p = p.with_coord(d, p.coord(d) + 1);
                advanced = true;
                break;
            }
            p = p.with_coord(d, r.lower());
        }
        self.next = if advanced { Some(p) } else { None };
        Some(current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Not exact after partial iteration; good enough for collect().
        (0, Some(self.domain.size()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn extents_and_size() {
        let d = IndexDomain::d3(10, 10, 10);
        assert_eq!(d.rank(), 3);
        assert_eq!(d.size(), 1000);
        assert_eq!(d.extents(), vec![10, 10, 10]);
        assert!(!d.is_empty());
        assert_eq!(d.to_string(), "[1:10, 1:10, 1:10]");
    }

    #[test]
    fn zero_rank_rejected() {
        assert!(IndexDomain::of_extents(&[]).is_err());
        assert!(IndexDomain::of_extents(&[2; MAX_RANK + 1]).is_err());
    }

    #[test]
    fn containment() {
        let d = IndexDomain::of_bounds(&[(0, 9), (-5, 5)]).unwrap();
        assert!(d.contains(&Point::d2(0, -5)));
        assert!(d.contains(&Point::d2(9, 5)));
        assert!(!d.contains(&Point::d2(10, 0)));
        assert!(!d.contains(&Point::d1(3)));
        assert!(d.check(&Point::d2(3, 7)).is_err());
    }

    #[test]
    fn column_major_linearization() {
        let d = IndexDomain::d2(3, 2);
        // Column-major: (1,1)=0, (2,1)=1, (3,1)=2, (1,2)=3, ...
        assert_eq!(d.linearize(&Point::d2(1, 1)).unwrap(), 0);
        assert_eq!(d.linearize(&Point::d2(2, 1)).unwrap(), 1);
        assert_eq!(d.linearize(&Point::d2(1, 2)).unwrap(), 3);
        assert_eq!(d.linearize(&Point::d2(3, 2)).unwrap(), 5);
    }

    #[test]
    fn row_major_linearization() {
        let d = IndexDomain::d2(3, 2);
        // Row-major: (1,1)=0, (1,2)=1, (2,1)=2, ...
        assert_eq!(d.linearize_row_major(&Point::d2(1, 1)).unwrap(), 0);
        assert_eq!(d.linearize_row_major(&Point::d2(1, 2)).unwrap(), 1);
        assert_eq!(d.linearize_row_major(&Point::d2(2, 1)).unwrap(), 2);
        assert_eq!(d.linearize_row_major(&Point::d2(3, 2)).unwrap(), 5);
    }

    #[test]
    fn delinearize_round_trip() {
        let d = IndexDomain::of_bounds(&[(2, 5), (0, 2), (-1, 1)]).unwrap();
        for off in 0..d.size() {
            let p = d.delinearize(off).unwrap();
            assert_eq!(d.linearize(&p).unwrap(), off);
        }
        assert!(d.delinearize(d.size()).is_err());
    }

    #[test]
    fn iteration_order_is_column_major() {
        let d = IndexDomain::d2(2, 2);
        let pts: Vec<Point> = d.iter().collect();
        assert_eq!(
            pts,
            vec![
                Point::d2(1, 1),
                Point::d2(2, 1),
                Point::d2(1, 2),
                Point::d2(2, 2)
            ]
        );
    }

    #[test]
    fn iteration_covers_domain_exactly_once() {
        let d = IndexDomain::of_bounds(&[(0, 3), (5, 7)]).unwrap();
        let pts: Vec<Point> = d.iter().collect();
        assert_eq!(pts.len(), d.size());
        let mut seen = std::collections::HashSet::new();
        for p in &pts {
            assert!(d.contains(p));
            assert!(seen.insert(*p));
        }
    }

    #[test]
    fn empty_domain_iteration() {
        let d = IndexDomain::of_bounds(&[(1, 0), (1, 5)]).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.size(), 0);
        assert_eq!(d.iter().count(), 0);
    }

    #[test]
    fn intersection() {
        let a = IndexDomain::of_bounds(&[(1, 10), (1, 10)]).unwrap();
        let b = IndexDomain::of_bounds(&[(6, 20), (3, 8)]).unwrap();
        let c = a.intersect(&b).unwrap();
        assert_eq!(c.dim(0).lower(), 6);
        assert_eq!(c.dim(0).upper(), 10);
        assert_eq!(c.dim(1).lower(), 3);
        assert_eq!(c.dim(1).upper(), 8);
        let disjoint = IndexDomain::of_bounds(&[(11, 20), (1, 10)]).unwrap();
        assert!(a.intersect(&disjoint).is_none());
        assert!(a.intersect(&IndexDomain::d1(5)).is_none());
    }

    proptest! {
        #[test]
        fn prop_linearize_round_trip(e1 in 1usize..12, e2 in 1usize..12, e3 in 1usize..6) {
            let d = IndexDomain::d3(e1, e2, e3);
            for off in 0..d.size() {
                let p = d.delinearize(off).unwrap();
                prop_assert_eq!(d.linearize(&p).unwrap(), off);
            }
        }

        #[test]
        fn prop_iter_matches_linearization(e1 in 1usize..10, e2 in 1usize..10) {
            let d = IndexDomain::d2(e1, e2);
            for (off, p) in d.iter().enumerate() {
                prop_assert_eq!(d.linearize(&p).unwrap(), off);
            }
        }
    }
}
