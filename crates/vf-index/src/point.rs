//! Fixed-capacity multi-dimensional index tuples.

use crate::{IndexError, Result, MAX_RANK};
use std::fmt;
use std::ops::Index;

/// A multi-dimensional index tuple of rank at most [`MAX_RANK`].
///
/// `Point` is a small, `Copy`, heap-free value so that it can be used in the
/// inner loops of owner-computes execution and redistribution planning
/// without allocation (see the workspace's performance guidelines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Point {
    rank: u8,
    coords: [i64; MAX_RANK],
}

impl Point {
    /// Creates a point from a slice of coordinates.
    ///
    /// # Errors
    /// Returns [`IndexError::RankTooLarge`] if more than [`MAX_RANK`]
    /// coordinates are supplied.
    pub fn new(coords: &[i64]) -> Result<Self> {
        if coords.len() > MAX_RANK {
            return Err(IndexError::RankTooLarge {
                requested: coords.len(),
            });
        }
        let mut buf = [0i64; MAX_RANK];
        buf[..coords.len()].copy_from_slice(coords);
        Ok(Self {
            rank: coords.len() as u8,
            coords: buf,
        })
    }

    /// Creates a rank-1 point.
    pub fn d1(i: i64) -> Self {
        Self::new(&[i]).expect("rank 1 is always valid")
    }

    /// Creates a rank-2 point.
    pub fn d2(i: i64, j: i64) -> Self {
        Self::new(&[i, j]).expect("rank 2 is always valid")
    }

    /// Creates a rank-3 point.
    pub fn d3(i: i64, j: i64, k: i64) -> Self {
        Self::new(&[i, j, k]).expect("rank 3 is always valid")
    }

    /// Creates a point of the given rank with every coordinate equal to
    /// `value`.
    pub fn splat(rank: usize, value: i64) -> Result<Self> {
        if rank > MAX_RANK {
            return Err(IndexError::RankTooLarge { requested: rank });
        }
        Ok(Self {
            rank: rank as u8,
            coords: [value; MAX_RANK],
        })
    }

    /// Number of dimensions of the point.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// The coordinates as a slice of length `rank()`.
    #[inline]
    pub fn coords(&self) -> &[i64] {
        &self.coords[..self.rank as usize]
    }

    /// Coordinate in dimension `dim` (0-based).
    ///
    /// # Panics
    /// Panics if `dim >= rank()`.
    #[inline]
    pub fn coord(&self, dim: usize) -> i64 {
        assert!(dim < self.rank as usize, "dimension out of range");
        self.coords[dim]
    }

    /// Returns a copy of the point with the coordinate in `dim` replaced.
    ///
    /// # Panics
    /// Panics if `dim >= rank()`.
    #[inline]
    pub fn with_coord(&self, dim: usize, value: i64) -> Self {
        assert!(dim < self.rank as usize, "dimension out of range");
        let mut p = *self;
        p.coords[dim] = value;
        p
    }

    /// Returns a copy of the point with `delta` added to the coordinate in
    /// `dim` — convenient for stencil neighbours.
    #[inline]
    pub fn offset(&self, dim: usize, delta: i64) -> Self {
        self.with_coord(dim, self.coord(dim) + delta)
    }

    /// Permutes the coordinates: the result's dimension `d` takes the value
    /// of this point's dimension `perm[d]`.  Used by transposing alignments
    /// such as `ALIGN D(I,J,K) WITH C(J,I,K)` in the paper's Example 1.
    ///
    /// # Errors
    /// Returns [`IndexError::RankMismatch`] if `perm.len() != rank()`.
    pub fn permute(&self, perm: &[usize]) -> Result<Self> {
        if perm.len() != self.rank() {
            return Err(IndexError::RankMismatch {
                expected: self.rank(),
                found: perm.len(),
            });
        }
        let mut buf = [0i64; MAX_RANK];
        for (d, &src) in perm.iter().enumerate() {
            if src >= self.rank() {
                return Err(IndexError::RankMismatch {
                    expected: self.rank(),
                    found: src + 1,
                });
            }
            buf[d] = self.coords[src];
        }
        Ok(Self {
            rank: self.rank,
            coords: buf,
        })
    }
}

impl Index<usize> for Point {
    type Output = i64;

    fn index(&self, dim: usize) -> &i64 {
        assert!(dim < self.rank as usize, "dimension out of range");
        &self.coords[dim]
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl From<i64> for Point {
    fn from(i: i64) -> Self {
        Point::d1(i)
    }
}

impl From<(i64, i64)> for Point {
    fn from((i, j): (i64, i64)) -> Self {
        Point::d2(i, j)
    }
}

impl From<(i64, i64, i64)> for Point {
    fn from((i, j, k): (i64, i64, i64)) -> Self {
        Point::d3(i, j, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors() {
        assert_eq!(Point::d1(3).coords(), &[3]);
        assert_eq!(Point::d2(3, 4).coords(), &[3, 4]);
        assert_eq!(Point::d3(3, 4, 5).coords(), &[3, 4, 5]);
        assert_eq!(Point::splat(4, 7).unwrap().coords(), &[7, 7, 7, 7]);
        assert!(Point::new(&[0; MAX_RANK + 1]).is_err());
        assert!(Point::splat(MAX_RANK + 1, 0).is_err());
    }

    #[test]
    fn coord_access_and_update() {
        let p = Point::d3(1, 2, 3);
        assert_eq!(p.coord(1), 2);
        assert_eq!(p[2], 3);
        assert_eq!(p.with_coord(0, 9).coords(), &[9, 2, 3]);
        assert_eq!(p.offset(2, -1).coords(), &[1, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "dimension out of range")]
    fn coord_out_of_range_panics() {
        let p = Point::d2(1, 2);
        let _ = p.coord(2);
    }

    #[test]
    fn permutation_transposes() {
        // ALIGN D(I,J,K) WITH C(J,I,K): C-point (j, i, k) from D-point (i, j, k).
        let d_point = Point::d3(10, 20, 30);
        let c_point = d_point.permute(&[1, 0, 2]).unwrap();
        assert_eq!(c_point.coords(), &[20, 10, 30]);
        assert!(d_point.permute(&[0, 1]).is_err());
        assert!(d_point.permute(&[0, 1, 5]).is_err());
    }

    #[test]
    fn conversions_and_display() {
        let p: Point = (4, 5).into();
        assert_eq!(p.to_string(), "(4, 5)");
        let q: Point = 7i64.into();
        assert_eq!(q.to_string(), "(7)");
        let r: Point = (1, 2, 3).into();
        assert_eq!(r.rank(), 3);
    }

    proptest! {
        #[test]
        fn prop_permute_is_bijective(i in -100i64..100, j in -100i64..100, k in -100i64..100) {
            let p = Point::d3(i, j, k);
            let forward = p.permute(&[2, 0, 1]).unwrap();
            // inverse permutation of [2,0,1] is [1,2,0]
            let back = forward.permute(&[1, 2, 0]).unwrap();
            prop_assert_eq!(back, p);
        }
    }
}
