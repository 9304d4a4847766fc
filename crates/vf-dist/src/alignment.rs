//! Alignments between arrays (paper Definition 2).

use crate::{DistError, Result};
use std::fmt;
use vf_index::{IndexDomain, Point};

/// One dimension of an alignment target: how the index of the target
/// (primary) array's dimension is computed from the source (secondary)
/// array's index tuple.
///
/// `ALIGN A2(I,J) WITH B4(I,J)` uses two [`AlignExpr::Axis`] entries with
/// scale 1 and offset 0; `ALIGN D(I,J,K) WITH C(J,I,K)` swaps the source
/// dimensions of the first two entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AlignExpr {
    /// The target dimension's index is `scale * i_dim + offset`, where
    /// `i_dim` is the source array's index in dimension `dim` (0-based).
    Axis {
        /// Source dimension (0-based) feeding this target dimension.
        dim: usize,
        /// Multiplicative factor.
        scale: i64,
        /// Additive offset.
        offset: i64,
    },
    /// The target dimension's index is a constant (collapsing alignment).
    Constant(i64),
}

impl AlignExpr {
    /// An identity axis `i_dim`.
    pub fn axis(dim: usize) -> Self {
        AlignExpr::Axis {
            dim,
            scale: 1,
            offset: 0,
        }
    }

    /// A shifted axis `i_dim + offset`.
    pub fn shifted(dim: usize, offset: i64) -> Self {
        AlignExpr::Axis {
            dim,
            scale: 1,
            offset,
        }
    }
}

impl fmt::Display for AlignExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlignExpr::Axis { dim, scale, offset } => {
                let var = (b'I' + (*dim as u8 % 18)) as char;
                match (scale, offset) {
                    (1, 0) => write!(f, "{var}"),
                    (1, o) if *o > 0 => write!(f, "{var}+{o}"),
                    (1, o) => write!(f, "{var}{o}"),
                    (s, 0) => write!(f, "{s}*{var}"),
                    (s, o) if *o > 0 => write!(f, "{s}*{var}+{o}"),
                    (s, o) => write!(f, "{s}*{var}{o}"),
                }
            }
            AlignExpr::Constant(c) => write!(f, "{c}"),
        }
    }
}

/// An alignment `α_A : I^A → I^B` from a source array `A` to a target array
/// `B` (paper Definition 2): corresponding elements are guaranteed to reside
/// on the same processor.
///
/// The alignment is described per *target* dimension: entry `d` computes the
/// index of `B`'s dimension `d` from the index tuple of `A`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Alignment {
    source_rank: usize,
    targets: Vec<AlignExpr>,
}

impl Alignment {
    /// Creates an alignment from a source array of rank `source_rank` to a
    /// target of rank `targets.len()`.
    pub fn new(source_rank: usize, targets: Vec<AlignExpr>) -> Result<Self> {
        for t in &targets {
            if let AlignExpr::Axis { dim, scale, .. } = t {
                if *dim >= source_rank {
                    return Err(DistError::AlignmentRankMismatch {
                        expected: source_rank,
                        found: dim + 1,
                    });
                }
                if *scale == 0 {
                    return Err(DistError::AlignmentRankMismatch {
                        expected: source_rank,
                        found: *dim,
                    });
                }
            }
        }
        Ok(Self {
            source_rank,
            targets,
        })
    }

    /// The identity alignment `A(I,J,…) WITH B(I,J,…)` of the given rank —
    /// what the paper's `CONNECT A2(I,J) WITH B4(I,J)` declares.
    pub fn identity(rank: usize) -> Self {
        Self {
            source_rank: rank,
            targets: (0..rank).map(AlignExpr::axis).collect(),
        }
    }

    /// A pure permutation alignment: target dimension `d` takes the source
    /// dimension `perm[d]`; e.g. `ALIGN D(I,J,K) WITH C(J,I,K)` is
    /// `permutation(&[1, 0, 2])`.
    pub fn permutation(perm: &[usize]) -> Result<Self> {
        Self::new(
            perm.len(),
            perm.iter().map(|&d| AlignExpr::axis(d)).collect(),
        )
    }

    /// The transpose alignment for 2-D arrays.
    pub fn transpose2d() -> Self {
        Self::permutation(&[1, 0]).expect("valid permutation")
    }

    /// Rank of the source (secondary) array.
    pub fn source_rank(&self) -> usize {
        self.source_rank
    }

    /// Rank of the target (primary) array.
    pub fn target_rank(&self) -> usize {
        self.targets.len()
    }

    /// The per-target-dimension expressions.
    pub fn targets(&self) -> &[AlignExpr] {
        &self.targets
    }

    /// Maps a source-array index tuple to the corresponding target-array
    /// index tuple.
    pub fn map(&self, source: &Point) -> Result<Point> {
        if source.rank() != self.source_rank {
            return Err(DistError::AlignmentRankMismatch {
                expected: self.source_rank,
                found: source.rank(),
            });
        }
        let coords: Vec<i64> = self
            .targets
            .iter()
            .map(|t| match t {
                AlignExpr::Axis { dim, scale, offset } => scale * source.coord(*dim) + offset,
                AlignExpr::Constant(c) => *c,
            })
            .collect();
        Ok(Point::new(&coords)?)
    }

    /// Verifies that every point of `source_domain` maps into
    /// `target_domain` (cheaply, by checking the domain corners, which is
    /// sufficient for affine per-dimension maps).
    pub fn check_domains(
        &self,
        source_domain: &IndexDomain,
        target_domain: &IndexDomain,
    ) -> Result<()> {
        if source_domain.rank() != self.source_rank {
            return Err(DistError::AlignmentRankMismatch {
                expected: self.source_rank,
                found: source_domain.rank(),
            });
        }
        if target_domain.rank() != self.target_rank() {
            return Err(DistError::AlignmentRankMismatch {
                expected: self.target_rank(),
                found: target_domain.rank(),
            });
        }
        // Affine maps attain their extrema at domain corners: check all 2^r corners.
        let rank = source_domain.rank();
        for corner in 0..(1usize << rank) {
            let coords: Vec<i64> = (0..rank)
                .map(|d| {
                    if corner & (1 << d) == 0 {
                        source_domain.dim(d).lower()
                    } else {
                        source_domain.dim(d).upper()
                    }
                })
                .collect();
            let p = Point::new(&coords)?;
            let q = self.map(&p)?;
            if !target_domain.contains(&q) {
                return Err(DistError::AlignmentOutOfDomain {
                    point: q.to_string(),
                });
            }
        }
        Ok(())
    }

    /// If the alignment is a pure dimension permutation (each target
    /// dimension reads a distinct source dimension with scale 1 and offset
    /// 0, and every source dimension is read exactly once), returns the
    /// permutation `perm` with `target_dim d ← source_dim perm[d]`.
    pub fn as_permutation(&self) -> Option<Vec<usize>> {
        if self.target_rank() != self.source_rank {
            return None;
        }
        let mut seen = vec![false; self.source_rank];
        let mut perm = Vec::with_capacity(self.targets.len());
        for t in &self.targets {
            match t {
                AlignExpr::Axis {
                    dim,
                    scale: 1,
                    offset: 0,
                } if !seen[*dim] => {
                    seen[*dim] = true;
                    perm.push(*dim);
                }
                _ => return None,
            }
        }
        Some(perm)
    }
}

impl fmt::Display for Alignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WITH (")?;
        for (i, t) in self.targets.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_alignment() {
        let a = Alignment::identity(2);
        assert_eq!(a.map(&Point::d2(3, 4)).unwrap(), Point::d2(3, 4));
        assert_eq!(a.as_permutation(), Some(vec![0, 1]));
        assert_eq!(a.source_rank(), 2);
        assert_eq!(a.target_rank(), 2);
    }

    #[test]
    fn example1_transpose() {
        // ALIGN D(I,J,K) WITH C(J,I,K): the C index of D(i,j,k) is (j,i,k).
        let a = Alignment::permutation(&[1, 0, 2]).unwrap();
        assert_eq!(a.map(&Point::d3(1, 2, 3)).unwrap(), Point::d3(2, 1, 3));
        assert_eq!(a.as_permutation(), Some(vec![1, 0, 2]));
    }

    #[test]
    fn shifted_alignment_is_not_a_permutation() {
        let a = Alignment::new(1, vec![AlignExpr::shifted(0, 2)]).unwrap();
        assert_eq!(a.map(&Point::d1(5)).unwrap(), Point::d1(7));
        assert!(a.as_permutation().is_none());
    }

    #[test]
    fn collapsing_alignment() {
        // Align a 1-D array with row 3 of a 2-D array: A(I) WITH B(3, I).
        let a = Alignment::new(1, vec![AlignExpr::Constant(3), AlignExpr::axis(0)]).unwrap();
        assert_eq!(a.map(&Point::d1(7)).unwrap(), Point::d2(3, 7));
        assert!(a.as_permutation().is_none());
        assert_eq!(a.target_rank(), 2);
    }

    #[test]
    fn invalid_alignments_rejected() {
        assert!(Alignment::new(1, vec![AlignExpr::axis(1)]).is_err());
        assert!(Alignment::new(
            1,
            vec![AlignExpr::Axis {
                dim: 0,
                scale: 0,
                offset: 0
            }]
        )
        .is_err());
        let a = Alignment::identity(2);
        assert!(a.map(&Point::d1(1)).is_err());
    }

    #[test]
    fn domain_checking() {
        let a = Alignment::new(1, vec![AlignExpr::shifted(0, 5)]).unwrap();
        let src = IndexDomain::d1(10);
        let big = IndexDomain::of_bounds(&[(1, 15)]).unwrap();
        let small = IndexDomain::d1(10);
        assert!(a.check_domains(&src, &big).is_ok());
        assert!(a.check_domains(&src, &small).is_err());
        // Rank mismatches are reported.
        assert!(a.check_domains(&IndexDomain::d2(2, 2), &big).is_err());
        assert!(Alignment::identity(2)
            .check_domains(&IndexDomain::d2(4, 4), &IndexDomain::d1(4))
            .is_err());
    }

    #[test]
    fn display() {
        let a = Alignment::permutation(&[1, 0]).unwrap();
        assert_eq!(a.to_string(), "WITH (J, I)");
        let b = Alignment::new(1, vec![AlignExpr::shifted(0, -1), AlignExpr::Constant(2)]).unwrap();
        assert_eq!(b.to_string(), "WITH (I-1, 2)");
    }
}
