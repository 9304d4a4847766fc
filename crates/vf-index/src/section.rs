//! Regular array sections (Fortran triplet notation).

use crate::{DimRange, IndexDomain, IndexError, Point, Result, MAX_RANK};
use std::fmt;

/// One dimension of a section: the Fortran triplet `lower:upper:stride`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Triplet {
    lower: i64,
    upper: i64,
    stride: i64,
}

impl Triplet {
    /// Creates a triplet `lower:upper:stride`.
    ///
    /// # Errors
    /// Returns [`IndexError::InvalidStride`] for strides < 1 and
    /// [`IndexError::InvalidBounds`] for `upper < lower - 1`.
    pub fn new(lower: i64, upper: i64, stride: i64) -> Result<Self> {
        if stride < 1 {
            return Err(IndexError::InvalidStride { stride });
        }
        if upper < lower - 1 {
            return Err(IndexError::InvalidBounds { lower, upper });
        }
        Ok(Self {
            lower,
            upper,
            stride,
        })
    }

    /// A unit-stride triplet covering `range` — the `:` of Fortran.
    pub fn full(range: DimRange) -> Self {
        Self {
            lower: range.lower(),
            upper: range.upper(),
            stride: 1,
        }
    }

    /// A degenerate triplet selecting the single index `i` — e.g. the `J`
    /// in `V(:, J)`.
    pub fn single(i: i64) -> Self {
        Self {
            lower: i,
            upper: i,
            stride: 1,
        }
    }

    /// Lower bound.
    pub fn lower(&self) -> i64 {
        self.lower
    }

    /// Upper bound (inclusive).
    pub fn upper(&self) -> i64 {
        self.upper
    }

    /// Stride (>= 1).
    pub fn stride(&self) -> i64 {
        self.stride
    }

    /// Number of selected indices.
    pub fn len(&self) -> usize {
        if self.upper < self.lower {
            0
        } else {
            ((self.upper - self.lower) / self.stride + 1) as usize
        }
    }

    /// Whether no indices are selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `index` is selected by the triplet.
    pub fn contains(&self, index: i64) -> bool {
        index >= self.lower && index <= self.upper && (index - self.lower) % self.stride == 0
    }

    /// The `k`-th selected index.
    pub fn index_at(&self, k: usize) -> Result<i64> {
        if k >= self.len() {
            return Err(IndexError::LinearOutOfBounds {
                offset: k,
                size: self.len(),
            });
        }
        Ok(self.lower + k as i64 * self.stride)
    }
}

impl fmt::Display for Triplet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lower == self.upper {
            write!(f, "{}", self.lower)
        } else if self.stride == 1 {
            write!(f, "{}:{}", self.lower, self.upper)
        } else {
            write!(f, "{}:{}:{}", self.lower, self.upper, self.stride)
        }
    }
}

/// A regular array section: one [`Triplet`] per dimension of the parent
/// array, e.g. `V(:, J)` or `V(I, :)` from the ADI code in Figure 1.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Section {
    triplets: Vec<Triplet>,
}

impl Section {
    /// Creates a section from explicit triplets.
    pub fn new(triplets: Vec<Triplet>) -> Result<Self> {
        if triplets.is_empty() || triplets.len() > MAX_RANK {
            return Err(IndexError::RankTooLarge {
                requested: triplets.len(),
            });
        }
        Ok(Self { triplets })
    }

    /// The section covering an entire domain.
    pub fn all(domain: &IndexDomain) -> Self {
        Self {
            triplets: domain.dims().iter().map(|&d| Triplet::full(d)).collect(),
        }
    }

    /// A column section `A(:, j)` of a 2-D domain.
    pub fn column(domain: &IndexDomain, j: i64) -> Result<Self> {
        if domain.rank() != 2 {
            return Err(IndexError::RankMismatch {
                expected: 2,
                found: domain.rank(),
            });
        }
        Ok(Self {
            triplets: vec![Triplet::full(domain.dim(0)), Triplet::single(j)],
        })
    }

    /// A row section `A(i, :)` of a 2-D domain.
    pub fn row(domain: &IndexDomain, i: i64) -> Result<Self> {
        if domain.rank() != 2 {
            return Err(IndexError::RankMismatch {
                expected: 2,
                found: domain.rank(),
            });
        }
        Ok(Self {
            triplets: vec![Triplet::single(i), Triplet::full(domain.dim(1))],
        })
    }

    /// Number of dimensions (of the parent array).
    pub fn rank(&self) -> usize {
        self.triplets.len()
    }

    /// The triplet in dimension `dim`.
    pub fn triplet(&self, dim: usize) -> Triplet {
        self.triplets[dim]
    }

    /// All triplets.
    pub fn triplets(&self) -> &[Triplet] {
        &self.triplets
    }

    /// Number of elements selected by the section.
    pub fn size(&self) -> usize {
        self.triplets.iter().map(|t| t.len()).product()
    }

    /// Whether the section selects no elements.
    pub fn is_empty(&self) -> bool {
        self.triplets.iter().any(|t| t.is_empty())
    }

    /// Whether the section selects `point`.
    pub fn contains(&self, point: &Point) -> bool {
        point.rank() == self.rank()
            && self
                .triplets
                .iter()
                .enumerate()
                .all(|(d, t)| t.contains(point.coord(d)))
    }

    /// Whether every selected point lies within `domain`.
    pub fn within(&self, domain: &IndexDomain) -> bool {
        self.rank() == domain.rank()
            && self.triplets.iter().enumerate().all(|(d, t)| {
                t.is_empty()
                    || (domain.dim(d).contains(t.lower()) && domain.dim(d).contains(t.upper()))
            })
    }

    /// Iterator over the selected points in column-major order.
    pub fn iter(&self) -> SectionIter<'_> {
        SectionIter {
            section: self,
            counters: vec![0; self.rank()],
            done: self.is_empty(),
        }
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.triplets.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// Column-major iterator over the points selected by a [`Section`].
pub struct SectionIter<'a> {
    section: &'a Section,
    counters: Vec<usize>,
    done: bool,
}

impl Iterator for SectionIter<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        if self.done {
            return None;
        }
        let coords: Vec<i64> = self
            .counters
            .iter()
            .enumerate()
            .map(|(d, &k)| {
                self.section
                    .triplet(d)
                    .index_at(k)
                    .expect("counter in range")
            })
            .collect();
        let point = Point::new(&coords).expect("rank checked at construction");
        // Advance counters column-major.
        let mut advanced = false;
        for d in 0..self.section.rank() {
            if self.counters[d] + 1 < self.section.triplet(d).len() {
                self.counters[d] += 1;
                advanced = true;
                break;
            }
            self.counters[d] = 0;
        }
        if !advanced {
            self.done = true;
        }
        Some(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn triplet_basics() {
        let t = Triplet::new(1, 10, 3).unwrap();
        assert_eq!(t.len(), 4); // 1, 4, 7, 10
        assert!(t.contains(7));
        assert!(!t.contains(8));
        assert_eq!(t.index_at(3).unwrap(), 10);
        assert!(t.index_at(4).is_err());
        assert!(Triplet::new(1, 10, 0).is_err());
        assert!(Triplet::new(5, 1, 1).is_err());
        assert_eq!(t.to_string(), "1:10:3");
        assert_eq!(Triplet::single(4).to_string(), "4");
        assert_eq!(Triplet::new(2, 6, 1).unwrap().to_string(), "2:6");
    }

    #[test]
    fn column_and_row_sections() {
        let d = IndexDomain::d2(4, 3);
        let col = Section::column(&d, 2).unwrap();
        assert_eq!(col.size(), 4);
        assert_eq!(col.to_string(), "(1:4, 2)");
        let pts: Vec<Point> = col.iter().collect();
        assert_eq!(
            pts,
            vec![
                Point::d2(1, 2),
                Point::d2(2, 2),
                Point::d2(3, 2),
                Point::d2(4, 2)
            ]
        );
        let row = Section::row(&d, 3).unwrap();
        assert_eq!(row.size(), 3);
        assert!(row.contains(&Point::d2(3, 2)));
        assert!(!row.contains(&Point::d2(2, 2)));
        assert!(Section::column(&IndexDomain::d1(4), 1).is_err());
    }

    #[test]
    fn full_section_covers_domain() {
        let d = IndexDomain::d3(3, 2, 2);
        let s = Section::all(&d);
        assert_eq!(s.size(), d.size());
        assert!(s.within(&d));
        let pts: Vec<Point> = s.iter().collect();
        let dpts: Vec<Point> = d.iter().collect();
        assert_eq!(pts, dpts);
    }

    #[test]
    fn within_detects_out_of_domain_sections() {
        let d = IndexDomain::d2(4, 4);
        let s = Section::new(vec![
            Triplet::new(1, 5, 1).unwrap(),
            Triplet::full(d.dim(1)),
        ])
        .unwrap();
        assert!(!s.within(&d));
    }

    #[test]
    fn empty_section() {
        let s = Section::new(vec![Triplet::new(1, 0, 1).unwrap(), Triplet::single(1)]).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.size(), 0);
    }

    proptest! {
        #[test]
        fn prop_iter_count_matches_size(lo in 1i64..5, len in 0i64..12, stride in 1i64..4, fixed in 1i64..8) {
            let t = Triplet::new(lo, lo + len - 1, stride).unwrap();
            let s = Section::new(vec![t, Triplet::single(fixed)]).unwrap();
            prop_assert_eq!(s.iter().count(), s.size());
            for p in s.iter() {
                prop_assert!(s.contains(&p));
                prop_assert_eq!(p.coord(1), fixed);
            }
        }
    }
}
