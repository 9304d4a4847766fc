//! Distribution types: lists of per-dimension distribution functions.

use crate::{DimDist, DistError, Result};
use std::fmt;

/// A *distribution type* (paper §2.2): a class of distributions determined
/// by a distribution expression such as `(BLOCK, CYCLIC(K))` or
/// `( : , BLOCK)`, with one entry per array dimension.
///
/// Applying a distribution type to an array index domain and a processor
/// section yields a [`crate::Distribution`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DistType {
    dims: Vec<DimDist>,
}

impl DistType {
    /// Creates a distribution type from per-dimension entries.
    pub fn new(dims: Vec<DimDist>) -> Self {
        Self { dims }
    }

    /// `(BLOCK)` — 1-D block distribution.
    pub fn block1d() -> Self {
        Self::new(vec![DimDist::Block])
    }

    /// `(CYCLIC(k))` — 1-D cyclic distribution.
    pub fn cyclic1d(k: usize) -> Self {
        Self::new(vec![DimDist::Cyclic(k)])
    }

    /// `(B_BLOCK(sizes))` — 1-D general block distribution.
    pub fn gen_block1d(sizes: Vec<usize>) -> Self {
        Self::new(vec![DimDist::GenBlock(sizes)])
    }

    /// `(INDIRECT(map))` — 1-D indirect distribution through a shared
    /// mapping array.
    pub fn indirect1d(map: std::sync::Arc<crate::IndirectMap>) -> Self {
        Self::new(vec![DimDist::Indirect(map)])
    }

    /// `( : , BLOCK)` — distribute the second dimension by block
    /// ("column distribution" of a 2-D array; Figure 1's initial layout).
    pub fn columns() -> Self {
        Self::new(vec![DimDist::NotDistributed, DimDist::Block])
    }

    /// `(BLOCK, : )` — distribute the first dimension by block
    /// ("row distribution"; Figure 1's layout after `DISTRIBUTE`).
    pub fn rows() -> Self {
        Self::new(vec![DimDist::Block, DimDist::NotDistributed])
    }

    /// `(BLOCK, BLOCK)` — 2-D block distribution over a processor grid.
    pub fn blocks2d() -> Self {
        Self::new(vec![DimDist::Block, DimDist::Block])
    }

    /// Number of entries (must equal the rank of the array it is applied
    /// to).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The per-dimension entries.
    pub fn dims(&self) -> &[DimDist] {
        &self.dims
    }

    /// The entry for dimension `dim`.
    pub fn dim(&self, dim: usize) -> &DimDist {
        &self.dims[dim]
    }

    /// Indices of the distributed (non-`:`) dimensions, in order; these are
    /// matched one-to-one with the dimensions of the target processor view.
    pub fn distributed_dims(&self) -> Vec<usize> {
        self.dims
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_distributed())
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether no dimension is distributed (the array is replicated on the
    /// target processors).
    pub fn is_replicated(&self) -> bool {
        self.distributed_dims().is_empty()
    }

    /// Whether any dimension is distributed through an `INDIRECT` mapping
    /// array — the irregular case the runtime resolves through its
    /// distributed translation table.
    pub fn has_indirect(&self) -> bool {
        self.dims.iter().any(|d| matches!(d, DimDist::Indirect(_)))
    }

    /// Heap bytes held by the per-dimension entries (see
    /// [`DimDist::payload_bytes`]).
    pub fn payload_bytes(&self) -> usize {
        self.dims.iter().map(|d| d.payload_bytes()).sum()
    }

    /// Checks that the type can apply to an array of rank `array_rank`.
    pub fn check_rank(&self, array_rank: usize) -> Result<()> {
        if self.rank() != array_rank {
            return Err(DistError::RankMismatch {
                array_rank,
                dist_rank: self.rank(),
            });
        }
        Ok(())
    }

    /// Returns a copy of this type with dimensions permuted: entry `d` of
    /// the result is entry `perm[d]` of `self`.  Used by `CONSTRUCT` when a
    /// secondary array is connected through a transposing alignment.
    pub fn permuted(&self, perm: &[usize]) -> Result<Self> {
        if perm.len() != self.rank() {
            return Err(DistError::RankMismatch {
                array_rank: perm.len(),
                dist_rank: self.rank(),
            });
        }
        let mut dims = Vec::with_capacity(perm.len());
        for &src in perm {
            let d = self.dims.get(src).ok_or(DistError::RankMismatch {
                array_rank: perm.len(),
                dist_rank: self.rank(),
            })?;
            dims.push(d.clone());
        }
        Ok(Self::new(dims))
    }
}

impl fmt::Display for DistType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<DimDist>> for DistType {
    fn from(dims: Vec<DimDist>) -> Self {
        Self::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_display() {
        assert_eq!(DistType::block1d().to_string(), "(BLOCK)");
        assert_eq!(DistType::cyclic1d(3).to_string(), "(CYCLIC(3))");
        assert_eq!(DistType::columns().to_string(), "(:, BLOCK)");
        assert_eq!(DistType::rows().to_string(), "(BLOCK, :)");
        assert_eq!(DistType::blocks2d().to_string(), "(BLOCK, BLOCK)");
        assert_eq!(
            DistType::gen_block1d(vec![3, 7]).to_string(),
            "(B_BLOCK(3,7))"
        );
    }

    #[test]
    fn distributed_dims() {
        assert_eq!(DistType::columns().distributed_dims(), vec![1]);
        assert_eq!(DistType::rows().distributed_dims(), vec![0]);
        assert_eq!(DistType::blocks2d().distributed_dims(), vec![0, 1]);
        let replicated = DistType::new(vec![DimDist::NotDistributed, DimDist::NotDistributed]);
        assert!(replicated.is_replicated());
    }

    #[test]
    fn rank_checks() {
        assert!(DistType::columns().check_rank(2).is_ok());
        assert!(matches!(
            DistType::columns().check_rank(3),
            Err(DistError::RankMismatch { .. })
        ));
    }

    #[test]
    fn permutation() {
        // (:, BLOCK) transposed becomes (BLOCK, :).
        let cols = DistType::columns();
        let rows = cols.permuted(&[1, 0]).unwrap();
        assert_eq!(rows, DistType::rows());
        assert!(cols.permuted(&[0]).is_err());
        assert!(cols.permuted(&[0, 5]).is_err());
    }

    #[test]
    fn example1_distribution_type() {
        // REAL C(10,10,10) DIST(BLOCK, BLOCK, :) from the paper's Example 1.
        let t = DistType::new(vec![
            DimDist::Block,
            DimDist::Block,
            DimDist::NotDistributed,
        ]);
        assert_eq!(t.rank(), 3);
        assert_eq!(t.distributed_dims(), vec![0, 1]);
        assert_eq!(t.to_string(), "(BLOCK, BLOCK, :)");
    }
}
