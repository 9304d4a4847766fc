//! Per-dimension intrinsic distribution functions.

use crate::{DistError, IndirectMap, Result};
use std::fmt;
use std::sync::Arc;

/// A contiguous run of global element offsets (0-based within one dimension)
/// owned by one processor — the per-dimension part of the paper's `segment`
/// descriptor component ("the sequence of the local lower and upper bounds
/// in each dimension", §3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimSegment {
    /// First owned global offset (0-based within the dimension).
    pub start: usize,
    /// Number of owned elements.
    pub len: usize,
}

impl DimSegment {
    /// Whether the segment owns `offset`.
    #[inline]
    pub fn contains(&self, offset: usize) -> bool {
        offset >= self.start && offset < self.start + self.len
    }

    /// One-past-the-end offset.
    #[inline]
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// The intrinsic per-dimension distribution functions of Vienna Fortran
/// (paper §2.2): `BLOCK`, `CYCLIC(k)`, general block (`B_BLOCK`/`S_BLOCK`)
/// and the elision symbol `:` which leaves a dimension undistributed.
///
/// All per-dimension arithmetic is expressed over 0-based element offsets
/// `0..n` (where `n` is the dimension extent) and 0-based processor grid
/// coordinates `0..nprocs` in the corresponding processor dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DimDist {
    /// `BLOCK`: evenly sized contiguous segments (block size `ceil(n/P)`).
    Block,
    /// `CYCLIC(k)`: blocks of `k` consecutive elements dealt round-robin.
    /// `CYCLIC` without an argument is `CYCLIC(1)`.
    Cyclic(usize),
    /// General block (`B_BLOCK(sizes)` / `S_BLOCK`): contiguous blocks of
    /// the given (possibly irregular) sizes, one per processor, in processor
    /// order.  The paper's Figure 2 uses this for load-balanced PIC cells.
    GenBlock(Vec<usize>),
    /// `INDIRECT(map)`: every element is placed by a mapping array (a user-
    /// or partitioner-computed owner per element) — the irregular
    /// distribution function the PARTI translation-table machinery exists
    /// for.  The map is shared (`Arc`), so a connect class distributed
    /// through one map holds a single copy of its tables.
    Indirect(Arc<IndirectMap>),
    /// The elision symbol `:` — the dimension is not distributed; every
    /// processor of the target view holds the full extent locally.
    NotDistributed,
}

impl DimDist {
    /// `BLOCK`.
    pub fn block() -> Self {
        DimDist::Block
    }

    /// `CYCLIC` (equivalent to `CYCLIC(1)`).
    pub fn cyclic() -> Self {
        DimDist::Cyclic(1)
    }

    /// `CYCLIC(k)`.
    pub fn cyclic_k(k: usize) -> Self {
        DimDist::Cyclic(k)
    }

    /// `B_BLOCK(sizes)`: general block from per-processor block sizes
    /// (the `BOUNDS` array of Figure 2).
    pub fn gen_block(sizes: Vec<usize>) -> Self {
        DimDist::GenBlock(sizes)
    }

    /// `INDIRECT(map)`: distribution through a shared mapping array.
    pub fn indirect(map: Arc<IndirectMap>) -> Self {
        DimDist::Indirect(map)
    }

    /// The elision `:`.
    pub fn not_distributed() -> Self {
        DimDist::NotDistributed
    }

    /// Whether the dimension consumes a processor dimension.
    pub fn is_distributed(&self) -> bool {
        !matches!(self, DimDist::NotDistributed)
    }

    /// Validates the distribution for a dimension of extent `n` mapped onto
    /// `nprocs` processors.
    pub fn validate(&self, n: usize, nprocs: usize) -> Result<()> {
        match self {
            DimDist::Block | DimDist::NotDistributed => Ok(()),
            DimDist::Cyclic(k) => {
                if *k == 0 {
                    Err(DistError::ZeroCyclicWidth)
                } else {
                    Ok(())
                }
            }
            DimDist::GenBlock(sizes) => {
                if sizes.len() != nprocs {
                    return Err(DistError::GenBlockCountMismatch {
                        sizes: sizes.len(),
                        procs: nprocs,
                    });
                }
                let total: usize = sizes.iter().sum();
                if total != n {
                    return Err(DistError::GenBlockSizeMismatch { total, extent: n });
                }
                Ok(())
            }
            DimDist::Indirect(map) => {
                if map.len() != n {
                    return Err(DistError::IndirectLengthMismatch {
                        map_len: map.len(),
                        extent: n,
                    });
                }
                if map.max_owner() >= nprocs {
                    return Err(DistError::IndirectOwnerOutOfRange {
                        owner: map.max_owner(),
                        procs: nprocs,
                    });
                }
                Ok(())
            }
        }
    }

    /// Standard block size for `BLOCK`: `ceil(n / nprocs)`.
    #[inline]
    pub fn block_size(n: usize, nprocs: usize) -> usize {
        n.div_ceil(nprocs.max(1))
    }

    /// The processor grid coordinate owning global offset `offset`.
    ///
    /// Must not be called for [`DimDist::NotDistributed`] (the dimension
    /// does not select a processor); callers handle that case separately.
    pub fn owner(&self, offset: usize, n: usize, nprocs: usize) -> usize {
        debug_assert!(offset < n, "offset {offset} out of extent {n}");
        match self {
            DimDist::Block => {
                let b = Self::block_size(n, nprocs);
                (offset / b).min(nprocs - 1)
            }
            DimDist::Cyclic(k) => (offset / k) % nprocs,
            DimDist::GenBlock(sizes) => {
                let mut acc = 0usize;
                for (j, &s) in sizes.iter().enumerate() {
                    acc += s;
                    if offset < acc {
                        return j;
                    }
                }
                sizes.len() - 1
            }
            DimDist::Indirect(map) => map.owner(offset),
            DimDist::NotDistributed => {
                unreachable!("owner() called on an undistributed dimension")
            }
        }
    }

    /// Number of elements of the dimension stored locally by processor grid
    /// coordinate `proc`.
    pub fn local_count(&self, proc: usize, n: usize, nprocs: usize) -> usize {
        match self {
            DimDist::Block => {
                let b = Self::block_size(n, nprocs);
                n.saturating_sub(proc * b).min(b)
            }
            DimDist::Cyclic(k) => {
                let period = k * nprocs;
                let full = n / period;
                let rem = n % period;
                let extra = rem.saturating_sub(proc * k).min(*k);
                full * k + extra
            }
            DimDist::GenBlock(sizes) => sizes.get(proc).copied().unwrap_or(0),
            DimDist::Indirect(map) => map.local_count(proc),
            DimDist::NotDistributed => n,
        }
    }

    /// Local (0-based) offset of global offset `offset` on its owning
    /// processor.
    pub fn local_offset(&self, offset: usize, n: usize, nprocs: usize) -> usize {
        match self {
            DimDist::Block => {
                let b = Self::block_size(n, nprocs);
                let owner = (offset / b).min(nprocs - 1);
                offset - owner * b
            }
            DimDist::Cyclic(k) => {
                let period = k * nprocs;
                (offset / period) * k + offset % k
            }
            DimDist::GenBlock(sizes) => {
                let owner = self.owner(offset, n, nprocs);
                let start: usize = sizes[..owner].iter().sum();
                offset - start
            }
            DimDist::Indirect(map) => map.local_offset(offset),
            DimDist::NotDistributed => offset,
        }
    }

    /// Global offset of local offset `local` on processor grid coordinate
    /// `proc` — the inverse of [`DimDist::local_offset`].
    pub fn global_offset(&self, proc: usize, local: usize, n: usize, nprocs: usize) -> usize {
        match self {
            DimDist::Block => {
                let b = Self::block_size(n, nprocs);
                proc * b + local
            }
            DimDist::Cyclic(k) => {
                let period = k * nprocs;
                (local / k) * period + proc * k + local % k
            }
            DimDist::GenBlock(sizes) => {
                let start: usize = sizes[..proc].iter().sum();
                start + local
            }
            DimDist::Indirect(map) => map.global_offset(proc, local),
            DimDist::NotDistributed => local,
        }
    }

    /// The contiguous global segment owned by `proc`, if the local element
    /// set is a single contiguous run (always true for `BLOCK`, general
    /// block and `:`; true for `CYCLIC(k)` only when each processor receives
    /// at most one block).
    pub fn segment(&self, proc: usize, n: usize, nprocs: usize) -> Option<DimSegment> {
        match self {
            DimDist::Block => {
                let b = Self::block_size(n, nprocs);
                let start = (proc * b).min(n);
                let len = n.saturating_sub(start).min(b);
                Some(DimSegment { start, len })
            }
            DimDist::Cyclic(k) => {
                if nprocs == 1 {
                    return Some(DimSegment { start: 0, len: n });
                }
                if n <= k * nprocs {
                    let start = (proc * k).min(n);
                    let len = n.saturating_sub(start).min(*k);
                    Some(DimSegment { start, len })
                } else {
                    None
                }
            }
            DimDist::GenBlock(sizes) => {
                let start: usize = sizes[..proc.min(sizes.len())].iter().sum();
                let len = sizes.get(proc).copied().unwrap_or(0);
                Some(DimSegment { start, len })
            }
            DimDist::Indirect(map) => map.segment(proc),
            DimDist::NotDistributed => Some(DimSegment { start: 0, len: n }),
        }
    }

    /// Heap bytes held by the entry beyond its enum footprint — general
    /// block size lists and (shared) indirect mapping tables.  Consumers
    /// that budget memory by estimated bytes (the runtime's plan cache)
    /// charge this per clone, a deliberately conservative over-count for
    /// `Arc`-shared maps.
    pub fn payload_bytes(&self) -> usize {
        match self {
            DimDist::Block | DimDist::Cyclic(_) | DimDist::NotDistributed => 0,
            DimDist::GenBlock(sizes) => sizes.len() * std::mem::size_of::<usize>(),
            DimDist::Indirect(map) => map.estimated_bytes(),
        }
    }
}

impl fmt::Display for DimDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimDist::Block => write!(f, "BLOCK"),
            DimDist::Cyclic(1) => write!(f, "CYCLIC"),
            DimDist::Cyclic(k) => write!(f, "CYCLIC({k})"),
            DimDist::GenBlock(sizes) => {
                write!(f, "B_BLOCK(")?;
                for (i, s) in sizes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, ")")
            }
            DimDist::Indirect(map) => {
                write!(f, "INDIRECT(#{:08x})", map.fingerprint() as u32)
            }
            DimDist::NotDistributed => write!(f, ":"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn check_consistency(d: &DimDist, n: usize, nprocs: usize) {
        // Ownership, local offsets, local counts and segments must agree.
        let mut counts = vec![0usize; nprocs];
        for o in 0..n {
            let p = d.owner(o, n, nprocs);
            assert!(p < nprocs, "{d} owner {p} out of range");
            let l = d.local_offset(o, n, nprocs);
            assert!(
                l < d.local_count(p, n, nprocs),
                "{d}: local offset beyond count"
            );
            assert_eq!(
                d.global_offset(p, l, n, nprocs),
                o,
                "{d}: round trip failed"
            );
            counts[p] += 1;
            if let Some(seg) = d.segment(p, n, nprocs) {
                assert!(seg.contains(o), "{d}: segment misses owned offset {o}");
            }
        }
        for (p, &c) in counts.iter().enumerate() {
            assert_eq!(c, d.local_count(p, n, nprocs), "{d}: count mismatch on {p}");
            if let Some(seg) = d.segment(p, n, nprocs) {
                assert_eq!(seg.len, c, "{d}: segment length mismatch on {p}");
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), n);
    }

    #[test]
    fn block_distribution() {
        let d = DimDist::block();
        check_consistency(&d, 10, 3); // blocks of 4, 4, 2
        assert_eq!(d.owner(0, 10, 3), 0);
        assert_eq!(d.owner(4, 10, 3), 1);
        assert_eq!(d.owner(9, 10, 3), 2);
        assert_eq!(d.local_count(0, 10, 3), 4);
        assert_eq!(d.local_count(2, 10, 3), 2);
        assert_eq!(d.segment(1, 10, 3), Some(DimSegment { start: 4, len: 4 }));
        // Degenerate: fewer elements than processors.
        check_consistency(&d, 2, 4);
        assert_eq!(d.local_count(3, 2, 4), 0);
    }

    #[test]
    fn cyclic_distribution() {
        let d = DimDist::cyclic();
        check_consistency(&d, 10, 3);
        assert_eq!(d.owner(0, 10, 3), 0);
        assert_eq!(d.owner(1, 10, 3), 1);
        assert_eq!(d.owner(3, 10, 3), 0);
        assert_eq!(d.local_count(0, 10, 3), 4);
        assert_eq!(d.local_count(1, 10, 3), 3);
        assert_eq!(d.segment(0, 10, 3), None);
    }

    #[test]
    fn cyclic_k_distribution() {
        let d = DimDist::cyclic_k(3);
        check_consistency(&d, 20, 4);
        assert_eq!(d.owner(0, 20, 4), 0);
        assert_eq!(d.owner(3, 20, 4), 1);
        assert_eq!(d.owner(12, 20, 4), 0);
        // When n <= k * nprocs the layout degenerates to (possibly short) blocks.
        let small = DimDist::cyclic_k(8);
        check_consistency(&small, 20, 4);
        assert!(small.segment(0, 20, 4).is_some());
    }

    #[test]
    fn gen_block_distribution() {
        let d = DimDist::gen_block(vec![5, 1, 3, 1]);
        assert!(d.validate(10, 4).is_ok());
        check_consistency(&d, 10, 4);
        assert_eq!(d.owner(4, 10, 4), 0);
        assert_eq!(d.owner(5, 10, 4), 1);
        assert_eq!(d.owner(6, 10, 4), 2);
        assert_eq!(d.segment(2, 10, 4), Some(DimSegment { start: 6, len: 3 }));
        // Zero-sized blocks are permitted (a processor may own no cells).
        let z = DimDist::gen_block(vec![0, 10, 0, 0]);
        check_consistency(&z, 10, 4);
    }

    #[test]
    fn indirect_distribution() {
        let map = Arc::new(IndirectMap::new(vec![2, 0, 0, 1, 2, 0, 3, 3, 1, 0]).unwrap());
        let d = DimDist::indirect(Arc::clone(&map));
        assert!(d.validate(10, 4).is_ok());
        check_consistency(&d, 10, 4);
        assert_eq!(d.owner(0, 10, 4), 2);
        assert_eq!(d.owner(3, 10, 4), 1);
        assert_eq!(d.local_count(0, 10, 4), 4);
        assert_eq!(d.local_count(3, 10, 4), 2);
        // A scattered owner set has no contiguous segment; a contiguous one
        // reports it.
        assert_eq!(d.segment(0, 10, 4), None);
        let blockish = DimDist::indirect(Arc::new(
            IndirectMap::new(vec![0, 0, 0, 1, 1, 2, 2, 2, 3, 3]).unwrap(),
        ));
        check_consistency(&blockish, 10, 4);
        assert_eq!(
            blockish.segment(1, 10, 4),
            Some(DimSegment { start: 3, len: 2 })
        );
        // Length and owner-range validation.
        assert!(matches!(
            d.validate(9, 4),
            Err(DistError::IndirectLengthMismatch { .. })
        ));
        assert!(matches!(
            d.validate(10, 3),
            Err(DistError::IndirectOwnerOutOfRange { .. })
        ));
        assert!(d.is_distributed());
        assert!(d.payload_bytes() > 0);
        assert_eq!(DimDist::block().payload_bytes(), 0);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            DimDist::cyclic_k(0).validate(10, 2),
            Err(DistError::ZeroCyclicWidth)
        ));
        assert!(matches!(
            DimDist::gen_block(vec![3, 3]).validate(10, 2),
            Err(DistError::GenBlockSizeMismatch { .. })
        ));
        assert!(matches!(
            DimDist::gen_block(vec![5, 5]).validate(10, 3),
            Err(DistError::GenBlockCountMismatch { .. })
        ));
        assert!(DimDist::block().validate(10, 3).is_ok());
    }

    #[test]
    fn not_distributed_is_identity() {
        let d = DimDist::not_distributed();
        assert_eq!(d.local_count(0, 7, 1), 7);
        assert_eq!(d.local_offset(5, 7, 1), 5);
        assert_eq!(d.global_offset(0, 5, 7, 1), 5);
        assert_eq!(d.segment(0, 7, 1), Some(DimSegment { start: 0, len: 7 }));
        assert!(!d.is_distributed());
    }

    #[test]
    fn display_forms() {
        assert_eq!(DimDist::block().to_string(), "BLOCK");
        assert_eq!(DimDist::cyclic().to_string(), "CYCLIC");
        assert_eq!(DimDist::cyclic_k(4).to_string(), "CYCLIC(4)");
        assert_eq!(DimDist::gen_block(vec![2, 3]).to_string(), "B_BLOCK(2,3)");
        assert_eq!(DimDist::not_distributed().to_string(), ":");
    }

    proptest! {
        #[test]
        fn prop_block_consistency(n in 1usize..200, p in 1usize..17) {
            check_consistency(&DimDist::block(), n, p);
        }

        #[test]
        fn prop_cyclic_consistency(n in 1usize..200, p in 1usize..17, k in 1usize..9) {
            check_consistency(&DimDist::cyclic_k(k), n, p);
        }

        #[test]
        fn prop_gen_block_consistency(sizes in proptest::collection::vec(0usize..20, 1..9)) {
            let n: usize = sizes.iter().sum();
            if n > 0 {
                let p = sizes.len();
                check_consistency(&DimDist::gen_block(sizes), n, p);
            }
        }

        #[test]
        fn prop_block_balance(n in 1usize..500, p in 1usize..17) {
            // BLOCK spreads elements so that counts differ by at most one
            // block and no processor exceeds ceil(n/p).
            let d = DimDist::block();
            let b = DimDist::block_size(n, p);
            for j in 0..p {
                prop_assert!(d.local_count(j, n, p) <= b);
            }
        }
    }
}
