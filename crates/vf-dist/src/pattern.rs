//! Distribution-type patterns for `RANGE` attributes and `DCASE`/`IDT`
//! queries.

use crate::{DimDist, DistType};
use std::fmt;

/// A per-dimension pattern in a distribution query or `RANGE` entry.
///
/// The paper's Example 4 uses patterns such as `(BLOCK, *)` and
/// `(CYCLIC, CYCLIC(*))`: `*` matches any per-dimension distribution, and
/// `CYCLIC(*)` matches a cyclic distribution with any block width.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DimPattern {
    /// `*` — matches any per-dimension distribution (including `:`).
    Star,
    /// `BLOCK`.
    Block,
    /// `CYCLIC(k)`; `CYCLIC` is `CYCLIC(1)`.
    Cyclic(usize),
    /// `CYCLIC(*)` — any cyclic width.
    CyclicAny,
    /// Any general block distribution (`B_BLOCK(*)`), regardless of sizes.
    GenBlockAny,
    /// A general block distribution with exactly these sizes.
    GenBlock(Vec<usize>),
    /// Any indirect distribution (`INDIRECT(*)`), regardless of the map —
    /// the `DCASE` arm an irregular code uses to select its
    /// inspector/executor branch.
    IndirectAny,
    /// An indirect distribution through the mapping array with exactly this
    /// [`crate::IndirectMap::fingerprint`].
    IndirectMap(u64),
    /// `:` — the dimension is not distributed.
    NotDistributed,
}

impl DimPattern {
    /// Whether this pattern matches the concrete per-dimension distribution
    /// `dist`.
    pub fn matches(&self, dist: &DimDist) -> bool {
        match (self, dist) {
            (DimPattern::Star, _) => true,
            (DimPattern::Block, DimDist::Block) => true,
            (DimPattern::Cyclic(k), DimDist::Cyclic(k2)) => k == k2,
            (DimPattern::CyclicAny, DimDist::Cyclic(_)) => true,
            (DimPattern::GenBlockAny, DimDist::GenBlock(_)) => true,
            (DimPattern::GenBlock(sizes), DimDist::GenBlock(s2)) => sizes == s2,
            (DimPattern::IndirectAny, DimDist::Indirect(_)) => true,
            (DimPattern::IndirectMap(fp), DimDist::Indirect(map)) => *fp == map.fingerprint(),
            (DimPattern::NotDistributed, DimDist::NotDistributed) => true,
            _ => false,
        }
    }
}

impl From<&DimDist> for DimPattern {
    /// The exact pattern matching only `dist`.
    fn from(dist: &DimDist) -> Self {
        match dist {
            DimDist::Block => DimPattern::Block,
            DimDist::Cyclic(k) => DimPattern::Cyclic(*k),
            DimDist::GenBlock(s) => DimPattern::GenBlock(s.clone()),
            DimDist::Indirect(map) => DimPattern::IndirectMap(map.fingerprint()),
            DimDist::NotDistributed => DimPattern::NotDistributed,
        }
    }
}

impl fmt::Display for DimPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimPattern::Star => write!(f, "*"),
            DimPattern::Block => write!(f, "BLOCK"),
            DimPattern::Cyclic(1) => write!(f, "CYCLIC"),
            DimPattern::Cyclic(k) => write!(f, "CYCLIC({k})"),
            DimPattern::CyclicAny => write!(f, "CYCLIC(*)"),
            DimPattern::GenBlockAny => write!(f, "B_BLOCK(*)"),
            DimPattern::GenBlock(sizes) => {
                write!(f, "B_BLOCK(")?;
                for (i, s) in sizes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, ")")
            }
            DimPattern::IndirectAny => write!(f, "INDIRECT(*)"),
            DimPattern::IndirectMap(fp) => write!(f, "INDIRECT(#{:08x})", *fp as u32),
            DimPattern::NotDistributed => write!(f, ":"),
        }
    }
}

/// A pattern over an entire distribution type.
///
/// `RANGE` attributes (paper §2.3) and `DCASE`/`IDT` queries (paper §2.5)
/// both use these patterns; `DistPattern::Any` is the bare `*` "don't-care"
/// entry, matching every distribution type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DistPattern {
    /// The bare `*`: matches any distribution type of any rank.
    Any,
    /// A parenthesised list of per-dimension patterns; the rank must match.
    Dims(Vec<DimPattern>),
}

impl DistPattern {
    /// A pattern from per-dimension patterns.
    pub fn dims(patterns: Vec<DimPattern>) -> Self {
        DistPattern::Dims(patterns)
    }

    /// The exact pattern matching only `dist_type`.
    pub fn exact(dist_type: &DistType) -> Self {
        DistPattern::Dims(dist_type.dims().iter().map(DimPattern::from).collect())
    }

    /// Whether the pattern matches `dist_type`.
    pub fn matches(&self, dist_type: &DistType) -> bool {
        match self {
            DistPattern::Any => true,
            DistPattern::Dims(pats) => {
                pats.len() == dist_type.rank()
                    && pats.iter().zip(dist_type.dims()).all(|(p, d)| p.matches(d))
            }
        }
    }

    /// Whether every distribution type matched by `other` is also matched by
    /// `self` (a conservative subsumption test used by the compiler-side
    /// partial evaluation of queries).
    pub fn subsumes(&self, other: &DistPattern) -> bool {
        match (self, other) {
            (DistPattern::Any, _) => true,
            (DistPattern::Dims(_), DistPattern::Any) => false,
            (DistPattern::Dims(a), DistPattern::Dims(b)) => {
                a.len() == b.len()
                    && a.iter().zip(b.iter()).all(|(pa, pb)| match (pa, pb) {
                        (DimPattern::Star, _) => true,
                        (DimPattern::CyclicAny, DimPattern::Cyclic(_))
                        | (DimPattern::CyclicAny, DimPattern::CyclicAny) => true,
                        (DimPattern::GenBlockAny, DimPattern::GenBlock(_))
                        | (DimPattern::GenBlockAny, DimPattern::GenBlockAny) => true,
                        (DimPattern::IndirectAny, DimPattern::IndirectMap(_))
                        | (DimPattern::IndirectAny, DimPattern::IndirectAny) => true,
                        _ => pa == pb,
                    })
            }
        }
    }
}

impl fmt::Display for DistPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistPattern::Any => write!(f, "*"),
            DistPattern::Dims(pats) => {
                write!(f, "(")?;
                for (i, p) in pats.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_pattern_matching() {
        assert!(DimPattern::Star.matches(&DimDist::Block));
        assert!(DimPattern::Star.matches(&DimDist::NotDistributed));
        assert!(DimPattern::Block.matches(&DimDist::Block));
        assert!(!DimPattern::Block.matches(&DimDist::Cyclic(1)));
        assert!(DimPattern::Cyclic(2).matches(&DimDist::Cyclic(2)));
        assert!(!DimPattern::Cyclic(2).matches(&DimDist::Cyclic(3)));
        assert!(DimPattern::CyclicAny.matches(&DimDist::Cyclic(7)));
        assert!(!DimPattern::CyclicAny.matches(&DimDist::Block));
        assert!(DimPattern::GenBlockAny.matches(&DimDist::GenBlock(vec![1, 2])));
        assert!(DimPattern::GenBlock(vec![1, 2]).matches(&DimDist::GenBlock(vec![1, 2])));
        assert!(!DimPattern::GenBlock(vec![1, 2]).matches(&DimDist::GenBlock(vec![2, 1])));
        assert!(DimPattern::NotDistributed.matches(&DimDist::NotDistributed));
        assert!(!DimPattern::NotDistributed.matches(&DimDist::Block));
    }

    #[test]
    fn indirect_patterns() {
        let map = std::sync::Arc::new(crate::IndirectMap::new(vec![0, 1, 0, 1]).unwrap());
        let other = std::sync::Arc::new(crate::IndirectMap::new(vec![1, 0, 1, 0]).unwrap());
        let d = DimDist::indirect(std::sync::Arc::clone(&map));
        assert!(DimPattern::IndirectAny.matches(&d));
        assert!(DimPattern::Star.matches(&d));
        assert!(!DimPattern::Block.matches(&d));
        assert!(!DimPattern::IndirectAny.matches(&DimDist::Block));
        // The exact pattern is keyed by the map fingerprint.
        let exact = DimPattern::from(&d);
        assert!(exact.matches(&d));
        assert!(!exact.matches(&DimDist::indirect(other)));
        // Subsumption: INDIRECT(*) covers every specific map.
        let any = DistPattern::dims(vec![DimPattern::IndirectAny]);
        let specific = DistPattern::dims(vec![exact]);
        assert!(any.subsumes(&specific));
        assert!(!specific.subsumes(&any));
        assert_eq!(DimPattern::IndirectAny.to_string(), "INDIRECT(*)");
        assert!(DimPattern::IndirectMap(map.fingerprint())
            .to_string()
            .starts_with("INDIRECT(#"));
    }

    #[test]
    fn example4_query_lists() {
        // Paper Example 4, first query: matches if t3 = (CYCLIC(2), CYCLIC).
        let q3 = DistPattern::dims(vec![DimPattern::Cyclic(2), DimPattern::Cyclic(1)]);
        let t3 = DistType::new(vec![DimDist::Cyclic(2), DimDist::Cyclic(1)]);
        assert!(q3.matches(&t3));
        // Second clause: B3:(BLOCK, *) matches (BLOCK, anything).
        let q = DistPattern::dims(vec![DimPattern::Block, DimPattern::Star]);
        assert!(q.matches(&DistType::new(vec![DimDist::Block, DimDist::Cyclic(4)])));
        assert!(q.matches(&DistType::blocks2d()));
        assert!(!q.matches(&DistType::new(vec![DimDist::Cyclic(1), DimDist::Block])));
        // Rank must match for a dims pattern.
        assert!(!q.matches(&DistType::block1d()));
        // The bare * matches everything.
        assert!(DistPattern::Any.matches(&DistType::block1d()));
        assert!(DistPattern::Any.matches(&t3));
    }

    #[test]
    fn exact_patterns_round_trip() {
        let t = DistType::new(vec![
            DimDist::Block,
            DimDist::Cyclic(3),
            DimDist::GenBlock(vec![2, 8]),
            DimDist::NotDistributed,
        ]);
        let p = DistPattern::exact(&t);
        assert!(p.matches(&t));
        let other = DistType::new(vec![
            DimDist::Block,
            DimDist::Cyclic(4),
            DimDist::GenBlock(vec![2, 8]),
            DimDist::NotDistributed,
        ]);
        assert!(!p.matches(&other));
    }

    #[test]
    fn subsumption() {
        let any = DistPattern::Any;
        let block_star = DistPattern::dims(vec![DimPattern::Block, DimPattern::Star]);
        let block_cyclic = DistPattern::dims(vec![DimPattern::Block, DimPattern::Cyclic(2)]);
        let block_cyclic_any = DistPattern::dims(vec![DimPattern::Block, DimPattern::CyclicAny]);
        assert!(any.subsumes(&block_cyclic));
        assert!(block_star.subsumes(&block_cyclic));
        assert!(block_cyclic_any.subsumes(&block_cyclic));
        assert!(!block_cyclic.subsumes(&block_cyclic_any));
        assert!(!block_cyclic.subsumes(&any));
        assert!(!block_star.subsumes(&DistPattern::dims(vec![DimPattern::Block])));
    }

    #[test]
    fn display_forms() {
        assert_eq!(DistPattern::Any.to_string(), "*");
        assert_eq!(
            DistPattern::dims(vec![DimPattern::Block, DimPattern::CyclicAny]).to_string(),
            "(BLOCK, CYCLIC(*))"
        );
        assert_eq!(DimPattern::GenBlockAny.to_string(), "B_BLOCK(*)");
        assert_eq!(DimPattern::GenBlock(vec![4, 6]).to_string(), "B_BLOCK(4,6)");
        assert_eq!(DimPattern::Cyclic(1).to_string(), "CYCLIC");
    }
}
