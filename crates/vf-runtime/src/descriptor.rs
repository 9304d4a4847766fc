//! Run-time array descriptors (paper §3.2.1).

use crate::{DistArray, Element};
use std::fmt;
use vf_dist::{DistType, ProcId};
use vf_index::IndexDomain;

/// The per-array run-time descriptor of §3.2.1: the index domain, the
/// distribution characterisation, and — per processor — the local layout
/// and the contiguous `segment` when one exists.
///
/// The descriptor is what the `DISTRIBUTE` implementation modifies ("a
/// run-time routine executed on each processor which is passed the array and
/// its current set of descriptors and returns new descriptors") and what the
/// `IDT` intrinsic and the `DCASE` construct test.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDescriptor {
    /// Array name.
    pub name: String,
    /// `index_dom(A)`: the global index domain.
    pub index_dom: IndexDomain,
    /// `dist(A)`: the distribution type component of the distribution.
    pub dist_type: DistType,
    /// Rendering of the target processor section.
    pub target_procs: String,
    /// Whether local addressing goes through a translation table.
    pub uses_translation_table: bool,
    /// Per processor: `(processor, local element count, segment)` where the
    /// segment is the contiguous owned sub-domain when one exists.
    pub per_proc: Vec<(ProcId, usize, Option<IndexDomain>)>,
}

impl ArrayDescriptor {
    /// Builds the descriptor of a distributed array in its current state.
    pub fn of<T: Element>(array: &DistArray<T>) -> Self {
        let dist = array.dist();
        let per_proc = dist
            .proc_ids()
            .iter()
            .map(|&p| (p, dist.local_size(p), dist.local_segment(p)))
            .collect();
        Self {
            name: array.name().to_string(),
            index_dom: array.domain().clone(),
            dist_type: dist.dist_type().clone(),
            target_procs: dist.procs().to_string(),
            uses_translation_table: dist.uses_translation_table(),
            per_proc,
        }
    }
}

impl fmt::Display for ArrayDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} {} DIST {} TO {}",
            self.name, self.index_dom, self.dist_type, self.target_procs
        )?;
        for (p, n, seg) in &self.per_proc {
            match seg {
                Some(s) => writeln!(f, "  {p}: {n} elements, segment {s}")?,
                None => writeln!(f, "  {p}: {n} elements, scattered")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_dist::{DistType, Distribution, ProcessorView};

    #[test]
    fn descriptor_reports_layout() {
        let dist = Distribution::new(
            DistType::columns(),
            IndexDomain::d2(8, 8),
            ProcessorView::linear(4),
        )
        .unwrap();
        let a: DistArray<f64> = DistArray::new("V", dist);
        let d = ArrayDescriptor::of(&a);
        assert_eq!(d.name, "V");
        assert_eq!(d.dist_type, DistType::columns());
        assert_eq!(d.per_proc.len(), 4);
        assert!(!d.uses_translation_table);
        assert!(d
            .per_proc
            .iter()
            .all(|(_, n, seg)| *n == 16 && seg.is_some()));
        let text = d.to_string();
        assert!(text.contains("V [1:8, 1:8] DIST (:, BLOCK)"));
        assert!(text.contains("16 elements"));
    }

    #[test]
    fn cyclic_descriptor_is_scattered() {
        let dist = Distribution::new(
            DistType::cyclic1d(1),
            IndexDomain::d1(9),
            ProcessorView::linear(3),
        )
        .unwrap();
        let a: DistArray<i64> = DistArray::new("C", dist);
        let d = ArrayDescriptor::of(&a);
        assert!(d.per_proc.iter().all(|(_, _, seg)| seg.is_none()));
        assert!(d.to_string().contains("scattered"));
    }
}
