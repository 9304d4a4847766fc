//! Array assignment between differently distributed arrays.
//!
//! The paper's §4 discusses the alternative to dynamic redistribution of
//! declaring "two or more arrays with different static distribution and
//! [using] array assignments to produce the effect of redistribution",
//! noting that it "wastes storage space".  This module implements that
//! assignment so the experiments can compare the two approaches directly.
//! An assignment *is* a redistribution whose result lands in a second
//! array, so it runs through the same communication-plan layer
//! ([`crate::plan::plan_redistribute`]), the same plan cache and the same
//! executor seam ([`crate::exec`]).

use crate::exec::{execute_one, PlanExecutor};
use crate::plan::PlanCache;
use crate::{DistArray, Element, Result};
use vf_machine::CommTracker;

/// Communication generated by one distributed array assignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssignReport {
    /// Elements that had to cross processors.
    pub moved_elements: usize,
    /// Elements already resident on the destination owner.
    pub stayed_elements: usize,
    /// Aggregated messages charged.
    pub messages: usize,
    /// Bytes charged.
    pub bytes: usize,
}

/// Copies `src` into `dst` element-wise (`dst = src` over the common global
/// index domain), charging one aggregated message for every (source owner →
/// destination owner) pair with traffic.  The schedule is planned through
/// `cache` — the two-copy ADI variant of §4 alternates the same pair of
/// assignments every iteration, so both are planned once — and moved by
/// `executor` as a class of one (the wire pipeline on a shared-memory
/// executor, channel frames on a sharded one).
pub fn assign<T: Element, E: PlanExecutor>(
    dst: &mut DistArray<T>,
    src: &DistArray<T>,
    tracker: &CommTracker,
    cache: &PlanCache,
    executor: &E,
) -> Result<AssignReport> {
    let plan = cache.redistribute_plan(src.dist(), dst.dist())?;
    plan.check_executable(src.dist(), tracker)?;
    // A redistribution plan places *every* source element, so executing it
    // into fresh buffers rewrites the destination completely — assignment
    // is redistribution whose result lands in a second array.
    let dst_dist = dst.dist().clone();
    let mut dst_sizes = vec![0usize; dst_dist.procs().array().num_procs()];
    for &q in dst_dist.proc_ids() {
        dst_sizes[q.0] = dst_dist.local_size(q);
    }
    let (new_locals, exec) = execute_one(executor, &plan, src.locals(), dst_sizes, tracker)?;
    dst.replace(dst_dist, new_locals);
    // The plan targets the canonical first owner; an assignment into a
    // replicated array updates every copy (as `DistArray::set` does).
    dst.broadcast_canonical();
    Ok(AssignReport {
        moved_elements: plan.moved_elements(),
        stayed_elements: plan.stayed_elements(),
        messages: exec.messages,
        bytes: exec.bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SerialExecutor;
    use vf_dist::{DistType, Distribution, ProcessorView};
    use vf_index::IndexDomain;
    use vf_machine::CostModel;

    #[test]
    fn assignment_copies_across_distributions() {
        let n = 8usize;
        let cols = Distribution::new(
            DistType::columns(),
            IndexDomain::d2(n, n),
            ProcessorView::linear(4),
        )
        .unwrap();
        let rows = Distribution::new(
            DistType::rows(),
            IndexDomain::d2(n, n),
            ProcessorView::linear(4),
        )
        .unwrap();
        let src = DistArray::from_fn("V1", cols, |p| (p.coord(0) * 10 + p.coord(1)) as f64);
        let mut dst: DistArray<f64> = DistArray::new("V2", rows);
        let tracker = CommTracker::new(4, CostModel::zero());
        let report = assign(&mut dst, &src, &tracker, &PlanCache::new(), &SerialExecutor).unwrap();
        assert_eq!(dst.to_dense(), src.to_dense());
        assert_eq!(report.moved_elements + report.stayed_elements, n * n);
        // Same traffic pattern as the equivalent redistribution: each
        // processor keeps only its diagonal block.
        assert_eq!(report.stayed_elements, 16);
        assert_eq!(report.messages, 12);
        assert_eq!(tracker.snapshot().total_messages(), 12);
    }

    #[test]
    fn same_distribution_assignment_is_local() {
        let d = Distribution::new(
            DistType::block1d(),
            IndexDomain::d1(12),
            ProcessorView::linear(3),
        )
        .unwrap();
        let src = DistArray::from_fn("A", d.clone(), |p| p.coord(0) as f64);
        let mut dst: DistArray<f64> = DistArray::new("B", d);
        let tracker = CommTracker::new(3, CostModel::zero());
        let report = assign(&mut dst, &src, &tracker, &PlanCache::new(), &SerialExecutor).unwrap();
        assert_eq!(report.moved_elements, 0);
        assert_eq!(report.messages, 0);
        assert_eq!(dst.to_dense(), src.to_dense());
    }

    #[test]
    fn mismatched_domains_rejected() {
        let a = Distribution::new(
            DistType::block1d(),
            IndexDomain::d1(12),
            ProcessorView::linear(3),
        )
        .unwrap();
        let b = Distribution::new(
            DistType::block1d(),
            IndexDomain::d1(10),
            ProcessorView::linear(3),
        )
        .unwrap();
        let src: DistArray<f64> = DistArray::new("A", a);
        let mut dst: DistArray<f64> = DistArray::new("B", b);
        let tracker = CommTracker::new(3, CostModel::zero());
        assert!(assign(&mut dst, &src, &tracker, &PlanCache::new(), &SerialExecutor).is_err());
    }
}
