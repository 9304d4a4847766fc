//! Global reductions over distributed arrays.
//!
//! The VFE's communication library includes "specialized routines for
//! handling reductions" (paper §3.2).  Reductions are charged to the cost
//! model as tree collectives over the participating processors.

use crate::{DistArray, Element};
use vf_machine::{CollectiveKind, CommTracker};

/// A generic owner-computes reduction: every processor folds its local
/// elements with `fold`, the per-processor partials are combined with
/// `combine`, and the result is made available everywhere (charged as an
/// all-reduce).
pub fn reduce<T: Element, A: Copy>(
    array: &DistArray<T>,
    tracker: &CommTracker,
    init: A,
    mut fold: impl FnMut(A, T) -> A,
    mut combine: impl FnMut(A, A) -> A,
) -> A {
    let mut partials = Vec::with_capacity(array.dist().num_procs());
    for &p in array.dist().proc_ids() {
        let local = array.local(p);
        let mut acc = init;
        for &v in local {
            acc = fold(acc, v);
        }
        tracker.compute(p.0, local.len());
        partials.push(acc);
    }
    tracker.collective(CollectiveKind::AllReduce, std::mem::size_of::<A>());
    partials.into_iter().fold(init, &mut combine)
}

/// Global sum of an `f64` array.
pub fn sum(array: &DistArray<f64>, tracker: &CommTracker) -> f64 {
    reduce(array, tracker, 0.0, |a, v| a + v, |a, b| a + b)
}

/// Global maximum of an `f64` array (`-inf` for an empty array).
pub fn max(array: &DistArray<f64>, tracker: &CommTracker) -> f64 {
    reduce(
        array,
        tracker,
        f64::NEG_INFINITY,
        |a, v| a.max(v),
        |a, b| a.max(b),
    )
}

/// Global minimum of an `f64` array (`+inf` for an empty array).
pub fn min(array: &DistArray<f64>, tracker: &CommTracker) -> f64 {
    reduce(
        array,
        tracker,
        f64::INFINITY,
        |a, v| a.min(v),
        |a, b| a.min(b),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_dist::{DistType, Distribution, ProcessorView};
    use vf_index::IndexDomain;
    use vf_machine::CostModel;

    fn arr(n: usize, p: usize) -> DistArray<f64> {
        let dist = Distribution::new(
            DistType::cyclic1d(2),
            IndexDomain::d1(n),
            ProcessorView::linear(p),
        )
        .unwrap();
        DistArray::from_fn("A", dist, |pt| pt.coord(0) as f64)
    }

    #[test]
    fn sum_matches_sequential() {
        let a = arr(100, 4);
        let tracker = CommTracker::new(4, CostModel::zero());
        assert_eq!(sum(&a, &tracker), (1..=100).sum::<i64>() as f64);
    }

    #[test]
    fn max_min_and_norm() {
        let a = arr(10, 3);
        let tracker = CommTracker::new(3, CostModel::zero());
        assert_eq!(max(&a, &tracker), 10.0);
        assert_eq!(min(&a, &tracker), 1.0);
    }

    #[test]
    fn reductions_charge_collectives_and_compute() {
        let a = arr(64, 4);
        let mut cost = CostModel::from_alpha_beta(1.0, 0.0);
        cost.compute_per_flop = 1.0;
        let tracker = CommTracker::new(4, cost);
        let _ = sum(&a, &tracker);
        let s = tracker.snapshot();
        // AllReduce = 2 * log2(4) = 4 messages per processor.
        assert_eq!(s.per_proc()[0].messages_sent, 4);
        // Each processor folded its 16 local elements.
        assert_eq!(s.per_proc()[0].compute_time, 16.0);
    }

    #[test]
    fn generic_reduce_with_custom_combiner() {
        let a = arr(10, 2);
        let tracker = CommTracker::new(2, CostModel::zero());
        // Count elements above 5.
        let count = reduce(
            &a,
            &tracker,
            0usize,
            |acc, v| acc + usize::from(v > 5.0),
            |x, y| x + y,
        );
        assert_eq!(count, 5);
    }
}
