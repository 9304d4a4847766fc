//! Shared helpers for the cross-crate integration test suite.

use vf_core::prelude::*;

/// A machine with `p` processors and a zero-cost model (tests that only
/// check counts and data correctness).
pub fn zero_machine(p: usize) -> Machine {
    Machine::new(p, CostModel::zero())
}

/// A machine with `p` processors and the iPSC/860-like cost model.
pub fn ipsc_machine(p: usize) -> Machine {
    Machine::new(p, CostModel::ipsc860(p))
}

/// Builds a 1-D distribution over `p` linear processors.
pub fn dist_1d(dist_type: DistType, n: usize, p: usize) -> Distribution {
    Distribution::new(dist_type, IndexDomain::d1(n), ProcessorView::linear(p))
        .expect("valid 1-D distribution")
}

/// Builds a 2-D distribution over `p` linear processors (factored into a
/// grid when the type distributes both dimensions).
pub fn dist_2d(dist_type: DistType, n: usize, m: usize, p: usize) -> Distribution {
    Distribution::new(dist_type, IndexDomain::d2(n, m), ProcessorView::linear(p))
        .expect("valid 2-D distribution")
}

// ---------------------------------------------------------------------------
// Plan-then-execute in one call, for tests that are not about the plan.
// ---------------------------------------------------------------------------

use vf_core::vf_runtime::ghost::{
    exchange_class_ghosts, exchange_class_ghosts_split, GhostRegion, SplitGhostExchange,
};
use vf_core::vf_runtime::Result;

/// Plans and fuses the class's stencil halo through `cache` and exchanges
/// it on `executor` (the blocking class verb).
pub fn class_halo<T: Element, E: PlanExecutor>(
    arrays: &[&DistArray<T>],
    widths: &[(usize, usize)],
    tracker: &CommTracker,
    cache: &PlanCache,
    executor: &E,
) -> Result<(Vec<GhostRegion<T>>, ExecReport)> {
    let fused = cache.ghost_class_plan(arrays.iter().map(|a| a.dist()), widths)?;
    exchange_class_ghosts(arrays, &fused, tracker, executor)
}

/// [`class_halo`], split-phase: posted on `backend`, completed at the
/// handle's `wait`.
pub fn class_halo_split<'e, T: Element>(
    arrays: &[&DistArray<T>],
    widths: &[(usize, usize)],
    tracker: &CommTracker,
    cache: &PlanCache,
    backend: &'e ExecBackend,
) -> Result<SplitGhostExchange<'e, T>> {
    let fused = cache.ghost_class_plan(arrays.iter().map(|a| a.dist()), widths)?;
    exchange_class_ghosts_split(arrays, fused, tracker, backend)
}

/// A threaded backend on its own `workers`-wide pool that threads every
/// plan, however small — "forced threaded" for equivalence tests.
pub fn forced_threaded(workers: usize) -> ThreadedExecutor {
    ThreadedExecutor::with_pool(std::sync::Arc::new(WorkerPool::new(workers))).with_serial_cutoff(0)
}

/// Runs `check` once per backend an app can take from the environment —
/// Serial, pooled with every non-empty job dispatched (`VF_EXEC_CUTOFF=1`;
/// 0 is refused by design) and Sharded — by setting `VF_EXEC_BACKEND` and
/// `VF_EXEC_CUTOFF` for each, then restores both.  The variables are
/// process-wide: a binary may hold only one test that calls this.
pub fn for_each_ambient_backend(mut check: impl FnMut(&str)) {
    let ambient =
        ["VF_EXEC_BACKEND", "VF_EXEC_CUTOFF"].map(|name| (name, std::env::var(name).ok()));
    for (backend, cutoff) in [("serial", None), ("threaded", Some("1")), ("sharded", None)] {
        std::env::set_var("VF_EXEC_BACKEND", backend);
        match cutoff {
            Some(bytes) => std::env::set_var("VF_EXEC_CUTOFF", bytes),
            None => std::env::remove_var("VF_EXEC_CUTOFF"),
        }
        check(backend);
    }
    for (name, value) in ambient {
        match value {
            Some(value) => std::env::set_var(name, value),
            None => std::env::remove_var(name),
        }
    }
}

// ---------------------------------------------------------------------------
// Fixtures and assertions the halo suites share.
// ---------------------------------------------------------------------------

/// An `n`×`n` field distributed by `t` over `p` processors, every element
/// a distinct value scaled by `scale`.
pub fn grid_array(name: &str, t: DistType, n: usize, p: usize, scale: f64) -> DistArray<f64> {
    let dist = Distribution::new(t, IndexDomain::d2(n, n), ProcessorView::linear(p))
        .expect("valid 2-D distribution");
    DistArray::from_fn(name, dist, |pt| {
        (pt.coord(0) * 1000 + pt.coord(1)) as f64 * scale
    })
}

/// A backend whose split-phase unpack genuinely streams on `pool`'s
/// background workers: a zero cutoff forces the threaded path regardless
/// of volume.
pub fn streaming_backend(pool: &std::sync::Arc<WorkerPool>) -> ExecBackend {
    ExecBackend::Threaded(
        ThreadedExecutor::with_pool(std::sync::Arc::clone(pool)).with_serial_cutoff(0),
    )
}

/// Asserts that two exchanges of the class `arrays` produced the same
/// ghost value (or none) for every point on every processor.
pub fn assert_regions_equal<A: std::borrow::Borrow<DistArray<f64>>>(
    arrays: &[A],
    a: &[GhostRegion<f64>],
    b: &[GhostRegion<f64>],
    ctx: &str,
) {
    assert_eq!(a.len(), b.len(), "{ctx}: region count");
    for (k, array) in arrays.iter().map(|x| x.borrow()).enumerate() {
        for proc in array.dist().proc_ids() {
            for point in array.domain().iter() {
                assert_eq!(
                    a[k].get(*proc, &point),
                    b[k].get(*proc, &point),
                    "{ctx}: array {k} at {point:?} on {proc:?}"
                );
            }
        }
    }
}
