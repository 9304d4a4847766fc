//! PARTI-style runtime support for irregular accesses.
//!
//! The paper's §3.2 lists, among the VFE's data-organisation features, "the
//! implementation of irregular accesses via translation tables and
//! sophisticated buffering schemes for accesses to non-local objects, as
//! implemented in the PARTI routines" and notes that the particle motion of
//! the PIC code (Figure 2) requires "runtime code using the
//! inspector/executor paradigm".  This module provides those pieces on top
//! of the unified communication-plan layer ([`crate::plan`]):
//!
//! * [`inspector`] — builds a deduplicated [`CommSchedule`] (a gather
//!   [`CommPlan`]) from the non-local accesses each processor intends to
//!   make, reusing schedules through a [`PlanCache`] while the
//!   distribution and access pattern are unchanged,
//! * the *incremental schedule* — the halo set of an irregularly
//!   distributed array — is an ordinary ghost plan:
//!   [`PlanCache::ghost_irregular_plan`]`(dist, conn)`, executed with
//!   [`crate::ghost::exchange_ghosts`],
//! * [`execute_gather`] — replays a schedule through the executor that
//!   picks the transport (one aggregated message per (owner → reader)
//!   pair),
//! * [`execute_scatter`] — pushes updates to owners with a user-supplied
//!   combine function, placement planned through a [`PlanCache`].

use crate::exec::PlanExecutor;
use crate::plan::{CommPlan, PlanCache, PlanIndex, PlanKind};
use crate::{DistArray, Element, Result, RuntimeError};
use std::sync::Arc;
use vf_dist::{Distribution, ProcId};
use vf_index::Point;
use vf_machine::{trace, CommTracker};

/// A communication schedule built by the [`inspector`]: a gather
/// [`CommPlan`] recording, for every requesting processor, the elements it
/// must fetch from every owner — deduplicated, sorted and run-length
/// encoded.
#[derive(Debug, Clone)]
pub struct CommSchedule {
    plan: Arc<CommPlan>,
}

impl CommSchedule {
    /// The underlying communication plan.
    pub fn plan(&self) -> &Arc<CommPlan> {
        &self.plan
    }

    /// Number of aggregated messages the schedule will generate.
    pub fn num_messages(&self) -> usize {
        self.plan.num_messages()
    }

    /// Total number of elements that will be fetched.
    pub fn num_elements(&self) -> usize {
        self.plan.moved_elements()
    }
}

/// The inspector phase: analyses the non-local accesses each processor
/// intends to make and produces a deduplicated [`CommSchedule`].  Local
/// accesses are dropped; repeated accesses to the same element are fetched
/// once (the "buffering scheme" of the PARTI routines).
///
/// The plan is looked up in `cache` by (distribution fingerprint,
/// access-pattern hash) and rebuilt only on a miss — the PARTI schedule
/// reuse for iterative irregular codes whose access pattern repeats (pass
/// `&PlanCache::new()` for a one-off pattern).
pub fn inspector(
    dist: &Distribution,
    accesses: &[(ProcId, Point)],
    cache: &PlanCache,
) -> Result<CommSchedule> {
    Ok(CommSchedule {
        plan: cache.gather_plan(dist, accesses)?,
    })
}

/// The values fetched by [`execute_gather`], addressable by global index
/// through the schedule's slot index.
#[derive(Debug, Clone)]
pub struct GatherResult<T> {
    plan: Arc<CommPlan>,
    values: Vec<Vec<T>>,
}

impl<T: Copy> GatherResult<T> {
    /// The fetched value of `point` on behalf of `proc`, if scheduled.
    pub fn get(&self, proc: ProcId, dist: &Distribution, point: &Point) -> Option<T> {
        let lin = dist.domain().linearize(point).ok()?;
        let slot = self.plan.gather_slot(proc, lin)?;
        self.values.get(proc.0).and_then(|v| v.get(slot)).copied()
    }

    /// Number of fetched elements held for `proc`.
    pub fn len(&self, proc: ProcId) -> usize {
        self.plan.gather_len(proc)
    }

    /// Whether nothing was fetched for `proc`.
    pub fn is_empty(&self, proc: ProcId) -> bool {
        self.len(proc) == 0
    }
}

/// The executor phase for reads: replays the schedule's plan through
/// `executor` — one `copy_from_slice` per run from the owner's local
/// storage into the requester's gather buffer on a shared-memory executor,
/// one frame per (owner → reader) pair on a sharded one — posting one
/// aggregated message per pair before the data moves and completing them
/// afterwards.
///
/// # Errors
/// [`RuntimeError::PlanMismatch`] / [`RuntimeError::TrackerMismatch`] if
/// the schedule was not built for `array`'s distribution on this tracker;
/// transport errors as [`PlanExecutor::execute`].
pub fn execute_gather<T: Element, E: PlanExecutor>(
    array: &DistArray<T>,
    schedule: &CommSchedule,
    tracker: &CommTracker,
    executor: &E,
) -> Result<GatherResult<T>> {
    let plan = &schedule.plan;
    if plan.kind() != PlanKind::Gather {
        return Err(RuntimeError::PlanMismatch {
            expected: plan.src_fingerprint(),
            found: array.dist().fingerprint(),
        });
    }
    plan.check_executable(array.dist(), tracker)?;
    let _span = trace::OpenSpan::begin_with(trace::Phase::Gather, || {
        format!("{} elements", plan.moved_elements())
    });
    let dst_sizes: Vec<usize> = (0..plan.total_procs())
        .map(|p| plan.gather_len(ProcId(p)))
        .collect();
    let (values, _exec) = executor.execute(plan, array.locals(), &dst_sizes, tracker, true)?;
    Ok(GatherResult {
        plan: Arc::clone(plan),
        values,
    })
}

/// The executor phase for writes: each update `(from, point, value)` is
/// applied at the owner of `point` with `combine(current, value)`; updates
/// that cross processors are aggregated into one message per (source →
/// owner) pair.  Placement is planned through `cache` (pass
/// `&PlanCache::new()` for a one-off pattern).  Returns the number of
/// aggregated messages.
///
/// The updates are partitioned *by owner*: the order of updates to one
/// owner is preserved (the combine function is order-sensitive there),
/// while different owners' update lists are independent and
/// [`PlanExecutor::run_updates`] may run them in parallel — hence
/// `Fn + Sync`.  Results are bitwise identical on every backend.  The
/// updates are applied in place: there is no payload to put on a channel,
/// so a sharded executor applies them exactly as the serial one does.
pub fn execute_scatter<T: Element, E: PlanExecutor>(
    array: &mut DistArray<T>,
    updates: &[(ProcId, Point, T)],
    tracker: &CommTracker,
    cache: &PlanCache,
    executor: &E,
    combine: impl Fn(T, T) -> T + Sync,
) -> Result<usize> {
    let sources: Vec<(ProcId, Point)> = updates.iter().map(|&(p, pt, _)| (p, pt)).collect();
    let plan = cache.scatter_plan(array.dist(), &sources)?;
    let PlanIndex::Scatter { ops, replicated } = &plan.index else {
        return Err(RuntimeError::PlanMismatch {
            expected: plan.src_fingerprint(),
            found: array.dist().fingerprint(),
        });
    };
    plan.check_executable(array.dist(), tracker)?;
    let _span =
        trace::OpenSpan::begin_with(trace::Phase::Scatter, || format!("{} updates", ops.len()));
    if *replicated {
        // Every copy of a replicated array receives the update, as
        // `DistArray::set` does: the combine runs once against the
        // canonical first copy and its result overwrites every replica —
        // an inherently cross-owner order, applied on the calling thread.
        let all_procs: Vec<ProcId> = array.dist().proc_ids().to_vec();
        if let Some(&canonical) = all_procs.first() {
            for (op, &(_, _, value)) in ops.iter().zip(updates) {
                let combined = combine(array.local(canonical)[op.local], value);
                for &p in &all_procs {
                    array.local_mut(p)[op.local] = combined;
                }
            }
        }
    } else {
        // Partition the updates by owner, preserving program order per
        // owner.
        let mut per_owner: Vec<Vec<(usize, T)>> = vec![Vec::new(); plan.total_procs()];
        for (op, &(_, _, value)) in ops.iter().zip(updates) {
            per_owner[op.owner.0].push((op.local, value));
        }
        executor.run_updates(array.locals_mut(), &per_owner, &combine);
    }
    let (messages, _) = plan.charge(tracker, T::BYTES, true);
    Ok(messages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{SerialExecutor, ThreadedExecutor};
    use crate::ghost::exchange_ghosts;
    use vf_dist::{DistType, ProcessorView};
    use vf_index::IndexDomain;
    use vf_machine::CostModel;
    use vf_machine::WorkerPool;

    fn cyclic_array(n: usize, p: usize) -> DistArray<f64> {
        let dist = Distribution::new(
            DistType::cyclic1d(1),
            IndexDomain::d1(n),
            ProcessorView::linear(p),
        )
        .unwrap();
        DistArray::from_fn("X", dist, |pt| pt.coord(0) as f64)
    }

    #[test]
    fn inspector_dedups_and_skips_local() {
        let a = cyclic_array(12, 4);
        // P0 wants elements 1 (local), 2 (on P1), 2 again, and 3 (on P2).
        let accesses = vec![
            (ProcId(0), Point::d1(1)),
            (ProcId(0), Point::d1(2)),
            (ProcId(0), Point::d1(2)),
            (ProcId(0), Point::d1(3)),
            (ProcId(3), Point::d1(1)),
        ];
        let schedule = inspector(a.dist(), &accesses, &PlanCache::new()).unwrap();
        assert_eq!(schedule.num_elements(), 3);
        assert_eq!(schedule.num_messages(), 3);
        let plan = schedule.plan();
        assert_eq!(plan.senders_to(ProcId(0)), vec![ProcId(1), ProcId(2)]);
        assert_eq!(plan.senders_to(ProcId(3)), vec![ProcId(0)]);
        assert!(plan.senders_to(ProcId(1)).is_empty());
    }

    #[test]
    fn sharded_gather_matches_shared_oracle() {
        let a = cyclic_array(24, 4);
        // A spread of cross-processor reads, duplicates included, plus one
        // local read that never leaves its rank.
        let accesses: Vec<(ProcId, Point)> = (0..20)
            .map(|i| (ProcId(i % 4), Point::d1(((i * 7) % 24) as i64 + 1)))
            .collect();
        let schedule = inspector(a.dist(), &accesses, &PlanCache::new()).unwrap();

        let oracle_tracker = CommTracker::new(4, CostModel::zero());
        let oracle = execute_gather(&a, &schedule, &oracle_tracker, &SerialExecutor).unwrap();

        let tracker = CommTracker::new(4, CostModel::zero());
        let exec = crate::shard::ShardedExecutor::new();
        let sharded = execute_gather(&a, &schedule, &tracker, &exec).unwrap();

        for &(p, ref pt) in &accesses {
            assert_eq!(
                sharded.get(p, a.dist(), pt),
                oracle.get(p, a.dist(), pt),
                "gather mismatch for proc {p:?} at {pt:?}"
            );
        }
        let stats = tracker.snapshot();
        let shared = oracle_tracker.snapshot();
        assert_eq!(stats.total_messages(), shared.total_messages());
        assert_eq!(stats.total_bytes(), shared.total_bytes());
        // Every modelled byte crossed a real channel, and nothing else did.
        assert_eq!(stats.channel_messages(), shared.total_messages());
        assert_eq!(stats.channel_bytes(), shared.total_bytes());
    }

    #[test]
    fn gather_fetches_scheduled_values() {
        let a = cyclic_array(12, 4);
        let accesses = vec![
            (ProcId(0), Point::d1(2)),
            (ProcId(0), Point::d1(6)),
            (ProcId(1), Point::d1(12)),
        ];
        let schedule = inspector(a.dist(), &accesses, &PlanCache::new()).unwrap();
        let tracker = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.0));
        let gathered = execute_gather(&a, &schedule, &tracker, &SerialExecutor).unwrap();
        assert_eq!(gathered.get(ProcId(0), a.dist(), &Point::d1(2)), Some(2.0));
        assert_eq!(gathered.get(ProcId(0), a.dist(), &Point::d1(6)), Some(6.0));
        assert_eq!(
            gathered.get(ProcId(1), a.dist(), &Point::d1(12)),
            Some(12.0)
        );
        assert_eq!(gathered.get(ProcId(1), a.dist(), &Point::d1(2)), None);
        assert_eq!(gathered.len(ProcId(0)), 2);
        assert!(gathered.is_empty(ProcId(2)));
        // Elements 2 and 6 both live on P1 → one aggregated message to P0,
        // plus one message P3 → P1 for element 12.
        let stats = tracker.snapshot();
        assert_eq!(stats.total_messages(), 2);
        assert_eq!(stats.total_bytes(), 3 * 8);
    }

    #[test]
    fn scatter_accumulates_at_owner() {
        let mut a = cyclic_array(8, 2);
        let tracker = CommTracker::new(2, CostModel::zero());
        let updates = vec![
            (ProcId(0), Point::d1(2), 10.0), // element 2 owned by P1 → message
            (ProcId(0), Point::d1(1), 5.0),  // local → no message
            (ProcId(1), Point::d1(2), 1.0),  // local → no message
        ];
        let messages = execute_scatter(
            &mut a,
            &updates,
            &tracker,
            &PlanCache::new(),
            &SerialExecutor,
            |a, b| a + b,
        )
        .unwrap();
        assert_eq!(messages, 1);
        assert_eq!(a.get(&Point::d1(2)).unwrap(), 2.0 + 10.0 + 1.0);
        assert_eq!(a.get(&Point::d1(1)).unwrap(), 1.0 + 5.0);
        assert_eq!(tracker.snapshot().total_messages(), 1);
    }

    #[test]
    fn scatter_through_executor_matches_serial_with_order_sensitive_combine() {
        // Repeated updates to the same element through a non-commutative,
        // non-associative combine: only per-owner in-order application
        // gives the serial result, so this fails if a backend reorders
        // within an owner.
        let n = 64usize;
        let p = 4usize;
        let combine = |a: f64, b: f64| a * 0.5 + b;
        let updates: Vec<(ProcId, Point, f64)> = (0..4 * n)
            .map(|k| {
                (
                    ProcId(k % p),
                    Point::d1((k % n) as i64 + 1),
                    (k as f64).sin(),
                )
            })
            .collect();
        let mut serial = cyclic_array(n, p);
        let t1 = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.5));
        let fresh = PlanCache::new();
        let m_serial =
            execute_scatter(&mut serial, &updates, &t1, &fresh, &SerialExecutor, combine).unwrap();
        for workers in [2, 3] {
            let mut threaded = cyclic_array(n, p);
            let t2 = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.5));
            let exec = ThreadedExecutor::with_pool(Arc::new(WorkerPool::new(workers)))
                .with_serial_cutoff(0);
            let m_thr =
                execute_scatter(&mut threaded, &updates, &t2, &fresh, &exec, combine).unwrap();
            assert_eq!(m_serial, m_thr);
            assert_eq!(serial.to_dense(), threaded.to_dense(), "{workers} workers");
            assert_eq!(t1.snapshot(), t2.snapshot());
        }
        // The placement plan was planned once and reused ever since.
        assert_eq!(fresh.stats().misses, 1);
        assert_eq!(fresh.stats().hits, 2);
    }

    #[test]
    fn scatter_with_replicated_target_falls_back_to_serial_semantics() {
        let dist = Distribution::new(
            DistType::new(vec![vf_dist::DimDist::NotDistributed]),
            IndexDomain::d1(4),
            ProcessorView::linear(3),
        )
        .unwrap();
        let mut a: DistArray<f64> = DistArray::new("R", dist);
        let tracker = CommTracker::new(3, CostModel::zero());
        let exec = ThreadedExecutor::with_pool(Arc::new(WorkerPool::new(3))).with_serial_cutoff(0);
        execute_scatter(
            &mut a,
            &[
                (ProcId(2), Point::d1(2), 7.0),
                (ProcId(0), Point::d1(2), 1.0),
            ],
            &tracker,
            &PlanCache::new(),
            &exec,
            |x, y| x + y,
        )
        .unwrap();
        for p in 0..3 {
            assert_eq!(a.local(ProcId(p))[1], 8.0, "copy on P{p}");
        }
    }

    #[test]
    fn scatter_updates_every_copy_of_replicated_arrays() {
        let dist = Distribution::new(
            DistType::new(vec![vf_dist::DimDist::NotDistributed]),
            IndexDomain::d1(4),
            ProcessorView::linear(3),
        )
        .unwrap();
        let mut a: DistArray<f64> = DistArray::new("R", dist);
        let tracker = CommTracker::new(3, CostModel::zero());
        execute_scatter(
            &mut a,
            &[(ProcId(2), Point::d1(2), 7.0)],
            &tracker,
            &PlanCache::new(),
            &SerialExecutor,
            |x, y| x + y,
        )
        .unwrap();
        for p in 0..3 {
            assert_eq!(a.local(ProcId(p))[1], 7.0, "copy on P{p}");
        }
    }

    #[test]
    fn incremental_schedule_agrees_with_the_gather_inspector() {
        use std::sync::Arc as StdArc;
        use vf_dist::{Connectivity, IndirectMap, ProcessorView};
        use vf_index::IndexDomain;
        // A scattered indirect layout under a ring access pattern: the
        // incremental schedule must fetch exactly the elements the gather
        // inspector schedules for the equivalent per-edge reads, with the
        // same per-pair message structure, and the fetched values must
        // agree point for point.
        let n = 12usize;
        let p = 3usize;
        let map = StdArc::new(IndirectMap::from_fn(n, |i| (i * 5 + 1) % p).unwrap());
        let dist = Distribution::new(
            DistType::indirect1d(map),
            IndexDomain::d1(n),
            ProcessorView::linear(p),
        )
        .unwrap();
        let a = DistArray::from_fn("H", dist.clone(), |pt| (pt.coord(0) * 7) as f64);
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        for u in 0..n {
            adjncy.push((u + n - 1) % n);
            adjncy.push((u + 1) % n);
            xadj.push(adjncy.len());
        }
        let conn = Connectivity::from_csr(xadj, adjncy).unwrap();
        let schedule = PlanCache::new().ghost_irregular_plan(&dist, &conn).unwrap();

        // The same reads, expressed as explicit per-edge gather accesses.
        let locator = dist.locator();
        let accesses: Vec<(ProcId, Point)> = (0..n)
            .flat_map(|u| {
                let owner = locator.locate_lin(u).0;
                [(owner, (u + n - 1) % n), (owner, (u + 1) % n)]
            })
            .map(|(o, v)| (o, Point::d1(v as i64 + 1)))
            .collect();
        let gather = inspector(&dist, &accesses, &PlanCache::new()).unwrap();
        assert_eq!(schedule.moved_elements(), gather.num_elements());
        assert_eq!(schedule.num_messages(), gather.num_messages());
        for q in 0..p {
            assert_eq!(
                schedule.senders_to(ProcId(q)),
                gather.plan().senders_to(ProcId(q)),
                "P{q}"
            );
        }

        let t1 = CommTracker::new(p, CostModel::zero());
        let t2 = CommTracker::new(p, CostModel::zero());
        let (halo, report) = exchange_ghosts(&a, &schedule, &t1, &SerialExecutor).unwrap();
        let fetched = execute_gather(&a, &gather, &t2, &SerialExecutor).unwrap();
        assert_eq!(report.elements, gather.num_elements());
        for (q, point) in &accesses {
            if a.dist().is_local(*q, point) {
                continue;
            }
            assert_eq!(
                halo.get(*q, point),
                fetched.get(*q, a.dist(), point),
                "P{q:?} at {point:?}"
            );
        }
    }

    #[test]
    fn schedule_reuse_costs_the_same_every_time() {
        // The schedule can be reused while the distribution is unchanged —
        // the ablation of DESIGN.md §5 (inspector reuse).
        let a = cyclic_array(16, 4);
        let accesses: Vec<_> = (1..=16).map(|i| (ProcId(0), Point::d1(i))).collect();
        let schedule = inspector(a.dist(), &accesses, &PlanCache::new()).unwrap();
        let tracker = CommTracker::new(4, CostModel::zero());
        let g1 = execute_gather(&a, &schedule, &tracker, &SerialExecutor).unwrap();
        let g2 = execute_gather(&a, &schedule, &tracker, &SerialExecutor).unwrap();
        assert_eq!(g1.len(ProcId(0)), g2.len(ProcId(0)));
        assert_eq!(
            tracker.snapshot().total_messages(),
            2 * schedule.num_messages()
        );
    }

    #[test]
    fn cached_inspector_hits_on_repeat_pattern() {
        let a = cyclic_array(16, 4);
        let cache = PlanCache::new();
        let accesses: Vec<_> = (1..=16).map(|i| (ProcId(0), Point::d1(i))).collect();
        let s1 = inspector(a.dist(), &accesses, &cache).unwrap();
        let s2 = inspector(a.dist(), &accesses, &cache).unwrap();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        // Both handles share one plan.
        assert!(Arc::ptr_eq(s1.plan(), s2.plan()));
        // A different access pattern misses.
        let other: Vec<_> = (1..=8).map(|i| (ProcId(1), Point::d1(i))).collect();
        inspector(a.dist(), &other, &cache).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn gather_runs_are_merged_for_contiguous_requests() {
        // A block distribution with a request for a whole remote block:
        // one run per (owner, reader) pair.
        let dist = Distribution::new(
            DistType::block1d(),
            IndexDomain::d1(16),
            ProcessorView::linear(4),
        )
        .unwrap();
        let a = DistArray::from_fn("B", dist, |pt| pt.coord(0) as f64);
        let accesses: Vec<_> = (5..=8).map(|i| (ProcId(0), Point::d1(i))).collect();
        let schedule = inspector(a.dist(), &accesses, &PlanCache::new()).unwrap();
        assert_eq!(schedule.plan().transfers().len(), 1);
        assert_eq!(schedule.plan().transfers()[0].runs.len(), 1);
        assert_eq!(schedule.plan().transfers()[0].elements, 4);
    }
}
