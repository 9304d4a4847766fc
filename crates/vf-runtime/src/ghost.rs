//! Overlap (ghost/halo) area exchange.
//!
//! The VFE maintains "overlap areas" for arrays accessed with regular
//! stencils (paper §3.1: the compiler "generates code to create and maintain
//! data structures describing the distributions and other attributes of
//! arrays, such as the associated overlap areas").  The geometry — which
//! boundary elements each processor needs and who owns them — is a ghost
//! [`CommPlan`], planned once and replayed every step:
//!
//! * for a regular stencil, [`crate::PlanCache::ghost_plan`]`(dist, widths)`
//!   (or [`crate::plan::plan_ghost`] for a one-off);
//! * for an irregular (connectivity-driven) halo,
//!   [`crate::PlanCache::ghost_irregular_plan`]`(dist, conn)` (the PARTI
//!   *incremental schedule*);
//! * for a class of arrays, [`crate::PlanCache::ghost_class_plan`], which fuses
//!   the members' plans into one message per processor pair.
//!
//! Three verbs execute a plan, all through the executor that picks the
//! transport (see [`crate::exec`]): [`exchange_ghosts`] (one array),
//! [`exchange_class_ghosts`] (a class, blocking) and
//! [`exchange_class_ghosts_split`] (a class, post now / wait later).  Each
//! fills a [`GhostRegion`] per array, addressable by global point.

use crate::exec::{
    split_execute_fused_wire, ExecBackend, FusedPlan, PlanExecutor, SplitExecReport,
    SplitPhaseExchange,
};
use crate::plan::{CommPlan, PlanKind};
use crate::{DistArray, Element, ExecReport, Result, RuntimeError};
use std::sync::Arc;
use vf_dist::ProcId;
use vf_index::Point;
use vf_machine::{trace, CommTracker};

/// The ghost values gathered for every processor, backed by the plan that
/// fetched them: a flat buffer per processor plus the plan's point → slot
/// index.
#[derive(Debug, Clone)]
pub struct GhostRegion<T> {
    plan: Arc<CommPlan>,
    values: Vec<Vec<T>>,
}

impl<T> GhostRegion<T> {
    /// Assembles a region from a plan and the per-processor value buffers
    /// an exchange filled.
    pub(crate) fn from_parts(plan: Arc<CommPlan>, values: Vec<Vec<T>>) -> Self {
        Self { plan, values }
    }
}

impl<T: Copy> GhostRegion<T> {
    /// The ghost value of `point` held by `proc`, if it was exchanged.
    pub fn get(&self, proc: ProcId, point: &Point) -> Option<T> {
        let slot = self.plan.ghost_slot(proc, point)?;
        self.values.get(proc.0).and_then(|v| v.get(slot)).copied()
    }

    /// Number of ghost elements held by `proc`.
    pub fn len(&self, proc: ProcId) -> usize {
        self.plan.ghost_len(proc)
    }

    /// Whether `proc` holds no ghost elements.
    pub fn is_empty(&self, proc: ProcId) -> bool {
        self.len(proc) == 0
    }
}

/// Communication generated by one ghost exchange.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GhostReport {
    /// Aggregated messages exchanged.
    pub messages: usize,
    /// Total bytes exchanged.
    pub bytes: usize,
    /// Total ghost elements exchanged (sum over processors).
    pub elements: usize,
}

/// Reads the element at `point` on behalf of `proc`, taking it from the
/// local buffer if owned and from the exchanged ghost region otherwise.
///
/// # Errors
/// [`RuntimeError::GhostWidthExceeded`] if the point is neither local nor in
/// the exchanged overlap area.
pub fn get_with_ghosts<T: Element>(
    array: &DistArray<T>,
    ghosts: &GhostRegion<T>,
    proc: ProcId,
    point: &Point,
) -> Result<T> {
    if array.dist().is_local(proc, point) {
        return array.get(point);
    }
    ghosts
        .get(proc, point)
        .ok_or(RuntimeError::GhostWidthExceeded { dim: 0, width: 0 })
}

/// The one *prepare* of the overlap exchange, per (array, plan) pair: a
/// ghost plan, built for the array's distribution, on a tracker modelling
/// enough processors; returns the sizes of the array's per-processor ghost
/// buffers.  Every verb prepares **all** its pairs before anything is
/// charged.
fn prepare<T: Element>(
    array: &DistArray<T>,
    plan: &CommPlan,
    tracker: &CommTracker,
) -> Result<Vec<usize>> {
    if plan.kind() != PlanKind::Ghost {
        return Err(RuntimeError::PlanMismatch {
            expected: plan.src_fingerprint(),
            found: array.dist().fingerprint(),
        });
    }
    plan.check_executable(array.dist(), tracker)?;
    Ok((0..plan.total_procs())
        .map(|p| plan.ghost_len(ProcId(p)))
        .collect())
}

/// [`prepare`] for every member of a class against its part of `fused`,
/// which must be a ghost fusion of exactly `arrays.len()` parts.
fn prepare_class<T: Element>(
    arrays: &[&DistArray<T>],
    fused: &FusedPlan,
    tracker: &CommTracker,
) -> Result<Vec<Vec<usize>>> {
    fused.check_parts(PlanKind::Ghost, "a class ghost exchange", arrays.len())?;
    arrays
        .iter()
        .zip(fused.parts())
        .map(|(array, part)| prepare(array, part, tracker))
        .collect()
}

/// The one *finish* of the overlap exchange: each array's filled buffers
/// wrapped with the plan that addresses them.
fn regions<T>(plans: &[Arc<CommPlan>], bufs: Vec<Vec<Vec<T>>>) -> Vec<GhostRegion<T>> {
    plans
        .iter()
        .zip(bufs)
        .map(|(plan, values)| GhostRegion::from_parts(Arc::clone(plan), values))
        .collect()
}

/// Exchanges the overlap areas of one array: replays the ghost `plan`
/// through `executor` — one `copy_from_slice` per run from the owner's
/// local buffer into the reader's ghost buffer on a shared-memory
/// executor, one frame per (owner → reader) pair on a sharded one —
/// posting one aggregated message per crossing pair before the data moves
/// and completing them afterwards.
///
/// # Errors
/// [`RuntimeError::PlanMismatch`] / [`RuntimeError::TrackerMismatch`] if
/// `plan` is not a ghost plan for `array`'s distribution on this tracker;
/// transport errors as [`PlanExecutor::execute`].
pub fn exchange_ghosts<T: Element, E: PlanExecutor>(
    array: &DistArray<T>,
    plan: &Arc<CommPlan>,
    tracker: &CommTracker,
    executor: &E,
) -> Result<(GhostRegion<T>, GhostReport)> {
    let dst_sizes = prepare(array, plan, tracker)?;
    let _span = trace::OpenSpan::begin_static(trace::Phase::GhostExchange, "array");
    let (values, exec) = executor.execute(plan, array.locals(), &dst_sizes, tracker, true)?;
    let report = GhostReport {
        messages: exec.messages,
        bytes: exec.bytes,
        elements: plan.moved_elements(),
    };
    Ok((GhostRegion::from_parts(Arc::clone(plan), values), report))
}

/// Exchanges the overlap areas of a whole *class* of arrays (`arrays[i]`
/// by part `i` of `fused`): the class pays **one message per communicating
/// processor pair** — the concatenated halo slices of every member, laid
/// out by [`FusedPlan::wire_slices`] — instead of one per array per pair.
/// Every array's ghost buffers are addressed by its own part plan, so
/// regions are bitwise those of one [`exchange_ghosts`] per array; byte
/// and element totals are the sums, only the message count drops.
///
/// # Errors
/// [`RuntimeError::FusionMismatch`] if `fused` is not a ghost fusion or
/// `arrays` disagrees with the parts in length;
/// [`RuntimeError::PlanMismatch`] / [`RuntimeError::TrackerMismatch`] if
/// any part does not apply to its array (validated for *all* arrays before
/// anything is charged); transport errors as
/// [`PlanExecutor::execute_fused`].
pub fn exchange_class_ghosts<T: Element, E: PlanExecutor>(
    arrays: &[&DistArray<T>],
    fused: &FusedPlan,
    tracker: &CommTracker,
    executor: &E,
) -> Result<(Vec<GhostRegion<T>>, ExecReport)> {
    let dst_sizes = prepare_class(arrays, fused, tracker)?;
    let _span = trace::OpenSpan::begin_with(trace::Phase::GhostExchange, || {
        format!("class of {} arrays", arrays.len())
    });
    let srcs: Vec<&[Vec<T>]> = arrays.iter().map(|a| a.locals()).collect();
    let (bufs, exec) = executor.execute_fused(fused, &srcs, &dst_sizes, tracker)?;
    Ok((regions(fused.parts(), bufs), exec))
}

/// A class ghost exchange caught between its post and its wait: the halo
/// payloads are packed and posted, the backend's pool streams the per-pair
/// unpacks while the caller computes its interior, and
/// [`SplitGhostExchange::wait`] returns ghost regions bitwise identical to
/// [`exchange_class_ghosts`] — the PARTI/CHAOS split-phase execution model
/// (post → interior compute → wait) made real in wall-clock terms.
///
/// The handle is the engine's [`SplitPhaseExchange`] (to which it derefs:
/// `messages`, `bytes`, `is_streaming`, `wait_dest`) plus the typed
/// finisher.  The source arrays must not be mutated while the exchange is
/// in flight (their halo values are already packed; late writes would be
/// silently ignored), and the submitting thread must not run other jobs on
/// the same pool until the wait.
pub struct SplitGhostExchange<'e, T: Element> {
    inner: SplitPhaseExchange<'e, T>,
    parts: Vec<Arc<CommPlan>>,
}

impl<'e, T: Element> std::ops::Deref for SplitGhostExchange<'e, T> {
    type Target = SplitPhaseExchange<'e, T>;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl<T: Element> SplitGhostExchange<'_, T> {
    /// Completes the exchange on the tracker it was posted on: drains the
    /// remaining pairs, charges the posted messages exactly as the
    /// blocking verb does, records the measured overlap, and returns the
    /// filled ghost regions (one per array, bitwise identical to blocking
    /// execution).
    ///
    /// # Errors
    /// Exactly as [`SplitPhaseExchange::wait`]: an unrepairable
    /// [`RuntimeError::CorruptMessage`] (charges settled, corrupt payload
    /// never unpacked).
    pub fn wait(self) -> Result<(Vec<GhostRegion<T>>, SplitExecReport)> {
        let (bufs, report) = self.inner.wait()?;
        Ok((regions(&self.parts, bufs), report))
    }
}

/// Posts the overlap exchange of a class of arrays and returns a
/// [`SplitGhostExchange`] handle *before* the halo payloads are unpacked —
/// the split-phase form of [`exchange_class_ghosts`] (a single array is a
/// class of one: fuse its plan alone).  Pack + post run on the calling
/// thread; compute interior points while `backend`'s pool streams the
/// unpacks, and call [`SplitGhostExchange::wait`] before reading any ghost
/// value.  The handle owns `fused`.
///
/// The split mode packs through shared memory on every backend: on
/// [`ExecBackend::Sharded`] it delivers inline at the post and no channel
/// is involved (a sharded split-phase halo does not exist yet).
///
/// # Errors
/// Exactly as [`exchange_class_ghosts`] — everything is validated before
/// anything is charged or packed.
pub fn exchange_class_ghosts_split<'e, T: Element>(
    arrays: &[&DistArray<T>],
    fused: FusedPlan,
    tracker: &CommTracker,
    backend: &'e ExecBackend,
) -> Result<SplitGhostExchange<'e, T>> {
    let dst_sizes = prepare_class(arrays, &fused, tracker)?;
    let parts = fused.parts().to_vec();
    let _span = trace::OpenSpan::begin_with(trace::Phase::GhostExchange, || {
        format!("split post {} arrays", arrays.len())
    });
    let srcs: Vec<&[Vec<T>]> = arrays.iter().map(|a| a.locals()).collect();
    let inner = split_execute_fused_wire(fused, tracker, backend, &srcs, &dst_sizes);
    Ok(SplitGhostExchange { inner, parts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlanCache, SerialExecutor};
    use vf_dist::{DistType, Distribution, ProcessorView};
    use vf_index::IndexDomain;
    use vf_machine::CostModel;

    fn array_2d(t: DistType, n: usize, view: ProcessorView) -> DistArray<f64> {
        let dist = Distribution::new(t, IndexDomain::d2(n, n), view).unwrap();
        DistArray::from_fn("U", dist, |p| (p.coord(0) * 1000 + p.coord(1)) as f64)
    }

    #[test]
    fn column_distribution_exchanges_column_faces() {
        // ( : , BLOCK) on 4 processors, 8x8 grid, 1-wide halo: interior
        // processors receive 2 columns of 8 elements, edge processors 1.
        let a = array_2d(DistType::columns(), 8, ProcessorView::linear(4));
        let tracker = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.0));
        let plan = PlanCache::new()
            .ghost_plan(a.dist(), &[(1, 1), (1, 1)])
            .unwrap();
        let (ghosts, report) = exchange_ghosts(&a, &plan, &tracker, &SerialExecutor).unwrap();
        assert_eq!(ghosts.len(ProcId(0)), 8);
        assert_eq!(ghosts.len(ProcId(1)), 16);
        assert_eq!(ghosts.len(ProcId(2)), 16);
        assert_eq!(ghosts.len(ProcId(3)), 8);
        // 2 messages per processor except the two edges: 2+2+1+1 = 6 pairs.
        assert_eq!(report.messages, 6);
        assert_eq!(report.elements, 8 + 16 + 16 + 8);
        assert_eq!(report.bytes, report.elements * 8);
        assert_eq!(tracker.snapshot().total_messages(), 6);
        // Ghost values are the true neighbour values.
        assert_eq!(
            ghosts.get(ProcId(0), &Point::d2(3, 3)),
            Some(3.0 * 1000.0 + 3.0)
        );
        assert_eq!(ghosts.get(ProcId(0), &Point::d2(3, 4)), None);
    }

    #[test]
    fn column_halo_is_run_length_encoded() {
        // A whole neighbour column is one contiguous run in both the
        // owner's storage and the ghost buffer: the RLE collapses each
        // (owner -> reader) face to a single run.
        let a = array_2d(DistType::columns(), 8, ProcessorView::linear(4));
        let plan =
            std::sync::Arc::new(crate::plan::plan_ghost(a.dist(), &[(0, 0), (1, 1)]).unwrap());
        for t in plan.transfers() {
            assert_eq!(
                t.runs.len(),
                1,
                "face {:?} -> {:?} not a single run",
                t.src,
                t.dst
            );
            assert_eq!(t.elements, 8);
        }
    }

    #[test]
    fn blocks2d_exchange_includes_corners() {
        let a = array_2d(DistType::blocks2d(), 8, ProcessorView::grid2d(2, 2));
        let tracker = CommTracker::new(4, CostModel::zero());
        let plan = PlanCache::new()
            .ghost_plan(a.dist(), &[(1, 1), (1, 1)])
            .unwrap();
        let (ghosts, report) = exchange_ghosts(&a, &plan, &tracker, &SerialExecutor).unwrap();
        // Each processor owns a 4x4 block; the halo is two faces of 4 plus a
        // corner = 9 elements.
        for p in 0..4 {
            assert_eq!(ghosts.len(ProcId(p)), 9, "processor {p}");
        }
        // Each processor receives from 3 others (2 faces + 1 corner owner).
        assert_eq!(report.messages, 12);
        // Corner value is present and correct.
        assert_eq!(
            ghosts.get(ProcId(0), &Point::d2(5, 5)),
            Some(5.0 * 1000.0 + 5.0)
        );
    }

    #[test]
    fn get_with_ghosts_resolves_local_and_halo() {
        let a = array_2d(DistType::columns(), 8, ProcessorView::linear(4));
        let tracker = CommTracker::new(4, CostModel::zero());
        let plan = PlanCache::new()
            .ghost_plan(a.dist(), &[(0, 0), (1, 1)])
            .unwrap();
        let (ghosts, _) = exchange_ghosts(&a, &plan, &tracker, &SerialExecutor).unwrap();
        // Local element.
        assert_eq!(
            get_with_ghosts(&a, &ghosts, ProcId(0), &Point::d2(5, 1)).unwrap(),
            5001.0
        );
        // Halo element (column 3 belongs to P1).
        assert_eq!(
            get_with_ghosts(&a, &ghosts, ProcId(0), &Point::d2(5, 3)).unwrap(),
            5003.0
        );
        // Beyond the declared halo width.
        assert!(get_with_ghosts(&a, &ghosts, ProcId(0), &Point::d2(5, 8)).is_err());
    }

    #[test]
    fn zero_width_halo_exchanges_nothing() {
        let a = array_2d(DistType::columns(), 8, ProcessorView::linear(4));
        let tracker = CommTracker::new(4, CostModel::zero());
        let plan = PlanCache::new()
            .ghost_plan(a.dist(), &[(0, 0), (0, 0)])
            .unwrap();
        let (ghosts, report) = exchange_ghosts(&a, &plan, &tracker, &SerialExecutor).unwrap();
        assert_eq!(report.messages, 0);
        assert!(ghosts.is_empty(ProcId(1)));
    }

    #[test]
    fn cyclic_distribution_has_no_segments() {
        let dist = Distribution::new(
            DistType::new(vec![
                vf_dist::DimDist::Cyclic(1),
                vf_dist::DimDist::NotDistributed,
            ]),
            IndexDomain::d2(8, 8),
            ProcessorView::linear(4),
        )
        .unwrap();
        let a: DistArray<f64> = DistArray::new("C", dist);
        let err = PlanCache::new().ghost_plan(a.dist(), &[(1, 1), (0, 0)]);
        assert!(matches!(
            err,
            Err(RuntimeError::NonContiguousLayout { dim: 0, .. })
        ));
        // The message names the scattered dimension.
        assert!(err.unwrap_err().to_string().contains("dimension 0"));
    }

    #[test]
    fn width_rank_mismatch_rejected() {
        let a = array_2d(DistType::columns(), 4, ProcessorView::linear(2));
        assert!(PlanCache::new().ghost_plan(a.dist(), &[(1, 1)]).is_err());
    }

    #[test]
    fn cached_exchange_matches_uncached() {
        let a = array_2d(DistType::blocks2d(), 8, ProcessorView::grid2d(2, 2));
        let cache = PlanCache::new();
        let t_cached = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        let t_fresh = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        let widths = [(1, 1), (1, 1)];

        let plan = PlanCache::new().ghost_plan(a.dist(), &widths).unwrap();
        let (fresh_ghosts, fresh_report) =
            exchange_ghosts(&a, &plan, &t_fresh, &SerialExecutor).unwrap();
        // Two cached exchanges: one miss, one hit.
        let cached = |tracker: &CommTracker| {
            let plan = cache.ghost_plan(a.dist(), &widths).unwrap();
            exchange_ghosts(&a, &plan, tracker, &SerialExecutor).unwrap()
        };
        let (g1, r1) = cached(&t_cached);
        let (g2, r2) = cached(&t_cached);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(r1, fresh_report);
        assert_eq!(r2, fresh_report);
        for p in a.dist().proc_ids() {
            for point in a.domain().iter() {
                assert_eq!(g1.get(*p, &point), fresh_ghosts.get(*p, &point));
                assert_eq!(g2.get(*p, &point), fresh_ghosts.get(*p, &point));
            }
        }
        // The tracker saw the same traffic twice.
        assert_eq!(
            t_cached.snapshot().total_bytes(),
            2 * t_fresh.snapshot().total_bytes()
        );
    }

    #[test]
    fn fused_class_exchange_charges_one_message_per_pair() {
        // Three stencil arrays on one distribution: the fused exchange must
        // produce exactly the single-array pair count (one message per
        // communicating pair for the whole class) while moving three
        // arrays' worth of bytes, and every ghost value must equal the
        // per-array exchange bitwise.
        let a = array_2d(DistType::blocks2d(), 8, ProcessorView::grid2d(2, 2));
        let b = {
            let mut b = a.clone();
            b.map_all_owned(|_, _, v| -v);
            b
        };
        let c = {
            let mut c = a.clone();
            c.map_all_owned(|_, _, v| v * 3.0);
            c
        };
        let widths = [(1, 1), (1, 1)];
        let cache = PlanCache::new();
        let t_fused = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        let fused = cache
            .ghost_class_plan([&a, &b, &c].map(|x| x.dist()), &widths)
            .unwrap();
        let (regions, exec) =
            exchange_class_ghosts(&[&a, &b, &c], &fused, &t_fused, &SerialExecutor).unwrap();
        assert_eq!(regions.len(), 3);

        let t_single = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        // The members share a distribution, so one plan serves all three.
        let plan = cache.ghost_plan(a.dist(), &widths).unwrap();
        let (ga, ra) = exchange_ghosts(&a, &plan, &t_single, &SerialExecutor).unwrap();
        let (gb, rb) = exchange_ghosts(&b, &plan, &t_single, &SerialExecutor).unwrap();
        let (gc, rc) = exchange_ghosts(&c, &plan, &t_single, &SerialExecutor).unwrap();
        // One message per communicating pair — not per array per pair.
        assert_eq!(exec.messages, ra.messages);
        assert_eq!(
            3 * exec.messages,
            ra.messages + rb.messages + rc.messages,
            "per-array execution charges once per array per pair"
        );
        // Bytes are conserved exactly.
        assert_eq!(exec.bytes, ra.bytes + rb.bytes + rc.bytes);
        let stats = t_fused.snapshot();
        assert_eq!(stats.total_messages(), exec.messages);
        assert_eq!(stats.total_bytes(), exec.bytes);
        // Values are the per-array exchange bitwise.
        for p in a.dist().proc_ids() {
            for point in a.domain().iter() {
                assert_eq!(regions[0].get(*p, &point), ga.get(*p, &point));
                assert_eq!(regions[1].get(*p, &point), gb.get(*p, &point));
                assert_eq!(regions[2].get(*p, &point), gc.get(*p, &point));
            }
        }
    }

    #[test]
    fn fused_exchange_validates_arity_and_distribution() {
        let a = array_2d(DistType::columns(), 8, ProcessorView::linear(4));
        let rows = array_2d(DistType::rows(), 8, ProcessorView::linear(4));
        let widths = [(1, 1), (1, 1)];
        let cache = PlanCache::new();
        let tracker = CommTracker::new(4, CostModel::zero());
        let plan = cache.ghost_plan(a.dist(), &widths).unwrap();
        let fused = FusedPlan::fuse(vec![Arc::clone(&plan), plan]).unwrap();
        // Wrong arity.
        assert!(matches!(
            exchange_class_ghosts(&[&a], &fused, &tracker, &SerialExecutor),
            Err(RuntimeError::FusionMismatch { .. })
        ));
        // Wrong distribution on the second array: nothing charged.
        assert!(matches!(
            exchange_class_ghosts(&[&a, &rows], &fused, &tracker, &SerialExecutor),
            Err(RuntimeError::PlanMismatch { .. })
        ));
        assert_eq!(tracker.snapshot().total_messages(), 0);
    }

    #[test]
    fn irregular_exchange_serves_scattered_indirect_layouts() {
        use vf_dist::{Connectivity, IndirectMap};
        // An alternating-owner indirect layout with a ring connectivity:
        // every neighbour is remote, so each processor's halo is the other
        // processor's whole half.
        let n = 8usize;
        let map = Arc::new(IndirectMap::from_fn(n, |i| i % 2).unwrap());
        let dist = Distribution::new(
            DistType::indirect1d(map),
            vf_index::IndexDomain::d1(n),
            ProcessorView::linear(2),
        )
        .unwrap();
        let a = DistArray::from_fn("R", dist, |p| p.coord(0) as f64 * 10.0);
        let mut xadj = vec![0usize];
        let mut adjncy = Vec::new();
        for u in 0..n {
            adjncy.push((u + n - 1) % n);
            adjncy.push((u + 1) % n);
            xadj.push(adjncy.len());
        }
        let conn = Connectivity::from_csr(xadj, adjncy).unwrap();
        let cache = PlanCache::new();
        let tracker = CommTracker::new(2, CostModel::zero());
        let cached = || {
            let plan = cache.ghost_irregular_plan(a.dist(), &conn).unwrap();
            exchange_ghosts(&a, &plan, &tracker, &SerialExecutor).unwrap()
        };
        let (ghosts, report) = cached();
        assert_eq!(report.elements, n);
        assert_eq!(report.messages, 2);
        for p in 0..2usize {
            assert_eq!(ghosts.len(ProcId(p)), n / 2);
        }
        // Every remote neighbour read resolves to the true value.
        for u in 0..n {
            let owner = ProcId(u % 2);
            for v in [(u + n - 1) % n, (u + 1) % n] {
                let point = Point::d1(v as i64 + 1);
                let got = get_with_ghosts(&a, &ghosts, owner, &point).unwrap();
                assert_eq!(got, (v + 1) as f64 * 10.0, "{u} reading {v}");
            }
        }
        // A second exchange replays the cached incremental schedule.
        cached();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        // The fresh (uncached) variant produces the same region.
        let fresh_plan = Arc::new(crate::plan::plan_ghost_irregular(a.dist(), &conn).unwrap());
        let (fresh, fresh_report) =
            exchange_ghosts(&a, &fresh_plan, &tracker, &SerialExecutor).unwrap();
        assert_eq!(fresh_report, report);
        for p in 0..2usize {
            for point in a.domain().iter() {
                assert_eq!(fresh.get(ProcId(p), &point), ghosts.get(ProcId(p), &point));
            }
        }
    }

    #[test]
    fn plan_for_wrong_distribution_is_rejected() {
        let a = array_2d(DistType::columns(), 8, ProcessorView::linear(4));
        let b = array_2d(DistType::rows(), 8, ProcessorView::linear(4));
        let tracker = CommTracker::new(4, CostModel::zero());
        let plan =
            std::sync::Arc::new(crate::plan::plan_ghost(a.dist(), &[(1, 1), (1, 1)]).unwrap());
        assert!(matches!(
            exchange_ghosts(&b, &plan, &tracker, &SerialExecutor),
            Err(RuntimeError::PlanMismatch { .. })
        ));
    }
}
