//! Overlap (ghost/halo) area exchange for regular stencil accesses.
//!
//! The VFE maintains "overlap areas" for arrays accessed with regular
//! stencils (paper §3.1: the compiler "generates code to create and maintain
//! data structures describing the distributions and other attributes of
//! arrays, such as the associated overlap areas").  The geometry — which
//! boundary elements each processor needs and who owns them — is computed
//! once by [`crate::plan::plan_ghost`] as a run-length-encoded
//! [`CommPlan`]; executing the plan fills a [`GhostRegion`] buffer with one
//! `copy_from_slice` per run and charges one aggregated message per
//! (owner → reader) pair.  Iterative stencil codes reuse the plan through a
//! [`PlanCache`] ([`exchange_ghosts_cached`]) so the per-step cost is the
//! copy, not the geometry.

use crate::exec::{
    execute_fused_parts, execute_fused_wire, split_execute_fused_wire, ExecBackend, FusedPlan,
    PlanExecutor, SerialExecutor, SplitExecReport, SplitPhaseExchange,
};
use crate::plan::{plan_ghost, plan_ghost_irregular, CommPlan, PlanCache, PlanKind};
use crate::shard::{RankShards, ShardedExecutor};
use crate::{DistArray, Element, ExecReport, Result, RuntimeError};
use std::sync::Arc;
use vf_dist::{Connectivity, ProcId};
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
    /// Assembles a region from a plan and per-processor value buffers —
    /// the constructor the channel-backed sharded exchange uses after
    /// gathering each rank's ghost buffer.
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

/// Exchanges the overlap areas of `array` for a stencil that reads up to
/// `widths[d].0` elements below and `widths[d].1` elements above the owned
/// segment in dimension `d`.
///
/// Every processor must own a contiguous rectangular segment (true for
/// `BLOCK`, general block and `:` dimensions); each (owner → reader) pair
/// exchanges a single aggregated message.  The exchange plans from scratch
/// on every call; iterative codes should prefer [`exchange_ghosts_cached`].
pub fn exchange_ghosts<T: Element>(
    array: &DistArray<T>,
    widths: &[(usize, usize)],
    tracker: &CommTracker,
) -> Result<(GhostRegion<T>, GhostReport)> {
    let plan = Arc::new(plan_ghost(array.dist(), widths)?);
    exchange_ghosts_planned(array, &plan, tracker)
}

/// [`exchange_ghosts`] with plan reuse through `cache`: the halo geometry
/// is planned once per (distribution fingerprint, widths) pair and every
/// later step only replays the copy runs — the schedule reuse that makes
/// iterative stencils (smoothing, PIC field halos) cheap.
pub fn exchange_ghosts_cached<T: Element>(
    array: &DistArray<T>,
    widths: &[(usize, usize)],
    tracker: &CommTracker,
    cache: &PlanCache,
) -> Result<(GhostRegion<T>, GhostReport)> {
    exchange_ghosts_cached_with(array, widths, tracker, cache, &SerialExecutor)
}

/// [`exchange_ghosts_cached`] with an explicit execution backend: the halo
/// copies run through `executor` (e.g. the threaded backend), the filled
/// ghost buffers are bit-identical to serial execution.
pub fn exchange_ghosts_cached_with<T: Element, E: PlanExecutor>(
    array: &DistArray<T>,
    widths: &[(usize, usize)],
    tracker: &CommTracker,
    cache: &PlanCache,
    executor: &E,
) -> Result<(GhostRegion<T>, GhostReport)> {
    let plan = cache.ghost_plan(array.dist(), widths)?;
    exchange_ghosts_planned_with(array, &plan, tracker, executor)
}

/// The executor half of the overlap exchange with the serial backend —
/// see [`exchange_ghosts_planned_with`].
pub fn exchange_ghosts_planned<T: Element>(
    array: &DistArray<T>,
    plan: &Arc<CommPlan>,
    tracker: &CommTracker,
) -> Result<(GhostRegion<T>, GhostReport)> {
    exchange_ghosts_planned_with(array, plan, tracker, &SerialExecutor)
}

/// The executor half of the overlap exchange: replays a (possibly cached)
/// ghost [`CommPlan`] through the chosen [`PlanExecutor`] backend — one
/// `copy_from_slice` per run from the owner's local buffer into the
/// reader's ghost buffer — posting one aggregated message per crossing
/// (owner → reader) pair before the copies and completing them afterwards.
pub fn exchange_ghosts_planned_with<T: Element, E: PlanExecutor>(
    array: &DistArray<T>,
    plan: &Arc<CommPlan>,
    tracker: &CommTracker,
    executor: &E,
) -> Result<(GhostRegion<T>, GhostReport)> {
    if plan.kind() != PlanKind::Ghost {
        return Err(RuntimeError::PlanMismatch {
            expected: plan.src_fingerprint(),
            found: array.dist().fingerprint(),
        });
    }
    plan.check_executable(array.dist(), tracker)?;

    let _span = trace::OpenSpan::begin_static(trace::Phase::GhostExchange, "planned");
    let dst_sizes: Vec<usize> = (0..plan.total_procs())
        .map(|p| plan.ghost_len(ProcId(p)))
        .collect();
    let (values, exec) = executor.execute(plan, array.locals(), &dst_sizes, tracker, true);
    let report = GhostReport {
        messages: exec.messages,
        bytes: exec.bytes,
        elements: plan.moved_elements(),
    };
    Ok((
        GhostRegion {
            plan: Arc::clone(plan),
            values,
        },
        report,
    ))
}

/// Exchanges the overlap areas of a whole *class* of arrays — the fused
/// ghost exchange — with the serial backend: every array's halo is planned
/// through `cache`, the per-array plans are fused, and the class pays
/// **one message per communicating processor pair** instead of one per
/// array per pair.  See [`exchange_ghosts_fused_planned_with`].
pub fn exchange_ghosts_fused<T: Element>(
    arrays: &[&DistArray<T>],
    widths: &[(usize, usize)],
    tracker: &CommTracker,
    cache: &PlanCache,
) -> Result<(Vec<GhostRegion<T>>, ExecReport)> {
    exchange_ghosts_fused_with(arrays, widths, tracker, cache, &SerialExecutor)
}

/// [`exchange_ghosts_fused`] with an explicit execution backend.
pub fn exchange_ghosts_fused_with<T: Element, E: PlanExecutor>(
    arrays: &[&DistArray<T>],
    widths: &[(usize, usize)],
    tracker: &CommTracker,
    cache: &PlanCache,
    executor: &E,
) -> Result<(Vec<GhostRegion<T>>, ExecReport)> {
    let mut parts = Vec::with_capacity(arrays.len());
    for array in arrays {
        parts.push(cache.ghost_plan(array.dist(), widths)?);
    }
    let fused = FusedPlan::fuse(parts)?;
    exchange_ghosts_fused_planned_with(arrays, &fused, tracker, executor)
}

/// The executor half of the fused overlap exchange: every array's ghost
/// buffers are filled by its own part plan (so each array's point → slot
/// index is untouched — the per-pair payload remapping lives in
/// [`FusedPlan::wire_slices`]), while the modelled communication is posted
/// **once for the whole class** — a single message per crossing processor
/// pair, carrying the concatenated payloads — before any copy starts and
/// completed after the last one finishes.  Byte and element totals equal
/// the sum over per-array exchanges exactly; only the message count drops.
///
/// # Errors
/// [`RuntimeError::FusionMismatch`] if `fused` is not a ghost fusion or
/// `arrays` disagrees with the parts in length;
/// [`RuntimeError::PlanMismatch`] / [`RuntimeError::TrackerMismatch`] if
/// any part does not apply to its array (validated for *all* arrays before
/// anything executes).
pub fn exchange_ghosts_fused_planned_with<T: Element, E: PlanExecutor>(
    arrays: &[&DistArray<T>],
    fused: &FusedPlan,
    tracker: &CommTracker,
    executor: &E,
) -> Result<(Vec<GhostRegion<T>>, ExecReport)> {
    fused.check_parts(PlanKind::Ghost, "exchange_ghosts_fused", arrays.len())?;
    // Validate every (array, part) pair before anything is charged.
    for (array, part) in arrays.iter().zip(fused.parts()) {
        part.check_executable(array.dist(), tracker)?;
    }

    let _span = trace::OpenSpan::begin_with(trace::Phase::GhostExchange, || {
        format!("fused {} arrays", arrays.len())
    });
    let mut regions = Vec::with_capacity(arrays.len());
    let exec = execute_fused_parts(fused, tracker, T::BYTES, |idx, part| {
        let dst_sizes: Vec<usize> = (0..part.total_procs())
            .map(|p| part.ghost_len(ProcId(p)))
            .collect();
        let values =
            executor.run_copies(part.transfers(), arrays[idx].locals(), &dst_sizes, tracker);
        regions.push(GhostRegion {
            plan: Arc::clone(&fused.parts()[idx]),
            values,
        });
    });
    Ok((regions, exec))
}

/// [`exchange_ghosts_fused`] through the **wire-layout** path (serial
/// backend) — see [`exchange_ghosts_fused_wire_with`].
pub fn exchange_ghosts_fused_wire<T: Element>(
    arrays: &[&DistArray<T>],
    widths: &[(usize, usize)],
    tracker: &CommTracker,
    cache: &PlanCache,
) -> Result<(Vec<GhostRegion<T>>, ExecReport)> {
    exchange_ghosts_fused_wire_with(arrays, widths, tracker, cache, &SerialExecutor)
}

/// [`exchange_ghosts_fused_with`] through the **wire-layout** path: each
/// communicating processor pair's payload — the concatenated halo slices
/// of every array in the class, laid out by
/// [`FusedPlan::wire_slices`] — is packed into one contiguous wire buffer,
/// charged as exactly one message, and unpacked into the per-array ghost
/// buffers at the destination.  Regions, reports and charged traffic are
/// bitwise identical to the per-part fused exchange; only the copy
/// organisation changes from per-part scattered runs to per-pair memcpy
/// streams, with the pack/unpack phases run through `executor` (the
/// pooled backend parallelises them over destinations) and credited as
/// copy-overlap compute.
pub fn exchange_ghosts_fused_wire_with<T: Element, E: PlanExecutor>(
    arrays: &[&DistArray<T>],
    widths: &[(usize, usize)],
    tracker: &CommTracker,
    cache: &PlanCache,
    executor: &E,
) -> Result<(Vec<GhostRegion<T>>, ExecReport)> {
    let mut parts = Vec::with_capacity(arrays.len());
    for array in arrays {
        parts.push(cache.ghost_plan(array.dist(), widths)?);
    }
    let fused = FusedPlan::fuse(parts)?;
    exchange_ghosts_fused_planned_wire_with(arrays, &fused, tracker, executor)
}

/// The executor half of the wire-packed fused overlap exchange — the
/// wire-layout counterpart of [`exchange_ghosts_fused_planned_with`],
/// with identical validation, errors and charged traffic.
pub fn exchange_ghosts_fused_planned_wire_with<T: Element, E: PlanExecutor>(
    arrays: &[&DistArray<T>],
    fused: &FusedPlan,
    tracker: &CommTracker,
    executor: &E,
) -> Result<(Vec<GhostRegion<T>>, ExecReport)> {
    fused.check_parts(PlanKind::Ghost, "exchange_ghosts_fused_wire", arrays.len())?;
    // Validate every (array, part) pair before anything is charged.
    for (array, part) in arrays.iter().zip(fused.parts()) {
        part.check_executable(array.dist(), tracker)?;
    }
    let _span = trace::OpenSpan::begin_with(trace::Phase::GhostExchange, || {
        format!("wire {} arrays", arrays.len())
    });
    let dst_sizes: Vec<Vec<usize>> = fused
        .parts()
        .iter()
        .map(|part| {
            (0..part.total_procs())
                .map(|p| part.ghost_len(ProcId(p)))
                .collect()
        })
        .collect();
    let (bufs, exec) = {
        let srcs: Vec<&[Vec<T>]> = arrays.iter().map(|a| a.locals()).collect();
        execute_fused_wire(fused, tracker, executor, &srcs, &dst_sizes)?
    };
    let regions = fused
        .parts()
        .iter()
        .zip(bufs)
        .map(|(part, values)| GhostRegion {
            plan: Arc::clone(part),
            values,
        })
        .collect();
    Ok((regions, exec))
}

/// The wire-packed fused overlap exchange through the distributed-memory
/// backend: each rank reads only its own segment of every array, and the
/// halo payloads travel over real [`vf_machine::spmd`] channels as framed
/// wire messages.  Ghost regions, the report and the modelled charges are
/// bitwise identical to [`exchange_ghosts_fused_wire_with`]; the real
/// channel traffic is additionally counted in the tracker's channel
/// statistics.
///
/// # Errors
/// As [`exchange_ghosts_fused_wire_with`], plus [`RuntimeError::Channel`]
/// when a rank's channel operation fails mid-region.
pub fn exchange_ghosts_fused_sharded<T: Element>(
    arrays: &[&DistArray<T>],
    widths: &[(usize, usize)],
    tracker: &CommTracker,
    cache: &PlanCache,
    executor: &ShardedExecutor,
) -> Result<(Vec<GhostRegion<T>>, ExecReport)> {
    let mut parts = Vec::with_capacity(arrays.len());
    for array in arrays {
        parts.push(cache.ghost_plan(array.dist(), widths)?);
    }
    let fused = FusedPlan::fuse(parts)?;
    exchange_ghosts_fused_planned_sharded(arrays, &fused, tracker, executor)
}

/// The executor half of [`exchange_ghosts_fused_sharded`], for callers
/// that manage the fused plan themselves.
pub fn exchange_ghosts_fused_planned_sharded<T: Element>(
    arrays: &[&DistArray<T>],
    fused: &FusedPlan,
    tracker: &CommTracker,
    executor: &ShardedExecutor,
) -> Result<(Vec<GhostRegion<T>>, ExecReport)> {
    fused.check_parts(
        PlanKind::Ghost,
        "exchange_ghosts_fused_sharded",
        arrays.len(),
    )?;
    for (array, part) in arrays.iter().zip(fused.parts()) {
        part.check_executable(array.dist(), tracker)?;
    }
    let _span = trace::OpenSpan::begin_with(trace::Phase::GhostExchange, || {
        format!("sharded {} arrays", arrays.len())
    });
    let copy_secs = crate::exec::wire_copy_seconds(fused, T::BYTES, tracker);
    let (bufs, exec) = crate::shard::sharded_fused_exchange(
        fused,
        tracker,
        executor,
        &RankShards::of(arrays),
        &|idx, r| fused.parts()[idx].ghost_len(ProcId(r)),
        &copy_secs,
    )?;
    let regions = fused
        .parts()
        .iter()
        .zip(bufs)
        .map(|(part, values)| GhostRegion::from_parts(Arc::clone(part), values))
        .collect();
    Ok((regions, exec))
}

/// A fused ghost exchange caught between its post and its wait: the halo
/// payloads are packed and posted, the backend's pool streams the per-pair
/// unpacks while the caller computes its interior, and
/// [`SplitGhostExchange::wait`] returns ghost regions bitwise identical to
/// [`exchange_ghosts_fused_wire_with`] — the PARTI/CHAOS split-phase
/// execution model (post → interior compute → wait) made real in
/// wall-clock terms.
///
/// The source arrays must not be mutated while the exchange is in flight
/// (their halo values are already packed; late writes would be silently
/// ignored), and the submitting thread must not run other jobs on the same
/// pool until the wait (see [`SplitPhaseExchange`]).
pub struct SplitGhostExchange<'e, T: Element> {
    inner: SplitPhaseExchange<'e, T>,
    parts: Vec<Arc<CommPlan>>,
}

impl<'e, T: Element> SplitGhostExchange<'e, T> {
    /// Messages posted (one per crossing processor pair).
    pub fn messages(&self) -> usize {
        self.inner.messages()
    }

    /// Bytes posted.
    pub fn bytes(&self) -> usize {
        self.inner.bytes()
    }

    /// Whether the unpack is streaming on background workers (`false`
    /// means everything already ran inline at the post).
    pub fn is_streaming(&self) -> bool {
        self.inner.is_streaming()
    }

    /// Blocks until every halo pair arriving at processor `proc` has been
    /// unpacked, helping while waiting — per-destination completion for
    /// pipelined consumers.  [`SplitGhostExchange::wait`] is still
    /// required afterwards.
    pub fn wait_dest(&self, proc: usize) {
        self.inner.wait_dest(proc);
    }

    /// Cancels the exchange without taking the ghost regions: drains the
    /// in-flight unpack and settles the posted charges (see
    /// [`SplitPhaseExchange::cancel`]).  Equivalent to dropping the
    /// handle.
    pub fn cancel(self) {
        self.inner.cancel();
    }

    /// Completes the exchange: drains the remaining pairs, charges the
    /// posted messages exactly as the blocking wire path does, records the
    /// measured overlap with the tracker, and returns the filled ghost
    /// regions (one per array, bitwise identical to blocking execution).
    ///
    /// # Errors
    /// Exactly as [`SplitPhaseExchange::wait`]: an unrepairable
    /// [`RuntimeError::CorruptMessage`] (charges settled, corrupt payload
    /// never unpacked).
    pub fn wait(self, tracker: &CommTracker) -> Result<(Vec<GhostRegion<T>>, SplitExecReport)> {
        let (bufs, report) = self.inner.wait(tracker)?;
        let regions = self
            .parts
            .into_iter()
            .zip(bufs)
            .map(|(plan, values)| GhostRegion { plan, values })
            .collect();
        Ok((regions, report))
    }
}

/// Posts the fused overlap exchange of a class of arrays and returns a
/// [`SplitGhostExchange`] handle *before* the halo payloads are unpacked —
/// the split-phase counterpart of [`exchange_ghosts_fused_wire_with`].
/// Plan the class through `cache`, pack + post on the calling thread, then
/// compute interior points while the backend's pool streams the unpacks;
/// call [`SplitGhostExchange::wait`] before reading any ghost value.
///
/// # Errors
/// Exactly as [`exchange_ghosts_fused_wire_with`] — everything is
/// validated before anything is charged or packed.
pub fn exchange_ghosts_fused_wire_split<'e, T: Element>(
    arrays: &[&DistArray<T>],
    widths: &[(usize, usize)],
    tracker: &CommTracker,
    cache: &PlanCache,
    backend: &'e ExecBackend,
) -> Result<SplitGhostExchange<'e, T>> {
    let mut parts = Vec::with_capacity(arrays.len());
    for array in arrays {
        parts.push(cache.ghost_plan(array.dist(), widths)?);
    }
    let fused = FusedPlan::fuse(parts)?;
    exchange_ghosts_fused_planned_split(arrays, fused, tracker, backend)
}

/// The executor half of the split-phase fused overlap exchange: validates
/// like the blocking wire path, then packs, posts and hands the unpacks to
/// the backend's pool.  The handle owns `fused`.
///
/// # Errors
/// Exactly as [`exchange_ghosts_fused_planned_wire_with`].
pub fn exchange_ghosts_fused_planned_split<'e, T: Element>(
    arrays: &[&DistArray<T>],
    fused: FusedPlan,
    tracker: &CommTracker,
    backend: &'e ExecBackend,
) -> Result<SplitGhostExchange<'e, T>> {
    fused.check_parts(
        PlanKind::Ghost,
        "exchange_ghosts_fused_wire_split",
        arrays.len(),
    )?;
    // Validate every (array, part) pair before anything is charged.
    for (array, part) in arrays.iter().zip(fused.parts()) {
        part.check_executable(array.dist(), tracker)?;
    }
    let dst_sizes: Vec<Vec<usize>> = fused
        .parts()
        .iter()
        .map(|part| {
            (0..part.total_procs())
                .map(|p| part.ghost_len(ProcId(p)))
                .collect()
        })
        .collect();
    let parts = fused.parts().to_vec();
    let _span = trace::OpenSpan::begin_with(trace::Phase::GhostExchange, || {
        format!("split post {} arrays", arrays.len())
    });
    let inner = {
        let srcs: Vec<&[Vec<T>]> = arrays.iter().map(|a| a.locals()).collect();
        split_execute_fused_wire(fused, tracker, backend, &srcs, &dst_sizes)
    };
    Ok(SplitGhostExchange { inner, parts })
}

/// Posts a *single-array* ghost exchange from an already-cached plan as a
/// split-phase exchange — the one-part degenerate of
/// [`exchange_ghosts_fused_wire_split`], used by consumers whose plan
/// comes from an irregular (connectivity-driven) halo or another cache
/// path rather than stencil widths.
///
/// # Errors
/// [`RuntimeError::FusionMismatch`] when `plan` is not a ghost plan;
/// otherwise as [`exchange_ghosts_fused_planned_split`].
pub fn exchange_ghosts_planned_split<'e, T: Element>(
    array: &DistArray<T>,
    plan: &Arc<CommPlan>,
    tracker: &CommTracker,
    backend: &'e ExecBackend,
) -> Result<SplitGhostExchange<'e, T>> {
    let fused = FusedPlan::fuse(vec![Arc::clone(plan)])?;
    exchange_ghosts_fused_planned_split(&[array], fused, tracker, backend)
}

/// Exchanges the irregular (connectivity-driven) overlap areas of `array`:
/// the PARTI incremental schedule is planned fresh from `conn` (see
/// [`plan_ghost_irregular`]) and executed like any ghost plan.  Iterative
/// sweeps should prefer [`exchange_ghosts_irregular_cached`].
pub fn exchange_ghosts_irregular<T: Element>(
    array: &DistArray<T>,
    conn: &Connectivity,
    tracker: &CommTracker,
) -> Result<(GhostRegion<T>, GhostReport)> {
    let plan = Arc::new(plan_ghost_irregular(array.dist(), conn)?);
    exchange_ghosts_planned(array, &plan, tracker)
}

/// [`exchange_ghosts_irregular`] with schedule reuse through `cache`: the
/// halo set is derived once per (distribution fingerprint, connectivity
/// fingerprint) pair — a repartitioning changes the fingerprint and
/// therefore replans, so stale halos are never replayed — and every later
/// sweep only replays the copy runs.
pub fn exchange_ghosts_irregular_cached<T: Element>(
    array: &DistArray<T>,
    conn: &Connectivity,
    tracker: &CommTracker,
    cache: &PlanCache,
) -> Result<(GhostRegion<T>, GhostReport)> {
    exchange_ghosts_irregular_cached_with(array, conn, tracker, cache, &SerialExecutor)
}

/// [`exchange_ghosts_irregular_cached`] with an explicit execution backend.
pub fn exchange_ghosts_irregular_cached_with<T: Element, E: PlanExecutor>(
    array: &DistArray<T>,
    conn: &Connectivity,
    tracker: &CommTracker,
    cache: &PlanCache,
    executor: &E,
) -> Result<(GhostRegion<T>, GhostReport)> {
    let plan = cache.ghost_irregular_plan(array.dist(), conn)?;
    exchange_ghosts_planned_with(array, &plan, tracker, executor)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let (ghosts, report) = exchange_ghosts(&a, &[(1, 1), (1, 1)], &tracker).unwrap();
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
        let (ghosts, report) = exchange_ghosts(&a, &[(1, 1), (1, 1)], &tracker).unwrap();
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
        let (ghosts, _) = exchange_ghosts(&a, &[(0, 0), (1, 1)], &tracker).unwrap();
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
        let (ghosts, report) = exchange_ghosts(&a, &[(0, 0), (0, 0)], &tracker).unwrap();
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
        let tracker = CommTracker::new(4, CostModel::zero());
        let err = exchange_ghosts(&a, &[(1, 1), (0, 0)], &tracker);
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
        let tracker = CommTracker::new(2, CostModel::zero());
        assert!(exchange_ghosts(&a, &[(1, 1)], &tracker).is_err());
    }

    #[test]
    fn cached_exchange_matches_uncached() {
        let a = array_2d(DistType::blocks2d(), 8, ProcessorView::grid2d(2, 2));
        let cache = PlanCache::new();
        let t_cached = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        let t_fresh = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        let widths = [(1, 1), (1, 1)];

        let (fresh_ghosts, fresh_report) = exchange_ghosts(&a, &widths, &t_fresh).unwrap();
        // Two cached exchanges: one miss, one hit.
        let (g1, r1) = exchange_ghosts_cached(&a, &widths, &t_cached, &cache).unwrap();
        let (g2, r2) = exchange_ghosts_cached(&a, &widths, &t_cached, &cache).unwrap();
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
        let (regions, exec) =
            exchange_ghosts_fused(&[&a, &b, &c], &widths, &t_fused, &cache).unwrap();
        assert_eq!(regions.len(), 3);

        let t_single = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        let (ga, ra) = exchange_ghosts(&a, &widths, &t_single).unwrap();
        let (gb, rb) = exchange_ghosts(&b, &widths, &t_single).unwrap();
        let (gc, rc) = exchange_ghosts(&c, &widths, &t_single).unwrap();
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
            exchange_ghosts_fused_planned_with(&[&a], &fused, &tracker, &SerialExecutor),
            Err(RuntimeError::FusionMismatch { .. })
        ));
        // Wrong distribution on the second array: nothing charged.
        assert!(matches!(
            exchange_ghosts_fused_planned_with(&[&a, &rows], &fused, &tracker, &SerialExecutor),
            Err(RuntimeError::PlanMismatch { .. })
        ));
        assert_eq!(tracker.snapshot().total_messages(), 0);
    }

    #[test]
    fn irregular_exchange_serves_scattered_indirect_layouts() {
        use vf_dist::IndirectMap;
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
        let (ghosts, report) =
            exchange_ghosts_irregular_cached(&a, &conn, &tracker, &cache).unwrap();
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
        exchange_ghosts_irregular_cached(&a, &conn, &tracker, &cache).unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        // The fresh (uncached) variant produces the same region.
        let (fresh, fresh_report) = exchange_ghosts_irregular(&a, &conn, &tracker).unwrap();
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
            exchange_ghosts_planned(&b, &plan, &tracker),
            Err(RuntimeError::PlanMismatch { .. })
        ));
    }
}
