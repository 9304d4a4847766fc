//! The realisation of the executable `DISTRIBUTE` statement (paper §3.2.2).
//!
//! One statement, four verbs, all taking the executor that picks the
//! transport (see [`crate::exec`]):
//!
//! * [`redistribute`] — plan `old → new` through a [`PlanCache`] (pass
//!   `&PlanCache::new()` for a one-off) and execute it;
//! * [`execute_redistribute`] — replay an already-planned [`CommPlan`];
//! * [`execute_class_redistribute`] — replay a [`FusedPlan`] over a class:
//!   one message per processor pair for all arrays;
//! * [`redistribute_split`] — post now, install at
//!   [`SplitRedistribute::finish_into`].
//!
//! Each runs the same *prepare* (validate every (array, plan) pair, size
//! every destination buffer — before anything is charged) and the same
//! *install* (swap in the new descriptor and locals, report) around the
//! engine call.

use crate::exec::{
    execute_one, split_execute_fused_wire, ExecReport, FusedPlan, PlanExecutor, RetiredLocals,
    SplitExecReport, SplitPhaseExchange,
};
use crate::plan::{CommPlan, PlanCache, PlanIndex, PlanKind};
use crate::{DistArray, Element, Result, RuntimeError};
use std::sync::Arc;
use vf_dist::Distribution;
use vf_machine::{trace, CommTracker};

/// Options controlling how a redistribution is carried out.
///
/// Every moving statement sends one aggregated message per processor pair
/// (the paper's "efficient pre-compiled routine").  What per-element
/// messages would cost is a question for the model, not the engine:
/// [`CommPlan::charge`] prices it on a tracker of its own (experiment E4).
#[derive(Debug, Clone, Default)]
pub struct RedistOptions {
    /// The `NOTRANSFER` attribute of the `DISTRIBUTE` statement (paper
    /// §2.4): only the access function (descriptor) is changed and the
    /// elements are *not* physically moved.  The new local buffers hold
    /// default values; the program is expected to overwrite them before
    /// reading (which is exactly the contract the paper gives the user).
    pub notransfer: bool,
}

impl RedistOptions {
    /// The default options with `NOTRANSFER` set.
    pub fn notransfer() -> Self {
        Self { notransfer: true }
    }
}

/// What a redistribution did: element movement and the communication it
/// generated (also charged to the [`CommTracker`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RedistReport {
    /// Elements whose owner changed (and were therefore sent over the
    /// network).
    pub moved_elements: usize,
    /// Elements that stayed on their previous owner.
    pub stayed_elements: usize,
    /// Messages charged to the cost model.
    pub messages: usize,
    /// Bytes charged to the cost model.
    pub bytes: usize,
}

/// Redistributes `array` to `new_dist` (paper §3.2.2, step 3): each
/// processor determines the new locations of its current local data,
/// "sends" it there, and receives data from other processors; the
/// resulting messages are charged to `tracker`.
///
/// The `old → new` schedule is looked up in `cache` by the distributions'
/// structural fingerprints and planned only on a miss, so iterative codes
/// (the ADI pattern of Figure 1, the PIC rebalancing of Figure 2) amortise
/// the inspector cost exactly as the PARTI routines the paper cites.  Two
/// cases never reach the planner: `NOTRANSFER` only swaps the descriptor,
/// and a `DISTRIBUTE` onto the distribution the array already has
/// (structurally equal — processor-grid mapping and translation tables
/// included, not merely the same distribution type) is a no-op: nothing is
/// planned, copied or charged and the report says every element stayed.
pub fn redistribute<T: Element, E: PlanExecutor>(
    array: &mut DistArray<T>,
    new_dist: Distribution,
    tracker: &CommTracker,
    opts: &RedistOptions,
    cache: &PlanCache,
    executor: &E,
) -> Result<RedistReport> {
    if opts.notransfer {
        return redistribute_notransfer(array, new_dist, tracker);
    }
    if array.dist() == &new_dist {
        check_tracker(array.dist(), &new_dist, tracker)?;
        return Ok(RedistReport {
            stayed_elements: array.domain().size(),
            ..RedistReport::default()
        });
    }
    let plan = cache.redistribute_plan(array.dist(), &new_dist)?;
    execute_redistribute(array, &plan, tracker, executor)
}

/// The `NOTRANSFER` path: only the descriptor changes, no plan is needed.
fn redistribute_notransfer<T: Element>(
    array: &mut DistArray<T>,
    new_dist: Distribution,
    tracker: &CommTracker,
) -> Result<RedistReport> {
    if new_dist.domain() != array.domain() {
        return Err(RuntimeError::DomainMismatch {
            left: array.domain().to_string(),
            right: new_dist.domain().to_string(),
        });
    }
    check_tracker(array.dist(), &new_dist, tracker)?;
    let total_procs = new_dist.procs().array().num_procs();
    let mut new_locals: Vec<Vec<T>> = vec![Vec::new(); total_procs];
    for &q in new_dist.proc_ids() {
        new_locals[q.0] = vec![T::default(); new_dist.local_size(q)];
    }
    array.replace(new_dist, new_locals);
    Ok(RedistReport::default())
}

fn check_tracker(old: &Distribution, new: &Distribution, tracker: &CommTracker) -> Result<()> {
    let needed = new
        .proc_ids()
        .iter()
        .chain(old.proc_ids())
        .map(|p| p.0 + 1)
        .max()
        .unwrap_or(1);
    if tracker.num_procs() < needed {
        return Err(RuntimeError::TrackerMismatch {
            tracker_procs: tracker.num_procs(),
            dist_procs: needed,
        });
    }
    Ok(())
}

/// The one *prepare* of the statement, per (array, plan) pair: the plan is
/// a redistribution, built for the array's current distribution, and
/// `tracker` models enough processors; returns the target distribution and
/// the sizes of the array's new per-processor buffers.  Every verb prepares
/// **all** its pairs before anything is charged or moved.
fn prepare<T: Element>(
    array: &DistArray<T>,
    plan: &CommPlan,
    tracker: &CommTracker,
) -> Result<(Distribution, Vec<usize>)> {
    let PlanIndex::Redistribute { new_dist } = &plan.index else {
        return Err(RuntimeError::PlanMismatch {
            expected: plan.src_fingerprint(),
            found: array.dist().fingerprint(),
        });
    };
    plan.check_executable(array.dist(), tracker)?;
    let mut sizes = vec![0usize; plan.total_procs()];
    for &q in new_dist.proc_ids() {
        sizes[q.0] = new_dist.local_size(q);
    }
    Ok((new_dist.clone(), sizes))
}

/// The one *install* of the statement: the array takes its new descriptor
/// and locals (the plan targets the canonical first owner; every copy of a
/// replicated array receives the data), its old locals go to `retired`
/// when there is a store to keep them (dropped otherwise), and it reports
/// what `plan` moved.  `messages` / `bytes` are what the array charged on
/// its own, or would have, had it not travelled fused.
fn install<T: Element>(
    array: &mut DistArray<T>,
    plan: &CommPlan,
    new_dist: Distribution,
    locals: Vec<Vec<T>>,
    charged: ExecReport,
    retired: Option<&mut RetiredLocals<T>>,
) -> RedistReport {
    let old = array.replace(new_dist, locals);
    if let Some(store) = retired {
        store.retire(old);
    }
    array.broadcast_canonical();
    RedistReport {
        moved_elements: plan.moved_elements(),
        stayed_elements: plan.stayed_elements(),
        messages: charged.messages,
        bytes: charged.bytes,
    }
}

/// The executor half of `DISTRIBUTE` for one array: replays a (possibly
/// cached) [`CommPlan`] through `executor` as a class of one — the wire
/// pipeline on a shared-memory executor, channel frames on a sharded one —
/// posting the aggregated per-pair messages before the data moves and
/// completing them afterwards.  A planned statement always moves its data
/// (`NOTRANSFER` is decided by [`redistribute`], before any plan exists).
///
/// # Errors
/// [`RuntimeError::PlanMismatch`] if the array's current distribution is
/// not the one the plan was built for; transport errors as
/// [`PlanExecutor::execute_fused`] — the array is untouched either way.
pub fn execute_redistribute<T: Element, E: PlanExecutor>(
    array: &mut DistArray<T>,
    plan: &Arc<CommPlan>,
    tracker: &CommTracker,
    executor: &E,
) -> Result<RedistReport> {
    let (new_dist, dst_sizes) = prepare(array, plan, tracker)?;
    let _span = trace::OpenSpan::begin_with(trace::Phase::Redistribute, || {
        format!("{} moved", plan.moved_elements())
    });
    let (locals, charged) = execute_one(executor, plan, array.locals(), dst_sizes, tracker)?;
    Ok(install(array, plan, new_dist, locals, charged, None))
}

/// The executor half of a class `DISTRIBUTE`: every array is moved by its
/// own part of `fused` (`arrays[i]` by part `i`) while the class pays **one
/// message per processor pair** — the wire pipeline on a shared-memory
/// executor, channel frames on a sharded one.  Buffers are bitwise those
/// of one [`execute_redistribute`] per array, bytes are conserved, only
/// the message count drops.
///
/// Returns one [`RedistReport`] per array, whose `messages` / `bytes`
/// record what the array *would* have charged on its own, plus the
/// [`ExecReport`] of what the class actually charged.
///
/// `spares` is the caller's store of the locals the class's previous
/// statement retired ([`RetiredLocals`]): the statement builds its
/// destinations from them (or frees them, on an executor that does not
/// [recycle](PlanExecutor::recycles_locals)), and leaves in it the locals
/// it retired itself — nothing on such an executor.  Pass a fresh store
/// for a one-off statement.
///
/// # Errors
/// [`RuntimeError::FusionMismatch`] if `fused` is not a redistribution
/// fusion or disagrees with `arrays` in length;
/// [`RuntimeError::PlanMismatch`] / [`RuntimeError::TrackerMismatch`] if
/// any part does not apply to its array — validated for *all* arrays
/// before anything is charged, so a failed class statement changes
/// nothing; transport errors as [`PlanExecutor::execute_fused`].
pub fn execute_class_redistribute<T: Element, E: PlanExecutor>(
    arrays: &mut [&mut DistArray<T>],
    fused: &FusedPlan,
    tracker: &CommTracker,
    executor: &E,
    spares: &mut RetiredLocals<T>,
) -> Result<(Vec<RedistReport>, ExecReport)> {
    fused.check_parts(
        PlanKind::Redistribute,
        "execute_class_redistribute",
        arrays.len(),
    )?;
    let prepared: Result<Vec<_>> = arrays
        .iter()
        .zip(fused.parts())
        .map(|(array, part)| prepare(array, part, tracker))
        .collect();
    let (new_dists, dst_sizes): (Vec<_>, Vec<_>) = prepared?.into_iter().unzip();
    let _span = trace::OpenSpan::begin_with(trace::Phase::Redistribute, || {
        format!("class of {} arrays", arrays.len())
    });
    let (bufs, charged) = {
        let srcs: Vec<&[Vec<T>]> = arrays.iter().map(|a| a.locals()).collect();
        let handed = std::mem::take(spares);
        executor.execute_fused(fused, &srcs, &dst_sizes, handed, tracker)?
    };
    let recycle = executor.recycles_locals();
    let reports = arrays
        .iter_mut()
        .zip(fused.parts())
        .zip(new_dists.into_iter().zip(bufs))
        .map(|((array, part), (new_dist, locals))| {
            let alone = ExecReport {
                messages: part.num_messages(),
                bytes: part.bytes_for(T::BYTES),
            };
            install(
                array,
                part,
                new_dist,
                locals,
                alone,
                recycle.then_some(&mut *spares),
            )
        })
        .collect();
    Ok((reports, charged))
}

/// A single-array redistribution caught between its post and its wait —
/// the split-phase form of [`redistribute`]: the engine's
/// [`SplitPhaseExchange`] (to which it derefs: `messages`, `bytes`,
/// `is_streaming`) plus the typed finisher.
///
/// Created by [`redistribute_split`] after packing the crossing payloads
/// and posting the modelled messages.  The caller can then:
///
/// 1. run any work that does not touch the array while the destination
///    buffers stream in on the executor's streaming pool,
/// 2. pipeline per-destination: [`SplitRedistribute::with_dest_mut`]`(d,
///    ..)` waits for destination `d`'s pairs, then operates on its *new*
///    local buffer while other destinations are still in flight (the ADI
///    sweep works this way),
/// 3. call [`SplitRedistribute::finish_into`] to install the new locals
///    and descriptor — results bitwise identical to the blocking verb.
pub struct SplitRedistribute<'e, T: Element> {
    inner: SplitPhaseExchange<'e, T>,
    plan: Arc<CommPlan>,
    new_dist: Distribution,
}

impl<'e, T: Element> std::ops::Deref for SplitRedistribute<'e, T> {
    type Target = SplitPhaseExchange<'e, T>;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl<T: Element> SplitRedistribute<'_, T> {
    /// The distribution the array will have after
    /// [`SplitRedistribute::finish_into`].
    pub fn new_dist(&self) -> &Distribution {
        &self.new_dist
    }

    /// Runs `f` on destination processor `d`'s new local buffer once its
    /// pairs have landed ([`SplitPhaseExchange::with_dest_mut`]); mutations
    /// made here are what [`SplitRedistribute::finish_into`] installs.
    pub fn with_dest_mut<R>(&self, d: usize, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
        self.inner.with_dest_mut(0, d, f)
    }

    /// Completes the exchange on the tracker it was posted on and installs
    /// the new locals and descriptor into `array` (which must still carry
    /// the distribution the plan was posted from), broadcasting to
    /// replicated copies exactly like the blocking verb.
    ///
    /// # Errors
    /// [`RuntimeError::PlanMismatch`] if `array` was redistributed between
    /// the post and this call; [`RuntimeError::CorruptMessage`] if a wire
    /// buffer failed validation and could not be repaired (the array is
    /// left untouched on its old distribution).
    pub fn finish_into(self, array: &mut DistArray<T>) -> Result<(RedistReport, SplitExecReport)> {
        if array.dist().fingerprint() != self.plan.src_fingerprint() {
            return Err(RuntimeError::PlanMismatch {
                expected: self.plan.src_fingerprint(),
                found: array.dist().fingerprint(),
            });
        }
        let (mut bufs, report) = self.inner.wait()?;
        let locals = bufs.pop().expect("exactly one fused part");
        let charged = ExecReport {
            messages: report.messages,
            bytes: report.bytes,
        };
        Ok((
            install(array, &self.plan, self.new_dist, locals, charged, None),
            report,
        ))
    }
}

/// Posts a split-phase redistribution of `array` to `new_dist`: plans (or
/// reuses) the schedule through `cache`, packs the crossing payloads,
/// posts the aggregated messages, copies the stay-local runs, and returns
/// with the per-destination unpacks streaming on the pool `executor` names
/// ([`PlanExecutor::streaming_pool`]; inline at the post, in shared memory,
/// where it names none — a sharded executor included).  The array itself
/// is untouched until [`SplitRedistribute::finish_into`]; it must not be
/// mutated while the handle is live (the packed payloads would silently
/// ignore the mutation).
///
/// # Errors
/// Exactly as [`redistribute`]: everything is validated before any
/// message is posted.
pub fn redistribute_split<'e, T: Element>(
    array: &DistArray<T>,
    new_dist: Distribution,
    tracker: &CommTracker,
    cache: &PlanCache,
    executor: &'e impl PlanExecutor,
) -> Result<SplitRedistribute<'e, T>> {
    let plan = cache.redistribute_plan(array.dist(), &new_dist)?;
    let (_, dst_sizes) = prepare(array, &plan, tracker)?;
    let _span = trace::OpenSpan::begin_static(trace::Phase::Redistribute, "split post");
    let fused = FusedPlan::fuse(vec![Arc::clone(&plan)])?;
    let inner = split_execute_fused_wire(fused, tracker, executor, &[array.locals()], &[dst_sizes]);
    Ok(SplitRedistribute {
        inner,
        plan,
        new_dist,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SerialExecutor;
    use vf_dist::{DistType, ProcessorView};
    use vf_index::IndexDomain;
    use vf_machine::CostModel;

    fn dist_1d(t: DistType, n: usize, p: usize) -> Distribution {
        Distribution::new(t, IndexDomain::d1(n), ProcessorView::linear(p)).unwrap()
    }

    #[test]
    fn block_to_cyclic_preserves_data() {
        let tracker = CommTracker::new(4, CostModel::zero());
        let mut a = DistArray::from_fn("A", dist_1d(DistType::block1d(), 16, 4), |p| {
            p.coord(0) as f64
        });
        let before = a.to_dense();
        let report = redistribute(
            &mut a,
            dist_1d(DistType::cyclic1d(1), 16, 4),
            &tracker,
            &RedistOptions::default(),
            &PlanCache::new(),
            &SerialExecutor,
        )
        .unwrap();
        assert_eq!(a.to_dense(), before);
        a.check_invariants().unwrap();
        assert_eq!(report.moved_elements + report.stayed_elements, 16);
        assert!(report.moved_elements > 0);
        assert_eq!(tracker.snapshot().total_bytes(), report.bytes);
    }

    #[test]
    fn identical_distribution_moves_nothing() {
        let tracker = CommTracker::new(3, CostModel::zero());
        let mut a = DistArray::from_fn("A", dist_1d(DistType::block1d(), 12, 3), |p| {
            p.coord(0) as f64
        });
        let report = redistribute(
            &mut a,
            dist_1d(DistType::block1d(), 12, 3),
            &tracker,
            &RedistOptions::default(),
            &PlanCache::new(),
            &SerialExecutor,
        )
        .unwrap();
        assert_eq!(report.moved_elements, 0);
        assert_eq!(report.messages, 0);
        assert_eq!(tracker.snapshot().total_messages(), 0);
    }

    #[test]
    fn figure1_column_to_row_redistribution() {
        // DISTRIBUTE V :: (BLOCK, :) applied to V(NX,NY) DIST(:, BLOCK).
        let tracker = CommTracker::new(4, CostModel::zero());
        let nx = 8usize;
        let cols = Distribution::new(
            DistType::columns(),
            IndexDomain::d2(nx, nx),
            ProcessorView::linear(4),
        )
        .unwrap();
        let rows = Distribution::new(
            DistType::rows(),
            IndexDomain::d2(nx, nx),
            ProcessorView::linear(4),
        )
        .unwrap();
        let mut v = DistArray::from_fn("V", cols, |p| (p.coord(0) * 100 + p.coord(1)) as f64);
        let before = v.to_dense();
        let report = redistribute(
            &mut v,
            rows,
            &tracker,
            &RedistOptions::default(),
            &PlanCache::new(),
            &SerialExecutor,
        )
        .unwrap();
        assert_eq!(v.to_dense(), before);
        // Each processor keeps its diagonal block (2x2 of the 4x4 processor
        // blocks): 8*8 elements, each proc owns 16, keeps 4.
        assert_eq!(report.stayed_elements, 4 * 4);
        assert_eq!(report.moved_elements, 64 - 16);
        // Aggregated messages: each of the 4 procs sends to 3 others.
        assert_eq!(report.messages, 12);
    }

    #[test]
    fn notransfer_changes_descriptor_without_motion() {
        let tracker = CommTracker::new(2, CostModel::zero());
        let mut a = DistArray::from_fn("A", dist_1d(DistType::block1d(), 8, 2), |p| {
            p.coord(0) as f64
        });
        let report = redistribute(
            &mut a,
            dist_1d(DistType::cyclic1d(1), 8, 2),
            &tracker,
            &RedistOptions::notransfer(),
            &PlanCache::new(),
            &SerialExecutor,
        )
        .unwrap();
        assert_eq!(report.moved_elements, 0);
        assert_eq!(report.bytes, 0);
        assert_eq!(tracker.snapshot().total_messages(), 0);
        // Descriptor did change...
        assert_eq!(a.dist().dist_type(), &DistType::cyclic1d(1));
        // ...but the data was not transferred (buffers are default-filled).
        assert!(a.to_dense().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn domain_mismatch_rejected() {
        let tracker = CommTracker::new(2, CostModel::zero());
        let mut a: DistArray<f64> = DistArray::new("A", dist_1d(DistType::block1d(), 8, 2));
        let err = redistribute(
            &mut a,
            dist_1d(DistType::block1d(), 9, 2),
            &tracker,
            &RedistOptions::default(),
            &PlanCache::new(),
            &SerialExecutor,
        );
        assert!(matches!(err, Err(RuntimeError::DomainMismatch { .. })));
    }

    #[test]
    fn tracker_too_small_rejected() {
        let tracker = CommTracker::new(2, CostModel::zero());
        // From 4 processors the statement is a no-op, and validated all the same.
        for from in [2, 4] {
            let mut a: DistArray<f64> = DistArray::new("A", dist_1d(DistType::block1d(), 8, from));
            let err = redistribute(
                &mut a,
                dist_1d(DistType::block1d(), 8, 4),
                &tracker,
                &RedistOptions::default(),
                &PlanCache::new(),
                &SerialExecutor,
            );
            assert!(matches!(err, Err(RuntimeError::TrackerMismatch { .. })));
        }
    }

    #[test]
    fn cached_redistribution_matches_fresh_planning() {
        // The ADI pattern: columns -> rows -> columns -> ... with a shared
        // cache; after the first full cycle every plan is a cache hit and
        // the traffic is identical to fresh planning, iteration for
        // iteration.
        let n = 8usize;
        let mk = |t: DistType| {
            Distribution::new(t, vf_index::IndexDomain::d2(n, n), ProcessorView::linear(4)).unwrap()
        };
        let cache = crate::PlanCache::new();
        let t_cached = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        let t_fresh = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        let mut a = DistArray::from_fn("V", mk(DistType::columns()), |p| {
            (p.coord(0) * 100 + p.coord(1)) as f64
        });
        let mut b = a.clone();
        let before = a.to_dense();
        for iter in 0..4 {
            let target = if iter % 2 == 0 {
                DistType::rows()
            } else {
                DistType::columns()
            };
            let rc = redistribute(
                &mut a,
                mk(target.clone()),
                &t_cached,
                &RedistOptions::default(),
                &cache,
                &SerialExecutor,
            )
            .unwrap();
            let rf = redistribute(
                &mut b,
                mk(target),
                &t_fresh,
                &RedistOptions::default(),
                &PlanCache::new(),
                &SerialExecutor,
            )
            .unwrap();
            assert_eq!(rc, rf, "iteration {iter}");
            assert_eq!(a.to_dense(), b.to_dense(), "iteration {iter}");
        }
        assert_eq!(a.to_dense(), before);
        assert_eq!(t_cached.snapshot(), t_fresh.snapshot());
        // Two distinct plans (cols->rows, rows->cols), planned once each.
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn notransfer_skips_the_planner_and_the_cache() {
        let cache = crate::PlanCache::new();
        let tracker = CommTracker::new(2, CostModel::zero());
        let mut a = DistArray::from_fn("A", dist_1d(DistType::block1d(), 8, 2), |p| {
            p.coord(0) as f64
        });
        let report = redistribute(
            &mut a,
            dist_1d(DistType::cyclic1d(1), 8, 2),
            &tracker,
            &RedistOptions::notransfer(),
            &cache,
            &SerialExecutor,
        )
        .unwrap();
        assert_eq!(report, RedistReport::default());
        assert_eq!(cache.stats().misses, 0);
        assert_eq!(a.dist().dist_type(), &DistType::cyclic1d(1));
    }

    #[test]
    fn gen_block_rebalance_round_trip() {
        // The Figure 2 pattern: BLOCK, then B_BLOCK(BOUNDS), then different
        // BOUNDS again; data must survive every step.
        let tracker = CommTracker::new(4, CostModel::zero());
        let mut a = DistArray::from_fn("FIELD", dist_1d(DistType::block1d(), 20, 4), |p| {
            p.coord(0) * 3
        });
        let before = a.to_dense();
        for sizes in [vec![2, 8, 6, 4], vec![5, 5, 5, 5], vec![0, 0, 10, 10]] {
            redistribute(
                &mut a,
                dist_1d(DistType::gen_block1d(sizes), 20, 4),
                &tracker,
                &RedistOptions::default(),
                &PlanCache::new(),
                &SerialExecutor,
            )
            .unwrap();
            assert_eq!(a.to_dense(), before);
            a.check_invariants().unwrap();
        }
    }
}
