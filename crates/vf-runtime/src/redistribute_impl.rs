//! The realisation of the executable `DISTRIBUTE` statement (paper §3.2.2).
//!
//! Data motion runs through the unified communication-plan layer
//! ([`crate::plan`]): [`plan_redistribute`](crate::plan::plan_redistribute)
//! derives the run-length-encoded (sender, receiver) schedule once, and
//! [`execute_redistribute`] replays it — a single pass over the runs with
//! one aggregated cost-model charge per message.  Iterative codes reuse
//! plans through a [`PlanCache`] via [`redistribute_cached`].

use crate::exec::{FusedPlan, PlanExecutor, SerialExecutor};
use crate::plan::{plan_redistribute, CommPlan, PlanCache, PlanIndex, PlanKind};
use crate::shard::{RankShards, ShardedExecutor};
use crate::{DistArray, Element, Result, RuntimeError};
use vf_dist::Distribution;
use vf_machine::{trace, CommTracker};

/// Options controlling how a redistribution is carried out.
#[derive(Debug, Clone)]
pub struct RedistOptions {
    /// The `NOTRANSFER` attribute of the `DISTRIBUTE` statement (paper
    /// §2.4): only the access function (descriptor) is changed and the
    /// elements are *not* physically moved.  The new local buffers hold
    /// default values; the program is expected to overwrite them before
    /// reading (which is exactly the contract the paper gives the user).
    pub notransfer: bool,
    /// Aggregate all elements travelling between one pair of processors
    /// into a single message (the paper's "efficient pre-compiled routine").
    /// When `false`, every element is charged as its own message — the
    /// naive strategy used as an ablation baseline in experiment E4.
    pub aggregate: bool,
}

impl Default for RedistOptions {
    fn default() -> Self {
        Self {
            notransfer: false,
            aggregate: true,
        }
    }
}

impl RedistOptions {
    /// The default options with `NOTRANSFER` set.
    pub fn notransfer() -> Self {
        Self {
            notransfer: true,
            ..Self::default()
        }
    }

    /// The default options with per-element (non-aggregated) messages.
    pub fn element_wise() -> Self {
        Self {
            aggregate: false,
            ..Self::default()
        }
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

/// Redistributes `array` to `new_dist`, moving data from old owners to new
/// owners and charging the resulting messages to `tracker`.
///
/// This follows the three per-processor steps of §3.2.2: the new
/// distribution (and its access functions) has already been evaluated by the
/// caller (step 1); connected arrays are each redistributed by the language
/// layer with their own call (step 2); this function performs step 3 — each
/// processor determines the new locations of its current local data, "sends"
/// it there, and receives data from other processors.  Data motion is
/// suppressed entirely under `NOTRANSFER`.
pub fn redistribute<T: Element>(
    array: &mut DistArray<T>,
    new_dist: Distribution,
    tracker: &CommTracker,
    opts: &RedistOptions,
) -> Result<RedistReport> {
    redistribute_with(array, new_dist, tracker, opts, &SerialExecutor)
}

/// [`redistribute`] with an explicit execution backend — the copies run
/// through `executor` (e.g. [`crate::exec::ThreadedExecutor`]), the result
/// is bit-identical to serial execution.
pub fn redistribute_with<T: Element, E: PlanExecutor>(
    array: &mut DistArray<T>,
    new_dist: Distribution,
    tracker: &CommTracker,
    opts: &RedistOptions,
    executor: &E,
) -> Result<RedistReport> {
    if opts.notransfer {
        return redistribute_notransfer(array, new_dist, tracker);
    }
    let plan = plan_redistribute(array.dist(), &new_dist)?;
    execute_redistribute_with(array, &plan, tracker, opts, executor)
}

/// [`redistribute`] with plan reuse: the (old, new) schedule is looked up
/// in `cache` by the distributions' structural fingerprints and planned
/// only on a miss, so iterative codes (the ADI pattern of Figure 1, the PIC
/// rebalancing of Figure 2) amortise the inspector cost across iterations
/// exactly as the PARTI routines the paper cites.
pub fn redistribute_cached<T: Element>(
    array: &mut DistArray<T>,
    new_dist: Distribution,
    tracker: &CommTracker,
    opts: &RedistOptions,
    cache: &PlanCache,
) -> Result<RedistReport> {
    redistribute_cached_with(array, new_dist, tracker, opts, cache, &SerialExecutor)
}

/// [`redistribute_cached`] with an explicit execution backend.
pub fn redistribute_cached_with<T: Element, E: PlanExecutor>(
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
    let plan = cache.redistribute_plan(array.dist(), &new_dist)?;
    execute_redistribute_with(array, &plan, tracker, opts, executor)
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

/// The executor half of the `DISTRIBUTE` realisation with the serial
/// backend — see [`execute_redistribute_with`].
///
/// # Errors
/// [`RuntimeError::PlanMismatch`] if the array's current distribution is
/// not the one the plan was built for.
pub fn execute_redistribute<T: Element>(
    array: &mut DistArray<T>,
    plan: &CommPlan,
    tracker: &CommTracker,
    opts: &RedistOptions,
) -> Result<RedistReport> {
    execute_redistribute_with(array, plan, tracker, opts, &SerialExecutor)
}

/// The executor half of the `DISTRIBUTE` realisation: replays a
/// (possibly cached) [`CommPlan`] against the array through the chosen
/// [`PlanExecutor`] backend — every run is one `copy_from_slice` between
/// the sender's old buffer and the receiver's new buffer — posting the
/// aggregated per-pair messages before the copies and completing them
/// afterwards (or one message per element under
/// [`RedistOptions::element_wise`]).
///
/// # Errors
/// [`RuntimeError::PlanMismatch`] if the array's current distribution is
/// not the one the plan was built for.
pub fn execute_redistribute_with<T: Element, E: PlanExecutor>(
    array: &mut DistArray<T>,
    plan: &CommPlan,
    tracker: &CommTracker,
    opts: &RedistOptions,
    executor: &E,
) -> Result<RedistReport> {
    let PlanIndex::Redistribute { new_dist } = &plan.index else {
        return Err(RuntimeError::PlanMismatch {
            expected: plan.src_fingerprint(),
            found: array.dist().fingerprint(),
        });
    };
    debug_assert_eq!(plan.kind(), PlanKind::Redistribute);
    plan.check_executable(array.dist(), tracker)?;

    let _span = trace::OpenSpan::begin_with(trace::Phase::Redistribute, || {
        format!("{} moved", plan.moved_elements())
    });
    let mut dst_sizes = vec![0usize; plan.total_procs()];
    for &q in new_dist.proc_ids() {
        dst_sizes[q.0] = new_dist.local_size(q);
    }
    let (new_locals, exec) =
        executor.execute(plan, array.locals(), &dst_sizes, tracker, opts.aggregate);
    array.replace(new_dist.clone(), new_locals);
    // The plan targets the canonical first owner; every copy of a
    // replicated array receives the data.
    array.broadcast_canonical();
    Ok(RedistReport {
        moved_elements: plan.moved_elements(),
        stayed_elements: plan.stayed_elements(),
        messages: exec.messages,
        bytes: exec.bytes,
    })
}

/// [`crate::exec::execute_redistribute_fused_wire`] through the
/// distributed-memory backend: each rank reads only its own segment of
/// the arrays, every crossing pair travels as one frame over a real
/// [`vf_machine::spmd`] channel, and the ranks' new locals replace the
/// arrays' old ones.  Buffers, reports and modelled charges are
/// bitwise identical to the shared wire path; the real channel traffic is
/// additionally counted in the tracker's channel statistics.
///
/// # Errors
/// As the shared wire path (everything is validated before any data
/// moves), plus [`RuntimeError::Channel`] / [`RuntimeError::CorruptMessage`]
/// when a rank's channel operation or frame validation fails mid-region —
/// the arrays are left untouched on their *old* distribution in that case.
pub fn execute_redistribute_fused_sharded<T: Element>(
    arrays: &mut [&mut DistArray<T>],
    fused: &FusedPlan,
    tracker: &CommTracker,
    executor: &ShardedExecutor,
) -> Result<(Vec<RedistReport>, crate::ExecReport)> {
    fused.check_parts(
        PlanKind::Redistribute,
        "execute_redistribute_fused_sharded",
        arrays.len(),
    )?;
    // Validate every (array, part) pair before moving anything.
    let mut new_dists = Vec::with_capacity(arrays.len());
    for (array, part) in arrays.iter().zip(fused.parts()) {
        let PlanIndex::Redistribute { new_dist } = &part.index else {
            return Err(RuntimeError::PlanMismatch {
                expected: part.src_fingerprint(),
                found: array.dist().fingerprint(),
            });
        };
        part.check_executable(array.dist(), tracker)?;
        new_dists.push(new_dist.clone());
    }
    let _span = trace::OpenSpan::begin_with(trace::Phase::Redistribute, || {
        format!("sharded {} arrays", arrays.len())
    });
    let dst_sizes: Vec<Vec<usize>> = fused
        .parts()
        .iter()
        .zip(&new_dists)
        .map(|(part, new_dist)| {
            let mut sizes = vec![0usize; part.total_procs()];
            for &q in new_dist.proc_ids() {
                sizes[q.0] = new_dist.local_size(q);
            }
            sizes
        })
        .collect();
    let copy_secs = crate::exec::wire_copy_seconds(fused, T::BYTES, tracker);
    let (bufs, exec) = crate::shard::sharded_fused_exchange(
        fused,
        tracker,
        executor,
        &RankShards::of(arrays),
        &|idx, r| dst_sizes[idx].get(r).copied().unwrap_or(0),
        &copy_secs,
    )?;
    let mut reports = Vec::with_capacity(arrays.len());
    for (((array, part), new_dist), locals) in arrays
        .iter_mut()
        .zip(fused.parts())
        .zip(new_dists)
        .zip(bufs)
    {
        array.replace(new_dist, locals);
        array.broadcast_canonical();
        reports.push(RedistReport {
            moved_elements: part.moved_elements(),
            stayed_elements: part.stayed_elements(),
            messages: part.num_messages(),
            bytes: part.bytes_for(T::BYTES),
        });
    }
    Ok((reports, exec))
}

/// Single-array `DISTRIBUTE` through the distributed-memory backend, with
/// plan reuse through `cache` — the sharded counterpart of
/// [`redistribute_cached_with`] (always aggregated, never `NOTRANSFER`).
pub fn redistribute_sharded<T: Element>(
    array: &mut DistArray<T>,
    new_dist: &Distribution,
    tracker: &CommTracker,
    cache: &PlanCache,
    executor: &ShardedExecutor,
) -> Result<RedistReport> {
    let plan = cache.redistribute_plan(array.dist(), new_dist)?;
    let fused = FusedPlan::fuse(vec![plan])?;
    let (reports, _) = execute_redistribute_fused_sharded(&mut [array], &fused, tracker, executor)?;
    Ok(reports.into_iter().next().unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let report = redistribute(&mut v, rows, &tracker, &RedistOptions::default()).unwrap();
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
    fn element_wise_messages_cost_more() {
        let mk = || {
            DistArray::from_fn("A", dist_1d(DistType::block1d(), 64, 4), |p| {
                p.coord(0) as f64
            })
        };
        let t_agg = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.0));
        let mut a = mk();
        let agg = redistribute(
            &mut a,
            dist_1d(DistType::cyclic1d(1), 64, 4),
            &t_agg,
            &RedistOptions::default(),
        )
        .unwrap();
        let t_elem = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.0));
        let mut b = mk();
        let elem = redistribute(
            &mut b,
            dist_1d(DistType::cyclic1d(1), 64, 4),
            &t_elem,
            &RedistOptions::element_wise(),
        )
        .unwrap();
        assert_eq!(agg.bytes, elem.bytes);
        assert!(elem.messages > agg.messages);
        // With a pure-latency cost model the element-wise strategy is
        // strictly slower — the motivation for aggregation.
        assert!(t_elem.snapshot().critical_time() > t_agg.snapshot().critical_time());
        assert_eq!(a.to_dense(), b.to_dense());
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
        );
        assert!(matches!(err, Err(RuntimeError::DomainMismatch { .. })));
    }

    #[test]
    fn tracker_too_small_rejected() {
        let tracker = CommTracker::new(2, CostModel::zero());
        let mut a: DistArray<f64> = DistArray::new("A", dist_1d(DistType::block1d(), 8, 2));
        let err = redistribute(
            &mut a,
            dist_1d(DistType::block1d(), 8, 4),
            &tracker,
            &RedistOptions::default(),
        );
        assert!(matches!(err, Err(RuntimeError::TrackerMismatch { .. })));
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
            let rc = redistribute_cached(
                &mut a,
                mk(target.clone()),
                &t_cached,
                &RedistOptions::default(),
                &cache,
            )
            .unwrap();
            let rf = redistribute(&mut b, mk(target), &t_fresh, &RedistOptions::default()).unwrap();
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
        let report = redistribute_cached(
            &mut a,
            dist_1d(DistType::cyclic1d(1), 8, 2),
            &tracker,
            &RedistOptions::notransfer(),
            &cache,
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
            )
            .unwrap();
            assert_eq!(a.to_dense(), before);
            a.check_invariants().unwrap();
        }
    }
}
