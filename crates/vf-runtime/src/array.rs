//! Distributed arrays with per-processor local storage, the local index
//! space a kernel computes in, and the one compute verb.
//!
//! A [`DistArray`] is the *global view* (`get` / `set` by global index, as
//! the Vienna Fortran programmer sees the data) over one local buffer per
//! processor.  Owner-computes code does not go through the global view: a
//! [`LocalView`] is the paper's local index space (§3.2.1 `segment` +
//! `loc_map`) — the processor's owned box over its local buffer, in
//! column-major order, so a global index is a local offset by arithmetic —
//! and [`forall_owned`] runs a per-processor kernel over the views of its
//! destination arrays on the executor's ranks.  The overlap area joins the
//! same index space in place, through [`crate::ghost::GhostRegion::overlap`]:
//! a kernel reads the owned segment from the local buffer and the frame
//! from the ghost buffer, line by line, and nothing is merged.
//! Dense conversions ([`DistArray::from_dense`], [`DistArray::to_dense`])
//! copy [`Distribution::local_linear_runs`], one `copy_from_slice` per
//! run, for every kind of distribution.

use crate::plan::non_contiguous_dim;
use crate::{Element, PlanExecutor, Result, RuntimeError};
use std::ops::{Deref, DerefMut};
use vf_dist::{DistError, Distribution, ProcId};
use vf_index::{IndexDomain, Point};
use vf_machine::{trace, CommTracker};

/// One processor's local index space: its owned `segment` of the global
/// index domain over its local buffer, which holds the segment in
/// column-major order.  The view derefs to the buffer, and the local
/// offset of a global point is `view.segment().linearize(point)` — equal
/// to [`Distribution::loc_map`] by construction.  `D` is the borrow of the
/// buffer: `&[T]` to read, `&mut [T]` ([`LocalViewMut`]) to update.
///
/// `BLOCK`, general-block and `:` dimensions (and replicated arrays) own
/// one box.  A one-dimensional `INDIRECT` layout owns a list, and its local
/// index space is its local offsets: the view's segment is `1..=len`, and
/// local offset `l` holds the global index [`Distribution::local_linear_runs`]
/// places there.  Cyclic and alignment-derived layouts scatter and have no
/// view.
#[derive(Debug)]
pub struct LocalView<D> {
    segment: IndexDomain,
    data: D,
}

/// A [`LocalView`] whose buffer can be written — what a kernel updates.
pub type LocalViewMut<'a, T> = LocalView<&'a mut [T]>;

impl<T, D: Deref<Target = [T]>> LocalView<D> {
    /// The view of `proc`'s segment of `dist` over `data` — a
    /// [`DistArray::local`] buffer, or any buffer laid out like one (an
    /// in-flight redistribution destination, a rank's shard).
    ///
    /// # Errors
    /// [`RuntimeError::NonContiguousLayout`] naming the scattered
    /// dimension when `proc` owns no single box;
    /// [`RuntimeError::DomainMismatch`] when `data` is not the size of the
    /// segment.
    pub fn new(dist: &Distribution, proc: ProcId, data: D) -> Result<Self> {
        let segment = if dist.domain().rank() == 1 && dist.dist_type().has_indirect() {
            IndexDomain::d1(dist.local_size(proc))
        } else {
            dist.local_segment(proc)
                .ok_or_else(|| RuntimeError::NonContiguousLayout {
                    array: dist.to_string(),
                    dim: non_contiguous_dim(dist),
                })?
        };
        if data.len() != segment.size() {
            return Err(RuntimeError::DomainMismatch {
                left: format!("local buffer of {} elements", data.len()),
                right: segment.to_string(),
            });
        }
        Ok(Self { segment, data })
    }

    /// The box of indices the view covers: global indices, or local
    /// offsets (`1..=len`) where the layout owns a list rather than a box.
    pub fn segment(&self) -> &IndexDomain {
        &self.segment
    }
}

impl<D: Deref> Deref for LocalView<D> {
    type Target = D::Target;

    fn deref(&self) -> &D::Target {
        &self.data
    }
}

impl<D: DerefMut> DerefMut for LocalView<D> {
    fn deref_mut(&mut self) -> &mut D::Target {
        &mut self.data
    }
}

/// The compute verb: runs `kernel` once per processor of the destination
/// arrays' view, handing it the processor and one [`LocalViewMut`] per
/// array of `dsts` (in order) — the owner-computes rule, executed on the
/// executor's ranks.  The kernel reads whatever it borrows (source arrays,
/// [`crate::ghost::GhostRegion`]s) and returns the floating-point
/// operations it performed, which are charged to `tracker` once per
/// processor.
///
/// Where the kernel runs is the executor's decision
/// ([`PlanExecutor::run_owned`]): on a pooled executor the processors are
/// spread over the pool's ranks when the destination volume clears the
/// executor's serial cutoff, and run inline on the caller below it, on
/// [`crate::SerialExecutor`] and on the sharded transport.
/// Each processor's kernel runs inside one
/// [`trace::Phase::InteriorCompute`] span on the lane of the rank that
/// runs it.  The caller must not be holding that pool's submission turn (a
/// split-phase exchange in flight): pass [`crate::SerialExecutor`] to
/// compute while one streams.
///
/// # Errors
/// [`RuntimeError::NonContiguousLayout`] as [`LocalView::new`], for any
/// destination, and [`RuntimeError::DomainMismatch`] when the destinations
/// are not distributed over one processor view — before any kernel runs.
pub fn forall_owned<T: Element, E: PlanExecutor>(
    dsts: &mut [&mut DistArray<T>],
    tracker: &CommTracker,
    executor: &E,
    kernel: impl Fn(ProcId, &mut [LocalViewMut<'_, T>]) -> usize + Sync,
) -> Result<()> {
    let Some(first) = dsts.first() else {
        return Ok(());
    };
    if let Some(other) = dsts
        .iter()
        .find(|d| d.dist.proc_ids() != first.dist.proc_ids())
    {
        return Err(RuntimeError::DomainMismatch {
            left: first.dist.to_string(),
            right: other.dist.to_string(),
        });
    }
    let mut ranks: Vec<(ProcId, Vec<LocalViewMut<'_, T>>)> = first
        .dist
        .proc_ids()
        .iter()
        .map(|&p| (p, Vec::new()))
        .collect();
    let mut bytes = 0usize;
    for dst in dsts.iter_mut() {
        let DistArray { dist, locals, .. } = &mut **dst;
        // Each processor takes its own buffer out of the array's (a view
        // lists a processor once, in grid order rather than by id).
        let mut bufs: Vec<_> = locals.iter_mut().map(Some).collect();
        for (p, views) in &mut ranks {
            let buf = bufs[p.0].take().expect("a view lists a processor once");
            bytes += buf.len() * T::BYTES;
            views.push(LocalView::new(dist, *p, buf.as_mut_slice())?);
        }
    }
    executor.run_owned(bytes, ranks, &|(p, views)| {
        let span = trace::OpenSpan::begin_dest(trace::Phase::InteriorCompute, p.0);
        let flops = kernel(*p, views);
        span.end();
        tracker.compute(p.0, flops);
    });
    Ok(())
}

/// A distributed array: the global index domain and distribution, plus one
/// local buffer per processor (the data "owned" by that processor and
/// stored in its local memory, paper §1 and §3.2.1).
///
/// The array offers a *global view* (`get`/`set` by global index, as the
/// Vienna Fortran programmer sees the data) and the raw local buffer of
/// each processor (`local`, `local_mut`), which owner-computes execution
/// opens a [`LocalView`] over.
#[derive(Debug, Clone, PartialEq)]
pub struct DistArray<T: Element> {
    name: String,
    dist: Distribution,
    locals: Vec<Vec<T>>,
}

impl<T: Element> DistArray<T> {
    /// Creates an array with all elements set to `T::default()`.
    pub fn new(name: impl Into<String>, dist: Distribution) -> Self {
        let total = dist.procs().array().num_procs();
        let mut locals = vec![Vec::new(); total];
        for &p in dist.proc_ids() {
            locals[p.0] = vec![T::default(); dist.local_size(p)];
        }
        Self {
            name: name.into(),
            dist,
            locals,
        }
    }

    /// Creates an array initialised element-wise from the global index.
    pub fn from_fn(
        name: impl Into<String>,
        dist: Distribution,
        mut f: impl FnMut(&Point) -> T,
    ) -> Self {
        let mut arr = Self::new(name, dist);
        for &p in arr.dist.proc_ids().to_vec().iter() {
            for (l, point) in arr.dist.local_points(p).into_iter().enumerate() {
                arr.locals[p.0][l] = f(&point);
            }
        }
        arr
    }

    /// Creates an array from a dense column-major global buffer, copying
    /// each processor's [`Distribution::local_linear_runs`] (every copy of
    /// a replicated array is filled).
    pub fn from_dense(name: impl Into<String>, dist: Distribution, data: &[T]) -> Result<Self> {
        if data.len() != dist.domain().size() {
            return Err(RuntimeError::DomainMismatch {
                left: format!("dense buffer of {} elements", data.len()),
                right: dist.domain().to_string(),
            });
        }
        let mut arr = Self::new(name, dist);
        for &p in arr.dist.proc_ids() {
            let local = &mut arr.locals[p.0];
            for run in arr.dist.local_linear_runs(p) {
                local[run.local_start..run.local_start + run.len]
                    .copy_from_slice(&data[run.global_start..run.global_start + run.len]);
            }
        }
        Ok(arr)
    }

    /// The array's name (used in diagnostics and descriptors).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current distribution.
    pub fn dist(&self) -> &Distribution {
        &self.dist
    }

    /// The global index domain.
    pub fn domain(&self) -> &IndexDomain {
        self.dist.domain()
    }

    /// The structural fingerprint of the current distribution — the key
    /// under which communication plans for this array are cached (see
    /// [`crate::plan::PlanCache`]).  Changes whenever `DISTRIBUTE` installs
    /// a different distribution, which is what invalidates cached plans.
    pub fn dist_fingerprint(&self) -> u64 {
        self.dist.fingerprint()
    }

    /// Number of processors in the target processor view.
    pub fn num_procs(&self) -> usize {
        self.dist.num_procs()
    }

    /// Reads the element at global `point` through the global view.
    pub fn get(&self, point: &Point) -> Result<T> {
        let owner = self.dist.owner(point)?;
        let off = self.dist.loc_map(owner, point)?;
        Ok(self.locals[owner.0][off])
    }

    /// Writes the element at global `point` through the global view.  For
    /// replicated arrays every copy is updated.
    pub fn set(&mut self, point: &Point, value: T) -> Result<()> {
        for owner in self.dist.owners(point)? {
            let off = self.dist.loc_map(owner, point)?;
            self.locals[owner.0][off] = value;
        }
        Ok(())
    }

    /// The local buffer of `proc` (empty for processors outside the target
    /// view).
    pub fn local(&self, proc: ProcId) -> &[T] {
        &self.locals[proc.0]
    }

    /// Mutable access to the local buffer of `proc`.
    pub fn local_mut(&mut self, proc: ProcId) -> &mut [T] {
        &mut self.locals[proc.0]
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: T) {
        for buf in &mut self.locals {
            for v in buf.iter_mut() {
                *v = value;
            }
        }
    }

    /// Copies the array into a dense column-major global buffer, one
    /// `copy_from_slice` per [`Distribution::local_linear_runs`] run (the
    /// canonical first copy of a replicated array is the one read).
    pub fn to_dense(&self) -> Vec<T> {
        let mut out = vec![T::default(); self.domain().size()];
        let procs = self.dist.proc_ids();
        let holders = if self.dist.is_replicated() {
            &procs[..1]
        } else {
            procs
        };
        for &p in holders {
            let local = &self.locals[p.0];
            for run in self.dist.local_linear_runs(p) {
                out[run.global_start..run.global_start + run.len]
                    .copy_from_slice(&local[run.local_start..run.local_start + run.len]);
            }
        }
        out
    }

    /// All local buffers, indexed by total processor id — the source-buffer
    /// view a [`crate::exec::PlanExecutor`] reads from.
    pub(crate) fn locals(&self) -> &[Vec<T>] {
        &self.locals
    }

    /// Mutable view of all local buffers — the owner-partitioned update
    /// target of [`crate::exec::PlanExecutor::run_updates`].
    pub(crate) fn locals_mut(&mut self) -> &mut [Vec<T>] {
        &mut self.locals
    }

    /// Replaces the distribution and the local buffers in one step — used by
    /// the redistribution engine after it has moved the data.  Returns the
    /// buffers it replaced.
    pub(crate) fn replace(&mut self, dist: Distribution, locals: Vec<Vec<T>>) -> Vec<Vec<T>> {
        debug_assert_eq!(locals.len(), dist.procs().array().num_procs());
        self.dist = dist;
        std::mem::replace(&mut self.locals, locals)
    }

    /// Copies the canonical first replica's buffer into every other
    /// replica of a replicated array (no-op otherwise) — executors call
    /// this after a plan targeting the canonical owner has run, since
    /// every copy of a replicated array holds the data.
    pub(crate) fn broadcast_canonical(&mut self) {
        if !self.dist.is_replicated() {
            return;
        }
        let procs = self.dist.proc_ids().to_vec();
        let Some((&first, rest)) = procs.split_first() else {
            return;
        };
        let canonical = self.locals[first.0].clone();
        for &p in rest {
            self.locals[p.0].copy_from_slice(&canonical);
        }
    }

    /// Verifies that the local buffer sizes match the distribution's local
    /// layouts — an internal invariant exposed for property tests.
    pub fn check_invariants(&self) -> Result<()> {
        for &p in self.dist.proc_ids() {
            if self.locals[p.0].len() != self.dist.local_size(p) {
                return Err(RuntimeError::Dist(DistError::NoSuchProcessor {
                    proc: p.0,
                    count: self.locals[p.0].len(),
                }));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_dist::{DimDist, DistType, ProcessorView};
    use vf_machine::CostModel;

    fn block_array(n: usize, p: usize) -> DistArray<f64> {
        let dist = Distribution::new(
            DistType::block1d(),
            IndexDomain::d1(n),
            ProcessorView::linear(p),
        )
        .unwrap();
        DistArray::new("A", dist)
    }

    #[test]
    fn creation_allocates_local_buffers() {
        let a = block_array(10, 3);
        assert_eq!(a.local(ProcId(0)).len(), 4);
        assert_eq!(a.local(ProcId(1)).len(), 4);
        assert_eq!(a.local(ProcId(2)).len(), 2);
        assert_eq!(a.num_procs(), 3);
        a.check_invariants().unwrap();
    }

    #[test]
    fn get_set_round_trip() {
        let mut a = block_array(10, 3);
        for i in 1..=10i64 {
            a.set(&Point::d1(i), i as f64 * 1.5).unwrap();
        }
        for i in 1..=10i64 {
            assert_eq!(a.get(&Point::d1(i)).unwrap(), i as f64 * 1.5);
        }
        assert!(a.get(&Point::d1(11)).is_err());
    }

    #[test]
    fn from_fn_and_to_dense() {
        let dist = Distribution::new(
            DistType::blocks2d(),
            IndexDomain::d2(4, 4),
            ProcessorView::grid2d(2, 2),
        )
        .unwrap();
        let a = DistArray::from_fn("A", dist, |p| (p.coord(0) * 10 + p.coord(1)) as f64);
        let dense = a.to_dense();
        assert_eq!(dense.len(), 16);
        assert_eq!(a.get(&Point::d2(3, 2)).unwrap(), 32.0);
        let lin = a.domain().linearize(&Point::d2(3, 2)).unwrap();
        assert_eq!(dense[lin], 32.0);
    }

    #[test]
    fn from_dense_round_trip() {
        let dist = Distribution::new(
            DistType::cyclic1d(2),
            IndexDomain::d1(9),
            ProcessorView::linear(3),
        )
        .unwrap();
        let data: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let a = DistArray::from_dense("A", dist, &data).unwrap();
        assert_eq!(a.to_dense(), data);
        let bad = Distribution::new(
            DistType::block1d(),
            IndexDomain::d1(5),
            ProcessorView::linear(2),
        )
        .unwrap();
        assert!(DistArray::from_dense("B", bad, &data).is_err());
    }

    #[test]
    fn replicated_set_updates_all_copies() {
        let dist = Distribution::new(
            DistType::new(vec![DimDist::NotDistributed]),
            IndexDomain::d1(4),
            ProcessorView::linear(2),
        )
        .unwrap();
        let mut a: DistArray<i64> = DistArray::new("R", dist);
        a.set(&Point::d1(2), 7).unwrap();
        assert_eq!(a.local(ProcId(0))[1], 7);
        assert_eq!(a.local(ProcId(1))[1], 7);
    }

    #[test]
    fn fill_sets_every_element() {
        let mut a = block_array(7, 3);
        a.fill(3.25);
        assert!(a.to_dense().iter().all(|&v| v == 3.25));
    }

    #[test]
    fn views_index_like_loc_map_and_refuse_scattered_layouts() {
        let dist = Distribution::new(
            DistType::blocks2d(),
            IndexDomain::d2(5, 7),
            ProcessorView::grid2d(2, 2),
        )
        .unwrap();
        let a = DistArray::from_fn("A", dist.clone(), |p| (p.coord(0) * 10 + p.coord(1)) as f64);
        for &p in dist.proc_ids() {
            let view = LocalView::new(&dist, p, a.local(p)).unwrap();
            for point in view.segment().iter() {
                let at = view.segment().linearize(&point).unwrap();
                assert_eq!(at, dist.loc_map(p, &point).unwrap());
                assert_eq!(view[at], a.get(&point).unwrap());
            }
            // A buffer of the wrong size is not that processor's segment.
            assert!(matches!(
                LocalView::new(&dist, p, &a.local(p)[1..]),
                Err(RuntimeError::DomainMismatch { .. })
            ));
        }
        let cyclic = Distribution::new(
            DistType::new(vec![DimDist::NotDistributed, DimDist::Cyclic(1)]),
            IndexDomain::d2(4, 8),
            ProcessorView::linear(2),
        )
        .unwrap();
        let c: DistArray<f64> = DistArray::new("C", cyclic.clone());
        assert!(matches!(
            LocalView::new(&cyclic, ProcId(0), c.local(ProcId(0))),
            Err(RuntimeError::NonContiguousLayout { dim: 1, .. })
        ));
    }

    #[test]
    fn forall_owned_updates_every_segment_and_charges_once_per_processor() {
        let mut cost = CostModel::zero();
        cost.compute_per_flop = 1.0;
        let tracker = CommTracker::new(3, cost);
        let mut a = block_array(10, 3);
        let mut b = block_array(10, 3);
        let pool = std::sync::Arc::new(vf_machine::WorkerPool::new(2));
        let pooled = crate::ThreadedExecutor::with_pool(pool.clone()).with_serial_cutoff(0);
        for round in 1..=2usize {
            let kernel = |p: ProcId, views: &mut [LocalViewMut<'_, f64>]| {
                let first = views[0].segment().dim(0).lower();
                for view in views.iter_mut() {
                    for (k, v) in view.iter_mut().enumerate() {
                        *v += (first + k as i64) as f64 * (p.0 + 1) as f64;
                    }
                }
                views[0].len()
            };
            if round == 1 {
                forall_owned(
                    &mut [&mut a, &mut b],
                    &tracker,
                    &crate::SerialExecutor,
                    kernel,
                )
            } else {
                forall_owned(&mut [&mut a, &mut b], &tracker, &pooled, kernel)
            }
            .unwrap();
            for i in 1..=10i64 {
                let owner = a.dist().owner(&Point::d1(i)).unwrap();
                let expected = (round * (owner.0 + 1)) as f64 * i as f64;
                assert_eq!(a.get(&Point::d1(i)).unwrap(), expected);
                assert_eq!(b.get(&Point::d1(i)).unwrap(), expected);
            }
        }
        // One dispatch for the pooled round, none for the serial one; each
        // round charged each processor its segment length once.
        assert_eq!(pool.jobs_dispatched(), 1);
        let compute: Vec<f64> = tracker
            .snapshot()
            .per_proc()
            .iter()
            .map(|p| p.compute_time)
            .collect();
        assert_eq!(compute, [8.0, 8.0, 4.0]);
        // Destinations over different processor views are refused.
        let mut narrow = block_array(10, 2);
        let none = |_: ProcId, _: &mut [LocalViewMut<'_, f64>]| 0;
        assert!(matches!(
            forall_owned(&mut [&mut a, &mut narrow], &tracker, &pooled, none),
            Err(RuntimeError::DomainMismatch { .. })
        ));
    }
}
