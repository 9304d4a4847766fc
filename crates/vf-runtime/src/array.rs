//! Distributed arrays with per-processor local storage.

use crate::{Element, Result, RuntimeError};
use vf_dist::{DistError, Distribution, ProcId};
use vf_index::{IndexDomain, Point};
use vf_machine::CommTracker;

/// A distributed array: the global index domain and distribution, plus one
/// local buffer per processor (the data "owned" by that processor and
/// stored in its local memory, paper §1 and §3.2.1).
///
/// The array offers a *global view* (`get`/`set` by global index, as the
/// Vienna Fortran programmer sees the data) and a *local view* per
/// processor (`local`, `local_mut`, `map_owned`) used by owner-computes
/// execution.  Accesses made *on behalf of* a particular processor that
/// touch non-local elements are charged as messages through
/// [`DistArray::get_for`], mirroring the compiler-inserted communication of
/// the paper.
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

    /// Creates an array from a dense column-major global buffer.
    pub fn from_dense(name: impl Into<String>, dist: Distribution, data: &[T]) -> Result<Self> {
        if data.len() != dist.domain().size() {
            return Err(RuntimeError::DomainMismatch {
                left: format!("dense buffer of {} elements", data.len()),
                right: dist.domain().to_string(),
            });
        }
        let domain = dist.domain().clone();
        Ok(Self::from_fn(name, dist, |p| {
            data[domain
                .linearize(p)
                .expect("point from local_points is in domain")]
        }))
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

    /// Reads the element at `point` on behalf of processor `proc`.  If the
    /// element is not local to `proc`, a message of `T::BYTES` bytes from
    /// the owner is charged to `tracker` — the compiler-inserted
    /// communication for a non-local reference.
    pub fn get_for(&self, proc: ProcId, point: &Point, tracker: &CommTracker) -> Result<T> {
        let owner = self.dist.owner(point)?;
        let off = self.dist.loc_map(owner, point)?;
        if owner != proc && !self.dist.is_local(proc, point) {
            tracker.send(owner.0, proc.0, T::BYTES);
        }
        Ok(self.locals[owner.0][off])
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

    /// Applies `f` to every element owned by `proc`, passing the global
    /// index and the current value, and stores the returned value — the
    /// owner-computes rule restricted to one processor.
    pub fn map_owned(&mut self, proc: ProcId, mut f: impl FnMut(&Point, T) -> T) {
        let points = self.dist.local_points(proc);
        for (l, point) in points.into_iter().enumerate() {
            let old = self.locals[proc.0][l];
            self.locals[proc.0][l] = f(&point, old);
        }
    }

    /// Applies `f` to every element of the array under the owner-computes
    /// rule (every owner updates its own elements).
    pub fn map_all_owned(&mut self, mut f: impl FnMut(ProcId, &Point, T) -> T) {
        for &p in self.dist.proc_ids().to_vec().iter() {
            let points = self.dist.local_points(p);
            for (l, point) in points.into_iter().enumerate() {
                let old = self.locals[p.0][l];
                self.locals[p.0][l] = f(p, &point, old);
            }
        }
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: T) {
        for buf in &mut self.locals {
            for v in buf.iter_mut() {
                *v = value;
            }
        }
    }

    /// Copies the array into a dense column-major global buffer — used to
    /// compare distributed results against sequential reference
    /// implementations in tests and experiments.
    pub fn to_dense(&self) -> Vec<T> {
        let domain = self.domain();
        let mut out = vec![T::default(); domain.size()];
        for point in domain.iter() {
            let lin = domain.linearize(&point).expect("point from domain iter");
            out[lin] = self.get(&point).expect("every element has an owner");
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
    /// the redistribution engine after it has moved the data.
    pub(crate) fn replace(&mut self, dist: Distribution, locals: Vec<Vec<T>>) {
        debug_assert_eq!(locals.len(), dist.procs().array().num_procs());
        self.dist = dist;
        self.locals = locals;
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
    fn get_for_charges_messages_only_for_remote_elements() {
        let a = DistArray::from_fn(
            "A",
            Distribution::new(
                DistType::block1d(),
                IndexDomain::d1(8),
                ProcessorView::linear(2),
            )
            .unwrap(),
            |p| p.coord(0) as f64,
        );
        let tracker = CommTracker::new(2, CostModel::from_alpha_beta(1.0, 0.0));
        // Local access: element 1 is owned by P0.
        assert_eq!(a.get_for(ProcId(0), &Point::d1(1), &tracker).unwrap(), 1.0);
        assert_eq!(tracker.snapshot().total_messages(), 0);
        // Remote access: element 8 is owned by P1.
        assert_eq!(a.get_for(ProcId(0), &Point::d1(8), &tracker).unwrap(), 8.0);
        let s = tracker.snapshot();
        assert_eq!(s.total_messages(), 1);
        assert_eq!(s.total_bytes(), 8);
    }

    #[test]
    fn map_owned_applies_owner_computes() {
        let mut a = block_array(6, 2);
        a.map_all_owned(|_, p, _| p.coord(0) as f64);
        a.map_owned(ProcId(1), |_, v| v * 10.0);
        assert_eq!(a.get(&Point::d1(1)).unwrap(), 1.0);
        assert_eq!(a.get(&Point::d1(4)).unwrap(), 40.0);
        assert_eq!(a.get(&Point::d1(6)).unwrap(), 60.0);
    }

    #[test]
    fn fill_sets_every_element() {
        let mut a = block_array(7, 3);
        a.fill(3.25);
        assert!(a.to_dense().iter().all(|&v| v == 3.25));
    }
}
