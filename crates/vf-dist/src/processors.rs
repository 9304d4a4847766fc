//! Processor arrays and processor views (sections).

use crate::{DistError, Result};
use std::fmt;
use std::sync::Arc;
use vf_index::{IndexDomain, Point, Section};

/// Identifier of a single (virtual) processor.
///
/// Processor ids are dense `0..num_procs` integers assigned in column-major
/// order over the declaring [`ProcessorArray`]'s index domain, so they can
/// directly index per-processor vectors in the runtime and the simulated
/// machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

impl ProcId {
    /// The processor id as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A declared processor array, e.g. `PROCESSORS R(1:M, 1:M)` from the
/// paper's Example 1, or the default 1-D arrangement `$NP` processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessorArray {
    name: String,
    domain: IndexDomain,
}

impl ProcessorArray {
    /// Declares a processor array with the given name and index domain.
    pub fn new(name: impl Into<String>, domain: IndexDomain) -> Self {
        Self {
            name: name.into(),
            domain,
        }
    }

    /// The default 1-D processor arrangement `P(1:n)` — what the intrinsic
    /// `$NP` exposes in the paper.
    pub fn linear(n: usize) -> Self {
        Self::new("P", IndexDomain::d1(n))
    }

    /// A 2-D processor grid `R(1:rows, 1:cols)`.
    pub fn grid2d(rows: usize, cols: usize) -> Self {
        Self::new("R", IndexDomain::d2(rows, cols))
    }

    /// The declared name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The processor index domain.
    pub fn domain(&self) -> &IndexDomain {
        &self.domain
    }

    /// Rank of the processor array.
    pub fn rank(&self) -> usize {
        self.domain.rank()
    }

    /// Total number of processors.
    pub fn num_procs(&self) -> usize {
        self.domain.size()
    }

    /// The processor id of the processor at `point` in the declaration's
    /// index domain.
    pub fn proc_at(&self, point: &Point) -> Result<ProcId> {
        Ok(ProcId(self.domain.linearize(point)?))
    }

    /// The declaration-domain point of processor `id`.
    pub fn point_of(&self, id: ProcId) -> Result<Point> {
        Ok(self.domain.delinearize(id.0)?)
    }

    /// A view covering the entire processor array.
    pub fn full_view(self: &Arc<Self>) -> ProcessorView {
        ProcessorView {
            array: Arc::clone(self),
            section: Section::all(&self.domain),
        }
    }
}

impl fmt::Display for ProcessorArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.name, self.domain)
    }
}

/// A rectangular section of a processor array — the *processor section* that
/// a distribution expression targets (`DIST (...) TO R(...)`).
///
/// The view behaves as an `r`-dimensional processor grid whose extents are
/// the per-dimension counts of the section.  Grid coordinates are 0-based;
/// [`ProcessorView::proc_at_grid`] converts them back to global [`ProcId`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessorView {
    array: Arc<ProcessorArray>,
    section: Section,
}

impl ProcessorView {
    /// Creates a view from a processor array and a section of its domain.
    pub fn new(array: Arc<ProcessorArray>, section: Section) -> Result<Self> {
        if section.rank() != array.rank() {
            return Err(DistError::ProcessorRankMismatch {
                distributed_dims: section.rank(),
                proc_rank: array.rank(),
            });
        }
        if !section.within(array.domain()) {
            return Err(DistError::NoSuchProcessor {
                proc: usize::MAX,
                count: array.num_procs(),
            });
        }
        Ok(Self { array, section })
    }

    /// A view over all processors of a freshly declared linear arrangement.
    pub fn linear(n: usize) -> Self {
        Arc::new(ProcessorArray::linear(n)).full_view()
    }

    /// A view over all processors of a freshly declared 2-D grid.
    pub fn grid2d(rows: usize, cols: usize) -> Self {
        Arc::new(ProcessorArray::grid2d(rows, cols)).full_view()
    }

    /// The underlying processor array.
    pub fn array(&self) -> &Arc<ProcessorArray> {
        &self.array
    }

    /// The section of the processor array covered by the view.
    pub fn section(&self) -> &Section {
        &self.section
    }

    /// Grid rank of the view (same as the processor array's rank).
    pub fn rank(&self) -> usize {
        self.section.rank()
    }

    /// Per-dimension processor counts of the view.
    pub fn grid_extents(&self) -> Vec<usize> {
        self.section.triplets().iter().map(|t| t.len()).collect()
    }

    /// Number of processors in the view.
    pub fn num_procs(&self) -> usize {
        self.section.size()
    }

    /// The global processor id at 0-based grid coordinates `grid`.
    pub fn proc_at_grid(&self, grid: &[usize]) -> Result<ProcId> {
        if grid.len() != self.rank() {
            return Err(DistError::ProcessorRankMismatch {
                distributed_dims: grid.len(),
                proc_rank: self.rank(),
            });
        }
        let mut coords = Vec::with_capacity(self.rank());
        for (d, &g) in grid.iter().enumerate() {
            let t = self.section.triplet(d);
            if g >= t.len() {
                return Err(DistError::NoSuchProcessor {
                    proc: g,
                    count: t.len(),
                });
            }
            coords.push(t.index_at(g)?);
        }
        self.array.proc_at(&Point::new(&coords)?)
    }

    /// The 0-based grid coordinates of global processor `id` within the
    /// view, or an error if the processor is not part of the view.
    pub fn grid_of(&self, id: ProcId) -> Result<Vec<usize>> {
        let point = self.array.point_of(id)?;
        if !self.section.contains(&point) {
            return Err(DistError::NoSuchProcessor {
                proc: id.0,
                count: self.num_procs(),
            });
        }
        let mut grid = Vec::with_capacity(self.rank());
        for d in 0..self.rank() {
            let t = self.section.triplet(d);
            grid.push(((point.coord(d) - t.lower()) / t.stride()) as usize);
        }
        Ok(grid)
    }

    /// Whether global processor `id` belongs to the view.
    pub fn contains(&self, id: ProcId) -> bool {
        self.array
            .point_of(id)
            .map(|p| self.section.contains(&p))
            .unwrap_or(false)
    }

    /// All global processor ids of the view, in column-major grid order.
    pub fn procs(&self) -> Vec<ProcId> {
        self.section
            .iter()
            .map(|p| self.array.proc_at(&p).expect("section within array"))
            .collect()
    }

    /// A 1-D flattening of the view: the same processors viewed as a linear
    /// grid, used when a single distributed dimension is mapped onto a
    /// multi-dimensional processor structure (e.g. `DISTRIBUTE B1 :: (BLOCK)`
    /// with `PROCESSORS R(1:M,1:M)` in the paper's Example 3).
    pub fn flattened(&self) -> ProcessorView {
        // Build a fresh linear processor array whose ids alias the view's
        // processors; callers translate through `procs()`.
        let procs = self.procs();
        let array = Arc::new(ProcessorArray::new(
            format!("{}_flat", self.array.name()),
            IndexDomain::d1(procs.len()),
        ));
        array.full_view()
    }
}

impl fmt::Display for ProcessorView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.array.name(), self.section)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_index::Triplet;

    #[test]
    fn linear_array_ids() {
        let p = Arc::new(ProcessorArray::linear(4));
        assert_eq!(p.num_procs(), 4);
        assert_eq!(p.rank(), 1);
        assert_eq!(p.proc_at(&Point::d1(1)).unwrap(), ProcId(0));
        assert_eq!(p.proc_at(&Point::d1(4)).unwrap(), ProcId(3));
        assert_eq!(p.point_of(ProcId(2)).unwrap(), Point::d1(3));
        assert!(p.proc_at(&Point::d1(5)).is_err());
    }

    #[test]
    fn grid_ids_are_column_major() {
        let r = Arc::new(ProcessorArray::grid2d(2, 2));
        assert_eq!(r.proc_at(&Point::d2(1, 1)).unwrap(), ProcId(0));
        assert_eq!(r.proc_at(&Point::d2(2, 1)).unwrap(), ProcId(1));
        assert_eq!(r.proc_at(&Point::d2(1, 2)).unwrap(), ProcId(2));
        assert_eq!(r.proc_at(&Point::d2(2, 2)).unwrap(), ProcId(3));
        assert_eq!(r.to_string(), "R[1:2, 1:2]");
    }

    #[test]
    fn full_view_roundtrip() {
        let r = Arc::new(ProcessorArray::grid2d(3, 2));
        let v = r.full_view();
        assert_eq!(v.num_procs(), 6);
        assert_eq!(v.grid_extents(), vec![3, 2]);
        for (i, id) in v.procs().into_iter().enumerate() {
            assert_eq!(id, ProcId(i));
            let g = v.grid_of(id).unwrap();
            assert_eq!(v.proc_at_grid(&g).unwrap(), id);
            assert!(v.contains(id));
        }
        assert!(!v.contains(ProcId(6)));
    }

    #[test]
    fn sub_view_selects_processors() {
        let r = Arc::new(ProcessorArray::grid2d(4, 4));
        // Select the second column of the grid: R(1:4, 2).
        let section =
            Section::new(vec![Triplet::full(r.domain().dim(0)), Triplet::single(2)]).unwrap();
        let v = ProcessorView::new(Arc::clone(&r), section).unwrap();
        assert_eq!(v.num_procs(), 4);
        let ids = v.procs();
        assert_eq!(ids, vec![ProcId(4), ProcId(5), ProcId(6), ProcId(7)]);
        assert_eq!(v.grid_of(ProcId(5)).unwrap(), vec![1, 0]);
        assert!(v.grid_of(ProcId(0)).is_err());
    }

    #[test]
    fn view_rejects_out_of_domain_sections() {
        let r = Arc::new(ProcessorArray::grid2d(2, 2));
        let section =
            Section::new(vec![Triplet::new(1, 3, 1).unwrap(), Triplet::single(1)]).unwrap();
        assert!(ProcessorView::new(r, section).is_err());
    }

    #[test]
    fn flattened_view_has_linear_shape() {
        let v = ProcessorView::grid2d(2, 3);
        let flat = v.flattened();
        assert_eq!(flat.rank(), 1);
        assert_eq!(flat.num_procs(), 6);
    }

    #[test]
    fn proc_at_grid_bounds_checked() {
        let v = ProcessorView::linear(4);
        assert!(v.proc_at_grid(&[4]).is_err());
        assert!(v.proc_at_grid(&[0, 0]).is_err());
        assert_eq!(v.proc_at_grid(&[3]).unwrap(), ProcId(3));
    }
}
