//! Evaluated distributions: a distribution type applied to an array index
//! domain and a processor view (paper Definition 1), plus the `CONSTRUCT`
//! operation used for connected (aligned) arrays.

use crate::{Alignment, DimDist, DistError, DistType, ProcId, ProcessorView, Result};
use std::fmt;
use std::hash::{Hash, Hasher};
use vf_index::{DimRange, IndexDomain, Point};

/// The shape of one processor's local storage for a distributed array:
/// per-dimension local extents for regular distributions, or a flat element
/// count for alignment-derived (translation-table) distributions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalLayout {
    extents: Vec<usize>,
    size: usize,
}

impl LocalLayout {
    fn new(extents: Vec<usize>) -> Self {
        let size = extents.iter().product();
        Self { extents, size }
    }

    /// Per-dimension local extents.
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }

    /// Total number of locally stored elements.
    pub fn size(&self) -> usize {
        self.size
    }
}

/// How the distributed array dimensions are mapped onto processors.
#[derive(Debug, Clone, PartialEq)]
enum Kind {
    /// A regular distribution: per-dimension closed-form arithmetic.
    Regular {
        /// Extent of each processor-grid dimension used by the distribution.
        grid_extents: Vec<usize>,
        /// `grid_map[i]` is the grid dimension that the `i`-th *distributed*
        /// array dimension maps to.
        grid_map: Vec<usize>,
    },
    /// No dimension is distributed: the array is replicated on every
    /// processor of the view.
    Replicated,
    /// An alignment-derived distribution realised through a translation
    /// table (the paper's §3.2.1: "for certain complex distributions, a
    /// pointer to a translation table is required").
    Aligned {
        /// Owner of each element, indexed by column-major global offset.
        owners: Vec<ProcId>,
        /// Local offset of each element on its owner, same indexing.
        local_offsets: Vec<usize>,
        /// For each processor id, the global offsets it owns, in local
        /// storage order.
        local_to_global: Vec<Vec<usize>>,
    },
}

/// A distribution `δ_A : I^A → P(I^R)` of an array over a processor view,
/// together with the local addressing information (`loc_map`, `segment`)
/// the Vienna Fortran Engine keeps per processor (paper §3.2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    dist_type: DistType,
    domain: IndexDomain,
    procs: ProcessorView,
    /// Processor ids of the view in column-major grid order (the order used
    /// for grid-linearisation lookups).
    proc_ids: Vec<ProcId>,
    kind: Kind,
}

impl Distribution {
    /// Applies `dist_type` to an array with index domain `domain`, targeting
    /// the processors of `procs`.
    ///
    /// Mapping rules (paper §2.2): the distributed (non-`:`) dimensions are
    /// matched, in order, with the dimensions of the processor view.  As a
    /// convenience mirroring the paper's Example 3 (`DISTRIBUTE B1 ::
    /// (BLOCK)` with 2-D `R`), a *single* distributed dimension may target a
    /// multi-dimensional view, which is then used as a flattened 1-D
    /// arrangement.
    pub fn new(dist_type: DistType, domain: IndexDomain, procs: ProcessorView) -> Result<Self> {
        dist_type.check_rank(domain.rank())?;
        let ddims = dist_type.distributed_dims();
        let proc_ids = procs.procs();

        if ddims.is_empty() {
            return Ok(Self {
                dist_type,
                domain,
                procs,
                proc_ids,
                kind: Kind::Replicated,
            });
        }

        let (grid_extents, grid_map) = if ddims.len() == procs.rank() {
            (procs.grid_extents(), (0..ddims.len()).collect::<Vec<_>>())
        } else if ddims.len() == 1 {
            (vec![procs.num_procs()], vec![0])
        } else if procs.rank() == 1 {
            // A multi-dimensional distribution onto the default linear
            // arrangement: factor the processors into a balanced grid, the
            // way data-parallel compilers shape the default processor
            // arrangement.
            (
                factor_grid(procs.num_procs(), ddims.len()),
                (0..ddims.len()).collect::<Vec<_>>(),
            )
        } else {
            return Err(DistError::ProcessorRankMismatch {
                distributed_dims: ddims.len(),
                proc_rank: procs.rank(),
            });
        };

        for (i, &d) in ddims.iter().enumerate() {
            let nprocs = grid_extents[grid_map[i]];
            dist_type.dim(d).validate(domain.extent(d), nprocs)?;
        }

        Ok(Self {
            dist_type,
            domain,
            procs,
            proc_ids,
            kind: Kind::Regular {
                grid_extents,
                grid_map,
            },
        })
    }

    /// The distribution type.
    pub fn dist_type(&self) -> &DistType {
        &self.dist_type
    }

    /// The array index domain this distribution applies to.
    pub fn domain(&self) -> &IndexDomain {
        &self.domain
    }

    /// The target processor view.
    pub fn procs(&self) -> &ProcessorView {
        &self.procs
    }

    /// Number of processors in the target view.
    pub fn num_procs(&self) -> usize {
        self.proc_ids.len()
    }

    /// The processor ids of the target view, in grid order.
    pub fn proc_ids(&self) -> &[ProcId] {
        &self.proc_ids
    }

    /// Whether the array is replicated (no dimension distributed).
    pub fn is_replicated(&self) -> bool {
        matches!(self.kind, Kind::Replicated)
    }

    /// Whether this distribution was derived through a non-trivial alignment
    /// and therefore uses a translation table for local addressing.
    pub fn uses_translation_table(&self) -> bool {
        matches!(self.kind, Kind::Aligned { .. })
    }

    /// Whether two distributions place every element of their (identical)
    /// index domains on the same processors.
    pub fn same_mapping(&self, other: &Distribution) -> bool {
        if self.domain != other.domain {
            return false;
        }
        // Equal distribution types are not enough: `construct` permutes the
        // processor-grid mapping and a translation-table distribution
        // carries its base's type.
        if self == other {
            return true;
        }
        // Fall back to an element-wise comparison for derived distributions.
        self.domain
            .iter()
            .all(|p| self.owner(&p).ok().map(|o| o.0) == other.owner(&p).ok().map(|o| o.0))
    }

    fn offsets_of(&self, point: &Point) -> Result<Vec<usize>> {
        self.domain.check(point)?;
        Ok((0..self.domain.rank())
            .map(|d| (point.coord(d) - self.domain.dim(d).lower()) as usize)
            .collect())
    }

    fn grid_linear(&self, grid: &[usize], grid_extents: &[usize]) -> usize {
        let mut lin = 0usize;
        let mut stride = 1usize;
        for (g, e) in grid.iter().zip(grid_extents.iter()) {
            lin += g * stride;
            stride *= e;
        }
        lin
    }

    /// The grid coordinates (within this distribution's processor grid) of
    /// processor `proc`, if it belongs to the view.
    fn proc_grid_coords(&self, proc: ProcId, grid_extents: &[usize]) -> Result<Vec<usize>> {
        let pos =
            self.proc_ids
                .iter()
                .position(|&p| p == proc)
                .ok_or(DistError::NoSuchProcessor {
                    proc: proc.0,
                    count: self.proc_ids.len(),
                })?;
        // proc_ids are stored in column-major grid order, so delinearise.
        let mut rem = pos;
        let mut coords = Vec::with_capacity(grid_extents.len());
        for &e in grid_extents {
            coords.push(rem % e);
            rem /= e;
        }
        Ok(coords)
    }

    /// The owner (paper: the processor that stores the element in its local
    /// memory) of the array element at `point`.  For replicated arrays the
    /// first processor of the view is reported; use
    /// [`Distribution::owners`] for the full owner set.
    pub fn owner(&self, point: &Point) -> Result<ProcId> {
        match &self.kind {
            Kind::Replicated => {
                self.domain.check(point)?;
                Ok(self.proc_ids[0])
            }
            Kind::Aligned { owners, .. } => {
                let lin = self.domain.linearize(point)?;
                Ok(owners[lin])
            }
            Kind::Regular {
                grid_extents,
                grid_map,
            } => {
                let offsets = self.offsets_of(point)?;
                let ddims = self.dist_type.distributed_dims();
                let mut grid = vec![0usize; grid_extents.len()];
                for (i, &d) in ddims.iter().enumerate() {
                    let nprocs = grid_extents[grid_map[i]];
                    grid[grid_map[i]] =
                        self.dist_type
                            .dim(d)
                            .owner(offsets[d], self.domain.extent(d), nprocs);
                }
                let lin = self.grid_linear(&grid, grid_extents);
                Ok(self.proc_ids[lin])
            }
        }
    }

    /// The full owner set of the element at `point` (more than one processor
    /// only for replicated arrays).
    pub fn owners(&self, point: &Point) -> Result<Vec<ProcId>> {
        match &self.kind {
            Kind::Replicated => {
                self.domain.check(point)?;
                Ok(self.proc_ids.clone())
            }
            _ => Ok(vec![self.owner(point)?]),
        }
    }

    /// Whether the element at `point` is stored locally on `proc`.
    pub fn is_local(&self, proc: ProcId, point: &Point) -> bool {
        match &self.kind {
            Kind::Replicated => self.domain.contains(point) && self.proc_ids.contains(&proc),
            _ => self.owner(point).map(|o| o == proc).unwrap_or(false),
        }
    }

    /// The local storage layout of `proc` (the basis of the VFE's dynamic
    /// memory management, §3.2).
    pub fn layout(&self, proc: ProcId) -> LocalLayout {
        match &self.kind {
            Kind::Replicated => {
                if self.proc_ids.contains(&proc) {
                    LocalLayout::new(self.domain.extents())
                } else {
                    LocalLayout::new(vec![0])
                }
            }
            Kind::Aligned {
                local_to_global, ..
            } => {
                let count = local_to_global.get(proc.0).map(|v| v.len()).unwrap_or(0);
                LocalLayout::new(vec![count])
            }
            Kind::Regular {
                grid_extents,
                grid_map,
            } => {
                let Ok(grid) = self.proc_grid_coords(proc, grid_extents) else {
                    return LocalLayout::new(vec![0]);
                };
                let ddims = self.dist_type.distributed_dims();
                let mut extents = Vec::with_capacity(self.domain.rank());
                for d in 0..self.domain.rank() {
                    let n = self.domain.extent(d);
                    if let Some(i) = ddims.iter().position(|&x| x == d) {
                        let gdim = grid_map[i];
                        extents.push(self.dist_type.dim(d).local_count(
                            grid[gdim],
                            n,
                            grid_extents[gdim],
                        ));
                    } else {
                        extents.push(n);
                    }
                }
                LocalLayout::new(extents)
            }
        }
    }

    /// Number of elements stored locally on `proc`.
    pub fn local_size(&self, proc: ProcId) -> usize {
        self.layout(proc).size()
    }

    /// The `loc_map` access function of §3.2.1: the offset of the element at
    /// global `point` within the local memory of `proc`.
    ///
    /// # Errors
    /// [`DistError::NotLocal`] if `proc` does not own the element.
    pub fn loc_map(&self, proc: ProcId, point: &Point) -> Result<usize> {
        match &self.kind {
            Kind::Replicated => {
                if !self.proc_ids.contains(&proc) {
                    return Err(DistError::NoSuchProcessor {
                        proc: proc.0,
                        count: self.proc_ids.len(),
                    });
                }
                Ok(self.domain.linearize(point)?)
            }
            Kind::Aligned {
                owners,
                local_offsets,
                ..
            } => {
                let lin = self.domain.linearize(point)?;
                if owners[lin] != proc {
                    return Err(DistError::NotLocal {
                        proc: proc.0,
                        point: point.to_string(),
                    });
                }
                Ok(local_offsets[lin])
            }
            Kind::Regular {
                grid_extents,
                grid_map,
            } => {
                let offsets = self.offsets_of(point)?;
                let grid = self.proc_grid_coords(proc, grid_extents)?;
                let ddims = self.dist_type.distributed_dims();
                let mut local = 0usize;
                let mut stride = 1usize;
                #[allow(clippy::needless_range_loop)] // `d` indexes several parallel tables
                for d in 0..self.domain.rank() {
                    let n = self.domain.extent(d);
                    let (l, count) = if let Some(i) = ddims.iter().position(|&x| x == d) {
                        let gdim = grid_map[i];
                        let nprocs = grid_extents[gdim];
                        let dd = self.dist_type.dim(d);
                        if dd.owner(offsets[d], n, nprocs) != grid[gdim] {
                            return Err(DistError::NotLocal {
                                proc: proc.0,
                                point: point.to_string(),
                            });
                        }
                        (
                            dd.local_offset(offsets[d], n, nprocs),
                            dd.local_count(grid[gdim], n, nprocs),
                        )
                    } else {
                        (offsets[d], n)
                    };
                    local += l * stride;
                    stride *= count;
                }
                Ok(local)
            }
        }
    }

    /// The global index tuple stored at local offset `local` on `proc` — the
    /// inverse of [`Distribution::loc_map`].
    pub fn global_at(&self, proc: ProcId, local: usize) -> Result<Point> {
        match &self.kind {
            Kind::Replicated => Ok(self.domain.delinearize(local)?),
            Kind::Aligned {
                local_to_global, ..
            } => {
                let table = local_to_global
                    .get(proc.0)
                    .ok_or(DistError::NoSuchProcessor {
                        proc: proc.0,
                        count: self.proc_ids.len(),
                    })?;
                let lin = *table.get(local).ok_or(DistError::NotLocal {
                    proc: proc.0,
                    point: format!("local offset {local}"),
                })?;
                Ok(self.domain.delinearize(lin)?)
            }
            Kind::Regular {
                grid_extents,
                grid_map,
            } => {
                let grid = self.proc_grid_coords(proc, grid_extents)?;
                let layout = self.layout(proc);
                if local >= layout.size() {
                    return Err(DistError::NotLocal {
                        proc: proc.0,
                        point: format!("local offset {local}"),
                    });
                }
                let ddims = self.dist_type.distributed_dims();
                let mut rem = local;
                let mut coords = Vec::with_capacity(self.domain.rank());
                for d in 0..self.domain.rank() {
                    let count = layout.extents()[d];
                    let l = rem % count.max(1);
                    rem /= count.max(1);
                    let n = self.domain.extent(d);
                    let o = if let Some(i) = ddims.iter().position(|&x| x == d) {
                        let gdim = grid_map[i];
                        self.dist_type
                            .dim(d)
                            .global_offset(grid[gdim], l, n, grid_extents[gdim])
                    } else {
                        l
                    };
                    coords.push(self.domain.dim(d).lower() + o as i64);
                }
                Ok(Point::new(&coords)?)
            }
        }
    }

    /// All global points owned by `proc`, in local storage order.
    pub fn local_points(&self, proc: ProcId) -> Vec<Point> {
        let n = self.local_size(proc);
        (0..n)
            .map(|l| self.global_at(proc, l).expect("local offset in range"))
            .collect()
    }

    /// The contiguous rectangular global sub-domain owned by `proc`, when the
    /// local element set is such a rectangle (always the case for `BLOCK`,
    /// general block and `:` dimensions); `None` for scattered (cyclic or
    /// translation-table) local sets.  This is the `segment` descriptor
    /// component of §3.2.1.
    pub fn local_segment(&self, proc: ProcId) -> Option<IndexDomain> {
        match &self.kind {
            Kind::Replicated => {
                if self.proc_ids.contains(&proc) {
                    Some(self.domain.clone())
                } else {
                    None
                }
            }
            Kind::Aligned { .. } => None,
            Kind::Regular {
                grid_extents,
                grid_map,
            } => {
                let grid = self.proc_grid_coords(proc, grid_extents).ok()?;
                let ddims = self.dist_type.distributed_dims();
                let mut dims = Vec::with_capacity(self.domain.rank());
                for d in 0..self.domain.rank() {
                    let n = self.domain.extent(d);
                    let lower = self.domain.dim(d).lower();
                    if let Some(i) = ddims.iter().position(|&x| x == d) {
                        let gdim = grid_map[i];
                        let seg =
                            self.dist_type
                                .dim(d)
                                .segment(grid[gdim], n, grid_extents[gdim])?;
                        if seg.len == 0 {
                            dims.push(DimRange::empty_at(lower));
                        } else {
                            dims.push(
                                DimRange::new(
                                    lower + seg.start as i64,
                                    lower + (seg.start + seg.len) as i64 - 1,
                                )
                                .ok()?,
                            );
                        }
                    } else {
                        dims.push(self.domain.dim(d));
                    }
                }
                IndexDomain::new(dims).ok()
            }
        }
    }

    /// The dimensions whose local layouts *scatter* on some processor —
    /// their per-dimension segment does not exist for every processor
    /// coordinate, so no processor-rectangle description of the local set
    /// can name them.  Empty for replicated layouts and for layouts where
    /// [`Distribution::local_segment`] exists everywhere; alignment-derived
    /// layouts scatter as a whole and report every dimension.  This is what
    /// a structured non-contiguous-layout error should name.
    pub fn scattered_dims(&self) -> Vec<usize> {
        match &self.kind {
            Kind::Replicated => Vec::new(),
            Kind::Aligned { .. } => (0..self.domain.rank()).collect(),
            Kind::Regular {
                grid_extents,
                grid_map,
            } => {
                let ddims = self.dist_type.distributed_dims();
                let mut out = Vec::new();
                for (i, &d) in ddims.iter().enumerate() {
                    let n = self.domain.extent(d);
                    let procs_in_dim = grid_extents[grid_map[i]];
                    if (0..procs_in_dim)
                        .any(|c| self.dist_type.dim(d).segment(c, n, procs_in_dim).is_none())
                    {
                        out.push(d);
                    }
                }
                out
            }
        }
    }

    /// A cheap structural fingerprint of the distribution: two
    /// distributions with the same fingerprint place every element on the
    /// same processor, up to 64-bit hash collisions.  A collision would
    /// make two *different* distributions indistinguishable to every
    /// fingerprint consumer (cache keys and execution-time re-validation
    /// alike), silently reusing a plan built for the other distribution —
    /// with `DefaultHasher` over the full structural state the probability
    /// is ~2⁻⁶⁴ per pair, accepted as the price of O(1) keys; callers that
    /// cannot tolerate it should compare distributions structurally.
    ///
    /// The fingerprint covers the distribution type, the index domain, the
    /// processor ids of the target view and — for translation-table
    /// distributions — the full owner vector.  It is the cache key of the
    /// runtime's `PlanCache` (paper §3.2: PARTI schedule reuse requires
    /// recognising that the distribution has not changed).
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.dist_type.hash(&mut h);
        self.domain.hash(&mut h);
        self.proc_ids.hash(&mut h);
        match &self.kind {
            Kind::Replicated => 0u8.hash(&mut h),
            Kind::Regular {
                grid_extents,
                grid_map,
            } => {
                1u8.hash(&mut h);
                grid_extents.hash(&mut h);
                grid_map.hash(&mut h);
            }
            Kind::Aligned { owners, .. } => {
                2u8.hash(&mut h);
                owners.hash(&mut h);
            }
        }
        h.finish()
    }

    /// Estimated resident size of the distribution in bytes: the struct
    /// plus its heap payload.  Regular and replicated distributions are a
    /// few dozen bytes; alignment-derived ones carry O(N) translation
    /// tables — consumers that keep clones alive (the runtime's plan
    /// cache) must account for the difference.
    pub fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        let kind = match &self.kind {
            Kind::Replicated => 0,
            Kind::Regular {
                grid_extents,
                grid_map,
            } => (grid_extents.len() + grid_map.len()) * size_of::<usize>(),
            Kind::Aligned {
                owners,
                local_offsets,
                local_to_global,
            } => {
                owners.len() * size_of::<ProcId>()
                    + local_offsets.len() * size_of::<usize>()
                    + local_to_global
                        .iter()
                        .map(|v| size_of::<Vec<usize>>() + v.len() * size_of::<usize>())
                        .sum::<usize>()
            }
        };
        size_of::<Self>() + self.proc_ids.len() * size_of::<ProcId>() + kind
            // Indirect mapping arrays and general-block size lists live in
            // the distribution type; charge them per clone (conservative
            // for Arc-shared maps).
            + self.dist_type.payload_bytes()
    }

    /// The contiguous correspondences between the local storage of `proc`
    /// and global column-major offsets, in local storage order: within one
    /// [`LinearRun`] both the local offset and the global offset advance by
    /// one per element.
    ///
    /// This is the run-length-encoded form of [`Distribution::local_points`]
    /// used by the communication planner: `BLOCK`/general-block/`:` layouts
    /// produce one run per local column, cyclic layouts one run per owned
    /// block, so downstream consumers iterate runs instead of hashing
    /// individual points.
    pub fn local_linear_runs(&self, proc: ProcId) -> Vec<LinearRun> {
        let mut runs: Vec<LinearRun> = Vec::new();
        // Appends a stretch contiguous in both spaces, extending the last
        // run when it continues it.
        let mut push = |local: usize, global: usize, len: usize| match runs.last_mut() {
            Some(run)
                if run.local_start + run.len == local && run.global_start + run.len == global =>
            {
                run.len += len;
            }
            _ => runs.push(LinearRun {
                local_start: local,
                global_start: global,
                len,
            }),
        };
        match &self.kind {
            Kind::Replicated => {
                if self.proc_ids.contains(&proc) && !self.domain.is_empty() {
                    runs.push(LinearRun {
                        local_start: 0,
                        global_start: 0,
                        len: self.domain.size(),
                    });
                }
            }
            Kind::Aligned {
                local_to_global, ..
            } => {
                if let Some(table) = local_to_global.get(proc.0) {
                    for (local, &lin) in table.iter().enumerate() {
                        push(local, lin, 1);
                    }
                }
            }
            Kind::Regular {
                grid_extents,
                grid_map,
            } => {
                let Ok(grid) = self.proc_grid_coords(proc, grid_extents) else {
                    return runs;
                };
                let rank = self.domain.rank();
                let ddims = self.dist_type.distributed_dims();
                // Per dimension: the grid coordinate and grid extent this
                // processor sees (`(0, 1)` along an undistributed one).
                let axis = |d: usize| match ddims.iter().position(|&x| x == d) {
                    Some(i) => (grid[grid_map[i]], grid_extents[grid_map[i]]),
                    None => (0, 1),
                };
                // The global offsets of this processor's local coordinates
                // along dimension `d`.
                let global_of_local = |d: usize| -> Vec<usize> {
                    let (coord, extent) = axis(d);
                    let (dd, n) = (self.dist_type.dim(d), self.domain.extent(d));
                    (0..dd.local_count(coord, n, extent))
                        .map(|l| dd.global_offset(coord, l, n, extent))
                        .collect()
                };
                // Dimension 0 has stride 1 in both spaces, so a local column
                // is a sequence of blocks contiguous in both, the same for
                // every column and known without visiting its elements:
                // the whole column when it is owned as one segment
                // (`BLOCK`, general block, `:`), one block per owned block
                // of `CYCLIC(k)`.  Only an `INDIRECT` column goes element by
                // element through its offset table.
                let (coord, extent) = axis(0);
                let (dd, n) = (self.dist_type.dim(0), self.domain.extent(0));
                let column_len = dd.local_count(coord, n, extent);
                let segment = dd.segment(coord, n, extent);
                let block = match (segment, dd) {
                    (Some(_), _) => column_len,
                    (None, DimDist::Cyclic(k)) => *k,
                    (None, _) => 1,
                };
                // Higher dimensions: offset tables and global strides.
                let mut tables: Vec<Vec<usize>> = vec![Vec::new()];
                let mut global_strides = vec![1usize];
                for d in 1..rank {
                    tables.push(global_of_local(d));
                    global_strides.push(global_strides[d - 1] * self.domain.extent(d - 1));
                }
                let local_size: usize =
                    column_len * tables[1..].iter().map(|t| t.len()).product::<usize>();
                if local_size == 0 {
                    return runs;
                }
                // Walk the local columns in column-major order with an
                // odometer over the higher dimensions, accumulating the
                // global linear offset of each column's origin.
                let mut coords = vec![0usize; rank];
                let mut glin: usize = (1..rank).map(|d| tables[d][0] * global_strides[d]).sum();
                for local in (0..local_size).step_by(column_len) {
                    for l in (0..column_len).step_by(block) {
                        let g = match segment {
                            Some(segment) => segment.start + l,
                            None => dd.global_offset(coord, l, n, extent),
                        };
                        push(local + l, glin + g, block.min(column_len - l));
                    }
                    for d in 1..rank {
                        let table = &tables[d];
                        if coords[d] + 1 < table.len() {
                            glin += (table[coords[d] + 1] - table[coords[d]]) * global_strides[d];
                            coords[d] += 1;
                            break;
                        }
                        glin -= (table[coords[d]] - table[0]) * global_strides[d];
                        coords[d] = 0;
                    }
                }
            }
        }
        runs
    }

    /// A precomputed owner/local-offset resolver for this distribution.
    ///
    /// [`Distribution::owner`] and [`Distribution::loc_map`] recompute
    /// grid coordinates (an `O(P)` search) and general-block prefix sums on
    /// every call; a [`Locator`] materialises per-dimension lookup tables
    /// once, so an element resolves with table reads only, and a whole
    /// contiguous stretch of them with one ([`Locator::locate_stretch`]).
    pub fn locator(&self) -> Locator<'_> {
        Locator::new(self)
    }

    /// Builds an alignment-derived distribution directly from a closure
    /// giving the owner of every element — used by `construct` for general
    /// alignments and available for user-defined distribution functions
    /// (the paper's "interface for external distribution generators").
    pub fn from_owner_fn(
        dist_type: DistType,
        domain: IndexDomain,
        procs: ProcessorView,
        mut owner_of: impl FnMut(&Point) -> ProcId,
    ) -> Result<Self> {
        let proc_ids = procs.procs();
        let max_proc = proc_ids.iter().map(|p| p.0).max().unwrap_or(0);
        let size = domain.size();
        let mut owners = Vec::with_capacity(size);
        let mut local_offsets = vec![0usize; size];
        let mut local_to_global: Vec<Vec<usize>> = vec![Vec::new(); max_proc + 1];
        for (lin, p) in domain.iter().enumerate() {
            let o = owner_of(&p);
            if !proc_ids.contains(&o) {
                return Err(DistError::NoSuchProcessor {
                    proc: o.0,
                    count: proc_ids.len(),
                });
            }
            owners.push(o);
            local_offsets[lin] = local_to_global[o.0].len();
            local_to_global[o.0].push(lin);
        }
        Ok(Self {
            dist_type,
            domain,
            procs,
            proc_ids,
            kind: Kind::Aligned {
                owners,
                local_offsets,
                local_to_global,
            },
        })
    }
}

/// A contiguous correspondence between local storage and global
/// column-major offsets: the `len` elements at local offsets
/// `local_start..local_start+len` on one processor are the global offsets
/// `global_start..global_start+len`, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearRun {
    /// First local offset of the run.
    pub local_start: usize,
    /// First global column-major offset of the run.
    pub global_start: usize,
    /// Number of elements in the run.
    pub len: usize,
}

enum LocMode {
    Replicated,
    Aligned,
    Regular {
        /// For each array dimension: `(owner grid coordinate, local offset)`
        /// per global offset; `None` for undistributed dimensions (owner
        /// irrelevant, local offset = global offset).
        tables: Vec<Option<(Vec<u32>, Vec<u32>)>>,
        /// For each array dimension: local element count per owner grid
        /// coordinate (a single entry holding the extent for undistributed
        /// dimensions).
        counts: Vec<Vec<u32>>,
        /// Grid dimension fed by each distributed array dimension, indexed
        /// by array dimension (`usize::MAX` for undistributed dims).
        gdim_of_dim: Vec<usize>,
        grid_extents: Vec<usize>,
    },
}

/// A precomputed owner/local-offset resolver (see
/// [`Distribution::locator`]).  One query is `O(rank)` table reads with no
/// allocation or hashing, and [`Locator::locate_stretch`] answers it for a
/// whole stretch of consecutive global offsets that stay on one owner at
/// consecutive local offsets — so the communication planner pays per
/// stretch, not per element.
pub struct Locator<'a> {
    dist: &'a Distribution,
    mode: LocMode,
}

impl<'a> Locator<'a> {
    fn new(dist: &'a Distribution) -> Self {
        let mode = match &dist.kind {
            Kind::Replicated => LocMode::Replicated,
            Kind::Aligned { .. } => LocMode::Aligned,
            Kind::Regular {
                grid_extents,
                grid_map,
            } => {
                let rank = dist.domain.rank();
                let ddims = dist.dist_type.distributed_dims();
                let mut tables = Vec::with_capacity(rank);
                let mut counts = Vec::with_capacity(rank);
                let mut gdim_of_dim = vec![usize::MAX; rank];
                #[allow(clippy::needless_range_loop)] // `d` indexes several parallel tables
                for d in 0..rank {
                    let n = dist.domain.extent(d);
                    if let Some(i) = ddims.iter().position(|&x| x == d) {
                        let gdim = grid_map[i];
                        let nprocs = grid_extents[gdim];
                        let dd = dist.dist_type.dim(d);
                        let mut owner_t = Vec::with_capacity(n);
                        let mut local_t = Vec::with_capacity(n);
                        for off in 0..n {
                            owner_t.push(dd.owner(off, n, nprocs) as u32);
                            local_t.push(dd.local_offset(off, n, nprocs) as u32);
                        }
                        counts.push(
                            (0..nprocs)
                                .map(|g| dd.local_count(g, n, nprocs) as u32)
                                .collect(),
                        );
                        gdim_of_dim[d] = gdim;
                        tables.push(Some((owner_t, local_t)));
                    } else {
                        counts.push(vec![n as u32]);
                        tables.push(None);
                    }
                }
                LocMode::Regular {
                    tables,
                    counts,
                    gdim_of_dim,
                    grid_extents: grid_extents.clone(),
                }
            }
        };
        Self { dist, mode }
    }

    /// The distribution this locator resolves against.
    pub fn dist(&self) -> &Distribution {
        self.dist
    }

    /// The owner and owner-local offset of the element at global
    /// column-major offset `lin` (which must be in range; for replicated
    /// arrays the canonical first owner is reported, as in
    /// [`Distribution::owner`]).
    pub fn locate_lin(&self, lin: usize) -> (ProcId, usize) {
        match &self.mode {
            LocMode::Replicated => (self.dist.proc_ids[0], lin),
            LocMode::Aligned => {
                let Kind::Aligned {
                    owners,
                    local_offsets,
                    ..
                } = &self.dist.kind
                else {
                    unreachable!("mode matches kind");
                };
                (owners[lin], local_offsets[lin])
            }
            LocMode::Regular {
                tables,
                counts,
                gdim_of_dim,
                grid_extents,
            } => {
                let rank = self.dist.domain.rank();
                let mut rem = lin;
                let mut grid = [0usize; 8];
                let mut local_coords = [0usize; 8];
                for d in 0..rank {
                    let n = self.dist.domain.extent(d);
                    let off = rem % n;
                    rem /= n;
                    match &tables[d] {
                        Some((owner_t, local_t)) => {
                            grid[gdim_of_dim[d]] = owner_t[off] as usize;
                            local_coords[d] = local_t[off] as usize;
                        }
                        None => local_coords[d] = off,
                    }
                }
                // Processor id: column-major grid linearisation.
                let mut plin = 0usize;
                let mut stride = 1usize;
                for (g, e) in grid[..grid_extents.len()].iter().zip(grid_extents.iter()) {
                    plin += g * stride;
                    stride *= e;
                }
                // Local offset: column-major over the owner's local extents.
                let mut local = 0usize;
                let mut lstride = 1usize;
                for d in 0..rank {
                    let count = if tables[d].is_some() {
                        counts[d][grid[gdim_of_dim[d]]] as usize
                    } else {
                        counts[d][0] as usize
                    };
                    local += local_coords[d] * lstride;
                    lstride *= count;
                }
                (self.dist.proc_ids[plin], local)
            }
        }
    }

    /// The owner and owner-local offset of global offset `lin`, and the
    /// length `len` (`1 ≤ len ≤ max`) of the stretch it starts: global
    /// offsets `lin..lin + len` all live on that owner, at local offsets
    /// `local..local + len`.  `lin` must be in range and `max` at least 1.
    ///
    /// The stretch comes from the distribution function of dimension 0,
    /// which has stride 1 in both spaces: it ends at the owner's segment
    /// end for `BLOCK` and general block, at the end of the block of `k`
    /// for `CYCLIC(k)`, and at the column end for `:`.  On a replicated
    /// array the rest of the array is one stretch; a translation-table
    /// layout (alignment-derived or `INDIRECT`) has no closed form and
    /// answers a stretch of one.
    pub fn locate_stretch(&self, lin: usize, max: usize) -> (ProcId, usize, usize) {
        let (owner, local) = self.locate_lin(lin);
        let len = match &self.mode {
            LocMode::Replicated => self.dist.domain.size() - lin,
            LocMode::Aligned => 1,
            LocMode::Regular { tables, counts, .. } => {
                let n = self.dist.domain.extent(0);
                let off = lin % n;
                let end = match (self.dist.dist_type.dim(0), &tables[0]) {
                    (DimDist::NotDistributed, _) => n - off,
                    (DimDist::Cyclic(k), _) => k - off % k,
                    (DimDist::Block | DimDist::GenBlock(_), Some((owner_t, local_t))) => {
                        counts[0][owner_t[off] as usize] as usize - local_t[off] as usize
                    }
                    _ => 1,
                };
                end.min(n - off)
            }
        };
        (owner, local, len.min(max).max(1))
    }

    /// The owner and owner-local offset of the element at `point`.
    pub fn locate(&self, point: &Point) -> Result<(ProcId, usize)> {
        Ok(self.locate_lin(self.dist.domain.linearize(point)?))
    }
}

/// Factors `n` processors into `k` grid extents that are as balanced as
/// possible (product exactly `n`): prime factors are assigned, largest
/// first, to the currently smallest extent.
fn factor_grid(n: usize, k: usize) -> Vec<usize> {
    let mut dims = vec![1usize; k.max(1)];
    let mut m = n.max(1);
    let mut factors = Vec::new();
    let mut d = 2usize;
    while d * d <= m {
        while m.is_multiple_of(d) {
            factors.push(d);
            m /= d;
        }
        d += 1;
    }
    if m > 1 {
        factors.push(m);
    }
    factors.sort_unstable_by(|a, b| b.cmp(a));
    for f in factors {
        let (i, _) = dims
            .iter()
            .enumerate()
            .min_by_key(|&(_, &v)| v)
            .expect("dims is non-empty");
        dims[i] *= f;
    }
    dims
}

impl fmt::Display for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} TO {}", self.dist_type, self.procs)
    }
}

/// The paper's `CONSTRUCT` operation: derives the distribution of a
/// secondary array `A` from its alignment to a primary array `B` and `B`'s
/// distribution — `δ_A(i) = δ_B(α_A(i))`.
///
/// When the alignment is a pure dimension permutation over identically
/// bounded dimensions, the result is itself a regular distribution (the
/// permuted distribution type on the same processors); otherwise a
/// translation-table distribution is built element-wise.
pub fn construct(
    alignment: &Alignment,
    base: &Distribution,
    source_domain: &IndexDomain,
) -> Result<Distribution> {
    alignment.check_domains(source_domain, base.domain())?;

    if let Some(perm) = alignment.as_permutation() {
        // perm[d] is the source (A) dimension feeding target (B) dimension d.
        // A's dimension e therefore inherits B's dimension inv[e] where
        // inv[perm[d]] = d.
        let rank = perm.len();
        let mut inv = vec![0usize; rank];
        for (d, &src) in perm.iter().enumerate() {
            inv[src] = d;
        }
        let bounds_match = (0..rank).all(|e| source_domain.dim(e) == base.domain().dim(inv[e]));
        if bounds_match {
            let a_type = DistType::new(
                (0..rank)
                    .map(|e| base.dist_type().dim(inv[e]).clone())
                    .collect(),
            );
            // Preserve the processor-grid assignment of the base: A's i-th
            // distributed dimension must land on the same grid dimension as
            // the corresponding B dimension.
            if let Kind::Regular {
                grid_extents,
                grid_map,
            } = &base.kind
            {
                let b_ddims = base.dist_type().distributed_dims();
                let a_ddims = a_type.distributed_dims();
                let mut a_grid_map = Vec::with_capacity(a_ddims.len());
                for &e in &a_ddims {
                    let b_dim = inv[e];
                    let pos = b_ddims
                        .iter()
                        .position(|&x| x == b_dim)
                        .expect("distributed dims correspond under permutation");
                    a_grid_map.push(grid_map[pos]);
                }
                return Ok(Distribution {
                    dist_type: a_type,
                    domain: source_domain.clone(),
                    procs: base.procs.clone(),
                    proc_ids: base.proc_ids.clone(),
                    kind: Kind::Regular {
                        grid_extents: grid_extents.clone(),
                        grid_map: a_grid_map,
                    },
                });
            }
            if matches!(base.kind, Kind::Replicated) {
                return Distribution::new(a_type, source_domain.clone(), base.procs.clone());
            }
        }
    }

    // General case: element-wise translation table.
    let base_clone = base.clone();
    let align = alignment.clone();
    let mut error: Option<DistError> = None;
    let dist = Distribution::from_owner_fn(
        base.dist_type().clone(),
        source_domain.clone(),
        base.procs().clone(),
        |p| {
            let target = match align.map(p) {
                Ok(t) => t,
                Err(e) => {
                    error.get_or_insert(e);
                    return base_clone.proc_ids()[0];
                }
            };
            match base_clone.owner(&target) {
                Ok(o) => o,
                Err(e) => {
                    error.get_or_insert(e);
                    base_clone.proc_ids()[0]
                }
            }
        },
    )?;
    if let Some(e) = error {
        return Err(e);
    }
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DimDist, DimPattern};
    use proptest::prelude::*;

    fn block_1d(n: usize, p: usize) -> Distribution {
        Distribution::new(
            DistType::block1d(),
            IndexDomain::d1(n),
            ProcessorView::linear(p),
        )
        .unwrap()
    }

    /// Exhaustive consistency check used by several tests: every element has
    /// exactly one owner, loc_map/global_at round-trip, and local sizes add
    /// up to the domain size.
    fn check_distribution(dist: &Distribution) {
        let mut counts = vec![0usize; dist.proc_ids().iter().map(|p| p.0).max().unwrap() + 1];
        for point in dist.domain().clone().iter() {
            let owner = dist.owner(&point).unwrap();
            assert!(dist.is_local(owner, &point));
            let l = dist.loc_map(owner, &point).unwrap();
            assert!(l < dist.local_size(owner));
            assert_eq!(dist.global_at(owner, l).unwrap(), point);
            counts[owner.0] += 1;
            if let Some(seg) = dist.local_segment(owner) {
                assert!(seg.contains(&point));
            }
        }
        if !dist.is_replicated() {
            let total: usize = dist.proc_ids().iter().map(|&p| dist.local_size(p)).sum();
            assert_eq!(total, dist.domain().size());
            for &p in dist.proc_ids() {
                assert_eq!(counts[p.0], dist.local_size(p));
                assert_eq!(dist.local_points(p).len(), dist.local_size(p));
            }
        }
    }

    #[test]
    fn block_1d_ownership() {
        let d = block_1d(10, 3);
        check_distribution(&d);
        assert_eq!(d.owner(&Point::d1(1)).unwrap(), ProcId(0));
        assert_eq!(d.owner(&Point::d1(5)).unwrap(), ProcId(1));
        assert_eq!(d.owner(&Point::d1(10)).unwrap(), ProcId(2));
        assert_eq!(d.local_size(ProcId(0)), 4);
        assert_eq!(d.local_size(ProcId(2)), 2);
        let seg = d.local_segment(ProcId(1)).unwrap();
        assert_eq!(seg.dim(0).lower(), 5);
        assert_eq!(seg.dim(0).upper(), 8);
        assert_eq!(d.to_string(), "(BLOCK) TO P(1:3)");
    }

    #[test]
    fn cyclic_1d_ownership() {
        let d = Distribution::new(
            DistType::cyclic1d(1),
            IndexDomain::d1(10),
            ProcessorView::linear(4),
        )
        .unwrap();
        check_distribution(&d);
        assert_eq!(d.owner(&Point::d1(1)).unwrap(), ProcId(0));
        assert_eq!(d.owner(&Point::d1(2)).unwrap(), ProcId(1));
        assert_eq!(d.owner(&Point::d1(6)).unwrap(), ProcId(1));
        assert!(d.local_segment(ProcId(0)).is_none());
    }

    #[test]
    fn columns_distribution_keeps_columns_local() {
        // REAL V(NX, NY) DIST(:, BLOCK): each column V(:, j) is local to one
        // processor — the property the ADI x-sweep of Figure 1 relies on.
        let d = Distribution::new(
            DistType::columns(),
            IndexDomain::d2(8, 8),
            ProcessorView::linear(4),
        )
        .unwrap();
        check_distribution(&d);
        for j in 1..=8i64 {
            let owners: std::collections::HashSet<_> = (1..=8i64)
                .map(|i| d.owner(&Point::d2(i, j)).unwrap())
                .collect();
            assert_eq!(owners.len(), 1, "column {j} spans processors");
        }
        assert_eq!(d.local_size(ProcId(0)), 16);
        let seg = d.local_segment(ProcId(1)).unwrap();
        assert_eq!(seg.dim(0).lower(), 1);
        assert_eq!(seg.dim(0).upper(), 8);
        assert_eq!(seg.dim(1).lower(), 3);
        assert_eq!(seg.dim(1).upper(), 4);
    }

    #[test]
    fn blocks2d_on_grid() {
        let d = Distribution::new(
            DistType::blocks2d(),
            IndexDomain::d2(8, 8),
            ProcessorView::grid2d(2, 2),
        )
        .unwrap();
        check_distribution(&d);
        assert_eq!(d.owner(&Point::d2(1, 1)).unwrap(), ProcId(0));
        assert_eq!(d.owner(&Point::d2(5, 1)).unwrap(), ProcId(1));
        assert_eq!(d.owner(&Point::d2(1, 5)).unwrap(), ProcId(2));
        assert_eq!(d.owner(&Point::d2(5, 5)).unwrap(), ProcId(3));
        assert_eq!(d.local_size(ProcId(0)), 16);
    }

    #[test]
    fn example1_3d_block_block_elision() {
        // REAL C(10,10,10) DIST(BLOCK, BLOCK, :) TO R(1:2,1:2).
        let d = Distribution::new(
            DistType::new(vec![
                DimDist::Block,
                DimDist::Block,
                DimDist::NotDistributed,
            ]),
            IndexDomain::d3(10, 10, 10),
            ProcessorView::grid2d(2, 2),
        )
        .unwrap();
        check_distribution(&d);
        // delta_C(i,j,k) = R(ceil(i/5), ceil(j/5)) for all k.
        for k in 1..=10i64 {
            assert_eq!(d.owner(&Point::d3(3, 2, k)).unwrap(), ProcId(0));
            assert_eq!(d.owner(&Point::d3(7, 2, k)).unwrap(), ProcId(1));
            assert_eq!(d.owner(&Point::d3(2, 9, k)).unwrap(), ProcId(2));
            assert_eq!(d.owner(&Point::d3(9, 9, k)).unwrap(), ProcId(3));
        }
        assert_eq!(d.local_size(ProcId(0)), 5 * 5 * 10);
    }

    #[test]
    fn single_distributed_dim_onto_2d_grid_is_flattened() {
        // DISTRIBUTE B1 :: (BLOCK) with PROCESSORS R(1:2,1:2) (Example 3).
        let d = Distribution::new(
            DistType::block1d(),
            IndexDomain::d1(8),
            ProcessorView::grid2d(2, 2),
        )
        .unwrap();
        check_distribution(&d);
        assert_eq!(d.owner(&Point::d1(1)).unwrap(), ProcId(0));
        assert_eq!(d.owner(&Point::d1(8)).unwrap(), ProcId(3));
    }

    #[test]
    fn rank_mismatch_errors() {
        assert!(matches!(
            Distribution::new(
                DistType::block1d(),
                IndexDomain::d2(4, 4),
                ProcessorView::linear(2)
            ),
            Err(DistError::RankMismatch { .. })
        ));
        // Two distributed dimensions onto a 2-D view of the wrong shape is
        // fine, but onto a 3-D view it is not resolvable.
        assert!(matches!(
            Distribution::new(
                DistType::blocks2d(),
                IndexDomain::d2(4, 4),
                ProcessorView::new(
                    std::sync::Arc::new(crate::ProcessorArray::new("Q", IndexDomain::d3(2, 2, 2))),
                    vf_index::Section::all(&IndexDomain::d3(2, 2, 2)),
                )
                .unwrap()
            ),
            Err(DistError::ProcessorRankMismatch { .. })
        ));
    }

    #[test]
    fn linear_processors_are_factored_into_a_grid() {
        // (BLOCK, BLOCK) on the default 1-D arrangement of 6 processors is
        // mapped onto a balanced 3x2 (or 2x3) factorisation.
        let d = Distribution::new(
            DistType::blocks2d(),
            IndexDomain::d2(12, 12),
            ProcessorView::linear(6),
        )
        .unwrap();
        check_distribution(&d);
        let sizes: Vec<usize> = d.proc_ids().iter().map(|&p| d.local_size(p)).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 144);
        // Balanced factorisation: every processor gets the same share here.
        assert!(sizes.iter().all(|&s| s == 24));
        assert_eq!(factor_grid(6, 2).iter().product::<usize>(), 6);
        assert_eq!(factor_grid(16, 2), vec![4, 4]);
        assert_eq!(factor_grid(8, 3).iter().product::<usize>(), 8);
        assert_eq!(factor_grid(1, 2), vec![1, 1]);
        assert_eq!(factor_grid(7, 2), vec![7, 1]);
    }

    #[test]
    fn gen_block_matches_bounds() {
        // DISTRIBUTE FIELD :: B_BLOCK(BOUNDS) from Figure 2.
        let d = Distribution::new(
            DistType::gen_block1d(vec![5, 1, 3, 1]),
            IndexDomain::d1(10),
            ProcessorView::linear(4),
        )
        .unwrap();
        check_distribution(&d);
        assert_eq!(d.local_size(ProcId(0)), 5);
        assert_eq!(d.local_size(ProcId(1)), 1);
        assert_eq!(d.owner(&Point::d1(6)).unwrap(), ProcId(1));
        assert_eq!(d.owner(&Point::d1(7)).unwrap(), ProcId(2));
        // Invalid bounds are rejected.
        assert!(Distribution::new(
            DistType::gen_block1d(vec![5, 1]),
            IndexDomain::d1(10),
            ProcessorView::linear(4)
        )
        .is_err());
    }

    #[test]
    fn replicated_distribution() {
        let d = Distribution::new(
            DistType::new(vec![DimDist::NotDistributed]),
            IndexDomain::d1(6),
            ProcessorView::linear(3),
        )
        .unwrap();
        assert!(d.is_replicated());
        assert_eq!(d.owners(&Point::d1(2)).unwrap().len(), 3);
        for p in 0..3 {
            assert_eq!(d.local_size(ProcId(p)), 6);
            assert!(d.is_local(ProcId(p), &Point::d1(4)));
            assert_eq!(d.loc_map(ProcId(p), &Point::d1(4)).unwrap(), 3);
        }
    }

    #[test]
    fn construct_identity_alignment_shares_mapping() {
        // CONNECT A2(I,J) WITH B4(I,J): same distribution type (Example 2).
        let base = Distribution::new(
            DistType::new(vec![DimDist::Block, DimDist::Cyclic(3)]),
            IndexDomain::d2(10, 10),
            ProcessorView::grid2d(2, 2),
        )
        .unwrap();
        let derived = construct(&Alignment::identity(2), &base, &IndexDomain::d2(10, 10)).unwrap();
        assert!(!derived.uses_translation_table());
        assert_eq!(derived.dist_type(), base.dist_type());
        assert!(derived.same_mapping(&base));
        check_distribution(&derived);
    }

    #[test]
    fn construct_transpose_alignment() {
        // ALIGN D(I,J) WITH C(J,I) over a non-square processor grid: the
        // derived distribution must place D(i,j) with C(j,i).
        let base = Distribution::new(
            DistType::new(vec![DimDist::Block, DimDist::Cyclic(1)]),
            IndexDomain::d2(6, 6),
            ProcessorView::grid2d(2, 3),
        )
        .unwrap();
        let align = Alignment::transpose2d();
        let derived = construct(&align, &base, &IndexDomain::d2(6, 6)).unwrap();
        assert!(!derived.uses_translation_table());
        check_distribution(&derived);
        for i in 1..=6i64 {
            for j in 1..=6i64 {
                assert_eq!(
                    derived.owner(&Point::d2(i, j)).unwrap(),
                    base.owner(&Point::d2(j, i)).unwrap(),
                    "D({i},{j}) must live with C({j},{i})"
                );
            }
        }
    }

    #[test]
    fn same_mapping_sees_the_processor_grid_mapping() {
        // (BLOCK, BLOCK) derived through a transpose has the plain
        // distribution's type, domain and processors but maps the array
        // dimensions to the other grid dimensions: not the same mapping.
        let plain = Distribution::new(
            DistType::blocks2d(),
            IndexDomain::d2(8, 8),
            ProcessorView::grid2d(2, 2),
        )
        .unwrap();
        let derived = construct(&Alignment::transpose2d(), &plain, &IndexDomain::d2(8, 8)).unwrap();
        assert_eq!(derived.dist_type(), plain.dist_type());
        assert_ne!(derived, plain);
        assert!(!derived.same_mapping(&plain));
        assert!(derived.same_mapping(&derived.clone()));
    }

    #[test]
    fn estimated_bytes_charge_translation_tables() {
        // A regular distribution is a few dozen bytes; an
        // alignment-derived one of the same size carries O(N) translation
        // tables and must be estimated accordingly (the runtime's plan
        // cache budgets by this).
        let n = 4096usize;
        let base = block_1d(n + 8, 4);
        let regular = block_1d(n, 4);
        let align = Alignment::new(1, vec![crate::AlignExpr::shifted(0, 4)]).unwrap();
        let aligned = construct(&align, &base, &IndexDomain::d1(n)).unwrap();
        assert!(aligned.uses_translation_table());
        // Three O(N) tables of >= 8 bytes per element each.
        assert!(aligned.estimated_bytes() >= 3 * n * 8);
        assert!(regular.estimated_bytes() < 1024);
    }

    #[test]
    fn construct_shifted_alignment_uses_translation_table() {
        let base = block_1d(12, 3);
        let align = Alignment::new(1, vec![crate::AlignExpr::shifted(0, 2)]).unwrap();
        let derived = construct(&align, &base, &IndexDomain::d1(10)).unwrap();
        assert!(derived.uses_translation_table());
        check_distribution(&derived);
        for i in 1..=10i64 {
            assert_eq!(
                derived.owner(&Point::d1(i)).unwrap(),
                base.owner(&Point::d1(i + 2)).unwrap()
            );
        }
        // Out-of-domain alignments are rejected.
        let bad = Alignment::new(1, vec![crate::AlignExpr::shifted(0, 5)]).unwrap();
        assert!(construct(&bad, &base, &IndexDomain::d1(10)).is_err());
    }

    #[test]
    fn owner_fn_distribution() {
        // A user-defined irregular distribution: odd elements on P0, even on P1.
        let procs = ProcessorView::linear(2);
        let d = Distribution::from_owner_fn(DistType::block1d(), IndexDomain::d1(9), procs, |p| {
            ProcId((p.coord(0) % 2 == 0) as usize)
        })
        .unwrap();
        check_distribution(&d);
        assert_eq!(d.local_size(ProcId(0)), 5);
        assert_eq!(d.local_size(ProcId(1)), 4);
        assert!(d.local_segment(ProcId(0)).is_none());
    }

    /// The locator and the run iteration must agree exactly with the
    /// element-wise owner/loc_map API.
    fn check_locator_and_runs(dist: &Distribution) {
        let locator = dist.locator();
        for (lin, point) in dist.domain().clone().iter().enumerate() {
            assert_eq!(dist.domain().linearize(&point).unwrap(), lin);
            let owner = dist.owner(&point).unwrap();
            let local = dist.loc_map(owner, &point).unwrap();
            assert_eq!(locator.locate_lin(lin), (owner, local), "lin {lin}");
            assert_eq!(locator.locate(&point).unwrap(), (owner, local));
        }
        check_stretches(dist);
        for &p in dist.proc_ids() {
            let runs = dist.local_linear_runs(p);
            // Runs cover the local storage in order, exactly once.
            let total: usize = runs.iter().map(|r| r.len).sum();
            assert_eq!(total, dist.local_size(p), "coverage on {p}");
            let mut expected_local = 0usize;
            for (i, run) in runs.iter().enumerate() {
                assert_eq!(run.local_start, expected_local);
                expected_local += run.len;
                if let Some(prev) = i.checked_sub(1).map(|i| &runs[i]) {
                    assert_ne!(
                        prev.global_start + prev.len,
                        run.global_start,
                        "runs {} and {i} on {p} should have been one",
                        i - 1
                    );
                }
                for k in 0..run.len {
                    let point = dist.global_at(p, run.local_start + k).unwrap();
                    assert_eq!(
                        dist.domain().linearize(&point).unwrap(),
                        run.global_start + k,
                        "run element {k} on {p}"
                    );
                }
            }
        }
    }

    /// Every stretch [`Locator::locate_stretch`] answers is one owner at
    /// consecutive local offsets, bounded by `max`, and walking the array
    /// stretch by stretch visits every offset once.
    fn check_stretches(dist: &Distribution) {
        let locator = dist.locator();
        let size = dist.domain().size();
        for max in [1, 2, 5, usize::MAX] {
            let mut lin = 0;
            while lin < size {
                let (owner, local, len) = locator.locate_stretch(lin, max);
                assert!(
                    (1..=max).contains(&len),
                    "stretch {len} at {lin}, max {max}"
                );
                assert!(lin + len <= size, "stretch runs past the array at {lin}");
                for k in 0..len {
                    assert_eq!(locator.locate_lin(lin + k), (owner, local + k), "{lin}+{k}");
                }
                lin += len;
            }
        }
    }

    #[test]
    fn cyclic_runs_are_one_per_owned_block_and_match_the_element_walk() {
        let cases = [
            // (dim 0, extent 0, dim 1, extent 1, processors)
            (DimDist::Cyclic(1), 10, DimDist::NotDistributed, 1, 3),
            (DimDist::Cyclic(1), 7, DimDist::NotDistributed, 4, 4),
            (DimDist::Cyclic(3), 20, DimDist::NotDistributed, 3, 4),
            (DimDist::Cyclic(3), 23, DimDist::Block, 5, 2),
            (DimDist::Cyclic(2), 9, DimDist::Cyclic(2), 7, 3),
            // k >= extent: one processor owns the whole column.
            (DimDist::Cyclic(8), 8, DimDist::NotDistributed, 3, 3),
            (DimDist::Cyclic(12), 5, DimDist::NotDistributed, 2, 4),
            // More processors than elements: some own nothing.
            (DimDist::Cyclic(1), 3, DimDist::NotDistributed, 2, 5),
            (DimDist::Cyclic(2), 5, DimDist::NotDistributed, 1, 6),
            (DimDist::Cyclic(1), 6, DimDist::NotDistributed, 2, 1),
        ];
        for (d0, n0, d1, n1, p) in cases {
            let procs = if d1.is_distributed() {
                ProcessorView::grid2d(p, 2)
            } else {
                ProcessorView::linear(p)
            };
            let dist = Distribution::new(
                DistType::new(vec![d0.clone(), d1]),
                IndexDomain::d2(n0, n1),
                procs,
            )
            .unwrap();
            // The runs against the element walk: maximal, in local order,
            // each element at its `global_at` offset.
            check_locator_and_runs(&dist);
            for &q in dist.proc_ids() {
                let owns_nothing = dist.local_size(q) == 0;
                assert_eq!(
                    dist.local_linear_runs(q).is_empty(),
                    owns_nothing,
                    "{dist} on {q}"
                );
            }
            // A 1-D cyclic layout over several processors: exactly one run
            // per owned block of k.
            if let (DimDist::Cyclic(k), 1) = (&d0, n1) {
                let nprocs = dist.num_procs();
                for (c, &q) in dist.proc_ids().iter().enumerate() {
                    let blocks = (0..n0).step_by(*k).skip(c).step_by(nprocs).count();
                    let expected = if nprocs == 1 { blocks.min(1) } else { blocks };
                    assert_eq!(dist.local_linear_runs(q).len(), expected, "{dist} on {q}");
                }
            }
        }
    }

    #[test]
    fn stretches_end_where_the_dimension_0_function_says() {
        let dist = |t: DistType, n: usize, m: usize, p: usize| {
            Distribution::new(t, IndexDomain::d2(n, m), ProcessorView::linear(p)).unwrap()
        };
        // (BLOCK, :) on 4: a 16-column splits into four stretches of 4.
        let rows = dist(DistType::rows(), 16, 3, 4);
        assert_eq!(rows.locator().locate_stretch(0, usize::MAX).2, 4);
        assert_eq!(rows.locator().locate_stretch(5, usize::MAX).2, 3);
        assert_eq!(rows.locator().locate_stretch(5, 2).2, 2);
        // (CYCLIC(3), :): to the end of the block of 3, clipped at the column.
        let cyc = dist(
            DistType::new(vec![DimDist::Cyclic(3), DimDist::NotDistributed]),
            10,
            2,
            2,
        );
        assert_eq!(cyc.locator().locate_stretch(0, usize::MAX).2, 3);
        assert_eq!(cyc.locator().locate_stretch(4, usize::MAX).2, 2);
        assert_eq!(cyc.locator().locate_stretch(9, usize::MAX).2, 1);
        // (:, BLOCK): the rest of the column.
        let cols = dist(DistType::columns(), 6, 4, 2);
        assert_eq!(cols.locator().locate_stretch(7, usize::MAX).2, 5);
        // General block with empty blocks: the owner's segment end.
        let gen = Distribution::new(
            DistType::gen_block1d(vec![0, 5, 0, 3]),
            IndexDomain::d1(8),
            ProcessorView::linear(4),
        )
        .unwrap();
        assert_eq!(
            gen.locator().locate_stretch(0, usize::MAX),
            (ProcId(1), 0, 5)
        );
        assert_eq!(
            gen.locator().locate_stretch(6, usize::MAX),
            (ProcId(3), 1, 2)
        );
        // Replicated: the rest of the array is one stretch on the
        // canonical owner.
        let rep = dist(DistType::new(vec![DimDist::NotDistributed; 2]), 4, 4, 3);
        assert_eq!(rep.locator().locate_stretch(3, 100), (ProcId(0), 3, 13));
        assert_eq!(rep.locator().locate_stretch(3, 5), (ProcId(0), 3, 5));
    }

    #[test]
    fn locator_and_runs_match_elementwise_api() {
        let dists = [
            block_1d(10, 3),
            Distribution::new(
                DistType::cyclic1d(3),
                IndexDomain::d1(20),
                ProcessorView::linear(4),
            )
            .unwrap(),
            Distribution::new(
                DistType::columns(),
                IndexDomain::d2(6, 8),
                ProcessorView::linear(4),
            )
            .unwrap(),
            Distribution::new(
                DistType::rows(),
                IndexDomain::d2(6, 8),
                ProcessorView::linear(3),
            )
            .unwrap(),
            Distribution::new(
                DistType::new(vec![DimDist::Block, DimDist::Cyclic(2)]),
                IndexDomain::d2(9, 7),
                ProcessorView::grid2d(2, 3),
            )
            .unwrap(),
            Distribution::new(
                DistType::gen_block1d(vec![0, 7, 1, 4]),
                IndexDomain::d1(12),
                ProcessorView::linear(4),
            )
            .unwrap(),
            Distribution::new(
                DistType::new(vec![DimDist::NotDistributed]),
                IndexDomain::d1(6),
                ProcessorView::linear(3),
            )
            .unwrap(),
            Distribution::from_owner_fn(
                DistType::block1d(),
                IndexDomain::d1(9),
                ProcessorView::linear(2),
                |p| ProcId((p.coord(0) % 2 == 0) as usize),
            )
            .unwrap(),
            Distribution::new(
                DistType::indirect1d(std::sync::Arc::new(
                    crate::IndirectMap::new(vec![3, 0, 0, 2, 1, 1, 0, 3, 2, 0, 1, 2]).unwrap(),
                )),
                IndexDomain::d1(12),
                ProcessorView::linear(4),
            )
            .unwrap(),
        ];
        for dist in &dists {
            check_locator_and_runs(dist);
        }
    }

    #[test]
    fn indirect_distribution_consistency_and_coalescing() {
        // An INDIRECT map placing interleaved *runs* of elements: the
        // distribution machinery must agree with the map element-wise, and
        // local_linear_runs must coalesce the consecutive same-owner
        // stretches into one run each.
        let owners = vec![0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1];
        let map = std::sync::Arc::new(crate::IndirectMap::new(owners.clone()).unwrap());
        let d = Distribution::new(
            DistType::indirect1d(std::sync::Arc::clone(&map)),
            IndexDomain::d1(12),
            ProcessorView::linear(2),
        )
        .unwrap();
        check_distribution(&d);
        for (i, &o) in owners.iter().enumerate() {
            assert_eq!(d.owner(&Point::d1(i as i64 + 1)).unwrap(), ProcId(o));
        }
        // P0 owns offsets 0..3 and 6..8 -> 2 runs; P1 owns 3..6 and 8..12.
        assert_eq!(d.local_linear_runs(ProcId(0)).len(), 2);
        assert_eq!(d.local_linear_runs(ProcId(1)).len(), 2);
        // Scattered owner sets have no contiguous segment descriptor.
        assert!(d.local_segment(ProcId(0)).is_none());
        // Fingerprints distinguish maps and repeat deterministically.
        let same = Distribution::new(
            DistType::indirect1d(std::sync::Arc::new(
                crate::IndirectMap::new(owners).unwrap(),
            )),
            IndexDomain::d1(12),
            ProcessorView::linear(2),
        )
        .unwrap();
        assert_eq!(d.fingerprint(), same.fingerprint());
        let flipped = Distribution::new(
            DistType::indirect1d(std::sync::Arc::new(
                crate::IndirectMap::new(vec![1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0]).unwrap(),
            )),
            IndexDomain::d1(12),
            ProcessorView::linear(2),
        )
        .unwrap();
        assert_ne!(d.fingerprint(), flipped.fingerprint());
        // The O(N) mapping tables are charged to the byte estimate.
        assert!(d.estimated_bytes() >= 12 * 8);
        // An invalid map (wrong length / owner out of range) is rejected at
        // Distribution::new time.
        assert!(Distribution::new(
            DistType::indirect1d(std::sync::Arc::clone(&map)),
            IndexDomain::d1(11),
            ProcessorView::linear(2)
        )
        .is_err());
        assert!(Distribution::new(
            DistType::indirect1d(map),
            IndexDomain::d1(12),
            ProcessorView::linear(1)
        )
        .is_err());
    }

    #[test]
    fn block_runs_are_maximally_merged() {
        // (:, BLOCK) columns: each processor's storage is one contiguous
        // global slab -> exactly one run.
        let d = Distribution::new(
            DistType::columns(),
            IndexDomain::d2(8, 8),
            ProcessorView::linear(4),
        )
        .unwrap();
        for &p in d.proc_ids() {
            assert_eq!(d.local_linear_runs(p).len(), 1, "columns on {p}");
        }
        // (BLOCK, :) rows: one run per column of the local block.
        let d = Distribution::new(
            DistType::rows(),
            IndexDomain::d2(8, 8),
            ProcessorView::linear(4),
        )
        .unwrap();
        for &p in d.proc_ids() {
            assert_eq!(d.local_linear_runs(p).len(), 8, "rows on {p}");
        }
    }

    #[test]
    fn fingerprints_identify_mappings() {
        let a = block_1d(16, 4);
        let b = block_1d(16, 4);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different type, domain, or processor count all change the
        // fingerprint.
        assert_ne!(
            a.fingerprint(),
            Distribution::new(
                DistType::cyclic1d(1),
                IndexDomain::d1(16),
                ProcessorView::linear(4)
            )
            .unwrap()
            .fingerprint()
        );
        assert_ne!(a.fingerprint(), block_1d(17, 4).fingerprint());
        assert_ne!(a.fingerprint(), block_1d(16, 2).fingerprint());
        // Different gen-block bounds differ too (Figure 2 rebalancing).
        let g1 = Distribution::new(
            DistType::gen_block1d(vec![8, 8]),
            IndexDomain::d1(16),
            ProcessorView::linear(2),
        )
        .unwrap();
        let g2 = Distribution::new(
            DistType::gen_block1d(vec![4, 12]),
            IndexDomain::d1(16),
            ProcessorView::linear(2),
        )
        .unwrap();
        assert_ne!(g1.fingerprint(), g2.fingerprint());
    }

    #[test]
    fn pattern_matches_distribution_type() {
        let d = Distribution::new(
            DistType::columns(),
            IndexDomain::d2(8, 8),
            ProcessorView::linear(4),
        )
        .unwrap();
        let q = crate::DistPattern::dims(vec![DimPattern::NotDistributed, DimPattern::Block]);
        assert!(q.matches(d.dist_type()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_regular_distributions_are_consistent(
            n1 in 1usize..20,
            n2 in 1usize..20,
            rows in 1usize..4,
            cols in 1usize..4,
            kind in 0usize..4,
            k in 1usize..4,
        ) {
            let dim0 = match kind {
                0 => DimDist::Block,
                1 => DimDist::Cyclic(k),
                2 => DimDist::NotDistributed,
                _ => DimDist::Block,
            };
            let dim1 = match kind {
                0 => DimDist::Cyclic(k),
                1 => DimDist::Block,
                2 => DimDist::Block,
                _ => DimDist::NotDistributed,
            };
            let ddims = [&dim0, &dim1].iter().filter(|d| d.is_distributed()).count();
            let procs = if ddims == 2 {
                ProcessorView::grid2d(rows, cols)
            } else {
                ProcessorView::linear(rows * cols)
            };
            let dist = Distribution::new(
                DistType::new(vec![dim0, dim1]),
                IndexDomain::d2(n1, n2),
                procs,
            ).unwrap();
            check_distribution(&dist);
        }

        #[test]
        fn prop_gen_block_consistent(sizes in proptest::collection::vec(0usize..8, 1..6)) {
            let n: usize = sizes.iter().sum();
            prop_assume!(n > 0);
            let p = sizes.len();
            let dist = Distribution::new(
                DistType::gen_block1d(sizes),
                IndexDomain::d1(n),
                ProcessorView::linear(p),
            ).unwrap();
            check_distribution(&dist);
        }
    }
}
