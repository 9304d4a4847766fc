//! The unified communication-plan layer of the Vienna Fortran Engine.
//!
//! The paper's §3.2 lists the VFE's data-organisation features — the
//! executable `DISTRIBUTE` statement (§3.2.2), overlap-area maintenance for
//! regular stencils, and "the implementation of irregular accesses via
//! translation tables and sophisticated buffering schemes … as implemented
//! in the PARTI routines" (Saltz et al.).  All three reduce to the same
//! primitive: a *communication schedule* describing, for every
//! (sender → receiver) pair, which elements move.  This module materialises
//! that primitive once, as [`CommPlan`], and the three communication paths
//! ([`crate::redistribute`], [`crate::ghost`], [`crate::parti`]) all build
//! and execute their traffic through it:
//!
//! * a plan stores per-pair [`Transfer`]s as **run-length-encoded**
//!   [`PlanRun`]s of contiguous local offsets (`BLOCK`-family layouts
//!   collapse to a handful of runs per pair, instead of the per-point hash
//!   maps the paths previously rebuilt on every call);
//! * planning is separated from execution, exactly as in PARTI's
//!   inspector/executor split: [`plan_redistribute`], [`plan_ghost`]
//!   and the gather / scatter planners behind [`crate::parti::inspector`]
//!   and [`crate::parti::execute_scatter`] are the inspectors, the
//!   `execute_*`/`exchange_*` functions of the client modules are the
//!   executors (a single pass over the runs with one aggregated
//!   [`CommTracker`] charge per message);
//! * plans are cached in a [`PlanCache`] keyed by the *structural
//!   fingerprints* of the distributions involved
//!   ([`vf_dist::Distribution::fingerprint`]), so iterative codes — the ADI
//!   sweeps of Figure 1, smoothing steps, PIC time steps — pay the
//!   inspector cost once and reuse the schedule while the distribution is
//!   unchanged, which is precisely the schedule reuse the paper cites the
//!   PARTI routines for.  A changed distribution changes the fingerprint
//!   and therefore the key: stale plans are never returned, and execution
//!   re-validates the distribution fingerprint as a second line of
//!   defence.  Gather/scatter keys additionally hash the access list;
//!   like the fingerprint itself, a 64-bit hash collision (~2⁻⁶⁴ per
//!   pair) would silently reuse the colliding pattern's plan — the
//!   accepted price of O(1) keys, as documented on
//!   [`vf_dist::Distribution::fingerprint`];
//! * the store belongs to the [`Machine`] ([`PlanCache::of`]): every
//!   application run and every `VfScope` on one machine (and its clones)
//!   shares it, so a second run of the same program plans nothing.  The
//!   translation tables the planners resolve `INDIRECT` ownership through
//!   are entries of the same store, under the same byte budget and LRU.

use crate::translation::{self, DistTranslationTable, TranslationStats};
use crate::{Result, RuntimeError};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};
use vf_dist::{Connectivity, Distribution, Locator, ProcId};
use vf_index::{DimRange, IndexDomain, Point};
use vf_machine::{trace, CommTracker, Machine};

/// Session-local translation-table state of one planning run: which pages
/// each requester has fetched *during this session*, the lookup counters,
/// and the page-fetch messages generated.
struct TableSession {
    table: Arc<DistTranslationTable>,
    /// `seen[requester][page]`: fetched (or home) during this session.
    seen: Vec<Vec<bool>>,
    stats: TranslationStats,
    /// Page-fetch messages `(home, requester, bytes)` of this session.
    fetches: Vec<(usize, usize, usize)>,
}

/// How a planner resolves global offsets to `(owner, local offset)`.
///
/// Regular distributions resolve in closed form through a
/// [`vf_dist::Locator`].  `INDIRECT` distributions have no closed form —
/// their ownership lives in a mapping array too large to replicate — so
/// they resolve through the distributed translation table
/// ([`crate::translation`]): each lookup is made *on behalf of* the
/// requesting processor, walking that processor's cached-page path and
/// recording the directory page fetches a real PARTI run would perform.
/// Both paths return identical results; only the modelled directory
/// traffic differs.
///
/// The page-cache warmth is **session-local** (this resolver's `seen`
/// table, no locks on the per-element path): independent plannings of the
/// same distribution each model a cold directory, and the session's fetch
/// messages are handed to the built [`CommPlan`] by
/// [`OwnerResolver::finish`], to be charged once at the plan's first
/// execution.  The table itself comes from the [`PlanCache`] the planner
/// runs for.
enum OwnerResolver<'a> {
    Direct(Locator<'a>),
    Table(Box<TableSession>),
}

impl<'a> OwnerResolver<'a> {
    fn for_dist(dist: &'a Distribution, store: &PlanCache) -> Self {
        if dist.dist_type().has_indirect() {
            let table = store.table(dist);
            let total_procs = dist.procs().array().num_procs();
            let num_pages = table.num_pages();
            OwnerResolver::Table(Box::new(TableSession {
                table,
                seen: vec![vec![false; num_pages]; total_procs],
                stats: TranslationStats::default(),
                fetches: Vec::new(),
            }))
        } else {
            OwnerResolver::Direct(dist.locator())
        }
    }

    /// Owner and owner-local offset of global offset `lin`, resolved on
    /// behalf of `requester`.
    fn locate_from(&mut self, requester: ProcId, lin: usize) -> (ProcId, usize) {
        match self {
            OwnerResolver::Direct(locator) => locator.locate_lin(lin),
            OwnerResolver::Table(session) => {
                let table = &session.table;
                let page = table.page_of(lin);
                let seen = &mut session.seen[requester.0];
                if seen[page] {
                    if table.home_of_page(page) == requester {
                        session.stats.home_hits += 1;
                    } else {
                        session.stats.cache_hits += 1;
                    }
                } else {
                    seen[page] = true;
                    if table.home_of_page(page) == requester {
                        session.stats.home_hits += 1;
                    } else {
                        let bytes = table.page_bytes(page);
                        session.stats.page_fetches += 1;
                        session.stats.fetched_bytes += bytes;
                        session
                            .fetches
                            .push((table.home_of_page(page).0, requester.0, bytes));
                    }
                }
                table.lookup(lin)
            }
        }
    }

    /// Ends the session: adds its lookup counters to `counters` and
    /// returns the directory page-fetch messages for the built plan to
    /// carry.
    fn finish(self, counters: &mut TranslationStats) -> Vec<(usize, usize, usize)> {
        match self {
            OwnerResolver::Direct(_) => Vec::new(),
            OwnerResolver::Table(session) => {
                *counters += session.stats;
                session.fetches
            }
        }
    }
}

/// One run-length-encoded transfer segment: `len` elements read from
/// contiguous source offsets `src_start..src_start+len` and written to
/// contiguous destination offsets `dst_start..dst_start+len`.
///
/// The meaning of the offsets depends on the plan kind: sender-local /
/// receiver-local storage offsets for redistribution, sender-local storage
/// offsets / ghost-buffer slots for overlap exchange, owner-local storage
/// offsets / gather-buffer slots for PARTI gathers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanRun {
    /// First source offset of the run.
    pub src_start: usize,
    /// First destination offset of the run.
    pub dst_start: usize,
    /// Number of elements in the run.
    pub len: usize,
}

/// All traffic from one sender to one receiver: the element count and the
/// run list.  `src == dst` transfers are local copies and are never charged
/// to the cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Sending processor.
    pub src: ProcId,
    /// Receiving processor.
    pub dst: ProcId,
    /// Total elements moved by this transfer.
    pub elements: usize,
    /// The run-length-encoded element list.
    pub runs: Vec<PlanRun>,
}

/// What a communication plan describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Data motion of the executable `DISTRIBUTE` statement (§3.2.2).
    Redistribute,
    /// Overlap-area (ghost) exchange for regular stencils (§3.1/§3.2).
    Ghost,
    /// PARTI-style gather of scheduled non-local reads (§3.2, item 1).
    Gather,
    /// PARTI-style scatter of non-local updates (§3.2, item 1).
    Scatter,
}

/// One processor's rows of an irregular halo plan's connectivity,
/// *localised* by the inspector — PARTI's localisation of the indirection
/// arrays.  The processor's local index space is its buffer followed by a
/// **ghost suffix**: local index `l < n_local` is its own local offset `l`
/// (in [`Distribution::local_linear_runs`] order), and `n_local + s` is
/// ghost slot `s`, the copy of global offset `ghosts[s]` an exchange
/// fetches.  Every neighbour reference is such an index, so a sweep over
/// `[local | ghosts]` ([`crate::ghost::GhostRegion::extended`]) needs no
/// ownership test, hash or global index.  Indices are `u32`, as in
/// [`Connectivity`], which bounds every one of them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalisedConnectivity {
    /// Global column-major offsets of the ghost suffix, ascending: a
    /// slot is its rank in the list.
    pub ghosts: Vec<usize>,
    /// CSR row pointers over the owned elements in local order:
    /// `n_local + 1` entries (none for a processor outside the view).
    pub xadj: Vec<u32>,
    /// CSR adjacency in local indices; each row keeps the neighbour order
    /// of the global row, so a sum over it is the sequential sum.
    pub adjncy: Vec<u32>,
    /// Rows (local offsets) whose neighbours are all owned, ascending —
    /// computable before the ghosts arrive.
    pub interior: Vec<u32>,
    /// Rows that read at least one ghost, ascending.
    pub boundary: Vec<u32>,
}

impl LocalisedConnectivity {
    /// Number of rows: the processor's owned elements.
    pub(crate) fn rows(&self) -> usize {
        self.xadj.len().saturating_sub(1)
    }
}

/// Per-receiver slot index of a ghost plan: which buffer slot each global
/// point occupies.  Either way the slots follow ascending global
/// column-major order.
#[derive(Debug)]
pub(crate) enum GhostSlots {
    /// A regular plan's overlap area: the frame `extended \ segment`, where
    /// `extended` is the owned `segment` widened by the planned widths and
    /// clipped to the array.  A point's slot is arithmetic on the two boxes
    /// ([`frame_slot`]) — nothing is stored per point.
    Frame {
        /// The processor's owned box (possibly empty).
        segment: IndexDomain,
        /// The owned box plus its overlap area.
        extended: IndexDomain,
    },
    /// An irregular (connectivity-driven) plan, or a processor outside the
    /// view: the scheduled global offsets, listed, with the connectivity
    /// localised against them.  A point's slot is a binary search for its
    /// offset in `domain`.
    Listed {
        /// The array's index domain.
        domain: IndexDomain,
        /// The ghost list and the localised rows.
        local: Box<LocalisedConnectivity>,
    },
}

impl GhostSlots {
    /// Number of ghost slots.
    pub(crate) fn len(&self) -> usize {
        match self {
            GhostSlots::Frame { segment, extended } => extended.size() - segment.size(),
            GhostSlots::Listed { local, .. } => local.ghosts.len(),
        }
    }

    fn slot(&self, point: &Point) -> Option<usize> {
        match self {
            GhostSlots::Frame { segment, extended } => frame_slot(segment, extended, point),
            GhostSlots::Listed { domain, local } => {
                let lin = domain.linearize(point).ok()?;
                local.ghosts.binary_search(&lin).ok()
            }
        }
    }

    /// An empty list over `domain`: a processor that reads nothing.
    fn nothing(domain: &IndexDomain) -> Self {
        GhostSlots::Listed {
            domain: domain.clone(),
            local: Box::default(),
        }
    }
}

/// The slot of `point` in the frame `extended \ segment` numbered in
/// column-major order: its column-major rank in `extended` minus the owned
/// points that precede it there.  The owned predecessors are counted from
/// the highest dimension down — every owned point whose coordinate in `d`
/// is smaller (the higher coordinates being equal) precedes `point`, and
/// the count stops at the first dimension in which `point` leaves the
/// owned range.
fn frame_slot(segment: &IndexDomain, extended: &IndexDomain, point: &Point) -> Option<usize> {
    if segment.contains(point) {
        return None;
    }
    let rank = extended.linearize(point).ok()?;
    let mut stride = segment.size();
    let mut owned_before = 0usize;
    for d in (0..segment.rank()).rev() {
        let range = segment.dim(d);
        stride /= range.len().max(1);
        let below = (point.coord(d) - range.lower()).clamp(0, range.len() as i64);
        owned_before += below as usize * stride;
        if !range.contains(point.coord(d)) {
            break;
        }
    }
    Some(rank - owned_before)
}

/// Calls `visit(origin, inside)` for every dimension-0 line of `extended`
/// in column-major order: `origin` is the line's first point and `inside`
/// says whether the line crosses `segment` (its higher coordinates are all
/// owned), in which case only its two ends belong to the frame.  This is
/// the order ghost slots are numbered in, so the planner and
/// [`crate::ghost::GhostRegion::extended`] both walk it.
pub(crate) fn for_each_line(
    segment: &IndexDomain,
    extended: &IndexDomain,
    mut visit: impl FnMut(&Point, bool),
) {
    if extended.is_empty() {
        return;
    }
    let line_len = extended.extent(0);
    for first in (0..extended.size()).step_by(line_len) {
        let origin = extended.delinearize(first).expect("offset within the box");
        let inside = (1..extended.rank()).all(|d| segment.dim(d).contains(origin.coord(d)));
        visit(&origin, inside);
    }
}

/// Per-requester slot index of a gather plan.
#[derive(Debug)]
pub(crate) struct GatherSlots {
    pub(crate) slot_of_lin: HashMap<usize, usize>,
    pub(crate) count: usize,
}

/// One scatter update resolved against the distribution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScatterOp {
    pub(crate) owner: ProcId,
    pub(crate) local: usize,
}

/// Kind-specific companion data of a plan.
#[derive(Debug)]
pub(crate) enum PlanIndex {
    Redistribute {
        /// The target distribution (used to size the new local buffers).
        new_dist: Distribution,
    },
    /// Overlap exchange.  A regular plan keeps two boxes per processor
    /// and the planned widths; only an irregular plan lists its points
    /// (and its localised connectivity).
    Ghost {
        /// Per total-processor-id ghost slot index.
        slots: Vec<GhostSlots>,
        /// The planned `(below, above)` widths per dimension (empty for an
        /// irregular plan, which has no geometric width).
        widths: Vec<(usize, usize)>,
    },
    Gather {
        /// Per total-processor-id gather slot index.
        slots: Vec<GatherSlots>,
    },
    Scatter {
        /// One op per planned update, in the order the updates were given.
        ops: Vec<ScatterOp>,
        /// Whether the target array is replicated (updates touch all
        /// copies).
        replicated: bool,
    },
}

/// A communication plan: the run-length-encoded schedule of one
/// redistribution, ghost exchange, gather or scatter, independent of the
/// element type.  Built once by a planner, executed any number of times
/// while the involved distributions are unchanged (validated through their
/// fingerprints).
#[derive(Debug)]
pub struct CommPlan {
    kind: PlanKind,
    /// Fingerprint of the distribution the data currently lives in.
    src_fingerprint: u64,
    /// Fingerprint of the target distribution (redistribution) or of the
    /// source distribution again (ghost/gather/scatter).  Read only by
    /// `Debug`; it stays so that `size_of::<CommPlan>()`, and with it the
    /// exact `plan.cache_bytes` count of the benchmark, does not move.
    #[allow(dead_code)]
    dst_fingerprint: u64,
    /// Total processors of the declaring processor array (sizes the
    /// per-processor vectors of executors).
    total_procs: usize,
    /// Highest processor id touched plus one (tracker validation).
    needed_procs: usize,
    transfers: Vec<Transfer>,
    moved_elements: usize,
    stayed_elements: usize,
    /// Translation-table page-fetch messages `(home, requester, bytes)`
    /// generated while inspecting an indirect distribution; drained and
    /// charged at the plan's first execution ([`CommPlan::charge`] or an
    /// executor), so cached re-executions generate no directory traffic.
    directory: Mutex<Vec<(usize, usize, usize)>>,
    pub(crate) index: PlanIndex,
}

impl CommPlan {
    /// What the plan describes.
    pub fn kind(&self) -> PlanKind {
        self.kind
    }

    /// Fingerprint of the distribution the data must currently live in for
    /// the plan to be executable.
    pub(crate) fn src_fingerprint(&self) -> u64 {
        self.src_fingerprint
    }

    /// The per-pair transfers, local copies included.
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// Number of aggregated messages the plan generates when executed
    /// (transfers that cross processors and carry at least one element).
    pub fn num_messages(&self) -> usize {
        self.transfers
            .iter()
            .filter(|t| t.src != t.dst && t.elements > 0)
            .count()
    }

    /// Elements that cross processors when the plan executes.
    pub fn moved_elements(&self) -> usize {
        self.moved_elements
    }

    /// Elements that stay on their processor (redistribution only; zero for
    /// the other kinds).
    pub fn stayed_elements(&self) -> usize {
        self.stayed_elements
    }

    /// Directory page-fetch messages still pending on this plan, as
    /// `(messages, bytes)` — non-zero only for a plan inspected against an
    /// indirect distribution that has not executed yet.
    pub fn pending_directory_traffic(&self) -> (usize, usize) {
        let dir = self
            .directory
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        (dir.len(), dir.iter().map(|m| m.2).sum())
    }

    /// Drains the pending directory messages (first call wins; later calls
    /// and cached re-executions get nothing).
    pub(crate) fn take_directory_messages(&self) -> Vec<(usize, usize, usize)> {
        std::mem::take(
            &mut *self
                .directory
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Charges any pending directory messages to `tracker` (blocking
    /// sends: the inspector's page fetches complete before data moves).
    /// Routed through the tracker's page-fetch path so an armed fault
    /// injector can subject the translation-page traffic to transient
    /// fetch failures (retried with backoff and counted).
    pub(crate) fn charge_directory(&self, tracker: &CommTracker) {
        let dir = self.take_directory_messages();
        if !dir.is_empty() {
            tracker.send_page_fetches(dir);
        }
    }

    /// Bytes that cross processors for an element type of `elem_bytes`
    /// wire bytes.
    pub fn bytes_for(&self, elem_bytes: usize) -> usize {
        self.moved_elements * elem_bytes
    }

    /// Estimated resident size of the plan in bytes — what the plan costs
    /// to *keep*, not to execute.  Block-family schedules are a few runs
    /// per processor pair; strided cyclic targets degrade to one run per
    /// element, so plan sizes differ by orders of magnitude and the
    /// [`PlanCache`] bounds its memory by this estimate rather than by
    /// entry count.
    pub fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        // Per-slot overhead of the offset hash maps of gather plans (key +
        // value + bucket overhead, rounded up).
        const SLOT_BYTES: usize = 64;
        let transfers: usize = self
            .transfers
            .iter()
            .map(|t| size_of::<Transfer>() + t.runs.len() * size_of::<PlanRun>())
            .sum();
        let index = match &self.index {
            // The plan keeps a clone of the target distribution alive;
            // alignment-derived targets carry O(N) translation tables, so
            // their real footprint must count against the cache budget.
            PlanIndex::Redistribute { new_dist } => new_dist.estimated_bytes(),
            PlanIndex::Ghost { slots, .. } => slots
                .iter()
                .map(|s| {
                    size_of::<GhostSlots>()
                        + match s {
                            GhostSlots::Frame { segment, .. } => {
                                2 * segment.rank() * size_of::<DimRange>()
                            }
                            GhostSlots::Listed { local, .. } => {
                                size_of::<LocalisedConnectivity>()
                                    + local.ghosts.len() * size_of::<usize>()
                                    + (local.xadj.len()
                                        + local.adjncy.len()
                                        + local.interior.len()
                                        + local.boundary.len())
                                        * size_of::<u32>()
                            }
                        }
                })
                .sum(),
            PlanIndex::Gather { slots } => slots
                .iter()
                .map(|s| size_of::<GatherSlots>() + s.slot_of_lin.len() * SLOT_BYTES)
                .sum(),
            PlanIndex::Scatter { ops, .. } => ops.len() * size_of::<ScatterOp>(),
        };
        size_of::<CommPlan>() + transfers + index
    }

    /// Total processors of the declaring processor array.
    pub(crate) fn total_procs(&self) -> usize {
        self.total_procs
    }

    /// Validates that the plan applies to data currently distributed as
    /// `dist` and that `tracker` models enough processors.
    pub(crate) fn check_executable(
        &self,
        dist: &Distribution,
        tracker: &CommTracker,
    ) -> Result<()> {
        if dist.fingerprint() != self.src_fingerprint {
            return Err(RuntimeError::PlanMismatch {
                expected: self.src_fingerprint,
                found: dist.fingerprint(),
            });
        }
        if tracker.num_procs() < self.needed_procs {
            return Err(RuntimeError::TrackerMismatch {
                tracker_procs: tracker.num_procs(),
                dist_procs: self.needed_procs,
            });
        }
        Ok(())
    }

    /// The message list the plan charges when executed: one `(src, dst,
    /// bytes)` entry per aggregated crossing transfer (or one per element
    /// when `aggregate` is false — the ablation baseline of experiment E4),
    /// plus the message and byte totals.  Executors post this batch before
    /// running the copies and wait on it afterwards
    /// ([`vf_machine::CommTracker::post_many`] /
    /// [`vf_machine::CommTracker::wait`]).
    pub(crate) fn message_batch(
        &self,
        elem_bytes: usize,
        aggregate: bool,
    ) -> (Vec<(usize, usize, usize)>, usize, usize) {
        // Zero-byte messages are never posted: a transfer only qualifies
        // with at least one element, and elements are at least one byte
        // wide, so the `b > 0` filter is a structural guarantee rather
        // than a behavioural branch.
        let crossing = self
            .transfers
            .iter()
            .filter(|t| t.src != t.dst && t.elements * elem_bytes > 0);
        let mut batch = Vec::new();
        let mut messages = 0usize;
        let mut bytes = 0usize;
        if aggregate {
            for t in crossing {
                let b = t.elements * elem_bytes;
                batch.push((t.src.0, t.dst.0, b));
                messages += 1;
                bytes += b;
            }
        } else {
            for t in crossing {
                for _ in 0..t.elements {
                    batch.push((t.src.0, t.dst.0, elem_bytes));
                }
                messages += t.elements;
                bytes += t.elements * elem_bytes;
            }
        }
        (batch, messages, bytes)
    }

    /// Charges the plan's traffic to `tracker` with one aggregated message
    /// per crossing transfer (or one message per element when `aggregate`
    /// is false — the ablation baseline of experiment E4), in a single
    /// batched lock acquisition.  Returns `(messages, bytes)` charged.
    pub fn charge(
        &self,
        tracker: &CommTracker,
        elem_bytes: usize,
        aggregate: bool,
    ) -> (usize, usize) {
        self.charge_directory(tracker);
        let (batch, messages, bytes) = self.message_batch(elem_bytes, aggregate);
        tracker.send_many(batch);
        (messages, bytes)
    }

    /// The ghost-buffer slot of `point` on `proc`, if the plan schedules it.
    pub(crate) fn ghost_slot(&self, proc: ProcId, point: &Point) -> Option<usize> {
        match &self.index {
            PlanIndex::Ghost { slots, .. } => slots.get(proc.0).and_then(|s| s.slot(point)),
            _ => None,
        }
    }

    /// Why `point` is not in `proc`'s overlap area: the first dimension in
    /// which it lies beyond the extended box, with the width planned on
    /// that side — `(0, 0)` for an irregular plan, which has neither.
    pub(crate) fn ghost_miss(&self, proc: ProcId, point: &Point) -> (usize, usize) {
        if let PlanIndex::Ghost { slots, widths } = &self.index {
            if let Some(GhostSlots::Frame { extended, .. }) = slots.get(proc.0) {
                for (d, (range, &(below, above))) in extended.dims().iter().zip(widths).enumerate()
                {
                    match point.coords().get(d) {
                        Some(&c) if c < range.lower() => return (d, below),
                        Some(&c) if c > range.upper() => return (d, above),
                        _ => {}
                    }
                }
            }
        }
        (0, 0)
    }

    /// Number of ghost slots held for `proc`.
    pub(crate) fn ghost_len(&self, proc: ProcId) -> usize {
        match &self.index {
            PlanIndex::Ghost { slots, .. } => slots.get(proc.0).map_or(0, GhostSlots::len),
            _ => 0,
        }
    }

    /// `proc`'s localised connectivity.  Every processor of an irregular
    /// halo plan ([`plan_ghost_irregular`]) has one; a processor of a
    /// regular plan that owns a box, and every other plan kind, has none.
    pub fn localised(&self, proc: ProcId) -> Option<&LocalisedConnectivity> {
        match &self.index {
            PlanIndex::Ghost { slots, .. } => match slots.get(proc.0)? {
                GhostSlots::Listed { local, .. } => Some(local),
                GhostSlots::Frame { .. } => None,
            },
            _ => None,
        }
    }

    /// The gather-buffer slot of global offset `lin` on `proc`, if
    /// scheduled.
    pub(crate) fn gather_slot(&self, proc: ProcId, lin: usize) -> Option<usize> {
        match &self.index {
            PlanIndex::Gather { slots } => slots
                .get(proc.0)
                .and_then(|s| s.slot_of_lin.get(&lin))
                .copied(),
            _ => None,
        }
    }

    /// Number of gather slots held for `proc`.
    pub(crate) fn gather_len(&self, proc: ProcId) -> usize {
        match &self.index {
            PlanIndex::Gather { slots } => slots.get(proc.0).map(|s| s.count).unwrap_or(0),
            _ => 0,
        }
    }

    /// The owners contacted by `proc`, sorted — the PARTI schedule query.
    #[cfg(test)]
    pub(crate) fn senders_to(&self, proc: ProcId) -> Vec<ProcId> {
        let mut owners: Vec<ProcId> = self
            .transfers
            .iter()
            .filter(|t| t.dst == proc && t.src != proc && t.elements > 0)
            .map(|t| t.src)
            .collect();
        owners.sort_unstable();
        owners.dedup();
        owners
    }
}

/// Incremental builder grouping per-element placements into transfers and
/// run-length-encoding each transfer's element list.
struct PlanBuilder {
    transfers: Vec<Transfer>,
    by_pair: HashMap<(usize, usize), usize>,
    moved: usize,
    stayed: usize,
    needed: usize,
}

impl PlanBuilder {
    fn new() -> Self {
        Self {
            transfers: Vec::new(),
            by_pair: HashMap::new(),
            moved: 0,
            stayed: 0,
            needed: 0,
        }
    }

    /// Adds one element travelling `src[src_off] -> dst[dst_off]`, merging
    /// it into the previous run of the pair when both offsets are
    /// consecutive.
    fn push(&mut self, src: ProcId, dst: ProcId, src_off: usize, dst_off: usize) {
        if src == dst {
            self.stayed += 1;
        } else {
            self.moved += 1;
        }
        self.needed = self.needed.max(src.0 + 1).max(dst.0 + 1);
        let idx = *self.by_pair.entry((src.0, dst.0)).or_insert_with(|| {
            self.transfers.push(Transfer {
                src,
                dst,
                elements: 0,
                runs: Vec::new(),
            });
            self.transfers.len() - 1
        });
        let t = &mut self.transfers[idx];
        t.elements += 1;
        match t.runs.last_mut() {
            Some(run)
                if run.src_start + run.len == src_off && run.dst_start + run.len == dst_off =>
            {
                run.len += 1;
            }
            _ => t.runs.push(PlanRun {
                src_start: src_off,
                dst_start: dst_off,
                len: 1,
            }),
        }
    }
}

/// Plans the data motion of `DISTRIBUTE` from `old` to `new` (paper
/// §3.2.2, step 3): each element of every sender's local storage — walked
/// as contiguous [`vf_dist::LinearRun`]s — is placed at its new owner and
/// new local offset, and the placements are run-length-encoded per
/// (sender, receiver) pair.
pub fn plan_redistribute(old: &Distribution, new: &Distribution) -> Result<CommPlan> {
    plan_redistribute_counted(
        old,
        new,
        &PlanCache::new(),
        &mut TranslationStats::default(),
    )
}

/// [`plan_redistribute`] for `store`: its translation tables come from the
/// store and its directory lookups are added to `counters` (as every
/// `*_counted` planner does for the [`PlanCache`] it runs for).
fn plan_redistribute_counted(
    old: &Distribution,
    new: &Distribution,
    store: &PlanCache,
    counters: &mut TranslationStats,
) -> Result<CommPlan> {
    if new.domain() != old.domain() {
        return Err(RuntimeError::DomainMismatch {
            left: old.domain().to_string(),
            right: new.domain().to_string(),
        });
    }
    let mut resolver = OwnerResolver::for_dist(new, store);
    let mut b = PlanBuilder::new();
    // A replicated source holds one full copy per processor of the view;
    // only the canonical first copy sends (sending from every replica
    // would count every element once per replica and let stale copies
    // overwrite fresh data at the receivers).
    let senders: &[vf_dist::ProcId] = if old.is_replicated() {
        &old.proc_ids()[..1]
    } else {
        old.proc_ids()
    };
    for &p in senders {
        for run in old.local_linear_runs(p) {
            for k in 0..run.len {
                let (q, dst_off) = resolver.locate_from(p, run.global_start + k);
                b.push(p, q, run.local_start + k, dst_off);
            }
        }
    }
    // Receivers that exist in the new distribution but get no elements
    // still constrain the tracker size.
    let needed = b
        .needed
        .max(new.proc_ids().iter().map(|q| q.0 + 1).max().unwrap_or(1))
        .max(old.proc_ids().iter().map(|p| p.0 + 1).max().unwrap_or(1));
    Ok(CommPlan {
        kind: PlanKind::Redistribute,
        src_fingerprint: old.fingerprint(),
        dst_fingerprint: new.fingerprint(),
        total_procs: new.procs().array().num_procs(),
        needed_procs: needed,
        transfers: b.transfers,
        moved_elements: b.moved,
        stayed_elements: b.stayed,
        directory: Mutex::new(resolver.finish(counters)),
        index: PlanIndex::Redistribute {
            new_dist: new.clone(),
        },
    })
}

/// The first dimension of `dist` whose local layout scatters — the
/// dimension a [`RuntimeError::NonContiguousLayout`] names, computed from
/// the actual per-dimension segments ([`Distribution::scattered_dims`]),
/// not from the distribution-function variants (a `CYCLIC(k)` that gives
/// every processor one contiguous block is *not* scattered).
pub(crate) fn non_contiguous_dim(dist: &Distribution) -> usize {
    dist.scattered_dims().first().copied().unwrap_or(0)
}

/// Plans the overlap-area exchange of a stencil that reads up to
/// `widths[d].0` elements below and `widths[d].1` above the owned segment
/// in dimension `d`.
///
/// Every processor must own a contiguous rectangular segment (true for
/// `BLOCK`, general block and `:` dimensions); cyclic and
/// alignment-derived layouts are rejected with
/// [`RuntimeError::NonContiguousLayout`] naming the offending dimension.
/// One-dimensional `INDIRECT` layouts are *not* rejected: their widths
/// describe the implicit ±width chain stencil over global offsets
/// ([`Connectivity::chain`]) and the plan routes to the irregular halo
/// planner [`plan_ghost_irregular`].
pub fn plan_ghost(dist: &Distribution, widths: &[(usize, usize)]) -> Result<CommPlan> {
    plan_ghost_counted(
        dist,
        widths,
        &PlanCache::new(),
        &mut TranslationStats::default(),
    )
}

fn plan_ghost_counted(
    dist: &Distribution,
    widths: &[(usize, usize)],
    store: &PlanCache,
    counters: &mut TranslationStats,
) -> Result<CommPlan> {
    let domain = dist.domain();
    if widths.len() != domain.rank() {
        return Err(RuntimeError::Index(vf_index::IndexError::RankMismatch {
            expected: domain.rank(),
            found: widths.len(),
        }));
    }
    if dist.dist_type().has_indirect() && domain.rank() == 1 {
        let (lo, hi) = widths[0];
        let chain = Connectivity::chain(domain.size(), lo, hi)?;
        return plan_ghost_irregular_counted(dist, &chain, store, counters);
    }
    let total_procs = dist.procs().array().num_procs();
    // Every processor must own one box; the error names the dimension
    // that scatters.  (Checked before anything is resolved, so a layout
    // that cannot be planned never builds a translation table, and a
    // zero-width stencil reports it like any other.)
    let mut segments = Vec::with_capacity(dist.num_procs());
    for &p in dist.proc_ids() {
        let Some(segment) = dist.local_segment(p) else {
            return Err(RuntimeError::NonContiguousLayout {
                array: dist.to_string(),
                dim: non_contiguous_dim(dist),
            });
        };
        segments.push((p, segment));
    }
    let mut resolver = OwnerResolver::for_dist(dist, store);
    let mut slots: Vec<GhostSlots> = (0..total_procs)
        .map(|_| GhostSlots::nothing(domain))
        .collect();
    let mut b = PlanBuilder::new();

    for (p, segment) in segments {
        // The overlap area (§3.1): the segment widened by the stencil
        // widths in every dimension — so corners are included — and
        // clipped to the array.  A processor that owns nothing reads
        // nothing.
        let extended = if segment.is_empty() {
            segment.clone()
        } else {
            let widened = segment.dims().iter().zip(widths).zip(domain.dims());
            let dims = widened.map(|((seg, &(below, above)), dom)| {
                let lower = (seg.lower() - below as i64).max(dom.lower());
                let upper = (seg.upper() + above as i64).min(dom.upper());
                DimRange::new(lower, upper).expect("the segment lies inside the array")
            });
            IndexDomain::new(dims.collect()).expect("rank preserved")
        };
        // Slots are numbered over the frame `extended \ segment` in global
        // column-major order, grouped by owner and run-length-encoded over
        // (owner local, slot).
        let mut slot = 0usize;
        for_each_line(&segment, &extended, |origin, inside| {
            let (first, last) = (origin.coord(0), extended.dim(0).upper());
            let owned = segment.dim(0);
            let ends = [(first, owned.lower() - 1), (owned.upper() + 1, last)];
            let whole = [(first, last)];
            for &(from, to) in if inside { &ends[..] } else { &whole[..] } {
                for i in from..=to {
                    let point = origin.with_coord(0, i);
                    let lin = domain.linearize(&point).expect("frame within the array");
                    let (owner, local) = resolver.locate_from(p, lin);
                    b.push(owner, p, local, slot);
                    slot += 1;
                }
            }
        });
        slots[p.0] = GhostSlots::Frame { segment, extended };
    }

    let fp = dist.fingerprint();
    Ok(CommPlan {
        kind: PlanKind::Ghost,
        src_fingerprint: fp,
        dst_fingerprint: fp,
        total_procs,
        needed_procs: b
            .needed
            .max(dist.proc_ids().iter().map(|p| p.0 + 1).max().unwrap_or(1)),
        transfers: b.transfers,
        moved_elements: b.moved,
        stayed_elements: b.stayed,
        directory: Mutex::new(resolver.finish(counters)),
        index: PlanIndex::Ghost {
            slots,
            widths: widths.to_vec(),
        },
    })
}

/// Plans the irregular (connectivity-driven) overlap exchange — the PARTI
/// *incremental schedule* for distributions with no geometric halo:
/// processor `p`'s ghost set is every global offset referenced (through
/// `conn`) by an element `p` owns but owned elsewhere.
///
/// Ownership is resolved through the [`OwnerResolver`] — the distributed
/// translation table for `INDIRECT` distributions, modelling the directory
/// page fetches a real PARTI inspector performs — while the requester-side
/// membership test ("is this neighbour mine?") is free: each processor
/// knows its own local-to-global table.  The produced plan is an ordinary
/// ghost [`CommPlan`] (slots assigned in ascending global order), so the
/// ghost executors, the [`PlanCache`] and the fused exchange all work on it
/// unchanged.  The same walk over the owned rows also *localises* them:
/// each processor's [`LocalisedConnectivity`] ([`CommPlan::localised`])
/// is what an executor loop sweeps.  Works for regular distributions too
/// (closed-form owner lookup, no directory traffic) — the differential
/// baseline the property suite compares against.
pub fn plan_ghost_irregular(dist: &Distribution, conn: &Connectivity) -> Result<CommPlan> {
    plan_ghost_irregular_counted(
        dist,
        conn,
        &PlanCache::new(),
        &mut TranslationStats::default(),
    )
}

fn plan_ghost_irregular_counted(
    dist: &Distribution,
    conn: &Connectivity,
    store: &PlanCache,
    counters: &mut TranslationStats,
) -> Result<CommPlan> {
    let domain = dist.domain();
    if conn.num_nodes() != domain.size() {
        return Err(RuntimeError::DomainMismatch {
            left: domain.to_string(),
            right: format!("connectivity over {} elements", conn.num_nodes()),
        });
    }
    let total_procs = dist.procs().array().num_procs();
    let mut slots: Vec<GhostSlots> = (0..total_procs)
        .map(|_| GhostSlots::nothing(domain))
        .collect();
    // A replicated view holds every element on every processor — no read
    // can be non-local — and an edge-free connectivity references nothing:
    // neither consults the directory.
    let replicated = dist.is_replicated();
    let mut resolver =
        (!replicated && conn.num_edges() > 0).then(|| OwnerResolver::for_dist(dist, store));
    // Requester-side ownership: every processor knows which global offsets
    // it owns, and at which local offset (its local-to-global table),
    // assembled here from the linear runs.  Resolving the *owner* of
    // anything else is the part that costs directory traffic, and goes
    // through the resolver below.
    let mut owner_of = vec![u32::MAX; domain.size()];
    let mut local_of = vec![0u32; domain.size()];
    for &p in dist.proc_ids() {
        for run in dist.local_linear_runs(p) {
            for k in 0..run.len {
                owner_of[run.global_start + k] = p.0 as u32;
                local_of[run.global_start + k] = (run.local_start + k) as u32;
            }
        }
    }
    let mut b = PlanBuilder::new();
    for &p in dist.proc_ids() {
        let n_local = dist.local_size(p);
        let mut local = LocalisedConnectivity {
            xadj: Vec::with_capacity(n_local + 1),
            ..LocalisedConnectivity::default()
        };
        local.xadj.push(0);
        // One walk over the owned rows in local order.  An owned
        // neighbour is its local offset; a remote one is parked as
        // (adjacency position, global offset) until the ghost list is
        // sorted and its slot known.
        let mut remote: Vec<(usize, usize)> = Vec::new();
        for run in dist.local_linear_runs(p) {
            for k in 0..run.len {
                let parked = remote.len();
                for v in conn.neighbors(run.global_start + k) {
                    if replicated || owner_of[v] == p.0 as u32 {
                        local.adjncy.push(local_of[v]);
                    } else {
                        remote.push((local.adjncy.len(), v));
                        local.adjncy.push(0);
                    }
                }
                local.xadj.push(local.adjncy.len() as u32);
                let row = (run.local_start + k) as u32;
                if remote.len() == parked {
                    local.interior.push(row);
                } else {
                    local.boundary.push(row);
                }
            }
        }
        local.ghosts = remote.iter().map(|&(_, v)| v).collect();
        local.ghosts.sort_unstable();
        local.ghosts.dedup();
        for (at, v) in remote {
            let slot = local.ghosts.partition_point(|&g| g < v);
            local.adjncy[at] = (n_local + slot) as u32;
        }
        if let Some(resolver) = resolver.as_mut() {
            for (slot, &lin) in local.ghosts.iter().enumerate() {
                let (owner, offset) = resolver.locate_from(p, lin);
                b.push(owner, p, offset, slot);
            }
        }
        slots[p.0] = GhostSlots::Listed {
            domain: domain.clone(),
            local: Box::new(local),
        };
    }
    let fp = dist.fingerprint();
    Ok(CommPlan {
        kind: PlanKind::Ghost,
        src_fingerprint: fp,
        dst_fingerprint: fp,
        total_procs,
        needed_procs: b
            .needed
            .max(dist.proc_ids().iter().map(|p| p.0 + 1).max().unwrap_or(1)),
        transfers: b.transfers,
        moved_elements: b.moved,
        stayed_elements: b.stayed,
        directory: Mutex::new(resolver.map_or_else(Vec::new, |r| r.finish(counters))),
        index: PlanIndex::Ghost {
            slots,
            widths: Vec::new(),
        },
    })
}

/// The planning half of the PARTI inspector: analyses the non-local
/// accesses each processor intends to make and produces a deduplicated
/// gather plan.  Local accesses are dropped; repeated accesses to the same
/// element are fetched once (the "buffering scheme" of the PARTI routines).
/// Its tables come from `store` and its directory lookups are added to
/// `counters`.
fn plan_gather(
    dist: &Distribution,
    accesses: &[(ProcId, Point)],
    store: &PlanCache,
    counters: &mut TranslationStats,
) -> Result<CommPlan> {
    let total_procs = dist.procs().array().num_procs();
    let mut resolver = OwnerResolver::for_dist(dist, store);
    // Every access of a replicated array is local (each processor of the
    // view holds a full copy), so nothing is fetched.
    let replicated = dist.is_replicated();
    // Per requesting processor: sorted, deduplicated global offsets,
    // grouped by owner.
    let mut requests: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); total_procs]; // (owner, lin, owner_local)
    for (proc, point) in accesses {
        let lin = dist.domain().linearize(point)?;
        if replicated {
            continue;
        }
        let (owner, local) = resolver.locate_from(*proc, lin);
        if owner == *proc {
            continue;
        }
        requests[proc.0].push((owner.0, lin, local));
    }
    let mut slots: Vec<GatherSlots> = (0..total_procs)
        .map(|_| GatherSlots {
            slot_of_lin: HashMap::new(),
            count: 0,
        })
        .collect();
    let mut b = PlanBuilder::new();
    for (proc, mut reqs) in requests.into_iter().enumerate() {
        reqs.sort_unstable();
        reqs.dedup();
        for (slot, &(owner, lin, local)) in reqs.iter().enumerate() {
            slots[proc].slot_of_lin.insert(lin, slot);
            b.push(ProcId(owner), ProcId(proc), local, slot);
        }
        slots[proc].count = reqs.len();
    }
    let fp = dist.fingerprint();
    Ok(CommPlan {
        kind: PlanKind::Gather,
        src_fingerprint: fp,
        dst_fingerprint: fp,
        total_procs,
        needed_procs: b
            .needed
            .max(dist.proc_ids().iter().map(|p| p.0 + 1).max().unwrap_or(1)),
        transfers: b.transfers,
        moved_elements: b.moved,
        stayed_elements: b.stayed,
        directory: Mutex::new(resolver.finish(counters)),
        index: PlanIndex::Gather { slots },
    })
}

/// Plans the executor's write path: each update source `(from, point)` is
/// resolved to the owner and owner-local offset of `point`; cross-processor
/// updates are aggregated into one message per (source, owner) pair.  The
/// update *values* are supplied at execution time — only the placement is
/// cacheable.
/// Its tables come from `store` and its directory lookups are added to
/// `counters`.
fn plan_scatter(
    dist: &Distribution,
    sources: &[(ProcId, Point)],
    store: &PlanCache,
    counters: &mut TranslationStats,
) -> Result<CommPlan> {
    let mut resolver = OwnerResolver::for_dist(dist, store);
    let mut ops = Vec::with_capacity(sources.len());
    let mut b = PlanBuilder::new();
    for (from, point) in sources {
        let lin = dist.domain().linearize(point)?;
        let (owner, local) = resolver.locate_from(*from, lin);
        ops.push(ScatterOp { owner, local });
        // Runs are not needed for scatter (values arrive with the updates);
        // the per-pair element counts drive the message aggregation.
        b.push(*from, owner, 0, 0);
    }
    // Collapse the dummy runs: only the counts matter.
    let mut transfers = b.transfers;
    for t in &mut transfers {
        t.runs.clear();
    }
    let fp = dist.fingerprint();
    Ok(CommPlan {
        kind: PlanKind::Scatter,
        src_fingerprint: fp,
        dst_fingerprint: fp,
        total_procs: dist.procs().array().num_procs(),
        needed_procs: b
            .needed
            .max(dist.proc_ids().iter().map(|p| p.0 + 1).max().unwrap_or(1)),
        transfers,
        moved_elements: b.moved,
        stayed_elements: b.stayed,
        directory: Mutex::new(resolver.finish(counters)),
        index: PlanIndex::Scatter {
            ops,
            replicated: dist.is_replicated(),
        },
    })
}

/// Key of a store entry: a plan's kind plus the structural fingerprints of
/// its inputs, or the fingerprint of the distribution a translation table
/// resolves.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum PlanKey {
    Redistribute {
        from: u64,
        to: u64,
    },
    Ghost {
        dist: u64,
        widths: Vec<(usize, usize)>,
    },
    GhostIrregular {
        dist: u64,
        conn: u64,
    },
    Gather {
        dist: u64,
        accesses: u64,
    },
    Scatter {
        dist: u64,
        sources: u64,
    },
    Table {
        dist: u64,
    },
}

fn hash_accesses(accesses: &[(ProcId, Point)]) -> u64 {
    let mut h = DefaultHasher::new();
    for (p, pt) in accesses {
        p.0.hash(&mut h);
        pt.hash(&mut h);
    }
    h.finish()
}

/// Hit/miss counters and size of a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Plan lookups answered from the cache.
    pub hits: u64,
    /// Plan lookups that had to run a planner.
    pub misses: u64,
    /// Entries currently stored: plans and translation tables.
    pub entries: usize,
    /// Estimated bytes held by the stored plans
    /// ([`CommPlan::estimated_bytes`]) and translation tables
    /// ([`DistTranslationTable::estimated_bytes`]) — the quantity the LRU
    /// eviction bounds.
    pub resident_bytes: usize,
    /// Translation-table lookups of the planning sessions this cache's
    /// misses ran — the directory traffic of the plans it built.
    pub translation: TranslationStats,
}

impl PlanCacheStats {
    /// The activity between the reading `before` and this one: hits,
    /// misses and translation lookups as deltas, `entries` and
    /// `resident_bytes` as they are now.  Runs that share one cache at
    /// the same time (every run on one [`Machine`]) also share its
    /// counters, so a delta over a concurrent stretch counts both.
    pub fn since(&self, before: PlanCacheStats) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            translation: self.translation - before.translation,
            ..*self
        }
    }
}

/// A stored value: a plan, or a translation table its planners resolve
/// `INDIRECT` ownership through.
#[derive(Debug, Clone)]
enum Entry {
    Plan(Arc<CommPlan>),
    Table(Arc<DistTranslationTable>),
}

impl Entry {
    fn plan(self) -> Option<Arc<CommPlan>> {
        match self {
            Entry::Plan(plan) => Some(plan),
            Entry::Table(_) => None,
        }
    }

    fn table(self) -> Option<Arc<DistTranslationTable>> {
        match self {
            Entry::Table(table) => Some(table),
            Entry::Plan(_) => None,
        }
    }
}

#[derive(Debug)]
struct PlanCacheInner {
    /// Stored entries tagged with their estimated size and the logical
    /// time of their last use.
    map: HashMap<PlanKey, (Entry, usize, u64)>,
    /// Monotonic use counter driving least-recently-used eviction.
    tick: u64,
    /// Estimated-byte budget beyond which LRU eviction kicks in.
    budget_bytes: usize,
    /// Estimated bytes currently resident.
    resident_bytes: usize,
    hits: u64,
    misses: u64,
    translation: TranslationStats,
}

impl Default for PlanCacheInner {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
            tick: 0,
            budget_bytes: PlanCache::DEFAULT_BUDGET_BYTES,
            resident_bytes: 0,
            hits: 0,
            misses: 0,
            translation: TranslationStats::default(),
        }
    }
}

impl PlanCacheInner {
    /// The entry under `key`, marked as just used.
    fn touch(&mut self, key: &PlanKey) -> Option<Entry> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|entry| {
            entry.2 = tick;
            entry.0.clone()
        })
    }

    /// Stores `entry` of `size` estimated bytes under `key` and evicts
    /// least-recently-used entries (never the new one) until the budget
    /// holds again.  When a concurrent miss stored the key first, that
    /// entry stays and is returned instead.
    fn insert(&mut self, key: PlanKey, entry: Entry, size: usize) -> Entry {
        self.tick += 1;
        let tick = self.tick;
        if let Some(stored) = self.map.get(&key) {
            return stored.0.clone();
        }
        self.map.insert(key, (entry.clone(), size, tick));
        self.resident_bytes += size;
        while self.resident_bytes > self.budget_bytes && self.map.len() > 1 {
            let Some(oldest) = self
                .map
                .iter()
                .filter(|(_, (_, _, used))| *used != tick)
                .min_by_key(|(_, (_, _, used))| *used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some((_, evicted_size, _)) = self.map.remove(&oldest) {
                self.resident_bytes -= evicted_size;
                trace::instant(trace::Phase::PlanEvict);
            }
        }
        entry
    }
}

/// A shared store of communication plans keyed by distribution
/// fingerprints — the VFE's realisation of PARTI schedule reuse — and of
/// the translation tables their planners resolve `INDIRECT` ownership
/// through.
///
/// The cache is cheaply cloneable (an `Arc` around the interior), like
/// [`CommTracker`].  A program's store is its machine's
/// ([`PlanCache::of`]): the language layer and every application run on
/// one [`Machine`] share it, so iterative codes (ADI sweeps, smoothing
/// steps, PIC steps, mesh sweeps) plan each distinct communication pattern
/// once per machine and afterwards hit the cache; executing a cached plan
/// moves exactly the same elements and charges exactly the same bytes as
/// a freshly planned one (asserted by the property tests in
/// `tests/suite/plan_reuse.rs`), except for the directory page fetches an
/// `INDIRECT` plan charges once, at its first execution.
///
/// A translation table is an entry like a plan, keyed by the fingerprint
/// of the distribution it resolves and counted in the same byte budget: a
/// table is used only while planning, so once its plans exist it is the
/// colder entry and ages out first; a later miss rebuilds it.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    inner: Arc<Mutex<PlanCacheInner>>,
}

impl PlanCache {
    /// Default estimated-byte budget (16 MiB) before least-recently-used
    /// eviction.  Plans differ wildly in size — a few runs per processor
    /// pair for block-family layouts, one run per *element* for strided
    /// cyclic targets — so the cache bounds the estimated bytes it holds
    /// ([`CommPlan::estimated_bytes`]) rather than the entry count: a
    /// drifting PIC load producing ever-new `BOUNDS` partitions evicts
    /// many small block schedules or few huge cyclic ones, either way
    /// staying within the same memory.
    pub const DEFAULT_BUDGET_BYTES: usize = 16 * 1024 * 1024;

    /// An empty cache with [`PlanCache::DEFAULT_BUDGET_BYTES`], owned by
    /// no machine — for one-off plans and tests; a program uses its
    /// machine's ([`PlanCache::of`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The plan store of `machine`, created empty (with
    /// [`PlanCache::DEFAULT_BUDGET_BYTES`]) on first use.  Clones of a
    /// machine share its store; a machine from [`Machine::new`] has its
    /// own.
    pub fn of(machine: &Machine) -> &PlanCache {
        machine.plan_store(PlanCache::new)
    }

    /// An empty cache evicting least-recently-used entries once their
    /// summed estimated bytes exceed `budget_bytes`.  The most recently
    /// inserted entry is always kept, even when it alone exceeds the
    /// budget.
    pub fn with_budget_bytes(budget_bytes: usize) -> Self {
        let cache = Self::default();
        cache.lock().budget_bytes = budget_bytes;
        cache
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanCacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current hit/miss counters, entry count and resident bytes.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.lock();
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
            resident_bytes: inner.resident_bytes,
            translation: inner.translation,
        }
    }

    /// The translation table of `dist` from the store, built into it on a
    /// miss.  Table lookups are not plan lookups: they count neither as
    /// hits nor as misses.
    fn table(&self, dist: &Distribution) -> Arc<DistTranslationTable> {
        let key = PlanKey::Table {
            dist: dist.fingerprint(),
        };
        if let Some(table) = self.lock().touch(&key).and_then(Entry::table) {
            return table;
        }
        let table = Arc::new(translation::table_for(dist));
        let size = table.estimated_bytes();
        let stored = self
            .lock()
            .insert(key, Entry::Table(Arc::clone(&table)), size);
        stored.table().unwrap_or(table)
    }

    fn get_or_plan(
        &self,
        key: PlanKey,
        plan: impl FnOnce(&mut TranslationStats) -> Result<CommPlan>,
    ) -> Result<Arc<CommPlan>> {
        if let Some(found) = {
            let mut inner = self.lock();
            let found = inner.touch(&key).and_then(Entry::plan);
            inner.hits += u64::from(found.is_some());
            found
        } {
            trace::instant(trace::Phase::PlanCacheHit);
            return Ok(found);
        }
        // Plan outside the lock: planning is the expensive part.
        trace::instant(trace::Phase::PlanCacheMiss);
        let mut counters = TranslationStats::default();
        let planned = {
            let _span = trace::OpenSpan::begin(trace::Phase::Plan);
            Arc::new(plan(&mut counters)?)
        };
        let size = planned.estimated_bytes();
        let mut inner = self.lock();
        inner.misses += 1;
        inner.translation += counters;
        let stored = inner.insert(key, Entry::Plan(Arc::clone(&planned)), size);
        Ok(stored.plan().unwrap_or(planned))
    }

    /// The cached redistribution plan `old -> new`, planning on a miss.
    pub fn redistribute_plan(
        &self,
        old: &Distribution,
        new: &Distribution,
    ) -> Result<Arc<CommPlan>> {
        self.get_or_plan(
            PlanKey::Redistribute {
                from: old.fingerprint(),
                to: new.fingerprint(),
            },
            |counters| plan_redistribute_counted(old, new, self, counters),
        )
    }

    /// The cached ghost-exchange plan for `dist` and `widths`.
    pub fn ghost_plan(
        &self,
        dist: &Distribution,
        widths: &[(usize, usize)],
    ) -> Result<Arc<CommPlan>> {
        self.get_or_plan(
            PlanKey::Ghost {
                dist: dist.fingerprint(),
                widths: widths.to_vec(),
            },
            |counters| plan_ghost_counted(dist, widths, self, counters),
        )
    }

    /// The fused ghost plan of a class of arrays distributed as `dists`
    /// under one stencil: each member's halo plan through the cache, then
    /// fused — what [`crate::ghost::exchange_class_ghosts`] and its split
    /// form execute.  The fusion itself is rebuilt per call (it is a small
    /// index over the cached parts).
    pub fn ghost_class_plan<'d>(
        &self,
        dists: impl IntoIterator<Item = &'d Distribution>,
        widths: &[(usize, usize)],
    ) -> Result<crate::FusedPlan> {
        let parts = dists
            .into_iter()
            .map(|dist| self.ghost_plan(dist, widths))
            .collect::<Result<Vec<_>>>()?;
        crate::FusedPlan::fuse(parts)
    }

    /// The cached irregular (connectivity-driven) halo plan for `dist` —
    /// keyed by (distribution fingerprint, connectivity fingerprint), so a
    /// repartitioned array (new map, new fingerprint) can never reuse a
    /// stale halo schedule or localised connectivity, while repeated
    /// sweeps over an unchanged partition replay both for free.
    pub fn ghost_irregular_plan(
        &self,
        dist: &Distribution,
        conn: &Connectivity,
    ) -> Result<Arc<CommPlan>> {
        self.get_or_plan(
            PlanKey::GhostIrregular {
                dist: dist.fingerprint(),
                conn: conn.fingerprint(),
            },
            |counters| plan_ghost_irregular_counted(dist, conn, self, counters),
        )
    }

    /// The cached gather plan for `dist` and `accesses`.
    pub(crate) fn gather_plan(
        &self,
        dist: &Distribution,
        accesses: &[(ProcId, Point)],
    ) -> Result<Arc<CommPlan>> {
        self.get_or_plan(
            PlanKey::Gather {
                dist: dist.fingerprint(),
                accesses: hash_accesses(accesses),
            },
            |counters| plan_gather(dist, accesses, self, counters),
        )
    }

    /// The cached scatter plan for `dist` and update sources.
    pub(crate) fn scatter_plan(
        &self,
        dist: &Distribution,
        sources: &[(ProcId, Point)],
    ) -> Result<Arc<CommPlan>> {
        self.get_or_plan(
            PlanKey::Scatter {
                dist: dist.fingerprint(),
                sources: hash_accesses(sources),
            },
            |counters| plan_scatter(dist, sources, self, counters),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistArray;
    use vf_dist::{DistType, ProcessorView};
    use vf_machine::CostModel;

    fn dist_1d(t: DistType, n: usize, p: usize) -> Distribution {
        Distribution::new(t, IndexDomain::d1(n), ProcessorView::linear(p)).unwrap()
    }

    #[test]
    fn block_shift_plans_are_tightly_run_length_encoded() {
        // BLOCK(16/4) -> B_BLOCK(2,6,4,4): every pairwise overlap is one
        // contiguous interval, so every transfer is a single run.
        let old = dist_1d(DistType::block1d(), 16, 4);
        let new = dist_1d(DistType::gen_block1d(vec![2, 6, 4, 4]), 16, 4);
        let plan = plan_redistribute(&old, &new).unwrap();
        assert_eq!(
            plan.moved_elements() + plan.stayed_elements(),
            16,
            "every element is placed exactly once"
        );
        for t in plan.transfers() {
            assert_eq!(t.runs.len(), 1, "{:?} -> {:?} fragmented", t.src, t.dst);
            assert_eq!(t.elements, t.runs.iter().map(|r| r.len).sum::<usize>());
        }
        // The total run count is bounded by the pair count, not the element
        // count — the memory argument for RLE schedules.
        assert!(plan.transfers().len() <= 7);
    }

    #[test]
    fn cyclic_plans_still_cover_every_element() {
        let old = dist_1d(DistType::cyclic1d(1), 12, 3);
        let new = dist_1d(DistType::block1d(), 12, 3);
        let plan = plan_redistribute(&old, &new).unwrap();
        assert_eq!(plan.moved_elements() + plan.stayed_elements(), 12);
        let total: usize = plan.transfers().iter().map(|t| t.elements).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn identical_distributions_move_nothing() {
        let d = dist_1d(DistType::block1d(), 12, 3);
        let plan = plan_redistribute(&d, &d.clone()).unwrap();
        assert_eq!(plan.moved_elements(), 0);
        assert_eq!(plan.stayed_elements(), 12);
        assert_eq!(plan.num_messages(), 0);
    }

    #[test]
    fn cache_hits_on_repeat_and_misses_on_change() {
        let cache = PlanCache::new();
        let block = dist_1d(DistType::block1d(), 16, 4);
        let cyclic = dist_1d(DistType::cyclic1d(1), 16, 4);
        let gen = dist_1d(DistType::gen_block1d(vec![1, 5, 5, 5]), 16, 4);

        let p1 = cache.redistribute_plan(&block, &cyclic).unwrap();
        let p2 = cache.redistribute_plan(&block, &cyclic).unwrap();
        assert!(
            Arc::ptr_eq(&p1, &p2),
            "repeat lookup returns the cached plan"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.resident_bytes, p1.estimated_bytes());

        // A different *target* distribution is a different key: no stale
        // plan is returned (the invalidation property).
        let p3 = cache.redistribute_plan(&block, &gen).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(cache.stats().misses, 2);

        // The reverse direction is also distinct.
        cache.redistribute_plan(&cyclic, &block).unwrap();
        assert_eq!(cache.stats().misses, 3);

        // A fresh store replans.
        let fresh = PlanCache::new();
        fresh.redistribute_plan(&block, &cyclic).unwrap();
        assert_eq!((fresh.stats().misses, cache.stats().misses), (1, 3));
    }

    #[test]
    fn executing_a_stale_plan_is_rejected() {
        let block = dist_1d(DistType::block1d(), 16, 4);
        let cyclic = dist_1d(DistType::cyclic1d(1), 16, 4);
        let plan = Arc::new(plan_redistribute(&block, &cyclic).unwrap());
        // The array has since been redistributed to gen-block: the cached
        // plan no longer applies and execution must refuse.
        let mut a = DistArray::from_fn(
            "A",
            dist_1d(DistType::gen_block1d(vec![4, 4, 4, 4]), 16, 4),
            |p| p.coord(0) as f64,
        );
        let tracker = CommTracker::new(4, CostModel::zero());
        let opts = crate::RedistOptions::default();
        let err =
            crate::execute_redistribute(&mut a, &plan, &tracker, &opts, &crate::SerialExecutor);
        assert!(matches!(err, Err(RuntimeError::PlanMismatch { .. })));
    }

    #[test]
    fn charge_aggregate_vs_element_wise() {
        let old = dist_1d(DistType::block1d(), 16, 2);
        let new = dist_1d(DistType::cyclic1d(1), 16, 2);
        let plan = plan_redistribute(&old, &new).unwrap();
        let agg = CommTracker::new(2, CostModel::from_alpha_beta(1.0, 0.0));
        let (m_agg, b_agg) = plan.charge(&agg, 8, true);
        let elem = CommTracker::new(2, CostModel::from_alpha_beta(1.0, 0.0));
        let (m_elem, b_elem) = plan.charge(&elem, 8, false);
        assert_eq!(b_agg, b_elem);
        assert_eq!(b_agg, plan.bytes_for(8));
        assert!(m_elem > m_agg);
        assert_eq!(m_elem, plan.moved_elements());
        assert!(elem.snapshot().critical_time() > agg.snapshot().critical_time());
    }

    #[test]
    fn replicated_round_trip_preserves_data() {
        // blk -> replicated -> blk: every replica must receive the data on
        // the way in, and only the canonical replica sends on the way out.
        let tracker = CommTracker::new(4, CostModel::zero());
        let block = dist_1d(DistType::block1d(), 8, 4);
        let rep = Distribution::new(
            DistType::new(vec![vf_dist::DimDist::NotDistributed]),
            IndexDomain::d1(8),
            ProcessorView::linear(4),
        )
        .unwrap();
        let mut a = DistArray::from_fn("A", block.clone(), |p| (p.coord(0) + 1) as f64);
        let before = a.to_dense();
        let (opts, cache) = (crate::RedistOptions::default(), PlanCache::new());
        crate::redistribute(
            &mut a,
            rep.clone(),
            &tracker,
            &opts,
            &cache,
            &crate::SerialExecutor,
        )
        .unwrap();
        // Every replica holds the full data.
        for p in 0..4 {
            assert_eq!(
                a.local(ProcId(p)),
                before.as_slice(),
                "replica on P{p} incomplete"
            );
        }
        let report = crate::redistribute(
            &mut a,
            block,
            &tracker,
            &opts,
            &cache,
            &crate::SerialExecutor,
        )
        .unwrap();
        assert_eq!(a.to_dense(), before, "round trip lost data");
        // Only the canonical copy sent: each element placed exactly once.
        assert_eq!(report.moved_elements + report.stayed_elements, 8);
    }

    #[test]
    fn cache_evicts_least_recently_used_beyond_byte_budget() {
        let block = dist_1d(DistType::block1d(), 12, 3);
        let cyclic = dist_1d(DistType::cyclic1d(1), 12, 3);
        let gen = dist_1d(DistType::gen_block1d(vec![2, 4, 6]), 12, 3);
        // Size the budget so A and B fit but adding C overflows by one
        // byte, forcing exactly one LRU eviction.
        let size_a = plan_redistribute(&block, &cyclic)
            .unwrap()
            .estimated_bytes();
        let size_b = plan_redistribute(&block, &gen).unwrap().estimated_bytes();
        let size_c = plan_redistribute(&cyclic, &gen).unwrap().estimated_bytes();
        let cache = PlanCache::with_budget_bytes(size_a + size_b + size_c - 1);
        cache.redistribute_plan(&block, &cyclic).unwrap(); // entry A
        cache.redistribute_plan(&block, &gen).unwrap(); // entry B
        cache.redistribute_plan(&block, &cyclic).unwrap(); // touch A
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().resident_bytes, size_a + size_b);
        cache.redistribute_plan(&cyclic, &gen).unwrap(); // entry C evicts B (LRU)
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().resident_bytes, size_a + size_c);
        cache.redistribute_plan(&block, &cyclic).unwrap(); // A still cached
        assert_eq!(cache.stats().hits, 2);
        cache.redistribute_plan(&block, &gen).unwrap(); // B was evicted
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn cache_keeps_the_newest_plan_even_when_it_alone_exceeds_the_budget() {
        let cache = PlanCache::with_budget_bytes(1);
        let block = dist_1d(DistType::block1d(), 16, 4);
        let cyclic = dist_1d(DistType::cyclic1d(1), 16, 4);
        cache.redistribute_plan(&block, &cyclic).unwrap();
        assert_eq!(cache.stats().entries, 1);
        assert!(cache.stats().resident_bytes > 1);
        // The oversized survivor is still served from the cache...
        cache.redistribute_plan(&block, &cyclic).unwrap();
        assert_eq!(cache.stats().hits, 1);
        // ...until the next insertion displaces it.
        cache.redistribute_plan(&cyclic, &block).unwrap();
        assert_eq!(cache.stats().entries, 1);
        cache.redistribute_plan(&block, &cyclic).unwrap();
        assert_eq!(cache.stats().misses, 3);
    }

    fn indirect_1d(n: usize, p: usize, seed: usize) -> Distribution {
        let map = vf_dist::IndirectMap::from_fn(n, |i| (i * 7 + seed) % p).unwrap();
        dist_1d(DistType::indirect1d(Arc::new(map)), n, p)
    }

    #[test]
    fn translation_tables_are_store_entries_under_the_budget() {
        let (a, b) = (indirect_1d(64, 4, 3), indirect_1d(64, 4, 5));
        let conn = Connectivity::chain(64, 1, 1).unwrap();
        let cache = PlanCache::new();
        let halo = cache.ghost_irregular_plan(&a, &conn).unwrap();
        // One plan lookup, a miss; the table it planned against is an
        // entry too, and counts in the resident bytes.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 2));
        let table = cache.table(&a);
        assert_eq!(table.fingerprint(), a.fingerprint());
        assert_eq!(
            stats.resident_bytes,
            halo.estimated_bytes() + table.estimated_bytes()
        );
        // One map shares one table; another map gets its own.  Table
        // lookups are not plan lookups.
        assert!(Arc::ptr_eq(&table, &cache.table(&a)));
        assert!(!Arc::ptr_eq(&table, &cache.table(&b)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 3));
    }

    #[test]
    fn a_budget_below_table_and_plan_evicts_the_table_and_a_miss_rebuilds_it() {
        let (a, conn) = (
            indirect_1d(64, 4, 3),
            Connectivity::chain(64, 1, 1).unwrap(),
        );
        let block = dist_1d(DistType::block1d(), 64, 4);
        let roomy = PlanCache::new();
        let halo = roomy.ghost_irregular_plan(&a, &conn).unwrap();
        let moved = roomy.redistribute_plan(&block, &a).unwrap();
        let table_bytes = roomy.table(&a).estimated_bytes();
        let tight = PlanCache::with_budget_bytes(table_bytes + halo.estimated_bytes() - 1);
        // The table is stored before the plan built from it, so it is the
        // colder entry and the one evicted.
        let held = tight.table(&a);
        let tight_halo = tight.ghost_irregular_plan(&a, &conn).unwrap();
        let stats = tight.stats();
        assert_eq!(
            (stats.entries, stats.resident_bytes),
            (1, halo.estimated_bytes())
        );
        // A later miss rebuilds the table, into the same plans.
        let tight_moved = tight.redistribute_plan(&block, &a).unwrap();
        assert!(!Arc::ptr_eq(&held, &tight.table(&a)));
        assert_eq!(tight_halo.transfers(), halo.transfers());
        for p in 0..4 {
            assert_eq!(tight_halo.localised(ProcId(p)), halo.localised(ProcId(p)));
        }
        assert_eq!(tight_moved.transfers(), moved.transfers());
        assert_eq!(
            tight_moved.pending_directory_traffic(),
            moved.pending_directory_traffic()
        );
        assert_eq!(tight.stats().translation, roomy.stats().translation);
    }

    #[test]
    fn stats_since_report_deltas_and_the_current_footprint() {
        let cache = PlanCache::new();
        let (a, conn) = (
            indirect_1d(64, 4, 3),
            Connectivity::chain(64, 1, 1).unwrap(),
        );
        cache.ghost_irregular_plan(&a, &conn).unwrap();
        let before = cache.stats();
        cache.ghost_irregular_plan(&a, &conn).unwrap();
        let delta = cache.stats().since(before);
        assert_eq!((delta.hits, delta.misses), (1, 0));
        assert_eq!(delta.translation, TranslationStats::default());
        assert_eq!(
            (delta.entries, delta.resident_bytes),
            (before.entries, before.resident_bytes)
        );
        assert!(
            before
                .since(PlanCacheStats::default())
                .translation
                .page_fetches
                > 0
        );
    }

    #[test]
    fn estimated_bytes_track_run_counts() {
        // A strided cyclic target degrades to one run per element, so its
        // plan must be estimated (much) larger than the handful-of-runs
        // block shift over the same domain.
        let n = 256usize;
        let block = dist_1d(DistType::block1d(), n, 4);
        let cyclic = dist_1d(DistType::cyclic1d(1), n, 4);
        let gen = dist_1d(DistType::gen_block1d(vec![32, 96, 64, 64]), n, 4);
        let fragmented = plan_redistribute(&block, &cyclic).unwrap();
        let compact = plan_redistribute(&block, &gen).unwrap();
        assert!(fragmented.estimated_bytes() > 4 * compact.estimated_bytes());
    }

    #[test]
    fn zero_width_ghost_plan_is_empty_and_tiny() {
        let dist = Distribution::new(
            DistType::columns(),
            IndexDomain::d2(64, 64),
            ProcessorView::linear(4),
        )
        .unwrap();
        let empty = plan_ghost(&dist, &[(0, 0), (0, 0)]).unwrap();
        assert_eq!(empty.transfers().len(), 0, "no empty transfer groups");
        assert_eq!(empty.num_messages(), 0);
        assert_eq!(empty.moved_elements(), 0);
        for p in 0..4 {
            assert_eq!(empty.ghost_len(ProcId(p)), 0);
        }
        // The degenerate plan carries no transfers, so it is the smaller
        // one to cache — and a real halo plan stores nothing per point: a
        // grid sixteen times the size costs the same bytes.
        let real = plan_ghost(&dist, &[(1, 1), (1, 1)]).unwrap();
        assert!(empty.estimated_bytes() < real.estimated_bytes());
        let large = Distribution::new(
            DistType::columns(),
            IndexDomain::d2(256, 256),
            ProcessorView::linear(4),
        )
        .unwrap();
        let large = plan_ghost(&large, &[(1, 1), (1, 1)]).unwrap();
        assert_eq!(large.estimated_bytes(), real.estimated_bytes());
        // A plan with one zero-width dimension only schedules the other —
        // for a column layout dimension 0 is undistributed, so its slabs
        // clip to nothing and the two plans coincide.
        let one_dim = plan_ghost(&dist, &[(0, 0), (1, 1)]).unwrap();
        assert!(one_dim.num_messages() > 0);
        assert_eq!(one_dim.moved_elements(), real.moved_elements());
        // A zero width must not mask the contiguous-segment requirement: a
        // cyclic layout is rejected at any width.
        let cyclic = Distribution::new(
            DistType::new(vec![
                vf_dist::DimDist::Cyclic(1),
                vf_dist::DimDist::NotDistributed,
            ]),
            IndexDomain::d2(8, 8),
            ProcessorView::linear(4),
        )
        .unwrap();
        assert!(matches!(
            plan_ghost(&cyclic, &[(0, 0), (0, 0)]),
            Err(RuntimeError::NonContiguousLayout { dim: 0, .. })
        ));
    }

    #[test]
    fn irregular_halo_plan_agrees_with_the_geometric_planner() {
        // On a 1-D block layout the ±1 chain connectivity describes exactly
        // the geometric 1-wide halo: both planners must schedule the same
        // elements for the same processors.
        let d = dist_1d(DistType::block1d(), 16, 4);
        let conn = Connectivity::chain(16, 1, 1).unwrap();
        let irregular = plan_ghost_irregular(&d, &conn).unwrap();
        let geometric = plan_ghost(&d, &[(1, 1)]).unwrap();
        assert_eq!(irregular.kind(), PlanKind::Ghost);
        assert_eq!(irregular.moved_elements(), geometric.moved_elements());
        assert_eq!(irregular.num_messages(), geometric.num_messages());
        for p in 0..4 {
            assert_eq!(
                irregular.ghost_len(ProcId(p)),
                geometric.ghost_len(ProcId(p)),
                "P{p}"
            );
        }
        // Wrong-size connectivity is rejected.
        let short = Connectivity::chain(8, 1, 1).unwrap();
        assert!(matches!(
            plan_ghost_irregular(&d, &short),
            Err(RuntimeError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn indirect_ghost_plans_route_to_the_irregular_planner() {
        use vf_dist::{IndirectMap, ProcessorView};
        // A fully scattered map (alternating owners): every ±1 neighbour is
        // remote.  plan_ghost used to reject this layout outright; it now
        // derives the halo from the implicit chain connectivity.
        let n = 12usize;
        let p = 2usize;
        let map = std::sync::Arc::new(IndirectMap::from_fn(n, |i| i % p).unwrap());
        let dist = Distribution::new(
            DistType::indirect1d(map),
            IndexDomain::d1(n),
            ProcessorView::linear(p),
        )
        .unwrap();
        let plan = plan_ghost(&dist, &[(1, 1)]).unwrap();
        // P0 owns the even offsets; each reads both odd neighbours → every
        // odd offset is in P0's halo, and vice versa.
        assert_eq!(plan.ghost_len(ProcId(0)), n / 2);
        assert_eq!(plan.ghost_len(ProcId(1)), n / 2);
        assert_eq!(plan.num_messages(), 2);
        // The inspection walked the distributed translation table: pending
        // directory traffic is attached for the first execution.
        let (dir_messages, dir_bytes) = plan.pending_directory_traffic();
        assert!(dir_messages > 0);
        assert!(dir_bytes > 0);
        // Zero widths stay an empty plan, not an error.
        let empty = plan_ghost(&dist, &[(0, 0)]).unwrap();
        assert_eq!(empty.moved_elements(), 0);
        assert_eq!(empty.num_messages(), 0);
    }

    #[test]
    fn irregular_halo_plans_cache_by_map_and_connectivity_fingerprints() {
        use vf_dist::{IndirectMap, ProcessorView};
        let n = 16usize;
        let p = 4usize;
        let dist = |seed: usize| {
            Distribution::new(
                DistType::indirect1d(std::sync::Arc::new(
                    IndirectMap::from_fn(n, |i| (i * 7 + seed) % p).unwrap(),
                )),
                IndexDomain::d1(n),
                ProcessorView::linear(p),
            )
            .unwrap()
        };
        let a = dist(0);
        let conn = Connectivity::chain(n, 1, 1).unwrap();
        let cache = PlanCache::new();
        let p1 = cache.ghost_irregular_plan(&a, &conn).unwrap();
        let p2 = cache.ghost_irregular_plan(&a, &conn).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "repeat lookup hits");
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
        // A repartitioned map is a different fingerprint — never stale.
        let b = dist(1);
        let p3 = cache.ghost_irregular_plan(&b, &conn).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3));
        // A different connectivity over the same map also misses.
        let wider = Connectivity::chain(n, 2, 2).unwrap();
        cache.ghost_irregular_plan(&a, &wider).unwrap();
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn scatter_plan_aggregates_pairs() {
        let d = dist_1d(DistType::block1d(), 8, 2);
        let sources = vec![
            (ProcId(0), Point::d1(5)), // remote
            (ProcId(0), Point::d1(6)), // remote, same pair
            (ProcId(0), Point::d1(1)), // local
            (ProcId(1), Point::d1(8)), // local
        ];
        let plan = PlanCache::new().scatter_plan(&d, &sources).unwrap();
        assert_eq!(plan.kind(), PlanKind::Scatter);
        assert_eq!(plan.moved_elements(), 2);
        assert_eq!(plan.num_messages(), 1);
        let PlanIndex::Scatter { ops, replicated } = &plan.index else {
            panic!("scatter index expected");
        };
        assert_eq!(ops.len(), 4);
        assert!(!replicated);
    }
}
