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
//! * a plan stores per-pair [`Transfer`]s in one of two encodings
//!   ([`Pieces`]).  A regular plan keeps **strided runs** ([`PlanRun`]):
//!   `count` repetitions of `len` contiguous local offsets, a constant
//!   stride apart on each side.  `BLOCK`-family layouts collapse to a
//!   handful of runs per pair, and so do the regular strides a contiguous
//!   run list cannot hold — a `CYCLIC(k)` target's blocks, a halo face
//!   across column-major locals — which fold into one run per stride as
//!   the planner pushes them.  A plan over an `INDIRECT` layout keeps, per
//!   side, a start offset where the side is contiguous and a `u32` offset
//!   per element where it is not — PARTI's schedule as index arrays,
//!   which the executors walk element by element — unless its contiguous
//!   runs are the smaller encoding.  An access list
//!   over regular layouts (a gather, a connectivity-driven halo) keeps its
//!   contiguous runs;
//! * the planners resolve ownership **by stretch, not by element**: one
//!   query to the `OwnerResolver` places a whole stretch of consecutive
//!   global offsets that the target keeps on one owner at consecutive
//!   local offsets, its end read off the distribution function of
//!   dimension 0 (a `BLOCK` or general-block segment end, a `CYCLIC(k)`
//!   block end, a `:` column end).  An `INDIRECT` target has no closed
//!   form: one query to its translation table answers a whole directory
//!   page, whose entries the planner places one after the other — PARTI's
//!   bulk dereference of an index list.  A plan therefore costs O(stretches)
//!   lookups on a regular target and O(pages) on an `INDIRECT` one;
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

use crate::exec::PairIndex;
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
    /// `seen[requester][page]`: fetched (or home) during this session.  A
    /// requester's row is created at its first query, so one from a larger
    /// processor array (a source view the table does not span) starts
    /// cold like any other.
    seen: Vec<Vec<bool>>,
    stats: TranslationStats,
    /// Page-fetch messages `(home, requester, bytes)` of this session.
    fetches: Vec<(usize, usize, usize)>,
}

impl TableSession {
    /// The entries of global offsets `lin..`, up to `max` of them and no
    /// further than the end of `lin`'s directory page, resolved on behalf
    /// of `requester`.  The counters grow by what the same lookups made one
    /// element at a time would add: every entry of a page homed on the
    /// requester is a home hit, every entry of a page it already holds a
    /// cache hit, and the first lookup of any other page fetches it.
    fn page(&mut self, requester: ProcId, lin: usize, max: usize) -> &[(u32, u32)] {
        let table = &self.table;
        let (page, entries) = (table.page_of(lin), table.page_from(lin, max));
        let n = entries.len() as u64;
        if self.seen.len() <= requester.0 {
            self.seen.resize(requester.0 + 1, Vec::new());
        }
        let seen = &mut self.seen[requester.0];
        if seen.is_empty() {
            seen.resize(table.num_pages(), false);
        }
        let home = table.home_of_page(page);
        if home == requester {
            self.stats.home_hits += n;
        } else if seen[page] {
            self.stats.cache_hits += n;
        } else {
            let bytes = table.page_bytes(page);
            self.stats.page_fetches += 1;
            self.stats.cache_hits += n - 1;
            self.stats.fetched_bytes += bytes;
            self.fetches.push((home.0, requester.0, bytes));
        }
        seen[page] = true;
        entries
    }
}

/// How a planner resolves global offsets to `(owner, local offset)`: one
/// query answers a whole *stretch* of consecutive global offsets that stay
/// on one owner at consecutive local offsets, so a planner walks its
/// elements stretch by stretch and pays per stretch, not per element.
///
/// Regular distributions resolve in closed form through a
/// [`vf_dist::Locator`], whose stretches end where the distribution
/// function of dimension 0 says ([`Locator::locate_stretch`]).  `INDIRECT`
/// distributions have no closed form — their ownership lives in a mapping
/// array too large to replicate — so they resolve through the distributed
/// translation table ([`crate::translation`]): each lookup is made *on
/// behalf of* the requesting processor, walking that processor's
/// cached-page path and recording the directory page fetches a real PARTI
/// run would perform.  A table lookup answers a whole directory page (from
/// the queried offset to the page end), whose entries the resolver places
/// one by one; the page-fetch and hit counters grow by the page's entry
/// count at once, to the values element-wise lookups would reach.  Both
/// paths return identical placements; only the modelled directory traffic
/// differs.
///
/// The page-cache warmth is **session-local** (this resolver's `seen`
/// table, no locks on the lookup path): independent plannings of the
/// same distribution each model a cold directory, and the session's fetch
/// messages are handed to the built [`CommPlan`] by
/// [`OwnerResolver::finish`], to be charged once at the plan's first
/// execution.  The table itself comes from the [`PlanCache`] the planner
/// runs for.
struct OwnerResolver<'a> {
    by: Resolve<'a>,
    /// Stretch and page queries answered: the planner's work, which the
    /// unit tests bound.
    #[cfg_attr(not(test), allow(dead_code))]
    lookups: usize,
}

/// The two ways an [`OwnerResolver`] answers.
enum Resolve<'a> {
    Locator(Locator<'a>),
    Table(Box<TableSession>),
}

impl<'a> OwnerResolver<'a> {
    fn for_dist(dist: &'a Distribution, store: &PlanCache) -> Self {
        let by = if dist.dist_type().has_indirect() {
            Resolve::Table(Box::new(TableSession {
                table: store.table(dist),
                seen: Vec::new(),
                stats: TranslationStats::default(),
                fetches: Vec::new(),
            }))
        } else {
            Resolve::Locator(dist.locator())
        };
        Self { by, lookups: 0 }
    }

    /// Places global offsets `lin..lin + len`, resolved on behalf of
    /// `requester`: calls `place(owner, local, at, n)` for each stretch, in
    /// order — the `n` offsets from `lin + at` live on `owner` at local
    /// offsets `local..local + n`.  A locator answers one stretch per
    /// query; a translation table answers one page, placed entry by entry
    /// (an `INDIRECT` plan lists its offsets, so longer stretches would
    /// save nothing).
    fn place(
        &mut self,
        requester: ProcId,
        lin: usize,
        len: usize,
        mut place: impl FnMut(ProcId, usize, usize, usize),
    ) {
        let mut at = 0;
        while at < len {
            self.lookups += 1;
            match &mut self.by {
                Resolve::Locator(locator) => {
                    let (owner, local, n) = locator.locate_stretch(lin + at, len - at);
                    place(owner, local, at, n);
                    at += n;
                }
                Resolve::Table(session) => {
                    let entries = session.page(requester, lin + at, len - at);
                    for (i, &(owner, local)) in entries.iter().enumerate() {
                        place(ProcId(owner as usize), local as usize, at + i, 1);
                    }
                    at += entries.len();
                }
            }
        }
    }

    /// Owner and owner-local offset of global offset `lin`, resolved on
    /// behalf of `requester`.
    fn locate(&mut self, requester: ProcId, lin: usize) -> (ProcId, usize) {
        let mut found = (requester, 0);
        self.place(requester, lin, 1, |owner, local, _, _| {
            found = (owner, local)
        });
        found
    }

    /// Ends the session: adds its lookup counters to `counters` and
    /// returns the directory page-fetch messages for the built plan to
    /// carry.
    fn finish(self, counters: &mut TranslationStats) -> Vec<(usize, usize, usize)> {
        match self.by {
            Resolve::Locator(_) => Vec::new(),
            Resolve::Table(session) => {
                *counters += session.stats;
                session.fetches
            }
        }
    }
}

/// One strided run of a transfer: `count` repetitions of `len` contiguous
/// elements.  Repetition `k` reads source offsets from
/// `src_start + k·src_stride` and writes destination offsets from
/// `dst_start + k·dst_stride`, `len` of each, where the strides are the
/// transfer's ([`Pieces::Runs`]).  A run with `count == 1` is one
/// contiguous copy and ignores the strides.
///
/// A run that does not repeat costs what a plain `(src, dst, len)` run
/// would: `len` and `count` share one word, and the strides are stored once
/// per transfer.  An irregular pattern — an `INDIRECT` layout, a
/// connectivity-driven halo, a gather's access list — never folds.  Over
/// an `INDIRECT` layout it is stored as its contiguous runs only where
/// they take fewer bytes than its offset lists ([`Sides`]).
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
    /// Elements in each repetition (at least one).
    pub len: u32,
    /// Repetitions (at least one).
    pub count: u32,
}

#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<PlanRun>() == 24);

/// All traffic from one sender to one receiver: the element count and
/// where each element is read and written ([`Pieces`]).  `src == dst`
/// transfers are local copies and are never charged to the cost model.
///
/// The elements travel in the order the pieces list them — the order the
/// wire carries them in.  Every executor reaches them through one walk,
/// which yields stored runs as themselves and listed elements one by one,
/// in that order whichever encoding the planner stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Sending processor.
    pub src: ProcId,
    /// Receiving processor.
    pub dst: ProcId,
    /// Total elements moved by this transfer.
    pub elements: usize,
    /// The element offsets on both sides, in element order.
    pub pieces: Pieces,
}

#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Transfer>() == 48);

/// The two encodings of a [`Transfer`]'s offsets.  A plan over an
/// `INDIRECT` layout stores whichever takes fewer bytes; any other plan
/// keeps its runs, and allocates nothing per element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pieces {
    /// Strided runs, in element order.  Every repeating run steps by the
    /// same strides; a run whose stride differs is stored as runs that do
    /// not repeat.
    Runs {
        /// The runs.
        runs: Box<[PlanRun]>,
        /// Source-offset distance between consecutive repetitions of a
        /// run (at least the run's `len`; 0 when no run repeats).
        src_stride: u32,
        /// Destination-offset distance between consecutive repetitions
        /// of a run (at least the run's `len`; 0 when no run repeats).
        dst_stride: u32,
    },
    /// One offset per element on each side, a side that is contiguous
    /// stored as its start.
    Offsets(Box<Sides>),
}

/// The source and destination offsets of a transfer stored as lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sides {
    /// Where the elements are read.
    pub src: Side,
    /// Where the elements are written.
    pub dst: Side,
}

/// One side of a [`Sides`] transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Side {
    /// Element `i` is at offset `start + i`.
    Contiguous(usize),
    /// Element `i` is at offset `offsets[i]`.
    Listed(Box<[u32]>),
}

impl Side {
    fn heap_bytes(&self) -> usize {
        match self {
            Side::Contiguous(_) => 0,
            Side::Listed(offsets) => std::mem::size_of_val(&offsets[..]),
        }
    }
}

impl Sides {
    /// Bytes the lists keep, boxed beside a [`Transfer`].
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.src.heap_bytes() + self.dst.heap_bytes()
    }

    /// The same elements as contiguous runs that do not repeat: one per
    /// maximal stretch whose offsets both continue.  Every listed offset
    /// fits a `u32`, and so does every run's length.
    fn runs(&self, elements: usize) -> Box<[PlanRun]> {
        let (src, dst) = (
            SideRef::of(&self.src, elements),
            SideRef::of(&self.dst, elements),
        );
        let mut runs: Vec<PlanRun> = Vec::new();
        for i in 0..elements {
            let (s, d) = (src.at(i), dst.at(i));
            match runs.last_mut() {
                Some(last)
                    if last.src_start + last.len as usize == s
                        && last.dst_start + last.len as usize == d =>
                {
                    last.len += 1
                }
                _ => runs.push(PlanRun {
                    src_start: s,
                    dst_start: d,
                    len: 1,
                    count: 1,
                }),
            }
        }
        runs.into_boxed_slice()
    }
}

impl Pieces {
    /// Bytes the encoding keeps beyond the [`Transfer`] itself.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Pieces::Runs { runs, .. } => std::mem::size_of_val(&runs[..]),
            Pieces::Offsets(sides) => sides.heap_bytes(),
        }
    }
}

/// One run of a [`Transfer`] laid out for a walk: the source and
/// destination spans it touches — first offset to last, gaps included —
/// and the step between its repetitions in each.  A run that does not
/// repeat steps by its own length, so every walk slices each span once and
/// cuts it into `len`-element pieces every `step`.
#[derive(Debug, Clone)]
pub(crate) struct RunSpan {
    pub(crate) src: std::ops::Range<usize>,
    pub(crate) dst: std::ops::Range<usize>,
    /// Elements per repetition.
    pub(crate) len: usize,
    /// Repetitions.
    pub(crate) count: usize,
    pub(crate) src_step: usize,
    pub(crate) dst_step: usize,
}

impl RunSpan {
    /// A stored run, stepping by the transfer's `strides` if it repeats.
    fn strided(run: &PlanRun, strides: (usize, usize)) -> Self {
        let (len, count) = (run.len as usize, run.count as usize);
        let (src_step, dst_step) = if count == 1 { (len, len) } else { strides };
        RunSpan {
            src: run.src_start..run.src_start + (count - 1) * src_step + len,
            dst: run.dst_start..run.dst_start + (count - 1) * dst_step + len,
            len,
            count,
            src_step,
            dst_step,
        }
    }
}

/// Elements a walk decodes from offset lists at once.
const WALK_BATCH: usize = 64;

/// A slot for a walk to decode a run into.
const BLANK_RUN: PlanRun = PlanRun {
    src_start: 0,
    dst_start: 0,
    len: 1,
    count: 1,
};

/// One side of a listed transfer, borrowed for a walk.
#[derive(Clone, Copy)]
enum SideRef<'t> {
    Contiguous(usize),
    Listed(&'t [u32]),
}

impl<'t> SideRef<'t> {
    fn of(side: &'t Side, elements: usize) -> Self {
        match side {
            &Side::Contiguous(start) => SideRef::Contiguous(start),
            Side::Listed(offsets) => SideRef::Listed(&offsets[..elements]),
        }
    }

    /// The offset of element `i`.
    fn at(self, i: usize) -> usize {
        match self {
            SideRef::Contiguous(start) => start + i,
            SideRef::Listed(offsets) => offsets[i] as usize,
        }
    }
}

/// A listed transfer's elements, each a run of one, as PARTI executes an
/// index-array schedule: an executor's single-element arm copies each
/// without a test on the data, where cutting the lists into their maximal
/// contiguous pieces cost more per element than the copies it saved (on a
/// scattered map pieces are a few elements long, and copying them one
/// piece at a time mispredicts on most of them).
struct Walk<'t> {
    src: SideRef<'t>,
    dst: SideRef<'t>,
    elements: usize,
    /// The next element to decode.
    next: usize,
}

impl<'t> Walk<'t> {
    fn new(sides: &'t Sides, elements: usize) -> Self {
        Walk {
            src: SideRef::of(&sides.src, elements),
            dst: SideRef::of(&sides.dst, elements),
            elements,
            next: 0,
        }
    }

    /// Decodes the next elements, as many as fit, into the front of `buf`;
    /// returns how many, `None` once every element is out.
    fn fill(&mut self, buf: &mut [PlanRun]) -> Option<usize> {
        let from = self.next;
        let to = (from + buf.len()).min(self.elements);
        if from == to {
            return None;
        }
        let (src, dst) = (self.src, self.dst);
        for (slot, i) in buf.iter_mut().zip(from..to) {
            *slot = PlanRun {
                src_start: src.at(i),
                dst_start: dst.at(i),
                len: 1,
                count: 1,
            };
        }
        self.next = to;
        Some(to - from)
    }
}

/// A transfer's walk ([`Transfer::spans`]): its stored runs, or the
/// elements of its lists.
pub(crate) struct Spans<'t> {
    runs: &'t [PlanRun],
    strides: (usize, usize),
    lists: Option<Walk<'t>>,
}

impl Iterator for Spans<'_> {
    type Item = RunSpan;

    fn next(&mut self) -> Option<RunSpan> {
        if let Some((run, rest)) = self.runs.split_first() {
            self.runs = rest;
            return Some(RunSpan::strided(run, self.strides));
        }
        let walk = self.lists.as_mut()?;
        let mut one = [BLANK_RUN];
        walk.fill(&mut one)?;
        Some(RunSpan::strided(&one[0], self.strides))
    }

    /// One loop over runs whichever the encoding: lists are decoded into a
    /// batch of runs between its passes, so a consumer's body is
    /// instantiated once, and the strided runs' loop holds nothing of the
    /// lists.
    fn fold<B, F: FnMut(B, RunSpan) -> B>(self, init: B, mut f: F) -> B {
        let (mut acc, strides, mut lists) = (init, self.strides, self.lists);
        let mut batch = None;
        let mut runs = self.runs;
        loop {
            for run in runs {
                acc = f(acc, RunSpan::strided(run, strides));
            }
            let Some(walk) = lists.as_mut() else {
                return acc;
            };
            let buf = batch.get_or_insert([BLANK_RUN; WALK_BATCH]);
            let Some(decoded) = walk.fill(buf) else {
                return acc;
            };
            runs = &buf[..decoded];
        }
    }
}

impl Transfer {
    /// The elements laid out for a walk, in element order: each strided
    /// run as itself, offset lists element by element.  The one walk
    /// every executor copies, packs and unpacks by, whichever encoding
    /// the planner stored.  Executors take it by `for_each`, which decodes
    /// lists a batch of elements at a time.
    pub(crate) fn spans(&self) -> Spans<'_> {
        match &self.pieces {
            Pieces::Runs {
                runs,
                src_stride,
                dst_stride,
            } => Spans {
                runs,
                strides: (*src_stride as usize, *dst_stride as usize),
                lists: None,
            },
            Pieces::Offsets(sides) => Spans {
                runs: &[],
                strides: (0, 0),
                lists: Some(Walk::new(sides, self.elements)),
            },
        }
    }
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
/// `[local | ghosts]` (the two halves [`crate::ghost::GhostRegion::overlap`]
/// hands out) needs no ownership test, hash or global index.  Indices are `u32`, as in
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
/// the order ghost slots are numbered in, and the order
/// [`crate::ghost::FrameView::lines`] hands the lines out in.
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
    /// Overlap exchange.  A regular plan keeps two boxes per processor;
    /// only an irregular plan lists its points (and its localised
    /// connectivity).
    Ghost {
        /// Per total-processor-id ghost slot index.
        slots: Vec<GhostSlots>,
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

/// A communication plan: the strided-run schedule of one
/// redistribution, ghost exchange, gather or scatter, independent of the
/// element type.  Built once by a planner, executed any number of times
/// while the involved distributions are unchanged (validated through their
/// fingerprints).
#[derive(Debug)]
pub struct CommPlan {
    kind: PlanKind,
    /// Fingerprint of the distribution the data currently lives in.
    src_fingerprint: u64,
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
    /// The transfers indexed by crossing pair and destination, built with
    /// the plan: what an executor walks, and all of a class of one's
    /// fusion ([`crate::FusedPlan::fuse_one`]).  Left out of
    /// [`CommPlan::estimated_bytes`] (see there).
    pub(crate) pairs: Arc<PairIndex>,
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
    /// per processor pair, and so are regular strides, which fold into
    /// repeating runs ([`PlanRun`]); an `INDIRECT` plan keeps up to a
    /// 4-byte offset per element and side, or a 24-byte run per contiguous
    /// piece where that is smaller ([`Pieces`]), and a gather's scattered
    /// accesses a run per piece.  Plan sizes therefore differ by orders
    /// of magnitude, and the [`PlanCache`] bounds its memory by this
    /// estimate rather than by entry count.  The executors'
    /// pair index the plan keeps beside its transfers is left out: on a
    /// 64-bit host, 72 bytes per crossing pair, 24 per processor and about
    /// 180 per plan.
    pub fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        // Per-slot overhead of the offset hash maps of gather plans (key +
        // value + bucket overhead, rounded up).
        const SLOT_BYTES: usize = 64;
        let transfers: usize = self
            .transfers
            .iter()
            .map(|t| size_of::<Transfer>() + t.pieces.heap_bytes())
            .sum();
        let index = match &self.index {
            // The plan keeps a clone of the target distribution alive;
            // alignment-derived targets carry O(N) translation tables, so
            // their real footprint must count against the cache budget.
            PlanIndex::Redistribute { new_dist } => new_dist.estimated_bytes(),
            PlanIndex::Ghost { slots } => slots
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
            PlanIndex::Ghost { slots } => slots.get(proc.0).and_then(|s| s.slot(point)),
            _ => None,
        }
    }

    /// Number of ghost slots held for `proc`.
    pub(crate) fn ghost_len(&self, proc: ProcId) -> usize {
        match &self.index {
            PlanIndex::Ghost { slots } => slots.get(proc.0).map_or(0, GhostSlots::len),
            _ => 0,
        }
    }

    /// `proc`'s localised connectivity.  Every processor of an irregular
    /// halo plan ([`plan_ghost_irregular`]) has one; a processor of a
    /// regular plan that owns a box, and every other plan kind, has none.
    pub fn localised(&self, proc: ProcId) -> Option<&LocalisedConnectivity> {
        match &self.index {
            PlanIndex::Ghost { slots } => match slots.get(proc.0)? {
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
}

/// Incremental builder grouping placements into transfers: folded into
/// strided runs for a regular plan, listed for an irregular one.
struct PlanBuilder {
    transfers: Vec<PairRuns>,
    /// `by_pair[src · width + dst]`: the index of the pair's transfer
    /// (`u32::MAX` until its first element).
    by_pair: Vec<u32>,
    width: usize,
    moved: usize,
    stayed: usize,
    needed: usize,
    encoding: Encoding,
}

/// How a plan's transfers are built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Encoding {
    /// Strided runs, equal pieces a constant stride apart folded into
    /// repetitions: a regular pattern over regular layouts.
    Folded,
    /// Contiguous runs: an access list over regular layouts.
    Runs,
    /// Offset lists, or contiguous runs where those are smaller: any plan
    /// over an `INDIRECT` layout.
    Listed,
}

/// The encoding of a plan over `dists` whose pattern `folds` where its
/// layouts are regular (a redistribution or a geometric halo, not an
/// access list).  An `INDIRECT` layout places elements by a mapping
/// array, so its strides repeat only by chance and its pieces are short:
/// its transfers are PARTI's index arrays.  A plan over regular layouts
/// allocates nothing per element.
fn encoding(dists: &[&Distribution], folds: bool) -> Encoding {
    match dists.iter().any(|dist| dist.dist_type().has_indirect()) {
        true => Encoding::Listed,
        false if folds => Encoding::Folded,
        false => Encoding::Runs,
    }
}

/// One transfer under construction.
struct PairRuns {
    src: ProcId,
    dst: ProcId,
    elements: usize,
    building: Building,
}

/// The encoding a [`PairRuns`] builds.
enum Building {
    /// Strided runs ([`PairRuns::append_run`]); `folds` says whether equal
    /// pieces a constant stride apart become repetitions.
    Runs {
        runs: Vec<PlanRun>,
        /// The transfer's strides, fixed by its first repeating run.
        strides: Option<(u32, u32)>,
        folds: bool,
    },
    /// Offset lists, each side a start until its first break, and the
    /// number of maximal contiguous pieces — the runs the same elements
    /// would take.
    Lists {
        src: SideBuf,
        dst: SideBuf,
        pieces: usize,
    },
}

/// One side of a transfer being listed.
enum SideBuf {
    Contiguous(usize),
    Listed(Vec<u32>),
}

impl SideBuf {
    /// Appends offsets `off..off + len` after the side's `n` (at least
    /// one) elements; returns whether they follow the last one.
    fn extend(&mut self, n: usize, off: usize, len: usize) -> bool {
        let offsets = off as u32..(off + len) as u32;
        match self {
            SideBuf::Contiguous(start) if *start + n == off => true,
            SideBuf::Contiguous(start) => {
                let mut listed = Vec::with_capacity(2 * (n + len));
                listed.extend(*start as u32..(*start + n) as u32);
                listed.extend(offsets);
                *self = SideBuf::Listed(listed);
                false
            }
            SideBuf::Listed(listed) => {
                // Never empty: it holds the `n` elements before.
                let follows = listed.last().map_or(0, |&last| last as usize + 1) == off;
                if len == 1 {
                    listed.push(off as u32);
                } else {
                    listed.extend(offsets);
                }
                follows
            }
        }
    }

    fn finish(self) -> Side {
        match self {
            SideBuf::Contiguous(start) => Side::Contiguous(start),
            SideBuf::Listed(listed) => Side::Listed(listed.into_boxed_slice()),
        }
    }
}

impl PairRuns {
    fn new(src: ProcId, dst: ProcId, encoding: Encoding) -> Self {
        let building = match encoding {
            Encoding::Folded | Encoding::Runs => Building::Runs {
                runs: Vec::new(),
                strides: None,
                folds: encoding == Encoding::Folded,
            },
            Encoding::Listed => Building::Lists {
                src: SideBuf::Contiguous(0),
                dst: SideBuf::Contiguous(0),
                pieces: 0,
            },
        };
        Self {
            src,
            dst,
            elements: 0,
            building,
        }
    }

    /// Appends `len` (at least one) elements travelling
    /// `src_off.. -> dst_off..`.
    fn append(&mut self, src_off: usize, dst_off: usize, len: usize) {
        let n = self.elements;
        self.elements += len;
        let Building::Lists { src, dst, pieces } = &mut self.building else {
            let mut done = 0;
            while done < len {
                let piece = u32::try_from(len - done).unwrap_or(u32::MAX);
                self.append_run(src_off + done, dst_off + done, piece);
                done += piece as usize;
            }
            return;
        };
        // An `INDIRECT` layout numbers its elements in `u32`
        // (`IndirectMap`), so every offset of a listed plan fits one.
        assert!(
            u32::try_from(src_off.max(dst_off) + len).is_ok(),
            "a listed offset exceeds u32"
        );
        if n == 0 {
            (*src, *dst, *pieces) = (
                SideBuf::Contiguous(src_off),
                SideBuf::Contiguous(dst_off),
                1,
            );
        } else {
            // Counted without a branch on the data: pieces are as long as a
            // coin toss on a scattered map.
            let follows = src.extend(n, src_off, len) & dst.extend(n, dst_off, len);
            *pieces += usize::from(!follows);
        }
    }

    /// Appends `len` (`1..=u32::MAX`) elements travelling
    /// `src_off.. -> dst_off..` to the runs, in one pass over nothing but
    /// the last run:
    ///
    /// * a piece that continues the last run's last repetition in both
    ///   offsets extends it (a repeating run gives that repetition up to a
    ///   new run first);
    /// * in a folding transfer, a piece of the last run's length, one
    ///   stride on from its last repetition, becomes its next repetition —
    ///   the transfer's strides fixed by the first fold, and at least the
    ///   length so repetitions never overlap;
    /// * anything else starts a run.
    ///
    /// Unfolded, the runs are exactly the maximal contiguous pieces, so a
    /// transfer never holds more runs than a contiguous run list would.
    fn append_run(&mut self, src_off: usize, dst_off: usize, len: u32) {
        let Building::Runs {
            runs,
            strides,
            folds,
        } = &mut self.building
        else {
            unreachable!("only runs are appended to");
        };
        if let Some(last) = runs.last_mut() {
            let (ss, ds) = strides.unwrap_or((0, 0));
            let reps = last.count as usize - 1;
            let tail_src = last.src_start + reps * ss as usize;
            let tail_dst = last.dst_start + reps * ds as usize;
            let end = last.len as usize;
            if tail_src + end == src_off && tail_dst + end == dst_off {
                if let Some(grown) = last.len.checked_add(len) {
                    if last.count == 1 {
                        last.len = grown;
                    } else {
                        last.count -= 1;
                        runs.push(PlanRun {
                            src_start: tail_src,
                            dst_start: tail_dst,
                            len: grown,
                            count: 1,
                        });
                    }
                    return;
                }
            }
            let step = |to: usize, from: usize| {
                to.checked_sub(from)
                    .and_then(|d| u32::try_from(d).ok())
                    .filter(|&d| d >= len)
            };
            if *folds && last.len == len && last.count < u32::MAX {
                if let (Some(a), Some(b)) = (step(src_off, tail_src), step(dst_off, tail_dst)) {
                    if *strides.get_or_insert((a, b)) == (a, b) {
                        last.count += 1;
                        return;
                    }
                }
            }
        }
        runs.push(PlanRun {
            src_start: src_off,
            dst_start: dst_off,
            len,
            count: 1,
        });
    }

    /// The built transfer.  Lists are kept only where they take fewer
    /// bytes than the contiguous runs of the same elements, which replace
    /// them otherwise (on a tie too: runs are what a regular plan walks).
    fn finish(self) -> Transfer {
        let pieces = match self.building {
            Building::Runs { runs, strides, .. } => {
                let (src_stride, dst_stride) = strides.unwrap_or((0, 0));
                Pieces::Runs {
                    runs: runs.into_boxed_slice(),
                    src_stride,
                    dst_stride,
                }
            }
            Building::Lists { src, dst, pieces } => {
                let sides = Sides {
                    src: src.finish(),
                    dst: dst.finish(),
                };
                if pieces * std::mem::size_of::<PlanRun>() <= sides.heap_bytes() {
                    Pieces::Runs {
                        runs: sides.runs(self.elements),
                        src_stride: 0,
                        dst_stride: 0,
                    }
                } else {
                    Pieces::Offsets(Box::new(sides))
                }
            }
        };
        Transfer {
            src: self.src,
            dst: self.dst,
            elements: self.elements,
            pieces,
        }
    }
}

impl PlanBuilder {
    /// A builder for pairs of processors below `procs` (the index grows if
    /// a larger id turns up).
    fn new(encoding: Encoding, procs: usize) -> Self {
        Self {
            transfers: Vec::new(),
            by_pair: vec![u32::MAX; procs * procs],
            width: procs,
            moved: 0,
            stayed: 0,
            needed: 0,
            encoding,
        }
    }

    /// Adds `len` elements travelling `src[src_off..] -> dst[dst_off..]`,
    /// appended to the pair's transfer as they arrive
    /// ([`PairRuns::append`]) — so a placement pushed as one stretch of
    /// `len` builds the same elements, in the same order, as `len` single
    /// elements would.  A zero-length piece adds nothing, not even its
    /// pair.
    fn push(&mut self, src: ProcId, dst: ProcId, src_off: usize, dst_off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let at = self.pair(src, dst);
        self.transfers[at].append(src_off, dst_off, len);
    }

    /// The index of the `src -> dst` transfer, created empty on first use.
    fn pair(&mut self, src: ProcId, dst: ProcId) -> usize {
        let width = src.0.max(dst.0) + 1;
        if width > self.width {
            self.width = width;
            self.by_pair = vec![u32::MAX; width * width];
            for (at, t) in self.transfers.iter().enumerate() {
                self.by_pair[t.src.0 * width + t.dst.0] = at as u32;
            }
        }
        let slot = &mut self.by_pair[src.0 * self.width + dst.0];
        if *slot == u32::MAX {
            *slot = self.transfers.len() as u32;
            self.transfers.push(PairRuns::new(src, dst, self.encoding));
        }
        *slot as usize
    }

    /// The built transfers, in the order their pairs first appeared; the
    /// moved and stayed counts and the processors touched are tallied
    /// from them.
    fn take_transfers(&mut self) -> Vec<Transfer> {
        self.by_pair.fill(u32::MAX);
        let transfers: Vec<Transfer> = std::mem::take(&mut self.transfers)
            .into_iter()
            .map(PairRuns::finish)
            .collect();
        for t in &transfers {
            if t.src == t.dst {
                self.stayed += t.elements;
            } else {
                self.moved += t.elements;
            }
            self.needed = self.needed.max(t.src.0 + 1).max(t.dst.0 + 1);
        }
        transfers
    }
}

/// Plans the data motion of `DISTRIBUTE` from `old` to `new` (paper
/// §3.2.2, step 3): every sender's local storage, walked as contiguous
/// [`vf_dist::LinearRun`]s, is cut into the stretches that `new` places on
/// one owner at consecutive local offsets — one lookup per stretch, from
/// the target's distribution functions — and the placements are folded
/// into strided runs per (sender, receiver) pair.  (An `INDIRECT` target
/// resolves a directory page per lookup through its translation table, and
/// its pairs are offset lists.)
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
    let mut b = PlanBuilder::new(encoding(&[old, new], true), procs_of(&[old, new]));
    place_senders(old, &mut resolver, &mut b);
    let transfers = b.take_transfers();
    // Receivers that exist in the new distribution but get no elements
    // still constrain the tracker size.
    let needed = b
        .needed
        .max(new.proc_ids().iter().map(|q| q.0 + 1).max().unwrap_or(1))
        .max(old.proc_ids().iter().map(|p| p.0 + 1).max().unwrap_or(1));
    let total_procs = new.procs().array().num_procs();
    Ok(CommPlan {
        kind: PlanKind::Redistribute,
        src_fingerprint: old.fingerprint(),
        total_procs,
        needed_procs: needed,
        pairs: PairIndex::of(&transfers, total_procs),
        transfers,
        moved_elements: b.moved,
        stayed_elements: b.stayed,
        directory: Mutex::new(resolver.finish(counters)),
        index: PlanIndex::Redistribute {
            new_dist: new.clone(),
        },
    })
}

/// Places every element `old`'s senders hold at its owner under
/// `resolver`, one stretch or directory page per lookup.  A replicated source holds one full
/// copy per processor of the view; only the canonical first copy sends
/// (sending from every replica would count every element once per replica
/// and let stale copies overwrite fresh data at the receivers).
fn place_senders(old: &Distribution, resolver: &mut OwnerResolver, b: &mut PlanBuilder) {
    let senders = if old.is_replicated() {
        &old.proc_ids()[..1]
    } else {
        old.proc_ids()
    };
    for &p in senders {
        for run in old.local_linear_runs(p) {
            resolver.place(p, run.global_start, run.len, |q, dst_off, k, len| {
                b.push(p, q, run.local_start + k, dst_off, len);
            });
        }
    }
}

/// The processors of the declaring arrays of `dists`: what a plan's pair
/// index spans.
fn procs_of(dists: &[&Distribution]) -> usize {
    let procs = dists.iter().map(|dist| dist.procs().array().num_procs());
    procs.max().unwrap_or(1)
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
    let mut b = PlanBuilder::new(encoding(&[dist], true), total_procs);

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
        // column-major order, grouped by owner and folded into strided runs
        // over (owner local, slot).
        let mut slot = 0usize;
        for_each_line(&segment, &extended, |origin, inside| {
            let (first, last) = (origin.coord(0), extended.dim(0).upper());
            let owned = segment.dim(0);
            let ends = [(first, owned.lower() - 1), (owned.upper() + 1, last)];
            let whole = [(first, last)];
            // Along dimension 0 a stretch of the frame is consecutive in
            // global offsets and in slots, so it is placed stretch by
            // stretch.
            for &(from, to) in if inside { &ends[..] } else { &whole[..] } {
                if from > to {
                    continue;
                }
                let point = origin.with_coord(0, from);
                let lin = domain.linearize(&point).expect("frame within the array");
                let len = (to - from + 1) as usize;
                resolver.place(p, lin, len, |owner, local, k, n| {
                    b.push(owner, p, local, slot + k, n);
                });
                slot += len;
            }
        });
        slots[p.0] = GhostSlots::Frame { segment, extended };
    }

    let fp = dist.fingerprint();
    let transfers = b.take_transfers();
    Ok(CommPlan {
        kind: PlanKind::Ghost,
        src_fingerprint: fp,
        total_procs,
        needed_procs: b
            .needed
            .max(dist.proc_ids().iter().map(|p| p.0 + 1).max().unwrap_or(1)),
        pairs: PairIndex::of(&transfers, total_procs),
        transfers,
        moved_elements: b.moved,
        stayed_elements: b.stayed,
        directory: Mutex::new(resolver.finish(counters)),
        index: PlanIndex::Ghost { slots },
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
    let mut b = PlanBuilder::new(encoding(&[dist], false), total_procs);
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
            // Consecutive ghosts are consecutive slots: resolved together.
            let mut slot = 0;
            while slot < local.ghosts.len() {
                let ghosts = &local.ghosts[slot..];
                let run = 1 + ghosts.windows(2).take_while(|w| w[1] == w[0] + 1).count();
                resolver.place(p, ghosts[0], run, |owner, offset, k, n| {
                    b.push(owner, p, offset, slot + k, n);
                });
                slot += run;
            }
        }
        slots[p.0] = GhostSlots::Listed {
            domain: domain.clone(),
            local: Box::new(local),
        };
    }
    let fp = dist.fingerprint();
    let transfers = b.take_transfers();
    Ok(CommPlan {
        kind: PlanKind::Ghost,
        src_fingerprint: fp,
        total_procs,
        needed_procs: b
            .needed
            .max(dist.proc_ids().iter().map(|p| p.0 + 1).max().unwrap_or(1)),
        pairs: PairIndex::of(&transfers, total_procs),
        transfers,
        moved_elements: b.moved,
        stayed_elements: b.stayed,
        directory: Mutex::new(resolver.map_or_else(Vec::new, |r| r.finish(counters))),
        index: PlanIndex::Ghost { slots },
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
        let (owner, local) = resolver.locate(*proc, lin);
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
    let mut b = PlanBuilder::new(encoding(&[dist], false), total_procs);
    for (proc, mut reqs) in requests.into_iter().enumerate() {
        reqs.sort_unstable();
        reqs.dedup();
        for (slot, &(owner, lin, local)) in reqs.iter().enumerate() {
            slots[proc].slot_of_lin.insert(lin, slot);
            b.push(ProcId(owner), ProcId(proc), local, slot, 1);
        }
        slots[proc].count = reqs.len();
    }
    let fp = dist.fingerprint();
    let transfers = b.take_transfers();
    Ok(CommPlan {
        kind: PlanKind::Gather,
        src_fingerprint: fp,
        total_procs,
        needed_procs: b
            .needed
            .max(dist.proc_ids().iter().map(|p| p.0 + 1).max().unwrap_or(1)),
        pairs: PairIndex::of(&transfers, total_procs),
        transfers,
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
    let total_procs = dist.procs().array().num_procs();
    let mut resolver = OwnerResolver::for_dist(dist, store);
    let mut ops = Vec::with_capacity(sources.len());
    let mut b = PlanBuilder::new(encoding(&[dist], false), total_procs);
    for (from, point) in sources {
        let lin = dist.domain().linearize(point)?;
        let (owner, local) = resolver.locate(*from, lin);
        ops.push(ScatterOp { owner, local });
        // Runs are not needed for scatter (values arrive with the updates);
        // the per-pair element counts drive the message aggregation.
        b.push(*from, owner, 0, 0, 1);
    }
    // Collapse the dummy offsets: only the counts matter.
    let mut transfers = b.take_transfers();
    for t in &mut transfers {
        t.pieces = Pieces::Runs {
            runs: Box::default(),
            src_stride: 0,
            dst_stride: 0,
        };
    }
    let fp = dist.fingerprint();
    Ok(CommPlan {
        kind: PlanKind::Scatter,
        src_fingerprint: fp,
        total_procs,
        needed_procs: b
            .needed
            .max(dist.proc_ids().iter().map(|p| p.0 + 1).max().unwrap_or(1)),
        pairs: PairIndex::of(&transfers, total_procs),
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
    /// pair for block-family and strided layouts, an offset per *element*
    /// for scattered `INDIRECT` targets — so the cache bounds the
    /// estimated bytes it holds ([`CommPlan::estimated_bytes`]) rather than
    /// the entry count: a drifting PIC load producing ever-new `BOUNDS`
    /// partitions evicts many small block schedules or few huge irregular
    /// ones, either way staying within the same memory.
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
    use vf_dist::{DimDist, DistType, ProcessorView};
    use vf_machine::CostModel;

    impl Transfer {
        /// The strided runs of a transfer stored as runs.
        pub(crate) fn runs(&self) -> &[PlanRun] {
            match &self.pieces {
                Pieces::Runs { runs, .. } => runs,
                Pieces::Offsets(_) => panic!("{:?} -> {:?} is listed", self.src, self.dst),
            }
        }
    }

    impl CommPlan {
        /// The owners contacted by `proc`, sorted — the PARTI schedule
        /// query.
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
            assert_eq!(t.runs().len(), 1, "{:?} -> {:?} fragmented", t.src, t.dst);
            assert_eq!(t.runs()[0].count, 1, "a contiguous overlap does not repeat");
            assert_eq!(t.elements, t.runs()[0].len as usize);
        }
        // The total run count is bounded by the pair count, not the element
        // count — the memory argument for run schedules.
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
        let err = crate::execute_redistribute(&mut a, &plan, &tracker, &crate::SerialExecutor);
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

    /// The stretch and page queries the redistribution planner makes for
    /// `old -> new`, through the planner's own walk (checked to build the
    /// same transfers as [`plan_redistribute`]), with the translation
    /// lookups of an `INDIRECT` target.
    fn redistribute_lookups(old: &Distribution, new: &Distribution) -> (usize, TranslationStats) {
        let store = PlanCache::new();
        let mut resolver = OwnerResolver::for_dist(new, &store);
        let mut b = PlanBuilder::new(encoding(&[old, new], true), procs_of(&[old, new]));
        place_senders(old, &mut resolver, &mut b);
        assert_eq!(
            b.take_transfers(),
            plan_redistribute(old, new).unwrap().transfers
        );
        let lookups = resolver.lookups;
        let mut counters = TranslationStats::default();
        resolver.finish(&mut counters);
        (lookups, counters)
    }

    #[test]
    fn the_planner_pays_per_stretch_not_per_element() {
        let square = |t: DistType| {
            Distribution::new(t, IndexDomain::d2(1024, 1024), ProcessorView::linear(4)).unwrap()
        };
        let columns = square(DistType::columns());
        // (:,BLOCK) -> (BLOCK,:): four stretches per column of 1024.
        let (lookups, _) = redistribute_lookups(&columns, &square(DistType::rows()));
        assert!(lookups <= 4096, "{lookups} lookups");
        // (:,BLOCK) -> (CYCLIC(8),:): one stretch per block of 8.
        let cyclic8 = DistType::new(vec![DimDist::Cyclic(8), DimDist::NotDistributed]);
        let (lookups, _) = redistribute_lookups(&columns, &square(cyclic8));
        assert!(lookups <= 131_072, "{lookups} lookups");
        // An INDIRECT target resolves through the translation table, one
        // directory page per lookup: no more lookups than the pieces the
        // senders' runs are cut into at page boundaries.  The counters are
        // those of one lookup per element, replayed on a fresh table.
        let n = 10_000;
        let (block, scattered) = (dist_1d(DistType::block1d(), n, 4), indirect_1d(n, 4, 3));
        let (lookups, table) = redistribute_lookups(&block, &scattered);
        let mut pieces = 0;
        for &p in block.proc_ids() {
            for run in block.local_linear_runs(p) {
                let (first, last) = (run.global_start, run.global_start + run.len - 1);
                pieces += last / translation::DEFAULT_PAGE_SIZE
                    - first / translation::DEFAULT_PAGE_SIZE
                    + 1;
            }
        }
        assert!(lookups <= pieces, "{lookups} lookups for {pieces} pieces");
        let replay = translation::table_for(&scattered);
        for &p in block.proc_ids() {
            for run in block.local_linear_runs(p) {
                for lin in run.global_start..run.global_start + run.len {
                    replay.lookup_from(p, lin);
                }
            }
        }
        assert_eq!(table, replay.stats());
        assert!(table.page_fetches > 0 && table.cache_hits > 0 && table.home_hits > 0);
    }

    /// A BLOCK -> INDIRECT plan over 1 Mi elements on 4 processors, owners
    /// drawn at random: every transfer's source side is a list and its
    /// destination side a start, so the plan keeps about 4 bytes per
    /// element beside the target distribution it sizes new locals from.
    #[test]
    fn a_large_indirect_plan_keeps_at_most_eight_bytes_per_moved_element() {
        let n = 1 << 20;
        let mut state = 1u64;
        let owners = (0..n).map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as usize % 4
        });
        let map = vf_dist::IndirectMap::new(owners.collect()).unwrap();
        let new = dist_1d(DistType::indirect1d(Arc::new(map)), n, 4);
        let old = dist_1d(DistType::block1d(), n, 4);
        let (lookups, _) = redistribute_lookups(&old, &new);
        assert_eq!(lookups, n / translation::DEFAULT_PAGE_SIZE);
        let plan = plan_redistribute(&old, &new).unwrap();
        for t in plan.transfers() {
            let Pieces::Offsets(sides) = &t.pieces else {
                panic!("{:?} -> {:?} kept runs", t.src, t.dst);
            };
            assert!(matches!(sides.src, Side::Listed(_)));
            assert!(matches!(sides.dst, Side::Contiguous(_)));
        }
        let kept = plan.estimated_bytes() - new.estimated_bytes();
        let per_element = kept as f64 / plan.moved_elements() as f64;
        assert!(
            per_element <= 8.0,
            "{per_element:.2} bytes per moved element"
        );
    }

    #[test]
    fn estimated_bytes_track_run_counts() {
        // A strided cyclic target folds into one repeating run per pair,
        // as small to keep as the handful-of-runs block shift over the same
        // domain; a scattered INDIRECT target keeps offset lists and is
        // estimated larger.
        let n = 256usize;
        let block = dist_1d(DistType::block1d(), n, 4);
        let cyclic = dist_1d(DistType::cyclic1d(1), n, 4);
        let gen = dist_1d(DistType::gen_block1d(vec![32, 96, 64, 64]), n, 4);
        let strided = plan_redistribute(&block, &cyclic).unwrap();
        let compact = plan_redistribute(&block, &gen).unwrap();
        for t in strided.transfers() {
            let Pieces::Runs {
                runs,
                src_stride,
                dst_stride,
            } = &t.pieces
            else {
                panic!("a regular plan keeps its runs");
            };
            assert_eq!(runs.len(), 1, "{:?} -> {:?}", t.src, t.dst);
            assert_eq!((*src_stride, *dst_stride), (4, 1));
        }
        // The scattered target keeps a 4-byte offset per element on its
        // scattered side: more than either regular plan keeps in all, even
        // without the mapping array the target distribution carries.
        let target = scattered_1d(n, 4);
        let scattered = plan_redistribute(&block, &target).unwrap();
        let lists = scattered.estimated_bytes() - target.estimated_bytes();
        assert!(lists >= n * std::mem::size_of::<u32>(), "{lists}");
        assert!(lists > strided.estimated_bytes() && lists > compact.estimated_bytes());
    }

    /// An `INDIRECT` layout of `n` elements over `p` processors with a
    /// scrambled map: pieces of every length, a constant stride only by
    /// chance.
    fn scattered_1d(n: usize, p: usize) -> Distribution {
        let owner = |i: usize| (i.wrapping_mul(2_654_435_761) >> 7) % p;
        let map = vf_dist::IndirectMap::from_fn(n, owner).unwrap();
        dist_1d(DistType::indirect1d(Arc::new(map)), n, p)
    }

    /// The contiguous run list of `t` — its elements in order, merged
    /// wherever both offsets continue — as `(src, dst, len)`.
    fn contiguous_runs(t: &Transfer) -> Vec<(usize, usize, usize)> {
        let mut runs: Vec<(usize, usize, usize)> = Vec::new();
        for run in t.spans() {
            for k in 0..run.count {
                let (s, d) = (
                    run.src.start + k * run.src_step,
                    run.dst.start + k * run.dst_step,
                );
                match runs.last_mut() {
                    Some(last) if last.0 + last.2 == s && last.1 + last.2 == d => last.2 += run.len,
                    _ => runs.push((s, d, run.len)),
                }
            }
        }
        runs
    }

    #[test]
    fn a_listed_walk_yields_every_element_in_order_across_batches() {
        // Pieces of 1 to 3·WALK_BATCH elements, so pieces span whole
        // batches, and an element count that ends inside a batch.
        let mut state = 7u64;
        let mut lens = Vec::new();
        while lens.iter().sum::<usize>() < 20 * WALK_BATCH {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let len = match (state >> 33) % 4 {
                0 => 1 + (state >> 40) as usize % (3 * WALK_BATCH),
                _ => 1 + (state >> 40) as usize % 3,
            };
            lens.push(len);
        }
        let n: usize = lens.iter().sum();
        assert_ne!(n % WALK_BATCH, 0);
        // Piece k starts at 1000·k on a listed side; a side broken every
        // third element breaks pieces of its own.
        let listed: Vec<u32> = lens
            .iter()
            .enumerate()
            .flat_map(|(k, &len)| (0..len).map(move |i| (1000 * k + i) as u32))
            .collect();
        let thirds: Vec<u32> = (0..n as u32).map(|i| i + i / 3).collect();
        let list = |offsets: &[u32]| Side::Listed(offsets.into());
        for (src, dst) in [
            (list(&listed), Side::Contiguous(5)),
            (Side::Contiguous(5), list(&listed)),
            (list(&listed), list(&thirds)),
            (list(&thirds), list(&listed)),
        ] {
            let at = |side: &Side, i: usize| match side {
                Side::Contiguous(start) => start + i,
                Side::Listed(offsets) => offsets[i] as usize,
            };
            let elements: Vec<_> = (0..n).map(|i| (at(&src, i), at(&dst, i), 1)).collect();
            let mut pieces: Vec<(usize, usize, usize)> = Vec::new();
            for &(s, d, _) in &elements {
                match pieces.last_mut() {
                    Some(last) if last.0 + last.2 == s && last.1 + last.2 == d => last.2 += 1,
                    _ => pieces.push((s, d, 1)),
                }
            }
            let sides = Sides { src, dst };
            let runs = sides.runs(n);
            let run = |r: &PlanRun| (r.src_start, r.dst_start, r.len as usize);
            assert_eq!(runs.iter().map(run).collect::<Vec<_>>(), pieces);
            assert!(runs.iter().all(|r| r.count == 1));
            let t = Transfer {
                src: ProcId(0),
                dst: ProcId(1),
                elements: n,
                pieces: Pieces::Offsets(Box::new(sides)),
            };
            // One element at a time, and as the executors take it.
            let span = |r: RunSpan| {
                assert_eq!(r.count, 1);
                (r.src.start, r.dst.start, r.len)
            };
            let mut walked = Vec::new();
            for r in t.spans() {
                walked.push(span(r));
            }
            assert_eq!(walked, elements);
            let mut folded = Vec::new();
            t.spans().for_each(|r| folded.push(span(r)));
            assert_eq!(folded, elements);
        }
    }

    #[test]
    fn an_indirect_plan_stores_the_smaller_encoding_at_its_size() {
        use std::mem::size_of;
        // Offset lists live behind one box, so neither a run nor a
        // transfer grew.
        #[cfg(target_pointer_width = "64")]
        assert_eq!((size_of::<PlanRun>(), size_of::<Transfer>()), (24, 48));
        let n = 4096;
        let block = dist_1d(DistType::block1d(), n, 4);
        for (old, new, listed) in [
            (block.clone(), scattered_1d(n, 4), "src"),
            (scattered_1d(n, 4), block.clone(), "dst"),
            (scattered_1d(n, 3), scattered_1d(n, 4), "both"),
            (block.clone(), indirect_1d(n, 4, 3), "src"),
        ] {
            // Every transfer keeps whichever of runs and lists is smaller
            // and walks as its contiguous runs or element by element; the
            // plan is estimated at exactly what it stores.
            let plan = plan_redistribute(&old, &new).unwrap();
            let mut stored = 0;
            for t in plan.transfers() {
                let pieces = contiguous_runs(t);
                let walked: Vec<_> = t
                    .spans()
                    .map(|r| (r.src.start, r.dst.start, r.len))
                    .collect();
                let as_runs = pieces.len() * size_of::<PlanRun>();
                match &t.pieces {
                    Pieces::Runs { runs, .. } => {
                        assert_eq!(pieces, walked);
                        assert!(
                            runs.iter().all(|r| r.count == 1),
                            "an INDIRECT plan folds nothing"
                        );
                        let breaks = |side: fn(&(usize, usize, usize)) -> usize| {
                            let ends = pieces
                                .windows(2)
                                .map(|w| (side(&w[0]) + w[0].2, side(&w[1])));
                            ends.filter(|(end, next)| end != next).count()
                        };
                        let listed =
                            usize::from(breaks(|p| p.0) > 0) + usize::from(breaks(|p| p.1) > 0);
                        let as_lists = size_of::<Sides>() + listed * t.elements * size_of::<u32>();
                        assert!(as_runs <= as_lists);
                    }
                    Pieces::Offsets(sides) => {
                        assert_eq!(walked.len(), t.elements);
                        assert!(walked.iter().all(|&(_, _, len)| len == 1));
                        assert!(t.pieces.heap_bytes() < as_runs);
                        let is_listed = |side: &Side| matches!(side, Side::Listed(_));
                        let which = match (is_listed(&sides.src), is_listed(&sides.dst)) {
                            (true, true) => "both",
                            (true, false) => "src",
                            (false, true) => "dst",
                            (false, false) => panic!("a contiguous transfer is one run"),
                        };
                        if t.elements > 8 {
                            assert_eq!(which, listed, "{:?} -> {:?}", t.src, t.dst);
                        }
                    }
                }
                stored += size_of::<Transfer>() + t.pieces.heap_bytes();
            }
            let expected = size_of::<CommPlan>() + stored + new.estimated_bytes();
            assert_eq!(plan.estimated_bytes(), expected);
        }
        // The same scrambled pieces between regular layouts would fold
        // where a stride repeats: a BLOCK -> CYCLIC(1) plan is one
        // repeating run per pair.
        let cyclic = plan_redistribute(&block, &dist_1d(DistType::cyclic1d(1), n, 4)).unwrap();
        assert!(cyclic.transfers().iter().all(|t| t.runs().len() == 1));
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
