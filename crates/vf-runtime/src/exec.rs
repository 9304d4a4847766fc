//! Plan execution: the engines, and the one seam that picks the transport.
//!
//! Planning and execution are separate (the PARTI inspector / executor
//! split, see [`crate::plan`]): a statement verb — `redistribute`,
//! `exchange_ghosts`, `execute_gather`, `assign`, and the class verbs —
//! validates and sizes, then hands its plan to a [`PlanExecutor`] as a
//! [`FusedPlan`] — a single array is a class of one
//! (`FusedPlan::fuse_one`).  The executor, not the caller, decides how
//! the data moves.  There are two engines:
//!
//! * **wire pipeline** — a fused schedule (one message per processor pair
//!   for the whole class) on a shared-memory executor: one exchange state
//!   with one stage body (a destination's buffers, a pair's packed frame)
//!   and one `deliver` per pair (`WireExchange`).  The mode is *when
//!   `deliver` runs*:
//!   [`PlanExecutor::execute_fused`] (blocking) delivers each pair in its
//!   destination's work item, inside one pool dispatch — and with no fault
//!   injector attached stages no wire, copying each pair's runs straight
//!   into destinations built from [`RetiredLocals`]; the split verbs
//!   ([`crate::ghost::exchange_class_ghosts_split`],
//!   [`crate::redistribute_split`]) stage at the post and stream the
//!   deliveries until the wait ([`SplitPhaseExchange`]) on the pool the
//!   executor names ([`PlanExecutor::streaming_pool`]), if any.
//! * **channel frames** — [`crate::shard::ShardedExecutor`] (and so
//!   [`ExecBackend::Sharded`]) overrides [`PlanExecutor::execute_fused`]:
//!   each rank reads only its own segment and every crossing pair travels
//!   over a real [`vf_machine::spmd`] channel — from every call site,
//!   because the override is in the executor.  It names no streaming pool:
//!   a sharded split delivers at the post, in shared memory.
//!
//! The shared-memory executors are [`SerialExecutor`] (the calling thread)
//! and [`ThreadedExecutor`] (destinations partitioned over a persistent
//! [`WorkerPool`]); [`ExecBackend`] selects one at run time.
//!
//! Every engine charges the modelled communication with the *post/wait*
//! split of [`CommTracker::post_many`] / [`CommTracker::wait`]: the
//! messages are posted before the copies start and completed after they
//! finish, the way a real machine overlaps non-blocking sends with the
//! local packing work.  Backends only differ in *how* the copies run,
//! never in what they produce or charge (asserted for every verb on every
//! backend by `tests/suite/verbs.rs`).

use crate::plan::{CommPlan, PlanKind, Transfer};
use crate::{Element, Result, RuntimeError};
use std::borrow::Borrow;
use std::iter::repeat_with;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use vf_machine::{pool, trace, CommTracker, JobTicket, WorkerPool};

/// What executing a plan's communication charged to the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Messages charged.
    pub messages: usize,
    /// Bytes charged.
    pub bytes: usize,
}

/// A backend that executes communication plans: the seam where a
/// statement's transport is chosen.
///
/// Verbs call [`PlanExecutor::execute_fused`] — with a class, or with one
/// array's plan as a class of one; the provided body is the shared-memory
/// wire pipeline on the calling thread.  A backend says *where* per-owner
/// work runs through the `run_owned` hook ([`ThreadedExecutor`] also fans
/// the pipeline's destinations out over its pool); a backend with a
/// different transport overrides `execute_fused` instead
/// ([`crate::shard::ShardedExecutor`]), and `streaming_pool` answers for the
/// split mode.  Whatever the backend, buffers and charges are bit-identical
/// to [`SerialExecutor`]'s.
pub trait PlanExecutor {
    /// Human-readable backend name (used by reports).
    fn name(&self) -> &'static str;

    /// Runs `work` once on each of `items` — independent per-processor
    /// work (an owner's updates, a rank's kernel) touching `bytes` of data
    /// in all.  This is the only parallelism over owners a backend may
    /// exploit; the provided body runs the items in order on the calling
    /// thread, and whatever a backend does instead must leave every item
    /// as this would.
    fn run_owned<I: Send>(&self, _bytes: usize, items: Vec<I>, work: &(dyn Fn(&mut I) + Sync)) {
        for mut item in items {
            work(&mut item);
        }
    }

    /// Applies owner-partitioned combine updates: `updates[p]` is the
    /// in-order list of `(local offset, value)` updates to apply to
    /// `locals[p]` with `combine(current, value)`.
    ///
    /// The combine function is order-sensitive *per owner* (updates to one
    /// element must apply in program order), but owners are independent —
    /// that is the partition [`crate::parti::execute_scatter`] feeds this
    /// method, which hands the owners that have updates to
    /// [`PlanExecutor::run_owned`].
    fn run_updates<T: Element>(
        &self,
        locals: &mut [Vec<T>],
        updates: &[Vec<(usize, T)>],
        combine: &(dyn Fn(T, T) -> T + Sync),
    ) {
        let owners: Vec<_> = locals
            .iter_mut()
            .zip(updates)
            .filter(|(_, ups)| !ups.is_empty())
            .collect();
        let bytes = updates.iter().map(|u| u.len() * size_of::<T>()).sum();
        self.run_owned(bytes, owners, &|(buf, ups)| {
            for &(off, v) in *ups {
                buf[off] = combine(buf[off], v);
            }
        });
    }

    /// Executes a fused schedule — the **wire pipeline**, blocking: the
    /// single message per crossing pair is posted, every destination is
    /// staged and each of its arriving pairs delivered, and the batch
    /// completes with the pack/unpack seconds credited as copy-overlap
    /// compute.  The provided body walks the destinations in order on the
    /// calling thread.  `srcs[i]` / `dst_sizes[i]` are part `i`'s
    /// per-processor source buffers and destination sizes; returns
    /// per-part, per-processor buffers.  The destinations are built from
    /// `spares` where they fit ([`RetiredLocals`]) — stale contents and
    /// all, so only a redistribution, whose runs write every destination
    /// element, passes any; pass `RetiredLocals::default()` for fresh
    /// buffers.
    ///
    /// # Errors
    /// [`RuntimeError::CorruptMessage`] if a framed wire buffer fails
    /// validation and cannot be repaired (plus [`RuntimeError::Channel`]
    /// on a channel transport) — the posted charges are settled before
    /// the error propagates, so the tracker never carries a leaked
    /// pending batch.
    fn execute_fused<T: Element>(
        &self,
        fused: &FusedPlan,
        srcs: &[&[Vec<T>]],
        dst_sizes: &[Vec<usize>],
        spares: RetiredLocals<T>,
        tracker: &CommTracker,
    ) -> Result<(Vec<Vec<Vec<T>>>, ExecReport)> {
        execute_fused_blocking(fused, srcs, dst_sizes, spares, tracker, None)
    }

    /// Whether [`PlanExecutor::execute_fused`] builds destinations from
    /// the [`RetiredLocals`] it is handed — true of the shared-memory wire
    /// pipeline.  A transport whose ranks allocate their own segments
    /// frees them instead, and a caller then keeps none.
    fn recycles_locals(&self) -> bool {
        true
    }

    /// The pool on which a split exchange moving `bytes` streams its
    /// deliveries until the wait ([`SplitPhaseExchange`]); `None`, the
    /// provided answer, delivers every pair at the post.
    fn streaming_pool(&self, _bytes: usize) -> Option<&Arc<WorkerPool>> {
        None
    }
}

/// Executes one array's `plan` as a class of one
/// ([`FusedPlan::fuse_one`], on the plan's own pair index) — the engine
/// call of every single-array verb.  `src` / `dst_sizes` are the array's
/// per-processor source buffers and destination sizes; returns its
/// destination buffers and what was charged.
///
/// # Errors
/// As [`PlanExecutor::execute_fused`].
pub(crate) fn execute_one<T: Element, E: PlanExecutor>(
    executor: &E,
    plan: &Arc<CommPlan>,
    src: &[Vec<T>],
    dst_sizes: Vec<usize>,
    tracker: &CommTracker,
) -> Result<(Vec<Vec<T>>, ExecReport)> {
    let fused = FusedPlan::fuse_one(Arc::clone(plan));
    let fresh = RetiredLocals::default();
    let (mut bufs, report) =
        executor.execute_fused(&fused, &[src], &[dst_sizes], fresh, tracker)?;
    Ok((bufs.pop().unwrap_or_default(), report))
}

/// Completes `pending`, crediting `copy_secs` (per-processor copy-phase
/// seconds) as both local compute time and communication overlap.
pub(crate) fn finish_with_copy_credit(
    tracker: &CommTracker,
    pending: vf_machine::PendingSends,
    copy_secs: &[f64],
) {
    if copy_secs.is_empty() {
        tracker.wait(pending, 0.0);
        return;
    }
    for (p, &s) in copy_secs.iter().enumerate() {
        tracker.compute_seconds(p, s);
    }
    tracker.wait_overlapped(pending, copy_secs);
}

/// Copies `t`'s runs from the sender's buffer `src` straight into the
/// receiver's buffer `dst` — how every engine moves the elements that stay
/// on their processor, and how the blocking wire pipeline delivers a pair
/// when no wire is staged.  A lone element is one assignment, a run that
/// does not repeat one copy, a repeating run of single elements one
/// strided gather / scatter loop, any other run one copy per repetition.
pub(crate) fn copy_runs<T: Copy>(t: &Transfer, src: &[T], dst: &mut [T]) {
    t.spans().for_each(|run| match (run.len, run.count) {
        (1, 1) => dst[run.dst.start] = src[run.src.start],
        (_, 1) => dst[run.dst].copy_from_slice(&src[run.src]),
        (1, _) => {
            let to = dst[run.dst].iter_mut().step_by(run.dst_step);
            let from = src[run.src].iter().step_by(run.src_step);
            to.zip(from).for_each(|(d, s)| *d = *s);
        }
        (len, _) => {
            let to = dst[run.dst].chunks_mut(run.dst_step);
            let from = src[run.src].chunks(run.src_step);
            to.zip(from)
                .for_each(|(d, s)| d[..len].copy_from_slice(&s[..len]));
        }
    });
}

/// Replays `t`'s runs against the part's window `wire` of a received
/// message, landing every element at its own offset of `dst` (ghost slot /
/// new local offset — untouched by fusion).
fn unpack_runs<T: Copy>(t: &Transfer, wire: &[T], dst: &mut [T]) {
    let mut rest = wire;
    t.spans().for_each(|run| {
        let (payload, tail) = rest.split_at(run.len * run.count);
        match (run.len, run.count) {
            (1, 1) => dst[run.dst.start] = payload[0],
            (_, 1) => dst[run.dst].copy_from_slice(payload),
            (1, _) => {
                let to = dst[run.dst].iter_mut().step_by(run.dst_step);
                to.zip(payload).for_each(|(d, s)| *d = *s);
            }
            (len, _) => {
                let to = dst[run.dst].chunks_mut(run.dst_step);
                to.zip(payload.chunks(len))
                    .for_each(|(d, s)| d[..len].copy_from_slice(s));
            }
        }
        rest = tail;
    });
}

/// The in-process serial backend: every copy runs on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl PlanExecutor for SerialExecutor {
    fn name(&self) -> &'static str {
        "serial"
    }
}

/// The threaded backend: the destination buffers are partitioned
/// round-robin over the parked workers of a persistent [`WorkerPool`],
/// each of which allocates and fills its share (no two workers ever touch
/// the same buffer, so no locking is needed on the data path).  A dispatch
/// is a condvar wake, not a thread spawn — [`ThreadedExecutor::auto`] and
/// [`ExecBackend::auto`] share the process-wide pool.
///
/// Threading only pays above a copy-volume cutoff — below it (or with a
/// single worker) the backend degrades to the serial loop while keeping the
/// post/wait charge order, so results and accounting are identical either
/// way.
#[derive(Debug, Clone)]
pub struct ThreadedExecutor {
    pool: Arc<WorkerPool>,
    /// Explicit cutoff override; `None` is the pooled default.
    cutoff_override: Option<usize>,
}

impl ThreadedExecutor {
    /// Default copy volume (in bytes) below which dispatch is not worth
    /// waking the workers: a pool wake costs a few microseconds
    /// (`pool.dispatch_us` in the `perf` benchmark), the memcpy equivalent
    /// of roughly this many bytes.
    pub const DEFAULT_POOLED_CUTOFF_BYTES: usize = 32 * 1024;

    /// A threaded executor with one worker per available hardware core,
    /// submitting to the process-wide persistent pool
    /// ([`vf_machine::pool::global`]).
    pub fn auto() -> Self {
        Self::with_pool(pool::global())
    }

    /// A threaded executor submitting to `pool` (one logical worker per
    /// pool worker).
    pub fn with_pool(pool: Arc<WorkerPool>) -> Self {
        Self {
            pool,
            cutoff_override: None,
        }
    }

    /// Overrides the serial/parallel cutoff in bytes: plans whose copy
    /// volume is below the cutoff run on the calling thread (0 forces the
    /// threaded path for every plan — used by the equivalence tests).
    /// [`ExecBackend::auto`] additionally honours the `VF_EXEC_CUTOFF`
    /// environment variable (bytes), for A/B runs of the `perf` benchmark.
    pub fn with_serial_cutoff(mut self, bytes: usize) -> Self {
        self.cutoff_override = Some(bytes);
        self
    }

    /// The cutoff currently in effect (override, or
    /// [`ThreadedExecutor::DEFAULT_POOLED_CUTOFF_BYTES`]).
    fn effective_serial_cutoff(&self) -> usize {
        self.cutoff_override
            .unwrap_or(Self::DEFAULT_POOLED_CUTOFF_BYTES)
    }

    /// Whether a job of `copy_bytes` runs on the calling thread.
    fn runs_serially(&self, copy_bytes: usize) -> bool {
        self.pool.workers() <= 1 || copy_bytes < self.effective_serial_cutoff()
    }

    /// Runs `work(i)` for each of `num_items` items, dealt round-robin
    /// over pool ranks `0..width` in one dispatch: item `i` runs on rank
    /// `i % width`, each rank runs its items in order, and only as many
    /// ranks wake as got an item.  The threaded backend's one fan-out:
    /// [`PlanExecutor::run_owned`] and the wire pipeline's destinations
    /// both run through it.
    fn fan_out(&self, width: usize, num_items: usize, work: &(dyn Fn(usize) + Sync)) {
        let width = width.min(num_items);
        if width > 0 {
            self.pool.run_limited(width, &|rank| {
                (rank..num_items).step_by(width).for_each(work)
            });
        }
    }

    /// Runs `work` once for each of `num_items` destinations over the pool
    /// ([`ThreadedExecutor::fan_out`]).
    ///
    /// Under fault injection the dispatch degrades rather than fails: a
    /// fired worker-death marks one worker dead in the tracker's injector,
    /// and as long as any workers are marked dead only the survivors take
    /// part — the same pool at the survivors' width while more than one
    /// survives, a serial loop on the calling thread otherwise.  Every
    /// item still runs exactly once, so the produced buffers stay bitwise
    /// identical to the healthy path.
    fn dispatch(&self, tracker: &CommTracker, num_items: usize, work: impl Fn(usize) + Sync) {
        let mut width = self.pool.workers();
        if let Some(inj) = tracker.fault_injector() {
            if inj.worker_death() {
                inj.mark_worker_dead();
                tracker.record_fault();
                tracker.record_fallback();
            }
            width = width.saturating_sub(inj.dead_workers());
        }
        if width > 1 {
            self.fan_out(width, num_items, &work);
        } else {
            (0..num_items).for_each(work);
        }
    }
}

impl PlanExecutor for ThreadedExecutor {
    fn name(&self) -> &'static str {
        "threaded"
    }

    /// Above the cutoff the items are dealt round-robin over the whole
    /// pool (`ThreadedExecutor::fan_out`).
    fn run_owned<I: Send>(&self, bytes: usize, items: Vec<I>, work: &(dyn Fn(&mut I) + Sync)) {
        if self.runs_serially(bytes) {
            return SerialExecutor.run_owned(bytes, items, work);
        }
        // The cells only pass `&mut` items through the shared job closure:
        // one uncontended lock per item.
        let cells: Vec<Mutex<I>> = items.into_iter().map(Mutex::new).collect();
        self.fan_out(self.pool.workers(), cells.len(), &|i| {
            work(&mut lock(&cells[i]))
        });
    }

    /// The wire pipeline with its destinations fanned out over the pool:
    /// one dispatch, one work item per destination (inline below the
    /// cutoff, exactly as the provided body runs them).
    fn execute_fused<T: Element>(
        &self,
        fused: &FusedPlan,
        srcs: &[&[Vec<T>]],
        dst_sizes: &[Vec<usize>],
        spares: RetiredLocals<T>,
        tracker: &CommTracker,
    ) -> Result<(Vec<Vec<Vec<T>>>, ExecReport)> {
        execute_fused_blocking(fused, srcs, dst_sizes, spares, tracker, Some(self))
    }

    /// The pool, above the same cutoff as the blocking path.
    fn streaming_pool(&self, bytes: usize) -> Option<&Arc<WorkerPool>> {
        (!self.runs_serially(bytes)).then_some(&self.pool)
    }
}

/// A runtime-selectable execution backend.
#[derive(Debug, Clone, Default)]
pub enum ExecBackend {
    /// In-process serial execution ([`SerialExecutor`]).
    #[default]
    Serial,
    /// Threaded per-destination execution ([`ThreadedExecutor`]).
    Threaded(ThreadedExecutor),
    /// Distributed-memory execution ([`crate::shard::ShardedExecutor`]):
    /// each rank reads only its own segment and every crossing pair of
    /// every plan — one array or a class — travels as a frame over a real
    /// [`vf_machine::spmd`] channel.
    Sharded(crate::shard::ShardedExecutor),
}

impl ExecBackend {
    /// The best backend for this host: threaded over the process-wide
    /// persistent worker pool when more than one hardware core is
    /// available, serial otherwise.
    ///
    /// The serial/parallel cutoff can be overridden — to A/B it against
    /// the measured `pool.dispatch_us` of the `perf` benchmark — through
    /// the `VF_EXEC_CUTOFF` environment variable (bytes; must be positive
    /// — a zero value is rejected with a warning and the default cutoff is
    /// kept, since forcing the threaded path for every plan is what
    /// [`ThreadedExecutor::with_serial_cutoff`] is for).
    ///
    /// With `VF_EXEC_BACKEND=sharded` the backend is
    /// [`crate::shard::ShardedExecutor::new`], whose receive bound is
    /// tunable through `VF_SHARD_TIMEOUT`.
    pub fn auto() -> Self {
        let var = |name| std::env::var(name).ok();
        Self::with_overrides(
            ThreadedExecutor::auto(),
            var("VF_EXEC_CUTOFF").as_deref(),
            var("VF_EXEC_BACKEND").as_deref(),
        )
    }

    /// [`ExecBackend::auto`] as a function of its inputs: the host's
    /// threaded executor and the raw values of `VF_EXEC_CUTOFF` and
    /// `VF_EXEC_BACKEND` (`None`: unset).
    fn with_overrides(
        mut threaded: ThreadedExecutor,
        cutoff: Option<&str>,
        backend: Option<&str>,
    ) -> Self {
        if let Some(raw) = cutoff {
            match raw.trim().parse::<usize>() {
                // A zero cutoff would thread every one-element plan — far
                // more likely a stray `VF_EXEC_CUTOFF=` / misunderstanding
                // than intent.  Warn and keep the default rather than
                // silently measuring a degenerate configuration.
                Ok(0) => eprintln!(
                    "warning: VF_EXEC_CUTOFF=0 is not honoured (it would force threaded \
                     dispatch for every plan); keeping the default cutoff — use \
                     ThreadedExecutor::with_serial_cutoff(0) to force threading in code"
                ),
                Ok(cutoff) => threaded = threaded.with_serial_cutoff(cutoff),
                // A set-but-unparseable override must not be measured
                // silently as the default: warn loudly and keep going.
                Err(_) => eprintln!(
                    "warning: ignoring unparseable VF_EXEC_CUTOFF={raw:?} (expected bytes, e.g. 32768)"
                ),
            }
        }
        match backend.map(str::trim) {
            Some("sharded") => return ExecBackend::Sharded(crate::shard::ShardedExecutor::new()),
            Some("serial") => return ExecBackend::Serial,
            Some("threaded") | None => {}
            Some(other) => eprintln!(
                "warning: ignoring unknown VF_EXEC_BACKEND={other:?} (expected serial, threaded or sharded)"
            ),
        }
        if threaded.pool.workers() > 1 {
            ExecBackend::Threaded(threaded)
        } else {
            ExecBackend::Serial
        }
    }

    /// The persistent worker pool of the threaded backend, if any — the
    /// handle a `VfScope` keeps alive across statements.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        match self {
            ExecBackend::Threaded(t) => Some(&t.pool),
            ExecBackend::Serial | ExecBackend::Sharded(_) => None,
        }
    }
}

/// Runs `$body` with `$e` bound to the executor `$backend` selects — how
/// [`ExecBackend`] answers every [`PlanExecutor`] method.
macro_rules! on_selected {
    ($backend:expr, $e:ident => $body:expr) => {
        match $backend {
            ExecBackend::Serial => {
                let $e = &SerialExecutor;
                $body
            }
            ExecBackend::Threaded($e) => $body,
            ExecBackend::Sharded($e) => $body,
        }
    };
}

impl PlanExecutor for ExecBackend {
    fn name(&self) -> &'static str {
        on_selected!(self, e => e.name())
    }

    fn run_owned<I: Send>(&self, bytes: usize, items: Vec<I>, work: &(dyn Fn(&mut I) + Sync)) {
        on_selected!(self, e => e.run_owned(bytes, items, work))
    }

    fn execute_fused<T: Element>(
        &self,
        fused: &FusedPlan,
        srcs: &[&[Vec<T>]],
        dst_sizes: &[Vec<usize>],
        spares: RetiredLocals<T>,
        tracker: &CommTracker,
    ) -> Result<(Vec<Vec<Vec<T>>>, ExecReport)> {
        on_selected!(self, e => e.execute_fused(fused, srcs, dst_sizes, spares, tracker))
    }

    fn recycles_locals(&self) -> bool {
        on_selected!(self, e => e.recycles_locals())
    }

    fn streaming_pool(&self, bytes: usize) -> Option<&Arc<WorkerPool>> {
        on_selected!(self, e => e.streaming_pool(bytes))
    }
}

/// One part's share of a fused wire message: `elements` elements of part
/// `part`, moved by the runs of the part's transfer `transfer`, packed at
/// byte-order offset `wire_offset` (in elements) within the pair's single
/// fused message.
///
/// This is the *slot remapping* that lets each array's ghost-buffer (or
/// local-storage) offsets survive fusion: a receiver unpacks the slice at
/// `wire_offset .. wire_offset + elements` with part `part`'s own run
/// list, so the per-array destination offsets are untouched — only the
/// wire layout is shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedSlice {
    /// Index of the part (array) within [`FusedPlan::parts`].
    pub part: usize,
    /// Index of the part's transfer (in [`CommPlan::transfers`]) whose runs
    /// pack into and unpack from this slice.
    pub(crate) transfer: usize,
    /// Elements the part contributes to this pair's message.
    pub elements: usize,
    /// Element offset of the part's payload within the fused message.
    pub wire_offset: usize,
}

impl FusedSlice {
    /// The part's element window of its pair's message.
    pub(crate) fn window(&self) -> std::ops::Range<usize> {
        self.wire_offset..self.wire_offset + self.elements
    }
}

/// Who sends what to whom in a schedule of one or more plans — its
/// *parts* — indexed the way every engine walks it: the crossing pairs
/// (one message each) with their wire layout, the pairs arriving at each
/// destination, and each destination's stay-local transfers.
///
/// Every [`CommPlan`] carries its own, built with the plan and cached with
/// it in the machine's plan store, so a class of one
/// ([`FusedPlan::fuse_one`]) executes on it as it is; [`FusedPlan::fuse`]
/// builds one over several parts.
#[derive(Debug)]
pub(crate) struct PairIndex {
    /// Crossing `(src, dst)` pairs with traffic in any part, sorted, with
    /// the summed element count — one message each.
    pub(crate) pairs: Vec<((usize, usize), usize)>,
    /// Pair `pi`'s wire layout is `slices[bounds[pi]..bounds[pi + 1]]`,
    /// parts in fusion order.
    bounds: Vec<usize>,
    slices: Vec<FusedSlice>,
    /// Indices into `pairs`, grouped by destination processor: those
    /// arriving at `d` are `arrivals[arrival_bounds[d]..arrival_bounds[d + 1]]`.
    arrivals: Vec<usize>,
    arrival_bounds: Vec<usize>,
    /// At `d * parts + idx`: part `idx`'s transfer of the elements that
    /// stay on processor `d`, if any.
    local: Vec<Option<usize>>,
    parts: usize,
}

impl PairIndex {
    /// Indexes `parts` — each a plan's transfers, at most one per
    /// `(src, dst)` pair, as every planner builds them — over `procs`
    /// destination processors.
    pub(crate) fn build(parts: &[&[Transfer]], procs: usize) -> Self {
        let mut local = vec![None; procs * parts.len()];
        let mut crossing = Vec::new();
        for (idx, transfers) in parts.iter().enumerate() {
            for (ti, t) in transfers.iter().enumerate().filter(|(_, t)| t.elements > 0) {
                if t.src != t.dst {
                    crossing.push(((t.src.0, t.dst.0), idx, ti, t.elements));
                } else if let Some(slot) = local.get_mut(t.dst.0 * parts.len() + idx) {
                    *slot = Some(ti);
                }
            }
        }
        crossing.sort_unstable_by_key(|&(pair, idx, ..)| (pair, idx));
        let mut index = Self {
            pairs: Vec::new(),
            bounds: Vec::new(),
            slices: Vec::with_capacity(crossing.len()),
            arrivals: Vec::new(),
            arrival_bounds: Vec::new(),
            local,
            parts: parts.len(),
        };
        for (pair, part, transfer, elements) in crossing {
            let wire_offset = match index.pairs.last_mut() {
                Some((last, total)) if *last == pair => {
                    *total += elements;
                    *total - elements
                }
                _ => {
                    index.bounds.push(index.slices.len());
                    index.pairs.push((pair, elements));
                    0
                }
            };
            index.slices.push(FusedSlice {
                part,
                transfer,
                elements,
                wire_offset,
            });
        }
        index.bounds.push(index.slices.len());
        let dst_of = |pi: usize| index.pairs[pi].0 .1;
        let mut arrivals: Vec<usize> = (0..index.pairs.len())
            .filter(|&pi| dst_of(pi) < procs)
            .collect();
        arrivals.sort_by_key(|&pi| dst_of(pi));
        index.arrival_bounds = (0..=procs)
            .map(|d| arrivals.partition_point(|&pi| dst_of(pi) < d))
            .collect();
        index.arrivals = arrivals;
        index
    }

    /// The destination processors indexed.
    pub(crate) fn procs(&self) -> usize {
        self.arrival_bounds.len() - 1
    }

    /// Indices into `pairs` of the crossing pairs arriving at processor
    /// `d`, by sender.
    pub(crate) fn arriving(&self, d: usize) -> &[usize] {
        match self.arrival_bounds.get(d..d + 2) {
            Some(&[lo, hi]) => &self.arrivals[lo..hi],
            _ => &[],
        }
    }

    /// The index of one plan's `transfers`, as the plan keeps it.
    pub(crate) fn of(transfers: &[Transfer], procs: usize) -> Arc<Self> {
        Arc::new(Self::build(&[transfers], procs))
    }

    /// Crossing pair `pi`'s wire layout.
    fn slices(&self, pi: usize) -> &[FusedSlice] {
        &self.slices[self.bounds[pi]..self.bounds[pi + 1]]
    }
}

/// A set of same-kind communication plans fused into one schedule.
///
/// `DISTRIBUTE` over a connect class (or a multi-array statement) plans
/// each array separately; unfused execution then charges one message per
/// *array* per processor pair.  The same holds for the overlap exchange of
/// a class of stencil arrays.  Fusing merges the per-array traffic so
/// every (sender, receiver) pair exchanges a **single message** carrying
/// the payloads of all arrays — the element and byte totals are exactly
/// the sum over the parts (asserted by `tests/suite/parallel_exec.rs` and
/// `tests/suite/ghost_fusion.rs`), only the message count drops.  The
/// per-pair wire layout ([`FusedPlan::wire_slices`]) records where each
/// part's payload sits inside the fused message, so every part's own
/// destination offsets (ghost slots, local offsets) remain valid.
#[derive(Debug, Clone)]
pub struct FusedPlan {
    kind: PlanKind,
    parts: Vec<Arc<CommPlan>>,
    moved_elements: usize,
    stayed_elements: usize,
    /// The schedule's pair index — a single part's own, shared.
    pub(crate) index: Arc<PairIndex>,
}

impl FusedPlan {
    /// Fuses a non-empty set of same-kind plans into one schedule.
    /// Redistribution and ghost plans fuse; gather/scatter schedules
    /// address access-pattern-specific buffers and do not.
    ///
    /// # Errors
    /// [`RuntimeError::FusionMismatch`] when `parts` is empty, mixes plan
    /// kinds, or contains a gather/scatter plan.
    pub fn fuse(parts: Vec<Arc<CommPlan>>) -> Result<Self> {
        let _span =
            trace::OpenSpan::begin_with(trace::Phase::Fuse, || format!("{} parts", parts.len()));
        let Some(first) = parts.first() else {
            return Err(RuntimeError::FusionMismatch {
                reason: "no plans to fuse".into(),
            });
        };
        let kind = first.kind();
        if !matches!(kind, PlanKind::Redistribute | PlanKind::Ghost) {
            return Err(RuntimeError::FusionMismatch {
                reason: format!("{kind:?} plans cannot be fused"),
            });
        }
        if let Some(odd) = parts.iter().find(|p| p.kind() != kind) {
            return Err(RuntimeError::FusionMismatch {
                reason: format!("cannot fuse a {:?} plan with {kind:?} plans", odd.kind()),
            });
        }
        Ok(Self::build(kind, parts))
    }

    /// Wraps one plan of *any* kind as a class of one, on the plan's own
    /// pair index — nothing is rebuilt, so the single-array verbs
    /// (`redistribute`, `exchange_ghosts`, `assign`, `execute_gather`) pay
    /// no fusion per statement.  Safe for every planner output because
    /// [`crate::plan::CommPlan`] carries at most one transfer per
    /// `(src, dst)` pair, which is the only structural assumption the pair
    /// index makes.  Not public: multi-plan fusion of gather/scatter
    /// schedules remains rejected by [`FusedPlan::fuse`].
    pub(crate) fn fuse_one(part: Arc<CommPlan>) -> Self {
        Self::build(part.kind(), vec![part])
    }

    fn build(kind: PlanKind, parts: Vec<Arc<CommPlan>>) -> Self {
        let index = match parts.as_slice() {
            [one] => Arc::clone(&one.pairs),
            _ => {
                let transfers: Vec<&[Transfer]> = parts.iter().map(|p| p.transfers()).collect();
                let procs = parts.iter().map(|p| p.total_procs()).max().unwrap_or(0);
                Arc::new(PairIndex::build(&transfers, procs))
            }
        };
        Self {
            kind,
            moved_elements: parts.iter().map(|p| p.moved_elements()).sum(),
            stayed_elements: parts.iter().map(|p| p.stayed_elements()).sum(),
            parts,
            index,
        }
    }

    /// What kind of plans were fused (redistribution or ghost).
    pub fn kind(&self) -> PlanKind {
        self.kind
    }

    /// The fused per-array plans, in fusion order.
    pub fn parts(&self) -> &[Arc<CommPlan>] {
        &self.parts
    }

    /// The wire layout of the fused `(src, dst)` message: each part's
    /// payload slice, in fusion order, tiling `0..total_elements` of the
    /// pair.  Empty when the pair exchanges nothing.
    pub fn wire_slices(&self, src: usize, dst: usize) -> &[FusedSlice] {
        match self
            .index
            .pairs
            .binary_search_by_key(&(src, dst), |&(pair, _)| pair)
        {
            Ok(i) => self.index.slices(i),
            Err(_) => &[],
        }
    }

    /// Messages the fused schedule generates: one per crossing processor
    /// pair with traffic — at most `P·(P-1)`, independent of how many
    /// arrays were fused.
    pub fn num_messages(&self) -> usize {
        self.index.pairs.len()
    }

    /// Elements that cross processors, summed over the fused parts.
    pub fn moved_elements(&self) -> usize {
        self.moved_elements
    }

    /// Elements that stay on their processor, summed over the fused parts.
    pub fn stayed_elements(&self) -> usize {
        self.stayed_elements
    }

    /// Bytes that cross processors for `elem_bytes`-byte elements — equal
    /// to the sum of the parts' [`CommPlan::bytes_for`].
    pub fn bytes_for(&self, elem_bytes: usize) -> usize {
        self.moved_elements * elem_bytes
    }

    /// Part `part`'s transfer of the elements that stay on processor `d`,
    /// if any — these never meet a wire buffer or a frame.
    pub(crate) fn local_transfer(&self, part: usize, d: usize) -> Option<&Transfer> {
        let index = &self.index;
        let ti = (*index.local.get(d * index.parts + part)?)?;
        Some(&self.parts[part].transfers()[ti])
    }

    /// The message of crossing pair `pi` (an index into the pair index),
    /// part by part in wire order: each part's slice of the message and
    /// the transfer whose runs pack into and unpack from that slice — the
    /// one walk every engine (wire, split, channel frames) makes.
    pub(crate) fn pair_parts(&self, pi: usize) -> impl Iterator<Item = (FusedSlice, &Transfer)> {
        self.index
            .slices(pi)
            .iter()
            .map(|sl| (*sl, &self.parts[sl.part].transfers()[sl.transfer]))
    }

    /// Validates that the fusion is of `expected` kind and covers exactly
    /// `arrays` arrays — the guard every fused executor runs first.
    pub(crate) fn check_parts(
        &self,
        expected: PlanKind,
        caller: &str,
        arrays: usize,
    ) -> Result<()> {
        if self.kind != expected {
            return Err(RuntimeError::FusionMismatch {
                reason: format!("{caller} needs {expected:?} parts, got {:?}", self.kind),
            });
        }
        if arrays != self.parts.len() {
            return Err(RuntimeError::FusionMismatch {
                reason: format!(
                    "fused plan has {} parts but {arrays} arrays were supplied",
                    self.parts.len()
                ),
            });
        }
        Ok(())
    }

    /// The fused message list: one `(src, dst, bytes)` entry per crossing
    /// processor pair, payloads of all parts summed.  Zero-byte entries are
    /// never emitted (a pair only appears with traffic, and elements are
    /// at least one byte wide).
    pub(crate) fn message_batch(&self, elem_bytes: usize) -> Vec<(usize, usize, usize)> {
        self.index
            .pairs
            .iter()
            .filter(|&&(_, elements)| elements * elem_bytes > 0)
            .map(|&((src, dst), elements)| (src, dst, elements * elem_bytes))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Wire framing: sequence + length + checksum per fused wire message
// ---------------------------------------------------------------------------

/// The header a real backend would prepend to each fused wire message:
/// enough to detect truncation (`elements`), corruption (`checksum`) and
/// to identify the message in an error report (`seq` — the message's
/// number on the tracker it was posted on, see
/// [`vf_machine::PendingSends::seq_base`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WireFrame {
    seq: u64,
    elements: usize,
    checksum: u64,
}

/// Checksum of a packed wire buffer: the xor of every element's stored bit
/// pattern, with the length mixed in through an odd multiplier and one
/// bijective multiplicative finisher.  The accumulation is GF(2)-linear in
/// the payload bits — flipping any single bit flips exactly one bit of the
/// accumulator, so injected single-bit corruption can never pass
/// validation — and because the wire buffer is contiguous, the xor is one
/// sequential sweep at cache speed ([`xor_bits`]), which is what keeps
/// framing cheap wherever a wire is staged (`ghost.split_post_ms` of the
/// `perf` benchmark times the split mode's pack, checksum included).
pub(crate) fn wire_checksum<T: Element>(wire: &[T]) -> u64 {
    finish_checksum(xor_bits(wire), wire.len())
}

/// Xor of the stored bit patterns of `xs`, eight lanes wide so the loop
/// carries no serial dependency and vectorises.
#[inline]
fn xor_bits<T: Element>(xs: &[T]) -> u64 {
    let mut lanes = [0u64; 8];
    let mut chunks = xs.chunks_exact(8);
    for chunk in &mut chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane ^= v.to_bits64();
        }
    }
    let mut acc = lanes.into_iter().fold(0u64, |h, l| h ^ l);
    for v in chunks.remainder() {
        acc ^= v.to_bits64();
    }
    acc
}

/// Mixes the payload xor and the element count into the final checksum.
#[inline]
pub(crate) fn finish_checksum(acc: u64, len: usize) -> u64 {
    (acc ^ 0xcbf2_9ce4_8422_2325u64 ^ (len as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_mul(0x100_0000_01b3)
}

/// Validates a wire buffer against its frame: one contiguous
/// [`xor_bits`] sweep plus the length.  Runs on the receive side before
/// any unpack copy, so a corrupt payload never reaches a destination
/// buffer.
fn verify_wire<T: Element>(wire: &[T], frame: &WireFrame, src: usize, dst: usize) -> Result<()> {
    if wire.len() != frame.elements || wire_checksum(wire) != frame.checksum {
        return Err(RuntimeError::CorruptMessage {
            src,
            dst,
            seq: frame.seq,
        });
    }
    Ok(())
}

/// Packs crossing pair `pi`'s message: every part's runs appended in
/// plan order, parts in wire order (increasing `wire_offset`) — one
/// contiguous buffer per pair, exactly the message a real backend would
/// post, written once.
fn pack_pair<T: Element>(fused: &FusedPlan, pi: usize, srcs: &[&[Vec<T>]]) -> Vec<T> {
    let ((s, _), total) = fused.index.pairs[pi];
    let mut wire = Vec::with_capacity(total);
    for (sl, t) in fused.pair_parts(pi) {
        debug_assert_eq!(wire.len(), sl.wire_offset, "parts arrive in wire order");
        let src = &srcs[sl.part][s];
        t.spans().for_each(|run| match (run.len, run.count) {
            (1, 1) => wire.push(src[run.src.start]),
            (_, 1) => wire.extend_from_slice(&src[run.src]),
            (1, _) => wire.extend(src[run.src].iter().step_by(run.src_step)),
            (len, _) => src[run.src]
                .chunks(run.src_step)
                .for_each(|s| wire.extend_from_slice(&s[..len])),
        });
    }
    assert_eq!(wire.len(), total, "the runs fill the pair's message");
    wire
}

/// Per-processor seconds of the wire copy phase under the tracker's cost
/// model (empty at the default zero rate): packing is charged to the
/// *sender*, unpacking (and direct local copies) to the *receiver* — the
/// two memcpy streams a real message-passing backend performs on each side
/// of the wire.
pub(crate) fn wire_copy_seconds(
    fused: &FusedPlan,
    elem_bytes: usize,
    tracker: &CommTracker,
) -> Vec<f64> {
    let rate = tracker.cost().copy_per_byte;
    if rate == 0.0 {
        return Vec::new();
    }
    let mut secs = vec![0.0f64; tracker.num_procs()];
    for part in fused.parts() {
        for t in part.transfers() {
            if t.elements == 0 {
                continue;
            }
            let s = (t.elements * elem_bytes) as f64 * rate;
            if t.src != t.dst {
                if let Some(x) = secs.get_mut(t.src.0) {
                    *x += s;
                }
            }
            if let Some(x) = secs.get_mut(t.dst.0) {
                *x += s;
            }
        }
    }
    secs
}

/// Charges the class's directory fetches and posts its single message per
/// crossing pair — the opening every fused engine (wire pipeline, channel
/// frames) shares.  Returns the pending batch — whose
/// [`vf_machine::PendingSends::seq_base`] numbers pair `pi`'s frame
/// `seq_base + pi` on every transport — and what it charges.
pub(crate) fn post_fused(
    fused: &FusedPlan,
    elem_bytes: usize,
    tracker: &CommTracker,
) -> (vf_machine::PendingSends, ExecReport) {
    for part in fused.parts() {
        part.charge_directory(tracker);
    }
    let batch = fused.message_batch(elem_bytes);
    let messages = batch.len();
    let bytes = batch.iter().map(|m| m.2).sum();
    let post = trace::OpenSpan::begin_with(trace::Phase::Post, || format!("{messages} msgs"));
    let pending = tracker.post_many(batch);
    post.end();
    (pending, ExecReport { messages, bytes })
}

// ---------------------------------------------------------------------------
// The wire pipeline: post → stage → deliver → finish
// ---------------------------------------------------------------------------

/// Locks a cell that only hands `&mut` access through a shared job
/// closure.  A panic while one was held (a dying unpack rank) leaves plain
/// data behind, so poisoning is ignored.
pub(crate) fn lock<X>(cell: &Mutex<X>) -> MutexGuard<'_, X> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One staged pair message, between its pack and its delivery.
struct Wire<T> {
    payload: Vec<T>,
    frame: WireFrame,
    /// On the one wire an armed corruption flipped: the element's index and
    /// pristine value — the payload a modelled retransmission carries.
    restore: Option<(usize, T)>,
}

/// One fused exchange over the shared-memory wire — the state and the one
/// body both modes run: `post` → `stage_dest` per destination and
/// `stage_pair` per pair → `deliver` per pair → `finish`.  Blocking
/// ([`execute_fused_blocking`]) delivers each pair as soon as it is
/// staged; split ([`split_execute_fused_wire`]) stages everything at the
/// post and streams the deliveries until the wait.  The schedulers own the
/// trace spans and the fault ladder.
///
/// `P` is how the plan is held: borrowed by a blocking statement, owned by
/// a split handle (whose pool job must be `'static`).
///
/// A frame exists where a wire does: split-mode staging (the post
/// snapshots the sources) and, in either mode, an attached
/// [`vf_machine::FaultInjector`] (`verify`).  The injector is the only
/// thing that can change a packed wire between frame and unpack — the
/// simulated channel is process memory, like a loopback interface marking
/// packets `CHECKSUM_UNNECESSARY` — so it alone switches the receive-side
/// checksum scan on, and injected corruption is *always* detected.  With
/// no injector the blocking mode stages no wire at all: each pair's runs
/// copy straight from the sender's locals into the destination
/// ([`WireExchange::copy_pair`]), one pass per element.
struct WireExchange<T, P> {
    plan: P,
    /// Pair `pi`'s frame is stamped `seq_base + pi`.
    seq_base: u64,
    /// An injector is attached: wires are verified before unpack, and the
    /// blocking mode stages them at all.
    verify: bool,
    /// The armed corruption, if any: `(pair, element seed, bit)`.
    sabotage: Option<(usize, u64, u32)>,
    /// At `d * parts + idx`: part `idx`'s buffer on destination processor
    /// `d` (a recycled spare of the right length, or empty until
    /// `stage_dest`).  The mutexes only hand `&mut` access through the
    /// shared job; pairs into one destination write pairwise-disjoint runs.
    dests: Vec<Mutex<Vec<T>>>,
    /// Per crossing pair, its message while in flight — only when the
    /// exchange stages (split mode, or an attached injector); empty when
    /// every pair is copied straight through.
    wires: Vec<Mutex<Option<Wire<T>>>>,
    /// First unrepairable validation failure; the pair is never unpacked.
    fatal: Mutex<Option<RuntimeError>>,
}

impl<T: Element, P: Borrow<FusedPlan>> WireExchange<T, P> {
    fn fused(&self) -> &FusedPlan {
        self.plan.borrow()
    }

    /// Part `part`'s buffer on destination `d`.
    fn dest(&self, d: usize, part: usize) -> MutexGuard<'_, Vec<T>> {
        lock(&self.dests[d * self.fused().parts().len() + part])
    }

    /// Opens the exchange, caller-side: charges the directory fetches,
    /// posts the class's messages and draws the statement's one corruption
    /// decision.  An armed flip is repaired at delivery; its modelled
    /// retransmission is charged here, so the accounting is deterministic
    /// whichever thread performs the repair.  `recycled` seeds the
    /// destination buffers ([`RetiredLocals::fit`]); `split` says the
    /// exchange stages every pair at the post, which a blocking one does
    /// only under an injector.
    fn post(
        plan: P,
        recycled: Vec<Vec<T>>,
        tracker: &CommTracker,
        split: bool,
    ) -> (Self, vf_machine::PendingSends, ExecReport) {
        let fused: &FusedPlan = plan.borrow();
        let (pending, report) = post_fused(fused, T::BYTES, tracker);
        // `index.pairs` holds exactly the crossing pairs with traffic;
        // with none nothing travels a wire and the injector is not polled.
        let crossing = fused.index.pairs.len();
        let sabotage = tracker
            .fault_injector()
            .filter(|_| crossing > 0)
            .and_then(|inj| inj.corrupt_wire())
            .map(|spec| {
                let pair = (spec.pair_seed as usize) % crossing;
                (pair, spec.elem_seed, spec.bit)
            });
        if let Some((pi, _, _)) = sabotage {
            let ((s, d), total) = fused.index.pairs[pi];
            tracker.record_fault();
            tracker.charge_retransmissions(s, d, total * T::BYTES, 1);
        }
        let verify = tracker.fault_injector().is_some();
        let staged = if split || verify { crossing } else { 0 };
        let mut recycled = recycled.into_iter();
        let exchange = Self {
            seq_base: pending.seq_base(),
            verify,
            sabotage,
            dests: repeat_with(|| Mutex::new(recycled.next().unwrap_or_default()))
                .take(fused.index.procs() * fused.parts().len())
                .collect(),
            wires: repeat_with(Mutex::default).take(staged).collect(),
            fatal: Mutex::default(),
            plan,
        };
        (exchange, pending, report)
    }

    /// Stages destination `d`: its buffer of every part — the recycled
    /// spare where one was fitted, a fresh one otherwise — with the
    /// stay-local runs copied in.  Each destination is staged by exactly
    /// one call, before any of its arriving pairs is delivered.
    fn stage_dest(&self, srcs: &[&[Vec<T>]], dst_sizes: &[Vec<usize>], d: usize) {
        let fused = self.fused();
        for (idx, sizes) in dst_sizes.iter().enumerate() {
            let mut buf = self.dest(d, idx);
            let size = sizes.get(d).copied().unwrap_or(0);
            if buf.len() != size {
                *buf = vec![T::default(); size];
            }
            if let Some(t) = fused.local_transfer(idx, d) {
                copy_runs(t, &srcs[idx][d], &mut buf);
            }
        }
    }

    /// Delivers crossing pair `pi` with no wire: its runs copy straight
    /// from the sender's locals into the destination's buffers, as the
    /// stay-local runs do.  Only where nothing can touch a wire — the
    /// blocking mode with no injector attached.
    fn copy_pair(&self, srcs: &[&[Vec<T>]], pi: usize) {
        let fused = self.fused();
        let ((s, d), _) = fused.index.pairs[pi];
        for (sl, t) in fused.pair_parts(pi) {
            copy_runs(t, &srcs[sl.part][s], &mut self.dest(d, sl.part));
        }
    }

    /// Stages crossing pair `pi`: packs and frames its message, then flips
    /// the armed element — *after* framing, i.e. in transit.
    fn stage_pair(&self, srcs: &[&[Vec<T>]], pi: usize) {
        let mut payload = pack_pair(self.fused(), pi, srcs);
        // One contiguous whole-buffer pass — cheaper than folding the xor
        // into the scattered per-run copies: plain run copies stay `memcpy`
        // and the sequential sweep vectorises at cache speed.
        let frame = WireFrame {
            seq: self.seq_base + pi as u64,
            elements: payload.len(),
            checksum: wire_checksum(&payload),
        };
        let restore = match self.sabotage {
            Some((armed, elem_seed, bit)) if armed == pi => {
                let e = (elem_seed as usize) % payload.len();
                let orig = payload[e];
                payload[e] = orig.flip_bit(bit);
                Some((e, orig))
            }
            _ => None,
        };
        *lock(&self.wires[pi]) = Some(Wire {
            payload,
            frame,
            restore,
        });
    }

    /// Delivers staged pair `pi`: validates the wire before any element
    /// reaches a destination buffer, unpacks it into its destination's
    /// per-part buffers and frees it.  A detected mismatch restores the
    /// pristine element (the payload a modelled retransmission carries) and
    /// revalidates; a failure that is not the armed flip is unrepairable —
    /// recorded for [`WireExchange::finish`], the pair never unpacked.
    fn deliver(&self, pi: usize) {
        let fused = self.fused();
        let ((s, d), _) = fused.index.pairs[pi];
        let mut slot = lock(&self.wires[pi]);
        let wire = slot
            .as_mut()
            .expect("a pair is staged before it is delivered, and delivered once");
        let valid = if self.verify {
            verify_wire(&wire.payload, &wire.frame, s, d).or_else(|_| {
                if let Some((e, orig)) = wire.restore {
                    wire.payload[e] = orig;
                }
                verify_wire(&wire.payload, &wire.frame, s, d)
                    .map(|()| trace::instant(trace::Phase::CorruptionRepair))
            })
        } else {
            Ok(())
        };
        match valid {
            Ok(()) => {
                for (sl, t) in fused.pair_parts(pi) {
                    unpack_runs(t, &wire.payload[sl.window()], &mut self.dest(d, sl.part));
                }
            }
            Err(e) => {
                lock(&self.fatal).get_or_insert(e);
            }
        }
        // Freed at once: a blocking exchange never holds more wires than
        // it has ranks staging.
        *slot = None;
    }

    /// Settles the posted batch — crediting `copy_secs` as copy-overlap
    /// compute — then assembles the per-part results.  Call once every
    /// pair has been delivered.
    ///
    /// # Errors
    /// The first unrepairable [`RuntimeError::CorruptMessage`]; the batch
    /// is settled first, so charges never leak on that path.
    fn finish(
        &self,
        tracker: &CommTracker,
        pending: vf_machine::PendingSends,
        copy_secs: &[f64],
    ) -> Result<Vec<Vec<Vec<T>>>> {
        finish_with_copy_credit(tracker, pending, copy_secs);
        if let Some(e) = lock(&self.fatal).take() {
            return Err(e);
        }
        let parts = self.fused().parts().iter().enumerate();
        let take = |idx, d| std::mem::take(&mut *self.dest(d, idx));
        Ok(parts
            .map(|(idx, part)| (0..part.total_procs()).map(|d| take(idx, d)).collect())
            .collect())
    }
}

/// The locals a class's last `DISTRIBUTE` retired, kept so that its next
/// one builds destinations from them: memory that is already resident,
/// filled by the statement's one copy pass, instead of fresh zeroed
/// allocations the kernel faults in page by page.
///
/// The store belongs to whoever issues the class's statements — a
/// `VfScope` keeps one — never to the process, and it holds one
/// statement's retired locals only until the next redistribution there.
/// That statement takes every spare: a destination is built from the
/// spare of smallest *capacity* at least its length, cut or extended to
/// that length within the capacity (nothing is reallocated or handed back
/// to the allocator), and every spare left over is freed before anything
/// is allocated.  A layout cycle whose local lengths differ — a general
/// block beside a `BLOCK` — therefore settles on buffers every later
/// statement fits, and stops faulting fresh pages in.
///
/// **Bound.**  The store holds at most one class's locals — one buffer per
/// member and processor — and best fit never hands out more capacity than
/// some spare already had, so no buffer's capacity exceeds the longest
/// local the class has had.  Held bytes stay at most
/// `members × processors × longest local × element bytes`
/// ([`RetiredLocals::held_bytes`]).
///
/// An executor whose ranks allocate their own segments (see
/// [`PlanExecutor::recycles_locals`]) frees the spares it is handed, and
/// its caller keeps none.
#[derive(Debug)]
pub struct RetiredLocals<T>(Vec<Vec<T>>);

impl<T> Default for RetiredLocals<T> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<T: Element> RetiredLocals<T> {
    /// Keeps `locals` — buffers a statement just replaced — for the next
    /// statement.
    pub(crate) fn retire(&mut self, locals: Vec<Vec<T>>) {
        self.0
            .extend(locals.into_iter().filter(|buf| buf.capacity() > 0));
    }

    /// Bytes held: the capacity of every spare.
    pub fn held_bytes(&self) -> usize {
        self.0.iter().map(|buf| buf.capacity() * T::BYTES).sum()
    }

    /// Hands every spare to a statement whose part `idx` fills
    /// `dst_sizes[idx][d]` elements on destination `d`: at
    /// `d * parts + idx`, for `dests` destinations, the spare part `idx`'s
    /// buffer on `d` is built from — resized to exactly that length within
    /// its capacity — or an empty buffer where none fits.  Largest
    /// destinations choose first, each the spare of smallest capacity at
    /// least its length.  The spares nothing fits are freed here, before
    /// the statement allocates its fresh buffers.
    ///
    /// A recycled buffer keeps its old contents: only a destination its
    /// runs write completely may take one, as every redistribution's does.
    fn fit(self, dst_sizes: &[Vec<usize>], dests: usize) -> Vec<Vec<T>> {
        let mut spares = self.0;
        if spares.is_empty() {
            return Vec::new();
        }
        spares.sort_unstable_by_key(Vec::capacity);
        let mut wanted: Vec<(usize, usize, usize)> = dst_sizes
            .iter()
            .enumerate()
            .flat_map(|(idx, sizes)| sizes.iter().enumerate().map(move |(d, &n)| (n, d, idx)))
            .filter(|&(n, d, _)| n > 0 && d < dests)
            .collect();
        wanted.sort_unstable_by(|a, b| b.cmp(a));
        let parts = dst_sizes.len();
        let mut out: Vec<Vec<T>> = repeat_with(Vec::new).take(dests * parts).collect();
        for (n, d, idx) in wanted {
            let smallest = spares.partition_point(|buf| buf.capacity() < n);
            if smallest < spares.len() {
                let mut buf = spares.remove(smallest);
                buf.resize(n, T::default());
                out[d * parts + idx] = buf;
            }
        }
        drop(spares);
        out
    }
}

/// The blocking mode of the wire pipeline — the body of
/// [`PlanExecutor::execute_fused`] on a shared-memory executor: every
/// destination is staged and its pairs delivered in one go, on `pool`'s
/// workers (one dispatch, one work item per destination) when there is one
/// and the copy volume clears its cutoff, on the calling thread otherwise.
///
/// With no injector attached nothing can happen to a wire, so none is
/// staged: every crossing pair's runs copy straight from the source locals
/// into the destination ([`WireExchange::copy_pair`]) — one pass per
/// element.  With one attached each pair is packed, framed, verified and
/// unpacked, so corruption is caught before it lands.  The destinations
/// are built from `spares` where they fit; the rest are freed before
/// anything is allocated.
fn execute_fused_blocking<T: Element>(
    fused: &FusedPlan,
    srcs: &[&[Vec<T>]],
    dst_sizes: &[Vec<usize>],
    spares: RetiredLocals<T>,
    tracker: &CommTracker,
    pool: Option<&ThreadedExecutor>,
) -> Result<(Vec<Vec<Vec<T>>>, ExecReport)> {
    let dests = fused.index.procs();
    let recycled = spares.fit(dst_sizes, dests);
    let (exchange, pending, report) = WireExchange::post(fused, recycled, tracker, false);
    let run_dest = |d: usize| {
        // One span covers this destination's whole copy stream (local
        // and direct copies, or pack, verify, unpack): per-destination is
        // the granularity the pool dispatches at, and coarse enough that
        // tracing a dispatch-dominated exchange stays cheap even on a
        // single-core host (`trace.overhead_ratio` in the `perf`
        // benchmark; the split streaming path keeps per-pair spans —
        // there the caller's overlapped compute absorbs the recording
        // cost).
        let _span = trace::OpenSpan::begin_dest(trace::Phase::Unpack, d);
        exchange.stage_dest(srcs, dst_sizes, d);
        for &pi in fused.index.arriving(d) {
            if exchange.verify {
                exchange.stage_pair(srcs, pi);
                exchange.deliver(pi);
            } else {
                exchange.copy_pair(srcs, pi);
            }
        }
    };
    // The bytes the engine copies drive the threaded backend's cutoff:
    // every element once, and a staged crossing element twice (pack and
    // unpack).
    let staged = if exchange.verify {
        fused.moved_elements()
    } else {
        0
    };
    let copy_bytes = (fused.moved_elements() + staged + fused.stayed_elements()) * T::BYTES;
    match pool {
        Some(pool) if !pool.runs_serially(copy_bytes) => {
            pool.dispatch(tracker, dests, run_dest);
        }
        _ => (0..dests).for_each(run_dest),
    }
    let wait = trace::OpenSpan::begin(trace::Phase::Wait);
    let copy_secs = wire_copy_seconds(fused, T::BYTES, tracker);
    let out = exchange.finish(tracker, pending, &copy_secs);
    wait.end();
    Ok((out?, report))
}

// ---------------------------------------------------------------------------
// Split mode: stage at the post → interior compute → deliver until the wait
// ---------------------------------------------------------------------------

/// What a split-phase wire execution charged and measured.
///
/// `messages`/`bytes` are exactly what the blocking mode charges for the
/// same fused plan; the two measured fields are the wall-clock
/// instrumentation that makes the cost model's overlap credit falsifiable.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SplitExecReport {
    /// Messages charged (one per crossing processor pair).
    pub messages: usize,
    /// Bytes charged.
    pub bytes: usize,
    /// Wall-clock seconds the *background* unpack workers were busy
    /// between the post and the wait, clamped to the post→wait interval —
    /// real compute/communication overlap.  Zero when the exchange ran
    /// inline (serial backend, below-cutoff volume, or a 1-wide pool).
    pub measured_overlap_seconds: f64,
    /// Total wall-clock seconds spent unpacking wire buffers (background
    /// workers plus caller help at the wait).
    pub measured_unpack_seconds: f64,
}

/// What a split-phase pool job streams through: the staged exchange (fully
/// `'static` — staging read the *borrowed* sources at post time on the
/// caller thread, so nothing in here borrows the arrays) and the
/// scheduling state of its deliveries.
struct SplitShared<T> {
    /// The staged exchange; its crossing pairs (`index.pairs`, by index)
    /// are the independent delivery work items.
    exchange: WireExchange<T, FusedPlan>,
    /// Background rank armed to die (panic) before its first delivery —
    /// never rank 0, which is the caller.
    die_rank: Option<usize>,
    /// Next unclaimed pair index (work stealing).
    claim: AtomicUsize,
    /// Crossing pairs not yet delivered, per destination processor —
    /// per-pair completion, so a consumer can wait for one destination
    /// without a global barrier.
    remaining_by_dst: Vec<AtomicUsize>,
    /// Items a dying rank had claimed but not delivered — adopted by the
    /// caller thread ([`SplitShared::recover_abandoned`]) so no
    /// destination is ever left partially assembled.
    abandoned: Mutex<Vec<usize>>,
    /// Set when any background rank died mid-stream (simulated or a real
    /// panic) — gates the recovery scan on waiting paths.
    died: AtomicBool,
    /// Nanoseconds background ranks spent delivering (the overlap
    /// measurement) and nanoseconds the caller spent helping (kept apart
    /// so help at the wait is never misreported as overlap).
    background_nanos: AtomicU64,
    help_nanos: AtomicU64,
}

/// Panic payload of a simulated worker death — distinguishes injected
/// deaths from real unpack bugs only in intent: both are contained the
/// same way (the rank stops claiming, its item is handed to the caller).
struct SimulatedWorkerDeath;

impl<T: Element> SplitShared<T> {
    /// Delivers crossing pair `pi`, run by whichever rank claimed it.
    fn unpack_claimed(&self, pi: usize) {
        let ((s, d), _) = self.exchange.plan.index.pairs[pi];
        let _span = trace::OpenSpan::begin_pair(trace::Phase::Unpack, s, d);
        self.exchange.deliver(pi);
        // `Release` pairs with the `Acquire` load in `help_until_dest`:
        // whoever observes zero also observes every buffer write above.
        // A fatal frame failure still counts as delivered so waiters never
        // spin on a destination that can no longer complete.
        self.remaining_by_dst[d].fetch_sub(1, Ordering::Release);
    }

    /// Claims and delivers items until none are left — the pool job body
    /// (background ranks) and the caller's help at the wait (rank 0).
    ///
    /// Each item is delivered under `catch_unwind`: a rank that panics —
    /// the armed simulated death, or a real unpack bug — hands its claimed
    /// item to [`SplitShared::recover_abandoned`] and stops claiming, so
    /// the pool's other workers (and the pool itself) stay usable and no
    /// destination is left short an item.  A real panic reproduces on the
    /// caller thread when recovery re-runs the item.
    fn drain(&self, rank: usize) {
        let timer = if rank == 0 {
            &self.help_nanos
        } else {
            &self.background_nanos
        };
        loop {
            let pi = self.claim.fetch_add(1, Ordering::Relaxed);
            if pi >= self.exchange.plan.index.pairs.len() {
                break;
            }
            let t0 = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if self.die_rank == Some(rank) {
                    std::panic::panic_any(SimulatedWorkerDeath);
                }
                self.unpack_claimed(pi);
            }));
            if outcome.is_err() {
                lock(&self.abandoned).push(pi);
                self.died.store(true, Ordering::Release);
                break;
            }
            timer.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Adopts and delivers every item a dead rank abandoned — called from
    /// the caller thread on all waiting paths, so the drain always
    /// completes even after a mid-stream worker death.  Idempotent: the
    /// abandoned list pops each item exactly once.
    fn recover_abandoned(&self) {
        loop {
            let next = lock(&self.abandoned).pop();
            let Some(pi) = next else {
                break;
            };
            self.help_unpack(pi);
        }
    }

    /// Delivers pair `pi` on the caller thread, timed as help — kept apart
    /// from the background time so help is never misreported as overlap.
    fn help_unpack(&self, pi: usize) {
        let t0 = Instant::now();
        self.unpack_claimed(pi);
        self.help_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Blocks until every pair arriving at destination `d` has been
    /// delivered, helping with unclaimed items (any destination) while
    /// waiting, under a `Wait` span of its own.
    fn help_until_dest(&self, d: usize) {
        let _span = trace::OpenSpan::begin_dest(trace::Phase::Wait, d);
        let Some(remaining) = self.remaining_by_dst.get(d) else {
            return;
        };
        let pairs = self.exchange.plan.index.pairs.len();
        while remaining.load(Ordering::Acquire) > 0 {
            if self.claim.load(Ordering::Relaxed) <= pairs {
                let pi = self.claim.fetch_add(1, Ordering::Relaxed);
                if pi < pairs {
                    self.help_unpack(pi);
                    continue;
                }
            }
            // All items claimed; the stragglers are in flight elsewhere —
            // unless a rank died with its item claimed, in which case the
            // waiter adopts it instead of spinning forever.
            if self.died.load(Ordering::Acquire) {
                self.recover_abandoned();
            }
            std::thread::yield_now();
        }
    }
}

/// A fused wire exchange caught between its post and its wait — the split
/// mode of the wire pipeline.  [`crate::ghost::SplitGhostExchange`] and
/// [`crate::SplitRedistribute`] deref to it and add a typed finisher.
///
/// Created by the split verbs after the post and stage phases have
/// completed on the caller thread: the modelled messages are posted,
/// every crossing pair's payload sits packed in an owned wire buffer, and
/// the stay-local runs are already copied.  When the executor names a
/// streaming pool ([`PlanExecutor::streaming_pool`]) the pool's workers
/// stream through the per-pair deliveries *concurrently with whatever the
/// caller does next*; [`SplitPhaseExchange::wait`] helps drain the
/// remaining pairs, completes the posted messages with exactly the
/// blocking mode's overlap credit, and returns buffers bitwise identical
/// to [`PlanExecutor::execute_fused`].
///
/// [`SplitPhaseExchange::with_dest_mut`] waits for one destination's pairs
/// only: a consumer that needs one destination's data (pipelined sweeps)
/// proceeds as soon as those have landed, while the rest are in flight.
///
/// While the handle is live the submitting thread must not run other jobs
/// on the same pool (the pool's submission turn is held — see
/// [`WorkerPool::submit`]), and the source arrays must not be mutated
/// (their relevant values are already packed; mutations would be silently
/// ignored).
///
/// The handle is **cancel-safe**: dropping it without calling
/// [`SplitPhaseExchange::wait`] drains the in-flight background unpack
/// and settles the posted tracker charges — the messages were already
/// sent at the post, so cancellation completes them rather than
/// pretending they never happened.  No charge is ever leaked and the
/// pool's submission turn is always released.
pub struct SplitPhaseExchange<'e, T: Element> {
    shared: Arc<SplitShared<T>>,
    ticket: Option<JobTicket<'e>>,
    pending: Option<vf_machine::PendingSends>,
    copy_secs: Vec<f64>,
    report: ExecReport,
    /// Clone of the tracker the exchange was posted on — the one `wait`
    /// and `Drop` settle the pending charges against.
    tracker: CommTracker,
    posted_at: Instant,
    /// The explicitly begun/ended [`trace::Phase::SplitPending`] span
    /// covering the post→settle in-flight window.  Ended in
    /// `complete` so `wait` and a bare drop both balance it; the
    /// `OpenSpan` drop guard backstops any path that skips the settle.
    span: Option<trace::OpenSpan>,
}

impl<T: Element> SplitPhaseExchange<'_, T> {
    /// Messages posted (one per crossing processor pair).
    pub fn messages(&self) -> usize {
        self.report.messages
    }

    /// Bytes posted.
    pub fn bytes(&self) -> usize {
        self.report.bytes
    }

    /// Whether the unpack is streaming on background workers (`false`:
    /// everything already ran inline at the post — the executor named no
    /// streaming pool for this volume).
    pub fn is_streaming(&self) -> bool {
        self.ticket.is_some()
    }

    /// Runs `f` on destination processor `d`'s buffer for part `part`
    /// once every pair arriving at `d` has been unpacked (helping with
    /// unclaimed pairs while waiting), so a pipelined consumer starts on
    /// `d`'s data while other destinations are still in flight.  The full
    /// [`SplitPhaseExchange::wait`] is still required afterwards.
    pub fn with_dest_mut<R>(&self, part: usize, d: usize, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
        self.shared.help_until_dest(d);
        f(&mut self.shared.exchange.dest(d, part))
    }

    /// Completes the exchange on the tracker it was posted on: helps
    /// deliver the remaining pairs, blocks until the background workers
    /// are done, charges the posted messages with the same copy-overlap
    /// credit as the blocking mode, and records the *measured* overlap
    /// (background unpack seconds clamped to the post→wait interval).
    /// Returns the per-part, per-processor destination buffers — bitwise
    /// identical to [`PlanExecutor::execute_fused`] — and the report.
    ///
    /// # Errors
    /// [`RuntimeError::CorruptMessage`] if a framed wire buffer failed
    /// validation and could not be repaired (the charges are settled, the
    /// corrupt payload was never unpacked);
    /// [`RuntimeError::HandleConsumed`] if the handle's pending charges
    /// were already settled — a state safe Rust cannot reach through this
    /// API (wait consumes the handle), kept as a structured error rather
    /// than a panic so wrapper types never have a reachable `expect` in
    /// their wait path.
    pub fn wait(mut self) -> Result<(Vec<Vec<Vec<T>>>, SplitExecReport)> {
        let messages = self.report.messages;
        let _wait_span =
            trace::OpenSpan::begin_with(trace::Phase::Wait, || format!("{messages} msgs"));
        self.complete()
    }

    /// Drains the streaming job (measuring the overlap, waiting out the
    /// ticket, adopting any items a dead rank abandoned), then settles and
    /// assembles — the body of `wait`, and of `Drop` for a handle that was
    /// never waited on.
    fn complete(&mut self) -> Result<(Vec<Vec<Vec<T>>>, SplitExecReport)> {
        let shared = &self.shared;
        let mut measured_overlap = 0.0;
        if let Some(ticket) = self.ticket.take() {
            let elapsed = self.posted_at.elapsed().as_secs_f64();
            let busy = shared.background_nanos.load(Ordering::Relaxed) as f64 * 1e-9;
            measured_overlap = busy.min(elapsed);
            // Runs rank 0's share of the drain (work-steal help), then
            // blocks until the background ranks have finished.
            ticket.wait();
        }
        shared.recover_abandoned();
        if let Some(span) = self.span.take() {
            span.end();
        }
        let Some(pending) = self.pending.take() else {
            return Err(RuntimeError::HandleConsumed {
                handle: "SplitPhaseExchange",
            });
        };
        self.tracker.record_measured_overlap(measured_overlap);
        let bufs = shared
            .exchange
            .finish(&self.tracker, pending, &self.copy_secs)?;
        let unpack_nanos = shared.background_nanos.load(Ordering::Relaxed)
            + shared.help_nanos.load(Ordering::Relaxed);
        let report = SplitExecReport {
            messages: self.report.messages,
            bytes: self.report.bytes,
            measured_overlap_seconds: measured_overlap,
            measured_unpack_seconds: unpack_nanos as f64 * 1e-9,
        };
        Ok((bufs, report))
    }
}

/// Drop-without-wait: a posted handle that goes out of scope drains its
/// background workers and settles the pending tracker charges against the
/// tracker it was posted on.  The messages were sent at the post, so the
/// settled totals equal a normal wait's — cancellation never voids traffic
/// that already happened, and never leaks a pending batch or the pool's
/// submission turn.  No-op after `wait` (which takes ticket and pending).
impl<T: Element> Drop for SplitPhaseExchange<'_, T> {
    fn drop(&mut self) {
        if self.pending.is_some() {
            let _span = trace::OpenSpan::begin_static(trace::Phase::Wait, "cancel");
            // Nobody is left to hand buffers or a corrupt-message error to.
            let _ = self.complete();
        }
    }
}

/// The split mode of the wire pipeline: opens the exchange and stages
/// every destination on the caller thread (staging reads the borrowed
/// sources), then hands the owned per-pair deliveries to the pool the
/// executor names ([`PlanExecutor::streaming_pool`]) and **returns**.  The
/// caller runs its interior compute while the pairs stream; see
/// [`SplitPhaseExchange`] for the wait side.
///
/// When the executor names no pool — Serial, a 1-wide pool, a volume below
/// the threaded cutoff, and Sharded until its ranks are resident — the
/// deliveries run inline in shared memory before returning: same buffers,
/// same charges, zero measured overlap.
pub(crate) fn split_execute_fused_wire<'e, T: Element>(
    fused: FusedPlan,
    tracker: &CommTracker,
    executor: &'e impl PlanExecutor,
    srcs: &[&[Vec<T>]],
    dst_sizes: &[Vec<usize>],
) -> SplitPhaseExchange<'e, T> {
    let copy_secs = wire_copy_seconds(&fused, T::BYTES, tracker);
    let unpack_bytes = fused.moved_elements() * T::BYTES;
    let (exchange, pending, report) = WireExchange::post(fused, Vec::new(), tracker, true);
    let fused = &exchange.plan;
    let pack_span = trace::OpenSpan::begin_static(trace::Phase::WirePack, "split pack");
    // Destination buffers before wires: the buffers that become the arrays
    // are allocated first, and the short-lived messages above them leave a
    // hole at delivery that the next statement's wires refill.  Either
    // grouping beats interleaving (destination, its wires, destination,
    // ..), which fragments the heap: `adi-dynamic` peaked 2.3 MB (14 %)
    // higher that way.  Which grouping keeps the heap compact depends on
    // what else the process holds: once plans stopped holding one run per
    // column, wires first left `adi-dynamic` peaking 3.3 MB (21 %) higher.
    for d in 0..fused.index.procs() {
        exchange.stage_dest(srcs, dst_sizes, d);
    }
    for pi in 0..fused.index.pairs.len() {
        exchange.stage_pair(srcs, pi);
    }
    pack_span.end();

    let pairs = fused.index.pairs.len();
    let remaining_by_dst = (0..fused.index.procs())
        .map(|d| AtomicUsize::new(fused.index.arriving(d).len()))
        .collect();

    // Stream on the executor's pool when it names one for this volume, the
    // pool has background workers and there is a pair to deliver; otherwise
    // deliver inline now (no overlap, identical results).
    let streaming_pool = executor
        .streaming_pool(unpack_bytes)
        .filter(|pool| pairs > 0 && pool.workers() > 1);
    // Rank 0 (the caller) helps at the wait; wake only as many background
    // ranks as there are pairs to deliver.
    let width = streaming_pool.map_or(1, |pool| 1 + pairs.min(pool.workers() - 1));
    // Fault gating of the streaming decision, polled caller-side only when
    // streaming would actually happen (keeps the schedule deterministic):
    // a fired cancel falls back to the inline (blocking) drain; with dead
    // workers streaming is never attempted; a fired worker-death still
    // streams but arms one background rank to die mid-stream — the
    // recovery path adopts its items.
    let mut die_rank = None;
    let streaming_pool = streaming_pool.filter(|_| {
        let Some(inj) = tracker.fault_injector() else {
            return true;
        };
        if inj.cancel_streaming() {
            tracker.record_fault();
            tracker.record_fallback();
            return false;
        }
        if inj.dead_workers() > 0 {
            return false;
        }
        if inj.worker_death() {
            inj.mark_worker_dead();
            tracker.record_fault();
            tracker.record_fallback();
            die_rank = Some(1 + inj.pick(width - 1));
        }
        true
    });

    let shared = Arc::new(SplitShared {
        exchange,
        die_rank,
        claim: AtomicUsize::new(0),
        remaining_by_dst,
        abandoned: Mutex::new(Vec::new()),
        died: AtomicBool::new(false),
        background_nanos: AtomicU64::new(0),
        help_nanos: AtomicU64::new(0),
    });
    let ticket = match streaming_pool {
        Some(pool) => {
            let job = Arc::clone(&shared);
            Some(pool.submit(width, Arc::new(move |rank| job.drain(rank))))
        }
        None => {
            shared.drain(0);
            None
        }
    };
    SplitPhaseExchange {
        shared,
        ticket,
        pending: Some(pending),
        copy_secs,
        report,
        tracker: tracker.clone(),
        posted_at: Instant::now(),
        span: Some(trace::OpenSpan::begin_with(
            trace::Phase::SplitPending,
            || format!("{} msgs", report.messages),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_redistribute;
    use crate::{execute_class_redistribute, execute_redistribute, DistArray};
    use vf_dist::{DistType, Distribution, ProcessorView};
    use vf_index::IndexDomain;
    use vf_machine::CostModel;

    fn dist_1d(t: DistType, n: usize, p: usize) -> Distribution {
        Distribution::new(t, IndexDomain::d1(n), ProcessorView::linear(p)).unwrap()
    }

    /// The local segment size of `dist` on each of `p` processors.
    fn local_sizes(dist: &Distribution, p: usize) -> Vec<usize> {
        (0..p)
            .map(|q| dist.local_size(vf_dist::ProcId(q)))
            .collect()
    }

    fn block_to_cyclic_under<E: PlanExecutor>(
        executor: &E,
        n: usize,
        p: usize,
    ) -> (Vec<f64>, ExecReport, vf_machine::CommStats) {
        let from = dist_1d(DistType::block1d(), n, p);
        let to = dist_1d(DistType::cyclic1d(1), n, p);
        let fused = FusedPlan::fuse_one(Arc::new(plan_redistribute(&from, &to).unwrap()));
        let a = DistArray::from_fn("A", from, |pt| pt.coord(0) as f64 * 0.5);
        let tracker = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.25));
        let dst_sizes = [local_sizes(&to, p)];
        let fresh = RetiredLocals::default();
        let (bufs, report) = executor
            .execute_fused(&fused, &[a.locals()], &dst_sizes, fresh, &tracker)
            .unwrap();
        let flat: Vec<f64> = bufs.into_iter().flatten().flatten().collect();
        (flat, report, tracker.snapshot())
    }

    #[test]
    fn threaded_buffers_and_charges_match_serial() {
        let serial = block_to_cyclic_under(&SerialExecutor, 64, 4);
        let forced =
            ThreadedExecutor::with_pool(Arc::new(WorkerPool::new(3))).with_serial_cutoff(0);
        let threaded = block_to_cyclic_under(&forced, 64, 4);
        assert_eq!(serial.0, threaded.0, "copied buffers differ");
        assert_eq!(serial.1, threaded.1, "charged totals differ");
        assert_eq!(serial.2, threaded.2, "tracker snapshots differ");
        assert_eq!(forced.name(), "threaded");
        assert_eq!(SerialExecutor.name(), "serial");
    }

    #[test]
    fn small_plans_take_the_serial_path_under_the_cutoff() {
        // Below the cutoff the threaded executor degrades to the serial
        // loop; the observable behaviour is identical either way, so this
        // only checks the configuration plumbing.
        let t = ThreadedExecutor::with_pool(Arc::new(WorkerPool::new(4)));
        assert_eq!(
            t.effective_serial_cutoff(),
            ThreadedExecutor::DEFAULT_POOLED_CUTOFF_BYTES
        );
        // A split streams on the pool by the same rule; Serial never does.
        let cutoff = ThreadedExecutor::DEFAULT_POOLED_CUTOFF_BYTES;
        assert!(t.streaming_pool(cutoff - 1).is_none());
        assert_eq!(t.streaming_pool(cutoff).map(|p| p.workers()), Some(4));
        assert!(SerialExecutor.streaming_pool(usize::MAX).is_none());
        // An explicit override always wins.
        assert_eq!(t.with_serial_cutoff(7).effective_serial_cutoff(), 7);
        assert_eq!(ExecBackend::default().name(), "serial");
    }

    #[test]
    fn the_fan_out_deals_each_item_to_one_rank_in_one_dispatch() {
        let pool = Arc::new(WorkerPool::new(3));
        let t = ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0);
        for (items, jobs) in [(7usize, 1u64), (2, 2), (0, 2)] {
            let ran: Vec<(usize, Vec<std::thread::ThreadId>)> =
                (0..items).map(|i| (i, Vec::new())).collect();
            let ran = Mutex::new(ran);
            let cells: Vec<usize> = (0..items).collect();
            t.run_owned(1 << 20, cells, &|i| {
                lock(&ran)[*i].1.push(std::thread::current().id());
            });
            assert_eq!(pool.jobs_dispatched(), jobs, "{items} items");
            // Every item once; items `width` apart share a rank, and rank 0
            // is the calling thread.
            let ran = ran.into_inner().unwrap();
            let width = items.min(3);
            for (i, threads) in &ran {
                assert_eq!(threads.len(), 1, "item {i}");
                assert_eq!(threads[0], ran[i % width].1[0], "item {i}");
            }
            if let Some((_, first)) = ran.first() {
                assert_eq!(first[0], std::thread::current().id());
                let distinct: std::collections::HashSet<_> =
                    ran[..width].iter().map(|(_, t)| t[0]).collect();
                assert_eq!(distinct.len(), width, "one rank per bin");
            }
        }
    }

    #[test]
    fn copy_phase_is_charged_as_compute_and_hides_communication() {
        let n = 64usize;
        let p = 4usize;
        let from = dist_1d(DistType::block1d(), n, p);
        let to = dist_1d(DistType::cyclic1d(1), n, p);
        let plan = Arc::new(plan_redistribute(&from, &to).unwrap());
        let moved = |tracker: &CommTracker| {
            let mut a = DistArray::from_fn("A", from.clone(), |pt| pt.coord(0) as f64);
            execute_redistribute(&mut a, &plan, tracker, &SerialExecutor).unwrap();
        };
        // Baseline: copies priced at zero — no compute time, full
        // communication time, exactly the pre-credit behaviour.
        let zero_rate = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.5));
        moved(&zero_rate);
        let base = zero_rate.snapshot();
        assert_eq!(base.total_compute_time(), 0.0);
        assert!(base.critical_time() > 0.0);

        // A copy rate makes the packing work visible as compute time and
        // hides the same amount of communication time behind it.
        let priced = CommTracker::new(
            p,
            CostModel::from_alpha_beta(1.0, 0.5).with_copy_bandwidth(1e6),
        );
        moved(&priced);
        let credited = priced.snapshot();
        // Message and byte counts are untouched by the credit.
        assert_eq!(credited.total_messages(), base.total_messages());
        assert_eq!(credited.total_bytes(), base.total_bytes());
        // Copy work shows as compute, and per-processor communication time
        // shrinks by exactly the credited copy seconds (none hit zero with
        // this small rate): a crossing element is packed on its sender and
        // unpacked on its receiver, one that stays is copied once.
        assert!(credited.total_compute_time() > 0.0);
        for (pp, (c, b)) in credited.per_proc().iter().zip(base.per_proc()).enumerate() {
            let credit: f64 = plan
                .transfers()
                .iter()
                .map(|t| {
                    let (sends, receives) = (t.src.0 == pp && t.src != t.dst, t.dst.0 == pp);
                    let copies = usize::from(sends) + usize::from(receives);
                    (copies * t.elements * 8) as f64 * priced.cost().copy_per_byte
                })
                .sum();
            assert!(credit > 0.0, "P{pp}");
            assert!((b.comm_time - c.comm_time - credit).abs() < 1e-12, "P{pp}");
            assert!((c.compute_time - credit).abs() < 1e-12, "P{pp}");
        }
    }

    #[test]
    fn fusion_kind_rules_are_enforced() {
        let d = dist_1d(DistType::block1d(), 16, 4);
        let ghost = Arc::new(crate::plan::plan_ghost(&d, &[(1, 1)]).unwrap());
        let redist =
            Arc::new(plan_redistribute(&d, &dist_1d(DistType::cyclic1d(1), 16, 4)).unwrap());
        let gather = crate::PlanCache::new()
            .gather_plan(&d, &[(vf_dist::ProcId(0), vf_index::Point::d1(9))])
            .unwrap();
        // Homogeneous ghost sets fuse now; gather plans and mixed kinds do
        // not, and neither does an empty set.
        let fused_ghost = FusedPlan::fuse(vec![Arc::clone(&ghost), Arc::clone(&ghost)]).unwrap();
        assert_eq!(fused_ghost.kind(), PlanKind::Ghost);
        assert!(matches!(
            FusedPlan::fuse(vec![Arc::clone(&gather)]),
            Err(RuntimeError::FusionMismatch { .. })
        ));
        assert!(matches!(
            FusedPlan::fuse(vec![Arc::clone(&ghost), Arc::clone(&redist)]),
            Err(RuntimeError::FusionMismatch { .. })
        ));
        assert!(matches!(
            FusedPlan::fuse(Vec::new()),
            Err(RuntimeError::FusionMismatch { .. })
        ));
        // A ghost-kind fused plan cannot drive the redistribute executor.
        let mut a = DistArray::from_fn("A", dist_1d(DistType::block1d(), 16, 4), |pt| {
            pt.coord(0) as f64
        });
        let mut b = a.clone();
        let tracker = CommTracker::new(4, CostModel::zero());
        assert!(matches!(
            execute_class_redistribute(
                &mut [&mut a, &mut b],
                &fused_ghost,
                &tracker,
                &SerialExecutor,
                &mut RetiredLocals::default()
            ),
            Err(RuntimeError::FusionMismatch { .. })
        ));
    }

    #[test]
    fn wire_slices_tile_each_fused_pair() {
        let d = dist_1d(DistType::block1d(), 24, 4);
        let one = Arc::new(crate::plan::plan_ghost(&d, &[(1, 1)]).unwrap());
        let two = Arc::new(crate::plan::plan_ghost(&d, &[(2, 2)]).unwrap());
        let fused = FusedPlan::fuse(vec![Arc::clone(&one), Arc::clone(&two), one]).unwrap();
        let mut checked = 0usize;
        for &((src, dst), total) in &fused.index.pairs {
            let slices = fused.wire_slices(src, dst);
            assert!(!slices.is_empty());
            // Parts appear in fusion order and their payloads tile the
            // message without gaps — the remapping a receiver needs to
            // unpack each array's slots from the single wire message.
            let mut offset = 0usize;
            for s in slices {
                assert_eq!(s.wire_offset, offset, "{src}->{dst}");
                offset += s.elements;
            }
            assert_eq!(offset, total);
            assert!(slices.windows(2).all(|w| w[0].part < w[1].part));
            checked += 1;
        }
        assert!(checked > 0);
        assert!(
            fused.wire_slices(0, 0).is_empty(),
            "local pairs carry nothing"
        );
    }

    #[test]
    fn fused_class_charges_one_message_per_pair() {
        let n = 24usize;
        let p = 4usize;
        let from = dist_1d(DistType::block1d(), n, p);
        let to = dist_1d(DistType::cyclic1d(1), n, p);
        let plan = Arc::new(plan_redistribute(&from, &to).unwrap());
        let parts = vec![Arc::clone(&plan), Arc::clone(&plan), plan];
        let per_array_messages: usize = parts.iter().map(|p| p.num_messages()).sum();
        let fused = FusedPlan::fuse(parts).unwrap();
        assert!(fused.num_messages() < per_array_messages);
        assert!(fused.num_messages() <= p * (p - 1));

        let mut a = DistArray::from_fn("A", from.clone(), |pt| pt.coord(0) as f64);
        let mut b = DistArray::from_fn("B", from.clone(), |pt| -(pt.coord(0) as f64));
        let mut c = DistArray::from_fn("C", from.clone(), |pt| pt.coord(0) as f64 * 3.0);
        let dense = (a.to_dense(), b.to_dense(), c.to_dense());
        let tracker = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.5));
        let (reports, exec) = execute_class_redistribute(
            &mut [&mut a, &mut b, &mut c],
            &fused,
            &tracker,
            &SerialExecutor,
            &mut RetiredLocals::default(),
        )
        .unwrap();
        // Data preserved per array; bytes are the sum of the parts.
        assert_eq!(a.to_dense(), dense.0);
        assert_eq!(b.to_dense(), dense.1);
        assert_eq!(c.to_dense(), dense.2);
        assert_eq!(exec.messages, fused.num_messages());
        assert_eq!(exec.bytes, fused.bytes_for(8));
        assert_eq!(
            reports.iter().map(|r| r.bytes).sum::<usize>(),
            exec.bytes,
            "fusion never changes the byte volume"
        );
        // The tracker saw exactly the fused counts.
        let stats = tracker.snapshot();
        assert_eq!(stats.total_messages(), exec.messages);
        assert_eq!(stats.total_bytes(), exec.bytes);
    }

    #[test]
    fn wire_fused_redistribute_matches_per_part_bitwise() {
        // A class of three arrays with two *different* target layouts in
        // one fusion: the class verb must produce bitwise what each part's
        // own array verb (a class of one) produces, with identical
        // per-array reports, bytes conserved and one message per crossing
        // pair — serial and pooled alike.
        let n = 48usize;
        let p = 4usize;
        let from = dist_1d(DistType::block1d(), n, p);
        let to_a = dist_1d(DistType::cyclic1d(1), n, p);
        let to_b = dist_1d(DistType::gen_block1d(vec![3, 21, 12, 12]), n, p);
        let plan_a = Arc::new(plan_redistribute(&from, &to_a).unwrap());
        let plan_b = Arc::new(plan_redistribute(&from, &to_b).unwrap());
        let fused =
            FusedPlan::fuse(vec![Arc::clone(&plan_a), Arc::clone(&plan_b), plan_a]).unwrap();

        let build = || {
            [
                DistArray::from_fn("A", from.clone(), |pt| pt.coord(0) as f64 * 1.5),
                DistArray::from_fn("B", from.clone(), |pt| -(pt.coord(0) as f64)),
                DistArray::from_fn("C", from.clone(), |pt| pt.coord(0) as f64 + 0.25),
            ]
        };
        let mut alone = build();
        let t1 = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.5));
        let reports1: Vec<_> = alone
            .iter_mut()
            .zip(fused.parts())
            .map(|(array, part)| execute_redistribute(array, part, &t1, &SerialExecutor).unwrap())
            .collect();

        let pool = Arc::new(WorkerPool::new(3));
        for (name, executor) in [
            ("serial", ExecBackend::Serial),
            (
                "pooled",
                ExecBackend::Threaded(
                    ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0),
                ),
            ),
        ] {
            let mut class = build();
            let t2 = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.5));
            let (reports2, exec2) = {
                let mut refs: Vec<&mut DistArray<f64>> = class.iter_mut().collect();
                execute_class_redistribute(
                    &mut refs,
                    &fused,
                    &t2,
                    &executor,
                    &mut RetiredLocals::default(),
                )
                .unwrap()
            };
            for (one, fused_member) in alone.iter().zip(&class) {
                assert_eq!(one.to_dense(), fused_member.to_dense(), "{name}");
                assert_eq!(one.dist(), fused_member.dist(), "{name}");
            }
            assert_eq!(reports1, reports2, "{name}");
            // One message per crossing pair, bytes conserved over the parts.
            assert_eq!(exec2.messages, fused.num_messages(), "{name}");
            assert_eq!(
                exec2.bytes,
                reports1.iter().map(|r| r.bytes).sum::<usize>(),
                "{name}"
            );
            let (alone_stats, class_stats) = (t1.snapshot(), t2.snapshot());
            assert_eq!(class_stats.total_messages(), exec2.messages, "{name}");
            assert_eq!(
                class_stats.total_bytes(),
                alone_stats.total_bytes(),
                "{name}"
            );
            assert!(class_stats.total_messages() < alone_stats.total_messages());
        }
        assert!(pool.jobs_dispatched() > 0, "the class verb used the pool");
    }

    #[test]
    fn wire_fused_validates_before_moving() {
        let from = dist_1d(DistType::block1d(), 16, 4);
        let to = dist_1d(DistType::cyclic1d(1), 16, 4);
        let plan = Arc::new(plan_redistribute(&from, &to).unwrap());
        let fused = FusedPlan::fuse(vec![Arc::clone(&plan), plan]).unwrap();
        let mut good = DistArray::from_fn("G", from, |pt| pt.coord(0) as f64);
        let mut bad = DistArray::from_fn("B", to, |pt| pt.coord(0) as f64);
        let before = good.to_dense();
        let tracker = CommTracker::new(4, CostModel::zero());
        let err = execute_class_redistribute(
            &mut [&mut good, &mut bad],
            &fused,
            &tracker,
            &SerialExecutor,
            &mut RetiredLocals::default(),
        );
        assert!(matches!(err, Err(RuntimeError::PlanMismatch { .. })));
        assert_eq!(good.to_dense(), before, "no data moved on failure");
        assert_eq!(tracker.snapshot().total_messages(), 0);
    }

    #[test]
    fn fused_arity_mismatch_rejected() {
        let from = dist_1d(DistType::block1d(), 8, 2);
        let to = dist_1d(DistType::cyclic1d(1), 8, 2);
        let plan = Arc::new(plan_redistribute(&from, &to).unwrap());
        let fused = FusedPlan::fuse(vec![plan]).unwrap();
        let mut a = DistArray::from_fn("A", from, |pt| pt.coord(0) as f64);
        let mut b = a.clone();
        let tracker = CommTracker::new(2, CostModel::zero());
        let err = execute_class_redistribute(
            &mut [&mut a, &mut b],
            &fused,
            &tracker,
            &SerialExecutor,
            &mut RetiredLocals::default(),
        );
        assert!(matches!(err, Err(RuntimeError::FusionMismatch { .. })));
    }

    #[test]
    fn retired_locals_fit_best_and_free_the_rest_before_allocating() {
        let spares = RetiredLocals(vec![
            vec![1.0f64; 100],
            vec![2.0; 64],
            vec![3.0; 40],
            vec![4.0; 10],
            vec![5.0; 300],
        ]);
        // Part 0 wants 60 on processor 0, 36 on 1 and 400 on 2; part 1
        // wants 95 on 1 and 250 on 2; processor 0's part 1 is empty.
        let out = spares.fit(&[vec![60, 36, 400], vec![0, 95, 250]], 3);
        let held = |out: &[Vec<f64>], d: usize, part: usize| -> (usize, usize, Option<f64>) {
            let buf = &out[d * 2 + part];
            (buf.len(), buf.capacity(), buf.first().copied())
        };
        // Largest first, each the spare of smallest capacity at least its
        // length, cut to that length and keeping its capacity: 250 takes
        // the 300 (however much longer it is), 95 the 100, 60 the 64, 36
        // the 40.
        assert_eq!(held(&out, 2, 1), (250, 300, Some(5.0)));
        assert_eq!(held(&out, 1, 1), (95, 100, Some(1.0)));
        assert_eq!(held(&out, 0, 0), (60, 64, Some(2.0)));
        assert_eq!(held(&out, 1, 0), (36, 40, Some(3.0)));
        // No spare holds 400: no fit, and no fresh buffer either — `fit`
        // allocates nothing, and the spare it could not place (the 10)
        // went with it.
        assert_eq!(held(&out, 2, 0), (0, 0, None));
        assert_eq!(held(&out, 0, 1), (0, 0, None));
        let kept: usize = out.iter().map(Vec::capacity).sum();
        assert_eq!(kept, 300 + 100 + 64 + 40);
        // A buffer cut short grows back within its capacity, in place: the
        // 300 serves a 290 with the same allocation.
        let at = out[2 * 2 + 1].as_ptr();
        let again = RetiredLocals(out).fit(&[vec![290]], 1);
        assert_eq!(held(&again, 0, 0), (290, 300, Some(5.0)));
        assert_eq!(again[0].as_ptr(), at);
        assert_eq!(again[0][250..], [0.0; 40]);
        // An empty store fits nothing.
        assert!(RetiredLocals::<f64>::default()
            .fit(&[vec![8, 8]], 2)
            .is_empty());
    }

    #[test]
    fn retired_locals_recycle_and_never_outgrow_one_class() {
        // A class of three cycled block -> cyclic(2) -> uneven gen_block ->
        // block -> .. over eight statements with one store: the data stays
        // bitwise, after every statement the store holds at most one
        // class's buffers of at most the longest local each (the bound on
        // `RetiredLocals`) — and on a backend that cannot use spares,
        // nothing.
        let (n, p) = (96usize, 4usize);
        let layouts = [
            DistType::block1d(),
            DistType::cyclic1d(2),
            DistType::gen_block1d(vec![10, 40, 30, 16]),
        ];
        let bound = 3 * p * 40 * 8;
        let pool = Arc::new(WorkerPool::new(3));
        let backends = [
            ExecBackend::Serial,
            ExecBackend::Threaded(ThreadedExecutor::with_pool(pool).with_serial_cutoff(0)),
            ExecBackend::Sharded(crate::ShardedExecutor::new()),
        ];
        for backend in &backends {
            let fills: Vec<Vec<f64>> = (0..3)
                .map(|k| (0..n).map(|i| (i * 3 + k) as f64 * 0.5).collect())
                .collect();
            let mut class: Vec<DistArray<f64>> = fills
                .iter()
                .map(|fill| DistArray::from_dense("A", dist_1d(layouts[0].clone(), n, p), fill))
                .collect::<Result<_>>()
                .unwrap();
            let tracker = CommTracker::new(p, CostModel::zero());
            let mut spares = RetiredLocals::default();
            for (step, layout) in layouts.iter().cycle().skip(1).take(8).enumerate() {
                let to = dist_1d(layout.clone(), n, p);
                let plan = Arc::new(plan_redistribute(class[0].dist(), &to).unwrap());
                let fused = FusedPlan::fuse(vec![plan; 3]).unwrap();
                let held: Vec<*const f64> = spares.0.iter().map(|buf| buf.as_ptr()).collect();
                let mut refs: Vec<&mut DistArray<f64>> = class.iter_mut().collect();
                execute_class_redistribute(&mut refs, &fused, &tracker, backend, &mut spares)
                    .unwrap();
                let name = backend.name();
                // The store holds the locals the last statement replaced:
                // entering a block layout they are cyclic(2) locals of the
                // same lengths, so each of the twelve destinations is one of
                // them.  Elsewhere a fresh buffer may land where a freed
                // spare was, so addresses prove nothing there.
                if backend.recycles_locals() && step % 3 == 2 {
                    let reused = class
                        .iter()
                        .flat_map(|array| array.locals())
                        .filter(|buf| held.contains(&buf.as_ptr()))
                        .count();
                    assert_eq!(reused, 3 * p, "{name} step {step}");
                }
                if backend.recycles_locals() {
                    assert!(spares.held_bytes() > 0, "{name} step {step}: retired");
                    assert!(spares.held_bytes() <= bound, "{name} step {step}");
                } else {
                    assert_eq!(spares.held_bytes(), 0, "{name} step {step}: holds none");
                }
                for (array, fill) in class.iter().zip(&fills) {
                    assert_eq!(&array.to_dense(), fill, "{name} step {step}");
                    array.check_invariants().unwrap();
                }
            }
        }
    }

    #[test]
    fn wire_checksum_detects_every_single_bit_flip() {
        // The fold is GF(2)-linear over the payload bits, so a single
        // flipped bit must always change the sum — corruption can never be
        // silently unpacked.  Exhaustive over every bit of a small wire.
        let wire: Vec<f64> = vec![0.0, 1.5, -2.25, 1.0e300, f64::MIN_POSITIVE];
        let clean = wire_checksum(&wire);
        for e in 0..wire.len() {
            for bit in 0..64u32 {
                let mut corrupt = wire.clone();
                corrupt[e] = corrupt[e].flip_bit(bit);
                assert_ne!(
                    wire_checksum(&corrupt),
                    clean,
                    "flip of element {e} bit {bit} went undetected"
                );
            }
        }
        // Length is mixed into the sum: truncation is detected even when
        // the removed element is all zeros.
        assert_ne!(wire_checksum(&wire[..4]), clean);
    }

    #[test]
    fn verify_wire_reports_corrupt_message() {
        let mut wire: Vec<u32> = (0..16).collect();
        let frame = WireFrame {
            seq: 41,
            elements: wire.len(),
            checksum: wire_checksum(&wire),
        };
        verify_wire(&wire, &frame, 0, 1).unwrap();
        wire[7] = wire[7].flip_bit(3);
        let err = verify_wire(&wire, &frame, 2, 5).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::CorruptMessage {
                src: 2,
                dst: 5,
                seq: 41,
            }
        );
        // Restoring the pristine element (the modelled retransmission)
        // makes the same frame verify again.
        wire[7] = wire[7].flip_bit(3);
        verify_wire(&wire, &frame, 2, 5).unwrap();
        // A truncated wire fails on the element count alone.
        assert!(verify_wire(&wire[..15], &frame, 2, 5).is_err());
    }

    #[test]
    fn frame_sequence_numbers_follow_the_statement_on_its_tracker() {
        // A frame's `seq` is its message's number on the tracker the
        // statement was posted on: pair `pi` gets `base + pi`, `base`
        // counting the messages posted there before — whatever other
        // trackers in the process are doing.  `stage_pair` is the one place
        // that stamps frames, for the blocking and the split mode alike
        // (`shard.rs` reads back the frames a channel statement sent).
        let (n, p) = (24usize, 4usize);
        let from = dist_1d(DistType::block1d(), n, p);
        let to = dist_1d(DistType::cyclic1d(1), n, p);
        let plan = Arc::new(plan_redistribute(&from, &to).unwrap());
        let fused = FusedPlan::fuse(vec![Arc::clone(&plan), plan]).unwrap();
        let pairs = fused.num_messages() as u64;
        assert!(pairs > 1);
        let a = DistArray::from_fn("A", from, |pt| pt.coord(0) as f64);
        let srcs = [a.locals(), a.locals()];
        let dst_sizes = vec![local_sizes(&to, p); 2];
        // Stages one statement with the deliveries held back, reads the
        // stamped frames, then completes it.
        let staged_seqs = |t: &CommTracker| -> Vec<u64> {
            let (exchange, pending, _) = WireExchange::post(&fused, Vec::new(), t, true);
            (0..exchange.wires.len()).for_each(|pi| exchange.stage_pair(&srcs, pi));
            (0..p).for_each(|d| exchange.stage_dest(&srcs, &dst_sizes, d));
            let frame_seq = |w: &Mutex<Option<Wire<f64>>>| lock(w).as_ref().unwrap().frame.seq;
            let seqs = exchange.wires.iter().map(frame_seq).collect();
            (0..exchange.wires.len()).for_each(|pi| exchange.deliver(pi));
            exchange.finish(t, pending, &[]).unwrap();
            seqs
        };
        let tracker = || CommTracker::new(p, CostModel::zero());
        let (t1, t2, bystander) = (tracker(), tracker(), tracker());
        let first = staged_seqs(&t1);
        assert_eq!(first, (0..pairs).collect::<Vec<_>>(), "base + pi");
        staged_seqs(&bystander);
        assert_eq!(staged_seqs(&t2), first, "a fresh tracker repeats them");
        staged_seqs(&bystander);
        let second = staged_seqs(&t1);
        assert_eq!(second, (pairs..2 * pairs).collect::<Vec<_>>());
    }

    #[test]
    fn backend_overrides_are_a_function_of_the_two_values() {
        // `ExecBackend::auto` is `with_overrides` applied to the two
        // environment variables; tested on plain values, so no test
        // mutates the process environment.
        let host = || ThreadedExecutor::with_pool(Arc::new(WorkerPool::new(3)));
        let cutoff_of = |cutoff, backend| match ExecBackend::with_overrides(host(), cutoff, backend)
        {
            ExecBackend::Threaded(t) => t.effective_serial_cutoff(),
            other => panic!("expected the threaded backend, got {}", other.name()),
        };
        let default = ThreadedExecutor::DEFAULT_POOLED_CUTOFF_BYTES;
        assert_eq!(cutoff_of(None, None), default);
        // An override is honoured, whitespace and all; zero and garbage
        // are rejected and the default stays.
        assert_eq!(cutoff_of(Some(" 12345\n"), None), 12345);
        for raw in ["0", "", "32k", "-1"] {
            assert_eq!(cutoff_of(Some(raw), None), default, "{raw:?}");
        }
        // `threaded` and an unknown name both keep the host's choice.
        assert_eq!(cutoff_of(Some("777"), Some("threaded")), 777);
        assert_eq!(cutoff_of(Some("777"), Some("gpu")), 777);
        let named = |name| ExecBackend::with_overrides(host(), Some("777"), Some(name));
        assert!(matches!(named("sharded"), ExecBackend::Sharded(_)));
        assert!(matches!(named(" serial "), ExecBackend::Serial));
        // A one-worker host is serial whatever the cutoff says.
        let narrow = ThreadedExecutor::with_pool(Arc::new(WorkerPool::new(1)));
        let on_narrow = ExecBackend::with_overrides(narrow, Some("777"), Some("threaded"));
        assert!(matches!(on_narrow, ExecBackend::Serial));
    }
}
