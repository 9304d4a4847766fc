//! Plan execution: the engines, and the one seam that picks the transport.
//!
//! Planning and execution are separate (the PARTI inspector / executor
//! split, see [`crate::plan`]): a statement verb — `redistribute`,
//! `exchange_ghosts`, `execute_gather`, `assign`, and the class verbs —
//! validates and sizes, then hands its plan to a [`PlanExecutor`].  The
//! executor, not the caller, decides how the data moves.  There are three
//! engines:
//!
//! * **direct copy** — [`PlanExecutor::execute`] runs *one plan* on a
//!   shared-memory executor: one `copy_from_slice` per run from the
//!   sender's buffer straight into the receiver's
//!   ([`PlanExecutor::run_copies`]) — the reference every other engine is
//!   tested against.
//! * **wire pipeline** — a *fused class* ([`FusedPlan`]: one message per
//!   processor pair for the whole class) on a shared-memory executor: one
//!   exchange state with one stage body (a destination's buffers, a pair's
//!   packed frame) and one `deliver` per pair (`WireExchange`).  The mode
//!   is *when `deliver` runs*:
//!   [`PlanExecutor::execute_fused`] (blocking) delivers each pair as soon
//!   as it is staged, inside one pool dispatch; the split verbs
//!   ([`crate::ghost::exchange_class_ghosts_split`],
//!   [`crate::redistribute_split`]) stage at the post and stream the
//!   deliveries on the backend's pool until the wait
//!   ([`SplitPhaseExchange`]).
//! * **channel frames** — [`crate::shard::ShardedExecutor`] (and so
//!   [`ExecBackend::Sharded`]) overrides both `execute*` methods: each rank
//!   reads only its own segment and every crossing pair travels over a
//!   real [`vf_machine::spmd`] channel — from every call site, because the
//!   override is in the executor.
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

use crate::plan::{CommPlan, PlanKind, PlanRun, Transfer};
use crate::{Element, Result, RuntimeError};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::iter::repeat_with;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use vf_machine::{pool, spmd, trace, CommTracker, JobTicket, WorkerPool};

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
/// Verbs call [`PlanExecutor::execute`] (one plan) or
/// [`PlanExecutor::execute_fused`] (a class); the provided bodies are the
/// shared-memory engines on the calling thread.  A backend says *where*
/// copies and per-owner work run through the `run_copies` and `run_owned`
/// hooks ([`ThreadedExecutor`] also fans the class engine's destinations
/// out over its pool); a backend with a different transport overrides the
/// two `execute*` methods instead ([`crate::shard::ShardedExecutor`]).
/// Whatever the backend, buffers and charges are bit-identical to
/// [`SerialExecutor`]'s.
pub trait PlanExecutor {
    /// Human-readable backend name (used by reports).
    fn name(&self) -> &'static str;

    /// Allocates one destination buffer per entry of `dst_sizes`
    /// (default-filled) and copies every run of every transfer from `src`
    /// into it.  `tracker` is the machine context threads are accounted
    /// against; the copies themselves charge nothing.
    fn run_copies<T: Element>(
        &self,
        transfers: &[Transfer],
        src: &[Vec<T>],
        dst_sizes: &[usize],
        tracker: &CommTracker,
    ) -> Vec<Vec<T>>;

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

    /// Executes one plan — the **direct copy** engine: posts the plan's
    /// modelled messages, copies every run straight from `src` into fresh
    /// destination buffers ([`PlanExecutor::run_copies`]), then completes
    /// the posted messages — the non-blocking post/wait pattern of a real
    /// message-passing machine.
    ///
    /// When the cost model prices local copies
    /// ([`vf_machine::CostModel::copy_per_byte`] non-zero), the copy phase
    /// is charged as per-destination compute time and credited as overlap
    /// at the wait.  At the default zero rate the accounting is
    /// bit-identical to a plain post/wait.
    ///
    /// Returns the destination buffers and what was charged.
    ///
    /// # Errors
    /// Never on a shared-memory backend; a channel transport reports
    /// [`RuntimeError::Channel`] / [`RuntimeError::CorruptMessage`] (the
    /// posted charges are settled first, `src` is only borrowed).
    fn execute<T: Element>(
        &self,
        plan: &Arc<CommPlan>,
        src: &[Vec<T>],
        dst_sizes: &[usize],
        tracker: &CommTracker,
        aggregate: bool,
    ) -> Result<(Vec<Vec<T>>, ExecReport)> {
        // Directory page fetches of the inspection (indirect distributions
        // only, first execution only) complete before the data moves; they
        // are charged to the tracker but are not part of the data-plane
        // report.
        plan.charge_directory(tracker);
        let (batch, messages, bytes) = plan.message_batch(T::BYTES, aggregate);
        let post = trace::OpenSpan::begin_with(trace::Phase::Post, || format!("{messages} msgs"));
        let pending = tracker.post_many(batch);
        post.end();
        let copy = trace::OpenSpan::begin(trace::Phase::Unpack);
        let out = self.run_copies(plan.transfers(), src, dst_sizes, tracker);
        copy.end();
        let wait = trace::OpenSpan::begin(trace::Phase::Wait);
        finish_with_copy_credit(
            tracker,
            pending,
            &copy_seconds(plan.transfers(), T::BYTES, tracker),
        );
        wait.end();
        Ok((out, ExecReport { messages, bytes }))
    }

    /// Executes a fused class — the **wire pipeline**, blocking: the
    /// class's single message per crossing pair is posted, every
    /// destination is staged and each of its arriving pairs delivered as
    /// soon as it is packed, and the batch completes with the pack/unpack
    /// seconds credited as copy-overlap compute.  The provided body walks
    /// the destinations in order on the calling thread.  `srcs[i]` /
    /// `dst_sizes[i]` are part `i`'s per-processor source buffers and
    /// destination sizes; returns per-part, per-processor buffers.
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
        tracker: &CommTracker,
    ) -> Result<(Vec<Vec<Vec<T>>>, ExecReport)> {
        execute_fused_blocking(fused, srcs, dst_sizes, tracker, None)
    }
}

/// Per-destination-processor seconds spent in the copy phase of
/// `transfers` under the tracker's cost model (empty when the model prices
/// copies at zero — the default).  Each element lands in exactly one
/// destination buffer, so the unpacking work is attributed to the
/// destination.
pub(crate) fn copy_seconds(
    transfers: &[Transfer],
    elem_bytes: usize,
    tracker: &CommTracker,
) -> Vec<f64> {
    let rate = tracker.cost().copy_per_byte;
    if rate == 0.0 {
        return Vec::new();
    }
    let mut secs = vec![0.0f64; tracker.num_procs()];
    for t in transfers {
        if let Some(s) = secs.get_mut(t.dst.0) {
            *s += (t.elements * elem_bytes) as f64 * rate;
        }
    }
    secs
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
/// receiver's buffer `dst` — the direct-copy engine's unit of work, and
/// how every engine moves the elements that stay on their processor.
/// Zero-length runs are skipped before any slice arithmetic.
pub(crate) fn copy_runs<T: Copy>(t: &Transfer, src: &[T], dst: &mut [T]) {
    for run in t.runs.iter().filter(|r| r.len > 0) {
        dst[run.dst_start..run.dst_start + run.len]
            .copy_from_slice(&src[run.src_start..run.src_start + run.len]);
    }
}

/// Packs `t`'s runs, in plan order, into `wire` — the part's window of its
/// pair's message, which the runs fill exactly.
fn pack_runs<T: Copy>(t: &Transfer, src: &[T], wire: &mut [T]) {
    let mut off = 0usize;
    for run in t.runs.iter().filter(|r| r.len > 0) {
        wire[off..off + run.len].copy_from_slice(&src[run.src_start..run.src_start + run.len]);
        off += run.len;
    }
    debug_assert_eq!(off, wire.len(), "slice fills its window");
}

/// Replays `t`'s runs against the part's window `wire` of a received
/// message, landing every element at its own offset of `dst` (ghost slot /
/// new local offset — untouched by fusion).
fn unpack_runs<T: Copy>(t: &Transfer, wire: &[T], dst: &mut [T]) {
    let mut off = 0usize;
    for run in t.runs.iter().filter(|r| r.len > 0) {
        dst[run.dst_start..run.dst_start + run.len].copy_from_slice(&wire[off..off + run.len]);
        off += run.len;
    }
}

/// The in-process serial backend: every copy runs on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl PlanExecutor for SerialExecutor {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn run_copies<T: Element>(
        &self,
        transfers: &[Transfer],
        src: &[Vec<T>],
        dst_sizes: &[usize],
        _tracker: &CommTracker,
    ) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = dst_sizes
            .iter()
            .map(|&len| vec![T::default(); len])
            .collect();
        for t in transfers.iter().filter(|t| t.elements > 0) {
            copy_runs(t, &src[t.src.0], &mut out[t.dst.0]);
        }
        out
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
    pub(crate) fn effective_serial_cutoff(&self) -> usize {
        self.cutoff_override
            .unwrap_or(Self::DEFAULT_POOLED_CUTOFF_BYTES)
    }

    /// The persistent worker pool the executor submits to.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The worker count (the pool's).
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Whether a job of `copy_bytes` runs on the calling thread.
    fn runs_serially(&self, copy_bytes: usize) -> bool {
        self.workers() <= 1 || copy_bytes < self.effective_serial_cutoff()
    }

    /// Runs `num_items` independent work items on the pool, partitioned
    /// round-robin by item.  Every threaded path funnels through here.
    ///
    /// Under fault injection the dispatch degrades rather than fails: a
    /// fired worker-death marks one worker dead in the tracker's injector,
    /// and as long as any workers are marked dead the pool is bypassed —
    /// fresh-spawn threads carry the job while more than one worker
    /// survives, a serial loop on the calling thread otherwise.  Both
    /// fallbacks return results in item order, so the produced buffers
    /// stay bitwise identical to the healthy path.
    fn dispatch<R, F>(&self, tracker: &CommTracker, num_items: usize, work: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if let Some(inj) = tracker.fault_injector() {
            if inj.worker_death() {
                inj.mark_worker_dead();
                tracker.record_fault();
                tracker.record_fallback();
            }
            let dead = inj.dead_workers();
            if dead > 0 {
                let healthy = self.workers().saturating_sub(dead);
                return if healthy > 1 {
                    spmd::run_partitioned(healthy, tracker, num_items, |_ctx, item| work(item))
                } else {
                    (0..num_items).map(work).collect()
                };
            }
        }
        self.pool
            .run_partitioned(tracker, num_items, |_ctx, item| work(item))
    }

    /// Hands one `&mut` work item to each of the first `items.len()` pool
    /// ranks (at most one item per worker by construction).  The cells
    /// only exist to pass `&mut` items through the shared job closure —
    /// one uncontended lock each — and the wake is sized to the item
    /// count, so fewer items than workers never pays a full-pool wake.
    fn run_one_each<I: Send>(&self, items: Vec<I>, work: impl Fn(&mut I) + Sync) {
        let cells: Vec<Mutex<I>> = items.into_iter().map(Mutex::new).collect();
        self.pool.run_limited(cells.len(), &|rank| {
            if let Some(cell) = cells.get(rank) {
                work(&mut lock(cell));
            }
        });
    }
}

impl PlanExecutor for ThreadedExecutor {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn run_copies<T: Element>(
        &self,
        transfers: &[Transfer],
        src: &[Vec<T>],
        dst_sizes: &[usize],
        tracker: &CommTracker,
    ) -> Vec<Vec<T>> {
        let elem = std::mem::size_of::<T>();
        let mut dest_bytes = vec![0usize; dst_sizes.len()];
        for t in transfers {
            if let Some(b) = dest_bytes.get_mut(t.dst.0) {
                *b += t.elements * elem;
            }
        }
        let copy_bytes: usize = dest_bytes.iter().sum();
        if self.runs_serially(copy_bytes) {
            return SerialExecutor.run_copies(transfers, src, dst_sizes, tracker);
        }
        // Skew check: the per-destination partition serialises one worker
        // on the hottest receiver.  When that receiver carries more than
        // twice an even worker share, split *its* run list across the
        // workers instead (irregular plans — gather-like redistributions
        // into one owner — are exactly this case).
        let (hot, &hot_bytes) = dest_bytes
            .iter()
            .enumerate()
            .max_by_key(|&(_, b)| *b)
            .expect("dst_sizes is non-empty for a plan above the cutoff");
        let skewed = hot_bytes * self.workers() > 2 * copy_bytes.max(1);
        let mut out = self.dispatch(tracker, dst_sizes.len(), |dst| {
            if skewed && dst == hot {
                // Filled by the split phase below.
                return Vec::new();
            }
            let mut buf = vec![T::default(); dst_sizes[dst]];
            for t in transfers
                .iter()
                .filter(|t| t.dst.0 == dst && t.elements > 0)
            {
                copy_runs(t, &src[t.src.0], &mut buf);
            }
            buf
        });
        if skewed {
            out[hot] = self.copy_hot_destination_split(transfers, src, dst_sizes[hot], hot);
        }
        out
    }

    /// Above the cutoff the items are dealt round-robin over the workers
    /// — each item is touched by exactly one worker, and one worker runs
    /// its items in order — and the dispatch wakes only as many workers as
    /// got one.
    fn run_owned<I: Send>(&self, bytes: usize, items: Vec<I>, work: &(dyn Fn(&mut I) + Sync)) {
        if items.is_empty() || self.runs_serially(bytes) {
            return SerialExecutor.run_owned(bytes, items, work);
        }
        let workers = self.workers();
        let mut bins: Vec<Vec<I>> = (0..workers.min(items.len())).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            bins[i % workers].push(item);
        }
        self.run_one_each(bins, |bin| bin.iter_mut().for_each(work));
    }

    /// The wire pipeline with its destinations fanned out over the pool:
    /// one dispatch, one work item per destination (inline below the
    /// cutoff, exactly as the provided body runs them).
    fn execute_fused<T: Element>(
        &self,
        fused: &FusedPlan,
        srcs: &[&[Vec<T>]],
        dst_sizes: &[Vec<usize>],
        tracker: &CommTracker,
    ) -> Result<(Vec<Vec<Vec<T>>>, ExecReport)> {
        execute_fused_blocking(fused, srcs, dst_sizes, tracker, Some(self))
    }
}

impl ThreadedExecutor {
    /// Copies every run targeting the hot destination with the run list
    /// split across the workers.
    ///
    /// Each destination element is written by exactly one run, so the runs
    /// targeting one destination have pairwise-disjoint destination
    /// intervals; sorted by destination offset they tile the buffer in
    /// order, and cutting between runs yields independent contiguous
    /// regions that `split_at_mut` hands to the pool's workers — safe
    /// parallel writes into one buffer, no locking on the data path,
    /// bitwise-identical output.
    fn copy_hot_destination_split<T: Element>(
        &self,
        transfers: &[Transfer],
        src: &[Vec<T>],
        dst_size: usize,
        hot: usize,
    ) -> Vec<T> {
        let mut runs: Vec<(usize, PlanRun)> = transfers
            .iter()
            .filter(|t| t.dst.0 == hot && t.elements > 0)
            .flat_map(|t| t.runs.iter().map(move |r| (t.src.0, *r)))
            .filter(|(_, r)| r.len > 0)
            .collect();
        runs.sort_unstable_by_key(|(_, r)| r.dst_start);
        let total: usize = runs.iter().map(|(_, r)| r.len).sum();
        let mut buf = vec![T::default(); dst_size];
        if total == 0 {
            return buf;
        }
        // Chunk boundaries between runs, at roughly even element counts.
        let per_chunk = total.div_ceil(self.workers());
        let mut chunks: Vec<(usize, usize)> = Vec::with_capacity(self.workers()); // run index ranges
        let mut start = 0usize;
        let mut acc = 0usize;
        for (i, (_, r)) in runs.iter().enumerate() {
            acc += r.len;
            if acc >= per_chunk && i + 1 < runs.len() {
                chunks.push((start, i + 1));
                start = i + 1;
                acc = 0;
            }
        }
        chunks.push((start, runs.len()));
        // Cut the buffer into the chunks' disjoint regions first, then
        // hand each (base offset, region, runs) work item to a worker.
        type HotChunk<'a, T> = (usize, &'a mut [T], &'a [(usize, PlanRun)]);
        let mut items: Vec<HotChunk<'_, T>> = Vec::with_capacity(chunks.len());
        {
            let mut remaining: &mut [T] = &mut buf;
            let mut offset = 0usize;
            for (k, &(lo, hi)) in chunks.iter().enumerate() {
                // The chunk's region ends where the next chunk's first run
                // starts (disjoint sorted runs: every run of this chunk
                // ends at or before that offset).
                let end = if k + 1 < chunks.len() {
                    runs[chunks[k + 1].0].1.dst_start
                } else {
                    dst_size
                };
                let (region, tail) = remaining.split_at_mut(end - offset);
                items.push((offset, region, &runs[lo..hi]));
                remaining = tail;
                offset = end;
            }
        }
        self.run_one_each(items, |(base, region, chunk_runs)| {
            for &(sp, r) in *chunk_runs {
                region[r.dst_start - *base..r.dst_start - *base + r.len]
                    .copy_from_slice(&src[sp][r.src_start..r.src_start + r.len]);
            }
        });
        buf
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
        if threaded.workers() > 1 {
            ExecBackend::Threaded(threaded)
        } else {
            ExecBackend::Serial
        }
    }

    /// The persistent worker pool of the threaded backend, if any — the
    /// handle a `VfScope` keeps alive across statements.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        match self {
            ExecBackend::Serial => None,
            ExecBackend::Threaded(t) => Some(t.pool()),
            ExecBackend::Sharded(s) => s.pool(),
        }
    }
}

impl PlanExecutor for ExecBackend {
    fn name(&self) -> &'static str {
        match self {
            ExecBackend::Serial => SerialExecutor.name(),
            ExecBackend::Threaded(t) => t.name(),
            ExecBackend::Sharded(s) => s.name(),
        }
    }

    fn run_copies<T: Element>(
        &self,
        transfers: &[Transfer],
        src: &[Vec<T>],
        dst_sizes: &[usize],
        tracker: &CommTracker,
    ) -> Vec<Vec<T>> {
        match self {
            ExecBackend::Serial => SerialExecutor.run_copies(transfers, src, dst_sizes, tracker),
            ExecBackend::Threaded(t) => t.run_copies(transfers, src, dst_sizes, tracker),
            ExecBackend::Sharded(s) => s.run_copies(transfers, src, dst_sizes, tracker),
        }
    }

    fn run_owned<I: Send>(&self, bytes: usize, items: Vec<I>, work: &(dyn Fn(&mut I) + Sync)) {
        match self {
            ExecBackend::Serial => SerialExecutor.run_owned(bytes, items, work),
            ExecBackend::Threaded(t) => t.run_owned(bytes, items, work),
            ExecBackend::Sharded(s) => s.run_owned(bytes, items, work),
        }
    }

    fn execute<T: Element>(
        &self,
        plan: &Arc<CommPlan>,
        src: &[Vec<T>],
        dst_sizes: &[usize],
        tracker: &CommTracker,
        aggregate: bool,
    ) -> Result<(Vec<Vec<T>>, ExecReport)> {
        match self {
            ExecBackend::Serial => SerialExecutor.execute(plan, src, dst_sizes, tracker, aggregate),
            ExecBackend::Threaded(t) => t.execute(plan, src, dst_sizes, tracker, aggregate),
            ExecBackend::Sharded(s) => s.execute(plan, src, dst_sizes, tracker, aggregate),
        }
    }

    fn execute_fused<T: Element>(
        &self,
        fused: &FusedPlan,
        srcs: &[&[Vec<T>]],
        dst_sizes: &[Vec<usize>],
        tracker: &CommTracker,
    ) -> Result<(Vec<Vec<Vec<T>>>, ExecReport)> {
        match self {
            ExecBackend::Serial => SerialExecutor.execute_fused(fused, srcs, dst_sizes, tracker),
            ExecBackend::Threaded(t) => t.execute_fused(fused, srcs, dst_sizes, tracker),
            ExecBackend::Sharded(s) => s.execute_fused(fused, srcs, dst_sizes, tracker),
        }
    }
}

/// One part's share of a fused wire message: `elements` elements of part
/// `part` packed at byte-order offset `wire_offset` (in elements) within
/// the pair's single fused message.
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
    /// Crossing (src, dst) pairs with traffic in any part, with the summed
    /// element count — one fused message each.
    pub(crate) pair_elements: Vec<((usize, usize), usize)>,
    /// Per crossing pair (aligned with `pair_elements`): the wire layout of
    /// the fused message, parts in fusion order.
    pub(crate) pair_slices: Vec<Vec<FusedSlice>>,
    /// Per part: index of the part's transfer carrying a (src, dst) pair
    /// (at most one — plans aggregate per pair; local pairs included).
    /// Precomputed here so the wire executors pay no per-execute indexing.
    pub(crate) pair_transfer: Vec<HashMap<(usize, usize), usize>>,
    /// Per destination processor: indices into `pair_elements` of the
    /// pairs arriving there — the wire executors' per-destination work
    /// lists, precomputed for the same reason.
    pub(crate) pairs_by_dst: Vec<Vec<usize>>,
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

    /// Wraps one plan of *any* kind in the fused wire layout — the entry
    /// the channel-backed sharded gather uses.  Safe for every planner
    /// output because [`crate::plan::CommPlan`] carries at most one
    /// transfer per `(src, dst)` pair, which is the only structural
    /// assumption the pair index makes.  Not public: multi-plan fusion of
    /// gather/scatter schedules remains rejected by [`FusedPlan::fuse`].
    pub(crate) fn fuse_one(part: Arc<CommPlan>) -> Self {
        Self::build(part.kind(), vec![part])
    }

    fn build(kind: PlanKind, parts: Vec<Arc<CommPlan>>) -> Self {
        let mut pairs: BTreeMap<(usize, usize), Vec<FusedSlice>> = BTreeMap::new();
        let mut moved = 0usize;
        let mut stayed = 0usize;
        for (idx, part) in parts.iter().enumerate() {
            moved += part.moved_elements();
            stayed += part.stayed_elements();
            for t in part.transfers() {
                if t.src != t.dst && t.elements > 0 {
                    let slices = pairs.entry((t.src.0, t.dst.0)).or_default();
                    match slices.last_mut() {
                        Some(last) if last.part == idx => last.elements += t.elements,
                        _ => {
                            let wire_offset = slices
                                .last()
                                .map(|s| s.wire_offset + s.elements)
                                .unwrap_or(0);
                            slices.push(FusedSlice {
                                part: idx,
                                elements: t.elements,
                                wire_offset,
                            });
                        }
                    }
                }
            }
        }
        let mut pair_elements = Vec::with_capacity(pairs.len());
        let mut pair_slices = Vec::with_capacity(pairs.len());
        for (pair, slices) in pairs {
            pair_elements.push((pair, slices.iter().map(|s| s.elements).sum()));
            pair_slices.push(slices);
        }
        let pair_transfer = parts
            .iter()
            .map(|part| {
                part.transfers()
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.elements > 0)
                    .map(|(i, t)| ((t.src.0, t.dst.0), i))
                    .collect()
            })
            .collect();
        let total_procs = parts.iter().map(|p| p.total_procs()).max().unwrap_or(0);
        let mut pairs_by_dst: Vec<Vec<usize>> = vec![Vec::new(); total_procs];
        for (i, &((_, dst), _)) in pair_elements.iter().enumerate() {
            if let Some(list) = pairs_by_dst.get_mut(dst) {
                list.push(i);
            }
        }
        Self {
            kind,
            parts,
            moved_elements: moved,
            stayed_elements: stayed,
            pair_elements,
            pair_slices,
            pair_transfer,
            pairs_by_dst,
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
            .pair_elements
            .binary_search_by_key(&(src, dst), |&(pair, _)| pair)
        {
            Ok(i) => &self.pair_slices[i],
            Err(_) => &[],
        }
    }

    /// Messages the fused schedule generates: one per crossing processor
    /// pair with traffic — at most `P·(P-1)`, independent of how many
    /// arrays were fused.
    pub fn num_messages(&self) -> usize {
        self.pair_elements.len()
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
        let &ti = self.pair_transfer[part].get(&(d, d))?;
        Some(&self.parts[part].transfers()[ti])
    }

    /// The message of crossing pair `pi` (an index into `pair_elements`),
    /// part by part in wire order: each part's slice of the message and
    /// the transfer whose runs pack into and unpack from that slice — the
    /// one walk every engine (wire, split, channel frames) makes.
    pub(crate) fn pair_parts(&self, pi: usize) -> impl Iterator<Item = (FusedSlice, &Transfer)> {
        let ((s, d), _) = self.pair_elements[pi];
        self.pair_slices[pi]
            .iter()
            .filter(|sl| sl.elements > 0)
            .map(move |sl| {
                let ti = self.pair_transfer[sl.part][&(s, d)];
                (*sl, &self.parts[sl.part].transfers()[ti])
            })
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
        self.pair_elements
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
/// sequential sweep at cache speed ([`xor_bits`]), which is what keeps the
/// always-on framing cheap (`ghost.stmt_ms` of the `perf` benchmark times
/// the whole wire path, checksum included).
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

/// Packs crossing pair `pi`'s message: every part's payload lands at its
/// wire offset, runs in plan order — one contiguous buffer per pair,
/// exactly the message a real backend would post.
fn pack_pair<T: Element>(fused: &FusedPlan, pi: usize, srcs: &[&[Vec<T>]]) -> Vec<T> {
    let ((s, _), total) = fused.pair_elements[pi];
    let mut wire = vec![T::default(); total];
    for (sl, t) in fused.pair_parts(pi) {
        pack_runs(t, &srcs[sl.part][s], &mut wire[sl.window()]);
    }
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

/// Transposes destination-major buffers (`per_dest[d][part]`) into the
/// per-part, per-processor result every fused engine returns; part `idx`
/// covers `part_procs[idx]` processors.
pub(crate) fn assemble<T>(
    per_dest: impl IntoIterator<Item = Vec<Vec<T>>>,
    part_procs: impl IntoIterator<Item = usize>,
) -> Vec<Vec<Vec<T>>> {
    let part_procs: Vec<usize> = part_procs.into_iter().collect();
    let mut out: Vec<Vec<Vec<T>>> = part_procs.iter().map(|_| Vec::new()).collect();
    for bufs in per_dest {
        for (idx, buf) in bufs.into_iter().enumerate() {
            if out[idx].len() < part_procs[idx] {
                out[idx].push(buf);
            }
        }
    }
    out
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
/// Every wire is framed.  The receive-side checksum scan (`verify`) runs
/// only with a [`vf_machine::FaultInjector`] attached to the tracker: the
/// simulated channel is process memory, so a packed wire cannot change
/// between frame and unpack unless an injector flips it — like a loopback
/// interface marking packets `CHECKSUM_UNNECESSARY`.  Fault-free runs pay
/// the sender-side checksum only, and injected corruption is still
/// *always* detected: the injector's presence switches verification on.
struct WireExchange<T, P> {
    plan: P,
    /// Pair `pi`'s frame is stamped `seq_base + pi`.
    seq_base: u64,
    verify: bool,
    /// The armed corruption, if any: `(pair, element seed, bit)`.
    sabotage: Option<(usize, u64, u32)>,
    /// Per destination processor, its buffer of every part.  The mutexes
    /// only hand `&mut` access through the shared job; pairs into one
    /// destination write pairwise-disjoint runs.
    dests: Vec<Mutex<Vec<Vec<T>>>>,
    /// Per crossing pair, its message while in flight.
    wires: Vec<Mutex<Option<Wire<T>>>>,
    /// First unrepairable validation failure; the pair is never unpacked.
    fatal: Mutex<Option<RuntimeError>>,
}

impl<T: Element, P: Borrow<FusedPlan>> WireExchange<T, P> {
    fn fused(&self) -> &FusedPlan {
        self.plan.borrow()
    }

    /// Opens the exchange, caller-side: charges the directory fetches,
    /// posts the class's messages and draws the statement's one corruption
    /// decision.  An armed flip is repaired at delivery; its modelled
    /// retransmission is charged here, so the accounting is deterministic
    /// whichever thread performs the repair.
    fn post(plan: P, tracker: &CommTracker) -> (Self, vf_machine::PendingSends, ExecReport) {
        let fused: &FusedPlan = plan.borrow();
        let (pending, report) = post_fused(fused, T::BYTES, tracker);
        // `pair_elements` holds exactly the crossing pairs with traffic;
        // with none nothing travels a wire and the injector is not polled.
        let crossing = fused.pair_elements.len();
        let sabotage = tracker
            .fault_injector()
            .filter(|_| crossing > 0)
            .and_then(|inj| inj.corrupt_wire())
            .map(|spec| {
                let pair = (spec.pair_seed as usize) % crossing;
                (pair, spec.elem_seed, spec.bit)
            });
        if let Some((pi, _, _)) = sabotage {
            let ((s, d), total) = fused.pair_elements[pi];
            tracker.record_fault();
            tracker.charge_retransmissions(s, d, total * T::BYTES, 1);
        }
        let exchange = Self {
            seq_base: pending.seq_base(),
            verify: tracker.fault_injector().is_some(),
            sabotage,
            dests: repeat_with(Mutex::default)
                .take(fused.pairs_by_dst.len())
                .collect(),
            wires: repeat_with(Mutex::default)
                .take(fused.pair_elements.len())
                .collect(),
            fatal: Mutex::default(),
            plan,
        };
        (exchange, pending, report)
    }

    /// Stages destination `d`: allocates its buffer of every part, with the
    /// stay-local runs copied in.  Each destination is staged by exactly
    /// one call, before any of its arriving pairs is delivered.
    fn stage_dest(&self, srcs: &[&[Vec<T>]], dst_sizes: &[Vec<usize>], d: usize) {
        let fused = self.fused();
        *lock(&self.dests[d]) = (0..fused.parts().len())
            .map(|idx| {
                let mut buf = vec![T::default(); dst_sizes[idx].get(d).copied().unwrap_or(0)];
                if let Some(t) = fused.local_transfer(idx, d) {
                    copy_runs(t, &srcs[idx][d], &mut buf);
                }
                buf
            })
            .collect();
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
        let ((s, d), _) = fused.pair_elements[pi];
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
                let mut bufs = lock(&self.dests[d]);
                for (sl, t) in fused.pair_parts(pi) {
                    unpack_runs(t, &wire.payload[sl.window()], &mut bufs[sl.part]);
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
        let per_dest = self
            .dests
            .iter()
            .map(|cell| std::mem::take(&mut *lock(cell)));
        let part_procs = self.fused().parts().iter().map(|part| part.total_procs());
        Ok(assemble(per_dest, part_procs))
    }
}

/// The blocking mode of the wire pipeline — the body of
/// [`PlanExecutor::execute_fused`] on a shared-memory executor: every
/// destination is staged and its pairs delivered in one go, on `pool`'s
/// workers (one dispatch, one work item per destination) when there is one
/// and the copy volume clears its cutoff, on the calling thread otherwise.
fn execute_fused_blocking<T: Element>(
    fused: &FusedPlan,
    srcs: &[&[Vec<T>]],
    dst_sizes: &[Vec<usize>],
    tracker: &CommTracker,
    pool: Option<&ThreadedExecutor>,
) -> Result<(Vec<Vec<Vec<T>>>, ExecReport)> {
    let (exchange, pending, report) = WireExchange::post(fused, tracker);
    let run_dest = |d: usize| {
        // One span covers this destination's whole copy stream (local
        // copies, pack, verify, unpack): per-destination is the
        // granularity the pool dispatches at, and coarse enough that
        // tracing a dispatch-dominated exchange stays cheap even on a
        // single-core host (`trace.overhead_ratio` in the `perf`
        // benchmark; the split streaming path keeps per-pair spans —
        // there the caller's overlapped compute absorbs the recording
        // cost).
        let _span = trace::OpenSpan::begin_dest(trace::Phase::Unpack, d);
        exchange.stage_dest(srcs, dst_sizes, d);
        for &pi in &fused.pairs_by_dst[d] {
            exchange.stage_pair(srcs, pi);
            exchange.deliver(pi);
        }
    };
    // Pack + unpack touch every crossing element twice; stayed elements
    // copy once.  This volume drives the threaded backend's cutoff.
    let copy_bytes = (2 * fused.moved_elements() + fused.stayed_elements()) * T::BYTES;
    let dests = fused.pairs_by_dst.len();
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
    /// The staged exchange; its crossing pairs (`pair_elements`, by index)
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
        let ((s, d), _) = self.exchange.plan.pair_elements[pi];
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
            if pi >= self.exchange.wires.len() {
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
    /// waiting.
    fn help_until_dest(&self, d: usize) {
        let Some(remaining) = self.remaining_by_dst.get(d) else {
            return;
        };
        let pairs = self.exchange.wires.len();
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
/// the stay-local runs are already copied.  With a multi-worker pool
/// attached (and the volume above the backend cutoff) the pool's workers
/// stream through the per-pair deliveries *concurrently with whatever the
/// caller does next*; [`SplitPhaseExchange::wait`] helps drain the
/// remaining pairs, completes the posted messages with exactly the
/// blocking mode's overlap credit, and returns buffers bitwise identical
/// to [`PlanExecutor::execute_fused`].
///
/// Per-pair completion is exposed through
/// [`SplitPhaseExchange::wait_dest`]: a consumer that only needs one
/// destination's data (pipelined sweeps) can proceed as soon as that
/// destination's pairs have landed, while the rest are still in flight.
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
    /// everything already ran inline at the post — serial backend, 1-wide
    /// pool, or below-cutoff volume).
    pub fn is_streaming(&self) -> bool {
        self.ticket.is_some()
    }

    /// Blocks until every pair arriving at destination processor `d` has
    /// been unpacked (helping with unclaimed pairs while waiting) — the
    /// per-pair completion that lets a pipelined consumer start on `d`'s
    /// data while other destinations are still in flight.  The full
    /// [`SplitPhaseExchange::wait`] is still required afterwards.
    pub fn wait_dest(&self, d: usize) {
        let _span = trace::OpenSpan::begin_dest(trace::Phase::Wait, d);
        self.shared.help_until_dest(d);
    }

    /// Runs `f` on destination processor `d`'s buffer for part `part`.
    /// Call [`SplitPhaseExchange::wait_dest`]`(d)` first — the lock hands
    /// out the buffer whether or not its pairs have all landed.
    pub fn with_dest_mut<R>(&self, part: usize, d: usize, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
        f(&mut lock(&self.shared.exchange.dests[d])[part])
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
/// sources), then hands the owned per-pair deliveries to the backend's
/// worker pool and **returns**.  The caller runs its interior compute
/// while the pairs stream; see [`SplitPhaseExchange`] for the wait side.
///
/// Without a multi-worker pool (or below the backend's serial cutoff) the
/// deliveries run inline before returning — same buffers, same charges,
/// zero measured overlap.
pub(crate) fn split_execute_fused_wire<'e, T: Element>(
    fused: FusedPlan,
    tracker: &CommTracker,
    backend: &'e ExecBackend,
    srcs: &[&[Vec<T>]],
    dst_sizes: &[Vec<usize>],
) -> SplitPhaseExchange<'e, T> {
    let copy_secs = wire_copy_seconds(&fused, T::BYTES, tracker);
    let unpack_bytes = fused.moved_elements() * T::BYTES;
    let (exchange, pending, report) = WireExchange::post(fused, tracker);
    let fused = &exchange.plan;
    let pack_span = trace::OpenSpan::begin_static(trace::Phase::WirePack, "split pack");
    // Wires before destination buffers: the short-lived messages then sit
    // together below the buffers that become the arrays, and the hole they
    // leave at delivery is refilled exactly by the next statement's wires.
    // Interleaving the two (destination, its wires, destination, ..)
    // fragments the heap instead — `adi-dynamic` peaked 2.3 MB (14 %)
    // higher that way.
    for pi in 0..fused.pair_elements.len() {
        exchange.stage_pair(srcs, pi);
    }
    for d in 0..fused.pairs_by_dst.len() {
        exchange.stage_dest(srcs, dst_sizes, d);
    }
    pack_span.end();

    let pairs = fused.pair_elements.len();
    let remaining_by_dst = fused
        .pairs_by_dst
        .iter()
        .map(|arriving| AtomicUsize::new(arriving.len()))
        .collect();

    // Stream through the pool when there are background workers to stream
    // on and the volume clears the backend's cutoff; otherwise deliver
    // inline now (no overlap, identical results).
    let streaming_pool = match backend {
        ExecBackend::Threaded(t)
            if pairs > 0 && unpack_bytes >= t.effective_serial_cutoff() && t.workers() > 1 =>
        {
            Some(t.pool())
        }
        _ => None,
    };
    // Fault gating of the streaming decision, polled caller-side only when
    // streaming would actually happen (keeps the schedule deterministic):
    // a fired cancel falls back to the inline (blocking) drain; with dead
    // workers streaming is never attempted; a fired worker-death still
    // streams but arms one background rank to die mid-stream — the
    // recovery path adopts its items.
    let mut die_rank = None;
    let streaming_pool = match (streaming_pool, tracker.fault_injector()) {
        (Some(pool), Some(inj)) => {
            if inj.cancel_streaming() {
                tracker.record_fault();
                tracker.record_fallback();
                None
            } else if inj.dead_workers() > 0 {
                None
            } else {
                if inj.worker_death() {
                    inj.mark_worker_dead();
                    tracker.record_fault();
                    tracker.record_fallback();
                    let width = 1 + pairs.min(pool.workers() - 1);
                    die_rank = Some(1 + inj.pick(width - 1));
                }
                Some(pool)
            }
        }
        (sp, _) => sp,
    };

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
            // Rank 0 (the caller) helps at the wait; wake only as many
            // background ranks as there are pairs to deliver.
            let width = 1 + pairs.min(pool.workers() - 1);
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
    use crate::{execute_class_redistribute, execute_redistribute, DistArray, RedistOptions};
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
        let plan = Arc::new(plan_redistribute(&from, &to).unwrap());
        let a = DistArray::from_fn("A", from, |pt| pt.coord(0) as f64 * 0.5);
        let tracker = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.25));
        let dst_sizes = local_sizes(&to, p);
        let (bufs, report) = executor
            .execute(&plan, a.locals(), &dst_sizes, &tracker, true)
            .unwrap();
        let flat: Vec<f64> = bufs.into_iter().flatten().collect();
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
        assert_eq!(t.workers(), 4);
        assert_eq!(t.pool().workers(), 4);
        // An explicit override always wins.
        assert_eq!(t.with_serial_cutoff(7).effective_serial_cutoff(), 7);
        assert_eq!(ExecBackend::default().name(), "serial");
    }

    #[test]
    fn hot_destination_split_matches_serial_bitwise() {
        // Everything funnels into P0 (a gather-like repartition): the
        // round-robin destination partition would serialise on one worker,
        // so the threaded executor splits P0's run list across workers.
        // Results and accounting must stay bitwise identical to serial.
        let n = 4096usize;
        let p = 8usize;
        let from = dist_1d(DistType::cyclic1d(3), n, p);
        let mut sizes = vec![0usize; p];
        sizes[0] = n;
        let to = dist_1d(DistType::gen_block1d(sizes), n, p);
        let plan = Arc::new(plan_redistribute(&from, &to).unwrap());
        let a = DistArray::from_fn("A", from, |pt| pt.coord(0) as f64 * 1.25);
        let dst_sizes = local_sizes(&to, p);
        let t_serial = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.25));
        let (serial, rs) = SerialExecutor
            .execute(&plan, a.locals(), &dst_sizes, &t_serial, true)
            .unwrap();
        for workers in [2, 3, 5] {
            let forced = ThreadedExecutor::with_pool(Arc::new(WorkerPool::new(workers)))
                .with_serial_cutoff(0);
            let t_thr = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.25));
            let (threaded, rt) = forced
                .execute(&plan, a.locals(), &dst_sizes, &t_thr, true)
                .unwrap();
            assert_eq!(serial, threaded, "buffers differ with {workers} workers");
            assert_eq!(rs, rt);
            assert_eq!(t_serial.snapshot(), t_thr.snapshot());
            assert!(forced.pool().jobs_dispatched() > 0, "the run used the pool");
        }
        // A partial hot receiver (most but not all traffic to P1, scattered
        // run layout) exercises the gap-preserving split path too.
        let mut sizes = vec![8usize; p];
        sizes[1] = n - 8 * (p - 1);
        let to = dist_1d(DistType::gen_block1d(sizes), n, p);
        let plan = Arc::new(plan_redistribute(a.dist(), &to).unwrap());
        let dst_sizes = local_sizes(&to, p);
        let (serial, _) = SerialExecutor
            .execute(&plan, a.locals(), &dst_sizes, &t_serial, true)
            .unwrap();
        let (threaded, _) = ThreadedExecutor::with_pool(Arc::new(WorkerPool::new(4)))
            .with_serial_cutoff(0)
            .execute(&plan, a.locals(), &dst_sizes, &t_serial, true)
            .unwrap();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn copy_phase_is_charged_as_compute_and_hides_communication() {
        let n = 64usize;
        let p = 4usize;
        let from = dist_1d(DistType::block1d(), n, p);
        let to = dist_1d(DistType::cyclic1d(1), n, p);
        let plan = Arc::new(plan_redistribute(&from, &to).unwrap());
        let a = DistArray::from_fn("A", from, |pt| pt.coord(0) as f64);
        let dst_sizes = local_sizes(&to, p);
        // Baseline: copies priced at zero — no compute time, full
        // communication time, exactly the pre-credit behaviour.
        let zero_rate = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.5));
        SerialExecutor
            .execute(&plan, a.locals(), &dst_sizes, &zero_rate, true)
            .unwrap();
        let base = zero_rate.snapshot();
        assert_eq!(base.total_compute_time(), 0.0);
        assert!(base.critical_time() > 0.0);

        // A copy rate makes the packing work visible as compute time and
        // hides the same amount of communication time behind it.
        let priced = CommTracker::new(
            p,
            CostModel::from_alpha_beta(1.0, 0.5).with_copy_bandwidth(1e6),
        );
        SerialExecutor
            .execute(&plan, a.locals(), &dst_sizes, &priced, true)
            .unwrap();
        let credited = priced.snapshot();
        // Message and byte counts are untouched by the credit.
        assert_eq!(credited.total_messages(), base.total_messages());
        assert_eq!(credited.total_bytes(), base.total_bytes());
        // Copy work shows as compute, and per-processor communication time
        // shrinks by exactly the credited copy seconds (none hit zero with
        // this small rate).
        assert!(credited.total_compute_time() > 0.0);
        for (pp, (c, b)) in credited.per_proc().iter().zip(base.per_proc()).enumerate() {
            let credit: f64 = plan
                .transfers()
                .iter()
                .filter(|t| t.dst.0 == pp)
                .map(|t| (t.elements * 8) as f64 * priced.cost().copy_per_byte)
                .sum();
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
                &SerialExecutor
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
        for &((src, dst), total) in &fused.pair_elements {
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
        // one fusion: the class verb (the wire pipeline) must produce bitwise
        // what each part's own array verb (the direct-copy reference)
        // produces, with identical per-array reports, bytes conserved and
        // one message per crossing pair — serial and pooled alike.
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
            .map(|(array, part)| {
                let opts = RedistOptions::default();
                execute_redistribute(array, part, &t1, &opts, &SerialExecutor).unwrap()
            })
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
                execute_class_redistribute(&mut refs, &fused, &t2, &executor).unwrap()
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
        let err =
            execute_class_redistribute(&mut [&mut a, &mut b], &fused, &tracker, &SerialExecutor);
        assert!(matches!(err, Err(RuntimeError::FusionMismatch { .. })));
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
            let (exchange, pending, _) = WireExchange::post(&fused, t);
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
