//! Multi-backend execution of communication plans.
//!
//! PR 1 separated *planning* from *execution* (the PARTI
//! inspector/executor split, see [`crate::plan`]), but every executor was
//! still an ad-hoc serial copy loop on the calling thread, duplicated
//! across `redistribute`, `ghost`, `parti` and `assign`.  This module
//! extracts that loop behind the [`PlanExecutor`] trait and adds a second,
//! threaded backend:
//!
//! * [`SerialExecutor`] — the in-process baseline: one pass over the
//!   run-length-encoded transfers, one `copy_from_slice` per run, on the
//!   calling thread.
//! * [`ThreadedExecutor`] — partitions the transfer list *by destination
//!   processor* (each destination buffer is written by exactly one
//!   partition, so the partitions are embarrassingly parallel) and drives
//!   the copies from the [`vf_machine::spmd`] worker threads.
//! * [`ExecBackend`] — a runtime-selectable backend; [`ExecBackend::auto`]
//!   picks the threaded executor when the host has more than one core.
//!
//! Every backend charges the modelled communication with the *post/wait*
//! split of [`CommTracker::post_many`] / [`CommTracker::wait`]: the
//! messages are posted before the copies start and completed after they
//! finish, the way a real machine overlaps non-blocking sends with the
//! local packing work.  With zero overlap credit the charged totals are
//! bit-identical to the old single-shot [`CommPlan::charge`], which is what
//! keeps every backend's modelled accounting — and, since the copies are
//! data-independent per destination, the produced buffers — exactly equal
//! to the serial baseline (asserted by `tests/suite/parallel_exec.rs`).
//!
//! On top of the trait, [`FusedPlan`] merges the per-array redistribution
//! plans of a connect class (or any multi-array `DISTRIBUTE`) into one
//! schedule charged as a *single message per processor pair* for the whole
//! class — the per-array payloads between one (sender, receiver) pair
//! travel together instead of as one message per array.

use crate::plan::{CommPlan, PlanIndex, PlanKind, PlanRun, Transfer};
use crate::{DistArray, Element, RedistReport, Result, RuntimeError};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
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

/// A backend that can execute the copy phase of a [`CommPlan`].
///
/// The executor receives the transfer list, the per-processor source
/// buffers and the required destination-buffer sizes; it returns freshly
/// allocated destination buffers with every run copied in.  Implementations
/// must produce buffers bit-identical to [`SerialExecutor`] — backends only
/// differ in *how* the copies run, never in what they produce.
pub trait PlanExecutor {
    /// Human-readable backend name (used by benches and reports).
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

    /// Applies owner-partitioned combine updates: `updates[p]` is the
    /// in-order list of `(local offset, value)` updates to apply to
    /// `locals[p]` with `combine(current, value)`.
    ///
    /// The combine function is order-sensitive *per owner* (updates to one
    /// element must apply in program order), but owners are independent —
    /// that is the partition [`crate::parti::execute_scatter_with`] feeds
    /// this hook, and the only parallelism a backend may exploit.  The
    /// default implementation applies owners serially in order; backends
    /// must produce bitwise-identical buffers.
    fn run_updates<T: Element>(
        &self,
        locals: &mut [Vec<T>],
        updates: &[Vec<(usize, T)>],
        combine: &(dyn Fn(T, T) -> T + Sync),
    ) {
        for (buf, ups) in locals.iter_mut().zip(updates) {
            for &(off, v) in ups {
                buf[off] = combine(buf[off], v);
            }
        }
    }

    /// Runs `num_items` independent indexed work items and returns the
    /// results in item order — the generic fan-out the wire-layout fused
    /// executors are built on (one item per destination processor).
    /// `copy_bytes` is the total copy volume of the job, letting a
    /// threaded backend apply its serial cutoff; the default
    /// implementation runs the items serially on the calling thread.
    /// Backends must produce identical results in identical order.
    fn run_indexed<R: Send>(
        &self,
        num_items: usize,
        copy_bytes: usize,
        tracker: &CommTracker,
        work: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        let _ = (copy_bytes, tracker);
        (0..num_items).map(work).collect()
    }

    /// Full execution of one plan: posts the plan's modelled messages,
    /// runs the copy phase, then completes the posted messages — the
    /// non-blocking post/wait pattern of a real message-passing machine.
    ///
    /// When the cost model prices local copies
    /// ([`vf_machine::CostModel::copy_per_byte`] non-zero), the copy phase
    /// is charged as per-destination compute time and credited as overlap
    /// at the wait: communication is hidden behind the packing work, as it
    /// is on a machine with non-blocking receives.  At the default zero
    /// rate the accounting is bit-identical to a plain post/wait.
    ///
    /// Returns the destination buffers and what was charged.
    fn execute<T: Element>(
        &self,
        plan: &CommPlan,
        src: &[Vec<T>],
        dst_sizes: &[usize],
        tracker: &CommTracker,
        aggregate: bool,
    ) -> (Vec<Vec<T>>, ExecReport) {
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
        (out, ExecReport { messages, bytes })
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

/// Copies every transfer run targeting destination processor `dst` from
/// `src` into `buf` — the per-destination unit of work both backends share.
/// Empty transfers and zero-length runs are skipped before any slice
/// arithmetic.
fn copy_runs_into<T: Element>(buf: &mut [T], dst: usize, transfers: &[Transfer], src: &[Vec<T>]) {
    for t in transfers
        .iter()
        .filter(|t| t.dst.0 == dst && t.elements > 0)
    {
        let src_local = &src[t.src.0];
        for run in &t.runs {
            if run.len == 0 {
                continue;
            }
            buf[run.dst_start..run.dst_start + run.len]
                .copy_from_slice(&src_local[run.src_start..run.src_start + run.len]);
        }
    }
}

/// The in-process serial backend: the copy loop previously inlined in
/// `redistribute_impl`, `ghost`, `parti` and `assign`, extracted.
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
        for t in transfers {
            if t.elements == 0 {
                continue;
            }
            let src_local = &src[t.src.0];
            let dst_local = &mut out[t.dst.0];
            for run in &t.runs {
                if run.len == 0 {
                    continue;
                }
                dst_local[run.dst_start..run.dst_start + run.len]
                    .copy_from_slice(&src_local[run.src_start..run.src_start + run.len]);
            }
        }
        out
    }
}

/// The threaded backend: the destination buffers are partitioned
/// round-robin over worker threads, each of which allocates and fills its
/// share (no two threads ever touch the same buffer, so no locking is
/// needed on the data path).
///
/// With a [`WorkerPool`] attached (the default for [`ThreadedExecutor::
/// auto`] and [`ExecBackend::auto`]) the partitions are submitted to the
/// pool's *parked* workers — a condvar wake instead of the full
/// [`vf_machine::spmd`] harness setup (fresh OS threads, channels,
/// barrier) per execute, which is 10–25× cheaper dispatch and the reason
/// the serial cutoff could drop from 512 KiB to 32 KiB.  Without a pool
/// the executor falls back to the fresh-spawn harness, the pre-pool
/// baseline the `e8_pool` bench measures against.
///
/// Threading only pays above a copy-volume cutoff — below it (or with a
/// single worker) the backend degrades to the serial loop while keeping the
/// post/wait charge order, so results and accounting are identical either
/// way.
#[derive(Debug, Clone)]
pub struct ThreadedExecutor {
    workers: usize,
    /// Explicit cutoff override; `None` picks the pool-dependent default.
    cutoff_override: Option<usize>,
    /// Persistent worker pool; `None` spawns fresh spmd workers per call.
    pool: Option<Arc<WorkerPool>>,
}

impl ThreadedExecutor {
    /// Default copy volume (in bytes) below which threading is not worth
    /// the **fresh-spawn** overhead and the copies run serially.  Only
    /// applies when no worker pool is attached.
    pub const DEFAULT_SERIAL_CUTOFF_BYTES: usize = 512 * 1024;

    /// Default copy volume (in bytes) below which even **pooled** dispatch
    /// is not worth waking the workers.  Pooled dispatch measures 10–25×
    /// cheaper than the fresh-spawn harness (see the `e8_pool` bench), so
    /// the crossover sits correspondingly lower: a pool wake costs a few
    /// microseconds, the memcpy equivalent of roughly this many bytes.
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
            workers: pool.workers(),
            cutoff_override: None,
            pool: Some(pool),
        }
    }

    /// A threaded executor with exactly `workers` **fresh-spawn** worker
    /// threads (`workers` is clamped to at least 1) — the pre-pool
    /// baseline, kept for differential tests and the dispatch bench.
    /// Attach a pool with [`ThreadedExecutor::pooled`].
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            cutoff_override: None,
            pool: None,
        }
    }

    /// Attaches a persistent worker pool: partitions are submitted to the
    /// pool's parked workers instead of freshly spawned threads.  The
    /// pool's worker count takes over as the partition width.
    pub fn pooled(mut self, pool: Arc<WorkerPool>) -> Self {
        self.workers = pool.workers();
        self.pool = Some(pool);
        self
    }

    /// Overrides the serial/parallel cutoff (0 forces the threaded path
    /// for every plan — used by the equivalence property tests).
    pub fn serial_cutoff_bytes(self, bytes: usize) -> Self {
        self.with_serial_cutoff(bytes)
    }

    /// Overrides the serial/parallel cutoff in bytes: plans whose copy
    /// volume is below the cutoff run on the calling thread.  Without an
    /// override the default depends on the dispatch mechanism —
    /// [`ThreadedExecutor::DEFAULT_POOLED_CUTOFF_BYTES`] with a pool
    /// attached, [`ThreadedExecutor::DEFAULT_SERIAL_CUTOFF_BYTES`] for
    /// fresh spawns.  [`ExecBackend::auto`] additionally honours the
    /// `VF_EXEC_CUTOFF` environment variable (bytes) for benching.
    pub fn with_serial_cutoff(mut self, bytes: usize) -> Self {
        self.cutoff_override = Some(bytes);
        self
    }

    /// The cutoff currently in effect (override, or the dispatch-dependent
    /// default).
    pub fn effective_serial_cutoff(&self) -> usize {
        self.cutoff_override.unwrap_or(if self.pool.is_some() {
            Self::DEFAULT_POOLED_CUTOFF_BYTES
        } else {
            Self::DEFAULT_SERIAL_CUTOFF_BYTES
        })
    }

    /// The attached persistent worker pool, if any.
    pub fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `num_items` independent work items — pool dispatch when a pool
    /// is attached, the fresh-spawn spmd harness otherwise.  Every
    /// threaded path funnels through here, so pooled and spawned execution
    /// can never drift in how items are partitioned (round-robin by item).
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
                let healthy = self.workers.saturating_sub(dead);
                return if healthy > 1 {
                    spmd::run_partitioned(healthy, tracker, num_items, |_ctx, item| work(item))
                } else {
                    (0..num_items).map(work).collect()
                };
            }
        }
        match &self.pool {
            Some(pool) => pool.run_partitioned(tracker, num_items, |_ctx, item| work(item)),
            None => {
                spmd::run_partitioned(self.workers, tracker, num_items, |_ctx, item| work(item))
            }
        }
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
        if self.workers <= 1 || copy_bytes < self.effective_serial_cutoff() {
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
        let skewed = hot_bytes * self.workers > 2 * copy_bytes.max(1);
        let mut out = self.dispatch(tracker, dst_sizes.len(), |dst| {
            if skewed && dst == hot {
                // Filled by the split phase below.
                return Vec::new();
            }
            let mut buf = vec![T::default(); dst_sizes[dst]];
            copy_runs_into(&mut buf, dst, transfers, src);
            buf
        });
        if skewed {
            out[hot] = self.copy_hot_destination_split(transfers, src, dst_sizes[hot], hot);
        }
        out
    }

    fn run_updates<T: Element>(
        &self,
        locals: &mut [Vec<T>],
        updates: &[Vec<(usize, T)>],
        combine: &(dyn Fn(T, T) -> T + Sync),
    ) {
        let total_bytes: usize = updates
            .iter()
            .map(|u| u.len() * std::mem::size_of::<T>())
            .sum();
        if self.workers <= 1 || total_bytes < self.effective_serial_cutoff() {
            SerialExecutor.run_updates(locals, updates, combine);
            return;
        }
        // Round-robin the owners over the workers: each owner's buffer is
        // touched by exactly one worker, and its updates apply in order,
        // so the combine semantics are exactly the serial ones.  Owners
        // with no updates are skipped outright.
        type OwnerWork<'a, T> = (&'a mut Vec<T>, &'a Vec<(usize, T)>);
        let mut bins: Vec<Vec<OwnerWork<'_, T>>> = (0..self.workers).map(|_| Vec::new()).collect();
        for (i, (buf, ups)) in locals.iter_mut().zip(updates).enumerate() {
            if ups.is_empty() {
                continue;
            }
            bins[i % self.workers].push((buf, ups));
        }
        let apply = |bin: &mut Vec<OwnerWork<'_, T>>| {
            for (buf, ups) in bin {
                for &(off, v) in *ups {
                    buf[off] = combine(buf[off], v);
                }
            }
        };
        let apply = &apply;
        match &self.pool {
            // Pooled: worker `rank` drains its own bin (one uncontended
            // lock each — the cells only exist to hand `&mut` bins through
            // the shared job closure).  Empty bins are dropped first so the
            // dispatch wakes only as many workers as there are bins with
            // work (right-sized wakes; owners are independent, so which
            // rank drains which bin does not matter).
            Some(pool) => {
                let cells: Vec<std::sync::Mutex<Vec<OwnerWork<'_, T>>>> = bins
                    .into_iter()
                    .filter(|bin| !bin.is_empty())
                    .map(std::sync::Mutex::new)
                    .collect();
                pool.run_limited(cells.len(), &|rank| {
                    if let Some(cell) = cells.get(rank) {
                        apply(&mut cell.lock().unwrap_or_else(|e| e.into_inner()));
                    }
                });
            }
            // Fresh-spawn baseline: one scoped thread per bin.
            None => std::thread::scope(|scope| {
                for mut bin in bins {
                    scope.spawn(move || apply(&mut bin));
                }
            }),
        }
    }

    fn run_indexed<R: Send>(
        &self,
        num_items: usize,
        copy_bytes: usize,
        tracker: &CommTracker,
        work: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        if self.workers <= 1 || copy_bytes < self.effective_serial_cutoff() {
            return (0..num_items).map(work).collect();
        }
        self.dispatch(tracker, num_items, work)
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
    /// regions that `split_at_mut` hands to the workers (the attached pool
    /// when there is one, scoped threads in fresh-spawn mode) — safe
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
        let per_chunk = total.div_ceil(self.workers);
        let mut chunks: Vec<(usize, usize)> = Vec::with_capacity(self.workers); // run index ranges
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
        let copy_chunk = |(base, region, chunk_runs): &mut HotChunk<'_, T>| {
            for &(sp, r) in *chunk_runs {
                region[r.dst_start - *base..r.dst_start - *base + r.len]
                    .copy_from_slice(&src[sp][r.src_start..r.src_start + r.len]);
            }
        };
        match &self.pool {
            // Pooled: worker `rank` takes chunk `rank` (at most one chunk
            // per worker by construction); the cells only exist to hand
            // the `&mut` regions through the shared job closure.  The wake
            // is sized to the chunk count — fewer chunks than workers
            // never pays a full-pool wake.
            Some(pool) => {
                let cells: Vec<std::sync::Mutex<HotChunk<'_, T>>> =
                    items.into_iter().map(std::sync::Mutex::new).collect();
                pool.run_limited(cells.len(), &|rank| {
                    if let Some(cell) = cells.get(rank) {
                        copy_chunk(&mut cell.lock().unwrap_or_else(|e| e.into_inner()));
                    }
                });
            }
            // Fresh-spawn baseline: one scoped thread per chunk.
            None => std::thread::scope(|scope| {
                for mut item in items {
                    let copy_chunk = &copy_chunk;
                    scope.spawn(move || copy_chunk(&mut item));
                }
            }),
        }
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
    /// each rank holds only its local shard and fused wire buffers travel
    /// over real [`vf_machine::spmd`] channels.  Non-wire plan phases
    /// (scatter updates, plain per-part copies) fall back to the serial
    /// shared-memory oracle.
    Sharded(crate::shard::ShardedExecutor),
}

impl ExecBackend {
    /// The best backend for this host: threaded over the process-wide
    /// persistent worker pool when more than one hardware core is
    /// available, serial otherwise.
    ///
    /// The serial/parallel cutoff can be overridden for benching through
    /// the `VF_EXEC_CUTOFF` environment variable (bytes; must be positive
    /// — a zero value is rejected with a warning and the default cutoff is
    /// kept, since forcing the threaded path for every plan is what the
    /// [`ThreadedExecutor::serial_cutoff_bytes`] API is for).
    ///
    /// With `VF_EXEC_BACKEND=sharded` the backend is
    /// [`crate::shard::ShardedExecutor::new`], whose receive bound is
    /// tunable through `VF_SHARD_TIMEOUT`.
    pub fn auto() -> Self {
        let mut threaded = ThreadedExecutor::auto();
        if let Ok(raw) = std::env::var("VF_EXEC_CUTOFF") {
            match raw.trim().parse::<usize>() {
                // A zero cutoff would thread every one-element plan — far
                // more likely a stray `VF_EXEC_CUTOFF=` / misunderstanding
                // than intent.  Warn and keep the default rather than
                // silently measuring a degenerate configuration.
                Ok(0) => eprintln!(
                    "warning: VF_EXEC_CUTOFF=0 is not honoured (it would force threaded \
                     dispatch for every plan); keeping the default cutoff — use \
                     ThreadedExecutor::serial_cutoff_bytes(0) to force threading in code"
                ),
                Ok(cutoff) => threaded = threaded.with_serial_cutoff(cutoff),
                // A set-but-unparseable override must not be measured
                // silently as the default: warn loudly and keep going.
                Err(_) => eprintln!(
                    "warning: ignoring unparseable VF_EXEC_CUTOFF={raw:?} (expected bytes, e.g. 32768)"
                ),
            }
        }
        if let Ok(raw) = std::env::var("VF_EXEC_BACKEND") {
            match raw.trim() {
                "sharded" => return ExecBackend::Sharded(crate::shard::ShardedExecutor::new()),
                "serial" => return ExecBackend::Serial,
                "threaded" => {}
                other => eprintln!(
                    "warning: ignoring unknown VF_EXEC_BACKEND={other:?} (expected serial, threaded or sharded)"
                ),
            }
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
            ExecBackend::Threaded(t) => t.pool(),
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

    fn run_updates<T: Element>(
        &self,
        locals: &mut [Vec<T>],
        updates: &[Vec<(usize, T)>],
        combine: &(dyn Fn(T, T) -> T + Sync),
    ) {
        match self {
            ExecBackend::Serial => SerialExecutor.run_updates(locals, updates, combine),
            ExecBackend::Threaded(t) => t.run_updates(locals, updates, combine),
            ExecBackend::Sharded(s) => s.run_updates(locals, updates, combine),
        }
    }

    fn run_indexed<R: Send>(
        &self,
        num_items: usize,
        copy_bytes: usize,
        tracker: &CommTracker,
        work: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        match self {
            ExecBackend::Serial => SerialExecutor.run_indexed(num_items, copy_bytes, tracker, work),
            ExecBackend::Threaded(t) => t.run_indexed(num_items, copy_bytes, tracker, work),
            ExecBackend::Sharded(s) => s.run_indexed(num_items, copy_bytes, tracker, work),
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

/// Executes a fused `DISTRIBUTE`: every array is redistributed by its own
/// part plan (copies run through `executor`), while the modelled
/// communication is posted **once for the whole class** — a single message
/// per processor pair — before any copy starts and completed after the last
/// one finishes.
///
/// `arrays` must align with [`FusedPlan::parts`] (array `i` is moved by
/// part `i`).  Returns one [`RedistReport`] per array, whose
/// `messages`/`bytes` fields record what the array *would* have charged
/// unfused (the per-array diagnostic), plus the fused [`ExecReport`] of
/// what was actually charged to the tracker.
///
/// # Errors
/// [`RuntimeError::FusionMismatch`] if `arrays` and parts disagree in
/// length; [`RuntimeError::PlanMismatch`] / [`RuntimeError::TrackerMismatch`]
/// if any part does not apply to its array (validated for *all* arrays
/// before any data moves, so a failed fused execute changes nothing).
pub fn execute_redistribute_fused<T: Element, E: PlanExecutor>(
    arrays: &mut [&mut DistArray<T>],
    fused: &FusedPlan,
    tracker: &CommTracker,
    executor: &E,
) -> Result<(Vec<RedistReport>, ExecReport)> {
    fused.check_parts(
        PlanKind::Redistribute,
        "execute_redistribute_fused",
        arrays.len(),
    )?;
    // Validate every (array, part) pair before moving anything.
    for (array, part) in arrays.iter().zip(fused.parts()) {
        if !matches!(&part.index, PlanIndex::Redistribute { .. }) {
            return Err(RuntimeError::PlanMismatch {
                expected: part.src_fingerprint(),
                found: array.dist().fingerprint(),
            });
        }
        part.check_executable(array.dist(), tracker)?;
    }

    let mut reports = Vec::with_capacity(arrays.len());
    let exec = execute_fused_parts(fused, tracker, T::BYTES, |idx, part| {
        let array = &mut arrays[idx];
        let PlanIndex::Redistribute { new_dist } = &part.index else {
            unreachable!("validated above");
        };
        let mut dst_sizes = vec![0usize; part.total_procs()];
        for &q in new_dist.proc_ids() {
            dst_sizes[q.0] = new_dist.local_size(q);
        }
        let new_locals = executor.run_copies(part.transfers(), array.locals(), &dst_sizes, tracker);
        array.replace(new_dist.clone(), new_locals);
        array.broadcast_canonical();
        reports.push(RedistReport {
            moved_elements: part.moved_elements(),
            stayed_elements: part.stayed_elements(),
            messages: part.num_messages(),
            bytes: part.bytes_for(T::BYTES),
        });
    });
    Ok((reports, exec))
}

/// The shared charging skeleton of every fused execution: directory
/// fetches complete first, the **single message per crossing pair** batch
/// is posted, `copy_part(idx, part)` runs each part's copies (the whole
/// class's copy seconds accumulate per destination), and the batch
/// completes with the accumulated credit — so fused redistribution and
/// fused ghost exchange can never drift apart in how they charge.
pub(crate) fn execute_fused_parts(
    fused: &FusedPlan,
    tracker: &CommTracker,
    elem_bytes: usize,
    mut copy_part: impl FnMut(usize, &CommPlan),
) -> ExecReport {
    for part in fused.parts() {
        part.charge_directory(tracker);
    }
    let batch = fused.message_batch(elem_bytes);
    let messages = batch.len();
    let bytes: usize = batch.iter().map(|m| m.2).sum();
    let pending = tracker.post_many(batch);
    let mut fused_copy_secs: Vec<f64> = Vec::new();
    for (idx, part) in fused.parts().iter().enumerate() {
        copy_part(idx, part);
        let part_secs = copy_seconds(part.transfers(), elem_bytes, tracker);
        if fused_copy_secs.len() < part_secs.len() {
            fused_copy_secs.resize(part_secs.len(), 0.0);
        }
        for (acc, s) in fused_copy_secs.iter_mut().zip(part_secs) {
            *acc += s;
        }
    }
    finish_with_copy_credit(tracker, pending, &fused_copy_secs);
    ExecReport { messages, bytes }
}

// ---------------------------------------------------------------------------
// Wire framing: sequence + length + checksum per fused wire message
// ---------------------------------------------------------------------------

/// Whether fused wire buffers are framed (sequence number, element count,
/// checksum) and validated before unpack.  On by default; the only
/// legitimate reason to turn framing off is measuring its cost
/// (`benches/e10_faults.rs` guards it at ≤ 5% of the wire path).
static WIRE_FRAMING: AtomicBool = AtomicBool::new(true);

/// Monotonic sequence number stamped into each wire frame — lets a
/// [`RuntimeError::CorruptMessage`] name the exact message that failed.
static NEXT_WIRE_SEQ: AtomicU64 = AtomicU64::new(1);

/// Enables or disables wire framing process-wide.
///
/// Bench-only: flipping this while exchanges are in flight is not
/// synchronised with them — a message framed before the flip is still
/// validated, one packed after it is not.
pub fn set_wire_framing(enabled: bool) {
    WIRE_FRAMING.store(enabled, Ordering::Relaxed);
}

/// Whether wire framing is currently enabled.
pub fn wire_framing_enabled() -> bool {
    WIRE_FRAMING.load(Ordering::Relaxed)
}

/// The header a real backend would prepend to each fused wire message:
/// enough to detect truncation (`elements`), corruption (`checksum`) and
/// to identify the message in an error report (`seq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WireFrame {
    seq: u64,
    elements: usize,
    checksum: u64,
}

/// Per-exchange framing policy handed to the parallel copy jobs.
///
/// `seq_base` is a block of sequence numbers reserved with one
/// uncontended caller-side `fetch_add` (pair `pi` gets `seq_base + pi`),
/// so the destination jobs running on pool workers never bounce the
/// shared counter's cache line between cores.
///
/// `verify` controls the receive-side checksum scan.  The simulated
/// channel is process memory: a packed wire cannot change between frame
/// and unpack unless a fault injector deliberately flips it, so — like a
/// loopback interface marking packets `CHECKSUM_UNNECESSARY` — the scan
/// runs only when a [`vf_machine::FaultInjector`] is attached to the
/// tracker.  That keeps the fault-free framing cost to the sender-side
/// checksum (the e10 bench guards it at ≤ 5%) while injected corruption
/// is still *always* detected: an injector is the only way bits can flip
/// in transit, and its presence switches verification on.
#[derive(Debug, Clone, Copy)]
struct WireFraming {
    seq_base: u64,
    verify: bool,
}

/// Checksum of a packed wire buffer: the xor of every element's stored bit
/// pattern, with the length mixed in through an odd multiplier and one
/// bijective multiplicative finisher.  The accumulation is GF(2)-linear in
/// the payload bits — flipping any single bit flips exactly one bit of the
/// accumulator, so injected single-bit corruption can never pass
/// validation — and because the wire buffer is contiguous, the xor is one
/// sequential sweep at cache speed ([`xor_bits`]), which is what keeps
/// framing inside the e10 bench's 5% overhead guard.
pub(crate) fn wire_checksum<T: Element>(wire: &[T]) -> u64 {
    finish_checksum(xor_bits(wire), wire.len())
}

/// Reserves a block of `n` wire sequence numbers (one uncontended
/// `fetch_add`) and returns the first — the same reservation scheme the
/// in-process wire executors use, shared with the channel-backed sharded
/// exchange so sequence numbers stay globally unique across backends.
pub(crate) fn next_wire_seq_block(n: u64) -> u64 {
    NEXT_WIRE_SEQ.fetch_add(n, Ordering::Relaxed)
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

/// Validates an accumulated payload xor (and length) against a frame.
fn check_frame(acc: u64, len: usize, frame: &WireFrame, src: usize, dst: usize) -> Result<()> {
    if len != frame.elements || finish_checksum(acc, len) != frame.checksum {
        return Err(RuntimeError::CorruptMessage {
            src,
            dst,
            seq: frame.seq,
        });
    }
    Ok(())
}

/// Frames a freshly packed wire buffer.
fn frame_wire<T: Element>(wire: &[T]) -> WireFrame {
    WireFrame {
        seq: NEXT_WIRE_SEQ.fetch_add(1, Ordering::Relaxed),
        elements: wire.len(),
        checksum: wire_checksum(wire),
    }
}

/// Validates a wire buffer against its frame: one contiguous
/// [`xor_bits`] sweep checked by [`check_frame`].  Runs on the receive
/// side before any unpack copy, so a corrupt payload never reaches a
/// destination buffer.
fn verify_wire<T: Element>(wire: &[T], frame: &WireFrame, src: usize, dst: usize) -> Result<()> {
    check_frame(xor_bits(wire), wire.len(), frame, src, dst)
}

/// Draws one corruption decision from the tracker's fault injector and maps
/// it onto a crossing pair of `fused`: returns the pair index into
/// `fused.pair_elements`, plus the element seed and bit to flip.  Never
/// arms when framing is disabled (the flip would be silently unpacked) or
/// when the plan has no crossing traffic (nothing travels a wire).
fn arm_corruption(fused: &FusedPlan, tracker: &CommTracker) -> Option<(usize, u64, u32)> {
    if !wire_framing_enabled() {
        return None;
    }
    let inj = tracker.fault_injector()?;
    let crossing: Vec<usize> = fused
        .pair_elements
        .iter()
        .enumerate()
        .filter(|&(_, &((s, d), total))| s != d && total > 0)
        .map(|(i, _)| i)
        .collect();
    if crossing.is_empty() {
        return None;
    }
    let spec = inj.corrupt_wire()?;
    let pi = crossing[(spec.pair_seed as usize) % crossing.len()];
    Some((pi, spec.elem_seed, spec.bit))
}

/// The simulated per-part executors copy each part's runs straight from
/// source to destination storage; a real machine instead **packs** every
/// (sender → receiver) pair's payload into one contiguous wire buffer laid
/// out by [`FusedPlan::wire_slices`], ships it as a single message, and
/// **unpacks** it at the receiver by replaying each part's run list against
/// the slice at its wire offset.  This engine performs exactly those two
/// memcpy streams per pair (plus the direct copies of elements that stay
/// local), so the produced buffers are bitwise identical to the per-part
/// executors while the charged traffic is the same one-message-per-pair
/// batch — only the copy work is reorganised from per-part scattered runs
/// into per-pair contiguous streams.
/// Produces destination processor `d`'s buffers for every part of a fused
/// plan: direct copies for elements staying on `d`, then one pack →
/// unpack stream per sending processor, all driven by the indexes
/// [`FusedPlan::fuse`] precomputed (`pair_transfer`, `pairs_by_dst`) — no
/// per-execute indexing.  Each destination is written by exactly one
/// call, so calls for different destinations are embarrassingly parallel.
/// `framing` frames each packed wire and (with `verify` set, i.e. with a
/// fault injector attached) validates it before unpack; `sabotage` (from
/// [`arm_corruption`]) flips one bit of one pair's wire after framing —
/// the checksum failure is then repaired by restoring the pristine
/// element, modelling a detected corruption answered by a
/// retransmission.  An unrepairable mismatch aborts before any corrupt
/// element reaches a destination buffer.
fn wire_copy_for_dest<T: Element>(
    fused: &FusedPlan,
    srcs: &[&[Vec<T>]],
    dst_sizes: &[Vec<usize>],
    d: usize,
    framing: Option<WireFraming>,
    sabotage: Option<(usize, u64, u32)>,
) -> Result<Vec<Vec<T>>> {
    let parts = fused.parts();
    // One span covers this destination's whole copy stream (local copies,
    // pack, verify, unpack): per-destination is the granularity the pool
    // dispatches at, and coarse enough that tracing a dispatch-dominated
    // exchange stays within the e11 bench's enabled-overhead guard even on
    // a single-core host (the split streaming path keeps per-pair spans —
    // there the caller's overlapped compute absorbs the recording cost).
    let _span = trace::OpenSpan::begin_dest(trace::Phase::Unpack, d);
    let mut bufs: Vec<Vec<T>> = dst_sizes
        .iter()
        .map(|sizes| vec![T::default(); sizes.get(d).copied().unwrap_or(0)])
        .collect();
    // Elements that stay on `d` never touch a wire buffer.
    for (idx, part) in parts.iter().enumerate() {
        if let Some(&ti) = fused.pair_transfer[idx].get(&(d, d)) {
            let t = &part.transfers()[ti];
            let src_local = &srcs[idx][d];
            for run in &t.runs {
                if run.len == 0 {
                    continue;
                }
                bufs[idx][run.dst_start..run.dst_start + run.len]
                    .copy_from_slice(&src_local[run.src_start..run.src_start + run.len]);
            }
        }
    }
    // One wire message per sending processor with traffic to `d`, walked
    // through the precomputed per-destination pair lists.
    let arriving = fused.pairs_by_dst.get(d).map_or(&[][..], |v| v);
    for &pi in arriving {
        let ((s, _), total) = fused.pair_elements[pi];
        if s == d || total == 0 {
            continue;
        }
        let slices = &fused.pair_slices[pi][..];
        // Pack: every part's payload lands at its wire offset, runs in
        // plan order — one contiguous buffer per pair, exactly the
        // message a real backend would post.
        let mut wire: Vec<T> = vec![T::default(); total];
        for sl in slices {
            if sl.elements == 0 {
                continue;
            }
            let t = &parts[sl.part].transfers()[fused.pair_transfer[sl.part][&(s, d)]];
            let src_local = &srcs[sl.part][s];
            let mut off = sl.wire_offset;
            for run in &t.runs {
                if run.len == 0 {
                    continue;
                }
                wire[off..off + run.len]
                    .copy_from_slice(&src_local[run.src_start..run.src_start + run.len]);
                off += run.len;
            }
            debug_assert_eq!(off, sl.wire_offset + sl.elements, "slice fills its window");
        }
        // The frame checksum is one contiguous whole-buffer pass — cheaper
        // than folding the xor into the scattered per-run copies, because
        // plain run copies stay `memcpy` and the sequential sweep
        // vectorises at cache speed (the e10 bench's 5% guard measures
        // exactly this trade).
        let frame = framing.map(|f| WireFrame {
            seq: f.seq_base + pi as u64,
            elements: total,
            checksum: wire_checksum(&wire),
        });
        // Armed corruption flips one element *after* framing — in transit.
        let mut sab_restore: Option<(usize, T)> = None;
        if let Some((spi, elem_seed, bit)) = sabotage {
            if spi == pi {
                let e = (elem_seed as usize) % wire.len();
                let orig = wire[e];
                wire[e] = orig.flip_bit(bit);
                sab_restore = Some((e, orig));
            }
        }
        // Validate before any element reaches a destination buffer (see
        // [`WireFraming::verify`] for when the scan runs).  A detected
        // mismatch restores the pristine element (the payload a modelled
        // retransmission carries) and revalidates; a failure that is not
        // the armed flip is unrepairable.
        if let (Some(frame), true) = (&frame, framing.is_some_and(|f| f.verify)) {
            if verify_wire(&wire, frame, s, d).is_err() {
                if let Some((e, orig)) = sab_restore {
                    wire[e] = orig;
                }
                verify_wire(&wire, frame, s, d)?;
                trace::instant(trace::Phase::CorruptionRepair);
            }
        }
        // Unpack: replay the same run lists against the receiver's
        // per-part buffers (ghost slots / new local offsets unchanged).
        for sl in slices {
            if sl.elements == 0 {
                continue;
            }
            let t = &parts[sl.part].transfers()[fused.pair_transfer[sl.part][&(s, d)]];
            let mut off = sl.wire_offset;
            for run in &t.runs {
                if run.len == 0 {
                    continue;
                }
                bufs[sl.part][run.dst_start..run.dst_start + run.len]
                    .copy_from_slice(&wire[off..off + run.len]);
                off += run.len;
            }
        }
    }
    Ok(bufs)
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

/// The charging + copy skeleton of the wire-packed fused executors: the
/// single-message-per-pair batch is posted, every destination's pack →
/// unpack streams run through `executor` (one work item per destination,
/// parallelised by the pooled backend above its cutoff), and the batch
/// completes with the pack/unpack seconds credited as copy-overlap
/// compute.  Returns per-part, per-processor destination buffers.
///
/// # Errors
/// [`RuntimeError::CorruptMessage`] if a framed wire buffer fails
/// validation and cannot be repaired — the posted charges are settled
/// before the error propagates, so the tracker never carries a leaked
/// pending batch.
pub(crate) fn execute_fused_wire<T: Element, E: PlanExecutor>(
    fused: &FusedPlan,
    tracker: &CommTracker,
    executor: &E,
    srcs: &[&[Vec<T>]],
    dst_sizes: &[Vec<usize>],
) -> Result<(Vec<Vec<Vec<T>>>, ExecReport)> {
    for part in fused.parts() {
        part.charge_directory(tracker);
    }
    let batch = fused.message_batch(T::BYTES);
    let messages = batch.len();
    let bytes: usize = batch.iter().map(|m| m.2).sum();
    let post = trace::OpenSpan::begin_with(trace::Phase::Post, || format!("{messages} msgs"));
    let pending = tracker.post_many(batch);
    post.end();
    let framing = wire_framing_enabled().then(|| WireFraming {
        seq_base: NEXT_WIRE_SEQ.fetch_add(fused.pair_elements.len() as u64, Ordering::Relaxed),
        verify: tracker.fault_injector().is_some(),
    });
    let sabotage = arm_corruption(fused, tracker);
    if let Some((pi, _, _)) = sabotage {
        // The flip below is detected and repaired at unpack; charge the
        // modelled retransmission of that pair's payload now, caller-side,
        // so the accounting is deterministic regardless of which thread
        // performs the repair.
        let ((s, d), total) = fused.pair_elements[pi];
        tracker.record_fault();
        tracker.charge_retransmissions(s, d, total * T::BYTES, 1);
    }
    // Pack + unpack touch every crossing element twice; stayed elements
    // copy once.  This volume drives the threaded backend's cutoff.
    let copy_bytes = (2 * fused.moved_elements() + fused.stayed_elements()) * T::BYTES;
    let per_dest = executor.run_indexed(fused.pairs_by_dst.len(), copy_bytes, tracker, |d| {
        wire_copy_for_dest(fused, srcs, dst_sizes, d, framing, sabotage)
    });
    // Settle the posted batch before any `?` — charges must never leak on
    // the corrupt-message path.
    let wait = trace::OpenSpan::begin(trace::Phase::Wait);
    finish_with_copy_credit(
        tracker,
        pending,
        &wire_copy_seconds(fused, T::BYTES, tracker),
    );
    wait.end();
    // Transpose the destination-major results into per-part buffers.
    let mut out: Vec<Vec<Vec<T>>> = dst_sizes
        .iter()
        .map(|sizes| vec![Vec::new(); sizes.len()])
        .collect();
    for (d, bufs) in per_dest.into_iter().enumerate() {
        for (idx, buf) in bufs?.into_iter().enumerate() {
            if d < out[idx].len() {
                out[idx][d] = buf;
            }
        }
    }
    Ok((out, ExecReport { messages, bytes }))
}

/// [`execute_redistribute_fused`] through the **wire-layout** path: every
/// crossing processor pair's payload is packed into one contiguous wire
/// buffer (laid out by [`FusedPlan::wire_slices`]), charged as exactly one
/// message, and unpacked at the destination — per-pair memcpy streams
/// instead of per-part scattered copies, with the pack/unpack phases run
/// through `executor` and credited as copy-overlap compute.  Buffers,
/// reports and charged traffic are bitwise identical to
/// [`execute_redistribute_fused`]; only the copy organisation differs.
///
/// # Errors
/// Exactly as [`execute_redistribute_fused`]: everything is validated
/// before any data moves.
pub fn execute_redistribute_fused_wire<T: Element, E: PlanExecutor>(
    arrays: &mut [&mut DistArray<T>],
    fused: &FusedPlan,
    tracker: &CommTracker,
    executor: &E,
) -> Result<(Vec<RedistReport>, ExecReport)> {
    fused.check_parts(
        PlanKind::Redistribute,
        "execute_redistribute_fused_wire",
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
    let (bufs, exec) = {
        let srcs: Vec<&[Vec<T>]> = arrays.iter().map(|a| a.locals()).collect();
        execute_fused_wire(fused, tracker, executor, &srcs, &dst_sizes)?
    };
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

// ---------------------------------------------------------------------------
// Split-phase wire execution: pack → post → interior compute → unpack/wait
// ---------------------------------------------------------------------------

/// What a split-phase wire execution charged and measured.
///
/// `messages`/`bytes` are exactly what the blocking wire path charges for
/// the same fused plan; the two measured fields are the wall-clock
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

/// The owned state a split-phase unpack job streams through: packed wire
/// buffers in, per-(part, destination) buffers out.  Fully `'static` —
/// packing and the stay-local copies read the *borrowed* sources at post
/// time on the caller thread, so nothing in here borrows the arrays.
struct SplitShared<T> {
    fused: FusedPlan,
    /// Indices into `fused.pair_elements` of the crossing pairs with
    /// traffic — the independent unpack work items.
    crossing: Vec<usize>,
    /// Packed wire buffer per crossing pair (aligned with `crossing`).
    /// Behind a mutex so the unpacking rank can repair an injected
    /// corruption in place (one uncontended lock per item — each item is
    /// claimed by exactly one rank at a time).
    wires: Vec<Mutex<Vec<T>>>,
    /// Wire frame per crossing pair (`None` with framing disabled),
    /// validated by the claiming rank before the pair is unpacked.
    frames: Vec<Option<WireFrame>>,
    /// Whether claiming ranks run the receive-side checksum scan — set
    /// iff a fault injector is attached (see [`WireFraming::verify`]).
    verify: bool,
    /// The armed corruption, if any: which item was flipped and the
    /// pristine element a modelled retransmission restores.
    sabotage: Option<SplitSabotage<T>>,
    /// Background rank armed to die (panic) before its first unpack —
    /// never rank 0, which is the caller.
    die_rank: Option<usize>,
    /// Destination buffers, `bufs[part][proc]` — mutexes only hand `&mut`
    /// access through the shared job; pairs into one destination write
    /// pairwise-disjoint runs, so there is no contention on the data.
    bufs: Vec<Vec<Mutex<Vec<T>>>>,
    /// Next unclaimed index into `crossing` (work stealing).
    claim: AtomicUsize,
    /// Crossing pairs not yet unpacked, per destination processor —
    /// per-pair completion, so a consumer can wait for one destination
    /// without a global barrier.
    remaining_by_dst: Vec<AtomicUsize>,
    /// Items a dying rank had claimed but not unpacked — adopted by the
    /// caller thread ([`SplitShared::recover_abandoned`]) so no
    /// destination is ever left partially assembled.
    abandoned: Mutex<Vec<usize>>,
    /// Set when any background rank died mid-stream (simulated or a real
    /// panic) — gates the recovery scan on waiting paths.
    died: AtomicBool,
    /// First unrepairable validation failure, reported from
    /// [`SplitPhaseExchange::wait`]; the corrupt payload never reaches a
    /// caller (the wait returns the error instead of the buffers).
    fatal: Mutex<Option<RuntimeError>>,
    /// Nanoseconds background ranks spent unpacking (the overlap
    /// measurement) and nanoseconds the caller spent helping (kept apart
    /// so help at the wait is never misreported as overlap).
    background_nanos: AtomicU64,
    help_nanos: AtomicU64,
}

/// The armed wire corruption of a split exchange: item `item` of the
/// crossing list had element `elem` bit-flipped after framing; `orig` is
/// the pristine value the repair (modelled retransmission) restores.
struct SplitSabotage<T> {
    item: usize,
    elem: usize,
    orig: T,
}

/// Panic payload of a simulated worker death — distinguishes injected
/// deaths from real unpack bugs only in intent: both are contained the
/// same way (the rank stops claiming, its item is handed to the caller).
struct SimulatedWorkerDeath;

impl<T: Element> SplitShared<T> {
    /// Unpacks crossing pair `crossing[k]` into its destination's per-part
    /// buffers — the unpack half of [`wire_copy_for_dest`], run by
    /// whichever rank claimed the item.  A framed wire is validated
    /// ([`verify_wire`]) before any unpack copy; a checksum failure
    /// matching the armed sabotage is repaired by restoring the pristine
    /// element (modelled retransmission) and revalidating, anything still
    /// failing is recorded as fatal and the pair is never unpacked — the
    /// wait reports the error and no corrupt element reaches a caller.
    fn unpack_claimed(&self, k: usize, pi: usize) {
        let ((s, d), _) = self.fused.pair_elements[pi];
        let _span = trace::OpenSpan::begin_pair(trace::Phase::Unpack, s, d);
        {
            let mut wire = self.wires[k].lock().unwrap_or_else(PoisonError::into_inner);
            let valid = match &self.frames[k] {
                Some(frame) if self.verify => verify_wire(&wire, frame, s, d).or_else(|_| {
                    if let Some(sab) = &self.sabotage {
                        if sab.item == k {
                            wire[sab.elem] = sab.orig;
                        }
                    }
                    verify_wire(&wire, frame, s, d)
                        .map(|()| trace::instant(trace::Phase::CorruptionRepair))
                }),
                _ => Ok(()),
            };
            match valid {
                Ok(()) => self.unpack_pair(pi, s, d, &wire),
                Err(e) => {
                    *self.fatal.lock().unwrap_or_else(PoisonError::into_inner) = Some(e);
                }
            }
        }
        // `Release` pairs with the `Acquire` load in `help_until_dest`:
        // whoever observes zero also observes every buffer write above.
        // A fatal frame failure still counts as delivered so waiters never
        // spin on a destination that can no longer complete.
        self.remaining_by_dst[d].fetch_sub(1, Ordering::Release);
    }

    /// One replay of pair `pi`'s run lists from its (already validated)
    /// wire into the destination buffers.
    fn unpack_pair(&self, pi: usize, s: usize, d: usize, wire: &[T]) {
        for sl in &self.fused.pair_slices[pi] {
            if sl.elements == 0 {
                continue;
            }
            let t = &self.fused.parts()[sl.part].transfers()
                [self.fused.pair_transfer[sl.part][&(s, d)]];
            let Some(cell) = self.bufs[sl.part].get(d) else {
                continue;
            };
            let mut buf = cell.lock().unwrap_or_else(PoisonError::into_inner);
            let mut off = sl.wire_offset;
            for run in &t.runs {
                if run.len == 0 {
                    continue;
                }
                buf[run.dst_start..run.dst_start + run.len]
                    .copy_from_slice(&wire[off..off + run.len]);
                off += run.len;
            }
        }
    }

    /// Claims and unpacks items until none are left — the pool job body
    /// (background ranks) and the caller's help at the wait (rank 0).
    ///
    /// Each item is unpacked under `catch_unwind`: a rank that panics —
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
            let k = self.claim.fetch_add(1, Ordering::Relaxed);
            let Some(&pi) = self.crossing.get(k) else {
                break;
            };
            let t0 = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if self.die_rank == Some(rank) {
                    std::panic::panic_any(SimulatedWorkerDeath);
                }
                self.unpack_claimed(k, pi);
            }));
            if outcome.is_err() {
                self.abandoned
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(k);
                self.died.store(true, Ordering::Release);
                break;
            }
            timer.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Adopts and unpacks every item a dead rank abandoned — called from
    /// the caller thread on all waiting paths, so the drain always
    /// completes even after a mid-stream worker death.  Idempotent: the
    /// abandoned list pops each item exactly once.
    fn recover_abandoned(&self) {
        loop {
            let next = self
                .abandoned
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop();
            let Some(k) = next else {
                break;
            };
            let pi = self.crossing[k];
            let t0 = Instant::now();
            self.unpack_claimed(k, pi);
            self.help_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Blocks until every pair arriving at destination `d` has been
    /// unpacked, helping with unclaimed items (any destination) while
    /// waiting.
    fn help_until_dest(&self, d: usize) {
        let Some(remaining) = self.remaining_by_dst.get(d) else {
            return;
        };
        while remaining.load(Ordering::Acquire) > 0 {
            if self.claim.load(Ordering::Relaxed) <= self.crossing.len() {
                let k = self.claim.fetch_add(1, Ordering::Relaxed);
                if let Some(&pi) = self.crossing.get(k) {
                    let t0 = Instant::now();
                    self.unpack_claimed(k, pi);
                    self.help_nanos
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
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

/// A fused wire exchange caught between its post and its wait — the
/// [`SplitPhaseExchange`] engine.
///
/// Created by [`split_execute_fused_wire`] after the pack + post phases
/// have completed on the caller thread: the modelled messages are posted,
/// every crossing pair's payload sits packed in an owned wire buffer, and
/// the stay-local runs are already copied.  With a multi-worker pool
/// attached (and the volume above the backend cutoff) the pool's workers
/// stream through the per-pair unpacks *concurrently with whatever the
/// caller does next*; [`SplitPhaseExchange::wait`] helps drain the
/// remaining pairs, completes the posted messages with exactly the
/// blocking path's overlap credit, and returns buffers bitwise identical
/// to [`execute_fused_wire`].
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
/// [`SplitPhaseExchange::wait`] (or calling
/// [`SplitPhaseExchange::cancel`], which is the same thing spelled out)
/// drains the in-flight background unpack and settles the posted tracker
/// charges — the messages were already sent at the post, so cancellation
/// completes them rather than pretending they never happened.  No charge
/// is ever leaked and the pool's submission turn is always released.
pub struct SplitPhaseExchange<'e, T: Element> {
    shared: Arc<SplitShared<T>>,
    ticket: Option<JobTicket<'e>>,
    pending: Option<vf_machine::PendingSends>,
    copy_secs: Vec<f64>,
    messages: usize,
    bytes: usize,
    /// Clone of the tracker the exchange was posted against — lets `Drop`
    /// settle the pending charges without the caller re-supplying it.
    tracker: CommTracker,
    posted_at: Instant,
    /// The explicitly begun/ended [`trace::Phase::SplitPending`] span
    /// covering the post→settle in-flight window.  Ended in
    /// [`SplitPhaseExchange::settle_unpack`] so `wait`, `cancel` and a
    /// bare drop all balance it; the `OpenSpan` drop guard backstops any
    /// path that skips the settle.
    span: Option<trace::OpenSpan>,
}

impl<T: Element> SplitPhaseExchange<'_, T> {
    /// Messages posted (one per crossing processor pair).
    pub fn messages(&self) -> usize {
        self.messages
    }

    /// Bytes posted.
    pub fn bytes(&self) -> usize {
        self.bytes
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
        let mut buf = self.shared.bufs[part][d]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        f(&mut buf)
    }

    /// Drains the streaming job to completion: measures the overlap,
    /// waits out the ticket, and adopts any items a dead rank abandoned.
    /// Shared by [`SplitPhaseExchange::wait`] and the `Drop` impl; no-op
    /// (returning zero overlap) once the ticket has been taken.
    fn settle_unpack(&mut self) -> f64 {
        let measured_overlap = if self.ticket.is_some() {
            let elapsed = self.posted_at.elapsed().as_secs_f64();
            let busy = self.shared.background_nanos.load(Ordering::Relaxed) as f64 * 1e-9;
            busy.min(elapsed)
        } else {
            0.0
        };
        if let Some(ticket) = self.ticket.take() {
            // Runs rank 0's share of the drain (work-steal help), then
            // blocks until the background ranks have finished.
            ticket.wait();
        }
        self.shared.recover_abandoned();
        if let Some(span) = self.span.take() {
            span.end();
        }
        measured_overlap
    }

    /// Cancels the exchange without taking its results: drains the
    /// in-flight background unpack and settles the posted tracker charges
    /// (the messages were already sent — cancellation completes them).
    /// Exactly equivalent to dropping the handle; provided so call sites
    /// can make the intent explicit.
    pub fn cancel(self) {
        drop(self);
    }

    /// Completes the exchange: helps unpack the remaining pairs, blocks
    /// until the background workers are done, charges the posted messages
    /// with the same copy-overlap credit as the blocking wire path, and
    /// records the *measured* overlap (background unpack seconds clamped
    /// to the post→wait interval) with the tracker.  Returns the per-part,
    /// per-processor destination buffers — bitwise identical to
    /// [`execute_fused_wire`] — and the report.
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
    pub fn wait(mut self, tracker: &CommTracker) -> Result<(Vec<Vec<Vec<T>>>, SplitExecReport)> {
        let messages = self.messages;
        let _wait_span =
            trace::OpenSpan::begin_with(trace::Phase::Wait, || format!("{messages} msgs"));
        let measured_overlap = self.settle_unpack();
        let Some(pending) = self.pending.take() else {
            return Err(RuntimeError::HandleConsumed {
                handle: "SplitPhaseExchange",
            });
        };
        finish_with_copy_credit(tracker, pending, &self.copy_secs);
        tracker.record_measured_overlap(measured_overlap);
        if let Some(e) = self
            .shared
            .fatal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            return Err(e);
        }
        let measured_unpack = (self.shared.background_nanos.load(Ordering::Relaxed)
            + self.shared.help_nanos.load(Ordering::Relaxed)) as f64
            * 1e-9;
        let (messages, bytes) = (self.messages, self.bytes);
        // `Drop` prevents moving fields out of `self`; clone the Arc and
        // let the (now no-op — ticket and pending are taken) drop run.
        let shared = Arc::clone(&self.shared);
        drop(self);
        // True invariant, not a reachable failure: the ticket completed
        // above and the handle was just dropped, so this Arc is the only
        // reference left.
        let shared = Arc::try_unwrap(shared)
            .ok()
            .expect("job complete: the ticket held the only other reference");
        let bufs = shared
            .bufs
            .into_iter()
            .map(|per_proc| {
                per_proc
                    .into_iter()
                    .map(|cell| cell.into_inner().unwrap_or_else(PoisonError::into_inner))
                    .collect()
            })
            .collect();
        Ok((
            bufs,
            SplitExecReport {
                messages,
                bytes,
                measured_overlap_seconds: measured_overlap,
                measured_unpack_seconds: measured_unpack,
            },
        ))
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
        if self.ticket.is_none() && self.pending.is_none() {
            return;
        }
        let _span = trace::OpenSpan::begin_static(trace::Phase::Wait, "cancel");
        let measured_overlap = self.settle_unpack();
        if let Some(pending) = self.pending.take() {
            finish_with_copy_credit(&self.tracker, pending, &self.copy_secs);
            self.tracker.record_measured_overlap(measured_overlap);
        }
    }
}

/// The split-phase counterpart of [`execute_fused_wire`]: charges the
/// directory fetches, posts the single-message-per-pair batch, packs every
/// crossing pair's wire buffer and copies the stay-local runs (all on the
/// caller thread — these phases read the borrowed sources), then hands the
/// owned per-pair unpacks to the backend's worker pool and **returns**.
/// The caller runs its interior compute while the pairs stream; see
/// [`SplitPhaseExchange`] for the wait side.
///
/// Without a multi-worker pool (or below the backend's serial cutoff) the
/// unpack runs inline before returning — same buffers, same charges, zero
/// measured overlap.
pub(crate) fn split_execute_fused_wire<'e, T: Element>(
    fused: FusedPlan,
    tracker: &CommTracker,
    backend: &'e ExecBackend,
    srcs: &[&[Vec<T>]],
    dst_sizes: &[Vec<usize>],
) -> SplitPhaseExchange<'e, T> {
    for part in fused.parts() {
        part.charge_directory(tracker);
    }
    let batch = fused.message_batch(T::BYTES);
    let messages = batch.len();
    let bytes: usize = batch.iter().map(|m| m.2).sum();
    let post_span = trace::OpenSpan::begin_with(trace::Phase::Post, || format!("{messages} msgs"));
    let pending = tracker.post_many(batch);
    post_span.end();
    let copy_secs = wire_copy_seconds(&fused, T::BYTES, tracker);

    // Destination buffers (default-filled) with the stay-local runs copied
    // in now — exactly the local half of `wire_copy_for_dest`.
    let pack_span = trace::OpenSpan::begin_static(trace::Phase::WirePack, "split pack");
    let mut bufs: Vec<Vec<Mutex<Vec<T>>>> = Vec::with_capacity(fused.parts().len());
    for (idx, sizes) in dst_sizes.iter().enumerate() {
        let part = &fused.parts()[idx];
        let mut per_proc = Vec::with_capacity(sizes.len());
        for (d, &len) in sizes.iter().enumerate() {
            let mut buf = vec![T::default(); len];
            if let Some(&ti) = fused.pair_transfer[idx].get(&(d, d)) {
                let src_local = &srcs[idx][d];
                for run in &part.transfers()[ti].runs {
                    if run.len == 0 {
                        continue;
                    }
                    buf[run.dst_start..run.dst_start + run.len]
                        .copy_from_slice(&src_local[run.src_start..run.src_start + run.len]);
                }
            }
            per_proc.push(Mutex::new(buf));
        }
        bufs.push(per_proc);
    }

    // Pack every crossing pair's wire buffer — the pack half of
    // `wire_copy_for_dest`, reading the borrowed sources caller-side.
    let crossing: Vec<usize> = fused
        .pair_elements
        .iter()
        .enumerate()
        .filter(|&(_, &((s, d), total))| s != d && total > 0)
        .map(|(i, _)| i)
        .collect();
    let mut wires: Vec<Vec<T>> = crossing
        .iter()
        .map(|&pi| {
            let ((s, d), total) = fused.pair_elements[pi];
            let mut wire = vec![T::default(); total];
            for sl in &fused.pair_slices[pi] {
                if sl.elements == 0 {
                    continue;
                }
                let t = &fused.parts()[sl.part].transfers()[fused.pair_transfer[sl.part][&(s, d)]];
                let src_local = &srcs[sl.part][s];
                let mut off = sl.wire_offset;
                for run in &t.runs {
                    if run.len == 0 {
                        continue;
                    }
                    wire[off..off + run.len]
                        .copy_from_slice(&src_local[run.src_start..run.src_start + run.len]);
                    off += run.len;
                }
                debug_assert_eq!(off, sl.wire_offset + sl.elements, "slice fills its window");
            }
            wire
        })
        .collect();

    // Frame each wire over its pristine payload, then arm any injected
    // corruption: flip one bit of one wire, remember the pristine element
    // (the repair is a modelled retransmission, charged now, caller-side,
    // so the accounting is deterministic whichever rank unpacks the item).
    let framing = wire_framing_enabled();
    let frames: Vec<Option<WireFrame>> = if framing {
        wires.iter().map(|w| Some(frame_wire(w))).collect()
    } else {
        vec![None; wires.len()]
    };
    pack_span.end();
    let sabotage = arm_corruption(&fused, tracker).map(|(pi, elem_seed, bit)| {
        let k = crossing
            .iter()
            .position(|&c| c == pi)
            .expect("corruption is only armed on a crossing pair");
        let e = (elem_seed as usize) % wires[k].len();
        let orig = wires[k][e];
        wires[k][e] = orig.flip_bit(bit);
        let ((s, d), total) = fused.pair_elements[pi];
        tracker.record_fault();
        tracker.charge_retransmissions(s, d, total * T::BYTES, 1);
        SplitSabotage {
            item: k,
            elem: e,
            orig,
        }
    });

    let mut remaining = vec![0usize; fused.pairs_by_dst.len()];
    for &pi in &crossing {
        remaining[fused.pair_elements[pi].0 .1] += 1;
    }
    let unpack_bytes = fused.moved_elements() * T::BYTES;

    // Stream through the pool when there are background workers to stream
    // on and the volume clears the backend's cutoff; otherwise unpack
    // inline now (no overlap, identical results).
    let streaming_pool = match backend {
        ExecBackend::Threaded(t)
            if !crossing.is_empty() && unpack_bytes >= t.effective_serial_cutoff() =>
        {
            t.pool().filter(|p| p.workers() > 1)
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
                    let width = 1 + crossing.len().min(pool.workers() - 1);
                    die_rank = Some(1 + inj.pick(width - 1));
                }
                Some(pool)
            }
        }
        (sp, _) => sp,
    };

    let shared = Arc::new(SplitShared {
        fused,
        crossing,
        wires: wires.into_iter().map(Mutex::new).collect(),
        frames,
        verify: tracker.fault_injector().is_some(),
        sabotage,
        die_rank,
        bufs,
        claim: AtomicUsize::new(0),
        remaining_by_dst: remaining.into_iter().map(AtomicUsize::new).collect(),
        abandoned: Mutex::new(Vec::new()),
        died: AtomicBool::new(false),
        fatal: Mutex::new(None),
        background_nanos: AtomicU64::new(0),
        help_nanos: AtomicU64::new(0),
    });
    let ticket = match streaming_pool {
        Some(pool) => {
            let job = Arc::clone(&shared);
            // Rank 0 (the caller) helps at the wait; wake only as many
            // background ranks as there are pairs to unpack.
            let width = 1 + shared.crossing.len().min(pool.workers() - 1);
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
        messages,
        bytes,
        tracker: tracker.clone(),
        posted_at: Instant::now(),
        span: Some(trace::OpenSpan::begin_with(
            trace::Phase::SplitPending,
            || format!("{messages} msgs"),
        )),
    }
}

/// A single-array redistribution caught between its post and its wait —
/// the split-phase counterpart of
/// [`redistribute_cached_with`](crate::redistribute_cached_with), built on
/// [`SplitPhaseExchange`].
///
/// Created by [`redistribute_split`] after packing the crossing payloads
/// and posting the modelled messages.  The caller can then:
///
/// 1. run any work that does not touch the array while the destination
///    buffers stream in on the pool's background workers,
/// 2. pipeline per-destination: [`SplitRedistribute::wait_dest`]`(d)`
///    followed by [`SplitRedistribute::with_dest_mut`]`(d, ..)` operates
///    on destination `d`'s *new* local buffer while other destinations
///    are still in flight (the ADI sweep works this way),
/// 3. call [`SplitRedistribute::finish_into`] to install the new locals
///    and descriptor — results bitwise identical to the blocking path.
pub struct SplitRedistribute<'e, T: Element> {
    inner: SplitPhaseExchange<'e, T>,
    new_dist: vf_dist::Distribution,
    src_fingerprint: u64,
    moved: usize,
    stayed: usize,
    plan_messages: usize,
    plan_bytes: usize,
}

impl<T: Element> SplitRedistribute<'_, T> {
    /// The distribution the array will have after
    /// [`SplitRedistribute::finish_into`].
    pub fn new_dist(&self) -> &vf_dist::Distribution {
        &self.new_dist
    }

    /// Whether the unpack is streaming on background workers.
    pub fn is_streaming(&self) -> bool {
        self.inner.is_streaming()
    }

    /// Blocks until destination processor `d`'s new local buffer is fully
    /// assembled (helping unpack while waiting); other destinations may
    /// still be in flight.
    pub fn wait_dest(&self, d: usize) {
        self.inner.wait_dest(d);
    }

    /// Runs `f` on destination processor `d`'s new local buffer.  Call
    /// [`SplitRedistribute::wait_dest`]`(d)` first; mutations made here are
    /// what [`SplitRedistribute::finish_into`] installs.
    pub fn with_dest_mut<R>(&self, d: usize, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
        self.inner.with_dest_mut(0, d, f)
    }

    /// Completes the exchange and installs the new locals and descriptor
    /// into `array` (which must still carry the distribution the plan was
    /// posted from), broadcasting to replicated copies exactly like the
    /// blocking path.
    ///
    /// Cancels the redistribution without touching the array: drains the
    /// in-flight unpack and settles the posted charges (see
    /// [`SplitPhaseExchange::cancel`]); the array keeps its old
    /// distribution.  Equivalent to dropping the handle.
    pub fn cancel(self) {
        self.inner.cancel();
    }

    /// # Errors
    /// [`RuntimeError::PlanMismatch`] if `array` was redistributed between
    /// the post and this call; [`RuntimeError::CorruptMessage`] if a wire
    /// buffer failed validation and could not be repaired (the array is
    /// left untouched on its old distribution).
    pub fn finish_into(
        self,
        array: &mut DistArray<T>,
        tracker: &CommTracker,
    ) -> Result<(RedistReport, SplitExecReport)> {
        if array.dist().fingerprint() != self.src_fingerprint {
            return Err(RuntimeError::PlanMismatch {
                expected: self.src_fingerprint,
                found: array.dist().fingerprint(),
            });
        }
        let (mut bufs, report) = self.inner.wait(tracker)?;
        let locals = bufs.pop().expect("exactly one fused part");
        array.replace(self.new_dist, locals);
        array.broadcast_canonical();
        Ok((
            RedistReport {
                moved_elements: self.moved,
                stayed_elements: self.stayed,
                messages: self.plan_messages,
                bytes: self.plan_bytes,
            },
            report,
        ))
    }
}

/// Posts a split-phase redistribution of `array` to `new_dist`: plans (or
/// reuses) the schedule through `cache`, packs the crossing payloads,
/// posts the aggregated messages, copies the stay-local runs, and returns
/// with the per-destination unpacks streaming on `backend`'s pool (inline
/// when the backend is serial or the volume is below its cutoff).  The
/// array itself is untouched until [`SplitRedistribute::finish_into`];
/// it must not be mutated while the handle is live (the packed payloads
/// would silently ignore the mutation).
///
/// # Errors
/// Exactly as [`redistribute_cached_with`](crate::redistribute_cached_with):
/// everything is validated before any message is posted.
pub fn redistribute_split<'e, T: Element>(
    array: &DistArray<T>,
    new_dist: vf_dist::Distribution,
    tracker: &CommTracker,
    cache: &crate::plan::PlanCache,
    backend: &'e ExecBackend,
) -> Result<SplitRedistribute<'e, T>> {
    let plan = cache.redistribute_plan(array.dist(), &new_dist)?;
    plan.check_executable(array.dist(), tracker)?;
    let _span = trace::OpenSpan::begin_static(trace::Phase::Redistribute, "split post");
    let fused = FusedPlan::fuse(vec![plan])?;
    let (dst_sizes, src_fingerprint, moved, stayed, plan_messages, plan_bytes) = {
        let part = &fused.parts()[0];
        let mut sizes = vec![0usize; part.total_procs()];
        for &q in new_dist.proc_ids() {
            sizes[q.0] = new_dist.local_size(q);
        }
        (
            sizes,
            part.src_fingerprint(),
            part.moved_elements(),
            part.stayed_elements(),
            part.num_messages(),
            part.bytes_for(T::BYTES),
        )
    };
    let inner = split_execute_fused_wire(fused, tracker, backend, &[array.locals()], &[dst_sizes]);
    Ok(SplitRedistribute {
        inner,
        new_dist,
        src_fingerprint,
        moved,
        stayed,
        plan_messages,
        plan_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_redistribute;
    use vf_dist::{DistType, Distribution, ProcessorView};
    use vf_index::IndexDomain;
    use vf_machine::CostModel;

    fn dist_1d(t: DistType, n: usize, p: usize) -> Distribution {
        Distribution::new(t, IndexDomain::d1(n), ProcessorView::linear(p)).unwrap()
    }

    fn redistribute_with<E: PlanExecutor>(
        executor: &E,
        n: usize,
        p: usize,
    ) -> (Vec<f64>, ExecReport, vf_machine::CommStats) {
        let from = dist_1d(DistType::block1d(), n, p);
        let to = dist_1d(DistType::cyclic1d(1), n, p);
        let plan = plan_redistribute(&from, &to).unwrap();
        let a = DistArray::from_fn("A", from, |pt| pt.coord(0) as f64 * 0.5);
        let tracker = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.25));
        let mut dst_sizes = vec![0usize; p];
        for &q in to.proc_ids() {
            dst_sizes[q.0] = to.local_size(q);
        }
        let (bufs, report) = executor.execute(&plan, a.locals(), &dst_sizes, &tracker, true);
        let flat: Vec<f64> = bufs.into_iter().flatten().collect();
        (flat, report, tracker.snapshot())
    }

    #[test]
    fn threaded_buffers_and_charges_match_serial() {
        let serial = redistribute_with(&SerialExecutor, 64, 4);
        let forced = ThreadedExecutor::with_workers(3).serial_cutoff_bytes(0);
        let threaded = redistribute_with(&forced, 64, 4);
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
        let t = ThreadedExecutor::with_workers(4);
        assert_eq!(
            t.effective_serial_cutoff(),
            ThreadedExecutor::DEFAULT_SERIAL_CUTOFF_BYTES
        );
        assert_eq!(t.workers(), 4);
        assert!(t.pool().is_none(), "with_workers is the fresh-spawn mode");
        // Attaching a pool drops the default cutoff to the pooled
        // crossover; an explicit override always wins.
        let pooled = t.clone().pooled(vf_machine::pool::global());
        assert_eq!(
            pooled.effective_serial_cutoff(),
            ThreadedExecutor::DEFAULT_POOLED_CUTOFF_BYTES
        );
        assert!(pooled.pool().is_some());
        assert_eq!(pooled.with_serial_cutoff(7).effective_serial_cutoff(), 7);
        let auto = ExecBackend::auto();
        match auto {
            ExecBackend::Threaded(t) => assert!(t.workers() > 1),
            ExecBackend::Serial => {
                assert_eq!(
                    std::thread::available_parallelism().map(|n| n.get()).ok(),
                    Some(1)
                );
            }
            // Only reachable when the test environment sets
            // VF_EXEC_BACKEND=sharded explicitly.
            ExecBackend::Sharded(s) => assert_eq!(s.name(), "sharded"),
        }
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
        let plan = plan_redistribute(&from, &to).unwrap();
        let a = DistArray::from_fn("A", from, |pt| pt.coord(0) as f64 * 1.25);
        let mut dst_sizes = vec![0usize; p];
        for &q in to.proc_ids() {
            dst_sizes[q.0] = to.local_size(q);
        }
        let t_serial = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.25));
        let (serial, rs) = SerialExecutor.execute(&plan, a.locals(), &dst_sizes, &t_serial, true);
        for workers in [2, 3, 5] {
            // Both dispatch modes must split the hot destination
            // identically: the fresh-spawn scoped threads and the
            // persistent pool.
            let pool = Arc::new(vf_machine::WorkerPool::new(workers));
            for forced in [
                ThreadedExecutor::with_workers(workers).serial_cutoff_bytes(0),
                ThreadedExecutor::with_pool(Arc::clone(&pool)).serial_cutoff_bytes(0),
            ] {
                let t_thr = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.25));
                let (threaded, rt) = forced.execute(&plan, a.locals(), &dst_sizes, &t_thr, true);
                assert_eq!(serial, threaded, "buffers differ with {workers} workers");
                assert_eq!(rs, rt);
                assert_eq!(t_serial.snapshot(), t_thr.snapshot());
            }
            assert!(pool.jobs_dispatched() > 0, "pooled run used the pool");
        }
        // A partial hot receiver (most but not all traffic to P1, scattered
        // run layout) exercises the gap-preserving split path too.
        let mut sizes = vec![8usize; p];
        sizes[1] = n - 8 * (p - 1);
        let to = dist_1d(DistType::gen_block1d(sizes), n, p);
        let plan = plan_redistribute(a.dist(), &to).unwrap();
        let mut dst_sizes = vec![0usize; p];
        for &q in to.proc_ids() {
            dst_sizes[q.0] = to.local_size(q);
        }
        let (serial, _) = SerialExecutor.execute(&plan, a.locals(), &dst_sizes, &t_serial, true);
        let forced = ThreadedExecutor::with_workers(4).serial_cutoff_bytes(0);
        let (threaded, _) = forced.execute(&plan, a.locals(), &dst_sizes, &t_serial, true);
        assert_eq!(serial, threaded);
    }

    #[test]
    fn copy_phase_is_charged_as_compute_and_hides_communication() {
        let n = 64usize;
        let p = 4usize;
        let from = dist_1d(DistType::block1d(), n, p);
        let to = dist_1d(DistType::cyclic1d(1), n, p);
        let plan = plan_redistribute(&from, &to).unwrap();
        let a = DistArray::from_fn("A", from, |pt| pt.coord(0) as f64);
        let mut dst_sizes = vec![0usize; p];
        for &q in to.proc_ids() {
            dst_sizes[q.0] = to.local_size(q);
        }
        // Baseline: copies priced at zero — no compute time, full
        // communication time, exactly the pre-credit behaviour.
        let zero_rate = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.5));
        SerialExecutor.execute(&plan, a.locals(), &dst_sizes, &zero_rate, true);
        let base = zero_rate.snapshot();
        assert_eq!(base.total_compute_time(), 0.0);
        assert!(base.critical_time() > 0.0);

        // A copy rate makes the packing work visible as compute time and
        // hides the same amount of communication time behind it.
        let priced = CommTracker::new(
            p,
            CostModel::from_alpha_beta(1.0, 0.5).with_copy_bandwidth(1e6),
        );
        SerialExecutor.execute(&plan, a.locals(), &dst_sizes, &priced, true);
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
        let gather = Arc::new(
            crate::plan::plan_gather(&d, &[(vf_dist::ProcId(0), vf_index::Point::d1(9))]).unwrap(),
        );
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
            execute_redistribute_fused(
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
        let (reports, exec) = execute_redistribute_fused(
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
        // one fusion: the wire-packed executor must produce bitwise the
        // per-part buffers, identical reports and identical tracker
        // traffic, serial and pooled alike.
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
            (
                DistArray::from_fn("A", from.clone(), |pt| pt.coord(0) as f64 * 1.5),
                DistArray::from_fn("B", from.clone(), |pt| -(pt.coord(0) as f64)),
                DistArray::from_fn("C", from.clone(), |pt| pt.coord(0) as f64 + 0.25),
            )
        };
        let (mut a1, mut b1, mut c1) = build();
        let t1 = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.5));
        let (reports1, exec1) = execute_redistribute_fused(
            &mut [&mut a1, &mut b1, &mut c1],
            &fused,
            &t1,
            &SerialExecutor,
        )
        .unwrap();

        let pool = Arc::new(vf_machine::WorkerPool::new(3));
        for (name, executor) in [
            ("serial-wire", ExecBackend::Serial),
            (
                "pooled-wire",
                ExecBackend::Threaded(
                    ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0),
                ),
            ),
        ] {
            let (mut a2, mut b2, mut c2) = build();
            let t2 = CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.5));
            let (reports2, exec2) = execute_redistribute_fused_wire(
                &mut [&mut a2, &mut b2, &mut c2],
                &fused,
                &t2,
                &executor,
            )
            .unwrap();
            assert_eq!(a1.to_dense(), a2.to_dense(), "{name}");
            assert_eq!(b1.to_dense(), b2.to_dense(), "{name}");
            assert_eq!(c1.to_dense(), c2.to_dense(), "{name}");
            assert_eq!(reports1, reports2, "{name}");
            assert_eq!(exec1, exec2, "{name}");
            assert_eq!(t1.snapshot(), t2.snapshot(), "{name}");
        }
        // One message per crossing pair, bytes conserved over the parts.
        assert_eq!(exec1.messages, fused.num_messages());
        assert_eq!(exec1.bytes, reports1.iter().map(|r| r.bytes).sum::<usize>());
        assert!(pool.jobs_dispatched() > 0, "the wire path used the pool");
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
        let err = execute_redistribute_fused_wire(
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
    fn fused_execution_validates_before_moving() {
        let n = 16usize;
        let p = 4usize;
        let from = dist_1d(DistType::block1d(), n, p);
        let to = dist_1d(DistType::cyclic1d(1), n, p);
        let plan = Arc::new(plan_redistribute(&from, &to).unwrap());
        let fused = FusedPlan::fuse(vec![Arc::clone(&plan), plan]).unwrap();
        let mut good = DistArray::from_fn("G", from, |pt| pt.coord(0) as f64);
        // The second array is *not* block-distributed: the fused execute
        // must fail before touching either array.
        let mut bad = DistArray::from_fn("B", to, |pt| pt.coord(0) as f64);
        let before = good.to_dense();
        let tracker = CommTracker::new(p, CostModel::zero());
        let err = execute_redistribute_fused(
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
            execute_redistribute_fused(&mut [&mut a, &mut b], &fused, &tracker, &SerialExecutor);
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
        let frame = frame_wire(&wire);
        assert_eq!(frame.elements, 16);
        verify_wire(&wire, &frame, 0, 1).unwrap();
        wire[7] = wire[7].flip_bit(3);
        let err = verify_wire(&wire, &frame, 2, 5).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::CorruptMessage {
                src: 2,
                dst: 5,
                seq: frame.seq,
            }
        );
        // Restoring the pristine element (the modelled retransmission)
        // makes the same frame verify again.
        wire[7] = wire[7].flip_bit(3);
        verify_wire(&wire, &frame, 2, 5).unwrap();
    }

    #[test]
    fn framing_toggle_round_trips() {
        // Framing is on by default; the bench-only switch turns it off and
        // back on.  Safe to race with the other unit tests: with framing
        // off wires simply skip validation, results are unchanged.
        assert!(wire_framing_enabled());
        set_wire_framing(false);
        assert!(!wire_framing_enabled());
        set_wire_framing(true);
        assert!(wire_framing_enabled());
    }

    #[test]
    fn wire_frames_carry_distinct_sequence_numbers() {
        let wire: Vec<f64> = vec![1.0, 2.0];
        let a = frame_wire(&wire);
        let b = frame_wire(&wire);
        assert_ne!(a.seq, b.seq);
        assert_eq!(a.checksum, b.checksum);
    }
}
