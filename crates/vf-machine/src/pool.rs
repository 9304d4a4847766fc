//! A persistent pool of parked SPMD worker threads.
//!
//! Spawning fresh OS threads for every plan execution costs as much as
//! the memcpy work itself for plans near the serial cutoff.  A
//! [`WorkerPool`] keeps its workers alive across calls instead: threads
//! are spawned once, park between jobs, and a job submission is an epoch
//! bump plus one unpark per participating worker — no spawn, no channel
//! allocation, no join.  The submitting thread itself is logical rank 0
//! and runs its own share of every job instead of parking idle (caller
//! participation), so a `W`-wide pool wakes only `W - 1` threads.
//!
//! ## Job handoff (seqlock-style epoch publication)
//!
//! Submission is lock-free on the hot path: the submitting thread writes a
//! type-erased borrow of the job closure into the shared job cell, then
//! *publishes* it by storing a new epoch — a sequence number and the job's
//! width in one atomic word — with `Release` ordering and unparking the
//! participating workers.  A worker observes the new epoch with `Acquire`
//! (the seqlock read side: epoch first, payload after), runs the job once
//! if its rank is inside the width, and decrements the outstanding-worker
//! count; the last finisher unparks the submitter.  The submitting thread **blocks until every worker has
//! reported completion**, so handing the workers a *borrowed*
//! (non-`'static`) closure is sound — the same scoped-borrow argument
//! `std::thread::scope` makes, applied to pre-existing threads.  The
//! `unsafe` in this module is confined to that argument: the lifetime
//! erasure of the job borrow and the job cell it is published through.
//!
//! ## Right-sized wakes and split-phase submission
//!
//! Dispatches carry a *width*: [`WorkerPool::run_limited`] wakes only the
//! threads whose rank participates, so a job with two items on an
//! eight-wide pool pays one unpark, not seven.  [`WorkerPool::submit`]
//! additionally decouples posting a job from completing it: the woken workers stream through the job while the
//! submitting thread runs unrelated local work, and the returned
//! [`JobTicket`] runs rank 0's share and blocks only when the results are
//! actually needed — the mechanism behind split-phase (post → interior
//! compute → wait) plan execution.
//!
//! ## Panics and shutdown
//!
//! A panicking job closure never kills a worker: panics are caught on the
//! worker, counted, and re-raised on the *submitting* thread once the job
//! completes on the remaining workers — the pool itself stays usable for
//! subsequent jobs.  Dropping the last handle to a pool wakes the workers
//! with a shutdown flag and joins them.

#![allow(unsafe_code)] // scoped job handoff: lifetime erasure + job cell, see above

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::{JoinHandle, Thread};

/// The type-erased job borrow workers execute: called once per worker with
/// the worker's rank.  The `'static` bound is a lie told to the type
/// system; see the module docs for why it is sound.
type Job = &'static (dyn Fn(usize) + Sync);

/// The published-job cell of the seqlock handoff.  Only the submitting
/// thread writes it (serialised by the submit mutex, and only while no
/// worker is running — `remaining == 0`); workers read it only after
/// observing the epoch bump that happens-after the write.
struct JobCell(UnsafeCell<Option<Job>>);

// SAFETY: the epoch protocol (write → `Release` epoch bump → `Acquire`
// epoch read → read) orders every read after the write it observes, and
// writes never overlap reads (the submitter waits for `remaining == 0`
// before writing again).
unsafe impl Sync for JobCell {}

/// Bits of an epoch word holding the published job's width; the bits
/// above them count published jobs.
const WIDTH_BITS: u32 = 32;

struct Inner {
    /// The published job's epoch: `(sequence << WIDTH_BITS) | width`,
    /// stored once per published job (`Release`).  Workers re-run nothing
    /// for an epoch they have already seen, and only ranks `0..width` run
    /// the job.  The width travels in the same word as the sequence so a
    /// worker reads both in one `Acquire` load: a bystander can never pair
    /// one job's epoch with the next job's width (see `worker_loop`).
    epoch: AtomicU64,
    /// The current job, published by the epoch bump.
    job: JobCell,
    /// Workers that have not yet finished the current job.
    remaining: AtomicUsize,
    /// Workers whose job closure panicked during the current job.
    panicked: AtomicUsize,
    /// The first caught panic payload of the current job, re-raised on the
    /// submitting thread so the original message and location survive.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Set once, on drop: workers exit instead of parking.
    shutdown: AtomicBool,
    /// The submitting thread, unparked by the last finisher.
    submitter: Mutex<Option<Thread>>,
}

/// A fixed-size pool of parked SPMD worker threads executing one job at a
/// time (see the module docs for the handoff protocol).
///
/// The pool is shared by cloning an `Arc<WorkerPool>`; the process-wide
/// default pool is [`global`].  One pool runs one job at a time —
/// concurrent submitters queue on an internal mutex — and a job must never
/// submit to its own pool (that would deadlock, exactly like joining a
/// thread from itself).
pub struct WorkerPool {
    inner: Arc<Inner>,
    workers: usize,
    /// Parked worker thread handles, for the wake-up unparks.
    threads: Vec<Thread>,
    /// Jobs dispatched so far (pool-reuse diagnostics for tests/benches).
    jobs: AtomicU64,
    /// Serialises submissions: one job owns the epoch protocol at a time.
    submit: Mutex<()>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("jobs", &self.jobs.load(Ordering::Relaxed))
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of `workers` logical workers (`workers` is clamped
    /// to at least 1).  Rank 0 is the **submitting thread itself** —
    /// [`WorkerPool::run`] executes rank 0's share inline instead of
    /// parking idle, so only `workers - 1` OS threads are spawned and a
    /// dispatch wakes one thread fewer than the logical width (a
    /// single-worker pool spawns no threads at all and degrades to an
    /// inline call).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            epoch: AtomicU64::new(0),
            job: JobCell(UnsafeCell::new(None)),
            remaining: AtomicUsize::new(0),
            panicked: AtomicUsize::new(0),
            panic_payload: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            submitter: Mutex::new(None),
        });
        let handles: Vec<JoinHandle<()>> = (1..workers)
            .map(|rank| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("vf-pool-{rank}"))
                    .spawn(move || worker_loop(&inner, rank))
                    .expect("spawn pool worker thread")
            })
            .collect();
        let threads = handles.iter().map(|h| h.thread().clone()).collect();
        Self {
            inner,
            workers,
            threads,
            jobs: AtomicU64::new(0),
            submit: Mutex::new(()),
            handles: Mutex::new(handles),
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Jobs dispatched since the pool was created — lets tests and benches
    /// assert that repeated executes reuse one pool instead of spawning.
    pub fn jobs_dispatched(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Runs `job` once on every worker (argument: the worker's rank,
    /// `0..workers`), blocking until all workers have finished.
    ///
    /// If any worker's closure panics the panic is re-raised here after the
    /// job completes on the remaining workers; the pool stays usable.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        self.run_limited(self.workers, job);
    }

    /// Runs `job` once on ranks `0..min(width, workers)` only, waking only
    /// the `width - 1` threads that participate — right-sized wakes, so a
    /// job with few independent items on a wide pool does not pay a
    /// full-pool wake (and full-pool contention) for ranks that would find
    /// nothing to do.
    ///
    /// Panic semantics match [`WorkerPool::run`].
    pub fn run_limited(&self, width: usize, job: &(dyn Fn(usize) + Sync)) {
        let width = width.clamp(1, self.workers);
        let _span = crate::span!(crate::trace::Phase::PoolDispatch, "run w{width}");
        let _turn = self.submit.lock().unwrap_or_else(PoisonError::into_inner);
        // SAFETY: `run_limited` blocks below until every participating
        // worker has decremented `remaining`, i.e. until no worker can
        // dereference the erased borrow again (a worker only picks a job
        // up together with a *new* epoch).  The borrow therefore outlives
        // every use, exactly as with scoped threads; only the type-system
        // lifetime is erased.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        self.publish(width, job);
        // Caller participation: the submitting thread is rank 0 and runs
        // its share while the woken workers run theirs.
        let inline = catch_unwind(AssertUnwindSafe(|| job(0)));
        self.complete(inline);
    }

    /// Publishes `job` to ranks `1..width` (the submitting thread is rank
    /// 0 and is not woken).  Requires the submit mutex to be held and no
    /// job outstanding.
    ///
    /// Why nobody sees a half-published job:
    ///
    /// * *A concurrent submitter* is blocked on the submit mutex, which
    ///   this submitter releases only after [`WorkerPool::complete`] has
    ///   seen `remaining == 0` — after every participant of this job has
    ///   finished with the job cell.  The next submitter's writes below
    ///   therefore never overlap a read of this job.
    /// * *A participating rank* (`1..width`) reads the job cell only after
    ///   an `Acquire` load returns this epoch, and the `Release` store of
    ///   the epoch comes after every write here (`remaining`, `panicked`,
    ///   the job cell), so it sees them all.  It is counted in
    ///   `remaining`, so the cell cannot be rewritten before it is done.
    /// * *A bystander rank* (`width..workers`) — still looping after its
    ///   last job, or woken spuriously or by a stale unpark token — reads
    ///   the width from the same word as the epoch, so it sees its own rank outside the job and re-parks
    ///   without touching the cell or `remaining`.  Were the width a
    ///   separate atomic, a bystander stalled between the two loads could
    ///   read this epoch with the *next* job's width, run that job early
    ///   while its cell is being written, and run it again at the next
    ///   epoch — a double count in `remaining`.
    /// * With `width == 1` nothing is stored in the cell or the epoch, so
    ///   no worker wakes at all.
    fn publish(&self, width: usize, job: Job) {
        assert!(
            !self.inner.shutdown.load(Ordering::Acquire),
            "worker pool already shut down"
        );
        debug_assert_eq!(self.inner.remaining.load(Ordering::Acquire), 0);
        *self
            .inner
            .submitter
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(std::thread::current());
        self.inner.panicked.store(0, Ordering::Relaxed);
        self.inner.remaining.store(width - 1, Ordering::Relaxed);
        if width == 1 {
            // Rank 0 only: nothing to publish, nobody to wake.
            return;
        }
        // SAFETY: no worker is running (`remaining` was 0 and only this
        // thread, holding the submit mutex, starts jobs), so writing the
        // job cell cannot race a read; the epoch store below publishes it
        // (and the stores above) to every worker that observes it.
        unsafe { *self.inner.job.0.get() = Some(job) };
        // Only submitters (serialised by the mutex) store the epoch, so a
        // plain load-then-store is the increment.
        let sequence = (self.inner.epoch.load(Ordering::Relaxed) >> WIDTH_BITS).wrapping_add(1);
        self.inner
            .epoch
            .store((sequence << WIDTH_BITS) | width as u64, Ordering::Release);
        for t in &self.threads[..width - 1] {
            t.unpark();
        }
    }

    /// Blocks until every participating worker has finished the current
    /// job, then re-raises panics (rank 0's own outcome is `inline`).
    ///
    /// The `Acquire` load that reads `remaining == 0` synchronises with
    /// every participant's `AcqRel` decrement, each of which comes after
    /// that participant's last use of the job borrow and its panic
    /// bookkeeping: from here on no worker touches the job, so the caller
    /// may free the closure and release the submit mutex to the next
    /// submitter.  A late unpark from a finisher that has already
    /// decremented is harmless: `park` may return spuriously anyway and
    /// every wait re-checks its condition.
    fn complete(&self, inline: std::thread::Result<()>) {
        while self.inner.remaining.load(Ordering::Acquire) > 0 {
            std::thread::park();
        }
        let worker_panics = self.inner.panicked.load(Ordering::Relaxed);
        let stored = self
            .inner
            .panic_payload
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        self.jobs.fetch_add(1, Ordering::Relaxed);
        // Re-raise with the original payload so the panic message and
        // location of the failing closure survive (rank 0's own panic
        // first, then the first worker payload).
        if let Err(payload) = inline {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = stored {
            std::panic::resume_unwind(payload);
        }
        assert!(
            worker_panics == 0,
            "{worker_panics} worker(s) panicked in an SPMD pool job"
        );
    }

    /// Starts `job` on ranks `1..min(width, workers)` **without blocking**
    /// and returns a [`JobTicket`] that completes the job.  This is the
    /// split-phase submission path: the caller posts the job, runs
    /// unrelated local work while the woken workers stream through it, and
    /// calls [`JobTicket::wait`] when it needs the results — rank 0's share
    /// of the job runs at the wait (work-steal help), so `job` must be
    /// written claim-based: every rank drains a shared item queue rather
    /// than owning a fixed slice.
    ///
    /// The ticket holds the pool's submission turn until it is waited or
    /// dropped, so the submitting thread **must not** submit or run another
    /// job on the same pool while a ticket is outstanding (that would
    /// deadlock, exactly like joining a thread from itself).  Dropping the
    /// ticket without calling `wait` completes the job too (including rank
    /// 0's share).
    pub fn submit(&self, width: usize, job: Arc<dyn Fn(usize) + Send + Sync>) -> JobTicket<'_> {
        let width = width.clamp(1, self.workers);
        let span = crate::span!(crate::trace::Phase::PoolDispatch, "submit w{width}");
        let turn = self.submit.lock().unwrap_or_else(PoisonError::into_inner);
        // SAFETY: the erased borrow points into the `Arc`'s heap
        // allocation, which the returned ticket keeps alive; the ticket's
        // wait/drop blocks until every participating worker has
        // decremented `remaining`, so no worker dereferences the borrow
        // after the allocation could be freed.  Leaking the ticket leaks
        // the `Arc` (and the submission turn), which keeps the borrow
        // valid forever — a deadlocked pool, but no dangling reference.
        let erased: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(&*job)
        };
        self.publish(width, erased);
        span.end(); // the publish/wake only; the job itself runs detached
        JobTicket {
            pool: self,
            _turn: turn,
            job: Some(job),
        }
    }
}

/// A handle to a job started with [`WorkerPool::submit`] but not yet
/// completed.  Holds the pool's submission turn (so it is `!Send`: the
/// waiter is always the submitter) and the job closure's owning `Arc` (so
/// the borrow published to the workers outlives every use even if the
/// ticket is leaked).
#[must_use = "a submitted job completes when the ticket is waited or dropped"]
pub struct JobTicket<'a> {
    pool: &'a WorkerPool,
    _turn: std::sync::MutexGuard<'a, ()>,
    job: Option<Arc<dyn Fn(usize) + Send + Sync>>,
}

impl JobTicket<'_> {
    /// Runs rank 0's share of the job (work-steal help), blocks until
    /// every participating worker has finished, and re-raises any panic
    /// the job closures produced — the split-phase counterpart of the
    /// blocking return from [`WorkerPool::run`].
    pub fn wait(mut self) {
        self.finish();
    }

    /// Completes the job exactly once (`wait`, then `drop`, both land
    /// here; `job` is taken by the first).  The ticket still holds the
    /// submit mutex, so no other submitter can publish between the post
    /// and this completion; the job's `Arc` is dropped only after
    /// `remaining == 0`, when no worker can dereference the borrow that
    /// [`WorkerPool::submit`] published.
    fn finish(&mut self) {
        let Some(job) = self.job.take() else {
            return;
        };
        let inline = catch_unwind(AssertUnwindSafe(|| job(0)));
        if std::thread::panicking() {
            // Dropped during an unwind: still complete the job so the
            // workers never outlive the shared state, but swallow the
            // outcome — a second panic would abort.
            while self.pool.inner.remaining.load(Ordering::Acquire) > 0 {
                std::thread::park();
            }
            self.pool
                .inner
                .panic_payload
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            self.pool.jobs.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.pool.complete(inline);
    }
}

impl Drop for JobTicket<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        for t in &self.threads {
            t.unpark();
        }
        let handles =
            std::mem::take(&mut *self.handles.lock().unwrap_or_else(PoisonError::into_inner));
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner, rank: usize) {
    // One trace lane per pool rank (the submitting caller is rank 0 and
    // traces on lane 0), so a Chrome trace shows the pool's real shape.
    crate::trace::set_thread_lane(rank as u32);
    let mut seen = 0u64;
    loop {
        // Park until a new epoch is published (or shutdown).  `park` may
        // return spuriously or on a stale token; the loop re-checks.
        let epoch = loop {
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            let e = inner.epoch.load(Ordering::Acquire);
            if e != seen {
                break e;
            }
            std::thread::park();
        };
        seen = epoch;
        // The width is the low bits of the epoch word this worker just
        // loaded, so it is this job's width however long ago the load
        // was.  Ranks outside the job re-park without touching
        // `remaining` — a spuriously woken bystander must not run the job
        // (or underflow the completion count) of a narrower dispatch.
        let width = (epoch & ((1 << WIDTH_BITS) - 1)) as usize;
        if rank >= width {
            continue;
        }
        // SAFETY: the `Acquire` epoch read above synchronises with the
        // submitter's `Release` bump, which happens-after the job cell
        // write; the cell is not rewritten until this worker (and all
        // others) decrement `remaining` below.
        let job = unsafe { (*inner.job.0.get()).expect("epoch bump publishes a job") };
        // A panicking job must not kill the worker: keep the first payload
        // for the submitting thread to re-raise with the original message.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(rank))) {
            inner.panicked.fetch_add(1, Ordering::Relaxed);
            let mut slot = inner
                .panic_payload
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        if inner.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last finisher wakes the submitter.
            if let Some(submitter) = inner
                .submitter
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .as_ref()
            {
                submitter.unpark();
            }
        }
    }
}

/// The process-wide shared worker pool, sized to the host's available
/// parallelism and created on first use.  Scopes and applications all
/// submit to this one pool, so iterative codes (ADI sweeps, smoothing
/// steps, PIC steps, mesh sweeps) reuse the same parked workers across
/// every execute instead of re-paying thread spawns.
pub fn global() -> Arc<WorkerPool> {
    static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    Arc::clone(GLOBAL.get_or_init(|| {
        Arc::new(WorkerPool::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        ))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CommTracker, CostModel};

    /// `num_items` items dealt round-robin over ranks `0..min(workers,
    /// items)` of one `run_limited` job, results in item order — the shape
    /// the threaded executor fans destinations out in.
    fn deal<R: Send>(
        pool: &WorkerPool,
        num_items: usize,
        work: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        let width = pool.workers().min(num_items);
        let slots: Vec<Mutex<Option<R>>> = (0..num_items).map(|_| Mutex::new(None)).collect();
        if width > 0 {
            pool.run_limited(width, &|rank| {
                for item in (rank..num_items).step_by(width) {
                    *slots[item].lock().unwrap() = Some(work(item));
                }
            });
        }
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("every item ran"))
            .collect()
    }

    fn message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn run_limited_deals_items_in_order() {
        let pool = WorkerPool::new(3);
        let results = deal(&pool, 10, |item| item * item);
        assert_eq!(results, (0..10).map(|i| i * i).collect::<Vec<_>>());
        // Degenerate shapes: no items, and more workers than items.
        let empty: Vec<usize> = deal(&pool, 0, |item| item);
        assert!(empty.is_empty());
        assert_eq!(deal(&pool, 2, |item| item + 1), vec![1, 2]);
        assert_eq!(pool.workers(), 3);
        // Two jobs dispatched (the zero-item deal dispatches nothing).
        assert_eq!(pool.jobs_dispatched(), 2);
    }

    #[test]
    fn repeated_jobs_reuse_the_same_workers() {
        let pool = WorkerPool::new(2);
        for round in 0..50usize {
            let out = deal(&pool, 4, |item| item + round);
            assert_eq!(out, vec![round, round + 1, round + 2, round + 3]);
        }
        assert_eq!(pool.jobs_dispatched(), 50);
    }

    #[test]
    fn compute_charges_reach_the_submitters_tracker() {
        let mut cost = CostModel::zero();
        cost.compute_per_flop = 1.0;
        let tracker = CommTracker::new(2, cost);
        let pool = WorkerPool::new(2);
        pool.run_limited(2, &|rank| tracker.compute(rank, 10));
        assert_eq!(tracker.snapshot().total_compute_time(), 20.0);
    }

    #[test]
    fn worker_panic_propagates_and_pool_stays_usable() {
        let pool = WorkerPool::new(2);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            pool.run_limited(2, &|rank| assert!(rank != 1, "injected failure"));
        }));
        // The original payload is re-raised, message intact.
        let payload = boom.expect_err("the worker panic reaches the submitter");
        let message = message(&*payload);
        assert!(
            message.contains("injected failure"),
            "panic payload lost: {message:?}"
        );
        // The pool survived the panic and runs the next job normally.
        assert_eq!(deal(&pool, 3, |item| item * 2), vec![0, 2, 4]);
    }

    /// The stress test of the epoch handoff's `unsafe` (see
    /// [`WorkerPool::publish`]): four submitters share one 3-wide pool,
    /// each round mixing a blocking `run_limited` with a `submit` ticket
    /// (waited or dropped) at widths 1–3, and every 16th job panicking on
    /// one rank.  Each job adds its own tag once per participating rank,
    /// so a rank that ran twice, ran a neighbour's job, or ran outside its
    /// width shows as a wrong sum.  Seven threads in all; the assertions
    /// hold under any schedule, so one or two cores run it the same way.
    #[test]
    fn concurrent_submitters_run_each_job_on_exactly_its_ranks() {
        const SUBMITTERS: u64 = 4;
        const ROUNDS: u64 = 200;
        let pool = WorkerPool::new(3);
        std::thread::scope(|scope| {
            for submitter in 0..SUBMITTERS {
                let pool = &pool;
                scope.spawn(move || {
                    for job in 0..2 * ROUNDS {
                        let tag = (submitter << 32) | (job + 1);
                        let width = 1 + ((submitter + job) % 3) as usize;
                        // Every 16th job dies, offset per submitter so that
                        // each kind of job below has a dying instance.
                        let dies =
                            ((job + submitter) % 16 == 15).then_some((job / 16) as usize % width);
                        let ran: Arc<[AtomicU64; 3]> = Arc::default();
                        let body = {
                            let ran = Arc::clone(&ran);
                            move |rank: usize| {
                                ran[rank].fetch_add(tag, Ordering::Relaxed);
                                if dies == Some(rank) {
                                    // `resume_unwind` skips the panic hook:
                                    // a silent panic, caught like any other.
                                    std::panic::resume_unwind(Box::new(format!("job {tag:#x}")));
                                }
                            }
                        };
                        let outcome = catch_unwind(AssertUnwindSafe(|| match job % 4 {
                            0 | 2 => pool.run_limited(width, &body),
                            1 => pool.submit(width, Arc::new(body)).wait(),
                            _ => drop(pool.submit(width, Arc::new(body))),
                        }));
                        match (dies, outcome) {
                            (None, Ok(())) => {}
                            (Some(_), Err(payload)) => {
                                assert_eq!(message(&*payload), format!("job {tag:#x}"))
                            }
                            (dies, outcome) => {
                                panic!("job {tag:#x}: dies {dies:?}, ok {:?}", outcome.is_ok())
                            }
                        }
                        for (rank, cell) in ran.iter().enumerate() {
                            let expected = if rank < width { tag } else { 0 };
                            assert_eq!(
                                cell.load(Ordering::Relaxed),
                                expected,
                                "job {tag:#x} rank {rank}"
                            );
                        }
                    }
                });
            }
        });
        assert_eq!(pool.jobs_dispatched(), SUBMITTERS * 2 * ROUNDS);
    }

    #[test]
    fn run_limited_keeps_bystander_ranks_out_of_the_job() {
        let pool = WorkerPool::new(4);
        for round in 0..20usize {
            let width = 1 + round % 4;
            let ran: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
            pool.run_limited(width, &|rank| {
                ran[rank].fetch_add(1, Ordering::Relaxed);
            });
            for (rank, cell) in ran.iter().enumerate() {
                let expected = u64::from(rank < width);
                assert_eq!(cell.load(Ordering::Relaxed), expected, "rank {rank}");
            }
        }
    }

    #[test]
    fn partitioned_width_is_bounded_by_items() {
        let pool = WorkerPool::new(4);
        // Two items on a four-wide pool wake ranks 0 and 1 only, and a
        // width beyond the pool is clamped to it.
        for (width, expected) in [(2, [1, 1, 0, 0]), (9, [1, 1, 1, 1])] {
            let ran: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
            pool.run_limited(width, &|rank| {
                ran[rank].fetch_add(1, Ordering::Relaxed);
            });
            let ran: Vec<u64> = ran.iter().map(|r| r.load(Ordering::Relaxed)).collect();
            assert_eq!(ran, expected, "width {width}");
        }
        assert_eq!(deal(&pool, 2, |item| item * 10), vec![0, 10]);
    }

    #[test]
    fn submitted_job_completes_at_wait_and_pool_stays_reusable() {
        let pool = WorkerPool::new(3);
        for _ in 0..10 {
            let items: Arc<Vec<AtomicU64>> = Arc::new((0..17).map(|_| AtomicU64::new(0)).collect());
            let claim = Arc::new(AtomicUsize::new(0));
            let job = {
                let items = Arc::clone(&items);
                let claim = Arc::clone(&claim);
                move |_rank: usize| loop {
                    let i = claim.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = items.get(i) else { break };
                    cell.fetch_add(1, Ordering::Relaxed);
                }
            };
            let ticket = pool.submit(3, Arc::new(job));
            // The submitter is free to do unrelated work here.
            ticket.wait();
            for cell in items.iter() {
                assert_eq!(cell.load(Ordering::Relaxed), 1);
            }
        }
        // The pool still runs blocking jobs after ticketed ones.
        assert_eq!(deal(&pool, 3, |item| item), vec![0, 1, 2]);
    }

    #[test]
    fn dropped_ticket_still_completes_the_job() {
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicU64::new(0));
        let job = {
            let done = Arc::clone(&done);
            move |_rank: usize| {
                done.fetch_add(1, Ordering::Relaxed);
            }
        };
        drop(pool.submit(2, Arc::new(job)));
        // Both ranks ran exactly once (rank 0 in the drop).
        assert_eq!(done.load(Ordering::Relaxed), 2);
        assert_eq!(pool.jobs_dispatched(), 1);
    }

    #[test]
    fn submitted_job_panic_reaches_the_waiter() {
        let pool = WorkerPool::new(2);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            let ticket = pool.submit(1, Arc::new(|_rank: usize| panic!("split failure")));
            ticket.wait();
        }));
        let payload = boom.expect_err("the job panic reaches the waiter");
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default();
        assert!(message.contains("split failure"), "lost: {message:?}");
        // The pool survives for the next submission.
        let done = Arc::new(AtomicU64::new(0));
        let done2 = Arc::clone(&done);
        pool.submit(
            2,
            Arc::new(move |_| {
                done2.fetch_add(1, Ordering::Relaxed);
            }),
        )
        .wait();
        assert_eq!(done.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.workers() >= 1);
    }
}
