//! Distributed-memory execution: rank-local shards over real SPMD channels.
//!
//! Every other executor in this crate is a *shared-memory simulation*: all
//! per-processor segments live in one `DistArray` and "communication" is a
//! memcpy through process memory, with traffic charged to the
//! [`CommTracker`]'s cost model.  This module is the distributed-memory
//! backend the model describes: each rank of an [`vf_machine::spmd`]
//! region sees **only its own segment** of every distributed array, and
//! whatever crosses ranks crosses a real channel as one framed message per
//! processor pair.
//!
//! The backend is a *transport*, not a function family:
//! [`ShardedExecutor`] overrides the two methods of
//! [`PlanExecutor`] that move data, so every verb handed a sharded
//! executor (or [`crate::ExecBackend::Sharded`]) — `redistribute`,
//! `exchange_ghosts`, `execute_gather`, `assign`, the class verbs,
//! `CheckpointStore::restore_into` — moves its crossing elements over
//! channels, from every call site.
//!
//! # The data path
//!
//! A statement (`DISTRIBUTE`, halo exchange, gather) is one SPMD region.
//! Each element that crosses ranks is touched three times:
//!
//! 1. **pack → frame** — the sender walks the plan's run list over its
//!    borrowed segment (`RankShards`: no scatter, no clone) and writes
//!    the little-endian bytes straight into one frame
//!    `[24-byte WireFrameMsg | payload]`, folding the xor checksum into
//!    the same pass;
//! 2. **move** — the frame `Vec<u8>` is handed to
//!    [`ProcCtx::send_wire`] and arrives at the peer's
//!    [`ProcCtx::recv_wire`] as the same allocation;
//! 3. **verify, then decode in place** — the receiver checks the frame's
//!    length, element count and checksum over the raw bytes **before any
//!    element reaches a destination buffer**, then decodes run by run
//!    straight into the destination.
//!
//! *Who owns a frame when:* the sending rank takes it from the
//! exchange's `FramePool` (or allocates it), owns it while packing, and
//! gives it up at `send_wire`; the channel owns it in flight; the
//! receiving rank owns it from `recv_wire` until the decode is done and
//! then returns it to the pool, where the next statement's senders find
//! it.  Elements that stay on their rank are copied segment → destination
//! directly and never meet a frame.
//!
//! Two invariants tie the backend to the rest of the engine:
//!
//! * **Bitwise oracle** — the destination buffers are bit-identical to
//!   what the shared-memory executors compute for the same plan.  The
//!   sharded path reuses the exact pack/unpack run lists of
//!   [`FusedPlan`], so this holds by construction and is pinned by
//!   differential tests.
//! * **Model ≡ wire** — the modelled message/byte charges are issued in
//!   the same order and with the same values as the shared wire path
//!   (`charge_directory` → `post_many` → settle with copy credit), while
//!   the *real* channel traffic is counted separately in
//!   [`vf_machine::CommStats::channel_messages`] /
//!   [`vf_machine::CommStats::channel_bytes`].  For a wire-fused exchange
//!   the two byte counts are equal: what the model says crosses the
//!   network is exactly what crossed the channels.
//!
//! Failure degrades instead of aborting: a dead peer, a receive timeout or
//! a truncated payload surfaces as [`RuntimeError::Channel`] /
//! [`RuntimeError::CorruptMessage`] from the exchange, after the posted
//! model charges are settled.  The source arrays are only ever borrowed,
//! so a failed statement leaves them exactly as they were.
//!
//! [`ShardedArray`] remains for application loops that keep shards
//! rank-*resident* across many steps of one region (`take` on entry,
//! `put` on exit); statements do not use it.

use crate::element::{pack_le_xor, unpack_le, xor_packed_le};
use crate::exec::{
    assemble, copy_runs, copy_seconds, finish_checksum, finish_with_copy_credit, lock, post_fused,
    wire_copy_seconds, ExecReport, FusedPlan, PlanExecutor, RetiredLocals, SerialExecutor,
};
use crate::plan::{CommPlan, PlanKind, Transfer};
use crate::{DistArray, Element, Result, RuntimeError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use vf_dist::{Distribution, ProcId};
use vf_machine::spmd::{self, ProcCtx, WIRE_FRAME_BYTES, WIRE_TAG};
use vf_machine::{trace, CommTracker, WireFrameMsg, WorkerPool};

/// A distributed array scattered into rank-private, rank-*resident*
/// shards, for application loops that run many steps inside one SPMD
/// region (statements borrow through `RankShards` instead and never
/// scatter).
///
/// Each shard is owned by exactly one rank for the duration of the
/// region: the rank [`take`](ShardedArray::take)s it on entry and
/// [`put`](ShardedArray::put)s it back before returning, so no rank can
/// read another rank's segment through shared memory — any cross-rank
/// element flow must go over a channel.  The `Mutex<Option<..>>` per shard
/// is the enforcement mechanism, not a synchronisation point: a well-formed
/// region locks each slot exactly twice, uncontended.
#[derive(Debug)]
pub struct ShardedArray<T> {
    name: String,
    dist: Distribution,
    shards: Vec<Mutex<Option<Vec<T>>>>,
}

impl<T: Element> ShardedArray<T> {
    /// Scatters `array` into per-rank shards (one per modelled processor,
    /// cloned from the canonical local segments).
    pub fn scatter(array: &DistArray<T>) -> Self {
        Self {
            name: array.name().to_string(),
            dist: array.dist().clone(),
            shards: array
                .locals()
                .iter()
                .map(|l| Mutex::new(Some(l.clone())))
                .collect(),
        }
    }

    /// The array name the shards were scattered from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The distribution the shards follow.
    pub fn dist(&self) -> &Distribution {
        &self.dist
    }

    /// Takes rank `rank`'s shard out of the array.  Panics if the shard
    /// was already taken — each rank owns exactly its own shard.
    pub fn take(&self, rank: usize) -> Vec<T> {
        lock(&self.shards[rank])
            .take()
            .expect("shard already taken: each rank must take only its own shard, once")
    }

    /// Returns rank `rank`'s shard after the region's work on it is done.
    pub fn put(&self, rank: usize, shard: Vec<T>) {
        *lock(&self.shards[rank]) = Some(shard);
    }

    /// Gathers every shard back into `(distribution, per-rank locals)` —
    /// the verification step that lets callers compare a sharded run
    /// against the shared-memory oracle bit for bit.  Panics if any shard
    /// is still taken.
    pub fn gather(self) -> (Distribution, Vec<Vec<T>>) {
        let locals = self
            .shards
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("shard still taken: the SPMD region must put every shard back")
            })
            .collect();
        (self.dist, locals)
    }

    /// Gathers the shards into `array` (which must model the same number
    /// of processors), making it the canonical global view again.
    pub fn gather_into(self, array: &mut DistArray<T>) {
        let (dist, locals) = self.gather();
        array.replace(dist, locals);
        array.broadcast_canonical();
    }
}

/// The live arrays of one statement as an SPMD region sees them: borrowed,
/// not scattered, and private per rank by construction.  The only accessor,
/// [`RankShards::mine`], takes the calling rank's own [`ProcCtx`] and hands
/// out that rank's segments — there is no way to name another rank's
/// segment, so every cross-rank element must travel in a frame.
pub(crate) struct RankShards<'a, T> {
    /// Per array, its per-processor local segments.
    locals: Vec<&'a [Vec<T>]>,
}

impl<'a, T: Element> RankShards<'a, T> {
    /// Wraps the per-processor local segments of a statement's arrays
    /// (what a verb hands its executor), in order.
    pub(crate) fn of(locals: &[&'a [Vec<T>]]) -> Self {
        Self {
            locals: locals.to_vec(),
        }
    }

    /// The calling rank's own segment of every array.  Panics when the
    /// rank has no segment — a region wider than the arrays it works on.
    pub(crate) fn mine(&self, ctx: &ProcCtx) -> Vec<&'a [T]> {
        let r = ctx.rank();
        self.locals
            .iter()
            .map(|segments| {
                assert!(
                    r < segments.len(),
                    "rank {r} has no segment: the arrays model {} processors",
                    segments.len()
                );
                segments[r].as_slice()
            })
            .collect()
    }
}

/// Spare wire frames kept between exchanges, so a statement's senders
/// pack into the allocations the previous statement's receivers finished
/// with instead of faulting in fresh pages for every MB-sized message.
///
/// Frames come back with their old contents and length; the packer
/// resizes and overwrites every byte.  The pool never holds more frames
/// than were in flight at once, and a frame only ever grows to the
/// largest message it carried.
#[derive(Debug, Default)]
struct FramePool(Mutex<Vec<Vec<u8>>>);

impl FramePool {
    /// A spare frame for a message of `len` bytes: the smallest one whose
    /// capacity suffices, else the largest (the packer's resize grows it
    /// in place of a second allocation), else a new empty one.
    fn take(&self, len: usize) -> Vec<u8> {
        let mut spare = lock(&self.0);
        let fit = spare
            .iter()
            .enumerate()
            .filter(|(_, f)| f.capacity() >= len)
            .min_by_key(|(_, f)| f.capacity())
            .or_else(|| spare.iter().enumerate().max_by_key(|(_, f)| f.capacity()))
            .map(|(i, _)| i);
        fit.map(|i| spare.swap_remove(i)).unwrap_or_default()
    }

    /// Returns a frame the receiver has finished decoding.
    fn give(&self, frame: Vec<u8>) {
        lock(&self.0).push(frame);
    }
}

/// The distributed-memory backend handle: where its SPMD regions run and
/// how long a rank waits on a channel before declaring a peer lost.
///
/// As a [`PlanExecutor`] it is the channel transport: both
/// [`PlanExecutor::execute`] (one plan, wearing the fused wire layout as a
/// fusion of one) and [`PlanExecutor::execute_fused`] (a class) run one
/// SPMD region in which every crossing pair travels as a frame, with the
/// model charged exactly as the shared-memory engines charge it.  Two
/// things have no wire representation and run as on [`SerialExecutor`]:
/// the element-wise modelling ablation ([`crate::RedistOptions::element_wise`]
/// — it prices one message per element, which no transport sends) and
/// scatter updates ([`PlanExecutor::run_updates`], applied in place).
#[derive(Debug, Clone)]
pub struct ShardedExecutor {
    pool: Option<Arc<WorkerPool>>,
    timeout: Duration,
    /// Spare wire frames, recycled from statement to statement (shared by
    /// clones of the executor).
    frames: Arc<FramePool>,
}

impl ShardedExecutor {
    /// Default bound on how long a rank blocks in a channel receive before
    /// reporting [`vf_machine::SpmdError::RecvTimeout`].
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

    /// A poolless executor (each exchange spawns its region's rank
    /// threads fresh).  The receive bound can be overridden through the
    /// `VF_SHARD_TIMEOUT` environment variable (milliseconds; positive):
    /// chaos suites shrink it so dead-peer detection is fast, and slow CI
    /// hosts can widen it.  Unparseable or zero values are rejected
    /// loudly, mirroring `VF_EXEC_CUTOFF`.
    pub fn new() -> Self {
        let mut timeout = Self::DEFAULT_TIMEOUT;
        if let Ok(raw) = std::env::var("VF_SHARD_TIMEOUT") {
            match raw.trim().parse::<u64>() {
                Ok(ms) if ms > 0 => timeout = Duration::from_millis(ms),
                _ => eprintln!(
                    "warning: ignoring unparseable VF_SHARD_TIMEOUT={raw:?} \
                     (expected positive milliseconds, e.g. 30000)"
                ),
            }
        }
        Self {
            pool: None,
            timeout,
            frames: Arc::default(),
        }
    }

    /// An executor whose SPMD regions run on `pool`'s persistent workers
    /// (falling back to fresh threads when the pool is narrower than the
    /// region — see [`spmd::run_on_pool`]).
    pub fn with_pool(pool: Arc<WorkerPool>) -> Self {
        Self {
            pool: Some(pool),
            ..Self::new()
        }
    }

    /// Overrides the channel receive bound.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The channel receive bound.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// The worker pool hosting SPMD regions, if any.
    pub fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// Runs `body` as an SPMD region of `num_procs` ranks — on the
    /// persistent pool when one is attached, on fresh threads otherwise.
    /// Application workloads use this to keep shards rank-resident across
    /// many time steps (one region for the whole run).
    ///
    /// If the tracker carries a [`vf_machine::FaultInjector`] whose plan
    /// enables [`vf_machine::FaultKind::RankDeath`], the injector is polled
    /// *here*, on the caller thread (honouring the injector's
    /// caller-thread-only determinism contract), and an armed death is
    /// carried into the region as data: after its operation fuse burns
    /// down, the victim rank's channel endpoints drop mid-region and the
    /// survivors surface structured errors instead of hanging.
    pub fn run_region<R, F>(&self, num_procs: usize, tracker: &CommTracker, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut ProcCtx) -> R + Sync,
    {
        let death = tracker
            .fault_injector()
            .and_then(|inj| inj.rank_death(num_procs));
        if death.is_some() {
            tracker.record_fault();
        }
        match &self.pool {
            Some(pool) => spmd::run_on_pool_with_death(pool, num_procs, tracker, death, body),
            None => spmd::run_with_death(num_procs, tracker, death, body),
        }
    }
}

impl Default for ShardedExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanExecutor for ShardedExecutor {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn run_copies<T: Element>(
        &self,
        transfers: &[Transfer],
        src: &[Vec<T>],
        dst_sizes: &[usize],
        tracker: &CommTracker,
    ) -> Vec<Vec<T>> {
        SerialExecutor.run_copies(transfers, src, dst_sizes, tracker)
    }

    fn execute<T: Element>(
        &self,
        plan: &Arc<CommPlan>,
        src: &[Vec<T>],
        dst_sizes: &[usize],
        tracker: &CommTracker,
        aggregate: bool,
    ) -> Result<(Vec<Vec<T>>, ExecReport)> {
        if !aggregate {
            return SerialExecutor.execute(plan, src, dst_sizes, tracker, aggregate);
        }
        // Any single plan wears the fused wire layout: one transfer per
        // pair means one slice per message.  The copy credit is the
        // array verb's (the destination's unpack only), so the model is
        // charged exactly as the direct-copy engine charges it.
        let fused = FusedPlan::fuse_one(Arc::clone(plan));
        let copy_secs = copy_seconds(plan.transfers(), T::BYTES, tracker);
        let (mut bufs, report) =
            sharded_fused_exchange(&fused, tracker, self, &[src], &[dst_sizes], &copy_secs)?;
        Ok((bufs.pop().unwrap_or_default(), report))
    }

    fn execute_fused<T: Element>(
        &self,
        fused: &FusedPlan,
        srcs: &[&[Vec<T>]],
        dst_sizes: &[Vec<usize>],
        spares: RetiredLocals<T>,
        tracker: &CommTracker,
    ) -> Result<(Vec<Vec<Vec<T>>>, ExecReport)> {
        // Each rank allocates its own segment: the spares are freed
        // before any of them does.
        drop(spares);
        let dst_sizes: Vec<&[usize]> = dst_sizes.iter().map(Vec::as_slice).collect();
        let copy_secs = wire_copy_seconds(fused, T::BYTES, tracker);
        sharded_fused_exchange(fused, tracker, self, srcs, &dst_sizes, &copy_secs)
    }

    fn recycles_locals(&self) -> bool {
        false
    }
}

/// Sender half: packs crossing pair `pi` of `fused` out of the sending
/// rank's segments `my` into `frame` — header and little-endian payload in
/// the fused wire layout — accumulating the checksum in the same pass over
/// the runs.  `frame` may arrive with stale contents; it leaves holding
/// exactly this message.
fn pack_frame<T: Element>(
    fused: &FusedPlan,
    pi: usize,
    my: &[&[T]],
    seq: u64,
    frame: &mut Vec<u8>,
) {
    let (_, total) = fused.pair_elements[pi];
    frame.resize(WIRE_FRAME_BYTES + total * T::BYTES, 0);
    let (header, payload) = frame.split_at_mut(WIRE_FRAME_BYTES);
    let mut acc = 0u64;
    for (sl, t) in fused.pair_parts(pi) {
        let mut off = sl.wire_offset;
        for run in &t.runs {
            acc ^= pack_le_xor(
                &my[sl.part][run.src_start..run.src_start + run.len],
                &mut payload[off * T::BYTES..(off + run.len) * T::BYTES],
            );
            off += run.len;
        }
        debug_assert_eq!(off, sl.wire_offset + sl.elements, "slice fills its window");
    }
    header.copy_from_slice(
        &WireFrameMsg {
            seq,
            elements: total as u64,
            checksum: finish_checksum(acc, total),
        }
        .to_bytes(),
    );
}

/// Receiver half: validates the frame that arrived for crossing pair `pi`
/// — byte length, element count and checksum, all over the raw bytes —
/// and only then decodes its payload run by run into the destination
/// buffers `bufs`.  A frame that fails validation leaves `bufs` untouched.
///
/// Unlike the shared wire path — which skips receiver-side checksums
/// unless a fault injector is armed, because its "wire" never leaves
/// process memory — the sharded receiver *always* validates: the payload
/// crossed a serialisation boundary.
fn unpack_frame<T: Element>(
    fused: &FusedPlan,
    pi: usize,
    header: &WireFrameMsg,
    frame: &[u8],
    bufs: &mut [Vec<T>],
) -> Result<()> {
    let ((s, d), total) = fused.pair_elements[pi];
    let payload = frame.get(WIRE_FRAME_BYTES..).unwrap_or_default();
    if payload.len() != total * T::BYTES
        || header.elements != total as u64
        || finish_checksum(xor_packed_le::<T>(payload), total) != header.checksum
    {
        return Err(RuntimeError::CorruptMessage {
            src: s,
            dst: d,
            seq: header.seq,
        });
    }
    for (sl, t) in fused.pair_parts(pi) {
        let mut off = sl.wire_offset;
        for run in &t.runs {
            unpack_le(
                &payload[off * T::BYTES..(off + run.len) * T::BYTES],
                &mut bufs[sl.part][run.dst_start..run.dst_start + run.len],
            );
            off += run.len;
        }
    }
    Ok(())
}

/// One rank's half of a fused wire exchange, run *inside* an SPMD region.
///
/// `my` is the rank's own segment of each fused part.  The rank first
/// serves its local (stay-at-home) runs, then packs one frame per outgoing
/// crossing pair ([`pack_frame`]) and moves it into the channel, then
/// receives, validates and decodes every arriving pair ([`unpack_frame`]),
/// handing each finished frame to `frames` for the next sender.
/// Send-before-receive is deadlock-free because the channels are
/// unbounded; the per-tag FIFO pending queue keeps out-of-order arrivals
/// cheap.
fn rank_exchange<T: Element>(
    fused: &FusedPlan,
    ctx: &mut ProcCtx,
    my: &[&[T]],
    dst_len: &(dyn Fn(usize, usize) -> usize + Sync),
    seq_base: u64,
    timeout: Duration,
    frames: &FramePool,
) -> Result<Vec<Vec<T>>> {
    let r = ctx.rank();
    let mut bufs: Vec<Vec<T>> = (0..fused.parts().len())
        .map(|idx| vec![T::default(); dst_len(idx, r)])
        .collect();
    // Elements that stay on `r` never touch a frame.
    for (idx, buf) in bufs.iter_mut().enumerate() {
        if let Some(t) = fused.local_transfer(idx, r) {
            copy_runs(t, my[idx], buf);
        }
    }
    // Outgoing pairs.  `pair_elements` only holds crossing pairs with
    // traffic, so `d != r` and `total > 0` hold structurally.
    for (pi, &((s, d), total)) in fused.pair_elements.iter().enumerate() {
        if s != r {
            continue;
        }
        let pack = trace::OpenSpan::begin_with(trace::Phase::WirePack, || {
            format!("p{r} -> p{d}: {total} elements")
        });
        let mut frame = frames.take(WIRE_FRAME_BYTES + total * T::BYTES);
        pack_frame(fused, pi, my, seq_base + pi as u64, &mut frame);
        pack.end();
        ctx.send_wire(d, WIRE_TAG, frame)?;
    }
    // Arriving pairs, in the same per-destination order the shared wire
    // path unpacks them.  The channel's per-tag queue matches by sender,
    // so arrival order across senders doesn't matter.
    let arriving = fused.pairs_by_dst.get(r).map_or(&[][..], |v| v.as_slice());
    for &pi in arriving {
        let ((s, _), _) = fused.pair_elements[pi];
        let (_, header, frame) = ctx.recv_wire(Some(s), WIRE_TAG, timeout)?;
        let unpack = trace::OpenSpan::begin_dest(trace::Phase::Unpack, r);
        let decoded = unpack_frame(fused, pi, &header, &frame, &mut bufs);
        unpack.end();
        frames.give(frame);
        decoded?;
    }
    Ok(bufs)
}

/// The channel engine behind [`ShardedExecutor`]'s `execute*`: charges the
/// model exactly as the shared-memory engines do (directory →
/// single-message-per-pair post → settle with the copy credit in
/// `copy_secs`), but moves the data through an SPMD region in which each
/// rank reads only its own segments of `srcs` and every crossing pair
/// travels as one frame over a real channel (see the module docs for the
/// data path).  `srcs[i]` / `dst_sizes[i]` are part `i`'s per-processor
/// source segments and destination sizes.
///
/// Returns per-part, per-processor destination buffers and the modelled
/// report; the *channel* traffic lands in the tracker's
/// [`vf_machine::CommStats::channel_messages`] /
/// [`vf_machine::CommStats::channel_bytes`] counters.
///
/// # Errors
/// [`RuntimeError::Channel`] if a rank's send or receive failed (dead
/// peer, timeout, truncation), [`RuntimeError::CorruptMessage`] if a frame
/// failed validation.  The posted charges are settled before any error
/// propagates; the source arrays are only borrowed, so they are unchanged
/// whatever happened.
fn sharded_fused_exchange<T: Element>(
    fused: &FusedPlan,
    tracker: &CommTracker,
    exec: &ShardedExecutor,
    srcs: &[&[Vec<T>]],
    dst_sizes: &[&[usize]],
    copy_secs: &[f64],
) -> Result<(Vec<Vec<Vec<T>>>, ExecReport)> {
    debug_assert_eq!(srcs.len(), fused.parts().len(), "one array per part");
    let shards = RankShards::of(srcs);
    let (pending, report) = post_fused(fused, T::BYTES, tracker);
    let seq_base = pending.seq_base();
    // One rank per processor the plan can name: every rank with traffic
    // or a destination buffer is below both bounds (the verbs validated
    // the tracker against the plan).
    let ranks = tracker.num_procs().min(fused.pairs_by_dst.len());
    let dst_len = |idx: usize, r: usize| dst_sizes[idx].get(r).copied().unwrap_or(0);
    let per_rank: Vec<Result<Vec<Vec<T>>>> = exec.run_region(ranks, tracker, |ctx| {
        let my = shards.mine(ctx);
        rank_exchange(
            fused,
            ctx,
            &my,
            &dst_len,
            seq_base,
            exec.timeout,
            &exec.frames,
        )
    });
    // Settle the posted batch before any `?` — model charges must never
    // leak on a channel-failure path.
    let wait = trace::OpenSpan::begin(trace::Phase::Wait);
    finish_with_copy_credit(tracker, pending, copy_secs);
    wait.end();
    let per_rank = per_rank.into_iter().collect::<Result<Vec<_>>>()?;
    let out = assemble(per_rank, dst_sizes.iter().map(|sizes| sizes.len()));
    Ok((out, report))
}

/// A reusable rank-level halo exchange for SPMD application loops: the
/// caller builds the fused ghost plan once, enters **one** SPMD region for
/// the whole workload, and calls [`exchange_on_rank`] once per time step
/// from every rank — shards never leave their rank between steps.
///
/// The modelled charges of each step are *not* issued by the ranks (that
/// would charge the batch once per rank): the designated charging rank —
/// conventionally rank 0, between two barriers — calls [`post`] before
/// and [`settle`] after the step's exchanges, reproducing the shared wire
/// path's charge order exactly.
///
/// [`exchange_on_rank`]: ShardedHaloExchange::exchange_on_rank
/// [`post`]: ShardedHaloExchange::post
/// [`settle`]: ShardedHaloExchange::settle
pub struct ShardedHaloExchange {
    fused: FusedPlan,
    timeout: Duration,
    /// Spare wire frames, recycled from step to step.
    frames: FramePool,
    /// [`vf_machine::PendingSends::seq_base`] of the step in flight —
    /// stored by the charging rank's [`ShardedHaloExchange::post`], read by
    /// every rank's exchange; the barrier between the two orders them.
    seq_base: AtomicU64,
}

impl ShardedHaloExchange {
    /// Wraps a fused ghost plan for in-region use.
    ///
    /// # Errors
    /// [`RuntimeError::FusionMismatch`] when `fused` is not a ghost
    /// fusion.
    pub fn new(fused: FusedPlan, timeout: Duration) -> Result<Self> {
        if fused.kind() != PlanKind::Ghost {
            return Err(RuntimeError::FusionMismatch {
                reason: format!(
                    "ShardedHaloExchange needs Ghost parts, got {:?}",
                    fused.kind()
                ),
            });
        }
        Ok(Self {
            fused,
            timeout,
            frames: FramePool::default(),
            seq_base: AtomicU64::new(0),
        })
    }

    /// The fused plan driving the exchange.
    pub fn fused(&self) -> &FusedPlan {
        &self.fused
    }

    /// Charges one step's modelled traffic (directory + message batch) and
    /// publishes the step's frame numbering.  Call from exactly one rank
    /// per step, with a barrier before any rank sends.
    pub fn post(&self, tracker: &CommTracker, elem_bytes: usize) -> vf_machine::PendingSends {
        let pending = post_fused(&self.fused, elem_bytes, tracker).0;
        self.seq_base.store(pending.seq_base(), Ordering::Relaxed);
        pending
    }

    /// Completes one step's modelled traffic with the wire pack/unpack
    /// copy credit.  Call from the same rank that [`post`]ed, after every
    /// rank's exchange of the step returned.
    ///
    /// [`post`]: ShardedHaloExchange::post
    pub fn settle(
        &self,
        tracker: &CommTracker,
        pending: vf_machine::PendingSends,
        elem_bytes: usize,
    ) {
        finish_with_copy_credit(
            tracker,
            pending,
            &wire_copy_seconds(&self.fused, elem_bytes, tracker),
        );
    }

    /// One rank's halo exchange: `my` is the rank's shard of each fused
    /// array; returns the rank's filled ghost buffer per array (sized by
    /// each part's ghost length for this rank).  Pair `pi`'s frame carries
    /// the number the step's [`post`](ShardedHaloExchange::post) gave it,
    /// the same on every rank.
    ///
    /// # Errors
    /// As [`sharded_fused_exchange`]'s rank half: channel failures and
    /// frame validation failures.
    pub fn exchange_on_rank<T: Element>(
        &self,
        ctx: &mut ProcCtx,
        my: &[&[T]],
    ) -> Result<Vec<Vec<T>>> {
        rank_exchange(
            &self.fused,
            ctx,
            my,
            &|idx, r| self.fused.parts()[idx].ghost_len(ProcId(r)),
            self.seq_base.load(Ordering::Relaxed),
            self.timeout,
            &self.frames,
        )
    }

    /// Wraps one rank's exchanged ghost buffer (part `part` of the result
    /// of [`exchange_on_rank`]) as a [`crate::ghost::GhostRegion`] so the
    /// rank can resolve halo reads through the plan's slot index.  Only
    /// `rank`'s slots are populated — exactly the rank-locality the
    /// distributed backend enforces.
    ///
    /// [`exchange_on_rank`]: ShardedHaloExchange::exchange_on_rank
    pub fn ghost_region_on_rank<T: Element>(
        &self,
        part: usize,
        rank: usize,
        buf: Vec<T>,
    ) -> crate::ghost::GhostRegion<T> {
        let plan = &self.fused.parts()[part];
        let mut values = vec![Vec::new(); plan.total_procs()];
        if rank < values.len() {
            values[rank] = buf;
        }
        crate::ghost::GhostRegion::from_parts(Arc::clone(plan), values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_redistribute, PlanCache};
    use vf_dist::{DistType, Distribution, ProcessorView};
    use vf_index::{IndexDomain, Point};
    use vf_machine::CostModel;

    fn dist_1d(t: DistType, n: usize, p: usize) -> Distribution {
        Distribution::new(t, IndexDomain::d1(n), ProcessorView::linear(p)).unwrap()
    }

    #[test]
    fn scatter_take_put_gather_round_trip() {
        let dist = dist_1d(DistType::block1d(), 17, 4);
        let data: Vec<f64> = (0..17).map(|i| i as f64).collect();
        let array = DistArray::from_dense("A", dist, &data).unwrap();
        let shards = ShardedArray::scatter(&array);
        assert_eq!(shards.name(), "A");
        let s2 = shards.take(2);
        shards.put(2, s2);
        let mut back = DistArray::new("A", shards.dist().clone());
        shards.gather_into(&mut back);
        assert_eq!(back.to_dense(), data);
    }

    #[test]
    fn sharded_redistribute_matches_shared_oracle() {
        let n = 61;
        let data: Vec<f64> = (0..n).map(|i| (i * i) as f64 * 0.5).collect();
        for procs in [1usize, 3, 4] {
            let from = dist_1d(DistType::block1d(), n, procs);
            let to = dist_1d(DistType::cyclic1d(1), n, procs);

            // Shared-memory oracle.
            let oracle_tracker = CommTracker::new(procs, CostModel::zero());
            let mut oracle = DistArray::from_dense("A", from.clone(), &data).unwrap();
            let fused =
                FusedPlan::fuse(vec![Arc::new(plan_redistribute(&from, &to).unwrap())]).unwrap();
            let (oracle_reports, oracle_exec) = crate::execute_class_redistribute(
                &mut [&mut oracle],
                &fused,
                &oracle_tracker,
                &SerialExecutor,
                &mut RetiredLocals::default(),
            )
            .unwrap();

            // Sharded run over real channels.
            let tracker = CommTracker::new(procs, CostModel::zero());
            let mut array = DistArray::from_dense("A", from.clone(), &data).unwrap();
            let exec = ShardedExecutor::new();
            let (reports, exec_report) = crate::execute_class_redistribute(
                &mut [&mut array],
                &fused,
                &tracker,
                &exec,
                &mut RetiredLocals::default(),
            )
            .unwrap();

            assert_eq!(array.to_dense(), oracle.to_dense(), "{procs} procs");
            assert_eq!(reports, oracle_reports);
            assert_eq!(exec_report, oracle_exec);

            // Modelled charges identical to the oracle; channel traffic
            // identical to the modelled wire traffic.
            let shared = oracle_tracker.snapshot();
            let stats = tracker.snapshot();
            assert_eq!(stats.total_messages(), shared.total_messages());
            assert_eq!(stats.total_bytes(), shared.total_bytes());
            assert_eq!(stats.channel_messages(), exec_report.messages);
            assert_eq!(stats.channel_bytes(), exec_report.bytes);
            assert_eq!(
                shared.channel_messages(),
                0,
                "oracle never touches a channel"
            );
        }
    }

    #[test]
    fn sharded_ghost_exchange_matches_shared_oracle() {
        let n = 40;
        let procs = 4;
        let data: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let dist = dist_1d(DistType::block1d(), n, procs);

        let oracle_tracker = CommTracker::new(procs, CostModel::zero());
        let oracle_arr = DistArray::from_dense("G", dist.clone(), &data).unwrap();
        let cache = PlanCache::new();
        let fused = cache
            .ghost_class_plan([dist.clone()].iter(), &[(1, 1)])
            .unwrap();
        let (oracle_regions, oracle_exec) = crate::ghost::exchange_class_ghosts(
            &[&oracle_arr],
            &fused,
            &oracle_tracker,
            &SerialExecutor,
        )
        .unwrap();

        let tracker = CommTracker::new(procs, CostModel::zero());
        let arr = DistArray::from_dense("G", dist, &data).unwrap();
        let exec = ShardedExecutor::new();
        let (regions, exec_report) =
            crate::ghost::exchange_class_ghosts(&[&arr], &fused, &tracker, &exec).unwrap();

        assert_eq!(exec_report, oracle_exec);
        for p in 0..procs {
            assert_eq!(regions[0].len(ProcId(p)), oracle_regions[0].len(ProcId(p)));
            for i in 0..n {
                let pt = Point::d1(i as i64);
                assert_eq!(
                    regions[0].get(ProcId(p), &pt),
                    oracle_regions[0].get(ProcId(p), &pt),
                    "ghost mismatch at proc {p} index {i}"
                );
            }
        }
        let stats = tracker.snapshot();
        let shared = oracle_tracker.snapshot();
        assert_eq!(stats.total_messages(), shared.total_messages());
        assert_eq!(stats.total_bytes(), shared.total_bytes());
        assert_eq!(stats.channel_messages(), exec_report.messages);
        assert_eq!(stats.channel_bytes(), exec_report.bytes);
    }

    /// Moves pair 0 of a 2-rank BLOCK → CYCLIC redistribution through a
    /// real channel: the sending rank packs the frame, `tamper` damages
    /// it in transit, the receiving rank unpacks into buffers pre-filled
    /// with a sentinel.  Returns the receiver's verdict, its buffers and
    /// the pair.
    fn receive_tampered(
        tamper: impl Fn(&mut Vec<u8>) + Sync,
    ) -> (Result<()>, Vec<f64>, (usize, usize)) {
        const SENTINEL: f64 = -7.0;
        let (n, procs) = (16, 2);
        let from = dist_1d(DistType::block1d(), n, procs);
        let to = dist_1d(DistType::cyclic1d(1), n, procs);
        let data: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
        let array = DistArray::from_dense("A", from.clone(), &data).unwrap();
        let fused =
            FusedPlan::fuse(vec![Arc::new(plan_redistribute(&from, &to).unwrap())]).unwrap();
        let ((s, d), _) = fused.pair_elements[0];
        let tracker = CommTracker::new(procs, CostModel::zero());
        let shards = RankShards::of(&[array.locals()]);
        let mut results = spmd::run(procs, &tracker, |ctx| {
            if ctx.rank() == s {
                let mut frame = Vec::new();
                pack_frame(&fused, 0, &shards.mine(ctx), 77, &mut frame);
                tamper(&mut frame);
                ctx.send_wire(d, WIRE_TAG, frame).unwrap();
                None
            } else {
                let (_, header, frame) = ctx
                    .recv_wire(Some(s), WIRE_TAG, Duration::from_secs(5))
                    .unwrap();
                let mut bufs = vec![vec![SENTINEL; to.local_size(ProcId(d))]];
                let verdict = unpack_frame(&fused, 0, &header, &frame, &mut bufs);
                Some((verdict, bufs.remove(0)))
            }
        });
        let (verdict, buf) = results.remove(d).expect("the receiver reports");
        (verdict, buf, (s, d))
    }

    #[test]
    fn damaged_frame_is_rejected_before_any_element_is_decoded() {
        // Control: the untouched frame decodes the pair's elements.
        let (verdict, buf, _) = receive_tampered(|_| {});
        assert_eq!(verdict, Ok(()));
        assert!(buf.iter().any(|&v| v != -7.0), "the pair carries elements");

        type Tamper = fn(&mut Vec<u8>);
        let cases: [(&str, Tamper); 6] = [
            ("payload bit", |f| f[WIRE_FRAME_BYTES + 3] ^= 0x10),
            ("last payload bit", |f| *f.last_mut().unwrap() ^= 0x80),
            ("header element count", |f| f[8] ^= 0x01),
            ("header checksum", |f| f[16] ^= 0x40),
            ("truncated byte", |f| f.truncate(f.len() - 1)),
            ("extra byte", |f| f.push(0)),
        ];
        for (what, tamper) in cases {
            let (verdict, buf, (s, d)) = receive_tampered(tamper);
            assert_eq!(
                verdict,
                Err(RuntimeError::CorruptMessage {
                    src: s,
                    dst: d,
                    seq: 77
                }),
                "{what}"
            );
            assert!(
                buf.iter().all(|&v| v == -7.0),
                "{what}: a rejected frame must leave the destination untouched"
            );
        }
    }

    #[test]
    fn rank_view_hands_each_rank_only_its_own_segment() {
        let procs = 3;
        let dist = dist_1d(DistType::block1d(), 10, procs);
        let arrays = [
            DistArray::from_dense("A", dist.clone(), &[1.0f64; 10]).unwrap(),
            DistArray::from_dense("B", dist, &[2.0f64; 10]).unwrap(),
        ];
        let shards = RankShards::of(&arrays.each_ref().map(|a| a.locals()));
        let tracker = CommTracker::new(procs, CostModel::zero());
        // The accessor takes no rank: identity comes from the caller's
        // own context, so what each rank sees is its segment and nothing
        // else — the very memory of the live array, not a copy.
        let seen: Vec<Vec<(usize, usize)>> = spmd::run(procs, &tracker, |ctx| {
            shards
                .mine(ctx)
                .iter()
                .map(|seg| (seg.as_ptr() as usize, seg.len()))
                .collect()
        });
        for (r, segs) in seen.iter().enumerate() {
            for (array, &(ptr, len)) in arrays.iter().zip(segs) {
                let own = array.local(ProcId(r));
                assert_eq!((ptr, len), (own.as_ptr() as usize, own.len()));
            }
        }
    }

    #[test]
    fn rank_view_refuses_a_rank_without_a_segment() {
        let dist = dist_1d(DistType::block1d(), 8, 2);
        let array = DistArray::from_dense("A", dist, &[0.0f64; 8]).unwrap();
        let shards = RankShards::of(&[array.locals()]);
        // A region one rank wider than the array: rank 2 asks for a
        // segment that does not exist and is refused, not handed a
        // neighbour's.
        let tracker = CommTracker::new(3, CostModel::zero());
        let refused: Vec<bool> = spmd::run(3, &tracker, |ctx| {
            let ctx = &*ctx;
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| shards.mine(ctx))).is_err()
        });
        assert_eq!(refused, [false, false, true]);
    }

    #[test]
    fn frame_pool_recycles_best_fit_and_never_outgrows_its_traffic() {
        let pool = FramePool::default();
        assert_eq!(pool.take(100).capacity(), 0, "empty pool: a fresh frame");
        pool.give(Vec::with_capacity(64));
        pool.give(Vec::with_capacity(4096));
        pool.give(Vec::with_capacity(512));
        // Smallest that fits.
        let f = pool.take(300);
        assert!((512..4096).contains(&f.capacity()));
        pool.give(f);
        // Nothing fits: the largest is handed out to grow, no fourth
        // frame appears.
        let big = pool.take(1 << 20);
        assert!(big.capacity() >= 4096);
        assert_eq!(pool.0.lock().unwrap().len(), 2);
    }

    #[test]
    fn executor_recycles_frames_across_statements() {
        let (n, procs) = (64, 2);
        let a = dist_1d(DistType::block1d(), n, procs);
        let b = dist_1d(DistType::cyclic1d(1), n, procs);
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut array = DistArray::from_dense("A", a.clone(), &data).unwrap();
        let tracker = CommTracker::new(procs, CostModel::zero());
        let cache = PlanCache::new();
        let exec = ShardedExecutor::new();
        for (statement, target) in [&b, &a, &b, &a].into_iter().enumerate() {
            let opts = crate::RedistOptions::default();
            crate::redistribute(&mut array, target.clone(), &tracker, &opts, &cache, &exec)
                .unwrap();
            // One frame per crossing pair, however many statements ran
            // (two ranks: both send before either can receive) — and the
            // header each still holds numbers it `seq_base + pi` within
            // the statement's batch on this tracker, as on the shared wire.
            let seq = |f: &Vec<u8>| WireFrameMsg::from_bytes(f).unwrap().seq;
            let mut sent: Vec<u64> = exec.frames.0.lock().unwrap().iter().map(seq).collect();
            sent.sort_unstable();
            let base = 2 * statement as u64;
            assert_eq!(sent, [base, base + 1]);
        }
        assert_eq!(array.to_dense(), data);
    }

    #[test]
    fn sharded_executor_defaults() {
        let exec = ShardedExecutor::new();
        assert_eq!(exec.name(), "sharded");
        assert!(exec.pool().is_none());
        assert!(exec.timeout() > Duration::ZERO);
        let tuned = exec.with_timeout(Duration::from_millis(5));
        assert_eq!(tuned.timeout(), Duration::from_millis(5));
    }

    #[test]
    fn dead_rank_region_returns_within_twice_the_timeout() {
        use vf_machine::{FaultInjector, FaultKind, FaultPlan, SpmdError};
        let timeout = Duration::from_millis(500);
        let plan = FaultPlan::new(9)
            .with_rate(1.0)
            .with_kinds(&[FaultKind::RankDeath])
            .with_max_faults(1);
        let tracker = CommTracker::new(4, CostModel::zero())
            .with_fault_injector(Arc::new(FaultInjector::new(plan)));
        let exec = ShardedExecutor::new().with_timeout(timeout);
        let start = std::time::Instant::now();
        // Enough checked barriers that the victim's fuse (< 8 channel ops)
        // always burns down mid-region.
        let results: Vec<std::result::Result<(), SpmdError>> =
            exec.run_region(4, &tracker, |ctx| {
                for _ in 0..10 {
                    ctx.barrier_checked(timeout)?;
                }
                Ok(())
            });
        let elapsed = start.elapsed();
        assert!(
            elapsed < timeout * 2,
            "region with a dead rank took {elapsed:?} against a {timeout:?} receive bound"
        );
        let killed = results
            .iter()
            .filter(|r| matches!(r, Err(SpmdError::RankKilled { .. })))
            .count();
        assert_eq!(killed, 1, "exactly one rank dies: {results:?}");
        assert!(
            results.iter().all(|r| r.is_err()),
            "no rank silently completes a broken region: {results:?}"
        );
    }
}
