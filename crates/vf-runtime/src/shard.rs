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
//! [`ShardedExecutor`] overrides the one method of [`PlanExecutor`] that
//! moves data, [`PlanExecutor::execute_fused`], so every verb handed a
//! sharded executor (or [`crate::ExecBackend::Sharded`]) —
//! `redistribute`, `exchange_ghosts`, `execute_gather`, `assign` (each a
//! class of one), the class verbs, `CheckpointStore::restore_into` —
//! moves its crossing elements over channels, from every call site.
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

use crate::element::{pack_le_xor, unpack_le, xor_packed_le};
use crate::exec::{
    copy_runs, finish_checksum, finish_with_copy_credit, lock, post_fused, wire_copy_seconds,
    ExecReport, FusedPlan, PlanExecutor, RetiredLocals,
};
use crate::{DistArray, Element, Result, RuntimeError};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use vf_dist::Distribution;
use vf_machine::spmd::{self, ProcCtx, WIRE_FRAME_BYTES, WIRE_TAG};
use vf_machine::{trace, CommTracker, WireFrameMsg};

/// A distributed array copied out into one shard per processor (cloned
/// from the canonical local segments), and back.  Statements never
/// scatter — they borrow through `RankShards` — so this is only the
/// measure of what a scatter and a gather cost.
#[derive(Debug)]
pub struct ShardedArray<T> {
    dist: Distribution,
    shards: Vec<Vec<T>>,
}

impl<T: Element> ShardedArray<T> {
    /// Scatters `array` into per-rank shards.
    pub fn scatter(array: &DistArray<T>) -> Self {
        Self {
            dist: array.dist().clone(),
            shards: array.locals().to_vec(),
        }
    }

    /// Gathers every shard back into `(distribution, per-rank locals)`.
    pub fn gather(self) -> (Distribution, Vec<Vec<T>>) {
        (self.dist, self.shards)
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
/// As a [`PlanExecutor`] it is the channel transport:
/// [`PlanExecutor::execute_fused`] — a class, or one array's plan as a
/// class of one — runs one SPMD region in which every crossing pair
/// travels as a frame, with the model charged exactly as the shared-memory
/// wire pipeline charges it.  Scatter updates have no wire representation
/// ([`PlanExecutor::run_updates`] applies them in place) and run as on
/// [`crate::SerialExecutor`].
#[derive(Debug, Clone)]
pub struct ShardedExecutor {
    timeout: Duration,
    /// Spare wire frames, recycled from statement to statement (shared by
    /// clones of the executor).
    frames: Arc<FramePool>,
}

impl ShardedExecutor {
    /// Default bound on how long a rank blocks in a channel receive before
    /// reporting [`vf_machine::SpmdError::RecvTimeout`].
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

    /// An executor whose exchanges each run one region on fresh rank
    /// threads.  The receive bound is
    /// [`ShardedExecutor::DEFAULT_TIMEOUT`] unless the `VF_SHARD_TIMEOUT`
    /// environment variable overrides it (milliseconds; positive): chaos
    /// suites shrink it so dead-peer detection is fast, and slow CI hosts
    /// can widen it.  Unparseable or zero values are rejected loudly,
    /// mirroring `VF_EXEC_CUTOFF`.
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
            timeout,
            frames: Arc::default(),
        }
    }

    /// Overrides the channel receive bound.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Runs `body` as an SPMD region of `num_procs` ranks, one fresh
    /// thread per rank ([`spmd::run_with_death`]).
    ///
    /// If the tracker carries a [`vf_machine::FaultInjector`] whose plan
    /// enables [`vf_machine::FaultKind::RankDeath`], the injector is polled
    /// *here*, on the caller thread (honouring the injector's
    /// caller-thread-only determinism contract), and an armed death is
    /// carried into the region as data: after its operation fuse burns
    /// down, the victim rank's channel endpoints drop mid-region and the
    /// survivors surface structured errors instead of hanging.  The death
    /// is counted when it fires; a victim that made fewer operations than
    /// its fuse lives, and the rest of the fuse stays armed for the
    /// tracker's next region.
    fn run_region<R, F>(&self, num_procs: usize, tracker: &CommTracker, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut ProcCtx) -> R + Sync,
    {
        let injector = tracker.fault_injector();
        let death = injector.and_then(|inj| inj.rank_death(num_procs));
        let (results, unfired) = spmd::run_with_death(num_procs, tracker, death, body);
        if death.is_some() && injector.is_some_and(|inj| inj.settle_rank_death(unfired)) {
            tracker.record_fault();
        }
        results
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
        sharded_fused_exchange(fused, tracker, self, srcs, dst_sizes)
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
    let (_, total) = fused.index.pairs[pi];
    frame.resize(WIRE_FRAME_BYTES + total * T::BYTES, 0);
    let (header, payload) = frame.split_at_mut(WIRE_FRAME_BYTES);
    let mut acc = 0u64;
    for (sl, t) in fused.pair_parts(pi) {
        let mut off = sl.wire_offset;
        t.spans().for_each(|run| {
            let n = run.len * run.count;
            let out = &mut payload[off * T::BYTES..(off + n) * T::BYTES];
            let from = &my[sl.part][run.src];
            acc ^= if run.count == 1 {
                pack_le_xor(from, out)
            } else if run.len == 1 {
                pack_le_xor(from.iter().step_by(run.src_step), out)
            } else {
                let reps = from
                    .chunks(run.src_step)
                    .zip(out.chunks_mut(run.len * T::BYTES));
                reps.fold(0, |acc, (s, o)| acc ^ pack_le_xor(&s[..run.len], o))
            };
            off += n;
        });
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
    let ((s, d), total) = fused.index.pairs[pi];
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
        t.spans().for_each(|run| {
            let n = run.len * run.count;
            let bytes = &payload[off * T::BYTES..(off + n) * T::BYTES];
            let to = &mut bufs[sl.part][run.dst];
            if run.count == 1 {
                unpack_le(bytes, to);
            } else if run.len == 1 {
                unpack_le(bytes, to.iter_mut().step_by(run.dst_step));
            } else {
                let reps = to
                    .chunks_mut(run.dst_step)
                    .zip(bytes.chunks(run.len * T::BYTES));
                reps.for_each(|(d, b)| unpack_le(b, &mut d[..run.len]));
            }
            off += n;
        });
    }
    Ok(())
}

/// One rank's half of a fused wire exchange, run *inside* an SPMD region.
///
/// `my` is the rank's own segment of each fused part and `dst_sizes[i]`
/// part `i`'s per-processor destination sizes.  The rank first serves its
/// local (stay-at-home) runs, then packs one frame per outgoing crossing
/// pair ([`pack_frame`]) and moves it into the channel, then receives,
/// validates and decodes every arriving pair ([`unpack_frame`]), handing
/// each finished frame to `exec`'s frame pool for the next sender.
/// Send-before-receive is deadlock-free because the channels are
/// unbounded; the per-tag FIFO pending queue keeps out-of-order arrivals
/// cheap.
fn rank_exchange<T: Element>(
    fused: &FusedPlan,
    ctx: &mut ProcCtx,
    my: &[&[T]],
    dst_sizes: &[Vec<usize>],
    seq_base: u64,
    exec: &ShardedExecutor,
) -> Result<Vec<Vec<T>>> {
    let r = ctx.rank();
    let mut bufs: Vec<Vec<T>> = dst_sizes
        .iter()
        .map(|sizes| vec![T::default(); sizes.get(r).copied().unwrap_or(0)])
        .collect();
    // Elements that stay on `r` never touch a frame.
    for (idx, buf) in bufs.iter_mut().enumerate() {
        if let Some(t) = fused.local_transfer(idx, r) {
            copy_runs(t, my[idx], buf);
        }
    }
    // Outgoing pairs.  `index.pairs` only holds crossing pairs with
    // traffic, so `d != r` and `total > 0` hold structurally.
    for (pi, &((s, d), total)) in fused.index.pairs.iter().enumerate() {
        if s != r {
            continue;
        }
        let pack = trace::OpenSpan::begin_with(trace::Phase::WirePack, || {
            format!("p{r} -> p{d}: {total} elements")
        });
        let mut frame = exec.frames.take(WIRE_FRAME_BYTES + total * T::BYTES);
        pack_frame(fused, pi, my, seq_base + pi as u64, &mut frame);
        pack.end();
        ctx.send_wire(d, WIRE_TAG, frame)?;
    }
    // Arriving pairs, in the same per-destination order the shared wire
    // path unpacks them.  The channel's per-tag queue matches by sender,
    // so arrival order across senders doesn't matter.
    let arriving = fused.index.arriving(r);
    for &pi in arriving {
        let ((s, _), _) = fused.index.pairs[pi];
        let (_, header, frame) = ctx.recv_wire(Some(s), WIRE_TAG, exec.timeout)?;
        let unpack = trace::OpenSpan::begin_dest(trace::Phase::Unpack, r);
        let decoded = unpack_frame(fused, pi, &header, &frame, &mut bufs);
        unpack.end();
        exec.frames.give(frame);
        decoded?;
    }
    Ok(bufs)
}

/// The channel engine behind [`ShardedExecutor`]'s `execute_fused`:
/// charges the model exactly as the shared-memory wire pipeline does
/// (directory → single-message-per-pair post → settle with the pack and
/// unpack copy credit), but moves the data through an SPMD region in which each
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
    dst_sizes: &[Vec<usize>],
) -> Result<(Vec<Vec<Vec<T>>>, ExecReport)> {
    debug_assert_eq!(srcs.len(), fused.parts().len(), "one array per part");
    let shards = RankShards::of(srcs);
    let (pending, report) = post_fused(fused, T::BYTES, tracker);
    let seq_base = pending.seq_base();
    // One rank per processor the plan can name: every rank with traffic
    // or a destination buffer is below both bounds (the verbs validated
    // the tracker against the plan).
    let ranks = tracker.num_procs().min(fused.index.procs());
    let per_rank: Vec<Result<Vec<Vec<T>>>> = exec.run_region(ranks, tracker, |ctx| {
        let my = shards.mine(ctx);
        rank_exchange(fused, ctx, &my, dst_sizes, seq_base, exec)
    });
    // Settle the posted batch before any `?` — model charges must never
    // leak on a channel-failure path.
    let wait = trace::OpenSpan::begin(trace::Phase::Wait);
    let copy_secs = wire_copy_seconds(fused, T::BYTES, tracker);
    finish_with_copy_credit(tracker, pending, &copy_secs);
    wait.end();
    let per_rank = per_rank.into_iter().collect::<Result<Vec<_>>>()?;
    let out = assemble(per_rank, dst_sizes.iter().map(|sizes| sizes.len()));
    Ok((out, report))
}

/// Transposes destination-major buffers (`per_dest[d][part]`) into the
/// per-part, per-processor result the channel engine returns; part `idx`
/// covers `part_procs[idx]` processors.
fn assemble<T>(
    per_dest: impl IntoIterator<Item = Vec<Vec<T>>>,
    part_procs: impl IntoIterator<Item = usize>,
) -> Vec<Vec<Vec<T>>> {
    let part_procs: Vec<usize> = part_procs.into_iter().collect();
    let mut out: Vec<Vec<Vec<T>>> = part_procs.iter().map(|&n| Vec::with_capacity(n)).collect();
    for bufs in per_dest {
        for (idx, buf) in bufs.into_iter().enumerate() {
            if out[idx].len() < part_procs[idx] {
                out[idx].push(buf);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_redistribute, PlanCache};
    use crate::SerialExecutor;
    use vf_dist::{DistType, Distribution, ProcId, ProcessorView};
    use vf_index::{IndexDomain, Point};
    use vf_machine::CostModel;

    fn dist_1d(t: DistType, n: usize, p: usize) -> Distribution {
        Distribution::new(t, IndexDomain::d1(n), ProcessorView::linear(p)).unwrap()
    }

    #[test]
    fn scatter_gather_round_trip() {
        let dist = dist_1d(DistType::block1d(), 17, 4);
        let data: Vec<f64> = (0..17).map(|i| i as f64).collect();
        let array = DistArray::from_dense("A", dist, &data).unwrap();
        let (dist, locals) = ShardedArray::scatter(&array).gather();
        assert_eq!(dist.fingerprint(), array.dist().fingerprint());
        assert_eq!(locals, array.locals());
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
        let ((s, d), _) = fused.index.pairs[0];
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
        assert!(exec.timeout > Duration::ZERO);
        let tuned = exec.with_timeout(Duration::from_millis(5));
        assert_eq!(tuned.timeout, Duration::from_millis(5));
    }

    #[test]
    fn sharded_rank_death_counts_only_when_it_fires() {
        use vf_machine::{FaultInjector, FaultKind, FaultPlan};
        // Seed 41 arms a fuse longer than the victim's channel operations
        // in one halo statement of a 16 x 16 column layout on 4 ranks.
        let plan = FaultPlan::new(41)
            .with_rate(1.0)
            .with_kinds(&[FaultKind::RankDeath])
            .with_max_faults(1);
        let injector = Arc::new(FaultInjector::new(plan));
        let tracker =
            CommTracker::new(4, CostModel::zero()).with_fault_injector(Arc::clone(&injector));
        let dist = Distribution::new(
            DistType::columns(),
            IndexDomain::d2(16, 16),
            ProcessorView::linear(4),
        )
        .unwrap();
        let array = DistArray::from_dense("U", dist.clone(), &[1.0f64; 256]).unwrap();
        let halo = PlanCache::new()
            .ghost_plan(&dist, &[(1, 1), (1, 1)])
            .unwrap();
        let exec = ShardedExecutor::new().with_timeout(Duration::from_millis(300));
        let outcomes: Vec<(bool, usize)> = (0..6)
            .map(|_| {
                let ok = crate::ghost::exchange_ghosts(&array, &halo, &tracker, &exec).is_ok();
                (ok, tracker.snapshot().faults_injected())
            })
            .collect();
        // The first statement survives its armed death, which is not
        // counted; a later one dies of the fuse carried over, counted
        // once; the budget is then spent.
        assert_eq!(outcomes[0], (true, 0), "{outcomes:?}");
        let died = outcomes.iter().position(|&(ok, _)| !ok);
        let died = died.expect("the carried fuse fires in a later statement");
        assert!(outcomes[..died].iter().all(|&o| o == (true, 0)));
        assert_eq!(outcomes[died], (false, 1), "{outcomes:?}");
        assert!(outcomes[died + 1..].iter().all(|&o| o == (true, 1)));
        assert_eq!(injector.faults_injected(), 1);
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
