//! A thread-backed SPMD executor.
//!
//! The Vienna Fortran compilation system generates SPMD code: "each
//! processor executes essentially the same code, but on a local data set"
//! (paper §1).  This module realises that execution model with one OS
//! thread per simulated processor, private per-processor state, and
//! explicit message passing over channels; every message is also charged to
//! the shared [`CommTracker`] so the modelled cost of a threaded run matches
//! the master-managed simulation.
//!
//! Messaging calls return [`SpmdError`] instead of panicking: a peer that
//! has left the region (its thread returned or died) surfaces as
//! [`SpmdError::PeerDead`] / [`SpmdError::RecvTimeout`], so a rank failure
//! degrades into the fault taxonomy instead of aborting the process.

use crate::fault::RankDeathSpec;
use crate::CommTracker;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Message tag reserved for fused wire-buffer exchanges
/// ([`ProcCtx::send_wire`] / [`ProcCtx::recv_wire`]).  Each processor pair
/// carries at most one wire buffer per exchange, so a single tag suffices;
/// it sits below the collective tags (`u64::MAX - 1 ..= u64::MAX - 5`).
pub const WIRE_TAG: u64 = u64::MAX - 6;

/// Pseudo-tag reported by [`SpmdError::RecvTimeout`] when the wait that
/// timed out was a [`ProcCtx::barrier_checked`] rather than a receive.
pub const BARRIER_TAG: u64 = u64::MAX - 7;

/// Size of the [`WireFrameMsg`] header prefix on a wire message.
pub const WIRE_FRAME_BYTES: usize = 24;

/// Structured failure of an SPMD messaging call.
///
/// These are the message-layer members of the fault taxonomy: the runtime
/// maps them into its own error type so injected rank death degrades a
/// region instead of aborting it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpmdError {
    /// A send failed because the destination rank's receiver is gone (its
    /// thread returned or died mid-region).
    PeerDead {
        /// Rank the send was issued from.
        rank: usize,
        /// Destination rank whose receiver is gone.
        peer: usize,
        /// Message tag of the failed send.
        tag: u64,
    },
    /// A receive failed because every sender handle is gone.
    ChannelClosed {
        /// Rank the receive was issued from.
        rank: usize,
        /// Message tag being waited for.
        tag: u64,
    },
    /// A bounded receive gave up before a matching message arrived —
    /// the liveness-preserving signal for a dead or wedged peer.
    RecvTimeout {
        /// Rank the receive was issued from.
        rank: usize,
        /// Specific source being waited for, if any.
        src: Option<usize>,
        /// Message tag being waited for.
        tag: u64,
        /// How long the receive waited before giving up.
        waited_ms: u64,
    },
    /// A payload's length is not a whole number of elements — a truncated
    /// or corrupt message that must not silently decode to fewer values.
    TruncatedPayload {
        /// Actual payload length in bytes.
        len: usize,
        /// Element size the payload failed to divide into.
        elem_bytes: usize,
    },
    /// A wire message is shorter than its mandatory frame header.
    MalformedFrame {
        /// Actual message length in bytes.
        len: usize,
    },
    /// This rank's injected death fuse expired: the operation is refused
    /// and the rank is expected to leave the region, dropping its channel
    /// endpoints so peers observe [`SpmdError::PeerDead`] /
    /// [`SpmdError::RecvTimeout`].
    RankKilled {
        /// The rank that was killed.
        rank: usize,
    },
    /// A barrier wait was abandoned because a participant left the region
    /// (its context dropped) before arriving.
    BarrierBroken {
        /// Rank whose barrier wait was abandoned.
        rank: usize,
    },
}

impl fmt::Display for SpmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpmdError::PeerDead { rank, peer, tag } => write!(
                f,
                "rank {rank}: send to peer {peer} (tag {tag}) failed: receiver is gone"
            ),
            SpmdError::ChannelClosed { rank, tag } => {
                write!(f, "rank {rank}: channel closed while receiving (tag {tag})")
            }
            SpmdError::RecvTimeout {
                rank,
                src,
                tag,
                waited_ms,
            } => match src {
                Some(s) => write!(
                    f,
                    "rank {rank}: receive from {s} (tag {tag}) timed out after {waited_ms} ms"
                ),
                None => write!(
                    f,
                    "rank {rank}: receive (tag {tag}) timed out after {waited_ms} ms"
                ),
            },
            SpmdError::TruncatedPayload { len, elem_bytes } => write!(
                f,
                "payload of {len} bytes is not a whole number of {elem_bytes}-byte elements"
            ),
            SpmdError::MalformedFrame { len } => write!(
                f,
                "wire message of {len} bytes is shorter than the {WIRE_FRAME_BYTES}-byte frame header"
            ),
            SpmdError::RankKilled { rank } => {
                write!(f, "rank {rank}: killed by injected rank death")
            }
            SpmdError::BarrierBroken { rank } => write!(
                f,
                "rank {rank}: barrier broken: a participant left the region"
            ),
        }
    }
}

impl std::error::Error for SpmdError {}

/// Frame header carried in front of every fused wire buffer sent over a
/// channel: the sequence number, element count, and GF(2)-linear checksum
/// the receiver validates before unpacking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFrameMsg {
    /// Globally unique sequence number of this wire buffer.
    pub seq: u64,
    /// Number of elements packed in the payload.
    pub elements: u64,
    /// Checksum over the packed payload bits.
    pub checksum: u64,
}

impl WireFrameMsg {
    /// Encodes the frame as a fixed-size little-endian header.
    pub fn to_bytes(&self) -> [u8; WIRE_FRAME_BYTES] {
        let mut out = [0u8; WIRE_FRAME_BYTES];
        out[0..8].copy_from_slice(&self.seq.to_le_bytes());
        out[8..16].copy_from_slice(&self.elements.to_le_bytes());
        out[16..24].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Decodes a frame from the first [`WIRE_FRAME_BYTES`] of `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SpmdError> {
        if bytes.len() < WIRE_FRAME_BYTES {
            return Err(SpmdError::MalformedFrame { len: bytes.len() });
        }
        let word = |i: usize| {
            u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8-byte slice"))
        };
        Ok(Self {
            seq: word(0),
            elements: word(1),
            checksum: word(2),
        })
    }
}

/// A message exchanged between simulated processors.
#[derive(Debug, Clone)]
struct Msg {
    src: usize,
    tag: u64,
    payload: Vec<u8>,
}

/// A generation barrier that survives rank death.
///
/// `std::sync::Barrier` blocks forever when a participant never arrives; a
/// killed rank would wedge every survivor at the next synchronisation
/// point.  This barrier lets a departing rank *defect* (called from
/// [`ProcCtx`]'s `Drop`), which permanently breaks the barrier and wakes
/// all waiters so they surface [`SpmdError::BarrierBroken`] instead of
/// hanging.  Well-formed SPMD bodies execute matching barrier counts on
/// every rank, so a defect at normal region exit never wakes a real
/// waiter.
#[derive(Debug)]
struct RegionBarrier {
    state: Mutex<BarrierState>,
    cvar: Condvar,
}

#[derive(Debug)]
struct BarrierState {
    participants: usize,
    waiting: usize,
    generation: u64,
    broken: bool,
}

impl RegionBarrier {
    fn new(participants: usize) -> Self {
        Self {
            state: Mutex::new(BarrierState {
                participants,
                waiting: 0,
                generation: 0,
                broken: false,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Blocks until every live participant arrives.  Fails once the
    /// barrier is broken (a participant dropped out) or, when a `timeout`
    /// is given, after waiting that long — the liveness backstop against a
    /// wedged-but-alive peer.
    fn wait_checked(&self, rank: usize, timeout: Option<Duration>) -> Result<(), SpmdError> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.broken {
            return Err(SpmdError::BarrierBroken { rank });
        }
        state.waiting += 1;
        if state.waiting == state.participants {
            state.waiting = 0;
            state.generation = state.generation.wrapping_add(1);
            self.cvar.notify_all();
            return Ok(());
        }
        let generation = state.generation;
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let timed_out = match deadline {
                None => {
                    state = self
                        .cvar
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    false
                }
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    let (next, res) = self
                        .cvar
                        .wait_timeout(state, remaining)
                        .unwrap_or_else(PoisonError::into_inner);
                    state = next;
                    res.timed_out()
                }
            };
            if state.generation != generation {
                return Ok(());
            }
            if state.broken {
                state.waiting = state.waiting.saturating_sub(1);
                return Err(SpmdError::BarrierBroken { rank });
            }
            if timed_out {
                state.waiting = state.waiting.saturating_sub(1);
                return Err(SpmdError::RecvTimeout {
                    rank,
                    src: None,
                    tag: BARRIER_TAG,
                    waited_ms: timeout.map(|t| t.as_millis() as u64).unwrap_or(0),
                });
            }
        }
    }

    /// Marks this barrier broken: one participant has left the region.
    /// Every current and future wait fails fast instead of blocking on a
    /// rank that will never arrive.
    fn defect(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.broken = true;
        state.participants = state.participants.saturating_sub(1);
        self.cvar.notify_all();
    }
}

/// Per-processor execution context handed to the SPMD body.
pub struct ProcCtx {
    rank: usize,
    num_procs: usize,
    senders: Vec<Sender<Msg>>,
    receiver: Receiver<Msg>,
    /// Already-delivered messages that did not match a receive, indexed by
    /// tag with per-tag FIFO order.  Receives that skip messages are O(1)
    /// per skipped message (one push) and a matching receive is O(1) for
    /// wildcard-source / front-of-queue matches, instead of the former
    /// O(pending) scan plus O(pending) `Vec::remove` shift per receive.
    pending: HashMap<u64, VecDeque<Msg>>,
    barrier: Arc<RegionBarrier>,
    tracker: CommTracker,
    /// Armed rank-death fuse: remaining channel operations before this
    /// rank dies ([`SpmdError::RankKilled`]).  `None` on healthy ranks.
    doom: Option<Cell<usize>>,
}

impl Drop for ProcCtx {
    fn drop(&mut self) {
        // A departing rank (normal exit, error return or injected death)
        // defects from the region barrier so survivors waiting on it fail
        // fast instead of hanging forever.
        self.barrier.defect();
    }
}

impl ProcCtx {
    /// This processor's rank (0-based).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processors participating in the SPMD region.
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// The shared communication tracker.
    pub fn tracker(&self) -> &CommTracker {
        &self.tracker
    }

    /// Burns one unit of an armed death fuse; once it is spent every
    /// channel operation on this rank is refused with
    /// [`SpmdError::RankKilled`] so the body returns and the context (and
    /// with it this rank's channel endpoints) drops.
    fn check_doom(&self) -> Result<(), SpmdError> {
        if let Some(fuse) = &self.doom {
            let left = fuse.get();
            if left == 0 {
                return Err(SpmdError::RankKilled { rank: self.rank });
            }
            fuse.set(left - 1);
        }
        Ok(())
    }

    /// Sends `payload` to processor `dst` under message tag `tag`,
    /// charging the modelled message cost and counting the real channel
    /// traffic.
    pub fn send(&self, dst: usize, tag: u64, payload: Vec<u8>) -> Result<(), SpmdError> {
        self.check_doom()?;
        self.tracker.send(self.rank, dst, payload.len());
        self.tracker.record_channel_message(payload.len());
        self.senders[dst]
            .send(Msg {
                src: self.rank,
                tag,
                payload,
            })
            .map_err(|_| SpmdError::PeerDead {
                rank: self.rank,
                peer: dst,
                tag,
            })
    }

    /// Sends a slice of `f64` values to `dst` (little-endian encoding).
    pub fn send_f64s(&self, dst: usize, tag: u64, values: &[f64]) -> Result<(), SpmdError> {
        self.send(dst, tag, f64s_to_bytes(values))
    }

    /// Sends a framed wire message to `dst`.  `frame` is the complete
    /// message — a [`WIRE_FRAME_BYTES`] [`WireFrameMsg`] header followed by
    /// the payload — and is **moved** into the channel: ownership passes to
    /// the receiver, nothing is copied.  Only the payload bytes are counted
    /// as channel traffic (the header is envelope metadata), so a correct
    /// wire path reconciles exactly with the modelled byte count.  Unlike
    /// [`ProcCtx::send`] this does **not** charge the modelled cost — the
    /// executor posts the whole exchange's batch through the tracker, and
    /// charging per send as well would double-count it.
    pub fn send_wire(&self, dst: usize, tag: u64, frame: Vec<u8>) -> Result<(), SpmdError> {
        self.check_doom()?;
        let payload_len = frame
            .len()
            .checked_sub(WIRE_FRAME_BYTES)
            .ok_or(SpmdError::MalformedFrame { len: frame.len() })?;
        let _span = crate::span!(
            crate::trace::Phase::Post,
            "wire send {payload_len}B p{} -> p{dst}",
            self.rank
        );
        self.tracker.record_channel_message(payload_len);
        self.senders[dst]
            .send(Msg {
                src: self.rank,
                tag,
                payload: frame,
            })
            .map_err(|_| SpmdError::PeerDead {
                rank: self.rank,
                peer: dst,
                tag,
            })
    }

    /// Receives a framed wire message (see [`ProcCtx::send_wire`]), waiting
    /// at most `timeout` so a dead sender degrades into
    /// [`SpmdError::RecvTimeout`] instead of wedging the region.  Returns
    /// the source rank, the decoded header, and the **whole owned frame**
    /// exactly as the sender built it — the payload is
    /// `frame[WIRE_FRAME_BYTES..]`, and the buffer is the receiver's to
    /// reuse for its own next send.
    pub fn recv_wire(
        &mut self,
        src: Option<usize>,
        tag: u64,
        timeout: Duration,
    ) -> Result<(usize, WireFrameMsg, Vec<u8>), SpmdError> {
        let _span = crate::span!(crate::trace::Phase::Wait, "wire recv p{}", self.rank);
        let (s, frame) = self.recv_timeout(src, tag, timeout)?;
        let header = WireFrameMsg::from_bytes(&frame)?;
        Ok((s, header, frame))
    }

    /// Pops the first pending message matching `src`/`tag`, if any.
    fn take_pending(&mut self, src: Option<usize>, tag: u64) -> Option<Msg> {
        let queue = self.pending.get_mut(&tag)?;
        let msg = match src {
            None => queue.pop_front(),
            Some(s) => {
                let pos = queue.iter().position(|m| m.src == s)?;
                queue.remove(pos)
            }
        };
        if queue.is_empty() {
            self.pending.remove(&tag);
        }
        msg
    }

    /// Receives the next message with tag `tag`, optionally from a specific
    /// source, blocking until it arrives.  Returns the source rank and the
    /// payload.  Matching order is pinned: among messages with the same
    /// tag (and source, when one is given), receives complete in arrival
    /// order.
    pub fn recv(&mut self, src: Option<usize>, tag: u64) -> Result<(usize, Vec<u8>), SpmdError> {
        self.check_doom()?;
        if let Some(m) = self.take_pending(src, tag) {
            return Ok((m.src, m.payload));
        }
        loop {
            let m = self.receiver.recv().map_err(|_| SpmdError::ChannelClosed {
                rank: self.rank,
                tag,
            })?;
            if m.tag == tag && src.map(|s| s == m.src).unwrap_or(true) {
                return Ok((m.src, m.payload));
            }
            self.pending.entry(m.tag).or_default().push_back(m);
        }
    }

    /// [`ProcCtx::recv`] with a deadline: gives up with
    /// [`SpmdError::RecvTimeout`] if no matching message arrives within
    /// `timeout`, so a dead peer is detected instead of deadlocking.
    pub fn recv_timeout(
        &mut self,
        src: Option<usize>,
        tag: u64,
        timeout: Duration,
    ) -> Result<(usize, Vec<u8>), SpmdError> {
        self.check_doom()?;
        if let Some(m) = self.take_pending(src, tag) {
            return Ok((m.src, m.payload));
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.receiver.recv_timeout(remaining) {
                Ok(m) => {
                    if m.tag == tag && src.map(|s| s == m.src).unwrap_or(true) {
                        return Ok((m.src, m.payload));
                    }
                    self.pending.entry(m.tag).or_default().push_back(m);
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(SpmdError::RecvTimeout {
                        rank: self.rank,
                        src,
                        tag,
                        waited_ms: timeout.as_millis() as u64,
                    })
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(SpmdError::ChannelClosed {
                        rank: self.rank,
                        tag,
                    })
                }
            }
        }
    }

    /// Receives a slice of `f64` values (see [`ProcCtx::send_f64s`]).
    pub fn recv_f64s(
        &mut self,
        src: Option<usize>,
        tag: u64,
    ) -> Result<(usize, Vec<f64>), SpmdError> {
        let (s, bytes) = self.recv(src, tag)?;
        Ok((s, bytes_to_f64s(&bytes)?))
    }

    /// Synchronises all processors.
    ///
    /// If a participant has left the region (dropped its context) the
    /// barrier is broken and this returns immediately instead of hanging;
    /// use [`ProcCtx::barrier_checked`] where that breakage must surface
    /// as a structured error.
    pub fn barrier(&self) {
        let _ = self.barrier.wait_checked(self.rank, None);
    }

    /// [`ProcCtx::barrier`] with failure reporting and a deadline: fails
    /// with [`SpmdError::BarrierBroken`] when a participant has left the
    /// region, [`SpmdError::RecvTimeout`] (tag [`BARRIER_TAG`]) when
    /// `timeout` elapses first, or [`SpmdError::RankKilled`] when this
    /// rank's own death fuse expires at the synchronisation point.
    pub fn barrier_checked(&self, timeout: Duration) -> Result<(), SpmdError> {
        self.check_doom()?;
        self.barrier.wait_checked(self.rank, Some(timeout))
    }

    /// Charges `flops` floating-point operations of local work to this
    /// processor in the cost model.
    pub fn charge_compute(&self, flops: usize) {
        self.tracker.compute(self.rank, flops);
    }

    /// Global sum of one value per processor; every processor receives the
    /// result (gather to rank 0, then broadcast).
    pub fn allreduce_sum(&mut self, value: f64) -> Result<f64, SpmdError> {
        const TAG_GATHER: u64 = u64::MAX - 1;
        const TAG_BCAST: u64 = u64::MAX - 2;
        if self.num_procs == 1 {
            return Ok(value);
        }
        if self.rank == 0 {
            let mut acc = value;
            for _ in 1..self.num_procs {
                let (_, v) = self.recv_f64s(None, TAG_GATHER)?;
                acc += v[0];
            }
            for dst in 1..self.num_procs {
                self.send_f64s(dst, TAG_BCAST, &[acc])?;
            }
            Ok(acc)
        } else {
            self.send_f64s(0, TAG_GATHER, &[value])?;
            let (_, v) = self.recv_f64s(Some(0), TAG_BCAST)?;
            Ok(v[0])
        }
    }

    /// Global maximum of one value per processor.
    pub fn allreduce_max(&mut self, value: f64) -> Result<f64, SpmdError> {
        const TAG_GATHER: u64 = u64::MAX - 3;
        const TAG_BCAST: u64 = u64::MAX - 4;
        if self.num_procs == 1 {
            return Ok(value);
        }
        if self.rank == 0 {
            let mut acc = value;
            for _ in 1..self.num_procs {
                let (_, v) = self.recv_f64s(None, TAG_GATHER)?;
                acc = acc.max(v[0]);
            }
            for dst in 1..self.num_procs {
                self.send_f64s(dst, TAG_BCAST, &[acc])?;
            }
            Ok(acc)
        } else {
            self.send_f64s(0, TAG_GATHER, &[value])?;
            let (_, v) = self.recv_f64s(Some(0), TAG_BCAST)?;
            Ok(v[0])
        }
    }

    /// Gathers one `f64` slice from every processor onto rank 0; rank 0
    /// receives all slices ordered by rank, other ranks receive an empty
    /// vector.
    pub fn gather_to_root(&mut self, values: &[f64]) -> Result<Vec<Vec<f64>>, SpmdError> {
        const TAG: u64 = u64::MAX - 5;
        if self.rank == 0 {
            let mut out = vec![Vec::new(); self.num_procs];
            out[0] = values.to_vec();
            for _ in 1..self.num_procs {
                let (src, v) = self.recv_f64s(None, TAG)?;
                out[src] = v;
            }
            Ok(out)
        } else {
            self.send_f64s(0, TAG, values)?;
            Ok(Vec::new())
        }
    }
}

/// Encodes a slice of `f64` as little-endian bytes.
pub fn f64s_to_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a little-endian byte buffer into `f64` values.
///
/// A length that is not a multiple of 8 is a truncated or corrupt payload
/// and is rejected with [`SpmdError::TruncatedPayload`] rather than
/// silently dropping the trailing partial value.
pub fn bytes_to_f64s(bytes: &[u8]) -> Result<Vec<f64>, SpmdError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(SpmdError::TruncatedPayload {
            len: bytes.len(),
            elem_bytes: 8,
        });
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8 bytes")))
        .collect())
}

/// Builds the per-rank contexts for an SPMD region over `num_procs`
/// processors sharing `tracker`.  When a death spec is armed, the victim
/// rank's context carries the operation fuse.
fn make_contexts(
    num_procs: usize,
    tracker: &CommTracker,
    death: Option<RankDeathSpec>,
) -> Vec<ProcCtx> {
    let mut senders = Vec::with_capacity(num_procs);
    let mut receivers = Vec::with_capacity(num_procs);
    for _ in 0..num_procs {
        let (s, r) = channel();
        senders.push(s);
        receivers.push(r);
    }
    let barrier = Arc::new(RegionBarrier::new(num_procs));
    receivers
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| ProcCtx {
            rank,
            num_procs,
            senders: senders.clone(),
            receiver,
            pending: HashMap::new(),
            barrier: Arc::clone(&barrier),
            tracker: tracker.clone(),
            doom: death
                .filter(|d| d.victim == rank)
                .map(|d| Cell::new(d.after_ops)),
        })
        .collect()
    // The original sender handles drop here, so each rank's channel closes
    // once every surviving context drops its clones.
}

/// Runs `body` as an SPMD region over `num_procs` simulated processors,
/// one OS thread per processor, and returns the per-processor results in
/// rank order.
///
/// Deadlocks in the body (e.g. mismatched sends/receives) will hang the
/// call, exactly as they would on a real message-passing machine; use
/// [`ProcCtx::recv_timeout`] / [`ProcCtx::recv_wire`] where a peer death
/// must degrade instead.
pub fn run<R, F>(num_procs: usize, tracker: &CommTracker, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut ProcCtx) -> R + Sync,
{
    run_with_death(num_procs, tracker, None, body)
}

/// [`run`] with an optional armed rank death: the victim rank's context
/// carries the spec's operation fuse, so after `after_ops` channel
/// operations every further one fails with [`SpmdError::RankKilled`] and
/// the victim leaves the region, dropping its endpoints.  Survivors then
/// observe [`SpmdError::PeerDead`] on sends to the victim,
/// [`SpmdError::RecvTimeout`] on bounded receives from it, and
/// [`SpmdError::BarrierBroken`] at checked barriers.
pub fn run_with_death<R, F>(
    num_procs: usize,
    tracker: &CommTracker,
    death: Option<RankDeathSpec>,
    body: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut ProcCtx) -> R + Sync,
{
    assert!(num_procs > 0, "SPMD region needs at least one processor");
    let mut contexts = make_contexts(num_procs, tracker, death);
    let body = &body;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(num_procs);
        for mut ctx in contexts.drain(..) {
            handles.push(scope.spawn(move || body(&mut ctx)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("SPMD processor thread panicked"))
            .collect()
    })
}

/// Runs an SPMD region on the parked threads of a [`WorkerPool`] instead
/// of spawning fresh OS threads: the submitting thread hosts rank 0 and
/// `num_procs - 1` pool workers host the remaining ranks.
///
/// Every rank must be hosted concurrently (ranks block in receives waiting
/// for each other), so when the pool is narrower than `num_procs` this
/// falls back to the fresh-spawn [`run`] rather than deadlocking on a
/// clamped dispatch.
pub fn run_on_pool<R, F>(
    pool: &crate::pool::WorkerPool,
    num_procs: usize,
    tracker: &CommTracker,
    body: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut ProcCtx) -> R + Sync,
{
    run_on_pool_with_death(pool, num_procs, tracker, None, body)
}

/// [`run_on_pool`] with an optional armed rank death (see
/// [`run_with_death`]).
pub fn run_on_pool_with_death<R, F>(
    pool: &crate::pool::WorkerPool,
    num_procs: usize,
    tracker: &CommTracker,
    death: Option<RankDeathSpec>,
    body: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut ProcCtx) -> R + Sync,
{
    assert!(num_procs > 0, "SPMD region needs at least one processor");
    if pool.workers() < num_procs {
        return run_with_death(num_procs, tracker, death, body);
    }
    let slots: Vec<Mutex<Option<ProcCtx>>> = make_contexts(num_procs, tracker, death)
        .into_iter()
        .map(|ctx| Mutex::new(Some(ctx)))
        .collect();
    let results: Vec<Mutex<Option<R>>> = (0..num_procs).map(|_| Mutex::new(None)).collect();
    pool.run_limited(num_procs, &|rank| {
        let mut ctx = slots[rank]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("each rank is hosted exactly once");
        let r = body(&mut ctx);
        *results[rank].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
        // `ctx` drops here, closing this rank's sender clones.
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every rank ran")
        })
        .collect()
}

/// Runs `num_items` independent work items over up to `workers` SPMD worker
/// threads (round-robin partition by item index) and returns the results in
/// item order.
///
/// Each work item is one destination processor's share of a communication
/// plan, and the items are embarrassingly parallel (every destination
/// buffer is written by exactly one item).  The worker count is clamped to
/// the item count so no idle threads are spawned.
///
/// Every call pays the full harness setup — fresh OS threads, channels, a
/// barrier — even though copy closures never message each other; this is
/// the *fresh-spawn baseline* the plan executor only uses when no
/// [`crate::pool::WorkerPool`] is attached.  Iterative codes should submit
/// through a pool instead ([`crate::pool::WorkerPool::run_partitioned`],
/// same closure shape), which parks its workers between jobs.
pub fn run_partitioned<R, F>(
    workers: usize,
    tracker: &CommTracker,
    num_items: usize,
    work: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut ProcCtx, usize) -> R + Sync,
{
    if num_items == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, num_items);
    let per_rank: Vec<Vec<(usize, R)>> = run(workers, tracker, |ctx| {
        let mut out = Vec::new();
        let mut item = ctx.rank();
        while item < num_items {
            out.push((item, work(ctx, item)));
            item += ctx.num_procs();
        }
        out
    });
    let mut slots: Vec<Option<R>> = (0..num_items).map(|_| None).collect();
    for rank_items in per_rank {
        for (item, result) in rank_items {
            slots[item] = Some(result);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item is assigned to exactly one rank"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;

    #[test]
    fn ring_shift() {
        let tracker = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.0));
        let results = run(4, &tracker, |ctx| {
            let right = (ctx.rank() + 1) % ctx.num_procs();
            ctx.send_f64s(right, 7, &[ctx.rank() as f64]).unwrap();
            let (src, v) = ctx.recv_f64s(None, 7).unwrap();
            (src, v[0])
        });
        for (rank, (src, v)) in results.iter().enumerate() {
            let left = (rank + 4 - 1) % 4;
            assert_eq!(*src, left);
            assert_eq!(*v, left as f64);
        }
        let stats = tracker.snapshot();
        assert_eq!(stats.total_messages(), 4);
        assert_eq!(stats.total_bytes(), 4 * 8);
        // Real channel traffic reconciles with the modelled counts.
        assert_eq!(stats.channel_messages(), 4);
        assert_eq!(stats.channel_bytes(), 4 * 8);
    }

    #[test]
    fn allreduce_sum_and_max() {
        let tracker = CommTracker::new(5, CostModel::zero());
        let sums = run(5, &tracker, |ctx| {
            ctx.allreduce_sum((ctx.rank() + 1) as f64).unwrap()
        });
        assert!(sums.iter().all(|&s| s == 15.0));
        let maxes = run(5, &tracker, |ctx| {
            ctx.allreduce_max(ctx.rank() as f64).unwrap()
        });
        assert!(maxes.iter().all(|&m| m == 4.0));
    }

    #[test]
    fn single_processor_allreduce_is_identity() {
        let tracker = CommTracker::new(1, CostModel::zero());
        let r = run(1, &tracker, |ctx| ctx.allreduce_sum(42.0).unwrap());
        assert_eq!(r, vec![42.0]);
        assert_eq!(tracker.snapshot().total_messages(), 0);
    }

    #[test]
    fn gather_to_root_collects_in_rank_order() {
        let tracker = CommTracker::new(3, CostModel::zero());
        let results = run(3, &tracker, |ctx| {
            let data = vec![ctx.rank() as f64; ctx.rank() + 1];
            ctx.gather_to_root(&data).unwrap()
        });
        let root = &results[0];
        assert_eq!(root.len(), 3);
        assert_eq!(root[0], vec![0.0]);
        assert_eq!(root[1], vec![1.0, 1.0]);
        assert_eq!(root[2], vec![2.0, 2.0, 2.0]);
        assert!(results[1].is_empty());
    }

    #[test]
    fn tagged_receives_are_matched_out_of_order() {
        let tracker = CommTracker::new(2, CostModel::zero());
        let results = run(2, &tracker, |ctx| {
            if ctx.rank() == 0 {
                ctx.send_f64s(1, 1, &[1.0]).unwrap();
                ctx.send_f64s(1, 2, &[2.0]).unwrap();
                0.0
            } else {
                // Receive tag 2 first even though tag 1 was sent first.
                let (_, b) = ctx.recv_f64s(Some(0), 2).unwrap();
                let (_, a) = ctx.recv_f64s(Some(0), 1).unwrap();
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(results[1], 12.0);
    }

    #[test]
    fn pending_messages_complete_in_arrival_order() {
        // Same-tag messages forced through the pending queue must come
        // back in send (= arrival) order, for both wildcard and
        // specific-source receives.
        let tracker = CommTracker::new(2, CostModel::zero());
        let results = run(2, &tracker, |ctx| {
            if ctx.rank() == 0 {
                for v in [10.0, 11.0, 12.0] {
                    ctx.send_f64s(1, 1, &[v]).unwrap();
                }
                ctx.send_f64s(1, 2, &[99.0]).unwrap();
                Vec::new()
            } else {
                // Receiving tag 2 first drains all three tag-1 messages
                // into the pending queue.
                let (_, sentinel) = ctx.recv_f64s(Some(0), 2).unwrap();
                assert_eq!(sentinel, vec![99.0]);
                let a = ctx.recv_f64s(None, 1).unwrap().1[0];
                let b = ctx.recv_f64s(Some(0), 1).unwrap().1[0];
                let c = ctx.recv_f64s(None, 1).unwrap().1[0];
                vec![a, b, c]
            }
        });
        assert_eq!(results[1], vec![10.0, 11.0, 12.0]);
    }

    #[test]
    fn many_pending_out_of_order_receives() {
        // Receive in reverse tag order so all but one message is matched
        // out of the pending index; formerly an O(n^2) scan over one
        // flat vector.
        const N: usize = 2000;
        let tracker = CommTracker::new(2, CostModel::zero());
        run(2, &tracker, |ctx| {
            if ctx.rank() == 0 {
                for i in 0..N {
                    ctx.send_f64s(1, i as u64, &[i as f64]).unwrap();
                }
            } else {
                for i in (0..N).rev() {
                    let (_, v) = ctx.recv_f64s(Some(0), i as u64).unwrap();
                    assert_eq!(v, vec![i as f64]);
                }
            }
        });
        let stats = tracker.snapshot();
        assert_eq!(stats.total_messages(), N);
        assert_eq!(stats.channel_messages(), N);
    }

    #[test]
    fn send_to_finished_rank_is_structured_error() {
        let tracker = CommTracker::new(2, CostModel::zero());
        let results = run(2, &tracker, |ctx| {
            if ctx.rank() == 1 {
                // Rank 1 leaves the region immediately; its context (and
                // receiver) drop.
                return Ok(());
            }
            // Rank 0 keeps sending until the peer's channel disconnects.
            loop {
                ctx.send(1, 9, vec![0u8; 8])?;
                std::thread::yield_now();
            }
        });
        assert_eq!(
            results[0],
            Err(SpmdError::PeerDead {
                rank: 0,
                peer: 1,
                tag: 9
            })
        );
    }

    #[test]
    fn recv_timeout_detects_dead_peer() {
        let tracker = CommTracker::new(2, CostModel::zero());
        let results = run(2, &tracker, |ctx| {
            if ctx.rank() == 1 {
                return None; // dies without sending
            }
            Some(ctx.recv_timeout(Some(1), 3, Duration::from_millis(20)))
        });
        match &results[0] {
            Some(Err(SpmdError::RecvTimeout {
                rank: 0,
                src: Some(1),
                tag: 3,
                ..
            })) => {}
            other => panic!("expected RecvTimeout, got {other:?}"),
        }
    }

    #[test]
    fn truncated_f64_payload_is_an_error() {
        let bytes = f64s_to_bytes(&[1.0, 2.0]);
        assert_eq!(bytes_to_f64s(&bytes).unwrap(), vec![1.0, 2.0]);
        assert!(bytes_to_f64s(&[]).unwrap().is_empty());
        assert_eq!(
            bytes_to_f64s(&bytes[..15]),
            Err(SpmdError::TruncatedPayload {
                len: 15,
                elem_bytes: 8
            })
        );
    }

    #[test]
    fn wire_frames_round_trip_with_channel_accounting() {
        let tracker = CommTracker::new(2, CostModel::from_alpha_beta(1.0, 0.0));
        let frame = WireFrameMsg {
            seq: 7,
            elements: 2,
            checksum: 0xDEAD_BEEF,
        };
        let results = run(2, &tracker, |ctx| {
            if ctx.rank() == 0 {
                let mut msg = frame.to_bytes().to_vec();
                msg.extend_from_slice(&f64s_to_bytes(&[3.5, -4.25]));
                let sent_at = msg.as_ptr() as usize;
                // A message too short to hold the header never leaves.
                assert_eq!(
                    ctx.send_wire(1, WIRE_TAG, vec![0u8; 10]),
                    Err(SpmdError::MalformedFrame { len: 10 })
                );
                ctx.send_wire(1, WIRE_TAG, msg).unwrap();
                (sent_at, None)
            } else {
                let got = ctx
                    .recv_wire(Some(0), WIRE_TAG, Duration::from_secs(5))
                    .unwrap();
                (got.2.as_ptr() as usize, Some(got))
            }
        });
        // The frame is moved through the channel, not copied: the receiver
        // holds the very allocation the sender built.
        assert_eq!(results[0].0, results[1].0);
        let (src, got_frame, msg) = results[1].1.clone().unwrap();
        assert_eq!(src, 0);
        assert_eq!(got_frame, frame);
        assert_eq!(
            bytes_to_f64s(&msg[WIRE_FRAME_BYTES..]).unwrap(),
            vec![3.5, -4.25]
        );
        let stats = tracker.snapshot();
        // Wire sends count real traffic (payload only) but leave modelled
        // charging to the executor's posted batch.
        assert_eq!(stats.channel_messages(), 1);
        assert_eq!(stats.channel_bytes(), 16);
        assert_eq!(stats.total_messages(), 0);
    }

    #[test]
    fn malformed_wire_frame_is_rejected() {
        assert_eq!(
            WireFrameMsg::from_bytes(&[0u8; 10]),
            Err(SpmdError::MalformedFrame { len: 10 })
        );
        let frame = WireFrameMsg {
            seq: u64::MAX,
            elements: 0,
            checksum: 1,
        };
        assert_eq!(WireFrameMsg::from_bytes(&frame.to_bytes()).unwrap(), frame);
    }

    #[test]
    fn barrier_and_compute_charging() {
        let mut cost = CostModel::zero();
        cost.compute_per_flop = 1.0;
        let tracker = CommTracker::new(3, cost);
        run(3, &tracker, |ctx| {
            ctx.charge_compute(ctx.rank() * 10);
            ctx.barrier();
        });
        let s = tracker.snapshot();
        assert_eq!(s.max_compute_time(), 20.0);
        assert_eq!(s.total_compute_time(), 30.0);
    }

    #[test]
    fn run_on_pool_matches_fresh_spawn() {
        let pool = crate::pool::WorkerPool::new(4);
        let tracker = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.0));
        let results = run_on_pool(&pool, 4, &tracker, |ctx| {
            let right = (ctx.rank() + 1) % ctx.num_procs();
            ctx.send_f64s(right, 7, &[ctx.rank() as f64]).unwrap();
            let (src, v) = ctx.recv_f64s(None, 7).unwrap();
            (src, v[0])
        });
        for (rank, (src, v)) in results.iter().enumerate() {
            let left = (rank + 4 - 1) % 4;
            assert_eq!(*src, left);
            assert_eq!(*v, left as f64);
        }
        // A region wider than the pool falls back to fresh spawns rather
        // than deadlocking on a clamped dispatch.
        let wide_tracker = CommTracker::new(6, CostModel::zero());
        let sums = run_on_pool(&pool, 6, &wide_tracker, |ctx| {
            ctx.allreduce_sum(1.0).unwrap()
        });
        assert_eq!(sums, vec![6.0; 6]);
    }

    #[test]
    fn run_partitioned_returns_items_in_order() {
        let tracker = CommTracker::new(4, CostModel::zero());
        let results = run_partitioned(3, &tracker, 10, |ctx, item| {
            assert!(ctx.rank() < 3);
            item * item
        });
        assert_eq!(results, (0..10).map(|i| i * i).collect::<Vec<_>>());
        // Degenerate shapes: no items, and more workers than items.
        let empty: Vec<usize> = run_partitioned(4, &tracker, 0, |_, item| item);
        assert!(empty.is_empty());
        let single = run_partitioned(8, &tracker, 2, |ctx, item| (ctx.num_procs(), item));
        assert_eq!(single, vec![(2, 0), (2, 1)]);
    }

    #[test]
    fn armed_rank_death_kills_victim_and_survivors_degrade() {
        // 4-rank ring under an armed death of rank 2 with a zero-op fuse:
        // the victim's first channel operation is refused, it leaves the
        // region, and every survivor must get a structured error (never a
        // hang) within a small multiple of the timeout.
        let timeout = Duration::from_millis(100);
        let tracker = CommTracker::new(4, CostModel::zero());
        let death = Some(RankDeathSpec {
            victim: 2,
            after_ops: 0,
        });
        let started = Instant::now();
        let results = run_with_death(4, &tracker, death, |ctx| match ctx.rank() {
            // Victim: its very first channel operation is refused.
            2 => ctx.send_f64s(3, 7, &[2.0]).map(|_| 0.0),
            // Waits on the message the victim never sent.
            3 => ctx.recv_timeout(Some(2), 7, timeout).map(|(_, v)| {
                let vals = bytes_to_f64s(&v).unwrap();
                vals[0]
            }),
            // Keeps sending into the victim's channel until it closes.
            1 => loop {
                ctx.send(2, 8, vec![0u8; 8])?;
                std::thread::yield_now();
            },
            _ => Ok(0.0),
        });
        assert!(
            started.elapsed() < 8 * timeout,
            "dead rank must not wedge the region"
        );
        assert_eq!(results[0], Ok(0.0));
        assert_eq!(results[2], Err(SpmdError::RankKilled { rank: 2 }));
        assert_eq!(
            results[1],
            Err(SpmdError::PeerDead {
                rank: 1,
                peer: 2,
                tag: 8
            })
        );
        assert!(matches!(
            results[3],
            Err(SpmdError::RecvTimeout { rank: 3, .. })
        ));
    }

    #[test]
    fn death_fuse_counts_operations_before_firing() {
        let tracker = CommTracker::new(2, CostModel::zero());
        let death = Some(RankDeathSpec {
            victim: 1,
            after_ops: 2,
        });
        let results = run_with_death(2, &tracker, death, |ctx| {
            if ctx.rank() == 0 {
                // Receive the two messages the victim gets out before
                // dying, then observe its death via timeout.
                let a = ctx.recv_timeout(Some(1), 1, Duration::from_secs(5))?;
                let b = ctx.recv_timeout(Some(1), 2, Duration::from_secs(5))?;
                let dead = ctx.recv_timeout(Some(1), 3, Duration::from_millis(50));
                assert!(matches!(dead, Err(SpmdError::RecvTimeout { .. })));
                Ok((a.1.len() + b.1.len()) as f64)
            } else {
                ctx.send(0, 1, vec![1u8; 8])?;
                ctx.send(0, 2, vec![2u8; 8])?;
                ctx.send(0, 3, vec![3u8; 8])?;
                Ok(0.0)
            }
        });
        assert_eq!(results[0], Ok(16.0));
        assert_eq!(results[1], Err(SpmdError::RankKilled { rank: 1 }));
    }

    #[test]
    fn broken_barrier_releases_survivors() {
        // Rank 1 dies before its barrier; survivors at barrier_checked
        // must fail fast with BarrierBroken, long before the timeout.
        let timeout = Duration::from_secs(30);
        let tracker = CommTracker::new(3, CostModel::zero());
        let death = Some(RankDeathSpec {
            victim: 1,
            after_ops: 0,
        });
        let started = Instant::now();
        let results = run_with_death(3, &tracker, death, |ctx| {
            if ctx.rank() == 1 {
                // The victim's fuse fires at its own checked barrier.
                ctx.barrier_checked(timeout)
            } else {
                ctx.barrier_checked(timeout)
            }
        });
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(results[1], Err(SpmdError::RankKilled { rank: 1 }));
        for rank in [0, 2] {
            assert_eq!(results[rank], Err(SpmdError::BarrierBroken { rank }));
        }
    }

    #[test]
    fn barrier_checked_succeeds_and_times_out() {
        let tracker = CommTracker::new(3, CostModel::zero());
        let oks = run(3, &tracker, |ctx| {
            ctx.barrier_checked(Duration::from_secs(5)).is_ok()
        });
        assert_eq!(oks, vec![true; 3]);
        // A lone late rank times out with the barrier pseudo-tag.
        let tracker2 = CommTracker::new(2, CostModel::zero());
        let results = run(2, &tracker2, |ctx| {
            if ctx.rank() == 0 {
                ctx.barrier_checked(Duration::from_millis(30))
            } else {
                // Rank 1 stays busy (no barrier, no exit) past the
                // deadline so the barrier is late but not broken.
                std::thread::sleep(Duration::from_millis(300));
                Ok(())
            }
        });
        assert!(matches!(
            results[0],
            Err(SpmdError::RecvTimeout {
                rank: 0,
                src: None,
                tag: BARRIER_TAG,
                ..
            })
        ));
    }

    #[test]
    fn f64_byte_round_trip() {
        let values = vec![1.5, -2.25, 0.0, f64::MAX];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&values)).unwrap(), values);
        assert!(bytes_to_f64s(&[]).unwrap().is_empty());
    }
}
