//! Shared communication tracker used by the master-managed runtime.

use crate::fault::FaultInjector;
use crate::{CommStats, CostModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The kind of a collective operation, used for cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Synchronisation barrier (payload-free tree exchange).
    Barrier,
    /// Reduction to a single root (tree).
    Reduce,
    /// Reduction followed by a broadcast (two trees).
    AllReduce,
    /// Broadcast from a root (tree).
    Broadcast,
}

/// A batch of *posted* (initiated but not yet completed) point-to-point
/// messages, returned by [`CommTracker::post_many`].
///
/// Posting computes the modelled duration of every message under the cost
/// model but records nothing; the batch is charged when it is passed to
/// [`CommTracker::wait`].  This split mirrors non-blocking communication on
/// a real machine: an executor posts its sends, performs the local copy
/// work of the transfer, and waits for completion — any local work done
/// between post and wait can be credited as overlap at the wait.
#[derive(Debug)]
#[must_use = "posted messages are only charged when passed to CommTracker::wait"]
pub struct PendingSends {
    /// `(src, dst, bytes, modelled_time)` per message.
    messages: Vec<(usize, usize, usize, f64)>,
    /// Sequence number of the batch's first message on its tracker.
    seq_base: u64,
}

impl PendingSends {
    /// The sequence number of the batch's first message: message `i` of
    /// the batch is message `seq_base() + i` posted on its tracker, which
    /// is what a transport stamps into that message's wire frame.  The
    /// numbers depend only on what was posted on this tracker (and its
    /// clones) before, never on other trackers in the process.
    pub fn seq_base(&self) -> u64 {
        self.seq_base
    }

    /// Number of posted messages (messages to self excluded — they are
    /// free, as in [`CommTracker::send`]).
    pub fn num_messages(&self) -> usize {
        self.messages.iter().filter(|m| m.0 != m.1).count()
    }

    /// Total posted bytes (messages to self excluded).
    pub fn total_bytes(&self) -> usize {
        self.messages
            .iter()
            .filter(|m| m.0 != m.1)
            .map(|m| m.2)
            .sum()
    }
}

/// A thread-safe accumulator of communication and computation events,
/// evaluated against a [`CostModel`].
///
/// The Vienna Fortran Engine's runtime operations (ghost-area exchange,
/// `DISTRIBUTE` data motion, inspector/executor gathers, reductions) report
/// every simulated message here; the experiment harness then reads the
/// resulting [`CommStats`].  The tracker is cheaply cloneable (an `Arc`
/// around a mutex-protected interior) so that the runtime, applications and
/// benches can all hold handles to the same accounting state.
#[derive(Debug, Clone)]
pub struct CommTracker {
    cost: CostModel,
    stats: Arc<Mutex<CommStats>>,
    /// Messages posted so far — the next batch's [`PendingSends::seq_base`].
    /// A statistic that publishes no other data, hence `Relaxed`.
    next_seq: Arc<AtomicU64>,
    injector: Option<Arc<FaultInjector>>,
}

impl CommTracker {
    /// Creates a tracker for `num_procs` processors under `cost`.
    pub fn new(num_procs: usize, cost: CostModel) -> Self {
        Self {
            cost,
            stats: Arc::new(Mutex::new(CommStats::new(num_procs))),
            next_seq: Arc::default(),
            injector: None,
        }
    }

    /// Attaches a [`FaultInjector`]: posted batches and page fetches may
    /// then suffer injected transient failures and delays, and the
    /// executors holding this tracker poll the injector for corruption,
    /// worker-death and cancellation faults.
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The shared counters.  A panic while they were held (a failed test
    /// assertion on another thread, say) leaves them consistent enough to
    /// keep counting, so poisoning is ignored rather than propagated.
    fn stats(&self) -> MutexGuard<'_, CommStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Number of processors being tracked.
    pub fn num_procs(&self) -> usize {
        self.stats().num_procs()
    }

    /// Records a point-to-point message of `bytes` bytes from `src` to
    /// `dst`; messages to self are free.
    pub fn send(&self, src: usize, dst: usize, bytes: usize) {
        if src == dst {
            return;
        }
        let t = self.cost.message_time_between(bytes, src, dst);
        self.stats().record_message(src, dst, bytes, t);
    }

    /// Counts one message of `bytes` payload bytes *actually carried* over
    /// an spmd channel.  This is the real-traffic side of the modelled
    /// ledger: shared-memory executors never call it, the sharded backend
    /// calls it once per wire send, and differential tests assert the two
    /// sides agree (`channel_bytes == modelled wire bytes`).
    pub fn record_channel_message(&self, bytes: usize) {
        self.stats().record_channel_message(bytes);
    }

    /// Counts `bytes` written to a checkpoint file (segments plus manifest
    /// framing) — the persistence side of the traffic ledger.
    pub fn record_ckpt_write(&self, bytes: usize) {
        self.stats().record_ckpt_write(bytes);
    }

    /// Counts `bytes` read back from a checkpoint file during restore.
    pub fn record_ckpt_read(&self, bytes: usize) {
        self.stats().record_ckpt_read(bytes);
    }

    /// Records a batch of point-to-point messages `(src, dst, bytes)` under
    /// a single lock acquisition — the aggregated charge a communication
    /// plan makes after executing all of its transfers.  Messages to self
    /// are free, as in [`CommTracker::send`].
    pub fn send_many<I>(&self, messages: I)
    where
        I: IntoIterator<Item = (usize, usize, usize)>,
    {
        let mut stats = self.stats();
        for (src, dst, bytes) in messages {
            if src == dst {
                continue;
            }
            let t = self.cost.message_time_between(bytes, src, dst);
            stats.record_message(src, dst, bytes, t);
        }
    }

    /// Posts a batch of point-to-point messages `(src, dst, bytes)` without
    /// recording them: the modelled duration of each message is computed
    /// now (against the current cost model), the charge happens when the
    /// returned [`PendingSends`] is passed to [`CommTracker::wait`].
    ///
    /// `post_many` + `wait(.., 0.0)` charges exactly what
    /// [`CommTracker::send_many`] charges for the same batch.
    /// With a fault injector attached, posting is also the *message post*
    /// injection point: a transient send failure adds the modelled
    /// retransmissions plus exponential backoff to one message's duration
    /// (and counts the retries), a delayed delivery adds extra latency.
    /// Message and byte counts stay those of the logical batch.
    ///
    /// Posting also numbers the batch's messages consecutively after
    /// everything posted on this tracker before
    /// ([`PendingSends::seq_base`]).
    pub fn post_many<I>(&self, messages: I) -> PendingSends
    where
        I: IntoIterator<Item = (usize, usize, usize)>,
    {
        let mut messages: Vec<_> = messages
            .into_iter()
            .map(|(src, dst, bytes)| {
                (
                    src,
                    dst,
                    bytes,
                    self.cost.message_time_between(bytes, src, dst),
                )
            })
            .collect();
        if let Some(inj) = &self.injector {
            self.inject_post_faults(inj, &mut messages);
        }
        let seq_base = self
            .next_seq
            .fetch_add(messages.len() as u64, Ordering::Relaxed);
        PendingSends { messages, seq_base }
    }

    /// Applies message-post faults to a freshly posted batch (self
    /// messages are never victims — they are free and carry no wire).
    fn inject_post_faults(&self, inj: &FaultInjector, messages: &mut [(usize, usize, usize, f64)]) {
        let crossing: Vec<usize> = messages
            .iter()
            .enumerate()
            .filter(|(_, m)| m.0 != m.1)
            .map(|(i, _)| i)
            .collect();
        if crossing.is_empty() {
            return;
        }
        let mut faults = 0;
        let mut retries = 0;
        if let Some(attempts) = inj.transient_send() {
            let k = crossing[inj.pick(crossing.len())];
            let base = messages[k].3;
            messages[k].3 += attempts as f64 * base + inj.plan().backoff_seconds(attempts);
            faults += 1;
            retries += attempts;
        }
        if let Some(delay) = inj.delayed_delivery() {
            let k = crossing[inj.pick(crossing.len())];
            messages[k].3 += delay;
            faults += 1;
        }
        if faults > 0 {
            let mut stats = self.stats();
            stats.record_faults(faults);
            stats.record_retries(retries);
        }
    }

    /// [`CommTracker::send_many`] for translation-page fetches — the
    /// *page fetch* injection point.  With an injector attached, one fetch
    /// of the batch may fail transiently: its modelled retransmissions
    /// plus backoff are charged to both endpoints and the retries
    /// counted.
    pub fn send_page_fetches<I>(&self, messages: I)
    where
        I: IntoIterator<Item = (usize, usize, usize)>,
    {
        let messages: Vec<_> = messages.into_iter().collect();
        crate::trace::instant_n(
            crate::trace::Phase::PageFetch,
            messages.iter().filter(|m| m.0 != m.1).count(),
        );
        let fault = self.injector.as_ref().and_then(|inj| {
            let crossing: Vec<usize> = messages
                .iter()
                .enumerate()
                .filter(|(_, m)| m.0 != m.1)
                .map(|(i, _)| i)
                .collect();
            if crossing.is_empty() {
                return None;
            }
            inj.transient_send().map(|attempts| {
                (
                    crossing[inj.pick(crossing.len())],
                    attempts,
                    inj.plan().backoff_seconds(attempts),
                )
            })
        });
        let mut stats = self.stats();
        for (i, &(src, dst, bytes)) in messages.iter().enumerate() {
            if src == dst {
                continue;
            }
            let t = self.cost.message_time_between(bytes, src, dst);
            stats.record_message(src, dst, bytes, t);
            if let Some((k, attempts, backoff)) = fault {
                if k == i {
                    let extra = attempts as f64 * t + backoff;
                    stats.proc_mut(src).comm_time += extra;
                    stats.proc_mut(dst).comm_time += extra;
                }
            }
        }
        if let Some((_, attempts, _)) = fault {
            stats.record_faults(1);
            stats.record_retries(attempts);
        }
    }

    /// Charges `attempts` modelled retransmissions of a `(src → dst,
    /// bytes)` message plus exponential backoff as communication time on
    /// both endpoints, and counts the retries — what the wire executors
    /// charge when a frame checksum detects corruption and the payload is
    /// resent.
    pub fn charge_retransmissions(&self, src: usize, dst: usize, bytes: usize, attempts: usize) {
        if attempts == 0 || src == dst {
            return;
        }
        let backoff = self
            .injector
            .as_ref()
            .map(|i| i.plan().backoff_seconds(attempts))
            .unwrap_or(0.0);
        let t = attempts as f64 * self.cost.message_time_between(bytes, src, dst) + backoff;
        let mut stats = self.stats();
        stats.proc_mut(src).comm_time += t;
        stats.proc_mut(dst).comm_time += t;
        stats.record_retries(attempts);
    }

    /// Counts one injected fault acted upon by the execution stack.
    pub fn record_fault(&self) {
        self.stats().record_faults(1);
    }

    /// Counts one degraded-mode transition (full pool → survivors/serial,
    /// split-phase → blocking).
    pub fn record_fallback(&self) {
        self.stats().record_fallbacks(1);
    }

    /// Flushes fault counters accumulated off-thread (e.g. by streaming
    /// unpack workers) into the statistics in one lock acquisition.
    pub fn record_fault_counters(&self, faults: usize, retries: usize, fallbacks: usize) {
        if faults == 0 && retries == 0 && fallbacks == 0 {
            return;
        }
        let mut stats = self.stats();
        stats.record_faults(faults);
        stats.record_retries(retries);
        stats.record_fallbacks(fallbacks);
    }

    /// Completes a posted batch: message and byte counts are recorded in
    /// full, and each processor's communication time is charged only for
    /// the portion not hidden behind `overlap_seconds` of local work
    /// performed between the post and the wait (the overlap credit is
    /// applied per processor, not per message).  Messages to self are
    /// free, as everywhere else.
    pub fn wait(&self, pending: PendingSends, overlap_seconds: f64) {
        self.wait_with(pending, |_| overlap_seconds)
    }

    /// [`CommTracker::wait`] with a *per-processor* overlap credit:
    /// `overlap[p]` seconds of local work performed by processor `p`
    /// between the post and the wait (processors beyond the slice get no
    /// credit).  The executors use this to credit each destination's copy
    /// (packing) time against its own communication, the way non-blocking
    /// receives hide transfer time behind unpacking on a real machine.
    pub fn wait_overlapped(&self, pending: PendingSends, overlap: &[f64]) {
        self.wait_with(pending, |p| overlap.get(p).copied().unwrap_or(0.0))
    }

    fn wait_with(&self, pending: PendingSends, overlap_of: impl Fn(usize) -> f64) {
        let mut stats = self.stats();
        let mut per_proc_time = vec![0.0f64; stats.num_procs()];
        for (src, dst, bytes, t) in pending.messages {
            if src == dst {
                continue;
            }
            let s = stats.proc_mut(src);
            s.messages_sent += 1;
            s.bytes_sent += bytes;
            let d = stats.proc_mut(dst);
            d.messages_received += 1;
            d.bytes_received += bytes;
            per_proc_time[src] += t;
            per_proc_time[dst] += t;
        }
        let mut credited = 0.0;
        for (p, t) in per_proc_time.into_iter().enumerate() {
            if t > 0.0 {
                let overlap = overlap_of(p);
                stats.proc_mut(p).comm_time += (t - overlap).max(0.0);
                credited += t.min(overlap.max(0.0));
            }
        }
        stats.record_credited_overlap(credited);
    }

    /// Records `seconds` of *measured* wall-clock compute/communication
    /// overlap — real time unpack workers were busy between a split-phase
    /// post and its wait.  This is the measurement the modelled overlap
    /// credit (accumulated by the waits) is validated against; blocking
    /// paths never report any.
    pub fn record_measured_overlap(&self, seconds: f64) {
        self.stats().record_measured_overlap(seconds);
    }

    /// Records `flops` floating-point operations on `proc`.
    pub fn compute(&self, proc: usize, flops: usize) {
        if flops == 0 {
            return;
        }
        let t = self.cost.compute_time(flops);
        self.stats().record_compute(proc, t);
    }

    /// Records `seconds` of local (non-flop) work on `proc` — memory
    /// copies, packing, directory maintenance.  Zero-duration charges are
    /// dropped.
    pub fn compute_seconds(&self, proc: usize, seconds: f64) {
        if seconds <= 0.0 {
            return;
        }
        self.stats().record_compute(proc, seconds);
    }

    /// Records a collective operation over all processors with per-stage
    /// payload `bytes`; the modelled cost is charged as communication time
    /// to every participant (log₂ P stages of one message each).
    pub fn collective(&self, kind: CollectiveKind, bytes: usize) {
        let mut stats = self.stats();
        let n = stats.num_procs();
        if n <= 1 {
            return;
        }
        let stages = match kind {
            CollectiveKind::AllReduce => 2.0,
            _ => 1.0,
        } * (n as f64).log2().ceil();
        let per_proc_time = stages * self.cost.message_time(bytes);
        let per_proc_msgs = stages as usize;
        for p in 0..n {
            let s = stats.proc_mut(p);
            s.messages_sent += per_proc_msgs;
            s.messages_received += per_proc_msgs;
            s.bytes_sent += per_proc_msgs * bytes;
            s.bytes_received += per_proc_msgs * bytes;
            s.comm_time += per_proc_time;
        }
    }

    /// A snapshot of the accumulated statistics.
    pub fn snapshot(&self) -> CommStats {
        self.stats().clone()
    }

    /// Resets the accumulated statistics to zero and returns the previous
    /// values — convenient for per-phase accounting.
    pub fn take(&self) -> CommStats {
        let mut stats = self.stats();
        let out = stats.clone();
        stats.reset();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_accumulates_messages() {
        let t = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        t.send(0, 1, 10);
        t.send(0, 0, 10); // free
        t.send(2, 3, 4);
        let s = t.snapshot();
        assert_eq!(s.total_messages(), 2);
        assert_eq!(s.total_bytes(), 14);
        assert!((s.per_proc()[0].comm_time - 6.0).abs() < 1e-12);
    }

    #[test]
    fn send_many_matches_individual_sends() {
        let batch = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        let single = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        let messages = [(0usize, 1usize, 10usize), (2, 3, 4), (1, 1, 99), (3, 0, 7)];
        batch.send_many(messages);
        for (s, d, b) in messages {
            single.send(s, d, b);
        }
        assert_eq!(batch.snapshot(), single.snapshot());
        assert_eq!(batch.snapshot().total_messages(), 3); // self-send is free
    }

    #[test]
    fn post_wait_without_overlap_matches_send_many() {
        let posted = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        let direct = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        let messages = [(0usize, 1usize, 10usize), (2, 3, 4), (1, 1, 99), (3, 0, 7)];
        let pending = posted.post_many(messages);
        assert_eq!(pending.num_messages(), 3);
        assert_eq!(pending.total_bytes(), 21);
        // Nothing is recorded until the wait.
        assert_eq!(posted.snapshot().total_messages(), 0);
        posted.wait(pending, 0.0);
        direct.send_many(messages);
        assert_eq!(posted.snapshot(), direct.snapshot());
    }

    #[test]
    fn posted_batches_are_numbered_per_tracker() {
        let t = CommTracker::new(4, CostModel::zero());
        let other = CommTracker::new(4, CostModel::zero());
        let first = t.post_many([(0usize, 1usize, 8usize), (1, 2, 8), (2, 3, 8)]);
        // Posting elsewhere — and not yet waiting here — changes nothing.
        let elsewhere = other.post_many([(0usize, 1usize, 8usize)]);
        let second = t.clone().post_many([(3usize, 0usize, 8usize)]);
        assert_eq!(
            (first.seq_base(), second.seq_base(), elsewhere.seq_base()),
            (0, 3, 0)
        );
        t.wait(first, 0.0);
        t.wait(second, 0.0);
        other.wait(elsewhere, 0.0);
        // `take` resets the statistics, not the numbering.
        t.take();
        let third = t.post_many([(0usize, 1usize, 8usize)]);
        assert_eq!(third.seq_base(), 4);
        t.wait(third, 0.0);
    }

    #[test]
    fn wait_overlap_hides_communication_behind_local_work() {
        let t = CommTracker::new(2, CostModel::from_alpha_beta(1.0, 0.0));
        let pending = t.post_many([(0usize, 1usize, 8usize)]);
        // One message of modelled time 1.0 on each endpoint; half of it is
        // hidden behind 0.5 s of overlapped local work.
        t.wait(pending, 0.5);
        let s = t.snapshot();
        assert_eq!(s.total_messages(), 1);
        assert_eq!(s.total_bytes(), 8);
        assert!((s.per_proc()[0].comm_time - 0.5).abs() < 1e-12);
        assert!((s.per_proc()[1].comm_time - 0.5).abs() < 1e-12);
        // Overlap can hide communication entirely, but never goes negative.
        let pending = t.post_many([(1usize, 0usize, 8usize)]);
        t.wait(pending, 10.0);
        let s = t.snapshot();
        assert_eq!(s.total_messages(), 2);
        assert!((s.per_proc()[0].comm_time - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_proc_overlap_credits_each_endpoint_separately() {
        let t = CommTracker::new(3, CostModel::from_alpha_beta(1.0, 0.0));
        let pending = t.post_many([(0usize, 1usize, 8usize), (0, 2, 8)]);
        // P0 posted two messages (2.0 s), P1 and P2 one each (1.0 s).  P1
        // overlapped 0.75 s of packing, P2 more than its whole wait.
        t.wait_overlapped(pending, &[0.0, 0.75, 5.0]);
        let s = t.snapshot();
        assert!((s.per_proc()[0].comm_time - 2.0).abs() < 1e-12);
        assert!((s.per_proc()[1].comm_time - 0.25).abs() < 1e-12);
        assert_eq!(s.per_proc()[2].comm_time, 0.0);
        // A short credit slice defaults the missing processors to zero.
        let pending = t.post_many([(2usize, 0usize, 8usize)]);
        t.wait_overlapped(pending, &[]);
        assert!((t.snapshot().per_proc()[0].comm_time - 3.0).abs() < 1e-12);
    }

    #[test]
    fn waits_accumulate_the_overlap_credit() {
        let t = CommTracker::new(3, CostModel::from_alpha_beta(1.0, 0.0));
        let pending = t.post_many([(0usize, 1usize, 8usize), (0, 2, 8)]);
        // P0 posted 2.0 s but only 0.5 s is overlapped; P1 fully hides its
        // 1.0 s; P2 gets no credit (see wait_overlapped semantics).
        t.wait_overlapped(pending, &[0.5, 5.0, 0.0]);
        let s = t.snapshot();
        assert!((s.credited_overlap_seconds() - 1.5).abs() < 1e-12);
        assert_eq!(s.measured_overlap_seconds(), 0.0);
        t.record_measured_overlap(0.25);
        t.record_measured_overlap(-1.0); // dropped
        assert!((t.snapshot().measured_overlap_seconds() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn compute_seconds_records_directly() {
        let t = CommTracker::new(2, CostModel::zero());
        t.compute_seconds(1, 0.5);
        t.compute_seconds(1, 0.0);
        t.compute_seconds(0, -1.0);
        let s = t.snapshot();
        assert_eq!(s.per_proc()[1].compute_time, 0.5);
        assert_eq!(s.per_proc()[0].compute_time, 0.0);
    }

    #[test]
    fn clones_share_state() {
        let t = CommTracker::new(2, CostModel::zero());
        let t2 = t.clone();
        t2.send(0, 1, 100);
        assert_eq!(t.snapshot().total_bytes(), 100);
        assert_eq!(t.num_procs(), 2);
    }

    #[test]
    fn compute_charges_flops() {
        let mut cost = CostModel::zero();
        cost.compute_per_flop = 2.0;
        let t = CommTracker::new(2, cost);
        t.compute(1, 5);
        t.compute(1, 0);
        let s = t.snapshot();
        assert!((s.per_proc()[1].compute_time - 10.0).abs() < 1e-12);
        assert_eq!(s.per_proc()[0].compute_time, 0.0);
    }

    #[test]
    fn collective_charges_every_processor() {
        let t = CommTracker::new(8, CostModel::from_alpha_beta(1.0, 0.0));
        t.collective(CollectiveKind::Reduce, 8);
        let s = t.snapshot();
        // log2(8) = 3 stages of one message on each processor.
        for p in s.per_proc() {
            assert_eq!(p.messages_sent, 3);
            assert!((p.comm_time - 3.0).abs() < 1e-12);
        }
        let t1 = CommTracker::new(1, CostModel::from_alpha_beta(1.0, 0.0));
        t1.collective(CollectiveKind::Barrier, 0);
        assert_eq!(t1.snapshot().total_messages(), 0);
    }

    #[test]
    fn allreduce_is_two_trees() {
        let t = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.0));
        t.collective(CollectiveKind::AllReduce, 0);
        let s = t.snapshot();
        assert_eq!(s.per_proc()[0].messages_sent, 4); // 2 * log2(4)
    }

    #[test]
    fn injected_transient_send_charges_retries() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan};
        let plan = FaultPlan::new(1)
            .with_rate(1.0)
            .with_kinds(&[FaultKind::TransientSend]);
        let inj = Arc::new(FaultInjector::new(plan));
        let t = CommTracker::new(2, CostModel::from_alpha_beta(1.0, 0.0))
            .with_fault_injector(Arc::clone(&inj));
        let pending = t.post_many([(0usize, 1usize, 8usize)]);
        t.wait(pending, 0.0);
        let s = t.snapshot();
        assert_eq!(s.faults_injected(), inj.faults_injected());
        assert_eq!(s.retries(), inj.expected_retries());
        assert!(s.retries() >= 1);
        // The logical message count is unchanged; only time grows.
        assert_eq!(s.total_messages(), 1);
        assert!(s.per_proc()[0].comm_time > 1.0);
    }

    #[test]
    fn self_only_batches_are_never_fault_victims() {
        use crate::fault::{FaultInjector, FaultPlan};
        let inj = Arc::new(FaultInjector::new(FaultPlan::new(2).with_rate(1.0)));
        let t = CommTracker::new(2, CostModel::from_alpha_beta(1.0, 0.0)).with_fault_injector(inj);
        let pending = t.post_many([(1usize, 1usize, 8usize)]);
        t.wait(pending, 0.0);
        let s = t.snapshot();
        assert_eq!(s.faults_injected(), 0);
        assert_eq!(s.retries(), 0);
    }

    #[test]
    fn page_fetches_match_send_many_without_injector() {
        let a = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        let b = CommTracker::new(4, CostModel::from_alpha_beta(1.0, 0.5));
        let messages = [(0usize, 1usize, 10usize), (2, 3, 4), (1, 1, 99)];
        a.send_page_fetches(messages);
        b.send_many(messages);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn page_fetch_faults_add_time_and_retries() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan};
        let plan = FaultPlan::new(6)
            .with_rate(1.0)
            .with_kinds(&[FaultKind::TransientSend]);
        let inj = Arc::new(FaultInjector::new(plan));
        let t = CommTracker::new(2, CostModel::from_alpha_beta(1.0, 0.0))
            .with_fault_injector(Arc::clone(&inj));
        t.send_page_fetches([(0usize, 1usize, 8usize)]);
        let s = t.snapshot();
        assert_eq!(s.faults_injected(), 1);
        assert_eq!(s.retries(), inj.expected_retries());
        assert!(s.per_proc()[1].comm_time > 1.0);
    }

    #[test]
    fn charge_retransmissions_counts_and_charges() {
        let t = CommTracker::new(2, CostModel::from_alpha_beta(1.0, 0.0));
        t.charge_retransmissions(0, 1, 8, 2);
        let s = t.snapshot();
        assert_eq!(s.retries(), 2);
        assert!((s.per_proc()[0].comm_time - 2.0).abs() < 1e-12);
        assert!((s.per_proc()[1].comm_time - 2.0).abs() < 1e-12);
        // Self messages and zero attempts are no-ops.
        t.charge_retransmissions(1, 1, 8, 3);
        t.charge_retransmissions(0, 1, 8, 0);
        assert_eq!(t.snapshot().retries(), 2);
    }

    #[test]
    fn fault_counter_records_accumulate() {
        let t = CommTracker::new(2, CostModel::zero());
        t.record_fault();
        t.record_fallback();
        t.record_fault_counters(2, 3, 1);
        t.record_fault_counters(0, 0, 0); // no-op
        let s = t.snapshot();
        assert_eq!(s.faults_injected(), 3);
        assert_eq!(s.retries(), 3);
        assert_eq!(s.fallbacks(), 2);
    }

    #[test]
    fn take_resets() {
        let t = CommTracker::new(2, CostModel::zero());
        t.send(0, 1, 7);
        let first = t.take();
        assert_eq!(first.total_bytes(), 7);
        assert_eq!(t.snapshot().total_bytes(), 0);
    }
}
