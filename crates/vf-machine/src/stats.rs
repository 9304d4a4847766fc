//! Communication and computation statistics.

use std::fmt;
use std::ops::AddAssign;

/// Statistics accumulated for a single simulated processor.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStats {
    /// Number of point-to-point messages sent by the processor.
    pub messages_sent: usize,
    /// Number of point-to-point messages received by the processor.
    pub messages_received: usize,
    /// Bytes sent by the processor.
    pub bytes_sent: usize,
    /// Bytes received by the processor.
    pub bytes_received: usize,
    /// Modelled communication time spent by the processor in seconds.
    pub comm_time: f64,
    /// Modelled computation time spent by the processor in seconds.
    pub compute_time: f64,
}

impl ProcStats {
    /// Modelled total busy time of the processor.
    pub fn total_time(&self) -> f64 {
        self.comm_time + self.compute_time
    }
}

impl AddAssign for ProcStats {
    fn add_assign(&mut self, rhs: Self) {
        self.messages_sent += rhs.messages_sent;
        self.messages_received += rhs.messages_received;
        self.bytes_sent += rhs.bytes_sent;
        self.bytes_received += rhs.bytes_received;
        self.comm_time += rhs.comm_time;
        self.compute_time += rhs.compute_time;
    }
}

/// Aggregated statistics for a whole operation or program phase.
///
/// The modelled *execution time* of an SPMD phase is the maximum over
/// processors of their busy time ([`CommStats::critical_time`]), which is
/// what the experiment harness reports alongside raw message and byte
/// counts.
#[derive(Debug, Clone, PartialEq)]
pub struct CommStats {
    per_proc: Vec<ProcStats>,
    /// Modelled communication seconds hidden behind overlapped local work,
    /// summed over processors — the overlap *credit* the cost model grants
    /// at each wait (`Σ_p min(posted_time_p, overlap_p)`).
    credited_overlap_seconds: f64,
    /// Measured wall-clock seconds of real compute/communication overlap
    /// reported by split-phase executions (time the unpack workers were
    /// busy while the submitter ran interior work between post and wait).
    /// Zero on blocking paths; this is the measurement the overlap credit
    /// is validated against.
    measured_overlap_seconds: f64,
    /// Modelled message retransmissions performed by the recovery paths
    /// (transient send failures, detected wire corruption).  Always zero
    /// on fault-free runs.
    retries: usize,
    /// Faults the [`FaultInjector`](crate::FaultInjector) fired and the
    /// stack acted upon; chaos tests assert this matches the injector's
    /// own count.
    faults_injected: usize,
    /// Degraded-mode transitions taken (pooled → fresh-spawn/serial on a
    /// worker death, split-phase → blocking on a cancelled handle).
    fallbacks: usize,
    /// Messages *actually carried* over [`spmd`](crate::spmd) channels, as
    /// opposed to the modelled counts in `per_proc`.  On shared-memory
    /// executors this stays zero; the sharded backend records every real
    /// wire send here so the cost model can be cross-checked against
    /// counted traffic.
    channel_messages: usize,
    /// Payload bytes actually carried over spmd channels (framing headers
    /// excluded, so a correct wire path satisfies
    /// `channel_bytes == modelled wire bytes` exactly).
    channel_bytes: usize,
    /// Bytes written to checkpoint files (segments plus manifest framing),
    /// so persistence traffic shows up next to communication traffic and
    /// the byte-conservation guards can cover it.
    ckpt_bytes_written: usize,
    /// Bytes read back from checkpoint files during restore.
    ckpt_bytes_read: usize,
}

impl CommStats {
    /// Creates empty statistics for `num_procs` processors.
    pub fn new(num_procs: usize) -> Self {
        Self {
            per_proc: vec![ProcStats::default(); num_procs],
            credited_overlap_seconds: 0.0,
            measured_overlap_seconds: 0.0,
            retries: 0,
            faults_injected: 0,
            fallbacks: 0,
            channel_messages: 0,
            channel_bytes: 0,
            ckpt_bytes_written: 0,
            ckpt_bytes_read: 0,
        }
    }

    /// Number of processors tracked.
    pub fn num_procs(&self) -> usize {
        self.per_proc.len()
    }

    /// The per-processor statistics.
    pub fn per_proc(&self) -> &[ProcStats] {
        &self.per_proc
    }

    /// Mutable access to one processor's statistics.
    pub fn proc_mut(&mut self, proc: usize) -> &mut ProcStats {
        &mut self.per_proc[proc]
    }

    /// Records a point-to-point message of `bytes` bytes from `src` to
    /// `dst` with modelled duration `time` (charged to both endpoints).
    pub fn record_message(&mut self, src: usize, dst: usize, bytes: usize, time: f64) {
        if src == dst {
            return; // local copies are free in the model
        }
        let s = &mut self.per_proc[src];
        s.messages_sent += 1;
        s.bytes_sent += bytes;
        s.comm_time += time;
        let d = &mut self.per_proc[dst];
        d.messages_received += 1;
        d.bytes_received += bytes;
        d.comm_time += time;
    }

    /// Records `flops` floating-point operations on `proc` with modelled
    /// duration `time`.
    pub fn record_compute(&mut self, proc: usize, time: f64) {
        self.per_proc[proc].compute_time += time;
    }

    /// Total number of point-to-point messages (counted once per message).
    pub fn total_messages(&self) -> usize {
        self.per_proc.iter().map(|p| p.messages_sent).sum()
    }

    /// Total bytes transferred (counted once per message).
    pub fn total_bytes(&self) -> usize {
        self.per_proc.iter().map(|p| p.bytes_sent).sum()
    }

    /// Total modelled compute time summed over processors.
    pub fn total_compute_time(&self) -> f64 {
        self.per_proc.iter().map(|p| p.compute_time).sum()
    }

    /// Total modelled communication time summed over processors.
    pub fn total_comm_time(&self) -> f64 {
        self.per_proc.iter().map(|p| p.comm_time).sum()
    }

    /// The modelled execution time of the phase: the maximum over
    /// processors of communication plus computation time.
    pub fn critical_time(&self) -> f64 {
        self.per_proc
            .iter()
            .map(|p| p.total_time())
            .fold(0.0, f64::max)
    }

    /// Maximum over processors of the modelled compute time — used together
    /// with [`CommStats::avg_compute_time`] to quantify load imbalance in
    /// the PIC experiment (E3).
    pub fn max_compute_time(&self) -> f64 {
        self.per_proc
            .iter()
            .map(|p| p.compute_time)
            .fold(0.0, f64::max)
    }

    /// Mean over processors of the modelled compute time.
    pub fn avg_compute_time(&self) -> f64 {
        if self.per_proc.is_empty() {
            return 0.0;
        }
        self.total_compute_time() / self.per_proc.len() as f64
    }

    /// Load imbalance factor: max/avg compute time (1.0 = perfectly
    /// balanced).  Returns 1.0 when there is no compute at all.
    pub fn load_imbalance(&self) -> f64 {
        let avg = self.avg_compute_time();
        if avg == 0.0 {
            1.0
        } else {
            self.max_compute_time() / avg
        }
    }

    /// Modelled communication seconds hidden behind overlapped local work
    /// (summed over processors and waits).
    pub fn credited_overlap_seconds(&self) -> f64 {
        self.credited_overlap_seconds
    }

    /// Measured wall-clock overlap seconds reported by split-phase
    /// executions (zero on blocking paths).
    pub fn measured_overlap_seconds(&self) -> f64 {
        self.measured_overlap_seconds
    }

    /// Accumulates modelled overlap credit (non-positive values dropped).
    pub fn record_credited_overlap(&mut self, seconds: f64) {
        if seconds > 0.0 {
            self.credited_overlap_seconds += seconds;
        }
    }

    /// Accumulates measured wall-clock overlap (non-positive values
    /// dropped).
    pub fn record_measured_overlap(&mut self, seconds: f64) {
        if seconds > 0.0 {
            self.measured_overlap_seconds += seconds;
        }
    }

    /// Modelled message retransmissions performed by the recovery paths.
    pub fn retries(&self) -> usize {
        self.retries
    }

    /// Injected faults the execution stack acted upon.
    pub fn faults_injected(&self) -> usize {
        self.faults_injected
    }

    /// Degraded-mode transitions taken.
    pub fn fallbacks(&self) -> usize {
        self.fallbacks
    }

    /// Counts `n` modelled retransmissions.  This is the single choke
    /// point every recovery path funnels through, so the matching trace
    /// events equal the counter by construction ([`merge`](CommStats::merge)
    /// aggregates already-counted stats and does not re-emit).
    pub fn record_retries(&mut self, n: usize) {
        self.retries += n;
        crate::trace::instant_n(crate::trace::Phase::Retry, n);
    }

    /// Counts `n` injected faults acted upon.
    pub fn record_faults(&mut self, n: usize) {
        self.faults_injected += n;
        crate::trace::instant_n(crate::trace::Phase::Fault, n);
    }

    /// Counts `n` degraded-mode transitions.
    pub fn record_fallbacks(&mut self, n: usize) {
        self.fallbacks += n;
        crate::trace::instant_n(crate::trace::Phase::Fallback, n);
    }

    /// Messages actually carried over spmd channels (zero on
    /// shared-memory executors).
    pub fn channel_messages(&self) -> usize {
        self.channel_messages
    }

    /// Payload bytes actually carried over spmd channels (framing headers
    /// excluded).
    pub fn channel_bytes(&self) -> usize {
        self.channel_bytes
    }

    /// Counts one real channel message of `bytes` payload bytes.
    pub fn record_channel_message(&mut self, bytes: usize) {
        self.channel_messages += 1;
        self.channel_bytes += bytes;
    }

    /// Bytes written to checkpoint files so far.
    pub fn ckpt_bytes_written(&self) -> usize {
        self.ckpt_bytes_written
    }

    /// Bytes read back from checkpoint files so far.
    pub fn ckpt_bytes_read(&self) -> usize {
        self.ckpt_bytes_read
    }

    /// Counts `bytes` written to a checkpoint file.  No trace event is
    /// emitted here: the [`crate::trace::Phase::CkptWrite`] span around
    /// the I/O is the trace's record of the save, and the byte count lives
    /// in this counter.
    pub fn record_ckpt_write(&mut self, bytes: usize) {
        self.ckpt_bytes_written += bytes;
    }

    /// Counts `bytes` read back from a checkpoint file (see
    /// [`CommStats::record_ckpt_write`]).
    pub fn record_ckpt_read(&mut self, bytes: usize) {
        self.ckpt_bytes_read += bytes;
    }

    /// Merges another statistics object (same processor count) into this
    /// one.
    pub fn merge(&mut self, other: &CommStats) {
        assert_eq!(
            self.per_proc.len(),
            other.per_proc.len(),
            "cannot merge statistics for different processor counts"
        );
        for (a, b) in self.per_proc.iter_mut().zip(other.per_proc.iter()) {
            *a += *b;
        }
        self.credited_overlap_seconds += other.credited_overlap_seconds;
        self.measured_overlap_seconds += other.measured_overlap_seconds;
        self.retries += other.retries;
        self.faults_injected += other.faults_injected;
        self.fallbacks += other.fallbacks;
        self.channel_messages += other.channel_messages;
        self.channel_bytes += other.channel_bytes;
        self.ckpt_bytes_written += other.ckpt_bytes_written;
        self.ckpt_bytes_read += other.ckpt_bytes_read;
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        for p in &mut self.per_proc {
            *p = ProcStats::default();
        }
        self.credited_overlap_seconds = 0.0;
        self.measured_overlap_seconds = 0.0;
        self.retries = 0;
        self.faults_injected = 0;
        self.fallbacks = 0;
        self.channel_messages = 0;
        self.channel_bytes = 0;
        self.ckpt_bytes_written = 0;
        self.ckpt_bytes_read = 0;
    }
}

impl fmt::Display for CommStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} msgs, {} bytes, comm {:.3e}s, compute {:.3e}s, critical {:.3e}s, imbalance {:.2}",
            self.total_messages(),
            self.total_bytes(),
            self.total_comm_time(),
            self.total_compute_time(),
            self.critical_time(),
            self.load_imbalance()
        )?;
        if self.measured_overlap_seconds > 0.0 || self.credited_overlap_seconds > 0.0 {
            write!(
                f,
                ", overlap {:.3e}s measured / {:.3e}s credited",
                self.measured_overlap_seconds, self.credited_overlap_seconds
            )?;
        }
        if self.channel_messages > 0 {
            write!(
                f,
                ", {} channel msgs ({} bytes on the wire)",
                self.channel_messages, self.channel_bytes
            )?;
        }
        if self.faults_injected > 0 || self.retries > 0 || self.fallbacks > 0 {
            write!(
                f,
                ", {} faults ({} retries, {} fallbacks)",
                self.faults_injected, self.retries, self.fallbacks
            )?;
        }
        if self.ckpt_bytes_written > 0 || self.ckpt_bytes_read > 0 {
            write!(
                f,
                ", ckpt {} bytes written / {} bytes read",
                self.ckpt_bytes_written, self.ckpt_bytes_read
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_aggregate() {
        let mut s = CommStats::new(4);
        s.record_message(0, 1, 100, 2.0);
        s.record_message(1, 2, 50, 1.0);
        s.record_compute(3, 5.0);
        assert_eq!(s.total_messages(), 2);
        assert_eq!(s.total_bytes(), 150);
        assert_eq!(s.per_proc()[0].messages_sent, 1);
        assert_eq!(s.per_proc()[1].messages_received, 1);
        assert_eq!(s.per_proc()[1].messages_sent, 1);
        assert_eq!(s.per_proc()[2].bytes_received, 50);
        assert!((s.total_comm_time() - 6.0).abs() < 1e-12);
        assert!((s.critical_time() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn self_messages_are_free() {
        let mut s = CommStats::new(2);
        s.record_message(1, 1, 1000, 9.0);
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.critical_time(), 0.0);
    }

    #[test]
    fn load_imbalance() {
        let mut s = CommStats::new(4);
        for p in 0..4 {
            s.record_compute(p, 1.0);
        }
        assert!((s.load_imbalance() - 1.0).abs() < 1e-12);
        s.record_compute(0, 3.0);
        // max = 4, avg = 7/4 = 1.75 → imbalance ≈ 2.2857
        assert!((s.load_imbalance() - 4.0 / 1.75).abs() < 1e-12);
        let empty = CommStats::new(4);
        assert_eq!(empty.load_imbalance(), 1.0);
    }

    #[test]
    fn merge_and_reset() {
        let mut a = CommStats::new(2);
        let mut b = CommStats::new(2);
        a.record_message(0, 1, 10, 1.0);
        b.record_message(1, 0, 20, 2.0);
        a.merge(&b);
        assert_eq!(a.total_messages(), 2);
        assert_eq!(a.total_bytes(), 30);
        a.reset();
        assert_eq!(a.total_messages(), 0);
        assert_eq!(a.critical_time(), 0.0);
    }

    #[test]
    #[should_panic(expected = "different processor counts")]
    fn merge_requires_same_size() {
        let mut a = CommStats::new(2);
        let b = CommStats::new(3);
        a.merge(&b);
    }

    #[test]
    fn overlap_counters_merge_and_reset() {
        let mut a = CommStats::new(2);
        a.record_credited_overlap(0.25);
        a.record_credited_overlap(-1.0); // dropped
        a.record_measured_overlap(0.5);
        a.record_measured_overlap(0.0); // dropped
        let mut b = CommStats::new(2);
        b.record_credited_overlap(0.75);
        a.merge(&b);
        assert!((a.credited_overlap_seconds() - 1.0).abs() < 1e-12);
        assert!((a.measured_overlap_seconds() - 0.5).abs() < 1e-12);
        a.reset();
        assert_eq!(a.credited_overlap_seconds(), 0.0);
        assert_eq!(a.measured_overlap_seconds(), 0.0);
    }

    #[test]
    fn display_summarises() {
        let mut s = CommStats::new(2);
        s.record_message(0, 1, 8, 0.5);
        let txt = s.to_string();
        assert!(txt.contains("1 msgs"));
        assert!(txt.contains("8 bytes"));
        assert!(!txt.contains("faults"), "fault-free display stays terse");
        assert!(
            !txt.contains("overlap"),
            "no overlap line before any split run"
        );
        s.record_measured_overlap(0.5);
        s.record_credited_overlap(0.25);
        assert!(s
            .to_string()
            .contains("overlap 5.000e-1s measured / 2.500e-1s credited"));
        s.record_faults(2);
        s.record_retries(3);
        assert!(s.to_string().contains("2 faults (3 retries, 0 fallbacks)"));
        // Retries alone (no injected fault acted on) must render too.
        let mut r = CommStats::new(2);
        r.record_retries(1);
        assert!(r.to_string().contains("0 faults (1 retries, 0 fallbacks)"));
    }

    #[test]
    fn ckpt_counters_merge_reset_and_display() {
        let mut a = CommStats::new(2);
        assert!(!a.to_string().contains("ckpt"), "zero counters stay terse");
        a.record_ckpt_write(100);
        a.record_ckpt_write(20);
        a.record_ckpt_read(60);
        let mut b = CommStats::new(2);
        b.record_ckpt_read(40);
        a.merge(&b);
        assert_eq!(a.ckpt_bytes_written(), 120);
        assert_eq!(a.ckpt_bytes_read(), 100);
        assert!(a
            .to_string()
            .contains("ckpt 120 bytes written / 100 bytes read"));
        a.reset();
        assert_eq!((a.ckpt_bytes_written(), a.ckpt_bytes_read()), (0, 0));
    }

    #[test]
    fn fault_counters_merge_and_reset() {
        let mut a = CommStats::new(2);
        a.record_retries(2);
        a.record_faults(1);
        a.record_fallbacks(1);
        let mut b = CommStats::new(2);
        b.record_retries(1);
        b.record_faults(4);
        a.merge(&b);
        assert_eq!(a.retries(), 3);
        assert_eq!(a.faults_injected(), 5);
        assert_eq!(a.fallbacks(), 1);
        a.reset();
        assert_eq!((a.retries(), a.faults_injected(), a.fallbacks()), (0, 0, 0));
    }
}
