//! Seeded, deterministic fault injection for the simulated machine.
//!
//! Real transports lose, delay and corrupt messages, and real worker
//! processes die; the modelled machine historically assumed none of that
//! ever happens.  This module provides the failure model the execution
//! stack is chaos-tested against before any distributed backend exists:
//! a [`FaultPlan`] describes *which* faults may occur (kinds, probability,
//! budget, backoff schedule) and a [`FaultInjector`] draws them from a
//! seeded PRNG so that every run under the same plan sees the identical
//! fault schedule.
//!
//! Determinism contract: the injector must only be polled from the
//! *submitting* (caller) thread of an operation — never from pool workers,
//! whose interleaving is nondeterministic.  All decision methods
//! ([`FaultInjector::transient_send`], [`FaultInjector::corrupt_wire`],
//! [`FaultInjector::worker_death`], …) are therefore called at well-defined
//! points of the caller's control flow: message post, wire pack, pool job
//! submission and translation-page fetch.  Effects that must surface on
//! worker threads (a corrupted buffer, a dying rank) are *armed* here and
//! carried into the job as plain data.
//!
//! Every fired fault is counted per kind, and the retries it forces are
//! accumulated, so tests can assert that the [`CommStats`](crate::CommStats)
//! counters recorded by the recovery paths exactly match the injected
//! schedule.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The kinds of fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A posted message fails transiently and must be retransmitted with
    /// exponential backoff (also used for translation-page fetches).
    TransientSend,
    /// A posted message is delivered late: extra modelled latency on one
    /// message of the batch.
    DelayedDelivery,
    /// One element of a fused wire buffer arrives with a flipped bit; the
    /// frame checksum must detect it and force a retransmission.
    CorruptWire,
    /// A pool worker dies: the executor must degrade (pooled →
    /// fresh-spawn → serial) and streaming unpack must recover the dead
    /// rank's abandoned items.
    WorkerDeath,
    /// A split-phase handle is cancelled before streaming can be made
    /// safe: the exchange falls back to blocking unpack.
    CancelHandle,
    /// A whole rank dies mid-region: its channel endpoints drop and the
    /// surviving ranks must surface a structured error instead of hanging.
    /// Unlike the other kinds this is *not* transparently recoverable
    /// in-exchange — recovery happens at the driver level by restoring a
    /// checkpoint — so it is opt-in and never part of the default plan.
    RankDeath,
}

impl FaultKind {
    /// All fault kinds, in a fixed order (the per-kind counter index).
    pub const ALL: [FaultKind; 6] = [
        FaultKind::TransientSend,
        FaultKind::DelayedDelivery,
        FaultKind::CorruptWire,
        FaultKind::WorkerDeath,
        FaultKind::CancelHandle,
        FaultKind::RankDeath,
    ];

    /// The kinds the recovery paths absorb without driver intervention —
    /// the default set for [`FaultPlan::new`].
    pub const RECOVERABLE: [FaultKind; 5] = [
        FaultKind::TransientSend,
        FaultKind::DelayedDelivery,
        FaultKind::CorruptWire,
        FaultKind::WorkerDeath,
        FaultKind::CancelHandle,
    ];

    fn index(self) -> usize {
        match self {
            FaultKind::TransientSend => 0,
            FaultKind::DelayedDelivery => 1,
            FaultKind::CorruptWire => 2,
            FaultKind::WorkerDeath => 3,
            FaultKind::CancelHandle => 4,
            FaultKind::RankDeath => 5,
        }
    }
}

/// A declarative, serialisable description of the faults to inject.
///
/// Attach a plan to a [`Machine`](crate::Machine) with
/// [`Machine::with_fault_plan`](crate::Machine::with_fault_plan); every
/// tracker the machine creates then carries a freshly seeded
/// [`FaultInjector`], so repeated runs of the same program see the same
/// fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// PRNG seed — same seed, same plan ⇒ same fault schedule.
    pub seed: u64,
    /// Per-poll probability in `[0, 1]` that an enabled fault fires.
    pub rate: f64,
    /// The fault kinds that may fire (others are never drawn).
    pub kinds: Vec<FaultKind>,
    /// Upper bound on the total number of faults injected (keeps chaos
    /// runs terminating with bounded retries).
    pub max_faults: usize,
    /// Base of the modelled exponential backoff charged per retry
    /// (seconds; retry `k` waits `base · 2^k`).
    pub backoff_base_seconds: f64,
    /// Maximum send attempts for a transiently failing message (the
    /// original plus up to `max_attempts - 1` retries).
    pub max_attempts: usize,
}

impl FaultPlan {
    /// A plan with every transparently recoverable fault kind enabled at
    /// a moderate rate.  [`FaultKind::RankDeath`] is opt-in via
    /// [`FaultPlan::with_kinds`] because it needs a driver-level restart.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rate: 0.05,
            kinds: FaultKind::RECOVERABLE.to_vec(),
            max_faults: 64,
            backoff_base_seconds: 5e-4,
            max_attempts: 4,
        }
    }

    /// Sets the per-poll fault probability (clamped to `[0, 1]`).
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Restricts the plan to the given fault kinds.
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> Self {
        self.kinds = kinds.to_vec();
        self
    }

    /// Sets the total fault budget.
    pub fn with_max_faults(mut self, max_faults: usize) -> Self {
        self.max_faults = max_faults;
        self
    }

    /// Sets the backoff base and the maximum attempts per message.
    pub fn with_backoff(mut self, base_seconds: f64, max_attempts: usize) -> Self {
        self.backoff_base_seconds = base_seconds.max(0.0);
        self.max_attempts = max_attempts.max(2);
        self
    }

    /// Builds a plan from `VF_FAULT_SEED` / `VF_FAULT_RATE`.
    ///
    /// `VF_FAULT_SEED=<u64>` enables injection with the default plan at
    /// that seed; `VF_FAULT_RATE=<f64>` optionally overrides the rate.
    /// Unparseable values are ignored with a warning, mirroring
    /// `VF_EXEC_CUTOFF`.  Returns `None` when `VF_FAULT_SEED` is unset.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("VF_FAULT_SEED").ok()?;
        let seed = match raw.trim().parse::<u64>() {
            Ok(seed) => seed,
            Err(_) => {
                eprintln!("vf-machine: ignoring unparseable VF_FAULT_SEED={raw:?}");
                return None;
            }
        };
        let mut plan = Self::new(seed);
        if let Ok(raw) = std::env::var("VF_FAULT_RATE") {
            match raw.trim().parse::<f64>() {
                Ok(rate) if (0.0..=1.0).contains(&rate) => plan.rate = rate,
                _ => eprintln!("vf-machine: ignoring unparseable VF_FAULT_RATE={raw:?}"),
            }
        }
        Some(plan)
    }

    /// Total modelled backoff for `attempts` retries: `Σ base · 2^k` for
    /// `k` in `0..attempts` — bounded because attempts are bounded by
    /// [`FaultPlan::max_attempts`].
    pub fn backoff_seconds(&self, attempts: usize) -> f64 {
        let attempts = attempts.min(self.max_attempts) as u32;
        self.backoff_base_seconds * (2f64.powi(attempts as i32) - 1.0)
    }
}

/// Where a corrupted wire element lands: seeds the executor maps onto its
/// own pair/element counts, plus the bit to flip.
///
/// The spec is drawn on the caller thread at pack time; the executor
/// resolves `pair_seed % num_crossing_pairs` and `elem_seed % pair_len`
/// itself because only it knows those counts.
#[derive(Debug, Clone, Copy)]
pub struct CorruptSpec {
    /// Seed selecting which crossing pair's wire buffer is corrupted.
    pub pair_seed: u64,
    /// Seed selecting which element of that buffer is corrupted.
    pub elem_seed: u64,
    /// Which stored bit of the element to flip (taken modulo the element
    /// width).
    pub bit: u32,
}

/// The armed form of a [`FaultKind::RankDeath`]: which rank dies and how
/// many channel operations it completes first.
///
/// Drawn on the caller thread before a region launches (honouring the
/// caller-thread-only polling contract) and carried into the SPMD region
/// as plain data; the victim's context decrements the fuse on every
/// channel operation and drops dead when it reaches zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankDeathSpec {
    /// The rank whose channel endpoints are dropped.  Never rank 0, which
    /// carries the charging/settling duties of a region.
    pub victim: usize,
    /// Number of channel operations the victim completes before dying.
    pub after_ops: usize,
}

/// A seeded fault source shared by every layer of one tracker's execution
/// stack.
///
/// Cheap to share (`Arc`); all PRNG draws go through one mutex so the
/// schedule is a single deterministic sequence.  See the module docs for
/// the caller-thread-only polling contract.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Mutex<SmallRng>,
    fired: [AtomicUsize; 6],
    retries_caused: AtomicUsize,
    dead_workers: AtomicUsize,
}

impl FaultInjector {
    /// Creates an injector executing `plan` from its seed.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SmallRng::seed_from_u64(plan.seed);
        Self {
            plan,
            rng: Mutex::new(rng),
            fired: Default::default(),
            retries_caused: AtomicUsize::new(0),
            dead_workers: AtomicUsize::new(0),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The decision stream (poisoning ignored: a panicking poller cannot
    /// leave the generator in a state worth refusing).
    fn rng(&self) -> MutexGuard<'_, SmallRng> {
        self.rng.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Rolls for one enabled fault kind; counts it when it fires.
    fn roll(&self, kind: FaultKind) -> bool {
        if !self.plan.kinds.contains(&kind) || self.faults_injected() >= self.plan.max_faults {
            return false;
        }
        let hit = self.rng().gen_range(0.0..1.0) < self.plan.rate;
        if hit {
            self.fired[kind.index()].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Polls for a transient send failure (message post and
    /// translation-page fetch injection points).  Returns the number of
    /// retries (1 to `max_attempts - 1`) the affected message needs; the
    /// caller charges them plus [`FaultPlan::backoff_seconds`].
    pub fn transient_send(&self) -> Option<usize> {
        if !self.roll(FaultKind::TransientSend) {
            return None;
        }
        let attempts = self.rng().gen_range(1usize..self.plan.max_attempts);
        self.retries_caused.fetch_add(attempts, Ordering::Relaxed);
        Some(attempts)
    }

    /// Polls for a delayed delivery; returns the extra modelled seconds to
    /// add to one message of the posted batch.
    pub fn delayed_delivery(&self) -> Option<f64> {
        if !self.roll(FaultKind::DelayedDelivery) {
            return None;
        }
        let scale = self.rng().gen_range(1.0..8.0);
        Some(scale * self.plan.backoff_base_seconds)
    }

    /// Polls for a wire-buffer corruption (pack-time injection point).
    /// One detected corruption forces exactly one modelled retransmission,
    /// which is pre-counted here.
    pub fn corrupt_wire(&self) -> Option<CorruptSpec> {
        if !self.roll(FaultKind::CorruptWire) {
            return None;
        }
        let mut rng = self.rng();
        let spec = CorruptSpec {
            pair_seed: rng.next_u64(),
            elem_seed: rng.next_u64(),
            bit: rng.gen_range(0usize..64) as u32,
        };
        drop(rng);
        self.retries_caused.fetch_add(1, Ordering::Relaxed);
        Some(spec)
    }

    /// Polls for a worker death (pool job submission injection point).
    /// The caller is expected to [`FaultInjector::mark_worker_dead`] and
    /// degrade.
    pub fn worker_death(&self) -> bool {
        self.roll(FaultKind::WorkerDeath)
    }

    /// Polls for a handle cancellation at split-phase post: streaming is
    /// declared unsafe and the exchange must fall back to blocking unpack.
    pub fn cancel_streaming(&self) -> bool {
        self.roll(FaultKind::CancelHandle)
    }

    /// Polls for a rank death at region launch (caller-thread injection
    /// point).  Returns the armed spec — victim drawn from `1..num_ranks`
    /// (rank 0 is the charging rank and never dies) plus a small
    /// operation fuse — or `None` when the kind is disabled, the budget
    /// is spent, or there is no killable rank (`num_ranks < 2`).
    pub fn rank_death(&self, num_ranks: usize) -> Option<RankDeathSpec> {
        if num_ranks < 2 || !self.roll(FaultKind::RankDeath) {
            return None;
        }
        let mut rng = self.rng();
        let victim = rng.gen_range(1..num_ranks);
        let after_ops = rng.gen_range(0usize..8);
        Some(RankDeathSpec { victim, after_ops })
    }

    /// Deterministically picks a victim index in `0..n` (`n > 0`).
    pub fn pick(&self, n: usize) -> usize {
        self.rng().gen_range(0..n)
    }

    /// Marks one pool worker as dead; subsequent dispatches see a reduced
    /// healthy-worker count and degrade accordingly.  Dead-worker marks
    /// live here (not on the shared pool) so one chaos run cannot degrade
    /// unrelated executions.
    pub fn mark_worker_dead(&self) {
        self.dead_workers.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of workers currently marked dead.
    pub fn dead_workers(&self) -> usize {
        self.dead_workers.load(Ordering::Relaxed)
    }

    /// Clears the dead-worker marks (a "restarted" pool; test aid).
    pub fn revive_workers(&self) {
        self.dead_workers.store(0, Ordering::Relaxed);
    }

    /// How many faults of `kind` have fired so far.
    pub fn fired_of(&self, kind: FaultKind) -> usize {
        self.fired[kind.index()].load(Ordering::Relaxed)
    }

    /// Total faults fired across all kinds.
    pub fn faults_injected(&self) -> usize {
        self.fired.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Total retries the fired faults force on the recovery paths — the
    /// value the `CommStats` `retries` counter must end up at.
    pub fn expected_retries(&self) -> usize {
        self.retries_caused.load(Ordering::Relaxed)
    }

    /// Total degradations the fired faults force (worker deaths plus
    /// cancelled handles) — the value the `CommStats` `fallbacks` counter
    /// must end up at.
    pub fn expected_fallbacks(&self) -> usize {
        self.fired_of(FaultKind::WorkerDeath) + self.fired_of(FaultKind::CancelHandle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultInjector::new(FaultPlan::new(7).with_rate(0.5));
        let b = FaultInjector::new(FaultPlan::new(7).with_rate(0.5));
        for _ in 0..200 {
            assert_eq!(a.transient_send(), b.transient_send());
            assert_eq!(a.worker_death(), b.worker_death());
            assert_eq!(a.delayed_delivery(), b.delayed_delivery());
        }
        assert_eq!(a.faults_injected(), b.faults_injected());
        assert_eq!(a.expected_retries(), b.expected_retries());
        assert!(a.faults_injected() > 0, "rate 0.5 over 600 polls must fire");
    }

    #[test]
    fn disabled_kinds_never_fire() {
        let inj = FaultInjector::new(
            FaultPlan::new(3)
                .with_rate(1.0)
                .with_kinds(&[FaultKind::CorruptWire]),
        );
        assert!(inj.transient_send().is_none());
        assert!(!inj.worker_death());
        assert!(!inj.cancel_streaming());
        assert!(inj.delayed_delivery().is_none());
        assert!(inj.corrupt_wire().is_some());
        assert_eq!(inj.fired_of(FaultKind::CorruptWire), 1);
        assert_eq!(inj.faults_injected(), 1);
        assert_eq!(inj.expected_retries(), 1);
    }

    #[test]
    fn budget_bounds_total_faults() {
        let inj = FaultInjector::new(FaultPlan::new(1).with_rate(1.0).with_max_faults(3));
        for _ in 0..50 {
            let _ = inj.transient_send();
        }
        assert_eq!(inj.faults_injected(), 3);
    }

    #[test]
    fn transient_attempts_are_bounded() {
        let plan = FaultPlan::new(9)
            .with_rate(1.0)
            .with_max_faults(1000)
            .with_backoff(1e-3, 5);
        let inj = FaultInjector::new(plan.clone());
        for _ in 0..100 {
            let attempts = inj.transient_send().expect("rate 1.0 always fires");
            assert!((1..plan.max_attempts).contains(&attempts));
        }
        // Backoff grows geometrically and is monotone in attempts.
        assert!(plan.backoff_seconds(1) > 0.0);
        assert!(plan.backoff_seconds(3) > plan.backoff_seconds(2));
        assert!((plan.backoff_seconds(2) - 3e-3).abs() < 1e-12);
    }

    #[test]
    fn zero_rate_is_silent() {
        let inj = FaultInjector::new(FaultPlan::new(5).with_rate(0.0));
        for _ in 0..100 {
            assert!(inj.transient_send().is_none());
            assert!(inj.corrupt_wire().is_none());
        }
        assert_eq!(inj.faults_injected(), 0);
        assert_eq!(inj.expected_retries(), 0);
        assert_eq!(inj.expected_fallbacks(), 0);
    }

    #[test]
    fn dead_worker_marks_accumulate_and_revive() {
        let inj = FaultInjector::new(FaultPlan::new(2));
        assert_eq!(inj.dead_workers(), 0);
        inj.mark_worker_dead();
        inj.mark_worker_dead();
        assert_eq!(inj.dead_workers(), 2);
        inj.revive_workers();
        assert_eq!(inj.dead_workers(), 0);
    }

    #[test]
    fn expected_fallbacks_counts_deaths_and_cancels() {
        let inj = FaultInjector::new(
            FaultPlan::new(11)
                .with_rate(1.0)
                .with_kinds(&[FaultKind::WorkerDeath, FaultKind::CancelHandle]),
        );
        assert!(inj.worker_death());
        assert!(inj.cancel_streaming());
        assert_eq!(inj.expected_fallbacks(), 2);
    }

    #[test]
    fn pick_is_in_range() {
        let inj = FaultInjector::new(FaultPlan::new(4));
        for n in 1..20 {
            assert!(inj.pick(n) < n);
        }
    }

    #[test]
    fn rank_death_is_opt_in_and_spares_rank_zero() {
        // The default plan never draws a rank death — and because roll()
        // returns before touching the RNG for disabled kinds, adding the
        // kind must not shift the schedule of a pre-existing seeded plan.
        let default = FaultInjector::new(FaultPlan::new(7).with_rate(1.0));
        assert!(default.rank_death(8).is_none());
        assert_eq!(default.fired_of(FaultKind::RankDeath), 0);

        let inj = FaultInjector::new(
            FaultPlan::new(13)
                .with_rate(1.0)
                .with_kinds(&[FaultKind::RankDeath]),
        );
        // No killable rank when fewer than two ranks exist.
        assert!(inj.rank_death(1).is_none());
        assert_eq!(inj.fired_of(FaultKind::RankDeath), 0);
        for _ in 0..32 {
            let spec = inj.rank_death(4).expect("rate 1.0 always fires");
            assert!((1..4).contains(&spec.victim), "victim must not be rank 0");
            assert!(spec.after_ops < 8);
        }
        assert_eq!(inj.fired_of(FaultKind::RankDeath), 32);
    }

    #[test]
    fn rank_death_schedule_is_deterministic() {
        let plan = FaultPlan::new(21)
            .with_rate(0.5)
            .with_kinds(&[FaultKind::RankDeath]);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        for _ in 0..100 {
            assert_eq!(a.rank_death(6), b.rank_death(6));
        }
    }

    #[test]
    fn plan_builders_clamp() {
        let plan = FaultPlan::new(42).with_rate(3.0).with_backoff(-1.0, 0);
        assert_eq!(plan.rate, 1.0);
        assert_eq!(plan.backoff_base_seconds, 0.0);
        assert_eq!(plan.max_attempts, 2);
        assert_eq!(plan.backoff_seconds(5), 0.0);
    }
}
