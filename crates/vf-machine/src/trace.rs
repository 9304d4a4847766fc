//! Runtime tracing and metrics: phase spans, monotonic counters, log-scaled
//! latency histograms, Chrome-trace export, and a measured-vs-modelled
//! drift report.
//!
//! The modelled accounting layer ([`CommStats`](crate::CommStats)) says what
//! the simulated machine *charged*; this module says where wall-clock time
//! actually *went*.  Every phase the runtime distinguishes — plan /
//! cache-hit / cache-miss, fuse, wire pack, post, interior compute, unpack
//! stream per destination, wait, retry / fallback / corruption-repair, pool
//! dispatch, translation page fetch, per-statement scope work — can open a
//! [`Phase`]-typed span; spans land in per-lane buffers (one lane per pool
//! rank plus the caller) and feed a metrics registry of counters and
//! power-of-two latency histograms.
//!
//! # Zero cost when disabled
//!
//! Tracing is **off** by default.  Every instrumentation site first checks
//! [`enabled`], a relaxed atomic load; when disabled no label is formatted,
//! no clock is read, and no allocation happens — [`OpenSpan::begin`]
//! returns an inert guard.  Enable with `VF_TRACE=1` in the environment
//! (checked once per process) or programmatically with [`set_enabled`].
//!
//! # Spans
//!
//! ```
//! use vf_machine::trace::{self, Phase};
//! trace::set_enabled(true);
//! {
//!     let _span = vf_machine::span!(Phase::Post, "batch of {} messages", 3);
//!     // ... work ...
//! } // span ends when the guard drops
//! let open = trace::OpenSpan::begin(Phase::Wait); // explicit begin ...
//! open.end(); // ... and end, for split-phase handles
//! assert_eq!(trace::open_spans(), 0);
//! trace::set_enabled(false);
//! trace::reset();
//! ```
//!
//! Dropping a guard without calling [`OpenSpan::end`] still closes the
//! span, so cancelled and fault-degraded paths stay balanced.
//!
//! # Exporters
//!
//! [`TraceSnapshot::to_chrome_json`] renders the Chrome `trace_event`
//! format (loadable in Perfetto / `chrome://tracing`);
//! [`parse_chrome_trace`] parses it back (the workspace has no
//! serialisation dependency, so the JSON is hand-rolled and round-trips
//! through its own parser).  [`MetricsReport`] is the machine-readable
//! summary and carries the [`DriftReport`] comparing measured span
//! seconds against the modelled seconds in a
//! [`CommStats`](crate::CommStats).

use crate::stats::CommStats;
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// The phase kinds the runtime distinguishes.  Each span and counter event
/// is typed by one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Planning a communication schedule from scratch (a plan-cache miss
    /// pays this).
    Plan,
    /// A plan-cache lookup that found a resident plan.
    PlanCacheHit,
    /// A plan-cache lookup that had to plan fresh.
    PlanCacheMiss,
    /// A plan evicted by the cache's byte-budget LRU sweep.
    PlanEvict,
    /// Fusing per-array plans into one message per processor pair.
    Fuse,
    /// Packing a fused wire buffer for one destination.
    WirePack,
    /// Posting a message batch to the tracker.
    Post,
    /// Caller-side interior compute between a split-phase post and wait.
    InteriorCompute,
    /// One destination's copy stream: unpacking its wire buffer(s) or
    /// running plan copies.  In the blocking wire path the span covers the
    /// destination's whole pack → verify → unpack stream; the split
    /// streaming path records one span per arriving pair instead.
    Unpack,
    /// Blocking on in-flight communication.
    Wait,
    /// One retransmission of a faulted send (matches
    /// [`CommStats::retries`](crate::CommStats::retries)).
    Retry,
    /// One injected fault (matches
    /// [`CommStats::faults_injected`](crate::CommStats::faults_injected)).
    Fault,
    /// One degradation-ladder fallback (matches
    /// [`CommStats::fallbacks`](crate::CommStats::fallbacks)).
    Fallback,
    /// Repairing a corrupted wire buffer from the source array.
    CorruptionRepair,
    /// A worker-pool job dispatch (publish → all ranks complete).
    PoolDispatch,
    /// Translation-table page fetches charged to the owner directory.
    PageFetch,
    /// A whole redistribute operation.
    Redistribute,
    /// A whole gather operation.
    Gather,
    /// A whole scatter operation.
    Scatter,
    /// A whole PARTI-style irregular halo execution.
    HaloExchange,
    /// A whole (possibly fused / wire-packed) ghost exchange.
    GhostExchange,
    /// A language-level statement executed by a `VfScope`.
    Statement,
    /// One application time step.
    Step,
    /// A split-phase handle's in-flight window: post until the unpack is
    /// settled (at the wait or at a cancelling drop).  Caller compute
    /// overlaps this span; its duration bounds the achievable overlap.
    SplitPending,
    /// Writing a checkpoint generation to disk: one span per save,
    /// covering the file I/O (the byte count is
    /// [`CommStats::ckpt_bytes_written`](crate::CommStats::ckpt_bytes_written)).
    CkptWrite,
    /// Reading a checkpoint generation back: one span per restore (the
    /// byte count is
    /// [`CommStats::ckpt_bytes_read`](crate::CommStats::ckpt_bytes_read)).
    CkptRead,
}

/// Number of [`Phase`] kinds.
pub const NUM_PHASES: usize = 26;

impl Phase {
    /// Every phase kind, in declaration order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Plan,
        Phase::PlanCacheHit,
        Phase::PlanCacheMiss,
        Phase::PlanEvict,
        Phase::Fuse,
        Phase::WirePack,
        Phase::Post,
        Phase::InteriorCompute,
        Phase::Unpack,
        Phase::Wait,
        Phase::Retry,
        Phase::Fault,
        Phase::Fallback,
        Phase::CorruptionRepair,
        Phase::PoolDispatch,
        Phase::PageFetch,
        Phase::Redistribute,
        Phase::Gather,
        Phase::Scatter,
        Phase::HaloExchange,
        Phase::GhostExchange,
        Phase::Statement,
        Phase::Step,
        Phase::SplitPending,
        Phase::CkptWrite,
        Phase::CkptRead,
    ];

    /// The stable kebab-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::PlanCacheHit => "plan-cache-hit",
            Phase::PlanCacheMiss => "plan-cache-miss",
            Phase::PlanEvict => "plan-evict",
            Phase::Fuse => "fuse",
            Phase::WirePack => "wire-pack",
            Phase::Post => "post",
            Phase::InteriorCompute => "interior-compute",
            Phase::Unpack => "unpack",
            Phase::Wait => "wait",
            Phase::Retry => "retry",
            Phase::Fault => "fault",
            Phase::Fallback => "fallback",
            Phase::CorruptionRepair => "corruption-repair",
            Phase::PoolDispatch => "pool-dispatch",
            Phase::PageFetch => "page-fetch",
            Phase::Redistribute => "redistribute",
            Phase::Gather => "gather",
            Phase::Scatter => "scatter",
            Phase::HaloExchange => "halo-exchange",
            Phase::GhostExchange => "ghost-exchange",
            Phase::Statement => "statement",
            Phase::Step => "step",
            Phase::SplitPending => "split-pending",
            Phase::CkptWrite => "ckpt-write",
            Phase::CkptRead => "ckpt-read",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        Phase::ALL.iter().position(|p| *p == self).expect("in ALL")
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded span (or zero-duration counter event).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The phase kind.
    pub phase: Phase,
    /// Free-form label (empty for unlabelled spans).
    pub label: String,
    /// The lane (Chrome-trace `tid`) the span ran on: lane `0` is the
    /// caller, lanes `1..W` the pool worker ranks, `1000+` other threads.
    pub lane: u32,
    /// Start, in nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (zero for counter events).
    pub dur_ns: u64,
}

/// A span label in its unrendered form.  The hot recording path stores
/// this instead of a formatted `String` so per-pair wire spans cost no
/// allocation or `fmt` machinery at record time; [`snapshot`] renders the
/// text once at export.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Label {
    None,
    Static(&'static str),
    /// Rendered as `"{src}->{dst}"` — the per-pair wire pack/unpack label.
    Pair(u32, u32),
    /// Rendered as `"dest {d}"` — the per-destination wire-copy label.
    Dest(u32),
    Owned(String),
}

impl Label {
    fn render(&self) -> String {
        match self {
            Label::None => String::new(),
            Label::Static(s) => (*s).to_string(),
            Label::Pair(s, d) => format!("{s}->{d}"),
            Label::Dest(d) => format!("dest {d}"),
            Label::Owned(s) => s.clone(),
        }
    }
}

/// The compact in-buffer event representation ([`TraceEvent`] minus the
/// rendered label and the lane id, which the owning [`Lane`] carries).
#[derive(Debug)]
struct RawEvent {
    phase: Phase,
    label: Label,
    start_ns: u64,
    dur_ns: u64,
}

// ---------------------------------------------------------------------------
// Global collector
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: OnceLock<Collector> = OnceLock::new();

/// Auxiliary (non-pool, non-caller) threads get lanes starting here.
const AUX_LANE_BASE: u32 = 1000;

struct Lane {
    id: u32,
    events: Mutex<Vec<RawEvent>>,
    // Spans begun-but-not-ended through this lane.  Per-lane so the hot
    // path never touches a shared cacheline; [`open_spans`] sums the
    // lanes (a span ended on a different thread decrements the lane it
    // began on, so individual lanes may transiently read negative — only
    // the sum is meaningful).
    open: AtomicI64,
}

struct Collector {
    epoch: Instant,
    // Leaked (`Box::leak`) so lanes are `&'static` and the recording hot
    // path moves a plain pointer instead of bumping an `Arc` refcount.
    // Bounded: one lane per pool rank, the caller, and each auxiliary
    // thread that ever records — a handful per process lifetime.
    lanes: Mutex<Vec<&'static Lane>>,
    caller_claimed: AtomicBool,
    next_aux: AtomicU32,
}

impl Collector {
    fn new() -> Self {
        Collector {
            epoch: Instant::now(),
            lanes: Mutex::new(Vec::new()),
            caller_claimed: AtomicBool::new(false),
            next_aux: AtomicU32::new(0),
        }
    }

    fn lane(&self, id: u32) -> &'static Lane {
        let mut lanes = self.lanes.lock().unwrap();
        if let Some(l) = lanes.iter().find(|l| l.id == id) {
            return l;
        }
        let lane: &'static Lane = Box::leak(Box::new(Lane {
            id,
            events: Mutex::new(Vec::new()),
            open: AtomicI64::new(0),
        }));
        lanes.push(lane);
        lane
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(Collector::new)
}

thread_local! {
    static WANTED_LANE: Cell<Option<u32>> = const { Cell::new(None) };
    static CACHED_LANE: Cell<Option<&'static Lane>> = const { Cell::new(None) };
}

/// Pins the current thread to a trace lane.  The worker pool calls this
/// with the worker's rank so the Chrome export shows one lane per rank;
/// unpinned threads auto-assign (the first becomes lane `0`, the caller).
pub fn set_thread_lane(lane: u32) {
    WANTED_LANE.with(|w| w.set(Some(lane)));
    CACHED_LANE.with(|c| c.set(None));
}

/// The lane id the current thread records to (registers the thread on
/// first use).  Tests use this to filter a snapshot down to their own
/// thread's events.
pub fn current_lane() -> u32 {
    thread_lane().id
}

fn thread_lane() -> &'static Lane {
    CACHED_LANE.with(|c| {
        if let Some(l) = c.get() {
            return l;
        }
        let id = WANTED_LANE.with(|w| w.get()).unwrap_or_else(|| {
            let col = collector();
            if !col.caller_claimed.swap(true, Ordering::Relaxed) {
                0
            } else {
                AUX_LANE_BASE + col.next_aux.fetch_add(1, Ordering::Relaxed)
            }
        });
        let lane = collector().lane(id);
        c.set(Some(lane));
        lane
    })
}

/// Whether tracing is enabled.  The first call per process also honours
/// `VF_TRACE=1` from the environment; afterwards this is a relaxed atomic
/// load — the entire cost of a disabled instrumentation site.
pub fn enabled() -> bool {
    static ENV: Once = Once::new();
    ENV.call_once(|| {
        if let Ok(v) = std::env::var("VF_TRACE") {
            if !v.is_empty() && v != "0" {
                ENABLED.store(true, Ordering::Relaxed);
            }
        }
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off programmatically (tests and benches prefer this
/// over mutating the process environment, which races parallel tests).
pub fn set_enabled(on: bool) {
    enabled(); // settle the one-time env read first so it cannot overwrite
    ENABLED.store(on, Ordering::Relaxed);
}

/// Number of spans currently begun but not yet ended — zero whenever the
/// instrumented runtime is quiescent, on every path including cancel,
/// drop, and fault degradation.
pub fn open_spans() -> i64 {
    let col = collector();
    let lanes = col.lanes.lock().unwrap();
    lanes.iter().map(|l| l.open.load(Ordering::Relaxed)).sum()
}

/// Clears all recorded events and metrics (tracing stays in its current
/// enabled/disabled state).
pub fn reset() {
    let col = collector();
    for lane in col.lanes.lock().unwrap().iter() {
        lane.events.lock().unwrap().clear();
        lane.open.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Spans and counter events
// ---------------------------------------------------------------------------

/// An in-flight span.  Used both as an RAII guard (the [`span!`](crate::span)
/// macro) and as an explicit begin/end handle carried inside split-phase
/// exchange handles.  Dropping an unended span ends it, so cancelled and
/// fault-degraded paths stay balanced.
#[must_use = "a span measures the scope it lives in"]
#[derive(Default)]
pub struct OpenSpan(Option<OpenInner>);

struct OpenInner {
    phase: Phase,
    label: Label,
    // The lane the span began on — cached so ending needs no TLS lookup
    // and the event lands on the beginning thread's lane even when the
    // guard is carried to (and dropped on) another thread.
    lane: &'static Lane,
    start_ns: u64,
}

impl fmt::Debug for OpenSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => f.write_str("OpenSpan(inert)"),
            Some(i) => write!(f, "OpenSpan({} on lane {})", i.phase, i.lane.id),
        }
    }
}

impl OpenSpan {
    /// Begins an unlabelled span (inert when tracing is disabled).
    pub fn begin(phase: Phase) -> OpenSpan {
        Self::begin_label(phase, || Label::None)
    }

    /// Begins a span whose label is built by `label` — the closure only
    /// runs when tracing is enabled, so disabled sites never format.
    pub fn begin_with(phase: Phase, label: impl FnOnce() -> String) -> OpenSpan {
        Self::begin_label(phase, || Label::Owned(label()))
    }

    /// Begins a span labelled `"{src}->{dst}"` without formatting anything
    /// at record time — the label renders at [`snapshot`].  For the
    /// per-pair wire pack/unpack sites, which are hot enough that `format!`
    /// would dominate the span's own cost.
    pub fn begin_pair(phase: Phase, src: usize, dst: usize) -> OpenSpan {
        Self::begin_label(phase, || Label::Pair(src as u32, dst as u32))
    }

    /// Begins a span with a fixed label, allocation-free at record time.
    pub fn begin_static(phase: Phase, label: &'static str) -> OpenSpan {
        Self::begin_label(phase, || Label::Static(label))
    }

    /// Begins a span labelled `"dest {d}"` without formatting at record
    /// time — the per-destination wire-copy and wait label.
    pub fn begin_dest(phase: Phase, dest: usize) -> OpenSpan {
        Self::begin_label(phase, || Label::Dest(dest as u32))
    }

    fn begin_label(phase: Phase, label: impl FnOnce() -> Label) -> OpenSpan {
        if !enabled() {
            return OpenSpan(None);
        }
        let lane = thread_lane();
        lane.open.fetch_add(1, Ordering::Relaxed);
        OpenSpan(Some(OpenInner {
            phase,
            label: label(),
            lane,
            start_ns: collector().now_ns(),
        }))
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Ends the span explicitly (equivalent to dropping it).
    pub fn end(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(inner) = self.0.take() {
            let dur_ns = collector().now_ns().saturating_sub(inner.start_ns);
            inner.lane.events.lock().unwrap().push(RawEvent {
                phase: inner.phase,
                label: inner.label,
                start_ns: inner.start_ns,
                dur_ns,
            });
            inner.lane.open.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Drop for OpenSpan {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Records one zero-duration counter event.
pub fn instant(phase: Phase) {
    instant_n(phase, 1);
}

/// Records `n` zero-duration counter events (used where the runtime counts
/// in batches, e.g. `record_retries(n)` — one trace event per counted
/// retry keeps trace counts equal to [`CommStats`](crate::CommStats)
/// counters by construction).
pub fn instant_n(phase: Phase, n: usize) {
    if n == 0 || !enabled() {
        return;
    }
    let col = collector();
    let lane = thread_lane();
    let start_ns = col.now_ns();
    let mut events = lane.events.lock().unwrap();
    for _ in 0..n {
        events.push(RawEvent {
            phase,
            label: Label::None,
            start_ns,
            dur_ns: 0,
        });
    }
}

/// Opens a span.  `span!(phase)` or `span!(phase, "fmt {}", args)`; the
/// format arguments are only evaluated when tracing is enabled.  Returns
/// an [`OpenSpan`](crate::trace::OpenSpan) guard.
#[macro_export]
macro_rules! span {
    ($phase:expr) => {
        $crate::trace::OpenSpan::begin($phase)
    };
    ($phase:expr, $($fmt:tt)+) => {
        $crate::trace::OpenSpan::begin_with($phase, || format!($($fmt)+))
    };
}

// ---------------------------------------------------------------------------
// Histograms and metrics
// ---------------------------------------------------------------------------

/// Number of power-of-two latency buckets (bucket `i > 0` covers
/// `[2^(i-1), 2^i)` nanoseconds; bucket 0 is exactly zero).
pub const HIST_BUCKETS: usize = 48;

/// A log-scaled (power-of-two bucket) latency histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            ((64 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket(ns)] += 1;
    }

    /// Total number of recorded durations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`).  The estimate is the
    /// geometric midpoint of the bucket holding the target rank, so it is
    /// within a factor of two of the exact order statistic.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return if i == 0 {
                    0
                } else {
                    let lo = 1u64 << (i - 1);
                    lo + lo / 2
                };
            }
        }
        0
    }
}

/// Aggregated metrics for one phase kind.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetrics {
    /// The phase.
    pub phase: Phase,
    /// Number of spans / counter events recorded.
    pub count: u64,
    /// Total nanoseconds across all spans.
    pub total_ns: u64,
    /// Estimated median latency (ns).
    pub p50_ns: u64,
    /// Estimated 95th-percentile latency (ns).
    pub p95_ns: u64,
    /// Estimated 99th-percentile latency (ns).
    pub p99_ns: u64,
}

impl PhaseMetrics {
    /// Total measured seconds in this phase.
    pub fn seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// A point-in-time copy of the metrics registry (non-empty phases only).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-phase aggregates, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseMetrics>,
}

impl MetricsSnapshot {
    /// The aggregate row for `phase`, if it recorded anything.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseMetrics> {
        self.phases.iter().find(|m| m.phase == phase)
    }

    /// Event/span count for `phase` (zero when absent).
    pub fn count(&self, phase: Phase) -> u64 {
        self.phase(phase).map(|m| m.count).unwrap_or(0)
    }

    /// Total measured seconds for `phase` (zero when absent).
    pub fn seconds(&self, phase: Phase) -> f64 {
        self.phase(phase).map(|m| m.seconds()).unwrap_or(0.0)
    }
}

/// Aggregates the metrics from the recorded events (cheaper than
/// [`snapshot`]: no label rendering).  Aggregation happens here, at
/// report time, rather than as per-event atomic tallies on the recording
/// hot path.
pub fn metrics() -> MetricsSnapshot {
    let col = collector();
    let mut counts = [0u64; NUM_PHASES];
    let mut total_ns = [0u64; NUM_PHASES];
    let mut hists: Vec<Histogram> = vec![Histogram::new(); NUM_PHASES];
    for lane in col.lanes.lock().unwrap().iter() {
        for ev in lane.events.lock().unwrap().iter() {
            let i = ev.phase.index();
            counts[i] += 1;
            total_ns[i] += ev.dur_ns;
            hists[i].record(ev.dur_ns);
        }
    }
    let mut phases = Vec::new();
    for (i, &phase) in Phase::ALL.iter().enumerate() {
        if counts[i] == 0 {
            continue;
        }
        phases.push(PhaseMetrics {
            phase,
            count: counts[i],
            total_ns: total_ns[i],
            p50_ns: hists[i].percentile(0.50),
            p95_ns: hists[i].percentile(0.95),
            p99_ns: hists[i].percentile(0.99),
        });
    }
    MetricsSnapshot { phases }
}

// ---------------------------------------------------------------------------
// Snapshots and Chrome-trace export
// ---------------------------------------------------------------------------

/// All recorded events plus the metrics registry, at one point in time.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Every recorded span / counter event, ordered by start time.
    pub events: Vec<TraceEvent>,
    /// The aggregated metrics.
    pub metrics: MetricsSnapshot,
}

impl TraceSnapshot {
    /// Number of events of the given phase.
    pub fn count(&self, phase: Phase) -> usize {
        self.events.iter().filter(|e| e.phase == phase).count()
    }

    /// The multiset of `(phase, label)` pairs, sorted — timestamp-free, so
    /// two runs of a deterministic workload compare equal.
    pub fn shape(&self) -> Vec<(Phase, String)> {
        let mut shape: Vec<(Phase, String)> = self
            .events
            .iter()
            .map(|e| (e.phase, e.label.clone()))
            .collect();
        shape.sort();
        shape
    }

    /// Renders the Chrome `trace_event` JSON format: open the file in
    /// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.  One
    /// `tid` lane per pool rank plus the caller (lane 0).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // ts/dur are microseconds; three decimals keep exact ns.
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"vf\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{{\"label\":\"{}\"}}}}",
                ev.phase.name(),
                ev.start_ns / 1000,
                ev.start_ns % 1000,
                ev.dur_ns / 1000,
                ev.dur_ns % 1000,
                ev.lane,
                escape_json(&ev.label),
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Copies out all recorded events (sorted by start time) and metrics.
/// Labels recorded in deferred form (e.g. [`OpenSpan::begin_pair`]) are
/// rendered to text here.
pub fn snapshot() -> TraceSnapshot {
    let col = collector();
    let mut events = Vec::new();
    for lane in col.lanes.lock().unwrap().iter() {
        events.extend(lane.events.lock().unwrap().iter().map(|ev| TraceEvent {
            phase: ev.phase,
            label: ev.label.render(),
            lane: lane.id,
            start_ns: ev.start_ns,
            dur_ns: ev.dur_ns,
        }));
    }
    events.sort_by(|a, b| {
        (a.start_ns, a.lane, a.phase)
            .partial_cmp(&(b.start_ns, b.lane, b.phase))
            .unwrap()
    });
    TraceSnapshot {
        events,
        metrics: metrics(),
    }
}

/// [`snapshot`] followed by [`reset`].
pub fn take() -> TraceSnapshot {
    let snap = snapshot();
    reset();
    snap
}

/// Writes the current snapshot as Chrome-trace JSON to `path`.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, snapshot().to_chrome_json())
}

/// When tracing is enabled, writes the Chrome trace to `VF_TRACE_OUT`
/// (default `trace.json`) and returns the path written.  Call this at the
/// end of a program that wants `VF_TRACE=1` runs to leave a trace behind.
pub fn write_chrome_trace_if_env() -> std::io::Result<Option<String>> {
    if !enabled() {
        return Ok(None);
    }
    let path = std::env::var("VF_TRACE_OUT").unwrap_or_else(|_| "trace.json".into());
    write_chrome_trace(std::path::Path::new(&path))?;
    Ok(Some(path))
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Chrome-trace JSON parsing (round-trip)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Parses Chrome `trace_event` JSON (as produced by
/// [`TraceSnapshot::to_chrome_json`]) back into events.  Returns an error
/// if the text is not valid JSON, is missing the `traceEvents` array, or
/// names a phase this build does not know.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut parser = JsonParser::new(text);
    let root = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    let events = root.get("traceEvents").ok_or("missing traceEvents array")?;
    let Json::Arr(items) = events else {
        return Err("traceEvents is not an array".into());
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let name = item
            .get("name")
            .and_then(Json::as_str)
            .ok_or("event without name")?;
        let phase = Phase::from_name(name).ok_or_else(|| format!("unknown phase '{name}'"))?;
        // A missing or non-numeric `ts`/`dur` is a corrupt event; mapping
        // it to 0 would round-trip the corruption "successfully" as a
        // zeroed span, so reject it instead.
        let us_to_ns = |field: &str| -> Result<u64, String> {
            let v = item
                .get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event '{name}' has a missing or non-numeric '{field}'"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("event '{name}' has an invalid '{field}' ({v})"));
            }
            Ok((v * 1000.0).round() as u64)
        };
        out.push(TraceEvent {
            phase,
            label: item
                .get("args")
                .and_then(|a| a.get("label"))
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            lane: item.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u32,
            start_ns: us_to_ns("ts")?,
            dur_ns: us_to_ns("dur")?,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Drift report and metrics report
// ---------------------------------------------------------------------------

/// One measured-vs-modelled comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRow {
    /// What is being compared.
    pub name: String,
    /// Wall-clock seconds measured by trace spans (or the tracker's
    /// measured overlap).
    pub measured_seconds: f64,
    /// Seconds the cost model charged (credited) for the same work.
    pub modelled_seconds: f64,
}

impl DriftRow {
    /// `measured / modelled` (infinite when nothing was modelled but
    /// something was measured; 1.0 when both are zero).
    pub fn ratio(&self) -> f64 {
        if self.modelled_seconds == 0.0 {
            if self.measured_seconds == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.measured_seconds / self.modelled_seconds
        }
    }
}

/// Measured span seconds per phase next to the modelled (credited) seconds
/// in a [`CommStats`](crate::CommStats) — PR 6's measured-vs-credited
/// overlap idea as a stack-wide invariant.  The modelled side simulates
/// the configured machine (e.g. an iPSC/860), so the *ratio* is the
/// interesting signal: it should be stable across runs of the same
/// workload, and a jump flags either a runtime regression or a cost-model
/// drift.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftReport {
    /// Comparison rows.
    pub rows: Vec<DriftRow>,
}

impl DriftReport {
    /// Builds the report from a metrics snapshot and the modelled stats.
    pub fn compare(metrics: &MetricsSnapshot, stats: &CommStats) -> DriftReport {
        let rows = vec![
            DriftRow {
                name: "comm (post+wait)".into(),
                measured_seconds: metrics.seconds(Phase::Post) + metrics.seconds(Phase::Wait),
                modelled_seconds: stats.total_comm_time(),
            },
            DriftRow {
                name: "compute (interior)".into(),
                measured_seconds: metrics.seconds(Phase::InteriorCompute),
                modelled_seconds: stats.total_compute_time(),
            },
            DriftRow {
                name: "copy (pack+unpack)".into(),
                measured_seconds: metrics.seconds(Phase::WirePack) + metrics.seconds(Phase::Unpack),
                modelled_seconds: 0.0,
            },
            DriftRow {
                name: "overlap (measured/credited)".into(),
                measured_seconds: stats.measured_overlap_seconds(),
                modelled_seconds: stats.credited_overlap_seconds(),
            },
            DriftRow {
                name: "ckpt io (write+read)".into(),
                measured_seconds: metrics.seconds(Phase::CkptWrite)
                    + metrics.seconds(Phase::CkptRead),
                modelled_seconds: 0.0,
            },
        ];
        DriftReport { rows }
    }
}

impl fmt::Display for DriftReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<28} {:>14} {:>14} {:>8}",
            "drift", "measured", "modelled", "ratio"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<28} {:>12.3e}s {:>12.3e}s {:>8.3}",
                row.name,
                row.measured_seconds,
                row.modelled_seconds,
                row.ratio()
            )?;
        }
        Ok(())
    }
}

/// The machine-readable metrics summary: per-phase counts, totals and
/// percentiles plus the [`DriftReport`].  Render with
/// [`MetricsReport::to_json`] or `{}` (a human-readable profile table).
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Number of simulated processors of the machine that produced the
    /// modelled side.
    pub num_procs: usize,
    /// Per-phase aggregates (non-empty phases only).
    pub phases: Vec<PhaseMetrics>,
    /// Measured-vs-modelled comparison.
    pub drift: DriftReport,
}

impl MetricsReport {
    /// Builds the report from the global trace metrics and modelled stats.
    pub fn new(num_procs: usize, stats: &CommStats) -> MetricsReport {
        let snapshot = metrics();
        let drift = DriftReport::compare(&snapshot, stats);
        MetricsReport {
            num_procs,
            phases: snapshot.phases,
            drift,
        }
    }

    /// Renders the report as JSON (`phase name → count/total_ns/p50/…`,
    /// plus a `drift` section).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"num_procs\": {},\n", self.num_procs));
        out.push_str("  \"phases\": {\n");
        for (i, m) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{ \"count\": {}, \"total_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {} }}{}\n",
                m.phase.name(),
                m.count,
                m.total_ns,
                m.p50_ns,
                m.p95_ns,
                m.p99_ns,
                if i + 1 < self.phases.len() { "," } else { "" }
            ));
        }
        out.push_str("  },\n  \"drift\": {\n");
        for (i, row) in self.drift.rows.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{ \"measured_seconds\": {:e}, \"modelled_seconds\": {:e}, \"ratio\": {:e} }}{}\n",
                escape_json(&row.name),
                row.measured_seconds,
                row.modelled_seconds,
                row.ratio(),
                if i + 1 < self.drift.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<18} {:>8} {:>12} {:>10} {:>10} {:>10}",
            "phase", "count", "total", "p50", "p95", "p99"
        )?;
        for m in &self.phases {
            writeln!(
                f,
                "{:<18} {:>8} {:>10.3}ms {:>8.1}us {:>8.1}us {:>8.1}us",
                m.phase.name(),
                m.count,
                m.total_ns as f64 / 1e6,
                m.p50_ns as f64 / 1e3,
                m.p95_ns as f64 / 1e3,
                m.p99_ns as f64 / 1e3,
            )?;
        }
        writeln!(f)?;
        self.drift.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The collector is process-global: tests that enable tracing must not
    // interleave.
    static GUARD: StdMutex<()> = StdMutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = exclusive();
        set_enabled(false);
        reset();
        let span = OpenSpan::begin(Phase::Post);
        assert!(!span.is_recording());
        span.end();
        instant_n(Phase::Retry, 5);
        let snap = snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.metrics.phases.is_empty());
        assert_eq!(open_spans(), 0);
    }

    #[test]
    fn chrome_json_round_trips() {
        // Constructed events (no global state): live-span round-trips are
        // covered by the integration suite, which owns the collector.
        let events = vec![
            TraceEvent {
                phase: Phase::WirePack,
                label: "dst 3 \"quoted\"\n\ttab".into(),
                lane: 0,
                start_ns: 1_234_567,
                dur_ns: 89_001,
            },
            TraceEvent {
                phase: Phase::Retry,
                label: String::new(),
                lane: 1003,
                start_ns: 2_000_000_001,
                dur_ns: 0,
            },
        ];
        let snap = TraceSnapshot {
            events: events.clone(),
            metrics: MetricsSnapshot::default(),
        };
        let parsed = parse_chrome_trace(&snap.to_chrome_json()).expect("round trip parses");
        assert_eq!(parsed, events);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{}").is_err());
        assert!(parse_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"no-such-phase\",\"ts\":0,\"dur\":0,\"tid\":0}]}"
        )
        .is_err());
    }

    #[test]
    fn parse_rejects_malformed_timestamps() {
        // Corrupt events must not round-trip "successfully" as zeroed
        // spans: missing ts, missing dur, and non-numeric values are all
        // parse errors.
        let make = |ts_dur: &str| {
            format!("{{\"traceEvents\":[{{\"name\":\"retry\",{ts_dur}\"tid\":0}}]}}")
        };
        let missing_ts = make("\"dur\":1,");
        let err = parse_chrome_trace(&missing_ts).unwrap_err();
        assert!(err.contains("'ts'"), "unexpected error: {err}");
        let missing_dur = make("\"ts\":1,");
        let err = parse_chrome_trace(&missing_dur).unwrap_err();
        assert!(err.contains("'dur'"), "unexpected error: {err}");
        let non_numeric = make("\"ts\":\"soon\",\"dur\":1,");
        assert!(parse_chrome_trace(&non_numeric).is_err());
        let negative = make("\"ts\":-5,\"dur\":1,");
        assert!(parse_chrome_trace(&negative).is_err());
        // A well-formed event with the same shape still parses.
        let good = make("\"ts\":1.5,\"dur\":0.001,");
        let parsed = parse_chrome_trace(&good).expect("well-formed event parses");
        assert_eq!(parsed[0].start_ns, 1_500);
        assert_eq!(parsed[0].dur_ns, 1);
    }

    #[test]
    fn histogram_percentiles_match_naive_oracle() {
        let mut hist = Histogram::new();
        let mut values: Vec<u64> = Vec::new();
        let mut x = 1u64;
        for i in 0..1000u64 {
            // A deterministic spread over five decades.
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            let v = (x >> 33) % 100_000_000;
            values.push(v);
            hist.record(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1].max(1) as f64;
            let est = hist.percentile(q).max(1) as f64;
            let ratio = est / exact;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "p{q}: est {est} vs exact {exact} (ratio {ratio})"
            );
        }
        assert_eq!(hist.count(), 1000);
        assert_eq!(Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("bogus"), None);
        assert_eq!(Phase::ALL.len(), NUM_PHASES);
    }

    #[test]
    fn drift_report_compares_measured_and_modelled() {
        let mut stats = CommStats::new(2);
        stats.record_measured_overlap(0.5);
        stats.record_credited_overlap(0.25);
        let snap = MetricsSnapshot::default();
        let report = DriftReport::compare(&snap, &stats);
        let overlap = report
            .rows
            .iter()
            .find(|r| r.name.starts_with("overlap"))
            .unwrap();
        assert_eq!(overlap.measured_seconds, 0.5);
        assert_eq!(overlap.modelled_seconds, 0.25);
        assert_eq!(overlap.ratio(), 2.0);
        let text = format!("{report}");
        assert!(text.contains("measured") && text.contains("modelled"));
    }
}
