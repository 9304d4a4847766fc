//! Tracing subsystem suite: span accounting over *live* runtime workloads.
//!
//! The unit tests inside `vf-machine` exercise the recorder in isolation;
//! this suite drives the real execution stack — blocking wire exchanges,
//! split-phase posts (waited, dropped and cancelled), and fault-degraded
//! chaos runs — and checks the global invariants:
//!
//! * every span that opens also closes (`open_spans() == 0`), on every
//!   path including cancellation and fault degradation,
//! * with tracing disabled nothing is recorded at all,
//! * the same seeded fault schedule produces the same trace shape,
//! * the Chrome export round-trips through [`trace::parse_chrome_trace`],
//! * histogram percentiles stay within the documented factor-two bound of
//!   the exact order statistics,
//! * the `retry` / `fault` / `fallback` instants agree with the
//!   [`CommStats`] counters *exactly* (they are emitted at the same choke
//!   points),
//! * checkpoint I/O costs one span per save / restore, however many bytes
//!   it moves.
//!
//! The trace collector is process-global, so every test here serialises on
//! a file-local mutex and leaves tracing disabled on exit.

use std::sync::{Arc, Mutex, MutexGuard};
use vf_core::prelude::*;
use vf_integration::{class_halo, class_halo_split, streaming_backend};
use vf_machine::trace;
use vf_machine::{FaultInjector, FaultKind, FaultPlan};

const WIDTHS: [(usize, usize); 2] = [(1, 1), (1, 1)];

// The trace collector is process-global: tests that enable tracing must
// not interleave with each other.
static GUARD: Mutex<()> = Mutex::new(());

/// Takes the serialisation lock and puts the recorder in a known state.
fn locked_tracing(enabled: bool) -> MutexGuard<'static, ()> {
    let guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(enabled);
    trace::reset();
    guard
}

fn grid_arrays(n: usize, p: usize, fields: usize) -> Vec<DistArray<f64>> {
    let dist = Distribution::new(
        DistType::blocks2d(),
        IndexDomain::d2(n, n),
        ProcessorView::linear(p),
    )
    .unwrap();
    (0..fields)
        .map(|k| {
            DistArray::from_fn("T", dist.clone(), |pt| {
                (pt.coord(0) * 1000 + pt.coord(1)) as f64 * (k + 1) as f64
            })
        })
        .collect()
}

/// Blocking, waited-split, dropped-split and fault-degraded executions all
/// leave zero spans open.
#[test]
fn spans_balance_on_every_execution_path() {
    let _guard = locked_tracing(true);
    let p = 4usize;
    let arrays = grid_arrays(12, p, 2);
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let pool = Arc::new(WorkerPool::new(3));
    let backend = streaming_backend(&pool);

    // Blocking wire path.
    let tracker = CommTracker::new(p, CostModel::zero());
    class_halo(&refs, &WIDTHS, &tracker, &PlanCache::new(), &SerialExecutor).unwrap();
    assert_eq!(trace::open_spans(), 0, "blocking");

    // Split-phase, waited.
    let split = class_halo_split(&refs, &WIDTHS, &tracker, &PlanCache::new(), &backend).unwrap();
    split.wait().unwrap();
    assert_eq!(trace::open_spans(), 0, "split waited");

    // Split-phase, dropped without wait: the cancellation path must close
    // the pending-handle span and every worker span.
    let split = class_halo_split(&refs, &WIDTHS, &tracker, &PlanCache::new(), &backend).unwrap();
    drop(split);
    assert_eq!(trace::open_spans(), 0, "split dropped");

    // Fault-degraded paths: every kind armed at rate 1.0, blocking and
    // split rounds — retries, corruption repairs, worker deaths and
    // cancelled handles all fire.
    let plan = FaultPlan::new(0xBA1A9CE).with_rate(1.0).with_max_faults(48);
    let inj = Arc::new(FaultInjector::new(plan));
    let tracker = CommTracker::new(p, CostModel::zero()).with_fault_injector(Arc::clone(&inj));
    let chaos_pool = Arc::new(WorkerPool::new(3));
    let chaos_backend = streaming_backend(&chaos_pool);
    for _ in 0..3 {
        class_halo(&refs, &WIDTHS, &tracker, &PlanCache::new(), &SerialExecutor).unwrap();
        let split =
            class_halo_split(&refs, &WIDTHS, &tracker, &PlanCache::new(), &chaos_backend).unwrap();
        split.wait().unwrap();
    }
    assert!(inj.faults_injected() > 0, "the chaos schedule fired");
    assert_eq!(trace::open_spans(), 0, "fault-degraded");
    // Every phase of the wire path recorded spans.
    let snap = trace::snapshot();
    for phase in [
        trace::Phase::GhostExchange,
        trace::Phase::Post,
        trace::Phase::Unpack,
        trace::Phase::Wait,
    ] {
        assert!(snap.count(phase) > 0, "no {} spans", phase.name());
    }

    trace::set_enabled(false);
}

/// With tracing disabled the same workloads record nothing: no events, no
/// metrics, no open spans.
#[test]
fn disabled_mode_records_no_events() {
    let _guard = locked_tracing(false);
    let p = 4usize;
    let arrays = grid_arrays(12, p, 2);
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let tracker = CommTracker::new(p, CostModel::zero());
    let pool = Arc::new(WorkerPool::new(3));
    let backend = streaming_backend(&pool);

    class_halo(&refs, &WIDTHS, &tracker, &PlanCache::new(), &SerialExecutor).unwrap();
    let split = class_halo_split(&refs, &WIDTHS, &tracker, &PlanCache::new(), &backend).unwrap();
    split.wait().unwrap();

    assert_eq!(trace::snapshot().events.len(), 0, "no events");
    assert!(trace::metrics().phases.is_empty(), "no metrics");
    assert_eq!(trace::open_spans(), 0);
}

/// The multiset of `(phase, label)` pairs a seeded chaos run records —
/// its *shape*, timing aside — is identical across runs of the same
/// schedule.
#[test]
fn trace_shape_is_deterministic_under_a_fault_seed() {
    let _guard = locked_tracing(true);
    let p = 4usize;
    let arrays = grid_arrays(12, p, 2);
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();

    let run = || -> Vec<(String, String)> {
        trace::reset();
        let plan = FaultPlan::new(0x5EED).with_rate(1.0).with_max_faults(32);
        let inj = Arc::new(FaultInjector::new(plan));
        let tracker = CommTracker::new(p, CostModel::zero()).with_fault_injector(inj);
        let pool = Arc::new(WorkerPool::new(3));
        let backend = streaming_backend(&pool);
        for _ in 0..2 {
            class_halo(&refs, &WIDTHS, &tracker, &PlanCache::new(), &SerialExecutor).unwrap();
            let split =
                class_halo_split(&refs, &WIDTHS, &tracker, &PlanCache::new(), &backend).unwrap();
            split.wait().unwrap();
        }
        let mut shape: Vec<(String, String)> = trace::snapshot()
            .events
            .iter()
            .map(|ev| (ev.phase.name().to_string(), ev.label.clone()))
            .collect();
        shape.sort();
        shape
    };

    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(first, second, "same seed, same trace shape");

    trace::set_enabled(false);
}

/// `write_chrome_trace` produces a file `parse_chrome_trace` accepts, with
/// every recorded event surviving the round trip (phases, labels, lanes;
/// timestamps to the exporter's precision).
#[test]
fn chrome_export_round_trips_through_the_parser() {
    let _guard = locked_tracing(true);
    let p = 4usize;
    let arrays = grid_arrays(12, p, 2);
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let tracker = CommTracker::new(p, CostModel::zero());
    let pool = Arc::new(WorkerPool::new(3));
    let backend = streaming_backend(&pool);
    class_halo(&refs, &WIDTHS, &tracker, &PlanCache::new(), &SerialExecutor).unwrap();
    let split = class_halo_split(&refs, &WIDTHS, &tracker, &PlanCache::new(), &backend).unwrap();
    split.wait().unwrap();

    let snap = trace::snapshot();
    assert!(!snap.events.is_empty());
    let path = std::env::temp_dir().join(format!("vf_trace_roundtrip_{}.json", std::process::id()));
    trace::write_chrome_trace(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let parsed = trace::parse_chrome_trace(&text).unwrap();

    assert_eq!(parsed.len(), snap.events.len(), "event count");
    let key = |ev: &trace::TraceEvent| (ev.phase, ev.label.clone(), ev.lane);
    let mut want: Vec<_> = snap.events.iter().map(key).collect();
    let mut got: Vec<_> = parsed.iter().map(key).collect();
    want.sort();
    got.sort();
    assert_eq!(got, want, "phases, labels and lanes survive the round trip");

    trace::set_enabled(false);
}

/// Histogram percentile estimates stay within the documented factor-two
/// bound of the exact order statistic, across several distributions.
#[test]
fn histogram_percentiles_track_a_naive_oracle() {
    // Deterministic xorshift so the test never flakes.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let uniform: Vec<u64> = (0..4096).map(|_| next() % 1_000_000).collect();
    let skewed: Vec<u64> = (0..4096)
        .map(|i| {
            if i % 100 == 0 {
                next() % 50_000_000
            } else {
                next() % 2_000
            }
        })
        .collect();
    let tiny: Vec<u64> = vec![0, 1, 1, 2, 3, 900];

    for samples in [&uniform, &skewed, &tiny] {
        let mut hist = trace::Histogram::new();
        for &ns in samples.iter() {
            hist.record(ns);
        }
        assert_eq!(hist.count(), samples.len() as u64);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = hist.percentile(q);
            if exact == 0 {
                assert_eq!(est, 0, "q={q}: zero bucket is exact");
            } else {
                assert!(
                    est as f64 >= exact as f64 / 2.0 && est as f64 <= exact as f64 * 2.0,
                    "q={q}: estimate {est} outside factor two of exact {exact}"
                );
            }
        }
    }
}

/// The `retry`, `fault` and `fallback` instants are emitted at the same
/// choke points that bump the [`CommStats`] counters, so after a chaos run
/// the trace counts match the stats counters *exactly*.
#[test]
fn fault_instants_match_comm_stats_counters_exactly() {
    let _guard = locked_tracing(true);
    let p = 4usize;
    let arrays = grid_arrays(16, p, 3);
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();

    let plan = FaultPlan::new(0xC0FFEE)
        .with_rate(1.0)
        .with_kinds(FaultKind::ALL.as_slice())
        .with_max_faults(64);
    let inj = Arc::new(FaultInjector::new(plan));
    let tracker = CommTracker::new(p, CostModel::zero()).with_fault_injector(Arc::clone(&inj));
    let pool = Arc::new(WorkerPool::new(3));
    let backend = streaming_backend(&pool);
    for _ in 0..3 {
        class_halo(&refs, &WIDTHS, &tracker, &PlanCache::new(), &SerialExecutor).unwrap();
        let split =
            class_halo_split(&refs, &WIDTHS, &tracker, &PlanCache::new(), &backend).unwrap();
        split.wait().unwrap();
    }

    let stats = tracker.snapshot();
    let snap = trace::snapshot();
    assert!(stats.faults_injected() > 0, "the schedule fired");
    assert_eq!(
        snap.count(trace::Phase::Fault),
        stats.faults_injected(),
        "fault instants"
    );
    assert_eq!(
        snap.count(trace::Phase::Retry),
        stats.retries(),
        "retry instants"
    );
    assert_eq!(
        snap.count(trace::Phase::Fallback),
        stats.fallbacks(),
        "fallback instants"
    );

    trace::set_enabled(false);
}

/// A traced checkpoint save / restore records one span each — not one
/// event per byte, which at 1 MB would be a million events and ~40 MB of
/// trace for a single save.
#[test]
fn traced_checkpoint_io_records_one_event_per_operation() {
    let _guard = locked_tracing(true);
    let p = 4usize;
    let n = 128 * 1024; // 1 MiB of f64
    let dist = Distribution::new(
        DistType::block1d(),
        IndexDomain::d1(n),
        ProcessorView::linear(p),
    )
    .unwrap();
    let array = DistArray::from_fn("C", dist, |pt| pt.coord(0) as f64);
    let tracker = CommTracker::new(p, CostModel::zero());
    let dir = std::env::temp_dir().join(format!("vf_trace_suite_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir);

    store.save(&array, 1, &tracker).unwrap();
    let restored = store.restore::<f64>(&tracker).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(restored.array.to_dense(), array.to_dense());

    let stats = tracker.snapshot();
    assert!(stats.ckpt_bytes_written() >= n * 8, "the bytes are counted");
    assert_eq!(stats.ckpt_bytes_read(), stats.ckpt_bytes_written());
    let snap = trace::snapshot();
    assert_eq!(snap.count(trace::Phase::CkptWrite), 1);
    assert_eq!(snap.count(trace::Phase::CkptRead), 1);
    assert!(
        snap.events.len() < 64,
        "{} trace events for one save + restore",
        snap.events.len()
    );
    assert_eq!(trace::open_spans(), 0);

    trace::set_enabled(false);
}
