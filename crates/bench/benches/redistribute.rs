//! Criterion bench for E4: the DISTRIBUTE statement across distribution
//! type pairs and planning strategies.

use criterion::{criterion_group, BenchmarkId, Criterion};
use vf_core::prelude::*;

fn bench_redistribute(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_redistribute");
    group.sample_size(10);
    let p = 8usize;
    for &n in &[1usize << 12, 1 << 16] {
        let procs = ProcessorView::linear(p);
        let from =
            Distribution::new(DistType::block1d(), IndexDomain::d1(n), procs.clone()).unwrap();
        let to = Distribution::new(DistType::cyclic1d(1), IndexDomain::d1(n), procs).unwrap();
        for (opts, name) in [
            (RedistOptions::default(), "aggregated"),
            (RedistOptions::element_wise(), "element_wise"),
            (RedistOptions::notransfer(), "notransfer"),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    let tracker = CommTracker::new(p, CostModel::ipsc860(p));
                    let mut a = DistArray::from_fn("A", from.clone(), |pt| pt.coord(0) as f64);
                    let (cache, exec) = (PlanCache::new(), SerialExecutor);
                    redistribute(&mut a, to.clone(), &tracker, &opts, &cache, &exec).unwrap()
                })
            });
        }
    }
    group.finish();
}

/// The schedule-reuse scenario: the ADI-style alternation between two
/// distributions, planned fresh every iteration versus planned once and
/// replayed from the [`PlanCache`].  The cached run must move exactly the
/// same elements and charge exactly the same bytes; only the planning cost
/// disappears (the second and later iterations are pure cache hits).
fn bench_schedule_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_schedule_reuse");
    group.sample_size(10);
    let p = 8usize;
    let iterations = 8usize;
    for &n in &[1usize << 12, 1 << 16] {
        let procs = ProcessorView::linear(p);
        let from =
            Distribution::new(DistType::block1d(), IndexDomain::d1(n), procs.clone()).unwrap();
        let to = Distribution::new(DistType::cyclic1d(1), IndexDomain::d1(n), procs).unwrap();

        group.bench_with_input(BenchmarkId::new("plan_every_iteration", n), &n, |b, _| {
            b.iter(|| {
                let tracker = CommTracker::new(p, CostModel::ipsc860(p));
                let mut a = DistArray::from_fn("A", from.clone(), |pt| pt.coord(0) as f64);
                let mut moved = 0usize;
                let mut bytes = 0usize;
                for i in 0..iterations {
                    let target = if i % 2 == 0 { to.clone() } else { from.clone() };
                    // A fresh cache per statement: nothing is ever reused.
                    let r = redistribute(
                        &mut a,
                        target,
                        &tracker,
                        &RedistOptions::default(),
                        &PlanCache::new(),
                        &SerialExecutor,
                    )
                    .unwrap();
                    moved += r.moved_elements;
                    bytes += r.bytes;
                }
                (moved, bytes)
            })
        });

        group.bench_with_input(BenchmarkId::new("cached_schedule", n), &n, |b, _| {
            b.iter(|| {
                let cache = PlanCache::new();
                let tracker = CommTracker::new(p, CostModel::ipsc860(p));
                let mut a = DistArray::from_fn("A", from.clone(), |pt| pt.coord(0) as f64);
                let mut moved = 0usize;
                let mut bytes = 0usize;
                for i in 0..iterations {
                    let target = if i % 2 == 0 { to.clone() } else { from.clone() };
                    let r = redistribute(
                        &mut a,
                        target,
                        &tracker,
                        &RedistOptions::default(),
                        &cache,
                        &SerialExecutor,
                    )
                    .unwrap();
                    moved += r.moved_elements;
                    bytes += r.bytes;
                }
                // All iterations after the first pair hit the cache.
                assert_eq!(cache.stats().misses, 2);
                (moved, bytes)
            })
        });

        // Planning cost in isolation: a cache hit versus a fresh plan.
        group.bench_with_input(BenchmarkId::new("planning_fresh", n), &n, |b, _| {
            b.iter(|| {
                plan::plan_redistribute(&from, &to)
                    .unwrap()
                    .moved_elements()
            })
        });
        let warm = PlanCache::new();
        warm.redistribute_plan(&from, &to).unwrap();
        group.bench_with_input(BenchmarkId::new("planning_cache_hit", n), &n, |b, _| {
            b.iter(|| warm.redistribute_plan(&from, &to).unwrap().moved_elements())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_redistribute, bench_schedule_reuse);

fn main() {
    benches();
    let mut report = vf_bench::json::BenchReport::new();
    for (name, mean_seconds) in criterion::take_measurements() {
        report.entry(&name).num("ns_per_op", mean_seconds * 1e9);
    }
    report.write("BENCH_e4.json", "VF_E4_BENCH_JSON");
}
