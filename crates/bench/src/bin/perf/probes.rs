//! Layer probes: the same public calls the workloads make, issued directly
//! at a workload's sizes so one layer is timed by itself.  Each probe takes
//! a few samples and reports their median.

use crate::adapter::{self, Distribution, Layout, Plans};
use crate::metrics::Metrics;
use crate::stats::median;
use crate::workloads::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of `samples` calls of `f`.
pub fn time<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    let timings: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&timings)
}

/// Median of `samples` values `f` measured itself.
pub fn median_of(samples: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..samples).map(|_| f()).collect::<Vec<f64>>())
}

/// Median seconds of one call of `f`, timing `batch` calls per sample —
/// for calls too short to time singly.
pub fn time_batched<R>(samples: usize, batch: usize, mut f: impl FnMut() -> R) -> f64 {
    time(samples, || {
        for _ in 0..batch {
            black_box(f());
        }
    }) / batch as f64
}

const LOCATE_POINTS: usize = 1_000_000;

/// `dist.*`: building `layout` over `extents`, locating seeded points in
/// it, and enumerating every processor's local points.
pub fn dist(
    m: &mut Metrics,
    seed: u64,
    layout: &Layout,
    extents: &[usize],
    procs: usize,
) -> Distribution {
    m.set(
        "dist.build_us",
        time(9, || adapter::distribution(layout, extents, procs)) * 1e6,
    );
    let dist = adapter::distribution(layout, extents, procs);
    let size: usize = extents.iter().product();
    let mut rng = Rng::new(seed, 300);
    let lins: Vec<usize> = (0..LOCATE_POINTS).map(|_| rng.below(size)).collect();
    let per_point = time(5, || adapter::locate_all(&dist, &lins)) / LOCATE_POINTS as f64;
    m.set("dist.locate_ns", per_point * 1e9);
    m.set(
        "dist.local_points_ms",
        time(3, || adapter::local_points_all(&dist)) * 1e3,
    );
    dist
}

/// `plan.redistribute_cold_ms`, `plan.warm_us` and (for a class of
/// `parts > 1` arrays) `plan.fuse_us` for `from -> to`.
pub fn plan_redistribute(m: &mut Metrics, from: &Distribution, to: &Distribution, parts: usize) {
    m.set(
        "plan.redistribute_cold_ms",
        time(5, || Plans::new().redistribute(from, to).messages()) * 1e3,
    );
    let plans = Plans::new();
    let plan = plans.redistribute(from, to);
    m.set(
        "plan.warm_us",
        time_batched(9, 100, || plans.redistribute(from, to).messages()) * 1e6,
    );
    if parts > 1 {
        m.set(
            "plan.fuse_us",
            time(9, || adapter::fuse(&plan, parts)) * 1e6,
        );
    }
}

/// `plan.ghost_cold_ms` (and `plan.warm_us`, when `plan_redistribute` has
/// not set it) for the halo of `dist`.
pub fn plan_ghost(m: &mut Metrics, dist: &Distribution, widths: &[(usize, usize)]) {
    m.set(
        "plan.ghost_cold_ms",
        time(5, || Plans::new().ghost(dist, widths).messages()) * 1e3,
    );
    if m.get("plan.warm_us") == 0.0 {
        let plans = Plans::new();
        plans.ghost(dist, widths);
        m.set(
            "plan.warm_us",
            time_batched(9, 100, || plans.ghost(dist, widths).messages()) * 1e6,
        );
    }
}

/// `translation.build_ms`: the table of a fresh INDIRECT layout of
/// `elements` elements (a new map per sample — built tables are cached by
/// fingerprint).
pub fn translation_build(m: &mut Metrics, seed: u64, elements: usize, procs: usize) {
    let mut stream = 400;
    let build = median_of(3, || {
        stream += 1;
        let mut rng = Rng::new(seed, stream);
        let owners: Vec<usize> = (0..elements).map(|_| rng.below(procs)).collect();
        let dist = adapter::distribution(&adapter::layout_indirect1d(owners), &[elements], procs);
        let start = Instant::now();
        black_box(adapter::translation_table_pages(&dist));
        start.elapsed().as_secs_f64()
    });
    m.set("translation.build_ms", build * 1e3);
}

/// `pool.dispatch_us`: one empty job on the process-wide pool.
pub fn pool_dispatch(m: &mut Metrics) {
    m.set(
        "pool.dispatch_us",
        time_batched(9, 200, adapter::pool_dispatch_empty) * 1e6,
    );
}

const CODEC_ELEMENTS: usize = 1 << 20;
const STREAM_FRAME_BYTES: usize = 1 << 20;

/// `shard.scatter_gather_ms`, `spmd.*` and `element.*`: the pieces every
/// sharded statement is made of.
pub fn sharded_transport(m: &mut Metrics, seed: u64, elements: usize, procs: usize) {
    let mut rng = Rng::new(seed, 500);
    let data: Vec<f64> = (0..elements).map(|_| rng.unit()).collect();
    m.set(
        "shard.scatter_gather_ms",
        time(5, || adapter::shard_scatter_gather(&data, procs)) * 1e3,
    );
    m.set(
        "spmd.region_us",
        time(5, || adapter::spmd_empty_regions(20)) / 20.0 * 1e6,
    );
    m.set(
        "spmd.pingpong_us",
        median_of(5, || adapter::spmd_pingpong(500, 8)) / 500.0 * 1e6,
    );
    // Each round trip carries the frame there and back.
    let stream = median_of(5, || adapter::spmd_pingpong(20, STREAM_FRAME_BYTES));
    m.set(
        "spmd.stream_mb_per_s",
        (2 * 20 * STREAM_FRAME_BYTES) as f64 / 1e6 / stream,
    );
    let values: Vec<f64> = (0..CODEC_ELEMENTS).map(|_| rng.unit()).collect();
    let megabytes = (CODEC_ELEMENTS * 8) as f64 / 1e6;
    m.set(
        "element.encode_mb_per_s",
        megabytes / time(5, || adapter::encode(&values)),
    );
    let bytes = adapter::encode(&values);
    m.set(
        "element.decode_mb_per_s",
        megabytes / time(5, || adapter::decode(&bytes)),
    );
}
