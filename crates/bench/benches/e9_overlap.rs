//! E9 — split-phase wire execution: real compute/communication overlap.
//!
//! The split executor posts a fused class halo exchange (pack + message
//! post), streams the unpack on background pool workers, and completes at
//! an explicit wait — so the caller's interior compute runs *while the
//! halo is in flight*.  This bench measures that overlap for a 4-field
//! stencil class on a 256k-element grid:
//!
//! 1. **blocking then compute**: the blocking wire exchange followed by an
//!    interior-compute kernel calibrated to take about as long as the
//!    exchange itself,
//! 2. **split overlap**: post the same exchange, run the same kernel while
//!    the unpack streams, then wait — the overlapped total,
//! 3. **model validation**: the cost model's *credited* overlap (with
//!    `copy_per_byte` calibrated from the measured unpack rate) against
//!    the *measured* wall-clock overlap the tracker records at the wait.
//!
//! Custom harness (no criterion) because the run doubles as three CI
//! guards on multi-core hosts: the measured overlap must be **> 0**, the
//! credited overlap must be **within 2×** of the measured one, and the
//! split pipeline must be **≥ 1.1× faster** end-to-end than
//! blocking-then-compute.  Hosts with a single hardware core cannot
//! overlap anything, so the guards are skipped there (and under
//! `VF_E9_SKIP_GUARD=1`).
//!
//! Every measurement is also written to `BENCH_e9.json`
//! (`name → { ns_per_op, messages, bytes }`).

use std::hint::black_box;
use std::sync::Arc;
use vf_bench::timing::{ns, time_min};
use vf_core::prelude::*;
use vf_machine::pool::WorkerPool;
use vf_runtime::ghost::{exchange_class_ghosts, exchange_class_ghosts_split};

const PROCS: usize = 8;
const WORKERS: usize = 4;
const REPS: usize = 7;
// An 8-column halo per neighbour face: wide enough that the streamed
// unpack is a meaningful fraction of the exchange, the case overlap pays
// for.
const WIDTHS: [(usize, usize); 2] = [(0, 0), (8, 8)];

/// The class's fused halo plan, through the cache — part of every timed
/// statement, as it is of every `VfScope` halo statement.
fn class_plan(refs: &[&DistArray<f64>], cache: &PlanCache) -> FusedPlan {
    cache
        .ghost_class_plan(refs.iter().map(|a| a.dist()), &WIDTHS)
        .unwrap()
}

/// One JSON record: `name → { ns_per_op, messages, bytes }`.
struct Record {
    name: &'static str,
    ns_per_op: f64,
    messages: usize,
    bytes: usize,
}

fn write_json(records: &[Record]) {
    let mut report = vf_bench::json::BenchReport::new();
    for r in records {
        report.record(r.name, r.ns_per_op, r.messages, r.bytes);
    }
    report.write("BENCH_e9.json", "VF_E9_BENCH_JSON");
}

/// The interior-compute stand-in: a streaming pass over the dense field
/// values, repeated `iters` times.  Pure caller-thread FLOPs — exactly the
/// work a split-phase sweep does between the post and the wait.
fn compute_kernel(data: &[f64], iters: usize) -> f64 {
    let mut acc = 0.0f64;
    for _ in 0..iters {
        for &v in data {
            acc = acc * 0.999_999 + v;
        }
        acc = black_box(acc);
    }
    acc
}

fn main() {
    println!("# E9 — split-phase halo exchange: compute/communication overlap\n");
    let fields = 4usize;
    let (dist, arrays) = vf_bench::fixtures::wire_class(PROCS, fields);
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let dense = arrays[0].to_dense();
    let cache = PlanCache::new();
    let tracker = CommTracker::new(PROCS, CostModel::zero());
    let pool = Arc::new(WorkerPool::new(WORKERS));
    let pooled = ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0);
    let backend = ExecBackend::Threaded(pooled.clone());

    // Calibrate: measure the per-element kernel rate and one blocking
    // exchange, then size the kernel (slice length x iterations) to
    // roughly the exchange time — an interior compute phase of the same
    // order as the halo, the regime overlap is for.
    let t_ex = time_min(REPS, || {
        exchange_class_ghosts(&refs, &class_plan(&refs, &cache), &tracker, &pooled).unwrap()
    });
    let t_full = time_min(REPS, || compute_kernel(&dense, 1));
    let per_elem = ns(t_full) / dense.len() as f64;
    let target_elems = (ns(t_ex) / per_elem.max(1e-3)) as usize;
    let (work_len, iters) = if target_elems <= dense.len() {
        (target_elems.max(1024), 1)
    } else {
        (dense.len(), (target_elems / dense.len()).max(1))
    };
    let dense = &dense[..work_len];
    println!(
        "calibration: exchange {:.0} us, kernel {:.2} ns/elem -> {work_len} elems x {iters} iters",
        ns(t_ex) / 1e3,
        per_elem
    );

    // The split path must charge exactly what the blocking wire path does.
    let (blocking_regions, exec) =
        exchange_class_ghosts(&refs, &class_plan(&refs, &cache), &tracker, &pooled).unwrap();
    let split = exchange_class_ghosts_split(&refs, class_plan(&refs, &cache), &tracker, &backend)
        .expect("split post");
    assert_eq!(split.messages(), exec.messages, "messages not conserved");
    assert_eq!(split.bytes(), exec.bytes, "bytes not conserved");
    let streaming = split.is_streaming();
    let (split_regions, probe) = split.wait().unwrap();
    for (a, b) in blocking_regions.iter().zip(&split_regions) {
        for proc in dist.proc_ids() {
            assert_eq!(a.len(*proc), b.len(*proc), "ghost slot counts differ");
        }
    }
    println!(
        "split post streams on background workers: {streaming} \
         (unpack {:.0} us total)",
        probe.measured_unpack_seconds * 1e6
    );

    // 1 + 2. Blocking-then-compute vs post/compute/wait.
    let run_blocking = || {
        let out =
            exchange_class_ghosts(&refs, &class_plan(&refs, &cache), &tracker, &pooled).unwrap();
        black_box(compute_kernel(dense, iters));
        out
    };
    let run_split = |tracker: &CommTracker| {
        let split =
            exchange_class_ghosts_split(&refs, class_plan(&refs, &cache), tracker, &backend)
                .unwrap();
        black_box(compute_kernel(dense, iters));
        split.wait()
    };
    let t_blocking = ns(time_min(REPS, run_blocking));
    let t_split = ns(time_min(REPS, || run_split(&tracker)));
    println!("\n## halo + interior compute, 256k elements x {fields} fields\n");
    println!("| variant | total | speedup |");
    println!("|---|---|---|");
    println!(
        "| blocking then compute | {:.0} us | 1.00x |",
        t_blocking / 1e3
    );
    println!(
        "| split-phase overlap | {:.0} us | {:.2}x |",
        t_split / 1e3,
        t_blocking / t_split
    );

    // 3. Credited (modelled) vs measured overlap.  `copy_per_byte` is
    // calibrated from the probe's measured unpack rate, so the model's
    // credit at the wait should land near the wall-clock overlap the
    // tracker records; the wire path credits both the pack and the unpack
    // stream, hence the half-rate.
    let rate = probe.measured_unpack_seconds / (2.0 * exec.bytes as f64).max(1.0);
    let mut priced = CostModel::from_alpha_beta(0.0, 4.0 * rate);
    priced.copy_per_byte = rate;
    let overlap_once = |iters: usize| {
        let t = CommTracker::new(PROCS, priced.clone());
        let (_, report) = run_split_with(&refs, &cache, &backend, dense, iters, &t);
        (t.snapshot().credited_overlap_seconds(), report)
    };
    fn run_split_with(
        refs: &[&DistArray<f64>],
        cache: &PlanCache,
        backend: &ExecBackend,
        dense: &[f64],
        iters: usize,
        tracker: &CommTracker,
    ) -> (Vec<f64>, vf_runtime::SplitExecReport) {
        let split =
            exchange_class_ghosts_split(refs, class_plan(refs, cache), tracker, backend).unwrap();
        let acc = black_box(compute_kernel(dense, iters));
        let (_, report) = split.wait().unwrap();
        (vec![acc], report)
    }
    let (credited, report) = overlap_once(iters);
    let measured = report.measured_overlap_seconds;
    println!("\n## overlap accounting\n");
    println!(
        "measured overlap {:.0} us, credited (model) {:.0} us, unpack total {:.0} us",
        measured * 1e6,
        credited * 1e6,
        report.measured_unpack_seconds * 1e6
    );

    write_json(&[
        Record {
            name: "halo_then_compute_blocking_256k",
            ns_per_op: t_blocking,
            messages: exec.messages,
            bytes: exec.bytes,
        },
        Record {
            name: "halo_compute_split_256k",
            ns_per_op: t_split,
            messages: exec.messages,
            bytes: exec.bytes,
        },
        Record {
            name: "overlap_measured_256k",
            ns_per_op: measured * 1e9,
            messages: exec.messages,
            bytes: exec.bytes,
        },
        Record {
            name: "overlap_credited_256k",
            ns_per_op: credited * 1e9,
            messages: exec.messages,
            bytes: exec.bytes,
        },
    ]);

    // CI guards — only meaningful with real parallel hardware: a single
    // core timeshares the "background" workers with the caller, so neither
    // the overlap nor the speedup is reliably positive there.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if std::env::var_os("VF_E9_SKIP_GUARD").is_some() {
        println!("\nguards skipped (VF_E9_SKIP_GUARD set)");
        return;
    }
    if cores < 2 {
        println!("\nguards skipped (single hardware core: no real overlap is possible)");
        return;
    }
    assert!(streaming, "zero cutoff + {WORKERS} workers must stream");

    // Re-measure before declaring a regression on a noisy shared runner.
    let mut measured = measured;
    let mut credited = credited;
    for _ in 0..3 {
        let ratio = credited / measured.max(1e-12);
        if measured > 0.0 && (0.5..=2.0).contains(&ratio) {
            break;
        }
        let (c, r) = overlap_once(iters);
        credited = c;
        measured = r.measured_overlap_seconds;
    }
    if measured <= 0.0 {
        eprintln!("FAIL: split-phase exchange measured no compute/communication overlap");
        std::process::exit(1);
    }
    println!(
        "\nguard ok: measured overlap positive ({:.0} us)",
        measured * 1e6
    );
    let ratio = credited / measured;
    if !(0.5..=2.0).contains(&ratio) {
        eprintln!(
            "FAIL: cost-model overlap credit is {ratio:.2}x the measured overlap (must be within 2x)"
        );
        std::process::exit(1);
    }
    println!("guard ok: credited overlap within 2x of measured ({ratio:.2}x)");

    let mut speedup = t_blocking / t_split;
    for _ in 0..3 {
        if speedup >= 1.1 {
            break;
        }
        speedup = ns(time_min(REPS, run_blocking)) / ns(time_min(REPS, || run_split(&tracker)));
    }
    if speedup < 1.1 {
        eprintln!(
            "FAIL: split-phase pipeline is only {speedup:.2}x faster than blocking-then-compute (limit 1.1x)"
        );
        std::process::exit(1);
    }
    println!(
        "guard ok: split pipeline {speedup:.2}x faster than blocking-then-compute (limit 1.1x)"
    );
}
