//! E5 — parallel plan execution: serial vs threaded [`PlanExecutor`]
//! backends on the direct-copy engine, and a connect-class `DISTRIBUTE` as
//! four array verbs versus one class verb (the wire engine).
//!
//! Custom harness (no criterion) because the run doubles as a CI guard:
//! after reporting, the 256k-element case asserts that the auto-selected
//! threaded executor is not slower than the serial baseline by more than
//! 1.5× (a lock-contention or partitioning regression would show up here).
//! Set `VF_E5_SKIP_GUARD=1` to report without enforcing.

use std::hint::black_box;
use std::sync::Arc;
use vf_bench::timing::{secs, time_min};
use vf_core::prelude::*;

const PROCS: usize = 8;
const REPS: usize = 5;

struct Case {
    plan: Arc<CommPlan>,
    src: Vec<Vec<f64>>,
    dst_sizes: Vec<usize>,
}

/// A worst-case-fragmentation redistribution (BLOCK → CYCLIC(1): one run
/// per element) of `n` elements over [`PROCS`] processors.
fn cyclic_case(n: usize) -> Case {
    let procs = ProcessorView::linear(PROCS);
    let from = Distribution::new(DistType::block1d(), IndexDomain::d1(n), procs.clone()).unwrap();
    let to = Distribution::new(DistType::cyclic1d(1), IndexDomain::d1(n), procs).unwrap();
    let plan = Arc::new(plan::plan_redistribute(&from, &to).unwrap());
    let src: Vec<Vec<f64>> = (0..PROCS)
        .map(|p| {
            let len = from.local_size(ProcId(p));
            (0..len).map(|i| (p * 1_000_000 + i) as f64).collect()
        })
        .collect();
    let dst_sizes: Vec<usize> = (0..PROCS).map(|p| to.local_size(ProcId(p))).collect();
    Case {
        plan,
        src,
        dst_sizes,
    }
}

fn run_exec<E: PlanExecutor>(case: &Case, executor: &E) -> usize {
    let tracker = CommTracker::new(PROCS, CostModel::ipsc860(PROCS));
    let (bufs, report) = executor
        .execute(&case.plan, &case.src, &case.dst_sizes, &tracker, true)
        .unwrap();
    black_box(bufs.len());
    report.bytes
}

fn main() {
    println!("# E5 — parallel plan execution\n");
    let threaded = ThreadedExecutor::auto();
    println!(
        "host parallelism: {} worker(s); auto backend: {}\n",
        threaded.workers(),
        ExecBackend::auto().name()
    );

    println!("## serial vs threaded executor (BLOCK -> CYCLIC, {PROCS} procs)\n");
    println!("| elements | serial | threaded | speedup |");
    println!("|---|---|---|---|");
    let mut report = vf_bench::json::BenchReport::new();
    let mut guard_times: Option<(f64, f64)> = None;
    for &n in &[1usize << 16, 1 << 18, 1 << 20] {
        let case = cyclic_case(n);
        let serial_bytes = run_exec(&case, &SerialExecutor);
        let threaded_bytes = run_exec(&case, &threaded);
        assert_eq!(
            serial_bytes, threaded_bytes,
            "backends must charge identical traffic"
        );
        let t_serial = time_min(REPS, || run_exec(&case, &SerialExecutor));
        let t_threaded = time_min(REPS, || run_exec(&case, &threaded));
        println!(
            "| {} | {:.3e} s | {:.3e} s | {:.2}x |",
            n,
            secs(t_serial),
            secs(t_threaded),
            secs(t_serial) / secs(t_threaded)
        );
        let messages = case.plan.num_messages();
        report.record(
            &format!("exec_serial_{n}"),
            secs(t_serial) * 1e9,
            messages,
            serial_bytes,
        );
        report.record(
            &format!("exec_threaded_{n}"),
            secs(t_threaded) * 1e9,
            messages,
            threaded_bytes,
        );
        if n == 1 << 18 {
            guard_times = Some((secs(t_serial), secs(t_threaded)));
        }
    }

    println!("\n## connect-class DISTRIBUTE (4 arrays, 256k elements each)\n");
    let n = 1usize << 18;
    let procs = ProcessorView::linear(PROCS);
    let from = Distribution::new(DistType::block1d(), IndexDomain::d1(n), procs.clone()).unwrap();
    let to = Distribution::new(
        DistType::gen_block1d(shifted_sizes(n, PROCS)),
        IndexDomain::d1(n),
        procs,
    )
    .unwrap();
    let plan = Arc::new(plan::plan_redistribute(&from, &to).unwrap());
    let parts: Vec<Arc<CommPlan>> = (0..4).map(|_| Arc::clone(&plan)).collect();
    let unfused_messages: usize = parts.iter().map(|p| p.num_messages()).sum();
    let fused = FusedPlan::fuse(parts).unwrap();
    println!(
        "messages per DISTRIBUTE: {} unfused -> {} fused (moved bytes identical: {})",
        unfused_messages,
        fused.num_messages(),
        fused.bytes_for(8)
    );
    let base: Vec<DistArray<f64>> = (0..4)
        .map(|k| DistArray::from_fn(format!("A{k}"), from.clone(), |pt| pt.coord(0) as f64))
        .collect();
    let t_unfused = time_min(REPS, || {
        let mut arrays = base.clone();
        let tracker = CommTracker::new(PROCS, CostModel::ipsc860(PROCS));
        for a in &mut arrays {
            execute_redistribute(
                a,
                &plan,
                &tracker,
                &RedistOptions::default(),
                &SerialExecutor,
            )
            .unwrap();
        }
        arrays.len()
    });
    let t_fused = time_min(REPS, || {
        let mut arrays = base.clone();
        let tracker = CommTracker::new(PROCS, CostModel::ipsc860(PROCS));
        let mut refs: Vec<&mut DistArray<f64>> = arrays.iter_mut().collect();
        execute_class_redistribute(&mut refs, &fused, &tracker, &threaded).unwrap();
        arrays.len()
    });
    println!(
        "one pass, 4 arrays: {:.3e} s as array verbs (serial) vs {:.3e} s as one class verb ({}) ({:.2}x)",
        secs(t_unfused),
        secs(t_fused),
        threaded.name(),
        secs(t_unfused) / secs(t_fused)
    );
    let fused_bytes = fused.bytes_for(8);
    report.record(
        "distribute_unfused_4x256k",
        secs(t_unfused) * 1e9,
        unfused_messages,
        fused_bytes,
    );
    report.record(
        "distribute_fused_4x256k",
        secs(t_fused) * 1e9,
        fused.num_messages(),
        fused_bytes,
    );
    report.write("BENCH_e5.json", "VF_E5_BENCH_JSON");

    // CI guard: the auto threaded executor must not regress past 1.5x the
    // serial time on the 256k case (guards lock contention and bad
    // partitioning; on single-core hosts the auto backend degrades to the
    // serial loop and trivially passes).
    let (t_serial, t_threaded) = guard_times.expect("256k case ran");
    if std::env::var_os("VF_E5_SKIP_GUARD").is_some() {
        println!("\nguard skipped (VF_E5_SKIP_GUARD set)");
        return;
    }
    let mut ratio = t_threaded / t_serial;
    // Shared CI runners can spike a single measurement with scheduling
    // noise; re-measure before declaring a regression.
    for _ in 0..2 {
        if ratio <= 1.5 {
            break;
        }
        let case = cyclic_case(1 << 18);
        let s = secs(time_min(REPS, || run_exec(&case, &SerialExecutor)));
        let t = secs(time_min(REPS, || run_exec(&case, &threaded)));
        ratio = t / s;
    }
    if ratio > 1.5 {
        eprintln!(
            "FAIL: threaded executor is {ratio:.2}x the serial time on the 256k case \
             (limit 1.5x, serial baseline {t_serial:.3e} s)"
        );
        std::process::exit(1);
    }
    println!("\nguard ok: threaded/serial = {ratio:.2} (limit 1.5) on the 256k case");
}

/// General block sizes shifted by half a block against the even BLOCK
/// partition — every processor pair of neighbours exchanges one contiguous
/// interval, so the fused bench measures pure memcpy, not fragmentation.
fn shifted_sizes(n: usize, p: usize) -> Vec<usize> {
    let even = n / p;
    let mut sizes = vec![even; p];
    sizes[0] = even / 2;
    sizes[p - 1] = n - (p - 1) * even + even / 2;
    sizes
}
