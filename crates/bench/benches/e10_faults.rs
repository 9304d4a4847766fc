//! E10 — fault injection: chaos recovery on the wire path.
//!
//! **What does recovery cost when everything fails?**  The e8 wire fixture
//! (a 4-field stencil class, (:, BLOCK) over a 128x2048 grid, 1-column
//! halo faces) runs under a seeded all-kinds fault schedule (transient
//! sends, delayed deliveries, corrupted wires, worker deaths, cancelled
//! handles) through both modes of the wire pipeline — blocking and split
//! streaming; the results must stay bitwise equal to the fault-free run and
//! the tracker's fault counters must match the injector's record.
//!
//! Every wire is framed (sequence number, length, checksum) — there is no
//! unframed configuration to time against; `e8_pool`'s "class verb no
//! slower than one array verb per field" is the wall-clock bound on the
//! wire path, checksum included.
//!
//! Custom harness (no criterion): the asserts are the CI guard, and the run
//! emits `BENCH_e10.json` (`VF_E10_BENCH_JSON` overrides the path).

use std::sync::Arc;
use vf_core::prelude::*;
use vf_machine::pool::WorkerPool;
use vf_machine::{FaultInjector, FaultPlan};
use vf_runtime::ghost::{exchange_class_ghosts, exchange_class_ghosts_split};

const PROCS: usize = 8;
const WORKERS: usize = 4;

fn write_json(traffic: (usize, usize), chaos: (usize, usize, usize)) {
    let (messages, bytes) = traffic;
    let (faults, retries, fallbacks) = chaos;
    let mut report = vf_bench::json::BenchReport::new();
    report
        .entry("chaos")
        .int("messages", messages)
        .int("bytes", bytes)
        .int("faults_injected", faults)
        .int("retries", retries)
        .int("fallbacks", fallbacks)
        .flag("bitwise_equal", true);
    report.write("BENCH_e10.json", "VF_E10_BENCH_JSON");
}

fn main() {
    println!("# E10 — chaos recovery on the wire path\n");
    let fields = 4usize;
    let (_, arrays) = vf_bench::fixtures::wire_class(PROCS, fields);
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let cache = PlanCache::new();
    let tracker = CommTracker::new(PROCS, CostModel::zero());
    let pool = Arc::new(WorkerPool::new(WORKERS));
    let pooled = ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0);
    // The class's fused halo plan through the cache.
    let class_plan = || {
        cache
            .ghost_class_plan(
                refs.iter().map(|a| a.dist()),
                &vf_bench::fixtures::WIRE_WIDTHS,
            )
            .unwrap()
    };
    // The fault-free reference, through the pooled executor exactly as e8
    // runs the wire path.
    let (clean_regions, exec) =
        exchange_class_ghosts(&refs, &class_plan(), &tracker, &pooled).unwrap();

    // Every fault kind, rate 1.0, through the blocking and the split
    // streaming modes.
    let plan = FaultPlan::new(0xE10).with_rate(1.0).with_max_faults(64);
    let inj = Arc::new(FaultInjector::new(plan));
    let chaos = CommTracker::new(PROCS, CostModel::zero()).with_fault_injector(Arc::clone(&inj));
    let backend =
        ExecBackend::Threaded(ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0));
    let verify = |regions: &[vf_runtime::ghost::GhostRegion<f64>], ctx: &str| {
        for (k, array) in arrays.iter().enumerate() {
            for proc in array.dist().proc_ids() {
                for point in array.domain().iter() {
                    assert_eq!(
                        regions[k].get(*proc, &point),
                        clean_regions[k].get(*proc, &point),
                        "{ctx}: array {k} diverged at {point:?} on {proc:?}"
                    );
                }
            }
        }
    };
    let (faulted, _) =
        exchange_class_ghosts(&refs, &class_plan(), &chaos, &SerialExecutor).unwrap();
    verify(&faulted, "blocking under faults");
    let split = exchange_class_ghosts_split(&refs, class_plan(), &chaos, &backend).unwrap();
    let (faulted, _) = split.wait().unwrap();
    verify(&faulted, "split streaming under faults");

    let stats = chaos.snapshot();
    assert_eq!(stats.faults_injected(), inj.faults_injected());
    assert_eq!(stats.retries(), inj.expected_retries());
    assert_eq!(stats.fallbacks(), inj.expected_fallbacks());
    println!("## seeded all-kinds schedule\n");
    println!(
        "faults injected {}, retries {}, fallbacks {} — results bitwise equal, counters match",
        stats.faults_injected(),
        stats.retries(),
        stats.fallbacks()
    );

    write_json(
        (exec.messages, exec.bytes),
        (stats.faults_injected(), stats.retries(), stats.fallbacks()),
    );
}
