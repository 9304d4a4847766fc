//! E13 — checkpoint/restart cost: distribution-aware save, same-layout
//! restore, and redistribute-on-read.
//!
//! A checkpoint's file layout follows the array's distribution (each
//! rank's shard as checksummed linear runs).  A save lays the file out
//! once — every run packed straight into its final position, its checksum
//! accumulated by the same pass — hashes the buffer and hands it to one
//! `write`; it reads 16 bytes of each generation slot to pick the one to
//! overwrite.  A restore reads those two headers and then exactly one
//! generation file, which it validates and decodes in place; a restore
//! into a *different* live distribution is that plus an ordinary cached
//! redistribute plan.  The guard checks *byte accounting*, which is
//! timing-noise-free:
//!
//! * `ckpt_bytes_written` per save and `ckpt_bytes_read` per restore must
//!   stay within **1.1×** the raw payload (n×8 bytes) plus a fixed
//!   manifest allowance — the format adds framing, not data copies;
//! * where `/proc/self/io` is readable, the bytes the process's *system
//!   calls* moved (`wchar` across one save, `rchar` across one restore)
//!   must stay within the same bound — the ledger above counts what the
//!   store says it did, this counts what it did, so a store that reads
//!   both generations to use one fails here ("skipped" elsewhere);
//! * the redistribute leg of restore-into must charge exactly the
//!   modelled plan bytes (`CommPlan::bytes_for`).
//!
//! Custom harness (no criterion): emits `BENCH_e13.json`
//! (`VF_E13_BENCH_JSON` overrides the path) recording save/restore/
//! restore-redistribute times, save/restore MB/s and the byte ledgers.
//! `VF_E13_SKIP_GUARD=1` skips the byte guards; the bitwise correctness
//! cross-checks always run.

use std::sync::Arc;
use vf_bench::timing::{ns, time_min};
use vf_core::prelude::*;

const PROCS: usize = 8;
const REPS: usize = 7;
const N: usize = 262_144; // 2 MB of f64 payload
const MANIFEST_ALLOWANCE: usize = 4096;

/// `(rchar, wchar)` of this process: the bytes its read and write system
/// calls have moved so far, page cache or not.  `None` where
/// `/proc/self/io` is missing or unreadable.
fn proc_io() -> Option<(usize, usize)> {
    let text = std::fs::read_to_string("/proc/self/io").ok()?;
    let field = |name: &str| {
        text.lines()
            .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
    };
    Some((field("rchar:")?, field("wchar:")?))
}

/// Runs `f` and returns its result with the `(rchar, wchar)` it added,
/// where measurable (the second sample's own read of `/proc/self/io` is
/// included — about a hundred bytes, well inside the manifest allowance).
fn syscall_bytes<R>(f: impl FnOnce() -> R) -> (R, Option<(usize, usize)>) {
    let before = proc_io();
    let result = f();
    let moved = before
        .zip(proc_io())
        .map(|(before, after)| (after.0 - before.0, after.1 - before.1));
    (result, moved)
}

fn main() {
    println!("# E13 — distribution-aware checkpoint/restart\n");
    let dir = std::env::temp_dir().join(format!("vf_bench_e13_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir);

    let file_dist = Distribution::new(
        DistType::block1d(),
        IndexDomain::d1(N),
        ProcessorView::linear(PROCS),
    )
    .unwrap();
    // Resume partition: a seed-derived INDIRECT map — the restore must
    // plan a full BLOCK → INDIRECT redistribute.
    let owners: Vec<usize> = (0..N).map(|i| (i * 2654435761) % PROCS).collect();
    let live_dist = Distribution::new(
        DistType::indirect1d(Arc::new(IndirectMap::new(owners).unwrap())),
        IndexDomain::d1(N),
        ProcessorView::linear(PROCS),
    )
    .unwrap();
    let data: Vec<f64> = (0..N).map(|i| (i as f64 * 0.37).sin()).collect();
    let array = DistArray::from_dense("CK", file_dist.clone(), &data).unwrap();

    // Correctness cross-checks before timing: both restore paths are
    // bitwise, and the byte ledger balances.
    let cache = PlanCache::new();
    // Fill both generation slots first (on a throwaway ledger), so the
    // measured save and restore run against a store where reading too
    // much is possible.
    let filling = CommTracker::new(PROCS, CostModel::zero());
    store.save(&array, 0, &filling).unwrap();
    store.save(&array, 0, &filling).unwrap();
    let tracker = CommTracker::new(PROCS, CostModel::zero());
    let (_, save_io) = syscall_bytes(|| store.save(&array, 1, &tracker).unwrap());
    let written = tracker.snapshot().ckpt_bytes_written();
    let (same, restore_io) = syscall_bytes(|| store.restore::<f64>(&tracker).unwrap());
    assert_eq!(
        same.array.to_dense(),
        data,
        "same-layout restore is bitwise"
    );
    let read_same = tracker.snapshot().ckpt_bytes_read();
    assert_eq!(read_same, written, "every byte written is read back");

    let redist_tracker = CommTracker::new(PROCS, CostModel::zero());
    let moved = store
        .restore_into::<f64, _>(&live_dist, &redist_tracker, &cache, &SerialExecutor)
        .unwrap();
    assert_eq!(
        moved.array.to_dense(),
        data,
        "redistribute-on-read is bitwise"
    );
    assert!(moved.array.dist().same_mapping(&live_dist));
    let plan = cache.redistribute_plan(&file_dist, &live_dist).unwrap();
    let plan_bytes = plan.bytes_for(8);
    let redist_stats = redist_tracker.snapshot();
    assert_eq!(
        redist_stats.total_bytes(),
        plan_bytes,
        "redistribute leg charges exactly the modelled plan bytes"
    );
    println!(
        "ledger cross-check ok: {written} bytes written, {read_same} read back, \
         {plan_bytes} moved by the BLOCK -> INDIRECT plan\n"
    );

    let save_ns = ns(time_min(REPS, || {
        store.save(&array, 1, &tracker).unwrap();
    }));
    let restore_ns = ns(time_min(REPS, || store.restore::<f64>(&tracker).unwrap()));
    let restore_redist_ns = ns(time_min(REPS, || {
        store
            .restore_into::<f64, _>(&live_dist, &tracker, &cache, &SerialExecutor)
            .unwrap()
    }));

    println!("## 2 MB f64 payload, BLOCK over {PROCS} ranks\n");
    println!("| operation | time |");
    println!("|---|---|");
    println!("| save | {:.0} us |", save_ns / 1e3);
    println!("| restore (same layout) | {:.0} us |", restore_ns / 1e3);
    println!(
        "| restore + redistribute (BLOCK -> INDIRECT) | {:.0} us |",
        restore_redist_ns / 1e3
    );

    let payload = N * 8;
    let mb_per_s = |bytes: usize, nanos: f64| bytes as f64 / 1e6 / (nanos / 1e9);
    let (save_mb_per_s, restore_mb_per_s) =
        (mb_per_s(written, save_ns), mb_per_s(read_same, restore_ns));
    println!("\nsave {save_mb_per_s:.0} MB/s, restore {restore_mb_per_s:.0} MB/s (file bytes over the best time)");
    let mut report = vf_bench::json::BenchReport::new();
    report.record("ckpt_save_2mb_block", save_ns, 0, written);
    report.record("ckpt_restore_2mb_same", restore_ns, 0, read_same);
    report.record(
        "ckpt_restore_2mb_redistribute",
        restore_redist_ns,
        plan.num_messages(),
        plan_bytes,
    );
    report
        .entry("byte_ledger")
        .int("payload_bytes", payload)
        .int("ckpt_bytes_written", written)
        .int("ckpt_bytes_read", read_same)
        .int("redistribute_plan_bytes", plan_bytes)
        .ratio("write_overhead", written as f64 / payload as f64);
    report
        .entry("throughput")
        .num("save_mb_per_s", save_mb_per_s)
        .num("restore_mb_per_s", restore_mb_per_s);
    let syscall_ledger = save_io
        .zip(restore_io)
        .map(|(save, restore)| (save.1, restore.0));
    let entry = report.entry("syscall_ledger");
    entry.flag("proc_io_readable", syscall_ledger.is_some());
    if let Some((save_wchar, restore_rchar)) = syscall_ledger {
        entry
            .int("save_wchar", save_wchar)
            .int("restore_rchar", restore_rchar);
    }
    report.write("BENCH_e13.json", "VF_E13_BENCH_JSON");

    if std::env::var_os("VF_E13_SKIP_GUARD").is_some() {
        println!("\nguard skipped (VF_E13_SKIP_GUARD set)");
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    let limit = (payload as f64 * 1.1) as usize + MANIFEST_ALLOWANCE;
    if written > limit || read_same > limit {
        eprintln!(
            "FAIL: checkpoint I/O exceeds 1.1x payload + manifest allowance: \
             wrote {written}, read {read_same}, limit {limit}"
        );
        std::process::exit(1);
    }
    println!(
        "\nguard ok: {written} bytes written / {read_same} read against a {limit}-byte bound \
         ({:.3}x payload)",
        written as f64 / payload as f64
    );
    match syscall_ledger {
        Some((save_wchar, restore_rchar)) if save_wchar > limit || restore_rchar > limit => {
            eprintln!(
                "FAIL: the process moved more than one generation per operation: \
                 wchar {save_wchar} across a save, rchar {restore_rchar} across a restore, \
                 limit {limit}"
            );
            std::process::exit(1);
        }
        Some((save_wchar, restore_rchar)) => println!(
            "syscall guard ok: wchar {save_wchar} across a save / rchar {restore_rchar} across \
             a restore against the same bound"
        ),
        None => println!("syscall guard skipped (/proc/self/io is not readable here)"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
