//! Checkpoint byte accounting: one save writes, and one restore reads, one
//! generation's bytes — as the tracker's ledger counts them and as the
//! process's system calls actually moved them.
//!
//! This suite is its own test binary holding this single test because
//! `/proc/self/io` is process-wide: any other test doing file I/O in the
//! same process would land in the `rchar` / `wchar` deltas measured here.

use std::sync::Arc;
use vf_core::prelude::*;
use vf_integration::dist_1d;

const PROCS: usize = 8;
const N: usize = 1 << 16;
/// Fixed room for the header, manifest, run framing and trailer (and the
/// ~100 bytes a `/proc/self/io` sample itself reads).
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

#[test]
fn one_save_and_one_restore_each_move_one_generation() {
    let dir = std::env::temp_dir().join(format!("vf_ckpt_io_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir);
    let file_dist = dist_1d(DistType::block1d(), N, PROCS);
    let owners: Vec<usize> = (0..N).map(|i| (i * 2654435761) % PROCS).collect();
    let live_dist = dist_1d(
        DistType::indirect1d(Arc::new(IndirectMap::new(owners).unwrap())),
        N,
        PROCS,
    );
    let data: Vec<f64> = (0..N).map(|i| (i as f64 * 0.37).sin()).collect();
    let array = DistArray::from_dense("CK", file_dist.clone(), &data).unwrap();

    // Fill both generation slots on a throwaway ledger, so the measured
    // save and restore run against a store where reading too much is
    // possible.
    let filling = CommTracker::new(PROCS, CostModel::zero());
    store.save(&array, 0, &filling).unwrap();
    store.save(&array, 0, &filling).unwrap();

    let tracker = CommTracker::new(PROCS, CostModel::zero());
    let io_before = proc_io();
    store.save(&array, 1, &tracker).unwrap();
    let io_saved = proc_io();
    let same = store.restore::<f64>(&tracker).unwrap();
    let io_restored = proc_io();
    let stats = tracker.snapshot();
    let (written, read) = (stats.ckpt_bytes_written(), stats.ckpt_bytes_read());
    assert_eq!(same.step, 1);
    assert_eq!(
        same.array.to_dense(),
        data,
        "same-layout restore is bitwise"
    );
    assert_eq!(read, written, "every byte written is read back");

    // The format adds framing, not data copies.
    let limit = N * 8 * 11 / 10 + MANIFEST_ALLOWANCE;
    assert!(
        written <= limit && read <= limit,
        "wrote {written}, read {read}, limit {limit}"
    );
    // The ledger counts what the store says it did; this counts what it
    // did — a restore that reads both generations to use one fails here.
    match (io_before, io_saved, io_restored) {
        (Some(before), Some(saved), Some(restored)) => {
            let (wchar, rchar) = (saved.1 - before.1, restored.0 - saved.0);
            assert!(
                wchar <= limit && rchar <= limit,
                "wchar {wchar} across a save, rchar {rchar} across a restore, limit {limit}"
            );
        }
        _ => println!("syscall bound skipped: /proc/self/io is not readable here"),
    }

    // Redistribute-on-read: bitwise, and the redistribute leg charges
    // exactly the modelled plan bytes.
    let cache = PlanCache::new();
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
    assert_eq!(redist_tracker.snapshot().total_bytes(), plan.bytes_for(8));
    let _ = std::fs::remove_dir_all(&dir);
}
