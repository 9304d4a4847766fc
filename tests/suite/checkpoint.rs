//! Checkpoint/restart suite: distribution-aware serialization must
//! round-trip bitwise under every distribution shape, redistribute-on-read
//! must be transparent, every corruption (torn write, flipped byte,
//! truncated segment) must be detected — falling back to the previous
//! generation, never returning damaged data — and the driver-level crash
//! recovery must reproduce a fault-free run bit-for-bit after an injected
//! rank death.
//!
//! Like the chaos suite, crash tests arm machines explicitly with
//! [`Machine::with_fault_plan`] (which overrides any `VF_FAULT_SEED` in
//! the environment), so the suite is deterministic both standalone and
//! under the CI chaos-restart job.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vf_apps::mesh::{
    run_sweep, run_sweep_with_restart, unstructured_mesh, MeshPartition, MeshSweepConfig,
};
use vf_apps::smoothing::{self, try_run, Checkpoints, SmoothingConfig, SmoothingLayout};
use vf_apps::workloads;
use vf_core::prelude::*;
use vf_integration::{dist_1d, zero_machine};
use vf_machine::{FaultKind, FaultPlan};
use vf_runtime::RuntimeError;

static STORE_ID: AtomicUsize = AtomicUsize::new(0);

/// A unique, empty store directory per call (tests share one process).
fn fresh_store(tag: &str) -> CheckpointStore {
    let id = STORE_ID.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("vf_ckpt_suite_{}_{tag}_{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::new(dir)
}

fn drop_store(store: &CheckpointStore) {
    let _ = std::fs::remove_dir_all(store.dir());
}

/// A deterministic 1-D distribution of one of three shapes: `BLOCK`,
/// `CYCLIC(k)`, or `INDIRECT` with seed-derived owners.
fn make_dist(kind: usize, n: usize, p: usize, seed: u64) -> Distribution {
    let t = match kind % 3 {
        0 => DistType::block1d(),
        1 => DistType::cyclic1d((seed as usize % 3) + 1),
        _ => {
            let owners: Vec<usize> = (0..n)
                .map(|i| ((seed >> (i % 48)) as usize).wrapping_add(i * 7) % p)
                .collect();
            DistType::indirect1d(Arc::new(
                IndirectMap::new(owners).expect("owners are valid"),
            ))
        }
    };
    dist_1d(t, n, p)
}

fn payload(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64) * 0.7 + (seed % 1024) as f64 * 0.013).sin())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Save under a random distribution, restore both into the same
    /// distribution and into an independently random live one: bitwise in
    /// both directions, and every checkpoint byte written is read back.
    #[test]
    fn round_trips_bitwise_across_random_distributions(
        n in 8usize..48,
        p in 2usize..5,
        seed in 0u64..u64::MAX,
        file_kind in 0usize..3,
        live_kind in 0usize..3,
        step in 0u64..1000,
    ) {
        let data = payload(n, seed);
        let file_dist = make_dist(file_kind, n, p, seed);
        let live_dist = make_dist(live_kind, n, p, seed ^ 0x5DEECE66D);
        let tracker = CommTracker::new(p, CostModel::zero());
        let array = DistArray::from_dense("P", file_dist, &data).unwrap();
        let store = fresh_store("prop");
        store.save(&array, step, &tracker).unwrap();

        let same = store.restore::<f64>(&tracker).unwrap();
        prop_assert_eq!(same.step, step);
        prop_assert_eq!(same.array.to_dense(), data.clone());
        prop_assert!(same.array.dist().same_mapping(array.dist()));
        let stats = tracker.snapshot();
        prop_assert!(stats.ckpt_bytes_written() > 0);
        prop_assert_eq!(stats.ckpt_bytes_read(), stats.ckpt_bytes_written());

        let cache = PlanCache::new();
        let moved = store
            .restore_into::<f64, _>(&live_dist, &tracker, &cache, &SerialExecutor)
            .unwrap();
        prop_assert_eq!(moved.step, step);
        prop_assert!(moved.array.dist().same_mapping(&live_dist));
        prop_assert_eq!(moved.array.to_dense(), data);
        drop_store(&store);
    }

    /// Any single flipped byte or truncation of the newest generation is
    /// detected, and restore falls back to the intact previous generation
    /// bitwise — damaged data is never returned.
    #[test]
    fn corruption_is_detected_and_falls_back_a_generation(
        n in 8usize..40,
        p in 2usize..5,
        seed in 0u64..u64::MAX,
        kind in 0usize..3,
        damage_at in 0usize..1_000_000,
        flip in 1u8..255,
        truncate in (0usize..2).prop_map(|b| b == 1),
    ) {
        let dist = make_dist(kind, n, p, seed);
        let old_data = payload(n, seed);
        let new_data = payload(n, seed ^ 0xABCD);
        let tracker = CommTracker::new(p, CostModel::zero());
        let store = fresh_store("corrupt");
        let old = DistArray::from_dense("C", dist.clone(), &old_data).unwrap();
        store.save(&old, 1, &tracker).unwrap();
        let new = DistArray::from_dense("C", dist, &new_data).unwrap();
        let newest = store.save(&new, 2, &tracker).unwrap();

        let mut bytes = std::fs::read(&newest).unwrap();
        if truncate {
            bytes.truncate(damage_at % (bytes.len() - 1));
        } else {
            let at = damage_at % bytes.len();
            bytes[at] ^= flip;
        }
        std::fs::write(&newest, &bytes).unwrap();

        let restored = store.restore::<f64>(&tracker).unwrap();
        prop_assert_eq!(restored.step, 1, "fell back to the previous generation");
        prop_assert_eq!(restored.array.to_dense(), old_data);
        drop_store(&store);
    }
}

#[test]
fn corrupting_both_generations_reports_the_store() {
    let n = 16;
    let p = 2;
    let dist = make_dist(0, n, p, 3);
    let tracker = CommTracker::new(p, CostModel::zero());
    let store = fresh_store("both_bad");
    let array = DistArray::from_dense("B", dist, &payload(n, 3)).unwrap();
    store.save(&array, 1, &tracker).unwrap();
    store.save(&array, 2, &tracker).unwrap();
    for path in store.generation_paths() {
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
    }
    match store.restore::<f64>(&tracker) {
        Err(RuntimeError::CorruptCheckpoint { .. }) => {}
        other => panic!("expected CorruptCheckpoint for the whole store, got {other:?}"),
    }
    drop_store(&store);
}

/// Exhaustively, on a small checkpoint: *every* single-byte flip and
/// *every* truncation length of the newest generation — header, manifest,
/// run headers, payload and trailer alike — makes restore fall back to the
/// previous generation bitwise, and with no previous generation the store
/// reports corruption.  Damaged data is never returned.
#[test]
fn every_byte_flip_and_every_truncation_is_rejected() {
    let (n, p) = (12, 3);
    let tracker = CommTracker::new(p, CostModel::zero());
    for kind in 0..3 {
        let dist = make_dist(kind, n, p, 11);
        let old_data = payload(n, 5);
        let pair = fresh_store("exhaustive_pair");
        let alone = fresh_store("exhaustive_alone");
        let old = DistArray::from_dense("X", dist.clone(), &old_data).unwrap();
        pair.save(&old, 1, &tracker).unwrap();
        let new = DistArray::from_dense("X", dist, &payload(n, 6)).unwrap();
        let newest = pair.save(&new, 2, &tracker).unwrap();
        let only = alone.save(&new, 2, &tracker).unwrap();
        let clean = std::fs::read(&newest).unwrap();

        let flips = (0..clean.len()).flat_map(|at| {
            [0x01u8, 0xff].map(|flip| {
                let mut bytes = clean.clone();
                bytes[at] ^= flip;
                (format!("kind {kind}: byte {at} ^ {flip:#x}"), bytes)
            })
        });
        let cuts = (0..clean.len())
            .map(|len| (format!("kind {kind}: cut to {len}"), clean[..len].to_vec()));
        for (what, bytes) in flips.chain(cuts) {
            std::fs::write(&newest, &bytes).unwrap();
            let restored = pair.restore::<f64>(&tracker).expect(&what);
            assert_eq!(restored.step, 1, "{what}");
            assert_eq!(restored.array.to_dense(), old_data, "{what}");
            std::fs::write(&only, &bytes).unwrap();
            match alone.restore::<f64>(&tracker) {
                Err(RuntimeError::CorruptCheckpoint { .. }) => {}
                other => panic!("{what}: expected CorruptCheckpoint, got {other:?}"),
            }
        }
        drop_store(&pair);
        drop_store(&alone);
    }
}

/// Elements narrower than a word go to disk packed (4 and 1 bytes each)
/// and come back bit for bit, under a block and a scattered layout.
#[test]
fn narrow_elements_round_trip_bitwise() {
    fn check<T: vf_runtime::Element>(tag: &str, value_at: impl Fn(usize) -> T) {
        let (n, p) = (37, 3);
        let tracker = CommTracker::new(p, CostModel::zero());
        for kind in [0, 2] {
            let data: Vec<T> = (0..n).map(&value_at).collect();
            let array = DistArray::from_dense("N", make_dist(kind, n, p, 77), &data).unwrap();
            let store = fresh_store(tag);
            let path = store.save(&array, 9, &tracker).unwrap();
            assert!(std::fs::metadata(&path).unwrap().len() >= (n * T::BYTES) as u64);
            let restored = store.restore::<T>(&tracker).unwrap();
            let bits = |values: &[T]| values.iter().map(T::to_bits64).collect::<Vec<_>>();
            assert_eq!(
                bits(&restored.array.to_dense()),
                bits(&data),
                "{tag} kind {kind}"
            );
            drop_store(&store);
        }
    }
    check("f32", |i| {
        if i == 3 {
            -0.0f32
        } else {
            (i as f32 * 0.37).sin()
        }
    });
    check("i32", |i| (i as i32 - 18).wrapping_mul(0x0101_0101));
    check("u8", |i| (i * 37) as u8);
    check("bool", |i| i % 3 == 0);
}

/// An armed rank death makes a checkpointed sharded run without a restart
/// budget fail with a structured channel error — bounded by the receive
/// timeout, no hang, no panic.
#[test]
fn injected_rank_death_degrades_structured_and_bounded() {
    let n = 16;
    let initial = workloads::initial_grid(n, 5);
    let plan = FaultPlan::new(41)
        .with_rate(1.0)
        .with_kinds(&[FaultKind::RankDeath])
        .with_max_faults(1);
    let machine = zero_machine(4).with_fault_plan(plan);
    let store = fresh_store("degrade");
    let executor = ShardedExecutor::new().with_timeout(Duration::from_millis(500));
    let start = std::time::Instant::now();
    let result = try_run(
        &SmoothingConfig {
            n,
            steps: 4,
            layout: SmoothingLayout::Columns,
        },
        &machine,
        &initial,
        &executor,
        Some(Checkpoints {
            store: &store,
            every: 2,
            max_restarts: 0,
        }),
    );
    let elapsed = start.elapsed();
    match result {
        Err(RuntimeError::Channel(_)) => {}
        other => panic!("expected a structured channel failure, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(10),
        "failed region must return promptly, took {elapsed:?}"
    );
    drop_store(&store);
}

/// The full recovery ladder for the sharded smoothing kernel: a rank dies
/// mid-run, the driver restores the last good generation and resumes, and
/// the final field is bitwise identical to a fault-free run.
#[test]
fn smoothing_crash_recovery_is_bitwise_identical() {
    let n = 16;
    let steps = 8;
    let initial = workloads::initial_grid(n, 29);
    for layout in [SmoothingLayout::Columns, SmoothingLayout::Blocks2D] {
        let clean = smoothing::run(
            &SmoothingConfig { n, steps, layout },
            &zero_machine(4),
            &initial,
        );
        let plan = FaultPlan::new(131)
            .with_rate(1.0)
            .with_kinds(&[FaultKind::RankDeath])
            .with_max_faults(1);
        let machine = zero_machine(4).with_fault_plan(plan);
        let store = fresh_store("recover");
        let executor = ShardedExecutor::new().with_timeout(Duration::from_millis(500));
        let recovered = try_run(
            &SmoothingConfig { n, steps, layout },
            &machine,
            &initial,
            &executor,
            Some(Checkpoints {
                store: &store,
                every: 3,
                max_restarts: 4,
            }),
        )
        .expect("one injected rank death is recoverable");
        assert_eq!(
            recovered.restarts, 1,
            "{layout:?}: exactly one region crashed"
        );
        assert_eq!(
            recovered.result.field, clean.field,
            "{layout:?}: recovered field diverges from the fault-free run"
        );
        drop_store(&store);
    }
}

/// Mid-run repartition, checkpoint under the post-repartition `INDIRECT`
/// distribution, restore through redistribute-on-read into a different
/// partition, finish the sweep: bitwise identical to an uninterrupted run.
#[test]
fn mesh_restart_with_repartition_matches_uninterrupted() {
    let mesh = unstructured_mesh(12, 8, 17);
    let machine = || zero_machine(4);
    let config = MeshSweepConfig {
        steps: 6,
        partition: MeshPartition::Block,
        repartition_at: Some(2),
    };
    let uninterrupted = run_sweep(&mesh, &config, &machine());
    for resume in [MeshPartition::Block, MeshPartition::Coordinate] {
        let store = fresh_store("mesh");
        let restarted = run_sweep_with_restart(&mesh, &config, &machine(), 4, resume, &store)
            .expect("checkpoint/restart round-trips");
        assert_eq!(
            restarted.values, uninterrupted.values,
            "restart into {resume:?} diverges from the uninterrupted sweep"
        );
        assert_eq!(store.latest_step(), Some(4));
        drop_store(&store);
    }
}
