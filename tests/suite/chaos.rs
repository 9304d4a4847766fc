//! Chaos soak suite for the fault-injection harness: under seeded,
//! deterministic fault schedules (transient sends, delayed deliveries,
//! bit-corrupted wire buffers, worker deaths, cancelled handles) every
//! execution path must produce **bitwise identical** results to a
//! fault-free run, every injected corruption must be detected by the wire
//! frame checksum and repaired by a modelled retransmission, retries must
//! stay bounded by the plan, and the `CommStats` fault counters must match
//! the injector's record of what actually fired.
//!
//! The suite never mutates process environment variables: machines are
//! armed explicitly with [`Machine::with_fault_plan`] and trackers with
//! [`CommTracker::with_fault_injector`], so the tests run correctly both
//! standalone and under a CI `VF_FAULT_SEED` chaos job (an env-armed
//! "reference" run is itself fault-injected — which is fine, because the
//! invariant under test is precisely that injection never changes
//! results).

use std::sync::Arc;
use vf_apps::adi::{self, AdiConfig, AdiStrategy};
use vf_apps::mesh::{run_sweep, unstructured_mesh, MeshPartition, MeshSweepConfig};
use vf_apps::pic::{self, PicConfig, PicStrategy};
use vf_apps::smoothing::{self, SmoothingConfig, SmoothingLayout};
use vf_apps::workloads::{self, ParticleLayout};
use vf_core::prelude::*;
use vf_integration::{
    assert_regions_equal, class_halo, class_halo_split, grid_array, streaming_backend, zero_machine,
};
use vf_machine::{FaultInjector, FaultKind, FaultPlan};

const WIDTHS: [(usize, usize); 2] = [(1, 1), (1, 1)];

/// A tracker that is **never** armed by the environment: chaos references
/// must stay clean even when CI runs this binary under `VF_FAULT_SEED`.
fn clean_tracker(p: usize) -> CommTracker {
    CommTracker::new(p, CostModel::zero())
}

/// A tracker armed with an explicit, test-owned injector (replacing any
/// env-derived one).
fn faulty_tracker(p: usize, inj: &Arc<FaultInjector>) -> CommTracker {
    CommTracker::new(p, CostModel::zero()).with_fault_injector(Arc::clone(inj))
}

/// Every decision the injector fires must be recorded exactly once in the
/// tracker's `CommStats`: `faults_injected` mirrors the fired count,
/// `retries` mirrors the retransmissions the schedule caused, `fallbacks`
/// mirrors degradations (worker deaths and cancelled handles).
#[test]
fn injector_counters_flow_into_tracker_stats() {
    let n = 16usize;
    let p = 4usize;
    let arrays: Vec<DistArray<f64>> = (0..3)
        .map(|k| grid_array("C", DistType::blocks2d(), n, p, (k + 1) as f64 * 0.5))
        .collect();
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();

    // Fault-free reference.
    let t_clean = clean_tracker(p);
    let (clean, _) =
        class_halo(&refs, &WIDTHS, &t_clean, &PlanCache::new(), &SerialExecutor).unwrap();

    let plan = FaultPlan::new(0xC0FFEE).with_rate(1.0).with_max_faults(64);
    let inj = Arc::new(FaultInjector::new(plan));
    let tracker = faulty_tracker(p, &inj);
    let pool = Arc::new(WorkerPool::new(3));
    let backend = streaming_backend(&pool);

    // Blocking wire exchanges followed by split (posted/waited) exchanges,
    // all on the same injected tracker.
    for round in 0..3 {
        let (regions, _) =
            class_halo(&refs, &WIDTHS, &tracker, &PlanCache::new(), &SerialExecutor).unwrap();
        assert_regions_equal(
            &arrays,
            &regions,
            &clean,
            &format!("blocking round {round}"),
        );

        let split =
            class_halo_split(&refs, &WIDTHS, &tracker, &PlanCache::new(), &backend).unwrap();
        let (regions, _) = split.wait().unwrap();
        assert_regions_equal(&arrays, &regions, &clean, &format!("split round {round}"));
    }

    let stats = tracker.snapshot();
    assert!(
        inj.faults_injected() > 0,
        "the schedule fired at least once"
    );
    assert_eq!(stats.faults_injected(), inj.faults_injected(), "faults");
    assert_eq!(stats.retries(), inj.expected_retries(), "retries");
    assert_eq!(stats.fallbacks(), inj.expected_fallbacks(), "fallbacks");
}

/// A corrupt-wire schedule at rate 1.0: every exchange takes a flipped bit
/// on the wire, the frame checksum detects it, and the modelled
/// retransmission repairs it — results stay bitwise identical and each
/// corruption is counted as one fault plus one retry.
#[test]
fn injected_corruption_is_always_detected_and_repaired() {
    let n = 12usize;
    let p = 4usize;
    for t in [DistType::columns(), DistType::blocks2d()] {
        let arrays: Vec<DistArray<f64>> = (0..2)
            .map(|k| grid_array("K", t.clone(), n, p, (k + 1) as f64 * 1.25))
            .collect();
        let refs: Vec<&DistArray<f64>> = arrays.iter().collect();

        let t_clean = clean_tracker(p);
        let (clean, _) =
            class_halo(&refs, &WIDTHS, &t_clean, &PlanCache::new(), &SerialExecutor).unwrap();

        let plan = FaultPlan::new(7)
            .with_rate(1.0)
            .with_kinds(&[FaultKind::CorruptWire])
            .with_max_faults(32);
        let inj = Arc::new(FaultInjector::new(plan));
        let tracker = faulty_tracker(p, &inj);
        let pool = Arc::new(WorkerPool::new(3));
        let backend = streaming_backend(&pool);

        let (regions, _) =
            class_halo(&refs, &WIDTHS, &tracker, &PlanCache::new(), &SerialExecutor).unwrap();
        assert_regions_equal(&arrays, &regions, &clean, &format!("{t} blocking"));

        let split =
            class_halo_split(&refs, &WIDTHS, &tracker, &PlanCache::new(), &backend).unwrap();
        let (regions, _) = split.wait().unwrap();
        assert_regions_equal(&arrays, &regions, &clean, &format!("{t} split"));

        let stats = tracker.snapshot();
        assert_eq!(
            inj.fired_of(FaultKind::CorruptWire),
            2,
            "{t}: one corruption per exchange"
        );
        assert_eq!(stats.faults_injected(), 2, "{t}: faults counted");
        assert_eq!(stats.retries(), 2, "{t}: one retransmission each");
    }
}

/// A worker death during a pooled (blocking) dispatch degrades to the
/// survivors on the same pool — and, when too few workers survive, all
/// the way to serial — without changing a single bit of the result.
#[test]
fn worker_death_degrades_pooled_dispatch_bitwise() {
    let n = 16usize;
    let p = 4usize;
    let arrays: Vec<DistArray<f64>> = (0..3)
        .map(|k| grid_array("D", DistType::blocks2d(), n, p, (k + 1) as f64))
        .collect();
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();

    let t_clean = clean_tracker(p);
    let (clean, _) =
        class_halo(&refs, &WIDTHS, &t_clean, &PlanCache::new(), &SerialExecutor).unwrap();

    // 4 workers, 1 death → the three survivors on the pool; 2 workers,
    // 1 death → serial degraded path.
    for workers in [4usize, 2] {
        let plan = FaultPlan::new(99)
            .with_rate(1.0)
            .with_kinds(&[FaultKind::WorkerDeath])
            .with_max_faults(1);
        let inj = Arc::new(FaultInjector::new(plan));
        let tracker = faulty_tracker(p, &inj);
        let pool = Arc::new(WorkerPool::new(workers));
        let executor = ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0);

        for round in 0..2 {
            let jobs = pool.jobs_dispatched();
            let (regions, _) =
                class_halo(&refs, &WIDTHS, &tracker, &PlanCache::new(), &executor).unwrap();
            assert_regions_equal(
                &arrays,
                &regions,
                &clean,
                &format!("workers={workers} round={round}"),
            );
            // Survivors run on the pool; a lone survivor runs serially.
            let degraded = format!("workers={workers} round={round}: pool jobs");
            if workers > 2 {
                assert!(pool.jobs_dispatched() > jobs, "{degraded}");
            } else {
                assert_eq!(pool.jobs_dispatched(), jobs, "{degraded}");
            }
        }

        let stats = tracker.snapshot();
        assert_eq!(inj.fired_of(FaultKind::WorkerDeath), 1, "budget of one");
        assert_eq!(inj.dead_workers(), 1, "the dead worker stays dead");
        assert_eq!(stats.fallbacks(), 1, "one degradation recorded");
        assert_eq!(stats.faults_injected(), 1);
    }
}

/// Satellite: a worker dying **mid-stream** during split-phase unpack.
/// The panic is contained inside the streaming job, the caller adopts the
/// dead rank's abandoned items, the result is bitwise identical, the
/// arrays are never left partially unpacked, and the pool remains fully
/// usable for later streaming exchanges.
#[test]
fn worker_death_mid_stream_recovers_and_pool_stays_usable() {
    let n = 24usize;
    let p = 4usize;
    let arrays: Vec<DistArray<f64>> = (0..3)
        .map(|k| grid_array("S", DistType::blocks2d(), n, p, (k + 1) as f64 * 2.0))
        .collect();
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();

    let t_clean = clean_tracker(p);
    let (clean, _) =
        class_halo(&refs, &WIDTHS, &t_clean, &PlanCache::new(), &SerialExecutor).unwrap();

    let pool = Arc::new(WorkerPool::new(3));
    let backend = streaming_backend(&pool);

    let plan = FaultPlan::new(5)
        .with_rate(1.0)
        .with_kinds(&[FaultKind::WorkerDeath])
        .with_max_faults(1);
    let inj = Arc::new(FaultInjector::new(plan));
    let tracker = faulty_tracker(p, &inj);

    let split = class_halo_split(&refs, &WIDTHS, &tracker, &PlanCache::new(), &backend).unwrap();
    assert!(split.is_streaming(), "death still streams, minus one rank");
    let (regions, _) = split.wait().unwrap();
    assert_regions_equal(&arrays, &regions, &clean, "mid-stream death");

    assert_eq!(inj.fired_of(FaultKind::WorkerDeath), 1);
    let stats = tracker.snapshot();
    assert_eq!(stats.fallbacks(), 1, "the death is recorded as a fallback");
    assert_eq!(stats.faults_injected(), 1);

    // The pool survived the simulated death: a later exchange on the same
    // pool (fresh, uninjected tracker) streams and agrees bitwise.
    let t_after = clean_tracker(p);
    let split = class_halo_split(&refs, &WIDTHS, &t_after, &PlanCache::new(), &backend).unwrap();
    assert!(split.is_streaming(), "pool is still usable after the death");
    let (regions, _) = split.wait().unwrap();
    assert_regions_equal(&arrays, &regions, &clean, "pool reuse after death");
}

/// A cancelled-handle fault at post time falls back to the inline
/// (blocking) drain: no streaming, identical results, one fallback
/// counted.
#[test]
fn cancelled_streaming_falls_back_inline_bitwise() {
    let n = 16usize;
    let p = 4usize;
    let arrays: Vec<DistArray<f64>> = (0..2)
        .map(|k| grid_array("X", DistType::columns(), n, p, (k + 1) as f64))
        .collect();
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();

    let t_clean = clean_tracker(p);
    let (clean, _) =
        class_halo(&refs, &WIDTHS, &t_clean, &PlanCache::new(), &SerialExecutor).unwrap();

    let plan = FaultPlan::new(3)
        .with_rate(1.0)
        .with_kinds(&[FaultKind::CancelHandle])
        .with_max_faults(1);
    let inj = Arc::new(FaultInjector::new(plan));
    let tracker = faulty_tracker(p, &inj);
    let pool = Arc::new(WorkerPool::new(3));
    let backend = streaming_backend(&pool);

    let split = class_halo_split(&refs, &WIDTHS, &tracker, &PlanCache::new(), &backend).unwrap();
    assert!(
        !split.is_streaming(),
        "a fired cancel degrades to the inline drain"
    );
    let (regions, _) = split.wait().unwrap();
    assert_regions_equal(&arrays, &regions, &clean, "cancelled streaming");

    assert_eq!(inj.fired_of(FaultKind::CancelHandle), 1);
    let stats = tracker.snapshot();
    assert_eq!(stats.fallbacks(), 1);
    assert_eq!(stats.faults_injected(), 1);
}

/// Satellite (pinning test): dropping (= cancelling) a split-phase handle
/// without waiting settles its pending communication charges — the
/// tracker ends up with exactly the blocking path's per-processor totals,
/// never a leak. Covers the raw ghost handle, the redistribute wrapper,
/// and the scope-level class-halo wrapper.
#[test]
fn dropped_and_cancelled_handles_settle_their_charges() {
    let n = 12usize;
    let p = 4usize;
    let cost = || CostModel::ipsc860(p);
    let arrays: Vec<DistArray<f64>> = (0..2)
        .map(|k| grid_array("L", DistType::blocks2d(), n, p, (k + 1) as f64))
        .collect();
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let pool = Arc::new(WorkerPool::new(3));
    let backend = streaming_backend(&pool);

    // Ghost exchange: blocking reference charges.
    let t_block = CommTracker::new(p, cost());
    class_halo(&refs, &WIDTHS, &t_block, &PlanCache::new(), &SerialExecutor).unwrap();

    // Drop without wait — which is how a handle is cancelled — settles.
    let tracker = CommTracker::new(p, cost());
    let split = class_halo_split(&refs, &WIDTHS, &tracker, &PlanCache::new(), &backend).unwrap();
    drop(split);
    assert_eq!(
        tracker.snapshot().per_proc(),
        t_block.snapshot().per_proc(),
        "drop-without-wait: per-proc charges settled, not leaked"
    );

    // Redistribute wrapper: the abandoned handle's charges equal the
    // blocking redistribution's.
    let original = grid_array("R", DistType::blocks2d(), n, p, 1.5);
    let columns = || {
        Distribution::new(
            DistType::columns(),
            IndexDomain::d2(n, n),
            ProcessorView::linear(p),
        )
        .unwrap()
    };
    let mut blocking = original.clone();
    let t_rblock = CommTracker::new(p, cost());
    redistribute(
        &mut blocking,
        columns(),
        &t_rblock,
        &RedistOptions::default(),
        &PlanCache::new(),
        &SerialExecutor,
    )
    .unwrap();
    let t_rdrop = CommTracker::new(p, cost());
    let split =
        redistribute_split(&original, columns(), &t_rdrop, &PlanCache::new(), &backend).unwrap();
    drop(split);
    assert_eq!(
        t_rdrop.snapshot().per_proc(),
        t_rblock.snapshot().per_proc(),
        "cancelled redistribute settled its charges"
    );

    // Scope-level class halo: dropping the exchange handle mid-flight
    // leaves the scope's accumulated stats equal to the blocking path's.
    let widths = [(1, 1), (1, 1)];
    let build = || {
        let mut s: VfScope<f64> = VfScope::new(zero_machine(p));
        s.declare_dynamic(
            DynamicDecl::new("U", IndexDomain::d2(n, n)).initial(DistType::blocks2d()),
        )
        .unwrap();
        s.declare_secondary(SecondaryDecl::extraction("V", IndexDomain::d2(n, n), "U"))
            .unwrap();
        for name in ["U", "V"] {
            for point in IndexDomain::d2(n, n).iter() {
                let v = (point.coord(0) * 10 + point.coord(1)) as f64;
                s.array_mut(name).unwrap().set(&point, v).unwrap();
            }
        }
        s.take_stats();
        s
    };
    let s_block = build();
    s_block.exchange_class_ghosts("U", &widths).unwrap();
    let mut s = build();
    s.set_executor(streaming_backend(&pool));
    let halo = s.exchange_class_ghosts_split("U", &widths).unwrap();
    drop(halo);
    assert_eq!(
        s.stats().per_proc(),
        s_block.stats().per_proc(),
        "cancelled class-halo exchange settled its charges"
    );
}

/// A split redistribution under a full fault schedule (all kinds, rate
/// 1.0) still installs exactly the blocking result.
#[test]
fn faulty_split_redistribute_matches_blocking() {
    let n = 16usize;
    let p = 4usize;
    let original = grid_array("F", DistType::blocks2d(), n, p, 0.75);
    let rows = || {
        Distribution::new(
            DistType::rows(),
            IndexDomain::d2(n, n),
            ProcessorView::linear(p),
        )
        .unwrap()
    };

    let mut blocking = original.clone();
    let t_clean = clean_tracker(p);
    redistribute(
        &mut blocking,
        rows(),
        &t_clean,
        &RedistOptions::default(),
        &PlanCache::new(),
        &SerialExecutor,
    )
    .unwrap();

    let plan = FaultPlan::new(0xBAD).with_rate(1.0).with_max_faults(16);
    let inj = Arc::new(FaultInjector::new(plan));
    let tracker = faulty_tracker(p, &inj);
    let pool = Arc::new(WorkerPool::new(3));
    let backend = streaming_backend(&pool);

    let mut array = original.clone();
    let split = redistribute_split(&array, rows(), &tracker, &PlanCache::new(), &backend).unwrap();
    split.finish_into(&mut array).unwrap();
    assert_eq!(array.dist(), blocking.dist());
    assert_eq!(array.to_dense(), blocking.to_dense(), "bitwise install");

    let stats = tracker.snapshot();
    assert!(inj.faults_injected() > 0);
    assert_eq!(stats.faults_injected(), inj.faults_injected());
    assert_eq!(stats.retries(), inj.expected_retries());
    assert_eq!(stats.fallbacks(), inj.expected_fallbacks());
}

/// The headline soak: all four applications (ADI, Jacobi smoothing, PIC,
/// unstructured mesh sweep) run under seeded fault schedules and must be
/// bitwise identical to fault-free runs, with retries bounded by the
/// plan's budget.
#[test]
fn chaos_soak_apps_bitwise_equal_under_seeded_faults() {
    const MAX_FAULTS: usize = 48;
    const MAX_ATTEMPTS: usize = 4;
    let bounded = |stats: &CommStats, app: &str, seed: u64| {
        assert!(
            stats.faults_injected() > 0,
            "{app} seed={seed}: the schedule fired"
        );
        assert!(
            stats.retries() <= stats.faults_injected() * MAX_ATTEMPTS,
            "{app} seed={seed}: retries bounded by the fault budget"
        );
    };

    for seed in [11u64, 23] {
        let plan = || {
            FaultPlan::new(seed)
                .with_rate(0.8)
                .with_max_faults(MAX_FAULTS)
                .with_backoff(5.0e-4, MAX_ATTEMPTS)
        };

        // ADI with dynamic redistribution between the sweeps.
        let n = 16;
        let initial = workloads::initial_grid(n, 31);
        let config = AdiConfig {
            n,
            iterations: 2,
            strategy: AdiStrategy::DynamicRedistribute,
        };
        let clean = adi::run(&config, &zero_machine(4), &initial);
        let faulty = adi::run(&config, &zero_machine(4).with_fault_plan(plan()), &initial);
        assert_eq!(faulty.field, clean.field, "adi field bitwise, seed={seed}");
        assert_eq!(faulty.checksum, clean.checksum, "adi checksum, seed={seed}");
        bounded(&faulty.stats, "adi", seed);

        // Jacobi smoothing over both layouts.
        for layout in [SmoothingLayout::Columns, SmoothingLayout::Blocks2D] {
            let config = SmoothingConfig {
                n,
                steps: 3,
                layout,
            };
            let clean = smoothing::run(&config, &zero_machine(4), &initial);
            let faulty =
                smoothing::run(&config, &zero_machine(4).with_fault_plan(plan()), &initial);
            assert_eq!(
                faulty.field, clean.field,
                "smoothing {layout:?} field bitwise, seed={seed}"
            );
            bounded(&faulty.stats, "smoothing", seed);
        }

        // PIC with generalised-block rebalancing.
        let ncell = 64;
        let init = workloads::particles(
            ncell,
            800,
            ParticleLayout::Cluster {
                center: 0.2,
                width: 0.06,
            },
            0.4,
            41,
        );
        let config = PicConfig {
            ncell,
            steps: 10,
            strategy: PicStrategy::DynamicGenBlock {
                period: 5,
                threshold: 1.1,
            },
        };
        let clean = pic::run(&config, &zero_machine(4), &init);
        let faulty = pic::run(&config, &zero_machine(4).with_fault_plan(plan()), &init);
        assert_eq!(faulty.total_particles, clean.total_particles, "seed={seed}");
        assert_eq!(faulty.rebalance_count, clean.rebalance_count, "seed={seed}");
        assert_eq!(faulty.rebalance_bytes, clean.rebalance_bytes, "seed={seed}");
        assert_eq!(faulty.mean_imbalance, clean.mean_imbalance, "seed={seed}");
        assert_eq!(faulty.max_imbalance, clean.max_imbalance, "seed={seed}");
        let bits = |lists: &[Vec<workloads::Particle>]| -> Vec<Vec<(u64, u64)>> {
            lists
                .iter()
                .map(|list| {
                    list.iter()
                        .map(|p| (p.pos.to_bits(), p.vel.to_bits()))
                        .collect()
                })
                .collect()
        };
        assert_eq!(
            bits(&faulty.particles),
            bits(&clean.particles),
            "pic particles bitwise on every processor, seed={seed}"
        );
        bounded(&faulty.stats, "pic", seed);

        // Unstructured mesh sweep with a mid-run repartition.
        let mesh = unstructured_mesh(8, 7, 31);
        let config = MeshSweepConfig {
            steps: 3,
            partition: MeshPartition::Greedy,
            repartition_at: Some(2),
        };
        let clean = run_sweep(&mesh, &config, &zero_machine(4));
        let faulty = run_sweep(&mesh, &config, &zero_machine(4).with_fault_plan(plan()));
        assert_eq!(
            faulty.values, clean.values,
            "mesh values bitwise, seed={seed}"
        );
        assert_eq!(faulty.edge_cut_final, clean.edge_cut_final, "seed={seed}");
        bounded(&faulty.stats, "mesh", seed);
    }
}
