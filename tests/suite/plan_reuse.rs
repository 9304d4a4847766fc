//! Property tests for the unified communication-plan layer: a cached,
//! reused `CommPlan` must move exactly the same elements and charge
//! exactly the same bytes as a freshly planned execution and as a naive
//! per-element reference, and changing the target distribution must never
//! reuse a stale plan.
//!
//! The plan store belongs to the machine: every application run on one
//! `Machine` (and on its clones, and every scope on it) shares one
//! `PlanCache`, so a second run plans nothing and charges the first run's
//! ledger, and concurrent runs store each plan once.

use proptest::prelude::*;
use proptest::strategy::ValueTree;
use std::sync::Barrier;
use vf_apps::adi::{self, AdiConfig, AdiStrategy};
use vf_apps::mesh::{self, MeshPartition, MeshSweepConfig};
use vf_apps::pic::{self, PicConfig, PicStrategy};
use vf_apps::smoothing::{self, SmoothingConfig, SmoothingLayout};
use vf_apps::workloads::{self, Particle, ParticleLayout};
use vf_core::prelude::*;
use vf_integration::{dist_1d, ipsc_machine};
use vf_runtime::ghost::exchange_ghosts;

/// Strategy for an arbitrary 1-D distribution type valid for `n` elements on
/// `p` processors (same shape as `property_cross_crate`).
fn arb_dist_type(n: usize, p: usize) -> impl Strategy<Value = DistType> {
    prop_oneof![
        Just(DistType::block1d()),
        (1usize..6).prop_map(DistType::cyclic1d),
        proptest::collection::vec(0usize..(2 * n / p + 1), p).prop_map(move |mut sizes| {
            let mut total: usize = sizes.iter().sum();
            let mut i = 0;
            while total > n {
                let take = (total - n).min(sizes[i % p]);
                sizes[i % p] -= take;
                total -= take;
                i += 1;
            }
            if total < n {
                sizes[p - 1] += n - total;
            }
            DistType::gen_block1d(sizes)
        }),
    ]
}

/// The naive per-element reference: element-wise ownership comparison,
/// without plans, runs, or caches.
fn naive_counts(from: &Distribution, to: &Distribution) -> (usize, usize, usize) {
    let mut moved = 0usize;
    let mut stayed = 0usize;
    let mut pairs = std::collections::BTreeSet::new();
    for point in from.domain().iter() {
        let src = from.owner(&point).unwrap();
        let dst = to.owner(&point).unwrap();
        if src == dst {
            stayed += 1;
        } else {
            moved += 1;
            pairs.insert((src.0, dst.0));
        }
    }
    (moved, stayed, pairs.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Executing a cached plan twice, a fresh plan, and the naive
    /// per-element reference all agree on moved elements, messages and
    /// bytes — and the cached executions preserve the data.
    #[test]
    fn prop_cached_plan_equals_fresh_and_naive(
        n in 8usize..80,
        p in 2usize..6,
        seed in 0u64..1000,
    ) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let from_t = arb_dist_type(n, p).new_tree(&mut runner).unwrap().current();
        let to_t = arb_dist_type(n, p).new_tree(&mut runner).unwrap().current();
        let from = dist_1d(from_t.clone(), n, p);
        let to = dist_1d(to_t.clone(), n, p);

        let init = |pt: &Point| (pt.coord(0) as f64) * 1.5 + seed as f64;

        // Fresh planning.
        let t_fresh = CommTracker::new(p, CostModel::zero());
        let mut a_fresh = DistArray::from_fn("A", from.clone(), init);
        let (opts, uncached) = (RedistOptions::default(), PlanCache::new());
        let fresh =
            redistribute(&mut a_fresh, to.clone(), &t_fresh, &opts, &uncached, &SerialExecutor)
                .unwrap();

        // Cached planning, executed twice on identical inputs.
        let cache = PlanCache::new();
        let t_cached = CommTracker::new(p, CostModel::zero());
        let mut a1 = DistArray::from_fn("A", from.clone(), init);
        let opts = RedistOptions::default();
        let r1 =
            redistribute(&mut a1, to.clone(), &t_cached, &opts, &cache, &SerialExecutor).unwrap();
        let mut a2 = DistArray::from_fn("A", from.clone(), init);
        let r2 =
            redistribute(&mut a2, to.clone(), &t_cached, &opts, &cache, &SerialExecutor).unwrap();
        prop_assert_eq!(cache.stats().misses, 1);
        prop_assert_eq!(cache.stats().hits, 1);

        // Cached == fresh, execution for execution.
        prop_assert_eq!(&r1, &fresh);
        prop_assert_eq!(&r2, &fresh);
        prop_assert_eq!(a1.to_dense(), a_fresh.to_dense());
        prop_assert_eq!(a2.to_dense(), a_fresh.to_dense());
        // Data preserved.
        let expected: Vec<f64> = from.domain().iter().map(|pt| init(&pt)).collect();
        prop_assert_eq!(a1.to_dense(), expected);

        // Both equal the naive per-element reference.
        let (moved, stayed, pairs) = naive_counts(&from, &to);
        prop_assert_eq!(r1.moved_elements, moved);
        prop_assert_eq!(r1.stayed_elements, stayed);
        prop_assert_eq!(r1.messages, pairs);
        prop_assert_eq!(r1.bytes, moved * 8);

        // The tracker charged exactly twice the per-execution traffic.
        prop_assert_eq!(t_cached.snapshot().total_bytes(), 2 * fresh.bytes);
        prop_assert_eq!(t_cached.snapshot().total_messages(), 2 * fresh.messages);
    }

    /// Changing the target distribution never reuses a stale plan: the
    /// cache plans a fresh schedule (new key) and the data survives;
    /// executing the stale plan object directly is rejected.
    #[test]
    fn prop_changed_target_never_reuses_stale_plan(
        n in 8usize..60,
        p in 2usize..5,
    ) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let from_t = arb_dist_type(n, p).new_tree(&mut runner).unwrap().current();
        let to1_t = arb_dist_type(n, p).new_tree(&mut runner).unwrap().current();
        let to2_t = arb_dist_type(n, p).new_tree(&mut runner).unwrap().current();
        prop_assume!(to1_t != to2_t);
        let from = dist_1d(from_t, n, p);
        let to1 = dist_1d(to1_t, n, p);
        let to2 = dist_1d(to2_t, n, p);

        let cache = PlanCache::new();
        let tracker = CommTracker::new(p, CostModel::zero());
        let mut a = DistArray::from_fn("A", from.clone(), |pt| pt.coord(0) as f64);
        let before = a.to_dense();

        let opts = RedistOptions::default();
        redistribute(&mut a, to1.clone(), &tracker, &opts, &cache, &SerialExecutor).unwrap();
        let stale = cache.redistribute_plan(&from, &to1).unwrap();
        // Second hop with a *different* target: must be a cache miss with
        // its own key, and the data must survive.
        let misses_before = cache.stats().misses;
        redistribute(&mut a, to2.clone(), &tracker, &opts, &cache, &SerialExecutor).unwrap();
        prop_assert_eq!(cache.stats().misses, misses_before + 1);
        prop_assert_eq!(a.to_dense(), before);
        a.check_invariants().unwrap();

        // The stale (from -> to1) plan no longer matches the array (now
        // distributed as to2) — unless to2 is structurally the same
        // distribution as from, in which case the plan genuinely applies.
        if to2.fingerprint() != from.fingerprint() {
            let err =
                vf_runtime::execute_redistribute(&mut a, &stale, &tracker, &SerialExecutor);
            prop_assert!(matches!(err, Err(vf_runtime::RuntimeError::PlanMismatch { .. })));
        }
    }

    /// Cached ghost-exchange plans return exactly the values and charge
    /// exactly the bytes of a fresh exchange, step after step.
    #[test]
    fn prop_cached_ghost_exchange_matches_fresh(
        n in 4usize..24,
        p in 1usize..5,
        steps in 1usize..4,
    ) {
        let dist = Distribution::new(
            DistType::columns(),
            IndexDomain::d2(n, n),
            ProcessorView::linear(p),
        ).unwrap();
        let a = DistArray::from_fn("U", dist.clone(), |pt| (pt.coord(0) * 37 + pt.coord(1)) as f64);
        let cache = PlanCache::new();
        let t_cached = CommTracker::new(p, CostModel::zero());
        let t_fresh = CommTracker::new(p, CostModel::zero());
        for _ in 0..steps {
            let cached = cache.ghost_plan(a.dist(), &[(1, 1), (1, 1)]).unwrap();
            let (g_cached, r_cached) =
                exchange_ghosts(&a, &cached, &t_cached, &SerialExecutor).unwrap();
            let fresh = PlanCache::new().ghost_plan(a.dist(), &[(1, 1), (1, 1)]).unwrap();
            let (g_fresh, r_fresh) =
                exchange_ghosts(&a, &fresh, &t_fresh, &SerialExecutor).unwrap();
            prop_assert_eq!(r_cached, r_fresh);
            for &proc in dist.proc_ids() {
                prop_assert_eq!(g_cached.len(proc), g_fresh.len(proc));
                for point in dist.domain().iter() {
                    prop_assert_eq!(g_cached.get(proc, &point), g_fresh.get(proc, &point));
                }
            }
        }
        prop_assert_eq!(
            t_cached.snapshot().total_bytes(),
            t_fresh.snapshot().total_bytes()
        );
        // One plan served every step.
        prop_assert_eq!(cache.stats().misses, 1);
        prop_assert_eq!(cache.stats().hits, steps as u64 - 1);
    }
}

/// What a run charged: messages, bytes and the bits of its three modelled
/// times.
fn ledger(stats: &CommStats) -> [u64; 5] {
    [
        stats.total_messages() as u64,
        stats.total_bytes() as u64,
        stats.total_comm_time().to_bits(),
        stats.total_compute_time().to_bits(),
        stats.critical_time().to_bits(),
    ]
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The particles as a multiset of bit patterns.
fn particle_bits<'a>(particles: impl IntoIterator<Item = &'a Particle>) -> Vec<(u64, u64)> {
    let mut bits: Vec<_> = particles
        .into_iter()
        .map(|p| (p.pos.to_bits(), p.vel.to_bits()))
        .collect();
    bits.sort_unstable();
    bits
}

/// Runs `run` twice on one fresh machine; returns each run's output with
/// its activity in the machine's plan store.
fn twice<R>(run: impl Fn(&Machine) -> R) -> [(R, PlanCacheStats); 2] {
    let machine = ipsc_machine(4);
    [(), ()].map(|()| {
        let before = PlanCache::of(&machine).stats();
        let out = run(&machine);
        (out, PlanCache::of(&machine).stats().since(before))
    })
}

/// Every application plans on its first run and replays on its second run
/// on the same machine: zero misses, the reference's bits both times, and
/// the same ledger — except the mesh sweep's second run, which charges no
/// directory page fetches because its plans were inspected (and their
/// fetches charged) in the first.
#[test]
fn a_second_run_on_one_machine_plans_nothing_and_charges_the_same() {
    let grid = workloads::initial_grid(16, 3);
    for strategy in [
        AdiStrategy::StaticColumns,
        AdiStrategy::StaticRows,
        AdiStrategy::DynamicRedistribute,
        AdiStrategy::TwoCopies,
    ] {
        let config = AdiConfig {
            n: 16,
            iterations: 2,
            strategy,
        };
        let reference = bits(&adi::sequential_reference(16, 2, &grid));
        let [(first, _), (second, store)] = twice(|m| adi::run(&config, m, &grid));
        assert_eq!(store.misses, 0, "{strategy:?}");
        assert_eq!(bits(&first.field), reference, "{strategy:?}");
        assert_eq!(bits(&second.field), reference, "{strategy:?}");
        assert_eq!(ledger(&first.stats), ledger(&second.stats), "{strategy:?}");
    }

    let config = SmoothingConfig {
        n: 16,
        steps: 3,
        layout: SmoothingLayout::Blocks2D,
    };
    let reference = bits(&smoothing::sequential_reference(16, 3, &grid));
    let [(first, planned), (second, store)] = twice(|m| smoothing::run(&config, m, &grid));
    assert!(planned.misses > 0);
    assert_eq!(store.misses, 0, "smoothing");
    assert_eq!(bits(&first.field), reference);
    assert_eq!(bits(&second.field), reference);
    assert_eq!(ledger(&first.stats), ledger(&second.stats), "smoothing");

    let layout = ParticleLayout::Cluster {
        center: 0.2,
        width: 0.06,
    };
    let particles = workloads::particles(64, 700, layout, 0.4, 13);
    let config = PicConfig {
        ncell: 64,
        steps: 12,
        strategy: PicStrategy::DynamicGenBlock {
            period: 5,
            threshold: 1.05,
        },
    };
    let reference = particle_bits(&pic::sequential_reference(&config, &particles));
    let [(first, planned), (second, store)] = twice(|m| pic::run(&config, m, &particles));
    assert!(planned.misses > 0);
    assert_eq!(store.misses, 0, "pic");
    assert_eq!(particle_bits(first.particles.iter().flatten()), reference);
    assert_eq!(particle_bits(second.particles.iter().flatten()), reference);
    assert_eq!(ledger(&first.stats), ledger(&second.stats), "pic");

    let mesh = mesh::unstructured_mesh(10, 9, 31);
    let config = MeshSweepConfig {
        steps: 4,
        partition: MeshPartition::Coordinate,
        repartition_at: Some(2),
    };
    let reference = bits(&mesh::sequential_reference(&mesh, 4));
    let [(first, planned), (second, store)] = twice(|m| mesh::run_sweep(&mesh, &config, m));
    // Each run reports its own activity in the store.
    assert_eq!((first.plan_cache, second.plan_cache), (planned, store));
    assert_eq!(store.misses, 0, "mesh");
    assert_eq!(bits(&first.values), reference);
    assert_eq!(bits(&second.values), reference);
    let fetched = first.directory;
    assert!(fetched.page_fetches > 0);
    assert_eq!(second.directory, TranslationStats::default());
    assert_eq!(
        second.stats.total_messages(),
        first.stats.total_messages() - fetched.page_fetches as usize
    );
    assert_eq!(
        second.stats.total_bytes(),
        first.stats.total_bytes() - fetched.fetched_bytes
    );
}

/// A machine's clones share its store, and so does a scope on it, while
/// a machine built by `Machine::new` starts empty.
#[test]
fn clones_share_the_store_and_a_fresh_machine_does_not() {
    let grid = workloads::initial_grid(16, 3);
    let config = AdiConfig {
        n: 16,
        iterations: 2,
        strategy: AdiStrategy::DynamicRedistribute,
    };
    let machine = ipsc_machine(4);
    adi::run(&config, &machine, &grid);
    let planned = PlanCache::of(&machine).stats();
    assert!(planned.misses > 0);

    let clone = machine.clone();
    assert_eq!(PlanCache::of(&clone).stats(), planned);
    adi::run(&config, &clone, &grid);
    assert_eq!(PlanCache::of(&machine).stats().since(planned).misses, 0);
    let scope: VfScope<f64> = VfScope::new(clone);
    assert!(std::ptr::eq(scope.plan_cache(), PlanCache::of(&machine)));

    let fresh = ipsc_machine(4);
    assert_eq!(PlanCache::of(&fresh).stats(), PlanCacheStats::default());
    adi::run(&config, &fresh, &grid);
    assert_eq!(PlanCache::of(&fresh).stats().misses, planned.misses);
}

/// ADI and the mesh sweep running at once on clones of one machine are
/// each bitwise their reference, and the shared store ends up holding
/// exactly what one run after the other stores: each plan once.
#[test]
fn concurrent_runs_on_clones_of_one_machine_store_each_plan_once() {
    let grid = workloads::initial_grid(32, 5);
    let adi_config = AdiConfig {
        n: 32,
        iterations: 3,
        strategy: AdiStrategy::DynamicRedistribute,
    };
    let mesh = mesh::unstructured_mesh(16, 12, 7);
    let mesh_config = MeshSweepConfig {
        steps: 4,
        partition: MeshPartition::Coordinate,
        repartition_at: Some(2),
    };
    let machine = ipsc_machine(4);
    let start = Barrier::new(2);
    let (adi_run, mesh_run) = std::thread::scope(|s| {
        let adi_run = s.spawn(|| {
            let clone = machine.clone();
            start.wait();
            adi::run(&adi_config, &clone, &grid)
        });
        let mesh_run = s.spawn(|| {
            let clone = machine.clone();
            start.wait();
            mesh::run_sweep(&mesh, &mesh_config, &clone)
        });
        (adi_run.join().unwrap(), mesh_run.join().unwrap())
    });
    assert_eq!(
        bits(&adi_run.field),
        bits(&adi::sequential_reference(32, 3, &grid))
    );
    assert_eq!(
        bits(&mesh_run.values),
        bits(&mesh::sequential_reference(&mesh, 4))
    );

    let one_after_the_other = ipsc_machine(4);
    adi::run(&adi_config, &one_after_the_other, &grid);
    mesh::run_sweep(&mesh, &mesh_config, &one_after_the_other);
    assert_eq!(
        PlanCache::of(&machine).stats(),
        PlanCache::of(&one_after_the_other).stats()
    );
}
