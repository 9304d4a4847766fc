//! Differential/property suite for irregular (INDIRECT) ghost regions: the
//! incremental-schedule halo exchange must agree bitwise with the
//! point-wise PARTI gather it replaces, on random shuffled-id meshes and
//! random partitions; a repartitioning must invalidate the halo plan
//! (stale-halo detection); and the structured non-contiguous-layout error
//! must name the offending dimension.
//!
//! The mesh sweep itself is held to one table: every partition, with and
//! without a mid-run repartition, on 1, 3, 4 and 7 processors and on the
//! Serial, pooled and Sharded backends, is bitwise the plain sequential
//! reference, with the communication of three rows pinned.  Concurrent
//! sweeps report only their own directory traffic.

use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use vf_apps::mesh::{
    partition_greedy, run_sweep, sequential_reference, unstructured_mesh, MeshPartition,
    MeshSweepConfig,
};
use vf_core::prelude::*;
use vf_integration::{for_each_ambient_backend, get_with_ghosts, zero_machine};
use vf_runtime::ghost::exchange_ghosts;
use vf_runtime::parti::{execute_gather, inspector};
use vf_runtime::plan::plan_ghost;
use vf_runtime::RuntimeError;

fn indirect_1d(owners: Vec<usize>, p: usize) -> Distribution {
    let n = owners.len();
    Distribution::new(
        DistType::indirect1d(Arc::new(IndirectMap::new(owners).expect("non-empty"))),
        IndexDomain::d1(n),
        ProcessorView::linear(p),
    )
    .expect("valid indirect distribution")
}

/// The gather accesses equivalent to one halo sweep: every element's owner
/// reads all of the element's neighbours.
fn edge_accesses(conn: &Connectivity, dist: &Distribution) -> Vec<(ProcId, Point)> {
    let locator = dist.locator();
    (0..conn.num_nodes())
        .flat_map(|u| {
            let owner = locator.locate_lin(u).0;
            conn.neighbors(u)
                .map(move |v| (owner, Point::d1(v as i64 + 1)))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn stale_halo_plans_are_detected_after_repartitioning() {
    let nx = 8usize;
    let ny = 6usize;
    let p = 4usize;
    let mesh = unstructured_mesh(nx, ny, 99);
    let conn = mesh.connectivity();
    let n = mesh.num_nodes();
    let machine = zero_machine(p);
    let tracker = machine.tracker();
    let cache = PlanCache::new();

    // Initial partition: coordinate-ish striping by id.
    let dist_a = indirect_1d((0..n).map(|u| u * p / n).collect(), p);
    let mut a = DistArray::from_fn("VAL", dist_a.clone(), |pt| (pt.coord(0) * 3) as f64);
    let stale = cache.ghost_irregular_plan(&dist_a, &conn).unwrap();
    exchange_ghosts(&a, &stale, &tracker, &SerialExecutor).unwrap();
    assert_eq!(cache.stats().misses, 1);

    // Mid-run repartitioning: a greedy connectivity-aware map.
    let dist_b = indirect_1d(partition_greedy(&mesh, p), p);
    redistribute(
        &mut a,
        dist_b.clone(),
        &tracker,
        &RedistOptions::default(),
        &PlanCache::new(),
        &SerialExecutor,
    )
    .unwrap();

    // The held schedule is stale: execution is rejected before anything is
    // charged — the stale-halo detection.
    tracker.take();
    assert!(matches!(
        exchange_ghosts(&a, &stale, &tracker, &SerialExecutor),
        Err(RuntimeError::PlanMismatch { .. })
    ));
    assert_eq!(tracker.snapshot().total_messages(), 0);

    // The cache replans for the new fingerprint (a miss, not a stale hit)
    // and the fresh schedule serves correct values.
    let fresh = cache.ghost_irregular_plan(&dist_b, &conn).unwrap();
    assert_eq!(cache.stats().misses, 2);
    let (halo, _) = exchange_ghosts(&a, &fresh, &tracker, &SerialExecutor).unwrap();
    let locator = dist_b.locator();
    for u in 0..n {
        let owner = locator.locate_lin(u).0;
        for v in conn.neighbors(u) {
            if locator.locate_lin(v).0 == owner {
                continue;
            }
            let point = Point::d1(v as i64 + 1);
            assert_eq!(
                halo.get(owner, &point),
                Some((v as i64 + 1) as f64 * 3.0),
                "cut edge {u} -> {v}"
            );
        }
    }
}

#[test]
fn non_contiguous_layout_error_names_the_dimension() {
    let p = 4usize;
    // Dimension 1 is cyclic: the error must say so.
    let dist = Distribution::new(
        DistType::new(vec![DimDist::NotDistributed, DimDist::Cyclic(1)]),
        IndexDomain::d2(8, 8),
        ProcessorView::linear(p),
    )
    .unwrap();
    let err = plan_ghost(&dist, &[(1, 1), (1, 1)]).unwrap_err();
    assert!(matches!(
        err,
        RuntimeError::NonContiguousLayout { dim: 1, .. }
    ));
    assert!(
        err.to_string().contains("dimension 1"),
        "message must name the dimension: {err}"
    );
    // And dimension 0 when the first dimension scatters (CYCLIC(2) over 16
    // elements on 4 processors: two separated blocks per processor).
    let dist = Distribution::new(
        DistType::new(vec![DimDist::Cyclic(2), DimDist::NotDistributed]),
        IndexDomain::d2(16, 8),
        ProcessorView::linear(p),
    )
    .unwrap();
    let err = plan_ghost(&dist, &[(1, 1), (0, 0)]).unwrap_err();
    assert!(matches!(
        err,
        RuntimeError::NonContiguousLayout { dim: 0, .. }
    ));
    assert!(err.to_string().contains("dimension 0"));
    // A CYCLIC dimension whose blocks happen to be contiguous must NOT be
    // blamed: CYCLIC(8) over 16 elements on 2 processors is one block per
    // processor, so the scatterer is the CYCLIC(1) dimension — dim 1.
    let dist = Distribution::new(
        DistType::new(vec![DimDist::Cyclic(8), DimDist::Cyclic(1)]),
        IndexDomain::d2(16, 8),
        ProcessorView::grid2d(2, 4),
    )
    .unwrap();
    let err = plan_ghost(&dist, &[(1, 1), (1, 1)]).unwrap_err();
    assert!(
        matches!(err, RuntimeError::NonContiguousLayout { dim: 1, .. }),
        "the genuinely scattered dimension must be named: {err}"
    );
}

#[test]
fn mesh_sweep_values_survive_the_halo_switch_bitwise() {
    // Acceptance guard: after switching the edge sweep to
    // incremental-schedule halos, the values stay bitwise
    // partition-independent, including across a mid-run repartition.
    let mesh = unstructured_mesh(10, 9, 31);
    let machine = Machine::new(4, CostModel::from_alpha_beta(1.0, 0.01));
    let run = |partition, repartition_at| {
        run_sweep(
            &mesh,
            &MeshSweepConfig {
                steps: 4,
                partition,
                repartition_at,
            },
            &machine,
        )
    };
    let block = run(MeshPartition::Block, None);
    let coord = run(MeshPartition::Coordinate, None);
    let greedy = run(MeshPartition::Greedy, None);
    let remapped = run(MeshPartition::Greedy, Some(2));
    assert_eq!(block.values, coord.values);
    assert_eq!(block.values, greedy.values);
    assert_eq!(block.values, remapped.values);
    // The halo path really planned against the translation table and the
    // cache was hit across steps.
    assert!(coord.directory.page_fetches + coord.directory.home_hits > 0);
    assert!(coord.plan_cache.hits > 0);
}

const SWEEP_STEPS: usize = 4;

/// The communication of three rows of the table, pinned from the per-point
/// sweep — computing on local buffers must not move it:
/// `(partition, repartition, processors)` → (halo elements, halo
/// messages, total messages, total bytes).
type PinnedSweep = ((MeshPartition, Option<usize>, usize), [usize; 4]);
const PINNED_SWEEPS: [PinnedSweep; 3] = [
    ((MeshPartition::Block, None, 4), [764, 48, 48, 6112]),
    ((MeshPartition::Coordinate, Some(2), 3), [146, 20, 30, 5904]),
    ((MeshPartition::Greedy, Some(2), 7), [284, 88, 94, 6592]),
];

/// Every partition × repartition × processor count against the sequential
/// reference, under whatever backend the environment selects.
fn check_sweeps(backend: &str) {
    let mesh = unstructured_mesh(10, 9, 31);
    let reference: Vec<u64> = sequential_reference(&mesh, SWEEP_STEPS)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let partitions = [
        MeshPartition::Block,
        MeshPartition::Coordinate,
        MeshPartition::Greedy,
    ];
    for partition in partitions {
        for repartition_at in [None, Some(SWEEP_STEPS / 2)] {
            for p in [1usize, 3, 4, 7] {
                let ctx = format!("{backend} {partition:?} repartition {repartition_at:?} on {p}");
                let config = MeshSweepConfig {
                    steps: SWEEP_STEPS,
                    partition,
                    repartition_at,
                };
                let machine = Machine::new(p, CostModel::from_alpha_beta(1.0, 0.01));
                let result = run_sweep(&mesh, &config, &machine);
                let bits: Vec<u64> = result.values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, reference, "{ctx}");
                let pinned = PINNED_SWEEPS
                    .iter()
                    .find(|(row, _)| *row == (partition, repartition_at, p));
                if let Some((_, expected)) = pinned {
                    let got = [
                        result.gathered_elements,
                        result.gather_messages,
                        result.stats.total_messages(),
                        result.stats.total_bytes(),
                    ];
                    assert_eq!(&got, expected, "{ctx}: communication");
                }
            }
        }
    }
}

/// `run_sweep` takes its backend from the environment, so this test — the
/// only one in this binary that sets it — sets it for each backend in turn.
#[test]
fn mesh_sweeps_are_the_sequential_reference_on_every_backend() {
    for_each_ambient_backend(check_sweeps);
}

/// Two sweeps planning against the same translation table at once each
/// report the directory traffic of their own planning, as a solo run does.
#[test]
fn concurrent_sweeps_report_only_their_own_directory_traffic() {
    let mesh = unstructured_mesh(128, 128, 1);
    let config = MeshSweepConfig {
        steps: 3,
        partition: MeshPartition::Greedy,
        repartition_at: None,
    };
    let machine = || Machine::new(4, CostModel::from_alpha_beta(1.0, 0.01));
    let solo = run_sweep(&mesh, &config, &machine()).directory;
    assert_eq!(
        (solo.page_fetches, solo.home_hits, solo.cache_hits),
        (48, 138, 395)
    );
    for round in 0..3 {
        let start = Barrier::new(2);
        let concurrent: Vec<TranslationStats> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let machine = machine();
                        start.wait();
                        run_sweep(&mesh, &config, &machine).directory
                    })
                })
                .collect();
            runs.into_iter().map(|run| run.join().unwrap()).collect()
        });
        for directory in concurrent {
            assert_eq!(directory, solo, "round {round}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On random shuffled-id meshes with random partitions, the
    /// incremental-schedule halo exchange fetches exactly what the
    /// point-wise gather fetches, bitwise, with identical element counts
    /// and message structure.
    #[test]
    fn prop_incremental_halo_equals_pointwise_gather(
        nx in 2usize..9,
        ny in 2usize..7,
        mesh_seed in 0u64..1000,
        owners_seed in proptest::collection::vec(0usize..4, 1..64),
    ) {
        let p = 4usize;
        let mesh = unstructured_mesh(nx, ny, mesh_seed);
        let conn = mesh.connectivity();
        let n = mesh.num_nodes();
        // A pseudo-random partition derived from the sampled seed vector.
        let owners: Vec<usize> = (0..n)
            .map(|u| owners_seed[u % owners_seed.len()].wrapping_add(u / 3) % p)
            .collect();
        let dist = indirect_1d(owners, p);
        let a = DistArray::from_fn("N", dist.clone(), |pt| ((pt.coord(0) * 37) % 101) as f64);

        let schedule = PlanCache::new()
            .ghost_irregular_plan(&dist, &conn)
            .unwrap();
        let accesses = edge_accesses(&conn, &dist);
        let gather = inspector(&dist, &accesses, &PlanCache::new()).unwrap();
        prop_assert_eq!(schedule.moved_elements(), gather.num_elements());
        prop_assert_eq!(schedule.num_messages(), gather.num_messages());

        let machine = zero_machine(p);
        let t_halo = machine.tracker();
        let t_gather = machine.tracker();
        let (halo, report) =
            exchange_ghosts(&a, &schedule, &t_halo, &SerialExecutor).unwrap();
        let fetched = execute_gather(&a, &gather, &t_gather, &SerialExecutor).unwrap();
        prop_assert_eq!(report.elements, schedule.moved_elements());
        // Identical modelled traffic...
        prop_assert_eq!(
            t_halo.snapshot().total_bytes(),
            t_gather.snapshot().total_bytes()
        );
        prop_assert_eq!(
            t_halo.snapshot().total_messages(),
            t_gather.snapshot().total_messages()
        );
        // ...and identical values for every scheduled cut edge.
        for (q, point) in &accesses {
            if a.dist().is_local(*q, point) {
                continue;
            }
            prop_assert_eq!(
                halo.get(*q, point),
                fetched.get(*q, a.dist(), point),
                "P{:?} at {:?}", q, point
            );
        }
    }

    /// Widths on a 1-D INDIRECT array mean the implicit chain stencil: the
    /// routed plan serves every ±width read that crosses processors.
    #[test]
    fn prop_indirect_widths_route_to_chain_halos(
        owners in proptest::collection::vec(0usize..3, 4..48),
        lo in 0usize..3,
        hi in 0usize..3,
    ) {
        let p = 3usize;
        let n = owners.len();
        let dist = indirect_1d(owners.clone(), p);
        let a = DistArray::from_fn("W", dist.clone(), |pt| (pt.coord(0) * 2) as f64);
        let machine = zero_machine(p);
        let tracker = machine.tracker();
        let plan = PlanCache::new().ghost_plan(a.dist(), &[(lo, hi)]).unwrap();
        let (halo, _) = exchange_ghosts(&a, &plan, &tracker, &SerialExecutor).unwrap();
        for u in 0..n {
            let owner = ProcId(owners[u]);
            for v in u.saturating_sub(lo)..=(u + hi).min(n - 1) {
                if owners[v] == owners[u] {
                    continue;
                }
                let point = Point::d1(v as i64 + 1);
                prop_assert_eq!(
                    get_with_ghosts(&a, &halo, owner, &point),
                    Some((v as i64 + 1) as f64 * 2.0),
                    "{} reading {}", u, v
                );
            }
        }
    }
}
