//! End-to-end scenarios combining the language layer, the runtime and the
//! simulated machine.

use vf_core::prelude::*;
use vf_integration::{ipsc_machine, zero_machine};

/// The full Figure 1 program, written against the language layer: dynamic
/// declaration with RANGE, local x-sweeps, DISTRIBUTE, local y-sweeps, and
/// the communication confined to the DISTRIBUTE.
#[test]
fn figure1_adi_scenario_through_the_language_layer() {
    let n = 24;
    let mut scope: VfScope<f64> = VfScope::new(ipsc_machine(4));
    scope
        .declare_dynamic(
            DynamicDecl::new("V", IndexDomain::d2(n, n))
                .range([
                    DistPattern::exact(&DistType::columns()),
                    DistPattern::exact(&DistType::rows()),
                ])
                .initial(DistType::columns()),
        )
        .unwrap();

    let initial = vf_apps::workloads::initial_grid(n, 5);
    let domain = IndexDomain::d2(n, n);
    for point in domain.iter() {
        let lin = domain.linearize(&point).unwrap();
        scope
            .array_mut("V")
            .unwrap()
            .set(&point, initial[lin])
            .unwrap();
    }
    scope.take_stats();

    // x-line sweeps: every column is local, so no communication at all.
    let coeffs = vf_apps::tridiag::TridiagCoeffs::diffusion(0.05);
    for j in 1..=n as i64 {
        let mut line: Vec<f64> = (1..=n as i64)
            .map(|i| scope.array("V").unwrap().get(&Point::d2(i, j)).unwrap())
            .collect();
        vf_apps::tridiag::solve_in_place(coeffs, &mut line);
        for (k, v) in line.into_iter().enumerate() {
            scope
                .array_mut("V")
                .unwrap()
                .set(&Point::d2(k as i64 + 1, j), v)
                .unwrap();
        }
    }
    assert_eq!(scope.take_stats().total_messages(), 0);

    // DISTRIBUTE V :: (BLOCK, :) — all the communication happens here.
    let report = scope
        .distribute(DistributeStmt::new("V", DistType::rows()))
        .unwrap();
    assert!(report.moved_elements() > 0);
    let redist_stats = scope.take_stats();
    assert!(redist_stats.total_messages() > 0);
    assert!(scope
        .idt("V", &DistPattern::exact(&DistType::rows()))
        .unwrap());

    // y-line sweeps: every row is now local, again no communication.
    for i in 1..=n as i64 {
        let mut line: Vec<f64> = (1..=n as i64)
            .map(|j| scope.array("V").unwrap().get(&Point::d2(i, j)).unwrap())
            .collect();
        vf_apps::tridiag::solve_in_place(coeffs, &mut line);
        for (k, v) in line.into_iter().enumerate() {
            scope
                .array_mut("V")
                .unwrap()
                .set(&Point::d2(i, k as i64 + 1), v)
                .unwrap();
        }
    }
    assert_eq!(scope.take_stats().total_messages(), 0);

    // The result equals the sequential ADI reference.
    let reference = vf_apps::adi::sequential_reference(n, 1, &initial);
    let result = scope.array("V").unwrap().to_dense();
    for (a, b) in result.iter().zip(reference.iter()) {
        assert!((a - b).abs() < 1e-9);
    }

    // Redistributing outside the declared RANGE is rejected.
    assert!(scope
        .distribute(DistributeStmt::new("V", DistType::blocks2d()))
        .is_err());
}

/// The Figure 2 skeleton at the language level: a DYNAMIC cell array whose
/// general-block redistribution follows the evolving particle counts, with
/// the BOUNDS array recomputed by `balance`.
#[test]
fn figure2_load_balance_scenario_through_the_language_layer() {
    let ncell = 64usize;
    let p = 4usize;
    let mut scope: VfScope<f64> = VfScope::new(zero_machine(p));
    scope
        .declare_dynamic(
            DynamicDecl::new("FIELD", IndexDomain::d1(ncell)).initial(DistType::block1d()),
        )
        .unwrap();

    // A clustered particle population.
    let particles = vf_apps::workloads::particles(
        ncell,
        1000,
        vf_apps::workloads::ParticleLayout::Cluster {
            center: 0.2,
            width: 0.05,
        },
        0.0,
        3,
    );
    let counts = vf_apps::workloads::particles_per_cell(&particles, ncell);

    // Under the static BLOCK distribution the cluster sits on one processor.
    let per_proc_static: Vec<usize> = (0..p)
        .map(|proc| {
            (0..ncell)
                .filter(|&c| {
                    scope
                        .array("FIELD")
                        .unwrap()
                        .dist()
                        .owner(&Point::d1(c as i64 + 1))
                        .unwrap()
                        .0
                        == proc
                })
                .map(|c| counts[c])
                .sum()
        })
        .collect();
    let imbalance_static = *per_proc_static.iter().max().unwrap() as f64 / (1000.0 / p as f64);

    // balance + DISTRIBUTE FIELD :: B_BLOCK(BOUNDS).
    let bounds = vf_apps::pic::balance(&counts, p);
    scope
        .distribute(DistributeStmt::new("FIELD", DistType::gen_block1d(bounds)))
        .unwrap();
    assert!(scope
        .idt("FIELD", &DistPattern::dims(vec![DimPattern::GenBlockAny]))
        .unwrap());

    let per_proc_balanced: Vec<usize> = (0..p)
        .map(|proc| {
            (0..ncell)
                .filter(|&c| {
                    scope
                        .array("FIELD")
                        .unwrap()
                        .dist()
                        .owner(&Point::d1(c as i64 + 1))
                        .unwrap()
                        .0
                        == proc
                })
                .map(|c| counts[c])
                .sum()
        })
        .collect();
    let imbalance_balanced = *per_proc_balanced.iter().max().unwrap() as f64 / (1000.0 / p as f64);
    assert!(
        imbalance_balanced < imbalance_static,
        "rebalancing must reduce the particle imbalance ({imbalance_balanced:.2} vs {imbalance_static:.2})"
    );
    assert!(imbalance_balanced < 1.5);
}

/// The SPMD thread executor and the master-managed tracker agree on the
/// cost model: a ring exchange performed by real threads produces the same
/// accounted bytes as the equivalent tracker calls.
#[test]
fn spmd_executor_accounts_like_the_tracker() {
    let p = 4;
    let cost = CostModel::from_alpha_beta(1e-6, 1e-9);
    let spmd_tracker = CommTracker::new(p, cost.clone());
    vf_machine::spmd::run(p, &spmd_tracker, |ctx| {
        let right = (ctx.rank() + 1) % ctx.num_procs();
        let payload = (ctx.rank() as f64).to_le_bytes().repeat(16);
        ctx.send(right, 1, payload).unwrap();
        let _ = ctx.recv(None, 1).unwrap();
        ctx.barrier();
    });
    let manual_tracker = CommTracker::new(p, cost);
    for src in 0..p {
        manual_tracker.send(src, (src + 1) % p, 16 * 8);
    }
    let a = spmd_tracker.snapshot();
    let b = manual_tracker.snapshot();
    assert_eq!(a.total_messages(), b.total_messages());
    assert_eq!(a.total_bytes(), b.total_bytes());
    assert!((a.critical_time() - b.critical_time()).abs() < 1e-12);
}

/// Deferred distribution: an array declared DYNAMIC without an initial
/// distribution is unusable until DISTRIBUTE executes, then fully usable.
#[test]
fn deferred_distribution_lifecycle() {
    let mut scope: VfScope<f64> = VfScope::new(zero_machine(2));
    scope
        .declare_dynamic(DynamicDecl::new("B1", IndexDomain::d1(10)))
        .unwrap();
    assert!(matches!(
        scope.array("B1"),
        Err(CoreError::NotYetDistributed { .. })
    ));
    assert!(scope.idt("B1", &DistPattern::Any).is_err());
    scope
        .distribute(DistributeStmt::new("B1", DistType::cyclic1d(2)))
        .unwrap();
    scope
        .array_mut("B1")
        .unwrap()
        .set(&Point::d1(3), 9.0)
        .unwrap();
    assert_eq!(scope.array("B1").unwrap().get(&Point::d1(3)).unwrap(), 9.0);
    assert_eq!(
        scope.descriptor("B1").unwrap().dist_type,
        DistType::cyclic1d(2)
    );
}
