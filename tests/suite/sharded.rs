//! Property suite for the distributed-memory backend: a sharded run —
//! rank-local shards exchanged over real SPMD channels — must be
//! **bitwise identical** to the shared-memory wire path (same locals,
//! same reports, same modelled tracker charges) across redistribution,
//! ghost exchange and PARTI gather on random block and INDIRECT
//! layouts, and the real channel traffic it counts must equal the
//! modelled wire traffic exactly.

use proptest::prelude::*;
use proptest::strategy::ValueTree;
use std::sync::Arc;
use vf_core::prelude::*;
use vf_integration::{class_halo, dist_1d};
use vf_runtime::parti::{execute_gather, inspector};

/// Strategy for an arbitrary 1-D distribution type valid for `n` elements
/// on `p` processors — block, cyclic, generalised block, or a
/// mapping-array INDIRECT layout with arbitrary owners.
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
        proptest::collection::vec(0usize..p, n).prop_map(|owners| {
            DistType::indirect1d(Arc::new(IndirectMap::new(owners).expect("non-empty")))
        }),
    ]
}

/// Asserts the modelled charges agree and that only the sharded tracker
/// moved real bytes — exactly as many as the executor reports.
fn assert_stats_parity(sharded: &CommStats, shared: &CommStats, exec: &ExecReport) {
    assert_eq!(sharded.total_messages(), shared.total_messages());
    assert_eq!(sharded.total_bytes(), shared.total_bytes());
    assert_eq!(
        shared.channel_messages(),
        0,
        "oracle never touches a channel"
    );
    assert_eq!(sharded.channel_messages(), exec.messages);
    assert_eq!(sharded.channel_bytes(), exec.bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused redistribution through rank-local shards and real channels
    /// is bitwise identical to the shared-memory wire executor.
    #[test]
    fn prop_sharded_redistribute_is_bitwise_identical(
        n in 8usize..64,
        p in 2usize..5,
        arrays in 1usize..3,
        seed in 0u64..1000,
    ) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let from_t = arb_dist_type(n, p).new_tree(&mut runner).unwrap().current();
        let to_t = arb_dist_type(n, p).new_tree(&mut runner).unwrap().current();
        let from = dist_1d(from_t, n, p);
        let to = dist_1d(to_t, n, p);
        let init = |k: usize| move |pt: &Point| {
            (pt.coord(0) as f64) * 1.5 + (seed + k as u64 * 10_000) as f64
        };

        // One independently planned fused schedule per run: directory
        // page charges are consumed on first execution, so sharing one
        // plan would hide them from the second run.
        let plan_once = || {
            FusedPlan::fuse(
                (0..arrays)
                    .map(|_| Ok(Arc::new(plan::plan_redistribute(&from, &to)?)))
                    .collect::<Result<Vec<_>, vf_runtime::RuntimeError>>()
                    .unwrap(),
            )
            .unwrap()
        };
        let fused = plan_once();

        let t_shared = CommTracker::new(p, CostModel::ipsc860(p));
        let mut a_shared: Vec<DistArray<f64>> = (0..arrays)
            .map(|k| DistArray::from_fn(format!("A{k}"), from.clone(), init(k)))
            .collect();
        let mut refs: Vec<&mut DistArray<f64>> = a_shared.iter_mut().collect();
        let (r_shared, e_shared) = execute_class_redistribute(
            &mut refs,
            &fused,
            &t_shared,
            &SerialExecutor,
            &mut RetiredLocals::default(),
        )
        .unwrap();

        let t_sharded = CommTracker::new(p, CostModel::ipsc860(p));
        let mut a_sharded: Vec<DistArray<f64>> = (0..arrays)
            .map(|k| DistArray::from_fn(format!("A{k}"), from.clone(), init(k)))
            .collect();
        let mut refs: Vec<&mut DistArray<f64>> = a_sharded.iter_mut().collect();
        let fused2 = plan_once();
        let (r_sharded, e_sharded) = execute_class_redistribute(
            &mut refs,
            &fused2,
            &t_sharded,
            &ShardedExecutor::new(),
            &mut RetiredLocals::default(),
        )
        .unwrap();

        prop_assert_eq!(r_shared, r_sharded);
        prop_assert_eq!(&e_shared, &e_sharded);
        for (a, b) in a_shared.iter().zip(&a_sharded) {
            for q in 0..p {
                prop_assert_eq!(a.local(ProcId(q)), b.local(ProcId(q)), "locals of P{}", q);
            }
            prop_assert_eq!(a.to_dense(), b.to_dense());
            b.check_invariants().unwrap();
        }
        assert_stats_parity(&t_sharded.snapshot(), &t_shared.snapshot(), &e_sharded);
    }

    /// Fused ghost exchange over real channels fills exactly the ghost
    /// values of the shared-memory wire exchange — including on INDIRECT
    /// layouts, whose halos are irregular per-element chains.
    #[test]
    fn prop_sharded_ghost_exchange_is_bitwise_identical(
        n in 8usize..48,
        p in 2usize..5,
        lo in 1usize..3,
        hi in 1usize..3,
    ) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let t = arb_dist_type(n, p).new_tree(&mut runner).unwrap().current();
        let dist = dist_1d(t, n, p);
        let a = DistArray::from_fn("G", dist.clone(), |pt| (pt.coord(0) * 37) as f64 * 0.25);
        let widths = [(lo, hi)];

        let t_shared = CommTracker::new(p, CostModel::ipsc860(p));
        let (g_shared, e_shared) =
            class_halo(&[&a], &widths, &t_shared, &PlanCache::new(), &SerialExecutor).unwrap();

        let t_sharded = CommTracker::new(p, CostModel::ipsc860(p));
        let sharded = ShardedExecutor::new();
        let (g_sharded, e_sharded) =
            class_halo(&[&a], &widths, &t_sharded, &PlanCache::new(), &sharded).unwrap();

        prop_assert_eq!(&e_shared, &e_sharded);
        for q in 0..p {
            prop_assert_eq!(g_shared[0].len(ProcId(q)), g_sharded[0].len(ProcId(q)));
            for point in dist.domain().iter() {
                prop_assert_eq!(
                    g_shared[0].get(ProcId(q), &point),
                    g_sharded[0].get(ProcId(q), &point)
                );
            }
        }
        assert_stats_parity(&t_sharded.snapshot(), &t_shared.snapshot(), &e_sharded);
    }

    /// PARTI gathers through rank-local shards fetch exactly the values
    /// of the shared-memory executor and charge identically.
    #[test]
    fn prop_sharded_gather_is_bitwise_identical(
        n in 8usize..64,
        p in 2usize..5,
        stride in 1usize..5,
        spin in 1usize..11,
    ) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let t = arb_dist_type(n, p).new_tree(&mut runner).unwrap().current();
        let dist = dist_1d(t, n, p);
        let a = DistArray::from_fn("X", dist.clone(), |pt| pt.coord(0) as f64 * 2.5);
        let accesses: Vec<(ProcId, Point)> = (1..=n as i64)
            .step_by(stride)
            .map(|i| (ProcId(((i as usize) * spin) % p), Point::d1(i)))
            .collect();
        // One schedule per run — directory page charges are consumed on
        // first execution.
        let schedule = inspector(&dist, &accesses, &PlanCache::new()).unwrap();
        let schedule2 = inspector(&dist, &accesses, &PlanCache::new()).unwrap();

        let t_shared = CommTracker::new(p, CostModel::ipsc860(p));
        let g_shared = execute_gather(&a, &schedule, &t_shared, &SerialExecutor).unwrap();

        let t_sharded = CommTracker::new(p, CostModel::ipsc860(p));
        let g_sharded =
            execute_gather(&a, &schedule2, &t_sharded, &ShardedExecutor::new()).unwrap();

        for q in 0..p {
            prop_assert_eq!(g_shared.len(ProcId(q)), g_sharded.len(ProcId(q)));
        }
        for (proc, point) in &accesses {
            prop_assert_eq!(
                g_shared.get(*proc, &dist, point),
                g_sharded.get(*proc, &dist, point)
            );
        }
        let shared = t_shared.snapshot();
        let sharded = t_sharded.snapshot();
        prop_assert_eq!(sharded.total_messages(), shared.total_messages());
        prop_assert_eq!(sharded.total_bytes(), shared.total_bytes());
        prop_assert_eq!(shared.channel_messages(), 0);
        // Gather moves exactly the schedule's aggregated messages over
        // the wire — one channel frame per crossing processor pair.
        prop_assert_eq!(sharded.channel_messages(), schedule.num_messages());
        prop_assert_eq!(sharded.channel_bytes(), schedule.plan().bytes_for(8));
    }
}

/// Redistributes a two-array class BLOCK → CYCLIC(3) and exchanges its
/// (2,1) halo, once through the shared wire path and once through framed
/// channel messages, for one element type.
fn assert_element_type_matches_shared<T: Element>(value: impl Fn(usize) -> T + Copy) {
    let (n, p) = (53usize, 3usize);
    let from = dist_1d(DistType::block1d(), n, p);
    let to = dist_1d(DistType::cyclic1d(3), n, p);
    let make = || -> Vec<DistArray<T>> {
        (0..2)
            .map(|k| {
                DistArray::from_fn(format!("E{k}"), from.clone(), |pt| {
                    value(pt.coord(0) as usize * 2 + k)
                })
            })
            .collect()
    };
    let plan_once = || {
        FusedPlan::fuse(
            (0..2)
                .map(|_| Arc::new(plan::plan_redistribute(&from, &to).unwrap()))
                .collect(),
        )
        .unwrap()
    };
    let widths = [(2, 1)];

    let t_shared = CommTracker::new(p, CostModel::ipsc860(p));
    let mut shared = make();
    let refs: Vec<&DistArray<T>> = shared.iter().collect();
    let (g_shared, ge_shared) = class_halo(
        &refs,
        &widths,
        &t_shared,
        &PlanCache::new(),
        &SerialExecutor,
    )
    .unwrap();
    let mut refs: Vec<&mut DistArray<T>> = shared.iter_mut().collect();
    let (r_shared, e_shared) = execute_class_redistribute(
        &mut refs,
        &plan_once(),
        &t_shared,
        &SerialExecutor,
        &mut RetiredLocals::default(),
    )
    .unwrap();

    let exec = ShardedExecutor::new();
    let t_sharded = CommTracker::new(p, CostModel::ipsc860(p));
    let mut sharded = make();
    let refs: Vec<&DistArray<T>> = sharded.iter().collect();
    let (g_sharded, ge_sharded) =
        class_halo(&refs, &widths, &t_sharded, &PlanCache::new(), &exec).unwrap();
    let mut refs: Vec<&mut DistArray<T>> = sharded.iter_mut().collect();
    let (r_sharded, e_sharded) = execute_class_redistribute(
        &mut refs,
        &plan_once(),
        &t_sharded,
        &exec,
        &mut RetiredLocals::default(),
    )
    .unwrap();

    let what = std::any::type_name::<T>();
    assert_eq!(ge_shared, ge_sharded, "{what}: halo report");
    assert_eq!(r_shared, r_sharded, "{what}: redistribute reports");
    assert_eq!(e_shared, e_sharded, "{what}: redistribute exec report");
    for k in 0..2 {
        for q in 0..p {
            assert_eq!(
                shared[k].local(ProcId(q)),
                sharded[k].local(ProcId(q)),
                "{what}: locals of E{k} on P{q}"
            );
            for point in from.domain().iter() {
                assert_eq!(
                    g_shared[k].get(ProcId(q), &point),
                    g_sharded[k].get(ProcId(q), &point),
                    "{what}: ghost of E{k} on P{q} at {point:?}"
                );
            }
        }
        sharded[k].check_invariants().unwrap();
    }
    let (st_sharded, st_shared) = (t_sharded.snapshot(), t_shared.snapshot());
    assert_eq!(st_sharded.total_messages(), st_shared.total_messages());
    assert_eq!(st_sharded.total_bytes(), st_shared.total_bytes());
    assert_eq!(
        st_sharded.channel_bytes(),
        ge_sharded.bytes + e_sharded.bytes,
        "{what}: frames carry exactly the modelled bytes"
    );
}

/// The frame codec is exercised at every element width, not just `f64`:
/// 4-byte (`f32`, `i32`) and 1-byte (`u8`, `bool`) arrays travel as
/// frames and land bitwise where the shared wire path puts them.
#[test]
fn narrow_element_types_match_the_shared_wire_path() {
    assert_element_type_matches_shared::<f32>(|i| i as f32 * -0.37 + 1.0e-3);
    assert_element_type_matches_shared::<i32>(|i| (i as i32 - 40) * 65_537);
    assert_element_type_matches_shared::<u8>(|i| (i * 37 % 256) as u8);
    assert_element_type_matches_shared::<bool>(|i| i % 3 == 0);
}

/// A statement that fails mid-region — here a rank dies with frames in
/// flight — leaves every array exactly as it was: the sharded path only
/// ever borrows the sources, so there is nothing to put back.  The same
/// statement then succeeds on the same arrays.
#[test]
fn failed_exchange_leaves_the_arrays_on_their_old_distribution() {
    use vf_machine::{FaultInjector, FaultKind, FaultPlan};
    // Six ranks all-to-all: every rank performs 10 channel operations, so
    // the victim's fuse (< 8) always burns down inside the exchange.
    let (n, p) = (96usize, 6usize);
    let from = dist_1d(DistType::block1d(), n, p);
    let to = dist_1d(DistType::cyclic1d(1), n, p);
    let make = || -> Vec<DistArray<f64>> {
        (0..2)
            .map(|k| {
                DistArray::from_fn(format!("F{k}"), from.clone(), |pt| {
                    (pt.coord(0) * 10 + k as i64) as f64
                })
            })
            .collect()
    };
    let fused = || {
        FusedPlan::fuse(
            (0..2)
                .map(|_| Arc::new(plan::plan_redistribute(&from, &to).unwrap()))
                .collect(),
        )
        .unwrap()
    };
    let death = FaultPlan::new(11)
        .with_rate(1.0)
        .with_kinds(&[FaultKind::RankDeath])
        .with_max_faults(1);
    let tracker = CommTracker::new(p, CostModel::zero())
        .with_fault_injector(Arc::new(FaultInjector::new(death)));
    let exec = ShardedExecutor::new().with_timeout(std::time::Duration::from_millis(300));

    let before = make();
    let mut arrays = make();
    let mut refs: Vec<&mut DistArray<f64>> = arrays.iter_mut().collect();
    let err = execute_class_redistribute(
        &mut refs,
        &fused(),
        &tracker,
        &exec,
        &mut RetiredLocals::default(),
    )
    .expect_err("a rank died mid-exchange");
    assert!(
        matches!(err, vf_runtime::RuntimeError::Channel(_)),
        "structured channel failure, got {err:?}"
    );
    for (a, b) in arrays.iter().zip(&before) {
        assert_eq!(a.dist().fingerprint(), from.fingerprint());
        for q in 0..p {
            assert_eq!(a.local(ProcId(q)), b.local(ProcId(q)));
        }
        a.check_invariants().unwrap();
    }

    // The fault budget is spent: the retried statement goes through.
    let mut refs: Vec<&mut DistArray<f64>> = arrays.iter_mut().collect();
    execute_class_redistribute(
        &mut refs,
        &fused(),
        &tracker,
        &exec,
        &mut RetiredLocals::default(),
    )
    .unwrap();
    for (a, b) in arrays.iter().zip(&before) {
        assert_eq!(a.dist().fingerprint(), to.fingerprint());
        assert_eq!(a.to_dense(), b.to_dense());
    }
}
