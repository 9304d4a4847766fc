//! Property-based cross-crate tests: randomised distributions, domains and
//! redistribution chains must preserve the core invariants.

use proptest::prelude::*;
use proptest::strategy::ValueTree;
use vf_core::prelude::*;
use vf_integration::{dist_1d, get_with_ghosts};
use vf_runtime::ghost::exchange_ghosts;

/// Strategy for an arbitrary 1-D distribution type valid for `n` elements on
/// `p` processors.
fn arb_dist_type(n: usize, p: usize) -> impl Strategy<Value = DistType> {
    prop_oneof![
        Just(DistType::block1d()),
        (1usize..6).prop_map(DistType::cyclic1d),
        proptest::collection::vec(0usize..(2 * n / p + 1), p).prop_map(move |mut sizes| {
            // Normalise so the sizes sum to n.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A chain of three random redistributions preserves the data, keeps
    /// the invariants, and the tracker's byte accounting matches the sum of
    /// the reports.
    #[test]
    fn prop_redistribution_chains_preserve_data(
        n in 8usize..80,
        p in 2usize..6,
        seed in 0u64..1000,
        chain_idx in 0usize..3,
    ) {
        let chain_len = chain_idx + 1;
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let mut types = Vec::new();
        for _ in 0..=chain_len {
            types.push(arb_dist_type(n, p).new_tree(&mut runner).unwrap().current());
        }
        let tracker = CommTracker::new(p, CostModel::zero());
        let mut a = DistArray::from_fn("A", dist_1d(types[0].clone(), n, p), |pt| {
            (pt.coord(0) as f64) * 1.5 + seed as f64
        });
        let before = a.to_dense();
        let mut total_bytes = 0usize;
        for t in &types[1..] {
            let target = dist_1d(t.clone(), n, p);
            let (opts, uncached) = (RedistOptions::default(), PlanCache::new());
            let report =
                redistribute(&mut a, target, &tracker, &opts, &uncached, &SerialExecutor).unwrap();
            total_bytes += report.bytes;
            prop_assert_eq!(report.moved_elements + report.stayed_elements, n);
            a.check_invariants().unwrap();
        }
        prop_assert_eq!(a.to_dense(), before);
        prop_assert_eq!(tracker.snapshot().total_bytes(), total_bytes);
    }

    /// The distributed reduction equals the dense sum for arbitrary
    /// distributions.
    #[test]
    fn prop_reduction_matches_dense_sum(
        n in 4usize..60,
        p in 1usize..5,
        values in proptest::collection::vec(-100i32..100, 4..60),
    ) {
        let tracker = CommTracker::new(p, CostModel::zero());
        let a = DistArray::from_fn("A", dist_1d(DistType::cyclic1d(2), n, p), |pt| {
            let i = (pt.coord(0) - 1) as usize;
            values.get(i % values.len()).copied().unwrap_or(0) as f64
        });
        let dense_sum: f64 = a.to_dense().iter().sum();
        let reduced = vf_runtime::reduce::sum(&a, &tracker);
        prop_assert!((dense_sum - reduced).abs() < 1e-9);
    }

    /// Ghost exchange returns exactly the true neighbour values for block
    /// layouts of arbitrary sizes.
    #[test]
    fn prop_ghost_values_match_direct_reads(n in 4usize..24, p in 1usize..5) {
        let dist = Distribution::new(
            DistType::columns(),
            IndexDomain::d2(n, n),
            ProcessorView::linear(p),
        ).unwrap();
        let a = DistArray::from_fn("U", dist.clone(), |pt| (pt.coord(0) * 37 + pt.coord(1)) as f64);
        let tracker = CommTracker::new(p, CostModel::zero());
        let plan = PlanCache::new().ghost_plan(a.dist(), &[(1, 1), (1, 1)]).unwrap();
        let (ghosts, _) = exchange_ghosts(&a, &plan, &tracker, &SerialExecutor).unwrap();
        for &proc in dist.proc_ids() {
            for point in dist.local_points(proc) {
                for (dim, delta) in [(0, -1i64), (0, 1), (1, -1), (1, 1)] {
                    let nb = point.offset(dim, delta);
                    if !dist.domain().contains(&nb) {
                        continue;
                    }
                    let v = get_with_ghosts(&a, &ghosts, proc, &nb).unwrap();
                    prop_assert_eq!(v, a.get(&nb).unwrap());
                }
            }
        }
    }

    /// The DISTRIBUTE statement through the language layer is equivalent to
    /// calling the runtime redistribution directly.
    #[test]
    fn prop_scope_distribute_equals_runtime_redistribute(
        n in 8usize..60,
        p in 2usize..5,
    ) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let from = arb_dist_type(n, p).new_tree(&mut runner).unwrap().current();
        let to = arb_dist_type(n, p).new_tree(&mut runner).unwrap().current();

        // Language layer.
        let mut scope: VfScope<f64> = VfScope::new(Machine::new(p, CostModel::zero()));
        scope.declare_dynamic(
            DynamicDecl::new("B", IndexDomain::d1(n)).initial(from.clone()),
        ).unwrap();
        for i in 1..=n as i64 {
            scope.array_mut("B").unwrap().set(&Point::d1(i), i as f64).unwrap();
        }
        let report = scope.distribute(DistributeStmt::new("B", to.clone())).unwrap();

        // Runtime layer.
        let tracker = CommTracker::new(p, CostModel::zero());
        let mut direct = DistArray::from_fn("B", dist_1d(from, n, p), |pt| pt.coord(0) as f64);
        let (opts, uncached) = (RedistOptions::default(), PlanCache::new());
        let direct_report =
            redistribute(&mut direct, dist_1d(to, n, p), &tracker, &opts, &uncached, &SerialExecutor)
                .unwrap();

        prop_assert_eq!(report.moved_elements(), direct_report.moved_elements);
        prop_assert_eq!(report.bytes(), direct_report.bytes);
        prop_assert_eq!(scope.array("B").unwrap().to_dense(), direct.to_dense());
    }
}
