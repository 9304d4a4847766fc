//! Property tests for the multi-backend plan executor and plan fusion:
//! the threaded executor must produce buffers **bitwise identical** to
//! serial execution (same locals, same reports, same tracker charges), and
//! a fused connect-class plan must move exactly the same (elements, bytes)
//! as the sum of its per-array plans while charging at most one message
//! per processor pair.

use proptest::prelude::*;
use proptest::strategy::ValueTree;
use std::sync::Arc;
use vf_core::prelude::*;
use vf_integration::{dist_1d, forced_threaded};
use vf_runtime::ghost::exchange_ghosts;
use vf_runtime::parti::{execute_gather, inspector};

/// Strategy for an arbitrary 1-D distribution type valid for `n` elements
/// on `p` processors (same shape as `plan_reuse`).
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

/// Workers of the forced-threaded executor: more than this host may have
/// cores — correctness must not depend on it.
const WORKERS: usize = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Redistribution through the threaded executor is bitwise identical
    /// to serial execution: every processor's local buffer, the report,
    /// and the tracker charges all agree.
    #[test]
    fn prop_threaded_redistribute_is_bitwise_identical(
        n in 8usize..80,
        p in 2usize..6,
        seed in 0u64..1000,
    ) {
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let from_t = arb_dist_type(n, p).new_tree(&mut runner).unwrap().current();
        let to_t = arb_dist_type(n, p).new_tree(&mut runner).unwrap().current();
        let from = dist_1d(from_t, n, p);
        let to = dist_1d(to_t, n, p);
        let init = |pt: &Point| (pt.coord(0) as f64) * 1.25 + seed as f64;

        let t_serial = CommTracker::new(p, CostModel::ipsc860(p));
        let mut a_serial = DistArray::from_fn("A", from.clone(), init);
        let opts = RedistOptions::default();
        let r_serial = redistribute(
            &mut a_serial, to.clone(), &t_serial, &opts, &PlanCache::new(), &SerialExecutor,
        ).unwrap();

        let t_threaded = CommTracker::new(p, CostModel::ipsc860(p));
        let mut a_threaded = DistArray::from_fn("A", from.clone(), init);
        let r_threaded = redistribute(
            &mut a_threaded, to.clone(), &t_threaded, &opts, &PlanCache::new(),
            &forced_threaded(WORKERS),
        ).unwrap();

        prop_assert_eq!(&r_serial, &r_threaded);
        // Bitwise identity of every local buffer, not just the global view.
        for q in 0..p {
            prop_assert_eq!(
                a_serial.local(ProcId(q)),
                a_threaded.local(ProcId(q)),
                "locals of P{} differ", q
            );
        }
        prop_assert_eq!(a_serial.to_dense(), a_threaded.to_dense());
        // The modelled machine saw exactly the same traffic and time.
        prop_assert_eq!(t_serial.snapshot(), t_threaded.snapshot());
    }

    /// Ghost exchange through the threaded executor returns exactly the
    /// serial ghost values and charges.
    #[test]
    fn prop_threaded_ghost_exchange_is_bitwise_identical(
        n in 4usize..24,
        p in 1usize..5,
    ) {
        let dist = Distribution::new(
            DistType::columns(),
            IndexDomain::d2(n, n),
            ProcessorView::linear(p),
        ).unwrap();
        let a = DistArray::from_fn("U", dist.clone(), |pt| (pt.coord(0) * 41 + pt.coord(1)) as f64);
        let widths = [(1, 1), (1, 1)];
        let t_serial = CommTracker::new(p, CostModel::ipsc860(p));
        let t_threaded = CommTracker::new(p, CostModel::ipsc860(p));
        let plan = PlanCache::new().ghost_plan(a.dist(), &widths).unwrap();
        let (g_serial, r_serial) =
            exchange_ghosts(&a, &plan, &t_serial, &SerialExecutor).unwrap();
        let (g_threaded, r_threaded) =
            exchange_ghosts(&a, &plan, &t_threaded, &forced_threaded(WORKERS)).unwrap();
        prop_assert_eq!(r_serial, r_threaded);
        for &proc in dist.proc_ids() {
            prop_assert_eq!(g_serial.len(proc), g_threaded.len(proc));
            for point in dist.domain().iter() {
                prop_assert_eq!(g_serial.get(proc, &point), g_threaded.get(proc, &point));
            }
        }
        prop_assert_eq!(t_serial.snapshot(), t_threaded.snapshot());
    }

    /// PARTI gathers through the threaded executor fetch exactly the
    /// serial values.
    #[test]
    fn prop_threaded_gather_is_bitwise_identical(
        n in 8usize..64,
        p in 2usize..5,
        stride in 1usize..5,
    ) {
        let dist = dist_1d(DistType::cyclic1d(1), n, p);
        let a = DistArray::from_fn("X", dist.clone(), |pt| pt.coord(0) as f64 * 2.5);
        let accesses: Vec<(ProcId, Point)> = (1..=n as i64)
            .step_by(stride)
            .map(|i| (ProcId((i as usize) % p), Point::d1(i)))
            .collect();
        let schedule = inspector(&dist, &accesses, &PlanCache::new()).unwrap();
        let t_serial = CommTracker::new(p, CostModel::ipsc860(p));
        let t_threaded = CommTracker::new(p, CostModel::ipsc860(p));
        let g_serial = execute_gather(&a, &schedule, &t_serial, &SerialExecutor).unwrap();
        let g_threaded =
            execute_gather(&a, &schedule, &t_threaded, &forced_threaded(WORKERS)).unwrap();
        for q in 0..p {
            prop_assert_eq!(g_serial.len(ProcId(q)), g_threaded.len(ProcId(q)));
        }
        for (proc, point) in &accesses {
            prop_assert_eq!(
                g_serial.get(*proc, &dist, point),
                g_threaded.get(*proc, &dist, point)
            );
        }
        prop_assert_eq!(t_serial.snapshot(), t_threaded.snapshot());
    }

    /// Fusing the per-array plans of a class moves exactly the same
    /// (elements, bytes) as the sum of the parts, charges at most one
    /// message per crossing processor pair, and preserves every array's
    /// data — under both backends.
    #[test]
    fn prop_fused_class_moves_the_sum_of_its_parts(
        n in 8usize..60,
        p in 2usize..6,
        arrays in 2usize..5,
        backend in 0usize..2,
    ) {
        let threaded = backend == 1;
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let from_t = arb_dist_type(n, p).new_tree(&mut runner).unwrap().current();
        let to_t = arb_dist_type(n, p).new_tree(&mut runner).unwrap().current();
        let from = dist_1d(from_t, n, p);
        let to = dist_1d(to_t, n, p);

        let parts: Vec<Arc<CommPlan>> = (0..arrays)
            .map(|_| Arc::new(plan::plan_redistribute(&from, &to).unwrap()))
            .collect();
        let sum_moved: usize = parts.iter().map(|pl| pl.moved_elements()).sum();
        let sum_bytes: usize = parts.iter().map(|pl| pl.bytes_for(8)).sum();
        let sum_messages: usize = parts.iter().map(|pl| pl.num_messages()).sum();
        let fused = FusedPlan::fuse(parts).unwrap();

        // Conservation: same elements and bytes, never more messages than
        // unfused and never more than one per processor pair.
        prop_assert_eq!(fused.moved_elements(), sum_moved);
        prop_assert_eq!(fused.bytes_for(8), sum_bytes);
        prop_assert!(fused.num_messages() <= sum_messages);
        prop_assert!(fused.num_messages() <= p * (p - 1));

        let mut datas: Vec<DistArray<f64>> = (0..arrays)
            .map(|k| DistArray::from_fn(
                format!("A{k}"),
                from.clone(),
                |pt| pt.coord(0) as f64 + (k * 10_000) as f64,
            ))
            .collect();
        let dense_before: Vec<Vec<f64>> = datas.iter().map(|d| d.to_dense()).collect();
        let tracker = CommTracker::new(p, CostModel::ipsc860(p));
        let mut refs: Vec<&mut DistArray<f64>> = datas.iter_mut().collect();
        let spares = &mut RetiredLocals::default();
        let (reports, exec) = if threaded {
            let pooled = forced_threaded(WORKERS);
            execute_class_redistribute(&mut refs, &fused, &tracker, &pooled, spares).unwrap()
        } else {
            execute_class_redistribute(&mut refs, &fused, &tracker, &SerialExecutor, spares)
                .unwrap()
        };

        // Every array survived the fused motion with its own data.
        for (data, before) in datas.iter().zip(&dense_before) {
            prop_assert_eq!(&data.to_dense(), before);
            data.check_invariants().unwrap();
        }
        // The tracker charged exactly the fused schedule.
        let stats = tracker.snapshot();
        prop_assert_eq!(stats.total_messages(), fused.num_messages());
        prop_assert_eq!(stats.total_bytes(), exec.bytes);
        prop_assert_eq!(exec.bytes, sum_bytes);
        // The per-array reports still carry the unfused split.
        prop_assert_eq!(reports.iter().map(|r| r.bytes).sum::<usize>(), sum_bytes);
        prop_assert_eq!(reports.iter().map(|r| r.messages).sum::<usize>(), sum_messages);
    }

    /// The language layer fuses `DISTRIBUTE` over a connect class: the
    /// statement charges one message per processor pair for the whole
    /// class, the data of every member survives, and the report's totals
    /// match the tracker exactly.
    #[test]
    fn prop_scope_distribute_fuses_the_connect_class(
        n in 8usize..40,
        secondaries in 1usize..4,
    ) {
        let p = 4usize;
        let machine = Machine::new(p, CostModel::zero());
        let mut scope: VfScope<f64> = VfScope::new(machine);
        scope.declare_dynamic(
            DynamicDecl::new("B", IndexDomain::d1(n)).initial(DistType::block1d()),
        ).unwrap();
        for k in 0..secondaries {
            scope.declare_secondary(
                SecondaryDecl::extraction(format!("S{k}"), IndexDomain::d1(n), "B"),
            ).unwrap();
        }
        for i in 1..=n as i64 {
            scope.array_mut("B").unwrap().set(&Point::d1(i), i as f64).unwrap();
            for k in 0..secondaries {
                scope.array_mut(&format!("S{k}")).unwrap()
                    .set(&Point::d1(i), -(i as f64) - (k * 1000) as f64).unwrap();
            }
        }
        scope.take_stats();
        let report = scope.distribute(DistributeStmt::new("B", DistType::cyclic1d(1))).unwrap();

        // The whole class moved as one fused statement.
        prop_assert_eq!(report.per_array.len(), 1 + secondaries);
        prop_assert!(report.fused.is_some());
        prop_assert!(report.messages() <= p * (p - 1));
        if report.unfused_messages() > p * (p - 1) {
            prop_assert!(report.messages() < report.unfused_messages());
        }
        // The tracker saw exactly the fused totals.
        let stats = scope.take_stats();
        prop_assert_eq!(stats.total_messages(), report.messages());
        prop_assert_eq!(stats.total_bytes(), report.bytes());
        // Data of every member survived.
        for i in 1..=n as i64 {
            prop_assert_eq!(scope.array("B").unwrap().get(&Point::d1(i)).unwrap(), i as f64);
            for k in 0..secondaries {
                prop_assert_eq!(
                    scope.array(&format!("S{k}")).unwrap().get(&Point::d1(i)).unwrap(),
                    -(i as f64) - (k * 1000) as f64
                );
            }
        }
    }
}
