//! Property suite for the indirect-distribution subsystem: mapping-array
//! distributions, the distributed translation table, and redistribution
//! through the `CommPlan`/`PlanCache`/executor stack.

use proptest::prelude::*;
use std::sync::Arc;
use vf_core::prelude::*;
use vf_integration::{dist_1d, forced_threaded, zero_machine};
use vf_runtime::plan::plan_redistribute;
use vf_runtime::DistTranslationTable;

fn indirect_1d(owners: Vec<usize>, p: usize) -> Distribution {
    let n = owners.len();
    Distribution::new(
        DistType::indirect1d(Arc::new(IndirectMap::new(owners).expect("non-empty"))),
        IndexDomain::d1(n),
        ProcessorView::linear(p),
    )
    .expect("valid indirect distribution")
}

/// Brute-force per-element oracle: how many elements change owner between
/// `from` and `to`, resolved point by point through the public owner API.
fn oracle_moved(from: &Distribution, to: &Distribution) -> usize {
    from.domain()
        .clone()
        .iter()
        .filter(|pt| from.owner(pt).unwrap() != to.owner(pt).unwrap())
        .count()
}

#[test]
fn indirect_redistribute_round_trips_bitwise() {
    // BLOCK -> INDIRECT(mapA) -> INDIRECT(mapB) -> BLOCK, at the runtime
    // level, with data compared bitwise at every stage.
    let n = 160usize;
    let p = 4usize;
    let machine = zero_machine(p);
    let tracker = machine.tracker();
    let block = dist_1d(DistType::block1d(), n, p);
    let map_a = indirect_1d((0..n).map(|i| (i * 7 + 1) % p).collect(), p);
    let map_b = indirect_1d((0..n).map(|i| (i / 5) % p).collect(), p);
    let mut a = DistArray::from_fn("A", block.clone(), |pt| (pt.coord(0) as f64).sqrt());
    let before = a.to_dense();
    for target in [map_a, map_b, block] {
        let report = redistribute(
            &mut a,
            target,
            &tracker,
            &RedistOptions::default(),
            &PlanCache::new(),
            &SerialExecutor,
        )
        .unwrap();
        assert_eq!(a.to_dense(), before, "data lost");
        a.check_invariants().unwrap();
        assert_eq!(report.moved_elements + report.stayed_elements, n);
    }
}

#[test]
fn indirect_plans_conserve_against_the_per_element_oracle() {
    let n = 96usize;
    let p = 4usize;
    let block = dist_1d(DistType::block1d(), n, p);
    let cyclic = dist_1d(DistType::cyclic1d(1), n, p);
    let ind_a = indirect_1d((0..n).map(|i| (i * 11 + 2) % p).collect(), p);
    let ind_b = indirect_1d((0..n).map(|i| (i * i) % p).collect(), p);
    // Into, out of, and between indirect distributions.
    for (from, to) in [
        (&block, &ind_a),
        (&ind_a, &block),
        (&cyclic, &ind_b),
        (&ind_a, &ind_b),
        (&ind_b, &ind_a),
    ] {
        let plan = Arc::new(plan_redistribute(from, to).unwrap());
        let moved = oracle_moved(from, to);
        assert_eq!(plan.moved_elements(), moved, "{from} -> {to}");
        assert_eq!(plan.moved_elements() + plan.stayed_elements(), n);
        assert_eq!(plan.bytes_for(8), moved * 8);
        // Planning against an indirect target carried directory page
        // fetches on the plan; a plan onto a regular target carries none.
        let (dir_messages, dir_bytes) = plan.pending_directory_traffic();
        assert_eq!(dir_messages > 0, to.dist_type().has_indirect(), "{to}");
        // First execution charges the data motion plus the inspection's
        // directory traffic, exactly once.
        let machine = zero_machine(p);
        let tracker = machine.tracker();
        let mut arr = DistArray::from_fn("X", from.clone(), |pt| pt.coord(0) as f64 * 0.5);
        let dense = arr.to_dense();
        let report = vf_runtime::execute_redistribute(
            &mut arr,
            &plan,
            &tracker,
            &RedistOptions::default(),
            &SerialExecutor,
        )
        .unwrap();
        assert_eq!(arr.to_dense(), dense);
        assert_eq!(report.moved_elements, moved);
        assert_eq!(
            report.bytes,
            moved * 8,
            "data-plane report excludes the directory"
        );
        assert_eq!(tracker.snapshot().total_bytes(), moved * 8 + dir_bytes);
        // Re-executing the (now drained) plan charges the data motion only
        // — the cold-vs-warm split of schedule reuse.
        assert_eq!(plan.pending_directory_traffic(), (0, 0));
        let t2 = zero_machine(p).tracker();
        let mut arr2 = DistArray::from_fn("X", from.clone(), |pt| pt.coord(0) as f64 * 0.5);
        vf_runtime::execute_redistribute(
            &mut arr2,
            &plan,
            &t2,
            &RedistOptions::default(),
            &SerialExecutor,
        )
        .unwrap();
        assert_eq!(t2.snapshot().total_bytes(), moved * 8);
    }
}

#[test]
fn translation_table_lookups_equal_naive_owner_map_scans() {
    let n = 300usize;
    let p = 5usize;
    let owners: Vec<usize> = (0..n).map(|i| (i * 13 + 3) % p).collect();
    let dist = indirect_1d(owners.clone(), p);
    let table = DistTranslationTable::with_page_size(&dist, 32);
    // The naive scan: owners[] directly, local offset by counting.
    let mut seen = vec![0usize; p];
    for (lin, &owner) in owners.iter().enumerate() {
        let expect = (ProcId(owner), seen[owner]);
        seen[owner] += 1;
        assert_eq!(table.lookup(lin), expect, "direct lookup at {lin}");
        assert_eq!(
            table.lookup_from(ProcId(lin % p), lin),
            expect,
            "cached lookup at {lin}"
        );
        let point = Point::d1(lin as i64 + 1);
        assert_eq!(dist.owner(&point).unwrap(), expect.0);
        assert_eq!(dist.loc_map(expect.0, &point).unwrap(), expect.1);
    }
}

#[test]
fn repeated_indirect_distribute_is_served_from_the_plan_cache() {
    let n = 64usize;
    let p = 4usize;
    let mut scope: VfScope<f64> = VfScope::new(zero_machine(p));
    scope
        .declare_dynamic(DynamicDecl::new("V", IndexDomain::d1(n)).initial(DistType::block1d()))
        .unwrap();
    let map = Arc::new(IndirectMap::from_fn(n, |i| (i * 3 + 1) % p).unwrap());
    let to_indirect = DistributeStmt::new("V", DistType::indirect1d(Arc::clone(&map)));
    let to_block = DistributeStmt::new("V", DistType::block1d());
    scope.distribute(to_indirect.clone()).unwrap();
    scope.distribute(to_block.clone()).unwrap();
    let after_first_cycle = scope.plan_cache().stats();
    assert_eq!(after_first_cycle.misses, 2);
    // Ten more cycles: all hits, zero planning.
    for _ in 0..10 {
        scope.distribute(to_indirect.clone()).unwrap();
        scope.distribute(to_block.clone()).unwrap();
    }
    let stats = scope.plan_cache().stats();
    assert_eq!(stats.misses, 2, "no replanning while the maps repeat");
    assert_eq!(stats.hits, 20);
}

#[test]
fn indirect_class_fuses_and_threaded_matches_serial() {
    // A three-array connect class sharing one map: the DISTRIBUTE fuses to
    // one message per pair, and the threaded backend (including the
    // hot-destination split) is bitwise identical to serial.
    let n = 128usize;
    let p = 4usize;
    // A skewed map: half of everything lands on P0 (the hot receiver).
    let owners: Vec<usize> = (0..n)
        .map(|i| if i % 2 == 0 { 0 } else { 1 + i % (p - 1) })
        .collect();
    let build = |backend| {
        let mut scope: VfScope<f64> = VfScope::new(zero_machine(p));
        scope.set_executor(backend);
        scope
            .declare_dynamic(DynamicDecl::new("B", IndexDomain::d1(n)).initial(DistType::block1d()))
            .unwrap();
        for name in ["A1", "A2"] {
            scope
                .declare_secondary(SecondaryDecl::extraction(name, IndexDomain::d1(n), "B"))
                .unwrap();
        }
        for i in 1..=n as i64 {
            for (k, name) in ["B", "A1", "A2"].iter().enumerate() {
                scope
                    .array_mut(name)
                    .unwrap()
                    .set(&Point::d1(i), (i * (k as i64 + 1)) as f64)
                    .unwrap();
            }
        }
        let report = scope
            .distribute(DistributeStmt::new(
                "B",
                DistType::indirect1d(Arc::new(IndirectMap::new(owners.clone()).unwrap())),
            ))
            .unwrap();
        (scope, report)
    };
    let (serial_scope, serial_report) = build(ExecBackend::Serial);
    let (threaded_scope, threaded_report) = build(ExecBackend::Threaded(forced_threaded(3)));
    assert!(serial_report.fused.is_some());
    assert!(serial_report.messages() < serial_report.unfused_messages());
    assert_eq!(serial_report, threaded_report);
    for name in ["B", "A1", "A2"] {
        assert_eq!(
            serial_scope.array(name).unwrap().to_dense(),
            threaded_scope.array(name).unwrap().to_dense(),
            "{name} differs between backends"
        );
    }
    assert_eq!(
        serial_scope.stats().total_messages(),
        threaded_scope.stats().total_messages()
    );
}

#[test]
fn indirect_gather_and_scatter_resolve_through_the_map() {
    let n = 40usize;
    let p = 4usize;
    let dist = indirect_1d((0..n).map(|i| (i * 5 + 2) % p).collect(), p);
    let mut a = DistArray::from_fn("M", dist, |pt| pt.coord(0) as f64);
    let machine = zero_machine(p);
    let tracker = machine.tracker();
    // Gather: every processor reads element 1 and its own rank's element.
    let accesses: Vec<(ProcId, Point)> = (0..p)
        .flat_map(|q| {
            [
                (ProcId(q), Point::d1(1)),
                (ProcId(q), Point::d1(q as i64 + 2)),
            ]
        })
        .collect();
    let schedule = vf_runtime::parti::inspector(a.dist(), &accesses, &PlanCache::new()).unwrap();
    let gathered =
        vf_runtime::parti::execute_gather(&a, &schedule, &tracker, &SerialExecutor).unwrap();
    for (q, point) in &accesses {
        let expect = point.coord(0) as f64;
        let owner = a.dist().owner(point).unwrap();
        if owner == *q {
            assert_eq!(a.get(point).unwrap(), expect);
        } else {
            assert_eq!(gathered.get(*q, a.dist(), point), Some(expect));
        }
    }
    // Scatter accumulates at map-resolved owners.
    let updates: Vec<(ProcId, Point, f64)> = (1..=n as i64)
        .map(|i| (ProcId(0), Point::d1(i), 100.0))
        .collect();
    vf_runtime::parti::execute_scatter(
        &mut a,
        &updates,
        &tracker,
        &PlanCache::new(),
        &SerialExecutor,
        |x, y| x + y,
    )
    .unwrap();
    for i in 1..=n as i64 {
        assert_eq!(a.get(&Point::d1(i)).unwrap(), i as f64 + 100.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random maps: redistribution between any two of them round-trips
    /// bitwise, conserves elements against the oracle, and cache-hits on
    /// repeat.
    #[test]
    fn prop_indirect_redistribute_round_trip(
        owners_a in proptest::collection::vec(0usize..4, 8..80),
        seed in 0usize..1000,
    ) {
        let n = owners_a.len();
        let p = 4usize;
        let owners_b: Vec<usize> = (0..n).map(|i| (i * 7 + seed) % p).collect();
        let from = indirect_1d(owners_a, p);
        let to = indirect_1d(owners_b, p);
        let machine = zero_machine(p);
        let tracker = machine.tracker();
        let cache = PlanCache::new();
        let mut a = DistArray::from_fn("P", from.clone(), |pt| (pt.coord(0) * 3) as f64);
        let dense = a.to_dense();
        let opts = RedistOptions::default();
        let report =
            redistribute(&mut a, to.clone(), &tracker, &opts, &cache, &SerialExecutor).unwrap();
        prop_assert_eq!(a.to_dense(), dense.clone());
        prop_assert_eq!(report.moved_elements, oracle_moved(&from, &to));
        let back =
            redistribute(&mut a, from.clone(), &tracker, &opts, &cache, &SerialExecutor).unwrap();
        prop_assert_eq!(a.to_dense(), dense);
        prop_assert_eq!(back.moved_elements, report.moved_elements);
        // Second cycle: pure cache hits.
        redistribute(&mut a, to, &tracker, &opts, &cache, &SerialExecutor).unwrap();
        redistribute(&mut a, from, &tracker, &opts, &cache, &SerialExecutor).unwrap();
        prop_assert_eq!(cache.stats().misses, 2);
        prop_assert_eq!(cache.stats().hits, 2);
    }

    /// The distributed translation table agrees with the owner map for
    /// random maps, page sizes and requesters.
    #[test]
    fn prop_translation_table_matches_owner_map(
        owners in proptest::collection::vec(0usize..5, 5..120),
        page_size in 1usize..40,
    ) {
        let p = 5usize;
        let n = owners.len();
        let dist = indirect_1d(owners.clone(), p);
        let table = DistTranslationTable::with_page_size(&dist, page_size);
        let mut seen = vec![0usize; p];
        for (lin, &owner) in owners.iter().enumerate() {
            let expect = (ProcId(owner), seen[owner]);
            seen[owner] += 1;
            prop_assert_eq!(table.lookup(lin), expect);
            prop_assert_eq!(table.lookup_from(ProcId((lin * 3) % p), lin), expect);
        }
        prop_assert_eq!(table.len(), n);
        prop_assert_eq!(table.num_pages(), n.div_ceil(page_size.max(1)));
    }
}
