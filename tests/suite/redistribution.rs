//! Cross-crate tests of the redistribution engine: data preservation,
//! accounting consistency, and connect-class propagation.

use vf_core::prelude::*;
use vf_integration::{dist_1d, dist_2d, zero_machine};

fn all_1d_types(n: usize, p: usize) -> Vec<DistType> {
    vec![
        DistType::block1d(),
        DistType::cyclic1d(1),
        DistType::cyclic1d(3),
        DistType::gen_block1d({
            // A deterministic skewed partition.
            let mut sizes = vec![n / (2 * p); p];
            let assigned: usize = sizes.iter().sum();
            sizes[0] += n - assigned;
            sizes
        }),
    ]
}

/// Every ordered pair of 1-D distribution types preserves the data and the
/// tracker's byte count matches the report.
#[test]
fn all_pairs_of_1d_distribution_types_preserve_data() {
    let n = 60;
    let p = 4;
    let types = all_1d_types(n, p);
    for from in &types {
        for to in &types {
            let tracker = CommTracker::new(p, CostModel::zero());
            let mut a = DistArray::from_fn("A", dist_1d(from.clone(), n, p), |pt| {
                (pt.coord(0) * 7) as f64
            });
            let before = a.to_dense();
            let report = redistribute(
                &mut a,
                dist_1d(to.clone(), n, p),
                &tracker,
                &RedistOptions::default(),
                &PlanCache::new(),
                &SerialExecutor,
            )
            .unwrap();
            assert_eq!(a.to_dense(), before, "{from} -> {to} corrupted data");
            a.check_invariants().unwrap();
            assert_eq!(
                tracker.snapshot().total_bytes(),
                report.bytes,
                "{from} -> {to} accounting mismatch"
            );
            assert_eq!(
                report.moved_elements + report.stayed_elements,
                n,
                "{from} -> {to} lost elements"
            );
        }
    }
}

/// 2-D redistributions (the Figure 1 transpose-like case) across different
/// processor counts.
#[test]
fn two_dimensional_redistributions_preserve_data() {
    for p in [2usize, 3, 4, 6] {
        for (from, to) in [
            (DistType::columns(), DistType::rows()),
            (DistType::rows(), DistType::blocks2d()),
            (DistType::blocks2d(), DistType::columns()),
        ] {
            let tracker = CommTracker::new(p, CostModel::zero());
            let mut a = DistArray::from_fn("V", dist_2d(from.clone(), 12, 18, p), |pt| {
                (pt.coord(0) * 100 + pt.coord(1)) as f64
            });
            let before = a.to_dense();
            redistribute(
                &mut a,
                dist_2d(to.clone(), 12, 18, p),
                &tracker,
                &RedistOptions::default(),
                &PlanCache::new(),
                &SerialExecutor,
            )
            .unwrap();
            assert_eq!(a.to_dense(), before, "{from} -> {to} on {p} processors");
        }
    }
}

/// A chain of redistributions through the language layer keeps primary and
/// secondary arrays consistent, including a transposing alignment.
#[test]
fn connect_class_follows_through_a_chain_of_redistributions() {
    let n = 12usize;
    let mut scope: VfScope<f64> = VfScope::new(zero_machine(4));
    scope
        .declare_dynamic(DynamicDecl::new("B", IndexDomain::d2(n, n)).initial(DistType::columns()))
        .unwrap();
    scope
        .declare_secondary(SecondaryDecl::extraction("EXT", IndexDomain::d2(n, n), "B"))
        .unwrap();
    scope
        .declare_secondary(SecondaryDecl::aligned(
            "TRANS",
            IndexDomain::d2(n, n),
            "B",
            Alignment::transpose2d(),
        ))
        .unwrap();

    // Fill all three arrays with distinct data.
    let domain = IndexDomain::d2(n, n);
    for point in domain.iter() {
        let v = (point.coord(0) * 1000 + point.coord(1)) as f64;
        scope.array_mut("B").unwrap().set(&point, v).unwrap();
        scope.array_mut("EXT").unwrap().set(&point, -v).unwrap();
        scope
            .array_mut("TRANS")
            .unwrap()
            .set(&point, 2.0 * v)
            .unwrap();
    }

    for dist in [
        DistType::rows(),
        DistType::blocks2d(),
        DistType::new(vec![DimDist::Cyclic(2), DimDist::Block]),
        DistType::columns(),
    ] {
        scope
            .distribute(DistributeStmt::new("B", dist.clone()))
            .unwrap();
        // The extraction secondary shares B's distribution type.
        assert_eq!(scope.current_dist_type("EXT").unwrap(), dist);
        // Data of all three arrays survives every step.
        for point in domain.iter() {
            let v = (point.coord(0) * 1000 + point.coord(1)) as f64;
            assert_eq!(scope.array("B").unwrap().get(&point).unwrap(), v);
            assert_eq!(scope.array("EXT").unwrap().get(&point).unwrap(), -v);
            assert_eq!(scope.array("TRANS").unwrap().get(&point).unwrap(), 2.0 * v);
        }
        // The aligned secondary really is co-located: TRANS(i,j) lives with
        // B(j,i) on every processor.
        let b = scope.array("B").unwrap();
        let t = scope.array("TRANS").unwrap();
        for point in domain.iter() {
            let swapped = Point::d2(point.coord(1), point.coord(0));
            assert_eq!(
                t.dist().owner(&point).unwrap(),
                b.dist().owner(&swapped).unwrap(),
                "alignment violated at {point} under {dist}"
            );
        }
    }
}

/// NOTRANSFER redistributes the descriptor but not the data, and only for
/// the named secondary.
#[test]
fn notransfer_applies_only_to_named_secondaries() {
    let mut scope: VfScope<f64> = VfScope::new(zero_machine(4));
    scope
        .declare_dynamic(DynamicDecl::new("B", IndexDomain::d1(16)).initial(DistType::block1d()))
        .unwrap();
    scope
        .declare_secondary(SecondaryDecl::extraction("KEEP", IndexDomain::d1(16), "B"))
        .unwrap();
    scope
        .declare_secondary(SecondaryDecl::extraction("SKIP", IndexDomain::d1(16), "B"))
        .unwrap();
    for i in 1..=16i64 {
        for name in ["B", "KEEP", "SKIP"] {
            scope
                .array_mut(name)
                .unwrap()
                .set(&Point::d1(i), i as f64)
                .unwrap();
        }
    }
    let report = scope
        .distribute(DistributeStmt::new("B", DistType::cyclic1d(1)).notransfer(["SKIP"]))
        .unwrap();
    // B and KEEP moved data; SKIP did not.
    let moved: Vec<(&str, usize)> = report
        .per_array
        .iter()
        .map(|(n, r)| (n.as_str(), r.moved_elements))
        .collect();
    assert!(moved.iter().any(|&(n, m)| n == "B" && m > 0));
    assert!(moved.iter().any(|&(n, m)| n == "KEEP" && m > 0));
    assert!(moved.iter().any(|&(n, m)| n == "SKIP" && m == 0));
    // KEEP's data is intact, SKIP's is not guaranteed (defaults).
    assert_eq!(
        scope.array("KEEP").unwrap().get(&Point::d1(5)).unwrap(),
        5.0
    );
    assert_eq!(
        scope.current_dist_type("SKIP").unwrap(),
        DistType::cyclic1d(1)
    );
}

/// The element-wise ablation charges the same bytes but many more messages,
/// and therefore more modelled time on a latency-bound machine.
#[test]
fn aggregation_ablation_shows_latency_savings() {
    let n = 2048;
    let p = 8;
    let run_opts = |opts: RedistOptions| {
        let tracker = CommTracker::new(p, CostModel::latency_bound());
        let mut a = DistArray::from_fn("A", dist_1d(DistType::block1d(), n, p), |pt| {
            pt.coord(0) as f64
        });
        let report = redistribute(
            &mut a,
            dist_1d(DistType::cyclic1d(1), n, p),
            &tracker,
            &opts,
            &PlanCache::new(),
            &SerialExecutor,
        )
        .unwrap();
        (report, tracker.snapshot().critical_time())
    };
    let (agg_report, agg_time) = run_opts(RedistOptions::default());
    let (elem_report, elem_time) = run_opts(RedistOptions::element_wise());
    assert_eq!(agg_report.bytes, elem_report.bytes);
    assert!(elem_report.messages > 10 * agg_report.messages);
    assert!(elem_time > 10.0 * agg_time);
}
