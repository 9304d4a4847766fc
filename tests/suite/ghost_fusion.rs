//! Property suite for the fused ghost exchange: a connect class of stencil
//! arrays exchanges all halos in **one message per communicating processor
//! pair**, conserving values and byte totals exactly against per-array
//! exchange, across execution backends, and through the plan cache.

use std::sync::Arc;
use vf_core::prelude::*;
use vf_integration::{assert_regions_equal, class_halo, forced_threaded, grid_array, zero_machine};
use vf_runtime::ghost::{exchange_class_ghosts, exchange_ghosts};
use vf_runtime::plan::{plan_ghost, plan_ghost_irregular};
use vf_runtime::{RuntimeError, SerialExecutor};

const WIDTHS: [(usize, usize); 2] = [(1, 1), (1, 1)];

/// The set of communicating (owner, reader) pairs of a ghost plan.
fn crossing_pairs(plan: &CommPlan) -> std::collections::BTreeSet<(usize, usize)> {
    plan.transfers()
        .iter()
        .filter(|t| t.src != t.dst && t.elements > 0)
        .map(|t| (t.src.0, t.dst.0))
        .collect()
}

#[test]
fn fused_ghost_equals_per_array_ghost_bitwise_and_conserves_traffic() {
    let n = 8usize;
    let p = 4usize;
    for t in [DistType::columns(), DistType::blocks2d()] {
        let arrays: Vec<DistArray<f64>> = (0..3)
            .map(|k| grid_array("A", t.clone(), n, p, (k + 1) as f64 * 0.5))
            .collect();
        let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
        let cache = PlanCache::new();
        let machine = zero_machine(p);
        let t_fused = machine.tracker();
        let (regions, exec) =
            class_halo(&refs, &WIDTHS, &t_fused, &cache, &SerialExecutor).unwrap();

        // Exactly one message per communicating processor pair, regardless
        // of class size.
        let pairs = crossing_pairs(&plan_ghost(arrays[0].dist(), &WIDTHS).unwrap());
        assert_eq!(exec.messages, pairs.len(), "{t}");
        assert!(exec.messages <= p * (p - 1));

        // Per-array exchange: same values bitwise, k× the messages, the
        // same byte total.
        let t_single = machine.tracker();
        let mut single_messages = 0usize;
        let mut single_bytes = 0usize;
        for (k, array) in arrays.iter().enumerate() {
            let (ghosts, report) = exchange_ghosts(
                array,
                &PlanCache::new().ghost_plan(array.dist(), &WIDTHS).unwrap(),
                &t_single,
                &SerialExecutor,
            )
            .unwrap();
            single_messages += report.messages;
            single_bytes += report.bytes;
            for proc in array.dist().proc_ids() {
                for point in array.domain().iter() {
                    assert_eq!(
                        regions[k].get(*proc, &point),
                        ghosts.get(*proc, &point),
                        "{t} array {k} at {point:?} on {proc:?}"
                    );
                }
            }
        }
        assert_eq!(single_messages, 3 * exec.messages);
        assert_eq!(single_bytes, exec.bytes);
        // The trackers agree on bytes and disagree on messages by exactly
        // the fusion factor.
        assert_eq!(
            t_fused.snapshot().total_bytes(),
            t_single.snapshot().total_bytes()
        );
        assert_eq!(
            3 * t_fused.snapshot().total_messages(),
            t_single.snapshot().total_messages()
        );
    }
}

#[test]
fn threaded_equals_serial_on_fused_ghost_plans() {
    let n = 16usize;
    let p = 4usize;
    let arrays: Vec<DistArray<f64>> = (0..4)
        .map(|k| grid_array("B", DistType::blocks2d(), n, p, (k as f64 + 1.0) * 1.25))
        .collect();
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let machine = Machine::new(p, CostModel::from_alpha_beta(1.0, 0.25));
    let cache = PlanCache::new();
    let t_serial = machine.tracker();
    let (serial, rs) = class_halo(&refs, &WIDTHS, &t_serial, &cache, &SerialExecutor).unwrap();
    for workers in [2, 3, 5] {
        let forced = forced_threaded(workers);
        let t_thr = machine.tracker();
        let (threaded, rt) = class_halo(&refs, &WIDTHS, &t_thr, &cache, &forced).unwrap();
        assert_eq!(rs, rt, "{workers} workers");
        assert_eq!(t_serial.snapshot(), t_thr.snapshot(), "{workers} workers");
        assert_regions_equal(&arrays, &serial, &threaded, &format!("{workers} workers"));
    }
}

#[test]
fn cached_fused_plans_equal_fresh_ones_and_invalidate_by_fingerprint() {
    let n = 8usize;
    let p = 4usize;
    let a = grid_array("C", DistType::blocks2d(), n, p, 1.0);
    let b = grid_array("C", DistType::blocks2d(), n, p, -2.0);
    let machine = zero_machine(p);

    // Cached: the class hits one plan (both arrays share the
    // distribution), so the second exchange plans nothing.
    let cache = PlanCache::new();
    let t_cached = machine.tracker();
    let (g1, e1) = class_halo(&[&a, &b], &WIDTHS, &t_cached, &cache, &SerialExecutor).unwrap();
    assert_eq!(cache.stats().misses, 1);
    let (g2, e2) = class_halo(&[&a, &b], &WIDTHS, &t_cached, &cache, &SerialExecutor).unwrap();
    assert_eq!(cache.stats().misses, 1);
    assert!(cache.stats().hits >= 3, "replay served from the cache");
    assert_eq!(e1, e2);

    // Fresh: identical values and identical charges.
    let fresh = FusedPlan::fuse(vec![
        Arc::new(plan_ghost(a.dist(), &WIDTHS).unwrap()),
        Arc::new(plan_ghost(b.dist(), &WIDTHS).unwrap()),
    ])
    .unwrap();
    let t_fresh = machine.tracker();
    let (g3, e3) = exchange_class_ghosts(&[&a, &b], &fresh, &t_fresh, &SerialExecutor).unwrap();
    assert_eq!(e3, e1);
    assert_regions_equal(&[&a, &b], &g1, &g2, "cache hit");
    assert_regions_equal(&[&a, &b], &g1, &g3, "fresh plan");

    // Invalidation: once the arrays are redistributed, the held fused plan
    // no longer matches their fingerprint and is rejected before charging.
    let mut moved = a.clone();
    let columns = Distribution::new(
        DistType::columns(),
        IndexDomain::d2(n, n),
        ProcessorView::linear(p),
    )
    .unwrap();
    let tracker = machine.tracker();
    redistribute(
        &mut moved,
        columns,
        &tracker,
        &RedistOptions::default(),
        &PlanCache::new(),
        &SerialExecutor,
    )
    .unwrap();
    tracker.take();
    assert!(matches!(
        exchange_class_ghosts(&[&moved, &b], &fresh, &tracker, &SerialExecutor),
        Err(RuntimeError::PlanMismatch { .. })
    ));
    assert_eq!(tracker.snapshot().total_messages(), 0);
}

#[test]
fn scope_class_halo_exchange_is_fused_at_the_language_level() {
    // Acceptance guard at the language layer: a DYNAMIC primary with two
    // connected secondaries exchanges the class's halos in one message per
    // communicating pair.
    let p = 4usize;
    let n = 8usize;
    let mut s: VfScope<f64> = VfScope::new(zero_machine(p));
    s.declare_dynamic(DynamicDecl::new("U", IndexDomain::d2(n, n)).initial(DistType::blocks2d()))
        .unwrap();
    s.declare_secondary(SecondaryDecl::extraction("F", IndexDomain::d2(n, n), "U"))
        .unwrap();
    s.declare_secondary(SecondaryDecl::extraction("G", IndexDomain::d2(n, n), "U"))
        .unwrap();
    for name in ["U", "F", "G"] {
        for point in IndexDomain::d2(n, n).iter() {
            let v = (point.coord(0) * 10 + point.coord(1)) as f64;
            s.array_mut(name).unwrap().set(&point, v).unwrap();
        }
    }
    s.take_stats();
    let (regions, exec) = s.exchange_class_ghosts("U", &WIDTHS).unwrap();
    assert_eq!(regions.len(), 3);
    let single = plan_ghost(s.array("U").unwrap().dist(), &WIDTHS).unwrap();
    assert_eq!(exec.messages, crossing_pairs(&single).len());
    assert_eq!(exec.bytes, 3 * single.bytes_for(8));
    assert_eq!(s.stats().total_messages(), exec.messages);
    // Ghost reads resolve through every member's own slot index.
    let u = s.array("U").unwrap();
    for proc in u.dist().proc_ids() {
        for point in u.domain().iter() {
            if u.dist().is_local(*proc, &point) {
                continue;
            }
            let expect = (point.coord(0) * 10 + point.coord(1)) as f64;
            for (k, (_, region)) in regions.iter().enumerate() {
                if let Some(got) = region.get(*proc, &point) {
                    assert_eq!(got, expect, "member {k} at {point:?}");
                }
            }
        }
    }
}

#[test]
fn plan_cache_byte_budget_holds_under_mixed_regular_and_irregular_ghosts() {
    let p = 4usize;
    // A regular 2-D halo plan (hot) plus two irregular halo plans over
    // indirect maps (one cold, one new), each with its translation table:
    // eviction must stay within the byte budget and claim the coldest
    // entry, never the hot one.
    let regular = Distribution::new(
        DistType::blocks2d(),
        IndexDomain::d2(12, 12),
        ProcessorView::linear(p),
    )
    .unwrap();
    let indirect = |seed: usize| {
        Distribution::new(
            DistType::indirect1d(Arc::new(
                IndirectMap::from_fn(144, |i| (i * 7 + seed) % p).unwrap(),
            )),
            IndexDomain::d1(144),
            ProcessorView::linear(p),
        )
        .unwrap()
    };
    let ind_a = indirect(1);
    let ind_b = indirect(2);
    let conn = Connectivity::chain(144, 1, 1).unwrap();

    let size_hot = plan_ghost(&regular, &WIDTHS).unwrap().estimated_bytes();
    let size_cold = plan_ghost_irregular(&ind_a, &conn)
        .unwrap()
        .estimated_bytes();
    let size_new = plan_ghost_irregular(&ind_b, &conn)
        .unwrap()
        .estimated_bytes();
    // Each indirect map's translation table is a store entry too.
    let table_a = table_for(&ind_a).estimated_bytes();
    let table_b = table_for(&ind_b).estimated_bytes();
    let budget = size_hot + table_a + size_cold + table_b + size_new - 1;
    let cache = PlanCache::with_budget_bytes(budget);

    cache.ghost_plan(&regular, &WIDTHS).unwrap(); // hot
    assert!(cache.stats().resident_bytes <= budget);
    cache.ghost_irregular_plan(&ind_a, &conn).unwrap(); // cold
    assert!(cache.stats().resident_bytes <= budget);
    cache.ghost_plan(&regular, &WIDTHS).unwrap(); // touch hot
    let hits_before = cache.stats().hits;
    assert_eq!(hits_before, 1);

    // The new irregular plan overflows the budget by one byte: exactly one
    // LRU eviction, and it must take the coldest entry — the cold map's
    // translation table, stored before the plan built from it.
    cache.ghost_irregular_plan(&ind_b, &conn).unwrap();
    let stats = cache.stats();
    assert_eq!(stats.entries, 4);
    assert!(stats.resident_bytes <= budget);
    assert_eq!(
        stats.resident_bytes,
        size_hot + size_cold + table_b + size_new
    );

    // Hit-rate survives: both halo plans are still served from the cache.
    cache.ghost_plan(&regular, &WIDTHS).unwrap();
    cache.ghost_irregular_plan(&ind_a, &conn).unwrap();
    assert_eq!(cache.stats().hits, hits_before + 2);
    assert_eq!(cache.stats().misses, 3, "only the table was evicted");
}
