//! Differential tests for the persistent SPMD worker pool and the wire
//! engine: pooled dispatch must be **bitwise indistinguishable** from
//! serial execution across every communication path (values, reports and
//! tracker snapshots), the class verbs (wire engine) must match one array
//! verb per member exactly (identical buffers, bytes conserved, one
//! message per pair), one pool must be reused across repeated `DISTRIBUTE`
//! statements, and a panicking worker must leave the pool usable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use vf_core::prelude::*;
use vf_integration::{
    assert_regions_equal, class_halo, class_halo_split, dist_1d, dist_2d, zero_machine,
};
use vf_runtime::assign::assign;
use vf_runtime::ghost::{exchange_class_ghosts, exchange_ghosts};
use vf_runtime::parti::{execute_gather, execute_scatter, inspector};
use vf_runtime::plan::plan_redistribute;

/// The two backends every path is run under: the serial baseline and the
/// pooled threaded backend, forced onto the parallel path (cutoff 0) with
/// more workers than this host may have cores.
fn executors() -> (ExecBackend, ExecBackend, Arc<WorkerPool>) {
    let pool = Arc::new(WorkerPool::new(3));
    let pooled = ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0);
    (ExecBackend::Serial, ExecBackend::Threaded(pooled), pool)
}

fn tracker(p: usize) -> CommTracker {
    CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.25))
}

#[test]
fn pooled_spawn_serial_identical_for_redistribute() {
    let n = 256usize;
    let p = 4usize;
    let (serial, pooled, pool) = executors();
    let from = dist_1d(DistType::cyclic1d(3), n, p);
    let to = dist_1d(DistType::gen_block1d(vec![13, 101, 80, 62]), n, p);
    let run = |exec: &ExecBackend| {
        let mut a = DistArray::from_fn("A", from.clone(), |pt| (pt.coord(0) as f64).sin());
        let t = tracker(p);
        let (opts, cache) = (RedistOptions::default(), PlanCache::new());
        let report = redistribute(&mut a, to.clone(), &t, &opts, &cache, exec).unwrap();
        (a.to_dense(), report, t.snapshot())
    };
    assert_eq!(run(&serial), run(&pooled), "pooled differs from serial");
    assert!(pool.jobs_dispatched() > 0, "the pooled run used the pool");
}

#[test]
fn pooled_spawn_serial_identical_for_ghost_exchange() {
    let n = 16usize;
    let p = 4usize;
    let (serial, pooled, _pool) = executors();
    let dist = dist_2d(DistType::blocks2d(), n, n, p);
    let a = DistArray::from_fn("U", dist, |pt| (pt.coord(0) * 100 + pt.coord(1)) as f64);
    let run = |exec: &ExecBackend| {
        let t = tracker(p);
        let (g, rep) = exchange_ghosts(
            &a,
            &PlanCache::new()
                .ghost_plan(a.dist(), &[(1, 1), (1, 1)])
                .unwrap(),
            &t,
            exec,
        )
        .unwrap();
        // Every processor's view of every ghost point.
        let mut values = Vec::new();
        for proc in a.dist().proc_ids() {
            values.extend(a.domain().iter().map(|point| g.get(*proc, &point)));
        }
        (values, rep, t.snapshot())
    };
    assert_eq!(run(&serial), run(&pooled), "pooled ghost exchange differs");
}

#[test]
fn pooled_spawn_serial_identical_for_gather_and_assign() {
    let n = 128usize;
    let p = 4usize;
    let (serial, pooled, _pool) = executors();
    let dist = dist_1d(DistType::cyclic1d(1), n, p);
    let a = DistArray::from_fn("X", dist.clone(), |pt| pt.coord(0) as f64 * 0.5);
    // Every processor reads a strided window of remote elements.
    let accesses: Vec<(ProcId, Point)> = (0..n)
        .map(|i| (ProcId((i * 7) % p), Point::d1((i % n) as i64 + 1)))
        .collect();
    let schedule = inspector(a.dist(), &accesses, &PlanCache::new()).unwrap();
    let gather_under = |exec: &ExecBackend| {
        let t = tracker(p);
        let g = execute_gather(&a, &schedule, &t, exec).unwrap();
        let vals: Vec<_> = accesses
            .iter()
            .map(|(q, pt)| g.get(*q, a.dist(), pt))
            .collect();
        (vals, t.snapshot())
    };
    assert_eq!(
        gather_under(&serial),
        gather_under(&pooled),
        "pooled gather differs"
    );

    // Assignment between different layouts.
    let rows = dist_2d(DistType::rows(), 32, 32, p);
    let cols = dist_2d(DistType::columns(), 32, 32, p);
    let src = DistArray::from_fn("S", cols, |pt| (pt.coord(0) * 31 + pt.coord(1)) as f64);
    let assign_under = |exec: &ExecBackend| {
        let mut dst: DistArray<f64> = DistArray::new("D", rows.clone());
        let t = tracker(p);
        let rep = assign(&mut dst, &src, &t, &PlanCache::new(), exec).unwrap();
        (dst.to_dense(), rep, t.snapshot())
    };
    assert_eq!(
        assign_under(&serial),
        assign_under(&pooled),
        "pooled assign differs"
    );
}

#[test]
fn pooled_scatter_matches_serial_with_order_sensitive_combine() {
    let n = 96usize;
    let p = 4usize;
    let (_, pooled, _pool) = executors();
    let dist = dist_1d(DistType::cyclic1d(2), n, p);
    let combine = |a: f64, b: f64| a * 0.5 + b; // neither commutative nor associative
    let updates: Vec<(ProcId, Point, f64)> = (0..3 * n)
        .map(|k| {
            (
                ProcId(k % p),
                Point::d1((k % n) as i64 + 1),
                (k as f64).cos(),
            )
        })
        .collect();
    let mut serial_arr = DistArray::from_fn("S", dist.clone(), |pt| pt.coord(0) as f64);
    let t1 = tracker(p);
    let m1 = execute_scatter(
        &mut serial_arr,
        &updates,
        &t1,
        &PlanCache::new(),
        &SerialExecutor,
        combine,
    )
    .unwrap();
    let mut pooled_arr = DistArray::from_fn("S", dist, |pt| pt.coord(0) as f64);
    let t2 = tracker(p);
    let m2 = execute_scatter(
        &mut pooled_arr,
        &updates,
        &t2,
        &PlanCache::new(),
        &pooled,
        combine,
    )
    .unwrap();
    assert_eq!(m1, m2);
    assert_eq!(serial_arr.to_dense(), pooled_arr.to_dense());
    assert_eq!(t1.snapshot(), t2.snapshot());
}

#[test]
fn wire_packed_fused_ghost_matches_per_part_with_identical_traffic() {
    let n = 12usize;
    let p = 4usize;
    let (serial, pooled, _pool) = executors();
    let dist = dist_2d(DistType::blocks2d(), n, n, p);
    let a = DistArray::from_fn("A", dist.clone(), |pt| {
        (pt.coord(0) * 17 + pt.coord(1)) as f64
    });
    let b = DistArray::from_fn("B", dist.clone(), |pt| -(pt.coord(1) as f64) * 3.0);
    let c = DistArray::from_fn("C", dist.clone(), |pt| (pt.coord(0) + pt.coord(1)) as f64);
    let widths = [(1, 1), (1, 1)];
    let cache = PlanCache::new();
    let plan = cache.ghost_plan(&dist, &widths).unwrap();
    let fused = FusedPlan::fuse(vec![
        Arc::clone(&plan),
        Arc::clone(&plan),
        Arc::clone(&plan),
    ])
    .unwrap();
    let arrays = [&a, &b, &c];

    // The reference: one array verb (a class of one) per member.
    let t_parts = tracker(p);
    let (per_part, part_reports): (Vec<_>, Vec<_>) = arrays
        .iter()
        .map(|array| exchange_ghosts(array, &plan, &t_parts, &serial).unwrap())
        .unzip();
    for (name, executor) in [("serial", &serial), ("pooled", &pooled)] {
        let t_wire = tracker(p);
        let (wire, exec_wire) = exchange_class_ghosts(&arrays, &fused, &t_wire, executor).unwrap();
        // Exactly one message per communicating pair for the whole class,
        // bytes conserved over the members.
        assert_eq!(exec_wire.messages, fused.num_messages(), "{name}");
        assert_eq!(exec_wire.messages, part_reports[0].messages, "{name}");
        assert_eq!(exec_wire.bytes, fused.bytes_for(8), "{name}");
        assert_eq!(
            exec_wire.bytes,
            part_reports.iter().map(|r| r.bytes).sum::<usize>(),
            "{name}"
        );
        let (alone, class) = (t_parts.snapshot(), t_wire.snapshot());
        assert_eq!(class.total_messages(), exec_wire.messages, "{name}");
        assert_eq!(class.total_bytes(), alone.total_bytes(), "{name}");
        assert_eq!(alone.total_messages(), 3 * class.total_messages(), "{name}");
        // Region values are the per-array execution bitwise.
        assert_regions_equal(&arrays, &per_part, &wire, name);
    }
}

#[test]
fn wire_packed_fused_redistribute_matches_per_part() {
    let n = 64usize;
    let p = 4usize;
    let (serial, pooled, _pool) = executors();
    let from = dist_1d(DistType::block1d(), n, p);
    let to = dist_1d(DistType::cyclic1d(1), n, p);
    let plan = Arc::new(plan_redistribute(&from, &to).unwrap());
    let fused = FusedPlan::fuse(vec![Arc::clone(&plan), Arc::clone(&plan)]).unwrap();
    let build = || {
        (
            DistArray::from_fn("A", from.clone(), |pt| pt.coord(0) as f64),
            DistArray::from_fn("B", from.clone(), |pt| (pt.coord(0) as f64).powi(2)),
        )
    };
    // The reference: one array verb (a class of one) per member.
    let (mut a1, mut b1) = build();
    let t1 = tracker(p);
    let r1 =
        [&mut a1, &mut b1].map(|member| execute_redistribute(member, &plan, &t1, &serial).unwrap());
    for (name, executor) in [("serial", &serial), ("pooled", &pooled)] {
        let (mut a2, mut b2) = build();
        let t2 = tracker(p);
        let (r2, e2) = execute_class_redistribute(
            &mut [&mut a2, &mut b2],
            &fused,
            &t2,
            executor,
            &mut RetiredLocals::default(),
        )
        .unwrap();
        assert_eq!(a1.to_dense(), a2.to_dense(), "{name}");
        assert_eq!(b1.to_dense(), b2.to_dense(), "{name}");
        assert_eq!(r1.as_slice(), r2.as_slice(), "{name}");
        assert_eq!(e2.messages, fused.num_messages(), "{name}");
        assert_eq!(
            e2.bytes,
            r1.iter().map(|r| r.bytes).sum::<usize>(),
            "{name}"
        );
        let (alone, class) = (t1.snapshot(), t2.snapshot());
        assert_eq!(class.total_bytes(), alone.total_bytes(), "{name}");
        assert_eq!(alone.total_messages(), 2 * class.total_messages(), "{name}");
    }
}

#[test]
fn scope_reuses_one_pool_across_repeated_distributes() {
    let p = 4usize;
    let pool = Arc::new(WorkerPool::new(3));
    let mut scope: VfScope<f64> = VfScope::new(zero_machine(p));
    scope.set_executor(ExecBackend::Threaded(
        ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0),
    ));
    let held = Arc::clone(scope.worker_pool().expect("threaded backend has a pool"));
    assert!(
        Arc::ptr_eq(&held, &pool),
        "the scope holds the pool it was given"
    );

    scope
        .declare_dynamic(DynamicDecl::new("B", IndexDomain::d1(64)).initial(DistType::block1d()))
        .unwrap();
    scope
        .declare_secondary(SecondaryDecl::extraction("A", IndexDomain::d1(64), "B"))
        .unwrap();
    for i in 1..=64i64 {
        scope
            .array_mut("B")
            .unwrap()
            .set(&Point::d1(i), i as f64)
            .unwrap();
        scope
            .array_mut("A")
            .unwrap()
            .set(&Point::d1(i), -(i as f64))
            .unwrap();
    }
    let mut dispatched = pool.jobs_dispatched();
    for (round, t) in [
        DistType::cyclic1d(1),
        DistType::block1d(),
        DistType::cyclic1d(2),
    ]
    .into_iter()
    .enumerate()
    {
        scope.distribute(DistributeStmt::new("B", t)).unwrap();
        let now = pool.jobs_dispatched();
        assert!(
            now > dispatched,
            "round {round}: DISTRIBUTE did not dispatch to the persistent pool"
        );
        dispatched = now;
        // Same pool instance throughout — no respawn between statements.
        assert!(Arc::ptr_eq(
            scope.worker_pool().expect("still threaded"),
            &pool
        ));
    }
    // Values survived every pooled round trip.
    for i in 1..=64i64 {
        assert_eq!(
            scope.array("B").unwrap().get(&Point::d1(i)).unwrap(),
            i as f64
        );
        assert_eq!(
            scope.array("A").unwrap().get(&Point::d1(i)).unwrap(),
            -(i as f64)
        );
    }
}

#[test]
fn worker_panic_leaves_the_pool_usable_for_executors() {
    let p = 4usize;
    let pool = Arc::new(WorkerPool::new(2));
    // Inject a panic into one pool worker's job.
    let boom = catch_unwind(AssertUnwindSafe(|| {
        pool.run_limited(2, &|rank| assert!(rank != 1, "injected worker failure"));
    }));
    assert!(
        boom.is_err(),
        "the worker panic propagates to the submitter"
    );

    // The same pool then executes a real plan correctly.
    let pooled = ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0);
    let from = dist_1d(DistType::block1d(), 64, p);
    let to = dist_1d(DistType::cyclic1d(1), 64, p);
    let mut a = DistArray::from_fn("A", from, |pt| pt.coord(0) as f64);
    let expect = a.to_dense();
    let tr = tracker(p);
    redistribute(
        &mut a,
        to,
        &tr,
        &RedistOptions::default(),
        &PlanCache::new(),
        &pooled,
    )
    .unwrap();
    assert_eq!(a.to_dense(), expect, "data intact after the poisoned job");
}

#[test]
fn worker_panic_leaves_the_pool_usable_for_streaming_split_phase() {
    // Panic containment extended to the streaming unpack path: after a
    // poisoned job, the same pool must still stream a split-phase ghost
    // exchange to completion — bitwise equal to the blocking wire path,
    // with no array left partially unpacked and identical tracker charges.
    let n = 16usize;
    let p = 4usize;
    let pool = Arc::new(WorkerPool::new(3));
    let boom = catch_unwind(AssertUnwindSafe(|| {
        pool.run_limited(3, &|rank| assert!(rank != 2, "injected worker failure"));
    }));
    assert!(
        boom.is_err(),
        "the worker panic propagates to the submitter"
    );

    let dist = dist_2d(DistType::blocks2d(), n, n, p);
    let arrays: Vec<DistArray<f64>> = (0..2)
        .map(|k| {
            DistArray::from_fn("P", dist.clone(), |pt| {
                (pt.coord(0) * 100 + pt.coord(1)) as f64 * (k + 1) as f64
            })
        })
        .collect();
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let widths = [(1, 1), (1, 1)];

    let t_block = tracker(p);
    let (blocking, _) =
        class_halo(&refs, &widths, &t_block, &PlanCache::new(), &SerialExecutor).unwrap();

    let backend =
        ExecBackend::Threaded(ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0));
    let t_split = tracker(p);
    let split = class_halo_split(&refs, &widths, &t_split, &PlanCache::new(), &backend).unwrap();
    assert!(split.is_streaming(), "the poisoned pool still streams");
    let (regions, _) = split.wait().unwrap();
    assert_regions_equal(&arrays, &regions, &blocking, "after the poisoned job");
    assert_eq!(t_split.snapshot().per_proc(), t_block.snapshot().per_proc());
}

#[test]
fn zero_width_halo_posts_no_messages_through_the_wire_path() {
    let p = 4usize;
    let (_, pooled, _pool) = executors();
    let dist = dist_2d(DistType::columns(), 8, 8, p);
    let a = DistArray::from_fn("Z", dist.clone(), |pt| pt.coord(0) as f64);
    let cache = PlanCache::new();
    let plan = cache.ghost_plan(&dist, &[(0, 0), (0, 0)]).unwrap();
    let fused = FusedPlan::fuse(vec![Arc::clone(&plan), plan]).unwrap();
    let t = tracker(p);
    let (regions, exec) = exchange_class_ghosts(&[&a, &a], &fused, &t, &pooled).unwrap();
    assert_eq!(exec.messages, 0);
    assert_eq!(exec.bytes, 0);
    assert_eq!(
        t.snapshot().total_messages(),
        0,
        "no zero-byte messages posted"
    );
    for r in &regions {
        for proc in a.dist().proc_ids() {
            assert_eq!(r.len(*proc), 0);
        }
    }
}
