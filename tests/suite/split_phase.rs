//! Property suite for split-phase wire execution: posting a fused ghost
//! exchange or a redistribution and completing it later must be **bitwise
//! identical** to the blocking wire path — same ghost values, same new
//! locals, same per-processor tracker charges, same credited overlap — on
//! every executor a split verb takes, raw and behind `ExecBackend`: Serial
//! and Sharded deliver at the post without touching a channel, and a
//! pooled executor with cutoff 0 streams as one job.  Only the *measured* wall-clock overlap is allowed to differ: zero on
//! every blocking/inline path, positive when background workers really
//! unpacked while the caller computed.

use std::sync::Arc;
use vf_core::prelude::*;
use vf_integration::{
    assert_regions_equal, class_halo, class_halo_split, grid_array, streaming_backend, zero_machine,
};

const WIDTHS: [(usize, usize); 2] = [(1, 1), (1, 1)];

fn assert_charges_equal(a: &CommStats, b: &CommStats, ctx: &str) {
    assert_eq!(a.per_proc(), b.per_proc(), "{ctx}: per-proc charges");
    assert!(
        (a.credited_overlap_seconds() - b.credited_overlap_seconds()).abs() < 1e-12,
        "{ctx}: credited overlap"
    );
}

/// Runs `$check(executor, pool, label)` on every executor a split verb
/// takes — each raw executor and the `ExecBackend` wrappers — where `pool`
/// is the pool the split must stream on as exactly one job, or `None`
/// where it delivers at the post.
macro_rules! on_every_executor {
    ($check:ident) => {{
        let pool = Arc::new(WorkerPool::new(3));
        let threaded = || ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0);
        $check(&SerialExecutor, None, "SerialExecutor");
        $check(&threaded(), Some(&*pool), "ThreadedExecutor, cutoff 0");
        $check(&ShardedExecutor::new(), None, "ShardedExecutor");
        $check(&ExecBackend::Serial, None, "ExecBackend::Serial");
        $check(
            &streaming_backend(&pool),
            Some(&*pool),
            "ExecBackend::Threaded, cutoff 0",
        );
    }};
}

/// Holds a split statement's handle and tracker to where it should have
/// delivered: streamed on `pool` as one job since `jobs_before`, or at the
/// post with no measured overlap.  Either way no channel carried it.
fn assert_delivered_where_asked(
    streaming: bool,
    pool: Option<&WorkerPool>,
    jobs_before: u64,
    stats: &CommStats,
    label: &str,
) {
    assert_eq!(streaming, pool.is_some(), "{label}: streaming");
    if let Some(pool) = pool {
        assert_eq!(pool.jobs_dispatched() - jobs_before, 1, "{label}: jobs");
    } else {
        assert_eq!(stats.measured_overlap_seconds(), 0.0, "{label}: inline");
    }
    let channels = (stats.channel_messages(), stats.channel_bytes());
    assert_eq!(channels, (0, 0), "{label}: channel traffic");
}

fn jobs_of(pool: Option<&WorkerPool>) -> u64 {
    pool.map_or(0, WorkerPool::jobs_dispatched)
}

fn split_ghosts_on<E: PlanExecutor>(executor: &E, pool: Option<&WorkerPool>, label: &str) {
    let n = 8usize;
    let p = 4usize;
    for t in [DistType::columns(), DistType::blocks2d()] {
        let ctx = format!("{t} {label}");
        let arrays: Vec<DistArray<f64>> = (0..3)
            .map(|k| grid_array("A", t.clone(), n, p, (k + 1) as f64 * 0.5))
            .collect();
        let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
        let machine = zero_machine(p);

        // Blocking reference: the fused wire path.
        let cache_b = PlanCache::new();
        let t_block = machine.tracker();
        let (blocking, exec) =
            class_halo(&refs, &WIDTHS, &t_block, &cache_b, &SerialExecutor).unwrap();
        assert_eq!(t_block.snapshot().measured_overlap_seconds(), 0.0);

        let cache = PlanCache::new();
        let t_split = machine.tracker();
        let jobs_before = jobs_of(pool);
        let split = class_halo_split(&refs, &WIDTHS, &t_split, &cache, executor).unwrap();
        let streaming = split.is_streaming();
        assert_eq!(split.messages(), exec.messages, "{ctx}");
        assert_eq!(split.bytes(), exec.bytes, "{ctx}");
        let (regions, report) = split.wait().unwrap();
        assert_eq!(report.messages, exec.messages, "{ctx}");
        assert_eq!(report.bytes, exec.bytes, "{ctx}");
        assert_regions_equal(&arrays, &regions, &blocking, &ctx);
        let stats = t_split.snapshot();
        assert_charges_equal(&t_block.snapshot(), &stats, &ctx);
        assert_delivered_where_asked(streaming, pool, jobs_before, &stats, &ctx);
    }
}

#[test]
fn split_fused_ghost_equals_blocking_wire_bitwise() {
    on_every_executor!(split_ghosts_on);
}

fn split_redistribute_on<E: PlanExecutor>(executor: &E, pool: Option<&WorkerPool>, label: &str) {
    let n = 12usize;
    let p = 4usize;
    let original = grid_array("R", DistType::blocks2d(), n, p, 1.25);
    let columns = || {
        Distribution::new(
            DistType::columns(),
            IndexDomain::d2(n, n),
            ProcessorView::linear(p),
        )
        .unwrap()
    };
    let machine = zero_machine(p);

    // Blocking reference.
    let mut blocking = original.clone();
    let cache_b = PlanCache::new();
    let t_block = machine.tracker();
    let ref_report = redistribute(
        &mut blocking,
        columns(),
        &t_block,
        &RedistOptions::default(),
        &cache_b,
        &SerialExecutor,
    )
    .unwrap();

    let mut array = original.clone();
    let cache = PlanCache::new();
    let t_split = machine.tracker();
    let jobs_before = jobs_of(pool);
    let split = redistribute_split(&array, columns(), &t_split, &cache, executor).unwrap();
    let streaming = split.is_streaming();
    assert_eq!(split.new_dist(), blocking.dist(), "{label}");
    let (report, split_report) = split.finish_into(&mut array).unwrap();
    assert_eq!(report.moved_elements, ref_report.moved_elements, "{label}");
    assert_eq!(
        report.stayed_elements, ref_report.stayed_elements,
        "{label}"
    );
    assert_eq!(report.messages, ref_report.messages, "{label}");
    assert_eq!(report.bytes, ref_report.bytes, "{label}");
    assert_eq!(split_report.messages, ref_report.messages, "{label}");
    assert_eq!(split_report.bytes, ref_report.bytes, "{label}");
    assert_eq!(array.dist(), blocking.dist(), "{label}");
    let bits = |a: &DistArray<f64>| a.to_dense().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&array), bits(&blocking), "{label}");
    let stats = t_split.snapshot();
    assert_charges_equal(&t_block.snapshot(), &stats, label);
    assert_delivered_where_asked(streaming, pool, jobs_before, &stats, label);
}

#[test]
fn split_redistribute_equals_blocking_bitwise() {
    on_every_executor!(split_redistribute_on);
}

/// The ADI pattern: while the redistribution is in flight, each
/// destination processor's new buffer is handed out as soon as its pairs
/// have landed — `with_dest_mut` waits for them itself — and mutated in
/// place; the mutations must land in the installed array.
fn pipelined_mutation_on<E: PlanExecutor>(executor: &E, _: Option<&WorkerPool>, label: &str) {
    let n = 8usize;
    let p = 4usize;
    let original = grid_array("P", DistType::columns(), n, p, 2.0);
    let rows = Distribution::new(
        DistType::rows(),
        IndexDomain::d2(n, n),
        ProcessorView::linear(p),
    )
    .unwrap();
    let machine = zero_machine(p);
    let mut array = original.clone();
    let cache = PlanCache::new();
    let tracker = machine.tracker();
    let split = redistribute_split(&array, rows, &tracker, &cache, executor).unwrap();
    for d in 0..p {
        split.with_dest_mut(d, |buf| {
            for v in buf.iter_mut() {
                *v += 1.0;
            }
        });
    }
    split.finish_into(&mut array).unwrap();
    for point in array.domain().iter() {
        let expect = (point.coord(0) * 1000 + point.coord(1)) as f64 * 2.0 + 1.0;
        assert_eq!(array.get(&point).unwrap(), expect, "{label} at {point:?}");
    }
}

#[test]
fn pipelined_destination_mutation_survives_finish() {
    on_every_executor!(pipelined_mutation_on);
}

#[test]
fn split_redistribute_rejects_stale_source_fingerprint() {
    // `finish_into` validates the handle against the array it is asked to
    // install into: a redistributed (different-fingerprint) target is
    // rejected instead of silently corrupted.
    let n = 8usize;
    let p = 4usize;
    let array = grid_array("S", DistType::columns(), n, p, 1.0);
    let rows = Distribution::new(
        DistType::rows(),
        IndexDomain::d2(n, n),
        ProcessorView::linear(p),
    )
    .unwrap();
    let machine = zero_machine(p);
    let cache = PlanCache::new();
    let tracker = machine.tracker();
    let split =
        redistribute_split(&array, rows.clone(), &tracker, &cache, &ExecBackend::Serial).unwrap();
    // Redistribute a clone of the source out from under the handle.
    let mut other = array.clone();
    redistribute(
        &mut other,
        rows,
        &tracker,
        &RedistOptions::default(),
        &cache,
        &SerialExecutor,
    )
    .unwrap();
    assert!(matches!(
        split.finish_into(&mut other),
        Err(vf_runtime::RuntimeError::PlanMismatch { .. })
    ));
}

#[test]
fn forced_streaming_overlaps_compute_with_the_halo() {
    // With a zero cutoff and a multi-worker pool the unpack must stream on
    // background workers while the caller "computes" (sleeps): the handle
    // reports streaming and a strictly positive measured overlap, and the
    // tracker records it.
    let n = 64usize;
    let p = 4usize;
    let arrays: Vec<DistArray<f64>> = (0..3)
        .map(|k| grid_array("O", DistType::blocks2d(), n, p, (k + 1) as f64))
        .collect();
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let machine = zero_machine(p);
    let backend = streaming_backend(&Arc::new(WorkerPool::new(3)));
    let cache = PlanCache::new();
    let tracker = machine.tracker();
    let split = class_halo_split(&refs, &WIDTHS, &tracker, &cache, &backend).unwrap();
    assert!(split.is_streaming(), "zero cutoff + 3 workers must stream");
    std::thread::sleep(std::time::Duration::from_millis(50));
    let (_regions, report) = split.wait().unwrap();
    assert!(
        report.measured_overlap_seconds > 0.0,
        "background unpack ran while the caller slept"
    );
    assert!(report.measured_overlap_seconds <= report.measured_unpack_seconds + 1e-9);
    assert!(tracker.snapshot().measured_overlap_seconds() > 0.0);
}

#[test]
fn scope_split_class_exchange_equals_blocking() {
    let p = 4usize;
    let n = 8usize;
    let widths = [(1, 1), (1, 1)];
    let build = || {
        let mut s: VfScope<f64> = VfScope::new(zero_machine(p));
        s.declare_dynamic(
            DynamicDecl::new("U", IndexDomain::d2(n, n)).initial(DistType::blocks2d()),
        )
        .unwrap();
        s.declare_secondary(SecondaryDecl::extraction("V", IndexDomain::d2(n, n), "U"))
            .unwrap();
        s.declare_secondary(SecondaryDecl::extraction("W", IndexDomain::d2(n, n), "U"))
            .unwrap();
        for name in ["U", "V", "W"] {
            for point in IndexDomain::d2(n, n).iter() {
                let v = (point.coord(0) * 10 + point.coord(1)) as f64;
                s.array_mut(name).unwrap().set(&point, v).unwrap();
            }
        }
        s.take_stats();
        s
    };

    let s_block = build();
    let (blocking, exec) = s_block.exchange_class_ghosts("U", &widths).unwrap();
    let stats_block = s_block.stats();

    for streaming in [false, true] {
        let mut s = build();
        if streaming {
            s.set_executor(streaming_backend(&Arc::new(WorkerPool::new(3))));
        }
        let halo = s.exchange_class_ghosts_split("U", &widths).unwrap();
        assert_eq!(halo.messages(), exec.messages, "streaming={streaming}");
        assert_eq!(halo.bytes(), exec.bytes, "streaming={streaming}");
        let (regions, report) = halo.wait().unwrap();
        assert_eq!(report.messages, exec.messages, "streaming={streaming}");
        let u = s.array("U").unwrap();
        assert_eq!(regions.len(), blocking.len());
        for (k, ((name_a, ra), (name_b, rb))) in regions.iter().zip(blocking.iter()).enumerate() {
            assert_eq!(name_a, name_b);
            for proc in u.dist().proc_ids() {
                for point in u.domain().iter() {
                    assert_eq!(
                        ra.get(*proc, &point),
                        rb.get(*proc, &point),
                        "member {k} at {point:?} on {proc:?} streaming={streaming}"
                    );
                }
            }
        }
        assert_charges_equal(&stats_block, &s.stats(), &format!("streaming={streaming}"));
    }
}

#[test]
fn class_halo_double_buffer_swaps_front_to_back() {
    let p = 4usize;
    let n = 8usize;
    let widths = [(1, 1), (1, 1)];
    let mut s: VfScope<f64> = VfScope::new(zero_machine(p));
    s.declare_dynamic(DynamicDecl::new("U", IndexDomain::d2(n, n)).initial(DistType::blocks2d()))
        .unwrap();
    let fill = |s: &mut VfScope<f64>, offset: f64| {
        for point in IndexDomain::d2(n, n).iter() {
            let v = (point.coord(0) * 10 + point.coord(1)) as f64 + offset;
            s.array_mut("U").unwrap().set(&point, v).unwrap();
        }
    };

    let mut halo: ClassHalo<f64> = ClassHalo::new();
    assert!(halo.front().is_none() && halo.back().is_none());

    // Generation 0: front filled, back still empty.
    fill(&mut s, 0.0);
    let ex = s.exchange_class_ghosts_split("U", &widths).unwrap();
    ex.wait_into(&mut halo).unwrap();
    assert!(halo.front().is_some());
    assert!(halo.back().is_none(), "first publish displaces nothing");

    // Generation 1: the previous front retires to the back, so boundary
    // code can read generation k-1's halo while k's is current.
    fill(&mut s, 1000.0);
    let ex = s.exchange_class_ghosts_split("U", &widths).unwrap();
    ex.wait_into(&mut halo).unwrap();
    let (front, back) = (halo.front().unwrap(), halo.back().unwrap());
    let u = s.array("U").unwrap();
    let mut ghost_points = 0usize;
    for proc in u.dist().proc_ids() {
        for point in u.domain().iter() {
            if let Some(new) = front[0].1.get(*proc, &point) {
                let base = (point.coord(0) * 10 + point.coord(1)) as f64;
                assert_eq!(new, base + 1000.0, "front holds generation 1");
                assert_eq!(
                    back[0].1.get(*proc, &point),
                    Some(base),
                    "back holds generation 0"
                );
                ghost_points += 1;
            }
        }
    }
    assert!(ghost_points > 0, "the exchange produced ghost values");
}
