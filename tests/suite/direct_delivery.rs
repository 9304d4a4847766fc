//! A shared-memory class `DISTRIBUTE` with nothing attached that could
//! touch a wire copies every crossing pair's runs straight from the source
//! locals into its destinations, which it builds from the locals the
//! class's previous `DISTRIBUTE` retired.  With a fault injector attached
//! the same statements stage, frame and verify every pair's wire.  The two
//! deliveries must be indistinguishable: the same bits in every local and
//! ghost, the same modelled ledger to the bit — and recycled storage must
//! never leak an old value into a new layout.  The single-array verbs run
//! the same pipeline as a class of one, so they are held to the same, and
//! a corrupted wire of theirs is caught and repaired like a class's.

use std::sync::Arc;
use vf_core::prelude::*;
use vf_core::vf_runtime::assign::assign;
use vf_core::vf_runtime::ghost::exchange_ghosts;
use vf_core::vf_runtime::parti::{execute_gather, inspector};
use vf_integration::{dist_2d, forced_threaded, overlap_values};
use vf_machine::{FaultInjector, FaultKind, FaultPlan};

const P: usize = 4;
const N: usize = 48;
const MEMBERS: usize = 4;
const NAMES: [&str; MEMBERS] = ["A0", "A1", "A2", "A3"];
const COLS: [(usize, usize); 2] = [(0, 0), (1, 1)];
const ROWS: [(usize, usize); 2] = [(1, 1), (0, 0)];

/// One layout of the cycle and the widths of the blocking class halo after
/// it (none for a layout that is not contiguous).
type Stage = (DistType, Option<[(usize, usize); 2]>);

/// The cycle `(:,BLOCK) -> (BLOCK,:) -> (CYCLIC(8),:) -> (:,GEN_BLOCK)
/// -> (:,BLOCK)` after its start.
fn cycle() -> Vec<Stage> {
    vec![
        (DistType::rows(), Some(ROWS)),
        (
            DistType::new(vec![DimDist::cyclic_k(8), DimDist::not_distributed()]),
            None,
        ),
        (
            DistType::new(vec![
                DimDist::not_distributed(),
                DimDist::gen_block(vec![5, 19, 14, 10]),
            ]),
            Some(COLS),
        ),
        (DistType::columns(), Some(COLS)),
    ]
}

/// Member `k`'s value at `point`: distinct per member and element, with
/// full mantissas so a misplaced element cannot pass for the right one.
fn fill(k: usize, point: &Point) -> f64 {
    let (i, j) = (point.coord(0), point.coord(1));
    ((i * 1031 + j * 67) as f64).sqrt() + k as f64 * 0.1
}

/// A scope holding the class laid out `(:,BLOCK)` and filled, on
/// `backend`.
fn class_scope(machine: Machine, backend: &ExecBackend) -> VfScope<f64> {
    let mut scope: VfScope<f64> = VfScope::new(machine);
    scope.set_executor(backend.clone());
    let domain = IndexDomain::d2(N, N);
    scope
        .declare_dynamic(DynamicDecl::new(NAMES[0], domain.clone()).initial(DistType::columns()))
        .unwrap();
    for name in &NAMES[1..] {
        scope
            .declare_secondary(SecondaryDecl::extraction(*name, domain.clone(), NAMES[0]))
            .unwrap();
    }
    for (k, name) in NAMES.iter().enumerate() {
        let array = scope.array_mut(name).unwrap();
        for point in domain.iter() {
            array.set(&point, fill(k, &point)).unwrap();
        }
    }
    scope.take_stats();
    scope
}

/// Every member's locals, processor by processor, as bits.
fn locals_bits(scope: &VfScope<f64>) -> Vec<Vec<u64>> {
    NAMES
        .iter()
        .flat_map(|name| {
            let array = scope.array(name).unwrap();
            (0..P).map(move |p| array.local(ProcId(p)).iter().map(|v| v.to_bits()).collect())
        })
        .collect()
}

/// Every member's local space extended by its exchanged overlap area,
/// processor by processor, as bits.
fn ghost_bits(scope: &VfScope<f64>, ghosts: &ClassGhosts<f64>) -> Vec<Vec<u64>> {
    let mut views = Vec::new();
    for (name, region) in ghosts {
        let array = scope.array(name).unwrap();
        for p in 0..P {
            let values = overlap_values(region, ProcId(p), array.local(ProcId(p)));
            views.push(values.iter().map(|v| v.to_bits()).collect());
        }
    }
    views
}

/// Runs `cycles` turns of the cycle on `machine` and `backend`, recording
/// the locals after every `DISTRIBUTE` and the extended views after every
/// class halo.
fn run(machine: Machine, backend: &ExecBackend, cycles: usize) -> (Vec<Vec<Vec<u64>>>, CommStats) {
    let mut scope = class_scope(machine, backend);
    let mut snapshots = Vec::new();
    for _ in 0..cycles {
        for (layout, widths) in cycle() {
            scope
                .distribute(DistributeStmt::new(NAMES[0], layout))
                .unwrap();
            snapshots.push(locals_bits(&scope));
            if let Some(widths) = widths {
                let (ghosts, _) = scope.exchange_class_ghosts(NAMES[0], &widths).unwrap();
                snapshots.push(ghost_bits(&scope, &ghosts));
            }
        }
    }
    (snapshots, scope.stats())
}

fn backends() -> [(&'static str, ExecBackend); 2] {
    [
        ("serial", ExecBackend::Serial),
        ("pooled", ExecBackend::Threaded(forced_threaded(3))),
    ]
}

/// The ledger per processor: messages and bytes each way, and the
/// modelled times as bits.
fn ledger(stats: &CommStats) -> Vec<(usize, usize, usize, usize, u64, u64)> {
    stats
        .per_proc()
        .iter()
        .map(|p| {
            (
                p.messages_sent,
                p.messages_received,
                p.bytes_sent,
                p.bytes_received,
                p.comm_time.to_bits(),
                p.compute_time.to_bits(),
            )
        })
        .collect()
}

#[test]
fn direct_delivery_matches_the_staged_verified_wire_bitwise() {
    for (name, backend) in backends() {
        let direct = Machine::new(P, CostModel::ipsc860(P));
        let staged = direct
            .clone()
            .with_fault_plan(FaultPlan::new(7).with_rate(0.0));
        assert!(
            direct.tracker().fault_injector().is_none(),
            "the direct leg needs a machine without an injector (unset VF_FAULT_SEED)"
        );
        assert!(staged.tracker().fault_injector().is_some());
        let (direct_bits, direct_stats) = run(direct, &backend, 2);
        let (staged_bits, staged_stats) = run(staged, &backend, 2);
        assert_eq!(direct_bits.len(), staged_bits.len());
        for (step, (a, b)) in direct_bits.iter().zip(&staged_bits).enumerate() {
            assert!(a == b, "{name}: snapshot {step} differs");
        }
        assert!(direct_stats.total_messages() > 0, "{name}: data moved");
        assert_eq!(ledger(&direct_stats), ledger(&staged_stats), "{name}");
        assert_eq!(
            direct_stats.critical_time().to_bits(),
            staged_stats.critical_time().to_bits(),
            "{name}"
        );
        assert_eq!(staged_stats.faults_injected(), 0, "{name}: rate 0");
        assert_eq!(staged_stats.retries(), 0, "{name}");
    }
}

#[test]
fn recycled_destinations_never_leak_an_old_layout() {
    // Three turns of the cycle, so every layout is built from spares the
    // class retired at least twice over.  Back home after each turn every
    // member is its fill, and after every halo each exchanged ghost holds
    // its owner's value.
    for (name, backend) in backends() {
        let mut scope = class_scope(Machine::new(P, CostModel::zero()), &backend);
        let domain = IndexDomain::d2(N, N);
        for turn in 0..3 {
            for (layout, widths) in cycle() {
                scope
                    .distribute(DistributeStmt::new(NAMES[0], layout))
                    .unwrap();
                let Some(widths) = widths else { continue };
                let (ghosts, _) = scope.exchange_class_ghosts(NAMES[0], &widths).unwrap();
                for (k, (member, region)) in ghosts.iter().enumerate() {
                    let mut exchanged = 0;
                    for p in 0..P {
                        for point in domain.iter() {
                            if let Some(v) = region.get(ProcId(p), &point) {
                                assert_eq!(
                                    v.to_bits(),
                                    fill(k, &point).to_bits(),
                                    "{name} turn {turn}: {member} ghost {point} on P{p}"
                                );
                                exchanged += 1;
                            }
                        }
                    }
                    let planned: usize = (0..P).map(|p| region.len(ProcId(p))).sum();
                    assert_eq!(exchanged, planned, "{name} turn {turn}: {member}");
                }
            }
            for (k, member) in NAMES.iter().enumerate() {
                let array = scope.array(member).unwrap();
                array.check_invariants().unwrap();
                for point in domain.iter() {
                    assert_eq!(
                        array.get(&point).unwrap().to_bits(),
                        fill(k, &point).to_bits(),
                        "{name} turn {turn}: {member}{point}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The single-array verbs: a class of one on the same pipeline.
// ---------------------------------------------------------------------------

/// A filled `N x N` field laid out `layout` on `P` processors.
fn field(layout: DistType) -> DistArray<f64> {
    DistArray::from_fn("F", dist_2d(layout, N, N, P), |pt| fill(0, pt))
}

/// Per processor, the bits a statement produced.
type Produced = Vec<Vec<u64>>;

fn locals_of(array: &DistArray<f64>) -> Produced {
    let bits = |p| array.local(ProcId(p)).iter().map(|v| v.to_bits()).collect();
    (0..P).map(bits).collect()
}

/// One single-array statement, run on `tracker` and `backend`.
type Statement = fn(&CommTracker, &ExecBackend) -> Produced;

fn redistributed(t: &CommTracker, backend: &ExecBackend) -> Produced {
    let mut a = field(DistType::columns());
    let (opts, cache) = (RedistOptions::default(), PlanCache::new());
    let rows = dist_2d(DistType::rows(), N, N, P);
    redistribute(&mut a, rows, t, &opts, &cache, backend).unwrap();
    locals_of(&a)
}

fn ghosts_exchanged(t: &CommTracker, backend: &ExecBackend) -> Produced {
    let a = field(DistType::blocks2d());
    let plan = PlanCache::new()
        .ghost_plan(a.dist(), &[(1, 1), (1, 1)])
        .unwrap();
    let (region, _) = exchange_ghosts(&a, &plan, t, backend).unwrap();
    let extended = |p: usize| {
        let values = overlap_values(&region, ProcId(p), a.local(ProcId(p)));
        values.iter().map(|v| v.to_bits()).collect()
    };
    (0..P).map(extended).collect()
}

fn assigned(t: &CommTracker, backend: &ExecBackend) -> Produced {
    let src = field(DistType::columns());
    let mut dst: DistArray<f64> = DistArray::new("D", dist_2d(DistType::rows(), N, N, P));
    assign(&mut dst, &src, t, &PlanCache::new(), backend).unwrap();
    locals_of(&dst)
}

fn gathered(t: &CommTracker, backend: &ExecBackend) -> Produced {
    let a = field(DistType::blocks2d());
    let access = |k: usize| {
        let at = Point::d2((k * 7 % N) as i64 + 1, (k * 13 % N) as i64 + 1);
        (ProcId(k % P), at)
    };
    let accesses: Vec<(ProcId, Point)> = (0..4 * N).map(access).collect();
    let schedule = inspector(a.dist(), &accesses, &PlanCache::new()).unwrap();
    let got = execute_gather(&a, &schedule, t, backend).unwrap();
    let slot = |q: usize| {
        let value = |(_, pt): &(ProcId, Point)| got.get(ProcId(q), a.dist(), pt);
        accesses
            .iter()
            .filter_map(value)
            .map(f64::to_bits)
            .collect()
    };
    (0..P).map(slot).collect()
}

fn array_verbs() -> [(&'static str, Statement); 4] {
    [
        ("redistribute", redistributed),
        ("exchange_ghosts", ghosts_exchanged),
        ("assign", assigned),
        ("execute_gather", gathered),
    ]
}

/// A tracker on the iPSC/860-like model, with `plan` injected if any.
fn tracker_with(plan: Option<FaultPlan>) -> CommTracker {
    let t = CommTracker::new(P, CostModel::ipsc860(P));
    match plan {
        Some(plan) => t.with_fault_injector(Arc::new(FaultInjector::new(plan))),
        None => t,
    }
}

#[test]
fn array_verbs_deliver_directly_as_the_staged_verified_wire_does() {
    for (name, backend) in backends() {
        for (verb, statement) in array_verbs() {
            let what = format!("{verb} on {name}");
            let rate_0 = FaultPlan::new(7).with_rate(0.0);
            let (direct, staged) = (tracker_with(None), tracker_with(Some(rate_0)));
            let direct_bits = statement(&direct, &backend);
            let staged_bits = statement(&staged, &backend);
            assert_eq!(direct_bits, staged_bits, "{what}: buffers");
            assert!(direct_bits.iter().any(|p| !p.is_empty()), "{what}: fixture");
            let (direct_stats, staged_stats) = (direct.snapshot(), staged.snapshot());
            assert!(direct_stats.total_messages() > 0, "{what}: data moved");
            assert_eq!(ledger(&direct_stats), ledger(&staged_stats), "{what}");
            assert_eq!(
                direct_stats.critical_time().to_bits(),
                staged_stats.critical_time().to_bits(),
                "{what}"
            );
            assert_eq!(staged_stats.faults_injected(), 0, "{what}: rate 0");
            assert_eq!(staged_stats.retries(), 0, "{what}");
        }
    }
}

#[test]
fn an_array_verbs_corrupted_wire_is_caught_repaired_and_charged_once() {
    let corrupting = FaultPlan::new(11)
        .with_rate(1.0)
        .with_kinds(&[FaultKind::CorruptWire]);
    for (name, backend) in backends() {
        for (verb, statement) in array_verbs() {
            let what = format!("{verb} on {name}");
            let (clean, corrupt) = (tracker_with(None), tracker_with(Some(corrupting.clone())));
            let clean_bits = statement(&clean, &backend);
            assert_eq!(
                statement(&corrupt, &backend),
                clean_bits,
                "{what}: repaired"
            );
            let (clean_stats, corrupt_stats) = (clean.snapshot(), corrupt.snapshot());
            assert_eq!(corrupt_stats.faults_injected(), 1, "{what}: one corruption");
            assert_eq!(corrupt_stats.retries(), 1, "{what}: one retransmission");
            assert_eq!(corrupt_stats.total_messages(), clean_stats.total_messages());
            assert_eq!(corrupt_stats.total_bytes(), clean_stats.total_bytes());
            // The retransmission is charged to the corrupted pair's two
            // ends, the same time to each, and to nobody else.
            let extra: Vec<f64> = corrupt_stats
                .per_proc()
                .iter()
                .zip(clean_stats.per_proc())
                .map(|(c, b)| c.comm_time - b.comm_time)
                .collect();
            let charged: Vec<f64> = extra.iter().copied().filter(|&x| x != 0.0).collect();
            assert_eq!(charged.len(), 2, "{what}: {extra:?}");
            assert!(charged[0] > 0.0, "{what}: {extra:?}");
            assert!(
                (charged[0] - charged[1]).abs() <= 1e-12 * charged[0],
                "{what}"
            );
        }
    }
}
