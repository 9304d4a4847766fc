//! A shared-memory class `DISTRIBUTE` with nothing attached that could
//! touch a wire copies every crossing pair's runs straight from the source
//! locals into its destinations, which it builds from the locals the
//! class's previous `DISTRIBUTE` retired.  With a fault injector attached
//! the same statements stage, frame and verify every pair's wire.  The two
//! deliveries must be indistinguishable: the same bits in every local and
//! ghost, the same modelled ledger to the bit — and recycled storage must
//! never leak an old value into a new layout.

use vf_core::prelude::*;
use vf_integration::forced_threaded;
use vf_machine::FaultPlan;

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
    let mut out = Vec::new();
    let mut views = Vec::new();
    for (name, region) in ghosts {
        let array = scope.array(name).unwrap();
        for p in 0..P {
            let local = array.local(ProcId(p));
            region.extended(ProcId(p), local, &mut out).unwrap();
            views.push(out.iter().map(|v| v.to_bits()).collect());
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
