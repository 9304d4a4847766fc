//! One table for every statement verb on every backend.
//!
//! Each row runs one verb of `vf-runtime` — array / class / split ghost
//! exchange (regular and irregular plans), array / class / split
//! `DISTRIBUTE` (INDIRECT ↔ BLOCK and `NOTRANSFER` included), gather,
//! scatter, assign — on `{Serial, pooled Threaded with cutoff 0, Sharded}`
//! and holds it to the **Serial array-verb result**: buffers bitwise equal,
//! modelled traffic equal, and for a class exactly one message per crossing
//! processor pair carrying the members' bytes summed.  A split verb is
//! additionally held to its blocking form on the same backend — buffers,
//! report and tracker — because the mode is only *when* the pipeline
//! delivers.  On the sharded backend the statement's traffic must
//! additionally have crossed real channels — which is what makes Sharded a
//! transport rather than a function family, and what the second test pins
//! for the call sites that silently stayed in shared memory before.

use std::collections::BTreeSet;
use std::sync::Arc;
use vf_core::prelude::*;
use vf_integration::{dist_1d, dist_2d, forced_threaded};
use vf_runtime::assign::assign;
use vf_runtime::ghost::{
    exchange_class_ghosts, exchange_class_ghosts_split, exchange_ghosts, GhostRegion,
};
use vf_runtime::parti::{execute_gather, execute_scatter, inspector};

const P: usize = 4;
const N: usize = 48;
const WIDTHS: [(usize, usize); 2] = [(1, 1), (1, 1)];

/// Per processor, the bit pattern in every slot (`None`: a point that
/// holds no ghost value).
type Bits = Vec<Vec<Option<u64>>>;

/// What one statement left behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Every buffer the statement produced, one entry per array.
    bits: Vec<Bits>,
    /// The data-plane traffic the statement reported: `(messages, bytes)`.
    charged: (usize, usize),
    /// Distinct crossing processor pairs of the statement's plans — what
    /// `charged.0` must equal for a single verb, array or class.
    pairs: usize,
    /// The tracker after the statement (directory fetches included).
    stats: CommStats,
}

impl Outcome {
    fn new(bits: Vec<Bits>, charged: (usize, usize), pairs: usize, t: &CommTracker) -> Self {
        let stats = t.snapshot();
        Self {
            bits,
            charged,
            pairs,
            stats,
        }
    }
}

fn backends() -> [(&'static str, ExecBackend); 3] {
    [
        ("serial", ExecBackend::Serial),
        ("pooled", ExecBackend::Threaded(forced_threaded(3))),
        ("sharded", ExecBackend::Sharded(ShardedExecutor::new())),
    ]
}

fn tracker() -> CommTracker {
    CommTracker::new(P, CostModel::from_alpha_beta(1.0, 0.25))
}

fn crossing_pairs(plans: &[Arc<CommPlan>]) -> usize {
    let pairs: BTreeSet<_> = plans
        .iter()
        .flat_map(|plan| plan.transfers())
        .filter(|t| t.src != t.dst && t.elements > 0)
        .map(|t| (t.src, t.dst))
        .collect();
    pairs.len()
}

fn array_bits(a: &DistArray<f64>) -> Bits {
    let local = |q| a.local(ProcId(q)).iter().map(|v| Some(v.to_bits()));
    (0..P).map(|q| local(q).collect()).collect()
}

fn region_bits(a: &DistArray<f64>, region: &GhostRegion<f64>) -> Bits {
    let slot = |q, pt| region.get(ProcId(q), &pt).map(f64::to_bits);
    (0..P)
        .map(|q| a.domain().iter().map(|pt| slot(q, pt)).collect())
        .collect()
}

// --- fixtures ---------------------------------------------------------------

/// Three stencil fields on a 2-D block grid, with their halo plans.
fn fields() -> (Vec<DistArray<f64>>, Vec<Arc<CommPlan>>) {
    let dist = dist_2d(DistType::blocks2d(), 12, 12, P);
    let value = |pt: &Point, k: usize| ((pt.coord(0) * 100 + pt.coord(1)) as f64).sin() * k as f64;
    let arrays = (1..=3)
        .map(|k| DistArray::from_fn(format!("F{k}"), dist.clone(), |pt| value(pt, k)))
        .collect();
    let plan = PlanCache::new().ghost_plan(&dist, &WIDTHS).unwrap();
    (arrays, vec![plan; 3])
}

fn block() -> Distribution {
    dist_1d(DistType::block1d(), N, P)
}

/// A scattered INDIRECT layout: neighbours in the index space rarely share
/// an owner.
fn scattered() -> Distribution {
    let map = IndirectMap::from_fn(N, |i| (i * 7 + i / 5) % P).expect("non-empty map");
    dist_1d(DistType::indirect1d(Arc::new(map)), N, P)
}

fn vector(dist: Distribution) -> DistArray<f64> {
    DistArray::from_fn("V", dist, |pt| (pt.coord(0) as f64 * 0.37).cos())
}

/// A ring: every node reads both neighbours.
fn ring() -> Connectivity {
    let adjncy = (0..N).flat_map(|u| [(u + N - 1) % N, (u + 1) % N]);
    let xadj = (0..=N).map(|u| 2 * u).collect();
    Connectivity::from_csr(xadj, adjncy.collect()).expect("well-formed ring")
}

/// Members of a class `DISTRIBUTE`, each with its own target and plan: a
/// regular remap, INDIRECT → BLOCK and BLOCK → INDIRECT in one statement.
fn class_moves() -> (Vec<DistArray<f64>>, Vec<Arc<CommPlan>>) {
    let moves = [
        (block(), dist_1d(DistType::cyclic1d(1), N, P)),
        (scattered(), block()),
        (block(), scattered()),
    ];
    let cache = PlanCache::new();
    let plan = |(from, to): &(Distribution, Distribution)| cache.redistribute_plan(from, to);
    let plans = moves.iter().map(|m| plan(m).unwrap()).collect();
    let arrays = moves.iter().map(|(from, _)| vector(from.clone()));
    (arrays.collect(), plans)
}

// --- rows: ghost exchange ---------------------------------------------------

/// One array verb per array.
fn ghosts_of(arrays: &[DistArray<f64>], plans: &[Arc<CommPlan>], exec: &ExecBackend) -> Outcome {
    let t = tracker();
    let (mut bits, mut charged) = (Vec::new(), (0, 0));
    for (a, plan) in arrays.iter().zip(plans) {
        let (region, report) = exchange_ghosts(a, plan, &t, exec).unwrap();
        bits.push(region_bits(a, &region));
        charged = (charged.0 + report.messages, charged.1 + report.bytes);
    }
    Outcome::new(bits, charged, crossing_pairs(plans), &t)
}

fn ghosts_array(exec: &ExecBackend) -> Outcome {
    let (arrays, plans) = fields();
    ghosts_of(&arrays[..1], &plans[..1], exec)
}

fn ghosts_array_irregular(exec: &ExecBackend) -> Outcome {
    let a = vector(scattered());
    let plan = PlanCache::new().ghost_irregular_plan(a.dist(), &ring());
    ghosts_of(&[a], &[plan.unwrap()], exec)
}

fn ghosts_per_member(exec: &ExecBackend) -> Outcome {
    let (arrays, plans) = fields();
    ghosts_of(&arrays, &plans, exec)
}

fn ghosts_class_with(exec: &ExecBackend, split: bool) -> Outcome {
    let (arrays, plans) = fields();
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let fused = FusedPlan::fuse(plans.clone()).unwrap();
    let t = tracker();
    let (regions, charged) = if split {
        let handle = exchange_class_ghosts_split(&refs, fused, &t, exec).unwrap();
        let (regions, report) = handle.wait().unwrap();
        (regions, (report.messages, report.bytes))
    } else {
        let (regions, report) = exchange_class_ghosts(&refs, &fused, &t, exec).unwrap();
        (regions, (report.messages, report.bytes))
    };
    let bits = arrays.iter().zip(&regions).map(|(a, r)| region_bits(a, r));
    let bits = bits.collect();
    Outcome::new(bits, charged, crossing_pairs(&plans), &t)
}

fn ghosts_class(exec: &ExecBackend) -> Outcome {
    ghosts_class_with(exec, false)
}

fn ghosts_class_split(exec: &ExecBackend) -> Outcome {
    ghosts_class_with(exec, true)
}

// --- rows: DISTRIBUTE -------------------------------------------------------

fn redistributed(from: Distribution, to: Distribution, opts: RedistOptions) -> Verb {
    Box::new(move |exec| {
        let (t, cache, mut a) = (tracker(), PlanCache::new(), vector(from.clone()));
        let plans = match opts.notransfer {
            true => vec![],
            false => vec![cache.redistribute_plan(&from, &to).unwrap()],
        };
        let report = redistribute(&mut a, to.clone(), &t, &opts, &cache, exec).unwrap();
        assert!(a.dist().same_mapping(&to), "the descriptor changed");
        a.check_invariants().unwrap();
        let (bits, charged) = (vec![array_bits(&a)], (report.messages, report.bytes));
        Outcome::new(bits, charged, crossing_pairs(&plans), &t)
    })
}

fn redistribute_per_member(exec: &ExecBackend) -> Outcome {
    let (mut arrays, plans) = class_moves();
    let t = tracker();
    let mut charged = (0, 0);
    for (a, plan) in arrays.iter_mut().zip(&plans) {
        let r = execute_redistribute(a, plan, &t, &RedistOptions::default(), exec).unwrap();
        charged = (charged.0 + r.messages, charged.1 + r.bytes);
    }
    let bits = arrays.iter().map(array_bits).collect();
    Outcome::new(bits, charged, crossing_pairs(&plans), &t)
}

fn redistribute_class(exec: &ExecBackend) -> Outcome {
    let (mut arrays, plans) = class_moves();
    let fused = FusedPlan::fuse(plans.clone()).unwrap();
    let t = tracker();
    let mut refs: Vec<&mut DistArray<f64>> = arrays.iter_mut().collect();
    let (reports, report) = execute_class_redistribute(&mut refs, &fused, &t, exec).unwrap();
    // The per-array reports still carry what each member would have
    // charged alone.
    for (r, plan) in reports.iter().zip(&plans) {
        let alone = (plan.num_messages(), plan.bytes_for(8));
        assert_eq!((r.messages, r.bytes), alone);
    }
    let bits = arrays.iter().map(array_bits).collect();
    let charged = (report.messages, report.bytes);
    Outcome::new(bits, charged, crossing_pairs(&plans), &t)
}

fn redistribute_split_phase(exec: &ExecBackend) -> Outcome {
    let (t, cache, mut a) = (tracker(), PlanCache::new(), vector(scattered()));
    let plan = cache.redistribute_plan(a.dist(), &block()).unwrap();
    let handle = redistribute_split(&a, block(), &t, &cache, exec).unwrap();
    let (report, _) = handle.finish_into(&mut a).unwrap();
    let (bits, charged) = (vec![array_bits(&a)], (report.messages, report.bytes));
    Outcome::new(bits, charged, crossing_pairs(&[plan]), &t)
}

// --- rows: gather, scatter, assign -----------------------------------------

fn gathered(exec: &ExecBackend) -> Outcome {
    let a = vector(dist_1d(DistType::cyclic1d(1), N, P));
    let access = |i: usize| (ProcId((i * 3 + 1) % P), Point::d1(((i * 7) % N) as i64 + 1));
    let accesses: Vec<(ProcId, Point)> = (0..2 * N).map(access).collect();
    let schedule = inspector(a.dist(), &accesses, &PlanCache::new()).unwrap();
    let t = tracker();
    let got = execute_gather(&a, &schedule, &t, exec).unwrap();
    let slot = |q, pt| got.get(ProcId(q), a.dist(), &pt).map(f64::to_bits);
    let bits = (0..P).map(|q| a.domain().iter().map(|pt| slot(q, pt)).collect());
    let bits = vec![bits.collect()];
    let charged = (schedule.num_messages(), schedule.num_elements() * 8);
    Outcome::new(
        bits,
        charged,
        crossing_pairs(&[Arc::clone(schedule.plan())]),
        &t,
    )
}

fn scattered_updates(exec: &ExecBackend) -> Outcome {
    let mut a = vector(dist_1d(DistType::cyclic1d(2), N, P));
    // Repeated, order-sensitive updates: only in-order application per
    // owner reproduces the serial bits.
    let update = |k: usize| {
        (
            ProcId(k % P),
            Point::d1((k * 5 % N) as i64 + 1),
            (k as f64).sin(),
        )
    };
    let updates: Vec<(ProcId, Point, f64)> = (0..3 * N).map(update).collect();
    let (t, cache) = (tracker(), PlanCache::new());
    let combine = |old: f64, new: f64| old * 0.5 + new;
    let messages = execute_scatter(&mut a, &updates, &t, &cache, exec, combine).unwrap();
    let charged = (messages, t.snapshot().total_bytes());
    Outcome::new(vec![array_bits(&a)], charged, messages, &t)
}

fn assigned(exec: &ExecBackend) -> Outcome {
    let src = vector(scattered());
    let mut dst: DistArray<f64> = DistArray::new("D", dist_1d(DistType::cyclic1d(2), N, P));
    let (t, cache) = (tracker(), PlanCache::new());
    let plan = cache.redistribute_plan(src.dist(), dst.dist()).unwrap();
    let report = assign(&mut dst, &src, &t, &cache, exec).unwrap();
    assert_eq!(dst.to_dense(), src.to_dense());
    let (bits, charged) = (vec![array_bits(&dst)], (report.messages, report.bytes));
    Outcome::new(bits, charged, crossing_pairs(&[plan]), &t)
}

// --- the table --------------------------------------------------------------

type Verb = Box<dyn Fn(&ExecBackend) -> Outcome>;

struct Row {
    name: &'static str,
    verb: Verb,
    /// The same statement as one array verb per member — what a class verb
    /// is held to.  `None`: the verb is an array verb, its own reference.
    per_member: Option<Verb>,
    /// Whether a sharded backend carries the statement over channels (the
    /// split mode and in-place scatter updates do not — yet).
    on_channels: bool,
    /// For a split verb (post, then wait at once): the blocking form of
    /// the same statement.
    blocking: Option<Verb>,
}

#[rustfmt::skip]
fn table() -> Vec<Row> {
    let row = |name, verb, per_member| Row { name, verb, per_member, on_channels: true, blocking: None };
    let array = |name, verb: fn(&ExecBackend) -> Outcome| row(name, Box::new(verb), None);
    let class = |name, verb: fn(&ExecBackend) -> Outcome, members: fn(&ExecBackend) -> Outcome| {
        row(name, Box::new(verb), Some(Box::new(members) as Verb))
    };
    let distribute = |name, from, to, opts| row(name, redistributed(from, to, opts), None);
    let in_shared_memory = |row: Row| Row { on_channels: false, ..row };
    let split_of = |blocking: Verb, row: Row| Row { blocking: Some(blocking), ..in_shared_memory(row) };
    let (moved, notransfer) = (RedistOptions::default, RedistOptions::notransfer);
    vec![
        array("ghosts / array", ghosts_array),
        array("ghosts / array, irregular plan", ghosts_array_irregular),
        class("ghosts / class", ghosts_class, ghosts_per_member),
        split_of(Box::new(ghosts_class), class("ghosts / class, split", ghosts_class_split, ghosts_per_member)),
        distribute("redistribute / BLOCK -> CYCLIC(3)", block(), dist_1d(DistType::cyclic1d(3), N, P), moved()),
        distribute("redistribute / INDIRECT -> BLOCK", scattered(), block(), moved()),
        distribute("redistribute / BLOCK -> INDIRECT", block(), scattered(), moved()),
        distribute("redistribute / NOTRANSFER", block(), scattered(), notransfer()),
        class("redistribute / class", redistribute_class, redistribute_per_member),
        split_of(redistributed(scattered(), block(), moved()), array("redistribute / split", redistribute_split_phase)),
        array("gather", gathered),
        in_shared_memory(array("scatter", scattered_updates)),
        array("assign", assigned),
    ]
}

#[test]
fn every_verb_on_every_backend_equals_the_serial_array_verb() {
    for row in table() {
        let reference = row.per_member.as_ref().unwrap_or(&row.verb)(&ExecBackend::Serial);
        for (backend, exec) in backends() {
            let what = format!("{} on {backend}", row.name);
            let got = (row.verb)(&exec);
            assert_eq!(got.bits, reference.bits, "{what}: buffers");
            // Every statement but NOTRANSFER really crosses processors.
            let idle = row.name.ends_with("NOTRANSFER");
            assert_eq!(got.pairs == 0, idle, "{what}: fixture");
            // One message per crossing pair — for a class that is the
            // whole point — and the reference's bytes, however many
            // messages the reference needed to move them.
            assert_eq!(got.charged.0, got.pairs, "{what}: messages");
            assert_eq!(got.charged.1, reference.charged.1, "{what}: bytes");
            assert_eq!(got.pairs, reference.pairs, "{what}: crossing pairs");
            assert!(got.charged.0 <= reference.charged.0, "{what}");
            let modelled = (got.stats.total_messages(), got.stats.total_bytes());
            assert_eq!(modelled.1, reference.stats.total_bytes(), "{what}");
            if row.per_member.is_none() {
                assert_eq!(modelled.0, reference.stats.total_messages(), "{what}");
            }
            // Sharded is a transport: what the model says crosses the
            // network crossed a real channel, and nothing else did.
            let sharded = backend == "sharded" && row.on_channels;
            let on_wire = if sharded { got.charged } else { (0, 0) };
            let channels = (got.stats.channel_messages(), got.stats.channel_bytes());
            assert_eq!(channels, on_wire, "{what}: channel traffic");
            // Split-then-wait is the blocking statement: same buffers, same
            // report, same tracker — all but the measured wall-clock
            // overlap (and, on Sharded, the channels the split mode does
            // not cross yet).
            if let Some(blocking) = &row.blocking {
                let want = blocking(&exec);
                assert_eq!(got.bits, want.bits, "{what}: blocking buffers");
                assert_eq!(got.charged, want.charged, "{what}: blocking report");
                let charges = |s: &CommStats| {
                    let credit = s.credited_overlap_seconds().to_bits();
                    (s.per_proc().to_vec(), credit, s.retries(), s.fallbacks())
                };
                assert_eq!(charges(&got.stats), charges(&want.stats), "{what}: tracker");
            }
        }
    }
}

/// A split handle settles on the tracker it was posted on — its finisher
/// takes no tracker (it used to, and charged the batch to the argument).
#[test]
fn a_split_statement_settles_on_the_tracker_it_was_posted_on() {
    for (backend, exec) in backends() {
        let untouched = tracker().snapshot();
        let (arrays, plans) = fields();
        let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
        let (posted_on, bystander) = (tracker(), tracker());
        let fused = FusedPlan::fuse(plans).unwrap();
        let handle = exchange_class_ghosts_split(&refs, fused, &posted_on, &exec).unwrap();
        assert_eq!(
            posted_on.snapshot(),
            untouched,
            "{backend}: charged at the wait"
        );
        handle.wait().unwrap();
        let blocking = ghosts_class(&exec).stats;
        assert_eq!(
            posted_on.snapshot().per_proc(),
            blocking.per_proc(),
            "{backend}"
        );
        assert_eq!(bystander.snapshot(), untouched, "{backend}");

        let (cache, mut a) = (PlanCache::new(), vector(scattered()));
        let (posted_on, bystander) = (tracker(), tracker());
        let handle = redistribute_split(&a, block(), &posted_on, &cache, &exec).unwrap();
        handle.finish_into(&mut a).unwrap();
        let blocking = redistributed(scattered(), block(), RedistOptions::default())(&exec).stats;
        assert_eq!(
            posted_on.snapshot().per_proc(),
            blocking.per_proc(),
            "{backend}"
        );
        assert_eq!(bystander.snapshot(), untouched, "{backend}");
    }
}

/// What a statement costs the pool: a blocking class statement above the
/// cutoff is **one** dispatch (one work item per destination inside it), a
/// streaming split statement is **one** submitted job, and a statement
/// that runs inline — below the cutoff, or on `Serial` — never wakes a
/// worker.
#[test]
fn class_statements_stay_within_their_dispatch_budget() {
    let pool = Arc::new(WorkerPool::new(3));
    let pooled = |cutoff: Option<usize>| {
        let threaded = ThreadedExecutor::with_pool(Arc::clone(&pool));
        ExecBackend::Threaded(match cutoff {
            Some(bytes) => threaded.with_serial_cutoff(bytes),
            None => threaded,
        })
    };
    type Statement = fn(&ExecBackend) -> Outcome;
    let statements: [(&str, Statement); 4] = [
        ("ghosts / class", ghosts_class),
        ("ghosts / class, split", ghosts_class_split),
        ("redistribute / class", redistribute_class),
        ("redistribute / split", redistribute_split_phase),
    ];
    for (name, statement) in statements {
        let budget = [
            ("above the cutoff", pooled(Some(0)), 1),
            ("below the cutoff", pooled(None), 0),
            ("serial", ExecBackend::Serial, 0),
        ];
        for (when, exec, jobs) in budget {
            let before = pool.jobs_dispatched();
            statement(&exec);
            let spent = pool.jobs_dispatched() - before;
            assert_eq!(spent, jobs, "{name}, {when}");
        }
    }
}

/// The call sites that handed a sharded backend to a verb without a
/// `*_sharded` spelling — `redistribute`, `execute_gather`, `assign`,
/// `CheckpointStore::restore_into` — used to run the serial shared-memory
/// copy: zero channel traffic.  Now the backend is the transport.
#[test]
fn a_sharded_backend_moves_data_over_channels_from_every_call_site() {
    let sharded = ExecBackend::Sharded(ShardedExecutor::new());
    let to_block = redistributed(scattered(), block(), RedistOptions::default());
    let verbs: [(&str, Verb); 3] = [
        ("redistribute", to_block),
        ("execute_gather", Box::new(gathered)),
        ("assign", Box::new(assigned)),
    ];
    for (name, verb) in verbs {
        let (serial, got) = (verb(&ExecBackend::Serial), verb(&sharded));
        assert_eq!(got.bits, serial.bits, "{name}: bitwise equal to Serial");
        assert!(
            got.charged.0 > 0,
            "{name}: the statement crosses processors"
        );
        assert_eq!(got.charged, serial.charged, "{name}: modelled traffic");
        let channels = (got.stats.channel_messages(), got.stats.channel_bytes());
        assert_eq!(
            channels, got.charged,
            "{name}: channels carry the modelled traffic"
        );
    }

    // Restore-into: the redistribute-on-read leg runs on the executor the
    // caller hands in.
    let dir = std::env::temp_dir().join(format!("vf_verbs_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir);
    store.save(&vector(block()), 7, &tracker()).unwrap();
    let live = scattered();
    let restore = |exec: &ExecBackend| {
        let (t, cache) = (tracker(), PlanCache::new());
        let restored = store.restore_into::<f64, _>(&live, &t, &cache, exec);
        let array = restored.unwrap().array;
        assert!(array.dist().same_mapping(&live));
        (array_bits(&array), t.snapshot())
    };
    let (serial_bits, serial_stats) = restore(&ExecBackend::Serial);
    let (sharded_bits, sharded_stats) = restore(&sharded);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(sharded_bits, serial_bits, "restore_into: bitwise equal");
    let plan = PlanCache::new().redistribute_plan(&block(), &live).unwrap();
    assert!(plan.num_messages() > 0);
    let channels = (
        sharded_stats.channel_messages(),
        sharded_stats.channel_bytes(),
    );
    assert_eq!(
        channels,
        (plan.num_messages(), plan.bytes_for(8)),
        "restore_into"
    );
    assert_eq!(sharded_stats.total_bytes(), serial_stats.total_bytes());
    assert_eq!(serial_stats.channel_messages(), 0);
}

/// `DISTRIBUTE` onto the mapping the array already has changes nothing:
/// not the data, not the tracker, not the plan cache — on any backend,
/// for one array and for a connect class.
#[test]
fn distribute_onto_the_current_mapping_is_a_no_op() {
    for (backend, exec) in backends() {
        // The runtime verb.
        let mut a = vector(scattered());
        let (t, cache, opts) = (tracker(), PlanCache::new(), RedistOptions::default());
        let before = (array_bits(&a), t.snapshot(), cache.stats());
        let report = redistribute(&mut a, scattered(), &t, &opts, &cache, &exec).unwrap();
        let stayed = RedistReport {
            stayed_elements: N,
            ..RedistReport::default()
        };
        assert_eq!(report, stayed, "{backend}");
        let after = (array_bits(&a), t.snapshot(), cache.stats());
        assert_eq!(after, before, "{backend}: data, tracker, plan cache");

        // The statement, over a connect class.
        let mut scope: VfScope<f64> = VfScope::new(Machine::new(P, CostModel::zero()));
        scope.set_executor(exec);
        let b = DynamicDecl::new("B", IndexDomain::d1(N)).initial(DistType::cyclic1d(2));
        scope.declare_dynamic(b).unwrap();
        let s = SecondaryDecl::extraction("S", IndexDomain::d1(N), "B");
        scope.declare_secondary(s).unwrap();
        for (name, sign) in [("B", 1.0), ("S", -1.0)] {
            let array = scope.array_mut(name).unwrap();
            let value = |pt: &Point| sign * pt.coord(0) as f64;
            *array = DistArray::from_fn(name, array.dist().clone(), value);
        }
        let state = |scope: &VfScope<f64>| {
            let bits = ["B", "S"].map(|name| array_bits(scope.array(name).unwrap()));
            (bits, scope.stats(), scope.plan_cache().stats())
        };
        let before = state(&scope);
        let same = DistributeStmt::new("B", DistType::cyclic1d(2));
        let report = scope.distribute(same).unwrap();
        assert!(report.fused.is_none(), "{backend}: nothing was fused");
        assert_eq!((report.messages(), report.bytes()), (0, 0), "{backend}");
        for (name, r) in &report.per_array {
            let (moved, stayed) = (r.moved_elements, r.stayed_elements);
            assert_eq!((moved, stayed), (0, N), "{backend}: {name}");
        }
        assert_eq!(state(&scope), before, "{backend}: class statement");

        // A statement that does move still moves.
        let to_block = DistributeStmt::new("B", DistType::block1d());
        assert!(
            scope.distribute(to_block).unwrap().messages() > 0,
            "{backend}"
        );
        let s = scope.array("S").unwrap().to_dense();
        let expect: Vec<f64> = (1..=N).map(|i| -(i as f64)).collect();
        assert_eq!(s, expect, "{backend}");
    }
}

/// Equal distribution *types* are not equal distributions: `CONSTRUCT`
/// through a transpose permutes the processor-grid mapping, and a shifted
/// alignment keeps its base's type behind a translation table.  A
/// `DISTRIBUTE` from either to the plain distribution of that type places
/// elements differently, so it must move them — not be taken for a no-op.
#[test]
fn distribute_between_distributions_of_one_type_still_moves_the_data() {
    let square = IndexDomain::d2(8, 8);
    let grid = ProcessorView::grid2d(2, 2);
    let plain = Distribution::new(DistType::blocks2d(), square.clone(), grid).unwrap();
    let transposed = construct(&Alignment::transpose2d(), &plain, &square).unwrap();
    let base = dist_1d(DistType::block1d(), 12, P);
    let shift = Alignment::new(1, vec![vf_core::vf_dist::AlignExpr::shifted(0, 2)]).unwrap();
    let shifted = construct(&shift, &base, &IndexDomain::d1(10)).unwrap();
    let cases = [
        (transposed, plain),
        (shifted, dist_1d(DistType::block1d(), 10, P)),
    ];
    for (from, to) in cases {
        assert_eq!(from.dist_type(), to.dist_type());
        assert_eq!(from.procs(), to.procs());
        for (backend, exec) in backends() {
            let value = |pt: &Point| pt.coords().iter().fold(0, |v, c| v * 100 + c) as f64;
            let mut a = DistArray::from_fn("A", from.clone(), value);
            let placed = DistArray::from_fn("A", to.clone(), value);
            let (t, cache, opts) = (tracker(), PlanCache::new(), RedistOptions::default());
            let report = redistribute(&mut a, to.clone(), &t, &opts, &cache, &exec).unwrap();
            assert!(report.moved_elements > 0, "{backend}: {from} -> {to}");
            assert_eq!(t.snapshot().total_messages(), report.messages, "{backend}");
            assert_eq!(a.dist(), &to, "{backend}");
            assert_eq!(array_bits(&a), array_bits(&placed), "{backend}: {to}");
        }
    }
}
