//! E8 — the persistent SPMD worker pool and the wire-buffer pack/unpack
//! executor.
//!
//! Three comparisons:
//!
//! 1. **dispatch latency**: a small plan's copies run through the
//!    fresh-spawn `spmd::run_partitioned` harness versus the persistent
//!    pool — the per-execute overhead the pool removes.  A printed figure,
//!    not a guard: the tracked benchmark measures both sides with variance
//!    (`pool.dispatch_us`, `spmd.region_us`), and a ratio of two
//!    microsecond-scale single shots flaked on shared runners,
//! 2. **serial/pooled crossover sweep**: the same copy plan at growing
//!    sizes under the serial loop versus forced pooled dispatch — the
//!    measurement behind `ThreadedExecutor::DEFAULT_POOLED_CUTOFF_BYTES`,
//! 3. **class verb vs K array verbs** for the ghost exchange of a 4-field
//!    class on a 256k-element grid: one pool dispatch and one packed
//!    message per pair versus one dispatch and one message per field per
//!    pair — with exact byte conservation asserted.
//!
//! Custom harness (no criterion) because the run doubles as a CI guard:
//! the class verb must be **no slower** than one array verb per field at
//! 256k elements — a regression means the wire engine silently stopped
//! paying for itself.  Set `VF_E8_SKIP_GUARD=1` to report without
//! enforcing.
//!
//! Every measurement is also written to `BENCH_e8.json`
//! (`name → { ns_per_op, messages, bytes }`) so future changes can track
//! the perf trajectory machine-readably.

use std::sync::Arc;
use vf_bench::timing::{ns, time_min};
use vf_core::prelude::*;
use vf_machine::pool::WorkerPool;
use vf_machine::spmd;
use vf_runtime::ghost::{exchange_class_ghosts, exchange_ghosts};
use vf_runtime::CommPlan;

const PROCS: usize = 8;
const WORKERS: usize = 4;
const REPS: usize = 7;

/// One JSON record: `name → { ns_per_op, messages, bytes }`.
struct Record {
    name: &'static str,
    ns_per_op: f64,
    messages: usize,
    bytes: usize,
}

fn write_json(records: &[Record]) {
    let mut report = vf_bench::json::BenchReport::new();
    for r in records {
        report.record(r.name, r.ns_per_op, r.messages, r.bytes);
    }
    report.write("BENCH_e8.json", "VF_BENCH_JSON");
}

/// A shifted general-block repartition of `n` f64 elements, expressed as a
/// cached assignment `dst = src`: every pairwise overlap is one contiguous
/// run, the schedule is pre-planned into the cache, so each timed call is
/// exactly one executor pass over the runs — the dispatch cost plus the
/// memcpys, nothing else.
struct CopyFixture {
    src: DistArray<f64>,
    dst: DistArray<f64>,
    cache: PlanCache,
    plan: Arc<CommPlan>,
}

fn copy_fixture(n: usize) -> CopyFixture {
    let from = Distribution::new(
        DistType::block1d(),
        IndexDomain::d1(n),
        ProcessorView::linear(PROCS),
    )
    .unwrap();
    let even = n / PROCS;
    let mut sizes = vec![even; PROCS];
    // Shift a half-share from each processor to its neighbour.
    for i in 0..PROCS - 1 {
        sizes[i] -= even / 2;
        sizes[i + 1] += even / 2;
    }
    sizes[PROCS - 1] += n - sizes.iter().sum::<usize>();
    let to = Distribution::new(
        DistType::gen_block1d(sizes),
        IndexDomain::d1(n),
        ProcessorView::linear(PROCS),
    )
    .unwrap();
    let cache = PlanCache::new();
    let plan = cache.redistribute_plan(&from, &to).unwrap();
    let src = DistArray::from_fn("A", from, |pt| pt.coord(0) as f64);
    let dst: DistArray<f64> = DistArray::new("B", to);
    CopyFixture {
        src,
        dst,
        cache,
        plan,
    }
}

impl CopyFixture {
    fn run_ns<E: PlanExecutor>(&mut self, executor: &E, tracker: &CommTracker) -> f64 {
        let CopyFixture {
            src,
            dst,
            cache,
            plan: _,
        } = self;
        ns(time_min(REPS, || {
            vf_runtime::assign::assign(dst, src, tracker, cache, executor).unwrap()
        }))
    }

    /// The same per-destination copies driven straight through the
    /// fresh-spawn harness (new OS threads, channels and a barrier per
    /// call) — what a threaded execute cost before the pool existed.
    fn spawn_ns(&self, tracker: &CommTracker) -> f64 {
        ns(time_min(REPS, || {
            spmd::run_partitioned(WORKERS, tracker, PROCS, |_ctx, d| {
                let mut buf = vec![0.0f64; self.dst.dist().local_size(ProcId(d))];
                for t in self.plan.transfers().iter().filter(|t| t.dst.0 == d) {
                    let src = self.src.local(t.src);
                    for r in &t.runs {
                        buf[r.dst_start..r.dst_start + r.len]
                            .copy_from_slice(&src[r.src_start..r.src_start + r.len]);
                    }
                }
                buf
            })
        }))
    }
}

fn main() {
    println!("# E8 — persistent worker pool + wire-layout executor\n");
    let tracker = CommTracker::new(PROCS, CostModel::zero());
    let pool = Arc::new(WorkerPool::new(WORKERS));
    let pooled = ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0);
    let mut records = Vec::new();

    // 1. Dispatch latency at sub-cutoff plan sizes.  The *dispatch
    // latency* of a harness is what executing through it costs beyond the
    // copies themselves, so each ratio subtracts the serial time of the
    // identical plan (the pure memcpy work) from both sides.
    println!("## dispatch latency, fresh-spawn vs pooled ({WORKERS} workers)\n");
    println!("| plan bytes | serial (work) | fresh-spawn | pooled | dispatch ratio |");
    println!("|---|---|---|---|---|");
    for (label, n) in [("16 KiB", 2048usize), ("64 KiB", 8192)] {
        let mut fx = copy_fixture(n);
        let bytes = fx.plan.bytes_for(8);
        let messages = fx.plan.num_messages();
        let t_serial = fx.run_ns(&SerialExecutor, &tracker);
        let t_spawn = fx.spawn_ns(&tracker);
        let before = pool.jobs_dispatched();
        let t_pool = fx.run_ns(&pooled, &tracker);
        // The denominator clamp below protects against division by ~zero;
        // this assert protects against the clamp masking a backend that
        // silently stopped dispatching to the pool at all.
        assert!(
            pool.jobs_dispatched() > before,
            "the pooled executor did not dispatch to the pool"
        );
        let ratio = (t_spawn - t_serial).max(1.0) / (t_pool - t_serial).max(1.0);
        println!("| {label} | {t_serial:.0} ns | {t_spawn:.0} ns | {t_pool:.0} ns | {ratio:.1}x |");
        records.push(Record {
            name: if n == 2048 {
                "dispatch_spawn_16k"
            } else {
                "dispatch_spawn_64k"
            },
            ns_per_op: t_spawn,
            messages,
            bytes,
        });
        records.push(Record {
            name: if n == 2048 {
                "dispatch_pooled_16k"
            } else {
                "dispatch_pooled_64k"
            },
            ns_per_op: t_pool,
            messages,
            bytes,
        });
    }

    // 2. Serial vs pooled crossover sweep (informs the pooled cutoff
    // default; the crossover depends on core count, so no guard).
    println!("\n## serial vs pooled copy crossover\n");
    println!("| plan bytes | serial | pooled | pooled/serial |");
    println!("|---|---|---|---|");
    for n in [2048usize, 8192, 32768, 131072] {
        let mut fx = copy_fixture(n);
        let t_serial = fx.run_ns(&SerialExecutor, &tracker);
        let t_pool = fx.run_ns(&pooled, &tracker);
        println!(
            "| {} KiB | {t_serial:.0} ns | {t_pool:.0} ns | {:.2} |",
            n * 8 / 1024,
            t_pool / t_serial
        );
        if n == 32768 {
            records.push(Record {
                name: "crossover_serial_256k",
                ns_per_op: t_serial,
                messages: fx.plan.num_messages(),
                bytes: fx.plan.bytes_for(8),
            });
            records.push(Record {
                name: "crossover_pooled_256k",
                ns_per_op: t_pool,
                messages: fx.plan.num_messages(),
                bytes: fx.plan.bytes_for(8),
            });
        }
    }

    let fields = 4usize;
    let (dist, arrays) = vf_bench::fixtures::wire_class(PROCS, fields);
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let cache = PlanCache::new();
    let widths = vf_bench::fixtures::WIRE_WIDTHS;
    let plan = cache.ghost_plan(&dist, &widths).unwrap();
    let fused = FusedPlan::fuse(vec![Arc::clone(&plan); fields]).unwrap();
    println!(
        "\n## class ghost exchange, {fields} array verbs vs one class verb ({} elements)\n",
        dist.domain().size()
    );
    let array_verbs = || -> Vec<_> {
        refs.iter()
            .map(|a| exchange_ghosts(a, &plan, &tracker, &pooled).unwrap())
            .collect()
    };
    let class_verb = || exchange_class_ghosts(&refs, &fused, &tracker, &pooled).unwrap();
    let r_parts = array_verbs();
    let (r_wire, exec_wire) = class_verb();
    // Conservation is exact, not statistical: one message per communicating
    // pair for the class, the members' bytes summed, identical ghost slots.
    let parts_bytes: usize = r_parts.iter().map(|(_, report)| report.bytes).sum();
    let parts_messages: usize = r_parts.iter().map(|(_, report)| report.messages).sum();
    assert_eq!(
        exec_wire.messages,
        fused.num_messages(),
        "the class verb must charge exactly one message per communicating pair"
    );
    assert_eq!(parts_messages, fields * exec_wire.messages);
    assert_eq!(exec_wire.bytes, fused.bytes_for(8), "bytes not conserved");
    assert_eq!(exec_wire.bytes, parts_bytes, "bytes not conserved");
    for ((a, _), b) in r_parts.iter().zip(&r_wire) {
        for proc in dist.proc_ids() {
            assert_eq!(a.len(*proc), b.len(*proc), "ghost slot counts differ");
        }
    }
    let t_parts = ns(time_min(REPS, array_verbs));
    let t_wire = ns(time_min(REPS, class_verb));
    println!(
        "array verbs: {t_parts:.0} ns/step; class verb: {t_wire:.0} ns/step ({:.2}x)",
        t_wire / t_parts
    );
    println!(
        "messages/step: {} (pairs: {}), bytes/step: {}",
        exec_wire.messages,
        fused.num_messages(),
        exec_wire.bytes
    );
    records.push(Record {
        name: "ghost_array_verbs_256k",
        ns_per_op: t_parts,
        messages: parts_messages,
        bytes: parts_bytes,
    });
    records.push(Record {
        name: "ghost_fused_wire_256k",
        ns_per_op: t_wire,
        messages: exec_wire.messages,
        bytes: exec_wire.bytes,
    });

    write_json(&records);

    // CI guards.
    if std::env::var_os("VF_E8_SKIP_GUARD").is_some() {
        println!("\nguards skipped (VF_E8_SKIP_GUARD set)");
        return;
    }
    // Re-measure before declaring a regression on a noisy shared runner.
    let mut wire_ratio = t_wire / t_parts;
    for _ in 0..3 {
        if wire_ratio <= 1.0 {
            break;
        }
        wire_ratio = ns(time_min(REPS, class_verb)) / ns(time_min(REPS, array_verbs));
    }
    if wire_ratio > 1.0 {
        eprintln!(
            "FAIL: the class ghost exchange is {wire_ratio:.2}x the time of {fields} array verbs \
             at 256k elements (must be no slower)"
        );
        std::process::exit(1);
    }
    println!(
        "\nguard ok: class verb no slower than {fields} array verbs at 256k elements \
         ({wire_ratio:.2}x)"
    );
}
