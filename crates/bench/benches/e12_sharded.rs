//! E12 — distributed-memory backend cost: rank-local shards over real
//! SPMD channels versus the shared-memory wire path.
//!
//! The sharded executor moves every fused halo message through a real
//! channel (pack into a frame → move → verify → decode in place, one
//! SPMD region per exchange) where the shared wire path memcpys the
//! packed buffer across a `Vec`.  Each rank borrows its own segment of
//! the live arrays, so the 8 MB of field data on this fixture are never
//! copied for a 56 KB halo; what remains over the shared path is the
//! region launch and the channel hand-off.  The guard is therefore a
//! **bounded factor**, not parity: on the e8 fixture (4-field stencil
//! class, (:, BLOCK) over a 128x2048 grid, 256k elements per field) the
//! sharded exchange must stay within **4x** of the shared wire exchange
//! measured back to back in the same process — the ROADMAP's bound.
//! Measured on a 2-core host with the 8 ranks on the pool: 1.3–2.1x
//! idle (78–137 us against 54–64 us), 1.8–2.5x with a third busy
//! thread competing; `VF_E12_MAX_FACTOR` overrides the limit.
//!
//! Custom harness (no criterion): emits `BENCH_e12.json`
//! (`VF_E12_BENCH_JSON` overrides the path) recording both times, the
//! factor, and the per-exchange wire traffic — which the harness also
//! cross-checks against the tracker's *real* channel counters before
//! timing anything.  `VF_E12_SKIP_GUARD=1` skips the timing guard on
//! hosts too noisy to time reliably; the traffic cross-check always
//! runs.

use std::sync::Arc;
use vf_bench::timing::{ns, time_min};
use vf_core::prelude::*;
use vf_machine::pool::WorkerPool;
use vf_runtime::ghost::exchange_class_ghosts;

const PROCS: usize = 8;
const REPS: usize = 7;

fn main() {
    println!("# E12 — sharded (real channels) vs shared wire ghost exchange\n");
    let fields = 4usize;
    let (dist, arrays) = vf_bench::fixtures::wire_class(PROCS, fields);
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let cache = PlanCache::new();
    let widths = vf_bench::fixtures::WIRE_WIDTHS;
    let plan = cache.ghost_plan(&dist, &widths).unwrap();
    let fused = FusedPlan::fuse(vec![plan; fields]).unwrap();

    let pool = Arc::new(WorkerPool::new(PROCS));
    let pooled = ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0);
    let sharded_exec = ShardedExecutor::with_pool(Arc::clone(&pool));

    // Correctness + traffic cross-check before timing: the sharded ghost
    // values are bitwise the shared wire values, and the channel moved
    // exactly the modelled wire bytes.
    let t_shared = CommTracker::new(PROCS, CostModel::zero());
    let (g_shared, exec) = exchange_class_ghosts(&refs, &fused, &t_shared, &pooled).unwrap();
    let t_sharded = CommTracker::new(PROCS, CostModel::zero());
    let (g_sharded, exec_sharded) =
        exchange_class_ghosts(&refs, &fused, &t_sharded, &sharded_exec).unwrap();
    assert_eq!(exec, exec_sharded, "sharded exec report diverges");
    for (field, (gs, gw)) in g_sharded.iter().zip(&g_shared).enumerate() {
        for q in 0..PROCS {
            for point in dist.domain().iter() {
                assert_eq!(
                    gs.get(ProcId(q), &point),
                    gw.get(ProcId(q), &point),
                    "field {field} ghost mismatch at P{q}"
                );
            }
        }
    }
    let stats = t_sharded.snapshot();
    assert_eq!(
        stats.channel_messages(),
        exec.messages,
        "real vs modelled messages"
    );
    assert_eq!(stats.channel_bytes(), exec.bytes, "real vs modelled bytes");
    println!(
        "traffic cross-check ok: {} channel messages, {} bytes == modelled wire traffic\n",
        exec.messages, exec.bytes
    );

    let tracker = CommTracker::new(PROCS, CostModel::zero());
    let shared = || {
        exchange_class_ghosts(&refs, &fused, &tracker, &pooled)
            .unwrap()
            .1
    };
    let sharded = || {
        exchange_class_ghosts(&refs, &fused, &tracker, &sharded_exec)
            .unwrap()
            .1
    };

    let measure = || {
        let s = ns(time_min(REPS, shared));
        let d = ns(time_min(REPS, sharded));
        (s, d)
    };
    let (mut shared_ns, mut sharded_ns) = measure();
    let mut factor = sharded_ns / shared_ns;

    println!("## fused 4-field halo, 256k elements per field, {PROCS} ranks\n");
    println!("| path | exchange | factor |");
    println!("|---|---|---|");
    println!(
        "| shared wire (pooled) | {:.0} us | 1.00x |",
        shared_ns / 1e3
    );
    println!(
        "| sharded (real channels) | {:.0} us | {:.2}x |",
        sharded_ns / 1e3,
        factor
    );

    let mut report = vf_bench::json::BenchReport::new();
    report.record(
        "ghost_fused_wire_256k_shared",
        shared_ns,
        exec.messages,
        exec.bytes,
    );
    report.record(
        "ghost_fused_sharded_256k",
        sharded_ns,
        exec.messages,
        exec.bytes,
    );
    report
        .entry("sharded_over_shared")
        .ratio("factor", factor)
        .int("channel_messages", stats.channel_messages())
        .int("channel_bytes", stats.channel_bytes());
    report.write("BENCH_e12.json", "VF_E12_BENCH_JSON");

    if std::env::var_os("VF_E12_SKIP_GUARD").is_some() {
        println!("\nguard skipped (VF_E12_SKIP_GUARD set)");
        return;
    }
    let limit: f64 = std::env::var("VF_E12_MAX_FACTOR")
        .ok()
        .and_then(|raw| raw.trim().parse().ok())
        .unwrap_or(4.0);
    // Re-measure before declaring a regression on a noisy shared runner.
    for _ in 0..3 {
        if factor <= limit {
            break;
        }
        let (s, d) = measure();
        shared_ns = s;
        sharded_ns = d;
        factor = sharded_ns / shared_ns;
    }
    if factor > limit {
        eprintln!(
            "FAIL: sharded exchange is {factor:.1}x the shared wire path (limit {limit:.0}x)"
        );
        std::process::exit(1);
    }
    println!("\nguard ok: sharded/shared factor {factor:.2}x (limit {limit:.0}x)");
}
