//! E11 — tracing overhead: disabled tracing must be free, enabled tracing
//! must be cheap.
//!
//! The tracing subsystem promises zero cost when `VF_TRACE` is off (one
//! relaxed atomic load per would-be span) and lock-minimal recording when
//! it is on.  This bench holds it to that on the e8 wire fixture (a
//! 4-field stencil class, (:, BLOCK) over a 128x2048 grid, whole-column
//! halo faces through the pooled wire executor):
//!
//! 1. **disabled**: the exchange with tracing forced off must stay within
//!    **2%** of the `ghost_fused_wire_256k` baseline that `BENCH_e8.json`
//!    recorded earlier in the same run (guard skipped with a note when the
//!    artifact is absent — run the e8 bench first),
//! 2. **enabled**: the same exchange with tracing on — spans recorded on
//!    every pack/post/unpack/wait — must cost at most **10%** over the
//!    disabled time, measured in-process back to back.
//!
//! Custom harness (no criterion): the run doubles as both CI guards,
//! emits `BENCH_e11.json` (`VF_E11_BENCH_JSON` overrides the path) and
//! writes the enabled run's Chrome trace to `trace_e11.json`
//! (`VF_E11_TRACE_OUT` overrides).  `VF_E11_SKIP_GUARD=1` skips the timing
//! guards on hosts too noisy to time 2% reliably; the span-presence
//! asserts always run.

use std::sync::Arc;
use vf_bench::timing::{ns, time_min};
use vf_core::prelude::*;
use vf_machine::pool::WorkerPool;
use vf_machine::trace;
use vf_runtime::ghost::exchange_class_ghosts;

const PROCS: usize = 8;
const WORKERS: usize = 4;
const REPS: usize = 9;

/// The `ns_per_op` of `name` in the flat `BENCH_e*.json` schema the shared
/// writer renders, or `None` when the file or the entry is absent.
fn baseline_ns_per_op(path: &str, name: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let entry = text.split(&format!("\"{name}\"")).nth(1)?;
    let tail = entry.split("\"ns_per_op\":").nth(1)?;
    let value: String = tail
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    value.parse().ok()
}

fn main() {
    println!("# E11 — tracing overhead on the e8 wire path\n");
    let fields = 4usize;
    let (dist, arrays) = vf_bench::fixtures::wire_class(PROCS, fields);
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let cache = PlanCache::new();
    let tracker = CommTracker::new(PROCS, CostModel::zero());
    let pool = Arc::new(WorkerPool::new(WORKERS));
    let pooled = ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0);
    let widths = vf_bench::fixtures::WIRE_WIDTHS;
    let plan = cache.ghost_plan(&dist, &widths).unwrap();
    let fused = FusedPlan::fuse(vec![plan; fields]).unwrap();
    let exchange = || {
        exchange_class_ghosts(&refs, &fused, &tracker, &pooled)
            .unwrap()
            .1
    };
    let exec = exchange();

    // 1. Disabled: the default state unless the caller exported VF_TRACE.
    trace::set_enabled(false);
    let measure_disabled = || ns(time_min(REPS, exchange));
    let mut disabled_ns = measure_disabled();

    // 2. Enabled: same exchange, every phase recording spans.
    trace::set_enabled(true);
    trace::reset();
    let enabled_ns = ns(time_min(REPS, exchange));
    let snap = trace::snapshot();
    for phase in [
        trace::Phase::GhostExchange,
        trace::Phase::Post,
        trace::Phase::Unpack,
        trace::Phase::Wait,
    ] {
        assert!(
            snap.count(phase) > 0,
            "enabled run recorded no {} spans",
            phase.name()
        );
    }
    let trace_path = std::env::var("VF_E11_TRACE_OUT").unwrap_or_else(|_| "trace_e11.json".into());
    trace::write_chrome_trace(std::path::Path::new(&trace_path)).unwrap();
    trace::set_enabled(false);
    let mut ratio = enabled_ns / disabled_ns;

    println!("## wire exchange, tracing disabled vs enabled\n");
    println!("| variant | exchange | ratio |");
    println!("|---|---|---|");
    println!("| disabled | {:.0} us | 1.000x |", disabled_ns / 1e3);
    println!(
        "| enabled ({} events) | {:.0} us | {:.3}x |",
        snap.events.len(),
        enabled_ns / 1e3,
        ratio
    );
    println!("\nwrote {trace_path} ({} events)", snap.events.len());

    let mut report = vf_bench::json::BenchReport::new();
    report.record(
        "wire_trace_disabled_256k",
        disabled_ns,
        exec.messages,
        exec.bytes,
    );
    report.record(
        "wire_trace_enabled_256k",
        enabled_ns,
        exec.messages,
        exec.bytes,
    );
    report
        .entry("trace_overhead")
        .ratio("enabled_over_disabled", ratio)
        .int("events_recorded", snap.events.len());
    let baseline = baseline_ns_per_op("BENCH_e8.json", "ghost_fused_wire_256k");
    if let Some(b) = baseline {
        report
            .entry("disabled_vs_e8_baseline")
            .num("baseline_ns_per_op", b)
            .ratio("ratio", disabled_ns / b);
    }
    report.write("BENCH_e11.json", "VF_E11_BENCH_JSON");

    // CI guards.  Re-measure before declaring a regression on a noisy
    // shared runner.
    if std::env::var_os("VF_E11_SKIP_GUARD").is_some() {
        println!("\nguards skipped (VF_E11_SKIP_GUARD set)");
        return;
    }
    match baseline {
        None => println!(
            "\nguard skipped: no BENCH_e8.json in the working directory \
             (run the e8 bench first for the disabled-overhead guard)"
        ),
        Some(baseline_ns) => {
            let mut vs_e8 = disabled_ns / baseline_ns;
            for _ in 0..3 {
                if vs_e8 <= 1.02 {
                    break;
                }
                disabled_ns = measure_disabled();
                vs_e8 = disabled_ns / baseline_ns;
            }
            if vs_e8 > 1.02 {
                eprintln!(
                    "FAIL: disabled tracing costs {:.1}% over the e8 wire baseline (limit 2%)",
                    (vs_e8 - 1.0) * 100.0
                );
                std::process::exit(1);
            }
            println!(
                "\nguard ok: disabled-tracing overhead vs e8 baseline {:.1}% (limit 2%)",
                (vs_e8 - 1.0) * 100.0
            );
        }
    }
    for _ in 0..3 {
        if ratio <= 1.10 {
            break;
        }
        let d = measure_disabled();
        trace::set_enabled(true);
        trace::reset();
        let e = ns(time_min(REPS, exchange));
        trace::set_enabled(false);
        ratio = e / d;
    }
    if ratio > 1.10 {
        eprintln!(
            "FAIL: enabled tracing costs {:.1}% on the wire path (limit 10%)",
            (ratio - 1.0) * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "guard ok: enabled-tracing overhead {:.1}% (limit 10%)",
        (ratio - 1.0) * 100.0
    );
}
