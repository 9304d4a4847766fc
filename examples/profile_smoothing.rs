//! Profiled grid smoothing: the tracing subsystem end to end.
//!
//! Runs the Jacobi smoothing workload ([`smoothing::run`]) with span
//! recording on, then prints the runtime profile — per-phase span counts,
//! measured seconds and latency percentiles, plus the **drift** section
//! comparing the wall-clock seconds the spans measured against the seconds
//! the cost model charged — and leaves a Chrome `trace_event` file behind.
//!
//! Run with `cargo run --release -p vf-examples --bin profile_smoothing
//! [N] [procs] [steps]`.  Load the written trace at `ui.perfetto.dev`
//! (one lane per pool worker, lane 0 for the calling thread).
//!
//! Tracing is enabled programmatically here; ordinary programs opt in with
//! `VF_TRACE=1` and call [`trace::write_chrome_trace_if_env`] on exit.

use vf_apps::smoothing::{self, SmoothingConfig};
use vf_apps::workloads;
use vf_core::prelude::*;
use vf_runtime::trace;

fn arg(n: usize, default: usize) -> usize {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let n = arg(1, 96);
    let procs = arg(2, 8);
    let steps = arg(3, 6);

    trace::set_enabled(true);
    trace::reset();

    let cost = CostModel::ipsc860(procs);
    let layout = smoothing::choose_layout(n, procs, &cost);
    let machine = Machine::new(procs, cost);
    let initial = workloads::initial_grid(n, 3);
    println!("profiled smoothing: {n}x{n} grid, {procs} procs, {steps} steps, layout {layout:?}\n");
    let result = smoothing::run(&SmoothingConfig { n, steps, layout }, &machine, &initial);
    println!(
        "{} messages/step, {} bytes/step\n",
        result.messages_per_step, result.bytes_per_step
    );

    // The profile table: spans by phase, then measured-vs-modelled drift.
    // The modelled side simulates the configured iPSC/860, so the ratio —
    // not its absolute value — is the signal to watch across runs.
    print!("{}", machine.metrics_report(&result.stats));

    let path = std::env::var("VF_TRACE_OUT").unwrap_or_else(|_| "trace_smoothing.json".into());
    trace::write_chrome_trace(std::path::Path::new(&path)).unwrap();
    let events = trace::snapshot().events.len();
    println!("\nwrote {path} ({events} events) — load it at ui.perfetto.dev");
}
