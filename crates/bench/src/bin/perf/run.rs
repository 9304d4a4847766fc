//! One run of one workload: the child process that builds, repeats and
//! verifies it, and the parent that starts the children with a scrubbed
//! environment and assembles the result.

use crate::adapter::{self, Ledger, Phase};
use crate::json::Json;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::{self, Spans};
use crate::stats::{iqr, median, tail};
use crate::workloads::{self, Workload};
use std::ffi::OsString;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Flip one bit of every repetition's output before it is verified.
    pub perturb: bool,
}

/// Fresh processes per untraced run.  Each sets up and then measures for
/// its share of `--seconds`; the run reports medians over all of them.
/// Several short-lived processes, not one long one, because a process's
/// repetition time depends on where its pages and threads happened to land.
const PROCESSES_PER_RUN: usize = 5;
/// Fewest repetitions of a pass, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Most traced repetitions (the program's tracer keeps every event).
const MAX_TRACED_REPS: usize = 25;
/// Samples above the reported tail statistic.
const TAIL_ABOVE: usize = 10;

/// Where the benchmark keeps what it writes: inside the checkout, under
/// the build directory.
pub fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| OsString::from("target"));
    PathBuf::from(target).join("perf")
}

/// Logical cores of the host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process, from `VmHWM` in `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|kb| kb.parse().ok())
        .ok_or("unreadable VmHWM")?;
    Ok(kb / 1024.0)
}

// ---------------------------------------------------------------------------
// The child
// ---------------------------------------------------------------------------

/// A pass's repetitions: their timings, the ledger of the first one, and
/// the checks.
#[derive(Default)]
struct Pass {
    samples: Vec<f64>,
    ledger: Ledger,
    failed: usize,
    /// Exact counts that differed from the pass's first repetition.
    drift: usize,
}

impl Pass {
    /// One more repetition: timed, then — outside the clock — its ledger
    /// read and its output verified.  Closed loop, one client: the next
    /// repetition starts when this one has returned and been checked.
    fn rep(&mut self, workload: &mut dyn Workload, spans: &Spans, perturb: bool) {
        spans.set_rep(1 + self.samples.len() as u32);
        let jobs_before = adapter::pool_jobs();
        let start = Instant::now();
        spans.time("rep", || workload.rep(spans));
        let seconds = start.elapsed().as_secs_f64();
        let mut ledger = workload.ledger();
        ledger.pool_jobs = adapter::pool_jobs() - jobs_before;
        let verified = workload.verify(perturb);
        self.book(seconds, ledger, verified);
    }

    /// Books a finished repetition.  It fails when its output did not
    /// verify, and also when one of its exact counts differs from the
    /// pass's first repetition: the † counts must repeat bit-for-bit.
    fn book(&mut self, seconds: f64, ledger: Ledger, verified: bool) {
        if self.samples.is_empty() {
            self.ledger = ledger;
        }
        self.samples.push(seconds);
        let (now, first) = (ledger.exact(), self.ledger.exact());
        let differing = now.iter().zip(&first).filter(|(a, b)| a != b).count();
        self.drift = self.drift.max(differing);
        if !verified || differing > 0 {
            self.failed += 1;
        }
    }
}

/// Runs the child's part of `args` and returns its report: set-up, then
/// `args.seconds` of verified repetitions.  Untraced, the report carries
/// the raw timings for the parent to pool; traced, the per-layer metrics.
pub fn child(args: &RunArgs) -> Result<Json, String> {
    let process_start = Instant::now();
    adapter::trace::set_enabled(false);
    let scratch = scratch_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut workload = workloads::build(&args.workload, args.seed, &scratch)
        .ok_or_else(|| format!("no workload is called {}", args.workload))?;
    let on = Spans::new(args.trace);
    let off = Spans::new(false);

    // Set-up ends with one cold repetition: plan-cache misses, the
    // inspector, first-touch page faults.
    on.time("rep", || workload.rep(&on));
    let setup_s = process_start.elapsed().as_secs_f64();
    workload.ledger();
    let mut attempted = 1;
    let mut failed = usize::from(!workload.verify(args.perturb));

    let budget = Duration::from_secs_f64(args.seconds);
    let mut report = vec![("setup_s", Json::Num(setup_s))];
    let begin = Instant::now();
    if !args.trace {
        let mut pass = Pass::default();
        while pass.samples.len() < MIN_REPS || begin.elapsed() < budget {
            pass.rep(workload.as_mut(), &off, args.perturb);
        }
        attempted += pass.samples.len();
        failed += pass.failed;
        let exact: Vec<f64> = pass.ledger.exact().iter().map(|c| *c as f64).collect();
        report.extend([
            ("samples", Json::nums(&pass.samples)),
            ("peak_rss_mb", Json::Num(peak_rss_mb()?)),
            ("work", Json::Num(workload.work())),
            ("work_unit", Json::Str(workload.unit().into())),
            ("model_critical_s", Json::Num(pass.ledger.critical_s)),
            ("exact_counts", Json::nums(&exact)),
            ("count_drift", Json::Num(pass.drift as f64)),
        ]);
    } else {
        // Untraced and traced repetitions alternate, so both passes see
        // the same process age and host weather and their ratio is the
        // tracer's cost alone.  The last fifth of the budget is the probes'.
        let (mut base, mut traced) = (Pass::default(), Pass::default());
        adapter::trace::reset();
        while traced.samples.len() < MIN_REPS
            || (begin.elapsed() < budget.mul_f64(0.8) && traced.samples.len() < MAX_TRACED_REPS)
        {
            base.rep(workload.as_mut(), &off, args.perturb);
            adapter::trace::set_enabled(workload.traces_program());
            traced.rep(workload.as_mut(), &on, args.perturb);
            adapter::trace::set_enabled(false);
        }
        attempted += base.samples.len() + traced.samples.len();
        failed += base.failed + traced.failed;
        let mut m = Metrics::zeroed(&PER_LAYER);
        let spans = on.all();
        layer_metrics(&mut m, workload.as_ref(), &base, &traced, &spans);
        adapter::trace::reset();
        workload.probes(&mut m, median(&base.samples));
        probes::pool_dispatch(&mut m);
        let path = scratch.join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, spans::chrome_json(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.push(("chrome_trace", Json::Str(path.display().to_string())));
        report.push(("metrics", m.to_json()));
    }
    report.push(("attempted", Json::Num(attempted as f64)));
    report.push(("failed", Json::Num(failed as f64)));
    Ok(Json::obj(report))
}

/// The per-layer metrics that come from the two passes themselves: the
/// harness's spans (S), the counters (C) and the program's phase profile (T).
fn layer_metrics(
    m: &mut Metrics,
    workload: &dyn Workload,
    base: &Pass,
    traced: &Pass,
    spans: &[spans::Span],
) {
    let reps = traced.samples.len() as f64;
    let wall: f64 = traced.samples.iter().sum();
    let run_s = median(&base.samples);

    // (S) spans around the statements of the warm repetitions.
    let warm = |name: &str| spans::durations(spans, name, 1);
    let median_ms = |name: &str| {
        let durations = warm(name);
        if durations.is_empty() {
            0.0
        } else {
            median(&durations) * 1e3
        }
    };
    let share = |names: &[&str]| {
        names
            .iter()
            .flat_map(|n| warm(n))
            .fold(0.0, |sum, s| sum + s)
            / wall
    };
    m.set("redistribute.stmt_ms", median_ms("distribute"));
    let cold = spans::durations(spans, "distribute-cold", 0);
    if !cold.is_empty() {
        m.set(
            "redistribute.first_ms",
            cold.iter().sum::<f64>() / cold.len() as f64 * 1e3,
        );
    }
    m.set("redistribute.share", share(&["distribute"]));
    m.set("ghost.stmt_ms", median_ms("halo"));
    m.set("ghost.split_post_ms", median_ms("halo-post"));
    m.set("ghost.split_wait_ms", median_ms("halo-wait"));
    m.set("ghost.share", share(&["halo", "halo-post", "halo-wait"]));
    m.set("checkpoint.save_ms", median_ms("save"));
    m.set("checkpoint.restore_ms", median_ms("restore"));
    m.set("checkpoint.restore_into_ms", median_ms("restore-into"));
    m.set(
        "checkpoint.share",
        share(&["save", "restore", "restore-into"]),
    );

    // (C) what one warm repetition charged and counted.
    let ledger = &traced.ledger;
    m.set("model.critical_s", ledger.critical_s);
    m.set("model.comm_s", ledger.comm_s);
    m.set("model.compute_s", ledger.compute_s);
    m.set("model.messages", ledger.messages as f64);
    m.set("model.bytes", ledger.bytes as f64);
    m.set("model.retries", ledger.retries as f64);
    m.set("model.fallbacks", ledger.fallbacks as f64);
    m.set("spmd.channel_messages", ledger.channel_messages as f64);
    m.set("spmd.channel_bytes", ledger.channel_bytes as f64);
    m.set("checkpoint.bytes_written", ledger.ckpt_written as f64);
    m.set("checkpoint.bytes_read", ledger.ckpt_read as f64);
    let lookups = ledger.plan_hits + ledger.plan_misses;
    if lookups > 0 {
        m.set(
            "plan.cache_hit_ratio",
            ledger.plan_hits as f64 / lookups as f64,
        );
    }
    m.set("plan.cache_bytes", ledger.plan_bytes as f64);
    m.set("translation.page_fetches", ledger.page_fetches as f64);
    m.set("pool.jobs_per_rep", ledger.pool_jobs as f64);
    // MB/s figures are computed bytes over time, not measured traffic.
    let per_second = |bytes: u64, ms: f64| {
        if ms > 0.0 {
            bytes as f64 / 1e6 / (ms / 1e3)
        } else {
            0.0
        }
    };
    m.set(
        "checkpoint.save_mb_per_s",
        per_second(ledger.ckpt_written, m.get("checkpoint.save_ms")),
    );
    m.set(
        "checkpoint.restore_mb_per_s",
        per_second(ledger.ckpt_read / 2, m.get("checkpoint.restore_ms")),
    );

    // (T) the program's own phase profile, per repetition.
    let profile = adapter::trace::metrics();
    for phase in [
        Phase::Plan,
        Phase::Fuse,
        Phase::WirePack,
        Phase::Post,
        Phase::Unpack,
        Phase::Wait,
        Phase::PoolDispatch,
        Phase::InteriorCompute,
        Phase::Redistribute,
        Phase::GhostExchange,
        Phase::Gather,
        Phase::PageFetch,
        Phase::CkptWrite,
        Phase::CkptRead,
        Phase::Statement,
        Phase::Step,
    ] {
        m.set(
            &format!("trace.{}_ms", phase.name()),
            profile.seconds(phase) / reps * 1e3,
        );
    }
    m.set(
        "apps.compute_share",
        profile.seconds(Phase::InteriorCompute) / wall,
    );
    let caller = adapter::trace_caller_spans();
    m.set(
        "trace.coverage",
        spans::covered_ns(&caller, 0, u64::MAX) as f64 / 1e9 / wall,
    );
    m.set("trace.overhead_ratio", median(&traced.samples) / run_s);
    m.set("apps.seq_reference_ms", workload.reference_ms());
    m.set("apps.vs_seq_ratio", workload.reference_ms() / (run_s * 1e3));

    m.set("harness.reps", reps);
    m.set("harness.untraced_reps", base.samples.len() as f64);
    m.set("harness.run_s", run_s);
    if let Some((value, percentile)) = tail(&base.samples, TAIL_ABOVE) {
        m.set("harness.run_s_tail", value);
        m.set("harness.run_s_tail_pct", percentile);
    }
    m.set("harness.run_s_iqr", iqr(&base.samples));
    m.set("harness.traced_run_s", median(&traced.samples));
    m.set("harness.span_coverage", spans::leaf_seconds(spans) / wall);
    m.set("harness.count_drift", base.drift.max(traced.drift) as f64);
}

// ---------------------------------------------------------------------------
// The parent
// ---------------------------------------------------------------------------

/// Removes every ambient `VF_*` variable from `command`'s environment and
/// sets the backend the workload needs — the only `VF_*` variable a child
/// ever sees.
pub fn scrub_env(command: &mut Command, ambient: impl Iterator<Item = OsString>, workload: &str) {
    for key in ambient {
        if key.to_string_lossy().starts_with("VF_") {
            command.env_remove(key);
        }
    }
    if let Some(backend) = workloads::backend_env(workload) {
        command.env("VF_EXEC_BACKEND", backend);
    }
}

fn spawn_child(args: &RunArgs) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("--child")
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.perturb {
        command.arg("--perturb");
    }
    let ambient = std::env::vars_os().map(|(key, _)| key);
    scrub_env(&mut command, ambient, &args.workload);
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("starting the {} child: {e}", args.workload))?;
    if !output.status.success() {
        return Err(format!(
            "the {} child ended with {}",
            args.workload, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    Json::parse(last).map_err(|e| format!("the child's report: {e}"))
}

/// The result of one run: the contract's result line plus what a sweep
/// keeps for `--compare`.
pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    /// `{name: {"value", "unit"}}` for the pass's metric list.
    pub metrics: Json,
    /// What else the children reported (samples, units, paths).
    pub detail: Json,
}

impl RunResult {
    /// The last line of standard output the contract asks for.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics.clone()),
        ])
        .render()
    }
}

fn number(report: &Json, key: &str) -> Result<f64, String> {
    let value = report.get(key).and_then(Json::num);
    value.ok_or_else(|| format!("a child's report has no {key}"))
}

fn numbers(report: &Json, key: &str) -> Result<Vec<f64>, String> {
    let items = report.get(key).map(Json::items);
    let items = items.ok_or_else(|| format!("a child's report has no {key}"))?;
    Ok(items.iter().filter_map(Json::num).collect())
}

/// Runs `args.workload` in child processes.  Traced: one child, which
/// reports the per-layer metrics.  Untraced: `PROCESSES_PER_RUN` children
/// one after the other, each measuring for its share of `args.seconds`;
/// every end-to-end metric is the median over the processes of the
/// process's own value (for `run_s`, the median of its repetitions).
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    if args.trace {
        let report = spawn_child(args)?;
        let metrics = report.get("metrics").cloned();
        return Ok(RunResult {
            attempted: number(&report, "attempted")? as usize,
            failed: number(&report, "failed")? as usize,
            metrics: metrics.ok_or("the traced child reported no metrics")?,
            detail: report,
        });
    }
    let mut share = args.clone();
    share.seconds = args.seconds / PROCESSES_PER_RUN as f64;
    let (mut attempted, mut failed, mut drift) = (0.0, 0.0, 0.0_f64);
    let (mut samples, mut runs, mut setups, mut peaks) = (vec![], vec![], vec![], vec![]);
    let mut first: Option<Json> = None;
    for _ in 0..PROCESSES_PER_RUN {
        let report = spawn_child(&share)?;
        attempted += number(&report, "attempted")?;
        failed += number(&report, "failed")?;
        drift = drift.max(number(&report, "count_drift")?);
        let repetitions = numbers(&report, "samples")?;
        runs.push(median(&repetitions));
        samples.extend(repetitions);
        setups.push(number(&report, "setup_s")?);
        peaks.push(number(&report, "peak_rss_mb")?);
        // The exact counts must also repeat from process to process; a
        // process whose counts differ from the first's fails like a
        // repetition whose output does not verify.
        match &first {
            Some(first) if first.get("exact_counts") != report.get("exact_counts") => {
                drift = drift.max(1.0);
                failed += 1.0;
            }
            Some(_) => {}
            None => first = Some(report),
        }
    }
    let first = first.ok_or("no child ran")?;
    let run_s = median(&runs);
    let mut m = Metrics::zeroed(&END_TO_END);
    m.set("setup_s", median(&setups));
    m.set("run_s", run_s);
    m.set("work_per_s", number(&first, "work")? / run_s);
    m.set("peak_rss_mb", median(&peaks));
    let detail = Json::obj([
        ("samples", Json::nums(&samples)),
        ("run_s_samples", Json::nums(&runs)),
        ("setup_samples", Json::nums(&setups)),
        ("peak_rss_samples", Json::nums(&peaks)),
        (
            "work_unit",
            first.get("work_unit").cloned().unwrap_or(Json::Null),
        ),
        (
            "model_critical_s",
            Json::Num(number(&first, "model_critical_s")?),
        ),
        ("count_drift", Json::Num(drift)),
    ]);
    Ok(RunResult {
        attempted: attempted as usize,
        failed: failed as usize,
        metrics: m.to_json(),
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_sees_no_ambient_vf_variable() {
        let ambient = [
            "VF_TRACE",
            "VF_FAULT_SEED",
            "VF_FAULT_RATE",
            "VF_EXEC_CUTOFF",
            "VF_EXEC_BACKEND",
            "PATH",
            "HOME",
        ];
        let removed = |workload: &str| {
            let mut command = Command::new("perf");
            scrub_env(&mut command, ambient.iter().map(OsString::from), workload);
            let envs: Vec<(String, Option<String>)> = command
                .get_envs()
                .map(|(k, v)| {
                    (
                        k.to_string_lossy().into_owned(),
                        v.map(|v| v.to_string_lossy().into_owned()),
                    )
                })
                .collect();
            envs
        };
        let shared = removed("stmt-shared");
        for key in [
            "VF_TRACE",
            "VF_FAULT_SEED",
            "VF_FAULT_RATE",
            "VF_EXEC_CUTOFF",
            "VF_EXEC_BACKEND",
        ] {
            assert!(
                shared.contains(&(key.to_string(), None)),
                "{key} reaches the child"
            );
        }
        assert!(
            !shared.iter().any(|(k, _)| k == "PATH" || k == "HOME"),
            "only VF_* is touched"
        );
        // The sharded workload gets the backend, and nothing else, back.
        let sharded = removed("stmt-sharded");
        assert!(sharded.contains(&("VF_EXEC_BACKEND".to_string(), Some("sharded".to_string()))));
        assert!(sharded.contains(&("VF_TRACE".to_string(), None)));
        assert_eq!(sharded.iter().filter(|(_, v)| v.is_some()).count(), 1);
    }

    #[test]
    fn a_repetition_whose_exact_counts_drift_fails() {
        let ledger = |messages| Ledger {
            messages,
            ..Ledger::default()
        };
        let mut pass = Pass::default();
        pass.book(0.1, ledger(28), true);
        pass.book(0.1, ledger(28), true);
        assert_eq!((pass.failed, pass.drift), (0, 0));
        pass.book(0.1, ledger(29), true);
        assert_eq!((pass.failed, pass.drift), (1, 1), "verified, but drifted");
        pass.book(0.1, ledger(28), false);
        assert_eq!((pass.failed, pass.drift, pass.samples.len()), (2, 1, 4));
    }

    #[test]
    fn the_result_line_has_exactly_the_contracts_keys() {
        let result = RunResult {
            attempted: 32,
            failed: 1,
            metrics: Json::obj([(
                "run_s",
                Json::obj([("value", Json::Num(0.25)), ("unit", Json::Str("s".into()))]),
            )]),
            detail: Json::Null,
        };
        let line = Json::parse(&result.result_line()).unwrap();
        let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }
}
