//! `perf` — the repository's benchmark: seven workloads, four end-to-end
//! metrics each, and a per-layer ledger.  See `README.md` beside this file.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (BENCHMARK.json's command)
//! perf [--seed <n>] [--seconds <s>] [--reverse] [--out <file>]    every workload, both passes
//! perf --compare A.json B.json                                    two sweeps, cell by cell
//! ```

mod adapter;
mod compare;
mod json;
mod metrics;
mod oracle;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use json::Json;
use run::RunArgs;
use std::process::ExitCode;

const USAGE: &str = "usage: perf --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
                     \x20      perf [--seed <n>] [--seconds <s>] [--reverse] [--out <file>]\n\
                     \x20      perf --compare A.json B.json";

struct Cli {
    run: RunArgs,
    /// This process is one of a run's children.
    child: bool,
    compare: Option<(String, String)>,
    reverse: bool,
    out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        run: RunArgs {
            workload: String::new(),
            seed: 1,
            seconds: 5.0,
            trace: false,
            perturb: false,
        },
        child: false,
        compare: None,
        reverse: false,
        out: None,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => cli.run.workload = value()?,
            "--seed" => {
                cli.run.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                cli.run.seconds = seconds;
            }
            "--trace" => {
                cli.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--perturb" => cli.run.perturb = true,
            "--child" => cli.child = true,
            "--compare" => cli.compare = Some((value()?, value()?)),
            "--reverse" => cli.reverse = true,
            "--out" => cli.out = Some(value()?),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !cli.run.workload.is_empty() && !workloads::NAMES.contains(&cli.run.workload.as_str()) {
        return Err(format!(
            "no workload is called {}; there are {}",
            cli.run.workload,
            workloads::NAMES.join(", ")
        ));
    }
    Ok(cli)
}

/// Prints every metric of a result by name, with its unit.
fn print_metrics(workload: &str, metrics: &Json) {
    for (name, cell) in metrics.entries() {
        let value = cell.get("value").and_then(Json::num).unwrap_or(f64::NAN);
        let unit = cell.get("unit").and_then(Json::str).unwrap_or("");
        println!("{workload:18} {name:28} {value:>16.6} {unit}");
    }
}

/// The spread of an untraced run's pooled repetition timings — count, IQR
/// and the order statistic with exactly ten samples above it — and the
/// run's count drift (a run that drifted has failed).
fn print_spread(workload: &str, detail: &Json) {
    let samples = detail.get("samples").map_or(&[][..], Json::items);
    let samples: Vec<f64> = samples.iter().filter_map(Json::num).collect();
    if samples.is_empty() {
        return;
    }
    println!(
        "{workload:18} {:28} {:>16} reps",
        "repetitions",
        samples.len()
    );
    println!(
        "{workload:18} {:28} {:>16.6} s",
        "run_s_iqr",
        stats::iqr(&samples)
    );
    if let Some((value, percentile)) = stats::tail(&samples, 10) {
        println!(
            "{workload:18} {:28} {value:>16.6} s (p{percentile:.0})",
            "run_s_tail"
        );
    }
    let drift = detail.get("count_drift").and_then(Json::num);
    println!(
        "{workload:18} {:28} {:>16} count",
        "count_drift",
        drift.unwrap_or(f64::NAN)
    );
}

/// One run of one workload; the result line comes last.
fn run_one(args: &RunArgs) -> Result<bool, String> {
    let result = run::run(args)?;
    println!(
        "# {} seed {} {} s trace {} — {} cores, scratch {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run::nproc(),
        run::scratch_dir().display()
    );
    print_metrics(&args.workload, &result.metrics);
    print_spread(&args.workload, &result.detail);
    println!("{}", result.result_line());
    Ok(result.failed == 0)
}

/// Every workload, untraced then traced, written to one file for `--compare`.
fn sweep(cli: &Cli) -> Result<bool, String> {
    let mut order: Vec<&str> = workloads::NAMES.to_vec();
    if cli.reverse {
        order.reverse();
    }
    let scratch = run::scratch_dir();
    let mut all_correct = true;
    let mut cells = Vec::new();
    for name in &order {
        let mut args = cli.run.clone();
        args.workload = (*name).into();
        args.trace = false;
        let untraced = run::run(&args)?;
        args.trace = true;
        let traced = run::run(&args)?;
        print_metrics(name, &untraced.metrics);
        print_spread(name, &untraced.detail);
        print_metrics(name, &traced.metrics);
        let attempted = untraced.attempted + traced.attempted;
        let failed = untraced.failed + traced.failed;
        println!(
            "{name:18} {:28} {:>16.6} ratio ({failed} of {attempted})",
            "failed_ratio",
            failed as f64 / attempted as f64
        );
        all_correct &= failed == 0;
        let detail = |key: &str| untraced.detail.get(key).cloned().unwrap_or(Json::Null);
        cells.push((
            *name,
            Json::obj([
                ("end_to_end", untraced.metrics),
                ("per_layer", traced.metrics),
                ("attempted", Json::Num(attempted as f64)),
                ("failed", Json::Num(failed as f64)),
                ("work_unit", detail("work_unit")),
                ("model_critical_s", detail("model_critical_s")),
                ("count_drift", detail("count_drift")),
                ("samples", detail("samples")),
                ("run_s_samples", detail("run_s_samples")),
                ("setup_samples", detail("setup_samples")),
                ("peak_rss_samples", detail("peak_rss_samples")),
            ]),
        ));
    }
    let report = Json::obj([
        ("seed", Json::Num(cli.run.seed as f64)),
        ("seconds", Json::Num(cli.run.seconds)),
        ("nproc", Json::Num(run::nproc() as f64)),
        ("scratch", Json::Str(scratch.display().to_string())),
        (
            "order",
            Json::Arr(order.iter().map(|n| Json::Str((*n).into())).collect()),
        ),
        ("workloads", Json::obj(cells)),
    ]);
    let default_out = scratch.join(format!("perf-seed{}.json", cli.run.seed));
    let out = cli.out.clone().map_or(default_out, Into::into);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, report.render() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("# wrote {}", out.display());
    Ok(all_correct)
}

fn read_sweep(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    if cli.child {
        // The set-up clock starts here, at the top of the child.
        let report = run::child(&cli.run)?;
        println!("{}", report.render());
        return Ok(true);
    }
    if let Some((a, b)) = &cli.compare {
        return compare::compare(&read_sweep(a)?, &read_sweep(b)?);
    }
    if cli.run.workload.is_empty() {
        sweep(&cli)
    } else {
        run_one(&cli.run)
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = cli(&[
            "--workload",
            "stmt-sharded",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.run.workload, "stmt-sharded");
        assert_eq!(
            (parsed.run.seed, parsed.run.seconds, parsed.run.trace),
            (42, 10.0, true)
        );
        assert!(!parsed.child && !parsed.run.perturb);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "no-such"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--compare", "only-one"],
            &["--frobnicate"],
            &["--seed"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
