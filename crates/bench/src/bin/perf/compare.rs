//! `perf --compare A.json B.json`: the table that says whether B (the
//! change, or a second run of the same code) is within the benchmark's
//! bounds of A (the parent).

use crate::json::Json;
use crate::metrics::{bound, higher_is_better, END_TO_END, PER_LAYER};
use crate::stats::{iqr, median};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread is wider than the bound: the comparison cannot tell a
    /// regression from noise.
    Unresolved,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when it
/// is better).
pub fn worsening(metric: &str, a: f64, b: f64) -> f64 {
    if higher_is_better(metric) {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn verdict(worsening: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// IQR over median of the per-process values a sweep kept for `metric`
/// (the metric is their median); 0 when it kept fewer than two.  One
/// sweep holds one run, so the processes stand in for runs; what changes
/// more slowly than a run lasts (the host's regimes, README) is not in it.
fn spread(workload: &Json, metric: &str) -> f64 {
    let key = match metric {
        "setup_s" => "setup_samples",
        "peak_rss_mb" => "peak_rss_samples",
        _ => "run_s_samples",
    };
    let samples = workload.get(key).map_or(&[][..], Json::items);
    let samples: Vec<f64> = samples.iter().filter_map(Json::num).collect();
    if samples.len() < 2 {
        return 0.0;
    }
    iqr(&samples) / median(&samples)
}

fn value(workload: &Json, section: &str, metric: &str) -> Option<f64> {
    workload.get(section)?.get(metric)?.get("value")?.num()
}

/// Prints the comparison; `Ok(true)` when no cell regressed and every
/// exact count is identical.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = a.get("workloads").ok_or("A has no workloads")?;
    let in_b = b.get("workloads").ok_or("B has no workloads")?;
    if let Some((extra, _)) = in_b
        .entries()
        .iter()
        .find(|(name, _)| workloads.get(name).is_none())
    {
        return Err(format!("A has no {extra}"));
    }
    let mut clean = true;
    println!("| workload | metric | A | B | worse by | bound | spread | |");
    println!("|---|---|---|---|---|---|---|---|");
    for (name, in_a) in workloads.entries() {
        let in_b = in_b.get(name).ok_or_else(|| format!("B has no {name}"))?;
        for (metric, unit) in END_TO_END {
            let va = value(in_a, "end_to_end", metric)
                .ok_or_else(|| format!("A has no {name}/{metric}"))?;
            let vb = value(in_b, "end_to_end", metric)
                .ok_or_else(|| format!("B has no {name}/{metric}"))?;
            let worse = worsening(metric, va, vb);
            let noise = spread(in_a, metric).max(spread(in_b, metric));
            let verdict = verdict(worse, noise, bound(metric));
            clean &= verdict != Verdict::Regressed;
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            };
            println!(
                "| {name} | {metric} ({unit}) | {va:.6} | {vb:.6} | {:+.2} % | {:.0} % | {:.2} % | {word} |",
                worse * 100.0,
                bound(metric) * 100.0,
                noise * 100.0
            );
        }
        for (metric, _) in PER_LAYER.iter().filter(|(_, unit)| *unit == "count") {
            let (va, vb) = (
                value(in_a, "per_layer", metric),
                value(in_b, "per_layer", metric),
            );
            if va != vb {
                clean = false;
                println!("| {name} | {metric} (exact count) | {va:?} | {vb:?} | | | | differs |");
            }
        }
        for side in [in_a, in_b] {
            if side.get("failed").and_then(Json::num) != Some(0.0) {
                clean = false;
                println!("| {name} | failed | | | | | | verification failed |");
            }
            // Both passes' drift: between repetitions and processes
            // untraced, between repetitions traced.
            let untraced = side.get("count_drift").and_then(Json::num);
            let traced = value(side, "per_layer", "harness.count_drift");
            if untraced != Some(0.0) || traced != Some(0.0) {
                clean = false;
                println!("| {name} | count_drift | | | | | | exact counts drifted |");
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening("run_s", 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!((worsening("run_s", 1.0, 0.9) + 0.1).abs() < 1e-12);
        assert!((worsening("work_per_s", 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worsening("work_per_s", 100.0, 120.0) < 0.0);
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.05, 0.01, 0.10), Verdict::Ok);
        assert_eq!(verdict(-0.30, 0.01, 0.10), Verdict::Ok);
        assert_eq!(verdict(0.11, 0.01, 0.10), Verdict::Regressed);
        // Noise wider than the bound hides both regressions and their absence.
        assert_eq!(verdict(0.11, 0.12, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.00, 0.12, 0.10), Verdict::Unresolved);
    }

    /// A one-workload sweep; `counts` are (`model.messages`,
    /// `harness.count_drift`, the untraced `count_drift`).
    fn sweep(name: &str, run_s: f64, counts: (f64, f64, f64)) -> Json {
        let cell = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::Str("x".into()))]);
        let end_to_end = Json::obj(
            END_TO_END
                .iter()
                .map(|(n, _)| (*n, cell(if *n == "run_s" { run_s } else { 1.0 }))),
        );
        let per_layer = Json::obj(PER_LAYER.iter().map(|(n, _)| {
            let value = match *n {
                "model.messages" => counts.0,
                "harness.count_drift" => counts.1,
                _ => 0.0,
            };
            (*n, cell(value))
        }));
        let samples = Json::Arr(
            (0..5)
                .map(|i| Json::Num(run_s * (1.0 + 0.001 * f64::from(i))))
                .collect(),
        );
        let workload = Json::obj([
            ("end_to_end", end_to_end),
            ("per_layer", per_layer),
            ("run_s_samples", samples),
            ("failed", Json::Num(0.0)),
            ("count_drift", Json::Num(counts.2)),
        ]);
        Json::obj([("workloads", Json::obj([(name, workload)]))])
    }

    #[test]
    fn compare_flags_a_regression_a_changed_count_and_drift() {
        let a = sweep("adi-dynamic", 1.0, (28.0, 0.0, 0.0));
        let b = |run_s, counts| sweep("adi-dynamic", run_s, counts);
        assert_eq!(compare(&a, &b(1.05, (28.0, 0.0, 0.0))), Ok(true));
        assert_eq!(compare(&a, &b(1.3, (28.0, 0.0, 0.0))), Ok(false));
        assert_eq!(compare(&a, &b(1.0, (29.0, 0.0, 0.0))), Ok(false));
        // Drift fails the comparison even when both sides drift alike.
        let traced = b(1.0, (28.0, 3.0, 0.0));
        assert_eq!(compare(&traced, &traced), Ok(false));
        assert_eq!(compare(&a, &b(1.0, (28.0, 0.0, 1.0))), Ok(false));
    }

    #[test]
    fn the_two_sweeps_must_hold_the_same_workloads() {
        let a = sweep("adi-dynamic", 1.0, (28.0, 0.0, 0.0));
        let other = sweep("ckpt-restart", 1.0, (28.0, 0.0, 0.0));
        assert!(compare(&a, &Json::Null).is_err());
        assert!(compare(&a, &other).is_err());
        let both = Json::obj([(
            "workloads",
            Json::obj(
                [&a, &other]
                    .iter()
                    .flat_map(|s| s.get("workloads").unwrap().entries().to_vec()),
            ),
        )]);
        assert!(compare(&a, &both).is_err(), "a workload only B has");
        assert!(compare(&both, &a).is_err(), "a workload only A has");
    }
}
