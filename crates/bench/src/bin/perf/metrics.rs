//! The metric names and units, exactly as `BENCHMARK.json` lists them.

use crate::json::Json;

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The share of the parent's median by which an end-to-end metric may get
/// worse before a change counts as a regression.  The benchmark contract
/// refuses a bound the run-to-run spread exceeds, so each is set from the
/// spreads measured on this host (README, *Baseline*): `peak_rss_mb`
/// repeats within 7 %; the timings of the compute-bound workloads follow
/// the host between a fast and a slow regime that each outlast a run, and
/// spread by up to 19 % over ten runs.
pub fn bound(metric: &str) -> f64 {
    match metric {
        "peak_rss_mb" => 0.10,
        _ => 0.25,
    }
}

/// Whether a larger value of the end-to-end metric is the better one.
pub fn higher_is_better(metric: &str) -> bool {
    metric == "work_per_s"
}

/// Single layers; measured in the traced pass.  `count` metrics are exact
/// and must repeat bit-for-bit (the † metrics of the README).
pub const PER_LAYER: [(&str, &str); 80] = [
    ("dist.build_us", "us"),
    ("dist.locate_ns", "ns"),
    ("dist.local_points_ms", "ms"),
    ("plan.redistribute_cold_ms", "ms"),
    ("plan.ghost_cold_ms", "ms"),
    ("plan.irregular_cold_ms", "ms"),
    ("plan.warm_us", "us"),
    ("plan.fuse_us", "us"),
    ("plan.cache_hit_ratio", "ratio"),
    ("plan.cache_bytes", "count"),
    ("translation.build_ms", "ms"),
    ("translation.page_fetches", "count"),
    ("redistribute.stmt_ms", "ms"),
    ("redistribute.first_ms", "ms"),
    ("redistribute.mb_per_s", "MB/s"),
    ("redistribute.share", "ratio"),
    ("ghost.stmt_ms", "ms"),
    ("ghost.split_post_ms", "ms"),
    ("ghost.split_wait_ms", "ms"),
    ("ghost.share", "ratio"),
    ("shard.scatter_gather_ms", "ms"),
    ("shard.over_shared_ratio", "ratio"),
    ("spmd.region_us", "us"),
    ("spmd.pingpong_us", "us"),
    ("spmd.stream_mb_per_s", "MB/s"),
    ("spmd.channel_messages", "count"),
    ("spmd.channel_bytes", "count"),
    ("element.encode_mb_per_s", "MB/s"),
    ("element.decode_mb_per_s", "MB/s"),
    ("pool.dispatch_us", "us"),
    ("pool.jobs_per_rep", "count"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.restore_ms", "ms"),
    ("checkpoint.restore_into_ms", "ms"),
    ("checkpoint.save_mb_per_s", "MB/s"),
    ("checkpoint.restore_mb_per_s", "MB/s"),
    ("checkpoint.share", "ratio"),
    ("checkpoint.bytes_written", "count"),
    ("checkpoint.bytes_read", "count"),
    ("checkpoint.file_bytes", "count"),
    ("scope.declare_us", "us"),
    ("scope.noop_distribute_us", "us"),
    ("model.critical_s", "sim_s"),
    ("model.comm_s", "sim_s"),
    ("model.compute_s", "sim_s"),
    ("model.messages", "count"),
    ("model.bytes", "count"),
    ("model.retries", "count"),
    ("model.fallbacks", "count"),
    ("apps.seq_reference_ms", "ms"),
    ("apps.vs_seq_ratio", "ratio"),
    ("apps.partition_ms", "ms"),
    ("apps.compute_share", "ratio"),
    ("trace.plan_ms", "ms"),
    ("trace.fuse_ms", "ms"),
    ("trace.wire-pack_ms", "ms"),
    ("trace.post_ms", "ms"),
    ("trace.unpack_ms", "ms"),
    ("trace.wait_ms", "ms"),
    ("trace.pool-dispatch_ms", "ms"),
    ("trace.interior-compute_ms", "ms"),
    ("trace.redistribute_ms", "ms"),
    ("trace.ghost-exchange_ms", "ms"),
    ("trace.gather_ms", "ms"),
    ("trace.page-fetch_ms", "ms"),
    ("trace.ckpt-write_ms", "ms"),
    ("trace.ckpt-read_ms", "ms"),
    ("trace.statement_ms", "ms"),
    ("trace.step_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("harness.reps", "reps"),
    ("harness.untraced_reps", "reps"),
    ("harness.run_s", "s"),
    ("harness.run_s_tail", "s"),
    ("harness.run_s_tail_pct", "%"),
    ("harness.run_s_iqr", "s"),
    ("harness.traced_run_s", "s"),
    ("harness.span_coverage", "ratio"),
    ("harness.count_drift", "count"),
];

/// Values for one of the two metric lists; a layer a workload does not
/// exercise keeps its 0.
pub struct Metrics {
    names: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    pub fn zeroed(names: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            names,
            values: vec![0.0; names.len()],
        }
    }

    /// Sets `name`; a name the list does not have is a bug in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let index = self.names.iter().position(|(n, _)| *n == name);
        let index = index.unwrap_or_else(|| panic!("no metric is called {name}"));
        self.values[index] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        let index = self.names.iter().position(|(n, _)| *n == name);
        index.map_or(0.0, |i| self.values[i])
    }

    /// `{name: {"value": v, "unit": u}, ...}` — the contract's shape.
    pub fn to_json(&self) -> Json {
        Json::obj(
            self.names
                .iter()
                .zip(&self.values)
                .map(|((name, unit), value)| {
                    let cell = Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str((*unit).into())),
                    ]);
                    (*name, cell)
                }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// `BENCHMARK.json` at the root of the repository, found by walking up
    /// from `vf-bench`'s manifest.
    fn benchmark_json() -> Json {
        let start = Path::new(env!("CARGO_MANIFEST_DIR"));
        let file = start
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|p| p.is_file());
        let text =
            std::fs::read_to_string(file.expect("BENCHMARK.json above the manifest")).unwrap();
        Json::parse(&text).unwrap()
    }

    fn listed(section: &Json) -> Vec<(String, String)> {
        let pair = |m: &Json| {
            Some((
                m.get("name")?.str()?.to_string(),
                m.get("unit")?.str()?.to_string(),
            ))
        };
        section
            .items()
            .iter()
            .map(|m| pair(m).expect("name and unit"))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let file = benchmark_json();
        let own = |names: &[(&str, &str)]| -> Vec<(String, String)> {
            names
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(file.get("end_to_end").unwrap()), own(&END_TO_END));
        assert_eq!(listed(file.get("per_layer").unwrap()), own(&PER_LAYER));
        let workloads: Vec<&str> = file
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().str().unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        for metric in file.get("end_to_end").unwrap().items() {
            let name = metric.get("name").unwrap().str().unwrap();
            assert_eq!(
                metric.get("bound").and_then(Json::num),
                Some(bound(name)),
                "{name}"
            );
            let better = if higher_is_better(name) {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(metric.get("better").unwrap().str(), Some(better), "{name}");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (i, name) in all.iter().enumerate() {
            assert!(!all[..i].contains(name), "{name} is listed twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    #[should_panic(expected = "no metric is called")]
    fn setting_an_unlisted_metric_is_caught() {
        Metrics::zeroed(&END_TO_END).set("run_ms", 1.0);
    }
}
