//! Shared machine-readable bench artifact writer.
//!
//! Every `BENCH_e*.json` artifact uses one schema: a top-level object
//! mapping measurement names to flat field objects, with the conventional
//! trio `ns_per_op` / `messages` / `bytes` first and any experiment's
//! extra fields after.  The workspace has no serialisation dependency, so
//! the JSON is rendered by hand here — one writer instead of one per bench.
//!
//! ```text
//! {
//!   "ghost_fused_wire_256k": { "ns_per_op": 1234.5, "messages": 14, "bytes": 57344 },
//!   ...
//! }
//! ```

/// One named measurement: an ordered list of `key: value` fields, each
/// value already rendered as a JSON fragment.
pub struct BenchEntry {
    name: String,
    fields: Vec<(String, String)>,
}

impl BenchEntry {
    /// Appends a float field (one decimal, the `ns_per_op` convention).
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.fields.push((key.into(), format!("{value:.1}")));
        self
    }

    /// Appends a float field with four decimals (ratios, fractions).
    pub fn ratio(&mut self, key: &str, value: f64) -> &mut Self {
        self.fields.push((key.into(), format!("{value:.4}")));
        self
    }

    /// Appends an integer field.
    pub fn int(&mut self, key: &str, value: usize) -> &mut Self {
        self.fields.push((key.into(), value.to_string()));
        self
    }

    /// Appends a boolean field.
    pub fn flag(&mut self, key: &str, value: bool) -> &mut Self {
        self.fields.push((key.into(), value.to_string()));
        self
    }

    /// Appends a string field.  The value must not need escaping (bench
    /// names and modes never do); asserted rather than silently mangled.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        assert!(
            !value.contains(['"', '\\']) && !value.chars().any(|c| (c as u32) < 0x20),
            "bench string fields never need JSON escaping"
        );
        self.fields.push((key.into(), format!("\"{value}\"")));
        self
    }
}

/// An in-progress `BENCH_e*.json` artifact.
#[derive(Default)]
pub struct BenchReport {
    entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new named entry; chain field appends on the return value.
    pub fn entry(&mut self, name: &str) -> &mut BenchEntry {
        self.entries.push(BenchEntry {
            name: name.into(),
            fields: Vec::new(),
        });
        self.entries.last_mut().expect("just pushed")
    }

    /// The conventional record shape shared by every experiment:
    /// `name → { ns_per_op, messages, bytes }`.
    pub fn record(&mut self, name: &str, ns_per_op: f64, messages: usize, bytes: usize) {
        self.entry(name)
            .num("ns_per_op", ns_per_op)
            .int("messages", messages)
            .int("bytes", bytes);
    }

    /// Renders the whole artifact.
    pub fn render(&self) -> String {
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                let fields: Vec<String> = e
                    .fields
                    .iter()
                    .map(|(k, v)| format!("\"{k}\": {v}"))
                    .collect();
                format!("  \"{}\": {{ {} }}", e.name, fields.join(", "))
            })
            .collect();
        format!("{{\n{}\n}}\n", entries.join(",\n"))
    }

    /// Writes the artifact to `default_path`, overridable through the
    /// bench's `env_var`; returns the path written.
    ///
    /// # Panics
    /// On I/O failure — a bench without its artifact is a failed run.
    pub fn write(&self, default_path: &str, env_var: &str) -> String {
        let path = std::env::var(env_var).unwrap_or_else(|_| default_path.into());
        std::fs::write(&path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote {path}");
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_conventional_records() {
        let mut report = BenchReport::new();
        report.record("alpha", 1234.56, 14, 57344);
        report
            .entry("beta")
            .num("ns_per_op", 2.0)
            .flag("guard_passed", true)
            .text("mode", "wire");
        let out = report.render();
        assert_eq!(
            out,
            "{\n  \"alpha\": { \"ns_per_op\": 1234.6, \"messages\": 14, \"bytes\": 57344 },\n  \"beta\": { \"ns_per_op\": 2.0, \"guard_passed\": true, \"mode\": \"wire\" }\n}\n"
        );
    }

    #[test]
    #[should_panic(expected = "never need JSON escaping")]
    fn rejects_strings_that_need_escaping() {
        let mut report = BenchReport::new();
        report.entry("bad").text("mode", "has \"quotes\"");
    }
}
