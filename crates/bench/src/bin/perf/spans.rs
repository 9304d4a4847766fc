//! The harness's own spans: recorded in memory around each call into a
//! layer, written out as a Chrome trace when the run ends.
//!
//! The harness is single-threaded between calls into the program, so a
//! span's parent is simply the span open when it began.

use std::cell::{Cell, RefCell};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The repetition the span belongs to (0 is the cold one of set-up).
    pub rep: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The recorder.  Disabled (the untraced pass), `time` only calls through.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    rep: Cell<u32>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            rep: Cell::new(0),
        }
    }

    pub fn set_rep(&self, rep: u32) {
        self.rep.set(rep);
    }

    /// Runs `f` inside a span called `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                rep: self.rep.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    pub fn all(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        if e > reach {
            total += e - s.max(reach);
            reach = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part of it its direct
/// children cover (children that overlap each other count once).
pub fn self_ns(spans: &[Span], index: usize) -> u64 {
    let span = &spans[index];
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    (span.end_ns - span.start_ns) - covered_ns(&children, span.start_ns, span.end_ns)
}

/// Seconds spent in spans that have no children, over repetitions `>= 1`.
pub fn leaf_seconds(spans: &[Span]) -> f64 {
    let mut is_parent = vec![false; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            is_parent[p] = true;
        }
    }
    let leaves = spans
        .iter()
        .zip(&is_parent)
        .filter(|(s, &p)| !p && s.rep >= 1);
    leaves.map(|(s, _)| s.seconds()).sum()
}

/// Durations (seconds) of every span called `name` in repetitions
/// `>= min_rep`.
pub fn durations(spans: &[Span], name: &str, min_rep: u32) -> Vec<f64> {
    let named = spans.iter().filter(|s| s.name == name && s.rep >= min_rep);
    named.map(Span::seconds).collect()
}

/// The spans in Chrome `trace_event` form (loadable in Perfetto); `args`
/// carry the repetition, the parent and the self time.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"perf\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":0,\
             \"args\":{{\"rep\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
            span.name,
            span.start_ns as f64 / 1e3,
            (span.end_ns - span.start_ns) as f64 / 1e3,
            span.rep,
            span.parent.map_or(-1, |p| p as i64),
            self_ns(spans, i) as f64 / 1e3,
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("distribute", 10, 40, Some(0)),
            span("halo", 50, 70, Some(0)),
            span("pack", 15, 25, Some(1)),
        ];
        // The grandchild is inside `distribute`; it does not count again.
        assert_eq!(self_ns(&spans, 0), 100 - 30 - 20);
        assert_eq!(self_ns(&spans, 1), 30 - 10);
        assert_eq!(self_ns(&spans, 3), 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("post", 10, 60, Some(0)),
            span("unpack", 40, 80, Some(0)),
            // A child running past its parent's end is clipped to it.
            span("late", 90, 130, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 70 - 10);
        assert_eq!(covered_ns(&[(10, 60), (40, 80), (20, 30)], 0, 100), 70);
        assert_eq!(covered_ns(&[], 0, 100), 0);
    }

    #[test]
    fn recorder_links_parents_and_skips_the_cold_repetition() {
        let spans = Spans::new(true);
        spans.time("cold", || {});
        spans.set_rep(1);
        spans.time("rep", || {
            spans.time("save", || {});
            spans.time("restore", || {});
        });
        let all = spans.all();
        assert_eq!(all.len(), 4);
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[3].parent, Some(1));
        assert_eq!(all[1].parent, None);
        assert_eq!(durations(&all, "cold", 1).len(), 0);
        assert_eq!(durations(&all, "cold", 0).len(), 1);
        assert_eq!(durations(&all, "save", 1).len(), 1);
        let leaves = all[2].seconds() + all[3].seconds();
        assert!((leaf_seconds(&all) - leaves).abs() < 1e-12);
        assert!(chrome_json(&all).contains("\"name\":\"restore\""));

        let off = Spans::new(false);
        assert_eq!(off.time("rep", || 7), 7);
        assert!(off.all().is_empty());
    }
}
