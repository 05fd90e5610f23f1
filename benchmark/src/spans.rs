//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a solver layer: name, start, end, parent span and operation id, plus
//! the dense-kernel counter delta (`csolve::dense::stats`) and the rise of
//! the memory tracker's peak over the call. They are kept in memory and
//! written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use csolve::common::MemTracker;
use csolve::dense::stats::{self, KernelSnapshot};

/// One closed span.
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    /// Dense-kernel counter increments inside the span.
    pub dense: KernelSnapshot,
    /// Rise of the tracker's peak above its live bytes at span start.
    pub peak_rise: usize,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Open {
    idx: usize,
    dense0: KernelSnapshot,
    live0: usize,
}

/// In-memory span sink with a stack of open spans (the parent links).
pub struct Recorder {
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<Open>,
    op: u64,
    tracker: Option<Arc<MemTracker>>,
    /// Work counters by layer name (flops, right-hand sides, calls).
    work: BTreeMap<String, f64>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            tracker: None,
            work: BTreeMap::new(),
        }
    }

    /// Operation id given to the spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Tracker whose peak rise each span records.
    pub fn set_tracker(&mut self, tracker: Arc<MemTracker>) {
        self.tracker = Some(tracker);
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        let live0 = match &self.tracker {
            Some(t) => {
                t.reset_peak();
                t.live()
            }
            None => 0,
        };
        let rec = SpanRec {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().map(|o| o.idx),
            op: self.op,
            dense: KernelSnapshot::default(),
            peak_rise: 0,
        };
        self.spans.push(rec);
        self.open.push(Open {
            idx: self.spans.len() - 1,
            dense0: stats::snapshot(),
            live0,
        });
    }

    pub fn end(&mut self) {
        let open = self.open.pop().expect("end() without an open span");
        let end_ns = self.now_ns();
        let peak_rise = self
            .tracker
            .as_ref()
            .map_or(0, |t| t.peak().saturating_sub(open.live0));
        let s = &mut self.spans[open.idx];
        s.end_ns = end_ns;
        s.dense = stats::snapshot().delta(&open.dense0);
        s.peak_rise = peak_rise;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Add `amount` to the work counter `key`.
    pub fn add(&mut self, key: &str, amount: f64) {
        *self.work.entry(key.to_string()).or_default() += amount;
    }

    pub fn work(&self, key: &str) -> f64 {
        self.work.get(key).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Spans without children: the layer calls.
    pub fn leaves(&self) -> impl Iterator<Item = &SpanRec> {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        self.spans
            .iter()
            .zip(has_child)
            .filter(|(_, c)| !c)
            .map(|(s, _)| s)
    }

    /// Total seconds of the spans named `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.named(name).map(SpanRec::secs).sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"dense_flops\":{},\"dense_ns\":{},\"packed_calls\":{},\"naive_calls\":{},\"peak_rise_bytes\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.op, s.dense.flops, s.dense.ns,
                s.dense.packed_calls, s.dense.naive_calls, s.peak_rise
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut r = Recorder::new();
        r.set_op(3);
        r.begin("root");
        r.time("leaf", || std::hint::black_box(1 + 1));
        r.end();
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].op, 3);
        assert!(s[0].end_ns >= s[1].end_ns);
        assert_eq!(r.leaves().map(|l| l.name).collect::<Vec<_>>(), ["leaf"]);
        assert_eq!(r.to_jsonl().lines().count(), 2);
    }
}
