//! The benchmark's own spans: recorded around each call into a layer,
//! kept in memory, and written out when the run ends.
//!
//! A span has a name, a start, an end, a parent and a request id. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover. Recording is switched on only in the
//! traced run (`--trace 1`); switched off, [`Tracer::begin`] reads no
//! clock and records nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Handle of a recorded span, used to parent child spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Span name: `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// The span this one was caused by, if any.
    pub parent: Option<usize>,
    /// The request (or round) this span belongs to.
    pub req: u64,
}

/// An in-memory span recorder, shareable across the ingest threads.
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A tracer that records only while switched on.
    pub fn new(on: bool) -> Self {
        Tracer {
            on: AtomicBool::new(on),
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switches recording on or off (the traced run alternates rounds to
    /// measure its own overhead).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `None` when recording is off.
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, req: u64) -> Option<SpanId> {
        if !self.is_on() {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer lock");
        spans.push(SpanRec {
            name,
            start_ns,
            end_ns: 0,
            parent: parent.map(|p| p.0),
            req,
        });
        Some(SpanId(spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span buffer lock")[i].end_ns = end_ns;
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Per span name: (total duration, total self time, count), seconds.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_unstable();
            let mut union = 0u64;
            let mut reach = 0u64;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            let t = out.entry(s.name).or_default();
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(union) as f64 * 1e-9;
            t.count += 1;
        }
        out
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// The spans as a JSON array of `[name, start_ns, end_ns, parent,
    /// req]` rows (`parent` is -1 for a root span).
    pub fn spans_json(&self) -> String {
        let rows: Vec<String> = self
            .spans()
            .iter()
            .map(|s| {
                let parent = s.parent.map_or(-1, |p| p as i64);
                format!(
                    "[\"{}\",{},{},{},{}]",
                    s.name, s.start_ns, s.end_ns, parent, s.req
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

/// Aggregates of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of self times (duration minus child coverage), seconds.
    pub self_s: f64,
    /// Number of spans.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        {
            let mut spans = t.spans.lock().unwrap();
            let mk = |name, start_ns, end_ns, parent| SpanRec {
                name,
                start_ns,
                end_ns,
                parent,
                req: 0,
            };
            spans.push(mk("root", 0, 100, None));
            spans.push(mk("child", 10, 40, Some(0)));
            spans.push(mk("child", 30, 50, Some(0))); // overlaps the first
            spans.push(mk("child", 90, 120, Some(0))); // clipped at 100
        }
        let totals = t.totals();
        let root = totals["root"];
        // Children cover 10..50 (two overlapping) and 90..100 (clipped).
        assert!((root.self_s - 50e-9).abs() < 1e-15, "{root:?}");
        assert_eq!(totals["child"].count, 3);
    }

    #[test]
    fn a_switched_off_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.begin("x", None, 0);
        assert!(id.is_none());
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
