//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer of the program (the program itself is not instrumented).
//!
//! Each thread owns a [`SpanLog`]; spans nest through an open-span stack,
//! so a span's parent is whatever span was open when it began. At exit
//! the logs are merged into a [`SpanReport`]: per-name call counts, total
//! time and *self* time (a span's duration minus the part its children
//! cover), plus the spans themselves, written as JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per log for the JSON file; the self-time totals always
/// cover every span.
const KEEP_PER_LOG: usize = 20_000;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `exec.op` or `serve.submit`.
    pub name: &'static str,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span among the kept spans of the same log.
    pub parent: Option<usize>,
    /// Operation id the span belongs to (0 outside the measured loop).
    pub op: u64,
}

/// A span still open: where it was kept (if it was) and how much of its
/// interval its children covered so far.
struct Open {
    kept: Option<usize>,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// One thread's span log. Self times are folded in as spans close, so
/// memory stays bounded however many spans a run records. A disabled log
/// records nothing and costs one branch per call.
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    kept: Vec<Span>,
    open: Vec<Open>,
    totals: BTreeMap<&'static str, SpanTotals>,
}

impl SpanLog {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        SpanLog {
            origin,
            enabled,
            kept: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`SpanLog::end`].
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let kept = (self.kept.len() < KEEP_PER_LOG).then(|| {
            self.kept.push(Span {
                name,
                start_ns,
                end_ns: 0,
                parent: self.open.last().and_then(|o| o.kept),
                op,
            });
            self.kept.len() - 1
        });
        self.open.push(Open {
            kept,
            name,
            start_ns,
            child_ns: 0,
        });
    }

    /// Close the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let Some(o) = self.open.pop() else {
            return;
        };
        let end_ns = self.now_ns();
        let dur = end_ns.saturating_sub(o.start_ns);
        if let Some(i) = o.kept {
            self.kept[i].end_ns = end_ns;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(o.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(o.child_ns);
    }

    /// Run `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op);
        let r = f();
        self.end();
        r
    }
}

/// Per-name aggregate of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Merged logs of one run.
pub struct SpanReport {
    logs: Vec<(String, Vec<Span>)>,
    totals: BTreeMap<&'static str, SpanTotals>,
}

impl SpanReport {
    pub fn new() -> Self {
        SpanReport {
            logs: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Fold one thread's log in under `label`.
    pub fn add(&mut self, label: impl Into<String>, log: SpanLog) {
        for (name, t) in log.totals {
            let acc = self.totals.entry(name).or_default();
            acc.calls += t.calls;
            acc.total_ns += t.total_ns;
            acc.self_ns += t.self_ns;
        }
        self.logs.push((label.into(), log.kept));
    }

    /// Aggregates by span name.
    pub fn totals(&self) -> &BTreeMap<&'static str, SpanTotals> {
        &self.totals
    }

    /// A fixed-width self-time table, one row per span name.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<24} {:>10} {:>14} {:>14} {:>12}\n",
            "span", "calls", "total_ms", "self_ms", "self_us/call"
        );
        for (name, t) in &self.totals {
            let _ = writeln!(
                out,
                "{:<24} {:>10} {:>14.3} {:>14.3} {:>12.3}",
                name,
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.self_ns as f64 / 1e3 / t.calls.max(1) as f64
            );
        }
        out
    }

    /// The report as JSON: self-time totals plus the kept spans of each
    /// log (its first spans, up to a fixed number).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"self_times\":{");
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\":{{\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                if i > 0 { "," } else { "" },
                name,
                t.calls,
                t.total_ns,
                t.self_ns
            );
        }
        out.push_str("},\"logs\":[");
        for (li, (label, spans)) in self.logs.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"thread\":\"{}\",\"spans\":[",
                if li > 0 { "," } else { "" },
                label
            );
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                let _ = write!(
                    out,
                    "{}[\"{}\",{},{},{},{}]",
                    if i > 0 { "," } else { "" },
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    parent,
                    s.op
                );
            }
            out.push_str("]}");
        }
        out.push_str("],\"span_fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\"]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new(Instant::now(), true);
        log.begin("outer", 0);
        log.scope("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.end();
        let mut rep = SpanReport::new();
        rep.add("t", log);
        let outer = rep.totals()["outer"];
        let inner = rep.totals()["inner"];
        assert_eq!(outer.calls, 1);
        assert!(inner.self_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), false);
        log.scope("x", 0, || ());
        let mut rep = SpanReport::new();
        rep.add("t", log);
        assert!(rep.totals().is_empty());
    }
}
