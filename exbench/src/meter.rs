//! Timing of the benchmark's own calls into the program.
//!
//! Every call the benchmark makes into a layer goes through [`Meter`]: the
//! meter adds the call's duration to a per-name total, and in a traced run it
//! also keeps a [`Span`] (name, start, end, parent, update id) in memory. The
//! spans are written out when the run ends, together with a self-time table:
//! a span's self time is its duration minus the part covered by its children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The layer call, e.g. `concurrency.drive`.
    pub name: &'static str,
    /// Start, in nanoseconds since the meter was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the meter was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The update the call was made for, if it was made for one.
    pub update: Option<u64>,
}

/// An open span returned by [`Meter::begin`]; close it with [`Meter::end`].
#[must_use = "an open span must be closed with Meter::end"]
pub struct Open {
    name: &'static str,
    started: Instant,
    index: Option<usize>,
}

/// Per-name call totals, plus the spans of a traced run.
pub struct Meter {
    tracing: bool,
    origin: Instant,
    totals: BTreeMap<&'static str, (Duration, u64)>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// One row of the self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Number of spans.
    pub calls: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed duration minus the time covered by child spans, seconds.
    pub self_s: f64,
}

impl Meter {
    /// A meter that records spans only when `tracing` is set.
    pub fn new(tracing: bool) -> Meter {
        Meter {
            tracing,
            origin: Instant::now(),
            totals: BTreeMap::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span around a call that itself contains metered calls.
    pub fn begin(&mut self, name: &'static str, update: Option<u64>) -> Open {
        let started = Instant::now();
        let index = self.tracing.then(|| {
            let start_ns = self.nanos(started);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                update,
            });
            let index = self.spans.len() - 1;
            self.open.push(index);
            index
        });
        Open { name, started, index }
    }

    /// Closes a span opened by [`begin`](Self::begin), returning its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let ended = Instant::now();
        let elapsed = ended - open.started;
        let entry = self.totals.entry(open.name).or_default();
        entry.0 += elapsed;
        entry.1 += 1;
        if let Some(index) = open.index {
            self.spans[index].end_ns = self.nanos(ended);
            let top = self.open.pop();
            debug_assert_eq!(top, Some(index), "spans must close innermost first");
        }
        elapsed
    }

    /// Times one call.
    pub fn time<R>(&mut self, name: &'static str, update: Option<u64>, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, update);
        let result = f();
        self.end(open);
        result
    }

    /// Total seconds spent in calls named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |(d, _)| d.as_secs_f64())
    }

    /// The recorded spans (empty unless tracing).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, largest self time first.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut rows: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let row = rows.entry(span.name).or_insert(SelfTime {
                name: span.name,
                calls: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            row.calls += 1;
            row.total_s += total as f64 * 1e-9;
            row.self_s += total.saturating_sub(children) as f64 * 1e-9;
        }
        let mut rows: Vec<SelfTime> = rows.into_values().collect();
        rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
        rows
    }

    /// The self-time table as text.
    pub fn self_time_table(&self) -> String {
        let mut out = format!("{:<28} {:>9} {:>12} {:>12}\n", "span", "calls", "total_s", "self_s");
        for row in self.self_times() {
            let _ = writeln!(
                out,
                "{:<28} {:>9} {:>12.6} {:>12.6}",
                row.name, row.calls, row.total_s, row.self_s
            );
        }
        out
    }

    /// The spans as tab-separated lines: index, parent, name, update, start
    /// and end in nanoseconds.
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("index\tparent\tname\tupdate\tstart_ns\tend_ns\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let update = span.update.map_or_else(|| "-".to_string(), |u| u.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{update}\t{}\t{}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out
    }

    fn nanos(&self, at: Instant) -> u64 {
        (at - self.origin).as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut meter = Meter::new(true);
        let outer = meter.begin("outer", None);
        meter.time("inner", Some(7), || std::thread::sleep(Duration::from_millis(5)));
        meter.end(outer);
        let spans = meter.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].update, Some(7));
        let rows = meter.self_times();
        let outer = rows.iter().find(|r| r.name == "outer").unwrap();
        let inner = rows.iter().find(|r| r.name == "inner").unwrap();
        assert!(inner.self_s >= 0.005);
        assert!(outer.self_s < outer.total_s);
        assert!((outer.total_s - outer.self_s - inner.total_s).abs() < 1e-9);
    }

    #[test]
    fn untraced_meter_keeps_totals_but_no_spans() {
        let mut meter = Meter::new(false);
        meter.time("call", None, || ());
        meter.time("call", None, || ());
        assert!(meter.spans().is_empty());
        assert_eq!(meter.totals["call"].1, 2);
    }
}
