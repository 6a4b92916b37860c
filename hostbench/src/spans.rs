//! In-memory span recorder for the traced run.
//!
//! A span covers one call into a public layer of the simulator (or one
//! benchmark pass or cell around such calls). Spans are appended to a
//! vector while the run goes and written out once it ends; nothing is
//! formatted or flushed on the measured path. When the recorder is off,
//! [`Tracer::enter`] and [`Tracer::exit`] do nothing, so the untraced run
//! pays no clock reads for them.

use std::collections::BTreeMap;
use std::time::Instant;

use pmacc_telemetry::{Json, ToJson};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `system.run` or `recovery.check`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the workload cell the span belongs to (`None` for
    /// set-up and pass spans).
    pub cell: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` when the recorder is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "an entered span must be exited"]
pub struct Open(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that records only when `on`; it can be switched with
    /// [`Tracer::set_on`] between passes.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off. Call only with no span open.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "span left open across a switch");
        self.on = on;
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, cell: Option<usize>) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            cell,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`]; spans close in reverse
    /// order of opening.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.enter(name, cell);
        let out = f();
        self.exit(open);
        out
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

/// Self time of every span: its duration minus the time its children
/// cover. Children are nested and sequential, so their durations add up.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.duration_ns());
        }
    }
    out
}

/// Per-name totals over a slice of spans: `(total_ns, self_ns, count)`.
#[must_use]
pub fn totals_by_name(spans: &[Span], self_ns: &[u64]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += s.duration_ns();
        e.1 += own;
        e.2 += 1;
    }
    out
}

impl ToJson for Span {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("start_ns", self.start_ns.to_json()),
            ("end_ns", self.end_ns.to_json()),
            ("parent", self.parent.to_json()),
            ("cell", self.cell.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_self_times_subtract_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", None);
        t.timed("inner", Some(0), || std::hint::black_box(1 + 1));
        t.timed("inner", Some(1), || ());
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].cell, Some(1));
        let own = self_times_ns(spans);
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
        let totals = totals_by_name(spans, &own);
        assert_eq!(totals["inner"].2, 2);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.enter("x", None);
        t.exit(o);
        assert!(t.spans().is_empty());
    }
}
