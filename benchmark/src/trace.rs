//! Spans recorded around calls into each layer, kept in memory and
//! written out when the run ends.
//!
//! A span has a name, a start and end (ns since the run's origin), the
//! index of the span that caused it, and the tick it belongs to: every
//! span of one tick shares that tick id. Per-stream calls inside a tick
//! (thousands of `observe`s) are folded into one span per layer and tick
//! that carries the summed busy time and the call count, so a traced run's
//! memory grows with ticks, not with stream-ticks.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, `crate.module.call`.
    pub name: &'static str,
    /// Index of the causing span in the same [`Trace`], if any.
    pub parent: Option<usize>,
    /// Tick id shared by every span of one tick.
    pub tick: u64,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// Time spent in the calls: `end − start` for a plain span, the summed
    /// call durations for a folded one.
    pub busy_ns: u64,
    /// Calls the span covers (1 for a plain span).
    pub calls: u64,
}

/// An in-memory span list with one time origin. Threads each keep their
/// own and [`Trace::absorb`] them at the end.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace timing from `origin`.
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a plain span and returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        tick: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            tick,
            start_ns,
            end_ns,
            busy_ns: end_ns.saturating_sub(start_ns),
            calls: 1,
        });
        self.spans.len() - 1
    }

    /// Drains `tally` into a folded span under `parent`, if it saw calls.
    pub fn fold(&mut self, name: &'static str, parent: usize, tick: u64, tally: &Tally) {
        let calls = tally.calls.replace(0);
        if calls == 0 {
            return;
        }
        self.spans.push(Span {
            name,
            parent: Some(parent),
            tick,
            start_ns: tally.first.get(),
            end_ns: tally.last.get(),
            busy_ns: tally.busy.replace(0),
            calls,
        });
    }

    /// Moves another trace's spans in, re-basing their parent indices.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-name totals: `(self ns, busy ns, spans, calls)`. A span's self
    /// time is its busy time minus the busy time of its children.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_busy) {
            let t = out.entry(s.name).or_default();
            t.self_ns += s.busy_ns as i128 - children as i128;
            t.busy_ns += u128::from(s.busy_ns);
            t.spans += 1;
            t.calls += s.calls;
        }
        out
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\ttick\tname\tstart_ns\tend_ns\tbusy_ns\tcalls"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.tick, s.name, s.start_ns, s.end_ns, s.busy_ns, s.calls
            )?;
        }
        out.flush()
    }
}

/// Summed timings of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Busy time not covered by child spans.
    pub self_ns: i128,
    /// Busy time.
    pub busy_ns: u128,
    /// Spans recorded.
    pub spans: u64,
    /// Calls covered.
    pub calls: u64,
}

impl Totals {
    /// Mean busy µs per call (0 when never called).
    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Calls of one layer within the current tick, before they are folded
/// into a span. Single-threaded (`Cell`), shared by the wrappers of one
/// layer through an `Rc`.
#[derive(Default)]
pub struct Tally {
    busy: Cell<u64>,
    calls: Cell<u64>,
    first: Cell<u64>,
    last: Cell<u64>,
}

impl Tally {
    /// Records one call from `start` to `end` (ns since the origin).
    pub fn record(&self, start: u64, end: u64) {
        if self.calls.get() == 0 {
            self.first.set(start);
        }
        self.last.set(end);
        self.calls.set(self.calls.get() + 1);
        self.busy.set(self.busy.get() + end.saturating_sub(start));
    }

    /// Busy ns recorded since the last fold or reset.
    pub fn busy(&self) -> u64 {
        self.busy.get()
    }

    /// Forgets the calls recorded since the last fold.
    pub fn reset(&self) {
        self.calls.set(0);
        self.busy.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_folds_calls() {
        let mut t = Trace::new(Instant::now());
        let root = t.span("tick", None, 0, 0, 1_000);
        t.span("write", Some(root), 0, 100, 400);
        let tally = Tally::default();
        tally.record(500, 600);
        tally.record(700, 750);
        t.fold("observe", root, 0, &tally);
        t.fold("observe", root, 0, &tally); // drained: no second span
        let totals = t.totals();
        assert_eq!(totals["tick"].self_ns, 1_000 - 300 - 150);
        assert_eq!(totals["observe"].calls, 2);
        assert_eq!(totals["observe"].spans, 1);
        assert_eq!(totals["observe"].busy_ns, 150);

        let mut other = Trace::new(Instant::now());
        let r = other.span("tick", None, 1, 0, 10);
        other.span("write", Some(r), 1, 0, 5);
        t.absorb(other);
        assert_eq!(t.totals()["tick"].self_ns, 550 + 5);
    }
}
