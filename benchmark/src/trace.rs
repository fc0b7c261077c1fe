//! The benchmark's own span recorder.
//!
//! Spans are recorded by this package only, around its calls into each
//! layer's public functions; nothing under `crates/` is instrumented. A
//! span is `(name, start ns, end ns, parent, rep id)`; all spans of one
//! rep share its id. They go into a preallocated buffer and are written
//! to `out/<workload>.trace.json` when the run ends. A layer's *self time*
//! is its span's duration minus the durations of its direct children, so
//! per rep the self times telescope to the root span — PR 9's lag
//! identity, in host nanoseconds.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-call name, e.g. `core.db.read_all`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The rep this span belongs to.
    pub rep: u32,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`], consumed by [`Tracer::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Token(u32);

/// The recorder. A disabled tracer costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing (the untraced run).
    #[must_use]
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            dropped: 0,
        }
    }

    /// A recording tracer with room for `cap` spans; spans beyond that are
    /// counted in [`Tracer::dropped`] instead of growing the buffer mid-rep.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Tracer {
        Tracer {
            on: true,
            spans: Vec::with_capacity(cap),
            open: Vec::with_capacity(16),
            ..Tracer::off()
        }
    }

    /// True when spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts the next rep and returns its id.
    pub fn next_rep(&mut self) -> u32 {
        self.rep += 1;
        self.rep
    }

    /// Opens a span.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Token {
        if !self.on {
            return Token(NO_PARENT);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Token(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(idx);
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            rep: self.rep,
        });
        Token(idx)
    }

    /// Closes the span opened by the matching [`Tracer::enter`].
    #[inline]
    pub fn exit(&mut self, token: Token) {
        if token.0 == NO_PARENT {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(token.0), "spans must nest");
        self.spans[token.0 as usize].end_ns = now;
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit the buffer.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span: duration minus its direct children's.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(s.dur());
        }
    }
    own
}

/// Per rep, the sum of all its spans' self times. By construction this is
/// the duration of the rep's root span; the harness compares it with the
/// wall time it measured around the rep on its own clock.
#[must_use]
pub fn self_sum_per_rep(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.rep).or_insert(0) += own;
    }
    out
}

/// Per rep, the total duration of the spans called `name`.
#[must_use]
pub fn total_per_rep(spans: &[Span], name: &str) -> BTreeMap<u32, u64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.rep).or_insert(0) += s.dur();
    }
    out
}

/// `(calls, total self ns)` per span name, over the given reps.
#[must_use]
pub fn self_by_name(spans: &[Span], reps: &BTreeSet<u32>) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if reps.contains(&s.rep) {
            let e = out.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += own;
        }
    }
    out
}

/// Serializes spans as a JSON array, one object per line.
#[must_use]
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 4);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let comma = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"rep\": {}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.rep
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, rep: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // rep(0..100) > a(10..60) > b(20..30), c(30..30 zero-length); rep > d(70..90)
        let spans = [
            span("rep", 0, 100, NO_PARENT, 1),
            span("a", 10, 60, 0, 1),
            span("b", 20, 30, 1, 1),
            span("c", 30, 30, 1, 1),
            span("d", 70, 90, 0, 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 0, 20]);
        // Telescoping: the self times of a rep sum to its root's duration.
        assert_eq!(self_sum_per_rep(&spans)[&1], 100);
    }

    #[test]
    fn totals_and_self_are_grouped_by_rep_and_name() {
        let spans = [
            span("rep", 0, 50, NO_PARENT, 1),
            span("x", 0, 20, 0, 1),
            span("x", 20, 30, 0, 1),
            span("rep", 60, 100, NO_PARENT, 2),
            span("x", 60, 65, 3, 2),
        ];
        let t = total_per_rep(&spans, "x");
        assert_eq!((t[&1], t[&2]), (30, 5));
        let by = self_by_name(&spans, &BTreeSet::from([1]));
        assert_eq!(by["x"], (2, 30));
        assert_eq!(by["rep"], (1, 20));
        assert_eq!(self_sum_per_rep(&spans)[&2], 40);
    }

    #[test]
    fn recorder_nests_and_respects_capacity() {
        let mut t = Tracer::with_capacity(3);
        assert_eq!(t.next_rep(), 1);
        let root = t.enter("rep");
        let a = t.enter("a");
        let b = t.enter("b");
        let over = t.enter("dropped");
        t.exit(over);
        t.exit(b);
        t.exit(a);
        t.exit(root);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(t.dropped(), 1);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 1));
        assert!(s.iter().all(|x| x.rep == 1 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].end_ns >= s[2].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let tok = t.enter("x");
        t.exit(tok);
        assert!(t.spans().is_empty() && !t.is_on());
    }

    #[test]
    fn json_has_one_object_per_span() {
        let spans = [span("rep", 0, 9, NO_PARENT, 1), span("a", 1, 2, 0, 1)];
        let j = to_json(&spans);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"parent\": null") && j.contains("\"parent\": 0"));
        assert_eq!(j.matches("\"name\"").count(), 2);
    }
}
