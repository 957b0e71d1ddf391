//! In-memory spans recorded around calls into the layers, and self time.
//!
//! A span holds a name, start and end (ns from the run's clock origin),
//! the index of the span that caused it, and a trace id (frame sequence
//! number or planted pair index) shared by the spans of one operation.
//! Spans are kept in memory and written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Start, ns from the clock origin.
    pub start: u64,
    /// End, ns from the clock origin (`≥ start`).
    pub end: u64,
    /// Index of the parent span in the same [`Spans`], if any.
    pub parent: Option<usize>,
    /// Operation id shared by the spans of one frame or planted pair.
    pub trace: u64,
}

/// A span store; recording is a no-op when tracing is off.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// Store with clock origin `origin`, recording only when `on`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Spans { on, origin, spans: Vec::new() }
    }

    /// Nanoseconds from the clock origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record `[start, end]`; returns the span's index when recording.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        trace: u64,
    ) -> Option<usize> {
        let (start, end) = (self.ns(start), self.ns(end));
        self.push(Span { name, start, end, parent, trace })
    }

    /// Record a span given in clock-origin nanoseconds.
    pub fn push(&mut self, span: Span) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span { end: span.end.max(span.start), ..span });
        Some(self.spans.len() - 1)
    }

    /// Move every span of `other` (same clock origin) into `self`,
    /// re-basing its parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"trace\":{},\"self_ns\":{}}}",
                s.name, s.start, s.end, s.trace, selfs[i]
            )?;
        }
        out.flush()
    }

    /// Total self time per span name, ns.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self_times(&self.spans)) {
            *by.entry(s.name).or_insert(0) += t;
        }
        by
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once; a child's
/// part outside the parent does not count).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: "x", start, end, parent, trace: 0 }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),  // overlaps the previous child
            span(90, 140, Some(0)), // runs past the parent's end
            span(12, 18, Some(1)),
            span(200, 210, None),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 50, 6, 10]);
    }

    #[test]
    fn absorb_rebases_parents_and_off_records_nothing() {
        let origin = Instant::now();
        let mut a = Spans::new(true, origin);
        a.push(span(0, 10, None));
        let mut b = Spans::new(true, origin);
        let root = b.push(span(0, 5, None));
        b.push(span(1, 2, root));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_time_by_name()["x"], 10 + 4 + 1);
        let mut off = Spans::new(false, origin);
        assert_eq!(off.push(span(0, 1, None)), None);
        assert!(off.spans().is_empty());
    }
}
