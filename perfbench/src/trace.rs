//! In-memory span recorder for the traced run. Spans are recorded by the
//! benchmark around its own calls into each layer, never inside the
//! program, and written out once the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in recording order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Shared by an iteration (or HTTP round) and all of its children.
    pub group: usize,
    /// The call this span wraps.
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    /// Seconds since the recorder was created.
    pub end_s: f64,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records nested spans on one thread. Open spans form a stack, so a
/// span's parent is whatever was open when it began.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: usize,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
        }
    }

    /// Starts a new group: spans recorded from now on share its id.
    pub fn next_group(&mut self) {
        self.group += 1;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            group: self.group,
            name,
            start_s,
            end_s: start_s,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Runs `f` inside a span called `name` that has no children, and
    /// returns its result with the span's duration in seconds.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let out = self.span(name, |_| f());
        (out, self.spans[self.spans.len() - 1].secs())
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, each with its self time.
    pub fn dump(&self) -> String {
        let own = self_times(&self.spans);
        let mut out = String::new();
        for (span, own) in self.spans.iter().zip(own) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"self_s\":{}}}",
                span.id, parent, span.group, span.name, span.start_s, span.end_s, own
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_s, span.end_s));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = span.start_s;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_s);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.secs() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            id,
            parent,
            group: 1,
            name: "x",
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0, 10] ⊃ a [1, 4] ⊃ a1 [2, 3]; root ⊃ b [5, 9]
        let spans = vec![
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 4.0),
            span(2, Some(1), 2.0, 3.0),
            span(3, Some(0), 5.0, 9.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![3.0, 2.0, 1.0, 4.0]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 2.0, 6.0),
            span(2, Some(0), 4.0, 8.0),
            // A child reaching past its parent is clipped to it.
            span(3, Some(0), 9.0, 12.0),
        ];
        assert_eq!(self_times(&spans)[0], 10.0 - 6.0 - 1.0);
    }

    #[test]
    fn recorder_nests_and_groups() {
        let mut t = Tracer::new();
        t.next_group();
        t.span("iteration", |t| {
            t.span("compile_preview", |_| ());
            t.span("iterate", |_| ());
        });
        t.next_group();
        t.span("iteration", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[1].parent, s[2].parent, s[3].parent),
            (Some(0), Some(0), None)
        );
        assert_eq!((s[0].group, s[2].group, s[3].group), (1, 1, 2));
        assert!(s.iter().all(|x| x.end_s >= x.start_s));
        assert!(s[0].end_s >= s[2].end_s);
        assert_eq!(t.dump().lines().count(), 4);
        let own = self_times(s);
        assert!(own.iter().all(|&x| x >= 0.0));
    }
}
