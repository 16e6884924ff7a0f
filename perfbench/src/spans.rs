//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a named interval with the span that caused it. Spans are
//! kept in memory while the run measures and written out when it ends.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in its list.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name (`core.run_frame`, `gpu.binning`, …).
    pub name: String,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Records nested spans on one thread. A disabled tracer records
/// nothing, so untraced runs pay only a branch per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `origin`; `on = false` records nothing.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes the innermost span, which must be `open`.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Records an interval measured elsewhere as a child of the
    /// innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// The recorded spans.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "a span is still open");
        self.spans
    }
}

/// Joins span lists recorded by several tracers sharing one origin,
/// renumbering ids so parents stay within their own list.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|s| Span {
            id: s.id + base,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }
    out
}

/// Self time of every span (indexed like `spans`): its duration minus
/// the union of its children's intervals, clipped to its own.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time per span name, summed, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// The spans as a JSON array (`name`, `start_ns`, `end_ns`, `parent`).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children [10,30), [20,50) overlap -> cover 40;
        // [90,120) sticks out -> only [90,100) counts. Self = 100-50.
        // child 1 [10,30) has a grandchild [12,18): self 14.
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 20, 50),
            span(3, Some(0), "c", 90, 120),
            span(4, Some(1), "a", 12, 18),
        ];
        assert_eq!(self_ns(&spans), vec![50, 14, 30, 30, 6]);
        let by_name = self_ms_by_name(&spans);
        assert!((by_name["root"] - 50e-6).abs() < 1e-15);
        assert!((by_name["a"] - 20e-6).abs() < 1e-15, "a's spans sum");
    }

    #[test]
    fn a_leaf_is_all_self_and_nested_children_are_not_double_counted() {
        let spans = vec![
            span(0, None, "root", 0, 10),
            span(1, Some(0), "mid", 2, 8),
            span(2, Some(1), "leaf", 3, 7),
        ];
        assert_eq!(self_ns(&spans), vec![4, 2, 4]);
    }

    #[test]
    fn tracer_nests_and_merge_renumbers() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        let outer = t.begin("outer");
        t.time("inner", || std::hint::black_box(1 + 1));
        t.end(outer);
        let a = t.into_spans();
        assert_eq!(a[1].parent, Some(0));
        let merged = merge(vec![a.clone(), a]);
        assert_eq!(merged[3].id, 3);
        assert_eq!(merged[3].parent, Some(2));
        let off = Tracer::new(false, origin);
        assert!(off.into_spans().is_empty());
    }
}
