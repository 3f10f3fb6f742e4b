//! In-memory span recorder for the traced run.
//!
//! A span is `{id, parent, request, name, start_ns, end_ns}`: `parent` is
//! the span open when it began, `request` the cell or request it serves.
//! Spans stay in memory and are written once, when the run ends. A span's
//! *self time* is its duration minus the part of it its children cover;
//! children may overlap (say, two workers under one request), so the
//! covered part is the union of their intervals, not their sum.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Summed self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub self_s: f64,
    pub count: u64,
}

/// Records spans against one time origin. `begin` opens a child of the
/// innermost open span; `end` must close spans innermost first.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tags every span begun from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id for [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request: self.request,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` in seconds.
    pub fn duration_s(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9
    }

    /// Summed self time and count per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        self_times(&self.spans)
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}{}\n",
                s.id,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

/// Self time per name: each span's duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let (lo, hi) = (s.start_ns, s.end_ns.max(s.start_ns));
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = lo;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(cursor), b.min(hi));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let t = totals.entry(s.name).or_default();
        t.self_s += (hi - lo - covered) as f64 / 1e9;
        t.count += 1;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) holds a [10,40) which holds b [20,30).
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "b", 20, 30),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_s, 70e-9);
        assert_eq!(t["a"].self_s, 20e-9);
        assert_eq!(t["b"].self_s, 10e-9);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children [10,50) and [30,70) overlap on [30,50): they cover 60,
        // not 80; a child sticking out past the parent is clipped.
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "w", 10, 50),
            span(2, Some(0), "w", 30, 70),
            span(3, Some(0), "late", 90, 130),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_s, 30e-9);
        assert_eq!(t["w"].count, 2);
        assert_eq!(t["w"].self_s, 80e-9);
    }

    #[test]
    fn tracer_nests_and_tags_requests() {
        let mut tr = Tracer::new();
        tr.set_request(7);
        let root = tr.begin("root");
        tr.time("leaf", || std::hint::black_box(1 + 1));
        tr.end(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert!(tr.to_json().contains("\"name\":\"leaf\""));
    }
}
