//! In-memory spans around the staged driver's calls into each layer.
//!
//! A span is a name, a start, an end, the span that was open when it
//! started, and the lap it belongs to. Spans wrap whole call batches
//! (a thousand records or more, or one window), never single records,
//! so recording costs two clock reads per batch. They stay in memory
//! and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

/// One recorded span; times are ns since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `window.apply`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Lap the work belongs to.
    pub lap: u64,
}

/// Records spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `work` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        lap: u64,
        work: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            lap,
        });
        self.open.push(id);
        let result = work(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        result
    }

    /// End recording.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Total duration, self time and count of the spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of span durations minus their children's, ns.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Per-name totals. A span's self time is its duration minus the
/// durations of the spans whose parent it is.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_ns[parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, children) in spans.iter().zip(children_ns) {
        let duration = span.end_ns - span.start_ns;
        let layer = layers.entry(span.name).or_default();
        layer.total_ns += duration;
        layer.self_ns += duration.saturating_sub(children);
        layer.count += 1;
    }
    layers
}

/// The spans as one JSON document: a name table plus one
/// `[name, start_ns, end_ns, parent, lap]` row per span (`parent` is
/// `-1` for a root).
pub fn to_json(spans: &[Span]) -> Value {
    let mut names: Vec<&'static str> = Vec::new();
    let rows = spans
        .iter()
        .map(|span| {
            let name = names.iter().position(|&n| n == span.name).unwrap_or_else(|| {
                names.push(span.name);
                names.len() - 1
            });
            Value::Array(vec![
                Value::U64(name as u64),
                Value::U64(span.start_ns),
                Value::U64(span.end_ns),
                Value::I64(span.parent.map_or(-1, i64::from)),
                Value::U64(span.lap),
            ])
        })
        .collect();
    Value::Object(vec![
        ("columns".into(), Value::Str("name,start_ns,end_ns,parent,lap".into())),
        ("names".into(), Value::Array(names.iter().map(|&n| Value::Str(n.into())).collect())),
        ("spans".into(), Value::Array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, lap: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // root [0,100) holds a [10,40) and b [40,90); a holds c [15,25).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("c", 15, 25, Some(1)),
            span("b", 40, 90, Some(0)),
        ];
        let layers = layer_times(&spans);
        assert_eq!(layers["root"], LayerTime { total_ns: 100, self_ns: 20, count: 1 });
        assert_eq!(layers["a"], LayerTime { total_ns: 30, self_ns: 20, count: 1 });
        assert_eq!(layers["b"], LayerTime { total_ns: 50, self_ns: 50, count: 1 });
        assert_eq!(layers["c"], LayerTime { total_ns: 10, self_ns: 10, count: 1 });
        // Self times partition the root: nothing is counted twice or lost.
        let sum: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn same_named_spans_accumulate() {
        let spans = vec![
            span("root", 0, 50, None),
            span("apply", 0, 10, Some(0)),
            span("apply", 20, 35, Some(0)),
        ];
        let layers = layer_times(&spans);
        assert_eq!(layers["apply"], LayerTime { total_ns: 25, self_ns: 25, count: 2 });
        assert_eq!(layers["root"].self_ns, 25);
    }

    #[test]
    fn tracer_nests_by_call_structure() {
        let mut tracer = Tracer::new();
        tracer.span("outer", 3, |t| {
            t.span("inner", 3, |_| ());
            t.span("inner", 3, |_| ());
        });
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(spans[1].lap, 3);
    }
}
