//! Spans recorded from outside the program, around the benchmark's own
//! calls into each layer's public functions.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! id of the iteration it belongs to. Spans stay in memory and are
//! written out when the run ends. A layer's *self time* is its span
//! minus the part of that interval its children cover, so the self
//! times of a call's spans partition the call's wall.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub call: u64,
}

/// Span recorder. When off, every method just runs the wrapped code, so
/// the traced and untraced runs execute the same call path.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    call: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            call: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Iteration id stamped on the spans opened from now on.
    pub fn set_call(&mut self, call: u64) {
        self.call = call;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.iter().rev().nth(1).copied(),
            call: self.call,
        });
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("close without a matching open");
        self.spans[i].end_ns = now;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Children of every span, by index.
pub fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    kids
}

/// Span `i`'s duration minus the union of its children's intervals
/// (clipped to the span), in ns.
pub fn self_time(spans: &[Span], i: usize, kids: &[usize]) -> u64 {
    let (s, e) = (spans[i].start_ns, spans[i].end_ns);
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|&c| (spans[c].start_ns.max(s), spans[c].end_ns.min(e)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (e - s) - covered
}

/// Sum of the self times of span `root` and all its descendants. Equals
/// the root's duration exactly when children nest inside their parents
/// and siblings do not overlap, which is what sequential code records.
pub fn subtree_self_sum(spans: &[Span], kids: &[Vec<usize>], root: usize) -> u64 {
    let mut sum = 0;
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        sum += self_time(spans, i, &kids[i]);
        stack.extend(&kids[i]);
    }
    sum
}

/// Per-name self times and durations of a finished run.
#[derive(Debug, Default)]
pub struct Summary {
    self_ns: BTreeMap<&'static str, Vec<f64>>,
    dur_ns: BTreeMap<&'static str, Vec<f64>>,
    /// Root spans whose subtree self times failed to sum to their wall.
    pub unpartitioned: usize,
}

impl Summary {
    /// Summarise `spans`, checking the partition of every root span.
    pub fn new(spans: &[Span]) -> Self {
        let kids = children(spans);
        let mut out = Self::default();
        for (i, s) in spans.iter().enumerate() {
            let dur = (s.end_ns - s.start_ns) as f64;
            let own = self_time(spans, i, &kids[i]) as f64;
            out.self_ns.entry(s.name).or_default().push(own);
            out.dur_ns.entry(s.name).or_default().push(dur);
            if s.parent.is_none() && subtree_self_sum(spans, &kids, i) != s.end_ns - s.start_ns {
                out.unpartitioned += 1;
            }
        }
        out
    }

    /// Mean self time of the spans named `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        crate::stats::mean(self.self_ns.get(name).map_or(&[], Vec::as_slice)) / 1e6
    }

    /// Mean duration of the spans named `name`, in ms.
    pub fn dur_ms(&self, name: &str) -> f64 {
        crate::stats::mean(self.dur_ns.get(name).map_or(&[], Vec::as_slice)) / 1e6
    }

    /// Durations of the spans named `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.dur_ns
            .get(name)
            .map_or_else(Vec::new, |v| v.iter().map(|x| x / 1e6).collect())
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.dur_ns.get(name).map_or(0, Vec::len)
    }
}

/// The spans as JSON lines.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"call\": {}}}\n",
            s.name, s.start_ns, s.end_ns, s.call
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            call: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100; children 10..30 and 20..50 overlap (union 10..50),
        // a third child 60..70, and one that pokes out past the root.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            span("d", 95, 120, Some(0)),
        ];
        let kids = children(&spans);
        assert_eq!(self_time(&spans, 0, &kids[0]), 100 - 40 - 10 - 5);
        assert_eq!(self_time(&spans, 1, &kids[1]), 20);
        // A span without children keeps its whole duration.
        assert_eq!(self_time(&spans, 3, &kids[3]), 10);
    }

    #[test]
    fn nested_self_times_plus_residual_equal_the_wall() {
        let spans = vec![
            span("call", 0, 1000, None),
            span("layer", 100, 600, Some(0)),
            span("inner", 200, 300, Some(1)),
            span("layer", 700, 900, Some(0)),
        ];
        let kids = children(&spans);
        assert_eq!(subtree_self_sum(&spans, &kids, 0), 1000);
        let s = Summary::new(&spans);
        assert_eq!(s.unpartitioned, 0);
        // Residual: the call's wall not covered by its children.
        assert_eq!(s.self_ms("call"), 300.0 / 1e6);
        assert_eq!(s.self_ms("layer"), (400.0 + 200.0) / 2.0 / 1e6);
    }

    #[test]
    fn overlapping_siblings_break_the_partition() {
        let spans = vec![
            span("call", 0, 100, None),
            span("a", 0, 60, Some(0)),
            span("b", 40, 100, Some(0)),
        ];
        assert_eq!(Summary::new(&spans).unpartitioned, 1);
    }

    #[test]
    fn recorder_nests_spans_and_is_inert_when_off() {
        let mut t = Tracer::on();
        t.set_call(7);
        t.open("call");
        let x = t.span("layer", || 41 + 1);
        t.close();
        assert_eq!(x, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s.iter().all(|s| s.call == 7 && s.start_ns <= s.end_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::off();
        off.open("call");
        assert_eq!(off.span("layer", || 5), 5);
        off.close();
        assert!(off.spans().is_empty());
    }
}
