//! The benchmark's own in-memory span trace.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer (`round` → `query` → `optimize` | `execute` | `tune`, plus
//! `probe.*` for the direct layer calls), kept in memory, and written
//! out when the run ends. Nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `round` / `query` id of a span that belongs to no round or query.
pub const NONE: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the trace began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub round: u32,
    pub query: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span storage; ids are indices into `spans`.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span whose end is not known yet; finish it with
    /// [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<u32>,
        round: u32,
        query: u32,
    ) -> u32 {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round,
            query,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32, end: Instant) {
        self.spans[id as usize].end_ns = self.ns(end);
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        round: u32,
        query: u32,
    ) -> u32 {
        let id = self.open(name, start, parent, round, query);
        self.close(id, end);
        id
    }

    /// Time a direct call into a layer as a root `probe.*` span.
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, start, Instant::now(), None, NONE, NONE);
        (out, self.spans[id as usize].dur_ns())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Overlapping children are counted once and
/// a child reaching outside its parent is clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total self time per stack (`round;query;execute`), the folded-stack
/// roll-up flame-graph tools read.
pub fn folded(spans: &[Span]) -> BTreeMap<String, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut stack = vec![s.name];
        let mut up = s.parent;
        while let Some(p) = up {
            stack.push(spans[p as usize].name);
            up = spans[p as usize].parent;
        }
        stack.reverse();
        *out.entry(stack.join(";")).or_insert(0) += own[i];
    }
    out
}

/// The roll-up as `stack self_ns` lines.
pub fn folded_text(spans: &[Span]) -> String {
    folded(spans)
        .iter()
        .fold(String::new(), |mut out, (stack, ns)| {
            let _ = writeln!(out, "{stack} {ns}");
            out
        })
}

/// One JSON object per span, one per line.
pub fn jsonl(spans: &[Span]) -> String {
    let id = |v: u32| {
        if v == NONE {
            "null".to_string()
        } else {
            v.to_string()
        }
    };
    spans.iter().enumerate().fold(String::new(), |mut out, (i, s)| {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{},\"query\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            id(s.round),
            id(s.query),
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
            query: NONE,
        }
    }

    /// round [0,100) ── query [10,90) ── optimize [10,20), execute [20,60), tune [50,80)
    ///               └─ query [90,100)   (no children)
    fn tree() -> Vec<Span> {
        vec![
            span("round", 0, 100, None),
            span("query", 10, 90, Some(0)),
            span("optimize", 10, 20, Some(1)),
            span("execute", 20, 60, Some(1)),
            // Overlaps its sibling `execute` on [50,60).
            span("tune", 50, 80, Some(1)),
            span("query", 90, 100, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let own = self_times(&tree());
        // round: 100 − (80 + 10).
        assert_eq!(own[0], 10);
        // query: 80 − |[10,80)| = 10; the overlap is not subtracted twice.
        assert_eq!(own[1], 10);
        assert_eq!(own[2], 10);
        assert_eq!(own[3], 40);
        assert_eq!(own[4], 30);
        // No children: self time is the whole duration.
        assert_eq!(own[5], 10);
    }

    #[test]
    fn a_child_outside_its_parent_is_clipped() {
        let spans = vec![span("round", 10, 20, None), span("query", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn folded_stacks_add_up_per_path() {
        let f = folded(&tree());
        assert_eq!(f["round"], 10);
        assert_eq!(f["round;query"], 20);
        assert_eq!(f["round;query;execute"], 40);
        assert_eq!(f["round;query;tune"], 30);
        assert!(folded_text(&tree()).contains("round;query;optimize 10\n"));
    }

    #[test]
    fn tracer_links_children_and_writes_jsonl() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let round = t.open("round", t0, None, 3, NONE);
        let q = t.record("query", t0, Instant::now(), Some(round), 3, 7);
        t.close(round, Instant::now());
        assert_eq!(t.spans[q as usize].parent, Some(round));
        assert!(t.spans[round as usize].end_ns >= t.spans[q as usize].end_ns);
        let ((), ns) = t.probe("probe.nothing", || ());
        assert_eq!(t.spans[2].dur_ns(), ns);
        let text = jsonl(&t.spans);
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"name\":\"query\""));
        assert!(text.contains("\"parent\":0,\"round\":3,\"query\":7"));
        assert!(text.contains("\"parent\":null,\"round\":null,\"query\":null"));
    }
}
