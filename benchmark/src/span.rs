//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (name, start, end, parent, run/request id), kept in memory, and
//! written as one JSON document when the workload ends. A span's *self
//! time* is its duration minus the part of it its children cover.

use nsc_sim::json::escape;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`core.run`, `serve.span.simulate`, ...).
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The run or request the span belongs to.
    pub id: u64,
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

/// The recorder. When off, [`Recorder::time`] only calls its closure.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that records iff `on`.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the recorder's epoch to `t`.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Times `f` as a child of the innermost open span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already-closed span (a request measured by timestamps,
    /// or a span parsed from the daemon's tree) and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Appends another recorder's spans (a generator thread's), keeping
    /// their parent links. Both recorders must share an epoch.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// A recorder for another thread that shares this one's epoch.
    pub fn fork(&self) -> Recorder {
        Recorder {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per-name count, total and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// The spans as one JSON document (`nsc-benchmark-trace-v1`).
    pub fn to_json(&self, workload: &str) -> String {
        let selfs = self_times(&self.spans);
        let mut out = format!(
            "{{\"schema\":\"nsc-benchmark-trace-v1\",\"workload\":\"{}\",\"unit\":\"ns\",\"spans\":[\n",
            escape(workload)
        );
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"i\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"self\":{self_ns},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span itself (overlapping or
/// overhanging children are not counted twice or beyond the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 90, Some(0)),
            span(50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children overlap on 20..30 and the second overhangs the parent.
        let spans = [
            span(0, 50, None),
            span(10, 30, Some(0)),
            span(20, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![10, 20, 60]);
        // A child wholly outside its parent covers nothing.
        let spans = [span(0, 10, None), span(20, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn recorder_nests_and_totals() {
        let mut r = Recorder::new(true);
        r.time("outer", 7, |r| {
            r.time("inner", 7, |_| std::hint::black_box(1 + 1));
        });
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[1].id, 7);
        let t = r.totals();
        assert_eq!(t["outer"].count, 1);
        assert_eq!(
            t["outer"].self_ns + t["inner"].total_ns,
            t["outer"].total_ns
        );
        assert!(nsc_sim::json::parse(&r.to_json("w")).is_ok());
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.time("x", 0, |_| 5), 5);
        assert_eq!(r.push("y", 0, 1, None, 0), None);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let mut a = Recorder::new(true);
        a.push("a", 0, 1, None, 0);
        let mut b = a.fork();
        let root = b.push("root", 0, 10, None, 1);
        b.push("kid", 2, 4, root, 1);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
