//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it; every
//! span of one operation carries that operation's id. A layer's self time
//! is its span's duration minus the part of that interval its child spans
//! cover. Spans are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Operation the span belongs to.
    pub op: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Layer call the span covers, e.g. `"scan.query"`.
    pub name: &'static str,
    /// Start, in ns since the origin.
    pub start_ns: u64,
    /// End, in ns since the origin.
    pub end_ns: u64,
}

/// One thread's span log.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log timing spans from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            op,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name span count and summed self time, in ns.
pub type SelfTimes = BTreeMap<&'static str, (u64, u64)>;

/// Sums each span name's self time: the span's duration minus the union
/// of its children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = SelfTimes::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = covered_ns(kids, s.start_ns, s.end_ns);
        let entry = out.entry(s.name).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += (s.end_ns - s.start_ns) - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Merges per-thread self times.
pub fn merge(into: &mut SelfTimes, from: SelfTimes) {
    for (name, (n, ns)) in from {
        let e = into.entry(name).or_insert((0, 0));
        e.0 += n;
        e.1 += ns;
    }
}

/// Mean self time of `name` per span, in µs (`0` if never recorded).
pub fn mean_self_us(times: &SelfTimes, name: &str) -> f64 {
    match times.get(name) {
        Some(&(n, ns)) if n > 0 => ns as f64 / n as f64 / 1e3,
        _ => 0.0,
    }
}

/// Spans written per thread; metrics use every span, the file keeps the
/// first ones so a long traced run does not fill the disk.
pub const MAX_WRITTEN_SPANS: usize = 100_000;

/// Writes each thread's first [`MAX_WRITTEN_SPANS`] spans as CSV:
/// `thread,op,id,parent,name,start_ns,end_ns`.
pub fn write_csv(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,op,id,parent,name,start_ns,end_ns")?;
    for (t, tracer) in tracers.iter().enumerate() {
        for (id, s) in tracer.spans().iter().take(MAX_WRITTEN_SPANS).enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{t},{},{id},{parent},{},{},{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 7,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("op", None, 0, 100),
            // Overlapping children cover 10..50 once, not twice.
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50),
            // A grandchild counts against its parent only.
            span("c", Some(2), 35, 45),
            // A child outside the parent's interval is clipped away.
            span("d", Some(0), 90, 130),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], (1, 100 - 40 - 10));
        assert_eq!(t["a"], (1, 30));
        assert_eq!(t["b"], (1, 20 - 10));
        assert_eq!(t["c"], (1, 10));
        assert_eq!(t["d"], (1, 40));
        assert_eq!(mean_self_us(&t, "op"), 0.05);
        assert_eq!(mean_self_us(&t, "missing"), 0.0);
    }

    #[test]
    fn self_times_sum_per_name_and_merge() {
        let spans = [
            span("op", None, 0, 10),
            span("x", Some(0), 2, 4),
            span("op", None, 20, 26),
            span("x", Some(2), 20, 26),
        ];
        let mut t = self_times(&spans);
        assert_eq!(t["op"], (2, 8));
        assert_eq!(t["x"], (2, 8));
        merge(&mut t, self_times(&spans[..2]));
        assert_eq!(t["op"], (3, 16));
    }

    #[test]
    fn tracer_nests_spans() {
        let mut tr = Tracer::new(Instant::now());
        let root = tr.begin("op", 1, None);
        let v = tr.child("leaf", 1, root, || 5);
        tr.end(root);
        assert_eq!(v, 5);
        let s = tr.spans();
        assert_eq!(s[1].parent, Some(root));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let t = self_times(s);
        let total = s[0].end_ns - s[0].start_ns;
        assert_eq!(t["op"].1 + t["leaf"].1, total);
    }
}
