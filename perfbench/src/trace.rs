//! In-memory span recording for the traced replay, and self-time
//! arithmetic over the recorded trees.
//!
//! A span records its name, start, end, parent and request id. Spans nest
//! strictly (the replay is single-threaded), so a span's self time is its
//! duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `datalog.demand_eval`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a request root.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; otherwise runs closures untouched.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Recorder {
    /// A recorder; a disabled one records nothing and adds no clock reads.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Sets the request id stamped on subsequent spans.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as a JSON array of
    /// `{"name","start_ns","end_ns","parent","request","self_ns"}` objects.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"self_ns\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.request,
                selfs[i],
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

/// Each span's self time: its duration minus the durations of its direct
/// children (children nest inside their parent, so they never overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.duration_ns());
        }
    }
    selfs
}

/// Self time and span count per span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Spans of this name.
    pub count: u64,
}

/// Sums self time per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.self_ns += own;
        t.count += 1;
    }
    out
}

/// Per request: the root span's duration and the summed self time of every
/// span in its tree (equal by construction; kept separate so the identity
/// is checked, not assumed).
pub fn per_request(spans: &[Span]) -> BTreeMap<u64, (u64, u64)> {
    let mut out: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.request).or_default();
        if s.parent.is_none() {
            e.0 += s.duration_ns();
        }
        e.1 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, req: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: req,
        }
    }

    /// request(0..100) ⊃ decode(0..10), exec(10..90) ⊃ eval(20..60),
    /// extract(60..80); a second request(100..130) ⊃ decode(100..105).
    fn tree() -> Vec<Span> {
        vec![
            span("request", 0, 100, None, 1),
            span("decode", 0, 10, Some(0), 1),
            span("exec", 10, 90, Some(0), 1),
            span("eval", 20, 60, Some(2), 1),
            span("extract", 60, 80, Some(2), 1),
            span("request", 100, 130, None, 2),
            span("decode", 100, 105, Some(5), 2),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&tree()), vec![10, 10, 20, 40, 20, 25, 5]);
    }

    #[test]
    fn layer_totals_sum_self_time_by_name() {
        let totals = layer_totals(&tree());
        assert_eq!(
            totals["decode"],
            LayerTotal {
                self_ns: 15,
                count: 2
            }
        );
        assert_eq!(
            totals["request"],
            LayerTotal {
                self_ns: 35,
                count: 2
            }
        );
        assert_eq!(totals["eval"].self_ns, 40);
        let all: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(all, 130, "self times partition the two roots' durations");
    }

    #[test]
    fn self_times_add_up_to_each_root() {
        for (_, (root, summed)) in per_request(&tree()) {
            assert_eq!(root, summed);
        }
    }

    #[test]
    fn recorder_nests_spans_and_a_disabled_one_records_nothing() {
        let mut r = Recorder::new(true);
        r.set_request(7);
        let v = r.span("outer", |r| r.span("inner", |_| 41) + 1);
        assert_eq!(v, 42);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("x", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
