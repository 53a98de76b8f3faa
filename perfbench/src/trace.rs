//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span's name is `<layer>.<what>`; its layer is the part before the
//! first dot. Spans nest per thread: a span opened while another is open on
//! the same thread becomes its child. The spans are written out once, when
//! the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request a serve span belongs to.
    pub request: Option<u64>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    /// Spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[self.index].end_ns = end;
        }
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&i| i == self.index) {
                open.remove(pos);
            }
        });
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span that ends when the guard drops.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.open(name, None)
    }

    /// [`Tracer::span`] tagged with a request id.
    pub fn span_req(&self, name: &'static str, request: u64) -> Guard<'_> {
        self.open(name, Some(request))
    }

    fn open(&self, name: &'static str, request: Option<u64>) -> Guard<'_> {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start = self.now_ns();
        let index = self.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            request,
        });
        OPEN.with(|open| open.borrow_mut().push(index));
        Guard {
            tracer: self,
            index,
        }
    }

    /// Records an already-measured interval as a child of the innermost
    /// span open on this thread.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, request: Option<u64>) {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        self.push(Span {
            name,
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            parent,
            request,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _g = self.span(name);
        f()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span holder panics").clone()
    }

    /// Writes the spans as `{"spans": [...]}`, times in microseconds.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start_us\": {}, \"end_us\": {}, \"parent\": {}, \
                     \"request\": {}}}",
                    json::string(s.name),
                    json::number(s.start_ns as f64 / 1e3),
                    json::number(s.end_ns as f64 / 1e3),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request.map_or("null".to_string(), |r| r.to_string()),
                )
            })
            .collect();
        std::fs::write(path, format!("{{\"spans\": [\n{}\n]}}\n", rows.join(",\n")))
    }
}

/// Each span's self time in seconds: its duration minus the part of it
/// that its children cover (children are clipped to the parent and their
/// overlaps counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 * 1e-9
        })
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += t;
    }
    out
}

/// Total duration of the spans named `name`, in seconds.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum()
}

/// The spans named `name`, in seconds each.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

/// Share of the spans named `root` that their descendants cover: one minus
/// the roots' self time over their duration.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut dur, mut own) = (0.0, 0.0);
    for (s, t) in spans.iter().zip(selfs) {
        if s.name == root {
            dur += s.seconds();
            own += t;
        }
    }
    if dur > 0.0 {
        1.0 - own / dur
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = vec![
            span("bench.root", 0, 100, None),
            span("kernels.a", 10, 40, Some(0)),
            span("linalg.a1", 15, 25, Some(1)),
            span("core.b", 50, 90, Some(0)),
        ];
        let t: Vec<u64> = self_times(&spans)
            .iter()
            .map(|s| (s * 1e9).round() as u64)
            .collect();
        assert_eq!(t, vec![30, 20, 10, 40]);
        let layers = layer_self_times(&spans);
        assert_eq!((layers["bench"] * 1e9).round(), 30.0);
        assert_eq!((layers["linalg"] * 1e9).round(), 10.0);
        // Self times of a tree sum to the root's duration.
        assert_eq!(t.iter().sum::<u64>(), 100);
        assert!((coverage(&spans, "bench.root") - 0.7).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two children from other threads overlap each other and one
        // outlives the parent.
        let spans = vec![
            span("serve.batch", 0, 100, None),
            span("serve.a", 10, 60, Some(0)),
            span("serve.b", 40, 80, Some(0)),
            span("serve.c", 90, 150, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!((t[0] * 1e9).round(), 100.0 - 70.0 - 10.0);
    }

    #[test]
    fn guards_nest_on_one_thread() {
        let tracer = Tracer::default();
        {
            let _outer = tracer.span("bench.epoch");
            tracer.time("core.step", || {
                let _inner = tracer.span_req("kernels.assembly", 7);
            });
        }
        let _after = tracer.span("bench.after");
        let spans = tracer.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].request, Some(7));
        assert_eq!(spans[3].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[2].layer(), "kernels");
    }
}
