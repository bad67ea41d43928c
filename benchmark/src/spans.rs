//! Host-time spans recorded from the benchmark's own files, around the
//! calls into each layer. Spans stay in memory and are written out (as
//! Chrome trace JSON) when the run ends.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One span: a named interval of host time on one lane (host thread),
/// caused by `parent`, on behalf of `query`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: usize,
    pub lane: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a new span hangs: its parent span, the query it serves and the
/// lane (0 = the driving thread, `1 + w` = worker `w`) it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope {
    pub parent: Option<usize>,
    pub query: usize,
    pub lane: usize,
}

impl Scope {
    pub fn root(query: usize) -> Self {
        Self {
            parent: None,
            query,
            lane: 0,
        }
    }

    pub fn under(self, parent: usize) -> Self {
        Self {
            parent: Some(parent),
            ..self
        }
    }

    pub fn on_lane(self, lane: usize) -> Self {
        Self { lane, ..self }
    }
}

/// In-memory span store shared by every wrapper of a traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A panicking holder cannot leave the vector half-updated (push
        // and field store only), so a poisoned lock is still usable.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Open a span; it ends at [`Recorder::close`].
    pub fn open(&self, name: &'static str, scope: Scope) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: scope.parent,
            query: scope.query,
            lane: scope.lane,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&self, name: &'static str, scope: Scope, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, scope);
        let out = f();
        self.close(id);
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Host nanoseconds of `parent`'s interval that its children cover:
/// the union of the child intervals, clipped to the parent (children on
/// different lanes may overlap each other in time).
fn covered_ns(parent: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for &(start, end) in children.iter() {
        let start = start.max(reach);
        let end = end.min(parent.end_ns);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() - covered_ns(span, kids))
        .collect()
}

/// Totals of the spans called `name`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Totals of every span name of one recording, computed once.
#[derive(Debug, Default)]
pub struct Totals(BTreeMap<&'static str, NameTotals>);

impl Totals {
    pub fn of(spans: &[Span]) -> Self {
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
            let entry = by_name.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += self_ns;
        }
        Self(by_name)
    }

    /// Totals of the spans called `name`; all zero when there are none.
    pub fn get(&self, name: &str) -> NameTotals {
        self.0.get(name).copied().unwrap_or_default()
    }
}

/// Per-lane sums of the durations of the spans called `name`.
pub fn lane_totals_ns(spans: &[Span], name: &str) -> Vec<(usize, u64, u64)> {
    let mut lanes: Vec<(usize, u64, u64)> = Vec::new();
    for span in spans.iter().filter(|s| s.name == name) {
        match lanes.iter_mut().find(|(lane, _, _)| *lane == span.lane) {
            Some((_, total, count)) => {
                *total += span.duration_ns();
                *count += 1;
            }
            None => lanes.push((span.lane, span.duration_ns(), 1)),
        }
    }
    lanes.sort_unstable();
    lanes
}

/// The spans as a Chrome trace document (`ts`/`dur` in microseconds,
/// `tid` = lane), loadable in `chrome://tracing` or Perfetto.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"query\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.lane,
                id,
                parent,
                s.query
            )
        })
        .collect();
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, lane: usize) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            query: 0,
            lane,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("root", 0, 100, None, 0),
            span("a", 10, 30, Some(0), 0),
            span("b", 40, 70, Some(0), 0),
            span("b.inner", 45, 50, Some(2), 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 25, 5]);
        let b = Totals::of(&spans).get("b");
        assert_eq!((b.count, b.total_ns, b.self_ns), (1, 30, 25));
        assert_eq!(Totals::of(&spans).get("absent"), NameTotals::default());
    }

    #[test]
    fn overlapping_children_on_two_lanes_count_once() {
        // Two workers run concurrently under one root: the root's self
        // time is the time neither covers, not duration minus the sum.
        let spans = vec![
            span("root", 0, 100, None, 0),
            span("run", 10, 60, Some(0), 1),
            span("run", 20, 90, Some(0), 2),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
        assert_eq!(lane_totals_ns(&spans, "run"), vec![(1, 50, 1), (2, 70, 1)]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("root", 10, 20, None, 0),
            span("late", 15, 40, Some(0), 1),
        ];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn recorder_links_parents_and_exports_valid_json() {
        let rec = Recorder::new();
        let root = rec.open("sample", Scope::root(7));
        let got = rec.span(
            "exec.run_range",
            Scope::root(7).under(root).on_lane(1),
            || 42,
        );
        rec.close(root);
        assert_eq!(got, 42);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!((spans[1].query, spans[1].lane), (7, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = chrome_trace(&spans);
        popt_obs::validate_json(&doc).expect("chrome trace is valid JSON");
    }
}
