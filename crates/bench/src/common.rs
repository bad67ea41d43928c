//! Shared harness utilities: scaling, the [`Figure`] value every figure
//! returns (its one printer renders text or JSON lines, with config
//! provenance on every banner), trace capture for `--trace-out`, and a
//! small work-stealing parallel map (figures sweep hundreds of
//! independent simulator runs).
//!
//! # Figures are values
//!
//! Every figure's `run` builds and returns one [`Figure`] instead of
//! printing as it goes:
//!
//! * [`Figure::new`] — figure id + title, stamped with the run's config
//!   provenance (quick/full, LLC mode, sockets, tracing) and whatever
//!   the figure pins;
//! * [`Figure::header`] — the column names of the figure's table;
//! * [`Figure::row`] — one data row (zipped against the last header in
//!   JSON);
//! * [`Figure::note`] — free-form commentary (`# `-prefixed in text);
//! * [`Figure::metric`] — a number the regression gate
//!   ([`crate::regress`]) compares against its committed baseline.
//!
//! [`Figure::render`] is the one printer. Text is tab-separated; with
//! `--json` every line is one JSON object
//! (`{"type":"banner"|"header"|"row"|"note", "figure": ..., ...}`),
//! closed by the figure's metrics `snapshot`, so a harness can consume
//! every figure without scraping tab columns. The two modes carry
//! identical information.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use popt_obs::{chrome_trace, validate_json, MemorySink, Tracer};

/// Global knobs for a figure run.
#[derive(Debug, Clone)]
pub struct FigureCtx {
    /// Reduced scale for smoke runs (`--quick`).
    pub quick: bool,
    /// Run the parallel/serving figures in shared-LLC (single-socket)
    /// mode (`--shared-llc`): co-running work contends for one LLC via
    /// the deterministic capacity partition, instead of every core
    /// keeping a private full-size LLC.
    pub shared_llc: bool,
    /// Socket count for the parallel/serving figures (`--sockets N`).
    /// With more than one socket the pool splits into contiguous core
    /// blocks, morsel ranges pin to the socket whose workers claim them,
    /// and remote-socket misses pay the deterministic latency surcharge;
    /// `1` is the flat pre-NUMA pool.
    pub sockets: usize,
    /// Write a Chrome-trace-event JSON of the figure's traced runs to
    /// this path (`--trace-out PATH`). Tracing is non-invasive: the
    /// printed simulated cycles are bit-identical with or without it.
    pub trace_out: Option<String>,
}

impl FigureCtx {
    /// A context with default knobs (full scale, private LLC, one
    /// socket, no tracing).
    pub fn plain() -> Self {
        Self {
            quick: false,
            shared_llc: false,
            sockets: 1,
            trace_out: None,
        }
    }

    /// Pick `full` or `quick` depending on the context.
    pub fn scale(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// One recorded benchmark metric: the measured value plus the relative
/// tolerance the regression gate ([`crate::regress`]) compares it under.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMetric {
    /// Snapshot key (stable across runs — the gate joins on it).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Relative tolerance: a replay whose value lands outside
    /// `baseline * (1 ± tol)` fails the gate.
    pub tol: f64,
}

/// Default relative tolerance for [`Figure::metric`]: tight enough that a
/// 20% cycle regression on a deterministic metric always trips the gate.
pub const DEFAULT_METRIC_TOL: f64 = 0.10;

/// The canonical `BENCH_<figure>.json` snapshot document: figure id, the
/// scale mode it was measured under, and every metric with its value and
/// tolerance, in recording order. Values print through Rust's
/// shortest-roundtrip `Display`, which never emits exponents or
/// non-finite tokens for the finite values a metric holds.
pub fn snapshot_json(figure: &str, mode: &str, metrics: &[BenchMetric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"tol\":{}}}",
                json_escape(&m.name),
                m.value,
                m.tol
            )
        })
        .collect();
    format!(
        "{{\"figure\":\"{}\",\"mode\":\"{}\",\"metrics\":{{{}}}}}\n",
        json_escape(figure),
        json_escape(mode),
        fields.join(",")
    )
}

/// Minimal JSON string escaping (the printer emits only strings it
/// formatted itself, but labels may carry quotes or backslashes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One line of a figure's table, in print order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Line {
    /// Column names: JSON rows after it key their cells by them.
    Header(Vec<String>),
    /// One data row.
    Row(Vec<String>),
    /// Commentary, printed verbatim as text (figures pass `# `-prefixed
    /// text; JSON strips that prefix).
    Note(String),
}

/// What one figure run produced: its banner, its table and commentary in
/// print order, and the metrics it recorded for the regression gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure id (`"7"`, `"scale"`, ...).
    pub(crate) id: String,
    /// Banner title.
    pub(crate) title: String,
    /// Config provenance: the run's knobs, then the figure's own.
    pub(crate) config: Vec<(String, String)>,
    /// Header, row and note lines in print order.
    pub(crate) lines: Vec<Line>,
    /// Recorded metrics in first-recording order (last write wins).
    pub metrics: Vec<BenchMetric>,
}

impl Figure {
    /// An empty figure under a banner stamped with the run's config
    /// provenance; a figure appends what it pins (worker counts, morsel
    /// sizing, reoptimization cadence) to its `config`.
    pub fn new(ctx: &FigureCtx, id: &str, title: &str) -> Self {
        let config = [
            ("mode", if ctx.quick { "quick" } else { "full" }),
            ("llc", if ctx.shared_llc { "shared" } else { "private" }),
            ("sockets", &ctx.sockets.to_string()),
            ("trace", ctx.trace_out.as_deref().unwrap_or("off")),
        ];
        Self {
            id: id.into(),
            title: title.into(),
            config: config.map(|(k, v)| (k.into(), v.into())).into(),
            lines: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Declare the table's column names.
    pub fn header<S: AsRef<str>>(&mut self, cells: &[S]) {
        let cells = cells.iter().map(|c| c.as_ref().to_string()).collect();
        self.lines.push(Line::Header(cells));
    }

    /// Add one data row.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) {
        let cells = cells.iter().map(|c| c.as_ref().to_string()).collect();
        self.lines.push(Line::Row(cells));
    }

    /// Add one commentary line (`# `-prefixed by convention).
    pub fn note(&mut self, text: impl Into<String>) {
        self.lines.push(Line::Note(text.into()));
    }

    /// Record a benchmark metric at the [`DEFAULT_METRIC_TOL`]. Use only
    /// for values that are a pure function of the simulation (serial or
    /// 1-worker cycle counts, qualified/sum results, morsel counts).
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metric_tol(name, value, DEFAULT_METRIC_TOL);
    }

    /// Record a benchmark metric with an explicit relative tolerance.
    /// Values that move with any change to where a pool's trials and
    /// rounds land (multi-worker walls, latency percentiles under
    /// reoptimization) need a loose tolerance; last write wins when a
    /// figure re-records a name. The tolerance must lie in `[0, 1)`: at
    /// `tol >= 1` a value that collapsed to zero still passes, so the
    /// gate could never trip downward.
    pub fn metric_tol(&mut self, name: &str, value: f64, tol: f64) {
        assert!(
            value.is_finite() && (0.0..1.0).contains(&tol),
            "bench metric {name}: non-finite value {value} or tolerance {tol} outside [0, 1)"
        );
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => (m.value, m.tol) = (value, tol),
            None => self.metrics.push(BenchMetric {
                name: name.into(),
                value,
                tol,
            }),
        }
    }

    /// The one printer: the banner, then every line — tab-separated text,
    /// or one JSON object per line with `json`, each row keyed by the
    /// last header's column names (positional `"c<N>"` keys when no
    /// header came first or the widths disagree — a row is never
    /// silently truncated). With `json` and `snapshot`, a figure that
    /// recorded metrics closes with one `"type":"snapshot"` line: the
    /// document `regress --bless` commits, so a harness can diff
    /// without the subcommand.
    pub fn render(&self, json: bool, snapshot: bool) -> String {
        let id = json_escape(&self.id);
        // Every JSON line opens with its type and the figure id.
        let obj = |kind: &str, body: String| {
            format!("{{\"type\":\"{kind}\",\"figure\":\"{id}\",{body}}}\n")
        };
        let mut out = if json {
            let config: Vec<String> = self
                .config
                .iter()
                .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
                .collect();
            let title = json_escape(&self.title);
            obj(
                "banner",
                format!("\"title\":\"{title}\",\"config\":{{{}}}", config.join(",")),
            )
        } else {
            let config: Vec<String> = self
                .config
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let (id, title) = (&self.id, &self.title);
            format!(
                "\n### Figure {id}: {title}\n# config: {}\n",
                config.join(" ")
            )
        };
        let mut columns: &[String] = &[];
        for line in &self.lines {
            out += &match (line, json) {
                (Line::Header(cells) | Line::Row(cells), false) => cells.join("\t") + "\n",
                (Line::Note(text), false) => format!("{text}\n"),
                (Line::Header(cells), true) => {
                    columns = cells;
                    let cols: Vec<String> = cells
                        .iter()
                        .map(|c| format!("\"{}\"", json_escape(c)))
                        .collect();
                    obj("header", format!("\"columns\":[{}]", cols.join(",")))
                }
                (Line::Row(cells), true) => {
                    let keyed = columns.len() == cells.len();
                    let fields: Vec<String> = cells
                        .iter()
                        .enumerate()
                        .map(|(i, c)| {
                            let key = if keyed {
                                json_escape(&columns[i])
                            } else {
                                format!("c{i}")
                            };
                            format!("\"{key}\":\"{}\"", json_escape(c))
                        })
                        .collect();
                    obj("row", format!("\"cells\":{{{}}}", fields.join(",")))
                }
                (Line::Note(text), true) => {
                    let text = json_escape(text.strip_prefix("# ").unwrap_or(text));
                    obj("note", format!("\"text\":\"{text}\""))
                }
            };
        }
        if json && snapshot && !self.metrics.is_empty() {
            let mode = self.config.iter().find(|(k, _)| k == "mode");
            let doc = snapshot_json(&self.id, mode.map_or("", |(_, v)| v), &self.metrics);
            out.push_str(&format!("{{\"type\":\"snapshot\",{}", &doc[1..]));
        }
        out
    }
}

/// Captures a figure's traced runs into memory and writes them out as
/// one Chrome-trace-event JSON (`--trace-out`). Query ids are handed out
/// sequentially so every traced run in the figure lands in one file
/// with distinct `"query"` tags.
pub struct TraceCapture {
    tracer: Arc<Tracer>,
    sink: Arc<MemorySink>,
    path: String,
    next_query: AtomicUsize,
}

impl TraceCapture {
    /// A capture for `workers` worker lanes when the context asks for
    /// tracing (`None` otherwise — the figure runs untraced).
    pub fn from_ctx(ctx: &FigureCtx, workers: usize) -> Option<Self> {
        ctx.trace_out.as_ref().map(|path| {
            let sink = Arc::new(MemorySink::new());
            Self {
                tracer: Arc::new(Tracer::for_workers(sink.clone(), workers)),
                sink,
                path: path.clone(),
                next_query: AtomicUsize::new(0),
            }
        })
    }

    /// The tracer to hand to traced runs.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The next sequential query id for this capture.
    pub fn next_query(&self) -> usize {
        self.next_query.fetch_add(1, Ordering::Relaxed)
    }

    /// Export everything captured to the `--trace-out` path as Chrome
    /// trace-event JSON, validating the emitted text parses, and note the
    /// export on the figure.
    pub fn write(&self, fig: &mut Figure) {
        let records = self.sink.snapshot();
        let json = chrome_trace(&records);
        validate_json(&json).expect("chrome trace export is valid JSON");
        std::fs::write(&self.path, &json).expect("trace output path is writable");
        fig.note(format!(
            "# trace: {} events -> {} ({} bytes)",
            records.len(),
            self.path,
            json.len()
        ));
    }
}

/// Format a float with sensible precision for tables.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// Evenly subsample `k` items of a slice (always keeps first and last).
pub fn subsample<T: Clone>(items: &[T], k: usize) -> Vec<T> {
    if items.len() <= k || k < 2 {
        return items.to_vec();
    }
    (0..k)
        .map(|i| items[i * (items.len() - 1) / (k - 1)].clone())
        .collect()
}

/// Map `f` over `items` on all available cores, preserving order.
///
/// Each worker owns a `SimCpu`-style context created inside `f`; items are
/// claimed from an atomic cursor so long-running simulator sweeps balance
/// across threads. Each thread hands back its `(index, result)` pairs
/// through its join handle, merged in index order; a panicking worker
/// re-raises its panic here.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len().max(1));
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return done;
                        }
                        done.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn subsample_keeps_endpoints() {
        let items: Vec<u32> = (0..100).collect();
        let s = subsample(&items, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0], 0);
        assert_eq!(*s.last().unwrap(), 99);
    }

    #[test]
    fn fmt_precision_tiers() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.5), "1234");
        assert_eq!(fmt(12.345), "12.35");
        assert_eq!(fmt(0.123456), "0.1235");
    }

    #[test]
    fn scale_picks_by_mode() {
        let mut ctx = FigureCtx::plain();
        ctx.quick = true;
        assert_eq!(ctx.scale(100, 10), 10);
        ctx.quick = false;
        assert_eq!(ctx.scale(100, 10), 100);
    }

    #[test]
    fn provenance_tracks_the_context() {
        let mut ctx = FigureCtx::plain();
        ctx.shared_llc = true;
        ctx.sockets = 2;
        ctx.trace_out = Some("/tmp/t.json".into());
        let pairs = Figure::new(&ctx, "t", "provenance").config;
        let get = |k: &str| {
            pairs
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("mode"), "full");
        assert_eq!(get("llc"), "shared");
        assert_eq!(get("sockets"), "2");
        assert_eq!(get("trace"), "/tmp/t.json");
    }

    #[test]
    fn json_escaping_survives_validation() {
        let escaped = json_escape("a\"b\\c\nd\te\u{1}");
        assert!(!escaped.contains('\n'));
        let quoted = format!("\"{escaped}\"");
        validate_json(&quoted).expect("escaped string is valid JSON");
    }

    #[test]
    fn figure_metrics_keep_order_and_last_write_wins() {
        let mut fig = Figure::new(&FigureCtx::plain(), "t", "metrics");
        fig.metric("a", 1.0);
        fig.metric_tol("b", 2.0, 0.5);
        fig.metric_tol("a", 3.0, 0.2); // re-record replaces in place
        assert_eq!(fig.metrics.len(), 2);
        assert_eq!(fig.metrics[0].name, "a");
        assert_eq!(fig.metrics[0].value, 3.0);
        assert_eq!(fig.metrics[0].tol, 0.2);
        assert_eq!(fig.metrics[1].name, "b");
        assert_eq!(fig.metrics[1].tol, 0.5);
        let other = Figure::new(&FigureCtx::plain(), "u", "fresh");
        assert!(other.metrics.is_empty(), "each figure owns its metrics");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn bench_metric_tol_refuses_a_gate_that_cannot_trip() {
        let mut fig = Figure::new(&FigureCtx::plain(), "t", "metrics");
        fig.metric_tol("collapsed", 1.0, 4.0);
    }

    #[test]
    fn snapshot_json_is_valid_and_carries_every_metric() {
        let metrics = vec![
            BenchMetric {
                name: "wall_ms".into(),
                value: 12.5,
                tol: 0.1,
            },
            BenchMetric {
                name: "odd\"name".into(),
                value: 3.0,
                tol: 0.35,
            },
        ];
        let doc = snapshot_json("scale", "quick", &metrics);
        validate_json(doc.trim_end()).expect("snapshot is valid JSON");
        assert!(doc.contains("\"figure\":\"scale\""));
        assert!(doc.contains("\"mode\":\"quick\""));
        assert!(doc.contains("\"wall_ms\":{\"value\":12.5,\"tol\":0.1}"));
        assert!(
            doc.ends_with('\n'),
            "committed baselines end with a newline"
        );
        let mut ctx = FigureCtx::plain();
        ctx.quick = true;
        let mut fig = Figure::new(&ctx, "scale", "gate");
        for m in &metrics {
            fig.metric_tol(&m.name, m.value, m.tol);
        }
        let text = fig.render(true, true);
        let line = text.lines().last().expect("rendered lines");
        validate_json(line).expect("snapshot line is valid JSON");
        assert_eq!(
            line,
            format!("{{\"type\":\"snapshot\",{}", &doc.trim_end()[1..])
        );
        assert!(!fig.render(true, false).contains("\"type\":\"snapshot\""));
        assert!(!fig.render(false, true).contains("\"type\":\"snapshot\""));
    }

    #[test]
    fn trace_capture_hands_out_sequential_queries() {
        let mut ctx = FigureCtx::plain();
        assert!(TraceCapture::from_ctx(&ctx, 4).is_none());
        ctx.trace_out = Some("/tmp/unused-trace.json".into());
        let cap = TraceCapture::from_ctx(&ctx, 4).expect("tracing requested");
        assert_eq!(cap.next_query(), 0);
        assert_eq!(cap.next_query(), 1);
        assert_eq!(cap.tracer().lanes(), 5);
        assert!(cap.sink.snapshot().is_empty());
    }
}
