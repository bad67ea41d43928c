//! Shared harness utilities: scaling, the figure reporter (text or
//! JSON-lines output, config provenance on every banner), trace capture
//! for `--trace-out`, and a small work-stealing parallel map (figures
//! sweep hundreds of independent simulator runs).
//!
//! # The reporter
//!
//! Every figure routes its output through four calls instead of ad-hoc
//! `println!`s:
//!
//! * [`banner`] — figure id + title, stamped with the run's config
//!   provenance (quick/full, LLC mode, sockets, tracing);
//! * [`header`] — the column names of the figure's table;
//! * [`row`] — one data row (zipped against the last [`header`] in JSON
//!   mode);
//! * `note!` — free-form commentary (`# `-prefixed in text mode).
//!
//! With `--json` the same calls emit one JSON object per line
//! (`{"type":"banner"|"header"|"row"|"note", "figure": ..., ...}`), so a
//! harness can consume every figure without scraping tab columns. The
//! two modes carry identical information.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use popt_obs::{chrome_trace, validate_json, MemorySink, TraceRecord, Tracer};

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
    /// Emit machine-readable JSON lines instead of tab-separated text
    /// (`--json`).
    pub json: bool,
    /// Write a Chrome-trace-event JSON of the figure's traced runs to
    /// this path (`--trace-out PATH`). Tracing is non-invasive: the
    /// printed simulated cycles are bit-identical with or without it.
    pub trace_out: Option<String>,
}

impl FigureCtx {
    /// A context with default knobs (full scale, private LLC, one
    /// socket, text output, no tracing).
    pub fn plain() -> Self {
        Self {
            quick: false,
            shared_llc: false,
            sockets: 1,
            json: false,
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

    /// The base config-provenance pairs stamped under every banner.
    fn provenance(&self) -> Vec<(&'static str, String)> {
        vec![
            ("mode", if self.quick { "quick" } else { "full" }.into()),
            (
                "llc",
                if self.shared_llc { "shared" } else { "private" }.into(),
            ),
            ("sockets", self.sockets.to_string()),
            (
                "trace",
                match &self.trace_out {
                    Some(path) => path.clone(),
                    None => "off".into(),
                },
            ),
        ]
    }
}

/// The reporter's shared state: output mode, the figure being printed,
/// the column names its last [`header`] declared, and the benchmark
/// metrics recorded since the last [`take_metrics`].
struct Reporter {
    json: bool,
    figure: String,
    columns: Vec<String>,
    metrics: Vec<BenchMetric>,
}

static REPORTER: Mutex<Reporter> = Mutex::new(Reporter {
    json: false,
    figure: String::new(),
    columns: Vec::new(),
    metrics: Vec::new(),
});

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

/// Default relative tolerance for [`bench_metric`]: tight enough that a
/// 20% cycle regression on a deterministic metric always trips the gate.
pub const DEFAULT_METRIC_TOL: f64 = 0.10;

/// Record a benchmark metric at the [`DEFAULT_METRIC_TOL`]. Use only for
/// values that are a pure function of the simulation (serial or
/// 1-worker cycle counts, qualified/sum results, morsel counts).
pub fn bench_metric(name: &str, value: f64) {
    bench_metric_tol(name, value, DEFAULT_METRIC_TOL);
}

/// Record a benchmark metric with an explicit relative tolerance. Values
/// that move with any change to where a pool's trials and rounds land
/// (multi-worker walls, latency percentiles under reoptimization) need a
/// loose tolerance; last write
/// wins when a figure re-records a name. The tolerance must lie in
/// `[0, 1)`: at `tol >= 1` a value that collapsed to zero still passes,
/// so the gate could never trip downward.
pub fn bench_metric_tol(name: &str, value: f64, tol: f64) {
    assert!(
        value.is_finite() && (0.0..1.0).contains(&tol),
        "bench metric {name}: non-finite value {value} or tolerance {tol} outside [0, 1)"
    );
    let mut rep = REPORTER.lock().expect("reporter lock");
    if let Some(m) = rep.metrics.iter_mut().find(|m| m.name == name) {
        m.value = value;
        m.tol = tol;
    } else {
        rep.metrics.push(BenchMetric {
            name: name.to_string(),
            value,
            tol,
        });
    }
}

/// Drain the metrics recorded since the last call (insertion order).
pub fn take_metrics() -> Vec<BenchMetric> {
    std::mem::take(&mut REPORTER.lock().expect("reporter lock").metrics)
}

/// A finite `f64` as a JSON number (Rust's shortest-roundtrip `Display`
/// never emits exponents or non-finite tokens for finite values).
fn json_num(x: f64) -> String {
    format!("{x}")
}

/// The canonical `BENCH_<figure>.json` snapshot document: figure id, the
/// scale mode it was measured under, and every metric with its value and
/// tolerance, in recording order.
pub fn snapshot_json(figure: &str, mode: &str, metrics: &[BenchMetric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"tol\":{}}}",
                esc(&m.name),
                json_num(m.value),
                json_num(m.tol)
            )
        })
        .collect();
    format!(
        "{{\"figure\":\"{}\",\"mode\":\"{}\",\"metrics\":{{{}}}}}\n",
        esc(figure),
        esc(mode),
        fields.join(",")
    )
}

/// The snapshot as one `--json` reporter line (`"type":"snapshot"`).
pub fn snapshot_line(figure: &str, mode: &str, metrics: &[BenchMetric]) -> String {
    let doc = snapshot_json(figure, mode, metrics);
    format!("{{\"type\":\"snapshot\",{}", &doc.trim_end()[1..])
}

/// Minimal JSON string escaping (the reporter emits only strings it
/// formatted itself, but labels may carry quotes or backslashes).
fn esc(s: &str) -> String {
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

/// Print a figure banner stamped with the run's config provenance, and
/// reset the reporter's column state for the new figure.
pub fn banner(ctx: &FigureCtx, id: &str, title: &str) {
    banner_with(ctx, id, title, &[]);
}

/// [`banner`] with figure-specific provenance appended (worker counts,
/// morsel sizing, reoptimization cadence — whatever the figure pins).
pub fn banner_with(ctx: &FigureCtx, id: &str, title: &str, extras: &[(&str, String)]) {
    let mut rep = REPORTER.lock().expect("reporter lock");
    rep.json = ctx.json;
    rep.figure = id.to_string();
    rep.columns.clear();
    rep.metrics.clear();
    let mut pairs = ctx.provenance();
    for (k, v) in extras {
        pairs.push((k, v.clone()));
    }
    if rep.json {
        let config: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", esc(k), esc(v)))
            .collect();
        println!(
            "{{\"type\":\"banner\",\"figure\":\"{}\",\"title\":\"{}\",\"config\":{{{}}}}}",
            esc(id),
            esc(title),
            config.join(",")
        );
    } else {
        println!("\n### Figure {id}: {title}");
        let joined: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("# config: {}", joined.join(" "));
    }
}

/// Declare the figure's column names. Subsequent [`row`] calls zip
/// against these names in JSON mode.
pub fn header<S: AsRef<str>>(cells: &[S]) {
    let mut rep = REPORTER.lock().expect("reporter lock");
    rep.columns = cells.iter().map(|c| c.as_ref().to_string()).collect();
    if rep.json {
        let cols: Vec<String> = rep
            .columns
            .iter()
            .map(|c| format!("\"{}\"", esc(c)))
            .collect();
        println!(
            "{{\"type\":\"header\",\"figure\":\"{}\",\"columns\":[{}]}}",
            esc(&rep.figure),
            cols.join(",")
        );
    } else {
        let joined: Vec<&str> = cells.iter().map(AsRef::as_ref).collect();
        println!("{}", joined.join("\t"));
    }
}

/// Print one data row: tab-separated in text mode, an object keyed by
/// the last [`header`]'s column names in JSON mode (positional
/// `"c<N>"` keys when a figure never declared columns or the widths
/// disagree — the row is never silently truncated).
pub fn row<S: AsRef<str>>(cells: &[S]) {
    let rep = REPORTER.lock().expect("reporter lock");
    if rep.json {
        let fields: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let key = rep
                    .columns
                    .get(i)
                    .filter(|_| rep.columns.len() == cells.len())
                    .cloned()
                    .unwrap_or_else(|| format!("c{i}"));
                format!("\"{}\":\"{}\"", esc(&key), esc(c.as_ref()))
            })
            .collect();
        println!(
            "{{\"type\":\"row\",\"figure\":\"{}\",\"cells\":{{{}}}}}",
            esc(&rep.figure),
            fields.join(",")
        );
    } else {
        let joined: Vec<&str> = cells.iter().map(AsRef::as_ref).collect();
        println!("{}", joined.join("\t"));
    }
}

/// Emit one commentary line. Text mode prints it verbatim (figures pass
/// `# `-prefixed text); JSON mode strips the comment prefix and wraps
/// the rest in a `note` object. Use via the `note!` macro.
pub fn note_line(text: &str) {
    let rep = REPORTER.lock().expect("reporter lock");
    if rep.json {
        let stripped = text.strip_prefix("# ").unwrap_or(text);
        println!(
            "{{\"type\":\"note\",\"figure\":\"{}\",\"text\":\"{}\"}}",
            esc(&rep.figure),
            esc(stripped)
        );
    } else {
        println!("{text}");
    }
}

/// `println!`-compatible commentary through the reporter: text mode
/// prints the formatted line, `--json` mode wraps it in a `note` object.
#[macro_export]
macro_rules! note {
    ($($arg:tt)*) => {
        $crate::common::note_line(&format!($($arg)*))
    };
}

/// A figure-level invariant: panics with the failing figure's id in the
/// message so a multi-figure run points at the culprit.
pub fn check(cond: bool, msg: &str) {
    if !cond {
        let figure = REPORTER.lock().expect("reporter lock").figure.clone();
        panic!("figure {figure}: {msg}");
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

    /// Records captured so far (for in-figure summaries).
    pub fn records(&self) -> Vec<TraceRecord> {
        self.sink.snapshot()
    }

    /// Export everything captured to the `--trace-out` path as Chrome
    /// trace-event JSON, validating the emitted text parses.
    pub fn write(&self) {
        let records = self.sink.snapshot();
        let json = chrome_trace(&records);
        validate_json(&json).expect("chrome trace export is valid JSON");
        std::fs::write(&self.path, &json).expect("trace output path is writable");
        note!(
            "# trace: {} events -> {} ({} bytes)",
            records.len(),
            self.path,
            json.len()
        );
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
/// across threads.
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
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                results.lock().expect("no poisoned workers")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|r| r.expect("every index visited"))
        .collect()
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
        let pairs = ctx.provenance();
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
        let escaped = esc("a\"b\\c\nd\te\u{1}");
        assert!(!escaped.contains('\n'));
        let quoted = format!("\"{escaped}\"");
        validate_json(&quoted).expect("escaped string is valid JSON");
    }

    #[test]
    fn bench_metrics_drain_in_order_and_last_write_wins() {
        take_metrics(); // isolate from other tests sharing the reporter
        bench_metric("a", 1.0);
        bench_metric_tol("b", 2.0, 0.5);
        bench_metric_tol("a", 3.0, 0.2); // re-record replaces in place
        let metrics = take_metrics();
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].name, "a");
        assert_eq!(metrics[0].value, 3.0);
        assert_eq!(metrics[0].tol, 0.2);
        assert_eq!(metrics[1].name, "b");
        assert_eq!(metrics[1].tol, 0.5);
        assert!(take_metrics().is_empty(), "drained");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn bench_metric_tol_refuses_a_gate_that_cannot_trip() {
        bench_metric_tol("collapsed", 1.0, 4.0);
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
        let line = snapshot_line("scale", "quick", &metrics);
        validate_json(&line).expect("snapshot line is valid JSON");
        assert!(line.starts_with("{\"type\":\"snapshot\","));
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
        assert!(cap.records().is_empty());
    }
}
