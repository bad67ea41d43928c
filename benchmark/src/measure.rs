//! One run of one workload: the end-to-end measurement (tracing and
//! observers off) or the separate traced run that yields the per-layer
//! numbers.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::engine::{self, FitLog, Mode, Observers, Outcome};
use crate::gen::{self, Class};
use crate::spans::{self, Recorder, Scope, Span, Totals};
use crate::stats::{iqr_share, median, percentile, percentile_u64, ratio};
use crate::workloads::{self, Setup, Workload};

type Res<T> = Result<T, String>;

/// Samples executed and discarded before a window opens.
const WARMUP_SAMPLES: usize = 3;
/// Fewest samples a window reports on, however short `--seconds` is.
const MIN_SAMPLES: usize = 3;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Inputs are generated at `rows >> shift` (`check` uses 4).
    pub shift: u32,
}

/// The result of one run, as its last output line carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; units come from the tables in `metrics`.
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-form lines for the human reader (fingerprints, sample counts).
    pub notes: Vec<String>,
}

/// Untimed and timed samples of one window, each checked against ground
/// truth as it completes.
struct Window {
    host_ns: Vec<f64>,
    outcomes: Vec<Outcome>,
    /// Queries (or single-query samples) checked, and those found wrong.
    attempted: u64,
    failed: u64,
}

impl Window {
    fn new() -> Self {
        Self {
            host_ns: Vec::new(),
            outcomes: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Run sample `i` under `mode`, check it and keep it.
    fn take(&mut self, w: &dyn Workload, i: usize, mode: &Mode<'_>) {
        let truths = w.truths(i);
        self.attempted += truths.len() as u64;
        let t0 = Instant::now();
        let result = w.sample(i, mode);
        let ns = t0.elapsed().as_nanos() as f64;
        match result {
            Ok(outcome) => {
                let wrong = if outcome.answers.len() == truths.len() {
                    outcome
                        .answers
                        .iter()
                        .zip(&truths)
                        .filter(|(got, want)| got != want)
                        .count() as u64
                } else {
                    truths.len() as u64
                };
                // A serial workload's simulated numbers must repeat
                // exactly; a sample that differs from the first failed.
                let drifted = w.deterministic()
                    && self.outcomes.first().is_some_and(|first| *first != outcome);
                self.failed += wrong.max(u64::from(drifted));
                self.host_ns.push(ns);
                self.outcomes.push(outcome);
            }
            Err(e) => {
                eprintln!("sample {i} failed: {e}");
                self.failed += truths.len() as u64;
            }
        }
    }

    fn per_sample(&self, f: impl Fn(&Outcome) -> f64) -> Vec<f64> {
        self.outcomes.iter().map(f).collect()
    }

    fn median_of(&self, f: impl Fn(&Outcome) -> f64) -> f64 {
        median(&self.per_sample(f))
    }
}

/// Run plain samples until `seconds` of host time have passed; sample
/// `i` runs under index `i` (its own schedule on `serve_mix`).
fn plain_window(w: &dyn Workload, seconds: f64) -> Window {
    for i in 0..WARMUP_SAMPLES {
        // Discarded: lazy allocation and page faults of the first passes.
        let _ = w.sample(i, &Mode::Plain);
    }
    let mut window = Window::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < MIN_SAMPLES || Instant::now() < deadline {
        window.take(w, i, &Mode::Plain);
        i += 1;
    }
    window
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Sample-weighted mean of a drift statistic over every series of
/// `metric` (one series per front stage).
fn drift_mean(obs: &Observers, metric: &str, stat: impl Fn(&popt_obs::DriftStats) -> f64) -> f64 {
    let mut weighted = 0.0;
    let mut samples = 0.0;
    for ((name, _), stats) in obs.drift.series() {
        if name == metric {
            weighted += stat(&stats) * stats.samples as f64;
            samples += stats.samples as f64;
        }
    }
    ratio(weighted, samples)
}

/// [`drift_mean`] of a relative error, every series capped at 1: a
/// series whose observed counter is 0 (a scan that never leaves the
/// cache) would otherwise divide by zero and swamp the mean.
fn drift_error(obs: &Observers, metric: &str, stat: impl Fn(&popt_obs::DriftStats) -> f64) -> f64 {
    drift_mean(obs, metric, |s| stat(s).min(1.0))
}

/// Host seconds of observed samples on a workload whose simulated
/// numbers depend on host-thread arrival order.
const OBSERVED_SECONDS: f64 = 1.0;

/// Observed executions of sample 0 (tracer, profiler and drift
/// observatory attached), checked like any other sample: one on a serial
/// workload, whose fits repeat exactly; on a pool as many as fit in
/// [`OBSERVED_SECONDS`], all feeding one observatory, because a single
/// run lands in one of two modes of the raw model error.
fn observed_samples(w: &dyn Workload) -> (Observers, Window) {
    let observers = Observers::new(engine::WORKERS);
    let mut window = Window::new();
    let deadline = Instant::now() + Duration::from_secs_f64(OBSERVED_SECONDS);
    let mode = |lanes| Mode::Observed {
        observers: &observers,
        lanes,
    };
    window.take(w, 0, &mode(true));
    while !w.deterministic() && Instant::now() < deadline {
        window.take(w, 0, &mode(false));
    }
    (observers, window)
}

/// Pooled latency of every query executed in the window.
fn pooled_latencies(window: &Window) -> Vec<u64> {
    window
        .outcomes
        .iter()
        .flat_map(|o| o.latencies.iter().copied())
        .collect()
}

fn fingerprint_notes(workload: &str, seed: u64, shift: u32, setup: &Setup) -> Res<Vec<String>> {
    let mut notes: Vec<String> = setup
        .fingerprints
        .iter()
        .map(|(column, f)| format!("fingerprint {column} {f:016x}"))
        .collect();
    let combined = gen::combined_fingerprint(&setup.fingerprints);
    notes.push(format!("fingerprint combined {combined:016x}"));
    if seed == gen::DEFAULT_SEED && shift == 0 {
        if let Some(pinned) = gen::pinned_fingerprint(workload) {
            if pinned != combined {
                return Err(format!(
                    "{workload}: inputs of the default seed changed: fingerprint \
                     {combined:016x}, pinned {pinned:016x}"
                ));
            }
        }
    }
    Ok(notes)
}

/// The end-to-end run: set-up repeated, warm-up, a timed window with
/// tracing and observers off, then (outside the window) the static-order
/// enumeration and one observed sample for the model-error metrics.
fn end_to_end(args: &RunArgs, w: &dyn Workload, setup: &Setup) -> Res<RunResult> {
    let notes = fingerprint_notes(&args.workload, args.seed, args.shift, setup)?;
    let tuples = w.tuples() as f64;
    let window = plain_window(w, args.seconds);
    let rss = peak_rss_mib()?;
    if window.outcomes.is_empty() {
        return Err("every sample of the window failed".into());
    }
    // The fastest twentieth, not the median: other tenants of the host
    // only ever add time to a sample, so the low end repeats between
    // runs where the median does not (up to 18 % apart under a busy
    // neighbour).
    let host_ns = percentile(&window.host_ns, 0.05);
    let samples = window.host_ns.len();
    let cost = window.median_of(|o| o.cost_cycles as f64);
    let latencies = pooled_latencies(&window);

    let best_static = w.best_static_cost()? as f64;
    let (observers, observed) = observed_samples(w);
    let err_cal = drift_error(&observers, "cpt", |s| s.calibrated_mean_rel_err);
    let err_raw = drift_error(&observers, "cpt", |s| s.mean_rel_err);

    let metrics = vec![
        ("setup_s", median(&setup.seconds)),
        ("host_ns_per_tuple", host_ns / tuples),
        ("host_rss_mb", rss),
        ("sim_cycles_per_tuple", cost / tuples),
        ("sim_latency_p50_cycles", percentile_u64(&latencies, 0.5)),
        ("sim_latency_p95_cycles", percentile_u64(&latencies, 0.95)),
        ("sim_regret", ratio(cost, best_static)),
        ("model_cpt_acc_cal", 1.0 - err_cal),
        ("model_cpt_acc_raw", 1.0 - err_raw),
    ];
    let mut notes = notes;
    notes.push(format!(
        "samples {samples} over {:.1} s after {WARMUP_SAMPLES} warm-up; set-up repeated {} times",
        args.seconds,
        setup.seconds.len()
    ));
    let per_tuple: Vec<f64> = window.host_ns.iter().map(|ns| ns / tuples).collect();
    notes.push(format!(
        "host ns/tuple fastest {:.4} quartiles {:?}",
        percentile(&per_tuple, 0.0),
        crate::stats::quartiles(&per_tuple)
    ));
    Ok(RunResult {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: false,
        correct: window.failed + observed.failed == 0,
        attempted: window.attempted + observed.attempted,
        failed: window.failed + observed.failed,
        metrics,
        notes,
    })
}

/// Spans of the first traced sample: everything recorded before the
/// second root span opened.
fn first_sample_spans(spans: &[Span]) -> &[Span] {
    let second_root = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .nth(1)
        .map_or(spans.len(), |(i, _)| i);
    &spans[..second_root]
}

/// What the span-recording samples of a traced run yielded.
struct TracedWindow {
    window: Window,
    spans: Vec<Span>,
    /// Fits captured by the first traced sample.
    fits: Vec<engine::Fit>,
}

/// Alternate plain and span-recording samples of schedule 0 for
/// `seconds`, so that host drift during the run lands on both sides of
/// `obs.trace_overhead` alike.
fn interleaved_windows(w: &dyn Workload, seconds: f64) -> (Window, TracedWindow) {
    for _ in 0..WARMUP_SAMPLES {
        let _ = w.sample(0, &Mode::Plain);
    }
    let rec = Recorder::new();
    let fits = FitLog::default();
    let mut first_fits = None;
    let mut plain = Window::new();
    let mut window = Window::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < MIN_SAMPLES || Instant::now() < deadline {
        plain.take(w, 0, &Mode::Plain);
        let root = rec.open("sample", Scope::root(i));
        window.take(
            w,
            0,
            &Mode::Spans {
                rec: &rec,
                scope: Scope::root(i).under(root),
                fits: &fits,
            },
        );
        rec.close(root);
        let captured = std::mem::take(&mut *fits.lock().unwrap_or_else(|e| e.into_inner()));
        first_fits.get_or_insert(captured);
        i += 1;
    }
    let traced = TracedWindow {
        window,
        spans: rec.snapshot(),
        fits: first_fits.unwrap_or_default(),
    };
    (plain, traced)
}

/// Spans, fits and `(outcome, input tuples)` of one serial execution of
/// each twin.
struct TracedTwins {
    spans: Vec<Span>,
    fits: Vec<engine::Fit>,
    outcomes: Vec<(Outcome, u64)>,
}

fn traced_twins(w: &dyn Workload) -> Res<TracedTwins> {
    let rec = Recorder::new();
    let fits = FitLog::default();
    let root = rec.open("twins", Scope::root(0));
    let outcomes = w.twins(&Mode::Spans {
        rec: &rec,
        scope: Scope::root(0).under(root),
        fits: &fits,
    })?;
    rec.close(root);
    let fits = std::mem::take(&mut *fits.lock().unwrap_or_else(|e| e.into_inner()));
    Ok(TracedTwins {
        spans: rec.snapshot(),
        fits,
        outcomes,
    })
}

fn write_traces(dir: &Path, workload: &str, spans: &[Span], obs: &Observers) -> Res<()> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let files = [
        ("host", spans::chrome_trace(first_sample_spans(spans))),
        ("sim", popt_obs::chrome_trace(&obs.records())),
        ("profile", obs.profiler.chrome_trace()),
    ];
    for (kind, doc) in files {
        let path = dir.join(format!("{workload}.{kind}.trace.json"));
        std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The traced run: plain samples (the base of `obs.trace_overhead`)
/// alternating with span-recording ones, then one observed sample, the
/// solver replay and the direct executor probes.
fn per_layer(
    args: &RunArgs,
    w: &dyn Workload,
    setup: &Setup,
    out_dir: Option<&Path>,
) -> Res<RunResult> {
    let mut notes = fingerprint_notes(&args.workload, args.seed, args.shift, setup)?;
    let tuples = w.tuples() as f64;

    // Every sample of the traced run uses schedule 0, so that the
    // spread over samples is the engine's own nondeterminism.
    let (plain, traced) = interleaved_windows(w, args.seconds);
    if plain.outcomes.is_empty() || traced.window.outcomes.is_empty() {
        return Err("every sample of a window failed".into());
    }
    let plain_ns = median(&plain.host_ns);
    let traced_ns = median(&traced.window.host_ns);
    let traced_samples = traced.window.host_ns.len() as f64;

    // Executor, cost-model and loop spans: from the workload's own traced
    // samples where the wrapper sits inside, else from its serial twins.
    let TracedTwins {
        spans: twin_spans,
        fits: twin_fits,
        outcomes: twin_outcomes,
    } = traced_twins(w)?;
    let traced_totals = Totals::of(&traced.spans);
    let twin_totals = Totals::of(&twin_spans);
    let (inner_totals, inner_runs, inner_tuples, fits) = if w.traces_inside() {
        (&traced_totals, traced_samples, tuples, &traced.fits)
    } else {
        let twin_tuples: u64 = twin_outcomes.iter().map(|(_, t)| t).sum();
        (&twin_totals, 1.0, twin_tuples as f64, &twin_fits)
    };
    // A coordinator's fused fits never pass the wrapper: replay the
    // serial twin's fits of the same plan instead.
    let fits = if fits.is_empty() { &twin_fits } else { fits };
    let replay = engine::replay_fits(fits);
    let fit_ns = ratio(replay.total_ns as f64, replay.fits as f64);

    let run = inner_totals.get("exec.run_range");
    let reorder = inner_totals.get("exec.set_order");
    let geometry = inner_totals.get("cost.plan_geometry");
    let roots = traced_totals.get("sample");

    // Counts come from the plain samples (medians; exact on the serial
    // workloads).
    let c = |f: fn(&popt_cpu::Counters) -> u64| plain.median_of(|o| f(&o.counters) as f64);
    let events = c(|c| c.branches + c.l1_accesses + c.l1_element_hits);
    let inner_events = if w.traces_inside() {
        events
    } else {
        twin_outcomes
            .iter()
            .map(|(o, _)| {
                (o.counters.branches + o.counters.l1_accesses + o.counters.l1_element_hits) as f64
            })
            .sum()
    };
    let cost = plain.median_of(|o| o.cost_cycles as f64);
    let fits_per_sample = plain.median_of(|o| o.fits as f64);
    let vectors = plain.median_of(|o| o.vectors as f64);
    let switches = plain.median_of(|o| o.switches as f64);

    // Host-thread time of one traced execution and what the named layers
    // cover of it: span self times plus the replayed solver time of its
    // fits. The rest is the loop's own time — on a pool, coordination
    // and waiting. A pool sample occupies one host thread per worker.
    let threads = plain.outcomes[0].worker_cycles.len() as f64;
    let solver_ns_per_sample = fits_per_sample * fit_ns;
    let (thread_ns, inner_vectors, inner_solver_ns) = if w.traces_inside() {
        (
            roots.total_ns as f64 / traced_samples * threads,
            vectors,
            solver_ns_per_sample,
        )
    } else {
        (
            twin_totals.get("twins").total_ns as f64,
            twin_outcomes.iter().map(|(o, _)| o.vectors as f64).sum(),
            replay.total_ns as f64,
        )
    };
    let self_ns = |name: &str| inner_totals.get(name).self_ns as f64 / inner_runs;
    let exec_cpu_ns = self_ns("exec.run_range") + self_ns("exec.set_order");
    let cost_model_ns = self_ns("cost.plan_geometry");
    let calls_ns = self_ns("progressive.propose_order") + self_ns("progressive.calibrate");
    let residual_ns = thread_ns - exec_cpu_ns - cost_model_ns - calls_ns - inner_solver_ns;

    // Coordination: wall time of a traced sample the busiest worker did
    // not spend executing, per morsel that worker ran.
    let lanes = spans::lane_totals_ns(&traced.spans, "exec.run_range");
    let coord_ns_per_morsel = lanes
        .iter()
        .filter(|(lane, _, _)| *lane > 0)
        .max_by_key(|(_, total, _)| *total)
        .map_or(0.0, |&(_, total, count)| {
            ratio(roots.total_ns as f64 - total as f64, count as f64)
        });

    // Simulated and host speed-up over the serial twin (par_star only:
    // the twin of a serial workload is itself, a batch has three).
    let (sim_speedup, host_speedup) = if !w.deterministic() && w.traces_inside() {
        let mut twin = Window::new();
        for _ in 0..MIN_SAMPLES {
            let t0 = Instant::now();
            let outcomes = w.twins(&Mode::Plain)?;
            twin.host_ns.push(t0.elapsed().as_nanos() as f64);
            twin.outcomes.extend(outcomes.into_iter().map(|(o, _)| o));
        }
        (
            ratio(
                twin.median_of(|o| o.wall_cycles as f64),
                plain.median_of(|o| o.wall_cycles as f64),
            ),
            ratio(median(&twin.host_ns), plain_ns),
        )
    } else {
        (0.0, 0.0)
    };

    let (observers, observed_window) = observed_samples(w);
    let observed = observed_window
        .outcomes
        .first()
        .cloned()
        .unwrap_or_default();
    let identical = if w.deterministic() {
        observed == plain.outcomes[0]
    } else {
        observed.answers == plain.outcomes[0].answers
    };
    let drift_cal = |metric: &str| drift_error(&observers, metric, |s| s.calibrated_mean_rel_err);

    let oracle = w.oracle()?;
    if !oracle.identical {
        notes.push("scalar oracle and batched fast path disagree".into());
    }

    // Serving figures: schedule 0's classes, pooled over the plain samples.
    let classes = w.classes(0);
    let class_p95 = |class: Class| {
        let pooled: Vec<u64> = plain
            .outcomes
            .iter()
            .flat_map(|o| o.latencies.iter().zip(&classes))
            .filter(|(_, c)| **c == class)
            .map(|(l, _)| *l)
            .collect();
        percentile_u64(&pooled, 0.95)
    };
    let serve =
        |f: fn(&engine::ServeStats) -> f64| plain.median_of(|o| o.serve.as_ref().map_or(0.0, f));
    let queries = classes.len() as f64;
    let queue_p95 = {
        let pooled: Vec<u64> = plain
            .outcomes
            .iter()
            .filter_map(|o| o.serve.as_ref())
            .flat_map(|s| s.queue_cycles.iter().copied())
            .collect();
        percentile_u64(&pooled, 0.95)
    };

    let workers = |o: &Outcome| o.worker_cycles.len() as f64;
    let busy = |o: &Outcome| o.worker_cycles.iter().sum::<u64>() as f64;
    let is_pool = plain.outcomes[0].worker_cycles.len() > 1;
    let pool_only = |x: f64| if is_pool { x } else { 0.0 };
    let cpt_per_sample = plain.per_sample(|o| o.cost_cycles as f64 / tuples);
    let p50_per_sample = plain.per_sample(|o| percentile_u64(&o.latencies, 0.5));
    let host_per_tuple: Vec<f64> = plain.host_ns.iter().map(|ns| ns / tuples).collect();

    let metrics = vec![
        ("cpu.events_per_tuple", events / tuples),
        (
            "cpu.host_ns_per_event",
            ratio(run.total_ns as f64 / inner_runs, inner_events),
        ),
        ("cpu.ipc", ratio(c(|c| c.instructions), c(|c| c.cycles))),
        (
            "cpu.branch_mp_rate",
            ratio(c(|c| c.mispredictions()), c(|c| c.branches)),
        ),
        ("cpu.l2_access_per_tuple", c(|c| c.l2_accesses) / tuples),
        ("cpu.l3_access_per_tuple", c(|c| c.l3_accesses) / tuples),
        ("cpu.l3_miss_per_tuple", c(|c| c.l3_misses) / tuples),
        (
            "cpu.mem_access_per_tuple",
            c(|c| c.memory_accesses) / tuples,
        ),
        (
            "cpu.prefetch_per_tuple",
            c(|c| c.prefetch_requests) / tuples,
        ),
        (
            "cpu.llc_effective_kib",
            plain.median_of(|o| o.llc_effective_bytes as f64) / 1024.0,
        ),
        (
            "cpu.oracle_ratio",
            ratio(oracle.oracle_ns as f64, oracle.batched_ns as f64),
        ),
        ("cpu.bulk_ns_per_tuple", w.bulk_ns_per_tuple()?),
        ("storage.gen_s", setup.gen_s),
        ("storage.hot_bytes_per_tuple", setup.hot_bytes_per_tuple),
        ("storage.native_ns_per_tuple", setup.native_ns_per_tuple),
        ("plan.compile_us", w.compile_us()?),
        ("plan.stages", w.stages() as f64),
        (
            "exec.run_ns_per_tuple",
            ratio(run.total_ns as f64 / inner_runs, inner_tuples),
        ),
        ("exec.reorders", reorder.count as f64 / inner_runs),
        (
            "exec.reorder_us",
            ratio(reorder.total_ns as f64, reorder.count as f64) / 1e3,
        ),
        ("exec.vectors", vectors),
        (
            "cost.geometry_us_per_fit",
            ratio(geometry.total_ns as f64, geometry.count as f64) / 1e3,
        ),
        ("cost.cpt_scale", drift_mean(&observers, "cpt", |s| s.scale)),
        ("cost.l3_err_cal", drift_cal("l3")),
        ("cost.bnt_err_cal", drift_cal("bnt")),
        ("cost.mp_err_cal", drift_cal("mp")),
        ("solver.fits", fits_per_sample),
        (
            "solver.evals_per_fit",
            ratio(replay.evaluations as f64, replay.fits as f64),
        ),
        ("solver.fit_us", fit_ns / 1e3),
        (
            "solver.host_share",
            ratio(solver_ns_per_sample, plain_ns * threads),
        ),
        (
            "solver.sim_cycle_share",
            ratio(plain.median_of(|o| o.optimizer_cycles as f64), cost),
        ),
        ("progressive.switches", switches),
        (
            "progressive.reverted_share",
            ratio(plain.median_of(|o| o.reverted as f64), switches),
        ),
        (
            "progressive.exploratory_share",
            ratio(plain.median_of(|o| o.exploratory as f64), switches),
        ),
        (
            "progressive.vectors_to_converge",
            plain.median_of(|o| ratio(o.converged_at as f64, o.answers.len() as f64)),
        ),
        (
            "progressive.loop_ns_per_vector",
            ratio(residual_ns.max(0.0), inner_vectors),
        ),
        (
            "parallel.occupancy",
            pool_only(plain.median_of(|o| ratio(busy(o), o.wall_cycles as f64 * workers(o)))),
        ),
        (
            "parallel.imbalance",
            pool_only(plain.median_of(|o| {
                let max = o.worker_cycles.iter().copied().max().unwrap_or(0) as f64;
                ratio(max * workers(o), busy(o))
            })),
        ),
        ("parallel.morsels", pool_only(vectors)),
        ("parallel.sim_speedup", sim_speedup),
        ("parallel.host_speedup", host_speedup),
        ("parallel.coord_ns_per_morsel", coord_ns_per_morsel),
        ("parallel.sim_cpt_spread", iqr_share(&cpt_per_sample)),
        ("serve.occupancy", serve(|s| s.occupancy)),
        ("serve.queue_p95_cycles", queue_p95),
        (
            "serve.warm_start_share",
            ratio(serve(|s| s.warm_starts as f64), queries),
        ),
        ("serve.latency_p95_cycles.high", class_p95(Class::High)),
        ("serve.latency_p95_cycles.low", class_p95(Class::Low)),
        ("serve.host_us_per_query", ratio(plain_ns / 1e3, queries)),
        ("serve.fits_per_query", ratio(fits_per_sample, queries)),
        (
            "serve.sim_latency_spread",
            if queries > 0.0 {
                iqr_share(&p50_per_sample)
            } else {
                0.0
            },
        ),
        ("obs.trace_overhead", ratio(traced_ns, plain_ns)),
        (
            "obs.records_per_ktuple",
            observers.records().len() as f64 / (tuples / 1e3),
        ),
        (
            "obs.profiler_conserves",
            f64::from(u8::from(observers.profiler.conserves())),
        ),
        ("obs.observed_identical", f64::from(u8::from(identical))),
        ("host.ns_per_tuple_p50", median(&host_per_tuple)),
        ("host.ns_per_tuple_p95", percentile(&host_per_tuple, 0.95)),
        ("host.samples", plain.host_ns.len() as f64),
    ];

    notes.push(format!(
        "untraced samples {} (median {:.3} ms), traced samples {} (median {:.3} ms), \
         replayed fits {}",
        plain.host_ns.len(),
        plain_ns / 1e6,
        traced.window.host_ns.len(),
        traced_ns / 1e6,
        replay.fits
    ));
    notes.push(format!(
        "host-thread shares of a traced {}: exec+cpu {:.4}, solver (replayed) {:.4}, cost {:.4}, \
         progressive calls {:.4}, residual (loop, coordination, waiting) {:.4}",
        if w.traces_inside() {
            "sample"
        } else {
            "serial pass over the three templates"
        },
        ratio(exec_cpu_ns, thread_ns),
        ratio(inner_solver_ns, thread_ns),
        ratio(cost_model_ns, thread_ns),
        ratio(calls_ns, thread_ns),
        ratio(residual_ns, thread_ns),
    ));
    if !w.traces_inside() {
        let compile = traced_totals.get("plan.compile");
        let serve_run = traced_totals.get("serve.run");
        notes.push(format!(
            "host shares of a traced batch: plan.compile {:.4}, serve.run {:.4}",
            ratio(compile.total_ns as f64, roots.total_ns as f64),
            ratio(serve_run.total_ns as f64, roots.total_ns as f64),
        ));
    }
    if let Some(dir) = out_dir {
        write_traces(dir, &args.workload, &traced.spans, &observers)?;
    }

    // The oracle identity counts as one more checked operation.
    let failed =
        plain.failed + traced.window.failed + observed_window.failed + u64::from(!oracle.identical);
    Ok(RunResult {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: true,
        correct: failed == 0,
        attempted: plain.attempted + traced.window.attempted + observed_window.attempted + 1,
        failed,
        metrics,
        notes,
    })
}

/// Generate the inputs and run the workload once, end to end or traced.
pub fn run(args: &RunArgs, out_dir: Option<&Path>) -> Res<RunResult> {
    let repeats = if args.trace {
        1
    } else {
        workloads::SETUP_REPEATS
    };
    workloads::with_workload(
        &args.workload,
        args.seed,
        args.shift,
        repeats,
        |w, setup| {
            if args.trace {
                per_layer(args, w, setup, out_dir)
            } else {
                end_to_end(args, w, setup)
            }
        },
    )
}
