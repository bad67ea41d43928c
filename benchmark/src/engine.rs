//! The only file of the benchmark that names engine entry points.
//!
//! Every call into the system under test goes through here, so this file
//! is the list of symbols the benchmark pins (see `README.md`):
//! `QueryBuilder`, `PlanBuilder` → `CompiledProgram`,
//! `run_progressive_program_observed`, `run_progressive_target_observed`,
//! `run_parallel_program_observed`, `run_parallel_target_observed`,
//! `CompiledTarget`, `CompiledSelection`, `QueryServer` / `QuerySpec` /
//! `ServeConfig`, `ExecObservers` and `estimate_selectivities`.
//! Deliberately absent: the boxed `Pipeline`, every `_traced` twin and
//! `crates/bench`.
//!
//! Layers are measured from outside: [`Traced`] delegates the
//! `ProgressiveTarget` / `ShardableTarget` contract to the engine's own
//! target and records a host-time span around every call.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use popt_core::exec::program::CompiledProgram;
use popt_core::exec::scan::{CompiledSelection, VectorStats};
use popt_core::parallel::{
    run_parallel_program_observed, run_parallel_target_observed, MorselConfig, ParallelReport,
    ShardableTarget, TargetShard,
};
use popt_core::plan::{order_by_selectivity, Expr, Peo, PlanBuilder, SelectionPlan};
use popt_core::predicate::{CompareOp, Predicate};
use popt_core::progressive::{
    run_progressive_program_observed, run_progressive_target_observed, CompiledTarget,
    ProgressiveConfig, ProgressiveReport, ProgressiveTarget, SwitchEvent, VectorConfig,
    STREAM_HOT_BYTES_PER_COLUMN,
};
use popt_core::query::{QueryBuilder, QueryReport, RunMode};
use popt_core::serve::{Priority, QueryServer, QuerySpec, ServeConfig, ServeReport};
use popt_core::{EngineError, ExecObservers};
use popt_cost::estimate::PlanGeometry;
use popt_cost::markov::ChainSpec;
use popt_cpu::{CacheLevelConfig, Counters, CpuConfig, CpuPool, LlcMode, NumaPlacement, SimCpu};
use popt_obs::{DriftObservatory, MemorySink, Profiler, TraceRecord, Tracer};
use popt_solver::{estimate_selectivities, CalibrationSnapshot, EstimatorConfig, SampledCounters};
use popt_storage::Table;

use crate::gen::{
    Arrival, Class, Star, Template, Truth, SCAN1_LITERAL, SCAN3_LITERALS, STAR_JOIN_LITERALS,
};
use crate::spans::{Recorder, Scope};

pub type Res<T> = Result<T, String>;

/// The compiled star join, as the workloads hold it.
pub type Program<'t> = CompiledProgram<'t>;

fn engine_err(e: EngineError) -> String {
    format!("engine error: {e}")
}

/// Vectors between optimization attempts, on every workload.
pub const REOP_INTERVAL: usize = 4;
/// Tuples per vector of `scan_q6`.
pub const Q6_VECTOR_TUPLES: usize = 8192;
/// Tuples per vector (serial) and per morsel (parallel, served) of the
/// star join and the serving templates.
pub const STAR_VECTOR_TUPLES: usize = 4096;
/// Start order of `scan_q6`: the reverse of plan order.
pub const Q6_START_ORDER: [usize; 5] = [4, 3, 2, 1, 0];
/// Start order of the star join: selection, the two random joins, then
/// the co-clustered one.
pub const STAR_START_ORDER: [usize; 4] = [0, 2, 3, 1];
/// Start order of the 3-predicate scan template: descending selectivity.
pub const SCAN3_START_ORDER: [usize; 3] = [2, 1, 0];
/// Workers (simulated cores and host threads) of `par_star` and
/// `serve_mix`.
pub const WORKERS: usize = 2;

/// `CpuConfig::xeon_e5_2630_v2()` with the 8 KiB / 64 KiB / 1 MiB
/// hierarchy the join figures use, so dimension tables outgrow the LLC
/// at benchmark-scale row counts.
pub fn scaled_cpu() -> CpuConfig {
    let mut cfg = CpuConfig::xeon_e5_2630_v2();
    cfg.name = "scaled-down Xeon (1 MiB LLC)";
    let level = |capacity_bytes, ways, hit_latency_cycles| CacheLevelConfig {
        capacity_bytes,
        line_bytes: 64,
        ways,
        hit_latency_cycles,
    };
    cfg.levels = vec![
        level(8 * 1024, 8, 0),
        level(64 * 1024, 8, 10),
        level(1024 * 1024, 16, 30),
    ];
    cfg
}

fn shared_pool() -> CpuPool {
    CpuPool::with_topology(scaled_cpu(), WORKERS, LlcMode::Shared, 1)
}

fn progressive_config() -> ProgressiveConfig {
    ProgressiveConfig {
        reop_interval: REOP_INTERVAL,
        ..Default::default()
    }
}

fn vectors(vector_tuples: usize) -> VectorConfig {
    VectorConfig {
        vector_tuples,
        max_vectors: None,
    }
}

/// What one execution of a workload's query (or batch) produced, in the
/// benchmark's own terms. Simulated quantities only — host time is
/// measured by the caller around the call.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Count and sum per query, in submission order.
    pub answers: Vec<Truth>,
    /// Execution + optimizer cycles summed over cores (and queries).
    pub cost_cycles: u64,
    pub optimizer_cycles: u64,
    /// Latency per query; the wall cycles of the one query on
    /// single-query workloads.
    pub latencies: Vec<u64>,
    pub wall_cycles: u64,
    /// Busy cycles per worker (one entry on serial workloads).
    pub worker_cycles: Vec<u64>,
    pub counters: Counters,
    /// Vectors (serial) or morsels (parallel, served) executed.
    pub vectors: u64,
    pub fits: u64,
    pub switches: u64,
    pub reverted: u64,
    pub exploratory: u64,
    /// Vector (or morsel count) at which the last switch that was kept
    /// took effect, summed over queries; 0 when none was kept.
    pub converged_at: u64,
    /// Smallest effective LLC share of a core while the run executed.
    pub llc_effective_bytes: u64,
    pub serve: Option<ServeStats>,
}

/// The serving-only part of an [`Outcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    pub occupancy: f64,
    pub queue_cycles: Vec<u64>,
    pub warm_starts: u64,
}

fn switch_stats(out: &mut Outcome, switches: &[SwitchEvent]) {
    out.switches += switches.len() as u64;
    out.reverted += switches.iter().filter(|s| s.reverted).count() as u64;
    out.exploratory += switches.iter().filter(|s| s.exploratory).count() as u64;
    out.converged_at += switches
        .iter()
        .rev()
        .find(|s| !s.reverted)
        .map_or(0, |s| s.vector as u64);
}

/// The outcome of a serial run: one query on one core.
fn serial_outcome(
    answer: Truth,
    cycles: u64,
    optimizer_cycles: u64,
    counters: Counters,
    vectors: usize,
    fits: usize,
    switches: &[SwitchEvent],
) -> Outcome {
    let mut out = Outcome {
        answers: vec![answer],
        cost_cycles: cycles,
        optimizer_cycles,
        latencies: vec![cycles],
        wall_cycles: cycles,
        worker_cycles: vec![cycles],
        counters,
        vectors: vectors as u64,
        fits: fits as u64,
        llc_effective_bytes: scaled_cpu().llc().capacity_bytes,
        ..Default::default()
    };
    switch_stats(&mut out, switches);
    out
}

impl From<ProgressiveReport> for Outcome {
    fn from(r: ProgressiveReport) -> Self {
        let answer = Truth {
            qualified: r.qualified,
            sum: r.sum,
        };
        serial_outcome(
            answer,
            r.cycles,
            r.optimizer_cycles,
            r.counters.0,
            r.vectors,
            r.estimates,
            &r.switches,
        )
    }
}

impl From<QueryReport> for Outcome {
    fn from(r: QueryReport) -> Self {
        let answer = Truth {
            qualified: r.result.rows_qualified,
            sum: r.result.sum,
        };
        // The builder's report folds optimizer time into `cycles`; the
        // counters carry execution cycles only.
        let optimizer_cycles = r.cycles - r.counters.cycles;
        serial_outcome(
            answer,
            r.cycles,
            optimizer_cycles,
            r.counters.0,
            r.vectors,
            r.estimates,
            &r.switches,
        )
    }
}

fn parallel_outcome(r: ParallelReport, pool: &CpuPool) -> Outcome {
    let mut out = Outcome {
        answers: vec![Truth {
            qualified: r.qualified,
            sum: r.sum,
        }],
        cost_cycles: r.total_cycles,
        optimizer_cycles: r.optimizer_cycles,
        latencies: vec![r.wall_cycles],
        wall_cycles: r.wall_cycles,
        worker_cycles: r.per_worker_cycles,
        counters: r.counters.0,
        vectors: r.morsels as u64,
        fits: r.estimates as u64,
        llc_effective_bytes: pool.min_effective_llc_bytes(),
        ..Default::default()
    };
    switch_stats(&mut out, &r.switches);
    out
}

fn serve_outcome(r: ServeReport, pool: &CpuPool) -> Outcome {
    let mut out = Outcome {
        wall_cycles: r.wall_cycles,
        worker_cycles: r.per_worker_busy_cycles,
        counters: pool.counters().0,
        llc_effective_bytes: pool.min_effective_llc_bytes(),
        ..Default::default()
    };
    let mut stats = ServeStats {
        occupancy: r.occupancy,
        queue_cycles: Vec::with_capacity(r.queries.len()),
        warm_starts: 0,
    };
    for q in &r.queries {
        out.answers.push(Truth {
            qualified: q.qualified,
            sum: q.sum,
        });
        out.cost_cycles += q.cost_cycles();
        out.optimizer_cycles += q.optimizer_cycles;
        out.latencies.push(q.latency_cycles);
        out.vectors += q.morsels as u64;
        out.fits += q.estimates as u64;
        switch_stats(&mut out, &q.switches);
        stats.queue_cycles.push(q.queue_cycles);
        stats.warm_starts += u64::from(q.warm_start);
    }
    out.serve = Some(stats);
    out
}

/// One estimator call as the progressive loop issued it.
#[derive(Debug, Clone)]
pub struct Fit {
    pub geometry: PlanGeometry,
    pub sampled: SampledCounters,
}

/// Fits captured by a span-recording run, for [`replay_fits`].
pub type FitLog = Mutex<Vec<Fit>>;

/// Host cost of the captured fits, replayed outside the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FitReplay {
    pub fits: u64,
    pub evaluations: u64,
    pub total_ns: u64,
}

/// Passes of [`replay_fits`] over the captured fits; the median pass is
/// reported, so that one disturbed pass does not set the solver's share.
const REPLAY_PASSES: usize = 5;

/// Re-run `estimate_selectivities` on every captured `(geometry,
/// sample)` pair and time it: the solver's host cost, which the loop
/// calls directly and no wrapper can see.
pub fn replay_fits(fits: &[Fit]) -> FitReplay {
    let config = EstimatorConfig::default();
    let mut passes = Vec::with_capacity(REPLAY_PASSES);
    let mut evaluations = 0u64;
    for _ in 0..REPLAY_PASSES {
        evaluations = 0;
        let t0 = Instant::now();
        for fit in fits {
            let estimate = estimate_selectivities(&fit.geometry, &fit.sampled, &config);
            evaluations += std::hint::black_box(estimate).evaluations as u64;
        }
        passes.push(t0.elapsed().as_nanos() as u64);
    }
    passes.sort_unstable();
    FitReplay {
        fits: fits.len() as u64,
        evaluations,
        total_ns: passes[REPLAY_PASSES / 2],
    }
}

/// The engine's three observers on in-memory sinks, for the observed
/// samples that feed the simulated-cycle lanes and the model-error
/// metrics.
pub struct Observers {
    sink: Arc<MemorySink>,
    tracer: Arc<Tracer>,
    pub profiler: Arc<Profiler>,
    pub drift: Arc<DriftObservatory>,
}

impl Observers {
    pub fn new(workers: usize) -> Self {
        let sink = Arc::new(MemorySink::new());
        Self {
            tracer: Arc::new(Tracer::for_workers(sink.clone(), workers)),
            sink,
            profiler: Arc::new(Profiler::new(workers)),
            // Wide enough to keep every fit of the observed samples.
            drift: Arc::new(DriftObservatory::with_window(1 << 16)),
        }
    }

    pub fn records(&self) -> Vec<TraceRecord> {
        self.sink.snapshot()
    }
}

/// How a sample runs: as the end-to-end measurement does, under
/// host-time spans, or under the engine's observers.
pub enum Mode<'a> {
    Plain,
    Spans {
        rec: &'a Arc<Recorder>,
        scope: Scope,
        fits: &'a FitLog,
    },
    /// Every observed run adds its fits to the drift observatory. Tracer
    /// and profiler describe one run, so only a run with `lanes` set
    /// carries them.
    Observed {
        observers: &'a Observers,
        lanes: bool,
    },
}

impl Mode<'_> {
    /// The observers the engine's `_observed` entry points receive.
    fn exec_observers(&self) -> ExecObservers {
        match self {
            Mode::Observed { observers, lanes } => {
                let drift = ExecObservers::none().with_drift(Arc::clone(&observers.drift));
                if *lanes {
                    drift
                        .with_trace(Arc::clone(&observers.tracer), 0)
                        .with_profiler(Arc::clone(&observers.profiler))
                } else {
                    drift
                }
            }
            Mode::Plain | Mode::Spans { .. } => ExecObservers::none(),
        }
    }
}

/// Delegating target that records a span around every call the loop (or
/// the coordinator) makes into the engine's own target, and captures the
/// `(geometry, sample)` pair of every serial fit.
pub struct Traced<'a, T> {
    inner: T,
    rec: &'a Arc<Recorder>,
    scope: Scope,
    fits: &'a FitLog,
    last_sample: Option<SampledCounters>,
    shards: AtomicUsize,
}

impl<'a, T> Traced<'a, T> {
    fn new(inner: T, rec: &'a Arc<Recorder>, scope: Scope, fits: &'a FitLog) -> Self {
        Self {
            inner,
            rec,
            scope,
            fits,
            last_sample: None,
            shards: AtomicUsize::new(0),
        }
    }

    fn capture(&self, geometry: &PlanGeometry) {
        // The serial loop asks for the geometry of exactly the vector it
        // is about to fit; a coordinator fuses several workers' samples,
        // which never pass through this wrapper.
        if let Some(sampled) = &self.last_sample {
            if sampled.n_input == geometry.n_input {
                self.fits
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Fit {
                        geometry: geometry.clone(),
                        sampled: *sampled,
                    });
            }
        }
    }
}

impl<T: ProgressiveTarget> ProgressiveTarget for Traced<'_, T> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn order(&self) -> Peo {
        self.inner.order()
    }

    fn set_order(&mut self, order: &[usize]) -> Result<(), EngineError> {
        let inner = &mut self.inner;
        self.rec
            .span("exec.set_order", self.scope, || inner.set_order(order))
    }

    fn run_range(&mut self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        let inner = &mut self.inner;
        let stats = self.rec.span("exec.run_range", self.scope, || {
            inner.run_range(cpu, start, end)
        });
        self.last_sample = Some(stats.sampled_counters());
        stats
    }

    fn plan_geometry(&self, n_input: u64, cpu: &CpuConfig, llc_bytes: u64) -> PlanGeometry {
        let geometry = self.rec.span("cost.plan_geometry", self.scope, || {
            self.inner.plan_geometry(n_input, cpu, llc_bytes)
        });
        self.capture(&geometry);
        geometry
    }

    fn plan_geometry_numa(
        &self,
        n_input: u64,
        cpu: &CpuConfig,
        llc_bytes: u64,
        placement: &NumaPlacement,
        socket: usize,
    ) -> PlanGeometry {
        self.rec.span("cost.plan_geometry", self.scope, || {
            self.inner
                .plan_geometry_numa(n_input, cpu, llc_bytes, placement, socket)
        })
    }

    fn hot_set_bytes(&self) -> u64 {
        self.inner.hot_set_bytes()
    }

    fn propose_order(&self, geom: &PlanGeometry, selectivities: &[f64]) -> Peo {
        self.rec.span("progressive.propose_order", self.scope, || {
            self.inner.propose_order(geom, selectivities)
        })
    }

    fn calibrate(&mut self, geom: &PlanGeometry, sampled: &SampledCounters, survivors: &[f64]) {
        let inner = &mut self.inner;
        self.rec.span("progressive.calibrate", self.scope, || {
            inner.calibrate(geom, sampled, survivors)
        })
    }

    fn take_probe_order(&mut self) -> Option<Peo> {
        self.inner.take_probe_order()
    }

    fn wants_trial_calibration(&self) -> bool {
        self.inner.wants_trial_calibration()
    }

    fn calibration_snapshot(&self) -> Option<CalibrationSnapshot> {
        self.inner.calibration_snapshot()
    }

    fn restore_calibration(&mut self, snapshot: &CalibrationSnapshot) {
        self.inner.restore_calibration(snapshot)
    }

    fn stage_keys(&self) -> Vec<u64> {
        self.inner.stage_keys()
    }

    fn stage_profile_weights(&self) -> Vec<f64> {
        self.inner.stage_profile_weights()
    }
}

/// A worker's executor under spans; lane `1 + w` for worker `w`.
pub struct TracedShard<S> {
    inner: S,
    rec: Arc<Recorder>,
    scope: Scope,
}

impl<S: TargetShard> TargetShard for TracedShard<S> {
    fn set_order(&mut self, order: &[usize]) -> Result<(), EngineError> {
        let inner = &mut self.inner;
        self.rec
            .span("exec.set_order", self.scope, || inner.set_order(order))
    }

    fn run_range(&mut self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        let inner = &mut self.inner;
        self.rec.span("exec.run_range", self.scope, || {
            inner.run_range(cpu, start, end)
        })
    }
}

impl<T: ShardableTarget> ShardableTarget for Traced<'_, T> {
    type Shard = TracedShard<T::Shard>;

    fn shard(&self) -> Result<Self::Shard, EngineError> {
        // The coordinator mints one shard per worker, in worker order.
        let worker = self.shards.fetch_add(1, Ordering::Relaxed);
        Ok(TracedShard {
            inner: self.inner.shard()?,
            rec: Arc::clone(self.rec),
            scope: self.scope.on_lane(1 + worker),
        })
    }
}

/// The multi-selection scan as a progressive target, built on the public
/// `CompiledSelection` because the engine's own scan target is private.
/// It repeats that target's glue line for line (recompile on reorder,
/// LLC-independent geometry, ascending-selectivity proposal); every run
/// under it is checked against the `QueryBuilder` report of the same
/// query, so a divergence shows as `obs.observed_identical` = 0.
struct ScanTarget<'t> {
    table: &'t Table,
    plan: SelectionPlan,
    compiled: CompiledSelection<'t>,
}

impl<'t> ScanTarget<'t> {
    fn new(table: &'t Table, plan: SelectionPlan, order: &[usize]) -> Res<Self> {
        let compiled = CompiledSelection::compile(table, &plan, order).map_err(engine_err)?;
        Ok(Self {
            table,
            plan,
            compiled,
        })
    }
}

impl ProgressiveTarget for ScanTarget<'_> {
    fn rows(&self) -> usize {
        self.compiled.rows()
    }

    fn order(&self) -> Peo {
        self.compiled.peo().to_vec()
    }

    fn set_order(&mut self, order: &[usize]) -> Result<(), EngineError> {
        self.compiled = CompiledSelection::compile(self.table, &self.plan, order)?;
        Ok(())
    }

    fn run_range(&mut self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        self.compiled.run_range(cpu, start, end)
    }

    fn plan_geometry(&self, n_input: u64, cpu: &CpuConfig, _llc_bytes: u64) -> PlanGeometry {
        let chain = ChainSpec {
            states: cpu.predictor.states,
            not_taken_states: cpu.predictor.not_taken_states,
        };
        self.compiled
            .plan_geometry(n_input, chain, cpu.line_bytes() as u32)
    }

    fn hot_set_bytes(&self) -> u64 {
        (self.plan.predicates.len() + self.plan.aggregate_columns.len()) as u64
            * STREAM_HOT_BYTES_PER_COLUMN
    }

    fn propose_order(&self, _geom: &PlanGeometry, selectivities: &[f64]) -> Peo {
        order_by_selectivity(self.compiled.peo(), selectivities)
    }
}

/// Drive a serial target through the §4.4 loop on a fresh core.
fn drive_serial<T: ProgressiveTarget>(
    mut target: T,
    vector_tuples: usize,
    mode: &Mode<'_>,
) -> Res<Outcome> {
    let mut cpu = SimCpu::new(scaled_cpu());
    let config = progressive_config();
    let vectors = vectors(vector_tuples);
    let report = match mode {
        Mode::Spans { rec, scope, fits } => run_progressive_target_observed(
            &mut Traced::new(target, rec, *scope, fits),
            vectors,
            &mut cpu,
            &config,
            &ExecObservers::none(),
        ),
        Mode::Plain | Mode::Observed { .. } => run_progressive_target_observed(
            &mut target,
            vectors,
            &mut cpu,
            &config,
            &mode.exec_observers(),
        ),
    };
    report.map(Outcome::from).map_err(engine_err)
}

/// All permutations of `0..n`, in lexicographic order.
pub fn permutations(n: usize) -> Vec<Peo> {
    fn extend(prefix: &mut Peo, n: usize, out: &mut Vec<Peo>) {
        if prefix.len() == n {
            out.push(prefix.clone());
            return;
        }
        for next in 0..n {
            if !prefix.contains(&next) {
                prefix.push(next);
                extend(prefix, n, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    extend(&mut Vec::with_capacity(n), n, &mut out);
    out
}

// ---------------------------------------------------------------- scan_q6

/// One progressive execution of TPC-H Q6 from the worst-case start
/// order. The end-to-end measurement goes through `QueryBuilder`; the
/// span and observer runs go through [`ScanTarget`].
pub fn q6(lineitem: &Table, mode: &Mode<'_>) -> Res<Outcome> {
    match mode {
        Mode::Plain => QueryBuilder::q6(lineitem)
            .initial_peo(Q6_START_ORDER.to_vec())
            .vector_tuples(Q6_VECTOR_TUPLES)
            .cpu(scaled_cpu())
            .run(RunMode::Progressive {
                reop_interval: REOP_INTERVAL,
            })
            .map(Outcome::from)
            .map_err(engine_err),
        _ => drive_serial(
            ScanTarget::new(lineitem, QueryBuilder::q6_plan(), &Q6_START_ORDER)?,
            Q6_VECTOR_TUPLES,
            mode,
        ),
    }
}

/// Cost in cycles of Q6 under one static order.
pub fn q6_static(lineitem: &Table, order: &[usize]) -> Res<u64> {
    QueryBuilder::q6(lineitem)
        .initial_peo(order.to_vec())
        .vector_tuples(Q6_VECTOR_TUPLES)
        .cpu(scaled_cpu())
        .run(RunMode::Baseline)
        .map(|r| r.cycles)
        .map_err(engine_err)
}

pub fn q6_stages() -> usize {
    QueryBuilder::q6_plan().len()
}

// ------------------------------------------------------ scans (templates)

fn scan_plan(literals: &[i64], aggregate: bool) -> SelectionPlan {
    let predicates = literals
        .iter()
        .enumerate()
        .map(|(c, &lit)| Predicate::new(format!("c{c}"), CompareOp::Lt, lit))
        .collect();
    let aggregates = if aggregate {
        vec!["agg".to_string()]
    } else {
        Vec::new()
    };
    SelectionPlan::new(predicates, aggregates).expect("scan templates have predicates")
}

/// The scan templates of the serving mix as `(plan, start order)`.
fn scan_template(template: Template) -> (SelectionPlan, Peo) {
    match template {
        Template::Scan3 => (scan_plan(&SCAN3_LITERALS, true), SCAN3_START_ORDER.to_vec()),
        _ => (scan_plan(&[SCAN1_LITERAL], false), vec![0]),
    }
}

/// One serial progressive execution of a scan template.
pub fn scan_serial(table: &Table, template: Template, mode: &Mode<'_>) -> Res<Outcome> {
    let (plan, order) = scan_template(template);
    drive_serial(
        ScanTarget::new(table, plan, &order)?,
        STAR_VECTOR_TUPLES,
        mode,
    )
}

/// Cost in cycles of a scan template under one static order, vector at a
/// time on a fresh core.
pub fn scan_static(table: &Table, template: Template, order: &[usize]) -> Res<u64> {
    let (plan, _) = scan_template(template);
    let compiled = CompiledSelection::compile(table, &plan, order).map_err(engine_err)?;
    let mut cpu = SimCpu::new(scaled_cpu());
    let ranges = vectors(STAR_VECTOR_TUPLES)
        .ranges(table.rows())
        .map_err(engine_err)?;
    Ok(ranges
        .iter()
        .map(|&(start, end)| compiled.run_range(&mut cpu, start, end).counters.cycles)
        .sum())
}

/// Host time and simulated outcome of one whole-table pass of a compiled
/// executor, for the oracle and bulk-path measurements.
fn timed_pass(
    vector_tuples: usize,
    rows: usize,
    mut run: impl FnMut(&mut SimCpu, usize, usize) -> VectorStats,
) -> Res<(u64, VectorStats, Counters)> {
    let ranges = vectors(vector_tuples).ranges(rows).map_err(engine_err)?;
    let mut cpu = SimCpu::new(scaled_cpu());
    let mut total = VectorStats::zero();
    let t0 = Instant::now();
    for &(start, end) in &ranges {
        total.accumulate(&run(&mut cpu, start, end));
    }
    let ns = t0.elapsed().as_nanos() as u64;
    Ok((ns, total, cpu.counters()))
}

/// Batched fast path against the scalar per-event oracle on one
/// executor: host nanoseconds of each and whether every simulated
/// number agreed.
#[derive(Debug, Clone, Copy)]
pub struct OracleCheck {
    pub batched_ns: u64,
    pub oracle_ns: u64,
    pub identical: bool,
}

const ORACLE_REPEATS: usize = 3;

fn oracle_check(
    vector_tuples: usize,
    rows: usize,
    mut pass: impl FnMut(bool, &mut SimCpu, usize, usize) -> VectorStats,
) -> Res<OracleCheck> {
    let mut batched = Vec::new();
    let mut oracle = Vec::new();
    let mut identical = true;
    for _ in 0..ORACLE_REPEATS {
        let fast = timed_pass(vector_tuples, rows, |cpu, s, e| pass(false, cpu, s, e))?;
        let slow = timed_pass(vector_tuples, rows, |cpu, s, e| pass(true, cpu, s, e))?;
        identical &= (&fast.1, &fast.2) == (&slow.1, &slow.2);
        batched.push(fast.0);
        oracle.push(slow.0);
    }
    batched.sort_unstable();
    oracle.sort_unstable();
    Ok(OracleCheck {
        batched_ns: batched[ORACLE_REPEATS / 2],
        oracle_ns: oracle[ORACLE_REPEATS / 2],
        identical,
    })
}

/// [`OracleCheck`] of Q6 under its start order.
pub fn q6_oracle(lineitem: &Table) -> Res<OracleCheck> {
    let plan = QueryBuilder::q6_plan();
    let mut compiled =
        CompiledSelection::compile(lineitem, &plan, &Q6_START_ORDER).map_err(engine_err)?;
    oracle_check(Q6_VECTOR_TUPLES, lineitem.rows(), |oracle, cpu, s, e| {
        compiled.set_scalar_oracle(oracle);
        compiled.run_range(cpu, s, e)
    })
}

/// Host nanoseconds per tuple of the closed-form bulk path: a
/// single-predicate scan without aggregate over `column`, median of
/// three whole-table passes.
pub fn bulk_ns_per_tuple(table: &Table, column: &str, literal: i64) -> Res<f64> {
    let plan = SelectionPlan::new(vec![Predicate::new(column, CompareOp::Lt, literal)], vec![])
        .map_err(engine_err)?;
    let compiled = CompiledSelection::compile(table, &plan, &[0]).map_err(engine_err)?;
    let mut ns = Vec::new();
    for _ in 0..3 {
        let pass = timed_pass(table.rows().max(1), table.rows(), |cpu, s, e| {
            compiled.run_range(cpu, s, e)
        })?;
        ns.push(pass.0);
    }
    ns.sort_unstable();
    Ok(ns[1] as f64 / table.rows().max(1) as f64)
}

/// Host microseconds of compiling Q6 against the table.
pub fn q6_compile_us(lineitem: &Table) -> Res<f64> {
    let plan = QueryBuilder::q6_plan();
    let t0 = Instant::now();
    let compiled =
        CompiledSelection::compile(lineitem, &plan, &Q6_START_ORDER).map_err(engine_err)?;
    let us = t0.elapsed().as_nanos() as f64 / 1e3;
    std::hint::black_box(compiled);
    Ok(us)
}

// ------------------------------------------------------------- star join

/// Build → optimize → compile the star join: a costed selection on `val`
/// plus the three FK join filters, aggregating `agg`. Plan order: the
/// selection, then customer (co-clustered), supplier, part.
pub fn star_program(star: &Star, select_literal: i64) -> Res<CompiledProgram<'_>> {
    star_plan(star, select_literal)
        .build()
        .optimize()
        .compile()
        .map_err(engine_err)
}

fn star_plan(star: &Star, select_literal: i64) -> PlanBuilder<'_> {
    let joins: [(&Table, &str, &str); 3] = [
        (&star.customer, "fk_customer", "c_payload"),
        (&star.supplier, "fk_supplier", "s_payload"),
        (&star.part, "fk_part", "p_payload"),
    ];
    let mut builder =
        PlanBuilder::scan(&star.fact).filter_costed(Expr::col("val").less_than(select_literal), 50);
    for ((dim, fk, payload), literal) in joins.into_iter().zip(STAR_JOIN_LITERALS) {
        builder = builder.join(dim, fk, Expr::col(payload).less_than(literal));
    }
    builder.aggregate("agg")
}

/// One serial progressive execution of the star join from `start`.
pub fn star_serial(
    program: &CompiledProgram<'_>,
    start: &[usize],
    mode: &Mode<'_>,
) -> Res<Outcome> {
    let mut program = program.clone();
    match mode {
        Mode::Spans { .. } => {
            program.reorder(start).map_err(engine_err)?;
            drive_serial(CompiledTarget::new(&mut program), STAR_VECTOR_TUPLES, mode)
        }
        Mode::Plain | Mode::Observed { .. } => run_progressive_program_observed(
            &mut program,
            start,
            vectors(STAR_VECTOR_TUPLES),
            &mut SimCpu::new(scaled_cpu()),
            &progressive_config(),
            &mode.exec_observers(),
        )
        .map(Outcome::from)
        .map_err(engine_err),
    }
}

/// One execution of the star join on the 2-worker shared-LLC pool,
/// reoptimization on.
pub fn star_parallel(program: &CompiledProgram<'_>, mode: &Mode<'_>) -> Res<Outcome> {
    let mut program = program.clone();
    let mut pool = shared_pool();
    let morsels = MorselConfig::new(STAR_VECTOR_TUPLES);
    let config = progressive_config();
    let report = match mode {
        Mode::Spans { rec, scope, fits } => {
            program.reorder(&STAR_START_ORDER).map_err(engine_err)?;
            run_parallel_target_observed(
                &mut Traced::new(CompiledTarget::new(&mut program), rec, *scope, fits),
                morsels,
                &mut pool,
                Some(&config),
                &ExecObservers::none(),
            )
        }
        Mode::Plain | Mode::Observed { .. } => run_parallel_program_observed(
            &mut program,
            &STAR_START_ORDER,
            morsels,
            &mut pool,
            Some(&config),
            &mode.exec_observers(),
        ),
    };
    report
        .map(|r| parallel_outcome(r, &pool))
        .map_err(engine_err)
}

/// Cost in cycles of the program under one static order: serial, vector
/// at a time on a fresh core.
pub fn program_static_serial(program: &CompiledProgram<'_>, order: &[usize]) -> Res<u64> {
    let mut program = program.clone();
    program.reorder(order).map_err(engine_err)?;
    let pass = timed_pass(STAR_VECTOR_TUPLES, program.rows(), |cpu, s, e| {
        program.run_range(cpu, s, e)
    })?;
    Ok(pass.1.counters.cycles)
}

/// Cost in cycles (summed over cores) of the program under one static
/// order on the 2-worker shared-LLC pool, reoptimization off.
pub fn program_static_parallel(program: &CompiledProgram<'_>, order: &[usize]) -> Res<u64> {
    let mut program = program.clone();
    run_parallel_program_observed(
        &mut program,
        order,
        MorselConfig::new(STAR_VECTOR_TUPLES),
        &mut shared_pool(),
        None,
        &ExecObservers::none(),
    )
    .map(|r| r.total_cycles)
    .map_err(engine_err)
}

/// [`OracleCheck`] of the program under `order`, serial.
pub fn program_oracle(program: &CompiledProgram<'_>, order: &[usize]) -> Res<OracleCheck> {
    let mut program = program.clone();
    program.reorder(order).map_err(engine_err)?;
    oracle_check(STAR_VECTOR_TUPLES, program.rows(), |oracle, cpu, s, e| {
        program.set_scalar_oracle(oracle);
        program.run_range(cpu, s, e)
    })
}

// ------------------------------------------------------------- serve_mix

/// The tables the serving mix reads.
pub struct ServeTables {
    pub star: Star,
    pub scan: Table,
}

/// Start orders of a reoptimization-off batch: the best static order of
/// every template (per sliding literal for the star join).
pub struct StaticOrders {
    pub star: Vec<(i64, Peo)>,
    pub scan3: Peo,
}

fn priority(class: Class) -> Priority {
    match class {
        Class::High => Priority::High,
        Class::Normal => Priority::Normal,
        Class::Low => Priority::Low,
    }
}

fn query_spec<'t>(
    tables: &'t ServeTables,
    k: usize,
    arrival: &Arrival,
    statics: Option<&StaticOrders>,
) -> Res<QuerySpec<'t>> {
    let label = format!("q{k}");
    let (prio, due) = (priority(arrival.class), arrival.arrival_cycles);
    match arrival.template {
        Template::Star { select_literal } => {
            let plan = star_plan(&tables.star, select_literal).build();
            match statics {
                None => QuerySpec::from_plan(label, plan, prio, due).map_err(engine_err),
                Some(orders) => {
                    let order = orders
                        .star
                        .iter()
                        .find(|(literal, _)| *literal == select_literal)
                        .map(|(_, order)| order)
                        .ok_or("no static order for a scheduled literal")?;
                    let mut program = plan.optimize().compile().map_err(engine_err)?;
                    program.reorder(order).map_err(engine_err)?;
                    Ok(QuerySpec::compiled(label, program, prio, due))
                }
            }
        }
        template => {
            let (plan, start) = scan_template(template);
            let order = match (template, statics) {
                (Template::Scan3, Some(orders)) => orders.scan3.clone(),
                _ => start,
            };
            Ok(QuerySpec::scan(label, &tables.scan, plan, order, prio, due))
        }
    }
}

/// Host microseconds of building (and, for the star template, optimizing
/// and compiling) every query spec of one batch.
pub fn spec_build_us(tables: &ServeTables, schedule: &[Arrival]) -> Res<f64> {
    let t0 = Instant::now();
    for (k, arrival) in schedule.iter().enumerate() {
        std::hint::black_box(query_spec(tables, k, arrival, None)?);
    }
    Ok(t0.elapsed().as_nanos() as f64 / 1e3)
}

/// Serve one batch on a fresh server (cold order cache) and a fresh
/// 2-worker shared-LLC pool. Plan building and compilation are part of
/// the call, as they are part of every timed sample. With `statics` the
/// batch runs with reoptimization off from the given orders (the regret
/// baseline); otherwise under `ServeConfig::default()`.
pub fn serve_batch(
    tables: &ServeTables,
    schedule: &[Arrival],
    statics: Option<&StaticOrders>,
    mode: &Mode<'_>,
) -> Res<Outcome> {
    let config = match statics {
        None => ServeConfig::default(),
        Some(_) => ServeConfig {
            reopt: None,
            ..Default::default()
        },
    };
    let mut server = QueryServer::new(config);
    if let Mode::Observed { observers, lanes } = mode {
        if *lanes {
            server.set_tracer(Arc::clone(&observers.tracer));
        }
        server.set_drift(Arc::clone(&observers.drift));
    }
    for (k, arrival) in schedule.iter().enumerate() {
        let spec = match mode {
            Mode::Spans { rec, scope, .. } => {
                let scope = Scope { query: k, ..*scope };
                rec.span("plan.compile", scope, || {
                    query_spec(tables, k, arrival, statics)
                })?
            }
            _ => query_spec(tables, k, arrival, statics)?,
        };
        server.admit(spec);
    }
    let mut pool = shared_pool();
    let report = match mode {
        Mode::Spans { rec, scope, .. } => rec.span("serve.run", *scope, || server.run(&mut pool)),
        _ => server.run(&mut pool),
    };
    report.map(|r| serve_outcome(r, &pool)).map_err(engine_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn permutations_are_complete_and_ordered() {
        let p = permutations(3);
        assert_eq!(p.len(), 6);
        assert_eq!(p[0], vec![0, 1, 2]);
        assert_eq!(p[5], vec![2, 1, 0]);
        assert_eq!(permutations(4).len(), 24);
    }

    #[test]
    fn scan_target_reproduces_the_query_builder_report() {
        let lineitem = gen::lineitem(1 << 16, 11);
        let built = q6(&lineitem, &Mode::Plain).unwrap();
        let rec = Recorder::new();
        let fits = FitLog::default();
        let traced = q6(
            &lineitem,
            &Mode::Spans {
                rec: &rec,
                scope: Scope::root(0),
                fits: &fits,
            },
        )
        .unwrap();
        assert_eq!(built, traced);
        assert_eq!(built.answers[0], gen::q6_truth(&lineitem));
        // Every fit of the serial loop was captured for the replay.
        assert_eq!(fits.lock().unwrap().len() as u64, traced.fits);
        assert!(traced.fits > 0);
    }

    #[test]
    fn star_join_agrees_with_ground_truth_in_every_mode() {
        let star = gen::star(1 << 15, 5);
        let truth = gen::star_truth(&star, gen::STAR_SELECT_LITERAL);
        let program = star_program(&star, gen::STAR_SELECT_LITERAL).unwrap();
        let serial = star_serial(&program, &STAR_START_ORDER, &Mode::Plain).unwrap();
        assert_eq!(serial.answers, vec![truth]);
        let observed = Observers::new(1);
        let mode = Mode::Observed {
            observers: &observed,
            lanes: true,
        };
        let seen = star_serial(&program, &STAR_START_ORDER, &mode).unwrap();
        assert_eq!(serial, seen);
        assert!(observed.profiler.conserves());
        let parallel = star_parallel(&program, &Mode::Plain).unwrap();
        assert_eq!(parallel.answers, vec![truth]);
        assert_eq!(parallel.worker_cycles.len(), WORKERS);
    }

    #[test]
    fn traced_parallel_run_records_one_lane_per_worker() {
        let star = gen::star(1 << 15, 5);
        let program = star_program(&star, gen::STAR_SELECT_LITERAL).unwrap();
        let rec = Recorder::new();
        let fits = FitLog::default();
        let out = star_parallel(
            &program,
            &Mode::Spans {
                rec: &rec,
                scope: Scope::root(0),
                fits: &fits,
            },
        )
        .unwrap();
        let lanes = crate::spans::lane_totals_ns(&rec.snapshot(), "exec.run_range");
        assert_eq!(
            lanes.iter().map(|l| l.0).collect::<Vec<_>>(),
            vec![1, 2],
            "one lane per worker"
        );
        assert_eq!(lanes.iter().map(|l| l.2).sum::<u64>(), out.vectors);
    }

    #[test]
    fn served_batch_matches_ground_truth_with_and_without_reopt() {
        let rows = 1 << 13;
        let tables = ServeTables {
            star: gen::star(rows, 9),
            scan: gen::scan_table(rows, 10),
        };
        let schedule = &gen::schedule(9)[..24];
        let progressive = serve_batch(&tables, schedule, None, &Mode::Plain).unwrap();
        let statics = StaticOrders {
            star: gen::sliding_literals()
                .into_iter()
                .map(|l| (l, vec![0, 1, 2, 3]))
                .collect(),
            scan3: vec![0, 1, 2],
        };
        let fixed = serve_batch(&tables, schedule, Some(&statics), &Mode::Plain).unwrap();
        assert_eq!(progressive.answers, fixed.answers);
        assert_eq!(fixed.fits, 0);
        for (arrival, answer) in schedule.iter().zip(&progressive.answers) {
            let truth = match arrival.template {
                Template::Star { select_literal } => gen::star_truth(&tables.star, select_literal),
                Template::Scan3 => gen::scan_truth(&tables.scan, &SCAN3_LITERALS, true),
                Template::Scan1 => gen::scan_truth(&tables.scan, &[SCAN1_LITERAL], false),
            };
            assert_eq!(*answer, truth);
        }
    }

    #[test]
    fn oracle_and_batched_paths_agree() {
        let lineitem = gen::lineitem(1 << 14, 3);
        assert!(q6_oracle(&lineitem).unwrap().identical);
        let star = gen::star(1 << 14, 3);
        let program = star_program(&star, gen::STAR_SELECT_LITERAL).unwrap();
        assert!(
            program_oracle(&program, &STAR_START_ORDER)
                .unwrap()
                .identical
        );
    }
}
