//! The query server: admission, interleaved scheduling, and per-query
//! progressive reoptimization over one shared [`CpuPool`].
//!
//! A [`QueryServer`] holds a batch of [`QuerySpec`]s — scans or compiled
//! programs, each with a [`Priority`] and an arrival time in simulated
//! cycles — and executes them, every one as a [`CompiledTarget`], as
//! *interleaved morsel streams*:
//!
//! * **Admission** — a query becomes schedulable once a worker's
//!   wall-clock position (busy + idle + charged optimizer cycles)
//!   reaches its arrival time; a pool with no admissible work idles
//!   forward to the next arrival instead of spinning.
//! * **Scheduling** — at every morsel boundary the worker asks the
//!   [`StrideScheduler`] which active query to serve next; shares
//!   converge to the priority weights, and no query starves.
//! * **Per-query coordination** — each admitted query owns a full
//!   `CoordState`: its own epoch-published order, sample windows,
//!   trial leasing and rejection memory, exactly as if it ran alone on
//!   the pool. Workers run on the dedicated pool's driver and steps
//!   ([`crate::parallel::coordinator`]): every worker's boundary and
//!   report is applied in simulated-time order, and estimator fits are
//!   charged to the core whose report ran them.
//! * **Order reuse** — on admission the server consults its
//!   [`OrderCache`] by the program's literal-free stage keys; a warm hit
//!   starts the query from the template's last converged order and
//!   clustering calibration instead of the caller's (textbook) order.
//! * **Socket placement** — on a multi-socket pool every query is homed
//!   on *one* socket (greedy least-loaded-by-footprint in submission
//!   order, ties to the lowest socket — a pure function of the batch)
//!   and its morsels interleave only across that socket's cores, so a
//!   query never pays cross-socket coordination and each socket's LLC
//!   partition sees only the queries actually running there.
//!
//! Results are bit-identical to running each query alone on a single
//! core: every query's qualified count and aggregate sum are integer
//! accumulations over its own disjoint morsels, so neither the
//! interleaving, the priorities, nor mid-query order switches can change
//! them.

use std::sync::Arc;

use popt_cost::cycles::{fleet_occupancy, fleet_wall_cycles_interleaved};
use popt_cpu::CpuPool;
use popt_obs::{DriftObservatory, TraceEvent, Tracer};
use popt_storage::Table;

use crate::error::EngineError;
use crate::exec::program::CompiledProgram;
use crate::exec::scan::VectorStats;
use crate::observe::ExecObservers;
use crate::parallel::coordinator::{
    report_morsel, run_morsel, run_workers, CoordState, Executed, RunCtx, Step, Worker, WorkerShard,
};
use crate::parallel::{CompiledShard, MorselConfig, MorselDispatcher, ShardableTarget};
use crate::plan::{Peo, SelectionPlan};
use crate::progressive::{CompiledTarget, ProgressiveConfig, ProgressiveTarget, SwitchEvent};

use super::cache::{OrderCache, WorkloadSignature};
use super::scheduler::StrideScheduler;

/// Scheduling priority of a served query. Weights are proportional
/// shares of morsel slots, not preemption levels: a `High` query gets
/// 16× the slots of a `Low` one while both are active, and even a `Low`
/// query is never starved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Background work (weight 1).
    Low,
    /// Default traffic (weight 4).
    Normal,
    /// Latency-sensitive foreground queries (weight 16).
    High,
}

impl Priority {
    /// The stride-scheduling weight of the priority class.
    pub fn weight(self) -> u64 {
        match self {
            Priority::Low => 1,
            Priority::Normal => 4,
            Priority::High => 16,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// One query submitted to the server.
pub struct QuerySpec<'t> {
    /// Human-readable identity carried into the report.
    pub label: String,
    /// Scheduling priority.
    pub priority: Priority,
    /// Arrival time in simulated cycles since server start (0 = already
    /// queued when the pool starts — a closed-loop workload).
    pub arrival_cycles: u64,
    /// The compiled program to execute, or why lowering the spec failed
    /// (returned by the [`QueryServer::run`] that meets it).
    program: Result<CompiledProgram<'t>, EngineError>,
    /// Evaluation order to start from on a cache miss.
    initial_order: Peo,
}

impl<'t> QuerySpec<'t> {
    /// A multi-selection scan query, lowered here to its probe-free
    /// compiled program ([`CompiledProgram::from_selection`]). A plan
    /// naming an unknown column fails the batch at [`QueryServer::run`].
    pub fn scan(
        label: impl Into<String>,
        table: &'t Table,
        plan: SelectionPlan,
        initial_peo: Peo,
        priority: Priority,
        arrival_cycles: u64,
    ) -> Self {
        Self {
            label: label.into(),
            priority,
            arrival_cycles,
            program: CompiledProgram::from_selection(table, &plan, &initial_peo),
            initial_order: initial_peo,
        }
    }

    /// A compiled-program query ([`crate::plan::LogicalPlan`] →
    /// [`CompiledProgram`]), starting from the program's lowering (plan)
    /// order on a cache miss. Cache keys are literal-free, so sliding a
    /// plan's literals keeps the template warm across arrivals.
    pub fn compiled(
        label: impl Into<String>,
        program: CompiledProgram<'t>,
        priority: Priority,
        arrival_cycles: u64,
    ) -> Self {
        Self {
            label: label.into(),
            priority,
            arrival_cycles,
            initial_order: program.order().to_vec(),
            program: Ok(program),
        }
    }

    /// Optimize and compile a logical plan into a served query — the
    /// frontend entry door for the serving layer.
    pub fn from_plan(
        label: impl Into<String>,
        plan: crate::plan::LogicalPlan<'t>,
        priority: Priority,
        arrival_cycles: u64,
    ) -> Result<Self, EngineError> {
        let program = plan.optimize().compile()?;
        Ok(Self::compiled(label, program, priority, arrival_cycles))
    }
}

/// Server-wide execution knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Morsel sizing shared by all queries.
    pub morsels: MorselConfig,
    /// Progressive reoptimization settings (`None` = every query runs
    /// its submitted order statically).
    pub reopt: Option<ProgressiveConfig>,
    /// Whether to consult and feed the cross-query order cache.
    /// Effective only with `reopt` enabled: a static run never
    /// converges anywhere, so recording its start order as a template's
    /// "converged" state would poison later warm starts — with `reopt:
    /// None` the cache is bypassed entirely.
    pub use_order_cache: bool,
    /// Dynamically repartition each core's LLC ways among the queries
    /// that core is *still serving*: when a worker drains its share of a
    /// query (a local completion event), the survivors' footprint-
    /// proportional sub-shares of the core's batch-boundary way slice
    /// grow at that worker's next morsel. Events are keyed to the
    /// worker's **own claim stream** — ordered by its own simulated
    /// clock, at most one drain per morsel boundary, live set iterated
    /// in query-id order — not to other workers' completions, so a
    /// core's slice follows only the work it still has. Shared-LLC pools
    /// only (inert on private LLCs, where there is no partition to
    /// re-divide). Off by default:
    /// with it off, every core keeps its batch-boundary slice for the
    /// whole run, the pre-repartitioning behavior bit-for-bit.
    pub dynamic_repartition: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            morsels: MorselConfig::default(),
            // Finer than the single-query default (10): a served query
            // owns only a slice of the pool's morsel slots, so its
            // stream is short in rounds and must converge within it.
            // One estimator round per interval still serves the whole
            // pool, so the finer cadence stays off the critical path.
            reopt: Some(ProgressiveConfig { reop_interval: 4 }),
            use_order_cache: true,
            dynamic_repartition: false,
        }
    }
}

/// Per-query slice of a [`ServeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The spec's label.
    pub label: String,
    /// The spec's priority.
    pub priority: Priority,
    /// The spec's arrival time.
    pub arrival_cycles: u64,
    /// Qualifying tuples (bit-identical to a solo single-core run).
    pub qualified: u64,
    /// Aggregate sum (bit-identical to a solo single-core run).
    pub sum: i64,
    /// Morsels executed for this query.
    pub morsels: usize,
    /// Busy cycles its morsels cost, summed across the cores that ran
    /// them (excludes optimizer time and queueing).
    pub exec_cycles: u64,
    /// Estimator cycles charged on behalf of this query.
    pub optimizer_cycles: u64,
    /// Completion latency: finish wall-clock position − arrival.
    pub latency_cycles: u64,
    /// Time from arrival to the first executed morsel.
    pub queue_cycles: u64,
    /// Order switches attempted while serving the query.
    pub switches: Vec<SwitchEvent>,
    /// Estimator invocations.
    pub estimates: usize,
    /// The published order when the query finished.
    pub final_order: Peo,
    /// Whether the query started from a cached template order.
    pub warm_start: bool,
}

impl QueryOutcome {
    /// Execution plus optimizer cycles: the query's total cost to the
    /// pool, the figure the warm/cold convergence comparison uses.
    pub fn cost_cycles(&self) -> u64 {
        self.exec_cycles + self.optimizer_cycles
    }
}

/// Outcome of one [`QueryServer::run`] batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-query outcomes, in submission order.
    pub queries: Vec<QueryOutcome>,
    /// Workers (= pool cores) that served the batch.
    pub workers: usize,
    /// Wall-clock cycles of the batch: the furthest wall-clock position
    /// any worker reached (busy + idle).
    pub wall_cycles: u64,
    /// Wall-clock simulated milliseconds.
    pub wall_millis: f64,
    /// Busy cycles summed across workers (execution + optimizer).
    pub busy_cycles: u64,
    /// Idle cycles summed across workers (admission gaps).
    pub idle_cycles: u64,
    /// Busy share of the wall-clock capacity (`1.0` for an empty batch).
    pub occupancy: f64,
    /// Per-worker busy cycles (execution + that worker's optimizer
    /// rounds), for scaling plots.
    pub per_worker_busy_cycles: Vec<u64>,
    /// Per-worker idle cycles.
    pub per_worker_idle_cycles: Vec<u64>,
}

impl ServeReport {
    /// Completed queries per simulated second.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall_millis == 0.0 {
            return 0.0;
        }
        self.queries.len() as f64 / (self.wall_millis / 1e3)
    }

    /// Latency percentile in cycles over the batch, optionally
    /// restricted to one priority class. `fraction` is in `[0, 1]`
    /// (0.5 = median). `None` when no query matches.
    pub fn latency_percentile(&self, priority: Option<Priority>, fraction: f64) -> Option<u64> {
        let mut latencies: Vec<u64> = self
            .queries
            .iter()
            .filter(|q| priority.is_none_or(|p| q.priority == p))
            .map(|q| q.latency_cycles)
            .collect();
        if latencies.is_empty() {
            return None;
        }
        latencies.sort_unstable();
        let idx = ((latencies.len() - 1) as f64 * fraction.clamp(0.0, 1.0)).round() as usize;
        Some(latencies[idx])
    }
}

/// The multi-query serving layer. Holds the submitted batch and the
/// cross-run order cache; [`QueryServer::run`] drains the batch over a
/// pool, [`QueryServer::admit`] queues the next one. The cache persists
/// across runs — that is what makes repeated templates warm.
pub struct QueryServer<'t> {
    specs: Vec<QuerySpec<'t>>,
    cache: OrderCache,
    config: ServeConfig,
    /// The batch's observers (tracer, drift observatory); each query's
    /// coordination state gets them with the tracer tagged by its id.
    observers: ExecObservers,
}

impl<'t> QueryServer<'t> {
    /// A server with an empty queue and a cold cache.
    pub fn new(config: ServeConfig) -> Self {
        Self {
            specs: Vec::new(),
            cache: OrderCache::new(),
            config,
            observers: ExecObservers::none(),
        }
    }

    /// Attach a tracer: subsequent [`QueryServer::run`] batches emit the
    /// full decision/event stream (admission, socket homing, cache
    /// consultation, morsel claims, reopt rounds, trial leases, order
    /// publications, completion) into the tracer's sink. Tracing is
    /// non-invasive — simulated cycles, results, and accepted orders are
    /// bit-identical with the tracer attached or detached.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.observers.trace = Some((tracer, 0));
    }

    /// Attach a model-drift observatory: every query's reopt-round and
    /// trial fits record their predicted-vs-observed residuals there,
    /// keyed by literal-free stage key (so repeated templates aggregate
    /// into shared series). Non-invasive, like the tracer.
    pub fn set_drift(&mut self, drift: Arc<DriftObservatory>) {
        self.observers.drift = Some(drift);
    }

    /// Queue a query for the next [`QueryServer::run`].
    pub fn admit(&mut self, spec: QuerySpec<'t>) {
        self.specs.push(spec);
    }

    /// Queries currently queued.
    pub fn queued(&self) -> usize {
        self.specs.len()
    }

    /// The cross-query order cache (inspection; fed automatically).
    pub fn cache(&self) -> &OrderCache {
        &self.cache
    }

    /// Serve the queued batch over `pool`. Queries are admitted by
    /// arrival time, scheduled by priority, reoptimized independently,
    /// and their converged orders recorded into the cache when the
    /// batch completes. The queue is drained only on success — a batch
    /// rejected for an invalid spec or config stays queued, so the
    /// caller can fix the problem and retry without losing the valid
    /// queries.
    pub fn run(&mut self, pool: &mut CpuPool) -> Result<ServeReport, EngineError> {
        if let Some(cfg) = &self.config.reopt {
            cfg.validate()?;
        }
        let workers = pool.len();
        if self.specs.is_empty() {
            return Ok(ServeReport {
                queries: Vec::new(),
                workers,
                wall_cycles: 0,
                wall_millis: 0.0,
                busy_cycles: 0,
                idle_cycles: 0,
                occupancy: 1.0,
                per_worker_busy_cycles: vec![0; workers],
                per_worker_idle_cycles: vec![0; workers],
            });
        }
        let cpu_cfg = pool.config().clone();
        let freq = cpu_cfg.timing.frequency_ghz;
        let reopt = self.config.reopt.as_ref();
        let morsel_tuples = self.config.morsels.morsel_tuples;
        // Without reoptimization nothing converges, so a "converged
        // order" cache would just replay whatever order the first
        // instance happened to start with — bypass it entirely.
        let cache_on = self.config.use_order_cache && reopt.is_some();
        // One branch decides observability for the whole batch: with no
        // tracer attached every emission below is a single `if` on a
        // `None` and no event payload is ever built.
        let trace: Option<&Arc<Tracer>> = self.observers.trace.as_ref().map(|(tracer, _)| tracer);

        let metas: Vec<(String, Priority, u64)> = self
            .specs
            .iter()
            .map(|s| (s.label.clone(), s.priority, s.arrival_cycles))
            .collect();

        // Build one master target per query, warm-started from the order
        // cache when the template's stage keys hit at admission. (Open-loop
        // later arrivals get a second chance mid-run: completed template
        // mates publish at completion, and the first morsel claim of an
        // `arrival > 0` query re-consults the cache.)
        let mut targets = Vec::with_capacity(metas.len());
        let mut signatures = Vec::with_capacity(metas.len());
        let mut warms = Vec::with_capacity(metas.len());
        for spec in self.specs.iter_mut() {
            let (target, signature, warm_seed) =
                build_target(spec, cache_on.then_some(&mut self.cache))?;
            targets.push(target);
            signatures.push(signature);
            warms.push(warm_seed);
        }

        // Placement: home every query on one socket, greedy least-
        // loaded-by-footprint in submission order with ties to the
        // lowest socket — a pure function of the admitted batch. On a
        // single-socket pool every query lands on socket 0 and the whole
        // scheme reduces to the flat pre-NUMA server.
        let sockets = pool.sockets();
        let footprints: Vec<u64> = targets
            .iter()
            .map(crate::progressive::ProgressiveTarget::hot_set_bytes)
            .collect();
        let mut socket_load = vec![0u64; sockets];
        let mut socket_footprint = vec![0u64; sockets];
        let homes: Vec<usize> = footprints
            .iter()
            .map(|&f| {
                let s = (0..sockets)
                    .min_by_key(|&s| (socket_load[s], s))
                    .expect("a pool has at least one socket");
                // Even a zero-footprint query occupies morsel slots;
                // weight it so placement still spreads the batch.
                socket_load[s] += f.max(1);
                socket_footprint[s] += f;
                s
            })
            .collect();

        // Socket boundary: a query's rows interleave across its home
        // socket's cores, so each core co-runs exactly the queries homed
        // on its socket — its declared footprint is that socket's
        // aggregate hot set. On a shared-LLC pool the partition shrinks
        // every core's slice accordingly (a pure function of the
        // admitted batch, recomputed at this batch boundary; the opt-in
        // `dynamic_repartition` re-divides only within a worker's own
        // claim stream). Each query's
        // estimator then prices against its footprint-proportional slice
        // of its home socket's core share, so reoptimization sees what
        // the co-runners actually left it.
        let core_footprints: Vec<u64> = (0..workers)
            .map(|c| socket_footprint[pool.socket_of(c)])
            .collect();
        pool.declare_footprints(&core_footprints);
        let shared_socket = pool.llc_mode() == popt_cpu::LlcMode::Shared;
        let dynamic_repartition = shared_socket && self.config.dynamic_repartition;
        let line_bytes = cpu_cfg.line_bytes();
        let budgets: Vec<u64> = footprints
            .iter()
            .zip(&homes)
            .map(|(&f, &s)| {
                let core_share = pool.min_effective_llc_bytes_socket(s);
                let local_total = socket_footprint[s];
                if shared_socket && local_total > 0 {
                    let slice =
                        u128::from(core_share) * u128::from(f) / u128::from(local_total.max(1));
                    (slice as u64).max(line_bytes)
                } else {
                    core_share
                }
            })
            .collect();
        let member_range: Vec<(usize, usize)> = (0..sockets)
            .map(|s| {
                let members = pool.socket_members(s);
                (members[0], members.len())
            })
            .collect();

        // Admission-time decisions, stamped on the coordinator lane at
        // each query's arrival position: what arrived, where the cache
        // left it, where it was homed, and how the batch divided the LLC.
        if let Some(tracer) = trace {
            let lane = tracer.coordinator_lane();
            for (qid, (label, priority, arrival)) in metas.iter().enumerate() {
                tracer.emit_at(
                    lane,
                    qid,
                    *arrival,
                    TraceEvent::Admit {
                        label: label.clone(),
                        priority: priority.label(),
                        arrival_cycles: *arrival,
                    },
                );
                if cache_on {
                    tracer.emit_at(
                        lane,
                        qid,
                        *arrival,
                        TraceEvent::CacheLookup {
                            hit: warms[qid].is_some(),
                            mid_run: false,
                            order: warms[qid].clone(),
                        },
                    );
                }
                tracer.emit_at(
                    lane,
                    qid,
                    *arrival,
                    TraceEvent::SocketHome {
                        socket: homes[qid],
                        footprint_bytes: footprints[qid],
                    },
                );
            }
            tracer.emit_at(
                lane,
                0,
                0,
                TraceEvent::LlcRepartition {
                    scope: "batch",
                    mode: if shared_socket { "shared" } else { "private" },
                    shares: budgets.clone(),
                },
            );
        }

        // Per-worker state, minted before the mutable borrows below: each
        // worker's executors for every query (re-chained independently),
        // its stride scheduler over the queries it has admitted, and its
        // core's batch-boundary way slice.
        let mut locals = Vec::with_capacity(workers);
        for core in pool.cores() {
            let shards: Result<Vec<_>, EngineError> = targets
                .iter()
                .map(|t| Ok(WorkerShard::new(t.shard()?, t.order())))
                .collect();
            locals.push(ServeWorker {
                shards: shards?,
                sched: StrideScheduler::new(targets.len()),
                admitted: vec![false; targets.len()],
                live: vec![false; targets.len()],
                base_ways: core.hierarchy().llc_ways(),
            });
        }

        // Work division: each query's rows are interleaved across its
        // home socket's workers exactly like the dedicated-pool executor
        // (morsel k → member k mod M), so every worker's share of every
        // query is a pure function of the batch (see the `morsel` module
        // docs).
        let mut dispatchers = Vec::with_capacity(targets.len());
        let mut entries = Vec::with_capacity(targets.len());
        for ((((target, &budget), &home), signature), warm_seed) in targets
            .iter_mut()
            .zip(&budgets)
            .zip(&homes)
            .zip(signatures)
            .zip(warms)
        {
            let (member_start, members) = member_range[home];
            let inner = MorselDispatcher::new(target.rows(), morsel_tuples, members)?;
            let total_morsels = inner.total_morsels();
            let (_, priority, arrival) = &metas[entries.len()];
            dispatchers.push(QueryDispatch {
                inner,
                member_start,
                members,
            });
            // The query's own coordination protocol (trial leasing, reopt
            // rounds, epoch publication) emits through the same tracer
            // under its query id.
            let obs = ExecObservers {
                trace: trace.map(|tracer| (Arc::clone(tracer), entries.len())),
                profiler: None,
                drift: self.observers.drift.clone(),
            };
            entries.push(QueryEntry {
                coord: CoordState::new(target, workers, budget, obs),
                totals: VectorStats::zero(),
                exec_cycles: 0,
                first_vt: None,
                finish_vt: None,
                completed: 0,
                total_morsels,
                signature,
                warm_seed,
                seed_checked: false,
                arrival: *arrival,
                weight: priority.weight(),
                footprint: footprints[entries.len()],
            });
        }

        let mut state = ServerState {
            queries: entries,
            dispatchers,
            cache: if cache_on {
                Some(&mut self.cache)
            } else {
                None
            },
            dynamic_repartition,
        };
        let ctx = RunCtx {
            reopt,
            cpu_cfg: &cpu_cfg,
            tracer: trace.map(|tracer| &**tracer),
            profile: None,
        };
        let finished = run_workers(pool, locals, |worker, local, step| match step {
            Step::Report(executed) => {
                state.report(worker, local, &executed, ctx)?;
                Ok(Step::Boundary)
            }
            _ => state.boundary(worker, local, ctx),
        })?;
        let worker_clocks: Vec<(u64, u64)> = finished
            .iter()
            .map(|(worker, _)| (worker.busy() + worker.opt, worker.idle()))
            .collect();
        drop(finished);

        // Converged orders were already published to the cache at each
        // query's completion; assembling the report only reads.
        let mut queries = Vec::with_capacity(state.queries.len());
        for (entry, (label, priority, arrival)) in state.queries.into_iter().zip(metas) {
            let coord = entry.coord;
            let final_order = coord.published_order(0).clone();
            let finish = entry.finish_vt.unwrap_or(arrival);
            let first = entry.first_vt.unwrap_or(arrival);
            queries.push(QueryOutcome {
                label,
                priority,
                arrival_cycles: arrival,
                qualified: entry.totals.qualified,
                sum: entry.totals.sum,
                morsels: entry.completed,
                exec_cycles: entry.exec_cycles,
                optimizer_cycles: coord.optimizer_cycles,
                latency_cycles: finish.saturating_sub(arrival),
                queue_cycles: first.saturating_sub(arrival),
                switches: coord.switches,
                estimates: coord.estimates,
                final_order,
                warm_start: entry.warm_seed.is_some(),
            });
        }

        // The batch completed: only now does the queue drain (targets
        // still borrow the specs; release them first).
        drop(targets);
        self.specs.clear();

        let (per_worker_busy_cycles, per_worker_idle_cycles): (Vec<u64>, Vec<u64>) =
            worker_clocks.into_iter().unzip();
        let wall_cycles =
            fleet_wall_cycles_interleaved(&per_worker_busy_cycles, &per_worker_idle_cycles);
        Ok(ServeReport {
            queries,
            workers,
            wall_cycles,
            wall_millis: wall_cycles as f64 / (freq * 1e6),
            busy_cycles: per_worker_busy_cycles.iter().sum(),
            idle_cycles: per_worker_idle_cycles.iter().sum(),
            occupancy: fleet_occupancy(&per_worker_busy_cycles, &per_worker_idle_cycles),
            per_worker_busy_cycles,
            per_worker_idle_cycles,
        })
    }
}

/// Build a query's master target, consulting the order cache (when
/// given) for a warm-start order and calibration. A spec whose lowering
/// failed fails the batch here with that error. Returns the target, its
/// workload signature, and the cached order the target was seeded with
/// (`None` = cold start).
fn build_target<'p, 't>(
    spec: &'p mut QuerySpec<'t>,
    cache: Option<&mut OrderCache>,
) -> Result<(CompiledTarget<'p, 't>, WorkloadSignature, Option<Peo>), EngineError> {
    let program = spec.program.as_mut().map_err(|err| err.clone())?;
    let signature = WorkloadSignature::of_compiled(program);
    let cached = cache.and_then(|c| c.lookup(&signature));
    match cached.as_ref() {
        Some(entry) => program.reorder(&entry.order)?,
        None => program.reorder(&spec.initial_order)?,
    }
    let mut target = CompiledTarget::new(program);
    if let Some(calibration) = cached.as_ref().and_then(|e| e.calibration.as_ref()) {
        target.restore_calibration(calibration);
    }
    Ok((target, signature, cached.map(|entry| entry.order)))
}

/// One query's work division over its home socket: the inner dispatcher
/// spans only the socket's member cores (contiguous, `member_start ..
/// member_start + members`), and the wrapper maps pool-wide worker ids
/// onto those local slots. A non-member worker simply has no share of
/// the query. On a single-socket pool every worker is a member and this
/// is exactly the flat pool-wide dispatcher.
struct QueryDispatch {
    inner: MorselDispatcher,
    member_start: usize,
    members: usize,
}

impl QueryDispatch {
    /// The local dispatcher slot of pool worker `w`, if it is a member
    /// of the query's home socket.
    fn slot(&self, w: usize) -> Option<usize> {
        (self.member_start..self.member_start + self.members)
            .contains(&w)
            .then(|| w - self.member_start)
    }

    fn has_morsels(&self, w: usize) -> bool {
        self.slot(w).is_some_and(|s| self.inner.has_morsels(s))
    }

    fn next(&mut self, w: usize) -> Option<(usize, usize)> {
        let slot = self.slot(w)?;
        self.inner.next(slot)
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }
}

/// Per-query serving state: the query's progressive coordination, its
/// completion accounting, and what admission and scheduling read of it.
struct QueryEntry<'a, 'p, 't> {
    coord: CoordState<'a, CompiledTarget<'p, 't>>,
    totals: VectorStats,
    exec_cycles: u64,
    first_vt: Option<u64>,
    finish_vt: Option<u64>,
    completed: usize,
    total_morsels: usize,
    /// The template identity, for mid-run cache publication/consultation.
    signature: WorkloadSignature,
    /// The cached order the query was seeded with (`None` = cold start),
    /// whether at admission to the batch or by a mid-run warm start.
    warm_seed: Option<Peo>,
    /// Whether the mid-run cache was already consulted for a late seed.
    seed_checked: bool,
    /// The query's arrival time (gates admission, and mid-run warm
    /// starts to open-loop later arrivals).
    arrival: u64,
    /// Stride-scheduling weight of the query's priority.
    weight: u64,
    /// Declared hot-set footprint (bytes), for dynamic repartition.
    footprint: u64,
}

/// The batch every serving worker steps against: every admitted query's
/// state and work division, and the server's order cache — shared so
/// converged state publishes at query *completion* instead of at batch
/// drain, and a long open-loop stream warms its own later arrivals
/// online (`None` when the cache is bypassed).
struct ServerState<'a, 'p, 't> {
    queries: Vec<QueryEntry<'a, 'p, 't>>,
    dispatchers: Vec<QueryDispatch>,
    cache: Option<&'a mut OrderCache>,
    /// [`ServeConfig::dynamic_repartition`], on a shared-LLC pool.
    dynamic_repartition: bool,
}

/// One serving worker's own state. The scheduler is *worker-local*: the
/// worker divides its own morsel slots across the queries it has
/// admitted (by its own clock), over its own deterministic share of each
/// query's rows. Pool-wide shares still converge to the priority weights
/// — every worker enforces the same ratios — while the only cross-worker
/// coupling is the per-query coordination itself (epoch publication,
/// trial leasing) and the order cache. The worker's pool slot is its
/// window index in every query's coordination state.
struct ServeWorker<'t> {
    /// The worker's executor for each query.
    shards: Vec<WorkerShard<CompiledShard<'t>>>,
    sched: StrideScheduler,
    admitted: Vec<bool>,
    /// The queries this worker still serves: dynamic repartition divides
    /// the core's batch-boundary way slice (`base_ways`) among them. Both
    /// the live set and the drain events that shrink it follow the
    /// worker's own claim stream.
    live: Vec<bool>,
    base_ways: usize,
}

impl<'t> ServerState<'_, '_, 't> {
    /// A serving worker's boundary: admit every query that has arrived by
    /// the worker's clock, pick the next query in stride order and
    /// execute one morsel of it — or idle forward to the next arrival, or
    /// finish once the worker's share of every query is claimed.
    fn boundary(
        &mut self,
        worker: &mut Worker<'_>,
        local: &mut ServeWorker<'t>,
        ctx: RunCtx<'_>,
    ) -> Result<Step, EngineError> {
        let (w, now) = (worker.w, worker.now());
        for (qid, entry) in self.queries.iter().enumerate() {
            if !local.admitted[qid] && entry.arrival <= now {
                local.admitted[qid] = true;
                if self.dispatchers[qid].has_morsels(w) {
                    local.sched.admit(qid, entry.weight);
                    local.live[qid] = true;
                }
            }
        }
        let Some(qid) = local.sched.pick(|qid| self.dispatchers[qid].has_morsels(w)) else {
            let next_arrival = self
                .queries
                .iter()
                .enumerate()
                .filter(|&(qid, _)| !local.admitted[qid])
                .map(|(_, entry)| entry.arrival)
                .min();
            if let Some(arrival) = next_arrival {
                // The pool is ahead of the arrival process: idle forward
                // instead of spinning.
                worker.core.idle(arrival.saturating_sub(now).max(1));
                return Ok(Step::Boundary);
            }
            if self.dynamic_repartition {
                // Leave the core at its batch-boundary slice; the next
                // batch's footprint declaration repartitions it anyway.
                worker.core.set_llc_ways(local.base_ways);
            }
            return Ok(Step::Done);
        };
        let range = self.dispatchers[qid]
            .next(w)
            .expect("an eligible query has a morsel in this worker's share");
        if !self.dispatchers[qid].has_morsels(w) {
            // Share drained: out of this worker's scheduler (completion
            // is tracked separately). This is the local completion event
            // dynamic repartition keys on: at most one query drains per
            // boundary, in the worker's own simulated-cycle order.
            local.sched.retire(qid);
            local.live[qid] = false;
        }
        let entry = &mut self.queries[qid];
        // Mid-run warm start: the first claim of an open-loop later
        // arrival re-consults the cache once — a template mate that
        // completed earlier in simulated time seeds this instance even
        // though both were admitted in one batch. Closed-loop queries
        // (arrival 0) co-start with their mates and keep the
        // batch-admission semantics.
        if !entry.seed_checked {
            entry.seed_checked = true;
            if entry.warm_seed.is_none() && entry.arrival > 0 {
                if let Some(cache) = self.cache.as_deref_mut() {
                    let hit = cache.lookup(&entry.signature);
                    if let Some(tracer) = ctx.tracer {
                        tracer.emit_at(
                            w,
                            qid,
                            now,
                            TraceEvent::CacheLookup {
                                hit: hit.is_some(),
                                mid_run: true,
                                order: hit.as_ref().map(|h| h.order.clone()),
                            },
                        );
                    }
                    if let Some(hit) = hit {
                        if entry.coord.reseed(&hit.order, hit.calibration.as_ref()) {
                            entry.warm_seed = Some(hit.order);
                        }
                    }
                }
            }
        }
        // Queue delay is measured to the *earliest* service across
        // workers.
        entry.first_vt = Some(entry.first_vt.map_or(now, |f| f.min(now)));
        let action = entry.coord.begin_morsel(w, local.shards[qid].epoch);
        if self.dynamic_repartition {
            // Serve this morsel with the query's footprint-proportional
            // sub-share of the core's way slice among the queries this
            // worker still serves. The just-drained query keeps its share
            // for its own last morsel (`q == qid`); survivors see the
            // larger share from their next claim on. Query-id iteration
            // order makes equal-footprint ties deterministic.
            let co: Vec<usize> = (0..local.live.len())
                .filter(|&q| local.live[q] || q == qid)
                .collect();
            let fps: Vec<u64> = co.iter().map(|&q| self.queries[q].footprint).collect();
            let shares = popt_cpu::partition_llc_ways(local.base_ways as u32, &fps);
            let mine = co.iter().position(|&q| q == qid).expect("qid is in co");
            worker.core.set_llc_ways(shares[mine] as usize);
            if let Some(tracer) = ctx.tracer {
                tracer.emit_at(
                    w,
                    qid,
                    now,
                    TraceEvent::LlcRepartition {
                        scope: "worker",
                        mode: "shared",
                        shares: shares.iter().map(|&s| u64::from(s)).collect(),
                    },
                );
            }
        }
        run_morsel(worker, &mut local.shards[qid], action, range, qid, ctx)
    }

    /// A serving worker's report of the morsel it executed: the query's
    /// coordination step, then completion accounting — the query finishes
    /// at the wall-clock position of the worker that ran its last morsel,
    /// and publishes its converged order to the cache there.
    fn report(
        &mut self,
        worker: &mut Worker<'_>,
        local: &mut ServeWorker<'t>,
        executed: &Executed,
        ctx: RunCtx<'_>,
    ) -> Result<(), EngineError> {
        let (w, qid, stats) = (worker.w, executed.query, &executed.stats);
        // A trial can be leased by any worker still serving this query,
        // so "work remains" is pool-wide, not this worker's share.
        let work_remains = !self.dispatchers[qid].exhausted();
        let entry = &mut self.queries[qid];
        let ws = &mut local.shards[qid];
        report_morsel(&mut entry.coord, worker, ws, executed, ctx, work_remains)?;
        entry.totals.accumulate(stats);
        entry.exec_cycles += stats.counters.cycles;
        entry.completed += 1;
        // With per-worker clocks the finish position is the furthest
        // wall-clock position any of the query's morsels reached (a
        // lagging core's completion never rewinds the clock of an
        // earlier one).
        let vt = worker.now();
        entry.finish_vt = Some(entry.finish_vt.unwrap_or(0).max(vt));
        if entry.completed < entry.total_morsels {
            return Ok(());
        }
        // Every one of the query's morsels has resolved (a leased trial
        // resolves before its morsel counts): its converged order and
        // calibration go to the cache *now*. Later arrivals of the
        // template in this same batch can warm from it; a warm instance
        // feeds the staleness accounting instead.
        entry.coord.abandon_trials();
        if let Some(tracer) = ctx.tracer {
            tracer.emit_at(
                w,
                qid,
                vt,
                TraceEvent::Complete {
                    qualified: entry.totals.qualified,
                    sum: entry.totals.sum,
                    morsels: entry.completed,
                    wall_cycles: vt,
                },
            );
        }
        let Some(cache) = self.cache.as_deref_mut() else {
            return Ok(());
        };
        let final_order = entry.coord.published_order(0).clone();
        let calibration = entry.coord.target.calibration_snapshot();
        let signature = entry.signature.clone();
        let event = if entry.warm_seed.is_some() {
            let outcome = cache.record_warm(signature, final_order.clone(), calibration);
            TraceEvent::CacheRecord {
                warm: true,
                order: final_order,
                diverged: outcome.diverged,
                evicted: outcome.evicted,
                streak_reset: false,
            }
        } else {
            let discarded_streak = cache.record(signature, final_order.clone(), calibration);
            TraceEvent::CacheRecord {
                warm: false,
                order: final_order,
                diverged: false,
                evicted: false,
                streak_reset: discarded_streak > 0,
            }
        };
        if let Some(tracer) = ctx.tracer {
            tracer.emit_at(w, qid, vt, event);
        }
        Ok(())
    }
}
