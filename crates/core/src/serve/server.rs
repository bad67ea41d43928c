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
//!   [`CoordState`]: its own epoch-published order, sample windows,
//!   trial leasing and rejection memory, exactly as if it ran alone on
//!   the pool. Estimator fits run outside the scheduler lock and their
//!   cycles are charged to the core that ran them.
//! * **Order reuse** — on admission the server consults its
//!   [`OrderCache`] by workload signature; a warm hit starts the query
//!   from the template's last converged order and clustering
//!   calibration instead of the caller's (textbook) order.
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

use std::sync::{Arc, Mutex, MutexGuard};

use popt_cost::cycles::{fleet_occupancy, fleet_wall_cycles_interleaved};
use popt_cpu::{CpuConfig, CpuPool, SimCpu};
use popt_obs::{DriftObservatory, MetricsRegistry, TraceEvent, Tracer};
use popt_storage::Table;

use crate::error::EngineError;
use crate::exec::program::CompiledProgram;
use crate::exec::scan::VectorStats;
use crate::parallel::coordinator::{
    enter_morsel, finish_morsel, BoundaryAction, CoordState, WithCoord,
};
use crate::parallel::{
    CompiledShard, MorselConfig, MorselDispatcher, ShardableTarget, TargetShard,
};
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

/// What a served query executes.
pub enum QueryKind<'t> {
    /// A multi-selection scan, lowered to its probe-free compiled
    /// program ([`CompiledProgram::from_selection`]) when the batch runs.
    Scan {
        /// The scanned table.
        table: &'t Table,
        /// The selection plan.
        plan: SelectionPlan,
        /// Evaluation order to start from on a cache miss.
        initial_peo: Peo,
    },
    /// A compiled frontend program ([`crate::plan::LogicalPlan`] →
    /// [`CompiledProgram`]). Signatures are literal-free, so sliding a
    /// plan's literals keeps the template warm across arrivals.
    Compiled {
        /// The compiled program (stages borrow immutable column data).
        program: CompiledProgram<'t>,
        /// Evaluation order to start from on a cache miss.
        initial_order: Peo,
    },
}

/// One query submitted to the server.
pub struct QuerySpec<'t> {
    /// Human-readable identity carried into the report.
    pub label: String,
    /// What to execute.
    pub kind: QueryKind<'t>,
    /// Scheduling priority.
    pub priority: Priority,
    /// Arrival time in simulated cycles since server start (0 = already
    /// queued when the pool starts — a closed-loop workload).
    pub arrival_cycles: u64,
}

impl<'t> QuerySpec<'t> {
    /// A scan query.
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
            kind: QueryKind::Scan {
                table,
                plan,
                initial_peo,
            },
            priority,
            arrival_cycles,
        }
    }

    /// A compiled-program query, starting from the program's lowering
    /// (plan) order on a cache miss.
    pub fn compiled(
        label: impl Into<String>,
        program: CompiledProgram<'t>,
        priority: Priority,
        arrival_cycles: u64,
    ) -> Self {
        let initial_order = program.order().to_vec();
        Self {
            label: label.into(),
            kind: QueryKind::Compiled {
                program,
                initial_order,
            },
            priority,
            arrival_cycles,
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
    /// in query-id order — never to other workers' completions: reacting
    /// to a *global* completion would make this core's cycles depend on
    /// the host thread interleaving, the exact hazard that reverted the
    /// shared morsel cursor. Shared-LLC pools only (inert on private
    /// LLCs, where there is no partition to re-divide). Off by default:
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
            reopt: Some(ProgressiveConfig {
                reop_interval: 4,
                ..Default::default()
            }),
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

    /// Fold the batch outcome into a metrics registry: batch counters
    /// (`serve.*`), occupancy/throughput gauges, and latency/queueing
    /// histograms both pooled and split per priority class.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry) {
        reg.inc("serve.batches", 1);
        reg.inc("serve.queries", self.queries.len() as u64);
        reg.inc("serve.wall_cycles", self.wall_cycles);
        reg.inc("serve.busy_cycles", self.busy_cycles);
        reg.inc("serve.idle_cycles", self.idle_cycles);
        reg.set_gauge("serve.occupancy", self.occupancy);
        reg.set_gauge("serve.throughput_qps", self.throughput_qps());
        for q in &self.queries {
            reg.inc("serve.morsels", q.morsels as u64);
            reg.inc("serve.switches", q.switches.len() as u64);
            reg.inc(
                "serve.switches_reverted",
                q.switches.iter().filter(|s| s.reverted).count() as u64,
            );
            reg.inc("serve.estimates", q.estimates as u64);
            reg.inc("serve.optimizer_cycles", q.optimizer_cycles);
            if q.warm_start {
                reg.inc("serve.warm_starts", 1);
            }
            reg.observe("serve.latency_cycles", q.latency_cycles);
            reg.observe("serve.queue_cycles", q.queue_cycles);
            let by_class = match q.priority {
                Priority::Low => "serve.latency_cycles.low",
                Priority::Normal => "serve.latency_cycles.normal",
                Priority::High => "serve.latency_cycles.high",
            };
            reg.observe(by_class, q.latency_cycles);
        }
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
    tracer: Option<Arc<Tracer>>,
    drift: Option<Arc<DriftObservatory>>,
}

impl<'t> QueryServer<'t> {
    /// A server with an empty queue and a cold cache.
    pub fn new(config: ServeConfig) -> Self {
        Self {
            specs: Vec::new(),
            cache: OrderCache::new(),
            config,
            tracer: None,
            drift: None,
        }
    }

    /// Attach a tracer: subsequent [`QueryServer::run`] batches emit the
    /// full decision/event stream (admission, socket homing, cache
    /// consultation, morsel claims, reopt rounds, trial leases, order
    /// publications, completion) into the tracer's sink. Tracing is
    /// non-invasive — simulated cycles, results, and accepted orders are
    /// bit-identical with the tracer attached, detached, or disabled.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Detach the tracer (runs stop emitting).
    pub fn clear_tracer(&mut self) {
        self.tracer = None;
    }

    /// Attach a model-drift observatory: every query's reopt-round and
    /// trial fits record their predicted-vs-observed residuals there,
    /// keyed by literal-free stage key (so repeated templates aggregate
    /// into shared series). Non-invasive, like the tracer.
    pub fn set_drift(&mut self, drift: Arc<DriftObservatory>) {
        self.drift = Some(drift);
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
            if cfg.reop_interval == 0 {
                return Err(EngineError::InvalidVectorConfig("reop_interval = 0".into()));
            }
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
        // tracer (or a disabled sink) every emission below is a single
        // `if` on a `None`/false and no event payload is ever built.
        let trace: Option<&Arc<Tracer>> = self.tracer.as_ref().filter(|t| t.enabled());

        let metas: Vec<(String, Priority, u64)> = self
            .specs
            .iter()
            .map(|s| (s.label.clone(), s.priority, s.arrival_cycles))
            .collect();

        // Build one master target per query, warm-started from the order
        // cache when the workload signature hits at admission. (Open-loop
        // later arrivals get a second chance mid-run: completed template
        // mates publish at completion, and the first morsel claim of an
        // `arrival > 0` query re-consults the cache under the lock.)
        let mut targets = Vec::with_capacity(metas.len());
        let mut signatures = Vec::with_capacity(metas.len());
        let mut warms = Vec::with_capacity(metas.len());
        for spec in self.specs.iter_mut() {
            let (target, signature, warm_seed) =
                build_target(&mut spec.kind, cache_on.then_some(&mut self.cache))?;
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
        // admitted batch, recomputed at this batch boundary; reacting to
        // *other workers'* completions would make shares depend on host
        // thread timing — the same hazard that reverted the shared
        // morsel cursor; the opt-in `dynamic_repartition` re-divides
        // only within a worker's own claim stream). Each query's
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
                tracer.emit_at(lane, qid, *arrival, || TraceEvent::Admit {
                    label: label.clone(),
                    priority: priority.label(),
                    arrival_cycles: *arrival,
                });
                if cache_on {
                    tracer.emit_at(lane, qid, *arrival, || TraceEvent::CacheLookup {
                        hit: warms[qid].is_some(),
                        mid_run: false,
                        order: warms[qid].clone(),
                    });
                }
                tracer.emit_at(lane, qid, *arrival, || TraceEvent::SocketHome {
                    socket: homes[qid],
                    footprint_bytes: footprints[qid],
                });
            }
            tracer.emit_at(lane, 0, 0, || TraceEvent::LlcRepartition {
                scope: "batch",
                mode: if shared_socket { "shared" } else { "private" },
                shares: budgets.clone(),
            });
        }

        // Per-(worker, query) shards, minted before the mutable borrows
        // below: each worker re-chains its own executors independently.
        let mut worker_shards: Vec<Vec<CompiledShard<'t>>> = Vec::with_capacity(workers);
        for _ in 0..workers {
            let shards: Result<Vec<_>, EngineError> =
                targets.iter().map(ShardableTarget::shard).collect();
            worker_shards.push(shards?);
        }

        // Work division: each query's rows are interleaved across its
        // home socket's workers exactly like the dedicated-pool executor
        // (morsel k → member k mod M), so every worker's share of every
        // query is a pure function of the batch (see the `morsel` module
        // docs for why a greedy shared cursor would not be). Without
        // reopt the per-core simulated cycles — and with them the
        // latency figures — reproduce exactly on any host; with reopt
        // enabled the same residual, single-morsel-bounded scheduling
        // sensitivity as the dedicated-pool executor remains (which
        // worker leases a trial and where an epoch lands follow the
        // cross-worker completion interleaving; results stay
        // bit-identical regardless). Dispatcher claims are per-worker
        // atomics, so they live outside the scheduler lock.
        let mut dispatchers = Vec::with_capacity(targets.len());
        let mut entries = Vec::with_capacity(targets.len());
        let arrivals: Vec<u64> = metas.iter().map(|(_, _, arrival)| *arrival).collect();
        let weights: Vec<u64> = metas
            .iter()
            .map(|(_, priority, _)| priority.weight())
            .collect();
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
            let arrival = metas[entries.len()].2;
            dispatchers.push(QueryDispatch {
                inner,
                member_start,
                members,
            });
            let mut coord = CoordState::new(target, workers, budget);
            if let Some(tracer) = trace {
                // The query's own coordination protocol (trial leasing,
                // reopt rounds, epoch publication) emits through the same
                // tracer under its query id.
                coord.set_trace(Arc::clone(tracer), entries.len());
            }
            if let Some(drift) = &self.drift {
                coord.set_drift(Arc::clone(drift));
            }
            entries.push(QueryEntry {
                coord,
                totals: VectorStats::zero(),
                exec_cycles: 0,
                first_vt: None,
                finish_vt: None,
                completed: 0,
                total_morsels,
                signature,
                warm_seed,
                seed_checked: false,
                arrival,
            });
        }

        let state = Mutex::new(ServerState {
            queries: entries,
            error: None,
            cache: if cache_on {
                Some(&mut self.cache)
            } else {
                None
            },
        });

        let worker_socket: Vec<usize> = (0..workers).map(|c| pool.socket_of(c)).collect();
        let mut worker_clocks: Vec<(u64, u64, u64)> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = pool
                .cores_mut()
                .iter_mut()
                .zip(worker_shards)
                .enumerate()
                .map(|(w, (core, mut shards))| {
                    let state = &state;
                    let cpu_cfg = &cpu_cfg;
                    let dispatchers = &dispatchers;
                    let arrivals = &arrivals;
                    let weights = &weights;
                    let footprints = &footprints;
                    let socket = worker_socket[w];
                    scope.spawn(move || {
                        serve_worker(
                            w,
                            socket,
                            core,
                            &mut shards,
                            state,
                            dispatchers,
                            arrivals,
                            weights,
                            footprints,
                            dynamic_repartition,
                            reopt,
                            cpu_cfg,
                            trace,
                        )
                        .unwrap_or_else(|err| {
                            // Siblings see the slot at their next claim
                            // and stop; a failed batch reports no clocks.
                            locked(state).error = Some(err);
                            (0, 0, 0)
                        })
                    })
                })
                .collect();
            for handle in handles {
                worker_clocks.push(handle.join().expect("serve worker panicked"));
            }
        });

        let mut st = state.into_inner().expect("no worker held the lock");
        if let Some(err) = st.error.take() {
            return Err(err);
        }

        // Converged orders were already published to the cache at each
        // query's completion (under the coordination lock); assembling
        // the report only reads.
        let mut queries = Vec::with_capacity(st.queries.len());
        for (entry, (label, priority, arrival)) in st.queries.into_iter().zip(metas) {
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
                optimizer_cycles: coord.optimizer_cycles.iter().sum(),
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

        let per_worker_busy_cycles: Vec<u64> = worker_clocks
            .iter()
            .map(|&(busy, _, opt)| busy + opt)
            .collect();
        let per_worker_idle_cycles: Vec<u64> =
            worker_clocks.iter().map(|&(_, idle, _)| idle).collect();
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
/// given) for a warm-start order and calibration. A scan spec is first
/// lowered in place to its compiled program, so an unknown column fails
/// the batch here. Returns the target, its workload signature, and the
/// cached order the target was seeded with (`None` = cold start).
fn build_target<'p, 't>(
    kind: &'p mut QueryKind<'t>,
    cache: Option<&mut OrderCache>,
) -> Result<(CompiledTarget<'p, 't>, WorkloadSignature, Option<Peo>), EngineError> {
    if let QueryKind::Scan {
        table,
        plan,
        initial_peo,
    } = kind
    {
        let program = CompiledProgram::from_selection(table, plan, initial_peo)?;
        let initial_order = std::mem::take(initial_peo);
        *kind = QueryKind::Compiled {
            program,
            initial_order,
        };
    }
    let QueryKind::Compiled {
        program,
        initial_order,
    } = kind
    else {
        unreachable!("scan specs were lowered above")
    };
    let signature = WorkloadSignature::of_compiled(program);
    let cached = cache.and_then(|c| c.lookup(&signature));
    match cached.as_ref() {
        Some(entry) => program.reorder(&entry.order)?,
        None => program.reorder(initial_order)?,
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

    fn next(&self, w: usize) -> Option<(usize, usize)> {
        self.inner.next(self.slot(w)?)
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }
}

/// Per-query serving state behind the coordination lock: the query's
/// progressive coordination plus its completion accounting. (The work
/// division itself — dispatchers, arrivals, weights — is immutable or
/// atomic and lives outside the lock.)
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
    /// The query's arrival time (gates mid-run warm starts to open-loop
    /// later arrivals).
    arrival: u64,
}

struct ServerState<'a, 'p, 't> {
    queries: Vec<QueryEntry<'a, 'p, 't>>,
    error: Option<EngineError>,
    /// The server's order cache, shared with the workers so converged
    /// state publishes at query *completion* (under this same lock)
    /// instead of at batch drain — a long open-loop stream warms its own
    /// later arrivals online. `None` when the cache is bypassed.
    cache: Option<&'a mut OrderCache>,
}

/// The server's one mutex. A poisoned lock means a sibling worker
/// panicked mid-step; the state is not trusted past that.
fn locked<'s, 'a, 'p, 't>(
    state: &'s Mutex<ServerState<'a, 'p, 't>>,
) -> MutexGuard<'s, ServerState<'a, 'p, 't>> {
    state.lock().expect("coordination lock")
}

/// What a worker decided to do after consulting its scheduler.
enum Step {
    /// Serve one morsel of query `qid`.
    Run {
        qid: usize,
        start: usize,
        end: usize,
        action: BoundaryAction,
    },
    /// No admissible work: idle forward to the next arrival.
    Idle(u64),
    /// This worker's share of every query has been claimed.
    Done,
}

/// One serving worker: interleave the worker's shares of all admitted
/// queries in stride order, execute each morsel on the private core,
/// and run the owning query's coordination protocol — estimator fits
/// outside the lock, their cycles charged to this core.
///
/// The scheduler is *worker-local*: each worker divides its own morsel
/// slots across the queries it has admitted (by its own clock), over
/// its own deterministic share of each query's rows. Pool-wide shares
/// still converge to the priority weights — every worker enforces the
/// same ratios — while the only cross-worker coupling left is the
/// per-query coordination itself (epoch publication, trial leasing),
/// which is bounded to single-morsel effects exactly as in the
/// dedicated-pool executor. `w` is the worker's slot in the pool, used
/// as its window index in every query's coordination state. Returns
/// (busy, idle, optimizer) cycles, or the error that stopped it.
#[allow(clippy::too_many_arguments)]
fn serve_worker<'a, 'p, 't>(
    w: usize,
    socket: usize,
    core: &mut SimCpu,
    shards: &mut [CompiledShard<'t>],
    state: &Mutex<ServerState<'a, 'p, 't>>,
    dispatchers: &[QueryDispatch],
    arrivals: &[u64],
    weights: &[u64],
    footprints: &[u64],
    dynamic_repartition: bool,
    reopt: Option<&ProgressiveConfig>,
    cpu_cfg: &CpuConfig,
    trace: Option<&Arc<Tracer>>,
) -> Result<(u64, u64, u64), EngineError> {
    let base_cycles = core.cycles();
    let base_idle = core.idle_cycles();
    // This worker's wall-clock position: busy + idle + the optimizer
    // cycles (`opt`) its own estimator rounds were charged.
    let wall = |core: &SimCpu, opt: u64| {
        (core.cycles() - base_cycles) + (core.idle_cycles() - base_idle) + opt
    };
    let mut opt_cycles = 0u64;
    let mut local_epochs = vec![0u64; shards.len()];
    let mut sched = StrideScheduler::new(shards.len());
    let mut admitted = vec![false; shards.len()];
    // Dynamic way repartition state: this core's batch-boundary way
    // slice, sub-divided among the queries this worker is still serving
    // (`live`). Both the live set and the drain events that shrink it
    // are pure functions of the worker's own claim stream, so the cycles
    // this produces never depend on host thread interleaving (see
    // [`ServeConfig::dynamic_repartition`]).
    let base_ways = core.hierarchy().llc_ways();
    let mut live = vec![false; shards.len()];

    loop {
        let now = wall(core, opt_cycles);
        // Admission: every arrived query with a non-empty share for this
        // worker joins the worker's scheduler at the worker's clock.
        for qid in 0..arrivals.len() {
            if !admitted[qid] && arrivals[qid] <= now {
                admitted[qid] = true;
                if dispatchers[qid].has_morsels(w) {
                    sched.admit(qid, weights[qid]);
                    live[qid] = true;
                }
            }
        }
        let step = match sched.pick(|qid| dispatchers[qid].has_morsels(w)) {
            Some(qid) => {
                let (start, end) = dispatchers[qid]
                    .next(w)
                    .expect("an eligible query has a morsel in this worker's share");
                if !dispatchers[qid].has_morsels(w) {
                    // Share drained: out of this worker's scheduler
                    // (completion is tracked separately). This is the
                    // local completion event dynamic repartition keys
                    // on: at most one query drains per boundary, in the
                    // worker's own simulated-cycle order.
                    sched.retire(qid);
                    live[qid] = false;
                }
                let mut guard = locked(state);
                if guard.error.is_some() {
                    break;
                }
                let st = &mut *guard;
                let entry = &mut st.queries[qid];
                // Mid-run warm start: the first claim of an open-loop
                // later arrival re-consults the cache once, under the
                // same lock publication uses — a template mate that
                // completed earlier in the stream seeds this instance
                // even though both were admitted in one batch. Closed-
                // loop queries (arrival 0) co-start with their mates and
                // keep the batch-admission semantics. On a multi-worker
                // pool, whether a mate's completion lands before this
                // first claim follows the *host* completion interleaving
                // when the two are close, so warm-vs-cold here — like
                // trial leasing — is bounded perf-only nondeterminism:
                // it can move switches and cycles, never results. With
                // one worker (or arrival gaps that dwarf query runtimes,
                // the open-loop regime this path exists for) the choice
                // is fully deterministic.
                if !entry.seed_checked {
                    entry.seed_checked = true;
                    if entry.warm_seed.is_none() && entry.arrival > 0 {
                        if let Some(cache) = st.cache.as_deref_mut() {
                            let hit = cache.lookup(&entry.signature);
                            if let Some(tracer) = trace {
                                tracer.emit_at(w, qid, now, || TraceEvent::CacheLookup {
                                    hit: hit.is_some(),
                                    mid_run: true,
                                    order: hit.as_ref().map(|h| h.order.clone()),
                                });
                            }
                            if let Some(hit) = hit {
                                if entry.coord.reseed(&hit.order, hit.calibration.as_ref()) {
                                    entry.warm_seed = Some(hit.order);
                                }
                            }
                        }
                    }
                }
                // Queue delay is measured to the *earliest* service
                // across workers.
                entry.first_vt = Some(entry.first_vt.map_or(now, |f| f.min(now)));
                let action = entry.coord.begin_morsel(w, local_epochs[qid]);
                Step::Run {
                    qid,
                    start,
                    end,
                    action,
                }
            }
            None => {
                let next_arrival = (0..arrivals.len())
                    .filter(|&qid| !admitted[qid])
                    .map(|qid| arrivals[qid])
                    .min();
                match next_arrival {
                    Some(arrival) => {
                        // The pool is ahead of the arrival process: idle
                        // forward instead of spinning. A peer's failure
                        // is only checked here (and under the claim
                        // path's own lock) — the busy path must not pay
                        // an extra acquisition of the shared mutex per
                        // morsel just for the error flag.
                        if locked(state).error.is_some() {
                            break;
                        }
                        Step::Idle(arrival.saturating_sub(now).max(1))
                    }
                    None => Step::Done,
                }
            }
        };

        match step {
            Step::Done => break,
            Step::Idle(gap) => {
                core.idle(gap);
                continue;
            }
            Step::Run {
                qid,
                start,
                end,
                action,
            } => {
                let (is_trial, _) = enter_morsel(action, &mut shards[qid], &mut local_epochs[qid])?;

                if dynamic_repartition {
                    // Serve this morsel with the query's footprint-
                    // proportional sub-share of the core's way slice
                    // among the queries this worker still serves. The
                    // just-drained query keeps its share for its own
                    // last morsel (`q == qid`); survivors see the larger
                    // share from their next claim on. Query-id iteration
                    // order makes equal-footprint ties deterministic.
                    let co: Vec<usize> = (0..live.len()).filter(|&q| live[q] || q == qid).collect();
                    let fps: Vec<u64> = co.iter().map(|&q| footprints[q]).collect();
                    let shares = popt_cpu::partition_llc_ways(base_ways as u32, &fps);
                    let mine = co.iter().position(|&q| q == qid).expect("qid is in co");
                    core.set_llc_ways(shares[mine] as usize);
                    if let Some(tracer) = trace {
                        tracer.emit_at(w, qid, now, || TraceEvent::LlcRepartition {
                            scope: "worker",
                            mode: "shared",
                            shares: shares.iter().map(|&s| u64::from(s)).collect(),
                        });
                    }
                }
                let start_pos = wall(core, opt_cycles);
                let stats = shards[qid].run_range(core, start, end);
                if let Some(tracer) = trace {
                    // Publish this worker's wall position so the locked
                    // round below stamps its decisions at the morsel's
                    // end, then log the claim itself.
                    tracer.set_clock(w, wall(core, opt_cycles));
                    tracer.emit(w, qid, || TraceEvent::MorselClaim {
                        socket,
                        start_row: start,
                        rows: end - start,
                        start_cycles: start_pos,
                        cycles: stats.counters.cycles,
                        trial: is_trial,
                        epoch: local_epochs[qid],
                    });
                }

                // The shared morsel step from the coordinator, with the
                // estimator cycles it charged to this worker mirrored
                // into the wall-clock position.
                let (opt, _) = finish_morsel(
                    &QueryCoordRef { state, qid },
                    w,
                    is_trial,
                    &stats,
                    &mut shards[qid],
                    &mut local_epochs[qid],
                    reopt,
                    cpu_cfg,
                    // A trial can be leased by any worker still serving
                    // this query, so "work remains" is pool-wide, not
                    // this worker's share.
                    !dispatchers[qid].exhausted(),
                )?;
                opt_cycles += opt;

                // Completion accounting: the query finishes at the
                // wall-clock position of the worker that ran its last
                // morsel.
                let mut guard = locked(state);
                let st = &mut *guard;
                let entry = &mut st.queries[qid];
                entry.totals.accumulate(&stats);
                entry.exec_cycles += stats.counters.cycles;
                entry.completed += 1;
                // The query is done when its last morsel completes; with
                // per-worker clocks the finish position is the furthest
                // wall-clock position any of its morsels reached (a
                // lagging core's completion never rewinds the clock of
                // an earlier one).
                let vt = wall(core, opt_cycles);
                entry.finish_vt = Some(entry.finish_vt.unwrap_or(0).max(vt));
                // Mid-run publication: the query just completed (every
                // one of its morsels has resolved — a leased trial
                // resolves before its morsel counts), so its converged
                // order and calibration go to the cache *now*, under the
                // coordination lock we already hold. Later arrivals of
                // the template in this same batch can warm from it; a
                // warm instance feeds the staleness accounting instead.
                if entry.completed == entry.total_morsels {
                    entry.coord.abandon_trials();
                    if let Some(tracer) = trace {
                        tracer.emit_at(w, qid, vt, || TraceEvent::Complete {
                            qualified: entry.totals.qualified,
                            sum: entry.totals.sum,
                            morsels: entry.completed,
                            wall_cycles: vt,
                        });
                    }
                    if let Some(cache) = st.cache.as_deref_mut() {
                        let final_order = entry.coord.published_order(0).clone();
                        let calibration = entry.coord.target.calibration_snapshot();
                        if entry.warm_seed.is_some() {
                            let outcome = cache.record_warm(
                                entry.signature.clone(),
                                final_order.clone(),
                                calibration,
                            );
                            if let Some(tracer) = trace {
                                tracer.emit_at(w, qid, vt, || TraceEvent::CacheRecord {
                                    warm: true,
                                    order: final_order,
                                    diverged: outcome.diverged,
                                    evicted: outcome.evicted,
                                    streak_reset: false,
                                });
                            }
                        } else {
                            let discarded_streak = cache.record(
                                entry.signature.clone(),
                                final_order.clone(),
                                calibration,
                            );
                            if let Some(tracer) = trace {
                                tracer.emit_at(w, qid, vt, || TraceEvent::CacheRecord {
                                    warm: false,
                                    order: final_order,
                                    diverged: false,
                                    evicted: false,
                                    streak_reset: discarded_streak > 0,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    if dynamic_repartition {
        // Leave the core at its batch-boundary slice; the next batch's
        // footprint declaration repartitions it anyway.
        core.set_llc_ways(base_ways);
    }
    Ok((
        core.cycles() - base_cycles,
        core.idle_cycles() - base_idle,
        opt_cycles,
    ))
}

/// Locked access to one served query's coordination state: the server's
/// single mutex plus the query index, plugged into the coordinator's
/// shared [`finish_morsel`] choreography.
struct QueryCoordRef<'s, 'a, 'p, 't> {
    state: &'s Mutex<ServerState<'a, 'p, 't>>,
    qid: usize,
}

impl<'a, 'p, 't> WithCoord<'a, CompiledTarget<'p, 't>> for QueryCoordRef<'_, 'a, 'p, 't> {
    fn with<R>(&self, f: impl FnOnce(&mut CoordState<'a, CompiledTarget<'p, 't>>) -> R) -> R {
        f(&mut locked(self.state).queries[self.qid].coord)
    }
}
