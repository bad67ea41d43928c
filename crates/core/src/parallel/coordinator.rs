//! The pooled drive of the §4.4 policy: N workers, one policy state per
//! socket.
//!
//! Workers (one per [`CpuPool`] core) claim morsels from the dispatcher
//! and execute them on their private simulated cores. The *decisions* —
//! when an order is explored, probed, proposed, accepted, reverted or
//! remembered as rejected, and what a fit costs — are the crate-private
//! `policy` module's, the same object the serial drive in
//! [`crate::progressive`] owns (its module docs list the four things a
//! drive decides for itself, and why). What this module adds is what only
//! a pool needs:
//!
//! * **Sampling** — every morsel executed under the currently accepted
//!   order accumulates into its worker's window; a due round fuses the
//!   socket's windows ([`SampledCounters::merged`]) into one sample for a
//!   single Nelder–Mead estimate, so optimization cost is paid once per
//!   interval, not once per core.
//! * **Epoch publication** — an accepted order bumps the epoch; workers
//!   notice at their next morsel boundary and re-chain their
//!   pre-compiled primitives (the vectorized switch of §4.4). Morsels
//!   measured under a stale epoch still count toward the query result
//!   but are excluded from the sample window.
//! * **Trial leasing** — a scheduled trial is leased to exactly one
//!   worker that has a trial baseline (the policy's one baseline type,
//!   one per worker: its last warm morsel under the socket's accepted
//!   order): it runs one morsel under the candidate order and resolves it
//!   against that baseline. A bad candidate therefore never runs on more
//!   than one core, while the other workers keep streaming under the
//!   incumbent order.
//! * **Probes between rounds** — every in-epoch report that opens no
//!   round, and every trial morsel's report once it has resolved the
//!   trial, goes through one helper (`CoordState::offer_probe`) to the
//!   policy's between-rounds probe, as the serial drive offers every
//!   vector that opens none, its trial vectors included.
//!
//! Both pooled drives — this module's [`run_parallel_target_observed`]
//! (one `CoordState` per run) and the serving layer (`crate::serve`,
//! one per admitted query) — run on one driver, written once here:
//! `run_workers` steps every worker on the calling thread, always the
//! one with the lowest simulated clock `(now, w)`. A worker alternates
//! two steps: its *boundary* (claim a morsel, sync its order or lease a
//! trial through `CoordState::begin_morsel`, and execute the morsel on
//! its core — `run_morsel`) and its *report* (`report_morsel`: the
//! coordination step, any estimator fit run inline and charged to that
//! worker's clock). Every coordination decision is therefore applied in
//! simulated-time order, so a pooled run is a pure function of its
//! inputs, like the serial drive; with one worker the sequence is the
//! serial-shaped boundary, report, boundary, report. Each drive keeps
//! only what it does around the two steps: the pool its affinity
//! dispatch and profiler lanes, the server admission, scheduling,
//! repartition and completion accounting.

use popt_cost::cycles::{fleet_speedup, fleet_wall_cycles};
use popt_cost::estimate::PlanGeometry;
use popt_cpu::pmu::CounterDelta;
use popt_cpu::{CpuConfig, CpuPool, LlcMode, NumaPlacement, SimCpu};
use popt_obs::{Profiler, TraceEvent, Tracer};
use popt_solver::SampledCounters;

use crate::error::EngineError;
use crate::exec::scan::VectorStats;
use crate::observe::{morsel_stage_parts, ExecObservers};
use crate::plan::Peo;
use crate::policy::{book_fit, Fit, ReoptPolicy, TrialBaseline};
use crate::progressive::{ProgressiveConfig, SwitchEvent};

use super::morsel::{MorselConfig, MorselDispatcher};
use super::{ShardableTarget, TargetShard};

/// Outcome of a morsel-driven parallel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelReport {
    /// Qualifying tuples (bit-identical to the single-core executor).
    pub qualified: u64,
    /// Aggregate sum (bit-identical to the single-core executor).
    pub sum: i64,
    /// Wall-clock cycles: the busiest worker, including the optimizer
    /// cycles charged to the cores that ran estimator rounds.
    pub wall_cycles: u64,
    /// Aggregate cycles across all workers (total work).
    pub total_cycles: u64,
    /// Wall-clock simulated milliseconds.
    pub millis: f64,
    /// Workers (= pool cores) that executed the run.
    pub workers: usize,
    /// Morsels executed.
    pub morsels: usize,
    /// Per-worker cycles (execution + that worker's optimizer rounds).
    pub per_worker_cycles: Vec<u64>,
    /// Order switches, in scheduling order (`vector` = morsel count at
    /// the time the trial was scheduled).
    pub switches: Vec<SwitchEvent>,
    /// Estimator invocations.
    pub estimates: usize,
    /// Total cycles attributed to the optimizer.
    pub optimizer_cycles: u64,
    /// The accepted order when the scan finished (socket 0's on a
    /// multi-socket pool).
    pub final_order: Peo,
    /// The accepted order of each socket when the scan finished — on a
    /// NUMA pool the sockets optimize independently and can converge to
    /// *different* orders (a dim homed locally ranks cheaper there).
    /// One entry (equal to `final_order`) on a single-socket pool.
    pub socket_orders: Vec<Peo>,
    /// Percentage of memory-served accesses that crossed to a remote
    /// socket (0 on a single-socket pool).
    pub remote_access_pct: f64,
    /// Counter totals across all cores.
    pub counters: CounterDelta,
}

impl ParallelReport {
    /// Wall-clock speedup over a reference single-worker run.
    pub fn speedup_over(&self, reference_wall_cycles: u64) -> f64 {
        fleet_speedup(reference_wall_cycles, &self.per_worker_cycles)
    }
}

/// What a worker should do with the morsel it just claimed, decided at
/// the boundary sync ([`CoordState::begin_morsel`]).
pub(crate) enum BoundaryAction {
    /// A pending trial was leased to this worker: re-chain to the trial
    /// order and resolve it against this morsel's counters.
    Trial(Peo),
    /// The published order moved since the worker last synced: re-chain
    /// to it and record the new epoch.
    Adopt {
        /// The published order to adopt.
        order: Peo,
        /// The epoch the morsel will run under.
        epoch: u64,
    },
    /// The worker's chained order is still the published one.
    Keep,
}

/// Per-socket slice of the coordination state: the socket's §4.4
/// policy (accepted order, pending trial, rejection memory, rounds) plus
/// what only a pooled drive needs around it — the epoch its workers sync
/// to, the in-epoch morsel count that makes a round due, and the LLC
/// share its fits price with. (A trial's baseline is per worker, not per
/// socket: `CoordState::baselines`.) Sockets optimize independently — a
/// trial accepted on socket 0 never re-chains socket 1's workers — which
/// is what lets the two halves of a NUMA pool converge to *different*
/// accepted orders when their placements price the same dims
/// differently. A single-socket pool has exactly one slice.
struct SocketCoord {
    policy: ReoptPolicy,
    /// Bumped on every accepted switch; this socket's workers resync
    /// when it moves.
    epoch: u64,
    morsels_since_reopt: usize,
    /// Effective LLC capacity (bytes) this socket's morsels run against
    /// — the smallest member share under contention, the full LLC
    /// otherwise. Every estimator fit prices its geometry with this
    /// capacity, so the proposals it produces reflect what a co-runner
    /// left the query.
    llc_share_bytes: u64,
}

impl SocketCoord {
    fn new(published: Peo, llc_share_bytes: u64) -> Self {
        Self {
            policy: ReoptPolicy::new(published),
            epoch: 0,
            morsels_since_reopt: 0,
            llc_share_bytes,
        }
    }
}

/// Per-query coordination state: the master target plus everything the
/// §4.4 loop tracks between morsels, sliced per socket. Methods are the
/// steps of the coordination protocol, each applied whole at the calling
/// worker's simulated clock ([`run_workers`] orders them).
///
/// The master target holds a single evaluation order, so every step that
/// derives geometry, calibrates, or proposes for socket `s` first sets
/// `s`'s published (or trial) order on the target; one socket's order
/// therefore never leaks into another's fit. A `set_order` the target
/// refuses ends the run with that error.
pub(crate) struct CoordState<'a, T> {
    /// The master target: order tracking plus the shared estimator model
    /// (probe clustering, proposal logic). Never executes a morsel.
    pub(crate) target: &'a mut T,
    /// Per-socket coordination slices.
    sockets: Vec<SocketCoord>,
    /// Socket of each worker (contiguous blocks, `CpuPool::socket_of`).
    socket_of: Vec<usize>,
    /// The pool's memory map, for remote-fraction probe pricing.
    placement: NumaPlacement,
    /// Per-worker sample windows under the worker's socket epoch order.
    windows: Vec<VectorStats>,
    /// Per worker, the baseline of a trial it leases.
    baselines: Vec<TrialBaseline>,
    pub(crate) switches: Vec<SwitchEvent>,
    pub(crate) estimates: usize,
    /// Optimizer cycles of every fit this state booked (each worker's
    /// own share is on its `Worker::opt`).
    pub(crate) optimizer_cycles: u64,
    pub(crate) morsels_done: usize,
    /// The run's observers, attached when the state is built. Decision
    /// events go to the tracer (stamped on the calling worker's lane,
    /// tagged with the traced query) and every fit's predicted-vs-
    /// observed residuals to the drift observatory, keyed by the
    /// literal-free key of the front stage of the order the sample ran
    /// under. Both hang outside the simulated-cost path, so attaching
    /// them never changes a cycle count.
    obs: ExecObservers,
    /// Literal-free per-stage keys of the master target (plan-indexed),
    /// cached at construction for drift attribution.
    stage_keys: Vec<u64>,
}

impl<'a, T: ShardableTarget> CoordState<'a, T> {
    /// Fresh single-socket coordination state over `target`'s current
    /// order, for a pool of `workers` workers whose cores give this
    /// query an effective LLC capacity of `llc_share_bytes`.
    pub(crate) fn new(
        target: &'a mut T,
        workers: usize,
        llc_share_bytes: u64,
        obs: ExecObservers,
    ) -> Self {
        Self::with_topology(
            target,
            vec![0; workers],
            vec![llc_share_bytes],
            NumaPlacement::single(),
            obs,
        )
    }

    /// Coordination state over a socket topology: `socket_of` maps each
    /// worker to its socket, `llc_shares` carries one effective LLC
    /// capacity per socket, and `placement` prices remote probes. Every
    /// socket starts from the target's current order.
    pub(crate) fn with_topology(
        target: &'a mut T,
        socket_of: Vec<usize>,
        llc_shares: Vec<u64>,
        placement: NumaPlacement,
        obs: ExecObservers,
    ) -> Self {
        let published = target.order();
        let stage_keys = target.stage_keys();
        let workers = socket_of.len();
        Self {
            target,
            sockets: llc_shares
                .into_iter()
                .map(|share| SocketCoord::new(published.clone(), share))
                .collect(),
            socket_of,
            placement,
            windows: vec![VectorStats::zero(); workers],
            baselines: vec![TrialBaseline::default(); workers],
            switches: Vec::new(),
            estimates: 0,
            optimizer_cycles: 0,
            morsels_done: 0,
            obs,
            stage_keys,
        }
    }

    /// The accepted order on `socket`.
    pub(crate) fn published_order(&self, socket: usize) -> &Peo {
        self.sockets[socket].policy.published()
    }

    /// The accepted order of every socket, in socket order.
    pub(crate) fn socket_orders(&self) -> Vec<Peo> {
        self.sockets
            .iter()
            .map(|s| s.policy.published().clone())
            .collect()
    }

    /// Geometry for socket `s`'s current target order: NUMA-priced when
    /// the pool has remote memory to price, the flat (PR 5) geometry
    /// otherwise — so a 1-socket run takes the exact legacy path.
    fn geometry(&self, s: usize, n_input: u64, cpu_cfg: &CpuConfig) -> PlanGeometry {
        let share = self.sockets[s].llc_share_bytes;
        if self.placement.sockets() > 1 {
            self.target
                .plan_geometry_numa(n_input, cpu_cfg, share, &self.placement, s)
        } else {
            self.target.plan_geometry(n_input, cpu_cfg, share)
        }
    }

    /// Boundary sync for worker `w`, which last chained its shard under
    /// `local_epoch`: lease a pending trial on `w`'s socket so the
    /// candidate runs on exactly this core — when `w` has a morsel under
    /// the accepted order to judge it against — or tell the worker which
    /// published order to adopt. The caller applies the returned order
    /// to its worker-private shard.
    pub(crate) fn begin_morsel(&mut self, w: usize, local_epoch: u64) -> BoundaryAction {
        let s = self.socket_of[w];
        let sc = &mut self.sockets[s];
        // Same core, adjacent work: the serial drive's vector-to-vector
        // comparison.
        let lease = sc.policy.lease_trial(&self.baselines[w]);
        if let Some((order, baseline_cpt)) = lease.map(|(order, cpt)| (order.clone(), cpt)) {
            self.obs.emit(Some(w), || TraceEvent::TrialLease {
                socket: s,
                order: order.clone(),
                baseline_cpt,
            });
            BoundaryAction::Trial(order)
        } else if local_epoch != sc.epoch {
            BoundaryAction::Adopt {
                order: sc.policy.published().clone(),
                epoch: sc.epoch,
            }
        } else {
            BoundaryAction::Keep
        }
    }

    /// Book a fit whose sample ran under the master target's current
    /// order, returning its cycles for the caller to charge.
    fn book(&mut self, fit: &Fit, observed_cpt: f64) -> u64 {
        let drift = self.obs.drift.as_deref().map(|d| (d, &self.stage_keys[..]));
        let spent = book_fit(
            self.target,
            fit,
            true,
            observed_cpt,
            drift,
            &mut self.estimates,
        );
        self.optimizer_cycles += spent;
        spent
    }

    /// Report of a morsel worker `w` ran under its leased trial `order`:
    /// count the morsel, learn from its one-morsel sample under the trial
    /// order (when the target calibrates from trials), then let the
    /// policy accept — which publishes a new epoch — or revert, and,
    /// while work remains, offer the report to the policy's
    /// between-rounds probe, as the serial drive offers a trial vector's.
    /// Returns the published order and epoch after resolution, for the
    /// resolving worker's shard, and the optimizer cycles charged to `w`.
    pub(crate) fn resolve_trial(
        &mut self,
        w: usize,
        order: &Peo,
        stats: &VectorStats,
        cpu_cfg: &CpuConfig,
        work_remains: bool,
    ) -> Result<(Peo, u64, u64), EngineError> {
        self.morsels_done += 1;
        let s = self.socket_of[w];
        let cpt = stats.cycles_per_tuple();
        let mut spent = 0;
        if self.target.wants_trial_calibration() {
            self.target.set_order(order)?;
            let sampled = stats.sampled_counters();
            let fit = Fit::run(self.geometry(s, sampled.n_input, cpu_cfg), sampled);
            spent = self.book(&fit, cpt);
        }
        let sc = &mut self.sockets[s];
        // Invariant: a worker reports a trial only for the lease
        // `begin_morsel` gave it, and nothing but this report clears a
        // leased trial. `tests/proptest_parallel.rs` holds it: its 1–8
        // worker, 1–2 socket pools lease and resolve trials throughout.
        let (order, baseline_cpt, reverted) = sc
            .policy
            .resolve_trial(cpt, stats.tuples, &mut self.switches)
            .expect("a leased trial is resolved by its lessee alone");
        self.target.set_order(sc.policy.published())?;
        if reverted {
            self.obs.emit(Some(w), || TraceEvent::TrialRevert {
                socket: s,
                order,
                baseline_cpt,
                trial_cpt: cpt,
            });
        } else {
            sc.epoch += 1;
            sc.morsels_since_reopt = 0;
            self.obs.emit(Some(w), || TraceEvent::TrialAccept {
                socket: s,
                order: order.clone(),
                baseline_cpt,
                trial_cpt: cpt,
                epoch: sc.epoch,
            });
            self.obs.emit(Some(w), || TraceEvent::OrderPublish {
                socket: s,
                order,
                epoch: sc.epoch,
                warm_seed: false,
            });
            // The socket's windows and baselines sampled the superseded
            // order; the trial morsel is the new epoch's first
            // observation, and the resolving worker's baseline. Other
            // sockets' workers are untouched.
            for (wi, window) in self.windows.iter_mut().enumerate() {
                if self.socket_of[wi] == s {
                    *window = VectorStats::zero();
                    self.baselines[wi].invalidate();
                }
            }
            self.baselines[w].note_accepted(cpt);
        }
        // Only a reoptimizing run schedules trials: no setting to check.
        if work_remains {
            self.offer_probe(s)?;
        }
        let sc = &self.sockets[s];
        Ok((sc.policy.published().clone(), sc.epoch, spent))
    }

    /// Report of a morsel worker `w` ran under the accepted order of
    /// `epoch`: accumulate it into `w`'s sample window and baseline and,
    /// while work remains (a trial scheduled after the last morsel was
    /// claimed could never run) and no trial is pending, run a
    /// reoptimization round when the interval is due, or else offer the
    /// report to the policy's between-rounds probe. Returns the optimizer
    /// cycles charged to `w`.
    pub(crate) fn note_normal(
        &mut self,
        w: usize,
        epoch: u64,
        stats: &VectorStats,
        reopt: Option<&ProgressiveConfig>,
        cpu_cfg: &CpuConfig,
        work_remains: bool,
    ) -> Result<u64, EngineError> {
        self.morsels_done += 1;
        let s = self.socket_of[w];
        let current = epoch == self.sockets[s].epoch;
        self.baselines[w].note_run(stats.cycles_per_tuple(), current);
        if !current {
            // Measured under a stale epoch: counts toward the result,
            // excluded from the sample window and the baseline.
            return Ok(0);
        }
        self.windows[w].accumulate(stats);
        let sc = &mut self.sockets[s];
        sc.morsels_since_reopt += 1;
        let Some(cfg) = reopt.filter(|_| !sc.policy.trial_pending() && work_remains) else {
            return Ok(0);
        };
        if sc.morsels_since_reopt >= cfg.reop_interval {
            return self.reoptimize(w, cpu_cfg);
        }
        self.offer_probe(s)?;
        Ok(0)
    }

    /// Offer a report that opens no round on socket `s` — a trial's,
    /// once resolved, or one under the accepted order — to the policy's
    /// between-rounds probe. The caller checks that the run reoptimizes
    /// and that work remains.
    fn offer_probe(&mut self, s: usize) -> Result<(), EngineError> {
        // The probe choice reads the target's order: the socket's.
        let policy = &mut self.sockets[s].policy;
        self.target.set_order(policy.published())?;
        policy.probe_between_rounds(self.target, &mut self.switches, self.morsels_done);
        Ok(())
    }

    /// One reoptimization round on worker `w`'s socket `s`: the policy
    /// takes the cheap paths (stall exploration, measurement probe)
    /// itself; otherwise fuse the windows of `s`'s workers into one
    /// sample — the solver fits *per-socket* counter windows, so each
    /// socket's estimate sees only counters generated under its own order
    /// and placement — fit it, learn from the fit, and hand the target's
    /// proposal to the policy. Returns the optimizer cycles charged to
    /// `w`.
    fn reoptimize(&mut self, w: usize, cpu_cfg: &CpuConfig) -> Result<u64, EngineError> {
        let s = self.socket_of[w];
        // The probe choice, the geometry, the calibration and the
        // proposal all read the target's order: the one the windows
        // sampled.
        self.target.set_order(self.sockets[s].policy.published())?;
        let sc = &mut self.sockets[s];
        sc.morsels_since_reopt = 0;
        if !sc
            .policy
            .open_round(self.target, &mut self.switches, self.morsels_done)
        {
            return Ok(0);
        }

        // Fuse this socket's per-worker windows into one socket-wide
        // sample — one estimator round serves the socket — and empty
        // them. Their cycles are the observed side of the round's
        // cycles-per-tuple residual.
        let mut samples = Vec::new();
        let mut window_cycles = 0;
        for (wi, window) in self.windows.iter_mut().enumerate() {
            if self.socket_of[wi] == s && window.tuples > 0 {
                samples.push(window.sampled_counters());
                window_cycles += window.counters.cycles;
                *window = VectorStats::zero();
            }
        }
        let Some(merged) = SampledCounters::merged(&samples) else {
            return Ok(0);
        };
        let observed_cpt = if merged.n_input > 0 {
            window_cycles as f64 / merged.n_input as f64
        } else {
            0.0
        };
        let fit = Fit::run(self.geometry(s, merged.n_input, cpu_cfg), merged);
        let spent = self.book(&fit, observed_cpt);
        let sc = &mut self.sockets[s];
        let proposed = self
            .target
            .propose_order(&fit.geom, &fit.estimate.selectivities);
        self.obs.emit(Some(w), || TraceEvent::ReoptRound {
            socket: s,
            round: sc.policy.round(),
            selectivities: fit.estimate.selectivities.clone(),
            fit_error: fit.estimate.objective,
            proposed: (&proposed != sc.policy.published()).then(|| proposed.clone()),
        });
        sc.policy
            .consider(proposed, &mut self.switches, self.morsels_done);
        Ok(spent)
    }

    /// Re-seed a query that has not yet executed any morsel from a cached
    /// template state: the order becomes the published one under a new
    /// epoch (every worker re-chains its shard at its first claim) and
    /// the calibration is restored into the master target. Only legal
    /// before the first morsel — there are no samples, no trials and no
    /// epoch history to invalidate. An order the target rejects degrades
    /// to keeping the cold start: a stale seed may cost performance,
    /// never correctness. Returns whether the seed was applied.
    pub(crate) fn reseed(
        &mut self,
        order: &[usize],
        calibration: Option<&popt_solver::CalibrationSnapshot>,
    ) -> bool {
        debug_assert_eq!(self.morsels_done, 0, "reseed after execution began");
        if self.target.set_order(order).is_err() {
            return false;
        }
        for sc in &mut self.sockets {
            sc.policy.republish(order);
            sc.epoch += 1;
        }
        for (s, sc) in self.sockets.iter().enumerate() {
            self.obs.emit(None, || TraceEvent::OrderPublish {
                socket: s,
                order: sc.policy.published().clone(),
                epoch: sc.epoch,
                warm_seed: true,
            });
        }
        if let Some(snapshot) = calibration {
            self.target.restore_calibration(snapshot);
        }
        true
    }

    /// End of stream on every socket (see
    /// [`ReoptPolicy::abandon_trial`]). Call once after the last morsel
    /// of the stream resolved.
    pub(crate) fn abandon_trials(&mut self) {
        for sc in &mut self.sockets {
            sc.policy.abandon_trial(&mut self.switches);
        }
    }
}

/// A pooled worker's pending step in [`run_workers`].
pub(crate) enum Step {
    /// Its boundary: claim work — execute a morsel, idle toward the next
    /// arrival, or find none left.
    Boundary,
    /// Its report of the morsel it just executed.
    Report(Executed),
    /// Its share of the run is claimed and reported.
    Done,
}

/// A morsel a worker executed at its boundary, awaiting its report at
/// the morsel's end.
pub(crate) struct Executed {
    /// The query the morsel belongs to.
    pub(crate) query: usize,
    pub(crate) stats: VectorStats,
    /// Whether the morsel ran the worker's leased trial.
    trial: bool,
}

/// The driver of both pooled drives: step the workers — worker `w` on
/// pool core `w` with `locals[w]` — on the calling thread, always the one
/// with the lowest `(now, w)`, until every worker is done. `step` takes a
/// worker's pending step and returns its next. A step's error ends the
/// run and returns as it is. Returns the workers with their locals, in
/// worker order.
pub(crate) fn run_workers<'c, L>(
    pool: &'c mut CpuPool,
    locals: Vec<L>,
    mut step: impl FnMut(&mut Worker<'c>, &mut L, Step) -> Result<Step, EngineError>,
) -> Result<Vec<(Worker<'c>, L)>, EngineError> {
    let socket_of: Vec<usize> = (0..pool.len()).map(|w| pool.socket_of(w)).collect();
    let mut workers: Vec<(Worker<'c>, L, Step)> = pool
        .cores_mut()
        .iter_mut()
        .zip(locals)
        .enumerate()
        .map(|(w, (core, local))| (Worker::new(w, socket_of[w], core), local, Step::Boundary))
        .collect();
    while let Some((worker, local, pending)) = workers
        .iter_mut()
        .filter(|(.., pending)| !matches!(pending, Step::Done))
        .min_by_key(|(worker, ..)| (worker.now(), worker.w))
    {
        let taken = std::mem::replace(pending, Step::Done);
        *pending = step(worker, local, taken)?;
    }
    Ok(workers
        .into_iter()
        .map(|(worker, local, _)| (worker, local))
        .collect())
}

/// One pool worker: its slot, its socket, its private core, and its
/// simulated wall position — busy plus idle cycles since the run began,
/// plus the optimizer cycles its own estimator rounds were charged. The
/// position is a pure function of the simulation; the driver's step
/// order, trace stamps and profiler lanes follow it, never host time.
pub(crate) struct Worker<'c> {
    pub(crate) w: usize,
    socket: usize,
    pub(crate) core: &'c mut SimCpu,
    busy0: u64,
    idle0: u64,
    /// Optimizer cycles charged to this worker so far.
    pub(crate) opt: u64,
}

impl<'c> Worker<'c> {
    /// Worker `w` of `socket`, starting its clock on `core`.
    fn new(w: usize, socket: usize, core: &'c mut SimCpu) -> Self {
        Self {
            w,
            socket,
            busy0: core.cycles(),
            idle0: core.idle_cycles(),
            core,
            opt: 0,
        }
    }

    /// Execution cycles since the run began.
    pub(crate) fn busy(&self) -> u64 {
        self.core.cycles() - self.busy0
    }

    /// Idle cycles since the run began.
    pub(crate) fn idle(&self) -> u64 {
        self.core.idle_cycles() - self.idle0
    }

    /// The worker's wall position.
    pub(crate) fn now(&self) -> u64 {
        self.busy() + self.idle() + self.opt
    }
}

/// A worker's executor for one query: the shard, the epoch it last
/// synced to, and the order it runs under (mirrored for profiler
/// attribution and for resolving a leased trial — shards expose no order
/// accessor, and the coordinator's view can move between this worker's
/// boundaries).
pub(crate) struct WorkerShard<S> {
    shard: S,
    pub(crate) epoch: u64,
    order: Peo,
}

impl<S: TargetShard> WorkerShard<S> {
    /// A shard chained under `order`, synced to epoch 0.
    pub(crate) fn new(shard: S, order: Peo) -> Self {
        Self {
            shard,
            epoch: 0,
            order,
        }
    }

    /// Re-chain the shard to `order`.
    fn rechain(&mut self, order: Peo) -> Result<(), EngineError> {
        self.shard.set_order(&order)?;
        self.order = order;
        Ok(())
    }
}

/// What every morsel of a pooled run shares: the reoptimization
/// settings, the core model fits price with, and the observers the steps
/// feed (the profiler with the plan-indexed stage weights it apportions
/// by).
#[derive(Clone, Copy)]
pub(crate) struct RunCtx<'r> {
    pub(crate) reopt: Option<&'r ProgressiveConfig>,
    pub(crate) cpu_cfg: &'r CpuConfig,
    pub(crate) tracer: Option<&'r Tracer>,
    pub(crate) profile: Option<(&'r Profiler, &'r [f64])>,
}

/// The execution half of both pooled drives' boundary step: apply the
/// boundary decision `action` to the worker's shard, execute rows
/// `start..end` on its core and log the claim under `query`. Returns the
/// worker's report step.
pub(crate) fn run_morsel<S: TargetShard>(
    worker: &mut Worker<'_>,
    ws: &mut WorkerShard<S>,
    action: BoundaryAction,
    (start, end): (usize, usize),
    query: usize,
    ctx: RunCtx<'_>,
) -> Result<Step, EngineError> {
    let trial = match action {
        BoundaryAction::Trial(order) => {
            ws.rechain(order)?;
            true
        }
        BoundaryAction::Adopt { order, epoch } => {
            ws.epoch = epoch;
            ws.rechain(order)?;
            false
        }
        BoundaryAction::Keep => false,
    };
    let (w, socket) = (worker.w, worker.socket);
    let start_pos = worker.now();
    let stats = ws.shard.run_range(worker.core, start, end);
    if let Some((prof, weights)) = ctx.profile {
        let parts = morsel_stage_parts(&ws.order, weights, &stats);
        prof.record_morsel(w, socket, start_pos, &parts);
    }
    if let Some(tracer) = ctx.tracer {
        // The morsel's end, where the report's decision events (accept,
        // revert, reopt) stamp.
        tracer.set_clock(w, worker.now());
        tracer.emit(
            w,
            query,
            TraceEvent::MorselClaim {
                socket,
                start_row: start,
                rows: end - start,
                start_cycles: start_pos,
                cycles: stats.counters.cycles,
                trial,
                epoch: ws.epoch,
            },
        );
    }
    Ok(Step::Report(Executed {
        query,
        stats,
        trial,
    }))
}

/// The report step of both pooled drives: report the morsel `executed`
/// that the worker ran for `coord`'s query — a leased trial resolves, a
/// morsel under the accepted order joins the worker's window and may run
/// a due round — with any estimator fit run inline, at the morsel's end,
/// and its cycles charged to the worker's clock. `work_remains`: whether
/// any of the query's morsels is still unclaimed.
pub(crate) fn report_morsel<T: ShardableTarget>(
    coord: &mut CoordState<'_, T>,
    worker: &mut Worker<'_>,
    ws: &mut WorkerShard<T::Shard>,
    executed: &Executed,
    ctx: RunCtx<'_>,
    work_remains: bool,
) -> Result<(), EngineError> {
    let w = worker.w;
    // Every morsel counts toward the socket's regret budget: trials and
    // stale-epoch morsels too.
    coord.sockets[coord.socket_of[w]]
        .policy
        .note_executed(executed.stats.counters.cycles);
    let opt = if executed.trial {
        // Adopt whatever order the resolution left published (the trial
        // order if accepted, the incumbent if not).
        let (published, epoch, opt) =
            coord.resolve_trial(w, &ws.order, &executed.stats, ctx.cpu_cfg, work_remains)?;
        ws.rechain(published)?;
        ws.epoch = epoch;
        opt
    } else {
        coord.note_normal(
            w,
            ws.epoch,
            &executed.stats,
            ctx.reopt,
            ctx.cpu_cfg,
            work_remains,
        )?
    };
    if let Some((prof, _)) = ctx.profile {
        prof.record_optimizer(w, worker.socket, worker.now(), opt);
    }
    worker.opt += opt;
    Ok(())
}

/// Execute a compiled program with morsel-driven parallelism, optionally
/// with shared progressive operator reordering (`reopt = None` runs the
/// start order throughout). The program is left in the final accepted
/// order. The parallel generalization of
/// [`crate::progressive::run_progressive_program_observed`]. Observers
/// (see [`ExecObservers`]; [`ExecObservers::none`] for none) are
/// non-invasive — the report is bit-identical to the unobserved run's.
pub fn run_parallel_program_observed(
    program: &mut crate::exec::program::CompiledProgram<'_>,
    initial_order: &[usize],
    morsels: MorselConfig,
    pool: &mut CpuPool,
    reopt: Option<&ProgressiveConfig>,
    obs: &ExecObservers,
) -> Result<ParallelReport, EngineError> {
    program.reorder(initial_order)?;
    let mut target = crate::progressive::CompiledTarget::new(program);
    run_parallel_target_observed(&mut target, morsels, pool, reopt, obs)
}

/// Drive any range-shardable progressive target across the pool, with
/// any combination of observers attached: tracer, per-stage cycle
/// profiler, model-drift observatory. All non-invasive — the report is bit-identical to the unobserved run's,
/// and the profiler's attributed cycles sum bit-exactly to the pool's
/// per-worker wall cycles (stage + optimizer lanes per worker equal that
/// worker's entry in `per_worker_cycles`; idle pads to the fleet wall).
pub fn run_parallel_target_observed<T>(
    target: &mut T,
    morsels: MorselConfig,
    pool: &mut CpuPool,
    reopt: Option<&ProgressiveConfig>,
    obs: &ExecObservers,
) -> Result<ParallelReport, EngineError>
where
    T: ShardableTarget,
{
    if let Some(cfg) = reopt {
        cfg.validate()?;
    }
    let workers = pool.len();
    let sockets = pool.sockets();
    // Range affinity: each socket's workers claim from that socket's
    // contiguous morsel range (HyPer-style), via per-worker claim
    // counters. One socket reduces exactly to the flat round-robin
    // interleave.
    let mut dispatcher =
        MorselDispatcher::with_affinity(target.rows(), morsels.morsel_tuples, workers, sockets)?;
    let cpu_cfg = pool.config().clone();
    let freq = cpu_cfg.timing.frequency_ghz;

    // Socket boundary: declare this query's hot set on every core it is
    // about to occupy. On a shared-LLC pool the partition shrinks each
    // core's slice to its share — a pure function of the declared
    // footprints, so per-core cycles stay host-independent — and every
    // estimator fit below prices against the (conservative, per-socket
    // minimum) share instead of the configured socket capacity.
    pool.declare_footprints(&vec![target.hot_set_bytes(); workers]);
    let llc_shares: Vec<u64> = (0..sockets)
        .map(|s| pool.min_effective_llc_bytes_socket(s))
        .collect();
    let socket_of: Vec<usize> = (0..workers).map(|w| pool.socket_of(w)).collect();
    let placement = pool.cores()[0].placement().clone();

    if let Some((tracer, query)) = &obs.trace {
        let mode = match pool.llc_mode() {
            LlcMode::Shared => "shared",
            LlcMode::Private => "private",
        };
        tracer.emit(
            tracer.coordinator_lane(),
            *query,
            TraceEvent::LlcRepartition {
                scope: "batch",
                mode,
                shares: llc_shares.clone(),
            },
        );
    }

    // Every shard starts under the target's initial order; each worker
    // keeps its shard and its running totals.
    let initial_order = target.order();
    let mut locals = Vec::with_capacity(workers);
    for _ in 0..workers {
        let shard = WorkerShard::new(target.shard()?, initial_order.clone());
        locals.push((shard, VectorStats::zero()));
    }
    // The plan-indexed profiling weights (order-independent by
    // construction).
    let plan_weights = target.stage_profile_weights();
    let ctx = RunCtx {
        reopt,
        cpu_cfg: &cpu_cfg,
        tracer: obs.trace.as_ref().map(|(tracer, _)| &**tracer),
        profile: obs.profiler.as_deref().map(|p| (p, &plan_weights[..])),
    };
    let query = obs.trace.as_ref().map_or(0, |(_, query)| *query);

    let mut coord =
        CoordState::with_topology(target, socket_of, llc_shares, placement, obs.clone());
    // A worker's boundary claims its next morsel, syncs its order or
    // leases a trial, and executes the morsel; its report follows at the
    // morsel's end.
    let finished = run_workers(pool, locals, |worker, (ws, total), step| match step {
        Step::Report(executed) => {
            total.accumulate(&executed.stats);
            let work_remains = !dispatcher.exhausted();
            report_morsel(&mut coord, worker, ws, &executed, ctx, work_remains)?;
            Ok(Step::Boundary)
        }
        _ => match dispatcher.next(worker.w) {
            Some(range) => {
                let action = coord.begin_morsel(worker.w, ws.epoch);
                run_morsel(worker, ws, action, range, query, ctx)
            }
            None => Ok(Step::Done),
        },
    })?;
    coord.abandon_trials();

    // Totals merge in worker order.
    let mut total = VectorStats::zero();
    let mut per_worker_cycles = Vec::with_capacity(workers);
    for (worker, (_, stats)) in &finished {
        total.accumulate(stats);
        per_worker_cycles.push(worker.busy() + worker.opt);
    }
    drop(finished);
    let wall_cycles = fleet_wall_cycles(&per_worker_cycles);
    if let Some(prof) = &obs.profiler {
        // Per-worker busy cycles are final; the profiler fills the idle
        // lanes up to the fleet wall and seals the conservation law.
        prof.finish(&per_worker_cycles);
    }
    let socket_orders = coord.socket_orders();
    // Leave the master target in socket 0's accepted order: callers read
    // one final order off the target, and socket 0 is the deterministic
    // representative (`final_order` carries the same choice).
    coord.target.set_order(&socket_orders[0])?;
    if let Some((tracer, query)) = &obs.trace {
        tracer.emit_at(
            tracer.coordinator_lane(),
            *query,
            wall_cycles,
            TraceEvent::Complete {
                qualified: total.qualified,
                sum: total.sum,
                morsels: coord.morsels_done,
                wall_cycles,
            },
        );
    }
    Ok(ParallelReport {
        qualified: total.qualified,
        sum: total.sum,
        wall_cycles,
        total_cycles: per_worker_cycles.iter().sum(),
        millis: wall_cycles as f64 / (freq * 1e6),
        workers,
        morsels: coord.morsels_done,
        per_worker_cycles,
        switches: coord.switches,
        estimates: coord.estimates,
        optimizer_cycles: coord.optimizer_cycles,
        final_order: socket_orders[0].clone(),
        socket_orders,
        remote_access_pct: pool.remote_access_pct(),
        counters: total.counters,
    })
}
