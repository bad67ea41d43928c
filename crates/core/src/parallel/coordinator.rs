//! The pooled drive of the §4.4 policy: N workers, one policy state per
//! socket.
//!
//! Worker threads (one per [`CpuPool`] core) claim morsels from the
//! shared dispatcher and execute them on their private simulated cores.
//! The *decisions* — when an order is explored, probed, proposed,
//! accepted, reverted or remembered as rejected, and what a fit costs —
//! are the crate-private `policy` module's, the same object the serial
//! drive in [`crate::progressive`] owns (its module docs list the four
//! things a drive decides for itself, and why). What this module adds is
//! what only a pool needs:
//!
//! * **Sampling** — every morsel executed under the currently accepted
//!   order accumulates into its worker's window; a due round fuses the
//!   socket's windows ([`SampledCounters::merged`]) into one sample for a
//!   single Nelder–Mead estimate, so optimization cost is paid once per
//!   interval, not once per core.
//! * **Epoch publication** — an accepted order bumps the epoch; workers
//!   notice at their next morsel boundary and re-chain their
//!   pre-compiled primitives (the vectorized switch of §4.4, now
//!   concurrent). Morsels measured under a stale epoch still count
//!   toward the query result but are excluded from the sample window.
//! * **Trial leasing** — a scheduled trial is leased to exactly one
//!   worker: it runs one morsel under the candidate order and resolves
//!   it. A bad candidate therefore never runs on more than one core,
//!   while the other workers keep streaming under the incumbent order.
//!
//! [`CoordState`]'s methods are each a *locked step*: the caller holds
//! the run's one mutex, and the expensive estimate always runs between
//! two locked steps, outside the lock. Both pooled drives — this
//! module's [`run_parallel_target_observed`] (one `CoordState` per run)
//! and the serving layer (`crate::serve`, one per admitted query) — run
//! on the same skeleton, written once here: [`run_workers`] spawns one
//! worker per pool core over the drive's state behind that mutex and
//! keeps the first error, and [`run_morsel`] is the per-morsel step
//! (re-chain, execute, log the claim, report through the locked steps).
//! Each drive keeps only its own boundary lock and what it does around
//! the step: the pool its affinity dispatch and profiler lanes, the
//! server admission, scheduling, repartition and completion accounting.

use std::sync::{Mutex, MutexGuard};

use popt_cost::cycles::{fleet_speedup, fleet_wall_cycles};
use popt_cost::estimate::PlanGeometry;
use popt_cpu::pmu::CounterDelta;
use popt_cpu::{CpuConfig, CpuPool, LlcMode, NumaPlacement, SimCpu};
use popt_obs::{MetricsRegistry, Profiler, TraceEvent, Tracer};
use popt_solver::SampledCounters;

use crate::error::EngineError;
use crate::exec::scan::VectorStats;
use crate::observe::{morsel_stage_parts, ExecObservers};
use crate::plan::Peo;
use crate::policy::{book_fit, Fit, ReoptPolicy};
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

    /// Feed the run's aggregates into a metrics registry (post-hoc; the
    /// registry never sits on the simulated-cost path).
    pub fn record_metrics(&self, reg: &mut MetricsRegistry) {
        reg.inc("parallel.runs", 1);
        reg.inc("parallel.morsels", self.morsels as u64);
        reg.inc("parallel.estimates", self.estimates as u64);
        reg.inc("parallel.optimizer_cycles", self.optimizer_cycles);
        reg.inc("parallel.switches", self.switches.len() as u64);
        reg.inc(
            "parallel.switches_reverted",
            self.switches.iter().filter(|s| s.reverted).count() as u64,
        );
        reg.inc("parallel.cycles", self.total_cycles);
        reg.inc("parallel.llc_misses", self.counters.l3_misses);
        reg.inc("parallel.memory_accesses", self.counters.memory_accesses);
        reg.set_gauge("parallel.remote_access_pct", self.remote_access_pct);
        reg.set_gauge(
            "parallel.occupancy",
            if self.wall_cycles == 0 {
                0.0
            } else {
                self.total_cycles as f64 / (self.wall_cycles as f64 * self.workers as f64)
            },
        );
        reg.observe("parallel.wall_cycles", self.wall_cycles);
        for &c in &self.per_worker_cycles {
            reg.observe("parallel.worker_cycles", c);
        }
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
/// to, the in-epoch morsel count that makes a round due, and the epoch
/// average trials are judged against. Sockets optimize independently — a
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
    /// Cycles and tuples accumulated under the current epoch's order —
    /// their ratio is the accepted order's cycles-per-tuple, the
    /// reference a trial must not regress from. An *average* over the
    /// whole epoch (not the most recent morsel) so the reference does
    /// not depend on which worker happened to report last, nor on one
    /// core's momentary cache state.
    epoch_cycles: u64,
    epoch_tuples: u64,
    /// Whether an estimator round snapshot is being fitted outside the
    /// lock; excludes concurrent reopt rounds like a pending trial does.
    estimate_in_flight: bool,
    /// Effective LLC capacity (bytes) this socket's morsels run against
    /// — the smallest member share under contention, the full LLC
    /// otherwise. Every estimator fit prices its geometry with this
    /// capacity, so the proposals it produces reflect what a co-runner
    /// left the query.
    llc_share_bytes: u64,
    /// Observed cycles of the window snapshot an in-flight estimator fit
    /// was taken over, captured in [`CoordState::begin_reoptimize`]
    /// before the windows are zeroed — the drift observatory's observed
    /// side for the round's cycles-per-tuple residual. Valid while
    /// `estimate_in_flight`.
    fit_window_cycles: u64,
}

impl SocketCoord {
    fn new(published: Peo, llc_share_bytes: u64) -> Self {
        Self {
            policy: ReoptPolicy::new(published),
            epoch: 0,
            morsels_since_reopt: 0,
            epoch_cycles: 0,
            epoch_tuples: 0,
            estimate_in_flight: false,
            llc_share_bytes,
            fit_window_cycles: 0,
        }
    }

    /// The baseline of a trial scheduled now. Rounds only open after a
    /// full interval of in-epoch morsels, so the average is populated.
    fn epoch_cpt(&self) -> f64 {
        self.epoch_cycles as f64 / self.epoch_tuples.max(1) as f64
    }

    /// The order of the trial a worker of this socket is resolving.
    fn leased_trial(&self) -> &Peo {
        self.policy
            .trial_order()
            .expect("a leased trial to resolve")
    }
}

/// Per-query coordination state: the master target plus everything the
/// §4.4 loop tracks between morsels, sliced per socket. Methods are the
/// *locked steps* of the coordination protocol — the caller serializes
/// them behind its run's one mutex ([`Pooled`]: this state alone for a
/// dedicated pool, every admitted query's for the server) and runs the
/// expensive estimator fits between steps, outside the lock.
///
/// The master target holds a single evaluation order, so every locked
/// step that derives geometry, calibrates, or proposes for socket `s`
/// first re-establishes `s`'s published (or trial) order on the target;
/// cross-socket interleaving between locked steps can therefore never
/// leak one socket's order into another's fit. A `set_order` the target
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
    pub(crate) switches: Vec<SwitchEvent>,
    pub(crate) estimates: usize,
    /// Optimizer cycles charged per worker (to the core that ran the
    /// estimator round).
    pub(crate) optimizer_cycles: Vec<u64>,
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
            switches: Vec::new(),
            estimates: 0,
            optimizer_cycles: vec![0; workers],
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
    /// candidate runs on exactly this core, or tell the worker which
    /// published order to adopt. The caller applies the returned order
    /// to its shard *outside* this state's lock (the shard is
    /// worker-private).
    pub(crate) fn begin_morsel(&mut self, w: usize, local_epoch: u64) -> BoundaryAction {
        let s = self.socket_of[w];
        let sc = &mut self.sockets[s];
        // Ground the comparison in this core's own recent rate under the
        // incumbent order when it has one — consecutive morsels on one
        // core control for cache state, like the serial drive's
        // vector-to-vector comparison. The socket-wide epoch average
        // (snapshot at scheduling) remains the fallback for a cold core.
        let own_cpt = (self.windows[w].tuples > 0).then(|| self.windows[w].cycles_per_tuple());
        if let Some((order, baseline_cpt)) = sc.policy.lease_trial(own_cpt) {
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

    /// Locked step 1 of trial resolution for worker `w`: count the
    /// morsel and derive the trial-order geometry the sample must be
    /// fitted against — the master target moves to the trial order (it
    /// is re-established in [`CoordState::resolve_trial`] regardless).
    /// Returns the fit inputs for the estimate the caller runs outside
    /// the lock, or `None` when the target does not calibrate from
    /// trials.
    pub(crate) fn trial_fit_inputs(
        &mut self,
        w: usize,
        stats: &VectorStats,
        cpu_cfg: &CpuConfig,
    ) -> Result<Option<(PlanGeometry, SampledCounters)>, EngineError> {
        self.morsels_done += 1;
        let s = self.socket_of[w];
        if !self.target.wants_trial_calibration() {
            return Ok(None);
        }
        let sampled = stats.sampled_counters();
        self.target.set_order(self.sockets[s].leased_trial())?;
        let geom = self.geometry(s, sampled.n_input, cpu_cfg);
        Ok(Some((geom, sampled)))
    }

    /// Book a fit whose sample ran under the master target's current
    /// order, charging its cycles to worker `w`.
    fn book(&mut self, w: usize, fit: &Fit, observed_cpt: f64) -> u64 {
        let drift = self.obs.drift.as_deref().map(|d| (d, &self.stage_keys[..]));
        let spent = book_fit(
            self.target,
            fit,
            true,
            observed_cpt,
            drift,
            &mut self.estimates,
        );
        self.optimizer_cycles[w] += spent;
        spent
    }

    /// Locked step 2 of trial resolution: learn from the (externally
    /// computed) fit, then let the policy accept — which publishes a new
    /// epoch — or revert. Returns the published order and epoch after
    /// resolution so the resolving worker can resync its shard, and the
    /// optimizer cycles charged to `w`.
    pub(crate) fn resolve_trial(
        &mut self,
        w: usize,
        stats: &VectorStats,
        fit: Option<Fit>,
    ) -> Result<(Peo, u64, u64), EngineError> {
        let s = self.socket_of[w];
        let cpt = stats.cycles_per_tuple();
        let mut spent = 0;
        if let Some(fit) = fit {
            // Another socket's locked step may have moved the master
            // order since the fit inputs were derived; the trial morsel
            // is a one-morsel window under the trial order, and its fit
            // must be learnt from under that order.
            self.target.set_order(self.sockets[s].leased_trial())?;
            spent = self.book(w, &fit, cpt);
        }
        let sc = &mut self.sockets[s];
        let (trial, reverted) = sc
            .policy
            .resolve_trial(cpt, &mut self.switches)
            .expect("a leased trial to resolve");
        self.target.set_order(sc.policy.published())?;
        if reverted {
            self.obs.emit(Some(w), || TraceEvent::TrialRevert {
                socket: s,
                order: trial.order.clone(),
                baseline_cpt: trial.baseline_cpt,
                trial_cpt: cpt,
            });
        } else {
            sc.epoch += 1;
            sc.morsels_since_reopt = 0;
            sc.epoch_cycles = stats.counters.cycles;
            sc.epoch_tuples = stats.tuples;
            self.obs.emit(Some(w), || TraceEvent::TrialAccept {
                socket: s,
                order: trial.order.clone(),
                baseline_cpt: trial.baseline_cpt,
                trial_cpt: cpt,
                epoch: sc.epoch,
            });
            self.obs.emit(Some(w), || TraceEvent::OrderPublish {
                socket: s,
                order: trial.order.clone(),
                epoch: sc.epoch,
                warm_seed: false,
            });
            // The socket's windows and epoch reference sampled the
            // superseded order; the trial morsel is the new epoch's
            // first observation. Other sockets' windows are untouched.
            for (wi, window) in self.windows.iter_mut().enumerate() {
                if self.socket_of[wi] == s {
                    *window = VectorStats::zero();
                }
            }
        }
        let sc = &self.sockets[s];
        Ok((sc.policy.published().clone(), sc.epoch, spent))
    }

    /// Locked step for a morsel executed under the accepted order:
    /// accumulate it into worker `w`'s sample window and, when the
    /// interval is due (and `work_remains` — a trial scheduled after the
    /// last morsel was claimed could never run), start one
    /// reoptimization round. A returned snapshot means the caller must
    /// run the estimate outside the lock and feed it back through
    /// [`CoordState::finish_reoptimize`].
    pub(crate) fn note_normal(
        &mut self,
        w: usize,
        epoch: u64,
        stats: &VectorStats,
        reopt: Option<&ProgressiveConfig>,
        cpu_cfg: &CpuConfig,
        work_remains: bool,
    ) -> Result<Option<(PlanGeometry, SampledCounters)>, EngineError> {
        self.morsels_done += 1;
        let s = self.socket_of[w];
        if epoch != self.sockets[s].epoch {
            // Measured under a stale epoch: counts toward the result,
            // excluded from the sample window.
            return Ok(None);
        }
        self.windows[w].accumulate(stats);
        let sc = &mut self.sockets[s];
        sc.epoch_cycles += stats.counters.cycles;
        sc.epoch_tuples += stats.tuples;
        sc.morsels_since_reopt += 1;
        match reopt {
            Some(cfg)
                if sc.morsels_since_reopt >= cfg.reop_interval
                    && sc.policy.trial_order().is_none()
                    && !sc.estimate_in_flight
                    && work_remains =>
            {
                self.begin_reoptimize(s, cpu_cfg)
            }
            _ => Ok(None),
        }
    }

    /// Locked step closing a reoptimization round whose estimate ran
    /// outside the lock: learn from the fit, ask the target for its
    /// proposal and hand it to the policy. No trial can have been
    /// scheduled nor the epoch moved since [`CoordState::note_normal`]
    /// returned the snapshot — both only happen inside reopt rounds, and
    /// `estimate_in_flight` excluded those. Returns the optimizer cycles
    /// charged to `w`.
    pub(crate) fn finish_reoptimize(&mut self, w: usize, fit: &Fit) -> Result<u64, EngineError> {
        let s = self.socket_of[w];
        let sc = &mut self.sockets[s];
        sc.estimate_in_flight = false;
        // Another socket's locked step may have moved the master order
        // since the snapshot; re-establish this socket's published order
        // (which the geometry was built under, and which `s`'s pending
        // state guarantees is unchanged) before learning and proposing.
        self.target.set_order(sc.policy.published())?;
        let observed_cpt = if fit.sampled.n_input > 0 {
            sc.fit_window_cycles as f64 / fit.sampled.n_input as f64
        } else {
            0.0
        };
        let spent = self.book(w, fit, observed_cpt);
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
        let baseline_cpt = sc.epoch_cpt();
        sc.policy.consider(
            proposed,
            &mut self.switches,
            self.morsels_done,
            baseline_cpt,
        );
        Ok(spent)
    }

    /// Start a reoptimization round on socket `s`: the policy takes the
    /// cheap paths (stall exploration, measurement probe) itself;
    /// otherwise snapshot the fused windows of `s`'s workers for an
    /// estimator round the caller runs outside the lock — the solver
    /// fits *per-socket* counter windows, so each socket's estimate sees
    /// only counters generated under its own order and placement.
    fn begin_reoptimize(
        &mut self,
        s: usize,
        cpu_cfg: &CpuConfig,
    ) -> Result<Option<(PlanGeometry, SampledCounters)>, EngineError> {
        let sc = &mut self.sockets[s];
        sc.morsels_since_reopt = 0;
        let baseline_cpt = sc.epoch_cpt();
        if !sc.policy.open_round(
            self.target,
            &mut self.switches,
            self.morsels_done,
            baseline_cpt,
        ) {
            return Ok(None);
        }

        // Fuse this socket's per-worker windows into one socket-wide
        // sample — one estimator round serves the socket — and empty
        // them: the next interval accumulates fresh while the fit runs.
        // Their cycles are the observed side of the round's
        // cycles-per-tuple residual.
        let mut samples = Vec::new();
        sc.fit_window_cycles = 0;
        for (wi, window) in self.windows.iter_mut().enumerate() {
            if self.socket_of[wi] == s && window.tuples > 0 {
                samples.push(window.sampled_counters());
                sc.fit_window_cycles += window.counters.cycles;
                *window = VectorStats::zero();
            }
        }
        let Some(merged) = SampledCounters::merged(&samples) else {
            return Ok(None);
        };
        // The geometry must describe the order the windows sampled.
        self.target.set_order(sc.policy.published())?;
        sc.estimate_in_flight = true;
        Ok(Some((self.geometry(s, merged.n_input, cpu_cfg), merged)))
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

/// A pooled run's shared state: the drive's state behind the run's one
/// mutex, next to the first error any worker hit.
pub(crate) struct Pooled<S> {
    slot: Mutex<Slot<S>>,
}

/// What a [`Pooled`] run's mutex guards.
pub(crate) struct Slot<S> {
    /// The drive's state: one query's [`CoordState`] for a dedicated
    /// pool, every admitted query's for the server.
    pub(crate) state: S,
    error: Option<EngineError>,
}

impl<S> Pooled<S> {
    /// The run's one mutex. A poisoned lock means a sibling worker
    /// panicked mid-step; the state is not trusted past that.
    pub(crate) fn locked(&self) -> MutexGuard<'_, Slot<S>> {
        self.slot.lock().expect("pooled run lock")
    }

    /// A worker's boundary lock: `None` once a sibling failed, so the
    /// worker stops instead of starting another morsel.
    pub(crate) fn boundary(&self) -> Option<MutexGuard<'_, Slot<S>>> {
        let slot = self.locked();
        slot.error.is_none().then_some(slot)
    }
}

/// The worker scaffold of both pooled drives: run `work` on one thread
/// per pool core — worker `w` gets core `w` and `locals[w]` — over
/// `state` behind one mutex, and join in worker order. The first error a
/// worker returns is kept; its siblings see it at their next
/// [`Pooled::boundary`] and stop. Returns the state and the per-worker
/// results, or that error. A worker panic propagates to the caller.
pub(crate) fn run_workers<S, L, R>(
    pool: &mut CpuPool,
    state: S,
    locals: Vec<L>,
    work: impl Fn(usize, &mut SimCpu, L, &Pooled<S>) -> Result<R, EngineError> + Sync,
) -> Result<(S, Vec<R>), EngineError>
where
    S: Send,
    L: Send,
    R: Send,
{
    let shared = Pooled {
        slot: Mutex::new(Slot { state, error: None }),
    };
    let results: Vec<Option<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = pool
            .cores_mut()
            .iter_mut()
            .zip(locals)
            .enumerate()
            .map(|(w, (core, local))| {
                let (shared, work) = (&shared, &work);
                scope.spawn(move || {
                    work(w, core, local, shared)
                        .map_err(|err| {
                            shared.locked().error.get_or_insert(err);
                        })
                        .ok()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("pool worker panicked"))
            .collect()
    });
    let Slot { state, error } = shared.slot.into_inner().expect("no worker held the lock");
    match error {
        Some(err) => Err(err),
        None => Ok((state, results.into_iter().flatten().collect())),
    }
}

/// One pool worker: its slot, its socket, its private core, and its
/// simulated wall position — busy plus idle cycles since the run began,
/// plus the optimizer cycles its own estimator rounds were charged. The
/// position is a pure function of the simulation; trace stamps and
/// profiler lanes follow it, never host time.
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
    pub(crate) fn new(w: usize, socket: usize, core: &'c mut SimCpu) -> Self {
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
/// attribution — shards expose no order accessor, and the coordinator's
/// view can move between this worker's boundaries).
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
/// settings, the core model fits price with, and the observers the step
/// feeds (the profiler with the plan-indexed stage weights it
/// apportions by).
#[derive(Clone, Copy)]
pub(crate) struct RunCtx<'r> {
    pub(crate) reopt: Option<&'r ProgressiveConfig>,
    pub(crate) cpu_cfg: &'r CpuConfig,
    pub(crate) tracer: Option<&'r Tracer>,
    pub(crate) profile: Option<(&'r Profiler, &'r [f64])>,
}

/// The morsel step of both pooled drives: apply the boundary decision
/// `action` to the worker's shard, execute rows `start..end` on its core,
/// log the claim under `query`, and report the morsel to the query's
/// coordination state, which `coord` picks out of the drive's locked
/// state. Reporting is locked step (cheap bookkeeping), unlocked
/// estimate, locked step: the multi-start Nelder–Mead fit never runs
/// under the run's mutex, so one worker's optimizer round never stalls
/// the rest of the pool in host time. `work_remains` is read after the
/// morsel ran (a trial scheduled once the last morsel is claimed could
/// never run). Returns the morsel's stats; the optimizer cycles charged
/// to the worker advance its clock.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_morsel<'a, S, T: ShardableTarget + 'a>(
    shared: &Pooled<S>,
    coord: impl Fn(&mut S) -> &mut CoordState<'a, T>,
    worker: &mut Worker<'_>,
    ws: &mut WorkerShard<T::Shard>,
    action: BoundaryAction,
    (start, end): (usize, usize),
    query: usize,
    ctx: RunCtx<'_>,
    work_remains: impl Fn() -> bool,
) -> Result<VectorStats, EngineError> {
    let is_trial = match action {
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

    // The lane position an optimizer round this boundary runs at: the
    // morsel's end. Published before the report so the decision events
    // its locked steps emit (accept / revert / reopt) stamp there.
    let round_pos = worker.now();
    if let Some(tracer) = ctx.tracer {
        tracer.set_clock(w, round_pos);
        tracer.emit(w, query, || TraceEvent::MorselClaim {
            socket,
            start_row: start,
            rows: end - start,
            start_cycles: start_pos,
            cycles: stats.counters.cycles,
            trial: is_trial,
            epoch: ws.epoch,
        });
    }

    let opt = if is_trial {
        let fit_inputs =
            coord(&mut shared.locked().state).trial_fit_inputs(w, &stats, ctx.cpu_cfg)?;
        // The still-leased trial excludes reopt rounds and double-leasing
        // while the estimate runs and the pool keeps streaming.
        let fit = fit_inputs.map(|(geom, sampled)| Fit::run(geom, sampled));
        // Adopt whatever order the resolution left published (the trial
        // order if accepted, the incumbent if not).
        let (published, epoch, opt) =
            coord(&mut shared.locked().state).resolve_trial(w, &stats, fit)?;
        ws.rechain(published)?;
        ws.epoch = epoch;
        opt
    } else {
        let prepared = coord(&mut shared.locked().state).note_normal(
            w,
            ws.epoch,
            &stats,
            ctx.reopt,
            ctx.cpu_cfg,
            work_remains(),
        )?;
        match prepared {
            Some((geom, merged)) => {
                // `estimate_in_flight` keeps concurrent rounds exclusive
                // meanwhile.
                let fit = Fit::run(geom, merged);
                coord(&mut shared.locked().state).finish_reoptimize(w, &fit)?
            }
            None => 0,
        }
    };
    if let Some((prof, _)) = ctx.profile {
        prof.record_optimizer(w, socket, round_pos, opt);
    }
    worker.opt += opt;
    Ok(stats)
}

/// Execute a compiled program with morsel-driven parallelism, optionally
/// with shared progressive operator reordering. The program is left in
/// the final accepted order. The parallel generalization of
/// [`crate::progressive::run_baseline`] /
/// [`crate::progressive::run_progressive_program`].
pub fn run_parallel_program(
    program: &mut crate::exec::program::CompiledProgram<'_>,
    initial_order: &[usize],
    morsels: MorselConfig,
    pool: &mut CpuPool,
    reopt: Option<&ProgressiveConfig>,
) -> Result<ParallelReport, EngineError> {
    run_parallel_program_observed(
        program,
        initial_order,
        morsels,
        pool,
        reopt,
        &ExecObservers::none(),
    )
}

/// [`run_parallel_program`] with observers attached (see
/// [`ExecObservers`]); every observer is non-invasive — the report is
/// bit-identical to the unobserved run's.
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
    T: ShardableTarget + Send,
{
    if let Some(cfg) = reopt {
        cfg.validate()?;
    }
    let workers = pool.len();
    let sockets = pool.sockets();
    // Range affinity: each socket's workers claim from that socket's
    // contiguous morsel range (HyPer-style), via per-socket claim
    // counters that stay host-schedule-independent. One socket reduces
    // exactly to the flat round-robin interleave.
    let dispatcher =
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
        let shares = llc_shares.clone();
        tracer.emit(tracer.coordinator_lane(), *query, || {
            TraceEvent::LlcRepartition {
                scope: "batch",
                mode,
                shares,
            }
        });
    }

    // Every shard starts under the target's initial order.
    let initial_order = target.order();
    let mut shards = Vec::with_capacity(workers);
    for _ in 0..workers {
        shards.push(WorkerShard::new(target.shard()?, initial_order.clone()));
    }
    // The plan-indexed profiling weights (order-independent by
    // construction), read outside the lock.
    let plan_weights = target.stage_profile_weights();
    let ctx = RunCtx {
        reopt,
        cpu_cfg: &cpu_cfg,
        tracer: obs.trace.as_ref().map(|(tracer, _)| &**tracer),
        profile: obs.profiler.as_deref().map(|p| (p, &plan_weights[..])),
    };
    let query = obs.trace.as_ref().map_or(0, |(_, query)| *query);

    let worker_socket = socket_of.clone();
    let coord = CoordState::with_topology(target, socket_of, llc_shares, placement, obs.clone());
    // One worker: claim morsels, sync its order or lease a trial at the
    // boundary lock, run the morsel step. Per-worker totals merge after
    // the join in worker order, so the result assembly is deterministic
    // regardless of thread scheduling.
    let (mut coord, worker_totals) =
        run_workers(pool, coord, shards, |w, core, mut ws, shared| {
            let mut worker = Worker::new(w, worker_socket[w], core);
            let mut total = VectorStats::zero();
            while let Some(range) = dispatcher.next(w) {
                let action = match shared.boundary() {
                    Some(mut slot) => slot.state.begin_morsel(w, ws.epoch),
                    None => break,
                };
                let stats = run_morsel(
                    shared,
                    |c| c,
                    &mut worker,
                    &mut ws,
                    action,
                    range,
                    query,
                    ctx,
                    || !dispatcher.exhausted(),
                )?;
                total.accumulate(&stats);
            }
            Ok((total, worker.busy()))
        })?;
    coord.abandon_trials();

    let mut total = VectorStats::zero();
    for (stats, _) in &worker_totals {
        total.accumulate(stats);
    }
    let per_worker_cycles: Vec<u64> = worker_totals
        .iter()
        .zip(&coord.optimizer_cycles)
        .map(|((_, exec_cycles), opt_cycles)| exec_cycles + opt_cycles)
        .collect();
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
        let morsels = coord.morsels_done;
        tracer.emit_at(tracer.coordinator_lane(), *query, wall_cycles, || {
            TraceEvent::Complete {
                qualified: total.qualified,
                sum: total.sum,
                morsels,
                wall_cycles,
            }
        });
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
        optimizer_cycles: coord.optimizer_cycles.iter().sum(),
        final_order: socket_orders[0].clone(),
        socket_orders,
        remote_access_pct: pool.remote_access_pct(),
        counters: total.counters,
    })
}
