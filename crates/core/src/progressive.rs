//! The progressive optimization loop (Section 4.4, Figure 10).
//!
//! Execution proceeds vector-at-a-time. After every *ReopInt* vectors the
//! optimizer:
//!
//! 1. takes the performance-counter sample of the most recent vector
//!    (non-invasive — the counters were running anyway);
//! 2. infers per-predicate selectivities with the multi-start Nelder–Mead
//!    estimator of Section 4.2/4.3;
//! 3. reorders the PEO ascending by estimated selectivity and, if that
//!    differs from the running order, switches ("a JIT-compiled system
//!    would compile a new binary; a vectorized system chains pre-compiled
//!    primitives in the new order");
//! 4. executes one **trial vector** under the new order and compares the
//!    counters against the pre-switch vector: improvements keep the new
//!    order, deteriorations reinstate the old one.
//!
//! Skew is caught by the periodic re-sampling itself; correlation is
//! additionally probed by occasional exploratory orders once optimization
//! stalls (Section 4.5) — no accepted switch for three rounds while an
//! estimator proposal was rejected within the last [`REJECTION_TTL`]
//! rounds (a reverted exploration never counts). A rejected order is not
//! re-proposed for [`REJECTION_TTL`] rounds, twice as long at each repeat
//! rejection up to [`REJECTION_BACKOFF_CAP`], and every such back-off is
//! forgotten when an order is accepted. A trial that would repeat an
//! order reverted since the last accept — a re-proposal whose back-off
//! expired, or the stall exploration's rotated order — also waits while
//! the cycles lost to reverted trials exceed [`REGRESSION_TOLERANCE`] of
//! the cycles executed (the regret budget); a first-time order always
//! runs. The loop's fixed parameters — the accept/revert slack, which is
//! also the budget's share, the rejection memory and the per-call
//! optimizer charge — are the constants [`REGRESSION_TOLERANCE`],
//! [`REJECTION_TTL`], [`REJECTION_BACKOFF_CAP`] and
//! [`CYCLES_PER_ESTIMATOR_EVAL`]; the reoptimization interval is the one
//! setting ([`ProgressiveConfig`]).
//!
//! ## One policy, two drives
//!
//! Every *decision* of that loop — the rejection back-off, the stall
//! test and its rotated exploratory order, spending a measurement probe,
//! skipping a still-suppressed proposal, the regret budget, scheduling a
//! trial, the accept/revert verdict, abandoning a trial at end of stream,
//! and what a fit is charged and teaches — is stated once, in the
//! crate-private `policy` module. Each drive reports the cycles of every
//! vector or morsel it runs to the policy once, as it reports them: the
//! budget's executed cycles (a pool's per socket, trial and stale-epoch
//! morsels included). This module holds the **serial drive**
//! ([`run_progressive_target_observed`]: one core, one vector at a time);
//! [`crate::parallel`] holds the **pooled drive** (N workers over
//! morsels, also what the query server runs per query). A drive owns
//! only what legitimately differs, which is exactly this:
//!
//! * **When a round is due.** Serial: after every `reop_interval`-th
//!   vector while another remains. Pooled: after `reop_interval` morsels
//!   ran *under the socket's current epoch* with no trial pending, while
//!   another morsel remains unclaimed. A pool has no single vector clock,
//!   and morsels run under a superseded order must not count. Once a
//!   socket has opened its first round, the pool also spends a
//!   measurement probe the target still wants at every in-epoch report
//!   with no trial pending: a probe runs no fit, so it needs no sample
//!   window, and on the benchmark's pooled star the earlier probes repay
//!   on every seed. The serial drive keeps probes to its rounds: spending
//!   one at every vector with no trial pending measured −1.7 / −1.4 /
//!   −1.1 / +1.0 % simulated cycles on the benchmark's serial star join
//!   (four seeds) — not a gain on every input.
//! * **What the sample is.** Serial: the vector that just ran. Pooled:
//!   the socket's per-worker windows since the last round, fused — so one
//!   fit per interval serves every core.
//! * **The trial baseline — one rule, measured by each drive.** Both hand
//!   the policy, at the lease, the cycles per tuple of the last vector or
//!   morsel the leasing core ran under the accepted order: §4.4's
//!   "pre-switch vector", same core, adjacent work. Serially that is the
//!   vector before the trial; in a pool only a worker that has run a
//!   morsel under its socket's current epoch may lease, and a worker's
//!   first morsel of the query — run on cold caches — never counts.
//! * **Fit reuse (serial only).** When a trial vector is also a round's
//!   vector, the round reuses the trial's fit — unless the trial was
//!   reverted, which leaves the sample describing an order no longer in
//!   effect: the round then refits without calibrating (the stale-sample
//!   guard). In a pool the trial morsel and the round's fused window are
//!   different samples; there is nothing to reuse.
//!
//! Epochs, leases and decision tracing exist only in the pooled drive,
//! which applies its steps in simulated-time order on one host thread. The *sequence of [`ProgressiveTarget`] calls* the serial drive
//! makes (each `run_range` followed by the `plan_geometry` of any fit on
//! it, one `set_order` per switch and per revert) is observable through
//! a delegating target, and the repo benchmark reads it.
//!
//! ## One target, the paper's split derived from the program
//!
//! Sections 5.5–5.6 generalize the approach from predicate orders to
//! *operator* orders — expensive selections versus foreign-key join
//! filters — and treat a join as one more filter of the short-circuit
//! loop. Every query therefore runs as one [`CompiledProgram`]: a
//! [`SelectionPlan`](crate::plan::SelectionPlan) lowers to a probe-free one
//! ([`CompiledProgram::from_selection`], which is what
//! [`crate::query::QueryBuilder`] runs), a logical plan to one that may
//! probe ([`run_progressive_program_observed`]). The drives reach it
//! through one target, [`CompiledTarget`], which reads the paper's split
//! off the program itself, not off the entry point that built it:
//!
//! * **no probe stage — the §4.4 scan.** Every stage streams its own
//!   column at a uniform charge, so the reorder rule is ascending
//!   estimated selectivity, and there is nothing to calibrate: no trial
//!   fits, no measurement probes, no calibration snapshot;
//! * **at least one probe stage — §5.5.** The reorder ranks stages by
//!   estimated **cost per input tuple** (an LLC-thrashing probe is not
//!   comparable to a register compare), and the target *calibrates* each
//!   probe's clustering from the sampled counters — the Equation-1
//!   comparison of Section 5.5, with trial vectors doubling as
//!   measurement probes for joins whose locality has never been observed.
//!
//! Policy and drives stay target-agnostic through [`ProgressiveTarget`],
//! which is also how a delegating target observes them.

use popt_cost::cycles::{stage_costs_per_input_tuple, CycleParams};
use popt_cost::estimate::{estimate_counters, PlanGeometry};
use popt_cpu::pmu::CounterDelta;
use popt_cpu::{CpuConfig, NumaPlacement, SimCpu};
use popt_solver::{CalibrationSnapshot, SampledCounters};

use crate::error::EngineError;
use crate::exec::program::CompiledProgram;
use crate::exec::scan::VectorStats;
use crate::observe::{morsel_stage_parts, ExecObservers};
use crate::plan::{order_by_cost_per_tuple, order_by_selectivity, Peo};
use crate::policy::{book_fit, Fit, ReoptPolicy};
pub use crate::policy::{
    CYCLES_PER_ESTIMATOR_EVAL, REGRESSION_TOLERANCE, REJECTION_BACKOFF_CAP, REJECTION_TTL,
};

/// Streaming footprint one scanned column claims in the last-level
/// cache, for [`ProgressiveTarget::hot_set_bytes`] declarations: streamed
/// lines are touched once and evicted, so only a small in-flight window
/// (a few dozen lines of read-ahead) ever competes for capacity — unlike
/// a probed dimension, which wants to stay resident in full.
pub const STREAM_HOT_BYTES_PER_COLUMN: u64 = 4 * 1024;

/// Extra profiling weight a join-probe stage carries on top of its
/// instruction charge, standing in for its per-tuple memory stalls (an
/// LLC-hit latency's worth — attribution weighting only, never a cost
/// the simulation charges).
pub(crate) const PROFILE_PROBE_WEIGHT: f64 = 30.0;

/// Configuration of the progressive optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveConfig {
    /// Vectors between optimization attempts (the paper evaluates 10, 75
    /// and 200; short intervals react fastest, Section 5.3–5.4).
    pub reop_interval: usize,
}

impl Default for ProgressiveConfig {
    fn default() -> Self {
        Self { reop_interval: 10 }
    }
}

impl ProgressiveConfig {
    /// Reject a configuration no drive can run: every drive given one
    /// calls this before it executes anything.
    pub(crate) fn validate(&self) -> Result<(), EngineError> {
        if self.reop_interval == 0 {
            return Err(EngineError::ZeroReopInterval);
        }
        Ok(())
    }
}

/// One PEO switch performed during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchEvent {
    /// Vector index at which the switch took effect.
    pub vector: usize,
    /// Order before the switch.
    pub from: Peo,
    /// Order after the switch.
    pub to: Peo,
    /// Whether the trial vector regressed and the switch was undone.
    pub reverted: bool,
    /// Whether this was an exploratory (correlation-probing) switch
    /// rather than an estimator-driven one.
    pub exploratory: bool,
}

/// Outcome of a full (baseline or progressive) query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveReport {
    /// Qualifying tuples.
    pub qualified: u64,
    /// Aggregate sum.
    pub sum: i64,
    /// Total simulated cycles, including optimizer time.
    pub cycles: u64,
    /// Total simulated milliseconds.
    pub millis: f64,
    /// Vectors executed.
    pub vectors: usize,
    /// PEO switches, in order.
    pub switches: Vec<SwitchEvent>,
    /// Estimator invocations.
    pub estimates: usize,
    /// Cycles attributed to the optimizer itself.
    pub optimizer_cycles: u64,
    /// The order in effect when execution finished.
    pub final_peo: Peo,
    /// Total counters across the run.
    pub counters: CounterDelta,
    /// Per-vector cycle counts (for convergence plots).
    pub per_vector_cycles: Vec<u64>,
}

/// Vectorization parameters of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorConfig {
    /// Tuples per vector.
    pub vector_tuples: usize,
    /// Cap on the number of vectors (`None` = scan the whole table; a
    /// cap of zero is rejected).
    pub max_vectors: Option<usize>,
}

impl VectorConfig {
    /// Validate and compute the vector ranges for a table of `rows`.
    pub fn ranges(&self, rows: usize) -> Result<Vec<(usize, usize)>, EngineError> {
        if self.vector_tuples == 0 {
            return Err(EngineError::InvalidVectorConfig("vector_tuples = 0".into()));
        }
        if self.max_vectors == Some(0) {
            return Err(EngineError::InvalidVectorConfig("max_vectors = 0".into()));
        }
        let mut out = Vec::new();
        let mut start = 0;
        while start < rows {
            let end = (start + self.vector_tuples).min(rows);
            out.push((start, end));
            start = end;
            if let Some(max) = self.max_vectors {
                if out.len() >= max {
                    break;
                }
            }
        }
        Ok(out)
    }
}

/// An executor the progressive loop can drive: it owns an order over its
/// stages, runs row ranges against the simulated CPU, and describes its
/// counter-model geometry to the selectivity estimator.
pub trait ProgressiveTarget {
    /// Rows available to scan.
    fn rows(&self) -> usize;

    /// The current evaluation order (plan/stage indices).
    fn order(&self) -> Peo;

    /// Switch to `order` — a JIT system would compile a new binary, a
    /// vectorized system re-chains its pre-compiled primitives.
    fn set_order(&mut self, order: &[usize]) -> Result<(), EngineError>;

    /// Execute rows `start..end` and return the range's measurements.
    fn run_range(&mut self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats;

    /// Counter-model geometry of the current order for `n_input` tuples.
    /// `llc_bytes` is the *effective* last-level capacity of the core(s)
    /// executing the target — the full configured LLC on a private
    /// socket, the contention-shrunken share when a shared-socket pool
    /// has partitioned capacity among co-runners — so counter
    /// predictions (and with them the reorder decisions fitted against
    /// them) price contended miss rates.
    fn plan_geometry(&self, n_input: u64, cpu: &CpuConfig, llc_bytes: u64) -> PlanGeometry;

    /// [`ProgressiveTarget::plan_geometry`] as seen from one socket of a
    /// NUMA pool: join-probe stages additionally price the fraction of
    /// their dimension homed on a *remote* socket under `placement`, so
    /// two sockets fitting the same counters can rank the same stages
    /// differently — per-socket order divergence. The default ignores
    /// the topology (correct for streaming targets, whose geometry has
    /// no probes to price).
    fn plan_geometry_numa(
        &self,
        n_input: u64,
        cpu: &CpuConfig,
        llc_bytes: u64,
        placement: &NumaPlacement,
        socket: usize,
    ) -> PlanGeometry {
        let _ = (placement, socket);
        self.plan_geometry(n_input, cpu, llc_bytes)
    }

    /// Bytes the target wants resident in the LLC while it runs — the
    /// hot-set footprint a shared-socket pool's capacity partition
    /// divides the LLC by. Streaming targets claim only the
    /// [`STREAM_HOT_BYTES_PER_COLUMN`] in-flight window per column;
    /// targets that re-reference data structures (probed dimensions)
    /// claim them in full.
    fn hot_set_bytes(&self) -> u64 {
        STREAM_HOT_BYTES_PER_COLUMN
    }

    /// Propose an evaluation order given per-stage selectivity estimates
    /// (in current evaluation order).
    fn propose_order(&self, geom: &PlanGeometry, selectivities: &[f64]) -> Peo;

    /// Update internal calibration (e.g. probe clustering) from a sampled
    /// vector and the survivor estimate fitted to it. `geom` is the
    /// geometry the estimate was fitted against, i.e. it describes the
    /// order that produced the sample.
    fn calibrate(&mut self, geom: &PlanGeometry, sampled: &SampledCounters, survivors: &[f64]) {
        let _ = (geom, sampled, survivors);
    }

    /// An exploratory order that would let the target measure something
    /// it cannot observe under the current order (consumed at most once
    /// per opportunity — implementations must not return the same probe
    /// forever). The loop runs it as a trial vector: accept/revert
    /// semantics still apply, and the trial's sample feeds
    /// [`ProgressiveTarget::calibrate`].
    fn take_probe_order(&mut self) -> Option<Peo> {
        None
    }

    /// Whether trial vectors should be estimated and fed to
    /// [`ProgressiveTarget::calibrate`] even outside reopt rounds. Costs
    /// one estimator run per trial; targets without runtime calibration
    /// leave this off.
    fn wants_trial_calibration(&self) -> bool {
        false
    }

    /// Export the target's runtime-learned calibration so a later
    /// execution of the same workload template can start from it (`None`
    /// for targets that learn nothing at runtime).
    fn calibration_snapshot(&self) -> Option<CalibrationSnapshot> {
        None
    }

    /// Seed the target's calibration from a prior run's snapshot. A
    /// snapshot whose shape does not match the target is ignored — a
    /// wrong warm start may cost performance, never correctness, so the
    /// restore path degrades to a cold start rather than erroring.
    fn restore_calibration(&mut self, snapshot: &CalibrationSnapshot) {
        let _ = snapshot;
    }

    /// Literal-free per-stage keys, *plan*-indexed, for drift
    /// attribution: structurally identical queries map to the same keys
    /// regardless of their literals, so residual series aggregate across
    /// a workload template. The default keys by plan index.
    fn stage_keys(&self) -> Vec<u64> {
        (0..self.order().len() as u64).collect()
    }

    /// Intrinsic per-evaluation profiling weight of each stage,
    /// *plan*-indexed: the relative cost of pushing one tuple through
    /// the stage, used by the cycle profiler to split a morsel's
    /// measured cycles across its stages. Only ratios matter. The
    /// default weighs stages uniformly.
    fn stage_profile_weights(&self) -> Vec<f64> {
        vec![1.0; self.order().len()]
    }
}

/// Runtime-learned probe locality of a [`CompiledTarget`]: one
/// clustering estimate per *plan* stage, which stages were ever
/// observed, and which already spent their measurement probe.
struct ProbeCalibration {
    /// Per plan-stage clustering estimate (1.0 = assume uniform random,
    /// the textbook-pessimistic prior; meaningless for selects).
    clustering: Vec<f64>,
    /// Whether the stage's clustering was ever calibrated from a sample.
    measured: Vec<bool>,
    /// Whether a measurement probe was already spent on the stage.
    probed: Vec<bool>,
}

impl ProbeCalibration {
    fn cold(stages: usize) -> Self {
        Self {
            clustering: vec![1.0; stages],
            measured: vec![false; stages],
            probed: vec![false; stages],
        }
    }

    fn clustering(&self) -> &[f64] {
        &self.clustering
    }

    /// Solve the front stage's clustering from a vector's L3 sample. Only
    /// the front probe is solved for: it sees every tuple of the vector,
    /// so its contribution dominates the L3 signal, while the later
    /// stages' (smaller) contributions are carried by their current
    /// estimates inside `geom`. The caller has checked that `front` is a
    /// join stage.
    fn calibrate_front(
        &mut self,
        front: usize,
        geom: &PlanGeometry,
        sampled: &SampledCounters,
        survivors: &[f64],
    ) {
        let predict_at = |clustering: f64| -> f64 {
            let mut g = geom.clone();
            if let Some(p) = g.probes[0].as_mut() {
                p.clustering = clustering;
            }
            estimate_counters(&g, survivors).l3_accesses
        };
        let lo = predict_at(0.0);
        let hi = predict_at(1.0);
        if hi - lo < 1.0 {
            // The probe produces no L3 signal (dimension resident above
            // the LLC) — nothing to learn, but the stage is observed.
            self.measured[front] = true;
            return;
        }
        let solved = ((sampled.l3_accesses as f64 - lo) / (hi - lo)).clamp(0.0, 1.0);
        let c = &mut self.clustering[front];
        // First observation replaces the prior; later ones smooth, so a
        // single skewed vector cannot flip a settled belief.
        *c = if self.measured[front] {
            0.5 * *c + 0.5 * solved
        } else {
            solved
        };
        self.measured[front] = true;
    }

    /// An order that moves the first never-observed, never-probed join to
    /// the front, spending its probe budget; `None` when nothing is left
    /// to learn (or the candidate already runs at the front).
    fn take_probe_order(
        &mut self,
        order: &[usize],
        is_join: impl Fn(usize) -> bool,
    ) -> Option<Peo> {
        for (pos, &j) in order.iter().enumerate() {
            if !is_join(j) || self.measured[j] || self.probed[j] {
                continue;
            }
            if pos == 0 {
                // Already at the front: the next calibration covers it.
                return None;
            }
            self.probed[j] = true;
            let mut probe = Vec::with_capacity(order.len());
            probe.push(j);
            probe.extend(order.iter().copied().filter(|&x| x != j));
            return Some(probe);
        }
        None
    }

    fn restore(&mut self, snapshot: &CalibrationSnapshot) {
        self.clustering = snapshot
            .clustering
            .iter()
            .map(|c| c.clamp(0.0, 1.0))
            .collect();
        self.measured = snapshot.measured.clone();
        // Measured stages need no measurement probe; unmeasured ones keep
        // their probe budget (`probed` stays false) so a template whose
        // earlier runs never observed a stage can still learn it.
    }
}

/// A [`CompiledProgram`] as a progressive target — the only one the
/// engine has. What it learns and how it ranks follow from the program
/// (module docs): a probe-free program is the §4.4 scan, ranked by
/// ascending selectivity with no calibration state at all; a program with
/// a probe stage ranks by estimated cost per input tuple and calibrates
/// each join stage's probe clustering from the counters whenever the
/// stage runs at the front of the program (the position where its signal
/// dominates the sample). Calibration snapshots are keyed to the
/// program's literal-free [`CompiledProgram::stage_keys`], so a cached
/// snapshot warm-starts any query of the same *structure* regardless of
/// its literals, and is ignored for a structurally different program even
/// when the stage count happens to match.
pub struct CompiledTarget<'p, 't> {
    program: &'p mut CompiledProgram<'t>,
    /// `None` for a probe-free program: nothing to learn at runtime.
    cal: Option<ProbeCalibration>,
}

impl<'p, 't> CompiledTarget<'p, 't> {
    /// Wrap `program`, with cold calibration state when it probes.
    pub fn new(program: &'p mut CompiledProgram<'t>) -> Self {
        let cal = program
            .has_joins()
            .then(|| ProbeCalibration::cold(program.len()));
        Self { program, cal }
    }

    /// The wrapped program (for sharding).
    pub(crate) fn program(&self) -> &CompiledProgram<'t> {
        self.program
    }

    /// Per plan-stage probe clustering (empty for a probe-free program).
    fn clustering(&self) -> &[f64] {
        self.cal.as_ref().map_or(&[], ProbeCalibration::clustering)
    }
}

impl ProgressiveTarget for CompiledTarget<'_, '_> {
    fn rows(&self) -> usize {
        self.program.rows()
    }

    fn order(&self) -> Peo {
        self.program.order().to_vec()
    }

    fn set_order(&mut self, order: &[usize]) -> Result<(), EngineError> {
        self.program.reorder(order)
    }

    fn run_range(&mut self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        self.program.run_range(cpu, start, end)
    }

    fn plan_geometry(&self, n_input: u64, cpu: &CpuConfig, llc_bytes: u64) -> PlanGeometry {
        self.program
            .plan_geometry(n_input, cpu, llc_bytes, self.clustering())
    }

    fn plan_geometry_numa(
        &self,
        n_input: u64,
        cpu: &CpuConfig,
        llc_bytes: u64,
        placement: &NumaPlacement,
        socket: usize,
    ) -> PlanGeometry {
        self.program.plan_geometry_numa(
            n_input,
            cpu,
            llc_bytes,
            self.clustering(),
            placement,
            socket,
        )
    }

    fn hot_set_bytes(&self) -> u64 {
        self.program.hot_set_bytes()
    }

    fn propose_order(&self, geom: &PlanGeometry, selectivities: &[f64]) -> Peo {
        if self.cal.is_none() {
            return order_by_selectivity(self.program.order(), selectivities);
        }
        let costs = stage_costs_per_input_tuple(
            geom,
            &self.program.stage_instructions(),
            selectivities,
            &CycleParams::default(),
        );
        order_by_cost_per_tuple(self.program.order(), &costs, selectivities)
    }

    fn calibrate(&mut self, geom: &PlanGeometry, sampled: &SampledCounters, survivors: &[f64]) {
        let front = self.program.order()[0];
        if let Some(cal) = self.cal.as_mut() {
            if self.program.stage(front).is_join() {
                cal.calibrate_front(front, geom, sampled, survivors);
            }
        }
    }

    fn take_probe_order(&mut self) -> Option<Peo> {
        let program = &*self.program;
        self.cal
            .as_mut()?
            .take_probe_order(program.order(), |j| program.stage(j).is_join())
    }

    fn wants_trial_calibration(&self) -> bool {
        self.cal.is_some()
    }

    fn calibration_snapshot(&self) -> Option<CalibrationSnapshot> {
        self.cal.as_ref().map(|cal| {
            CalibrationSnapshot::keyed(
                cal.clustering.clone(),
                cal.measured.clone(),
                self.program.stage_keys(),
            )
        })
    }

    fn restore_calibration(&mut self, snapshot: &CalibrationSnapshot) {
        if let Some(cal) = self.cal.as_mut() {
            if snapshot.matches_keys(&self.program.stage_keys()) {
                cal.restore(snapshot);
            }
        }
    }

    fn stage_keys(&self) -> Vec<u64> {
        self.program.stage_keys()
    }

    fn stage_profile_weights(&self) -> Vec<f64> {
        // `stage_instructions` is evaluation-ordered; map it back to plan
        // indices and surcharge join probes for their memory stalls.
        let order = self.program.order();
        let instr = self.program.stage_instructions();
        let mut weights = vec![1.0; order.len()];
        for (k, &j) in order.iter().enumerate() {
            let probe = if self.program.stage(j).is_join() {
                PROFILE_PROBE_WEIGHT
            } else {
                0.0
            };
            weights[j] = instr.get(k).copied().unwrap_or(1.0) + probe;
        }
        weights
    }
}

/// Execute a compiled program starting from `initial_order` with
/// progressive operator reordering enabled (Sections 5.5–5.6) — the
/// execution entry point the frontend's `plan → passes → compile` chain
/// feeds into: stages are reordered by estimated cost per input tuple,
/// with probe clustering calibrated from the sampled counters and
/// trial-vector accept/revert semantics shared with the scan path. Pass
/// [`ExecObservers::none`] for an unobserved run (see
/// [`run_progressive_target_observed`] for the observation contract).
///
/// The program is left in the final order the run converged to.
pub fn run_progressive_program_observed(
    program: &mut CompiledProgram<'_>,
    initial_order: &[usize],
    vectors: VectorConfig,
    cpu: &mut SimCpu,
    config: &ProgressiveConfig,
    obs: &ExecObservers,
) -> Result<ProgressiveReport, EngineError> {
    program.reorder(initial_order)?;
    let mut target = CompiledTarget::new(program);
    run_progressive_target_observed(&mut target, vectors, cpu, config, obs)
}

/// The serial drive of the §4.4 policy over any [`ProgressiveTarget`]:
/// one vector at a time on one core, a round after every
/// `reop_interval`-th vector, every trial resolved by the vector after
/// its switch (see the module docs for what the drive decides and what
/// the shared `ReoptPolicy` does).
///
/// Observers are non-invasive — the report is bit-identical with and
/// without them: the profiler receives every vector's cycles (attributed
/// across the stages of the order it ran under, worker 0 / socket 0,
/// zero idle) and every estimator charge; the drift observatory receives
/// every fit's predicted-vs-observed residuals.
pub fn run_progressive_target_observed<T: ProgressiveTarget>(
    target: &mut T,
    vectors: VectorConfig,
    cpu: &mut SimCpu,
    config: &ProgressiveConfig,
    obs: &ExecObservers,
) -> Result<ProgressiveReport, EngineError> {
    serial_drive(target, vectors, cpu, Some(config), obs)
}

/// The serial drive itself. With `reopt = None` no round is ever due, so
/// no trial is ever scheduled: the loop is one `run_range` per vector
/// under the start order — the paper's "common execution pattern"
/// baseline, which [`crate::query::QueryBuilder`] runs for
/// [`crate::query::RunMode::Baseline`].
pub(crate) fn serial_drive<T: ProgressiveTarget>(
    target: &mut T,
    vectors: VectorConfig,
    cpu: &mut SimCpu,
    reopt: Option<&ProgressiveConfig>,
    obs: &ExecObservers,
) -> Result<ProgressiveReport, EngineError> {
    if let Some(config) = reopt {
        config.validate()?;
    }
    let ranges = vectors.ranges(target.rows())?;
    let cpu_cfg = cpu.config().clone();
    // The capacity every fit prices against: this core's LLC slice (the
    // full socket unless a shared pool shrank it).
    let llc_bytes = cpu.llc_effective_bytes();

    let mut total = VectorStats::zero();
    let mut per_vector = Vec::with_capacity(ranges.len());
    let mut switches: Vec<SwitchEvent> = Vec::new();
    let mut estimates = 0usize;
    let mut optimizer_cycles = 0u64;
    let mut policy = ReoptPolicy::new(target.order());
    // Observation-only state: literal-free keys and profiling weights
    // (plan-indexed, order-independent), and the profiler's timeline
    // position (executed + optimizer cycles so far).
    let stage_keys = target.stage_keys();
    let plan_weights = target.stage_profile_weights();
    let drift = obs.drift.as_deref().map(|d| (d, &stage_keys[..]));
    let mut prof_pos = 0u64;

    for (v_idx, &(start, end)) in ranges.iter().enumerate() {
        let stats = target.run_range(cpu, start, end);
        policy.note_executed(stats.counters.cycles);
        if let Some(prof) = &obs.profiler {
            // `order()` still names the order this vector ran under —
            // switches happen below, after the measurements are taken.
            let parts = morsel_stage_parts(&target.order(), &plan_weights, &stats);
            prof.record_morsel(0, 0, prof_pos, &parts);
        }
        prof_pos += stats.counters.cycles;
        per_vector.push(stats.counters.cycles);
        // The sample of every fit below, and the baseline of a trial
        // leased below: the vector that just ran.
        let cpt = stats.cycles_per_tuple();
        let mut fit_vector = |target: &mut T, learn: bool| {
            let sampled = stats.sampled_counters();
            let geom = target.plan_geometry(sampled.n_input, &cpu_cfg, llc_bytes);
            let fit = Fit::run(geom, sampled);
            let spent = book_fit(target, &fit, learn, cpt, drift, &mut estimates);
            optimizer_cycles += spent;
            if let Some(prof) = &obs.profiler {
                prof.record_optimizer(0, 0, prof_pos, spent);
            }
            prof_pos += spent;
            fit
        };

        // Fit reuse and its stale-sample guard (module docs): a trial's
        // fit serves a coinciding round while the trial's order stands.
        let mut trial_fit = None;
        let mut sample_is_stale = false;
        if policy.trial_pending() {
            // Trial vectors double as measurement opportunities: fit the
            // sample *under the order that produced it* and let the
            // target calibrate, before any revert discards that order.
            if target.wants_trial_calibration() {
                trial_fit = Some(fit_vector(target, true));
            }
            if let Some((.., true)) = policy.resolve_trial(cpt, stats.tuples, &mut switches) {
                target.set_order(policy.published())?;
                trial_fit = None;
                sample_is_stale = true;
            }
        }

        total.accumulate(&stats);

        let at = v_idx + 1;
        let due = reopt.is_some_and(|config| at % config.reop_interval == 0);
        if !due || at == ranges.len() {
            continue;
        }
        if policy.open_round(target, &mut switches, at) {
            // After a revert the sample describes the trial order, the
            // geometry the reinstated one: a residual the model never
            // produced must not reach the calibration or the drift series.
            let fit = trial_fit.unwrap_or_else(|| fit_vector(target, !sample_is_stale));
            let proposed = target.propose_order(&fit.geom, &fit.estimate.selectivities);
            policy.consider(proposed, &mut switches, at);
        }
        if let Some(order) = policy.lease_trial(cpt) {
            target.set_order(order)?;
        }
    }
    policy.abandon_trial(&mut switches);

    if let Some(prof) = &obs.profiler {
        // One lane, no co-runners: wall == busy, idle == 0. `prof_pos`
        // accumulated exactly executed + optimizer cycles, so the
        // conservation law holds bit-exactly.
        prof.finish(&[prof_pos]);
    }

    let cycles = total.counters.cycles + optimizer_cycles;
    Ok(ProgressiveReport {
        qualified: total.qualified,
        sum: total.sum,
        cycles,
        millis: cycles as f64 / (cpu_cfg.timing.frequency_ghz * 1e6),
        vectors: ranges.len(),
        switches,
        estimates,
        optimizer_cycles,
        final_peo: target.order(),
        counters: total.counters,
        per_vector_cycles: per_vector,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SelectionPlan;
    use crate::predicate::{CompareOp, Predicate};
    use popt_cpu::CpuConfig;
    use popt_storage::{AddressSpace, ColumnData, Table};

    /// Table where predicate selectivities are very different: `lo` passes
    /// 5%, `mid` 50%, `hi` 95% — the optimal PEO is [lo, mid, hi].
    fn skewed_table(n: usize) -> Table {
        let mut space = AddressSpace::new();
        let mut t = Table::new("t");
        let pseudo = |i: usize, salt: u64| -> i32 {
            let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17) ^ salt;
            ((x >> 33) % 100) as i32
        };
        t.add_column(
            "lo",
            ColumnData::I32((0..n).map(|i| pseudo(i, 1)).collect()),
            &mut space,
        );
        t.add_column(
            "mid",
            ColumnData::I32((0..n).map(|i| pseudo(i, 2)).collect()),
            &mut space,
        );
        t.add_column(
            "hi",
            ColumnData::I32((0..n).map(|i| pseudo(i, 3)).collect()),
            &mut space,
        );
        t
    }

    fn skewed_plan() -> SelectionPlan {
        SelectionPlan::new(
            vec![
                Predicate::new("lo", CompareOp::Lt, 5),
                Predicate::new("mid", CompareOp::Lt, 50),
                Predicate::new("hi", CompareOp::Lt, 95),
            ],
            vec![],
        )
        .unwrap()
    }

    fn vectors() -> VectorConfig {
        VectorConfig {
            vector_tuples: 2048,
            max_vectors: None,
        }
    }

    /// `plan` lowered from `peo` and driven serially on a fresh `cpu`:
    /// static with `reopt = None`, progressive otherwise.
    fn run_selection(
        t: &Table,
        plan: &SelectionPlan,
        peo: &[usize],
        vectors: VectorConfig,
        cpu: CpuConfig,
        reopt: Option<&ProgressiveConfig>,
    ) -> Result<ProgressiveReport, EngineError> {
        let mut program = CompiledProgram::from_selection(t, plan, peo)?;
        let mut cpu = SimCpu::new(cpu);
        let mut target = CompiledTarget::new(&mut program);
        serial_drive(
            &mut target,
            vectors,
            &mut cpu,
            reopt,
            &ExecObservers::none(),
        )
    }

    #[test]
    fn baseline_and_progressive_agree_on_results() {
        let t = skewed_table(16_384);
        let plan = skewed_plan();
        let worst = vec![2usize, 1, 0];
        let base =
            run_selection(&t, &plan, &worst, vectors(), CpuConfig::ivy_bridge(), None).unwrap();
        let prog = run_selection(
            &t,
            &plan,
            &worst,
            vectors(),
            CpuConfig::ivy_bridge(),
            Some(&ProgressiveConfig { reop_interval: 2 }),
        )
        .unwrap();
        assert_eq!(base.qualified, prog.qualified);
        assert_eq!(base.sum, prog.sum);
    }

    #[test]
    fn progressive_converges_to_ascending_selectivity_order() {
        let t = skewed_table(16_384);
        let plan = skewed_plan();
        let worst = vec![2usize, 1, 0]; // hi, mid, lo: descending selectivity
        let prog = run_selection(
            &t,
            &plan,
            &worst,
            vectors(),
            CpuConfig::ivy_bridge(),
            Some(&ProgressiveConfig { reop_interval: 2 }),
        )
        .unwrap();
        assert_eq!(
            prog.final_peo,
            vec![0, 1, 2],
            "switches: {:?}",
            prog.switches
        );
        assert!(!prog.switches.is_empty());
        assert!(prog.estimates > 0);
    }

    #[test]
    fn progressive_beats_bad_baseline() {
        let t = skewed_table(16_384);
        let plan = skewed_plan();
        let worst = vec![2usize, 1, 0];
        let base =
            run_selection(&t, &plan, &worst, vectors(), CpuConfig::ivy_bridge(), None).unwrap();
        let prog = run_selection(
            &t,
            &plan,
            &worst,
            vectors(),
            CpuConfig::ivy_bridge(),
            Some(&ProgressiveConfig { reop_interval: 1 }),
        )
        .unwrap();
        assert!(
            prog.cycles < base.cycles,
            "progressive {} !< baseline {}",
            prog.cycles,
            base.cycles
        );
    }

    #[test]
    fn good_initial_order_is_left_alone() {
        let t = skewed_table(16_384);
        let plan = skewed_plan();
        let best = vec![0usize, 1, 2];
        let prog = run_selection(
            &t,
            &plan,
            &best,
            vectors(),
            CpuConfig::ivy_bridge(),
            Some(&ProgressiveConfig { reop_interval: 2 }),
        )
        .unwrap();
        // No net change of order; sporadic trial switches must revert.
        assert_eq!(prog.final_peo, best);
    }

    #[test]
    fn zero_reop_interval_is_rejected() {
        let t = skewed_table(1024);
        let plan = skewed_plan();
        let err = run_selection(
            &t,
            &plan,
            &[0, 1, 2],
            vectors(),
            CpuConfig::tiny_test(),
            Some(&ProgressiveConfig { reop_interval: 0 }),
        )
        .unwrap_err();
        assert_eq!(err, EngineError::ZeroReopInterval);
    }

    #[test]
    fn vector_ranges_cover_table_exactly() {
        let v = VectorConfig {
            vector_tuples: 1000,
            max_vectors: None,
        };
        let ranges = v.ranges(2500).unwrap();
        assert_eq!(ranges, vec![(0, 1000), (1000, 2000), (2000, 2500)]);
        let capped = VectorConfig {
            vector_tuples: 1000,
            max_vectors: Some(2),
        };
        assert_eq!(capped.ranges(2500).unwrap().len(), 2);
    }

    #[test]
    fn optimizer_cycles_are_accounted() {
        let t = skewed_table(8192);
        let plan = skewed_plan();
        let prog = run_selection(
            &t,
            &plan,
            &[2, 1, 0],
            vectors(),
            CpuConfig::ivy_bridge(),
            Some(&ProgressiveConfig { reop_interval: 1 }),
        )
        .unwrap();
        assert!(prog.optimizer_cycles > 0);
        assert_eq!(prog.cycles, prog.counters.cycles + prog.optimizer_cycles);
    }

    mod pipeline {
        use super::*;
        use crate::plan::{Expr, PlanBuilder};
        use popt_cpu::CacheLevelConfig;

        /// Small hierarchy (4/16/64 KiB) so a modest dimension table
        /// thrashes the LLC.
        fn small_cache_cpu() -> CpuConfig {
            let mut cfg = CpuConfig::xeon_e5_2630_v2();
            cfg.levels = vec![
                CacheLevelConfig {
                    capacity_bytes: 4 * 1024,
                    line_bytes: 64,
                    ways: 8,
                    hit_latency_cycles: 0,
                },
                CacheLevelConfig {
                    capacity_bytes: 16 * 1024,
                    line_bytes: 64,
                    ways: 8,
                    hit_latency_cycles: 10,
                },
                CacheLevelConfig {
                    capacity_bytes: 64 * 1024,
                    line_bytes: 64,
                    ways: 16,
                    hit_latency_cycles: 30,
                },
            ];
            cfg
        }

        /// Fact with a co-clustered and a pseudo-random FK over a
        /// dimension that exceeds the 64 KiB LLC, plus a value column.
        fn tables(n: usize) -> (Table, Table) {
            let dim_n = n / 4; // 4 B * n/4 = n bytes >> LLC for n = 128 Ki
            let mut space = AddressSpace::new();
            let mut fact = Table::new("fact");
            fact.add_column(
                "fk_seq",
                ColumnData::I32((0..n).map(|i| (i / 4) as i32).collect()),
                &mut space,
            );
            // A hashed (not merely strided) key stream: fixed strides
            // leave quasi-periodic locality the caches exploit.
            fact.add_column(
                "fk_rand",
                ColumnData::I32(
                    (0..n)
                        .map(|i| {
                            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                            (h % dim_n as u64) as i32
                        })
                        .collect(),
                ),
                &mut space,
            );
            fact.add_column(
                "val",
                ColumnData::I32((0..n).map(|i| (i % 100) as i32).collect()),
                &mut space,
            );
            let mut dim_space = AddressSpace::new();
            let mut dim = Table::new("dim");
            dim.add_column(
                "payload",
                ColumnData::I32((0..dim_n).map(|k| (k % 100) as i32).collect()),
                &mut dim_space,
            );
            (fact, dim)
        }

        fn pipeline_vectors() -> VectorConfig {
            VectorConfig {
                vector_tuples: 4096,
                max_vectors: None,
            }
        }

        fn config() -> ProgressiveConfig {
            ProgressiveConfig { reop_interval: 2 }
        }

        /// The shared shape: an expensive selection (`val < 50`, 50 extra
        /// instructions) then a join on `fk` probing `payload < 50`,
        /// optionally summing `val`. Plan order is construction order.
        fn build<'t>(
            fact: &'t Table,
            dim: &'t Table,
            fk: &str,
            aggregate: bool,
        ) -> CompiledProgram<'t> {
            let mut plan = PlanBuilder::scan(fact)
                .filter_costed(Expr::col("val").less_than(50), 50)
                .join(dim, fk, Expr::col("payload").less_than(50));
            if aggregate {
                plan = plan.aggregate("val");
            }
            plan.build().compile().unwrap()
        }

        /// Expensive selection + LLC-thrashing random join: the selection
        /// belongs in front. Start join-first and let the loop fix it.
        #[test]
        fn converges_to_selection_first_for_random_join() {
            let n = 1 << 17;
            let (fact, dim) = tables(n);
            let mut bad_static = build(&fact, &dim, "fk_rand", false);
            bad_static.reorder(&[1, 0]).unwrap();
            let mut static_cpu = SimCpu::new(small_cache_cpu());
            let bad = bad_static.run_range(&mut static_cpu, 0, n).counters.cycles;
            let mut program = build(&fact, &dim, "fk_rand", false);
            let mut cpu = SimCpu::new(small_cache_cpu());
            let prog = run_progressive_program_observed(
                &mut program,
                &[1, 0],
                pipeline_vectors(),
                &mut cpu,
                &config(),
                &ExecObservers::none(),
            )
            .unwrap();
            assert_eq!(prog.final_peo, vec![0, 1], "{:?}", prog.switches);
            assert!(
                prog.cycles < bad,
                "progressive {} !< static bad order {bad}",
                prog.cycles
            );
        }

        /// Cheap selection + co-clustered join: the join belongs in front
        /// (Figure 14's sorted side). Start selection-first.
        #[test]
        fn converges_to_join_first_for_coclustered_join() {
            let n = 1 << 17;
            let (fact, dim) = tables(n);
            let mut program = build(&fact, &dim, "fk_seq", false);
            let mut cpu = SimCpu::new(small_cache_cpu());
            let prog = run_progressive_program_observed(
                &mut program,
                &[0, 1],
                pipeline_vectors(),
                &mut cpu,
                &config(),
                &ExecObservers::none(),
            )
            .unwrap();
            assert_eq!(prog.final_peo, vec![1, 0], "{:?}", prog.switches);
        }

        /// Reordering mid-run must not change the query result, including
        /// the aggregate.
        #[test]
        fn progressive_pipeline_preserves_results() {
            let n = 1 << 16;
            let (fact, dim) = tables(n);
            let static_program = build(&fact, &dim, "fk_rand", true);
            let mut cpu1 = SimCpu::new(small_cache_cpu());
            let expect = static_program.run_range(&mut cpu1, 0, n);
            let mut program = build(&fact, &dim, "fk_rand", true);
            let mut cpu2 = SimCpu::new(small_cache_cpu());
            let prog = run_progressive_program_observed(
                &mut program,
                &[1, 0],
                pipeline_vectors(),
                &mut cpu2,
                &config(),
                &ExecObservers::none(),
            )
            .unwrap();
            assert_eq!(prog.qualified, expect.qualified);
            assert_eq!(prog.sum, expect.sum);
            assert!(prog.sum > 0);
        }

        /// A good initial operator order stays put.
        #[test]
        fn good_pipeline_order_is_left_alone() {
            let n = 1 << 16;
            let (fact, dim) = tables(n);
            let mut program = build(&fact, &dim, "fk_rand", false);
            let mut cpu = SimCpu::new(small_cache_cpu());
            let prog = run_progressive_program_observed(
                &mut program,
                &[0, 1],
                pipeline_vectors(),
                &mut cpu,
                &config(),
                &ExecObservers::none(),
            )
            .unwrap();
            assert_eq!(prog.final_peo, vec![0, 1], "{:?}", prog.switches);
        }

        /// A snapshot warm-starts only the stage *shapes* it was learned
        /// on: one without structural keys is ignored (cold start, no
        /// panic) even when its arity fits.
        #[test]
        fn unkeyed_snapshot_of_equal_arity_is_ignored() {
            let (fact, dim) = tables(1 << 10);
            let mut program = build(&fact, &dim, "fk_rand", false);
            let mut target = CompiledTarget::new(&mut program);
            let cold = target.calibration_snapshot().expect("programs calibrate");
            assert!(cold.is_cold());
            let mut unkeyed = CalibrationSnapshot::cold(2);
            unkeyed.clustering = vec![0.0, 0.0];
            unkeyed.measured = vec![true, true];
            target.restore_calibration(&unkeyed);
            assert_eq!(target.calibration_snapshot(), Some(cold));
            // The same beliefs keyed to this program's stages do restore.
            let keyed = CalibrationSnapshot::keyed(
                unkeyed.clustering,
                unkeyed.measured,
                target.stage_keys(),
            );
            target.restore_calibration(&keyed);
            assert_eq!(target.calibration_snapshot(), Some(keyed));
        }
    }

    #[test]
    fn converging_run_never_explores() {
        // Stall exploration needs a recently rejected estimator proposal
        // and no recent accept; a run that keeps converging has neither. (That a
        // stalled run does explore is pinned by the fault-injection
        // suite, whose rigged target makes every trial regress.)
        let t = skewed_table(16_384);
        let plan = skewed_plan();
        let converging = run_selection(
            &t,
            &plan,
            &[2, 1, 0],
            VectorConfig {
                vector_tuples: 512,
                max_vectors: None,
            },
            CpuConfig::ivy_bridge(),
            Some(&ProgressiveConfig { reop_interval: 1 }),
        )
        .unwrap();
        assert!(converging.switches.iter().all(|s| !s.exploratory));
    }
}
