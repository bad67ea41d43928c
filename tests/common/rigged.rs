//! A delegating progressive target with injected faults, for tests that
//! must force what the §4.4 policy never does on its own: a `set_order`
//! that fails mid-round, trials that always regress (but for one spared
//! order), a measurement probe asked for at every round, and a shard that
//! panics mid-run.

use popt::core::exec::scan::VectorStats;
use popt::core::{EngineError, Peo, ProgressiveTarget, ShardableTarget, TargetShard};
use popt::cost::estimate::PlanGeometry;
use popt::cpu::{CpuConfig, NumaPlacement, SimCpu};
use popt::solver::{CalibrationSnapshot, SampledCounters};

/// The error the `fail_at`-th `set_order` returns.
pub fn injected() -> EngineError {
    EngineError::UnsupportedExpr("injected set_order fault".into())
}

/// Delegates everything to `inner`, except that
///
/// * the `fail_at`-th `set_order` call (1-based) of the target itself
///   fails with [`injected`] (shards never fail), and
/// * every range run under an order other than the order `inner` started
///   in — by the target or by any of its shards — is charged extra
///   cycles, so every trial of another order regresses and is reverted,
///   exploratory ones included. Each such range is charged more per tuple
///   than the one before: the serial drive judges a trial scheduled right
///   after a revert against the reverted trial's own vector, which a flat
///   charge would let the second trial match. A spared order is never
///   charged, so its trial stands or falls on its own cost;
/// * `take_probe_order` offers the same probe order at every round;
/// * every shard panics at its `panic_at`-th range run (1-based).
pub struct Rigged<T> {
    inner: T,
    start: Peo,
    calls: usize,
    fail_at: usize,
    panic_at: usize,
    penalty: Penalty,
    probe: Option<Peo>,
}

/// The escalating charge of ranges run under a non-start order: the
/// `k`-th such range costs `k * per_tuple` extra cycles per tuple.
#[derive(Clone)]
struct Penalty {
    per_tuple: u64,
    charged: u64,
    spared: Option<Peo>,
}

impl Penalty {
    fn charge(&mut self, mut stats: VectorStats, order: &[usize], start: &[usize]) -> VectorStats {
        if order != start && self.spared.as_deref() != Some(order) {
            self.charged += 1;
            stats.counters.0.cycles += self.charged * self.per_tuple * stats.tuples;
        }
        stats
    }
}

impl<T: ProgressiveTarget> Rigged<T> {
    /// Transparent until `with_failing_set_order` /
    /// `with_panicking_shards_at` / `with_regressing_trials` /
    /// `with_probe_every_round`.
    pub fn new(inner: T) -> Self {
        Self {
            start: inner.order(),
            inner,
            calls: 0,
            fail_at: usize::MAX,
            panic_at: usize::MAX,
            penalty: Penalty {
                per_tuple: 0,
                charged: 0,
                spared: None,
            },
            probe: None,
        }
    }

    /// Fail the `k`-th `set_order` call (1-based).
    pub fn with_failing_set_order(mut self, k: usize) -> Self {
        self.fail_at = k;
        self
    }

    /// Make every shard panic at its `k`-th range run (1-based).
    pub fn with_panicking_shards_at(mut self, k: usize) -> Self {
        self.panic_at = k;
        self
    }

    /// Charge every range run under an order other than the start order
    /// 1000 extra cycles per tuple more than the one before.
    pub fn with_regressing_trials(mut self) -> Self {
        self.penalty.per_tuple = 1000;
        self
    }

    /// Never charge ranges run under `order` (see `with_regressing_trials`).
    pub fn sparing(mut self, order: &[usize]) -> Self {
        self.penalty.spared = Some(order.to_vec());
        self
    }

    /// Offer `order` as a measurement probe at every round.
    pub fn with_probe_every_round(mut self, order: &[usize]) -> Self {
        self.probe = Some(order.to_vec());
        self
    }
}

impl<T: ProgressiveTarget> ProgressiveTarget for Rigged<T> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn order(&self) -> Peo {
        self.inner.order()
    }
    fn set_order(&mut self, order: &[usize]) -> Result<(), EngineError> {
        self.calls += 1;
        if self.calls == self.fail_at {
            return Err(injected());
        }
        self.inner.set_order(order)
    }
    fn run_range(&mut self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        let stats = self.inner.run_range(cpu, start, end);
        self.penalty.charge(stats, &self.inner.order(), &self.start)
    }
    fn plan_geometry(&self, n_input: u64, cpu: &CpuConfig, llc_bytes: u64) -> PlanGeometry {
        self.inner.plan_geometry(n_input, cpu, llc_bytes)
    }
    fn plan_geometry_numa(
        &self,
        n_input: u64,
        cpu: &CpuConfig,
        llc_bytes: u64,
        placement: &NumaPlacement,
        socket: usize,
    ) -> PlanGeometry {
        self.inner
            .plan_geometry_numa(n_input, cpu, llc_bytes, placement, socket)
    }
    fn hot_set_bytes(&self) -> u64 {
        self.inner.hot_set_bytes()
    }
    fn propose_order(&self, geom: &PlanGeometry, selectivities: &[f64]) -> Peo {
        self.inner.propose_order(geom, selectivities)
    }
    fn calibrate(&mut self, geom: &PlanGeometry, sampled: &SampledCounters, survivors: &[f64]) {
        self.inner.calibrate(geom, sampled, survivors)
    }
    fn take_probe_order(&mut self) -> Option<Peo> {
        self.probe.clone().or_else(|| self.inner.take_probe_order())
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

/// A shard of a [`Rigged`] target: charges the same penalty (escalating
/// on its own), never fails, and panics at its `panic_at`-th range run.
pub struct RiggedShard<S> {
    inner: S,
    order: Peo,
    start: Peo,
    penalty: Penalty,
    runs: usize,
    panic_at: usize,
}

impl<S: TargetShard> TargetShard for RiggedShard<S> {
    fn set_order(&mut self, order: &[usize]) -> Result<(), EngineError> {
        self.inner.set_order(order)?;
        self.order = order.to_vec();
        Ok(())
    }
    fn run_range(&mut self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        self.runs += 1;
        assert!(self.runs != self.panic_at, "injected shard panic");
        let stats = self.inner.run_range(cpu, start, end);
        self.penalty.charge(stats, &self.order, &self.start)
    }
}

impl<T: ShardableTarget> ShardableTarget for Rigged<T> {
    type Shard = RiggedShard<T::Shard>;

    fn shard(&self) -> Result<Self::Shard, EngineError> {
        Ok(RiggedShard {
            inner: self.inner.shard()?,
            order: self.inner.order(),
            start: self.start.clone(),
            penalty: self.penalty.clone(),
            runs: 0,
            panic_at: self.panic_at,
        })
    }
}
