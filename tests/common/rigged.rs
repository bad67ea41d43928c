//! A delegating progressive target with injected faults, for tests that
//! must force what the §4.4 policy never does on its own: a `set_order`
//! that fails mid-round, trials that always regress (but for one spared
//! order) — by far or by a set share — a measurement probe asked for at
//! every round, a shard that panics mid-run, and shards whose first range
//! runs cold.

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
/// * with `with_regressing_trials` or `with_trials_slower_by`, every
///   range run under an order other than the order `inner` started in —
///   by the target or by any of its shards — costs more per tuple than
///   the last range run (by the target or that shard) under an uncharged
///   order: 1000 cycles more, or a set share more. That range is what a
///   trial is judged against, so every trial of another order regresses
///   by that much and is reverted, exploratory ones included. A spared
///   order is never charged, so its trial stands or falls on its own
///   cost;
/// * `take_probe_order` offers the given probe orders in turn, one each
///   time the policy asks;
/// * every shard panics at its `panic_at`-th range run (1-based);
/// * every shard's first range run is charged [`COLD_CHARGE`] extra
///   cycles per tuple, like a core whose caches start empty.
pub struct Rigged<T> {
    inner: T,
    start: Peo,
    calls: usize,
    fail_at: usize,
    panic_at: usize,
    penalty: Penalty,
    probes: Vec<Peo>,
    probes_taken: usize,
    cold_shards: bool,
}

/// Extra cycles per tuple a cold shard's first range run is charged.
pub const COLD_CHARGE: u64 = 1000;

/// The charge of ranges run under a charged order (neither the start
/// order nor the spared one).
#[derive(Clone)]
struct Penalty {
    /// `(share, per_tuple)`: a charged range costs `base × (1 + share) +
    /// per_tuple` cycles per tuple; `None` charges nothing.
    slower: Option<(f64, f64)>,
    /// `base`: cycles per tuple of the last range run under an uncharged
    /// order.
    base_cpt: f64,
    spared: Option<Peo>,
}

impl Penalty {
    fn charge(&mut self, mut stats: VectorStats, order: &[usize], start: &[usize]) -> VectorStats {
        let Some((share, per_tuple)) = self.slower else {
            return stats;
        };
        if order == start || self.spared.as_deref() == Some(order) {
            self.base_cpt = stats.cycles_per_tuple();
        } else {
            let cpt = self.base_cpt * (1.0 + share) + per_tuple;
            stats.counters.0.cycles = (cpt * stats.tuples as f64).ceil() as u64;
        }
        stats
    }
}

impl<T: ProgressiveTarget> Rigged<T> {
    /// Transparent until `with_failing_set_order` /
    /// `with_panicking_shards_at` / `with_regressing_trials` /
    /// `with_trials_slower_by` / `with_probes` / `with_cold_shards`.
    pub fn new(inner: T) -> Self {
        Self {
            start: inner.order(),
            inner,
            calls: 0,
            fail_at: usize::MAX,
            panic_at: usize::MAX,
            penalty: Penalty {
                slower: None,
                base_cpt: 0.0,
                spared: None,
            },
            probes: Vec::new(),
            probes_taken: 0,
            cold_shards: false,
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
    /// 1000 cycles per tuple more than the last range run under an
    /// uncharged order.
    pub fn with_regressing_trials(mut self) -> Self {
        self.penalty.slower = Some((0.0, 1000.0));
        self
    }

    /// Charge every range run under an order other than the start order
    /// `1 + share` times the cycles per tuple of the last range run under
    /// an uncharged order.
    pub fn with_trials_slower_by(mut self, share: f64) -> Self {
        self.penalty.slower = Some((share, 0.0));
        self
    }

    /// Never charge ranges run under `order` (see `with_regressing_trials`).
    pub fn sparing(mut self, order: &[usize]) -> Self {
        self.penalty.spared = Some(order.to_vec());
        self
    }

    /// Offer `orders` as measurement probes, in turn and over again, one
    /// each time the policy asks for one (at every round, and between
    /// rounds once the first opened).
    pub fn with_probes(mut self, orders: &[&[usize]]) -> Self {
        self.probes = orders.iter().map(|order| order.to_vec()).collect();
        self
    }

    /// Charge every shard's first range run [`COLD_CHARGE`] extra cycles
    /// per tuple.
    pub fn with_cold_shards(mut self) -> Self {
        self.cold_shards = true;
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
        if self.probes.is_empty() {
            return self.inner.take_probe_order();
        }
        self.probes_taken += 1;
        Some(self.probes[(self.probes_taken - 1) % self.probes.len()].clone())
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

/// A shard of a [`Rigged`] target: charges the same penalty (against
/// its own uncharged ranges), never fails, panics at its `panic_at`-th range run, and
/// runs its first range cold when `cold`.
pub struct RiggedShard<S> {
    inner: S,
    order: Peo,
    start: Peo,
    penalty: Penalty,
    runs: usize,
    panic_at: usize,
    cold: bool,
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
        let mut stats = self.inner.run_range(cpu, start, end);
        if self.cold && self.runs == 1 {
            stats.counters.0.cycles += COLD_CHARGE * stats.tuples;
        }
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
            cold: self.cold_shards,
        })
    }
}
