//! Execution-attached observers: the bundle of non-invasive sinks a run
//! can carry (trace, per-stage cycle profiler, model-drift observatory).
//!
//! Every observer hangs *outside* the simulated-cost path: attaching any
//! combination burns zero simulated cycles and never perturbs the run it
//! observes. The profiler additionally obeys a conservation law — the
//! cycles it attributes to stage/optimizer/idle lanes sum bit-exactly to
//! the wall cycles the run reports (pinned by `tests/proptest_obs.rs`).
//!
//! [`ExecObservers`] is the carrier every `*_observed` entry point takes
//! ([`run_progressive_target_observed`], [`run_parallel_target_observed`]
//! and the `_program_observed` doors over them); an unobserved run passes
//! [`ExecObservers::none`].
//!
//! [`run_progressive_target_observed`]: crate::progressive::run_progressive_target_observed
//! [`run_parallel_target_observed`]: crate::parallel::run_parallel_target_observed

use std::sync::Arc;

use popt_cost::cycles::{plan_cycles, CycleParams};
use popt_cost::estimate::{estimate_counters, PlanGeometry};
use popt_obs::{apportion, DriftObservatory, Profiler, TraceEvent, Tracer};
use popt_solver::SampledCounters;

use crate::exec::scan::VectorStats;

/// The observers a run carries. All optional, all non-invasive; the
/// default carries none and is bit-identical to not observing at all.
#[derive(Clone, Default)]
pub struct ExecObservers {
    /// Decision/event tracing: the tracer plus the query id to stamp
    /// events with (serial runs ignore this field — the serial loop has
    /// no decision points distinct from its report).
    pub trace: Option<(Arc<Tracer>, usize)>,
    /// Per-stage cycle profiler (stage/optimizer/idle lanes).
    pub profiler: Option<Arc<Profiler>>,
    /// Model-drift observatory (predicted-vs-observed residuals).
    pub drift: Option<Arc<DriftObservatory>>,
}

impl ExecObservers {
    /// No observers — an unobserved run's carrier.
    pub fn none() -> Self {
        Self::default()
    }

    /// Attach a tracer stamping events with `query`.
    pub fn with_trace(mut self, tracer: Arc<Tracer>, query: usize) -> Self {
        self.trace = Some((tracer, query));
        self
    }

    /// Attach a per-stage cycle profiler.
    pub fn with_profiler(mut self, profiler: Arc<Profiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Attach a model-drift observatory.
    pub fn with_drift(mut self, drift: Arc<DriftObservatory>) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Emit one decision event when a tracer is attached: on `lane` (a
    /// worker's; `None` = the coordinator lane), tagged with the traced
    /// query. Without a tracer `event` is never built.
    pub(crate) fn emit(&self, lane: Option<usize>, event: impl FnOnce() -> TraceEvent) {
        if let Some((tracer, query)) = &self.trace {
            tracer.emit(
                lane.unwrap_or_else(|| tracer.coordinator_lane()),
                *query,
                event,
            );
        }
    }
}

/// Split one morsel's measured cycles across the stages of the order it
/// ran under, for profiler attribution.
///
/// The per-stage weight is the stage's intrinsic per-eval cost
/// (`plan_weights`, plan-indexed) times the fraction of the morsel's
/// tuples that *reach* the stage under the morsel's own geometric
/// per-stage pass rate `ŝ = (qualified / tuples)^(1/n)` — a morsel-local
/// estimate needing no optimizer state, so attribution is a pure function
/// of the morsel's measurements. [`apportion`] quantizes the weights so
/// the parts sum bit-exactly to the morsel's cycles.
pub(crate) fn morsel_stage_parts(
    order: &[usize],
    plan_weights: &[f64],
    stats: &VectorStats,
) -> Vec<(usize, u64)> {
    let n = order.len().max(1);
    let tuples = (stats.tuples.max(1)) as f64;
    let pass = (stats.qualified as f64 / tuples)
        .clamp(0.0, 1.0)
        .powf(1.0 / n as f64);
    let mut weights = Vec::with_capacity(order.len());
    let mut reaching = 1.0f64;
    for &j in order {
        weights.push(plan_weights.get(j).copied().unwrap_or(1.0).max(0.0) * reaching);
        reaching *= pass;
    }
    let parts = apportion(stats.counters.cycles, &weights);
    order.iter().copied().zip(parts).collect()
}

/// Record one reopt round's predicted-vs-observed residuals into the
/// drift observatory: the counter model's branch/L3 predictions at the
/// fitted survivors against the sampled window, and the analytic
/// cycles-per-tuple against the measured one. `stage_key` is the
/// literal-free key of the front stage of the order the sample ran under.
pub(crate) fn record_fit_drift(
    drift: &DriftObservatory,
    stage_key: u64,
    geom: &PlanGeometry,
    sampled: &SampledCounters,
    survivors: &[f64],
    observed_cpt: f64,
) {
    let est = estimate_counters(geom, survivors);
    drift.record("bnt", stage_key, est.bnt, sampled.bnt as f64);
    drift.record(
        "mp",
        stage_key,
        est.mp_taken + est.mp_not_taken,
        (sampled.mp_taken + sampled.mp_not_taken) as f64,
    );
    drift.record("l3", stage_key, est.l3_accesses, sampled.l3_accesses as f64);
    if sampled.n_input > 0 {
        // The analytic model prices with the default CycleParams — the
        // same constants `propose_order` ranks with — so the raw residual
        // carries any constant bias vs the simulated timing; the
        // observatory's calibrated view divides it out.
        let pred_cpt =
            plan_cycles(geom, survivors, &CycleParams::default()) / sampled.n_input as f64;
        drift.record("cpt", stage_key, pred_cpt, observed_cpt);
    }
}

/// The literal-free key of the front stage of `order`, falling back to
/// the plan index when the target publishes no keys.
pub(crate) fn front_stage_key(stage_keys: &[u64], order: &[usize]) -> u64 {
    let front = order.first().copied().unwrap_or(0);
    stage_keys.get(front).copied().unwrap_or(front as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_cpu::pmu::{CounterDelta, Counters};

    fn stats(tuples: u64, qualified: u64, cycles: u64) -> VectorStats {
        VectorStats {
            tuples,
            qualified,
            sum: 0,
            counters: CounterDelta(Counters {
                cycles,
                ..Default::default()
            }),
        }
    }

    #[test]
    fn morsel_parts_conserve_and_weight_by_reach() {
        let parts = morsel_stage_parts(&[2, 0, 1], &[1.0, 1.0, 1.0], &stats(1000, 10, 9999));
        assert_eq!(parts.iter().map(|&(_, c)| c).sum::<u64>(), 9999);
        assert_eq!(
            parts.iter().map(|&(j, _)| j).collect::<Vec<_>>(),
            vec![2, 0, 1]
        );
        // Equal intrinsic weights + low pass rate: front stage sees every
        // tuple, later stages see geometrically fewer.
        assert!(parts[0].1 > parts[1].1);
        assert!(parts[1].1 > parts[2].1);
    }

    #[test]
    fn morsel_parts_handle_degenerate_shapes() {
        // Empty order: nothing to attribute.
        assert!(morsel_stage_parts(&[], &[], &stats(0, 0, 100)).is_empty());
        // Missing weights fall back to uniform reach-weighting.
        let parts = morsel_stage_parts(&[0, 1], &[], &stats(100, 100, 7));
        assert_eq!(parts.iter().map(|&(_, c)| c).sum::<u64>(), 7);
    }

    #[test]
    fn front_key_prefers_published_keys() {
        assert_eq!(front_stage_key(&[10, 20, 30], &[1, 0, 2]), 20);
        assert_eq!(front_stage_key(&[], &[1, 0, 2]), 1);
        assert_eq!(front_stage_key(&[], &[]), 0);
    }
}
