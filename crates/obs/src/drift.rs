//! Model-drift observatory: predicted-vs-observed residual tracking.
//!
//! The progressive loop's premise is that counter-model predictions are
//! good enough to steer runtime reordering — the estimator fits
//! predicted counters to observed PMU windows at every reopt round, and
//! until now the residual of that fit was thrown away. The observatory
//! keeps it: every round records, per *literal-free stage key* (the
//! front stage of the order the sample ran under) and per metric
//! (cycles-per-tuple, branch counters, L3 accesses), the predicted and
//! observed value, in a bounded window per series.
//!
//! Two error views are computed over each window:
//!
//! * **raw** relative error — `|obs − pred| / |obs|` — the face-value
//!   accuracy of the analytic model, including any constant bias from
//!   cost-parameter mismatch (the analytic [`CycleParams`] mirror the
//!   default timing, not the scaled hierarchies figures simulate);
//! * **calibrated** relative error — the same after dividing out the
//!   window's best constant scale `mean(obs)/mean(pred)` — the model's
//!   *shape* accuracy, which is what ranking decisions depend on (a
//!   constant factor cancels in every cost comparison).
//!
//! Sign bias (`(#over − #under) / n`) separates systematic over- from
//! under-prediction. Recording hangs outside the simulated-cost path —
//! the observatory burns zero simulated cycles and never perturbs the
//! run it observes (same contract as tracing).
//!
//! [`CycleParams`]: ../../popt_cost/cycles/struct.CycleParams.html

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard};

/// Samples kept per `(metric, stage key)` series; older samples fall
/// out so the statistics describe recent drift, not the whole history.
pub const DEFAULT_DRIFT_WINDOW: usize = 64;

/// Windowed error statistics of one `(metric, stage key)` series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftStats {
    /// Samples currently in the window.
    pub samples: usize,
    /// Mean of `|obs − pred| / |obs|` over the window.
    pub mean_rel_err: f64,
    /// Max of the same.
    pub max_rel_err: f64,
    /// `(#(pred > obs) − #(pred < obs)) / n` in `[-1, 1]`: +1 is pure
    /// over-prediction, −1 pure under-prediction.
    pub sign_bias: f64,
    /// The window's best constant correction `mean(obs) / mean(pred)`
    /// (1.0 when the predicted mean is degenerate).
    pub scale: f64,
    /// Mean relative error after applying `scale` to every prediction.
    pub calibrated_mean_rel_err: f64,
    /// Max relative error after applying `scale`.
    pub calibrated_max_rel_err: f64,
}

/// One series: the bounded `(predicted, observed)` window.
#[derive(Debug, Default)]
struct Series {
    samples: VecDeque<(f64, f64)>,
}

const EPS: f64 = 1e-9;

impl Series {
    fn stats(&self) -> DriftStats {
        let n = self.samples.len();
        let nf = n as f64;
        let mut sum_rel = 0.0;
        let mut max_rel = 0.0f64;
        let mut over = 0i64;
        let mut under = 0i64;
        let mut sum_pred = 0.0;
        let mut sum_obs = 0.0;
        for &(pred, obs) in &self.samples {
            let rel = (obs - pred).abs() / obs.abs().max(EPS);
            sum_rel += rel;
            max_rel = max_rel.max(rel);
            if pred > obs {
                over += 1;
            } else if pred < obs {
                under += 1;
            }
            sum_pred += pred;
            sum_obs += obs;
        }
        let scale = if sum_pred.abs() > EPS {
            sum_obs / sum_pred
        } else {
            1.0
        };
        let mut cal_sum = 0.0;
        let mut cal_max = 0.0f64;
        for &(pred, obs) in &self.samples {
            let rel = (obs - pred * scale).abs() / obs.abs().max(EPS);
            cal_sum += rel;
            cal_max = cal_max.max(rel);
        }
        DriftStats {
            samples: n,
            mean_rel_err: if n > 0 { sum_rel / nf } else { 0.0 },
            max_rel_err: max_rel,
            sign_bias: if n > 0 {
                (over - under) as f64 / nf
            } else {
                0.0
            },
            scale,
            calibrated_mean_rel_err: if n > 0 { cal_sum / nf } else { 0.0 },
            calibrated_max_rel_err: cal_max,
        }
    }
}

#[derive(Debug, Default)]
struct DriftInner {
    series: BTreeMap<(String, u64), Series>,
    total: u64,
}

/// Records predicted-vs-observed residuals per `(metric, stage key)`
/// series, entirely outside the simulated-cost path. Recording takes
/// `&self` behind an internal mutex (the same shape as a trace sink)
/// because a run holds the observatory as an `Arc` and callers may share
/// it across their own threads.
#[derive(Debug, Default)]
pub struct DriftObservatory {
    window: usize,
    inner: Mutex<DriftInner>,
}

impl DriftObservatory {
    fn lock(&self) -> MutexGuard<'_, DriftInner> {
        self.inner.lock().expect("drift lock")
    }

    /// An observatory with the [`DEFAULT_DRIFT_WINDOW`].
    pub fn new() -> Self {
        Self::with_window(DEFAULT_DRIFT_WINDOW)
    }

    /// An observatory keeping at most `window` samples per series.
    pub fn with_window(window: usize) -> Self {
        Self {
            window: window.max(1),
            inner: Mutex::new(DriftInner::default()),
        }
    }

    /// Record one residual sample. Non-finite values are dropped (a
    /// degenerate window must not poison the statistics).
    pub fn record(&self, metric: &str, stage_key: u64, predicted: f64, observed: f64) {
        if !predicted.is_finite() || !observed.is_finite() {
            return;
        }
        let mut inner = self.lock();
        inner.total += 1;
        let series = inner
            .series
            .entry((metric.to_string(), stage_key))
            .or_default();
        series.samples.push_back((predicted, observed));
        while series.samples.len() > self.window {
            series.samples.pop_front();
        }
    }

    /// Total samples ever recorded (including ones that fell out of
    /// their window).
    pub fn samples_recorded(&self) -> u64 {
        self.lock().total
    }

    /// Statistics of one series, if it has samples.
    pub fn stats(&self, metric: &str, stage_key: u64) -> Option<DriftStats> {
        let inner = self.lock();
        inner
            .series
            .get(&(metric.to_string(), stage_key))
            .map(Series::stats)
    }

    /// All series with their statistics, sorted by `(metric, key)`.
    pub fn series(&self) -> Vec<((String, u64), DriftStats)> {
        let inner = self.lock();
        inner
            .series
            .iter()
            .map(|(k, s)| (k.clone(), s.stats()))
            .collect()
    }

    /// The worst calibrated mean relative error across all stage keys of
    /// `metric` — the figure-gate summary ("after dividing out constant
    /// bias, how far off is the model's shape at worst?").
    pub fn worst_calibrated_mean(&self, metric: &str) -> Option<f64> {
        let inner = self.lock();
        inner
            .series
            .iter()
            .filter(|((m, _), _)| m == metric)
            .map(|(_, s)| s.stats().calibrated_mean_rel_err)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_have_zero_error_and_unit_scale() {
        let d = DriftObservatory::new();
        for i in 1..=10 {
            d.record("cpt", 7, i as f64, i as f64);
        }
        let s = d.stats("cpt", 7).unwrap();
        assert_eq!(s.samples, 10);
        assert_eq!(s.mean_rel_err, 0.0);
        assert_eq!(s.max_rel_err, 0.0);
        assert_eq!(s.sign_bias, 0.0);
        assert!((s.scale - 1.0).abs() < 1e-12);
        assert_eq!(s.calibrated_mean_rel_err, 0.0);
    }

    #[test]
    fn constant_overprediction_is_bias_the_calibration_removes() {
        let d = DriftObservatory::new();
        // Predictions are exactly 2x the observations: raw error 100%,
        // sign bias +1, but the *shape* is perfect — the window scale
        // 0.5 calibrates the error to zero.
        for obs in [10.0, 20.0, 40.0] {
            d.record("cpt", 1, 2.0 * obs, obs);
        }
        let s = d.stats("cpt", 1).unwrap();
        assert!((s.mean_rel_err - 1.0).abs() < 1e-12, "{s:?}");
        assert_eq!(s.sign_bias, 1.0);
        assert!((s.scale - 0.5).abs() < 1e-12);
        assert!(s.calibrated_mean_rel_err < 1e-12, "{s:?}");
        assert!(s.calibrated_max_rel_err < 1e-12);
    }

    #[test]
    fn mixed_errors_report_mean_max_and_signed_bias() {
        let d = DriftObservatory::new();
        d.record("l3", 2, 90.0, 100.0); // under by 10%
        d.record("l3", 2, 150.0, 100.0); // over by 50%
        d.record("l3", 2, 100.0, 100.0); // exact
        let s = d.stats("l3", 2).unwrap();
        assert!((s.mean_rel_err - 0.2).abs() < 1e-12, "{s:?}");
        assert!((s.max_rel_err - 0.5).abs() < 1e-12);
        assert_eq!(s.sign_bias, 0.0); // one over, one under, one exact
    }

    #[test]
    fn window_evicts_oldest_samples() {
        let d = DriftObservatory::with_window(2);
        d.record("cpt", 0, 1.0, 100.0); // would dominate the error
        d.record("cpt", 0, 5.0, 5.0);
        d.record("cpt", 0, 6.0, 6.0);
        let s = d.stats("cpt", 0).unwrap();
        assert_eq!(s.samples, 2);
        assert_eq!(s.mean_rel_err, 0.0, "the bad sample aged out");
        assert_eq!(d.samples_recorded(), 3, "the total still counts it");
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let d = DriftObservatory::new();
        d.record("cpt", 0, f64::NAN, 1.0);
        d.record("cpt", 0, 1.0, f64::INFINITY);
        assert_eq!(d.samples_recorded(), 0);
        assert!(d.stats("cpt", 0).is_none());
    }

    #[test]
    fn worst_calibrated_mean_scans_all_keys_of_a_metric() {
        let d = DriftObservatory::new();
        // Key 0: shape-perfect (constant 3x). Key 1: shape error.
        for obs in [1.0, 2.0, 4.0] {
            d.record("cpt", 0, 3.0 * obs, obs);
        }
        d.record("cpt", 1, 10.0, 10.0);
        d.record("cpt", 1, 30.0, 10.0);
        assert!(d.worst_calibrated_mean("other").is_none());
        let worst = d.worst_calibrated_mean("cpt").unwrap();
        let k1 = d.stats("cpt", 1).unwrap().calibrated_mean_rel_err;
        assert!((worst - k1).abs() < 1e-12, "worst {worst} vs key-1 {k1}");
        assert!(worst > 0.1);
    }
}
