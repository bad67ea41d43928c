//! The §4.4–4.5 reoptimization policy, stated once: every *decision* of
//! the progressive loop. A no-regression guarantee is a property of
//! *one* accept/revert rule, so the serial drive ([`crate::progressive`],
//! whose module docs say what a drive decides for itself) and the pooled
//! one ([`crate::parallel::coordinator`], also the server's) both call
//! this one. The policy never executes a row and never re-chains a
//! target: the drives apply the orders it names.

use popt_cost::estimate::PlanGeometry;
use popt_obs::DriftObservatory;
use popt_solver::{estimate_selectivities, EstimateResult, EstimatorConfig, SampledCounters};

use crate::observe::{front_stage_key, record_fit_drift};
use crate::plan::Peo;
use crate::progressive::{ProgressiveTarget, SwitchEvent};

/// Relative cycles-per-tuple slack before a trial counts as a regression
/// and the previous order is reinstated.
pub const REGRESSION_TOLERANCE: f64 = 0.02;

/// Simulated cycles charged per estimator objective evaluation: the
/// optimization time Section 5.7 discusses, paid by the query.
pub const CYCLES_PER_ESTIMATOR_EVAL: u64 = 60;

/// Optimization rounds for which a *reverted* order is remembered and
/// not re-proposed. Correlated predicates (e.g. two bounds on one
/// column, Section 4.5) make the independence-based reorder disagree
/// with measured reality; without this memory the optimizer would pay a
/// failed trial vector at every interval.
pub const REJECTION_TTL: usize = 2;

/// One estimator fit: the geometry and sample it was fitted against,
/// and what the estimator found.
pub(crate) struct Fit {
    pub(crate) geom: PlanGeometry,
    pub(crate) sampled: SampledCounters,
    pub(crate) estimate: EstimateResult,
}

impl Fit {
    /// Run the multi-start Nelder–Mead estimate — the expensive step of
    /// a round.
    pub(crate) fn run(geom: PlanGeometry, sampled: SampledCounters) -> Self {
        Self {
            estimate: estimate_selectivities(&geom, &sampled, &EstimatorConfig::default()),
            geom,
            sampled,
        }
    }
}

/// Account one fit: count it, and — when `learn` — score the model's
/// residuals into the drift observatory (keyed by the front stage of the
/// target's current order, which must be the order the sample ran under)
/// and let the target calibrate from it. Returns the optimizer cycles
/// the fit costs, for the drive to charge to whichever core ran it.
pub(crate) fn book_fit<T: ProgressiveTarget>(
    target: &mut T,
    fit: &Fit,
    learn: bool,
    observed_cpt: f64,
    drift: Option<(&DriftObservatory, &[u64])>,
    estimates: &mut usize,
) -> u64 {
    *estimates += 1;
    if learn {
        if let Some((drift, stage_keys)) = drift {
            record_fit_drift(
                drift,
                front_stage_key(stage_keys, &target.order()),
                &fit.geom,
                &fit.sampled,
                &fit.estimate.survivors,
                observed_cpt,
            );
        }
        target.calibrate(&fit.geom, &fit.sampled, &fit.estimate.survivors);
    }
    fit.estimate.evaluations as u64 * CYCLES_PER_ESTIMATOR_EVAL
}

/// A candidate order awaiting its one trial vector (or morsel).
pub(crate) struct Trial {
    pub(crate) order: Peo,
    /// Accepted-order cycles-per-tuple the trial must not regress from.
    pub(crate) baseline_cpt: f64,
    switch_idx: usize,
    /// Whether a runner has taken the trial (see
    /// [`ReoptPolicy::lease_trial`]).
    leased: bool,
}

/// The policy state of one independently optimizing unit — the whole
/// serial run, or one socket of a pool: the accepted order, the pending
/// trial, the rejection memory, and the round counters the stall test
/// reads. Switches are logged into the caller's per-query switch list.
pub(crate) struct ReoptPolicy {
    /// The accepted evaluation order.
    published: Peo,
    trial: Option<Trial>,
    /// Recently reverted orders: (order, round it was rejected at).
    rejected: Vec<(Peo, usize)>,
    round: usize,
    /// Round of the most recent *accepted* switch (for stall detection).
    last_accept_round: usize,
}

impl ReoptPolicy {
    pub(crate) fn new(published: Peo) -> Self {
        Self {
            published,
            trial: None,
            rejected: Vec::new(),
            round: 0,
            last_accept_round: 0,
        }
    }

    /// The accepted order.
    pub(crate) fn published(&self) -> &Peo {
        &self.published
    }

    /// Replace the accepted order before anything ran (a warm start).
    pub(crate) fn republish(&mut self, order: &[usize]) {
        self.published = order.to_vec();
    }

    /// Rounds opened so far.
    pub(crate) fn round(&self) -> usize {
        self.round
    }

    /// The order of the pending trial, if any.
    pub(crate) fn trial_order(&self) -> Option<&Peo> {
        self.trial.as_ref().map(|t| &t.order)
    }

    /// Hand the pending trial to exactly one runner: returns its order
    /// and baseline once, `None` to everyone after. `rebase` replaces
    /// the baseline with one the leasing drive trusts more.
    pub(crate) fn lease_trial(&mut self, rebase: Option<f64>) -> Option<(Peo, f64)> {
        let trial = self.trial.as_mut().filter(|t| !t.leased)?;
        trial.leased = true;
        if let Some(cpt) = rebase {
            trial.baseline_cpt = cpt;
        }
        Some((trial.order.clone(), trial.baseline_cpt))
    }

    /// Open a reoptimization round: age out rejections, then take one of
    /// the cheap paths — stall exploration or a measurement probe, each
    /// scheduled as an exploratory trial — or return `true`: the round
    /// needs an estimator fit, closed by [`ReoptPolicy::consider`].
    /// `at` labels a scheduled switch; `baseline_cpt` is what its trial
    /// will be judged against.
    pub(crate) fn open_round<T: ProgressiveTarget>(
        &mut self,
        target: &mut T,
        switches: &mut Vec<SwitchEvent>,
        at: usize,
        baseline_cpt: f64,
    ) -> bool {
        self.round += 1;
        let round = self.round;
        // Every round ages the memory — including rounds that end up
        // exploratory — so a stale revert cannot suppress a proposal for
        // longer than its TTL.
        self.rejected
            .retain(|(_, rejected_at)| round - rejected_at <= REJECTION_TTL);

        // Explore a rotated order when optimization has stalled
        // (Section 4.5: "periodically execute different PEOs"). The tail
        // stage is the one the sample says least about — it sees the
        // fewest tuples — so rotating it to the front gives it full
        // exposure and escapes local optima of the under-determined
        // estimation. "Stalled" requires both no recently accepted
        // switch AND an active disagreement (a recently rejected
        // proposal): a run that keeps converging, or one where the
        // estimator proposes nothing, never pays for exploration.
        let stalled = round >= self.last_accept_round + 3 && !self.rejected.is_empty();
        if stalled && round % 2 == 0 {
            let mut explored = self.published.clone();
            explored.rotate_right(1);
            if explored != self.published {
                self.schedule(explored, true, switches, at, baseline_cpt);
            }
            return false;
        }

        // Measurement probe: an order the target wants to observe once
        // (e.g. an unmeasured join moved to the front). Runs under the
        // same trial semantics as any other switch.
        if let Some(probe) = target.take_probe_order() {
            if probe != self.published {
                self.schedule(probe, true, switches, at, baseline_cpt);
                return false;
            }
        }
        true
    }

    /// Close a fitted round with the target's proposal: drop it if a
    /// recent trial already rejected that order (the correlation guard),
    /// otherwise schedule it as a trial when it differs from the
    /// accepted order.
    pub(crate) fn consider(
        &mut self,
        proposed: Peo,
        switches: &mut Vec<SwitchEvent>,
        at: usize,
        baseline_cpt: f64,
    ) {
        if self.rejected.iter().any(|(order, _)| order == &proposed) {
            return;
        }
        if proposed != self.published {
            self.schedule(proposed, false, switches, at, baseline_cpt);
        }
    }

    fn schedule(
        &mut self,
        order: Peo,
        exploratory: bool,
        switches: &mut Vec<SwitchEvent>,
        at: usize,
        baseline_cpt: f64,
    ) {
        switches.push(SwitchEvent {
            vector: at,
            from: self.published.clone(),
            to: order.clone(),
            reverted: false,
            exploratory,
        });
        self.trial = Some(Trial {
            order,
            baseline_cpt,
            switch_idx: switches.len() - 1,
            leased: false,
        });
    }

    /// The accept/revert verdict for the pending trial, which ran at
    /// `trial_cpt` cycles per tuple: a regression past the tolerance
    /// keeps the accepted order and remembers the candidate as rejected;
    /// anything else publishes the candidate. Returns the trial and
    /// whether it was reverted; `None` when no trial is pending.
    pub(crate) fn resolve_trial(
        &mut self,
        trial_cpt: f64,
        switches: &mut [SwitchEvent],
    ) -> Option<(Trial, bool)> {
        let trial = self.trial.take()?;
        let reverted = trial_cpt > trial.baseline_cpt * (1.0 + REGRESSION_TOLERANCE);
        if reverted {
            switches[trial.switch_idx].reverted = true;
            self.rejected.push((trial.order.clone(), self.round));
        } else {
            self.published.clone_from(&trial.order);
            self.last_accept_round = self.round;
        }
        Some((trial, reverted))
    }

    /// End of stream: a trial that never ran was never accepted either,
    /// so its switch is recorded as reverted. (Rounds are only opened
    /// while work remains and a taken trial resolves with the vector or
    /// morsel that ran it, so this only ever finds a trial no runner
    /// took.)
    pub(crate) fn abandon_trial(&mut self, switches: &mut [SwitchEvent]) {
        if let Some(trial) = self.trial.take() {
            switches[trial.switch_idx].reverted = true;
        }
    }
}
