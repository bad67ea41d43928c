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
/// and the previous order is reinstated — and the share of a unit's
/// executed cycles its reverted trials may lose before an order they
/// reverted is tried again (the regret budget, `ReoptPolicy`).
pub const REGRESSION_TOLERANCE: f64 = 0.02;

/// Simulated cycles charged per estimator objective *call*: the
/// optimization time Section 5.7 discusses, paid by the query. A simplex
/// candidate that repeats a point the search holds reuses its value and
/// costs nothing.
pub const CYCLES_PER_ESTIMATOR_EVAL: u64 = 60;

/// Optimization rounds for which a rejected estimator proposal counts as
/// *active disagreement* — what the stall test reads — and for which a
/// reverted order is first suppressed. Correlated predicates (e.g. two
/// bounds on one column, Section 4.5) make the independence-based
/// reorder disagree with measured reality; without this memory the
/// optimizer would pay a failed trial vector at every interval.
pub const REJECTION_TTL: usize = 2;

/// Longest suppression, in rounds, of an order rejected again and again:
/// each repeat rejection since the last accept doubles the order's
/// suppression (`REJECTION_TTL`, then 2×, 4× … rounds) up to this cap, so
/// a converged run stops re-paying for a trial it keeps reverting.
pub const REJECTION_BACKOFF_CAP: usize = 16;

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
struct Trial {
    order: Peo,
    switch_idx: usize,
    /// Cycles-per-tuple the trial must not regress from, fixed when a
    /// runner leases it (see [`ReoptPolicy::lease_trial`]); `None` while
    /// no runner has.
    baseline_cpt: Option<f64>,
}

/// An order a trial reverted, and its back-off.
struct Rejection {
    order: Peo,
    /// Round of its latest rejection.
    at: usize,
    /// Rounds after `at` for which the estimator may not re-propose it.
    suppressed_for: usize,
}

/// The policy state of one independently optimizing unit — the whole
/// serial run, or one socket of a pool: the accepted order, the pending
/// trial, the rejection memory, the round counters the stall test reads,
/// and the regret budget. Switches are logged into the caller's per-query
/// switch list.
///
/// The regret budget: a trial that repeats an order reverted since the
/// last accept — an estimator re-proposal whose back-off expired, or the
/// stall exploration's rotated order — is scheduled only while the cycles
/// lost to reverted trials stay within `REGRESSION_TOLERANCE` of the
/// cycles the unit executed. A first-time order (a probe, a new proposal,
/// a new exploration) always runs.
pub(crate) struct ReoptPolicy {
    /// The accepted evaluation order.
    published: Peo,
    trial: Option<Trial>,
    /// Orders reverted since the last accept, each with its back-off.
    rejected: Vec<Rejection>,
    /// Round of the latest reverted *estimator* proposal: the
    /// disagreement the stall test reads.
    disagreed_at: Option<usize>,
    round: usize,
    /// Round of the most recent *accepted* switch (for stall detection).
    last_accept_round: usize,
    /// Cycles lost to reverted trials: over each, its trial cycles per
    /// tuple above its baseline's, times its tuples.
    lost: f64,
    /// Cycles of every vector or morsel the unit ran, trials included.
    executed: u64,
}

impl ReoptPolicy {
    pub(crate) fn new(published: Peo) -> Self {
        Self {
            published,
            trial: None,
            rejected: Vec::new(),
            disagreed_at: None,
            round: 0,
            last_accept_round: 0,
            lost: 0.0,
            executed: 0,
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

    /// Whether a trial is pending, leased or not.
    pub(crate) fn trial_pending(&self) -> bool {
        self.trial.is_some()
    }

    /// Count the cycles of one vector or morsel the unit ran, whatever it
    /// ran under: the regret budget's denominator.
    pub(crate) fn note_executed(&mut self, cycles: u64) {
        self.executed += cycles;
    }

    /// Hand the pending trial to exactly one runner, to be judged against
    /// `baseline_cpt`: the cycles per tuple of the last vector or morsel
    /// the runner's core ran under the accepted order (§4.4's "pre-switch
    /// vector"). Returns the trial's order once, `None` to everyone after.
    pub(crate) fn lease_trial(&mut self, baseline_cpt: f64) -> Option<&Peo> {
        let trial = self.trial.as_mut().filter(|t| t.baseline_cpt.is_none())?;
        trial.baseline_cpt = Some(baseline_cpt);
        Some(&trial.order)
    }

    /// Open a reoptimization round: take one of the cheap paths — stall
    /// exploration or a measurement probe, each scheduled as an
    /// exploratory trial — or return `true`: the round needs an estimator
    /// fit, closed by [`ReoptPolicy::consider`]. A stalled round whose
    /// exploration the regret budget refuses fits nothing either. `at`
    /// labels a scheduled switch.
    pub(crate) fn open_round<T: ProgressiveTarget>(
        &mut self,
        target: &mut T,
        switches: &mut Vec<SwitchEvent>,
        at: usize,
    ) -> bool {
        self.round += 1;
        let round = self.round;

        // Explore a rotated order when optimization has stalled
        // (Section 4.5: "periodically execute different PEOs"). The tail
        // stage is the one the sample says least about — it sees the
        // fewest tuples — so rotating it to the front gives it full
        // exposure and escapes local optima of the under-determined
        // estimation. "Stalled" requires both no recently accepted
        // switch AND an active disagreement: an estimator proposal
        // rejected within the last `REJECTION_TTL` rounds. A run that
        // keeps converging, or one where the estimator proposes nothing,
        // never pays for exploration; nor do reverted explorations keep
        // a stall going on their own. The window is fixed, not the
        // proposal's back-off: a long back-off would hold the run stalled
        // and exploring.
        let stalled = round >= self.last_accept_round + 3
            && self
                .disagreed_at
                .is_some_and(|rejected_at| round - rejected_at <= REJECTION_TTL);
        if stalled && round % 2 == 0 {
            let mut explored = self.published.clone();
            explored.rotate_right(1);
            if explored != self.published && !self.repeat_unaffordable(&explored) {
                self.schedule(explored, true, switches, at);
            }
            return false;
        }
        !self.probe(target, switches, at)
    }

    /// Schedule a measurement probe — an order the target wants to
    /// observe once (e.g. an unmeasured join moved to the front) — as an
    /// exploratory trial, under the same semantics as any other switch.
    /// Returns whether one was scheduled. A probe runs no fit, so it
    /// needs no sample: besides every round that neither explores nor
    /// fits, the pooled drive spends one between rounds (see
    /// [`crate::progressive`], "One policy, two drives").
    pub(crate) fn probe<T: ProgressiveTarget>(
        &mut self,
        target: &mut T,
        switches: &mut Vec<SwitchEvent>,
        at: usize,
    ) -> bool {
        match target.take_probe_order() {
            Some(probe) if probe != self.published => {
                self.schedule(probe, true, switches, at);
                true
            }
            _ => false,
        }
    }

    /// Close a fitted round with the target's proposal: drop it while a
    /// trial's rejection of that order still suppresses it (the
    /// correlation guard) or the regret budget cannot pay for repeating
    /// it, otherwise schedule it as a trial when it differs from the
    /// accepted order.
    pub(crate) fn consider(&mut self, proposed: Peo, switches: &mut Vec<SwitchEvent>, at: usize) {
        let round = self.round;
        if self
            .rejected
            .iter()
            .any(|r| r.order == proposed && round - r.at <= r.suppressed_for)
            || self.repeat_unaffordable(&proposed)
        {
            return;
        }
        if proposed != self.published {
            self.schedule(proposed, false, switches, at);
        }
    }

    /// Whether a trial of `order` repeats an order reverted since the last
    /// accept while the reverted trials have lost more than
    /// `REGRESSION_TOLERANCE` of the executed cycles.
    fn repeat_unaffordable(&self, order: &Peo) -> bool {
        self.lost > REGRESSION_TOLERANCE * self.executed as f64
            && self.rejected.iter().any(|r| &r.order == order)
    }

    fn schedule(
        &mut self,
        order: Peo,
        exploratory: bool,
        switches: &mut Vec<SwitchEvent>,
        at: usize,
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
            switch_idx: switches.len() - 1,
            baseline_cpt: None,
        });
    }

    /// The accept/revert verdict for the leased trial, which ran `tuples`
    /// at `trial_cpt` cycles per tuple: a regression past the tolerance
    /// over its lease's baseline keeps the accepted order, remembers the
    /// candidate as rejected and charges the cycles it lost to the regret
    /// budget; anything else publishes the candidate and forgets every
    /// back-off. Returns the trial's order, its baseline and whether it
    /// was reverted; `None` when no leased trial is pending.
    pub(crate) fn resolve_trial(
        &mut self,
        trial_cpt: f64,
        tuples: u64,
        switches: &mut [SwitchEvent],
    ) -> Option<(Peo, f64, bool)> {
        let baseline_cpt = self.trial.as_ref()?.baseline_cpt?;
        let trial = self.trial.take()?;
        let reverted = trial_cpt > baseline_cpt * (1.0 + REGRESSION_TOLERANCE);
        if reverted {
            self.lost += (trial_cpt - baseline_cpt) * tuples as f64;
            let switch = &mut switches[trial.switch_idx];
            switch.reverted = true;
            self.reject(&trial.order, switch.exploratory);
        } else {
            self.published.clone_from(&trial.order);
            self.last_accept_round = self.round;
            self.rejected.clear();
        }
        Some((trial.order, baseline_cpt, reverted))
    }

    /// Remember a reverted trial of `order`. The order is suppressed for
    /// `REJECTION_TTL` rounds, and for twice as long as last time (up to
    /// `REJECTION_BACKOFF_CAP`) when it is rejected again; a rejected
    /// *estimator* proposal also opens the disagreement window of the
    /// stall test. A reverted exploration never does.
    fn reject(&mut self, order: &Peo, exploratory: bool) {
        let at = self.round;
        match self.rejected.iter_mut().find(|r| &r.order == order) {
            Some(r) => {
                r.at = at;
                r.suppressed_for = (2 * r.suppressed_for).min(REJECTION_BACKOFF_CAP);
            }
            None => self.rejected.push(Rejection {
                order: order.clone(),
                at,
                suppressed_for: REJECTION_TTL,
            }),
        }
        if !exploratory {
            self.disagreed_at = Some(at);
        }
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
