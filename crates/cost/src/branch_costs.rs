//! Branch counter estimates for a whole predicate evaluation order.
//!
//! Section 3.2: "For a multi-selection query, we extend our branch
//! estimations to model each predicate p1…pn. Therefore, we replace the
//! number of input tuples by the number of output tuples of the previous
//! predicate." The short-circuit code of Section 2.1 also contributes one
//! always-taken loop branch per tuple, which is what makes `qualifying =
//! 2·n − bT` hold.

use crate::markov::ChainSpec;

/// Branch counter estimate for one predicate position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredicateBranchEstimate {
    /// Tuples reaching this predicate.
    pub input: f64,
    /// Selectivity of this predicate.
    pub selectivity: f64,
    /// Branches not taken (tuples qualifying here).
    pub bnt: f64,
    /// Branches taken (tuples failing here).
    pub bt: f64,
    /// Mispredicted taken branches.
    pub mp_taken: f64,
    /// Mispredicted not-taken branches.
    pub mp_not_taken: f64,
}

/// Branch counter estimate for an entire PEO.
#[derive(Debug, Clone, PartialEq)]
pub struct PeoBranchEstimate {
    /// Per-predicate breakdown, in evaluation order.
    pub predicates: Vec<PredicateBranchEstimate>,
    /// Total branches not taken across predicates.
    pub bnt: f64,
    /// Total branches taken (including the loop back-edge if modelled).
    pub bt: f64,
    /// Total mispredicted taken branches.
    pub mp_taken: f64,
    /// Total mispredicted not-taken branches.
    pub mp_not_taken: f64,
}

impl PeoBranchEstimate {
    /// Total mispredictions.
    pub fn mp_total(&self) -> f64 {
        self.mp_taken + self.mp_not_taken
    }
}

/// The PEO-wide sums of a [`PeoBranchEstimate`], without the
/// per-predicate breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchTotals {
    /// Total branches not taken across predicates.
    pub bnt: f64,
    /// Total branches taken (including the loop back-edge if modelled).
    pub bt: f64,
    /// Total mispredicted taken branches.
    pub mp_taken: f64,
    /// Total mispredicted not-taken branches.
    pub mp_not_taken: f64,
}

/// Estimate branch counters for `n` input tuples filtered by predicates
/// with the given selectivities (in evaluation order), using `chain` as
/// the predictor model.
///
/// `include_loop_branch` adds the per-tuple always-taken back-edge of the
/// scan loop (predicted perfectly at stationarity), matching what the PMU
/// measures on the generated code of Section 2.1.
pub fn estimate_peo_branches(
    n: u64,
    selectivities: &[f64],
    chain: &ChainSpec,
    include_loop_branch: bool,
) -> PeoBranchEstimate {
    let mut predicates = Vec::with_capacity(selectivities.len());
    let totals = accumulate(
        n,
        selectivities.iter().copied(),
        chain,
        include_loop_branch,
        |est| predicates.push(est),
    );
    PeoBranchEstimate {
        predicates,
        bnt: totals.bnt,
        bt: totals.bt,
        mp_taken: totals.mp_taken,
        mp_not_taken: totals.mp_not_taken,
    }
}

/// The totals of [`estimate_peo_branches`] — the same floating-point
/// operations in the same order — without touching the heap: the form
/// the estimator's objective evaluates hundreds of times per fit.
pub fn peo_branch_totals(
    n: u64,
    selectivities: impl IntoIterator<Item = f64>,
    chain: &ChainSpec,
    include_loop_branch: bool,
) -> BranchTotals {
    accumulate(n, selectivities, chain, include_loop_branch, |_| {})
}

fn accumulate(
    n: u64,
    selectivities: impl IntoIterator<Item = f64>,
    chain: &ChainSpec,
    include_loop_branch: bool,
    mut each: impl FnMut(PredicateBranchEstimate),
) -> BranchTotals {
    let mut input = n as f64;
    let mut totals = BranchTotals {
        bnt: 0.0,
        bt: 0.0,
        mp_taken: 0.0,
        mp_not_taken: 0.0,
    };
    for p in selectivities {
        assert!((0.0..=1.0).contains(&p), "selectivity out of range: {p}");
        let probs = chain.probabilities(p);
        let est = PredicateBranchEstimate {
            input,
            selectivity: p,
            bnt: input * p,
            bt: input * (1.0 - p),
            mp_taken: input * probs.mp_taken,
            mp_not_taken: input * probs.mp_not_taken,
        };
        totals.bnt += est.bnt;
        totals.bt += est.bt;
        totals.mp_taken += est.mp_taken;
        totals.mp_not_taken += est.mp_not_taken;
        input *= p;
        each(est);
    }
    if include_loop_branch {
        // One taken branch per tuple at the end of the loop body.
        totals.bt += n as f64;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bnt_sum_equals_survivor_sum() {
        // Section 4.1: sampled BNT equals the cumulative accesses a_1..a_n.
        let n = 1000u64;
        let sels = [0.8, 0.875, 0.714_285_714_285_714_3, 0.2];
        let est = estimate_peo_branches(n, &sels, &ChainSpec::SIX, false);
        // survivors: 800, 700, 500, 100
        assert!((est.bnt - 2100.0).abs() < 1e-6, "bnt = {}", est.bnt);
    }

    #[test]
    fn branches_partition_per_predicate() {
        let est = estimate_peo_branches(100, &[0.3, 0.6], &ChainSpec::SIX, false);
        let p0 = &est.predicates[0];
        assert!((p0.bnt + p0.bt - 100.0).abs() < 1e-9);
        let p1 = &est.predicates[1];
        assert!((p1.input - 30.0).abs() < 1e-9);
        assert!((p1.bnt + p1.bt - 30.0).abs() < 1e-9);
    }

    #[test]
    fn loop_branch_adds_n_taken() {
        let without = estimate_peo_branches(100, &[0.5], &ChainSpec::SIX, false);
        let with = estimate_peo_branches(100, &[0.5], &ChainSpec::SIX, true);
        assert!((with.bt - without.bt - 100.0).abs() < 1e-9);
        assert_eq!(with.bnt, without.bnt);
    }

    #[test]
    fn qualifying_identity() {
        // n tuples, q qualify: bT = (n - q) failing + n loop branches,
        // so qualifying = 2·n − bT (Section 2.2).
        let n = 100u64;
        let q = 37u64;
        let est = estimate_peo_branches(n, &[q as f64 / n as f64], &ChainSpec::SIX, true);
        assert!((2.0 * n as f64 - est.bt - q as f64).abs() < 1e-9);
    }

    #[test]
    fn order_changes_mispredictions_not_bt_plus_bnt_result() {
        // Both orders produce the same final cardinality, hence the same
        // overall qualifying count, but different BNT sums — the asymmetry
        // the optimizer exploits.
        let a = estimate_peo_branches(10_000, &[0.2, 0.8], &ChainSpec::SIX, true);
        let b = estimate_peo_branches(10_000, &[0.8, 0.2], &ChainSpec::SIX, true);
        // Survivor sums differ: 2000+1600 vs 8000+1600.
        assert!(a.bnt < b.bnt);
        // Final output identical => same bt from failing tuples + loop:
        // bt = n_fail_total + n; n_fail_total = n - out in both cases...
        // plus intermediate failures; totals: a: 8000+400, b: 2000+6400.
        assert!((a.bt - (8400.0 + 10_000.0)).abs() < 1e-6);
        assert!((b.bt - (8400.0 + 10_000.0)).abs() < 1e-6);
    }

    #[test]
    fn empty_peo_is_all_zero() {
        let est = estimate_peo_branches(100, &[], &ChainSpec::SIX, false);
        assert_eq!(est.bnt, 0.0);
        assert_eq!(est.bt, 0.0);
        assert_eq!(est.mp_total(), 0.0);
    }

    #[test]
    fn mispredictions_peak_at_half() {
        let at_half = estimate_peo_branches(1000, &[0.5], &ChainSpec::SIX, false);
        let at_low = estimate_peo_branches(1000, &[0.05], &ChainSpec::SIX, false);
        let at_high = estimate_peo_branches(1000, &[0.95], &ChainSpec::SIX, false);
        assert!(at_half.mp_total() > at_low.mp_total());
        assert!(at_half.mp_total() > at_high.mp_total());
    }
}
