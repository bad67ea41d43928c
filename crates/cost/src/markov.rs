//! The Markov-chain branch misprediction model of Section 3.2.
//!
//! An n-state saturating branch predictor is a birth–death Markov chain:
//! with probability `p` (the selectivity — a qualifying tuple makes the
//! branch *not taken*, Section 2.1) the automaton steps towards the
//! "strongly not taken" end, with probability `1 − p` towards "strongly
//! taken" (Figure 5). The stationary distribution yields the probability
//! that the predictor sits in a taken- or not-taken-predicting state, and
//! Equations 5a–5f split right and wrong predictions by actual direction.
//!
//! The distribution has the closed form `π_i ∝ ((1−p)/p)^i` (detailed
//! balance of a birth–death chain); [`ChainSpec::stationary_linear`]
//! re-derives it by solving the balance equations (the paper's Equations
//! 4a–4g) with the in-house linear solver, and the tests pin both against
//! each other.

use crate::linalg;

/// Largest supported state count.
pub const MAX_STATES: usize = 16;

/// An n-state chain with a configurable prediction split.
///
/// `not_taken_states` is the number of leftmost states predicting *not
/// taken*; the paper's `+1NT` variants use `states/2 + 1`, the `+1T`
/// variants `states/2` on an odd state count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSpec {
    /// Total number of states (2–[`MAX_STATES`]).
    pub states: u8,
    /// Leftmost states predicting "not taken".
    pub not_taken_states: u8,
}

/// Per-branch probabilities derived from the stationary distribution, all
/// conditioned on one dynamic branch execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchProbabilities {
    /// Probability the predictor predicts "taken" (`BTak` in the paper).
    pub predict_taken: f64,
    /// Probability the predictor predicts "not taken" (`BNotTak`).
    pub predict_not_taken: f64,
    /// Taken branch, predicted not taken (`BTakMP`, Eq. 5a).
    pub mp_taken: f64,
    /// Taken branch, predicted taken (`BTakRP`, Eq. 5b).
    pub rp_taken: f64,
    /// Not-taken branch, predicted taken (`BNotTakMP`, Eq. 5c).
    pub mp_not_taken: f64,
    /// Not-taken branch, predicted not taken (`BNotTakRP`, Eq. 5d).
    pub rp_not_taken: f64,
}

impl BranchProbabilities {
    /// Total misprediction probability (`BMP`; the paper's Eq. 5e contains
    /// the obvious typo `BTakMP + BNotTakRP` — the sum of the two
    /// misprediction events is meant).
    pub fn mp_total(&self) -> f64 {
        self.mp_taken + self.mp_not_taken
    }
}

impl ChainSpec {
    /// The six-state chain the paper selects ("we use a six state markov
    /// chain in the remainder of this paper").
    pub const SIX: ChainSpec = ChainSpec {
        states: 6,
        not_taken_states: 3,
    };

    /// The four-state chain that fits AMD CPUs best (Section 3.2).
    pub const FOUR: ChainSpec = ChainSpec {
        states: 4,
        not_taken_states: 2,
    };

    /// An even-split chain with `states` states.
    pub fn even(states: u8) -> Self {
        assert!(
            states >= 2 && states % 2 == 0,
            "even() needs an even state count"
        );
        Self {
            states,
            not_taken_states: states / 2,
        }
    }

    /// An odd chain with the extra state on the *taken* side (`+1T`).
    pub fn plus_one_taken(states: u8) -> Self {
        assert!(
            states >= 3 && states % 2 == 1,
            "+1T needs an odd state count"
        );
        Self {
            states,
            not_taken_states: states / 2,
        }
    }

    /// An odd chain with the extra state on the *not-taken* side (`+1NT`).
    pub fn plus_one_not_taken(states: u8) -> Self {
        assert!(
            states >= 3 && states % 2 == 1,
            "+1NT needs an odd state count"
        );
        Self {
            states,
            not_taken_states: states / 2 + 1,
        }
    }

    /// Label as used in Figure 3's legend.
    pub fn label(&self) -> String {
        let n = self.states;
        let k = self.not_taken_states;
        if u16::from(k) * 2 == u16::from(n) {
            format!("{n} States")
        } else if u16::from(k) * 2 > u16::from(n) {
            format!("{n} States (+1NT)")
        } else {
            format!("{n} States (+1T)")
        }
    }

    /// Check the chain's shape and that `p` is a selectivity.
    fn validate(&self, p: f64) {
        assert!(
            (2..=MAX_STATES).contains(&usize::from(self.states)),
            "state count {} out of supported range",
            self.states
        );
        assert!(
            self.not_taken_states >= 1 && self.not_taken_states < self.states,
            "prediction split must leave states on both sides"
        );
        assert!((0.0..=1.0).contains(&p), "selectivity out of range: {p}");
    }

    /// Stationary distribution over states for selectivity `p` (probability
    /// of "not taken"), in closed form. State 0 is "strongly not taken".
    pub fn stationary(&self, p: f64) -> Vec<f64> {
        self.validate(p);
        let n = self.states as usize;
        let mut v = vec![0.0; n];
        // Degenerate endpoints: all mass in a corner state.
        if p <= 0.0 {
            v[n - 1] = 1.0;
        } else if p >= 1.0 {
            v[0] = 1.0;
        } else {
            for (x, pi) in v.iter_mut().zip(self.interior(p, n)) {
                *x = pi;
            }
        }
        v
    }

    /// The first `take` stationary probabilities at a selectivity strictly
    /// inside `(0, 1)`, in state order: `π_{i+1}/π_i = (1-p)/p`, the
    /// geometric sequence normalised by its total over all states one
    /// term at a time — so a caller summing a prefix
    /// ([`ChainSpec::probabilities`]) divides only that prefix and needs
    /// no buffer.
    fn interior(&self, p: f64, take: usize) -> impl Iterator<Item = f64> {
        let r = (1.0 - p) / p;
        let mut total = 0.0;
        let mut cur = 1.0;
        for _ in 0..self.states {
            total += cur;
            cur *= r;
        }
        let mut cur = 1.0;
        (0..take).map(move |_| {
            let pi = cur / total;
            cur *= r;
            pi
        })
    }

    /// Stationary distribution computed by solving the balance equations
    /// `π·P = π`, `Σπ = 1` (the route of the paper's Equations 4a–4g).
    /// Slower; exists to cross-validate [`ChainSpec::stationary`].
    pub fn stationary_linear(&self, p: f64) -> Vec<f64> {
        self.validate(p);
        let n = self.states as usize;
        if p <= 0.0 || p >= 1.0 {
            return self.stationary(p);
        }
        // Build (P^T - I) with the last row replaced by the normalization.
        // Each column i scatters into rows left/right/i, so the index loop
        // is the natural shape here.
        let mut a = vec![vec![0.0; n]; n];
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            // From state i: not taken (prob p) -> max(i-1, 0);
            //               taken (prob 1-p)  -> min(i+1, n-1).
            let left = i.saturating_sub(1);
            let right = (i + 1).min(n - 1);
            a[left][i] += p;
            a[right][i] += 1.0 - p;
            a[i][i] -= 1.0;
        }
        for x in a[n - 1].iter_mut() {
            *x = 1.0;
        }
        let mut b = vec![0.0; n];
        b[n - 1] = 1.0;
        linalg::solve(a, b).expect("balance system is non-singular for 0<p<1")
    }

    /// Per-branch probabilities (Equations 5a–5f) at selectivity `p`.
    pub fn probabilities(&self, p: f64) -> BranchProbabilities {
        self.validate(p);
        let predict_not_taken = if p <= 0.0 {
            0.0
        } else if p >= 1.0 {
            1.0
        } else {
            self.interior(p, self.not_taken_states as usize).sum()
        };
        let predict_taken = 1.0 - predict_not_taken;
        BranchProbabilities {
            predict_taken,
            predict_not_taken,
            mp_taken: (1.0 - p) * predict_not_taken,
            rp_taken: (1.0 - p) * predict_taken,
            mp_not_taken: p * predict_taken,
            rp_not_taken: p * predict_not_taken,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_sums_to_one() {
        for spec in [ChainSpec::SIX, ChainSpec::FOUR, ChainSpec::even(8)] {
            for p in [0.0, 0.1, 0.5, 0.9, 1.0] {
                let s: f64 = spec.stationary(p).iter().sum();
                assert!((s - 1.0).abs() < 1e-12, "{spec:?} p={p}: {s}");
            }
        }
    }

    #[test]
    fn closed_form_matches_linear_solve() {
        for spec in [
            ChainSpec::SIX,
            ChainSpec::FOUR,
            ChainSpec::even(2),
            ChainSpec::even(8),
            ChainSpec::plus_one_taken(5),
            ChainSpec::plus_one_not_taken(7),
        ] {
            for p in [0.05, 0.3, 0.5, 0.77, 0.99] {
                let a = spec.stationary(p);
                let b = spec.stationary_linear(p);
                for (x, y) in a.iter().zip(&b) {
                    assert!((x - y).abs() < 1e-9, "{spec:?} p={p}: {a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn buffer_free_distribution_is_bit_identical_to_the_buffered_one() {
        // The closed form as it was computed into a buffer: every state's
        // weight, then every state divided by the total, then the
        // not-taken prefix summed. `stationary` must hold the same
        // quotients and `probabilities` the same sum, though it divides
        // only the states it sums.
        let buffered = |spec: ChainSpec, p: f64| {
            let n = spec.states as usize;
            let mut v = vec![0.0; n];
            if p <= 0.0 {
                v[n - 1] = 1.0;
            } else if p >= 1.0 {
                v[0] = 1.0;
            } else {
                let r = (1.0 - p) / p;
                let mut acc = 0.0;
                let mut cur = 1.0;
                for x in &mut v {
                    *x = cur;
                    acc += cur;
                    cur *= r;
                }
                for x in &mut v {
                    *x /= acc;
                }
            }
            let k = spec.not_taken_states as usize;
            let not_taken: f64 = v[..k].iter().sum();
            (v, not_taken)
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for spec in [
            ChainSpec::SIX,
            ChainSpec::FOUR,
            ChainSpec::even(16),
            ChainSpec::plus_one_taken(5),
            ChainSpec::plus_one_not_taken(7),
        ] {
            for p in [0.0, 1e-9, 0.05, 0.3, 0.5, 0.77, 0.999_999, 1.0] {
                let (v, not_taken) = buffered(spec, p);
                assert_eq!(bits(&spec.stationary(p)), bits(&v), "{spec:?} p={p}");
                let pr = spec.probabilities(p);
                assert_eq!(
                    pr.predict_not_taken.to_bits(),
                    not_taken.to_bits(),
                    "{spec:?} p={p}"
                );
            }
        }
    }

    #[test]
    fn symmetric_chain_is_symmetric_at_half() {
        let pi = ChainSpec::SIX.stationary(0.5);
        for &p in pi.iter().take(6) {
            assert!((p - 1.0 / 6.0).abs() < 1e-12);
        }
        let pr = ChainSpec::SIX.probabilities(0.5);
        assert!((pr.predict_taken - 0.5).abs() < 1e-12);
        // Worst case: 25% mispredicted in each direction.
        assert!((pr.mp_total() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn extreme_selectivities_predict_perfectly() {
        for p in [0.0, 1.0] {
            let pr = ChainSpec::SIX.probabilities(p);
            assert!(pr.mp_total() < 1e-12, "p={p}: {pr:?}");
        }
    }

    #[test]
    fn low_selectivity_mispredicts_the_qualifying_minority() {
        // p = 0.1: predictor sits in taken states; mispredictions are
        // dominated by not-taken (qualifying) branches, close to p itself.
        let pr = ChainSpec::SIX.probabilities(0.1);
        assert!(pr.mp_not_taken > pr.mp_taken * 5.0, "{pr:?}");
        assert!((pr.mp_not_taken - 0.1).abs() < 0.02);
    }

    #[test]
    fn probabilities_are_a_partition() {
        for p in [0.2, 0.5, 0.8] {
            let pr = ChainSpec::SIX.probabilities(p);
            assert!((pr.mp_total() + pr.rp_taken + pr.rp_not_taken - 1.0).abs() < 1e-12);
            // Taken events sum to 1-p, not-taken events to p.
            assert!((pr.mp_taken + pr.rp_taken - (1.0 - p)).abs() < 1e-12);
            assert!((pr.mp_not_taken + pr.rp_not_taken - p).abs() < 1e-12);
        }
    }

    #[test]
    fn more_states_mean_fewer_mispredictions_near_half() {
        // Hysteresis: longer chains absorb noise better for biased streams.
        let p = 0.3;
        let mp2 = ChainSpec::even(2).probabilities(p).mp_total();
        let mp4 = ChainSpec::even(4).probabilities(p).mp_total();
        let mp8 = ChainSpec::even(8).probabilities(p).mp_total();
        assert!(mp2 > mp4 && mp4 > mp8, "{mp2} {mp4} {mp8}");
    }

    #[test]
    fn uneven_chains_bias_the_boundary() {
        // +1NT predicts not-taken more often than +1T at the same p.
        let nt = ChainSpec::plus_one_not_taken(5).probabilities(0.5);
        let t = ChainSpec::plus_one_taken(5).probabilities(0.5);
        assert!(nt.predict_not_taken > t.predict_not_taken);
    }

    #[test]
    fn labels_match_figure_legend() {
        assert_eq!(ChainSpec::SIX.label(), "6 States");
        assert_eq!(ChainSpec::plus_one_taken(5).label(), "5 States (+1T)");
        assert_eq!(ChainSpec::plus_one_not_taken(7).label(), "7 States (+1NT)");
    }

    #[test]
    #[should_panic(expected = "selectivity out of range")]
    fn rejects_bad_selectivity() {
        let _ = ChainSpec::SIX.stationary(1.5);
    }
}
