//! Branch prediction unit: n-state saturating counters, optionally indexed
//! by global history.
//!
//! Section 3.2 of the paper models the predictor as a Markov chain over the
//! states of a saturating counter: on a *not taken* outcome the automaton
//! moves one state to the left (towards "strongly not taken"), on a *taken*
//! outcome one state to the right. This module implements that automaton
//! directly; `popt-cost::markov` derives its stationary distribution in
//! closed form, and Figure 3/6 compare the two.

use crate::config::PredictorConfig;

/// Identifier of a static branch instruction in the "compiled" query.
///
/// Each predicate of a multi-selection plan owns one site; the loop
/// back-edge owns another (Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BranchSite(pub u32);

/// One n-state saturating counter.
///
/// States are numbered `0 ..= states-1`. States `< not_taken_states`
/// predict *not taken*; the remainder predict *taken*. A taken outcome
/// saturates towards `states-1`, a not-taken outcome towards `0` — i.e.
/// taken moves "right" and not-taken moves "left" in the paper's Figure 5.
#[derive(Debug, Clone, Copy)]
pub struct SaturatingAutomaton {
    state: u8,
    states: u8,
    not_taken_states: u8,
}

impl SaturatingAutomaton {
    /// Create an automaton with the given state count and not-taken split,
    /// starting from the weakest not-taken state (the state adjacent to the
    /// prediction boundary), so cold branches carry minimal bias.
    pub fn new(states: u8, not_taken_states: u8) -> Self {
        assert!(states >= 2, "an automaton needs at least two states");
        assert!(
            not_taken_states >= 1 && not_taken_states < states,
            "not_taken_states must leave at least one taken state"
        );
        Self {
            state: not_taken_states - 1,
            states,
            not_taken_states,
        }
    }

    /// Current predicted outcome: `true` means "taken".
    #[inline]
    pub fn predict(&self) -> bool {
        self.state >= self.not_taken_states
    }

    /// Record the actual outcome and transition the automaton.
    #[inline]
    pub fn update(&mut self, taken: bool) {
        if taken {
            if self.state + 1 < self.states {
                self.state += 1;
            }
        } else if self.state > 0 {
            self.state -= 1;
        }
    }

    /// Current internal state (for tests and introspection).
    pub fn state(&self) -> u8 {
        self.state
    }
}

/// Outcome classification of one dynamic branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// The actual direction of the branch.
    pub taken: bool,
    /// Whether the predictor guessed the direction correctly.
    pub correct: bool,
}

/// A table of saturating automata indexed by branch site and (optionally)
/// global history — a gshare-style predictor.
///
/// With `history_bits == 0` every site maps to a fixed automaton and the
/// predictor *is* the Markov process of Section 3.2. With history, runs in
/// the input (sorted data, Section 5.4) become almost perfectly predictable
/// while i.i.d. inputs keep the Markov behaviour per history bucket.
///
/// Equality is whole-state equality (every automaton plus the history
/// register): what the oracle-equivalence suites compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPredictor {
    /// Current state of every automaton. The state count and the
    /// not-taken split are the same for all of them and live below, so
    /// the hot table is one byte per entry.
    table: Vec<u8>,
    states: u8,
    not_taken_states: u8,
    mask: u32,
    history: u32,
    history_mask: u32,
}

impl BranchPredictor {
    /// Build a predictor from its configuration.
    pub fn new(config: PredictorConfig) -> Self {
        assert!(
            config.table_bits <= 22,
            "prediction table would be excessive"
        );
        let size = 1usize << config.table_bits;
        let history_mask = if config.history_bits == 0 {
            0
        } else {
            (1u32 << config.history_bits.min(31)) - 1
        };
        // Validates the split and names the initial state.
        let initial = SaturatingAutomaton::new(config.states, config.not_taken_states);
        Self {
            table: vec![initial.state; size],
            states: config.states,
            not_taken_states: config.not_taken_states,
            mask: (size - 1) as u32,
            history: 0,
            history_mask,
        }
    }

    /// Predict and update for one dynamic branch; returns the outcome
    /// classification used by the PMU.
    #[inline]
    pub fn execute(&mut self, site: BranchSite, taken: bool) -> Prediction {
        Prediction {
            taken,
            correct: self.execute_fast(site, taken),
        }
    }

    /// Branch-free form of [`BranchPredictor::execute`], returning only
    /// whether the prediction was correct. Outcomes are data-dependent in
    /// query loops, so the automaton transition and counter
    /// classification are computed arithmetically — no host branch ever
    /// depends on `taken`. Semantics are identical to the branchy form:
    /// the saturating increments reduce to the same state, and with
    /// `history_bits == 0` the mask keeps the history register pinned at
    /// its initial zero.
    #[inline(always)]
    pub fn execute_fast(&mut self, site: BranchSite, taken: bool) -> bool {
        let mut h = self.history;
        let (correct, _) = self.execute_hist(&mut h, site, taken);
        self.history = h;
        correct
    }

    /// [`BranchPredictor::execute_fast`] against a caller-held history
    /// register, returning `(correct, moved)`. Each branch's table index
    /// depends on the history written by the previous branch, so an
    /// executor loop that keeps the register in a local (via
    /// [`BranchPredictor::history`] / [`BranchPredictor::set_history`])
    /// turns that serial dependence into register arithmetic instead of a
    /// store-to-load chain.
    ///
    /// `moved` says whether the indexed automaton changed state. A
    /// branch sequence after which the history register is what it was
    /// before and during which nothing moved left the whole predictor
    /// where it found it, so — the predictor being a deterministic
    /// function of `(history, table)` — replaying the sequence repeats
    /// the same predictions and is again a no-op: the fixed point that
    /// lets an executor account a run of identical rows by multiplication.
    #[inline(always)]
    pub fn execute_hist(
        &mut self,
        history: &mut u32,
        site: BranchSite,
        taken: bool,
    ) -> (bool, bool) {
        let h = site.0.wrapping_mul(0x9E37_79B1) ^ (*history & self.history_mask);
        let state = &mut self.table[(h & self.mask) as usize];
        let predicted = *state >= self.not_taken_states;
        let inc = (taken & (*state + 1 < self.states)) as u8;
        let dec = (!taken & (*state > 0)) as u8;
        *state = *state + inc - dec;
        *history = ((*history << 1) | u32::from(taken)) & self.history_mask;
        (predicted == taken, inc | dec != 0)
    }

    /// Current global history register (for register-resident loops).
    #[inline]
    pub fn history(&self) -> u32 {
        self.history
    }

    /// Write back a history register obtained from
    /// [`BranchPredictor::history`].
    #[inline]
    pub fn set_history(&mut self, history: u32) {
        self.history = history;
    }

    /// Reset all automata and the history register to their initial state.
    pub fn reset(&mut self) {
        self.table
            .fill(SaturatingAutomaton::new(self.states, self.not_taken_states).state);
        self.history = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn automaton_saturates_at_both_ends() {
        let mut a = SaturatingAutomaton::new(6, 3);
        for _ in 0..100 {
            a.update(true);
        }
        assert_eq!(a.state(), 5);
        assert!(a.predict());
        for _ in 0..100 {
            a.update(false);
        }
        assert_eq!(a.state(), 0);
        assert!(!a.predict());
    }

    #[test]
    fn automaton_needs_hysteresis_to_flip() {
        // From strongly-taken, a 6-state automaton needs 3 not-taken
        // outcomes before its prediction flips.
        let mut a = SaturatingAutomaton::new(6, 3);
        for _ in 0..10 {
            a.update(true);
        }
        a.update(false);
        assert!(a.predict());
        a.update(false);
        assert!(a.predict());
        a.update(false);
        assert!(!a.predict());
    }

    #[test]
    #[should_panic(expected = "at least two states")]
    fn automaton_rejects_single_state() {
        let _ = SaturatingAutomaton::new(1, 1);
    }

    #[test]
    fn all_taken_stream_is_perfectly_predicted_after_warmup() {
        let mut p = BranchPredictor::new(PredictorConfig::automaton(6, 3));
        let site = BranchSite(7);
        let mut wrong = 0;
        for i in 0..1000 {
            let r = p.execute(site, true);
            if !r.correct && i > 10 {
                wrong += 1;
            }
        }
        assert_eq!(wrong, 0);
    }

    #[test]
    fn alternating_stream_on_pure_automaton_is_hard() {
        // A strict T/NT alternation keeps a history-less automaton hovering
        // around the boundary; at least half the branches mispredict.
        let mut p = BranchPredictor::new(PredictorConfig::automaton(4, 2));
        let site = BranchSite(1);
        let mut wrong = 0u32;
        let n = 10_000;
        for i in 0..n {
            let r = p.execute(site, i % 2 == 0);
            if !r.correct {
                wrong += 1;
            }
        }
        assert!(wrong >= n / 2, "wrong = {wrong}");
    }

    #[test]
    fn history_learns_alternating_pattern() {
        let cfg = PredictorConfig {
            states: 6,
            not_taken_states: 3,
            history_bits: 8,
            table_bits: 12,
        };
        let mut p = BranchPredictor::new(cfg);
        let site = BranchSite(1);
        let mut wrong_tail = 0u32;
        let n = 10_000;
        for i in 0..n {
            let r = p.execute(site, i % 2 == 0);
            if !r.correct && i > n / 2 {
                wrong_tail += 1;
            }
        }
        // After warmup the pattern lives in the history bits.
        assert!(wrong_tail < 100, "wrong_tail = {wrong_tail}");
    }

    #[test]
    fn biased_stream_misprediction_rate_tracks_minority_class() {
        // For p(taken) = 0.9 the automaton predicts taken almost always, so
        // the misprediction rate approaches the not-taken frequency (10%).
        let mut p = BranchPredictor::new(PredictorConfig::automaton(6, 3));
        let site = BranchSite(3);
        let mut state = 0x1234_5678_u64;
        let mut wrong = 0u32;
        let n = 100_000;
        for _ in 0..n {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let taken = (state % 10) != 0; // 90% taken
            if !p.execute(site, taken).correct {
                wrong += 1;
            }
        }
        let rate = f64::from(wrong) / f64::from(n);
        assert!(rate > 0.05 && rate < 0.15, "rate = {rate}");
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut p = BranchPredictor::new(PredictorConfig::automaton(6, 3));
        let site = BranchSite(0);
        for _ in 0..100 {
            p.execute(site, true);
        }
        p.reset();
        let fresh = BranchPredictor::new(PredictorConfig::automaton(6, 3));
        // After reset the first prediction matches a fresh predictor's.
        let mut a = p;
        let mut b = fresh;
        assert_eq!(
            a.execute(site, false).correct,
            b.execute(site, false).correct
        );
    }
}
