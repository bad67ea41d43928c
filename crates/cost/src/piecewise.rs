//! The piecewise branch misprediction estimate of Zeuch et al. \[23\]
//! (Equation 3), the baseline the paper's Markov model improves on.
//!
//! Below 50% selectivity the predictor settles on "taken" and mispredicts
//! every qualifying (not-taken) tuple; above 50% the mirror image holds:
//!
//! ```text
//! BRMP(p) = BNT(p)      if p <= 0.5
//!           BNT(1 - p)  if p >  0.5
//! ```
//!
//! which collapses to a misprediction *probability* of `min(p, 1-p)` per
//! branch. The model is exact at the extremes but overestimates around
//! p = 50% (Figure 6), which motivated the Markov chain.

/// Misprediction probability per branch under Equation 3.
pub fn mp_probability(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "selectivity out of range: {p}");
    p.min(1.0 - p)
}

/// Expected mispredictions for `n` tuples at selectivity `p`.
pub fn mp_count(n: u64, p: f64) -> f64 {
    n as f64 * mp_probability(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::ChainSpec;

    #[test]
    fn symmetric_around_half() {
        assert!((mp_probability(0.2) - mp_probability(0.8)).abs() < 1e-12);
        assert_eq!(mp_probability(0.5), 0.5);
        assert_eq!(mp_probability(0.0), 0.0);
        assert_eq!(mp_probability(1.0), 0.0);
    }

    #[test]
    fn overestimates_markov_near_half() {
        // The paper's stated weakness: "this estimation becomes inaccurate
        // in the selectivity range around 50%".
        let markov = ChainSpec::SIX.probabilities(0.5).mp_total();
        assert_eq!(mp_probability(0.5), 0.5);
        assert!(markov <= 0.5 + 1e-12);
        let markov_04 = ChainSpec::SIX.probabilities(0.4).mp_total();
        assert!((mp_probability(0.4) - markov_04).abs() > 0.01);
    }

    #[test]
    fn agrees_with_markov_at_extremes() {
        for p in [0.01, 0.05, 0.95, 0.99] {
            let markov = ChainSpec::SIX.probabilities(p).mp_total();
            assert!((mp_probability(p) - markov).abs() < 0.01, "p={p}");
        }
    }

    #[test]
    fn count_scales_with_tuples() {
        assert_eq!(mp_count(1000, 0.1), 100.0);
    }
}
