//! Snapshot/restore of a target's runtime calibration state.
//!
//! The compiled-program target learns each join probe's *clustering*
//! (co-clustered vs. random dimension access, Section 5.5) from sampled
//! counters while the query runs. That knowledge is a property of the
//! *workload template*, not of one execution: a repeated query probes the
//! same dimensions with the same foreign keys, so a serving layer can
//! snapshot the converged calibration when a query finishes and seed the
//! next instance of the same template with it — skipping the measurement
//! probes and the textbook-pessimistic random prior entirely.
//!
//! The snapshot lives in the solver crate because it is estimator-model
//! state (the clustering values parameterize the probe geometry the
//! Nelder–Mead objective is fitted against), not executor state.

/// A target's learned per-stage calibration, detached from the target so
/// it can outlive the query that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSnapshot {
    /// Per plan-stage probe clustering estimate (`1.0` = assume uniform
    /// random, the cold prior; meaningless for non-probe stages).
    pub clustering: Vec<f64>,
    /// Whether the stage's clustering was ever calibrated from a sample.
    pub measured: Vec<bool>,
    /// Literal-free structural keys of the stages the calibration was
    /// learned on (one per stage). A restore must match them exactly, so
    /// a snapshot without keys ([`CalibrationSnapshot::cold`]) restores
    /// into nothing.
    pub stage_keys: Vec<u64>,
}

impl CalibrationSnapshot {
    /// The cold-start snapshot for `stages` stages: random-prior
    /// clustering, nothing measured.
    pub fn cold(stages: usize) -> Self {
        Self {
            clustering: vec![1.0; stages],
            measured: vec![false; stages],
            stage_keys: Vec::new(),
        }
    }

    /// Build a snapshot from per-stage state and the stages' structural
    /// keys; the vectors must be of equal length and clustering values
    /// are clamped into `[0, 1]`. The keys let a restore verify it is
    /// seeding the same stage *shapes* the calibration was learned on —
    /// not merely the same stage count.
    pub fn keyed(clustering: Vec<f64>, measured: Vec<bool>, stage_keys: Vec<u64>) -> Self {
        assert_eq!(
            clustering.len(),
            measured.len(),
            "one measured flag per stage"
        );
        assert_eq!(
            clustering.len(),
            stage_keys.len(),
            "one structural key per stage"
        );
        Self {
            clustering: clustering.into_iter().map(|c| c.clamp(0.0, 1.0)).collect(),
            measured,
            stage_keys,
        }
    }

    /// Number of plan stages the snapshot describes.
    pub fn stages(&self) -> usize {
        self.clustering.len()
    }

    /// Whether the snapshot fits a target whose stages carry the given
    /// structural keys — the guard a restore must pass before
    /// overwriting a target's beliefs. The keys must match exactly and
    /// both state vectors must have the same arity (the fields are
    /// public, so a hand-built or mutated snapshot can be lopsided or
    /// unkeyed; restoring one must degrade to a cold start, never panic
    /// downstream).
    pub fn matches_keys(&self, keys: &[u64]) -> bool {
        self.clustering.len() == keys.len()
            && self.measured.len() == keys.len()
            && self.stage_keys == keys
    }

    /// How many stages carry a measured (not prior) clustering.
    pub fn observed(&self) -> usize {
        self.measured.iter().filter(|&&m| m).count()
    }

    /// Whether nothing was ever measured (equivalent to
    /// [`CalibrationSnapshot::cold`] of the same arity).
    pub fn is_cold(&self) -> bool {
        self.observed() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_snapshot_is_random_prior() {
        let s = CalibrationSnapshot::cold(3);
        assert_eq!(s.stages(), 3);
        assert!(s.is_cold());
        assert_eq!(s.observed(), 0);
        assert!(s.clustering.iter().all(|&c| c == 1.0));
    }

    #[test]
    fn lopsided_snapshot_matches_nothing() {
        // Public fields allow a mutated, inconsistent snapshot;
        // matches_keys() must reject it so restores degrade to cold.
        let mut s = CalibrationSnapshot::keyed(vec![0.5, 1.0], vec![true, false], vec![7, 9]);
        assert!(s.matches_keys(&[7, 9]));
        s.measured = vec![];
        assert!(!s.matches_keys(&[7, 9]));
        assert!(!s.matches_keys(&[]));
    }

    #[test]
    fn keyed_clamps_clustering_into_unit_interval() {
        let s = CalibrationSnapshot::keyed(
            vec![-0.5, 0.25, 7.0],
            vec![true, true, false],
            vec![1, 2, 3],
        );
        assert_eq!(s.clustering, vec![0.0, 0.25, 1.0]);
        assert_eq!(s.observed(), 2);
        assert!(!s.is_cold());
    }

    #[test]
    #[should_panic(expected = "one measured flag per stage")]
    fn mismatched_lengths_are_rejected() {
        let _ = CalibrationSnapshot::keyed(vec![0.5], vec![true, false], vec![1]);
    }

    #[test]
    fn snapshots_match_on_structure_not_arity() {
        let s = CalibrationSnapshot::keyed(vec![0.5, 1.0], vec![true, false], vec![7, 9]);
        assert!(s.matches_keys(&[7, 9]));
        assert!(!s.matches_keys(&[9, 7]), "same arity, different structure");
        assert!(!s.matches_keys(&[7]));
        // An unkeyed snapshot of the right arity matches no keyed target.
        assert!(!CalibrationSnapshot::cold(2).matches_keys(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "one structural key per stage")]
    fn keyed_rejects_mismatched_key_arity() {
        let _ = CalibrationSnapshot::keyed(vec![0.5], vec![true], vec![1, 2]);
    }
}
