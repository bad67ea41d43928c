//! The equi-join cache-miss model of Section 3.1, Equations 1 and 2.
//!
//! For a sequence of join operators, the relative cost is determined by
//! the number of accesses into the joined relation and their locality.
//! The paper replaces the original Manegold et al. miss equation with one
//! grounded in the external memory model [1]:
//!
//! ```text
//! Mr_i = C_i                                   if C_i <  #_i   (fits in cache)
//!        r · (1 − (#_i · B_i) / (R.n · R.w))   if C_i >= #_i   (thrashes)
//! ```
//!
//! with the number of accessed cache lines (Eq. 2)
//!
//! ```text
//! C_i = L · (1 − (1 − 1/L)^r),   L = R.n · R.w / B_i
//! ```
//!
//! Sections 5.5–5.6 use this prediction in reverse: if *measured* misses
//! fall far below the random-access prediction, the access pattern must be
//! co-clustered, and the join order can be flipped accordingly.

/// Geometry of the accessed (inner) relation relative to one cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinGeometry {
    /// Tuples in the accessed relation (`R.n`).
    pub relation_tuples: u64,
    /// Width of one accessed tuple in bytes (`R.w`).
    pub tuple_bytes: u32,
    /// Cache line size in bytes (`B_i`).
    pub line_bytes: u32,
    /// Cache capacity in lines (`#_i`).
    pub cache_lines: u64,
}

impl JoinGeometry {
    /// Lines occupied by the relation.
    pub fn relation_lines(&self) -> f64 {
        (self.relation_tuples as f64 * f64::from(self.tuple_bytes) / f64::from(self.line_bytes))
            .ceil()
            .max(1.0)
    }

    /// Relation size in bytes.
    pub fn relation_bytes(&self) -> f64 {
        self.relation_tuples as f64 * f64::from(self.tuple_bytes)
    }

    /// Cache capacity in bytes.
    pub fn cache_bytes(&self) -> f64 {
        self.cache_lines as f64 * f64::from(self.line_bytes)
    }

    /// The same relation priced against a cache slice of `capacity_bytes`
    /// — how the socket model rebinds Equation 1 to a core's *effective*
    /// (contention-shrunken) LLC share instead of the configured socket
    /// capacity. At least one line survives, mirroring the partition's
    /// minimum-occupancy floor.
    pub fn with_cache_bytes(mut self, capacity_bytes: u64) -> Self {
        self.cache_lines = (capacity_bytes / u64::from(self.line_bytes)).max(1);
        self
    }
}

/// Equation 2: expected number of distinct cache lines touched by `r`
/// uniform random accesses into the relation.
pub fn accessed_lines(geom: &JoinGeometry, r: u64) -> f64 {
    accessed_lines_f(geom, r as f64)
}

/// [`accessed_lines`] over a fractional access count — the estimator
/// searches a continuous survivor space, so the model must stay smooth.
pub fn accessed_lines_f(geom: &JoinGeometry, r: f64) -> f64 {
    let lines = geom.relation_lines();
    lines * (1.0 - (1.0 - 1.0 / lines).powf(r.max(0.0)))
}

/// Equation 1: expected *random* cache misses at this level for `r`
/// uniform random accesses.
pub fn random_misses(geom: &JoinGeometry, r: u64) -> f64 {
    random_misses_f(geom, r as f64)
}

/// [`random_misses`] over a fractional access count.
pub fn random_misses_f(geom: &JoinGeometry, r: f64) -> f64 {
    let r = r.max(0.0);
    let ci = accessed_lines_f(geom, r);
    if ci < geom.cache_lines as f64 {
        // Relation working set fits: compulsory misses only.
        ci
    } else {
        // Thrashing: each access misses with probability
        // 1 − cache_bytes / relation_bytes.
        r * (1.0 - geom.cache_bytes() / geom.relation_bytes()).max(0.0)
    }
}

/// Expected misses for a *co-clustered* (near-sequential) access pattern:
/// every touched line is fetched exactly once, so misses equal the
/// sequentially touched lines `min(r·w/B, L)` — the "original model for
/// sequential cache misses".
pub fn sequential_misses(geom: &JoinGeometry, r: u64) -> f64 {
    sequential_misses_f(geom, r as f64)
}

/// [`sequential_misses`] over a fractional access count.
pub fn sequential_misses_f(geom: &JoinGeometry, r: f64) -> f64 {
    SequentialLines::new(geom).at(r)
}

/// The per-relation constants of [`sequential_misses_f`] — tuple and line
/// width, relation lines — for a caller that prices one relation at many
/// access counts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SequentialLines {
    tuple_bytes: f64,
    line_bytes: f64,
    relation_lines: f64,
}

impl SequentialLines {
    pub(crate) fn new(geom: &JoinGeometry) -> Self {
        Self {
            tuple_bytes: f64::from(geom.tuple_bytes),
            line_bytes: f64::from(geom.line_bytes),
            relation_lines: geom.relation_lines(),
        }
    }

    /// [`sequential_misses_f`] for `r` accesses.
    pub(crate) fn at(&self, r: f64) -> f64 {
        let touched = (r.max(0.0) * self.tuple_bytes / self.line_bytes).ceil();
        touched.min(self.relation_lines)
    }
}

/// Co-clusteredness score from measured counters (Sections 5.5–5.6):
/// `measured / predicted_random`. Values near 1 mean the access pattern is
/// as bad as random; values well below 1 reveal locality the optimizer can
/// exploit by running this join first.
pub fn clustering_ratio(geom: &JoinGeometry, r: u64, measured_misses: u64) -> f64 {
    let predicted = random_misses(geom, r);
    if predicted <= 0.0 {
        return 0.0;
    }
    measured_misses as f64 / predicted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big_relation() -> JoinGeometry {
        JoinGeometry {
            relation_tuples: 10_000_000,
            tuple_bytes: 4,
            line_bytes: 64,
            cache_lines: 15 * 1024 * 1024 / 64, // 15 MiB L3
        }
    }

    fn small_relation() -> JoinGeometry {
        JoinGeometry {
            relation_tuples: 10_000,
            tuple_bytes: 4,
            line_bytes: 64,
            cache_lines: 15 * 1024 * 1024 / 64,
        }
    }

    #[test]
    fn accessed_lines_saturates_at_relation_size() {
        let g = small_relation();
        let lines = g.relation_lines();
        assert!(accessed_lines(&g, 10_000_000) <= lines + 1e-9);
        assert!(accessed_lines(&g, 10_000_000) > lines * 0.99);
    }

    #[test]
    fn few_accesses_touch_roughly_that_many_lines() {
        let g = big_relation();
        let c = accessed_lines(&g, 100);
        assert!(c > 99.0 && c <= 100.0, "c = {c}");
    }

    #[test]
    fn cached_relation_has_compulsory_misses_only() {
        // 10k × 4B = 40 KiB fits in a 15 MiB cache.
        let g = small_relation();
        let m = random_misses(&g, 1_000_000);
        assert!(m <= g.relation_lines(), "m = {m}");
    }

    #[test]
    fn thrashing_relation_misses_proportionally() {
        // 40 MB relation in a 15 MiB cache: each access misses with
        // p = 1 − 15/40 ≈ 0.6067.
        let g = big_relation();
        let r = 1_000_000u64;
        let m = random_misses(&g, r);
        let expected = r as f64 * (1.0 - g.cache_bytes() / g.relation_bytes());
        assert!((m - expected).abs() < 1.0);
        assert!(m > 0.5 * r as f64);
    }

    #[test]
    fn sequential_misses_bounded_by_relation_lines() {
        let g = big_relation();
        assert!(sequential_misses(&g, u64::MAX / 1024) <= g.relation_lines());
        // 16 co-clustered accesses per line → one miss per 16 accesses.
        let m = sequential_misses(&g, 16_000);
        assert_eq!(m, 1000.0);
    }

    #[test]
    fn sequential_much_cheaper_than_random_when_thrashing() {
        let g = big_relation();
        let r = 1_000_000;
        assert!(sequential_misses(&g, r) * 5.0 < random_misses(&g, r));
    }

    #[test]
    fn clustering_ratio_discriminates() {
        let g = big_relation();
        let r = 1_000_000u64;
        let random_measurement = random_misses(&g, r) as u64;
        let clustered_measurement = sequential_misses(&g, r) as u64;
        assert!(clustering_ratio(&g, r, random_measurement) > 0.9);
        assert!(clustering_ratio(&g, r, clustered_measurement) < 0.2);
    }
}
