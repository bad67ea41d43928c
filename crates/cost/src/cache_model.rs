//! The cache access cost model of Section 3.1.
//!
//! Extends the generic model of Pirk et al. [17]: the first predicate of a
//! PEO induces a *single sequential* access pattern over its column; every
//! later predicate induces a *sequential scan with conditional read* whose
//! line-access count depends on the fraction of tuples surviving the
//! previous predicates. The paper modifies the model to **double count
//! random misses**: "a random cache miss induces one cache access for the
//! cache line that was predicted but not used and one cache line access
//! for the actually used cache line".
//!
//! On the `popt-cpu` substrate that prediction mechanism is the
//! adjacent-line prefetcher, which gives the modification a precise form:
//! cache lines come in 128-byte buddy pairs, a demand miss on either line
//! fetches both, so the expected number of L3 accesses per pair is
//! `2 · P(pair touched)` — yielding
//! `L3(d) = L · (1 − (1 − d)^(2v))` for density `d` and `v` values per
//! line, which ≈ `2 · touched` for sparse (random) access and saturates at
//! `L` for dense scans, reproducing the shape of Figure 2.

/// Geometry of one column under a given cache line size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheGeometry {
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Width of one value in bytes.
    pub value_bytes: u32,
}

impl CacheGeometry {
    /// Values per cache line.
    pub fn values_per_line(&self) -> f64 {
        f64::from(self.line_bytes) / f64::from(self.value_bytes)
    }

    /// Cache lines occupied by `n` values.
    pub fn lines(&self, n: u64) -> f64 {
        (n as f64 * f64::from(self.value_bytes) / f64::from(self.line_bytes)).ceil()
    }
}

/// Expected number of *touched* cache lines when a fraction `density` of
/// `n` values is read at (approximately) uniform positions — the
/// sequential-scan-with-conditional-read pattern of Pirk et al.
pub fn touched_lines(geom: &CacheGeometry, n: u64, density: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&density),
        "density out of range: {density}"
    );
    let lines = geom.lines(n);
    let v = geom.values_per_line();
    lines * (1.0 - (1.0 - density).powf(v))
}

/// The paper's modified model: expected **L3 accesses** (demand + buddy
/// prefetch) for the same pattern, double-counting random misses.
pub fn l3_accesses(geom: &CacheGeometry, n: u64, density: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&density),
        "density out of range: {density}"
    );
    ColumnL3::new(geom, n).at(density)
}

/// The per-column constants of [`l3_accesses`] — the column's line count
/// and the exponent `2v` — for a caller that prices one column at many
/// densities.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnL3 {
    lines: f64,
    two_v: f64,
}

impl ColumnL3 {
    pub(crate) fn new(geom: &CacheGeometry, n: u64) -> Self {
        Self {
            lines: geom.lines(n),
            two_v: 2.0 * geom.values_per_line(),
        }
    }

    /// [`l3_accesses`] at `density` (in `[0, 1]`).
    pub(crate) fn at(&self, density: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&density), "density {density}");
        self.lines * (1.0 - (1.0 - density).powf(self.two_v))
    }
}

/// The unmodified Pirk et al. estimate (touched lines only, no double
/// counting) — the reference the modified estimate is tested against.
pub fn l3_accesses_unmodified(geom: &CacheGeometry, n: u64, density: f64) -> f64 {
    touched_lines(geom, n, density)
}

/// The remote-access latency class of the two-socket extension: expected
/// stall cycles for one access that misses the LLC, given the
/// probability `remote_fraction` that the line's home is another socket.
///
/// Equation 1 counts *misses*; this prices each one. A local miss costs
/// `base_cycles` (the random or sequential memory latency); a remote
/// miss additionally pays the NUMA hop `remote_extra_cycles`. Because
/// `remote_fraction` is derived from the static `NumaPlacement` (a pure
/// function of address ranges, never of host scheduling), the blended
/// price — and hence every per-socket cost estimate built on it — is
/// deterministic.
pub fn remote_access_cycles(
    base_cycles: f64,
    remote_extra_cycles: f64,
    remote_fraction: f64,
) -> f64 {
    let rf = remote_fraction.clamp(0.0, 1.0);
    base_cycles + rf * remote_extra_cycles
}

/// Fraction of touched lines whose predecessor line was *not* touched —
/// the "random" (non-sequential) share of the access stream, used by the
/// cycle model to blend sequential and random memory latency.
pub fn random_line_fraction(geom: &CacheGeometry, density: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&density),
        "density out of range: {density}"
    );
    let v = geom.values_per_line();
    // P(previous line untouched) under independent per-line touch prob.
    (1.0 - density).powf(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GEOM: CacheGeometry = CacheGeometry {
        line_bytes: 64,
        value_bytes: 4,
    };

    #[test]
    fn geometry_basics() {
        assert_eq!(GEOM.values_per_line(), 16.0);
        assert_eq!(GEOM.lines(1600), 100.0);
        assert_eq!(GEOM.lines(1601), 101.0);
    }

    #[test]
    fn full_density_touches_every_line_once() {
        assert_eq!(touched_lines(&GEOM, 16_000, 1.0), 1000.0);
        assert_eq!(l3_accesses(&GEOM, 16_000, 1.0), 1000.0);
    }

    #[test]
    fn zero_density_touches_nothing() {
        assert_eq!(touched_lines(&GEOM, 16_000, 0.0), 0.0);
        assert_eq!(l3_accesses(&GEOM, 16_000, 0.0), 0.0);
    }

    #[test]
    fn sparse_access_double_counts() {
        // At very low density, l3_accesses ≈ 2 × touched lines.
        let d = 0.001;
        let touched = touched_lines(&GEOM, 1_600_000, d);
        let l3 = l3_accesses(&GEOM, 1_600_000, d);
        let ratio = l3 / touched;
        assert!((ratio - 2.0).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn saturates_around_twenty_percent() {
        // Figure 2: "For a selectivity larger than 20%, each cache line is
        // accessed and thus the number of cache line accesses remains
        // constant."
        let at_20 = l3_accesses(&GEOM, 1_600_000, 0.2);
        let at_100 = l3_accesses(&GEOM, 1_600_000, 1.0);
        assert!(at_20 / at_100 > 0.99, "{}", at_20 / at_100);
    }

    #[test]
    fn monotone_in_density() {
        let mut prev = -1.0;
        for i in 0..=100 {
            let d = f64::from(i) / 100.0;
            let l3 = l3_accesses(&GEOM, 100_000, d);
            assert!(l3 >= prev);
            prev = l3;
        }
    }

    #[test]
    fn modified_model_dominates_unmodified() {
        for d in [0.01, 0.05, 0.2, 0.7] {
            assert!(l3_accesses(&GEOM, 100_000, d) >= l3_accesses_unmodified(&GEOM, 100_000, d));
        }
    }

    #[test]
    fn remote_class_interpolates_between_local_and_full_hop() {
        assert_eq!(remote_access_cycles(180.0, 90.0, 0.0), 180.0);
        assert_eq!(remote_access_cycles(180.0, 90.0, 1.0), 270.0);
        assert_eq!(remote_access_cycles(180.0, 90.0, 0.5), 225.0);
        // Out-of-range fractions clamp rather than extrapolate.
        assert_eq!(remote_access_cycles(24.0, 90.0, 2.0), 114.0);
    }

    #[test]
    fn random_fraction_extremes() {
        assert_eq!(random_line_fraction(&GEOM, 1.0), 0.0);
        assert_eq!(random_line_fraction(&GEOM, 0.0), 1.0);
        let mid = random_line_fraction(&GEOM, 0.05);
        assert!(mid > 0.3 && mid < 0.6, "mid = {mid}");
    }
}
