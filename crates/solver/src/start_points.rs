//! Start-point selection for the multi-start optimization (Section 4.3,
//! Figure 9).
//!
//! The counter system is under-determined (fewer counters than
//! predicates), so a single Nelder–Mead run may land in a local optimum.
//! The paper therefore runs the optimizer from a deterministic sequence of
//! start points:
//!
//! 1. the **vertices** of the (restricted) search box — extreme skew
//!    hypotheses;
//! 2. the **null hypothesis**: the overall selectivity distributes evenly
//!    over the predicates; this point splits the box into `2^d` subspaces;
//! 3. repeatedly, the **centroid of the largest unexplored subspace**,
//!    which is then split at its centroid in turn — always probing the
//!    biggest unseen region next.

use crate::bounds::SearchBounds;

#[derive(Debug, Clone)]
struct BoxRegion {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl BoxRegion {
    fn volume(&self) -> f64 {
        // Globally pinned (zero-width) dimensions contribute a neutral
        // factor so they do not zero out the comparison between siblings.
        self.lower
            .iter()
            .zip(&self.upper)
            .map(|(&lo, &hi)| if hi > lo { hi - lo } else { 1.0 })
            .product()
    }

    fn centroid(&self) -> Vec<f64> {
        self.lower
            .iter()
            .zip(&self.upper)
            .map(|(&lo, &hi)| 0.5 * (lo + hi))
            .collect()
    }

    /// Split at `point` into up to `2^d` children. Dimensions where the
    /// point is not strictly interior (including pinned, zero-width
    /// dimensions) are left unsplit rather than producing degenerate
    /// slabs.
    fn split_at(&self, point: &[f64]) -> Vec<BoxRegion> {
        let d = self.lower.len();
        let mut out = vec![BoxRegion {
            lower: Vec::with_capacity(d),
            upper: Vec::with_capacity(d),
        }];
        for ((&lo, &hi), &p) in self.lower.iter().zip(&self.upper).zip(point) {
            let intervals: &[(f64, f64)] = if p > lo && p < hi {
                &[(lo, p), (p, hi)]
            } else {
                &[(lo, hi)]
            };
            let mut next = Vec::with_capacity(out.len() * intervals.len());
            for r in &out {
                for &(ilo, ihi) in intervals {
                    let mut lower = r.lower.clone();
                    let mut upper = r.upper.clone();
                    lower.push(ilo);
                    upper.push(ihi);
                    next.push(BoxRegion { lower, upper });
                }
            }
            out = next;
        }
        out
    }
}

/// Phase of the generator, exposed for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    NullHypothesis,
    Vertices(usize),
    Centroids,
}

/// Deterministic, endless iterator over start points inside `bounds`.
///
/// Yield order: null hypothesis first (it is the best single prior and
/// seeds the subspace decomposition), then box vertices in binary-code
/// order, then largest-subspace centroids forever.
#[derive(Debug, Clone)]
pub struct StartPointGenerator {
    bounds: SearchBounds,
    null_point: Vec<f64>,
    phase: Phase,
    regions: Vec<BoxRegion>,
}

impl StartPointGenerator {
    /// Cap on the number of vertex start points (beyond ~2^4 they stop
    /// paying for themselves and the paper's `m = 2·p` budget would never
    /// reach the centroid phase).
    pub const VERTEX_CAP: usize = 16;

    /// Create a generator over `bounds` with the given null-hypothesis
    /// point (clamped into the bounds).
    pub fn new(bounds: SearchBounds, mut null_point: Vec<f64>) -> Self {
        assert_eq!(bounds.dims(), null_point.len(), "dimensionality mismatch");
        bounds.clamp(&mut null_point);
        let root = BoxRegion {
            lower: bounds.lower.clone(),
            upper: bounds.upper.clone(),
        };
        Self {
            bounds,
            null_point,
            phase: Phase::NullHypothesis,
            regions: vec![root],
        }
    }

    /// Construct the even-split null hypothesis for a selection with
    /// `tups_in` inputs and `tups_out` outputs over `dims` searched
    /// predicate positions (of `predicates` total): every predicate gets
    /// selectivity `(out/in)^(1/p)`, so survivor `a_j = in · q^(j+1)`.
    pub fn null_hypothesis(
        dims: usize,
        predicates: usize,
        tups_in: u64,
        tups_out: u64,
    ) -> Vec<f64> {
        assert!(dims <= predicates);
        let n = tups_in as f64;
        if n <= 0.0 || predicates == 0 {
            return vec![0.0; dims];
        }
        let overall = (tups_out as f64 / n).clamp(0.0, 1.0);
        let q = overall.powf(1.0 / predicates as f64);
        (0..dims).map(|j| n * q.powi(j as i32 + 1)).collect()
    }

    fn pop_largest_region(&mut self) -> Option<BoxRegion> {
        if self.regions.is_empty() {
            return None;
        }
        let mut best = 0;
        let mut best_vol = f64::MIN;
        for (i, r) in self.regions.iter().enumerate() {
            let v = r.volume();
            if v > best_vol {
                best_vol = v;
                best = i;
            }
        }
        Some(self.regions.swap_remove(best))
    }

    fn vertex(&self, code: usize) -> Vec<f64> {
        (0..self.bounds.dims())
            .map(|i| {
                if code & (1 << i) == 0 {
                    self.bounds.lower[i]
                } else {
                    self.bounds.upper[i]
                }
            })
            .collect()
    }
}

impl Iterator for StartPointGenerator {
    type Item = Vec<f64>;

    fn next(&mut self) -> Option<Vec<f64>> {
        let dims = self.bounds.dims();
        if dims == 0 {
            return Some(Vec::new());
        }
        loop {
            match self.phase {
                Phase::NullHypothesis => {
                    self.phase = Phase::Vertices(0);
                    // Seed the subspace decomposition at the null point.
                    let root = self.pop_largest_region().expect("root region");
                    self.regions.extend(root.split_at(&self.null_point));
                    return Some(self.null_point.clone());
                }
                Phase::Vertices(i) => {
                    let total = (1usize << dims.min(20)).min(Self::VERTEX_CAP);
                    if i >= total {
                        self.phase = Phase::Centroids;
                        continue;
                    }
                    self.phase = Phase::Vertices(i + 1);
                    // Emit opposite corners first: 00..0, 11..1, then the
                    // remaining binary codes.
                    let code = match i {
                        0 => 0,
                        1 => (1 << dims) - 1,
                        k => k - 1,
                    };
                    let v = self.vertex(code);
                    // Skip duplicates of the first two specials.
                    if i >= 2 && (code == 0 || code == (1 << dims) - 1) {
                        continue;
                    }
                    return Some(v);
                }
                Phase::Centroids => {
                    let region = self.pop_largest_region()?;
                    let c = region.centroid();
                    self.regions.extend(region.split_at(&c));
                    return Some(c);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> SearchBounds {
        SearchBounds {
            lower: vec![0.0, 0.0],
            upper: vec![100.0, 100.0],
        }
    }

    #[test]
    fn first_point_is_null_hypothesis() {
        let g = StartPointGenerator::new(unit_square(), vec![50.0, 25.0]);
        let first = g.clone().next().unwrap();
        assert_eq!(first, vec![50.0, 25.0]);
    }

    #[test]
    fn null_hypothesis_is_even_split() {
        // overall selectivity 25% over 2 predicates: q = 0.5.
        let p = StartPointGenerator::null_hypothesis(2, 2, 100, 25);
        assert!((p[0] - 50.0).abs() < 1e-9, "{p:?}");
        assert!((p[1] - 25.0).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn vertices_follow_null() {
        let pts: Vec<_> = StartPointGenerator::new(unit_square(), vec![25.0, 25.0])
            .take(6)
            .collect();
        assert_eq!(pts[1], vec![0.0, 0.0]);
        assert_eq!(pts[2], vec![100.0, 100.0]);
        // Remaining two corners in some deterministic order.
        assert!(pts[3..5].contains(&vec![100.0, 0.0]));
        assert!(pts[3..5].contains(&vec![0.0, 100.0]));
    }

    #[test]
    fn centroid_phase_explores_largest_subspace_first() {
        // Null point at (25, 25) splits 100×100 into quadrants of areas
        // 625, 1875, 1875, 5625: the first centroid is that of the
        // 75×75 box: (62.5, 62.5) — the "largest unseen part" rule of
        // Figure 9.
        let pts: Vec<_> = StartPointGenerator::new(unit_square(), vec![25.0, 25.0])
            .take(6)
            .collect();
        // pts[0] = null, pts[1..=4] = the four vertices, pts[5] = first
        // centroid.
        assert_eq!(pts[5], vec![62.5, 62.5]);
    }

    #[test]
    fn all_points_lie_within_bounds() {
        let b = SearchBounds {
            lower: vec![10.0, 20.0, 5.0],
            upper: vec![90.0, 40.0, 5.0],
        };
        let g = StartPointGenerator::new(b.clone(), vec![50.0, 30.0, 5.0]);
        for p in g.take(40) {
            assert!(b.contains(&p), "{p:?} outside bounds");
        }
    }

    #[test]
    fn generator_is_endless() {
        let g = StartPointGenerator::new(unit_square(), vec![50.0, 50.0]);
        assert_eq!(g.take(100).count(), 100);
    }

    #[test]
    fn degenerate_dimension_is_handled() {
        // One pinned coordinate: boxes are 1-D slabs.
        let b = SearchBounds {
            lower: vec![0.0, 7.0],
            upper: vec![100.0, 7.0],
        };
        let g = StartPointGenerator::new(b.clone(), vec![30.0, 7.0]);
        let pts: Vec<_> = g.take(10).collect();
        assert_eq!(pts.len(), 10);
        for p in &pts {
            assert_eq!(p[1], 7.0);
            assert!(b.contains(p));
        }
    }

    #[test]
    fn null_point_outside_bounds_is_clamped() {
        let g = StartPointGenerator::new(unit_square(), vec![500.0, -3.0]);
        let first = g.clone().next().unwrap();
        assert_eq!(first, vec![100.0, 0.0]);
    }
}
