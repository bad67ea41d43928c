//! Value layout and distribution utilities.
//!
//! Sections 5.4–5.5 of the paper study progressive optimization under
//! different *physical layouts* of the same logical data: fully sorted,
//! clustered (Knuth-shuffled within a bounded window — "within the time
//! frame of a month"), and fully random. Figure 14 generalizes the window
//! to a sweep from one tuple up to "Mem" (unbounded). This module provides
//! those layouts plus correlated pair generation (Section 4.5).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Physical layout of an otherwise ordered value sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Ascending order.
    Sorted,
    /// Knuth shuffle constrained to a window of the given number of tuples:
    /// every value ends up within roughly `window` positions of its sorted
    /// position. `Clustered(1)` equals `Sorted`.
    Clustered(usize),
    /// Unconstrained Knuth (Fisher–Yates) shuffle.
    Random,
}

impl Layout {
    /// Human-readable label used by the figure harness (matches the x-axis
    /// labels of Figure 14: `1T`, `CL`, `100T`, `1KT`, `L1`, `L2`, `L3`,
    /// `Mem`).
    pub fn label(&self) -> String {
        match self {
            Layout::Sorted => "sorted".into(),
            Layout::Clustered(w) => format!("clustered({w})"),
            Layout::Random => "random".into(),
        }
    }
}

/// Apply `layout` to `data` in place, deterministically from `seed`.
pub fn apply_layout<T>(data: &mut [T], layout: Layout, seed: u64) {
    match layout {
        Layout::Sorted | Layout::Clustered(0) | Layout::Clustered(1) => {}
        Layout::Clustered(window) => knuth_shuffle_window(data, window, seed),
        Layout::Random => knuth_shuffle(data, seed),
    }
}

/// Unconstrained Fisher–Yates ("Knuth") shuffle.
pub fn knuth_shuffle<T>(data: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = data.len();
    if n < 2 {
        return;
    }
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        data.swap(i, j);
    }
}

/// Knuth shuffle restricted to a window: the data is partitioned into
/// consecutive blocks of `window` tuples and each block is Fisher–Yates
/// shuffled independently. Displacement is strictly bounded by the window
/// size, producing the "clustered" data sets of Sections 5.4–5.5 ("we
/// shuffle lineitems based on the shipdate column within the time frame of
/// a month").
pub fn knuth_shuffle_window<T>(data: &mut [T], window: usize, seed: u64) {
    assert!(window >= 1, "window must be at least one tuple");
    let mut rng = StdRng::seed_from_u64(seed);
    for block in data.chunks_mut(window) {
        let n = block.len();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            block.swap(i, j);
        }
    }
}

/// Generate a pair of correlated columns: `b[i] = a[i] + noise` where noise
/// is uniform in `±noise_span`. With `noise_span = 0` the columns are
/// perfectly correlated; large spans decorrelate them. Exercises the
/// correlation hazard of Section 4.5 (predicates on `a` and `b` are *not*
/// independent).
pub fn correlated_pair(n: usize, domain: u32, noise_span: u32, seed: u64) -> (Vec<i32>, Vec<i32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Vec::with_capacity(n);
    let mut b = Vec::with_capacity(n);
    for _ in 0..n {
        let x = rng.gen_range(0..domain as i32);
        let noise = if noise_span == 0 {
            0
        } else {
            rng.gen_range(-(noise_span as i32)..=noise_span as i32)
        };
        a.push(x);
        b.push((x + noise).clamp(0, domain as i32 - 1));
    }
    (a, b)
}

/// Maximum absolute displacement of any element from its position in the
/// sorted order (a direct measure of "sortedness" for tests).
pub fn max_displacement(data: &[i32]) -> usize {
    let mut sorted: Vec<(i32, usize)> = data.iter().copied().zip(0..).collect();
    sorted.sort_by_key(|&(v, i)| (v, i));
    // For duplicate values, matching by stable rank gives the minimal
    // displacement interpretation.
    let mut max = 0usize;
    for (rank, &(_, original_idx)) in sorted.iter().enumerate() {
        max = max.max(rank.abs_diff(original_idx));
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_permutation() {
        let mut v: Vec<i32> = (0..1000).collect();
        knuth_shuffle(&mut v, 42);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        assert_ne!(v, (0..1000).collect::<Vec<_>>(), "shuffle did nothing");
    }

    #[test]
    fn window_shuffle_bounds_displacement() {
        let mut v: Vec<i32> = (0..10_000).collect();
        knuth_shuffle_window(&mut v, 64, 7);
        // Block-local shuffling bounds displacement by the window size.
        assert!(max_displacement(&v) < 64, "d = {}", max_displacement(&v));
        assert!(max_displacement(&v) > 0, "shuffle did nothing");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn window_one_is_identity() {
        let mut v: Vec<i32> = (0..100).collect();
        knuth_shuffle_window(&mut v, 1, 3);
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn layout_sorted_is_identity() {
        let mut v: Vec<i32> = (0..50).collect();
        apply_layout(&mut v, Layout::Sorted, 1);
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a: Vec<i32> = (0..500).collect();
        let mut b: Vec<i32> = (0..500).collect();
        knuth_shuffle(&mut a, 9);
        knuth_shuffle(&mut b, 9);
        assert_eq!(a, b);
        let mut c: Vec<i32> = (0..500).collect();
        knuth_shuffle(&mut c, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn correlated_pair_tracks() {
        let (a, b) = correlated_pair(10_000, 1000, 0, 3);
        assert_eq!(a, b);
        let (a, b) = correlated_pair(10_000, 1000, 10, 3);
        let max_diff = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| (x - y).unsigned_abs())
            .max()
            .unwrap();
        assert!(max_diff <= 10);
    }

    #[test]
    fn max_displacement_of_sorted_is_zero() {
        let v: Vec<i32> = (0..100).collect();
        assert_eq!(max_displacement(&v), 0);
    }

    #[test]
    fn max_displacement_of_reversed_is_n_minus_one() {
        let v: Vec<i32> = (0..100).rev().collect();
        assert_eq!(max_displacement(&v), 99);
    }
}
