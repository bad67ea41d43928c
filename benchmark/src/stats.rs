//! Order statistics over benchmark samples.
//!
//! `quartiles` follows Python's `statistics.quantiles(values, n=4)`
//! (the "exclusive" method) so that `compare` computes the same spread
//! the benchmark contract describes.

/// Sorted copy of `values` (total order; inputs are finite by
/// construction — every value is a measured time, count or ratio).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` gives them.
/// With fewer than two values all three equal the single value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // `delta` may exceed 4 or go negative once `j` is clamped: the
        // reference implementation extrapolates there, and so does this.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile (`fraction` in `[0, 1]`); 0 for an empty slice.
pub fn percentile(values: &[f64], fraction: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (fraction.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// [`percentile`] over integer cycle counts.
pub fn percentile_u64(values: &[u64], fraction: f64) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    percentile(&v, fraction)
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&v), 1.0);
        assert_eq!(iqr_share(&[5.0; 10]), 0.0);
        assert_eq!(iqr_share(&[0.0; 4]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=256).map(f64::from).collect();
        // 12 values lie beyond the 95th percentile of 256.
        assert_eq!(percentile(&v, 0.95), 244.0);
        assert_eq!(percentile(&v, 0.5), 128.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 256.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile_u64(&[10, 30, 20], 0.5), 20.0);
    }

    #[test]
    fn ratio_guards_the_zero_denominator() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
