//! Order statistics over timing samples.

/// Sorts a copy of `values` (every sample is a measured duration or a
/// metric value, so there are no NaNs to order).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method).
/// A single value is its own quartiles; an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len() as i64;
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = len + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// 1-based nearest rank of the percentile given in parts per million.
fn rank(len: usize, ppm: usize) -> usize {
    (len * ppm).div_ceil(1_000_000).clamp(1, len.max(1))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), (p * 10_000.0).round() as usize) - 1]
}

/// The percentiles a tail is reported at, highest first, in parts per
/// million (p99.99 … p50).
const TAIL_LADDER_PPM: [usize; 5] = [999_900, 999_000, 990_000, 900_000, 500_000];

/// The highest percentile of the ladder that has at least ten samples
/// beyond it, as `(percentile, value)`: p99.9 needs 10,000 samples, p50
/// needs 20. `None` below 20 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    TAIL_LADDER_PPM.into_iter().find_map(|ppm| {
        let r = rank(v.len(), ppm);
        (v.len() >= r + 10).then(|| (ppm as f64 / 10_000.0, v[r - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.9, 9_990.0)));
        assert_eq!(tail(&v[..9_999]), Some((99.0, 9_900.0)));
        let v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.99, 99_990.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        assert_eq!(tail(&v[..19]), None);
    }
}
