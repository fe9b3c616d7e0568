//! Order statistics for timings: extremes, medians, nearest-rank percentiles,
//! the quartiles `statistics.quantiles(values, n=4)` gives in Python,
//! and the choice of the highest percentile a sample supports.

/// Percentiles a tail timing may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples a reported tail percentile needs beyond it.
const MIN_BEYOND: f64 = 10.0;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0–100) of `values`; NaN when empty.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The smallest value; NaN when empty.
#[must_use]
pub fn least(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NAN, f64::min)
}

/// The largest value; NaN when empty.
#[must_use]
pub fn most(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NAN, f64::max)
}

/// The middle value (mean of the two middle values for even counts);
/// NaN when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance check of
/// the benchmark uses; a single value is its own quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            // Python's loop body, clamping included: with few points
            // the outer quartiles extrapolate past the data.
            let at = |i: usize| {
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(2), at(3))
        }
    }
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// of `n` samples beyond it, or `None` when not even the median does.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_120), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(150), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn extremes_ignore_order_and_are_nan_when_empty() {
        assert_eq!(least([3.0, 1.0, 2.0]), 1.0);
        assert_eq!(most([3.0, 1.0, 2.0]), 3.0);
        assert!(least([]).is_nan());
        assert!(most([]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 4], n=4) == [0.25, 2.5, 4.75]
        assert_eq!(quartiles(&[4.0, 1.0]), (0.25, 2.5, 4.75));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
