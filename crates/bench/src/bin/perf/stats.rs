//! Order statistics over a run's repetition timings.

/// The median of `values` (mean of the two middle ones for an even count).
/// `values` must be non-empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method), so a spread computed here matches the one the driver computes.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range; 0 for fewer than two values.
pub fn iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// The tail order statistic: the value with exactly `above` samples above
/// it, and the percentile that is (`None` when there are too few samples
/// for that statistic to lie above the median).
pub fn tail(values: &[f64], above: usize) -> Option<(f64, f64)> {
    let len = values.len();
    if len < 2 * above + 1 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = len - 1 - above;
    Some((sorted[index], 100.0 * (index + 1) as f64 / len as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(iqr(&ten), 5.5);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(iqr(&[5.0]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_above() {
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let (value, percentile) = tail(&samples, 10).unwrap();
        assert_eq!(value, 30.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);
        assert_eq!(percentile, 75.0);
        // 21 samples: the statistic is the median itself; fewer have none.
        let few: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&few, 10).unwrap().0, 11.0);
        assert_eq!(tail(&few[..20], 10), None);
    }
}
