//! Order statistics for latency samples and run-to-run spreads.

/// Samples that must lie beyond a reported percentile for it to be
/// resolved rather than set by a handful of outliers.
pub const TAIL_SAMPLES: usize = 10;

/// The percentiles the benchmark reports, per mille, lowest first.
const LADDER_PER_MILLE: [usize; 4] = [500, 900, 990, 999];

/// Nearest-rank percentile of an ascending slice (`0.0` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 that still
/// has at least [`TAIL_SAMPLES`] of `n` samples beyond it, if any.
pub fn highest_resolved_percentile(n: usize) -> Option<f64> {
    LADDER_PER_MILLE
        .iter()
        .rfind(|&&p| n * (1000 - p) / 1000 >= TAIL_SAMPLES)
        .map(|&p| p as f64 / 10.0)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) — the spread the driver holds each bound against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    let med = median(values);
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quantile(3) - quantile(1)).abs() / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_resolved_percentile(19), None);
        assert_eq!(highest_resolved_percentile(20), Some(50.0));
        assert_eq!(highest_resolved_percentile(99), Some(50.0));
        assert_eq!(highest_resolved_percentile(100), Some(90.0));
        assert_eq!(highest_resolved_percentile(999), Some(90.0));
        assert_eq!(highest_resolved_percentile(1000), Some(99.0));
        assert_eq!(highest_resolved_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[4.0]), 0.0);
    }
}
