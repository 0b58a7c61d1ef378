//! Order statistics and the spread measure the acceptance check uses.

/// The `p`-th percentile (`0 < p <= 1`) of `samples` as an exact order
/// statistic (nearest rank: the smallest sample with at least `p` of
/// the samples at or below it). No interpolation, no buckets.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 1.0, "percentile rank {p} out of (0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as an order statistic (the lower middle for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method), which is what the acceptance
/// check uses.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread a metric's bound is compared with.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_an_exact_order_statistic() {
        let s: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(median(&s), 5.0);
        assert_eq!(percentile(&s, 0.8), 8.0);
        assert_eq!(percentile(&s, 0.81), 9.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&s, 0.01), 1.0);
        assert_eq!(median(&[7.0]), 7.0);
        // Always one of the samples, never an interpolated value.
        assert_eq!(median(&[1.0, 100.0]), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartile_spread(&[16.0, 1.0, 8.0, 2.0, 4.0]), 10.5 / 4.0);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
