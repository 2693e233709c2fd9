//! Order statistics the harness reports: medians and quartiles across
//! repetitions, the highest percentile a sample can support, and the
//! ladder's self-time subtraction.

/// Sorted copy (NaN-free input; timings and counts never produce NaN).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    v
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every reported metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of the fastest quarter of `values` — the largest quarter when
/// `higher` is better, the smallest otherwise; at least one sample.
///
/// This is what a host timing reports across the repetitions of a run.
/// Co-tenant load on the host this was built on only ever *slows* a
/// repetition, by tens of percent, for seconds to minutes at a time, so
/// the plain median of a 14-second run lands wherever the mix of calm and
/// disturbed repetitions happened to fall. Over seven ten-run studies the
/// run-to-run spread of the fastest repetitions averaged 10 % against 14 %
/// for the median (worst case 18 % against 30 %); the median of the
/// fastest quarter keeps that while not hanging on one lucky sample.
pub fn fastest_quarter_median(values: &[f64], higher: bool) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = sorted(values);
    if higher {
        v.reverse();
    }
    median(&v[..v.len().div_ceil(4)])
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so the
/// spreads printed here are the ones the acceptance procedure computes. A
/// single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let len = v.len();
    if len == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median (0 for a single sample or
/// a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentiles the harness is willing to quote, highest first, each with
/// the per-mille of the sample that lies beyond it (integers, so the
/// ten-sample test is exact).
const TAIL_LADDER: [(f64, u64); 6] = [
    (99.9, 1),
    (99.0, 10),
    (95.0, 50),
    (90.0, 100),
    (75.0, 250),
    (50.0, 500),
];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it in a sample of `count` — a tail quoted from fewer
/// is one outlier's value. `None` below twenty samples.
pub fn highest_supported_percentile(count: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&(_, beyond)| count as u64 * beyond >= 10 * 1000)
        .map(|(p, _)| p)
}

/// `upper − lower`, clamped at zero; the flag says whether it was clamped.
pub fn self_time(upper: f64, lower: f64) -> (f64, bool) {
    let diff = upper - lower;
    (diff.max(0.0), diff < 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn fastest_quarter_median_ignores_disturbed_repetitions() {
        // Eight repetitions, five of them slowed: throughput and time views.
        let rate = [60.0, 41.0, 59.0, 42.0, 61.0, 40.0, 45.0, 39.0];
        assert_eq!(fastest_quarter_median(&rate, true), 60.5);
        let time = [1.0, 1.5, 1.02, 1.45, 0.98, 1.6, 1.3, 1.7];
        assert_eq!(fastest_quarter_median(&time, false), 0.99);
        assert_eq!(fastest_quarter_median(&[7.0], true), 7.0);
        assert_eq!(fastest_quarter_median(&[7.0, 9.0, 8.0], true), 9.0);
        assert_eq!(
            fastest_quarter_median(&[7.0, 9.0, 8.0, 1.0, 2.0], false),
            1.5
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[9.0], 99.0), 9.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(4000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn self_time_never_goes_negative() {
        assert_eq!(self_time(5.0, 7.0), (0.0, true));
        assert_eq!(self_time(7.0, 5.0), (2.0, false));
    }
}
