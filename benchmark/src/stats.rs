//! Order statistics the benchmark reports: medians, quartiles, and the
//! highest percentile a sample can support.

/// A timing is reported at a tail percentile only when at least this
/// many samples lie beyond it.
pub const SAMPLES_BEYOND: usize = 10;

/// The tail percentiles the benchmark may report, highest first.
const LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    sorted
}

/// Nearest-rank percentile (`p` in `0..=1`); `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The highest percentile of [`LADDER`], capped at `wanted`, that leaves
/// at least [`SAMPLES_BEYOND`] of `n` samples beyond it; `None` when even
/// the lowest rung does not.
pub fn supported_tail(n: usize, wanted: f64) -> Option<f64> {
    LADDER
        .into_iter()
        .filter(|&p| p <= wanted)
        // The epsilon absorbs `1.0 - 0.9 == 0.09999999999999998`.
        .find(|&p| (n as f64 * (1.0 - p) + 1e-9).floor() as usize >= SAMPLES_BEYOND)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let m = data.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p95 of 300 leaves 15 beyond; p99 would leave 3.
        assert_eq!(supported_tail(300, 0.95), Some(0.95));
        assert_eq!(supported_tail(300, 0.999), Some(0.95));
        // 199 samples leave only 9 beyond p95: fall to p90.
        assert_eq!(supported_tail(199, 0.95), Some(0.90));
        assert_eq!(supported_tail(200, 0.95), Some(0.95));
        assert_eq!(supported_tail(1_000, 0.999), Some(0.99));
        assert_eq!(supported_tail(10_000, 0.999), Some(0.999));
        // 40 samples support p75 exactly; 39 support no tail at all.
        assert_eq!(supported_tail(100, 0.95), Some(0.90));
        assert_eq!(supported_tail(40, 0.95), Some(0.75));
        assert_eq!(supported_tail(39, 0.95), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.95), Some(95.0));
        assert_eq!(percentile(&values, 0.5), Some(50.0));
        assert_eq!(percentile(&values, 1.0), Some(100.0));
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
