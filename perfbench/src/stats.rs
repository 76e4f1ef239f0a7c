//! Order statistics for the benchmark's latency samples.

/// Nearest-rank percentile of an ascending-sorted sample set: the smallest
/// sample with at least `p` percent of the samples at or below it. Returns
/// 0 for an empty set.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = nearest_rank(sorted.len(), p);
    sorted[rank - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`. A percentile is reported honestly only when at least
/// [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median and 95th percentile (nearest rank) of `samples`, sorted in place.
#[must_use]
pub fn p50_p95(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (percentile(samples, 50.0), percentile(samples, 95.0))
}

/// Median of `samples` (nearest rank), sorted in place.
#[must_use]
pub fn median(samples: &mut [f64]) -> f64 {
    p50_p95(samples).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0, "rank clamps to the first sample");
        let odd = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&odd, 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let mut shuffled = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(p50_p95(&mut shuffled), (3.0, 5.0));
    }

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert!(samples_beyond(199, 95.0) < MIN_BEYOND);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(samples_beyond(0, 95.0), 0);
        assert_eq!(samples_beyond(1, 50.0), 0);
    }
}
