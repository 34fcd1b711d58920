//! The benchmark's own statistics: rank percentiles that refuse thin
//! tails, medians of repeated measurements, and ratios of counts.

/// A percentile is reported only when at least this many samples lie
/// beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q ∈ (0, 1)` of `sorted` (ascending). Returns
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond the rank, so a
/// tail is never read off a handful of points.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The fewest samples from which [`percentile`] reports `q`.
pub fn samples_for(q: f64) -> usize {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    (1..)
        .find(|&n| n - ((q * n as f64).ceil() as usize).clamp(1, n) >= MIN_BEYOND)
        .expect("some sample count reports")
}

/// Sort a copy of `values` and take [`percentile`].
pub fn percentile_of(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, q)
}

/// Plain median of a few repeated measurements (no tail refusal: a
/// median of three runs is the point of repeating them).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        // p99 of 1000: rank 990, 10 beyond — reported.
        assert_eq!(percentile(&seq(1000), 0.99), Some(990.0));
        // p99 of 999: rank 990, 9 beyond — refused.
        assert_eq!(percentile(&seq(999), 0.99), None);
        // p50 needs 20 samples.
        assert_eq!(percentile(&seq(20), 0.5), Some(10.0));
        assert_eq!(percentile(&seq(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&seq(100), 1.0), None);
        assert_eq!(percentile(&seq(100), 0.0), None);
    }

    #[test]
    fn samples_for_is_the_smallest_count_that_reports() {
        assert_eq!(samples_for(0.99), 1000);
        assert_eq!(samples_for(0.5), 20);
        for q in [0.5, 0.9, 0.95, 0.99] {
            let n = samples_for(q);
            assert!(percentile(&seq(n), q).is_some(), "q {q}");
            assert!(percentile(&seq(n - 1), q).is_none(), "q {q}");
        }
    }

    #[test]
    fn percentile_of_sorts_its_input() {
        let mut v = seq(40);
        v.reverse();
        assert_eq!(percentile_of(&v, 0.5), Some(20.0));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
