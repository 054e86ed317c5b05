//! Order statistics shared by every workload.
//!
//! Latency percentiles use the nearest-rank rule: the `q` percentile of `n`
//! ascending samples is the sample at rank `ceil(q * n)`. A percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it, so the
//! tail it describes is made of more than one or two unlucky requests.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    // The epsilon keeps `0.99 * 1000` at rank 990 despite binary rounding.
    let r = (q * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Smallest sample count that leaves at least [`MIN_BEYOND`] samples beyond
/// the `q` percentile.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= MIN_BEYOND)
        .expect("some n satisfies any q < 1")
}

/// Nearest-rank `q` percentile of an ascending slice, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (samples_beyond(sorted.len(), q) >= MIN_BEYOND).then(|| sorted[rank(sorted.len(), q) - 1])
}

/// The `q` percentile of an ascending slice taken at the cut between the
/// samples below and above it: when `q * n` is a whole number `r`, the mean
/// of the samples at ranks `r` and `r + 1`, otherwise the nearest-rank
/// sample; `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
///
/// The suite's samples come in clusters, one per cell, and its cuts (p50 and
/// p75 of 20 cells times the passes) fall between two clusters whose times
/// differ by a fifth; a nearest-rank pick jumps between them when one slow
/// sample crosses the cut, the mean of the two sides moves half as far.
pub fn cut_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let exact = q * n as f64;
    let r = exact.round() as usize;
    if (exact - r as f64).abs() > 1e-9 || r == 0 || r >= n {
        return tail_percentile(sorted, q);
    }
    (n - r > MIN_BEYOND).then(|| (sorted[r - 1] + sorted[r]) / 2.0)
}

/// Ascending copy of `values` (NaN-free by construction in this crate).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

/// Median: the middle sample, or the mean of the two middle samples.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_percentile_averages_the_two_sides_of_a_whole_cut() {
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        // 0.5 * 60 = 30: between ranks 30 and 31.
        assert_eq!(cut_percentile(&v, 0.5), Some(30.5));
        // 0.75 * 60 = 45: between ranks 45 and 46, 14 samples beyond 46.
        assert_eq!(cut_percentile(&v, 0.75), Some(45.5));
        // Not a whole cut: the nearest-rank sample.
        assert_eq!(
            cut_percentile(&v[..59], 0.5),
            tail_percentile(&v[..59], 0.5)
        );
        // Too few beyond the upper side of the cut.
        let short: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(cut_percentile(&short, 0.75), None);
    }

    #[test]
    fn nearest_rank_picks_the_sample_at_ceil_qn() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(rank(100, 0.5), 50);
        assert_eq!(v[rank(100, 0.5) - 1], 50.0);
        assert_eq!(v[rank(100, 0.99) - 1], 99.0);
        assert_eq!(rank(1, 0.99), 1);
        assert_eq!(rank(3, 0.5), 2);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.75), 40);
    }

    #[test]
    fn tail_percentile_refuses_a_thin_tail() {
        let small = sorted(&(0..999).map(f64::from).collect::<Vec<_>>());
        assert_eq!(tail_percentile(&small, 0.99), None);
        let big = sorted(&(0..1000).map(f64::from).collect::<Vec<_>>());
        // rank 990 of 0..1000 is the value 989; 990..=999 lie beyond it.
        assert_eq!(tail_percentile(&big, 0.99), Some(989.0));
        assert_eq!(tail_percentile(&big, 0.5), Some(499.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
