//! Exact order statistics over raw samples.
//!
//! The simulator's own `fpr_trace` histograms bucket by powers of two, so
//! a percentile read from them is a bucket bound and a 30% change can
//! read as no change. Every percentile here is an element of the sorted
//! sample.

/// The nearest-rank `p`-th percentile of `sorted` (ascending): the
/// smallest sample with at least `p`% of the samples at or below it.
/// Returns 0 for an empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `xs` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0 — a ratio over an empty window.
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

    #[test]
    fn percentile_is_an_exact_order_statistic() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        // Not a bucket bound: a 30% change in the sample moves the p50.
        let shifted: Vec<u64> = s.iter().map(|v| v * 13 / 10).collect();
        assert_eq!(percentile(&shifted, 50.0), 65);
    }

    #[test]
    fn percentile_of_small_and_empty_samples() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[1, 2], 50.0), 1);
        assert_eq!(percentile(&[1, 2], 51.0), 2);
        // 1000 samples: p99 leaves exactly ten above it.
        let s: Vec<u64> = (0..1000).collect();
        let p99 = percentile(&s, 99.0);
        assert_eq!(s.iter().filter(|&&v| v > p99).count(), 10);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_of_empty_window_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
