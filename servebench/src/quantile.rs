//! Timing summaries: the median, nearest-rank percentiles, and the highest
//! percentile a sample can support.
//!
//! A tail percentile is only reported when at least [`TAIL_MARGIN`]
//! samples lie beyond it; a p99 from a few hundred samples would rest on a
//! handful of points and move with every run.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MARGIN: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples: the smallest
/// rank with at least `q·n` samples at or below it. The epsilon keeps
/// products like `0.9 × 100` from rounding up a rank.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of an ascending, non-empty sample (mean of the middle two when
/// the count is even).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Nearest-rank percentile of an ascending, non-empty sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// Whether `n` samples leave at least [`TAIL_MARGIN`] samples beyond the
/// nearest rank of `q`.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= TAIL_MARGIN
}

/// The highest quantile with at least [`TAIL_MARGIN`] samples beyond its
/// nearest rank (`None` when there are too few samples for any).
pub fn highest_supported(n: usize) -> Option<f64> {
    (n > TAIL_MARGIN).then(|| (n - TAIL_MARGIN) as f64 / n as f64)
}

/// One latency sample set, summarised.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Nearest-rank 90th percentile (check [`Summary::p90_supported`]).
    pub p90: f64,
    /// The highest supported quantile and its value, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises a non-empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            p50: median(&sorted),
            p90: nearest_rank(&sorted, 0.9),
            tail: highest_supported(sorted.len()).map(|q| (q, nearest_rank(&sorted, q))),
        }
    }

    /// Whether the p90 has at least [`TAIL_MARGIN`] samples beyond it.
    pub fn p90_supported(&self) -> bool {
        supports(self.n, 0.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        // With 100 samples the p90 is the 90th value and ten lie beyond it.
        assert!(supports(100, 0.9));
        assert_eq!(nearest_rank(&ascending(100), 0.9), 90.0);
        // One sample fewer leaves only nine beyond the nearest rank.
        assert!(!supports(99, 0.9));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn highest_supported_leaves_exactly_the_margin() {
        assert_eq!(highest_supported(TAIL_MARGIN), None);
        for n in [11, 40, 100, 375, 1000] {
            let q = highest_supported(n).expect("enough samples");
            let sorted = ascending(n);
            let value = nearest_rank(&sorted, q);
            let beyond = sorted.iter().filter(|&&x| x > value).count();
            assert_eq!(beyond, TAIL_MARGIN, "n = {n}");
            assert!(supports(n, q));
            // Any higher quantile leaves fewer than the margin.
            assert!(!supports(n, q + 0.5 / n as f64));
        }
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
    }

    #[test]
    fn summary_reports_median_p90_and_tail() {
        let mut samples = ascending(200);
        samples.reverse();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.5);
        assert_eq!(s.p90, 180.0);
        assert!(s.p90_supported());
        assert_eq!(s.tail, Some((0.95, 190.0)));
    }
}
