//! Order statistics for the benchmark's own samples.
//!
//! Wall-clock metrics are reported as the median of several repeats with
//! their quartiles, and the quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method) because
//! that is what the acceptance driver computes over its own runs: the
//! spread `compare` prints is then the spread the driver sees.

/// Median, quartiles and size of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// First quartile (exclusive method); the median for a single sample.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`. Panics on an empty slice: every metric the
    /// benchmark reports is measured at least once.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&sorted);
        Summary {
            median,
            q1,
            q3,
            n: sorted.len(),
        }
    }

    /// A metric measured exactly once (simulated-clock values and counts
    /// repeat bit-for-bit, so one sample is the whole distribution).
    #[must_use]
    pub fn exact(value: f64) -> Self {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0).
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// The three quartile cut points of an ascending slice, by the exclusive
/// method of Python's `statistics.quantiles(data, n=4)`. A single sample
/// is its own three quartiles.
#[must_use]
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..=3usize) {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

/// Median of unsorted samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The `p`-quantile (0–1) of an ascending slice with linear interpolation
/// between the two neighbouring order statistics.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Longest interval between consecutive timestamps that fall inside
/// `[from, to]`, the window's two edges counting as timestamps: the
/// longest stretch of the window in which nothing happened. Timestamps
/// need not be sorted. With no timestamp inside, the whole window.
#[must_use]
pub fn max_gap(timestamps_us: &[u64], from: u64, to: u64) -> u64 {
    let mut inside: Vec<u64> = timestamps_us
        .iter()
        .copied()
        .filter(|t| (from..=to).contains(t))
        .collect();
    inside.push(from);
    inside.push(to);
    inside.sort_unstable();
    inside.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn summary_sorts_and_reports_the_spread() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 1.5, 4.5, 5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::exact(4.0).spread(), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let data = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&data, 0.0), 10.0);
        assert_eq!(percentile(&data, 1.0), 40.0);
        assert_eq!(percentile(&data, 0.5), 25.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn max_gap_counts_the_window_edges_and_ignores_outsiders() {
        // Responses at 120, 130, 400 inside [100, 500]; 50 and 900 are
        // outside the measured window.
        let marks = [400, 50, 130, 900, 120];
        assert_eq!(max_gap(&marks, 100, 500), 270);
        // The silence before the first response counts.
        assert_eq!(max_gap(&[480], 100, 500), 380);
        // Nothing inside: the whole window was an outage.
        assert_eq!(max_gap(&[], 100, 500), 400);
    }
}
