//! Order statistics for the reported timings.

/// Median of `xs` (mean of the middle pair for even counts); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Nearest-rank `p`-th percentile (`p` in `[0, 100]`, to 0.1); NaN if
/// empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len()).clamp(1, v.len()) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples, in
/// integer arithmetic so that e.g. p99.9 of 10 000 is exactly rank 9990.
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, for `n` samples (50 when none does).
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n - rank(p, n) >= 10)
        .unwrap_or(50.0)
}

/// A latency sample set summarized the way the benchmark reports it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported ([`tail_percentile`] of `n`).
    pub tail_p: f64,
    /// Its value.
    pub tail: f64,
}

impl Summary {
    /// Summarize `xs`.
    pub fn of(xs: &[f64]) -> Self {
        let tail_p = tail_percentile(xs.len());
        Self {
            n: xs.len(),
            p50: median(xs),
            tail_p,
            tail: percentile(xs, tail_p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.5);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(12), 50.0);
    }
}
