//! Order statistics for latency samples.
//!
//! Percentiles are nearest-rank: the p-th percentile of `n` samples is
//! the smallest sample with at least `p`% of all samples at or below it.
//! Nothing is trimmed, so a single outlier reaches the max and, once it
//! is at least `100 - p` percent of the samples, the p-th percentile.
//! A failed operation is recorded as `f64::INFINITY`, which ranks above
//! every finite latency.

/// Percentiles tried, highest first, when looking for the highest one
/// that still has at least [`TAIL_BEYOND`] samples beyond it.
pub const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must rank strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending). Returns `NaN` for no
/// samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n > 0` samples.
pub fn rank(n: usize, p: f64) -> usize {
    // Integer ceiling on hundredths of a percent, so 99% of 100 samples
    // is rank 99 exactly rather than whatever `0.99 * 100.0` rounds to.
    let hundredths = (p * 100.0).round() as u128;
    let r = (hundredths * n as u128).div_ceil(10_000) as usize;
    r.clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_BEYOND`] of `n` samples ranked beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n >= rank(n, p) + TAIL_BEYOND)
}

/// Median of unsorted values (nearest rank), `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Arithmetic mean, `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Summary of one latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count (failed operations included).
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
    /// Highest percentile with at least [`TAIL_BEYOND`] samples beyond
    /// it, and its value (`None` below eleven samples).
    pub tail: Option<(f64, f64)>,
}

/// Summarize `samples` (any order; `f64::INFINITY` marks a failure).
pub fn summarize(mut samples: Vec<f64>) -> Summary {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    Summary {
        n,
        p50: percentile(&samples, 50.0),
        p99: percentile(&samples, 99.0),
        max: samples.last().copied().unwrap_or(f64::NAN),
        tail: tail_percentile(n).map(|p| (p, percentile(&samples, p))),
    }
}
