//! Order statistics for the reported timings, and the small numeric and
//! file-size helpers the served and traced halves share.

use std::path::Path;

/// A latency distribution summarised as the benchmark reports it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Number of samples behind both.
    pub n: usize,
}

/// Nearest-rank percentile `q` (0..=1) of `sorted`; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `a / b`, or 0 when `b` is not positive.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// An error as the message the run reports.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Sum of the sizes of files under `dir` whose names end in `suffix`;
/// an empty suffix counts every file.
pub fn dir_bytes(dir: &Path, suffix: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                dir_bytes(&path, suffix)
            } else if path.to_string_lossy().ends_with(suffix) {
                e.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

/// Median and p99 of `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        p50: median(&sorted),
        p99: percentile(&sorted, 0.99),
        n: sorted.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(median(&values), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(summarize(&[]).n, 0);
    }
}
