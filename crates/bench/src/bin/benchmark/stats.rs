//! Order statistics for the benchmark's samples.

/// Median, quartiles and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile range as a share of the median (0 when the median
    /// is 0).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, linearly interpolated
/// between the two nearest order statistics. Empty input gives 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let position = q.clamp(0.0, 1.0) * last as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        n: values.len(),
        q1: quantile(values, 0.25),
        median: quantile(values, 0.5),
        q3: quantile(values, 0.75),
    }
}

/// The `q`-quantile of latencies recorded on a 1 ms clock.
///
/// The simulator stamps events in whole milliseconds, so thousands of
/// samples share a few dozen values and a plain order statistic moves in
/// 1 ms jumps. Each recorded `v` stands for a latency in
/// `[v − 0.5, v + 0.5)`; the quantile is interpolated inside the bin it
/// falls in, by the share of that bin's samples below the target rank
/// (the estimator histogram-backed monitoring systems use).
pub fn binned_quantile_ms(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = q.clamp(0.0, 1.0) * sorted.len() as f64;
    let index = (rank.ceil() as usize).clamp(1, sorted.len()) - 1;
    let bin = sorted[index];
    let below = sorted.partition_point(|&v| v < bin);
    let within = sorted.partition_point(|&v| v <= bin) - below;
    bin as f64 - 0.5 + (rank - below as f64) / within as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        let summary = summarize(&values);
        assert_eq!((summary.n, summary.q1, summary.q3), (4, 1.75, 3.25));
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn binned_quantile_moves_inside_the_bin() {
        // Ten samples at 100 ms: the median sits mid-bin, p90 near its top.
        let flat = [100u64; 10];
        assert_eq!(binned_quantile_ms(&flat, 0.5), 100.0);
        assert!((binned_quantile_ms(&flat, 0.9) - 100.4).abs() < 1e-9);
        // A second bin above pulls the p90 into it.
        let mut two = vec![100u64; 8];
        two.extend([120, 120]);
        assert!((binned_quantile_ms(&two, 0.9) - 120.0).abs() < 1e-9);
        assert!(binned_quantile_ms(&two, 0.5) < 100.5);
    }
}
