//! Order statistics over measured samples.

/// Linear-interpolated quantile of an ascending-sorted slice, `q` in `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sorted(v), 0.5)
}

/// `(q1, median, q3)` of `v`.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    (
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.75),
    )
}

/// The p99 of a latency sample, or — when fewer than ten samples lie
/// beyond it — the highest percentile that still has ten samples beyond
/// it (nearest rank). Below 20 samples that percentile would not be above
/// the median, and the maximum is reported instead.
/// Returns `(value, percentile, samples)`.
pub fn p99(v: &[f64]) -> (f64, f64, usize) {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "percentile of an empty sample");
    let idx = if n < 20 {
        n - 1
    } else {
        ((0.99 * n as f64).ceil() as usize - 1).min(n - 11)
    };
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        let (q1, q2, q3) = quartiles(&v);
        assert_eq!((q1, q2, q3), (1.75, 2.5, 3.25));
    }

    #[test]
    fn p99_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = p99(&v);
        assert_eq!((value, n), (90.0, 100));
        assert!((pct - 90.0).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(p99(&v), (1980.0, 99.0, 2000));
        assert_eq!(p99(&[3.0, 1.0, 2.0]), (3.0, 100.0, 3));
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(p99(&v), (12.0, 100.0, 12));
    }
}
