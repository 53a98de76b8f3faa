//! Order statistics over timing samples.

/// Nearest-rank percentile of `samples` (need not be sorted): the smallest
/// sample with at least `p`% of all samples at or below it. `p` is clamped
/// to `(0, 100]`; an empty slice yields `NaN`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    let p = p.clamp(f64::MIN_POSITIVE, 100.0);
    // 99.9 has no exact binary form: without the relative slack, 99.9% of
    // 10000 would round up to rank 9991.
    let exact = p / 100.0 * n as f64;
    ((exact * (1.0 - 1e-12)).ceil() as usize).clamp(1, n)
}

/// Median (the nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The percentiles a tail is reported at, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// The highest of 99.9/99/95/90 that has at least ten samples ranked
/// beyond it, with its value; `None` when even p90 lacks ten (fewer than
/// 100 samples).
pub fn supported_tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    TAILS
        .iter()
        .find(|&&p| n >= 10 && n - nearest_rank(n, p) >= 10)
        .map(|&p| (p, percentile(samples, p)))
}

/// Short name of a percentile, as used in metric names: `99.9` → `p99.9`.
pub fn label(p: f64) -> String {
    format!("p{p}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 80.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((99.9, 9990.0)));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(supported_tail(&v), Some((95.0, 950.0)));
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(supported_tail(&v), None);
        assert_eq!(label(99.9), "p99.9");
        assert_eq!(label(99.0), "p99");
    }
}
