//! The open-loop arrival schedule and its backlog test.
//!
//! Requests model independent users: they are due at Poisson arrival times
//! fixed before the run, and each is timed from when it was due, so a stall
//! also charges the requests that queued behind it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Due times, in nanoseconds from the start of the phase, of `count`
/// requests arriving as a Poisson process of `rate` per second.
pub fn arrivals(rate: f64, count: usize, seed: u64) -> Vec<u64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0_f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// Whether the requests outstanding (sent, not yet answered), sampled at
/// even intervals while the schedule ran, grew: the last third's mean
/// exceeds the middle third's by more than half a batch cap. The first
/// third is warm-up.
pub fn backlog_growing(outstanding: &[usize], batch_cap: usize) -> bool {
    let third = outstanding.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    let middle = mean(&outstanding[third..2 * third]);
    let last = mean(&outstanding[2 * third..]);
    last > middle + batch_cap as f64 / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seeded_increasing_and_at_rate() {
        let a = arrivals(2_000.0, 20_000, 7);
        assert_eq!(a, arrivals(2_000.0, 20_000, 7));
        assert_ne!(a, arrivals(2_000.0, 20_000, 8));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 20k arrivals at 2000/s span ~10 s; the Poisson count's relative
        // spread is 1/sqrt(20k) < 1%.
        let span_s = *a.last().unwrap() as f64 * 1e-9;
        assert!((span_s - 10.0).abs() < 0.3, "span {span_s}");
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let mean_gap = 1e9 / 2_000.0;
        let long = a
            .windows(2)
            .filter(|w| (w[1] - w[0]) as f64 > mean_gap)
            .count();
        let share = long as f64 / (a.len() - 1) as f64;
        assert!((share - (-1.0_f64).exp()).abs() < 0.02, "share {share}");
    }

    #[test]
    fn backlog_test_separates_steady_from_growing_queues() {
        let steady: Vec<usize> = (0..90).map(|i| 40 + (i % 7)).collect();
        assert!(!backlog_growing(&steady, 856));
        let growing: Vec<usize> = (0..90).map(|i| i * 20).collect();
        assert!(backlog_growing(&growing, 856));
        assert!(!backlog_growing(&[5, 900], 856));
    }
}
