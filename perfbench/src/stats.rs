//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, interpolating linearly
/// between closest ranks (the "inclusive" method: the minimum is q = 0,
/// the maximum q = 1). `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`, or 0 for an empty slice (a metric with no
/// samples reads 0, which the correctness checks reject where samples
/// are required).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Median wall time (µs) of `n` calls of `f`.
pub fn median_us(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Samples strictly beyond the `q`-quantile of `n` samples: a tail
/// percentile is only reported as a tail when at least ten lie beyond
/// it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    // The epsilon keeps 1 − 0.9 = 0.0999… from losing a whole sample.
    ((1.0 - q) * n as f64 + 1e-9).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_inputs() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        // Interpolates between ranks: 0.9 * 4 = 3.6 → 4 + 0.6.
        assert!((quantile(&v, 0.9).unwrap() - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_matches_the_inclusive_method_on_1_to_100() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&v, 0.9).unwrap() - 90.1).abs() < 1e-9);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
    }
}
