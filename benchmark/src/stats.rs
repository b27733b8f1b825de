//! Order statistics over latency samples.
//!
//! Every timing is reported as a median plus a tail percentile, and a tail
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it — p99 of 400 samples is four points, not a statistic.

/// Samples that must lie strictly beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice; `0.0`
/// for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `q` has at least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn supported(n: usize, q: f64) -> bool {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= MIN_BEYOND
}

/// Sort a sample set ascending (NaN-free by construction: all values are
/// elapsed times or counts).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of an unsorted sample set: the mean of the two middle values for
/// an even count, so two repetitions report their average.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance procedure uses for the run-to-run spread.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |p: f64| {
        let pos = p * (n + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    (at(0.25), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1,000 leaves exactly ten beyond; of 999 only nine.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(100, 0.9));
        assert!(!supported(99, 0.9));
        // ~370 deletes per run carry a p90 but not a p99.
        assert!(supported(370, 0.9));
        assert!(!supported(370, 0.99));
    }

    #[test]
    fn median_of_even_count_is_the_mean_of_the_middle() {
        assert_eq!(median(&[9.0, 1.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&s);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
