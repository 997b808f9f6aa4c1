//! Order statistics for the reported latencies.

/// A percentile is only reported when at least this many samples lie
/// beyond its rank; a thinner tail is one or two outliers, not a
/// percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1]`) of `samples`: the value at
/// rank `ceil(p · n)` of the sorted samples. Refuses when fewer than
/// [`MIN_TAIL`] samples lie beyond that rank, naming the count needed.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p <= 1.0) {
        return Err(format!("percentile {p} is outside (0, 1]"));
    }
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "p{} of {n} samples leaves {beyond} beyond it; {MIN_TAIL} are needed",
            p * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a small sample (mean of the middle pair for an even count).
/// Used for repeated measurements such as set-up time, where no tail is
/// read.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ranked_sample() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5).unwrap(), 50.0);
        assert_eq!(percentile(&xs, 0.9).unwrap(), 90.0);
    }

    #[test]
    fn refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        // Rank 90 of 99 leaves nine samples beyond p90.
        let err = percentile(&xs, 0.9).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        // p99 needs a thousand samples.
        assert!(percentile(&vec![1.0; 999], 0.99).is_err());
        assert!(percentile(&vec![1.0; 1000], 0.99).is_ok());
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&xs, 0.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
