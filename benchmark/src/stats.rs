//! Order statistics for the timing samples the workloads collect.

/// Percentile `p` in `[0, 1]` of `samples` by the nearest-rank rule: the
/// smallest sample with at least `p` of the distribution at or below it.
/// Panics on an empty slice: a workload that measured nothing is a bug.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over an already ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The tail statistic reported beside a median: the highest percentile that
/// still has at least ten samples beyond it (p99 from 1000 samples, p90
/// from 100), and the maximum when there are too few samples for either.
/// Returns the value and the percentile it stands for (1.0 = maximum).
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let p = match samples.len() {
        n if n >= 1000 => 0.99,
        n if n >= 100 => 0.90,
        _ => 1.0,
    };
    (percentile(samples, p), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // order of the input does not matter
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 0.9), 90.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(tail(&few), (8.0, 1.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), (90.0, 0.90));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), (990.0, 0.99));
    }
}
