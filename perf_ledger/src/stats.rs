//! Order statistics for the ledger.
//!
//! A tail percentile is only reported when at least [`MIN_TAIL`] samples
//! lie beyond it; with fewer, the number is one or two unlucky samples, not
//! a percentile. Quartiles follow Python's `statistics.quantiles(values,
//! n=4)` (the "exclusive" method), so spreads computed here match the ones
//! a reader recomputes from the raw runs.

/// Samples that must lie strictly beyond a reported percentile (smoke
/// runs, which check plumbing rather than numbers, lower it to 1).
pub const MIN_TAIL: usize = 10;

/// The `p`-th percentile (nearest rank) of `samples`, refused when fewer
/// than `min_tail` samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64, min_tail: usize) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100)");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < min_tail {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it (need {min_tail})"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median, averaging the two middle samples of an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` computes them.
/// A single value is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld == 1 {
        return (d[0], d[0], d[0]);
    }
    let (n, m) = (4usize, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

/// Inter-quartile range as a share of the median.
pub fn relative_iqr(samples: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples leaves 9 beyond it: refused.
        assert!(percentile(&v, 90.0, MIN_TAIL)
            .unwrap_err()
            .contains("9 beyond"));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0, MIN_TAIL).unwrap(), 90.0);
        assert_eq!(percentile(&v, 50.0, MIN_TAIL).unwrap(), 50.0);
        // p99 needs a thousand samples.
        assert!(percentile(&v, 99.0, MIN_TAIL).is_err());
        assert_eq!(percentile(&v, 99.0, 1).unwrap(), 99.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0, MIN_TAIL).unwrap(), 990.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=40).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 50.0, MIN_TAIL).unwrap(), 20.0);
        assert!(percentile(&[], 50.0, 1).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 7, 5], n=4) == [1.5, 3.0, 6.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 7.0, 5.0]), (1.5, 3.0, 6.0));
        assert_eq!(quartiles(&[4.0, 8.0]), (3.0, 6.0, 9.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
