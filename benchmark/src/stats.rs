//! Order statistics behind every reported number: percentiles with the
//! tail rule, medians, and the quartiles `compare` and the acceptance
//! check use.

/// The percentile `q` (0..=1) of `values`, interpolating linearly between
/// the two closest ranks. `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let last = v.len().checked_sub(1)?;
    let h = last as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (h - lo as f64))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The tail percentile to report for `n` samples: p99, or the highest
/// percentile below it that still has at least ten samples beyond it.
/// `None` when fewer than eleven samples leave no such percentile; the
/// caller then reports the maximum.
fn tail_quantile(n: usize) -> Option<f64> {
    if n < 11 {
        return None;
    }
    // With linear interpolation the value at q lies at or below rank
    // ceil((n-1)q); ten samples beyond it need ceil((n-1)q) <= n-11.
    Some(((n - 11) as f64 / (n - 1) as f64).min(0.99))
}

/// The tail value of `values` under [`tail_quantile`], with the quantile
/// used (`1.0` when the maximum stands in for it).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    match tail_quantile(values.len()) {
        Some(q) => percentile(values, q).map(|v| (v, q)),
        None => percentile(values, 1.0).map(|v| (v, 1.0)),
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default exclusive
/// method), so spreads read the same here and in any script that checks
/// the benchmark. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the bounds in `BENCHMARK.json` are judged against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert!(close(percentile(&v, 0.3).unwrap(), 2.2));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert!(close(q1, 1.5) && close(q3, 4.5), "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(relative_iqr(&v).unwrap(), 5.5 / 5.5));
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(10), None);
        for n in [11usize, 50, 200, 999, 1000, 1012, 5000] {
            let q = tail_quantile(n).unwrap();
            assert!(q <= 0.99);
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = percentile(&v, q).unwrap();
            let beyond = v.iter().filter(|&&x| x > t).count();
            assert!(beyond >= 10, "n={n}: only {beyond} beyond p{}", q * 100.0);
        }
        // Enough samples: exactly p99.
        assert_eq!(tail_quantile(5000), Some(0.99));
        // Too few: the maximum stands in, flagged with q = 1.
        assert_eq!(tail(&[1.0, 7.0, 3.0]), Some((7.0, 1.0)));
    }
}
