//! Summary statistics: medians, tail percentiles that refuse to
//! extrapolate, and the run-to-run spread used to judge steadiness.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest-rank position.
    pub value: f64,
    /// Samples the percentile was taken from.
    pub samples: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank `p`-th percentile (0 < p < 100), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it: a p90 needs at least 100
/// samples.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    let n = values.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    // 1-based nearest rank: the smallest rank whose share of samples
    // reaches p percent.
    let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(Percentile {
        value: sorted(values)[rank - 1],
        samples: n,
    })
}

/// The median (mean of the middle two for an even count), as Python's
/// `statistics.median` computes it. `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by Python's default
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
/// `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: the interquartile distance as a share of the
/// median. `None` when it is undefined (fewer than two samples or a zero
/// median).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&hundred, 90.0).expect("100 samples leave 10 beyond p90");
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.samples, 100);
        assert!(percentile(&hundred[..99], 90.0).is_none());
        let p50 = percentile(&hundred[..20], 50.0).expect("20 samples leave 10 beyond p50");
        assert_eq!(p50.value, 10.0);
        assert!(percentile(&hundred[..19], 50.0).is_none());
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled: Vec<f64> = (1..=200).map(f64::from).collect();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 90.0).unwrap().value, 180.0);
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 10]), Some(0.0));
        assert_eq!(spread(&[0.0; 10]), None);
        assert_eq!(spread(&[1.0]), None);
    }
}
