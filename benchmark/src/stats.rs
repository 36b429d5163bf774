//! Order statistics used by the harness: median, inter-quartile range and
//! the "highest percentile with at least ten samples beyond it" rule.

/// Sorts a sample ascending (NaN-free by construction: every sample is a
/// measured duration or a count).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The median; the mean of the two middle values for an even count.
///
/// # Panics
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value a tenth of the way up the sorted sample (the fourth-fastest of
/// 35 pass times).
pub fn lower_decile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "decile of an empty sample");
    let v = sorted(values);
    v[v.len() / 10]
}

/// First and third quartile by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so the harness's spread agrees
/// with the driver's.  A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: usize| -> f64 {
        // Position i·(n+1)/4 on a 1-based axis, clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = ((i * (n + 1)) as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile range as a share of the median (0 for a zero median).
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The tail of a timing sample: the value at the highest of the candidate
/// percentiles (99.9, 99, 95, 90) that still has at least ten samples
/// beyond it, with that percentile.  Falls back to the median (50) when
/// even p90 is not supported.
pub fn supported_tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of an empty sample");
    let v = sorted(values);
    let n = v.len();
    // Per-mille, so that "samples beyond" is exact integer arithmetic.
    for per_mille in [999usize, 990, 950, 900] {
        let beyond = n * (1_000 - per_mille) / 1_000;
        if beyond >= 10 {
            return (per_mille as f64 / 10.0, v[n - 1 - beyond]);
        }
    }
    (50.0, median(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn lower_decile_is_an_order_statistic() {
        let v: Vec<f64> = (1..=35).rev().map(f64::from).collect();
        assert_eq!(lower_decile(&v), 4.0);
        assert_eq!(lower_decile(&[9.0, 7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(iqr_over_median(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 99 samples: p90 leaves 9 beyond -> falls back to the median.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(supported_tail(&v), (50.0, 50.0));
        // 100 samples: p90 leaves exactly 10 beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&v), (90.0, 90.0));
        // 1 000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), (99.0, 990.0));
        // 10 000 samples support p99.9.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), (99.9, 9_990.0));
    }
}
