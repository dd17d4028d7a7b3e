//! Order statistics shared by the load generator, the layer timings and
//! `compare`.

/// The value at quantile `q` in `[0, 1]` of `values` (nearest rank, so the
/// result is always one of the samples). Sorts `values` in place; returns
/// 0 for an empty slice.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The median of `values`: the mean of the two middle samples when the
/// count is even. Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The median over slices of a per-slice statistic. A noisy-neighbour burst
/// spoils one slice's statistic, not the run's.
pub fn slice_median(slices: &mut [Vec<f64>], stat: impl Fn(&mut [f64]) -> f64) -> f64 {
    let per_slice: Vec<f64> = slices.iter_mut().map(|slice| stat(slice)).collect();
    median(&per_slice)
}

/// First and third quartile of `values`, by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// benchmark driver measures a metric's spread with. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range of `values` as a share of their median: the spread
/// the driver holds against a metric's bound. `None` below two samples or
/// with a zero median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_known_inputs() {
        let mut values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut values, 0.50), 50.0);
        assert_eq!(percentile(&mut values, 0.99), 99.0);
        assert_eq!(percentile(&mut values, 1.0), 100.0);
        assert_eq!(percentile(&mut values, 0.0), 1.0);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn slice_median_ignores_one_spoiled_slice() {
        // Five quiet slices with p99 = 10 and one burst slice with p99 = 500.
        let quiet: Vec<f64> = (1..=100).map(|v| f64::from(v) / 10.0).collect();
        let burst: Vec<f64> = (1..=100).map(|v| f64::from(v) * 5.0 + 5.0).collect();
        let mut slices = vec![quiet.clone(), quiet.clone(), burst, quiet.clone(), quiet.clone()];
        slices.push(quiet);
        let p99 = slice_median(&mut slices, |s| percentile(s, 0.99));
        assert_eq!(p99, 9.9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_spread(&values), Some(1.0));
    }
}
