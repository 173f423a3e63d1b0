//! The harness arithmetic: nearest-rank percentiles over samples that may
//! contain `+∞` (a failed request misses every latency limit), and the
//! quartile spread the acceptance rule is stated in.

/// Sorts ascending with `+∞` last.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The 1-based nearest rank `⌈p/100 · n⌉` (the epsilon keeps a product
/// like `0.999 · 10000 = 9990.000000000002` from rounding up a rank).
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending, non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Nearest-rank percentile of an unsorted, non-empty sample.
pub fn quantile(mut values: Vec<f64>, p: f64) -> f64 {
    sort(&mut values);
    percentile(&values, p)
}

/// Nearest-rank median of an unsorted sample.
pub fn median(values: Vec<f64>) -> f64 {
    quantile(values, 50.0)
}

/// The highest of p90/p95/p99/p99.9 with at least ten samples strictly
/// beyond its rank — the highest percentile `n` samples can support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| n >= rank(n, p) + 10)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), so spreads printed here are the ones the
/// acceptance rule computes.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 50.0), 3.0);
        assert_eq!(median(vec![9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(400), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    /// Why a run reports a low quantile of a cost it samples several
    /// times: a disturbance only ever adds to a cost, and most samples can
    /// be disturbed before a low quantile moves.
    #[test]
    fn disturbed_samples_do_not_move_a_low_quantile() {
        let mut v = vec![5.0, 4.0, 6.0, 4.5, 5.5];
        assert_eq!(quantile(v.clone(), 25.0), 4.5);
        for x in &mut v[..3] {
            *x += 1000.0;
        }
        assert_eq!(quantile(v, 25.0), 5.5);
        assert_eq!(quantile(vec![3.0], 10.0), 3.0);
        assert_eq!(quantile(vec![f64::INFINITY, 2.0, 1.0, 3.0], 25.0), 1.0);
        let costs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(costs, 10.0), 2.0);
    }

    #[test]
    fn failures_sort_last_and_poison_the_tail() {
        let mut v = vec![1.0; 95];
        v.extend([f64::INFINITY; 5]);
        v.push(2.0);
        sort(&mut v);
        assert_eq!(percentile(&v, 50.0), 1.0);
        assert_eq!(percentile(&v, 95.0), 2.0);
        assert_eq!(percentile(&v, 96.0), f64::INFINITY);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
    }
}
