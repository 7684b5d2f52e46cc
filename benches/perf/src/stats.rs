//! Order statistics over small samples of wall-clock measurements.

/// The value at quantile `q` in `[0, 1]` of `values`, by linear
/// interpolation between the two closest ranks (position `q·(n−1)` of
/// the sorted sample). Never leaves `[min, max]`, so a two-round sample
/// cannot report a time faster than anything measured. `None` for an
/// empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let last = v.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The minimum: the benchmark's estimator for a wall-clock measurement
/// repeated on the same input. The loop is deterministic and never
/// waits, so noise on a shared box (neighbours, first-touch faults)
/// only ever adds time. A run repeats each stream two to five times;
/// with so few repeats no higher quantile rejects a slow window.
pub fn fastest(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

/// The median.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The arithmetic mean; `None` for an empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Nearest-rank percentile of integer samples (nanoseconds): the
/// smallest value with at least `p` percent of the sample at or below
/// it. Sorts `values` in place. `None` for an empty sample.
pub fn percentile_ns(values: &mut [u64], p: f64) -> Option<u64> {
    values.sort_unstable();
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    values.get(rank.clamp(1, n.max(1)) - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [40.0, 10.0, 30.0, 20.0, 50.0];
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 0.25), Some(20.0));
        assert_eq!(median(&v), Some(30.0));
        assert_eq!(quantile(&v, 0.75), Some(40.0));
        assert_eq!(quantile(&v, 1.0), Some(50.0));
        // Four values: position 0.25·3 = 0.75 between 1 and 2.
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.25), Some(1.75));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn tiny_samples_stay_inside_the_measured_range() {
        assert_eq!(quantile(&[], 0.25), None);
        assert_eq!(quantile(&[7.0], 0.25), Some(7.0));
        assert_eq!(quantile(&[8.0, 4.0], 0.25), Some(5.0));
        assert_eq!(fastest(&[]), None);
        assert_eq!(fastest(&[8.0, 4.0, 6.0]), Some(4.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let mut v: Vec<u64> = (1..=200).rev().collect();
        assert_eq!(percentile_ns(&mut v, 50.0), Some(100));
        // 200 queries a round: ten samples lie beyond the p95.
        assert_eq!(percentile_ns(&mut v, 95.0), Some(190));
        assert_eq!(percentile_ns(&mut v, 99.0), Some(198));
        assert_eq!(percentile_ns(&mut v, 100.0), Some(200));
        assert_eq!(percentile_ns(&mut [5], 95.0), Some(5));
        assert_eq!(percentile_ns(&mut [], 95.0), None);
        assert_eq!(percentile_ns(&mut [3, 1, 2], 0.0), Some(1));
    }
}
