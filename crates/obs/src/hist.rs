//! Fixed-bucket histograms.
//!
//! Buckets are defined by a static slice of ascending upper bounds; a
//! final `+Inf` bucket is implicit. An observation `v` lands in the
//! first bucket whose bound satisfies `v <= bound`, so a value exactly
//! on a boundary belongs to the bucket the boundary names.

/// Default bucket upper bounds for span durations, in microseconds:
/// 10 µs, 100 µs, 1 ms, 10 ms, 100 ms, 1 s (+Inf implicit).
pub const DURATION_US_BUCKETS: &[f64] =
    &[10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0];

/// A fixed-bucket histogram with running sum and count.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds; one extra
    /// `+Inf` bucket is appended implicitly.
    pub fn new(bounds: &'static [f64]) -> Self {
        Histogram { bounds, counts: vec![0; bounds.len() + 1], sum: 0.0, count: 0 }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        let i = self.bounds.partition_point(|&b| v > b);
        self.counts[i] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The configured upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Per-bucket counts; the last entry is the `+Inf` bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Fold another histogram (with the same bounds) into this one.
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds, other.bounds, "merging histograms with different buckets");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_value_lands_in_named_bucket() {
        let mut h = Histogram::new(&[10.0, 100.0]);
        h.observe(10.0); // exactly on the first bound → le=10 bucket
        h.observe(10.000001); // just above → le=100 bucket
        h.observe(100.0); // exactly on the second bound → le=100 bucket
        h.observe(100.5); // above every bound → +Inf bucket
        assert_eq!(h.bucket_counts(), &[1, 2, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 220.500001).abs() < 1e-6);
    }

    #[test]
    fn below_first_bound_and_negative() {
        let mut h = Histogram::new(&[10.0, 100.0]);
        h.observe(0.0);
        h.observe(-5.0); // degenerate but must not panic or misplace
        assert_eq!(h.bucket_counts(), &[2, 0, 0]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new(DURATION_US_BUCKETS);
        let mut b = Histogram::new(DURATION_US_BUCKETS);
        a.observe(5.0);
        b.observe(50.0);
        b.observe(5_000_000.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket_counts()[0], 1); // 5 µs
        assert_eq!(a.bucket_counts()[1], 1); // 50 µs
        assert_eq!(*a.bucket_counts().last().unwrap(), 1); // +Inf
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new(DURATION_US_BUCKETS);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert!(h.bucket_counts().iter().all(|&c| c == 0));
    }
}
