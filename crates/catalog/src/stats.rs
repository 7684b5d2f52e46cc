//! Per-column statistics: row counts, distinct counts, min/max, and
//! equi-depth histograms.
//!
//! The optimizer estimates selectivities from these statistics (as a real
//! system's optimizer would), while the executor observes true counts.
//! The gap between the two is the estimation noise the paper's profiling
//! machinery has to tolerate.

use colt_storage::{ColumnSlice, HeapTable, KeyCode, Value};

/// Number of buckets in an equi-depth histogram.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Maximum number of most-common values tracked per column.
pub const MAX_MCVS: usize = 8;

/// Statistics for one column.
///
/// # Examples
///
/// ```
/// use colt_catalog::ColumnStats;
/// use colt_storage::{row_from, HeapTable, Value, ValueType};
///
/// let mut heap = HeapTable::new(&[ValueType::Int]);
/// for i in 0..1_000i64 {
///     heap.insert(row_from(vec![Value::Int(i)])).unwrap();
/// }
/// let stats = ColumnStats::analyze(&heap, 0);
/// assert_eq!(stats.n_distinct, 1_000);
/// // Equality on a unique column selects ~1/1000 of the rows.
/// assert!((stats.selectivity_eq(&Value::Int(7)) - 0.001).abs() < 1e-9);
/// // Half-range selectivity interpolates over the histogram.
/// let half = stats.selectivity_le(&Value::Int(499));
/// assert!((half - 0.5).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Rows in the table when the statistics were gathered.
    pub row_count: u64,
    /// Estimated number of distinct values.
    pub n_distinct: u64,
    /// Minimum value, if the column is non-empty.
    pub min: Option<Value>,
    /// Maximum value, if the column is non-empty.
    pub max: Option<Value>,
    /// Equi-depth bucket boundaries: `bounds[0] = min`,
    /// `bounds[HISTOGRAM_BUCKETS] = max`; each bucket holds
    /// `row_count / HISTOGRAM_BUCKETS` rows.
    pub bounds: Vec<Value>,
    /// Most-common values and their exact frequencies (fractions),
    /// descending — PostgreSQL's MCV list. Only values noticeably more
    /// frequent than the uniform expectation are kept, so uniform
    /// columns have an empty list.
    pub mcvs: Vec<(Value, f64)>,
}

impl ColumnStats {
    /// Gather statistics for column `column` of `heap` by a full pass
    /// over the data (the reproduction's ANALYZE). What is sorted is the
    /// column's native cells — key codes for the fixed-width types,
    /// borrowed `str`s for strings — and only the few values the
    /// statistics keep become [`Value`]s.
    pub fn analyze(heap: &HeapTable, column: usize) -> Self {
        fn sorted_codes<T: KeyCode>(cells: &[T]) -> Vec<T::Code> {
            let mut codes: Vec<T::Code> = cells.iter().map(|x| x.code()).collect();
            // Not the index build's `sorted_entries`, which makes the
            // `(code, row id)` entries nothing here wants; bare codes of
            // sorted key columns and of few-valued ones are a comparison
            // sort's best cases (measured against the byte-wise radix
            // sort of PR 15).
            codes.sort_unstable();
            codes
        }
        match heap.column(column) {
            Some(ColumnSlice::Int(cells)) => {
                Self::of_sorted(&sorted_codes(cells), |&c| Value::Int(i64::from_code(c)))
            }
            Some(ColumnSlice::Float(cells)) => {
                Self::of_sorted(&sorted_codes(cells), |&c| Value::Float(f64::from_code(c)))
            }
            Some(ColumnSlice::Date(cells)) => {
                Self::of_sorted(&sorted_codes(cells), |&c| Value::Date(i32::from_code(c)))
            }
            Some(ColumnSlice::Str(cells)) => {
                let mut strs: Vec<&str> = cells.iter().map(String::as_str).collect();
                strs.sort_unstable();
                Self::of_sorted(&strs, |s| Value::Str((*s).to_owned()))
            }
            None => Self::of_sorted::<u64>(&[], |_| Value::Int(0)),
        }
    }

    /// The statistics of a column given its cells in `Value::cmp` order;
    /// `value` turns a cell into the [`Value`] it stands for.
    fn of_sorted<T: PartialEq>(sorted: &[T], value: impl Fn(&T) -> Value) -> Self {
        let row_count = sorted.len() as u64;
        let n_distinct = match sorted {
            [] => 0,
            _ => 1 + sorted.windows(2).filter(|w| w[0] != w[1]).count() as u64,
        };
        let mut bounds = Vec::with_capacity(HISTOGRAM_BUCKETS + 1);
        if !sorted.is_empty() {
            for b in 0..=HISTOGRAM_BUCKETS {
                bounds.push(value(&sorted[(b * (sorted.len() - 1)) / HISTOGRAM_BUCKETS]));
            }
        }
        let mcvs = most_common(sorted, n_distinct, &value);
        ColumnStats {
            row_count,
            n_distinct,
            min: sorted.first().map(&value),
            max: sorted.last().map(&value),
            bounds,
            mcvs,
        }
    }

    /// Estimated fraction of rows with value equal to `v`.
    ///
    /// Checks the MCV list first (exact frequencies for the skewed
    /// head); everything else uses the uniform assumption over the
    /// remaining mass: `(1 − Σ mcv) / (n_distinct − |mcv|)`.
    pub fn selectivity_eq(&self, v: &Value) -> f64 {
        let (Some(min), Some(max)) = (&self.min, &self.max) else { return 0.0 };
        if v < min || v > max || self.n_distinct == 0 {
            return 0.0;
        }
        if let Some((_, f)) = self.mcvs.iter().find(|(m, _)| m == v) {
            return *f;
        }
        let mcv_mass: f64 = self.mcvs.iter().map(|(_, f)| f).sum();
        let rest = (self.n_distinct as usize).saturating_sub(self.mcvs.len()).max(1);
        ((1.0 - mcv_mass) / rest as f64).max(0.0)
    }

    /// Estimated fraction of rows with value `<= v` (inclusive upper
    /// bound), interpolated within the histogram bucket containing `v`.
    pub fn selectivity_le(&self, v: &Value) -> f64 {
        if self.bounds.is_empty() {
            return 0.0;
        }
        let min = &self.bounds[0];
        let max = &self.bounds[self.bounds.len() - 1];
        if v < min {
            return 0.0;
        }
        if v >= max {
            return 1.0;
        }
        // Find the bucket whose [lo, hi) range contains v.
        let nb = self.bounds.len() - 1;
        let mut b = self.bounds[1..].partition_point(|hi| hi <= v);
        if b >= nb {
            b = nb - 1;
        }
        let lo = &self.bounds[b];
        let hi = &self.bounds[b + 1];
        let (lof, hif, vf) = (lo.as_f64(), hi.as_f64(), v.as_f64());
        let within = if hif > lof { ((vf - lof) / (hif - lof)).clamp(0.0, 1.0) } else { 1.0 };
        ((b as f64) + within) / nb as f64
    }

    /// Estimated fraction of rows in the closed-open interval
    /// `[lo, hi)`; either side may be unbounded.
    pub fn selectivity_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> f64 {
        let hi_frac = match hi {
            Some(h) => self.selectivity_le(h) - self.selectivity_eq(h),
            None => 1.0,
        };
        let lo_frac = match lo {
            Some(l) => self.selectivity_le(l) - self.selectivity_eq(l),
            None => 0.0,
        };
        (hi_frac - lo_frac).clamp(0.0, 1.0)
    }
}

/// Exact frequencies of the most common values in sorted data; keeps up
/// to [`MAX_MCVS`] values that are at least 1.5× more frequent than the
/// uniform expectation.
fn most_common<T: PartialEq>(
    sorted: &[T],
    n_distinct: u64,
    value: impl Fn(&T) -> Value,
) -> Vec<(Value, f64)> {
    if sorted.is_empty() || n_distinct <= 1 {
        return Vec::new();
    }
    let n = sorted.len() as f64;
    let threshold = 1.5 / n_distinct as f64;
    let mut runs: Vec<(Value, f64)> = Vec::new();
    let mut start = 0;
    for i in 1..=sorted.len() {
        if i == sorted.len() || sorted[i] != sorted[start] {
            let freq = (i - start) as f64 / n;
            if freq >= threshold {
                runs.push((value(&sorted[start]), freq));
            }
            start = i;
        }
    }
    runs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    runs.truncate(MAX_MCVS);
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_storage::{row_from, ValueType};

    fn heap_of_ints(values: &[i64]) -> HeapTable {
        let mut h = HeapTable::new(&[ValueType::Int]);
        for &v in values {
            h.insert(row_from(vec![Value::Int(v)])).unwrap();
        }
        h
    }

    #[test]
    fn analyze_basic_counts() {
        let vals: Vec<i64> = (0..1000).collect();
        let s = ColumnStats::analyze(&heap_of_ints(&vals), 0);
        assert_eq!(s.row_count, 1000);
        assert_eq!(s.n_distinct, 1000);
        assert_eq!(s.min, Some(Value::Int(0)));
        assert_eq!(s.max, Some(Value::Int(999)));
        assert_eq!(s.bounds.len(), HISTOGRAM_BUCKETS + 1);
    }

    #[test]
    fn analyze_empty_column() {
        let s = ColumnStats::analyze(&heap_of_ints(&[]), 0);
        assert_eq!(s.row_count, 0);
        assert!(s.min.is_none());
        assert_eq!(s.selectivity_eq(&Value::Int(1)), 0.0);
        assert_eq!(s.selectivity_le(&Value::Int(1)), 0.0);
    }

    #[test]
    fn selectivity_eq_uniform() {
        let vals: Vec<i64> = (0..100).collect();
        let s = ColumnStats::analyze(&heap_of_ints(&vals), 0);
        assert!((s.selectivity_eq(&Value::Int(50)) - 0.01).abs() < 1e-12);
        assert_eq!(s.selectivity_eq(&Value::Int(-5)), 0.0);
        assert_eq!(s.selectivity_eq(&Value::Int(1000)), 0.0);
    }

    #[test]
    fn selectivity_le_interpolates_uniform_data() {
        let vals: Vec<i64> = (0..=1000).collect();
        let s = ColumnStats::analyze(&heap_of_ints(&vals), 0);
        for probe in [0i64, 100, 250, 500, 900, 1000] {
            let est = s.selectivity_le(&Value::Int(probe));
            let truth = (probe + 1) as f64 / 1001.0;
            assert!(
                (est - truth).abs() < 0.05,
                "probe {probe}: est {est} truth {truth}"
            );
        }
        assert_eq!(s.selectivity_le(&Value::Int(-1)), 0.0);
        assert_eq!(s.selectivity_le(&Value::Int(2000)), 1.0);
    }

    #[test]
    fn selectivity_le_skewed_data() {
        // 90% of rows are 0, the rest spread over 1..=100.
        let mut vals = vec![0i64; 900];
        vals.extend((1..=100).map(|i| i as i64));
        let s = ColumnStats::analyze(&heap_of_ints(&vals), 0);
        let at_zero = s.selectivity_le(&Value::Int(0));
        assert!(at_zero > 0.8, "equi-depth histogram must capture the heavy value, got {at_zero}");
    }

    #[test]
    fn selectivity_range_combines_bounds() {
        let vals: Vec<i64> = (0..=1000).collect();
        let s = ColumnStats::analyze(&heap_of_ints(&vals), 0);
        let sel = s.selectivity_range(Some(&Value::Int(200)), Some(&Value::Int(400)));
        assert!((sel - 0.2).abs() < 0.05, "got {sel}");
        let all = s.selectivity_range(None, None);
        assert!((all - 1.0).abs() < 1e-9);
        let none = s.selectivity_range(Some(&Value::Int(900)), Some(&Value::Int(100)));
        assert_eq!(none, 0.0);
    }

    #[test]
    fn mcvs_capture_skewed_head() {
        // 60% of rows are 7, 20% are 13, the rest spread over 0..100.
        let mut vals = vec![7i64; 600];
        vals.extend(vec![13i64; 200]);
        vals.extend((0..200).map(|i| i % 100));
        let s = ColumnStats::analyze(&heap_of_ints(&vals), 0);
        assert!(!s.mcvs.is_empty());
        assert_eq!(s.mcvs[0].0, Value::Int(7));
        // The hot value's estimate is its exact frequency...
        let hot = s.selectivity_eq(&Value::Int(7));
        let true_hot = vals.iter().filter(|&&v| v == 7).count() as f64 / vals.len() as f64;
        assert!((hot - true_hot).abs() < 1e-9, "hot {hot} vs {true_hot}");
        // ...and a cold value is estimated far below the naive 1/ndv
        // that would otherwise be inflated by the head.
        let cold = s.selectivity_eq(&Value::Int(42));
        assert!(cold < hot / 10.0, "cold {cold} vs hot {hot}");
    }

    #[test]
    fn uniform_columns_have_no_mcvs() {
        let vals: Vec<i64> = (0..1000).collect();
        let s = ColumnStats::analyze(&heap_of_ints(&vals), 0);
        assert!(s.mcvs.is_empty(), "{:?}", s.mcvs);
        // The uniform estimate is unchanged.
        assert!((s.selectivity_eq(&Value::Int(7)) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn mcv_list_bounded() {
        // 20 values each at 5% — all above threshold, but only MAX_MCVS
        // are kept.
        let mut vals = Vec::new();
        for v in 0..20i64 {
            vals.extend(vec![v; 50]);
        }
        let s = ColumnStats::analyze(&heap_of_ints(&vals), 0);
        assert!(s.mcvs.len() <= MAX_MCVS);
    }

    #[test]
    fn distinct_counting() {
        let s = ColumnStats::analyze(&heap_of_ints(&[1, 1, 1, 2, 2, 3]), 0);
        assert_eq!(s.n_distinct, 3);
    }
}
