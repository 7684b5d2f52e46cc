//! Per-column statistics: row counts, distinct counts, min/max, and
//! equi-depth histograms.
//!
//! The optimizer estimates selectivities from these statistics (as a real
//! system's optimizer would), while the executor observes true counts.
//! The gap between the two is the estimation noise the paper's profiling
//! machinery has to tolerate.
//!
//! The values the statistics keep are stored twice. The public
//! [`Value`] fields are what a workload generator draws literals from
//! and what a string column is estimated by (a string's key code is a
//! rank in the heap column's dictionary, which the statistics do not
//! hold). For a fixed-width column the estimator instead compares the
//! same values' key codes ([`colt_storage::KeyCode`]): a literal becomes
//! a code once, through [`literal_code`], and finding its bucket and its
//! MCV is integer compares. Only the comparisons differ — the arithmetic
//! is one body reading one set of numbers — and codes order as
//! `Value::cmp` orders, so either way gives the same estimate **bit for
//! bit** (`crates/catalog/tests/proptest_stats.rs` holds them to it).

use colt_storage::{literal_code, ColumnSlice, HeapTable, KeyCode, Value};
use std::cmp::Ordering;
use std::ops::Bound;

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
    /// The estimate for a value inside `min..=max` that is no MCV: the
    /// uniform share of what the MCVs leave,
    /// `(1 − Σ mcv) / (n_distinct − |mcv|)`.
    rest_eq: f64,
    /// `bounds` and `mcvs` as key codes: `Some` for a fixed-width column
    /// with rows, `None` for strings (their codes need the dictionary)
    /// and for an empty column (nothing to compare).
    codes: Option<Codes>,
}

/// The key codes of the values a fixed-width column's statistics keep.
#[derive(Debug, Clone)]
struct Codes {
    /// An empty column of the column's type: literals resolve against it.
    column: ColumnSlice<'static>,
    /// Code of `bounds[i]`.
    bounds: Vec<u64>,
    /// Code of `mcvs[i].0`.
    mcvs: Vec<u64>,
}

impl Codes {
    /// `None` for a string column.
    fn of(column: ColumnSlice<'_>, bounds: &[Value], mcvs: &[(Value, f64)]) -> Option<Self> {
        let column = match column {
            ColumnSlice::Int(_) => ColumnSlice::Int(&[]),
            ColumnSlice::Float(_) => ColumnSlice::Float(&[]),
            ColumnSlice::Date(_) => ColumnSlice::Date(&[]),
            ColumnSlice::Str { .. } => return None,
        };
        let code = |v: &Value| literal_code(v, column).ok();
        Some(Codes {
            column,
            bounds: bounds.iter().map(code).collect::<Option<_>>()?,
            mcvs: mcvs.iter().map(|(v, _)| code(v)).collect::<Option<_>>()?,
        })
    }
}

/// A literal as the estimator compares it with a column's kept values.
enum Key<'a> {
    /// By its key code, with the codes it meets.
    Code(u64, &'a Codes),
    /// As a [`Value`], with the public fields.
    Value(&'a Value),
    /// A literal of another type than a coded column's: not compared,
    /// `Value`'s cross-type order puts it below every cell…
    Below,
    /// …or above every one.
    Above,
}

/// What a literal equals among a column's values.
enum Hit {
    /// Nothing: it lies outside `min..=max`.
    Outside,
    /// The MCV at this index.
    Mcv(usize),
    /// Possibly one of the other values.
    Rest,
}

/// [`Hit`] of `v` in one key space: `bounds` for the column's least and
/// greatest key, `mcvs` its most common ones.
fn hit_of<'k, K: Ord + 'k>(bounds: &[K], mut mcvs: impl Iterator<Item = &'k K>, v: &K) -> Hit {
    let (Some(min), Some(max)) = (bounds.first(), bounds.last()) else { return Hit::Outside };
    if v < min || v > max {
        return Hit::Outside;
    }
    mcvs.position(|m| m == v).map_or(Hit::Rest, Hit::Mcv)
}

/// The histogram bucket `v` falls into in one key space — `Ok(b)` when
/// `bounds[b] <= v < bounds[b + 1]` — or the fraction of rows `<= v`
/// when it falls outside them all: `Err(0.0)` below the least bound,
/// `Err(1.0)` from the greatest up.
fn bucket_of<K: Ord>(bounds: &[K], v: &K) -> Result<usize, f64> {
    let (Some(min), Some(max)) = (bounds.first(), bounds.last()) else { return Err(0.0) };
    if v < min {
        return Err(0.0);
    }
    if v >= max {
        return Err(1.0);
    }
    let nb = bounds.len() - 1;
    Ok(bounds[1..].partition_point(|hi| hi <= v).min(nb - 1))
}

impl ColumnStats {
    /// Gather statistics for column `column` of `heap` by a full pass
    /// over the data (the reproduction's ANALYZE). What is sorted is the
    /// column's key codes — a string column's ranks — and only the few
    /// values the statistics keep become [`Value`]s.
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
        let cells = heap.column(column);
        let mut stats = match cells {
            Some(ColumnSlice::Int(cells)) => {
                Self::of_sorted(&sorted_codes(cells), |&c| Value::Int(i64::from_code(c)))
            }
            Some(ColumnSlice::Float(cells)) => {
                Self::of_sorted(&sorted_codes(cells), |&c| Value::Float(f64::from_code(c)))
            }
            Some(ColumnSlice::Date(cells)) => {
                Self::of_sorted(&sorted_codes(cells), |&c| Value::Date(i32::from_code(c)))
            }
            Some(ColumnSlice::Str { dict, ranks }) => {
                let string = |&c: &u64| Value::Str(dict[u32::from_code(c) as usize].clone());
                Self::of_sorted(&sorted_codes(ranks), string)
            }
            None => Self::of_sorted::<u64>(&[], |_| Value::Int(0)),
        };
        // The kept values back into the codes they were made from.
        stats.codes = cells
            .filter(|cells| !cells.is_empty())
            .and_then(|cells| Codes::of(cells, &stats.bounds, &stats.mcvs));
        stats
    }

    /// The same statistics without the key codes: every estimate then
    /// compares [`Value`]s, as a string column's always do. This is the
    /// reference the differential tests and `benches/btree.rs` hold the
    /// code-comparing estimates to, bit for bit.
    pub fn comparing_values(&self) -> Self {
        ColumnStats { codes: None, ..self.clone() }
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
        let mcv_mass: f64 = mcvs.iter().map(|(_, f)| f).sum();
        let rest = (n_distinct as usize).saturating_sub(mcvs.len()).max(1);
        ColumnStats {
            row_count,
            n_distinct,
            min: sorted.first().map(&value),
            max: sorted.last().map(&value),
            bounds,
            mcvs,
            rest_eq: ((1.0 - mcv_mass) / rest as f64).max(0.0),
            codes: None,
        }
    }

    /// Resolve a literal for comparison, once per estimate.
    fn key<'a>(&'a self, v: &'a Value) -> Key<'a> {
        let Some(codes) = &self.codes else { return Key::Value(v) };
        match literal_code(v, codes.column) {
            Ok(code) => Key::Code(code, codes),
            Err(Ordering::Less) => Key::Below,
            Err(_) => Key::Above,
        }
    }

    /// [`ColumnStats::selectivity_eq`] of the literal `key` was made from.
    fn eq_at(&self, key: &Key<'_>) -> f64 {
        let hit = match key {
            Key::Code(code, codes) => hit_of(&codes.bounds, codes.mcvs.iter(), code),
            Key::Value(v) => hit_of(&self.bounds, self.mcvs.iter().map(|(m, _)| m), v),
            Key::Below | Key::Above => Hit::Outside,
        };
        match hit {
            Hit::Outside => 0.0,
            Hit::Mcv(i) => self.mcvs[i].1,
            Hit::Rest => self.rest_eq,
        }
    }

    /// [`ColumnStats::selectivity_le`] of `v`, the literal `key` was made
    /// from (its bucket is found by `key`, its place inside by `v`).
    fn le_at(&self, key: &Key<'_>, v: &Value) -> f64 {
        let bucket = match key {
            Key::Code(code, codes) => bucket_of(&codes.bounds, code),
            Key::Value(v) => bucket_of(&self.bounds, v),
            Key::Below => Err(0.0),
            Key::Above => Err(1.0),
        };
        let b = match bucket {
            Ok(b) => b,
            Err(edge) => return edge,
        };
        let nb = self.bounds.len() - 1;
        let (lof, hif, vf) = (self.bounds[b].as_f64(), self.bounds[b + 1].as_f64(), v.as_f64());
        let within = if hif > lof { ((vf - lof) / (hif - lof)).clamp(0.0, 1.0) } else { 1.0 };
        ((b as f64) + within) / nb as f64
    }

    /// Estimated fraction of rows with value equal to `v`.
    ///
    /// Checks the MCV list first (exact frequencies for the skewed
    /// head); everything else uses the uniform assumption over the
    /// remaining mass: `(1 − Σ mcv) / (n_distinct − |mcv|)`.
    pub fn selectivity_eq(&self, v: &Value) -> f64 {
        self.eq_at(&self.key(v))
    }

    /// Estimated fraction of rows with value `<= v` (inclusive upper
    /// bound), interpolated within the histogram bucket containing `v`.
    pub fn selectivity_le(&self, v: &Value) -> f64 {
        self.le_at(&self.key(v), v)
    }

    /// Estimated fraction of rows in the closed-open interval
    /// `[lo, hi)`; either side may be unbounded.
    pub fn selectivity_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> f64 {
        fn open(side: Option<&Value>) -> Bound<&Value> {
            side.map_or(Bound::Unbounded, Bound::Excluded)
        }
        self.selectivity_between(open(lo), open(hi))
    }

    /// Estimated fraction of rows a range predicate keeps, as the
    /// optimizer prices it: the closed-open fraction of
    /// [`ColumnStats::selectivity_range`], plus the equality estimate of
    /// each [`Bound::Included`] literal. Each literal is resolved and
    /// looked up once.
    pub fn selectivity_between(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> f64 {
        // Rows below the bound, and rows at it when it is inclusive.
        let side = |bound: Bound<&Value>, unbounded: f64| {
            let (v, inclusive) = match bound {
                Bound::Included(v) => (v, true),
                Bound::Excluded(v) => (v, false),
                Bound::Unbounded => return (unbounded, None),
            };
            let key = self.key(v);
            let eq = self.eq_at(&key);
            (self.le_at(&key, v) - eq, inclusive.then_some(eq))
        };
        let (below_lo, at_lo) = side(lo, 0.0);
        let (below_hi, at_hi) = side(hi, 1.0);
        let mut sel = (below_hi - below_lo).clamp(0.0, 1.0);
        for at in [at_lo, at_hi].into_iter().flatten() {
            sel += at;
        }
        sel
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
    fn fixed_width_columns_with_rows_keep_codes() {
        use colt_storage::{literal_code, ValueType};
        let mut heap = HeapTable::new(&[ValueType::Date, ValueType::Float, ValueType::Str, ValueType::Int]);
        let empty = ColumnStats::analyze(&heap, 0);
        assert!(empty.codes.is_none(), "nothing to compare");
        for i in 0..500 {
            let skewed = if i % 3 == 0 { 7 } else { i };
            let cells =
                vec![Value::Date(skewed), Value::Float(f64::from(skewed) / 4.0), Value::Str(format!("s{skewed}")), Value::Int(i64::from(skewed))];
            heap.insert(row_from(cells)).unwrap();
        }
        for (column, vtype) in [(0, ValueType::Date), (1, ValueType::Float), (3, ValueType::Int)] {
            let stats = ColumnStats::analyze(&heap, column);
            let codes = stats.codes.as_ref().expect("a fixed-width column with rows");
            assert_eq!(codes.column.value_type(), vtype);
            let code = |v: &Value| literal_code(v, codes.column).unwrap();
            assert_eq!(codes.bounds, stats.bounds.iter().map(code).collect::<Vec<_>>());
            assert!(!stats.mcvs.is_empty());
            assert_eq!(codes.mcvs, stats.mcvs.iter().map(|(v, _)| code(v)).collect::<Vec<_>>());
            assert!(stats.comparing_values().codes.is_none());
        }
        assert!(ColumnStats::analyze(&heap, 2).codes.is_none(), "strings have no code");
    }

    #[test]
    fn distinct_counting() {
        let s = ColumnStats::analyze(&heap_of_ints(&[1, 1, 1, 2, 2, 3]), 0);
        assert_eq!(s.n_distinct, 3);
    }
}
