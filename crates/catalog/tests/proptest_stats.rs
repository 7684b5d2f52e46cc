//! Randomized property tests for catalog statistics: histogram-based
//! selectivity estimates must be calibrated against exact fractions
//! computed from the data, and must obey basic axioms (bounds,
//! monotonicity). Cases come from the in-repo seeded PRNG.

use colt_catalog::ColumnStats;
use colt_storage::{row_from, HeapTable, Prng, Value, ValueType};

const CASES: u64 = 48;

fn heap_of(values: &[i64]) -> HeapTable {
    let mut h = HeapTable::new(&[ValueType::Int]);
    for &v in values {
        h.insert(row_from(vec![Value::Int(v)])).unwrap();
    }
    h
}

fn values(rng: &mut Prng, lo_len: usize, hi_len: usize, lo: i64, hi: i64) -> Vec<i64> {
    let len = lo_len + rng.below(hi_len - lo_len);
    (0..len).map(|_| rng.int_range(lo, hi - 1)).collect()
}

/// `selectivity_le` stays within [0,1], is monotone in the probe, and
/// tracks the exact fraction within a histogram-resolution tolerance.
#[test]
fn le_estimates_calibrated() {
    let mut rng = Prng::new(0x57A7_0001);
    for case in 0..CASES {
        let mut values = values(&mut rng, 64, 2000, -1000, 1000);
        let probes: Vec<i64> =
            (0..1 + rng.below(19)).map(|_| rng.int_range(-1100, 1099)).collect();

        let stats = ColumnStats::analyze(&heap_of(&values), 0);
        values.sort_unstable();
        let n = values.len() as f64;

        let mut sorted_probes = probes;
        sorted_probes.sort_unstable();
        let mut last_est = 0.0;
        for p in sorted_probes {
            let est = stats.selectivity_le(&Value::Int(p));
            assert!((0.0..=1.0).contains(&est), "case {case}");
            assert!(est + 1e-12 >= last_est, "case {case} monotone: {est} < {last_est}");
            last_est = est;

            let exact = values.partition_point(|&v| v <= p) as f64 / n;
            // Equi-depth histograms bound the error by ~2 buckets plus
            // interpolation error on ties.
            assert!((est - exact).abs() < 0.15, "case {case} probe {p}: est {est} vs exact {exact}");
        }
    }
}

/// Equality estimates: non-negative, ≤ 1, and zero outside the observed
/// domain.
#[test]
fn eq_estimates_bounded() {
    let mut rng = Prng::new(0x57A7_0002);
    for case in 0..CASES {
        let values = values(&mut rng, 1, 1500, 0, 500);
        let probe = rng.int_range(-100, 599);

        let stats = ColumnStats::analyze(&heap_of(&values), 0);
        let est = stats.selectivity_eq(&Value::Int(probe));
        assert!((0.0..=1.0).contains(&est), "case {case}");
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        if probe < min || probe > max {
            assert_eq!(est, 0.0, "case {case}");
        } else {
            assert!(est > 0.0, "case {case}");
        }
    }
}

/// Range selectivity decomposes consistently: `[lo, hi)` plus `[hi, ∞)`
/// plus `(-∞, lo)` covers everything.
#[test]
fn range_partition_sums_to_one() {
    let mut rng = Prng::new(0x57A7_0003);
    for case in 0..CASES {
        let values = values(&mut rng, 64, 1500, 0, 1000);
        let a = rng.int_range(0, 999);
        let b = rng.int_range(0, 999);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let stats = ColumnStats::analyze(&heap_of(&values), 0);
        let lo_v = Value::Int(lo);
        let hi_v = Value::Int(hi);
        let below = stats.selectivity_range(None, Some(&lo_v));
        let mid = stats.selectivity_range(Some(&lo_v), Some(&hi_v));
        let above = stats.selectivity_range(Some(&hi_v), None);
        let lo_pt = stats.selectivity_eq(&lo_v);
        let hi_pt = stats.selectivity_eq(&hi_v);
        let total = below + lo_pt + mid + hi_pt + above;
        assert!((total - 1.0).abs() < 0.05, "case {case} partition total {total}");
    }
}

/// Distinct counts are exact for sorted deduplication.
#[test]
fn distinct_count_exact() {
    let mut rng = Prng::new(0x57A7_0004);
    for case in 0..CASES {
        let len = rng.below(500);
        let values: Vec<i64> = (0..len).map(|_| rng.int_range(0, 99)).collect();
        let stats = ColumnStats::analyze(&heap_of(&values), 0);
        let mut v = values.clone();
        v.sort_unstable();
        v.dedup();
        assert_eq!(stats.n_distinct, v.len() as u64, "case {case}");
        assert_eq!(stats.row_count, values.len() as u64, "case {case}");
    }
}
