//! Randomized property tests for catalog statistics: histogram-based
//! selectivity estimates must be calibrated against exact fractions
//! computed from the data, and must obey basic axioms (bounds,
//! monotonicity). Cases come from the in-repo seeded PRNG.

use colt_catalog::ColumnStats;
use colt_storage::{row_from, HeapTable, Prng, Value, ValueType};
use std::ops::Bound;

const CASES: u64 = 48;

fn heap_of(values: &[i64]) -> HeapTable {
    let mut h = HeapTable::new(&[ValueType::Int]);
    for &v in values {
        h.insert(row_from(vec![Value::Int(v)])).unwrap();
    }
    h
}

fn random_ints(rng: &mut Prng, lo_len: usize, hi_len: usize, lo: i64, hi: i64) -> Vec<i64> {
    let len = lo_len + rng.below(hi_len - lo_len);
    (0..len).map(|_| rng.int_range(lo, hi - 1)).collect()
}

/// `selectivity_le` stays within [0,1], is monotone in the probe, and
/// tracks the exact fraction within a histogram-resolution tolerance.
#[test]
fn le_estimates_calibrated() {
    let mut rng = Prng::new(0x57A7_0001);
    for case in 0..CASES {
        let mut values = random_ints(&mut rng, 64, 2000, -1000, 1000);
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
        let values = random_ints(&mut rng, 1, 1500, 0, 500);
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
        let values = random_ints(&mut rng, 64, 1500, 0, 1000);
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

/// The estimator as it stood before statistics kept key codes: every
/// comparison a `Value::cmp`, the MCV mass re-summed per call. Kept
/// here, over the public fields, as the oracle both of today's key
/// spaces must equal bit for bit.
mod seed {
    use super::*;

    pub fn eq(s: &ColumnStats, v: &Value) -> f64 {
        let (Some(min), Some(max)) = (&s.min, &s.max) else { return 0.0 };
        if v < min || v > max || s.n_distinct == 0 {
            return 0.0;
        }
        if let Some((_, f)) = s.mcvs.iter().find(|(m, _)| m == v) {
            return *f;
        }
        let mcv_mass: f64 = s.mcvs.iter().map(|(_, f)| f).sum();
        let rest = (s.n_distinct as usize).saturating_sub(s.mcvs.len()).max(1);
        ((1.0 - mcv_mass) / rest as f64).max(0.0)
    }

    pub fn le(s: &ColumnStats, v: &Value) -> f64 {
        if s.bounds.is_empty() {
            return 0.0;
        }
        let min = &s.bounds[0];
        let max = &s.bounds[s.bounds.len() - 1];
        if v < min {
            return 0.0;
        }
        if v >= max {
            return 1.0;
        }
        let nb = s.bounds.len() - 1;
        let mut b = s.bounds[1..].partition_point(|hi| hi <= v);
        if b >= nb {
            b = nb - 1;
        }
        let (lof, hif, vf) = (s.bounds[b].as_f64(), s.bounds[b + 1].as_f64(), v.as_f64());
        let within = if hif > lof { ((vf - lof) / (hif - lof)).clamp(0.0, 1.0) } else { 1.0 };
        ((b as f64) + within) / nb as f64
    }

    /// `predicate_selectivity`'s range arm, before its final clamp.
    pub fn between(s: &ColumnStats, lo: Bound<&Value>, hi: Bound<&Value>) -> f64 {
        let below = |b: Bound<&Value>, unbounded: f64| match b {
            Bound::Included(v) | Bound::Excluded(v) => le(s, v) - eq(s, v),
            Bound::Unbounded => unbounded,
        };
        let (hi_frac, lo_frac) = (below(hi, 1.0), below(lo, 0.0));
        let mut sel = (hi_frac - lo_frac).clamp(0.0, 1.0);
        if let Bound::Included(v) = lo {
            sel += eq(s, v);
        }
        if let Bound::Included(v) = hi {
            sel += eq(s, v);
        }
        sel
    }
}

/// A column of `vtype` in one of the shapes the estimator branches on
/// (empty, one value, a few heavily repeated values so that MCVs exist,
/// a wide spread) and literals to probe it with: cells of the column,
/// their neighbours, the type's extremes and specials, random values,
/// and one literal of every other type.
fn column_and_literals(vtype: ValueType, rng: &mut Prng) -> (Vec<Value>, Vec<Value>) {
    let special: Vec<Value> = match vtype {
        ValueType::Int => [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX]
            .map(Value::Int)
            .to_vec(),
        ValueType::Date => [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX]
            .map(Value::Date)
            .to_vec(),
        ValueType::Float => {
            [-f64::NAN, f64::NEG_INFINITY, f64::MIN, -1.5, -0.0, 0.0, 1e-300, f64::MAX, f64::INFINITY, f64::NAN]
                .map(Value::Float)
                .to_vec()
        }
        ValueType::Str => ["", "a", "m", "zzzzzzzzz", "\u{10ffff}"].map(Value::from).to_vec(),
    };
    let near = |rng: &mut Prng, spread: i64| -> Value {
        let k = rng.int_range(-spread, spread);
        match vtype {
            ValueType::Int => Value::Int(k),
            ValueType::Date => Value::Date(k as i32),
            ValueType::Float => Value::Float(k as f64 * 0.37),
            ValueType::Str => Value::Str(format!("k{:05}", k + spread)),
        }
    };
    let len = [0, 1, 2, 40, 700][rng.below(5)] + rng.below(3);
    let cells: Vec<Value> = match rng.below(4) {
        // One value (or none).
        0 => vec![near(rng, 50); len.min(1)],
        // Few values, two of them far more common than the rest.
        1 => {
            let domain: Vec<Value> = (0..9).map(|_| near(rng, 30)).collect();
            (0..len).map(|_| domain[[0, 0, 0, 1, 1, rng.below(9)][rng.below(6)]].clone()).collect()
        }
        // A spread with the type's extremes and specials mixed in.
        2 => (0..len)
            .map(|_| if rng.chance(0.2) { special[rng.below(special.len())].clone() } else { near(rng, 5_000) })
            .collect(),
        // Only extremes and specials, repeated.
        _ => (0..len).map(|_| special[rng.below(special.len())].clone()).collect(),
    };
    let mut literals = special;
    literals.extend((0..6).filter_map(|_| Some(cells.get(rng.below(cells.len().max(1)))?.clone())));
    literals.extend((0..6).map(|_| near(rng, 6_000)));
    literals.extend([Value::Int(3), Value::Float(3.0), Value::from("k00030"), Value::Date(3)]);
    (cells, literals)
}

/// Statistics compare a fixed-width column's key codes; a string
/// column's — and [`ColumnStats::comparing_values`]' — compare
/// `Value`s. Over every column shape, predicate shape and literal
/// (same-type, other-type, out of range), both must give the seed
/// formulas' estimate bit for bit: the change of key space is invisible
/// to every plan, gain and decision.
#[test]
fn code_space_estimates_equal_value_space_bit_for_bit() {
    let mut rng = Prng::new(0x57A7_0005);
    let bits = |x: f64| x.to_bits();
    for case in 0..CASES * 4 {
        let vtype = [ValueType::Int, ValueType::Float, ValueType::Date, ValueType::Str][case as usize % 4];
        let (cells, literals) = column_and_literals(vtype, &mut rng);
        let mut heap = HeapTable::new(&[vtype]);
        for cell in &cells {
            heap.insert(row_from(vec![cell.clone()])).unwrap();
        }
        let stats = ColumnStats::analyze(&heap, 0);
        let by_value = stats.comparing_values();
        let what = |shape: &str| format!("case {case}, {vtype:?} × {}: {shape}", cells.len());

        for a in &literals {
            for s in [&stats, &by_value] {
                assert_eq!(bits(s.selectivity_eq(a)), bits(seed::eq(&stats, a)), "{}", what(&format!("= {a}")));
                assert_eq!(bits(s.selectivity_le(a)), bits(seed::le(&stats, a)), "{}", what(&format!("<= {a}")));
            }
        }
        // IN lists are sums of equalities, in list order.
        for _ in 0..8 {
            let list: Vec<&Value> = (0..rng.below(5)).map(|_| &literals[rng.below(literals.len())]).collect();
            let want: f64 = list.iter().map(|v| seed::eq(&stats, v)).sum();
            for s in [&stats, &by_value] {
                let got: f64 = list.iter().map(|v| s.selectivity_eq(v)).sum();
                assert_eq!(bits(got), bits(want), "{}", what(&format!("IN {list:?}")));
            }
        }
        // Every open / closed / unbounded shape of a range.
        let sides = |v| [Bound::Unbounded, Bound::Included(v), Bound::Excluded(v)];
        for _ in 0..24 {
            let (a, b) = (&literals[rng.below(literals.len())], &literals[rng.below(literals.len())]);
            for lo in sides(a) {
                for hi in sides(b) {
                    let want = seed::between(&stats, lo, hi);
                    for s in [&stats, &by_value] {
                        let got = s.selectivity_between(lo, hi);
                        assert_eq!(bits(got), bits(want), "{}", what(&format!("{lo:?}..{hi:?}")));
                    }
                    if let (Bound::Included(_), _) | (_, Bound::Included(_)) = (lo, hi) {
                        continue;
                    }
                    let value = |b| match b {
                        Bound::Excluded(v) => Some(v),
                        _ => None,
                    };
                    let got = stats.selectivity_range(value(lo), value(hi));
                    assert_eq!(bits(got), bits(want), "{}", what("closed-open"));
                }
            }
        }
    }
}
