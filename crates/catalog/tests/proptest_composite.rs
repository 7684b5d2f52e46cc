//! Randomized property tests for composite indices: prefix scans must
//! agree with a direct filter over the heap for arbitrary data,
//! prefixes, and range bounds. Cases come from the in-repo seeded PRNG,
//! so every run checks the same inputs.

use colt_catalog::{build_composite, prefix_scan, Column, CompositeKey, Database, TableSchema};
use colt_storage::{row_from, IoStats, Prng, Value, ValueType};
use std::ops::Bound;

const CASES: u64 = 48;

fn build_db(rows: &[(i64, i64, i64)]) -> (Database, colt_catalog::TableId) {
    let mut db = Database::new();
    let t = db.add_table(TableSchema::new(
        "t",
        vec![
            Column::new("a", ValueType::Int),
            Column::new("b", ValueType::Int),
            Column::new("c", ValueType::Int),
        ],
    ));
    db.insert_rows(
        t,
        rows.iter().map(|&(a, b, c)| row_from(vec![Value::Int(a), Value::Int(b), Value::Int(c)])),
    ).unwrap();
    db.analyze_all();
    (db, t)
}

fn rows(rng: &mut Prng, max_len: usize, a_hi: i64, b_hi: i64, c_hi: i64) -> Vec<(i64, i64, i64)> {
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| {
            (rng.int_range(0, a_hi - 1), rng.int_range(0, b_hi - 1), rng.int_range(0, c_hi - 1))
        })
        .collect()
}

fn opt_bound(rng: &mut Prng, hi: i64) -> Option<(i64, bool)> {
    if rng.chance(0.5) {
        Some((rng.int_range(0, hi - 1), rng.chance(0.5)))
    } else {
        None
    }
}

fn map_bound(b: Option<(i64, bool)>) -> Bound<Value> {
    match b {
        None => Bound::Unbounded,
        Some((v, true)) => Bound::Included(Value::Int(v)),
        Some((v, false)) => Bound::Excluded(Value::Int(v)),
    }
}

/// Full-prefix and partial-prefix scans agree with direct filtering.
#[test]
fn prefix_scan_matches_filter() {
    let mut rng = Prng::new(0xC04B_0001);
    for case in 0..CASES {
        let rows = rows(&mut rng, 600, 12, 15, 50);
        let pa = rng.int_range(0, 13);
        let pb = rng.int_range(0, 16);
        let prefix_len = 1 + rng.below(2);

        let (db, t) = build_db(&rows);
        let key = CompositeKey::new(t, vec![0, 1]);
        let m = build_composite(&db, &key);

        let prefix: Vec<Value> = match prefix_len {
            1 => vec![Value::Int(pa)],
            _ => vec![Value::Int(pa), Value::Int(pb)],
        };
        let mut io = IoStats::new();
        let mut got = prefix_scan(&m, &prefix, None, &mut io);
        got.sort();

        let mut want: Vec<_> = rows
            .iter()
            .enumerate()
            .filter(|(_, &(a, b, _))| a == pa && (prefix_len == 1 || b == pb))
            .map(|(i, _)| colt_storage::RowId(i as u32))
            .collect();
        want.sort();
        assert_eq!(got, want, "case {case}");
    }
}

/// Prefix + range on the next column agrees with direct filtering for
/// every bound shape.
#[test]
fn prefix_plus_range_matches_filter() {
    let mut rng = Prng::new(0xC04B_0002);
    for case in 0..CASES {
        let rows = rows(&mut rng, 600, 10, 30, 50);
        let pa = rng.int_range(0, 11);
        let lo = opt_bound(&mut rng, 32);
        let hi = opt_bound(&mut rng, 32);

        let (db, t) = build_db(&rows);
        let key = CompositeKey::new(t, vec![0, 1]);
        let m = build_composite(&db, &key);

        let mut io = IoStats::new();
        let mut got = prefix_scan(&m, &[Value::Int(pa)], Some((map_bound(lo), map_bound(hi))), &mut io);
        got.sort();

        let in_lo = |b: i64| match lo {
            None => true,
            Some((v, true)) => b >= v,
            Some((v, false)) => b > v,
        };
        let in_hi = |b: i64| match hi {
            None => true,
            Some((v, true)) => b <= v,
            Some((v, false)) => b < v,
        };
        let mut want: Vec<_> = rows
            .iter()
            .enumerate()
            .filter(|(_, &(a, b, _))| a == pa && in_lo(b) && in_hi(b))
            .map(|(i, _)| colt_storage::RowId(i as u32))
            .collect();
        want.sort();
        assert_eq!(got, want, "case {case}");
    }
}

/// Three-column composites: scans keyed by any prefix length agree with
/// filtering.
#[test]
fn three_column_prefixes() {
    let mut rng = Prng::new(0xC04B_0003);
    for case in 0..CASES {
        let rows = rows(&mut rng, 400, 6, 6, 6);
        let pa = rng.int_range(0, 6);
        let pb = rng.int_range(0, 6);
        let pc = rng.int_range(0, 6);
        let k = 1 + rng.below(3);

        let (db, t) = build_db(&rows);
        let key = CompositeKey::new(t, vec![0, 1, 2]);
        let m = build_composite(&db, &key);
        let full = [Value::Int(pa), Value::Int(pb), Value::Int(pc)];
        let mut io = IoStats::new();
        let mut got = prefix_scan(&m, &full[..k], None, &mut io);
        got.sort();
        let mut want: Vec<_> = rows
            .iter()
            .enumerate()
            .filter(|(_, &(a, b, c))| a == pa && (k < 2 || b == pb) && (k < 3 || c == pc))
            .map(|(i, _)| colt_storage::RowId(i as u32))
            .collect();
        want.sort();
        assert_eq!(got, want, "case {case}");
    }
}
