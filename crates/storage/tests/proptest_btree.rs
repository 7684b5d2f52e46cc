//! Randomized property tests: the B+ tree must agree with a
//! sorted-vector reference model for every lookup and range scan, and
//! must keep its structural invariants under arbitrary insert
//! sequences; a tree keyed by `u64` key codes must answer — row ids and
//! charges — as the `Value`-keyed tree over the same cells does. Cases
//! are generated from the in-repo seeded PRNG, so every run checks the
//! same inputs.

use colt_storage::page::IoStats;
use colt_storage::row::RowId;
use colt_storage::value::{Value, ValueType};
use colt_storage::{BPlusTree, BPlusTreeOf, KeyCode, Prng};
use std::ops::Bound;

const CASES: u64 = 64;

fn reference_range(model: &[(i64, u32)], lo: Bound<i64>, hi: Bound<i64>) -> Vec<RowId> {
    let in_lo = |k: i64| match lo {
        Bound::Included(b) => k >= b,
        Bound::Excluded(b) => k > b,
        Bound::Unbounded => true,
    };
    let in_hi = |k: i64| match hi {
        Bound::Included(b) => k <= b,
        Bound::Excluded(b) => k < b,
        Bound::Unbounded => true,
    };
    let mut out: Vec<(i64, u32)> =
        model.iter().copied().filter(|&(k, _)| in_lo(k) && in_hi(k)).collect();
    out.sort_unstable();
    out.into_iter().map(|(_, r)| RowId(r)).collect()
}

/// Model key `k` as a cell of `vtype` and the cell's key code. The map
/// is monotone; `i64::MIN` / `i64::MAX` stand for the type's extremes
/// (code `u64::MIN` / `u64::MAX` for the 64-bit types).
fn cell(vtype: ValueType, k: i64) -> (Value, u64) {
    match vtype {
        ValueType::Float => {
            let x = match k {
                i64::MIN => f64::from_code(u64::MIN),
                i64::MAX => f64::from_code(u64::MAX),
                _ => (k - 250) as f64 / 4.0,
            };
            (Value::Float(x), x.code())
        }
        ValueType::Date => {
            let x = match k {
                i64::MIN => i32::MIN,
                i64::MAX => i32::MAX,
                _ => (k - 250) as i32,
            };
            (Value::Date(x), x.code().into())
        }
        _ => {
            let x = match k {
                i64::MIN | i64::MAX => k,
                _ => k - 250,
            };
            (Value::Int(x), x.code())
        }
    }
}

/// Random deduplicated (key, rowid) pairs.
fn entries(rng: &mut Prng, max_len: usize, key_hi: i64, row_hi: u32) -> Vec<(i64, u32)> {
    let len = rng.below(max_len + 1);
    let mut out: Vec<(i64, u32)> = (0..len)
        .map(|_| (rng.int_range(0, key_hi - 1), rng.below_u64(row_hi as u64) as u32))
        .collect();
    // Deduplicate exact pairs: indexes never hold the same
    // (value, rowid) twice.
    out.sort_unstable();
    out.dedup();
    out
}

/// Insert arbitrary (key, rowid) pairs; every point lookup agrees with
/// the reference model and invariants hold.
#[test]
fn lookups_match_reference() {
    let mut rng = Prng::new(0xB7EE_0001);
    for case in 0..CASES {
        let entries = entries(&mut rng, 600, 200, 10_000);
        let probes: Vec<i64> =
            (0..rng.below(40)).map(|_| rng.int_range(0, 219)).collect();

        let mut tree = BPlusTree::with_order(8);
        // Insert in a scrambled order to stress splits.
        let mut by_slot: Vec<_> = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (i.wrapping_mul(2654435761) % entries.len().max(1), e))
            .collect();
        by_slot.sort_by_key(|(slot, _)| *slot);
        for (_, &(k, r)) in by_slot {
            tree.insert(Value::Int(k), RowId(r));
        }
        tree.check_invariants();
        assert_eq!(tree.len(), entries.len(), "case {case}");

        for p in probes {
            let mut io = IoStats::new();
            let mut got = tree.lookup(&Value::Int(p), &mut io);
            got.sort();
            let want = reference_range(&entries, Bound::Included(p), Bound::Included(p));
            assert_eq!(got, want, "case {case} probe {p}");
        }
    }
}

/// Range scans with arbitrary bound shapes agree with the model, and
/// the code-keyed tree agrees with the `Value`-keyed one on shape, row
/// ids and every charge.
#[test]
fn ranges_match_reference() {
    let mut rng = Prng::new(0xB7EE_0002);
    for case in 0..CASES {
        // Every other case draws from two keys only: runs of duplicates
        // longer than two leaves (334 or 409 entries each).
        let (max_len, key_hi) = if case % 2 == 0 { (800, 500) } else { (2_400, 2) };
        let entries = entries(&mut rng, max_len, key_hi, 100_000);
        let vtype = [ValueType::Int, ValueType::Float, ValueType::Date][case as usize / 2 % 3];
        let width = vtype.byte_width();
        let tree = BPlusTree::bulk_load(
            width,
            entries.iter().map(|&(k, r)| (cell(vtype, k).0, RowId(r))).collect(),
        );
        let codes = BPlusTreeOf::<u64>::bulk_load(
            width,
            entries.iter().map(|&(k, r)| (cell(vtype, k).1, RowId(r))).collect(),
        );
        tree.check_invariants();
        codes.check_invariants();
        assert_eq!((codes.page_count(), codes.height()), (tree.page_count(), tree.height()));

        for _ in 0..8 {
            // Independent sides, so `lo > hi` is as likely as not.
            let mut side = || {
                let k = match rng.below(10) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => rng.int_range(0, key_hi + 19),
                };
                [Bound::Included(k), Bound::Excluded(k), Bound::Unbounded][rng.below(3)]
            };
            let (lo_b, hi_b) = (side(), side());
            let values = |b: Bound<i64>| b.map(|k| cell(vtype, k).0);
            let (lo, hi) = (values(lo_b), values(hi_b));
            let mut io = IoStats::new();
            let got = tree.range(lo.as_ref(), hi.as_ref(), &mut io);

            let code = |b: Bound<i64>| b.map(|k| cell(vtype, k).1);
            let (lo, hi) = (code(lo_b), code(hi_b));
            let mut code_io = IoStats::new();
            let code_got = codes.range(lo.as_ref(), hi.as_ref(), &mut code_io);
            assert_eq!((&code_got, code_io), (&got, io), "case {case}: {vtype:?} {lo_b:?}..{hi_b:?}");

            let mut got = got;
            got.sort();
            let mut want = reference_range(&entries, lo_b, hi_b);
            want.sort();
            assert_eq!(got, want, "case {case}");
        }
    }
}

/// Bulk load and incremental insert build equivalent trees.
#[test]
fn bulk_equals_incremental() {
    let mut rng = Prng::new(0xB7EE_0003);
    for case in 0..CASES {
        let entries = entries(&mut rng, 500, 300, 1_000);
        let pairs: Vec<_> = entries.iter().map(|&(k, r)| (Value::Int(k), RowId(r))).collect();
        let bulk = BPlusTree::bulk_load(8, pairs.clone());
        let mut incr = BPlusTree::new(8);
        for (k, r) in pairs {
            incr.insert(k, r);
        }
        bulk.check_invariants();
        incr.check_invariants();
        let a: Vec<_> = bulk.iter().map(|(k, r)| (k.clone(), r)).collect();
        let b: Vec<_> = incr.iter().map(|(k, r)| (k.clone(), r)).collect();
        assert_eq!(a, b, "case {case}");
    }
}

/// I/O charging is sane: descent cost equals tree height and long scans
/// charge at least one page per full leaf traversed.
#[test]
fn io_charging_bounds() {
    let mut rng = Prng::new(0xB7EE_0004);
    for case in 0..CASES {
        let n = 1 + rng.below(4999);
        let entries: Vec<_> = (0..n).map(|i| (Value::Int(i as i64), RowId(i as u32))).collect();
        let tree = BPlusTree::bulk_load(8, entries);
        let mut io = IoStats::new();
        tree.lookup(&Value::Int((n / 2) as i64), &mut io);
        assert_eq!(io.random_pages, tree.height() as u64, "case {case}");

        let mut io = IoStats::new();
        let all = tree.range(Bound::Unbounded, Bound::Unbounded, &mut io);
        assert_eq!(all.len(), n, "case {case}");
        assert!(
            io.seq_pages as usize + 1 >= tree.page_count().saturating_sub(tree.height() * 2),
            "case {case}"
        );
    }
}
