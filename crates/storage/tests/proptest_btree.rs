//! Randomized property tests: the B+ tree must agree with a
//! sorted-vector reference model for every lookup and range scan, and
//! with a walk over [`bulk_shape`]'s leaf partition, entry by entry, on
//! every charge; a tree keyed by `u64` key codes must answer — row ids
//! and charges — as the `Value`-keyed tree over the same cells does.
//! Cases are generated from the in-repo seeded PRNG, so every run checks
//! the same inputs.

use colt_storage::btree::{bulk_shape, BulkShape};
use colt_storage::page::IoStats;
use colt_storage::row::RowId;
use colt_storage::value::{Value, ValueType};
use colt_storage::{BPlusTree, BPlusTreeOf, KeyCode, Prng, TreeKey, PAGE_SIZE};
use std::cmp::Ordering;
use std::ops::{Bound, RangeBounds};

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

/// Load arbitrary (key, rowid) pairs into a deep tree; every point
/// lookup agrees with the reference model.
#[test]
fn lookups_match_reference() {
    let mut rng = Prng::new(0xB7EE_0001);
    for case in 0..CASES {
        let entries = entries(&mut rng, 600, 200, 10_000);
        let probes: Vec<i64> =
            (0..rng.below(40)).map(|_| rng.int_range(0, 219)).collect();

        // The smallest order a key width gives, 8: 7 entries a leaf.
        let tree = BPlusTree::bulk_load(
            PAGE_SIZE,
            entries.iter().map(|&(k, r)| (Value::Int(k), RowId(r))).collect(),
        );
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

/// The leaves [`bulk_shape`] promises over `entries`: `fill` entries
/// each and the rest in the last — unless that is under half a leaf,
/// when the last two share so the last holds `fill / 2`.
fn leaf_partition<T>(entries: &[T], width: usize) -> Vec<&[T]> {
    let BulkShape { fill, leaves, .. } = bulk_shape(entries.len(), width);
    let mut sizes = vec![fill; leaves];
    sizes[leaves - 1] = entries.len() - (leaves - 1) * fill;
    if let [.., second_last, last] = &mut sizes[..] {
        if *last < fill / 2 {
            *second_last -= fill / 2 - *last;
            *last = fill / 2;
        }
    }
    let mut rest = entries;
    let split = |size| {
        let (leaf, tail) = rest.split_at(size);
        rest = tail;
        leaf
    };
    sizes.into_iter().map(split).collect()
}

/// A scan the slow way, over that partition: descend to the last leaf
/// whose first entry is not above `(lo, RowId(0))`, a random page per
/// level, then read on entry by entry, a sequential page per further
/// leaf, up to the first key beyond `hi`, keeping the keys not below
/// `lo`.
fn walk<K: TreeKey>(entries: &[(K, RowId)], width: usize, lo: Bound<&K>, hi: Bound<&K>) -> (Vec<RowId>, IoStats) {
    let leaves = leaf_partition(entries, width);
    let not_above = |leaf: &&[(K, RowId)], k: &K| leaf.first().is_some_and(|(f, r)| (f, *r) <= (k, RowId(0)));
    let landed = match lo {
        Bound::Included(k) | Bound::Excluded(k) => leaves.iter().rposition(|leaf| not_above(leaf, k)),
        Bound::Unbounded => None,
    };
    let height = bulk_shape(entries.len(), width).height as u64;
    let (mut out, mut io) = (Vec::new(), IoStats { random_pages: height, ..IoStats::new() });
    'scan: for (i, leaf) in leaves[landed.unwrap_or(0)..].iter().enumerate() {
        io.seq_pages += u64::from(i > 0);
        for (k, rid) in leaf.iter() {
            if !(Bound::Unbounded, hi).contains(k) {
                break 'scan;
            }
            if (lo, Bound::Unbounded).contains(k) {
                out.push(*rid);
            }
        }
    }
    io.cpu_ops = out.len() as u64;
    (out, io)
}

/// The row ids a probe appends and what it charges, from empty buffers.
fn probed(probe: impl FnOnce(&mut Vec<RowId>, &mut IoStats)) -> (Vec<RowId>, IoStats) {
    let (mut ids, mut io) = (Vec::new(), IoStats::new());
    probe(&mut ids, &mut io);
    (ids, io)
}

/// Every scan of a bulk-loaded tree — a `Value` tree's lookups and
/// ranges, a cell-code tree's probes by resolved key codes — returns and
/// charges what the walk over the leaf partition does: on the empty
/// tree, one leaf, the last two leaves sharing, duplicate runs over more
/// than two leaves, and every bound shape, `lo > hi` included.
#[test]
fn scans_match_the_leaf_partition_walk() {
    let mut rng = Prng::new(0xB7EE_0006);
    for case in 0..4 * CASES as usize {
        // Leaves of 7, 17, 63 and 334 entries.
        let width = [PAGE_SIZE, 400, 100, 8][case % 4];
        let fill = bulk_shape(0, width).fill;
        let len = match rng.below(6) {
            0 => rng.below(2),
            1 => rng.below(fill + 1),
            // The last two leaves share (unless the remainder is 0).
            2 => fill * (1 + rng.below(4)) + rng.below(fill / 2),
            _ => rng.below(8 * fill),
        };
        // Half the cases draw from three cells at most: runs of
        // duplicates over more than two leaves.
        let distinct = if case % 8 < 4 { 1 + rng.below_u64(3) } else { 1 + len as u64 };
        let mut cells: Vec<u32> = (0..len).map(|_| rng.below_u64(distinct + 1) as u32).collect();
        cells.sort_unstable();
        // Row 0 starts its cell's run, in every other case at a leaf
        // start: the descent to `(c, RowId(0))` then lands a leaf past
        // the one holding the cells below `c`.
        let zero = if case % 2 == 0 { fill * rng.below(len.div_ceil(fill).max(1)) } else { 0 };
        cells.iter_mut().skip(zero).for_each(|c| *c += 1);
        let row = |i: usize| RowId(if i < zero { i + 1 } else if i == zero { 0 } else { i } as u32);
        let cells: Vec<(u32, RowId)> = cells.into_iter().enumerate().map(|(i, c)| (c, row(i))).collect();
        let zero_code = cells.get(zero).map_or(1, |&(c, _)| c.code());
        // Cell `c` is the value `c`; key code `q` the value
        // `(q - 1) / 2`: a cell when `q` is odd, else between two.
        let values: Vec<(Value, RowId)> = cells.iter().map(|&(c, rid)| (Value::Float(c.into()), rid)).collect();
        let value = |q: u64| Value::Float((q as f64 - 1.0) / 2.0);
        let codes = BPlusTreeOf::bulk_load(width, cells);
        let tree = BPlusTree::bulk_load(width, values.clone());
        let shape = bulk_shape(len, width);
        assert_eq!((tree.page_count(), tree.height()), (shape.pages, shape.height), "case {case}");
        assert_eq!((codes.page_count(), codes.height()), (shape.pages, shape.height), "case {case}");
        let walked = |lo: Bound<&Value>, hi: Bound<&Value>| walk(&values, width, lo, hi);
        // No cell can match: the scan for the codes below the lowest.
        let nothing = walked(Bound::Unbounded, Bound::Excluded(&Value::Float(-1.0)));
        assert_eq!(probed(|ids, io| codes.range_codes_into(None, ids, io)), nothing, "case {case}");
        assert_eq!(probed(|ids, io| codes.lookup_code_into(Err(Ordering::Less), ids, io)), nothing, "case {case}");

        for _ in 0..12 {
            let mut code = || if rng.below(3) == 0 { zero_code } else { rng.below_u64(2 * distinct + 7) };
            let (lo_q, hi_q) = (code(), code());
            let (lo, hi) = (value(lo_q), value(hi_q));
            let what = format!("case {case}: {len} entries, {fill} a leaf, codes {lo_q}..={hi_q}");

            let point = walked(Bound::Included(&lo), Bound::Included(&lo));
            assert_eq!(probed(|ids, io| ids.extend(tree.lookup(&lo, io))), point, "{what}");
            assert_eq!(probed(|ids, io| codes.lookup_code_into(Ok(lo_q), ids, io)), point, "{what}");
            let closed = walked(Bound::Included(&lo), Bound::Included(&hi));
            assert_eq!(probed(|ids, io| codes.range_codes_into(Some((lo_q, hi_q)), ids, io)), closed, "{what}");
            let shapes = [Bound::Included(&lo), Bound::Excluded(&lo), Bound::Unbounded];
            for lo in shapes {
                for hi in [Bound::Included(&hi), Bound::Excluded(&hi), Bound::Unbounded] {
                    let got = probed(|ids, io| ids.extend(tree.range(lo, hi, io)));
                    assert_eq!(got, walked(lo, hi), "{what}: {lo:?}..{hi:?}");
                }
            }
        }
    }
}
