//! Randomized property tests for the build paths that read typed heap
//! columns: an index build and ANALYZE sort key codes (a string
//! column's dictionary ranks), and must come out exactly as if they had
//! sorted `Value`s by `Value::cmp`. Cases come from the in-repo seeded PRNG.

use colt_catalog::{build_index, ColRef, ColumnStats, TableId, HISTOGRAM_BUCKETS};
use colt_storage::{
    code_bound, literal_code, row_from, BPlusTreeOf, ColumnSlice, HeapTable, IoStats, KeyCode, Prng,
    RowId, Value, ValueType,
};
use std::ops::Bound;

const TYPES: [ValueType; 4] = [ValueType::Int, ValueType::Float, ValueType::Str, ValueType::Date];

/// A value of `vtype` from a small domain — so duplicates are common —
/// that includes the type's extremes, negative floats, both zeros and
/// both NaN signs.
fn value(rng: &mut Prng, vtype: ValueType) -> Value {
    match vtype {
        ValueType::Int => match rng.below(8) {
            0 => Value::Int(i64::MIN),
            1 => Value::Int(i64::MAX),
            _ => Value::Int(rng.int_range(-20, 20)),
        },
        ValueType::Float => match rng.below(10) {
            0 => Value::Float(f64::NAN),
            1 => Value::Float(-f64::NAN),
            2 => Value::Float(-0.0),
            3 => Value::Float(0.0),
            4 => Value::Float(f64::NEG_INFINITY),
            5 => Value::Float(f64::INFINITY),
            _ => Value::Float(rng.int_range(-12, 12) as f64 / 4.0),
        },
        ValueType::Date => match rng.below(8) {
            0 => Value::Date(i32::MIN),
            1 => Value::Date(i32::MAX),
            _ => Value::Date(rng.int_range(-30, 30) as i32),
        },
        ValueType::Str => Value::Str(
            (0..rng.below(4)).map(|_| ["a", "b", "ba", "\u{e9}"][rng.below(4)]).collect(),
        ),
    }
}

/// A one-column heap of `vtype` and its cells as `Value`s, in row order.
fn heap_of(rng: &mut Prng, vtype: ValueType, rows: usize) -> (HeapTable, Vec<Value>) {
    let cells: Vec<Value> = (0..rows).map(|_| value(rng, vtype)).collect();
    let mut heap = HeapTable::new(&[vtype]);
    for v in &cells {
        heap.insert(row_from(vec![v.clone()])).unwrap();
    }
    (heap, cells)
}

/// The entries of an index over `column` in tree order, its codes
/// turned back into the cells they were made from.
fn entries_of(tree: &BPlusTreeOf<u64>, column: ColumnSlice<'_>) -> Vec<(Value, RowId)> {
    tree.check_invariants();
    let cell = |code: u64| match column {
        ColumnSlice::Int(_) => Value::Int(i64::from_code(code)),
        ColumnSlice::Float(_) => Value::Float(f64::from_code(code)),
        ColumnSlice::Str { dict, .. } => Value::Str(dict[u32::from_code(code) as usize].clone()),
        ColumnSlice::Date(_) => Value::Date(i32::from_code(code as u32)),
    };
    tree.iter().map(|(&code, rid)| (cell(code), rid)).collect()
}

/// The code-keyed tree over the heap's one column, bulk-loaded from the
/// `(code, row id)` pairs a comparison sort orders: what `build_index`
/// must build, whatever its sort does.
fn reference_tree(heap: &HeapTable, vtype: ValueType) -> Option<BPlusTreeOf<u64>> {
    fn pairs<T: KeyCode>(cells: &[T]) -> Vec<(u64, RowId)> {
        let mut pairs: Vec<(u64, RowId)> =
            cells.iter().zip(0..).map(|(x, rid)| (x.code().into(), RowId(rid))).collect();
        pairs.sort_unstable();
        pairs
    }
    let entries = match heap.column(0)? {
        ColumnSlice::Int(cells) => pairs(cells),
        ColumnSlice::Float(cells) => pairs(cells),
        ColumnSlice::Date(cells) => pairs(cells),
        ColumnSlice::Str { ranks, .. } => pairs(ranks),
    };
    Some(BPlusTreeOf::bulk_load(vtype.byte_width(), entries))
}

#[test]
fn build_index_equals_the_value_sort() {
    let mut rng = Prng::new(0x1d7);
    for case in 0..60 {
        let vtype = TYPES[case % TYPES.len()];
        let rows = [0, 1, 2, 700, 6_000][case / TYPES.len() % 5] + rng.below(40) * (case % 2);
        let (heap, cells) = heap_of(&mut rng, vtype, rows);

        let mut want: Vec<(Value, RowId)> = cells.into_iter().zip((0..).map(RowId)).collect();
        want.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));

        let (tree, io) = build_index(&heap, ColRef::new(TableId(0), 0), vtype.byte_width());
        let column = heap.column(0).unwrap();
        let got = entries_of(&tree, column);
        // Value's equality is bit-exact for floats, so this also pins
        // NaN signs and the sign of zero.
        assert_eq!(got, want, "{vtype:?}, {rows} rows");
        assert_eq!(io.tuples, rows as u64);
        assert_eq!(io.seq_pages as usize, heap.page_count());

        // The same tree as one loaded from comparison-sorted pairs: its
        // shape, what the build was charged, and every probe's row ids
        // and charges.
        let Some(reference) = reference_tree(&heap, vtype) else { continue };
        assert_eq!((tree.page_count(), tree.height()), (reference.page_count(), reference.height()));
        let n = rows as u64;
        let sort_ops = if n > 1 { n * (64 - n.leading_zeros() as u64) } else { 0 };
        let charged = IoStats {
            seq_pages: heap.page_count() as u64,
            tuples: n,
            cpu_ops: sort_ops,
            pages_written: reference.page_count() as u64,
            ..IoStats::new()
        };
        assert_eq!(io, charged, "{vtype:?}, {rows} rows");
        for _ in 0..6 {
            let (lo, hi) = (value(&mut rng, vtype), value(&mut rng, vtype));
            let probe = |index: &BPlusTreeOf<u64>| {
                let (mut ids, mut io) = (Vec::new(), IoStats::new());
                index.lookup_code_into(literal_code(&lo, column), &mut ids, &mut io);
                let (lo, hi) = (Bound::Included(&lo), Bound::Excluded(&hi));
                let codes = code_bound(lo, column, true).zip(code_bound(hi, column, false));
                index.range_codes_into(codes, &mut ids, &mut io);
                (ids, io)
            };
            assert_eq!(probe(&tree), probe(&reference), "{vtype:?}, {rows} rows, {lo}..{hi}");
        }
    }
    // A column the heap does not have: an empty index, the scan charged.
    let (heap, _) = heap_of(&mut rng, ValueType::Int, 10);
    let (tree, io) = build_index(&heap, ColRef::new(TableId(0), 3), 8);
    assert!(tree.is_empty());
    assert_eq!(io.tuples, 10);
}

#[test]
fn analyze_equals_the_value_sort() {
    let mut rng = Prng::new(0xa7a);
    for case in 0..32 {
        let vtype = TYPES[case % TYPES.len()];
        let rows = [0, 1, 40, 900][case / TYPES.len() % 4];
        let (heap, mut sorted) = heap_of(&mut rng, vtype, rows);
        sorted.sort();
        let stats = ColumnStats::analyze(&heap, 0);

        assert_eq!(stats.row_count, rows as u64);
        assert_eq!(stats.min.as_ref(), sorted.first());
        assert_eq!(stats.max.as_ref(), sorted.last());
        let mut distinct = sorted.clone();
        distinct.dedup();
        assert_eq!(stats.n_distinct, distinct.len() as u64, "{vtype:?}");
        let bounds: Vec<Value> = (0..=HISTOGRAM_BUCKETS)
            .filter(|_| rows > 0)
            .map(|b| sorted[b * (rows - 1) / HISTOGRAM_BUCKETS].clone())
            .collect();
        assert_eq!(stats.bounds, bounds, "{vtype:?}");
        // Every most-common value carries its exact frequency, and the
        // list is ordered by frequency, then value.
        for (v, f) in &stats.mcvs {
            let exact = sorted.iter().filter(|x| *x == v).count() as f64 / rows as f64;
            assert_eq!(*f, exact, "{vtype:?} {v}");
        }
        assert!(stats
            .mcvs
            .windows(2)
            .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
    }
    let (heap, _) = heap_of(&mut rng, ValueType::Date, 5);
    assert_eq!(ColumnStats::analyze(&heap, 4).row_count, 0, "no such column");
}
