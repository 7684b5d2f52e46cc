//! Randomized property tests for composite indices. A composite index
//! keys each row by its key cells' codes, and a scan for an equality
//! prefix — optionally followed by a range on the next key column — is
//! one `range_codes_into` between a lower and an upper key, resolved
//! against the key columns as the executor's composite scan resolves
//! them (spelled out in [`code_scan`]). Every scan here must return the
//! rows whose cells satisfy the predicates, and read and charge what the
//! same scan of a `Value`-keyed tree over the same cells does. Cases come
//! from the in-repo seeded PRNG, so every run checks the same inputs.

use colt_catalog::{
    build_composite, Column, CompositeKey, Database, MaterializedComposite, TableSchema,
};
use colt_storage::{
    code_interval, literal_code, row_from, BPlusTreeOf, ColumnSlice, IoStats, KeyCode, Prng,
    RowId, Value, ValueType,
};
use std::ops::{Bound, RangeBounds};

const CASES: u64 = 48;

/// A range on the key column after the prefix.
type Next<'v> = Option<(Bound<&'v Value>, Bound<&'v Value>)>;

/// Rows, a composite index over all their columns in order, and the
/// `Value`-keyed tree over the same cells.
struct Fixture {
    db: Database,
    index: MaterializedComposite,
    reference: BPlusTreeOf<Vec<Value>>,
    rows: Vec<Vec<Value>>,
}

impl Fixture {
    fn new(types: &[ValueType], rows: Vec<Vec<Value>>) -> Self {
        let mut db = Database::new();
        let columns = (types.iter().enumerate()).map(|(i, &t)| Column::new(format!("c{i}"), t));
        let t = db.add_table(TableSchema::new("t", columns.collect()));
        db.insert_rows(t, rows.iter().map(|row| row_from(row.clone()))).unwrap();
        db.analyze_all();
        let key = CompositeKey::new(t, (0..types.len() as u32).collect());
        let index = build_composite(&db, &key);
        let mut entries: Vec<(Vec<Value>, RowId)> =
            rows.iter().cloned().zip((0..).map(RowId)).collect();
        entries.sort();
        let reference = BPlusTreeOf::bulk_load(key.key_width(&db), entries);
        index.tree.check_invariants();
        let (codes, values) = (&index.tree, &reference);
        assert_eq!(
            (codes.len(), codes.page_count(), codes.height()),
            (values.len(), values.page_count(), values.height())
        );
        Fixture { db, index, reference, rows }
    }

    /// Scan for `prefix` and `next`: the rows must be those the heap
    /// filter keeps, and rows and charges those of the reference tree's
    /// scan — unless the resolver finds no cell can match, which pays
    /// one descent. Returns the row count and whether it resolved.
    fn check(&self, prefix: &[Value], next: Next<'_>, what: &str) -> (usize, bool) {
        let heap = &self.db.table(self.index.key.table).heap;
        let width = self.index.key.columns.len();
        let columns: Vec<ColumnSlice<'_>> = (0..width).map(|c| heap.column(c).unwrap()).collect();
        let (got, resolved) = code_scan(&self.index, &columns, prefix, next);

        let mut want: Vec<RowId> = (self.rows.iter().zip((0..).map(RowId)))
            .filter(|(row, _)| row[..prefix.len()] == *prefix)
            .filter(|(row, _)| next.is_none_or(|range| range.contains(&row[prefix.len()])))
            .map(|(_, rid)| rid)
            .collect();
        let mut rows = got.0.clone();
        rows.sort();
        want.sort();
        assert_eq!(rows, want, "{what}: rows");

        if resolved {
            assert_eq!(got, value_scan(&self.reference, columns.len(), prefix, next), "{what}");
        } else {
            let height = self.index.tree.height() as u64;
            let descent = IoStats { random_pages: height, ..IoStats::new() };
            assert_eq!(got, (Vec::new(), descent), "{what}: one descent");
        }
        (want.len(), resolved)
    }
}

/// The composite scan: the lower key is the prefix's codes, then the low
/// end of the range's closed code interval; the upper key ends in its
/// high end instead, padded with `u64::MAX` to the key's width. `false`
/// when a literal resolves to nothing (one of another type in the
/// prefix, or a range side no cell can satisfy).
fn code_scan(
    index: &MaterializedComposite,
    columns: &[ColumnSlice<'_>],
    prefix: &[Value],
    next: Next<'_>,
) -> ((Vec<RowId>, IoStats), bool) {
    let mut lower = Vec::new();
    let mut matchable = true;
    for (v, &column) in prefix.iter().zip(columns) {
        match literal_code(v, column) {
            Ok(code) => lower.push(code),
            Err(_) => matchable = false,
        }
    }
    let mut upper = lower.clone();
    if let Some((lo, hi)) = next {
        match code_interval(lo, hi, columns[prefix.len()]) {
            Some((lo, hi)) => {
                lower.push(lo);
                upper.push(hi);
            }
            None => matchable = false,
        }
    }
    upper.resize(columns.len(), u64::MAX);
    let (mut out, mut io) = (Vec::new(), IoStats::new());
    let bounds = matchable.then_some((Bound::Included(lower), Bound::Included(upper)));
    index.tree.range_codes_into(bounds, &mut out, &mut io);
    ((out, io), matchable)
}

/// The same scan of the `Value`-keyed tree: the prefix, extended by the
/// range's low end, below; the prefix and its high end — padded with
/// the greatest value of any type for an inclusive one — above.
///
/// The charge rule for an exclusive lower bound: the code scan starts
/// from the adjacent code, so it charges as the scan from the next value
/// up (`successor`) — its descent passes the keys equal to the bound,
/// which a scan from the bound itself would read through, leaf by leaf.
/// An exclusive upper bound charges as itself: both stop at the first
/// key that reaches it.
fn value_scan(
    tree: &BPlusTreeOf<Vec<Value>>,
    width: usize,
    prefix: &[Value],
    next: Next<'_>,
) -> (Vec<RowId>, IoStats) {
    let (mut lower, mut upper) = (prefix.to_vec(), prefix.to_vec());
    let mut inclusive = true;
    if let Some((lo, hi)) = next {
        match lo {
            Bound::Included(v) => lower.push(v.clone()),
            Bound::Excluded(v) => lower.push(successor(v)),
            Bound::Unbounded => {}
        }
        match hi {
            Bound::Included(v) => upper.push(v.clone()),
            Bound::Excluded(v) => {
                upper.push(v.clone());
                inclusive = false;
            }
            Bound::Unbounded => {}
        }
    }
    let hi = if inclusive {
        upper.resize(width, Value::Date(i32::MAX));
        Bound::Included(&upper)
    } else {
        Bound::Excluded(&upper)
    };
    let mut io = IoStats::new();
    (tree.range(Bound::Included(&lower), hi, &mut io), io)
}

/// The least value above `v` (`v` is no type's greatest).
fn successor(v: &Value) -> Value {
    match v {
        Value::Int(x) => Value::Int(x + 1),
        Value::Float(x) => Value::Float(f64::from_code(x.code() + 1)),
        Value::Date(x) => Value::Date(x + 1),
        Value::Str(s) => Value::Str(format!("{s}\0")),
    }
}

fn int_rows(rng: &mut Prng, max_len: usize, domains: &[i64]) -> Vec<Vec<Value>> {
    let len = rng.below(max_len + 1);
    let row = |rng: &mut Prng| domains.iter().map(|&hi| Value::Int(rng.int_range(0, hi - 1))).collect();
    (0..len).map(|_| row(rng)).collect()
}

fn opt_bound(rng: &mut Prng, hi: i64) -> Bound<Value> {
    match rng.below(4) {
        0 | 1 => Bound::Unbounded,
        2 => Bound::Included(Value::Int(rng.int_range(0, hi - 1))),
        _ => Bound::Excluded(Value::Int(rng.int_range(0, hi - 1))),
    }
}

/// Full-prefix and partial-prefix scans agree with direct filtering.
#[test]
fn prefix_scan_matches_filter() {
    let mut rng = Prng::new(0xC04B_0001);
    for case in 0..CASES {
        let f = Fixture::new(&[ValueType::Int; 2], int_rows(&mut rng, 600, &[12, 15]));
        let prefix = [Value::Int(rng.int_range(0, 13)), Value::Int(rng.int_range(0, 16))];
        let k = 1 + rng.below(2);
        f.check(&prefix[..k], None, &format!("case {case}"));
    }
}

/// Prefix + range on the next column agrees with direct filtering for
/// every bound shape.
#[test]
fn prefix_plus_range_matches_filter() {
    let mut rng = Prng::new(0xC04B_0002);
    for case in 0..CASES {
        let f = Fixture::new(&[ValueType::Int; 2], int_rows(&mut rng, 600, &[10, 30]));
        let pa = Value::Int(rng.int_range(0, 11));
        let (lo, hi) = (opt_bound(&mut rng, 32), opt_bound(&mut rng, 32));
        f.check(&[pa], Some((lo.as_ref(), hi.as_ref())), &format!("case {case}"));
    }
}

/// Three-column composites: scans keyed by any prefix length agree with
/// filtering.
#[test]
fn three_column_prefixes() {
    let mut rng = Prng::new(0xC04B_0003);
    for case in 0..CASES {
        let f = Fixture::new(&[ValueType::Int; 3], int_rows(&mut rng, 400, &[6, 6, 6]));
        let full = [0, 0, 0].map(|_| Value::Int(rng.int_range(0, 6)));
        let k = 1 + rng.below(3);
        f.check(&full[..k], None, &format!("case {case}"));
    }
}

/// A few values per type, so prefixes repeat; `literal` may also pick
/// one of `extra`, which no cell holds (a string the dictionary lacks).
fn domain(vtype: ValueType) -> (Vec<Value>, Vec<Value>) {
    let (cells, extra): (Vec<Value>, Vec<Value>) = match vtype {
        ValueType::Int => {
            ([-3, 0, 1, 2, 7].map(Value::Int).into(), [-9, 5, 8].map(Value::Int).into())
        }
        ValueType::Float => (
            [-1.5, -0.0, 0.0, 0.5, 2.25].map(Value::Float).into(),
            [-3.0, 1.0, f64::INFINITY].map(Value::Float).into(),
        ),
        ValueType::Date => {
            ([100, 101, 103, 104].map(Value::Date).into(), [99, 102, 110].map(Value::Date).into())
        }
        ValueType::Str => (
            ["b", "bb", "c", "dd"].map(Value::from).into(),
            ["", "a", "bc", "c\0", "z"].map(Value::from).into(),
        ),
    };
    (cells, extra)
}

/// Random mixes of `Int`, `Float`, `Str` and `Date` key columns, two or
/// three wide; prefixes of every length from none to the whole key, with
/// and without a range on the next column (either bound inclusive,
/// exclusive or open, inverted as often as not). Literals are cells,
/// values no cell holds, and now and then one of another type.
#[test]
fn mixed_type_keys_match_the_filter_and_a_value_keyed_tree() {
    const TYPES: [ValueType; 4] =
        [ValueType::Int, ValueType::Float, ValueType::Str, ValueType::Date];
    let mut rng = Prng::new(0xC04B_0004);
    let (mut hits, mut unresolved, mut ranges) = (0, 0, [0; 2]);
    for case in 0..CASES {
        let types: Vec<ValueType> = (0..2 + rng.below(2)).map(|_| TYPES[rng.below(4)]).collect();
        let domains: Vec<_> = types.iter().map(|&t| domain(t)).collect();
        // Up to ~12 leaves: runs of equal prefixes span several.
        let len = 1 + rng.below(3_000);
        let pick = |rng: &mut Prng, cells: &[Value]| cells[rng.below(cells.len())].clone();
        let rows = (0..len).map(|_| domains.iter().map(|(cells, _)| pick(&mut rng, cells)).collect());
        let f = Fixture::new(&types, rows.collect());

        let literal = |rng: &mut Prng, c: usize| -> Value {
            let (cells, extra) = &domains[c];
            match rng.below(20) {
                0 if types[c] == ValueType::Int => Value::from("x"),
                0 => Value::Int(0),
                1..=5 => extra[rng.below(extra.len())].clone(),
                _ => cells[rng.below(cells.len())].clone(),
            }
        };
        for probe in 0..24 {
            let k = rng.below(types.len() + 1);
            let prefix: Vec<Value> = (0..k).map(|c| literal(&mut rng, c)).collect();
            let bound = |rng: &mut Prng| match rng.below(5) {
                0 => Bound::Unbounded,
                1 | 2 => Bound::Included(literal(rng, k)),
                _ => Bound::Excluded(literal(rng, k)),
            };
            let ranged = k < types.len() && rng.chance(0.6);
            let range = ranged.then(|| (bound(&mut rng), bound(&mut rng)));
            let next = range.as_ref().map(|(lo, hi)| (lo.as_ref(), hi.as_ref()));
            let what = format!("case {case} probe {probe}: {types:?} {prefix:?} {next:?}");
            let (rows, resolved) = f.check(&prefix, next, &what);
            hits += rows;
            unresolved += usize::from(!resolved);
            if let Some((lo, _)) = next {
                ranges[usize::from(matches!(lo, Bound::Excluded(_)))] += 1;
            }
        }
    }
    // Every kind of case occurred: matches, one-descent scans, and
    // ranges from inclusive and exclusive lower bounds.
    let counts = format!("{hits} rows, {unresolved} unresolved, {ranges:?} ranges");
    assert!(hits > 0 && unresolved > 0 && ranges.iter().all(|&n| n > 0), "{counts}");
}
