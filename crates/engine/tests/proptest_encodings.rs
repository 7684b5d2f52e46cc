//! Randomized property test of the heap's column encodings: `Date`
//! days, `Int` offsets from the column's least value, and dictionary
//! ranks for wide `Int`, every `Float` and every `Str` column. Each case
//! appends random batches — through `insert_rows` and single `insert`s,
//! some refused part-way, an `Int` batch that pushes the column's span
//! past 2³² (or to one short of it), `Float` batches with both zeros,
//! both infinities, NaNs of both signs and payloads and subnormals — and
//! after every batch the column must
//! - have the layout its values call for, and keep the rows before a
//!   refused one;
//! - read its values back through `get` and `gather`;
//! - select, count and retain through a compiled `Kernel` exactly the
//!   rows `SelPred::matches` accepts;
//! - answer index lookups and ranges with the rows and `IoStats` of a
//!   `Value`-keyed tree over the same cells;
//! - compare its cells with another column's (of its type, in its own
//!   layout) as `Value` equality does, through `cells_eq` and `code_in`.
//!
//! Cases come from the in-repo seeded PRNG.
#![allow(clippy::unwrap_used, clippy::panic, reason = "test helpers may unwrap and panic")]

use colt_catalog::{build_index, ColRef, TableId};
use colt_engine::{Kernel, PredicateKind, SelPred};
use colt_storage::{
    code_interval, literal_code, row_from, BPlusTree, ColumnSlice, HeapTable, IoStats, Prng, Row,
    RowError, RowId, Value, ValueType,
};
use std::ops::Bound;

const COL: ColRef = ColRef { table: TableId(0), column: 0 };

/// What a case's column holds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Date,
    /// `Int`s around `origin`, spanning far less than 2³².
    NarrowInt { origin: i64 },
    /// `Int`s around `origin`, one batch of which takes the span to
    /// 2³² − 1 (`short`) or 2³².
    WideningInt { origin: i64, short: bool },
    /// `Int`s from both ends of the type: ranked from the first batch.
    WideInt,
    Float,
    Str,
}

impl Kind {
    fn vtype(self) -> ValueType {
        match self {
            Kind::Date => ValueType::Date,
            Kind::NarrowInt { .. } | Kind::WideningInt { .. } | Kind::WideInt => ValueType::Int,
            Kind::Float => ValueType::Float,
            Kind::Str => ValueType::Str,
        }
    }
}

/// Floats the column must order and compare bit for bit.
fn special_floats() -> [f64; 14] {
    let nan_payload = f64::from_bits(0x7ff8_0000_0000_0001);
    [
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        nan_payload,
        -nan_payload,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE / 4.0,
        f64::MIN_POSITIVE,
        1.5,
        -2.25,
    ]
}

/// A value for a case of `kind`, from a small domain around its edges
/// so that values repeat, fall between and outside stored ones.
fn value(kind: Kind, rng: &mut Prng) -> Value {
    match kind {
        Kind::Date => Value::Date(match rng.below(10) {
            0 => i32::MIN,
            1 => i32::MAX,
            _ => rng.int_range(-40, 40) as i32,
        }),
        Kind::NarrowInt { origin } | Kind::WideningInt { origin, .. } => {
            Value::Int(origin + rng.int_range(-300, 300))
        }
        Kind::WideInt => Value::Int(match rng.below(6) {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => rng.int_range(-50, 50) << 40,
        }),
        Kind::Float => {
            let specials = special_floats();
            Value::Float(match rng.below(3) {
                0 => rng.int_range(-8, 8) as f64 / 4.0,
                _ => specials[rng.below(specials.len())],
            })
        }
        Kind::Str => Value::Str(
            (0..rng.below(4)).map(|_| ["a", "b", "\0", "\u{e9}", "zz"][rng.below(5)]).collect(),
        ),
    }
}

/// A literal for a predicate: a stored value, a value of the column's
/// domain, or a value of another type.
fn literal(kind: Kind, model: &[Value], rng: &mut Prng) -> Value {
    match rng.below(6) {
        0 | 1 if !model.is_empty() => model[rng.below(model.len())].clone(),
        0..=3 => value(kind, rng),
        _ => [Value::Int(3), Value::Float(0.5), Value::from("m"), Value::Date(2)][rng.below(4)]
            .clone(),
    }
}

/// A random `Eq` or closed range predicate on the column.
fn predicate(kind: Kind, model: &[Value], rng: &mut Prng) -> SelPred {
    match rng.below(3) {
        0 => SelPred::eq(COL, literal(kind, model, rng)),
        _ => SelPred::between(COL, literal(kind, model, rng), literal(kind, model, rng)),
    }
}

/// Does a column holding `model` call for offsets (an `Int` column
/// spanning less than 2³²), and which layout does it have?
fn check_layout(kind: Kind, column: ColumnSlice<'_>, model: &[Value], what: &str) {
    let ints: Vec<i128> =
        model.iter().map(|v| if let Value::Int(x) = v { i128::from(*x) } else { 0 }).collect();
    let span = ints.iter().max().zip(ints.iter().min()).map_or(0, |(max, min)| max - min);
    let ok = match column {
        ColumnSlice::Int { .. } => kind.vtype() == ValueType::Int && span <= i128::from(u32::MAX),
        ColumnSlice::RankedInt { .. } => kind.vtype() == ValueType::Int && span > i128::from(u32::MAX),
        ColumnSlice::Float { .. } => kind == Kind::Float,
        ColumnSlice::Str { .. } => kind == Kind::Str,
        ColumnSlice::Date(_) => kind == Kind::Date,
    };
    assert!(ok, "{what}: {kind:?} spanning {span} is {column:?}");
}

/// `get` and `gather` read back the values inserted.
fn check_values(column: ColumnSlice<'_>, model: &[Value], rng: &mut Prng, what: &str) {
    assert_eq!(column.len(), model.len(), "{what}: rows");
    for (i, want) in model.iter().enumerate() {
        // `Value`'s equality is `total_cmp`'s: floats bit for bit.
        assert_eq!(column.get(i).as_ref(), Some(want), "{what}: row {i}");
    }
    assert_eq!(column.get(model.len()), None, "{what}: past the end");
    let rows: Vec<u32> = (0..rng.below(40)).map(|_| rng.below(model.len() + 2) as u32).collect();
    let mut gathered = vec![Value::Int(-1)];
    column.gather(&rows, &mut gathered);
    let want = rows.iter().filter_map(|&r| model.get(r as usize)).cloned();
    assert!(gathered[1..].iter().cloned().eq(want), "{what}: gather {rows:?}");
}

/// The kernel compiled from `pred` selects, counts and retains what
/// `pred.matches` accepts.
fn check_kernel(pred: &SelPred, column: ColumnSlice<'_>, model: &[Value], rng: &mut Prng, what: &str) {
    let kernel = Kernel::compile(pred, column);
    let matching = |rows: &mut dyn Iterator<Item = usize>| -> Vec<u32> {
        rows.filter(|&r| pred.matches(&model[r])).map(|r| r as u32).collect()
    };
    let start = rng.below(model.len() + 1);
    let end = start + rng.below(model.len() - start + 1);
    for window in [0..model.len(), start..end] {
        let want = matching(&mut window.clone());
        let mut sel = vec![9];
        kernel.select(window.clone(), &mut sel);
        assert_eq!(sel, want, "{what}: select {window:?} {pred:?}");
        assert_eq!(kernel.count(window.clone()), want.len(), "{what}: count {window:?} {pred:?}");
    }
    let mut ids: Vec<u32> = (0..rng.below(30)).map(|_| rng.below(model.len()) as u32).collect();
    let want = matching(&mut ids.iter().map(|&r| r as usize));
    kernel.retain(&mut ids);
    assert_eq!(ids, want, "{what}: retain {pred:?}");
}

/// An index over the column answers `pred` with the rows and charges of
/// the `Value`-keyed tree `oracle`.
fn check_index(pred: &SelPred, heap: &HeapTable, oracle: &BPlusTree, what: &str) {
    let column = heap.column(0).unwrap();
    let (index, _) = build_index(heap, COL, column.value_type().byte_width());
    let (mut by_index, mut by_oracle) = ((Vec::new(), IoStats::new()), (Vec::new(), IoStats::new()));
    match &pred.kind {
        PredicateKind::Eq(v) => {
            index.lookup_code_into(literal_code(v, column), &mut by_index.0, &mut by_index.1);
            oracle.lookup_into(v, &mut by_oracle.0, &mut by_oracle.1);
        }
        PredicateKind::Range { lo, hi } => {
            index.range_codes_into(code_interval(lo, hi, column), &mut by_index.0, &mut by_index.1);
            oracle.range_into(Bound::Included(lo), Bound::Included(hi), &mut by_oracle.0, &mut by_oracle.1);
        }
    }
    assert_eq!(by_index, by_oracle, "{what}: index {pred:?}");
}

/// Cells of `a` and `b` (of one type, each in its own layout) compare
/// as their values do, and resolve against each other's layout as
/// their values would.
fn check_across(a: ColumnSlice<'_>, a_model: &[Value], b: ColumnSlice<'_>, b_model: &[Value], rng: &mut Prng, what: &str) {
    if a_model.is_empty() || b_model.is_empty() {
        return;
    }
    for _ in 0..60 {
        // Half the pairs share a value when the other column holds it.
        let i = rng.below(a_model.len());
        let j = match b_model.iter().position(|v| *v == a_model[i]) {
            Some(j) if rng.chance(0.5) => j,
            _ => rng.below(b_model.len()),
        };
        let equal = a_model[i] == b_model[j];
        assert_eq!(a.cells_eq(i, &b, j), equal, "{what}: {:?} = {:?}", a_model[i], b_model[j]);
        assert_eq!(b.cells_eq(j, &a, i), equal, "{what}: {:?} = {:?}", b_model[j], a_model[i]);
        assert_eq!(a.code_in(i, &b), literal_code(&a_model[i], b), "{what}: {:?} in b", a_model[i]);
        assert_eq!(b.code_in(j, &a), literal_code(&b_model[j], a), "{what}: {:?} in a", b_model[j]);
    }
}

/// Append one batch of up to `len` rows of `kind` to `heap` and its
/// `model`: through `insert` or `insert_rows`, a fifth of them refused
/// at a random row. `extra` values join the batch first.
fn append(heap: &mut HeapTable, model: &mut Vec<Value>, kind: Kind, extra: &[Value], rng: &mut Prng, what: &str) -> bool {
    let mut values: Vec<Value> = extra.to_vec();
    values.extend((0..rng.below(120)).map(|_| value(kind, rng)));
    rng.shuffle(&mut values);
    let refuse_at = rng.chance(0.2).then(|| rng.below(values.len() + 1));
    let mut rows: Vec<Row> = Vec::new();
    let mut kept = Vec::new();
    let mut error = None;
    for (i, v) in values.into_iter().enumerate() {
        if refuse_at == Some(i) {
            // Another type, or another arity; rows after it never land.
            let (bad, e) = if rng.chance(0.5) {
                let other = if kind.vtype() == ValueType::Date { Value::Int(1) } else { Value::Date(1) };
                let e = RowError::Type { column: 0, expected: kind.vtype(), got: other.value_type() };
                (row_from(vec![other]), e)
            } else {
                (row_from(vec![v.clone(), v.clone()]), RowError::Arity { expected: 1, got: 2 })
            };
            rows.push(bad);
            error = Some(e);
        }
        if error.is_none() {
            kept.push(v.clone());
        }
        rows.push(row_from(vec![v]));
    }
    let before = heap.row_count();
    let stored = if rows.len() == 1 && rng.chance(0.5) {
        let row = rows.pop().unwrap();
        heap.insert(row).map(|id| assert_eq!(id, RowId(before as u32), "{what}"))
    } else {
        heap.insert_rows(rows)
    };
    assert_eq!(stored.err(), error, "{what}: outcome");
    let refused = error.is_some();
    model.extend(kept);
    assert_eq!(heap.row_count(), model.len(), "{what}: the rows before a refused one stay");
    refused
}

#[test]
fn every_encoding_holds_its_values_order_and_equality() {
    let mut rng = Prng::new(0xE4C0_D135);
    let kinds = |rng: &mut Prng, case: u32| {
        let origin = [0, -(1 << 40), 1 << 50, i64::MIN + 400, i64::MAX - (1 << 33)][rng.below(5)];
        // Half the widening cases stop one short of 2³², by case rather
        // than by draw, and each half meets both kinds of other column.
        let short = case % 4 < 2;
        [
            Kind::Date,
            Kind::NarrowInt { origin },
            Kind::WideningInt { origin: origin.min(i64::MAX - (1 << 34)), short },
            Kind::WideInt,
            Kind::Float,
            Kind::Str,
        ]
    };
    let (mut refused, mut widened, mut stayed_short, mut accepted) = (0, 0, 0, 0);
    for case in 0..16 {
        for kind in kinds(&mut rng, case) {
            let vtype = kind.vtype();
            let (mut heap, mut model) = (HeapTable::new(&[vtype]), Vec::new());
            // The other column: of an `Int` case, ranked (it holds both
            // ends of the type) or offsets from another base.
            let (mut other, mut other_model) = (HeapTable::new(&[vtype]), Vec::new());
            let other_kind = match kind {
                Kind::NarrowInt { origin } | Kind::WideningInt { origin, .. } if case % 2 == 1 => {
                    Kind::NarrowInt { origin: origin + 5 }
                }
                _ if vtype == ValueType::Int => Kind::WideInt,
                _ => kind,
            };
            let mut extra = match kind {
                Kind::WideInt => vec![Value::Int(i64::MIN), Value::Int(i64::MAX)],
                _ => Vec::new(),
            };
            for step in 0..10 {
                let what = format!("case {case}, {kind:?}, step {step}");
                if let (Kind::WideningInt { short, .. }, 5) = (kind, step) {
                    // From the least value stored, 2³² − 1 or 2³² up.
                    let least = model.iter().min().cloned().unwrap_or(Value::Int(0));
                    let Value::Int(least) = least else { panic!("{what}: an Int column") };
                    extra.push(Value::Int(least + i64::from(u32::MAX) + i64::from(!short)));
                }
                // A batch whose `extra` a refusal drops is retried.
                while !extra.is_empty() {
                    let before = model.len();
                    refused += usize::from(append(&mut heap, &mut model, kind, &extra, &mut rng, &what));
                    if model[before..].iter().any(|v| extra.contains(v)) {
                        extra.clear();
                    }
                }
                refused += usize::from(append(&mut heap, &mut model, kind, &[], &mut rng, &what));
                let lits: Vec<Value> = model.iter().take(3).cloned().collect();
                append(&mut other, &mut other_model, other_kind, &lits, &mut rng, &what);

                let column = heap.column(0).unwrap();
                check_layout(kind, column, &model, &what);
                widened += usize::from(matches!(
                    (kind, column),
                    (Kind::WideningInt { short: false, .. }, ColumnSlice::RankedInt { .. })
                ));
                stayed_short += usize::from(matches!(
                    (kind, column),
                    (Kind::WideningInt { short: true, .. }, ColumnSlice::Int { .. })
                ) && step >= 5);
                check_values(column, &model, &mut rng, &what);
                if model.is_empty() {
                    continue;
                }
                let mut entries: Vec<(Value, RowId)> = model.iter().cloned().zip((0..).map(RowId)).collect();
                entries.sort();
                let oracle = BPlusTree::bulk_load(vtype.byte_width(), entries);
                for _ in 0..12 {
                    let pred = predicate(kind, &model, &mut rng);
                    check_kernel(&pred, column, &model, &mut rng, &what);
                    check_index(&pred, &heap, &oracle, &what);
                    accepted += model.iter().filter(|v| pred.matches(v)).count();
                }
                let others = other.column(0).unwrap();
                check_across(column, &model, others, &other_model, &mut rng, &what);
            }
        }
    }
    // The cases must not be vacuous.
    assert!(refused > 50, "{refused} batches refused");
    assert!(widened > 20 && stayed_short > 6, "{widened} widened, {stayed_short} one short");
    assert!(accepted > 10_000, "{accepted} rows accepted");
}
