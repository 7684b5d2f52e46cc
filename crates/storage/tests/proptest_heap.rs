//! Randomized property test of the heap's string columns: a sorted,
//! duplicate-free dictionary plus one `u32` rank per row, re-ranked at
//! the end of every batch. Over random sequences of `insert_rows`
//! batches and single `insert`s — strings landing below, between and
//! above the ones stored, duplicates, `""`, `"a\0"`, `"\u{10ffff}"`,
//! and batches refused part-way — the column must, after every step,
//! hold ranks that order as `str::cmp` orders their strings, read back
//! the strings inserted, resolve every literal to the key code
//! `Value::cmp` puts it at, and keep the rows before a refused one.
//! Cases come from the in-repo seeded PRNG.

use colt_storage::{
    literal_code, row_from, ColumnSlice, HeapTable, KeyCode, Prng, Row, RowError, RowId, Value,
    ValueType,
};
use std::cmp::Ordering;

/// A string from a few pieces, so that new strings fall below, between
/// and above stored ones and repeat often; the edge strings sometimes.
fn string(rng: &mut Prng) -> String {
    const EDGES: [&str; 4] = ["", "a\0", "\u{10ffff}", "a"];
    const PIECES: [&str; 6] = ["a", "b", "\0", "\u{e9}", "zz", "\u{10ffff}"];
    if rng.chance(0.15) {
        return EDGES[rng.below(EDGES.len())].to_owned();
    }
    (0..rng.below(4)).map(|_| PIECES[rng.below(PIECES.len())]).collect()
}

/// Row `tag` of the `(Str, Int, Str)` table, its two strings drawn.
fn row(rng: &mut Prng, tag: i64) -> (Row, [String; 2]) {
    let strs = [string(rng), string(rng)];
    let cells = vec![Value::Str(strs[0].clone()), Value::Int(tag), Value::Str(strs[1].clone())];
    (row_from(cells), strs)
}

/// A row the table refuses, and the error it must be refused with.
fn bad_row(rng: &mut Prng) -> (Row, RowError) {
    if rng.chance(0.5) {
        (row_from(vec![Value::Str("x".into())]), RowError::Arity { expected: 3, got: 1 })
    } else {
        let cells = vec![Value::Str("new".into()), Value::Int(0), Value::Date(1)];
        let error = RowError::Type { column: 2, expected: ValueType::Str, got: ValueType::Date };
        (row_from(cells), error)
    }
}

/// The four checks of one string column against the strings inserted
/// into it, in row order.
fn check_column(column: ColumnSlice<'_>, model: &[String], probes: &[Value], what: &str) {
    let ColumnSlice::Str { dict, ranks } = column else { panic!("{what}: a string column") };
    // The dictionary is sorted and holds each string once …
    assert!(dict.windows(2).all(|w| w[0] < w[1]), "{what}: dictionary {dict:?}");
    assert_eq!(ranks.len(), model.len(), "{what}");
    // … and ranks order as their strings do: along the strings' order,
    // ranks ascend, and stay put exactly while the string does.
    let mut order: Vec<usize> = (0..model.len()).collect();
    order.sort_by(|&a, &b| model[a].cmp(&model[b]));
    for w in order.windows(2) {
        let (a, b) = (w[0], w[1]);
        assert_eq!(ranks[a].cmp(&ranks[b]), model[a].cmp(&model[b]), "{what}: rows {a}, {b}");
    }
    // The strings read back, cell by cell and gathered.
    let values: Vec<Value> = model.iter().map(|s| Value::Str(s.clone())).collect();
    for (i, want) in values.iter().enumerate() {
        assert_eq!(column.get(i).as_ref(), Some(want), "{what}: row {i}");
    }
    assert_eq!(column.get(model.len()), None);
    let rows: Vec<u32> = (0..model.len() as u32).rev().collect();
    let mut gathered = Vec::new();
    column.gather(&rows, &mut gathered);
    assert!(gathered.iter().rev().eq(&values), "{what}: gather");
    // Every literal's code sits among the cells' codes where `Value::cmp`
    // puts the literal among the cells; one of another type resolves to
    // the side of the column the cross-type order puts it on.
    for probe in probes {
        let code = literal_code(probe, column);
        let present = model.iter().any(|s| matches!(probe, Value::Str(p) if p == s));
        assert_eq!(code.is_ok_and(|c| c % 2 == 1), present, "{what}: {probe:?} is a cell's code");
        for (cell, &rank) in values.iter().zip(ranks) {
            let placed = match code {
                Ok(code) => rank.code().cmp(&code),
                Err(side) => side.reverse(),
            };
            assert_eq!(placed, cell.cmp(probe), "{what}: {cell:?} against {probe:?}");
        }
    }
}

#[test]
fn ranked_string_columns_follow_every_batch() {
    let mut rng = Prng::new(0x5_7A4C);
    let (mut batches, mut refused) = (0, 0);
    for case in 0..24 {
        let mut heap = HeapTable::new(&[ValueType::Str, ValueType::Int, ValueType::Str]);
        let mut model: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for step in 0..40 {
            let before = heap.row_count();
            // A batch of up to 60 rows, or a batch of one through
            // `insert`; a fifth of them refused at a random row.
            let single = rng.chance(0.3);
            let len = if single { 1 } else { rng.below(61) };
            let bad_at = rng.chance(0.2).then(|| rng.below(len.max(1)));
            let mut rows = Vec::new();
            let mut kept: [Vec<String>; 2] = [Vec::new(), Vec::new()];
            let mut error = None;
            for i in 0..len {
                if bad_at == Some(i) {
                    let (bad, e) = bad_row(&mut rng);
                    rows.push(bad);
                    error = Some(e);
                    // Rows after the refused one must not be stored.
                    rows.extend((0..3).map(|k| row(&mut rng, -1 - k).0));
                    break;
                }
                let (r, strs) = row(&mut rng, (before + i) as i64);
                rows.push(r);
                for (kept, s) in kept.iter_mut().zip(strs) {
                    kept.push(s);
                }
            }
            let stored = if single {
                let first = rows.into_iter().next().expect("one row");
                heap.insert(first).map(|id| assert_eq!(id, RowId(before as u32)))
            } else {
                heap.insert_rows(rows)
            };
            let what = format!("case {case}, step {step}");
            assert_eq!(stored.err(), error, "{what}");
            batches += 1;
            refused += usize::from(error.is_some());
            // The rows before a refused one stay.
            for (model, kept) in model.iter_mut().zip(kept) {
                model.extend(kept);
            }
            assert_eq!(heap.row_count(), model[0].len(), "{what}");

            let mut probes: Vec<Value> =
                (0..12).map(|_| Value::Str(string(&mut rng))).collect();
            probes.extend(model[0].iter().take(4).map(|s| Value::Str(s.clone())));
            probes.extend([Value::Int(7), Value::Float(0.5), Value::Date(3)]);
            for (c, model) in [(0, &model[0]), (2, &model[1])] {
                let column = heap.column(c).expect("the table has the column");
                check_column(column, model, &probes, &format!("{what}, column {c}"));
            }
            // Whole rows read back too, with their tags in row order.
            for i in (0..heap.row_count()).step_by(7) {
                let row = heap.peek(RowId(i as u32)).expect("a stored row");
                let (s0, s1) = (model[0][i].clone(), model[1][i].clone());
                let want = [Value::Str(s0), Value::Int(i as i64), Value::Str(s1)];
                assert_eq!(&row[..], &want[..], "{what}: row {i}");
            }
        }
    }
    assert!(refused > 50 && batches - refused > 500, "{refused} of {batches} refused");
}

#[test]
fn a_cell_resolves_against_another_column_as_its_value_does() {
    // `code_in` — how an index nested-loop join probes — is
    // `literal_code` of the cell's value, for strings through the other
    // column's dictionary.
    let mut rng = Prng::new(0xC0DE);
    let mut outer = HeapTable::new(&[ValueType::Str, ValueType::Int]);
    let mut inner = HeapTable::new(&[ValueType::Str]);
    let rows = (0..300).map(|i| row_from(vec![Value::Str(string(&mut rng)), Value::Int(i)]));
    outer.insert_rows(rows.collect::<Vec<_>>()).unwrap();
    let rows = (0..200).map(|_| row_from(vec![Value::Str(string(&mut rng))]));
    inner.insert_rows(rows.collect::<Vec<_>>()).unwrap();
    let indexed = inner.column(0).unwrap();
    for c in 0..2 {
        let cells = outer.column(c).unwrap();
        for row in 0..cells.len() {
            let value = cells.get(row).unwrap();
            assert_eq!(cells.code_in(row, &indexed), literal_code(&value, indexed), "{value:?}");
        }
    }
    assert_eq!(
        outer.column(1).unwrap().code_in(0, &indexed),
        Err(Ordering::Less),
        "an Int sorts below every string"
    );
}
