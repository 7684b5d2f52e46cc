//! Micro-benchmarks of the B+ tree substrate: bulk loads, incremental
//! inserts, point lookups, and range scans across tree sizes.
//!
//! Also CI's "Bench smoke" step, and a gate there: a bulk load is one
//! pass over sorted input, so the run fails when an entry of a
//! 100 000-entry load costs more than [`BULK_LOAD_SCALING_LIMIT`] times
//! an entry of a 1 000-entry load (the leaf-peeling loader this guards
//! against re-copied the tail once per leaf and read 600×). Index
//! builds are held to the same growth limit from 6 000 to 1 000 000
//! rows and must beat, in this process and at every size, the same
//! build through the byte-wise radix sort `sorted_entries` replaced
//! ([`lsd_sort`], kept here as that reference only) and through a
//! comparison sort, and at 100 000 rows the same build with
//! `(Value, RowId)` entries, which the code-keyed tree replaced. A
//! selectivity estimate over a fixed-width column's key codes must beat
//! the same estimate comparing `Value`s, and a scan kernel that counts a
//! window must beat the one that selects it, again in this process.
//! `Eqo::optimize` beside the bare optimizer, a string column's index
//! build and range scan, and a hash join's cost per probe row, are
//! printed, not gated.

use colt_bench::bench;
use colt_catalog::{
    build_index, ColRef, Column, ColumnStats, Database, PhysicalConfig, TableId, TableSchema,
};
use colt_engine::{
    AccessPath, Collect, Eqo, Executor, IndexSetView, JoinPred, Kernel, Optimizer, Plan, PlanNode,
    Query, SelPred, BATCH_ROWS,
};
use colt_storage::{
    row_from, sorted_entries, BPlusTree, BPlusTreeOf, ColumnSlice, HeapTable, IoStats, KeyCode,
    RowId, Value, ValueType,
};
use std::hint::black_box;
use std::ops::Bound;
use std::time::Instant;

fn entries(n: usize) -> Vec<(Value, RowId)> {
    (0..n).map(|i| (Value::Int(i as i64), RowId(i as u32))).collect()
}

/// Allowed growth of bulk load's per-entry cost from 1 k to 100 k
/// entries; cache misses account for 1–2×, a quadratic loader for 100×.
const BULK_LOAD_SCALING_LIMIT: f64 = 10.0;

/// Benchmarks bulk load at three sizes; false when it scales worse than
/// [`BULK_LOAD_SCALING_LIMIT`].
fn bench_bulk_load() -> bool {
    let per_entry: Vec<f64> = [1_000usize, 10_000, 100_000]
        .into_iter()
        .map(|n| {
            let data = entries(n);
            let ns = bench(&format!("btree/bulk_load/{n}"), || {
                black_box(BPlusTree::bulk_load(8, black_box(data.clone())));
            });
            ns / n as f64
        })
        .collect();
    let growth = per_entry[2] / per_entry[0];
    println!("  bulk_load ns/entry at 100k vs 1k: {growth:.2}x (limit {BULK_LOAD_SCALING_LIMIT}x)");
    growth <= BULK_LOAD_SCALING_LIMIT
}

/// The fastest single call of each of `calls`, in ns, over three rounds
/// taken in turn with `reps` calls a turn: a verdict between them must
/// not hang on a neighbour's burst, nor on which call it fell on.
fn fastest(reps: u64, calls: &[&dyn Fn()]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; calls.len()];
    for _ in 0..3 {
        for (best, call) in best.iter_mut().zip(calls) {
            for _ in 0..reps {
                let start = Instant::now();
                call();
                *best = best.min(start.elapsed().as_secs_f64() * 1e9);
            }
        }
    }
    best
}

/// The stable least-significant-byte-first radix sort of `(code, row
/// id)` pairs that `build_index` ran from PR 15 to PR 20 (then
/// `colt_storage::sort_by_code`): one histogram per byte position, one
/// pass between the vector and a scratch copy per position on which the
/// codes differ. Only [`Reference::LsdSort`] calls it.
fn lsd_sort<C: Copy + Into<u64>>(pairs: &mut Vec<(C, u32)>) {
    let byte = |pair: &(C, u32), position: usize| (pair.0.into() >> (8 * position)) as usize & 0xff;
    let mut slots = [[0usize; 256]; 8];
    let slots = &mut slots[..std::mem::size_of::<C>().min(8)];
    for pair in pairs.iter() {
        for (position, slot) in slots.iter_mut().enumerate() {
            slot[byte(pair, position)] += 1;
        }
    }
    let mut scratch = pairs.clone();
    for (position, slot) in slots.iter_mut().enumerate() {
        if slot.contains(&pairs.len()) {
            continue;
        }
        let mut next = 0;
        for s in slot.iter_mut() {
            next += std::mem::replace(s, next);
        }
        for pair in pairs.iter() {
            let s = &mut slot[byte(pair, position)];
            scratch[*s] = *pair;
            *s += 1;
        }
        std::mem::swap(pairs, &mut scratch);
    }
}

/// A step of `build_index` swapped for what it replaced.
#[derive(Clone, Copy)]
enum Reference {
    /// [`lsd_sort`] on `(code, row id)` pairs collected from the column
    /// and re-collected into entries, not `sorted_entries`.
    LsdSort,
    /// `sort_unstable` on the same pairs.
    ComparisonSort,
    /// Every sorted code turned back into a `(Value, RowId)` entry of a
    /// `Value`-keyed tree, not kept as the key.
    ValueEntries,
}

/// `build_index` over the heap's one fixed-width column with one step
/// swapped, as the same-process reference; the built tree's page count.
fn reference_build(heap: &HeapTable, reference: Reference) -> usize {
    fn build<T: KeyCode>(cells: &[T], wrap: fn(T) -> Value, reference: Reference) -> usize
    where
        T::Code: TryFrom<u64>,
    {
        let sort: fn(&mut Vec<(T::Code, u32)>) = match reference {
            Reference::ValueEntries => {
                let cell = |code| T::from_code(T::Code::try_from(code).ok().expect("a cell's code"));
                let entries = sorted_entries(cells).into_iter().map(|(code, rid)| (wrap(cell(code)), rid));
                return BPlusTree::bulk_load(8, entries.collect()).page_count();
            }
            Reference::LsdSort => lsd_sort,
            Reference::ComparisonSort => |pairs| pairs.sort_unstable(),
        };
        let mut keyed: Vec<(T::Code, u32)> = cells.iter().map(|x| x.code()).zip(0..).collect();
        sort(&mut keyed);
        let entries = keyed.into_iter().map(|(code, rid)| (code.into(), RowId(rid)));
        BPlusTreeOf::<u64>::bulk_load(8, entries.collect()).page_count()
    }
    match heap.column(0) {
        Some(ColumnSlice::Int(cells)) => build(cells, Value::Int, reference),
        Some(ColumnSlice::Date(cells)) => build(cells, Value::Date, reference),
        Some(ColumnSlice::Float(cells)) => build(cells, Value::Float, reference),
        _ => unreachable!("the heap has one fixed-width column"),
    }
}

/// Benchmarks `build_index` on one column at 6 000, 100 000 and
/// 1 000 000 rows, row `i` of `n` holding `value(i, n)`; false when the
/// per-entry cost grows more than [`BULK_LOAD_SCALING_LIMIT`] from the
/// smallest to the largest, or a build is not faster than every
/// reference it is timed against.
fn bench_build_index(name: &str, vtype: ValueType, value: fn(u64, u64) -> Value) -> bool {
    let col = ColRef::new(TableId(0), 0);
    let heap_of = |n: u64| {
        let mut heap = HeapTable::new(&[vtype]);
        heap.insert_rows((0..n).map(|i| row_from(vec![value(i, n)])))
            .expect("the rows have the column's type");
        heap
    };
    type Build<'a> = (&'a str, &'a dyn Fn(&HeapTable) -> usize);
    let per_entry = |n: u64, builds: &[Build<'_>]| {
        let heap = &heap_of(n);
        let calls: Vec<_> = (builds.iter())
            .map(|&(_, build)| move || {
                black_box(build(black_box(heap)));
            })
            .collect();
        let calls: Vec<&dyn Fn()> = calls.iter().map(|call| call as &dyn Fn()).collect();
        let best: Vec<f64> = (fastest((2_000_000 / n).clamp(5, 100), &calls).iter())
            .map(|ns| ns / n as f64)
            .collect();
        for ((label, _), ns) in builds.iter().zip(&best) {
            println!("  {:<52} {ns:>8.2} ns/entry", format!("btree/build_index/{name}/{n}{label}"));
        }
        best
    };
    let coded: Build<'_> = ("", &|heap| build_index(heap, col, 8).0.page_count());
    let lsd: Build<'_> = ("/lsd_sort", &|heap| reference_build(heap, Reference::LsdSort));
    let comparison: Build<'_> =
        ("/sort_unstable", &|heap| reference_build(heap, Reference::ComparisonSort));
    let values: Build<'_> =
        ("/value_entries", &|heap| reference_build(heap, Reference::ValueEntries));
    let mut ok = true;
    let mut coded_ns = Vec::new();
    for n in [6_000, 100_000, 1_000_000] {
        let builds: &[Build<'_>] =
            if n == 100_000 { &[coded, lsd, comparison, values] } else { &[coded, lsd, comparison] };
        let ns = per_entry(n, builds);
        let ratios: Vec<String> = ns[1..].iter().map(|r| format!("{:.2}", ns[0] / r)).collect();
        println!("  build_index/{name}/{n} over each reference: {} (limit 1)", ratios.join(" "));
        ok &= ns[1..].iter().all(|&reference| ns[0] < reference);
        coded_ns.push(ns[0]);
    }
    let growth = coded_ns[2] / coded_ns[0];
    println!(
        "  build_index/{name} ns/entry at 1M vs 6k: {growth:.2}x (limit {BULK_LOAD_SCALING_LIMIT}x)"
    );
    ok && growth <= BULK_LOAD_SCALING_LIMIT
}

/// Prints what `Eqo::optimize` costs per statement of the shifting
/// preset beside the bare `Optimizer::optimize` it wraps (a counter and
/// a span apart since PR 21) and what the memoised path it replaced
/// measured — that code is gone, so its numbers are quoted from
/// EXPERIMENTS.md, "PR 21".
fn bench_eqo_optimize() {
    let data = colt_workload::generate(0.005, 42);
    let preset = colt_workload::shifting(&data, 42);
    let config = PhysicalConfig::new();
    let optimizer = Optimizer::new(&data.db);
    let mut eqo = Eqo::new(&data.db);
    let per_query = |ns: f64| ns / preset.queries.len() as f64;
    let raw = bench("optimizer/optimize/shifting_stream", || {
        for q in &preset.queries {
            black_box(optimizer.optimize(q, IndexSetView::real(&config)));
        }
    });
    let wrapped = bench("eqo/optimize/shifting_stream", || {
        for q in &preset.queries {
            black_box(eqo.optimize(q, &config));
        }
    });
    println!(
        "  eqo/optimize: {:.0} ns/query, raw optimizer {:.0} ns/query (memoised, at PR 21's \
         parent on its box: 667 first pass, 250 every lookup a hit, raw 220)",
        per_query(wrapped),
        per_query(raw)
    );
}

/// Benchmarks a selectivity estimate per column type — the mix a
/// stream prices: closed ranges, half-open ones, equalities, IN lists —
/// over the column's key codes and, beside it, with the same statistics
/// comparing `Value`s ([`ColumnStats::comparing_values`]); a string
/// column has only the latter. False when comparing codes is not faster.
fn bench_stats_selectivity() -> bool {
    const ROWS: i64 = 6_000;
    // Scrambled keys, a tenth of the rows on three hot ones: the MCV
    // list is in play.
    let key = |i: i64| if i % 10 == 0 { i % 3 * 700 } else { i * 3_539 % ROWS };
    type Literal = fn(i64) -> Value;
    let columns: [(&str, ValueType, Literal); 4] = [
        ("int", ValueType::Int, Value::Int),
        ("date", ValueType::Date, |k| Value::Date(k as i32 + 8_000)),
        ("float", ValueType::Float, |k| Value::Float(900.0 + k as f64 / 100.0)),
        ("str", ValueType::Str, |k| Value::Str(format!("Customer#{k:09}"))),
    ];
    let mut ok = true;
    for (name, vtype, literal) in columns {
        let mut heap = HeapTable::new(&[vtype]);
        heap.insert_rows((0..ROWS).map(|i| row_from(vec![literal(key(i))])))
            .expect("the rows have the column's type");
        let coded = ColumnStats::analyze(&heap, 0);
        let by_value = coded.comparing_values();
        let literals: Vec<(Value, Value)> =
            (0..64).map(|j| (literal(j * 89 % ROWS), literal(j * 89 % ROWS + 40 + j))).collect();
        let estimate = |stats: &ColumnStats| {
            let mut sum = 0.0;
            for (lo, hi) in black_box(&literals) {
                sum += stats.selectivity_between(Bound::Included(lo), Bound::Included(hi));
                sum += stats.selectivity_between(Bound::Excluded(lo), Bound::Unbounded);
                sum += stats.selectivity_eq(lo);
                sum += [lo, hi, lo].iter().map(|v| stats.selectivity_eq(v)).sum::<f64>();
            }
            black_box(sum);
        };
        let ns = fastest(200, &[&|| estimate(&coded), &|| estimate(&by_value)]);
        let per_predicate = |ns: f64| ns / (4 * literals.len()) as f64;
        println!(
            "  {:<44} {:>8.1} ns/predicate, comparing values {:.1}",
            format!("stats/selectivity/{name}"),
            per_predicate(ns[0]),
            per_predicate(ns[1])
        );
        ok &= vtype == ValueType::Str || ns[0] < ns[1];
    }
    ok
}

/// Benchmarks `Kernel::select` and, beside it, `Kernel::count` per row
/// over a 6 000-row column, a scan window at a time, for ranges keeping
/// 0.3 %, 10 % and 50 % of the rows; false when counting a column is
/// not faster than selecting from it.
fn bench_kernel_scan() -> bool {
    const ROWS: usize = 6_000;
    // Row `i` holds key `i · 3 539 mod 6 000`, a permutation of the
    // keys; a range over the keys keeps rows all over the column.
    let keys: Vec<i64> = (0..ROWS as i64).map(|i| i * 3_539 % ROWS as i64).collect();
    let date = |k: i64| k as i32 + 8_000;
    let float = |k: i64| 900.0 + k as f64 / 100.0;
    let dates: Vec<i32> = keys.iter().map(|&k| date(k)).collect();
    let floats: Vec<f64> = keys.iter().map(|&k| float(k)).collect();
    let windows = || (0..ROWS).step_by(BATCH_ROWS).map(|start| start..(start + BATCH_ROWS).min(ROWS));
    let scan = |name: &str, column: ColumnSlice<'_>, literal: &dyn Fn(i64) -> Value| {
        let (mut select_ns, mut count_ns) = (0.0, 0.0);
        for (label, kept) in [("0.3%", 18), ("10%", 600), ("50%", 3_000)] {
            let col = ColRef::new(TableId(0), 0);
            let pred = SelPred::between(col, literal(1_000), literal(1_000 + kept - 1));
            let kernel = Kernel::compile(&pred, column);
            let sel = std::cell::RefCell::new(Vec::new());
            let select = || {
                let sel = &mut *sel.borrow_mut();
                let selected: usize = (windows())
                    .map(|window| {
                        kernel.select(window, sel);
                        black_box(&*sel).len()
                    })
                    .sum();
                assert_eq!(selected, kept as usize);
            };
            let count = || {
                let counted: usize = windows().map(|window| black_box(kernel.count(window))).sum();
                assert_eq!(counted, kept as usize);
            };
            let ns = fastest(2_000, &[&select, &count]);
            for (op, ns) in ["select", "count"].iter().zip(&ns) {
                let line = format!("kernel/{op}/{name}/{label}");
                println!("  {line:<44} {:>8.2} ns/row", ns / ROWS as f64);
            }
            select_ns += ns[0];
            count_ns += ns[1];
        }
        count_ns < select_ns
    };
    let int = scan("int", ColumnSlice::Int(&keys), &Value::Int);
    let date = scan("date", ColumnSlice::Date(&dates), &|k| Value::Date(date(k)));
    let float = scan("float", ColumnSlice::Float(&floats), &|k| Value::Float(float(k)));
    int && date && float
}

/// Prints what a string column costs to index — `build_index` over
/// 100 000 rows of ~100 000 distinct strings, ns/entry — and to scan —
/// `Kernel::select` of a range keeping a tenth of a 6 000-row column
/// drawn from a 1 000-string pool, ns/row. Both compare dictionary
/// ranks, not strings; neither is gated.
fn bench_strings() {
    let customer = |k: u64| Value::Str(format!("Customer#{k:09}"));
    let heap_of = |n: u64, pool: u64| {
        let mut heap = HeapTable::new(&[ValueType::Str]);
        let rows = (0..n).map(|i| row_from(vec![customer(i.wrapping_mul(2_654_435_761) % pool)]));
        heap.insert_rows(rows).expect("the rows have the column's type");
        heap
    };
    const BUILD_ROWS: u64 = 100_000;
    let heap = heap_of(BUILD_ROWS, BUILD_ROWS * 97);
    let build = || {
        black_box(build_index(black_box(&heap), ColRef::new(TableId(0), 0), 8).0.page_count());
    };
    let ns = fastest(20, &[&build])[0];
    let line = format!("btree/build_index/str/{BUILD_ROWS}");
    println!("  {line:<52} {:>8.2} ns/entry", ns / BUILD_ROWS as f64);

    const SCAN_ROWS: u64 = 6_000;
    let heap = heap_of(SCAN_ROWS, 1_000);
    let column = heap.column(0).expect("the heap has the column");
    let pred = SelPred::between(ColRef::new(TableId(0), 0), customer(100), customer(199));
    let kernel = Kernel::compile(&pred, column);
    let sel = std::cell::RefCell::new(Vec::new());
    let select = || {
        let sel = &mut *sel.borrow_mut();
        for start in (0..SCAN_ROWS as usize).step_by(BATCH_ROWS) {
            kernel.select(start..(start + BATCH_ROWS).min(SCAN_ROWS as usize), sel);
            black_box(&*sel);
        }
    };
    let ns = fastest(2_000, &[&select])[0];
    println!("  {:<44} {:>8.2} ns/row", "kernel/str_range", ns / SCAN_ROWS as f64);
}

/// Prints what a hash join costs per probe row, run whole through
/// `Executor::execute(CountOnly)` — two predicate-free scans, the build,
/// the probe — for a 6 000-row probe against a 120- and a 1 500-row
/// build, on an `Int` key, a `Str` key and a two-column `(Int, Date)`
/// key. Probe row `i` holds key `i · 3 539 mod 6 000` (a permutation),
/// build row `j` key `j`: a build of `n` rows matches `n` probe rows,
/// spread over every window. Fastest of three interleaved rounds; not
/// gated.
fn bench_hash_join() {
    const PROBE_ROWS: i64 = 6_000;
    let columns = || {
        let (int, str, date) = (ValueType::Int, ValueType::Str, ValueType::Date);
        vec![Column::new("k", int), Column::new("s", str), Column::new("d", date)]
    };
    let row = |k: i64| {
        let day = Value::Date(8_000 + (k % 2_500) as i32);
        row_from(vec![Value::Int(k), Value::Str(format!("Customer#{k:09}")), day])
    };
    let mut db = Database::new();
    let probe = db.add_table(TableSchema::new("probe", columns()));
    let keys = (0..PROBE_ROWS).map(|i| row(i * 3_539 % PROBE_ROWS));
    db.insert_rows(probe, keys).expect("the rows have the schema's types");
    let builds = [120, 1_500].map(|n: i64| {
        let build = db.add_table(TableSchema::new(format!("build_{n}"), columns()));
        db.insert_rows(build, (0..n).map(row)).expect("the rows have the schema's types");
        (n, build)
    });
    let config = PhysicalConfig::new();
    let executor = Executor::new(&db, &config);
    let scan =
        |table| PlanNode::Scan { table, path: AccessPath::SeqScan, est_rows: 0.0, est_cost: 0.0 };
    for (name, key) in [("int", &[0][..]), ("str", &[1]), ("two_keys", &[0, 2])] {
        let joins = builds.map(|(n, build)| {
            let pair = |c| JoinPred::new(ColRef::new(build, c), ColRef::new(probe, c));
            let on: Vec<JoinPred> = key.iter().map(|&c| pair(c)).collect();
            let query = Query::join(vec![build, probe], on.clone(), Vec::new());
            let root = PlanNode::HashJoin {
                build: Box::new(scan(build)),
                probe: Box::new(scan(probe)),
                on,
                est_rows: 0.0,
                est_cost: 0.0,
            };
            (query, Plan { root, selectivities: Vec::new() }, n as u64)
        });
        let calls: Vec<_> = (joins.iter())
            .map(|(query, plan, matches)| {
                move || {
                    let out = executor.execute(black_box(query), plan, Collect::CountOnly);
                    assert_eq!(out.expect("the plan is well-formed").row_count(), *matches);
                }
            })
            .collect();
        let ns = fastest(200, &[&calls[0], &calls[1]]);
        println!(
            "  {:<44} {:>8.2} ns/probe row against 120 build rows, {:.2} against 1 500",
            format!("exec/hash_join/{name}"),
            ns[0] / PROBE_ROWS as f64,
            ns[1] / PROBE_ROWS as f64
        );
    }
}

fn bench_insert() {
    for n in [1_000usize, 10_000] {
        bench(&format!("btree/insert/{n}"), || {
            let mut t = BPlusTree::new(8);
            // Scrambled order stresses splits.
            for i in 0..n {
                let k = (i.wrapping_mul(2654435761)) % n;
                t.insert(Value::Int(k as i64), RowId(i as u32));
            }
            black_box(t);
        });
    }
}

fn bench_lookup() {
    let tree = BPlusTree::bulk_load(8, entries(100_000));
    let mut i = 0i64;
    bench("btree/lookup/100k", || {
        i = (i * 75 + 74) % 65_537;
        let mut io = IoStats::new();
        black_box(tree.lookup(&Value::Int(i % 100_000), &mut io));
    });
}

fn bench_range() {
    let tree = BPlusTree::bulk_load(8, entries(100_000));
    for width in [100i64, 1_000, 10_000] {
        bench(&format!("btree/range/{width}"), || {
            let mut io = IoStats::new();
            black_box(tree.range(
                Bound::Included(&Value::Int(5_000)),
                Bound::Excluded(&Value::Int(5_000 + width)),
                &mut io,
            ));
        });
    }
}

/// A two-`Int`-column composite index as the catalog builds one: keys
/// are the cells' codes. A lookup pins both columns; a prefix scan pins
/// the first, its upper key padded with the greatest code — both are
/// `range_into`, as the executor's composite scan is. Ungated.
fn bench_composite() {
    let mut entries: Vec<(Vec<u64>, RowId)> = (0..100_000i64)
        .map(|i| (vec![(i % 100).code(), (i / 100).code()], RowId(i as u32)))
        .collect();
    entries.sort_unstable();
    let tree = BPlusTreeOf::bulk_load(16, entries);

    let mut i = 0i64;
    bench("btree/composite_lookup/100k", || {
        i = (i * 75 + 74) % 65_537;
        let key = vec![(i % 100).code(), (i % 1000).code()];
        let mut io = IoStats::new();
        black_box(tree.range(Bound::Included(&key), Bound::Included(&key), &mut io));
    });

    let mut j = 0i64;
    bench("btree/composite_prefix_scan/100k", || {
        j = (j * 75 + 74) % 97;
        let (lower, upper) = (vec![j.code()], vec![j.code(), u64::MAX]);
        let mut io = IoStats::new();
        black_box(tree.range(Bound::Included(&lower), Bound::Included(&upper), &mut io));
    });
}

fn main() -> std::process::ExitCode {
    println!("# btree micro-benchmarks");
    let bulk_load_linear = bench_bulk_load();
    // Row `i` of `n` draws from its scrambled position `k`: ~n distinct
    // ids out of 97·n, any 64-bit integer, 2 500 days, prices in cents
    // from 900.00, eleven discounts; the key column holds `i` itself.
    fn k(i: u64, n: u64) -> u64 {
        i.wrapping_mul(2_654_435_761) % (n * 97)
    }
    let builds_fast = [
        bench_build_index("id_int", ValueType::Int, |i, n| Value::Int(k(i, n) as i64)),
        bench_build_index("wide_int", ValueType::Int, |i, _| {
            Value::Int(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) as i64)
        }),
        bench_build_index("sorted_int", ValueType::Int, |i, _| Value::Int(i as i64)),
        bench_build_index("date", ValueType::Date, |i, n| {
            Value::Date((k(i, n) % 2_500) as i32 + 8_000)
        }),
        bench_build_index("price_float", ValueType::Float, |i, n| {
            Value::Float(900.0 + (k(i, n) % 10_000_000) as f64 / 100.0)
        }),
        bench_build_index("float_11_values", ValueType::Float, |i, n| {
            Value::Float((k(i, n) % 11) as f64 / 100.0)
        }),
    ]
    .iter()
    .all(|&ok| ok);
    bench_eqo_optimize();
    let codes_fast = bench_stats_selectivity();
    let counts_fast = bench_kernel_scan();
    bench_strings();
    bench_hash_join();
    bench_insert();
    bench_lookup();
    bench_range();
    bench_composite();
    if !bulk_load_linear {
        println!("FAIL: bulk load's per-entry cost grows with the input size");
    }
    if !builds_fast {
        println!(
            "FAIL: an index build scales worse than linearly or lost to the same build through \
             the byte-wise radix sort, sort_unstable, or (Value, RowId) entries"
        );
    }
    if !codes_fast {
        println!("FAIL: a selectivity estimate over key codes lost to the one comparing Values");
    }
    if !counts_fast {
        println!("FAIL: counting a scan window lost to selecting from it");
    }
    if bulk_load_linear && builds_fast && codes_fast && counts_fast {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
