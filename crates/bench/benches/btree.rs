//! Micro-benchmarks of the B+ tree substrate: bulk loads, incremental
//! inserts, point lookups, and range scans across tree sizes.
//!
//! Also CI's "Bench smoke" step, and a gate there: a bulk load is one
//! pass over sorted input, so the run fails when an entry of a
//! 100 000-entry load costs more than [`BULK_LOAD_SCALING_LIMIT`] times
//! an entry of a 1 000-entry load (the leaf-peeling loader this guards
//! against re-copied the tail once per leaf and read 600×).

use colt_bench::bench;
use colt_storage::{BPlusTree, IoStats, RowId, Value};
use std::hint::black_box;
use std::ops::Bound;

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
                Bound::Included(Value::Int(5_000)),
                Bound::Excluded(Value::Int(5_000 + width)),
                &mut io,
            ));
        });
    }
}

fn bench_composite() {
    use colt_storage::CompositeBPlusTree;
    let entries: Vec<(Vec<Value>, RowId)> = (0..100_000)
        .map(|i| (vec![Value::Int(i % 100), Value::Int(i / 100)], RowId(i as u32)))
        .collect();
    let mut sorted = entries.clone();
    sorted.sort();
    let tree = CompositeBPlusTree::bulk_load(16, sorted);

    let mut i = 0i64;
    bench("btree/composite_lookup/100k", || {
        i = (i * 75 + 74) % 65_537;
        let mut io = IoStats::new();
        black_box(tree.lookup(&vec![Value::Int(i % 100), Value::Int(i % 1000)], &mut io));
    });

    let mut j = 0i64;
    bench("btree/composite_prefix_scan/100k", || {
        use colt_storage::ScanControl;
        j = (j * 75 + 74) % 97;
        let prefix = vec![Value::Int(j)];
        let mut io = IoStats::new();
        black_box(tree.scan_from(
            Bound::Included(prefix.clone()),
            |k: &Vec<Value>| {
                if k.starts_with(&prefix) {
                    ScanControl::Take
                } else {
                    ScanControl::Stop
                }
            },
            &mut io,
        ));
    });
}

fn main() -> std::process::ExitCode {
    println!("# btree micro-benchmarks");
    let bulk_load_linear = bench_bulk_load();
    bench_insert();
    bench_lookup();
    bench_range();
    bench_composite();
    if bulk_load_linear {
        std::process::ExitCode::SUCCESS
    } else {
        println!("FAIL: bulk load's per-entry cost grows with the input size");
        std::process::ExitCode::FAILURE
    }
}
