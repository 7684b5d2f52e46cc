//! Insertion-order-independence regression tests.
//!
//! These pin the fixes for the determinism hazards colt-analyze's
//! `hash-iteration` lint surfaced: cluster bookkeeping and knapsack
//! selection must produce the same answer no matter what order their
//! inputs arrive in. Before the `BTreeMap` conversions, each of these
//! could leak `HashMap` iteration order (a per-process random seed)
//! into results.

use std::collections::BTreeMap;

use colt_catalog::{ColRef, Column, Database, TableId, TableSchema};
use colt_core::cluster::{ClusterKey, ClusterSet};
use colt_core::knapsack::{self, Item};
use colt_engine::selectivity::predicate_selectivity;
use colt_engine::{Query, SelPred};
use colt_storage::{row_from, Value, ValueType};

fn build_db(rows: &[(i64, i64, f64)]) -> (Database, TableId) {
    let mut db = Database::new();
    let t = db.add_table(TableSchema::new(
        "sales",
        vec![
            Column::new("id", ValueType::Int),
            Column::new("region", ValueType::Int),
            Column::new("amount", ValueType::Float),
        ],
    ));
    db.insert_rows(
        t,
        rows.iter().map(|&(id, region, amount)| {
            row_from(vec![Value::Int(id), Value::Int(region), Value::Float(amount)])
        }),
    ).unwrap();
    db.analyze_all();
    (db, t)
}

/// The queries a shifting workload might produce, in some order.
fn query_mix(t: TableId) -> Vec<Query> {
    let id = ColRef::new(t, 0);
    let region = ColRef::new(t, 1);
    vec![
        Query::single(t, vec![SelPred::eq(id, 5i64)]),
        Query::single(t, vec![SelPred::eq(region, 2i64)]),
        Query::single(t, vec![SelPred::eq(id, 99i64)]),
        Query::single(t, vec![SelPred::between(id, 0i64, 9i64)]),
        Query::single(t, vec![SelPred::eq(region, 0i64)]),
        Query::single(t, vec![SelPred::eq(id, 5i64), SelPred::eq(region, 1i64)]),
        Query::single(t, vec![]),
    ]
}

/// Per-key window counts of a cluster set — the order-free summary of
/// what clustering learned.
fn counts_by_key(cs: &ClusterSet) -> BTreeMap<ClusterKey, u64> {
    cs.live().map(|(_, c)| (c.key.clone(), c.window_count())).collect()
}

#[test]
fn cluster_counts_independent_of_insertion_order() {
    let rows: Vec<(i64, i64, f64)> =
        (0..1_000).map(|i| (i, i % 4, (i % 10) as f64)).collect();
    let (db, t) = build_db(&rows);
    let queries = query_mix(t);

    let sels = |q: &Query| -> Vec<f64> {
        q.selections.iter().map(|p| predicate_selectivity(&db, p)).collect()
    };
    let mut forward = ClusterSet::new(12, 0.02);
    for q in &queries {
        forward.assign(q, &sels(q));
    }
    let mut reversed = ClusterSet::new(12, 0.02);
    for q in queries.iter().rev() {
        reversed.assign(q, &sels(q));
    }

    assert_eq!(forward.len(), reversed.len());
    assert_eq!(counts_by_key(&forward), counts_by_key(&reversed));
}

#[test]
fn knapsack_selection_stable_under_input_permutation() {
    // Distinct values so the optimum is unique and permutation cannot
    // legitimately change the chosen set.
    let items: Vec<Item> = (0..12)
        .map(|i| Item { size: 7 + (i * 13) % 40, value: 10.0 + i as f64 * 3.5 })
        .collect();
    let capacity = 120u64;

    let baseline: Vec<(u64, u64)> = {
        let chosen = knapsack::solve(items.iter().copied(), capacity);
        let mut picked: Vec<(u64, u64)> =
            chosen.iter().map(|&i| (items[i].size, items[i].value as u64)).collect();
        picked.sort_unstable();
        picked
    };

    // Try several rotations and a reversal of the item list.
    let mut variants: Vec<Vec<Item>> = (1..items.len())
        .map(|r| {
            let mut v = items.clone();
            v.rotate_left(r);
            v
        })
        .collect();
    variants.push(items.iter().rev().copied().collect());

    for v in variants {
        let chosen = knapsack::solve(v.iter().copied(), capacity);
        let mut picked: Vec<(u64, u64)> =
            chosen.iter().map(|&i| (v[i].size, v[i].value as u64)).collect();
        picked.sort_unstable();
        assert_eq!(picked, baseline, "selection changed under input permutation");
    }
}
