//! # colt-offline
//!
//! The idealized OFFLINE baseline of the paper's evaluation (§6.1):
//! given *complete* knowledge of the workload and unlimited off-line
//! processing time, select the single-column index set that minimizes
//! the total (estimated) execution cost within the storage budget `B`,
//! using the same what-if optimizer as COLT. Index selection and
//! materialization happen before the workload runs and are not charged.
//!
//! ## Exhaustiveness without 2^N enumeration
//!
//! The paper's OFFLINE enumerates all index subsets. We obtain the same
//! optimum exactly, but structurally: under the System-R cost model of
//! `colt-engine`, the cost of a query decomposes as
//! `Σ_tables scan_cost + join_structure_cost`, where the join term
//! depends only on (index-independent) cardinality estimates. A table's
//! scan uses at most one index, so with an index set `A` the benefit for
//! query `q` on table `t` is `max_{I ∈ A ∩ t} gain(q, I)`. The optimal
//! configuration therefore factorizes per table, and an exact *grouped*
//! knapsack over per-table index subsets yields the global optimum —
//! identical to full enumeration, verified against brute force in the
//! tests.

#![warn(missing_docs)]

use colt_catalog::{ColRef, Database, IndexOrigin, PhysicalConfig, TableId};
use colt_engine::{Eqo, Query};
use std::collections::BTreeMap;

pub mod composites;
pub use composites::{suggest_composites, CompositeSuggestion};

/// The result of off-line index selection.
#[derive(Debug, Clone)]
pub struct OfflineSelection {
    /// The chosen index set.
    pub indices: Vec<ColRef>,
    /// Total estimated benefit (cost units) of the chosen set over the
    /// analyzed workload.
    pub total_benefit: f64,
    /// Total estimated size in pages.
    pub total_pages: u64,
    /// What-if calls spent during the (off-line, uncharged) analysis.
    pub whatif_calls: u64,
}

/// Per-(query, index) gains for the whole workload, grouped by table.
struct GainTable {
    /// For each table: its candidate indices and, for each query that
    /// touches the table, the per-index gain vector.
    by_table: BTreeMap<TableId, TableGains>,
    whatif_calls: u64,
}

struct TableGains {
    cols: Vec<ColRef>,
    /// One row per query occurrence: `gains[k][j]` is the gain of
    /// `cols[j]` for the k-th query on this table.
    gains: Vec<Vec<f64>>,
}

fn measure_gains(db: &Database, workload: &[Query]) -> GainTable {
    let empty = PhysicalConfig::new();
    let mut eqo = Eqo::new(db);
    let mut by_table: BTreeMap<TableId, TableGains> = BTreeMap::new();

    // Candidate indices = every column restricted anywhere in the
    // workload (the same mining rule COLT uses).
    let mut candidates: BTreeMap<TableId, Vec<ColRef>> = BTreeMap::new();
    for q in workload {
        for col in q.candidate_columns() {
            let v = candidates.entry(col.table).or_default();
            if !v.contains(&col) {
                v.push(col);
            }
        }
    }
    for (t, cols) in &candidates {
        by_table.insert(*t, TableGains { cols: cols.clone(), gains: Vec::new() });
    }

    for q in workload {
        for &t in &q.tables {
            let Some(tg) = by_table.get_mut(&t) else { continue };
            let probes: Vec<ColRef> =
                tg.cols.iter().copied().filter(|c| q.selections_on(t).any(|p| p.col == *c)).collect();
            if probes.is_empty() {
                continue;
            }
            let measured = eqo.what_if_optimize(q, &probes, &empty);
            let row: Vec<f64> = tg
                .cols
                .iter()
                .map(|c| measured.iter().find(|g| g.col == *c).map(|g| g.gain).unwrap_or(0.0))
                .collect();
            tg.gains.push(row);
        }
    }
    GainTable { by_table, whatif_calls: eqo.counters().whatif_calls }
}

/// Benefit of choosing the subset encoded by `mask` of a table's
/// candidate indices: per query, the best single index wins.
fn subset_benefit(tg: &TableGains, mask: u32) -> f64 {
    tg.gains
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .filter(|(j, _)| mask & (1 << j) != 0)
                .map(|(_, g)| *g)
                .fold(0.0f64, f64::max)
        })
        .sum()
}

/// Select the optimal index set for a known workload within `budget_pages`.
pub fn select(db: &Database, workload: &[Query], budget_pages: u64) -> OfflineSelection {
    let gt = measure_gains(db, workload);

    // Build per-table groups: every subset of the table's candidates is
    // one option with a size and a benefit.
    struct Choice {
        cols: Vec<ColRef>,
        size: u64,
        benefit: f64,
    }
    let mut groups: Vec<Vec<Choice>> = Vec::new();
    for tg in gt.by_table.values() {
        let n = tg.cols.len();
        assert!(n <= 20, "too many candidate indices on one table for exhaustive subsets");
        let sizes: Vec<u64> = tg.cols.iter().map(|&c| db.index_estimate(c).pages).collect();
        let mut options = Vec::with_capacity(1 << n);
        for mask in 0u32..(1u32 << n) {
            let size: u64 = (0..n).filter(|j| mask & (1 << j) != 0).map(|j| sizes[j]).sum();
            if mask != 0 && size > budget_pages {
                continue; // cannot fit regardless of other tables
            }
            options.push(Choice {
                cols: (0..n).filter(|j| mask & (1 << j) != 0).map(|j| tg.cols[j]).collect(),
                size,
                benefit: subset_benefit(tg, mask),
            });
        }
        groups.push(options);
    }

    // Grouped knapsack DP over (rescaled) capacity.
    const MAX_STEPS: u64 = 8192;
    let scale = budget_pages.div_ceil(MAX_STEPS).max(1);
    let cap = (budget_pages / scale) as usize;
    // dp[c] = (benefit, chosen option per processed group)
    let mut dp: Vec<Option<(f64, Vec<usize>)>> = vec![None; cap + 1];
    dp[0] = Some((0.0, Vec::new()));
    for options in &groups {
        let mut next: Vec<Option<(f64, Vec<usize>)>> = vec![None; cap + 1];
        for c in 0..=cap {
            let Some((base, chosen)) = &dp[c] else { continue };
            for (oi, o) in options.iter().enumerate() {
                let sz = (o.size.div_ceil(scale)) as usize;
                if c + sz > cap {
                    continue;
                }
                let cand = base + o.benefit;
                if next[c + sz].as_ref().is_none_or(|(b, _)| cand > *b) {
                    let mut chosen = chosen.clone();
                    chosen.push(oi);
                    next[c + sz] = Some((cand, chosen));
                }
            }
        }
        dp = next;
    }
    // On benefit ties prefer the smallest capacity slot (fewest pages),
    // so useless indices are never materialized just because they fit.
    let mut best: Option<(f64, Vec<usize>)> = None;
    for entry in dp.into_iter().flatten() {
        if best.as_ref().is_none_or(|(b, _)| entry.0 > *b + 1e-9) {
            best = Some(entry);
        }
    }
    // colt: allow(panic-policy) — the DP always contains the empty selection, so a best entry exists
    let (best_benefit, best_choice) = best.expect("empty-set option always feasible");

    let mut indices = Vec::new();
    let mut total_pages = 0;
    for (gi, &oi) in best_choice.iter().enumerate() {
        let o = &groups[gi][oi];
        indices.extend(o.cols.iter().copied());
        total_pages += o.size;
    }
    indices.sort_unstable();
    OfflineSelection {
        indices,
        total_benefit: best_benefit,
        total_pages,
        whatif_calls: gt.whatif_calls,
    }
}

/// Materialize a selection into a physical configuration (builds are
/// performed off-line and not charged to any query stream).
pub fn materialize(db: &Database, selection: &OfflineSelection) -> PhysicalConfig {
    let mut config = PhysicalConfig::new();
    for &col in &selection.indices {
        config.create_index(db, col, IndexOrigin::Online);
    }
    config
}

/// Literal exhaustive search over *all* subsets of the workload's
/// candidate indices — exponential; only for validating [`select`] on
/// small inputs.
pub fn select_brute_force(db: &Database, workload: &[Query], budget_pages: u64) -> OfflineSelection {
    let gt = measure_gains(db, workload);
    let all: Vec<ColRef> = gt.by_table.values().flat_map(|tg| tg.cols.iter().copied()).collect();
    let n = all.len();
    assert!(n <= 20, "brute force limited to 20 candidates");
    let sizes: Vec<u64> = all.iter().map(|&c| db.index_estimate(c).pages).collect();

    let mut best_mask = 0u32;
    let mut best_benefit = 0.0f64;
    for mask in 0u32..(1u32 << n) {
        let size: u64 = (0..n).filter(|j| mask & (1 << j) != 0).map(|j| sizes[j]).sum();
        if size > budget_pages {
            continue;
        }
        // Benefit: per table, per query, best available index.
        let mut benefit = 0.0;
        let mut offset = 0;
        for tg in gt.by_table.values() {
            let local_mask = (mask >> offset) & ((1u32 << tg.cols.len()) - 1);
            benefit += subset_benefit(tg, local_mask);
            offset += tg.cols.len();
        }
        if benefit > best_benefit {
            best_benefit = benefit;
            best_mask = mask;
        }
    }
    let indices: Vec<ColRef> =
        (0..n).filter(|j| best_mask & (1 << j) != 0).map(|j| all[j]).collect();
    let total_pages = (0..n).filter(|j| best_mask & (1 << j) != 0).map(|j| sizes[j]).sum();
    OfflineSelection {
        indices,
        total_benefit: best_benefit,
        total_pages,
        whatif_calls: gt.whatif_calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::{Column, TableSchema};
    use colt_engine::SelPred;
    use colt_storage::{row_from, Value, ValueType};

    fn db() -> (Database, TableId, TableId) {
        let mut db = Database::new();
        let a = db.add_table(TableSchema::new(
            "a",
            vec![
                Column::new("id", ValueType::Int),
                Column::new("g", ValueType::Int),
                Column::new("h", ValueType::Int),
            ],
        ));
        let b = db.add_table(TableSchema::new(
            "b",
            vec![Column::new("id", ValueType::Int), Column::new("v", ValueType::Int)],
        ));
        db.insert_rows(
            a,
            (0..30_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 300), Value::Int(i % 3)])),
        ).unwrap();
        db.insert_rows(b, (0..10_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 100)]))).unwrap();
        db.analyze_all();
        (db, a, b)
    }

    fn workload(a: TableId, b: TableId) -> Vec<Query> {
        let mut w = Vec::new();
        for i in 0..30 {
            w.push(Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), i as i64 * 7)]));
            if i % 2 == 0 {
                w.push(Query::single(a, vec![SelPred::eq(ColRef::new(a, 1), i as i64)]));
            }
            if i % 3 == 0 {
                w.push(Query::single(b, vec![SelPred::eq(ColRef::new(b, 0), i as i64)]));
            }
            if i % 5 == 0 {
                // Unselective predicate: an index on a.h is useless.
                w.push(Query::single(a, vec![SelPred::eq(ColRef::new(a, 2), 1i64)]));
            }
        }
        w
    }

    #[test]
    fn selects_beneficial_indices_within_budget() {
        let (db, a, b) = db();
        let w = workload(a, b);
        let budget = 10_000;
        let sel = select(&db, &w, budget);
        assert!(sel.indices.contains(&ColRef::new(a, 0)), "most frequent selective index chosen");
        assert!(sel.indices.contains(&ColRef::new(b, 0)));
        assert!(!sel.indices.contains(&ColRef::new(a, 2)), "useless index skipped");
        assert!(sel.total_pages <= budget);
        assert!(sel.total_benefit > 0.0);
        assert!(sel.whatif_calls > 0);
    }

    #[test]
    fn tight_budget_forces_choice() {
        let (db, a, b) = db();
        let w = workload(a, b);
        // Budget for roughly one index on `a` (30k rows).
        let one_index = db.index_estimate(ColRef::new(a, 0)).pages;
        let sel = select(&db, &w, one_index);
        assert!(sel.total_pages <= one_index);
        assert!(!sel.indices.is_empty());
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let (db, a, b) = db();
        let sel = select(&db, &workload(a, b), 0);
        assert!(sel.indices.is_empty());
        assert_eq!(sel.total_benefit, 0.0);
    }

    #[test]
    fn grouped_knapsack_matches_brute_force() {
        let (db, a, b) = db();
        let w = workload(a, b);
        for budget in [0u64, 30, 60, 100, 200, 10_000] {
            let fast = select(&db, &w, budget);
            let brute = select_brute_force(&db, &w, budget);
            assert!(
                (fast.total_benefit - brute.total_benefit).abs() < 1e-6,
                "budget {budget}: fast {} vs brute {}",
                fast.total_benefit,
                brute.total_benefit
            );
        }
    }

    #[test]
    fn materialize_builds_all_chosen() {
        let (db, a, b) = db();
        let sel = select(&db, &workload(a, b), 10_000);
        let cfg = materialize(&db, &sel);
        for c in &sel.indices {
            assert!(cfg.contains(*c));
        }
        assert_eq!(cfg.len(), sel.indices.len());
    }

    #[test]
    fn empty_workload() {
        let (db, _, _) = db();
        let sel = select(&db, &[], 1000);
        assert!(sel.indices.is_empty());
    }
}
