//! Multi-column index advisor — a concrete take on the paper's stated
//! future work ("the extension of our techniques to more general access
//! structures, e.g., multi-column indices").
//!
//! Given a known workload, the advisor enumerates two-column composite
//! candidates from predicates that co-occur on the same table (an
//! equality as the leading column, an equality or range as the second),
//! estimates each candidate's benefit *beyond the best single-column
//! index* for the same queries, and returns a ranked list. The caller
//! can materialize accepted suggestions with
//! [`colt_catalog::PhysicalConfig::create_composite`].

use colt_catalog::{ColRef, CompositeKey, Database};
use colt_engine::cost::{index_scan_cost, seq_scan_cost};
use colt_engine::selectivity::predicate_selectivity;
use colt_engine::{PredicateKind, Query};
use std::collections::BTreeMap;

/// One ranked suggestion.
#[derive(Debug, Clone)]
pub struct CompositeSuggestion {
    /// The suggested composite index.
    pub key: CompositeKey,
    /// Queries in the workload the composite would serve.
    pub occurrences: u64,
    /// Estimated total benefit (cost units) beyond the best
    /// single-column index for the same queries.
    pub extra_benefit: f64,
    /// Estimated size in pages.
    pub pages: u64,
}

/// Analyze a workload and rank two-column composite candidates.
pub fn suggest_composites(
    db: &Database,
    workload: &[Query],
    top_k: usize,
) -> Vec<CompositeSuggestion> {
    let mut acc: BTreeMap<CompositeKey, (u64, f64)> = BTreeMap::new();

    for q in workload {
        for &table in &q.tables {
            let t = db.table(table);
            let rows = t.heap.row_count() as f64;
            let pages = t.heap.page_count() as f64;
            let preds: Vec<_> = q.selections_on(table).collect();
            if preds.len() < 2 {
                continue;
            }
            let eqs: Vec<_> = preds
                .iter()
                .filter(|p| matches!(p.kind, PredicateKind::Eq(_)))
                .collect();
            for lead in &eqs {
                for second in &preds {
                    if second.col == lead.col {
                        continue;
                    }
                    let key = CompositeKey::new(table, vec![lead.col.column, second.col.column]);
                    let sel_lead = predicate_selectivity(db, lead);
                    let sel_second = predicate_selectivity(db, second);

                    // Cost through the composite: both predicates
                    // resolved inside the index.
                    let comp_est = key.estimate(db);
                    let comp_cost = index_scan_cost(
                        &db.cost,
                        &comp_est,
                        sel_lead * sel_second,
                        rows,
                        pages,
                        preds.len().saturating_sub(2),
                    );

                    // The single-column alternative: the better of the
                    // two per-column indices (each resolves only its own
                    // predicate), or the sequential scan.
                    let single = |col: ColRef, sel: f64| {
                        let est = db.index_estimate(col);
                        index_scan_cost(
                            &db.cost,
                            &est,
                            sel,
                            rows,
                            pages,
                            preds.len().saturating_sub(1),
                        )
                    };
                    let best_alternative = single(lead.col, sel_lead)
                        .min(single(second.col, sel_second))
                        .min(seq_scan_cost(&db.cost, pages, rows, preds.len()));

                    let extra = (best_alternative - comp_cost).max(0.0);
                    if extra > 0.0 {
                        let e = acc.entry(key).or_insert((0, 0.0));
                        e.0 += 1;
                        e.1 += extra;
                    }
                }
            }
        }
    }

    let mut out: Vec<CompositeSuggestion> = acc
        .into_iter()
        .map(|(key, (occurrences, extra_benefit))| {
            let pages = key.estimate(db).pages;
            CompositeSuggestion { key, occurrences, extra_benefit, pages }
        })
        .collect();
    out.sort_by(|a, b| b.extra_benefit.total_cmp(&a.extra_benefit));
    out.truncate(top_k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::{Column, TableId, TableSchema};
    use colt_engine::SelPred;
    use colt_storage::{row_from, Value, ValueType};

    fn db() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableSchema::new(
            "t",
            vec![
                Column::new("a", ValueType::Int), // 40 distinct
                Column::new("b", ValueType::Int), // 50 distinct
                Column::new("c", ValueType::Int), // 4 distinct
            ],
        ));
        db.insert_rows(
            t,
            (0..40_000i64).map(|i| {
                row_from(vec![Value::Int(i % 40), Value::Int(i % 50), Value::Int(i % 4)])
            }),
        ).unwrap();
        db.analyze_all();
        (db, t)
    }

    #[test]
    fn cooccurring_pair_is_suggested_first() {
        let (db, t) = db();
        let a = ColRef::new(t, 0);
        let b = ColRef::new(t, 1);
        // 100 queries always pairing a-eq with b-eq: individually each
        // predicate keeps ~1000/800 rows, together ~20 — a composite is
        // the clear winner.
        let w: Vec<Query> = (0..100)
            .map(|i| {
                Query::single(t, vec![SelPred::eq(a, i % 40), SelPred::eq(b, i % 50)])
            })
            .collect();
        let suggestions = suggest_composites(&db, &w, 5);
        assert!(!suggestions.is_empty());
        let top = &suggestions[0];
        assert_eq!(top.key.table, t);
        assert_eq!(top.occurrences, 100);
        assert!(top.extra_benefit > 0.0);
        assert!(top.pages > 0);
        // Both orderings of (a, b) are candidates; the top one starts
        // with one of them.
        assert!(top.key.columns == vec![0, 1] || top.key.columns == vec![1, 0]);
    }

    #[test]
    fn no_suggestions_without_cooccurrence() {
        let (db, t) = db();
        let w: Vec<Query> = (0..50)
            .map(|i| Query::single(t, vec![SelPred::eq(ColRef::new(t, 0), i % 40)]))
            .collect();
        assert!(suggest_composites(&db, &w, 5).is_empty());
    }

    #[test]
    fn materialized_suggestion_speeds_up_the_workload() {
        use colt_engine::{Collect, Executor, IndexSetView, Optimizer};
        let (db, t) = db();
        let a = ColRef::new(t, 0);
        let b = ColRef::new(t, 1);
        let w: Vec<Query> =
            (0..20).map(|i| Query::single(t, vec![SelPred::eq(a, i * 3 % 40), SelPred::eq(b, i * 7 % 50)])).collect();
        let top = suggest_composites(&db, &w, 1).remove(0);

        let bare = PhysicalConfig::new();
        let mut with = PhysicalConfig::new();
        with.create_composite(&db, top.key.clone());

        let opt = Optimizer::new(&db);
        let mut bare_ms = 0.0;
        let mut comp_ms = 0.0;
        for q in &w {
            let p1 = opt.optimize(q, IndexSetView::real(&bare));
            bare_ms += Executor::new(&db, &bare)
                .execute(q, &p1, Collect::CountOnly)
                .expect("plan matches query")
                .millis();
            let p2 = opt.optimize(q, IndexSetView::real(&with));
            comp_ms += Executor::new(&db, &with)
                .execute(q, &p2, Collect::CountOnly)
                .expect("plan matches query")
                .millis();
        }
        assert!(
            comp_ms < bare_ms / 5.0,
            "composite must dominate: {comp_ms} vs {bare_ms}"
        );
    }

    use colt_catalog::PhysicalConfig;

    #[test]
    fn ranking_is_by_extra_benefit() {
        let (db, t) = db();
        let a = ColRef::new(t, 0);
        let b = ColRef::new(t, 1);
        let c = ColRef::new(t, 2);
        // (a,b) co-occurs 50 times, (a,c) only 5.
        let mut w: Vec<Query> = (0..50)
            .map(|i| Query::single(t, vec![SelPred::eq(a, i % 40), SelPred::eq(b, i % 50)]))
            .collect();
        w.extend(
            (0..5).map(|i| Query::single(t, vec![SelPred::eq(a, i % 40), SelPred::eq(c, i % 4)])),
        );
        let suggestions = suggest_composites(&db, &w, 10);
        assert!(suggestions.len() >= 2);
        assert!(suggestions.windows(2).all(|w| w[0].extra_benefit >= w[1].extra_benefit));
        assert!(suggestions[0].key.columns.contains(&1), "the (a,b) family must rank first");
    }
}
