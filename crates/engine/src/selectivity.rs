//! Selectivity estimation from catalog statistics.
//!
//! Estimates follow the classical System-R conventions: equality uses the
//! uniform-within-distinct assumption, ranges interpolate within
//! equi-depth histogram buckets, conjunctions assume independence, and
//! equi-joins use `1 / max(ndv_left, ndv_right)`.

use crate::query::{PredicateKind, Query, SelPred};
use colt_catalog::{Database, TableId};

/// Floor applied to every estimate so plans never see a zero cardinality.
pub const MIN_SELECTIVITY: f64 = 1e-9;

#[cfg(test)]
thread_local! {
    /// [`predicate_selectivity`] calls on this thread: the tests that
    /// hold a statement to one estimate per predicate count them here.
    pub(crate) static ESTIMATES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Estimated fraction of a table's rows satisfying one predicate.
pub fn predicate_selectivity(db: &Database, pred: &SelPred) -> f64 {
    #[cfg(test)]
    ESTIMATES.with(|n| n.set(n.get() + 1));
    let table = db.table(pred.col.table);
    if table.stats.is_empty() {
        // No statistics: fall back to textbook defaults.
        return match &pred.kind {
            PredicateKind::Eq(_) => 0.005,
            PredicateKind::Range { .. } => 0.25,
        };
    }
    let stats = table.column_stats(pred.col.column);
    let sel = match &pred.kind {
        PredicateKind::Eq(v) => stats.selectivity_eq(v),
        PredicateKind::Range { lo, hi } => stats.selectivity_between(lo, hi),
    };
    sel.clamp(MIN_SELECTIVITY, 1.0)
}

/// [`predicate_selectivity`] of each of a query's selection predicates,
/// in `query.selections` order: what [`crate::Optimizer::optimize`]
/// derives once per statement and the [`crate::Plan`] carries to every
/// later reader.
pub fn selectivities(db: &Database, query: &Query) -> Vec<f64> {
    query.selections.iter().map(|p| predicate_selectivity(db, p)).collect()
}

/// Combined selectivity of all of a query's predicates on one table,
/// under the independence assumption; `sels` is the query's
/// [`selectivities`].
pub fn table_selectivity(query: &Query, sels: &[f64], table: TableId) -> f64 {
    on_table(query, sels, table).map(|(_, sel)| sel).product::<f64>().clamp(MIN_SELECTIVITY, 1.0)
}

/// The predicates of `query` on `table`, each with its estimate in
/// `sels` (the query's [`selectivities`]).
pub fn on_table<'q>(
    query: &'q Query,
    sels: &'q [f64],
    table: TableId,
) -> impl Iterator<Item = (&'q SelPred, f64)> + Clone {
    debug_assert_eq!(sels.len(), query.selections.len());
    query.selections.iter().zip(sels.iter().copied()).filter(move |(p, _)| p.col.table == table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::{ColRef, Column, TableSchema};
    use colt_storage::{row_from, Value, ValueType};

    fn db() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableSchema::new(
            "t",
            vec![Column::new("k", ValueType::Int), Column::new("g", ValueType::Int)],
        ));
        db.insert_rows(t, (0..10_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 100)]))).unwrap();
        db.analyze_all();
        (db, t)
    }

    #[test]
    fn eq_on_unique_column_is_tiny() {
        let (db, t) = db();
        let sel = predicate_selectivity(&db, &SelPred::eq(ColRef::new(t, 0), 5i64));
        assert!((sel - 1e-4).abs() < 1e-6, "got {sel}");
    }

    #[test]
    fn eq_on_grouped_column() {
        let (db, t) = db();
        let sel = predicate_selectivity(&db, &SelPred::eq(ColRef::new(t, 1), 5i64));
        assert!((sel - 0.01).abs() < 1e-6, "got {sel}");
    }

    #[test]
    fn range_selectivity_tracks_width() {
        let (db, t) = db();
        let narrow = predicate_selectivity(&db, &SelPred::between(ColRef::new(t, 0), 0i64, 99i64));
        let wide = predicate_selectivity(&db, &SelPred::between(ColRef::new(t, 0), 0i64, 4999i64));
        assert!((narrow - 0.01).abs() < 0.01, "narrow {narrow}");
        assert!((wide - 0.5).abs() < 0.05, "wide {wide}");
        assert!(narrow < wide);
    }

    #[test]
    fn conjunction_multiplies() {
        let (db, t) = db();
        let q = Query::single(
            t,
            vec![SelPred::between(ColRef::new(t, 0), 0i64, 4999i64), SelPred::eq(ColRef::new(t, 1), 3i64)],
        );
        let sel = table_selectivity(&q, &selectivities(&db, &q), t);
        assert!((sel - 0.5 * 0.01).abs() < 0.002, "got {sel}");
    }

    #[test]
    fn no_stats_fallback() {
        let mut raw = Database::new();
        let t = raw.add_table(TableSchema::new("u", vec![Column::new("a", ValueType::Int)]));
        let sel = predicate_selectivity(&raw, &SelPred::eq(ColRef::new(t, 0), 1i64));
        assert_eq!(sel, 0.005);
        let sel = predicate_selectivity(&raw, &SelPred::between(ColRef::new(t, 0), 1i64, 2i64));
        assert_eq!(sel, 0.25);
    }

    #[test]
    fn selectivity_never_zero() {
        let (db, t) = db();
        let sel = predicate_selectivity(&db, &SelPred::eq(ColRef::new(t, 0), -999i64));
        assert!(sel >= MIN_SELECTIVITY);
    }
}
