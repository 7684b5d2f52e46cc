//! The Extended Query Optimizer (EQO): normal optimization plus the
//! `WhatIfOptimize(q, P)` interface of the paper (§3).
//!
//! For every probed index `I ∈ P`, the EQO reports the *query gain*
//!
//! ```text
//! QueryGain(q, I) = QueryCost(q, M − {I}) − QueryCost(q, M ∪ {I})
//! ```
//!
//! i.e. the savings of having `I` materialized relative to not having it,
//! with every other materialized index untouched. For an index that is
//! not materialized the EQO pretends it exists; for a materialized index
//! it pretends it does not (the reverse probe the paper describes for
//! `QueryGain_M`).
//!
//! As in the paper's PostgreSQL prototype, the EQO reuses a query's own
//! intermediate solutions for its probes: one call derives the access
//! path of every table once, reuses it verbatim for each probe that does
//! not touch that table, and re-prices only the affected table before
//! re-running the (cheap) join-ordering DP. Nothing is kept across calls.

use crate::optimizer::{IndexSetView, Optimizer};
use crate::plan::{Plan, PlanNode};
use crate::query::Query;
use crate::selectivity::selectivities;
use colt_catalog::{ColRef, Database, PhysicalConfig};
use std::collections::BTreeSet;

/// Gain of one probed index for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexGain {
    /// The probed index.
    pub col: ColRef,
    /// `QueryCost(q, M − {I}) − QueryCost(q, M ∪ {I})`, in cost units.
    /// Non-negative up to cost-model monotonicity.
    pub gain: f64,
}

/// Running counters of optimizer work, used to audit the tuning
/// overhead (Figure 5 of the paper counts what-if calls per epoch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EqoCounters {
    /// Individual index probes answered through the what-if interface.
    pub whatif_calls: u64,
    /// Always 0: the EQO keeps no what-if cache across statements. Kept
    /// only for readers that still print it.
    pub memo_hits: u64,
    /// Always 0, like [`EqoCounters::memo_hits`].
    pub memo_misses: u64,
}

/// The extended query optimizer.
///
/// It keeps nothing between calls but its counters, and the database
/// cannot change under a live `Eqo` — the borrow forbids it:
///
/// ```compile_fail,E0502
/// # use colt_catalog::{Column, Database, TableSchema};
/// # use colt_engine::Eqo;
/// # use colt_storage::{row_from, Value, ValueType};
/// let mut db = Database::new();
/// let t = db.add_table(TableSchema::new("t", vec![Column::new("k", ValueType::Int)]));
/// let eqo = Eqo::new(&db);
/// db.insert_rows(t, [row_from(vec![Value::Int(1)])]).unwrap(); // rows cannot move…
/// db.analyze_all(); // …and neither can statistics
/// eqo.counters();
/// ```
///
/// # Examples
///
/// ```
/// use colt_catalog::{ColRef, Column, Database, PhysicalConfig, TableSchema};
/// use colt_engine::{Eqo, Query, SelPred};
/// use colt_storage::{row_from, Value, ValueType};
///
/// let mut db = Database::new();
/// let t = db.add_table(TableSchema::new("t", vec![Column::new("k", ValueType::Int)]));
/// db.insert_rows(t, (0..10_000i64).map(|i| row_from(vec![Value::Int(i)]))).unwrap();
/// db.analyze_all();
///
/// let config = PhysicalConfig::new();
/// let mut eqo = Eqo::new(&db);
/// let col = ColRef::new(t, 0);
/// let q = Query::single(t, vec![SelPred::eq(col, 42i64)]);
///
/// // Normal optimization prices the best plan under the real config…
/// let plan = eqo.optimize(&q, &config);
/// // …and a what-if probe reports how much a hypothetical index on
/// // `k` would save, without building anything.
/// let gains = eqo.what_if_optimize(&q, &[col], &config);
/// assert!(gains[0].gain > 0.0);
/// assert!(gains[0].gain <= plan.est_cost());
/// assert_eq!(eqo.counters().whatif_calls, 1);
/// ```
#[derive(Debug)]
pub struct Eqo<'a> {
    opt: Optimizer<'a>,
    db: &'a Database,
    counters: EqoCounters,
}

impl<'a> Eqo<'a> {
    /// Create an EQO over a database.
    pub fn new(db: &'a Database) -> Self {
        Eqo { opt: Optimizer::new(db), db, counters: EqoCounters::default() }
    }

    /// Work counters so far.
    pub fn counters(&self) -> EqoCounters {
        self.counters
    }

    /// Normal query optimization under the real configuration.
    pub fn optimize(&mut self, query: &Query, config: &PhysicalConfig) -> Plan {
        let _span = colt_obs::span("engine.optimize");
        self.opt.optimize(query, IndexSetView::real(config))
    }

    /// `WhatIfOptimize(q, P)`: per-index query gains, one what-if call
    /// charged per probed index.
    pub fn what_if_optimize(
        &mut self,
        query: &Query,
        probes: &[ColRef],
        config: &PhysicalConfig,
    ) -> Vec<IndexGain> {
        if probes.is_empty() {
            return Vec::new();
        }
        let _span = colt_obs::span("engine.whatif");
        colt_obs::counter("engine.whatif_calls", probes.len() as u64);
        self.counters.whatif_calls += probes.len() as u64;

        // One estimate of the statement's predicates and one set of
        // access paths under the unmodified view price every probe.
        let sels = selectivities(self.db, query);
        let base_view = IndexSetView::real(config);
        let base_scans: Vec<PlanNode> = query
            .tables
            .iter()
            .map(|&t| self.opt.best_scan(query, &sels, t, base_view))
            .collect();
        let base_cost = self.opt.join_order(query, &sels, base_scans.clone(), base_view).est_cost();

        probes
            .iter()
            .map(|&col| {
                let materialized = config.contains(col);
                let (mut plus, mut minus) = (BTreeSet::from([col]), BTreeSet::new());
                if materialized {
                    std::mem::swap(&mut plus, &mut minus);
                }
                let view = IndexSetView::hypothetical(config, &plus, &minus);

                // Reuse every scan except those on the probed table.
                let scans: Vec<PlanNode> = query
                    .tables
                    .iter()
                    .zip(&base_scans)
                    .map(|(&t, base)| {
                        if t == col.table {
                            self.opt.best_scan(query, &sels, t, view)
                        } else {
                            base.clone()
                        }
                    })
                    .collect();
                let probe_cost = self.opt.join_order(query, &sels, scans, view).est_cost();

                let gain = if materialized {
                    // probe_cost = cost without I; base has I.
                    probe_cost - base_cost
                } else {
                    // base = cost without I; probe has I.
                    base_cost - probe_cost
                };
                IndexGain { col, gain: gain.max(0.0) }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::SelPred;
    use colt_catalog::{Column, TableId, TableSchema};
    use colt_storage::{row_from, Value, ValueType};

    fn db() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableSchema::new(
            "t",
            vec![
                Column::new("id", ValueType::Int),
                Column::new("grp", ValueType::Int),
                Column::new("wide", ValueType::Int),
            ],
        ));
        db.insert_rows(
            t,
            (0..40_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 50), Value::Int(i % 4)])),
        ).unwrap();
        db.analyze_all();
        (db, t)
    }

    #[test]
    fn whatif_gain_positive_for_selective_index() {
        let (db, t) = db();
        let cfg = PhysicalConfig::new();
        let mut eqo = Eqo::new(&db);
        let col = ColRef::new(t, 0);
        let q = Query::single(t, vec![SelPred::eq(col, 7i64)]);
        let gains = eqo.what_if_optimize(&q, &[col], &cfg);
        assert_eq!(gains.len(), 1);
        assert!(gains[0].gain > 0.0, "selective index must show gain");
        assert_eq!(eqo.counters().whatif_calls, 1);
    }

    #[test]
    fn whatif_gain_zero_for_irrelevant_index() {
        let (db, t) = db();
        let cfg = PhysicalConfig::new();
        let mut eqo = Eqo::new(&db);
        let q = Query::single(t, vec![SelPred::eq(ColRef::new(t, 0), 7i64)]);
        // Index on a column the query does not restrict.
        let gains = eqo.what_if_optimize(&q, &[ColRef::new(t, 2)], &cfg);
        assert_eq!(gains[0].gain, 0.0);
    }

    #[test]
    fn whatif_matches_brute_force_cost_difference() {
        let (db, t) = db();
        let mut cfg = PhysicalConfig::new();
        let col = ColRef::new(t, 0);
        let q = Query::single(t, vec![SelPred::eq(col, 7i64)]);
        let mut eqo = Eqo::new(&db);

        // Non-materialized probe must equal cost(M) − cost(M ∪ I).
        let gains = eqo.what_if_optimize(&q, &[col], &cfg);
        let without = eqo.optimize(&q, &cfg).est_cost();
        cfg.create_index(&db, col);
        let with = eqo.optimize(&q, &cfg).est_cost();
        assert!((gains[0].gain - (without - with)).abs() < 1e-9);

        // Materialized probe (reverse what-if) must report the same gain.
        let gains_m = eqo.what_if_optimize(&q, &[col], &cfg);
        assert!((gains_m[0].gain - gains[0].gain).abs() < 1e-9);
    }

    #[test]
    fn whatif_multiple_probes_counted_individually() {
        let (db, t) = db();
        let cfg = PhysicalConfig::new();
        let mut eqo = Eqo::new(&db);
        let q = Query::single(
            t,
            vec![SelPred::eq(ColRef::new(t, 0), 7i64), SelPred::eq(ColRef::new(t, 1), 3i64)],
        );
        let gains = eqo.what_if_optimize(&q, &[ColRef::new(t, 0), ColRef::new(t, 1)], &cfg);
        assert_eq!(gains.len(), 2);
        assert_eq!(eqo.counters().whatif_calls, 2);
        // The unique-column index must gain at least as much as the
        // 50-distinct one.
        assert!(gains[0].gain >= gains[1].gain);
    }

    #[test]
    fn a_whatif_call_estimates_each_predicate_once_whatever_it_probes() {
        let (db, t) = db();
        let cols = [ColRef::new(t, 0), ColRef::new(t, 1), ColRef::new(t, 2)];
        let mut cfg = PhysicalConfig::new();
        cfg.create_index(&db, cols[1]);
        let mut eqo = Eqo::new(&db);
        let q = Query::single(t, vec![SelPred::eq(cols[0], 7i64), SelPred::between(cols[1], i64::MIN, 3i64)]);
        let estimates = || crate::selectivity::ESTIMATES.with(|n| n.get());
        // The base derivation and three probes, one of them reverse.
        let before = estimates();
        eqo.what_if_optimize(&q, &cols, &cfg);
        assert_eq!(estimates() - before, 2);
    }

    #[test]
    fn empty_probe_set_is_free() {
        let (db, t) = db();
        let cfg = PhysicalConfig::new();
        let mut eqo = Eqo::new(&db);
        let q = Query::single(t, vec![]);
        assert!(eqo.what_if_optimize(&q, &[], &cfg).is_empty());
        assert_eq!(eqo.counters().whatif_calls, 0);
    }

    /// Every probe is charged one what-if call, repeats included, and
    /// `optimize` none; the two memo counters, kept for their readers,
    /// never move.
    #[test]
    fn each_probe_is_counted_once_and_optimize_never() {
        let (db, t) = db();
        let cfg = PhysicalConfig::new();
        let mut eqo = Eqo::new(&db);
        let probes = [ColRef::new(t, 0), ColRef::new(t, 1)];
        for i in 0..5i64 {
            let q = Query::single(t, vec![SelPred::eq(ColRef::new(t, 0), i % 2)]);
            eqo.optimize(&q, &cfg);
            eqo.what_if_optimize(&q, &probes, &cfg);
        }
        assert_eq!(
            eqo.counters(),
            EqoCounters { whatif_calls: 10, ..EqoCounters::default() }
        );
    }

    /// Distinct statements, each twice, through one long-lived EQO:
    /// every call estimates its predicate afresh (one estimate), every
    /// answer equals a fresh EQO's, and only what-if calls are counted.
    #[test]
    fn a_long_lived_eqo_answers_every_call_like_a_fresh_one() {
        let (db, t) = db();
        let cfg = PhysicalConfig::new();
        let mut eqo = Eqo::new(&db);
        let probes = [ColRef::new(t, 0)];
        let estimates = || crate::selectivity::ESTIMATES.with(|n| n.get());
        for _ in 0..2 {
            for i in 0..5i64 {
                let q = Query::single(t, vec![SelPred::eq(ColRef::new(t, 0), i)]);
                let before = estimates();
                let gains = eqo.what_if_optimize(&q, &probes, &cfg);
                assert_eq!(estimates() - before, 1, "template {i} re-derived");
                assert_eq!(gains, Eqo::new(&db).what_if_optimize(&q, &probes, &cfg));
            }
        }
        assert_eq!(eqo.counters(), EqoCounters { whatif_calls: 10, ..EqoCounters::default() });
    }

    /// A repeated probe is re-derived, bit-identically, and charged
    /// again; `optimize` beside it is the bare optimizer's plan.
    #[test]
    fn a_repeated_probe_is_rederived_identically_and_charged_again() {
        let (db, t) = db();
        let cfg = PhysicalConfig::new();
        let mut eqo = Eqo::new(&db);
        let q = Query::single(t, vec![SelPred::eq(ColRef::new(t, 0), 7i64)]);
        let probes = [ColRef::new(t, 0), ColRef::new(t, 1), ColRef::new(t, 2)];
        let cold = eqo.what_if_optimize(&q, &probes, &cfg);
        let warm = eqo.what_if_optimize(&q, &probes, &cfg);
        assert_eq!(warm, cold, "repeated gains must be bit-identical");
        let fresh = Eqo::new(&db).what_if_optimize(&q, &probes, &cfg);
        assert_eq!(fresh, warm);
        let after = eqo.counters();
        assert_eq!(after, EqoCounters { whatif_calls: 2 * probes.len() as u64, ..EqoCounters::default() });
        let plan = eqo.optimize(&q, &cfg);
        assert_eq!(plan, Optimizer::new(&db).optimize(&q, IndexSetView::real(&cfg)));
        assert_eq!(eqo.counters(), after);
    }

    /// A configuration change is seen by the very next plan and probe of
    /// its table, and another table's answers stay as they were.
    #[test]
    fn a_configuration_change_moves_only_its_own_tables_answers() {
        let mut db = Database::new();
        let a = db.add_table(TableSchema::new(
            "a",
            vec![Column::new("x", ValueType::Int)],
        ));
        let b = db.add_table(TableSchema::new(
            "b",
            vec![Column::new("z", ValueType::Int)],
        ));
        db.insert_rows(a, (0..10_000i64).map(|i| row_from(vec![Value::Int(i)]))).unwrap();
        db.insert_rows(b, (0..10_000i64).map(|i| row_from(vec![Value::Int(i)]))).unwrap();
        db.analyze_all();
        let mut cfg = PhysicalConfig::new();
        let mut eqo = Eqo::new(&db);
        let qa = Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), 7i64)]);
        let qb = Query::single(b, vec![SelPred::eq(ColRef::new(b, 0), 7i64)]);
        let gains_a = eqo.what_if_optimize(&qa, &[ColRef::new(a, 0)], &cfg);
        let gains_b = eqo.what_if_optimize(&qb, &[ColRef::new(b, 0)], &cfg);
        assert!(gains_a[0].gain > 0.0);

        // Materialize the probed index on `a`: the real plan of `qa`
        // changes at once, and the reverse probe agrees with the forward
        // one.
        let cost_a = eqo.optimize(&qa, &cfg).est_cost();
        cfg.create_index(&db, ColRef::new(a, 0));
        assert!(eqo.optimize(&qa, &cfg).est_cost() < cost_a);
        let gains_a2 = eqo.what_if_optimize(&qa, &[ColRef::new(a, 0)], &cfg);
        assert!((gains_a2[0].gain - gains_a[0].gain).abs() < 1e-9);
        // Table `b`'s answer is untouched.
        assert_eq!(eqo.what_if_optimize(&qb, &[ColRef::new(b, 0)], &cfg), gains_b);
        assert_eq!(
            eqo.counters(),
            EqoCounters { whatif_calls: 4, ..EqoCounters::default() }
        );
    }
}
