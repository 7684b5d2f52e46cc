//! On-line multi-column tuning — an opt-in extension of COLT toward the
//! paper's stated future work.
//!
//! The single-column machinery stays untouched (candidates, profiler,
//! knapsack). On top of it, when [`crate::ColtConfig::composite_budget_pages`]
//! is non-zero, the tuner keeps the recent query window `S_h` and at
//! every epoch boundary scores two-column candidates over it — an
//! equality on the leading column, any predicate on the second, each
//! priced against the best single-column alternative — to maintain a
//! small set of multi-column indices within their own page budget:
//!
//! * a candidate is materialized when its benefit over the window (the
//!   flat forecast over the next `h` epochs) exceeds its build cost (the
//!   same `NetBenefit` discipline as the paper's knapsack), and
//! * a materialized composite is dropped when no query in the window
//!   scores it any more.

use crate::config::ColtConfig;
use colt_catalog::{ColRef, CompositeKey, Database, PhysicalConfig};
use colt_engine::cost::{build_cost, index_scan_cost, seq_scan_cost};
use colt_engine::selectivity::on_table;
use colt_engine::{Plan, PredicateKind, Query};
use colt_storage::IoStats;
use std::collections::{BTreeMap, VecDeque};

/// Per-epoch outcome of the composite extension.
#[derive(Debug, Clone, Default)]
pub struct CompositeStep {
    /// Composites built at this boundary, with their build cost.
    pub built: Vec<(CompositeKey, IoStats)>,
    /// Composites dropped at this boundary.
    pub dropped: Vec<CompositeKey>,
}

/// The on-line composite tuner.
#[derive(Debug)]
pub struct CompositeTuner {
    budget_pages: u64,
    window_queries: usize,
    /// Each query with the predicate estimates its plan was priced
    /// with ([`Plan::selectivities`]).
    window: VecDeque<(Query, Vec<f64>)>,
    /// Pages used by composites we materialized.
    used_pages: BTreeMap<CompositeKey, u64>,
}

impl CompositeTuner {
    /// Build from the COLT configuration; inactive when the composite
    /// budget is zero.
    pub fn new(config: &ColtConfig) -> Self {
        CompositeTuner {
            budget_pages: config.composite_budget_pages,
            window_queries: config.history_epochs * config.epoch_length,
            window: VecDeque::new(),
            used_pages: BTreeMap::new(),
        }
    }

    /// Is the extension enabled?
    pub fn enabled(&self) -> bool {
        self.budget_pages > 0
    }

    /// Record one query, with its plan's estimates, into the memory
    /// window.
    pub fn observe(&mut self, query: &Query, plan: &Plan) {
        if !self.enabled() {
            return;
        }
        self.window.push_back((query.clone(), plan.selectivities.clone()));
        while self.window.len() > self.window_queries {
            self.window.pop_front();
        }
    }

    /// Estimated extra benefit of a two-column composite for one query,
    /// beyond the best single-column alternative. `sels` are the query's
    /// estimates.
    fn extra_benefit(db: &Database, q: &Query, sels: &[f64], key: &CompositeKey) -> f64 {
        let table = key.table;
        if !q.tables.contains(&table) {
            return 0.0;
        }
        let t = db.table(table);
        let rows = t.heap.row_count() as f64;
        let pages = t.heap.page_count() as f64;
        let preds: Vec<_> = on_table(q, sels, table).collect();

        // Usable prefix: eq on the leading column, then eq/range next.
        let lead = ColRef::new(table, key.columns[0]);
        let Some(&(_, sel1)) = preds
            .iter()
            .find(|(p, _)| p.col == lead && matches!(p.kind, PredicateKind::Eq(_)))
        else {
            return 0.0;
        };
        let second = ColRef::new(table, key.columns[1]);
        let Some(&(_, sel2)) = preds.iter().find(|(p, _)| p.col == second) else { return 0.0 };

        let comp_cost = index_scan_cost(
            &db.cost,
            &key.estimate(db),
            sel1 * sel2,
            rows,
            pages,
            preds.len().saturating_sub(2),
        );
        let single = |col: ColRef, sel: f64| {
            index_scan_cost(
                &db.cost,
                &db.index_estimate(col),
                sel,
                rows,
                pages,
                preds.len().saturating_sub(1),
            )
        };
        let alternative = single(lead, sel1)
            .min(single(second, sel2))
            .min(seq_scan_cost(&db.cost, pages, rows, preds.len()));
        (alternative - comp_cost).max(0.0)
    }

    /// Epoch boundary: re-evaluate composite candidates over the window
    /// and reconcile the materialized composite set.
    pub fn reorganize(&mut self, db: &Database, physical: &mut PhysicalConfig) -> CompositeStep {
        let mut step = CompositeStep::default();
        if !self.enabled() {
            return step;
        }

        // Score every two-column candidate over the window.
        let mut scores: BTreeMap<CompositeKey, f64> = BTreeMap::new();
        for (q, sels) in &self.window {
            for &table in &q.tables {
                let preds: Vec<_> = q.selections_on(table).collect();
                if preds.len() < 2 {
                    continue;
                }
                for p1 in &preds {
                    if !matches!(p1.kind, PredicateKind::Eq(_)) {
                        continue;
                    }
                    for p2 in &preds {
                        if p2.col == p1.col {
                            continue;
                        }
                        let key =
                            CompositeKey::new(table, vec![p1.col.column, p2.col.column]);
                        let extra = Self::extra_benefit(db, q, sels, &key);
                        if extra > 0.0 {
                            *scores.entry(key).or_insert(0.0) += extra;
                        }
                    }
                }
            }
        }
        // Drop composites no query in the window scored (only positive
        // extras are stored).
        self.used_pages.retain(|key, _| {
            let scored = scores.contains_key(key);
            if !scored {
                physical.drop_composite(key);
                step.dropped.push(key.clone());
            }
            scored
        });

        // Materialize the best new candidates that fit the budget.
        let mut ranked: Vec<(CompositeKey, f64)> = scores
            .into_iter()
            .filter(|(k, _)| !self.used_pages.contains_key(k))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut used: u64 = self.used_pages.values().sum();
        // Both orderings of the same column set serve the same queries;
        // materialize at most one per column set.
        let mut column_sets: Vec<(colt_catalog::TableId, Vec<u32>)> = self
            .used_pages
            .keys()
            .map(|k| {
                let mut cols = k.columns.clone();
                cols.sort_unstable();
                (k.table, cols)
            })
            .collect();
        for (key, total) in ranked {
            // The window spans `h` epochs, so its total is the flat
            // forecast over the next `h`; minus the build cost, that is
            // the candidate's NetBenefit.
            let estimate = key.estimate(db);
            let heap = &db.table(key.table).heap;
            let net = total - build_cost(&db.cost, &estimate, heap.row_count() as f64, heap.page_count() as f64);
            if net <= 0.0 {
                continue;
            }
            let mut set = key.columns.clone();
            set.sort_unstable();
            if column_sets.contains(&(key.table, set.clone())) {
                continue;
            }
            let pages = estimate.pages;
            if used + pages > self.budget_pages {
                continue;
            }
            let io = physical.create_composite(db, key.clone());
            used += pages;
            column_sets.push((key.table, set));
            self.used_pages.insert(key.clone(), pages);
            step.built.push((key, io));
        }
        step
    }

    /// Pages currently used by on-line composites.
    pub fn used_pages(&self) -> u64 {
        self.used_pages.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::{Column, TableId, TableSchema};
    use colt_engine::{IndexSetView, Optimizer, SelPred};
    use colt_storage::{row_from, Value, ValueType};

    fn setup() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableSchema::new(
            "t",
            vec![
                Column::new("a", ValueType::Int),
                Column::new("b", ValueType::Int),
                Column::new("c", ValueType::Int),
            ],
        ));
        db.insert_rows(
            t,
            (0..30_000i64).map(|i| {
                row_from(vec![Value::Int(i % 40), Value::Int(i % 50), Value::Int(i)])
            }),
        ).unwrap();
        db.analyze_all();
        (db, t)
    }

    /// `CompositeTuner::observe` as the tuner calls it: with the query's plan.
    fn observe(tuner: &mut CompositeTuner, db: &Database, q: &Query) {
        let plan = Optimizer::new(db).optimize(q, IndexSetView::real(&PhysicalConfig::new()));
        tuner.observe(q, &plan);
    }

    fn cfg(budget: u64) -> ColtConfig {
        ColtConfig { composite_budget_pages: budget, ..Default::default() }
    }

    #[test]
    fn disabled_when_budget_zero() {
        let (db, t) = setup();
        let mut tuner = CompositeTuner::new(&cfg(0));
        assert!(!tuner.enabled());
        let q = Query::single(
            t,
            vec![SelPred::eq(ColRef::new(t, 0), 1i64), SelPred::eq(ColRef::new(t, 1), 2i64)],
        );
        observe(&mut tuner, &db, &q);
        let mut physical = PhysicalConfig::new();
        let step = tuner.reorganize(&db, &mut physical);
        assert!(step.built.is_empty());
    }

    #[test]
    fn cooccurring_predicates_earn_a_composite() {
        let (db, t) = setup();
        let mut tuner = CompositeTuner::new(&cfg(10_000));
        let mut physical = PhysicalConfig::new();
        for i in 0..120i64 {
            let q = Query::single(
                t,
                vec![
                    SelPred::eq(ColRef::new(t, 0), i % 40),
                    SelPred::eq(ColRef::new(t, 1), i % 50),
                ],
            );
            observe(&mut tuner, &db, &q);
        }
        let step = tuner.reorganize(&db, &mut physical);
        assert_eq!(step.built.len(), 1, "one composite family expected");
        let key = &step.built[0].0;
        assert_eq!(key.table, t);
        assert!(physical.get_composite(key).is_some());
        assert!(tuner.used_pages() > 0);

        // The optimizer now uses it.
        let q = Query::single(
            t,
            vec![SelPred::eq(ColRef::new(t, 0), 3i64), SelPred::eq(ColRef::new(t, 1), 13i64)],
        );
        let plan = Optimizer::new(&db).optimize(&q, IndexSetView::real(&physical));
        assert!(plan.explain().contains("CompositeScan"), "{}", plan.explain());
    }

    #[test]
    fn composite_dropped_when_pattern_disappears() {
        let (db, t) = setup();
        let mut tuner = CompositeTuner::new(&cfg(10_000));
        let mut physical = PhysicalConfig::new();
        for i in 0..120i64 {
            let q = Query::single(
                t,
                vec![
                    SelPred::eq(ColRef::new(t, 0), i % 40),
                    SelPred::eq(ColRef::new(t, 1), i % 50),
                ],
            );
            observe(&mut tuner, &db, &q);
        }
        let step = tuner.reorganize(&db, &mut physical);
        let key = step.built[0].0.clone();

        // The pattern vanishes: only single-predicate queries from now on.
        for i in 0..200i64 {
            observe(&mut tuner, &db, &Query::single(t, vec![SelPred::eq(ColRef::new(t, 2), i)]));
        }
        let step = tuner.reorganize(&db, &mut physical);
        assert!(step.built.is_empty(), "no co-occurring predicates are left in the window");
        assert!(step.dropped.contains(&key));
        assert!(physical.get_composite(&key).is_none());
        assert_eq!(tuner.used_pages(), 0);
    }

    #[test]
    fn budget_caps_composite_footprint() {
        let (db, t) = setup();
        // Budget of 1 page: nothing fits.
        let mut tuner = CompositeTuner::new(&cfg(1));
        let mut physical = PhysicalConfig::new();
        for i in 0..120i64 {
            let q = Query::single(
                t,
                vec![
                    SelPred::eq(ColRef::new(t, 0), i % 40),
                    SelPred::eq(ColRef::new(t, 1), i % 50),
                ],
            );
            observe(&mut tuner, &db, &q);
        }
        let step = tuner.reorganize(&db, &mut physical);
        assert!(step.built.is_empty());
        assert_eq!(tuner.used_pages(), 0);

        // Budget for one composite, a window of (a,b) 50 times and (a,c)
        // 5 times (c a 10 % range, so (a,c) scores too): the
        // better-scored (a,b) family takes it.
        let one = CompositeKey::new(t, vec![0, 1]).estimate(&db).pages;
        let mut tuner = CompositeTuner::new(&cfg(one));
        let mut physical = PhysicalConfig::new();
        for i in 0..55i64 {
            let second = if i < 50 {
                SelPred::eq(ColRef::new(t, 1), i % 50)
            } else {
                SelPred::between(ColRef::new(t, 2), Value::Int(0), Value::Int(3_000))
            };
            observe(&mut tuner, &db, &Query::single(t, vec![SelPred::eq(ColRef::new(t, 0), i % 40), second]));
        }
        let step = tuner.reorganize(&db, &mut physical);
        assert_eq!(step.built.len(), 1);
        let mut columns = step.built[0].0.columns.clone();
        columns.sort_unstable();
        assert_eq!(columns, [0, 1], "the (a,b) family must rank first");
        assert_eq!(tuner.used_pages(), one);
    }

    /// The ranking is by window benefit, but the build cost differs per
    /// table: a candidate on a large table can top the ranking and not
    /// pay for its build, while one ranked below it, on a small table,
    /// does.
    #[test]
    fn a_lower_ranked_candidate_on_a_cheaper_table_is_built() {
        let (mut db, big) = setup();
        let small = db.add_table(TableSchema::new(
            "small",
            vec![Column::new("a", ValueType::Int), Column::new("b", ValueType::Int)],
        ));
        db.insert_rows(small, (0..10_000i64).map(|i| row_from(vec![Value::Int(i % 40), Value::Int(i % 50)])))
            .unwrap();
        db.analyze_all();
        let query = |t| {
            Query::single(t, vec![SelPred::eq(ColRef::new(t, 0), 3i64), SelPred::eq(ColRef::new(t, 1), 13i64)])
        };
        let mut tuner = CompositeTuner::new(&cfg(10_000));
        for _ in 0..3 {
            observe(&mut tuner, &db, &query(big));
        }
        for _ in 0..4 {
            observe(&mut tuner, &db, &query(small));
        }
        let (q_big, q_small) = (query(big), query(small));
        let sels = |q: &Query| Optimizer::new(&db).optimize(q, IndexSetView::real(&PhysicalConfig::new())).selectivities;
        let total = |q: &Query, n: f64, t| n * CompositeTuner::extra_benefit(&db, q, &sels(q), &CompositeKey::new(t, vec![0, 1]));
        let build = |t| {
            let heap = &db.table(t).heap;
            let estimate = CompositeKey::new(t, vec![0, 1]).estimate(&db);
            build_cost(&db.cost, &estimate, heap.row_count() as f64, heap.page_count() as f64)
        };
        let (big_total, small_total) = (total(&q_big, 3.0, big), total(&q_small, 4.0, small));
        assert!(big_total > small_total, "the large table's candidate ranks first");
        assert!(big_total <= build(big) && small_total > build(small), "only the small one pays");

        let mut physical = PhysicalConfig::new();
        let step = tuner.reorganize(&db, &mut physical);
        let built: Vec<TableId> = step.built.iter().map(|(key, _)| key.table).collect();
        assert_eq!(built, [small]);
    }
}
