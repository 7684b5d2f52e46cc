//! On-line multi-column tuning — an opt-in extension of COLT toward the
//! paper's stated future work.
//!
//! The single-column machinery stays untouched (candidates, profiler,
//! knapsack). On top of it, when [`crate::ColtConfig::composite_budget_pages`]
//! is non-zero, the tuner keeps the recent query window `S_h` and at
//! every epoch boundary runs the composite advisor
//! (`colt_offline::suggest_composites`-style analysis, re-implemented
//! here over the live window to avoid a dependency cycle) to maintain a
//! small set of multi-column indices within their own page budget:
//!
//! * a suggestion is materialized when its forecast benefit over the
//!   next `h` epochs exceeds its build cost (the same `NetBenefit`
//!   discipline as the paper's knapsack), and
//! * a materialized composite is dropped when the window no longer
//!   contains the co-occurring predicates that justified it.

use crate::config::ColtConfig;
use colt_catalog::{ColRef, CompositeKey, Database, PhysicalConfig};
use colt_engine::cost::{index_scan_cost, seq_scan_cost};
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
    horizon: usize,
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
            horizon: config.history_epochs,
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
    /// beyond the best single-column alternative (mirrors the off-line
    /// advisor's scoring). `sels` are the query's estimates.
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

    /// Estimated build cost of a composite, in cost units.
    fn build_cost(db: &Database, key: &CompositeKey) -> f64 {
        let t = db.table(key.table);
        let n = t.heap.row_count() as f64;
        let c = &db.cost;
        let sort_ops = if n > 1.0 { n * n.log2() } else { 0.0 };
        c.seq_page_cost * t.heap.page_count() as f64
            + c.cpu_tuple_cost * n
            + c.cpu_operator_cost * sort_ops
            + c.page_write_cost * key.estimate(db).pages as f64
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
        // Window totals → per-epoch level → horizon forecast, minus the
        // build cost for new composites (the NetBenefit discipline).
        let per_epoch = |total: f64| total / self.horizon as f64;

        // Drop composites whose window benefit no longer covers even a
        // fraction of what justified them.
        let current: Vec<CompositeKey> = self.used_pages.keys().cloned().collect();
        for key in current {
            let total = scores.get(&key).copied().unwrap_or(0.0);
            if per_epoch(total) * self.horizon as f64 <= 0.0 {
                physical.drop_composite(&key);
                self.used_pages.remove(&key);
                step.dropped.push(key);
            }
        }

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
            let forecast = per_epoch(total) * self.horizon as f64;
            let net = forecast - Self::build_cost(db, &key);
            if net <= 0.0 {
                break; // ranked by benefit: nothing later can pass
            }
            let mut set = key.columns.clone();
            set.sort_unstable();
            if column_sets.contains(&(key.table, set.clone())) {
                continue;
            }
            let pages = key.estimate(db).pages;
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
    }
}
