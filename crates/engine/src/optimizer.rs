//! Selinger-style query optimizer: access-path selection per table plus
//! dynamic-programming join ordering over table subsets.
//!
//! The optimizer only reads catalog *estimates* (statistics and
//! [`IndexEstimate`]s), never the physical trees, which is what makes
//! hypothetical what-if optimization (§ [`crate::whatif`]) possible: a
//! hypothetical index is simply an entry in the [`IndexSetView`] overlay.

use crate::cost::{hash_join_cost, index_nl_join_cost, index_scan_cost, seq_scan_cost};
use crate::plan::{AccessPath, Plan, PlanNode};
use crate::query::{JoinPred, Query};
use crate::selectivity::{on_table, selectivities, table_selectivity};
use colt_catalog::{ColRef, Database, PhysicalConfig, TableId};
use std::collections::BTreeSet;

/// Maximum number of tables a query may join. Workload queries use at
/// most four; the hard cap keeps the subset DP bounded.
pub const MAX_JOIN_TABLES: usize = 12;

/// A view of "which indices exist" composed of the real physical
/// configuration plus a hypothetical overlay: `plus` adds indices that
/// are not materialized, `minus` hides indices that are.
#[derive(Debug, Clone, Copy)]
pub struct IndexSetView<'a> {
    config: &'a PhysicalConfig,
    plus: Option<&'a BTreeSet<ColRef>>,
    minus: Option<&'a BTreeSet<ColRef>>,
}

impl<'a> IndexSetView<'a> {
    /// The real configuration, unmodified.
    pub fn real(config: &'a PhysicalConfig) -> Self {
        IndexSetView { config, plus: None, minus: None }
    }

    /// The real configuration with a hypothetical overlay.
    pub fn hypothetical(
        config: &'a PhysicalConfig,
        plus: &'a BTreeSet<ColRef>,
        minus: &'a BTreeSet<ColRef>,
    ) -> Self {
        IndexSetView { config, plus: Some(plus), minus: Some(minus) }
    }

    /// Composite (multi-column) indices materialized on a table. These
    /// are part of the base configuration (see `colt_catalog::composite`)
    /// and have no hypothetical overlay.
    pub fn composites_on(
        &self,
        table: TableId,
    ) -> impl Iterator<Item = &'a colt_catalog::MaterializedComposite> + '_ {
        self.config.composites_on(table)
    }

    /// Does the view contain an index on `col`?
    pub fn has(&self, col: ColRef) -> bool {
        if self.minus.is_some_and(|m| m.contains(&col)) {
            return false;
        }
        self.config.contains(col) || self.plus.is_some_and(|p| p.contains(&col))
    }
}

/// Optional optimizer features.
///
/// The defaults match the engine configuration used by the paper
/// reproduction. Index nested-loop joins are an extension: they make
/// join-column indices valuable (not only selection columns), but they
/// also break the per-table cost separability that makes the OFFLINE
/// baseline provably exhaustive-equivalent, so the experiment benches
/// keep them off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerOptions {
    /// Consider index nested-loop joins when the inner side is a base
    /// table with an index on its join column.
    pub enable_index_nl_join: bool,
}

/// The optimizer. Stateless apart from the database reference; every
/// call prices plans under a caller-supplied [`IndexSetView`].
#[derive(Debug, Clone, Copy)]
pub struct Optimizer<'a> {
    db: &'a Database,
    options: OptimizerOptions,
}

/// Best access path for one table, cached and reused across what-if
/// probes that do not touch the table.
#[derive(Debug, Clone)]
pub struct ScanChoice {
    /// The resulting scan node.
    pub node: PlanNode,
    /// Number of selection predicates on the table in this query.
    pub pred_count: usize,
}

impl<'a> Optimizer<'a> {
    /// Create an optimizer over a database with default options.
    pub fn new(db: &'a Database) -> Self {
        Optimizer { db, options: OptimizerOptions::default() }
    }

    /// Create an optimizer with explicit options.
    pub fn with_options(db: &'a Database, options: OptimizerOptions) -> Self {
        Optimizer { db, options }
    }

    /// Optimize a query under the given index view. This is where a
    /// statement's predicates are estimated — once; everything priced
    /// here, and every later reader of the plan, reads
    /// [`Plan::selectivities`].
    pub fn optimize(&self, query: &Query, view: IndexSetView<'_>) -> Plan {
        let selectivities = selectivities(self.db, query);
        let scans: Vec<ScanChoice> =
            query.tables.iter().map(|&t| self.best_scan(query, &selectivities, t, view)).collect();
        Plan { root: self.join_order(query, &selectivities, scans, view), selectivities }
    }

    /// Choose the cheapest access path for `table`: a sequential scan, or
    /// an index scan driven by any sargable predicate whose column has an
    /// index in `view`. `sels` is the query's
    /// [`selectivities`].
    pub fn best_scan(
        &self,
        query: &Query,
        sels: &[f64],
        table: TableId,
        view: IndexSetView<'_>,
    ) -> ScanChoice {
        let t = self.db.table(table);
        let rows = t.heap.row_count() as f64;
        let pages = t.heap.page_count() as f64;
        let preds = on_table(query, sels, table);
        let pred_count = preds.clone().count();
        let est_rows = (rows * table_selectivity(query, sels, table)).max(0.0);

        let mut best_cost = seq_scan_cost(&self.db.cost, pages, rows, pred_count);
        let mut best_path = AccessPath::SeqScan;

        for (p, sel) in preds.clone() {
            if !view.has(p.col) {
                continue;
            }
            let est = self.db.index_estimate(p.col);
            let cost =
                index_scan_cost(&self.db.cost, &est, sel, rows, pages, pred_count.saturating_sub(1));
            if cost < best_cost {
                best_cost = cost;
                best_path = AccessPath::IndexScan { col: p.col };
            }
        }

        // Composite (multi-column) paths: usable when the predicates
        // match a prefix of the column list — a run of equalities,
        // optionally followed by one range on the next column.
        for comp in view.composites_on(table) {
            use crate::query::PredicateKind;
            let mut eq_prefix = 0u32;
            let mut sel = 1.0;
            let mut used = 0usize;
            let mut range_next = false;
            for &c in &comp.key.columns {
                let col = ColRef::new(table, c);
                if let Some((_, eq_sel)) = preds
                    .clone()
                    .find(|(p, _)| p.col == col && matches!(p.kind, PredicateKind::Eq(_)))
                {
                    sel *= eq_sel;
                    eq_prefix += 1;
                    used += 1;
                    continue;
                }
                if let Some((_, range_sel)) = preds
                    .clone()
                    .find(|(p, _)| p.col == col && matches!(p.kind, PredicateKind::Range { .. }))
                {
                    sel *= range_sel;
                    used += 1;
                    range_next = true;
                }
                break;
            }
            if used == 0 {
                continue;
            }
            let est = comp.key.estimate(self.db);
            let cost = index_scan_cost(
                &self.db.cost,
                &est,
                sel,
                rows,
                pages,
                pred_count.saturating_sub(used),
            );
            if cost < best_cost {
                best_cost = cost;
                best_path = AccessPath::CompositeScan {
                    key: comp.key.clone(),
                    eq_prefix,
                    range_next,
                };
            }
        }

        ScanChoice {
            node: PlanNode::Scan { table, path: best_path, est_rows, est_cost: best_cost },
            pred_count,
        }
    }

    /// Join-order the per-table scans with a dynamic program over table
    /// subsets (bushy plans allowed, Cartesian products only as a last
    /// resort): the root of the cheapest tree. `sels` is the query's
    /// [`selectivities`].
    pub fn join_order(
        &self,
        query: &Query,
        sels: &[f64],
        scans: Vec<ScanChoice>,
        view: IndexSetView<'_>,
    ) -> PlanNode {
        let n = query.tables.len();
        assert!(n >= 1, "query must reference at least one table");
        assert!(n <= MAX_JOIN_TABLES, "too many tables for the join DP");
        if n == 1 {
            // colt: allow(panic-policy) — n == 1 guarantees exactly one scan
            return scans.into_iter().next().expect("one scan").node;
        }

        // best[mask] = best plan covering the tables in `mask`.
        let full = (1usize << n) - 1;
        let mut best: Vec<Option<PlanNode>> = vec![None; full + 1];
        for (i, s) in scans.into_iter().enumerate() {
            best[1 << i] = Some(s.node);
        }

        // Each join predicate with the table bits of its two sides,
        // resolved once per query (a predicate over a table the query
        // does not list connects nothing).
        let bit = |t: TableId| query.tables.iter().position(|&x| x == t).map(|i| 1usize << i);
        let joins: Vec<(JoinPred, usize, usize)> = query
            .joins
            .iter()
            .filter_map(|j| Some((*j, bit(j.left.table)?, bit(j.right.table)?)))
            .collect();
        // Join predicates with one side in each subset.
        let connecting = |left: usize, right: usize| {
            joins.iter().filter(move |&&(_, lm, rm)| {
                (lm & left != 0 && rm & right != 0) || (lm & right != 0 && rm & left != 0)
            })
        };

        // Pre-compute estimated cardinality for every subset: the product
        // of per-table filtered rows times the selectivity of every join
        // predicate internal to the subset.
        let table_rows: Vec<f64> = query
            .tables
            .iter()
            .map(|&t| {
                let rows = self.db.table(t).heap.row_count() as f64;
                rows * table_selectivity(query, sels, t)
            })
            .collect();
        let subset_rows = |mask: usize| -> f64 {
            let mut rows = 1.0;
            for (i, r) in table_rows.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    rows *= r.max(1.0);
                }
            }
            for (j, lm, rm) in &joins {
                if mask & lm != 0 && mask & rm != 0 {
                    rows /= self.join_ndv(j).max(1.0);
                }
            }
            rows.max(0.0)
        };

        for mask in 1..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            let out_rows = subset_rows(mask);
            // Enumerate proper sub-splits; `sub` iterates submasks. Only
            // the winner becomes a node: a hash join is remembered as
            // its (build, probe) subsets and built once, below.
            let mut sub = (mask - 1) & mask;
            let mut best_cost = f64::INFINITY;
            let mut best_split: Option<(usize, usize)> = None;
            let mut best_inl: Option<PlanNode> = None;
            let mut connected_found = false;
            while sub != 0 {
                let other = mask ^ sub;
                if sub < other {
                    // Each unordered split visited once.
                    if let (Some(l), Some(r)) = (&best[sub], &best[other]) {
                        let connected = connecting(sub, other).next().is_some();
                        if connected && !connected_found {
                            // First connected split invalidates any
                            // Cartesian candidate collected so far.
                            best_cost = f64::INFINITY;
                            best_split = None;
                            connected_found = true;
                        }
                        if connected == connected_found {
                            let ((build, b), (probe, p)) = if l.est_rows() <= r.est_rows() {
                                ((l, sub), (r, other))
                            } else {
                                ((r, other), (l, sub))
                            };
                            let jc = if connected {
                                hash_join_cost(
                                    &self.db.cost,
                                    build.est_rows(),
                                    probe.est_rows(),
                                    out_rows,
                                )
                            } else {
                                // Cartesian product: nested loop over both inputs.
                                self.db.cost.cpu_operator_cost
                                    * (build.est_rows() * probe.est_rows()).max(1.0)
                            };
                            let cost = build.est_cost() + probe.est_cost() + jc;
                            if cost < best_cost {
                                best_cost = cost;
                                best_split = Some((b, p));
                                best_inl = None;
                            }

                            // Alternative: index nested-loop join when
                            // one side is a single base table with an
                            // index on its join column.
                            if connected && self.options.enable_index_nl_join {
                                let on: Vec<JoinPred> =
                                    connecting(sub, other).map(|&(j, ..)| j).collect();
                                for (inner_mask, outer_node) in [(sub, r), (other, l)] {
                                    if inner_mask.count_ones() != 1 {
                                        continue;
                                    }
                                    let ti = inner_mask.trailing_zeros() as usize;
                                    let inner = query.tables[ti];
                                    if let Some((node_cost, node)) = self.consider_inl(
                                        query, &on, inner, outer_node, out_rows, view,
                                    ) {
                                        if node_cost < best_cost {
                                            best_cost = node_cost;
                                            best_inl = Some(node);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                sub = (sub - 1) & mask;
            }
            best[mask] = best_inl.or_else(|| {
                let (b, p) = best_split?;
                Some(PlanNode::HashJoin {
                    build: Box::new(best[b].clone()?),
                    probe: Box::new(best[p].clone()?),
                    on: connecting(b, p).map(|&(j, ..)| j).collect(),
                    est_rows: out_rows,
                    est_cost: best_cost,
                })
            });
        }

        // colt: allow(panic-policy) — the DP seeds every singleton, so the full mask is always reachable
        best[full].take().expect("join DP must cover all tables")
    }

    /// Price an index nested-loop join with `inner` as the probed base
    /// table, if any connecting join predicate has an index on its
    /// inner-side column.
    fn consider_inl(
        &self,
        query: &Query,
        on: &[JoinPred],
        inner: TableId,
        outer: &PlanNode,
        out_rows: f64,
        view: IndexSetView<'_>,
    ) -> Option<(f64, PlanNode)> {
        let t = self.db.table(inner);
        let inner_rows = t.heap.row_count() as f64;
        let inner_pages = t.heap.page_count() as f64;
        let inner_preds = query.selections_on(inner).count();

        let mut best: Option<(f64, PlanNode)> = None;
        for (k, j) in on.iter().enumerate() {
            let Some(col) = j.side_on(inner) else { continue };
            if !view.has(col) {
                continue;
            }
            let est = self.db.index_estimate(col);
            let ndv = if t.stats.is_empty() {
                inner_rows
            } else {
                t.column_stats(col.column).n_distinct as f64
            };
            let matches = (inner_rows / ndv.max(1.0)).max(0.0);
            let residual = inner_preds + (on.len() - 1);
            let jc = index_nl_join_cost(
                &self.db.cost,
                outer.est_rows(),
                &est,
                matches,
                inner_pages,
                residual,
            );
            let cost = outer.est_cost() + jc;
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                let residual_on: Vec<JoinPred> =
                    on.iter().enumerate().filter(|(i, _)| *i != k).map(|(_, j)| *j).collect();
                best = Some((
                    cost,
                    PlanNode::IndexNlJoin {
                        outer: Box::new(outer.clone()),
                        inner,
                        index: col,
                        probe_on: *j,
                        residual_on,
                        est_rows: out_rows,
                        est_cost: cost,
                    },
                ));
            }
        }
        best
    }

    /// Larger distinct count of the two join columns (join selectivity
    /// denominator).
    fn join_ndv(&self, j: &JoinPred) -> f64 {
        let ndv = |c: ColRef| {
            let t = self.db.table(c.table);
            if t.stats.is_empty() {
                t.heap.row_count() as f64
            } else {
                t.column_stats(c.column).n_distinct as f64
            }
        };
        ndv(j.left).max(ndv(j.right))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::SelPred;
    use colt_catalog::{Column, IndexOrigin, TableSchema};
    use colt_storage::{row_from, Value, ValueType};

    /// Two-table database: `big` (50k rows, fk into dim) and `dim` (500).
    fn db() -> (Database, TableId, TableId) {
        let mut db = Database::new();
        let big = db.add_table(TableSchema::new(
            "big",
            vec![
                Column::new("id", ValueType::Int),
                Column::new("fk", ValueType::Int),
                Column::new("v", ValueType::Int),
            ],
        ));
        let dim = db.add_table(TableSchema::new(
            "dim",
            vec![Column::new("id", ValueType::Int), Column::new("grp", ValueType::Int)],
        ));
        db.insert_rows(
            big,
            (0..50_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 500), Value::Int(i % 1000)])),
        ).unwrap();
        db.insert_rows(dim, (0..500i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 10)]))).unwrap();
        db.analyze_all();
        (db, big, dim)
    }

    #[test]
    fn single_table_seq_scan_without_index() {
        let (db, big, _) = db();
        let cfg = PhysicalConfig::new();
        let opt = Optimizer::new(&db);
        let q = Query::single(big, vec![SelPred::eq(ColRef::new(big, 0), 42i64)]);
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        assert!(matches!(plan.root, PlanNode::Scan { path: AccessPath::SeqScan, .. }));
        assert!(plan.used_indices().is_empty());
    }

    #[test]
    fn selective_predicate_picks_index_when_available() {
        let (db, big, _) = db();
        let mut cfg = PhysicalConfig::new();
        let col = ColRef::new(big, 0);
        cfg.create_index(&db, col, IndexOrigin::Online);
        let opt = Optimizer::new(&db);
        let q = Query::single(big, vec![SelPred::eq(col, 42i64)]);
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        assert_eq!(plan.used_indices(), vec![col]);
        // And the indexed plan must be cheaper than the forced seq scan.
        let seq_plan = opt.optimize(&q, IndexSetView::real(&PhysicalConfig::new()));
        assert!(plan.est_cost() < seq_plan.est_cost());
    }

    #[test]
    fn unselective_predicate_keeps_seq_scan() {
        let (db, big, _) = db();
        let mut cfg = PhysicalConfig::new();
        let col = ColRef::new(big, 2); // 1000 distinct over 50k rows
        cfg.create_index(&db, col, IndexOrigin::Online);
        let opt = Optimizer::new(&db);
        // 80% of the value range.
        let q = Query::single(big, vec![SelPred::between(col, 0i64, 799i64)]);
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        assert!(plan.used_indices().is_empty(), "unselective range should not use the index");
    }

    #[test]
    fn hypothetical_view_adds_and_hides() {
        let (db, big, _) = db();
        let mut cfg = PhysicalConfig::new();
        let real_col = ColRef::new(big, 0);
        cfg.create_index(&db, real_col, IndexOrigin::Online);
        let hypo_col = ColRef::new(big, 1);
        let plus = BTreeSet::from([hypo_col]);
        let minus = BTreeSet::from([real_col]);
        let view = IndexSetView::hypothetical(&cfg, &plus, &minus);
        assert!(view.has(hypo_col));
        assert!(!view.has(real_col));
        assert!(IndexSetView::real(&cfg).has(real_col));
        assert!(!IndexSetView::real(&cfg).has(hypo_col));
    }

    #[test]
    fn two_table_join_plan() {
        let (db, big, dim) = db();
        let cfg = PhysicalConfig::new();
        let opt = Optimizer::new(&db);
        let q = Query::join(
            vec![big, dim],
            vec![JoinPred::new(ColRef::new(big, 1), ColRef::new(dim, 0))],
            vec![SelPred::eq(ColRef::new(dim, 1), 3i64)],
        );
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        let PlanNode::HashJoin { build, probe, on, est_rows, .. } = &plan.root else {
            panic!("expected a join root: {}", plan.explain());
        };
        assert_eq!(on.len(), 1);
        // Build side must be the smaller (filtered dim) input.
        assert!(build.est_rows() <= probe.est_rows());
        // ~10% of dim joins with big: expect about 5000 output rows.
        assert!((*est_rows - 5000.0).abs() < 2500.0, "rows {est_rows}");
    }

    #[test]
    fn three_table_join_covers_all_tables() {
        let (mut db, big, dim) = db();
        let extra = db.add_table(TableSchema::new(
            "extra",
            vec![Column::new("id", ValueType::Int)],
        ));
        db.insert_rows(extra, (0..100i64).map(|i| row_from(vec![Value::Int(i)]))).unwrap();
        db.analyze_all();
        let cfg = PhysicalConfig::new();
        let opt = Optimizer::new(&db);
        let q = Query::join(
            vec![big, dim, extra],
            vec![
                JoinPred::new(ColRef::new(big, 1), ColRef::new(dim, 0)),
                JoinPred::new(ColRef::new(dim, 1), ColRef::new(extra, 0)),
            ],
            vec![],
        );
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        assert_eq!(plan.root.tables().len(), 3);
    }

    #[test]
    fn inl_join_chosen_when_enabled_and_beneficial() {
        let (db, big, dim) = db();
        let mut cfg = PhysicalConfig::new();
        // Index the big table's fk column: with a selective filter on
        // dim, probing big through the index beats hashing all of big.
        let fk = ColRef::new(big, 1);
        cfg.create_index(&db, fk, IndexOrigin::Online);
        let q = Query::join(
            vec![big, dim],
            vec![JoinPred::new(fk, ColRef::new(dim, 0))],
            vec![SelPred::eq(ColRef::new(dim, 0), 7i64)],
        );
        let plain = Optimizer::new(&db).optimize(&q, IndexSetView::real(&cfg));
        assert!(
            !matches!(plain.root, PlanNode::IndexNlJoin { .. }),
            "INLJ must be off by default"
        );
        let opt = Optimizer::with_options(&db, OptimizerOptions { enable_index_nl_join: true });
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        assert!(
            matches!(plan.root, PlanNode::IndexNlJoin { .. }),
            "expected INLJ, got: {}",
            plan.explain()
        );
        assert!(plan.est_cost() < plain.est_cost());
        assert!(plan.used_indices().contains(&fk));
    }

    #[test]
    fn inl_join_not_chosen_without_index() {
        let (db, big, dim) = db();
        let cfg = PhysicalConfig::new();
        let opt = Optimizer::with_options(&db, OptimizerOptions { enable_index_nl_join: true });
        let q = Query::join(
            vec![big, dim],
            vec![JoinPred::new(ColRef::new(big, 1), ColRef::new(dim, 0))],
            vec![SelPred::eq(ColRef::new(dim, 0), 7i64)],
        );
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        assert!(!matches!(plan.root, PlanNode::IndexNlJoin { .. }));
    }

    #[test]
    fn optimize_estimates_each_predicate_once() {
        let (db, big, dim) = db();
        let mut cfg = PhysicalConfig::new();
        for col in [ColRef::new(big, 0), ColRef::new(big, 2), ColRef::new(dim, 1)] {
            cfg.create_index(&db, col, IndexOrigin::Online);
        }
        cfg.create_composite(&db, colt_catalog::CompositeKey::new(big, vec![2, 0]));
        let opt = Optimizer::new(&db);
        let estimates = || crate::selectivity::ESTIMATES.with(|n| n.get());
        // Every predicate has an index path and a composite prefix to
        // price besides the table's combined selectivity…
        let on_big = vec![
            SelPred::between(ColRef::new(big, 0), 10i64, 500i64),
            SelPred::eq(ColRef::new(big, 2), 7i64),
        ];
        let before = estimates();
        let plan = opt.optimize(&Query::single(big, on_big.clone()), IndexSetView::real(&cfg));
        assert_eq!(estimates() - before, 2);
        assert_eq!(plan.selectivities.len(), 2);
        // …and in a join the DP's cardinalities read them a third time.
        let mut selections = on_big;
        selections.push(SelPred::eq(ColRef::new(dim, 1), 3i64));
        let q = Query::join(
            vec![big, dim],
            vec![JoinPred::new(ColRef::new(big, 1), ColRef::new(dim, 0))],
            selections,
        );
        let before = estimates();
        opt.optimize(&q, IndexSetView::real(&cfg));
        assert_eq!(estimates() - before, 3);
    }

    #[test]
    fn cartesian_product_as_last_resort() {
        let (db, big, dim) = db();
        let cfg = PhysicalConfig::new();
        let opt = Optimizer::new(&db);
        let q = Query::join(vec![big, dim], vec![], vec![]);
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        assert_eq!(plan.root.tables().len(), 2);
        assert!(plan.est_cost().is_finite());
    }
}
