//! Physical plan representation.

use crate::query::JoinPred;
use colt_catalog::{ColRef, TableId};

/// How a base table is accessed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Full sequential scan with all predicates applied as filters.
    SeqScan,
    /// B+ tree scan using the sargable predicate on `col`; remaining
    /// predicates are applied as residual filters on fetched rows.
    IndexScan {
        /// The indexed column driving the scan.
        col: ColRef,
    },
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Base-table access.
    Scan {
        /// The scanned table.
        table: TableId,
        /// Chosen access path.
        path: AccessPath,
        /// Estimated output rows (after all predicates on the table).
        est_rows: f64,
        /// Estimated cost of this node in cost units.
        est_cost: f64,
    },
    /// In-memory hash join of two inputs on equi-join predicates.
    HashJoin {
        /// Build side (smaller estimated input).
        build: Box<PlanNode>,
        /// Probe side.
        probe: Box<PlanNode>,
        /// Join predicates evaluated by this node.
        on: Vec<JoinPred>,
        /// Estimated output rows.
        est_rows: f64,
        /// Estimated cumulative cost (inputs + this join).
        est_cost: f64,
    },
    /// Index nested-loop join: for every outer row, probe a B+ tree on
    /// the inner table's join column and fetch the matching rows.
    /// Available only when [`crate::optimizer::OptimizerOptions`] enables
    /// it (an engine extension beyond the paper's experiments).
    IndexNlJoin {
        /// Outer input (any subtree).
        outer: Box<PlanNode>,
        /// Inner base table, accessed through the index.
        inner: colt_catalog::TableId,
        /// Indexed inner join column driving the probes.
        index: ColRef,
        /// The join predicate served by the index probe.
        probe_on: JoinPred,
        /// Further join predicates applied as residual filters.
        residual_on: Vec<JoinPred>,
        /// Estimated output rows.
        est_rows: f64,
        /// Estimated cumulative cost (outer + probes).
        est_cost: f64,
    },
}

impl PlanNode {
    /// Estimated cumulative cost of the subtree.
    pub fn est_cost(&self) -> f64 {
        match self {
            PlanNode::Scan { est_cost, .. }
            | PlanNode::HashJoin { est_cost, .. }
            | PlanNode::IndexNlJoin { est_cost, .. } => *est_cost,
        }
    }

    /// Estimated output cardinality of the subtree.
    pub fn est_rows(&self) -> f64 {
        match self {
            PlanNode::Scan { est_rows, .. }
            | PlanNode::HashJoin { est_rows, .. }
            | PlanNode::IndexNlJoin { est_rows, .. } => *est_rows,
        }
    }

    /// Tables covered by the subtree.
    pub fn tables(&self) -> Vec<TableId> {
        match self {
            PlanNode::Scan { table, .. } => vec![*table],
            PlanNode::HashJoin { build, probe, .. } => {
                let mut t = build.tables();
                t.extend(probe.tables());
                t.sort_unstable();
                t
            }
            PlanNode::IndexNlJoin { outer, inner, .. } => {
                let mut t = outer.tables();
                t.push(*inner);
                t.sort_unstable();
                t
            }
        }
    }

    /// Indices used anywhere in the subtree (for the paper's `u_{q,I}`
    /// indicator: whether the optimizer chose index `I` for query `q`).
    pub fn used_indices(&self) -> Vec<ColRef> {
        let mut out = Vec::new();
        self.used_indices_into(&mut out);
        out
    }

    /// [`PlanNode::used_indices`] written over `out`, which the caller keeps.
    pub fn used_indices_into(&self, out: &mut Vec<ColRef>) {
        out.clear();
        self.collect_indices(out);
        out.sort_unstable();
        out.dedup();
    }

    fn collect_indices(&self, out: &mut Vec<ColRef>) {
        match self {
            PlanNode::Scan { path: AccessPath::IndexScan { col }, .. } => out.push(*col),
            PlanNode::Scan { .. } => {}
            PlanNode::HashJoin { build, probe, .. } => {
                build.collect_indices(out);
                probe.collect_indices(out);
            }
            PlanNode::IndexNlJoin { outer, index, .. } => {
                out.push(*index);
                outer.collect_indices(out);
            }
        }
    }

    /// Render an EXPLAIN-style tree, one node per line.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        self.explain_into(&mut s, 0);
        s
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PlanNode::Scan { table, path, est_rows, est_cost } => {
                let p = match path {
                    AccessPath::SeqScan => "SeqScan".to_string(),
                    AccessPath::IndexScan { col } => format!("IndexScan[{col}]"),
                };
                out.push_str(&format!(
                    "{pad}{p} t{} (rows={est_rows:.1} cost={est_cost:.1})\n",
                    table.0
                ));
            }
            PlanNode::HashJoin { build, probe, on, est_rows, est_cost } => {
                out.push_str(&format!(
                    "{pad}HashJoin on {} preds (rows={est_rows:.1} cost={est_cost:.1})\n",
                    on.len()
                ));
                build.explain_into(out, depth + 1);
                probe.explain_into(out, depth + 1);
            }
            PlanNode::IndexNlJoin { outer, inner, index, est_rows, est_cost, .. } => {
                out.push_str(&format!(
                    "{pad}IndexNLJoin inner=t{} via [{index}] (rows={est_rows:.1} cost={est_cost:.1})\n",
                    inner.0
                ));
                outer.explain_into(out, depth + 1);
            }
        }
    }
}

/// A complete optimized plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Root of the operator tree.
    pub root: PlanNode,
    /// Estimated selectivity of each of the query's selection
    /// predicates, in `query.selections` order — the estimates the plan
    /// was priced with. The optimizer derives them once per statement;
    /// what-if probes and the tuner's profiler read them here.
    pub selectivities: Vec<f64>,
}

impl Plan {
    /// Total estimated cost in cost units.
    pub fn est_cost(&self) -> f64 {
        self.root.est_cost()
    }

    /// Estimated result cardinality.
    pub fn est_rows(&self) -> f64 {
        self.root.est_rows()
    }

    /// Indices the plan relies on.
    pub fn used_indices(&self) -> Vec<ColRef> {
        self.root.used_indices()
    }

    /// EXPLAIN output.
    pub fn explain(&self) -> String {
        self.root.explain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(t: u32, cost: f64) -> PlanNode {
        PlanNode::Scan { table: TableId(t), path: AccessPath::SeqScan, est_rows: 10.0, est_cost: cost }
    }

    #[test]
    fn plan_accessors() {
        let join = PlanNode::HashJoin {
            build: Box::new(scan(0, 5.0)),
            probe: Box::new(PlanNode::Scan {
                table: TableId(1),
                path: AccessPath::IndexScan { col: ColRef::new(TableId(1), 2) },
                est_rows: 3.0,
                est_cost: 2.0,
            }),
            on: vec![],
            est_rows: 30.0,
            est_cost: 10.0,
        };
        let plan = Plan { root: join, selectivities: Vec::new() };
        assert_eq!(plan.est_cost(), 10.0);
        assert_eq!(plan.est_rows(), 30.0);
        assert_eq!(plan.root.tables(), vec![TableId(0), TableId(1)]);
        assert_eq!(plan.used_indices(), vec![ColRef::new(TableId(1), 2)]);
        let ex = plan.explain();
        assert!(ex.contains("HashJoin"));
        assert!(ex.contains("IndexScan[t1.c2]"));
        assert!(ex.contains("SeqScan t0"));
    }
}
