//! Query clustering (paper §4.1, `QueryGain_H`).
//!
//! The Profiler maintains a clustering `Q_1 … Q_K` of query occurrences
//! in the memory window `S_h`: two queries belong to the same cluster
//! when they access the same tables, have the same join predicates, and
//! restrict the same attributes with selectivity factors in the same
//! range. The paper uses two ranges — 0–2% ("selective") and 2–100% —
//! and so do we.
//!
//! Each cluster tracks how many queries it represented in each of the
//! last `h` epochs, so `Count(Q_i)` (its popularity within the memory
//! window) and the current-epoch count are both cheap to read.

use colt_catalog::{ColRef, TableId};
use colt_engine::{JoinPred, Query};
use std::collections::{BTreeMap, VecDeque};

/// Identifier of a cluster within a [`ClusterSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u32);

/// Selectivity bucket of one restricted attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SelBucket {
    /// Selectivity in `[0, boundary)` — the paper's 0–2% range.
    Selective,
    /// Selectivity in `[boundary, 1]`.
    NonSelective,
}

/// The identity of a cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterKey {
    /// Accessed tables, sorted.
    pub tables: Vec<TableId>,
    /// Join predicates, sorted (already normalized by `JoinPred::new`).
    pub joins: Vec<JoinPred>,
    /// Restricted attributes with their selectivity buckets, sorted.
    pub attrs: Vec<(ColRef, SelBucket)>,
}

impl ClusterKey {
    /// Make this the key of `query`, reusing the key's own vectors.
    /// `sels[i]` is the estimated selectivity of `query.selections[i]`,
    /// bucketed here at `boundary`.
    fn fill(&mut self, query: &Query, sels: &[f64], boundary: f64) {
        self.tables.clear();
        self.tables.extend_from_slice(&query.tables);
        self.tables.sort_unstable();
        self.joins.clear();
        self.joins.extend_from_slice(&query.joins);
        self.joins.sort_unstable();
        self.attrs.clear();
        self.attrs.extend(query.selections.iter().zip(sels).map(|(p, &sel)| {
            let bucket = if sel < boundary { SelBucket::Selective } else { SelBucket::NonSelective };
            (p.col, bucket)
        }));
        self.attrs.sort_unstable_by_key(|(c, b)| (*c, matches!(b, SelBucket::NonSelective)));
        self.attrs.dedup();
    }

    /// Columns this cluster restricts — the indices "relevant to" the
    /// cluster in the profiling algorithm.
    pub fn restricted_columns(&self) -> impl Iterator<Item = ColRef> + '_ {
        self.attrs.iter().map(|(c, _)| *c)
    }
}

/// One cluster with its per-epoch popularity counts.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Cluster identity.
    pub key: ClusterKey,
    /// Per-epoch counts, most recent epoch first; index 0 is the epoch
    /// in progress. Bounded by the history depth `h`.
    counts: VecDeque<u64>,
    /// Sum of `counts`, kept as they change: every boundary and every
    /// sampling decision reads it.
    window: u64,
}

impl Cluster {
    /// Queries of this cluster seen in the epoch in progress.
    pub fn current_epoch_count(&self) -> u64 {
        self.counts.front().copied().unwrap_or(0)
    }

    /// `Count(Q_i)`: queries represented within the whole memory window.
    pub fn window_count(&self) -> u64 {
        self.window
    }
}

/// The set of clusters over the memory window.
#[derive(Debug, Clone)]
pub struct ClusterSet {
    // BTreeMap rather than HashMap: the map is lookup-only today, but a
    // hash-keyed field in a kernel crate is one refactor away from
    // reintroducing nondeterministic iteration (colt-analyze enforces this).
    by_key: BTreeMap<ClusterKey, ClusterId>,
    clusters: Vec<Cluster>,
    history_epochs: usize,
    selective_boundary: f64,
    /// The key of the query being assigned: looking a cluster up
    /// allocates nothing, only a first sight clones the key.
    lookup: ClusterKey,
}

impl ClusterSet {
    /// Empty set with the given memory depth and selectivity boundary.
    pub fn new(history_epochs: usize, selective_boundary: f64) -> Self {
        ClusterSet {
            by_key: BTreeMap::new(),
            clusters: Vec::new(),
            history_epochs: history_epochs.max(1),
            selective_boundary,
            lookup: ClusterKey::default(),
        }
    }

    /// Assign a query to its (unique) cluster, creating the cluster on
    /// first sight, and bump the current epoch count. `sels[i]` is the
    /// estimated selectivity of `query.selections[i]`.
    pub fn assign(&mut self, query: &Query, sels: &[f64]) -> ClusterId {
        self.lookup.fill(query, sels, self.selective_boundary);
        let id = match self.by_key.get(&self.lookup) {
            Some(&id) => id,
            None => {
                let id = ClusterId(self.clusters.len() as u32);
                let mut counts = VecDeque::with_capacity(self.history_epochs);
                counts.push_front(0);
                self.clusters.push(Cluster { key: self.lookup.clone(), counts, window: 0 });
                self.by_key.insert(self.lookup.clone(), id);
                id
            }
        };
        let cluster = &mut self.clusters[id.0 as usize];
        // colt: allow(panic-policy) — counts is non-empty by construction (push_front on creation and in roll_epoch)
        *cluster.counts.front_mut().expect("current epoch slot") += 1;
        cluster.window += 1;
        id
    }

    /// Borrow a cluster.
    pub fn get(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.0 as usize]
    }

    /// All clusters with a nonzero window count.
    pub fn live(&self) -> impl Iterator<Item = (ClusterId, &Cluster)> + '_ {
        self.clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.window_count() > 0)
            .map(|(i, c)| (ClusterId(i as u32), c))
    }

    /// `Count(Q_i)` of every cluster that has one, in id order — what
    /// an epoch boundary weighs benefits by, summed once for it.
    pub fn window_counts(&self) -> Vec<(ClusterId, u64)> {
        let counts = self.clusters.iter().map(Cluster::window_count);
        (0..).map(ClusterId).zip(counts).filter(|&(_, count)| count > 0).collect()
    }

    /// Number of clusters ever created (the paper bounds this by `w·h`).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether no cluster exists yet.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The memory depth `h`.
    pub fn history_epochs(&self) -> usize {
        self.history_epochs
    }

    /// Close the epoch: open a fresh per-epoch slot on every cluster and
    /// drop counts older than `h` epochs.
    pub fn roll_epoch(&mut self) {
        for c in &mut self.clusters {
            c.counts.push_front(0);
            while c.counts.len() > self.history_epochs {
                c.window -= c.counts.pop_back().unwrap_or(0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::{Column, Database, PhysicalConfig, TableSchema};
    use colt_engine::{IndexSetView, Optimizer, SelPred};
    use colt_storage::{row_from, Value, ValueType};

    fn db() -> (Database, TableId, TableId) {
        let mut db = Database::new();
        let a = db.add_table(TableSchema::new(
            "a",
            vec![Column::new("id", ValueType::Int), Column::new("g", ValueType::Int)],
        ));
        let b = db.add_table(TableSchema::new("b", vec![Column::new("id", ValueType::Int)]));
        db.insert_rows(a, (0..10_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 4)]))).unwrap();
        db.insert_rows(b, (0..100i64).map(|i| row_from(vec![Value::Int(i)]))).unwrap();
        db.analyze_all();
        (db, a, b)
    }

    /// `ClusterSet::assign` under the selectivities the profiler reads:
    /// those of the query's plan.
    fn assign(cs: &mut ClusterSet, db: &Database, q: &Query) -> ClusterId {
        let plan = Optimizer::new(db).optimize(q, IndexSetView::real(&PhysicalConfig::new()));
        cs.assign(q, &plan.selectivities)
    }

    #[test]
    fn same_shape_same_cluster() {
        let (db, a, _) = db();
        let mut cs = ClusterSet::new(12, 0.02);
        let q1 = Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), 5i64)]);
        let q2 = Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), 999i64)]);
        let c1 = assign(&mut cs, &db, &q1);
        let c2 = assign(&mut cs, &db, &q2);
        assert_eq!(c1, c2, "same table/attr/selectivity bucket");
        assert_eq!(cs.get(c1).current_epoch_count(), 2);
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn different_selectivity_bucket_splits_cluster() {
        let (db, a, _) = db();
        let mut cs = ClusterSet::new(12, 0.02);
        // id is unique → eq is selective (1e-4 < 2%).
        let sel = Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), 5i64)]);
        // g has 4 distinct values → eq is 25% (non-selective).
        let unsel = Query::single(a, vec![SelPred::eq(ColRef::new(a, 1), 2i64)]);
        let c1 = assign(&mut cs, &db, &sel);
        let c2 = assign(&mut cs, &db, &unsel);
        assert_ne!(c1, c2);
    }

    #[test]
    fn same_attr_different_bucket_splits() {
        let (db, a, _) = db();
        let mut cs = ClusterSet::new(12, 0.02);
        let narrow = Query::single(a, vec![SelPred::between(ColRef::new(a, 0), 0i64, 9i64)]);
        let wide = Query::single(a, vec![SelPred::between(ColRef::new(a, 0), 0i64, 9000i64)]);
        assert_ne!(assign(&mut cs, &db, &narrow), assign(&mut cs, &db, &wide));
    }

    #[test]
    fn joins_distinguish_clusters() {
        let (db, a, b) = db();
        let mut cs = ClusterSet::new(12, 0.02);
        let solo = Query::single(a, vec![]);
        let joined = Query::join(
            vec![a, b],
            vec![JoinPred::new(ColRef::new(a, 0), ColRef::new(b, 0))],
            vec![],
        );
        assert_ne!(assign(&mut cs, &db, &solo), assign(&mut cs, &db, &joined));
    }

    #[test]
    fn window_counts_roll_and_expire() {
        let (db, a, _) = db();
        let mut cs = ClusterSet::new(3, 0.02);
        let q = Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), 1i64)]);
        let id = assign(&mut cs, &db, &q);
        assign(&mut cs, &db, &q);
        assert_eq!(cs.get(id).window_count(), 2);
        cs.roll_epoch();
        assign(&mut cs, &db, &q);
        assert_eq!(cs.get(id).current_epoch_count(), 1);
        assert_eq!(cs.get(id).window_count(), 3);
        // After h more epochs the old counts age out.
        cs.roll_epoch();
        cs.roll_epoch();
        cs.roll_epoch();
        assert_eq!(cs.get(id).window_count(), 0);
        assert_eq!(cs.live().count(), 0);
    }

    #[test]
    fn restricted_columns_listed() {
        let (db, a, _) = db();
        let q = Query::single(
            a,
            vec![SelPred::eq(ColRef::new(a, 0), 1i64), SelPred::eq(ColRef::new(a, 1), 1i64)],
        );
        let mut cs = ClusterSet::new(12, 0.02);
        let id = assign(&mut cs, &db, &q);
        let cols: Vec<_> = cs.get(id).key.restricted_columns().collect();
        assert_eq!(cols, vec![ColRef::new(a, 0), ColRef::new(a, 1)]);
    }
}
