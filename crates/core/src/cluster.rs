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
//! window) and the current-epoch count are both cheap to read. A
//! boundary visits only the clusters with a count inside the window; a
//! shape that left the window keeps its id and, when it returns,
//! counts again from 0.

use colt_catalog::{ColRef, TableId};
use colt_engine::{JoinPred, Query};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The cut between the two selectivity buckets: the paper's 2% (§4.1).
const SELECTIVE_BOUNDARY: f64 = 0.02;

/// Identifier of a cluster within a [`ClusterSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u32);

/// Selectivity bucket of one restricted attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SelBucket {
    /// Selectivity below `SELECTIVE_BOUNDARY` — the paper's 0–2% range.
    Selective,
    /// Selectivity in `[SELECTIVE_BOUNDARY, 1]`.
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
    /// bucketed here at `SELECTIVE_BOUNDARY`.
    fn fill(&mut self, query: &Query, sels: &[f64]) {
        self.tables.clear();
        self.tables.extend_from_slice(&query.tables);
        self.tables.sort_unstable();
        self.joins.clear();
        self.joins.extend_from_slice(&query.joins);
        self.joins.sort_unstable();
        self.attrs.clear();
        self.attrs.extend(query.selections.iter().zip(sels).map(|(p, &sel)| {
            let selective = sel < SELECTIVE_BOUNDARY;
            let bucket = if selective { SelBucket::Selective } else { SelBucket::NonSelective };
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
    // reintroducing nondeterministic iteration (clippy.toml bans HashMap).
    by_key: BTreeMap<ClusterKey, ClusterId>,
    clusters: Vec<Cluster>,
    /// The clusters with a nonzero window count, in id order: what a
    /// boundary visits. Every other cluster's counts are all 0.
    live: BTreeSet<ClusterId>,
    history_epochs: usize,
    /// The key of the query being assigned: looking a cluster up
    /// allocates nothing, only a first sight clones the key.
    lookup: ClusterKey,
}

impl ClusterSet {
    /// Empty set with the given memory depth.
    pub fn new(history_epochs: usize) -> Self {
        ClusterSet {
            by_key: BTreeMap::new(),
            clusters: Vec::new(),
            live: BTreeSet::new(),
            history_epochs: history_epochs.max(1),
            lookup: ClusterKey::default(),
        }
    }

    /// Assign a query to its (unique) cluster, creating the cluster on
    /// first sight, and bump the current epoch count. `sels[i]` is the
    /// estimated selectivity of `query.selections[i]`.
    #[expect(clippy::expect_used, reason = "counts gets a slot on creation and keeps one")]
    pub fn assign(&mut self, query: &Query, sels: &[f64]) -> ClusterId {
        self.lookup.fill(query, sels);
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
        if cluster.window == 0 {
            self.live.insert(id);
        }
        *cluster.counts.front_mut().expect("current epoch slot") += 1;
        cluster.window += 1;
        id
    }

    /// Borrow a cluster.
    pub fn get(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.0 as usize]
    }

    /// All clusters with a nonzero window count, in id order.
    pub fn live(&self) -> impl Iterator<Item = (ClusterId, &Cluster)> + '_ {
        self.live.iter().map(|&id| (id, self.get(id)))
    }

    /// `Count(Q_i)` of every cluster that has one, in id order — what
    /// an epoch boundary weighs benefits by, summed once for it.
    pub fn window_counts(&self) -> Vec<(ClusterId, u64)> {
        self.live().map(|(id, c)| (id, c.window_count())).collect()
    }

    /// Number of clusters ever created. A cluster keeps its id for the
    /// run, so this counts every distinct query shape of the run so far,
    /// not only those of the memory window.
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

    /// Close the epoch: open a fresh per-epoch slot on every live
    /// cluster and drop counts older than `h` epochs. A cluster whose
    /// window empties leaves the live set with all its counts at 0.
    pub fn roll_epoch(&mut self) {
        let (clusters, h) = (&mut self.clusters, self.history_epochs);
        self.live.retain(|id| {
            let c = &mut clusters[id.0 as usize];
            c.counts.push_front(0);
            while c.counts.len() > h {
                c.window -= c.counts.pop_back().unwrap_or(0);
            }
            c.window > 0
        });
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
        let mut cs = ClusterSet::new(12);
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
        let mut cs = ClusterSet::new(12);
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
        let mut cs = ClusterSet::new(12);
        let narrow = Query::single(a, vec![SelPred::between(ColRef::new(a, 0), 0i64, 9i64)]);
        let wide = Query::single(a, vec![SelPred::between(ColRef::new(a, 0), 0i64, 9000i64)]);
        assert_ne!(assign(&mut cs, &db, &narrow), assign(&mut cs, &db, &wide));
    }

    #[test]
    fn joins_distinguish_clusters() {
        let (db, a, b) = db();
        let mut cs = ClusterSet::new(12);
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
        let mut cs = ClusterSet::new(3);
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

    /// `window_counts`, `live` and every cluster's counts equal a
    /// recount of the assignment history over the last `h` epochs, on a
    /// stream whose shapes leave the window and come back. A returning
    /// shape keeps its id.
    #[test]
    fn window_counts_match_a_recount_of_the_history() {
        let (db, a, b) = db();
        let h = 3;
        let shapes = [
            Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), 5i64)]),
            Query::single(a, vec![SelPred::eq(ColRef::new(a, 1), 2i64)]),
            Query::single(b, vec![SelPred::eq(ColRef::new(b, 0), 7i64)]),
            Query::join(
                vec![a, b],
                vec![JoinPred::new(ColRef::new(a, 0), ColRef::new(b, 0))],
                vec![],
            ),
        ];
        let mut cs = ClusterSet::new(h);
        // Per epoch, oldest first: the clusters assigned.
        let mut history: Vec<Vec<ClusterId>> = Vec::new();
        let mut ids: BTreeMap<usize, ClusterId> = BTreeMap::new();
        let mut returns = 0;
        for epoch in 0..30 {
            let gone: BTreeSet<ClusterId> =
                ids.values().copied().filter(|&id| cs.get(id).window_count() == 0).collect();
            let mut assigned = Vec::new();
            for (k, q) in shapes.iter().enumerate() {
                // Shape `k` runs `k + 2` epochs, then pauses as long:
                // from `k = 1` on, longer than the window.
                if (epoch / (k + 2)) % 2 == 1 {
                    continue;
                }
                for _ in 0..=k {
                    let id = assign(&mut cs, &db, q);
                    assert_eq!(*ids.entry(k).or_insert(id), id, "shape {k} keeps its id");
                    assigned.push(id);
                }
            }
            history.push(assigned);
            returns += gone.iter().filter(|&&id| cs.get(id).window_count() > 0).count();

            let mut recount: BTreeMap<ClusterId, u64> = BTreeMap::new();
            for &id in history.iter().rev().take(h).flatten() {
                *recount.entry(id).or_default() += 1;
            }
            let want: Vec<(ClusterId, u64)> = recount.into_iter().collect();
            assert_eq!(cs.window_counts(), want, "epoch {epoch}");
            let live: Vec<(ClusterId, u64)> =
                cs.live().map(|(id, c)| (id, c.window_count())).collect();
            assert_eq!(live, want, "epoch {epoch}");
            for &id in ids.values() {
                let current = history[epoch].iter().filter(|&&i| i == id).count() as u64;
                assert_eq!(cs.get(id).current_epoch_count(), current, "epoch {epoch}");
            }
            cs.roll_epoch();
        }
        assert_eq!(cs.len(), shapes.len());
        assert!(returns >= 6, "shapes must leave the window and return ({returns} returns)");
    }

    #[test]
    fn restricted_columns_listed() {
        let (db, a, _) = db();
        let q = Query::single(
            a,
            vec![SelPred::eq(ColRef::new(a, 0), 1i64), SelPred::eq(ColRef::new(a, 1), 1i64)],
        );
        let mut cs = ClusterSet::new(12);
        let id = assign(&mut cs, &db, &q);
        let cols: Vec<_> = cs.get(id).key.restricted_columns().collect();
        assert_eq!(cols, vec![ColRef::new(a, 0), ColRef::new(a, 1)]);
    }
}
