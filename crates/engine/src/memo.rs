//! What-if memo cache: epoch-scoped reuse of per-query derivations.
//!
//! COLT's profiler answers many `WhatIfOptimize` probes per epoch, and
//! shifting workloads repeat templates: the same (query, candidate)
//! pair is probed again and again while the physical configuration and
//! statistics stand still. This module caches what the paper's what-if
//! interface reuses (§3) — the base access-path vector a probe perturbs
//! and each per-candidate gain — keyed by the full [`Query`] structure,
//! literals included. An entry first appears at a statement's first
//! probe; normal optimization ([`crate::Eqo::optimize`]) neither reads
//! nor writes the memo.
//!
//! **Lookup cost.** A cached probe must be cheaper than re-deriving it,
//! and at small scales a derivation is well under a microsecond, so the
//! memo cannot afford ordered-map lookups that compare whole `Query`
//! structures at every tree level. A query is therefore resolved once
//! per call: an FNV-1a fingerprint of the query finds the entry id
//! through a fingerprint index (full structural equality is checked
//! exactly once, guarding against colliding fingerprints), and all
//! per-probe reads and writes go through the dense `u64` id. The
//! fingerprint is a pure function of the query — no random hasher
//! state — so the memo's shape is reproducible run to run.
//!
//! **Invalidation is incremental, never a blanket clear.** Each entry
//! carries a [`TableSnap`] per referenced table pinning the one input
//! of the optimizer that can move while the memo lives, as one integer:
//! the table's materialization generation
//! ([`PhysicalConfig::generation`], moved by every single-column or
//! composite create and drop). Rows and statistics cannot move: the
//! memo exists only inside an [`crate::Eqo`], whose `&Database` borrow
//! freezes both for as long as anything is cached against them. A
//! generation never returns to an earlier value, so equal integers mean
//! unchanged inputs — given that one memo serves one `PhysicalConfig`,
//! as `Eqo`'s does. A lookup re-validates its own snapshots and
//! rebuilds only itself when stale; the epoch-boundary sweep drops only
//! the entries whose snapshots no longer hold, and walks none when no
//! table's generation moved since the last sweep. An entry about table
//! `A` survives a create or drop on table `B`.
//!
//! **Determinism.** A cached value is the value the derivation would
//! produce: gains are pure functions of (query, materialized sets,
//! statistics), the snapshots pin the first and the borrow the rest, so
//! a probe reports the same gain with the memo hot, cold, or disabled.
//! Nothing but a probe reads the memo, so it feeds no decision: its
//! capacity and its evictions change how fast probes are answered,
//! never which probes issue, what they report, or what the tuner does
//! with it (`memo_counters_over_the_shifting_preset_are_exact` re-runs
//! the tuner over a one-entry memo and compares the traces). Entry ids
//! are insertion-ordered, eviction is FIFO (smallest id first), and all
//! maps are ordered, so at a fixed capacity the memo and its hit/miss
//! counters are reproducible at any thread count.

use crate::optimizer::ScanChoice;
use crate::query::Query;
use colt_catalog::{ColRef, PhysicalConfig, TableId};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Default entry bound before FIFO eviction kicks in. Sized to hold
/// every distinct template of a busy epoch; one entry is a scan vector
/// and a handful of gains — a few kilobytes at most.
pub const DEFAULT_CAPACITY: usize = 4096;

/// FNV-1a, fixed offset basis and prime: a deterministic, dependency-
/// free 64-bit structural fingerprint (the standard library's default
/// hasher makes no cross-version stability promise).
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn fingerprint(query: &Query) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    query.hash(&mut h);
    h.finish()
}

/// What the optimizer reads about one table that can move under a live
/// memo, pinned at caching time. An entry is served only while every
/// snapshot still holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TableSnap {
    /// The table this snapshot pins.
    table: TableId,
    /// [`PhysicalConfig::generation`] at caching time: the materialized
    /// single-column and composite sets on the table.
    generation: u64,
}

impl TableSnap {
    fn capture(config: &PhysicalConfig, table: TableId) -> Self {
        TableSnap { table, generation: config.generation(table) }
    }

    fn holds(&self, config: &PhysicalConfig) -> bool {
        self.generation == config.generation(self.table)
    }
}

/// Cached derivations for one query template.
#[derive(Debug)]
struct MemoEntry {
    /// Fingerprint of the owning query (for index maintenance).
    fp: u64,
    /// One snapshot per table the query references.
    snaps: Vec<TableSnap>,
    /// The what-if base derivation: per-table best scans under the real
    /// configuration and the resulting join-order cost.
    base: Option<(Vec<ScanChoice>, f64)>,
    /// Per-candidate gains already derived for this query.
    gains: BTreeMap<ColRef, f64>,
}

impl MemoEntry {
    fn holds(&self, config: &PhysicalConfig) -> bool {
        self.snaps.iter().all(|s| s.holds(config))
    }
}

/// A validated handle to one memo entry, returned by
/// [`WhatIfMemo::resolve`] and consumed by the per-probe accessors.
/// Handles are only meaningful until the next `resolve`/`sweep`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoHandle(u64);

/// The memo cache itself. Owned by [`crate::Eqo`]; all maps are ordered
/// and ids are insertion-ordered, so iteration, eviction, and therefore
/// hit/miss accounting are deterministic.
#[derive(Debug)]
pub struct WhatIfMemo {
    /// Entry bound; reaching it evicts the oldest entry (FIFO).
    capacity: usize,
    /// Entries by insertion id; the smallest id is the oldest entry.
    entries: BTreeMap<u64, MemoEntry>,
    /// Fingerprint → (query, id) pairs; the vector resolves fingerprint
    /// collisions by full structural equality (almost always length 1).
    index: BTreeMap<u64, Vec<(Query, u64)>>,
    /// Next entry id.
    next_id: u64,
    /// Entries dropped by FIFO pressure (never by invalidation). An
    /// eviction silently forgets a live template, so it must be
    /// observable: `Eqo` exports this as `engine.whatif.memo_evictions`
    /// and `report`'s footer prints it.
    evicted: u64,
    /// [`PhysicalConfig::generation_total`] at the last sweep (0, an
    /// empty configuration's, before the first).
    swept_at: u64,
}

impl WhatIfMemo {
    /// An empty memo bounded at `capacity` entries (min 1). Tests lower
    /// the bound to exercise eviction pressure without 4096 templates.
    pub fn with_capacity(capacity: usize) -> Self {
        WhatIfMemo {
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
            index: BTreeMap::new(),
            next_id: 0,
            evicted: 0,
            swept_at: 0,
        }
    }

    /// Entries dropped by FIFO pressure since construction.
    pub fn evictions(&self) -> u64 {
        self.evicted
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Resolve `query` to a validated entry, creating or rebuilding it
    /// as needed. The flag reports whether a previously cached entry
    /// had gone stale and was discarded (its replacement starts empty);
    /// creating a first-time entry is not an invalidation.
    pub fn resolve(&mut self, config: &PhysicalConfig, query: &Query) -> (MemoHandle, bool) {
        let (fp, existing) = self.find(query);
        let mut invalidated = false;
        if let Some(id) = existing {
            match self.entries.get(&id) {
                Some(e) if e.holds(config) => return (MemoHandle(id), false),
                _ => {
                    self.remove(fp, id);
                    invalidated = true;
                }
            }
        }
        if self.entries.len() >= self.capacity {
            // FIFO: ids are insertion-ordered, so the first key is the
            // oldest entry.
            if let Some((&oldest, e)) = self.entries.iter().next() {
                let old_fp = e.fp;
                self.remove(old_fp, oldest);
                self.evicted += 1;
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        let snaps = query.tables.iter().map(|&t| TableSnap::capture(config, t)).collect();
        self.entries.insert(
            id,
            MemoEntry { fp, snaps, base: None, gains: BTreeMap::new() },
        );
        self.index.entry(fp).or_default().push((query.clone(), id));
        (MemoHandle(id), invalidated)
    }

    /// `query`'s fingerprint and the id its entry has, if it has one.
    fn find(&self, query: &Query) -> (u64, Option<u64>) {
        let fp = fingerprint(query);
        let slot = self.index.get(&fp);
        (fp, slot.and_then(|slot| slot.iter().find(|(q, _)| q == query)).map(|&(_, id)| id))
    }

    fn remove(&mut self, fp: u64, id: u64) {
        self.entries.remove(&id);
        if let Some(slot) = self.index.get_mut(&fp) {
            slot.retain(|&(_, i)| i != id);
            if slot.is_empty() {
                self.index.remove(&fp);
            }
        }
    }

    /// Drop every entry whose snapshots no longer hold; keep the rest.
    /// Called at epoch boundaries. Returns how many entries were
    /// dropped. When nothing a snapshot pins has moved since the last
    /// sweep, every entry that survived it or was made after it still
    /// holds, and the walk is skipped.
    pub fn sweep(&mut self, config: &PhysicalConfig) -> u64 {
        // Generations only ever grow, so their sum stands still exactly
        // while all of them do.
        let stamp = config.generation_total();
        if std::mem::replace(&mut self.swept_at, stamp) == stamp {
            return 0;
        }
        let stale: Vec<(u64, u64)> = self
            .entries
            .iter()
            .filter(|(_, e)| !e.holds(config))
            .map(|(&id, e)| (e.fp, id))
            .collect();
        for &(fp, id) in &stale {
            self.remove(fp, id);
        }
        stale.len() as u64
    }

    /// The cached what-if base derivation behind a handle, if any.
    pub fn base(&self, h: MemoHandle) -> Option<(Vec<ScanChoice>, f64)> {
        self.entries.get(&h.0).and_then(|e| e.base.clone())
    }

    /// Cache the base derivation behind a handle.
    pub fn store_base(&mut self, h: MemoHandle, scans: &[ScanChoice], cost: f64) {
        if let Some(e) = self.entries.get_mut(&h.0) {
            e.base = Some((scans.to_vec(), cost));
        }
    }

    /// The cached gain of probing `col`, if any.
    pub fn gain(&self, h: MemoHandle, col: ColRef) -> Option<f64> {
        self.entries.get(&h.0).and_then(|e| e.gains.get(&col).copied())
    }

    /// Cache the gain of probing `col`.
    pub fn store_gain(&mut self, h: MemoHandle, col: ColRef, gain: f64) {
        if let Some(e) = self.entries.get_mut(&h.0) {
            e.gains.insert(col, gain);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{JoinPred, SelPred};
    use colt_catalog::{Column, CompositeKey, Database, IndexOrigin, TableSchema};
    use colt_storage::{row_from, Prng, Value, ValueType};

    fn db2() -> (Database, TableId, TableId) {
        let mut db = Database::new();
        let a = db.add_table(TableSchema::new(
            "a",
            vec![Column::new("x", ValueType::Int), Column::new("y", ValueType::Int)],
        ));
        let b = db.add_table(TableSchema::new("b", vec![Column::new("z", ValueType::Int)]));
        db.insert_rows(a, (0..1_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 7)]))).unwrap();
        db.insert_rows(b, (0..1_000i64).map(|i| row_from(vec![Value::Int(i)]))).unwrap();
        db.analyze_all();
        (db, a, b)
    }

    #[test]
    fn resolve_distinguishes_fresh_valid_and_stale() {
        let (db, a, _) = db2();
        let mut cfg = PhysicalConfig::new();
        let q = Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), 5i64)]);
        let mut memo = WhatIfMemo::with_capacity(DEFAULT_CAPACITY);
        let (h1, inv) = memo.resolve(&cfg, &q);
        assert!(!inv, "first sight is a plain miss");
        let (h2, inv) = memo.resolve(&cfg, &q);
        assert!(!inv, "unchanged world revalidates");
        assert_eq!(h1, h2, "revalidation keeps the same entry");
        cfg.create_index(&db, ColRef::new(a, 1), IndexOrigin::Online);
        let (h3, inv) = memo.resolve(&cfg, &q);
        assert!(inv, "materialized-set change invalidates");
        assert_ne!(h1, h3, "the stale entry was replaced");
        assert!(!memo.resolve(&cfg, &q).1);
    }

    #[test]
    fn invalidation_is_scoped_to_the_touched_table() {
        let (db, a, b) = db2();
        let mut cfg = PhysicalConfig::new();
        let qa = Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), 5i64)]);
        let qb = Query::single(b, vec![SelPred::eq(ColRef::new(b, 0), 5i64)]);
        let mut memo = WhatIfMemo::with_capacity(DEFAULT_CAPACITY);
        let (ha, _) = memo.resolve(&cfg, &qa);
        let (hb, _) = memo.resolve(&cfg, &qb);
        memo.store_gain(ha, ColRef::new(a, 0), 1.5);
        memo.store_gain(hb, ColRef::new(b, 0), 2.5);
        // An index on table `a` must not disturb table `b`'s entry.
        cfg.create_index(&db, ColRef::new(a, 1), IndexOrigin::Online);
        assert_eq!(memo.sweep(&cfg), 1, "exactly the table-a entry drops");
        assert_eq!(memo.gain(hb, ColRef::new(b, 0)), Some(2.5), "table-b gain survives");
        assert_eq!(memo.gain(ha, ColRef::new(a, 0)), None, "table-a handle is dead");
        let (hb2, inv) = memo.resolve(&cfg, &qb);
        assert!(!inv);
        assert_eq!(hb2, hb, "table-b entry still live after the sweep");
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let (_, a, _) = db2();
        let cfg = PhysicalConfig::new();
        let mut memo = WhatIfMemo::with_capacity(DEFAULT_CAPACITY);
        let col = ColRef::new(a, 0);
        let query_for = |i: i64| Query::single(a, vec![SelPred::eq(col, i)]);
        let mut handles = Vec::new();
        for i in 0..(DEFAULT_CAPACITY as i64 + 3) {
            let (h, _) = memo.resolve(&cfg, &query_for(i));
            memo.store_gain(h, col, i as f64);
            handles.push(h);
        }
        assert_eq!(memo.len(), DEFAULT_CAPACITY);
        assert_eq!(memo.evictions(), 3, "every FIFO drop is counted");
        // The three oldest templates were evicted, the newest survive.
        for (i, &h) in handles.iter().take(3).enumerate() {
            assert_eq!(memo.gain(h, col), None, "entry {i} evicted first");
        }
        let last = DEFAULT_CAPACITY + 2;
        assert_eq!(memo.gain(handles[last], col), Some(last as f64));
        // Re-resolving an evicted template is a plain miss, not an
        // invalidation, and the cache stays bounded.
        assert!(!memo.resolve(&cfg, &query_for(0)).1);
        assert_eq!(memo.len(), DEFAULT_CAPACITY);
        assert_eq!(memo.evictions(), 4);
    }

    #[test]
    fn lowered_capacity_evicts_under_pressure() {
        let (_, a, _) = db2();
        let cfg = PhysicalConfig::new();
        let mut memo = WhatIfMemo::with_capacity(2);
        let col = ColRef::new(a, 0);
        for i in 0..5i64 {
            let (h, _) = memo.resolve(&cfg, &Query::single(a, vec![SelPred::eq(col, i)]));
            memo.store_gain(h, col, i as f64);
        }
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.evictions(), 3);
    }

    #[test]
    fn fingerprint_is_stable_and_structural() {
        let (_, a, b) = db2();
        let q1 = Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), 5i64)]);
        let q2 = Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), 5i64)]);
        let q3 = Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), 6i64)]);
        let q4 = Query::single(b, vec![SelPred::eq(ColRef::new(b, 0), 5i64)]);
        assert_eq!(fingerprint(&q1), fingerprint(&q2), "equal queries, equal fingerprints");
        assert_ne!(fingerprint(&q1), fingerprint(&q3), "literals are part of the key");
        assert_ne!(fingerprint(&q1), fingerprint(&q4));
    }

    /// What [`TableSnap`] was before generations — the materialized
    /// sets themselves, compared from scratch — kept as the oracle.
    struct SetSnap {
        table: TableId,
        mat_cols: Vec<ColRef>,
        composites: Vec<CompositeKey>,
    }

    impl SetSnap {
        fn capture(config: &PhysicalConfig, table: TableId) -> Self {
            SetSnap {
                table,
                mat_cols: config.columns().filter(|c| c.table == table).collect(),
                composites: config.composites_on(table).map(|m| m.key.clone()).collect(),
            }
        }

        fn holds(&self, config: &PhysicalConfig) -> bool {
            config.columns().filter(|c| c.table == self.table).eq(self.mat_cols.iter().copied())
                && config.composites_on(self.table).map(|m| &m.key).eq(self.composites.iter())
        }
    }

    #[test]
    fn generation_snapshots_agree_with_set_comparison_on_random_histories() {
        let mut rng = Prng::new(0x6E5E_0001);
        for case in 0..25 {
            let mut db = Database::new();
            let two_ints = || vec![Column::new("p", ValueType::Int), Column::new("q", ValueType::Int)];
            let tables = [
                db.add_table(TableSchema::new("a", two_ints())),
                db.add_table(TableSchema::new("b", two_ints())),
            ];
            let row = |i: i64| row_from(vec![Value::Int(i), Value::Int(i % 5)]);
            for t in tables {
                db.insert_rows(t, (0..40).map(row)).unwrap();
            }
            db.analyze_all();
            let [a, b] = tables;
            let queries = [
                Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), 5i64)]),
                Query::single(b, vec![SelPred::eq(ColRef::new(b, 1), 3i64)]),
                Query::join(
                    vec![a, b],
                    vec![JoinPred::new(ColRef::new(a, 0), ColRef::new(b, 0))],
                    vec![],
                ),
            ];
            let mut cfg = PhysicalConfig::new();
            let mut memo = WhatIfMemo::with_capacity(DEFAULT_CAPACITY);
            let mut oracle: BTreeMap<u64, Vec<SetSnap>> = BTreeMap::new();
            for step in 0..80 {
                // One change to one table — or none at all.
                let t = tables[rng.below(2)];
                match rng.below(3) {
                    0 => {
                        let col = ColRef::new(t, rng.below(2) as u32);
                        if !cfg.drop_index(col) {
                            cfg.create_index(&db, col, IndexOrigin::Online);
                        }
                    }
                    1 => {
                        let key = CompositeKey::new(t, vec![0, 1]);
                        if !cfg.drop_composite(&key) {
                            cfg.create_composite(&db, key);
                        }
                    }
                    _ => {}
                }
                let mut stale = Vec::new();
                for (&id, entry) in &memo.entries {
                    let expected = oracle[&id].iter().all(|s| s.holds(&cfg));
                    assert_eq!(entry.holds(&cfg), expected, "case {case} step {step} id {id}");
                    if !expected {
                        stale.push(id);
                    }
                }
                assert_eq!(memo.sweep(&cfg), stale.len() as u64, "case {case} step {step}");
                for id in stale {
                    assert!(!memo.entries.contains_key(&id), "case {case} step {step} id {id}");
                    oracle.remove(&id);
                }
                assert_eq!(memo.len(), oracle.len(), "case {case} step {step}");
                // Entries are made at different points of the history.
                for q in queries.iter().filter(|_| rng.chance(0.4)) {
                    let (handle, invalidated) = memo.resolve(&cfg, q);
                    assert!(!invalidated, "the sweep left nothing stale");
                    oracle.entry(handle.0).or_insert_with(|| {
                        q.tables.iter().map(|&t| SetSnap::capture(&cfg, t)).collect()
                    });
                }
            }
        }
    }
}
