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
//! As in the paper's PostgreSQL prototype, the EQO reuses intermediate
//! solutions from the initial optimization of the query: the chosen
//! access path of every table the probed index does not touch is reused
//! verbatim, and only the affected table is re-priced before re-running
//! the (cheap) join-ordering DP.

use crate::memo::{WhatIfMemo, DEFAULT_CAPACITY};
use crate::optimizer::{IndexSetView, Optimizer, ScanChoice};
use crate::plan::Plan;
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
    /// Normal (non-what-if) optimizations.
    pub optimizations: u64,
    /// Individual index probes answered through the what-if interface.
    pub whatif_calls: u64,
    /// What-if derivations served from the memo cache instead of being
    /// re-derived. Every served probe still counts in `whatif_calls`:
    /// the memo changes how fast a probe is answered, never whether it
    /// happened.
    pub memo_hits: u64,
    /// What-if derivations the memo had to compute (and then cached).
    pub memo_misses: u64,
    /// Memo entries discarded because their snapshot went stale (the
    /// materialized set of a referenced table changed), found by a
    /// probe or by an epoch sweep.
    pub memo_invalidations: u64,
    /// Memo entries dropped by FIFO capacity pressure — a silent loss
    /// of a still-valid template. `memo_hits + memo_misses ==
    /// whatif_calls` regardless (an evicted template is re-derived as a
    /// miss; `optimize` never touches the memo), but sustained evictions
    /// mean the memo is undersized for the workload's template count.
    pub memo_evictions: u64,
}

/// The extended query optimizer. Drive one `Eqo` with one
/// [`PhysicalConfig`]: its memo tells configurations apart by their
/// generation counters, not by their contents.
///
/// The database cannot change under a live `Eqo` — the borrow forbids
/// it — which is why the memo pins materialized sets and nothing else:
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
    memo: WhatIfMemo,
    counters: EqoCounters,
}

impl<'a> Eqo<'a> {
    /// Create an EQO over a database.
    pub fn new(db: &'a Database) -> Self {
        Self::with_memo_capacity(db, DEFAULT_CAPACITY)
    }

    /// An EQO whose what-if memo is bounded at `capacity` entries.
    /// Tests lower the bound to put the memo under eviction pressure
    /// without thousands of distinct templates.
    pub fn with_memo_capacity(db: &'a Database, capacity: usize) -> Self {
        Eqo {
            opt: Optimizer::new(db),
            db,
            memo: WhatIfMemo::with_capacity(capacity),
            counters: EqoCounters::default(),
        }
    }

    /// Work counters so far.
    pub fn counters(&self) -> EqoCounters {
        self.counters
    }

    /// Number of live what-if memo entries (introspection for tests and
    /// experiments).
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Epoch boundary: sweep the memo, dropping only entries whose
    /// snapshots went stale (the scheduler's creates and drops have
    /// been applied by now). Valid entries survive into the next epoch —
    /// invalidation is incremental, never a blanket clear.
    pub fn end_epoch(&mut self, config: &PhysicalConfig) {
        let dropped = self.memo.sweep(config);
        if dropped > 0 {
            self.counters.memo_invalidations += dropped;
            colt_obs::counter("engine.whatif.memo_invalidate", dropped);
        }
    }

    /// An upper bound on `QueryGain(query, col)` read from the memoized
    /// base access-path derivation, charging no what-if call.
    ///
    /// A hypothetical index can only *remove* cost from the base plan
    /// (`gain = base_cost − probe_cost` with `probe_cost ≥ 0`), so the
    /// memoized base cost bounds every forward probe from above; when
    /// the exact gain is already memoized it is returned instead (a
    /// zero-width interval). `None` when the template's base derivation
    /// is not cached under the current configuration (the probe itself
    /// will warm it) or when the candidate is materialized — a reverse
    /// probe prices the cost of *losing* the index, which the base
    /// vector cannot bound.
    pub fn gain_upper_bound(
        &self,
        query: &Query,
        col: ColRef,
        config: &PhysicalConfig,
    ) -> Option<f64> {
        if config.contains(col) {
            return None;
        }
        let handle = self.memo.peek(config, query)?;
        if let Some(gain) = self.memo.gain(handle, col) {
            return Some(gain);
        }
        self.memo.base(handle).map(|(_, base_cost)| base_cost.max(0.0))
    }

    /// Normal query optimization under the real configuration; the memo
    /// is not consulted (the paper's EQO reuses a query's own solutions
    /// for its probes, §3, and a lookup costs what optimizing does).
    pub fn optimize(&mut self, query: &Query, config: &PhysicalConfig) -> Plan {
        let _span = colt_obs::span("engine.optimize");
        self.counters.optimizations += 1;
        self.opt.optimize(query, IndexSetView::real(config))
    }

    /// `WhatIfOptimize(q, P)`: per-index query gains, one what-if call
    /// charged per probed index.
    ///
    /// Derivations are served through the what-if memo when the
    /// materialized sets of the query's tables are unchanged since they
    /// were cached; cached and freshly computed gains are identical by
    /// construction (see `memo.rs`). Every probe counts in
    /// [`EqoCounters::whatif_calls`] either way.
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
        // Count a stale entry found now and an eviction the new one forced.
        let (handle, invalidated) = self.memo.resolve(config, query);
        if invalidated {
            self.counters.memo_invalidations += 1;
            colt_obs::counter("engine.whatif.memo_invalidate", 1);
        }
        let evicted = self.memo.evictions() - self.counters.memo_evictions;
        if evicted > 0 {
            colt_obs::counter("engine.whatif.memo_evictions", evicted);
            self.counters.memo_evictions += evicted;
        }

        let cached: Vec<Option<f64>> =
            probes.iter().map(|&col| self.memo.gain(handle, col)).collect();
        let hits = cached.iter().filter(|g| g.is_some()).count() as u64;
        let misses = probes.len() as u64 - hits;
        if hits > 0 {
            self.counters.memo_hits += hits;
            colt_obs::counter("engine.whatif.memo_hit", hits);
        }
        if misses == 0 {
            return probes
                .iter()
                .zip(cached)
                .map(|(&col, g)| IndexGain { col, gain: g.unwrap_or(0.0) })
                .collect();
        }
        self.counters.memo_misses += misses;
        colt_obs::counter("engine.whatif.memo_miss", misses);

        // One estimate of the statement's predicates prices every
        // derivation of this call.
        let sels = selectivities(self.db, query);
        // Memoized per-table access paths under the unmodified view,
        // reused across probes of this call and — through the memo —
        // across calls within the epoch.
        let base_view = IndexSetView::real(config);
        let (base_scans, base_cost) = match self.memo.base(handle) {
            Some(b) => b,
            None => {
                let scans: Vec<ScanChoice> = query
                    .tables
                    .iter()
                    .map(|&t| self.opt.best_scan(query, &sels, t, base_view))
                    .collect();
                let cost = self.opt.join_order(query, &sels, scans.clone(), base_view).est_cost();
                self.memo.store_base(handle, &scans, cost);
                (scans, cost)
            }
        };

        probes
            .iter()
            .zip(cached)
            .map(|(&col, known)| {
                if let Some(gain) = known {
                    return IndexGain { col, gain };
                }
                let materialized = config.contains(col);
                let (mut plus, mut minus) = (BTreeSet::from([col]), BTreeSet::new());
                if materialized {
                    std::mem::swap(&mut plus, &mut minus);
                }
                let view = IndexSetView::hypothetical(config, &plus, &minus);

                // Reuse every scan except those on the probed table.
                let scans: Vec<ScanChoice> = query
                    .tables
                    .iter()
                    .zip(&base_scans)
                    .map(|(&t, cached)| {
                        if t == col.table {
                            self.opt.best_scan(query, &sels, t, view)
                        } else {
                            cached.clone()
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
                let gain = gain.max(0.0);
                self.memo.store_gain(handle, col, gain);
                IndexGain { col, gain }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::SelPred;
    use colt_catalog::{Column, IndexOrigin, TableId, TableSchema};
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
        cfg.create_index(&db, col, IndexOrigin::Online);
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
        cfg.create_index(&db, cols[1], IndexOrigin::Online);
        let mut eqo = Eqo::new(&db);
        let q = Query::single(t, vec![SelPred::eq(cols[0], 7i64), SelPred::le(cols[1], 3i64)]);
        let estimates = || crate::selectivity::ESTIMATES.with(|n| n.get());
        // The base derivation and three probes, one of them reverse.
        let before = estimates();
        eqo.what_if_optimize(&q, &cols, &cfg);
        assert_eq!(estimates() - before, 2);
        // Served from the memo: nothing is priced.
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

    #[test]
    fn memo_counters_account_for_every_derivation() {
        let (db, t) = db();
        let cfg = PhysicalConfig::new();
        let mut eqo = Eqo::new(&db);
        let probes = [ColRef::new(t, 0), ColRef::new(t, 1)];
        for i in 0..5i64 {
            let q = Query::single(t, vec![SelPred::eq(ColRef::new(t, 0), i % 2)]);
            eqo.optimize(&q, &cfg);
            eqo.what_if_optimize(&q, &probes, &cfg);
        }
        let c = eqo.counters();
        // Every probe is either a hit or a miss, never both or neither;
        // `optimize` is counted and leaves the memo alone.
        assert_eq!(c.memo_hits + c.memo_misses, c.whatif_calls);
        assert_eq!(c.optimizations, 5);
        // Two distinct templates cycled five times: rounds 2+ are pure
        // hits, so hits strictly dominate.
        assert!(c.memo_hits > c.memo_misses, "counters: {c:?}");
        assert_eq!(c.memo_invalidations, 0, "nothing changed, nothing invalidates");
    }

    #[test]
    fn memo_accounting_holds_under_eviction_pressure() {
        let (db, t) = db();
        let cfg = PhysicalConfig::new();
        let mut eqo = Eqo::with_memo_capacity(&db, 2);
        let probes = [ColRef::new(t, 0)];
        // Five distinct templates cycled through a two-entry memo: FIFO
        // keeps evicting, so later rounds re-derive instead of hitting.
        for _ in 0..2 {
            for i in 0..5i64 {
                let q = Query::single(t, vec![SelPred::eq(ColRef::new(t, 0), i)]);
                eqo.what_if_optimize(&q, &probes, &cfg);
            }
        }
        let c = eqo.counters();
        assert!(c.memo_evictions > 0, "a 2-entry memo must evict: {c:?}");
        assert_eq!(
            c.memo_hits + c.memo_misses,
            c.whatif_calls,
            "every probe is a hit or a miss even when entries are evicted: {c:?}"
        );
        assert_eq!(eqo.memo_len(), 2, "the memo stays bounded");
    }

    #[test]
    fn gain_upper_bound_is_sound_and_charges_nothing() {
        let (db, t) = db();
        let cfg = PhysicalConfig::new();
        let mut eqo = Eqo::new(&db);
        let col = ColRef::new(t, 0);
        let other = ColRef::new(t, 1);
        let q = Query::single(t, vec![SelPred::eq(col, 7i64), SelPred::eq(other, 3i64)]);
        // Unseen template: nothing memoized, no bound — and optimizing
        // it makes no entry; its first probe does.
        assert_eq!(eqo.gain_upper_bound(&q, col, &cfg), None);
        eqo.optimize(&q, &cfg);
        assert_eq!(eqo.memo_len(), 0);
        assert_eq!(eqo.gain_upper_bound(&q, col, &cfg), None);
        let gains = eqo.what_if_optimize(&q, &[col], &cfg);
        let calls = eqo.counters().whatif_calls;
        // Already-probed candidate: the exact memoized gain comes back.
        assert_eq!(eqo.gain_upper_bound(&q, col, &cfg), Some(gains[0].gain));
        // Unprobed candidate: the memoized base cost bounds its gain.
        let bound = eqo.gain_upper_bound(&q, other, &cfg).expect("base is memoized");
        let true_gain = eqo.what_if_optimize(&q, &[other], &cfg)[0].gain;
        assert!(true_gain <= bound + 1e-9, "bound {bound} must dominate gain {true_gain}");
        // Bound reads spend no what-if budget.
        assert_eq!(eqo.counters().whatif_calls, calls + 1);
        // Materialized candidates (reverse probes) have no bound.
        let mut cfg2 = PhysicalConfig::new();
        cfg2.create_index(&db, col, IndexOrigin::Online);
        assert_eq!(eqo.gain_upper_bound(&q, col, &cfg2), None);
    }

    #[test]
    fn repeated_probes_are_served_from_the_memo_identically() {
        let (db, t) = db();
        let cfg = PhysicalConfig::new();
        let mut eqo = Eqo::new(&db);
        let q = Query::single(t, vec![SelPred::eq(ColRef::new(t, 0), 7i64)]);
        let probes = [ColRef::new(t, 0), ColRef::new(t, 1), ColRef::new(t, 2)];
        let cold = eqo.what_if_optimize(&q, &probes, &cfg);
        let before = eqo.counters();
        assert_eq!(before.memo_misses, probes.len() as u64);
        let warm = eqo.what_if_optimize(&q, &probes, &cfg);
        let after = eqo.counters();
        assert_eq!(warm, cold, "cached gains must be bit-identical");
        assert_eq!(after.memo_hits - before.memo_hits, probes.len() as u64);
        assert_eq!(after.memo_misses, before.memo_misses, "no re-derivation on the warm call");
        // A warmed memo must also agree with a completely fresh EQO.
        let fresh = Eqo::new(&db).what_if_optimize(&q, &probes, &cfg);
        assert_eq!(fresh, warm);
        // `optimize` beside a warm entry is the bare optimizer's plan
        // and moves no memo counter.
        let plan = eqo.optimize(&q, &cfg);
        assert_eq!(plan, Optimizer::new(&db).optimize(&q, IndexSetView::real(&cfg)));
        assert_eq!(eqo.counters(), EqoCounters { optimizations: 1, ..after });
        assert_eq!(eqo.memo_len(), 1);
    }

    #[test]
    fn configuration_change_invalidates_only_lazily_and_scoped() {
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
        eqo.what_if_optimize(&qb, &[ColRef::new(b, 0)], &cfg);
        assert_eq!(eqo.memo_len(), 2);

        // Materialize the probed index on `a` mid-epoch: the next probe
        // of `qa` detects the stale snapshot lazily and re-derives; the
        // reverse probe must agree with the forward one.
        cfg.create_index(&db, ColRef::new(a, 0), IndexOrigin::Online);
        let gains_a2 = eqo.what_if_optimize(&qa, &[ColRef::new(a, 0)], &cfg);
        assert_eq!(eqo.counters().memo_invalidations, 1);
        assert!((gains_a2[0].gain - gains_a[0].gain).abs() < 1e-9);
        // Table `b`'s entry was untouched: its probe is a pure hit.
        let hits_before = eqo.counters().memo_hits;
        eqo.what_if_optimize(&qb, &[ColRef::new(b, 0)], &cfg);
        assert_eq!(eqo.counters().memo_hits, hits_before + 1);
        assert_eq!(eqo.counters().memo_invalidations, 1, "b was never invalidated");

        // The epoch sweep keeps both (now-consistent) entries.
        eqo.end_epoch(&cfg);
        assert_eq!(eqo.memo_len(), 2);
        assert_eq!(eqo.counters().memo_invalidations, 1);
    }
}
