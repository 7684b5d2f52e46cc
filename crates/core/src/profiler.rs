//! The Profiler (paper §4): gathers performance statistics for candidate
//! indices at two levels of fidelity.
//!
//! * **Level 1 — `BenefitC`** for every candidate in `C`: a crude,
//!   cost-formula-based estimate (`QueryGain_C = u_{q,I} · Δcost`) that
//!   is cheap enough to maintain for every query and every candidate.
//! * **Level 2 — `BenefitH` / `BenefitM`** for hot and materialized
//!   indices: accurate gains measured through what-if optimizer calls on
//!   a *sample* of each query cluster, summarized as CLT confidence
//!   intervals per `(index, cluster)` pair.
//!
//! The per-epoch what-if budget `#WI_lim` (set by the Self-Organizer's
//! re-budgeting step) is enforced exactly as in Figure 2 of the paper:
//! materialized indices are given precedence over hot ones, and the
//! probation set is cut off once the budget is exhausted.

use crate::cluster::{ClusterId, ClusterSet};
use crate::config::ColtConfig;
use crate::crude::CandidateSet;
use crate::gain::IndexClusterStats;
use colt_catalog::{ColRef, Database, PhysicalConfig};
use colt_engine::cost::delta_cost;
use colt_engine::{Eqo, Plan, Query};
use colt_storage::Prng;
use std::collections::{BTreeMap, BTreeSet};

/// z-score of the gain confidence intervals: the paper's 90% interval
/// (§6.1), so `LowGain` / `HighGain` are the 5% and 95% bounds.
const CONFIDENCE_Z: f64 = 1.645;

/// Seed of the PRNG that orders and samples the probation set.
const SEED: u64 = 0x0C01_7001;

/// Which estimate of a per-query cluster gain to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GainMode {
    /// Conservative lower confidence bound — used when scoring hot
    /// indices for materialization (paper: "an index is selected only if
    /// there is strong evidence of its good performance").
    HotConservative,
    /// Optimistic upper confidence bound — used by re-budgeting's
    /// best-case scenario.
    HotOptimistic,
    /// Materialized-index estimate: mean positive gain scaled by the
    /// fraction of cluster queries that actually used the index.
    Materialized,
}

/// The Profiler.
#[derive(Debug)]
pub struct Profiler {
    clusters: ClusterSet,
    candidates: CandidateSet,
    // BTreeMap: iterated by `profiled_index_count`, and kernel state must
    // never depend on hash order.
    stats: BTreeMap<(ColRef, ClusterId), IndexClusterStats>,
    prng: Prng,
    /// What-if calls performed in the epoch in progress (`#WI_cur`).
    wi_cur: u64,
    /// Budget for the epoch in progress (`#WI_lim`).
    wi_lim: u64,
    /// Hard cap (`#WI_max`).
    wi_max: u64,
    /// [`Profiler::profile_query`]'s working vectors, kept between
    /// calls: a query that issues no probe allocates nothing.
    work: Work,
}

#[derive(Debug, Default)]
struct Work {
    /// The columns the query restricts and the indices its plan uses.
    restricted: Vec<ColRef>,
    used: Vec<ColRef>,
    /// Probe candidates: materialized indices in the plan, hot indices.
    im: Vec<ColRef>,
    ih: Vec<ColRef>,
    /// The probation set `P`: the candidates probed for this query.
    probation: Vec<ColRef>,
}

impl Profiler {
    /// Build a profiler from the COLT configuration. The first epoch
    /// starts with the full budget `#WI_max` — the system knows nothing
    /// yet.
    pub fn new(config: &ColtConfig) -> Self {
        Profiler {
            clusters: ClusterSet::new(config.history_epochs),
            candidates: CandidateSet::new(config.history_epochs),
            stats: BTreeMap::new(),
            prng: Prng::new(SEED),
            wi_cur: 0,
            wi_lim: config.max_whatif_per_epoch,
            wi_max: config.max_whatif_per_epoch,
            work: Work::default(),
        }
    }

    /// What-if calls used in the epoch in progress.
    pub fn whatif_used(&self) -> u64 {
        self.wi_cur
    }

    /// Budget of the epoch in progress.
    pub fn whatif_limit(&self) -> u64 {
        self.wi_lim
    }

    /// The candidate set `C`.
    pub fn candidates(&self) -> &CandidateSet {
        &self.candidates
    }

    /// The query clustering.
    pub fn clusters(&self) -> &ClusterSet {
        &self.clusters
    }

    /// Profile the current query given its optimized plan (Figure 2).
    /// The plan is `query`'s own: the cluster key and the crude gains
    /// read the predicate estimates it was priced with
    /// ([`Plan::selectivities`]).
    pub fn profile_query(
        &mut self,
        db: &Database,
        config: &PhysicalConfig,
        eqo: &mut Eqo<'_>,
        query: &Query,
        plan: &Plan,
        hot: &BTreeSet<ColRef>,
    ) {
        let _span = colt_obs::span("profiler.profile");
        // Moved out for the call, so that they borrow apart from `self`.
        let Work { mut restricted, mut used, mut im, mut ih, mut probation } =
            std::mem::take(&mut self.work);
        let sels = plan.selectivities.as_slice();
        debug_assert_eq!(sels.len(), query.selections.len(), "the plan of another query");
        let cluster = {
            let _s = colt_obs::span("profiler.cluster");
            self.clusters.assign(query, sels)
        };
        restricted.clear();
        restricted.extend(query.selections.iter().map(|p| p.col));
        restricted.sort_unstable();
        restricted.dedup();
        plan.root.used_indices_into(&mut used);
        if colt_obs::is_enabled() {
            colt_obs::decision(
                colt_obs::DecisionRecord::new(colt_obs::DecisionKind::ClusterAssign)
                    .field("cluster", cluster.0)
                    .field("window_count", self.clusters.get(cluster).window_count())
                    .field("candidate_columns", restricted.len()),
            );
        }

        // Track usage of every relevant materialized index — this is
        // free (derived from the plan) and feeds `used_fraction`.
        for &col in &restricted {
            if config.contains(col) {
                let version = config.version_excluding(col);
                let s = self
                    .stats
                    .entry((col, cluster))
                    .or_insert_with(|| IndexClusterStats::new(version));
                if s.gains.ensure_version(version) {
                    s.reset_usage();
                }
                s.observe(used.contains(&col));
            }
        }

        // Form the probation set P: materialized indices used in the
        // plan first, then hot indices relevant to the cluster, each
        // admitted with its adaptive sampling probability while the
        // epoch's budget lasts.
        im.clear();
        im.extend(used.iter().copied().filter(|c| config.contains(*c)));
        ih.clear();
        ih.extend(restricted.iter().copied().filter(|c| hot.contains(c) && !config.contains(*c)));
        self.prng.shuffle(&mut im);
        self.prng.shuffle(&mut ih);

        probation.clear();
        for col in im.iter().chain(&ih).copied() {
            if self.wi_cur + probation.len() as u64 >= self.wi_lim {
                break;
            }
            let rate = self.sample_rate(col, cluster);
            if !self.prng.chance(rate) {
                continue;
            }
            colt_obs::counter("tuner.whatif.issued", 1);
            probation.push(col);
        }

        // Call the what-if optimizer and fold the measured gains into
        // the per-(index, cluster) statistics.
        if !probation.is_empty() {
            let _s = colt_obs::span("profiler.whatif");
            let gains = eqo.what_if_optimize(query, &probation, config);
            for g in &gains {
                let version = config.version_excluding(g.col);
                let s = self
                    .stats
                    .entry((g.col, cluster))
                    .or_insert_with(|| IndexClusterStats::new(version));
                s.gains.add(g.gain, version);
                if colt_obs::is_enabled() {
                    colt_obs::decision(
                        colt_obs::DecisionRecord::new(colt_obs::DecisionKind::WhatifProbe)
                            .field("index", g.col.to_string())
                            .field("cluster", cluster.0)
                            .field("gain", g.gain)
                            .field("budget_used", self.wi_cur + probation.len() as u64)
                            .field("budget_limit", self.wi_lim),
                    );
                }
            }
            self.wi_cur += probation.len() as u64;
        }

        // Level 1: update the crude BenefitC estimate of every candidate
        // column the query restricts.
        let _crude = colt_obs::span("profiler.crude");
        for &col in &restricted {
            if Self::usage_indicator(col, config, &used) {
                let crude = Self::crude_gain(db, query, sels, col);
                self.candidates.add_gain(col, crude);
            } else {
                self.candidates.touch(col);
            }
        }

        self.work = Work { restricted, used, im, ih, probation };
    }

    /// The indicator `u_{q,I}`: 1 when the optimizer (would) use `I` for
    /// this query. Known exactly for materialized indices (from the
    /// plan); optimistic (1) for everything else, as in the paper.
    fn usage_indicator(col: ColRef, config: &PhysicalConfig, used: &[ColRef]) -> bool {
        !config.contains(col) || used.contains(&col)
    }

    /// Crude `QueryGain_C(q, I) = Δcost(R, σ, I)` from standard cost
    /// formulas. When several predicates restrict the same column, the
    /// most selective one drives the estimate. `sels[i]` is the
    /// estimated selectivity of `query.selections[i]`.
    fn crude_gain(db: &Database, query: &Query, sels: &[f64], col: ColRef) -> f64 {
        let sel = query
            .selections
            .iter()
            .zip(sels)
            .filter(|(p, _)| p.col == col)
            .map(|(_, &sel)| sel)
            .fold(f64::INFINITY, f64::min);
        if !sel.is_finite() {
            return 0.0;
        }
        let t = db.table(col.table);
        let est = db.index_estimate(col);
        delta_cost(&db.cost, &est, sel, t.heap.row_count() as f64, t.heap.page_count() as f64)
    }

    /// Adaptive sampling probability for an `(index, cluster)` pair
    /// (paper §4.2): the what-if allocation is proportional to the
    /// pair's estimated contribution to the error of `Benefit(I)`, which
    /// grows with the cluster's popularity and the variance of profiled
    /// gains, and shrinks as more of the cluster is profiled.
    fn sample_rate(&self, col: ColRef, cluster: ClusterId) -> f64 {
        let Some(s) = self.stats.get(&(col, cluster)) else {
            return 1.0; // never profiled: maximal uncertainty
        };
        let n = s.gains.n();
        if n < 2 {
            return 1.0;
        }
        let hw = s.gains.ci_half_width(CONFIDENCE_Z);
        let relative_error = hw / s.gains.mean().abs().max(1e-6);
        let popularity = (self.clusters.get(cluster).window_count() as f64).sqrt();
        let e = relative_error * popularity / (n as f64).sqrt();
        e.clamp(0.05, 1.0)
    }

    /// Per-query gain estimate of `I` for queries of `cluster`, under the
    /// requested estimation mode.
    pub fn cluster_gain(&self, col: ColRef, cluster: ClusterId, mode: GainMode) -> f64 {
        self.stats.get(&(col, cluster)).map_or(0.0, |s| self.gain_under(s, mode))
    }

    fn gain_under(&self, s: &IndexClusterStats, mode: GainMode) -> f64 {
        match mode {
            GainMode::HotConservative => s.gains.low(CONFIDENCE_Z),
            GainMode::HotOptimistic => s.gains.high(CONFIDENCE_Z),
            GainMode::Materialized => s.gains.mean().max(0.0) * s.used_fraction(),
        }
    }

    /// Total per-epoch benefit of `I`:
    /// `Σ_clusters (Count(Q_i)/h) · per-query-gain(I, Q_i)`
    /// — the un-normalized form of the paper's `Benefit(I)`, with the
    /// cluster popularity taken over the whole memory window `S_h`
    /// (paper §4.1: `Count(Q_i)` records the queries the cluster
    /// represents). Window-averaged counts make the benefit series far
    /// less sensitive to the per-epoch query mix than raw per-epoch
    /// counts, which stabilizes the knapsack when indices are near-tied.
    ///
    /// `counts` is [`ClusterSet::window_counts`], which a boundary takes
    /// once for all its indices; the index's statistics are walked in
    /// step with it (both are in cluster order), not looked up per
    /// cluster.
    pub fn epoch_benefit(&self, col: ColRef, mode: GainMode, counts: &[(ClusterId, u64)]) -> f64 {
        let h = self.clusters.history_epochs() as f64;
        let mut stats =
            self.stats.range((col, ClusterId(0))..=(col, ClusterId(u32::MAX))).peekable();
        counts
            .iter()
            .map(|&(id, count)| {
                while stats.next_if(|((_, cluster), _)| *cluster < id).is_some() {}
                let gain = stats
                    .next_if(|((_, cluster), _)| *cluster == id)
                    .map_or(0.0, |(_, s)| self.gain_under(s, mode));
                count as f64 / h * gain
            })
            .sum()
    }

    /// Number of distinct indices that have at least one accurate
    /// (what-if-measured) sample — the paper reports COLT profiles only
    /// ~11% of the relevant indices.
    pub fn profiled_index_count(&self) -> usize {
        // BTreeMap keys arrive ordered by (ColRef, ClusterId), so distinct
        // columns are already adjacent.
        let mut cols: Vec<ColRef> =
            self.stats.iter().filter(|(_, s)| s.gains.n() > 0).map(|((c, _), _)| *c).collect();
        cols.dedup();
        cols.len()
    }

    /// Close the epoch: roll cluster counts and crude candidate
    /// statistics, reset the what-if counter, and install the next
    /// epoch's budget (clamped to `#WI_max`).
    pub fn end_epoch(&mut self, next_budget: u64) {
        self.clusters.roll_epoch();
        self.candidates.roll_epoch();
        self.wi_cur = 0;
        self.wi_lim = next_budget.min(self.wi_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::{Column, TableId, TableSchema};
    use colt_engine::SelPred;
    use colt_storage::{row_from, Value, ValueType};

    fn setup() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableSchema::new(
            "t",
            vec![
                Column::new("id", ValueType::Int),
                Column::new("grp", ValueType::Int),
                Column::new("w", ValueType::Int),
            ],
        ));
        db.insert_rows(
            t,
            (0..30_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 30), Value::Int(i % 3)])),
        ).unwrap();
        db.analyze_all();
        (db, t)
    }

    fn run_query(
        profiler: &mut Profiler,
        db: &Database,
        cfg: &PhysicalConfig,
        q: &Query,
        hot: &BTreeSet<ColRef>,
    ) {
        let mut eqo = Eqo::new(db);
        let plan = eqo.optimize(q, cfg);
        profiler.profile_query(db, cfg, &mut eqo, q, &plan, hot)
    }

    #[test]
    fn candidates_mined_from_selections() {
        let (db, t) = setup();
        let cfg = PhysicalConfig::new();
        let mut p = Profiler::new(&ColtConfig::default());
        let col = ColRef::new(t, 0);
        let q = Query::single(t, vec![SelPred::eq(col, 7i64)]);
        run_query(&mut p, &db, &cfg, &q, &BTreeSet::new());
        assert!(p.candidates().contains(col));
        assert_eq!(p.candidates().len(), 1);
    }

    #[test]
    fn hot_indices_get_whatif_samples() {
        let (db, t) = setup();
        let cfg = PhysicalConfig::new();
        let mut p = Profiler::new(&ColtConfig::default());
        let col = ColRef::new(t, 0);
        let hot = BTreeSet::from([col]);
        let q = Query::single(t, vec![SelPred::eq(col, 7i64)]);
        run_query(&mut p, &db, &cfg, &q, &hot);
        // `col` is the one index the query could probe.
        assert_eq!(p.whatif_used(), 1, "fresh hot index must be sampled at rate 1");
        let cluster = p.clusters().live().next().unwrap().0;
        assert!(p.cluster_gain(col, cluster, GainMode::HotConservative) > 0.0);
        assert!(
            p.cluster_gain(col, cluster, GainMode::HotOptimistic)
                >= p.cluster_gain(col, cluster, GainMode::HotConservative)
        );
    }

    #[test]
    fn budget_limits_probing() {
        let (db, t) = setup();
        let cfg = PhysicalConfig::new();
        let config = ColtConfig { max_whatif_per_epoch: 2, ..Default::default() };
        let mut p = Profiler::new(&config);
        let hot = BTreeSet::from([ColRef::new(t, 0), ColRef::new(t, 1), ColRef::new(t, 2)]);
        let q = Query::single(
            t,
            vec![
                SelPred::eq(ColRef::new(t, 0), 7i64),
                SelPred::eq(ColRef::new(t, 1), 3i64),
                SelPred::eq(ColRef::new(t, 2), 1i64),
            ],
        );
        run_query(&mut p, &db, &cfg, &q, &hot);
        assert!(p.whatif_used() <= 2, "budget respected, used {}", p.whatif_used());
        // Next query in the same epoch cannot exceed the budget either.
        run_query(&mut p, &db, &cfg, &q, &hot);
        assert!(p.whatif_used() <= 2);
    }

    #[test]
    fn zero_budget_suspends_profiling() {
        let (db, t) = setup();
        let cfg = PhysicalConfig::new();
        let mut p = Profiler::new(&ColtConfig::default());
        p.end_epoch(0);
        let col = ColRef::new(t, 0);
        let hot = BTreeSet::from([col]);
        let q = Query::single(t, vec![SelPred::eq(col, 7i64)]);
        run_query(&mut p, &db, &cfg, &q, &hot);
        assert_eq!(p.whatif_used(), 0);
        // Crude profiling continues regardless.
        assert!(p.candidates().contains(col));
    }

    #[test]
    fn materialized_usage_tracked() {
        let (db, t) = setup();
        let mut cfg = PhysicalConfig::new();
        let col = ColRef::new(t, 0);
        cfg.create_index(&db, col);
        let mut p = Profiler::new(&ColtConfig::default());
        let q = Query::single(t, vec![SelPred::eq(col, 7i64)]);
        run_query(&mut p, &db, &cfg, &q, &BTreeSet::new());
        let cluster = p.clusters().live().next().unwrap().0;
        // The materialized index is used and (being in the plan) is a
        // probation candidate; its gain estimate must be positive.
        let gain = p.cluster_gain(col, cluster, GainMode::Materialized);
        assert!(gain > 0.0, "materialized gain {gain}");
    }

    #[test]
    fn epoch_benefit_weights_by_popularity() {
        let (db, t) = setup();
        let cfg = PhysicalConfig::new();
        let mut p = Profiler::new(&ColtConfig::default());
        let col = ColRef::new(t, 0);
        let hot = BTreeSet::from([col]);
        let q = Query::single(t, vec![SelPred::eq(col, 7i64)]);
        for _ in 0..5 {
            run_query(&mut p, &db, &cfg, &q, &hot);
        }
        let counts = p.clusters().window_counts();
        let b = p.epoch_benefit(col, GainMode::HotConservative, &counts);
        assert!(b > 0.0);
        // Five queries of one cluster in a 12-epoch window: the benefit
        // is the window-averaged popularity times the per-query gain.
        let cluster = p.clusters().live().next().unwrap().0;
        let per_query = p.cluster_gain(col, cluster, GainMode::HotConservative);
        assert!((b - 5.0 / 12.0 * per_query).abs() < 1e-9);
    }

    #[test]
    fn end_epoch_resets_and_caps_budget() {
        let (db, t) = setup();
        let cfg = PhysicalConfig::new();
        let mut p = Profiler::new(&ColtConfig::default());
        let col = ColRef::new(t, 0);
        let hot = BTreeSet::from([col]);
        let q = Query::single(t, vec![SelPred::eq(col, 7i64)]);
        run_query(&mut p, &db, &cfg, &q, &hot);
        assert!(p.whatif_used() > 0);
        p.end_epoch(10_000);
        assert_eq!(p.whatif_used(), 0);
        assert_eq!(p.whatif_limit(), ColtConfig::default().max_whatif_per_epoch);
    }

    #[test]
    fn profiled_index_count_counts_sampled_only() {
        let (db, t) = setup();
        let cfg = PhysicalConfig::new();
        let mut p = Profiler::new(&ColtConfig::default());
        assert_eq!(p.profiled_index_count(), 0);
        let col = ColRef::new(t, 0);
        let q = Query::single(t, vec![SelPred::eq(col, 7i64)]);
        // Not hot, not materialized → crude only, no accurate profile.
        run_query(&mut p, &db, &cfg, &q, &BTreeSet::new());
        assert_eq!(p.profiled_index_count(), 0);
        run_query(&mut p, &db, &cfg, &q, &BTreeSet::from([col]));
        assert_eq!(p.profiled_index_count(), 1);
    }
}
