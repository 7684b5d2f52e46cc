//! The Self-Organizer (paper §5): reorganization and re-budgeting at
//! every epoch boundary.
//!
//! **Reorganization.** The new materialized set is the solution of a 0/1
//! KNAPSACK over `H ∪ M`: the knapsack size is the storage budget `B`,
//! each index occupies `IndexSize(I)` pages and provides
//! `NetBenefit(I) = Σ_j PredBenefit_j(I) − MatCost(I)` units of value
//! (`MatCost = 0` for an already-materialized index). The solver is
//! [`colt_engine::knapsack::solve`], OFFLINE's too, given one
//! single-option group per index worth more than nothing. The hot set
//! for the next epoch is then the `MAX_HOT_SET` remaining candidates
//! with the highest positive smoothed crude benefits. The paper takes
//! the top cluster of a 2-means split of those benefits; filled up to
//! the cap, the split decides nothing, so it is not computed (DESIGN §8
//! #5).
//!
//! **Re-budgeting.** The potential of the current hot indices is
//! assessed under a best-case scenario: their benefits are replaced by
//! the upper confidence bounds and the knapsack is solved again, giving
//! an alternative set `M′`. The what-if budget of the next epoch follows
//! the ratio `r = NetBenefit(M′) / NetBenefit(M)`: profiling is
//! suspended at `r = 1` and maxed out at `r ≥ 1.3`, linear in between.
//! This is the mechanism that lets COLT hibernate on stable workloads
//! and wake up at phase shifts.

use crate::cluster::ClusterId;
use crate::config::ColtConfig;
use crate::hotset::select_hot;
use crate::json::Json;
use crate::profiler::{GainMode, Profiler};
use colt_catalog::{ColRef, Database, PhysicalConfig};
use colt_engine::cost::build_cost;
use colt_engine::knapsack::{self, Item};
use std::collections::BTreeSet;

/// The `r` at (or above) which the next epoch profiles at the full
/// budget `#WI_max`: the paper's 1.3 (§5, §6.1).
const FULL_BUDGET_RATIO: f64 = 1.3;
// The budget ramp divides by `FULL_BUDGET_RATIO - 1`.
const _: () = assert!(FULL_BUDGET_RATIO > 1.0);

/// Size of the hot set: keeps the accurate profiling level affordable.
const MAX_HOT_SET: usize = 10;

/// The decision produced at an epoch boundary.
#[derive(Debug, Clone)]
pub struct ReorgDecision {
    /// The new materialized set (on-line indices only).
    pub new_materialized: BTreeSet<ColRef>,
    /// Indices to build (in `new_materialized`, not yet materialized).
    pub to_create: Vec<ColRef>,
    /// Indices to drop (materialized on-line, not in the new set).
    pub to_drop: Vec<ColRef>,
    /// The hot set for the next epoch.
    pub new_hot: BTreeSet<ColRef>,
    /// What-if budget for the next epoch (`#WI_lim`).
    pub next_budget: u64,
    /// The re-budgeting ratio `r = NetBenefit(M′)/NetBenefit(M)`.
    pub ratio: f64,
    /// Aggregate `NetBenefit(M)` under normal estimates.
    pub net_benefit_m: f64,
    /// Aggregate `NetBenefit(M′)` under the best-case scenario.
    pub net_benefit_m_prime: f64,
}

/// One index as the boundary's knapsack prices it: its size, and its
/// `NetBenefit` under normal estimates (`lo`) and in the best case
/// (`hi ≥ lo`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Priced {
    /// Pages the index (would) occupy.
    size: u64,
    /// Conservative net benefit: what reorganization solves with.
    lo: f64,
    /// Optimistic net benefit: what re-budgeting solves with.
    hi: f64,
}

/// The knapsack over `pool` (in `ColRef` order), each index worth
/// `value(col, priced)`, into `capacity` pages: one single-option group
/// per index worth more than nothing. Returns the chosen columns (in
/// `ColRef` order) and their values added in that order to `0.0`.
fn solve(
    pool: &[(ColRef, Priced)],
    capacity: u64,
    value: impl Fn(ColRef, &Priced) -> f64,
) -> (Vec<ColRef>, f64) {
    let (cols, groups): (Vec<ColRef>, Vec<[Item; 1]>) = pool
        .iter()
        .map(|(col, p)| (*col, [Item { size: p.size, value: value(*col, p) }]))
        .filter(|(_, [it])| it.value > 0.0)
        .unzip();
    let best = knapsack::solve(&groups, capacity);
    let chosen = cols.into_iter().zip(best.picks).filter_map(|(col, pick)| pick.map(|_| col));
    (chosen.collect(), best.value)
}

/// `MatCost(I)`: the simulated cost of building an index on `col`.
fn mat_cost(db: &Database, col: ColRef) -> f64 {
    let heap = &db.table(col.table).heap;
    build_cost(&db.cost, &db.index_estimate(col), heap.row_count() as f64, heap.page_count() as f64)
}

/// The Self-Organizer: the boundary's decision is a function of the
/// Profiler's statistics and the configuration; nothing is carried from
/// one boundary to the next.
#[derive(Debug)]
pub struct SelfOrganizer {
    config: ColtConfig,
}

impl SelfOrganizer {
    /// Build from the COLT configuration.
    pub fn new(config: &ColtConfig) -> Self {
        SelfOrganizer { config: config.clone() }
    }

    /// Price an index for the boundary: its size and its `NetBenefit`
    /// (`MatCost` is 0 once materialized), under normal estimates (`lo`)
    /// and in the best case (`hi`). `counts` is the boundary's
    /// [`ClusterSet::window_counts`](crate::cluster::ClusterSet::window_counts);
    /// a fresh hot index, which nobody profiled this epoch, passes `None`.
    ///
    /// The forecast (the paper's is in an unavailable tech report) is
    /// flat: [`Profiler::epoch_benefit`] is already averaged over the
    /// `h`-epoch window, so it is the level — smoothing it again would
    /// double-damp the reaction to a shift — and
    /// `NetBenefit = level · h − MatCost` projects it over `h` epochs.
    fn price(
        &self,
        db: &Database,
        config: &PhysicalConfig,
        profiler: &Profiler,
        col: ColRef,
        counts: Option<&[(ClusterId, u64)]>,
    ) -> Priced {
        let h = self.config.history_epochs as f64;
        let level = |mode| counts.map_or(0.0, |counts| profiler.epoch_benefit(col, mode, counts));
        if let Some(m) = config.get(col) {
            // A materialized index has no best case beyond its estimate.
            let lo = level(GainMode::Materialized) * h;
            return Priced { size: m.tree.page_count() as u64, lo, hi: lo };
        }
        let mat_cost = mat_cost(db, col);
        // The best case of a hot index is at least its crude estimate
        // projected over the horizon: before its first what-if profile
        // that is all the signal there is, and it is what drives the
        // budget up when a workload shift surfaces new candidates.
        let crude = profiler.candidates().projected_benefit(col);
        let lo = level(GainMode::HotConservative) * h - mat_cost;
        let hi = (level(GainMode::HotOptimistic) * h - mat_cost).max(crude * h - mat_cost);
        Priced { size: db.index_estimate(col).pages, lo, hi: hi.max(lo) }
    }

    /// Run reorganization + re-budgeting at an epoch boundary.
    pub fn reorganize(
        &self,
        db: &Database,
        config: &PhysicalConfig,
        profiler: &Profiler,
        hot: &BTreeSet<ColRef>,
    ) -> ReorgDecision {
        let _span = colt_obs::span("organizer.reorganize");
        let budget = self.config.storage_budget_pages;
        let counts = profiler.clusters().window_counts();
        let online: BTreeSet<ColRef> = config.online_columns().collect();
        // `H ∪ M`, priced once, in `ColRef` order: the items of every
        // solve below.
        let pool: Vec<(ColRef, Priced)> = online
            .union(hot)
            .map(|&col| (col, self.price(db, config, profiler, col, Some(&counts))))
            .collect();

        // --- Reorganization: knapsack under normal estimates. ---
        // Free solution: the unconstrained knapsack optimum.
        let (free, free_value) = {
            let _s = colt_obs::span("organizer.knapsack");
            solve(&pool, budget, |_, it| it.lo)
        };

        // Keep solution: incumbents with positive net benefit stay (the
        // paper's converge-to-zero drop path remains open), and the
        // remaining capacity is filled with the best additions — an
        // incumbent is never re-added.
        let kept: Vec<(ColRef, Priced)> = pool
            .iter()
            .filter(|(col, it)| online.contains(col) && it.lo > 0.0)
            .copied()
            .collect();
        let spare = budget.saturating_sub(kept.iter().map(|(_, it)| it.size).sum());
        let (additions, added_value) = {
            let _s = colt_obs::span("organizer.knapsack");
            solve(&pool, spare, |col, it| if online.contains(&col) { 0.0 } else { it.lo })
        };
        let keep_value = kept.iter().fold(0.0, |sum, (_, it)| sum + it.lo) + added_value;

        // Hysteresis: adopt the free solution (which may swap incumbents
        // out for new builds) only when it clearly beats keeping the
        // incumbents and merely adding. The per-epoch benefit estimates
        // fluctuate with the query mix, and re-solving the knapsack on
        // every epoch would otherwise thrash between near-tied indices,
        // paying a build each time.
        let adopted_free = free_value > keep_value * (1.0 + self.config.swap_margin) + 1e-9;
        let (new_materialized, net_benefit_m): (BTreeSet<ColRef>, f64) = if adopted_free {
            (free.into_iter().collect(), free_value)
        } else {
            (kept.iter().map(|&(col, _)| col).chain(additions).collect(), keep_value)
        };

        let to_create: Vec<ColRef> =
            new_materialized.iter().copied().filter(|c| !online.contains(c)).collect();
        let to_drop: Vec<ColRef> =
            online.iter().copied().filter(|c| !new_materialized.contains(c)).collect();

        let spent_pages: u64 = pool
            .iter()
            .filter(|(col, _)| new_materialized.contains(col))
            .map(|(_, it)| it.size)
            .sum();
        colt_obs::counter("tuner.budget.spent", spent_pages);
        if colt_obs::is_enabled() {
            let candidate = |(col, it): &(ColRef, Priced)| {
                let index = ("index", col.to_string().into());
                Json::obj(vec![index, ("size_pages", it.size.into()), ("value", it.lo.into())])
            };
            let chosen = new_materialized.iter().map(|col| col.to_string().into());
            colt_obs::decision(
                colt_obs::DecisionRecord::new(colt_obs::DecisionKind::Knapsack)
                    .field("candidates", Json::Arr(pool.iter().map(candidate).collect()))
                    .field("chosen", Json::Arr(chosen.collect()))
                    .field("budget_pages", budget)
                    .field("spent_pages", spent_pages)
                    .field("free_value", free_value)
                    .field("keep_value", keep_value)
                    .field("adopted", if adopted_free { "free" } else { "keep" }),
            );
        }

        // --- Hot-set selection from the remaining candidates. ---
        let benefits: Vec<(ColRef, f64)> = profiler
            .candidates()
            .smoothed_benefits()
            .into_iter()
            .filter(|(c, _)| !new_materialized.contains(c) && !config.contains(*c))
            .collect();
        let new_hot: BTreeSet<ColRef> =
            select_hot(&benefits, MAX_HOT_SET).into_iter().collect();

        // --- Re-budgeting: best-case knapsack. ---
        let _rebudget = colt_obs::span("organizer.rebudget");
        let (_, mut net_benefit_m_prime) = {
            let _s = colt_obs::span("organizer.knapsack");
            solve(&pool, budget, |_, it| it.hi)
        };
        // Fresh hot indices (selected just now, never profiled) also
        // belong to the best-case scenario of the *next* epoch.
        for &col in new_hot.iter().filter(|c| !online.contains(c) && !hot.contains(c)) {
            let p = self.price(db, config, profiler, col, None);
            if p.hi > 0.0 {
                net_benefit_m_prime += p.hi;
            }
        }

        let eps = 1e-9;
        let ratio = if net_benefit_m > eps {
            (net_benefit_m_prime / net_benefit_m).max(1.0)
        } else if net_benefit_m_prime > eps {
            FULL_BUDGET_RATIO
        } else {
            1.0
        };
        let frac = ((ratio - 1.0) / (FULL_BUDGET_RATIO - 1.0)).clamp(0.0, 1.0);
        let next_budget = if self.config.self_regulation {
            (self.config.max_whatif_per_epoch as f64 * frac).round() as u64
        } else {
            // Ablation: a fixed-intensity tuner that always spends the
            // full what-if budget, like the prior work the paper
            // contrasts against (§1, "the on-line process operates with
            // the same intensity even if the system cannot be tuned to
            // work better").
            self.config.max_whatif_per_epoch
        };

        ReorgDecision {
            new_materialized,
            to_create,
            to_drop,
            new_hot,
            next_budget,
            ratio,
            net_benefit_m,
            net_benefit_m_prime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::{Column, TableId, TableSchema};
    use colt_engine::{Eqo, Query, SelPred};
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

    fn profile_n(
        profiler: &mut Profiler,
        db: &Database,
        cfg: &PhysicalConfig,
        q: &Query,
        hot: &BTreeSet<ColRef>,
        n: usize,
    ) {
        let mut eqo = Eqo::new(db);
        for _ in 0..n {
            let plan = eqo.optimize(q, cfg);
            profiler.profile_query(db, cfg, &mut eqo, q, &plan, hot);
        }
    }

    #[test]
    fn profitable_hot_index_gets_materialized() {
        let (db, t) = setup();
        let cfg = PhysicalConfig::new();
        let col = ColRef::new(t, 0);
        let colt_cfg = ColtConfig { storage_budget_pages: 10_000, ..Default::default() };
        let mut profiler = Profiler::new(&colt_cfg);
        let org = SelfOrganizer::new(&colt_cfg);
        let hot = BTreeSet::from([col]);
        let q = Query::single(t, vec![SelPred::eq(col, 7i64)]);
        // Several epochs of consistent, strong evidence.
        let mut decision = None;
        for _ in 0..4 {
            profile_n(&mut profiler, &db, &cfg, &q, &hot, 10);
            decision = Some(org.reorganize(&db, &cfg, &profiler, &hot));
            profiler.end_epoch(colt_cfg.max_whatif_per_epoch);
        }
        let d = decision.unwrap();
        assert!(d.new_materialized.contains(&col), "net benefit {:?}", d.net_benefit_m);
        assert_eq!(d.to_create, vec![col]);
    }

    #[test]
    fn useless_materialized_index_dropped_after_benefit_decays() {
        let (db, t) = setup();
        let mut cfg = PhysicalConfig::new();
        let col = ColRef::new(t, 0);
        cfg.create_index(&db, col);
        let colt_cfg = ColtConfig::default();
        let mut profiler = Profiler::new(&colt_cfg);
        let org = SelfOrganizer::new(&colt_cfg);
        let hot = BTreeSet::new();
        // Queries that never touch the indexed column.
        let q = Query::single(t, vec![SelPred::eq(ColRef::new(t, 1), 3i64)]);
        let mut last = None;
        for _ in 0..3 {
            profile_n(&mut profiler, &db, &cfg, &q, &hot, 10);
            last = Some(org.reorganize(&db, &cfg, &profiler, &hot));
            profiler.end_epoch(colt_cfg.max_whatif_per_epoch);
        }
        let d = last.unwrap();
        assert!(!d.new_materialized.contains(&col), "unused index must not survive");
        assert_eq!(d.to_drop, vec![col]);
    }

    #[test]
    fn budget_suspended_when_stable_and_tuned() {
        let (db, t) = setup();
        let mut cfg = PhysicalConfig::new();
        let col = ColRef::new(t, 0);
        cfg.create_index(&db, col);
        let colt_cfg = ColtConfig::default();
        let mut profiler = Profiler::new(&colt_cfg);
        let org = SelfOrganizer::new(&colt_cfg);
        let hot = BTreeSet::new();
        let q = Query::single(t, vec![SelPred::eq(col, 7i64)]);
        let mut d = None;
        for _ in 0..3 {
            profile_n(&mut profiler, &db, &cfg, &q, &hot, 10);
            d = Some(org.reorganize(&db, &cfg, &profiler, &hot));
            profiler.end_epoch(d.as_ref().unwrap().next_budget);
        }
        let d = d.unwrap();
        // Well-tuned, no hot candidates that could beat M → hibernate.
        assert!(d.ratio < 1.05, "ratio {}", d.ratio);
        assert_eq!(d.next_budget, 0, "profiling suspended");
    }

    #[test]
    fn budget_wakes_up_on_new_promising_candidates() {
        let (db, t) = setup();
        let cfg = PhysicalConfig::new();
        let colt_cfg = ColtConfig::default();
        let mut profiler = Profiler::new(&colt_cfg);
        let org = SelfOrganizer::new(&colt_cfg);
        // Epoch of selective queries on an unindexed column → candidate
        // with large crude benefit appears.
        let col = ColRef::new(t, 0);
        let q = Query::single(t, vec![SelPred::eq(col, 7i64)]);
        profile_n(&mut profiler, &db, &cfg, &q, &BTreeSet::new(), 10);
        let d = org.reorganize(&db, &cfg, &profiler, &BTreeSet::new());
        assert!(d.new_hot.contains(&col), "promising candidate becomes hot");
        assert!(d.next_budget > 0, "budget must wake up, got {}", d.next_budget);
    }

    #[test]
    fn decision_context_prices_pool_and_fresh_hot_candidates() {
        let (db, t) = setup();
        let cfg = PhysicalConfig::new();
        let colt_cfg = ColtConfig::default();
        let mut profiler = Profiler::new(&colt_cfg);
        let org = SelfOrganizer::new(&colt_cfg);
        let col = ColRef::new(t, 0);
        let q = Query::single(t, vec![SelPred::eq(col, 7i64)]);
        profile_n(&mut profiler, &db, &cfg, &q, &BTreeSet::new(), 10);
        let d = org.reorganize(&db, &cfg, &profiler, &BTreeSet::new());
        assert!(d.new_hot.contains(&col));
        // The freshly selected hot candidate is priced with a
        // normalized, crude-projected interval.
        let it = org.price(&db, &cfg, &profiler, col, None);
        assert!(it.hi >= it.lo);
        assert!(it.hi > 0.0, "crude projection must drive the upper bound");
        assert!(mat_cost(&db, col) > 0.0);
        // `H ∪ M` was empty: the fresh hot set is all there is to price.
        assert_eq!(cfg.online_columns().count(), 0, "pool is empty in this run");

        // Once the candidate is hot and profiled, the next boundary
        // prices it from the pool with the measured interval.
        profiler.end_epoch(d.next_budget);
        profile_n(&mut profiler, &db, &cfg, &q, &d.new_hot, 10);
        let counts = profiler.clusters().window_counts();
        let it2 = org.price(&db, &cfg, &profiler, col, Some(&counts));
        assert!(it2.hi >= it2.lo);
        // NetBenefit = the finished epoch's level over the h-epoch
        // horizon, minus the build.
        let level = profiler.epoch_benefit(col, GainMode::HotConservative, &counts);
        assert!(level > 0.0);
        assert_eq!(it2.lo, level * colt_cfg.history_epochs as f64 - mat_cost(&db, col));
    }

    #[test]
    fn unmeasured_index_is_worth_minus_its_mat_cost() {
        // No measured benefit ⇒ NetBenefit = −MatCost: the level is 0,
        // not 0/0, even over a zero-epoch window, and NaN would wreck
        // the knapsack ordering.
        let (db, t) = setup();
        let cfg = PhysicalConfig::new();
        let col = ColRef::new(t, 0);
        for history_epochs in [0, 12] {
            let colt_cfg = ColtConfig { history_epochs, ..Default::default() };
            let profiler = Profiler::new(&colt_cfg);
            let hot = BTreeSet::from([col]);
            let org = SelfOrganizer::new(&colt_cfg);
            let d = org.reorganize(&db, &cfg, &profiler, &hot);
            let counts = profiler.clusters().window_counts();
            let it = org.price(&db, &cfg, &profiler, col, Some(&counts));
            let mat_cost = mat_cost(&db, col);
            assert!(mat_cost > 0.0);
            assert_eq!((it.lo, it.hi), (-mat_cost, -mat_cost), "h = {history_epochs}");
            assert!(d.new_materialized.is_empty());
        }
    }

    #[test]
    fn empty_pool_values_are_positive_zero() {
        let (db, _) = setup();
        let colt_cfg = ColtConfig::default();
        let org = SelfOrganizer::new(&colt_cfg);
        assert!(colt_obs::install(colt_obs::Recorder::new(colt_obs::Level::Summary)).is_none());
        let d = org.reorganize(&db, &PhysicalConfig::new(), &Profiler::new(&colt_cfg), &BTreeSet::new());
        let obs = colt_obs::take().expect("the recorder installed above").into_snapshot();
        let knapsack = obs.ledger.of_kind(colt_obs::DecisionKind::Knapsack).next().expect("a knapsack record");
        let value = |key| knapsack.get(key).and_then(Json::as_f64).expect(key);
        for v in [value("free_value"), value("keep_value"), d.net_benefit_m, d.net_benefit_m_prime] {
            assert!(v == 0.0 && v.is_sign_positive(), "{v:?}");
        }
    }

    #[test]
    fn mat_cost_positive_and_scales() {
        let (db, t) = setup();
        let c = mat_cost(&db, ColRef::new(t, 0));
        assert!(c > 0.0);
        // An index on a table twice the size must cost more.
        let mut db2 = Database::new();
        let t2 = db2.add_table(TableSchema::new("u", vec![Column::new("a", ValueType::Int)]));
        db2.insert_rows(t2, (0..60_000i64).map(|i| row_from(vec![Value::Int(i)]))).unwrap();
        db2.analyze_all();
        assert!(mat_cost(&db2, ColRef::new(t2, 0)) > c);
    }

    #[test]
    fn budget_respects_storage_limit() {
        let (db, t) = setup();
        let cfg = PhysicalConfig::new();
        // Budget too small for any index on this table.
        let colt_cfg = ColtConfig { storage_budget_pages: 1, ..Default::default() };
        let mut profiler = Profiler::new(&colt_cfg);
        let org = SelfOrganizer::new(&colt_cfg);
        let col = ColRef::new(t, 0);
        let hot = BTreeSet::from([col]);
        let q = Query::single(t, vec![SelPred::eq(col, 7i64)]);
        for _ in 0..3 {
            profile_n(&mut profiler, &db, &cfg, &q, &hot, 10);
            let d = org.reorganize(&db, &cfg, &profiler, &hot);
            assert!(d.new_materialized.is_empty(), "nothing fits in one page");
            profiler.end_epoch(colt_cfg.max_whatif_per_epoch);
        }
    }
}
