//! The COLT tuner: orchestration of profiling epochs, reorganization,
//! and materialization (the outer loop of the architecture in Figure 1).
//!
//! Drive it by calling [`ColtTuner::on_query`] once per executed query,
//! passing the query's optimized plan. The tuner profiles the query; at
//! every `w`-th query it closes the epoch: the Self-Organizer picks the
//! new materialized and hot sets and the next what-if budget, and the
//! tuner applies the physical changes at once — the immediate
//! materialization the paper adopts (§3). The returned [`TunerStep`]
//! carries the build cost so the driver can charge it to the simulated
//! clock, as the paper's measurements do.

use crate::config::ColtConfig;
use crate::organizer::{ReorgDecision, SelfOrganizer};
use crate::profiler::Profiler;
use crate::trace::{EpochRecord, Trace};
use colt_catalog::{ColRef, Database, PhysicalConfig};
use colt_engine::{Eqo, Plan, Query};
use colt_storage::IoStats;
use std::collections::BTreeSet;

/// What happened while the tuner processed one query.
#[derive(Debug, Clone, Default)]
pub struct TunerStep {
    /// Physical cost of index builds triggered by this query (zero for
    /// most queries; non-zero at epoch boundaries that materialize).
    pub build_io: IoStats,
    /// Whether an epoch boundary (reorganization) happened.
    pub epoch_closed: bool,
    /// Indices created at this step.
    pub created: Vec<ColRef>,
    /// Indices dropped at this step.
    pub dropped: Vec<ColRef>,
}

/// The continuous on-line tuner.
///
/// # Examples
///
/// ```
/// use colt_catalog::{ColRef, Column, Database, PhysicalConfig, TableSchema};
/// use colt_core::{ColtConfig, ColtTuner};
/// use colt_engine::{Collect, Eqo, Executor, Query, SelPred};
/// use colt_storage::{row_from, Value, ValueType};
///
/// let mut db = Database::new();
/// let t = db.add_table(TableSchema::new("t", vec![Column::new("k", ValueType::Int)]));
/// db.insert_rows(t, (0..5_000i64).map(|i| row_from(vec![Value::Int(i)]))).unwrap();
/// db.analyze_all();
///
/// let mut physical = PhysicalConfig::new();
/// let mut tuner = ColtTuner::new(ColtConfig {
///     storage_budget_pages: 10_000,
///     ..Default::default()
/// });
/// let mut eqo = Eqo::new(&db);
/// let col = ColRef::new(t, 0);
/// for i in 0..60i64 {
///     let q = Query::single(t, vec![SelPred::eq(col, i * 83 % 5_000)]);
///     let plan = eqo.optimize(&q, &physical);
///     let _ = Executor::new(&db, &physical).execute(&q, &plan, Collect::CountOnly);
///     tuner.on_query(&db, &mut physical, &mut eqo, &q, &plan);
/// }
/// // The repeated selective lookups earned the column an index.
/// assert!(physical.contains(col));
/// ```
#[derive(Debug)]
pub struct ColtTuner {
    config: ColtConfig,
    profiler: Profiler,
    organizer: SelfOrganizer,
    hot: BTreeSet<ColRef>,
    queries_in_epoch: usize,
    epoch: u64,
    trace: Trace,
}

impl ColtTuner {
    /// Create a tuner with the given configuration (validated).
    pub fn new(config: ColtConfig) -> Self {
        #[expect(clippy::expect_used, reason = "an invalid config is a startup programming error")]
        config.validate().expect("invalid COLT configuration");
        ColtTuner {
            profiler: Profiler::new(&config),
            organizer: SelfOrganizer::new(&config),
            hot: BTreeSet::new(),
            queries_in_epoch: 0,
            epoch: 0,
            config,
            trace: Trace::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ColtConfig {
        &self.config
    }

    /// The run trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The number of epochs closed so far (the current epoch's index).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The profiler (read access for inspection and experiments).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Process one executed query: profile it and, at epoch boundaries,
    /// reorganize the physical configuration.
    pub fn on_query(
        &mut self,
        db: &Database,
        physical: &mut PhysicalConfig,
        eqo: &mut Eqo<'_>,
        query: &Query,
        plan: &Plan,
    ) -> TunerStep {
        self.profiler.profile_query(db, physical, eqo, query, plan, &self.hot);

        self.queries_in_epoch += 1;
        if self.queries_in_epoch < self.config.epoch_length {
            return TunerStep::default();
        }
        self.queries_in_epoch = 0;
        self.close_epoch(db, physical)
    }

    fn close_epoch(&mut self, db: &Database, physical: &mut PhysicalConfig) -> TunerStep {
        let _span = colt_obs::span("tuner.epoch");
        let whatif_used = self.profiler.whatif_used();
        let whatif_limit = self.profiler.whatif_limit();

        let decision = self.organizer.reorganize(db, physical, &self.profiler, &self.hot);
        let (built, dropped) = apply(db, physical, &decision.to_create, &decision.to_drop);
        let mut build_io = IoStats::new();
        for (_, io) in &built {
            build_io.accumulate(io);
        }

        let build_millis = db.cost.millis_of(&build_io);
        if colt_obs::is_enabled() {
            self.report_epoch(db, &built, &dropped, &decision);
        }
        let created: Vec<ColRef> = built.iter().map(|(c, _)| *c).collect();

        self.trace.push(EpochRecord {
            epoch: self.epoch,
            whatif_used,
            whatif_limit,
            whatif_skipped: 0,
            next_budget: decision.next_budget,
            ratio: decision.ratio,
            created: created.clone(),
            dropped: dropped.clone(),
            build_millis,
        });

        self.hot = decision.new_hot;
        self.profiler.end_epoch(decision.next_budget);
        // Close the epoch in the flight recorder too: the time series
        // takes this epoch's metric deltas, and later decision records
        // (next epoch's probes) stamp epoch + 1 — matching the
        // `self.epoch` increment below.
        colt_obs::epoch_mark(self.epoch);
        self.epoch += 1;

        TunerStep { build_io, epoch_closed: true, created, dropped }
    }

    /// The closed epoch as ledger records: a formatted index name per
    /// field, built only when a recorder is installed to keep them.
    /// Every change comes `via` the reorganization.
    fn report_epoch(
        &self,
        db: &Database,
        built: &[(ColRef, IoStats)],
        dropped: &[ColRef],
        decision: &ReorgDecision,
    ) {
        for (col, io) in built {
            colt_obs::decision(
                colt_obs::DecisionRecord::new(colt_obs::DecisionKind::IndexCreate)
                    .field("index", col.to_string())
                    .field("via", "reorganize")
                    .field("build_millis", db.cost.millis_of(io)),
            );
        }
        for col in dropped {
            colt_obs::decision(
                colt_obs::DecisionRecord::new(colt_obs::DecisionKind::IndexDrop)
                    .field("index", col.to_string())
                    .field("via", "reorganize"),
            );
        }
        colt_obs::decision(
            colt_obs::DecisionRecord::new(colt_obs::DecisionKind::BudgetChange)
                .field("whatif_used", self.profiler.whatif_used())
                .field("whatif_limit", self.profiler.whatif_limit())
                .field("next_budget", decision.next_budget)
                .field("ratio", decision.ratio)
                .field("net_benefit_m", decision.net_benefit_m)
                .field("net_benefit_m_prime", decision.net_benefit_m_prime),
        );
    }
}

/// Apply the Self-Organizer's decision at once: drop the requested
/// indices (metadata only), then build each requested one not already
/// materialized, returning the builds with their full cost and the
/// drops that took effect.
fn apply(
    db: &Database,
    config: &mut PhysicalConfig,
    to_create: &[ColRef],
    to_drop: &[ColRef],
) -> (Vec<(ColRef, IoStats)>, Vec<ColRef>) {
    let dropped = to_drop.iter().copied().filter(|&col| config.drop_index(col)).collect();
    let mut built = Vec::new();
    for &col in to_create {
        if !config.contains(col) {
            built.push((col, config.create_index(db, col)));
        }
    }
    (built, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::{Column, TableId, TableSchema};
    use colt_engine::{Collect, Executor, SelPred};
    use colt_storage::{row_from, Value, ValueType};

    fn setup() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableSchema::new(
            "t",
            vec![
                Column::new("id", ValueType::Int),
                Column::new("grp", ValueType::Int),
            ],
        ));
        db.insert_rows(t, (0..20_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 20)]))).unwrap();
        db.analyze_all();
        (db, t)
    }

    /// Run `n` identical selective queries through optimize → execute →
    /// tune, returning the tuner and final config.
    fn drive(db: &Database, q: &colt_engine::Query, n: usize) -> (ColtTuner, PhysicalConfig) {
        let mut physical = PhysicalConfig::new();
        let mut tuner = ColtTuner::new(ColtConfig {
            storage_budget_pages: 10_000,
            ..Default::default()
        });
        let mut eqo = Eqo::new(db);
        for _ in 0..n {
            let plan = eqo.optimize(q, &physical);
            let _res = Executor::new(db, &physical).execute(q, &plan, Collect::CountOnly);
            tuner.on_query(db, &mut physical, &mut eqo, q, &plan);
        }
        (tuner, physical)
    }

    #[test]
    fn tuner_materializes_beneficial_index_within_few_epochs() {
        let (db, t) = setup();
        let col = ColRef::new(t, 0);
        let q = colt_engine::Query::single(t, vec![SelPred::eq(col, 7i64)]);
        let (tuner, physical) = drive(&db, &q, 60);
        assert!(
            physical.contains(col),
            "after 6 epochs of identical selective queries the index must exist; trace: {:?}",
            tuner.trace()
        );
        assert_eq!(tuner.trace().epochs.len(), 6);
        assert!(tuner.trace().total_builds() >= 1);
    }

    #[test]
    fn tuner_hibernates_once_tuned() {
        let (db, t) = setup();
        let col = ColRef::new(t, 0);
        let q = colt_engine::Query::single(t, vec![SelPred::eq(col, 7i64)]);
        let (tuner, _) = drive(&db, &q, 150);
        let epochs = &tuner.trace().epochs;
        // The final epochs should run with (almost) no what-if budget.
        let tail_budget: u64 = epochs.iter().rev().take(3).map(|e| e.next_budget).sum();
        assert_eq!(tail_budget, 0, "stable+tuned → hibernation; trace: {:?}", tuner.trace());
        // And profiling must have happened at some point (the first
        // epoch has no hot set yet, so it starts in epoch 1).
        assert!(epochs.iter().any(|e| e.whatif_used > 0));
    }

    #[test]
    fn build_cost_charged_at_epoch_boundary() {
        let (db, t) = setup();
        let col = ColRef::new(t, 0);
        let q = colt_engine::Query::single(t, vec![SelPred::eq(col, 7i64)]);
        let mut physical = PhysicalConfig::new();
        let mut tuner = ColtTuner::new(ColtConfig {
            storage_budget_pages: 10_000,
            ..Default::default()
        });
        let mut eqo = Eqo::new(&db);
        let mut total_build = IoStats::new();
        for _ in 0..60 {
            let plan = eqo.optimize(&q, &physical);
            let step = tuner.on_query(&db, &mut physical, &mut eqo, &q, &plan);
            total_build.accumulate(&step.build_io);
        }
        assert!(total_build.pages_written > 0, "index build cost must be charged");
    }

    #[test]
    fn immediate_builds_and_drops() {
        let (db, t) = setup();
        let mut cfg = PhysicalConfig::new();
        let a = ColRef::new(t, 0);
        let (built, dropped) = apply(&db, &mut cfg, &[a], &[]);
        assert_eq!(built.len(), 1);
        assert!(dropped.is_empty());
        assert!(cfg.contains(a));
        assert!(built[0].1.pages_written > 0);

        let (built, dropped) = apply(&db, &mut cfg, &[], &[a]);
        assert!(built.is_empty());
        assert_eq!(dropped, vec![a]);
        assert!(!cfg.contains(a));
    }

    #[test]
    fn duplicate_create_is_noop() {
        let (db, t) = setup();
        let mut cfg = PhysicalConfig::new();
        let a = ColRef::new(t, 0);
        apply(&db, &mut cfg, &[a], &[]);
        let v = cfg.table_version(t);
        let (built, _) = apply(&db, &mut cfg, &[a], &[]);
        assert!(built.is_empty());
        assert_eq!(cfg.table_version(t), v, "no version churn from no-ops");
    }

    #[test]
    fn no_tuning_for_empty_epochs() {
        let (db, t) = setup();
        // Queries with no selections: no candidates, nothing to do.
        let q = colt_engine::Query::single(t, vec![]);
        let (tuner, physical) = drive(&db, &q, 40);
        assert!(physical.is_empty());
        assert_eq!(tuner.trace().total_builds(), 0);
        for e in &tuner.trace().epochs {
            assert_eq!(e.whatif_used, 0);
        }
    }
}
