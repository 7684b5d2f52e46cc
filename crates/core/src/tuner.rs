//! The COLT tuner: orchestration of profiling epochs, reorganization,
//! and scheduling (the outer loop of the architecture in Figure 1).
//!
//! Drive it by calling [`ColtTuner::on_query`] once per executed query,
//! passing the query's optimized plan. The tuner profiles the query; at
//! every `w`-th query it closes the epoch: the Self-Organizer picks the
//! new materialized and hot sets and the next what-if budget, and the
//! Scheduler applies the physical changes. The returned [`TunerStep`]
//! carries the build cost so the driver can charge it to the simulated
//! clock, as the paper's measurements do.

use crate::composite_ext::CompositeTuner;
use crate::config::ColtConfig;
use crate::organizer::{ReorgDecision, SelfOrganizer};
use crate::profiler::Profiler;
use crate::scheduler::{AppliedChanges, MaterializationStrategy, Scheduler};
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
    scheduler: Scheduler,
    composites: CompositeTuner,
    hot: BTreeSet<ColRef>,
    queries_in_epoch: usize,
    epoch: u64,
    trace: Trace,
}

impl ColtTuner {
    /// Create a tuner with the given configuration (validated) and the
    /// paper's immediate materialization strategy.
    pub fn new(config: ColtConfig) -> Self {
        Self::with_strategy(config, MaterializationStrategy::Immediate)
    }

    /// Create a tuner with an explicit materialization strategy.
    pub fn with_strategy(config: ColtConfig, strategy: MaterializationStrategy) -> Self {
        #[expect(clippy::expect_used, reason = "an invalid config is a startup programming error")]
        config.validate().expect("invalid COLT configuration");
        ColtTuner {
            profiler: Profiler::new(&config),
            organizer: SelfOrganizer::new(&config),
            scheduler: Scheduler::new(strategy),
            composites: CompositeTuner::new(&config),
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
        self.composites.observe(query, plan);

        // Piggybacking: a pending build, if any, rides on this query's scans.
        let piggy = if self.scheduler.pending().next().is_some() {
            self.scheduler.on_seq_scan(db, physical, &plan.seq_scanned_tables())
        } else {
            AppliedChanges::default()
        };

        self.queries_in_epoch += 1;
        let mut step = if self.queries_in_epoch < self.config.epoch_length {
            TunerStep::default()
        } else {
            self.queries_in_epoch = 0;
            self.close_epoch(db, physical)
        };
        if !piggy.built.is_empty() {
            if colt_obs::is_enabled() {
                for (col, io) in &piggy.built {
                    colt_obs::decision(
                        colt_obs::DecisionRecord::new(colt_obs::DecisionKind::IndexCreate)
                            .field("index", col.to_string())
                            .field("via", "piggyback")
                            .field("build_millis", db.cost.millis_of(io)),
                    );
                }
            }
            step.build_io.accumulate(&piggy.total_build_io());
            step.created.extend(piggy.built.iter().map(|(c, _)| *c));
        }
        step
    }

    fn close_epoch(&mut self, db: &Database, physical: &mut PhysicalConfig) -> TunerStep {
        let _span = colt_obs::span("tuner.epoch");
        let whatif_used = self.profiler.whatif_used();
        let whatif_limit = self.profiler.whatif_limit();

        let decision = self.organizer.reorganize(db, physical, &self.profiler, &self.hot);
        let changes =
            self.scheduler.submit(db, physical, &decision.to_create, &decision.to_drop);
        let mut build_io = changes.total_build_io();

        // The opt-in multi-column extension maintains its own set within
        // its own budget; its builds are charged like any others.
        let comp = self.composites.reorganize(db, physical);
        for (_, io) in &comp.built {
            build_io.accumulate(io);
        }

        let build_millis = db.cost.millis_of(&build_io);
        if colt_obs::is_enabled() {
            self.report_epoch(db, &changes, &decision);
        }

        self.trace.push(EpochRecord {
            epoch: self.epoch,
            whatif_used,
            whatif_limit,
            whatif_skipped: 0,
            next_budget: decision.next_budget,
            ratio: decision.ratio,
            created: changes.built.iter().map(|(c, _)| *c).collect(),
            dropped: changes.dropped.clone(),
            build_millis,
        });

        self.hot = decision.new_hot;
        self.profiler.end_epoch(decision.next_budget);
        // Close the epoch in the flight recorder too: the time series
        // takes this epoch's metric deltas, and later decision records
        // (piggyback builds, next epoch's probes) stamp epoch + 1 —
        // matching the `self.epoch` increment below.
        colt_obs::epoch_mark(self.epoch);
        self.epoch += 1;

        TunerStep {
            build_io,
            epoch_closed: true,
            created: changes.built.iter().map(|(c, _)| *c).collect(),
            dropped: changes.dropped,
        }
    }

    /// The closed epoch as ledger records: a formatted column name per
    /// field, built only when a recorder is installed to keep them.
    fn report_epoch(&self, db: &Database, changes: &AppliedChanges, decision: &ReorgDecision) {
        for (col, io) in &changes.built {
            colt_obs::decision(
                colt_obs::DecisionRecord::new(colt_obs::DecisionKind::IndexCreate)
                    .field("index", col.to_string())
                    .field("via", "reorganize")
                    .field("build_millis", db.cost.millis_of(io)),
            );
        }
        for col in &changes.dropped {
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
    fn piggyback_strategy_builds_on_scans() {
        let (db, t) = setup();
        let col = ColRef::new(t, 0);
        let q = colt_engine::Query::single(t, vec![SelPred::eq(col, 7i64)]);
        let mut physical = PhysicalConfig::new();
        let mut tuner = ColtTuner::with_strategy(
            ColtConfig { storage_budget_pages: 10_000, ..Default::default() },
            MaterializationStrategy::Piggyback,
        );
        let mut eqo = Eqo::new(&db);
        let mut piggybacked = Vec::new();
        for _ in 0..80 {
            let plan = eqo.optimize(&q, &physical);
            let step = tuner.on_query(&db, &mut physical, &mut eqo, &q, &plan);
            for (i, c) in step.created.iter().enumerate() {
                // Piggybacked builds charge no sequential heap pages.
                if *c == col {
                    piggybacked.push(step.build_io.seq_pages == 0 || i > 0);
                }
            }
        }
        assert!(physical.contains(col), "index must eventually materialize via piggyback");
        // The queries seq-scan `t` while the index is pending, so the
        // build must have ridden on one of them.
        assert!(!piggybacked.is_empty());
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
