//! Experiment runner: drives a query stream through the engine under a
//! tuning policy and records per-query simulated times.
//!
//! The entry point is [`Experiment`]: pick a [`Policy`], then
//! [`Experiment::run`]. The accounting follows the paper's methodology
//! (§6.1):
//!
//! * **OFFLINE** — indices are selected and materialized before the run
//!   and none of that work is charged; per-query time is pure execution.
//! * **COLT** — the run starts with an empty on-line index set and every
//!   cost of tuning is charged to the stream: what-if optimizer calls
//!   (a constant optimizer charge per probe)
//!   and index materialization (full build I/O, charged at the epoch
//!   boundary where the build happens — the paper's "index creation
//!   contributes significantly to the execution time during this
//!   period").
//! * **NONE** — no tuning at all; the pre-tuned baseline.
//!
//! A run opens one `harness.run` span and, per tuned query, one
//! `harness.tune` span. Optimizing and executing a query are timed by
//! the engine's own `engine.optimize` and `engine.execute` spans, so the
//! loop wraps no engine call in a second span of its own.

use colt_catalog::{ColRef, Database, PhysicalConfig};
use colt_obs::json::Json;
use colt_core::{ColtConfig, ColtTuner, Trace};
use colt_engine::{Collect, Eqo, ExecError, Executor, Query};
use colt_offline::OfflineSelection;

/// Optimizer charge per what-if probe, in cost units. The prototype's
/// what-if optimizer reuses intermediate solutions of the initial
/// optimization, so a probe is far cheaper than a query; five cost
/// units ≈ reading five sequential pages.
pub const WHATIF_COST_UNITS: f64 = 5.0;

/// The tuning policy of one run.
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// No tuning at all; the pre-tuned baseline.
    None,
    /// The idealized OFFLINE baseline: the optimal index set for the
    /// analyzed workload is materialized for free before the stream
    /// starts.
    Offline {
        /// Storage budget `B` in pages for the offline selection.
        budget_pages: u64,
    },
    /// COLT, building the indices it selects at once (the paper's
    /// immediate materialization).
    Colt(ColtConfig),
}

impl Policy {
    /// COLT with the given configuration.
    pub fn colt(config: ColtConfig) -> Policy {
        Policy::Colt(config)
    }

    /// The policy's display label ("NONE", "OFFLINE", "COLT").
    pub fn label(&self) -> &'static str {
        match self {
            Policy::None => "NONE",
            Policy::Offline { .. } => "OFFLINE",
            Policy::Colt(_) => "COLT",
        }
    }
}

/// Per-query outcome of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySample {
    /// Pure execution time (simulated ms).
    pub exec_millis: f64,
    /// Tuning overhead charged to this query (what-if + builds), ms.
    pub tuning_millis: f64,
    /// Result cardinality (sanity checking).
    pub rows: u64,
}

impl QuerySample {
    /// Total charged time.
    pub fn total_millis(&self) -> f64 {
        self.exec_millis + self.tuning_millis
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The policy that produced the run.
    pub policy: Policy,
    /// Per-query samples, in stream order.
    pub samples: Vec<QuerySample>,
    /// COLT's epoch trace (empty for other policies).
    pub trace: Trace,
    /// Indices materialized when the run ended.
    pub final_indices: Vec<ColRef>,
    /// OFFLINE's selection, when applicable.
    pub offline: Option<OfflineSelection>,
    /// Number of relevant (restricted) columns that received accurate
    /// (what-if) profiling — COLT only.
    pub profiled_indices: usize,
    /// Metrics recorded during the run (empty under `COLT_OBS=off`).
    /// Deliberately *not* part of [`RunResult::summary_json`]: the
    /// summary is a deterministic artifact, while the snapshot carries
    /// wall-clock timings that vary run to run.
    pub obs: colt_obs::Snapshot,
}

impl RunResult {
    /// Total charged time of the run in simulated ms.
    pub fn total_millis(&self) -> f64 {
        self.samples.iter().map(|s| s.total_millis()).sum()
    }

    /// Total time over a sub-range of the stream.
    pub fn range_millis(&self, range: impl std::ops::RangeBounds<usize>) -> f64 {
        let bounds = (range.start_bound().cloned(), range.end_bound().cloned());
        self.samples[bounds].iter().map(|s| s.total_millis()).sum()
    }

    /// Sum charged time per consecutive bucket of `size` queries — the
    /// bars of Figures 3 and 4.
    pub fn bucket_millis(&self, size: usize) -> Vec<f64> {
        self.samples.chunks(size).map(|c| c.iter().map(|s| s.total_millis()).sum()).collect()
    }

    /// Serialize a run summary (policy, totals, per-epoch what-if
    /// series, final indices) as pretty JSON — the EXPERIMENTS.md
    /// artifact format. The writer is deterministic: equal results
    /// render to identical bytes no matter which thread produced them.
    pub fn summary_json(&self) -> String {
        let colref = |c: &ColRef| {
            Json::obj(vec![
                ("table", Json::UInt(c.table.0 as u64)),
                ("column", Json::UInt(c.column as u64)),
            ])
        };
        Json::obj(vec![
            ("policy", Json::Str(self.policy.label().to_string())),
            ("queries", Json::UInt(self.samples.len() as u64)),
            ("total_millis", Json::Float(self.total_millis())),
            ("exec_millis", Json::Float(self.samples.iter().map(|s| s.exec_millis).sum::<f64>())),
            (
                "tuning_millis",
                Json::Float(self.samples.iter().map(|s| s.tuning_millis).sum::<f64>()),
            ),
            (
                "whatif_per_epoch",
                Json::Arr(self.trace.whatif_per_epoch().into_iter().map(Json::UInt).collect()),
            ),
            ("total_builds", Json::UInt(self.trace.total_builds() as u64)),
            ("final_indices", Json::Arr(self.final_indices.iter().map(colref).collect())),
            ("profiled_indices", Json::UInt(self.profiled_indices as u64)),
        ])
        .pretty()
    }
}

/// One experiment: a database, a query stream, and a policy.
///
/// The builder borrows the database and workload read-only, so many
/// experiments over the same data can run concurrently (see
/// [`crate::parallel`]); all mutable state (physical configuration,
/// tuner, optimizer) is created inside [`Experiment::run`] and
/// owned by the run.
///
/// ```no_run
/// use colt_harness::{Experiment, Policy};
/// # let db = colt_catalog::Database::new();
/// # let workload: Vec<colt_engine::Query> = Vec::new();
/// let colt = Experiment::new(&db, &workload)
///     .policy(Policy::colt(colt_core::ColtConfig::default()))
///     .run()
///     .expect("plans match their queries");
/// println!("{}", colt.summary_json());
/// ```
#[derive(Debug, Clone)]
pub struct Experiment<'a> {
    db: &'a Database,
    workload: &'a [Query],
    pub(crate) policy: Policy,
    analyzed: Option<&'a [Query]>,
}

impl<'a> Experiment<'a> {
    /// An experiment over `workload`; the default policy is
    /// [`Policy::None`].
    pub fn new(db: &'a Database, workload: &'a [Query]) -> Self {
        Experiment { db, workload, policy: Policy::None, analyzed: None }
    }

    /// Select the tuning policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// For [`Policy::Offline`]: the queries handed to the offline
    /// advisor (defaults to the whole workload; the noise experiment
    /// passes only the base distribution's queries).
    pub fn analyzed(mut self, analyzed: &'a [Query]) -> Self {
        self.analyzed = Some(analyzed);
        self
    }

    /// Execute the run and collect per-query samples.
    ///
    /// A fresh [`colt_obs::Recorder`] is installed on this thread for
    /// the duration of the run and its snapshot lands in
    /// [`RunResult::obs`]. The recorder's level is inherited from the
    /// recorder already installed on the thread when there is one
    /// (callers — and tests — can thereby force a level), else taken
    /// from `COLT_OBS`; the previous recorder is restored afterwards.
    ///
    /// Fails only when a plan contradicts its query (see
    /// [`colt_engine::ExecError`]) — impossible for plans the run's own
    /// optimizer produced.
    pub fn run(&self) -> Result<RunResult, ExecError> {
        let prev = colt_obs::install(colt_obs::Recorder::new(colt_obs::sink_level()));
        let result = {
            let _span = colt_obs::span("harness.run");
            match &self.policy {
                Policy::None => self.run_stream(PhysicalConfig::new(), None, None),
                Policy::Offline { budget_pages } => {
                    let analyzed = self.analyzed.unwrap_or(self.workload);
                    let selection = colt_offline::select(self.db, analyzed, *budget_pages);
                    let config = colt_offline::materialize(self.db, &selection);
                    self.run_stream(config, None, Some(selection))
                }
                Policy::Colt(config) => {
                    self.run_stream(PhysicalConfig::new(), Some(ColtTuner::new(config.clone())), None)
                }
            }
        };
        // Restore the previous recorder even on the error path, so a
        // failed run cannot leave a stale recorder installed.
        let snapshot = colt_obs::take().map(colt_obs::Recorder::into_snapshot).unwrap_or_default();
        if let Some(p) = prev {
            colt_obs::install(p);
        }
        let mut result = result?;
        result.obs = snapshot;
        Ok(result)
    }

    /// Run the stream from `physical`: optimize and execute every query
    /// and, with a `tuner`, let it tune after each one, charging every
    /// cost of tuning to the stream. Each probe costs
    /// [`WHATIF_COST_UNITS`], and each build is charged in full to the
    /// query that closed the epoch that made it (the paper's
    /// accounting). Without a tuner nothing but execution is charged.
    fn run_stream(
        &self,
        mut physical: PhysicalConfig,
        mut tuner: Option<ColtTuner>,
        offline: Option<OfflineSelection>,
    ) -> Result<RunResult, ExecError> {
        let db = self.db;
        let mut eqo = Eqo::new(db);
        let mut samples = Vec::with_capacity(self.workload.len());
        let mut whatif_before = 0u64;

        for q in self.workload {
            let plan = eqo.optimize(q, &physical);
            let res = Executor::new(db, &physical).execute(q, &plan, Collect::CountOnly)?.result;

            let mut tuning_millis = 0.0;
            if let Some(tuner) = &mut tuner {
                let tune = colt_obs::span("harness.tune");
                let step = tuner.on_query(db, &mut physical, &mut eqo, q, &plan);
                let whatif_now = eqo.counters().whatif_calls;
                let whatif_cost =
                    (whatif_now - whatif_before) as f64 * WHATIF_COST_UNITS * db.cost.ms_per_cost_unit;
                whatif_before = whatif_now;
                tuning_millis = whatif_cost + db.cost.millis_of(&step.build_io);
                tune.sim_ms(tuning_millis);
            }
            samples.push(QuerySample { exec_millis: res.millis, tuning_millis, rows: res.row_count });
        }

        // Flush the trailing partial epoch (an untuned run closes none;
        // a tuned one has the queries after the last boundary, plus the
        // boundary query's tune charge, which lands after the tuner's own
        // mark) into the flight recorder.
        colt_obs::epoch_mark(tuner.as_ref().map_or(0, ColtTuner::epoch));

        Ok(RunResult {
            policy: self.policy.clone(),
            samples,
            trace: tuner.as_ref().map_or_else(Trace::new, |t| t.trace().clone()),
            final_indices: physical.columns().collect(),
            offline,
            profiled_indices: tuner.as_ref().map_or(0, |t| t.profiler().profiled_index_count()),
            obs: colt_obs::Snapshot::default(),
        })
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
            vec![Column::new("id", ValueType::Int), Column::new("g", ValueType::Int)],
        ));
        db.insert_rows(t, (0..20_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 20)]))).unwrap();
        db.analyze_all();
        (db, t)
    }

    fn selective_stream(t: TableId, n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| Query::single(t, vec![SelPred::eq(ColRef::new(t, 0), (i * 13 % 20_000) as i64)]))
            .collect()
    }

    fn run_colt_budget(db: &Database, w: &[Query], budget: u64) -> RunResult {
        Experiment::new(db, w)
            .policy(Policy::colt(ColtConfig { storage_budget_pages: budget, ..Default::default() }))
            .run()
            .unwrap()
    }

    #[test]
    fn none_vs_offline_vs_colt_ordering() {
        let (db, t) = setup();
        let w = selective_stream(t, 200);
        let budget = db.index_estimate(ColRef::new(t, 0)).pages + 10;

        let none = Experiment::new(&db, &w).run().unwrap();
        let offline =
            Experiment::new(&db, &w).policy(Policy::Offline { budget_pages: budget }).run().unwrap();
        let colt = run_colt_budget(&db, &w, budget);

        assert_eq!(none.policy, Policy::None);
        assert_eq!(offline.policy.label(), "OFFLINE");
        assert_eq!(colt.policy.label(), "COLT");

        // OFFLINE (free index from query 0) must beat NONE decisively.
        assert!(offline.total_millis() < none.total_millis() * 0.2);
        // COLT converges: it must land between OFFLINE and NONE and well
        // below NONE.
        assert!(colt.total_millis() < none.total_millis() * 0.7,
            "colt {} vs none {}", colt.total_millis(), none.total_millis());
        assert!(colt.total_millis() >= offline.total_millis());
        // After convergence, COLT's tail matches OFFLINE closely.
        let tail = 150..200;
        let colt_tail = colt.range_millis(tail.clone());
        let off_tail = offline.range_millis(tail);
        assert!(
            (colt_tail - off_tail).abs() / off_tail < 0.1,
            "tail: colt {colt_tail} vs offline {off_tail}"
        );
        assert_eq!(colt.final_indices, vec![ColRef::new(t, 0)]);
    }

    #[test]
    fn colt_charges_tuning_overhead() {
        let (db, t) = setup();
        let w = selective_stream(t, 100);
        let colt = run_colt_budget(&db, &w, 100_000);
        let tuning: f64 = colt.samples.iter().map(|s| s.tuning_millis).sum();
        assert!(tuning > 0.0, "what-if and build overhead must be charged");
        assert!(colt.trace.total_whatif() > 0);
        assert!(colt.profiled_indices >= 1);
    }

    #[test]
    fn bucket_sums_cover_everything() {
        let (db, t) = setup();
        let w = selective_stream(t, 100);
        let none = Experiment::new(&db, &w).run().unwrap();
        let buckets = none.bucket_millis(30);
        assert_eq!(buckets.len(), 4); // 30+30+30+10
        let sum: f64 = buckets.iter().sum();
        assert!((sum - none.total_millis()).abs() < 1e-6);
    }

    #[test]
    fn summary_json_round_trips() {
        let (db, t) = setup();
        let w = selective_stream(t, 60);
        let colt = run_colt_budget(&db, &w, 100_000);
        let json = colt.summary_json();
        let v = colt_obs::json::parse(&json).unwrap();
        assert_eq!(v.get("policy").and_then(Json::as_str), Some("COLT"));
        assert_eq!(v.get("queries").and_then(Json::as_u64), Some(60));
        assert!(v.get("total_millis").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(v.get("whatif_per_epoch").is_some_and(Json::is_array));
    }

    #[test]
    fn results_identical_rows_across_policies() {
        let (db, t) = setup();
        let w = selective_stream(t, 60);
        let budget = 100_000;
        let none = Experiment::new(&db, &w).run().unwrap();
        let offline =
            Experiment::new(&db, &w).policy(Policy::Offline { budget_pages: budget }).run().unwrap();
        let colt = run_colt_budget(&db, &w, budget);
        for i in 0..w.len() {
            assert_eq!(none.samples[i].rows, offline.samples[i].rows, "query {i}");
            assert_eq!(none.samples[i].rows, colt.samples[i].rows, "query {i}");
        }
    }
}
