//! The measured loop and its correctness oracles.
//!
//! [`run_round`] re-implements `colt_harness::Experiment`'s COLT run
//! from outside — `Eqo::optimize` → `Executor::execute` →
//! `ColtTuner::on_query`, one client, one thread — so that every layer
//! boundary is a call the benchmark itself makes and can time.

use crate::spans::{Tracer, NONE};
use colt_catalog::{ColRef, Database, PhysicalConfig};
use colt_core::{ColtConfig, ColtTuner};
use colt_engine::{
    AccessPath, Collect, Eqo, ExecError, Executor, PlanNode, Query, RowwiseExecutor,
};
use colt_harness::{Experiment, Policy, WHATIF_COST_UNITS};
use colt_workload::Preset;
use std::collections::BTreeMap;
use std::time::Instant;

/// What a run must reproduce bit for bit, round after round, and share
/// with `Experiment::run` on the same stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    /// Σ execution + tuning milliseconds on the simulated clock, charged
    /// exactly as the harness does: the paper's result.
    pub sim_total_ms: f64,
    pub whatif_calls: u64,
    pub builds: u64,
    pub final_indices: Vec<ColRef>,
}

/// What `on_query` did for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Profiling only.
    Profile,
    /// Closed an epoch (reorganization) without building anything.
    EpochClose,
    /// Closed an epoch and built at least one index.
    Build,
}

/// The root operator of a query's plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    SeqScan,
    IndexScan,
    HashJoin,
    IndexNlJoin,
}

fn plan_kind(root: &PlanNode) -> PlanKind {
    match root {
        PlanNode::Scan {
            path: AccessPath::SeqScan,
            ..
        } => PlanKind::SeqScan,
        PlanNode::Scan { .. } => PlanKind::IndexScan,
        PlanNode::HashJoin { .. } => PlanKind::HashJoin,
        PlanNode::IndexNlJoin { .. } => PlanKind::IndexNlJoin,
    }
}

/// One query of one round, as seen from outside the program.
#[derive(Debug, Clone, Copy)]
pub struct QueryObs {
    pub optimize_ns: u64,
    pub execute_ns: u64,
    pub tune_ns: u64,
    pub step: Step,
    pub plan: PlanKind,
    pub rows: u64,
    /// Tuples and pages the executor charged (exact).
    pub tuples: u64,
    pub pages: u64,
}

impl QueryObs {
    /// The latency a client of the loop sees for this query.
    pub fn latency_ns(&self) -> u64 {
        self.optimize_ns + self.execute_ns + self.tune_ns
    }
}

/// Exact work counts of one round, beyond [`Exact`].
#[derive(Debug, Clone, PartialEq)]
pub struct Work {
    pub epochs: u64,
    pub drops: u64,
    pub whatif_skipped: u64,
    /// `Eqo`'s own probe count (includes the trailing partial epoch).
    pub eqo_whatif_calls: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    /// Highest `online_pages ÷ budget` seen at an epoch boundary.
    pub budget_peak_ratio: f64,
    /// Bytes of the indices materialized when the round ended.
    pub index_bytes: u64,
    /// Every column an index was built on, in build order.
    pub created: Vec<ColRef>,
}

/// One pass of a query stream through the loop, from fresh tuner state.
#[derive(Debug, Clone)]
pub struct Round {
    pub wall_ns: u64,
    pub queries: Vec<QueryObs>,
    pub exact: Exact,
    pub work: Work,
}

/// The tuner configuration of every round: defaults, with the stream's
/// storage budget.
pub fn colt_config(stream: &Preset) -> ColtConfig {
    ColtConfig {
        storage_budget_pages: stream.budget_pages,
        ..Default::default()
    }
}

/// Run `stream` once through the loop. With a tracer, a span is
/// recorded at every layer boundary from the timestamps the loop takes
/// anyway.
pub fn run_round(
    db: &Database,
    stream: &Preset,
    round_id: u32,
    mut tracer: Option<&mut Tracer>,
) -> Result<Round, ExecError> {
    let mut queries = Vec::with_capacity(stream.queries.len());
    let mut created = Vec::new();
    let mut drops = 0;
    let mut budget_peak_ratio = 0.0f64;
    let mut sim_total_ms = 0.0;
    let mut whatif_before = 0;

    let start = Instant::now();
    let mut physical = PhysicalConfig::new();
    let mut tuner = ColtTuner::new(colt_config(stream));
    let mut eqo = Eqo::new(db);
    let round_span = tracer
        .as_mut()
        .map(|t| t.open("round", start, None, round_id, NONE));

    for (i, q) in stream.queries.iter().enumerate() {
        let t0 = Instant::now();
        let plan = eqo.optimize(q, &physical);
        let t1 = Instant::now();
        let out = Executor::new(db, &physical).execute(q, &plan, Collect::CountOnly)?;
        let t2 = Instant::now();
        let step = tuner.on_query(db, &mut physical, &mut eqo, q, &plan);
        let t3 = Instant::now();

        if let Some(t) = tracer.as_mut() {
            let query_span = t.open("query", t0, round_span, round_id, i as u32);
            t.record("optimize", t0, t1, Some(query_span), round_id, i as u32);
            t.record("execute", t1, t2, Some(query_span), round_id, i as u32);
            t.record("tune", t2, t3, Some(query_span), round_id, i as u32);
            t.close(query_span, t3);
        }

        // The simulated clock, charged exactly as `Experiment` does.
        let whatif_now = eqo.counters().whatif_calls;
        let whatif_ms =
            (whatif_now - whatif_before) as f64 * WHATIF_COST_UNITS * db.cost.ms_per_cost_unit;
        whatif_before = whatif_now;
        sim_total_ms += out.millis() + (whatif_ms + db.cost.millis_of(&step.build_io));

        if step.epoch_closed {
            let used = physical.online_pages() as f64 / stream.budget_pages.max(1) as f64;
            budget_peak_ratio = budget_peak_ratio.max(used);
        }
        drops += step.dropped.len() as u64;
        queries.push(QueryObs {
            optimize_ns: (t1 - t0).as_nanos() as u64,
            execute_ns: (t2 - t1).as_nanos() as u64,
            tune_ns: (t3 - t2).as_nanos() as u64,
            step: match (step.epoch_closed, step.created.is_empty()) {
                (_, false) => Step::Build,
                (true, true) => Step::EpochClose,
                (false, true) => Step::Profile,
            },
            plan: plan_kind(&plan.root),
            rows: out.row_count(),
            tuples: out.io().tuples,
            pages: out.io().total_pages(),
        });
        created.extend(step.created);
    }
    let end = Instant::now();
    if let (Some(t), Some(id)) = (tracer, round_span) {
        t.close(id, end);
    }

    let counters = eqo.counters();
    let trace = tuner.trace();
    Ok(Round {
        wall_ns: (end - start).as_nanos() as u64,
        queries,
        exact: Exact {
            sim_total_ms,
            whatif_calls: trace.total_whatif(),
            builds: trace.total_builds() as u64,
            final_indices: physical.online_columns().collect(),
        },
        work: Work {
            epochs: tuner.epoch(),
            drops,
            whatif_skipped: trace.epochs.iter().map(|e| e.whatif_skipped).sum(),
            eqo_whatif_calls: counters.whatif_calls,
            memo_hits: counters.memo_hits,
            memo_misses: counters.memo_misses,
            budget_peak_ratio,
            index_bytes: physical
                .columns()
                .filter_map(|c| physical.get(c))
                .map(|m| m.tree.byte_size() as u64)
                .sum(),
            created,
        },
    })
}

/// What `Experiment::run` reports for the stream under the same tuner
/// configuration. The benchmark runs under `COLT_OBS=off`, so the run
/// records nothing.
pub fn experiment_oracle(db: &Database, stream: &Preset) -> Result<Exact, ExecError> {
    let run = Experiment::new(db, &stream.queries)
        .policy(Policy::colt(colt_config(stream)))
        .run()?;
    Ok(Exact {
        sim_total_ms: run.total_millis(),
        whatif_calls: run.trace.total_whatif(),
        builds: run.trace.total_builds() as u64,
        final_indices: run.final_indices,
    })
}

/// Row counts every round must reproduce: each statement under an empty
/// physical configuration on the vectorized executor (a statement that
/// repeats is run once). Every fifth query is also run on the
/// row-at-a-time reference executor; the second value counts the
/// queries on which the two disagree.
pub fn reference_rows(db: &Database, queries: &[Query]) -> Result<(Vec<u64>, u64), ExecError> {
    let empty = PhysicalConfig::new();
    let mut eqo = Eqo::new(db);
    let mut seen: BTreeMap<&Query, u64> = BTreeMap::new();
    let mut disagreements = 0;
    let mut rows = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let plan = eqo.optimize(q, &empty);
        let count = match seen.get(q) {
            Some(&count) => count,
            None => Executor::new(db, &empty)
                .execute(q, &plan, Collect::CountOnly)?
                .row_count(),
        };
        seen.insert(q, count);
        if i % 5 == 0 {
            let rowwise = RowwiseExecutor::new(db, &empty).execute(q, &plan, Collect::CountOnly)?;
            disagreements += u64::from(rowwise.row_count() != count);
        }
        rows.push(count);
    }
    Ok((rows, disagreements))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans;
    use crate::workloads::Workload;

    #[test]
    fn the_loop_matches_experiment_run_and_the_reference_rows() {
        let data = colt_workload::generate(0.004, 11);
        for name in ["shifting", "joins"] {
            let stream = Workload::by_name(name).expect("known").stream(&data, 5, 0);
            let mut tracer = Tracer::new();
            let traced = run_round(&data.db, &stream, 0, Some(&mut tracer)).expect("round");
            let plain = run_round(&data.db, &stream, 1, None).expect("round");
            let oracle = experiment_oracle(&data.db, &stream).expect("oracle");
            assert_eq!(traced.exact, oracle, "{name}");
            assert_eq!(plain.exact, oracle, "{name}");
            assert_eq!(plain.work, traced.work, "{name}");

            let (rows, disagreements) = reference_rows(&data.db, &stream.queries).expect("rows");
            assert_eq!(disagreements, 0);
            assert_eq!(
                plain.queries.iter().map(|q| q.rows).collect::<Vec<_>>(),
                rows
            );

            // round + one query span with three children per query.
            assert_eq!(tracer.spans.len(), 1 + 4 * stream.queries.len());
            let own = spans::self_times(&tracer.spans);
            assert_eq!(own.iter().sum::<u64>(), tracer.spans[0].dur_ns());
        }
    }
}
