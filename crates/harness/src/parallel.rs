//! Parallel experiment harness: fan independent run cells (policy arms ×
//! seeds × workload presets) across a scoped thread pool.
//!
//! A [`Cell`] is one self-contained experiment — it borrows the
//! [`Database`] and query stream read-only and owns every piece of
//! mutable state ([`Experiment::run`] creates the physical
//! configuration, tuner, optimizer, and PRNG internally). Because
//! the engine has no interior mutability anywhere (`unsafe` is denied
//! workspace-wide), cells are embarrassingly parallel and their results
//! are **bit-identical to serial runs**: the per-query
//! [`crate::QuerySample`] streams and the [`RunResult::summary_json`]
//! bytes do not depend on thread count or scheduling.
//!
//! Scheduling is [`parallel_map`], the harness's one thread pool: a
//! work-stealing claim counter, so long cells (COLT arms) do not
//! serialize behind short ones (NONE baselines). Results are keyed by
//! cell index, so output order is deterministic too.
//!
//! Thread-safety contract: the `Database` is shared read-only across
//! cells; anything mutable is created inside the cell that uses it.
//! Progress lines go to **stderr** only, keeping stdout byte-identical
//! across thread counts.

use crate::runner::{Experiment, Policy, RunResult};
use colt_catalog::Database;
use colt_engine::{ExecError, Query};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One independent run cell: a labelled [`Experiment`].
#[derive(Debug, Clone)]
pub struct Cell<'a> {
    /// Display label, e.g. `"COLT seed=42"`.
    pub label: String,
    /// The experiment the cell runs.
    experiment: Experiment<'a>,
}

impl<'a> Cell<'a> {
    /// A cell over `workload` under `policy`.
    pub fn new(
        label: impl Into<String>,
        db: &'a Database,
        workload: &'a [Query],
        policy: Policy,
    ) -> Self {
        Cell { label: label.into(), experiment: Experiment::new(db, workload).policy(policy) }
    }

    /// Set the advisor's analyzed workload (OFFLINE cells).
    pub fn analyzed(mut self, analyzed: &'a [Query]) -> Self {
        self.experiment = self.experiment.analyzed(analyzed);
        self
    }

    /// Run the cell serially in the current thread.
    pub fn run(&self) -> Result<RunResult, ExecError> {
        self.experiment.run()
    }
}

/// One finished cell: its label and run result. Its wall time is the
/// `harness.run` frame of the result's snapshot.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell's label.
    pub label: String,
    /// The run's outcome (identical to a serial run of the same cell).
    pub result: RunResult,
}

/// The outcome of a [`run_cells`] batch.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Finished cells, in the order the cells were submitted.
    pub cells: Vec<CellResult>,
    /// Wall-clock milliseconds for the whole batch.
    pub wall_millis: f64,
    /// Worker threads used.
    pub threads: usize,
}

impl ParallelReport {
    /// Look a finished cell up by label.
    pub fn get(&self, label: &str) -> Option<&RunResult> {
        self.cells.iter().find(|c| c.label == label).map(|c| &c.result)
    }

    /// The batch's merged metrics: every cell's [`RunResult::obs`]
    /// snapshot folded together in submission order. Each cell recorded
    /// into its own thread-local recorder during the run, so this
    /// aggregation is lock-free — it happens strictly after the worker
    /// threads have joined.
    pub fn obs(&self) -> colt_obs::Snapshot {
        let mut merged = colt_obs::Snapshot::default();
        for cell in &self.cells {
            merged.merge(&cell.result.obs);
        }
        merged
    }
}

/// Run every cell and collect results in submission order.
///
/// `threads <= 1` runs inline in the calling thread (no pool); more
/// threads fan the cells over [`parallel_map`]'s pool. Either way the
/// results — including every per-query sample and the `summary_json`
/// bytes — are identical.
pub fn run_cells(cells: &[Cell<'_>], threads: usize) -> Result<ParallelReport, ExecError> {
    #[expect(clippy::disallowed_methods, reason = "batch wall time is reported, never a result")]
    let start = Instant::now();
    let n = cells.len();
    let workers = threads.clamp(1, n.max(1));
    let results = parallel_map(cells, workers, |i, cell| run_cell(cell, i, n));
    Ok(ParallelReport {
        cells: results.into_iter().collect::<Result<_, _>>()?,
        wall_millis: start.elapsed().as_secs_f64() * 1e3,
        threads: workers,
    })
}

/// `f` of each item and its index, in item order: the harness's one
/// thread pool. `threads <= 1` maps inline in the calling thread; more
/// threads (at most one per item) share a work-stealing claim counter —
/// each worker claims the next unstarted index until none is left — so
/// long items do not serialize behind short ones.
pub fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(i, item)));
                    }
                    local
                })
            })
            .collect();
        #[expect(clippy::expect_used, reason = "propagates a worker's panic to the caller")]
        handles.into_iter().flat_map(|h| h.join().expect("worker thread panicked")).collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

fn run_cell(cell: &Cell<'_>, index: usize, total: usize) -> Result<CellResult, ExecError> {
    // Progress goes through the event sink (stderr only), so stdout
    // stays byte-identical across thread counts and COLT_OBS levels.
    colt_obs::progress(
        colt_obs::Event::new("cell_start")
            .field("cell", index + 1)
            .field("total", total)
            .field("label", cell.label.as_str())
            .field("policy", cell.experiment.policy.label()),
    );
    let result = cell.run()?;
    colt_obs::progress(
        colt_obs::Event::new("cell_finish")
            .field("cell", index + 1)
            .field("total", total)
            .field("label", cell.label.as_str())
            .field("policy", cell.experiment.policy.label())
            .field("wall_ms", result.obs.frame_ns("harness.run") as f64 / 1e6),
    );
    Ok(CellResult { label: cell.label.clone(), result })
}

// Compile-time audit of the thread-safety contract: the shared state
// (Database behind &) and the cells themselves must cross threads.
const _: fn() = || {
    fn ok<T: Send + Sync>() {}
    ok::<Database>();
    ok::<Cell<'_>>();
    ok::<Policy>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::{ColRef, Column, TableId, TableSchema};
    use colt_core::ColtConfig;
    use colt_engine::SelPred;
    use colt_storage::{row_from, Value, ValueType};

    fn setup() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableSchema::new(
            "t",
            vec![Column::new("id", ValueType::Int), Column::new("g", ValueType::Int)],
        ));
        db.insert_rows(t, (0..8_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 16)]))).unwrap();
        db.analyze_all();
        (db, t)
    }

    fn stream(t: TableId, n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| Query::single(t, vec![SelPred::eq(ColRef::new(t, 0), (i * 7 % 8_000) as i64)]))
            .collect()
    }

    fn arm_cells<'a>(db: &'a Database, w: &'a [Query]) -> Vec<Cell<'a>> {
        vec![
            Cell::new("NONE", db, w, Policy::None),
            Cell::new("OFFLINE", db, w, Policy::Offline { budget_pages: 100_000 }),
            Cell::new(
                "COLT",
                db,
                w,
                Policy::colt(ColtConfig { storage_budget_pages: 100_000, ..Default::default() }),
            ),
        ]
    }

    #[test]
    fn parallel_equals_serial_per_sample() {
        let (db, t) = setup();
        let w = stream(t, 80);
        let cells = arm_cells(&db, &w);
        let serial = run_cells(&cells, 1).unwrap();
        let parallel = run_cells(&cells, 3).unwrap();
        assert_eq!(serial.cells.len(), 3);
        assert_eq!(parallel.threads, 3);
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.result.samples, b.result.samples, "cell {}", a.label);
            assert_eq!(a.result.summary_json(), b.result.summary_json(), "cell {}", a.label);
        }
    }

    #[test]
    fn results_keep_submission_order() {
        let (db, t) = setup();
        let w = stream(t, 40);
        let cells = arm_cells(&db, &w);
        let report = run_cells(&cells, 2).unwrap();
        let labels: Vec<&str> = report.cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["NONE", "OFFLINE", "COLT"]);
        assert!(report.get("COLT").is_some());
        assert!(report.get("nope").is_none());
    }

    #[test]
    fn more_threads_than_cells_is_fine() {
        let (db, t) = setup();
        let w = stream(t, 20);
        let cells = vec![Cell::new("only", &db, &w, Policy::None)];
        let report = run_cells(&cells, 8).unwrap();
        assert_eq!(report.threads, 1);
        assert_eq!(report.cells.len(), 1);
    }

    #[test]
    fn empty_batch() {
        let report = run_cells(&[], 4).unwrap();
        assert!(report.cells.is_empty());
    }
}
