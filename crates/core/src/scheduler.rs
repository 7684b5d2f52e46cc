//! The Scheduler (paper §3): applies the Self-Organizer's
//! materialization requests to the physical configuration.
//!
//! The paper lists three strategies — immediate asynchronous builds,
//! builds during idle time, and piggybacking on future query results —
//! and adopts the first. We implement all three:
//!
//! * [`MaterializationStrategy::Immediate`] builds requested indices as
//!   soon as they are submitted; the build cost is charged to the
//!   foreground stream (the paper's measured behaviour: "the overhead of
//!   index creation contributes significantly to the execution time for
//!   COLT during this period").
//! * [`MaterializationStrategy::IdleTime`] builds requested indices at
//!   the epoch boundary too, but in an idle window assumed to follow it:
//!   the build is charged nothing, modelling background materialization
//!   between epochs.
//! * [`MaterializationStrategy::Piggyback`] queues requests and builds
//!   an index when a later query sequentially scans its table anyway:
//!   the build rides on that scan, so only the sort and the index page
//!   writes are charged (the paper's third option, "using intermediate
//!   results of future queries to build indices more efficiently").
//!
//! Drops are metadata-only and always immediate.

use colt_catalog::{ColRef, Database, IndexOrigin, PhysicalConfig};
use colt_storage::IoStats;
use std::collections::VecDeque;

/// When requested indices are built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaterializationStrategy {
    /// Build as soon as requested (paper's choice).
    #[default]
    Immediate,
    /// Build at once, in the idle window after the epoch boundary,
    /// uncharged.
    IdleTime,
    /// Build when a query's plan scans the table anyway, discounting the
    /// heap-scan component of the build cost.
    Piggyback,
}

/// Physical changes applied by one scheduler invocation.
#[derive(Debug, Clone, Default)]
pub struct AppliedChanges {
    /// Indices built, with the physical cost of each build.
    pub built: Vec<(ColRef, IoStats)>,
    /// Indices dropped.
    pub dropped: Vec<ColRef>,
}

impl AppliedChanges {
    /// Total build cost.
    pub fn total_build_io(&self) -> IoStats {
        let mut io = IoStats::new();
        for (_, b) in &self.built {
            io.accumulate(b);
        }
        io
    }
}

/// The scheduler.
#[derive(Debug, Default)]
pub struct Scheduler {
    strategy: MaterializationStrategy,
    pending: VecDeque<ColRef>,
}

impl Scheduler {
    /// Scheduler with the given strategy.
    pub fn new(strategy: MaterializationStrategy) -> Self {
        Scheduler { strategy, pending: VecDeque::new() }
    }

    /// Pending build requests (non-empty only for [`MaterializationStrategy::Piggyback`]).
    pub fn pending(&self) -> impl Iterator<Item = ColRef> + '_ {
        self.pending.iter().copied()
    }

    /// Submit the Self-Organizer's decision: drop indices immediately
    /// and build (or queue) the requested ones. Returns the changes
    /// applied right now.
    pub fn submit(
        &mut self,
        db: &Database,
        config: &mut PhysicalConfig,
        to_create: &[ColRef],
        to_drop: &[ColRef],
    ) -> AppliedChanges {
        let mut changes = AppliedChanges::default();
        for &col in to_drop {
            // A drop cancels a pending build of the same index.
            self.pending.retain(|&c| c != col);
            if config.drop_index(col) {
                changes.dropped.push(col);
            }
        }
        match self.strategy {
            MaterializationStrategy::Immediate | MaterializationStrategy::IdleTime => {
                let idle = self.strategy == MaterializationStrategy::IdleTime;
                for &col in to_create {
                    if !config.contains(col) {
                        let io = config.create_index(db, col, IndexOrigin::Online);
                        changes.built.push((col, if idle { IoStats::new() } else { io }));
                    }
                }
            }
            MaterializationStrategy::Piggyback => {
                for &col in to_create {
                    if !config.contains(col) && !self.pending.contains(&col) {
                        self.pending.push_back(col);
                    }
                }
            }
        }
        changes
    }

    /// Signal that a query just sequentially scanned `tables`: build
    /// every pending index on those tables (there are some only under
    /// [`MaterializationStrategy::Piggyback`]), charging the build minus
    /// the heap scan the query already paid for.
    pub fn on_seq_scan(
        &mut self,
        db: &Database,
        config: &mut PhysicalConfig,
        tables: &[colt_catalog::TableId],
    ) -> AppliedChanges {
        let mut changes = AppliedChanges::default();
        let ready: Vec<ColRef> =
            self.pending.iter().copied().filter(|c| tables.contains(&c.table)).collect();
        self.pending.retain(|c| !tables.contains(&c.table));
        for col in ready {
            if config.contains(col) {
                continue;
            }
            let t = db.table(col.table);
            let heap_pages = t.heap.page_count() as u64;
            let heap_rows = t.heap.row_count() as u64;
            let mut io = config.create_index(db, col, IndexOrigin::Online);
            // The query already read the heap; only sort + writes remain.
            io.seq_pages = io.seq_pages.saturating_sub(heap_pages);
            io.tuples = io.tuples.saturating_sub(heap_rows);
            changes.built.push((col, io));
        }
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::{Column, TableId, TableSchema};
    use colt_storage::{row_from, Value, ValueType};

    fn setup() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableSchema::new(
            "t",
            vec![Column::new("a", ValueType::Int), Column::new("b", ValueType::Int)],
        ));
        db.insert_rows(t, (0..5_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 7)]))).unwrap();
        db.analyze_all();
        (db, t)
    }

    #[test]
    fn immediate_builds_and_drops() {
        let (db, t) = setup();
        let mut cfg = PhysicalConfig::new();
        let mut sched = Scheduler::new(MaterializationStrategy::Immediate);
        let a = ColRef::new(t, 0);
        let changes = sched.submit(&db, &mut cfg, &[a], &[]);
        assert_eq!(changes.built.len(), 1);
        assert!(cfg.contains(a));
        assert!(changes.total_build_io().pages_written > 0);

        let changes = sched.submit(&db, &mut cfg, &[], &[a]);
        assert_eq!(changes.dropped, vec![a]);
        assert!(!cfg.contains(a));
    }

    #[test]
    fn duplicate_create_is_noop() {
        let (db, t) = setup();
        let mut cfg = PhysicalConfig::new();
        let mut sched = Scheduler::new(MaterializationStrategy::Immediate);
        let a = ColRef::new(t, 0);
        sched.submit(&db, &mut cfg, &[a], &[]);
        let v = cfg.table_version(t);
        let changes = sched.submit(&db, &mut cfg, &[a], &[]);
        assert!(changes.built.is_empty());
        assert_eq!(cfg.table_version(t), v, "no version churn from no-ops");
    }

    /// Idle-time builds are deferred off the stream: made at the
    /// boundary, in the idle window after it, and charged nothing.
    #[test]
    fn idle_time_defers_builds() {
        let (db, t) = setup();
        let mut cfg = PhysicalConfig::new();
        let mut sched = Scheduler::new(MaterializationStrategy::IdleTime);
        let a = ColRef::new(t, 0);
        let changes = sched.submit(&db, &mut cfg, &[a], &[]);
        assert_eq!(changes.built, vec![(a, IoStats::new())]);
        assert!(cfg.contains(a));
        assert_eq!(sched.pending().count(), 0);
    }

    #[test]
    fn piggyback_waits_for_matching_scan() {
        let (db, t) = setup();
        let mut cfg = PhysicalConfig::new();
        let mut sched = Scheduler::new(MaterializationStrategy::Piggyback);
        let a = ColRef::new(t, 0);
        let changes = sched.submit(&db, &mut cfg, &[a], &[]);
        assert!(changes.built.is_empty());

        // A scan of an unrelated table does nothing.
        let other = colt_catalog::TableId(99);
        assert!(sched.on_seq_scan(&db, &mut cfg, &[other]).built.is_empty());
        assert!(!cfg.contains(a));

        // A scan of the right table triggers the discounted build.
        let changes = sched.on_seq_scan(&db, &mut cfg, &[t]);
        assert_eq!(changes.built.len(), 1);
        assert!(cfg.contains(a));
        let io = &changes.built[0].1;
        assert_eq!(io.seq_pages, 0, "heap scan already paid by the query");
        assert_eq!(io.tuples, 0);
        assert!(io.pages_written > 0, "index writes still charged");
        assert!(io.cpu_ops > 0, "sort still charged");
        // Nothing left pending.
        assert_eq!(sched.pending().count(), 0);
    }

    /// The other strategies queue nothing for a scan to build.
    #[test]
    fn non_piggyback_ignores_scan_signal() {
        let (db, t) = setup();
        let a = ColRef::new(t, 0);
        for strategy in [MaterializationStrategy::Immediate, MaterializationStrategy::IdleTime] {
            let mut cfg = PhysicalConfig::new();
            let mut sched = Scheduler::new(strategy);
            sched.submit(&db, &mut cfg, &[a], &[]);
            assert_eq!(sched.pending().count(), 0, "{strategy:?}");
            assert!(sched.on_seq_scan(&db, &mut cfg, &[t]).built.is_empty(), "{strategy:?}");
        }
    }

    #[test]
    fn drop_cancels_pending_build() {
        let (db, t) = setup();
        let mut cfg = PhysicalConfig::new();
        let mut sched = Scheduler::new(MaterializationStrategy::Piggyback);
        let a = ColRef::new(t, 0);
        sched.submit(&db, &mut cfg, &[a], &[]);
        sched.submit(&db, &mut cfg, &[], &[a]);
        let changes = sched.on_seq_scan(&db, &mut cfg, &[t]);
        assert!(changes.built.is_empty());
        assert!(!cfg.contains(a));
    }
}
