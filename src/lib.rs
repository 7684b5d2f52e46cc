//! # colt-repro
//!
//! A from-scratch Rust reproduction of **COLT** (*Continuous On-Line
//! Tuning*) from "On-Line Index Selection for Shifting Workloads"
//! (Schnaitter, Abiteboul, Milo, Polyzotis — ICDE 2007).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`storage`] — values, pages, heap tables, B+ trees, I/O accounting;
//! * [`catalog`] — schema, statistics, index estimates, the physical
//!   configuration;
//! * [`engine`] — SPJ queries, the Selinger-style optimizer, the what-if
//!   interface, and the executor with its deterministic simulated clock;
//! * [`colt`] — the tuner itself: profiler, self-organizer, immediate
//!   materialization;
//! * [`offline`] — the idealized OFFLINE baseline;
//! * [`workload`] — the TPC-H×4 data generator and the paper's workload
//!   presets;
//! * [`harness`] — experiment runners and paper-style reporting.
//!
//! ## Quickstart
//!
//! ```
//! use colt_repro::prelude::*;
//!
//! // A small two-column table.
//! let mut db = Database::new();
//! let t = db.add_table(TableSchema::new(
//!     "events",
//!     vec![Column::new("id", ValueType::Int), Column::new("kind", ValueType::Int)],
//! ));
//! db.insert_rows(t, (0..5_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 5)])))
//!     .expect("rows match the schema");
//! db.analyze_all();
//!
//! // Drive COLT with a stream of selective point queries.
//! let mut physical = PhysicalConfig::new();
//! let mut tuner = ColtTuner::new(ColtConfig { storage_budget_pages: 10_000, ..Default::default() });
//! let mut eqo = Eqo::new(&db);
//! let col = ColRef::new(t, 0);
//! for i in 0..60i64 {
//!     let q = Query::single(t, vec![SelPred::eq(col, i * 83 % 5_000)]);
//!     let plan = eqo.optimize(&q, &physical);
//!     let _result = Executor::new(&db, &physical).execute(&q, &plan, Collect::CountOnly);
//!     tuner.on_query(&db, &mut physical, &mut eqo, &q, &plan);
//! }
//! // COLT noticed the pattern and materialized the index on its own.
//! assert!(physical.contains(col));
//! ```

#![warn(missing_docs)]

pub use colt_catalog as catalog;
pub use colt_core as colt;
pub use colt_engine as engine;
pub use colt_harness as harness;
pub use colt_obs as obs;
pub use colt_offline as offline;
pub use colt_storage as storage;
pub use colt_workload as workload;

/// The most common imports for using the library.
pub mod prelude {
    pub use colt_catalog::{ColRef, Column, Database, PhysicalConfig, TableId, TableSchema};
    pub use colt_core::{ColtConfig, ColtTuner, Trace};
    pub use colt_engine::{
        Collect, Eqo, ExecError, ExecOutput, Executor, IndexSetView, Optimizer, Plan, Query,
        SelPred,
    };
    pub use colt_harness::{Cell, Experiment, ParallelReport, Policy, RunResult};
    pub use colt_storage::{row_from, IoStats, Value, ValueType};
    pub use colt_workload::{generate, Preset, TpchData, DEFAULT_SCALE};
}
