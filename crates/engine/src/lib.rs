//! # colt-engine
//!
//! The relational engine substrate of the COLT reproduction: an SPJ query
//! model, selectivity estimation over catalog statistics, System-R cost
//! formulas, a Selinger-style dynamic-programming optimizer, the what-if
//! interface COLT profiles through, and an executor that runs plans
//! against real data while charging a deterministic simulated clock.
//!
//! The split that matters for reproducing the paper:
//!
//! * the **optimizer** sees only *estimates* (histograms, index shape
//!   estimates) — its costs are what `WhatIfOptimize` returns;
//! * the **executor** performs the work and charges *actual* counts —
//!   its simulated milliseconds are what every figure reports.

#![warn(missing_docs)]

pub mod batch;
pub mod cost;
pub mod error;
pub mod executor;
pub mod kernel;
mod memo;
pub mod optimizer;
pub mod plan;
pub mod query;
pub mod rowwise;
pub mod selectivity;
pub mod whatif;

pub use batch::BATCH_ROWS;
pub use error::ExecError;
pub use executor::{Collect, ExecOutput, Executor, QueryResult};
pub use kernel::Kernel;
pub use rowwise::RowwiseExecutor;
pub use optimizer::{IndexSetView, Optimizer, OptimizerOptions};
pub use plan::{AccessPath, Plan, PlanNode};
pub use query::{JoinPred, PredicateKind, Query, RangeBound, SelPred};
pub use whatif::{Eqo, EqoCounters, IndexGain};
