//! # colt-harness
//!
//! Experiment driver for the COLT reproduction: runs a query stream
//! under a tuning policy (COLT, idealized OFFLINE, or no tuning),
//! charging tuning overhead exactly as the paper's methodology does, and
//! renders paper-style bucketed comparisons, what-if overhead series,
//! and time ratios.
//!
//! Entry points: [`Experiment`] for one run, [`parallel::run_cells`] to
//! fan independent run cells (policy arms × seeds × presets) across a
//! scoped thread pool with serial-identical output.

#![warn(missing_docs)]

pub mod flight;
pub mod metrics;
pub mod multiclient;
pub mod parallel;
pub mod report;
pub mod runner;

pub use flight::{
    explaining_knapsack, render_access_path_mix, render_decision_timeline,
    render_index_explanations, render_ledger_digest, ACCESS_PATH_COUNTERS,
};
pub use metrics::{adaptation_latency, budget_utilization, convergence_point, time_ratio};
pub use multiclient::{interleave, split_round_robin};
pub use parallel::{parallel_map, run_cells, Cell, CellResult, ParallelReport};
pub use report::{
    bucket_rows, component_breakdown, emit_breakdown, emit_parallel_summary, render_buckets,
    render_whatif_series, Breakdown, BucketRow,
};
pub use runner::{Experiment, Policy, QuerySample, RunResult, WHATIF_COST_UNITS};
