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
// `deny` rather than `forbid`, alone among the library crates: a future
// lock-free recorder merge in `parallel` may need a scoped
// `#[allow(unsafe_code)]` with a safety comment, which `forbid` would
// make impossible without relaxing the whole crate. There is no unsafe
// code today; colt-analyze's unsafe-code lint independently verifies
// that.
#![deny(unsafe_code)]

pub mod flight;
pub mod metrics;
pub mod multiclient;
pub mod parallel;
pub mod report;
pub mod runner;

pub use flight::{
    explaining_knapsack, kind_label, parse_candidates, render_access_path_mix,
    render_decision_timeline, render_index_explanations, render_ledger_digest, KnapsackCandidate,
    ACCESS_PATH_COUNTERS, LEDGER_KIND_LABELS,
};
pub use metrics::{adaptation_latency, budget_utilization, convergence_point};
pub use multiclient::{interleave, split_round_robin};
pub use parallel::{run_cells, Cell, CellResult, ParallelReport};
pub use report::{
    bucket_rows, component_breakdown, emit_breakdown, emit_parallel_summary, render_breakdown,
    render_buckets, render_parallel_summary, render_whatif_series, time_ratio, Breakdown,
    BucketRow,
};
pub use runner::{Experiment, Policy, QuerySample, RunResult, WHATIF_COST_UNITS};
#[allow(deprecated)]
pub use runner::{run_colt, run_colt_with_strategy, run_none, run_offline};
