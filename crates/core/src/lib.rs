//! # colt-core
//!
//! COLT — Continuous On-Line Tuning — as described in "On-Line Index
//! Selection for Shifting Workloads" (Schnaitter, Abiteboul, Milo,
//! Polyzotis; ICDE 2007).
//!
//! The tuner watches the query stream in epochs of `w` queries, mines
//! candidate single-column indices from selection predicates, profiles
//! them at two levels of fidelity (crude cost formulas for all of `C`;
//! sampled what-if calls with CLT confidence intervals for the hot set
//! `H` and the materialized set `M`), and at every epoch boundary
//! re-solves a 0/1 knapsack over the storage budget to decide what to
//! materialize. Its distinguishing feature is *self-regulation*: the
//! what-if budget of the next epoch follows the ratio between the
//! best-case benefit of the hot indices and the benefit of the current
//! materialized set, so profiling hibernates on stable, well-tuned
//! workloads and wakes up at phase shifts.
//!
//! Entry point: [`ColtTuner`]. Drive it with one [`ColtTuner::on_query`]
//! call per executed query.

#![warn(missing_docs)]

pub mod cluster;
pub mod composite_ext;
pub mod config;
pub mod crude;
pub mod gain;
pub mod hotset;
pub mod knapsack;
pub mod organizer;
pub mod profiler;
pub mod prng;
pub mod rebudget;
pub mod scheduler;
pub mod trace;
pub mod tuner;

// The JSON module lives in `colt_obs`, at the bottom of the crate DAG.
// This path stays because `benches/perf` imports
// `colt_core::json::{self, Json, parse}` and is frozen by
// BENCHMARK.json; `core → obs` is already an edge in its lockfile.
pub use colt_obs::json;

pub use cluster::{ClusterId, ClusterKey, ClusterSet, SelBucket};
pub use composite_ext::{CompositeStep, CompositeTuner};
pub use config::{ColtConfig, ConfigError};
pub use gain::{GainStats, IndexClusterStats};
pub use organizer::{ReorgDecision, SelfOrganizer};
pub use profiler::{GainMode, ProfileOutcome, Profiler};
pub use rebudget::{CandidateInterval, DecisionContext};
pub use scheduler::{AppliedChanges, MaterializationStrategy, Scheduler};
pub use trace::{EpochRecord, Trace};
pub use tuner::{ColtTuner, TunerStep};
