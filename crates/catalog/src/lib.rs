//! # colt-catalog
//!
//! Logical schema, per-column statistics, index descriptors, and the
//! physical configuration (the set of materialized indices) for the COLT
//! reproduction.
//!
//! The catalog is where the optimizer's world model lives: selectivities
//! come from equi-depth histograms gathered by `ANALYZE`-style passes,
//! and hypothetical indices are costed from [`index::IndexEstimate`]
//! without being built.

#![warn(missing_docs)]

pub mod database;
pub mod index;
pub mod schema;
pub mod stats;

pub use database::{Database, PhysicalConfig, Table};
pub use index::{build_index, IndexEstimate, MaterializedIndex};
pub use schema::{ColRef, Column, TableId, TableSchema};
pub use stats::{ColumnStats, HISTOGRAM_BUCKETS};

pub use colt_storage::RowError;
