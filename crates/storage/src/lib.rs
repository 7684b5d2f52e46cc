//! # colt-storage
//!
//! Storage substrate for the COLT reproduction: typed values, an 8 KiB
//! page model with deterministic I/O accounting, append-only heap tables
//! stored as column vectors of 32-bit cells (dates as days, narrow
//! integers as offsets, everything else as ranks in a sorted
//! dictionary), and a static B+ tree used for every materialized index:
//! the index's sorted `(cell code, row id)` entries, probed by the cells'
//! order-preserving key codes.
//!
//! Nothing here touches the filesystem. All tables live in memory and
//! every operator charges [`page::IoStats`] for the pages a disk-resident
//! system of the same shape would read or write; [`page::CostParams`]
//! converts those counters into deterministic simulated milliseconds.
//! See `DESIGN.md` §2 for why this substitution preserves the behaviour
//! the paper measures.

#![warn(missing_docs)]

pub mod btree;
pub mod column;
pub mod heap;
pub mod page;
pub mod prng;
pub mod row;
pub mod value;

pub use btree::{BPlusTree, BPlusTreeOf, TreeKey};
pub use column::{
    code_interval, literal_code, sorted_entries, value_code, Batch, ColumnSlice, KeyCode,
};
pub use heap::{HeapTable, RowError};
pub use page::{pages_for, tuples_per_page, CostParams, IoStats, PAGE_SIZE};
pub use prng::Prng;
pub use row::{row_from, Row, RowId};
pub use value::{Value, ValueType};
