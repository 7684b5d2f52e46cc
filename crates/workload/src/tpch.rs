//! The synthetic data set of the paper's evaluation: four instances of a
//! TPC-H-like schema (Table 1 of the paper).
//!
//! Characteristics at scale 1.0 (the paper's scale):
//!
//! * 32 tables (8 per instance × 4 instances),
//! * 6,928,120 tuples in total,
//! * largest table 1,200,000 tuples, smallest 5 tuples,
//! * 244 indexable attributes (61 per instance × 4),
//! * ≈ 1 GB of binary data at the 8 KiB page model (the paper reports
//!   1.4 GB; our fixed 24-byte string width narrows rows slightly).
//!
//! The `scale` parameter shrinks every table proportionally (floors keep
//! the tiny dimension tables intact), preserving the inter-table ratios
//! that drive index-selection behaviour while letting experiments run in
//! seconds. The default experiment scale is 1/40.

use crate::gen::ColumnGen;
use colt_catalog::{ColRef, Column, Database, TableId, TableSchema};
use colt_storage::{row_from, ValueType};
use colt_storage::Prng;

/// The paper's experiment scale relative to Table 1 (1/40).
pub const DEFAULT_SCALE: f64 = 0.025;

/// Days covered by date columns.
const DATE_LO: i32 = 0;
const DATE_HI: i32 = 2555; // ~7 years

/// Definition of one table of the schema.
struct TableDef {
    name: &'static str,
    base_rows: u64,
    columns: Vec<(&'static str, ValueType, ColumnGen)>,
}

/// Row counts of one instance at scale 1.0, chosen to reproduce the
/// paper's Table 1 exactly: per-instance total 1,732,030 tuples.
fn table_defs(scale: f64) -> Vec<TableDef> {
    let n = |base: u64, floor: u64| -> u64 { ((base as f64 * scale) as u64).max(floor) };
    let region = 5; // never scaled: the paper's smallest table has 5 rows
    let nation = 25;
    let supplier = n(2_000, 40);
    let customer = n(30_000, 300);
    let part = n(40_000, 400);
    let partsupp = n(160_000, 800);
    let orders = n(300_000, 1_500);
    let lineitem = n(1_200_000, 6_000);

    use ColumnGen as G;
    use ValueType as V;
    vec![
        TableDef {
            name: "region",
            base_rows: region,
            columns: vec![
                ("r_regionkey", V::Int, G::Key),
                ("r_name", V::Str, G::StrPool { pool: 5 }),
                ("r_comment", V::Str, G::StrPool { pool: 5 }),
            ],
        },
        TableDef {
            name: "nation",
            base_rows: nation,
            columns: vec![
                ("n_nationkey", V::Int, G::Key),
                ("n_name", V::Str, G::StrPool { pool: 25 }),
                ("n_regionkey", V::Int, G::ForeignKey { target_rows: region }),
                ("n_comment", V::Str, G::StrPool { pool: 25 }),
            ],
        },
        TableDef {
            name: "supplier",
            base_rows: supplier,
            columns: vec![
                ("s_suppkey", V::Int, G::Key),
                ("s_name", V::Str, G::StrPool { pool: 1000 }),
                ("s_address", V::Str, G::StrPool { pool: 1000 }),
                ("s_nationkey", V::Int, G::ForeignKey { target_rows: nation }),
                ("s_phone", V::Str, G::StrPool { pool: 1000 }),
                ("s_acctbal", V::Float, G::FloatUniform { lo: -999.99, hi: 9999.99 }),
                ("s_comment", V::Str, G::StrPool { pool: 1000 }),
            ],
        },
        TableDef {
            name: "customer",
            base_rows: customer,
            columns: vec![
                ("c_custkey", V::Int, G::Key),
                ("c_name", V::Str, G::StrPool { pool: 10_000 }),
                ("c_address", V::Str, G::StrPool { pool: 10_000 }),
                ("c_nationkey", V::Int, G::ForeignKey { target_rows: nation }),
                ("c_phone", V::Str, G::StrPool { pool: 10_000 }),
                ("c_acctbal", V::Float, G::FloatUniform { lo: -999.99, hi: 9999.99 }),
                ("c_mktsegment", V::Int, G::Choice { choices: 5 }),
                ("c_comment", V::Str, G::StrPool { pool: 10_000 }),
            ],
        },
        TableDef {
            name: "part",
            base_rows: part,
            columns: vec![
                ("p_partkey", V::Int, G::Key),
                ("p_name", V::Str, G::StrPool { pool: 20_000 }),
                ("p_mfgr", V::Int, G::Choice { choices: 5 }),
                ("p_brand", V::Int, G::Choice { choices: 25 }),
                ("p_type", V::Int, G::Choice { choices: 150 }),
                ("p_size", V::Int, G::IntUniform { lo: 1, hi: 50 }),
                ("p_container", V::Int, G::Choice { choices: 40 }),
                ("p_retailprice", V::Float, G::FloatUniform { lo: 900.0, hi: 2100.0 }),
                ("p_comment", V::Str, G::StrPool { pool: 20_000 }),
            ],
        },
        TableDef {
            name: "partsupp",
            base_rows: partsupp,
            columns: vec![
                ("ps_partkey", V::Int, G::ForeignKey { target_rows: part }),
                ("ps_suppkey", V::Int, G::ForeignKey { target_rows: supplier }),
                ("ps_availqty", V::Int, G::IntUniform { lo: 1, hi: 9999 }),
                ("ps_supplycost", V::Float, G::FloatUniform { lo: 1.0, hi: 1000.0 }),
                ("ps_comment", V::Str, G::StrPool { pool: 20_000 }),
            ],
        },
        TableDef {
            name: "orders",
            base_rows: orders,
            columns: vec![
                ("o_orderkey", V::Int, G::Key),
                ("o_custkey", V::Int, G::ForeignKey { target_rows: customer }),
                ("o_orderstatus", V::Int, G::Choice { choices: 3 }),
                ("o_totalprice", V::Float, G::FloatUniform { lo: 800.0, hi: 500_000.0 }),
                ("o_orderdate", V::Date, G::DateUniform { lo: DATE_LO, hi: DATE_HI }),
                ("o_orderpriority", V::Int, G::Choice { choices: 5 }),
                ("o_clerk", V::Int, G::Choice { choices: 1000 }),
                ("o_shippriority", V::Int, G::Choice { choices: 2 }),
                ("o_comment", V::Str, G::StrPool { pool: 50_000 }),
            ],
        },
        TableDef {
            name: "lineitem",
            base_rows: lineitem,
            columns: vec![
                ("l_orderkey", V::Int, G::ForeignKey { target_rows: orders }),
                ("l_partkey", V::Int, G::ForeignKey { target_rows: part }),
                ("l_suppkey", V::Int, G::ForeignKey { target_rows: supplier }),
                ("l_linenumber", V::Int, G::IntUniform { lo: 1, hi: 7 }),
                ("l_quantity", V::Int, G::IntUniform { lo: 1, hi: 50 }),
                ("l_extendedprice", V::Float, G::FloatUniform { lo: 900.0, hi: 105_000.0 }),
                ("l_discount", V::Float, G::FloatUniform { lo: 0.0, hi: 0.11 }),
                ("l_tax", V::Float, G::FloatUniform { lo: 0.0, hi: 0.09 }),
                ("l_returnflag", V::Int, G::Choice { choices: 3 }),
                ("l_linestatus", V::Int, G::Choice { choices: 2 }),
                ("l_shipdate", V::Date, G::DateUniform { lo: DATE_LO, hi: DATE_HI }),
                ("l_commitdate", V::Date, G::DateUniform { lo: DATE_LO, hi: DATE_HI }),
                ("l_receiptdate", V::Date, G::DateUniform { lo: DATE_LO, hi: DATE_HI }),
                ("l_shipinstruct", V::Int, G::Choice { choices: 4 }),
                ("l_shipmode", V::Int, G::Choice { choices: 7 }),
                ("l_comment", V::Str, G::StrPool { pool: 50_000 }),
            ],
        },
    ]
}

/// Map from table names to ids for one schema instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Which of the four instances this is (0–3).
    pub index: usize,
    tables: Vec<(String, TableId)>,
}

impl Instance {
    /// The id of a table by its TPC-H name (e.g. `"lineitem"`).
    pub fn table(&self, name: &str) -> TableId {
        self.tables
            .iter()
            .find(|(n, _)| n == name)
            // colt: allow(panic-policy) — lookup by compile-time TPC-H name; a typo is a programming error
            .unwrap_or_else(|| panic!("unknown table {name}"))
            .1
    }

    /// A column reference by table and column name.
    pub fn col(&self, db: &Database, table: &str, column: &str) -> ColRef {
        let tid = self.table(table);
        let idx = db
            .table(tid)
            .schema
            .column_index(column)
            // colt: allow(panic-policy) — lookup by compile-time TPC-H name; a typo is a programming error
            .unwrap_or_else(|| panic!("unknown column {table}.{column}"));
        ColRef::new(tid, idx)
    }
}

/// The generated data set: the database plus instance maps.
#[derive(Debug)]
pub struct TpchData {
    /// The populated, analyzed database.
    pub db: Database,
    /// The four schema instances.
    pub instances: Vec<Instance>,
    /// The scale the data was generated at.
    pub scale: f64,
}

/// Number of schema instances (the paper uses four).
pub const INSTANCES: usize = 4;

/// Generate the four-instance data set at the given scale.
pub fn generate(scale: f64, seed: u64) -> TpchData {
    let mut db = Database::new();
    let mut instances = Vec::with_capacity(INSTANCES);
    let mut rng = Prng::new(seed);
    for inst in 0..INSTANCES {
        let mut tables = Vec::new();
        for def in table_defs(scale) {
            let name = format!("{}{}", def.name, inst);
            let schema = TableSchema::new(
                name.clone(),
                def.columns.iter().map(|(n, t, _)| Column::new(*n, *t)).collect(),
            );
            let tid = db.add_table(schema);
            let rows = def.base_rows;
            db.insert_rows(
                tid,
                (0..rows).map(|r| {
                    row_from(
                        def.columns.iter().map(|(_, _, g)| g.generate(r, rows, &mut rng)).collect(),
                    )
                }),
            )
            // colt: allow(panic-policy) — table_defs() pairs every generator with the column type it emits
            .expect("generated rows fit their schema");
            tables.push((def.name.to_string(), tid));
        }
        instances.push(Instance { index: inst, tables });
    }
    db.analyze_all();
    TpchData { db, instances, scale }
}

/// Declared characteristics at a given scale without generating data —
/// used by the Table 1 bench to print the paper-scale numbers instantly.
pub struct DataSetSummary {
    /// Number of tables.
    pub tables: usize,
    /// Total tuples across all tables.
    pub total_tuples: u64,
    /// Tuples in the largest table.
    pub largest: u64,
    /// Tuples in the smallest table.
    pub smallest: u64,
    /// Indexable attributes.
    pub attributes: usize,
    /// Approximate binary size in bytes (heap pages).
    pub bytes: u64,
}

/// Compute the summary for a scale.
pub fn summary(scale: f64) -> DataSetSummary {
    let defs = table_defs(scale);
    let per_instance_tuples: u64 = defs.iter().map(|d| d.base_rows).sum();
    let largest = defs.iter().map(|d| d.base_rows).max().unwrap_or(0);
    let smallest = defs.iter().map(|d| d.base_rows).min().unwrap_or(0);
    let attributes: usize = defs.iter().map(|d| d.columns.len()).sum();
    let bytes: u64 = defs
        .iter()
        .map(|d| {
            let width: usize = d.columns.iter().map(|(_, t, _)| t.byte_width()).sum();
            colt_storage::pages_for(d.base_rows as usize, width) as u64
                * colt_storage::PAGE_SIZE as u64
        })
        .sum();
    DataSetSummary {
        tables: defs.len() * INSTANCES,
        total_tuples: per_instance_tuples * INSTANCES as u64,
        largest,
        smallest,
        attributes: attributes * INSTANCES,
        bytes: bytes * INSTANCES as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_table_1() {
        let s = summary(1.0);
        assert_eq!(s.tables, 32);
        assert_eq!(s.total_tuples, 6_928_120);
        assert_eq!(s.largest, 1_200_000);
        assert_eq!(s.smallest, 5);
        assert_eq!(s.attributes, 244);
        // On the order of the paper's 1.4 GB (our fixed string width
        // yields slightly narrower rows).
        let gb = s.bytes as f64 / (1024.0 * 1024.0 * 1024.0);
        assert!((0.7..2.0).contains(&gb), "binary size {gb:.2} GB");
    }

    #[test]
    fn generated_data_matches_summary() {
        let scale = 0.002;
        let data = generate(scale, 7);
        let s = summary(scale);
        assert_eq!(data.db.table_count(), s.tables);
        assert_eq!(data.db.total_tuples(), s.total_tuples);
        assert_eq!(data.db.indexable_attributes(), s.attributes);
        assert_eq!(data.instances.len(), 4);
    }

    #[test]
    fn instances_are_disjoint_tables() {
        let data = generate(0.002, 7);
        let a = data.instances[0].table("lineitem");
        let b = data.instances[1].table("lineitem");
        assert_ne!(a, b);
        // Same schema shape, different table ids.
        assert_eq!(
            data.db.table(a).schema.arity(),
            data.db.table(b).schema.arity()
        );
    }

    #[test]
    fn col_lookup_works() {
        let data = generate(0.002, 7);
        let col = data.instances[2].col(&data.db, "orders", "o_orderdate");
        assert_eq!(col.table, data.instances[2].table("orders"));
        let t = data.db.table(col.table);
        assert_eq!(t.schema.columns[col.column as usize].name, "o_orderdate");
    }

    #[test]
    fn statistics_are_gathered() {
        let data = generate(0.002, 7);
        for t in data.db.tables() {
            assert_eq!(t.stats.len(), t.schema.arity(), "stats for {}", t.schema.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(0.001, 42);
        let b = generate(0.001, 42);
        let ta = a.instances[0].table("orders");
        let tb = b.instances[0].table("orders");
        let rows_a: Vec<_> = a.db.table(ta).heap.iter().take(20).map(|(_, r)| r).collect();
        let rows_b: Vec<_> = b.db.table(tb).heap.iter().take(20).map(|(_, r)| r).collect();
        assert_eq!(rows_a, rows_b);
    }
}
