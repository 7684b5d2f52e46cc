//! analyze-fixture: path=crates/storage/src/fixture.rs expect=clean

pub struct HeapFixture {
    columns: Vec<Vec<i64>>,
}

impl HeapFixture {
    // colt: allow(charge-coverage) — debug accessor, never on a costed path
    pub fn read_cell(&self, column: usize, row: usize) -> Option<&i64> {
        self.columns.get(column)?.get(row)
    }
}
