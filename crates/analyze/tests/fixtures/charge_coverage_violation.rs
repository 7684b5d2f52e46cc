//! analyze-fixture: path=crates/storage/src/fixture.rs expect=charge-coverage

pub struct HeapFixture {
    columns: Vec<Vec<i64>>,
}

impl HeapFixture {
    pub fn read_cell(&self, column: usize, row: usize) -> Option<&i64> {
        self.columns.get(column)?.get(row)
    }
}
