//! Source tables: a named collection of records sharing a schema.

use crate::error::TableError;
use crate::record::Record;
use crate::schema::Schema;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One source table `E_i` of the multi-table EM input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    /// Human-readable name (e.g. "source-A", "shop-3").
    name: String,
    /// Schema shared with the rest of the dataset.
    schema: Arc<Schema>,
    /// Entity records.
    records: Vec<Record>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Arc<Schema>) -> Self {
        Self {
            name: name.into(),
            schema,
            records: Vec::new(),
        }
    }

    /// Create a table from pre-built records, validating arity.
    pub fn with_records(
        name: impl Into<String>,
        schema: Arc<Schema>,
        records: Vec<Record>,
    ) -> Result<Self> {
        let mut table = Self::new(name, schema);
        for r in records {
            table.push(r)?;
        }
        Ok(table)
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Append a record, checking it matches the schema arity.
    pub fn push(&mut self, record: Record) -> Result<()> {
        if record.arity() != self.schema.len() {
            return Err(TableError::ArityMismatch {
                expected: self.schema.len(),
                got: record.arity(),
            });
        }
        self.records.push(record);
        Ok(())
    }

    /// Number of entities in the table.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the table has no entities.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in row order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Record at `row`.
    pub fn record(&self, row: usize) -> Option<&Record> {
        self.records.get(row)
    }

    /// Iterate `(row, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Record)> {
        self.records.iter().enumerate().map(|(i, r)| (i as u32, r))
    }

    /// Approximate heap footprint of the table in bytes (used by the memory
    /// accounting in `multiem-eval`).
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = self.name.len() + std::mem::size_of::<Self>();
        for r in &self.records {
            bytes += std::mem::size_of::<Record>();
            for v in r.values() {
                bytes += std::mem::size_of_val(v);
                if let Some(t) = v.as_text() {
                    bytes += t.len();
                }
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Value;

    fn schema() -> Arc<Schema> {
        Schema::new(["title", "artist"]).shared()
    }

    #[test]
    fn push_validates_arity() {
        let mut t = Table::new("A", schema());
        assert!(t.push(Record::from_texts(["a", "b"])).is_ok());
        let err = t.push(Record::from_texts(["only-one"])).unwrap_err();
        assert!(matches!(
            err,
            TableError::ArityMismatch {
                expected: 2,
                got: 1
            }
        ));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn with_records_validates_all() {
        let recs = vec![
            Record::from_texts(["a", "b"]),
            Record::from_texts(["c", "d"]),
        ];
        let t = Table::with_records("A", schema(), recs).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.record(1).unwrap().value(0).unwrap().render(), "c");
        assert!(t.record(2).is_none());
    }

    #[test]
    fn iter_yields_row_indices() {
        let recs = vec![
            Record::from_texts(["a", "b"]),
            Record::from_texts(["c", "d"]),
        ];
        let t = Table::with_records("A", schema(), recs).unwrap();
        let rows: Vec<u32> = t.iter().map(|(i, _)| i).collect();
        assert_eq!(rows, vec![0, 1]);
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let small =
            Table::with_records("A", schema(), vec![Record::from_texts(["a", "b"])]).unwrap();
        let big = Table::with_records(
            "A",
            schema(),
            vec![Record::new(vec![
                Value::Text("a very long product title with many words".into()),
                Value::Text("another long attribute value".into()),
            ])],
        )
        .unwrap();
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}
