//! Multi-source datasets and ground truth.

use crate::error::TableError;
use crate::ids::{EntityId, SourceId};
use crate::record::Record;
use crate::schema::Schema;
use crate::table::Table;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A matched tuple: a set of entities (from any sources) that refer to the same
/// real-world entity. Stored sorted so that equal tuples compare equal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MatchTuple {
    members: Vec<EntityId>,
}

impl MatchTuple {
    /// Build a tuple from entity ids; duplicates are removed and members sorted.
    pub fn new<I: IntoIterator<Item = EntityId>>(members: I) -> Self {
        let set: BTreeSet<EntityId> = members.into_iter().collect();
        Self {
            members: set.into_iter().collect(),
        }
    }

    /// Build a tuple, failing if fewer than two distinct members are provided.
    pub fn try_new<I: IntoIterator<Item = EntityId>>(members: I) -> Result<Self> {
        let t = Self::new(members);
        if t.members.len() < 2 {
            return Err(TableError::DegenerateTuple(t.members.len()));
        }
        Ok(t)
    }

    /// Sorted members of the tuple.
    pub fn members(&self) -> &[EntityId] {
        &self.members
    }

    /// Number of entities in the tuple.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the tuple has no members (only possible via `new` with an empty
    /// iterator).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: EntityId) -> bool {
        self.members.binary_search(&id).is_ok()
    }

    /// Enumerate all unordered entity pairs inside the tuple (used by the
    /// pair-F1 metric, Example 2 in the paper).
    pub fn pairs(&self) -> Vec<(EntityId, EntityId)> {
        let mut out =
            Vec::with_capacity(self.members.len() * (self.members.len().saturating_sub(1)) / 2);
        for i in 0..self.members.len() {
            for j in (i + 1)..self.members.len() {
                out.push((self.members[i], self.members[j]));
            }
        }
        out
    }
}

/// Ground truth for a dataset: the set of true matched tuples.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GroundTruth {
    tuples: Vec<MatchTuple>,
}

impl GroundTruth {
    /// Build ground truth from tuples (singletons are dropped).
    pub fn new(tuples: Vec<MatchTuple>) -> Self {
        Self {
            tuples: tuples.into_iter().filter(|t| t.len() >= 2).collect(),
        }
    }

    /// The true tuples.
    pub fn tuples(&self) -> &[MatchTuple] {
        &self.tuples
    }

    /// Number of true tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// All true matched pairs implied by the tuples (deduplicated, ordered pairs
    /// with the smaller id first).
    pub fn pairs(&self) -> BTreeSet<(EntityId, EntityId)> {
        let mut set = BTreeSet::new();
        for t in &self.tuples {
            for (a, b) in t.pairs() {
                set.insert((a.min(b), a.max(b)));
            }
        }
        set
    }

    /// Total number of entities covered by at least one tuple.
    pub fn covered_entities(&self) -> usize {
        let mut set = BTreeSet::new();
        for t in &self.tuples {
            set.extend(t.members().iter().copied());
        }
        set.len()
    }
}

/// The multi-table EM input: `S` tables sharing a schema, plus optional ground
/// truth (used only for evaluation, never by the unsupervised pipeline).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Dataset name (e.g. "music-20").
    name: String,
    schema: Arc<Schema>,
    tables: Vec<Table>,
    ground_truth: Option<GroundTruth>,
}

impl Dataset {
    /// Create an empty dataset with the given schema.
    pub fn new(name: impl Into<String>, schema: Arc<Schema>) -> Self {
        Self {
            name: name.into(),
            schema,
            tables: Vec::new(),
            ground_truth: None,
        }
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Add a source table; its schema must match the dataset schema.
    pub fn add_table(&mut self, table: Table) -> Result<SourceId> {
        if !table.schema().same_shape(&self.schema) {
            return Err(TableError::SchemaMismatch {
                table: table.name().to_string(),
            });
        }
        self.tables.push(table);
        Ok((self.tables.len() - 1) as SourceId)
    }

    /// Attach ground truth (evaluation only).
    pub fn set_ground_truth(&mut self, gt: GroundTruth) {
        self.ground_truth = Some(gt);
    }

    /// The ground truth, if attached.
    pub fn ground_truth(&self) -> Option<&GroundTruth> {
        self.ground_truth.as_ref()
    }

    /// Number of source tables `S`.
    pub fn num_sources(&self) -> usize {
        self.tables.len()
    }

    /// All source tables in source-id order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Table with the given source id.
    pub fn table(&self, source: SourceId) -> Result<&Table> {
        self.tables
            .get(source as usize)
            .ok_or(TableError::UnknownSource(source))
    }

    /// Record of a specific entity.
    pub fn record(&self, id: EntityId) -> Result<&Record> {
        let table = self.table(id.source)?;
        table
            .record(id.row as usize)
            .ok_or(TableError::RowOutOfBounds {
                source: id.source,
                row: id.row,
                len: table.len(),
            })
    }

    /// Total number of entities across all tables.
    pub fn total_entities(&self) -> usize {
        self.tables.iter().map(Table::len).sum()
    }

    /// Iterate every entity id in the dataset (source-major order).
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.tables.iter().enumerate().flat_map(|(s, t)| {
            (0..t.len() as u32).map(move |row| EntityId::new(s as SourceId, row))
        })
    }

    /// Concatenate all tables into one logical list of `(EntityId, &Record)`.
    /// This is the `concat` step of Algorithm 1 (attribute selection).
    pub fn concat(&self) -> Vec<(EntityId, &Record)> {
        let mut out = Vec::with_capacity(self.total_entities());
        for (s, t) in self.tables.iter().enumerate() {
            for (row, r) in t.iter() {
                out.push((EntityId::new(s as SourceId, row), r));
            }
        }
        out
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.tables.iter().map(Table::approx_bytes).sum::<usize>() + self.name.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    fn make_dataset() -> Dataset {
        let schema = Schema::new(["title", "artist"]).shared();
        let mut ds = Dataset::new("test", schema.clone());
        let t1 = Table::with_records(
            "A",
            schema.clone(),
            vec![
                Record::from_texts(["x", "1"]),
                Record::from_texts(["y", "2"]),
            ],
        )
        .unwrap();
        let t2 = Table::with_records("B", schema.clone(), vec![Record::from_texts(["x'", "1"])])
            .unwrap();
        ds.add_table(t1).unwrap();
        ds.add_table(t2).unwrap();
        ds
    }

    #[test]
    fn tuple_dedups_and_sorts() {
        let t = MatchTuple::new([
            EntityId::new(1, 0),
            EntityId::new(0, 3),
            EntityId::new(1, 0),
        ]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.members()[0], EntityId::new(0, 3));
        assert!(t.contains(EntityId::new(1, 0)));
        assert!(!t.contains(EntityId::new(2, 2)));
    }

    #[test]
    fn try_new_rejects_singletons() {
        assert!(MatchTuple::try_new([EntityId::new(0, 0)]).is_err());
        assert!(MatchTuple::try_new([EntityId::new(0, 0), EntityId::new(1, 0)]).is_ok());
    }

    #[test]
    fn tuple_pairs_enumeration() {
        let t = MatchTuple::new([
            EntityId::new(0, 0),
            EntityId::new(1, 0),
            EntityId::new(2, 0),
        ]);
        assert_eq!(t.pairs().len(), 3);
    }

    #[test]
    fn ground_truth_pairs_dedup() {
        let a = EntityId::new(0, 0);
        let b = EntityId::new(1, 0);
        let c = EntityId::new(2, 0);
        let gt = GroundTruth::new(vec![MatchTuple::new([a, b, c]), MatchTuple::new([a, b])]);
        assert_eq!(gt.len(), 2);
        assert_eq!(gt.pairs().len(), 3);
        assert_eq!(gt.covered_entities(), 3);
    }

    #[test]
    fn ground_truth_drops_singletons() {
        let gt = GroundTruth::new(vec![MatchTuple::new([EntityId::new(0, 0)])]);
        assert!(gt.is_empty());
    }

    #[test]
    fn dataset_accessors() {
        let ds = make_dataset();
        assert_eq!(ds.num_sources(), 2);
        assert_eq!(ds.total_entities(), 3);
        assert_eq!(ds.entity_ids().count(), 3);
        assert_eq!(ds.concat().len(), 3);
        let rec = ds.record(EntityId::new(1, 0)).unwrap();
        assert_eq!(rec.value(0).unwrap().render(), "x'");
        assert!(ds.record(EntityId::new(1, 5)).is_err());
        assert!(ds.record(EntityId::new(9, 0)).is_err());
    }

    #[test]
    fn add_table_rejects_schema_mismatch() {
        let mut ds = make_dataset();
        let other = Schema::new(["completely", "different", "shape"]).shared();
        let bad = Table::new("C", other);
        assert!(matches!(
            ds.add_table(bad),
            Err(TableError::SchemaMismatch { .. })
        ));
    }
}
