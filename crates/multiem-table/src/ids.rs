//! Stable identifiers of entities across a multi-source dataset.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a source table within a [`crate::Dataset`].
pub type SourceId = u32;

/// Identifier of one entity: the source table it comes from and its row index
/// within that table.
///
/// `EntityId` is the currency of the whole pipeline: merging produces tuples of
/// `EntityId`s, the ground truth is expressed in `EntityId`s, and metrics
/// compare sets of them. The identifier is stable under any reordering of the
/// tables inside the dataset as long as the per-table row order is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EntityId {
    /// Index of the source table in the dataset.
    pub source: SourceId,
    /// Row index inside the source table.
    pub row: u32,
}

impl EntityId {
    /// Create a new entity id.
    #[inline]
    pub fn new(source: SourceId, row: u32) -> Self {
        Self { source, row }
    }

    /// Pack the id into a single `u64` (source in the high 32 bits). Useful as
    /// a cheap hash-map key or for dense global numbering.
    #[inline]
    pub fn as_u64(self) -> u64 {
        (u64::from(self.source) << 32) | u64::from(self.row)
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.source, self.row)
    }
}

/// A borrowed reference to an entity: its id plus the dataset it lives in.
///
/// This is a convenience for APIs that want to hand out "an entity" without
/// copying the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntityRef {
    /// The entity identifier.
    pub id: EntityId,
}

impl EntityRef {
    /// Wrap an [`EntityId`].
    pub fn new(id: EntityId) -> Self {
        Self { id }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_keeps_source_and_row() {
        for source in [0u32, 1, 7, u32::MAX] {
            for row in [0u32, 1, 1024, u32::MAX] {
                let id = EntityId::new(source, row);
                assert_eq!(
                    (id.as_u64() >> 32, id.as_u64() as u32),
                    (source.into(), row)
                );
            }
        }
    }

    #[test]
    fn ordering_is_source_major() {
        let a = EntityId::new(0, 100);
        let b = EntityId::new(1, 0);
        assert!(a < b);
        let c = EntityId::new(1, 1);
        assert!(b < c);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(EntityId::new(3, 42).to_string(), "3:42");
    }
}
