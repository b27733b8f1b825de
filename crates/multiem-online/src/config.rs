//! Configuration of the online entity store.

use multiem_core::MultiEmConfig;
use serde::{Deserialize, Serialize};

/// Tuning of the spill part of the record store
/// ([`crate::storage::RecordStorage`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskStorageConfig {
    /// Directory holding the append-only segment files. One live writer per
    /// directory: two stores appending into the same directory would race on
    /// segment file names.
    pub dir: String,
    /// Records per sealed segment file. Appends accumulate in an in-memory
    /// tail; once the tail reaches this many records it is sealed to disk
    /// and evicted from memory.
    pub segment_records: usize,
    /// Capacity (in records) of the in-memory LRU over sealed records. `0`
    /// disables the cache (every sealed read hits disk).
    pub cache_records: usize,
}

impl DiskStorageConfig {
    /// Disk storage under `dir` with the default segment size (512 records)
    /// and hot cache (1024 records).
    pub fn new(dir: impl Into<String>) -> Self {
        Self {
            dir: dir.into(),
            segment_records: 512,
            cache_records: 1024,
        }
    }
}

/// Where ingested records and their embeddings live (the pluggable record
/// storage selected by [`OnlineConfig::storage`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StorageConfig {
    /// Keep every record and embedding resident (the PR-1/PR-2 behaviour;
    /// memory grows linearly with ingest).
    Memory,
    /// Spill records and embeddings to append-only, CRC-framed segment
    /// files, keeping only the unsealed tail and a bounded hot cache in
    /// memory.
    Disk(DiskStorageConfig),
}

/// Configuration of an [`crate::EntityStore`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// The batch pipeline hyper-parameters reused by the incremental path:
    /// `k` / `m` / `merge_metric` drive the mutual top-K rule, `epsilon`
    /// drives re-pruning (on a delete's survivors and on
    /// [`crate::EntityStore::refresh`]), and `attribute_selection` picks
    /// the projection: when set, the paper's Algorithm 1 runs once over the
    /// bootstrap dataset or, lacking one, over the first ingested batch, and
    /// later records reuse that selection (re-running it on every batch
    /// would silently re-embed the whole store); when clear, every attribute
    /// is embedded (the `w/o EER` ablation).
    pub base: MultiEmConfig,
    /// Whether a new record may merge *directly* into a cluster whose members
    /// all come from the record's own source table. The batch pipeline never
    /// compares two items of the same source table directly (tables are
    /// merged pairwise), so the default is `false`; same-source records can
    /// still end up in one cluster transitively.
    pub match_within_source: bool,
    /// Record/embedding storage backend.
    pub storage: StorageConfig,
}

impl OnlineConfig {
    /// Configuration with the given batch hyper-parameters and the default
    /// online policies.
    pub fn new(base: MultiEmConfig) -> Self {
        Self {
            base,
            match_within_source: false,
            storage: StorageConfig::Memory,
        }
    }

    /// Embed every attribute: clears `base.attribute_selection`.
    pub fn with_all_attributes(mut self) -> Self {
        self.base.attribute_selection = false;
        self
    }

    /// Spill records and embeddings to segment files under `dir` (defaults
    /// from [`DiskStorageConfig::new`]).
    pub fn with_disk_storage(mut self, dir: impl Into<String>) -> Self {
        self.storage = StorageConfig::Disk(DiskStorageConfig::new(dir));
        self
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        if let StorageConfig::Disk(disk) = &self.storage {
            if disk.dir.trim().is_empty() {
                return Err("disk storage needs a non-empty directory".into());
            }
            if disk.segment_records == 0 {
                return Err("disk storage segment_records must be at least 1".into());
            }
        }
        Ok(())
    }
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self::new(MultiEmConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(OnlineConfig::default().validate().is_ok());
    }

    #[test]
    fn with_all_attributes_clears_attribute_selection() {
        assert!(OnlineConfig::default().base.attribute_selection);
        let c = OnlineConfig::default().with_all_attributes();
        assert!(!c.base.attribute_selection);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = OnlineConfig::new(MultiEmConfig {
            k: 0,
            ..MultiEmConfig::default()
        });
        assert!(c.validate().is_err());
    }

    #[test]
    fn storage_config_validates() {
        let c = OnlineConfig::default().with_disk_storage("/tmp/multiem-x");
        assert!(c.validate().is_ok());
        let c = OnlineConfig::default().with_disk_storage("   ");
        assert!(c.validate().is_err());
        let mut c = OnlineConfig::default().with_disk_storage("/tmp/multiem-x");
        if let StorageConfig::Disk(d) = &mut c.storage {
            d.segment_records = 0;
        }
        assert!(c.validate().is_err());
        // The default stays fully resident.
        assert_eq!(OnlineConfig::default().storage, StorageConfig::Memory);
    }
}
