//! Incremental entity store for streaming multi-table entity matching.
//!
//! The batch pipeline of `multiem-core` answers "given these `S` tables, which
//! rows co-refer?" once. Production traffic does not look like that: records
//! arrive continuously, and every new batch is — in the paper's own
//! hierarchical-merging formulation — just one more table to merge into the
//! current integrated state. This crate turns that observation into a
//! long-lived service component, [`EntityStore`]:
//!
//! * [`EntityStore::bootstrap`] initialises the store from an existing dataset
//!   by running the full batch pipeline (attribute selection → representation
//!   → hierarchical merging → density-based pruning) and adopting its output
//!   as the initial cluster state;
//! * [`EntityStore::ingest_batch`] appends a whole table and
//!   [`EntityStore::insert`] appends one record; both run the paper's
//!   mutual-top-K merging rule (Eq. 1) incrementally, checking the new record
//!   against the current *cluster representatives* through an online ANN
//!   index (`O(log N)` HNSW insertion, [`multiem_ann::AnnIndex::insert`]);
//! * [`EntityStore::match_record`] answers read-only "which entities does this
//!   record refer to?" queries without mutating the store;
//! * density-based pruning (Algorithm 4) re-runs over a delete's survivors
//!   and, on [`EntityStore::refresh`], over every multi-member cluster,
//!   splitting outliers off into singletons;
//! * the partition has one owner, the store's cluster table: member lists
//!   and index nodes are stated once, and the representatives and the
//!   record → cluster look-up every read uses are derived from them;
//! * [`EntityStore::snapshot_bytes`] / [`EntityStore::restore_bytes`] persist
//!   and resurrect the full store state (embeddings, ANN index, cluster
//!   partition) so a service can restart without re-ingesting, in the
//!   compact [`wire`] binary format, which also provides the framing of
//!   `multiem-serve`'s write-ahead log;
//! * record and embedding payloads, and the map from a record's id to its
//!   place in the append order, have one owner too: the [`storage`] layer's
//!   [`RecordStorage`] ([`OnlineConfig::storage`]), fully resident by
//!   default, or — given a directory ([`StorageConfig::Disk`]) — spilling
//!   to append-only CRC-framed segment files with a bounded hot cache, so
//!   resident memory stops growing linearly with ingest and snapshots carry
//!   only the segment index (the delta) instead of every record;
//! * [`EntityStore::delete_record`] erases a record end to end: it is
//!   detached from its cluster (whose survivors are pruned again), its
//!   payload is tombstoned in storage, and — for a store
//!   that spills — [`EntityStore::compact_storage`] rewrites segment files
//!   whose live fraction fell to or below 0.6, so deleted records stop
//!   pinning whole files.
//!
//! ```
//! use multiem_core::MultiEmConfig;
//! use multiem_datagen::benchmark_dataset;
//! use multiem_embed::HashedLexicalEncoder;
//! use multiem_online::{EntityStore, OnlineConfig};
//!
//! let data = benchmark_dataset("geo", 0.02).unwrap();
//! let config = OnlineConfig::new(MultiEmConfig { m: 0.35, ..MultiEmConfig::default() });
//! let mut store = EntityStore::new(config, HashedLexicalEncoder::default());
//! for table in data.dataset.tables() {
//!     store.ingest_batch(table).unwrap();
//! }
//! assert!(!store.tuples().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod storage;
pub mod store;
pub mod wire;

pub use config::{DiskStorageConfig, OnlineConfig, StorageConfig};
pub use error::OnlineError;
pub use storage::{CompactionReport, RecordStorage, SegmentStats, StorageStats};
pub use store::{EntityStore, IngestReport, StoreStats};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, OnlineError>;
