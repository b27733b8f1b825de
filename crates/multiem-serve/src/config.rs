//! Serving configuration and the service-level error type.

use crate::obs::ObsConfig;
use crate::wal::FsyncPolicy;
use multiem_online::{OnlineConfig, OnlineError, StorageConfig};
use std::io;
use std::path::PathBuf;

/// Everything that can go wrong while building or operating the service.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid serving configuration.
    Config(String),
    /// Filesystem / network error.
    Io(io::Error),
    /// Error bubbled up from the entity store.
    Store(OnlineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<OnlineError> for ServeError {
    fn from(e: OnlineError) -> Self {
        ServeError::Store(e)
    }
}

/// The name of `storage`'s backend on `/healthz` and in `MANIFEST.json`.
pub(crate) fn backend_name(storage: &StorageConfig) -> &'static str {
    match storage {
        StorageConfig::Memory => "memory",
        StorageConfig::Disk(_) => "disk",
    }
}

/// Configuration of a [`MatchServer`](crate::MatchServer).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of hash-partitioned store shards.
    pub shards: usize,
    /// Worker threads executing parsed requests (the compute pool — not
    /// tied to connection count: each connection has its own reader).
    pub workers: usize,
    /// Attribute names of the served schema (positional).
    pub attributes: Vec<String>,
    /// Store configuration shared by every shard, data-free: attribute
    /// selection off ([`OnlineConfig::with_all_attributes`]). Its `storage`
    /// is where ingested records live (`--storage`): a disk backend needs
    /// `data_dir` and is rooted at `<data_dir>/segments`, and a populated
    /// data dir keeps the backend it was created with.
    pub online: OnlineConfig,
    /// Durability directory (WAL + checkpoints). `None` serves from memory
    /// only.
    pub data_dir: Option<PathBuf>,
    /// WAL fsync policy (ignored without a data dir).
    pub fsync: FsyncPolicy,
    /// Per-shard bound on records admitted but not yet applied: `POST
    /// /records` answers `429` with `Retry-After` when a target shard is
    /// full. `0` rejects every write (useful for drain/maintenance).
    pub queue_depth: u64,
    /// Observability: metrics, tracing and structured logging (see
    /// [`ObsConfig`]).
    pub obs: ObsConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let online = OnlineConfig::new(multiem_core::MultiEmConfig {
            m: 0.35,
            ..multiem_core::MultiEmConfig::default()
        })
        .with_all_attributes();
        Self {
            shards: 4,
            workers: 4,
            attributes: vec!["title".to_string()],
            online,
            data_dir: None,
            fsync: FsyncPolicy::default(),
            queue_depth: 4096,
            obs: ObsConfig::default(),
        }
    }
}
