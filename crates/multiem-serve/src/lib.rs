//! Sharded, WAL-durable serving layer over the online
//! [`EntityStore`](multiem_online::EntityStore).
//!
//! PR 1 made MultiEM incremental; this crate makes it *deployable*. The
//! paper's mutual-top-K + density-pruning pipeline becomes a long-running
//! JSON service in the shape the related `VectorDB` repo uses for vector
//! stores — a thin request layer over a sharded, concurrently readable
//! index:
//!
//! * [`ShardedEntityStore`] — N hash-partitioned stores, each behind its own
//!   `RwLock`: single-writer-per-shard ingestion, fully concurrent
//!   cross-shard reads, and a fan-out [`ShardedEntityStore::match_record`]
//!   that merges per-shard candidates under the paper's mutual top-K rule;
//! * [`Wal`] — a binary, length-prefixed, CRC-framed write-ahead log (the
//!   framing lives in [`multiem_online::wire`], shared with the compact
//!   snapshot codec and the segment files) with replay-on-startup, a
//!   configurable [`FsyncPolicy`] for machine-crash durability, and
//!   epoch-versioned **delta** checkpoints (only dirty shards re-snapshot;
//!   the atomic manifest rename stays the commit point), so restarts never
//!   re-ingest;
//! * pluggable record storage per shard (`online.storage` of the
//!   [`ServeConfig`], `--storage mem|disk`): the disk backend spills
//!   records and embeddings to append-only segment files with a bounded
//!   hot cache, so serving memory stops growing linearly with ingest; a
//!   data dir records its backend at creation and keeps it;
//! * backpressure — a bounded per-shard ingest queue; `POST /records`
//!   answers `429` with a `Retry-After` derived from the rejecting shard's
//!   backlog and measured drain rate when a target shard is full;
//! * record deletion — `DELETE /records/{id}` and the batch
//!   `POST /records/delete` WAL-append a [`WalOp::Delete`] and detach the
//!   record from its cluster; tombstoned records are reclaimed from disk
//!   by the checkpoint-time segment compaction
//!   ([`multiem_online::RecordStorage::compact`]);
//! * [`MatchServer`] — a dependency-free HTTP/1.1 server whose routes are
//!   the rows of one route table ([`MatchServer::routes`] lists them;
//!   README's endpoint table is checked against it), fronted by
//!   the [`Reactor`] in [`net`]: an acceptor hands each keep-alive
//!   connection to a reader thread blocked in `read`, so a request is parsed
//!   as soon as its bytes arrive (incremental parsing, pipelining, responses
//!   written by whichever thread completes them), and only fully parsed
//!   requests occupy the fixed-size worker thread pool — so connection count
//!   and worker count scale independently, and graceful shutdown drains
//!   in-flight requests and flushes WALs before exit;
//! * observability ([`obs`]) — a dependency-free metrics registry behind
//!   `GET /metrics` (Prometheus text exposition; counters, gauges and
//!   lock-free log-linear latency histograms), per-request span traces
//!   (`--trace-sample-rate`, `--slow-request-ms`) whose stage durations sum
//!   exactly to the access-log latency, and leveled JSON-lines structured
//!   logging (`--log-level`, `--access-log`, size-based rotation via
//!   `--log-rotate-bytes`). Scraping never takes a shard or WAL lock, and
//!   everything with measurable cost sits behind `--no-telemetry`, which is
//!   how the repository's benchmark measures the overhead;
//! * workload analytics ([`obs::window`], [`obs::topk`], [`obs::exemplar`])
//!   — a rolling time window of per-endpoint latency histograms, windowed
//!   heavy-hitter sketches over ingest sources / shards / matched entities,
//!   and a ring of slowest-request exemplars, served lock-free from
//!   `GET /debug/window`, `/debug/top`, `/debug/slow` and `/debug/storage`
//!   inline on the connection's reader (rendered live by the `obstop` terminal
//!   dashboard), with `GET /readyz` degrading to `503` on ingest backlog or
//!   windowed fsync-latency thresholds.
//!
//! ```no_run
//! use multiem_embed::HashedLexicalEncoder;
//! use multiem_serve::{MatchServer, ServeConfig};
//!
//! let server = MatchServer::bind(
//!     ServeConfig::default(),
//!     HashedLexicalEncoder::default(),
//!     "127.0.0.1:7878",
//! )
//! .expect("bind");
//! server.run().expect("serve");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
pub mod config;
pub mod http;
mod ingest;
mod matching;
pub mod net;
pub mod obs;
mod routes;
pub mod server;
pub mod shard;
pub mod sync;
mod views;
pub mod wal;

pub use config::{ServeConfig, ServeError};
pub use net::Reactor;
pub use obs::{ObsConfig, Telemetry};
pub use server::{MatchServer, ServerHandle};
pub use shard::{GlobalEntityId, MatchTiming, ShardStats, ShardedEntityStore, ShardedStats};
pub use sync::{lock_unpoisoned, LockClass, OrderedMutex, OrderedRwLock};
pub use wal::{AppendTiming, FsyncPolicy, Wal, WalOp};
