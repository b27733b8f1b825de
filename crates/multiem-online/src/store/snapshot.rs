//! Snapshot encode and decode: the two formats behind
//! [`EntityStore::snapshot_bytes`] and [`EntityStore::restore_bytes`].
//!
//! A snapshot is the store's `StoreState` — everything but the encoder —
//! either as JSON or as the binary value codec of [`crate::wire`] behind
//! [`wire::SNAPSHOT_MAGIC`]. It carries each fact once: the partition as the
//! clusters' member lists and the index liveness as their nodes; the reverse
//! maps are derived on restore.

use super::{EntityStore, StoreState};
use crate::error::OnlineError;
use crate::storage::RecordStore;
use crate::wire::{self, Field, SnapshotFormat};
use crate::Result;
use multiem_embed::EmbeddingModel;
use serde::Deserialize;

fn failed(e: impl std::fmt::Display) -> OnlineError {
    OnlineError::Snapshot(e.to_string())
}

impl<E: EmbeddingModel> EntityStore<E> {
    /// Serialize the full store state (embeddings, representative index,
    /// cluster partition, ingested records) in the requested wire format.
    /// [`SnapshotFormat::Binary`] is typically 5–10x smaller than JSON (see
    /// [`crate::wire`]); [`EntityStore::restore_bytes`] auto-detects which
    /// one it is handed. The encoder itself is not serialized.
    pub fn snapshot_bytes(&self, format: SnapshotFormat) -> Result<Vec<u8>> {
        let state = &self.state;
        match format {
            SnapshotFormat::Json => serde_json::to_string(state)
                .map(String::into_bytes)
                .map_err(failed),
            SnapshotFormat::Binary => {
                // The entries of the map the derived `Serialize` produces,
                // in its order, written one tree at a time: the value tree
                // of the index and that of the cluster sums are each tens
                // of megabytes on a store of a few thousand records, and a
                // checkpoint's peak memory is whichever trees are alive
                // together.
                let clusters = state.clusters.fields();
                let fields = [
                    ("config", Field::Value(&state.config)),
                    ("schema", Field::Value(&state.schema)),
                    ("records", Field::Value(&state.records)),
                    ("stream_source", Field::Value(&state.stream_source)),
                    ("dense_base", Field::Value(&state.dense_base)),
                    ("entity_of_dense", Field::Value(&state.entity_of_dense)),
                    ("clusters", Field::Struct(&clusters)),
                    (
                        "accepted_since_prune",
                        Field::Value(&state.accepted_since_prune),
                    ),
                    ("pruned_outliers", Field::Value(&state.pruned_outliers)),
                    ("deleted_records", Field::Value(&state.deleted_records)),
                ];
                let mut out = Vec::from(*wire::SNAPSHOT_MAGIC);
                wire::write_fields(&mut out, &fields);
                Ok(out)
            }
        }
    }

    /// Restore a store from [`EntityStore::snapshot_bytes`] output of either
    /// format (binary snapshots are recognised by their magic prefix).
    ///
    /// `encoder` must be configured identically to the encoder the snapshot
    /// was taken with (same dimensionality and weights); otherwise new
    /// embeddings would be incompatible with the stored ones.
    pub fn restore_bytes(bytes: &[u8], encoder: E) -> Result<Self> {
        let magic = wire::SNAPSHOT_MAGIC.as_slice();
        let mut state = if let Some(payload) = bytes.strip_prefix(magic) {
            let value = wire::value_from_bytes(payload).map_err(failed)?;
            StoreState::from_value(&value).map_err(failed)?
        } else if bytes.starts_with(&magic[..3]) {
            return Err(OnlineError::Snapshot(format!(
                "snapshot has binary layout `{}`, this build reads `{}` only; \
                 restore it with the build that wrote it",
                String::from_utf8_lossy(&bytes[..bytes.len().min(magic.len())]),
                String::from_utf8_lossy(magic),
            )));
        } else {
            let text = std::str::from_utf8(bytes)
                .map_err(|e| OnlineError::Snapshot(format!("snapshot is not utf-8: {e}")))?;
            serde_json::from_str::<StoreState>(text).map_err(failed)?
        };
        if state.records.dim() != encoder.dim() {
            return Err(OnlineError::Snapshot(format!(
                "snapshot embeddings have dim {}, encoder produces dim {}",
                state.records.dim(),
                encoder.dim()
            )));
        }
        state
            .clusters
            .reindex(state.entity_of_dense.len())
            .map_err(OnlineError::Snapshot)?;
        // Re-attach the storage backend to its backing files (disk-backed
        // snapshots carry the segment index, not the sealed payloads).
        state.records.reopen()?;
        Ok(Self { encoder, state })
    }

    /// [`EntityStore::snapshot_bytes`] as a JSON string.
    pub fn snapshot_json(&self) -> Result<String> {
        let bytes = self.snapshot_bytes(SnapshotFormat::Json)?;
        String::from_utf8(bytes).map_err(failed)
    }

    /// [`EntityStore::restore_bytes`] of a JSON string.
    pub fn restore_json(snapshot: &str, encoder: E) -> Result<Self> {
        Self::restore_bytes(snapshot.as_bytes(), encoder)
    }
}
