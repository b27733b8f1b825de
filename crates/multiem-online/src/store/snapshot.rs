//! Snapshot encode and decode: [`EntityStore::snapshot_bytes`] and
//! [`EntityStore::restore_bytes`].
//!
//! A snapshot is the store's `StoreState` — everything but the encoder — in
//! the binary value codec of [`crate::wire`] behind [`wire::SNAPSHOT_MAGIC`].
//! It carries each fact once: the id <-> sequence map as storage's, the
//! partition as the clusters' member lists and each index row's owner as
//! their nodes; the reverse maps are derived on restore.

use super::{EntityStore, StoreState};
use crate::error::OnlineError;
use crate::wire::{self, Field};
use crate::Result;
use multiem_embed::EmbeddingModel;
use serde::Deserialize;

fn failed(e: impl std::fmt::Display) -> OnlineError {
    OnlineError::Snapshot(e.to_string())
}

impl<E: EmbeddingModel> EntityStore<E> {
    /// Serialize the full store state (embeddings, representative index,
    /// cluster partition, ingested records) in the compact binary format of
    /// [`crate::wire`]. The encoder itself is not serialized.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>> {
        let state = &self.state;
        // The entries of the map the derived `Serialize` produces, in its
        // order, written one tree at a time: the index's value tree would be
        // tens of megabytes on a store of a few thousand records.
        let clusters = state.clusters.fields();
        let fields = [
            ("config", Field::Value(&state.config)),
            ("schema", Field::Value(&state.schema)),
            ("records", Field::Value(&state.records)),
            ("stream_source", Field::Value(&state.stream_source)),
            ("clusters", Field::Struct(&clusters)),
            ("pruned_outliers", Field::Value(&state.pruned_outliers)),
        ];
        let mut out = Vec::from(*wire::SNAPSHOT_MAGIC);
        wire::write_fields(&mut out, &fields);
        Ok(out)
    }

    /// Restore a store from [`EntityStore::snapshot_bytes`] output.
    ///
    /// `encoder` must be configured identically to the encoder the snapshot
    /// was taken with (same dimensionality and weights); otherwise new
    /// embeddings would be incompatible with the stored ones.
    pub fn restore_bytes(bytes: &[u8], encoder: E) -> Result<Self> {
        let magic = wire::SNAPSHOT_MAGIC.as_slice();
        let Some(payload) = bytes.strip_prefix(magic) else {
            let Some(rest) = bytes.strip_prefix(&magic[..3]) else {
                return Err(failed("not a snapshot: the `MEB` magic is missing"));
            };
            // The layout version: the digits after `MEB`, else the one byte
            // there (a payload starts with a tag below any digit).
            let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
            let found = &bytes[..3 + digits.max(1).min(rest.len())];
            return Err(OnlineError::Snapshot(format!(
                "snapshot has binary layout `{}`, this build reads `{}` only; \
                 restore it with the build that wrote it",
                String::from_utf8_lossy(found),
                String::from_utf8_lossy(magic),
            )));
        };
        let value = wire::value_from_bytes(payload).map_err(failed)?;
        let mut state = StoreState::from_value(&value).map_err(failed)?;
        // What `try_new` refuses, a restore refuses too: a snapshot is not
        // trusted to carry a configuration this build would not accept.
        state
            .config
            .validate()
            .map_err(OnlineError::InvalidConfig)?;
        if state.records.dim() != encoder.dim() {
            return Err(OnlineError::Snapshot(format!(
                "snapshot embeddings have dim {}, encoder produces dim {}",
                state.records.dim(),
                encoder.dim()
            )));
        }
        // Check storage's id maps and re-attach it to its backing files (a
        // spilling store's snapshot carries the segment index, not the
        // sealed payloads), then derive the table's reverse maps over the
        // sequences storage vouches for.
        state.records.reopen()?;
        let records = &state.records;
        state
            .clusters
            .reindex(records.len(), |seq| records.is_live(seq))
            .map_err(OnlineError::Snapshot)?;
        Ok(Self { encoder, state })
    }
}
