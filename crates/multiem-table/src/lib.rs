//! Relational table substrate for the MultiEM reproduction.
//!
//! The MultiEM paper (ICDE 2024) operates on a *set of relational tables*
//! `D = {E_1, ..., E_S}` that share a schema. Each table row is an *entity*
//! `e = {(attr_j, val_j)}` and the goal of multi-table entity matching is to
//! group rows from different tables that describe the same real-world entity.
//!
//! This crate provides the data-model layer every other crate builds on:
//!
//! * [`Schema`] / [`AttrId`] — named, ordered attributes shared by all tables
//!   of a dataset;
//! * [`Record`] — one entity (a row), a vector of optional attribute values;
//! * [`Table`] — a source table (a set of records with a source identifier);
//! * [`Dataset`] — the multi-source input `D` plus optional [`GroundTruth`];
//! * [`EntityId`] / [`EntityRef`] — stable identifiers of an entity across the
//!   whole dataset (source table + row index);
//! * [`serialize`] — the entity-to-sentence serialization of Section II-B
//!   (`serialize(e) ::= val_1 val_2 ... val_p`), with attribute projection used
//!   by the enhanced-entity-representation module;
//! * [`csv_io`] — CSV import/export so the real benchmark datasets can be fed
//!   in when available.
//!
//! The substrate is intentionally free of any matching logic; it only models
//! the data and the serialization rules the paper defines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv_io;
pub mod dataset;
pub mod error;
pub mod ids;
pub mod record;
pub mod schema;
pub mod serialize;
pub mod table;

pub use dataset::{Dataset, GroundTruth, MatchTuple};
pub use error::TableError;
pub use ids::{EntityId, EntityRef, SourceId};
pub use record::{Record, Value};
pub use schema::{AttrId, Attribute, Schema};
pub use serialize::{
    serialize_record, serialize_record_projected, serialize_record_substituted, SerializeOptions,
};
pub use table::Table;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, TableError>;
