//! Schemas: ordered, named attributes shared by every table of a dataset.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Index of an attribute within a [`Schema`].
pub type AttrId = usize;

/// A single attribute (column) definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name (e.g. `title`, `artist`).
    pub name: String,
}

impl Attribute {
    /// Create an attribute with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

/// An ordered collection of attributes.
///
/// The MultiEM problem definition assumes all `S` tables share the same schema;
/// [`crate::Dataset`] enforces this. `Schema` is cheaply cloneable (callers
/// normally share it through [`Schema::shared`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Build a schema from attribute names.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let attributes = names
            .into_iter()
            .map(|n| Attribute::new(n.into()))
            .collect();
        Self { attributes }
    }

    /// Wrap this schema in an [`Arc`] for sharing across tables.
    pub fn shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// The attributes, in declaration order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Attribute names, in declaration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().map(|a| a.name.as_str())
    }

    /// Name of the attribute at `id`, if any.
    pub fn name(&self, id: AttrId) -> Option<&str> {
        self.attributes.get(id).map(|a| a.name.as_str())
    }

    /// Whether two schemas define the same attribute names in the same order.
    pub fn same_shape(&self, other: &Schema) -> bool {
        self.attributes == other.attributes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_and_lookup_by_id() {
        let s = Schema::new(["title", "artist", "album"]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.name(2), Some("album"));
        assert_eq!(s.name(5), None);
    }

    #[test]
    fn same_shape_detects_order() {
        let a = Schema::new(["x", "y"]);
        let b = Schema::new(["x", "y"]);
        let c = Schema::new(["y", "x"]);
        assert!(a.same_shape(&b));
        assert!(!a.same_shape(&c));
    }

    #[test]
    fn serde_roundtrip_preserves_lookup() {
        let s = Schema::new(["name", "longtitude", "latitude"]);
        let json = serde_json::to_string(&s).unwrap();
        let back: Schema = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name(2), Some("latitude"));
        assert!(s.same_shape(&back));
    }

    #[test]
    fn empty_schema() {
        let s = Schema::new(Vec::<String>::new());
        assert!(s.is_empty());
    }
}
