//! Records (entities): one row of a source table.

use crate::schema::AttrId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The value of one attribute of an entity.
///
/// The benchmark datasets mix free text (`title`), numerics (`latitude`,
/// `year`) and missing values, so the value model distinguishes those three
/// cases. Everything is ultimately serialized to text before embedding
/// (Section II-B of the paper), but keeping numbers typed lets the dataset
/// generators apply numeric noise and lets downstream code do typed reasoning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Free-form text.
    Text(String),
    /// Numeric value (stored as f64; integers round-trip exactly up to 2^53).
    Number(f64),
    /// Missing / unknown value.
    Null,
}

impl Value {
    /// Text rendering used by entity serialization. `Null` renders as an empty
    /// string, numbers drop a trailing `.0` so `2018.0` serializes as `2018`.
    pub fn render(&self) -> String {
        match self {
            Value::Text(s) => s.clone(),
            Value::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            Value::Null => String::new(),
        }
    }

    /// Whether the value is missing or renders to an empty / whitespace string.
    pub fn is_empty(&self) -> bool {
        match self {
            Value::Null => true,
            Value::Text(s) => s.trim().is_empty(),
            Value::Number(_) => false,
        }
    }

    /// Borrow the text content if this is a text value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Numeric content if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Number(n as f64)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// One entity: an ordered vector of attribute values aligned with a [`Schema`](crate::schema::Schema).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    values: Vec<Value>,
}

impl Record {
    /// Build a record from values. The caller is responsible for aligning the
    /// values with the table schema ([`crate::Table::push`] checks arity).
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// Build a record of text values.
    pub fn from_texts<I, S>(texts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            values: texts.into_iter().map(|t| Value::Text(t.into())).collect(),
        }
    }

    /// Number of attribute values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// All values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at attribute index `attr`.
    pub fn value(&self, attr: AttrId) -> Option<&Value> {
        self.values.get(attr)
    }

    /// Replace the value at `attr`, returning the previous value.
    pub fn set_value(&mut self, attr: AttrId, value: Value) -> Option<Value> {
        self.values
            .get_mut(attr)
            .map(|slot| std::mem::replace(slot, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_number_drops_trailing_zero() {
        assert_eq!(Value::Number(2018.0).render(), "2018");
        assert_eq!(Value::Number(3.5).render(), "3.5");
        assert_eq!(Value::Number(-7.0).render(), "-7");
    }

    #[test]
    fn null_and_blank_are_empty() {
        assert!(Value::Null.is_empty());
        assert!(Value::Text("   ".into()).is_empty());
        assert!(!Value::Text("x".into()).is_empty());
        assert!(!Value::Number(0.0).is_empty());
    }

    #[test]
    fn record_accessors() {
        let mut r = Record::from_texts(["Chameleon", "Tim O'Brien"]);
        assert_eq!(r.arity(), 2);

        let old = r.set_value(0, Value::Text("Hitmen".into())).unwrap();
        assert_eq!(old.render(), "Chameleon");
        assert_eq!(r.value(0).unwrap().render(), "Hitmen");
        assert_eq!(r.set_value(9, Value::Null), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from("a"), Value::Text("a".into()));
        assert_eq!(Value::from(3i64), Value::Number(3.0));
        assert_eq!(Value::from(2.5f64), Value::Number(2.5));
    }
}
