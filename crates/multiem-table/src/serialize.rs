//! Entity serialization (Section II-B of the paper).
//!
//! Pre-trained sentence encoders take sentences as input, so each structural
//! entity is serialized to a text sequence by concatenating attribute values
//! (attribute names are omitted):
//!
//! ```text
//! serialize(e) ::= val_1 val_2 ... val_p
//! ```
//!
//! The enhanced-entity-representation module additionally serializes using only
//! a *selected subset* of attributes; [`serialize_record_projected`] supports
//! that projection.

use crate::record::{Record, Value};
use crate::schema::AttrId;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Options controlling entity serialization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SerializeOptions {
    /// Lowercase the serialized text (the paper's examples are lowercased,
    /// e.g. "apple iphone 8 plus 64gb silver").
    pub lowercase: bool,
    /// Maximum number of whitespace-separated tokens kept (the paper truncates
    /// to a maximum sequence length of 64).
    pub max_tokens: Option<usize>,
    /// Separator inserted between attribute values.
    pub separator: char,
}

impl Default for SerializeOptions {
    fn default() -> Self {
        Self {
            lowercase: true,
            max_tokens: Some(64),
            separator: ' ',
        }
    }
}

fn postprocess(text: String, opts: &SerializeOptions) -> String {
    let text = if opts.lowercase {
        text.to_lowercase()
    } else {
        text
    };
    match opts.max_tokens {
        Some(limit) => {
            let mut out = String::with_capacity(text.len());
            for (i, tok) in text.split_whitespace().enumerate() {
                if i >= limit {
                    break;
                }
                if i > 0 {
                    out.push(opts.separator);
                }
                out.push_str(tok);
            }
            out
        }
        None => {
            // Normalise whitespace runs to single separators for determinism.
            let mut out = String::with_capacity(text.len());
            for (i, tok) in text.split_whitespace().enumerate() {
                if i > 0 {
                    out.push(opts.separator);
                }
                out.push_str(tok);
            }
            out
        }
    }
}

/// Serialize a record using **all** attributes: `val_1 val_2 ... val_p`.
pub fn serialize_record(record: &Record, opts: &SerializeOptions) -> String {
    let mut text = String::new();
    for v in record.values() {
        let rendered = v.render();
        if rendered.trim().is_empty() {
            continue;
        }
        if !text.is_empty() {
            text.push(opts.separator);
        }
        text.push_str(rendered.trim());
    }
    postprocess(text, opts)
}

/// Serialize a record using only the attributes listed in `attrs`
/// (in the given order). This is the projection used after the automated
/// attribute selection of Algorithm 1.
pub fn serialize_record_projected(
    record: &Record,
    attrs: &[AttrId],
    opts: &SerializeOptions,
) -> String {
    serialize_values(|a| record.value(a), attrs, opts)
}

/// [`serialize_record_projected`] of `record` with `value` in place of its
/// value of attribute `attr`, without copying the record. Algorithm 1
/// serializes every sampled entity this way once per attribute, with that
/// attribute's values shuffled.
pub fn serialize_record_substituted(
    record: &Record,
    attr: AttrId,
    value: &Value,
    attrs: &[AttrId],
    opts: &SerializeOptions,
) -> String {
    let value_of = |a| {
        record
            .value(a)
            .map(|own| if a == attr { value } else { own })
    };
    serialize_values(value_of, attrs, opts)
}

/// The values `value_of` gives for `attrs`, in order, serialized.
fn serialize_values<'v>(
    value_of: impl Fn(AttrId) -> Option<&'v Value>,
    attrs: &[AttrId],
    opts: &SerializeOptions,
) -> String {
    let mut text = String::new();
    for &a in attrs {
        let Some(v) = value_of(a) else { continue };
        // A text value is appended from where it lies; only the others are
        // rendered.
        let rendered = match v {
            Value::Text(s) => Cow::Borrowed(s.as_str()),
            other => Cow::Owned(other.render()),
        };
        let trimmed = rendered.trim();
        if trimmed.is_empty() {
            continue;
        }
        if !text.is_empty() {
            text.push(opts.separator);
        }
        text.push_str(trimmed);
    }
    postprocess(text, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, Value};

    #[test]
    fn serializes_example_from_paper() {
        // Figure 1, entity A1: "apple iphone 8 plus 64gb" / "silver"
        let r = Record::from_texts(["Apple iPhone 8 plus 64GB", "Silver"]);
        let s = serialize_record(&r, &SerializeOptions::default());
        assert_eq!(s, "apple iphone 8 plus 64gb silver");
    }

    #[test]
    fn substituting_a_value_serializes_as_the_edited_record() {
        let r = Record::new(vec![
            Value::Text("Golden Heart".into()),
            Value::Null,
            Value::Number(1998.0),
        ]);
        let values = [
            Value::Text("  ".into()),
            Value::Text("River".into()),
            Value::Null,
        ];
        let attrs: [&[AttrId]; 3] = [&[0, 1, 2], &[2, 0], &[1]];
        for attrs in attrs {
            for attr in 0..4 {
                for value in &values {
                    let mut edited = r.clone();
                    edited.set_value(attr, value.clone());
                    let opts = SerializeOptions::default();
                    assert_eq!(
                        serialize_record_substituted(&r, attr, value, attrs, &opts),
                        serialize_record_projected(&edited, attrs, &opts),
                        "attr {attr}, {value:?}, {attrs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn skips_null_and_blank_values() {
        let r = Record::new(vec![
            Value::Text("hello".into()),
            Value::Null,
            Value::Text("  ".into()),
            Value::Text("world".into()),
        ]);
        assert_eq!(
            serialize_record(&r, &SerializeOptions::default()),
            "hello world"
        );
    }

    #[test]
    fn renders_numbers_without_decimal_noise() {
        let r = Record::new(vec![Value::Text("song".into()), Value::Number(1998.0)]);
        assert_eq!(
            serialize_record(&r, &SerializeOptions::default()),
            "song 1998"
        );
    }

    #[test]
    fn truncates_to_max_tokens() {
        let long: Vec<String> = (0..100).map(|i| format!("tok{i}")).collect();
        let r = Record::from_texts([long.join(" ")]);
        let opts = SerializeOptions {
            max_tokens: Some(5),
            ..SerializeOptions::default()
        };
        let s = serialize_record(&r, &opts);
        assert_eq!(s.split_whitespace().count(), 5);
        assert!(s.starts_with("tok0 tok1"));
    }

    #[test]
    fn projection_respects_order_and_subset() {
        let r = Record::from_texts(["id-99", "Megna's", "Tim O'Brien", "Chameleon"]);
        let s = serialize_record_projected(&r, &[3, 1], &SerializeOptions::default());
        assert_eq!(s, "chameleon megna's");
        let s_all = serialize_record(&r, &SerializeOptions::default());
        assert!(s_all.contains("id-99"));
    }

    #[test]
    fn projection_with_out_of_range_attr_is_ignored() {
        let r = Record::from_texts(["a", "b"]);
        let s = serialize_record_projected(&r, &[0, 7], &SerializeOptions::default());
        assert_eq!(s, "a");
    }

    #[test]
    fn options_without_lowercasing_preserve_case() {
        let r = Record::from_texts(["Apple iPhone"]);
        let opts = SerializeOptions {
            lowercase: false,
            ..SerializeOptions::default()
        };
        assert_eq!(serialize_record(&r, &opts), "Apple iPhone");
    }

    #[test]
    fn whitespace_runs_are_normalised() {
        let r = Record::from_texts(["a   b\t c"]);
        assert_eq!(serialize_record(&r, &SerializeOptions::default()), "a b c");
    }
}
