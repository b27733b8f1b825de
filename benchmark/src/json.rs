//! Thin helpers over the repo's own `serde::Value` JSON tree.

pub use serde::Value;

/// Parse a JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))
}

/// Render a JSON document on one line.
pub fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("a Value tree always renders")
}

/// Member `name` of an object.
pub fn get<'a>(value: &'a Value, name: &str) -> Option<&'a Value> {
    value
        .as_map()?
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, v)| v)
}

/// Numeric member `name` of an object (`0.0` when absent).
pub fn num(value: &Value, name: &str) -> f64 {
    get(value, name).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Build an object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON string value.
pub fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

/// `{"record": [title]}` / `{"records": [[title], ...]}` request bodies.
pub fn record_body(title: &str) -> String {
    render(&obj([("record", Value::Seq(vec![s(title)]))]))
}

/// See [`record_body`].
pub fn records_body<'a>(titles: impl IntoIterator<Item = &'a str>) -> String {
    let rows = titles.into_iter().map(|t| Value::Seq(vec![s(t)])).collect();
    render(&obj([("records", Value::Seq(rows))]))
}
