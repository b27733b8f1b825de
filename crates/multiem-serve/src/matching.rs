//! The read path: `POST /match`, one fan-out over the shards per request
//! ([`ShardedEntityStore::match_record_timed`]).

use crate::obs::Stage;
use crate::routes::{field, obj, parse_body, record_from_value, ApiError, Call};
use multiem_embed::EmbeddingModel;
use serde::Value;

/// `POST /match`.
pub(crate) fn post_match<E: EmbeddingModel>(call: Call<'_, E>) -> Result<Value, ApiError> {
    let (state, body, trace) = (call.state, call.body, call.trace);
    let value = parse_body(body)?;
    let record = field(&value, "record")
        .ok_or_else(|| "body must be {\"record\": [...]}".to_string())
        .and_then(record_from_value)
        .map_err(ApiError::bad_request)?;
    if record.arity() != state.config.attributes.len() {
        return Err(ApiError::bad_request(format!(
            "record has {} values, schema has {} attributes",
            record.arity(),
            state.config.attributes.len()
        )));
    }
    let (ranked, timing) = state.store.match_record_timed(&record);
    // The fan-out's wall time decomposes into the slowest shard's search
    // (the critical path), the merge, and scatter/gather coordination.
    trace.add(Stage::AnnSearch, timing.ann_max_ns);
    trace.add(Stage::RankMerge, timing.merge_ns);
    trace.add(Stage::FanOut, timing.coordination_ns());
    trace.set_fan_out_width(timing.fan_out);
    // The best match is this request's "result entity" for /debug/top.
    if let Some((gid, _)) = ranked.first() {
        state.telemetry.note_match_entity(&gid.to_string());
    }
    let matches = ranked.into_iter().map(|(gid, distance)| {
        let mut hit = gid.fields();
        hit.push(("distance".into(), Value::Float(f64::from(distance))));
        Value::Map(hit)
    });
    Ok(obj([("matches", Value::Seq(matches.collect()))]))
}
