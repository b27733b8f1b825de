//! The write path: queue admission, group-commit ingestion, deletion.
//!
//! Every write follows one protocol: take the target shard's write lock,
//! append the ops to *that shard's* WAL ([`log_ops`]), then apply them —
//! `shard → wal` lock order everywhere, so writers to different shards
//! share nothing.

use crate::obs::{elapsed_ns, Stage, Trace};
use crate::routes::{field, obj, parse_body, record_from_value, ApiError, Call};
use crate::server::ServerState;
use crate::shard::{apply_insert, route_token, GlobalEntityId};
use crate::sync::lock_unpoisoned;
use crate::wal::WalOp;
use multiem_embed::EmbeddingModel;
use multiem_table::Record;
use serde::Value;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Per-shard drain-rate sample: the applied-record counter at the start of
/// the current window, and the rate the last *completed* window measured.
pub(crate) struct DrainWindow {
    since: Instant,
    drained: u64,
    /// Records/s over the last completed window (`0.0` until one closes —
    /// conservatively treated as "no measurable drain").
    rate: f64,
}

impl DrainWindow {
    pub fn new() -> Self {
        Self {
            since: Instant::now(),
            drained: 0,
            rate: 0.0,
        }
    }

    /// Close the window (at >= 1 s granularity) against the current applied
    /// count and return the freshest rate estimate. Sampling happens on
    /// 429s, so under a sustained burst the estimate tracks the *current*
    /// shard throughput within about a second — a lifetime average would
    /// report hours-old rates on long-lived servers.
    fn sample(&mut self, drained_now: u64) -> f64 {
        let dt = self.since.elapsed().as_secs_f64();
        if dt >= 1.0 {
            self.rate = drained_now.saturating_sub(self.drained) as f64 / dt;
            self.since = Instant::now();
            self.drained = drained_now;
        }
        self.rate
    }
}

/// `Retry-After` seconds for a 429: how long the rejecting shard needs to
/// drain its current backlog at its recently measured ingest rate, clamped
/// to `1..=30`. A shard with no measurable drain (stalled, or no window has
/// closed yet) gets the maximum backoff instead of a hardcoded `1` that
/// would send every client straight back into the full queue.
fn derive_retry_after(backlog: u64, rate: f64) -> u64 {
    if rate <= 0.0 {
        return 30;
    }
    ((backlog as f64 / rate).ceil() as u64).clamp(1, 30)
}

/// Admission slots on the per-shard ingest queues, released on drop (also
/// on error paths, so a failed insert never leaks queue capacity).
struct QueueSlots<'a, E: EmbeddingModel> {
    state: &'a ServerState<E>,
    /// `(shard, records admitted)` pairs.
    acquired: Vec<(usize, u64)>,
}

impl<E: EmbeddingModel> Drop for QueueSlots<'_, E> {
    fn drop(&mut self) {
        for &(shard, n) in &self.acquired {
            self.state.inflight[shard].fetch_sub(n, Ordering::SeqCst);
        }
    }
}

/// `(shard, indices of the records routed to it)`, in first-seen shard
/// order; within a shard, request order. `shards[i]` is record `i`'s shard.
fn group_by_shard(shards: &[usize]) -> Vec<(usize, Vec<usize>)> {
    let mut by_shard: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, &shard) in shards.iter().enumerate() {
        match by_shard.iter_mut().find(|(s, _)| *s == shard) {
            Some((_, indices)) => indices.push(i),
            None => by_shard.push((shard, vec![i])),
        }
    }
    by_shard
}

/// Admit a whole batch onto its target shards' queues, or refuse the batch
/// atomically when any shard lacks room: a `429` whose `Retry-After` comes
/// from the refusing shard's backlog and measured drain rate. A batch that
/// can *never* fit (a per-shard count above the queue depth) would loop
/// forever if retried verbatim, so it is a terminal `400` instead.
/// (`queue_depth == 0` is the explicit drain mode, where 429-everything is
/// the intent.)
fn admit<'a, E: EmbeddingModel>(
    state: &'a ServerState<E>,
    by_shard: &[(usize, Vec<usize>)],
) -> Result<QueueSlots<'a, E>, ApiError> {
    let depth = state.config.queue_depth;
    let oversized = by_shard
        .iter()
        .find(|(_, indices)| depth > 0 && indices.len() as u64 > depth);
    if let Some((shard, indices)) = oversized {
        return Err(ApiError::bad_request(format!(
            "batch routes {} records to shard {shard}, above the ingest queue \
             depth {depth}; split the batch",
            indices.len()
        )));
    }
    let mut slots = QueueSlots {
        state,
        acquired: Vec::with_capacity(by_shard.len()),
    };
    for (shard, indices) in by_shard {
        let (shard, n) = (*shard, indices.len() as u64);
        let before = state.inflight[shard].fetch_add(n, Ordering::SeqCst);
        slots.acquired.push((shard, n));
        if before + n > state.config.queue_depth {
            // Rolls back every acquisition.
            drop(slots);
            let rejected: u64 = by_shard.iter().map(|(_, i)| i.len() as u64).sum();
            // relaxed-ok: standalone rejection counter, no ordering with other state
            state.rejected.fetch_add(rejected, Ordering::Relaxed);
            state.telemetry.metrics.rejected_records.add(rejected);
            // relaxed-ok: the drain estimate is advisory; a stale read skews one Retry-After
            let drained_now = state.drained[shard].load(Ordering::Relaxed);
            let rate = lock_unpoisoned(&state.drain_windows[shard]).sample(drained_now);
            let backlog = state.inflight[shard].load(Ordering::SeqCst) + rejected;
            return Err(ApiError::overloaded(
                rejected,
                derive_retry_after(backlog, rate),
            ));
        }
    }
    Ok(slots)
}

/// Append `ops()` to `shard`'s WAL — whose write lock the caller holds —
/// publish the log's new size for the lock-free views, and fold the
/// append's timing into the request trace and the WAL counters
/// (`wal_append` excludes the fsync portion; `fsync` gets it). A no-op
/// without a data dir, in which case `ops` is never built.
fn log_ops<E: EmbeddingModel>(
    state: &ServerState<E>,
    shard: usize,
    trace: &mut Trace,
    ops: impl FnOnce() -> Vec<WalOp>,
) -> Result<(), ApiError> {
    let Some(wals) = &state.wals else {
        return Ok(());
    };
    let ops = ops();
    let mut wal = wals[shard].lock();
    let timing = wal
        .append_batch_timed(&ops)
        .map_err(|e| ApiError::internal(format!("wal append failed: {e}")))?;
    // relaxed-ok: published size for lock-free /stats; staleness is benign
    state.wal_bytes[shard].store(wal.bytes(), Ordering::Relaxed);
    trace.add(
        Stage::WalAppend,
        timing.total_ns.saturating_sub(timing.fsync_ns),
    );
    trace.add(Stage::Fsync, timing.fsync_ns);
    let metrics = &state.telemetry.metrics;
    metrics.wal_appended_bytes.add(timing.appended_bytes);
    if timing.fsynced {
        metrics.wal_fsyncs.inc();
        // The rolling fsync window is the `/readyz` degradation signal.
        state.telemetry.record_fsync_window(timing.fsync_ns);
    }
    Ok(())
}

/// `POST /records`.
pub(crate) fn post_records<E: EmbeddingModel>(call: Call<'_, E>) -> Result<Value, ApiError> {
    let (state, body, trace) = (call.state, call.body, call.trace);
    let value = parse_body(body)?;
    let records = field(&value, "records")
        .and_then(Value::as_seq)
        .ok_or_else(|| ApiError::bad_request("body must be {\"records\": [[...], ...]}"))?;
    let arity = state.config.attributes.len();
    let mut parsed = Vec::with_capacity(records.len());
    for (i, item) in records.iter().enumerate() {
        let record = record_from_value(item)
            .map_err(|e| ApiError::bad_request(format!("records[{i}]: {e}")))?;
        if record.arity() != arity {
            return Err(ApiError::bad_request(format!(
                "records[{i}] has {} values, schema has {arity} attributes",
                record.arity()
            )));
        }
        parsed.push(record);
    }

    // Backpressure: the whole batch is admitted or refused before any write
    // lands, so a 429 never leaves a half-applied request behind. The slots
    // release when the request finishes (`_slots` drops on every path).
    let shards: Vec<usize> = parsed.iter().map(|r| state.store.shard_of(r)).collect();
    let by_shard = group_by_shard(&shards);
    let _slots = admit(state, &by_shard)?;

    // Heavy-hitter analytics, before any lock: the source key is the
    // routing token, so `/debug/top` ranks what drives placement.
    if state.telemetry.analytics.is_some() {
        for (record, shard) in parsed.iter().zip(shards) {
            state.telemetry.note_source(&route_token(record));
            state.telemetry.note_shard(shard);
        }
    }

    // Group-commit: each shard's group rides ONE WAL batch append (one
    // frame run, one fsync decision) followed by the applies, all under a
    // single acquisition of that shard's write lock. Per-shard order still
    // follows request order, so WAL replay reconstructs exactly the same
    // state as per-record appends — the bytes on disk are identical, there
    // are just fewer fsyncs.
    let mut parsed: Vec<Option<Record>> = parsed.into_iter().map(Some).collect();
    let mut results: Vec<Option<Value>> = (0..parsed.len()).map(|_| None).collect();
    for (shard, indices) in by_shard {
        let mut guard = state.store.write_shard(shard);
        // `indices` partitions `0..parsed.len()`, so every slot is still
        // `Some` here; `filter_map` keeps the path panic-free regardless.
        log_ops(state, shard, trace, || {
            let group = indices.iter().filter_map(|&i| parsed[i].clone());
            group.map(WalOp::Insert).collect()
        })?;
        let apply_started = Instant::now();
        let mut applied = 0u64;
        for i in indices {
            let Some(record) = parsed[i].take() else {
                return Err(ApiError::internal(format!(
                    "internal routing error: records[{i}] dispatched twice"
                )));
            };
            let (gid, matched) = apply_insert(&mut guard, shard, record)?;
            applied += 1;
            let mut result = gid.fields();
            result.push(("matched".into(), Value::Bool(matched)));
            results[i] = Some(Value::Map(result));
        }
        trace.add(Stage::Apply, elapsed_ns(apply_started));
        state.write_seq[shard].fetch_add(applied, Ordering::SeqCst);
        // relaxed-ok: drain-rate sample counter; the estimate is advisory
        state.drained[shard].fetch_add(applied, Ordering::Relaxed);
        state.telemetry.metrics.ingested_records.add(applied);
        state.telemetry.record_ingest_batch(applied);
    }
    let results: Vec<Value> = results.into_iter().flatten().collect();
    Ok(obj([
        ("ingested", Value::UInt(results.len() as u64)),
        ("results", Value::Seq(results)),
    ]))
}

/// Apply one deletion: WAL-append first (the op must survive a crash that
/// happens mid-apply), then detach the record under the shard's write lock.
/// A delete of an unknown id still logs — replaying it is a no-op, and the
/// log stays a faithful record of what was requested. A failure here is a
/// `500`: already-applied deletions of a batch stand, and retrying is safe
/// because deletion is idempotent.
fn delete_one<E: EmbeddingModel>(
    state: &ServerState<E>,
    id: GlobalEntityId,
    trace: &mut Trace,
) -> Result<bool, ApiError> {
    let shard = id.shard as usize;
    if shard >= state.store.num_shards() {
        return Ok(false);
    }
    let mut guard = state.store.write_shard(shard);
    log_ops(state, shard, trace, || vec![WalOp::Delete(id.entity)])?;
    let apply_started = Instant::now();
    let deleted = guard.delete_record(id.entity)?;
    trace.add(Stage::Apply, elapsed_ns(apply_started));
    if deleted {
        state.write_seq[shard].fetch_add(1, Ordering::SeqCst);
        state.telemetry.metrics.deleted_records.inc();
    }
    Ok(deleted)
}

/// `DELETE /records/{shard}-{source}-{row}`: `tail` is the id triple `POST
/// /records` returned for the record.
pub(crate) fn delete_record<E: EmbeddingModel>(call: Call<'_, E>) -> Result<Value, ApiError> {
    let (state, tail, trace) = (call.state, call.tail, call.trace);
    let id = tail.parse().map_err(|()| {
        ApiError::bad_request("record id must be shard-source-row (e.g. /records/0-1-42)")
    })?;
    if delete_one(state, id, trace)? {
        Ok(obj([("deleted", Value::Bool(true))]))
    } else {
        Err(ApiError::not_found("unknown or already-deleted record"))
    }
}

/// `POST /records/delete`: batch deletion of `{"ids": [[shard, source,
/// row], ...]}` triples. Per-id outcomes come back positionally; unknown or
/// repeated ids report `false` rather than failing the batch.
pub(crate) fn post_delete<E: EmbeddingModel>(call: Call<'_, E>) -> Result<Value, ApiError> {
    let (state, body, trace) = (call.state, call.body, call.trace);
    let value = parse_body(body)?;
    let ids = field(&value, "ids")
        .and_then(Value::as_seq)
        .ok_or_else(|| {
            ApiError::bad_request("body must be {\"ids\": [[shard, source, row], ...]}")
        })?;
    let mut parsed = Vec::with_capacity(ids.len());
    for (i, item) in ids.iter().enumerate() {
        let id = item
            .as_seq()
            .and_then(|seq| GlobalEntityId::from_parts(seq.iter().map(Value::as_u64)))
            .ok_or_else(|| {
                ApiError::bad_request(format!("ids[{i}] must be a [shard, source, row] triple"))
            })?;
        parsed.push(id);
    }
    let mut results = Vec::with_capacity(parsed.len());
    for id in parsed {
        results.push(delete_one(state, id, trace)?);
    }
    let deleted = results.iter().filter(|&&ok| ok).count();
    let results = results.into_iter().map(Value::Bool);
    Ok(obj([
        ("deleted", Value::UInt(deleted as u64)),
        ("missing", Value::UInt((results.len() - deleted) as u64)),
        ("results", Value::Seq(results.collect())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_tracks_backlog_over_drain_rate() {
        // No measurable drain: maximum backoff, not a hardcoded 1.
        assert_eq!(derive_retry_after(10, 0.0), 30);
        // 5 queued at 10 records/s drain in 1s.
        assert_eq!(derive_retry_after(5, 10.0), 1);
        // 50 queued at 10/s = 5s.
        assert_eq!(derive_retry_after(50, 10.0), 5);
        // A deep backlog over a slow shard clamps at 30.
        assert_eq!(derive_retry_after(10_000, 0.1), 30);
        // A tiny backlog still asks for at least one second.
        assert_eq!(derive_retry_after(1, 1_000_000.0), 1);
    }

    #[test]
    fn drain_window_measures_recent_rate_not_lifetime() {
        let mut window = DrainWindow {
            since: Instant::now() - std::time::Duration::from_secs(2),
            drained: 0,
            rate: 0.0,
        };
        // 100 records applied over the 2s window: ~50/s.
        let rate = window.sample(100);
        assert!((40.0..=60.0).contains(&rate), "rate {rate}");
        // Within the same (fresh) window the stored estimate answers; the
        // extra 100 records do not skew it until a window closes.
        let again = window.sample(200);
        assert_eq!(again, rate);
        // A fresh window has no estimate yet.
        assert_eq!(DrainWindow::new().sample(0), 0.0);
    }
}
