//! The write path: queue admission, group-commit ingestion, deletion.
//!
//! Every write — a request's or a replayed one — is a [`WalOp`] that goes
//! through its shard's [`ShardWriter::commit`]: take the shard's write
//! lock, append the ops to *that shard's* WAL, then apply them — `shard →
//! wal` lock order everywhere, so writers to different shards share nothing.

use crate::config::ServeError;
use crate::obs::{elapsed_ns, Stage, Telemetry, Trace};
use crate::routes::{field, obj, parse_body, record_from_value, ApiError, Call};
use crate::server::ServerState;
use crate::shard::{apply, route_token, Applied, GlobalEntityId, ShardedEntityStore};
use crate::sync::{lock_unpoisoned, LockClass, OrderedMutex};
use crate::wal::{Wal, WalOp};
use multiem_embed::EmbeddingModel;
use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
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

impl Default for DrainWindow {
    fn default() -> Self {
        Self {
            since: Instant::now(),
            drained: 0,
            rate: 0.0,
        }
    }
}

impl DrainWindow {
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

/// A shard's log with the two numbers only a checkpoint writes, behind the
/// WAL lock a checkpoint holds for every shard anyway.
pub(crate) struct Durable {
    pub wal: Wal,
    /// Epoch of the shard's latest snapshot file (`0`: none, restores empty).
    pub snapshot_epoch: u64,
    /// [`ShardWriter::write_seq`] as of that snapshot: a delta checkpoint
    /// re-snapshots the shard only when the two differ.
    pub checkpoint_seq: u64,
}

/// The write side of one shard: its ingest queue, its log and its counters.
/// `ServerState::writers[i]` belongs to shard `i` of the store.
#[derive(Default)]
pub(crate) struct ShardWriter {
    shard: usize,
    /// Present in durable mode. Lock order is always `shard i write lock →
    /// writers[i].wal`; the checkpoint takes every shard lock (ascending)
    /// before any WAL lock ([`OrderedMutex`] checks it in debug builds).
    pub wal: Option<OrderedMutex<Durable>>,
    /// Writes applied to the shard, replayed WAL ops included.
    pub write_seq: AtomicU64,
    /// Records admitted to ingestion but not yet applied; bounded by
    /// `queue_depth` (backpressure).
    pub inflight: AtomicU64,
    /// Records applied through requests since startup, and the windowed
    /// rate estimate over them (sampled on 429s, so a long-idle stretch
    /// skews at most the first refusal of a burst): the adaptive
    /// `Retry-After`.
    drained: AtomicU64,
    drain_window: Mutex<DrainWindow>,
    /// WAL size, published after every append/checkpoint so `/stats` never
    /// touches a WAL lock (appends hold it through fsyncs).
    pub wal_bytes: AtomicU64,
}

impl ShardWriter {
    pub fn new(shard: usize, durable: Option<Durable>) -> Self {
        Self {
            shard,
            wal_bytes: AtomicU64::new(durable.as_ref().map_or(0, |d| d.wal.bytes())),
            wal: durable.map(|d| OrderedMutex::new(LockClass::Wal, d)),
            ..Self::default()
        }
    }

    /// The one write path. Under the shard's write lock: append `ops` to the
    /// shard's WAL when there is one (one frame run, one fsync decision —
    /// group commit), then [`apply`] them in order. `trace` is the
    /// request's; start-up replay passes `None`, because its ops were *read
    /// from* this shard's log: nothing is logged again or counted as served
    /// traffic, and the ops land on the shard that logged them, whatever
    /// they would hash to now.
    ///
    /// What was applied is counted here, whether or not a later op fails:
    /// after an `Err` a prefix of the group is in the store (and dirties the
    /// shard for the next checkpoint) while all of it is in the log, so the
    /// rest may reappear after a kill — the contract has always been that
    /// unacknowledged writes may survive and acknowledged ones must.
    pub fn commit<E: EmbeddingModel>(
        &self,
        store: &ShardedEntityStore<E>,
        telemetry: &Telemetry,
        ops: Vec<WalOp>,
        mut trace: Option<&mut Trace>,
    ) -> Result<Vec<Applied>, ServeError> {
        let metrics = &telemetry.metrics;
        let mut guard = store.write_shard(self.shard);
        if let (Some(wal), Some(trace)) = (&self.wal, trace.as_deref_mut()) {
            let mut durable = wal.lock();
            let timing = durable.wal.append_batch_timed(&ops)?;
            // relaxed-ok: published size for lock-free /stats; staleness is benign
            self.wal_bytes.store(durable.wal.bytes(), Ordering::Relaxed);
            drop(durable);
            // `wal_append` excludes the fsync portion; `fsync` gets it.
            let append_ns = timing.total_ns.saturating_sub(timing.fsync_ns);
            trace.add(Stage::WalAppend, append_ns);
            trace.add(Stage::Fsync, timing.fsync_ns);
            metrics.wal_appended_bytes.add(timing.appended_bytes);
            if timing.fsynced {
                metrics.wal_fsyncs.inc();
                // The rolling fsync window is the `/readyz` degradation signal.
                telemetry.record_fsync_window(timing.fsync_ns);
            }
        }
        let apply_started = Instant::now();
        let mut applied = Vec::with_capacity(ops.len());
        let outcome = ops
            .into_iter()
            .try_for_each(|op| apply(&mut guard, self.shard, op).map(|done| applied.push(done)));
        let count = |what: fn(&Applied) -> bool| applied.iter().filter(|a| what(a)).count() as u64;
        let inserted = count(|a| matches!(a, Applied::Inserted(..)));
        let deleted = count(|a| *a == Applied::Deleted(true));
        self.write_seq
            .fetch_add(inserted + deleted, Ordering::SeqCst);
        if let Some(trace) = trace {
            trace.add(Stage::Apply, elapsed_ns(apply_started));
            // relaxed-ok: drain-rate sample counter; the estimate is advisory
            self.drained.fetch_add(inserted, Ordering::Relaxed);
            metrics.ingested_records.add(inserted);
            metrics.deleted_records.add(deleted);
            if inserted > 0 {
                telemetry.record_ingest_batch(inserted);
            }
        }
        outcome?;
        Ok(applied)
    }

    /// The freshest drain-rate estimate, in records/s.
    fn drain_rate(&self) -> f64 {
        // relaxed-ok: the drain estimate is advisory; a stale read skews one Retry-After
        let drained_now = self.drained.load(Ordering::Relaxed);
        lock_unpoisoned(&self.drain_window).sample(drained_now)
    }
}

/// Admission slots on the per-shard ingest queues — `(shard's writer,
/// records admitted)` — released on drop (also on error paths, so a failed
/// insert never leaks queue capacity).
struct QueueSlots<'a>(Vec<(&'a ShardWriter, u64)>);

impl Drop for QueueSlots<'_> {
    fn drop(&mut self) {
        for (writer, n) in &self.0 {
            writer.inflight.fetch_sub(*n, Ordering::SeqCst);
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
) -> Result<QueueSlots<'a>, ApiError> {
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
    let mut slots = QueueSlots(Vec::with_capacity(by_shard.len()));
    for (shard, indices) in by_shard {
        let (writer, n) = (&state.writers[*shard], indices.len() as u64);
        let before = writer.inflight.fetch_add(n, Ordering::SeqCst);
        slots.0.push((writer, n));
        if before + n > depth {
            // Rolls back every acquisition.
            drop(slots);
            let rejected: u64 = by_shard.iter().map(|(_, i)| i.len() as u64).sum();
            state.telemetry.metrics.rejected_records.add(rejected);
            let backlog = writer.inflight.load(Ordering::SeqCst) + rejected;
            return Err(ApiError::overloaded(
                rejected,
                derive_retry_after(backlog, writer.drain_rate()),
            ));
        }
    }
    Ok(slots)
}

/// Group commit: `ops[i]` goes to the shard whose group lists `i`, and each
/// group is ONE [`ShardWriter::commit`] — one WAL batch append and the
/// applies under a single acquisition of that shard's write lock. Per-shard
/// order follows request order, so the bytes on disk are those of per-op
/// appends, with fewer fsyncs. Outcomes are positional; `None` marks an op
/// naming a shard that does not exist (a miss nobody logs).
fn commit_grouped<E: EmbeddingModel>(
    state: &ServerState<E>,
    by_shard: Vec<(usize, Vec<usize>)>,
    ops: Vec<WalOp>,
    trace: &mut Trace,
) -> Result<Vec<Option<Applied>>, ApiError> {
    let mut ops: Vec<Option<WalOp>> = ops.into_iter().map(Some).collect();
    let mut outcomes = vec![None; ops.len()];
    for (shard, indices) in by_shard {
        let Some(writer) = state.writers.get(shard) else {
            continue;
        };
        // The groups partition the indices, so every slot is still `Some`.
        let group = indices.iter().filter_map(|&i| ops[i].take()).collect();
        let applied = writer.commit(&state.store, &state.telemetry, group, Some(&mut *trace))?;
        for (i, outcome) in indices.into_iter().zip(applied) {
            outcomes[i] = Some(outcome);
        }
    }
    Ok(outcomes)
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

    let ops = parsed.into_iter().map(WalOp::Insert).collect();
    let results = commit_grouped(state, by_shard, ops, trace)?.into_iter();
    let results = results.filter_map(|outcome| match outcome {
        Some(Applied::Inserted(gid, matched)) => {
            let mut result = gid.fields();
            result.push(("matched".into(), Value::Bool(matched)));
            Some(Value::Map(result))
        }
        _ => None,
    });
    let results: Vec<Value> = results.collect();
    Ok(obj([
        ("ingested", Value::UInt(results.len() as u64)),
        ("results", Value::Seq(results)),
    ]))
}

/// Delete `ids`, group-committed like `POST /records`; the answers are
/// positional. A delete of an unknown id still logs — replaying it is a
/// no-op, and the log stays a faithful record of what was requested. A
/// failure is a `500`: deletions already applied stand, and retrying is safe
/// because deletion is idempotent.
fn delete_ids<E: EmbeddingModel>(
    state: &ServerState<E>,
    ids: &[GlobalEntityId],
    trace: &mut Trace,
) -> Result<Vec<bool>, ApiError> {
    let shards: Vec<usize> = ids.iter().map(|id| id.shard as usize).collect();
    let ops = ids.iter().map(|id| WalOp::Delete(id.entity)).collect();
    let outcomes = commit_grouped(state, group_by_shard(&shards), ops, trace)?.into_iter();
    Ok(outcomes
        .map(|outcome| outcome == Some(Applied::Deleted(true)))
        .collect())
}

/// `DELETE /records/{shard}-{source}-{row}`: `tail` is the id triple `POST
/// /records` returned for the record.
pub(crate) fn delete_record<E: EmbeddingModel>(call: Call<'_, E>) -> Result<Value, ApiError> {
    let id = call.tail.parse().map_err(|()| {
        ApiError::bad_request("record id must be shard-source-row (e.g. /records/0-1-42)")
    })?;
    if delete_ids(call.state, &[id], call.trace)? == [true] {
        Ok(obj([("deleted", Value::Bool(true))]))
    } else {
        Err(ApiError::not_found("unknown or already-deleted record"))
    }
}

/// `POST /records/delete`: batch deletion of `{"ids": [[shard, source,
/// row], ...]}` triples. Per-id outcomes come back positionally; unknown or
/// repeated ids report `false` rather than failing the batch.
pub(crate) fn post_delete<E: EmbeddingModel>(call: Call<'_, E>) -> Result<Value, ApiError> {
    let value = parse_body(call.body)?;
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
    let results = delete_ids(call.state, &parsed, call.trace)?;
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
        assert_eq!(DrainWindow::default().sample(0), 0.0);
    }
}
