//! The read path: `POST /match`, and the micro-batcher that coalesces
//! concurrent matches into one shard fan-out.

use crate::obs::{Stage, Telemetry};
use crate::routes::{field, obj, parse_body, record_from_value, ApiError, Call};
use crate::shard::{GlobalEntityId, MatchTiming, ShardedEntityStore};
use crate::sync::lock_unpoisoned;
use multiem_embed::EmbeddingModel;
use multiem_table::Record;
use serde::Value;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What one coalesced match request resolves to: its globally ranked hits
/// plus the timing breakdown attributed to it.
type MatchOutcome = (Vec<(GlobalEntityId, f32)>, MatchTiming);

/// One match request parked in the coalescing queue: its completion slot,
/// filled by whichever worker executes the batch.
struct MatchSlot {
    result: Mutex<Option<MatchOutcome>>,
    ready: Condvar,
}

/// The match micro-batch coalescer. Concurrent `POST /match` workers park
/// their parsed records here; the **first** request of an empty queue
/// becomes the batch leader and waits up to `window` for company (woken
/// early when the batch fills to `max`), then swaps the queue out and runs
/// one [`ShardedEntityStore::match_batch_timed`] fan-out for everyone —
/// one lock acquisition and one index pass per shard instead of one per
/// request. Followers block on their slot until the leader distributes
/// results. A request arriving while a leader executes starts the next
/// batch, so batches overlap and the queue never convoys behind a slow
/// fan-out.
pub(crate) struct MatchBatcher {
    window: Duration,
    max: usize,
    queue: Mutex<Vec<(Record, Arc<MatchSlot>)>>,
    /// Signalled by enqueuers when the queue fills to `max`, so the leader
    /// flushes immediately instead of sleeping out the window.
    full: Condvar,
}

impl MatchBatcher {
    /// A coalescer for the configured knobs, or `None` when they disable
    /// batching (`window == 0`, `max <= 1`, or a single-worker pool, where
    /// no two requests can ever be in flight to coalesce). The effective
    /// cap is clamped to the worker count: each parked request occupies one
    /// worker, so a batch can never hold more than `workers` requests —
    /// an uncapped `max` would just stall every leader for the full window.
    pub fn new(window_us: u64, max: usize, workers: usize) -> Option<Self> {
        let max = max.min(workers);
        (window_us > 0 && max > 1).then(|| Self {
            window: Duration::from_micros(window_us),
            max,
            queue: Mutex::new(Vec::new()),
            full: Condvar::new(),
        })
    }

    /// Run `record` through a coalesced fan-out, blocking until its result
    /// is available (bounded by the batch window plus one batch execution).
    fn run<E: EmbeddingModel>(
        &self,
        store: &ShardedEntityStore<E>,
        telemetry: &Telemetry,
        record: Record,
    ) -> MatchOutcome {
        let slot = Arc::new(MatchSlot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        // Poison-tolerant throughout: the queue and slots hold plain data
        // (Vec pushes, Option writes) that stays consistent across a
        // panicking holder, and a match worker must never panic a request.
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let leader = queue.is_empty();
        queue.push((record, Arc::clone(&slot)));
        if queue.len() >= self.max {
            self.full.notify_all();
        }
        if leader {
            let deadline = Instant::now() + self.window;
            while queue.len() < self.max {
                let Some(remaining) = deadline
                    .checked_duration_since(Instant::now())
                    .filter(|d| !d.is_zero())
                else {
                    break;
                };
                let (guard, timeout) = self
                    .full
                    .wait_timeout(queue, remaining)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            let batch = std::mem::take(&mut *queue);
            drop(queue);
            let flushed_full = batch.len() >= self.max;
            telemetry.record_match_batch(batch.len() as u64, flushed_full);
            let (records, slots): (Vec<Record>, Vec<Arc<MatchSlot>>) = batch.into_iter().unzip();
            let results = store.match_batch_timed(&records);
            for (slot, result) in slots.iter().zip(results) {
                *lock_unpoisoned(&slot.result) = Some(result);
                slot.ready.notify_one();
            }
        } else {
            drop(queue);
        }
        let mut result = lock_unpoisoned(&slot.result);
        loop {
            match result.take() {
                Some(result) => return result,
                None => {
                    result = slot
                        .ready
                        .wait(result)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

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
    let (ranked, timing) = match &state.batcher {
        Some(batcher) => batcher.run(&state.store, &state.telemetry, record),
        None => state.store.match_record_timed(&record),
    };
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
