//! lint:fast-path — every function in this file answers inline on a
//! connection's reader thread and must stay lock-free.
//!
//! The read-only surface: one [`ServerView`] gathered in a single
//! nonblocking pass, and the routes that render it (or the analytics
//! windows). Nothing here takes a shard or WAL lock — shards a writer holds
//! report their last published counters
//! ([`ShardedEntityStore::shard_stats`](crate::ShardedEntityStore::shard_stats)),
//! WAL sizes and queue depths are published atomics, rendering `/metrics`
//! takes only the registry's own mutex — so probes, scrapes and incident
//! debugging stay green through checkpoints and write bursts.

use crate::config::backend_name;
use crate::obs::{Endpoint, HeavyHitter, WindowedTopK, BUILD_VERSION};
use crate::routes::{obj, Response};
use crate::server::ServerState;
use crate::shard::{ShardStats, ShardedStats};
use multiem_embed::EmbeddingModel;
use serde::{Serialize, Value};
use std::sync::atomic::Ordering;

/// Every number the read-only routes publish, read once: a stat has one
/// source here however many routes render it.
pub(crate) struct ServerView {
    /// Per-shard store, storage and segment counters (empty in a
    /// [`ServerView::probe`]).
    pub shards: Vec<ShardStats>,
    /// Per-shard WAL size in bytes (zeros without a data dir).
    pub shard_wal_bytes: Vec<u64>,
    /// WAL size across shards.
    pub wal_bytes: u64,
    /// Records admitted to ingestion but not yet applied, across shards.
    pub backlog: u64,
    /// p99 WAL fsync latency over the rolling window, in milliseconds (`0`
    /// with analytics off).
    pub fsync_p99_ms: f64,
    /// Checkpoint epoch.
    pub epoch: u64,
    /// Requests answered since startup (`multiem_requests_total`).
    pub requests: u64,
    /// Records refused with a `429` since startup
    /// (`multiem_rejected_records_total`).
    pub rejected: u64,
}

impl ServerView {
    /// The whole view: the published atomics plus the one nonblocking pass
    /// over the shards.
    pub fn gather<E: EmbeddingModel>(state: &ServerState<E>) -> Self {
        Self {
            shards: state.store.shard_stats(),
            ..Self::probe(state)
        }
    }

    /// The view without the shard pass — published atomics only, so the
    /// liveness and readiness probes cost the same whatever the store holds.
    pub fn probe<E: EmbeddingModel>(state: &ServerState<E>) -> Self {
        let shard_wal_bytes: Vec<u64> = state
            .writers
            .iter()
            // relaxed-ok: monitoring read of published counters
            .map(|writer| writer.wal_bytes.load(Ordering::Relaxed))
            .collect();
        let analytics = state.telemetry.analytics.as_ref();
        Self {
            shards: Vec::new(),
            wal_bytes: shard_wal_bytes.iter().sum(),
            shard_wal_bytes,
            backlog: state
                .writers
                .iter()
                .map(|writer| writer.inflight.load(Ordering::SeqCst))
                .sum(),
            fsync_p99_ms: analytics.map_or(0.0, |a| a.windows.fsync_window().quantile_ms(0.99)),
            epoch: state.epoch.load(Ordering::SeqCst),
            requests: state.telemetry.metrics.requests_total(),
            rejected: state.telemetry.metrics.rejected_records.get(),
        }
    }
}

/// The fields of a serialized struct (every stats type renders as a map).
fn entries(stats: &impl Serialize) -> Vec<(String, Value)> {
    match stats.to_value() {
        Value::Map(entries) => entries,
        other => vec![("stats".into(), other)],
    }
}

/// `GET /healthz`.
pub(crate) fn healthz<E: EmbeddingModel>(state: &ServerState<E>) -> Response {
    let view = ServerView::probe(state);
    let uptime = state.telemetry.uptime_seconds();
    let storage = backend_name(&state.config.online.storage);
    Response::ok(obj([
        ("status", Value::Str("ok".into())),
        ("shards", Value::UInt(state.store.num_shards() as u64)),
        ("durable", Value::Bool(state.config.data_dir.is_some())),
        ("storage", Value::Str(storage.into())),
        ("uptime_seconds", Value::Float(uptime)),
        ("version", Value::Str(BUILD_VERSION.into())),
        ("checkpoint_epoch", Value::UInt(view.epoch)),
    ]))
}

/// The degradation rule behind `GET /readyz`: which configured thresholds
/// the current signals cross (`0` disables a threshold). Empty = ready.
/// Pure so the rule is unit-testable without a server.
fn degraded_reasons(
    backlog: u64,
    max_backlog: u64,
    fsync_p99_ms: f64,
    max_fsync_ms: u64,
) -> Vec<&'static str> {
    let mut reasons = Vec::new();
    if max_backlog > 0 && backlog > max_backlog {
        reasons.push("ingest backlog above --ready-max-backlog");
    }
    if max_fsync_ms > 0 && fsync_p99_ms > max_fsync_ms as f64 {
        reasons.push("windowed fsync p99 above --ready-max-fsync-ms");
    }
    reasons
}

/// `GET /readyz`: readiness as distinct from liveness. `/healthz` answers
/// "is the process up"; this answers "should a load balancer send traffic
/// here" — `503` when the ingest backlog or the rolling-window p99 fsync
/// latency crosses its configured threshold.
pub(crate) fn readyz<E: EmbeddingModel>(state: &ServerState<E>) -> Response {
    let view = ServerView::probe(state);
    let obs = &state.config.obs;
    let (max_backlog, max_fsync_ms) = (obs.ready_max_backlog, obs.ready_max_fsync_ms);
    let reasons = degraded_reasons(view.backlog, max_backlog, view.fsync_p99_ms, max_fsync_ms);
    let (status, word) = if reasons.is_empty() {
        (200, "ready")
    } else {
        (503, "degraded")
    };
    let reasons = reasons.into_iter().map(|r| Value::Str(r.into()));
    let body = obj([
        ("status", Value::Str(word.into())),
        ("backlog", Value::UInt(view.backlog)),
        ("max_backlog", Value::UInt(max_backlog)),
        ("fsync_window_p99_ms", Value::Float(view.fsync_p99_ms)),
        ("max_fsync_ms", Value::UInt(max_fsync_ms)),
        ("reasons", Value::Seq(reasons.collect())),
    ]);
    Response::json(status, body)
}

/// `GET /stats`.
pub(crate) fn stats<E: EmbeddingModel>(state: &ServerState<E>) -> Response {
    let view = ServerView::gather(state);
    let mut body = entries(&ShardedStats::of(&view.shards));
    body.push(("wal_bytes".into(), Value::UInt(view.wal_bytes)));
    body.push(("requests".into(), Value::UInt(view.requests)));
    // Everything below `requests` is process-local (counters reset on
    // restart, cache contents differ) — the store-state prefix above stays
    // byte-identical across a kill + WAL replay.
    body.push(("rejected".into(), Value::UInt(view.rejected)));
    body.push(("queue_depth".into(), Value::UInt(state.config.queue_depth)));
    body.push((
        "storage".into(),
        ShardStats::storage_total(&view.shards).to_value(),
    ));
    Response::ok(Value::Map(body))
}

/// `GET /metrics` (Prometheus text exposition): the scrape-time gauges
/// refresh from the view and the rolling windows, then the registry
/// renders.
pub(crate) fn metrics<E: EmbeddingModel>(state: &ServerState<E>) -> Response {
    let view = ServerView::gather(state);
    let telemetry = &state.telemetry;
    let gauges = &telemetry.metrics;
    let storage = ShardStats::storage_total(&view.shards);
    gauges.uptime_seconds.set(telemetry.uptime_seconds());
    gauges.wal_bytes.set(view.wal_bytes as f64);
    gauges.checkpoint_epoch.set(view.epoch as f64);
    gauges.queue_inflight.set(view.backlog as f64);
    gauges.fsync_window_p99.set(view.fsync_p99_ms / 1_000.0);
    gauges.storage_cache_hits.set(storage.cache_hits as f64);
    gauges.storage_cache_misses.set(storage.cache_misses as f64);
    telemetry.refresh_window_metrics();
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body: telemetry.registry.render(),
        retry_after: None,
    }
}

/// `GET /debug/storage`: per-shard storage health — cache hit rates, WAL
/// sizes, and per-segment live ratios (what compaction will act on) — plus
/// the windowed fsync latency. A shard held by a writer reports its
/// published counters with its segment list omitted.
pub(crate) fn debug_storage<E: EmbeddingModel>(state: &ServerState<E>) -> Response {
    let view = ServerView::gather(state);
    let shards = view.shards.iter().zip(&view.shard_wal_bytes).enumerate();
    let shards: Vec<Value> = shards
        .map(|(i, (shard, &wal_bytes))| {
            let mut body = entries(&shard.storage);
            body.insert(0, ("shard".into(), Value::UInt(i as u64)));
            body.push(("wal_bytes".into(), Value::UInt(wal_bytes)));
            let segments = shard.segments.iter().map(|s| {
                obj([
                    ("records", Value::UInt(s.records as u64)),
                    ("dead", Value::UInt(s.dead as u64)),
                    ("bytes", Value::UInt(s.bytes)),
                    ("live_ratio", Value::Float(s.live_ratio())),
                ])
            });
            body.push(("segment_files".into(), Value::Seq(segments.collect())));
            Value::Map(body)
        })
        .collect();
    let storage = ShardStats::storage_total(&view.shards);
    let looked_up = storage.cache_hits + storage.cache_misses;
    let hit_rate = if looked_up > 0 {
        storage.cache_hits as f64 / looked_up as f64
    } else {
        0.0
    };
    Response::ok(obj([
        ("cache_hits", Value::UInt(storage.cache_hits)),
        ("cache_misses", Value::UInt(storage.cache_misses)),
        ("cache_hit_rate", Value::Float(hit_rate)),
        ("wal_bytes", Value::UInt(view.wal_bytes)),
        ("fsync_window_p99_ms", Value::Float(view.fsync_p99_ms)),
        ("shards", Value::Seq(shards)),
    ]))
}

/// The `{"enabled": false}` body every analytics route answers when the
/// analytics layer is off (`--no-telemetry`).
fn analytics_disabled() -> Response {
    Response::ok(obj([("enabled", Value::Bool(false))]))
}

/// `GET /debug/window`: per-endpoint request rates and latency quantiles
/// over the rolling window, plus the windowed fsync latency. Endpoints with
/// no traffic inside the window are omitted. The raw nanosecond quantiles
/// ride along so machine consumers (the integration tests, `obstop`) need
/// not re-derive them from the millisecond floats.
pub(crate) fn debug_window<E: EmbeddingModel>(state: &ServerState<E>) -> Response {
    let Some(analytics) = &state.telemetry.analytics else {
        return analytics_disabled();
    };
    let windows = &analytics.windows;
    let mut endpoints = Vec::new();
    for endpoint in Endpoint::ALL {
        let snap = windows.endpoint_window(endpoint);
        if snap.count() == 0 {
            continue;
        }
        endpoints.push(obj([
            ("endpoint", Value::Str(endpoint.name().into())),
            ("count", Value::UInt(snap.count())),
            ("rate_rps", Value::Float(windows.rate(snap.count()))),
            ("p50_ms", Value::Float(snap.quantile_ms(0.5))),
            ("p99_ms", Value::Float(snap.quantile_ms(0.99))),
            ("p50_ns", Value::UInt(snap.quantile(0.5).unwrap_or(0))),
            ("p99_ns", Value::UInt(snap.quantile(0.99).unwrap_or(0))),
        ]));
    }
    let fsync = windows.fsync_window();
    let fsync = obj([
        ("count", Value::UInt(fsync.count())),
        ("p50_ms", Value::Float(fsync.quantile_ms(0.5))),
        ("p99_ms", Value::Float(fsync.quantile_ms(0.99))),
    ]);
    // Batch occupancy is dimensionless (requests or records per executed
    // batch), so its quantiles are plain sizes, not latencies.
    let batch = windows.batch_window();
    let batch = obj([
        ("count", Value::UInt(batch.count())),
        ("p50", Value::UInt(batch.quantile(0.5).unwrap_or(0))),
        ("max", Value::UInt(batch.quantile(1.0).unwrap_or(0))),
    ]);
    Response::ok(obj([
        ("enabled", Value::Bool(true)),
        ("window_secs", Value::UInt(windows.window_secs())),
        ("covered_secs", Value::Float(windows.covered_secs())),
        ("endpoints", Value::Seq(endpoints)),
        ("fsync", fsync),
        ("batch", batch),
    ]))
}

/// JSON rows for one heavy-hitter list.
fn hitters_value(hitters: &[HeavyHitter]) -> Value {
    let rows = hitters.iter().map(|h| {
        obj([
            ("key", Value::Str(h.key.clone())),
            ("count", Value::UInt(h.count)),
            ("error", Value::UInt(h.error)),
        ])
    });
    Value::Seq(rows.collect())
}

/// `GET /debug/top`: the hottest ingest sources, routed shards, and
/// match-result entities of the current window (previous window alongside).
/// Counts come from space-saving sketches: a `count` overestimates the true
/// frequency by at most its `error`.
pub(crate) fn debug_top<E: EmbeddingModel>(state: &ServerState<E>) -> Response {
    let Some(analytics) = &state.telemetry.analytics else {
        return analytics_disabled();
    };
    let epoch = analytics.windows.window_epoch();
    let section = |topk: &WindowedTopK| {
        let (current, previous) = topk.top_at(epoch);
        obj([
            ("current", hitters_value(&current)),
            ("previous", hitters_value(&previous)),
        ])
    };
    Response::ok(obj([
        ("enabled", Value::Bool(true)),
        ("window_epoch", Value::UInt(epoch)),
        ("sources", section(&analytics.sources)),
        ("shards", section(&analytics.shards)),
        ("entities", section(&analytics.entities)),
    ]))
}

/// `GET /debug/slow`: the retained slow-request exemplars (current window
/// first, then the previous one, slowest first), each with its full span
/// decomposition — the request that blew the SLO, inspectable after the
/// fact without log spelunking.
pub(crate) fn debug_slow<E: EmbeddingModel>(state: &ServerState<E>) -> Response {
    let Some(analytics) = &state.telemetry.analytics else {
        return analytics_disabled();
    };
    let exemplars = analytics
        .exemplars
        .snapshot_at(analytics.windows.window_epoch());
    let entries = exemplars.iter().map(|e| {
        let spans = e.trace.spans();
        let spans = spans.map(|(stage, ns)| (stage.name().to_string(), Value::UInt(ns)));
        obj([
            ("request_id", Value::UInt(e.trace.id)),
            ("method", Value::Str(e.method.clone())),
            ("path", Value::Str(e.path.clone())),
            ("status", Value::UInt(u64::from(e.status))),
            ("total_ns", Value::UInt(e.total_ns)),
            ("ts_ms", Value::UInt(e.ts_ms)),
            ("fan_out", Value::UInt(e.trace.fan_out_width())),
            ("spans", Value::Map(spans.collect())),
        ])
    });
    Response::ok(obj([
        ("enabled", Value::Bool(true)),
        ("exemplars", Value::Seq(entries.collect())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readiness_degrades_only_past_enabled_thresholds() {
        // Disabled thresholds (0) never degrade, whatever the signals say.
        assert!(degraded_reasons(1_000_000, 0, 1e9, 0).is_empty());
        // Backlog at the threshold is still ready; one past it degrades.
        assert!(degraded_reasons(100, 100, 0.0, 0).is_empty());
        let reasons = degraded_reasons(101, 100, 0.0, 0);
        assert_eq!(reasons, ["ingest backlog above --ready-max-backlog"]);
        // Windowed fsync p99 crossing its threshold degrades independently.
        assert!(degraded_reasons(0, 100, 5.0, 5).is_empty());
        let reasons = degraded_reasons(0, 100, 5.1, 5);
        assert_eq!(reasons, ["windowed fsync p99 above --ready-max-fsync-ms"]);
        // Both at once report both reasons.
        assert_eq!(degraded_reasons(101, 100, 6.0, 5).len(), 2);
    }
}
