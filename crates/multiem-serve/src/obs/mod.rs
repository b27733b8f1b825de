//! Dependency-free observability for the serving stack.
//!
//! Before this layer, the only latency numbers came from the load
//! generator's client-side clock and the server's logging story was three
//! bare `eprintln!` calls. This module gives the server the means to
//! measure itself, cheaply enough to stay on by default:
//!
//! * [`registry`] — named counter/gauge/histogram families behind plain
//!   atomics, rendered as Prometheus text exposition by `GET /metrics`.
//!   Scraping takes only the registry's own mutex — never a shard or WAL
//!   lock;
//! * [`histogram`] — lock-free log-linear latency histograms, mergeable
//!   across I/O loops and worker threads, quantile-queried by the
//!   nearest-rank rule on sorted samples;
//! * [`trace`] — per-request span stacks over the pipeline stages (parse →
//!   queue-wait → fan-out → ANN search → rank-merge → WAL append → fsync →
//!   apply → respond), sampled by `--trace-sample-rate` and force-emitted
//!   past `--slow-request-ms`;
//! * [`log`] — a leveled JSON-lines logger (`--log-level`, `--log-file`)
//!   plus an optional per-request access log (`--access-log`), both with
//!   size-based rotation (`--log-rotate-bytes`).
//!
//! On top of the cumulative layer sits the **workload-analytics** layer —
//! the live-diagnosis counterpart to lifetime counters:
//!
//! * [`window`] — rolling time-window telemetry: rings of the lock-free
//!   histograms rotated on a coarse epoch tick, so `/metrics` and
//!   `GET /debug/window` answer rates and p50/p99 *over the last
//!   [`window::WINDOW_SECS`] seconds* instead of since startup;
//! * [`topk`] — space-saving heavy-hitter sketches over ingest sources,
//!   routed shards and match-result entities (`GET /debug/top`);
//! * [`exemplar`] — a fixed ring of the slowest requests' full span traces
//!   per window (`GET /debug/slow`).
//!
//! [`Telemetry`] bundles all of it and lives in the server state. The
//! always-on part (request counters) is a relaxed `fetch_add` per request;
//! everything with measurable cost — histograms, traces, the access log,
//! the analytics layer — runs exactly when [`Telemetry::analytics`] is
//! present, which `--no-telemetry` prevents: the baseline the repository's
//! benchmark measures `serve.obs.overhead_pct` against.

pub mod exemplar;
pub mod histogram;
pub mod log;
pub mod registry;
pub mod topk;
pub mod trace;
pub mod window;

pub use exemplar::{Exemplar, ExemplarRing};
pub use histogram::{Histogram, HistogramSnapshot};
use log::ROTATE_KEEP;
pub use log::{Level, Logger};
pub use registry::{Counter, Gauge, Registry};
pub use topk::{HeavyHitter, SpaceSaving, WindowedTopK};
pub use trace::{elapsed_ns, Stage, Trace, Tracer};
pub use window::{WindowedHistogram, WorkloadWindows};
use window::{EXEMPLAR_CAPACITY, TOPK_CAPACITY, WINDOW_SECS};

use serde::Value;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The crate version baked into `/healthz` and `multiem_build_info`.
pub const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Observability configuration (the `--log-level` / `--access-log` /
/// `--trace-sample-rate` / `--slow-request-ms` / `--no-telemetry` flags).
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Master switch for the measurable-cost telemetry (histograms, traces,
    /// access log, workload analytics). `false` is `--no-telemetry`:
    /// counters stay on, the rest is skipped — the baseline the benchmark's
    /// `serve.obs.overhead_pct` compares against.
    pub telemetry: bool,
    /// Minimum level the structured logger writes.
    pub log_level: Level,
    /// Structured-log destination (`None` = stderr).
    pub log_file: Option<PathBuf>,
    /// Access-log path; `None` disables per-request access lines.
    pub access_log: Option<PathBuf>,
    /// Fraction of requests whose traces are emitted (deterministic
    /// every-Nth; `0.0` disables sampling).
    pub trace_sample_rate: f64,
    /// Force-emit the trace of any request at least this slow (`0`
    /// disables the threshold).
    pub slow_request_ms: u64,
    /// `/readyz` degrades (503) past this many in-flight ingest records
    /// (`0` disables the check).
    pub ready_max_backlog: u64,
    /// `/readyz` degrades (503) past this windowed p99 fsync latency in
    /// milliseconds (`0` disables the check). The latency is the analytics
    /// layer's, so a non-zero value needs `telemetry`: `MatchServer::bind`
    /// refuses one without it.
    pub ready_max_fsync_ms: u64,
    /// Rotate `--log-file`/`--access-log` once they reach this many bytes
    /// (`0` disables rotation).
    pub log_rotate_bytes: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            telemetry: true,
            log_level: Level::Info,
            log_file: None,
            access_log: None,
            trace_sample_rate: 0.0,
            slow_request_ms: 0,
            ready_max_backlog: 0,
            ready_max_fsync_ms: 0,
            log_rotate_bytes: 0,
        }
    }
}

/// Route classes the request metrics are labelled by; the route table
/// (`routes.rs`) assigns one to every row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`.
    Healthz,
    /// `GET /readyz`.
    Readyz,
    /// `GET /stats`.
    Stats,
    /// `GET /metrics`.
    Metrics,
    /// `GET /debug/*` (introspection surface).
    Debug,
    /// `POST /records` (ingest).
    Records,
    /// `DELETE /records/{id}` and `POST /records/delete`.
    RecordsDelete,
    /// `POST /match`.
    Match,
    /// `POST /snapshot` (checkpoint).
    Snapshot,
    /// `POST /admin/shutdown`.
    Shutdown,
    /// Anything else (404s, bad methods).
    Other,
}

impl Endpoint {
    /// Number of endpoint classes.
    pub const COUNT: usize = 11;

    /// All endpoint classes, in label order.
    pub const ALL: [Endpoint; Endpoint::COUNT] = [
        Endpoint::Healthz,
        Endpoint::Readyz,
        Endpoint::Stats,
        Endpoint::Metrics,
        Endpoint::Debug,
        Endpoint::Records,
        Endpoint::RecordsDelete,
        Endpoint::Match,
        Endpoint::Snapshot,
        Endpoint::Shutdown,
        Endpoint::Other,
    ];

    /// The `endpoint` label value.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Readyz => "readyz",
            Endpoint::Stats => "stats",
            Endpoint::Metrics => "metrics",
            Endpoint::Debug => "debug",
            Endpoint::Records => "records",
            Endpoint::RecordsDelete => "records_delete",
            Endpoint::Match => "match",
            Endpoint::Snapshot => "snapshot",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// `status` label values, coarse classes (429 split out because it is the
/// backpressure signal worth alerting on separately).
const STATUS_CLASSES: [&str; 4] = ["2xx", "4xx", "429", "5xx"];

/// Index into [`STATUS_CLASSES`] for an HTTP status code.
fn status_class(status: u16) -> usize {
    match status {
        429 => 2,
        400..=499 => 1,
        500..=599 => 3,
        _ => 0,
    }
}

/// Every metric handle the serving layer records into, pre-registered with
/// fixed labels so the hot path never allocates or hashes a label string.
#[derive(Debug)]
pub struct ServeMetrics {
    /// `multiem_requests_total{endpoint, status}` — one counter per pair.
    requests: Vec<[Arc<Counter>; STATUS_CLASSES.len()]>,
    /// Records accepted through `POST /records`.
    pub ingested_records: Arc<Counter>,
    /// Records deleted through the delete routes.
    pub deleted_records: Arc<Counter>,
    /// Records refused with a 429.
    pub rejected_records: Arc<Counter>,
    /// Bytes appended to WALs (frames, across shards).
    pub wal_appended_bytes: Arc<Counter>,
    /// WAL `fdatasync` calls.
    pub wal_fsyncs: Arc<Counter>,
    /// Checkpoints committed.
    pub checkpoints: Arc<Counter>,
    /// Connections the acceptor handed to a reader thread.
    pub connections_accepted: Arc<Counter>,
    /// Connections closed (each by its reader, on its way out).
    pub connections_closed: Arc<Counter>,
    /// End-to-end request latency histograms, one per endpoint.
    request_duration: Vec<Arc<Histogram>>,
    /// Per-stage latency histograms, one per [`Stage`].
    stage_duration: Vec<Arc<Histogram>>,
    /// Seconds since startup (refreshed at scrape time).
    pub uptime_seconds: Arc<Gauge>,
    /// Current WAL bytes across shards (refreshed at scrape time).
    pub wal_bytes: Arc<Gauge>,
    /// Checkpoint epoch from the manifest (refreshed at scrape time).
    pub checkpoint_epoch: Arc<Gauge>,
    /// Records admitted to ingest queues but not yet applied (scrape time).
    pub queue_inflight: Arc<Gauge>,
    /// Record-store hot-cache hits across shards (refreshed at scrape
    /// time).
    pub storage_cache_hits: Arc<Gauge>,
    /// Record-store hot-cache misses across shards (refreshed at scrape
    /// time).
    pub storage_cache_misses: Arc<Gauge>,
    /// Requests/second over the rolling window, one gauge per endpoint
    /// (refreshed at scrape time; `0` with telemetry off).
    request_rate: Vec<Arc<Gauge>>,
    /// Windowed p50 latency per endpoint, seconds (scrape time).
    window_p50: Vec<Arc<Gauge>>,
    /// Windowed p99 latency per endpoint, seconds (scrape time).
    window_p99: Vec<Arc<Gauge>>,
    /// Windowed p99 WAL fsync latency, seconds (scrape time).
    pub fsync_window_p99: Arc<Gauge>,
}

impl ServeMetrics {
    /// Register every family on `registry` and return the handles.
    pub fn register(registry: &Registry) -> Self {
        let requests = Endpoint::ALL
            .iter()
            .map(|endpoint| {
                STATUS_CLASSES.map(|status| {
                    registry.counter(
                        "multiem_requests_total",
                        "Requests served, by endpoint and status class.",
                        &format!("endpoint=\"{}\",status=\"{status}\"", endpoint.name()),
                    )
                })
            })
            .collect();
        let request_duration = Endpoint::ALL
            .iter()
            .map(|endpoint| {
                registry.histogram(
                    "multiem_request_duration_seconds",
                    "End-to-end request latency (parse through response render).",
                    &format!("endpoint=\"{}\"", endpoint.name()),
                )
            })
            .collect();
        let stage_duration = Stage::ALL
            .iter()
            .map(|stage| {
                registry.histogram(
                    "multiem_stage_duration_seconds",
                    "Per-stage request latency (see the trace span schema).",
                    &format!("stage=\"{}\"", stage.name()),
                )
            })
            .collect();
        // The three windowed families are one gauge per endpoint each.
        let endpoint_gauges = |name: &str, help: &str| -> Vec<Arc<Gauge>> {
            let labels = Endpoint::ALL.map(|e| format!("endpoint=\"{}\"", e.name()));
            labels
                .iter()
                .map(|l| registry.gauge(name, help, l))
                .collect()
        };
        let build = registry.gauge(
            "multiem_build_info",
            "Build metadata; the value is always 1.",
            &format!("version=\"{BUILD_VERSION}\""),
        );
        build.set(1.0);
        Self {
            requests,
            ingested_records: registry.counter(
                "multiem_ingested_records_total",
                "Records accepted through POST /records.",
                "",
            ),
            deleted_records: registry.counter(
                "multiem_deleted_records_total",
                "Records deleted through the delete routes.",
                "",
            ),
            rejected_records: registry.counter(
                "multiem_rejected_records_total",
                "Records refused with 429 (ingest backpressure).",
                "",
            ),
            wal_appended_bytes: registry.counter(
                "multiem_wal_appended_bytes_total",
                "Bytes appended to write-ahead logs.",
                "",
            ),
            wal_fsyncs: registry.counter("multiem_wal_fsyncs_total", "WAL fdatasync calls.", ""),
            checkpoints: registry.counter(
                "multiem_checkpoints_total",
                "Checkpoints committed.",
                "",
            ),
            connections_accepted: registry.counter(
                "multiem_connections_accepted_total",
                "Connections accepted.",
                "",
            ),
            connections_closed: registry.counter(
                "multiem_connections_closed_total",
                "Connections closed.",
                "",
            ),
            request_duration,
            stage_duration,
            uptime_seconds: registry.gauge(
                "multiem_uptime_seconds",
                "Seconds since server start.",
                "",
            ),
            wal_bytes: registry.gauge("multiem_wal_bytes", "Current WAL size across shards.", ""),
            checkpoint_epoch: registry.gauge(
                "multiem_checkpoint_epoch",
                "Monotonic checkpoint epoch (0 = never checkpointed).",
                "",
            ),
            queue_inflight: registry.gauge(
                "multiem_queue_inflight",
                "Records admitted to ingest queues but not yet applied.",
                "",
            ),
            storage_cache_hits: registry.gauge(
                "multiem_storage_cache_hits",
                "Record-store hot-cache hits across shards.",
                "",
            ),
            storage_cache_misses: registry.gauge(
                "multiem_storage_cache_misses",
                "Record-store hot-cache misses across shards.",
                "",
            ),
            request_rate: endpoint_gauges(
                "multiem_request_rate",
                "Requests per second over the rolling analytics window.",
            ),
            window_p50: endpoint_gauges(
                "multiem_request_window_p50_seconds",
                "Median request latency over the rolling analytics window.",
            ),
            window_p99: endpoint_gauges(
                "multiem_request_window_p99_seconds",
                "p99 request latency over the rolling analytics window.",
            ),
            fsync_window_p99: registry.gauge(
                "multiem_fsync_window_p99_seconds",
                "p99 WAL fsync latency over the rolling analytics window.",
                "",
            ),
        }
    }

    /// Publish one endpoint's windowed rate and quantiles (seconds).
    pub fn set_window_gauges(&self, endpoint: Endpoint, rate: f64, p50_s: f64, p99_s: f64) {
        self.request_rate[endpoint.index()].set(rate);
        self.window_p50[endpoint.index()].set(p50_s);
        self.window_p99[endpoint.index()].set(p99_s);
    }

    /// Count one answered request (always on — one relaxed add).
    pub fn answered(&self, endpoint: Endpoint, status: u16) {
        self.requests[endpoint.index()][status_class(status)].inc();
    }

    /// Requests answered since startup, over every endpoint and status.
    pub fn requests_total(&self) -> u64 {
        self.requests.iter().flatten().map(|c| c.get()).sum()
    }

    /// Requests counted for `endpoint`, summed over status classes.
    pub fn requests_for(&self, endpoint: Endpoint) -> u64 {
        self.requests[endpoint.index()]
            .iter()
            .map(|c| c.get())
            .sum()
    }

    /// The end-to-end latency histogram of `endpoint`.
    pub fn duration(&self, endpoint: Endpoint) -> &Histogram {
        &self.request_duration[endpoint.index()]
    }

    /// The latency histogram of `stage`.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stage_duration[stage as usize]
    }
}

/// The counter pair the connection front end records into (cheap `Clone` of
/// two `Arc`s, handed to [`crate::net::Reactor::start`]).
#[derive(Debug, Clone)]
pub struct NetMetrics {
    /// Connections handed to a reader thread.
    pub accepted: Arc<Counter>,
    /// Connections closed.
    pub closed: Arc<Counter>,
}

/// The workload-analytics bundle: rolling windows, heavy-hitter sketches,
/// and the slow-request exemplar ring — everything behind `/debug/*`.
/// Present on [`Telemetry`] exactly when telemetry is on; its presence is
/// the one telemetry switch.
#[derive(Debug)]
pub struct Analytics {
    /// Rolling latency windows (per endpoint + WAL fsync).
    pub windows: WorkloadWindows,
    /// Hottest ingest source tokens this window.
    pub sources: WindowedTopK,
    /// Hottest routed shards this window.
    pub shards: WindowedTopK,
    /// Hottest match-result entities this window.
    pub entities: WindowedTopK,
    /// Slowest requests' full traces this window.
    pub exemplars: ExemplarRing,
}

/// The server's observability bundle: registry + metric handles, structured
/// logger, optional access logger, tracer, workload analytics, and the
/// start instant behind `uptime_seconds`. See the [module docs](self).
#[derive(Debug)]
pub struct Telemetry {
    /// The metric registry `GET /metrics` renders.
    pub registry: Registry,
    /// The structured logger (events, traces).
    pub logger: Arc<Logger>,
    /// Access logger, when `--access-log` is set.
    pub access: Option<Logger>,
    /// Request-id + sampling source.
    pub tracer: Tracer,
    /// All pre-registered metric handles.
    pub metrics: ServeMetrics,
    /// Workload analytics; `None` (`--no-telemetry`) also skips the
    /// histograms, traces and access log — counters run regardless.
    pub analytics: Option<Analytics>,
    started: Instant,
}

impl Telemetry {
    /// Build the bundle from `config` (opens log files eagerly so a bad
    /// path fails startup, not the first request).
    pub fn new(config: &ObsConfig) -> io::Result<Self> {
        let registry = Registry::new();
        let metrics = ServeMetrics::register(&registry);
        let logger = Arc::new(match &config.log_file {
            Some(path) => {
                Logger::rotating_file(config.log_level, path, config.log_rotate_bytes, ROTATE_KEEP)?
            }
            None => Logger::stderr(config.log_level),
        });
        let access = if config.telemetry {
            config
                .access_log
                .as_ref()
                .map(|path| {
                    Logger::rotating_file(Level::Info, path, config.log_rotate_bytes, ROTATE_KEEP)
                })
                .transpose()?
        } else {
            None
        };
        let analytics = config.telemetry.then(|| Analytics {
            windows: WorkloadWindows::new(WINDOW_SECS),
            sources: WindowedTopK::new(TOPK_CAPACITY),
            shards: WindowedTopK::new(TOPK_CAPACITY),
            entities: WindowedTopK::new(TOPK_CAPACITY),
            exemplars: ExemplarRing::new(EXEMPLAR_CAPACITY),
        });
        Ok(Self {
            registry,
            logger,
            access,
            tracer: Tracer::new(config.trace_sample_rate, config.slow_request_ms),
            metrics,
            analytics,
            started: Instant::now(),
        })
    }

    /// Seconds since the server started.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Count one ingest-source token in this window's heavy-hitter sketch.
    pub fn note_source(&self, key: &str) {
        if let Some(analytics) = &self.analytics {
            analytics
                .sources
                .hit_at(analytics.windows.window_epoch(), key);
        }
    }

    /// Count one routed shard in this window's heavy-hitter sketch.
    pub fn note_shard(&self, shard: usize) {
        if let Some(analytics) = &self.analytics {
            analytics
                .shards
                .hit_at(analytics.windows.window_epoch(), &format!("shard-{shard}"));
        }
    }

    /// Count one match-result entity in this window's heavy-hitter sketch.
    pub fn note_match_entity(&self, key: &str) {
        if let Some(analytics) = &self.analytics {
            analytics
                .entities
                .hit_at(analytics.windows.window_epoch(), key);
        }
    }

    /// Record one WAL fsync latency into the rolling fsync window.
    pub fn record_fsync_window(&self, ns: u64) {
        if let Some(analytics) = &self.analytics {
            analytics.windows.record_fsync(ns);
        }
    }

    /// Refresh the per-endpoint windowed gauge families
    /// (`multiem_request_rate`, `multiem_request_window_p{50,99}_seconds`)
    /// from the rolling windows. Called
    /// at scrape time; a no-op with telemetry off (the gauges then stay at
    /// their zero default).
    pub fn refresh_window_metrics(&self) {
        let Some(analytics) = &self.analytics else {
            return;
        };
        for endpoint in Endpoint::ALL {
            let snap = analytics.windows.endpoint_window(endpoint);
            self.metrics.set_window_gauges(
                endpoint,
                analytics.windows.rate(snap.count()),
                snap.quantile_ms(0.5) / 1_000.0,
                snap.quantile_ms(0.99) / 1_000.0,
            );
        }
    }

    /// The connection front end's counter pair.
    pub fn net_metrics(&self) -> NetMetrics {
        NetMetrics {
            accepted: Arc::clone(&self.metrics.connections_accepted),
            closed: Arc::clone(&self.metrics.connections_closed),
        }
    }

    /// Record one finished request: count it (always), then — telemetry
    /// permitting — close the trace against `total_ns` (its spans then sum
    /// to exactly the latency the access log reports), feed the end-to-end
    /// and per-stage histograms, emit the trace if sampled or slow, and
    /// write the access-log line.
    #[allow(clippy::too_many_arguments)]
    pub fn finish_request(
        &self,
        method: &str,
        path: &str,
        endpoint: Endpoint,
        status: u16,
        bytes: u64,
        total_ns: u64,
        trace: &mut Trace,
    ) {
        self.metrics.answered(endpoint, status);
        let Some(analytics) = &self.analytics else {
            return;
        };
        trace.finish(total_ns);
        self.metrics.duration(endpoint).record(total_ns);
        for (stage, ns) in trace.spans() {
            self.metrics.stage(stage).record(ns);
        }
        analytics.windows.record_request(endpoint, total_ns);
        let epoch = analytics.windows.window_epoch();
        if analytics.exemplars.admits(epoch, total_ns) {
            analytics.exemplars.offer(
                epoch,
                Exemplar {
                    trace: trace.clone(),
                    method: method.to_string(),
                    path: path.to_string(),
                    status,
                    total_ns,
                    ts_ms: log::unix_ms(),
                },
            );
        }
        if self.tracer.should_emit(trace, total_ns) {
            let slow = self.tracer.slow_ns() > 0 && total_ns >= self.tracer.slow_ns();
            trace::emit(&self.logger, trace, method, path, status, total_ns, slow);
        }
        if let Some(access) = &self.access {
            access.info(
                "access",
                &[
                    ("request_id", Value::UInt(trace.id)),
                    ("method", Value::Str(method.to_string())),
                    ("path", Value::Str(path.to_string())),
                    ("status", Value::UInt(u64::from(status))),
                    ("bytes", Value::UInt(bytes)),
                    ("latency_ns", Value::UInt(total_ns)),
                    ("fan_out", Value::UInt(trace.fan_out_width())),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_classes_split_out_429() {
        assert_eq!(STATUS_CLASSES[status_class(200)], "2xx");
        assert_eq!(STATUS_CLASSES[status_class(404)], "4xx");
        assert_eq!(STATUS_CLASSES[status_class(429)], "429");
        assert_eq!(STATUS_CLASSES[status_class(500)], "5xx");
    }

    #[test]
    fn finish_request_feeds_counters_histograms_and_respects_the_kill_switch() {
        let on = Telemetry::new(&ObsConfig {
            trace_sample_rate: 1.0,
            ..ObsConfig::default()
        })
        .unwrap();
        let mut trace = on.tracer.start();
        trace.add(Stage::Parse, 1_000);
        trace.add(Stage::AnnSearch, 5_000);
        on.finish_request(
            "POST",
            "/match",
            Endpoint::Match,
            200,
            64,
            10_000,
            &mut trace,
        );
        assert_eq!(on.metrics.requests_for(Endpoint::Match), 1);
        assert_eq!(on.metrics.duration(Endpoint::Match).count(), 1);
        assert_eq!(on.metrics.stage(Stage::AnnSearch).count(), 1);
        // Respond picked up the residual: spans sum to the total latency.
        assert_eq!(trace.get(Stage::Respond), 4_000);
        assert_eq!(trace.total_ns(), 10_000);
        // The analytics layer saw the request: rolling window + exemplar.
        let analytics = on.analytics.as_ref().expect("analytics on by default");
        let epoch = analytics.windows.window_epoch();
        assert_eq!(
            analytics.windows.endpoint_window(Endpoint::Match).count(),
            1
        );
        assert_eq!(analytics.exemplars.snapshot_at(epoch).len(), 1);
        on.note_source("acme");
        on.note_shard(3);
        on.note_match_entity("0-1-2");
        assert_eq!(analytics.sources.top_at(epoch).0[0].key, "acme");
        assert_eq!(analytics.shards.top_at(epoch).0[0].key, "shard-3");
        assert_eq!(analytics.entities.top_at(epoch).0[0].key, "0-1-2");
        on.refresh_window_metrics();
        let text = on.registry.render();
        assert!(text.contains("multiem_request_rate{endpoint=\"match\"}"));
        assert!(text.contains("multiem_request_window_p99_seconds{endpoint=\"match\"}"));

        let off = Telemetry::new(&ObsConfig {
            telemetry: false,
            ..ObsConfig::default()
        })
        .unwrap();
        let mut trace = off.tracer.start();
        trace.add(Stage::Parse, 1_000);
        off.finish_request(
            "POST",
            "/match",
            Endpoint::Match,
            429,
            64,
            10_000,
            &mut trace,
        );
        // Counters stay on; the histogram does not record, the analytics
        // layer is absent entirely.
        assert_eq!(off.metrics.requests_for(Endpoint::Match), 1);
        assert_eq!(off.metrics.duration(Endpoint::Match).count(), 0);
        assert!(off.analytics.is_none());
        off.note_source("acme"); // must be a safe no-op
        off.refresh_window_metrics();
        // The scrape still renders a complete exposition.
        let text = off.registry.render();
        assert!(text.contains("multiem_requests_total{endpoint=\"match\",status=\"429\"} 1"));
        assert!(text.contains(&format!(
            "multiem_build_info{{version=\"{BUILD_VERSION}\"}} 1"
        )));
    }

    #[test]
    fn uptime_moves_forward() {
        let telemetry = Telemetry::new(&ObsConfig::default()).unwrap();
        assert!(telemetry.uptime_seconds() >= 0.0);
        telemetry
            .metrics
            .uptime_seconds
            .set(telemetry.uptime_seconds());
        assert!(telemetry.metrics.uptime_seconds.get() >= 0.0);
    }
}
