//! The route table: every route the service answers, said once.
//!
//! Each row of [`Route::TABLE`] declares a method, a path (exact or
//! prefix), the [`Endpoint`] its metrics are labelled by, and a handler
//! whose type is its class — [`Handler::Inline`] rows are answered on the
//! connection's reader thread and see nothing but the server state (no body, no
//! trace, and by the `lint:fast-path` rule no lock), [`Handler::Worker`]
//! rows run on the worker pool. [`lookup`] is the only dispatcher: the
//! connection front end, the worker, the metrics label and the 404/405
//! fallback all read the row it returns, so the table is scanned once per
//! request; the `serve` start-up banner prints the rows themselves.
//!
//! The module also holds what a handler speaks: [`Response`], the one
//! [`ApiError`] every failing route answers with, and the JSON body helpers.

use crate::config::ServeError;
use crate::http::{reason_phrase, render_response_typed, Request};
use crate::obs::{Endpoint, Trace};
use crate::server::ServerState;
use crate::{checkpoint, ingest, matching, server, views};
use multiem_embed::EmbeddingModel;
use multiem_online::OnlineError;
use multiem_table::{Record, Value as AttrValue};
use serde::Value;

/// One routed response: status, body and the two headers that vary.
#[derive(Debug)]
pub(crate) struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: String,
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: Value) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: render(body),
            retry_after: None,
        }
    }

    /// `200 OK` with a JSON body.
    pub fn ok(body: Value) -> Self {
        Self::json(200, body)
    }

    /// On-wire bytes of this response.
    pub fn render(&self, close: bool) -> Vec<u8> {
        let mut extra: Vec<(&str, String)> = Vec::new();
        if let Some(seconds) = self.retry_after {
            extra.push(("Retry-After", seconds.to_string()));
        }
        render_response_typed(
            self.status,
            reason_phrase(self.status),
            self.content_type,
            &self.body,
            close,
            &extra,
        )
    }
}

/// Why a route failed: the status it answers with and the `error` message
/// of its body. Client mistakes are `400`/`404`; a fault on this side of
/// the socket — a WAL append, a store apply, a checkpoint write — is `500`,
/// so a retrying client keeps retrying instead of giving up on a request it
/// believes it got wrong.
#[derive(Debug)]
pub(crate) struct ApiError {
    pub status: u16,
    pub message: String,
    /// `429` only: `(records refused, Retry-After seconds)`.
    pub backoff: Option<(u64, u64)>,
}

impl ApiError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
            backoff: None,
        }
    }

    /// `400`: the request itself is wrong; retrying it verbatim cannot help.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, message)
    }

    /// `404`.
    pub fn not_found(message: impl Into<String>) -> Self {
        Self::new(404, message)
    }

    /// `500`: a server-side fault.
    pub fn internal(message: impl Into<String>) -> Self {
        Self::new(500, message)
    }

    /// `429` + `Retry-After`: a target shard's ingest queue is full.
    pub fn overloaded(rejected: u64, retry_after: u64) -> Self {
        Self {
            backoff: Some((rejected, retry_after)),
            ..Self::new(429, "ingest queue full; retry later")
        }
    }
}

impl From<OnlineError> for ApiError {
    fn from(e: OnlineError) -> Self {
        Self::internal(e.to_string())
    }
}

impl From<ServeError> for ApiError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Config(msg) => Self::bad_request(msg),
            other => Self::internal(other.to_string()),
        }
    }
}

impl From<ApiError> for Response {
    fn from(e: ApiError) -> Self {
        let mut body = vec![("error".into(), Value::Str(e.message))];
        if let Some((rejected, retry_after)) = e.backoff {
            body.push(("rejected".into(), Value::UInt(rejected)));
            body.push(("retry_after".into(), Value::UInt(retry_after)));
        }
        Self {
            retry_after: e.backoff.map(|(_, seconds)| seconds),
            ..Self::json(e.status, Value::Map(body))
        }
    }
}

/// How a row's path is matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PathPattern {
    /// The whole path, literally.
    Exact(&'static str),
    /// Everything under a prefix; the handler receives the remainder.
    Prefix(&'static str),
}

impl PathPattern {
    /// What follows the pattern in `path` (`""` for an exact match), or
    /// `None` when `path` does not match.
    fn tail(self, path: &str) -> Option<&str> {
        match self {
            PathPattern::Exact(exact) => (path == exact).then_some(""),
            PathPattern::Prefix(prefix) => path.strip_prefix(prefix),
        }
    }
}

/// Answers on the connection's reader thread from the server state alone.
pub(crate) type Inline<E> = fn(&ServerState<E>) -> Response;

/// What a worker row's handler is called with.
pub(crate) struct Call<'a, E: EmbeddingModel> {
    pub state: &'a ServerState<E>,
    pub body: &'a [u8],
    /// The path's tail past a [`PathPattern::Prefix`] (`""` for exact rows).
    pub tail: &'a str,
    pub trace: &'a mut Trace,
}

/// Answers on the worker pool with a `200` JSON body or an [`ApiError`].
pub(crate) type Worker<E> = fn(Call<'_, E>) -> Result<Value, ApiError>;

/// A row's handler, typed by where it runs.
pub(crate) enum Handler<E: EmbeddingModel> {
    /// Inline on the connection's reader thread: probes, the scrape and the
    /// `/debug/*` surface stay green while every worker is busy or a
    /// checkpoint holds the store. Counted in `multiem_requests_total`, not
    /// in the duration histograms (those cover exactly the worker path).
    Inline(Inline<E>),
    /// On the worker pool, traced stage by stage.
    Worker(Worker<E>),
}

/// One row of the route table.
pub(crate) struct Route<E: EmbeddingModel> {
    pub method: &'static str,
    pub path: PathPattern,
    pub endpoint: Endpoint,
    pub handler: Handler<E>,
}

impl<E: EmbeddingModel> Route<E> {
    /// Every route of the service, one row each: method, path, metrics
    /// label, handler (whose variant is the row's class). The comment above
    /// a row is the route's reference documentation.
    #[rustfmt::skip]
    pub const TABLE: [Route<E>; 14] = {
        use Handler::{Inline, Worker};
        use PathPattern::{Exact, Prefix};
        [
            // Liveness: shard count, durability, storage backend, uptime,
            // build version, checkpoint epoch.
            Route { method: "GET", path: Exact("/healthz"), endpoint: Endpoint::Healthz, handler: Inline(views::healthz) },
            // Readiness: `503` + reasons when the ingest backlog or the
            // windowed p99 fsync latency crosses its `--ready-max-*` threshold.
            Route { method: "GET", path: Exact("/readyz"), endpoint: Endpoint::Readyz, handler: Inline(views::readyz) },
            // Aggregate + per-shard store counters, WAL size, queue and
            // storage counters (shards a writer holds report their last
            // published counters).
            Route { method: "GET", path: Exact("/stats"), endpoint: Endpoint::Stats, handler: Inline(views::stats) },
            // Prometheus text exposition: request/ingest/delete/429 counters,
            // WAL byte/fsync counters, end-to-end + per-stage latency
            // histograms, uptime/epoch/queue/cache gauges, windowed rate +
            // quantile gauges.
            Route { method: "GET", path: Exact("/metrics"), endpoint: Endpoint::Metrics, handler: Inline(views::metrics) },
            // Per-endpoint rates and p50/p99 over the rolling 60 s window,
            // plus windowed fsync latency.
            Route { method: "GET", path: Exact("/debug/window"), endpoint: Endpoint::Debug, handler: Inline(views::debug_window) },
            // Heavy hitters of the current + previous window: ingest sources,
            // routed shards, match-result entities.
            Route { method: "GET", path: Exact("/debug/top"), endpoint: Endpoint::Debug, handler: Inline(views::debug_top) },
            // The slowest requests of the current + previous window, with
            // full span traces.
            Route { method: "GET", path: Exact("/debug/slow"), endpoint: Endpoint::Debug, handler: Inline(views::debug_slow) },
            // Per-shard storage health: cache hit rate, WAL bytes,
            // per-segment live ratios.
            Route { method: "GET", path: Exact("/debug/storage"), endpoint: Endpoint::Debug, handler: Inline(views::debug_storage) },
            // Body `{"records": [[v, ...], ...]}` (values are JSON strings,
            // numbers or `null`, positional against the schema): WAL-append +
            // insert each record into its shard, reporting `matched` (fused
            // with at least one existing cluster at insert time); `429` +
            // adaptive `Retry-After` (backlog / drain rate, clamped 1..=30)
            // when a target shard's ingest queue is full.
            Route { method: "POST", path: Exact("/records"), endpoint: Endpoint::Records, handler: Worker(ingest::post_records) },
            // Body `{"ids": [[shard, source, row], ...]}`: batch deletion;
            // per-id outcomes, unknown ids report `false`.
            Route { method: "POST", path: Exact("/records/delete"), endpoint: Endpoint::RecordsDelete, handler: Worker(ingest::post_delete) },
            // `DELETE /records/{shard}-{source}-{row}`: WAL-append + delete
            // one record (`404` for unknown or already-deleted ids).
            Route { method: "DELETE", path: Prefix("/records/"), endpoint: Endpoint::RecordsDelete, handler: Worker(ingest::delete_record) },
            // Body `{"record": [v, ...]}`: read-only fan-out match across all
            // shards.
            Route { method: "POST", path: Exact("/match"), endpoint: Endpoint::Match, handler: Worker(matching::post_match) },
            // Delta checkpoint: persist changed shards (disk shards compact
            // low-live segments first), truncate the WAL, GC orphaned +
            // superseded segment files.
            Route { method: "POST", path: Exact("/snapshot"), endpoint: Endpoint::Snapshot, handler: Worker(|call| Ok(checkpoint::checkpoint(call.state)?)) },
            // Graceful shutdown: stop accepting, drain in-flight requests,
            // flush WALs, exit 0.
            Route { method: "POST", path: Exact("/admin/shutdown"), endpoint: Endpoint::Shutdown, handler: Worker(server::post_shutdown) },
        ]
    };

    /// `METHOD /path` as documentation spells the row (`{id}` stands for a
    /// prefix row's tail).
    pub fn label(&self) -> String {
        match self.path {
            PathPattern::Exact(path) => format!("{} {path}", self.method),
            PathPattern::Prefix(prefix) => format!("{} {prefix}{{id}}", self.method),
        }
    }

    /// Answer `request`, which [`lookup`] matched to this row.
    pub fn run(&self, state: &ServerState<E>, request: &Request, trace: &mut Trace) -> Response {
        match self.handler {
            Handler::Inline(handler) => handler(state),
            Handler::Worker(handler) => {
                let tail = self.path.tail(&request.path).unwrap_or_default();
                let body = &request.body;
                let call = Call {
                    state,
                    body,
                    tail,
                    trace,
                };
                handler(call).map_or_else(Response::from, Response::ok)
            }
        }
    }
}

/// The row answering `method path`: a row of [`Route::TABLE`], or a
/// fallback labelled [`Endpoint::Other`] that answers `404` — `405` when no
/// row uses the method at all.
pub(crate) fn lookup<E: EmbeddingModel>(method: &str, path: &str) -> Route<E> {
    let matched = Route::TABLE
        .into_iter()
        .find(|route| route.method == method && route.path.tail(path).is_some());
    matched.unwrap_or_else(|| {
        let method_known = Route::<E>::TABLE.iter().any(|route| route.method == method);
        Route {
            method: "",
            path: PathPattern::Prefix(""),
            endpoint: Endpoint::Other,
            handler: Handler::Worker(if method_known {
                |_| Err(ApiError::not_found("no such route"))
            } else {
                |_| Err(ApiError::new(405, "unsupported method"))
            }),
        }
    })
}

// --------------------------------------------------------------------------
// JSON body helpers
// --------------------------------------------------------------------------

pub(crate) fn parse_body(body: &[u8]) -> Result<Value, ApiError> {
    serde_json::from_slice(body)
        .map_err(|e| ApiError::bad_request(format!("invalid JSON body: {e}")))
}

pub(crate) fn field<'a>(value: &'a Value, name: &str) -> Option<&'a Value> {
    value
        .as_map()?
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, v)| v)
}

/// `["text", 4.5, null]` → a positional [`Record`].
pub(crate) fn record_from_value(value: &Value) -> Result<Record, String> {
    let items = value.as_seq().ok_or("record must be a JSON array")?;
    let mut values = Vec::with_capacity(items.len());
    for item in items {
        values.push(match item {
            Value::Str(s) => AttrValue::Text(s.clone()),
            Value::Int(_) | Value::UInt(_) | Value::Float(_) => {
                AttrValue::Number(item.as_f64().unwrap_or(f64::NAN))
            }
            Value::Null => AttrValue::Null,
            _ => return Err("attribute values must be strings, numbers or null".into()),
        });
    }
    Ok(Record::new(values))
}

/// A JSON object of `fields`, in order.
pub(crate) fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Map(fields.map(|(key, value)| (key.to_string(), value)).into())
}

pub(crate) fn render(value: Value) -> String {
    serde_json::to_string(&value).unwrap_or_else(|_| "{}".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_response;
    use crate::net::Routed;
    use crate::{MatchServer, ServeConfig};
    use multiem_embed::HashedLexicalEncoder;
    use std::sync::Arc;
    use std::time::Instant;

    type Enc = HashedLexicalEncoder;

    /// A bound (never run) single-shard in-memory server's state.
    fn state() -> Arc<ServerState<Enc>> {
        let config = ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        };
        let server = MatchServer::bind(config, Enc::default(), "127.0.0.1:0").unwrap();
        Arc::clone(&server.state)
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            body: body.as_bytes().to_vec(),
            close: false,
            parse_ns: 0,
        }
    }

    /// Answer one request the way the front end would (a worker job runs on
    /// the calling thread): `(status, body)`.
    fn call(state: &Arc<ServerState<Enc>>, method: &str, path: &str, body: &str) -> (u16, String) {
        let bytes = match state.dispatch(request(method, path, body)) {
            Routed::Inline(bytes, _) => bytes,
            Routed::Worker(job) => job().0,
        };
        let (status, _, body) = read_response(&mut &bytes[..]).unwrap();
        (status, body)
    }

    /// Volatile values (uptime, counters, timestamps, lengths) masked: every
    /// number becomes `#`.
    fn mask_numbers(bytes: &[u8]) -> String {
        let mut out = String::new();
        let mut chars = String::from_utf8_lossy(bytes)
            .into_owned()
            .into_bytes()
            .into_iter()
            .peekable();
        while let Some(c) = chars.next() {
            if !c.is_ascii_digit() {
                out.push(c as char);
                continue;
            }
            out.push('#');
            while chars
                .next_if(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'-'))
                .is_some()
            {}
        }
        out
    }

    #[test]
    fn rows_are_unique_and_cover_every_endpoint() {
        let table = Route::<Enc>::TABLE;
        for (i, a) in table.iter().enumerate() {
            for b in &table[i + 1..] {
                assert!(
                    (a.method, a.path) != (b.method, b.path),
                    "duplicate row {}",
                    a.label()
                );
            }
        }
        for endpoint in Endpoint::ALL {
            let named = table.iter().any(|route| route.endpoint == endpoint);
            assert_eq!(named, endpoint != Endpoint::Other, "{}", endpoint.name());
        }
    }

    #[test]
    fn lookup_classifies_requests() {
        let endpoint = |method, path| lookup::<Enc>(method, path).endpoint;
        assert_eq!(endpoint("GET", "/healthz"), Endpoint::Healthz);
        assert_eq!(endpoint("GET", "/readyz"), Endpoint::Readyz);
        assert_eq!(endpoint("GET", "/metrics"), Endpoint::Metrics);
        assert_eq!(endpoint("GET", "/debug/top"), Endpoint::Debug);
        assert_eq!(endpoint("GET", "/debug/window"), Endpoint::Debug);
        assert_eq!(endpoint("POST", "/debug/top"), Endpoint::Other);
        assert_eq!(endpoint("POST", "/records"), Endpoint::Records);
        assert_eq!(endpoint("POST", "/records/delete"), Endpoint::RecordsDelete);
        assert_eq!(
            endpoint("DELETE", "/records/0-1-2"),
            Endpoint::RecordsDelete
        );
        assert_eq!(endpoint("POST", "/match"), Endpoint::Match);
        assert_eq!(endpoint("POST", "/snapshot"), Endpoint::Snapshot);
        assert_eq!(endpoint("POST", "/admin/shutdown"), Endpoint::Shutdown);
        assert_eq!(endpoint("GET", "/nope"), Endpoint::Other);
        assert_eq!(endpoint("PUT", "/records"), Endpoint::Other);
        // The label follows the router: a debug path no row names is a 404
        // under `other`, not a `debug` request.
        assert_eq!(endpoint("GET", "/debug/nope"), Endpoint::Other);
    }

    #[test]
    fn fallbacks_answer_404_and_405_counted_under_other() {
        let state = state();
        let (status, body) = call(&state, "GET", "/debug/nope", "");
        assert_eq!(
            (status, body.as_str()),
            (404, "{\"error\":\"no such route\"}")
        );
        // A path that exists under another method is still "no such route"...
        assert_eq!(call(&state, "GET", "/match", "").0, 404);
        // ...and a method no row uses is 405 whatever the path.
        let (status, body) = call(&state, "PUT", "/match", "");
        assert_eq!(
            (status, body.as_str()),
            (405, "{\"error\":\"unsupported method\"}")
        );
        let metrics = &state.telemetry.metrics;
        assert_eq!(metrics.requests_for(Endpoint::Other), 3);
        assert_eq!(metrics.requests_for(Endpoint::Debug), 0);
        assert_eq!(metrics.requests_for(Endpoint::Match), 0);
    }

    #[test]
    fn inline_rows_answer_identically_on_the_io_thread_and_on_a_worker() {
        let state = state();
        let mut inline_rows = 0;
        for route in Route::<Enc>::TABLE {
            let Handler::Inline(_) = route.handler else {
                continue;
            };
            inline_rows += 1;
            let PathPattern::Exact(path) = route.path else {
                panic!("inline rows are exact paths");
            };
            let request = request(route.method, path, "");
            let Routed::Inline(inline, _) = state.dispatch(request.clone()) else {
                panic!("{} is not answered inline", route.label());
            };
            let (worker, _) = state.execute(&route, &request, Instant::now());
            let (status, headers, _) = read_response(&mut &inline[..]).unwrap();
            let (worker_status, worker_headers, _) = read_response(&mut &worker[..]).unwrap();
            assert_eq!(status, worker_status, "{}", route.label());
            let content_type = |headers: &[(String, String)]| {
                let header = headers.iter().find(|(name, _)| name == "content-type");
                header.map(|(_, value)| value.clone())
            };
            assert_eq!(content_type(&headers), content_type(&worker_headers));
            let expected = match route.endpoint {
                Endpoint::Metrics => "text/plain; version=0.0.4; charset=utf-8",
                _ => "application/json",
            };
            assert_eq!(content_type(&headers).as_deref(), Some(expected));
            assert_eq!(
                mask_numbers(&inline),
                mask_numbers(&worker),
                "{}",
                route.label()
            );
        }
        assert_eq!(inline_rows, 8);
    }

    #[test]
    fn readme_and_banner_name_every_row() {
        let readme = include_str!("../../../README.md");
        let banner = MatchServer::<Enc>::routes();
        assert_eq!(banner.len(), Route::<Enc>::TABLE.len());
        for route in Route::<Enc>::TABLE {
            let label = route.label();
            assert!(
                readme.contains(&format!("| `{label}` |")),
                "README's endpoint table lacks `{label}`"
            );
            assert!(banner.contains(&label), "banner lacks `{label}`");
        }
        assert!(banner.contains(&"DELETE /records/{id}".to_string()));
        assert!(banner.contains(&"POST /records/delete".to_string()));
    }

    #[test]
    fn errors_map_to_statuses() {
        use crate::ServeError;
        assert_eq!(ApiError::bad_request("x").status, 400);
        assert_eq!(ApiError::not_found("x").status, 404);
        // Server-side faults are 500s: a full disk under the WAL or a store
        // that refuses an apply is not the client's mistake.
        let disk_full = std::io::Error::other("no space left on device");
        assert_eq!(ApiError::from(ServeError::Io(disk_full)).status, 500);
        let store = OnlineError::InvalidConfig("broken".into());
        assert_eq!(ApiError::from(store).status, 500);
        let store = OnlineError::InvalidConfig("broken".into());
        assert_eq!(ApiError::from(ServeError::Store(store)).status, 500);
        // Only a configuration the request itself chose is a 400.
        let config = ServeError::Config("no data dir".into());
        assert_eq!(ApiError::from(config).status, 400);

        let overloaded = Response::from(ApiError::overloaded(3, 7));
        assert_eq!(overloaded.status, 429);
        assert_eq!(overloaded.retry_after, Some(7));
        assert_eq!(
            overloaded.body,
            "{\"error\":\"ingest queue full; retry later\",\"rejected\":3,\"retry_after\":7}"
        );
        let wire = String::from_utf8(overloaded.render(false)).unwrap();
        assert!(wire.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(wire.contains("\r\nRetry-After: 7\r\n"));
    }

    #[test]
    fn out_of_range_id_components_are_rejected_not_wrapped() {
        let state = state();
        let titles: Vec<String> = (0..6).map(|i| format!("[\"title number {i}\"]")).collect();
        let body = format!("{{\"records\":[{}]}}", titles.join(","));
        assert_eq!(call(&state, "POST", "/records", &body).0, 200);
        // 4294967296 = 2^32 would wrap to 0 under an `as u32` cast and
        // delete record 0-0-5.
        for path in [
            "/records/4294967296-0-5",
            "/records/0-4294967296-5",
            "/records/0-0-4294967301",
        ] {
            assert_eq!(call(&state, "DELETE", path, "").0, 400, "{path}");
        }
        for ids in ["[4294967296,0,5]", "[0,4294967296,5]", "[0,0,4294967301]"] {
            let body = format!("{{\"ids\":[{ids}]}}");
            let (status, body) = call(&state, "POST", "/records/delete", &body);
            assert_eq!(status, 400, "{ids}");
            assert!(body.contains("ids[0] must be a [shard, source, row] triple"));
        }
        assert!(call(&state, "GET", "/stats", "")
            .1
            .contains("\"records\":6,\"deleted\":0"));
        // Record 0-0-5 is still there to delete, by either spelling.
        assert_eq!(call(&state, "DELETE", "/records/0-0-5", "").0, 200);
        let (status, body) = call(&state, "POST", "/records/delete", "{\"ids\":[[0,0,4]]}");
        assert_eq!(status, 200);
        assert!(body.contains("\"deleted\":1"), "{body}");
    }

    #[test]
    fn record_from_value_handles_the_three_kinds() {
        let v = Value::Seq(vec![
            Value::Str("sony tv".into()),
            Value::Float(4.5),
            Value::Null,
        ]);
        let record = record_from_value(&v).unwrap();
        assert_eq!(record.arity(), 3);
        assert_eq!(record.values()[0].as_text(), Some("sony tv"));
        assert_eq!(record.values()[1].as_number(), Some(4.5));
        assert!(record.values()[2].is_empty());
        assert!(record_from_value(&Value::Str("not an array".into())).is_err());
        assert!(record_from_value(&Value::Seq(vec![Value::Bool(true)])).is_err());
    }
}
