//! The HTTP matching service.
//!
//! [`MatchServer`] glues the pieces together: a [`ShardedEntityStore`]
//! behind per-shard `RwLock`s, a writer per shard (its ingest queue and, in
//! durable mode, its WAL — `ingest.rs`, `checkpoint.rs`), and the
//! [`Reactor`] front end — an acceptor plus one blocking reader thread per
//! keep-alive connection, with fully parsed requests executed on the
//! fixed-size [`rayon::ThreadPool`] worker pool. Connection count and worker
//! count scale independently: an idle connection costs its reader's stack
//! and read buffer, and no worker and no CPU.
//!
//! The endpoints are the rows of the route table in `routes.rs`; the
//! comment above each row documents the route.

use crate::checkpoint::{open_wals, restore_or_create, segments_dir};
use crate::config::{ServeConfig, ServeError};
use crate::http::Request;
use crate::ingest::ShardWriter;
use crate::net::{Reactor, Routed};
use crate::obs::{elapsed_ns, Logger, Stage, Telemetry, BUILD_VERSION};
use crate::routes::{lookup, obj, ApiError, Call, Handler, Route};
use crate::shard::ShardedEntityStore;
use multiem_embed::EmbeddingModel;
use multiem_online::StorageConfig;
use multiem_table::Schema;
use rayon::ThreadPool;
use serde::Value;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Everything the routes share (crate-internal: the fields are the
/// handlers' working set).
pub(crate) struct ServerState<E: EmbeddingModel> {
    pub store: ShardedEntityStore<E>,
    /// The write side of each shard, same index as in `store`.
    pub writers: Vec<ShardWriter>,
    /// Checkpoint epoch: WAL files are named by it, and the manifest names
    /// the only epoch that is ever loaded. Mutated only under all shard +
    /// WAL locks (the checkpoint).
    pub epoch: AtomicU64,
    /// The configuration the server was bound with, `online.storage` as the
    /// data dir resolved it (a populated directory owns its backend).
    pub config: ServeConfig,
    /// Metrics registry + logger + tracer (`GET /metrics`, the access log,
    /// sampled traces). Recording is atomics; scraping takes only the
    /// registry's own mutex.
    pub telemetry: Telemetry,
    /// Set to begin a graceful shutdown (shared with the front end and the
    /// `POST /admin/shutdown` route).
    pub shutdown: Arc<AtomicBool>,
    /// Bound address (the shutdown route self-connects to unblock the
    /// acceptor).
    pub addr: SocketAddr,
}

/// The serving layer: a sharded store, a WAL, and an HTTP front end with a
/// reader thread per connection ([`crate::net`]).
pub struct MatchServer<E: EmbeddingModel> {
    pub(crate) state: Arc<ServerState<E>>,
    listener: TcpListener,
    pool: Arc<ThreadPool>,
}

/// Handle of a server spawned on a background thread. Dropping it (or
/// calling [`ServerHandle::shutdown`]) begins a graceful shutdown — stop
/// accepting, drain in-flight requests (bounded by
/// [`crate::net::DRAIN_DEADLINE`]), flush WALs — and joins the server
/// thread. Acknowledged writes always survive.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully stop: no new connections, drain in-flight requests,
    /// flush WALs, join the server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop, which then shuts every connection's read
        // half so the readers drain.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl<E: EmbeddingModel + Clone + 'static> MatchServer<E> {
    /// Build the store (restoring any checkpoint and replaying the WAL when
    /// `config.data_dir` is set) and bind the listener. Pass port `0` to let
    /// the OS pick one.
    pub fn bind(config: ServeConfig, encoder: E, addr: &str) -> Result<Self, ServeError> {
        if config.attributes.is_empty() {
            return Err(ServeError::Config(
                "schema needs at least one attribute".into(),
            ));
        }
        // The fsync check reads the windowed p99 from the analytics layer,
        // which telemetry off leaves out: the threshold would never trip.
        if !config.obs.telemetry && config.obs.ready_max_fsync_ms > 0 {
            return Err(ServeError::Config(
                "--ready-max-fsync-ms needs telemetry: --no-telemetry turns off \
                 the windowed fsync latency it reads"
                    .into(),
            ));
        }
        let schema = Schema::new(config.attributes.iter().map(String::as_str)).shared();
        // Telemetry comes up first so restore/replay warnings already go
        // through the structured logger (and a bad --log-file/--access-log
        // path fails startup, not the first request).
        let telemetry = Telemetry::new(&config.obs)?;

        // Disk segments live under the data dir (the sharded store gives
        // each shard its own subdirectory); caller-tuned segment and cache
        // sizes are kept, only the directory is overridden.
        let mut config = config;
        if let StorageConfig::Disk(disk) = &mut config.online.storage {
            let Some(dir) = &config.data_dir else {
                return Err(ServeError::Config(
                    "disk storage needs --data-dir (segments live under it)".into(),
                ));
            };
            disk.dir = segments_dir(dir);
        }

        // The store has the shard count: it clamps the configured one, and
        // a populated data dir pins its own, and its backend.
        let (store, epoch, writers) = match config.data_dir.clone() {
            None => {
                let (online, shards) = (config.online.clone(), config.shards);
                let store = ShardedEntityStore::new(online, schema, shards, encoder)?;
                let writers = (0..store.num_shards()).map(|i| ShardWriter::new(i, None));
                (store, 0, writers.collect())
            }
            Some(dir) => {
                std::fs::create_dir_all(&dir)?;
                let (store, manifest) =
                    restore_or_create(&mut config, schema, &dir, encoder, &telemetry.logger)?;
                let writers = open_wals(&store, &config, &dir, &manifest, &telemetry)?;
                (store, manifest.epoch, writers)
            }
        };
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let pool = Arc::new(ThreadPool::new(config.workers.max(1)));
        Ok(Self {
            state: Arc::new(ServerState {
                store,
                writers,
                epoch: AtomicU64::new(epoch),
                telemetry,
                shutdown: Arc::new(AtomicBool::new(false)),
                addr: bound,
                config,
            }),
            listener,
            pool,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The structured logger (what `--log-file` / `--log-level` configured).
    pub fn logger(&self) -> &Logger {
        &self.state.telemetry.logger
    }

    /// Every route the server answers, as `METHOD /path`: the route table's
    /// rows, so none can go missing.
    pub fn routes() -> Vec<String> {
        Route::<E>::TABLE.iter().map(Route::label).collect()
    }

    /// The three lines `serve` prints at start-up: the bound address, the
    /// counts the server *runs* with — the store clamps a shard count and a
    /// restored checkpoint pins its own, and the worker pool holds at least
    /// one thread — and every route.
    pub fn banner(&self) -> String {
        let state = &self.state;
        let durability = match &state.config.data_dir {
            Some(dir) => dir.display().to_string(),
            None => "in-memory".into(),
        };
        format!(
            "multiem-serve listening on http://{}\n  \
             {} shard(s), {} worker(s), a reader thread per connection, \
             durability: {durability}\n  {}",
            state.addr,
            state.store.num_shards(),
            state.config.workers.max(1),
            Self::routes().join("  ")
        )
    }

    /// Serve until a shutdown is signalled (`POST /admin/shutdown`, or the
    /// flag a [`ServerHandle`] sets), then drain in-flight requests and
    /// flush the WALs. The CLI entry point: returning `Ok` means a clean
    /// exit 0.
    pub fn run(self) -> io::Result<()> {
        let state = Arc::clone(&self.state);
        state.telemetry.logger.info(
            "startup",
            &[
                ("addr", Value::Str(state.addr.to_string())),
                ("shards", Value::UInt(state.store.num_shards() as u64)),
                ("durable", Value::Bool(state.config.data_dir.is_some())),
                ("version", Value::Str(BUILD_VERSION.into())),
            ],
        );

        let front = Arc::clone(&state);
        let reactor = Reactor::start(
            self.listener,
            Arc::clone(&self.pool),
            Arc::new(move |request| front.dispatch(request)),
            Arc::clone(&state.shutdown),
            state.telemetry.net_metrics(),
        )?;
        // Blocks until shutdown is signalled and in-flight work drains.
        reactor.join();
        drop(self.pool); // joins any worker still finishing an abandoned job

        // Make everything acknowledged durable before exiting.
        for wal in state
            .writers
            .iter()
            .filter_map(|writer| writer.wal.as_ref())
        {
            let _ = wal.lock().wal.sync();
        }
        Ok(())
    }

    /// Serve on a background thread; the handle gracefully shuts the
    /// server down.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::clone(&self.state.shutdown);
        let thread = std::thread::Builder::new()
            .name("multiem-serve".into())
            .spawn(move || {
                let _ = self.run();
            })?;
        Ok(ServerHandle {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }
}

impl<E: EmbeddingModel + 'static> ServerState<E> {
    /// The front end's handler, called once per parsed request on its
    /// connection's reader thread — the one route [`lookup`] of the
    /// request's life. An inline row is answered here; a worker row (the
    /// 404/405 fallbacks included) becomes a job that carries the row it
    /// matched.
    pub(crate) fn dispatch(self: &Arc<Self>, request: Request) -> Routed {
        let route = lookup::<E>(&request.method, &request.path);
        match route.handler {
            Handler::Inline(handler) => {
                let response = handler(self);
                self.telemetry
                    .metrics
                    .answered(route.endpoint, response.status);
                Routed::Inline(response.render(request.close), request.close)
            }
            Handler::Worker(_) => {
                let state = Arc::clone(self);
                let dispatched = Instant::now();
                Routed::Worker(Box::new(move || {
                    state.execute(&route, &request, dispatched)
                }))
            }
        }
    }

    /// Answer `request` through `route` on the calling (worker) thread,
    /// traced: `dispatched` is when the reader handed it over, so the gap
    /// to now is the trace's `queue_wait` span.
    pub(crate) fn execute(
        &self,
        route: &Route<E>,
        request: &Request,
        dispatched: Instant,
    ) -> (Vec<u8>, bool) {
        let entered = Instant::now();
        let mut trace = self.telemetry.tracer.start();
        trace.add(Stage::Parse, request.parse_ns);
        let queue_ns = entered.saturating_duration_since(dispatched).as_nanos();
        trace.add(Stage::QueueWait, queue_ns.min(u128::from(u64::MAX)) as u64);
        let response = route.run(self, request, &mut trace);
        let bytes = response.render(request.close);
        // End-to-end latency = parse + queue wait + worker execution (the
        // same wall-clock sum the trace's spans decompose).
        let total_ns = request
            .parse_ns
            .saturating_add(trace.get(Stage::QueueWait))
            .saturating_add(elapsed_ns(entered));
        self.telemetry.finish_request(
            &request.method,
            &request.path,
            route.endpoint,
            response.status,
            bytes.len() as u64,
            total_ns,
            &mut trace,
        );
        (bytes, request.close)
    }
}

/// `POST /admin/shutdown`: begin the graceful drain. The front end stops
/// parsing new requests, finishes in-flight ones (this response included),
/// then `run` flushes the WALs and returns cleanly. The self-connect
/// unblocks the acceptor thread.
pub(crate) fn post_shutdown<E: EmbeddingModel>(call: Call<'_, E>) -> Result<Value, ApiError> {
    let state = call.state;
    state.shutdown.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(state.addr);
    Ok(obj([("shutting_down", Value::Bool(true))]))
}
