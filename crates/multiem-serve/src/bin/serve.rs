//! The `multiem-serve` CLI: run the sharded matching service.
//!
//! ```bash
//! cargo run --release -p multiem-serve --bin serve -- \
//!     --addr 127.0.0.1:7878 --shards 4 --workers 8 \
//!     --data-dir ./multiem-data --attrs title
//! ```

#![forbid(unsafe_code)]

mod cli;

use cli::{fail, parse, Flag};
use multiem_embed::HashedLexicalEncoder;
use multiem_online::StorageConfig;
use multiem_serve::obs::Level;
use multiem_serve::{FsyncPolicy, MatchServer, ServeConfig};
use serde::Value;
use std::io::Write;

/// What the command line sets.
struct Options {
    config: ServeConfig,
    addr: String,
    /// `--io-threads` was given: warned about once the logger is up.
    io_threads: bool,
}

/// Every flag of `serve`, one row each: the parser and `--help` both read it.
#[rustfmt::skip]
const FLAGS: &[Flag<Options>] = &[
    Flag { name: "--addr", value: "HOST:PORT", help: "bind address (default 127.0.0.1:7878)", set: |o, v| { o.addr = v.to_string(); Ok(()) } },
    Flag { name: "--shards", value: "N", help: "store shards (default 4)", set: |o, v| parse(v, "--shards").map(|n| o.config.shards = n) },
    Flag { name: "--workers", value: "N", help: "request-execution worker threads (default 4)", set: |o, v| parse(v, "--workers").map(|n| o.config.workers = n) },
    // Only warned about (every connection has its own reader); kept because
    // existing command lines, the benchmark's among them, pass it.
    Flag { name: "--io-threads", value: "N", help: "ignored (each connection has its own\nreader thread); logs a warning", set: |o, v| parse::<usize>(v, "--io-threads").map(|_| o.io_threads = true) },
    Flag { name: "--data-dir", value: "PATH", help: "enable WAL + checkpoints under PATH", set: |o, v| { o.config.data_dir = Some(v.into()); Ok(()) } },
    Flag { name: "--attrs", value: "a,b,c", help: "schema attribute names (default `title`)", set: |o, v| { o.config.attributes = v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect(); Ok(()) } },
    Flag { name: "--m", value: "FLOAT", help: "merge distance threshold (default 0.35)", set: |o, v| parse(v, "--m").map(|m| o.config.online.base.m = m) },
    // `bind` roots a disk backend under --data-dir.
    Flag { name: "--storage", value: "mem|disk", help: "record storage of a new data dir (disk spills\nto segments under --data-dir; default mem)",
        set: |o, v| match v {
            "mem" | "memory" => { o.config.online.storage = StorageConfig::Memory; Ok(()) }
            "disk" => { o.config.online = o.config.online.clone().with_disk_storage(""); Ok(()) }
            other => Err(format!("unknown storage backend `{other}` (expected mem or disk)")),
        } },
    Flag { name: "--fsync", value: "POLICY", help: "WAL fsync: never, interval or always\n(default interval)", set: |o, v| FsyncPolicy::parse(v).map(|p| o.config.fsync = p) },
    Flag { name: "--queue-depth", value: "N", help: "per-shard ingest queue bound; full shards\nanswer 429 + Retry-After (default 4096)", set: |o, v| parse(v, "--queue-depth").map(|n| o.config.queue_depth = n) },
    Flag { name: "--log-level", value: "LVL", help: "structured-log level: error, warn, info\nor debug (default info)", set: |o, v| Level::parse(v).map(|l| o.config.obs.log_level = l) },
    Flag { name: "--log-file", value: "PATH", help: "write structured JSON logs to PATH\ninstead of stderr", set: |o, v| { o.config.obs.log_file = Some(v.into()); Ok(()) } },
    Flag { name: "--access-log", value: "PATH", help: "append one JSON access line per request", set: |o, v| { o.config.obs.access_log = Some(v.into()); Ok(()) } },
    Flag { name: "--trace-sample-rate", value: "R", help: "emit the trace of every ~1/R-th\nrequest as a JSON line (0 disables)",
        set: |o, v| match parse::<f64>(v, "--trace-sample-rate")? {
            rate if rate.is_finite() => { o.config.obs.trace_sample_rate = rate; Ok(()) }
            _ => Err(format!("invalid value `{v}` for --trace-sample-rate")),
        } },
    Flag { name: "--slow-request-ms", value: "N", help: "force-emit traces of requests slower\nthan N ms, sampled or not (0 disables)", set: |o, v| parse(v, "--slow-request-ms").map(|n| o.config.obs.slow_request_ms = n) },
    Flag { name: "--no-telemetry", value: "", help: "disable histograms, traces, the access\nlog and the /debug/* analytics (60 s\nwindow; counters stay on)", set: |o, _| { o.config.obs.telemetry = false; Ok(()) } },
    Flag { name: "--ready-max-backlog", value: "N", help: "/readyz answers 503 past N queued\ningest records (0 disables)", set: |o, v| parse(v, "--ready-max-backlog").map(|n| o.config.obs.ready_max_backlog = n) },
    Flag { name: "--ready-max-fsync-ms", value: "N", help: "/readyz answers 503 past N ms\nwindowed p99 fsync latency (0 disables;\nrefused with --no-telemetry)", set: |o, v| parse(v, "--ready-max-fsync-ms").map(|n| o.config.obs.ready_max_fsync_ms = n) },
    Flag { name: "--log-rotate-bytes", value: "N", help: "rotate --log-file / --access-log\nat N bytes (0 disables rotation), keeping\n3 rotated generations", set: |o, v| parse(v, "--log-rotate-bytes").map(|n| o.config.obs.log_rotate_bytes = n) },
];

fn main() {
    let mut options = Options {
        config: ServeConfig::default(),
        addr: "127.0.0.1:7878".to_string(),
        io_threads: false,
    };
    cli::apply(
        "multiem-serve: sharded entity-matching service",
        FLAGS,
        &mut options,
    );
    let encoder = HashedLexicalEncoder::default();
    let server = match MatchServer::bind(options.config, encoder, &options.addr) {
        Ok(server) => server,
        Err(e) => fail(&format!("startup failed: {e}")),
    };
    if options.io_threads {
        server.logger().warn(
            "flag_ignored",
            &[
                ("flag", Value::Str("--io-threads".into())),
                (
                    "reason",
                    Value::Str("each connection has its own reader thread".into()),
                ),
            ],
        );
    }
    // A supervisor may read the first line and close the pipe: what it no
    // longer reads must not panic the server, so stdout errors are ignored
    // here and at exit.
    let _ = writeln!(std::io::stdout().lock(), "{}", server.banner());
    if let Err(e) = server.run() {
        fail(&format!("server error: {e}"));
    }
    // run() returns only after a graceful shutdown: accepting stopped,
    // in-flight requests drained, WALs flushed.
    let _ = writeln!(
        std::io::stdout().lock(),
        "multiem-serve: drained and flushed; exiting"
    );
}
