//! The `multiem-serve` CLI: run the sharded matching service.
//!
//! ```bash
//! cargo run --release -p multiem-serve --bin serve -- \
//!     --addr 127.0.0.1:7878 --shards 4 --workers 8 \
//!     --data-dir ./multiem-data --attrs title
//! ```

#![forbid(unsafe_code)]

use multiem_embed::HashedLexicalEncoder;
use multiem_online::StorageConfig;
use multiem_serve::obs::Level;
use multiem_serve::{FsyncPolicy, MatchServer, ServeConfig};
use serde::Value;
use std::io::Write;
use std::path::PathBuf;

fn main() {
    let mut config = ServeConfig::default();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut io_threads_given = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--shards" => config.shards = parse(&value("--shards"), "--shards"),
            "--workers" => config.workers = parse(&value("--workers"), "--workers"),
            // Accepted and ignored: every connection has its own reader.
            "--io-threads" => {
                parse::<usize>(&value("--io-threads"), "--io-threads");
                io_threads_given = true;
            }
            "--data-dir" => config.data_dir = Some(PathBuf::from(value("--data-dir"))),
            "--attrs" => {
                config.attributes = value("--attrs")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--m" => config.online.base.m = parse(&value("--m"), "--m"),
            // `bind` roots a disk backend under --data-dir.
            "--storage" => match value("--storage").as_str() {
                "mem" | "memory" => config.online.storage = StorageConfig::Memory,
                "disk" => config.online = config.online.with_disk_storage(""),
                other => fail(&format!(
                    "unknown storage backend `{other}` (expected mem or disk)"
                )),
            },
            "--fsync" => {
                config.fsync = FsyncPolicy::parse(&value("--fsync")).unwrap_or_else(|e| fail(&e));
            }
            "--queue-depth" => {
                config.queue_depth = parse(&value("--queue-depth"), "--queue-depth");
            }
            "--log-level" => {
                config.obs.log_level =
                    Level::parse(&value("--log-level")).unwrap_or_else(|e| fail(&e));
            }
            "--log-file" => config.obs.log_file = Some(PathBuf::from(value("--log-file"))),
            "--access-log" => config.obs.access_log = Some(PathBuf::from(value("--access-log"))),
            "--trace-sample-rate" => {
                let text = value("--trace-sample-rate");
                config.obs.trace_sample_rate = parse(&text, "--trace-sample-rate");
                if !config.obs.trace_sample_rate.is_finite() {
                    fail(&format!("invalid value `{text}` for --trace-sample-rate"));
                }
            }
            "--slow-request-ms" => {
                config.obs.slow_request_ms =
                    parse(&value("--slow-request-ms"), "--slow-request-ms");
            }
            "--no-telemetry" => config.obs.telemetry = false,
            "--ready-max-backlog" => {
                config.obs.ready_max_backlog =
                    parse(&value("--ready-max-backlog"), "--ready-max-backlog");
            }
            "--ready-max-fsync-ms" => {
                config.obs.ready_max_fsync_ms =
                    parse(&value("--ready-max-fsync-ms"), "--ready-max-fsync-ms");
            }
            "--log-rotate-bytes" => {
                config.obs.log_rotate_bytes =
                    parse(&value("--log-rotate-bytes"), "--log-rotate-bytes");
            }
            "--help" | "-h" => {
                println!(
                    "multiem-serve: sharded entity-matching service\n\n\
                     options:\n\
                     \x20 --addr HOST:PORT   bind address (default 127.0.0.1:7878)\n\
                     \x20 --shards N         store shards (default 4)\n\
                     \x20 --workers N        request-execution worker threads (default 4)\n\
                     \x20 --io-threads N     ignored (each connection has its own\n\
                     \x20                    reader thread); logs a warning\n\
                     \x20 --data-dir PATH    enable WAL + checkpoints under PATH\n\
                     \x20 --attrs a,b,c      schema attribute names (default `title`)\n\
                     \x20 --m FLOAT          merge distance threshold (default 0.35)\n\
                     \x20 --storage mem|disk record storage of a new data dir (disk spills\n\
                     \x20                    to segments under --data-dir; default mem)\n\
                     \x20 --fsync POLICY     WAL fsync: never, interval or always\n\
                     \x20                    (default interval)\n\
                     \x20 --queue-depth N    per-shard ingest queue bound; full shards\n\
                     \x20                    answer 429 + Retry-After (default 4096)\n\
                     \x20 --log-level LVL    structured-log level: error, warn, info\n\
                     \x20                    or debug (default info)\n\
                     \x20 --log-file PATH    write structured JSON logs to PATH\n\
                     \x20                    instead of stderr\n\
                     \x20 --access-log PATH  append one JSON access line per request\n\
                     \x20 --trace-sample-rate R  emit the trace of every ~1/R-th\n\
                     \x20                    request as a JSON line (0 disables)\n\
                     \x20 --slow-request-ms N  force-emit traces of requests slower\n\
                     \x20                    than N ms, sampled or not (0 disables)\n\
                     \x20 --no-telemetry     disable histograms, traces, the access\n\
                     \x20                    log and the /debug/* analytics (60 s\n\
                     \x20                    window; counters stay on)\n\
                     \x20 --ready-max-backlog N   /readyz answers 503 past N queued\n\
                     \x20                    ingest records (0 disables)\n\
                     \x20 --ready-max-fsync-ms N  /readyz answers 503 past N ms\n\
                     \x20                    windowed p99 fsync latency (0 disables)\n\
                     \x20 --log-rotate-bytes N  rotate --log-file / --access-log\n\
                     \x20                    at N bytes (0 disables rotation), keeping\n\
                     \x20                    3 rotated generations"
                );
                return;
            }
            other => fail(&format!("unknown flag `{other}` (try --help)")),
        }
    }

    let server = match MatchServer::bind(config, HashedLexicalEncoder::default(), &addr) {
        Ok(server) => server,
        Err(e) => fail(&format!("startup failed: {e}")),
    };
    if io_threads_given {
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

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| fail(&format!("invalid value `{text}` for {flag}")))
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
