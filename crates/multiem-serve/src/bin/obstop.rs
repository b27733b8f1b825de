//! `obstop`: a live terminal dashboard over a running server's analytics.
//!
//! Polls `GET /healthz`, `/debug/window`, `/debug/top` and `/debug/storage`
//! on an interval and renders what an operator wants during an incident —
//! windowed rates and tail latencies, the heavy hitters driving the load,
//! and per-shard storage health — without leaving the terminal:
//!
//! ```bash
//! cargo run --release -p multiem-serve --bin obstop -- \
//!     --addr 127.0.0.1:7878 --interval-ms 2000
//! ```
//!
//! `--iterations N` renders N frames and exits (use `1` for a one-shot
//! snapshot in scripts); the default runs until interrupted. A bounded run
//! exits 0 when its last frame was fetched and 1 when it was not (the
//! server could not be reached or answered an error); a bad command line
//! exits 2.

#![forbid(unsafe_code)]

mod cli;

use cli::{fail, parse, Flag};
use multiem_serve::http::HttpClient;
use serde::Value;
use std::process::ExitCode;

struct Options {
    addr: String,
    interval_ms: u64,
    /// Frames to render; `0` = until interrupted.
    iterations: u64,
    /// Skip the ANSI clear (for piping into a file).
    no_clear: bool,
}

/// Every flag of `obstop`, one row each: the parser and `--help` both read it.
#[rustfmt::skip]
const FLAGS: &[Flag<Options>] = &[
    Flag { name: "--addr", value: "HOST:PORT", help: "server to watch (required)", set: |o, v| { o.addr = v.to_string(); Ok(()) } },
    Flag { name: "--interval-ms", value: "N", help: "refresh interval (default 2000)", set: |o, v| parse(v, "--interval-ms").map(|n| o.interval_ms = n) },
    Flag { name: "--iterations", value: "N", help: "render N frames then exit (default: forever)", set: |o, v| parse(v, "--iterations").map(|n| o.iterations = n) },
    Flag { name: "--no-clear", value: "", help: "do not clear the screen between frames", set: |o, _| { o.no_clear = true; Ok(()) } },
];

fn main() -> ExitCode {
    let mut opts = Options {
        addr: String::new(),
        interval_ms: 2_000,
        iterations: 0,
        no_clear: false,
    };
    cli::apply(
        "obstop: live terminal dashboard over a multiem-serve instance",
        FLAGS,
        &mut opts,
    );
    if opts.addr.is_empty() {
        fail("--addr is required (try --help)");
    }

    let mut frame = 0u64;
    loop {
        frame += 1;
        let fetched = match render_frame(&opts) {
            Ok(text) => {
                if !opts.no_clear {
                    // Clear + home; the dashboard repaints in place.
                    print!("\x1b[2J\x1b[H");
                }
                println!("{text}");
                true
            }
            Err(e) => {
                println!("obstop: {} unreachable: {e}", opts.addr);
                false
            }
        };
        if opts.iterations > 0 && frame >= opts.iterations {
            return if fetched {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms.max(100)));
    }
}

/// Fetch every surface and lay out one dashboard frame.
fn render_frame(opts: &Options) -> Result<String, String> {
    let mut client = HttpClient::connect(&opts.addr).map_err(|e| format!("connect failed: {e}"))?;
    let health = fetch(&mut client, "/healthz")?;
    let window = fetch(&mut client, "/debug/window")?;
    let top = fetch(&mut client, "/debug/top")?;
    let storage = fetch(&mut client, "/debug/storage")?;

    let mut out = String::new();
    header(&mut out, opts, &health);
    window_section(&mut out, &window);
    top_section(&mut out, &top);
    storage_section(&mut out, &storage);
    Ok(out)
}

fn fetch(client: &mut HttpClient, path: &str) -> Result<Value, String> {
    let (status, body) = client
        .request("GET", path, None)
        .map_err(|e| format!("GET {path}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {path}: status {status}"));
    }
    serde_json::from_str(&body).map_err(|e| format!("GET {path}: bad JSON: {e}"))
}

fn header(out: &mut String, opts: &Options, health: &Value) {
    let uptime = num(health, "uptime_seconds");
    let shards = int(health, "shards");
    let epoch = int(health, "checkpoint_epoch");
    let version = field(health, "version")
        .and_then(Value::as_str)
        .unwrap_or("?");
    out.push_str(&format!(
        "multiem-serve {version} @ {}  up {uptime:.0}s  {shards} shard(s)  \
         checkpoint epoch {epoch}\n",
        opts.addr
    ));
}

fn window_section(out: &mut String, window: &Value) {
    if !enabled(window) {
        out.push_str("\n[window]  analytics disabled (--no-telemetry)\n");
        return;
    }
    out.push_str(&format!(
        "\n[window]  last {:.0}s of a {}s rolling window\n",
        num(window, "covered_secs"),
        int(window, "window_secs"),
    ));
    out.push_str(&format!(
        "  {:<16} {:>10} {:>10} {:>10} {:>10}\n",
        "endpoint", "count", "rate/s", "p50 ms", "p99 ms"
    ));
    for endpoint in field(window, "endpoints")
        .and_then(Value::as_seq)
        .unwrap_or(&[])
    {
        out.push_str(&format!(
            "  {:<16} {:>10} {:>10.1} {:>10.2} {:>10.2}\n",
            field(endpoint, "endpoint")
                .and_then(Value::as_str)
                .unwrap_or("?"),
            int(endpoint, "count"),
            num(endpoint, "rate_rps"),
            num(endpoint, "p50_ms"),
            num(endpoint, "p99_ms"),
        ));
    }
    if let Some(fsync) = field(window, "fsync") {
        if int(fsync, "count") > 0 {
            out.push_str(&format!(
                "  {:<16} {:>10} {:>10} {:>10.2} {:>10.2}\n",
                "wal fsync",
                int(fsync, "count"),
                "-",
                num(fsync, "p50_ms"),
                num(fsync, "p99_ms"),
            ));
        }
    }
}

fn top_section(out: &mut String, top: &Value) {
    if !enabled(top) {
        return;
    }
    for (label, key) in [
        ("hot sources", "sources"),
        ("hot shards", "shards"),
        ("hot entities", "entities"),
    ] {
        let hitters = field(top, key)
            .and_then(|section| field(section, "current"))
            .and_then(Value::as_seq)
            .unwrap_or(&[]);
        if hitters.is_empty() {
            continue;
        }
        out.push_str(&format!("\n[{label}]  (this window, count±error)\n"));
        for hitter in hitters.iter().take(8) {
            out.push_str(&format!(
                "  {:<32} {:>8}±{}\n",
                field(hitter, "key").and_then(Value::as_str).unwrap_or("?"),
                int(hitter, "count"),
                int(hitter, "error"),
            ));
        }
    }
}

fn storage_section(out: &mut String, storage: &Value) {
    let hits = int(storage, "cache_hits");
    let misses = int(storage, "cache_misses");
    out.push_str(&format!(
        "\n[storage]  cache {hits} hits / {misses} misses ({:.1}% hit rate)  \
         wal {} B  fsync p99 {:.2} ms\n",
        num(storage, "cache_hit_rate") * 100.0,
        int(storage, "wal_bytes"),
        num(storage, "fsync_window_p99_ms"),
    ));
    for shard in field(storage, "shards")
        .and_then(Value::as_seq)
        .unwrap_or(&[])
    {
        let segments = field(shard, "segment_files")
            .and_then(Value::as_seq)
            .unwrap_or(&[]);
        let min_live = segments
            .iter()
            .map(|s| num(s, "live_ratio"))
            .fold(f64::INFINITY, f64::min);
        out.push_str(&format!(
            "  shard {:<3} {:>9} records  {:>6} deleted  {:>3} segment(s)  min live {}\n",
            int(shard, "shard"),
            int(shard, "records"),
            int(shard, "deleted_records"),
            segments.len(),
            if segments.is_empty() {
                "-".to_string()
            } else {
                format!("{:.0}%", min_live * 100.0)
            },
        ));
    }
}

/// Whether a `/debug/*` body reports the analytics layer as on.
fn enabled(value: &Value) -> bool {
    matches!(field(value, "enabled"), Some(Value::Bool(true)))
}

fn field<'a>(value: &'a Value, name: &str) -> Option<&'a Value> {
    value
        .as_map()?
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, v)| v)
}

fn num(value: &Value, name: &str) -> f64 {
    field(value, name).and_then(Value::as_f64).unwrap_or(0.0)
}

fn int(value: &Value, name: &str) -> u64 {
    field(value, name).and_then(Value::as_u64).unwrap_or(0)
}
