//! Leveled JSON-lines structured logging.
//!
//! A [`Logger`] writes one JSON object per line — `{"ts_ms": ..., "level":
//! "warn", "event": "wal_torn_tail", ...fields}` — to stderr or a file,
//! replacing the serving layer's historical bare `eprintln!` calls with
//! machine-parseable output. Levels filter at the call site (one integer
//! compare before any field is rendered), so `debug` events cost nothing at
//! the default `info` level.
//!
//! The same type backs the access log (`--access-log PATH`): an access
//! [`Logger`] is just a file-bound logger whose every line is an `access`
//! event, one per request.
//!
//! File sinks rotate by size when asked (`--log-rotate-bytes`): past the
//! threshold the live file becomes `<path>.1`, older generations shift up
//! (the oldest beyond [`ROTATE_KEEP`] is dropped), and the fresh file
//! opens with a `log_rotated` event — so a chatty access log can run
//! unattended without eating the disk.

use serde::Value;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Rotated generations the server keeps per log file.
pub const ROTATE_KEEP: usize = 3;

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The server cannot do what was asked of it.
    Error,
    /// Something surprising that the server worked around.
    Warn,
    /// Lifecycle events: startup, checkpoints, shutdown, sampled traces.
    Info,
    /// Per-request detail (access lines on the main logger, stage dumps).
    Debug,
}

impl Level {
    /// Parse a `--log-level` CLI value.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "error" => Ok(Level::Error),
            "warn" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            other => Err(format!(
                "unknown log level `{other}` (expected error, warn, info or debug)"
            )),
        }
    }

    /// The level's lowercase name (as written into every line).
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// Where a logger writes.
#[derive(Debug)]
enum Sink {
    Stderr,
    File(FileSink),
}

/// A file destination with optional size-based rotation
/// (`--log-rotate-bytes`): when the live file passes `rotate_bytes`, it is
/// renamed to `<path>.1` (older generations shift to `.2`, `.3`, ... up to
/// `keep`, the oldest dropped) and a fresh file takes its place, opened
/// with a `log_rotated` event as its first line.
#[derive(Debug)]
struct FileSink {
    writer: BufWriter<File>,
    path: PathBuf,
    /// Bytes written to the live file (seeded from its length on open, so
    /// rotation thresholds survive restarts of an appending server).
    bytes: u64,
    /// Rotate past this many bytes (`0` = never rotate).
    rotate_bytes: u64,
    /// Rotated generations kept (at least 1 when rotation is on).
    keep: usize,
}

impl FileSink {
    /// The rotated name of generation `n` (`server.log` -> `server.log.2`).
    fn generation(&self, n: usize) -> PathBuf {
        PathBuf::from(format!("{}.{n}", self.path.display()))
    }

    /// Shift the generations up, move the live file to `.1` and reopen a
    /// fresh one. Best-effort like all logging: a failed rename keeps
    /// writing to the old file rather than taking the server down.
    fn rotate(&mut self) {
        let _ = self.writer.flush();
        let keep = self.keep.max(1);
        let _ = std::fs::remove_file(self.generation(keep));
        for n in (1..keep).rev() {
            // lint:allow(fsync-before-rename): best-effort log rotation — losing a tail of telemetry lines in a crash is acceptable, an fsync per rotation is not
            let _ = std::fs::rename(self.generation(n), self.generation(n + 1));
        }
        // lint:allow(fsync-before-rename): best-effort log rotation — losing a tail of telemetry lines in a crash is acceptable, an fsync per rotation is not
        if std::fs::rename(&self.path, self.generation(1)).is_err() {
            return;
        }
        let Ok(file) = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
        else {
            return;
        };
        self.writer = BufWriter::new(file);
        self.bytes = 0;
        // First line of the fresh file records the rotation itself (written
        // directly: the caller already holds the sink mutex).
        let line = render_line(
            Level::Info,
            "log_rotated",
            &[
                (
                    "rotated_to",
                    Value::Str(self.generation(1).display().to_string()),
                ),
                ("keep", Value::UInt(keep as u64)),
            ],
        );
        let _ = writeln!(self.writer, "{line}");
        let _ = self.writer.flush();
        self.bytes += line.len() as u64 + 1;
    }
}

/// A leveled JSON-lines logger. Cheap to share (`Arc`), cheap to skip
/// (level check first), serialized line-at-a-time under a mutex so
/// concurrent workers never interleave bytes.
#[derive(Debug)]
pub struct Logger {
    level: Level,
    sink: Mutex<Sink>,
}

impl Logger {
    /// A logger writing to stderr at `level`.
    pub fn stderr(level: Level) -> Self {
        Self {
            level,
            sink: Mutex::new(Sink::Stderr),
        }
    }

    /// A file logger that rotates past `rotate_bytes` bytes, keeping `keep`
    /// rotated generations (`<path>.1` ... `<path>.keep`). `rotate_bytes ==
    /// 0` disables rotation.
    pub fn rotating_file(
        level: Level,
        path: &Path,
        rotate_bytes: u64,
        keep: usize,
    ) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(Self {
            level,
            sink: Mutex::new(Sink::File(FileSink {
                writer: BufWriter::new(file),
                path: path.to_path_buf(),
                bytes,
                rotate_bytes,
                keep,
            })),
        })
    }

    /// Whether `level` would be written (callers can skip building fields).
    pub fn enabled(&self, level: Level) -> bool {
        level <= self.level
    }

    /// Write one event line: `{"ts_ms":..., "level":..., "event":...,
    /// ...fields}` (field order preserved). Silently drops lines below the
    /// configured level and swallows I/O errors — logging must never take
    /// the serving path down.
    pub fn log(&self, level: Level, event: &str, fields: &[(&str, Value)]) {
        if !self.enabled(level) {
            return;
        }
        let line = render_line(level, event, fields);
        let mut sink = crate::sync::lock_unpoisoned(&self.sink);
        match &mut *sink {
            Sink::Stderr => {
                let stderr = io::stderr();
                let mut out = stderr.lock();
                let _ = writeln!(out, "{line}");
            }
            Sink::File(file) => {
                let _ = writeln!(file.writer, "{line}");
                // One flush per line keeps `tail -f` live; lines are small
                // and the page cache absorbs the write.
                let _ = file.writer.flush();
                file.bytes += line.len() as u64 + 1;
                if file.rotate_bytes > 0 && file.bytes >= file.rotate_bytes {
                    file.rotate();
                }
            }
        }
    }

    /// [`Logger::log`] at [`Level::Error`].
    pub fn error(&self, event: &str, fields: &[(&str, Value)]) {
        self.log(Level::Error, event, fields);
    }

    /// [`Logger::log`] at [`Level::Warn`].
    pub fn warn(&self, event: &str, fields: &[(&str, Value)]) {
        self.log(Level::Warn, event, fields);
    }

    /// [`Logger::log`] at [`Level::Info`].
    pub fn info(&self, event: &str, fields: &[(&str, Value)]) {
        self.log(Level::Info, event, fields);
    }

    /// [`Logger::log`] at [`Level::Debug`].
    pub fn debug(&self, event: &str, fields: &[(&str, Value)]) {
        self.log(Level::Debug, event, fields);
    }
}

/// Render one event line: `{"ts_ms":..., "level":..., "event":...,
/// ...fields}` (field order preserved).
fn render_line(level: Level, event: &str, fields: &[(&str, Value)]) -> String {
    let mut entries: Vec<(String, Value)> = Vec::with_capacity(fields.len() + 3);
    entries.push(("ts_ms".into(), Value::UInt(unix_ms())));
    entries.push(("level".into(), Value::Str(level.name().into())));
    entries.push(("event".into(), Value::Str(event.into())));
    for (name, value) in fields {
        entries.push(((*name).into(), value.clone()));
    }
    serde_json::to_string(&Value::Map(entries)).unwrap_or_else(|_| "{}".into())
}

/// Wall-clock milliseconds since the Unix epoch (log lines, exemplars).
pub fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
        assert_eq!(Level::parse("warn"), Ok(Level::Warn));
        assert!(Level::parse("verbose").is_err());
        assert_eq!(Level::Debug.name(), "debug");
    }

    #[test]
    fn file_logger_writes_parseable_json_lines_and_filters() {
        let dir = std::env::temp_dir().join(format!("multiem-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.log");
        let logger = Logger::rotating_file(Level::Info, &path, 0, ROTATE_KEEP).unwrap();
        assert!(logger.enabled(Level::Warn));
        assert!(!logger.enabled(Level::Debug));
        logger.info(
            "startup",
            &[
                ("shards", Value::UInt(4)),
                ("addr", Value::Str("127.0.0.1:0".into())),
            ],
        );
        logger.debug("dropped", &[]); // below level: never written
        logger.warn("wal_torn_tail", &[("shard", Value::UInt(2))]);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "debug line must be filtered: {text}");
        let first: Value = serde_json::from_str(lines[0]).unwrap();
        let field = |name: &str| {
            first
                .as_map()
                .unwrap()
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(field("level"), Some(Value::Str("info".into())));
        assert_eq!(field("event"), Some(Value::Str("startup".into())));
        // The parser may hand integers back as Int or UInt; compare values.
        assert_eq!(field("shards").and_then(|v| v.as_u64()), Some(4));
        assert!(matches!(field("ts_ms").and_then(|v| v.as_u64()), Some(ms) if ms > 0));
        assert!(lines[1].contains("\"event\":\"wal_torn_tail\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn size_based_rotation_shifts_generations_and_logs_the_event() {
        let dir = std::env::temp_dir().join(format!("multiem-rotate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.log");
        // Tiny threshold: every line (~60-80 bytes with its envelope)
        // triggers a rotation, exercising the generation shift repeatedly.
        let logger = Logger::rotating_file(Level::Info, &path, 64, 2).unwrap();
        for i in 0..5u64 {
            logger.info("access", &[("request_id", Value::UInt(i))]);
        }
        let gen = |n: usize| PathBuf::from(format!("{}.{n}", path.display()));
        assert!(path.exists(), "live file must exist");
        assert!(gen(1).exists(), "first rotated generation must exist");
        assert!(gen(2).exists(), "second rotated generation must exist");
        assert!(!gen(3).exists(), "generations beyond keep must be dropped");
        // The live file's first line is the rotation event of the rotation
        // that created it.
        let live = std::fs::read_to_string(&path).unwrap();
        assert!(
            live.lines()
                .next()
                .unwrap()
                .contains("\"event\":\"log_rotated\""),
            "fresh file must open with the rotation event: {live}"
        );
        // Every line everywhere is still one parseable JSON object.
        for text in [live, std::fs::read_to_string(gen(1)).unwrap()] {
            for line in text.lines() {
                serde_json::from_str::<Value>(line).unwrap();
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unrotated_file_logger_never_rotates() {
        let dir =
            std::env::temp_dir().join(format!("multiem-norotate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.log");
        let logger = Logger::rotating_file(Level::Info, &path, 0, ROTATE_KEEP).unwrap();
        for i in 0..50u64 {
            logger.info("event", &[("i", Value::UInt(i))]);
        }
        assert!(!PathBuf::from(format!("{}.1", path.display())).exists());
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 50);
        std::fs::remove_dir_all(&dir).ok();
    }
}
