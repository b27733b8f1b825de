//! Write-ahead log for the serving layer.
//!
//! Every accepted write is appended to its shard's log file before it is
//! applied, using the binary framing of [`multiem_online::wire`]:
//! `[len u32][crc32 u32][payload]`, where the payload is the binary value
//! encoding of one [`WalOp`]. The server keeps **one `Wal` per shard** so
//! writers to different shards never contend on logging; on startup each
//! shard's log is replayed in its own append order into the shard that
//! wrote it, through the write path requests take, which restores the exact
//! pre-crash store state (shards are independent, so per-shard order is the
//! only order that matters).
//!
//! Torn tails — a process killed mid-append — are detected by the frame CRC
//! and truncated away on open, so the log is always append-clean. A
//! checkpoint (`POST /snapshot`) persists every shard snapshot and swaps in
//! a fresh log epoch (see the server's `checkpoint`), bounding replay time.

use crate::obs::elapsed_ns;
use multiem_online::wire::{self, Frame};
use multiem_table::{EntityId, Record};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// When the WAL calls `fsync` (ROADMAP: "fsync policy for machine-crash
/// durability"). Every append is always flushed to the OS, so acknowledged
/// writes survive a *process* kill under any policy; the policy decides how
/// much a whole-machine crash (power loss) can lose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync: machine-crash durability rides on the OS flushing dirty
    /// pages (typically within ~30 s). Fastest.
    Never,
    /// Fsync at most once per interval, piggybacked on appends: a machine
    /// crash loses at most the last interval's writes. The default
    /// ([`FsyncPolicy::default`] is 200 ms).
    Interval(Duration),
    /// Fsync after every append: an acknowledged write survives power loss,
    /// at a per-write latency cost.
    Always,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::Interval(Duration::from_millis(200))
    }
}

impl FsyncPolicy {
    /// Parse a `--fsync` CLI value (`never`, `interval`, `always`).
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "never" => Ok(FsyncPolicy::Never),
            "interval" => Ok(FsyncPolicy::default()),
            "always" => Ok(FsyncPolicy::Always),
            other => Err(format!(
                "unknown fsync policy `{other}` (expected never, interval or always)"
            )),
        }
    }
}

/// One durable, replayable operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalOp {
    /// A single record accepted for ingestion, exactly as received.
    Insert(Record),
    /// A record deletion, keyed by the shard-local entity id (the WAL is
    /// per-shard, so the shard index is implied by which log the op is in).
    /// Replaying a delete of an id the store no longer knows is a no-op —
    /// deletion is idempotent end to end.
    Delete(EntityId),
}

impl WalOp {
    /// Binary payload of this op (one WAL frame body).
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::value_to_bytes(&self.to_value())
    }

    /// Decode a WAL frame body.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        let value = wire::value_from_bytes(bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Self::from_value(&value)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Where one [`Wal::append_timed`] call's time and bytes went.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppendTiming {
    /// Frame bytes (header + payload) this append added to the log.
    pub appended_bytes: u64,
    /// Whether the append fsynced (policy-dependent).
    pub fsynced: bool,
    /// Time inside `fdatasync` (0 when not fsynced).
    pub fsync_ns: u64,
    /// Whole append wall time, fsync included.
    pub total_ns: u64,
}

/// Outcome of opening a WAL file.
#[derive(Debug)]
pub struct WalRecovery {
    /// Every intact op, in append order.
    pub ops: Vec<WalOp>,
    /// Whether a torn tail was found (and truncated away).
    pub torn_tail: bool,
}

/// An append-only, CRC-framed operation log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    bytes: u64,
    fsync: FsyncPolicy,
    last_sync: Instant,
}

impl Wal {
    /// [`Wal::open_with`] under the default fsync policy.
    pub fn open(path: &Path) -> io::Result<(Self, WalRecovery)> {
        Self::open_with(path, FsyncPolicy::default())
    }

    /// Open (or create) the log at `path`, replay-read every intact frame,
    /// and truncate any torn tail so the file ends on a frame boundary.
    pub fn open_with(path: &Path, fsync: FsyncPolicy) -> io::Result<(Self, WalRecovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;

        let mut ops = Vec::new();
        let mut clean_bytes: u64 = 0;
        let mut torn_tail = false;
        {
            let mut reader = BufReader::new(&mut file);
            loop {
                match wire::read_frame(&mut reader)? {
                    Frame::Payload(payload) => {
                        ops.push(WalOp::from_bytes(&payload)?);
                        clean_bytes += (wire::FRAME_HEADER_BYTES + payload.len()) as u64;
                    }
                    Frame::Eof => break,
                    Frame::Torn => {
                        torn_tail = true;
                        break;
                    }
                }
            }
        }
        if torn_tail {
            file.set_len(clean_bytes)?;
        }
        file.seek(SeekFrom::Start(clean_bytes))?;
        Ok((
            Self {
                file,
                path: path.to_path_buf(),
                bytes: clean_bytes,
                fsync,
                last_sync: Instant::now(),
            },
            WalRecovery { ops, torn_tail },
        ))
    }

    /// Append one op and flush it to the OS, so the write survives a process
    /// kill; the configured [`FsyncPolicy`] decides whether (and how often)
    /// the append is additionally fsynced for machine-crash durability.
    pub fn append(&mut self, op: &WalOp) -> io::Result<()> {
        self.append_timed(op).map(|_| ())
    }

    /// [`Wal::append`] plus an [`AppendTiming`] breakdown (the request
    /// trace's `wal_append` and `fsync` spans, and the WAL byte/fsync
    /// counters on `/metrics`).
    pub fn append_timed(&mut self, op: &WalOp) -> io::Result<AppendTiming> {
        self.append_batch_timed(std::slice::from_ref(op))
    }

    /// Group commit: append a batch of ops as consecutive frames through one
    /// buffered writer, with **one** flush to the OS and **one** fsync
    /// decision for the whole batch — N records admitted together share a
    /// single durability round-trip instead of paying one each (the
    /// dominant cost under `FsyncPolicy::Always`). The log bytes are
    /// identical to appending each op in order; an empty batch is a no-op.
    pub fn append_batch_timed(&mut self, ops: &[WalOp]) -> io::Result<AppendTiming> {
        if ops.is_empty() {
            return Ok(AppendTiming::default());
        }
        let started = Instant::now();
        let mut appended_bytes = 0u64;
        let mut writer = BufWriter::new(&mut self.file);
        for op in ops {
            let payload = op.to_bytes();
            wire::write_frame(&mut writer, &payload)?;
            appended_bytes += (wire::FRAME_HEADER_BYTES + payload.len()) as u64;
        }
        writer.flush()?;
        drop(writer);
        self.bytes += appended_bytes;
        let due = match self.fsync {
            FsyncPolicy::Never => false,
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(interval) => self.last_sync.elapsed() >= interval,
        };
        let mut fsync_ns = 0u64;
        if due {
            let sync_started = Instant::now();
            self.sync()?;
            fsync_ns = elapsed_ns(sync_started);
        }
        Ok(AppendTiming {
            appended_bytes,
            fsynced: due,
            fsync_ns,
            total_ns: elapsed_ns(started),
        })
    }

    /// Force an fsync now (checkpoints call this before snapshotting so the
    /// superseded log is durable at its commit point).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// The configured fsync policy.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync
    }

    /// Drop every logged op (called right after a successful checkpoint has
    /// persisted the state the ops built).
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.bytes = 0;
        Ok(())
    }

    /// Current log size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Read every intact op of a WAL file without opening it for append (used by
/// tooling/tests).
pub fn read_ops(path: &Path) -> io::Result<Vec<WalOp>> {
    let mut ops = Vec::new();
    let file = File::open(path)?;
    let mut reader = BufReader::new(file);
    while let Frame::Payload(payload) = wire::read_frame(&mut reader)? {
        ops.push(WalOp::from_bytes(&payload)?);
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_wal_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "multiem-wal-test-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn op(text: &str) -> WalOp {
        WalOp::Insert(Record::from_texts([text]))
    }

    #[test]
    fn append_and_recover_roundtrip() {
        let path = temp_wal_path("roundtrip");
        {
            let (mut wal, recovery) = Wal::open(&path).unwrap();
            assert!(recovery.ops.is_empty());
            assert!(!recovery.torn_tail);
            wal.append(&op("first record")).unwrap();
            wal.append(&op("second record")).unwrap();
            assert!(wal.bytes() > 0);
        } // drop without any checkpoint: simulates a killed process
        let (wal, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.ops, vec![op("first record"), op("second record")]);
        assert!(!recovery.torn_tail);
        assert!(wal.bytes() > 0);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = temp_wal_path("torn");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&op("kept")).unwrap();
            wal.append(&op("torn away")).unwrap();
        }
        // Tear the last 2 bytes off, as if the process died mid-write.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 2]).unwrap();

        let (mut wal, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.ops, vec![op("kept")]);
        assert!(recovery.torn_tail);
        // The file is clean again: appends after recovery read back fine.
        wal.append(&op("after recovery")).unwrap();
        drop(wal);
        let ops = read_ops(&path).unwrap();
        assert_eq!(ops, vec![op("kept"), op("after recovery")]);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_tail_header_claiming_4_gib_is_truncated_not_allocated() {
        let path = temp_wal_path("huge-header");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&op("kept one")).unwrap();
            wal.append(&op("kept two")).unwrap();
        }
        let clean = std::fs::read(&path).unwrap();
        // A corrupt header claiming `u32::MAX` payload bytes, and a few.
        let mut log = clean.clone();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0xAB; 4]);
        log.extend_from_slice(b"short");
        std::fs::write(&path, &log).unwrap();

        let (wal, recovery) = Wal::open(&path).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.ops, vec![op("kept one"), op("kept two")]);
        assert_eq!(wal.bytes(), clean.len() as u64);
        drop(wal);
        assert_eq!(std::fs::read(&path).unwrap(), clean, "truncated to the ops");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn fsync_always_survives_a_simulated_torn_tail() {
        let path = temp_wal_path("fsync-always");
        {
            let (mut wal, _) = Wal::open_with(&path, FsyncPolicy::Always).unwrap();
            assert_eq!(wal.fsync_policy(), FsyncPolicy::Always);
            wal.append(&op("durable one")).unwrap();
            wal.append(&op("durable two")).unwrap();
            wal.append(&op("torn victim")).unwrap();
        }
        // Simulate a machine crash that tore the tail mid-frame: under
        // `always`, every *previous* append was fsynced before the next was
        // acknowledged, so tearing the last frame can only lose that frame.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        let (mut wal, recovery) = Wal::open_with(&path, FsyncPolicy::Always).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.ops, vec![op("durable one"), op("durable two")]);
        // The truncated log keeps accepting synced appends.
        wal.append(&op("after crash")).unwrap();
        drop(wal);
        let ops = read_ops(&path).unwrap();
        assert_eq!(
            ops,
            vec![op("durable one"), op("durable two"), op("after crash")]
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn fsync_policies_parse_and_apply() {
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert!(matches!(
            FsyncPolicy::parse("interval"),
            Ok(FsyncPolicy::Interval(_))
        ));
        assert!(FsyncPolicy::parse("sometimes").is_err());

        // A zero interval syncs on every append, like `always`.
        let path = temp_wal_path("fsync-interval");
        let (mut wal, _) = Wal::open_with(&path, FsyncPolicy::Interval(Duration::ZERO)).unwrap();
        wal.append(&op("synced")).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.ops, vec![op("synced")]);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn delete_ops_roundtrip_alongside_inserts() {
        let path = temp_wal_path("delete-ops");
        let delete = WalOp::Delete(EntityId::new(2, 17));
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&op("kept record")).unwrap();
            wal.append(&delete).unwrap();
            wal.append(&WalOp::Delete(EntityId::new(0, 0))).unwrap();
        }
        let (_, recovery) = Wal::open(&path).unwrap();
        assert_eq!(
            recovery.ops,
            vec![
                op("kept record"),
                delete,
                WalOp::Delete(EntityId::new(0, 0))
            ]
        );
        assert!(!recovery.torn_tail);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn batch_append_matches_sequential_appends() {
        let batch = vec![op("one"), WalOp::Delete(EntityId::new(1, 4)), op("three")];

        // Sequential appends...
        let seq_path = temp_wal_path("batch-seq");
        let (mut seq_wal, _) = Wal::open_with(&seq_path, FsyncPolicy::Always).unwrap();
        let mut seq_bytes = 0;
        for op in &batch {
            seq_bytes += seq_wal.append_timed(op).unwrap().appended_bytes;
        }

        // ...and one group-committed batch produce byte-identical logs.
        let batch_path = temp_wal_path("batch-group");
        let (mut batch_wal, _) = Wal::open_with(&batch_path, FsyncPolicy::Always).unwrap();
        let timing = batch_wal.append_batch_timed(&batch).unwrap();
        assert_eq!(timing.appended_bytes, seq_bytes);
        assert!(timing.fsynced, "always policy fsyncs the batch once");
        assert_eq!(batch_wal.bytes(), seq_wal.bytes());
        drop(seq_wal);
        drop(batch_wal);
        assert_eq!(
            std::fs::read(&seq_path).unwrap(),
            std::fs::read(&batch_path).unwrap()
        );
        assert_eq!(read_ops(&batch_path).unwrap(), batch);

        // Empty batches change nothing and never fsync.
        let (mut wal, _) = Wal::open_with(&batch_path, FsyncPolicy::Always).unwrap();
        let noop = wal.append_batch_timed(&[]).unwrap();
        assert_eq!(noop.appended_bytes, 0);
        assert!(!noop.fsynced);
        std::fs::remove_dir_all(seq_path.parent().unwrap()).ok();
        std::fs::remove_dir_all(batch_path.parent().unwrap()).ok();
    }

    #[test]
    fn truncate_empties_the_log() {
        let path = temp_wal_path("truncate");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&op("a")).unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.bytes(), 0);
        wal.append(&op("b")).unwrap();
        drop(wal);
        let (_, recovery) = Wal::open(&path).unwrap();
        assert_eq!(recovery.ops, vec![op("b")]);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
