//! Compact binary wire format shared by store snapshots and the serving
//! layer's write-ahead log.
//!
//! Two layers:
//!
//! * a **value codec** ([`value_to_bytes`] / [`value_from_bytes`]) that
//!   serializes the self-describing [`serde::Value`] tree of the vendored
//!   serde stand-in: one tag byte per node, LEB128 varints for integers and
//!   lengths, and `f32`-exact floats stored in 4 bytes (embeddings dominate
//!   snapshots, and every embedding coordinate is an exact `f32`), which is
//!   where the 5–10x size win over JSON comes from;
//! * a **frame codec** ([`write_frame`] / [`read_frame`]): length-prefixed,
//!   CRC32-checked byte blocks. The WAL is a sequence of frames; a torn final
//!   frame (a process killed mid-append) reads back as [`Frame::Torn`] so
//!   replay stops cleanly instead of erroring.

use multiem_ann::{BruteForceIndex, StateField};
use serde::{Serialize, Value};
use std::io::{self, Read, Write};

/// Error while decoding the binary value format.
#[derive(Debug, Clone)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Magic prefix of snapshots. The digits after `MEB` are the layout
/// version: a snapshot under `MEB` and any other version is refused by name,
/// not misread.
pub const SNAPSHOT_MAGIC: &[u8; 5] = b"MEB10";

/// Magic prefix of segment files written by the record store when it spills
/// (`crate::storage::RecordStorage`).
pub const SEGMENT_MAGIC: &[u8; 4] = b"MES1";

// --------------------------------------------------------------------------
// Varints
// --------------------------------------------------------------------------

/// Append a LEB128-encoded u64.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a LEB128 u64 at `pos`, advancing it.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes
            .get(*pos)
            .ok_or_else(|| WireError("truncated varint".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(WireError("varint overflows u64".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// --------------------------------------------------------------------------
// Value codec
// --------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_UINT: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_F32: u8 = 6;
const TAG_STR: u8 = 7;
const TAG_SEQ: u8 = 8;
const TAG_MAP: u8 = 9;

/// Append the binary encoding of `value`.
pub fn write_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            write_varint(out, zigzag(*i));
        }
        Value::UInt(u) => {
            out.push(TAG_UINT);
            write_varint(out, *u);
        }
        Value::Float(f) => {
            // Embedding coordinates are f32-exact; store them in half the
            // bytes. NaN fails the equality and takes the f64 path.
            let narrowed = *f as f32;
            if f64::from(narrowed) == *f {
                out.push(TAG_F32);
                out.extend_from_slice(&narrowed.to_le_bytes());
            } else {
                out.push(TAG_F64);
                out.extend_from_slice(&f.to_le_bytes());
            }
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            write_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Seq(items) => {
            write_seq_header(out, items.len());
            for item in items {
                write_value(out, item);
            }
        }
        Value::Map(entries) => {
            write_map_header(out, entries.len());
            for (key, item) in entries {
                write_key(out, key);
                write_value(out, item);
            }
        }
    }
}

fn write_seq_header(out: &mut Vec<u8>, items: usize) {
    out.push(TAG_SEQ);
    write_varint(out, items as u64);
}

fn write_map_header(out: &mut Vec<u8>, entries: usize) {
    out.push(TAG_MAP);
    write_varint(out, entries as u64);
}

fn write_key(out: &mut Vec<u8>, key: &str) {
    write_varint(out, key.len() as u64);
    out.extend_from_slice(key.as_bytes());
}

/// One entry of the map [`write_fields`] writes.
pub(crate) enum Field<'a> {
    /// A field written through its value tree.
    Value(&'a dyn serde::Serialize),
    /// A field that is itself a struct, written entry by entry.
    Struct(&'a [(&'a str, Field<'a>)]),
    /// An index as its value tree gives it, its vectors written one
    /// coordinate at a time ([`BruteForceIndex::state_fields`]).
    Index(&'a BruteForceIndex),
}

/// Append the binary encoding of the map `fields` serialize to — the bytes
/// [`write_value`] gives for `Value::Map` of their value trees — building one
/// field's tree at a time (none for an index's vectors). A tree costs 32
/// bytes per number, eight times the `f32` it came from, so for a struct
/// whose fields are large float arrays this caps the transient at the
/// largest field instead of their sum.
pub(crate) fn write_fields(out: &mut Vec<u8>, fields: &[(&str, Field<'_>)]) {
    write_map_header(out, fields.len());
    for (key, field) in fields {
        write_key(out, key);
        match field {
            Field::Value(value) => write_value(out, &value.to_value()),
            Field::Struct(inner) => write_fields(out, inner),
            Field::Index(index) => {
                let fields = index.state_fields();
                write_map_header(out, fields.len());
                for (key, field) in fields {
                    write_key(out, key);
                    match field {
                        StateField::Value(value) => write_value(out, &value.to_value()),
                        StateField::Floats(xs) => {
                            write_seq_header(out, xs.len());
                            for x in xs {
                                write_value(out, &x.to_value());
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Serialize a value tree to bytes.
pub fn value_to_bytes(value: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    write_value(&mut out, value);
    out
}

/// Parse a value tree from bytes, requiring full consumption.
pub fn value_from_bytes(bytes: &[u8]) -> Result<Value, WireError> {
    let mut pos = 0;
    let value = read_value(bytes, &mut pos)?;
    if pos != bytes.len() {
        return Err(WireError(format!(
            "{} trailing bytes after value",
            bytes.len() - pos
        )));
    }
    Ok(value)
}

/// Decode one value starting at `pos`, advancing it past the value and
/// leaving any trailing bytes unread (the segment store packs a value
/// followed by a raw embedding in one frame).
pub fn read_value_at(bytes: &[u8], pos: &mut usize) -> Result<Value, WireError> {
    read_value(bytes, pos)
}

fn read_exact_slice<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], WireError> {
    let end = pos
        .checked_add(n)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| WireError("truncated value".into()))?;
    let slice = &bytes[*pos..end];
    *pos = end;
    Ok(slice)
}

fn read_string(bytes: &[u8], pos: &mut usize) -> Result<String, WireError> {
    let len = read_varint(bytes, pos)? as usize;
    let raw = read_exact_slice(bytes, pos, len)?;
    String::from_utf8(raw.to_vec()).map_err(|e| WireError(format!("invalid utf-8 string: {e}")))
}

fn read_value(bytes: &[u8], pos: &mut usize) -> Result<Value, WireError> {
    let tag = *bytes
        .get(*pos)
        .ok_or_else(|| WireError("truncated value tag".into()))?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_INT => Ok(Value::Int(unzigzag(read_varint(bytes, pos)?))),
        TAG_UINT => Ok(Value::UInt(read_varint(bytes, pos)?)),
        TAG_F64 => {
            let raw = read_exact_slice(bytes, pos, 8)?;
            Ok(Value::Float(f64::from_le_bytes(raw.try_into().unwrap())))
        }
        TAG_F32 => {
            let raw = read_exact_slice(bytes, pos, 4)?;
            Ok(Value::Float(f64::from(f32::from_le_bytes(
                raw.try_into().unwrap(),
            ))))
        }
        TAG_STR => Ok(Value::Str(read_string(bytes, pos)?)),
        TAG_SEQ => {
            let len = read_varint(bytes, pos)? as usize;
            let mut items = Vec::new();
            for _ in 0..len {
                items.push(read_value(bytes, pos)?);
            }
            Ok(Value::Seq(items))
        }
        TAG_MAP => {
            let len = read_varint(bytes, pos)? as usize;
            let mut entries = Vec::new();
            for _ in 0..len {
                let key = read_string(bytes, pos)?;
                let value = read_value(bytes, pos)?;
                entries.push((key, value));
            }
            Ok(Value::Map(entries))
        }
        other => Err(WireError(format!("unknown value tag {other}"))),
    }
}

// --------------------------------------------------------------------------
// CRC32 (IEEE)
// --------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

// --------------------------------------------------------------------------
// Frames
// --------------------------------------------------------------------------

/// Size of the frame header: payload length (u32 LE) + CRC32 (u32 LE).
pub const FRAME_HEADER_BYTES: usize = 8;

/// Outcome of reading one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete, checksum-verified payload.
    Payload(Vec<u8>),
    /// Clean end of the stream (no partial header).
    Eof,
    /// The stream ends mid-frame or the checksum fails — the tail was torn
    /// by an interrupted write and must be discarded.
    Torn,
}

/// Write one `[len][crc32][payload]` frame.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds 4 GiB"))?;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(&crc32(payload).to_le_bytes())?;
    writer.write_all(payload)
}

/// Bytes a frame's payload buffer reserves before any of it is read. The
/// length in the header is unchecked — a torn or corrupt one can claim up to
/// 4 GiB — so the buffer grows only with the bytes that actually arrive.
const FRAME_RESERVE_BYTES: usize = 64 << 10;

/// Read one frame. Returns [`Frame::Eof`] on a clean end, [`Frame::Torn`] on
/// a truncated or checksum-failing tail.
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<Frame> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    match read_full(reader, &mut header)? {
        0 => return Ok(Frame::Eof),
        n if n < FRAME_HEADER_BYTES => return Ok(Frame::Torn),
        _ => {}
    }
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let expected_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let mut payload = Vec::with_capacity(len.min(FRAME_RESERVE_BYTES));
    if reader.take(len as u64).read_to_end(&mut payload)? < len {
        return Ok(Frame::Torn);
    }
    if crc32(&payload) != expected_crc {
        return Ok(Frame::Torn);
    }
    Ok(Frame::Payload(payload))
}

/// Read as many bytes as available up to `buf.len()`, returning the count
/// (only a true EOF stops short).
fn read_full<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let bytes = value_to_bytes(v);
        let back = value_from_bytes(&bytes).unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn value_roundtrips() {
        roundtrip(&Value::Null);
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Bool(false));
        roundtrip(&Value::Int(-123456789));
        roundtrip(&Value::Int(i64::MIN));
        roundtrip(&Value::UInt(u64::MAX));
        roundtrip(&Value::Float(0.25));
        roundtrip(&Value::Float(1.0e300)); // not f32-exact
        roundtrip(&Value::Str("héllo\nworld".into()));
        roundtrip(&Value::Seq(vec![
            Value::Int(1),
            Value::Str("x".into()),
            Value::Seq(vec![]),
        ]));
        roundtrip(&Value::Map(vec![
            ("a".into(), Value::Null),
            ("b".into(), Value::Float(f64::from(0.1f32))),
        ]));
    }

    #[test]
    fn f32_exact_floats_use_four_bytes() {
        let exact = value_to_bytes(&Value::Float(f64::from(0.1f32)));
        assert_eq!(exact.len(), 5); // tag + 4
        let wide = value_to_bytes(&Value::Float(0.1f64));
        assert_eq!(wide.len(), 9); // tag + 8
    }

    #[test]
    fn nan_survives_binary() {
        let bytes = value_to_bytes(&Value::Float(f64::NAN));
        match value_from_bytes(&bytes).unwrap() {
            Value::Float(f) => assert!(f.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(value_from_bytes(&[0xff]).is_err());
        assert!(value_from_bytes(&[TAG_STR, 0x05, b'a']).is_err());
        // Trailing bytes after a complete value.
        assert!(value_from_bytes(&[TAG_NULL, TAG_NULL]).is_err());
    }

    #[test]
    fn frames_roundtrip_and_detect_torn_tails() {
        let mut log: Vec<u8> = Vec::new();
        write_frame(&mut log, b"first").unwrap();
        write_frame(&mut log, b"second record").unwrap();

        let mut reader = &log[..];
        assert_eq!(
            read_frame(&mut reader).unwrap(),
            Frame::Payload(b"first".to_vec())
        );
        assert_eq!(
            read_frame(&mut reader).unwrap(),
            Frame::Payload(b"second record".to_vec())
        );
        assert_eq!(read_frame(&mut reader).unwrap(), Frame::Eof);

        // Torn tail: drop the last 3 bytes, as if the process died mid-write.
        let torn = &log[..log.len() - 3];
        let mut reader = torn;
        assert_eq!(
            read_frame(&mut reader).unwrap(),
            Frame::Payload(b"first".to_vec())
        );
        assert_eq!(read_frame(&mut reader).unwrap(), Frame::Torn);

        // Corrupt payload byte: checksum catches it.
        let mut bad = log.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let mut reader = &bad[..];
        assert_eq!(
            read_frame(&mut reader).unwrap(),
            Frame::Payload(b"first".to_vec())
        );
        assert_eq!(read_frame(&mut reader).unwrap(), Frame::Torn);
    }

    /// A source that counts the reads asked of it and the widest buffer
    /// handed to one.
    struct Counting<'a> {
        bytes: &'a [u8],
        reads: usize,
        widest: usize,
    }

    impl<'a> Counting<'a> {
        fn new(bytes: &'a [u8]) -> Self {
            Self {
                bytes,
                reads: 0,
                widest: 0,
            }
        }
    }

    impl Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.widest = self.widest.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_header_claiming_more_than_follows_reads_as_torn() {
        // A corrupt length prefix asks for 4 GiB and gets a few bytes: the
        // buffer they are read into is never sized by the claim.
        let mut log = Vec::new();
        write_frame(&mut log, b"first").unwrap();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&crc32(b"tail").to_le_bytes());
        log.extend_from_slice(b"tail");
        let mut reader = Counting::new(&log);
        assert_eq!(
            read_frame(&mut reader).unwrap(),
            Frame::Payload(b"first".to_vec())
        );
        assert_eq!(read_frame(&mut reader).unwrap(), Frame::Torn);
        assert!(reader.bytes.is_empty(), "the claimed bytes were all read");
        assert!(reader.widest <= FRAME_RESERVE_BYTES, "{}", reader.widest);
    }

    #[test]
    fn a_frame_is_two_reads_of_its_source() {
        // A segment's point read goes straight to the file: one read for the
        // header and one for a record's payload (a 384-dim embedding and its
        // text), as when the payload buffer was allocated whole.
        let payload = vec![7u8; 384 * 4 + 200];
        let mut log = Vec::new();
        write_frame(&mut log, &payload).unwrap();
        let mut file = Counting::new(&log);
        assert_eq!(read_frame(&mut file).unwrap(), Frame::Payload(payload));
        assert_eq!(file.reads, 2);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // Standard IEEE CRC32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }
}
