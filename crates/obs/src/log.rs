//! A structured, leveled event journal — the daemon's flight recorder.
//!
//! Metrics say *how much*; the journal says *what happened*. Every
//! operationally interesting event — a session admitted, a frame refused,
//! a containment kill, a drift alarm — becomes one typed record: a
//! [`Level`], a monotonic sequence number, a microsecond timestamp, a
//! static `target` and message, and up to [`MAX_KVS`] key/value pairs.
//! Records are fixed-size on the hot path (static strings, inline values,
//! no per-event heap allocation); a disabled journal site costs one
//! relaxed atomic load, mirroring [`trace`](crate::trace) and
//! [`timeline`](crate::timeline).
//!
//! Two sinks run behind one global logger:
//!
//! * a **bounded in-memory ring** (the newest `ring_cap` records, always
//!   on while the journal is enabled) for post-mortem snapshots;
//! * an optional **binary on-disk journal** with size-based rotation —
//!   the same framing discipline as the tracefile container: a magic+
//!   version header, then length-prefixed, CRC-covered records, so bit
//!   rot and truncation are detected, reported, and never panic
//!   (mirroring `tracefile::Corrupt` semantics).
//!
//! # On-disk layout
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (16 B): magic "gdjrnl\x01\x00" · version u32 ·        │
//! │                reserved u32                                  │
//! ├──────────────────────────────────────────────────────────────┤
//! │ record 0: hdr (8 B: body_len u32 · body crc32 u32)           │
//! │           body: seq u64 · ts_us u64 · level u8 ·             │
//! │                 target (len u8 · bytes) · msg (len u8 ·      │
//! │                 bytes) · nkv u8 · { key (len u8 · bytes) ·   │
//! │                 tag u8 · value }                             │
//! ├──────────────────────────────────────────────────────────────┤
//! │ record 1 … (appended live; a reader tolerates a torn tail)   │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Integers are little-endian. Value tags: 0 = u64, 1 = i64, 2 = f64
//! (IEEE bits), 3 = str (len u8 · bytes), 4 = bool. When the file would
//! exceed the configured size bound, it rotates: the current file is
//! renamed to `<path>.1` (replacing any previous generation) and a fresh
//! journal begins at `<path>`.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::JsonValue;
use crate::ring::Ring;
use tracefile_crc::crc32;

/// CRC-32 identical to the tracefile container's (IEEE 802.3). The
/// journal must not depend on the tracefile crate (obs sits below it),
/// so the table lives here in a private module.
mod tracefile_crc {
    const fn build_table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
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

    static TABLE: [u32; 256] = build_table();

    pub fn crc32(data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }
}

/// Leading file magic (includes a format generation byte).
pub const MAGIC: [u8; 8] = *b"gdjrnl\x01\x00";
/// The one journal format version this module reads and writes.
pub const VERSION: u32 = 1;
/// File header length in bytes.
pub const HEADER_LEN: u64 = 16;
/// Per-record header length in bytes (body length + body CRC).
pub const RECORD_HEADER_LEN: usize = 8;
/// Upper bound on one record body; a declared length past this is
/// corruption, not a big record (the encoder can never produce one).
pub const MAX_RECORD_LEN: u32 = 4096;
/// Maximum key/value pairs per record.
pub const MAX_KVS: usize = 4;
/// Capacity of an inline string value; longer strings are truncated at a
/// character boundary (the journal is diagnostics, not archival storage).
pub const STR_CAP: usize = 64;
/// Default in-memory ring capacity.
pub const DEFAULT_RING_CAP: usize = 4096;
/// Default on-disk rotation bound (16 MiB keeps two generations of a
/// chatty daemon's journal around 32 MiB total).
pub const DEFAULT_MAX_FILE_BYTES: u64 = 16 * 1024 * 1024;

/// Record severity, ordered: `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Level {
    /// High-volume protocol chatter (BUSY holds, RESUMEs, chunk flow).
    Debug = 0,
    /// Lifecycle events (admit, report, shutdown).
    Info = 1,
    /// Degradation that does not kill anything (drift alarms, drops).
    Warn = 2,
    /// Containment decisions and failures (session kills, I/O errors).
    Error = 3,
}

impl Level {
    /// The canonical lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a level name (case-insensitive; `warning` accepted).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    fn from_u8(b: u8) -> Option<Level> {
        match b {
            0 => Some(Level::Debug),
            1 => Some(Level::Info),
            2 => Some(Level::Warn),
            3 => Some(Level::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// A fixed-capacity inline string: what lets a [`Record`] hold dynamic
/// text (session names, error details) without heap allocation.
#[derive(Clone, Copy)]
pub struct InlineStr {
    len: u8,
    buf: [u8; STR_CAP],
}

impl InlineStr {
    /// Stores `s`, truncating at a character boundary past [`STR_CAP`].
    pub fn new(s: &str) -> InlineStr {
        let mut end = s.len().min(STR_CAP);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut buf = [0u8; STR_CAP];
        buf[..end].copy_from_slice(&s.as_bytes()[..end]);
        InlineStr {
            len: end as u8,
            buf,
        }
    }

    /// The stored text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len as usize]).expect("constructed from &str")
    }
}

impl fmt::Debug for InlineStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for InlineStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl PartialEq for InlineStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}
impl Eq for InlineStr {}

/// A record value: numbers and booleans verbatim, strings inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An unsigned integer (counters, sequence numbers, sizes).
    U64(u64),
    /// A signed integer (deltas, strides).
    I64(i64),
    /// A float (accuracies, scores).
    F64(f64),
    /// A boolean flag.
    Bool(bool),
    /// Inline text (truncated at [`STR_CAP`] bytes).
    Str(InlineStr),
}

impl Value {
    /// An inline-string value (truncating past [`STR_CAP`]).
    pub fn str(s: &str) -> Value {
        Value::Str(InlineStr::new(s))
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::str(v)
    }
}

/// One journal record, hot-path shaped: every field is inline or
/// `'static`, so recording never allocates.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Monotonic sequence number (assigned by the logger).
    pub seq: u64,
    /// Microseconds since the logger was enabled.
    pub ts_us: u64,
    /// Severity.
    pub level: Level,
    /// Subsystem that emitted the record (`serve.session`, `harness`, …).
    pub target: &'static str,
    /// The static message.
    pub msg: &'static str,
    kvs: [Option<(&'static str, Value)>; MAX_KVS],
}

impl Record {
    /// The populated key/value pairs.
    pub fn kvs(&self) -> impl Iterator<Item = (&'static str, Value)> + '_ {
        self.kvs.iter().flatten().copied()
    }
}

/// A record read back from disk or snapshotted out of the ring: owned
/// strings, suitable for filtering and display.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedRecord {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Microseconds since the originating logger was enabled.
    pub ts_us: u64,
    /// Severity.
    pub level: Level,
    /// Emitting subsystem.
    pub target: String,
    /// The message.
    pub msg: String,
    /// Key/value pairs, in emission order.
    pub kvs: Vec<(String, OwnedValue)>,
}

/// The owned form of [`Value`].
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedValue {
    /// See [`Value::U64`].
    U64(u64),
    /// See [`Value::I64`].
    I64(i64),
    /// See [`Value::F64`].
    F64(f64),
    /// See [`Value::Bool`].
    Bool(bool),
    /// See [`Value::Str`].
    Str(String),
}

impl fmt::Display for OwnedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OwnedValue::U64(v) => write!(f, "{v}"),
            OwnedValue::I64(v) => write!(f, "{v}"),
            OwnedValue::F64(v) => write!(f, "{v}"),
            OwnedValue::Bool(v) => write!(f, "{v}"),
            OwnedValue::Str(v) => write!(f, "{v:?}"),
        }
    }
}

impl OwnedRecord {
    fn from_record(r: &Record) -> OwnedRecord {
        OwnedRecord {
            seq: r.seq,
            ts_us: r.ts_us,
            level: r.level,
            target: r.target.to_string(),
            msg: r.msg.to_string(),
            kvs: r
                .kvs()
                .map(|(k, v)| {
                    let ov = match v {
                        Value::U64(x) => OwnedValue::U64(x),
                        Value::I64(x) => OwnedValue::I64(x),
                        Value::F64(x) => OwnedValue::F64(x),
                        Value::Bool(x) => OwnedValue::Bool(x),
                        Value::Str(s) => OwnedValue::Str(s.as_str().to_string()),
                    };
                    (k.to_string(), ov)
                })
                .collect(),
        }
    }

    /// Looks up a key's value.
    pub fn kv(&self, key: &str) -> Option<&OwnedValue> {
        self.kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The record as a JSON object (for machine consumption of
    /// `harness logs` output, if ever needed, and for tests).
    pub fn to_json(&self) -> JsonValue {
        let mut v = JsonValue::object()
            .with("seq", self.seq)
            .with("ts_us", self.ts_us)
            .with("level", self.level.as_str())
            .with("target", self.target.as_str())
            .with("msg", self.msg.as_str());
        for (k, val) in &self.kvs {
            match val {
                OwnedValue::U64(x) => v.set(k.clone(), *x),
                OwnedValue::I64(x) => v.set(k.clone(), *x),
                OwnedValue::F64(x) => v.set(k.clone(), *x),
                OwnedValue::Bool(x) => v.set(k.clone(), *x),
                OwnedValue::Str(x) => v.set(k.clone(), x.clone()),
            };
        }
        v
    }
}

impl fmt::Display for OwnedRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12.6}] {:<5} {}: {}",
            self.ts_us as f64 / 1e6,
            self.level.as_str(),
            self.target,
            self.msg
        )?;
        for (k, v) in &self.kvs {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Binary encoding
// ---------------------------------------------------------------------

fn push_str8(out: &mut Vec<u8>, s: &str) {
    // Caller guarantees s.len() <= 255 (targets/messages are static and
    // short; inline strings cap at STR_CAP).
    debug_assert!(s.len() <= 255);
    out.push(s.len() as u8);
    out.extend_from_slice(s.as_bytes());
}

/// Encodes one record body (no header) into `out`, reusing its capacity.
fn encode_body(r: &Record, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&r.seq.to_le_bytes());
    out.extend_from_slice(&r.ts_us.to_le_bytes());
    out.push(r.level as u8);
    push_str8(out, &r.target[..r.target.len().min(255)]);
    push_str8(out, &r.msg[..r.msg.len().min(255)]);
    let n = r.kvs().count() as u8;
    out.push(n);
    for (k, v) in r.kvs() {
        push_str8(out, &k[..k.len().min(255)]);
        match v {
            Value::U64(x) => {
                out.push(0);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Value::I64(x) => {
                out.push(1);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Value::F64(x) => {
                out.push(2);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(3);
                push_str8(out, s.as_str());
            }
            Value::Bool(x) => {
                out.push(4);
                out.push(u8::from(x));
            }
        }
    }
}

struct BodyCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyCursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "body ends at {} of declared {}",
                self.buf.len(),
                self.pos + n
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str8(&mut self) -> Result<String, String> {
        let n = self.u8()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|e| format!("non-utf8 string: {e}"))
    }
}

/// Decodes one record body.
fn decode_body(buf: &[u8]) -> Result<OwnedRecord, String> {
    let mut c = BodyCursor { buf, pos: 0 };
    let seq = c.u64()?;
    let ts_us = c.u64()?;
    let level = Level::from_u8(c.u8()?).ok_or("bad level byte")?;
    let target = c.str8()?;
    let msg = c.str8()?;
    let n = c.u8()? as usize;
    if n > MAX_KVS {
        return Err(format!("{n} kv pairs exceeds the {MAX_KVS} cap"));
    }
    let mut kvs = Vec::with_capacity(n);
    for _ in 0..n {
        let key = c.str8()?;
        let value = match c.u8()? {
            0 => OwnedValue::U64(c.u64()?),
            1 => OwnedValue::I64(c.u64()? as i64),
            2 => OwnedValue::F64(f64::from_bits(c.u64()?)),
            3 => OwnedValue::Str(c.str8()?),
            4 => OwnedValue::Bool(c.u8()? != 0),
            t => return Err(format!("unknown value tag {t}")),
        };
        kvs.push((key, value));
    }
    Ok(OwnedRecord {
        seq,
        ts_us,
        level,
        target,
        msg,
        kvs,
    })
}

// ---------------------------------------------------------------------
// Writer with rotation
// ---------------------------------------------------------------------

/// A binary journal writer with size-based rotation.
///
/// When an append would push the file past `max_bytes`, the current file
/// is renamed to `<path>.1` (replacing any previous generation) and a
/// fresh journal starts at `path` — so on disk there are at most two
/// generations, bounded at roughly `2 * max_bytes`.
#[derive(Debug)]
pub struct JournalWriter {
    file: BufWriter<File>,
    path: PathBuf,
    max_bytes: u64,
    bytes: u64,
    records: u64,
    rotations: u64,
    scratch: Vec<u8>,
}

fn write_header(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    Ok(())
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path`.
    pub fn create(path: &Path, max_bytes: u64) -> io::Result<JournalWriter> {
        let mut file = BufWriter::new(File::create(path)?);
        write_header(&mut file)?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            max_bytes: max_bytes.max(HEADER_LEN + 64),
            bytes: HEADER_LEN,
            records: 0,
            rotations: 0,
            scratch: Vec::with_capacity(256),
        })
    }

    /// The rotated-generation path (`<path>.1`).
    pub fn rotated_path(path: &Path) -> PathBuf {
        let mut os = path.as_os_str().to_os_string();
        os.push(".1");
        PathBuf::from(os)
    }

    /// Appends one record, rotating first if it would breach the bound.
    pub fn write(&mut self, r: &Record) -> io::Result<()> {
        let mut body = std::mem::take(&mut self.scratch);
        encode_body(r, &mut body);
        let framed = (RECORD_HEADER_LEN + body.len()) as u64;
        if self.bytes + framed > self.max_bytes && self.bytes > HEADER_LEN {
            self.rotate()?;
        }
        let crc = crc32(&body);
        self.file.write_all(&(body.len() as u32).to_le_bytes())?;
        self.file.write_all(&crc.to_le_bytes())?;
        self.file.write_all(&body)?;
        self.bytes += framed;
        self.records += 1;
        self.scratch = body;
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.file.flush()?;
        let old = Self::rotated_path(&self.path);
        let _ = std::fs::remove_file(&old);
        std::fs::rename(&self.path, &old)?;
        self.file = BufWriter::new(File::create(&self.path)?);
        write_header(&mut self.file)?;
        self.bytes = HEADER_LEN;
        self.rotations += 1;
        Ok(())
    }

    /// Flushes buffered records to disk.
    pub fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    /// Records written across all generations.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Rotations performed.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Bytes in the current generation (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// What reading a journal produced: every intact record plus, when the
/// file ended mid-record or a record failed its CRC, a warning describing
/// the damage. Damage is reported, never panicked on, and never hides
/// the records before it — `tracefile::Corrupt` semantics.
#[derive(Debug)]
pub struct ReadOutcome {
    /// Every record that decoded cleanly, in file order.
    pub records: Vec<OwnedRecord>,
    /// Present when the tail was truncated or a record was corrupt.
    pub warning: Option<String>,
}

fn check_header(buf: &[u8]) -> io::Result<()> {
    if buf.len() < HEADER_LEN as usize || buf[0..8] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a journal file (bad magic)",
        ));
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().expect("4"));
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("journal version {version} is not {VERSION}"),
        ));
    }
    Ok(())
}

/// Decodes records from `buf` (positioned after the header). Returns the
/// records, the bytes consumed (complete records only), and a warning on
/// truncation/corruption. `offset0` is the file offset of `buf[0]`, used
/// only in messages.
fn decode_records(buf: &[u8], offset0: u64) -> (Vec<OwnedRecord>, usize, Option<String>) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        if pos == buf.len() {
            return (records, pos, None);
        }
        if pos + RECORD_HEADER_LEN > buf.len() {
            return (
                records,
                pos,
                Some(format!(
                    "journal ends inside a record header at offset {} — \
                     {} bytes of torn tail skipped",
                    offset0 + pos as u64,
                    buf.len() - pos
                )),
            );
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4"));
        let stored = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().expect("4"));
        if len > MAX_RECORD_LEN {
            return (
                records,
                pos,
                Some(format!(
                    "record at offset {} declares {len} bytes (cap {MAX_RECORD_LEN}) — \
                     corrupt; remainder skipped",
                    offset0 + pos as u64
                )),
            );
        }
        let body_start = pos + RECORD_HEADER_LEN;
        if body_start + len as usize > buf.len() {
            return (
                records,
                pos,
                Some(format!(
                    "journal ends inside a record body at offset {} — \
                     {} bytes of torn tail skipped",
                    offset0 + pos as u64,
                    buf.len() - pos
                )),
            );
        }
        let body = &buf[body_start..body_start + len as usize];
        let computed = crc32(body);
        if computed != stored {
            return (
                records,
                pos,
                Some(format!(
                    "record at offset {} fails its crc \
                     (stored {stored:#010x}, computed {computed:#010x}) — \
                     remainder skipped",
                    offset0 + pos as u64
                )),
            );
        }
        match decode_body(body) {
            Ok(r) => records.push(r),
            Err(e) => {
                return (
                    records,
                    pos,
                    Some(format!(
                        "record at offset {} is malformed ({e}) — remainder skipped",
                        offset0 + pos as u64
                    )),
                );
            }
        }
        pos = body_start + len as usize;
    }
}

/// Reads a whole journal file. Header damage is an error; record-level
/// damage (torn tail, CRC mismatch) yields the intact prefix plus a
/// warning.
pub fn read_journal(path: &Path) -> io::Result<ReadOutcome> {
    let buf = std::fs::read(path)?;
    check_header(&buf)?;
    let (records, _, warning) = decode_records(&buf[HEADER_LEN as usize..], HEADER_LEN);
    Ok(ReadOutcome { records, warning })
}

/// An incremental journal reader for `--follow`: remembers its offset,
/// yields complete records appended since the last poll, and survives
/// rotation (a file shorter than the offset means the journal rotated —
/// reopen from the top).
#[derive(Debug)]
pub struct JournalTail {
    path: PathBuf,
    offset: u64,
    /// Set once damage is reported so it is reported exactly once.
    damaged: bool,
}

impl JournalTail {
    /// Opens a journal for tailing, validating the header. Starts at the
    /// first record.
    pub fn open(path: &Path) -> io::Result<JournalTail> {
        let mut head = [0u8; HEADER_LEN as usize];
        let mut f = File::open(path)?;
        f.read_exact(&mut head).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "journal shorter than its header",
            )
        })?;
        check_header(&head)?;
        Ok(JournalTail {
            path: path.to_path_buf(),
            offset: HEADER_LEN,
            damaged: false,
        })
    }

    /// Reads every complete record appended since the last poll. A torn
    /// tail (a record still being written) is silently left for the next
    /// poll; CRC damage is reported once via the warning slot.
    pub fn poll(&mut self) -> io::Result<(Vec<OwnedRecord>, Option<String>)> {
        let len = std::fs::metadata(&self.path)?.len();
        if len < self.offset {
            // Rotated under us: start over on the fresh generation.
            self.offset = HEADER_LEN;
            self.damaged = false;
            if len < HEADER_LEN {
                return Ok((Vec::new(), None));
            }
        }
        if len == self.offset || self.damaged {
            return Ok((Vec::new(), None));
        }
        let mut f = File::open(&self.path)?;
        std::io::Seek::seek(&mut f, std::io::SeekFrom::Start(self.offset))?;
        let mut buf = Vec::with_capacity((len - self.offset) as usize);
        f.take(len - self.offset).read_to_end(&mut buf)?;
        let (records, consumed, warning) = decode_records(&buf, self.offset);
        self.offset += consumed as u64;
        // A torn tail just waits for the rest; hard damage sticks.
        let hard = warning.filter(|w| !w.contains("torn tail"));
        if hard.is_some() {
            self.damaged = true;
        }
        Ok((records, hard))
    }
}

// ---------------------------------------------------------------------
// The global logger
// ---------------------------------------------------------------------

/// Global logger configuration.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Records below this level are dropped at the instrumentation site.
    pub level: Level,
    /// In-memory ring capacity (newest records win).
    pub ring_cap: usize,
    /// Optional on-disk journal destination.
    pub file: Option<PathBuf>,
    /// Rotation bound for the on-disk journal.
    pub max_file_bytes: u64,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            level: Level::Info,
            ring_cap: DEFAULT_RING_CAP,
            file: None,
            max_file_bytes: DEFAULT_MAX_FILE_BYTES,
        }
    }
}

#[derive(Debug)]
struct LogState {
    base: Option<Instant>,
    /// The newest records; its `recorded` count is the next record's `seq`.
    ring: Ring<Record>,
    writer: Option<JournalWriter>,
    write_errors: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
/// Minimum level, mirrored out of the state so the hot-path check is one
/// relaxed load (two with [`ON`]).
static MIN_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static STATE: Mutex<LogState> = Mutex::new(LogState {
    base: None,
    ring: Ring::new(0),
    writer: None,
    write_errors: 0,
});

/// Whether a record at `level` would currently be kept. Instrumentation
/// sites branch on this; disabled logging costs two relaxed loads.
#[inline]
pub fn enabled(level: Level) -> bool {
    ON.load(Ordering::Relaxed) && level as u8 >= MIN_LEVEL.load(Ordering::Relaxed)
}

/// Turns the journal on, resetting sequence numbers, the ring, and the
/// timestamp origin. When `cfg.file` is set, an on-disk journal is
/// created (truncating any previous file at that path).
pub fn enable(cfg: &LogConfig) -> io::Result<()> {
    let writer = match &cfg.file {
        Some(path) => Some(JournalWriter::create(path, cfg.max_file_bytes)?),
        None => None,
    };
    let mut s = STATE.lock().unwrap();
    *s = LogState {
        base: Some(Instant::now()),
        ring: Ring::new(cfg.ring_cap.max(1)).preallocated(),
        writer,
        write_errors: 0,
    };
    MIN_LEVEL.store(cfg.level as u8, Ordering::Relaxed);
    drop(s);
    ON.store(true, Ordering::Relaxed);
    Ok(())
}

/// Turns the journal off and flushes the on-disk writer. The ring stays
/// snapshotable until the next [`enable`]. Returns the I/O write-error
/// count (0 when healthy).
pub fn disable() -> u64 {
    ON.store(false, Ordering::Relaxed);
    let mut s = STATE.lock().unwrap();
    if let Some(w) = &mut s.writer {
        let _ = w.flush();
    }
    s.writer = None;
    s.write_errors
}

/// Records one event. `kvs` beyond [`MAX_KVS`] are dropped (the journal
/// is fixed-shape by design). No-op when the journal is off or the level
/// is below the configured minimum.
pub fn event(level: Level, target: &'static str, msg: &'static str, kvs: &[(&'static str, Value)]) {
    if !enabled(level) {
        return;
    }
    let mut fixed: [Option<(&'static str, Value)>; MAX_KVS] = [None; MAX_KVS];
    for (slot, kv) in fixed.iter_mut().zip(kvs.iter()) {
        *slot = Some(*kv);
    }
    let mut s = STATE.lock().unwrap();
    let ts_us = s.base.map(|b| b.elapsed().as_micros() as u64).unwrap_or(0);
    let rec = Record {
        seq: s.ring.recorded(),
        ts_us,
        level,
        target,
        msg,
        kvs: fixed,
    };
    s.ring.push(rec);
    if let Some(w) = &mut s.writer {
        if w.write(&rec).is_err() {
            s.write_errors += 1;
        }
    }
}

/// [`event`] at [`Level::Debug`].
pub fn debug(target: &'static str, msg: &'static str, kvs: &[(&'static str, Value)]) {
    event(Level::Debug, target, msg, kvs);
}

/// [`event`] at [`Level::Info`].
pub fn info(target: &'static str, msg: &'static str, kvs: &[(&'static str, Value)]) {
    event(Level::Info, target, msg, kvs);
}

/// [`event`] at [`Level::Warn`].
pub fn warn(target: &'static str, msg: &'static str, kvs: &[(&'static str, Value)]) {
    event(Level::Warn, target, msg, kvs);
}

/// [`event`] at [`Level::Error`].
pub fn error(target: &'static str, msg: &'static str, kvs: &[(&'static str, Value)]) {
    event(Level::Error, target, msg, kvs);
}

/// Records accepted since the last [`enable`].
pub fn recorded() -> u64 {
    STATE.lock().unwrap().ring.recorded()
}

/// Snapshots the in-memory ring, oldest first.
pub fn ring_snapshot() -> Vec<OwnedRecord> {
    let s = STATE.lock().unwrap();
    s.ring.iter().map(OwnedRecord::from_record).collect()
}

/// Flushes the on-disk journal without disabling (used before handing a
/// live file to a reader).
pub fn flush() {
    let mut s = STATE.lock().unwrap();
    if let Some(w) = &mut s.writer {
        let _ = w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share the process-global logger; serialize enable/disable.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_logging_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        enable(&LogConfig::default()).unwrap();
        disable();
        event(Level::Error, "t", "x", &[]);
        assert_eq!(recorded(), 0);
    }

    #[test]
    fn level_filter_drops_below_minimum() {
        let _g = TEST_LOCK.lock().unwrap();
        enable(&LogConfig {
            level: Level::Warn,
            ..LogConfig::default()
        })
        .unwrap();
        debug("t", "too quiet", &[]);
        info("t", "still too quiet", &[]);
        warn("t", "kept", &[]);
        error("t", "kept too", &[]);
        disable();
        assert_eq!(recorded(), 2);
        let ring = ring_snapshot();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring[0].msg, "kept");
        assert!(ring[0].seq < ring[1].seq);
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let _g = TEST_LOCK.lock().unwrap();
        enable(&LogConfig {
            level: Level::Debug,
            ring_cap: 4,
            ..LogConfig::default()
        })
        .unwrap();
        for i in 0..10u64 {
            event(Level::Info, "t", "tick", &[("i", i.into())]);
        }
        disable();
        let ring = ring_snapshot();
        assert_eq!(ring.len(), 4);
        let is: Vec<u64> = ring
            .iter()
            .map(|r| match r.kv("i") {
                Some(OwnedValue::U64(v)) => *v,
                other => panic!("bad kv {other:?}"),
            })
            .collect();
        assert_eq!(is, vec![6, 7, 8, 9]);
    }

    #[test]
    fn kvs_past_the_cap_are_dropped_and_strings_truncate() {
        let _g = TEST_LOCK.lock().unwrap();
        enable(&LogConfig::default()).unwrap();
        let long = "x".repeat(300);
        event(
            Level::Info,
            "t",
            "m",
            &[
                ("a", 1u64.into()),
                ("b", 2u64.into()),
                ("c", 3u64.into()),
                ("d", 4u64.into()),
                ("e", 5u64.into()),
                ("f", Value::str(&long)),
            ],
        );
        disable();
        let ring = ring_snapshot();
        assert_eq!(ring[0].kvs.len(), MAX_KVS);
        assert!(ring[0].kv("e").is_none());
        // Inline strings truncate at STR_CAP, never past a char boundary.
        let s = InlineStr::new(&long);
        assert_eq!(s.as_str().len(), STR_CAP);
        let multi = "é".repeat(STR_CAP); // 2-byte chars straddle the cap
        let t = InlineStr::new(&multi);
        assert!(t.as_str().len() <= STR_CAP);
        assert!(t.as_str().chars().all(|c| c == 'é'));
    }

    #[test]
    fn level_parse_round_trips() {
        for l in [Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
        assert_eq!(Level::parse("loud"), None);
        assert!(Level::Debug < Level::Error);
    }
}
