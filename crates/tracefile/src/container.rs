//! The on-disk container: header, chunks, footer index, trailer.
//!
//! # Layout
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (24 B): magic "gdtrace\x01" · version u32 ·           │
//! │                chunk_cap u32 · reserved u64                  │
//! ├──────────────────────────────────────────────────────────────┤
//! │ chunk 0: hdr (16 B: stream_id u32 · count u32 ·              │
//! │               payload_len u32 · payload crc32 u32)           │
//! │          payload (delta-encoded records, fresh DeltaState)   │
//! ├──────────────────────────────────────────────────────────────┤
//! │ chunk 1 … chunk N-1                                          │
//! ├──────────────────────────────────────────────────────────────┤
//! │ footer body: header crc32 ·                                  │
//! │              stream table (name, total records per stream) · │
//! │              chunk index (offset, stream, count, len) ·      │
//! │              meta (UTF-8, opaque to this crate)              │
//! ├──────────────────────────────────────────────────────────────┤
//! │ trailer (20 B): footer_len u64 · footer crc32 u32 ·          │
//! │                 magic "gdtrailr"                             │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian. Every byte of the file is covered by
//! some integrity check: the header by the header CRC stored in the
//! footer, chunk headers by cross-checking against the footer index (and
//! the CRC field by the payload check it guards), payloads by their CRC,
//! the footer body by the trailer's footer CRC, and the trailer by its
//! magic plus the bounds checks on `footer_len`. A reader that walks every
//! chunk therefore detects any single-byte corruption.
//!
//! Chunks are self-contained (the delta state resets per chunk), so a
//! reader can seek straight to any chunk via the footer index and decode
//! chunks in any order — or in parallel.
//!
//! # Wire chunks
//!
//! A chunk on its own — 16-byte header plus payload — is also the unit
//! the serve daemon exchanges: [`encode_wire_chunk`] writes one,
//! [`decode_wire_chunk`] validates and decodes one, and a chunk copied
//! verbatim out of a finished container ([`TraceReader::read_chunk_raw`])
//! is a valid wire chunk. A chunk is one [`record`](crate::record): its
//! tag holds the stream id and the record count, and its CRC is the
//! payload's. The container reader and the wire decoder share one
//! validate-and-decode step, so the two surfaces cannot drift apart.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::DerefMut;
use std::path::Path;

use workloads::trace::ParseTraceError;
use workloads::DynInst;

use crate::codec::{decode_payload, encode_inst, DeltaState};
use crate::crc32::crc32;
use crate::record::{write_record, RecordHeader, RECORD_HEADER_LEN};

/// Leading file magic (includes a format generation byte).
pub const MAGIC: [u8; 8] = *b"gdtrace\x01";
/// Trailing magic closing the trailer.
pub const TRAILER_MAGIC: [u8; 8] = *b"gdtrailr";
/// The one format version this crate reads and writes.
pub const VERSION: u32 = 1;
/// Header length in bytes.
pub const HEADER_LEN: u64 = 24;
/// Per-chunk header length in bytes (a [`record`](crate::record) header).
pub const CHUNK_HEADER_LEN: u64 = RECORD_HEADER_LEN as u64;
/// Trailer length in bytes.
pub const TRAILER_LEN: u64 = 20;
/// Default records per chunk. 64 Ki records keeps chunk payloads around a
/// few hundred KiB — large enough to amortize headers and seeks, small
/// enough that a streaming reader's working set stays modest.
pub const DEFAULT_CHUNK_CAP: u32 = 65_536;

/// Any failure opening, reading, writing, or validating a trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file does not begin with the trace-file magic, or is too short
    /// to be a trace file at all.
    NotATraceFile {
        /// What specifically ruled the file out.
        detail: String,
    },
    /// The file is a trace file of a version this crate cannot read.
    UnsupportedVersion {
        /// The version the header declared.
        found: u32,
    },
    /// The footer, trailer, or header failed validation, so the chunk
    /// index cannot be trusted.
    BadFooter {
        /// What failed.
        detail: String,
    },
    /// A chunk failed validation or decoding.
    Corrupt {
        /// 0-based index of the chunk in the footer index.
        chunk: u64,
        /// File offset of the chunk's header.
        offset: u64,
        /// What failed.
        reason: String,
    },
    /// A stream name not present in the file was requested.
    UnknownStream {
        /// The requested name.
        name: String,
    },
    /// Instructions were pushed before any stream was begun.
    NoActiveStream,
    /// A text-format parse error (conversion paths only).
    Text(ParseTraceError),
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "i/o error: {e}"),
            TraceFileError::NotATraceFile { detail } => {
                write!(f, "not a trace file: {detail}")
            }
            TraceFileError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported trace file version {found} (supported: {VERSION})"
                )
            }
            TraceFileError::BadFooter { detail } => {
                write!(f, "corrupt trace file footer: {detail}")
            }
            TraceFileError::Corrupt {
                chunk,
                offset,
                reason,
            } => write!(
                f,
                "corrupt trace file: chunk {chunk} (file offset {offset}): {reason}"
            ),
            TraceFileError::UnknownStream { name } => {
                write!(f, "trace file has no stream named `{name}`")
            }
            TraceFileError::NoActiveStream => {
                write!(f, "no active stream: call begin_stream before push")
            }
            TraceFileError::Text(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            TraceFileError::Text(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

impl From<ParseTraceError> for TraceFileError {
    fn from(e: ParseTraceError) -> Self {
        TraceFileError::Text(e)
    }
}

/// The decoded header of one self-contained wire chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireChunk {
    /// The stream id the producer stamped (opaque outside a container).
    pub stream_id: u32,
    /// Records in the chunk.
    pub count: u32,
    /// Compressed payload length in bytes.
    pub payload_len: u32,
}

/// Why a standalone wire chunk failed validation or decoding.
#[derive(Debug)]
pub enum WireError {
    /// Fewer bytes than the declared shape requires.
    Truncated {
        /// Bytes the chunk needs.
        need: usize,
        /// Bytes present.
        have: usize,
    },
    /// The record count is zero or exceeds the chunk capacity.
    CountOutOfRange {
        /// The declared count.
        count: u32,
        /// The maximum the header allows.
        cap: u32,
    },
    /// The payload CRC does not match.
    Crc {
        /// CRC stored in the chunk header.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The payload failed to decode cleanly.
    Payload(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated chunk: need {need} bytes, have {have}")
            }
            WireError::CountOutOfRange { count, cap } => {
                write!(f, "chunk record count {count} outside 1..={cap}")
            }
            WireError::Crc { stored, computed } => write!(
                f,
                "payload crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WireError::Payload(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes `insts` as one self-contained wire chunk (16-byte chunk header
/// plus delta-compressed payload), starting from a fresh delta state.
///
/// # Panics
///
/// On an empty `insts` slice: every reader requires a record count of at
/// least 1.
pub fn encode_wire_chunk(insts: &[DynInst], stream_id: u32) -> Vec<u8> {
    assert!(!insts.is_empty(), "a wire chunk must carry records");
    let mut payload = Vec::new();
    let mut state = DeltaState::new();
    for inst in insts {
        encode_inst(&mut payload, &mut state, inst);
    }
    let hdr = RecordHeader::new([stream_id, insts.len() as u32], &payload);
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&hdr.to_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validates and decodes one self-contained wire chunk (header + payload,
/// as produced by [`encode_wire_chunk`] or copied verbatim out of a
/// container), appending its records to `out`.
///
/// `chunk_cap` bounds the record count (use [`DEFAULT_CHUNK_CAP`] unless
/// the producer negotiated another). Validation is the container
/// reader's: count in range, payload length exact, CRC match, decode
/// consuming exactly the payload and yielding exactly the declared count.
pub fn decode_wire_chunk(
    bytes: &[u8],
    chunk_cap: u32,
    out: &mut Vec<DynInst>,
) -> Result<WireChunk, WireError> {
    let payload = bytes.get(CHUNK_HEADER_LEN as usize..).unwrap_or_default();
    decode_wire_chunk_with_crc(bytes, crc32(payload), chunk_cap, out)
}

/// [`decode_wire_chunk`] for a caller that already holds `payload_crc`,
/// the CRC-32 of `bytes[CHUNK_HEADER_LEN..]` (everything after the chunk
/// header), so the payload is not hashed again. The serve daemon derives
/// it from the frame CRC it verified with
/// [`crc32_combine`](crate::crc32::crc32_combine). The stored CRC must
/// still equal it exactly: every check is the same as
/// `decode_wire_chunk`'s.
///
/// This is the one validate-and-decode step for raw chunk bytes: the
/// container reader runs every chunk it reads through it too.
pub fn decode_wire_chunk_with_crc(
    bytes: &[u8],
    payload_crc: u32,
    chunk_cap: u32,
    out: &mut Vec<DynInst>,
) -> Result<WireChunk, WireError> {
    let hdr_len = RECORD_HEADER_LEN;
    let record = RecordHeader::parse(bytes).ok_or(WireError::Truncated {
        need: hdr_len,
        have: bytes.len(),
    })?;
    let [stream_id, count] = record.tag;
    let header = WireChunk {
        stream_id,
        count,
        payload_len: record.len,
    };
    if header.count == 0 || header.count > chunk_cap {
        return Err(WireError::CountOutOfRange {
            count: header.count,
            cap: chunk_cap,
        });
    }
    let need = hdr_len + header.payload_len as usize;
    if bytes.len() != need {
        return Err(WireError::Truncated {
            need,
            have: bytes.len(),
        });
    }
    if payload_crc != record.crc {
        return Err(WireError::Crc {
            stored: record.crc,
            computed: payload_crc,
        });
    }
    decode_payload(&bytes[hdr_len..], header.count, out)
        .map_err(|e| WireError::Payload(e.to_string()))?;
    Ok(header)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct FooterCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FooterCursor<'a> {
    fn bad(what: &str) -> TraceFileError {
        TraceFileError::BadFooter {
            detail: format!("truncated footer: {what}"),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], TraceFileError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Self::bad(what))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self, what: &str) -> Result<u32, TraceFileError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, TraceFileError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// One entry of the footer's chunk index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// File offset of the chunk header.
    pub offset: u64,
    /// Index into the stream table.
    pub stream_id: u32,
    /// Records in the chunk.
    pub count: u32,
    /// Compressed payload length in bytes.
    pub payload_len: u32,
}

/// One stream (named sub-trace) of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamInfo {
    /// The stream's name (by convention, a benchmark name).
    pub name: String,
    /// Total records across all of the stream's chunks.
    pub records: u64,
}

/// Streaming writer: constant memory, no seeking (the index is kept in
/// memory and written as the footer at [`finish`](TraceWriter::finish)).
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    pos: u64,
    header_crc: u32,
    chunk_cap: u32,
    streams: Vec<StreamInfo>,
    cur_stream: Option<u32>,
    buf: Vec<u8>,
    count: u32,
    state: DeltaState,
    index: Vec<ChunkEntry>,
    meta: String,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates (truncating) `path` and writes the file header.
    pub fn create(path: impl AsRef<Path>, chunk_cap: u32) -> Result<Self, TraceFileError> {
        TraceWriter::new(BufWriter::new(File::create(path)?), chunk_cap)
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `w`, writing the file header immediately.
    ///
    /// `chunk_cap` is the maximum records per chunk (clamped to ≥ 1); use
    /// [`DEFAULT_CHUNK_CAP`] unless testing chunk-boundary behaviour.
    pub fn new(mut w: W, chunk_cap: u32) -> Result<Self, TraceFileError> {
        let chunk_cap = chunk_cap.max(1);
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC);
        put_u32(&mut header, VERSION);
        put_u32(&mut header, chunk_cap);
        put_u64(&mut header, 0); // reserved
        debug_assert_eq!(header.len() as u64, HEADER_LEN);
        w.write_all(&header)?;
        Ok(TraceWriter {
            w,
            pos: HEADER_LEN,
            header_crc: crc32(&header),
            chunk_cap,
            streams: Vec::new(),
            cur_stream: None,
            buf: Vec::new(),
            count: 0,
            state: DeltaState::new(),
            index: Vec::new(),
            meta: String::new(),
        })
    }

    /// Switches the writer to the stream named `name`, creating it on
    /// first use. Flushes the current chunk, so interleaving streams
    /// costs chunk fragmentation but never mixes records.
    pub fn begin_stream(&mut self, name: &str) -> Result<(), TraceFileError> {
        self.flush_chunk()?;
        let id = match self.streams.iter().position(|s| s.name == name) {
            Some(i) => i as u32,
            None => {
                self.streams.push(StreamInfo {
                    name: name.to_string(),
                    records: 0,
                });
                (self.streams.len() - 1) as u32
            }
        };
        self.cur_stream = Some(id);
        Ok(())
    }

    /// Appends one instruction to the current stream.
    ///
    /// # Errors
    ///
    /// [`TraceFileError::NoActiveStream`] if no stream has been begun;
    /// otherwise only I/O errors from flushing a full chunk.
    pub fn push(&mut self, inst: &DynInst) -> Result<(), TraceFileError> {
        let cur = self.cur_stream.ok_or(TraceFileError::NoActiveStream)?;
        encode_inst(&mut self.buf, &mut self.state, inst);
        self.count += 1;
        self.streams[cur as usize].records += 1;
        if self.count >= self.chunk_cap {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Attaches an opaque UTF-8 metadata blob (stored in the footer).
    pub fn set_meta(&mut self, meta: impl Into<String>) {
        self.meta = meta.into();
    }

    fn flush_chunk(&mut self) -> Result<(), TraceFileError> {
        if self.count == 0 {
            self.buf.clear();
            self.state = DeltaState::new();
            return Ok(());
        }
        let stream_id = self.cur_stream.expect("records require an active stream");
        let header = RecordHeader::new([stream_id, self.count], &self.buf);
        write_record(&mut self.w, &header, &self.buf)?;
        let payload_len = header.len;
        self.index.push(ChunkEntry {
            offset: self.pos,
            stream_id,
            count: self.count,
            payload_len,
        });
        self.pos += CHUNK_HEADER_LEN + payload_len as u64;
        self.buf.clear();
        self.count = 0;
        self.state = DeltaState::new();
        Ok(())
    }

    /// Flushes the last chunk, writes the footer and trailer, and returns
    /// the inner writer (flushed).
    pub fn finish(mut self) -> Result<W, TraceFileError> {
        self.flush_chunk()?;
        let mut footer = Vec::new();
        put_u32(&mut footer, self.header_crc);
        put_u32(&mut footer, self.streams.len() as u32);
        for s in &self.streams {
            put_u32(&mut footer, s.name.len() as u32);
            footer.extend_from_slice(s.name.as_bytes());
            put_u64(&mut footer, s.records);
        }
        put_u64(&mut footer, self.index.len() as u64);
        for c in &self.index {
            put_u64(&mut footer, c.offset);
            put_u32(&mut footer, c.stream_id);
            put_u32(&mut footer, c.count);
            put_u32(&mut footer, c.payload_len);
        }
        put_u32(&mut footer, self.meta.len() as u32);
        footer.extend_from_slice(self.meta.as_bytes());

        self.w.write_all(&footer)?;
        let mut trailer = Vec::with_capacity(TRAILER_LEN as usize);
        put_u64(&mut trailer, footer.len() as u64);
        put_u32(&mut trailer, crc32(&footer));
        trailer.extend_from_slice(&TRAILER_MAGIC);
        self.w.write_all(&trailer)?;
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Summary returned by [`TraceReader::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Chunks decoded.
    pub chunks: u64,
    /// Records decoded.
    pub records: u64,
    /// Total compressed payload bytes (chunk headers excluded).
    pub payload_bytes: u64,
}

/// Seekable reader over a finished trace file.
///
/// Opening validates the header, trailer, and footer (every structural
/// byte); chunk payloads are validated lazily as they are read, or all at
/// once by [`verify`](TraceReader::verify).
#[derive(Debug)]
pub struct TraceReader<R: Read + Seek> {
    r: R,
    chunk_cap: u32,
    streams: Vec<StreamInfo>,
    index: Vec<ChunkEntry>,
    meta: String,
    data_end: u64,
}

impl TraceReader<BufReader<File>> {
    /// Opens and structurally validates the trace file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        TraceReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Wraps a seekable byte source and validates its structure.
    pub fn new(mut r: R) -> Result<Self, TraceFileError> {
        let file_len = r.seek(SeekFrom::End(0))?;
        let min_len = HEADER_LEN + TRAILER_LEN;
        if file_len < min_len {
            return Err(TraceFileError::NotATraceFile {
                detail: format!("{file_len} bytes is shorter than an empty container ({min_len})"),
            });
        }

        r.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; HEADER_LEN as usize];
        r.read_exact(&mut header)?;
        if header[..8] != MAGIC {
            return Err(TraceFileError::NotATraceFile {
                detail: "leading magic mismatch".into(),
            });
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(TraceFileError::UnsupportedVersion { found: version });
        }
        let chunk_cap = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));

        r.seek(SeekFrom::Start(file_len - TRAILER_LEN))?;
        let mut trailer = [0u8; TRAILER_LEN as usize];
        r.read_exact(&mut trailer)?;
        if trailer[12..20] != TRAILER_MAGIC {
            return Err(TraceFileError::BadFooter {
                detail: "trailer magic mismatch (truncated or overwritten file?)".into(),
            });
        }
        let footer_len = u64::from_le_bytes(trailer[0..8].try_into().expect("8 bytes"));
        let footer_crc = u32::from_le_bytes(trailer[8..12].try_into().expect("4 bytes"));
        if footer_len > file_len - min_len {
            return Err(TraceFileError::BadFooter {
                detail: format!("footer length {footer_len} exceeds the space before the trailer"),
            });
        }
        let footer_start = file_len - TRAILER_LEN - footer_len;
        r.seek(SeekFrom::Start(footer_start))?;
        let mut footer = vec![0u8; footer_len as usize];
        r.read_exact(&mut footer)?;
        let got = crc32(&footer);
        if got != footer_crc {
            return Err(TraceFileError::BadFooter {
                detail: format!(
                    "footer crc mismatch: stored {footer_crc:#010x}, computed {got:#010x}"
                ),
            });
        }

        let mut cur = FooterCursor {
            buf: &footer,
            pos: 0,
        };
        let header_crc = cur.u32("header crc")?;
        let got = crc32(&header);
        if got != header_crc {
            return Err(TraceFileError::BadFooter {
                detail: format!(
                    "header crc mismatch: footer stored {header_crc:#010x}, header hashes to {got:#010x}"
                ),
            });
        }
        if chunk_cap == 0 {
            return Err(TraceFileError::BadFooter {
                detail: "header declares a zero chunk capacity".into(),
            });
        }

        let n_streams = cur.u32("stream count")?;
        let mut streams = Vec::new();
        for i in 0..n_streams {
            let name_len = cur.u32("stream name length")? as usize;
            let name_bytes = cur.take(name_len, "stream name")?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| TraceFileError::BadFooter {
                    detail: format!("stream {i} name is not UTF-8"),
                })?
                .to_string();
            let records = cur.u64("stream record count")?;
            streams.push(StreamInfo { name, records });
        }

        let n_chunks = cur.u64("chunk count")?;
        // Each index entry is 20 bytes (u64 offset + three u32s); bound
        // n_chunks by the remaining footer bytes so a corrupt count cannot
        // trigger a huge allocation.
        if n_chunks > (footer.len() - cur.pos) as u64 / 20 {
            return Err(TraceFileError::BadFooter {
                detail: format!("chunk count {n_chunks} exceeds the footer's index area"),
            });
        }
        let mut index = Vec::with_capacity(n_chunks as usize);
        let mut expect_offset = HEADER_LEN;
        for i in 0..n_chunks {
            let offset = cur.u64("chunk offset")?;
            let stream_id = cur.u32("chunk stream id")?;
            let count = cur.u32("chunk record count")?;
            let payload_len = cur.u32("chunk payload length")?;
            if offset != expect_offset {
                return Err(TraceFileError::BadFooter {
                    detail: format!(
                        "chunk {i} offset {offset} does not abut the previous chunk (expected {expect_offset})"
                    ),
                });
            }
            if stream_id as usize >= streams.len() {
                return Err(TraceFileError::BadFooter {
                    detail: format!("chunk {i} references unknown stream {stream_id}"),
                });
            }
            if count == 0 || count > chunk_cap {
                return Err(TraceFileError::BadFooter {
                    detail: format!("chunk {i} record count {count} outside 1..={chunk_cap}"),
                });
            }
            expect_offset = offset + CHUNK_HEADER_LEN + payload_len as u64;
            index.push(ChunkEntry {
                offset,
                stream_id,
                count,
                payload_len,
            });
        }
        if expect_offset != footer_start {
            return Err(TraceFileError::BadFooter {
                detail: format!(
                    "chunk region ends at {expect_offset} but the footer starts at {footer_start}"
                ),
            });
        }
        // Stream record totals must equal the sum over the index, so a
        // flipped byte in either is caught here.
        for (sid, s) in streams.iter().enumerate() {
            let total: u64 = index
                .iter()
                .filter(|c| c.stream_id as usize == sid)
                .map(|c| u64::from(c.count))
                .sum();
            if total != s.records {
                return Err(TraceFileError::BadFooter {
                    detail: format!(
                        "stream `{}` declares {} records but its chunks hold {total}",
                        s.name, s.records
                    ),
                });
            }
        }

        let meta_len = cur.u32("meta length")? as usize;
        let meta_bytes = cur.take(meta_len, "meta")?;
        let meta = std::str::from_utf8(meta_bytes)
            .map_err(|_| TraceFileError::BadFooter {
                detail: "meta blob is not UTF-8".into(),
            })?
            .to_string();
        if cur.pos != footer.len() {
            return Err(TraceFileError::BadFooter {
                detail: format!(
                    "{} trailing bytes after the footer's meta blob",
                    footer.len() - cur.pos
                ),
            });
        }

        Ok(TraceReader {
            r,
            chunk_cap,
            streams,
            index,
            meta,
            data_end: footer_start,
        })
    }

    /// The streams recorded in the file, in stream-id order.
    pub fn streams(&self) -> &[StreamInfo] {
        &self.streams
    }

    /// The footer's chunk index.
    pub fn chunks(&self) -> &[ChunkEntry] {
        &self.index
    }

    /// The opaque metadata blob ("" when none was set).
    pub fn meta(&self) -> &str {
        &self.meta
    }

    /// The maximum records per chunk the header declares.
    pub fn chunk_cap(&self) -> u32 {
        self.chunk_cap
    }

    /// File offset one past the last chunk (= footer start).
    pub fn data_end(&self) -> u64 {
        self.data_end
    }

    /// Resolves a stream name to its id.
    pub fn stream_id(&self, name: &str) -> Option<u32> {
        self.streams
            .iter()
            .position(|s| s.name == name)
            .map(|i| i as u32)
    }

    /// Reads chunk `i`'s bytes (16-byte chunk header plus payload) in one
    /// read, checks the header against the footer index entry, and
    /// validates and decodes the chunk into `out` through the wire
    /// decoder's checks. Returns the raw bytes.
    fn read_validated(
        &mut self,
        i: usize,
        out: &mut Vec<DynInst>,
    ) -> Result<Vec<u8>, TraceFileError> {
        let entry = *self.index.get(i).ok_or(TraceFileError::Corrupt {
            chunk: i as u64,
            offset: 0,
            reason: "chunk index out of range".into(),
        })?;
        let corrupt = |reason: String| TraceFileError::Corrupt {
            chunk: i as u64,
            offset: entry.offset,
            reason,
        };
        self.r.seek(SeekFrom::Start(entry.offset))?;
        let mut raw = vec![0u8; RECORD_HEADER_LEN + entry.payload_len as usize];
        self.r.read_exact(&mut raw)?;
        let header = RecordHeader::parse(&raw).expect("raw chunks hold a header");
        let [stream_id, count] = header.tag;
        let payload_len = header.len;
        if stream_id != entry.stream_id || count != entry.count || payload_len != entry.payload_len
        {
            return Err(corrupt(format!(
                "chunk header (stream {stream_id}, count {count}, len {payload_len}) \
                 disagrees with the footer index (stream {}, count {}, len {})",
                entry.stream_id, entry.count, entry.payload_len
            )));
        }
        let crc = crc32(&raw[RECORD_HEADER_LEN..]);
        decode_wire_chunk_with_crc(&raw, crc, self.chunk_cap, out)
            .map_err(|e| corrupt(e.to_string()))?;
        Ok(raw)
    }

    /// Reads and fully validates chunk `i`, appending its records to `out`.
    ///
    /// Validation: the on-disk chunk header must match the footer index
    /// entry, the payload must match its CRC, and decoding must consume
    /// exactly the payload and yield exactly the declared record count.
    pub fn read_chunk_into(
        &mut self,
        i: usize,
        out: &mut Vec<DynInst>,
    ) -> Result<(), TraceFileError> {
        self.read_validated(i, out).map(drop)
    }

    /// Reads and fully validates chunk `i`.
    pub fn read_chunk(&mut self, i: usize) -> Result<Vec<DynInst>, TraceFileError> {
        let mut out = Vec::new();
        self.read_chunk_into(i, &mut out)?;
        Ok(out)
    }

    /// Reads chunk `i` verbatim — 16-byte chunk header plus compressed
    /// payload — after the same full validation as
    /// [`read_chunk_into`](Self::read_chunk_into), reading its bytes once.
    ///
    /// Because chunks are self-contained (the delta state resets at every
    /// chunk boundary), the returned bytes are a valid standalone wire
    /// chunk ([`decode_wire_chunk`]): a client can ship them to a serve
    /// session unmodified and the receiver re-validates the embedded CRC.
    pub fn read_chunk_raw(&mut self, i: usize) -> Result<Vec<u8>, TraceFileError> {
        self.read_validated(i, &mut Vec::new())
    }

    /// Decodes every chunk, validating the whole file end to end.
    pub fn verify(&mut self) -> Result<VerifyReport, TraceFileError> {
        let mut report = VerifyReport {
            chunks: 0,
            records: 0,
            payload_bytes: 0,
        };
        let mut scratch = Vec::new();
        for i in 0..self.index.len() {
            scratch.clear();
            self.read_chunk_into(i, &mut scratch)?;
            report.chunks += 1;
            report.records += scratch.len() as u64;
            report.payload_bytes += u64::from(self.index[i].payload_len);
        }
        Ok(report)
    }

    /// Iterates a stream's records in order, reading one chunk at a time
    /// (constant memory in the trace length).
    ///
    /// # Errors
    ///
    /// [`TraceFileError::UnknownStream`] when no stream has that name;
    /// per-chunk validation errors surface as iterator items.
    pub fn stream_records(
        &mut self,
        name: &str,
    ) -> Result<StreamRecords<&mut Self>, TraceFileError> {
        StreamRecords::new(self, name)
    }
}

/// Iterator over one stream's records (see [`TraceReader::stream_records`])
/// through a reader it borrows or, boxed, owns. It ends after the first
/// error.
#[derive(Debug)]
pub struct StreamRecords<T> {
    reader: T,
    chunks: std::vec::IntoIter<usize>,
    buf: std::vec::IntoIter<DynInst>,
}

impl<R: Read + Seek, T: DerefMut<Target = TraceReader<R>>> StreamRecords<T> {
    /// Iterates the stream `name` of `reader`.
    ///
    /// # Errors
    ///
    /// [`TraceFileError::UnknownStream`] when no stream has that name.
    pub fn new(reader: T, name: &str) -> Result<Self, TraceFileError> {
        let sid = reader
            .stream_id(name)
            .ok_or_else(|| TraceFileError::UnknownStream {
                name: name.to_string(),
            })?;
        let chunks: Vec<usize> = reader
            .index
            .iter()
            .enumerate()
            .filter(|(_, c)| c.stream_id == sid)
            .map(|(i, _)| i)
            .collect();
        Ok(StreamRecords {
            reader,
            chunks: chunks.into_iter(),
            buf: Vec::new().into_iter(),
        })
    }
}

impl<R: Read + Seek, T: DerefMut<Target = TraceReader<R>>> Iterator for StreamRecords<T> {
    type Item = Result<DynInst, TraceFileError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(inst) = self.buf.next() {
                return Some(Ok(inst));
            }
            match self.reader.read_chunk(self.chunks.next()?) {
                Ok(v) => self.buf = v.into_iter(),
                Err(e) => {
                    self.chunks = Vec::new().into_iter();
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use workloads::Benchmark;

    fn sample_trace(n: usize) -> Vec<DynInst> {
        Benchmark::Gcc.build(7).take(n).collect()
    }

    fn write_to_vec(streams: &[(&str, &[DynInst])], chunk_cap: u32, meta: &str) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new(), chunk_cap).unwrap();
        for (name, insts) in streams {
            w.begin_stream(name).unwrap();
            for inst in *insts {
                w.push(inst).unwrap();
            }
        }
        w.set_meta(meta);
        w.finish().unwrap()
    }

    #[test]
    fn round_trips_a_single_stream() {
        let insts = sample_trace(10_000);
        let bytes = write_to_vec(&[("gcc", &insts)], 512, "{\"k\":1}");
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.meta(), "{\"k\":1}");
        assert_eq!(r.streams().len(), 1);
        assert_eq!(r.streams()[0].records, 10_000);
        assert!(r.chunks().len() >= 10_000 / 512);
        let got: Vec<DynInst> = r
            .stream_records("gcc")
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(got, insts);
    }

    #[test]
    fn round_trips_interleaved_streams() {
        let a = sample_trace(700);
        let b: Vec<DynInst> = Benchmark::Mcf.build(9).take(900).collect();
        let mut w = TraceWriter::new(Vec::new(), 128).unwrap();
        // Interleave begin_stream calls to force per-stream chunk splits.
        w.begin_stream("gcc").unwrap();
        for inst in &a[..300] {
            w.push(inst).unwrap();
        }
        w.begin_stream("mcf").unwrap();
        for inst in &b[..500] {
            w.push(inst).unwrap();
        }
        w.begin_stream("gcc").unwrap();
        for inst in &a[300..] {
            w.push(inst).unwrap();
        }
        w.begin_stream("mcf").unwrap();
        for inst in &b[500..] {
            w.push(inst).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        let got_a: Vec<DynInst> = r
            .stream_records("gcc")
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        let got_b: Vec<DynInst> = r
            .stream_records("mcf")
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(got_a, a);
        assert_eq!(got_b, b);
    }

    #[test]
    fn container_bytes_are_pinned() {
        // Two streams of several chunks each plus a meta blob: every
        // writer field (header, chunk headers, payloads, stream table,
        // index, meta, trailer) lands in the digest. A writer change the
        // reader shares would still round-trip; it cannot keep these.
        let gcc: Vec<DynInst> = Benchmark::Gcc.build(11).take(300).collect();
        let mcf: Vec<DynInst> = Benchmark::Mcf.build(11).take(250).collect();
        let bytes = write_to_vec(&[("gcc", &gcc), ("mcf", &mcf)], 64, "{\"pin\":1}");
        let r = TraceReader::new(Cursor::new(bytes.clone())).unwrap();
        for sid in 0..2 {
            let n = r.chunks().iter().filter(|c| c.stream_id == sid).count();
            assert!(n >= 3, "stream {sid} has {n} chunks");
        }
        assert_eq!((bytes.len(), crc32(&bytes)), (4_425, 0x9A0C_6860));
    }

    #[test]
    fn empty_container_round_trips() {
        let bytes = write_to_vec(&[], 64, "");
        let r = TraceReader::new(Cursor::new(bytes)).unwrap();
        assert!(r.streams().is_empty());
        assert!(r.chunks().is_empty());
    }

    #[test]
    fn push_without_stream_is_an_error() {
        let mut w = TraceWriter::new(Vec::new(), 64).unwrap();
        let e = w.push(&DynInst::jump(0x400, 0x500)).unwrap_err();
        assert!(matches!(e, TraceFileError::NoActiveStream));
    }

    #[test]
    fn unknown_stream_is_an_error() {
        let insts = sample_trace(10);
        let bytes = write_to_vec(&[("gcc", &insts)], 64, "");
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        let e = r.stream_records("twolf").unwrap_err();
        assert!(matches!(e, TraceFileError::UnknownStream { .. }));
    }

    #[test]
    fn rejects_non_trace_files() {
        for bytes in [
            Vec::new(),
            b"hello world".to_vec(),
            vec![0u8; 100],
            b"gdtrace\x02".iter().copied().chain([0u8; 80]).collect(),
        ] {
            assert!(TraceReader::new(Cursor::new(bytes)).is_err());
        }
    }

    #[test]
    fn rejects_future_versions() {
        let insts = sample_trace(5);
        let mut bytes = write_to_vec(&[("gcc", &insts)], 64, "");
        bytes[8] = 0x2a; // version field
        let e = TraceReader::new(Cursor::new(bytes)).unwrap_err();
        assert!(matches!(
            e,
            TraceFileError::UnsupportedVersion { found: 0x2a }
        ));
    }

    #[test]
    fn rejects_truncated_files() {
        let insts = sample_trace(2_000);
        let bytes = write_to_vec(&[("gcc", &insts)], 256, "");
        for keep in [10, 24, 100, bytes.len() - 1] {
            let cut = bytes[..keep].to_vec();
            assert!(
                TraceReader::new(Cursor::new(cut)).is_err(),
                "truncation to {keep} bytes accepted"
            );
        }
    }

    #[test]
    fn verify_covers_the_whole_file() {
        let insts = sample_trace(3_000);
        let bytes = write_to_vec(&[("gcc", &insts)], 256, "");
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        let report = r.verify().unwrap();
        assert_eq!(report.records, 3_000);
        assert_eq!(report.chunks as usize, r.chunks().len());
    }

    #[test]
    fn payload_corruption_names_the_chunk() {
        let insts = sample_trace(2_000);
        let bytes = write_to_vec(&[("gcc", &insts)], 256, "");
        let r = TraceReader::new(Cursor::new(bytes.clone())).unwrap();
        // Pick a byte in the middle of chunk 3's payload.
        let entry = r.chunks()[3];
        let victim = (entry.offset + CHUNK_HEADER_LEN) as usize + entry.payload_len as usize / 2;
        let mut bad = bytes;
        bad[victim] ^= 0x01;
        let mut r = TraceReader::new(Cursor::new(bad)).unwrap();
        let e = r.verify().unwrap_err();
        match e {
            TraceFileError::Corrupt { chunk, offset, .. } => {
                assert_eq!(chunk, 3);
                assert_eq!(offset, entry.offset);
            }
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn read_chunk_raw_names_a_corrupt_chunk() {
        let insts = sample_trace(2_000);
        let bytes = write_to_vec(&[("gcc", &insts)], 256, "");
        let r = TraceReader::new(Cursor::new(bytes.clone())).unwrap();
        let entry = r.chunks()[2];
        let mut bad = bytes;
        bad[(entry.offset + CHUNK_HEADER_LEN) as usize + 5] ^= 0x04;
        let mut r = TraceReader::new(Cursor::new(bad)).unwrap();
        assert!(r.read_chunk_raw(1).is_ok(), "a clean neighbour still reads");
        match r.read_chunk_raw(2).unwrap_err() {
            TraceFileError::Corrupt {
                chunk,
                offset,
                reason,
            } => {
                assert_eq!((chunk, offset), (2, entry.offset));
                assert!(reason.contains("crc"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn wire_chunk_round_trips_standalone() {
        let insts = sample_trace(300);
        let bytes = encode_wire_chunk(&insts, 7);
        let mut out = Vec::new();
        let c = decode_wire_chunk(&bytes, 65_536, &mut out).unwrap();
        assert_eq!(c.stream_id, 7);
        assert_eq!(c.count, 300);
        assert_eq!(out, insts);
    }

    #[test]
    fn wire_chunk_rejects_corruption() {
        let insts = sample_trace(100);
        let good = encode_wire_chunk(&insts, 0);
        let mut out = Vec::new();

        // Flipped payload byte: CRC catches it.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        assert!(matches!(
            decode_wire_chunk(&bad, 65_536, &mut out).unwrap_err(),
            WireError::Crc { .. }
        ));

        // Truncated payload: length check catches it.
        assert!(matches!(
            decode_wire_chunk(&good[..good.len() - 3], 65_536, &mut out).unwrap_err(),
            WireError::Truncated { .. }
        ));

        // Count above the negotiated capacity.
        assert!(matches!(
            decode_wire_chunk(&good, 64, &mut out).unwrap_err(),
            WireError::CountOutOfRange {
                count: 100,
                cap: 64
            }
        ));
    }

    #[test]
    fn wire_chunk_crc_is_pinned() {
        // Computed with the bytewise CRC-32 loop the slicing kernel
        // replaced: chunks, files and frames written before the kernel
        // changed must keep verifying.
        let insts: Vec<DynInst> = Benchmark::ALL[0].build(1).take(4096).collect();
        let chunk = encode_wire_chunk(&insts, 0);
        assert_eq!(chunk.len(), 36_432);
        let stored = u32::from_le_bytes(chunk[12..16].try_into().unwrap());
        assert_eq!(stored, 0x9839_FDF6, "payload crc");
        assert_eq!(crc32(&chunk), 0x38D7_26A5, "whole-chunk crc");
    }

    #[test]
    fn container_chunks_are_valid_wire_chunks() {
        // A chunk copied verbatim out of a finished container decodes as a
        // standalone wire chunk — the serve client's pass-through path.
        let insts = sample_trace(1_000);
        let bytes = write_to_vec(&[("gcc", &insts)], 256, "");
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        let mut decoded = Vec::new();
        for i in 0..r.chunks().len() {
            let raw = r.read_chunk_raw(i).unwrap();
            decode_wire_chunk(&raw, r.chunk_cap(), &mut decoded).unwrap();
        }
        assert_eq!(decoded, insts);
    }
}
