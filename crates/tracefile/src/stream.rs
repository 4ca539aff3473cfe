//! Footerless streaming mode: incremental chunk encode/decode over
//! non-seekable byte streams.
//!
//! The container format in [`container`](crate::container) assumes a
//! finished file: the reader trusts the footer index, which only exists
//! after `finish`. A live producer — a tracer piping instructions into a
//! prediction daemon, a socket session — has no footer to offer. This
//! module defines the **footerless stream** profile of the same format:
//!
//! ```text
//! ┌───────────────────────────────────────────────────────────────┐
//! │ header (24 B): identical to the container header              │
//! ├───────────────────────────────────────────────────────────────┤
//! │ chunk 0: the standard 16 B chunk header + payload             │
//! ├───────────────────────────────────────────────────────────────┤
//! │ chunk 1 … chunk N-1                                           │
//! ├───────────────────────────────────────────────────────────────┤
//! │ end marker (16 B): stream_id 0xFFFF_FFFF · count 0 ·          │
//! │                    payload_len 0 · crc 0                      │
//! └───────────────────────────────────────────────────────────────┘
//! ```
//!
//! Everything between header and end marker is ordinary chunks — byte
//! identical to the chunks a [`TraceWriter`](crate::TraceWriter) emits, so
//! a chunk copied verbatim out of a finished container is a valid stream
//! chunk (this is what makes chunks the wire format of the serve daemon).
//! Because the delta state resets at every chunk boundary and each chunk
//! carries its own record count, payload length, and CRC, a reader can
//! validate and decode each chunk as it arrives with no lookahead and no
//! seeking.
//!
//! The end marker is mandatory: it is what distinguishes a complete stream
//! from one whose producer died mid-sentence. A reader hitting EOF before
//! the marker — whether mid-chunk or at a chunk boundary — reports
//! [`TraceFileError::Corrupt`] with a "truncated stream" reason. The
//! marker reuses the chunk header shape with the reserved stream id
//! `0xFFFF_FFFF` (a real chunk never carries it: the container format
//! bounds stream ids by the footer's stream table, and this module's
//! writer never emits it) and a zero record count, which a real chunk
//! header also never carries (the container requires `1..=chunk_cap`).

use std::io::{self, Read, Write};

use workloads::DynInst;

use crate::codec::{decode_payload, encode_inst, DeltaState, MAX_RECORD_LEN};
use crate::container::{TraceFileError, CHUNK_HEADER_LEN, HEADER_LEN, MAGIC, VERSION};
use crate::crc32::crc32;

/// The reserved stream id that marks the end of a footerless stream.
pub const END_STREAM_ID: u32 = u32::MAX;

/// The 16-byte end-of-stream marker (a chunk header that can never occur
/// in real data: reserved stream id, zero count, zero payload).
pub const END_MARKER: [u8; 16] = [
    0xFF, 0xFF, 0xFF, 0xFF, // stream_id = END_STREAM_ID
    0x00, 0x00, 0x00, 0x00, // count = 0
    0x00, 0x00, 0x00, 0x00, // payload_len = 0
    0x00, 0x00, 0x00, 0x00, // crc = 0
];

/// The decoded header of one self-contained wire chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireChunk {
    /// The stream id the producer stamped (opaque in stream mode).
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
/// On an empty `insts` slice: a zero-count chunk is indistinguishable
/// from the end marker by design.
pub fn encode_wire_chunk(insts: &[DynInst], stream_id: u32) -> Vec<u8> {
    assert!(!insts.is_empty(), "a wire chunk must carry records");
    assert_ne!(stream_id, END_STREAM_ID, "stream id is reserved");
    let mut payload = Vec::new();
    let mut state = DeltaState::new();
    for inst in insts {
        encode_inst(&mut payload, &mut state, inst);
    }
    let mut out = Vec::with_capacity(CHUNK_HEADER_LEN as usize + payload.len());
    out.extend_from_slice(&stream_id.to_le_bytes());
    out.extend_from_slice(&(insts.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validates and decodes one self-contained wire chunk (header + payload,
/// as produced by [`encode_wire_chunk`] or copied verbatim out of a
/// container), appending its records to `out`.
///
/// `chunk_cap` bounds the record count (use
/// [`DEFAULT_CHUNK_CAP`](crate::DEFAULT_CHUNK_CAP) unless the producer
/// negotiated another). Validation mirrors the container reader: count in
/// range, payload length exact, CRC match, decode consuming exactly the
/// payload and yielding exactly the declared count.
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
pub fn decode_wire_chunk_with_crc(
    bytes: &[u8],
    payload_crc: u32,
    chunk_cap: u32,
    out: &mut Vec<DynInst>,
) -> Result<WireChunk, WireError> {
    let hdr_len = CHUNK_HEADER_LEN as usize;
    if bytes.len() < hdr_len {
        return Err(WireError::Truncated {
            need: hdr_len,
            have: bytes.len(),
        });
    }
    let stream_id = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    let count = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let payload_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let stored_crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if count == 0 || count > chunk_cap {
        return Err(WireError::CountOutOfRange {
            count,
            cap: chunk_cap,
        });
    }
    let need = hdr_len + payload_len as usize;
    if bytes.len() != need {
        return Err(WireError::Truncated {
            need,
            have: bytes.len(),
        });
    }
    let payload = &bytes[hdr_len..];
    if payload_crc != stored_crc {
        return Err(WireError::Crc {
            stored: stored_crc,
            computed: payload_crc,
        });
    }
    decode_payload(payload, count, out).map_err(|e| WireError::Payload(e.to_string()))?;
    Ok(WireChunk {
        stream_id,
        count,
        payload_len,
    })
}

/// Streaming writer for the footerless profile: container header, chunks,
/// end marker. Constant memory, never seeks.
#[derive(Debug)]
pub struct StreamWriter<W: Write> {
    w: W,
    chunk_cap: u32,
    stream_id: u32,
    buf: Vec<u8>,
    count: u32,
    state: DeltaState,
    chunks: u64,
    records: u64,
}

impl<W: Write> StreamWriter<W> {
    /// Wraps `w`, writing the container header immediately. All chunks are
    /// stamped with `stream_id` (opaque to readers in stream mode).
    pub fn new(mut w: W, chunk_cap: u32, stream_id: u32) -> Result<Self, TraceFileError> {
        assert_ne!(stream_id, END_STREAM_ID, "stream id is reserved");
        let chunk_cap = chunk_cap.max(1);
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&chunk_cap.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes()); // reserved
        w.write_all(&header)?;
        Ok(StreamWriter {
            w,
            chunk_cap,
            stream_id,
            buf: Vec::new(),
            count: 0,
            state: DeltaState::new(),
            chunks: 0,
            records: 0,
        })
    }

    /// Appends one instruction, flushing a full chunk to the stream.
    pub fn push(&mut self, inst: &DynInst) -> Result<(), TraceFileError> {
        encode_inst(&mut self.buf, &mut self.state, inst);
        self.count += 1;
        self.records += 1;
        if self.count >= self.chunk_cap {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Flushes the pending partial chunk (if any) so everything pushed so
    /// far is on the wire.
    pub fn flush_chunk(&mut self) -> Result<(), TraceFileError> {
        if self.count == 0 {
            return Ok(());
        }
        let mut hdr = [0u8; CHUNK_HEADER_LEN as usize];
        hdr[0..4].copy_from_slice(&self.stream_id.to_le_bytes());
        hdr[4..8].copy_from_slice(&self.count.to_le_bytes());
        hdr[8..12].copy_from_slice(&(self.buf.len() as u32).to_le_bytes());
        hdr[12..16].copy_from_slice(&crc32(&self.buf).to_le_bytes());
        self.w.write_all(&hdr)?;
        self.w.write_all(&self.buf)?;
        self.buf.clear();
        self.count = 0;
        self.state = DeltaState::new();
        self.chunks += 1;
        Ok(())
    }

    /// Chunks flushed so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Records pushed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flushes the last chunk, writes the end marker, and returns the
    /// inner writer (flushed).
    pub fn finish(mut self) -> Result<W, TraceFileError> {
        self.flush_chunk()?;
        self.w.write_all(&END_MARKER)?;
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Incremental reader for the footerless profile: validates the container
/// header up front, then decodes one chunk per call with no seeking and no
/// lookahead. EOF before the end marker is corruption, never silence.
#[derive(Debug)]
pub struct StreamReader<R: Read> {
    r: R,
    chunk_cap: u32,
    pos: u64,
    chunks: u64,
    records: u64,
    done: bool,
}

impl<R: Read> StreamReader<R> {
    /// Wraps `r` and validates the stream header (magic, version).
    pub fn new(mut r: R) -> Result<Self, TraceFileError> {
        let mut header = [0u8; HEADER_LEN as usize];
        r.read_exact(&mut header).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                TraceFileError::NotATraceFile {
                    detail: "stream shorter than a container header".into(),
                }
            } else {
                TraceFileError::Io(e)
            }
        })?;
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
        if chunk_cap == 0 {
            return Err(TraceFileError::NotATraceFile {
                detail: "header declares a zero chunk capacity".into(),
            });
        }
        Ok(StreamReader {
            r,
            chunk_cap,
            pos: HEADER_LEN,
            chunks: 0,
            records: 0,
            done: false,
        })
    }

    /// The chunk capacity the stream header declares.
    pub fn chunk_cap(&self) -> u32 {
        self.chunk_cap
    }

    /// Chunks decoded so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Records decoded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Whether the end marker has been consumed.
    pub fn finished(&self) -> bool {
        self.done
    }

    fn corrupt(&self, reason: String) -> TraceFileError {
        TraceFileError::Corrupt {
            chunk: self.chunks,
            offset: self.pos,
            reason,
        }
    }

    /// Reads, validates, and decodes the next chunk, appending its records
    /// to `out`. Returns `Ok(None)` once the end marker is consumed (and
    /// on every call after); truncation anywhere — mid-header, mid-payload,
    /// or EOF where a header or marker was due — is
    /// [`TraceFileError::Corrupt`].
    pub fn next_chunk_into(
        &mut self,
        out: &mut Vec<DynInst>,
    ) -> Result<Option<WireChunk>, TraceFileError> {
        if self.done {
            return Ok(None);
        }
        let mut hdr = [0u8; CHUNK_HEADER_LEN as usize];
        read_fully(&mut self.r, &mut hdr).map_err(|short| match short {
            ShortRead::Eof { got: 0 } => {
                self.corrupt("truncated stream: ended without the end marker".into())
            }
            ShortRead::Eof { got } => self.corrupt(format!(
                "truncated stream: {got} of {CHUNK_HEADER_LEN} chunk header bytes"
            )),
            ShortRead::Io(e) => TraceFileError::Io(e),
        })?;
        if hdr == END_MARKER {
            self.done = true;
            self.pos += CHUNK_HEADER_LEN;
            return Ok(None);
        }
        let stream_id = u32::from_le_bytes(hdr[0..4].try_into().expect("4 bytes"));
        let count = u32::from_le_bytes(hdr[4..8].try_into().expect("4 bytes"));
        let payload_len = u32::from_le_bytes(hdr[8..12].try_into().expect("4 bytes"));
        let stored_crc = u32::from_le_bytes(hdr[12..16].try_into().expect("4 bytes"));
        if stream_id == END_STREAM_ID || count == 0 || count > self.chunk_cap {
            return Err(self.corrupt(format!(
                "chunk header (stream {stream_id}, count {count}) is neither a \
                 valid chunk nor the end marker"
            )));
        }
        // The length is an unchecked wire value: bound it by what `count`
        // records can encode before it sizes an allocation.
        let max_len = u64::from(count) * MAX_RECORD_LEN as u64;
        if u64::from(payload_len) > max_len {
            return Err(self.corrupt(format!(
                "chunk payload length {payload_len} exceeds {max_len}, the most \
                 {count} records can encode"
            )));
        }
        let mut payload = vec![0u8; payload_len as usize];
        read_fully(&mut self.r, &mut payload).map_err(|short| match short {
            ShortRead::Eof { got } => self.corrupt(format!(
                "truncated stream: {got} of {payload_len} payload bytes"
            )),
            ShortRead::Io(e) => TraceFileError::Io(e),
        })?;
        let computed = crc32(&payload);
        if computed != stored_crc {
            return Err(self.corrupt(format!(
                "payload crc mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"
            )));
        }
        decode_payload(&payload, count, out).map_err(|e| self.corrupt(e.to_string()))?;
        self.pos += CHUNK_HEADER_LEN + payload_len as u64;
        self.chunks += 1;
        self.records += u64::from(count);
        Ok(Some(WireChunk {
            stream_id,
            count,
            payload_len,
        }))
    }
}

enum ShortRead {
    Eof { got: usize },
    Io(io::Error),
}

/// `read_exact`, but reporting how many bytes arrived before EOF so the
/// caller can say precisely where the stream was cut.
fn read_fully<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), ShortRead> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(ShortRead::Eof { got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ShortRead::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Benchmark;

    fn sample(n: usize) -> Vec<DynInst> {
        Benchmark::Gcc.build(3).take(n).collect()
    }

    fn stream_bytes(insts: &[DynInst], cap: u32) -> Vec<u8> {
        let mut w = StreamWriter::new(Vec::new(), cap, 0).unwrap();
        for inst in insts {
            w.push(inst).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn footerless_stream_round_trips() {
        let insts = sample(5_000);
        let bytes = stream_bytes(&insts, 512);
        let mut r = StreamReader::new(&bytes[..]).unwrap();
        let mut got = Vec::new();
        let mut chunks = 0;
        while let Some(c) = r.next_chunk_into(&mut got).unwrap() {
            assert!(c.count >= 1 && c.count <= 512);
            chunks += 1;
        }
        assert_eq!(got, insts);
        assert_eq!(chunks, 5_000usize.div_ceil(512));
        assert!(r.finished());
        // Idempotent after the marker.
        assert!(r.next_chunk_into(&mut got).unwrap().is_none());
    }

    #[test]
    fn wire_chunk_round_trips_standalone() {
        let insts = sample(300);
        let bytes = encode_wire_chunk(&insts, 7);
        let mut out = Vec::new();
        let c = decode_wire_chunk(&bytes, 65_536, &mut out).unwrap();
        assert_eq!(c.stream_id, 7);
        assert_eq!(c.count, 300);
        assert_eq!(out, insts);
    }

    #[test]
    fn wire_chunk_rejects_corruption() {
        let insts = sample(100);
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
    fn truncated_stream_is_corrupt_not_silent() {
        let insts = sample(2_000);
        let bytes = stream_bytes(&insts, 256);
        // Cut mid-payload, mid-header, and exactly at a chunk boundary
        // (dropping the end marker): all must surface as Corrupt.
        for cut in [
            bytes.len() - END_MARKER.len() - 5, // mid final payload
            HEADER_LEN as usize + 7,            // mid first chunk header
            bytes.len() - END_MARKER.len(),     // marker missing entirely
        ] {
            let mut r = StreamReader::new(&bytes[..cut]).unwrap();
            let mut out = Vec::new();
            let err = loop {
                match r.next_chunk_into(&mut out) {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("cut at {cut} decoded cleanly"),
                    Err(e) => break e,
                }
            };
            match err {
                TraceFileError::Corrupt { reason, .. } => {
                    assert!(reason.contains("truncated"), "cut {cut}: {reason}")
                }
                other => panic!("cut {cut}: expected Corrupt, got {other}"),
            }
        }
    }

    #[test]
    fn corrupt_mid_stream_chunk_names_its_index() {
        let insts = sample(2_000);
        let mut bytes = stream_bytes(&insts, 256);
        // Flip a byte inside the third chunk's payload region. Chunk
        // payload sizes vary; walk the headers to find chunk 2's payload.
        let mut off = HEADER_LEN as usize;
        for _ in 0..2 {
            let len = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().unwrap()) as usize;
            off += CHUNK_HEADER_LEN as usize + len;
        }
        bytes[off + CHUNK_HEADER_LEN as usize + 4] ^= 0x01;
        let mut r = StreamReader::new(&bytes[..]).unwrap();
        let mut out = Vec::new();
        let err = loop {
            match r.next_chunk_into(&mut out) {
                Ok(Some(_)) => {}
                Ok(None) => panic!("corruption decoded cleanly"),
                Err(e) => break e,
            }
        };
        match err {
            TraceFileError::Corrupt { chunk, .. } => assert_eq!(chunk, 2),
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn forged_payload_length_fails_before_allocating() {
        let mut bytes = stream_bytes(&[], 4096);
        bytes.truncate(HEADER_LEN as usize); // drop the end marker
        bytes.extend_from_slice(&0u32.to_le_bytes()); // stream id
        bytes.extend_from_slice(&1u32.to_le_bytes()); // count
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // payload_len
        bytes.extend_from_slice(&0u32.to_le_bytes()); // crc
        let mut r = StreamReader::new(&bytes[..]).unwrap();
        match r.next_chunk_into(&mut Vec::new()).unwrap_err() {
            TraceFileError::Corrupt {
                chunk,
                offset,
                reason,
            } => {
                assert_eq!((chunk, offset), (0, HEADER_LEN));
                assert!(
                    reason.contains(&format!("{} exceeds", u32::MAX)),
                    "{reason}"
                );
            }
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn max_record_len_bounds_the_worst_record() {
        // Every optional field present, every varint at its 10-byte
        // maximum: the encoding is exactly MAX_RECORD_LEN bytes.
        let far = 1u64 << 63; // a delta of i64::MIN zigzags to u64::MAX
        let worst = DynInst {
            pc: far,
            op: workloads::OpClass::Branch,
            dst: Some(1),
            srcs: [Some(2), Some(3)],
            value: far,
            mem_addr: Some(far),
            taken: true,
            target: far,
        };
        let mut buf = Vec::new();
        encode_inst(&mut buf, &mut DeltaState::new(), &worst);
        assert_eq!(buf.len(), MAX_RECORD_LEN);
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
        // standalone wire chunk — the serve daemon's pass-through path.
        let insts = sample(1_000);
        let mut w = crate::TraceWriter::new(Vec::new(), 256).unwrap();
        w.begin_stream("gcc").unwrap();
        for inst in &insts {
            w.push(inst).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut r = crate::TraceReader::new(std::io::Cursor::new(bytes)).unwrap();
        let mut decoded = Vec::new();
        for i in 0..r.chunks().len() {
            let raw = r.read_chunk_raw(i).unwrap();
            decode_wire_chunk(&raw, r.chunk_cap(), &mut decoded).unwrap();
        }
        assert_eq!(decoded, insts);
    }
}
