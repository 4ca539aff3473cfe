//! The `gdiff-serve/v2` wire framing.
//!
//! Every message in either direction is one frame:
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ frame header (16 B): magic "gSv2" · type u8 · flags u8 ·   │
//! │                      reserved u16 · payload_len u32 ·      │
//! │                      crc32 u32                             │
//! ├────────────────────────────────────────────────────────────┤
//! │ payload (payload_len bytes)                                │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! A frame is one `tracefile::record` record, read under [`MAX_FRAME_LEN`].
//! Its CRC covers the first 12 header bytes (magic, type, flags, reserved
//! and length) and then the payload, so a flipped type byte is a CRC
//! error, not a valid frame of another type. Integers are little-endian;
//! `flags` and `reserved` must be zero.
//! Control payloads ([`HELLO`], [`WELCOME`], [`ACK`], …) are compact JSON
//! objects; the [`CHUNK`] payload is a `u64` little-endian sequence number
//! followed by one verbatim tracefile wire chunk (which carries its own
//! CRC on top of the frame CRC); the [`METRICS`] payload is Prometheus
//! exposition text.
//!
//! Each received byte is hashed once: [`read_frame`] computes the payload
//! CRC, checks the frame CRC against it (combining in the 12 header bytes'
//! CRC), and keeps it in [`Frame::crc`], and `wire_payload_crc` derives
//! the embedded wire chunk's payload CRC from it (hashing the 24 bytes in
//! front of that payload, not the payload again) for the daemon's exact
//! check against the chunk header.
//!
//! A reader hitting clean EOF *between* frames sees [`FrameError::Closed`]
//! — the one non-error way a conversation ends. EOF inside a frame, a bad
//! magic, an oversized length, or a CRC mismatch are malformed-frame
//! errors: the server answers with an [`ERROR`] frame and kills that
//! session, never the daemon.

use std::io::{self, Read, Write};

use tracefile::container::CHUNK_HEADER_LEN;
use tracefile::crc32::{crc32, crc32_combine};
use tracefile::record::{self, write_record, RecordError, RecordHeader, RECORD_HEADER_LEN};

/// Frame magic: "gSv2".
pub const FRAME_MAGIC: [u8; 4] = *b"gSv2";
/// Frame header length in bytes (a `tracefile::record` header).
pub const FRAME_HEADER_LEN: usize = RECORD_HEADER_LEN;
/// Upper bound on one frame's payload (a default-cap wire chunk is a few
/// hundred KiB; 16 MiB leaves generous headroom without letting a bad
/// length field allocate the moon).
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;
/// The most [`read_frame`] reserves before a payload's bytes arrive (the
/// record codec's bound); a longer payload grows the buffer as it is
/// read, so a header alone cannot make the reader allocate
/// [`MAX_FRAME_LEN`].
pub const MAX_FRAME_RESERVE: usize = record::MAX_RESERVE;

/// Client → server: open a session (JSON session parameters).
pub const HELLO: u8 = 0x01;
/// Client → server: one sequenced tracefile wire chunk.
pub const CHUNK: u8 = 0x02;
/// Client → server: ask for a live status frame.
pub const STATUS_REQ: u8 = 0x03;
/// Client → server: end of stream; a final [`REPORT`] follows.
pub const BYE: u8 = 0x04;
/// Client → server: drain every session and stop the daemon.
pub const SHUTDOWN: u8 = 0x05;
/// Client → server: open a held session's processing gate.
pub const RESUME: u8 = 0x06;
/// Client → server: ask for the Prometheus exposition.
pub const METRICS_REQ: u8 = 0x07;
/// Client → server: ask for per-session health (JSON). Negotiated: only
/// clients that saw `"health"` in the WELCOME `features` array send it.
pub const HEALTH_REQ: u8 = 0x08;

/// Server → client: session accepted (JSON: negotiated limits).
pub const WELCOME: u8 = 0x81;
/// Server → client: cumulative progress after a processed chunk.
pub const ACK: u8 = 0x82;
/// Server → client: live status (JSON, `gdiff-serve-status/v1`).
pub const STATUS: u8 = 0x83;
/// Server → client: final session report (JSON, `gdiff-serve-report/v1`).
pub const REPORT: u8 = 0x84;
/// Server → client: backpressure — chunk refused, resend from `accepted`.
pub const BUSY: u8 = 0x85;
/// Server → client: fatal session error (JSON: code, detail).
pub const ERROR: u8 = 0x86;
/// Server → client: Prometheus exposition text.
pub const METRICS: u8 = 0x87;
/// Server → client: health report (JSON, `gdiff-serve-health/v1`).
pub const HEALTH: u8 = 0x88;

/// A human-readable name for a frame type (diagnostics).
pub fn type_name(t: u8) -> &'static str {
    match t {
        HELLO => "hello",
        CHUNK => "chunk",
        STATUS_REQ => "status-req",
        BYE => "bye",
        SHUTDOWN => "shutdown",
        RESUME => "resume",
        METRICS_REQ => "metrics-req",
        HEALTH_REQ => "health-req",
        WELCOME => "welcome",
        ACK => "ack",
        STATUS => "status",
        REPORT => "report",
        BUSY => "busy",
        ERROR => "error",
        METRICS => "metrics",
        HEALTH => "health",
        _ => "unknown",
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame type byte (one of the constants above).
    pub ftype: u8,
    /// The raw payload.
    pub payload: Vec<u8>,
    /// The payload's CRC-32, verified through the header's frame CRC.
    pub crc: u32,
}

/// Why reading or validating a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF at a frame boundary — the peer hung up politely.
    Closed,
    /// EOF inside a frame header or payload.
    Truncated {
        /// What was being read when the stream ended.
        what: &'static str,
    },
    /// The four magic bytes are wrong (desynchronized or not our protocol).
    BadMagic([u8; 4]),
    /// Non-zero flags/reserved bits this version does not define.
    BadReserved,
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// The frame CRC does not match.
    Crc {
        /// CRC stored in the frame header.
        stored: u32,
        /// CRC computed over the header's first 12 bytes and the payload.
        computed: u32,
    },
    /// The payload should have been JSON / UTF-8 and was not.
    BadPayload(String),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { what } => write!(f, "stream ended inside a frame {what}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadReserved => write!(f, "non-zero flags/reserved bits"),
            FrameError::TooLarge(n) => {
                write!(f, "frame payload {n} bytes exceeds the {MAX_FRAME_LEN} cap")
            }
            FrameError::Crc { stored, computed } => write!(
                f,
                "frame crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            FrameError::BadPayload(m) => write!(f, "bad frame payload: {m}"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The record header of a frame carrying `payload`: the magic word, then
/// the type byte with flags and reserved bytes zero, and the CRC of both
/// with the length and the payload.
fn frame_header(ftype: u8, payload: &[u8]) -> RecordHeader {
    assert!(
        payload.len() as u64 <= MAX_FRAME_LEN as u64,
        "frame too big"
    );
    let mut header = RecordHeader::new([u32::from_le_bytes(FRAME_MAGIC), ftype.into()], payload);
    header.crc = header.covered_crc(header.crc);
    header
}

/// Encodes one frame into a byte vector.
pub fn encode_frame(ftype: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&frame_header(ftype, payload).to_bytes());
    out.extend_from_slice(payload);
    out
}

/// Writes one frame (header + payload + flush) as one vectored write,
/// without copying the payload.
pub fn write_frame(w: &mut impl Write, ftype: u8, payload: &[u8]) -> Result<(), FrameError> {
    write_record(w, &frame_header(ftype, payload), payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, validating magic, reserved bits, length, and the CRC
/// over header and payload.
///
/// The magic and reserved bits are checked before any payload byte is
/// read. At most [`MAX_FRAME_RESERVE`] bytes are reserved before the
/// payload arrives; the buffer is filled without being zeroed first.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let header = record::read_header(r)
        .map_err(|e| frame_error(e, "header"))?
        .ok_or(FrameError::Closed)?;
    let [magic, kind] = header.tag;
    if magic.to_le_bytes() != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic.to_le_bytes()));
    }
    if kind > 0xff {
        return Err(FrameError::BadReserved);
    }
    let mut payload = Vec::new();
    let crc = record::read_body(r, &header, MAX_FRAME_LEN, &mut payload)
        .map_err(|e| frame_error(e, "payload"))?;
    let computed = header.covered_crc(crc);
    if computed != header.crc {
        return Err(FrameError::Crc {
            stored: header.crc,
            computed,
        });
    }
    Ok(Frame {
        ftype: kind as u8,
        payload,
        crc,
    })
}

/// The frame error for a record read that failed inside `what`.
fn frame_error(e: RecordError, what: &'static str) -> FrameError {
    match e {
        RecordError::Torn => FrameError::Truncated { what },
        RecordError::TooLong(len) => FrameError::TooLarge(len),
        RecordError::Io(e) => FrameError::Io(e),
    }
}

/// Parses a frame payload as a JSON object.
pub fn json_payload(frame: &Frame) -> Result<obs::JsonValue, FrameError> {
    let text = std::str::from_utf8(&frame.payload)
        .map_err(|e| FrameError::BadPayload(format!("not utf-8: {e}")))?;
    obs::JsonValue::parse(text).map_err(|e| FrameError::BadPayload(e.to_string()))
}

/// Writes a JSON control frame.
pub fn write_json(w: &mut impl Write, ftype: u8, value: &obs::JsonValue) -> Result<(), FrameError> {
    write_frame(w, ftype, value.to_json().as_bytes())
}

/// Builds a [`CHUNK`] payload: sequence number + verbatim wire chunk.
pub fn chunk_payload(seq: u64, wire_chunk: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + wire_chunk.len());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(wire_chunk);
    out
}

/// Splits a [`CHUNK`] payload into its sequence number and wire chunk.
pub fn split_chunk_payload(payload: &[u8]) -> Result<(u64, &[u8]), FrameError> {
    if payload.len() < 8 {
        return Err(FrameError::BadPayload(format!(
            "chunk payload {} bytes is shorter than its sequence number",
            payload.len()
        )));
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    Ok((seq, &payload[8..]))
}

/// Bytes of a [`CHUNK`] payload in front of the embedded wire chunk's
/// own payload: the sequence number and the chunk header.
const CHUNK_PREFIX_LEN: usize = 8 + CHUNK_HEADER_LEN as usize;

/// The CRC-32 of the wire-chunk payload inside a [`CHUNK`] frame (what
/// that chunk's header CRC must equal), derived from the payload CRC
/// [`read_frame`] verified: `frame.crc` split past the first 24 bytes,
/// the only ones hashed here. Exact for any payload length; a payload too
/// short to hold a chunk header yields the CRC of its empty remainder.
pub(crate) fn wire_payload_crc(frame: &Frame) -> u32 {
    let head = frame.payload.len().min(CHUNK_PREFIX_LEN);
    let tail = (frame.payload.len() - head) as u64;
    crc32_combine(crc32(&frame.payload[..head]), frame.crc, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let payload = b"{\"schema\":\"gdiff-serve/v2\"}";
        let bytes = encode_frame(HELLO, payload);
        let mut cur = &bytes[..];
        let f = read_frame(&mut cur).unwrap();
        assert_eq!(f.ftype, HELLO);
        assert_eq!(f.payload, payload);
        // Clean EOF after the frame is Closed, not an error with a face.
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Closed)));
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let bytes = encode_frame(ACK, b"hello");
        // Payload flip → CRC.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(FrameError::Crc { .. })
        ));
        // Magic flip.
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(FrameError::BadMagic(_))
        ));
        // Truncation inside the payload.
        assert!(matches!(
            read_frame(&mut &bytes[..bytes.len() - 2]),
            Err(FrameError::Truncated { what: "payload" })
        ));
        // Oversized declared length.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(FrameError::TooLarge(_))
        ));
    }

    /// A writer taking at most 5 bytes per call, one slice at a time.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(5);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_emit_the_encoded_frame() {
        let payload: Vec<u8> = (0..=255).collect();
        let mut w = Trickle(Vec::new());
        write_frame(&mut w, CHUNK, &payload).unwrap();
        assert_eq!(w.0, encode_frame(CHUNK, &payload));
        let mut v = Vec::new();
        write_frame(&mut v, BYE, &[]).unwrap();
        assert_eq!(v, encode_frame(BYE, &[]));
    }

    #[test]
    fn payloads_longer_than_the_reserve_read_whole() {
        let payload: Vec<u8> = (0..MAX_FRAME_RESERVE + 70_001).map(|i| i as u8).collect();
        let bytes = encode_frame(CHUNK, &payload);
        let f = read_frame(&mut &bytes[..]).unwrap();
        assert_eq!(f.payload, payload);
        assert_eq!(f.crc, crc32(&payload));
        assert!(matches!(
            read_frame(&mut &bytes[..bytes.len() - 1]),
            Err(FrameError::Truncated { what: "payload" })
        ));
    }

    #[test]
    fn derived_wire_crc_equals_a_direct_hash() {
        let wire: Vec<u8> = (0..40_000u32).map(|i| (i * 7 + i / 251) as u8).collect();
        for len in [0, 1, 7, 8, 23, 24, 25, 40_000] {
            let bytes = encode_frame(CHUNK, &chunk_payload(9, &wire[..len]));
            let f = read_frame(&mut &bytes[..]).unwrap();
            let direct = crc32(f.payload.get(CHUNK_PREFIX_LEN..).unwrap_or_default());
            assert_eq!(wire_payload_crc(&f), direct, "wire chunk of {len} bytes");
        }
    }

    /// A HELLO, a CHUNK carrying a 64-record gcc wire chunk, and an
    /// empty BYE, back to back.
    fn pinned_stream() -> Vec<u8> {
        let insts: Vec<workloads::DynInst> = workloads::Benchmark::Gcc.build(5).take(64).collect();
        let wire = tracefile::encode_wire_chunk(&insts, 0);
        let mut bytes = encode_frame(HELLO, b"{\"schema\":\"gdiff-serve/v2\",\"name\":\"pin\"}");
        bytes.extend(encode_frame(CHUNK, &chunk_payload(3, &wire)));
        bytes.extend(encode_frame(BYE, &[]));
        bytes
    }

    #[test]
    fn frame_bytes_are_pinned() {
        let bytes = pinned_stream();
        assert_eq!((bytes.len(), crc32(&bytes)), (600, 0xE33A_A30B));
    }

    /// Reads frames until one fails; a clean stream ends in `Closed`.
    fn read_all(mut bytes: &[u8]) -> (Vec<Frame>, FrameError) {
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut bytes) {
                Ok(f) => frames.push(f),
                Err(e) => return (frames, e),
            }
        }
    }

    #[test]
    fn every_prefix_and_bit_flip_of_a_frame_stream_is_an_error() {
        let bytes = pinned_stream();
        let (frames, end) = read_all(&bytes);
        assert!(matches!(end, FrameError::Closed) && frames.len() == 3);
        let mut starts = vec![0];
        for f in &frames {
            starts.push(starts.last().unwrap() + FRAME_HEADER_LEN + f.payload.len());
        }
        for cut in 0..bytes.len() {
            let (got, end) = read_all(&bytes[..cut]);
            assert_eq!(got[..], frames[..got.len()], "cut at {cut}");
            let boundary = starts.contains(&cut);
            assert_eq!(
                matches!(end, FrameError::Closed),
                boundary,
                "cut at {cut}: {end}"
            );
            assert!(boundary || matches!(end, FrameError::Truncated { .. }));
        }
        for bit in 0..bytes.len() * 8 {
            let pos = bit / 8;
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << (bit % 8);
            let (got, end) = read_all(&bad);
            let hit = starts.iter().rposition(|&s| s <= pos).unwrap();
            // Header bytes (the type byte included) and payload bytes
            // alike: the damaged frame is an error, never a frame.
            assert_eq!(got[..], frames[..hit], "bit {bit} leaked a damaged frame");
            assert!(!matches!(end, FrameError::Closed), "bit {bit}: {end}");
        }
    }

    #[test]
    fn chunk_payload_round_trips() {
        let p = chunk_payload(42, b"chunkbytes");
        let (seq, rest) = split_chunk_payload(&p).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(rest, b"chunkbytes");
        assert!(split_chunk_payload(&p[..4]).is_err());
    }
}
