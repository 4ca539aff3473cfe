//! The sweep checkpoint container (`gdiff-sweep-ckpt/v1`).
//!
//! A sweep appends one framed record per completed grid cell, so an
//! interrupted sweep can resume by skipping every cell whose record
//! survives on disk. The container follows the tracefile house style:
//! a magic-tagged header, self-validating CRC-framed records, and a read
//! path that turns any corruption into a positioned error — never a panic
//! and never silently misdecoded data.
//!
//! # Layout
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (24 B): magic "gdswpck\x01" · version u32 ·           │
//! │                grid_hash u32 · reserved u64                  │
//! ├──────────────────────────────────────────────────────────────┤
//! │ record 0: cell u32 · worker u32 · payload_len u32 ·          │
//! │           crc32 u32 · payload bytes                          │
//! ├──────────────────────────────────────────────────────────────┤
//! │ record 1 … record N-1 (append-only, flushed per record)      │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian. Each record is one
//! [`record`](crate::record), read under the [`CKPT_MAX_PAYLOAD`] bound.
//! Its CRC covers the `cell`, `worker`, and `payload_len` fields *and* the
//! payload, so a single flipped bit anywhere in a record is detected.
//! `grid_hash` binds a segment to the grid it was computed for: resuming
//! against a different grid is refused at open time instead of silently
//! mixing cell spaces.
//!
//! # Damage policy
//!
//! Workers are killed mid-write by design (SIGTERM mid-sweep is a
//! supported operation), so the reader distinguishes two kinds of damage:
//!
//! * a **torn tail** — the file simply ends inside the last record; every
//!   record before it is intact and returned. This is the normal shape of
//!   a killed worker's segment and costs exactly the in-flight cell.
//! * **corruption** — a record frame is present but fails its CRC (or
//!   declares an impossible length). The scan stops there: the framing
//!   after a corrupt record cannot be trusted, so later records in that
//!   segment are dropped and their cells recomputed on resume.
//!
//! Both are reported as data ([`CkptDamage`]) alongside the intact
//! records, not as an `Err`: a damaged segment is a degraded resume, not
//! a failed one.

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::record::{
    read_body, read_header, write_record, RecordError, RecordHeader, RECORD_HEADER_LEN,
};

/// Leading file magic (includes a format generation byte).
pub const CKPT_MAGIC: [u8; 8] = *b"gdswpck\x01";
/// The one checkpoint format version this crate reads and writes.
pub const CKPT_VERSION: u32 = 1;
/// Header length in bytes.
pub const CKPT_HEADER_LEN: u64 = 24;
/// Per-record frame header length in bytes (cell, worker, len, crc): a
/// [`record`](crate::record) header.
pub const CKPT_RECORD_HEADER_LEN: u64 = RECORD_HEADER_LEN as u64;
/// Largest payload a record may carry. Sweep cell results are a few
/// hundred bytes of JSON; anything past this bound is treated as a
/// corrupt length field rather than an allocation request.
pub const CKPT_MAX_PAYLOAD: u32 = 1 << 20;

/// A failure opening or creating a checkpoint segment (header-level
/// problems; per-record damage is reported as [`CkptDamage`] instead).
#[derive(Debug)]
pub enum CkptError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file does not begin with the checkpoint magic.
    NotACkpt {
        /// What specifically ruled the file out.
        detail: String,
    },
    /// The header declares a version this crate cannot read.
    UnsupportedVersion {
        /// The version the header declared.
        found: u32,
    },
    /// The segment was written for a different grid.
    GridMismatch {
        /// The hash the header carries.
        found: u32,
        /// The hash of the grid being swept.
        expected: u32,
    },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "i/o error: {e}"),
            CkptError::NotACkpt { detail } => {
                write!(f, "not a sweep checkpoint: {detail}")
            }
            CkptError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint version {found}")
            }
            CkptError::GridMismatch { found, expected } => write!(
                f,
                "checkpoint belongs to a different grid \
                 (hash {found:#010x}, expected {expected:#010x})"
            ),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// Damage found while scanning a segment's records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptDamage {
    /// A record frame failed validation mid-file. `cell` is the cell id
    /// the (untrusted) frame header claimed; `offset` is the file offset
    /// of the record's frame header.
    Corrupt {
        /// Claimed cell id of the damaged record.
        cell: u32,
        /// File offset of the damaged record's frame header.
        offset: u64,
        /// What failed.
        reason: String,
    },
    /// The file ends inside a record — the normal tail shape of a killed
    /// writer. `offset` is where the incomplete record starts.
    TornTail {
        /// File offset of the incomplete trailing record.
        offset: u64,
    },
}

impl std::fmt::Display for CkptDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptDamage::Corrupt {
                cell,
                offset,
                reason,
            } => write!(
                f,
                "corrupt record (cell {cell}) at offset {offset}: {reason}"
            ),
            CkptDamage::TornTail { offset } => {
                write!(f, "torn tail at offset {offset}")
            }
        }
    }
}

/// One intact checkpoint record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptRecord {
    /// Grid cell id (the cell's index in canonical expansion order).
    pub cell: u32,
    /// The worker that *executed* the cell (the sweep records the index of
    /// the thread that ran it).
    pub worker: u32,
    /// The cell's serialized result (opaque to this crate).
    pub payload: Vec<u8>,
}

/// Everything a segment scan produced: the intact records plus any damage.
#[derive(Debug)]
pub struct CkptRead {
    /// Grid hash the header carries.
    pub grid_hash: u32,
    /// Intact records, in file (append) order.
    pub records: Vec<CkptRecord>,
    /// Damage that ended the scan early, if any.
    pub damage: Option<CkptDamage>,
}

/// Append-only writer for one checkpoint segment.
#[derive(Debug)]
pub struct CkptWriter {
    file: BufWriter<File>,
}

impl CkptWriter {
    /// Creates (or truncates) a segment, writing a fresh header.
    pub fn create(path: &Path, grid_hash: u32) -> io::Result<CkptWriter> {
        let mut file = BufWriter::new(File::create(path)?);
        file.write_all(&CKPT_MAGIC)?;
        file.write_all(&CKPT_VERSION.to_le_bytes())?;
        file.write_all(&grid_hash.to_le_bytes())?;
        file.write_all(&0u64.to_le_bytes())?;
        file.flush()?;
        Ok(CkptWriter { file })
    }

    /// Opens an existing segment for appending, validating the header
    /// against `grid_hash`; creates a fresh one when the file is missing.
    ///
    /// The append position is the end of the file as it stands — a torn
    /// tail from an earlier kill is left in place (the reader tolerates
    /// it) rather than rewritten, so an append can never destroy intact
    /// records by guessing a truncation point wrong.
    pub fn open_append(path: &Path, grid_hash: u32) -> Result<CkptWriter, CkptError> {
        if !path.exists() {
            return Ok(CkptWriter::create(path, grid_hash)?);
        }
        read_segment_header(&mut File::open(path)?, grid_hash)?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(CkptWriter {
            file: BufWriter::new(file),
        })
    }

    /// Appends one cell record and flushes it, so a kill right after the
    /// call can no longer lose the cell.
    pub fn append(&mut self, cell: u32, worker: u32, payload: &[u8]) -> io::Result<()> {
        assert!(
            payload.len() <= CKPT_MAX_PAYLOAD as usize,
            "checkpoint payload exceeds CKPT_MAX_PAYLOAD"
        );
        let mut header = RecordHeader::new([cell, worker], payload);
        header.crc = header.covered_crc(header.crc);
        write_record(&mut self.file, &header, payload)?;
        self.file.flush()
    }
}

/// Reads and validates a segment's header against `grid_hash`.
fn read_segment_header(r: &mut impl Read, grid_hash: u32) -> Result<(), CkptError> {
    let mut header = [0u8; CKPT_HEADER_LEN as usize];
    r.read_exact(&mut header).map_err(|_| CkptError::NotACkpt {
        detail: "file shorter than a checkpoint header".to_string(),
    })?;
    if header[..8] != CKPT_MAGIC {
        return Err(CkptError::NotACkpt {
            detail: "bad magic".to_string(),
        });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if version != CKPT_VERSION {
        return Err(CkptError::UnsupportedVersion { found: version });
    }
    let found = u32::from_le_bytes(header[12..16].try_into().unwrap());
    if found != grid_hash {
        return Err(CkptError::GridMismatch {
            found,
            expected: grid_hash,
        });
    }
    Ok(())
}

/// Reads a segment: header validation is an `Err`, per-record damage is
/// reported in [`CkptRead::damage`] with every intact record preserved.
pub fn read_ckpt(path: &Path, grid_hash: u32) -> Result<CkptRead, CkptError> {
    let mut r = BufReader::new(File::open(path)?);
    read_segment_header(&mut r, grid_hash)?;
    let mut records = Vec::new();
    let damage = scan(&mut r, &mut records);
    Ok(CkptRead {
        grid_hash,
        records,
        damage,
    })
}

/// Walks the records after the segment header, appending each intact one
/// to `records`; returns the damage that ended the walk, if any. An I/O
/// error reads as a torn tail: the cells past it are recomputed, never
/// trusted.
fn scan(r: &mut impl Read, records: &mut Vec<CkptRecord>) -> Option<CkptDamage> {
    let mut offset = CKPT_HEADER_LEN;
    loop {
        let torn = Some(CkptDamage::TornTail { offset });
        let Ok(header) = read_header(r) else {
            return torn;
        };
        let header = header?; // a clean EOF ends the scan undamaged
        let [cell, worker] = header.tag;
        let corrupt = |reason| {
            Some(CkptDamage::Corrupt {
                cell,
                offset,
                reason,
            })
        };
        let mut payload = Vec::new();
        match read_body(r, &header, CKPT_MAX_PAYLOAD, &mut payload) {
            Ok(crc) if header.covered_crc(crc) == header.crc => {}
            Ok(_) => return corrupt("record crc mismatch".to_string()),
            Err(RecordError::TooLong(len)) => {
                return corrupt(format!(
                    "payload length {len} exceeds the {CKPT_MAX_PAYLOAD} bound"
                ))
            }
            Err(_) => return torn,
        }
        records.push(CkptRecord {
            cell,
            worker,
            payload,
        });
        offset += CKPT_RECORD_HEADER_LEN + u64::from(header.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32::crc32;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gdiff-ckpt-unit-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_records() {
        let path = tmp("roundtrip");
        let mut w = CkptWriter::create(&path, 0xfeed).unwrap();
        w.append(3, 0, b"alpha").unwrap();
        w.append(7, 2, b"").unwrap();
        drop(w);
        let read = read_ckpt(&path, 0xfeed).unwrap();
        assert!(read.damage.is_none());
        assert_eq!(read.records.len(), 2);
        assert_eq!(read.records[0].cell, 3);
        assert_eq!(read.records[0].payload, b"alpha");
        assert_eq!(read.records[1].worker, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_reopens_and_extends() {
        let path = tmp("append");
        let mut w = CkptWriter::create(&path, 1).unwrap();
        w.append(0, 0, b"one").unwrap();
        drop(w);
        let mut w = CkptWriter::open_append(&path, 1).unwrap();
        w.append(1, 0, b"two").unwrap();
        drop(w);
        let read = read_ckpt(&path, 1).unwrap();
        assert_eq!(read.records.len(), 2);
        assert_eq!(read.records[1].payload, b"two");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn grid_hash_mismatch_is_refused() {
        let path = tmp("hash");
        CkptWriter::create(&path, 5).unwrap();
        assert!(matches!(
            CkptWriter::open_append(&path, 6),
            Err(CkptError::GridMismatch {
                found: 5,
                expected: 6
            })
        ));
        assert!(matches!(
            read_ckpt(&path, 6),
            Err(CkptError::GridMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ckpt_bytes_are_pinned() {
        // Three records, one with an empty payload: the segment header,
        // every record header field and the CRC's coverage of cell,
        // worker and length all land in the digest.
        let path = tmp("pinned");
        let mut w = CkptWriter::create(&path, 0x5eed_cafe).unwrap();
        w.append(0, 0, b"{\"cell\":0,\"acc\":0.5}").unwrap();
        w.append(4, 1, b"").unwrap();
        w.append(9, 2, b"ninth").unwrap();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!((bytes.len(), crc32(&bytes)), (97, 0xFBB9_9B1F));
    }
}
