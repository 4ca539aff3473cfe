//! Chunked binary container for dynamic-instruction traces.
//!
//! The text format in `workloads::trace` is the interchange path — easy
//! for external tracers (Pin, DynamoRIO, QEMU plugins, CVP converters) to
//! emit, easy to eyeball. It is also ~35 bytes per instruction and
//! parse-bound. This crate is the storage and replay path: the same
//! instructions delta-compressed into a few bytes each, in fixed-size
//! chunks that are independently decodable, CRC-protected, and indexed by
//! a footer so readers can seek (and later decode in parallel).
//!
//! * [`TraceWriter`] / [`TraceReader`] — streaming container I/O,
//!   constant memory, no mmap; see [`container`] for the byte layout.
//! * [`encode_wire_chunk`] / [`decode_wire_chunk`] — one chunk on its
//!   own, the unit the serve daemon exchanges; a chunk copied out of a
//!   container ([`TraceReader::read_chunk_raw`]) is a valid wire chunk.
//! * [`record`] — the one 16-byte record header and bounded reader under
//!   trace chunks, sweep checkpoint records and serve frames.
//! * [`convert`] — text ⇄ binary conversion.
//! * [`FileSource`] — a `workloads::TraceSource` backed by a trace file,
//!   making captured traces interchangeable with the synthetic models.
//! * [`TraceFileError`] — every failure mode, with corruption positioned
//!   by chunk index and file offset. Corruption is always an `Err`, never
//!   a panic and never silently misdecoded data: each byte of a file is
//!   covered by a CRC, a magic, or a cross-check against the footer.
//!
//! # Example
//!
//! ```
//! use std::io::Cursor;
//! use tracefile::{TraceReader, TraceWriter};
//! use workloads::Benchmark;
//!
//! // Record 1000 instructions of gcc...
//! let mut w = TraceWriter::new(Vec::new(), 256).unwrap();
//! w.begin_stream("gcc").unwrap();
//! for inst in Benchmark::Gcc.build(42).take(1000) {
//!     w.push(&inst).unwrap();
//! }
//! let bytes = w.finish().unwrap();
//!
//! // ...and replay them, byte-identical.
//! let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
//! let replayed: Vec<_> = r.stream_records("gcc").unwrap()
//!     .collect::<Result<_, _>>().unwrap();
//! let original: Vec<_> = Benchmark::Gcc.build(42).take(1000).collect();
//! assert_eq!(replayed, original);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod ckpt;
pub mod codec;
pub mod container;
pub mod convert;
pub mod crc32;
pub mod record;
mod source;
pub mod varint;

pub use ckpt::{read_ckpt, CkptDamage, CkptError, CkptRead, CkptRecord, CkptWriter};

pub use container::{
    decode_wire_chunk, decode_wire_chunk_with_crc, encode_wire_chunk, ChunkEntry, StreamInfo,
    TraceFileError, TraceReader, TraceWriter, VerifyReport, WireChunk, WireError,
    DEFAULT_CHUNK_CAP,
};
pub use convert::{binary_to_text, text_to_binary, ConvertStats};
pub use source::FileSource;
