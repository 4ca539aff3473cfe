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
//! * [`StreamWriter`] / [`StreamReader`] — the footerless stream profile
//!   for non-seekable pipes and sockets (the serve daemon's wire format);
//!   see [`stream`] for the layout and the end-marker rule.
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
mod source;
pub mod stream;
pub mod varint;

pub use ckpt::{
    count_ckpt_records, read_ckpt, CkptDamage, CkptError, CkptRead, CkptRecord, CkptWriter,
};

pub use container::{
    ChunkEntry, StreamInfo, TraceFileError, TraceReader, TraceWriter, VerifyReport,
    DEFAULT_CHUNK_CAP,
};
pub use convert::{binary_to_text, text_to_binary, ConvertStats};
pub use source::FileSource;
pub use stream::{
    decode_wire_chunk, decode_wire_chunk_with_crc, encode_wire_chunk, StreamReader, StreamWriter,
    WireChunk, WireError, END_MARKER, END_STREAM_ID,
};
