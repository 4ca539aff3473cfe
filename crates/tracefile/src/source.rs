//! A file-backed [`TraceSource`]: captured traces drive experiments
//! exactly like the synthetic models do.

use std::path::{Path, PathBuf};

use workloads::{Benchmark, DynInst, TraceSource};

use crate::container::{StreamInfo, StreamRecords, TraceFileError, TraceReader, VerifyReport};

/// A trace file opened for replay.
///
/// [`open`](FileSource::open) validates the *entire* file up front —
/// structure and every chunk payload — so that the infallible
/// [`TraceSource::stream`] iterators cannot hit latent corruption
/// mid-experiment. After a successful open, streaming re-reads the file
/// chunk by chunk (constant memory); should the file change on disk
/// between open and iteration, affected streams end early rather than
/// yielding misdecoded records (every chunk is still CRC-checked on
/// read).
#[derive(Debug)]
pub struct FileSource {
    path: PathBuf,
    streams: Vec<StreamInfo>,
    meta: String,
    verified: VerifyReport,
}

impl FileSource {
    /// Opens `path` and fully verifies it (structure + every chunk CRC +
    /// decode).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        let path = path.as_ref().to_path_buf();
        let mut reader = TraceReader::open(&path)?;
        let verified = reader.verify()?;
        Ok(FileSource {
            streams: reader.streams().to_vec(),
            meta: reader.meta().to_string(),
            path,
            verified,
        })
    }

    /// The file's streams (benchmark name + record count).
    pub fn streams(&self) -> &[StreamInfo] {
        &self.streams
    }

    /// The opaque metadata blob recorded alongside the trace.
    pub fn meta(&self) -> &str {
        &self.meta
    }

    /// Counts from the full-file verification done at open.
    pub fn verified(&self) -> VerifyReport {
        self.verified
    }

    /// The path this source reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the file carries a stream for `bench`.
    pub fn has_benchmark(&self, bench: Benchmark) -> bool {
        self.streams.iter().any(|s| s.name == bench.name())
    }
}

impl TraceSource for FileSource {
    fn describe(&self) -> String {
        format!("trace file {}", self.path.display())
    }

    fn stream(&self, bench: Benchmark) -> Box<dyn Iterator<Item = DynInst> + '_> {
        // Each stream gets its own reader so concurrent iterators never
        // fight over one seek position. Failures end the stream: the file
        // was fully verified at `open`, so they only fire if the file was
        // removed or rewritten since — and callers gate on `has_benchmark`
        // for the legitimately-absent case.
        let reader = TraceReader::open(&self.path);
        match reader.and_then(|r| StreamRecords::new(Box::new(r), bench.name())) {
            Ok(records) => Box::new(records.map_while(Result::ok)),
            Err(_) => Box::new(std::iter::empty()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::TraceWriter;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gdtrace-source-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn file_source_replays_what_was_recorded() {
        let path = tmp_path("replay.bin");
        let insts: Vec<DynInst> = Benchmark::Gzip.build(11).take(5_000).collect();
        let mut w = TraceWriter::create(&path, 256).unwrap();
        w.begin_stream("gzip").unwrap();
        for inst in &insts {
            w.push(inst).unwrap();
        }
        w.set_meta("{}");
        w.finish().unwrap();

        let src = FileSource::open(&path).unwrap();
        assert!(src.has_benchmark(Benchmark::Gzip));
        assert!(!src.has_benchmark(Benchmark::Mcf));
        assert_eq!(src.verified().records, 5_000);
        let got: Vec<DynInst> = src.stream(Benchmark::Gzip).collect();
        assert_eq!(got, insts);
        // Streams restart from the beginning on every call.
        let again: Vec<DynInst> = src.stream(Benchmark::Gzip).take(10).collect();
        assert_eq!(&again[..], &insts[..10]);
        // Absent benchmarks yield empty streams, not errors.
        assert_eq!(src.stream(Benchmark::Mcf).count(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_corruption_up_front() {
        let path = tmp_path("corrupt.bin");
        let insts: Vec<DynInst> = Benchmark::Gzip.build(11).take(2_000).collect();
        let mut w = TraceWriter::create(&path, 256).unwrap();
        w.begin_stream("gzip").unwrap();
        for inst in &insts {
            w.push(inst).unwrap();
        }
        w.finish().unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[100] ^= 0x40; // somewhere inside chunk 0's payload
        std::fs::write(&path, &bytes).unwrap();
        let e = FileSource::open(&path).unwrap_err();
        assert!(
            matches!(e, TraceFileError::Corrupt { chunk: 0, .. }),
            "expected chunk-0 corruption, got {e}"
        );
        std::fs::remove_file(&path).ok();
    }
}
