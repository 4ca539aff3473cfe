//! Conversion between the text trace format and the binary container.
//!
//! The text format (`workloads::trace`) is the interchange path for
//! external tracers; the binary container is the storage and replay path.
//! Both directions stream line-by-line / chunk-by-chunk in constant
//! memory.

use std::io::{self, BufRead, Write};

use workloads::trace::{format_inst, parse_line_at};

use crate::container::{TraceFileError, TraceReader, TraceWriter};

/// The text comments that open a stream and carry the meta blob.
const STREAM_PREFIX: &str = "# stream:";
const META_PREFIX: &str = "# meta: ";

/// Byte and record counts from a conversion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvertStats {
    /// Instructions converted.
    pub records: u64,
    /// Bytes of text consumed or produced (instruction lines only,
    /// including the newline; comments and blanks excluded).
    pub text_bytes: u64,
    /// Bytes of binary produced or consumed (whole container).
    pub binary_bytes: u64,
}

/// Reads the text format from `r` into `w`.
///
/// A `# stream: <name>` line opens (or resumes) that stream and a
/// `# meta: <blob>` line sets the meta, so [`binary_to_text`] output
/// converts back to the same container. Instructions before any
/// `# stream:` line go to stream `name`. Text parse errors abort the
/// conversion with the offending line number.
pub fn text_to_binary<R: BufRead, W: Write>(
    r: R,
    w: &mut TraceWriter<W>,
    name: &str,
) -> Result<ConvertStats, TraceFileError> {
    let mut stats = ConvertStats::default();
    let mut in_stream = false;
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if let Some(meta) = line.strip_prefix(META_PREFIX) {
            w.set_meta(meta);
        } else if let Some(stream) = t.strip_prefix(STREAM_PREFIX) {
            w.begin_stream(stream.trim())?;
            in_stream = true;
        } else if !t.is_empty() && !t.starts_with('#') {
            let inst = parse_line_at(t, i + 1)?;
            if !std::mem::replace(&mut in_stream, true) {
                w.begin_stream(name)?;
            }
            stats.text_bytes += format_inst(&inst).len() as u64 + 1;
            w.push(&inst)?;
            stats.records += 1;
        }
    }
    Ok(stats)
}

/// Writes every stream of `r` back out as text: a non-empty meta blob as
/// one `# meta: <blob>` line, then each stream in id order after a
/// `# stream: <name>` line. The text parser ignores both comments.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the meta blob holds a line break,
/// which a one-line comment cannot carry.
pub fn binary_to_text<R: io::Read + io::Seek, W: Write>(
    r: &mut TraceReader<R>,
    mut w: W,
) -> Result<ConvertStats, TraceFileError> {
    let mut stats = ConvertStats::default();
    let meta = r.meta();
    if meta.contains(['\n', '\r']) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trace meta holds a line break and cannot be written as a one-line comment",
        )
        .into());
    }
    if !meta.is_empty() {
        writeln!(w, "{META_PREFIX}{meta}")?;
    }
    let names: Vec<String> = r.streams().iter().map(|s| s.name.clone()).collect();
    for name in names {
        writeln!(w, "{STREAM_PREFIX} {name}")?;
        for item in r.stream_records(&name)? {
            let line = format_inst(&item?);
            stats.text_bytes += line.len() as u64 + 1;
            writeln!(w, "{line}")?;
            stats.records += 1;
        }
    }
    stats.binary_bytes = r.data_end();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{TraceReader, TraceWriter};
    use std::io::Cursor;
    use workloads::trace::write_trace;
    use workloads::{Benchmark, DynInst};

    #[test]
    fn text_binary_text_round_trips() {
        let insts: Vec<DynInst> = Benchmark::Parser.build(3).take(4_000).collect();
        let mut text = Vec::new();
        write_trace(&mut text, insts.iter().copied()).unwrap();

        let mut w = TraceWriter::new(Vec::new(), 512).unwrap();
        let stats = text_to_binary(Cursor::new(&text), &mut w, "parser").unwrap();
        assert_eq!(stats.records, 4_000);
        let bytes = w.finish().unwrap();
        // Delta compression should beat the text encoding comfortably.
        assert!(
            (bytes.len() as u64) < stats.text_bytes,
            "binary {} >= text {}",
            bytes.len(),
            stats.text_bytes
        );

        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        let mut text2 = Vec::new();
        let stats2 = binary_to_text(&mut r, &mut text2).unwrap();
        assert_eq!(stats2.records, 4_000);
        let parsed: Vec<DynInst> = workloads::trace::read_trace(Cursor::new(text2))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(parsed, insts);
    }

    #[test]
    fn streams_and_meta_round_trip_through_text() {
        let mut w = TraceWriter::new(Vec::new(), 64).unwrap();
        for (seed, bench) in [Benchmark::Gcc, Benchmark::Mcf, Benchmark::Twolf]
            .into_iter()
            .enumerate()
        {
            w.begin_stream(bench.name()).unwrap();
            for inst in bench.build(seed as u64).take(150) {
                w.push(&inst).unwrap();
            }
        }
        w.set_meta("{\"schema\":\"pin\",\"experiments\":[\"fig8\"]}");
        let bytes = w.finish().unwrap();

        let mut text = Vec::new();
        binary_to_text(
            &mut TraceReader::new(Cursor::new(&bytes)).unwrap(),
            &mut text,
        )
        .unwrap();
        let mut w = TraceWriter::new(Vec::new(), 64).unwrap();
        text_to_binary(Cursor::new(&text), &mut w, "stem").unwrap();
        assert_eq!(w.finish().unwrap(), bytes);
    }

    #[test]
    fn text_errors_carry_their_line() {
        let text = "400 alu d1 v2a\n404 bogus\n";
        let mut w = TraceWriter::new(Vec::new(), 64).unwrap();
        let e = text_to_binary(Cursor::new(text), &mut w, "x").unwrap_err();
        match e {
            TraceFileError::Text(pe) => assert_eq!(pe.line, 2),
            other => panic!("expected Text error, got {other}"),
        }
    }
}
