//! Exhaustive corruption testing: every single-byte flip anywhere in a
//! trace file must surface as an `Err` — never a panic, never silently
//! misdecoded records — and no flip or cut of a standalone wire chunk may
//! alter the records it decodes to.

use std::io::Cursor;
use tracefile::{
    container::{CHUNK_HEADER_LEN, HEADER_LEN},
    decode_wire_chunk, encode_wire_chunk, TraceFileError, TraceReader, TraceWriter,
    DEFAULT_CHUNK_CAP,
};
use workloads::{Benchmark, DynInst};

fn build_file(records: usize, chunk_cap: u32) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new(), chunk_cap).unwrap();
    w.begin_stream("gcc").unwrap();
    for inst in Benchmark::Gcc.build(5).take(records) {
        w.push(&inst).unwrap();
    }
    w.set_meta("{\"schema\":\"test\"}");
    w.finish().unwrap()
}

/// Opens and fully reads the file; Ok only if every record decodes.
fn open_and_verify(bytes: Vec<u8>) -> Result<(u64, Vec<DynInst>), TraceFileError> {
    let mut r = TraceReader::new(Cursor::new(bytes))?;
    let report = r.verify()?;
    let insts: Vec<DynInst> = r.stream_records("gcc")?.collect::<Result<_, _>>()?;
    Ok((report.records, insts))
}

#[test]
fn every_single_byte_flip_is_detected() {
    // Small enough to afford len × 8 full validations, large enough to
    // exercise multiple chunks, the footer, and both magics.
    let clean = build_file(120, 32);
    let (records, baseline) = open_and_verify(clean.clone()).expect("clean file verifies");
    assert_eq!(records, 120);

    for pos in 0..clean.len() {
        for bit in 0..8 {
            let mut bad = clean.clone();
            bad[pos] ^= 1 << bit;
            match open_and_verify(bad) {
                Err(_) => {}
                Ok((_, insts)) => panic!(
                    "flip at byte {pos} bit {bit} went undetected \
                     (decoded {} records, changed: {})",
                    insts.len(),
                    insts != baseline
                ),
            }
        }
    }
}

#[test]
fn payload_flips_name_the_right_chunk() {
    let clean = build_file(120, 32); // 4 chunks of ≤32 records
    let r = TraceReader::new(Cursor::new(clean.clone())).unwrap();
    let chunks: Vec<_> = r.chunks().to_vec();
    assert!(
        chunks.len() >= 3,
        "want several chunks, got {}",
        chunks.len()
    );

    for (i, entry) in chunks.iter().enumerate() {
        let payload_start = (entry.offset + CHUNK_HEADER_LEN) as usize;
        let victim = payload_start + entry.payload_len as usize / 2;
        let mut bad = clean.clone();
        bad[victim] ^= 0x10;
        let mut r = TraceReader::new(Cursor::new(bad)).expect("structure still opens");
        match r.verify() {
            Err(TraceFileError::Corrupt {
                chunk,
                offset,
                reason,
            }) => {
                assert_eq!(chunk, i as u64, "wrong chunk blamed");
                assert_eq!(offset, entry.offset, "wrong offset reported");
                assert!(
                    reason.contains("crc"),
                    "reason should name the crc: {reason}"
                );
            }
            other => panic!("chunk {i}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn truncations_are_detected() {
    let clean = build_file(500, 64);
    for keep in 0..clean.len() {
        let cut = clean[..keep].to_vec();
        assert!(
            open_and_verify(cut).is_err(),
            "truncation to {keep} of {} bytes went undetected",
            clean.len()
        );
    }
}

#[test]
fn corruption_reports_are_printable_and_typed() {
    let clean = build_file(64, 16);
    // Flip a payload byte of chunk 0 and check the error's face: it must
    // name chunk 0 and the offset, because operators grep logs for this.
    let mut bad = clean.clone();
    bad[(HEADER_LEN + CHUNK_HEADER_LEN) as usize + 3] ^= 0x08;
    let mut r = TraceReader::new(Cursor::new(bad)).unwrap();
    let e = r.verify().unwrap_err();
    let msg = e.to_string();
    assert!(msg.contains("chunk 0"), "message was: {msg}");
    assert!(msg.contains("offset 24"), "message was: {msg}");
}

/// A standalone wire chunk (what the serve daemon receives) carries no
/// footer to cross-check its stream id against, so that field is opaque:
/// the guarantee is record integrity, not every-flip detection. Any
/// single-bit flip either fails to decode or decodes records identical to
/// the clean chunk's. No flip may silently alter data.
#[test]
fn wire_chunk_flips_never_silently_alter_records() {
    let insts: Vec<DynInst> = Benchmark::Gcc.build(5).take(120).collect();
    let clean = encode_wire_chunk(&insts, 0);
    let decode = |bytes: &[u8]| {
        let mut out = Vec::new();
        decode_wire_chunk(bytes, DEFAULT_CHUNK_CAP, &mut out).map(|_| out)
    };
    assert_eq!(decode(&clean).expect("clean chunk decodes"), insts);

    for pos in 0..clean.len() {
        for bit in 0..8 {
            let mut bad = clean.clone();
            bad[pos] ^= 1 << bit;
            if let Ok(decoded) = decode(&bad) {
                assert_eq!(
                    decoded, insts,
                    "flip at byte {pos} bit {bit} silently altered records"
                );
            }
        }
    }
}

/// A wire chunk cut short anywhere — inside its header or its payload —
/// is refused, never decoded as a shorter chunk.
#[test]
fn wire_chunk_truncations_are_detected() {
    let insts: Vec<DynInst> = Benchmark::Gcc.build(9).take(120).collect();
    let clean = encode_wire_chunk(&insts, 0);
    for keep in 0..clean.len() {
        assert!(
            decode_wire_chunk(&clean[..keep], DEFAULT_CHUNK_CAP, &mut Vec::new()).is_err(),
            "truncation to {keep} of {} bytes went undetected",
            clean.len()
        );
    }
}
