//! Property tests for the binary container: round-trip fidelity across
//! chunk boundaries, stream interleavings, and every `OpClass`; the
//! CRC-32 kernel against a bit-at-a-time reference; and the payload
//! decoder's fast path against a plain `decode_inst` loop.

use proptest::prelude::*;
use std::io::Cursor;
use tracefile::codec::{
    decode_inst, decode_payload, encode_inst, DeltaState, PayloadError, PayloadErrorKind,
    MAX_RECORD_LEN,
};
use tracefile::{TraceReader, TraceWriter};
use workloads::{DynInst, OpClass};

/// Canonical instructions (the shapes the `DynInst` constructors produce)
/// over every op class, including `IntDiv`.
fn arb_inst() -> impl Strategy<Value = DynInst> {
    (
        any::<u64>(),
        0u8..10,
        any::<u8>(),
        any::<u8>(),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(pc, kind, r1, r2, value, mem, taken)| match kind {
            0 => DynInst::alu(pc, r1, [None, None], value),
            1 => DynInst::alu(pc, r1, [Some(r2), None], value),
            2 => DynInst::alu(pc, r1, [Some(r2), Some(r1)], value),
            3 => DynInst::mul(pc, r1, [Some(r2), Some(r1)], value),
            4 => DynInst {
                op: OpClass::IntDiv,
                ..DynInst::alu(pc, r1, [Some(r2), Some(r1)], value)
            },
            5 => DynInst::load(pc, r1, r2, mem, value),
            6 => DynInst::store(pc, r1, r2, mem),
            7 => DynInst::branch(pc, r1, taken, mem),
            8 => DynInst::branch(pc, r1, !taken, mem),
            _ => DynInst::jump(pc, mem),
        })
}

/// CRC-32 one bit at a time: no tables, so it shares nothing with the
/// slicing kernel but the polynomial.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// `decode_payload` without its fast path: `decode_inst` record by record
/// from one running state. Returns the result and the records appended
/// before it.
fn decode_reference(buf: &[u8], count: u32) -> (Result<(), PayloadError>, Vec<DynInst>) {
    let mut state = DeltaState::new();
    let mut pos = 0;
    let mut out = Vec::new();
    for record in 0..count {
        match decode_inst(buf, &mut pos, &mut state) {
            Ok(inst) => out.push(inst),
            Err(e) => {
                let kind = PayloadErrorKind::Decode(e);
                return (Err(PayloadError { record, kind }), out);
            }
        }
    }
    if pos != buf.len() {
        let kind = PayloadErrorKind::TrailingBytes {
            at: pos,
            len: buf.len(),
        };
        return (
            Err(PayloadError {
                record: count,
                kind,
            }),
            out,
        );
    }
    (Ok(()), out)
}

/// Decodes `buf` with `decode_payload` and with the reference loop and
/// asserts the same records and the same error; returns the result.
fn assert_decoders_agree(buf: &[u8], count: u32) -> Result<(), PayloadError> {
    let mut got = Vec::new();
    let result = decode_payload(buf, count, &mut got);
    let (want, want_records) = decode_reference(buf, count);
    assert_eq!(result, want, "{} bytes, count {count}", buf.len());
    assert_eq!(got, want_records, "{} bytes, count {count}", buf.len());
    result
}

/// Encodes `insts` from a fresh state, returning the bytes and each
/// record's start offset.
fn encode_records(insts: &[DynInst]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut state = DeltaState::new();
    let starts = insts
        .iter()
        .map(|inst| {
            let start = buf.len();
            encode_inst(&mut buf, &mut state, inst);
            start
        })
        .collect();
    (buf, starts)
}

fn write_streams(streams: &[(String, Vec<DynInst>)], chunk_cap: u32) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new(), chunk_cap).unwrap();
    for (name, insts) in streams {
        w.begin_stream(name).unwrap();
        for inst in insts {
            w.push(inst).unwrap();
        }
    }
    w.finish().unwrap()
}

proptest! {
    /// The slicing-by-16 kernel computes the standard CRC-32 of any bytes,
    /// whatever their length (full blocks, tails, or both).
    #[test]
    fn crc32_matches_bitwise_reference(data in prop::collection::vec(any::<u8>(), 0..600)) {
        prop_assert_eq!(tracefile::crc32::crc32(&data), crc32_bitwise(&data));
    }

    /// `write(insts) → read` is the identity, whatever the instructions
    /// and wherever the chunk boundaries fall (cap 1 puts every record in
    /// its own chunk; large caps put them all in one).
    #[test]
    fn binary_round_trips(
        insts in prop::collection::vec(arb_inst(), 0..300),
        chunk_cap in 1u32..40,
    ) {
        let bytes = write_streams(&[("s".to_string(), insts.clone())], chunk_cap);
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        if insts.is_empty() {
            prop_assert!(r.streams().is_empty() || r.streams()[0].records == 0);
        } else {
            let got: Vec<DynInst> = r.stream_records("s").unwrap()
                .collect::<Result<_, _>>().unwrap();
            prop_assert_eq!(got, insts);
        }
    }

    /// Interleaved streams keep their records separate and ordered.
    #[test]
    fn interleaved_streams_round_trip(
        a in prop::collection::vec(arb_inst(), 1..120),
        b in prop::collection::vec(arb_inst(), 1..120),
        split_a in 0usize..120,
        split_b in 0usize..120,
        chunk_cap in 1u32..20,
    ) {
        let sa = split_a.min(a.len());
        let sb = split_b.min(b.len());
        let mut w = TraceWriter::new(Vec::new(), chunk_cap).unwrap();
        for (name, part) in [("a", &a[..sa]), ("b", &b[..sb]), ("a", &a[sa..]), ("b", &b[sb..])] {
            w.begin_stream(name).unwrap();
            for inst in part {
                w.push(inst).unwrap();
            }
        }
        let bytes = w.finish().unwrap();
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        let got_a: Vec<DynInst> = r.stream_records("a").unwrap()
            .collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(got_a, a);
        let got_b: Vec<DynInst> = r.stream_records("b").unwrap()
            .collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(got_b, b);
    }

    /// Verification agrees with the writer's bookkeeping.
    #[test]
    fn verify_counts_match(
        insts in prop::collection::vec(arb_inst(), 0..300),
        chunk_cap in 1u32..40,
    ) {
        let bytes = write_streams(&[("s".to_string(), insts.clone())], chunk_cap);
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        let report = r.verify().unwrap();
        prop_assert_eq!(report.records, insts.len() as u64);
        let expected_chunks = insts.len().div_ceil(chunk_cap as usize);
        prop_assert_eq!(report.chunks as usize, expected_chunks);
    }
}

proptest! {
    /// Arbitrary bytes and counts: mostly garbage, with the top bit
    /// cleared on a random share of bytes so that records often decode
    /// some way before failing.
    #[test]
    fn fast_decoder_matches_reference_on_random_bytes(
        bytes in prop::collection::vec((any::<u8>(), any::<u8>()), 0..600),
        count in 0u32..120,
        keep_top in any::<u8>(),
    ) {
        let buf: Vec<u8> = bytes
            .iter()
            .map(|&(b, r)| if r <= keep_top { b } else { b & 0x7f })
            .collect();
        let _ = assert_decoders_agree(&buf, count);
    }

    /// Valid encodings decode whole, and cut anywhere inside their last
    /// `MAX_RECORD_LEN` bytes (where records leave the fast path) fail
    /// identically. A smaller count leaves trailing bytes.
    #[test]
    fn fast_decoder_matches_reference_on_cut_encodings(
        insts in prop::collection::vec(arb_inst(), 1..150),
    ) {
        let (buf, _) = encode_records(&insts);
        let count = insts.len() as u32;
        prop_assert!(assert_decoders_agree(&buf, count).is_ok());
        prop_assert!(assert_decoders_agree(&buf, count - 1).is_err());
        for cut in 1..=MAX_RECORD_LEN.min(buf.len()) {
            prop_assert!(assert_decoders_agree(&buf[..buf.len() - cut], count).is_err());
        }
    }

    /// A record whose pc, value or address varint runs to 10 bytes,
    /// spliced in among valid records: a 10th byte of 0 or 1 is accepted,
    /// anything more (overflowing, or overlong with its top bit set) is
    /// the same error at the same offset, whether or not
    /// `MAX_RECORD_LEN` bytes follow it.
    #[test]
    fn ten_byte_varints_decode_like_the_reference(
        insts in prop::collection::vec(arb_inst(), 0..100),
        at in 0usize..100,
        field in 0usize..3,
        last in any::<u8>(),
        pad in any::<bool>(),
    ) {
        let at = at.min(insts.len());
        let (head, _) = encode_records(&insts[..at]);
        // A load with a destination: tag, pc, dst, base, value, address.
        let mut record = vec![0x03 | 0x08 | 0x10 | 0x40];
        for f in 0..3 {
            if f == 1 {
                record.extend_from_slice(&[5, 29]);
            }
            if f == field {
                record.extend_from_slice(&[0xff; 9]);
                record.push(last);
            } else {
                record.push(0x02);
            }
        }
        let mut buf = head;
        buf.extend_from_slice(&record);
        if pad {
            // Jumps with every delta zero: valid records, so the spliced
            // one meets the fast path with a full window behind it.
            for _ in 0..MAX_RECORD_LEN {
                buf.extend_from_slice(&[0x06, 0x00, 0x00]);
            }
        }
        let count = at as u32 + 1 + if pad { MAX_RECORD_LEN as u32 } else { 0 };
        let result = assert_decoders_agree(&buf, count);
        prop_assert_eq!(result.is_ok(), last <= 1);
        if let Err(e) = result {
            prop_assert_eq!(e.record, at as u32);
        }
    }

    /// A bad op code in any record's tag fails at that record with the
    /// reference's error.
    #[test]
    fn bad_op_code_mid_chunk_matches_reference(
        insts in prop::collection::vec(arb_inst(), 1..150),
        at in any::<usize>(),
    ) {
        let (mut buf, starts) = encode_records(&insts);
        let k = at % insts.len();
        buf[starts[k]] |= 0x07;
        let e = assert_decoders_agree(&buf, insts.len() as u32).unwrap_err();
        prop_assert_eq!(e.record, k as u32);
        prop_assert!(matches!(
            e.kind,
            PayloadErrorKind::Decode(tracefile::codec::DecodeError::BadOpCode { code: 7, .. })
        ));
    }
}
