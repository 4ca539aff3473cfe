//! Property tests for the binary container: round-trip fidelity across
//! chunk boundaries, stream interleavings, and every `OpClass`; and the
//! CRC-32 kernel against a bit-at-a-time reference.

use proptest::prelude::*;
use std::io::Cursor;
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
