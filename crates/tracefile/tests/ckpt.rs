//! Damage-tolerance contract of the sweep checkpoint container: every
//! truncation point and every single-byte flip must come back as data
//! (`CkptRead::damage`) or a typed `CkptError` — never a panic, and
//! never a silently wrong record.

use std::fs;
use std::path::PathBuf;

use tracefile::ckpt::{CKPT_HEADER_LEN, CKPT_RECORD_HEADER_LEN};
use tracefile::{read_ckpt, CkptDamage, CkptError, CkptRecord, CkptWriter};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gdiff-ckpt-it-{}-{name}", std::process::id()));
    p
}

const HASH: u32 = 0xabad1dea;

/// Builds a three-record segment and returns its bytes.
fn sample_segment(path: &PathBuf) -> Vec<u8> {
    let mut w = CkptWriter::create(path, HASH).unwrap();
    w.append(0, 0, b"first-cell-payload").unwrap();
    w.append(1, 1, b"second").unwrap();
    w.append(2, 0, b"third-cell-longer-payload-bytes").unwrap();
    drop(w);
    fs::read(path).unwrap()
}

#[test]
fn every_truncation_point_is_tolerated() {
    let path = tmp("trunc");
    let bytes = sample_segment(&path);
    let header = CKPT_HEADER_LEN as usize;

    for cut in 0..bytes.len() {
        fs::write(&path, &bytes[..cut]).unwrap();
        if cut < header {
            // Not even a full header: a typed open error, never a panic.
            assert!(
                matches!(read_ckpt(&path, HASH), Err(CkptError::NotACkpt { .. })),
                "cut at {cut} must be NotACkpt"
            );
            continue;
        }
        let read = read_ckpt(&path, HASH).expect("header survives");
        // Whatever records are intact before the cut must decode; the cut
        // itself is at worst a torn tail, never corruption.
        match read.damage {
            None => assert!(record_boundary(cut, &bytes)),
            Some(CkptDamage::TornTail { offset }) => {
                assert!(offset as usize <= cut, "torn offset within file");
            }
            Some(CkptDamage::Corrupt { .. }) => {
                panic!("truncation at {cut} misreported as corruption")
            }
        }
        for (i, rec) in read.records.iter().enumerate() {
            assert_eq!(rec.cell, i as u32, "intact prefix decodes in order");
        }
    }
    fs::remove_file(&path).ok();
}

/// True when `cut` lands exactly between records (or at EOF).
fn record_boundary(cut: usize, bytes: &[u8]) -> bool {
    let mut at = CKPT_HEADER_LEN as usize;
    loop {
        if at == cut {
            return true;
        }
        if at > cut || at + CKPT_RECORD_HEADER_LEN as usize > bytes.len() {
            return false;
        }
        let len = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as usize;
        at += CKPT_RECORD_HEADER_LEN as usize + len;
    }
}

#[test]
fn every_byte_flip_is_detected_or_isolated() {
    let path = tmp("flip");
    let bytes = sample_segment(&path);
    let header = CKPT_HEADER_LEN as usize;

    for pos in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[pos] ^= 0x40;
        fs::write(&path, &damaged).unwrap();
        let res = read_ckpt(&path, HASH);
        if pos < header {
            // Header flips: magic, version, or grid-hash refusal — or, for
            // the reserved field, a clean read (it is not yet meaningful).
            match res {
                Err(
                    CkptError::NotACkpt { .. }
                    | CkptError::UnsupportedVersion { .. }
                    | CkptError::GridMismatch { .. },
                ) => {}
                Ok(read) if pos >= 16 => assert!(read.damage.is_none()),
                other => panic!("header flip at {pos} mishandled: {other:?}"),
            }
            continue;
        }
        // Body flips: the scan must stop at (or before) the flipped
        // record, and every record it does return must be genuine.
        let read = res.expect("body flip cannot break the header");
        let damaged_record = record_index_of(pos, &bytes);
        assert!(
            read.records.len() <= damaged_record,
            "flip at {pos} (record {damaged_record}) leaked a damaged record"
        );
        for (i, rec) in read.records.iter().enumerate() {
            assert_eq!(rec.cell, i as u32);
        }
        assert!(
            read.damage.is_some(),
            "flip at {pos} went completely undetected"
        );
    }
    fs::remove_file(&path).ok();
}

/// Which record (0-based) the byte at `pos` belongs to in the pristine file.
fn record_index_of(pos: usize, bytes: &[u8]) -> usize {
    let mut at = CKPT_HEADER_LEN as usize;
    let mut idx = 0;
    loop {
        let len = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as usize;
        let end = at + CKPT_RECORD_HEADER_LEN as usize + len;
        if pos < end {
            return idx;
        }
        at = end;
        idx += 1;
    }
}

#[test]
fn torn_tail_segment_accepts_appends_after_reopen() {
    // A killed worker leaves a half-written record; on resume the segment
    // is reopened for append and the torn bytes stay in place. The reader
    // must still recover both the pre-kill records and the new ones...
    // as long as the torn tail is where the scan ends. Appending after a
    // torn tail would hide the new records behind it, so the sweep engine
    // rewrites damaged segments instead — this test pins the reader side:
    // intact prefix + torn tail never panics and keeps the prefix.
    let path = tmp("torn-append");
    let bytes = sample_segment(&path);
    let cut = bytes.len() - 7; // inside the last record's payload
    fs::write(&path, &bytes[..cut]).unwrap();
    let read = read_ckpt(&path, HASH).unwrap();
    assert_eq!(read.records.len(), 2);
    assert!(matches!(read.damage, Some(CkptDamage::TornTail { .. })));
    fs::remove_file(&path).ok();
}

#[test]
fn corruption_reports_cell_and_offset() {
    let path = tmp("corrupt-pos");
    let bytes = sample_segment(&path);
    // Flip one payload byte of record 1 (header + record0 + frame header).
    let rec0_len = 18; // "first-cell-payload"
    let rec1_start = CKPT_HEADER_LEN as usize + CKPT_RECORD_HEADER_LEN as usize + rec0_len;
    let mut damaged = bytes.clone();
    damaged[rec1_start + CKPT_RECORD_HEADER_LEN as usize] ^= 0xff;
    fs::write(&path, &damaged).unwrap();
    let read = read_ckpt(&path, HASH).unwrap();
    assert_eq!(read.records.len(), 1);
    match read.damage {
        Some(CkptDamage::Corrupt { cell, offset, .. }) => {
            assert_eq!(cell, 1, "reports the claimed cell id");
            assert_eq!(offset, rec1_start as u64, "positions the damaged frame");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    fs::remove_file(&path).ok();
}

#[test]
fn every_prefix_and_bit_flip_keeps_records_exact() {
    let path = tmp("prefix-bits");
    let originals = [(0, 0, &b"{\"cell\":0}"[..]), (4, 1, b""), (9, 2, b"ninth")];
    let mut w = CkptWriter::create(&path, HASH).unwrap();
    for (cell, worker, payload) in originals {
        w.append(cell, worker, payload).unwrap();
    }
    drop(w);
    let bytes = fs::read(&path).unwrap();
    let originals: Vec<CkptRecord> = originals
        .iter()
        .map(|&(cell, worker, payload)| CkptRecord {
            cell,
            worker,
            payload: payload.to_vec(),
        })
        .collect();
    let header = CKPT_HEADER_LEN as usize;
    let mut starts = vec![header];
    for r in &originals {
        starts.push(starts.last().unwrap() + CKPT_RECORD_HEADER_LEN as usize + r.payload.len());
    }
    assert_eq!(*starts.last().unwrap(), bytes.len());

    for cut in header..=bytes.len() {
        fs::write(&path, &bytes[..cut]).unwrap();
        let read = read_ckpt(&path, HASH).unwrap();
        let whole = starts.iter().filter(|&&s| s <= cut).count() - 1;
        assert_eq!(read.records[..], originals[..whole], "cut {cut}");
        match read.damage {
            None => assert!(starts.contains(&cut), "cut {cut}"),
            Some(CkptDamage::TornTail { offset }) => {
                assert_eq!(offset as usize, starts[read.records.len()], "cut {cut}");
            }
            Some(other) => panic!("cut {cut} misread as {other}"),
        }
    }

    for bit in header * 8..bytes.len() * 8 {
        let pos = bit / 8;
        let mut bad = bytes.clone();
        bad[pos] ^= 1 << (bit % 8);
        fs::write(&path, &bad).unwrap();
        let read = read_ckpt(&path, HASH).unwrap();
        let hit = starts.iter().rposition(|&s| s <= pos).unwrap();
        assert_eq!(read.records[..], originals[..hit], "bit {bit}");
        assert!(
            matches!(
                read.damage,
                Some(CkptDamage::Corrupt { .. } | CkptDamage::TornTail { .. })
            ),
            "bit {bit}: {:?}",
            read.damage
        );
    }
    fs::remove_file(&path).ok();
}
