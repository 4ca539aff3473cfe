//! The one record codec under trace chunks ([`container`](crate::container)),
//! sweep checkpoint records ([`ckpt`](crate::ckpt)) and `gdiff-serve/v2`
//! frames: a 16-byte header of two tag words, the body length and a CRC
//! (each a little-endian `u32`), then the body. Each format fills in the
//! tag and decides what the CRC covers.
//!
//! Reading takes two steps, so a format can refuse a bad tag before it
//! reads the body: [`read_header`], then [`read_body`]. They tell a clean
//! EOF (`Ok(None)`), a torn record, a length over the caller's bound and
//! an I/O error apart. `read_body` checks the bound before it reserves
//! anything and reserves at most [`MAX_RESERVE`] bytes before body bytes
//! arrive, so a header alone cannot make a reader allocate its length.

use std::io::{self, IoSlice, Read, Write};

use crate::crc32::{crc32, crc32_combine};

/// Record header length in bytes.
pub const RECORD_HEADER_LEN: usize = 16;

/// The most [`read_body`] reserves ahead of the body bytes read so far.
pub const MAX_RESERVE: usize = 256 * 1024;

/// The fixed-size front of one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// The format's two tag words (header bytes 0..8).
    pub tag: [u32; 2],
    /// Body length in bytes.
    pub len: u32,
    /// The stored CRC-32.
    pub crc: u32,
}

impl RecordHeader {
    /// The header of `body` under `tag`, storing the body's CRC-32.
    /// Panics if `body` is longer than `u32::MAX` bytes.
    pub fn new(tag: [u32; 2], body: &[u8]) -> RecordHeader {
        let len = u32::try_from(body.len()).expect("record body fits a u32 length");
        RecordHeader {
            tag,
            len,
            crc: crc32(body),
        }
    }

    /// The 16 header bytes.
    pub fn to_bytes(&self) -> [u8; RECORD_HEADER_LEN] {
        let mut out = [0u8; RECORD_HEADER_LEN];
        let words = [self.tag[0], self.tag[1], self.len, self.crc];
        for (dst, w) in out.chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// The header at the front of `bytes`, or `None` when `bytes` is
    /// shorter than a header.
    pub fn parse(bytes: &[u8]) -> Option<RecordHeader> {
        let hdr = bytes.get(..RECORD_HEADER_LEN)?;
        let w = |i: usize| u32::from_le_bytes(hdr[i..i + 4].try_into().expect("4 bytes"));
        Some(RecordHeader {
            tag: [w(0), w(4)],
            len: w(8),
            crc: w(12),
        })
    }

    /// The CRC-32 of the header's tag and length followed by a body whose
    /// own CRC-32 is `body_crc`, combined without hashing the body again.
    pub fn covered_crc(&self, body_crc: u32) -> u32 {
        crc32_combine(crc32(&self.to_bytes()[..12]), body_crc, u64::from(self.len))
    }
}

/// Why a record could not be read.
#[derive(Debug)]
pub enum RecordError {
    /// The stream ended inside the header or the body.
    Torn,
    /// The header declares a body of this many bytes, over the caller's
    /// bound.
    TooLong(u32),
    /// An underlying I/O failure.
    Io(io::Error),
}

/// Writes `header` and `body` as one vectored write, without copying the
/// body. The caller flushes.
pub fn write_record(w: &mut impl Write, header: &RecordHeader, body: &[u8]) -> io::Result<()> {
    let hdr = header.to_bytes();
    let mut slices = [IoSlice::new(&hdr), IoSlice::new(body)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one record header: `Ok(None)` at a clean EOF before its first
/// byte, [`RecordError::Torn`] at an EOF inside it.
pub fn read_header(r: &mut impl Read) -> Result<Option<RecordHeader>, RecordError> {
    let mut hdr = [0u8; RECORD_HEADER_LEN];
    let mut got = 0;
    while got < hdr.len() {
        match r.read(&mut hdr[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(RecordError::Torn),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(RecordError::Io(e)),
        }
    }
    Ok(RecordHeader::parse(&hdr))
}

/// Appends the body `header` declares to `buf` and returns its CRC-32.
///
/// A length over `bound` is [`RecordError::TooLong`] before anything is
/// reserved. Past that, `buf` grows by at most [`MAX_RESERVE`] bytes, or
/// by as many bytes as have arrived, ahead of the bytes read; they are
/// not zeroed first.
pub fn read_body(
    r: &mut impl Read,
    header: &RecordHeader,
    bound: u32,
    buf: &mut Vec<u8>,
) -> Result<u32, RecordError> {
    if header.len > bound {
        return Err(RecordError::TooLong(header.len));
    }
    let (start, len) = (buf.len(), header.len as usize);
    while buf.len() - start < len {
        let got = buf.len() - start;
        let step = (len - got).min(got.max(MAX_RESERVE));
        buf.reserve_exact(step);
        let read = Read::take(&mut *r, step as u64).read_to_end(buf);
        if read.map_err(RecordError::Io)? < step {
            return Err(RecordError::Torn);
        }
    }
    Ok(crc32(&buf[start..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headers_round_trip_through_bytes() {
        let h = RecordHeader::new([7, 0xdead_beef], b"body");
        assert_eq!(h.to_bytes()[..8], [7, 0, 0, 0, 0xef, 0xbe, 0xad, 0xde]);
        assert_eq!(RecordHeader::parse(&h.to_bytes()), Some(h));
        assert_eq!(RecordHeader::parse(&h.to_bytes()[..15]), None);
    }

    #[test]
    fn covered_crc_hashes_tag_length_and_body() {
        let h = RecordHeader::new([3, 1], b"payload");
        let mut covered = h.to_bytes()[..12].to_vec();
        covered.extend_from_slice(b"payload");
        assert_eq!(h.covered_crc(h.crc), crc32(&covered));
    }

    #[test]
    fn reads_tell_eof_torn_too_long_and_whole_apart() {
        let body: Vec<u8> = (0..MAX_RESERVE + 70_001).map(|i| i as u8).collect();
        let h = RecordHeader::new([u32::MAX, 0], &body);
        let mut bytes = Vec::new();
        write_record(&mut bytes, &h, &body).unwrap();

        let mut r = &bytes[..];
        let got = read_header(&mut r).unwrap().unwrap();
        let mut buf = Vec::new();
        assert_eq!(read_body(&mut r, &got, u32::MAX, &mut buf).unwrap(), h.crc);
        assert_eq!(buf, body);
        assert!(matches!(read_header(&mut r), Ok(None)));

        assert!(matches!(
            read_header(&mut &bytes[..9]),
            Err(RecordError::Torn)
        ));
        let mut r = &bytes[..bytes.len() - 1];
        let got = read_header(&mut r).unwrap().unwrap();
        assert!(matches!(
            read_body(&mut r, &got, u32::MAX, &mut Vec::new()),
            Err(RecordError::Torn)
        ));
        assert!(matches!(
            read_body(&mut &bytes[16..], &got, 1000, &mut Vec::new()),
            Err(RecordError::TooLong(_))
        ));
    }
}
