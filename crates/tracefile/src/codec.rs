//! The per-instruction delta codec.
//!
//! Each [`DynInst`] becomes a tag byte plus a handful of varints. All
//! wide fields are stored as zigzag-varint deltas against running context
//! ([`DeltaState`]):
//!
//! * `pc` — delta against the previous instruction's `pc` (fetch is mostly
//!   sequential, so this is usually one byte);
//! * `value` — delta against the last value produced by the *same op
//!   class* (stride locality within a class compresses far better than a
//!   single global last-value);
//! * `mem_addr` — delta against the last effective address of the same op
//!   class (separating load and store pointers);
//! * `target` — delta against the last control-flow target.
//!
//! The tag byte packs the op class (3 bits) and presence flags:
//!
//! ```text
//! bit 7    6    5     4     3    2..0
//!   taken  mem  src1  src0  dst  op
//! ```
//!
//! The codec is defined over *canonical* instructions — the shape the
//! [`DynInst`] constructors produce: `value == 0` when there is no
//! destination, `target == 0` and `taken == false`-or-meaningful when the
//! op is not control flow, sources packed left. Non-canonical instances
//! are normalized to that shape on decode (the dropped fields are
//! documented as meaningless by `DynInst`).
//!
//! [`DeltaState`] starts from zero at every chunk boundary, so chunks
//! decode independently — the property that makes the container seekable
//! and parallel-decodable.

use workloads::{DynInst, OpClass};

use crate::varint::{get_ivarint, put_ivarint, unzigzag, MAX_VARINT_LEN};

/// Number of op classes (tag values `0..OP_CLASSES` are valid).
pub const OP_CLASSES: usize = 7;

/// The longest encoding [`decode_inst`] accepts for one record: the tag
/// byte, three register bytes (dst, src0, src1) and four varints of at
/// most [`MAX_VARINT_LEN`] bytes each (pc, value, mem_addr, target). A
/// payload that decodes to `count` records is never longer than
/// `count × MAX_RECORD_LEN`, so readers can reject a larger declared
/// length before allocating for it.
pub const MAX_RECORD_LEN: usize = 1 + 3 + 4 * MAX_VARINT_LEN;

const TAG_DST: u8 = 1 << 3;
const TAG_SRC0: u8 = 1 << 4;
const TAG_SRC1: u8 = 1 << 5;
const TAG_MEM: u8 = 1 << 6;
const TAG_TAKEN: u8 = 1 << 7;

fn op_code(op: OpClass) -> u8 {
    match op {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::IntDiv => 2,
        OpClass::Load => 3,
        OpClass::Store => 4,
        OpClass::Branch => 5,
        OpClass::Jump => 6,
    }
}

fn op_from_code(code: u8) -> Option<OpClass> {
    Some(match code {
        0 => OpClass::IntAlu,
        1 => OpClass::IntMul,
        2 => OpClass::IntDiv,
        3 => OpClass::Load,
        4 => OpClass::Store,
        5 => OpClass::Branch,
        6 => OpClass::Jump,
        _ => return None,
    })
}

/// Running decode/encode context, reset at every chunk boundary.
#[derive(Debug, Clone, Default)]
pub struct DeltaState {
    last_pc: u64,
    last_value: [u64; OP_CLASSES],
    last_ea: [u64; OP_CLASSES],
    last_target: u64,
}

impl DeltaState {
    /// A fresh context (all references zero), as at a chunk start.
    pub fn new() -> Self {
        Self::default()
    }
}

#[inline]
fn delta(cur: u64, last: u64) -> i64 {
    cur.wrapping_sub(last) as i64
}

#[inline]
fn undelta(last: u64, d: i64) -> u64 {
    last.wrapping_add(d as u64)
}

/// Appends the encoding of `inst` to `out`, updating `state`.
pub fn encode_inst(out: &mut Vec<u8>, state: &mut DeltaState, inst: &DynInst) {
    let cls = op_code(inst.op) as usize;
    let mut tag = op_code(inst.op);
    if inst.dst.is_some() {
        tag |= TAG_DST;
    }
    if inst.srcs[0].is_some() {
        tag |= TAG_SRC0;
    }
    if inst.srcs[1].is_some() {
        tag |= TAG_SRC1;
    }
    if inst.mem_addr.is_some() {
        tag |= TAG_MEM;
    }
    if inst.taken {
        tag |= TAG_TAKEN;
    }
    out.push(tag);

    put_ivarint(out, delta(inst.pc, state.last_pc));
    state.last_pc = inst.pc;

    if let Some(d) = inst.dst {
        out.push(d);
    }
    if let Some(s) = inst.srcs[0] {
        out.push(s);
    }
    if let Some(s) = inst.srcs[1] {
        out.push(s);
    }
    if inst.dst.is_some() {
        put_ivarint(out, delta(inst.value, state.last_value[cls]));
        state.last_value[cls] = inst.value;
    }
    if let Some(a) = inst.mem_addr {
        put_ivarint(out, delta(a, state.last_ea[cls]));
        state.last_ea[cls] = a;
    }
    if inst.is_control() {
        put_ivarint(out, delta(inst.target, state.last_target));
        state.last_target = inst.target;
    }
}

/// Why a chunk payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended in the middle of an instruction record.
    Truncated {
        /// Byte offset within the payload where decoding stopped.
        at: usize,
    },
    /// The tag byte named an op class that does not exist.
    BadOpCode {
        /// Byte offset of the offending tag within the payload.
        at: usize,
        /// The op bits found there.
        code: u8,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { at } => {
                write!(f, "record truncated at payload offset {at}")
            }
            DecodeError::BadOpCode { at, code } => {
                write!(f, "invalid op code {code} at payload offset {at}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decodes one instruction from `buf` at `*pos`, advancing `*pos`.
pub fn decode_inst(
    buf: &[u8],
    pos: &mut usize,
    state: &mut DeltaState,
) -> Result<DynInst, DecodeError> {
    let tag_at = *pos;
    let truncated = |at: usize| DecodeError::Truncated { at };
    let tag = *buf.get(*pos).ok_or(truncated(tag_at))?;
    *pos += 1;
    let op = op_from_code(tag & 0x07).ok_or(DecodeError::BadOpCode {
        at: tag_at,
        code: tag & 0x07,
    })?;
    let cls = (tag & 0x07) as usize;

    let d = get_ivarint(buf, pos).ok_or(truncated(*pos))?;
    let pc = undelta(state.last_pc, d);
    state.last_pc = pc;

    let read_reg = |pos: &mut usize| -> Result<u8, DecodeError> {
        let b = *buf.get(*pos).ok_or(truncated(*pos))?;
        *pos += 1;
        Ok(b)
    };
    let dst = if tag & TAG_DST != 0 {
        Some(read_reg(pos)?)
    } else {
        None
    };
    let src0 = if tag & TAG_SRC0 != 0 {
        Some(read_reg(pos)?)
    } else {
        None
    };
    let src1 = if tag & TAG_SRC1 != 0 {
        Some(read_reg(pos)?)
    } else {
        None
    };

    let value = if tag & TAG_DST != 0 {
        let d = get_ivarint(buf, pos).ok_or(truncated(*pos))?;
        let v = undelta(state.last_value[cls], d);
        state.last_value[cls] = v;
        v
    } else {
        0
    };
    let mem_addr = if tag & TAG_MEM != 0 {
        let d = get_ivarint(buf, pos).ok_or(truncated(*pos))?;
        let a = undelta(state.last_ea[cls], d);
        state.last_ea[cls] = a;
        Some(a)
    } else {
        None
    };
    let target = if matches!(op, OpClass::Branch | OpClass::Jump) {
        let d = get_ivarint(buf, pos).ok_or(truncated(*pos))?;
        let t = undelta(state.last_target, d);
        state.last_target = t;
        t
    } else {
        0
    };

    Ok(DynInst {
        pc,
        op,
        dst,
        srcs: [src0, src1],
        value,
        mem_addr,
        taken: tag & TAG_TAKEN != 0,
        target,
    })
}

/// One varint at `*p` of a record window, the one-byte case first.
/// Accepts exactly what [`get_uvarint`](crate::varint::get_uvarint)
/// accepts; it cannot run off the window, since a record of four
/// maximal varints is [`MAX_RECORD_LEN`] bytes long.
#[inline]
fn window_varint(w: &[u8; MAX_RECORD_LEN], p: &mut usize) -> Option<i64> {
    let b = w[*p];
    *p += 1;
    if b < 0x80 {
        return Some(unzigzag(u64::from(b)));
    }
    let mut v = u64::from(b & 0x7f);
    let mut shift = 7;
    loop {
        let b = w[*p];
        *p += 1;
        // The 10th byte may only contribute the u64's top bit.
        if shift == 63 && b > 1 {
            return None;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Some(unzigzag(v));
        }
        shift += 7;
    }
}

/// The fast path of [`decode_payload`]: decodes one record from a window
/// holding at least a worst-case record, into locals, and returns it with
/// its length. `state` is committed only once the whole record decoded;
/// on any anomaly (bad op code, overlong or overflowing varint) it is left
/// untouched and the result is `None`, so [`decode_inst`] can decode the
/// record again from its start and report the error.
#[inline]
fn decode_window(w: &[u8; MAX_RECORD_LEN], state: &mut DeltaState) -> Option<(DynInst, usize)> {
    let tag = w[0];
    let op = op_from_code(tag & 0x07)?;
    let cls = (tag & 0x07) as usize;
    let mut p = 1;
    let pc = undelta(state.last_pc, window_varint(w, &mut p)?);
    let mut reg = |flag: u8| {
        (tag & flag != 0).then(|| {
            p += 1;
            w[p - 1]
        })
    };
    let (dst, src0, src1) = (reg(TAG_DST), reg(TAG_SRC0), reg(TAG_SRC1));
    let value = if tag & TAG_DST != 0 {
        Some(undelta(state.last_value[cls], window_varint(w, &mut p)?))
    } else {
        None
    };
    let mem_addr = if tag & TAG_MEM != 0 {
        Some(undelta(state.last_ea[cls], window_varint(w, &mut p)?))
    } else {
        None
    };
    let target = if matches!(op, OpClass::Branch | OpClass::Jump) {
        Some(undelta(state.last_target, window_varint(w, &mut p)?))
    } else {
        None
    };
    state.last_pc = pc;
    if let Some(v) = value {
        state.last_value[cls] = v;
    }
    if let Some(a) = mem_addr {
        state.last_ea[cls] = a;
    }
    if let Some(t) = target {
        state.last_target = t;
    }
    let inst = DynInst {
        pc,
        op,
        dst,
        srcs: [src0, src1],
        value: value.unwrap_or(0),
        mem_addr,
        taken: tag & TAG_TAKEN != 0,
        target: target.unwrap_or(0),
    };
    Some((inst, p))
}

/// Decodes exactly `count` instructions from a whole chunk payload.
///
/// The payload must contain nothing else: leftover bytes after the last
/// record report as [`PayloadErrorKind::TrailingBytes`].
///
/// While at least [`MAX_RECORD_LEN`] bytes remain, a record decodes
/// through a fixed-size window with a one-byte varint fast path. A record
/// the window rejects, and every record in the payload's last
/// `MAX_RECORD_LEN` bytes, goes through [`decode_inst`] from the record's
/// start with the state unmodified, so `decode_inst` alone decides every
/// error: the same record, kind and offset.
pub fn decode_payload(buf: &[u8], count: u32, out: &mut Vec<DynInst>) -> Result<(), PayloadError> {
    let mut state = DeltaState::new();
    let mut pos = 0usize;
    out.reserve(count as usize);
    for i in 0..count {
        let fast = buf
            .get(pos..pos + MAX_RECORD_LEN)
            .and_then(|w| decode_window(w.try_into().expect("window length"), &mut state));
        let inst = match fast {
            Some((inst, len)) => {
                pos += len;
                inst
            }
            None => decode_inst(buf, &mut pos, &mut state).map_err(|e| PayloadError {
                record: i,
                kind: PayloadErrorKind::Decode(e),
            })?,
        };
        out.push(inst);
    }
    if pos != buf.len() {
        return Err(PayloadError {
            record: count,
            kind: PayloadErrorKind::TrailingBytes {
                at: pos,
                len: buf.len(),
            },
        });
    }
    Ok(())
}

/// A decode failure positioned at a record within a chunk payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadError {
    /// Index of the record (0-based within the chunk) that failed.
    pub record: u32,
    /// What went wrong.
    pub kind: PayloadErrorKind,
}

/// The failure modes of [`decode_payload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadErrorKind {
    /// A record failed to decode.
    Decode(DecodeError),
    /// Bytes were left over after the declared record count.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        at: usize,
        /// Total payload length.
        len: usize,
    },
}

impl std::fmt::Display for PayloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            PayloadErrorKind::Decode(e) => write!(f, "record {}: {e}", self.record),
            PayloadErrorKind::TrailingBytes { at, len } => write!(
                f,
                "{} bytes of trailing garbage after the last record (offset {at} of {len})",
                len - at
            ),
        }
    }
}

impl std::error::Error for PayloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<DynInst> {
        vec![
            DynInst::alu(0x400, 3, [Some(1), Some(2)], 0xdead_beef),
            DynInst::alu(0x404, 3, [None, None], 0xdead_bef3),
            DynInst::mul(0x408, 4, [Some(3), None], 7),
            DynInst {
                op: OpClass::IntDiv,
                ..DynInst::alu(0x40c, 5, [Some(4), Some(3)], 2)
            },
            DynInst::load(0x410, 5, 29, 0x1000_0000, 42),
            DynInst::load(0x414, 6, 29, 0x1000_0008, 43),
            DynInst::store(0x418, 5, 29, 0x1000_0008),
            DynInst::branch(0x41c, 5, true, 0x400),
            DynInst::branch(0x420, 5, false, 0x400),
            DynInst::jump(0x424, 0x8000),
            DynInst::alu(u64::MAX, 63, [Some(63), Some(63)], u64::MAX),
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        let insts = sample();
        let mut buf = Vec::new();
        let mut enc = DeltaState::new();
        for inst in &insts {
            encode_inst(&mut buf, &mut enc, inst);
        }
        let mut out = Vec::new();
        decode_payload(&buf, insts.len() as u32, &mut out).unwrap();
        assert_eq!(out, insts);
    }

    #[test]
    fn sequential_code_compresses_well() {
        // 1000 loads marching through an array: pc deltas repeat, address
        // deltas repeat, value deltas repeat — each record should cost a
        // handful of bytes, far below the 35-byte fixed encoding.
        let mut buf = Vec::new();
        let mut enc = DeltaState::new();
        let n = 1000u64;
        for i in 0..n {
            let inst = DynInst::load(0x400 + 4 * i, 3, 29, 0x2000_0000 + 8 * i, 100 + i);
            encode_inst(&mut buf, &mut enc, &inst);
        }
        assert!(
            buf.len() as u64 <= 8 * n,
            "expected ≤8 bytes/inst, got {}",
            buf.len() as f64 / n as f64
        );
    }

    #[test]
    fn truncation_is_reported_not_panicked() {
        let insts = sample();
        let mut buf = Vec::new();
        let mut enc = DeltaState::new();
        for inst in &insts {
            encode_inst(&mut buf, &mut enc, inst);
        }
        for cut in 0..buf.len() {
            let mut out = Vec::new();
            let r = decode_payload(&buf[..cut], insts.len() as u32, &mut out);
            assert!(r.is_err(), "cut at {cut} decoded anyway");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        let mut enc = DeltaState::new();
        encode_inst(&mut buf, &mut enc, &DynInst::jump(0x400, 0x500));
        buf.push(0x00);
        let mut out = Vec::new();
        let e = decode_payload(&buf, 1, &mut out).unwrap_err();
        assert!(matches!(e.kind, PayloadErrorKind::TrailingBytes { .. }));
    }

    #[test]
    fn bad_op_code_is_reported() {
        // Tag 0x07 names op class 7, which does not exist.
        let buf = [0x07u8, 0x00];
        let mut out = Vec::new();
        let e = decode_payload(&buf, 1, &mut out).unwrap_err();
        assert!(matches!(
            e.kind,
            PayloadErrorKind::Decode(DecodeError::BadOpCode { code: 7, .. })
        ));
    }

    #[test]
    fn chunk_state_reset_makes_chunks_independent() {
        // Encoding the same instructions against a fresh state must yield
        // the same bytes regardless of what came before — the guarantee
        // the seekable chunk index relies on.
        let insts = sample();
        let mut warm = DeltaState::new();
        let mut scratch = Vec::new();
        for inst in &insts {
            encode_inst(&mut scratch, &mut warm, inst);
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut sa = DeltaState::new();
        let mut sb = DeltaState::new();
        for inst in &insts {
            encode_inst(&mut a, &mut sa, inst);
        }
        for inst in &insts {
            encode_inst(&mut b, &mut sb, inst);
        }
        assert_eq!(a, b);
    }
}
