//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), slicing-by-16.
//!
//! The same checksum gzip/zip/PNG use; enough to catch the random bit rot
//! and truncation a trace file meets on disk or in transit. Not a defense
//! against adversarial modification.
//!
//! The kernel folds 16 input bytes per step through 16 lookup tables
//! (16×256 `u32`, 16 KiB, built at compile time), the classic
//! "slicing-by-N" generalisation of the bytewise table loop: table `k`
//! maps a byte to its CRC contribution `k` bytes further down the stream,
//! so the 16 lookups of one step are independent and the CPU overlaps
//! them. Only the four lookups of the first word depend on the running
//! CRC; the other twelve are folded first, so the chain carried from one
//! step to the next is one load and a few XORs long. A bytewise tail
//! handles lengths that are not a multiple of 16.
//! The values are bit-identical to the bytewise loop (pinned by the tests
//! below and by a golden wire-chunk CRC in the stream tests), so every
//! file, checkpoint and frame written by either verifies under the other.
//! Portable safe Rust, no `unsafe` and no `target_feature`: on a 2-vCPU
//! Intel Xeon VM it runs at ~3.4 GB/s against ~0.31 GB/s for the bytewise
//! loop (a 36 KB serve chunk: ~11 µs instead of ~118 µs); folding the
//! sixteen lookups in stream order, as the kernel first did, ran at
//! ~1.8 GB/s.
//!
//! [`crc32_combine`] is zlib's GF(2) combine: from the CRCs of two byte
//! strings and the second one's length it yields the CRC of their
//! concatenation in O(log len) carry-less multiplications, touching none
//! of the bytes. Because the combine is linear, the same call also splits
//! a CRC: given the CRCs of `A ‖ B` and of `A`, it yields the CRC of `B`.
//! The serve daemon relies on that to hash each byte it receives once: the
//! frame reader verifies the frame CRC over the whole `CHUNK` payload, and
//! the worker derives the embedded wire chunk's payload CRC from it by
//! hashing only the 24 bytes in front of that payload (sequence number and
//! chunk header), so the wire CRC check stays exact without a second pass.

/// Bytes folded per slicing step (and tables in [`TABLES`]).
const SLICES: usize = 16;

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][i]: the register update for byte i followed by k zero
    // bytes, i.e. byte i's contribution k positions later.
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// Computes the CRC-32 of `data` in one call.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xffff_ffffu32;
    let (blocks, tail) = data.as_chunks::<SLICES>();
    for b in blocks {
        let a = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        // The twelve lookups that do not depend on `crc` fold first, so
        // the chain carried from one block to the next is one load and
        // three XORs deep, not sixteen XORs.
        let rest = t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
        crc = rest
            ^ ((t[15][(a & 0xff) as usize] ^ t[14][((a >> 8) & 0xff) as usize])
                ^ (t[13][((a >> 16) & 0xff) as usize] ^ t[12][(a >> 24) as usize]));
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// `a · b mod P` over GF(2), in the reflected bit order CRC-32 uses
/// (bit 31 holds `x^0`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    p
}

/// `X2N[k] = x^(2^k) mod P`. The order of `x` divides `2^32 − 1`, so
/// `x^(2^(k+32)) = x^(2^k)` and 32 entries cover every `k`.
static X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        t[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    t
};

/// `x^(8n) mod P`: the operator that moves a CRC past `n` bytes.
fn x8nmodp(mut n: u64) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut k = 3; // 8n = n · 2^3
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// The CRC-32 of `A ‖ B` from `crc_a = crc32(A)`, `crc_b = crc32(B)` and
/// `len_b = B.len()` (zlib's `crc32_combine`).
///
/// The map is linear, so it also runs backwards:
/// `crc32_combine(crc32(A), crc32(A ‖ B), B.len()) == crc32(B)` — the
/// CRC of a suffix, derived from the whole string's CRC by hashing only
/// the prefix.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    multmodp(x8nmodp(len_b), crc_a) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table loop this kernel replaced, kept as the reference
    /// every slicing result must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn matches_the_standard_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn any_single_bit_flip_changes_the_crc() {
        let data: Vec<u8> = (0u16..256).map(|b| b as u8).collect();
        let clean = crc32(&data);
        let mut flipped = data.clone();
        for byte in 0..flipped.len() {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}.{bit} undetected");
                flipped[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn slicing_matches_bytewise_at_every_length_and_alignment() {
        // A fixed xorshift buffer: deterministic, no byte pattern the
        // tables could accidentally agree on.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..SLICES + 256)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for start in 0..SLICES {
            for len in 0..=256 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
    }

    /// The deterministic buffer the combine tests slice.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn combine_joins_and_splits_at_every_edge() {
        for len in [0usize, 1, 15, 16, 17, 40_000, 70_000] {
            let data = noise(len);
            let whole = crc32(&data);
            let mut splits = vec![0, 1, 24, len.saturating_sub(1), len];
            splits.retain(|&s| s <= len);
            for split in splits {
                let (a, b) = data.split_at(split);
                let (crc_a, crc_b) = (crc32(a), crc32(b));
                assert_eq!(
                    crc32_combine(crc_a, crc_b, b.len() as u64),
                    whole,
                    "join: len {len}, split {split}"
                );
                assert_eq!(
                    crc32_combine(crc_a, whole, b.len() as u64),
                    crc_b,
                    "derived suffix: len {len}, split {split}"
                );
            }
        }
    }

    #[test]
    fn shift_by_zero_bytes_is_the_identity() {
        assert_eq!(x8nmodp(0), 1 << 31);
        for c in [0, 1, 0xDEAD_BEEF, u32::MAX] {
            assert_eq!(multmodp(x8nmodp(0), c), c);
        }
        // The table wraps: squaring x^(2^31) gives x^(2^32) = x^1.
        assert_eq!(multmodp(X2N[31], X2N[31]), X2N[0]);
    }
}
