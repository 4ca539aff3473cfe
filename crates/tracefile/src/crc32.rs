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
//! them. A bytewise tail handles lengths that are not a multiple of 16.
//! The values are bit-identical to the bytewise loop (pinned by the tests
//! below and by a golden wire-chunk CRC in the stream tests), so every
//! file, checkpoint and frame written by either verifies under the other.
//! Portable safe Rust, no `unsafe` and no `target_feature`: on a 2-vCPU
//! Intel Xeon VM it runs at ~1.6 GB/s against ~0.31 GB/s for the bytewise
//! loop (a 36 KB serve chunk: ~22 µs instead of ~118 µs).

/// Bytes folded per slicing step (and tables in [`TABLES`]).
const SLICES: usize = 16;

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
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
    let mut blocks = data.chunks_exact(SLICES);
    for b in &mut blocks {
        let a = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(a & 0xff) as usize]
            ^ t[14][((a >> 8) & 0xff) as usize]
            ^ t[13][((a >> 16) & 0xff) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][b[4] as usize]
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
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
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
}
