//! PC-indexed prediction tables.
//!
//! Every predictor in the paper is driven by a PC-indexed table. The paper
//! studies both *unlimited* tables (for the locality studies of §3) and
//! bounded, **tagless, direct-mapped** tables (8K entries for value
//! prediction, 4K for address prediction). Because bounded tables are
//! tagless, two static instructions can share an entry; the paper calls an
//! access that finds its entry last touched by a different instruction a
//! *conflict* and reports the conflict-miss rate in Figure 9.
//!
//! [`PcTable`] implements both flavours behind one interface and keeps the
//! conflict accounting needed to regenerate Figure 9.
//!
//! # Layout
//!
//! The bounded table is stored structure-of-arrays: slot owners (`tags`) and
//! an occupancy bitmap (`live`) sit in their own dense arrays, separate from
//! the entry payloads (`data`). A lookup touches one tag word and one bitmap
//! word before it ever dereferences the (much larger) payload — eight tags
//! share a cache line instead of one-or-two `Option<Slot<E>>` boxes — and
//! every payload slot is default-initialized up front, so claiming a fresh
//! slot writes a tag and a bit, never a payload. [`PcTable::geometry`]
//! reports the resulting memory footprint.
//!
//! Payloads are fixed-size: a gDiff entry holds at most `gdiff::MAX_ORDER`
//! differences and an FCM/DFCM entry at most [`MAX_CONTEXT`](crate::MAX_CONTEXT)
//! context items, inline. Once an entry exists, predict and update touch
//! no heap memory.
//!
//! # Hashing
//!
//! The unbounded table is a `HashMap` keyed by PC, and serve clients choose
//! those PCs, so its hash must not be predictable from outside: a client
//! that could steer many PCs into one bucket would turn every probe into a
//! long scan (HashDoS). Std's SipHash-1-3 is safe but slow for a lookup
//! made on every producer: once per producer on the profile path
//! ([`PcTable::entry_pair`]), twice when a pipeline predicts at dispatch
//! and updates at write-back.
//!
//! The table hashes with a keyed folded multiply instead: the 128-bit
//! product `(pc ^ k0) * k1` is folded to 64 bits as `lo ^ hi`, and the
//! finisher folds once more the same way, so every PC bit reaches both the
//! low bits (bucket index) and the top bits (control tag). One fold alone
//! leaves about one random key in a hundred under which a strided PC family
//! (`i << 2`, `i << 12`) piles dozens of PCs into one bucket; two folds
//! keep the worst bucket near what a random function gives. Each table
//! draws its own `k0` and odd `k1` from a fresh [`RandomState`], so the
//! keys are per-process random and differ between tables: a PC set crafted
//! against one table's keys says nothing about another's.
//!
//! Nothing reads the map in iteration order — lookups only — so the keys
//! decide which bucket an entry lands in but never any reported number.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::mem::size_of;

/// The capacity policy of a [`PcTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Capacity {
    /// One private entry per static instruction (the paper's "unlimited
    /// table"); no aliasing is possible.
    Unbounded,
    /// A tagless, direct-mapped table with the given number of entries.
    ///
    /// The entry index is `(pc >> 2) & (entries - 1)`, discarding the two
    /// low bits that are always zero for word-aligned instructions.
    Entries(usize),
}

impl Capacity {
    /// Number of entries, or `None` for [`Capacity::Unbounded`].
    pub fn entries(self) -> Option<usize> {
        match self {
            Capacity::Unbounded => None,
            Capacity::Entries(n) => Some(n),
        }
    }
}

/// Shape and footprint of a [`PcTable`], from [`PcTable::geometry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableGeometry {
    /// Number of direct-mapped slots probed by the index hash (`0` for an
    /// unbounded table, which has no fixed probe array).
    pub probe_len: usize,
    /// Number of occupied slots (bounded) or live entries (unbounded).
    pub occupied: usize,
    /// Bytes held by the table's storage arrays. Exact for bounded tables
    /// (tags + occupancy bitmap + payloads); for unbounded tables this is
    /// the payload-plus-key lower bound, excluding hash-map overhead.
    pub bytes: u64,
}

/// Bounded storage, structure-of-arrays: tags and occupancy apart from
/// payloads so the probe path stays inside one or two cache lines.
#[derive(Debug, Clone)]
struct DirectTable<E> {
    /// Owner PC per slot; meaningful only where the `live` bit is set.
    tags: Vec<u64>,
    /// Occupancy bitmap, one bit per slot (`idx >> 6` word, `idx & 63` bit).
    live: Vec<u64>,
    /// Slot payloads, default-initialized at construction.
    data: Vec<E>,
}

/// Per-table keys of the folded-multiply PC hash (see the module-level
/// "Hashing" section).
#[derive(Clone, Copy)]
struct FoldKeys {
    k0: u64,
    /// Always odd, so the multiply is a bijection on `u64`.
    k1: u64,
}

impl FoldKeys {
    fn new(k0: u64, k1: u64) -> FoldKeys {
        FoldKeys { k0, k1: k1 | 1 }
    }

    /// Fresh keys from std's per-process random hashing state.
    fn random() -> FoldKeys {
        let state = RandomState::new();
        FoldKeys::new(state.hash_one(0u64), state.hash_one(1u64))
    }
}

impl BuildHasher for FoldKeys {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            keys: *self,
            hash: 0,
        }
    }
}

/// Hasher state of [`FoldKeys`]. A `u64` key is exactly one
/// [`write_u64`](Hasher::write_u64); byte writes are folded in 8-byte
/// words so it stays a correct `Hasher` for any key type.
struct FoldHasher {
    keys: FoldKeys,
    hash: u64,
}

/// The 128-bit product `a * b` folded to 64 bits as `lo ^ hi`.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    p as u64 ^ (p >> 64) as u64
}

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.hash = fold(x ^ self.hash ^ self.keys.k0, self.keys.k1);
    }

    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..word.len()].copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    /// One more keyed fold (see the module-level "Hashing" section).
    #[inline]
    fn finish(&self) -> u64 {
        fold(self.hash ^ self.keys.k0, self.keys.k1)
    }
}

#[derive(Debug, Clone)]
enum Storage<E> {
    Unbounded(HashMap<u64, E, FoldKeys>),
    Direct(DirectTable<E>),
}

/// A PC-indexed prediction table with aliasing accounting.
///
/// `PcTable` is the storage substrate shared by every predictor in this
/// workspace. In bounded mode it behaves like the paper's tagless tables: a
/// lookup never misses, but the entry found may have last been trained by a
/// different instruction. The table records such *conflicts* so experiments
/// can report the Figure 9 conflict-miss rate via
/// [`conflict_rate`](Self::conflict_rate).
///
/// # Examples
///
/// ```
/// use predictors::{Capacity, PcTable};
///
/// let mut t: PcTable<u64> = PcTable::new(Capacity::Entries(4));
/// *t.entry_shared(0x1000) = 7;
/// // 0x1000 and 0x1040 collide in a 4-entry table (same index bits); a
/// // tagless table hands out the aliased state and counts the conflict.
/// assert_eq!(*t.entry_shared(0x1040), 7);
/// assert_eq!(t.conflicts(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PcTable<E> {
    storage: Storage<E>,
    accesses: u64,
    conflicts: u64,
}

impl<E: Default> PcTable<E> {
    /// Creates an empty table with the given capacity policy.
    ///
    /// # Panics
    ///
    /// Panics if a bounded capacity is zero or not a power of two (the
    /// index is computed with a bit mask, as in hardware).
    pub fn new(capacity: Capacity) -> Self {
        let storage = match capacity {
            Capacity::Unbounded => Storage::Unbounded(HashMap::with_hasher(FoldKeys::random())),
            Capacity::Entries(n) => {
                assert!(
                    n > 0 && n.is_power_of_two(),
                    "table entries must be a nonzero power of two"
                );
                let mut data = Vec::new();
                data.resize_with(n, E::default);
                Storage::Direct(DirectTable {
                    tags: vec![0; n],
                    live: vec![0; n.div_ceil(64)],
                    data,
                })
            }
        };
        PcTable {
            storage,
            accesses: 0,
            conflicts: 0,
        }
    }

    /// Returns the entry for `pc`, creating a default entry on first touch.
    ///
    /// In bounded mode, if the slot was last owned by a different PC the
    /// access is counted as a conflict and the slot is re-initialized to
    /// `E::default()` before being returned (a tagless table simply reuses
    /// whatever state is there; re-initializing models the destructive
    /// interference the paper measures — see also
    /// [`entry_shared`](Self::entry_shared) which preserves the state).
    pub fn entry(&mut self, pc: u64) -> &mut E {
        self.access(pc, true)
    }

    /// Like [`entry`](Self::entry) but *keeps* the aliased state on a
    /// conflict, exactly as tagless hardware would.
    ///
    /// Conflicts are still counted. This is the accessor predictors use;
    /// [`entry`](Self::entry) is a stricter variant useful in tests.
    pub fn entry_shared(&mut self, pc: u64) -> &mut E {
        self.access(pc, false)
    }

    /// One probe that stands for a predict access and the update access
    /// that follows it on the same `pc` — the profile loop's
    /// [`ValuePredictor::step`](crate::ValuePredictor::step).
    ///
    /// Counts exactly what two [`entry_shared`](Self::entry_shared) calls
    /// would: two accesses, and at most one conflict, because the first
    /// access leaves `pc` owning the slot. Figure 9's conflict rate is
    /// therefore the same whichever way a predictor is driven.
    pub fn entry_pair(&mut self, pc: u64) -> &mut E {
        self.accesses += 1;
        self.access(pc, false)
    }

    fn access(&mut self, pc: u64, reset_on_conflict: bool) -> &mut E {
        self.accesses += 1;
        match &mut self.storage {
            Storage::Unbounded(map) => map.entry(pc).or_default(),
            Storage::Direct(t) => {
                let idx = (pc >> 2) as usize & (t.tags.len() - 1);
                let bit = 1u64 << (idx & 63);
                if t.live[idx >> 6] & bit == 0 {
                    // First claim: the payload is already default — only the
                    // tag and occupancy bit are written.
                    t.live[idx >> 6] |= bit;
                    t.tags[idx] = pc;
                } else if t.tags[idx] != pc {
                    self.conflicts += 1;
                    t.tags[idx] = pc;
                    if reset_on_conflict {
                        t.data[idx] = E::default();
                    }
                }
                &mut t.data[idx]
            }
        }
    }

    /// Read-only lookup that does not allocate, count, or disturb ownership.
    pub fn peek(&self, pc: u64) -> Option<&E> {
        match &self.storage {
            Storage::Unbounded(map) => map.get(&pc),
            Storage::Direct(t) => {
                let idx = (pc >> 2) as usize & (t.tags.len() - 1);
                (t.live[idx >> 6] & (1u64 << (idx & 63)) != 0).then(|| &t.data[idx])
            }
        }
    }

    /// Total number of accesses made through [`entry`](Self::entry) /
    /// [`entry_shared`](Self::entry_shared) (one each) and
    /// [`entry_pair`](Self::entry_pair) (two).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of accesses that found their slot owned by a different PC.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Fraction of accesses that conflicted (the paper's Figure 9 metric).
    ///
    /// Returns `0.0` before any access.
    pub fn conflict_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.accesses as f64
        }
    }

    /// Number of distinct live entries (unbounded) or occupied slots
    /// (bounded).
    pub fn len(&self) -> usize {
        match &self.storage {
            Storage::Unbounded(map) => map.len(),
            Storage::Direct(t) => t.live.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Whether the table holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shape and memory footprint of the table's storage.
    pub fn geometry(&self) -> TableGeometry {
        match &self.storage {
            Storage::Unbounded(map) => TableGeometry {
                probe_len: 0,
                occupied: map.len(),
                bytes: (map.len() * (size_of::<E>() + size_of::<u64>())) as u64,
            },
            Storage::Direct(t) => TableGeometry {
                probe_len: t.tags.len(),
                occupied: self.len(),
                bytes: Self::bounded_bytes(t.tags.len()),
            },
        }
    }

    /// Bytes the storage arrays of a bounded table of `entries` slots hold
    /// (tags + occupancy bitmap + payloads): its
    /// [`geometry`](Self::geometry)`.bytes`, priced without building it.
    pub fn bounded_bytes(entries: usize) -> u64 {
        (entries * size_of::<u64>()
            + entries.div_ceil(64) * size_of::<u64>()
            + entries * size_of::<E>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_conflicts() {
        let mut t: PcTable<u64> = PcTable::new(Capacity::Unbounded);
        for pc in (0..1000u64).map(|i| i * 4) {
            *t.entry(pc) = pc;
        }
        for pc in (0..1000u64).map(|i| i * 4) {
            assert_eq!(*t.entry(pc), pc);
        }
        assert_eq!(t.conflicts(), 0);
        assert_eq!(t.len(), 1000);
        assert_eq!(t.accesses(), 2000);
    }

    #[test]
    fn direct_mapped_counts_conflicts() {
        let mut t: PcTable<u64> = PcTable::new(Capacity::Entries(2));
        *t.entry(0x0) = 1; // index 0
        *t.entry(0x4) = 2; // index 1
        *t.entry(0x8) = 3; // index 0 again -> conflict with 0x0
        assert_eq!(t.conflicts(), 1);
        *t.entry(0x8) = 4; // now owns index 0, no conflict
        assert_eq!(t.conflicts(), 1);
        assert_eq!(t.conflict_rate(), 0.25);
    }

    #[test]
    fn entry_resets_on_conflict_but_entry_shared_keeps_state() {
        let mut t: PcTable<u64> = PcTable::new(Capacity::Entries(1));
        *t.entry(0x0) = 42;
        assert_eq!(*t.entry_shared(0x4), 42); // aliased state preserved
        assert_eq!(t.conflicts(), 1);
        *t.entry_shared(0x4) = 43;
        assert_eq!(*t.entry(0x0), 0); // strict accessor resets
        assert_eq!(t.conflicts(), 2);
    }

    #[test]
    fn peek_is_nonintrusive() {
        let mut t: PcTable<u64> = PcTable::new(Capacity::Entries(2));
        assert!(t.peek(0x0).is_none());
        *t.entry(0x0) = 9;
        assert_eq!(t.peek(0x0), Some(&9));
        // peek at an aliasing pc sees the same slot but does not count a
        // conflict or steal ownership
        assert_eq!(t.peek(0x8), Some(&9));
        assert_eq!(t.conflicts(), 0);
        assert_eq!(*t.entry(0x0), 9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _t: PcTable<u64> = PcTable::new(Capacity::Entries(3));
    }

    #[test]
    fn capacity_entries_accessor() {
        assert_eq!(Capacity::Unbounded.entries(), None);
        assert_eq!(Capacity::Entries(8).entries(), Some(8));
    }

    #[test]
    fn pc_zero_claims_a_slot() {
        // PC 0 maps to slot 0 whose tag array is zero-initialized: the
        // occupancy bitmap, not the tag value, must decide first-claim.
        let mut t: PcTable<u64> = PcTable::new(Capacity::Entries(4));
        *t.entry(0x0) = 5;
        assert_eq!(t.conflicts(), 0);
        assert_eq!(*t.entry(0x0), 5);
        assert_eq!(t.conflicts(), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn geometry_reports_shape_and_bytes() {
        let mut t: PcTable<u64> = PcTable::new(Capacity::Entries(128));
        *t.entry(0x4) = 1;
        *t.entry(0x8) = 2;
        let g = t.geometry();
        assert_eq!(g.probe_len, 128);
        assert_eq!(g.occupied, 2);
        // 128 tags * 8 + 2 bitmap words * 8 + 128 payloads * 8
        assert_eq!(g.bytes, 128 * 8 + 2 * 8 + 128 * 8);

        let mut u: PcTable<u64> = PcTable::new(Capacity::Unbounded);
        *u.entry(0x4) = 1;
        let g = u.geometry();
        assert_eq!(g.probe_len, 0);
        assert_eq!(g.occupied, 1);
        assert_eq!(g.bytes, 16);
    }

    /// Worst bucket load on the low 16 bits and number of distinct top-7-bit
    /// tags (hashbrown's probe index and control byte) over `pcs`.
    fn flood_stats(pcs: &[u64], hash: impl Fn(u64) -> u64) -> (usize, usize) {
        let mut load = vec![0usize; 1 << 16];
        let mut tags = [false; 128];
        for &pc in pcs {
            let h = hash(pc);
            load[(h & 0xffff) as usize] += 1;
            tags[(h >> 57) as usize] = true;
        }
        let max = load.into_iter().max().unwrap_or(0);
        (max, tags.iter().filter(|&&t| t).count())
    }

    /// PC families with all their variation in bits a weak multiply hash
    /// drops: high bits only, page-strided, and a fixed low pattern.
    fn flood_families() -> [(&'static str, Vec<u64>); 3] {
        let n = 1u64 << 16;
        [
            ("i << 32", (0..n).map(|i| i << 32).collect()),
            ("i << 12", (0..n).map(|i| i << 12).collect()),
            (
                "(i << 20) | 0x40",
                (0..n).map(|i| (i << 20) | 0x40).collect(),
            ),
        ]
    }

    fn flood_resistant(stats: (usize, usize)) -> bool {
        stats.0 <= 16 && stats.1 >= 100
    }

    #[test]
    fn keyed_fold_spreads_crafted_pc_floods() {
        let mut keys = vec![
            FoldKeys::new(0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344),
            FoldKeys::new(0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89),
            FoldKeys::new(0x4528_21e6_38d0_1377, 0xbe54_66cf_34e9_0c6c),
            FoldKeys::new(0, 0x9e37_79b9_7f4a_7c15),
        ];
        keys.push(FoldKeys::random());
        for (name, pcs) in flood_families() {
            for (k, key) in keys.iter().enumerate() {
                let stats = flood_stats(&pcs, |pc| key.hash_one(pc));
                assert!(
                    flood_resistant(stats),
                    "{name}, key {k}: max load {}, {} tags",
                    stats.0,
                    stats.1
                );
            }
        }
    }

    #[test]
    fn unkeyed_multiply_fails_the_flood_check() {
        // The check has teeth: a plain multiply hash keeps the low bits of
        // a low-bit-poor PC low-bit-poor, so every family piles up.
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        for (name, pcs) in flood_families() {
            let stats = flood_stats(&pcs, |pc| pc.wrapping_mul(K));
            assert!(!flood_resistant(stats), "{name}: {stats:?}");
        }
    }

    #[test]
    fn fold_hasher_handles_byte_keys() {
        let mut m: HashMap<String, usize, FoldKeys> = HashMap::with_hasher(FoldKeys::random());
        for i in 0..100 {
            m.insert(format!("key-{i}"), i);
        }
        assert_eq!(m.len(), 100);
        assert!((0..100).all(|i| m.get(&format!("key-{i}")) == Some(&i)));
    }

    #[test]
    fn entry_pair_counts_like_two_shared_accesses() {
        // Same pcs through both accessors: first claims, repeats, aliases
        // that steal a slot back and forth, on a bounded and an unbounded
        // table.
        let pcs = [0x0, 0x0, 0x8, 0x4, 0x8, 0x0, 0x10, 0x4, 0x4];
        for cap in [Capacity::Entries(2), Capacity::Unbounded] {
            let mut pair: PcTable<u64> = PcTable::new(cap);
            let mut shared: PcTable<u64> = PcTable::new(cap);
            for (i, &pc) in pcs.iter().enumerate() {
                let before = *shared.entry_shared(pc);
                *shared.entry_shared(pc) = i as u64;
                let got = pair.entry_pair(pc);
                assert_eq!(*got, before, "{cap:?} pc {pc:#x}: same state found");
                *got = i as u64;
                assert_eq!(pair.accesses(), shared.accesses(), "{cap:?} step {i}");
                assert_eq!(pair.conflicts(), shared.conflicts(), "{cap:?} step {i}");
                assert_eq!(pair.len(), shared.len(), "{cap:?} step {i}");
            }
        }
        let mut t: PcTable<u64> = PcTable::new(Capacity::Entries(2));
        t.entry_pair(0x0);
        t.entry_pair(0x8); // steals slot 0: one conflict for both accesses
        assert_eq!((t.accesses(), t.conflicts()), (4, 1));
        assert_eq!(t.conflict_rate(), 0.25);
    }

    #[test]
    fn bounded_bytes_prices_the_built_table() {
        for n in [1usize, 2, 64, 128, 8192] {
            let t: PcTable<[u64; 3]> = PcTable::new(Capacity::Entries(n));
            assert_eq!(PcTable::<[u64; 3]>::bounded_bytes(n), t.geometry().bytes);
        }
    }

    #[test]
    fn sub_word_table_has_one_bitmap_word() {
        // Tables smaller than 64 slots still need one occupancy word.
        let mut t: PcTable<u64> = PcTable::new(Capacity::Entries(1));
        assert_eq!(t.geometry().bytes, 8 + 8 + 8);
        *t.entry(0x0) = 3;
        assert_eq!(t.len(), 1);
    }
}
