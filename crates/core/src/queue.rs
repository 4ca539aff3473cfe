//! The global value queue (GVQ).

use crate::MAX_ORDER;

/// Identifies one slot of a [`GlobalValueQueue`] for later patching.
///
/// Slot ids are monotonically increasing sequence numbers, so they stay
/// meaningful even after the ring buffer wraps; a stale id (older than the
/// queue's window) is simply rejected by [`GlobalValueQueue::patch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(u64);

impl SlotId {
    /// The raw sequence number (number of values pushed before this slot).
    pub fn sequence(self) -> u64 {
        self.0
    }
}

/// The global value queue: a fixed-order ring of the most recent values
/// produced by the dynamic instruction stream.
///
/// One structure serves all three of the paper's queue disciplines — what
/// differs is only *when* and *with what* the pipeline writes it:
///
/// * **GVQ** (§3): [`push`](Self::push) committed results in program order;
/// * **SGVQ** (§4): `push` speculative results in completion order;
/// * **HGVQ** (§5): [`push_speculative`](Self::push_speculative) a
///   local-stride prediction at dispatch (or
///   [`push_empty`](Self::push_empty) when the filler has nothing), then
///   [`patch`](Self::patch) the slot with the real result at write-back.
///
/// Reads are by *distance*: [`back`](Self::back)`(k)` is the value produced
/// `k` values ago relative to the queue head, and
/// [`back_from`](Self::back_from)`(slot, k)` is relative to a particular
/// slot — the form the HGVQ needs, because an instruction's correlation
/// distances are anchored at its own dispatch position.
///
/// # Examples
///
/// ```
/// use gdiff::GlobalValueQueue;
///
/// let mut q = GlobalValueQueue::new(4);
/// q.push(10);
/// q.push(20);
/// q.push(30);
/// assert_eq!(q.back(1), Some(30));
/// assert_eq!(q.back(3), Some(10));
/// assert_eq!(q.back(4), None); // beyond what was pushed
/// ```
#[derive(Debug, Clone)]
pub struct GlobalValueQueue {
    values: Vec<u64>,
    valid: Vec<bool>,
    head: u64,
    /// `head % values.len()`, cached so the per-value push never divides.
    head_idx: usize,
    /// Validity of the 64 most recent slots, *distance*-indexed: bit
    /// `k - 1` is set when the slot `k` values behind the head holds a
    /// resolved value. Shifted left on every push and patched alongside
    /// `valid`, it hands [`window`](Self::window) its whole availability
    /// mask in one AND — no per-lane `valid` loads — and is exact for any
    /// head-distance ≤ 64 ([`MAX_ORDER`], the widest any consumer reads).
    /// `valid` remains the source of truth for the wider distances only an
    /// over-`MAX_ORDER` queue can reach.
    valid_bits: u64,
}

impl GlobalValueQueue {
    /// Creates a queue of the given order (capacity in values).
    ///
    /// The paper uses order 8 for the profile studies and order 32 for the
    /// pipelined SGVQ/HGVQ predictors.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero.
    pub fn new(order: usize) -> Self {
        assert!(order > 0, "queue order must be nonzero");
        GlobalValueQueue {
            values: vec![0; order],
            valid: vec![false; order],
            head: 0,
            head_idx: 0,
            valid_bits: 0,
        }
    }

    /// The queue order (capacity).
    pub fn order(&self) -> usize {
        self.values.len()
    }

    /// Total number of slots ever claimed.
    pub fn pushed(&self) -> u64 {
        self.head
    }

    /// Appends a definitive value, returning its slot.
    #[inline]
    pub fn push(&mut self, value: u64) -> SlotId {
        self.push_slot(Some(value))
    }

    /// Appends a *speculative* value (the HGVQ filler), returning its slot
    /// for later [`patch`](Self::patch)ing.
    pub fn push_speculative(&mut self, value: u64) -> SlotId {
        self.push_slot(Some(value))
    }

    /// Claims a slot without any value (the filler had no prediction).
    /// Reads of the slot return `None` until it is patched.
    pub fn push_empty(&mut self) -> SlotId {
        self.push_slot(None)
    }

    #[inline]
    fn push_slot(&mut self, value: Option<u64>) -> SlotId {
        let idx = self.head_idx;
        match value {
            Some(v) => {
                self.values[idx] = v;
                self.valid[idx] = true;
            }
            None => self.valid[idx] = false,
        }
        self.valid_bits = (self.valid_bits << 1) | u64::from(value.is_some());
        let id = SlotId(self.head);
        self.head += 1;
        self.head_idx += 1;
        if self.head_idx == self.values.len() {
            self.head_idx = 0;
        }
        id
    }

    /// Replaces the value in `slot` with the real result.
    ///
    /// Returns `false` (and does nothing) when the slot has already left
    /// the queue window — a late write-back in a long-delay pipeline.
    pub fn patch(&mut self, slot: SlotId, value: u64) -> bool {
        if !self.contains(slot) {
            return false;
        }
        let dist = (self.head - slot.0) as usize;
        let idx = self
            .index_back(dist)
            .expect("contains() bounds the distance");
        self.values[idx] = value;
        self.valid[idx] = true;
        if dist <= 64 {
            self.valid_bits |= 1 << (dist - 1);
        }
        true
    }

    /// Whether `slot` is still inside the queue window.
    pub fn contains(&self, slot: SlotId) -> bool {
        slot.0 < self.head && self.head - slot.0 <= self.values.len() as u64
    }

    /// The value produced `k` values ago (`k = 1` is the most recent).
    ///
    /// Returns `None` if `k` is zero, exceeds the order, reaches before the
    /// first push, or lands on an unpatched empty slot.
    #[inline]
    pub fn back(&self, k: usize) -> Option<u64> {
        // One folded reach test (order and values-pushed-so-far at once)
        // keeps the per-distance closure paths lean.
        let reach = (self.values.len() as u64).min(self.head);
        if k == 0 || k as u64 > reach {
            return None;
        }
        let idx = if self.head_idx >= k {
            self.head_idx - k
        } else {
            self.head_idx + self.values.len() - k
        };
        let live = if k <= 64 {
            (self.valid_bits >> (k - 1)) & 1 != 0
        } else {
            self.valid[idx]
        };
        live.then(|| self.values[idx])
    }

    /// The value `k` slots before `slot` (not counting `slot` itself).
    ///
    /// This anchors distances at an instruction's own dispatch position,
    /// which is how the hybrid queue computes and consumes differences.
    pub fn back_from(&self, slot: SlotId, k: usize) -> Option<u64> {
        let seq = slot.0.checked_sub(k as u64)?;
        // The referenced slot must still be within the window *now*.
        self.value_at_seq(seq, (self.head - seq) as usize)
    }

    fn value_at_seq(&self, _seq: u64, dist_from_head: usize) -> Option<u64> {
        let idx = self.index_back(dist_from_head)?;
        let live = if dist_from_head <= 64 {
            (self.valid_bits >> (dist_from_head - 1)) & 1 != 0
        } else {
            self.valid[idx]
        };
        live.then(|| self.values[idx])
    }

    /// Ring index of the slot `dist` values behind the head, derived from
    /// the cached `head_idx` — a compare and subtract, never a division
    /// (the `seq % len` form costs an integer divide per queue read).
    #[inline]
    fn index_back(&self, dist: usize) -> Option<usize> {
        if dist == 0 || dist > self.values.len() {
            return None;
        }
        Some(if self.head_idx >= dist {
            self.head_idx - dist
        } else {
            self.head_idx + self.values.len() - dist
        })
    }

    /// Reads the whole head-anchored window in one pass over the ring:
    /// `out[k - 1]` receives the value [`back`](Self::back)`(k)` would
    /// return and bit `k - 1` of the returned mask is set when that slot is
    /// resolved.
    ///
    /// This is the batched form of `back` the per-completion hot path uses:
    /// one index computation and a sequential backwards walk replace one
    /// ring-index division per distance.
    ///
    /// # `MAX_ORDER` alignment
    ///
    /// The window is clamped to [`MAX_ORDER`] distances (the widest any
    /// [`GDiffCore`](crate::GDiffCore) can consume, matching the `u64`
    /// availability mask): a queue of a larger order exposes only its
    /// `MAX_ORDER` most recent values through this API. Lanes whose mask
    /// bit is clear are left untouched and carry unspecified values —
    /// consumers must gate every lane on the mask, exactly as
    /// [`GDiffCore::update_from_window`](crate::GDiffCore::update_from_window)
    /// does.
    #[inline]
    pub fn window(&self, out: &mut [u64; MAX_ORDER]) -> u64 {
        let len = self.values.len();
        let n = len
            .min(MAX_ORDER)
            .min(self.head.min(MAX_ORDER as u64) as usize);
        if n == 0 {
            return 0;
        }
        // Index of the newest value (distance 1), then walk backwards.
        let idx1 = if self.head_idx == 0 {
            len - 1
        } else {
            self.head_idx - 1
        };
        self.fill_window(idx1, 0, n, out)
    }

    /// Copies `n` lanes into `out`, walking the ring backwards from index
    /// `idx1` (the distance-1 slot, at head-distance `shift + 1`), wrapping
    /// branchlessly. A fixed-shape walk beats splitting into contiguous
    /// segment copies here: the split point moves every push, so segmented
    /// loops pay a mispredicted trip-count change per call on exactly the
    /// hot, small-order queues.
    ///
    /// Availability comes from `valid_bits` in one shift-and-mask whenever
    /// the bitmap covers every referenced head-distance (always, except an
    /// over-64-order queue read from a stale anchor).
    #[inline]
    fn fill_window(&self, idx1: usize, shift: usize, n: usize, out: &mut [u64; MAX_ORDER]) -> u64 {
        let len = self.values.len();
        let mut idx = idx1;
        if shift + n <= 64 {
            for lane in out.iter_mut().take(n) {
                *lane = self.values[idx];
                idx = if idx == 0 { len - 1 } else { idx - 1 };
            }
            let mask = if n == 64 { u64::MAX } else { (1 << n) - 1 };
            (self.valid_bits >> shift) & mask
        } else {
            let mut avail = 0u64;
            for (k, lane) in out.iter_mut().enumerate().take(n) {
                *lane = self.values[idx];
                avail |= u64::from(self.valid[idx]) << k;
                idx = if idx == 0 { len - 1 } else { idx - 1 };
            }
            avail
        }
    }

    /// Reads the window anchored at `slot` in one pass: `out[k - 1]`
    /// receives the value [`back_from`](Self::back_from)`(slot, k)` would
    /// return, with the same availability-mask contract (and the same
    /// [`MAX_ORDER`] clamp) as [`window`](Self::window).
    ///
    /// Distances reaching before the first push, or whose referenced slot
    /// has already left the queue window *now*, read as unavailable — the
    /// HGVQ write-back semantics.
    #[inline]
    pub fn window_from(&self, slot: SlotId, out: &mut [u64; MAX_ORDER]) -> u64 {
        let len = self.values.len();
        let Some(gap) = self.head.checked_sub(slot.0) else {
            return 0;
        };
        // Distance k from `slot` sits at head-distance gap + k: usable
        // while gap + k <= len (still in the window) and k <= slot.0
        // (after the first push).
        let n = (len as u64)
            .saturating_sub(gap)
            .min(slot.0)
            .min(MAX_ORDER as u64) as usize;
        if n == 0 {
            return 0;
        }
        // Distance 1 from the anchor is gap + 1 values behind the head.
        let idx1 = self
            .index_back(gap as usize + 1)
            .expect("n >= 1 bounds the anchor distance");
        self.fill_window(idx1, gap as usize, n, out)
    }

    /// Iterates over the resident values, most recent first (`None` for
    /// unpatched speculative slots), without allocating.
    pub fn iter(&self) -> impl Iterator<Item = Option<u64>> + '_ {
        (1..=self.order()).map(|k| self.back(k))
    }

    /// Snapshot of the resident values, most recent first (`None` for
    /// unpatched speculative slots). Mainly useful for tests and debugging;
    /// per-instruction paths should use the allocation-free
    /// [`iter`](Self::iter) instead.
    pub fn snapshot(&self) -> Vec<Option<u64>> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_distances_are_one_based() {
        let mut q = GlobalValueQueue::new(3);
        assert_eq!(q.back(1), None);
        q.push(5);
        assert_eq!(q.back(0), None);
        assert_eq!(q.back(1), Some(5));
        assert_eq!(q.back(2), None);
    }

    #[test]
    fn ring_wraps_and_drops_old_values() {
        let mut q = GlobalValueQueue::new(2);
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.back(1), Some(3));
        assert_eq!(q.back(2), Some(2));
        assert_eq!(q.back(3), None, "order exceeded");
    }

    #[test]
    fn patch_hits_live_slot() {
        let mut q = GlobalValueQueue::new(4);
        let s = q.push_speculative(99);
        q.push(1);
        assert!(q.patch(s, 42));
        assert_eq!(q.back(2), Some(42));
    }

    #[test]
    fn patch_rejects_evicted_slot() {
        let mut q = GlobalValueQueue::new(2);
        let s = q.push(1);
        q.push(2);
        q.push(3); // evicts slot s
        assert!(!q.patch(s, 42));
        assert_eq!(q.back(2), Some(2));
    }

    #[test]
    fn empty_slots_read_as_none_until_patched() {
        let mut q = GlobalValueQueue::new(4);
        let s = q.push_empty();
        q.push(7);
        assert_eq!(q.back(2), None);
        assert!(q.patch(s, 5));
        assert_eq!(q.back(2), Some(5));
    }

    #[test]
    fn back_from_anchors_at_slot() {
        let mut q = GlobalValueQueue::new(8);
        q.push(10);
        q.push(20);
        let s = q.push(30);
        q.push(40); // newer than s; must be invisible to back_from(s, _)
        assert_eq!(q.back_from(s, 1), Some(20));
        assert_eq!(q.back_from(s, 2), Some(10));
        assert_eq!(q.back_from(s, 3), None, "before first push");
    }

    #[test]
    fn back_from_respects_current_window() {
        let mut q = GlobalValueQueue::new(2);
        q.push(10);
        let s = q.push(20);
        // Values at distance 1 from s (the 10) are still in the window now.
        assert_eq!(q.back_from(s, 1), Some(10));
        q.push(30); // evicts the 10
        assert_eq!(q.back_from(s, 1), None, "referenced slot left the window");
    }

    #[test]
    fn contains_tracks_window() {
        let mut q = GlobalValueQueue::new(2);
        let a = q.push(1);
        assert!(q.contains(a));
        q.push(2);
        assert!(q.contains(a));
        q.push(3);
        assert!(!q.contains(a));
    }

    #[test]
    fn snapshot_lists_recent_first() {
        let mut q = GlobalValueQueue::new(3);
        q.push(1);
        q.push(2);
        assert_eq!(q.snapshot(), vec![Some(2), Some(1), None]);
    }

    #[test]
    fn iter_matches_snapshot() {
        let mut q = GlobalValueQueue::new(3);
        q.push(7);
        q.push_empty();
        assert_eq!(q.iter().collect::<Vec<_>>(), q.snapshot());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_order_rejected() {
        let _ = GlobalValueQueue::new(0);
    }

    #[test]
    fn window_matches_back() {
        let mut q = GlobalValueQueue::new(4);
        q.push(10);
        q.push_empty();
        q.push(30);
        q.push(40);
        q.push(50); // wraps: 10 evicted
        let mut w = [0u64; MAX_ORDER];
        let avail = q.window(&mut w);
        for k in 1..=4usize {
            let got = (avail >> (k - 1)) & 1 != 0;
            assert_eq!(q.back(k).is_some(), got, "k={k}");
            if let Some(v) = q.back(k) {
                assert_eq!(w[k - 1], v, "k={k}");
            }
        }
        assert_eq!(avail & !0b1111, 0, "no bits beyond the order");
    }

    #[test]
    fn window_on_empty_queue_is_empty() {
        let q = GlobalValueQueue::new(8);
        let mut w = [0u64; MAX_ORDER];
        assert_eq!(q.window(&mut w), 0);
    }

    #[test]
    fn window_from_matches_back_from() {
        let mut q = GlobalValueQueue::new(4);
        q.push(10);
        q.push(20);
        let s = q.push(30);
        q.push(40);
        q.push(50); // 10 leaves the window
        let mut w = [0u64; MAX_ORDER];
        let avail = q.window_from(s, &mut w);
        for k in 1..=4usize {
            let expect = q.back_from(s, k);
            let got = (avail >> (k - 1)) & 1 != 0;
            assert_eq!(expect.is_some(), got, "k={k}");
            if let Some(v) = expect {
                assert_eq!(w[k - 1], v, "k={k}");
            }
        }
    }

    #[test]
    fn window_clamps_to_max_order() {
        let mut q = GlobalValueQueue::new(MAX_ORDER + 8);
        for i in 0..(MAX_ORDER as u64 + 8) {
            q.push(i);
        }
        let mut w = [0u64; MAX_ORDER];
        let avail = q.window(&mut w);
        assert_eq!(avail, u64::MAX, "all MAX_ORDER lanes resolved");
        for k in 1..=MAX_ORDER {
            assert_eq!(Some(w[k - 1]), q.back(k), "k={k}");
        }
    }
}
