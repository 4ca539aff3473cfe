//! The gDiff prediction table and difference-matching logic.
//!
//! The per-completion update is the simulator's hot path. It is tiered:
//! the *selected* distance is re-checked first (one subtract and compare),
//! and while it keeps matching — the steady state the paper's hysteresis
//! exists to exploit — the update reduces to a straight-line
//! subtract-and-store sweep over the lanes, a shape the autovectorizer
//! lowers to SSE2/NEON on stable Rust (no `std::simd`, no intrinsics).
//! Only when the selection breaks does the **lane-parallel kernel** run:
//! differences are computed, compared against the stored vector, and
//! stored back in fixed-width chunks of [`LANES`] `i64` lanes with
//! branchless select-stores and compare-masks packed into the `u64`
//! availability bitmask; smallest-match selection is then one
//! `trailing_zeros`. The semantics are bit-exact with the paper's scalar
//! `1..=order` scan, kept in [`crate::reference::ReferenceCore`] as the
//! equivalence-test oracle.

use predictors::{Capacity, PcTable, TableGeometry};

/// The largest queue order any [`GDiffCore`] supports.
///
/// Entries store their differences in a fixed inline array of this size,
/// so the per-completion update path never touches the heap: hardware
/// would provision a fixed number of difference fields per entry, and the
/// paper's configurations (order 8 profile, order 32 pipelined, order 64
/// in the queue-order ablation) all fit.
pub const MAX_ORDER: usize = 64;

/// Lane width of the chunked diff-match kernel: 8 `i64` lanes per
/// iteration, a multiple of every SIMD width from SSE2 (2 lanes) to
/// AVX-512 (8 lanes), so the fixed-bound inner loops vectorize cleanly.
const LANES: usize = 8;

/// Bitmask selecting the low `order` lanes of an availability/match mask.
#[inline]
fn lane_mask(order: usize) -> u64 {
    if order >= 64 {
        u64::MAX
    } else {
        (1u64 << order) - 1
    }
}

/// The fused per-completion kernel: computes `actual − values[i]` for every
/// lane, packs `calc == stored` compare bits into a match mask, and
/// select-stores the fresh differences where `avail` allows — in
/// [`LANES`]-wide chunks plus a scalar remainder.
///
/// Per-lane order (compare the *old* stored difference, then overwrite) is
/// what makes this bit-exact with the scalar two-pass formulation; lanes
/// whose `avail` bit is clear may hold garbage in `values`, but their
/// compare bit is masked off and their store is suppressed.
#[inline]
fn match_and_store(
    diffs: &mut [i64; MAX_ORDER],
    values: &[u64; MAX_ORDER],
    actual: u64,
    avail: u64,
    order: usize,
) -> u64 {
    let mut mask = 0u64;
    let chunks = diffs[..order]
        .chunks_exact_mut(LANES)
        .zip(values[..order].chunks_exact(LANES));
    let mut base = 0;
    for (dc, vc) in chunks {
        let mut m = 0u64;
        for (j, (d_slot, &v)) in dc.iter_mut().zip(vc).enumerate() {
            let d = actual.wrapping_sub(v) as i64;
            m |= u64::from(d == *d_slot) << j;
            let take = (avail >> (base + j)) & 1 != 0;
            *d_slot = if take { d } else { *d_slot };
        }
        mask |= m << base;
        base += LANES;
    }
    let tail = diffs[base..order].iter_mut().zip(&values[base..order]);
    for (i, (d_slot, &v)) in tail.enumerate().map(|(j, p)| (base + j, p)) {
        let d = actual.wrapping_sub(v) as i64;
        mask |= u64::from(d == *d_slot) << i;
        let take = (avail >> i) & 1 != 0;
        *d_slot = if take { d } else { *d_slot };
    }
    mask & avail
}

/// The steady-state store sweep: writes the fresh differences without
/// computing any match mask. The all-lanes-available case is a bare
/// subtract-and-store loop (the autovectorizer's favourite shape); partial
/// availability falls back to per-lane select-stores.
#[inline]
fn store_diffs(
    diffs: &mut [i64; MAX_ORDER],
    values: &[u64; MAX_ORDER],
    actual: u64,
    avail: u64,
    order: usize,
) {
    let lanes = diffs[..order].iter_mut().zip(&values[..order]);
    if avail == lane_mask(order) {
        for (d, &v) in lanes {
            *d = actual.wrapping_sub(v) as i64;
        }
    } else {
        for (i, (d, &v)) in lanes.enumerate() {
            let fresh = actual.wrapping_sub(v) as i64;
            let take = (avail >> i) & 1 != 0;
            *d = if take { fresh } else { *d };
        }
    }
}

/// One prediction-table entry (Figure 5): the `n` differences between the
/// instruction's last result and the `n` values that finished immediately
/// before it, plus the *selected distance*.
///
/// Differences live in a fixed inline array (no per-entry heap storage);
/// only the first `order` slots — fixed per [`GDiffCore`] — are ever used.
#[derive(Debug, Clone)]
pub struct GDiffEntry {
    /// `diffs[i]` is the difference at distance `i + 1`.
    diffs: [i64; MAX_ORDER],
    /// How many leading slots of `diffs` are meaningful (the core's order).
    order: u16,
    /// Whether `diffs` holds at least one observation.
    seen: bool,
    /// The selected distance `k` (1-based), once a repeat has been found.
    distance: Option<u16>,
}

impl Default for GDiffEntry {
    fn default() -> Self {
        GDiffEntry {
            diffs: [0; MAX_ORDER],
            order: 0,
            seen: false,
            distance: None,
        }
    }
}

impl GDiffEntry {
    /// The selected distance, if one has been learned.
    pub fn distance(&self) -> Option<usize> {
        self.distance.map(usize::from)
    }

    /// The stored difference at `distance` (1-based), if recorded.
    pub fn diff(&self, distance: usize) -> Option<i64> {
        if !self.seen || distance == 0 || distance > usize::from(self.order) {
            return None;
        }
        self.diffs.get(distance - 1).copied()
    }
}

/// The order-`n` gDiff prediction mechanism (Figure 5), decoupled from any
/// particular queue.
///
/// `GDiffCore` owns only the PC-indexed table and has one entry point per
/// pipeline event. A prediction reads **one** queue slot, the selected
/// distance `k`, through a closure
/// ([`predict_with_tap`](Self::predict_with_tap)). A completion trains
/// against all `n` slots at once, read by the caller as a queue window
/// ([`update_from_window`](Self::update_from_window)). This is what lets the
/// same mechanism drive all three queue disciplines: the profile-mode
/// [`GDiffPredictor`](crate::GDiffPredictor) reads relative to the queue
/// head, while the [`HgvqPredictor`](crate::HgvqPredictor) reads relative
/// to the instruction's own dispatch slot.
///
/// # Update policy
///
/// On completion the core computes all `n` differences `actual − value(k)`
/// and compares them with the stored ones (§3):
///
/// * a distance whose difference *repeats* becomes the selected distance —
///   keeping the current selection if it still matches (hysteresis),
///   otherwise the smallest matching distance;
/// * the freshly calculated differences are then stored; on no match the
///   selected distance is left unchanged, per the paper.
///
/// Learning therefore takes exactly two productions of an instruction.
#[derive(Debug, Clone)]
pub struct GDiffCore {
    table: PcTable<GDiffEntry>,
    order: usize,
}

impl GDiffCore {
    /// Creates a core of the given table capacity and queue order `n`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero or exceeds [`MAX_ORDER`].
    pub fn new(capacity: Capacity, order: usize) -> Self {
        assert!(order > 0, "gdiff order must be nonzero");
        assert!(
            order <= MAX_ORDER,
            "gdiff order exceeds MAX_ORDER ({MAX_ORDER})"
        );
        GDiffCore {
            table: PcTable::new(capacity),
            order,
        }
    }

    /// The queue order `n` this core was built for.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Predicts the value of `pc`, reading the queue through `value_at`
    /// (`value_at(k)` = the value at distance `k`, or `None` when that slot
    /// is unavailable). Only the selected distance is ever read.
    ///
    /// Returns the prediction plus the attempt's provenance: the selected
    /// distance `k` and its stored difference, reported even when the
    /// queue slot at `k` is unavailable and no prediction results. The
    /// tap reuses the single table lookup, so callers that want only the
    /// value take `.0` at no extra cost.
    pub fn predict_with_tap(
        &mut self,
        pc: u64,
        value_at: impl Fn(usize) -> Option<u64>,
    ) -> (Option<u64>, Option<(u16, i64)>) {
        let e = self.table.entry_shared(pc);
        let Some(k) = e.distance else {
            return (None, None);
        };
        let Some(&diff) = e.diffs.get(usize::from(k) - 1) else {
            return (None, None);
        };
        let value = value_at(usize::from(k)).map(|base| base.wrapping_add(diff as u64));
        (value, Some((k, diff)))
    }

    /// The per-completion hot path: trains the table with `pc`'s actual
    /// result from a queue window read in one pass (`values[k - 1]` = value
    /// at distance `k`, `avail` bit `k - 1` = that lane is resolved), as
    /// [`GlobalValueQueue::window`](crate::GlobalValueQueue::window) /
    /// [`window_from`](crate::GlobalValueQueue::window_from) produce it,
    /// anchored the same way predictions for this instruction are anchored.
    ///
    /// Lanes without their `avail` bit may carry any value — they are
    /// masked out of both the match and the store (an unavailable slot
    /// keeps its previous difference, so a transiently empty HGVQ slot does
    /// not erase learned state). Availability bits at or beyond the core's
    /// order are ignored, which is what lets a wider queue share one
    /// `MAX_ORDER` window buffer. No heap allocation ever happens here.
    ///
    /// Hysteresis runs first: while the selected distance keeps matching,
    /// no other lane's match can change the selection, so the whole
    /// compare-mask is dead — one subtract-and-compare decides, and the
    /// update collapses to the plain `store_diffs` sweep. Only a broken
    /// (or absent) selection pays for the full matching kernel plus
    /// smallest-match selection; when nothing matches there either, the
    /// selection is left unchanged, per the paper.
    #[inline]
    pub fn update_from_window(
        &mut self,
        pc: u64,
        actual: u64,
        values: &[u64; MAX_ORDER],
        avail: u64,
    ) {
        let order = self.order;
        let e = self.table.entry_shared(pc);
        let avail = avail & lane_mask(order);
        let keep = match e.distance {
            Some(k) if e.seen => {
                let i = usize::from(k) - 1;
                (avail >> i) & 1 != 0 && actual.wrapping_sub(values[i]) as i64 == e.diffs[i]
            }
            _ => false,
        };
        if keep || !e.seen {
            store_diffs(&mut e.diffs, values, actual, avail, order);
        } else {
            let mask = match_and_store(&mut e.diffs, values, actual, avail, order);
            if mask != 0 {
                e.distance = Some(mask.trailing_zeros() as u16 + 1);
            }
        }
        e.order = order as u16;
        e.seen = true;
    }

    /// The table entry for `pc`, if one exists (read-only; for tests,
    /// statistics and debugging).
    pub fn entry(&self, pc: u64) -> Option<&GDiffEntry> {
        self.table.peek(pc)
    }

    /// Conflict (aliasing) rate of the prediction table — the Figure 9
    /// metric.
    pub fn conflict_rate(&self) -> f64 {
        self.table.conflict_rate()
    }

    /// Total accesses to the prediction table.
    pub fn table_accesses(&self) -> u64 {
        self.table.accesses()
    }

    /// Total aliasing conflicts observed at the prediction table — the
    /// exact integer count behind [`GDiffCore::conflict_rate`], exported
    /// so sweep checkpoints can store counts and derive rates at render
    /// time (f64 rates don't round-trip bit-exactly through JSON).
    pub fn table_conflicts(&self) -> u64 {
        self.table.conflicts()
    }

    /// Memory-layout facts of the prediction table (probe-array length,
    /// occupancy, resident bytes) for the table-geometry gauges.
    pub fn geometry(&self) -> TableGeometry {
        self.table.geometry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed "queue" backed by a slice: `values[0]` is distance 1.
    fn q(values: &[u64]) -> impl Fn(usize) -> Option<u64> + '_ {
        move |k| values.get(k - 1).copied()
    }

    /// Packs a slice into the window form (`values[0]` is distance 1, every
    /// listed slot available) and trains pc 0 with `actual` against it.
    fn update(c: &mut GDiffCore, actual: u64, values: &[u64]) {
        let mut w = [0u64; MAX_ORDER];
        w[..values.len()].copy_from_slice(values);
        c.update_from_window(0, actual, &w, lane_mask(values.len()));
    }

    #[test]
    fn learns_distance_after_two_productions() {
        let mut c = GDiffCore::new(Capacity::Unbounded, 4);
        // First production: actual 5, queue [9, 1, 7]: diffs [-4, 4, -2].
        update(&mut c, 5, &[9, 1, 7]);
        assert_eq!(c.entry(0).unwrap().distance(), None);
        // Second production: actual 12, queue [3, 8, 2]: diffs [9, 4, 10].
        // Distance 2 repeats with diff 4.
        update(&mut c, 12, &[3, 8, 2]);
        assert_eq!(c.entry(0).unwrap().distance(), Some(2));
        assert_eq!(c.entry(0).unwrap().diff(2), Some(4));
        // Prediction: queue [6, 3, 1] -> 3 + 4 = 7, tapped at (k=2, diff 4).
        assert_eq!(
            c.predict_with_tap(0, q(&[6, 3, 1])),
            (Some(7), Some((2, 4)))
        );
    }

    #[test]
    fn no_prediction_before_distance_selected() {
        let mut c = GDiffCore::new(Capacity::Unbounded, 4);
        assert_eq!(c.predict_with_tap(0, q(&[1, 2, 3, 4])), (None, None));
        update(&mut c, 5, &[1, 2, 3, 4]);
        assert_eq!(c.predict_with_tap(0, q(&[1, 2, 3, 4])), (None, None));
    }

    #[test]
    fn hysteresis_prefers_current_distance() {
        let mut c = GDiffCore::new(Capacity::Unbounded, 4);
        // Establish distance 3 with diff 0 (value equality), while distance
        // 1 also happens to repeat. Smallest-match would pick 1; once 3 is
        // selected it must stick while it keeps matching.
        update(&mut c, 5, &[5, 9, 5, 2]);
        update(&mut c, 6, &[6, 1, 6, 3]);
        assert_eq!(c.entry(0).unwrap().distance(), Some(1)); // first match: smallest
                                                             // Now break distances 1/2/4 but keep distance 3 matching (diff 0).
        update(&mut c, 7, &[4, 9, 7, 8]);
        // dist1 diff: 3 (was 0) no match; dist3 diff: 0 == stored 0 -> match.
        assert_eq!(c.entry(0).unwrap().distance(), Some(3));
        // And while 3 keeps matching, it stays selected even if 1 matches too.
        update(&mut c, 9, &[6, 5, 9, 1]); // dist1 diff 3 (matches stored 3), dist3 diff 0
        assert_eq!(c.entry(0).unwrap().distance(), Some(3));
    }

    #[test]
    fn no_match_keeps_distance_but_stores_diffs() {
        let mut c = GDiffCore::new(Capacity::Unbounded, 2);
        update(&mut c, 10, &[4, 6]); // diffs [6, 4]
        update(&mut c, 20, &[14, 2]); // diffs [6, 18] -> distance 1
        assert_eq!(c.entry(0).unwrap().distance(), Some(1));
        update(&mut c, 30, &[1, 2]); // diffs [29, 28]: no match
        let e = c.entry(0).unwrap();
        assert_eq!(
            e.distance(),
            Some(1),
            "distance must not change on mismatch"
        );
        assert_eq!(e.diff(1), Some(29), "diffs must refresh on mismatch");
    }

    #[test]
    fn unavailable_slots_do_not_erase_diffs() {
        let mut c = GDiffCore::new(Capacity::Unbounded, 2);
        update(&mut c, 10, &[4, 6]);
        // Distance-2 slot unavailable this time; its stored diff survives.
        update(&mut c, 20, &[14]);
        assert_eq!(c.entry(0).unwrap().diff(2), Some(4));
        assert_eq!(c.entry(0).unwrap().distance(), Some(1));
    }

    #[test]
    fn prediction_requires_live_slot() {
        let mut c = GDiffCore::new(Capacity::Unbounded, 2);
        update(&mut c, 10, &[4, 6]);
        update(&mut c, 20, &[14, 2]);
        assert_eq!(c.predict_with_tap(0, |_| None).0, None);
    }

    #[test]
    fn unavailable_selected_slot_still_taps() {
        let mut c = GDiffCore::new(Capacity::Unbounded, 4);
        update(&mut c, 5, &[9, 1, 7]);
        update(&mut c, 12, &[3, 8, 2]);
        // Selected distance 2 unavailable: no value, provenance still taps.
        let read = |k: usize| (k != 2).then_some(6);
        assert_eq!(c.predict_with_tap(0, read), (None, Some((2, 4))));
    }

    #[test]
    fn wrapping_differences_are_handled() {
        let mut c = GDiffCore::new(Capacity::Unbounded, 1);
        // actual is smaller than the queue value: negative diff via wrap.
        update(&mut c, 5, &[u64::MAX]);
        update(&mut c, 7, &[1]); // diff 6 both times
        assert_eq!(c.entry(0).unwrap().distance(), Some(1));
        assert_eq!(c.predict_with_tap(0, q(&[10])).0, Some(16));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_order_rejected() {
        let _ = GDiffCore::new(Capacity::Unbounded, 0);
    }

    #[test]
    #[should_panic(expected = "MAX_ORDER")]
    fn oversized_order_rejected() {
        let _ = GDiffCore::new(Capacity::Unbounded, MAX_ORDER + 1);
    }

    #[test]
    fn diff_beyond_order_is_none() {
        let mut c = GDiffCore::new(Capacity::Unbounded, 2);
        update(&mut c, 10, &[4, 6]);
        let e = c.entry(0).unwrap();
        assert_eq!(e.diff(2), Some(4));
        assert_eq!(e.diff(3), None, "beyond the core's order");
        assert_eq!(e.diff(MAX_ORDER + 5), None);
    }

    #[test]
    fn max_order_core_works_end_to_end() {
        let mut c = GDiffCore::new(Capacity::Unbounded, MAX_ORDER);
        let vals: Vec<u64> = (0..MAX_ORDER as u64).collect();
        update(&mut c, 100, &vals);
        let next: Vec<u64> = vals.iter().map(|v| v + 100).collect();
        update(&mut c, 200, &next);
        // Every distance repeats; smallest wins.
        assert_eq!(c.entry(0).unwrap().distance(), Some(1));
    }

    #[test]
    fn avail_bits_beyond_order_are_ignored() {
        let mut c = GDiffCore::new(Capacity::Unbounded, 2);
        let mut w = [0u64; MAX_ORDER];
        (w[0], w[1], w[2]) = (4, 6, 99);
        c.update_from_window(0, 10, &w, u64::MAX); // bits ≥ 2 must not count
        let e = c.entry(0).unwrap();
        assert_eq!(e.diff(1), Some(6));
        assert_eq!(e.diff(2), Some(4));
        assert_eq!(e.diff(3), None, "beyond the core's order");
    }

    #[test]
    fn garbage_in_masked_lanes_is_harmless() {
        let mut c = GDiffCore::new(Capacity::Unbounded, 4);
        update(&mut c, 10, &[4, 6, 2, 9]);
        // Lane 0 (distance 1) is unavailable but carries a value that
        // *would* match its stored diff of 6; only lanes 1 and 3 are live.
        let mut w = [0u64; MAX_ORDER];
        (w[0], w[1], w[2], w[3]) = (10, 12, 8, 98);
        c.update_from_window(0, 16, &w, 0b1010);
        let e = c.entry(0).unwrap();
        assert_eq!(e.distance(), Some(2), "only available lanes may match");
        assert_eq!(e.diff(1), Some(6), "masked store keeps the old diff");
        assert_eq!(e.diff(2), Some(4));
        assert_eq!(e.diff(4), Some(-82), "wrapping diff stored on live lane");
    }
}
