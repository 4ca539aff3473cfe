//! Finite context method (FCM) value predictor.

use crate::{Capacity, PcTable, ValuePredictor};

/// The largest context order an [`FcmPredictor`] or
/// [`DfcmPredictor`](crate::DfcmPredictor) supports.
///
/// Level-1 entries keep their context in a fixed inline array of this
/// size, so predict and update never touch the heap. Every configuration
/// in the paper and in this workspace uses order ≤ 4.
pub const MAX_CONTEXT: usize = 8;

/// Folds a value history, oldest first, into a level-2 table index.
///
/// This is the select-fold-xor style hash used by FCM-family predictors
/// (Sazeides & Smith \[25\]); the exact mixing constants are not
/// behaviourally significant, only that distinct contexts spread well.
pub(crate) fn fold_history(history: impl IntoIterator<Item = u64>, bits: u32) -> u64 {
    let mut h: u64 = 0;
    for v in history {
        let mixed = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = h.rotate_left(bits.max(5)) ^ mixed;
    }
    // Final avalanche so low bits depend on the whole history.
    let mut x = h;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x & ((1u64 << bits) - 1)
}

/// Panics unless `order` is in `1..=MAX_CONTEXT` and `l2_bits` in `1..=32`:
/// the bounds shared by FCM and DFCM.
pub(crate) fn check_shape(order: usize, l2_bits: u32) {
    assert!(order > 0, "context order must be nonzero");
    assert!(
        order <= MAX_CONTEXT,
        "context order {order} exceeds MAX_CONTEXT ({MAX_CONTEXT})"
    );
    assert!(
        (1..=32).contains(&l2_bits),
        "level-2 bits must be in 1..=32"
    );
}

/// The last `order` values (FCM) or strides (DFCM) seen by one level-1
/// entry, oldest first, plus the level-2 index of that context.
///
/// The index is folded once, when [`push`](Self::push) slides the window,
/// so a producer's predict and update share one hash.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ContextWindow {
    items: [u64; MAX_CONTEXT],
    len: u8,
    index: u32,
}

impl ContextWindow {
    /// The level-2 index of the context, once it holds `order` items.
    #[inline]
    pub fn index(&self, order: usize) -> Option<usize> {
        (usize::from(self.len) == order).then_some(self.index as usize)
    }

    /// Appends `item`, dropping the oldest once `order` are held, and
    /// re-folds the index of a full context.
    #[inline]
    pub fn push(&mut self, item: u64, order: usize, l2_bits: u32) {
        let len = usize::from(self.len);
        if len < order {
            self.items[len] = item;
            self.len += 1;
        } else {
            self.items.copy_within(1..order, 0);
            self.items[order - 1] = item;
        }
        if usize::from(self.len) == order {
            self.index = fold_history(self.items[..order].iter().copied(), l2_bits) as u32;
        }
    }
}

/// An order-`k` finite context method predictor.
///
/// Two-level structure: a PC-indexed level-1 table records the last `k`
/// values produced by each instruction; the hash of that context indexes a
/// shared level-2 table holding the value that followed the context last
/// time (Sazeides & Smith \[25\], Wang & Franklin \[30\]).
///
/// The order is bounded by [`MAX_CONTEXT`]: each level-1 entry holds its
/// context inline, with the level-2 index folded once per update.
///
/// # Examples
///
/// ```
/// use predictors::{Capacity, FcmPredictor, ValuePredictor};
///
/// let mut p = FcmPredictor::new(Capacity::Unbounded, 2, 16);
/// // A periodic sequence with no stride structure.
/// for v in [3u64, 1, 4, 3, 1, 4, 3, 1] {
///     p.update(0x40, v);
/// }
/// assert_eq!(p.predict(0x40), Some(4)); // context (3, 1) -> 4
/// ```
#[derive(Debug, Clone)]
pub struct FcmPredictor {
    l1: PcTable<ContextWindow>,
    l2: Vec<Option<u64>>,
    order: usize,
    l2_bits: u32,
}

impl FcmPredictor {
    /// Creates an order-`order` FCM with a level-2 table of
    /// `2^l2_bits` entries.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero or above [`MAX_CONTEXT`], or `l2_bits` is
    /// not in `1..=32`.
    pub fn new(l1_capacity: Capacity, order: usize, l2_bits: u32) -> Self {
        check_shape(order, l2_bits);
        FcmPredictor {
            l1: PcTable::new(l1_capacity),
            l2: vec![None; 1usize << l2_bits],
            order,
            l2_bits,
        }
    }

    /// The context order `k`.
    pub fn order(&self) -> usize {
        self.order
    }
}

impl ValuePredictor for FcmPredictor {
    fn predict(&mut self, pc: u64) -> Option<u64> {
        let idx = self.l1.entry_shared(pc).index(self.order)?;
        self.l2[idx]
    }

    fn update(&mut self, pc: u64, actual: u64) {
        let e = self.l1.entry_shared(pc);
        if let Some(idx) = e.index(self.order) {
            self.l2[idx] = Some(actual);
        }
        e.push(actual, self.order, self.l2_bits);
    }

    fn name(&self) -> &'static str {
        "local-fcm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_full_context_before_predicting() {
        let mut p = FcmPredictor::new(Capacity::Unbounded, 3, 16);
        p.update(0, 1);
        p.update(0, 2);
        assert_eq!(p.predict(0), None);
        p.update(0, 3);
        assert_eq!(p.predict(0), None); // context known, successor not yet
    }

    #[test]
    fn periodic_sequence_becomes_perfect() {
        let mut p = FcmPredictor::new(Capacity::Unbounded, 2, 16);
        let period = [10u64, 20, 30, 40];
        let mut correct = 0;
        let mut total = 0;
        for i in 0..400 {
            let v = period[i % 4];
            total += 1;
            if p.step(0, v) == Some(v) {
                correct += 1;
            }
        }
        assert!(correct as f64 / total as f64 > 0.9, "{correct}/{total}");
    }

    #[test]
    fn stride_sequence_defeats_fcm_but_not_context() {
        // A pure stride never repeats contexts -> FCM cannot predict it.
        let mut p = FcmPredictor::new(Capacity::Unbounded, 2, 16);
        let mut correct = 0;
        for i in 0..200u64 {
            if p.step(0, i * 8) == Some(i * 8) {
                correct += 1;
            }
        }
        assert!(correct < 10, "strides should defeat FCM, got {correct}");
    }

    #[test]
    fn fold_history_spreads_and_masks() {
        let a = fold_history([1, 2, 3], 16);
        let b = fold_history([3, 2, 1], 16);
        let c = fold_history([1, 2, 3], 16);
        assert_eq!(a, c);
        assert_ne!(a, b, "order must matter");
        assert!(a < (1 << 16));
    }

    #[test]
    #[should_panic(expected = "order must be nonzero")]
    fn zero_order_rejected() {
        let _ = FcmPredictor::new(Capacity::Unbounded, 0, 16);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_CONTEXT")]
    fn order_above_max_context_rejected() {
        let _ = FcmPredictor::new(Capacity::Unbounded, MAX_CONTEXT + 1, 16);
    }
}
