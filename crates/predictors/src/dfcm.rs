//! Differential finite context method (DFCM) — the paper's "local context"
//! predictor.

use crate::fcm::{check_shape, ContextWindow};
use crate::{Capacity, PcTable, ValuePredictor};

#[derive(Debug, Clone, Default)]
struct DfcmEntry {
    last: Option<u64>,
    /// The last `order` strides, as two's-complement `u64`s.
    strides: ContextWindow,
}

impl DfcmEntry {
    /// `last` plus the stride that followed this stride context last time.
    fn predict(&self, l2: &[Option<i64>], order: usize) -> Option<u64> {
        let last = self.last?;
        let idx = self.strides.index(order)?;
        l2[idx].map(|stride| last.wrapping_add(stride as u64))
    }

    /// Records `actual`'s stride as the successor of the current context,
    /// then slides the context over it.
    fn train(&mut self, l2: &mut [Option<i64>], order: usize, l2_bits: u32, actual: u64) {
        if let Some(last) = self.last {
            let stride = actual.wrapping_sub(last);
            if let Some(idx) = self.strides.index(order) {
                l2[idx] = Some(stride as i64);
            }
            self.strides.push(stride, order, l2_bits);
        }
        self.last = Some(actual);
    }
}

/// The differential FCM predictor of Goeman, Vandierendonck and De Bosschere
/// (HPCA'01) — the local *context* baseline the paper compares against.
///
/// Like FCM, DFCM is a two-level scheme, but the context and the level-2
/// payload are *strides* rather than values: level 1 records the last value
/// and the last `k` strides per PC; the hashed stride context indexes a
/// shared level-2 table holding the stride that followed the context last
/// time. The prediction is `last + predicted_stride`. Working in stride
/// space lets one level-2 entry serve every arithmetic sequence with the
/// same stride pattern, which is why DFCM beats FCM at equal table sizes.
///
/// The paper configures DFCM with an 8K-entry level-1 table and a 64K-entry
/// level-2 table. The order is bounded by
/// [`MAX_CONTEXT`](crate::MAX_CONTEXT): each level-1 entry holds its stride
/// context inline, with the level-2 index folded once per update.
///
/// # Examples
///
/// ```
/// use predictors::{Capacity, DfcmPredictor, ValuePredictor};
///
/// let mut p = DfcmPredictor::new(Capacity::Entries(8192), 2, 16);
/// // Stride alternates +1, +9: contexts repeat even though values grow.
/// let mut v = 0u64;
/// for i in 0..12 {
///     p.update(0x80, v);
///     v += if i % 2 == 0 { 1 } else { 9 };
/// }
/// assert_eq!(p.predict(0x80), Some(v));
/// ```
#[derive(Debug, Clone)]
pub struct DfcmPredictor {
    l1: PcTable<DfcmEntry>,
    l2: Vec<Option<i64>>,
    order: usize,
    l2_bits: u32,
}

impl DfcmPredictor {
    /// Creates an order-`order` DFCM with `2^l2_bits` level-2 entries.
    ///
    /// The paper's configuration is `DfcmPredictor::new(Capacity::Entries(8192), order, 16)`
    /// (a 64K-entry second level).
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero or above
    /// [`MAX_CONTEXT`](crate::MAX_CONTEXT), or `l2_bits` is not in
    /// `1..=32`.
    pub fn new(l1_capacity: Capacity, order: usize, l2_bits: u32) -> Self {
        check_shape(order, l2_bits);
        DfcmPredictor {
            l1: PcTable::new(l1_capacity),
            l2: vec![None; 1usize << l2_bits],
            order,
            l2_bits,
        }
    }

    /// Creates the paper's configuration: order-4 context, 8K-entry level-1
    /// table, 64K-entry level-2 table.
    pub fn paper_default() -> Self {
        Self::new(Capacity::Entries(8192), 4, 16)
    }

    /// The context order `k`.
    pub fn order(&self) -> usize {
        self.order
    }
}

impl ValuePredictor for DfcmPredictor {
    fn predict(&mut self, pc: u64) -> Option<u64> {
        self.l1.entry_shared(pc).predict(&self.l2, self.order)
    }

    fn update(&mut self, pc: u64, actual: u64) {
        let e = self.l1.entry_shared(pc);
        e.train(&mut self.l2, self.order, self.l2_bits, actual);
    }

    fn step(&mut self, pc: u64, actual: u64) -> Option<u64> {
        let e = self.l1.entry_pair(pc);
        let predicted = e.predict(&self.l2, self.order);
        e.train(&mut self.l2, self.order, self.l2_bits, actual);
        predicted
    }

    fn name(&self) -> &'static str {
        "local-context"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn score(p: &mut DfcmPredictor, seq: impl IntoIterator<Item = u64>) -> (u64, u64) {
        let mut correct = 0;
        let mut total = 0;
        for v in seq {
            total += 1;
            if p.step(0, v) == Some(v) {
                correct += 1;
            }
        }
        (correct, total)
    }

    #[test]
    fn constant_stride_is_learned() {
        let mut p = DfcmPredictor::new(Capacity::Unbounded, 2, 16);
        let (correct, total) = score(&mut p, (0..100u64).map(|i| i * 4));
        assert!(correct as f64 / total as f64 > 0.9, "{correct}/{total}");
    }

    #[test]
    fn repeating_stride_pattern_is_learned() {
        let mut p = DfcmPredictor::new(Capacity::Unbounded, 3, 16);
        // strides cycle +1 +2 +3
        let mut v = 0u64;
        let mut seq = Vec::new();
        for i in 0..120 {
            seq.push(v);
            v += [1, 2, 3][i % 3];
        }
        let (correct, total) = score(&mut p, seq);
        assert!(correct as f64 / total as f64 > 0.85, "{correct}/{total}");
    }

    #[test]
    fn periodic_values_are_learned_via_stride_context() {
        let mut p = DfcmPredictor::new(Capacity::Unbounded, 4, 16);
        let period = [528u64, 840, 0, 792];
        let seq: Vec<u64> = (0..400).map(|i| period[i % 4]).collect();
        let (correct, total) = score(&mut p, seq);
        assert!(correct as f64 / total as f64 > 0.85, "{correct}/{total}");
    }

    #[test]
    fn random_values_defeat_dfcm() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let mut p = DfcmPredictor::new(Capacity::Unbounded, 4, 16);
        let (correct, _) = score(&mut p, (0..500).map(|_| rng.gen::<u64>()));
        assert!(correct < 5, "got {correct}");
    }

    #[test]
    fn no_prediction_until_context_filled() {
        let mut p = DfcmPredictor::new(Capacity::Unbounded, 4, 16);
        for v in [1u64, 2, 3, 4] {
            assert_eq!(p.predict(0), None);
            p.update(0, v);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_CONTEXT")]
    fn order_above_max_context_rejected() {
        let _ = DfcmPredictor::new(Capacity::Unbounded, crate::MAX_CONTEXT + 1, 16);
    }

    #[test]
    fn paper_default_shape() {
        let p = DfcmPredictor::paper_default();
        assert_eq!(p.order(), 4);
    }
}
