//! The local stride predictor (2-delta variant).

use crate::{Capacity, PcTable, ValuePredictor};

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    last: Option<u64>,
    /// The stride used for predictions (only replaced after the same new
    /// stride is observed twice — the "2-delta" filter).
    stride: i64,
    /// The most recently observed stride, pending confirmation.
    candidate: i64,
    /// Whether `stride` has ever been confirmed.
    valid: bool,
}

impl StrideEntry {
    /// `last` plus the confirmed stride, or `last` before one is confirmed.
    fn predict(&self) -> Option<u64> {
        let last = self.last?;
        if self.valid {
            Some(last.wrapping_add(self.stride as u64))
        } else {
            // Before any stride is confirmed, fall back to last-value
            // behaviour (stride 0), as real stride predictors do.
            Some(last)
        }
    }

    /// Adopts a stride seen twice in a row, then records `actual` as `last`.
    fn train(&mut self, actual: u64) {
        if let Some(last) = self.last {
            let observed = actual.wrapping_sub(last) as i64;
            if self.valid && observed == self.stride {
                // Steady state; nothing to change.
                self.candidate = observed;
            } else if observed == self.candidate {
                // Same new stride twice in a row: adopt it.
                self.stride = observed;
                self.valid = true;
            } else {
                self.candidate = observed;
            }
        }
        self.last = Some(actual);
    }
}

/// The paper's "local stride" predictor.
///
/// This is the 2-delta stride predictor used throughout the value-prediction
/// literature (Gabbay & Mendelson \[7, 8\]; Lipasti & Shen \[17, 18\]): per
/// PC it tracks the last value and a stride, and predicts
/// `last + stride`. To avoid being destabilized by a single irregular value,
/// the prediction stride is only replaced once the *same* new stride has
/// been observed twice in a row.
///
/// # Examples
///
/// ```
/// use predictors::{Capacity, StridePredictor, ValuePredictor};
///
/// let mut p = StridePredictor::new(Capacity::Entries(8192));
/// for v in [10u64, 14, 18, 22] {
///     p.update(0x100, v);
/// }
/// assert_eq!(p.predict(0x100), Some(26));
/// ```
#[derive(Debug, Clone)]
pub struct StridePredictor {
    table: PcTable<StrideEntry>,
}

impl StridePredictor {
    /// Creates a stride predictor with the given table capacity.
    pub fn new(capacity: Capacity) -> Self {
        StridePredictor {
            table: PcTable::new(capacity),
        }
    }

    /// Conflict (aliasing) rate of the underlying table.
    pub fn conflict_rate(&self) -> f64 {
        self.table.conflict_rate()
    }

    /// Provenance tap: the confirmed stride for `pc`, if the 2-delta
    /// filter has confirmed one. Read-only — no table accounting.
    pub fn learned_stride(&self, pc: u64) -> Option<i64> {
        self.table
            .peek(pc)
            .and_then(|e| e.valid.then_some(e.stride))
    }
}

impl ValuePredictor for StridePredictor {
    fn predict(&mut self, pc: u64) -> Option<u64> {
        self.table.entry_shared(pc).predict()
    }

    fn update(&mut self, pc: u64, actual: u64) {
        self.table.entry_shared(pc).train(actual);
    }

    fn step(&mut self, pc: u64, actual: u64) -> Option<u64> {
        let e = self.table.entry_pair(pc);
        let predicted = e.predict();
        e.train(actual);
        predicted
    }

    fn name(&self) -> &'static str {
        "local-stride"
    }

    fn learned_diff(&self, pc: u64) -> Option<i64> {
        self.learned_stride(pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(p: &mut StridePredictor, pc: u64, seq: &[u64]) -> u64 {
        seq.iter().filter(|&&v| p.step(pc, v) == Some(v)).count() as u64
    }

    #[test]
    fn cold_entry_predicts_nothing() {
        let mut p = StridePredictor::new(Capacity::Unbounded);
        assert_eq!(p.predict(0), None);
    }

    #[test]
    fn learns_constant_stride_after_two_deltas() {
        let mut p = StridePredictor::new(Capacity::Unbounded);
        p.update(0, 100);
        p.update(0, 103); // candidate = 3
        p.update(0, 106); // confirmed
        assert_eq!(p.predict(0), Some(109));
    }

    #[test]
    fn negative_strides_work() {
        let mut p = StridePredictor::new(Capacity::Unbounded);
        for v in [50u64, 40, 30] {
            p.update(0, v);
        }
        assert_eq!(p.predict(0), Some(20));
    }

    #[test]
    fn two_delta_filters_single_glitch() {
        let mut p = StridePredictor::new(Capacity::Unbounded);
        for v in [0u64, 4, 8, 12] {
            p.update(0, v);
        }
        // One irregular value must not destroy the learned stride.
        p.update(0, 999);
        // Prediction resumes from the glitch value with the *old* stride.
        assert_eq!(p.predict(0), Some(1003));
        // And after the stream returns to the pattern, stride 4 still holds.
        p.update(0, 16);
        p.update(0, 20);
        assert_eq!(p.predict(0), Some(24));
    }

    #[test]
    fn constant_value_predicted_as_stride_zero() {
        let mut p = StridePredictor::new(Capacity::Unbounded);
        let correct = run(&mut p, 0, &[7; 20]);
        assert_eq!(correct, 19);
    }

    #[test]
    fn wrapping_values_do_not_panic() {
        let mut p = StridePredictor::new(Capacity::Unbounded);
        for v in [u64::MAX - 4, u64::MAX - 2, u64::MAX, 1, 3] {
            p.update(0, v);
        }
        assert_eq!(p.predict(0), Some(5));
    }

    #[test]
    fn learned_stride_reports_confirmed_strides_only() {
        let mut p = StridePredictor::new(Capacity::Unbounded);
        assert_eq!(p.learned_stride(0), None, "cold");
        p.update(0, 100);
        p.update(0, 103);
        assert_eq!(p.learned_stride(0), None, "candidate not yet confirmed");
        p.update(0, 106);
        assert_eq!(p.learned_stride(0), Some(3));
        assert_eq!(p.learned_diff(0), Some(3), "trait tap delegates");
        let before = p.conflict_rate();
        let _ = p.learned_stride(0);
        assert_eq!(p.conflict_rate(), before, "tap must not touch accounting");
    }

    #[test]
    fn random_sequence_scores_poorly() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let seq: Vec<u64> = (0..500).map(|_| rng.gen()).collect();
        let mut p = StridePredictor::new(Capacity::Unbounded);
        let correct = run(&mut p, 0, &seq);
        assert!(
            correct < 5,
            "random 64-bit values must be unpredictable, got {correct}"
        );
    }
}
