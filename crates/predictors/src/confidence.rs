//! The paper's saturating-counter confidence mechanism.
//!
//! §4: *"a 3-bit confidence mechanism is used to filter the weak
//! predictions. … when a correct prediction is made, confidence is
//! increased by 2; and, it is decreased by 1 if an incorrect prediction is
//! found. A confident prediction is made when the confidence is larger or
//! equal to 4."*

use crate::{Capacity, PcTable, ValuePredictor};

/// Parameters of the saturating confidence counters.
///
/// The defaults are the paper's: 3-bit counters (0..=7), +2 on a correct
/// prediction, −1 on an incorrect one, confident at ≥ 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfidenceConfig {
    /// Saturation ceiling (inclusive). 7 for a 3-bit counter.
    pub max: u8,
    /// Amount added on a correct prediction.
    pub on_correct: u8,
    /// Amount subtracted on an incorrect prediction.
    pub on_incorrect: u8,
    /// Threshold at or above which a prediction is confident.
    pub threshold: u8,
}

impl Default for ConfidenceConfig {
    fn default() -> Self {
        ConfidenceConfig {
            max: 7,
            on_correct: 2,
            on_incorrect: 1,
            threshold: 4,
        }
    }
}

/// A PC-indexed table of saturating confidence counters.
///
/// # Examples
///
/// ```
/// use predictors::{Capacity, ConfidenceConfig, ConfidenceTable};
///
/// let mut c = ConfidenceTable::new(Capacity::Unbounded, ConfidenceConfig::default());
/// assert!(!c.is_confident(0x40)); // cold counters start at 0
/// c.train(0x40, true);
/// c.train(0x40, true);
/// assert!(c.is_confident(0x40)); // 0 + 2 + 2 = 4 ≥ threshold
/// c.train(0x40, false);
/// assert!(!c.is_confident(0x40)); // 4 - 1 = 3 < threshold
/// ```
#[derive(Debug, Clone)]
pub struct ConfidenceTable {
    table: PcTable<u8>,
    config: ConfidenceConfig,
}

impl ConfidenceTable {
    /// Creates a confidence table with the given capacity and parameters.
    pub fn new(capacity: Capacity, config: ConfidenceConfig) -> Self {
        ConfidenceTable {
            table: PcTable::new(capacity),
            config,
        }
    }

    /// Creates a table with the paper's default 3-bit scheme.
    pub fn with_defaults(capacity: Capacity) -> Self {
        Self::new(capacity, ConfidenceConfig::default())
    }

    /// Whether `pc`'s counter currently endorses predictions.
    pub fn is_confident(&mut self, pc: u64) -> bool {
        *self.table.entry_shared(pc) >= self.config.threshold
    }

    /// Current counter value for `pc` (0 if never trained).
    pub fn counter(&self, pc: u64) -> u8 {
        self.table.peek(pc).copied().unwrap_or(0)
    }

    /// Adjusts `pc`'s counter after a prediction resolved.
    pub fn train(&mut self, pc: u64, correct: bool) {
        let c = self.table.entry_shared(pc);
        if correct {
            *c = c
                .saturating_add(self.config.on_correct)
                .min(self.config.max);
        } else {
            *c = c.saturating_sub(self.config.on_incorrect);
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> ConfidenceConfig {
        self.config
    }
}

/// A prediction together with its confidence verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatedPrediction {
    /// The predicted value.
    pub value: u64,
    /// Whether the confidence counter endorsed using the value.
    pub confident: bool,
}

/// Wraps any [`ValuePredictor`] with the paper's confidence mechanism.
///
/// The wrapper exposes the split-phase protocol a pipeline needs:
/// [`predict`](Self::predict) at dispatch returns the value plus the
/// confidence verdict, and [`resolve`](Self::resolve) at write-back trains
/// both the underlying predictor and the confidence counter. The prediction
/// made at dispatch must be carried by the caller (in its reorder-buffer
/// entry) and handed back to `resolve`, because by write-back time the
/// predictor's tables may have moved on.
///
/// # Examples
///
/// ```
/// use predictors::{Capacity, GatedPredictor, LastValuePredictor};
///
/// let mut p = GatedPredictor::with_defaults(
///     LastValuePredictor::new(Capacity::Unbounded),
///     Capacity::Unbounded,
/// );
/// // Repeating value builds confidence.
/// for _ in 0..4 {
///     let g = p.predict(0x10);
///     p.resolve(0x10, g.map(|g| g.value), 99);
/// }
/// assert!(p.predict(0x10).expect("warm entry").confident);
/// ```
#[derive(Debug, Clone)]
pub struct GatedPredictor<P> {
    inner: P,
    confidence: ConfidenceTable,
}

impl<P: ValuePredictor> GatedPredictor<P> {
    /// Wraps `inner`, giving the confidence table its own capacity policy.
    pub fn new(inner: P, capacity: Capacity, config: ConfidenceConfig) -> Self {
        GatedPredictor {
            inner,
            confidence: ConfidenceTable::new(capacity, config),
        }
    }

    /// Wraps `inner` with the paper's default 3-bit confidence scheme.
    pub fn with_defaults(inner: P, capacity: Capacity) -> Self {
        Self::new(inner, capacity, ConfidenceConfig::default())
    }

    /// Dispatch-phase prediction with a confidence verdict.
    pub fn predict(&mut self, pc: u64) -> Option<GatedPrediction> {
        let value = self.inner.predict(pc)?;
        let confident = self.confidence.is_confident(pc);
        Some(GatedPrediction { value, confident })
    }

    /// Write-back-phase training.
    ///
    /// `predicted` is the value returned by [`predict`](Self::predict) at
    /// dispatch (or `None` if no prediction was made); `actual` is the
    /// value the instruction produced. Confidence is only trained when a
    /// prediction existed, mirroring the paper where counters react to
    /// prediction outcomes.
    pub fn resolve(&mut self, pc: u64, predicted: Option<u64>, actual: u64) {
        if let Some(p) = predicted {
            self.confidence.train(pc, p == actual);
        }
        self.inner.update(pc, actual);
    }

    /// Read access to the wrapped predictor.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Read access to the confidence table.
    pub fn confidence(&self) -> &ConfidenceTable {
        &self.confidence
    }

    /// The underlying predictor's report name.
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LastValuePredictor, StridePredictor};

    #[test]
    fn counters_saturate_at_max() {
        let mut c = ConfidenceTable::with_defaults(Capacity::Unbounded);
        for _ in 0..100 {
            c.train(0, true);
        }
        assert_eq!(c.counter(0), 7);
    }

    #[test]
    fn counters_floor_at_zero() {
        let mut c = ConfidenceTable::with_defaults(Capacity::Unbounded);
        c.train(0, false);
        c.train(0, false);
        assert_eq!(c.counter(0), 0);
    }

    #[test]
    fn paper_sequence_reaches_threshold_in_two_hits() {
        let mut c = ConfidenceTable::with_defaults(Capacity::Unbounded);
        c.train(0, true);
        assert!(!c.is_confident(0));
        c.train(0, true);
        assert!(c.is_confident(0));
    }

    #[test]
    fn mixed_outcomes_follow_plus2_minus1() {
        let mut c = ConfidenceTable::with_defaults(Capacity::Unbounded);
        // +2 +2 -1 +2 = 5
        for ok in [true, true, false, true] {
            c.train(0, ok);
        }
        assert_eq!(c.counter(0), 5);
    }

    #[test]
    fn gated_predictor_gates_until_warm() {
        let mut p = GatedPredictor::with_defaults(
            StridePredictor::new(Capacity::Unbounded),
            Capacity::Unbounded,
        );
        let mut confident_seen = false;
        for i in 0..10u64 {
            if let Some(g) = p.predict(0x20) {
                if g.confident {
                    confident_seen = true;
                    assert_eq!(
                        g.value,
                        i * 4,
                        "confident prediction must be the stride value"
                    );
                }
            }
            let predicted = p.predict(0x20).map(|g| g.value);
            p.resolve(0x20, predicted, i * 4);
        }
        assert!(
            confident_seen,
            "a steady stride must eventually be confident"
        );
    }

    #[test]
    fn wrong_predictions_drain_confidence() {
        let mut p = GatedPredictor::with_defaults(
            LastValuePredictor::new(Capacity::Unbounded),
            Capacity::Unbounded,
        );
        // Warm up with a constant.
        for _ in 0..4 {
            let g = p.predict(0);
            p.resolve(0, g.map(|g| g.value), 1);
        }
        assert!(p.predict(0).expect("warm").confident);
        // Now the value keeps changing: last-value is always wrong.
        for v in 2..20u64 {
            let g = p.predict(0);
            p.resolve(0, g.map(|g| g.value), v);
        }
        assert!(!p.predict(0).expect("entry exists").confident);
    }

    #[test]
    fn resolve_without_prediction_leaves_confidence_untouched() {
        let mut p = GatedPredictor::with_defaults(
            LastValuePredictor::new(Capacity::Unbounded),
            Capacity::Unbounded,
        );
        p.resolve(0, None, 5);
        assert_eq!(p.confidence().counter(0), 0);
    }
}
