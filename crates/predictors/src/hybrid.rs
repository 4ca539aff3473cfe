//! A two-component hybrid predictor with a per-PC selector.

use crate::{Capacity, PcTable, ValuePredictor};

/// Which component a [`HybridPredictor`] chose for a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridChoice {
    /// The first component was used.
    First,
    /// The second component was used.
    Second,
}

/// A classic two-component hybrid (Wang & Franklin \[30\], Rychlik et
/// al. \[22\]): both components train on every value; a per-PC 2-bit
/// selector chooses whose prediction to use.
///
/// The paper's background (§1–2) notes that hybrids of computational and
/// context-based *local* predictors were the state of the art it improves
/// on, so this type exists both as a baseline and to demonstrate that gDiff
/// composes: `HybridPredictor<StridePredictor, DfcmPredictor>` is the usual
/// local hybrid.
///
/// # Examples
///
/// ```
/// use predictors::{Capacity, DfcmPredictor, HybridPredictor, StridePredictor, ValuePredictor};
///
/// let mut p = HybridPredictor::new(
///     StridePredictor::new(Capacity::Unbounded),
///     DfcmPredictor::new(Capacity::Unbounded, 2, 14),
///     Capacity::Unbounded,
/// );
/// for v in (0..8u64).map(|i| i * 2) {
///     p.update(0x4, v);
/// }
/// assert_eq!(p.predict(0x4), Some(16)); // stride component wins
/// ```
#[derive(Debug, Clone)]
pub struct HybridPredictor<A, B> {
    first: A,
    second: B,
    /// 2-bit selector per PC: ≥ 2 favours `first`.
    selector: PcTable<u8>,
}

impl<A: ValuePredictor, B: ValuePredictor> HybridPredictor<A, B> {
    /// Combines two predictors under a selector table of the given capacity.
    pub fn new(first: A, second: B, selector_capacity: Capacity) -> Self {
        let mut selector = PcTable::new(selector_capacity);
        // Bias: start neutral-towards-first.
        let _ = &mut selector;
        HybridPredictor {
            first,
            second,
            selector,
        }
    }

    /// Which component the selector currently favours for `pc`.
    pub fn choice(&mut self, pc: u64) -> HybridChoice {
        if *self.selector.entry_shared(pc) >= 2 {
            HybridChoice::Second
        } else {
            HybridChoice::First
        }
    }

    /// Read access to the first component.
    pub fn first(&self) -> &A {
        &self.first
    }

    /// Read access to the second component.
    pub fn second(&self) -> &B {
        &self.second
    }
}

impl<A: ValuePredictor, B: ValuePredictor> ValuePredictor for HybridPredictor<A, B> {
    fn predict(&mut self, pc: u64) -> Option<u64> {
        let a = self.first.predict(pc);
        let b = self.second.predict(pc);
        match self.choice(pc) {
            HybridChoice::First => a.or(b),
            HybridChoice::Second => b.or(a),
        }
    }

    fn update(&mut self, pc: u64, actual: u64) {
        let a = self.first.predict(pc);
        let b = self.second.predict(pc);
        let sel = self.selector.entry_shared(pc);
        match (a == Some(actual), b == Some(actual)) {
            (true, false) => *sel = sel.saturating_sub(1),
            (false, true) => *sel = (*sel + 1).min(3),
            _ => {}
        }
        self.first.update(pc, actual);
        self.second.update(pc, actual);
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DfcmPredictor, StridePredictor};

    fn hybrid() -> HybridPredictor<StridePredictor, DfcmPredictor> {
        HybridPredictor::new(
            StridePredictor::new(Capacity::Unbounded),
            DfcmPredictor::new(Capacity::Unbounded, 2, 14),
            Capacity::Unbounded,
        )
    }

    #[test]
    fn stride_stream_selects_stride() {
        let mut p = hybrid();
        let mut correct = 0;
        for i in 0..100u64 {
            if p.step(0, i * 4) == Some(i * 4) {
                correct += 1;
            }
        }
        assert!(correct > 90, "{correct}");
        assert_eq!(p.choice(0), HybridChoice::First);
    }

    #[test]
    fn periodic_stream_moves_selector_to_context() {
        let mut p = hybrid();
        let period = [9u64, 2, 7, 2];
        let mut correct = 0;
        for i in 0..400 {
            if p.step(0, period[i % 4]) == Some(period[i % 4]) {
                correct += 1;
            }
        }
        assert!(correct > 300, "{correct}");
        assert_eq!(p.choice(0), HybridChoice::Second);
    }

    #[test]
    fn falls_back_when_chosen_component_is_silent() {
        let mut p = hybrid();
        p.update(0, 5);
        // DFCM has no context yet; stride side falls back to last-value.
        assert_eq!(p.predict(0), Some(5));
    }

    #[test]
    fn hybrid_beats_both_components_on_mixed_pcs() {
        let mut p = hybrid();
        let mut s = StridePredictor::new(Capacity::Unbounded);
        let mut d = DfcmPredictor::new(Capacity::Unbounded, 2, 14);
        let period = [9u64, 2, 7, 5];
        let (mut hp, mut sp, mut dp) = (0u64, 0u64, 0u64);
        for i in 0..500u64 {
            // pc 0: stride stream; pc 4: periodic stream.
            for (pc, v) in [(0u64, i * 8), (4u64, period[(i % 4) as usize])] {
                if p.step(pc, v) == Some(v) {
                    hp += 1;
                }
                if s.step(pc, v) == Some(v) {
                    sp += 1;
                }
                if d.step(pc, v) == Some(v) {
                    dp += 1;
                }
            }
        }
        // The hybrid must clearly beat the weaker component and track the
        // stronger one (DFCM catches strides too, so it is the bar here).
        assert!(hp > sp, "hybrid {hp} vs stride {sp}");
        assert!(hp + 20 >= dp, "hybrid {hp} vs dfcm {dp}");
    }
}
