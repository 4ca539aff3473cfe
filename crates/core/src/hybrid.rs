//! The gDiff predictor with a hybrid global value queue (§5, HGVQ) — the
//! paper's headline design.

use predictors::{
    Capacity, ConfidenceConfig, ConfidenceTable, GatedPrediction, StridePredictor, ValuePredictor,
};

use crate::{GDiffCore, GlobalValueQueue, SlotId};

/// Dispatch-time state for one in-flight instruction under
/// [`HgvqPredictor`].
///
/// The paper: *"A field is associated with each instruction in the issue
/// queue (or RUU) to direct which entry in the HGVQ the result should
/// update."* — that field is [`slot`](Self::slot). Carry the token in the
/// reorder-buffer entry and hand it back to
/// [`HgvqPredictor::writeback`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HgvqToken {
    /// The queue slot claimed at dispatch.
    pub slot: SlotId,
    /// The gated gDiff prediction made at dispatch, if any.
    pub prediction: Option<GatedPrediction>,
    /// The local filler prediction pushed into the queue, if any.
    pub filler: Option<u64>,
    /// Provenance: the selected distance `k` at dispatch, if the table
    /// had learned one (reported even when the slot at `k` was empty).
    pub chosen_k: Option<u16>,
    /// Provenance: the stored difference at `chosen_k`.
    pub diff: Option<i64>,
    /// Provenance: values (real or speculative) in the queue at
    /// dispatch, clamped to the queue order.
    pub fill_depth: u64,
}

/// The §5 design: gDiff over a **hybrid global value queue**.
///
/// Queue slots are claimed in *dispatch order* — eliminating the
/// execution-order variation that cripples the [SGVQ](crate::SgvqPredictor)
/// — and pre-filled with a prediction from a different-locality predictor
/// (a local stride predictor by default). Real results patch their slot at
/// write-back. Differences are both *learned* and *consumed* relative to an
/// instruction's own dispatch slot, so learned distances are stable across
/// iterations regardless of cache misses.
///
/// This is the configuration behind the paper's headline numbers (91%
/// accuracy, 64% coverage — Figure 16): it simultaneously
///
/// * removes execution-order variation (slots are dispatch-ordered),
/// * hides value delay behind the filler's speculative values, and
/// * inherits local stride coverage *and* adds instructions with low local
///   but high global locality.
///
/// # Protocol
///
/// Call [`dispatch`](Self::dispatch) for every value-producing instruction
/// in dispatch order and [`writeback`](Self::writeback) at completion, in
/// any order.
///
/// # Examples
///
/// ```
/// use gdiff::HgvqPredictor;
/// use predictors::Capacity;
///
/// let mut p = HgvqPredictor::with_stride_filler(
///     Capacity::Entries(8192),
///     32,
///     Capacity::Entries(8192),
/// );
/// // Figure 17: two locally stride-predictable loads close together. Even
/// // though `a` is still in flight when `b` dispatches, the filler value
/// // stands in for it and gDiff's distance-1 stride prediction succeeds.
/// let mut correct = 0;
/// for i in 0..32u64 {
///     let ta = p.dispatch(0xa0);
///     let tb = p.dispatch(0xb0); // a not yet written back!
///     if tb.prediction.map(|g| g.value) == Some(i + 2) {
///         correct += 1;
///     }
///     p.writeback(0xa0, &ta, i);
///     p.writeback(0xb0, &tb, i + 2);
/// }
/// assert!(correct >= 25);
/// ```
#[derive(Debug, Clone)]
pub struct HgvqPredictor<F = StridePredictor> {
    core: GDiffCore,
    queue: GlobalValueQueue,
    confidence: ConfidenceTable,
    filler: F,
}

impl HgvqPredictor<StridePredictor> {
    /// Creates the paper's configuration: a local 2-delta stride filler
    /// whose table shares the gDiff table's capacity policy.
    pub fn with_stride_filler(table: Capacity, order: usize, confidence: Capacity) -> Self {
        Self::new(table, order, confidence, StridePredictor::new(table))
    }
}

impl<F: ValuePredictor> HgvqPredictor<F> {
    /// Creates an HGVQ gDiff predictor with a caller-supplied filler.
    ///
    /// Any [`ValuePredictor`] can fill the queue; the paper suggests *"a
    /// local stride predictor or a local context predictor"*.
    pub fn new(table: Capacity, order: usize, confidence: Capacity, filler: F) -> Self {
        Self::with_config(
            table,
            order,
            confidence,
            ConfidenceConfig::default(),
            filler,
        )
    }

    /// Like [`new`](Self::new) with explicit confidence parameters (for
    /// confidence-mechanism ablations).
    pub fn with_config(
        table: Capacity,
        order: usize,
        confidence: Capacity,
        config: ConfidenceConfig,
        filler: F,
    ) -> Self {
        HgvqPredictor {
            core: GDiffCore::new(table, order),
            queue: GlobalValueQueue::new(order),
            confidence: ConfidenceTable::new(confidence, config),
            filler,
        }
    }

    /// The queue order `n`.
    pub fn order(&self) -> usize {
        self.queue.order()
    }

    /// Dispatch-phase: claims the next queue slot, fills it with the
    /// filler's prediction, and makes a gDiff prediction anchored at the
    /// claimed slot.
    pub fn dispatch(&mut self, pc: u64) -> HgvqToken {
        let filler = self.filler.predict(pc);
        let slot = match filler {
            Some(v) => self.queue.push_speculative(v),
            None => self.queue.push_empty(),
        };
        let queue = &self.queue;
        let (value, tap) = self.core.predict_with_tap(pc, |k| queue.back_from(slot, k));
        let prediction = value.map(|value| GatedPrediction {
            value,
            confident: self.confidence.is_confident(pc),
        });
        HgvqToken {
            slot,
            prediction,
            filler,
            chosen_k: tap.map(|(k, _)| k),
            diff: tap.map(|(_, d)| d),
            fill_depth: queue.pushed().min(queue.order() as u64),
        }
    }

    /// Write-back phase: patches the instruction's slot with the real
    /// result, trains the gDiff table (anchored at the same slot), the
    /// confidence counter, and the filler.
    pub fn writeback(&mut self, pc: u64, token: &HgvqToken, actual: u64) {
        self.queue.patch(token.slot, actual);
        // One slot-anchored window read feeds the batched update kernel.
        let (values, avail) = self.queue.window_from(token.slot);
        self.core.update_from_window(pc, actual, values, avail);
        if let Some(p) = token.prediction {
            self.confidence.train(pc, p.value == actual);
        }
        self.filler.update(pc, actual);
    }

    /// Read access to the prediction core.
    pub fn core(&self) -> &GDiffCore {
        &self.core
    }

    /// Read access to the hybrid queue.
    pub fn queue(&self) -> &GlobalValueQueue {
        &self.queue
    }

    /// Read access to the filler predictor.
    pub fn filler(&self) -> &F {
        &self.filler
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new_hgvq(order: usize) -> HgvqPredictor {
        HgvqPredictor::with_stride_filler(Capacity::Unbounded, order, Capacity::Unbounded)
    }

    /// splitmix64: genuinely unpredictable-looking test values.
    fn mix(i: u64) -> u64 {
        let mut z = i.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A spill/fill pair whose producer writes back *before* the consumer
    /// dispatches: the patched slot carries the real value and gDiff nails
    /// the reload even though it is locally unpredictable.
    #[test]
    fn patched_slots_carry_real_values() {
        let mut p = new_hgvq(8);
        let mut correct = 0;
        for i in 0..100u64 {
            let noise = mix(i);
            let ta = p.dispatch(0xa0);
            p.writeback(0xa0, &ta, noise);
            let tc = p.dispatch(0xc0);
            p.writeback(0xc0, &tc, 7);
            let tb = p.dispatch(0xb0);
            if tb.prediction.map(|g| g.value) == Some(noise) {
                correct += 1;
            }
            p.writeback(0xb0, &tb, noise);
        }
        assert!(correct >= 95, "{correct}");
    }

    /// Figure 17: the producer is still in flight, but it is locally
    /// stride-predictable, so its filler value makes the gDiff prediction
    /// correct — the defining advantage of the HGVQ over the plain GVQ.
    #[test]
    fn filler_bridges_in_flight_producers() {
        let mut p = new_hgvq(8);
        let mut correct = 0;
        for i in 0..50u64 {
            let ta = p.dispatch(0xa0);
            let tb = p.dispatch(0xb0); // producer not yet written back
            if tb.prediction.map(|g| g.value) == Some(i + 2) {
                correct += 1;
            }
            p.writeback(0xa0, &ta, i);
            p.writeback(0xb0, &tb, i + 2);
        }
        assert!(correct >= 45, "{correct}");
    }

    /// The same stream through a *plain* speculative queue fails, because
    /// the producer's value is simply missing at dispatch. This pins down
    /// the paper's claim that HGVQ coverage exceeds SGVQ coverage.
    #[test]
    fn hgvq_beats_sgvq_on_in_flight_pairs() {
        use crate::SgvqPredictor;
        let mut h = new_hgvq(8);
        let mut s = SgvqPredictor::new(Capacity::Unbounded, 8, Capacity::Unbounded);
        let (mut hc, mut sc) = (0u64, 0u64);
        for i in 0..100u64 {
            let ha = h.dispatch(0xa0);
            let hb = h.dispatch(0xb0);
            if hb.prediction.map(|g| g.value) == Some(i + 2) {
                hc += 1;
            }
            h.writeback(0xa0, &ha, i);
            h.writeback(0xb0, &hb, i + 2);

            let sa = s.dispatch(0xa0);
            let sb = s.dispatch(0xb0);
            if sb.prediction.map(|g| g.value) == Some(i + 2) {
                sc += 1;
            }
            s.complete(0xa0, &sa, i);
            s.complete(0xb0, &sb, i + 2);
        }
        assert!(hc >= 90, "hgvq {hc}");
        assert!(sc <= 10, "sgvq {sc}");
    }

    /// Execution variation (completion-order jitter) must NOT perturb the
    /// HGVQ: slots are dispatch-ordered, so when the producer is locally
    /// predictable its slot holds a usable value no matter when (or whether)
    /// it has written back — exactly the failure mode that cripples the
    /// SGVQ in Figure 14.
    #[test]
    fn writeback_order_is_irrelevant_for_predictable_producers() {
        let run = |vary: bool| -> u64 {
            let mut p = new_hgvq(8);
            let mut correct = 0;
            for i in 0..100u64 {
                let a_val = 1000 + i * 8; // locally stride-predictable
                let ta = p.dispatch(0xa0);
                let tf = p.dispatch(0xf0);
                let tb = p.dispatch(0xb0);
                if tb.prediction.map(|g| g.value) == Some(a_val + 4) {
                    correct += 1;
                }
                // Completion order varies with i; `a` "misses" on even i
                // and completes dead last.
                if vary && i % 2 == 0 {
                    p.writeback(0xf0, &tf, 5);
                    p.writeback(0xb0, &tb, a_val + 4);
                    p.writeback(0xa0, &ta, a_val);
                } else {
                    p.writeback(0xa0, &ta, a_val);
                    p.writeback(0xf0, &tf, 5);
                    p.writeback(0xb0, &tb, a_val + 4);
                }
            }
            correct
        };
        let stable = run(false);
        let varying = run(true);
        assert!(stable >= 90, "stable order: {stable}");
        assert!(
            varying >= stable - 5,
            "jitter must not hurt the HGVQ: varying {varying} vs stable {stable}"
        );
    }

    /// When the filler itself is wrong but the distance is learned, the
    /// gDiff prediction follows the filler (garbage in, garbage out) — and
    /// confidence protects the pipeline from acting on it.
    #[test]
    fn confidence_suppresses_filler_garbage() {
        let mut p = new_hgvq(8);
        let mut confident_wrong = 0;
        for i in 0..100u64 {
            let noise = mix(i);
            let ta = p.dispatch(0xa0);
            let tb = p.dispatch(0xb0); // reads a's (wrong) filler
            if let Some(g) = tb.prediction {
                if g.confident && g.value != noise.wrapping_add(4) {
                    confident_wrong += 1;
                }
            }
            p.writeback(0xa0, &ta, noise);
            p.writeback(0xb0, &tb, noise.wrapping_add(4));
        }
        assert!(
            confident_wrong <= 15,
            "confidence must gate: {confident_wrong}"
        );
    }

    #[test]
    fn custom_filler_is_used() {
        use predictors::LastValuePredictor;
        let mut p: HgvqPredictor<LastValuePredictor> = HgvqPredictor::new(
            Capacity::Unbounded,
            4,
            Capacity::Unbounded,
            LastValuePredictor::new(Capacity::Unbounded),
        );
        let t = p.dispatch(0x10);
        assert_eq!(t.filler, None, "cold filler");
        p.writeback(0x10, &t, 9);
        let t = p.dispatch(0x10);
        assert_eq!(t.filler, Some(9));
    }
}
