//! The gDiff predictor with a speculative global value queue (§4, SGVQ).

use predictors::{Capacity, ConfidenceTable, GatedPrediction};

use crate::{GDiffCore, GlobalValueQueue};

/// Dispatch-time state for one in-flight instruction under
/// [`SgvqPredictor`].
///
/// Carry this in the reorder-buffer entry and hand it back to
/// [`SgvqPredictor::complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgvqToken {
    /// The gated prediction made at dispatch, if any.
    pub prediction: Option<GatedPrediction>,
    /// Provenance: the selected distance `k` at dispatch, if the table
    /// had learned one (reported even when the slot at `k` was empty).
    pub chosen_k: Option<u16>,
    /// Provenance: the stored difference at `chosen_k`.
    pub diff: Option<i64>,
    /// Provenance: resolved values in the queue at dispatch, clamped to
    /// the queue order.
    pub fill_depth: u64,
}

/// The §4 design: gDiff fed by a **speculative global value queue** that is
/// updated with execution-stage results *in completion order*.
///
/// Using speculative values shortens the value delay (Figure 12 shows a
/// mean delay of about five values), but the queue ordering now depends on
/// dynamic scheduling: cache misses and branch mispredictions reorder
/// completions between iterations, which obscures the stride locality — the
/// effect Figure 13 quantifies. The paper also notes the SGVQ *"does not
/// squash the values in the case of a branch misprediction"*; likewise this
/// implementation never rolls the queue back.
///
/// Protocol: call [`dispatch`](Self::dispatch) when a value-producing
/// instruction dispatches (earlier completions are visible, later ones are
/// not), and [`complete`](Self::complete) when it finishes execution — in
/// whatever order the pipeline completes instructions.
///
/// # Examples
///
/// ```
/// use gdiff::SgvqPredictor;
/// use predictors::Capacity;
///
/// let mut p = SgvqPredictor::new(Capacity::Entries(8192), 32, Capacity::Entries(8192));
/// // In-order completion (an idle pipeline) behaves like the profile GVQ.
/// for v in [7u64, 9, 4, 11] {
///     let ta = p.dispatch(0xa0);
///     p.complete(0xa0, &ta, v);
///     let tb = p.dispatch(0xb0);
///     p.complete(0xb0, &tb, v + 4);
/// }
/// let t = p.dispatch(0xa0);
/// p.complete(0xa0, &t, 100);
/// let t = p.dispatch(0xb0);
/// assert_eq!(t.prediction.map(|g| g.value), Some(104));
/// ```
#[derive(Debug, Clone)]
pub struct SgvqPredictor {
    core: GDiffCore,
    queue: GlobalValueQueue,
    confidence: ConfidenceTable,
}

impl SgvqPredictor {
    /// Creates an SGVQ gDiff predictor.
    ///
    /// The paper's configuration is an 8K-entry table with a queue of
    /// order 32 (`SgvqPredictor::new(Capacity::Entries(8192), 32, Capacity::Entries(8192))`).
    pub fn new(table: Capacity, order: usize, confidence: Capacity) -> Self {
        SgvqPredictor {
            core: GDiffCore::new(table, order),
            queue: GlobalValueQueue::new(order),
            confidence: ConfidenceTable::with_defaults(confidence),
        }
    }

    /// The queue order `n`.
    pub fn order(&self) -> usize {
        self.queue.order()
    }

    /// Dispatch-phase prediction against the current speculative queue.
    pub fn dispatch(&mut self, pc: u64) -> SgvqToken {
        let queue = &self.queue;
        let (value, tap) = self.core.predict_with_tap(pc, |k| queue.back(k));
        let prediction = value.map(|value| GatedPrediction {
            value,
            confident: self.confidence.is_confident(pc),
        });
        SgvqToken {
            prediction,
            chosen_k: tap.map(|(k, _)| k),
            diff: tap.map(|(_, d)| d),
            fill_depth: queue.pushed().min(queue.order() as u64),
        }
    }

    /// Completion-phase update: trains the table against the queue as it
    /// stands *now* (completion order), pushes the result, and trains
    /// confidence.
    pub fn complete(&mut self, pc: u64, token: &SgvqToken, actual: u64) {
        let (values, avail) = self.queue.window();
        self.core.update_from_window(pc, actual, values, avail);
        self.queue.push(actual);
        if let Some(p) = token.prediction {
            self.confidence.train(pc, p.value == actual);
        }
    }

    /// Read access to the prediction core.
    pub fn core(&self) -> &GDiffCore {
        &self.core
    }

    /// Read access to the speculative queue.
    pub fn queue(&self) -> &GlobalValueQueue {
        &self.queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new_sgvq() -> SgvqPredictor {
        SgvqPredictor::new(Capacity::Unbounded, 8, Capacity::Unbounded)
    }

    /// splitmix64: genuinely unpredictable-looking test values.
    fn mix(i: u64) -> u64 {
        let mut z = i.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Runs the a -> b = a + 4 pair with a controllable completion gap for
    /// `a`: `late` inserts extra completions between a's dispatch and its
    /// completion, emulating a cache miss on even iterations.
    fn run_pair(varying_latency: bool) -> u64 {
        let mut p = new_sgvq();
        let mut correct = 0;
        for i in 0..200u64 {
            let noise = mix(i);
            let ta = p.dispatch(0xa0);
            // Filler instructions that complete before or after `a`
            // depending on the iteration's "cache behaviour".
            let tf = p.dispatch(0xf0);
            if varying_latency && i % 2 == 0 {
                // a misses: the filler completes first, then a.
                p.complete(0xf0, &tf, 5);
                p.complete(0xa0, &ta, noise);
            } else {
                p.complete(0xa0, &ta, noise);
                p.complete(0xf0, &tf, 5);
            }
            let tb = p.dispatch(0xb0);
            if tb.prediction.map(|g| g.value) == Some(noise.wrapping_add(4)) {
                correct += 1;
            }
            p.complete(0xb0, &tb, noise.wrapping_add(4));
        }
        correct
    }

    #[test]
    fn stable_completion_order_learns_the_pair() {
        let correct = run_pair(false);
        assert!(
            correct >= 190,
            "stable order must be near-perfect: {correct}"
        );
    }

    #[test]
    fn execution_variation_obscures_the_locality() {
        // The producer's queue distance flips between 1 and 2 across
        // iterations (Figure 14): the learned distance is wrong half the
        // time at best.
        let stable = run_pair(false);
        let varying = run_pair(true);
        assert!(
            varying <= stable * 3 / 4,
            "variation must hurt: varying {varying} vs stable {stable}"
        );
    }

    #[test]
    fn values_dispatched_before_completion_are_invisible() {
        let mut p = new_sgvq();
        // b dispatches while a is still in flight: a's value is not in the
        // queue, so even a learned distance cannot use it.
        for i in 0..50u64 {
            let noise = mix(i);
            let ta = p.dispatch(0xa0);
            let tb = p.dispatch(0xb0); // before a completes
            p.complete(0xa0, &ta, noise);
            p.complete(0xb0, &tb, noise.wrapping_add(4));
            if i > 10 {
                assert_ne!(
                    tb.prediction.map(|g| g.value),
                    Some(noise.wrapping_add(4)),
                    "the in-flight producer cannot be read at iteration {i}"
                );
            }
        }
    }

    #[test]
    fn confidence_gates_after_repeated_success() {
        let mut p = new_sgvq();
        let mut confident_correct = 0;
        for i in 0..20u64 {
            let ta = p.dispatch(0xa0);
            p.complete(0xa0, &ta, i * 3);
            let tb = p.dispatch(0xb0);
            if let Some(g) = tb.prediction {
                if g.confident && g.value == i * 3 + 1 {
                    confident_correct += 1;
                }
            }
            p.complete(0xb0, &tb, i * 3 + 1);
        }
        assert!(confident_correct >= 10, "{confident_correct}");
    }
}
