//! The profile-mode gDiff predictor (committed global value queue).

use std::collections::VecDeque;

use predictors::{Capacity, ValuePredictor};

use crate::{GDiffCore, GlobalValueQueue, MAX_ORDER};

/// The gDiff predictor with a committed, in-order global value queue — the
/// configuration of the paper's §3 profile studies (Figures 8–10).
///
/// Feed it the whole dynamic value stream: call
/// [`update`](ValuePredictor::update) for **every** value-producing
/// instruction in program order (this is what fills the GVQ), and
/// [`predict`](ValuePredictor::predict) for whichever instructions you want
/// predicted. The [`ValuePredictor`] impl makes it interchangeable with
/// the local baselines in the experiment harness.
///
/// # Value delay
///
/// [`with_delay`](Self::with_delay) reproduces §3.1's delay parameter *T*:
/// a produced value only becomes *visible in the queue* after `T` further
/// values have been produced, exactly as in-flight instructions hide their
/// results from the predictor. Training still happens against the delayed
/// queue view, so learned distances remain consistent with what predictions
/// will read: a correlation at true distance `D` is learnable at queue
/// distance `D − T` when `D > T`, and invisible otherwise — which is why
/// Figure 10's accuracy falls as `T` grows.
///
/// For the pipelined mitigations see [`SgvqPredictor`](crate::SgvqPredictor)
/// and [`HgvqPredictor`](crate::HgvqPredictor).
///
/// # Examples
///
/// ```
/// use gdiff::GDiffPredictor;
/// use predictors::{Capacity, ValuePredictor};
///
/// // A spill/fill pair: the reload (0xb0) always re-produces the value the
/// // defining load (0xa0) produced three values earlier.
/// let mut p = GDiffPredictor::new(Capacity::Entries(8192), 8);
/// for (i, v) in [528u64, 840, 792, 720, 816].into_iter().enumerate() {
///     p.update(0xa0, v);     // hard-to-predict define
///     p.update(0xc0, 1);     // unrelated
///     p.update(0xd0, 2);     // unrelated
///     let predicted = p.predict(0xb0);
///     p.update(0xb0, v);     // the reload
///     if i >= 2 {
///         // After two productions the distance-3, stride-0 pattern is locked.
///         assert_eq!(predicted, Some(v));
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct GDiffPredictor {
    core: GDiffCore,
    queue: GlobalValueQueue,
    pending: VecDeque<u64>,
    delay: usize,
    /// Reusable window scratch: lanes outside the availability mask are
    /// unspecified by contract, so the buffer never needs re-zeroing —
    /// avoiding a fresh `[0u64; MAX_ORDER]` (and its memset) per update.
    window: [u64; MAX_ORDER],
}

impl GDiffPredictor {
    /// Creates a gDiff predictor with the given table capacity and queue
    /// order, with no value delay.
    ///
    /// The paper's profile configuration is order 8 with an unlimited (or
    /// 8K-entry) table.
    pub fn new(table: Capacity, order: usize) -> Self {
        Self::with_delay(table, order, 0)
    }

    /// Creates a gDiff predictor whose queue lags the value stream by
    /// `delay` values (§3.1's parameter *T*).
    pub fn with_delay(table: Capacity, order: usize, delay: usize) -> Self {
        GDiffPredictor {
            core: GDiffCore::new(table, order),
            queue: GlobalValueQueue::new(order),
            pending: VecDeque::with_capacity(delay + 1),
            delay,
            window: [0; MAX_ORDER],
        }
    }

    /// The queue order `n`.
    pub fn order(&self) -> usize {
        self.queue.order()
    }

    /// The configured value delay `T`.
    pub fn delay(&self) -> usize {
        self.delay
    }

    /// Read access to the global value queue (the delayed view).
    pub fn queue(&self) -> &GlobalValueQueue {
        &self.queue
    }

    /// Read access to the prediction core (table statistics, entries).
    pub fn core(&self) -> &GDiffCore {
        &self.core
    }

    /// Conflict (aliasing) rate of the prediction table — Figure 9's
    /// metric.
    pub fn conflict_rate(&self) -> f64 {
        self.core.conflict_rate()
    }
}

impl ValuePredictor for GDiffPredictor {
    fn predict(&mut self, pc: u64) -> Option<u64> {
        let queue = &self.queue;
        self.core.predict_with_tap(pc, |k| queue.back(k)).0
    }

    fn update(&mut self, pc: u64, actual: u64) {
        // Train against the *delayed* queue view: this is the state the
        // matching prediction would have read, so learned distances stay
        // meaningful. The queue is read once as a batched window — the
        // per-completion hot path.
        let avail = self.queue.window(&mut self.window);
        self.core
            .update_from_window(pc, actual, &self.window, avail);
        self.pending.push_back(actual);
        while self.pending.len() > self.delay {
            let v = self.pending.pop_front().expect("len checked");
            self.queue.push(v);
        }
    }

    fn name(&self) -> &'static str {
        "gdiff"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64: genuinely unpredictable-looking test values.
    fn mix(i: u64) -> u64 {
        let mut z = i.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    #[test]
    fn learns_spill_fill_equality() {
        // The reload produces exactly the defining load's value, 2 values
        // back: distance 2, stride 0 — the paper's parser example.
        let mut p = GDiffPredictor::new(Capacity::Unbounded, 8);
        let defines = [528u64, 840, 0, 792, 0, 720, 0, 816, 768, 744];
        let mut correct = 0;
        for &v in &defines {
            p.update(0xa0, v);
            p.update(0xc0, 7); // constant interloper
            if p.predict(0xb0) == Some(v) {
                correct += 1;
            }
            p.update(0xb0, v);
        }
        assert!(
            correct >= defines.len() - 2,
            "learned after two productions: {correct}"
        );
    }

    #[test]
    fn learns_add_constant_chain() {
        // use: r = define + 40, at distance 1.
        let mut p = GDiffPredictor::new(Capacity::Unbounded, 4);
        let mut correct = 0;
        for v in [3u64, 19, 2, 84, 30, 11] {
            p.update(0xa0, v);
            if p.predict(0xb0) == Some(v + 40) {
                correct += 1;
            }
            p.update(0xb0, v + 40);
        }
        assert!(correct >= 4, "{correct}");
    }

    #[test]
    fn distance_beyond_order_is_not_learnable() {
        // Correlation at distance 5 with an order-4 queue: gDiff must stay
        // silent or wrong, never panic.
        let mut p = GDiffPredictor::new(Capacity::Unbounded, 4);
        let mut correct = 0;
        for v in 0..50u64 {
            let noise = mix(v);
            p.update(0xa0, noise);
            for j in 0..4u64 {
                p.update(0x100 + j * 4, (v * 31 + j * 7) ^ (noise >> j)); // uncorrelated noise
            }
            if p.predict(0xb0) == Some(noise) {
                correct += 1;
            }
            p.update(0xb0, noise);
        }
        assert!(correct <= 4, "distance 5 exceeds order 4, got {correct}");
    }

    #[test]
    fn longer_queue_captures_longer_chains() {
        // Same stream, order 8: the distance-5 correlation is now in reach
        // (the paper's gap benchmark observation, §3).
        let mut p = GDiffPredictor::new(Capacity::Unbounded, 8);
        let mut correct = 0;
        for v in 0..50u64 {
            let noise = mix(v);
            p.update(0xa0, noise);
            for j in 0..4u64 {
                p.update(0x100 + j * 4, (v * 31 + j * 7) ^ (noise >> j));
            }
            if p.predict(0xb0) == Some(noise) {
                correct += 1;
            }
            p.update(0xb0, noise);
        }
        assert!(
            correct >= 45,
            "order 8 must capture distance 5, got {correct}"
        );
    }

    #[test]
    fn global_stride_between_two_locally_strided_loads() {
        // Figure 17: a produces 1,2,3,… and b produces 3,4,5,… close by.
        // gDiff sees b = a + 2 at distance 1.
        let mut p = GDiffPredictor::new(Capacity::Unbounded, 8);
        let mut correct = 0;
        for i in 0..20u64 {
            p.update(0xa0, i);
            if p.predict(0xb0) == Some(i + 2) {
                correct += 1;
            }
            p.update(0xb0, i + 2);
        }
        assert!(correct >= 18, "{correct}");
    }

    #[test]
    fn delay_hides_short_distance_correlation() {
        // b = a + 4 at distance 1; with T = 8 the producer is never visible.
        let run = |delay: usize| -> u64 {
            let mut p = GDiffPredictor::with_delay(Capacity::Unbounded, 8, delay);
            let mut correct = 0;
            for v in 0..100u64 {
                let noise = mix(v);
                p.update(0xa0, noise);
                if p.predict(0xb0) == Some(noise.wrapping_add(4)) {
                    correct += 1;
                }
                p.update(0xb0, noise.wrapping_add(4));
            }
            correct
        };
        assert!(run(0) >= 95, "ideal gdiff catches the distance-1 stride");
        assert!(run(8) <= 5, "delay 8 hides the producer");
    }

    #[test]
    fn delay_spares_long_distance_correlation() {
        // Correlation at true distance 6, delay 4: visible at queue
        // distance 2 — the prediction survives.
        let mut p = GDiffPredictor::with_delay(Capacity::Unbounded, 16, 4);
        let mut correct = 0;
        for v in 0..100u64 {
            let noise = mix(v);
            p.update(0xa0, noise);
            for j in 0..5u64 {
                p.update(0x100 + j * 4, j + 1); // constant fillers
            }
            if p.predict(0xb0) == Some(noise) {
                correct += 1;
            }
            p.update(0xb0, noise);
        }
        assert!(
            correct >= 90,
            "distance 6 > delay 4 must survive: {correct}"
        );
    }

    #[test]
    fn delay_shrinks_effective_queue_reach() {
        // True distance 6, delay 4, order 2: needs queue distance 2 — just
        // fits. Order 1 cannot reach it.
        let run = |order: usize| -> u64 {
            let mut p = GDiffPredictor::with_delay(Capacity::Unbounded, order, 4);
            let mut correct = 0;
            for v in 0..60u64 {
                let noise = mix(v);
                p.update(0xa0, noise);
                for j in 0..5u64 {
                    p.update(0x100 + j * 4, j + 1);
                }
                if p.predict(0xb0) == Some(noise) {
                    correct += 1;
                }
                p.update(0xb0, noise);
            }
            correct
        };
        assert!(run(2) >= 50, "order 2 reaches the shifted distance");
        assert!(run(1) <= 5, "order 1 cannot");
    }
}
