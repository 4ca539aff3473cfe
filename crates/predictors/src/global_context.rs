//! Order-k global *context* prediction — the other global-history family.

use crate::fcm::fold_history;
use crate::{Capacity, PcTable, ValuePredictor};
use std::collections::VecDeque;

/// An order-`k` global context predictor: predicts that when the last `k`
/// values of the *global* value history repeat, the instruction repeats its
/// value too.
///
/// This generalizes the [`PiPredictor`](crate::PiPredictor) (order 1) and
/// stands in for the DDISC predictor of Thomas & Franklin \[28\], which the
/// paper positions as the prior global-history approach. The paper's §2
/// argument — and this crate's tests — show why the *computational* model
/// (gDiff) dominates it on global histories: global contexts built from
/// ever-changing values essentially never repeat, while stride
/// relationships between positions stay constant.
///
/// Like gDiff and PI, it must observe the whole dynamic value stream: call
/// [`update`](ValuePredictor::update) for every value-producing
/// instruction in order.
///
/// # Examples
///
/// ```
/// use predictors::{Capacity, GlobalContextPredictor, ValuePredictor};
///
/// let mut p = GlobalContextPredictor::new(Capacity::Unbounded, 2, 16);
/// // B's value follows the global context (3, 9) twice.
/// for _ in 0..2 {
///     p.update(0xa0, 3);
///     p.update(0xc0, 9);
///     p.update(0xb0, 7);
/// }
/// p.update(0xa0, 3);
/// p.update(0xc0, 9);
/// assert_eq!(p.predict(0xb0), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct GlobalContextPredictor {
    /// Per-PC: hash of the global context that preceded the last execution
    /// and the value that followed it.
    table: PcTable<Option<(u64, u64)>>,
    history: VecDeque<u64>,
    order: usize,
    hash_bits: u32,
}

impl GlobalContextPredictor {
    /// Creates an order-`order` global context predictor whose contexts
    /// hash to `hash_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero or `hash_bits` is not in `1..=32`.
    pub fn new(capacity: Capacity, order: usize, hash_bits: u32) -> Self {
        assert!(order > 0, "context order must be nonzero");
        assert!((1..=32).contains(&hash_bits), "hash bits in 1..=32");
        GlobalContextPredictor {
            table: PcTable::new(capacity),
            history: VecDeque::with_capacity(order),
            order,
            hash_bits,
        }
    }

    fn context(&self) -> Option<u64> {
        if self.history.len() < self.order {
            return None;
        }
        Some(fold_history(self.history.iter().copied(), self.hash_bits))
    }
}

impl ValuePredictor for GlobalContextPredictor {
    fn predict(&mut self, pc: u64) -> Option<u64> {
        let ctx = self.context()?;
        match *self.table.entry_shared(pc) {
            Some((stored_ctx, value)) if stored_ctx == ctx => Some(value),
            _ => None,
        }
    }

    fn update(&mut self, pc: u64, actual: u64) {
        if let Some(ctx) = self.context() {
            *self.table.entry_shared(pc) = Some((ctx, actual));
        }
        self.history.push_back(actual);
        if self.history.len() > self.order {
            self.history.pop_front();
        }
    }

    fn name(&self) -> &'static str {
        "global-context"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeating_global_contexts_are_learned() {
        let mut p = GlobalContextPredictor::new(Capacity::Unbounded, 3, 16);
        let mut correct = 0;
        for lap in 0..50 {
            for (pc, v) in [(0x10u64, 1u64), (0x14, 2), (0x18, 3), (0x1c, 4)] {
                if lap > 1 && p.predict(pc) == Some(v) {
                    correct += 1;
                }
                p.update(pc, v);
            }
        }
        assert!(correct > 180, "{correct}");
    }

    /// The paper's §2 point: a global *stride* relation with changing
    /// values defeats context matching entirely, while gDiff nails it.
    #[test]
    fn stride_relations_with_fresh_values_defeat_global_context() {
        let mut ctx = GlobalContextPredictor::new(Capacity::Unbounded, 3, 16);
        let mut gd = gdiff_helper::new();
        let (mut ctx_ok, mut gd_ok, mut total) = (0u64, 0u64, 0u64);
        for i in 0..300u64 {
            let mut z = i.wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            let hard = z ^ (z >> 27);
            ctx.update(0xa0, hard);
            gd.update(0xa0, hard);
            total += 1;
            if ctx.predict(0xb0) == Some(hard.wrapping_add(4)) {
                ctx_ok += 1;
            }
            if gd.predict(0xb0) == Some(hard.wrapping_add(4)) {
                gd_ok += 1;
            }
            ctx.update(0xb0, hard.wrapping_add(4));
            gd.update(0xb0, hard.wrapping_add(4));
        }
        assert_eq!(ctx_ok, 0, "global contexts never repeat");
        assert!(
            gd_ok as f64 > 0.95 * total as f64,
            "gdiff catches the stride: {gd_ok}/{total}"
        );
    }

    #[test]
    fn cold_and_short_histories_are_silent() {
        let mut p = GlobalContextPredictor::new(Capacity::Unbounded, 4, 16);
        assert_eq!(p.predict(0), None);
        for v in 0..3 {
            p.update(0, v);
            assert_eq!(p.predict(0), None);
        }
    }

    /// A tiny stand-in so this module can compare against gDiff without a
    /// circular dev-dependency: a distance-1 differencing predictor.
    mod gdiff_helper {
        pub struct Mini {
            last_global: Option<u64>,
            diff: std::collections::HashMap<u64, (i64, bool)>,
            prev_diff: std::collections::HashMap<u64, i64>,
        }

        pub fn new() -> Mini {
            Mini {
                last_global: None,
                diff: std::collections::HashMap::new(),
                prev_diff: std::collections::HashMap::new(),
            }
        }

        impl Mini {
            pub fn predict(&mut self, pc: u64) -> Option<u64> {
                let base = self.last_global?;
                match self.diff.get(&pc) {
                    Some(&(d, true)) => Some(base.wrapping_add(d as u64)),
                    _ => None,
                }
            }

            pub fn update(&mut self, pc: u64, actual: u64) {
                if let Some(g) = self.last_global {
                    let d = actual.wrapping_sub(g) as i64;
                    let confirmed = self.prev_diff.get(&pc) == Some(&d);
                    self.diff.insert(pc, (d, confirmed));
                    self.prev_diff.insert(pc, d);
                }
                self.last_global = Some(actual);
            }
        }
    }
}
