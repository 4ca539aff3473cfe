//! Property-based tests for the gDiff core invariants.

use gdiff::{GDiffCore, GDiffPredictor, GlobalValueQueue, HgvqPredictor, SgvqPredictor, MAX_ORDER};
use predictors::{Capacity, ValuePredictor};
use proptest::prelude::*;

proptest! {
    /// The queue reports exactly the last `order` pushed values, most
    /// recent at distance 1.
    #[test]
    fn queue_matches_reference_model(values in prop::collection::vec(any::<u64>(), 1..200), order in 1usize..40) {
        let mut q = GlobalValueQueue::new(order);
        for &v in &values {
            q.push(v);
        }
        for k in 1..=order + 2 {
            let expected = if k <= order && k <= values.len() {
                Some(values[values.len() - k])
            } else {
                None
            };
            prop_assert_eq!(q.back(k), expected, "k={}", k);
        }
    }

    /// `back_from` agrees with `back` when anchored at the newest slot.
    #[test]
    fn back_from_head_equals_back(values in prop::collection::vec(any::<u64>(), 2..100), order in 2usize..32) {
        let mut q = GlobalValueQueue::new(order);
        let mut last = None;
        for &v in &values {
            last = Some(q.push(v));
        }
        let last = last.unwrap();
        for k in 1..order {
            // back(k+1) skips the newest value, which back_from(last, k) also skips.
            prop_assert_eq!(q.back_from(last, k), q.back(k + 1));
        }
    }

    /// Patching a live slot is always visible; patching an evicted slot
    /// never is.
    #[test]
    fn patch_visibility(order in 1usize..16, extra in 0usize..40) {
        let mut q = GlobalValueQueue::new(order);
        let slot = q.push(1);
        for i in 0..extra {
            q.push(i as u64 + 100);
        }
        let live = extra < order;
        prop_assert_eq!(q.patch(slot, 42), live);
        if live {
            prop_assert_eq!(q.back(extra + 1), Some(42));
        }
    }

    /// A constant correlation at any in-range distance is learned after
    /// two productions and predicted exactly thereafter.
    #[test]
    fn in_range_correlations_always_learned(
        distance in 1usize..8,
        stride in any::<u32>(),
        seeds in prop::collection::vec(any::<u64>(), 4..30),
    ) {
        let mut p = GDiffPredictor::new(Capacity::Unbounded, 8);
        let mut wrong_after_learning = 0;
        for (n, &seed) in seeds.iter().enumerate() {
            p.update(0xa0, seed); // producer
            for j in 0..distance - 1 {
                p.update(0x100 + j as u64 * 4, j as u64); // constant fillers
            }
            let target = seed.wrapping_add(stride as u64);
            if n >= 2 && p.predict(0xb0) != Some(target) {
                wrong_after_learning += 1;
            }
            p.update(0xb0, target);
        }
        prop_assert_eq!(wrong_after_learning, 0);
    }

    /// The core never panics and never predicts without a learned
    /// distance, whatever the value stream. It is driven the way the
    /// predictors drive it: a closure read at predict, a queue window at
    /// update.
    #[test]
    fn core_is_total(updates in prop::collection::vec((0u64..64, any::<u64>()), 0..300)) {
        let mut core = GDiffCore::new(Capacity::Entries(64), 8);
        let mut queue = GlobalValueQueue::new(8);
        let mut window = [0u64; MAX_ORDER];
        for (pc, v) in updates {
            let pc = pc * 4;
            let read = |k: usize| queue.back(k);
            if let (Some(prediction), _) = core.predict_with_tap(pc, read) {
                // A prediction implies a learned distance and stored diff.
                let e = core.entry(pc).expect("entry exists after prediction");
                let k = e.distance().expect("distance learned");
                prop_assert_eq!(
                    prediction,
                    read(k).unwrap().wrapping_add(e.diff(k).unwrap() as u64)
                );
            }
            let avail = queue.window(&mut window);
            core.update_from_window(pc, v, &window, avail);
            queue.push(v);
        }
    }

    /// HGVQ: dispatch/writeback in any interleaving (writebacks possibly
    /// out of order) never panics and keeps slot bookkeeping consistent.
    #[test]
    fn hgvq_tolerates_any_writeback_order(
        ops in prop::collection::vec((0u64..8, any::<u64>()), 1..100),
        reorder in any::<u64>(),
    ) {
        let mut p = HgvqPredictor::with_stride_filler(Capacity::Unbounded, 16, Capacity::Unbounded);
        let mut pending = Vec::new();
        let mut rng_state = reorder | 1;
        for (pc, v) in ops {
            let pc = 0x40 + pc * 4;
            let token = p.dispatch(pc);
            pending.push((pc, token, v));
            // Pseudo-randomly retire a pending instruction.
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if !rng_state.is_multiple_of(3) && !pending.is_empty() {
                let idx = (rng_state as usize / 7) % pending.len();
                let (pc, token, v) = pending.swap_remove(idx);
                p.writeback(pc, &token, v);
            }
        }
        for (pc, token, v) in pending {
            p.writeback(pc, &token, v);
        }
    }

    /// SGVQ: same totality property under arbitrary completion orders.
    #[test]
    fn sgvq_tolerates_any_completion_order(
        ops in prop::collection::vec((0u64..8, any::<u64>()), 1..100),
        reorder in any::<u64>(),
    ) {
        let mut p = SgvqPredictor::new(Capacity::Unbounded, 16, Capacity::Unbounded);
        let mut pending = Vec::new();
        let mut rng_state = reorder | 1;
        for (pc, v) in ops {
            let pc = 0x40 + pc * 4;
            let token = p.dispatch(pc);
            pending.push((pc, token, v));
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if !rng_state.is_multiple_of(3) && !pending.is_empty() {
                let idx = (rng_state as usize / 7) % pending.len();
                let (pc, token, v) = pending.swap_remove(idx);
                p.complete(pc, &token, v);
            }
        }
        for (pc, token, v) in pending {
            p.complete(pc, &token, v);
        }
    }

    /// Delay wrapper semantics: with delay T, a prediction for the stream
    /// position N uses queue state from position N - T.
    #[test]
    fn delayed_gdiff_equals_shifted_ideal(values in prop::collection::vec(any::<u64>(), 10..80), delay in 0usize..8) {
        // Feed the same single-pc stream to a delayed predictor and check
        // its queue lags by exactly `delay` values.
        let mut p = GDiffPredictor::with_delay(Capacity::Unbounded, 8, delay);
        for (i, &v) in values.iter().enumerate() {
            p.update(0x40, v);
            let visible = i + 1 - delay.min(i + 1);
            prop_assert_eq!(p.queue().pushed() as usize, visible);
        }
    }
}
