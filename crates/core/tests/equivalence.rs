//! Equivalence suite: the vectorized hot path against the scalar reference.
//!
//! Two layers are pinned bit-for-bit:
//!
//! * [`GDiffCore`] against [`ReferenceCore`], the retained pre-vectorization
//!   scalar scan, under random update/predict interleavings including
//!   partial availability masks, wrapping diffs, and bounded-table aliasing;
//! * [`GlobalValueQueue::window`] / `window_from` against the per-distance
//!   `back` / `back_from` reads they batch.

use gdiff::reference::ReferenceCore;
use gdiff::{GDiffCore, GlobalValueQueue, MAX_ORDER};
use predictors::Capacity;
use proptest::prelude::*;

/// One update/predict step: a pc, the produced value, and a queue view as a
/// presence bitmask over `MAX_ORDER` candidate lane values.
type RawStep = (u64, u64, u64, Vec<u64>);

/// Strategy for a batch of raw steps; lane values are generated at full
/// `MAX_ORDER` width and truncated to the run's order in the body.
fn steps() -> impl Strategy<Value = Vec<RawStep>> {
    prop::collection::vec(
        (
            0u64..16,
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(any::<u64>(), MAX_ORDER..MAX_ORDER + 1),
        ),
        1..50,
    )
}

/// Expands a raw step into per-distance optional slot values for `order`.
fn slots_of(step: &RawStep, order: usize) -> Vec<Option<u64>> {
    let (_, _, mask, vals) = step;
    (0..order)
        .map(|i| ((mask >> i) & 1 != 0).then(|| vals[i]))
        .collect()
}

/// Packs per-distance optional values into (window, avail) form.
fn pack(slots: &[Option<u64>]) -> ([u64; MAX_ORDER], u64) {
    let mut window = [0u64; MAX_ORDER];
    let mut avail = 0u64;
    for (i, s) in slots.iter().enumerate().take(MAX_ORDER) {
        if let Some(v) = *s {
            window[i] = v;
            avail |= 1 << i;
        }
    }
    (window, avail)
}

/// Asserts that both cores expose identical distances, diffs, and
/// predictions for `pc` against the given queue view.
fn assert_cores_agree(
    vec_core: &mut GDiffCore,
    ref_core: &mut ReferenceCore,
    order: usize,
    pc: u64,
    slots: &[Option<u64>],
) {
    let read = |k: usize| slots.get(k - 1).copied().flatten();
    let (vec_value, vec_tap) = vec_core.predict_with_tap(pc, read);
    let (ref_value, ref_tap) = ref_core.predict_with_tap(pc, read);
    assert_eq!(vec_value, ref_value, "prediction for pc {pc:#x}");
    assert_eq!(vec_tap, ref_tap, "tap for pc {pc:#x}");

    let vec_distance = vec_core.entry(pc).and_then(|e| e.distance());
    assert_eq!(vec_distance, ref_core.distance(pc));
    for k in 1..=order {
        let vec_diff = vec_core.entry(pc).and_then(|e| e.diff(k));
        assert_eq!(vec_diff, ref_core.diff(pc, k), "diff at k={k}");
    }
}

proptest! {
    /// The lane-parallel window update and the scalar reference stay
    /// bit-identical through random interleavings with partial
    /// availability and wrapping values, on unbounded tables.
    #[test]
    fn vectorized_core_matches_scalar_reference(order in 1usize..65, steps in steps()) {
        let mut vec_core = GDiffCore::new(Capacity::Unbounded, order);
        let mut ref_core = ReferenceCore::new(Capacity::Unbounded, order);
        for step in &steps {
            let slots = slots_of(step, order);
            assert_cores_agree(&mut vec_core, &mut ref_core, order, step.0, &slots);
            let (window, avail) = pack(&slots);
            vec_core.update_from_window(step.0, step.1, &window, avail);
            let read = |k: usize| slots.get(k - 1).copied().flatten();
            ref_core.update_with(step.0, step.1, read);
        }
        for step in &steps {
            let slots = slots_of(step, order);
            assert_cores_agree(&mut vec_core, &mut ref_core, order, step.0, &slots);
        }
    }

    /// Same equivalence on a tiny bounded table, where distinct PCs alias
    /// and conflict-preserving `entry_shared` semantics must match too.
    #[test]
    fn vectorized_core_matches_reference_under_aliasing(order in 1usize..65, steps in steps()) {
        let mut vec_core = GDiffCore::new(Capacity::Entries(4), order);
        let mut ref_core = ReferenceCore::new(Capacity::Entries(4), order);
        for step in &steps {
            let slots = slots_of(step, order);
            assert_cores_agree(&mut vec_core, &mut ref_core, order, step.0, &slots);
            let (window, avail) = pack(&slots);
            vec_core.update_from_window(step.0, step.1, &window, avail);
            let read = |k: usize| slots.get(k - 1).copied().flatten();
            ref_core.update_with(step.0, step.1, read);
        }
    }

    /// Bits set in `avail` beyond the core's order never change the
    /// outcome: the kernel masks them before matching.
    #[test]
    fn avail_bits_beyond_order_are_inert(
        order in 1usize..65,
        steps in steps(),
        garbage in any::<u64>(),
    ) {
        let mut clean = GDiffCore::new(Capacity::Unbounded, order);
        let mut dirty = GDiffCore::new(Capacity::Unbounded, order);
        let high = if order >= 64 { 0 } else { garbage << order };
        for step in &steps {
            let slots = slots_of(step, order);
            let (window, avail) = pack(&slots);
            clean.update_from_window(step.0, step.1, &window, avail);
            dirty.update_from_window(step.0, step.1, &window, avail | high);
            let a = clean.entry(step.0).expect("updated");
            let b = dirty.entry(step.0).expect("updated");
            prop_assert_eq!(a.distance(), b.distance());
            for k in 1..=order {
                prop_assert_eq!(a.diff(k), b.diff(k));
            }
        }
    }

    /// `window` is the batched form of `back`: lane `k - 1` holds `back(k)`
    /// wherever the availability mask is set, and the mask is set exactly
    /// where `back(k)` resolves.
    #[test]
    fn queue_window_matches_back(
        values in prop::collection::vec(any::<u64>(), 0..150),
        order in 1usize..65,
    ) {
        let mut q = GlobalValueQueue::new(order);
        for &v in &values {
            q.push(v);
        }
        let mut window = [0u64; MAX_ORDER];
        let avail = q.window(&mut window);
        for k in 1..=order {
            let lane = ((avail >> (k - 1)) & 1 != 0).then_some(window[k - 1]);
            prop_assert_eq!(lane, q.back(k), "k={}", k);
        }
        if order < 64 {
            prop_assert_eq!(avail >> order, 0, "no bits beyond the order");
        }
    }

    /// `window_from` is the batched form of `back_from` for any anchor
    /// slot, live or long evicted.
    #[test]
    fn queue_window_from_matches_back_from(
        values in prop::collection::vec(any::<u64>(), 1..120),
        order in 1usize..65,
        anchor_back in 0usize..130,
    ) {
        let mut q = GlobalValueQueue::new(order);
        let mut slots = Vec::new();
        for &v in &values {
            slots.push(q.push(v));
        }
        let anchor = slots[slots.len() - 1 - anchor_back.min(slots.len() - 1)];
        let mut window = [0u64; MAX_ORDER];
        let avail = q.window_from(anchor, &mut window);
        for k in 1..=order {
            let lane = ((avail >> (k - 1)) & 1 != 0).then_some(window[k - 1]);
            prop_assert_eq!(lane, q.back_from(anchor, k), "k={}", k);
        }
        if order < 64 {
            prop_assert_eq!(avail >> order, 0, "no bits beyond the order");
        }
    }
}
