//! The fused profile-loop step against the two calls it replaces.
//!
//! `ValuePredictor::step` is the §3 profile loop's only predictor call;
//! gDiff, local stride and DFCM override it to probe their table once per
//! producer. Driven over random producer streams, each must return the
//! prediction `predict` returns and leave the predictor exactly as
//! `predict` followed by `update` leaves it: the same table counters
//! (conflicts, accesses, occupancy), the same state, and so the same later
//! predictions. Both a 16-entry table (which aliases the streams' 48 PCs)
//! and an unbounded one are covered.

use std::fmt::Debug;

use gdiff::GDiffPredictor;
use predictors::{Capacity, DfcmPredictor, StridePredictor, ValuePredictor};
use proptest::prelude::*;

const TABLES: [Capacity; 2] = [Capacity::Entries(16), Capacity::Unbounded];

/// Raw producers: a PC index, a value shape and a random word.
fn raw() -> impl Strategy<Value = Vec<(u64, u8, u64)>> {
    prop::collection::vec((0u64..48, 0u8..4, any::<u64>()), 1..400)
}

/// Turns raw producers into a (pc, value) stream mixing noise, a few
/// repeating values, strides off the previous value and a global count,
/// so every predictor both predicts and mispredicts.
fn stream(raw: &[(u64, u8, u64)]) -> Vec<(u64, u64)> {
    let mut prev = 0u64;
    raw.iter()
        .enumerate()
        .map(|(i, &(pc, shape, x))| {
            let value = match shape {
                0 => x,
                1 => x % 4,
                2 => prev.wrapping_add(x % 3),
                _ => i as u64 * 8,
            };
            prev = value;
            (0x1000 + pc * 4, value)
        })
        .collect()
}

/// Drives a clone of `fresh` with `predict` + `update` and `fresh` itself
/// with `step` over `stream`, checking each prediction and then the two
/// predictors' counters (`counters`), whole state (`Debug`), and a further
/// prediction for every PC. Returns how many steps predicted.
fn check<P, C>(fresh: P, stream: &[(u64, u64)], counters: impl Fn(&P) -> C) -> usize
where
    P: ValuePredictor + Clone + Debug,
    C: PartialEq + Debug,
{
    let mut split = fresh.clone();
    let mut fused = fresh;
    let mut predicted = 0;
    for (i, &(pc, value)) in stream.iter().enumerate() {
        let expected = split.predict(pc);
        split.update(pc, value);
        let got = fused.step(pc, value);
        prop_assert_eq!(got, expected, "{}: step {} (pc {:#x})", fused.name(), i, pc);
        predicted += usize::from(got.is_some());
    }
    prop_assert_eq!(counters(&fused), counters(&split), "{}", fused.name());
    prop_assert_eq!(
        format!("{fused:?}"),
        format!("{split:?}"),
        "{}",
        fused.name()
    );
    for pc in (0..48).map(|pc| 0x1000 + pc * 4) {
        prop_assert_eq!(fused.predict(pc), split.predict(pc), "later pc {:#x}", pc);
    }
    prop_assert_eq!(counters(&fused), counters(&split), "{}", fused.name());
    predicted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// gDiff at orders 1, 8, 32 and 64, with no value delay and with
    /// `T = 4`: the fused window step equals predict-then-update.
    #[test]
    fn gdiff_step_matches_predict_then_update(raw in raw()) {
        let stream = stream(&raw);
        for table in TABLES {
            for order in [1, 8, 32, 64] {
                for delay in [0, 4] {
                    let p = GDiffPredictor::with_delay(table, order, delay);
                    check(p, &stream, |p| {
                        let core = p.core();
                        (
                            core.conflict_rate().to_bits(),
                            core.table_accesses(),
                            core.table_conflicts(),
                            core.geometry(),
                        )
                    });
                }
            }
        }
    }

    /// Local stride and DFCM: the single-probe `step` equals
    /// predict-then-update.
    #[test]
    fn local_step_matches_predict_then_update(raw in raw()) {
        let stream = stream(&raw);
        for table in TABLES {
            let stride = StridePredictor::new(table);
            check(stride, &stream, |p| p.conflict_rate().to_bits());
            // A small second level keeps the state comparison cheap.
            let dfcm = DfcmPredictor::new(table, 2, 6);
            check(dfcm, &stream, |_| ());
        }
    }
}

/// The generated streams are not vacuous: every predictor does predict on
/// a long enough one.
#[test]
fn streams_exercise_predictions() {
    let raw: Vec<(u64, u8, u64)> = (0..2_000u64)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (x % 48, (x >> 8) as u8 % 4, x >> 16)
        })
        .collect();
    let stream = stream(&raw);
    for table in TABLES {
        let g = check(GDiffPredictor::new(table, 8), &stream, |_| ());
        let s = check(StridePredictor::new(table), &stream, |_| ());
        let d = check(DfcmPredictor::new(table, 2, 6), &stream, |_| ());
        assert!(g > 0 && s > 0 && d > 0, "{table:?}: {g} {s} {d}");
    }
}
