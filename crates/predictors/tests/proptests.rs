//! Property-based tests for the predictor substrate.

use std::collections::BTreeMap;

use predictors::{
    Capacity, ConfidenceConfig, ConfidenceTable, DfcmPredictor, FcmPredictor, LastValuePredictor,
    MarkovConfig, MarkovPredictor, PcTable, PredictorStats, StridePredictor, ValuePredictor,
    MAX_CONTEXT,
};
use proptest::prelude::*;
use workloads::{Benchmark, SyntheticSource, TraceSource};

/// FCM and DFCM as they were first written: each level-1 entry keeps its
/// context in a `Vec` and the context is re-hashed on every predict and
/// update. This is the equivalence oracle for the inline-context
/// [`FcmPredictor`] and [`DfcmPredictor`], as `gdiff::reference` is for
/// the gDiff core.
mod reference {
    use predictors::{Capacity, PcTable};

    fn fold_history(history: &[u64], bits: u32) -> u64 {
        let mut h: u64 = 0;
        for &v in history {
            let mixed = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h = h.rotate_left(bits.max(5)) ^ mixed;
        }
        let mut x = h;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x & ((1u64 << bits) - 1)
    }

    pub struct Fcm {
        l1: PcTable<Vec<u64>>,
        l2: Vec<Option<u64>>,
        order: usize,
        l2_bits: u32,
    }

    impl Fcm {
        pub fn new(l1: Capacity, order: usize, l2_bits: u32) -> Self {
            Fcm {
                l1: PcTable::new(l1),
                l2: vec![None; 1 << l2_bits],
                order,
                l2_bits,
            }
        }

        fn context_index(&mut self, pc: u64) -> Option<usize> {
            let history = self.l1.entry_shared(pc);
            (history.len() >= self.order).then(|| fold_history(history, self.l2_bits) as usize)
        }

        pub fn predict(&mut self, pc: u64) -> Option<u64> {
            let idx = self.context_index(pc)?;
            self.l2[idx]
        }

        pub fn update(&mut self, pc: u64, actual: u64) {
            if let Some(idx) = self.context_index(pc) {
                self.l2[idx] = Some(actual);
            }
            let history = self.l1.entry_shared(pc);
            history.push(actual);
            if history.len() > self.order {
                history.remove(0);
            }
        }
    }

    #[derive(Debug, Clone, Default)]
    struct DfcmEntry {
        last: Option<u64>,
        strides: Vec<i64>,
    }

    pub struct Dfcm {
        l1: PcTable<DfcmEntry>,
        l2: Vec<Option<i64>>,
        order: usize,
        l2_bits: u32,
    }

    impl Dfcm {
        pub fn new(l1: Capacity, order: usize, l2_bits: u32) -> Self {
            Dfcm {
                l1: PcTable::new(l1),
                l2: vec![None; 1 << l2_bits],
                order,
                l2_bits,
            }
        }

        fn index_of(strides: &[i64], l2_bits: u32) -> usize {
            let as_u64: Vec<u64> = strides.iter().map(|&s| s as u64).collect();
            fold_history(&as_u64, l2_bits) as usize
        }

        pub fn predict(&mut self, pc: u64) -> Option<u64> {
            let e = self.l1.entry_shared(pc);
            let last = e.last?;
            if e.strides.len() < self.order {
                return None;
            }
            let idx = Self::index_of(&e.strides, self.l2_bits);
            self.l2[idx].map(|stride| last.wrapping_add(stride as u64))
        }

        pub fn update(&mut self, pc: u64, actual: u64) {
            let e = self.l1.entry_shared(pc);
            if let Some(last) = e.last {
                let stride = actual.wrapping_sub(last) as i64;
                if e.strides.len() >= self.order {
                    let idx = Self::index_of(&e.strides, self.l2_bits);
                    self.l2[idx] = Some(stride);
                }
                e.strides.push(stride);
                if e.strides.len() > self.order {
                    e.strides.remove(0);
                }
            }
            e.last = Some(actual);
        }
    }
}

/// The capacity a `0..4` test parameter selects: unbounded, or a tagless
/// table of 1, 4 or 16 entries small enough that PCs alias.
fn capacity(pick: usize) -> Capacity {
    match pick {
        0 => Capacity::Unbounded,
        n => Capacity::Entries(1 << (2 * (n - 1))),
    }
}

#[test]
#[should_panic(expected = "exceeds MAX_CONTEXT")]
fn dfcm_order_above_max_context_panics() {
    let _ = DfcmPredictor::new(Capacity::Unbounded, MAX_CONTEXT + 1, 16);
}

#[test]
#[should_panic(expected = "exceeds MAX_CONTEXT")]
fn fcm_order_above_max_context_panics() {
    let _ = FcmPredictor::new(Capacity::Unbounded, MAX_CONTEXT + 1, 16);
}

/// Stride and DFCM stats over the first producers of `Benchmark::ALL[0]`,
/// on unbounded tables built (and so keyed) by the calling thread.
fn unbounded_stats() -> Vec<PredictorStats> {
    let mut predictors: Vec<Box<dyn ValuePredictor>> = vec![
        Box::new(StridePredictor::new(Capacity::Unbounded)),
        Box::new(DfcmPredictor::new(Capacity::Unbounded, 4, 16)),
    ];
    let mut stats = vec![PredictorStats::new(); predictors.len()];
    let source = SyntheticSource::new(7);
    for inst in source
        .stream(Benchmark::ALL[0])
        .filter(|i| i.produces_value())
        .take(30_000)
    {
        for (p, s) in predictors.iter_mut().zip(&mut stats) {
            s.record(p.predict(inst.pc), false, inst.value);
            p.update(inst.pc, inst.value);
        }
    }
    stats
}

/// Every unbounded table draws its own hash keys, and a second thread
/// draws from a different per-thread random state: the stats must not
/// depend on either.
#[test]
fn unbounded_stats_do_not_depend_on_hash_keys() {
    let here = unbounded_stats();
    let there = std::thread::spawn(unbounded_stats).join().unwrap();
    assert!(here[0].total() > 0);
    assert_eq!(here, there);
    assert_eq!(here, unbounded_stats());
}

proptest! {
    /// An unbounded table behaves exactly like a per-PC map: random
    /// `entry` / `entry_shared` / `peek` sequences match a `BTreeMap`
    /// model, including PCs whose variation sits only in bits a weak hash
    /// drops.
    #[test]
    fn unbounded_table_is_a_map(
        ops in prop::collection::vec((0u8..3, 0u8..3, 0u64..512, any::<u64>()), 0..400)
    ) {
        let mut t: PcTable<u64> = PcTable::new(Capacity::Unbounded);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut accesses = 0u64;
        for (op, shape, i, v) in ops {
            let pc = match shape {
                0 => i * 4,
                1 => i << 32,
                _ => (i << 20) | 0x40,
            };
            match op {
                0 | 1 => {
                    let slot = if op == 0 { t.entry(pc) } else { t.entry_shared(pc) };
                    let expected = model.entry(pc).or_default();
                    prop_assert_eq!(*slot, *expected);
                    *slot = v;
                    *expected = v;
                    accesses += 1;
                }
                _ => prop_assert_eq!(t.peek(pc), model.get(&pc)),
            }
            prop_assert_eq!(t.len(), model.len());
        }
        prop_assert_eq!(t.accesses(), accesses);
        prop_assert_eq!(t.conflicts(), 0);
        prop_assert_eq!(t.geometry().occupied, model.len());
    }

    /// Bounded-table conflicts are exactly the accesses whose slot was
    /// last owned by a different pc.
    #[test]
    fn conflict_count_matches_reference(pcs in prop::collection::vec(0u64..64, 1..300)) {
        let entries = 8usize;
        let mut t: PcTable<u64> = PcTable::new(Capacity::Entries(entries));
        let mut owners: Vec<Option<u64>> = vec![None; entries];
        let mut expected = 0u64;
        for pc in pcs {
            let pc = pc * 4;
            let idx = (pc >> 2) as usize & (entries - 1);
            if let Some(owner) = owners[idx] {
                if owner != pc {
                    expected += 1;
                }
            }
            owners[idx] = Some(pc);
            t.entry_shared(pc);
        }
        prop_assert_eq!(t.conflicts(), expected);
    }

    /// Confidence counters stay within [0, max] and threshold behaviour is
    /// consistent with the counter value.
    #[test]
    fn confidence_counter_bounds(outcomes in prop::collection::vec(any::<bool>(), 0..200)) {
        let config = ConfidenceConfig::default();
        let mut c = ConfidenceTable::new(Capacity::Unbounded, config);
        for ok in outcomes {
            c.train(0x40, ok);
            let counter = c.counter(0x40);
            prop_assert!(counter <= config.max);
            prop_assert_eq!(c.is_confident(0x40), counter >= config.threshold);
        }
    }

    /// The 2-delta stride predictor is exact on any affine sequence after
    /// warm-up, for any stride (including zero and negative).
    #[test]
    fn stride_exact_on_affine(base in any::<u64>(), stride in any::<i64>(), len in 4usize..50) {
        let mut p = StridePredictor::new(Capacity::Unbounded);
        let mut wrong = 0;
        for i in 0..len {
            let v = base.wrapping_add((stride as u64).wrapping_mul(i as u64));
            if i >= 3 && p.predict(0x40) != Some(v) {
                wrong += 1;
            }
            p.update(0x40, v);
        }
        prop_assert_eq!(wrong, 0);
    }

    /// Last-value predictor always echoes the previous value.
    #[test]
    fn last_value_echoes(values in prop::collection::vec(any::<u64>(), 1..100)) {
        let mut p = LastValuePredictor::new(Capacity::Unbounded);
        let mut prev = None;
        for v in values {
            prop_assert_eq!(p.predict(0x40), prev);
            p.update(0x40, v);
            prev = Some(v);
        }
    }

    /// DFCM is exact on any eventually-periodic stride pattern.
    #[test]
    fn dfcm_exact_on_periodic_strides(strides in prop::collection::vec(-1000i64..1000, 2..6), laps in 4usize..12) {
        let mut p = DfcmPredictor::new(Capacity::Unbounded, 4, 16);
        let mut v = 0u64;
        let mut wrong_late = 0;
        let total = strides.len() * laps;
        for i in 0..total {
            if i > strides.len() * 2 + 4 && p.predict(0x40) != Some(v) {
                wrong_late += 1;
            }
            p.update(0x40, v);
            v = v.wrapping_add(strides[i % strides.len()] as u64);
        }
        prop_assert_eq!(wrong_late, 0);
    }

    /// The Markov predictor reproduces any fixed cycle exactly after one
    /// lap, whatever the addresses.
    #[test]
    fn markov_learns_any_cycle(addrs in prop::collection::hash_set(any::<u64>(), 2..20), laps in 2usize..6) {
        let addrs: Vec<u64> = addrs.into_iter().collect();
        let mut p = MarkovPredictor::new(MarkovConfig { entries: 1024, ways: 4 });
        let mut wrong_late = 0;
        for lap in 0..laps {
            for (i, &a) in addrs.iter().enumerate() {
                // The wrap-around transition is first trained at the start
                // of lap 1, so exactness starts one element later.
                let trained = lap > 1 || (lap == 1 && i > 0);
                if trained && p.predict(0x40) != Some(a) {
                    wrong_late += 1;
                }
                p.update(0x40, a);
            }
        }
        prop_assert_eq!(wrong_late, 0);
    }

    /// FCM and DFCM predict exactly what the `Vec`-context reference
    /// predicts, for every order up to `MAX_CONTEXT`, on unbounded and
    /// aliasing tables and small level-2 tables. Values mix a small
    /// alphabet (contexts repeat), per-PC strides and noise; one op in four
    /// predicts without updating.
    #[test]
    fn context_predictors_match_vec_reference(
        order in 1usize..MAX_CONTEXT + 1,
        table in 0usize..4,
        l2_bits in 1u32..12,
        ops in prop::collection::vec((0u64..12, 0u8..4, 0u64..6, any::<u64>()), 0..400),
    ) {
        let cap = capacity(table);
        let mut fcm = FcmPredictor::new(cap, order, l2_bits);
        let mut fcm_ref = reference::Fcm::new(cap, order, l2_bits);
        let mut dfcm = DfcmPredictor::new(cap, order, l2_bits);
        let mut dfcm_ref = reference::Dfcm::new(cap, order, l2_bits);
        for (i, (pc, kind, small, noise)) in ops.into_iter().enumerate() {
            let pc = 0x40 + pc * 4;
            let v = match kind {
                0 => small * 7,
                1 => pc.wrapping_mul(i as u64 + 1).wrapping_add(small),
                _ => noise,
            };
            prop_assert_eq!(fcm.predict(pc), fcm_ref.predict(pc), "fcm op {}", i);
            prop_assert_eq!(dfcm.predict(pc), dfcm_ref.predict(pc), "dfcm op {}", i);
            if kind != 3 {
                fcm.update(pc, v);
                fcm_ref.update(pc, v);
                dfcm.update(pc, v);
                dfcm_ref.update(pc, v);
            }
        }
    }

    /// Predictors never panic on arbitrary update/predict interleavings.
    #[test]
    fn predictors_are_total(ops in prop::collection::vec((any::<bool>(), 0u64..128, any::<u64>()), 0..300)) {
        let mut predictors: Vec<Box<dyn ValuePredictor>> = vec![
            Box::new(StridePredictor::new(Capacity::Entries(16))),
            Box::new(DfcmPredictor::new(Capacity::Entries(16), 3, 10)),
            Box::new(LastValuePredictor::new(Capacity::Entries(16))),
            Box::new(MarkovPredictor::new(MarkovConfig { entries: 16, ways: 2 })),
        ];
        for (is_update, pc, v) in ops {
            let pc = pc * 4;
            for p in predictors.iter_mut() {
                if is_update {
                    p.update(pc, v);
                } else {
                    let _ = p.predict(pc);
                }
            }
        }
    }
}
