//! The spill/fill and define-use kernel: the paper's core global-stride
//! idiom (Figures 2 and 3).

use rand::rngs::SmallRng;
use rand::Rng;

use super::{mix64, Kernel, KernelSlot};
use crate::DynInst;

/// How the hard-to-predict *define* value evolves between invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardKind {
    /// Generational: `v' = mix64(v)` — incompressible (the gap benchmark's
    /// "hard-to-predict generational values").
    Generational,
    /// A bounded random walk, like the parser value sequence of Figure 1:
    /// noisy values within a slowly narrowing dynamic range.
    NoisyRange,
    /// A multi-phase stride: constant stride that switches occasionally
    /// ("phased multi-stride", §7).
    PhasedStride,
}

/// What the instructions between the define and its uses produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillerKind {
    /// Constant values (easy for every predictor).
    Constant,
    /// Per-slot strided counters (easy locally, easy globally).
    Strided,
    /// Fresh random values (hard for everyone).
    Random,
}

/// The define → spill → … → fill → use idiom:
///
/// ```text
/// defA | defB: rA = <hard value>    // one of two correlated producers
/// spill: store rA -> [stack slot]   //   (the two paths of Figure 2)
///        <gap filler instructions>
/// fill:  rB = load [stack slot]     // value == def's value (distance gap+1)
/// use:   rC = rB + c                // value == def's value + c
/// ```
///
/// The fill and use instructions are the paper's showcase: near-zero local
/// predictability, perfect *global stride* predictability at a constant
/// distance. The `gap` parameter positions that distance relative to the
/// GVQ order — a gap beyond the queue order reproduces the gap benchmark's
/// q=8 failure / q=32 recovery.
///
/// As in Figure 2, the reload is fed by **two** different defining
/// instructions on two control paths (chosen per invocation). The paths
/// have equal lengths, so the global correlation distance is
/// path-independent; but the reload's *local* value sequence is a merge of
/// two streams, which is what defeats local context predictors in real
/// spill/fill code.
#[derive(Debug)]
pub struct CorrelationKernel {
    slot: KernelSlot,
    gap: usize,
    use_offsets: Vec<u64>,
    hard: HardKind,
    filler: FillerKind,
    values: [u64; 2],
    fillers: Vec<u64>,
    phase_strides: [u64; 2],
    iter: u64,
    depth: u64,
    dir: i64,
}

impl CorrelationKernel {
    /// Creates a correlation kernel.
    ///
    /// * `gap` — number of filler value-producers between define and fill;
    /// * `use_offsets` — one `use` instruction per offset, producing
    ///   `fill + offset`;
    /// * `hard` / `filler` — value characters (see the enums).
    ///
    /// # Panics
    ///
    /// Panics if `gap > 64` or `use_offsets.len() > 4`.
    pub fn new(
        slot: KernelSlot,
        gap: usize,
        use_offsets: &[u64],
        hard: HardKind,
        filler: FillerKind,
    ) -> Self {
        assert!(gap <= 64, "gap too large");
        assert!(use_offsets.len() <= 4, "at most 4 uses");
        CorrelationKernel {
            slot,
            gap,
            use_offsets: use_offsets.to_vec(),
            hard,
            filler,
            values: [0x1234_5678, 0x9abc_def0],
            fillers: vec![0; gap],
            phase_strides: [24, 40],
            iter: 0,
            depth: 6,
            dir: 1,
        }
    }

    /// The configured define→fill gap.
    pub fn gap(&self) -> usize {
        self.gap
    }

    /// PC of the fill (reload) instruction.
    pub fn fill_pc(&self) -> u64 {
        self.slot.pc(3 + self.gap as u64)
    }

    fn next_hard(&mut self, path: usize, rng: &mut SmallRng) -> u64 {
        self.values[path] = match self.hard {
            HardKind::Generational => mix64(self.values[path]),
            HardKind::NoisyRange => {
                // Values like Figure 1: multiples of 24 within a range that
                // narrows as the run proceeds.
                let range = 1000u64.saturating_sub(self.iter / 8).max(64);
                (rng.gen_range(0..range) / 24) * 24
            }
            HardKind::PhasedStride => {
                if self.iter % 61 == 60 {
                    self.phase_strides[path] = rng.gen_range(1..6) * 8;
                }
                self.values[path].wrapping_add(self.phase_strides[path])
            }
        };
        self.values[path]
    }
}

impl Kernel for CorrelationKernel {
    fn emit(&mut self, out: &mut Vec<DynInst>, rng: &mut SmallRng) {
        let s = self.slot;
        let (r_def, r_sp, r_fill) = (s.reg(0), s.reg(6), s.reg(1));
        // The stack frame moves with call depth (a random walk), as real
        // stacks do: spill-slot addresses are locally irregular but keep
        // their intra-frame structure.
        self.depth = {
            // sticky random walk: call depth trends in one direction for a
            // while (phasic call behaviour), reversing rarely
            let d = self.depth as i64
                + if rng.gen_bool(0.85) {
                    self.dir
                } else {
                    self.dir = -self.dir;
                    self.dir
                };
            d.clamp(0, 12) as u64
        };
        let stack = s.mem_base + 0x8000 + self.depth * 64;

        // def: one of the two correlated producers (two control paths).
        let path = (rng.gen::<u8>() & 1) as usize;
        let v = self.next_hard(path, rng);
        out.push(DynInst::alu(
            s.pc(path as u64),
            r_def,
            [Some(r_def), None],
            v,
        ));
        // spill (register pressure forces v to memory — Figure 2).
        out.push(DynInst::store(s.pc(2), r_def, r_sp, stack));
        let mut pc = 3u64;
        // gap fillers, each its own static instruction.
        for i in 0..self.gap {
            let fv = match self.filler {
                FillerKind::Constant => 7,
                FillerKind::Strided => {
                    // All fillers advance by the same stride (like the
                    // address computations of one loop body), so adjacent
                    // fillers also correlate globally at distance 1.
                    self.fillers[i] = self.fillers[i].wrapping_add(8);
                    self.fillers[i].wrapping_add(1000 * i as u64)
                }
                FillerKind::Random => rng.gen(),
            };
            let r = s.reg(2 + (i % 3) as u8);
            out.push(DynInst::alu(s.pc(pc), r, [Some(r), None], fv));
            pc += 1;
        }
        // fill: reload of the spilled value.
        out.push(DynInst::load(s.pc(pc), r_fill, r_sp, stack, v));
        pc += 1;
        // deref: the reloaded value is a pointer — dereference it. The
        // address scatters over a multi-megabyte region, so this load
        // often misses; predicting the fill's value at dispatch lets the
        // deref issue immediately and overlap the miss (§7's mechanism).
        let deref_addr = s.mem_base + 0x10_0000 + (v.wrapping_mul(0x9E3779B9) & 0x3f_fff8);
        out.push(DynInst::load(
            s.pc(pc),
            s.reg(7),
            r_fill,
            deref_addr,
            mix64(v),
        ));
        pc += 1;
        // uses: value + constant (Figure 3's "explicit use").
        for (i, off) in self.use_offsets.iter().enumerate() {
            let r = s.reg(5);
            out.push(DynInst::alu(
                s.pc(pc + i as u64),
                r,
                [Some(r_fill), None],
                v.wrapping_add(*off),
            ));
        }
        pc += self.use_offsets.len() as u64;
        // loop-back branch on the reloaded value (Figure 2's bne).
        out.push(DynInst::branch(s.pc(pc), r_fill, v != 0, s.pc(0)));
        self.iter += 1;
    }

    fn name(&self) -> &'static str {
        "correlation"
    }
}

/// Bulk save/restore: `k` hard values are defined back-to-back, then
/// re-produced (reloaded) in the same order — so *every* restore sits at
/// global distance exactly `k` from its define.
///
/// This is the "long computation chain" shape of the gap benchmark (§3):
/// with `k` larger than the GVQ order none of the restores is predictable,
/// and growing the queue from 8 to 32 recovers them all at once — the
/// paper's 40% → 59.7% jump.
#[derive(Debug)]
pub struct SaveRestoreKernel {
    slot: KernelSlot,
    k: usize,
    hard: HardKind,
    /// One value bank per control path, so the restores' local sequences
    /// are a merge of three streams (see [`CorrelationKernel`]; three call
    /// sites keep the merged stride alphabet wide enough to defeat
    /// context predictors).
    values: [Vec<u64>; 3],
    phase_strides: [u64; 3],
    iter: u64,
    depth: u64,
    dir: i64,
}

impl SaveRestoreKernel {
    /// Creates a bulk save/restore of `k` values.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or greater than 48.
    pub fn new(slot: KernelSlot, k: usize, hard: HardKind) -> Self {
        assert!((1..=48).contains(&k), "k in 1..=48");
        SaveRestoreKernel {
            slot,
            k,
            hard,
            values: [
                (0..k as u64).map(mix64).collect(),
                (0..k as u64).map(|i| mix64(i ^ 0xAAAA)).collect(),
                (0..k as u64).map(|i| mix64(i ^ 0x5555)).collect(),
            ],
            phase_strides: [16, 32, 48],
            iter: 0,
            depth: 6,
            dir: 1,
        }
    }

    /// PC of restore number `i`.
    pub fn restore_pc(&self, i: usize) -> u64 {
        self.slot.pc((3 * self.k + i) as u64)
    }
}

impl Kernel for SaveRestoreKernel {
    fn emit(&mut self, out: &mut Vec<DynInst>, rng: &mut SmallRng) {
        let s = self.slot;
        self.iter += 1;
        let path = rng.gen_range(0..3usize);
        if self.iter.is_multiple_of(61) {
            self.phase_strides[path] = rng.gen_range(1..500) * 8;
        }
        self.depth = {
            // sticky random walk: call depth trends in one direction for a
            // while (phasic call behaviour), reversing rarely
            let d = self.depth as i64
                + if rng.gen_bool(0.85) {
                    self.dir
                } else {
                    self.dir = -self.dir;
                    self.dir
                };
            d.clamp(0, 12) as u64
        };
        let stack = s.mem_base + 0xC000 + self.depth * 256;
        // Defines: each path has its own pc range (0..k, k..2k, 2k..3k),
        // so each defining instruction sees only its own stream.
        for i in 0..self.k {
            let v = match self.hard {
                HardKind::Generational => mix64(self.values[path][i] ^ ((i as u64) << 32)),
                HardKind::NoisyRange => (rng.gen_range(0u64..1024) / 24) * 24,
                HardKind::PhasedStride => {
                    self.values[path][i].wrapping_add(self.phase_strides[path])
                }
            };
            self.values[path][i] = v;
            let r = s.reg((i % 6) as u8);
            out.push(DynInst::alu(
                s.pc((path * self.k + i) as u64),
                r,
                [Some(r), None],
                v,
            ));
        }
        // Restores: shared pcs at 3k..4k, at distance exactly k.
        for i in 0..self.k {
            let r = s.reg((i % 6) as u8);
            out.push(DynInst::load(
                s.pc((3 * self.k + i) as u64),
                r,
                s.reg(6),
                stack + 8 * i as u64,
                self.values[path][i],
            ));
        }
        // A serial consumer loop over the restored values: one static
        // instruction (a summing loop body) executed k times, each link
        // reading the previous link and one restore (value = restore + 17).
        // Its local value stream merges every restore's stream, so local
        // predictors fail; gDiff sees each link at the constant global
        // distance k from its restore. Only a predictor that catches the
        // restores can break this chain — the critical-path role
        // global-stride-predictable values play in the paper's §7 speedups.
        let r_chain = s.reg(7);
        for i in 0..self.k {
            out.push(DynInst::alu(
                s.pc(4 * self.k as u64),
                r_chain,
                [Some(r_chain), Some(s.reg((i % 6) as u8))],
                self.values[path][i].wrapping_add(17),
            ));
        }
        out.push(DynInst::branch(
            s.pc((4 * self.k + 1) as u64),
            s.reg(0),
            true,
            s.pc(0),
        ));
    }

    fn name(&self) -> &'static str {
        "save-restore"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{run_kernel, score};
    use super::*;
    use gdiff::GDiffPredictor;
    use predictors::{Capacity, DfcmPredictor, StridePredictor};

    fn kernel(gap: usize, hard: HardKind) -> CorrelationKernel {
        CorrelationKernel::new(
            KernelSlot::for_site(0),
            gap,
            &[4, 12],
            hard,
            FillerKind::Constant,
        )
    }

    fn gdiff_score(trace: &[crate::DynInst], order: usize) -> f64 {
        let mut p = GDiffPredictor::new(Capacity::Unbounded, order);
        score(trace, &mut p)
    }

    #[test]
    fn fill_value_equals_def_value() {
        let k = kernel(3, HardKind::Generational);
        let fill_pc = k.fill_pc();
        let trace = run_kernel(&mut kernel(3, HardKind::Generational), 5);
        let s = KernelSlot::for_site(0);
        let defs: Vec<u64> = trace
            .iter()
            .filter(|i| i.pc <= s.pc(1) && i.produces_value())
            .map(|i| i.value)
            .collect();
        let fills: Vec<u64> = trace
            .iter()
            .filter(|i| i.pc == fill_pc)
            .map(|i| i.value)
            .collect();
        assert_eq!(defs, fills);
    }

    #[test]
    fn local_predictors_fail_on_defines_and_fill() {
        let k = kernel(3, HardKind::Generational);
        let fill_pc = k.fill_pc();
        let trace = run_kernel(&mut kernel(3, HardKind::Generational), 300);
        // Constant fillers are easy; isolate the hard part by filtering to
        // the defines and the reload. (The `use = fill + c` instructions
        // share the fill's exact stride stream, so a shared-L2 DFCM
        // legitimately catches them — only the two-path merge is hard.)
        let s = KernelSlot::for_site(0);
        let hard: Vec<crate::DynInst> = trace
            .iter()
            .filter(|i| i.produces_value() && (i.pc <= s.pc(1) || i.pc == fill_pc))
            .copied()
            .collect();
        let mut st = StridePredictor::new(Capacity::Unbounded);
        let mut df = DfcmPredictor::new(Capacity::Unbounded, 4, 16);
        assert!(score(&hard, &mut st) < 0.05, "stride must fail");
        // DFCM keeps a residual: during a run of same-path invocations the
        // reload's stride context coincides with the active define's, and
        // the shared level-2 table leaks the answer — a real DFCM effect.
        // It must stay a small minority.
        assert!(score(&hard, &mut df) < 0.20, "dfcm must mostly fail");
    }

    #[test]
    fn gdiff_catches_fill_and_uses_within_order() {
        let trace = run_kernel(&mut kernel(3, HardKind::Generational), 300);
        // gap 3 -> fill at distance 4; order 8 suffices. Fillers constant,
        // def and deref unpredictable: ideal accuracy ≈ 6/8 of the values.
        let acc = gdiff_score(&trace, 8);
        assert!(acc > 0.70, "gdiff must catch the correlated cluster: {acc}");
    }

    #[test]
    fn gap_beyond_order_defeats_gdiff_until_queue_grows() {
        use super::super::test_util::gdiff_accuracy_at;
        // gap 16: the fill sits at distance 17 — invisible to order 8,
        // visible to order 32 (the paper's gap-benchmark effect).
        let trace = run_kernel(&mut kernel(16, HardKind::Generational), 300);
        let fill_pc = kernel(16, HardKind::Generational).fill_pc();
        let q8 = gdiff_accuracy_at(&trace, fill_pc, 8);
        let q32 = gdiff_accuracy_at(&trace, fill_pc, 32);
        assert!(q8 < 0.10, "order 8 cannot reach distance 17: {q8}");
        assert!(q32 > 0.90, "order 32 must recover the fill: {q32}");
    }

    #[test]
    fn phased_stride_defines_are_mostly_stride_predictable() {
        let trace = run_kernel(&mut kernel(2, HardKind::PhasedStride), 400);
        // The defines (one bank per pc) stride steadily between phase
        // switches; the reload merges the banks and stays hard.
        let s = KernelSlot::for_site(0);
        let defs: Vec<crate::DynInst> = trace
            .iter()
            .filter(|i| i.produces_value() && i.pc <= s.pc(1))
            .copied()
            .collect();
        let mut st = StridePredictor::new(Capacity::Unbounded);
        let acc = score(&defs, &mut st);
        assert!(
            acc > 0.8,
            "phased strides are locally predictable between switches: {acc}"
        );
    }

    #[test]
    fn noisy_range_resembles_figure1() {
        let trace = run_kernel(&mut kernel(2, HardKind::NoisyRange), 300);
        let s = KernelSlot::for_site(0);
        let defs: Vec<u64> = trace
            .iter()
            .filter(|i| i.pc <= s.pc(1) && i.produces_value())
            .map(|i| i.value)
            .collect();
        assert!(defs.iter().all(|v| v % 24 == 0), "multiples of a granule");
        let distinct: std::collections::HashSet<_> = defs.iter().collect();
        assert!(distinct.len() > 8, "noisy, not constant");
    }

    #[test]
    fn save_restore_distance_is_exactly_k() {
        let mut k = SaveRestoreKernel::new(KernelSlot::for_site(0), 12, HardKind::Generational);
        let trace = run_kernel(&mut k, 200);
        let k2 = SaveRestoreKernel::new(KernelSlot::for_site(0), 12, HardKind::Generational);
        // Every restore: invisible at order 8, near-perfect at order 16.
        let restore = k2.restore_pc(5);
        let q8 = super::super::test_util::gdiff_accuracy_at(&trace, restore, 8);
        let q16 = super::super::test_util::gdiff_accuracy_at(&trace, restore, 16);
        assert!(q8 < 0.05, "q8={q8}");
        assert!(q16 > 0.95, "q16={q16}");
    }

    #[test]
    fn save_restore_defeats_local_predictors() {
        let mut k = SaveRestoreKernel::new(KernelSlot::for_site(0), 6, HardKind::Generational);
        let trace = run_kernel(&mut k, 200);
        let mut st = StridePredictor::new(Capacity::Unbounded);
        let mut df = DfcmPredictor::new(Capacity::Unbounded, 4, 16);
        assert!(score(&trace, &mut st) < 0.05);
        assert!(score(&trace, &mut df) < 0.05);
    }

    #[test]
    fn phased_save_restore_is_partially_local() {
        // PhasedStride values advance by a constant between switches: the
        // *defines* (one bank per path) are locally stride predictable most
        // of the time; the merged restores and chain are not.
        let k = 4usize;
        let mut kern = SaveRestoreKernel::new(KernelSlot::for_site(0), k, HardKind::PhasedStride);
        let trace = run_kernel(&mut kern, 400);
        let s = KernelSlot::for_site(0);
        let defs: Vec<crate::DynInst> = trace
            .iter()
            .filter(|i| i.produces_value() && i.pc < s.pc(3 * k as u64))
            .copied()
            .collect();
        let mut st = StridePredictor::new(Capacity::Unbounded);
        let acc = score(&defs, &mut st);
        assert!(acc > 0.7, "{acc}");
    }

    #[test]
    fn random_fillers_are_hard_for_everyone() {
        let mut k = CorrelationKernel::new(
            KernelSlot::for_site(0),
            4,
            &[4],
            HardKind::Generational,
            FillerKind::Random,
        );
        let trace = run_kernel(&mut k, 200);
        let mut st = StridePredictor::new(Capacity::Unbounded);
        assert!(score(&trace, &mut st) < 0.05);
    }
}
