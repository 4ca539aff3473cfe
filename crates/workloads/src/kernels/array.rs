//! Strided array sweeps (bzip2/gzip-style buffer processing).

use rand::rngs::SmallRng;

use super::{mix64, Kernel, KernelSlot};
use crate::DynInst;

/// What the array elements hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayData {
    /// `a[i] = base + i * delta` — element values stride with the sweep.
    Affine {
        /// Value of element 0.
        base: u64,
        /// Per-element increment.
        delta: u64,
    },
    /// Fixed pseudo-random contents — values repeat every sweep (context
    /// locality with period = array length).
    Hashed,
    /// Pseudo-random contents rewritten between sweeps (a data buffer, not
    /// a lookup table): values never repeat — unpredictable by everyone,
    /// while the *addresses* keep their sweep structure.
    Evolving,
}

/// How the sweep selects its next element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Indexing {
    /// Sequential sweep: addresses stride by `elem_size` (prefetchable,
    /// stride predictable).
    Sweep,
    /// Accesses through a shuffled (bijective) permutation of the index
    /// space — irregular addresses whose transition sequence repeats each
    /// lap (Markov territory, stride-hostile).
    Scattered,
}

/// Walks an array in a tight loop, emitting an index update, a load, a
/// derived ALU op and a loop branch per iteration, `burst` iterations per
/// scheduler visit.
///
/// Load *addresses* follow [`Indexing`]; load *values* depend on
/// [`ArrayData`]. The `len` parameter sets the data-cache footprint.
#[derive(Debug)]
pub struct ArrayWalkKernel {
    slot: KernelSlot,
    len: u64,
    elem_size: u64,
    data: ArrayData,
    /// Shuffled index table for [`Indexing::Scattered`].
    perm: Option<Vec<u32>>,
    burst: u64,
    pad: u64,
    idx: u64,
}

impl ArrayWalkKernel {
    /// Creates a sequential sweep over `len` elements of `elem_size`
    /// bytes, one iteration per scheduler visit.
    ///
    /// # Panics
    ///
    /// Panics if `len` or `elem_size` is zero.
    pub fn new(slot: KernelSlot, len: u64, elem_size: u64, data: ArrayData) -> Self {
        Self::with_burst(slot, len, elem_size, data, Indexing::Sweep, 1)
    }

    /// Full-control constructor: indexing mode and burst length.
    ///
    /// # Panics
    ///
    /// Panics if `len`, `elem_size` or `burst` is zero.
    pub fn with_burst(
        slot: KernelSlot,
        len: u64,
        elem_size: u64,
        data: ArrayData,
        indexing: Indexing,
        burst: u64,
    ) -> Self {
        assert!(len > 0 && elem_size > 0, "array dimensions must be nonzero");
        assert!(burst > 0, "burst must be nonzero");
        assert!(len <= u32::MAX as u64, "array too long");
        let perm = match indexing {
            Indexing::Sweep => None,
            Indexing::Scattered => {
                // Deterministic Fisher–Yates keyed by the slot: a genuinely
                // scrambled but lap-stable visit order.
                let mut p: Vec<u32> = (0..len as u32).collect();
                let mut state = slot.mem_base ^ 0xD6E8_FEB8_6659_FD93;
                for i in (1..p.len()).rev() {
                    state = mix64(state);
                    p.swap(i, (state % (i as u64 + 1)) as usize);
                }
                Some(p)
            }
        };
        ArrayWalkKernel {
            slot,
            len,
            elem_size,
            data,
            perm,
            burst,
            pad: 0,
            idx: 0,
        }
    }

    /// Adds `pad` dependent ALU operations per iteration (a serial address
    /// computation chain) — realistic body size for the pipeline studies.
    pub fn padded(mut self, pad: u64) -> Self {
        self.pad = pad;
        self
    }

    fn element(&self, i: u64) -> u64 {
        match self.data {
            ArrayData::Affine { base, delta } => base.wrapping_add(i.wrapping_mul(delta)),
            ArrayData::Hashed => mix64(self.slot.mem_base ^ i),
            ArrayData::Evolving => {
                let lap = self.idx / self.len;
                mix64(self.slot.mem_base ^ i ^ (lap << 32))
            }
        }
    }

    /// The array footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.len * self.elem_size
    }
}

impl Kernel for ArrayWalkKernel {
    fn emit(&mut self, out: &mut Vec<DynInst>, _rng: &mut SmallRng) {
        let s = self.slot;
        for it in 0..self.burst {
            let pos = self.idx % self.len;
            let i = match &self.perm {
                None => pos,
                Some(p) => p[pos as usize] as u64,
            };
            let addr = s.mem_base + i * self.elem_size;
            let v = self.element(i);
            let (r_i, r_v, r_t) = (s.reg(0), s.reg(1), s.reg(2));
            // index update (induction variable).
            out.push(DynInst::alu(s.pc(0), r_i, [Some(r_i), None], addr));
            // the sweep load.
            out.push(DynInst::load(s.pc(1), r_v, r_i, addr, v));
            // pointer bump derived from the address (strided, no
            // value-stream mirroring of the load).
            out.push(DynInst::alu(s.pc(2), r_t, [Some(r_i), None], addr + 8));
            // Loop-carried dependent work chain; half easy (affine in the
            // address), half hard (data dependent).
            for j in 0..self.pad {
                let value = if j % 3 == 2 {
                    mix64(addr ^ (j << 32) ^ 0xa7c3)
                } else {
                    addr.wrapping_add(24 * (j + 2))
                };
                out.push(DynInst::alu(
                    s.pc(4 + j),
                    r_t,
                    [Some(r_t), Some(r_i)],
                    value,
                ));
            }
            // loop branch: taken within the burst.
            out.push(DynInst::branch(s.pc(3), r_i, it + 1 != self.burst, s.pc(0)));
            self.idx += 1;
        }
    }

    fn name(&self) -> &'static str {
        "array-walk"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{run_kernel, score};
    use super::*;
    use predictors::{Capacity, FcmPredictor, StridePredictor};

    #[test]
    fn affine_arrays_are_stride_predictable() {
        let mut k = ArrayWalkKernel::new(
            KernelSlot::for_site(0),
            4096,
            8,
            ArrayData::Affine {
                base: 100,
                delta: 16,
            },
        );
        let trace = run_kernel(&mut k, 500);
        let mut st = StridePredictor::new(Capacity::Unbounded);
        assert!(score(&trace, &mut st) > 0.9);
    }

    #[test]
    fn hashed_arrays_defeat_stride_but_repeat_per_sweep() {
        let mut k = ArrayWalkKernel::new(KernelSlot::for_site(0), 16, 8, ArrayData::Hashed);
        let trace = run_kernel(&mut k, 400);
        // Values of the sweep load only (pc(1)): they cycle with period 16.
        let loads: Vec<crate::DynInst> = trace
            .iter()
            .filter(|i| i.pc == KernelSlot::for_site(0).pc(1))
            .copied()
            .collect();
        let mut st = StridePredictor::new(Capacity::Unbounded);
        let mut fcm = FcmPredictor::new(Capacity::Unbounded, 2, 16);
        let s_acc = score(&loads, &mut st);
        let f_acc = score(&loads, &mut fcm);
        assert!(s_acc < 0.2, "stride fails on hashed contents: {s_acc}");
        assert!(
            f_acc > 0.8,
            "context predictor learns the repeating sweep: {f_acc}"
        );
    }

    #[test]
    fn addresses_sweep_and_wrap() {
        let mut k = ArrayWalkKernel::new(KernelSlot::for_site(0), 4, 8, ArrayData::Hashed);
        let trace = run_kernel(&mut k, 8);
        let addrs: Vec<u64> = trace.iter().filter_map(|i| i.mem_addr).collect();
        let base = KernelSlot::for_site(0).mem_base;
        assert_eq!(
            addrs,
            vec![
                base,
                base + 8,
                base + 16,
                base + 24,
                base,
                base + 8,
                base + 16,
                base + 24
            ]
        );
    }

    #[test]
    fn burst_branch_exits_at_burst_end() {
        let mut k = ArrayWalkKernel::with_burst(
            KernelSlot::for_site(0),
            64,
            8,
            ArrayData::Hashed,
            Indexing::Sweep,
            4,
        );
        let trace = run_kernel(&mut k, 2);
        let outcomes: Vec<bool> = trace
            .iter()
            .filter(|i| i.is_control())
            .map(|i| i.taken)
            .collect();
        assert_eq!(
            outcomes,
            vec![true, true, true, false, true, true, true, false]
        );
    }

    #[test]
    fn scattered_addresses_defeat_stride_but_repeat_per_lap() {
        use predictors::{MarkovConfig, MarkovPredictor, ValuePredictor};
        let mut k = ArrayWalkKernel::with_burst(
            KernelSlot::for_site(0),
            64,
            8,
            ArrayData::Hashed,
            Indexing::Scattered,
            8,
        );
        let trace = run_kernel(&mut k, 200);
        let s = KernelSlot::for_site(0);
        // Score address predictability of the load (pc 1).
        let mut st = StridePredictor::new(Capacity::Unbounded);
        let mut mk = MarkovPredictor::new(MarkovConfig {
            entries: 4096,
            ways: 4,
        });
        let (mut st_ok, mut mk_ok, mut total) = (0u64, 0u64, 0u64);
        for i in trace.iter().filter(|i| i.pc == s.pc(1)) {
            let a = i.mem_addr.unwrap();
            total += 1;
            if st.step(i.pc, a) == Some(a) {
                st_ok += 1;
            }
            if mk.step(i.pc, a) == Some(a) {
                mk_ok += 1;
            }
        }
        assert!(
            (st_ok as f64) < 0.2 * total as f64,
            "stride fails: {st_ok}/{total}"
        );
        assert!(
            (mk_ok as f64) > 0.8 * total as f64,
            "markov learns the lap: {mk_ok}/{total}"
        );
    }
}
