//! Workload kernels: small program fragments, each reproducing one of the
//! value-generation idioms the paper identifies.
//!
//! | Kernel | Idiom | Paper reference |
//! |--------|-------|-----------------|
//! | [`LoopKernel`] | induction variables (local stride) | §2 computational locality |
//! | [`CorrelationKernel`] | spill/fill & `use = def + c` chains (global stride) | Figures 2, 3 |
//! | [`PointerChaseKernel`] | sequentially allocated linked structures | Figure 4, §7 (mcf) |
//! | [`ArrayWalkKernel`] | strided array sweeps | §2 |
//! | [`CallKernel`] | callee-save register save/restore | Figure 2 (spilling) |
//! | [`PeriodicKernel`] | repeating value sequences (context locality) | §2 |
//! | [`RandomKernel`] | incompressible values | §3 (gap) |
//! | [`BranchyKernel`] | data-dependent branches | §4 (execution variation) |
//!
//! Each kernel owns a PC range, a register window and a memory region, and
//! emits one basic block per invocation with *stable static PCs*, so
//! predictors see realistic per-instruction streams and the pipeline sees
//! realistic register dependences and memory traffic.

mod array;
mod branchy;
mod call;
mod correlation;
mod loops;
mod periodic;
mod pointer;
mod random;

pub use array::{ArrayData, ArrayWalkKernel, Indexing};
pub use branchy::BranchyKernel;
pub use call::CallKernel;
pub use correlation::{CorrelationKernel, FillerKind, HardKind, SaveRestoreKernel};
pub use loops::LoopKernel;
pub use periodic::PeriodicKernel;
pub use pointer::{PayloadKind, PointerChaseKernel};
pub use random::RandomKernel;

use rand::rngs::SmallRng;

use crate::DynInst;

/// The static resources assigned to one kernel instance: a PC range, a
/// register window and a private memory region.
///
/// PCs are word aligned; registers are an 8-register window starting at
/// `reg_base`; memory regions are 16 MiB apart so kernels never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSlot {
    /// First instruction address of the kernel's code.
    pub pc_base: u64,
    /// First architectural register of the kernel's window.
    pub reg_base: u8,
    /// Base address of the kernel's data region.
    pub mem_base: u64,
}

impl KernelSlot {
    /// The slot for site index `i` of a program.
    pub fn for_site(i: usize) -> Self {
        KernelSlot {
            pc_base: 0x0040_0000 + (i as u64) * 0x1000,
            reg_base: ((i % 7) * 8) as u8,
            mem_base: 0x1000_0000 + (i as u64) * 0x0100_0000,
        }
    }

    /// The PC of static instruction `idx` within this kernel.
    pub fn pc(&self, idx: u64) -> u64 {
        self.pc_base + idx * 4
    }

    /// Register `idx` (0..8) of this kernel's window.
    pub fn reg(&self, idx: u8) -> u8 {
        debug_assert!(idx < 8);
        self.reg_base + idx
    }
}

/// A workload kernel: emits one basic block of dynamic instructions per
/// invocation.
pub trait Kernel: std::fmt::Debug {
    /// Appends this invocation's dynamic instructions to `out`.
    fn emit(&mut self, out: &mut Vec<DynInst>, rng: &mut SmallRng);

    /// Short name for diagnostics.
    fn name(&self) -> &'static str;
}

/// splitmix64 — the hard-value generator shared by kernels.
pub(crate) fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use rand::SeedableRng;

    /// Runs a kernel for `rounds` invocations and returns everything it
    /// emitted.
    pub fn run_kernel(k: &mut dyn Kernel, rounds: usize) -> Vec<DynInst> {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut out = Vec::new();
        for _ in 0..rounds {
            k.emit(&mut out, &mut rng);
        }
        out
    }

    /// Scores a predictor on the value-producing instructions of a trace.
    pub fn score(trace: &[DynInst], p: &mut dyn predictors::ValuePredictor) -> f64 {
        let (mut correct, mut total) = (0u64, 0u64);
        for i in trace.iter().filter(|i| i.produces_value()) {
            total += 1;
            if p.step(i.pc, i.value) == Some(i.value) {
                correct += 1;
            }
        }
        correct as f64 / total.max(1) as f64
    }

    /// gDiff accuracy for one static instruction: trains on the whole value
    /// stream, scores only predictions for `pc`.
    pub fn gdiff_accuracy_at(trace: &[DynInst], pc: u64, order: usize) -> f64 {
        use predictors::{Capacity, ValuePredictor};
        let mut p = gdiff::GDiffPredictor::new(Capacity::Unbounded, order);
        let (mut correct, mut total) = (0u64, 0u64);
        for i in trace.iter().filter(|i| i.produces_value()) {
            if i.pc == pc {
                total += 1;
                if p.predict(i.pc) == Some(i.value) {
                    correct += 1;
                }
            }
            p.update(i.pc, i.value);
        }
        correct as f64 / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_do_not_collide() {
        let a = KernelSlot::for_site(0);
        let b = KernelSlot::for_site(1);
        assert_ne!(a.pc_base, b.pc_base);
        assert_ne!(a.mem_base, b.mem_base);
        assert!(b.pc_base - a.pc_base >= 0x1000);
    }

    #[test]
    fn pcs_are_word_aligned() {
        let s = KernelSlot::for_site(3);
        assert_eq!(s.pc(0) % 4, 0);
        assert_eq!(s.pc(7) - s.pc(0), 28);
    }

    #[test]
    fn mix64_avalanches() {
        // Consecutive inputs give wildly different outputs.
        let d = mix64(1) ^ mix64(2);
        assert!(d.count_ones() > 16);
    }
}
