//! The program scheduler: composes kernels into an infinite dynamic
//! instruction stream.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::kernels::Kernel;
use crate::DynInst;

/// A synthetic program: a set of kernel *sites* executed in a fixed
/// schedule, like a main loop calling the same functions in the same order
/// every iteration.
///
/// The fixed schedule is what gives the global value stream its *stable
/// correlation distances* — the property real programs have because the hot
/// path executes the same instruction sequence each iteration, and the
/// property gDiff depends on. A per-site `skip_prob` models data-dependent
/// control flow that occasionally leaves sites out, jittering the distances
/// exactly the way alternate paths do in real code.
///
/// `Program` is an infinite iterator of [`DynInst`]s; take as many as the
/// experiment needs.
///
/// # Examples
///
/// ```
/// use workloads::{Benchmark, Program};
///
/// let trace: Vec<_> = Benchmark::Parser.build(42).take(1000).collect();
/// assert_eq!(trace.len(), 1000);
/// assert!(trace.iter().any(|i| i.produces_value()));
/// ```
#[derive(Debug)]
pub struct Program {
    sites: Vec<Box<dyn Kernel>>,
    schedule: Vec<usize>,
    skip_prob: f64,
    rng: SmallRng,
    buffer: VecDeque<DynInst>,
    cursor: usize,
}

impl Program {
    /// Creates a program from kernel sites and an execution schedule.
    ///
    /// `schedule` lists site indices in main-loop order; `skip_prob` is the
    /// probability that a scheduled site is skipped on a given round.
    ///
    /// # Panics
    ///
    /// Panics if `sites` or `schedule` is empty, a schedule entry is out of
    /// range, or `skip_prob` is not in `0.0..1.0`.
    pub fn new(
        sites: Vec<Box<dyn Kernel>>,
        schedule: Vec<usize>,
        skip_prob: f64,
        seed: u64,
    ) -> Self {
        assert!(!sites.is_empty(), "a program needs at least one site");
        assert!(!schedule.is_empty(), "a program needs a schedule");
        assert!(
            schedule.iter().all(|&i| i < sites.len()),
            "schedule index out of range"
        );
        assert!(
            (0.0..1.0).contains(&skip_prob),
            "skip probability in 0.0..1.0"
        );
        Program {
            sites,
            schedule,
            skip_prob,
            rng: SmallRng::seed_from_u64(seed),
            buffer: VecDeque::new(),
            cursor: 0,
        }
    }

    fn refill(&mut self) {
        let mut staging = Vec::new();
        // Emit sites until something lands in the buffer (skips can leave
        // a site silent).
        while staging.is_empty() {
            let site = self.schedule[self.cursor % self.schedule.len()];
            self.cursor += 1;
            if self.skip_prob > 0.0 && self.rng.gen_bool(self.skip_prob) {
                continue;
            }
            self.sites[site].emit(&mut staging, &mut self.rng);
        }
        self.buffer.extend(staging);
    }
}

impl Iterator for Program {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        if self.buffer.is_empty() {
            self.refill();
        }
        self.buffer.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{KernelSlot, LoopKernel, RandomKernel};

    fn tiny_program(skip: f64, seed: u64) -> Program {
        let sites: Vec<Box<dyn Kernel>> = vec![
            Box::new(LoopKernel::new(KernelSlot::for_site(0), &[(0, 4)], 8)),
            Box::new(RandomKernel::new(KernelSlot::for_site(1), 1, 16)),
        ];
        Program::new(sites, vec![0, 1, 0], skip, seed)
    }

    #[test]
    fn stream_is_infinite_and_deterministic() {
        let a: Vec<_> = tiny_program(0.1, 7).take(500).collect();
        let b: Vec<_> = tiny_program(0.1, 7).take(500).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = tiny_program(0.1, 7).take(200).collect();
        let b: Vec<_> = tiny_program(0.1, 8).take(200).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn schedule_multiplicity_is_respected() {
        // Site 0 appears twice per round, site 1 once: the loop kernel's
        // instructions should be roughly twice as frequent.
        let trace: Vec<_> = tiny_program(0.0, 7).take(3000).collect();
        let s0 = KernelSlot::for_site(0);
        let s1 = KernelSlot::for_site(1);
        let c0 = trace
            .iter()
            .filter(|i| i.pc >= s0.pc_base && i.pc < s0.pc_base + 0x1000)
            .count();
        let c1 = trace
            .iter()
            .filter(|i| i.pc >= s1.pc_base && i.pc < s1.pc_base + 0x1000)
            .count();
        // loop kernel emits 2 insts per invocation, random 1: expect 4:1.
        assert!(c0 > c1 * 3, "c0={c0} c1={c1}");
    }

    #[test]
    fn skips_perturb_but_do_not_starve() {
        let trace: Vec<_> = tiny_program(0.5, 7).take(1000).collect();
        assert_eq!(trace.len(), 1000);
    }

    #[test]
    #[should_panic(expected = "schedule")]
    fn empty_schedule_rejected() {
        let sites: Vec<Box<dyn Kernel>> =
            vec![Box::new(RandomKernel::new(KernelSlot::for_site(0), 1, 16))];
        let _ = Program::new(sites, vec![], 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_site_index_rejected() {
        let sites: Vec<Box<dyn Kernel>> =
            vec![Box::new(RandomKernel::new(KernelSlot::for_site(0), 1, 16))];
        let _ = Program::new(sites, vec![1], 0.0, 1);
    }
}
