//! Best-of-interleaved timing.
//!
//! The host this benchmark runs on slows down as a whole in phases of
//! 0.1–1 s. A total over one long stretch of time therefore measures the
//! neighbours as much as the code. Instead, every workload is a fixed list
//! of *units*; passes run every unit once, round-robin, so a slow phase
//! covers at most a few repetitions of any one unit; and a unit's time is
//! its best repetition. Throughput is total work over the sum of unit
//! bests, and percentiles are taken over unit bests.
//!
//! A slow phase can also hold one vCPU and not the other for a whole run,
//! so successive passes run on successive CPUs of the process's affinity
//! mask: every unit gets repetitions on every CPU.

use std::time::{Duration, Instant};

/// Best (lowest) time seen per unit, in seconds.
#[derive(Debug, Clone)]
pub struct Best {
    secs: Vec<f64>,
}

impl Best {
    /// `n` units, none observed yet.
    pub fn new(n: usize) -> Best {
        Best {
            secs: vec![f64::INFINITY; n],
        }
    }

    /// Records one repetition of unit `i`.
    pub fn observe(&mut self, i: usize, secs: f64) {
        if secs < self.secs[i] {
            self.secs[i] = secs;
        }
    }

    /// Sum of the unit bests.
    pub fn sum(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Sum of the bests of the units `pick` selects.
    pub fn sum_where(&self, pick: impl Fn(usize) -> bool) -> f64 {
        (0..self.secs.len())
            .filter(|&i| pick(i))
            .map(|i| self.secs[i])
            .sum()
    }

    /// All unit bests.
    pub fn values(&self) -> &[f64] {
        &self.secs
    }
}

/// Runs `pass` repeatedly until `budget` has elapsed, and at least
/// `min_passes` times, each pass pinned to the next CPU the process may
/// use. Each pass must run every unit once. Returns the number of passes
/// run.
pub fn passes(budget: Duration, min_passes: u32, mut pass: impl FnMut(u32)) -> u32 {
    let allowed = affinity::get();
    let cpus: Vec<usize> = allowed.as_ref().map(affinity::cpus).unwrap_or_default();
    let start = Instant::now();
    let mut n = 0;
    while n < min_passes || start.elapsed() < budget {
        if cpus.len() > 1 {
            affinity::set(&affinity::only(cpus[n as usize % cpus.len()]));
        }
        pass(n);
        n += 1;
    }
    if let Some(mask) = allowed {
        affinity::set(&mask);
    }
    n
}

/// The calling thread's CPU affinity (Linux `sched_{get,set}affinity`).
mod affinity {
    /// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's mask, if the system call succeeds.
    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Restricts the calling thread to `mask`; a failure leaves it where
    /// it was.
    pub fn set(mask: &Mask) {
        // SAFETY: `mask` is a live, readable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    }

    /// The CPUs set in `mask`.
    pub fn cpus(mask: &Mask) -> Vec<usize> {
        (0..mask.len() * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    /// A mask holding only `cpu`.
    pub fn only(cpu: usize) -> Mask {
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        mask
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median of `values` (sorted copy; the mean of the middle two for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `values` with at least ten samples beyond it:
/// the sample with exactly ten larger ones (the maximum when there are
/// fewer than eleven). Returns `(percentile, value)`; at 1000 samples the
/// percentile is 99.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (100.0, f64::NAN);
    }
    let idx = n.saturating_sub(11);
    let beyond = n - 1 - idx;
    (100.0 * (n - beyond) as f64 / n as f64, v[idx])
}

/// The cost of one `Instant::now()` call in seconds: the best of several
/// timed bursts. Layer timers subtract it once per timed call.
pub fn now_cost() -> f64 {
    const BURST: u32 = 2_000;
    let mut best = f64::INFINITY;
    for _ in 0..25 {
        let t0 = Instant::now();
        for _ in 0..BURST {
            std::hint::black_box(Instant::now());
        }
        best = best.min(t0.elapsed().as_secs_f64() / f64::from(BURST));
    }
    best
}
