//! Workload inputs (the `workloads` layer), the in-memory trace source
//! the timed loops read from, and the correctness ledger.

use obs::timeline;
use workloads::{Benchmark, DynInst, SyntheticSource, TraceSource};

use crate::timing::{timed, Best};

/// Pre-generated instruction streams served from memory, so the timed
/// loops measure the layers under test and not the generators.
#[derive(Debug)]
pub struct VecSource<'a> {
    streams: Vec<(Benchmark, &'a [DynInst])>,
}

impl<'a> VecSource<'a> {
    /// One stream per benchmark.
    pub fn new(streams: Vec<(Benchmark, &'a [DynInst])>) -> VecSource<'a> {
        VecSource { streams }
    }

    /// The streams of [`Benchmark::ALL`], in order.
    pub fn all(streams: impl IntoIterator<Item = &'a [DynInst]>) -> VecSource<'a> {
        VecSource::new(Benchmark::ALL.into_iter().zip(streams).collect())
    }

    /// The stream of `bench`.
    pub fn get(&self, bench: Benchmark) -> &'a [DynInst] {
        self.streams
            .iter()
            .find(|(b, _)| *b == bench)
            .map(|&(_, s)| s)
            .expect("every benchmark has a stream")
    }
}

impl TraceSource for VecSource<'_> {
    fn describe(&self) -> String {
        "in-memory benchmark streams".to_string()
    }

    fn stream(&self, bench: Benchmark) -> Box<dyn Iterator<Item = DynInst> + '_> {
        Box::new(self.get(bench).iter().copied())
    }
}

/// The first `n` value producers of `bench`, and how many raw instructions
/// the generator emitted to reach them.
pub fn producers(bench: Benchmark, seed: u64, n: usize) -> (Vec<DynInst>, u64) {
    let mut raw = 0u64;
    let out = SyntheticSource::new(seed)
        .stream(bench)
        .inspect(|_| raw += 1)
        .filter(DynInst::produces_value)
        .take(n)
        .collect();
    (out, raw)
}

/// The first `n` raw instructions of `bench`.
pub fn raw(bench: Benchmark, seed: u64, n: usize) -> Vec<DynInst> {
    SyntheticSource::new(seed).stream(bench).take(n).collect()
}

/// Set-up units are timed like every other unit: each benchmark's input is
/// built once before the passes ([`build_all`]) and again in every pass
/// ([`rebuild`]), and its set-up time is its best build.
pub fn build_all<T>(best: &mut Best, mut build: impl FnMut(Benchmark) -> T) -> Vec<T> {
    Benchmark::ALL
        .into_iter()
        .enumerate()
        .map(|(i, bench)| {
            let (input, secs) = gen_unit(bench, || build(bench));
            best.observe(i, secs);
            input
        })
        .collect()
}

/// Times one generation unit inside a `workloads` timeline span; the
/// span's own cost stays outside the measured time.
pub fn gen_unit<T>(bench: Benchmark, build: impl FnOnce() -> T) -> (T, f64) {
    let _span = timeline::start(&format!("{bench}/gen"), "workloads");
    timed(build)
}

/// Builds set-up unit `i` again, timing it into `best` and checking it
/// equals the input the passes use.
pub fn rebuild<T: PartialEq>(
    best: &mut Best,
    i: usize,
    expected: &T,
    checks: &mut Checks,
    build: impl FnOnce() -> T,
) {
    let (input, secs) = gen_unit(Benchmark::ALL[i], build);
    best.observe(i, secs);
    checks.check(input == *expected, || {
        format!(
            "{}: input rebuilt from the same seed differs",
            Benchmark::ALL[i]
        )
    });
}

/// Operations attempted and failed. Every timed operation (a unit
/// repetition, a served chunk, a report) is one attempt; it fails when its
/// check fails.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation; `what` names it when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    /// Adds another ledger's counts.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}
