//! The `profile` workload: the §3 profile loop (Fig 8).
//!
//! Units are (benchmark, predictor) cells: all ten benchmarks × gDiff
//! order 8, gDiff order 32, local stride and DFCM, each one
//! `harness::profile::run_profile_on` over a pre-generated producer
//! stream. The gDiff and local predictor tables do nearly all the work;
//! `tracefile`, `serve` and `pipeline` are bypassed.
//!
//! Traced, each unit also runs a bare predict/update loop over the same
//! stream (the predictor's own cost) and a copy of the harness run inside
//! a timeline span (the tracing cost).

use gdiff::GDiffPredictor;
use harness::profile::run_profile_on;
use harness::RunParams;
use obs::timeline;
use predictors::{Capacity, DfcmPredictor, PredictorStats, StridePredictor, ValuePredictor};
use workloads::{Benchmark, DynInst, TraceSource};

use crate::inputs::{build_all, producers, rebuild, Checks, VecSource};
use crate::timing::{median, passes, tail, timed, Best};
use crate::{Outcome, Scale};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pred {
    GdiffQ8,
    GdiffQ32,
    Stride,
    Dfcm,
}

impl Pred {
    const ALL: [Pred; 4] = [Pred::GdiffQ8, Pred::GdiffQ32, Pred::Stride, Pred::Dfcm];

    fn name(self) -> &'static str {
        match self {
            Pred::GdiffQ8 => "gdiff-q8",
            Pred::GdiffQ32 => "gdiff-q32",
            Pred::Stride => "stride",
            Pred::Dfcm => "dfcm",
        }
    }

    fn layer(self) -> &'static str {
        match self {
            Pred::GdiffQ8 | Pred::GdiffQ32 => "gdiff",
            Pred::Stride | Pred::Dfcm => "predictors",
        }
    }

    /// The Fig 8 configurations: unlimited tables, DFCM with a 64K
    /// second level.
    fn run(self, source: &dyn TraceSource, bench: Benchmark, params: RunParams) -> PredictorStats {
        match self {
            Pred::GdiffQ8 => run_profile_on(source, bench, &mut gdiff(8), params),
            Pred::GdiffQ32 => run_profile_on(source, bench, &mut gdiff(32), params),
            Pred::Stride => run_profile_on(source, bench, &mut stride(), params),
            Pred::Dfcm => run_profile_on(source, bench, &mut dfcm(), params),
        }
    }

    /// Correct predictions past the warmup, from the bare loop.
    fn bare(self, insts: &[DynInst], warmup: u64) -> u64 {
        match self {
            Pred::GdiffQ8 => bare_loop(&mut gdiff(8), insts, warmup),
            Pred::GdiffQ32 => bare_loop(&mut gdiff(32), insts, warmup),
            Pred::Stride => bare_loop(&mut stride(), insts, warmup),
            Pred::Dfcm => bare_loop(&mut dfcm(), insts, warmup),
        }
    }
}

fn gdiff(order: usize) -> GDiffPredictor {
    GDiffPredictor::new(Capacity::Unbounded, order)
}

fn stride() -> StridePredictor {
    StridePredictor::new(Capacity::Unbounded)
}

fn dfcm() -> DfcmPredictor {
    DfcmPredictor::new(Capacity::Unbounded, 4, 16)
}

/// Predict then update every producer in order, counting correct
/// predictions past `warmup`: the predictor calls of the profile loop
/// with nothing around them.
pub fn bare_loop<P: ValuePredictor>(p: &mut P, insts: &[DynInst], warmup: u64) -> u64 {
    let mut correct = 0;
    for (n, inst) in insts.iter().enumerate() {
        let predicted = p.predict(inst.pc);
        if n as u64 >= warmup && predicted == Some(inst.value) {
            correct += 1;
        }
        p.update(inst.pc, inst.value);
    }
    correct
}

fn params(seed: u64, scale: Scale) -> RunParams {
    let (warmup, measure) = match scale {
        Scale::Full => (20_000, 80_000),
        Scale::Probe => (5_000, 20_000),
    };
    RunParams {
        seed,
        warmup,
        measure,
    }
}

/// Runs the workload for `budget` and reports its metrics.
pub fn drive(seed: u64, budget: std::time::Duration, scale: Scale, traced: bool) -> Outcome {
    let params = params(seed, scale);
    let per_bench = (params.warmup + params.measure) as usize;
    let mut checks = Checks::default();

    let mut gen = Best::new(Benchmark::ALL.len());
    let inputs = build_all(&mut gen, |b| producers(b, seed, per_bench));
    let raw_insts: u64 = inputs.iter().map(|(_, raw)| raw).sum();
    let source = VecSource::all(inputs.iter().map(|(insts, _)| insts.as_slice()));

    let units: Vec<(Benchmark, Pred)> = Benchmark::ALL
        .into_iter()
        .flat_map(|b| Pred::ALL.into_iter().map(move |p| (b, p)))
        .collect();
    let mut plain = Best::new(units.len());
    let mut spanned = Best::new(units.len());
    let mut bare = Best::new(units.len());
    let mut results: Vec<Option<PredictorStats>> = vec![None; units.len()];

    let n = passes(budget, 3, |_| {
        for (i, &(bench, pred)) in units.iter().enumerate() {
            if i % Pred::ALL.len() == 0 {
                let b = i / Pred::ALL.len();
                rebuild(&mut gen, b, &inputs[b], &mut checks, || {
                    producers(bench, seed, per_bench)
                });
            }
            let (stats, secs) = timed(|| pred.run(&source, bench, params));
            plain.observe(i, secs);
            let expected = *results[i].get_or_insert(stats);
            checks.check(stats == expected, || {
                format!(
                    "profile {bench}/{}: result changed between repetitions",
                    pred.name()
                )
            });
            if !traced {
                continue;
            }
            let name = format!("{bench}/{}", pred.name());
            let (stats, secs) = timed(|| {
                let _span = timeline::start(&name, "harness");
                pred.run(&source, bench, params)
            });
            spanned.observe(i, secs);
            checks.check(stats == expected, || {
                format!("profile {name}: traced result differs from untraced")
            });
            let _span = timeline::start(&name, pred.layer());
            let (correct, secs) = timed(|| pred.bare(source.get(bench), params.warmup));
            bare.observe(i, secs);
            checks.check(correct == expected.correct(), || {
                format!("profile {name}: bare loop disagrees with run_profile_on")
            });
        }
    });
    eprintln!("profile: {n} passes over {} units", units.len());

    let producers_run = (per_bench * units.len()) as f64;
    let q8 = |i: usize| units[i].1 == Pred::GdiffQ8;
    let mean_q8 = |f: &dyn Fn(&PredictorStats) -> f64| {
        let v: Vec<f64> = (0..units.len())
            .filter(|&i| q8(i))
            .filter_map(|i| results[i].as_ref().map(f))
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let (tail_pct, tail_s) = tail(plain.values());
    eprintln!(
        "profile: unit_tail_ms is p{tail_pct:.1} of {} units",
        units.len()
    );
    let e2e = vec![
        ("setup_s", gen.sum()),
        ("insts_per_s", producers_run / plain.sum()),
        ("unit_p50_ms", median(plain.values()) * 1e3),
        ("unit_tail_ms", tail_s * 1e3),
        ("accuracy", mean_q8(&|s| s.accuracy())),
        (
            "coverage",
            mean_q8(&|s| s.predicted() as f64 / s.total() as f64),
        ),
    ];

    let mut layers = vec![(
        "workloads.gen_ns_per_inst",
        gen.sum() / raw_insts as f64 * 1e9,
    )];
    if traced {
        let per_producer = |pred: Pred| {
            bare.sum_where(|i| units[i].1 == pred) / (per_bench * Benchmark::ALL.len()) as f64 * 1e9
        };
        layers.extend([
            ("gdiff.q8_ns_per_producer", per_producer(Pred::GdiffQ8)),
            ("gdiff.q32_ns_per_producer", per_producer(Pred::GdiffQ32)),
            (
                "predictors.stride_ns_per_producer",
                per_producer(Pred::Stride),
            ),
            ("predictors.dfcm_ns_per_producer", per_producer(Pred::Dfcm)),
            (
                "harness.profile_overhead_ns_per_producer",
                (plain.sum() - bare.sum()) / producers_run * 1e9,
            ),
            ("trace.overhead", plain.sum() / spanned.sum()),
        ]);
    }
    Outcome {
        checks,
        e2e,
        layers,
    }
}
