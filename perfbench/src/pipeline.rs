//! The `pipeline` workload: the R10K out-of-order model with value
//! speculation (Fig 16/19).
//!
//! Units are (benchmark, engine) cells: all ten benchmarks × HGVQ
//! (`paper_default`: order 32, 8K tables), `LocalEngine::stride_8k` and
//! `NoVp`, each one `harness::pipe::run_pipeline_on` over a pre-generated
//! instruction stream. Caches and predictors warm during the simulator's
//! own warmup phase. The simulator dominates; `NoVp` units run it with no
//! value predictor at all, so an update-path change that costs HGVQ shows
//! here even when the profile loop gains.
//!
//! Traced, each unit runs again with its engine wrapped in [`TimedEngine`],
//! which times every engine call the simulator makes.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use harness::pipe::{harmonic_mean, pipeline_trace_len, run_pipeline_on};
use harness::RunParams;
use obs::{timeline, JsonValue};
use pipeline::{HgvqEngine, LocalEngine, NoVp, SimStats, VpEngine, VpToken};
use workloads::{Benchmark, DynInst};

use crate::inputs::{build_all, raw, rebuild, Checks, VecSource};
use crate::timing::{median, now_cost, passes, tail, timed, Best};
use crate::{Outcome, Scale};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Hgvq,
    Stride,
    NoVp,
}

impl Engine {
    const ALL: [Engine; 3] = [Engine::Hgvq, Engine::Stride, Engine::NoVp];

    fn make(self) -> Box<dyn VpEngine> {
        match self {
            Engine::Hgvq => Box::new(HgvqEngine::paper_default()),
            Engine::Stride => Box::new(LocalEngine::stride_8k()),
            Engine::NoVp => Box::new(NoVp),
        }
    }
}

/// Engine time accumulated by a [`TimedEngine`].
#[derive(Debug, Default)]
struct EngineClock {
    nanos: Cell<u64>,
    dispatches: Cell<u64>,
    writebacks: Cell<u64>,
}

impl EngineClock {
    fn calls(&self) -> u64 {
        self.dispatches.get() + self.writebacks.get()
    }
}

/// Delegates every [`VpEngine`] method to `inner`, timing the two the
/// simulator calls per value producer.
#[derive(Debug)]
struct TimedEngine {
    inner: Box<dyn VpEngine>,
    clock: Rc<EngineClock>,
}

impl TimedEngine {
    fn charge(&self, t0: Instant) {
        let ns = t0.elapsed().as_nanos() as u64;
        self.clock.nanos.set(self.clock.nanos.get() + ns);
    }
}

impl VpEngine for TimedEngine {
    fn dispatch(&mut self, inst: &DynInst) -> VpToken {
        let t0 = Instant::now();
        let token = self.inner.dispatch(inst);
        self.charge(t0);
        self.clock.dispatches.set(self.clock.dispatches.get() + 1);
        token
    }

    fn writeback(&mut self, pc: u64, token: &VpToken, actual: u64) {
        let t0 = Instant::now();
        self.inner.writeback(pc, token, actual);
        self.charge(t0);
        self.clock.writebacks.set(self.clock.writebacks.get() + 1);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn learned_distance(&self, pc: u64) -> Option<u64> {
        self.inner.learned_distance(pc)
    }
}

fn params(seed: u64, scale: Scale) -> RunParams {
    let (warmup, measure) = match scale {
        Scale::Full => (10_000, 40_000),
        Scale::Probe => (2_000, 8_000),
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
    let trace_len = pipeline_trace_len(params);
    let mut checks = Checks::default();

    let mut gen = Best::new(Benchmark::ALL.len());
    let inputs = build_all(&mut gen, |b| raw(b, seed, trace_len));
    let source = VecSource::all(inputs.iter().map(Vec::as_slice));

    let units: Vec<(Benchmark, Engine)> = Benchmark::ALL
        .into_iter()
        .flat_map(|b| Engine::ALL.into_iter().map(move |e| (b, e)))
        .collect();
    let mut plain = Best::new(units.len());
    let mut wrapped = Best::new(units.len());
    let mut engine = Best::new(units.len());
    let mut sim_self = Best::new(units.len());
    let mut producers = vec![0u64; units.len()];
    let mut results: Vec<Option<(SimStats, JsonValue)>> = vec![None; units.len()];
    let timer_cost = if traced { now_cost() } else { 0.0 };

    let n = passes(budget, 3, |_| {
        for (i, &(bench, eng)) in units.iter().enumerate() {
            if i % Engine::ALL.len() == 0 {
                let b = i / Engine::ALL.len();
                rebuild(&mut gen, b, &inputs[b], &mut checks, || {
                    raw(bench, seed, trace_len)
                });
            }
            let (stats, secs) = timed(|| run_pipeline_on(&source, bench, eng.make(), params));
            plain.observe(i, secs);
            let json = stats.to_json();
            let expected = &results[i].get_or_insert_with(|| (stats, json.clone())).1;
            checks.check(json == *expected, || {
                format!("pipeline {bench}/{eng:?}: result changed between repetitions")
            });
            if !traced {
                continue;
            }
            let clock = Rc::new(EngineClock::default());
            let timed_engine = Box::new(TimedEngine {
                inner: eng.make(),
                clock: Rc::clone(&clock),
            });
            let (stats, secs) = timed(|| {
                let _span = timeline::start(&format!("{bench}/{eng:?}"), "pipeline");
                run_pipeline_on(&source, bench, timed_engine, params)
            });
            wrapped.observe(i, secs);
            checks.check(stats.to_json() == *expected, || {
                format!("pipeline {bench}/{eng:?}: wrapped engine changed the simulation")
            });
            // Each timed call's interval holds about one clock read, and
            // each call adds two to the run.
            let busy = clock.nanos.get() as f64 * 1e-9;
            let reads = clock.calls() as f64 * timer_cost;
            engine.observe(i, busy - reads);
            sim_self.observe(i, secs - busy - reads);
            producers[i] = clock.dispatches.get();
        }
    });
    eprintln!("pipeline: {n} passes over {} units", units.len());

    let stats: Vec<&SimStats> = results
        .iter()
        .map(|r| &r.as_ref().expect("every unit ran").0)
        .collect();
    let insts: f64 = stats
        .iter()
        .map(|s| (params.warmup + s.retired) as f64)
        .sum();
    let of = |eng: Engine| -> Vec<&SimStats> {
        (0..units.len())
            .filter(|&i| units[i].1 == eng)
            .map(|i| stats[i])
            .collect()
    };
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let hgvq = of(Engine::Hgvq);
    let (tail_pct, tail_s) = tail(plain.values());
    eprintln!(
        "pipeline: unit_tail_ms is p{tail_pct:.1} of {} units",
        units.len()
    );
    let e2e = vec![
        ("setup_s", gen.sum()),
        ("insts_per_s", insts / plain.sum()),
        ("unit_p50_ms", median(plain.values()) * 1e3),
        ("unit_tail_ms", tail_s * 1e3),
        (
            "accuracy",
            mean(hgvq.iter().map(|s| s.vp.gated_accuracy()).collect()),
        ),
        (
            "coverage",
            mean(hgvq.iter().map(|s| s.vp.coverage()).collect()),
        ),
    ];

    let generated = (trace_len * Benchmark::ALL.len()) as f64;
    let mut layers = vec![("workloads.gen_ns_per_inst", gen.sum() / generated * 1e9)];
    if traced {
        let per_producer = |eng: Engine| {
            let pick = |i: usize| units[i].1 == eng;
            let calls: u64 = (0..units.len())
                .filter(|&i| pick(i))
                .map(|i| producers[i])
                .sum();
            engine.sum_where(pick) / calls as f64 * 1e9
        };
        let base = of(Engine::NoVp);
        let speedups = hgvq.iter().zip(&base).map(|(g, b)| g.ipc() / b.ipc());
        layers.extend([
            ("gdiff.hgvq_ns_per_producer", per_producer(Engine::Hgvq)),
            (
                "predictors.local_engine_ns_per_producer",
                per_producer(Engine::Stride),
            ),
            (
                "pipeline.sim_self_ns_per_inst",
                sim_self.sum() / insts * 1e9,
            ),
            (
                "pipeline.cycles",
                stats.iter().map(|s| s.cycles as f64).sum(),
            ),
            (
                "pipeline.reissues",
                stats.iter().map(|s| s.reissues as f64).sum(),
            ),
            (
                "pipeline.dcache_miss_rate",
                mean(stats.iter().map(|s| s.dcache_miss_rate).collect()),
            ),
            (
                "pipeline.branch_mispredict_rate",
                mean(stats.iter().map(|s| s.branch_mispredict_rate).collect()),
            ),
            ("pipeline.speedup", harmonic_mean(speedups)),
            ("trace.overhead", plain.sum() / wrapped.sum()),
        ]);
    }
    Outcome {
        checks,
        e2e,
        layers,
    }
}
