//! Simulator throughput: simulated instructions per second per benchmark
//! and per value-prediction engine.
//!
//! Each benchmark's trace is generated once, outside the timed closure, so
//! the figures cover the simulator and its engine, not the workload
//! generator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pipeline::{HgvqEngine, LocalEngine, NoVp, PipelineConfig, SgvqEngine, Simulator, VpEngine};
use workloads::{Benchmark, DynInst};

const WARMUP: u64 = 5_000;
const INSTS: u64 = 50_000;

/// Builds a fresh engine for one run.
type MakeEngine = fn() -> Box<dyn VpEngine>;

fn run(trace: &[DynInst], engine: Box<dyn VpEngine>) -> f64 {
    Simulator::new(PipelineConfig::r10k(), engine)
        .run(trace.iter().copied(), WARMUP, INSTS)
        .ipc()
}

fn bench_engines(c: &mut Criterion) {
    let engines: [(&str, MakeEngine); 4] = [
        ("no_vp", || Box::new(NoVp)),
        ("local_stride", || Box::new(LocalEngine::stride_8k())),
        ("gdiff_sgvq", || Box::new(SgvqEngine::paper_default())),
        ("gdiff_hgvq", || Box::new(HgvqEngine::paper_default())),
    ];
    let mut g = c.benchmark_group("simulator_throughput");
    g.throughput(Throughput::Elements(INSTS));
    g.sample_size(10);
    for bench in [Benchmark::Gzip, Benchmark::Mcf] {
        let trace: Vec<DynInst> = bench.build(42).take(INSTS as usize * 2).collect();
        for (name, make) in engines {
            g.bench_with_input(
                BenchmarkId::new(name, bench.name()),
                trace.as_slice(),
                |b, trace| b.iter(|| run(trace, make())),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
