//! Cycle-exactness pins: FNV-1a-64 digests of the full `SimStats` JSON for
//! every benchmark under the three engines the pipeline figures use, plus
//! a prefetcher run, a provenance run, runs whose trace ends early, the
//! deepest `ablate-depth` configuration and a divide/miss micro trace.
//!
//! The digests are a behaviour baseline, not a spec: any change to the
//! scheduler that moves a single simulated cycle, reissue, cache access or
//! value write-back changes at least one of them. A deliberate timing-model
//! change must recompute them (run with `GOLDEN_PRINT=1` to print the
//! current values) and say why in its change notes.

use pipeline::{
    GDiffPrefetcher, HgvqEngine, LocalEngine, NoVp, PipelineConfig, Simulator, VpEngine,
};
use workloads::{Benchmark, DynInst, OpClass};

const SEED: u64 = 7;
const WARMUP: u64 = 2_000;
const MEASURE: u64 = 8_000;
/// Trace length: enough that no run ends on trace exhaustion.
const TRACE_LEN: usize = 3 * (WARMUP + MEASURE) as usize;

/// Builds a fresh engine for one run.
type MakeEngine = fn() -> Box<dyn VpEngine>;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The three engines the pipeline figures compare.
const ENGINES: [(&str, MakeEngine); 3] = [
    ("novp", || Box::new(NoVp)),
    ("stride", || Box::new(LocalEngine::stride_8k())),
    ("hgvq", || Box::new(HgvqEngine::paper_default())),
];

fn sim(engine: Box<dyn VpEngine>) -> Simulator {
    Simulator::new(PipelineConfig::r10k(), engine)
}

fn stats_digest(s: &pipeline::SimStats) -> u64 {
    fnv1a64(s.to_json().to_json().as_bytes())
}

/// Compares `(label, digest)` pairs against the pinned table, reporting
/// every mismatch at once.
fn check(actual: &[(String, u64)], pinned: &[(&str, u64)]) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (label, h) in actual {
            println!("    (\"{label}\", 0x{h:016x}),");
        }
    }
    assert_eq!(actual.len(), pinned.len(), "pinned table size");
    let bad: Vec<String> = actual
        .iter()
        .zip(pinned)
        .filter(|((la, ha), (lp, hp))| la != lp || ha != hp)
        .map(|((la, ha), (_, hp))| format!("{la}: got 0x{ha:016x}, pinned 0x{hp:016x}"))
        .collect();
    assert!(
        bad.is_empty(),
        "simulator output moved:\n{}",
        bad.join("\n")
    );
}

#[rustfmt::skip]
const ENGINE_GRID: &[(&str, u64)] = &[
    ("bzip2/novp", 0xfc5e033c10491944),
    ("bzip2/stride", 0xf912d6f803dc0c1a),
    ("bzip2/hgvq", 0x45fb09eb9ae390ce),
    ("gap/novp", 0xa0745f736af6c6ae),
    ("gap/stride", 0xb8348fe295f719d2),
    ("gap/hgvq", 0x21eae634039dd964),
    ("gcc/novp", 0xf3f80fe7750b703f),
    ("gcc/stride", 0xede046a728fe93fb),
    ("gcc/hgvq", 0xac38692f068284ac),
    ("gzip/novp", 0x5f936a57536077a9),
    ("gzip/stride", 0xa68f12f33e8ed92c),
    ("gzip/hgvq", 0xa7c2321217398ec3),
    ("mcf/novp", 0x7aa6e977e9836aa8),
    ("mcf/stride", 0xcd4226dc83315940),
    ("mcf/hgvq", 0xc9ad77c5be41fb5e),
    ("parser/novp", 0x6a13c221e763c68c),
    ("parser/stride", 0x4aed9d7b5656e9f9),
    ("parser/hgvq", 0x52b43f11e6e30a0d),
    ("perl/novp", 0x321f07165fc281e9),
    ("perl/stride", 0x1a751bfd230ee8af),
    ("perl/hgvq", 0xd3018cd19d10aa38),
    ("twolf/novp", 0x4881bbbedc7ab4ee),
    ("twolf/stride", 0x1db3292d72dee4fc),
    ("twolf/hgvq", 0x013029365a9a1099),
    ("vortex/novp", 0x0ee4be99ca54b457),
    ("vortex/stride", 0x1ca833c4c75d4ac1),
    ("vortex/hgvq", 0xbc12dec841599c1b),
    ("vpr/novp", 0x89d371f57caa7d64),
    ("vpr/stride", 0xcbb6af4a9d208d72),
    ("vpr/hgvq", 0x2ae4b58954891002),
];

#[test]
fn every_benchmark_and_engine_is_cycle_exact() {
    let mut actual = Vec::new();
    for bench in Benchmark::ALL {
        let trace: Vec<_> = bench.build(SEED).take(TRACE_LEN).collect();
        for (name, make) in ENGINES {
            let s = sim(make()).run(trace.iter().copied(), WARMUP, MEASURE);
            actual.push((format!("{}/{name}", bench.name()), stats_digest(&s)));
        }
    }
    check(&actual, ENGINE_GRID);
}

#[test]
fn prefetcher_run_is_cycle_exact() {
    let trace = Benchmark::Mcf.build(SEED).take(TRACE_LEN);
    let s = sim(Box::new(HgvqEngine::paper_default()))
        .with_prefetcher(Box::new(GDiffPrefetcher::new()))
        .run(trace, WARMUP, MEASURE);
    assert!(s.prefetches_issued > 0, "the pending-fill path must run");
    check(
        &[("mcf/hgvq+gdiff-prefetch".into(), stats_digest(&s))],
        &[("mcf/hgvq+gdiff-prefetch", 0x93bb_0210_3d1b_1691)],
    );
}

#[test]
fn provenance_run_is_cycle_exact() {
    let trace = Benchmark::Gzip.build(SEED).take(TRACE_LEN);
    let (s, prov) =
        sim(Box::new(HgvqEngine::paper_default())).run_with_provenance(trace, WARMUP, MEASURE);
    let tables = fnv1a64(prov.tables_json().to_json().as_bytes());
    check(
        &[
            ("gzip/hgvq stats".into(), stats_digest(&s)),
            ("gzip/hgvq provenance".into(), tables),
        ],
        &[
            ("gzip/hgvq stats", 0xa7c2_3212_1739_8ec3),
            ("gzip/hgvq provenance", 0xd1b7_8c0f_e1db_83c0),
        ],
    );
}

#[rustfmt::skip]
const SHORT_TRACE: &[(&str, u64)] = &[
    ("gcc/novp short", 0x6996fc4cebba3464),
    ("gcc/stride short", 0x7270c2f147c3fe6d),
    ("gcc/hgvq short", 0xab01443d29087ea6),
    ("mcf/novp short", 0xd86378a81dbdd24b),
    ("mcf/stride short", 0x1edf58444c11a270),
    ("mcf/hgvq short", 0x49e0890427ad7160),
];

#[test]
fn trace_exhaustion_drain_is_cycle_exact() {
    // The trace ends half-way through the measurement phase: the run
    // drains the ROB after the last fetch and reports what retired.
    let len = (WARMUP + MEASURE / 2) as usize;
    let mut actual = Vec::new();
    for bench in [Benchmark::Gcc, Benchmark::Mcf] {
        let trace: Vec<_> = bench.build(SEED).take(len).collect();
        for (name, make) in ENGINES {
            let s = sim(make()).run(trace.iter().copied(), WARMUP, MEASURE);
            assert!(s.retired < MEASURE, "the trace must run out first");
            actual.push((format!("{}/{name} short", bench.name()), stats_digest(&s)));
        }
    }
    check(&actual, SHORT_TRACE);
}

#[rustfmt::skip]
const DEEP_FRONT_END: &[(&str, u64)] = &[
    ("gap/novp depth12", 0xc3d00935e066735a),
    ("gap/stride depth12", 0xd44dc9b35279808b),
    ("gap/hgvq depth12", 0xd52186ade21d0ba2),
    ("twolf/novp depth12", 0xa0b698b1b154d58d),
    ("twolf/stride depth12", 0x9f5ba5fb0228b271),
    ("twolf/hgvq depth12", 0xff7f26395ececb0a),
    ("vortex/novp depth12", 0x197f578b6bf5098f),
    ("vortex/stride depth12", 0x8ec6d0c6770531fb),
    ("vortex/hgvq depth12", 0x8d3aa217245d5623),
];

#[test]
fn deepest_ablate_depth_point_is_cycle_exact() {
    // The `ablate-depth` sweep's deepest point: a 12-stage front end and a
    // 16-cycle redirect penalty, everything else Table 1.
    let config = PipelineConfig {
        front_end_depth: 12,
        redirect_penalty: 16,
        ..PipelineConfig::r10k()
    };
    let mut actual = Vec::new();
    for bench in [Benchmark::Gap, Benchmark::Twolf, Benchmark::Vortex] {
        let trace: Vec<_> = bench.build(SEED).take(TRACE_LEN).collect();
        for (name, make) in ENGINES {
            let s = Simulator::new(config, make()).run(trace.iter().copied(), WARMUP, MEASURE);
            actual.push((format!("{}/{name} depth12", bench.name()), stats_digest(&s)));
        }
    }
    check(&actual, DEEP_FRONT_END);
}

/// A 35-cycle integer divide of `srcs` into `dst`.
fn div(pc: u64, dst: u8, srcs: [Option<u8>; 2], value: u64) -> DynInst {
    DynInst {
        op: OpClass::IntDiv,
        ..DynInst::alu(pc, dst, srcs, value)
    }
}

/// Divide chains interleaved with loads that miss: the two longest
/// latencies in Table 1, overlapping, with a pointer chase through the
/// divide results and values that defeat stride prediction half the time.
fn divide_and_miss_trace(n: u64) -> Vec<DynInst> {
    let mut trace = Vec::new();
    let mut x = 1u64;
    for i in 0..n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let far = 0x1000_0000 + (i * 4096) % 0x400_0000;
        trace.push(DynInst::load(0x400, 1, 2, far, i * 8));
        trace.push(div(0x404, 3, [Some(1), Some(3)], i * 3));
        trace.push(DynInst::alu(0x408, 4, [Some(3), None], i * 3 + 1));
        trace.push(DynInst::load(0x40c, 2, 4, far + 64 * (x >> 60), x >> 40));
        trace.push(div(
            0x410,
            5,
            [Some(2), Some(1)],
            if i % 2 == 0 { i } else { x },
        ));
        trace.push(DynInst::mul(0x414, 6, [Some(5), None], i * 5));
        trace.push(DynInst::store(0x418, 6, 4, far + 8));
        trace.push(DynInst::branch(0x41c, 5, x & 3 != 0, 0x400));
    }
    trace
}

#[rustfmt::skip]
const DIVIDE_AND_MISS: &[(&str, u64)] = &[
    ("div+miss/novp", 0x1c9410656335f425),
    ("div+miss/stride", 0x59594b518d83d47f),
    ("div+miss/hgvq", 0x97da7c1bb624b160),
];

#[test]
fn divide_and_miss_micro_trace_is_cycle_exact() {
    let trace = divide_and_miss_trace(750);
    let mut actual = Vec::new();
    for (name, make) in ENGINES {
        let s = sim(make()).run(trace.iter().copied(), 1_000, u64::MAX);
        // Warm-up can overshoot by up to `retire_width - 1`.
        let drained = trace.len() as u64 - 1_003..=trace.len() as u64 - 1_000;
        assert!(drained.contains(&s.retired), "{name}: drains fully");
        assert!(s.dcache_miss_rate > 0.5, "{name}: the loads must miss");
        actual.push((format!("div+miss/{name}"), stats_digest(&s)));
    }
    check(&actual, DIVIDE_AND_MISS);
}
