//! Cycle-exactness pins: FNV-1a-64 digests of the full `SimStats` JSON for
//! every benchmark under the three engines the pipeline figures use, plus
//! a prefetcher run and a provenance run.
//!
//! The digests are a behaviour baseline, not a spec: any change to the
//! scheduler that moves a single simulated cycle, reissue, cache access or
//! value write-back changes at least one of them. A deliberate timing-model
//! change must recompute them (run with `GOLDEN_PRINT=1` to print the
//! current values) and say why in its change notes.

use pipeline::{
    GDiffPrefetcher, HgvqEngine, LocalEngine, NoVp, PipelineConfig, Simulator, VpEngine,
};
use workloads::Benchmark;

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
    let engines: [(&str, MakeEngine); 3] = [
        ("novp", || Box::new(NoVp)),
        ("stride", || Box::new(LocalEngine::stride_8k())),
        ("hgvq", || Box::new(HgvqEngine::paper_default())),
    ];
    let mut actual = Vec::new();
    for bench in Benchmark::ALL {
        let trace: Vec<_> = bench.build(SEED).take(TRACE_LEN).collect();
        for (name, make) in engines {
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
