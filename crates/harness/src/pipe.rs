//! Pipeline experiments (§4, §5, §7): Figures 12, 13, 16, 19, Table 2 and
//! the pipeline-side ablations.

use gdiff::HgvqPredictor;
use pipeline::{
    GDiffPrefetcher, HgvqEngine, LocalEngine, NextLinePrefetcher, NoVp, OracleEngine,
    PipelineConfig, Prefetcher, SgvqEngine, SimStats, Simulator, StridePrefetcher, VpEngine,
};
use predictors::{Capacity, ConfidenceConfig, LastValuePredictor, StridePredictor};
use workloads::{Benchmark, SyntheticSource, TraceSource};

use crate::RunParams;

/// The raw-instruction prefix a pipeline experiment consumes: warmup +
/// measure + settle margin, doubled so the window never drains early.
/// Recording tools use this to size captured traces.
pub fn pipeline_trace_len(params: RunParams) -> usize {
    (params.warmup + params.measure + 50_000) as usize * 2
}

/// Runs one benchmark of the synthetic models through the Table 1
/// pipeline with `engine`.
pub fn run_pipeline(bench: Benchmark, engine: Box<dyn VpEngine>, params: RunParams) -> SimStats {
    run_pipeline_on(&SyntheticSource::new(params.seed), bench, engine, params)
}

/// [`run_pipeline`] with an explicit instruction origin: the synthetic
/// models or a recorded trace file.
pub fn run_pipeline_on(
    source: &dyn TraceSource,
    bench: Benchmark,
    engine: Box<dyn VpEngine>,
    params: RunParams,
) -> SimStats {
    run_pipeline_configured_on(source, bench, engine, None, PipelineConfig::r10k(), params)
}

/// [`run_pipeline_on`] additionally collecting the prediction-provenance
/// aggregate over the measurement phase (`harness explain`).
pub fn run_pipeline_with_provenance(
    source: &dyn TraceSource,
    bench: Benchmark,
    engine: Box<dyn VpEngine>,
    params: RunParams,
) -> (SimStats, obs::Provenance) {
    let _span = obs::span::span("pipeline.run");
    let trace = source.stream(bench).take(pipeline_trace_len(params));
    Simulator::new(PipelineConfig::r10k(), engine).run_with_provenance(
        trace,
        params.warmup,
        params.measure,
    )
}

/// Full-control pipeline run: custom machine configuration and optional
/// prefetcher.
pub fn run_pipeline_configured_on(
    source: &dyn TraceSource,
    bench: Benchmark,
    engine: Box<dyn VpEngine>,
    prefetcher: Option<Box<dyn Prefetcher>>,
    config: PipelineConfig,
    params: RunParams,
) -> SimStats {
    let _span = obs::span::span("pipeline.run");
    let trace = source.stream(bench).take(pipeline_trace_len(params));
    let mut sim = Simulator::new(config, engine);
    if let Some(p) = prefetcher {
        sim = sim.with_prefetcher(p);
    }
    sim.run(trace, params.warmup, params.measure)
}

// ---------------------------------------------------------------------
// Figure 12
// ---------------------------------------------------------------------

/// The value-delay distribution of one pipeline run.
#[derive(Debug, Clone)]
pub struct DelayDistribution {
    /// Benchmark measured (the paper uses vortex).
    pub bench: Benchmark,
    /// Fraction of value-producing instructions per delay `0..=20`.
    pub fractions: Vec<f64>,
    /// Mean delay (the paper reports roughly 5).
    pub mean: f64,
    /// The full simulation statistics behind the distribution (cycles,
    /// IPC, predictor stats, delay percentiles) for run reports.
    pub stats: SimStats,
}

impl DelayDistribution {
    /// The distribution plus the underlying [`SimStats`] as JSON.
    pub fn to_json(&self) -> obs::JsonValue {
        self.stats
            .to_json()
            .with("bench", self.bench.to_string())
            .with("fractions", self.fractions.clone())
            .with("mean_delay", self.mean)
    }
}

/// Regenerates Figure 12: the distribution of value delays (values
/// produced between dispatch and write-back) in the OOO pipeline.
pub fn fig12_on(source: &dyn TraceSource, params: RunParams) -> DelayDistribution {
    let bench = Benchmark::Vortex;
    let stats = run_pipeline_on(source, bench, Box::new(NoVp), params);
    DelayDistribution {
        bench,
        fractions: (0..=20).map(|d| stats.delays.fraction(d)).collect(),
        mean: stats.delays.mean(),
        stats,
    }
}

// ---------------------------------------------------------------------
// Figures 13 and 16
// ---------------------------------------------------------------------

/// Accuracy/coverage of the predictors compared in Figures 13 and 16.
#[derive(Debug, Clone)]
pub struct PipelineVpRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// gDiff gated accuracy (SGVQ for fig13, HGVQ for fig16).
    pub gdiff_accuracy: f64,
    /// gDiff coverage.
    pub gdiff_coverage: f64,
    /// Local stride gated accuracy.
    pub stride_accuracy: f64,
    /// Local stride coverage.
    pub stride_coverage: f64,
    /// Local context (DFCM) gated accuracy (fig16 only; 0 in fig13).
    pub context_accuracy: f64,
    /// Local context coverage.
    pub context_coverage: f64,
}

fn vp_comparison_bench(
    source: &dyn TraceSource,
    bench: Benchmark,
    params: RunParams,
    gdiff: fn() -> Box<dyn VpEngine>,
    with_context: bool,
) -> PipelineVpRow {
    let g = run_pipeline_on(source, bench, gdiff(), params);
    let s = run_pipeline_on(source, bench, Box::new(LocalEngine::stride_8k()), params);
    let (ca, cc) = if with_context {
        let c = run_pipeline_on(source, bench, Box::new(LocalEngine::dfcm_8k()), params);
        (c.vp.gated_accuracy(), c.vp.coverage())
    } else {
        (0.0, 0.0)
    };
    PipelineVpRow {
        bench,
        gdiff_accuracy: g.vp.gated_accuracy(),
        gdiff_coverage: g.vp.coverage(),
        stride_accuracy: s.vp.gated_accuracy(),
        stride_coverage: s.vp.coverage(),
        context_accuracy: ca,
        context_coverage: cc,
    }
}

/// One benchmark's row of Figure 13: gDiff with the *speculative* GVQ
/// (order 32) vs the local stride predictor, in the pipeline, 3-bit
/// confidence.
pub fn fig13_bench(source: &dyn TraceSource, bench: Benchmark, params: RunParams) -> PipelineVpRow {
    vp_comparison_bench(
        source,
        bench,
        params,
        || Box::new(SgvqEngine::paper_default()),
        false,
    )
}

/// One benchmark's row of Figure 16: gDiff with the *hybrid* GVQ
/// (order 32) vs local stride vs local context.
pub fn fig16_bench(source: &dyn TraceSource, bench: Benchmark, params: RunParams) -> PipelineVpRow {
    vp_comparison_bench(
        source,
        bench,
        params,
        || Box::new(HgvqEngine::paper_default()),
        true,
    )
}

// ---------------------------------------------------------------------
// Table 2 and Figure 19
// ---------------------------------------------------------------------

/// One benchmark's baseline IPC (no value speculation) — Table 2.
pub fn table2_bench(
    source: &dyn TraceSource,
    bench: Benchmark,
    params: RunParams,
) -> (Benchmark, f64) {
    (
        bench,
        run_pipeline_on(source, bench, Box::new(NoVp), params).ipc(),
    )
}

/// Speedups of value speculation over the baseline — Figure 19.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// Baseline IPC (Table 2).
    pub baseline_ipc: f64,
    /// Speedup of local stride value speculation (1.0 = no change).
    pub local_stride: f64,
    /// Speedup of local context (DFCM) value speculation.
    pub local_context: f64,
    /// Speedup of gDiff (HGVQ) value speculation.
    pub gdiff: f64,
}

/// One benchmark's row of Figure 19: the speedups of value speculation
/// (the rendered table adds their harmonic mean).
pub fn fig19_bench(source: &dyn TraceSource, bench: Benchmark, params: RunParams) -> SpeedupRow {
    let base = run_pipeline_on(source, bench, Box::new(NoVp), params).ipc();
    let st = run_pipeline_on(source, bench, Box::new(LocalEngine::stride_8k()), params).ipc();
    let cx = run_pipeline_on(source, bench, Box::new(LocalEngine::dfcm_8k()), params).ipc();
    let gd = run_pipeline_on(source, bench, Box::new(HgvqEngine::paper_default()), params).ipc();
    SpeedupRow {
        bench,
        baseline_ipc: base,
        local_stride: st / base,
        local_context: cx / base,
        gdiff: gd / base,
    }
}

/// Harmonic mean of a set of speedup ratios.
pub fn harmonic_mean(ratios: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = ratios.into_iter().collect();
    v.len() as f64 / v.iter().map(|r| 1.0 / r).sum::<f64>()
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// HGVQ filler ablation: what fills the queue at dispatch matters.
#[derive(Debug, Clone)]
pub struct FillerRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// (accuracy, coverage) with the paper's local-stride filler.
    pub stride_filler: (f64, f64),
    /// (accuracy, coverage) with a last-value filler.
    pub last_value_filler: (f64, f64),
    /// (accuracy, coverage) with no filler at all (SGVQ).
    pub no_filler: (f64, f64),
}

/// One benchmark's row of the HGVQ filler ablation: the paper's stride
/// filler vs a last-value filler vs none (which degenerates to the SGVQ
/// design).
pub fn ablate_filler_bench(
    source: &dyn TraceSource,
    bench: Benchmark,
    params: RunParams,
) -> FillerRow {
    let stride = run_pipeline_on(source, bench, Box::new(HgvqEngine::paper_default()), params);
    let lv: HgvqPredictor<LastValuePredictor> = HgvqPredictor::new(
        Capacity::Entries(8192),
        32,
        Capacity::Entries(8192),
        LastValuePredictor::new(Capacity::Entries(8192)),
    );
    let lv = run_pipeline_on(
        source,
        bench,
        Box::new(HgvqEngine::from_predictor(lv)),
        params,
    );
    let none = run_pipeline_on(source, bench, Box::new(SgvqEngine::paper_default()), params);
    FillerRow {
        bench,
        stride_filler: (stride.vp.gated_accuracy(), stride.vp.coverage()),
        last_value_filler: (lv.vp.gated_accuracy(), lv.vp.coverage()),
        no_filler: (none.vp.gated_accuracy(), none.vp.coverage()),
    }
}

/// Confidence-mechanism ablation result.
#[derive(Debug, Clone)]
pub struct ConfidenceRow {
    /// Confidence threshold swept (0 = gating off: speculate on every
    /// prediction).
    pub threshold: u8,
    /// Mean gated accuracy over all benchmarks.
    pub accuracy: f64,
    /// Mean coverage.
    pub coverage: f64,
    /// Harmonic-mean speedup over the no-VP baseline.
    pub speedup: f64,
}

/// The confidence thresholds swept by [`ablate_confidence_point`]:
/// 0 (off), 2, 4 (paper), 6.
pub fn ablate_confidence_thresholds() -> [u8; 4] {
    [0, 2, 4, 6]
}

/// One threshold's row of the ablation of the 3-bit confidence mechanism
/// on the HGVQ engine (all benchmarks inside).
pub fn ablate_confidence_point(
    source: &dyn TraceSource,
    threshold: u8,
    params: RunParams,
) -> ConfidenceRow {
    let mut accs = Vec::new();
    let mut covs = Vec::new();
    let mut ratios = Vec::new();
    for bench in Benchmark::ALL {
        let base = run_pipeline_on(source, bench, Box::new(NoVp), params).ipc();
        let config = ConfidenceConfig {
            threshold,
            ..ConfidenceConfig::default()
        };
        let p = HgvqPredictor::with_config(
            Capacity::Entries(8192),
            32,
            Capacity::Entries(8192),
            config,
            StridePredictor::new(Capacity::Entries(8192)),
        );
        let s = run_pipeline_on(
            source,
            bench,
            Box::new(HgvqEngine::from_predictor(p)),
            params,
        );
        accs.push(s.vp.gated_accuracy());
        covs.push(s.vp.coverage());
        ratios.push(s.ipc() / base);
    }
    ConfidenceRow {
        threshold,
        accuracy: accs.iter().sum::<f64>() / accs.len() as f64,
        coverage: covs.iter().sum::<f64>() / covs.len() as f64,
        speedup: harmonic_mean(ratios),
    }
}

// ---------------------------------------------------------------------
// Extensions: prefetching, the oracle limit, pipeline depth
// ---------------------------------------------------------------------

/// One benchmark's row of the prefetching extension study.
#[derive(Debug, Clone)]
pub struct PrefetchRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// Baseline (no prefetch): D-cache miss rate and IPC.
    pub base_miss_rate: f64,
    /// Baseline IPC.
    pub base_ipc: f64,
    /// IPC speedup ratios for next-line / local stride / gDiff prefetching.
    pub next_line: f64,
    /// Local-stride-directed prefetching speedup.
    pub stride: f64,
    /// gDiff-directed prefetching speedup.
    pub gdiff: f64,
    /// Useful-prefetch fraction for the gDiff prefetcher
    /// (useful / issued).
    pub gdiff_useful: f64,
}

/// One benchmark's row of the §6/§8 future-work extension,
/// address-prediction-driven prefetching.
///
/// Confidently predicted load addresses start their cache fill at dispatch;
/// a later demand miss that finds the fill in flight pays only the
/// remaining latency.
pub fn prefetch_bench(
    source: &dyn TraceSource,
    bench: Benchmark,
    params: RunParams,
) -> PrefetchRow {
    let cfg = PipelineConfig::r10k();
    let base = run_pipeline_configured_on(source, bench, Box::new(NoVp), None, cfg, params);
    let nl = run_pipeline_configured_on(
        source,
        bench,
        Box::new(NoVp),
        Some(Box::new(NextLinePrefetcher::new(cfg.dcache.line_bytes))),
        cfg,
        params,
    );
    let st = run_pipeline_configured_on(
        source,
        bench,
        Box::new(NoVp),
        Some(Box::new(StridePrefetcher::new())),
        cfg,
        params,
    );
    let gd = run_pipeline_configured_on(
        source,
        bench,
        Box::new(NoVp),
        Some(Box::new(GDiffPrefetcher::new())),
        cfg,
        params,
    );
    PrefetchRow {
        bench,
        base_miss_rate: base.dcache_miss_rate,
        base_ipc: base.ipc(),
        next_line: nl.ipc() / base.ipc(),
        stride: st.ipc() / base.ipc(),
        gdiff: gd.ipc() / base.ipc(),
        gdiff_useful: if gd.prefetches_issued == 0 {
            0.0
        } else {
            gd.prefetches_useful as f64 / gd.prefetches_issued as f64
        },
    }
}

/// One benchmark's row of the oracle limit study.
#[derive(Debug, Clone)]
pub struct LimitRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// Baseline IPC.
    pub base_ipc: f64,
    /// gDiff (HGVQ) speedup ratio.
    pub gdiff: f64,
    /// Perfect-value-prediction speedup ratio — the ceiling.
    pub oracle: f64,
}

/// One benchmark's row of the limit study: how much of the
/// perfect-value-prediction headroom gDiff captures (the Sazeides \[24\]
/// style limit study the paper's §7 leans on).
pub fn limit_bench(source: &dyn TraceSource, bench: Benchmark, params: RunParams) -> LimitRow {
    let base = run_pipeline_on(source, bench, Box::new(NoVp), params).ipc();
    let gd = run_pipeline_on(source, bench, Box::new(HgvqEngine::paper_default()), params).ipc();
    let oracle = run_pipeline_on(source, bench, Box::new(OracleEngine), params).ipc();
    LimitRow {
        bench,
        base_ipc: base,
        gdiff: gd / base,
        oracle: oracle / base,
    }
}

/// One front-end-depth point of the deeper-pipeline ablation.
#[derive(Debug, Clone)]
pub struct DepthRow {
    /// Fetch→dispatch depth (decode stages) swept.
    pub depth: u64,
    /// Matching branch redirect penalty.
    pub redirect: u64,
    /// Mean value delay observed (vortex).
    pub mean_delay: f64,
    /// H-mean speedup of gDiff (HGVQ) over no-VP at this depth.
    pub gdiff_speedup: f64,
    /// H-mean speedup of local stride at this depth.
    pub stride_speedup: f64,
}

/// The (front-end depth, redirect penalty) points swept by
/// [`ablate_depth_point`].
pub fn ablate_depth_points() -> [(u64, u64); 4] {
    [(2, 3), (4, 6), (8, 10), (12, 16)]
}

/// One (depth, redirect) point of the §8 future-work question: how does
/// value prediction interact with a deeper pipeline? It measures the
/// observed value delay and both predictors' speedups (all benchmarks
/// inside) as the fetch→dispatch depth and redirect penalty grow.
pub fn ablate_depth_point(
    source: &dyn TraceSource,
    (depth, redirect): (u64, u64),
    params: RunParams,
) -> DepthRow {
    let config = PipelineConfig {
        front_end_depth: depth,
        redirect_penalty: redirect,
        ..PipelineConfig::r10k()
    };
    let mut gd_ratios = Vec::new();
    let mut st_ratios = Vec::new();
    let mut delay = 0.0;
    for bench in Benchmark::ALL {
        let base = run_pipeline_configured_on(source, bench, Box::new(NoVp), None, config, params);
        let gd = run_pipeline_configured_on(
            source,
            bench,
            Box::new(HgvqEngine::paper_default()),
            None,
            config,
            params,
        );
        let st = run_pipeline_configured_on(
            source,
            bench,
            Box::new(LocalEngine::stride_8k()),
            None,
            config,
            params,
        );
        gd_ratios.push(gd.ipc() / base.ipc());
        st_ratios.push(st.ipc() / base.ipc());
        if bench == Benchmark::Vortex {
            delay = base.delays.mean();
        }
    }
    DepthRow {
        depth,
        redirect,
        mean_delay: delay,
        gdiff_speedup: harmonic_mean(gd_ratios),
        stride_speedup: harmonic_mean(st_ratios),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_rows;

    fn fig12_tiny() -> DelayDistribution {
        let params = RunParams::tiny();
        fig12_on(&SyntheticSource::new(params.seed), params)
    }

    #[test]
    fn fig12_mean_delay_is_moderate() {
        let d = fig12_tiny();
        assert!(d.mean > 1.0 && d.mean < 30.0, "mean {}", d.mean);
        let total: f64 = d.fractions.iter().sum();
        assert!(total > 0.5, "most delays within 0..=20: {total}");
    }

    #[test]
    fn fig12_json_carries_sim_stats_and_percentiles() {
        let d = fig12_tiny();
        let j = d.to_json();
        // The acceptance surface of the run report: cycles, IPC, vp
        // accuracy/coverage, and delay percentiles must all be present
        // and survive a parse round trip.
        let text = j.to_json();
        let p = obs::JsonValue::parse(&text).expect("valid JSON");
        assert!(p.path("cycles").and_then(|v| v.as_f64()).unwrap() > 0.0);
        assert!(p.path("ipc").and_then(|v| v.as_f64()).unwrap() > 0.0);
        assert!(p.path("vp.coverage").and_then(|v| v.as_f64()).is_some());
        assert!(p
            .path("vp.gated_accuracy")
            .and_then(|v| v.as_f64())
            .is_some());
        assert!(p.path("delays.p50").and_then(|v| v.as_f64()).is_some());
        assert!(p.path("delays.p99").and_then(|v| v.as_f64()).is_some());
        assert_eq!(p.path("bench").and_then(|v| v.as_str()), Some("vortex"));
        // And the pipeline runs were timed via spans.
        let timings = obs::span::snapshot();
        assert!(timings
            .iter()
            .any(|(n, s)| n == "pipeline.run" && s.count > 0));
    }

    #[test]
    fn fig16_gdiff_dominates_locals() {
        let rows = bench_rows(RunParams::tiny(), fig16_bench);
        let g_cov: f64 = rows.iter().map(|r| r.gdiff_coverage).sum::<f64>() / rows.len() as f64;
        let s_cov: f64 = rows.iter().map(|r| r.stride_coverage).sum::<f64>() / rows.len() as f64;
        let c_cov: f64 = rows.iter().map(|r| r.context_coverage).sum::<f64>() / rows.len() as f64;
        assert!(g_cov > s_cov, "gdiff coverage {g_cov} vs stride {s_cov}");
        assert!(s_cov > c_cov, "stride coverage {s_cov} vs context {c_cov}");
        let g_acc: f64 = rows.iter().map(|r| r.gdiff_accuracy).sum::<f64>() / rows.len() as f64;
        assert!(g_acc > 0.75, "gdiff accuracy {g_acc}");
    }

    #[test]
    fn fig13_sgvq_trails_hgvq() {
        let p = RunParams::tiny();
        let sgvq = bench_rows(p, fig13_bench);
        let hgvq = bench_rows(p, fig16_bench);
        let s: f64 = sgvq.iter().map(|r| r.gdiff_coverage).sum();
        let h: f64 = hgvq.iter().map(|r| r.gdiff_coverage).sum();
        assert!(h > s, "hybrid queue must add coverage: {h} vs {s}");
    }

    #[test]
    fn fig19_gdiff_wins_harmonic_mean() {
        let rows = bench_rows(RunParams::tiny(), fig19_bench);
        let g = harmonic_mean(rows.iter().map(|r| r.gdiff));
        let s = harmonic_mean(rows.iter().map(|r| r.local_stride));
        assert!(g >= s - 0.01, "gdiff {g} vs stride {s}");
        assert!(g > 1.0, "value speculation must speed things up: {g}");
    }

    #[test]
    fn oracle_is_an_upper_bound() {
        let p = RunParams::tiny();
        let src = SyntheticSource::new(p.seed);
        for bench in [Benchmark::Gcc, Benchmark::Twolf] {
            let r = limit_bench(&src, bench, p);
            assert!(
                r.oracle >= r.gdiff - 0.02,
                "{bench}: oracle {} vs gdiff {}",
                r.oracle,
                r.gdiff
            );
            assert!(
                r.oracle > 1.05,
                "{bench}: perfect VP must clearly help: {}",
                r.oracle
            );
        }
    }

    #[test]
    fn prefetching_helps_memory_bound_benchmarks() {
        let p = RunParams::tiny();
        let mcf = prefetch_bench(&SyntheticSource::new(p.seed), Benchmark::Mcf, p);
        assert!(
            mcf.base_miss_rate > 0.2,
            "mcf misses a lot: {}",
            mcf.base_miss_rate
        );
        // Bump allocation gives mcf strong spatial locality: next-line
        // prefetching must clearly win there.
        assert!(
            mcf.next_line > 1.05,
            "next-line must speed mcf up: {}",
            mcf.next_line
        );
        // The gdiff prefetcher is coverage-limited on the jittered chase
        // but must never hurt, and what it prefetches must be useful.
        assert!(
            mcf.gdiff >= 0.995,
            "gdiff prefetching must not hurt: {}",
            mcf.gdiff
        );
        assert!(
            mcf.gdiff_useful > 0.5,
            "gdiff prefetches are accurate: {}",
            mcf.gdiff_useful
        );
    }

    #[test]
    fn harmonic_mean_is_correct() {
        assert!((harmonic_mean([1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((harmonic_mean([2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((harmonic_mean([1.0, 2.0]) - 4.0 / 3.0).abs() < 1e-12);
    }
}
