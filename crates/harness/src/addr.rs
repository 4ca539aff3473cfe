//! Load-address prediction (§6, Figure 18).
//!
//! The gDiff framework detects global stride locality in *any* value
//! stream; §6 points it at load addresses: only load addresses enter the
//! global value queue, predictions are made at dispatch and the
//! queue/table update at address generation. The queue uses the §5 hybrid
//! (dispatch-ordered) discipline, which keeps learned distances immune to
//! scheduling variation. The comparison predictors are a local stride
//! predictor (4K entries) and a first-order Markov predictor (4-way,
//! 256K entries, tag-match gating).

use std::collections::HashMap;

use gdiff::{HgvqPredictor, HgvqToken};
use pipeline::{NoVp, PipelineConfig, SimObserver, Simulator};
use predictors::{
    Capacity, GatedPredictor, MarkovConfig, MarkovPredictor, PredictorStats, StridePredictor,
    ValuePredictor,
};
use workloads::{Benchmark, DynInst, OpClass, TraceSource};

use crate::pipe::pipeline_trace_len;
use crate::RunParams;

#[derive(Debug, Clone, Copy)]
struct Pending {
    stride: Option<(u64, bool)>,
    gdiff: HgvqToken,
    markov: Option<u64>,
}

/// The Figure 18 measurement apparatus: rides along a pipeline run as an
/// observer, predicting every load's address at dispatch and training at
/// address generation.
#[derive(Debug)]
pub struct AddressPredictionObserver {
    stride: GatedPredictor<StridePredictor>,
    gdiff: HgvqPredictor,
    markov: MarkovPredictor,
    pending: HashMap<u64, Pending>,
    /// (all loads, missing loads) per predictor.
    pub stride_stats: (PredictorStats, PredictorStats),
    /// gDiff statistics.
    pub gdiff_stats: (PredictorStats, PredictorStats),
    /// Markov statistics.
    pub markov_stats: (PredictorStats, PredictorStats),
}

impl AddressPredictionObserver {
    /// Creates the paper's §6 configuration: 4K-entry tagless tables for
    /// local stride and gDiff, a 256K-entry 4-way Markov table.
    pub fn paper_default() -> Self {
        Self::with_markov(MarkovConfig::paper_256k())
    }

    /// Same, with a custom Markov geometry (the paper also tries 2M).
    pub fn with_markov(markov: MarkovConfig) -> Self {
        AddressPredictionObserver {
            stride: GatedPredictor::with_defaults(
                StridePredictor::new(Capacity::Entries(4096)),
                Capacity::Entries(4096),
            ),
            gdiff: HgvqPredictor::with_stride_filler(
                Capacity::Entries(4096),
                32,
                Capacity::Entries(4096),
            ),
            markov: MarkovPredictor::new(markov),
            pending: HashMap::new(),
            stride_stats: Default::default(),
            gdiff_stats: Default::default(),
            markov_stats: Default::default(),
        }
    }
}

impl SimObserver for AddressPredictionObserver {
    fn dispatch(&mut self, seq: u64, inst: &DynInst) {
        if inst.op != OpClass::Load {
            return;
        }
        let p = Pending {
            stride: self.stride.predict(inst.pc).map(|g| (g.value, g.confident)),
            gdiff: self.gdiff.dispatch(inst.pc),
            markov: self.markov.predict(inst.pc),
        };
        self.pending.insert(seq, p);
    }

    fn load_agen(&mut self, seq: u64, inst: &DynInst, hit: bool) {
        let Some(p) = self.pending.remove(&seq) else {
            return;
        };
        let actual = inst.mem_addr.expect("loads have addresses");
        // Record, gating local stride and gDiff by confidence, Markov by
        // tag match (every prediction it makes counts as confident).
        let records = [
            (
                &mut self.stride_stats,
                p.stride.map(|(v, _)| v),
                p.stride.is_some_and(|(_, c)| c),
            ),
            (
                &mut self.gdiff_stats,
                p.gdiff.prediction.map(|g| g.value),
                p.gdiff.prediction.is_some_and(|g| g.confident),
            ),
            (&mut self.markov_stats, p.markov, p.markov.is_some()),
        ];
        for (stats, predicted, confident) in records {
            stats.0.record(predicted, confident, actual);
            if !hit {
                stats.1.record(predicted, confident, actual);
            }
        }
        // Train.
        self.stride
            .resolve(inst.pc, p.stride.map(|(v, _)| v), actual);
        self.gdiff.writeback(inst.pc, &p.gdiff, actual);
        self.markov.update(inst.pc, actual);
    }

    fn measurement_started(&mut self) {
        self.stride_stats = Default::default();
        self.gdiff_stats = Default::default();
        self.markov_stats = Default::default();
    }
}

/// One benchmark's Figure 18 numbers.
#[derive(Debug, Clone)]
pub struct Fig18Row {
    /// Benchmark.
    pub bench: Benchmark,
    /// Local stride (coverage, accuracy) — all loads.
    pub stride: (f64, f64),
    /// gDiff (coverage, accuracy) — all loads.
    pub gdiff: (f64, f64),
    /// Markov (coverage, accuracy) — all loads.
    pub markov: (f64, f64),
    /// Local stride (coverage, accuracy) — missing loads only.
    pub stride_miss: (f64, f64),
    /// gDiff (coverage, accuracy) — missing loads only.
    pub gdiff_miss: (f64, f64),
    /// Markov (coverage, accuracy) — missing loads only.
    pub markov_miss: (f64, f64),
}

fn cov_acc(s: &PredictorStats) -> (f64, f64) {
    (s.coverage(), s.gated_accuracy())
}

/// One benchmark's row of Figure 18 (both panels: all loads and missing
/// loads).
pub fn fig18_bench(
    source: &dyn TraceSource,
    bench: Benchmark,
    params: RunParams,
    markov: MarkovConfig,
) -> Fig18Row {
    let mut obs = AddressPredictionObserver::with_markov(markov);
    let trace = source.stream(bench).take(pipeline_trace_len(params));
    let _ = Simulator::new(PipelineConfig::r10k(), Box::new(NoVp)).run_with_observer(
        trace,
        params.warmup,
        params.measure,
        &mut obs,
    );
    Fig18Row {
        bench,
        stride: cov_acc(&obs.stride_stats.0),
        gdiff: cov_acc(&obs.gdiff_stats.0),
        markov: cov_acc(&obs.markov_stats.0),
        stride_miss: cov_acc(&obs.stride_stats.1),
        gdiff_miss: cov_acc(&obs.gdiff_stats.1),
        markov_miss: cov_acc(&obs.markov_stats.1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_rows;

    fn fig18_tiny() -> Vec<Fig18Row> {
        let markov = MarkovConfig {
            entries: 64 * 1024,
            ways: 4,
        };
        bench_rows(RunParams::tiny(), |s, b, p| fig18_bench(s, b, p, markov))
    }

    fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
        let v: Vec<f64> = xs.into_iter().collect();
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn fig18_gdiff_has_best_coverage_accuracy_combination() {
        let rows = fig18_tiny();
        let g_cov = mean(rows.iter().map(|r| r.gdiff.0));
        let s_cov = mean(rows.iter().map(|r| r.stride.0));
        let g_acc = mean(rows.iter().map(|r| r.gdiff.1));
        let s_acc = mean(rows.iter().map(|r| r.stride.1));
        let m_acc = mean(rows.iter().map(|r| r.markov.1));
        let m_cov = mean(rows.iter().map(|r| r.markov.0));
        // The Figure 18 shape: gDiff is competitive with local stride in
        // coverage at equal-or-better accuracy, while the Markov predictor
        // trades much worse accuracy for its tag-hit coverage.
        assert!(
            g_cov > s_cov - 0.15,
            "gdiff coverage {g_cov} vs stride {s_cov}"
        );
        assert!(
            g_acc > s_acc - 0.05,
            "gdiff accuracy {g_acc} vs stride {s_acc}"
        );
        assert!(
            g_acc > m_acc + 0.1,
            "gdiff accuracy {g_acc} vs markov {m_acc}"
        );
        assert!(
            m_cov > s_cov - 0.1,
            "markov covers broadly: {m_cov} vs {s_cov}"
        );
    }

    #[test]
    fn fig18_missing_loads_are_harder() {
        let rows = fig18_tiny();
        // Averaged over benchmarks, missing-load accuracy/coverage is at
        // most all-load accuracy (they are the pathological subset).
        let all = mean(rows.iter().map(|r| r.gdiff.0));
        let miss = mean(rows.iter().map(|r| r.gdiff_miss.0));
        assert!(
            miss <= all + 0.1,
            "missing loads are harder: {miss} vs {all}"
        );
    }

    #[test]
    fn observer_pending_drains() {
        let mut obs = AddressPredictionObserver::paper_default();
        let trace = Benchmark::Mcf.build(1).take(60_000);
        let _ = Simulator::new(PipelineConfig::r10k(), Box::new(NoVp))
            .run_with_observer(trace, 5_000, 20_000, &mut obs);
        assert!(
            obs.pending.len() < 128,
            "pending must not leak: {}",
            obs.pending.len()
        );
        assert!(obs.gdiff_stats.0.total() > 1_000);
    }
}
