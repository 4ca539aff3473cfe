//! Profile-mode experiments (§3): Figures 1, 8, 9, 10 and the queue-order
//! ablation.
//!
//! Profile mode follows the paper's §3 methodology: every value-producing
//! instruction is predicted and the predictor is updated immediately in
//! program order — no pipeline, no confidence gating; the metric is plain
//! accuracy over all value producers.

use gdiff::GDiffPredictor;
use obs::Registry;
use predictors::{
    Capacity, ConfidenceTable, DfcmPredictor, PredictorStats, StridePredictor, ValuePredictor,
};
use workloads::{Benchmark, DynInst, SyntheticSource, TraceSource};

use crate::RunParams;

/// Runs one predictor over one benchmark's value stream (profile mode) and
/// returns ungated accuracy statistics.
pub fn run_profile<P: ValuePredictor>(
    bench: Benchmark,
    predictor: &mut P,
    params: RunParams,
) -> PredictorStats {
    run_profile_on(&SyntheticSource::new(params.seed), bench, predictor, params)
}

/// [`run_profile`] with an explicit instruction origin: the synthetic
/// models or a recorded trace file.
pub fn run_profile_on<P: ValuePredictor>(
    source: &dyn TraceSource,
    bench: Benchmark,
    predictor: &mut P,
    params: RunParams,
) -> PredictorStats {
    let _span = obs::span::span("profile.run");
    let mut stats = PredictorStats::new();
    for (n, inst) in value_stream_on(source, bench, params).enumerate() {
        let predicted = predictor.step(inst.pc, inst.value);
        if (n as u64) >= params.warmup {
            stats.record(predicted, false, inst.value);
        }
    }
    stats
}

/// [`run_profile_on`] with confidence gating: the sweep engine's cell
/// body. The predictor is queried every producer; when a confidence
/// table is supplied, a prediction only counts as *used* (confident)
/// when the saturating counter clears its threshold, and the counter
/// trains on every resolved prediction. With `conf = None` the run is
/// ungated and "confident" means "the predictor ventured a prediction",
/// so coverage stays meaningful across both modes.
pub fn run_profile_gated(
    source: &dyn TraceSource,
    bench: Benchmark,
    predictor: &mut GDiffPredictor,
    mut conf: Option<&mut ConfidenceTable>,
    params: RunParams,
) -> PredictorStats {
    let _span = obs::span::span("profile.run");
    let mut stats = PredictorStats::new();
    for (n, inst) in value_stream_on(source, bench, params).enumerate() {
        // The confidence table is not the predictor's, so training the
        // predictor before the gate is read changes nothing.
        let predicted = predictor.step(inst.pc, inst.value);
        let confident = match (&predicted, conf.as_deref_mut()) {
            (Some(_), Some(c)) => c.is_confident(inst.pc),
            (Some(_), None) => true,
            (None, _) => false,
        };
        if (n as u64) >= params.warmup {
            stats.record(predicted, confident, inst.value);
        }
        if let (Some(p), Some(c)) = (predicted, conf.as_deref_mut()) {
            c.train(inst.pc, p == inst.value);
        }
    }
    stats
}

/// Value producers a profile-mode experiment consumes: the number of
/// instructions `value_stream_on` takes after filtering. Recording
/// tools use this to size captured traces.
pub fn profile_producers(params: RunParams) -> usize {
    (params.warmup + params.measure) as usize
}

fn value_stream_on<'a>(
    source: &'a dyn TraceSource,
    bench: Benchmark,
    params: RunParams,
) -> impl Iterator<Item = DynInst> + 'a {
    source
        .stream(bench)
        .filter(|i| i.produces_value())
        .take(profile_producers(params))
}

// ---------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------

/// Figure 1: a hard-to-predict local value sequence, with the local
/// predictors' accuracy on it.
///
/// The paper shows a parser load whose values look like noise within a
/// slowly narrowing range (stride accuracy 4%, DFCM accuracy 2%). We
/// reproduce it from the parser model's `NoisyRange` spill/fill reload.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// The first values of the sequence (the paper plots ~250 of them).
    pub sequence: Vec<u64>,
    /// Local stride accuracy on the full measured sequence.
    pub stride_accuracy: f64,
    /// Local DFCM accuracy on the full measured sequence.
    pub dfcm_accuracy: f64,
    /// gDiff (order 8) accuracy on the same instruction, for contrast.
    pub gdiff_accuracy: f64,
}

/// Regenerates Figure 1 from the parser model's stream in `source`.
pub fn fig1_on(source: &dyn TraceSource, params: RunParams) -> Fig1 {
    let _span = obs::span::span("profile.run");
    // The reload of the parser model's first correlation kernel.
    let probe = workloads::kernels::CorrelationKernel::new(
        workloads::kernels::KernelSlot::for_site(0),
        3,
        &[4, 24],
        workloads::kernels::HardKind::NoisyRange,
        workloads::kernels::FillerKind::Strided,
    );
    let target_pc = probe.fill_pc();

    let mut stride = StridePredictor::new(Capacity::Unbounded);
    let mut dfcm = DfcmPredictor::new(Capacity::Unbounded, 4, 16);
    let mut gd = GDiffPredictor::new(Capacity::Unbounded, 8);
    let mut sequence = Vec::new();
    let (mut s_ok, mut d_ok, mut g_ok, mut total) = (0u64, 0u64, 0u64, 0u64);
    for inst in value_stream_on(source, Benchmark::Parser, params) {
        if inst.pc == target_pc {
            if sequence.len() < 250 {
                sequence.push(inst.value);
            }
            total += 1;
            if stride.predict(inst.pc) == Some(inst.value) {
                s_ok += 1;
            }
            if dfcm.predict(inst.pc) == Some(inst.value) {
                d_ok += 1;
            }
            if gd.predict(inst.pc) == Some(inst.value) {
                g_ok += 1;
            }
        }
        // Local predictors only train on their own instruction; feeding
        // the whole stream is harmless (PC-indexed) and keeps the code
        // uniform. gDiff must see the whole stream.
        stride.update(inst.pc, inst.value);
        dfcm.update(inst.pc, inst.value);
        gd.update(inst.pc, inst.value);
    }
    let total = total.max(1) as f64;
    Fig1 {
        sequence,
        stride_accuracy: s_ok as f64 / total,
        dfcm_accuracy: d_ok as f64 / total,
        gdiff_accuracy: g_ok as f64 / total,
    }
}

// ---------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------

/// One benchmark's row of Figure 8 (plus the paper's §3 note about queue
/// size 32 on gap).
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Benchmark.
    pub bench: Benchmark,
    /// Local stride accuracy (unlimited table).
    pub stride: f64,
    /// Local DFCM accuracy (unlimited L1, 64K L2).
    pub dfcm: f64,
    /// gDiff accuracy, queue order 8, unlimited table.
    pub gdiff_q8: f64,
    /// gDiff accuracy, queue order 32 (the paper quotes gap: 59.7%).
    pub gdiff_q32: f64,
}

/// One benchmark's row of Figure 8: profile accuracy of the local
/// predictors and gDiff over all value-producing instructions.
pub fn fig8_bench(source: &dyn TraceSource, bench: Benchmark, params: RunParams) -> Fig8Row {
    let stride = run_profile_on(
        source,
        bench,
        &mut StridePredictor::new(Capacity::Unbounded),
        params,
    );
    let dfcm = run_profile_on(
        source,
        bench,
        &mut DfcmPredictor::new(Capacity::Unbounded, 4, 16),
        params,
    );
    let g8 = run_profile_on(
        source,
        bench,
        &mut GDiffPredictor::new(Capacity::Unbounded, 8),
        params,
    );
    let g32 = run_profile_on(
        source,
        bench,
        &mut GDiffPredictor::new(Capacity::Unbounded, 32),
        params,
    );
    Fig8Row {
        bench,
        stride: stride.accuracy(),
        dfcm: dfcm.accuracy(),
        gdiff_q8: g8.accuracy(),
        gdiff_q32: g32.accuracy(),
    }
}

// ---------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------

/// Conflict (aliasing) rates of the gDiff prediction table per size, one
/// row per benchmark.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Benchmark.
    pub bench: Benchmark,
    /// Conflict rate per table size, in the same order as
    /// [`fig9_sizes`]: unlimited first, then 64K down to 2K.
    pub conflict_rates: Vec<f64>,
    /// Accuracy with the unlimited table and with the 8K table — the
    /// paper's "less than 1%" degradation check.
    pub accuracy_unlimited: f64,
    /// Accuracy with the 8K-entry table.
    pub accuracy_8k: f64,
    /// Direct-mapped probe length of the 8K table (slot count).
    pub table_probe_len: usize,
    /// Occupied slots in the 8K table after the run.
    pub table_occupancy: usize,
    /// Byte footprint of the 8K table's storage arrays.
    pub table_bytes: u64,
}

/// The table sizes of Figure 9 (entries; `None` = unlimited).
pub fn fig9_sizes() -> Vec<Option<usize>> {
    vec![
        None,
        Some(64 * 1024),
        Some(32 * 1024),
        Some(16 * 1024),
        Some(8 * 1024),
        Some(4 * 1024),
        Some(2 * 1024),
    ]
}

/// One benchmark's row of Figure 9: the aliasing effect of bounding the
/// gDiff table. Publishes the 8K table's shape as
/// `gdiff.table.{probe_len,occupancy,bytes}` gauges on `reg` and records
/// the same geometry in the returned row.
pub fn fig9_bench(
    source: &dyn TraceSource,
    bench: Benchmark,
    params: RunParams,
    reg: &mut Registry,
) -> Fig9Row {
    let mut conflict_rates = Vec::new();
    let mut accuracy_unlimited = 0.0;
    let mut accuracy_8k = 0.0;
    let mut geometry = None;
    for size in fig9_sizes() {
        let cap = match size {
            None => Capacity::Unbounded,
            Some(n) => Capacity::Entries(n),
        };
        let mut p = GDiffPredictor::new(cap, 8);
        let stats = run_profile_on(source, bench, &mut p, params);
        conflict_rates.push(p.conflict_rate());
        if size.is_none() {
            accuracy_unlimited = stats.accuracy();
        } else if size == Some(8 * 1024) {
            accuracy_8k = stats.accuracy();
            geometry = Some(p.core().geometry());
        }
    }
    let geometry = geometry.expect("fig9_sizes includes the 8K point");
    let probe_len = reg.gauge("gdiff.table.probe_len");
    reg.set_gauge(probe_len, geometry.probe_len as f64);
    let occupancy = reg.gauge("gdiff.table.occupancy");
    reg.set_gauge(occupancy, geometry.occupied as f64);
    let bytes = reg.gauge("gdiff.table.bytes");
    reg.set_gauge(bytes, geometry.bytes as f64);
    Fig9Row {
        bench,
        conflict_rates,
        accuracy_unlimited,
        accuracy_8k,
        table_probe_len: geometry.probe_len,
        table_occupancy: geometry.occupied,
        table_bytes: geometry.bytes,
    }
}

// ---------------------------------------------------------------------
// Figure 10
// ---------------------------------------------------------------------

/// gDiff accuracy per value delay, one row per benchmark.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Benchmark.
    pub bench: Benchmark,
    /// Accuracy for each delay in [`fig10_delays`].
    pub accuracy: Vec<f64>,
}

/// The delays of Figure 10.
pub fn fig10_delays() -> Vec<usize> {
    vec![0, 2, 4, 8, 16]
}

/// One benchmark's row of Figure 10: gDiff (q=8) accuracy under value
/// delay T.
pub fn fig10_bench(source: &dyn TraceSource, bench: Benchmark, params: RunParams) -> Fig10Row {
    let accuracy = fig10_delays()
        .into_iter()
        .map(|t| {
            let mut p = GDiffPredictor::with_delay(Capacity::Unbounded, 8, t);
            run_profile_on(source, bench, &mut p, params).accuracy()
        })
        .collect();
    Fig10Row { bench, accuracy }
}

// ---------------------------------------------------------------------
// Queue-order ablation
// ---------------------------------------------------------------------

/// gDiff profile accuracy per queue order.
#[derive(Debug, Clone)]
pub struct QueueRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// Accuracy per order in [`ablate_queue_orders`].
    pub accuracy: Vec<f64>,
}

/// The queue orders swept by [`ablate_queue_bench`].
pub fn ablate_queue_orders() -> Vec<usize> {
    vec![4, 8, 16, 32, 64]
}

/// One benchmark's row of the queue-order ablation: how far correlations
/// reach (§3's gap discussion generalized).
pub fn ablate_queue_bench(
    source: &dyn TraceSource,
    bench: Benchmark,
    params: RunParams,
) -> QueueRow {
    let accuracy = ablate_queue_orders()
        .into_iter()
        .map(|n| {
            let mut p = GDiffPredictor::new(Capacity::Unbounded, n);
            run_profile_on(source, bench, &mut p, params).accuracy()
        })
        .collect();
    QueueRow { bench, accuracy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_rows;

    fn avg(xs: impl IntoIterator<Item = f64>) -> f64 {
        let v: Vec<f64> = xs.into_iter().collect();
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn fig8_preserves_paper_ordering() {
        let rows = bench_rows(RunParams::tiny(), fig8_bench);
        let stride = avg(rows.iter().map(|r| r.stride));
        let dfcm = avg(rows.iter().map(|r| r.dfcm));
        let gdiff = avg(rows.iter().map(|r| r.gdiff_q8));
        // The paper's Figure 8 shape: gDiff > DFCM > stride on average.
        assert!(gdiff > dfcm, "gdiff {gdiff} vs dfcm {dfcm}");
        assert!(dfcm > stride, "dfcm {dfcm} vs stride {stride}");
        // gDiff beats local stride on every benchmark ("consistently").
        for r in &rows {
            assert!(
                r.gdiff_q8 > r.stride - 0.02,
                "{}: {} vs {}",
                r.bench,
                r.gdiff_q8,
                r.stride
            );
        }
    }

    #[test]
    fn fig8_gap_recovers_with_q32() {
        let rows = bench_rows(RunParams::tiny(), fig8_bench);
        let gap = rows.iter().find(|r| r.bench == Benchmark::Gap).unwrap();
        assert!(
            gap.gdiff_q32 > gap.gdiff_q8 + 0.10,
            "gap must jump with order 32: q8={} q32={}",
            gap.gdiff_q8,
            gap.gdiff_q32
        );
        // gap sits at (or within noise of) the bottom for gDiff(q8).
        let min = rows.iter().map(|r| r.gdiff_q8).fold(f64::MAX, f64::min);
        assert!(
            gap.gdiff_q8 - min < 0.06,
            "gap near the minimum: {} vs {min}",
            gap.gdiff_q8
        );
    }

    #[test]
    fn fig9_conflicts_shrink_with_table_size() {
        let rows = bench_rows(RunParams::tiny(), |s, b, p| {
            fig9_bench(s, b, p, &mut Registry::new())
        });
        for r in &rows {
            assert_eq!(r.conflict_rates[0], 0.0, "unlimited never conflicts");
            // 64K vs 2K: monotone within noise.
            assert!(
                r.conflict_rates[1] <= r.conflict_rates[6] + 1e-9,
                "{}: {:?}",
                r.bench,
                r.conflict_rates
            );
            assert!(
                r.accuracy_unlimited - r.accuracy_8k < 0.05,
                "{}: 8K table must be close to unlimited",
                r.bench
            );
        }
    }

    #[test]
    fn fig10_accuracy_degrades_with_delay() {
        let rows = bench_rows(RunParams::tiny(), fig10_bench);
        let t0 = avg(rows.iter().map(|r| r.accuracy[0]));
        let t16 = avg(rows.iter().map(|r| r.accuracy[4]));
        assert!(t0 > t16 + 0.1, "delay must hurt: T0 {t0} vs T16 {t16}");
    }

    #[test]
    fn fig1_sequence_is_noisy_and_locally_hard() {
        let params = RunParams::tiny();
        let f = fig1_on(&SyntheticSource::new(params.seed), params);
        assert!(f.sequence.len() > 50);
        assert!(f.stride_accuracy < 0.15, "stride {}", f.stride_accuracy);
        assert!(f.dfcm_accuracy < 0.30, "dfcm {}", f.dfcm_accuracy);
        assert!(f.gdiff_accuracy > 0.8, "gdiff {}", f.gdiff_accuracy);
    }
}
