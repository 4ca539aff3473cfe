//! Integration tests for the paper's value-delay narrative (§3.1–§5):
//! profile delay sweeps, the pipeline's observed delays, and the
//! SGVQ → HGVQ progression.

use gdiff::GDiffPredictor;
use harness::{fig12_on, pipe::run_pipeline, profile::run_profile, RunParams};
use pipeline::{HgvqEngine, SgvqEngine};
use predictors::Capacity;
use workloads::{Benchmark, SyntheticSource};

#[test]
fn profile_accuracy_is_monotone_in_delay() {
    // Figure 10: accuracy can only fall as the delay grows (allowing a
    // little measurement noise between adjacent points).
    for bench in [Benchmark::Parser, Benchmark::Vortex] {
        let accs: Vec<f64> = [0usize, 4, 16]
            .into_iter()
            .map(|t| {
                run_profile(
                    bench,
                    &mut GDiffPredictor::with_delay(Capacity::Unbounded, 8, t),
                    RunParams::tiny(),
                )
                .accuracy()
            })
            .collect();
        assert!(
            accs[0] >= accs[1] - 0.03,
            "{bench}: T0 {} vs T4 {}",
            accs[0],
            accs[1]
        );
        assert!(
            accs[1] >= accs[2] - 0.03,
            "{bench}: T4 {} vs T16 {}",
            accs[1],
            accs[2]
        );
        assert!(
            accs[0] > accs[2] + 0.05,
            "{bench}: delay must bite overall: {accs:?}"
        );
    }
}

#[test]
fn pipeline_value_delays_are_plausible() {
    // Figure 12: delays concentrate in the single digits to low tens;
    // the mean is far below the reorder-buffer size.
    let params = RunParams::tiny();
    let d = fig12_on(&SyntheticSource::new(params.seed), params);
    assert!(d.mean > 2.0, "some delay must exist: {}", d.mean);
    assert!(d.mean < 40.0, "delay bounded by the window: {}", d.mean);
    let within: f64 = d.fractions.iter().sum();
    assert!(within > 0.4, "mass within 0..=20: {within}");
}

#[test]
fn hybrid_queue_dominates_speculative_queue_in_pipeline() {
    // The §5 claim: HGVQ ≥ SGVQ in both accuracy and coverage, because
    // dispatch-ordered slots remove the execution variation.
    let p = RunParams::tiny();
    for bench in [Benchmark::Parser, Benchmark::Gzip, Benchmark::Vortex] {
        let sgvq = run_pipeline(bench, Box::new(SgvqEngine::paper_default()), p);
        let hgvq = run_pipeline(bench, Box::new(HgvqEngine::paper_default()), p);
        assert!(
            hgvq.vp.coverage() >= sgvq.vp.coverage(),
            "{bench}: hgvq cov {} vs sgvq cov {}",
            hgvq.vp.coverage(),
            sgvq.vp.coverage()
        );
    }
}
