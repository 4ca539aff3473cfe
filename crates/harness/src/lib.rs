//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation.
//!
//! Each exhibit is computed by one cell function: it runs the same
//! predictors over one (synthetic-substitute or recorded) benchmark, or
//! one sweep point, with the paper's parameters and returns the row the
//! paper plots, as structured data. [`cells::plan_for`] fans an exhibit out
//! into those cells, the scheduler runs them, and [`render`] turns the rows
//! into the `harness` binary's text tables and report JSON;
//! `EXPERIMENTS.md` records paper-vs-measured values.
//!
//! | Cell function | Paper exhibit |
//! |---------------|---------------|
//! | [`fig1_on`] | Figure 1 — a hard-to-predict value sequence (parser) |
//! | [`fig8_bench`] | Figure 8 — profile accuracy: stride vs DFCM vs gDiff(q=8) |
//! | [`fig9_bench`] | Figure 9 — aliasing (conflict) rate vs table size |
//! | [`fig10_bench`] | Figure 10 — accuracy vs value delay T |
//! | [`fig12_on`] | Figure 12 — value-delay distribution in the OOO pipeline |
//! | [`fig13_bench`] | Figure 13 — SGVQ gDiff vs local stride (accuracy/coverage) |
//! | [`fig16_bench`] | Figure 16 — HGVQ gDiff vs local stride vs local context |
//! | [`fig18_bench`] | Figure 18 — load-address predictability (all + missing loads) |
//! | [`table2_bench`] | Table 2 — baseline IPC |
//! | [`fig19_bench`] | Figure 19 — value-speculation speedups |
//! | [`ablate_queue_bench`] | queue-order ablation (the gap effect) |
//! | [`ablate_filler_bench`] | HGVQ filler ablation |
//! | [`ablate_confidence_point`] | confidence-mechanism ablation |
//! | [`ablate_depth_point`] | deeper front ends (§8 future work) |
//! | [`prefetch_bench`] | address-prediction-driven prefetching (§6/§8 future work) |
//! | [`limit_bench`] | perfect-value-prediction headroom (Sazeides-style) |

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod benchdiff;
pub mod cells;
pub mod cli;
pub mod explain;
pub mod grid;
pub mod pipe;
pub mod profile;
pub mod record;
pub mod render;
pub mod report;
pub mod sched;
pub mod serve_cli;
pub mod sweep;
pub mod taps;

pub use addr::{fig18_bench, Fig18Row};
pub use benchdiff::{diff_reports, DiffReport, DiffRow, DEFAULT_THRESHOLD_PCT};
pub use explain::{explain_cell, explain_plan, ExplainCell, EXPLAIN_EXPERIMENTS};
pub use grid::{GridCell, GridSpec};
pub use pipe::{
    ablate_confidence_point, ablate_confidence_thresholds, ablate_depth_point, ablate_depth_points,
    ablate_filler_bench, fig12_on, fig13_bench, fig16_bench, fig19_bench, limit_bench,
    prefetch_bench, table2_bench, ConfidenceRow, DelayDistribution, DepthRow, FillerRow, LimitRow,
    PipelineVpRow, PrefetchRow, SpeedupRow,
};
pub use profile::{
    ablate_queue_bench, fig10_bench, fig1_on, fig8_bench, fig9_bench, Fig10Row, Fig8Row, Fig9Row,
    QueueRow,
};
pub use record::{open_replay, record, RecordReport, ReplayError, ReplayPlan};
pub use sched::{
    default_jobs, run_dynamic, run_plans_live, Cell, DynDone, ExperimentOutput, ExperimentPlan,
};
pub use sweep::{
    load_completed, pareto_frontier, prepare_dir, render_dry_run, render_sweep, sweep_parent,
    CellCounts, SWEEP_SCHEMA,
};

/// Run-size parameters shared by all experiments.
///
/// The paper simulates 500M–1B instructions per benchmark; the defaults
/// here are sized for minutes-not-hours turnaround while staying deep into
/// steady state. All experiments are deterministic for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunParams {
    /// Workload seed.
    pub seed: u64,
    /// Warm-up instructions (caches, predictors, branch tables).
    pub warmup: u64,
    /// Measured instructions.
    pub measure: u64,
}

impl RunParams {
    /// Default profile-study size.
    pub fn profile_default() -> Self {
        RunParams {
            seed: 42,
            warmup: 200_000,
            measure: 2_000_000,
        }
    }

    /// Default pipeline-study size (per simulator run).
    pub fn pipeline_default() -> Self {
        RunParams {
            seed: 42,
            warmup: 100_000,
            measure: 400_000,
        }
    }

    /// A reduced size for unit tests.
    pub fn tiny() -> Self {
        RunParams {
            seed: 42,
            warmup: 5_000,
            measure: 40_000,
        }
    }

    /// Whether `f` scales every default run size to one that fits a `u64`
    /// (the upper bound of `--scale`): past it [`scaled`](Self::scaled)
    /// saturates the sizes and the run never ends.
    pub fn scale_fits(f: f64) -> bool {
        let largest = Self::profile_default()
            .measure
            .max(Self::pipeline_default().measure);
        largest as f64 * f < u64::MAX as f64
    }

    /// Scales both phases by `f` (command-line `--scale`).
    pub fn scaled(self, f: f64) -> Self {
        RunParams {
            seed: self.seed,
            warmup: ((self.warmup as f64 * f) as u64).max(1_000),
            measure: ((self.measure as f64 * f) as u64).max(10_000),
        }
    }
}

/// Runs `cell` over every benchmark of the synthetic models, in
/// `Benchmark::ALL` order: a per-benchmark plan's rows, computed serially.
#[cfg(test)]
pub(crate) fn bench_rows<T>(
    params: RunParams,
    cell: impl Fn(&dyn workloads::TraceSource, workloads::Benchmark, RunParams) -> T,
) -> Vec<T> {
    let source = workloads::SyntheticSource::new(params.seed);
    workloads::Benchmark::ALL
        .into_iter()
        .map(|bench| cell(&source, bench, params))
        .collect()
}
