//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation.
//!
//! Each `figN`/`tableN` function reproduces the corresponding exhibit:
//! it runs the same predictors over the same (synthetic-substitute)
//! benchmarks with the paper's parameters and returns the series the paper
//! plots, as structured data. The `harness` binary prints them as aligned
//! text tables; `EXPERIMENTS.md` records paper-vs-measured values.
//!
//! | Function | Paper exhibit |
//! |----------|---------------|
//! | [`fig1`] | Figure 1 — a hard-to-predict value sequence (parser) |
//! | [`fig8`] | Figure 8 — profile accuracy: stride vs DFCM vs gDiff(q=8) |
//! | [`fig9`] | Figure 9 — aliasing (conflict) rate vs table size |
//! | [`fig10`] | Figure 10 — accuracy vs value delay T |
//! | [`fig12`] | Figure 12 — value-delay distribution in the OOO pipeline |
//! | [`fig13`] | Figure 13 — SGVQ gDiff vs local stride (accuracy/coverage) |
//! | [`fig16`] | Figure 16 — HGVQ gDiff vs local stride vs local context |
//! | [`fig18`] | Figure 18 — load-address predictability (all + missing loads) |
//! | [`table2`] | Table 2 — baseline IPC |
//! | [`fig19`] | Figure 19 — value-speculation speedups |
//! | [`ablate_queue`] | queue-order ablation (the gap effect) |
//! | [`ablate_filler`] | HGVQ filler ablation |
//! | [`ablate_confidence`] | confidence-mechanism ablation |
//! | [`ablate_depth`] | deeper front ends (§8 future work) |
//! | [`prefetch`] | address-prediction-driven prefetching (§6/§8 future work) |
//! | [`limit`] | perfect-value-prediction headroom (Sazeides-style) |

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod benchdiff;
pub mod cells;
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

pub use addr::{fig18, fig18_bench, fig18_on, Fig18Row};
pub use benchdiff::{diff_reports, DiffReport, DiffRow, DEFAULT_THRESHOLD_PCT};
pub use explain::{explain_cell, explain_plan, ExplainCell, EXPLAIN_EXPERIMENTS};
pub use grid::{GridCell, GridSpec};
pub use pipe::{
    ablate_confidence, ablate_confidence_on, ablate_confidence_point, ablate_confidence_thresholds,
    ablate_depth, ablate_depth_on, ablate_depth_point, ablate_depth_points, ablate_filler,
    ablate_filler_bench, ablate_filler_on, fig12, fig12_on, fig13, fig13_bench, fig13_on, fig16,
    fig16_bench, fig16_on, fig19, fig19_bench, fig19_on, limit, limit_bench, limit_on, prefetch,
    prefetch_bench, prefetch_on, table2, table2_bench, table2_on, ConfidenceRow, DelayDistribution,
    DepthRow, FillerRow, LimitRow, PipelineVpRow, PrefetchRow, SpeedupRow,
};
pub use profile::{
    ablate_queue, ablate_queue_bench, ablate_queue_on, fig1, fig10, fig10_bench, fig10_on, fig1_on,
    fig8, fig8_bench, fig8_on, fig9, fig9_bench, fig9_bench_obs, fig9_on, Fig10Row, Fig8Row,
    Fig9Row, QueueRow,
};
pub use record::{open_replay, record, RecordReport, ReplayError, ReplayPlan};
pub use sched::{
    default_jobs, run_dynamic, run_plans, run_plans_live, Cell, DynDone, ExperimentOutput,
    ExperimentPlan,
};
pub use sweep::{
    load_completed, pareto_frontier, prepare_dir, render_dry_run, render_sweep, run_sweep_worker,
    sweep_parent, CellCounts, SWEEP_SCHEMA,
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

    /// Scales both phases by `f` (command-line `--scale`).
    pub fn scaled(self, f: f64) -> Self {
        RunParams {
            seed: self.seed,
            warmup: ((self.warmup as f64 * f) as u64).max(1_000),
            measure: ((self.measure as f64 * f) as u64).max(10_000),
        }
    }
}
