//! Experiment decomposition: one [`ExperimentPlan`] per experiment name.
//!
//! Every multi-benchmark experiment fans out into one cell per benchmark
//! (or per sweep point); the plan's assembly step collects the cell rows in
//! order and hands them to the matching [`render`] function.
//! Single-measurement experiments (`fig1`, `fig12`) are one-cell plans, so
//! the scheduler treats every experiment uniformly.

use obs::{JsonValue, Registry};
use predictors::MarkovConfig;
use workloads::{Benchmark, TraceSource};

use crate::render;
use crate::sched::{Cell, CellOutput, ExperimentPlan};
use crate::RunParams;

/// The canonical experiment list (`all` expands to this).
pub const ALL_EXPERIMENTS: [&str; 17] = [
    "fig1",
    "fig8",
    "fig9",
    "fig10",
    "fig12",
    "fig13",
    "fig16",
    "fig18a",
    "fig18b",
    "table2",
    "fig19",
    "ablate-queue",
    "ablate-filler",
    "ablate-confidence",
    "ablate-depth",
    "prefetch",
    "limit",
];

fn collect<T: 'static>(outs: Vec<CellOutput>) -> Vec<T> {
    outs.into_iter()
        .map(|o| *o.downcast::<T>().expect("cell output type"))
        .collect()
}

/// A one-cell plan: the whole experiment is a single unit of work.
fn single<'a, T: Send + 'static>(
    exp: &str,
    run: impl FnOnce(&mut Registry) -> T + Send + 'a,
    render: impl FnOnce(&T) -> (String, JsonValue) + 'a,
) -> ExperimentPlan<'a> {
    let cells = vec![Cell::new(exp, run)];
    ExperimentPlan::new(exp, cells, move |outs| {
        let rows = collect::<T>(outs);
        render(&rows[0])
    })
}

/// The common shape: one cell per benchmark, assembled in `Benchmark::ALL`
/// order.
fn per_bench<'a, T: Send + 'static>(
    exp: &str,
    source: &'a dyn TraceSource,
    params: RunParams,
    run: impl Fn(&dyn TraceSource, Benchmark, RunParams) -> T + Copy + Send + 'a,
    render: impl FnOnce(&[T]) -> (String, JsonValue) + 'a,
) -> ExperimentPlan<'a> {
    let cells = Benchmark::ALL
        .into_iter()
        .map(|bench| {
            Cell::new(format!("{exp}/{bench}"), move |_reg: &mut Registry| {
                run(source, bench, params)
            })
        })
        .collect();
    ExperimentPlan::new(exp, cells, move |outs| render(&collect::<T>(outs)))
}

/// Builds the plan for one validated experiment name.
///
/// # Panics
///
/// On a name not in [`ALL_EXPERIMENTS`] — callers validate names first.
pub fn plan_for<'a>(
    exp: &str,
    source: &'a dyn TraceSource,
    profile: RunParams,
    pipeline: RunParams,
) -> ExperimentPlan<'a> {
    match exp {
        "fig1" => single(
            exp,
            move |_reg| crate::fig1_on(source, profile),
            render::render_fig1,
        ),
        "fig8" => per_bench(exp, source, profile, crate::fig8_bench, |r| {
            render::render_fig8(r)
        }),
        "fig9" => {
            // fig9 cells publish gdiff.table.* gauges, so they take the
            // cell registry instead of going through per_bench.
            let cells = Benchmark::ALL
                .into_iter()
                .map(|bench| {
                    Cell::new(format!("{exp}/{bench}"), move |reg: &mut Registry| {
                        crate::fig9_bench(source, bench, profile, reg)
                    })
                })
                .collect();
            ExperimentPlan::new(exp, cells, |outs| render::render_fig9(&collect(outs)))
        }
        "fig10" => per_bench(exp, source, profile, crate::fig10_bench, |r| {
            render::render_fig10(r)
        }),
        "fig12" => single(
            exp,
            move |_reg| crate::fig12_on(source, pipeline),
            render::render_fig12,
        ),
        "fig13" => per_bench(exp, source, pipeline, crate::fig13_bench, |r| {
            render::render_fig13(r)
        }),
        "fig16" => per_bench(exp, source, pipeline, crate::fig16_bench, |r| {
            render::render_fig16(r)
        }),
        "fig18a" => per_bench(
            exp,
            source,
            pipeline,
            |s, b, p| crate::fig18_bench(s, b, p, MarkovConfig::paper_256k()),
            |r| render::render_fig18(r, false),
        ),
        "fig18b" => per_bench(
            exp,
            source,
            pipeline,
            |s, b, p| crate::fig18_bench(s, b, p, MarkovConfig::paper_256k()),
            |r| render::render_fig18(r, true),
        ),
        "table2" => per_bench(exp, source, pipeline, crate::table2_bench, |r| {
            render::render_table2(r)
        }),
        "fig19" => per_bench(exp, source, pipeline, crate::fig19_bench, |r| {
            render::render_fig19(r)
        }),
        "ablate-queue" => per_bench(exp, source, profile, crate::ablate_queue_bench, |r| {
            render::render_ablate_queue(r)
        }),
        "ablate-filler" => per_bench(exp, source, pipeline, crate::ablate_filler_bench, |r| {
            render::render_ablate_filler(r)
        }),
        "ablate-confidence" => {
            let cells = crate::ablate_confidence_thresholds()
                .into_iter()
                .map(|thr| {
                    Cell::new(format!("{exp}/t{thr}"), move |_reg: &mut Registry| {
                        crate::ablate_confidence_point(source, thr, pipeline)
                    })
                })
                .collect();
            ExperimentPlan::new(exp, cells, |outs| {
                render::render_ablate_confidence(&collect(outs))
            })
        }
        "ablate-depth" => {
            let cells = crate::ablate_depth_points()
                .into_iter()
                .map(|point| {
                    Cell::new(format!("{exp}/d{}", point.0), move |_reg: &mut Registry| {
                        crate::ablate_depth_point(source, point, pipeline)
                    })
                })
                .collect();
            ExperimentPlan::new(exp, cells, |outs| {
                render::render_ablate_depth(&collect(outs))
            })
        }
        "prefetch" => per_bench(exp, source, pipeline, crate::prefetch_bench, |r| {
            render::render_prefetch(r)
        }),
        "limit" => per_bench(exp, source, pipeline, crate::limit_bench, |r| {
            render::render_limit(r)
        }),
        other => unreachable!("unknown experiment: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::SyntheticSource;

    #[test]
    fn every_experiment_has_a_plan_with_cells() {
        let src = SyntheticSource::new(42);
        for exp in ALL_EXPERIMENTS {
            let plan = plan_for(exp, &src, RunParams::tiny(), RunParams::tiny());
            assert_eq!(plan.name, exp);
            assert!(plan.cell_count() >= 1, "{exp} has no cells");
        }
    }

    #[test]
    fn multi_bench_experiments_fan_out_per_benchmark() {
        let src = SyntheticSource::new(42);
        let plan = plan_for("fig8", &src, RunParams::tiny(), RunParams::tiny());
        assert_eq!(plan.cell_count(), Benchmark::ALL.len());
        let plan = plan_for(
            "ablate-confidence",
            &src,
            RunParams::tiny(),
            RunParams::tiny(),
        );
        assert_eq!(plan.cell_count(), 4);
        let plan = plan_for("fig1", &src, RunParams::tiny(), RunParams::tiny());
        assert_eq!(plan.cell_count(), 1);
    }
}
