//! `harness explain <exp>`: prediction-provenance drill-downs.
//!
//! Re-runs one gdiff-vs-stride pipeline comparison (`fig13` or `fig16`)
//! with the simulator's provenance tap enabled and renders *why* the
//! aggregate accuracy/coverage numbers look the way they do:
//!
//! - top-K offender tables — the worst-covered PCs, the PCs where the
//!   local stride predictor beats gDiff, and the selected distances whose
//!   base value was still in flight at prediction time (§4's value-delay
//!   problem made visible per distance);
//! - the global distance × correctness and value-delay × correctness
//!   matrices (the paper's §3/§4 drill-downs);
//! - per-benchmark flight-recorder summaries (mispredict-rate spikes).
//!
//! Cells fan out through [`run_plans_live`](crate::sched::run_plans_live) like any
//! other experiment, and every emitted byte is derived from provenance
//! aggregates merged in cell order, so stdout and the
//! [`SCHEMA`] JSON are byte-identical for every `--jobs` value.

use obs::{JsonValue, Provenance};
use pipeline::{HgvqEngine, LocalEngine, SgvqEngine, SimStats, VpEngine};
use workloads::{Benchmark, TraceSource};

use crate::pipe::run_pipeline_with_provenance;
use crate::report::{pct, Table};
use crate::sched::{Cell, CellOutput, ExperimentPlan};
use crate::RunParams;

/// Schema identifier of the `explain` JSON report.
pub const SCHEMA: &str = "gdiff-explain-report/v1";

/// The experiments `explain` can drill into.
pub const EXPLAIN_EXPERIMENTS: [&str; 2] = ["fig13", "fig16"];

/// Default row count of the offender tables (`--top`).
pub const DEFAULT_TOP: usize = 10;

/// Minimum resolved attempts before a PC can appear in an offender table
/// (screens out cold PCs whose rates are noise).
const MIN_SAMPLES: u64 = 64;

/// One benchmark's explain cell: both engines' statistics and provenance.
#[derive(Debug)]
pub struct ExplainCell {
    /// Benchmark this cell ran.
    pub bench: Benchmark,
    /// gDiff engine statistics (SGVQ for fig13, HGVQ for fig16).
    pub gdiff: SimStats,
    /// gDiff provenance aggregate.
    pub gdiff_prov: Provenance,
    /// Local-stride engine statistics.
    pub stride: SimStats,
    /// Local-stride provenance aggregate.
    pub stride_prov: Provenance,
}

fn engine_for(exp: &str) -> Option<fn() -> Box<dyn VpEngine>> {
    match exp {
        "fig13" => Some(|| Box::new(SgvqEngine::paper_default())),
        "fig16" => Some(|| Box::new(HgvqEngine::paper_default())),
        _ => None,
    }
}

/// One benchmark's explain run — the independently schedulable cell.
pub fn explain_cell(
    source: &dyn TraceSource,
    bench: Benchmark,
    params: RunParams,
    gdiff: fn() -> Box<dyn VpEngine>,
) -> ExplainCell {
    let (gdiff_stats, gdiff_prov) = run_pipeline_with_provenance(source, bench, gdiff(), params);
    let (stride, stride_prov) =
        run_pipeline_with_provenance(source, bench, Box::new(LocalEngine::stride_8k()), params);
    ExplainCell {
        bench,
        gdiff: gdiff_stats,
        gdiff_prov,
        stride,
        stride_prov,
    }
}

/// Builds the `explain` plan for a supported experiment, or `None` when
/// `exp` has no gdiff-vs-stride comparison to drill into.
///
/// `top` bounds the offender tables; `dump` includes the raw flight
/// recorder rings and spike dumps in the JSON (`--dump-provenance`).
pub fn explain_plan<'a>(
    exp: &str,
    source: &'a dyn TraceSource,
    params: RunParams,
    top: usize,
    dump: bool,
) -> Option<ExperimentPlan<'a>> {
    let engine = engine_for(exp)?;
    let name = format!("explain-{exp}");
    let cells = Benchmark::ALL
        .into_iter()
        .map(|bench| {
            Cell::new(format!("{name}/{bench}"), move |_reg| {
                explain_cell(source, bench, params, engine)
            })
        })
        .collect();
    let exp = exp.to_string();
    Some(ExperimentPlan::new(name, cells, move |outs| {
        assemble(&exp, outs, top, dump)
    }))
}

fn hex(pc: u64) -> String {
    format!("0x{pc:x}")
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Turns the buffered cells (in `Benchmark::ALL` order) into the rendered
/// tables and the `explain` JSON section. Pure function of the cells, so
/// output is independent of worker count.
fn assemble(exp: &str, outs: Vec<CellOutput>, top: usize, dump: bool) -> (String, JsonValue) {
    let cells: Vec<ExplainCell> = outs
        .into_iter()
        .map(|o| *o.downcast::<ExplainCell>().expect("explain cell type"))
        .collect();

    // Global matrices: provenance merged across benchmarks in cell order.
    let mut gdiff_all = Provenance::new(
        cells[0].gdiff_prov.order(),
        cells[0].gdiff_prov.delay_matrix().len() - 1,
    );
    let mut stride_all = gdiff_all.clone();
    for c in &cells {
        gdiff_all.merge(&c.gdiff_prov);
        stride_all.merge(&c.stride_prov);
    }

    let mut text = String::new();

    // --- per-benchmark summary -----------------------------------------
    let mut t = Table::new(
        format!("explain {exp}: per-benchmark summary (gdiff vs local stride)"),
        &[
            "bench", "g.acc", "g.cov", "s.acc", "s.cov", "resolved", "spikes", "dumps",
        ],
    );
    for c in &cells {
        t.row(vec![
            c.bench.to_string(),
            pct(c.gdiff.vp.gated_accuracy()),
            pct(c.gdiff.vp.coverage()),
            pct(c.stride.vp.gated_accuracy()),
            pct(c.stride.vp.coverage()),
            c.gdiff_prov.resolved().to_string(),
            c.gdiff_prov.recorder().spikes().to_string(),
            c.gdiff_prov.recorder().dumps().len().to_string(),
        ]);
    }
    text.push_str(&t.render());
    text.push('\n');

    // --- offender 1: worst-covered PCs ---------------------------------
    let mut worst: Vec<(f64, usize, u64, &ExplainCell)> = Vec::new();
    for (bi, c) in cells.iter().enumerate() {
        for (pc, cell) in c.gdiff_prov.per_pc() {
            if cell.made >= MIN_SAMPLES {
                worst.push((cell.coverage(), bi, *pc, c));
            }
        }
    }
    worst.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut t = Table::new(
        format!("explain {exp}: worst-covered PCs (gdiff, >= {MIN_SAMPLES} samples)"),
        &[
            "bench",
            "pc",
            "op",
            "made",
            "coverage",
            "accuracy",
            "mean_delay",
        ],
    );
    let mut worst_json = Vec::new();
    for (cov, _, pc, c) in worst.iter().take(top) {
        let cell = c.gdiff_prov.per_pc()[pc];
        let mean_delay = cell.delay_sum as f64 / cell.made.max(1) as f64;
        t.row(vec![
            c.bench.to_string(),
            hex(*pc),
            cell.op_class.to_string(),
            cell.made.to_string(),
            pct(*cov),
            pct(cell.accuracy()),
            format!("{mean_delay:.1}"),
        ]);
        worst_json.push(
            JsonValue::object()
                .with("bench", c.bench.to_string())
                .with("pc", *pc)
                .with("op_class", cell.op_class)
                .with("made", cell.made)
                .with("coverage", *cov)
                .with("accuracy", cell.accuracy())
                .with("mean_delay", mean_delay),
        );
    }
    text.push_str(&t.render());
    text.push('\n');

    // --- offender 2: PCs where local stride beats gdiff ----------------
    let mut wins: Vec<(f64, usize, u64, &ExplainCell)> = Vec::new();
    for (bi, c) in cells.iter().enumerate() {
        for (pc, g) in c.gdiff_prov.per_pc() {
            let Some(s) = c.stride_prov.per_pc().get(pc) else {
                continue;
            };
            if g.made >= MIN_SAMPLES && s.made >= MIN_SAMPLES {
                let delta = s.hit_rate() - g.hit_rate();
                if delta > 0.0 {
                    wins.push((delta, bi, *pc, c));
                }
            }
        }
    }
    wins.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut t = Table::new(
        format!("explain {exp}: PCs where local stride beats gdiff"),
        &["bench", "pc", "op", "made", "g.hit", "s.hit", "delta"],
    );
    let mut wins_json = Vec::new();
    for (delta, _, pc, c) in wins.iter().take(top) {
        let g = c.gdiff_prov.per_pc()[pc];
        let s = c.stride_prov.per_pc()[pc];
        t.row(vec![
            c.bench.to_string(),
            hex(*pc),
            g.op_class.to_string(),
            g.made.to_string(),
            pct(g.hit_rate()),
            pct(s.hit_rate()),
            format!("+{:.1}pp", 100.0 * delta),
        ]);
        wins_json.push(
            JsonValue::object()
                .with("bench", c.bench.to_string())
                .with("pc", *pc)
                .with("op_class", g.op_class)
                .with("made", g.made)
                .with("gdiff_hit", g.hit_rate())
                .with("stride_hit", s.hit_rate())
                .with("delta", *delta),
        );
    }
    text.push_str(&t.render());
    text.push('\n');

    // --- offender 3: distances that never resolve in time --------------
    let dist = gdiff_all.distance_matrix();
    let mut unresolved: Vec<(f64, usize)> = dist
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, c)| c.made > 0 && c.unresolved_at_predict > 0)
        .map(|(k, c)| (ratio(c.unresolved_at_predict, c.made), k))
        .collect();
    unresolved.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut t = Table::new(
        format!("explain {exp}: distances unresolved at prediction time (gdiff)"),
        &["k", "made", "unresolved", "share", "accuracy"],
    );
    let mut unresolved_json = Vec::new();
    for (share, k) in unresolved.iter().take(top) {
        let c = dist[*k];
        t.row(vec![
            k.to_string(),
            c.made.to_string(),
            c.unresolved_at_predict.to_string(),
            pct(*share),
            pct(ratio(c.correct_confident, c.confident)),
        ]);
        unresolved_json.push(
            JsonValue::object()
                .with("k", *k as u64)
                .with("made", c.made)
                .with("unresolved", c.unresolved_at_predict)
                .with("share", *share)
                .with("accuracy", ratio(c.correct_confident, c.confident)),
        );
    }
    text.push_str(&t.render());
    text.push('\n');

    // --- distance × correctness matrix ---------------------------------
    let mut t = Table::new(
        format!("explain {exp}: distance x correctness (gdiff, all benchmarks)"),
        &["k", "made", "confident", "accuracy", "unresolved"],
    );
    for (k, c) in dist.iter().enumerate() {
        if c.made == 0 {
            continue;
        }
        t.row(vec![
            if k == 0 {
                "-".to_string()
            } else {
                k.to_string()
            },
            c.made.to_string(),
            c.confident.to_string(),
            pct(ratio(c.correct_confident, c.confident)),
            pct(ratio(c.unresolved_at_predict, c.made)),
        ]);
    }
    text.push_str(&t.render());
    text.push('\n');

    // --- value delay × correctness matrix ------------------------------
    let delay = gdiff_all.delay_matrix();
    let top_bucket = delay.len() - 1;
    let bands: [(usize, usize); 9] = [
        (0, 0),
        (1, 1),
        (2, 2),
        (3, 3),
        (4, 7),
        (8, 15),
        (16, 31),
        (32, top_bucket - 1),
        (top_bucket, top_bucket),
    ];
    let mut t = Table::new(
        format!("explain {exp}: value delay x correctness (gdiff, predicted values)"),
        &["delay", "predicted", "correct", "accuracy"],
    );
    for (lo, hi) in bands {
        let (mut ok, mut bad) = (0u64, 0u64);
        for b in &delay[lo..=hi.min(top_bucket)] {
            ok += b[0];
            bad += b[1];
        }
        if ok + bad == 0 {
            continue;
        }
        let label = if lo == top_bucket {
            format!("{lo}+")
        } else if lo == hi {
            lo.to_string()
        } else {
            format!("{lo}-{hi}")
        };
        t.row(vec![
            label,
            (ok + bad).to_string(),
            ok.to_string(),
            pct(ratio(ok, ok + bad)),
        ]);
    }
    text.push_str(&t.render());

    // --- JSON section ---------------------------------------------------
    let mut benches = JsonValue::object();
    for c in &cells {
        benches.set(
            c.bench.to_string(),
            JsonValue::object()
                .with(
                    "gdiff",
                    JsonValue::object()
                        .with("stats", c.gdiff.to_json())
                        .with("provenance", c.gdiff_prov.to_json(dump)),
                )
                .with(
                    "stride",
                    JsonValue::object()
                        .with("stats", c.stride.to_json())
                        .with("provenance", c.stride_prov.to_json(dump)),
                ),
        );
    }
    let json = JsonValue::object()
        .with("experiment", exp)
        .with("min_samples", MIN_SAMPLES)
        .with("top", top as u64)
        .with("benches", benches)
        .with(
            "global",
            JsonValue::object()
                .with("gdiff", gdiff_all.to_json(false))
                .with("stride", stride_all.to_json(false)),
        )
        .with(
            "offenders",
            JsonValue::object()
                .with("worst_covered", JsonValue::Arr(worst_json))
                .with("stride_wins", JsonValue::Arr(wins_json))
                .with("unresolved_distances", JsonValue::Arr(unresolved_json)),
        );
    (text, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Registry;
    use workloads::SyntheticSource;

    fn run(jobs: usize) -> (String, String) {
        let src = SyntheticSource::new(42);
        let plan =
            explain_plan("fig13", &src, RunParams::tiny(), DEFAULT_TOP, false).expect("fig13");
        let mut master = Registry::new();
        let mut text = String::new();
        let mut json = String::new();
        crate::sched::run_plans_live(vec![plan], jobs, &mut master, None, |out| {
            text = out.text;
            json = out.json.to_json_pretty();
        });
        (text, json)
    }

    #[test]
    fn unsupported_experiments_are_rejected() {
        let src = SyntheticSource::new(42);
        for exp in ["fig1", "table2", "nonsense"] {
            assert!(explain_plan(exp, &src, RunParams::tiny(), 5, false).is_none());
        }
        for exp in EXPLAIN_EXPERIMENTS {
            assert!(explain_plan(exp, &src, RunParams::tiny(), 5, false).is_some());
        }
    }

    #[test]
    fn explain_output_has_offender_tables_and_is_jobs_invariant() {
        let (text1, json1) = run(1);
        assert!(text1.contains("worst-covered PCs"));
        assert!(text1.contains("local stride beats gdiff"));
        assert!(text1.contains("unresolved at prediction time"));
        assert!(text1.contains("distance x correctness"));
        assert!(text1.contains("value delay x correctness"));
        let parsed = JsonValue::parse(&json1).expect("valid JSON");
        assert!(parsed.path("offenders.worst_covered").is_some());
        assert!(parsed.path("global.gdiff.resolved").is_some());
        assert!(parsed
            .path("benches.gzip.gdiff.provenance.resolved")
            .is_some());
        let (text2, json2) = run(2);
        assert_eq!(text1, text2, "explain tables must be jobs-invariant");
        assert_eq!(json1, json2, "explain JSON must be jobs-invariant");
    }
}
