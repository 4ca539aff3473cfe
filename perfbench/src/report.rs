//! The metric declarations and the result line.
//!
//! Every run prints every declared metric: with tracing off the
//! end-to-end metrics, with tracing on the per-layer ones. The names,
//! units and directions here match `BENCHMARK.json`.

use obs::JsonValue;

use crate::inputs::Checks;
use crate::Workload;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("insts_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("unit_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("accuracy", "ratio"),
    ("coverage", "ratio"),
];

use Workload::{Pipeline as Pi, Profile as Pr, Serve as Se};

/// Per-layer metrics: `(name, unit, workloads that drive the layer)`. A
/// traced run of a workload that bypasses a layer measures it with a
/// small probe of a workload that drives it.
pub const PER_LAYER: &[(&str, &str, &[Workload])] = &[
    ("workloads.gen_ns_per_inst", "ns/inst", &[Pr, Pi, Se]),
    ("tracefile.encode_ns_per_inst", "ns/inst", &[Se]),
    ("tracefile.decode_ns_per_inst", "ns/inst", &[Se]),
    ("tracefile.bytes_per_inst", "B/inst", &[Se]),
    ("gdiff.q8_ns_per_producer", "ns/producer", &[Pr, Se]),
    ("gdiff.q32_ns_per_producer", "ns/producer", &[Pr]),
    ("gdiff.hgvq_ns_per_producer", "ns/producer", &[Pi]),
    ("predictors.stride_ns_per_producer", "ns/producer", &[Pr]),
    ("predictors.dfcm_ns_per_producer", "ns/producer", &[Pr]),
    (
        "predictors.local_engine_ns_per_producer",
        "ns/producer",
        &[Pi],
    ),
    ("pipeline.sim_self_ns_per_inst", "ns/inst", &[Pi]),
    ("pipeline.cycles", "count", &[Pi]),
    ("pipeline.reissues", "count", &[Pi]),
    ("pipeline.dcache_miss_rate", "ratio", &[Pi]),
    ("pipeline.branch_mispredict_rate", "ratio", &[Pi]),
    ("pipeline.speedup", "ratio", &[Pi]),
    (
        "harness.profile_overhead_ns_per_producer",
        "ns/producer",
        &[Pr],
    ),
    ("serve.feed_ns_per_inst", "ns/inst", &[Se]),
    ("serve.frame_ns_per_chunk", "ns/chunk", &[Se]),
    ("serve.residual_us_per_chunk", "us/chunk", &[Se]),
    ("serve.busy_frames", "count", &[Se]),
    ("trace.overhead", "ratio", &[Pr, Pi, Se]),
];

/// Named metric values as one workload run produced them.
pub type Values = Vec<(&'static str, f64)>;

/// Looks up `name` in `values`.
pub fn find(values: &Values, name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// Prints the result line: the declared metrics in `decl` order, each
/// taken from `values`. A missing or non-finite value is a failed check.
pub fn print_result(checks: &mut Checks, decl: &[(&str, &str)], values: &Values) {
    let mut metrics = JsonValue::object();
    for &(name, unit) in decl {
        let value = find(values, name);
        if !value.is_some_and(f64::is_finite) {
            checks.check(false, || format!("metric {name} is missing or not finite"));
        }
        let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
        eprintln!("  {name:<42} {value:>16.6} {unit}");
        metrics.set(
            name,
            JsonValue::object().with("value", value).with("unit", unit),
        );
    }
    let line = JsonValue::object()
        .with("correct", checks.failed == 0)
        .with("attempted", checks.attempted)
        .with("failed", checks.failed)
        .with("metrics", metrics);
    println!("{}", line.to_json());
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
