//! Prometheus text-format exposition of a [`Registry`] and span table.
//!
//! Renders every metric in the stable, scrape-friendly shape a
//! `/metrics` endpoint serves — the surface the future `serve` daemon
//! mounts per tenant, and what `harness export-metrics` prints today:
//!
//! * counters and gauges become flat series under sanitized names
//!   (`sched.cells` → `sched_cells`);
//! * the per-cell scheduler counters (`sched.cell.<label>`) fold into one
//!   family, `sched_cell_runs_total{cell="<label>"}`, so dashboards can
//!   aggregate across cells with a stable label name;
//! * the serve daemon's per-tenant series (`serve.session.<name>.<metric>`)
//!   fold the same way: one family per metric, labeled by session —
//!   counters as `serve_session_<metric>_total{session="<name>"}`, gauges
//!   as `serve_session_<metric>{session="<name>"}` (session names are
//!   `[A-Za-z0-9_-]`, so the final dot always splits name from metric);
//! * the sweep engine's series fold too: `sched.worker.<w>.cells` →
//!   `sched_worker_cells_total{worker="<w>"}`, and the `sweep.cells.<state>`
//!   progress gauges → `sweep_cells_total{state="done|claimed|pending"}`;
//! * histograms render as Prometheus summaries: `{quantile="0.5|0.9|0.99"}`
//!   series plus `_sum` and `_count`;
//! * wall-time spans render as the `span_seconds` summary family labeled
//!   `{span="<name>"}`, exposing the p50/p99 tail latency per span.
//!
//! Output is sorted by family name, then label, so two exports of the
//! same state are byte-identical.

use crate::metrics::Registry;
use crate::span::SpanStats;
use std::fmt::Write as _;

/// Maps a metric name onto the Prometheus name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`); anything else becomes `_`.
pub fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Splits a `serve.session.<name>.<metric>` series into its session label
/// and metric. Session names never contain dots, so the *last* dot is the
/// boundary; a remainder without a dot is not a per-session series.
fn split_session_series(name: &str) -> Option<(&str, &str)> {
    name.strip_prefix("serve.session.")?.rsplit_once('.')
}

/// Extracts the worker index from a `sched.worker.<w>.cells` series.
fn split_worker_cells(name: &str) -> Option<&str> {
    let (worker, metric) = name.strip_prefix("sched.worker.")?.split_once('.')?;
    (metric == "cells" && worker.bytes().all(|b| b.is_ascii_digit())).then_some(worker)
}

/// Extracts the state from a `sweep.cells.<state>` progress gauge.
fn split_sweep_state(name: &str) -> Option<&str> {
    name.strip_prefix("sweep.cells.")
        .filter(|rest| !rest.contains('.'))
}

/// Escapes a label value (backslash, quote, newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats a sample value the exposition format accepts (`NaN`, `+Inf`,
/// `-Inf` spelled Prometheus-style).
fn number(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

struct Family {
    name: String,
    kind: &'static str,
    help: String,
    /// `(labels-with-braces-or-empty, value)` samples, sorted at render.
    samples: Vec<(String, String)>,
}

fn render_families(mut families: Vec<Family>) -> String {
    families.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = String::new();
    for f in &mut families {
        f.samples.sort();
        let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
        let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind);
        for (labels, value) in &f.samples {
            let _ = writeln!(out, "{}{} {}", f.name, labels, value);
        }
    }
    out
}

/// Renders the registry (and, when given, the span table) in the
/// Prometheus text exposition format.
pub fn prometheus(reg: &Registry, spans: &[(String, SpanStats)]) -> String {
    let mut families: Vec<Family> = Vec::new();

    // Per-cell scheduler counters, per-worker counters, and per-session
    // serve series fold into labeled families; everything else is a flat
    // series.
    let mut cell_runs: Vec<(String, String)> = Vec::new();
    let mut worker_cells: Vec<(String, String)> = Vec::new();
    let mut session_counters: std::collections::BTreeMap<String, Vec<(String, String)>> =
        std::collections::BTreeMap::new();
    for (name, v) in reg.counters_iter() {
        if let Some(label) = name.strip_prefix("sched.cell.") {
            cell_runs.push((
                format!("{{cell=\"{}\"}}", escape_label(label)),
                v.to_string(),
            ));
            continue;
        }
        if let Some(worker) = split_worker_cells(name) {
            worker_cells.push((format!("{{worker=\"{worker}\"}}"), v.to_string()));
            continue;
        }
        if let Some((session, metric)) = split_session_series(name) {
            session_counters
                .entry(metric.to_string())
                .or_default()
                .push((
                    format!("{{session=\"{}\"}}", escape_label(session)),
                    v.to_string(),
                ));
            continue;
        }
        families.push(Family {
            name: format!("{}_total", sanitize(name)),
            kind: "counter",
            help: format!("counter {name}"),
            samples: vec![(String::new(), v.to_string())],
        });
    }
    if !cell_runs.is_empty() {
        families.push(Family {
            name: "sched_cell_runs_total".to_string(),
            kind: "counter",
            help: "scheduler cell executions per (experiment, cell) label".to_string(),
            samples: cell_runs,
        });
    }
    if !worker_cells.is_empty() {
        families.push(Family {
            name: "sched_worker_cells_total".to_string(),
            kind: "counter",
            help: "cells executed per scheduler worker thread".to_string(),
            samples: worker_cells,
        });
    }
    for (metric, samples) in session_counters {
        families.push(Family {
            name: format!("serve_session_{}_total", sanitize(&metric)),
            kind: "counter",
            help: format!("serve daemon per-session counter {metric}"),
            samples,
        });
    }

    let mut session_gauges: std::collections::BTreeMap<String, Vec<(String, String)>> =
        std::collections::BTreeMap::new();
    let mut sweep_states: Vec<(String, String)> = Vec::new();
    for (name, v) in reg.gauges_iter() {
        if let Some((session, metric)) = split_session_series(name) {
            session_gauges.entry(metric.to_string()).or_default().push((
                format!("{{session=\"{}\"}}", escape_label(session)),
                number(v),
            ));
            continue;
        }
        if let Some(state) = split_sweep_state(name) {
            sweep_states.push((format!("{{state=\"{}\"}}", escape_label(state)), number(v)));
            continue;
        }
        families.push(Family {
            name: sanitize(name),
            kind: "gauge",
            help: format!("gauge {name}"),
            samples: vec![(String::new(), number(v))],
        });
    }
    for (metric, samples) in session_gauges {
        families.push(Family {
            name: format!("serve_session_{}", sanitize(&metric)),
            kind: "gauge",
            help: format!("serve daemon per-session gauge {metric}"),
            samples,
        });
    }
    if !sweep_states.is_empty() {
        families.push(Family {
            name: "sweep_cells_total".to_string(),
            kind: "gauge",
            help: "sweep grid cells by state (done, claimed, pending)".to_string(),
            samples: sweep_states,
        });
    }

    for (name, h) in reg.histograms_iter() {
        let base = sanitize(name);
        let mut samples = Vec::new();
        for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99())] {
            samples.push((format!("{{quantile=\"{q}\"}}", q = q), v.to_string()));
        }
        families.push(Family {
            name: base.clone(),
            kind: "summary",
            help: format!("histogram {name} (bucket-quantile summary)"),
            samples,
        });
        families.push(Family {
            name: format!("{base}_sum"),
            kind: "counter",
            help: format!("histogram {name} sum of observations"),
            samples: vec![(String::new(), h.sum().to_string())],
        });
        families.push(Family {
            name: format!("{base}_count"),
            kind: "counter",
            help: format!("histogram {name} observation count"),
            samples: vec![(String::new(), h.total().to_string())],
        });
    }

    if !spans.is_empty() {
        let mut q_samples = Vec::new();
        let mut sums = Vec::new();
        let mut counts = Vec::new();
        for (name, s) in spans {
            let l = escape_label(name);
            for (q, v) in [(0.5, s.p50()), (0.99, s.p99())] {
                q_samples.push((
                    format!("{{span=\"{l}\",quantile=\"{q}\"}}"),
                    number(v.as_secs_f64()),
                ));
            }
            sums.push((format!("{{span=\"{l}\"}}"), number(s.total.as_secs_f64())));
            counts.push((format!("{{span=\"{l}\"}}"), s.count.to_string()));
        }
        families.push(Family {
            name: "span_seconds".to_string(),
            kind: "summary",
            help: "wall-time span quantiles per span name".to_string(),
            samples: q_samples,
        });
        families.push(Family {
            name: "span_seconds_sum".to_string(),
            kind: "counter",
            help: "wall-time span total per span name".to_string(),
            samples: sums,
        });
        families.push(Family {
            name: "span_seconds_count".to_string(),
            kind: "counter",
            help: "wall-time span completions per span name".to_string(),
            samples: counts,
        });
    }

    render_families(families)
}

/// Checks one exposition-format document line by line; returns the first
/// offending line. Used by tests and the CI smoke gate — not a full
/// parser, but enough to reject malformed names, labels, and values.
pub fn validate(text: &str) -> Result<(), String> {
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            return Err(format!("no value: {line}"));
        };
        let name_end = series.find('{').unwrap_or(series.len());
        let (name, labels) = series.split_at(name_end);
        let name_ok = !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
        if !name_ok {
            return Err(format!("bad metric name: {line}"));
        }
        let labels_ok = labels.is_empty() || (labels.starts_with('{') && labels.ends_with('}'));
        if !labels_ok {
            return Err(format!("bad label block: {line}"));
        }
        let value_ok = matches!(value, "NaN" | "+Inf" | "-Inf") || value.parse::<f64>().is_ok();
        if !value_ok {
            return Err(format!("bad sample value: {line}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sanitize_maps_to_prometheus_charset() {
        assert_eq!(sanitize("sched.cells"), "sched_cells");
        assert_eq!(sanitize("cell.fig8/ast"), "cell_fig8_ast");
        assert_eq!(sanitize("9lives"), "_9lives");
    }

    #[test]
    fn registry_renders_and_validates() {
        let mut r = Registry::new();
        let c = r.counter("sim.retired");
        r.add(c, 12345);
        let pc = r.counter("sched.cell.fig8/ast");
        r.inc(pc);
        let g = r.gauge("sim.ipc");
        r.set_gauge(g, 1.25);
        let h = r.histogram("sim.value_delay", 16);
        for v in [1, 1, 5, 12] {
            r.observe(h, v);
        }
        let mut spans = Vec::new();
        let mut st = SpanStats::default();
        st.add(Duration::from_millis(3));
        st.add(Duration::from_millis(40));
        spans.push(("cell.fig8/ast".to_string(), st));

        let text = prometheus(&r, &spans);
        validate(&text).expect("valid exposition format");
        assert!(text.contains("# TYPE sim_retired_total counter"), "{text}");
        assert!(text.contains("sim_retired_total 12345"));
        assert!(text.contains("sched_cell_runs_total{cell=\"fig8/ast\"} 1"));
        assert!(text.contains("sim_ipc 1.25"));
        assert!(text.contains("sim_value_delay{quantile=\"0.99\"} 12"));
        assert!(text.contains("sim_value_delay_count 4"));
        assert!(text.contains("span_seconds{span=\"cell.fig8/ast\",quantile=\"0.99\"}"));
        assert!(text.contains("span_seconds_count{span=\"cell.fig8/ast\"} 2"));
    }

    #[test]
    fn sweep_series_fold_into_labeled_families() {
        let mut r = Registry::new();
        for (w, n) in [(0u32, 7u64), (1, 9), (12, 3)] {
            let c = r.counter(&format!("sched.worker.{w}.cells"));
            r.add(c, n);
        }
        for (state, v) in [("done", 40.0), ("claimed", 3.0), ("pending", 57.0)] {
            let g = r.gauge(&format!("sweep.cells.{state}"));
            r.set_gauge(g, v);
        }
        // Near-misses stay flat series: a non-numeric worker id, a metric
        // that isn't `cells`, a deeper sweep.cells path.
        let c = r.counter("sched.worker.oops.cells");
        r.add(c, 1);
        let c = r.counter("sched.worker.2.steals");
        r.add(c, 1);
        let g = r.gauge("sweep.cells.done.extra");
        r.set_gauge(g, 1.0);

        let text = prometheus(&r, &[]);
        validate(&text).expect("valid exposition format");
        assert!(
            text.contains("sched_worker_cells_total{worker=\"0\"} 7"),
            "{text}"
        );
        assert!(text.contains("sched_worker_cells_total{worker=\"12\"} 3"));
        assert!(text.contains("sweep_cells_total{state=\"done\"} 40"));
        assert!(text.contains("sweep_cells_total{state=\"pending\"} 57"));
        assert!(text.contains("sched_worker_oops_cells_total 1"));
        assert!(text.contains("sched_worker_2_steals_total 1"));
        assert!(text.contains("sweep_cells_done_extra 1"));
        // One HELP/TYPE block per family, not per sample.
        assert_eq!(text.matches("# TYPE sched_worker_cells_total").count(), 1);
        assert_eq!(text.matches("# TYPE sweep_cells_total").count(), 1);
    }

    #[test]
    fn per_session_series_fold_into_labeled_families() {
        let mut r = Registry::new();
        for session in ["gcc", "mcf"] {
            let c = r.counter(&format!("serve.session.{session}.chunks"));
            r.add(c, 7);
            let g = r.gauge(&format!("serve.session.{session}.accuracy"));
            r.set_gauge(g, 0.75);
        }
        // A daemon-level series must stay flat.
        let c = r.counter("serve.chunks");
        r.add(c, 14);

        let text = prometheus(&r, &[]);
        validate(&text).expect("valid exposition");
        assert!(
            text.contains("serve_session_chunks_total{session=\"gcc\"} 7"),
            "{text}"
        );
        assert!(text.contains("serve_session_chunks_total{session=\"mcf\"} 7"));
        assert!(text.contains("serve_session_accuracy{session=\"gcc\"} 0.75"));
        assert!(text.contains("# TYPE serve_session_accuracy gauge"));
        assert!(text.contains("# TYPE serve_session_chunks_total counter"));
        assert!(text.contains("serve_chunks_total 14"));
        // One HELP/TYPE block per family, not per session.
        assert_eq!(text.matches("# TYPE serve_session_chunks_total").count(), 1);
    }

    #[test]
    fn health_and_drop_families_validate() {
        // The PR 8 observability families: the per-session health gauge
        // (folded into a labeled family) and the timeline drop counter
        // must render as valid exposition text.
        let mut r = Registry::new();
        for (session, state) in [("gcc", 0.0), ("mcf", 1.0), ("ammp", 2.0)] {
            let g = r.gauge(&format!("serve.session.{session}.health"));
            r.set_gauge(g, state);
        }
        let d = r.gauge("timeline.dropped_events");
        r.set_gauge(d, 37.0);

        let text = prometheus(&r, &[]);
        validate(&text).expect("valid exposition");
        assert!(text.contains("# TYPE serve_session_health gauge"), "{text}");
        assert!(text.contains("serve_session_health{session=\"gcc\"} 0"));
        assert!(text.contains("serve_session_health{session=\"mcf\"} 1"));
        assert!(text.contains("serve_session_health{session=\"ammp\"} 2"));
        assert!(text.contains("timeline_dropped_events 37"));
        assert_eq!(text.matches("# TYPE serve_session_health").count(), 1);
    }

    #[test]
    fn output_is_stable_across_renders() {
        let mut r = Registry::new();
        // Register in one order...
        let b = r.counter("b.metric");
        let a = r.counter("a.metric");
        r.inc(a);
        r.add(b, 2);
        let text1 = prometheus(&r, &[]);
        // ...and the mirror order; rendered text sorts identically.
        let mut r2 = Registry::new();
        let a = r2.counter("a.metric");
        let b = r2.counter("b.metric");
        r2.add(b, 2);
        r2.inc(a);
        assert_eq!(text1, prometheus(&r2, &[]));
        let a_pos = text1.find("a_metric_total 1").unwrap();
        let b_pos = text1.find("b_metric_total 2").unwrap();
        assert!(a_pos < b_pos, "families sort by name");
    }

    #[test]
    fn non_finite_gauges_render_prometheus_style() {
        let mut r = Registry::new();
        let g = r.gauge("weird");
        r.set_gauge(g, f64::INFINITY);
        let text = prometheus(&r, &[]);
        assert!(text.contains("weird +Inf"), "{text}");
        validate(&text).expect("inf is valid");
        assert!(validate("bad-name 1").is_err());
        assert!(validate("name notanumber").is_err());
    }
}
