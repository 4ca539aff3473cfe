//! Argument-parsing contract of the `harness` binary: unknown flags and
//! invalid values are rejected with exit code 2 and a usage message, never
//! silently ignored.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("harness runs")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = run(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "{args:?} stderr must mention '{needle}': {stderr}"
    );
    assert!(stderr.contains("usage:"), "{args:?} must print usage");
}

#[test]
fn unknown_long_flag_is_rejected() {
    assert_usage_error(&["--frobnicate", "fig1"], "unknown option: --frobnicate");
    assert_usage_error(
        &["all", "--hotpath-bench"],
        "unknown option: --hotpath-bench",
    );
}

#[test]
fn unknown_short_flag_is_rejected() {
    assert_usage_error(&["-x", "fig1"], "unknown option: -x");
}

#[test]
fn unknown_experiment_is_rejected() {
    assert_usage_error(&["fig99"], "unknown experiment: fig99");
}

#[test]
fn jobs_zero_is_rejected() {
    assert_usage_error(&["--jobs", "0", "fig1"], "at least 1");
}

#[test]
fn jobs_non_numeric_is_rejected() {
    assert_usage_error(&["--jobs", "many", "fig1"], "invalid value 'many'");
    assert_usage_error(&["-jfour", "fig1"], "invalid value 'four'");
}

#[test]
fn missing_flag_value_is_rejected() {
    assert_usage_error(&["fig1", "--scale"], "--scale needs a value");
    assert_usage_error(&["fig1", "--jobs"], "needs a value");
}

#[test]
fn no_experiment_is_rejected() {
    assert_usage_error(&[], "no experiment named");
}

#[test]
fn trace_last_zero_is_rejected() {
    // A zero-capacity trace ring is a contradiction: reject it up front
    // rather than silently rounding up, in the run and replay paths alike.
    assert_usage_error(&["--trace-last", "0", "fig1"], "at least 1");
    assert_usage_error(&["replay", "--trace-last", "0", "x.bin"], "at least 1");
}

#[test]
fn explain_args_are_validated() {
    assert_usage_error(&["explain"], "explain needs an experiment");
    assert_usage_error(&["explain", "fig1"], "explain supports");
    assert_usage_error(&["explain", "-q", "fig13"], "unknown explain option: -q");
    assert_usage_error(&["explain", "--jobs", "0", "fig13"], "at least 1");
}

#[test]
fn unknown_subcommand_flags_are_rejected() {
    assert_usage_error(&["record", "-q", "fig1"], "unknown record option: -q");
    assert_usage_error(&["replay", "-q", "x.bin"], "unknown replay option: -q");
}

#[test]
fn serve_args_are_validated() {
    assert_usage_error(&["serve"], "serve needs --socket PATH");
    assert_usage_error(&["serve", "--bogus"], "unknown serve option: --bogus");
    assert_usage_error(&["serve", "--stdio", "--max-sessions", "0"], "at least 1");
    assert_usage_error(&["serve", "--stdio", "--queue-depth", "0"], "at least 1");
    assert_usage_error(
        &["serve", "--socket", "/nonexistent-dir-xyz/gdiffd.sock"],
        "does not exist",
    );
    assert_usage_error(&["serve", "--stdio", "--selftest"], "mutually exclusive");
}

#[test]
fn serve_client_args_are_validated() {
    assert_usage_error(&["serve-client", "--status"], "serve-client needs --socket");
    assert_usage_error(
        &["serve-client", "--socket", "/tmp/x.sock"],
        "needs something to do",
    );
    assert_usage_error(
        &[
            "serve-client",
            "--socket",
            "/tmp/x.sock",
            "--stream",
            "nope",
        ],
        "unknown benchmark 'nope'",
    );
    assert_usage_error(
        &["serve-client", "-q", "--socket", "/tmp/x.sock"],
        "unknown serve-client option: -q",
    );
    assert_usage_error(
        &["serve-client", "--socket", "/tmp/x.sock", "--window", "0"],
        "at least 1",
    );
}

#[test]
fn bench_diff_args_are_validated() {
    // The gate script feeds --threshold from CI variables; a typo must be
    // exit 2 (usage error), never a silently-passing comparison.
    assert_usage_error(
        &["bench-diff", "a.json", "b.json", "--threshold", "abc"],
        "invalid value 'abc'",
    );
    assert_usage_error(
        &["bench-diff", "a.json", "b.json", "--threshold", "-3"],
        "non-negative",
    );
    // f64::from_str accepts "inf" and "NaN": both thresholds would gate
    // nothing, so they are rejected as non-finite.
    assert_usage_error(
        &["bench-diff", "a.json", "b.json", "--threshold", "inf"],
        "finite",
    );
    assert_usage_error(
        &["bench-diff", "a.json", "b.json", "--threshold", "NaN"],
        "finite",
    );
    assert_usage_error(&["bench-diff", "only-one.json"], "bench-diff takes exactly");
    assert_usage_error(&["bench-diff", "--bogus"], "unknown bench-diff option");
}

#[test]
fn help_exits_zero() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn attached_jobs_flag_parses() {
    // -j1 on a tiny experiment: accepted and runs to completion.
    let out = run(&["-j1", "--scale", "0.01", "fig1"]);
    assert!(
        out.status.success(),
        "-j1 must be accepted: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Figure 1"));
}

#[test]
fn journal_flags_are_validated() {
    // --log / --log-level exist on run, replay, and serve; each rejects a
    // missing path and an unknown level the same way.
    assert_usage_error(&["fig1", "--log"], "--log needs a value");
    assert_usage_error(&["fig1", "--log-level", "loud"], "unknown level 'loud'");
    assert_usage_error(&["replay", "x.bin", "--log"], "--log needs a value");
    assert_usage_error(
        &["serve", "--stdio", "--log-level", "loud"],
        "unknown level 'loud'",
    );
}

#[test]
fn logs_args_are_validated() {
    assert_usage_error(&["logs"], "logs needs a journal file");
    assert_usage_error(
        &["logs", "j.bin", "--level", "loud"],
        "unknown level 'loud'",
    );
    assert_usage_error(&["logs", "j.bin", "-q"], "unknown logs option: -q");
}

#[test]
fn drift_probe_and_corruption_flags_are_validated() {
    // Corruption mutates an outgoing stream; without one there is nothing
    // to corrupt, and the probe is itself a stream mode.
    assert_usage_error(
        &[
            "serve-client",
            "--socket",
            "/tmp/x.sock",
            "--corrupt-chunk",
            "1",
        ],
        "needs a stream to corrupt",
    );
    assert_usage_error(
        &[
            "serve-client",
            "--socket",
            "/tmp/x.sock",
            "--corrupt-chunk",
            "no",
        ],
        "invalid value 'no'",
    );
    assert_usage_error(
        &[
            "serve-client",
            "--socket",
            "/tmp/x.sock",
            "--drift-probe",
            "--stream",
            "gcc",
        ],
        "mutually exclusive",
    );
}

#[test]
fn sweep_args_are_validated() {
    assert_usage_error(&["sweep"], "sweep needs --grid");
    assert_usage_error(&["sweep", "--grid"], "--grid needs a value");
    assert_usage_error(
        &["sweep", "--grid", "order=4;bench=gcc"],
        "sweep needs --ckpt",
    );
    assert_usage_error(
        &["sweep", "--grid", "order=4", "--dry-run", "--fresh"],
        "mutually exclusive",
    );
    assert_usage_error(
        &["sweep", "--grid", "order=4", "--unknown"],
        "unknown sweep option",
    );
    assert_usage_error(
        &[
            "sweep",
            "--grid",
            "order=4",
            "--dry-run",
            "--live-interval-ms",
            "0",
        ],
        "interval must be at least 1 ms",
    );
    // `-j` is the one shared `--jobs` definition, validated the same way.
    assert_usage_error(&["sweep", "-j0"], "at least 1");
}

#[test]
fn sweep_grid_specs_are_validated() {
    // Each rejection carries the offending clause so a thousand-cell spec
    // fails with a pointer, not a shrug.
    assert_usage_error(&["sweep", "--grid", "order=", "--dry-run"], "no values");
    assert_usage_error(
        &["sweep", "--grid", "order=four", "--dry-run"],
        "not a number",
    );
    assert_usage_error(
        &["sweep", "--grid", "order=4;order=8", "--dry-run"],
        "given twice",
    );
    assert_usage_error(
        &["sweep", "--grid", "flavor=mild", "--dry-run"],
        "unknown grid key",
    );
    assert_usage_error(
        &["sweep", "--grid", "bench=quake", "--dry-run"],
        "unknown benchmark",
    );
    assert_usage_error(&["sweep", "--grid", "order=99", "--dry-run"], "order");
    assert_usage_error(
        &["sweep", "--grid", "order=4;measure=10", "--dry-run"],
        "below the",
    );
    assert_usage_error(&["sweep", "--grid", "order 4", "--dry-run"], "key=values");
}

#[test]
fn sweep_process_flags_are_gone() {
    // A sweep runs in one process: `--workers` and the `sweep-worker`
    // child entry point are unknown, not silently ignored.
    assert_usage_error(
        &[
            "sweep",
            "--grid",
            "order=4",
            "--ckpt",
            "/tmp/x",
            "--workers",
            "2",
        ],
        "unknown sweep option: --workers",
    );
    assert_usage_error(&["sweep-worker"], "unknown experiment: sweep-worker");
    assert_usage_error(
        &[
            "sweep-worker",
            "--ckpt",
            "/tmp/x",
            "--worker",
            "0",
            "--workers",
            "2",
        ],
        "unknown option: --ckpt",
    );
}

#[test]
fn nonsense_scale_is_rejected_everywhere() {
    // NaN and negative scales used to run the minimum sizes and exit 0; an
    // infinite one never finished. Each case below stops at the scale
    // check before any run could start, so `inf` is safe to try here.
    let needle = "--scale: must be a finite number greater than 0";
    for bad in ["-1", "0", "nan", "inf"] {
        assert_usage_error(&["--scale", bad], needle);
        assert_usage_error(&["record", "--scale", bad], needle);
        assert_usage_error(&["explain", "--scale", bad], needle);
        assert_usage_error(&["export-metrics", "--scale", bad], needle);
        assert_usage_error(&["sweep", "--scale", bad], needle);
        assert_usage_error(&["serve", "--scale", bad], needle);
        assert_usage_error(&["serve-client", "--scale", bad], needle);
    }
    assert_usage_error(&["--scale", "-1", "fig1"], needle);
    assert_usage_error(&["--scale", "nan", "fig1"], needle);
}

#[test]
fn saturating_scale_is_rejected() {
    // A finite scale this large used to saturate the run sizes to
    // `u64::MAX`, and the run never ended. The check runs at parse time, so
    // no run starts here.
    let needle = "--scale: 1e300 is too large";
    assert_usage_error(&["--scale", "1e300", "fig1"], needle);
    assert_usage_error(&["record", "--scale", "1e300"], needle);
    assert_usage_error(&["sweep", "--scale", "1e300"], needle);
    assert_usage_error(&["serve", "--scale", "1e300"], needle);
}

#[test]
fn only_one_stdout_sink() {
    // A JSON report and an NDJSON stream on one stdout parse as neither.
    assert_usage_error(
        &[
            "fig1",
            "--scale",
            "0.01",
            "--json",
            "-",
            "--live-metrics",
            "-",
        ],
        "both write to stdout",
    );
    assert_usage_error(
        &[
            "sweep",
            "--grid",
            "order=4;bench=gcc",
            "--dry-run",
            "--out",
            "-",
            "--live-metrics",
            "-",
        ],
        "both write to stdout",
    );
}
