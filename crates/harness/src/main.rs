//! Experiment driver: `cargo run -p harness --release -- <experiment>`.
//!
//! Experiments: fig1 fig8 fig9 fig10 fig12 fig13 fig16 fig18a fig18b
//! table2 fig19 ablate-queue ablate-filler ablate-confidence all
//!
//! Options: `--scale <f>` multiplies run sizes (default 1.0; finite and
//! above 0), `--seed <n>` sets the workload seed (default 42),
//! `--jobs <n>` / `-j<n>` sets the worker count (default: all cores);
//! output is byte-identical for every worker count,
//! `--json <path|->` writes a machine-readable run report,
//! `--trace-last <n>` records pipeline trace events and dumps the last n,
//! `--timeline <path>` exports a Chrome trace-event timeline of the run,
//! `--live-metrics <path|->` streams periodic NDJSON metric snapshots.
//! At most one of `--json` and `--live-metrics` may be `-` (stdout).
//!
//! Subcommands: `record --out <file> <experiment>...` captures the
//! instruction streams the named experiments consume into a binary trace
//! container; `replay <file>` re-runs those experiments from the capture
//! (same numbers, no synthesis); `convert <in> <out>` translates between
//! the text trace format and the binary container (direction sniffed from
//! the input's magic bytes); `export-metrics <experiment>...` runs
//! experiments and prints the merged registry in Prometheus text format;
//! `bench-diff <old.json> <new.json>` compares two run reports and fails
//! past a regression threshold; `serve` runs the `gdiff-serve/v2`
//! multi-session prediction daemon (Unix socket, `--stdio`, or
//! `--selftest`); `serve-client` streams a trace or synthesized benchmark
//! to a running daemon and prints the returned report; `logs` reads and
//! pretty-prints the structured binary journal that `--log` writes.
//!
//! Every subcommand's command line is one [`Command`] flag table run by
//! the shared [`harness::cli`] parser; a flag shared by several
//! subcommands (`--scale`, `--jobs`, `--log`, ...) is defined once below.
//! [`SUBCOMMANDS`] dispatches on the first argument, and `main` alone
//! turns a [`Usage`] into usage text and exit 0 (`--help`) or exit 2.

use harness::cells::{plan_for, ALL_EXPERIMENTS};
use harness::cli::{self, at_least_1, number, Command, Flag, Positionals, Usage};
use harness::record::{open_replay, record};
use harness::report::{RunReport, Table};
use harness::sched::{default_jobs, run_plans_live, ExperimentOutput};
use harness::serve_cli;
use harness::taps::{TapOpts, Taps};
use harness::RunParams;
use obs::trace::tracer;
use obs::{JsonValue, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use workloads::{SyntheticSource, TraceSource};

/// Set when a report or the live stream goes to stdout (see
/// `route_tables`): the human-readable tables move to stderr so stdout
/// stays parseable.
static TABLES_TO_STDERR: AtomicBool = AtomicBool::new(false);

macro_rules! out {
    ($($t:tt)*) => {
        if TABLES_TO_STDERR.load(Ordering::Relaxed) {
            eprint!($($t)*)
        } else {
            print!($($t)*)
        }
    };
}

/// The options of every subcommand in this file, set by the flag tables
/// below. Each subcommand's table admits only its own flags; the rest keep
/// their defaults.
#[derive(Debug)]
struct Opts {
    scale: f64,
    seed: u64,
    /// `None` means the subcommand's default worker count.
    jobs: Option<usize>,
    json: Option<String>,
    out: Option<String>,
    trace_last: Option<usize>,
    taps: TapOpts,
    top: usize,
    dump_provenance: bool,
    threshold: f64,
    full: bool,
    /// logs `--level`, `--target`, `--follow`, and `--json` (one JSON
    /// object per record).
    level: obs::log::Level,
    target: Option<String>,
    follow: bool,
    json_lines: bool,
    grid: Option<String>,
    ckpt: Option<String>,
    pareto: bool,
    dry_run: bool,
    fresh: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 1.0,
            seed: 42,
            jobs: None,
            json: None,
            out: None,
            trace_last: None,
            taps: TapOpts::default(),
            top: harness::explain::DEFAULT_TOP,
            dump_provenance: false,
            threshold: harness::DEFAULT_THRESHOLD_PCT,
            full: false,
            level: obs::log::Level::Debug,
            target: None,
            follow: false,
            json_lines: false,
            grid: None,
            ckpt: None,
            pareto: false,
            dry_run: false,
            fresh: false,
        }
    }
}

const SCALE: Flag<Opts> = Flag::parse(&["--scale"], cli::SCALE_HINT, |o, f, v| {
    cli::scale(f, v).map(|x| o.scale = x)
});
const SEED: Flag<Opts> = Flag::parse(&["--seed"], "an integer", |o, f, v| {
    number(f, v).map(|n| o.seed = n)
});
const JOBS: Flag<Opts> = Flag::parse(&["--jobs", "-j"], "a worker count", |o, f, v| {
    at_least_1(f, v, "worker count must be at least 1").map(|n| o.jobs = Some(n))
});
const JSON: Flag<Opts> = Flag::text(&["--json"], "a path or -", |o, v| o.json = Some(v));
const OUT: Flag<Opts> = Flag::text(&["--out"], "a file path", |o, v| o.out = Some(v));
const TRACE_LAST: Flag<Opts> = Flag::parse(&["--trace-last"], "an event count", |o, f, v| {
    at_least_1(f, v, "event count must be at least 1").map(|n| o.trace_last = Some(n))
});
const TIMELINE: Flag<Opts> = Flag::text(&["--timeline"], "a file path", |o, v| {
    o.taps.timeline = Some(v)
});
const LIVE_METRICS: Flag<Opts> = Flag::text(&["--live-metrics"], "a path or -", |o, v| {
    o.taps.live_metrics = Some(v)
});
const LIVE_INTERVAL_MS: Flag<Opts> =
    Flag::parse(&["--live-interval-ms"], "milliseconds", |o, f, v| {
        at_least_1(f, v, "interval must be at least 1 ms").map(|n| o.taps.live_interval_ms = n)
    });
const LOG: Flag<Opts> = Flag::text(&["--log"], "a journal path", |o, v| {
    o.taps.log = Some(v.into())
});
const LOG_LEVEL: Flag<Opts> = Flag::parse(&["--log-level"], cli::LEVEL_HINT, |o, f, v| {
    cli::level(f, v).map(|l| o.taps.log_level = l)
});
const CKPT: Flag<Opts> = Flag::text(&["--ckpt"], "a directory", |o, v| o.ckpt = Some(v));

const RUN: Command<Opts> = Command {
    name: "",
    positionals: Positionals::Any,
    flags: &[
        SCALE,
        SEED,
        JOBS,
        JSON,
        TRACE_LAST,
        TIMELINE,
        LIVE_METRICS,
        LIVE_INTERVAL_MS,
        LOG,
        LOG_LEVEL,
    ],
};

const RECORD: Command<Opts> = Command {
    name: "record",
    positionals: Positionals::Any,
    flags: &[OUT, SCALE, SEED],
};

const REPLAY: Command<Opts> = Command {
    name: "replay",
    positionals: Positionals::Exactly(1, "replay needs a trace file"),
    flags: &[JSON, TRACE_LAST, LOG, LOG_LEVEL],
};

const CONVERT: Command<Opts> = Command {
    name: "convert",
    positionals: Positionals::Exactly(2, "convert takes exactly: convert IN OUT"),
    flags: &[],
};

const EXPLAIN: Command<Opts> = Command {
    name: "explain",
    positionals: Positionals::Exactly(1, "explain needs an experiment (fig13 or fig16)"),
    flags: &[
        SCALE,
        SEED,
        JOBS,
        JSON,
        Flag::parse(&["--top"], "a row count", |o, f, v| {
            number(f, v).map(|n| o.top = n)
        }),
        Flag::switch(&["--dump-provenance"], |o| o.dump_provenance = true),
    ],
};

const EXPORT_METRICS: Command<Opts> = Command {
    name: "export-metrics",
    positionals: Positionals::Any,
    flags: &[SCALE, SEED, JOBS, OUT],
};

const BENCH_DIFF: Command<Opts> = Command {
    name: "bench-diff",
    positionals: Positionals::Exactly(2, "bench-diff takes exactly: bench-diff OLD.json NEW.json"),
    flags: &[
        Flag::parse(&["--threshold"], "a percentage", |o, f, v| {
            cli::finite(f, v, |x| x >= 0.0, "a finite, non-negative percentage")
                .map(|x| o.threshold = x)
        }),
        Flag::switch(&["--full"], |o| o.full = true),
    ],
};

const LOGS: Command<Opts> = Command {
    name: "logs",
    positionals: Positionals::Exactly(1, "logs needs a journal file"),
    flags: &[
        Flag::parse(&["--level"], cli::LEVEL_HINT, |o, f, v| {
            cli::level(f, v).map(|l| o.level = l)
        }),
        Flag::text(&["--target"], "a target prefix", |o, v| o.target = Some(v)),
        Flag::switch(&["--follow", "-f"], |o| o.follow = true),
        Flag::switch(&["--json"], |o| o.json_lines = true),
    ],
};

const SWEEP: Command<Opts> = Command {
    name: "sweep",
    positionals: Positionals::None,
    flags: &[
        Flag::text(&["--grid"], "a spec or @FILE", |o, v| o.grid = Some(v)),
        CKPT,
        JOBS,
        Flag::switch(&["--pareto"], |o| o.pareto = true),
        Flag::switch(&["--dry-run"], |o| o.dry_run = true),
        Flag::switch(&["--fresh"], |o| o.fresh = true),
        Flag::text(&["--out"], "a path or -", |o, v| o.out = Some(v)),
        SCALE,
        SEED,
        LOG,
        LOG_LEVEL,
        LIVE_METRICS,
        LIVE_INTERVAL_MS,
        TIMELINE,
    ],
};

/// A subcommand's entry point: the arguments after its name.
type Main = fn(Vec<String>) -> Result<(), Usage>;

/// Subcommands by first argument; anything else is an experiment run.
const SUBCOMMANDS: &[(&str, Main)] = &[
    ("record", main_record),
    ("replay", main_replay),
    ("convert", main_convert),
    ("explain", main_explain),
    ("export-metrics", main_export_metrics),
    ("bench-diff", main_bench_diff),
    ("serve", main_serve),
    ("serve-client", main_serve_client),
    ("logs", main_logs),
    ("sweep", main_sweep),
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let sub = SUBCOMMANDS
        .iter()
        .find(|(name, _)| args.first().is_some_and(|a| a == name));
    let main: Main = match sub {
        Some(&(_, main)) => {
            args.remove(0);
            main
        }
        None => main_run,
    };
    match main(args) {
        Ok(()) => {}
        Err(Usage::Help) => print_usage(),
        Err(Usage::Error(msg)) => {
            eprintln!("error: {msg}");
            print_usage();
            std::process::exit(2);
        }
    }
}

/// Prints a runtime failure and exits 1.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// Writes `text` to `dest`, or to stdout when `dest` is `-`.
fn write_out(dest: &str, text: String) {
    if dest == "-" {
        println!("{text}");
    } else if let Err(e) = std::fs::write(dest, text + "\n") {
        fail(format!("cannot write {dest}: {e}"));
    }
}

/// Moves the tables to stderr when the report (`report_flag`) or the
/// live stream goes to stdout. Both at once would interleave JSON and
/// NDJSON into one unparseable stream, so that is a usage error.
fn route_tables(report_flag: &str, report: &Option<String>, taps: &TapOpts) -> Result<(), Usage> {
    let report = report.as_deref() == Some("-");
    let live = taps.live_metrics.as_deref() == Some("-");
    if report && live {
        return Err(format!(
            "{report_flag} - and --live-metrics - both write to stdout; send one to a file"
        )
        .into());
    }
    if report || live {
        TABLES_TO_STDERR.store(true, Ordering::Relaxed);
    }
    Ok(())
}

/// Prints an experiment's tables and its summed cell time.
fn show(res: &ExperimentOutput) {
    out!("{}", res.text);
    eprintln!("[{} took {:.1}s]\n", res.name, res.busy.as_secs_f64());
}

/// `base` resized by `--scale` and seeded by `--seed`.
fn sized(base: RunParams, o: &Opts) -> RunParams {
    RunParams {
        seed: o.seed,
        ..base.scaled(o.scale)
    }
}

/// Expands `all` and validates every experiment name up front so a typo
/// late in the list doesn't discard an hour of completed experiments.
fn select_experiments(named: &[String]) -> Result<Vec<String>, Usage> {
    if named.is_empty() {
        return Err("no experiment named".into());
    }
    let selected: Vec<String> = if named.iter().any(|e| e == "all") {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        named.to_vec()
    };
    if let Some(exp) = selected
        .iter()
        .find(|e| !ALL_EXPERIMENTS.contains(&e.as_str()))
    {
        return Err(format!("unknown experiment: {exp}").into());
    }
    Ok(selected)
}

fn main_run(args: Vec<String>) -> Result<(), Usage> {
    let (o, named) = RUN.parse(args, Opts::default())?;
    route_tables("--json", &o.json, &o.taps)?;
    let selected = select_experiments(&named)?;
    let source = SyntheticSource::new(o.seed);
    execute(Execution {
        source: &source,
        selected: &selected,
        profile: sized(RunParams::profile_default(), &o),
        pipeline: sized(RunParams::pipeline_default(), &o),
        seed: o.seed,
        scale: o.scale,
        jobs: o.jobs.unwrap_or_else(default_jobs),
        opts: o,
        sections: Vec::new(),
    });
    Ok(())
}

/// One experiment sweep: the instruction origin, what to run, and how to
/// report it. Shared by the direct (`main_run`) and `replay` paths so both
/// produce byte-identical `experiments` report sections.
struct Execution<'a> {
    source: &'a dyn TraceSource,
    selected: &'a [String],
    profile: RunParams,
    pipeline: RunParams,
    seed: u64,
    scale: f64,
    /// Scheduler worker count (replay forces 1).
    jobs: usize,
    /// `--json`, `--trace-last`, and the taps, which are live-only: the
    /// tables, the report, and replay outputs are byte-identical with
    /// every tap on or off.
    opts: Opts,
    /// Extra report sections (e.g. replay's tracefile metrics).
    sections: Vec<(String, JsonValue)>,
}

fn execute(x: Execution<'_>) {
    let taps = Taps::start(&x.opts.taps).unwrap_or_else(|e| fail(e));
    obs::log::info(
        "harness.run",
        "run started",
        &[
            ("experiments", obs::log::Value::from(x.selected.len())),
            ("jobs", obs::log::Value::from(x.jobs)),
            ("seed", obs::log::Value::from(x.seed)),
            ("scale", obs::log::Value::from(x.scale)),
        ],
    );
    if let Some(n) = x.opts.trace_last {
        tracer().enable(n);
    }

    let plans = x
        .selected
        .iter()
        .map(|exp| plan_for(exp, x.source, x.profile, x.pipeline))
        .collect();
    let mut report = RunReport::new(x.seed, x.scale);
    let mut master = Registry::new();
    // Experiments fan out into per-benchmark cells across the workers, but
    // emission happens strictly in plan order, so the tables and the
    // `experiments` report section are byte-identical for any worker count.
    // Live telemetry rides beside them and never feeds back into `master`.
    let cells = run_plans_live(plans, x.jobs, &mut master, taps.live(), |res| {
        show(&res);
        obs::log::info(
            "harness.run",
            "experiment finished",
            &[
                ("experiment", obs::log::Value::from(res.name.as_str())),
                ("busy_s", obs::log::Value::from(res.busy.as_secs_f64())),
            ],
        );
        report.add_experiment(&res.name, res.json);
    });

    if let Some(n) = x.opts.trace_last {
        tracer().disable();
        let events = tracer().last(n);
        eprintln!(
            "== trace: last {} of {} recorded events ==",
            events.len(),
            tracer().recorded()
        );
        for ev in &events {
            eprintln!("  {ev}");
        }
        let section = JsonValue::object()
            .with("recorded", tracer().recorded())
            .with(
                "events",
                JsonValue::Arr(events.iter().map(|e| e.to_json()).collect()),
            );
        report.add_section("trace", section);
    }
    report.add_section(
        "scheduler",
        JsonValue::object()
            .with("jobs", x.jobs as u64)
            .with("cells", cells as u64),
    );
    report.add_section("metrics", master.to_json());
    for (name, section) in x.sections {
        report.add_section(&name, section);
    }
    if let Some(dest) = &x.opts.json {
        write_out(dest, report.finish().to_json_pretty());
    }

    obs::log::info(
        "harness.run",
        "run finished",
        &[("cells", obs::log::Value::from(cells as u64))],
    );
    taps.finish().unwrap_or_else(|e| fail(e));
}

fn main_record(args: Vec<String>) -> Result<(), Usage> {
    let (o, named) = RECORD.parse(args, Opts::default())?;
    let out = o.out.clone().ok_or("record needs --out FILE")?;
    let selected = select_experiments(&named)?;
    let profile = sized(RunParams::profile_default(), &o);
    let pipelinep = sized(RunParams::pipeline_default(), &o);

    let mut registry = Registry::new();
    let rep = record(&out, &selected, profile, pipelinep, o.scale, &mut registry)
        .unwrap_or_else(|e| fail(format!("cannot record {out}: {e}")));
    let mut t = Table::new(
        format!("Recorded {out} (seed {}, scale {})", o.seed, o.scale),
        &["benchmark", "instructions"],
    );
    for (bench, n) in &rep.per_bench {
        t.row(vec![bench.to_string(), n.to_string()]);
    }
    t.row(vec!["total".into(), rep.records.to_string()]);
    print!("{}", t.render());
    println!(
        "container: {} bytes ({:.2} bytes/inst, {:.1}x smaller than text)",
        rep.binary_bytes,
        rep.bytes_per_inst(),
        rep.compression_vs_text()
    );
    println!(
        "encode: {:.0} inst/s, {:.1} MiB/s",
        rep.insts_per_sec, rep.mib_per_sec
    );
    Ok(())
}

fn main_replay(args: Vec<String>) -> Result<(), Usage> {
    let (o, files) = REPLAY.parse(args, Opts::default())?;
    route_tables("--json", &o.json, &o.taps)?;
    let file = &files[0];
    let mut registry = Registry::new();
    let plan = open_replay(file, &mut registry)
        .unwrap_or_else(|e| fail(format!("cannot replay {file}: {e}")));
    eprintln!(
        "replaying {} (seed {}, scale {}): {}",
        plan.source.describe(),
        plan.seed,
        plan.scale,
        plan.experiments.join(" ")
    );
    execute(Execution {
        source: &plan.source,
        selected: &plan.experiments,
        profile: plan.profile,
        pipeline: plan.pipeline,
        seed: plan.seed,
        scale: plan.scale,
        // Replay streams the capture sequentially; parallel cells would
        // contend for the reader, so replay always runs single-worker.
        jobs: 1,
        opts: o,
        sections: vec![("tracefile".to_string(), registry.to_json())],
    });
    Ok(())
}

fn main_explain(args: Vec<String>) -> Result<(), Usage> {
    let (o, named) = EXPLAIN.parse(args, Opts::default())?;
    route_tables("--json", &o.json, &o.taps)?;
    let exp = &named[0];
    let source = SyntheticSource::new(o.seed);
    let params = sized(RunParams::pipeline_default(), &o);
    let plan =
        harness::explain_plan(exp, &source, params, o.top, o.dump_provenance).ok_or_else(|| {
            format!(
                "explain supports {}, not {exp}",
                harness::EXPLAIN_EXPERIMENTS.join(" and ")
            )
        })?;

    let mut master = Registry::new();
    let mut section: Option<JsonValue> = None;
    run_plans_live(
        vec![plan],
        o.jobs.unwrap_or_else(default_jobs),
        &mut master,
        None,
        |res| {
            show(&res);
            section = Some(res.json);
        },
    );

    if let Some(dest) = &o.json {
        // The explain report carries no timing/scheduler sections by
        // design: every byte is worker-count invariant.
        let root = JsonValue::object()
            .with("schema", harness::explain::SCHEMA)
            .with("experiment", exp.as_str())
            .with("seed", o.seed)
            .with("scale", o.scale)
            .with("explain", section.take().expect("one plan emitted"));
        write_out(dest, root.to_json_pretty());
    }
    Ok(())
}

fn main_convert(args: Vec<String>) -> Result<(), Usage> {
    let (_, files) = CONVERT.parse(args, Opts::default())?;
    let (input, output) = (&files[0], &files[1]);
    let stats =
        convert_any(input, output).unwrap_or_else(|e| fail(format!("cannot convert {input}: {e}")));
    println!(
        "converted {} instructions: {} text bytes <-> {} binary bytes",
        stats.records, stats.text_bytes, stats.binary_bytes
    );
    Ok(())
}

/// `export-metrics`: run experiments and print the merged registry (plus
/// the span table) in Prometheus text exposition format. Tables go to
/// stderr; stdout carries only the exposition so it pipes cleanly into
/// scrape tooling — the same rendering a future serve daemon's `/metrics`
/// endpoint will return.
fn main_export_metrics(args: Vec<String>) -> Result<(), Usage> {
    let (o, named) = EXPORT_METRICS.parse(args, Opts::default())?;
    // Stdout is the exposition; everything human-readable moves aside.
    TABLES_TO_STDERR.store(true, Ordering::Relaxed);
    let selected = select_experiments(&named)?;
    let profile = sized(RunParams::profile_default(), &o);
    let pipelinep = sized(RunParams::pipeline_default(), &o);
    let source = SyntheticSource::new(o.seed);
    let plans = selected
        .iter()
        .map(|exp| plan_for(exp, &source, profile, pipelinep))
        .collect();
    let mut master = Registry::new();
    run_plans_live(
        plans,
        o.jobs.unwrap_or_else(default_jobs),
        &mut master,
        None,
        |res| show(&res),
    );
    let text = obs::expose::prometheus(&master, &obs::span::snapshot());
    match &o.out {
        Some(dest) => {
            if let Err(e) = std::fs::write(dest, &text) {
                fail(format!("cannot write {dest}: {e}"));
            }
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `bench-diff`: compare the `experiments` sections of two run reports,
/// print per-metric deltas, and exit 3 when any metric moved more than
/// the threshold — the regression gate behind committed `BENCH_*.json`
/// snapshots.
fn main_bench_diff(args: Vec<String>) -> Result<(), Usage> {
    let (o, files) = BENCH_DIFF.parse(args, Opts::default())?;
    let load = |path: &str| -> JsonValue {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
        JsonValue::parse(&text).unwrap_or_else(|e| fail(format!("{path} is not valid JSON: {e}")))
    };
    let old = load(&files[0]);
    let new = load(&files[1]);
    let diff = harness::diff_reports(&old, &new, o.threshold).unwrap_or_else(|m| fail(m));
    print!("{}", diff.render(o.full));
    let breaches = diff.breaches();
    if breaches.is_empty() {
        println!(
            "OK: {} metrics within {:.2}% of {}",
            diff.rows.len(),
            o.threshold,
            files[0]
        );
    } else {
        println!(
            "FAIL: {} of {} metrics moved more than {:.2}%",
            breaches.len(),
            diff.rows.len(),
            o.threshold
        );
        std::process::exit(3);
    }
    Ok(())
}

fn main_serve(args: Vec<String>) -> Result<(), Usage> {
    let opts = serve_cli::parse_serve_args(args)?;
    serve_cli::run_serve(&opts).unwrap_or_else(|e| fail(e));
    Ok(())
}

fn main_serve_client(args: Vec<String>) -> Result<(), Usage> {
    let opts = serve_cli::parse_serve_client_args(args)?;
    serve_cli::run_serve_client(&opts).unwrap_or_else(|e| fail(e));
    Ok(())
}

/// `logs FILE [--level L] [--target PREFIX] [--follow] [--json]`: read a
/// binary journal written by `--log` and pretty-print it (or emit one
/// JSON object per record). `--follow` keeps polling for appended
/// records, surviving rotation.
fn main_logs(args: Vec<String>) -> Result<(), Usage> {
    let (o, files) = LOGS.parse(args, Opts::default())?;
    let file = &files[0];
    let path = std::path::Path::new(file);
    let keep = |r: &obs::log::OwnedRecord| {
        r.level as u8 >= o.level as u8
            && o.target.as_deref().is_none_or(|t| r.target.starts_with(t))
    };
    let print = |r: &obs::log::OwnedRecord| {
        if o.json_lines {
            println!("{}", r.to_json().to_json());
        } else {
            println!("{r}");
        }
    };

    if o.follow {
        // The tail starts at the header, so the first poll replays the
        // whole existing journal before settling into live updates.
        let mut tail = obs::log::JournalTail::open(path)
            .unwrap_or_else(|e| fail(format!("cannot open {file}: {e}")));
        loop {
            match tail.poll() {
                Ok((records, warning)) => {
                    for r in &records {
                        if keep(r) {
                            print(r);
                        }
                    }
                    if let Some(w) = warning {
                        eprintln!("warning: {file}: {w}");
                    }
                }
                // Rotation renames the file before recreating it; a poll
                // landing in that window just waits for the new one.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => fail(format!("{file}: {e}")),
            }
            std::thread::sleep(Duration::from_millis(200));
        }
    }

    let outcome =
        obs::log::read_journal(path).unwrap_or_else(|e| fail(format!("cannot read {file}: {e}")));
    let mut shown = 0usize;
    for r in &outcome.records {
        if keep(r) {
            print(r);
            shown += 1;
        }
    }
    if let Some(w) = outcome.warning {
        eprintln!("warning: {file}: {w}");
    }
    eprintln!("{file}: {shown} of {} records shown", outcome.records.len());
    Ok(())
}

/// `sweep --grid SPEC|@FILE --ckpt DIR [--jobs N] ...`: expand a
/// declarative parameter grid and run every cell on `--jobs` threads,
/// checkpointing each finished cell so an interrupted sweep resumes where
/// it left off. The merged report is byte-identical for every thread
/// count and any interrupt/resume split.
fn main_sweep(args: Vec<String>) -> Result<(), Usage> {
    let (o, _) = SWEEP.parse(args, Opts::default())?;
    let grid_arg = o.grid.clone().ok_or("sweep needs --grid")?;
    if o.dry_run && o.fresh {
        return Err("--dry-run and --fresh are mutually exclusive".into());
    }
    route_tables("--out", &o.out, &o.taps)?;
    let spec_text = match grid_arg.strip_prefix('@') {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read grid file {path}: {e}"))),
        None => grid_arg,
    };
    let grid = harness::GridSpec::parse(&spec_text, sized(RunParams::profile_default(), &o))?;
    if o.dry_run {
        print!("{}", harness::render_dry_run(&grid));
        return Ok(());
    }
    let ckpt = o.ckpt.clone().ok_or("sweep needs --ckpt (or --dry-run)")?;

    let jobs = o.jobs.unwrap_or_else(default_jobs);
    let taps = Taps::start(&o.taps).unwrap_or_else(|e| fail(e));
    obs::log::info(
        "harness.sweep",
        "sweep started",
        &[
            ("cells", obs::log::Value::from(grid.cell_count())),
            ("jobs", obs::log::Value::from(jobs)),
            ("seed", obs::log::Value::from(o.seed)),
        ],
    );
    let dir = std::path::Path::new(&ckpt);
    harness::prepare_dir(dir, &grid, o.fresh).unwrap_or_else(|e| fail(e));
    let completed = harness::sweep_parent(dir, &grid, jobs, taps.live())
        .unwrap_or_else(|e| fail(format!("sweep failed: {e}")));

    let (text, report) = harness::render_sweep(&grid, &completed, o.pareto, o.scale);
    out!("{}", text);
    if let Some(dest) = &o.out {
        write_out(dest, report.to_json_pretty());
    }
    obs::log::info(
        "harness.sweep",
        "sweep finished",
        &[("cells", obs::log::Value::from(completed.len()))],
    );
    taps.finish().unwrap_or_else(|e| fail(e));
    Ok(())
}

/// Converts in whichever direction the input's magic bytes call for.
fn convert_any(
    input: &str,
    output: &str,
) -> Result<tracefile::ConvertStats, Box<dyn std::error::Error>> {
    use std::io::{BufReader, BufWriter, Read};
    let mut head = [0u8; 8];
    let n = std::fs::File::open(input)?.read(&mut head)?;
    if n == 8 && head == tracefile::container::MAGIC {
        let mut r = tracefile::TraceReader::open(input)?;
        let mut w = BufWriter::new(std::fs::File::create(output)?);
        let stats = tracefile::binary_to_text(&mut r, &mut w)?;
        std::io::Write::flush(&mut w)?;
        Ok(stats)
    } else {
        let r = BufReader::new(std::fs::File::open(input)?);
        let mut w = tracefile::TraceWriter::create(output, tracefile::DEFAULT_CHUNK_CAP)?;
        let name = std::path::Path::new(input)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("trace")
            .to_string();
        let mut stats = tracefile::text_to_binary(r, &mut w, &name)?;
        w.finish()?;
        stats.binary_bytes = std::fs::metadata(output)?.len();
        Ok(stats)
    }
}

fn print_usage() {
    eprintln!(
        "usage: harness [--scale F] [--seed N] [--jobs N|-jN] [--json PATH|-]\n\
         \x20              [--trace-last N] [--timeline PATH]\n\
         \x20              [--live-metrics PATH|-] [--live-interval-ms N]\n\
         \x20              [--log PATH] [--log-level L] <experiment>...\n\
         \x20      harness record --out FILE [--scale F] [--seed N] <experiment>...\n\
         \x20      harness replay FILE [--json PATH|-] [--trace-last N]\n\
         \x20              [--log PATH] [--log-level L]\n\
         \x20      harness convert IN OUT\n\
         \x20      harness explain <fig13|fig16> [--scale F] [--seed N] [--jobs N|-jN]\n\
         \x20              [--json PATH|-] [--top N] [--dump-provenance]\n\
         \x20      harness export-metrics [--scale F] [--seed N] [--jobs N|-jN]\n\
         \x20              [--out PATH] <experiment>...\n\
         \x20      harness bench-diff OLD.json NEW.json [--threshold PCT] [--full]\n\
         \x20      harness serve (--socket PATH | --stdio | --selftest)\n\
         \x20              [--max-sessions N] [--queue-depth N] [--global-queue N]\n\
         \x20              [--scale F] [--seed N] [--log PATH] [--log-level L]\n\
         \x20      harness serve-client --socket PATH\n\
         \x20              [--trace FILE | --stream BENCH | --drift-probe]\n\
         \x20              [--session NAME] [--window N] [--warmup N] [--measure N]\n\
         \x20              [--scale F] [--seed N] [--corrupt-chunk N]\n\
         \x20              [--status] [--metrics] [--health] [--shutdown]\n\
         \x20      harness logs FILE [--level L] [--target PREFIX] [--follow] [--json]\n\
         \x20      harness sweep --grid SPEC|@FILE (--ckpt DIR | --dry-run)\n\
         \x20              [--jobs N|-jN] [--pareto] [--out PATH|-]\n\
         \x20              [--fresh] [--scale F] [--seed N] [--log PATH] [--log-level L]\n\
         \x20              [--live-metrics PATH|-] [--live-interval-ms N] [--timeline PATH]\n\
         experiments: fig1 fig8 fig9 fig10 fig12 fig13 fig16 fig18a fig18b\n\
         table2 fig19 ablate-queue ablate-filler ablate-confidence\n\
         ablate-depth prefetch limit all\n\
         --scale multiplies run sizes (finite and > 0, default 1)\n\
         --jobs runs experiment cells on N workers (default: all cores);\n\
         output is byte-identical for every worker count\n\
         --json writes a machine-readable run report (- for stdout)\n\
         --trace-last records pipeline events and dumps the final N\n\
         --timeline exports a Chrome trace-event timeline (open in Perfetto\n\
         or chrome://tracing): one track per worker, spans per cell\n\
         --live-metrics streams periodic delta-compressed NDJSON metric\n\
         snapshots while the run is going (- for stdout; tables move to\n\
         stderr); --live-interval-ms sets the period (default 250);\n\
         only one of --json/--out and --live-metrics may be -\n\
         record captures the instruction streams the named experiments\n\
         consume into a chunked, CRC-checked binary container; replay\n\
         re-runs them from the capture with identical results (always\n\
         single-worker); convert translates text traces to the container\n\
         and back (direction sniffed from the input's magic bytes);\n\
         explain re-runs a gdiff-vs-stride comparison with the prediction\n\
         provenance tap on and prints per-PC / distance / value-delay\n\
         offender tables (byte-identical for every --jobs value);\n\
         --dump-provenance includes the raw flight-recorder events;\n\
         export-metrics runs experiments and prints the merged registry\n\
         in Prometheus text format (stdout, or --out FILE);\n\
         bench-diff compares two --json run reports' experiments sections\n\
         and exits 3 when any metric moved more than --threshold percent\n\
         (default 5; --full lists unchanged metrics too);\n\
         serve runs the gdiff-serve/v2 prediction daemon on a Unix socket\n\
         (--stdio: one session over stdin/stdout; --selftest: record,\n\
         stream, and diff every benchmark against a one-shot run);\n\
         serve-client streams a recorded trace (--trace, one session per\n\
         stream) or a synthesized benchmark (--stream) to a daemon and\n\
         prints the final report JSON; --status/--metrics/--health/\n\
         --shutdown are daemon control requests; --drift-probe streams a\n\
         synthetic session that switches stride family mid-stream and\n\
         fails unless the daemon's drift detector catches it;\n\
         --corrupt-chunk flips one byte in chunk N before sending it\n\
         --log writes a structured binary journal of live events (admits,\n\
         kills, drift alarms, run milestones; rotated at 16 MiB) without\n\
         changing any deterministic output; --log-level gates it\n\
         (debug|info|warn|error, default info);\n\
         logs pretty-prints a journal (--json: one JSON object per\n\
         record; --follow: keep polling, surviving rotation);\n\
         sweep expands a declarative parameter grid (clauses like\n\
         'order=4,8;depth=1024,8192;threshold=0,4;delay=0,2;bench=all')\n\
         into one cell per (config x benchmark) and runs them on\n\
         --jobs threads; every finished cell is checkpointed\n\
         (CRC-framed) in the --ckpt directory, so a killed sweep re-run\n\
         with the same --ckpt resumes, skipping completed cells; the\n\
         merged tables/report are byte-identical for every thread\n\
         count and any interrupt/resume split; --pareto adds the\n\
         (gated accuracy x coverage vs table bits) frontier; --dry-run\n\
         prints the expansion without running; --fresh discards\n\
         checkpoints from a previous grid"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::serve_cli::{ServeClientOpts, ServeOpts, SERVE, SERVE_CLIENT};

    /// Checks a table against its own entries, so every flag added to any
    /// table is covered with no new test code: a value-taking flag with no
    /// value names itself and its hint, spellings are unique, an unknown
    /// flag names the subcommand, and `--help` is help.
    fn check_table<O>(cmd: &Command<O>, init: fn() -> O) {
        let parse = |args: &[&str]| {
            cmd.parse(args.iter().map(|s| s.to_string()).collect(), init())
                .map(|_| ())
        };
        let mut seen = std::collections::HashSet::new();
        for flag in cmd.flags {
            for &name in flag.0 {
                assert!(seen.insert(name), "{name} appears twice in `{}`", cmd.name);
                if let Some(hint) = flag.hint() {
                    let msg = format!("{name} needs a value ({hint})");
                    assert_eq!(parse(&[name]), Err(Usage::Error(msg)));
                }
            }
        }
        let unknown = match cmd.name {
            "" => "unknown option: --bogus".to_string(),
            name => format!("unknown {name} option: --bogus"),
        };
        assert_eq!(parse(&["--bogus"]), Err(Usage::Error(unknown)));
        assert_eq!(parse(&["--help"]), Err(Usage::Help));
        assert_eq!(parse(&["-h"]), Err(Usage::Help));
    }

    #[test]
    fn every_flag_table_rejects_and_helps_uniformly() {
        for cmd in [
            &RUN,
            &RECORD,
            &REPLAY,
            &CONVERT,
            &EXPLAIN,
            &EXPORT_METRICS,
            &BENCH_DIFF,
            &LOGS,
            &SWEEP,
        ] {
            check_table(cmd, Opts::default);
        }
        check_table(&SERVE, ServeOpts::default);
        check_table(&SERVE_CLIENT, ServeClientOpts::default);
    }

    #[test]
    fn jobs_is_one_definition_on_every_subcommand_that_takes_it() {
        for cmd in [&RUN, &EXPLAIN, &EXPORT_METRICS, &SWEEP] {
            for args in [&["-j3"][..], &["-j", "3"], &["--jobs", "3"]] {
                let mut owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
                if let Positionals::Exactly(n, _) = cmd.positionals {
                    owned.extend((0..n).map(|_| "x".to_string()));
                }
                let (o, _) = cmd.parse(owned, Opts::default()).unwrap();
                assert_eq!(o.jobs, Some(3), "`{}` {args:?}", cmd.name);
            }
        }
    }
}
