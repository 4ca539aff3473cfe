//! Experiment driver: `cargo run -p harness --release -- <experiment>`.
//!
//! Experiments: fig1 fig8 fig9 fig10 fig12 fig13 fig16 fig18a fig18b
//! table2 fig19 ablate-queue ablate-filler ablate-confidence all
//!
//! Options: `--scale <f>` multiplies run sizes (default 1.0),
//! `--seed <n>` sets the workload seed (default 42),
//! `--jobs <n>` / `-j<n>` sets the worker count (default: all cores);
//! output is byte-identical for every worker count,
//! `--json <path|->` writes a machine-readable run report,
//! `--trace-last <n>` records pipeline trace events and dumps the last n,
//! `--timeline <path>` exports a Chrome trace-event timeline of the run,
//! `--live-metrics <path|->` streams periodic NDJSON metric snapshots.
//!
//! Subcommands: `record --out <file> <experiment>...` captures the
//! instruction streams the named experiments consume into a binary trace
//! container; `replay <file>` re-runs those experiments from the capture
//! (same numbers, no synthesis); `convert <in> <out>` translates between
//! the text trace format and the binary container (direction sniffed from
//! the input's magic bytes); `export-metrics <experiment>...` runs
//! experiments and prints the merged registry in Prometheus text format;
//! `bench-diff <old.json> <new.json>` compares two run reports and fails
//! past a regression threshold; `serve` runs the `gdiff-serve/v1`
//! multi-session prediction daemon (Unix socket, `--stdio`, or
//! `--selftest`); `serve-client` streams a trace or synthesized benchmark
//! to a running daemon and prints the returned report; `logs` reads and
//! pretty-prints the structured binary journal that `--log` writes.

use harness::cells::{plan_for, ALL_EXPERIMENTS};
use harness::record::{open_replay, record};
use harness::report::{RunReport, Table};
use harness::sched::{default_jobs, run_plans, run_plans_live};
use harness::serve_cli;
use harness::RunParams;
use obs::trace::tracer;
use obs::{JsonValue, Registry, Sampler, SharedRegistry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use workloads::{SyntheticSource, TraceSource};

/// Set when the JSON report goes to stdout (`--json -`): the human-readable
/// tables move to stderr so stdout stays parseable.
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

macro_rules! outln {
    ($($t:tt)*) => {
        if TABLES_TO_STDERR.load(Ordering::Relaxed) {
            eprintln!($($t)*)
        } else {
            println!($($t)*)
        }
    };
}

/// Command-line options, parsed without panicking.
struct Options {
    scale: f64,
    seed: u64,
    /// `--jobs <n>` / `-j<n>`; `None` means one worker per core.
    jobs: Option<usize>,
    /// `--json <path>`; `-` means stdout.
    json: Option<String>,
    /// `--trace-last <n>`: ring capacity and dump size.
    trace_last: Option<usize>,
    /// `--timeline <path>`: Chrome trace-event JSON destination.
    timeline: Option<String>,
    /// `--live-metrics <path>`; `-` means stdout (tables move to stderr).
    live_metrics: Option<String>,
    /// `--live-interval-ms <n>`: snapshot period for `--live-metrics`.
    live_interval_ms: u64,
    /// `--log <path>`: structured journal destination (live-only).
    log: Option<String>,
    /// `--log-level <level>`: minimum journal level (default info).
    log_level: obs::log::Level,
    experiments: Vec<String>,
}

/// Parses the argument list. On error, returns the message to print before
/// usage + exit 2.
fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut opts = Options {
        scale: 1.0,
        seed: 42,
        jobs: None,
        json: None,
        trace_last: None,
        timeline: None,
        live_metrics: None,
        live_interval_ms: 250,
        log: None,
        log_level: obs::log::Level::Info,
        experiments: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => opts.scale = parse_value(&a, it.next())?,
            "--seed" => opts.seed = parse_value(&a, it.next())?,
            "--trace-last" => opts.trace_last = Some(parse_trace_last(&a, it.next())?),
            "--jobs" | "-j" => opts.jobs = Some(parse_jobs(&a, it.next())?),
            "--json" => {
                opts.json = Some(
                    it.next()
                        .ok_or_else(|| format!("{a} needs a value (a path or -)"))?,
                )
            }
            "--timeline" => {
                opts.timeline = Some(
                    it.next()
                        .ok_or_else(|| format!("{a} needs a value (a file path)"))?,
                )
            }
            "--live-metrics" => {
                opts.live_metrics = Some(
                    it.next()
                        .ok_or_else(|| format!("{a} needs a value (a path or -)"))?,
                )
            }
            "--live-interval-ms" => opts.live_interval_ms = parse_interval_ms(&a, it.next())?,
            "--log" => {
                opts.log = Some(
                    it.next()
                        .ok_or_else(|| format!("{a} needs a value (a journal path)"))?,
                )
            }
            "--log-level" => opts.log_level = parse_level(&a, it.next())?,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => return Err(format!("unknown option: {other}")),
            // Attached worker count: -j4.
            other if other.starts_with("-j") => {
                opts.jobs = Some(parse_jobs("-j", Some(other[2..].to_string()))?)
            }
            other if other.starts_with('-') => return Err(format!("unknown option: {other}")),
            other => opts.experiments.push(other.to_string()),
        }
    }
    Ok(opts)
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: invalid value '{v}'"))
}

fn parse_jobs(flag: &str, value: Option<String>) -> Result<usize, String> {
    let n: usize = parse_value(flag, value)?;
    if n == 0 {
        return Err(format!("{flag}: worker count must be at least 1"));
    }
    Ok(n)
}

fn parse_trace_last(flag: &str, value: Option<String>) -> Result<usize, String> {
    let n: usize = parse_value(flag, value)?;
    if n == 0 {
        return Err(format!("{flag}: event count must be at least 1"));
    }
    Ok(n)
}

fn parse_interval_ms(flag: &str, value: Option<String>) -> Result<u64, String> {
    let n: u64 = parse_value(flag, value)?;
    if n == 0 {
        return Err(format!("{flag}: interval must be at least 1 ms"));
    }
    Ok(n)
}

fn parse_level(flag: &str, value: Option<String>) -> Result<obs::log::Level, String> {
    serve_cli::parse_level(flag, value)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => {
            args.remove(0);
            main_record(args)
        }
        Some("replay") => {
            args.remove(0);
            main_replay(args)
        }
        Some("convert") => {
            args.remove(0);
            main_convert(args)
        }
        Some("explain") => {
            args.remove(0);
            main_explain(args)
        }
        Some("export-metrics") => {
            args.remove(0);
            main_export_metrics(args)
        }
        Some("bench-diff") => {
            args.remove(0);
            main_bench_diff(args)
        }
        Some("serve") => {
            args.remove(0);
            main_serve(args)
        }
        Some("serve-client") => {
            args.remove(0);
            main_serve_client(args)
        }
        Some("logs") => {
            args.remove(0);
            main_logs(args)
        }
        Some("sweep") => {
            args.remove(0);
            main_sweep(args)
        }
        Some("sweep-worker") => {
            args.remove(0);
            main_sweep_worker(args)
        }
        _ => main_run(args),
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    print_usage();
    std::process::exit(2);
}

/// Expands `all` and validates every experiment name up front so a typo
/// late in the list doesn't discard an hour of completed experiments.
fn select_experiments(named: &[String]) -> Vec<String> {
    if named.is_empty() {
        usage_error("no experiment named");
    }
    let selected: Vec<String> = if named.iter().any(|e| e == "all") {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        named.to_vec()
    };
    for exp in &selected {
        if !ALL_EXPERIMENTS.contains(&exp.as_str()) {
            usage_error(&format!("unknown experiment: {exp}"));
        }
    }
    selected
}

fn main_run(args: Vec<String>) {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                // --help
                print_usage();
                return;
            }
            usage_error(&msg);
        }
    };
    if opts.json.as_deref() == Some("-") || opts.live_metrics.as_deref() == Some("-") {
        TABLES_TO_STDERR.store(true, Ordering::Relaxed);
    }
    let selected = select_experiments(&opts.experiments);
    let mut profile = RunParams::profile_default().scaled(opts.scale);
    let mut pipelinep = RunParams::pipeline_default().scaled(opts.scale);
    profile.seed = opts.seed;
    pipelinep.seed = opts.seed;
    let source = SyntheticSource::new(opts.seed);
    execute(Execution {
        source: &source,
        selected: &selected,
        profile,
        pipeline: pipelinep,
        seed: opts.seed,
        scale: opts.scale,
        jobs: opts.jobs.unwrap_or_else(default_jobs),
        json: opts.json,
        trace_last: opts.trace_last,
        timeline: opts.timeline,
        live_metrics: opts.live_metrics,
        live_interval_ms: opts.live_interval_ms,
        log: opts.log,
        log_level: opts.log_level,
        sections: Vec::new(),
    });
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
    json: Option<String>,
    trace_last: Option<usize>,
    /// `--timeline`: Chrome trace-event JSON destination.
    timeline: Option<String>,
    /// `--live-metrics`: NDJSON snapshot stream destination (`-`: stdout).
    live_metrics: Option<String>,
    /// Snapshot period for `--live-metrics`.
    live_interval_ms: u64,
    /// `--log`: structured journal destination. Live-only: the tables,
    /// the `--json` report, and replay outputs are byte-identical with
    /// the journal on or off.
    log: Option<String>,
    /// Minimum journal level for `--log`.
    log_level: obs::log::Level,
    /// Extra report sections (e.g. replay's tracefile metrics).
    sections: Vec<(String, JsonValue)>,
}

/// Event capacity of the `--timeline` buffer: a full `all -j8` run emits
/// a few hundred coarse events, so 64Ki leaves generous headroom while
/// bounding a runaway run to ~10 MB of JSON.
const TIMELINE_CAPACITY: usize = 64 * 1024;

/// Snapshot ring size for `--live-metrics` (the stream itself is
/// unbounded; the ring only backs the end-of-run summary counts).
const LIVE_RING_CAP: usize = 1024;

fn execute(x: Execution<'_>) {
    let journal =
        match serve_cli::enable_journal(x.log.as_deref().map(std::path::Path::new), x.log_level) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
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
    if let Some(n) = x.trace_last {
        tracer().enable(n.max(1));
    }
    if x.timeline.is_some() {
        obs::timeline::enable(TIMELINE_CAPACITY);
        obs::timeline::set_thread_name("main");
    }
    // Live telemetry rides beside the deterministic outputs: workers merge
    // finished cells into this shared registry in completion order, and the
    // sampler streams delta snapshots; none of it feeds back into `master`.
    let live = x.live_metrics.as_ref().map(|_| SharedRegistry::new());
    let sampler = x.live_metrics.as_ref().map(|dest| {
        let writer: Box<dyn std::io::Write + Send> = if dest == "-" {
            Box::new(std::io::stdout())
        } else {
            match std::fs::File::create(dest) {
                Ok(f) => Box::new(f),
                Err(e) => {
                    eprintln!("error: cannot write {dest}: {e}");
                    std::process::exit(1);
                }
            }
        };
        Sampler::start(
            live.clone().expect("live registry exists"),
            Duration::from_millis(x.live_interval_ms),
            LIVE_RING_CAP,
            Some(writer),
        )
    });

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
    let cells = run_plans_live(plans, x.jobs, &mut master, live.as_ref(), |res| {
        out!("{}", res.text);
        eprintln!("[{} took {:.1}s]\n", res.name, res.busy.as_secs_f64());
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

    // Timeline teardown happens before the sampler's final snapshot so a
    // ring overflow surfaces in the live stream (`timeline.dropped_events`)
    // as well as the journal — not just in a stderr afterthought.
    if let Some(dest) = &x.timeline {
        obs::timeline::disable();
        let dropped = obs::timeline::dropped();
        if dropped > 0 {
            obs::log::warn(
                "harness.timeline",
                "timeline ring overflowed; events dropped",
                &[("dropped", obs::log::Value::from(dropped))],
            );
            if let Some(live) = &live {
                live.with(|r| {
                    let g = r.gauge("timeline.dropped_events");
                    r.set_gauge(g, dropped as f64);
                });
            }
        }
        let text = obs::timeline::export().to_json();
        if let Err(e) = std::fs::write(dest, text + "\n") {
            eprintln!("error: cannot write {dest}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "timeline: {} events ({dropped} dropped) -> {dest}",
            obs::timeline::recorded(),
        );
    }
    if let Some(sampler) = sampler {
        let log = sampler.stop();
        if !log.stream_ok {
            eprintln!("warning: live-metrics stream write failed");
        }
        eprintln!(
            "live-metrics: {} snapshots ({} beyond the ring)",
            log.taken, log.dropped
        );
    }

    if let Some(n) = x.trace_last {
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

    if let Some(dest) = &x.json {
        let text = report.finish().to_json_pretty();
        if dest == "-" {
            println!("{text}");
        } else if let Err(e) = std::fs::write(dest, text + "\n") {
            eprintln!("error: cannot write {dest}: {e}");
            std::process::exit(1);
        }
    }

    obs::log::info(
        "harness.run",
        "run finished",
        &[("cells", obs::log::Value::from(cells as u64))],
    );
    if let Some(path) = journal {
        let records = obs::log::recorded();
        let write_errors = obs::log::disable();
        eprintln!("journal: {records} records -> {}", path.display());
        if write_errors > 0 {
            eprintln!(
                "warning: journal {}: {write_errors} write errors",
                path.display()
            );
        }
    }
}

fn main_record(args: Vec<String>) {
    let mut out: Option<String> = None;
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut experiments = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out = Some(match it.next() {
                    Some(v) => v,
                    None => usage_error("--out needs a value (a file path)"),
                })
            }
            "--scale" => match parse_value(&a, it.next()) {
                Ok(v) => scale = v,
                Err(m) => usage_error(&m),
            },
            "--seed" => match parse_value(&a, it.next()) {
                Ok(v) => seed = v,
                Err(m) => usage_error(&m),
            },
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if other.starts_with('-') => {
                usage_error(&format!("unknown record option: {other}"))
            }
            other => experiments.push(other.to_string()),
        }
    }
    let Some(out) = out else {
        usage_error("record needs --out FILE");
    };
    let selected = select_experiments(&experiments);
    let mut profile = RunParams::profile_default().scaled(scale);
    let mut pipelinep = RunParams::pipeline_default().scaled(scale);
    profile.seed = seed;
    pipelinep.seed = seed;

    let mut registry = Registry::new();
    let rep = match record(&out, &selected, profile, pipelinep, scale, &mut registry) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot record {out}: {e}");
            std::process::exit(1);
        }
    };
    let mut t = Table::new(
        format!("Recorded {out} (seed {seed}, scale {scale})"),
        &["benchmark", "instructions"],
    );
    for (bench, n) in &rep.per_bench {
        t.row(vec![bench.to_string(), n.to_string()]);
    }
    t.row(vec!["total".into(), rep.records.to_string()]);
    out!("{}", t.render());
    outln!(
        "container: {} bytes ({:.2} bytes/inst, {:.1}x smaller than text)",
        rep.binary_bytes,
        rep.bytes_per_inst(),
        rep.compression_vs_text()
    );
    outln!(
        "encode: {:.0} inst/s, {:.1} MiB/s",
        rep.insts_per_sec,
        rep.mib_per_sec
    );
}

fn main_replay(args: Vec<String>) {
    let mut file: Option<String> = None;
    let mut json: Option<String> = None;
    let mut trace_last: Option<usize> = None;
    let mut log: Option<String> = None;
    let mut log_level = obs::log::Level::Info;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                json = Some(match it.next() {
                    Some(v) => v,
                    None => usage_error("--json needs a value (a path or -)"),
                })
            }
            "--trace-last" => match parse_trace_last(&a, it.next()) {
                Ok(v) => trace_last = Some(v),
                Err(m) => usage_error(&m),
            },
            "--log" => {
                log = Some(match it.next() {
                    Some(v) => v,
                    None => usage_error("--log needs a value (a journal path)"),
                })
            }
            "--log-level" => match parse_level(&a, it.next()) {
                Ok(v) => log_level = v,
                Err(m) => usage_error(&m),
            },
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if other.starts_with('-') => {
                usage_error(&format!("unknown replay option: {other}"))
            }
            other if file.is_none() => file = Some(other.to_string()),
            other => usage_error(&format!("unexpected argument: {other}")),
        }
    }
    let Some(file) = file else {
        usage_error("replay needs a trace file");
    };
    if json.as_deref() == Some("-") {
        TABLES_TO_STDERR.store(true, Ordering::Relaxed);
    }

    let mut registry = Registry::new();
    let plan = match open_replay(&file, &mut registry) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot replay {file}: {e}");
            std::process::exit(1);
        }
    };
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
        json,
        trace_last,
        timeline: None,
        live_metrics: None,
        live_interval_ms: 250,
        log,
        log_level,
        sections: vec![("tracefile".to_string(), registry.to_json())],
    });
}

fn main_explain(args: Vec<String>) {
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut jobs: Option<usize> = None;
    let mut json: Option<String> = None;
    let mut top = harness::explain::DEFAULT_TOP;
    let mut dump = false;
    let mut exp: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => match parse_value(&a, it.next()) {
                Ok(v) => scale = v,
                Err(m) => usage_error(&m),
            },
            "--seed" => match parse_value(&a, it.next()) {
                Ok(v) => seed = v,
                Err(m) => usage_error(&m),
            },
            "--top" => match parse_value(&a, it.next()) {
                Ok(v) => top = v,
                Err(m) => usage_error(&m),
            },
            "--jobs" | "-j" => match parse_jobs(&a, it.next()) {
                Ok(v) => jobs = Some(v),
                Err(m) => usage_error(&m),
            },
            "--json" => {
                json = Some(match it.next() {
                    Some(v) => v,
                    None => usage_error("--json needs a value (a path or -)"),
                })
            }
            "--dump-provenance" => dump = true,
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if other.starts_with("-j") && other.len() > 2 => {
                match parse_jobs("-j", Some(other[2..].to_string())) {
                    Ok(v) => jobs = Some(v),
                    Err(m) => usage_error(&m),
                }
            }
            other if other.starts_with('-') => {
                usage_error(&format!("unknown explain option: {other}"))
            }
            other if exp.is_none() => exp = Some(other.to_string()),
            other => usage_error(&format!("unexpected argument: {other}")),
        }
    }
    let Some(exp) = exp else {
        usage_error("explain needs an experiment (fig13 or fig16)");
    };
    if json.as_deref() == Some("-") {
        TABLES_TO_STDERR.store(true, Ordering::Relaxed);
    }

    let mut params = RunParams::pipeline_default().scaled(scale);
    params.seed = seed;
    let source = SyntheticSource::new(seed);
    let Some(plan) = harness::explain_plan(&exp, &source, params, top, dump) else {
        usage_error(&format!(
            "explain supports {}, not {exp}",
            harness::EXPLAIN_EXPERIMENTS.join(" and ")
        ));
    };

    let mut master = Registry::new();
    let mut section: Option<JsonValue> = None;
    run_plans(
        vec![plan],
        jobs.unwrap_or_else(default_jobs),
        &mut master,
        |res| {
            out!("{}", res.text);
            eprintln!("[{} took {:.1}s]\n", res.name, res.busy.as_secs_f64());
            section = Some(res.json);
        },
    );

    if let Some(dest) = &json {
        // The explain report carries no timing/scheduler sections by
        // design: every byte is worker-count invariant.
        let root = JsonValue::object()
            .with("schema", harness::explain::SCHEMA)
            .with("experiment", exp)
            .with("seed", seed)
            .with("scale", scale)
            .with("explain", section.take().expect("one plan emitted"));
        let text = root.to_json_pretty();
        if dest == "-" {
            println!("{text}");
        } else if let Err(e) = std::fs::write(dest, text + "\n") {
            eprintln!("error: cannot write {dest}: {e}");
            std::process::exit(1);
        }
    }
}

fn main_convert(args: Vec<String>) {
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    if positional.len() != 2 || args.len() != 2 {
        usage_error("convert takes exactly: convert IN OUT");
    }
    let (input, output) = (positional[0].clone(), positional[1].clone());
    match convert_any(&input, &output) {
        Ok(stats) => outln!(
            "converted {} instructions: {} text bytes <-> {} binary bytes",
            stats.records,
            stats.text_bytes,
            stats.binary_bytes
        ),
        Err(e) => {
            eprintln!("error: cannot convert {input}: {e}");
            std::process::exit(1);
        }
    }
}

/// `export-metrics`: run experiments and print the merged registry (plus
/// the span table) in Prometheus text exposition format. Tables go to
/// stderr; stdout carries only the exposition so it pipes cleanly into
/// scrape tooling — the same rendering a future serve daemon's `/metrics`
/// endpoint will return.
fn main_export_metrics(args: Vec<String>) {
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut jobs: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut experiments = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => match parse_value(&a, it.next()) {
                Ok(v) => scale = v,
                Err(m) => usage_error(&m),
            },
            "--seed" => match parse_value(&a, it.next()) {
                Ok(v) => seed = v,
                Err(m) => usage_error(&m),
            },
            "--jobs" | "-j" => match parse_jobs(&a, it.next()) {
                Ok(v) => jobs = Some(v),
                Err(m) => usage_error(&m),
            },
            "--out" => {
                out = Some(match it.next() {
                    Some(v) => v,
                    None => usage_error("--out needs a value (a file path)"),
                })
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if other.starts_with("-j") && other.len() > 2 => {
                match parse_jobs("-j", Some(other[2..].to_string())) {
                    Ok(v) => jobs = Some(v),
                    Err(m) => usage_error(&m),
                }
            }
            other if other.starts_with('-') => {
                usage_error(&format!("unknown export-metrics option: {other}"))
            }
            other => experiments.push(other.to_string()),
        }
    }
    // Stdout is the exposition; everything human-readable moves aside.
    TABLES_TO_STDERR.store(true, Ordering::Relaxed);
    let selected = select_experiments(&experiments);
    let mut profile = RunParams::profile_default().scaled(scale);
    let mut pipelinep = RunParams::pipeline_default().scaled(scale);
    profile.seed = seed;
    pipelinep.seed = seed;
    let source = SyntheticSource::new(seed);
    let plans = selected
        .iter()
        .map(|exp| plan_for(exp, &source, profile, pipelinep))
        .collect();
    let mut master = Registry::new();
    run_plans(
        plans,
        jobs.unwrap_or_else(default_jobs),
        &mut master,
        |res| {
            out!("{}", res.text);
            eprintln!("[{} took {:.1}s]\n", res.name, res.busy.as_secs_f64());
        },
    );
    let text = obs::expose::prometheus(&master, &obs::span::snapshot());
    match &out {
        Some(dest) => {
            if let Err(e) = std::fs::write(dest, &text) {
                eprintln!("error: cannot write {dest}: {e}");
                std::process::exit(1);
            }
        }
        None => print!("{text}"),
    }
}

/// `bench-diff`: compare the `experiments` sections of two run reports,
/// print per-metric deltas, and exit 3 when any metric moved more than
/// the threshold — the regression gate behind committed `BENCH_*.json`
/// snapshots.
fn main_bench_diff(args: Vec<String>) {
    let mut threshold = harness::DEFAULT_THRESHOLD_PCT;
    let mut full = false;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => match parse_value::<f64>(&a, it.next()) {
                Ok(v) if v.is_finite() && v >= 0.0 => threshold = v,
                Ok(_) => usage_error("--threshold: must be a finite, non-negative percentage"),
                Err(m) => usage_error(&m),
            },
            "--full" => full = true,
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if other.starts_with('-') => {
                usage_error(&format!("unknown bench-diff option: {other}"))
            }
            other => files.push(other.to_string()),
        }
    }
    if files.len() != 2 {
        usage_error("bench-diff takes exactly: bench-diff OLD.json NEW.json");
    }
    let load = |path: &str| -> JsonValue {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        match JsonValue::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {path} is not valid JSON: {e}");
                std::process::exit(1);
            }
        }
    };
    let old = load(&files[0]);
    let new = load(&files[1]);
    let diff = match harness::diff_reports(&old, &new, threshold) {
        Ok(d) => d,
        Err(m) => {
            eprintln!("error: {m}");
            std::process::exit(1);
        }
    };
    print!("{}", diff.render(full));
    let breaches = diff.breaches();
    if breaches.is_empty() {
        println!(
            "OK: {} metrics within {:.2}% of {}",
            diff.rows.len(),
            threshold,
            files[0]
        );
    } else {
        println!(
            "FAIL: {} of {} metrics moved more than {:.2}%",
            breaches.len(),
            diff.rows.len(),
            threshold
        );
        std::process::exit(3);
    }
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

fn main_serve(args: Vec<String>) {
    let opts = match serve_cli::parse_serve_args(args) {
        Ok(o) => o,
        Err(msg) if msg.is_empty() => {
            print_usage();
            return;
        }
        Err(msg) => usage_error(&msg),
    };
    if let Err(e) = serve_cli::run_serve(&opts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn main_serve_client(args: Vec<String>) {
    let opts = match serve_cli::parse_serve_client_args(args) {
        Ok(o) => o,
        Err(msg) if msg.is_empty() => {
            print_usage();
            return;
        }
        Err(msg) => usage_error(&msg),
    };
    if let Err(e) = serve_cli::run_serve_client(&opts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// `logs FILE [--level L] [--target PREFIX] [--follow] [--json]`: read a
/// binary journal written by `--log` and pretty-print it (or emit one
/// JSON object per record). `--follow` keeps polling for appended
/// records, surviving rotation.
fn main_logs(args: Vec<String>) {
    let mut file: Option<String> = None;
    let mut level = obs::log::Level::Debug;
    let mut target: Option<String> = None;
    let mut follow = false;
    let mut json = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--level" => match parse_level(&a, it.next()) {
                Ok(v) => level = v,
                Err(m) => usage_error(&m),
            },
            "--target" => {
                target = Some(match it.next() {
                    Some(v) => v,
                    None => usage_error("--target needs a value (a target prefix)"),
                })
            }
            "--follow" | "-f" => follow = true,
            "--json" => json = true,
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if other.starts_with('-') => {
                usage_error(&format!("unknown logs option: {other}"))
            }
            other if file.is_none() => file = Some(other.to_string()),
            other => usage_error(&format!("unexpected argument: {other}")),
        }
    }
    let Some(file) = file else {
        usage_error("logs needs a journal file");
    };
    let path = std::path::Path::new(&file);
    let keep = |r: &obs::log::OwnedRecord| {
        r.level as u8 >= level as u8 && target.as_deref().is_none_or(|t| r.target.starts_with(t))
    };
    let print = |r: &obs::log::OwnedRecord| {
        if json {
            println!("{}", r.to_json().to_json());
        } else {
            println!("{r}");
        }
    };

    if follow {
        // The tail starts at the header, so the first poll replays the
        // whole existing journal before settling into live updates.
        let mut tail = match obs::log::JournalTail::open(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot open {file}: {e}");
                std::process::exit(1);
            }
        };
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
                Err(e) => {
                    eprintln!("error: {file}: {e}");
                    std::process::exit(1);
                }
            }
            std::thread::sleep(Duration::from_millis(200));
        }
    }

    let outcome = match obs::log::read_journal(path) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            std::process::exit(1);
        }
    };
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
}

/// `sweep --grid SPEC|@FILE --ckpt DIR [--workers N] [--jobs N] ...`:
/// expand a declarative parameter grid and run every cell across worker
/// processes, checkpointing each finished cell so an interrupted sweep
/// resumes where it left off. The merged report is byte-identical for
/// every worker/thread count and any interrupt/resume split.
fn main_sweep(args: Vec<String>) {
    let mut grid_arg: Option<String> = None;
    let mut ckpt: Option<String> = None;
    let mut workers: usize = 1;
    let mut jobs: Option<usize> = None;
    let mut pareto = false;
    let mut dry_run = false;
    let mut fresh = false;
    let mut out: Option<String> = None;
    let mut scale = 1.0f64;
    let mut seed = 42u64;
    let mut log: Option<String> = None;
    let mut log_level = obs::log::Level::Info;
    let mut live_metrics: Option<String> = None;
    let mut live_interval_ms = 250u64;
    let mut timeline: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--grid" => {
                grid_arg = Some(match it.next() {
                    Some(v) => v,
                    None => usage_error("--grid needs a value (a spec or @FILE)"),
                })
            }
            "--ckpt" => {
                ckpt = Some(match it.next() {
                    Some(v) => v,
                    None => usage_error("--ckpt needs a value (a directory)"),
                })
            }
            "--workers" => match parse_jobs(&a, it.next()) {
                Ok(v) => workers = v,
                Err(m) => usage_error(&m),
            },
            "--jobs" => match parse_jobs(&a, it.next()) {
                Ok(v) => jobs = Some(v),
                Err(m) => usage_error(&m),
            },
            "--pareto" => pareto = true,
            "--dry-run" => dry_run = true,
            "--fresh" => fresh = true,
            "--out" => {
                out = Some(match it.next() {
                    Some(v) => v,
                    None => usage_error("--out needs a value (a path or -)"),
                })
            }
            "--scale" => match parse_value(&a, it.next()) {
                Ok(v) => scale = v,
                Err(m) => usage_error(&m),
            },
            "--seed" => match parse_value(&a, it.next()) {
                Ok(v) => seed = v,
                Err(m) => usage_error(&m),
            },
            "--log" => {
                log = Some(match it.next() {
                    Some(v) => v,
                    None => usage_error("--log needs a value (a path)"),
                })
            }
            "--log-level" => match parse_level(&a, it.next()) {
                Ok(v) => log_level = v,
                Err(m) => usage_error(&m),
            },
            "--live-metrics" => {
                live_metrics = Some(match it.next() {
                    Some(v) => v,
                    None => usage_error("--live-metrics needs a value (a path or -)"),
                })
            }
            "--live-interval-ms" => match parse_interval_ms(&a, it.next()) {
                Ok(v) => live_interval_ms = v,
                Err(m) => usage_error(&m),
            },
            "--timeline" => {
                timeline = Some(match it.next() {
                    Some(v) => v,
                    None => usage_error("--timeline needs a value (a path)"),
                })
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => usage_error(&format!("unknown sweep option: {other}")),
        }
    }
    let Some(grid_arg) = grid_arg else {
        usage_error("sweep needs --grid");
    };
    if dry_run && fresh {
        usage_error("--dry-run and --fresh are mutually exclusive");
    }
    let spec_text = if let Some(path) = grid_arg.strip_prefix('@') {
        match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read grid file {path}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        grid_arg
    };
    let mut base = RunParams::profile_default().scaled(scale);
    base.seed = seed;
    let grid = match harness::GridSpec::parse(&spec_text, base) {
        Ok(g) => g,
        Err(m) => usage_error(&m),
    };
    if dry_run {
        print!("{}", harness::render_dry_run(&grid));
        return;
    }
    let Some(ckpt) = ckpt else {
        usage_error("sweep needs --ckpt (or --dry-run)");
    };
    if out.as_deref() == Some("-") || live_metrics.as_deref() == Some("-") {
        TABLES_TO_STDERR.store(true, Ordering::Relaxed);
    }

    let journal =
        match serve_cli::enable_journal(log.as_deref().map(std::path::Path::new), log_level) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
    if timeline.is_some() {
        obs::timeline::enable(TIMELINE_CAPACITY);
        obs::timeline::set_thread_name("main");
    }
    let live = live_metrics.as_ref().map(|_| SharedRegistry::new());
    let sampler = live_metrics.as_ref().map(|dest| {
        let writer: Box<dyn std::io::Write + Send> = if dest == "-" {
            Box::new(std::io::stdout())
        } else {
            match std::fs::File::create(dest) {
                Ok(f) => Box::new(f),
                Err(e) => {
                    eprintln!("error: cannot write {dest}: {e}");
                    std::process::exit(1);
                }
            }
        };
        Sampler::start(
            live.clone().expect("live registry exists"),
            Duration::from_millis(live_interval_ms),
            LIVE_RING_CAP,
            Some(writer),
        )
    });
    obs::log::info(
        "harness.sweep",
        "sweep started",
        &[
            ("cells", obs::log::Value::from(grid.cell_count())),
            ("workers", obs::log::Value::from(workers)),
            ("seed", obs::log::Value::from(seed)),
        ],
    );

    let dir = std::path::Path::new(&ckpt);
    if let Err(e) = harness::prepare_dir(dir, &grid, fresh) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    // Each worker process gets an even share of the machine unless --jobs
    // pins its thread count explicitly.
    let jobs = jobs.unwrap_or_else(|| (default_jobs() / workers).max(1));
    let completed = match harness::sweep_parent(dir, &grid, workers, jobs, live.as_ref()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: sweep failed: {e}");
            std::process::exit(1);
        }
    };

    let (text, report) = harness::render_sweep(&grid, &completed, pareto, scale);
    out!("{}", text);
    if let Some(dest) = &out {
        let text = report.to_json_pretty();
        if dest == "-" {
            println!("{text}");
        } else if let Err(e) = std::fs::write(dest, text + "\n") {
            eprintln!("error: cannot write {dest}: {e}");
            std::process::exit(1);
        }
    }

    if let Some(dest) = &timeline {
        obs::timeline::disable();
        let text = obs::timeline::export().to_json();
        if let Err(e) = std::fs::write(dest, text + "\n") {
            eprintln!("error: cannot write {dest}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "timeline: {} events ({} dropped) -> {dest}",
            obs::timeline::recorded(),
            obs::timeline::dropped(),
        );
    }
    if let Some(sampler) = sampler {
        let log = sampler.stop();
        if !log.stream_ok {
            eprintln!("warning: live-metrics stream write failed");
        }
        eprintln!(
            "live-metrics: {} snapshots ({} beyond the ring)",
            log.taken, log.dropped
        );
    }
    obs::log::info(
        "harness.sweep",
        "sweep finished",
        &[("cells", obs::log::Value::from(completed.len()))],
    );
    if let Some(path) = journal {
        let records = obs::log::recorded();
        let write_errors = obs::log::disable();
        eprintln!("journal: {records} records -> {}", path.display());
        if write_errors > 0 {
            eprintln!(
                "warning: journal {}: {write_errors} write errors",
                path.display()
            );
        }
    }
}

/// Hidden child-process entry point: `sweep-worker --ckpt DIR --worker K
/// --workers W --jobs J`. Spawned by `sweep`; everything it needs is in
/// the checkpoint directory. Exits when its parent dies (stdin EOF).
fn main_sweep_worker(args: Vec<String>) {
    let mut ckpt: Option<String> = None;
    let mut worker: Option<u32> = None;
    let mut workers: Option<u32> = None;
    let mut jobs = 1usize;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ckpt" => {
                ckpt = Some(match it.next() {
                    Some(v) => v,
                    None => usage_error("--ckpt needs a value (a directory)"),
                })
            }
            "--worker" => match parse_value(&a, it.next()) {
                Ok(v) => worker = Some(v),
                Err(m) => usage_error(&m),
            },
            "--workers" => match parse_value(&a, it.next()) {
                Ok(v) => workers = Some(v),
                Err(m) => usage_error(&m),
            },
            "--jobs" => match parse_jobs(&a, it.next()) {
                Ok(v) => jobs = v,
                Err(m) => usage_error(&m),
            },
            other => usage_error(&format!("unknown sweep-worker option: {other}")),
        }
    }
    let (Some(ckpt), Some(worker), Some(workers)) = (ckpt, worker, workers) else {
        usage_error("sweep-worker needs --ckpt, --worker, and --workers");
    };
    harness::sweep::spawn_orphan_watchdog();
    if let Err(e) = harness::run_sweep_worker(std::path::Path::new(&ckpt), worker, workers, jobs) {
        eprintln!("error: sweep worker {worker}: {e}");
        std::process::exit(1);
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
         \x20              [--workers N] [--jobs N] [--pareto] [--out PATH|-]\n\
         \x20              [--fresh] [--scale F] [--seed N] [--log PATH] [--log-level L]\n\
         \x20              [--live-metrics PATH|-] [--live-interval-ms N] [--timeline PATH]\n\
         experiments: fig1 fig8 fig9 fig10 fig12 fig13 fig16 fig18a fig18b\n\
         table2 fig19 ablate-queue ablate-filler ablate-confidence\n\
         ablate-depth prefetch limit all\n\
         --jobs runs experiment cells on N workers (default: all cores);\n\
         output is byte-identical for every worker count\n\
         --json writes a machine-readable run report (- for stdout)\n\
         --trace-last records pipeline events and dumps the final N\n\
         --timeline exports a Chrome trace-event timeline (open in Perfetto\n\
         or chrome://tracing): one track per worker, spans per cell\n\
         --live-metrics streams periodic delta-compressed NDJSON metric\n\
         snapshots while the run is going (- for stdout; tables move to\n\
         stderr); --live-interval-ms sets the period (default 250)\n\
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
         serve runs the gdiff-serve/v1 prediction daemon on a Unix socket\n\
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
         into one cell per (config x benchmark) and runs them across\n\
         --workers processes, each on --jobs threads, coordinating\n\
         through atomic cell claims in the --ckpt directory with\n\
         work stealing from stragglers' shard tails; every finished\n\
         cell is checkpointed (CRC-framed), so a killed sweep re-run\n\
         with the same --ckpt resumes, skipping completed cells; the\n\
         merged tables/report are byte-identical for every worker and\n\
         thread count and any interrupt/resume split; --pareto adds the\n\
         (gated accuracy x coverage vs table bits) frontier; --dry-run\n\
         prints the expansion without running; --fresh discards\n\
         checkpoints from a previous grid"
    );
}
