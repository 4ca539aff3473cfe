//! Engine behind `harness serve` and `harness serve-client`.
//!
//! The two flag tables ([`SERVE`], [`SERVE_CLIENT`]) run on the shared
//! [`crate::cli`] parser like every other subcommand's; everything that
//! does work — daemon startup, the trace-streaming client, and the
//! `--selftest` harness — lives here so it can be unit- and
//! integration-tested without spawning a process.
//!
//! The selftest is the round-trip oath of the serving layer: it records
//! the profile-mode benchmark streams into a temporary trace container,
//! starts an in-process daemon, streams every benchmark through its own
//! session concurrently, and fails unless each returned report is
//! bit-identical (counters *and* the divided accuracy/coverage floats)
//! to the same-seed one-shot profile run.

use std::path::{Path, PathBuf};

use obs::JsonValue;
use predictors::{Capacity, PredictorStats, ValuePredictor};
use serve::{client, ServeConfig, Server, SessionParams};
use tracefile::TraceReader;
use workloads::{Benchmark, SyntheticSource, TraceSource};

use crate::cli::{
    at_least_1, level, number, scale, Command, Flag, Positionals, Usage, LEVEL_HINT, SCALE_HINT,
};
use crate::taps::{TapOpts, Taps};
use crate::RunParams;

/// Options for `harness serve`.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// `--socket PATH`: Unix-domain socket to listen on.
    pub socket: Option<PathBuf>,
    /// `--stdio`: single-session mode over stdin/stdout.
    pub stdio: bool,
    /// `--selftest`: run the record→stream→diff round trip and exit.
    pub selftest: bool,
    /// `--max-sessions N` (daemon cap, and selftest concurrency wave size).
    pub max_sessions: usize,
    /// `--queue-depth N`: bounded per-session inbound chunk queue.
    pub queue_depth: usize,
    /// `--global-queue N`: bound on queued chunks across all sessions.
    pub global_queue: usize,
    /// `--scale F` (selftest only): run-size multiplier.
    pub scale: f64,
    /// `--seed N` (selftest only): workload seed.
    pub seed: u64,
    /// `--log PATH`: write the structured journal here (live-only; the
    /// served reports stay byte-identical with logging on or off).
    pub log: Option<PathBuf>,
    /// `--log-level LEVEL`: minimum journal level (default `info`).
    pub log_level: obs::log::Level,
}

impl Default for ServeOpts {
    fn default() -> Self {
        let cfg = ServeConfig::default();
        ServeOpts {
            socket: None,
            stdio: false,
            selftest: false,
            max_sessions: cfg.max_sessions,
            queue_depth: cfg.queue_depth,
            global_queue: cfg.global_queue,
            scale: 1.0,
            seed: 42,
            log: None,
            log_level: obs::log::Level::Info,
        }
    }
}

impl ServeOpts {
    /// The daemon configuration these options describe.
    pub fn config(&self) -> ServeConfig {
        ServeConfig {
            max_sessions: self.max_sessions,
            queue_depth: self.queue_depth,
            global_queue: self.global_queue,
        }
    }
}

/// The `harness serve` flag table.
pub const SERVE: Command<ServeOpts> = Command {
    name: "serve",
    positionals: Positionals::None,
    flags: &[
        Flag::text(&["--socket"], "a path", |o, v| o.socket = Some(v.into())),
        Flag::switch(&["--stdio"], |o| o.stdio = true),
        Flag::switch(&["--selftest"], |o| o.selftest = true),
        Flag::parse(&["--max-sessions"], "a count", |o, f, v| {
            at_least_1(f, v, AT_LEAST_1).map(|n| o.max_sessions = n)
        }),
        Flag::parse(&["--queue-depth"], "a count", |o, f, v| {
            at_least_1(f, v, AT_LEAST_1).map(|n| o.queue_depth = n)
        }),
        Flag::parse(&["--global-queue"], "a count", |o, f, v| {
            at_least_1(f, v, AT_LEAST_1).map(|n| o.global_queue = n)
        }),
        Flag::parse(&["--scale"], SCALE_HINT, |o, f, v| {
            scale(f, v).map(|x| o.scale = x)
        }),
        Flag::parse(&["--seed"], "an integer", |o, f, v| {
            number(f, v).map(|n| o.seed = n)
        }),
        Flag::text(&["--log"], "a journal path", |o, v| o.log = Some(v.into())),
        Flag::parse(&["--log-level"], LEVEL_HINT, |o, f, v| {
            level(f, v).map(|l| o.log_level = l)
        }),
    ],
};

const AT_LEAST_1: &str = "must be at least 1";

/// Parses `harness serve` arguments.
pub fn parse_serve_args(args: Vec<String>) -> Result<ServeOpts, Usage> {
    let (opts, _) = SERVE.parse(args, ServeOpts::default())?;
    let modes = opts.socket.is_some() as u8 + opts.stdio as u8 + opts.selftest as u8;
    match modes {
        0 => Err("serve needs --socket PATH, --stdio, or --selftest".into()),
        1 => {
            if let Some(socket) = &opts.socket {
                check_socket_path(socket)?;
            }
            Ok(opts)
        }
        _ => Err("--socket, --stdio, and --selftest are mutually exclusive".into()),
    }
}

/// What `harness serve-client` should do, in execution order: stream
/// sessions first, then the control requests.
#[derive(Debug, Clone, Default)]
pub struct ServeClientOpts {
    /// `--socket PATH`: the daemon to talk to.
    pub socket: PathBuf,
    /// `--trace FILE`: stream every stream of a recorded container, one
    /// session per stream.
    pub trace: Option<PathBuf>,
    /// `--stream BENCH`: synthesize and stream one benchmark.
    pub stream: Option<Benchmark>,
    /// `--session NAME`: session-name override (single-session modes).
    pub session: Option<String>,
    /// `--window N`: max unacknowledged chunks in flight.
    pub window: u64,
    /// `--warmup N` / `--measure N`: profile-loop overrides (defaults
    /// come from trace metadata, or the scaled profile defaults).
    pub warmup: Option<u64>,
    /// See [`ServeClientOpts::warmup`].
    pub measure: Option<u64>,
    /// `--scale F` / `--seed N`: synthesis parameters for `--stream`.
    pub scale: f64,
    /// See [`ServeClientOpts::scale`].
    pub seed: u64,
    /// `--status`: print the daemon's status frame.
    pub status: bool,
    /// `--metrics`: print the daemon's Prometheus exposition.
    pub metrics: bool,
    /// `--health`: print the daemon's per-session health overview.
    pub health: bool,
    /// `--shutdown`: ask the daemon to drain and exit.
    pub shutdown: bool,
    /// `--corrupt-chunk N`: flip one payload byte in chunk N before
    /// sending it — a deterministic way to exercise the server's
    /// corrupt-chunk kill path (and its journal record) from the CLI.
    pub corrupt_chunk: Option<usize>,
    /// `--drift-probe`: synthesize a two-phase session (predictable
    /// strides, then an unpredictable tail) that trips the online drift
    /// detector; exits nonzero unless the daemon reports it drifting.
    pub drift_probe: bool,
}

/// The `harness serve-client` flag table.
pub const SERVE_CLIENT: Command<ServeClientOpts> = Command {
    name: "serve-client",
    positionals: Positionals::None,
    flags: &[
        Flag::text(&["--socket"], "a path", |o, v| o.socket = v.into()),
        Flag::text(&["--trace"], "a file path", |o, v| o.trace = Some(v.into())),
        Flag::parse(&["--stream"], "a benchmark name", |o, _, v| {
            benchmark_named(v).map(|b| o.stream = Some(b))
        }),
        Flag::text(&["--session"], "a name", |o, v| o.session = Some(v)),
        Flag::parse(&["--window"], "a count", |o, f, v| {
            at_least_1(f, v, AT_LEAST_1).map(|n| o.window = n)
        }),
        Flag::parse(&["--warmup"], "an integer", |o, f, v| {
            number(f, v).map(|n| o.warmup = Some(n))
        }),
        Flag::parse(&["--measure"], "an integer", |o, f, v| {
            number(f, v).map(|n| o.measure = Some(n))
        }),
        Flag::parse(&["--scale"], SCALE_HINT, |o, f, v| {
            scale(f, v).map(|x| o.scale = x)
        }),
        Flag::parse(&["--seed"], "an integer", |o, f, v| {
            number(f, v).map(|n| o.seed = n)
        }),
        Flag::switch(&["--status"], |o| o.status = true),
        Flag::switch(&["--metrics"], |o| o.metrics = true),
        Flag::switch(&["--health"], |o| o.health = true),
        Flag::switch(&["--shutdown"], |o| o.shutdown = true),
        Flag::parse(&["--corrupt-chunk"], "a chunk index", |o, f, v| {
            number(f, v).map(|n| o.corrupt_chunk = Some(n))
        }),
        Flag::switch(&["--drift-probe"], |o| o.drift_probe = true),
    ],
};

/// Parses `harness serve-client` arguments.
pub fn parse_serve_client_args(args: Vec<String>) -> Result<ServeClientOpts, Usage> {
    let init = ServeClientOpts {
        window: 4,
        scale: 1.0,
        seed: 42,
        ..ServeClientOpts::default()
    };
    let (opts, _) = SERVE_CLIENT.parse(args, init)?;
    // `socket` stays empty unless `--socket` set it.
    if opts.socket.as_os_str().is_empty() {
        return Err("serve-client needs --socket PATH".into());
    }
    let stream_modes =
        opts.trace.is_some() as u8 + opts.stream.is_some() as u8 + opts.drift_probe as u8;
    if stream_modes > 1 {
        return Err("--trace, --stream, and --drift-probe are mutually exclusive".into());
    }
    if opts.corrupt_chunk.is_some() && stream_modes == 0 {
        return Err("--corrupt-chunk needs a stream to corrupt (--trace or --stream)".into());
    }
    let acts_only = opts.status || opts.metrics || opts.health || opts.shutdown;
    if stream_modes == 0 && !acts_only {
        return Err(
            "serve-client needs something to do: --trace, --stream, --drift-probe, \
             --status, --metrics, --health, or --shutdown"
                .into(),
        );
    }
    Ok(opts)
}

/// A socket path the daemon can actually bind: its parent directory must
/// exist (the daemon creates the socket file, not the directory).
fn check_socket_path(path: &Path) -> Result<(), String> {
    let parent = match path.parent() {
        Some(p) if p.as_os_str().is_empty() => Path::new("."),
        Some(p) => p,
        None => Path::new("."),
    };
    if !parent.is_dir() {
        return Err(format!(
            "--socket: directory {} does not exist",
            parent.display()
        ));
    }
    Ok(())
}

fn benchmark_named(name: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
            format!(
                "--stream: unknown benchmark '{name}' (one of: {})",
                names.join(" ")
            )
        })
}

/// Runs `harness serve`. `Err` is a runtime failure (exit 1).
pub fn run_serve(opts: &ServeOpts) -> Result<(), String> {
    let taps = Taps::start(&TapOpts {
        log: opts.log.clone(),
        log_level: opts.log_level,
        ..TapOpts::default()
    })?;
    let result = run_serve_inner(opts);
    result.and(taps.finish())
}

fn run_serve_inner(opts: &ServeOpts) -> Result<(), String> {
    if opts.selftest {
        return run_selftest(opts);
    }
    if opts.stdio {
        serve::serve_stdio(
            Box::new(std::io::stdin()),
            Box::new(std::io::stdout()),
            opts.config(),
        );
        return Ok(());
    }
    let socket = opts.socket.as_ref().expect("parse guarantees a mode");
    let server = Server::bind(socket, opts.config())
        .map_err(|e| format!("cannot bind {}: {e}", socket.display()))?;
    obs::log::info(
        "serve.daemon",
        "daemon listening",
        &[
            ("max_sessions", obs::log::Value::from(opts.max_sessions)),
            ("queue_depth", obs::log::Value::from(opts.queue_depth)),
            ("global_queue", obs::log::Value::from(opts.global_queue)),
        ],
    );
    eprintln!(
        "gdiffd listening on {} (max-sessions {}, queue-depth {}, global-queue {})",
        socket.display(),
        opts.max_sessions,
        opts.queue_depth,
        opts.global_queue
    );
    server
        .run()
        .map_err(|e| format!("serve failed on {}: {e}", socket.display()))
}

/// One streamable session: a name, its wire chunks, and the profile-loop
/// bounds to run them under.
struct SessionJob {
    name: String,
    chunks: Vec<Vec<u8>>,
    warmup: u64,
    measure: u64,
}

impl SessionJob {
    fn params(&self) -> SessionParams {
        SessionParams {
            name: self.name.clone(),
            warmup: self.warmup,
            measure: self.measure,
            ..SessionParams::default()
        }
    }
}

/// Gathers one job per recorded stream from a trace container. Warmup and
/// measure default to the container's recorded profile parameters.
fn jobs_from_trace(opts: &ServeClientOpts) -> Result<Vec<SessionJob>, String> {
    let path = opts.trace.as_ref().expect("caller checked --trace");
    let mut reader =
        TraceReader::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let meta = JsonValue::parse(reader.meta()).unwrap_or_else(|_| JsonValue::object());
    let meta_u64 = |key: &str| meta.path(key).and_then(|v| v.as_f64()).map(|v| v as u64);
    let warmup = opts
        .warmup
        .or_else(|| meta_u64("profile.warmup"))
        .unwrap_or(0);
    let measure = opts
        .measure
        .or_else(|| meta_u64("profile.measure"))
        .unwrap_or(u64::MAX);

    let streams: Vec<String> = reader.streams().iter().map(|s| s.name.clone()).collect();
    if let (Some(session), true) = (&opts.session, streams.len() > 1) {
        return Err(format!(
            "--session {session} is ambiguous: {} has {} streams",
            path.display(),
            streams.len()
        ));
    }
    let chunk_ids: Vec<(u32, usize)> = reader
        .chunks()
        .iter()
        .enumerate()
        .map(|(i, c)| (c.stream_id, i))
        .collect();
    let mut jobs = Vec::new();
    for (sid, name) in streams.into_iter().enumerate() {
        let mut chunks = Vec::new();
        for (stream_id, i) in &chunk_ids {
            if *stream_id as usize == sid {
                let raw = reader
                    .read_chunk_raw(*i)
                    .map_err(|e| format!("cannot read chunk {i} of {}: {e}", path.display()))?;
                chunks.push(raw);
            }
        }
        if chunks.is_empty() {
            continue;
        }
        jobs.push(SessionJob {
            name: opts.session.clone().unwrap_or(name),
            chunks,
            warmup,
            measure,
        });
    }
    Ok(jobs)
}

/// Raw instructions covering `warmup + measure` value producers.
fn raw_prefix(bench: Benchmark, seed: u64, producers: u64) -> Vec<workloads::DynInst> {
    let source = SyntheticSource::new(seed);
    let mut out = Vec::new();
    let mut seen = 0u64;
    for inst in source.stream(bench) {
        let produces = inst.produces_value();
        out.push(inst);
        if produces {
            seen += 1;
            if seen == producers {
                break;
            }
        }
    }
    out
}

/// Instructions per wire chunk for synthesized streams: small enough that
/// a session spans many chunks, large enough to amortize framing.
const SYNTH_CHUNK_LEN: usize = 4_096;

/// Builds the job for a synthesized `--stream BENCH` session.
fn job_from_stream(opts: &ServeClientOpts) -> SessionJob {
    let bench = opts.stream.expect("caller checked --stream");
    let defaults = scaled_profile(opts.scale, opts.seed);
    let warmup = opts.warmup.unwrap_or(defaults.warmup);
    let measure = opts.measure.unwrap_or(defaults.measure);
    let insts = raw_prefix(bench, opts.seed, warmup.saturating_add(measure));
    let chunks = insts
        .chunks(SYNTH_CHUNK_LEN)
        .map(|c| tracefile::encode_wire_chunk(c, 0))
        .collect();
    SessionJob {
        name: opts
            .session
            .clone()
            .unwrap_or_else(|| bench.name().to_string()),
        chunks,
        warmup,
        measure,
    }
}

fn scaled_profile(scale: f64, seed: u64) -> RunParams {
    let mut p = RunParams::profile_default().scaled(scale);
    p.seed = seed;
    p
}

/// Value producers per `--drift-probe` phase (after warmup): a stable
/// constant-stride run long enough to pin the baseline near 1.0, then an
/// unpredictable tail long enough to push Page–Hinkley past its alarm.
const PROBE_STABLE: u64 = 512;
/// See [`PROBE_STABLE`].
const PROBE_NOISE: u64 = 512;

/// Builds the `--drift-probe` job: one PC walking a constant stride
/// (gDiff predicts it perfectly once warm), then a xorshift64 value walk
/// no stride predictor can follow. The mid-stream family switch is the
/// textbook input the online drift detector exists to catch.
fn job_from_drift_probe(opts: &ServeClientOpts) -> SessionJob {
    let warmup = opts.warmup.unwrap_or(256);
    let stable = warmup + PROBE_STABLE;
    let measure = opts.measure.unwrap_or(stable + PROBE_NOISE - warmup);
    let mut insts = Vec::with_capacity((stable + PROBE_NOISE) as usize);
    let pc = 0x4000_0000u64;
    let mut value = 0u64;
    for _ in 0..stable {
        value = value.wrapping_add(8);
        insts.push(workloads::DynInst::alu(pc, 1, [Some(1), None], value));
    }
    let mut x = opts.seed | 1;
    for _ in 0..PROBE_NOISE {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        insts.push(workloads::DynInst::alu(pc, 1, [Some(1), None], x));
    }
    let chunks = insts
        .chunks(SYNTH_CHUNK_LEN)
        .map(|c| tracefile::encode_wire_chunk(c, 0))
        .collect();
    SessionJob {
        name: opts
            .session
            .clone()
            .unwrap_or_else(|| "drift-probe".to_string()),
        chunks,
        warmup,
        measure,
    }
}

/// Runs `harness serve-client`: streams the requested sessions, then the
/// control requests, printing one JSON document (or the raw exposition)
/// per action to stdout. `Err` is a runtime failure (exit 1).
pub fn run_serve_client(opts: &ServeClientOpts) -> Result<(), String> {
    let mut jobs = if opts.trace.is_some() {
        jobs_from_trace(opts)?
    } else if opts.stream.is_some() {
        vec![job_from_stream(opts)]
    } else if opts.drift_probe {
        vec![job_from_drift_probe(opts)]
    } else {
        Vec::new()
    };
    if let Some(n) = opts.corrupt_chunk {
        for job in &mut jobs {
            let total = job.chunks.len();
            let chunk = job
                .chunks
                .get_mut(n)
                .ok_or_else(|| format!("--corrupt-chunk {n}: session has {total} chunks"))?;
            let mid = chunk.len() / 2;
            chunk[mid] ^= 0x01;
        }
    }

    let connect = || {
        client::connect(&opts.socket)
            .map_err(|e| format!("cannot connect to {}: {e}", opts.socket.display()))
    };
    // The daemon closes a connection when its session ends, so each
    // session — and the trailing control conversation — dials fresh.
    for job in &jobs {
        let (mut r, mut w) = connect()?;
        let out = client::run_session(
            &mut r,
            &mut w,
            &job.params(),
            &job.chunks,
            opts.window,
            None,
        )
        .map_err(|e| format!("session {}: {e}", job.name))?;
        eprintln!(
            "session {}: {} chunks, {} acks, {} busy",
            job.name,
            job.chunks.len(),
            out.acks,
            out.busy
        );
        println!("{}", out.report.to_json());
    }
    if opts.drift_probe {
        let (mut r, mut w) = connect()?;
        let overview = client::fetch_health(&mut r, &mut w).map_err(|e| format!("health: {e}"))?;
        let name = jobs.first().map(|j| j.name.as_str()).unwrap_or("");
        check_drift_probe(&overview, name)?;
    }
    if opts.status || opts.metrics || opts.health || opts.shutdown {
        let (mut r, mut w) = connect()?;
        if opts.status {
            let status =
                client::fetch_status(&mut r, &mut w).map_err(|e| format!("status: {e}"))?;
            println!("{}", status.to_json());
        }
        if opts.metrics {
            let text =
                client::fetch_metrics(&mut r, &mut w).map_err(|e| format!("metrics: {e}"))?;
            print!("{text}");
        }
        if opts.health {
            let health =
                client::fetch_health(&mut r, &mut w).map_err(|e| format!("health: {e}"))?;
            println!("{}", health.to_json());
        }
        if opts.shutdown {
            let ack =
                client::request_shutdown(&mut r, &mut w).map_err(|e| format!("shutdown: {e}"))?;
            println!("{}", ack.to_json());
        }
    }
    Ok(())
}

/// The probe's verdict: the daemon must remember the probe session as
/// drifting (≥ 1 Page–Hinkley alarm). Prints the session's health JSON
/// either way so failures are diagnosable.
fn check_drift_probe(overview: &JsonValue, name: &str) -> Result<(), String> {
    let sessions = overview
        .path("sessions")
        .and_then(|s| s.as_arr())
        .ok_or("health overview missing `sessions`")?;
    let entry = sessions
        .iter()
        .find(|s| s.path("session").and_then(|n| n.as_str()) == Some(name))
        .ok_or_else(|| format!("drift probe: session {name} missing from health overview"))?;
    println!("{}", entry.to_json());
    let alarms = entry
        .path("drift_alarms")
        .and_then(|a| a.as_f64())
        .unwrap_or(0.0);
    if alarms < 1.0 {
        return Err(format!(
            "drift probe: session {name} never tripped the drift detector (state {})",
            entry.path("state").and_then(|s| s.as_str()).unwrap_or("?")
        ));
    }
    eprintln!("drift probe: {name} drifted as expected ({alarms} alarms)");
    Ok(())
}

/// The one-shot reference for the selftest: the §3 profile loop the
/// harness runs directly, with the same default predictor shape a served
/// session builds.
fn direct_stats(bench: Benchmark, seed: u64, warmup: u64, measure: u64) -> PredictorStats {
    let source = SyntheticSource::new(seed);
    let defaults = SessionParams::default();
    let mut p =
        gdiff::GDiffPredictor::with_delay(Capacity::Unbounded, defaults.order, defaults.delay);
    let mut stats = PredictorStats::new();
    for (n, inst) in source
        .stream(bench)
        .filter(|i| i.produces_value())
        .take((warmup + measure) as usize)
        .enumerate()
    {
        let predicted = p.predict(inst.pc);
        if (n as u64) >= warmup {
            stats.record(predicted, false, inst.value);
        }
        p.update(inst.pc, inst.value);
    }
    stats
}

/// One benchmark's selftest verdict.
fn check_report(
    report: &JsonValue,
    bench: Benchmark,
    seed: u64,
    warmup: u64,
    measure: u64,
) -> Result<(), String> {
    let direct = direct_stats(bench, seed, warmup, measure);
    let get = |k: &str| -> Result<f64, String> {
        report
            .path(k)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{}: report missing `{k}`", bench.name()))
    };
    let mismatch = |what: &str, got: String, want: String| {
        Err(format!(
            "{}: {what} diverged: served {got} != direct {want}",
            bench.name()
        ))
    };
    if get("total")? as u64 != direct.total() {
        return mismatch(
            "total",
            (get("total")? as u64).to_string(),
            direct.total().to_string(),
        );
    }
    if get("predicted")? as u64 != direct.predicted() {
        return mismatch(
            "predicted",
            (get("predicted")? as u64).to_string(),
            direct.predicted().to_string(),
        );
    }
    if get("correct")? as u64 != direct.correct() {
        return mismatch(
            "correct",
            (get("correct")? as u64).to_string(),
            direct.correct().to_string(),
        );
    }
    // Bit-identical floats: same counters, same division, same bits.
    if get("accuracy")?.to_bits() != direct.accuracy().to_bits() {
        return mismatch(
            "accuracy",
            format!("{}", get("accuracy")?),
            format!("{}", direct.accuracy()),
        );
    }
    let coverage = direct.predicted() as f64 / direct.total().max(1) as f64;
    if get("coverage")?.to_bits() != coverage.to_bits() {
        return mismatch(
            "coverage",
            format!("{}", get("coverage")?),
            format!("{coverage}"),
        );
    }
    Ok(())
}

/// Records the profile streams, starts an in-process daemon, streams every
/// benchmark concurrently (in waves of `--max-sessions`), and diffs every
/// report against the one-shot run. Also scrapes and validates the
/// Prometheus exposition before shutting the daemon down.
fn run_selftest(opts: &ServeOpts) -> Result<(), String> {
    let params = scaled_profile(opts.scale, opts.seed);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let trace_path = dir.join(format!("gdiff-selftest-{pid}.trace"));
    let sock_path = dir.join(format!("gdiff-selftest-{pid}.sock"));

    // 1. Record the same capture `harness record fig8` would produce.
    let mut registry = obs::Registry::new();
    crate::record::record(
        &trace_path,
        &["fig8".to_string()],
        params,
        RunParams::pipeline_default().scaled(opts.scale),
        opts.scale,
        &mut registry,
    )
    .map_err(|e| format!("selftest record: {e}"))?;

    // 2. Read every benchmark's chunks back out of the container.
    let client_opts = ServeClientOpts {
        socket: sock_path.clone(),
        trace: Some(trace_path.clone()),
        window: 4,
        warmup: Some(params.warmup),
        measure: Some(params.measure),
        scale: opts.scale,
        seed: opts.seed,
        ..ServeClientOpts::default()
    };
    let jobs = jobs_from_trace(&client_opts)?;
    let _ = std::fs::remove_file(&trace_path);
    if jobs.is_empty() {
        return Err("selftest record produced no streams".into());
    }

    // 3. Serve, stream concurrently (waves sized to the session cap so
    //    the selftest never triggers its own eviction), diff.
    let server = Server::bind(&sock_path, opts.config())
        .map_err(|e| format!("selftest bind {}: {e}", sock_path.display()))?;
    let handle = server.spawn();
    let mut checked = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for wave in jobs.chunks(opts.max_sessions) {
        let reports = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for job in wave {
                let path = handle.path().to_path_buf();
                let window = client_opts.window;
                handles.push((
                    job,
                    scope.spawn(move || {
                        let (mut r, mut w) = client::connect(&path)?;
                        client::run_session(
                            &mut r,
                            &mut w,
                            &job.params(),
                            &job.chunks,
                            window,
                            None,
                        )
                        .map_err(std::io::Error::other)
                    }),
                ));
            }
            handles
                .into_iter()
                .map(|(job, h)| (job, h.join().expect("selftest client thread panicked")))
                .collect::<Vec<_>>()
        });
        for (job, outcome) in reports {
            let bench = benchmark_named(&job.name)
                .map_err(|_| format!("selftest stream `{}` is not a benchmark", job.name))?;
            match outcome {
                Ok(out) => {
                    checked += 1;
                    if let Err(m) =
                        check_report(&out.report, bench, opts.seed, job.warmup, job.measure)
                    {
                        failures.push(m);
                    } else {
                        eprintln!(
                            "selftest {}: {} chunks, report bit-identical",
                            job.name,
                            job.chunks.len()
                        );
                    }
                }
                Err(e) => failures.push(format!("{}: session failed: {e}", job.name)),
            }
        }
    }

    // 4. The exposition must carry the per-session series and validate.
    let (mut r, mut w) =
        client::connect(handle.path()).map_err(|e| format!("selftest control connect: {e}"))?;
    let text = client::fetch_metrics(&mut r, &mut w).map_err(|e| format!("metrics: {e}"))?;
    if let Err(e) = obs::expose::validate(&text) {
        failures.push(format!("metrics exposition invalid: {e}"));
    }
    if !text.contains("serve_session_accuracy{") {
        failures.push("metrics exposition missing per-session accuracy series".into());
    }
    let _ = client::request_shutdown(&mut r, &mut w);
    handle.join();
    let _ = std::fs::remove_file(&sock_path);

    if !failures.is_empty() {
        return Err(format!(
            "selftest failed ({}/{checked} sessions diverged or errored):\n  {}",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    println!(
        "serve selftest OK: {checked} sessions bit-identical to one-shot runs \
         (seed {}, scale {})",
        opts.seed, opts.scale
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_s(args: &[&str]) -> Result<ServeOpts, Usage> {
        parse_serve_args(args.iter().map(|s| s.to_string()).collect())
    }

    fn parse_c(args: &[&str]) -> Result<ServeClientOpts, Usage> {
        parse_serve_client_args(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn serve_args_require_a_mode() {
        assert!(parse_s(&[]).is_err());
        assert!(parse_s(&["--max-sessions", "4"]).is_err());
    }

    #[test]
    fn serve_args_reject_zero_counts_and_unknown_flags() {
        assert!(parse_s(&["--stdio", "--max-sessions", "0"]).is_err());
        assert!(parse_s(&["--stdio", "--queue-depth", "0"]).is_err());
        assert!(parse_s(&["--stdio", "--global-queue", "0"]).is_err());
        assert!(parse_s(&["--stdio", "--bogus"]).is_err());
    }

    #[test]
    fn serve_args_modes_are_exclusive_and_socket_dir_must_exist() {
        assert!(parse_s(&["--stdio", "--selftest"]).is_err());
        assert!(parse_s(&["--socket", "/nonexistent-dir-xyz/d.sock"]).is_err());
        let ok = parse_s(&["--selftest", "--scale", "0.05", "--seed", "7"]).unwrap();
        assert!(ok.selftest);
        assert_eq!(ok.seed, 7);
    }

    #[test]
    fn client_args_require_socket_and_an_action() {
        assert!(parse_c(&["--status"]).is_err());
        assert!(parse_c(&["--socket", "/tmp/d.sock"]).is_err());
        assert!(parse_c(&["--socket", "/tmp/d.sock", "--stream", "nope"]).is_err());
        let ok = parse_c(&[
            "--socket",
            "/tmp/d.sock",
            "--stream",
            "gcc",
            "--window",
            "8",
        ])
        .unwrap();
        assert_eq!(ok.stream, Some(Benchmark::Gcc));
        assert_eq!(ok.window, 8);
        assert!(parse_c(&["--socket", "/tmp/d.sock", "--shutdown"]).is_ok());
    }

    #[test]
    fn serve_args_accept_log_flags() {
        let ok = parse_s(&["--stdio", "--log", "/tmp/j.journal", "--log-level", "debug"]).unwrap();
        assert_eq!(ok.log.as_deref(), Some(Path::new("/tmp/j.journal")));
        assert_eq!(ok.log_level, obs::log::Level::Debug);
        assert!(parse_s(&["--stdio", "--log-level", "loud"]).is_err());
        assert!(parse_s(&["--stdio", "--log"]).is_err());
    }

    #[test]
    fn client_args_probe_and_corruption_flags() {
        // Stream modes stay mutually exclusive; corruption needs a stream.
        assert!(parse_c(&[
            "--socket",
            "/tmp/d.sock",
            "--drift-probe",
            "--stream",
            "gcc"
        ])
        .is_err());
        assert!(parse_c(&["--socket", "/tmp/d.sock", "--corrupt-chunk", "0"]).is_err());
        let ok = parse_c(&[
            "--socket",
            "/tmp/d.sock",
            "--stream",
            "gcc",
            "--corrupt-chunk",
            "2",
        ])
        .unwrap();
        assert_eq!(ok.corrupt_chunk, Some(2));
        assert!(
            parse_c(&["--socket", "/tmp/d.sock", "--drift-probe"])
                .unwrap()
                .drift_probe
        );
        assert!(
            parse_c(&["--socket", "/tmp/d.sock", "--health"])
                .unwrap()
                .health
        );
    }

    #[test]
    fn drift_probe_job_switches_family_after_the_stable_phase() {
        let opts =
            parse_c(&["--socket", "/tmp/d.sock", "--drift-probe", "--warmup", "64"]).unwrap();
        let job = job_from_drift_probe(&opts);
        assert_eq!(job.warmup, 64);
        assert_eq!(job.measure, PROBE_STABLE + PROBE_NOISE);
        let mut insts = Vec::new();
        let mut all = Vec::new();
        for chunk in &job.chunks {
            tracefile::decode_wire_chunk(chunk, tracefile::DEFAULT_CHUNK_CAP, &mut insts).unwrap();
            all.extend(insts.iter().cloned());
        }
        assert_eq!(all.len() as u64, 64 + PROBE_STABLE + PROBE_NOISE);
        // The stable phase is a pure stride-8 walk; the tail is not.
        let stable = &all[..(64 + PROBE_STABLE) as usize];
        assert!(stable
            .windows(2)
            .all(|w| w[1].value.wrapping_sub(w[0].value) == 8));
        let tail = &all[(64 + PROBE_STABLE) as usize..];
        assert!(tail
            .windows(2)
            .any(|w| w[1].value.wrapping_sub(w[0].value) != 8));
    }

    #[test]
    fn synthesized_job_covers_the_profile_take() {
        let opts = parse_c(&[
            "--socket",
            "/tmp/d.sock",
            "--stream",
            "gcc",
            "--warmup",
            "10",
            "--measure",
            "90",
        ])
        .unwrap();
        let job = job_from_stream(&opts);
        assert_eq!(job.name, "gcc");
        assert_eq!(job.warmup, 10);
        assert_eq!(job.measure, 90);
        assert!(!job.chunks.is_empty());
        let mut producers = 0usize;
        let mut out = Vec::new();
        for chunk in &job.chunks {
            tracefile::decode_wire_chunk(chunk, tracefile::DEFAULT_CHUNK_CAP, &mut out).unwrap();
            producers += out.iter().filter(|i| i.produces_value()).count();
        }
        assert_eq!(producers, 100);
    }
}
