//! Steady layered benchmark of the gDiff reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <profile|pipeline|serve> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One process runs one workload for `--seconds` and prints, as the last
//! line of standard output, one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Inputs are generated from `--seed`.
//! A traced run also writes a Chrome trace of its units to
//! `perfbench/out/timeline-<workload>.json`. See `perfbench/METRICS.md`.

mod inputs;
mod pipeline;
mod profile;
mod report;
mod serve;
mod timing;

use std::process::ExitCode;
use std::time::Duration;

use inputs::Checks;
use report::{find, Values, END_TO_END, PER_LAYER};

/// Where runs leave the daemon socket and the timeline file.
pub const OUT_DIR: &str = "perfbench/out";

/// Share of a traced run's time spent on the workload itself; the rest
/// goes to probes of the layers it bypasses.
const TRACED_NATIVE_SHARE: f64 = 0.6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Profile,
    Pipeline,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Profile, Workload::Pipeline, Workload::Serve];

    fn name(self) -> &'static str {
        match self {
            Workload::Profile => "profile",
            Workload::Pipeline => "pipeline",
            Workload::Serve => "serve",
        }
    }

    fn drive(self, seed: u64, budget: Duration, scale: Scale, traced: bool) -> Outcome {
        match self {
            Workload::Profile => profile::drive(seed, budget, scale, traced),
            Workload::Pipeline => pipeline::drive(seed, budget, scale, traced),
            Workload::Serve => serve::drive(seed, budget, scale, traced),
        }
    }
}

/// Input size: a workload's own size, or a small probe of it that a traced
/// run of another workload uses to measure layers it bypasses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Probe,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    pub e2e: Values,
    pub layers: Values,
}

impl Outcome {
    /// A run that could not get as far as measuring.
    pub fn failed(checks: Checks) -> Outcome {
        Outcome {
            checks,
            ..Outcome::default()
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <profile|pipeline|serve> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    let budget = Duration::from_secs(args.seconds);
    eprintln!(
        "perfbench: {} CPUs available; passes rotate across them",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    if args.trace {
        traced_run(&args, budget);
    } else {
        let mut out = args.workload.drive(args.seed, budget, Scale::Full, false);
        let checks = &mut out.checks;
        out.e2e
            .push(("peak_rss_mb", report::peak_rss_mb().unwrap_or(f64::NAN)));
        out.e2e.push((
            "ok_ratio",
            (checks.attempted - checks.failed) as f64 / checks.attempted.max(1) as f64,
        ));
        report::print_result(checks, END_TO_END, &out.e2e);
    }
    ExitCode::SUCCESS
}

/// The traced run: the workload itself with every layer timed, then a
/// small probe of each other workload for the layers this one bypasses.
fn traced_run(args: &Args, budget: Duration) {
    let w = args.workload;
    obs::timeline::enable(65_536);
    obs::timeline::set_thread_name("perfbench");
    let native = w.drive(
        args.seed,
        budget.mul_f64(TRACED_NATIVE_SHARE),
        Scale::Full,
        true,
    );
    let mut checks = native.checks;
    let mut layers = native.layers;
    let probes: Vec<Workload> = Workload::ALL
        .into_iter()
        .filter(|&o| {
            o != w
                && PER_LAYER
                    .iter()
                    .any(|(_, _, on)| on.contains(&o) && !on.contains(&w))
        })
        .collect();
    let probe_budget = budget.mul_f64((1.0 - TRACED_NATIVE_SHARE) / probes.len().max(1) as f64);
    for other in probes {
        let probe = other.drive(args.seed, probe_budget, Scale::Probe, true);
        checks.absorb(probe.checks);
        for &(name, _, on) in PER_LAYER {
            if on.contains(&other) && !on.contains(&w) && find(&layers, name).is_none() {
                if let Some(v) = find(&probe.layers, name) {
                    layers.push((name, v));
                }
            }
        }
    }
    obs::timeline::disable();
    let path = format!("{OUT_DIR}/timeline-{}.json", w.name());
    match std::fs::write(&path, obs::timeline::export().to_json()) {
        Ok(()) => eprintln!(
            "timeline: {path} ({} events, {} dropped)",
            obs::timeline::recorded(),
            obs::timeline::dropped()
        ),
        Err(e) => checks.check(false, || format!("write {path}: {e}")),
    }
    let decl: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
    report::print_result(&mut checks, &decl, &layers);
}
