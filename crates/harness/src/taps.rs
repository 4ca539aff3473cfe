//! The live telemetry a run, a sweep or the daemon can switch on beside
//! its deterministic outputs: the structured journal (`--log`), the Chrome
//! timeline (`--timeline`) and the NDJSON metric stream (`--live-metrics`).
//!
//! [`Taps::start`] and [`Taps::finish`] bracket the work, so every
//! subcommand starts and tears the taps down in the same order and reports
//! a timeline overflow the same way. None of it feeds back into the
//! tables, reports or checkpoints.

use std::path::PathBuf;
use std::time::Duration;

use obs::{Sampler, SharedRegistry};

/// Event capacity of the `--timeline` buffer: a full `all -j8` run emits
/// a few hundred coarse events, so 64Ki leaves generous headroom while
/// bounding a runaway run to ~10 MB of JSON.
const TIMELINE_CAPACITY: usize = 64 * 1024;

/// Which taps to switch on.
#[derive(Debug, Clone)]
pub struct TapOpts {
    /// `--log PATH`: structured journal destination.
    pub log: Option<PathBuf>,
    /// `--log-level L`: minimum journal level (default info).
    pub log_level: obs::log::Level,
    /// `--timeline PATH`: Chrome trace-event JSON destination.
    pub timeline: Option<String>,
    /// `--live-metrics PATH|-`: NDJSON snapshot stream (`-`: stdout).
    pub live_metrics: Option<String>,
    /// `--live-interval-ms N`: snapshot period for `--live-metrics`.
    pub live_interval_ms: u64,
}

impl Default for TapOpts {
    fn default() -> Self {
        TapOpts {
            log: None,
            log_level: obs::log::Level::Info,
            timeline: None,
            live_metrics: None,
            live_interval_ms: 250,
        }
    }
}

/// The running taps; [`Taps::finish`] tears them down.
#[derive(Debug)]
pub struct Taps {
    journal: Option<PathBuf>,
    timeline: Option<String>,
    /// The registry `--live-metrics` streams, and its sampler.
    live: Option<(SharedRegistry, Sampler)>,
}

impl Taps {
    /// Enables the journal, then the timeline, then starts the sampler.
    /// `Err` is a runtime failure (exit 1).
    pub fn start(opts: &TapOpts) -> Result<Taps, String> {
        if let Some(path) = &opts.log {
            let cfg = obs::log::LogConfig {
                level: opts.log_level,
                file: Some(path.clone()),
                ..obs::log::LogConfig::default()
            };
            obs::log::enable(&cfg)
                .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        }
        if opts.timeline.is_some() {
            obs::timeline::enable(TIMELINE_CAPACITY);
            obs::timeline::set_thread_name("main");
        }
        // Workers merge finished cells into the shared registry in
        // completion order and the sampler streams delta snapshots of it.
        let live = match &opts.live_metrics {
            None => None,
            Some(dest) => {
                let writer: Box<dyn std::io::Write + Send> = if dest == "-" {
                    Box::new(std::io::stdout())
                } else {
                    Box::new(
                        std::fs::File::create(dest)
                            .map_err(|e| format!("cannot write {dest}: {e}"))?,
                    )
                };
                let registry = SharedRegistry::new();
                let period = Duration::from_millis(opts.live_interval_ms);
                let sampler = Sampler::start(registry.clone(), period, Some(writer));
                Some((registry, sampler))
            }
        };
        Ok(Taps {
            journal: opts.log.clone(),
            timeline: opts.timeline.clone(),
            live,
        })
    }

    /// The registry the sampler streams, when `--live-metrics` is on.
    pub fn live(&self) -> Option<&SharedRegistry> {
        self.live.as_ref().map(|(registry, _)| registry)
    }

    /// Exports the timeline (reporting dropped events), stops the sampler,
    /// then disables the journal, printing a summary line for each.
    /// `Err` is a runtime failure (exit 1).
    pub fn finish(self) -> Result<(), String> {
        // Timeline teardown happens before the sampler's final snapshot so
        // a ring overflow surfaces in the live stream
        // (`timeline.dropped_events`) as well as the journal.
        if let Some(dest) = &self.timeline {
            obs::timeline::disable();
            let dropped = obs::timeline::dropped();
            if dropped > 0 {
                obs::log::warn(
                    "harness.timeline",
                    "timeline ring overflowed; events dropped",
                    &[("dropped", obs::log::Value::from(dropped))],
                );
                if let Some((live, _)) = &self.live {
                    live.with(|r| {
                        let g = r.gauge("timeline.dropped_events");
                        r.set_gauge(g, dropped as f64);
                    });
                }
            }
            let text = obs::timeline::export().to_json();
            std::fs::write(dest, text + "\n").map_err(|e| format!("cannot write {dest}: {e}"))?;
            eprintln!(
                "timeline: {} events ({dropped} dropped) -> {dest}",
                obs::timeline::recorded(),
            );
        }
        if let Some((_, sampler)) = self.live {
            let log = sampler.stop();
            if !log.stream_ok {
                eprintln!("warning: live-metrics stream write failed");
            }
            eprintln!("live-metrics: {} snapshots", log.taken);
        }
        if let Some(path) = self.journal {
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_overflow_reaches_the_journal_and_the_live_stream() {
        let dir = std::env::temp_dir().join(format!("gdiff-taps-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("taps.journal");
        let opts = TapOpts {
            log: Some(journal.clone()),
            timeline: Some(dir.join("timeline.json").display().to_string()),
            live_metrics: Some(dir.join("live.ndjson").display().to_string()),
            ..TapOpts::default()
        };
        let taps = Taps::start(&opts).unwrap();
        // A tiny ring that ten events overflow.
        obs::timeline::enable(4);
        for _ in 0..10 {
            obs::timeline::instant("taps.overflow", "test");
        }
        let live = taps.live().expect("--live-metrics is on").clone();
        taps.finish().unwrap();

        let gauge = live.with(|r| r.gauge_by_name("timeline.dropped_events"));
        assert!(gauge.is_some_and(|g| g >= 6.0), "gauge {gauge:?}");
        let records = obs::log::read_journal(&journal).unwrap().records;
        assert!(
            records.iter().any(|r| r.level == obs::log::Level::Warn
                && r.msg == "timeline ring overflowed; events dropped"),
            "no overflow warning in {records:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
