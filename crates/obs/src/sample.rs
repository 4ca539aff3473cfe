//! Periodic, delta-compressed registry snapshots for live progress.
//!
//! Post-mortem metrics (the `--json` report) are useless while a
//! long-running sweep or serve daemon is still going. This module samples
//! a [`SharedRegistry`] — a mutex-wrapped [`Registry`] that coarse-grained
//! producers (the scheduler, at cell completion) merge into — on a
//! background thread at a fixed interval, keeps a bounded ring of
//! snapshots, and optionally streams each snapshot as one line of
//! newline-delimited JSON (schema [`SCHEMA`]).
//!
//! The design keeps observation cost off the measured path:
//!
//! * the per-instruction hot loops never touch the shared registry — they
//!   run against worker-private registries exactly as before, and only the
//!   existing cell-completion merge (a handful of locks per run) feeds the
//!   live view;
//! * snapshots are *delta-compressed*: each record carries only the
//!   counters/gauges/histograms that changed since the previous snapshot,
//!   so a quiet interval costs a few bytes;
//! * the ring is fixed-size — a runaway run drops the oldest snapshots
//!   rather than growing without bound.
//!
//! The sampler always emits one snapshot at start (the baseline) and one
//! at [`Sampler::stop`], so even a run shorter than the interval produces
//! a parseable stream of at least two records.

use crate::json::JsonValue;
use crate::metrics::Registry;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Schema tag carried by every snapshot record.
pub const SCHEMA: &str = "gdiff-metrics-snapshot/v1";

/// A [`Registry`] behind an `Arc<Mutex>`: the live view producers merge
/// into and the [`Sampler`] reads. Cloning shares the underlying registry.
#[derive(Debug, Clone, Default)]
pub struct SharedRegistry {
    inner: Arc<Mutex<Registry>>,
}

impl SharedRegistry {
    /// An empty shared registry.
    pub fn new() -> Self {
        SharedRegistry::default()
    }

    /// Merges a private registry in (the scheduler's cell-completion hook).
    /// Same semantics as [`Registry::merge`].
    pub fn merge(&self, other: &Registry) {
        self.inner.lock().unwrap().merge(other);
    }

    /// Runs `f` against the live registry under the lock — for direct
    /// gauge/histogram updates that have no private registry to merge.
    pub fn with<T>(&self, f: impl FnOnce(&mut Registry) -> T) -> T {
        f(&mut self.inner.lock().unwrap())
    }

    /// A point-in-time copy of the live registry.
    pub fn snapshot(&self) -> Registry {
        self.inner.lock().unwrap().clone()
    }
}

/// One captured snapshot: its sequence number, wall-clock offset, and the
/// delta-compressed record (already in [`SCHEMA`] shape).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Snapshot sequence number (0 is the start-of-run baseline).
    pub seq: u64,
    /// Milliseconds since the sampler started.
    pub elapsed_ms: u64,
    /// The `gdiff-metrics-snapshot/v1` record.
    pub record: JsonValue,
}

/// What a finished sampler hands back.
#[derive(Debug)]
pub struct SampleLog {
    /// The retained snapshots, oldest first (bounded by the ring size).
    pub snapshots: VecDeque<Snapshot>,
    /// Snapshots taken in total, including ones the ring dropped.
    pub taken: u64,
    /// Snapshots evicted from the ring.
    pub dropped: u64,
    /// Whether every stream write succeeded (`true` with no writer).
    pub stream_ok: bool,
}

/// Computes the delta record between two registry states. Only changed
/// metrics appear: counters as increments, gauges as new values,
/// histograms as `{total_delta, total, mean, p50, p99}` summaries.
pub fn delta(prev: &Registry, cur: &Registry) -> JsonValue {
    let mut counters = JsonValue::object();
    for (name, v) in cur.counters_iter() {
        let d = v - prev.counter_by_name(name).unwrap_or(0);
        if d != 0 {
            counters.set(name, d);
        }
    }
    let mut gauges = JsonValue::object();
    for (name, v) in cur.gauges_iter() {
        if prev.gauge_by_name(name) != Some(v) {
            gauges.set(name, v);
        }
    }
    let mut histograms = JsonValue::object();
    for (name, h) in cur.histograms_iter() {
        let prev_total = prev.histogram_by_name(name).map(|p| p.total()).unwrap_or(0);
        if h.total() != prev_total {
            histograms.set(
                name,
                JsonValue::object()
                    .with("total_delta", h.total() - prev_total)
                    .with("total", h.total())
                    .with("mean", h.mean())
                    .with("p50", h.p50())
                    .with("p99", h.p99()),
            );
        }
    }
    JsonValue::object()
        .with("counters", counters)
        .with("gauges", gauges)
        .with("histograms", histograms)
}

fn make_record(seq: u64, elapsed_ms: u64, body: JsonValue) -> JsonValue {
    let mut rec = JsonValue::object()
        .with("schema", SCHEMA)
        .with("seq", seq)
        .with("elapsed_ms", elapsed_ms);
    if let JsonValue::Obj(entries) = body {
        for (k, v) in entries {
            rec.set(k, v);
        }
    }
    rec
}

struct Worker {
    shared: SharedRegistry,
    interval: Duration,
    ring_cap: usize,
    writer: Option<Box<dyn Write + Send>>,
    stop: Arc<AtomicBool>,
}

impl Worker {
    /// Takes one snapshot per interval after the baseline that
    /// [`Sampler::start`] took into `log`/`prev`, then a final one so
    /// short runs still produce a complete stream.
    fn run(mut self, start: Instant, mut log: SampleLog, mut prev: Registry) -> SampleLog {
        while !self.stop.load(Ordering::Relaxed) {
            // Sleep in small slices so stop() returns promptly even with
            // multi-second intervals.
            let mut slept = Duration::ZERO;
            while slept < self.interval && !self.stop.load(Ordering::Relaxed) {
                let slice = (self.interval - slept).min(Duration::from_millis(20));
                std::thread::sleep(slice);
                slept += slice;
            }
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            self.take(&mut log, &mut prev, start);
        }
        self.take(&mut log, &mut prev, start);
        if let Some(w) = &mut self.writer {
            log.stream_ok &= w.flush().is_ok();
        }
        log
    }

    fn take(&mut self, log: &mut SampleLog, prev: &mut Registry, start: Instant) {
        let cur = self.shared.snapshot();
        let record = make_record(
            log.taken,
            start.elapsed().as_millis() as u64,
            delta(prev, &cur),
        );
        if let Some(w) = &mut self.writer {
            if log.stream_ok {
                let line = record.to_json();
                log.stream_ok &= w.write_all(line.as_bytes()).is_ok() && w.write_all(b"\n").is_ok();
                // Live consumers tail the stream; don't sit in a buffer.
                log.stream_ok &= w.flush().is_ok();
            }
        }
        log.snapshots.push_back(Snapshot {
            seq: log.taken,
            elapsed_ms: start.elapsed().as_millis() as u64,
            record,
        });
        if log.snapshots.len() > self.ring_cap {
            log.snapshots.pop_front();
            log.dropped += 1;
        }
        log.taken += 1;
        *prev = cur;
    }
}

/// The background snapshot sampler. Create with [`Sampler::start`],
/// finish with [`Sampler::stop`].
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<SampleLog>,
}

impl Sampler {
    /// Takes a baseline snapshot on the caller's thread — so it precedes
    /// every merge the caller makes after `start` returns — then spawns
    /// the sampling thread: one snapshot every `interval`, and a final one
    /// at [`stop`](Self::stop). The ring retains the most recent
    /// `ring_cap` snapshots; `writer`, when given, receives each snapshot
    /// as one NDJSON line (flushed per line).
    pub fn start(
        shared: SharedRegistry,
        interval: Duration,
        ring_cap: usize,
        writer: Option<Box<dyn Write + Send>>,
    ) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let mut worker = Worker {
            shared,
            interval: interval.max(Duration::from_millis(1)),
            ring_cap: ring_cap.max(2),
            writer,
            stop: stop.clone(),
        };
        let start = Instant::now();
        let mut log = SampleLog {
            snapshots: VecDeque::new(),
            taken: 0,
            dropped: 0,
            stream_ok: true,
        };
        let mut prev = Registry::new();
        worker.take(&mut log, &mut prev, start);
        let thread = std::thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || worker.run(start, log, prev))
            .expect("spawn sampler thread");
        Sampler { stop, thread }
    }

    /// Stops the sampler, takes the final snapshot, and returns the log.
    pub fn stop(self) -> SampleLog {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("sampler thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_carries_only_changes() {
        let mut prev = Registry::new();
        let c = prev.counter("a");
        prev.add(c, 5);
        let _quiet = prev.counter("quiet");
        let g = prev.gauge("g");
        prev.set_gauge(g, 1.0);
        let h = prev.histogram("h", 8);
        prev.observe(h, 2);

        let mut cur = prev.clone();
        let c = cur.counter("a");
        cur.add(c, 3);
        let g2 = cur.gauge("g2");
        cur.set_gauge(g2, 9.5);
        let h = cur.histogram("h", 8);
        cur.observe(h, 4);
        cur.observe(h, 4);

        let d = delta(&prev, &cur);
        assert_eq!(d.path("counters.a").and_then(|v| v.as_f64()), Some(3.0));
        assert!(d.path("counters.quiet").is_none(), "unchanged counter");
        assert!(d.path("gauges.g").is_none(), "unchanged gauge");
        assert_eq!(d.path("gauges.g2").and_then(|v| v.as_f64()), Some(9.5));
        assert_eq!(
            d.path("histograms.h.total_delta").and_then(|v| v.as_f64()),
            Some(2.0)
        );
        assert_eq!(
            d.path("histograms.h.p99").and_then(|v| v.as_f64()),
            Some(4.0)
        );
    }

    #[test]
    fn sampler_emits_baseline_and_final_snapshots() {
        let shared = SharedRegistry::new();
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sampler = Sampler::start(
            shared.clone(),
            Duration::from_secs(3600), // no periodic tick within the test
            16,
            Some(Box::new(SharedBuf(buf.clone()))),
        );
        let mut private = Registry::new();
        let c = private.counter("work.done");
        private.add(c, 7);
        shared.merge(&private);
        let log = sampler.stop();

        assert_eq!(log.taken, 2, "baseline + final");
        assert!(log.stream_ok);
        assert_eq!(log.snapshots.len(), 2);
        let finals = &log.snapshots[1].record;
        assert_eq!(finals.path("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        // Dots in metric names: index with get, not path.
        let counters = finals.get("counters").unwrap();
        assert_eq!(
            counters.get("work.done").and_then(|v| v.as_f64()),
            Some(7.0)
        );

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let rec = JsonValue::parse(line).expect("each line is standalone JSON");
            assert_eq!(rec.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        }
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let shared = SharedRegistry::new();
        let sampler = Sampler::start(shared.clone(), Duration::from_millis(5), 4, None);
        // Keep mutating so every tick produces a distinct snapshot.
        for i in 0..20 {
            shared.with(|r| {
                let c = r.counter("tick");
                r.add(c, i + 1);
            });
            std::thread::sleep(Duration::from_millis(5));
        }
        let log = sampler.stop();
        assert!(log.taken >= 4, "took {} snapshots", log.taken);
        assert!(log.snapshots.len() <= 4);
        assert_eq!(log.dropped, log.taken - log.snapshots.len() as u64);
        // Sequence numbers stay contiguous and end at the final snapshot.
        let seqs: Vec<u64> = log.snapshots.iter().map(|s| s.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "{seqs:?}");
        assert_eq!(*seqs.last().unwrap(), log.taken - 1);
    }
}
