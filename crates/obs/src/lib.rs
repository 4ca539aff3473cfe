//! Zero-dependency telemetry for the gdiff workspace.
//!
//! Everything here is std-only and hand-rolled, because the build
//! environment has no registry access and the simulator's hot loops
//! cannot afford heavyweight instrumentation:
//!
//! - [`metrics`] — a registry of named counters, gauges, and mergeable
//!   linear-bucket histograms (p50/p90/p99). Hot paths update through
//!   pre-resolved ids; the harness exports the whole registry as JSON.
//! - [`trace`] — a global, cycle-stamped ring-buffer event tracer for
//!   pipeline lifecycle events and predictor decisions. Off by default;
//!   when off each trace site costs one relaxed atomic load.
//! - [`span`](mod@span) — RAII wall-time spans aggregated per name, for
//!   per-experiment timing in run reports.
//! - [`json`] — a small JSON value tree with a writer and a strict
//!   parser, used for the harness's machine-readable `--json` reports.
//! - [`provenance`] — per-PC / per-distance / per-delay attribution of
//!   value-prediction outcomes, with a bounded flight recorder for
//!   mispredict forensics. Merges deterministically like [`Registry`].
//! - [`sample`] — a background thread sampling a shared registry into
//!   bounded, delta-compressed snapshots, streamed as NDJSON for live
//!   progress (`--live-metrics`).
//! - [`timeline`] — begin/end/instant lifecycle events exported as Chrome
//!   trace-event JSON (`--timeline`), one track per worker thread.
//! - [`expose`] — Prometheus text-format exposition of a registry and the
//!   span table (`export-metrics`, the future serve daemon's `/metrics`).
//! - [`log`] — a structured, leveled event journal: a bounded in-memory
//!   ring of typed records plus a CRC-framed on-disk writer with
//!   size-based rotation (`--log`, `harness logs`). The daemon's flight
//!   recorder: every containment decision leaves a record.
//! - [`health`] — per-session online accuracy monitoring: windowed
//!   accuracy/coverage, an EWMA baseline frozen at end-of-warmup, and a
//!   Page–Hinkley drift detector feeding journal events and a
//!   `serve_session_health` gauge.

#![forbid(unsafe_code)]

pub mod expose;
pub mod health;
pub mod json;
pub mod log;
pub mod metrics;
pub mod provenance;
mod ring;
pub mod sample;
pub mod span;
pub mod timeline;
pub mod trace;

pub use health::{HealthConfig, HealthEvent, HealthMonitor, HealthState};
pub use json::JsonValue;
pub use log::{Level, LogConfig};
pub use metrics::{CounterId, GaugeId, Histogram, HistogramId, Meter, Registry};
pub use provenance::{
    FlightRecorder, NullSink, PredictionMade, PredictionResolved, Provenance, ProvenanceSink,
};
pub use sample::{Sampler, SharedRegistry};
pub use span::{span, SpanGuard, SpanStats};
pub use trace::{tracer, TraceEvent, TraceKind, Tracer};
