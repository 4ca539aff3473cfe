//! Per-session predictor state and the §3 profile-mode feed loop.
//!
//! Each serve session owns exactly what a one-shot profile run owns — a
//! [`GDiffPredictor`] (its table plus its Global Value Queue) and a
//! [`PredictorStats`] — and drives them with the *same* loop
//! `harness::profile::run_profile_on` uses: every value-producing
//! instruction is predicted, recorded once past the warmup, and used to
//! update the predictor, in program order, up to `warmup + measure`
//! producers. That is what makes a streamed session's report bit-identical
//! to the same-seed one-shot run.

use gdiff::GDiffPredictor;
use obs::health::{HealthConfig, HealthEvent, HealthMonitor};
use obs::JsonValue;
use predictors::{Capacity, PredictorStats, ValuePredictor};
use workloads::DynInst;

/// Schema tag of the final session report payload.
pub const REPORT_SCHEMA: &str = "gdiff-serve-report/v1";

/// Schema tag of the per-session HEALTH payload.
pub const HEALTH_SCHEMA: &str = "gdiff-serve-health/v1";

/// Largest value delay T a HELLO may ask for. The delay FIFO is sized by
/// T when the session opens, so an unchecked T would let a client make
/// the daemon allocate any amount; 2^16 is far above the paper's T range.
pub const MAX_DELAY: usize = 1 << 16;

/// Largest bounded prediction table (entries) a HELLO may ask for, and the
/// entry cap of an unbounded (`table=0`) session, which is killed with
/// `table-full` once a chunk leaves its table past it.
///
/// A bounded table is allocated whole when the session opens: 2^16 gDiff
/// entries are ~35 MB, eight times the paper's 8K-entry table. An
/// unbounded one is checked only after each chunk, and a chunk carries up
/// to `DEFAULT_CHUNK_CAP` = 2^16 records, so it can hold 2^17 entries when
/// the check fires. Its `HashMap` keeps buckets at most 7/8 full, so that
/// is 2^18 buckets of 528 B (a PC and a `GDiffEntry`): ~138 MB per
/// session, plus the ~69 MB table it grew out of while that last resize
/// copies.
pub const MAX_TABLE_ENTRIES: usize = 1 << 16;

/// Parameters a client proposes in its HELLO frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionParams {
    /// Session name (metric label): `[A-Za-z0-9_-]`, 1..=64 chars.
    pub name: String,
    /// Global Value Queue order.
    pub order: usize,
    /// Prediction table entries: 0 = unbounded, otherwise a power of two
    /// up to [`MAX_TABLE_ENTRIES`].
    pub table: usize,
    /// Value delay T (0 = immediate update, the §3 default), at most
    /// [`MAX_DELAY`].
    pub delay: usize,
    /// Producers consumed before measurement starts.
    pub warmup: u64,
    /// Producers measured after the warmup.
    pub measure: u64,
    /// Hold processing until a RESUME frame arrives (used by tests to
    /// exercise backpressure deterministically).
    pub hold: bool,
}

impl Default for SessionParams {
    fn default() -> Self {
        SessionParams {
            name: "default".to_string(),
            order: 8,
            table: 0,
            delay: 0,
            warmup: 0,
            measure: u64::MAX,
            hold: false,
        }
    }
}

/// Why a HELLO payload was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadHello(pub String);

impl std::fmt::Display for BadHello {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for BadHello {}

/// Whether `name` is a legal session name (safe as a metric label and as
/// the middle segment of a dotted metric name).
pub fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

impl SessionParams {
    /// Parses and validates a HELLO JSON payload.
    ///
    /// Required: `schema` = [`crate::PROTOCOL_SCHEMA`] and a valid
    /// `session` name. Everything else defaults as in [`Default`].
    pub fn from_hello(v: &JsonValue) -> Result<SessionParams, BadHello> {
        let schema = v.path("schema").and_then(|s| s.as_str()).unwrap_or("");
        if schema != crate::PROTOCOL_SCHEMA {
            return Err(BadHello(format!(
                "hello schema {schema:?} is not {:?}",
                crate::PROTOCOL_SCHEMA
            )));
        }
        let name = v
            .path("session")
            .and_then(|s| s.as_str())
            .ok_or_else(|| BadHello("hello carries no session name".into()))?;
        if !valid_session_name(name) {
            return Err(BadHello(format!(
                "session name {name:?} is not [A-Za-z0-9_-]{{1,64}}"
            )));
        }
        let uint = |key: &str, default: u64| -> Result<u64, BadHello> {
            match v.path(key) {
                None => Ok(default),
                Some(j) => {
                    let n = j
                        .as_f64()
                        .ok_or_else(|| BadHello(format!("{key} is not a number")))?;
                    if n < 0.0 || n.fract() != 0.0 {
                        return Err(BadHello(format!("{key} is not a non-negative integer")));
                    }
                    Ok(n as u64)
                }
            }
        };
        // The core's diff entries are fixed MAX_ORDER-lane arrays; an order
        // past that would panic in GDiffCore::new, so reject it at HELLO.
        let order = uint("order", 8)?;
        if order == 0 || order > gdiff::MAX_ORDER as u64 {
            return Err(BadHello(format!(
                "order {order} outside 1..={}",
                gdiff::MAX_ORDER
            )));
        }
        let table = uint("table", 0)?;
        if table != 0 && !(table.is_power_of_two() && table <= MAX_TABLE_ENTRIES as u64) {
            return Err(BadHello(format!(
                "table {table} is neither 0 nor a power of two up to {MAX_TABLE_ENTRIES}"
            )));
        }
        let delay = uint("delay", 0)?;
        if delay > MAX_DELAY as u64 {
            return Err(BadHello(format!("delay {delay} exceeds {MAX_DELAY}")));
        }
        let hold = match v.path("hold") {
            None => false,
            Some(JsonValue::Bool(b)) => *b,
            Some(_) => return Err(BadHello("hold is not a bool".into())),
        };
        Ok(SessionParams {
            name: name.to_string(),
            order: order as usize,
            table: table as usize,
            delay: delay as usize,
            warmup: uint("warmup", 0)?,
            measure: match v.path("measure") {
                None => u64::MAX,
                Some(_) => uint("measure", u64::MAX)?,
            },
            hold,
        })
    }

    /// The HELLO payload proposing these parameters.
    pub fn to_hello(&self) -> JsonValue {
        let mut v = JsonValue::object()
            .with("schema", crate::PROTOCOL_SCHEMA)
            .with("session", self.name.as_str())
            .with("order", self.order as u64)
            .with("table", self.table as u64)
            .with("delay", self.delay as u64)
            .with("warmup", self.warmup);
        if self.measure != u64::MAX {
            v.set("measure", self.measure);
        }
        if self.hold {
            v.set("hold", true);
        }
        v
    }
}

/// One session's predictor state plus progress counters.
#[derive(Debug)]
pub struct SessionCore {
    params: SessionParams,
    predictor: GDiffPredictor,
    stats: PredictorStats,
    /// Value producers consumed so far (bounded by warmup + measure).
    producers: u64,
    /// Chunks processed (fed, not merely accepted).
    chunks: u64,
    /// Raw records fed (producers and non-producers alike).
    records: u64,
    /// Online accuracy health. Live-only: it observes the same resolved
    /// predictions the stats do, and nothing it computes reaches the
    /// deterministic report/progress payloads.
    health: HealthMonitor,
    /// Health transitions since the last [`SessionCore::take_health_events`].
    pending_health: Vec<HealthEvent>,
}

impl SessionCore {
    /// Fresh predictor state for one session.
    pub fn new(params: SessionParams) -> SessionCore {
        let cap = if params.table == 0 {
            Capacity::Unbounded
        } else {
            Capacity::Entries(params.table)
        };
        let predictor = GDiffPredictor::with_delay(cap, params.order, params.delay);
        SessionCore {
            params,
            predictor,
            stats: PredictorStats::new(),
            producers: 0,
            chunks: 0,
            records: 0,
            health: HealthMonitor::new(HealthConfig::default()),
            pending_health: Vec::new(),
        }
    }

    /// The parameters the session was opened with.
    pub fn params(&self) -> &SessionParams {
        &self.params
    }

    /// Live entries of an unbounded (`table=0`) session's prediction
    /// table, in O(1); `None` for a bounded table, whose size HELLO fixed.
    pub fn unbounded_entries(&self) -> Option<usize> {
        (self.params.table == 0).then(|| self.predictor.core().geometry().occupied)
    }

    /// Feeds one decoded chunk through the profile-mode loop.
    ///
    /// Mirrors `run_profile_on` exactly: non-producers are skipped,
    /// producers past `warmup + measure` are ignored (the one-shot run's
    /// `take`), each counted producer is predicted and trained in one
    /// [`step`](ValuePredictor::step), then recorded once past the warmup.
    pub fn feed_chunk(&mut self, insts: &[DynInst]) {
        let limit = self.params.warmup.saturating_add(self.params.measure);
        self.records += insts.len() as u64;
        self.chunks += 1;
        for inst in insts {
            if !inst.produces_value() {
                continue;
            }
            if self.producers >= limit {
                continue;
            }
            let predicted = self.predictor.step(inst.pc, inst.value);
            let past_warmup = self.producers >= self.params.warmup;
            if past_warmup {
                self.stats.record(predicted, false, inst.value);
            }
            // The health tap rides the same resolved stream the stats
            // see; it feeds journal events and HEALTH frames only, never
            // the deterministic report.
            if let Some(ev) = self.health.on_resolved(
                predicted.is_some(),
                predicted == Some(inst.value),
                past_warmup,
            ) {
                self.pending_health.push(ev);
            }
            self.producers += 1;
        }
    }

    /// Accumulated accuracy statistics.
    pub fn stats(&self) -> &PredictorStats {
        &self.stats
    }

    /// The online health monitor (read-only view).
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Marks the session's health killed (containment logs the reason).
    pub fn kill_health(&mut self) {
        self.health.kill();
    }

    /// Drains health transitions accumulated since the last call, in
    /// stream order. The worker turns these into journal records and
    /// gauge flips after each chunk.
    pub fn take_health_events(&mut self) -> Vec<HealthEvent> {
        std::mem::take(&mut self.pending_health)
    }

    /// The [`HEALTH_SCHEMA`] payload for this session.
    pub fn health_json(&self) -> JsonValue {
        self.health
            .to_json()
            .with("schema", HEALTH_SCHEMA)
            .with("session", self.params.name.as_str())
    }

    /// Chunks fed so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Raw records fed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Value producers consumed so far.
    pub fn producers(&self) -> u64 {
        self.producers
    }

    /// Coverage as the serve layer reports it: the fraction of measured
    /// producers that received *any* prediction (`predicted / total`).
    /// Profile mode has no confidence gate, so the gated coverage of the
    /// one-shot run is identically zero; this is the informative ratio,
    /// and it is derived from the same counters the one-shot run produces.
    pub fn coverage(&self) -> f64 {
        if self.stats.total() == 0 {
            0.0
        } else {
            self.stats.predicted() as f64 / self.stats.total() as f64
        }
    }

    /// The cumulative progress object carried by ACK frames.
    pub fn progress_json(&self) -> JsonValue {
        JsonValue::object()
            .with("chunks", self.chunks)
            .with("records", self.records)
            .with("producers", self.producers)
            .with("total", self.stats.total())
            .with("predicted", self.stats.predicted())
            .with("correct", self.stats.correct())
            .with("accuracy", self.stats.accuracy())
    }

    /// The final [`REPORT_SCHEMA`] payload. `reason` is `"bye"` for a
    /// client-closed stream or `"shutdown"` for a daemon-drained one.
    pub fn report_json(&self, reason: &str) -> JsonValue {
        JsonValue::object()
            .with("schema", REPORT_SCHEMA)
            .with("session", self.params.name.as_str())
            .with("reason", reason)
            .with("chunks", self.chunks)
            .with("records", self.records)
            .with("producers", self.producers)
            .with("total", self.stats.total())
            .with("predicted", self.stats.predicted())
            .with("correct", self.stats.correct())
            .with("accuracy", self.stats.accuracy())
            .with("coverage", self.coverage())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Benchmark, SyntheticSource, TraceSource};

    fn hello(extra: impl FnOnce(&mut JsonValue)) -> JsonValue {
        let mut v = JsonValue::object()
            .with("schema", crate::PROTOCOL_SCHEMA)
            .with("session", "gcc");
        extra(&mut v);
        v
    }

    #[test]
    fn hello_parses_and_round_trips() {
        let v = hello(|v| {
            v.set("order", 32u64);
            v.set("warmup", 100u64);
            v.set("measure", 500u64);
        });
        let p = SessionParams::from_hello(&v).unwrap();
        assert_eq!(p.order, 32);
        assert_eq!(p.warmup, 100);
        assert_eq!(p.measure, 500);
        assert_eq!(SessionParams::from_hello(&p.to_hello()).unwrap(), p);
    }

    #[test]
    fn hello_rejects_bad_input() {
        // Wrong schema.
        let v = JsonValue::object()
            .with("schema", "nope")
            .with("session", "x");
        assert!(SessionParams::from_hello(&v).is_err());
        // Bad names.
        for name in ["", "has space", "dot.ted", &"x".repeat(65)] {
            let v = JsonValue::object()
                .with("schema", crate::PROTOCOL_SCHEMA)
                .with("session", name);
            assert!(SessionParams::from_hello(&v).is_err(), "name {name:?}");
        }
        // Bad numerics.
        assert!(SessionParams::from_hello(&hello(|v| {
            v.set("order", 0u64);
        }))
        .is_err());
        // An order past the core's MAX_ORDER lane width would panic the
        // predictor constructor; HELLO must reject it instead.
        assert!(SessionParams::from_hello(&hello(|v| {
            v.set("order", gdiff::MAX_ORDER as u64 + 1);
        }))
        .is_err());
        assert!(SessionParams::from_hello(&hello(|v| {
            v.set("order", gdiff::MAX_ORDER as u64);
        }))
        .is_ok());
        assert!(SessionParams::from_hello(&hello(|v| {
            v.set("warmup", -3.0);
        }))
        .is_err());
        // A table the predictor constructor would panic on, or one big
        // enough to exhaust memory, is refused; so is a delay that sizes
        // an absurd FIFO.
        for table in [3u64, 12, 2 * MAX_TABLE_ENTRIES as u64, 1 << 40] {
            assert!(
                SessionParams::from_hello(&hello(|v| {
                    v.set("table", table);
                }))
                .is_err(),
                "table {table}"
            );
        }
        for table in [0u64, 1, 8192, MAX_TABLE_ENTRIES as u64] {
            assert!(
                SessionParams::from_hello(&hello(|v| {
                    v.set("table", table);
                }))
                .is_ok(),
                "table {table}"
            );
        }
        for delay in [MAX_DELAY as u64 + 1, 1 << 40] {
            assert!(
                SessionParams::from_hello(&hello(|v| {
                    v.set("delay", delay);
                }))
                .is_err(),
                "delay {delay}"
            );
        }
        assert!(SessionParams::from_hello(&hello(|v| {
            v.set("delay", MAX_DELAY as u64);
        }))
        .is_ok());
        assert!(SessionParams::from_hello(&hello(|v| {
            v.set("measure", 1.5);
        }))
        .is_err());
    }

    /// The core invariant of the whole subsystem: chunked feeding equals
    /// the one-shot profile loop, whatever the chunk boundaries.
    #[test]
    fn chunked_feed_matches_one_shot_loop() {
        let source = SyntheticSource::new(42);
        let (warmup, measure) = (200u64, 1_500u64);
        let insts: Vec<DynInst> = source.stream(Benchmark::Gcc).take(6_000).collect();

        // One-shot reference, the run_profile_on loop verbatim.
        let mut reference = PredictorStats::new();
        let mut p = GDiffPredictor::new(Capacity::Unbounded, 8);
        for (n, inst) in insts
            .iter()
            .filter(|i| i.produces_value())
            .take((warmup + measure) as usize)
            .enumerate()
        {
            let predicted = p.predict(inst.pc);
            if (n as u64) >= warmup {
                reference.record(predicted, false, inst.value);
            }
            p.update(inst.pc, inst.value);
        }

        for chunk_size in [1usize, 7, 64, 1024, 6_000] {
            let mut core = SessionCore::new(SessionParams {
                name: "gcc".into(),
                order: 8,
                table: 0,
                delay: 0,
                warmup,
                measure,
                hold: false,
            });
            for chunk in insts.chunks(chunk_size) {
                core.feed_chunk(chunk);
            }
            assert_eq!(core.stats(), &reference, "chunk size {chunk_size}");
            assert_eq!(core.producers(), warmup + measure);
        }
    }
}
