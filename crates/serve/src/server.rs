//! The daemon: listener, session table, eviction, backpressure, shutdown.
//!
//! # Threading model
//!
//! One accept loop (nonblocking listener, polled so it can notice the
//! shutdown flag) spawns one handler thread per connection. A streaming
//! session splits into a *reader* (this handler thread: frame parsing,
//! sequencing, admission) and a *worker* (predictor feeding, ACKs), joined
//! by a bounded [`std::sync::mpsc::sync_channel`]. Nothing in the daemon
//! buffers without bound:
//!
//! * **per-session backpressure** — the chunk queue holds at most
//!   `queue_depth` chunks; a chunk arriving to a full queue is *refused*
//!   with a [`frame::BUSY`] frame naming the next accepted sequence
//!   number, and the client resends from there (go-back-N);
//! * **global backpressure** — at most `global_queue` chunks may be queued
//!   across all sessions; beyond that every session answers Busy;
//! * **sequencing** — a chunk is accepted only if its sequence number is
//!   exactly the next unaccepted one, so refusals never reorder or
//!   duplicate predictor updates, which would silently change results.
//!
//! # Failure containment
//!
//! A malformed frame (bad magic, bad CRC, oversized, truncated) or a
//! corrupt embedded chunk kills *that session* — the client gets one
//! [`frame::ERROR`] frame naming the problem, the worker drains, the
//! connection closes — and never the daemon. Eviction (session table full)
//! and daemon shutdown reuse the same path: mark the slot, wake its
//! blocked reader by shutting down the socket's read half, let the worker
//! drain in-flight chunks, and — on daemon shutdown — send each drained
//! session a final [`frame::REPORT`] with `reason: "shutdown"`.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use obs::health::HealthState;
use obs::log::{self as jlog, Value};
use obs::sample::SharedRegistry;
use obs::JsonValue;
use tracefile::{decode_wire_chunk_with_crc, DEFAULT_CHUNK_CAP};

use crate::frame::{self, Frame, FrameError};
use crate::session::{SessionCore, SessionParams, HEALTH_SCHEMA, MAX_TABLE_ENTRIES};

/// Schema tag of STATUS frame payloads.
pub const STATUS_SCHEMA: &str = "gdiff-serve-status/v1";

/// Upper bound on remembered per-session health entries (live sessions
/// plus recently ended ones a control connection can still ask about).
const HEALTH_HISTORY: usize = 256;

/// Daemon limits.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum live sessions; admitting one more evicts the least
    /// recently active. Must be at least 1.
    pub max_sessions: usize,
    /// Bounded per-session inbound chunk queue.
    pub queue_depth: usize,
    /// Bound on queued chunks across *all* sessions.
    pub global_queue: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 10,
            queue_depth: 16,
            global_queue: 64,
        }
    }
}

/// One live session's daemon-side handle: what eviction and shutdown need
/// to reach it from outside its own threads.
struct SessionSlot {
    name: String,
    /// Logical LRU clock tick of the last frame this session received.
    last_active: AtomicU64,
    /// Set when the session is being evicted (suppresses the usual
    /// read-error handling in its reader).
    kill: AtomicBool,
    /// The socket, for waking a blocked reader. `None` in stdio mode.
    raw: Option<UnixStream>,
    /// The shared write half (reader and worker both send frames).
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl SessionSlot {
    fn wake_reader(&self) {
        if let Some(raw) = &self.raw {
            let _ = raw.shutdown(std::net::Shutdown::Read);
        }
    }
}

/// Shared daemon state.
pub struct ServerState {
    cfg: ServeConfig,
    live: SharedRegistry,
    shutdown: AtomicBool,
    /// Chunks accepted but not yet processed, across all sessions.
    queued: AtomicUsize,
    /// Logical clock for LRU ordering.
    clock: AtomicU64,
    next_id: AtomicU64,
    table: Mutex<HashMap<u64, Arc<SessionSlot>>>,
    /// Every open connection's socket, session or not, so shutdown can
    /// wake blocked readers instead of waiting on them.
    conns: Mutex<HashMap<u64, UnixStream>>,
    /// Last-known health per session name (live and recently ended),
    /// served to control connections via HEALTH frames. Bounded at
    /// [`HEALTH_HISTORY`]; oldest entries fall off first. The `u64` is
    /// the LRU clock tick of the last update.
    health_map: Mutex<HashMap<String, (u64, JsonValue)>>,
}

impl ServerState {
    fn new(cfg: ServeConfig) -> Arc<ServerState> {
        let state = Arc::new(ServerState {
            cfg,
            live: SharedRegistry::new(),
            shutdown: AtomicBool::new(false),
            queued: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            table: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            health_map: Mutex::new(HashMap::new()),
        });
        // Pre-register the daemon-level families so a scrape of an idle
        // daemon already shows them at zero.
        state.live.with(|r| {
            for name in [
                "serve.sessions_started",
                "serve.chunks",
                "serve.records",
                "serve.evictions",
                "serve.busy",
                "serve.errors",
            ] {
                r.counter(name);
            }
            let g = r.gauge("serve.sessions");
            r.set_gauge(g, 0.0);
        });
        state
    }

    /// The live metrics registry (scraped by METRICS frames and tests).
    pub fn live(&self) -> &SharedRegistry {
        &self.live
    }

    /// True once a SHUTDOWN frame (or [`ServerHandle::request_shutdown`])
    /// has been seen.
    pub fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    fn count(&self, name: &str, delta: u64) {
        self.live.with(|r| {
            let id = r.counter(name);
            r.add(id, delta);
        });
    }

    fn set_sessions_gauge(&self, n: usize) {
        self.live.with(|r| {
            let g = r.gauge("serve.sessions");
            r.set_gauge(g, n as f64);
        });
    }

    /// Admits a session named `name`, evicting the least recently active
    /// slot if the table is at `max_sessions`. Returns the new slot id, or
    /// an error string for the ERROR frame when the name is already live.
    fn admit(
        self: &Arc<Self>,
        name: &str,
        raw: Option<UnixStream>,
        writer: Arc<Mutex<Box<dyn Write + Send>>>,
    ) -> Result<u64, String> {
        let mut table = self.table.lock().unwrap();
        if table.values().any(|s| s.name == name) {
            return Err(format!("session {name:?} is already live"));
        }
        while table.len() >= self.cfg.max_sessions {
            let victim_id = table
                .iter()
                .min_by_key(|(_, s)| s.last_active.load(Ordering::SeqCst))
                .map(|(id, _)| *id)
                .expect("table is non-empty");
            let victim = table.remove(&victim_id).expect("victim is present");
            victim.kill.store(true, Ordering::SeqCst);
            // Best-effort goodbye; the socket may already be gone.
            if let Ok(mut w) = victim.writer.lock() {
                let _ = frame::write_json(
                    &mut *w,
                    frame::ERROR,
                    &JsonValue::object()
                        .with("code", "evicted")
                        .with("detail", format!("evicted for session {name:?}")),
                );
            }
            victim.wake_reader();
            self.count("serve.evictions", 1);
            // The one journal record for this kill path: its reader wakes
            // into a silent Killed return.
            jlog::warn(
                "serve.session",
                "session evicted (lru)",
                &[
                    ("session", Value::str(&victim.name)),
                    ("sid", victim_id.into()),
                    ("evicted_for", Value::str(name)),
                ],
            );
            self.mark_session_killed(&victim.name);
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let slot = Arc::new(SessionSlot {
            name: name.to_string(),
            last_active: AtomicU64::new(self.tick()),
            kill: AtomicBool::new(false),
            raw,
            writer,
        });
        table.insert(id, slot);
        self.set_sessions_gauge(table.len());
        self.count("serve.sessions_started", 1);
        // A fresh session starts a fresh health history, even if an
        // earlier same-named session ended killed.
        self.health_map.lock().unwrap().remove(name);
        Ok(id)
    }

    /// Retires slot `id` from the session table, freeing its name for a
    /// new HELLO. Idempotent: the worker retires the slot before writing
    /// the REPORT, and session teardown removes it again unconditionally.
    fn remove(&self, id: u64) {
        let mut table = self.table.lock().unwrap();
        table.remove(&id);
        self.set_sessions_gauge(table.len());
    }

    fn slot(&self, id: u64) -> Option<Arc<SessionSlot>> {
        self.table.lock().unwrap().get(&id).cloned()
    }

    /// Wakes every blocked connection reader (shutdown path).
    fn wake_all_conns(&self) {
        for conn in self.conns.lock().unwrap().values() {
            let _ = conn.shutdown(std::net::Shutdown::Read);
        }
    }

    /// Publishes one session's live per-tenant series.
    fn publish_session(&self, core: &SessionCore) {
        let name = core.params().name.clone();
        let (chunks, records) = (core.chunks(), core.records());
        let (acc, cov) = (core.stats().accuracy(), core.coverage());
        let health = core.health().state().as_gauge();
        self.live.with(|r| {
            for (metric, v) in [("chunks", chunks), ("records", records)] {
                let id = r.counter(&format!("serve.session.{name}.{metric}"));
                r.reset_counter(id);
                r.add(id, v);
            }
            for (metric, v) in [("accuracy", acc), ("coverage", cov), ("health", health)] {
                let id = r.gauge(&format!("serve.session.{name}.{metric}"));
                r.set_gauge(id, v);
            }
        });
        self.record_health(&name, core.health_json());
    }

    /// Remembers a session's latest health payload for control-connection
    /// HEALTH frames. A `killed` entry is terminal until the name is
    /// readmitted.
    fn record_health(&self, name: &str, json: JsonValue) {
        let mut map = self.health_map.lock().unwrap();
        if let Some((_, existing)) = map.get(name) {
            if existing.path("state").and_then(|s| s.as_str()) == Some("killed") {
                return;
            }
        }
        let tick = self.tick();
        map.insert(name.to_string(), (tick, json));
        if map.len() > HEALTH_HISTORY {
            if let Some(oldest) = map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            {
                map.remove(&oldest);
            }
        }
    }

    /// Flips a session's health surfaces to `killed`: the Prometheus
    /// gauge and the control-connection HEALTH entry. The caller owns
    /// the journal record explaining *why*.
    fn mark_session_killed(&self, name: &str) {
        self.live.with(|r| {
            let id = r.gauge(&format!("serve.session.{name}.health"));
            r.set_gauge(id, HealthState::Killed.as_gauge());
        });
        let mut map = self.health_map.lock().unwrap();
        let tick = self.tick();
        match map.get_mut(name) {
            Some((t, json)) => {
                *t = tick;
                json.set("state", "killed");
            }
            None => {
                let json = JsonValue::object()
                    .with("schema", HEALTH_SCHEMA)
                    .with("session", name)
                    .with("state", "killed");
                map.insert(name.to_string(), (tick, json));
            }
        }
    }

    /// The control-connection HEALTH payload: every remembered session's
    /// latest health, name-sorted for a deterministic wire surface.
    fn health_overview(&self) -> JsonValue {
        let map = self.health_map.lock().unwrap();
        let mut entries: Vec<(&String, &JsonValue)> =
            map.iter().map(|(k, (_, v))| (k, v)).collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let arr: Vec<JsonValue> = entries.into_iter().map(|(_, v)| v.clone()).collect();
        JsonValue::object()
            .with("schema", HEALTH_SCHEMA)
            .with("sessions", JsonValue::Arr(arr))
    }

    /// The `server` section of STATUS payloads.
    fn status_json(&self) -> JsonValue {
        let sessions = self.table.lock().unwrap().len() as u64;
        let snap = self.live.snapshot();
        let counter = |name: &str| snap.counter_by_name(name).unwrap_or(0);
        JsonValue::object()
            .with("sessions", sessions)
            .with("max_sessions", self.cfg.max_sessions as u64)
            .with("chunks", counter("serve.chunks"))
            .with("records", counter("serve.records"))
            .with("evictions", counter("serve.evictions"))
            .with("busy", counter("serve.busy"))
            .with("errors", counter("serve.errors"))
            .with("stopping", self.stopping())
    }
}

/// What the reader hands the worker.
enum Work {
    /// One validated (CRC-checked) CHUNK frame whose embedded wire chunk
    /// is not yet validated.
    Chunk(Frame),
    /// End of stream; send a final REPORT with this reason.
    End(&'static str),
}

/// Why a session's read loop stopped.
enum ReadEnd {
    /// Client said BYE.
    Bye,
    /// Daemon is shutting down (read half was shut down under the flag).
    Shutdown,
    /// Session was evicted or errored; no report due.
    Killed,
}

/// Runs one accepted connection end to end. Generic over the transport so
/// the stdio mode and the socket mode share every line of protocol logic.
fn handle_connection(
    state: &Arc<ServerState>,
    mut reader: Box<dyn Read + Send>,
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
    raw: Option<UnixStream>,
) {
    // A connection is a sequence of control frames until it either opens a
    // session (HELLO) or hangs up.
    loop {
        let f = match frame::read_frame(&mut reader) {
            Ok(f) => f,
            Err(FrameError::Closed) => return,
            Err(e) => {
                state.count("serve.errors", 1);
                jlog::error(
                    "serve",
                    "malformed frame before hello; connection dropped",
                    &[("detail", Value::str(&e.to_string()))],
                );
                send_error(&writer, "malformed-frame", &e.to_string());
                return;
            }
        };
        match f.ftype {
            frame::HELLO => {
                run_session(state, f, &mut reader, &writer, raw);
                return;
            }
            frame::STATUS_REQ => {
                let status = JsonValue::object()
                    .with("schema", STATUS_SCHEMA)
                    .with("server", state.status_json());
                if send_json(&writer, frame::STATUS, &status).is_err() {
                    return;
                }
            }
            frame::METRICS_REQ => {
                let text = obs::expose::prometheus(&state.live.snapshot(), &[]);
                let mut w = writer.lock().unwrap();
                if frame::write_frame(&mut *w, frame::METRICS, text.as_bytes()).is_err() {
                    return;
                }
            }
            frame::HEALTH_REQ => {
                if send_json(&writer, frame::HEALTH, &state.health_overview()).is_err() {
                    return;
                }
            }
            frame::SHUTDOWN => {
                state.shutdown.store(true, Ordering::SeqCst);
                jlog::info("serve", "shutdown requested; draining sessions", &[]);
                let status = JsonValue::object()
                    .with("schema", STATUS_SCHEMA)
                    .with("server", state.status_json());
                let _ = send_json(&writer, frame::STATUS, &status);
                return;
            }
            other => {
                state.count("serve.errors", 1);
                jlog::error(
                    "serve",
                    "unexpected frame before hello; connection dropped",
                    &[("frame", Value::str(frame::type_name(other)))],
                );
                send_error(
                    &writer,
                    "unexpected-frame",
                    &format!("{} before hello", frame::type_name(other)),
                );
                return;
            }
        }
    }
}

/// Runs one session: admission, reader/worker split, drain, report.
fn run_session(
    state: &Arc<ServerState>,
    hello: Frame,
    reader: &mut Box<dyn Read + Send>,
    writer: &Arc<Mutex<Box<dyn Write + Send>>>,
    raw: Option<UnixStream>,
) {
    let params = match frame::json_payload(&hello)
        .map_err(|e| e.to_string())
        .and_then(|v| SessionParams::from_hello(&v).map_err(|e| e.to_string()))
    {
        Ok(p) => p,
        Err(detail) => {
            state.count("serve.errors", 1);
            jlog::error(
                "serve.session",
                "bad hello rejected",
                &[("detail", Value::str(&detail))],
            );
            send_error(writer, "bad-hello", &detail);
            return;
        }
    };
    let id = match state.admit(&params.name, raw, Arc::clone(writer)) {
        Ok(id) => id,
        Err(detail) => {
            state.count("serve.errors", 1);
            jlog::error(
                "serve.session",
                "duplicate session rejected",
                &[("session", Value::str(&params.name))],
            );
            send_error(writer, "duplicate-session", &detail);
            return;
        }
    };
    jlog::info(
        "serve.session",
        "session admitted",
        &[
            ("session", Value::str(&params.name)),
            ("sid", id.into()),
            ("order", params.order.into()),
            ("warmup", params.warmup.into()),
        ],
    );
    let welcome = JsonValue::object()
        .with("schema", crate::PROTOCOL_SCHEMA)
        .with("session", params.name.as_str())
        .with("chunk_cap", u64::from(DEFAULT_CHUNK_CAP))
        .with("queue", state.cfg.queue_depth as u64)
        .with("table_cap", MAX_TABLE_ENTRIES as u64)
        // Version negotiation: a v1 client that predates HEALTH ignores
        // unknown WELCOME keys and never sends HEALTH_REQ; a new client
        // sends it only after seeing "health" here.
        .with("features", JsonValue::Arr(vec!["health".into()]));
    if send_json(writer, frame::WELCOME, &welcome).is_err() {
        state.remove(id);
        return;
    }

    // The hold gate: a held session's worker waits here until RESUME.
    let gate = Arc::new((Mutex::new(!params.hold), Condvar::new()));
    let core = Arc::new(Mutex::new(SessionCore::new(params)));
    let (tx, rx) = std::sync::mpsc::sync_channel::<Work>(state.cfg.queue_depth);
    let worker = {
        let state = Arc::clone(state);
        let core = Arc::clone(&core);
        let writer = Arc::clone(writer);
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || session_worker(state, core, writer, gate, rx, id))
    };

    let end = session_reader(state, reader, writer, &gate, &tx, &core, id);
    // Teardown must never hang on a held gate: whatever happened, open it
    // so the worker can drain. A held session being shut down still has
    // its in-flight chunks processed before the final report — "draining"
    // means the work is done, not discarded.
    {
        let (open, cv) = &*gate;
        *open.lock().unwrap() = true;
        cv.notify_all();
    }
    match end {
        ReadEnd::Bye => {
            let _ = tx.send(Work::End("bye"));
        }
        ReadEnd::Shutdown => {
            let _ = tx.send(Work::End("shutdown"));
        }
        ReadEnd::Killed => {}
    }
    drop(tx);
    let _ = worker.join();
    state.remove(id);
}

/// The session read loop: frame parsing, sequencing, backpressure.
fn session_reader(
    state: &Arc<ServerState>,
    reader: &mut Box<dyn Read + Send>,
    writer: &Arc<Mutex<Box<dyn Write + Send>>>,
    gate: &Arc<(Mutex<bool>, Condvar)>,
    tx: &SyncSender<Work>,
    core: &Arc<Mutex<SessionCore>>,
    id: u64,
) -> ReadEnd {
    // Sequence number of the next chunk this session will accept.
    let mut accepted: u64 = 0;
    loop {
        let f = match frame::read_frame(reader) {
            Ok(f) => f,
            Err(FrameError::Closed) | Err(FrameError::Io(_))
                if state.stopping() || killed(state, id) =>
            {
                return if state.stopping() {
                    ReadEnd::Shutdown
                } else {
                    ReadEnd::Killed
                };
            }
            Err(FrameError::Closed) => {
                // Client vanished mid-session without a BYE.
                kill_session_record(state, core, id, "client vanished", accepted, "eof");
                return ReadEnd::Killed;
            }
            Err(e) => {
                state.count("serve.errors", 1);
                kill_session_record(
                    state,
                    core,
                    id,
                    "malformed frame; session killed",
                    accepted,
                    &e.to_string(),
                );
                send_error(writer, "malformed-frame", &e.to_string());
                return ReadEnd::Killed;
            }
        };
        if let Some(slot) = state.slot(id) {
            slot.last_active.store(state.tick(), Ordering::SeqCst);
        }
        match f.ftype {
            frame::CHUNK => {
                let (seq, _) = match frame::split_chunk_payload(&f.payload) {
                    Ok(x) => x,
                    Err(e) => {
                        state.count("serve.errors", 1);
                        kill_session_record(
                            state,
                            core,
                            id,
                            "malformed chunk payload; session killed",
                            accepted,
                            &e.to_string(),
                        );
                        send_error(writer, "malformed-frame", &e.to_string());
                        return ReadEnd::Killed;
                    }
                };
                let over_global = state.queued.load(Ordering::SeqCst) >= state.cfg.global_queue;
                if seq != accepted || over_global {
                    busy(state, core, writer, accepted, seq, over_global);
                    continue;
                }
                match tx.try_send(Work::Chunk(f)) {
                    Ok(()) => {
                        state.queued.fetch_add(1, Ordering::SeqCst);
                        accepted += 1;
                    }
                    Err(TrySendError::Full(_)) => busy(state, core, writer, accepted, seq, false),
                    Err(TrySendError::Disconnected(_)) => return ReadEnd::Killed,
                }
            }
            frame::RESUME => {
                if jlog::enabled(jlog::Level::Debug) {
                    let name = core.lock().unwrap().params().name.clone();
                    jlog::debug(
                        "serve.session",
                        "resume; hold gate opened",
                        &[("session", Value::str(&name)), ("sid", id.into())],
                    );
                }
                let (open, cv) = &**gate;
                *open.lock().unwrap() = true;
                cv.notify_all();
            }
            frame::STATUS_REQ => {
                let session = core.lock().unwrap().progress_json();
                let status = JsonValue::object()
                    .with("schema", STATUS_SCHEMA)
                    .with("session", session)
                    .with("server", state.status_json());
                if send_json(writer, frame::STATUS, &status).is_err() {
                    return ReadEnd::Killed;
                }
            }
            frame::HEALTH_REQ => {
                let payload = core.lock().unwrap().health_json();
                if send_json(writer, frame::HEALTH, &payload).is_err() {
                    return ReadEnd::Killed;
                }
            }
            frame::BYE => {
                if jlog::enabled(jlog::Level::Info) {
                    let name = core.lock().unwrap().params().name.clone();
                    jlog::info(
                        "serve.session",
                        "bye; stream complete",
                        &[
                            ("session", Value::str(&name)),
                            ("sid", id.into()),
                            ("chunks", accepted.into()),
                        ],
                    );
                }
                return ReadEnd::Bye;
            }
            frame::SHUTDOWN => {
                state.shutdown.store(true, Ordering::SeqCst);
                jlog::info("serve", "shutdown requested; draining sessions", &[]);
                return ReadEnd::Shutdown;
            }
            other => {
                state.count("serve.errors", 1);
                kill_session_record(
                    state,
                    core,
                    id,
                    "unexpected frame inside a session; session killed",
                    accepted,
                    frame::type_name(other),
                );
                send_error(
                    writer,
                    "unexpected-frame",
                    &format!("{} inside a session", frame::type_name(other)),
                );
                return ReadEnd::Killed;
            }
        }
    }
}

/// The session worker: decodes chunks, feeds the predictor, ACKs, reports.
fn session_worker(
    state: Arc<ServerState>,
    core: Arc<Mutex<SessionCore>>,
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
    gate: Arc<(Mutex<bool>, Condvar)>,
    rx: Receiver<Work>,
    id: u64,
) {
    {
        let (open, cv) = &*gate;
        let mut open = open.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
    }
    // A worker-side kill: the one journal record, one ERROR frame, then
    // the slot is marked and its reader woken so it stops accepting chunks.
    let kill = |seq: u64, msg: &'static str, code: &str, detail: &str| {
        state.count("serve.errors", 1);
        kill_session_record(&state, &core, id, msg, seq, detail);
        send_error(&writer, code, detail);
        if let Some(slot) = state.slot(id) {
            slot.kill.store(true, Ordering::SeqCst);
            slot.wake_reader();
        }
    };
    // One decode buffer for the session's life, cleared per chunk.
    let mut insts = Vec::new();
    while let Ok(item) = rx.recv() {
        match item {
            Work::Chunk(f) => {
                state.queued.fetch_sub(1, Ordering::SeqCst);
                let (seq, wire) = match frame::split_chunk_payload(&f.payload) {
                    Ok(x) => x,
                    Err(_) => unreachable!("reader validated the sequence prefix"),
                };
                // The frame CRC covers the wire chunk: derive its payload
                // CRC from it instead of hashing the payload again.
                let crc = frame::wire_payload_crc(&f);
                insts.clear();
                if let Err(e) = decode_wire_chunk_with_crc(wire, crc, DEFAULT_CHUNK_CAP, &mut insts)
                {
                    let chunk = core.lock().unwrap().chunks();
                    let detail = format!("chunk {chunk}: {e}");
                    kill(
                        seq,
                        "corrupt chunk; session killed",
                        "corrupt-chunk",
                        &detail,
                    );
                    break;
                }
                let (ack, events, name, entries) = {
                    let mut core = core.lock().unwrap();
                    core.feed_chunk(&insts);
                    state.publish_session(&core);
                    (
                        core.progress_json(),
                        core.take_health_events(),
                        core.params().name.clone(),
                        core.unbounded_entries(),
                    )
                };
                for ev in events {
                    log_health_event(&name, id, &ev);
                }
                state.count("serve.chunks", 1);
                state.count("serve.records", insts.len() as u64);
                if let Some(n) = entries.filter(|&n| n > MAX_TABLE_ENTRIES) {
                    let detail = format!("{n} table entries exceed the cap of {MAX_TABLE_ENTRIES}");
                    kill(seq, "table full; session killed", "table-full", &detail);
                    break;
                }
                if send_json(&writer, frame::ACK, &ack).is_err() {
                    kill_session_record(
                        &state,
                        &core,
                        id,
                        "ack write failed; session killed",
                        seq,
                        "client write half broken",
                    );
                    break;
                }
            }
            Work::End(reason) => {
                let report = core.lock().unwrap().report_json(reason);
                if jlog::enabled(jlog::Level::Info) {
                    let core = core.lock().unwrap();
                    jlog::info(
                        "serve.session",
                        "session report",
                        &[
                            ("session", Value::str(&core.params().name)),
                            ("reason", Value::str(reason)),
                            ("producers", core.producers().into()),
                            ("accuracy", core.stats().accuracy().into()),
                        ],
                    );
                }
                // Retire the slot before the client can see the REPORT, so
                // a HELLO it sends right after reuses the name cleanly.
                state.remove(id);
                let _ = send_json(&writer, frame::REPORT, &report);
                break;
            }
        }
    }
    // Anything still queued after a break counts as dequeued. `iter` runs
    // until every sender is gone, so late sends from a reader that has not
    // yet noticed the kill are accounted too (the reader is being woken
    // and drops its sender promptly).
    for item in rx.iter() {
        if let Work::Chunk(_) = item {
            state.queued.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn killed(state: &Arc<ServerState>, id: u64) -> bool {
    state.slot(id).is_none_or(|s| s.kill.load(Ordering::SeqCst))
}

/// Turns a health transition into its journal record. The messages are
/// the stable grep surface (`drift_detected`, `drift_recovered`).
fn log_health_event(name: &str, id: u64, ev: &obs::health::HealthEvent) {
    use obs::health::HealthEvent::*;
    match ev {
        BaselineCaptured { baseline, samples } => jlog::info(
            "serve.health",
            "baseline_captured",
            &[
                ("session", Value::str(name)),
                ("sid", id.into()),
                ("baseline", (*baseline).into()),
                ("samples", (*samples).into()),
            ],
        ),
        DriftDetected {
            baseline,
            window_accuracy,
            ph,
            ..
        } => jlog::warn(
            "serve.health",
            "drift_detected",
            &[
                ("session", Value::str(name)),
                ("baseline", (*baseline).into()),
                ("window_accuracy", (*window_accuracy).into()),
                ("ph", (*ph).into()),
            ],
        ),
        DriftRecovered {
            baseline,
            window_accuracy,
            samples,
        } => jlog::info(
            "serve.health",
            "drift_recovered",
            &[
                ("session", Value::str(name)),
                ("baseline", (*baseline).into()),
                ("window_accuracy", (*window_accuracy).into()),
                ("samples", (*samples).into()),
            ],
        ),
    }
}

/// The one structured record every session-kill path must leave: session
/// name, slot id, the frame/chunk sequence in flight, and the reason.
/// Also flips the session's health surfaces to `killed`.
fn kill_session_record(
    state: &Arc<ServerState>,
    core: &Arc<Mutex<SessionCore>>,
    id: u64,
    msg: &'static str,
    seq: u64,
    detail: &str,
) {
    let name = {
        let mut core = core.lock().unwrap();
        core.kill_health();
        core.params().name.clone()
    };
    state.mark_session_killed(&name);
    jlog::error(
        "serve.session",
        msg,
        &[
            ("session", Value::str(&name)),
            ("sid", id.into()),
            // `frame_seq`, not `seq`: the journal record itself already
            // carries a `seq` (its position in the journal) and the two
            // must not collide in the flattened JSON form.
            ("frame_seq", seq.into()),
            ("detail", Value::str(detail)),
        ],
    );
}

fn busy(
    state: &Arc<ServerState>,
    core: &Arc<Mutex<SessionCore>>,
    writer: &Arc<Mutex<Box<dyn Write + Send>>>,
    accepted: u64,
    refused_seq: u64,
    global: bool,
) {
    state.count("serve.busy", 1);
    if jlog::enabled(jlog::Level::Debug) {
        let name = core.lock().unwrap().params().name.clone();
        jlog::debug(
            "serve.session",
            "busy; chunk refused (go-back-n)",
            &[
                ("session", Value::str(&name)),
                ("accepted", accepted.into()),
                ("refused_seq", refused_seq.into()),
                ("global", global.into()),
            ],
        );
    }
    let _ = send_json(
        writer,
        frame::BUSY,
        &JsonValue::object().with("accepted", accepted),
    );
}

fn send_json(
    writer: &Arc<Mutex<Box<dyn Write + Send>>>,
    ftype: u8,
    v: &JsonValue,
) -> Result<(), FrameError> {
    let mut w = writer.lock().unwrap();
    frame::write_json(&mut *w, ftype, v)
}

fn send_error(writer: &Arc<Mutex<Box<dyn Write + Send>>>, code: &str, detail: &str) {
    let _ = send_json(
        writer,
        frame::ERROR,
        &JsonValue::object()
            .with("code", code)
            .with("detail", detail),
    );
}

/// A bound daemon, ready to accept.
pub struct Server {
    listener: UnixListener,
    path: PathBuf,
    state: Arc<ServerState>,
}

/// A running daemon's handle: its socket path, shared state, and the
/// accept-loop thread to join.
pub struct ServerHandle {
    path: PathBuf,
    state: Arc<ServerState>,
    thread: JoinHandle<()>,
}

impl Server {
    /// Binds the daemon socket, replacing a stale socket file if one is
    /// left over from a dead daemon.
    pub fn bind(path: &Path, cfg: ServeConfig) -> io::Result<Server> {
        assert!(cfg.max_sessions >= 1, "max_sessions must be at least 1");
        assert!(cfg.queue_depth >= 1, "queue_depth must be at least 1");
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            path: path.to_path_buf(),
            state: ServerState::new(cfg),
        })
    }

    /// The daemon's shared state (for tests and embedding).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Runs the accept loop on this thread until a SHUTDOWN frame arrives,
    /// then drains every session and removes the socket file.
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            path,
            state,
        } = self;
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while !state.stopping() {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).ok();
                    let raw = stream.try_clone().ok();
                    let cid = state.next_id.fetch_add(1, Ordering::SeqCst);
                    if let Ok(clone) = stream.try_clone() {
                        state.conns.lock().unwrap().insert(cid, clone);
                    }
                    let writer: Arc<Mutex<Box<dyn Write + Send>>> = Arc::new(Mutex::new(Box::new(
                        io::BufWriter::new(stream.try_clone()?),
                    )));
                    let reader: Box<dyn Read + Send> = Box::new(stream);
                    let state = Arc::clone(&state);
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(&state, reader, writer, raw);
                        state.conns.lock().unwrap().remove(&cid);
                    }));
                    handlers.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    let _ = std::fs::remove_file(&path);
                    return Err(e);
                }
            }
        }
        // Drain: wake every blocked reader. Session readers see the
        // shutdown flag, queue a final End("shutdown"), and their workers
        // report; idle control connections just close.
        jlog::info(
            "serve",
            "draining",
            &[("sessions", state.table.lock().unwrap().len().into())],
        );
        state.wake_all_conns();
        for h in handlers {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&path);
        jlog::info("serve", "daemon stopped", &[]);
        Ok(())
    }

    /// Spawns [`run`](Server::run) on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let path = self.path.clone();
        let state = self.state();
        let thread = std::thread::spawn(move || {
            let _ = self.run();
        });
        ServerHandle {
            path,
            state,
            thread,
        }
    }
}

impl ServerHandle {
    /// The socket path clients connect to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The daemon's shared state.
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Requests shutdown without a client connection (tests, signal glue).
    /// The accept loop notices within one poll interval; sessions drain.
    pub fn request_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.wake_all_conns();
    }

    /// Waits for the accept loop to exit.
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Runs a single anonymous session over arbitrary read/write halves — the
/// `harness serve --stdio` mode. No session table, no eviction; the
/// session still gets sequencing, backpressure, and a final report.
pub fn serve_stdio(reader: Box<dyn Read + Send>, writer: Box<dyn Write + Send>, cfg: ServeConfig) {
    let state = ServerState::new(cfg);
    let writer: Arc<Mutex<Box<dyn Write + Send>>> = Arc::new(Mutex::new(writer));
    handle_connection(&state, reader, writer, None);
}
