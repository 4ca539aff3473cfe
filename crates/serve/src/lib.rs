//! `gdiffd` — a multi-session value-prediction daemon.
//!
//! The paper evaluates gDiff one trace at a time; the north star is a
//! service that multiplexes many live value streams. This crate is that
//! layer: a std-only, long-running daemon that accepts streaming
//! instruction traces over a Unix-domain socket (or stdio), runs one
//! independent gDiff predictor + Global Value Queue per session through
//! the §3 profile-mode loop, and reports per-session accuracy/coverage
//! live — bit-identical to what the same trace produces in a one-shot
//! `harness` run, because the feed loop is the same loop.
//!
//! # The `gdiff-serve/v2` protocol
//!
//! Transport: a byte stream (Unix socket or stdio pipe). Every message is
//! one CRC-framed message (see [`frame`] for the byte layout; v2 frames'
//! CRC covers the header as well as the payload). A normal
//! session conversation:
//!
//! ```text
//! client                                server
//! ──────────────────────────────────────────────────────────────────
//! HELLO {schema, session, order,
//!        table, delay, warmup,
//!        measure, hold?}          →
//!                                 ←     WELCOME {session, chunk_cap,
//!                                                queue, table_cap}
//! CHUNK seq=0 ‖ wire chunk        →
//! CHUNK seq=1 ‖ wire chunk        →
//!                                 ←     ACK {chunks, records, producers,
//!                                            total, predicted, correct,
//!                                            accuracy}
//!                                 ←     BUSY {accepted}   (queue full —
//!                                        resend from seq = accepted)
//! STATUS_REQ                      →
//!                                 ←     STATUS {schema, session, server}
//! BYE                             →
//!                                 ←     REPORT {schema, session, reason,
//!                                               chunks, records,
//!                                               producers, total,
//!                                               predicted, correct,
//!                                               accuracy, coverage}
//! ```
//!
//! A chunk payload is a little-endian `u64` sequence number followed by
//! one standalone **tracefile wire chunk** (a container chunk's 16-byte
//! header plus payload — see `tracefile::encode_wire_chunk`). The server
//! accepts only the exact next sequence number, so backpressure refusals
//! (go-back-N) can never reorder or duplicate predictor updates. Both
//! CRCs are checked exactly, yet the server hashes each received byte
//! once: the payload CRC as the frame is read (checked against the frame
//! CRC), and the wire chunk's payload CRC is derived from it
//! (`frame::wire_payload_crc`) and compared with
//! the one in the chunk header.
//!
//! Control conversations (no session): `STATUS_REQ` → `STATUS`,
//! `METRICS_REQ` → `METRICS` (Prometheus exposition text), `HEALTH_REQ` →
//! `HEALTH` (per-session online health, `gdiff-serve-health/v1`),
//! `SHUTDOWN` → `STATUS`, after which the daemon drains every live
//! session — in-flight chunks are processed, each session receives a
//! final `REPORT` with `reason: "shutdown"` — and exits.
//!
//! `HEALTH_REQ` is version-negotiated: the server advertises
//! `"features": ["health"]` in WELCOME, and clients that predate the
//! feature never send the frame (inside a session it returns that
//! session's health; on a control connection, every known session's).
//!
//! HELLO bounds: `order` is 1..=`gdiff::MAX_ORDER`, `table` is 0
//! (unbounded) or a power of two up to [`session::MAX_TABLE_ENTRIES`], and
//! `delay` is at most [`session::MAX_DELAY`]; anything else draws
//! `ERROR {code: "bad-hello"}` before a session is admitted, so no client
//! can size an allocation or trip a constructor panic.
//!
//! Failure containment: a malformed frame or a CRC-corrupt chunk draws one
//! `ERROR` frame and kills that session only; the daemon keeps serving
//! everyone else. An unbounded (`table=0`) session whose table grows past
//! [`session::MAX_TABLE_ENTRIES`] (WELCOME `table_cap`, checked after each
//! chunk) is killed the same way with `ERROR {code: "table-full"}`. A session
//! evicted to make room (LRU, `--max-sessions`) gets
//! `ERROR {code: "evicted"}`. Every kill path — malformed frame, corrupt
//! chunk, full table, unexpected frame, vanished client, eviction — leaves
//! exactly one structured journal record (`obs::log`) naming the session,
//! slot id, in-flight sequence number, and reason; online accuracy drift
//! (`obs::health`) surfaces as `drift_detected`/`drift_recovered` records
//! and a `serve_session_health` gauge.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod server;
pub mod session;

/// Schema tag of HELLO/WELCOME payloads — the protocol version.
pub const PROTOCOL_SCHEMA: &str = "gdiff-serve/v2";

pub use client::{ClientError, SessionOutcome};
pub use server::{serve_stdio, ServeConfig, Server, ServerHandle, ServerState};
pub use session::{SessionCore, SessionParams, HEALTH_SCHEMA, REPORT_SCHEMA};
