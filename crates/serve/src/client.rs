//! A windowed go-back-N streaming client for the `gdiff-serve/v2`
//! protocol — the `harness serve-client` engine and the selftest driver.
//!
//! The client keeps at most `window` unacknowledged chunks in flight.
//! Every [`frame::ACK`] advances the acknowledged count; a [`frame::BUSY`]
//! (per-session queue full, global queue full, or a sequence gap) rewinds
//! the send cursor to the server's `accepted` count and resends from
//! there. Because the server only ever accepts the exact next sequence
//! number, refused chunks can neither reorder nor double-feed the
//! predictor — a Busy storm costs wall clock, never accuracy.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use obs::JsonValue;

use crate::frame::{self, FrameError};
use crate::session::SessionParams;

/// Why a client conversation failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Frame(FrameError),
    /// The server sent an [`frame::ERROR`] frame.
    Server {
        /// Machine-readable code (`evicted`, `corrupt-chunk`, …).
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// The server sent a frame type the client did not expect there.
    Unexpected {
        /// What arrived.
        got: u8,
        /// What the client was waiting for.
        wanted: &'static str,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Server { code, detail } => write!(f, "server error [{code}]: {detail}"),
            ClientError::Unexpected { got, wanted } => write!(
                f,
                "unexpected {} frame while waiting for {wanted}",
                frame::type_name(*got)
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// What a completed session conversation produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The final `gdiff-serve-report/v1` payload.
    pub report: JsonValue,
    /// ACK frames received.
    pub acks: u64,
    /// BUSY frames received (chunks refused and resent).
    pub busy: u64,
}

/// Streams `chunks` (verbatim tracefile wire chunks) through one session
/// and returns the final report.
///
/// `window` is the maximum number of unacknowledged chunks in flight;
/// `resume_after` (used with a `hold` session) sends a [`frame::RESUME`]
/// after that many BUSY frames have been observed, so tests can force
/// backpressure deterministically and then let the session drain.
pub fn run_session(
    reader: &mut impl Read,
    writer: &mut impl Write,
    params: &SessionParams,
    chunks: &[Vec<u8>],
    window: u64,
    resume_after: Option<u64>,
) -> Result<SessionOutcome, ClientError> {
    let window = window.max(1);
    frame::write_json(writer, frame::HELLO, &params.to_hello())?;
    let welcome = frame::read_frame(reader)?;
    match welcome.ftype {
        frame::WELCOME => {}
        frame::ERROR => return Err(server_error(&welcome)),
        other => {
            return Err(ClientError::Unexpected {
                got: other,
                wanted: "welcome",
            })
        }
    }

    let total = chunks.len() as u64;
    let mut next: u64 = 0; // next sequence number to send
    let mut processed: u64 = 0; // chunks the server has ACKed
    let mut acks = 0u64;
    let mut busy = 0u64;
    let mut resumed = false;
    let mut bye_sent = false;

    loop {
        // Fill the window.
        while next < total && next - processed < window {
            let payload = frame::chunk_payload(next, &chunks[next as usize]);
            frame::write_frame(writer, frame::CHUNK, &payload)?;
            next += 1;
        }
        if processed == total && !bye_sent {
            frame::write_frame(writer, frame::BYE, &[])?;
            bye_sent = true;
        }
        let f = frame::read_frame(reader)?;
        match f.ftype {
            frame::ACK => {
                acks += 1;
                let v = frame::json_payload(&f)?;
                processed = uint(&v, "chunks").unwrap_or(processed);
            }
            frame::BUSY => {
                busy += 1;
                let v = frame::json_payload(&f)?;
                if let Some(accepted) = uint(&v, "accepted") {
                    // Go-back-N: resend everything from the server's
                    // accept cursor.
                    next = accepted;
                }
                if let Some(after) = resume_after {
                    if !resumed && busy >= after {
                        frame::write_frame(writer, frame::RESUME, &[])?;
                        resumed = true;
                    }
                }
                // Refused means the queue is full: give the worker a
                // moment rather than hammering the socket.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            frame::REPORT => {
                let report = frame::json_payload(&f)?;
                return Ok(SessionOutcome { report, acks, busy });
            }
            frame::ERROR => return Err(server_error(&f)),
            other => {
                return Err(ClientError::Unexpected {
                    got: other,
                    wanted: "ack/busy/report",
                })
            }
        }
    }
}

/// Asks a daemon for its status frame (optionally inside a session — here,
/// on a fresh control connection).
pub fn fetch_status(
    reader: &mut impl Read,
    writer: &mut impl Write,
) -> Result<JsonValue, ClientError> {
    frame::write_frame(writer, frame::STATUS_REQ, &[])?;
    expect_json(reader, frame::STATUS, "status")
}

/// Asks a daemon for its Prometheus exposition text.
pub fn fetch_metrics(
    reader: &mut impl Read,
    writer: &mut impl Write,
) -> Result<String, ClientError> {
    frame::write_frame(writer, frame::METRICS_REQ, &[])?;
    let f = frame::read_frame(reader)?;
    match f.ftype {
        frame::METRICS => String::from_utf8(f.payload)
            .map_err(|e| ClientError::Frame(FrameError::BadPayload(e.to_string()))),
        frame::ERROR => Err(server_error(&f)),
        other => Err(ClientError::Unexpected {
            got: other,
            wanted: "metrics",
        }),
    }
}

/// Asks a daemon for per-session health (`gdiff-serve-health/v1`).
///
/// Feature-negotiated: a server that advertises `"health"` in its WELCOME
/// `features` array answers this on any connection. This helper runs on a
/// fresh control connection and returns every known session's health.
pub fn fetch_health(
    reader: &mut impl Read,
    writer: &mut impl Write,
) -> Result<JsonValue, ClientError> {
    frame::write_frame(writer, frame::HEALTH_REQ, &[])?;
    expect_json(reader, frame::HEALTH, "health")
}

/// Sends a SHUTDOWN frame and waits for the acknowledging status frame.
pub fn request_shutdown(
    reader: &mut impl Read,
    writer: &mut impl Write,
) -> Result<JsonValue, ClientError> {
    frame::write_frame(writer, frame::SHUTDOWN, &[])?;
    expect_json(reader, frame::STATUS, "status")
}

/// Connects to a daemon socket.
pub fn connect(path: &Path) -> std::io::Result<(UnixStream, UnixStream)> {
    let stream = UnixStream::connect(path)?;
    let write_half = stream.try_clone()?;
    Ok((stream, write_half))
}

fn expect_json(
    reader: &mut impl Read,
    want: u8,
    wanted: &'static str,
) -> Result<JsonValue, ClientError> {
    let f = frame::read_frame(reader)?;
    if f.ftype == want {
        Ok(frame::json_payload(&f)?)
    } else if f.ftype == frame::ERROR {
        Err(server_error(&f))
    } else {
        Err(ClientError::Unexpected {
            got: f.ftype,
            wanted,
        })
    }
}

fn server_error(f: &frame::Frame) -> ClientError {
    match frame::json_payload(f) {
        Ok(v) => ClientError::Server {
            code: v
                .path("code")
                .and_then(|c| c.as_str())
                .unwrap_or("unknown")
                .to_string(),
            detail: v
                .path("detail")
                .and_then(|d| d.as_str())
                .unwrap_or("")
                .to_string(),
        },
        Err(e) => ClientError::Frame(e),
    }
}

/// Reads `key` as a non-negative integer from a JSON object.
fn uint(v: &JsonValue, key: &str) -> Option<u64> {
    v.path(key).and_then(|n| n.as_f64()).map(|n| n as u64)
}
