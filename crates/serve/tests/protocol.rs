//! End-to-end protocol tests against an in-process daemon on a real Unix
//! socket: containment (malformed frames, corrupt chunks), LRU eviction,
//! backpressure, concurrency determinism, graceful shutdown, and hostile
//! HELLOs and PC floods.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use obs::log::{self as jlog, Level, LogConfig, OwnedValue};
use obs::JsonValue;
use serve::frame;
use serve::session::{MAX_DELAY, MAX_TABLE_ENTRIES};
use serve::{client, ServeConfig, Server, ServerHandle, SessionParams};
use tracefile::{encode_wire_chunk, DEFAULT_CHUNK_CAP};
use workloads::{Benchmark, DynInst, SyntheticSource, TraceSource};

const SEED: u64 = 42;
const WARMUP: u64 = 100;
const MEASURE: u64 = 2_000;

fn sock_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gdiff-serve-{}-{name}.sock", std::process::id()))
}

fn start(name: &str, cfg: ServeConfig) -> ServerHandle {
    let path = sock_path(name);
    Server::bind(&path, cfg).expect("bind").spawn()
}

fn connect(h: &ServerHandle) -> (UnixStream, UnixStream) {
    // The accept loop polls; retry briefly in case it has not bound yet.
    for _ in 0..100 {
        if let Ok(pair) = client::connect(h.path()) {
            return pair;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("could not connect to {}", h.path().display());
}

/// Enough raw instructions to cover warmup + measure value producers.
fn raw_insts(bench: Benchmark) -> Vec<DynInst> {
    let source = SyntheticSource::new(SEED);
    let mut out = Vec::new();
    let mut producers = 0u64;
    for inst in source.stream(bench) {
        let produces = inst.produces_value();
        out.push(inst);
        if produces {
            producers += 1;
            if producers == WARMUP + MEASURE {
                break;
            }
        }
    }
    out
}

fn wire_chunks(bench: Benchmark, per_chunk: usize) -> Vec<Vec<u8>> {
    raw_insts(bench)
        .chunks(per_chunk)
        .map(|c| encode_wire_chunk(c, 0))
        .collect()
}

fn params(bench: Benchmark) -> SessionParams {
    SessionParams {
        name: bench.name().to_string(),
        order: 8,
        table: 0,
        delay: 0,
        warmup: WARMUP,
        measure: MEASURE,
        hold: false,
    }
}

/// The one-shot reference: the same loop the harness profile runner uses.
fn direct_stats(bench: Benchmark) -> predictors::PredictorStats {
    use predictors::{Capacity, ValuePredictor};
    let source = SyntheticSource::new(SEED);
    let mut p = gdiff::GDiffPredictor::new(Capacity::Unbounded, 8);
    let mut stats = predictors::PredictorStats::new();
    for (n, inst) in source
        .stream(bench)
        .filter(|i| i.produces_value())
        .take((WARMUP + MEASURE) as usize)
        .enumerate()
    {
        let predicted = p.predict(inst.pc);
        if (n as u64) >= WARMUP {
            stats.record(predicted, false, inst.value);
        }
        p.update(inst.pc, inst.value);
    }
    stats
}

fn assert_report_matches(report: &JsonValue, bench: Benchmark) {
    let direct = direct_stats(bench);
    let get = |k: &str| report.path(k).and_then(|v| v.as_f64()).unwrap();
    assert_eq!(get("total") as u64, direct.total(), "{bench:?} total");
    assert_eq!(
        get("predicted") as u64,
        direct.predicted(),
        "{bench:?} predicted"
    );
    assert_eq!(get("correct") as u64, direct.correct(), "{bench:?} correct");
    // Bit-identical accuracy: same counters, same division.
    assert_eq!(get("accuracy"), direct.accuracy(), "{bench:?} accuracy");
    let coverage = direct.predicted() as f64 / direct.total() as f64;
    assert_eq!(get("coverage"), coverage, "{bench:?} coverage");
}

#[test]
fn streamed_session_is_bit_identical_to_one_shot() {
    let h = start("bitident", ServeConfig::default());
    let (mut r, mut w) = connect(&h);
    let chunks = wire_chunks(Benchmark::Gcc, 700);
    let out = client::run_session(&mut r, &mut w, &params(Benchmark::Gcc), &chunks, 4, None)
        .expect("session");
    assert_eq!(
        out.report.path("reason").and_then(|v| v.as_str()),
        Some("bye")
    );
    assert_eq!(
        out.report.path("chunks").and_then(|v| v.as_f64()),
        Some(chunks.len() as f64)
    );
    assert_report_matches(&out.report, Benchmark::Gcc);
    h.request_shutdown();
    h.join();
}

#[test]
fn malformed_frame_kills_session_never_daemon() {
    let h = start("malformed", ServeConfig::default());

    // A connection that talks garbage gets an ERROR and dies.
    let (mut r, mut w) = connect(&h);
    w.write_all(b"this is not a gSv2 frame at all.").unwrap();
    w.flush().unwrap();
    let f = frame::read_frame(&mut r).expect("error frame");
    assert_eq!(f.ftype, frame::ERROR);
    let v = frame::json_payload(&f).unwrap();
    assert_eq!(
        v.path("code").and_then(|c| c.as_str()),
        Some("malformed-frame")
    );
    // The read side then closes (a reset is possible: the server closes
    // with our unread garbage still queued, which Linux reports as
    // ECONNRESET on unix stream sockets).
    assert!(matches!(
        frame::read_frame(&mut r),
        Err(frame::FrameError::Closed) | Err(frame::FrameError::Io(_))
    ));

    // The daemon is fine: a fresh session on a fresh connection works.
    let (mut r2, mut w2) = connect(&h);
    let chunks = wire_chunks(Benchmark::Gzip, 900);
    let out = client::run_session(&mut r2, &mut w2, &params(Benchmark::Gzip), &chunks, 4, None)
        .expect("daemon survived");
    assert_report_matches(&out.report, Benchmark::Gzip);
    h.request_shutdown();
    h.join();
}

/// Opens a session for `bench`, sends chunk 0 clean and chunk 1 damaged
/// by `damage` (after chunk encoding, so the frame CRC stays valid), and
/// expects one ACK and then a `corrupt-chunk` ERROR naming chunk 1 whose
/// detail contains `want`. Returns the clean chunks.
fn expect_corrupt_chunk(
    h: &ServerHandle,
    bench: Benchmark,
    damage: impl FnOnce(&mut Vec<u8>),
    want: &str,
) -> Vec<Vec<u8>> {
    let (mut r, mut w) = connect(h);
    frame::write_json(&mut w, frame::HELLO, &params(bench).to_hello()).unwrap();
    assert_eq!(frame::read_frame(&mut r).unwrap().ftype, frame::WELCOME);

    let chunks = wire_chunks(bench, 800);
    frame::write_frame(&mut w, frame::CHUNK, &frame::chunk_payload(0, &chunks[0])).unwrap();
    let mut bad = chunks[1].clone();
    damage(&mut bad);
    frame::write_frame(&mut w, frame::CHUNK, &frame::chunk_payload(1, &bad)).unwrap();

    // One ACK for the clean chunk, then an ERROR naming the corrupt one.
    let mut saw_error = false;
    for _ in 0..3 {
        let f = frame::read_frame(&mut r).expect("frame");
        match f.ftype {
            frame::ACK => {
                let v = frame::json_payload(&f).unwrap();
                let acked = v.path("chunks").and_then(|c| c.as_f64());
                assert_eq!(acked, Some(1.0), "the corrupt chunk was acknowledged");
            }
            frame::BUSY => continue,
            frame::ERROR => {
                let v = frame::json_payload(&f).unwrap();
                assert_eq!(
                    v.path("code").and_then(|c| c.as_str()),
                    Some("corrupt-chunk")
                );
                let detail = v.path("detail").and_then(|d| d.as_str()).unwrap();
                assert!(detail.contains("chunk 1"), "detail: {detail}");
                assert!(detail.contains(want), "detail: {detail}");
                saw_error = true;
                break;
            }
            other => panic!("unexpected frame type {other:#x}"),
        }
    }
    assert!(saw_error);
    chunks
}

#[test]
fn crc_corrupt_chunk_mid_session_kills_session_only() {
    let h = start("corrupt", ServeConfig::default());
    // Chunk 1's embedded payload is flipped, so the frame CRC is valid but
    // the tracefile CRC inside is not: corruption that arrives
    // mid-session.
    let chunks = expect_corrupt_chunk(
        &h,
        Benchmark::Mcf,
        |bad| {
            let last = bad.len() - 1;
            bad[last] ^= 0x40;
        },
        "crc",
    );

    // The daemon still serves: same session name is free again after the
    // kill, and a full run succeeds.
    let (mut r2, mut w2) = connect(&h);
    let out = loop {
        // The killed session's slot is removed asynchronously; retry
        // while the name is still held.
        match client::run_session(&mut r2, &mut w2, &params(Benchmark::Mcf), &chunks, 4, None) {
            Ok(out) => break out,
            Err(client::ClientError::Server { code, .. }) if code == "duplicate-session" => {
                std::thread::sleep(std::time::Duration::from_millis(10));
                let pair = connect(&h);
                r2 = pair.0;
                w2 = pair.1;
            }
            Err(e) => panic!("daemon did not survive: {e}"),
        }
    };
    assert_report_matches(&out.report, Benchmark::Mcf);
    h.request_shutdown();
    h.join();
}

#[test]
fn corrupt_stored_wire_crc_kills_session_with_corrupt_chunk() {
    // The payload is intact but the CRC field of chunk 1's header (bytes
    // 12..16) is not, under a valid frame CRC: the daemon derives the
    // payload CRC from the frame CRC and must still compare it exactly.
    let h = start("corrupt-crc-field", ServeConfig::default());
    expect_corrupt_chunk(
        &h,
        Benchmark::Vortex,
        |bad| bad[12] ^= 0x01,
        "payload crc mismatch",
    );
    h.request_shutdown();
    h.join();
}

#[test]
fn lru_eviction_under_max_sessions_2() {
    let cfg = ServeConfig {
        max_sessions: 2,
        ..ServeConfig::default()
    };
    let h = start("evict", cfg);

    // Open two idle sessions (HELLO only), oldest first.
    let (mut r1, mut w1) = connect(&h);
    let mut p1 = params(Benchmark::Gcc);
    p1.name = "first".into();
    frame::write_json(&mut w1, frame::HELLO, &p1.to_hello()).unwrap();
    assert_eq!(frame::read_frame(&mut r1).unwrap().ftype, frame::WELCOME);

    let (mut r2, mut w2) = connect(&h);
    let mut p2 = params(Benchmark::Gcc);
    p2.name = "second".into();
    frame::write_json(&mut w2, frame::HELLO, &p2.to_hello()).unwrap();
    assert_eq!(frame::read_frame(&mut r2).unwrap().ftype, frame::WELCOME);

    // Touch the second session so "first" is unambiguously the LRU.
    let chunks = wire_chunks(Benchmark::Gcc, 1_000);
    frame::write_frame(&mut w2, frame::CHUNK, &frame::chunk_payload(0, &chunks[0])).unwrap();
    assert_eq!(frame::read_frame(&mut r2).unwrap().ftype, frame::ACK);

    // A third session must evict "first".
    let (mut r3, mut w3) = connect(&h);
    let mut p3 = params(Benchmark::Gcc);
    p3.name = "third".into();
    frame::write_json(&mut w3, frame::HELLO, &p3.to_hello()).unwrap();
    assert_eq!(frame::read_frame(&mut r3).unwrap().ftype, frame::WELCOME);

    let f = frame::read_frame(&mut r1).expect("eviction notice");
    assert_eq!(f.ftype, frame::ERROR);
    let v = frame::json_payload(&f).unwrap();
    assert_eq!(v.path("code").and_then(|c| c.as_str()), Some("evicted"));

    // The eviction is visible in the daemon's own metrics.
    let snap = h.state().live().snapshot();
    assert_eq!(snap.counter_by_name("serve.evictions"), Some(1));

    h.request_shutdown();
    h.join();
}

#[test]
fn concurrent_sessions_match_sequential_reports() {
    let benches = [
        Benchmark::Gcc,
        Benchmark::Gzip,
        Benchmark::Mcf,
        Benchmark::Parser,
        Benchmark::Twolf,
        Benchmark::Vpr,
        Benchmark::Gap,
        Benchmark::Bzip2,
    ];

    // Sequential pass.
    let h = start("seq", ServeConfig::default());
    let mut sequential = Vec::new();
    for &bench in &benches {
        let (mut r, mut w) = connect(&h);
        let chunks = wire_chunks(bench, 900);
        let out = client::run_session(&mut r, &mut w, &params(bench), &chunks, 4, None)
            .unwrap_or_else(|e| panic!("{bench:?}: {e}"));
        sequential.push(out.report);
    }
    h.request_shutdown();
    h.join();

    // Concurrent pass: all eight sessions at once under the default cap.
    let h = start("conc", ServeConfig::default());
    let mut threads = Vec::new();
    for &bench in &benches {
        let path = h.path().to_path_buf();
        threads.push(std::thread::spawn(move || {
            let (mut r, mut w) = client::connect(&path).expect("connect");
            let chunks = wire_chunks(bench, 900);
            client::run_session(&mut r, &mut w, &params(bench), &chunks, 4, None)
                .unwrap_or_else(|e| panic!("{bench:?}: {e}"))
                .report
        }));
    }
    let concurrent: Vec<JsonValue> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    h.request_shutdown();
    h.join();

    for ((bench, seq), conc) in benches.iter().zip(&sequential).zip(&concurrent) {
        assert_eq!(
            seq, conc,
            "{bench:?} report differs concurrent vs sequential"
        );
        assert_report_matches(conc, *bench);
    }
}

#[test]
fn backpressure_busy_then_resume_is_lossless() {
    // Tiny queues force refusals; hold keeps the worker idle until RESUME
    // so the refusal path triggers deterministically.
    let cfg = ServeConfig {
        max_sessions: 4,
        queue_depth: 2,
        global_queue: 64,
    };
    let h = start("busy", cfg);
    let (mut r, mut w) = connect(&h);
    let chunks = wire_chunks(Benchmark::Vortex, 500);
    assert!(chunks.len() > 4, "need more chunks than the queue holds");
    let mut p = params(Benchmark::Vortex);
    p.hold = true;
    // Window wider than the queue: the 3rd unprocessed chunk must bounce.
    let out = client::run_session(&mut r, &mut w, &p, &chunks, 8, Some(1)).expect("session");
    assert!(out.busy > 0, "backpressure never triggered");
    assert_report_matches(&out.report, Benchmark::Vortex);

    let snap = h.state().live().snapshot();
    assert!(snap.counter_by_name("serve.busy").unwrap_or(0) > 0);

    h.request_shutdown();
    h.join();
}

#[test]
fn shutdown_drains_sessions_with_final_reports() {
    let h = start("drain", ServeConfig::default());
    let (mut r, mut w) = connect(&h);

    frame::write_json(&mut w, frame::HELLO, &params(Benchmark::Perl).to_hello()).unwrap();
    assert_eq!(frame::read_frame(&mut r).unwrap().ftype, frame::WELCOME);
    let chunks = wire_chunks(Benchmark::Perl, 800);
    for (i, c) in chunks.iter().enumerate().take(2) {
        frame::write_frame(&mut w, frame::CHUNK, &frame::chunk_payload(i as u64, c)).unwrap();
    }

    // A second connection asks the daemon to stop.
    let (mut cr, mut cw) = connect(&h);
    let status = client::request_shutdown(&mut cr, &mut cw).expect("shutdown ack");
    assert_eq!(
        status
            .path("server.stopping")
            .map(|v| v == &JsonValue::Bool(true)),
        Some(true)
    );

    // The in-session client reads to the end: ACKs for the in-flight
    // chunks, then a REPORT with reason "shutdown".
    let reason;
    loop {
        match frame::read_frame(&mut r) {
            Ok(f) if f.ftype == frame::ACK => continue,
            Ok(f) if f.ftype == frame::REPORT => {
                let v = frame::json_payload(&f).unwrap();
                reason = v.path("reason").and_then(|s| s.as_str()).map(String::from);
                let fed = v.path("chunks").and_then(|c| c.as_f64()).unwrap();
                assert_eq!(fed, 2.0, "in-flight chunks must be drained, not dropped");
                break;
            }
            Ok(f) => panic!("unexpected frame type {:#x}", f.ftype),
            Err(e) => panic!("stream ended before the report: {e}"),
        }
    }
    assert_eq!(reason.as_deref(), Some("shutdown"));

    // run() returns and removes the socket file.
    let path = h.path().to_path_buf();
    h.join();
    assert!(!path.exists(), "socket file must be removed on shutdown");
}

#[test]
fn per_session_metrics_expose_and_validate() {
    let h = start("metrics", ServeConfig::default());
    let (mut r, mut w) = connect(&h);
    let chunks = wire_chunks(Benchmark::Vpr, 700);
    client::run_session(&mut r, &mut w, &params(Benchmark::Vpr), &chunks, 4, None)
        .expect("session");

    let (mut cr, mut cw) = connect(&h);
    let text = client::fetch_metrics(&mut cr, &mut cw).expect("metrics");
    obs::expose::validate(&text).expect("valid exposition");
    assert!(
        text.contains("serve_session_accuracy{session=\"vpr\"}"),
        "missing per-session accuracy series:\n{text}"
    );
    assert!(text.contains("serve_session_chunks_total{session=\"vpr\"}"));
    assert!(text.contains("serve_sessions_started_total 1"));

    // The status frame carries the same server counters as JSON.
    let status = client::fetch_status(&mut cr, &mut cw).expect("status");
    assert_eq!(
        status.path("schema").and_then(|s| s.as_str()),
        Some(serve::server::STATUS_SCHEMA)
    );
    assert_eq!(
        status.path("server.chunks").and_then(|v| v.as_f64()),
        Some(chunks.len() as f64)
    );

    h.request_shutdown();
    h.join();
}

#[test]
fn same_name_session_reopens_right_after_its_report() {
    // The slot is retired before the REPORT goes out, so a HELLO sent the
    // moment the REPORT arrives must never draw `duplicate-session`.
    let h = start("reopen", ServeConfig::default());
    let chunks = wire_chunks(Benchmark::Mcf, 700);
    for round in 0..120 {
        let (mut r, mut w) = connect(&h);
        let out = client::run_session(&mut r, &mut w, &params(Benchmark::Mcf), &chunks, 4, None)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(
            out.report.path("reason").and_then(|v| v.as_str()),
            Some("bye"),
            "round {round}"
        );
    }
    h.request_shutdown();
    h.join();
}

/// The code of an ERROR frame's JSON payload.
fn error_code(f: &frame::Frame) -> Option<String> {
    assert_eq!(f.ftype, frame::ERROR, "expected ERROR, got {:#x}", f.ftype);
    let v = frame::json_payload(f).unwrap();
    v.path("code").and_then(|c| c.as_str()).map(String::from)
}

#[test]
fn out_of_bounds_hello_is_refused_and_daemon_keeps_serving() {
    // Each of these once passed HELLO: table 3 panicked the connection
    // thread after WELCOME, delay 2^40 aborted the whole daemon while
    // sizing the delay FIFO, and 100 000 nested brackets overflowed the
    // JSON parser's stack.
    let h = start("badhello", ServeConfig::default());
    let mut bad: Vec<(String, Vec<u8>)> = [
        ("table", 3),
        ("table", 2 * MAX_TABLE_ENTRIES as u64),
        ("table", 1 << 40),
        ("delay", MAX_DELAY as u64 + 1),
        ("delay", 1 << 40),
    ]
    .into_iter()
    .map(|(key, value)| {
        let mut hello = params(Benchmark::Gcc).to_hello();
        hello.set(key, value);
        (format!("{key}={value}"), hello.to_json().into_bytes())
    })
    .collect();
    bad.push(("100000 nested '['".into(), vec![b'['; 100_000]));
    for (what, payload) in &bad {
        let (mut r, mut w) = connect(&h);
        frame::write_frame(&mut w, frame::HELLO, payload).unwrap();
        let f = frame::read_frame(&mut r).expect("an answer to the hello");
        assert_eq!(error_code(&f).as_deref(), Some("bad-hello"), "{what}");
        assert!(
            matches!(frame::read_frame(&mut r), Err(frame::FrameError::Closed)),
            "{what}: exactly one ERROR, then the connection closes"
        );
    }
    let snap = h.state().live().snapshot();
    assert_eq!(snap.counter_by_name("serve.errors"), Some(bad.len() as u64));
    assert_eq!(snap.counter_by_name("serve.sessions_started"), Some(0));

    let (mut r, mut w) = connect(&h);
    let chunks = wire_chunks(Benchmark::Gcc, 700);
    let out = client::run_session(&mut r, &mut w, &params(Benchmark::Gcc), &chunks, 4, None)
        .expect("the daemon still serves");
    assert_report_matches(&out.report, Benchmark::Gcc);
    h.request_shutdown();
    h.join();
}

#[test]
fn pc_flood_past_the_table_cap_kills_only_that_session() {
    let h = start("flood", ServeConfig::default());

    // Every record a value producer at a PC never seen before: an
    // unbounded table grows by one entry per record. One full chunk fills
    // the table exactly to the cap; one more fresh PC goes past it.
    let flood: Vec<DynInst> = (0..=MAX_TABLE_ENTRIES as u64)
        .map(|i| DynInst::alu(0x10_0000 + i * 4, 1, [None, None], i))
        .collect();
    let (full, over) = flood.split_at(MAX_TABLE_ENTRIES);
    assert_eq!(full.len(), DEFAULT_CHUNK_CAP as usize);
    let chunks = [encode_wire_chunk(full, 0), encode_wire_chunk(over, 0)];
    let hostile = SessionParams {
        name: "flood".into(),
        ..SessionParams::default()
    };

    jlog::enable(&LogConfig {
        level: Level::Error,
        ..LogConfig::default()
    })
    .unwrap();
    let (mut r, mut w) = connect(&h);
    frame::write_json(&mut w, frame::HELLO, &hostile.to_hello()).unwrap();
    let welcome = frame::json_payload(&frame::read_frame(&mut r).unwrap()).unwrap();
    assert_eq!(
        welcome.path("table_cap").and_then(|v| v.as_f64()),
        Some(MAX_TABLE_ENTRIES as f64)
    );
    // One chunk in flight at a time: the client stops at the ERROR with
    // nothing half sent.
    let mut killed_at = None;
    for (seq, c) in chunks.iter().enumerate() {
        frame::write_frame(&mut w, frame::CHUNK, &frame::chunk_payload(seq as u64, c)).unwrap();
        let f = frame::read_frame(&mut r).unwrap();
        if f.ftype != frame::ACK {
            assert_eq!(error_code(&f).as_deref(), Some("table-full"));
            killed_at = Some(seq);
            break;
        }
    }
    assert_eq!(killed_at, Some(1));
    assert!(matches!(
        frame::read_frame(&mut r),
        Err(frame::FrameError::Closed)
    ));
    let records = jlog::ring_snapshot();
    jlog::disable();
    let flood_errors: Vec<_> = records
        .iter()
        .filter(|rec| {
            rec.level == Level::Error && rec.kv("session") == Some(&OwnedValue::Str("flood".into()))
        })
        .collect();
    assert_eq!(flood_errors.len(), 1, "{flood_errors:?}");
    assert_eq!(flood_errors[0].msg, "table full; session killed");

    // A normal session on the same daemon runs to its usual REPORT.
    let (mut r2, mut w2) = connect(&h);
    let normal = wire_chunks(Benchmark::Gzip, 700);
    let out = client::run_session(&mut r2, &mut w2, &params(Benchmark::Gzip), &normal, 4, None)
        .expect("the daemon still serves");
    assert_eq!(
        out.report.path("reason").and_then(|v| v.as_str()),
        Some("bye")
    );
    assert_report_matches(&out.report, Benchmark::Gzip);
    h.request_shutdown();
    h.join();
}
